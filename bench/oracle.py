"""Independent reference answers for checking the program's outputs.

Reachability by at most h stamps is kept as a Python int used as a bit
set: bit x is set when x is a sum of at most h denominations, so the
next budget is ``R | (R << a_1) | ... | (R << a_k)`` and the cover is
one below the lowest clear bit.  None of this shares code with the
package under test.
"""

from __future__ import annotations

DEFAULT_H1_CAP = 64  # the cap the CLI uses for non-symmetric bases


def covers(elements: tuple[int, ...], h_max: int) -> list[int]:
    """``out[h - 1]`` is the cover at budget h, for h = 1..h_max."""
    reach = 1
    out = []
    for _ in range(h_max):
        step = reach
        for a in elements:
            step |= reach << a
        reach = step
        out.append((~reach & (reach + 1)).bit_length() - 2)
    return out


def is_symmetric(elements: tuple[int, ...]) -> bool:
    top = elements[-1]
    k = len(elements)
    return all(elements[i] + elements[k - 2 - i] == top for i in range(k - 1))


def h0_of(elements: tuple[int, ...]) -> int:
    """Smallest budget whose cover exceeds the top denomination."""
    top = elements[-1]
    reach = 1
    h = 0
    while True:
        h += 1
        step = reach
        for a in elements:
            step |= reach << a
        reach = step
        if (~reach & (reach + 1)).bit_length() - 2 > top:
            return h


def default_cap(elements: tuple[int, ...], h0: int) -> int:
    """The h1 search cap ``analyze`` uses when none is given."""
    if is_symmetric(elements):
        return max(h0, 2 * h0 - 2)
    return max(DEFAULT_H1_CAP, h0)


def report(elements: tuple[int, ...], cap: int | None = None) -> dict:
    """The fields of one ``analyze`` JSON line, computed independently."""
    top = elements[-1]
    symmetric = is_symmetric(elements)
    h0 = h0_of(elements)
    if cap is None:
        cap = default_cap(elements, h0)
    h1 = None
    for h, n in enumerate(covers(elements, cap), start=1):
        if h >= h0 and n == h * top:
            h1 = h
            break
    return {
        "basis": ",".join(map(str, elements)),
        "k": len(elements),
        "symmetric": symmetric,
        "h0": h0,
        "h1": h1,
        "h1_found": h1 is not None,
        "theorem_bound": max(h0, 2 * h0 - 2),
        "conjecture_holds": h1 == h0,
        "counterexample": symmetric and h1 != h0,
    }


def mismatches(line: dict, expected: dict) -> list[str]:
    """Fields of an output line that disagree with the reference."""
    return [
        f"{key}={line.get(key)!r} expected {value!r}"
        for key, value in expected.items()
        if line.get(key) != value
    ]
