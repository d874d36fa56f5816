"""Symmetry, admissibility thresholds, and the reflection construction.

A basis a_1 < ... < a_k is symmetric when a_i + a_{k-i} = a_k for every
1 <= i <= k-1, equivalently when its difference sequence (counting up
from zero) reads the same in both directions.  For such bases a
generation of any x below a_k can be reflected into a generation of
h0 * a_k - x that uses exactly h0 stamps, which pins the saturation
threshold h1 into the window [h0, max(h0, 2*h0 - 2)].  The table h0 is
read off narrows that window further, most often to h1 = h0 itself.
"""

from __future__ import annotations

from operator import add

from .core import Basis, Generation, _cover_entries, _Frozen, _h0_stamps
# compute_h0 is not called here: the package re-exports it from this module,
# and bench/probe.py traces analysis.compute_h0
from .core import compute_h0, cover_profile
from .errors import (
    NotSymmetricError,
    UsesTopElementError,
    WeightExceedsBudgetError,
)

# Cap used when no saturation window is known (non-symmetric bases).
DEFAULT_H1_CAP = 64


# ---------- symmetry ----------


def differences(basis: Basis) -> tuple[int, ...]:
    """Consecutive differences of the elements, counting up from zero."""
    out = []
    prev = 0
    for value in basis.elements:
        out.append(value - prev)
        prev = value
    return tuple(out)


def is_symmetric(basis: Basis) -> bool:
    """True iff a_i + a_{k-i} = a_k for every 1 <= i <= k-1.

    Vacuously true for the one-element basis {1}.
    """
    elems = basis.elements
    k = len(elems)
    top = elems[-1]
    return all(elems[i] + elems[k - 2 - i] == top for i in range(k - 1))


def _mirror(half: tuple[int, ...], odd: bool) -> tuple[int, ...]:
    """The symmetric elements with lower half ``half`` and k = 2m - 1 or 2m.

    The top is a_m + a_{m-1} (odd) or 2 * a_m (even); the slots between
    follow the mirror rule a_{k-i} = a_k - a_i.
    """
    if odd:
        top, lower = half[-1] + half[-2], half[:-2]
    else:
        top, lower = 2 * half[-1], half[:-1]
    return half + tuple(top - value for value in reversed(lower)) + (top,)


def symmetrize_odd(half: Basis) -> Basis:
    """Extend m >= 2 elements to the symmetric basis with k = 2m - 1.

    The given elements become the lower half; the top is a_m + a_{m-1}.
    """
    if half.k < 2:
        raise ValueError("need at least two elements for an odd extension")
    return Basis(_mirror(half.elements, odd=True))


def symmetrize_even(half: Basis) -> Basis:
    """Extend m >= 1 elements to the symmetric basis with k = 2m.

    The given elements become the lower half; the top is 2 * a_m.
    """
    return Basis(_mirror(half.elements, odd=False))


# ---------- admissibility thresholds ----------


def compute_h1(basis: Basis, cap: int) -> int | None:
    """Smallest budget h >= h0 whose cover saturates at h * top.

    The h1 that ``analyze`` reports for this cap: None when no budget in
    h0..cap saturates, ValueError when cap < h0.
    """
    return analyze(basis, cap).h1


# ---------- reflection ----------


def reflect_generation(basis: Basis, gen: Generation, h0: int) -> Generation:
    """Reflect a generation of x < top into one of h0 * top - x, weight h0.

    Works by rewriting each used denomination a_i as a_k - a_{k-i}
    (valid exactly when the basis is symmetric): reversing the first
    k - 1 coefficients and topping up with copies of the top denomination
    until the weight is exactly h0.  The input generation must not use
    the top denomination and must use at most h0 stamps.
    """
    if not is_symmetric(basis):
        raise NotSymmetricError(f"{basis} is not symmetric")
    if len(gen.coefficients) != basis.k:
        raise ValueError("generation does not match the basis size")
    if not 0 <= gen.value < basis.top:
        raise ValueError(
            f"value {gen.value} must lie in [0, {basis.top})"
        )
    if gen.weight > h0:
        raise WeightExceedsBudgetError(
            f"generation uses {gen.weight} stamps, budget is {h0}"
        )
    if gen.coefficients[-1] != 0:
        raise UsesTopElementError(
            "generation may not use the top denomination"
        )
    reflected = tuple(reversed(gen.coefficients[:-1])) + (h0 - gen.weight,)
    value = h0 * basis.top - gen.value
    rebuilt = sum(c * a for c, a in zip(reflected, basis.elements))
    if rebuilt != value:
        raise AssertionError("reflection arithmetic is inconsistent")
    return Generation(reflected, value, h0)


# ---------- reports ----------


class BasisReport(_Frozen):
    """Everything the conjecture check needs to know about one basis.

    ``h1`` is None when no saturating budget exists up to ``h1_cap``.
    ``counterexample`` is True for symmetric bases whose h1 is known or
    capped strictly above h0; for non-symmetric bases it stays False.
    """

    _fields = (
        "basis", "symmetric", "h0", "h1", "h1_cap", "theorem_bound",
        "conjecture_holds", "counterexample",
    )

    def to_json_dict(self) -> dict:
        """Stable-order dict for JSON output; do not reorder the keys."""
        return {
            "basis": str(self.basis),
            "k": self.basis.k,
            "symmetric": self.symmetric,
            "h0": self.h0,
            "h1": self.h1,
            "h1_found": self.h1 is not None,
            "theorem_bound": self.theorem_bound,
            "conjecture_holds": self.conjecture_holds,
            "counterexample": self.counterexample,
        }


def _reflection_ceiling(stamps: tuple[int, ...]) -> int:
    """Sigma: every budget h >= sigma saturates the symmetric basis of ``stamps``.

    With g(x) = stamps[x], the fewest stamps for x in 0..T+1 where T is
    the top, sigma is the largest g(r) + g(T - r) - 2 over 1 <= r <= T - 1
    (0 when T = 1).  The sum is the same for r and T - r, so only the
    pairs with r <= T/2 are read, each once, from two half-length slices.
    Proof: write x <= h*T as q*T + r with 0 <= r < T.
    For r = 0, q <= h copies of T make x.  For r > 0, q <= h - 1, and x
    has two generations: q copies of T and a minimal one of r, with
    q + g(r) stamps; and the reflection (``reflect_generation``) at
    budget q + 1 of a minimal generation of T - r, which cannot use T,
    with q + 1 stamps, valid when g(T - r) <= q + 1.  Both fail only when
    h - g(r) < q < g(T - r) - 1, and no q does once
    h >= g(r) + g(T - r) - 2.  So h1 <= max(h0, sigma), and since
    g <= h0 on 1..T-1 that is never weaker than max(h0, 2*h0 - 2); when
    sigma <= h0, h1 = h0.
    """
    top = len(stamps) - 2
    half = top // 2 + 1
    return max(map(add, stamps[1:half], stamps[top - 1:top - half:-1]), default=2) - 2


def analyze(basis: Basis, cap: int | None = None) -> BasisReport:
    """Full admissibility report for one basis.

    h0 is the largest entry of one table ``_h0_stamps`` (as in
    ``compute_h0``).  When ``cap`` is None it defaults to the proven
    saturation window max(h0, 2*h0 - 2) for symmetric bases, else to
    max(64, h0) so the search is always well defined; an explicit cap
    below h0 raises ValueError.  h1 is the first saturated budget from
    h0 on (saturation is permanent, so that is h0 or the first budget a
    sweep saturates at), and each basis has one proven ceiling, a budget
    by which it saturates:

    - sigma (``_reflection_ceiling`` of the h0 table) for a symmetric basis;
    - top - 2 for any other ``meure_applicable`` basis, whose budgets from
      max(1, top - 2) on saturate; the two agree, since such a basis has
      top >= 5 (below);
    - none for every other basis: with k >= 2 and a_{k-1} != top - 1 it
      never saturates (``meure_applicable``), so h1 is None at any cap
      with no sweep.  No symmetric basis is among them: {1} has sigma 0,
      and one with k >= 2 has a_{k-1} = top - 1.

    A ceiling <= h0 gives h1 = h0 with no sweep.  Otherwise one
    ``cover_profile`` runs to min(cap, ceiling), so each sweep is sized
    and refused only by budgets it can reach; one that reaches a ceiling
    within the cap without saturating contradicts the proof and raises
    AssertionError naming the basis.

    A non-symmetric basis with a_{k-1} = top - 1 has k >= 4, since {1, 2}
    and every {1, top - 1, top} are symmetric.  So 2 <= a_2 <= top - 2,
    and top >= 5: top >= k, and the one such basis with k = 4 and top 4,
    {1, 2, 3, 4}, is symmetric.  Each x <= top + 1 then takes at most
    top - 3 stamps: x <= top - 3 takes x ones, top - 2 takes a_2 and
    top - 2 - a_2 ones, top - 1 and top one stamp, top + 1 two.  So
    h0 <= top - 3 < top - 2, and the sweep always runs, to at least
    min(64 or the cap given, top - 2); that size is refused before the
    table.  The sweep refuses its own size.  A cap given below the gap
    floor L = max over i of ceil((a_{i+1} - 1) / a_i) raises ValueError
    before that refusal, since L <= h0: x = a_{i+1} - 1 <= top + 1 is below
    a_{i+1}, so each generation of x uses only elements <= a_i and takes
    at least ceil(x / a_i) stamps.  A cap in L..h0 - 1 is still refused
    by size.
    """
    symmetric = is_symmetric(basis)
    meure = meure_applicable(basis)
    if meure and not symmetric:
        elems = basis.elements
        floor = max(-(-(right - 1) // left) for left, right in zip(elems, elems[1:]))
        if cap is not None and cap < floor:
            raise ValueError(
                f"cap {cap} is below the admissibility threshold, which is at least {floor}"
            )
        _cover_entries(basis.top, min(DEFAULT_H1_CAP if cap is None else cap, basis.top - 2))
    stamps = _h0_stamps(basis)
    h0 = max(stamps)
    bound = max(h0, 2 * h0 - 2)
    if cap is None:
        cap = bound if symmetric else max(DEFAULT_H1_CAP, h0)
    if cap < h0:
        raise ValueError(f"cap {cap} is below the admissibility threshold {h0}")
    ceiling = _reflection_ceiling(stamps) if symmetric else basis.top - 2 if meure else None
    if ceiling is None:
        saturated_at = None
    elif ceiling <= h0:
        saturated_at = h0
    else:
        saturated_at = cover_profile(basis, min(cap, ceiling)).saturated_at
        if saturated_at is None and ceiling <= cap:
            raise AssertionError(f"{basis} does not saturate by its proven ceiling {ceiling}")
    h1 = None if saturated_at is None else max(h0, saturated_at)
    holds = h1 == h0
    return BasisReport(basis, symmetric, h0, h1, cap, bound, holds, symmetric and not holds)


def meure_applicable(basis: Basis) -> bool:
    """True iff the second-largest denomination is one below the largest.

    For k >= 2 these are exactly the bases that saturate at some budget.
    If a_{k-1} = T - 1 for the top T, every budget h >= max(1, T - 2)
    saturates: write x <= h*T as q*T + r with 0 <= r < T.  For r = 0, q
    copies of T make x.  For r > 0, q < h; when q + 1 >= T - r, T - r
    copies of T - 1 and q + 1 - (T - r) of T make x with q + 1 <= h
    stamps, and otherwise q copies of T and r ones make it with
    q + r <= T - 2 stamps.  Conversely, if k >= 2 (so T >= 2) and budget h
    saturates, h*T - 1 is reachable, and h - 1 stamps reach at most
    (h-1)*T < h*T - 1, so it is a sum of exactly h stamps whose shortfalls
    from T add up to 1: T - 1 is an element, and it is the largest below
    T.  ``analyze`` therefore sweeps no other basis with k >= 2.  The
    one-element basis {1} saturates at h = 1 but is not counted here.
    Every symmetric basis with at least two elements qualifies, because
    a_{k-1} = a_k - a_1.
    """
    elems = basis.elements
    return len(elems) > 1 and elems[-2] == elems[-1] - 1
