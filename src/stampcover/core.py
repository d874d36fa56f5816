"""Stamp bases, minimal-stamp tables, covers, and generation witnesses.

A basis is a strictly increasing sequence of denominations starting at 1.
Its cover at budget h is the largest n such that every integer in 1..n is
a sum of at most h denominations (repetition allowed).  One windowed
bitset sweep gives the covers of all budgets, and with them every cover
the program reports; the minimal-stamp table gives h0 and witnesses and
certifies each single cover; a brute-force enumerator over
coefficient vectors serves as an independent cross-check.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    InvalidBasisError,
    NonPositiveError,
    NotIncreasingError,
    NotRepresentableError,
    NotStartingAtOneError,
    OverflowLimitError,
    TooLargeError,
)

MAX_ELEMENT = 2**64 - 1

# Refuse to allocate tables beyond this many entries.  Each entry is a
# separate int object, and ``min_stamp_table`` holds a list and its tuple
# copy, so a table near the limit peaks at about 750 MiB; desk-scale work
# stays far below it.  Every refusal reads this name when it is called.
DEFAULT_TABLE_LIMIT = 1 << 24

# Refuse brute-force enumerations beyond this many coefficient vectors.
DEFAULT_ENUMERATION_CEILING = 10**8


# ---------- limits ----------


def _check_size(
    size: int, what: str = "table", unit: str = "entries", per_entry: int = 1
) -> int:
    """``size``, refused past ``per_entry`` units per entry of DEFAULT_TABLE_LIMIT.

    Every table, sweep and level refusal words its OverflowLimitError here,
    before anything of that size is allocated; a caller may allocate what
    it returns.
    """
    limit = per_entry * DEFAULT_TABLE_LIMIT
    if size > limit:
        raise OverflowLimitError(f"{what} would need {size} {unit}, limit is {limit}")
    return size


# ---------- values ----------

_set = object.__setattr__  # skips _Frozen.__setattr__; no __dict__ is materialized


class _Frozen:
    """Immutable value: equality, hash and repr over the names in ``_fields``.

    ``__init__`` takes the fields in order, first by position and then by
    name, into the instance dict; a class that validates its input does so
    before calling it.  Pickle restores the instance dict directly, so an
    unpickled value is not validated again.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs:  # the fields after the positional ones, in order
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if len(args) != len(fields) or kwargs:
            raise TypeError(
                f"{type(self).__qualname__}() takes {', '.join(fields)}, "
                "first by position and then by name"
            )
        self.__dict__.update(zip(fields, args))  # one call, past __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        """The fields by name, in order (shallow: values are not converted)."""
        return {name: getattr(self, name) for name in self._fields}


# ---------- basis ----------


class Basis(_Frozen):
    """Strictly increasing stamp denominations, smallest always 1."""

    _fields = ("elements",)

    def __init__(self, elements: tuple[int, ...]) -> None:
        _set(self, "elements", tuple(elements))
        self._validate()

    def _validate(self) -> None:
        """Raise the InvalidBasisError naming the first defect, if any."""
        elems = self.elements
        if not elems:
            raise InvalidBasisError("a basis needs at least one element")
        for value in elems:
            # bool is an int subclass, but True,2 would not parse back
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidBasisError(f"element {value!r} is not an integer")
            if value <= 0:
                raise NonPositiveError(f"element {value} is not positive")
            if value > MAX_ELEMENT:
                raise OverflowLimitError(
                    f"element {value} does not fit in 64 bits"
                )
        if elems[0] != 1:
            raise NotStartingAtOneError(
                f"smallest element must be 1, got {elems[0]}"
            )
        for left, right in zip(elems, elems[1:]):
            if right <= left:
                raise NotIncreasingError(
                    f"elements must be strictly increasing ({left} then {right})"
                )

    @property
    def k(self) -> int:
        """Number of denominations."""
        return len(self.elements)

    @property
    def top(self) -> int:
        """Largest denomination."""
        return self.elements[-1]

    def __str__(self) -> str:
        return ",".join(str(value) for value in self.elements)


def _dual(elements: tuple[int, ...]) -> tuple[int, ...]:
    """The dual A* = {T - a : a in A, a < T} | {T} of a basis A with top T.

    Read from the top of A down, the deficits T - a of its elements below
    T rise strictly from T - a_{k-1} >= 1 to T - 1, so A* is strictly
    increasing with top T, and it is a basis exactly when it starts at 1.
    It decides two facts about A, and no other code in the package does:

    - A is symmetric (a_i + a_{k-i} = T for 1 <= i <= k - 1) exactly when
      A* = A, since the i-th element of A* is T - a_{k-i} for i < k and
      its last is T.
    - A saturates at some budget (cover h * T) exactly when A* is a basis,
      that is, when A = {1} or a_{k-1} = T - 1; such a basis is *paired*.
      {1} saturates at budget 1, since cover(1) = 1 = T.  For k >= 2 and
      a_{k-1} = T - 1, every budget from max(1, T - 2) on saturates,
      since sigma* <= T - 2 (``analysis._reflection_ceiling``).
      Conversely, if k >= 2 (so T >= 2) and budget h saturates, h*T - 1
      is reachable, and h - 1 stamps reach at most (h - 1)*T < h*T - 1,
      so it is a sum of exactly h stamps whose shortfalls from T add up
      to 1: T - 1 is an element, the largest below T, and A* starts at 1.

    So a paired basis saturates by max(1, T - 2), no other basis ever
    does, and every symmetric basis is paired.
    """
    return tuple(elements[-1] - a for a in reversed(elements[:-1])) + elements[-1:]


def _integer(text: str) -> int:
    """``int(text)`` for an optional ``-`` and ASCII digits, else ValueError.

    ``int`` alone would also read ``1_0`` as 10, ``+3`` and ``٣`` as 3, and
    blanks around the digits.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_basis(text: str) -> Basis:
    """Parse comma-separated denominations like ``"1,3,5"`` into a Basis.

    Whitespace around commas is ignored; each element is an optional ``-``
    and ASCII digits (``_integer``).  Raises InvalidBasisError (or a
    subclass naming the specific defect) on anything else.
    """
    if text is None or not text.strip():
        raise InvalidBasisError("empty basis text")
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise InvalidBasisError(f"empty field in basis text {text!r}")
        try:
            values.append(_integer(token))
        except ValueError:
            raise InvalidBasisError(
                f"{token!r} is not an integer"
            ) from None
    return Basis(tuple(values))


# ---------- generations ----------


class Generation(_Frozen):
    """One representation of ``value`` as a multiset of denominations.

    ``coefficients[i]`` counts copies of the i-th denomination; ``weight``
    is the total number of stamps used.
    """

    _fields = ("coefficients", "value", "weight")

    def __init__(self, coefficients: tuple[int, ...], value: int, weight: int) -> None:
        coeffs = tuple(coefficients)
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be non-negative")
        if weight != sum(coeffs):
            raise ValueError(f"weight {weight} does not match coefficients {coeffs}")
        super().__init__(coeffs, value, weight)


class MinStampTable(_Frozen):
    """``min_stamps[x]`` = fewest stamps summing to x, for 0 <= x <= bound."""

    _fields = ("basis", "bound", "min_stamps")

    def generation(self, x: int, budget: int) -> Generation:
        """Reconstruct a minimal-weight generation of x, or refuse.

        Raises NotRepresentableError when x needs more than ``budget``
        stamps.  Ties are broken toward the largest denomination, so the
        witness is deterministic.
        """
        if not 0 <= x <= self.bound:
            raise ValueError(f"{x} is outside the table range 0..{self.bound}")
        need = self.min_stamps[x]
        if need > budget:
            raise NotRepresentableError(
                f"{x} needs {need} stamps, budget is {budget}"
            )
        elems = self.basis.elements
        coeffs = [0] * len(elems)
        remaining = x
        while remaining:
            want = self.min_stamps[remaining] - 1
            for i in range(len(elems) - 1, -1, -1):
                step = elems[i]
                if step <= remaining and self.min_stamps[remaining - step] == want:
                    coeffs[i] += 1
                    remaining -= step
                    break
            else:
                raise AssertionError("minimal-stamp table is inconsistent")
        return Generation(tuple(coeffs), x, need)


def min_stamp_table(basis: Basis, bound: int) -> MinStampTable:
    """Minimal stamp counts for every value 0..bound by forward recurrence.

    Each element a <= bound takes 1 stamp.  Each x in the gap after a,
    up to the next element or bound, takes 1 + the fewest stamps of
    x - s over the elements s <= a, the only ones below x; they are kept
    in one list that grows by one append per element.  So a run of
    elements costs one step each, and the table O(bound * k) at most.
    Raises OverflowLimitError, reporting the size it would have needed,
    when bound + 1 exceeds DEFAULT_TABLE_LIMIT.
    """
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    elems = basis.elements
    stamps = [0] * _check_size(bound + 1)
    steps = []  # the elements 1 < s <= a
    for a, after in zip(elems, elems[1:] + (bound + 1,)):
        if a > bound:
            break
        stamps[a] = 1
        if a > 1:
            steps.append(a)
        for x in range(a + 1, min(after, bound + 1)):
            best = stamps[x - 1]  # one stamp of value 1
            for step in steps:
                candidate = stamps[x - step]
                if candidate < best:
                    best = candidate
            stamps[x] = best + 1
    return MinStampTable(basis, bound, tuple(stamps))


def find_generation(basis: Basis, x: int, h: int) -> Generation:
    """A minimal-weight generation of x using at most h stamps."""
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if h < 1:
        raise ValueError(f"h must be at least 1, got {h}")
    table = min_stamp_table(basis, max(x, 1))
    return table.generation(x, h)


# ---------- covers ----------


class CoverProfile(_Frozen):
    """Covers for every budget 1..h_max of one basis.

    ``covers`` holds the covers of the budgets below ``saturated_at``, the
    first saturated budget (None when none up to h_max saturates); from
    there on the cover is h * top.
    """

    _fields = ("basis", "h_max", "covers")

    def __init__(self, basis: Basis, h_max: int, covers: tuple[int, ...]) -> None:
        covers = tuple(covers)
        if len(covers) > h_max:
            raise ValueError(f"{len(covers)} covers for budgets 1..{h_max}")
        super().__init__(basis, h_max, covers)

    @property
    def saturated_at(self) -> int | None:
        """The first budget whose cover is h * top, or None up to h_max."""
        unsaturated = len(self.covers)
        return unsaturated + 1 if unsaturated < self.h_max else None

    def cover(self, h: int) -> int:
        if not 1 <= h <= self.h_max:
            raise ValueError(f"h must be in 1..{self.h_max}, got {h}")
        covers = self.covers
        return covers[h - 1] if h <= len(covers) else h * self.basis.top


def _cover_entries(top: int, h: int) -> int:
    """The h * top + 2 entries a cover sweep up to budget h stands for, or refuse.

    OverflowLimitError when they pass DEFAULT_TABLE_LIMIT, which also
    keeps h * top + 1, the first value no budget-h generation reaches,
    within 64 bits.  A sweep (``cover_profile``), the sweep ``analyze``
    is sure to run, and each extremal box refuse here.
    """
    return _check_size(h * top + 2, "cover sweep")


def _reach_cover(reach: int) -> int:
    """The cover read off a reach bitset: one below its lowest clear bit.

    Bit x of ``reach`` is set when x is reachable; bit 0 always is.
    """
    return (~reach & (reach + 1)).bit_length() - 2


def cover(basis: Basis, h: int) -> int:
    """Largest n with every value 1..n a sum of at most h denominations.

    Always well defined: 1 is in the basis, so n >= h >= 1, and n can
    never exceed h * top.  n is read off one ``cover_profile`` sweep and
    certified at g, the budget where the sweep first saturates (h if it
    does not), on a minimal-stamp table of n_g + 2 entries: n_g is the
    cover at g exactly when every x in 1..n_g needs at most g stamps and
    n_g + 1 needs more, and the table computes those counts without the
    sweep, so a wrong sweep raises AssertionError naming the basis.
    Saturation is permanent (``cover_profile``), so a certified
    n_g = g * top gives h * top at every h >= g.  The sweep's own refusal
    (``_cover_entries``) fires before any shift or table.
    """
    if h < 1:
        raise ValueError(f"h must be at least 1, got {h}")
    profile = cover_profile(basis, h)
    g = profile.saturated_at or h
    n = profile.cover(g)
    stamps = min_stamp_table(basis, n + 1).min_stamps
    if max(stamps[:-1]) > g or stamps[-1] <= g:
        raise AssertionError(f"the table refutes cover {n} of {basis} at h={g}")
    return profile.cover(h)


def _h0_stamps(basis: Basis) -> tuple[int, ...]:
    """Fewest stamps for each value 0..top + 1: the one table h0 is read off.

    OverflowLimitError when its top + 2 entries pass the table limit.
    """
    return min_stamp_table(basis, basis.top + 1).min_stamps


def cover_profile(basis: Basis, h_max: int) -> CoverProfile:
    """Covers for all budgets 1..h_max from one windowed bitset sweep.

    R_h = R_{h-1} | OR_a R_{h-1} << a, where bit i of ``reach`` is value
    base + i; the cover is one below the lowest clear bit.  Every value
    below n + 1 - top is reachable and a shift by a <= top carries it to
    at most n, so the window drops those bits after each budget.  A
    paired basis (``_dual``) holds top - 1, or is {1}, and its top pair
    takes one shift of R | R << 1, which the step by 1 builds anyway
    ({1}'s shift by top - 1 = 0 adds nothing).  The cover is read off
    the low 2 * top + 2 bits, which hold the lowest clear bit unless the
    cover grew by more than top + 1 (as on a saturated budget); only then
    is all of ``reach`` read.  Saturation is permanent (if 1..h*top is
    reachable, adding top reaches the rest of 1..(h+1)*top), so the sweep
    stops at the first saturated budget and the profile answers g * top
    from there on.  A paired basis saturates by max(1, top - 2)
    (``_dual``), so its sweep is sized and run to
    min(h_max, max(1, top - 2)), and one that reaches that budget below
    h_max unsaturated contradicts the proof and raises AssertionError
    naming the basis; every other sweep is sized by h_max.  Refuses when
    budget * top + 2, the entries of the table the sweep stands for,
    pass the limit (``_cover_entries``), before any shift.
    """
    if h_max < 1:
        raise ValueError(f"h_max must be at least 1, got {h_max}")
    elems = basis.elements
    top = elems[-1]
    paired = _dual(elems)[0] == 1
    budget = min(h_max, max(1, top - 2)) if paired else h_max
    _cover_entries(top, budget)
    mids = elems[1:-2] if paired else elems[1:-1]
    last = top - 1 if paired else top
    low = (1 << 2 * top + 2) - 1
    reach = 1  # only 0, with no stamps
    base = 0
    covers = []
    for h in range(1, budget + 1):
        pair = reach | reach << 1
        grown = pair | (pair if paired else reach) << last
        for step in mids:
            grown |= reach << step
        reach = grown
        window = reach & low
        if window == low:
            window = reach
        n = base + (~window & (window + 1)).bit_length() - 2  # _reach_cover, no call
        if n == h * top:
            break
        covers.append(n)
        drop = n + 1 - top - base
        if drop > 0:
            reach >>= drop
            base += drop
    if len(covers) == budget < h_max:
        raise AssertionError(f"{basis} does not saturate by its proven ceiling {budget}")
    return CoverProfile(basis, h_max, tuple(covers))


def brute_force_cover(
    basis: Basis, h: int, *, ceiling: int = DEFAULT_ENUMERATION_CEILING
) -> int:
    """Cover by exhaustive enumeration of all multisets of size <= h.

    Independent of the table recurrence on purpose: it exists to
    cross-check it.  Raises TooLargeError when the multiset count
    C(h + k, k) exceeds ``ceiling``.
    """
    if h < 1:
        raise ValueError(f"h must be at least 1, got {h}")
    count = math.comb(h + basis.k, basis.k)
    if count > ceiling:
        raise TooLargeError(
            f"{count} coefficient vectors exceed the ceiling {ceiling}"
        )
    reachable = {0}
    for size in range(1, h + 1):
        for combo in itertools.combinations_with_replacement(basis.elements, size):
            reachable.add(sum(combo))
    n = 0
    while n + 1 in reachable:
        n += 1
    return n
