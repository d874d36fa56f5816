"""Symmetry, admissibility thresholds, and the reflection construction.

A basis a_1 < ... < a_k is symmetric when a_i + a_{k-i} = a_k for every
1 <= i <= k-1, equivalently when its difference sequence (counting up
from zero) reads the same in both directions.  For such bases a
generation of any x below a_k can be reflected into a generation of
h0 * a_k - x that uses exactly h0 stamps, which pins the saturation
threshold h1 into the window [h0, max(h0, 2*h0 - 2)].  The table h0 is
read off narrows that window further, most often to h1 = h0 itself.
The same argument, with one more table for the dual basis, bounds h1
for every basis whose two largest elements are adjacent.
"""

from __future__ import annotations

from itertools import islice
from operator import add

from .core import Basis, Generation, _cover_entries, _dual, _Frozen, _h0_stamps, cover_profile
from .errors import (
    NotSymmetricError,
    UsesTopElementError,
    WeightExceedsBudgetError,
)

# Cap used when no saturation window is known (non-symmetric bases).
DEFAULT_H1_CAP = 64


# ---------- symmetry ----------


def is_symmetric(basis: Basis) -> bool:
    """True iff a_i + a_{k-i} = a_k for every 1 <= i <= k-1.

    That is, iff the basis is its own dual (``core._dual``).  Vacuously
    true for the one-element basis {1}.
    """
    return _dual(basis.elements) == basis.elements


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


def compute_h0(basis: Basis) -> int:
    """Smallest budget whose cover exceeds the top denomination.

    cover(h) passes top exactly when every x <= top + 1 needs at most h
    stamps, so h0 is the largest entry of ``core._h0_stamps``.
    """
    return max(_h0_stamps(basis))


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


def _reflection_ceiling(stamps: tuple[int, ...], dual: tuple[int, ...]) -> int:
    """Sigma*: every budget h >= sigma* saturates the paired basis of ``stamps``.

    A basis A with top T is paired when its dual A* (``core._dual``) is a
    basis.  ``stamps`` and ``dual`` are the fewest-stamp tables g of A and
    g* of A* on 0..T+1 (``_h0_stamps``), and sigma* is the largest
    g(r) + g*(T - r) - 2 over 1 <= r <= T - 1 (0 when T = 1), read pair
    by pair with iterators, so no slice of either table is copied.

    Proof: write x <= h*T as q*T + r with 0 <= r < T.  For r = 0, q <= h
    copies of T make x.  For r > 0, q <= h - 1, and x has two generations:

    - q copies of T and a minimal generation of r, with q + g(r) stamps;
    - x = (q + 1)*T - (T - r): take q + 1 copies of T and swap
      m = g*(T - r) of them for the elements a whose deficits T - a make a
      minimal generation of T - r in A*.  That generation cannot use T,
      since T - r < T, so each deficit is T - a for an a in A.  That is
      q + 1 stamps, valid when m <= q + 1.

    Both fail only when h - g(r) < q < g*(T - r) - 1, and no q does once
    h >= g(r) + g*(T - r) - 2.  So h1 <= max(h0, sigma*), and h1 = h0 when
    sigma* <= h0.

    A symmetric basis is its own dual, so it passes its own table as
    ``dual``, and sigma* is its reflection ceiling sigma: the swap is
    ``reflect_generation``, and since g <= h0 on 1..T-1, sigma is never
    weaker than the window max(h0, 2*h0 - 2).  And r ones make r, and
    T - r ones make T - r in A*, so g(r) <= r, g*(T - r) <= T - r and
    sigma* <= T - 2 when T >= 2.  For T = 1, sigma* = 0 is not <= T - 2:
    {1}'s bound of 1 comes from cover(1) = 1 directly.
    """
    top = len(stamps) - 2
    return max(map(add, islice(stamps, 1, top), islice(reversed(dual), 2, None)), default=2) - 2


def analyze(basis: Basis, cap: int | None = None) -> BasisReport:
    """Full admissibility report for one basis.

    h0 is the largest entry of one table ``_h0_stamps`` (as in
    ``compute_h0``).  When ``cap`` is None it defaults to the proven
    saturation window max(h0, 2*h0 - 2) for symmetric bases, else to
    max(64, h0) so the search is always well defined; an explicit cap
    below h0 raises ValueError.  h1 is the first saturated budget from
    h0 on (saturation is permanent, so that is h0 or the first budget a
    sweep saturates at).  The dual (``core._dual``), built once, decides
    the rest: the basis is symmetric when it is its own dual, and paired
    when its dual is a basis.  A paired basis has one proven ceiling,
    sigma* (``_reflection_ceiling`` of its table and its dual's; a
    symmetric basis builds one table, and {1} has sigma* 0).  Every other
    basis never saturates, and h1 is None at any cap with no sweep.  A
    ceiling <= h0 gives h1 = h0 with no sweep.  Otherwise one
    ``cover_profile`` runs to min(cap, ceiling), so each sweep is sized
    and refused only by budgets it can reach; one that reaches a ceiling
    within the cap without saturating contradicts the proof and raises
    AssertionError naming the basis.  A sweep never saturates below h0,
    so the budget it saturates at is h1: saturation at g >= 2 gives
    cover g*top > top, so g >= h0, and saturation at g = 1 means the
    basis is {1, ..., top}, which is symmetric with sigma* = 0 and never
    sweeps.

    A cap given is judged against h0 once the one table exists, for every
    basis.  A non-symmetric paired basis is then refused by the size of a
    sweep to min(cap, top - 2), a bound on work not yet known, so that no
    refusal waits for two tables; with no cap given, that refusal comes
    before any table, at min(64, top - 2).  Since sigma* <= top - 2, the
    sweep it then runs is no larger, unless the default cap rose to
    h0 > 64; that sweep refuses its own size.
    """
    elems, top = basis.elements, basis.top
    dual = _dual(elems)
    symmetric = dual == elems
    paired = dual[0] == 1
    if paired and not symmetric and cap is None:
        _cover_entries(top, min(DEFAULT_H1_CAP, top - 2))
    stamps = _h0_stamps(basis)
    h0 = max(stamps)
    bound = max(h0, 2 * h0 - 2)
    if cap is None:
        cap = bound if symmetric else max(DEFAULT_H1_CAP, h0)
    elif cap < h0:
        raise ValueError(f"cap {cap} is below the admissibility threshold {h0}")
    elif paired and not symmetric:
        _cover_entries(top, min(cap, top - 2))
    h1 = None
    if paired:
        ceiling = _reflection_ceiling(stamps, stamps if symmetric else _h0_stamps(Basis(dual)))
        h1 = h0 if ceiling <= h0 else cover_profile(basis, min(cap, ceiling)).saturated_at
        if h1 is None and ceiling <= cap:
            raise AssertionError(f"{basis} does not saturate by its proven ceiling {ceiling}")
    holds = h1 == h0
    return BasisReport(basis, symmetric, h0, h1, cap, bound, holds, symmetric and not holds)
