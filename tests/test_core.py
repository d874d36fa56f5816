"""Unit tests for bases, minimal-stamp tables, covers, and witnesses."""

from __future__ import annotations

import itertools
import random

import pytest

import stampcover
from stampcover import (
    Basis,
    Generation,
    MinStampTable,
    brute_force_cover,
    cover,
    cover_profile,
    find_generation,
    min_stamp_table,
    parse_basis,
)
from stampcover.errors import (
    InvalidBasisError,
    NonPositiveError,
    NotIncreasingError,
    NotRepresentableError,
    NotStartingAtOneError,
    OverflowLimitError,
    TooLargeError,
)


# ---------- helpers ----------


def _random_basis(rng: random.Random, max_k: int = 5, max_element: int = 12) -> Basis:
    k = rng.randint(1, max_k)
    if k == 1:
        return Basis((1,))
    rest = rng.sample(range(2, max_element + 1), k - 1)
    return Basis((1,) + tuple(sorted(rest)))


def _enumeration_min_weight(basis: Basis, x: int, h_max: int) -> int | None:
    """Smallest multiset size summing to x, found the slow way."""
    if x == 0:
        return 0
    for size in range(1, h_max + 1):
        for combo in itertools.combinations_with_replacement(basis.elements, size):
            if sum(combo) == x:
                return size
    return None


# ---------- parsing and validation ----------


def test_parse_golden():
    basis = parse_basis("1,3,6,10")
    assert basis.elements == (1, 3, 6, 10)
    assert basis.k == 4
    assert basis.top == 10


def test_parse_single_element():
    assert parse_basis("1").elements == (1,)


def test_parse_ignores_whitespace():
    assert parse_basis(" 1 , 3 ,6 ").elements == (1, 3, 6)


def test_parse_rejects_missing_one():
    with pytest.raises(NotStartingAtOneError):
        parse_basis("2,3")


def test_parse_rejects_duplicates_and_disorder():
    with pytest.raises(NotIncreasingError):
        parse_basis("1,3,3")
    with pytest.raises(NotIncreasingError):
        parse_basis("1,6,3")


def test_parse_rejects_non_positive():
    with pytest.raises(NonPositiveError):
        parse_basis("1,0,5")
    with pytest.raises(NonPositiveError):
        parse_basis("1,-2")


def test_parse_rejects_garbage():
    for text in ["", "   ", "1,,3", "1,a", "1;3"]:
        with pytest.raises(InvalidBasisError):
            parse_basis(text)


def test_parse_reads_only_ascii_digits():
    # int() alone would read each of these as an integer
    for token in ["2_5", "+3", "\u0663", "\uff13", "1_000"]:
        with pytest.raises(InvalidBasisError) as excinfo:
            parse_basis(f"1,{token}")
        assert type(excinfo.value) is InvalidBasisError
        assert str(excinfo.value) == f"{token!r} is not an integer"
    # a sign still reaches the check that names it, and blanks around commas are fine
    with pytest.raises(NonPositiveError):
        parse_basis("1,-2")
    assert parse_basis("\t1 ,\t007 ").elements == (1, 7)


def test_validation_errors_are_value_errors():
    # callers that only care about "bad input" can catch ValueError
    for text in ["2,3", "1,3,3", "1,0"]:
        with pytest.raises(ValueError):
            parse_basis(text)


def test_bool_elements_are_rejected():
    # True == 1, but "True,2" would not parse back
    for elements in [(True, 2), (1, True), (1, 2, False)]:
        with pytest.raises(InvalidBasisError):
            Basis(elements)


def test_empty_basis_is_rejected():
    with pytest.raises(InvalidBasisError, match="^a basis needs at least one element$"):
        Basis(())


def test_element_must_fit_64_bits():
    Basis((1, 2**64 - 1))  # largest allowed
    with pytest.raises(OverflowLimitError):
        Basis((1, 2**64))


def test_str_round_trips():
    rng = random.Random(20260819)
    for _ in range(50):
        basis = _random_basis(rng)
        assert parse_basis(str(basis)) == basis


# ---------- minimal-stamp table ----------


def test_table_golden_values():
    table = min_stamp_table(parse_basis("1,3,6,10"), 30)
    assert table.min_stamps[0] == 0
    assert table.min_stamps[1] == 1
    assert table.min_stamps[10] == 1
    assert table.min_stamps[2] == 2
    assert table.min_stamps[23] == 3  # 10 + 10 + 3
    assert table.min_stamps[24] == 4  # best is 10 + 10 + 3 + 1


def test_table_matches_slow_enumeration():
    rng = random.Random(7)
    cases = []
    for _ in range(25):
        basis = _random_basis(rng, max_k=4, max_element=10)
        cases.append((basis, rng.randint(1, 3 * basis.top)))
    # bases with a run of elements at the head, at every bound: ends on
    # an element, inside a gap, and past the top
    for elements in ((1, 2, 3, 5), (1, 2, 3, 4, 9), (1, 2, 7)):
        basis = Basis(elements)
        cases.extend((basis, bound) for bound in range(1, 2 * basis.top + 3))
    for basis, bound in cases:
        table = min_stamp_table(basis, bound)
        for x in range(bound + 1):
            assert table.min_stamps[x] == _enumeration_min_weight(basis, x, bound)


def test_table_bellman_consistency_spot_checks():
    rng = random.Random(99)
    for _ in range(40):
        basis = _random_basis(rng)
        bound = rng.randint(basis.top, 4 * basis.top)
        stamps = min_stamp_table(basis, bound).min_stamps
        assert stamps[0] == 0
        for element in basis.elements:
            if element <= bound:
                assert stamps[element] == 1
        for _ in range(25):
            x = rng.randint(1, bound)
            for element in basis.elements:
                if element <= x:
                    assert stamps[x] <= stamps[x - element] + 1


def test_table_limit_reports_required_size():
    with pytest.raises(OverflowLimitError) as excinfo:
        min_stamp_table(parse_basis("1,2"), 10**9)
    assert "1000000001" in str(excinfo.value)


def test_table_rejects_zero_bound():
    with pytest.raises(ValueError):
        min_stamp_table(parse_basis("1,2"), 0)


# ---------- generations ----------


def test_generation_reconstructs_value():
    basis = parse_basis("1,3,6,10")
    table = min_stamp_table(basis, 40)
    for x in range(41):
        gen = table.generation(x, 40)
        assert sum(c * a for c, a in zip(gen.coefficients, basis.elements)) == x
        assert gen.weight == table.min_stamps[x]
        assert gen.value == x


def test_generation_ties_break_toward_largest():
    table = min_stamp_table(parse_basis("1,3,6,10"), 30)
    assert table.generation(20, 2).coefficients == (0, 0, 0, 2)
    assert table.generation(24, 4).coefficients == (1, 1, 0, 2)
    assert table.generation(4, 2).coefficients == (1, 1, 0, 0)


def test_generation_refuses_budget():
    table = min_stamp_table(parse_basis("1,3,6,10"), 30)
    with pytest.raises(NotRepresentableError):
        table.generation(24, 3)


def test_generation_rejects_out_of_range():
    table = min_stamp_table(parse_basis("1,3"), 10)
    with pytest.raises(ValueError):
        table.generation(11, 5)
    with pytest.raises(ValueError):
        table.generation(-1, 5)


def test_generation_rejects_negative_or_miscounted_coefficients():
    with pytest.raises(ValueError, match="^coefficients must be non-negative$"):
        Generation((-1, 2), 5, 1)  # the weight matches the sum
    with pytest.raises(ValueError, match=r"^weight 4 does not match coefficients \(2, 1\)$"):
        Generation((2, 1), 5, 4)


def test_generation_refuses_an_inconsistent_table():
    # claims 4 is one stamp of 1,3, but neither 3 nor 1 steps down to 0 stamps
    skewed = MinStampTable(parse_basis("1,3"), 4, (0, 1, 2, 1, 1))
    with pytest.raises(AssertionError, match="^minimal-stamp table is inconsistent$"):
        skewed.generation(4, 4)


def test_find_generation_rejects_negative_value_or_budget():
    basis = parse_basis("1,3")
    with pytest.raises(ValueError, match="^x must be non-negative, got -1$"):
        find_generation(basis, -1, 3)
    with pytest.raises(ValueError, match="^h must be at least 1, got 0$"):
        find_generation(basis, 2, 0)


def test_find_generation_zero_and_small():
    basis = parse_basis("1,3,6,10")
    zero = find_generation(basis, 0, 3)
    assert zero.coefficients == (0, 0, 0, 0)
    assert zero.weight == 0
    one = find_generation(basis, 1, 3)
    assert one.coefficients == (1, 0, 0, 0)


def test_generation_is_deterministic():
    basis = parse_basis("1,3,5,8,20,23,25,27,28")
    first = [find_generation(basis, x, 6).coefficients for x in range(28)]
    second = [find_generation(basis, x, 6).coefficients for x in range(28)]
    assert first == second


# ---------- covers ----------


def test_cover_golden_values():
    basis = parse_basis("1,3,6,10")
    assert cover(basis, 1) == 1
    assert cover(basis, 2) == 4
    assert cover(basis, 3) == 23
    assert cover(parse_basis("1,3"), 2) == 4
    assert cover(parse_basis("1"), 5) == 5


def test_cover_rejects_non_positive_budget():
    with pytest.raises(ValueError):
        cover(parse_basis("1,3"), 0)
    with pytest.raises(ValueError, match="^h_max must be at least 1, got 0$"):
        cover_profile(parse_basis("1,3"), 0)
    with pytest.raises(ValueError, match="^h must be at least 1, got 0$"):
        brute_force_cover(parse_basis("1,3"), 0)


def test_cover_matches_brute_force_small_box():
    for k in range(1, 4):
        if k == 1:
            bases = [Basis((1,))]
        else:
            bases = [
                Basis((1,) + rest)
                for rest in itertools.combinations(range(2, 11), k - 1)
            ]
        for basis in bases:
            for h in range(1, 4):
                assert cover(basis, h) == brute_force_cover(basis, h)


def test_cover_profile_agrees_with_cover():
    rng = random.Random(4242)
    for _ in range(20):
        basis = _random_basis(rng)
        h_max = rng.randint(1, 6)
        profile = cover_profile(basis, h_max)
        assert profile.h_max == h_max
        covers = [profile.cover(h) for h in range(1, h_max + 1)]
        first = profile.saturated_at or h_max + 1
        for h, n in enumerate(covers, start=1):
            assert n == cover(basis, h)
            assert (h >= first) == (n == h * basis.top)
        assert covers == sorted(covers)


def test_cover_profile_rejects_out_of_range_h():
    profile = cover_profile(parse_basis("1,3"), 3)
    assert profile.cover(2) == 4
    with pytest.raises(ValueError):
        profile.cover(4)
    with pytest.raises(ValueError):
        profile.cover(0)


def test_brute_force_refuses_huge_enumerations():
    basis = parse_basis("1,2,3,4,5,6,7,8")
    with pytest.raises(TooLargeError):
        brute_force_cover(basis, 40, ceiling=10_000)


def test_cover_overflow_is_an_error():
    with pytest.raises(OverflowLimitError):
        cover(Basis((1, 2**63)), 2)


# ---------- randomized invariants ----------


def test_cover_bound_invariant():
    rng = random.Random(1001)
    for _ in range(300):
        basis = _random_basis(rng)
        h = rng.randint(1, 6)
        n = cover(basis, h)
        assert h <= n <= h * basis.top


def test_monotone_step_invariant():
    rng = random.Random(1002)
    for _ in range(300):
        basis = _random_basis(rng)
        h = rng.randint(1, 6)
        profile = cover_profile(basis, h + 1)
        n_h = profile.cover(h)
        n_next = profile.cover(h + 1)
        assert n_next >= n_h
        if n_h >= basis.top:
            assert n_next >= n_h + basis.top


def test_generation_soundness_invariant():
    rng = random.Random(1003)
    for _ in range(300):
        basis = _random_basis(rng)
        h = rng.randint(1, 8)
        bound = h * basis.top
        table = min_stamp_table(basis, bound)
        x = rng.randint(0, bound)
        if table.min_stamps[x] > h:
            with pytest.raises(NotRepresentableError):
                table.generation(x, h)
            continue
        gen = table.generation(x, h)
        assert sum(c * a for c, a in zip(gen.coefficients, basis.elements)) == x
        assert gen.weight <= h
        assert gen.weight == table.min_stamps[x]


# ---------- public names ----------

# the package's public names: attributes of stampcover, all bound by import *
PUBLIC_NAMES = (
    "Basis", "BasisReport", "CoverProfile", "DEFAULT_H1_CAP", "ExtremalResult",
    "Generation", "MinStampTable", "ScanFailure", "ScanSpec", "ScanSummary",
    "analyze", "brute_force_cover", "compute_h0", "cover", "cover_profile",
    "enumerate_all_bases", "enumerate_symmetric",
    "errors", "family_a10", "family_a5", "family_a9", "find_generation",
    "is_symmetric", "min_stamp_table", "parse_basis",
    "reflect_generation", "run_scan", "scan_conjecture", "search_extremal",
    "symmetrize_even", "symmetrize_odd",
)


def test_public_names_are_attributes_and_star_imported():
    namespace = {}
    exec("from stampcover import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(stampcover, name), name
