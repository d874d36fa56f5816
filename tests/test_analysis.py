"""Unit tests for symmetry, thresholds, reflection, and reports."""

from __future__ import annotations

import random

import pytest

import stampcover.analysis as analysis
from stampcover import (
    Basis,
    Generation,
    analyze,
    compute_h0,
    cover,
    find_generation,
    is_symmetric,
    min_stamp_table,
    parse_basis,
    reflect_generation,
    symmetrize_even,
    symmetrize_odd,
)
from stampcover.errors import (
    NotSymmetricError,
    UsesTopElementError,
    WeightExceedsBudgetError,
)
from support import random_basis, random_symmetric_basis


def _a9() -> Basis:
    """The smallest known counterexample, parsed when a test runs, not at collection."""
    return parse_basis("1,3,5,8,20,23,25,27,28")


# ---------- symmetry ----------


def test_is_symmetric_golden():
    assert is_symmetric(_a9())
    assert is_symmetric(parse_basis("1"))
    assert is_symmetric(parse_basis("1,2"))
    assert is_symmetric(parse_basis("1,3,4"))
    assert not is_symmetric(parse_basis("1,2,4"))
    assert not is_symmetric(parse_basis("1,3,6,10"))


def test_symmetry_equals_palindromic_differences():
    rng = random.Random(555)
    cases = [random_basis(rng) for _ in range(200)]
    cases += [random_symmetric_basis(rng) for _ in range(200)]
    for basis in cases:
        diffs = tuple(b - a for a, b in zip((0,) + basis.elements, basis.elements))
        assert is_symmetric(basis) == (diffs == tuple(reversed(diffs)))


def test_symmetrize_odd_golden():
    assert symmetrize_odd(parse_basis("1,3,5,8,20")) == _a9()
    assert str(symmetrize_odd(parse_basis("1,5,7,12,47"))) == "1,5,7,12,47,52,54,58,59"
    assert str(symmetrize_odd(parse_basis("1,2"))) == "1,2,3"


def test_symmetrize_even_golden():
    assert (
        str(symmetrize_even(parse_basis("1,5,7,12,47")))
        == "1,5,7,12,47,82,87,89,93,94"
    )
    assert (
        str(symmetrize_even(parse_basis("1,3,5,8,20"))) == "1,3,5,8,20,32,35,37,39,40"
    )
    assert str(symmetrize_even(parse_basis("1"))) == "1,2"


def test_symmetrize_odd_needs_two_elements():
    with pytest.raises(ValueError):
        symmetrize_odd(parse_basis("1"))


def test_symmetrize_results_are_symmetric():
    rng = random.Random(808)
    for _ in range(200):
        m = rng.randint(2, 5)
        rest = rng.sample(range(2, 30), m - 1)
        half = Basis((1,) + tuple(sorted(rest)))
        odd = symmetrize_odd(half)
        even = symmetrize_even(half)
        assert is_symmetric(odd) and odd.k == 2 * m - 1
        assert is_symmetric(even) and even.k == 2 * m
        assert odd.elements[:m] == half.elements
        assert even.elements[:m] == half.elements


# ---------- h0 and h1 ----------


def test_h0_golden():
    assert compute_h0(parse_basis("1,3,6,10")) == 3
    assert compute_h0(_a9()) == 3
    assert compute_h0(parse_basis("1")) == 2
    assert compute_h0(parse_basis("1,2")) == 2


def test_h0_matches_direct_cover_search():
    rng = random.Random(2024)
    for _ in range(100):
        basis = random_basis(rng)
        h0 = compute_h0(basis)
        assert h0 >= 2
        assert cover(basis, h0) > basis.top
        for h in range(1, h0):
            assert cover(basis, h) <= basis.top


def test_h1_golden():
    assert analyze(_a9(), 10).h1 == 4
    assert analyze(parse_basis("1,2"), 2).h1 == 2
    assert analyze(parse_basis("1,3,6,10"), 8).h1 is None


def test_h1_is_first_saturation():
    # the budget below the answer is admissible but not saturated
    assert cover(_a9(), 3) == 41
    assert 41 != 3 * _a9().top
    assert cover(_a9(), 4) == 112 == 4 * _a9().top


def test_h1_rejects_cap_below_h0():
    with pytest.raises(ValueError):
        analyze(parse_basis("1,3,6,10"), 2).h1


# ---------- reflection ----------


def test_reflect_golden_single_stamp():
    gen = find_generation(_a9(), 1, 3)
    reflected = reflect_generation(_a9(), gen, 3)
    assert reflected.coefficients == (0, 0, 0, 0, 0, 0, 0, 1, 2)
    assert reflected.value == 83 == 3 * 28 - 1
    assert reflected.weight == 3


def test_reflect_golden_two_stamps():
    gen = Generation((0, 2, 0, 0, 0, 0, 0, 0, 0), 6, 2)
    reflected = reflect_generation(_a9(), gen, 3)
    assert reflected.coefficients == (0, 0, 0, 0, 0, 0, 2, 0, 1)
    assert reflected.value == 78 == 3 * 28 - 6
    assert reflected.weight == 3


def test_reflect_one_element_basis():
    basis = parse_basis("1")
    reflected = reflect_generation(basis, Generation((0,), 0, 0), 2)
    assert reflected.coefficients == (2,)
    assert reflected.value == 2


def test_reflect_requires_symmetry():
    basis = parse_basis("1,3,6,10")
    with pytest.raises(NotSymmetricError):
        reflect_generation(basis, find_generation(basis, 4, 3), 3)


def test_reflect_rejects_overweight_generation():
    gen = Generation((4, 0, 0, 0, 0, 0, 0, 0, 0), 4, 4)
    with pytest.raises(WeightExceedsBudgetError):
        reflect_generation(_a9(), gen, 3)


def test_reflect_rejects_top_element_use():
    # inconsistent on purpose: claims value 5 while using the top element
    gen = Generation((0, 0, 0, 0, 0, 0, 0, 0, 1), 5, 1)
    with pytest.raises(UsesTopElementError):
        reflect_generation(_a9(), gen, 3)


def test_reflect_rejects_value_out_of_range():
    gen = Generation((0, 0, 0, 0, 0, 0, 0, 1, 0), 27, 1)
    reflect_generation(_a9(), gen, 3)  # 27 < 28 is fine
    bad = Generation((28, 0, 0, 0, 0, 0, 0, 0, 0), 28, 28)
    with pytest.raises(ValueError):
        reflect_generation(_a9(), bad, 28)


def test_reflect_rejects_size_mismatch():
    with pytest.raises(ValueError):
        reflect_generation(_a9(), Generation((1, 0), 1, 1), 3)


def test_reflect_checks_its_own_arithmetic(monkeypatch):
    # only a basis that is not symmetric can break the reflection, so let
    # 1,2,5 pass for one: 3 = 1 + 2 reflects at h0 = 2 to 2 + 1 = 3, not 2 * 5 - 3 = 7
    monkeypatch.setattr(analysis, "is_symmetric", lambda basis: True)
    with pytest.raises(AssertionError, match="^reflection arithmetic is inconsistent$"):
        reflect_generation(parse_basis("1,2,5"), Generation((1, 1, 0), 3, 2), 2)


def test_reflect_random_symmetric_cases():
    rng = random.Random(3333)
    for _ in range(150):
        basis = random_symmetric_basis(rng)
        h0 = compute_h0(basis)
        x = rng.randrange(basis.top)
        gen = find_generation(basis, x, h0)
        reflected = reflect_generation(basis, gen, h0)
        assert reflected.weight == h0
        assert reflected.value == h0 * basis.top - x
        rebuilt = sum(c * a for c, a in zip(reflected.coefficients, basis.elements))
        assert rebuilt == reflected.value
        # the reflected value really is reachable within h0 stamps
        table = min_stamp_table(basis, reflected.value)
        assert table.min_stamps[reflected.value] <= h0


# ---------- reports ----------


def test_analyze_golden_counterexample():
    report = analyze(_a9())
    assert report.to_json_dict() == {
        "basis": "1,3,5,8,20,23,25,27,28",
        "k": 9,
        "symmetric": True,
        "h0": 3,
        "h1": 4,
        "h1_found": True,
        "theorem_bound": 4,
        "conjecture_holds": False,
        "counterexample": True,
    }
    assert report.h1_cap == 4


def test_analyze_json_key_order_is_stable():
    keys = list(analyze(parse_basis("1,2")).to_json_dict())
    assert keys == [
        "basis",
        "k",
        "symmetric",
        "h0",
        "h1",
        "h1_found",
        "theorem_bound",
        "conjecture_holds",
        "counterexample",
    ]


def test_analyze_smallest_bases():
    one = analyze(parse_basis("1"))
    assert (one.h0, one.h1, one.theorem_bound) == (2, 2, 2)
    assert one.conjecture_holds and not one.counterexample
    three = analyze(parse_basis("1,2,3"))
    assert (three.h0, three.h1) == (2, 2)
    assert three.conjecture_holds


def test_analyze_non_symmetric_never_counterexample():
    report = analyze(parse_basis("1,3,6,10"), cap=5)
    assert not report.symmetric
    assert report.h1 is None
    assert report.h1_cap == 5
    assert not report.conjecture_holds
    assert not report.counterexample


def test_analyze_default_caps():
    assert analyze(parse_basis("1,3,6,10")).h1_cap == 64
    assert analyze(_a9()).h1_cap == 4  # the proven window for symmetric bases


def test_analyze_rejects_cap_below_h0():
    with pytest.raises(ValueError):
        analyze(parse_basis("1,3,6,10"), cap=2)


def test_theorem_window_on_random_symmetric_bases():
    rng = random.Random(9090)
    for _ in range(150):
        basis = random_symmetric_basis(rng)
        report = analyze(basis)
        assert report.symmetric
        assert report.h1 is not None
        assert report.h0 <= report.h1 <= max(report.h0, 2 * report.h0 - 2)
        assert report.theorem_bound == max(report.h0, 2 * report.h0 - 2)
