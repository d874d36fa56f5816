"""The windowed cover sweep against the table path and the brute-force oracle."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stampcover.core as core
from stampcover import (
    DEFAULT_H1_CAP,
    Basis,
    analyze,
    brute_force_cover,
    compute_h0,
    compute_h1,
    cover,
    cover_profile,
    family_a9,
    family_a10,
    is_symmetric,
    meure_applicable,
    min_stamp_table,
    symmetrize_even,
    symmetrize_odd,
)
from stampcover.cli import main
from stampcover.errors import OverflowLimitError


# ---------- helpers ----------


def _table_covers(basis: Basis, h_max: int) -> list[int]:
    """Covers for budgets 1..h_max read off one min-stamp table."""
    stamps = min_stamp_table(basis, h_max * basis.top + 1).min_stamps
    covers = []
    x = 1
    for h in range(1, h_max + 1):
        while stamps[x] <= h:
            x += 1
        covers.append(x - 1)
    return covers


def _swept_thresholds(basis: Basis, cap: int | None) -> tuple:
    """(h0, h1, cap) of a reference that sweeps every basis up to its cap."""
    h0 = compute_h0(basis)
    if cap is None:
        symmetric = is_symmetric(basis)
        cap = max(h0, 2 * h0 - 2) if symmetric else max(DEFAULT_H1_CAP, h0)
    saturated_at = cover_profile(basis, cap).saturated_at
    return h0, None if saturated_at is None else max(h0, saturated_at), cap


def _bases_up_to(k_max: int, top_max: int):
    for k in range(1, k_max + 1):
        for rest in itertools.combinations(range(2, top_max + 1), k - 1):
            yield Basis((1,) + rest)


# ---------- exhaustive agreement ----------


def test_sweep_matches_table_and_brute_force_exhaustively():
    h_max = 6
    checked = 0
    for basis in _bases_up_to(5, 16):
        expected = _table_covers(basis, h_max)
        rows = cover_profile(basis, h_max).rows
        assert [row.h for row in rows] == list(range(1, h_max + 1))
        assert [row.cover for row in rows] == expected, basis
        assert [row.saturated for row in rows] == [
            n == h * basis.top for h, n in enumerate(expected, start=1)
        ]
        for h, n in enumerate(expected, start=1):
            assert cover(basis, h) == n
            assert brute_force_cover(basis, h) == n, (basis, h)
        checked += 1
    assert checked == 1941


def test_profile_answers_every_budget_and_its_saturation_exhaustively():
    h_max = 6
    for basis in _bases_up_to(5, 16):
        expected = _table_covers(basis, h_max)
        profile = cover_profile(basis, h_max)
        assert profile.basis == basis and profile.h_max == h_max
        assert [profile.cover(h) for h in range(1, h_max + 1)] == expected, basis
        saturated = [h for h, n in enumerate(expected, start=1) if n == h * basis.top]
        assert profile.saturated_at == (saturated[0] if saturated else None), basis
    for h in (0, h_max + 1):
        with pytest.raises(ValueError):
            profile.cover(h)


def test_window_keeps_long_sweeps_exact():
    # without the window this int would grow to h * top bits every layer
    basis = Basis((1, 3, 16))
    h_max = 20_000
    covers = [row.cover for row in cover_profile(basis, h_max).rows]
    assert covers == _table_covers(basis, h_max)


# ---------- saturation ----------


def test_rows_after_saturation_match_the_table():
    # both saturate early, so almost every row comes from the short cut
    basis = family_a9(3)
    rows = cover_profile(basis, 200).rows
    assert [row.cover for row in rows] == _table_covers(basis, 200)
    assert [row.saturated for row in rows] == [h >= 4 for h in range(1, 201)]

    basis = Basis((1, 2, 3))
    h_max = 20_000
    expected = [(h, 3 * h, True) for h in range(1, h_max + 1)]
    assert _table_covers(basis, h_max) == [n for _, n, _ in expected]
    rows = cover_profile(basis, h_max).rows
    assert [(row.h, row.cover, row.saturated) for row in rows] == expected


@pytest.mark.parametrize("basis", [family_a9(5), family_a10(5)])
def test_first_saturated_row_is_h1_above_h0(basis):
    report = analyze(basis)
    assert is_symmetric(basis) and report.h1 == report.h0 + 1
    rows = cover_profile(basis, 40).rows
    assert [row.cover for row in rows] == _table_covers(basis, 40)
    first = next(row.h for row in rows if row.saturated)
    assert first == report.h1
    assert all(row.saturated == (row.h >= first) for row in rows)


def test_h1_of_a_basis_saturated_below_h0_is_h0():
    # 1,2,...,9 saturates at h = 1, but 10 needs two stamps
    basis = Basis(tuple(range(1, 10)))
    assert cover_profile(basis, 2).saturated_at == 1
    report = analyze(basis)
    assert (report.h0, report.h1, report.h1_cap) == (2, 2, 2)
    assert report.conjecture_holds and not report.counterexample
    assert analyze(basis, 5).h1 == 2


def test_h1_is_none_when_the_cap_ends_before_saturation(capsys):
    basis = family_a9(3)  # h0 = 3, h1 = 4
    assert cover_profile(basis, 3).saturated_at is None
    report = analyze(basis, 3)
    assert (report.h0, report.h1, report.h1_cap) == (3, None, 3)
    assert report.counterexample and not report.conjecture_holds
    assert main(["analyze", "--basis", str(basis), "--cap", "3", "--format", "jsonl"]) == 4
    assert json.loads(capsys.readouterr().out)["h1"] is None


# ---------- bases that never saturate ----------


def test_only_meure_bases_saturate_and_analyze_matches_a_sweep_exhaustively():
    h_max = 6
    for basis in _bases_up_to(5, 16):
        covers = _table_covers(basis, h_max)
        saturates = any(n == h * basis.top for h, n in enumerate(covers, start=1))
        if basis.k > 1 and not meure_applicable(basis):
            assert not saturates, basis
        else:  # the docstring's bound: saturated by budget max(1, top - 2)
            assert cover_profile(basis, max(1, basis.top - 2)).saturated_at, basis
        h0 = compute_h0(basis)
        for cap in (h0, h0 + 2, None):
            report = analyze(basis, cap)
            assert (report.h0, report.h1, report.h1_cap) == _swept_thresholds(
                basis, cap
            ), (basis, cap)


def _wide_bases():
    """General bases with tops up to 301, about half with a_{k-1} = top - 1."""
    rest = st.sets(st.integers(2, 300), min_size=1, max_size=5)
    return st.builds(
        lambda r, meure: Basis((1, *sorted(r)) + ((max(r) + 1,) if meure else ())),
        rest,
        st.booleans(),
    )


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(basis=_wide_bases(), extra=st.one_of(st.none(), st.integers(0, 8)))
def test_analyze_matches_a_sweep_on_wide_bases(basis, extra):
    cap = None if extra is None else compute_h0(basis) + extra
    report = analyze(basis, cap)
    assert (report.h0, report.h1, report.h1_cap) == _swept_thresholds(basis, cap)


def test_a_basis_that_never_saturates_keeps_the_sweep_refusals(monkeypatch, capsys):
    basis = Basis((1, 3, 10))  # h0 = 4; a_{k-1} = 3, not 9, so nothing saturates
    assert not meure_applicable(basis)
    message = "cover sweep would need 52 entries, limit is 51"
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 5 * 10 + 1)
    with pytest.raises(OverflowLimitError) as excinfo:
        analyze(basis, 5)
    assert str(excinfo.value) == message
    assert main(["analyze", "--basis", "1,3,10", "--cap", "5"]) == 3
    assert capsys.readouterr() == ("", f"error: OverflowLimitError: {message}\n")
    with pytest.raises(ValueError) as excinfo:
        analyze(basis, 3)
    assert str(excinfo.value) == "cap 3 is below the admissibility threshold 4"
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 5 * 10 + 2)
    assert analyze(basis, 5).h1 is None


# ---------- refusals ----------


def test_refusals_fire_before_a_sweep_that_would_saturate_at_once():
    basis = Basis((1, 2))  # saturated at h = 1
    with pytest.raises(OverflowLimitError) as excinfo:
        cover_profile(basis, 2**23)
    assert str(excinfo.value) == (
        "cover sweep would need 16777218 entries, limit is 16777216"
    )
    with pytest.raises(OverflowLimitError) as excinfo:
        cover_profile(basis, 2**63)
    assert "64 bits" in str(excinfo.value)


def test_sweep_refuses_beyond_the_limit_in_table_entries(monkeypatch):
    basis = Basis((1, 3, 10))
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 5 * 10 + 2)
    cover_profile(basis, 5)
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 5 * 10 + 1)
    with pytest.raises(OverflowLimitError) as excinfo:
        cover_profile(basis, 5)
    assert "52 entries" in str(excinfo.value)


def test_sweep_refuses_values_beyond_64_bits():
    with pytest.raises(OverflowLimitError) as excinfo:
        cover_profile(Basis((1, 2**63)), 2)
    assert "64 bits" in str(excinfo.value)


def test_h0_table_refuses_beyond_the_limit():
    # top + 2 entries, one more than the default limit of 2**24
    with pytest.raises(OverflowLimitError) as excinfo:
        compute_h0(Basis((1, 2**24 - 1)))
    assert "16777217 entries" in str(excinfo.value)


# ---------- properties on random bases ----------


def _general_bases():
    rest = st.sets(st.integers(2, 40), max_size=5)
    return rest.map(lambda r: Basis((1,) + tuple(sorted(r))))


def _symmetric_bases():
    half = st.sets(st.integers(2, 20), min_size=1, max_size=3).map(
        lambda r: Basis((1,) + tuple(sorted(r)))
    )
    return st.one_of(half.map(symmetrize_odd), half.map(symmetrize_even))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(basis=st.one_of(_general_bases(), _symmetric_bases()), extra=st.integers(0, 4))
def test_thresholds_match_one_table(basis, extra):
    top = basis.top
    h0 = compute_h0(basis)
    window = max(h0, 2 * h0 - 2)
    cap = (window if is_symmetric(basis) else h0) + extra
    covers = _table_covers(basis, cap)

    assert h0 == next(h for h, n in enumerate(covers, start=1) if n > top)
    saturated = [h for h, n in enumerate(covers, start=1) if h >= h0 and n == h * top]
    h1 = saturated[0] if saturated else None
    assert compute_h1(basis, cap) == h1
    assert [row.cover for row in cover_profile(basis, cap).rows] == covers

    report = analyze(basis, cap)
    assert (report.h0, report.h1, report.h1_cap) == (h0, h1, cap)
    assert report.theorem_bound == window
    assert report.conjecture_holds == (h1 == h0)
    if is_symmetric(basis):
        assert h1 is not None and h1 <= window
        if extra == 0:
            assert analyze(basis) == report

    if h0 > 2:
        with pytest.raises(ValueError):
            compute_h1(basis, h0 - 1)
        with pytest.raises(ValueError):
            analyze(basis, h0 - 1)
