"""The windowed cover sweep against the table path and the brute-force oracle."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stampcover.analysis as analysis
import stampcover.cli as cli
import stampcover.core as core
from stampcover import (
    DEFAULT_H1_CAP,
    Basis,
    ScanSpec,
    ScanSummary,
    analyze,
    brute_force_cover,
    compute_h0,
    cover,
    cover_profile,
    enumerate_symmetric,
    family_a9,
    family_a10,
    find_generation,
    is_symmetric,
    min_stamp_table,
    reflect_generation,
    run_scan,
    search_extremal,
    symmetrize_even,
    symmetrize_odd,
)
from stampcover.cli import main
from support import record_calls
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


def _profile_rows(basis: Basis, h_max: int) -> list[tuple[int, int, bool]]:
    """(h, cover, saturated) for budgets 1..h_max, read off one cover_profile."""
    profile = cover_profile(basis, h_max)
    first = profile.saturated_at or h_max + 1
    return [(h, profile.cover(h), h >= first) for h in range(1, h_max + 1)]


def _swept_thresholds(basis: Basis, cap: int | None) -> tuple:
    """(h0, h1, cap) of a reference that sweeps every basis up to its cap."""
    h0 = compute_h0(basis)
    if cap is None:
        symmetric = is_symmetric(basis)
        cap = max(h0, 2 * h0 - 2) if symmetric else max(DEFAULT_H1_CAP, h0)
    saturated_at = cover_profile(basis, cap).saturated_at
    return h0, None if saturated_at is None else max(h0, saturated_at), cap


def _cover_profile_command(basis: str, h: int) -> int:
    """``cover --profile`` run past ``main``, so that its refusal raises."""
    args = cli._build_parser().parse_args(["cover", "--basis", basis, "--h", str(h), "--profile"])
    return args.func(args)


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
        rows = _profile_rows(basis, h_max)
        assert [n for _, n, _ in rows] == expected, basis
        assert [saturated for _, _, saturated in rows] == [
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
    profile = cover_profile(basis, h_max)
    covers = [profile.cover(h) for h in range(1, h_max + 1)]
    assert covers == _table_covers(basis, h_max)
    assert profile.saturated_at is None


# ---------- saturation ----------


def test_rows_after_saturation_match_the_table():
    # both saturate early, so almost every row comes from the short cut
    basis = family_a9(3)
    rows = _profile_rows(basis, 200)
    assert [n for _, n, _ in rows] == _table_covers(basis, 200)
    assert [saturated for _, _, saturated in rows] == [h >= 4 for h in range(1, 201)]

    basis = Basis((1, 2, 3))
    h_max = 20_000
    expected = [(h, 3 * h, True) for h in range(1, h_max + 1)]
    assert _table_covers(basis, h_max) == [n for _, n, _ in expected]
    assert _profile_rows(basis, h_max) == expected


# built when the test runs, so that a fault in the families fails it, not collection
@pytest.mark.parametrize(
    "basis", [lambda: family_a9(5), lambda: family_a10(5)], ids=["basis0", "basis1"]
)
def test_first_saturated_row_is_h1_above_h0(basis):
    basis = basis()
    report = analyze(basis)
    assert is_symmetric(basis) and report.h1 == report.h0 + 1
    rows = _profile_rows(basis, 40)
    assert [n for _, n, _ in rows] == _table_covers(basis, 40)
    first = next(h for h, n, _ in rows if n == h * basis.top)
    assert first == report.h1 == cover_profile(basis, 40).saturated_at
    assert all(saturated == (h >= first) for h, _, saturated in rows)


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
        elems, top = basis.elements, basis.top
        below = elems[:-1]
        assert is_symmetric(basis) == all(
            a + b == top for a, b in zip(below, reversed(below))
        ), basis
        paired = basis.k == 1 or elems[-2] == top - 1
        assert (core._dual(elems)[0] == 1) == paired, basis
        covers = _table_covers(basis, h_max)
        saturates = any(n == h * top for h, n in enumerate(covers, start=1))
        if not paired:
            assert not saturates, basis
            with pytest.raises(OverflowLimitError):
                cover_profile(basis, 2**24)
        else:  # the docstring's bound: saturated by budget max(1, top - 2)
            assert cover_profile(basis, max(1, top - 2)).saturated_at, basis
            # so a sweep to any budget is sized by that bound and answers
            assert cover_profile(basis, 2**24).cover(2**24) == 2**24 * top, basis
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


def test_a_basis_that_never_saturates_is_not_refused_a_sweep_it_skips(monkeypatch, capsys, counted):
    basis = Basis((1, 3, 10))  # h0 = 4; a_{k-1} = 3, not 9, so nothing saturates
    assert core._dual(basis.elements)[0] != 1
    # a sweep to cap 5 would need 52 entries; none runs, so none is refused
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 5 * 10 + 1)
    assert analyze(basis, 5).h1 is None
    assert main(["analyze", "--basis", "1,3,10", "--cap", "5"]) == 4
    assert capsys.readouterr().err == ""
    with pytest.raises(ValueError) as excinfo:
        analyze(basis, 3)
    assert str(excinfo.value) == "cap 3 is below the admissibility threshold 4"
    assert counted()["sweeps"] == 0


@pytest.fixture
def table_bounds(monkeypatch):
    """The bound of every table ``core`` builds while the test runs."""
    return record_calls(monkeypatch, core, "min_stamp_table", lambda basis, bound: bound)


def test_cover_certifies_the_sweep_on_one_table_of_its_cover_plus_two(table_bounds):
    assert cover(Basis((1, 203, 41209)), 40) == 40
    assert table_bounds == [41]  # not the 40 * 41209 + 1 of a table up to h * top


def test_cover_refuses_a_sweep_its_table_does_not_certify(monkeypatch):
    # at h = 2 the cover is 2, and 3 and 4 need 3 and 4 stamps: one too
    # high fails at 3 below the table's end, one too low at its end, 2
    basis = Basis((1, 5))
    profile_real = core.cover_profile
    assert cover(basis, 2) == 2
    for skew in (1, -1):
        def skewed(basis, h_max):
            covers = profile_real(basis, h_max).covers
            return core.CoverProfile(basis, h_max, tuple(n + skew for n in covers))

        monkeypatch.setattr(core, "cover_profile", skewed)
        with pytest.raises(AssertionError, match="1,5"):
            cover(basis, 2)


def test_cover_certifies_a_saturated_sweep_where_it_first_saturates(table_bounds):
    # saturated at s = 2 and at s = 1: one table of s * top + 2 entries
    # each, not the h * top + 2 of the cover at h
    assert cover(Basis((1, 3, 4)), 2000) == 8000
    assert cover(Basis((1, 2)), 2**23 - 1) == 2**24 - 2
    assert table_bounds == [2 * 4 + 1, 1 * 2 + 1]


def test_cover_refuses_a_budget_one_sweep_its_table_does_not_certify(
    monkeypatch, table_bounds
):
    # one stamp covers 3 on 1,2,3,5: one too high fails at 4, which needs
    # 2 stamps; one too low at 3, the table's end, which needs 1
    basis = Basis((1, 2, 3, 5))
    profile_real = core.cover_profile
    assert cover(basis, 1) == 3
    for skew in (1, -1):
        def skewed(basis, h_max):
            covers = profile_real(basis, h_max).covers
            return core.CoverProfile(basis, h_max, tuple(n + skew for n in covers))

        monkeypatch.setattr(core, "cover_profile", skewed)
        with pytest.raises(AssertionError, match="1,2,3,5 at h=1"):
            cover(basis, 1)
    assert table_bounds == [3 + 1, 4 + 1, 2 + 1]  # one table of bound n + 1 per cover


def test_a_table_over_a_run_of_elements_is_linear_in_its_length(table_bounds):
    # the run 1, 2, ..., 20000 has no gap, so each value takes one step; a
    # loop that rescans every element <= x takes 2 * 10^8 (about 8 s)
    run = Basis(tuple(range(1, 20001)))
    start = time.perf_counter()
    stamps = min_stamp_table(run, 20001).min_stamps
    assert time.perf_counter() - start < 0.5
    assert stamps[1:20001] == (1,) * 20000 and stamps[20001] == 2
    assert cover(run, 1) == 20000
    assert table_bounds == [20001]


def test_cover_refuses_a_sweep_that_saturates_one_budget_early(monkeypatch):
    # the a9 member with p = 3 first saturates at h1 = 4, one past h0
    basis = family_a9(3)
    profile_real = core.cover_profile
    assert cover_profile(basis, 6).saturated_at == 4
    assert cover(basis, 6) == 6 * basis.top

    def early(basis, h_max):
        covers = profile_real(basis, h_max).covers
        return core.CoverProfile(basis, h_max, covers[:-1])

    monkeypatch.setattr(core, "cover_profile", early)
    with pytest.raises(AssertionError, match=f"{basis} at h=3"):
        cover(basis, 6)


# ---------- refusals ----------


def test_refusals_fire_before_a_sweep_that_would_saturate_at_once():
    # a paired basis (a_{k-1} = top - 1) is sized by max(1, top - 2), the
    # budget it saturates by: 1,2 saturates at h = 1 and answers at any h_max
    for h_max in (2**23, 2**63):
        profile = cover_profile(Basis((1, 2)), h_max)
        assert (profile.saturated_at, profile.cover(h_max)) == (1, 2 * h_max)
    basis = Basis((1, 3))  # never saturates, so it is sized by h_max
    with pytest.raises(OverflowLimitError) as excinfo:
        cover_profile(basis, 5592405)
    assert str(excinfo.value) == (
        "cover sweep would need 16777217 entries, limit is 16777216"
    )
    # h * top + 1 past 64 bits is far past the entry limit, which says so
    with pytest.raises(OverflowLimitError) as excinfo:
        cover_profile(basis, 2**63)
    assert str(excinfo.value) == (
        "cover sweep would need 27670116110564327426 entries, limit is 16777216"
    )


def test_sweep_refuses_beyond_the_limit_in_table_entries(monkeypatch):
    basis = Basis((1, 3, 10))
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 5 * 10 + 2)
    cover_profile(basis, 5)
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 5 * 10 + 1)
    with pytest.raises(OverflowLimitError) as excinfo:
        cover_profile(basis, 5)
    assert "52 entries" in str(excinfo.value)


def test_sweep_refuses_values_beyond_64_bits():
    # h * top + 1 = 2**64 + 1: refused as the entries it stands for
    with pytest.raises(OverflowLimitError) as excinfo:
        cover_profile(Basis((1, 2**63)), 2)
    assert str(excinfo.value) == (
        "cover sweep would need 18446744073709551618 entries, limit is 16777216"
    )


@pytest.mark.parametrize(
    ("refused", "what", "size", "unit", "per_entry"),
    [
        (lambda: min_stamp_table(Basis((1, 2)), 2**24), "table", 2**24 + 1, "entries", 1),
        (lambda: compute_h0(Basis((1, 2**24 - 1))), "table", 2**24 + 1, "entries", 1),
        (lambda: cover_profile(Basis((1, 3)), 2**23), "cover sweep", 3 * 2**23 + 2, "entries", 1),
        (lambda: cover_profile(Basis((1, 2**63)), 2), "cover sweep", 2**64 + 2, "entries", 1),
        # {1} sweeps one budget, but its profile prints one row per budget
        (lambda: _cover_profile_command("1", 2**24 + 1), "cover profile", 2**24 + 1, "rows", 1),
        # the prefix 1, ..., k: 2**23 * 2 + 2 entries
        (lambda: search_extremal(2**23, 2), "cover sweep", 2**24 + 2, "entries", 1),
        # the box bound T = C(5001, 2) = 12502500
        (lambda: search_extremal(2, 5000), "cover sweep", 2 * 12502500 + 2, "entries", 1),
        # T = C(3001, 1): 3001 levels of 3000 * 3001 + 2 entries
        (lambda: search_extremal(3000, 2), "levels", 3001 * 9003002, "bits", 64),
    ],
    ids=["table", "h0-table", "sweep", "sweep-64-bit", "profile-rows", "extremal-k",
         "extremal-box", "extremal-levels"],
)
def test_each_size_refusal_names_its_unit(refused, what, size, unit, per_entry):
    with pytest.raises(OverflowLimitError) as excinfo:
        refused()
    limit = per_entry * core.DEFAULT_TABLE_LIMIT
    assert str(excinfo.value) == f"{what} would need {size} {unit}, limit is {limit}"


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
    assert [n for _, n, _ in _profile_rows(basis, cap)] == covers
    saturated_at = cover_profile(basis, cap).saturated_at
    assert saturated_at == next(
        (h for h, n in enumerate(covers, start=1) if n == h * top), None
    )

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
            analyze(basis, h0 - 1)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(basis=st.one_of(
    _general_bases(),
    # dense in a small range, so that runs 1, 2, ..., n of every length head the basis
    st.sets(st.integers(2, 12), max_size=11).map(lambda r: Basis((1,) + tuple(sorted(r)))),
))
def test_budget_one_cover_matches_the_oracle(basis):
    assert cover(basis, 1) == brute_force_cover(basis, 1)


# ---------- the reflection short cut ----------


def _fewest_stamps(basis: Basis, bound: int) -> list[int]:
    """Fewest stamps for 0..bound, by layers of sums rather than the table recurrence."""
    need = {0: 0}
    layer = {0}
    h = 0
    while len(need) <= bound:
        h += 1
        layer = {x + a for x in layer for a in basis.elements if x + a <= bound}
        layer -= need.keys()
        need.update(dict.fromkeys(layer, h))
    return [need[x] for x in range(bound + 1)]


def _dual(basis: Basis) -> Basis:
    """{top - a : a in the basis, a < top} together with top itself."""
    top = basis.top
    return Basis(tuple(sorted({top - a for a in basis.elements if a < top} | {top})))


def _sigma(basis: Basis) -> int:
    """sigma*: max over 1 <= r < top of g(r) + g*(top - r) - 2; 0 for the basis {1}.

    g and g* come by layers of sums from the basis and its dual; a
    symmetric basis is its own dual, so this is its sigma.
    """
    top = basis.top
    dual = _dual(basis)
    g = _fewest_stamps(basis, top)
    g_dual = g if dual == basis else _fewest_stamps(dual, top)
    return max((g[r] + g_dual[top - r] - 2 for r in range(1, top)), default=0)


def _paired_box(ks: range, top_max: int):
    """Every non-symmetric basis with a_{k-1} = top - 1, k in ``ks`` and top <= top_max."""
    for k in ks:
        for top in range(k, top_max + 1):
            for mid in itertools.combinations(range(2, top - 1), k - 3):
                basis = Basis((1, *mid, top - 1, top))
                if not is_symmetric(basis):
                    yield basis


def _check_paired_box(ks: range, top_max: int) -> tuple[int, int, int]:
    """(bases, sigma* <= h0, h1 = max(h0, sigma*)) over ``_paired_box``, checking each.

    sigma* comes by layers (``_sigma``), h1 from a sweep to Meure's bound
    top - 2, and neither from the tables ``analyze`` reads sigma* off.
    """
    total = short = exact = 0
    for basis in _paired_box(ks, top_max):
        top = basis.top
        sigma = _sigma(basis)
        tables = core._h0_stamps(basis), core._h0_stamps(_dual(basis))
        assert analysis._reflection_ceiling(*tables) == sigma, basis
        h0 = max(tables[0])
        h1 = max(h0, cover_profile(basis, top - 2).saturated_at)
        assert h1 <= max(h0, sigma) <= top - 2, basis
        total += 1
        short += sigma <= h0
        exact += h1 == max(h0, sigma)
    return total, short, exact


def test_reflection_ceiling_bounds_h1_on_every_small_paired_basis():
    # the dual's table bounds h1 on every paired basis, not only the symmetric ones
    assert _check_paired_box(range(4, 7), 22) == (6030, 2583, 4810)
    # a symmetric basis is its own dual, and sigma* off its one table is sigma
    box = [basis for k in range(1, 8) for basis in enumerate_symmetric(k, 40)]
    assert len(box) == 2510
    assert {Basis((1,)), Basis((1, 2)), Basis((1, 2, 3))} <= set(box)
    for basis in box:
        assert _dual(basis) == basis
        stamps = core._h0_stamps(basis)
        assert analysis._reflection_ceiling(stamps, stamps) == _sigma(basis), basis


@pytest.mark.slow
def test_reflection_ceiling_bounds_h1_on_a_wider_paired_box():
    assert _check_paired_box(range(4, 9), 18) == (14616, 8034, 13232)


@pytest.fixture
def counted(monkeypatch):
    """Count table builds and sweeps through the bindings the benchmark probe rebinds:
    ``counted()`` is the count of each so far."""
    tables = record_calls(monkeypatch, core, "min_stamp_table")
    sweeps = record_calls(monkeypatch, analysis, "cover_profile")
    return lambda: {"tables": len(tables), "sweeps": len(sweeps)}


def test_reflection_short_cut_matches_a_sweep_on_small_symmetric_bases(counted):
    short, total = 0, 0
    for k in range(1, 11):
        for basis in enumerate_symmetric(k, 24):
            h0 = compute_h0(basis)
            sigma = _sigma(basis)
            for cap in (h0, h0 + 2, None):
                sweeps = counted()["sweeps"]
                report = analyze(basis, cap)
                assert (report.h0, report.h1, report.h1_cap) == _swept_thresholds(
                    basis, cap
                ), (basis, cap)
                assert (counted()["sweeps"] > sweeps) == (sigma > h0), (basis, cap)
            total += 1
            if sigma <= h0:
                short += 1
                if math.comb(h0 + basis.k, basis.k) <= 2_000:
                    assert brute_force_cover(basis, h0) == h0 * basis.top, basis
    assert (short, total) == (1452, 1685)
    for basis in (family_a9(3), family_a10(5)):  # h1 = h0 + 1: the sweep must run
        h0 = compute_h0(basis)
        assert _sigma(basis) > h0
        sweeps = counted()["sweeps"]
        assert analyze(basis).h1 == h0 + 1 and counted()["sweeps"] == sweeps + 1


def _wide_symmetric_bases():
    """Symmetric bases with tops up to 300, mirrored from a random lower half."""
    rest = st.sets(st.integers(2, 149), min_size=1, max_size=4)
    half = rest.map(lambda r: Basis((1,) + tuple(sorted(r))))
    return st.one_of(half.map(symmetrize_odd), half.map(symmetrize_even))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(basis=_wide_symmetric_bases(), extra=st.one_of(st.none(), st.integers(0, 8)), data=st.data())
def test_reflection_ceiling_bounds_h1_on_wide_symmetric_bases(basis, extra, data):
    top = basis.top
    h0 = compute_h0(basis)
    cap = None if extra is None else h0 + extra
    report = analyze(basis, cap)
    assert (report.h0, report.h1, report.h1_cap) == _swept_thresholds(basis, cap)
    sigma = _sigma(basis)
    assert report.h1 is not None and report.h1 <= max(h0, sigma) <= report.theorem_bound
    if top < 2:
        return
    # the proof's second generation of q * top + r: the reflection of T - r at q + 1
    r = data.draw(st.integers(1, top - 1), label="r")
    low = find_generation(basis, top - r, h0)
    for q in range(max(0, low.weight - 1), h0 - 1):
        gen = reflect_generation(basis, low, q + 1)
        assert (gen.value, gen.weight) == (q * top + r, q + 1)


def test_scan_sym4_builds_one_table_per_basis_and_sweeps_none(tmp_path, counted):
    out = tmp_path / "scan.jsonl"
    assert run_scan(ScanSpec(4, 280), str(out), threads=1) == ScanSummary(139, 0)
    assert counted() == {"tables": 139, "sweeps": 0}
    data = out.read_bytes()  # the bytes the sweep of every basis wrote
    assert len(data) == 20417
    assert hashlib.sha256(data).hexdigest() == (
        "7c28391f11205b066434efa6a0675adf23ddfeaeb2794a5e5e850da5cbdb8e7e"
    )


def test_a_short_cut_basis_is_not_refused_a_sweep_it_skips(monkeypatch, capsys, counted):
    basis = Basis((1, 4, 5))  # h0 = 3 = h1, with no sweep
    assert is_symmetric(basis) and _sigma(basis) <= compute_h0(basis) == 3
    # a sweep to cap 4 would need 22 entries; none runs, so none is refused
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 4 * 5 + 1)
    report = analyze(basis, 4)
    assert (report.h0, report.h1, report.conjecture_holds) == (3, 3, True)
    assert main(["analyze", "--basis", "1,4,5", "--cap", "4"]) == 0
    assert capsys.readouterr().err == ""
    with pytest.raises(ValueError) as excinfo:
        analyze(basis, 2)
    assert str(excinfo.value) == "cap 2 is below the admissibility threshold 3"
    assert counted()["sweeps"] == 0


def test_a_sure_sweep_is_refused_before_the_h0_table(monkeypatch, capsys, counted):
    # non-symmetric and a_{k-1} = top - 1: at the default cap it sweeps to min(64, top - 2)
    basis = Basis((1, 3, 4999999, 5000000))
    assert core._dual(basis.elements)[0] == 1 and not is_symmetric(basis)
    message = "cover sweep would need 320000002 entries, limit is 16777216"
    with pytest.raises(OverflowLimitError) as excinfo:
        analyze(basis)
    assert str(excinfo.value) == message
    assert main(["analyze", "--basis", str(basis)]) == 3
    assert capsys.readouterr() == ("", f"error: OverflowLimitError: {message}\n")
    assert counted() == {"tables": 0, "sweeps": 0}
    # at top 5 the sweep stops by its ceiling 3, not at 64
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 3 * 5 + 1)
    with pytest.raises(OverflowLimitError, match="17 entries, limit is 16"):
        analyze(Basis((1, 3, 4, 5)))
    assert counted() == {"tables": 0, "sweeps": 0}


def test_a_given_cap_is_judged_against_h0_after_one_table(capsys, counted):
    # 9998 takes 3333 threes and 9999 one stamp, so h0 = 3334 from one table of 10002 entries
    basis = Basis((1, 3, 9999, 10000))
    assert core._dual(basis.elements)[0] == 1 and not is_symmetric(basis)
    # each call below builds the one table and no sweep
    for calls, cap in enumerate((3332, 3333), 1):
        message = f"cap {cap} is below the admissibility threshold 3334"
        with pytest.raises(ValueError) as excinfo:
            analyze(basis, cap)
        assert str(excinfo.value) == message
        assert main(["analyze", "--basis", str(basis), "--cap", str(cap)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert counted() == {"tables": 2 * calls, "sweeps": 0}
    # from h0 on, the sweep to min(cap, top - 2) is refused before the dual's table
    message = "cover sweep would need 33340002 entries, limit is 16777216"
    with pytest.raises(OverflowLimitError) as excinfo:
        analyze(basis, 3334)
    assert str(excinfo.value) == message
    assert main(["analyze", "--basis", str(basis), "--cap", "3334"]) == 3
    assert capsys.readouterr() == ("", f"error: OverflowLimitError: {message}\n")
    assert counted() == {"tables": 6, "sweeps": 0}
    # cap 0 is not read as the default
    with pytest.raises(ValueError) as excinfo:
        analyze(Basis((1, 3, 4, 5)), 0)
    assert str(excinfo.value) == "cap 0 is below the admissibility threshold 2"
    assert counted() == {"tables": 7, "sweeps": 0}


def test_every_given_cap_on_a_small_paired_basis_waits_for_one_table(monkeypatch, counted):
    # room for the h0 table of top + 2 entries, and for no sweep past budget 1
    cases = 0
    for basis in _paired_box(range(4, 7), 16):
        monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", basis.top + 2)
        h0 = compute_h0(basis)
        for cap in range(1, h0 + 2):
            before = counted()
            with pytest.raises(ValueError if cap < h0 else OverflowLimitError) as excinfo:
                analyze(basis, cap)
            if cap < h0:
                assert str(excinfo.value) == (
                    f"cap {cap} is below the admissibility threshold {h0}"
                ), basis
            assert counted()["tables"] <= before["tables"] + 1, (basis, cap)
            assert counted()["sweeps"] == before["sweeps"], (basis, cap)
            cases += 1
    assert cases == 7397


# ---------- the proven ceiling ----------


def _symmetric_or_meure_bases():
    """Symmetric bases with tops up to 300, and bases with a_{k-1} = top - 1 up to 201."""
    rest = st.sets(st.integers(2, 199), min_size=2, max_size=5)
    meure = rest.map(lambda r: Basis((1, *sorted(r), max(r) + 1)))
    return st.one_of(_wide_symmetric_bases(), meure)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(basis=_symmetric_or_meure_bases(), extra=st.one_of(st.none(), st.integers(0, 8)))
def test_a_sweep_to_the_proven_ceiling_saturates(basis, extra):
    # sigma* by layers of sums, not the tables analyze reads it off
    ceiling = _sigma(basis)
    assert basis.k > 1 and core._dual(basis.elements)[0] == 1 and ceiling <= basis.top - 2
    assert cover_profile(basis, max(1, ceiling)).saturated_at is not None, basis
    cap = None if extra is None else compute_h0(basis) + extra
    report = analyze(basis, cap)
    assert (report.h0, report.h1, report.h1_cap) == _swept_thresholds(basis, cap)


def test_a_sweep_that_misses_its_proven_ceiling_is_refused(monkeypatch):
    basis = family_a9(5)  # h1 = 6 = sigma, so its sweep runs to 6 exactly
    assert (analyze(basis).h1, _sigma(basis)) == (6, 6)
    profile_real = analysis.cover_profile

    def late(basis, h_max):  # saturates one budget later, or not by h_max
        covers = profile_real(basis, h_max).covers
        return core.CoverProfile(basis, h_max, (covers + covers[-1:])[:h_max])

    def never(basis, h_max):
        return core.CoverProfile(basis, h_max, tuple(range(1, h_max + 1)))

    monkeypatch.setattr(analysis, "cover_profile", late)
    with pytest.raises(AssertionError) as excinfo:
        analyze(basis)
    assert str(excinfo.value) == f"{basis} does not saturate by its proven ceiling 6"
    assert analyze(basis, 5).h1 is None  # a cap below the ceiling proves nothing
    # not symmetric: h0 = 3, h1 = sigma* = 5; skewed late it saturates at
    # 6 = top - 2, which a ceiling of top - 2 would let pass
    with pytest.raises(AssertionError, match="^1,2,7,8 does not saturate by its proven ceiling 5$"):
        analyze(Basis((1, 2, 7, 8)))
    monkeypatch.setattr(analysis, "cover_profile", never)
    with pytest.raises(AssertionError, match="^1,2,5,6 does not saturate by its proven ceiling 3$"):
        analyze(Basis((1, 2, 5, 6)))


def test_a_sweep_stopped_below_its_saturation_is_refused_by_cover_profile(monkeypatch):
    # h1 = top - 2 on both; core's max(1, top - 2) read as top - 3 stops the sweep one short
    for elems in ((1, 4, 5), (1, 5, 6)):
        top = elems[-1]
        assert cover_profile(Basis(elems), top).saturated_at == top - 2
    monkeypatch.setattr(core, "max", lambda low, high: high - 1, raising=False)
    for elems in ((1, 4, 5), (1, 5, 6)):
        top = elems[-1]
        message = f"^{','.join(map(str, elems))} does not saturate by its proven ceiling {top - 3}$"
        with pytest.raises(AssertionError, match=message):
            cover_profile(Basis(elems), top)


def test_a_sweep_is_sized_by_its_ceiling_not_its_cap(monkeypatch, capsys):
    # each exited 3 when its sweep was sized by the cap: a9(5) at
    # (2 * 5 - 2) * 59 + 2 = 474 entries, 1,2,5,6 at 64 * 6 + 2 = 386;
    # sigma = 6 sizes a9(5) at 356, and 1,2,5,6, which sweeps to
    # sigma* = 3, is refused before its tables at top - 2 = 4, 26 entries
    assert analyze(Basis((1, 2, 5, 6)), 10_000_000).h1 == 3
    cases = [(family_a9(5), 6 * 59 + 2, 6), (Basis((1, 2, 5, 6)), 4 * 6 + 2, 3)]
    for basis, entries, h1 in cases:
        monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", entries)
        assert main(["analyze", "--basis", str(basis), "--format", "jsonl"]) == 0
        out, err = capsys.readouterr()
        assert (json.loads(out)["h1"], err) == (h1, "")
        monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", entries - 1)
        assert main(["analyze", "--basis", str(basis)]) == 3
        assert capsys.readouterr() == ("", (
            f"error: OverflowLimitError: cover sweep would need {entries} entries,"
            f" limit is {entries - 1}\n"
        ))
