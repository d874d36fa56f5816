"""Acceptance suite: one test per shipped claim, with stated budgets.

Run it alone with ``pytest tests/test_acceptance.py -v``; the hook in
conftest.py prints a PASS/FAIL line per check.  Every expected number
here was either verified against the published tables for these bases
or computed by the independent brute-force oracle before being frozen.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from stampcover import (
    Basis,
    analyze,
    brute_force_cover,
    compute_h0,
    cover,
    cover_profile,
    enumerate_all_bases,
    enumerate_symmetric,
    family_a5,
    family_a9,
    family_a10,
    find_generation,
    min_stamp_table,
    reflect_generation,
)
from stampcover.cli import main
from support import random_basis, random_symmetric_basis


def _best_of(repeats, fn):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


# ---------- 1: golden values ----------


def test_golden_values_and_latency():
    quad = Basis((1, 3, 6, 10))
    a9, a10 = family_a9(3), family_a10(5)

    def quad_covers():
        assert [cover(quad, h) for h in (1, 2, 3)] == [1, 4, 23]

    def nine_covers():
        assert [cover(a9, h) for h in (2, 3, 4)] == [6, 41, 112]
        assert 112 == 4 * a9.top

    def ten_covers():
        assert [cover(a10, h) for h in (4, 5, 6)] == [34, 132, 564]
        assert 564 == 6 * a10.top

    quad_covers(), nine_covers(), ten_covers()  # warm-up and correctness
    assert _best_of(3, quad_covers) < 0.001
    assert _best_of(3, nine_covers) < 0.010
    assert _best_of(3, ten_covers) < 0.050

    assert compute_h0(quad) == 3

    nine = analyze(a9)
    assert (nine.h0, nine.h1) == (3, 4)
    ten = analyze(a10)
    assert (ten.h0, ten.h1) == (5, 6)

    assert str(family_a5(3)) == "1,3,5,8,20"
    assert str(family_a5(5)) == "1,5,7,12,47"
    assert a9.elements == (1, 3, 5, 8, 20, 23, 25, 27, 28)
    assert a10.elements == (1, 5, 7, 12, 47, 82, 87, 89, 93, 94)
    diffs = tuple(b - a for a, b in zip((0,) + a9.elements, a9.elements))
    assert diffs == (1, 2, 2, 3, 12, 3, 2, 2, 1)


# ---------- 2: family h0/h1 claim ----------


def test_family_split_claim_under_30s():
    start = time.perf_counter()
    for p in (3, 5, 7):
        basis = family_a9(p)
        assert compute_h0(basis) == p
        assert analyze(basis, 2 * p).h1 == p + 1
    for p in (5, 7):
        basis = family_a10(p)
        assert compute_h0(basis) == p
        assert analyze(basis, 2 * p).h1 == p + 1
    assert time.perf_counter() - start < 30


# ---------- 3 and 4: reflection lemma and saturation theorem boxes ----------


def _symmetric_box(k_max: int, ak_max: int):
    for k in range(1, k_max + 1):
        if k > ak_max:
            continue
        yield from enumerate_symmetric(k, ak_max)


@pytest.fixture(scope="module")
def box_tables():
    """Each basis of the (7, 40) box with its h0 and one table up to its window.

    The table covers 0..max(h0, 2*h0 - 2) * top, which holds the h0 * top
    range the lemma reads; returns the rows and the seconds they took.
    """
    start = time.perf_counter()
    rows = []
    for basis in _symmetric_box(7, 40):
        h0 = compute_h0(basis)
        rows.append((basis, h0, min_stamp_table(basis, max(h0, 2 * h0 - 2) * basis.top)))
    return rows, time.perf_counter() - start


def test_reflection_lemma_box_under_60s(box_tables):
    start = time.perf_counter()
    rows, build_s = box_tables
    checked = 0
    for basis, h0, table in rows:
        top = basis.top
        for x in range(top):
            gen = table.generation(x, h0)
            reflected = reflect_generation(basis, gen, h0)
            assert reflected.weight == h0
            assert reflected.value == h0 * top - x
            rebuilt = sum(
                c * a for c, a in zip(reflected.coefficients, basis.elements)
            )
            assert rebuilt == reflected.value
            # cross-check: the reflected value is indeed reachable in h0
            assert table.min_stamps[reflected.value] <= h0
            checked += 1
    assert checked > 40_000
    # the budget covers the box's tables, whichever test built them
    assert build_s + time.perf_counter() - start < 60


def test_saturation_theorem_box(box_tables):
    for basis, h0, table in box_tables[0]:
        window = max(h0, 2 * h0 - 2)
        h1 = analyze(basis, window).h1
        assert h1 is not None
        assert h0 <= h1 <= window
        # the stitched ranges really are gap-free at h = 2*h0 - 2
        h = max(h0, 2 * h0 - 2)
        assert table.bound == h * basis.top
        stamps = table.min_stamps
        assert all(stamps[x] <= h for x in range(h * basis.top + 1))


# ---------- 5: no counterexamples in the small symmetric box ----------


def test_small_symmetric_box_is_clean_under_120s():
    start = time.perf_counter()
    flagged = []
    scanned = 0
    for basis in _symmetric_box(5, 30):
        report = analyze(basis)
        scanned += 1
        if report.counterexample:
            flagged.append(str(basis))
    assert scanned == 226
    assert flagged == []
    assert time.perf_counter() - start < 120


# ---------- 6: oracle equivalence ----------


def test_cover_equals_brute_force_exhaustively():
    for k in range(1, 5):
        for basis in enumerate_all_bases(k, 12):
            for h in range(1, 5):
                assert cover(basis, h) == brute_force_cover(basis, h)


# ---------- 7: randomized invariants ----------


def test_random_invariants_thousand_cases_each():
    rng = random.Random(68020)

    for _ in range(1000):  # bound: h <= n(h) <= h * top
        basis = random_basis(rng)
        h = rng.randint(1, 6)
        n = cover(basis, h)
        assert h <= n <= h * basis.top

    for _ in range(1000):  # monotone step
        basis = random_basis(rng)
        h = rng.randint(1, 6)
        profile = cover_profile(basis, h + 1)
        n_h, n_next = profile.cover(h), profile.cover(h + 1)
        assert n_next >= n_h
        if n_h >= basis.top:
            assert n_next >= n_h + basis.top

    for _ in range(1000):  # saturation persists across 3 further budgets
        basis = random_symmetric_basis(rng)
        h0 = compute_h0(basis)
        h1 = analyze(basis, max(h0, 2 * h0 - 2)).h1
        assert h1 is not None
        profile = cover_profile(basis, h1 + 3)
        for h in range(h1, h1 + 4):
            assert profile.cover(h) == h * basis.top

    for _ in range(1000):  # generation soundness
        basis = random_basis(rng)
        h = rng.randint(1, 8)
        x = rng.randint(0, h * basis.top)
        stamps = min_stamp_table(basis, max(x, 1)).min_stamps
        if stamps[x] > h:
            continue
        gen = find_generation(basis, x, h)
        assert sum(c * a for c, a in zip(gen.coefficients, basis.elements)) == x
        assert gen.weight <= h
        assert gen.weight == stamps[x]


# ---------- 8: scan determinism across worker counts ----------


def test_scan_byte_identical_across_thread_counts(tmp_path):
    serial = tmp_path / "serial.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    box = ["scan", "--k", "5", "--ak-max", "30"]
    assert main(box + ["--threads", "1", "--out", str(serial)]) == 0
    assert main(box + ["--threads", "4", "--out", str(pooled)]) == 0
    first = serial.read_bytes()
    assert first == pooled.read_bytes()
    # and a repeated run reproduces the same bytes again
    assert main(box + ["--threads", "4", "--out", str(pooled)]) == 0
    assert pooled.read_bytes() == first
    summary = json.loads(first.splitlines()[-1])
    assert summary["summary"]["counterexamples"] == 0
