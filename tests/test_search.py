"""Unit tests for enumeration, conjecture scans, persistence, extremal search."""

from __future__ import annotations

import json
import math

import pytest

import stampcover.core as core
import stampcover.search as search
from stampcover import (
    Basis,
    BasisReport,
    ScanFailure,
    ScanSpec,
    cover,
    enumerate_all_bases,
    enumerate_symmetric,
    is_symmetric,
    run_scan,
    scan_conjecture,
    search_extremal,
)
from stampcover.core import brute_force_cover
from stampcover.errors import OverflowLimitError, TooLargeError
from support import REPORT_KEYS, record_calls, warm_peak


# ---------- enumeration ----------


def test_enumerate_symmetric_golden():
    assert [str(b) for b in enumerate_symmetric(3, 6)] == [
        "1,2,3",
        "1,3,4",
        "1,4,5",
        "1,5,6",
    ]


def test_enumerate_symmetric_matches_filtering():
    for k, ak_max in [
        (1, 5), (2, 8), (3, 10), (4, 12), (5, 14), (6, 16), (7, 14),
        (2, 7), (3, 11), (4, 13), (5, 15), (6, 15), (8, 15),
    ]:
        by_rule = list(enumerate_symmetric(k, ak_max))
        by_filter = [b for b in enumerate_all_bases(k, ak_max) if is_symmetric(b)]
        assert by_rule == by_filter


def test_enumeration_is_ordered_and_duplicate_free():
    for stream in (enumerate_symmetric(5, 20), enumerate_all_bases(3, 12)):
        seen = [b.elements for b in stream]
        assert seen == sorted(set(seen))


def test_enumerate_all_counts():
    for k, ak_max in [(1, 1), (2, 9), (3, 10), (4, 11)]:
        count = sum(1 for _ in enumerate_all_bases(k, ak_max))
        assert count == math.comb(ak_max - 1, k - 1)


def test_one_element_boxes_hold_only_the_basis_one():
    for ak_max in (1, 3):
        assert list(enumerate_all_bases(1, ak_max)) == [Basis((1,))]
        assert list(enumerate_symmetric(1, ak_max)) == [Basis((1,))]


def test_enumerate_rejects_impossible_boxes():
    with pytest.raises(ValueError):
        list(enumerate_symmetric(0, 5))
    with pytest.raises(ValueError):
        list(enumerate_symmetric(3, 2))
    with pytest.raises(ValueError):
        list(enumerate_all_bases(4, 3))


# ---------- conjecture scans ----------


def test_scan_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(k=0, ak_max=5)
    with pytest.raises(ValueError):
        ScanSpec(k=5, ak_max=4)
    with pytest.raises(ValueError):
        ScanSpec(k=2, ak_max=5, mode="everything")
    with pytest.raises(TypeError):
        ScanSpec(k=2, ak_max=5, h_cap=4)  # a scan has no cap of its own


def test_scan_flags_the_known_counterexample():
    reports = list(scan_conjecture(ScanSpec(k=9, ak_max=28)))
    assert len(reports) == 1430
    flagged = [r for r in reports if isinstance(r, BasisReport) and r.counterexample]
    assert [str(r.basis) for r in flagged] == ["1,3,5,8,20,23,25,27,28"]
    assert (flagged[0].h0, flagged[0].h1) == (3, 4)
    assert not any(isinstance(r, ScanFailure) for r in reports)


def test_scan_records_failures_and_continues(monkeypatch):
    # only a non-symmetric basis with a_{k-1} = top - 1 sweeps, to its
    # ceiling top - 2: at top 6 that needs 26 entries, past a limit of 25
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 4 * 6 + 1)
    results = list(scan_conjecture(ScanSpec(k=4, ak_max=6, mode="all")))
    assert [type(r) for r in results] == (
        [BasisReport] * 5 + [ScanFailure] + [BasisReport] * 3 + [ScanFailure]
    )
    failures = [r for r in results if isinstance(r, ScanFailure)]
    assert [str(r.basis) for r in failures] == ["1,2,5,6", "1,4,5,6"]
    assert {r.error for r in failures} == {
        "OverflowLimitError: cover sweep would need 26 entries, limit is 25"
    }
    found = [str(r.basis) for r in results if isinstance(r, BasisReport) and r.h1 is not None]
    assert found == ["1,2,3,4", "1,2,4,5", "1,3,4,5", "1,3,5,6"]
    for record in (r.to_json_dict() for r in results):
        assert search._dumps(record) == json.dumps(record, separators=(",", ":"))


def test_dumps_is_compact_json_dumps():
    # quotes, backslashes and non-ASCII text, escaped as json.dumps escapes them
    payload = {"basis": 'say "1,2"', "path": "C:\\tmp\\x", "note": "σ ≤ h0 — ü", "n": [1, None]}
    assert search._dumps(payload) == json.dumps(payload, separators=(",", ":"))


def test_scan_refuses_fewer_than_one_thread():
    with pytest.raises(ValueError, match="^threads must be at least 1, got 0$"):
        list(scan_conjecture(ScanSpec(k=3, ak_max=8), threads=0))


def test_scan_threads_do_not_change_results():
    spec = ScanSpec(k=5, ak_max=20)
    assert list(scan_conjecture(spec)) == list(scan_conjecture(spec, threads=4))


def test_scan_pool_is_bounded_by_the_cores_present(monkeypatch):
    # a stand-in pool records its size and maps in this process, so no
    # worker is ever started
    import concurrent.futures.process as process

    sizes, halves, shutdowns = [], [], []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, iterable, chunksize=1):
            halves.append((len(iterable), chunksize))
            return map(fn, iterable)

        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append((wait, cancel_futures))

    monkeypatch.setattr(process, "ProcessPoolExecutor", RecordingPool)
    spec = ScanSpec(k=4, ak_max=20)
    serial = list(scan_conjecture(spec))
    for cores, threads, size in [(3, 10**6, 3), (None, 10**6, 1), (1, 2, 1), (8, 2, 2)]:
        monkeypatch.setattr(search.os, "cpu_count", lambda: cores)
        assert list(scan_conjecture(spec, threads=threads)) == serial
        assert sizes.pop() == size
        # the box's 9 bases are one half, split into two chunks per worker
        assert halves.pop() == (9, math.ceil(9 / (2 * size)))
        assert shutdowns.pop() == (True, True)
    assert sizes == halves == shutdowns == []

    # every half but the last holds _SCAN_HALF bases, split the same way
    box = ScanSpec(k=3, ak_max=95, mode="all")  # 4,371 bases of tops up to 95
    reports = scan_conjecture(box, threads=2)
    assert [report.basis for report in reports] == list(enumerate_all_bases(3, 95))
    full, rest = search._SCAN_HALF, 4371 % search._SCAN_HALF
    assert halves == [(full, math.ceil(full / 4))] * 2 + [(rest, math.ceil(rest / 4))]
    assert shutdowns.pop() == (True, True)

    # a scan closed after its first report holds the next half's map unstarted;
    # only cancel_futures drops that half instead of running it
    reports = scan_conjecture(box, threads=2)
    next(reports)
    reports.close()
    assert shutdowns == [(True, True)]


def test_scan_pool_draws_one_window_before_its_first_report(monkeypatch):
    drawn = []
    enumerate_real = search.enumerate_symmetric

    def counting(k, ak_max):
        for basis in enumerate_real(k, ak_max):
            drawn.append(basis)
            yield basis

    monkeypatch.setattr(search, "enumerate_symmetric", counting)
    # closing the scan still waits for the chunks already sent to the workers,
    # so halves (and chunks) smaller than the real ones keep this test short;
    # the bounded-pool test pins their size
    monkeypatch.setattr(search, "_SCAN_HALF", 256)
    reports = scan_conjecture(ScanSpec(9, 40), threads=2)
    try:
        first = next(reports)
    finally:
        reports.close()
    assert first.basis == drawn[0]
    assert len(drawn) <= 2 * search._SCAN_HALF  # two halves, not the box's 7,752


def test_box_refusals_are_worded_alike():
    for refuse in [
        lambda: ScanSpec(k=5, ak_max=4),
        lambda: list(enumerate_symmetric(5, 4)),
        lambda: list(enumerate_all_bases(5, 4)),
    ]:
        with pytest.raises(ValueError, match="^ak_max 4 cannot fit 5 increasing"):
            refuse()
    with pytest.raises(ValueError, match="^ak_ceiling 4 cannot fit 5 increasing"):
        search_extremal(3, 5, 4)
    for refuse in [
        lambda: ScanSpec(k=0, ak_max=4),
        lambda: list(enumerate_symmetric(0, 4)),
        lambda: list(enumerate_all_bases(0, 4)),
        lambda: search_extremal(3, 0),  # before a ceiling is derived for it
        lambda: search_extremal(3, 0, 4),
    ]:
        with pytest.raises(ValueError, match="^k must be at least 1, got 0$"):
            refuse()


def test_scan_all_mode_covers_every_basis():
    spec = ScanSpec(k=3, ak_max=8, mode="all")
    results = list(scan_conjecture(spec))
    assert len(results) == math.comb(7, 2)


def test_scan_validates_each_basis_once_past_its_enumerator(tmp_path, monkeypatch):
    # a symmetric basis is built as a tuple from its lower part and top,
    # and nothing downstream of the enumerator builds it again
    builds = record_calls(monkeypatch, Basis, "_validate", lambda self: self.elements)
    for spec in [
        ScanSpec(k=5, ak_max=20),
        ScanSpec(k=4, ak_max=20),
        ScanSpec(k=3, ak_max=12, mode="all"),
    ]:
        builds.clear()
        summary = run_scan(spec, str(tmp_path / "scan.jsonl"))
        assert len(builds) == summary.scanned


# ---------- persistence ----------


def _reference_scan(tmp_path, spec):
    path = tmp_path / "reference.jsonl"
    summary = run_scan(spec, str(path))
    return path.read_bytes(), summary


def test_run_scan_output_shape(tmp_path):
    spec = ScanSpec(k=3, ak_max=12)
    out = tmp_path / "scan.jsonl"
    summary = run_scan(spec, str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == summary.scanned + 1
    for line in lines[:-1]:
        record = json.loads(line)
        assert list(record) == REPORT_KEYS
    assert json.loads(lines[-1]) == {
        "summary": {
            "scanned": summary.scanned,
            "counterexamples": summary.counterexamples,
        }
    }


def test_interrupted_scan_resumes_to_identical_bytes(tmp_path, monkeypatch):
    spec = ScanSpec(k=5, ak_max=20)
    expected, reference = _reference_scan(tmp_path, spec)

    out = tmp_path / "interrupted.jsonl"
    real_evaluate = search._evaluate
    state = {"calls": 0}

    def fragile(basis):
        if state["calls"] == 9:
            raise KeyboardInterrupt
        state["calls"] += 1
        return real_evaluate(basis)

    monkeypatch.setattr(search, "_evaluate", fragile)
    with pytest.raises(KeyboardInterrupt):
        run_scan(spec, str(out))
    monkeypatch.setattr(search, "_evaluate", real_evaluate)

    assert out.read_bytes() != expected

    summary = run_scan(spec, str(out), resume=True)
    assert out.read_bytes() == expected
    assert summary == reference


def test_resume_continues_after_the_last_record(tmp_path, monkeypatch):
    spec = ScanSpec(k=4, ak_max=16)
    expected, reference = _reference_scan(tmp_path, spec)
    out = tmp_path / "head.jsonl"
    out.write_bytes(b"".join(expected.splitlines(keepends=True)[:5]))

    analyzed = record_calls(monkeypatch, search, "_evaluate", lambda basis: basis)
    assert run_scan(spec, str(out), resume=True) == reference
    assert out.read_bytes() == expected
    assert analyzed == list(enumerate_symmetric(4, 16))[5:]


def test_resume_enumerates_the_box_once(tmp_path, monkeypatch):
    spec = ScanSpec(k=4, ak_max=14)
    expected, reference = _reference_scan(tmp_path, spec)
    calls, drawn = [], []
    real_enumerate = search.enumerate_symmetric

    def counted(k, ak_max):
        calls.append((k, ak_max))
        for basis in real_enumerate(k, ak_max):
            drawn.append(basis)
            yield basis

    monkeypatch.setattr(search, "enumerate_symmetric", counted)
    out = tmp_path / "torn.jsonl"
    lines = expected.split(b"\n")
    out.write_bytes(b"\n".join(lines[:3]) + b"\n" + lines[3][:7])
    assert run_scan(spec, str(out), resume=True) == reference
    assert out.read_bytes() == expected
    assert calls == [(4, 14)] and len(drawn) == reference.scanned

    calls.clear()
    drawn.clear()
    assert run_scan(spec, str(out), resume=True) == reference  # finished
    assert calls == [(4, 14)] and len(drawn) == reference.scanned


def test_resume_of_a_finished_file_does_not_hold_it(tmp_path, k9_top40_scan):
    spec = ScanSpec(k=9, ak_max=40)
    data, reference = k9_top40_scan
    out = tmp_path / "done.jsonl"
    out.write_bytes(data)
    size = out.stat().st_size

    def resume():
        assert run_scan(spec, str(out), resume=True) == reference

    assert warm_peak(resume) < size / 10
    assert out.read_bytes() == data


def test_resume_restores_the_bytes_from_every_kind_of_cut(tmp_path):
    # a kill cuts the file anywhere in its last buffer: at a line's start, in
    # its middle, just before its newline (a whole JSON object with none), or
    # just after it; the summary line is cut in the same four places
    spec = ScanSpec(k=4, ak_max=14)
    expected, reference = _reference_scan(tmp_path, spec)
    assert (len(expected), expected.count(b"\n")) == (880, 7)
    cuts = set()
    start = 0
    for line in expected.splitlines(keepends=True):
        end = start + len(line)
        cuts.update((start, (start + end) // 2, end - 1, end))
        start = end
    out = tmp_path / "cut.jsonl"
    for cut in sorted(cuts):
        out.write_bytes(expected[:cut])
        assert run_scan(spec, str(out), resume=True) == reference, cut
        assert out.read_bytes() == expected, cut


def test_resume_discards_unparseable_tail(tmp_path):
    spec = ScanSpec(k=4, ak_max=14)
    expected, reference = _reference_scan(tmp_path, spec)

    out = tmp_path / "junk.jsonl"
    lines = expected.split(b"\n")
    out.write_bytes(b"\n".join(lines[:2]) + b"\nnot json at all\n")
    summary = run_scan(spec, str(out), resume=True)
    assert out.read_bytes() == expected
    assert summary == reference


def test_resume_of_finished_scan_is_a_no_op(tmp_path):
    spec = ScanSpec(k=3, ak_max=10)
    expected, reference = _reference_scan(tmp_path, spec)
    out = tmp_path / "done.jsonl"
    out.write_bytes(expected)
    summary = run_scan(spec, str(out), resume=True)
    assert summary == reference
    assert out.read_bytes() == expected


def test_resume_from_missing_or_empty_file(tmp_path):
    spec = ScanSpec(k=3, ak_max=10)
    expected, _ = _reference_scan(tmp_path, spec)
    missing = tmp_path / "missing.jsonl"
    run_scan(spec, str(missing), resume=True)
    assert missing.read_bytes() == expected
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    run_scan(spec, str(empty), resume=True)
    assert empty.read_bytes() == expected


def test_resume_refuses_records_of_another_box(tmp_path):
    # the first 5 records of a k=3 scan are not the start of a k=5 scan
    expected, _ = _reference_scan(tmp_path, ScanSpec(3, 20))
    out = tmp_path / "other.jsonl"
    partial = b"".join(expected.splitlines(keepends=True)[:5])
    out.write_bytes(partial)
    with pytest.raises(ValueError, match="refusing to resume"):
        run_scan(ScanSpec(5, 20), str(out), resume=True)
    assert out.read_bytes() == partial


def test_resume_refuses_finished_scan_of_another_box(tmp_path):
    smaller, _ = _reference_scan(tmp_path, ScanSpec(3, 19))
    expected, _ = _reference_scan(tmp_path, ScanSpec(3, 20))
    out = tmp_path / "done.jsonl"
    for spec in (ScanSpec(3, 21), ScanSpec(3, 19), ScanSpec(3, 20, mode="all")):
        out.write_bytes(expected)
        with pytest.raises(ValueError, match="refusing to resume"):
            run_scan(spec, str(out), resume=True)
        assert out.read_bytes() == expected
    # the whole box, then anything at all: two boxes, junk, or a torn line
    for tail in (smaller, b"junk\n", b"x"):
        out.write_bytes(expected + tail)
        with pytest.raises(ValueError, match="does not hold a scan of the box k=3 ak_max=20"):
            run_scan(ScanSpec(3, 20), str(out), resume=True)
        assert out.read_bytes() == expected + tail


def test_resume_refuses_a_summary_that_disagrees_with_its_records(tmp_path):
    spec = ScanSpec(k=9, ak_max=28)
    expected, reference = _reference_scan(tmp_path, spec)
    assert (reference.scanned, reference.counterexamples) == (1430, 1)
    records = b"".join(expected.splitlines(keepends=True)[:-1])
    out = tmp_path / "tampered.jsonl"
    for summary in [
        {"scanned": 1431, "counterexamples": 1},
        {"scanned": 1430, "counterexamples": 0},
        {"scanned": 1430},
        [1430, 1],
    ]:
        tampered = records + json.dumps({"summary": summary}).encode() + b"\n"
        out.write_bytes(tampered)
        with pytest.raises(ValueError, match="1430 records with 1 counterexamples"):
            run_scan(spec, str(out), resume=True)
        assert out.read_bytes() == tampered


def test_fresh_run_overwrites_without_resume(tmp_path):
    spec = ScanSpec(k=3, ak_max=10)
    expected, _ = _reference_scan(tmp_path, spec)
    out = tmp_path / "stale.jsonl"
    out.write_bytes(b"stale junk\n")
    run_scan(spec, str(out))
    assert out.read_bytes() == expected


def test_run_scan_threads_byte_identical(tmp_path):
    spec = ScanSpec(k=5, ak_max=22)
    serial = tmp_path / "serial.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    s1 = run_scan(spec, str(serial))
    s4 = run_scan(spec, str(pooled), threads=4)
    assert serial.read_bytes() == pooled.read_bytes()
    assert s1 == s4


# ---------- extremal search ----------


def test_extremal_golden_small():
    result = search_extremal(1, 3)
    assert (result.n_star, result.ak_ceiling) == (3, 3)
    assert [str(b) for b in result.witnesses] == ["1,2,3"]

    result = search_extremal(2, 2)
    assert result.n_star == 4
    assert [str(b) for b in result.witnesses] == ["1,2", "1,3"]


def test_extremal_three_stamps_three_denominations():
    result = search_extremal(3, 3)
    assert result.n_star == 15
    assert [str(b) for b in result.witnesses] == ["1,4,5"]
    assert result.ak_ceiling == 8


def test_extremal_witnesses_achieve_the_optimum():
    result = search_extremal(3, 3)
    for witness in result.witnesses:
        assert cover(witness, 3) == result.n_star
    for basis in enumerate_all_bases(3, result.ak_ceiling):
        assert cover(basis, 3) <= result.n_star


def test_extremal_beats_every_symmetric_candidate():
    result = search_extremal(3, 3)
    for basis in enumerate_symmetric(3, result.ak_ceiling):
        assert cover(basis, 3) <= result.n_star


def test_extremal_explicit_ceiling():
    result = search_extremal(2, 2, ak_ceiling=2)
    assert result.n_star == 4
    assert [str(b) for b in result.witnesses] == ["1,2"]


def test_extremal_refuses_oversized_searches():
    with pytest.raises(TooLargeError):
        search_extremal(9, 9)
    with pytest.raises(TooLargeError):
        search_extremal(3, 3, max_candidates=5)


def test_extremal_argument_validation():
    with pytest.raises(ValueError):
        search_extremal(0, 3)
    with pytest.raises(ValueError):
        search_extremal(3, 0)
    with pytest.raises(ValueError):
        search_extremal(3, 3, ak_ceiling=2)


def test_extremal_one_denomination():
    result = search_extremal(7, 1)
    assert result.n_star == 7
    assert [str(b) for b in result.witnesses] == ["1"]


def test_extremal_matches_exhaustive_search():
    # reference: the cover of every candidate, best value and its
    # witnesses in lexicographic order, as the unpruned search did it
    boxes = 0
    for h in range(1, 6):
        for k in range(1, 6):
            derived = 1 if k == 1 else search_extremal(h, k - 1).n_star + 1
            tops = [
                top
                for top in range(k, derived + 3)
                if math.comb(top - 1, k - 1) <= 2_000
            ]
            covers = [(b, cover(b, h)) for b in enumerate_all_bases(k, tops[-1])]
            for top in tops:
                in_box = [(b, n) for b, n in covers if b.top <= top]
                best = max(n for _, n in in_box)
                expected = (best, [b for b, n in in_box if n == best])
                for ceiling in [top, None] if top == derived else [top]:
                    result = search_extremal(h, k, ceiling)
                    assert result.ak_ceiling == top
                    got = (result.n_star, list(result.witnesses))
                    assert got == expected, (h, k, ceiling)
                    boxes += 1
    assert boxes > 200


@pytest.mark.parametrize(
    ("h", "k", "n_star", "witnesses"),
    [
        (4, 4, 44, ["1,3,11,18"]),
        (3, 5, 36, ["1,4,6,14,15"]),
        (4, 5, 70, ["1,3,11,15,32"]),
        (5, 4, 71, ["1,4,12,21", "1,5,12,28"]),
        (3, 6, 52, ["1,3,7,9,19,24", "1,4,6,14,17,29"]),
        (3, 7, 70, ["1,4,5,15,18,27,34"]),
        (4, 6, 108, ["1,4,9,16,38,49", "1,5,8,27,29,44"]),
        (5, 5, 126, ["1,4,9,31,51"]),
    ],
)
def test_extremal_goldens(h, k, n_star, witnesses):
    result = search_extremal(h, k, max_candidates=10**6)
    assert result.n_star == n_star
    assert [str(b) for b in result.witnesses] == witnesses


# published values: Challis & Robinson, J. Integer Seq. 13 (2010)
@pytest.mark.slow
@pytest.mark.parametrize(
    ("h", "k", "n_star", "witnesses"),
    [
        (5, 6, 211, ["1,4,13,24,56,61", "1,5,8,33,54,67"]),
        (3, 8, 93, ["1,3,6,10,24,26,39,41"]),
        (4, 7, 162, ["1,4,9,24,35,49,51", "1,4,10,15,37,50,71", "1,5,8,25,31,52,71"]),
    ],
)
def test_extremal_slow_goldens(h, k, n_star, witnesses):
    result = search_extremal(h, k, max_candidates=10**8)
    assert result.n_star == n_star
    assert [str(b) for b in result.witnesses] == witnesses
    for witness in result.witnesses:
        assert brute_force_cover(witness, h) == n_star


def _table_dfs(h, k, ceiling, visited):
    """The extremal DFS before reach levels: one table cover per prefix."""
    best, found = -1, []

    def visit(prefix):
        nonlocal best, found
        visited.append(prefix)
        n = cover(Basis(prefix), h)
        slots = k - len(prefix)
        if not slots:
            if n > best:
                best, found = n, []
            if n == best:
                found.append(Basis(prefix))
            return
        for nxt in range(prefix[-1] + 1, min(n + 1, ceiling - slots + 1) + 1):
            visit(prefix + (nxt,))

    visit((1,))
    return best, found


def test_extremal_matches_table_dfs_prefix_for_prefix():
    # same optimum and witnesses, and max_candidates counts exactly the
    # prefixes the table-based search visited
    boxes = 0
    for h in range(1, 7):
        for k in range(2, 7):
            if h * k > 16:
                continue
            derived = search_extremal(h, k - 1).n_star + 1
            # None: the ceiling read off the search itself visits the same prefixes
            for ceiling in [*range(k, derived + 4), None]:
                visited = []
                best, found = _table_dfs(h, k, ceiling or derived, visited)
                result = search_extremal(h, k, ceiling, max_candidates=len(visited))
                assert (result.n_star, list(result.witnesses)) == (best, found)
                assert result.ak_ceiling == (ceiling or derived)
                with pytest.raises(TooLargeError):
                    search_extremal(h, k, ceiling, max_candidates=len(visited) - 1)
                boxes += 1
    assert boxes > 150


def test_extremal_is_one_search(monkeypatch):
    entries = record_calls(monkeypatch, search, "search_extremal")
    assert search.search_extremal(3, 5).n_star == 36
    assert entries == [(3, 5)]  # no search for k - 1, ..., 1


def test_extremal_certifies_each_witness_once_on_the_table(monkeypatch):
    certified = []
    skewed_top = 3

    def skewed_cover(basis, h, **kwargs):
        certified.append(str(basis))
        return cover(basis, h, **kwargs) + (basis.top == skewed_top)

    monkeypatch.setattr(search, "cover", skewed_cover)
    with pytest.raises(AssertionError, match="witness 1,3 does not cover 4"):
        search_extremal(2, 2, 3)
    assert certified == ["1,2", "1,3"]  # not the prefix (1)

    # a derived ceiling also certifies the (k - 1)-prefix it was read off
    skewed_top = 1
    certified.clear()
    with pytest.raises(AssertionError, match="prefix 1 does not cover 2"):
        search_extremal(2, 2)
    assert certified == ["1,2", "1,3", "1"]


def test_extremal_two_denominations_match_the_closed_form():
    # n(h, 2) = floor((h^2 + 6h + 1) / 4): an oracle past brute force's reach
    for h in range(1, 41):
        assert search_extremal(h, 2).n_star == (h * h + 6 * h + 1) // 4


def test_extremal_default_budget_answers_three_six():
    result = search_extremal(3, 6)
    assert result.n_star == 52


def test_extremal_table_limit_refuses_before_the_first_prefix(monkeypatch):
    # every top of the box is at most T = min(C(3 + 3, 3), 16) = 16, so its
    # sweeps need at most 3 * 16 + 2 = 50 entries: sized once, up front
    answer = search_extremal(3, 4, 16)
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 40)
    for budget in (1, 10**6):  # refused before the root is counted
        with pytest.raises(OverflowLimitError) as excinfo:
            search_extremal(3, 4, 16, max_candidates=budget)
        assert str(excinfo.value) == "cover sweep would need 50 entries, limit is 40"
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 50)
    assert search_extremal(3, 4, 16) == answer


def test_extremal_level_guard_fires_before_levels_are_built(monkeypatch):
    # at h >= 64 a table within the limit can still have h + 1 levels
    # of more than 64 bits per entry of it; T = 2 here
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 130)
    for budget in (1, 10**6):  # (1, 2): 130 entries, 65 levels
        with pytest.raises(OverflowLimitError) as excinfo:
            search_extremal(64, 2, 2, max_candidates=budget)
        assert str(excinfo.value) == "levels would need 8450 bits, limit is 8320"
    # 4,097 levels of 8,194 bits would take about 4 MB
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 8194)

    def refused():
        with pytest.raises(OverflowLimitError, match="bits, limit is 524416$"):
            search_extremal(4096, 2, 2)

    assert warm_peak(refused) < 100_000


@pytest.mark.parametrize(("h", "k"), [(300, 3), (3000, 2), (10**6, 10**6)])
def test_extremal_refuses_a_box_that_cannot_fit_before_any_prefix(h, k):
    # sized from h, k alone: no prefix and no level is built, and
    # (10**6, 10**6) is refused before C(h + k - 1, k - 1) is computed
    def refused():
        with pytest.raises(OverflowLimitError):
            search_extremal(h, k)

    assert warm_peak(refused) < 100_000


def test_extremal_search_deeper_than_the_recursion_limit():
    # at h = 1 the only admissible path is 1, 2, ..., k: one prefix per slot
    result = search_extremal(1, 1200)
    assert (result.n_star, result.ak_ceiling) == (1200, 1200)
    assert result.witnesses == (Basis(tuple(range(1, 1201))),)


def test_extremal_search_holds_one_prefix():
    # a frame per slot that kept its own prefix tuple would hold
    # 600 * 601 / 2 element references, about 1.5 MiB; one shared path
    # holds 600
    def search():
        assert search_extremal(1, 600).n_star == 600

    assert warm_peak(search) < 512 * 1024


def test_extremal_one_denomination_needs_no_levels():
    # h + 1 levels of h + 2 bits would pass the level guard
    result = search_extremal(10**6, 1)
    assert (result.n_star, [str(b) for b in result.witnesses]) == (10**6, ["1"])
    # nor a sweep of 2^24 + 2 entries: {1}'s certifying cover sweeps one budget
    result = search_extremal(2**24, 1)
    assert (result.n_star, [str(b) for b in result.witnesses]) == (2**24, ["1"])
