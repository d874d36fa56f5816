"""Per-layer numbers: span summaries and in-process layer timings.

``summarize`` turns the spans a traced probe wrote into calls, total
time and self time per span name; a span's self time is its duration
minus the time its child spans cover.  The ``*_layers`` functions time
public functions of the ``search`` layer directly, untraced, on the
workload's own box.  Every function they call is looked up through
``need``, which names an attribute that no longer exists instead of
letting its layer read zero.

Which end-to-end number each layer number should move, and where:

- core.table_builds, core.table_entries, core.table_s: wall_s and
  peak_rss_mb on analyze-batch, wall_s on scan-sym4 and extremal-h4k5.
- core.cover_calls, core.cover_s, search.enumerate_s,
  search.extremal_s: wall_s on extremal-h4k5.
- core.tables_per_basis (table builds per basis handled; 1 is the
  floor), analysis.h0_s: wall_s on scan-sym4 and analyze-batch.
- basis.p50_ms: wall_s on scan-sym4; basis.p99_ms: wall_s on
  analyze-batch, whose few huge bases dominate it.
- search.scan_s, search.write_s, search.jsonl_bytes: wall_s on
  scan-sym4 only.
- search.pool_s, search.pool_speedup: none; the timed scan runs at one
  thread, so they time the pool on its own.
- cli.startup_s: setup_s on every workload.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import time


class LayerGone(Exception):
    """A function the benchmark times no longer exists in the program."""


def need(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise LayerGone(f"{module_name} cannot be imported: {exc}") from None
    fn = getattr(module, attr, None)
    if fn is None:
        raise LayerGone(f"{module_name}.{attr} no longer exists")
    return fn


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def highest_percentile(n: int) -> float | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def timing(values: list[float]) -> dict:
    """Median, the highest percentile the sample count supports, and n."""
    p = highest_percentile(len(values))
    return {
        "median": percentile(values, 50),
        "percentile": p,
        "at_percentile": percentile(values, p) if p else None,
        "n": len(values),
    }


def summarize(spans: dict) -> dict[str, dict]:
    """Calls, total and self seconds, durations and entries per span name."""
    parent, start, end = spans["parent"], spans["start"], spans["end"]
    covered = [0] * len(start)
    for i, up in enumerate(parent):
        if up >= 0:
            covered[up] += end[i] - start[i]
    out = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "entries": 0, "durations": []}
        for name in spans["names"]
    }
    for i, name_id in enumerate(spans["name"]):
        row = out[spans["names"][name_id]]
        duration = end[i] - start[i]
        row["calls"] += 1
        row["total_s"] += duration / 1e9
        row["self_s"] += (duration - covered[i]) / 1e9
        row["entries"] += spans["entries"][i]
        row["durations"].append(duration / 1e9)
    return out


def span_metrics(summary: dict[str, dict], basis_span: str) -> dict[str, float]:
    """The per-layer metrics every workload reports, from its spans.

    ``basis_span`` is the span that handles one basis: ``analyze`` when
    the workload analyzes bases, ``cover`` in the extremal search.
    """
    table = summary["core.min_stamp_table"]
    covers = [summary["core.cover"], summary["core.cover_profile"]]
    per_basis = summary[basis_span]["durations"]
    if not table["calls"] or not per_basis:
        raise LayerGone(f"traced run recorded no {'table builds' if per_basis else basis_span} spans")
    return {
        "core.table_builds": table["calls"],
        "core.table_entries": table["entries"],
        "core.table_s": table["self_s"],
        "core.cover_calls": sum(row["calls"] for row in covers),
        "core.cover_s": sum(row["total_s"] for row in covers),
        "core.tables_per_basis": table["calls"] / len(per_basis),
        "basis.p50_ms": percentile(per_basis, 50) * 1e3,
        "basis.p99_ms": percentile(per_basis, 99) * 1e3,
    }


def analysis_report(summary: dict[str, dict]) -> dict:
    """The analysis-layer numbers, for workloads that call ``analyze``."""
    analyze = summary["analysis.analyze"]
    if not analyze["calls"]:
        return {}
    return {
        "analysis.analyze_calls": analyze["calls"],
        "analysis.analyze_s": analyze["total_s"],
        "analysis.analyze_p50_ms": percentile(analyze["durations"], 50) * 1e3,
        "analysis.analyze_p99_ms": percentile(analyze["durations"], 99) * 1e3,
        "analysis.h0_s": summary["analysis.compute_h0"]["total_s"],
        "analysis.tables_per_basis": summary["core.min_stamp_table"]["calls"] / analyze["calls"],
    }


def _drain(iterable) -> int:
    return sum(1 for _ in iterable)


def scan_layers(k: int, ak_max: int, threads: int, out_path: str) -> dict:
    """Enumeration, serial scan, JSONL writing and pool dispatch, untraced."""
    enumerate_symmetric = need("stampcover.search", "enumerate_symmetric")
    scan_spec = need("stampcover.search", "ScanSpec")
    scan_conjecture = need("stampcover.search", "scan_conjecture")
    run_scan = need("stampcover.search", "run_scan")
    spec = scan_spec(k=k, ak_max=ak_max)

    start = time.perf_counter()
    enumerated = _drain(enumerate_symmetric(k, ak_max))
    enumerate_s = time.perf_counter() - start

    start = time.perf_counter()
    scanned = _drain(scan_conjecture(spec, threads=1))
    scan_s = time.perf_counter() - start

    start = time.perf_counter()
    run_scan(spec, out_path, threads=1)
    run_scan_s = time.perf_counter() - start
    with open(out_path, "rb") as fh:
        data = fh.read()
    os.remove(out_path)

    start = time.perf_counter()
    pooled = _drain(scan_conjecture(spec, threads=threads))
    pool_s = time.perf_counter() - start
    return {
        "search.enumerated": enumerated,
        "search.enumerate_s": enumerate_s,
        "search.scan_s": scan_s,
        "search.run_scan_s": run_scan_s,
        "search.jsonl_bytes": len(data),
        "search.jsonl_sha256": hashlib.sha256(data).hexdigest(),
        "search.pool_threads": threads,
        "search.pool_s": pool_s,
        "search.pool_speedup": scan_s / pool_s,
        "search.reports": [scanned, pooled],
    }


def extremal_layers(h: int, k: int, boxes: tuple[tuple[int, int], ...]) -> dict:
    """Box enumeration and one whole extremal search, untraced."""
    enumerate_all_bases = need("stampcover.search", "enumerate_all_bases")
    search_extremal = need("stampcover.search", "search_extremal")

    start = time.perf_counter()
    enumerated = sum(_drain(enumerate_all_bases(j, top)) for j, top in boxes)
    enumerate_s = time.perf_counter() - start

    start = time.perf_counter()
    result = search_extremal(h, k, max_candidates=1_000_000)
    extremal_s = time.perf_counter() - start
    return {
        "search.enumerated": enumerated,
        "search.enumerate_s": enumerate_s,
        "search.extremal_s": extremal_s,
        "search.extremal_result": [result.n_star, [str(b) for b in result.witnesses]],
    }
