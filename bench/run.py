"""Benchmark of the stampcover CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is run from the ``src`` directory next to ``bench``, each
command in a fresh ``python -m stampcover`` process; without it the
benchmark exits 2.  Workloads: scan-sym4, extremal-h4k5, analyze-batch
(see workloads.py for what each one stresses and why).

With ``--trace 0`` the benchmark runs the workload in a closed loop,
one invocation at a time, at least three times and then for as long as
the next one can be expected to end within S seconds, and times the
set-up command (``family --kind a9 --p 3``) five times before the loop
and twice after each invocation.  Every output is checked
against reference answers.  It reports medians of wall time, bases per
second, set-up time and peak RSS (of the CLI process, from ``wait4``).
Every CLI command runs in one process (scans at ``--threads 1``): one
busy process on a shared host of few cores is what keeps its wall
time steady.

With ``--trace 1`` it runs the workload once through probe.py without
tracing (for ``cli.main_s`` and the start-up share of the wall time),
once traced (for the span-based layer metrics), and then times the
search layer's public functions in this process, the scan's process
pool among them.

Both modes print one JSON report line (machine facts, sample counts,
every layer number) and, last, the result line.  A failed gate makes
``correct`` false and the exit code 1; a layer that can no longer be
measured, or a run past RUN_BUDGET_S, exits 1 with no result line.  Pool timings use at most the
cores present; they say nothing about scaling beyond them.  All files
go to a temporary directory under ``.bench_tmp`` that is removed at
the end.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import tempfile
import time

import layers
import probe
import workloads
from workloads import Check, Invocation

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")

RUN_BUDGET_S = 170  # every run must end well within 180 s
SETUP_FIRST = 5  # set-up timings before the loop
SETUP_BETWEEN = 2  # and after each workload invocation
MIN_REPEATS = 3
MAX_THREADS = 2


class _Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise _Deadline


class Spawner:
    """Starts CLI processes one at a time and reaps each one."""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        # bytecode is compiled once per run, into the temporary directory
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(tmp, "pycache")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["NO_COLOR"] = "1"

    def run(self, args: list[str]) -> Invocation:
        self.count += 1
        stdout = os.path.join(self.tmp, f"stdout-{self.count}")
        stderr = os.path.join(self.tmp, f"stderr-{self.count}")
        write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, stdout, write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, stderr, write, 0o644),
        ]
        argv = [sys.executable, *args]
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, argv, self.env, file_actions=actions, setpgroup=0
        )
        status, usage = _reap(pid)
        wall = time.perf_counter() - start
        with open(stdout, "rb") as fh:
            out = fh.read()
        with open(stderr, encoding="utf-8", errors="replace") as fh:
            err = fh.read()
        os.remove(stdout)
        os.remove(stderr)
        return Invocation(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, out, err)

    def cli(self, cli_args: list[str]) -> Invocation:
        return self.run(["-m", "stampcover", *cli_args])


def _reap(pid: int):
    """wait4 the child; if the run's deadline passes, kill its group first."""
    try:
        _, status, usage = os.wait4(pid, 0)
    except _Deadline:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.wait4(pid, 0)
        raise
    return status, usage


def _git_rev() -> str:
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def machine_facts(threads: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_rev": _git_rev(),
        "pool_threads": threads,
        "note": "pool numbers use at most the cores present; "
        "do not extrapolate scaling beyond them",
    }


# ---------- timed run ----------


def timed_run(wl, spawner: Spawner, seconds: int) -> tuple[dict, dict, list[Check]]:
    checks = []
    setup = []

    def time_setup() -> None:
        inv = spawner.cli(workloads.SETUP_ARGV)
        setup.append(inv.wall_s)
        checks.append(workloads.check_setup(inv))

    # warm-up: compiles the bytecode every later invocation reuses
    checks.append(workloads.check_setup(spawner.cli(workloads.SETUP_ARGV)))
    for _ in range(SETUP_FIRST):
        time_setup()
    walls, rss = [], []
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        inv = spawner.cli(wl.argv())
        walls.append(inv.wall_s)
        rss.append(inv.maxrss_kb / 1024)
        checks.append(wl.check(inv))
        # set-up samples spread over the run see the same machine load
        for _ in range(SETUP_BETWEEN):
            time_setup()
        # stop before a cycle like this one would end past the window
        now = time.perf_counter()
        if len(walls) >= MIN_REPEATS and now - start + (now - cycle) > seconds:
            break
    rates = [wl.size / w for w in walls]
    metrics = {
        "wall_s": statistics.median(walls),
        "bases_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    report = {
        "wall_s": layers.timing(walls),
        "bases_per_s": layers.timing(rates) | {"bases_per_invocation": wl.size},
        "setup_s": layers.timing(setup),
        "peak_rss_mb": layers.timing(rss) | {"max": max(rss)},
        "loop": "closed, one client: the next invocation starts when one ends",
    }
    return metrics, report, checks


# ---------- traced run ----------


def _probe(spawner: Spawner, cli_args: list[str], trace: bool) -> tuple[Invocation, dict]:
    result_path = os.path.join(spawner.tmp, f"probe-{spawner.count + 1}.json")
    script = os.path.join(BENCH, "probe.py")
    inv = spawner.run([script, result_path, "1" if trace else "0", "--", *cli_args])
    if inv.rc == probe.TRACE_POINT_GONE:
        raise layers.LayerGone(inv.stderr.strip().splitlines()[-1])
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
    except (OSError, ValueError):
        result = {}
    return inv, result


def traced_run(wl, spawner: Spawner) -> tuple[dict, dict, list[Check]]:
    # warm-up: compiles the bytecode every later invocation reuses
    checks = [workloads.check_setup(spawner.cli(workloads.SETUP_ARGV))]
    plain, plain_result = _probe(spawner, wl.argv(), trace=False)
    checks.append(wl.check(plain))
    traced, traced_result = _probe(spawner, wl.argv(), trace=True)
    checks.append(wl.check(traced))
    if "spans" not in traced_result or "main_ns" not in plain_result:
        raise layers.LayerGone(f"probe wrote no result: {traced.stderr.strip()[-300:]}")
    summary = layers.summarize(traced_result["spans"])
    main_s = plain_result["main_ns"] / 1e9
    metrics = layers.span_metrics(summary, wl.basis_span) | {
        "cli.main_s": main_s,
        "cli.startup_s": plain.wall_s - main_s,
        "trace_overhead_frac": traced.wall_s / plain.wall_s - 1,
    }
    search_report, search_check = wl.layers()
    checks.append(search_check)
    derived = {
        "cli.startup_s": "untraced wall_s - cli.main_s, one invocation",
        "core.tables_per_basis": f"core.table_builds / {wl.basis_span} calls",
        "basis.p50_ms": f"{wl.basis_span} span durations",
    }
    if "search.run_scan_s" in search_report:
        # run_scan minus the analyses inside the same call: a difference
        # of two separate calls drowns the writer in run-to-run drift
        search_report["search.write_s"] = summary["search.run_scan"]["self_s"]
        derived["search.write_s"] = "self time of the traced run_scan span"
    report = {
        "spans": {
            name: {key: row[key] for key in ("calls", "total_s", "self_s", "entries")}
            for name, row in summary.items()
        },
        "wall_s": {"untraced": plain.wall_s, "traced": traced.wall_s},
        "derived": derived,
        **layers.analysis_report(summary),
        **search_report,
    }
    return metrics, report, checks


# ---------- main ----------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stampcover", "__init__.py")):
        print(f"bench: no stampcover package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    threads = max(1, min(MAX_THREADS, os.cpu_count() or 1))
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, RUN_BUDGET_S)
    try:
        spawner = Spawner(tmp)
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp, threads)
        if args.trace:
            metrics, report, checks = traced_run(wl, spawner)
        else:
            metrics, report, checks = timed_run(wl, spawner, args.seconds)
    except layers.LayerGone as exc:
        print(f"bench: cannot measure a layer: {exc}", file=sys.stderr)
        return 1
    except _Deadline:
        print(f"bench: run exceeded its {RUN_BUDGET_S} s budget", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass  # another run is still using it
    attempted = sum(c.ops for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [p for c in checks for p in c.problems]
    for problem in problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    correct = not problems
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_facts(threads),
        "failed_frac": failed / attempted if attempted else 1.0,
        **report,
    }
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        print(f"bench: measured {sorted(metrics)}, declared {sorted(declared)}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0 if correct and not failed else 1


def _declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
