"""Self-checks of the benchmark's own reference code, gates and tracing.

    python3 bench/selfcheck.py

Run from anywhere; exits 1 and names each failed check.  The file name
does not match pytest's ``test_*.py`` pattern on purpose: the package's
test suite does not collect it.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import itertools
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers
import oracle
import probe
import workloads
from workloads import Invocation

FAILURES = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def check_oracle() -> None:
    from stampcover.core import Basis, brute_force_cover

    for top in range(2, 13):
        for k in range(2, 5):
            for rest in itertools.combinations(range(2, top), k - 2):
                elements = (1, *rest, top)
                got = oracle.covers(elements, 4)
                want = [brute_force_cover(Basis(elements), h) for h in range(1, 5)]
                expect(got == want, f"oracle covers {elements}: {got} != {want}")
    for kind, p in (("a9", 3), ("a9", 7), ("a10", 5), ("a10", 9)):
        report = oracle.report(workloads.family_elements(kind, p))
        expect(
            (report["h0"], report["h1"], report["counterexample"]) == (p, p + 1, True),
            f"oracle on {kind}({p}): {report}",
        )
    expect(
        ",".join(map(str, workloads.family_elements("a9", 3))) == workloads.A9_P3,
        "family_elements('a9', 3) is not the basis the set-up command prints",
    )


def check_batch() -> None:
    first = workloads.batch_bases(0)
    expect(first == workloads.batch_bases(0), "batch_bases(0) is not deterministic")
    expect(first != workloads.batch_bases(1), "seeds 0 and 1 give the same batch")
    for elements, label in first:
        if ":" in label:
            p = int(label.split(":")[1])
            expect(oracle.h0_of(elements) == p, f"family {label} has h0 != p")
        elif label != "anchor":
            h0 = oracle.h0_of(elements)
            expect(h0 <= workloads.SLOT_MAX_H0, f"{label} {elements} has h0 {h0}")


def check_exit_codes() -> None:
    def inv(rc: int, stderr: str = "") -> Invocation:
        return Invocation(0.1, rc, 0, b"", stderr)

    run_failed = workloads._run_failed
    expect(run_failed(inv(5), (0, 5)) is None, "scan exit 5 counted as a failure")
    expect(run_failed(inv(4), (0, 4)) is None, "analyze exit 4 counted as a failure")
    for rc in (3, 6, 1, 2):
        expect(run_failed(inv(rc), (0, 4, 5)) is not None, f"exit {rc} counted as success")
    expect(
        run_failed(inv(0, "Traceback (most recent call last):\n"), (0,)) is not None,
        "a traceback with exit 0 counted as success",
    )


def check_trace_guard() -> None:
    saved = probe.TRACE_POINTS
    probe.TRACE_POINTS = saved + (("stampcover.core", "no_such_function", "core.gone"),)
    try:
        probe.install(probe.Recorder())
        expect(False, "install accepted a missing trace point")
    except SystemExit as exc:
        expect(exc.code == probe.TRACE_POINT_GONE, f"missing trace point exited {exc.code}")
    finally:
        probe.TRACE_POINTS = saved
    try:
        layers.need("stampcover.search", "no_such_function")
        expect(False, "need accepted a missing attribute")
    except layers.LayerGone as exc:
        expect("stampcover.search.no_such_function" in str(exc), f"LayerGone says {exc}")


def check_self_time() -> None:
    # outer [0, 100] holds children [10, 30] and [50, 90]; the second
    # holds a grandchild [60, 70]
    spans = {
        "names": ["outer", "inner"],
        "name": [0, 1, 1, 1],
        "parent": [-1, 0, 0, 2],
        "start": [0, 10, 50, 60],
        "end": [100, 30, 90, 70],
        "entries": [0, 0, 0, 0],
    }
    summary = layers.summarize(spans)
    expect(abs(summary["outer"]["self_s"] - 40e-9) < 1e-15, f"outer self {summary['outer']}")
    expect(abs(summary["inner"]["self_s"] - 60e-9) < 1e-15, f"inner self {summary['inner']}")
    expect(layers.highest_percentile(19) is None, "p50 claimed with 9 samples beyond it")
    expect(layers.highest_percentile(1000) == 99, "p99 not chosen for 1000 samples")


def main() -> int:
    for check in (check_oracle, check_batch, check_exit_codes, check_trace_guard, check_self_time):
        before = len(FAILURES)
        check()
        print(f"{check.__name__}: {'ok' if len(FAILURES) == before else 'FAILED'}")
    for failure in FAILURES:
        print(f"  {failure}", file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
