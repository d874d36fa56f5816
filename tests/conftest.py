"""Shared pytest wiring: acceptance verdict lines and the k=9, top <= 40 reference scan."""

from __future__ import annotations

import pytest

from stampcover import ScanSpec, run_scan


@pytest.fixture(scope="session")
def k9_top40_scan(tmp_path_factory):
    """The bytes and summary of ``run_scan(ScanSpec(9, 40))``, run once per session.

    7,752 records; each test that needs the file writes these bytes into its
    own ``tmp_path``.
    """
    out = tmp_path_factory.mktemp("k9_top40") / "reference.jsonl"
    summary = run_scan(ScanSpec(k=9, ak_max=40), str(out))
    return out.read_bytes(), summary


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if report.passed:
        verdict = "PASS"
    elif report.failed:
        verdict = "FAIL"
    else:
        verdict = "SKIP"
    print(f"\n[acceptance] {verdict} {name}", flush=True)
