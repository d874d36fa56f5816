"""Shared pytest wiring: acceptance verdict lines, the k=9, top <= 40 reference scan,
and ``--reverse-order``, which runs the collected tests last to first."""

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


def pytest_addoption(parser):
    parser.addoption(
        "--reverse-order", action="store_true",
        help="run the collected tests last to first, so that a check which passes "
        "only after some other test has run fails",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--reverse-order"):
        items.reverse()


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
