"""Run ``stampcover.cli.main`` in this process, timed and optionally traced.

Usage: python3 bench/probe.py RESULT_JSON TRACE -- CLI_ARGS...

The package must be importable (the benchmark puts ``src`` on
PYTHONPATH).  The CLI's own stdout and stderr pass through untouched.
RESULT_JSON receives the exit code, the time spent inside ``main`` and,
with TRACE = 1, every span recorded.  Tracing rebinds module attributes
at each layer boundary to wrappers that record a span (name, start,
end, parent) in memory; spans are written out when ``main`` returns.
Only this process is traced, so traced scans must run with one thread.
If a trace point no longer exists the probe exits with TRACE_POINT_GONE
and names it, rather than report a layer that silently reads zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

TRACE_POINT_GONE = 97

# (module, attribute, span name).  The module is the one whose globals
# the caller looks the name up in, so the wrapper sees every call made
# through that binding.
TRACE_POINTS = (
    ("stampcover.core", "min_stamp_table", "core.min_stamp_table"),
    ("stampcover.analysis", "cover_profile", "core.cover_profile"),
    ("stampcover.search", "cover", "core.cover"),
    ("stampcover.analysis", "compute_h0", "analysis.compute_h0"),
    ("stampcover.search", "analyze", "analysis.analyze"),
    ("stampcover.cli", "analyze", "analysis.analyze"),
    ("stampcover.cli", "run_scan", "search.run_scan"),
    ("stampcover.cli", "search_extremal", "search.search_extremal"),
    ("stampcover.search", "search_extremal", "search.search_extremal"),
    ("stampcover.cli", "_read_basis_file", "cli.read_basis_file"),
    ("stampcover.cli", "_emit", "cli.emit"),
)

# Spans that also record how many table entries the call builds: its
# bound + 1, the bound being the second argument or this keyword.
_ENTRY_ARGS = {"core.min_stamp_table": "bound"}


class Recorder:
    """Spans kept in flat arrays so a million of them stay small."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.entries = array("q")
        self.stack: list[int] = []

    def wrap(self, label: str, fn):
        if label not in self.names:
            self.names.append(label)
        name_id = self.names.index(label)
        sized = label in _ENTRY_ARGS
        clock = time.perf_counter_ns
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            if sized:
                bound = args[1] if len(args) > 1 else kwargs[_ENTRY_ARGS[label]]
                self.entries.append(bound + 1)
            else:
                self.entries.append(0)
            self.end.append(0)
            stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()

        return traced

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "entries": self.entries.tolist(),
        }


def install(recorder: Recorder) -> None:
    """Rebind every trace point, or exit naming the first one missing."""
    targets = []
    for module_name, attr, label in TRACE_POINTS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            print(
                f"probe: trace point {module_name}.{attr} no longer exists",
                file=sys.stderr,
            )
            raise SystemExit(TRACE_POINT_GONE)
        targets.append((module, attr, label, fn))
    for module, attr, label, fn in targets:
        setattr(module, attr, recorder.wrap(label, fn))


def main(argv: list[str]) -> int:
    result_path, trace = argv[0], argv[1] == "1"
    cli_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    from stampcover import cli

    recorder = Recorder() if trace else None
    if recorder is not None:
        install(recorder)
    start = time.perf_counter_ns()
    rc = cli.main(cli_args)
    main_ns = time.perf_counter_ns() - start
    result = {"rc": rc, "main_ns": main_ns}
    if recorder is not None:
        result["spans"] = recorder.to_json()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
