"""Check that tier-1 catches a wrong engine: apply one-line mutants and run it.

Each mutant replaces one exact text of one file under ``src/`` (it must
occur there exactly once) in a copy of ``src/``, ``tests/`` and
``pyproject.toml`` in a temporary directory, and runs
``python -m pytest -x -q`` there.  A mutant is killed when the run
fails or times out, and survives when it passes.  The unmutated copy
runs first and must pass; its time, times 5, plus 30 s, bounds each
mutant's run.  Bytecode is not written, so no mutant can load another's.

``MUTANTS`` must all be killed.  ``EQUIVALENT`` holds mutants that change
no answer, each with its proof; they must all survive, since a test that
kills one asserts more than the program promises (or the proof is
wrong).  It prints one line per mutant with the first failing test of
each killed one, and exits 1 unless every mutant does as its list says.
Stdlib only; run from anywhere as

    python3 tools/mutate.py
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

CORE = "src/stampcover/core.py"
ANALYSIS = "src/stampcover/analysis.py"
SEARCH = "src/stampcover/search.py"

# (file, old text, new text, what the mutant breaks)
MUTANTS = [
    (ANALYSIS, "default=2) - 2", "default=2) - 3",
     "the reflection ceiling sigma* read as sigma* - 3, one below the proof's"),
    (ANALYSIS, "h1 = h0 if ceiling <= h0 else", "h1 = h0 if ceiling <= h0 + 1 else",
     "analyze takes h1 = h0 with no sweep when sigma* = h0 + 1"),
    (ANALYSIS, "if h1 is None and ceiling <= cap:", "if False:",
     "analyze's proven-ceiling assertion disabled"),
    (ANALYSIS, "bound = max(h0, 2 * h0 - 2)", "bound = max(h0, 2 * h0 - 1)",
     "the reported theorem window max(h0, 2*h0 - 2) widened by one"),
    (CORE, "max(1, top - 2)) if paired", "max(1, top - 3)) if paired",
     "a paired sweep sized and run to top - 3, one budget short"),
    (CORE, "grown = pair | (pair if paired else reach) << last", "grown = pair | reach << last",
     "a paired sweep that shifts top - 1 but not the top of its pair"),
    (CORE, "        if n == h * top:\n", "        if n >= h * top - 2:\n",
     "the sweep reads a cover two below h * top as saturated (one below cannot "
     "occur, since h copies of top reach h * top)"),
    (CORE, "        if window == low:\n", "        if False:\n",
     "the sweep never reads past its low 2 * top + 2 bits"),
    (CORE, "    if len(covers) == budget < h_max:\n"
           "        raise AssertionError(f\"{basis} does not saturate by its proven ceiling {budget}\")\n",
     "", "cover_profile's proven-ceiling assertion deleted"),
    (CORE, "if max(stamps[:-1]) > g or stamps[-1] <= g:", "if max(stamps[:-1]) > g:",
     "the cover certificate no longer checks that n + 1 needs more than g stamps"),
    (CORE, "            for step in steps:\n", "            for step in steps[1:]:\n",
     "the min-stamp table skips the smallest element above 1"),
    (CORE, "reversed(elements[:-1])) + elements[-1:]", "reversed(elements[1:])) + elements[-1:]",
     "the dual read one place off: deficits of a_2..top, not of 1..a_{k-1}"),
    (CORE, "    if size > limit:\n", "    if size >= limit:\n",
     "every size refusal made strict at its limit"),
    (SEARCH, "                if visits > max_candidates:\n",
     "                if visits >= max_candidates:\n",
     "the extremal prefix budget made strict at its limit"),
    (SEARCH, "cap = n + 1 if ak_ceiling is None else min(n + 1,",
     "cap = n if ak_ceiling is None else min(n,",
     "extremal children capped at the prefix's cover n, not n + 1"),
    (SEARCH, "        ak_ceiling = head_cover + 1\n", "        ak_ceiling = head_cover + 2\n",
     "the derived extremal ceiling raised by one"),
    (SEARCH, "child.append(level | child[-1] << nxt)", "child.append(level | child[-1])",
     "an extremal prefix whose reach levels never add its new element"),
    (SEARCH, "last = level | last << nxt", "last = level | last",
     "an extremal leaf whose last element is never added"),
    (SEARCH, "if slots == 2 and n > head_cover:", "if slots == 3 and n > head_cover:",
     "the derived extremal ceiling read off (k - 2)-prefixes"),
    (SEARCH, "            if obj[\"summary\"] != ScanSummary(scanned, counterexamples)._asdict():\n",
     "            if False:\n",
     "a resume accepts a finished file whose summary disagrees with its records"),
    (SEARCH, 'if line.endswith(b"\\n") else None', "if line else None",
     "a resume reads a line cut just before its newline as a complete record"),
    (SEARCH, "ak_max + 1, 2 - odd)", "ak_max, 2 - odd)",
     "the symmetric enumeration misses the bases whose top is ak_max"),
    (SEARCH, "ak_max + 1, 2 - odd)", "ak_max + 1, 1)",
     "the symmetric enumeration steps tops by 1 for even k, so it yields odd tops there"),
    (SEARCH, "    if k < 3:\n", "    if k < 2:\n",
     "the symmetric enumeration sends k = 2 through the low-part loop"),
]

# (file, old text, new text, proof that no answer changes)
EQUIVALENT = [
    (CORE, "drop = n + 1 - top - base", "drop = n + 2 - top - base",
     "the window may drop one more bit: the extra value v = n + 1 - top is at "
     "most n, so it is reachable already; its extensions by one element are at "
     "most n + 1, those at most n are reachable anyway, and n + 1 is reached "
     "from the kept bit n by the element 1 (top >= 2 here, since {1} saturates "
     "at budget 1 before any drop)"),
]

_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _pytest(tree: pathlib.Path, timeout: float | None) -> tuple[bool, str]:
    """(passed, first failing test or why the run was cut) of tier-1 on ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            argv, cwd=tree, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {timeout:.0f} s"
    if done.returncode == 0:
        return True, ""
    found = _FIRST_FAILURE.search(done.stdout)
    return False, found.group(1) if found else f"pytest exited {done.returncode}"


def main() -> int:
    cases = [(m, False) for m in MUTANTS] + [(m, True) for m in EQUIVALENT]
    originals = {}
    for (path, old, _, _), _ in cases:
        text = originals.setdefault(path, (ROOT / path).read_text(encoding="utf-8"))
        if text.count(old) != 1:
            print(f"mutate: {old!r} occurs {text.count(old)} times in {path}, not once")
            return 2
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory() as name:
        tree = pathlib.Path(name)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        start = time.perf_counter()
        passed, why = _pytest(tree, None)
        if not passed:
            print(f"mutate: the unmutated tests fail ({why})")
            return 2
        timeout = 5 * (time.perf_counter() - start) + 30
        wrong = 0
        for number, ((path, old, new, reason), equivalent) in enumerate(cases, 1):
            target = tree / path
            target.write_text(originals[path].replace(old, new), encoding="utf-8")
            try:
                survived, why = _pytest(tree, timeout)
            finally:
                target.write_text(originals[path], encoding="utf-8")
            wrong += survived != equivalent
            verdict = "survived" if survived else "killed"
            what = f"{old.strip()} -> {new.strip()} (equivalent)" if equivalent else reason
            print(f"{number:2} {verdict:8} {path}: {what}", flush=True)
            if why:
                print(f"   by {why}", flush=True)
    print(f"{len(cases)} mutants, {wrong} not as listed")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
