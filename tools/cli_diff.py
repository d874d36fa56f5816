"""Run one fixed list of CLI cases against two ``src`` trees and report each difference.

Every case is one ``python -m stampcover`` command, run once with each
tree on ``PYTHONPATH``.  A case differs when its stdout, stderr, exit
code or ``--out`` bytes differ between the trees.  The cases are:

- the ``GOLDEN`` commands of ``tests/test_cli.py``, with its ``BASES`` file;
- the ``ERRORS`` commands: refusals and invalid input, each well under a
  second, two of them on the ``BAD_FILES`` basis files;
- the ``PROFILES`` commands: a 100,000-row profile in each JSON format;
- ``analyze --basis-file`` on the analyze-batch files of seeds 1..N
  (``bench/workloads.batch_bases``);
- serial scans of the boxes (9,40), (5,25, --mode all), (4,280), (7,60)
  and (10,50).

The case list and its input files come from this checkout; only the
package under test changes.  It prints one line per differing case and
a count, and exits 1 when any case differs.  Stdlib only; run from
anywhere as

    python3 tools/cli_diff.py OLD_SRC NEW_SRC [--seeds 30]

``python3 tools/cli_diff.py src src --seeds 2`` runs the tree against
itself.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANS = [(9, 40, "symmetric"), (5, 25, "all"), (4, 280, "symmetric"), (7, 60, "symmetric"),
         (10, 50, "symmetric")]
BAD_FILES = {"NONPOSITIVE": "1,3\n1,3,0\n", "WIDE": "1,2\n1,18446744073709551616\n"}
ERRORS = [
    "analyze --basis 1,3,4999999,5000000",
    "analyze --basis 1,3,4999999,5000000 --cap 5",
    "cover --basis 1,9223372036854775808 --h 2",
    "analyze --basis 1,3,0",
    "extremal --h 2 --k 1100",
    "extremal --h 3000 --k 2",
    "analyze --basis-file NONPOSITIVE",
    "cover --basis-file WIDE --h 2",
]
PROFILES = [
    "cover --basis 1,2 --h 100000 --profile --format json",
    "cover --basis 1,2 --h 100000 --profile --format jsonl",
]


def _golden() -> tuple[str, list[str]]:
    """``GOLDEN_BASES`` and each ``GOLDEN`` command, read off the test module."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    found = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("GOLDEN", "GOLDEN_BASES")
    }
    return found["GOLDEN_BASES"], [args for args, _, _ in found["GOLDEN"]]


def _cases(tmp: pathlib.Path, seeds: int) -> list[list[str]]:
    """The argument list of every case, its input files written under ``tmp``."""
    bases, golden = _golden()
    files = {"BASES": bases, **BAD_FILES}
    for name, text in files.items():
        (tmp / f"{name}.txt").write_text(text, encoding="utf-8")
    cases = [
        [str(tmp / f"{arg}.txt") if arg in files else arg for arg in args.split()]
        for args in golden + ERRORS + PROFILES
    ]
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import batch_bases

    for seed in range(1, seeds + 1):
        path = tmp / f"batch-{seed}.txt"
        lines = [",".join(map(str, elements)) + "\n" for elements, _ in batch_bases(seed)]
        path.write_text("".join(lines), encoding="utf-8")
        cases.append(["analyze", "--basis-file", str(path)])
    for k, ak_max, mode in SCANS:
        cases.append([
            "scan", "--k", str(k), "--ak-max", str(ak_max), "--mode", mode,
            "--threads", "1", "--out", str(tmp / "scan.jsonl"),
        ])
    return cases


def _run(src: str, argv: list[str], tmp: pathlib.Path) -> tuple[bytes, bytes, int, bytes | None]:
    """(stdout, stderr, exit code, ``--out`` bytes or None) of one case on one tree."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=str(tmp / "pycache"))
    env["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal
    env.pop("NO_COLOR", None)
    done = subprocess.run(
        [sys.executable, "-m", "stampcover", *argv],
        env=env, cwd=tmp, stdin=subprocess.DEVNULL, capture_output=True,
    )
    out = pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    data = out.read_bytes() if out and out.exists() else None
    if out:
        out.unlink(missing_ok=True)
    return done.stdout, done.stderr, done.returncode, data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the src directory of one tree")
    parser.add_argument("new", help="the src directory of the other")
    parser.add_argument(
        "--seeds", type=int, default=30, help="analyze-batch seeds 1..N (default: 30)"
    )
    args = parser.parse_args(argv)
    trees = [str(pathlib.Path(src).resolve()) for src in (args.old, args.new)]
    for src in trees:
        if not (pathlib.Path(src) / "stampcover" / "__main__.py").is_file():
            parser.error(f"{src} holds no stampcover package")
    parts = ("stdout", "stderr", "exit code", "--out bytes")
    differ = 0
    with tempfile.TemporaryDirectory() as name:
        tmp = pathlib.Path(name)
        cases = _cases(tmp, args.seeds)
        for case in cases:
            old, new = (_run(src, case, tmp) for src in trees)
            diffs = [part for part, a, b in zip(parts, old, new) if a != b]
            if diffs:
                differ += 1
                print(f"DIFF {' '.join(case)}: {', '.join(diffs)} (exit {old[2]} -> {new[2]})")
    print(f"{len(cases)} cases, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
