"""Run one fixed list of CLI cases against two ``src`` trees and report each difference.

Every case is one ``python -m stampcover`` command, run once with each
tree on ``PYTHONPATH``.  A case differs when its stdout, stderr, exit
code or ``--out`` bytes differ between the trees.  The cases are:

- the ``GOLDEN`` commands of ``tests/test_cli.py``, with its ``BASES`` file;
- the ``ERRORS`` commands: refusals and invalid input, each within about
  1.5 s (a cap given on a 5 * 10^6 top waits for its h0 table), two of
  them on the ``BAD_FILES`` basis files;
- the ``PROFILES`` commands: a 100,000-row profile in each JSON format;
- the ``EDGES`` commands, at the edge of a size rule: a paired basis and
  an unpaired one at h = 10^7, an extremal search 1,200 slots deep,
  two paired bases whose ``analyze`` sweep the reflection ceiling sigma*
  cuts: one with sigma* = h0 = 122, which sweeps no budget, and one
  swept to sigma* = 5, below its cap 6; the one-element basis {1}
  at h = 2 * 10^7, as a cover and as an extremal box, which sweep one
  budget; a non-symmetric paired basis with h0 = 3334 at caps
  3333 (invalid) and 3334 (a sweep refused by its size); and two
  budget-1 covers certified on a table over a run of elements: the
  extremal box (1, 20000) and a basis whose head run 1..10 ends in a gap;
- ``analyze --basis-file`` on the analyze-batch files of seeds 1..N
  (``bench/workloads.batch_bases``);
- serial scans of the boxes (9,40), (5,25, --mode all), (4,280), (7,60)
  and (10,50), and of the symmetric boxes (9,41), (8,41), (3,13), (2,9)
  and (1,5), whose odd ``--ak-max`` takes each branch of the symmetric
  enumerator: odd and even k, and k = 1 and 2;
- the ``POOLED`` scans (9,40) and (5,25, --mode all) again, at
  ``--threads 2``, so that the pool's bytes are compared too.

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
         (10, 50, "symmetric"), (9, 41, "symmetric"), (8, 41, "symmetric"),
         (3, 13, "symmetric"), (2, 9, "symmetric"), (1, 5, "symmetric")]
POOLED = SCANS[:2]  # scanned again on a pool of two workers
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
EDGES = [
    "cover --basis 1,2 --h 10000000",
    "cover --basis 1,3 --h 10000000",
    "extremal --h 1 --k 1200",
    "analyze --basis 1,123,166,167",
    "analyze --basis 1,2,7,8 --cap 6",
    "cover --basis 1 --h 20000000",
    "extremal --h 20000000 --k 1",
    "analyze --basis 1,3,9999,10000 --cap 3333",
    "analyze --basis 1,3,9999,10000 --cap 3334",
    "extremal --h 1 --k 20000",
    "cover --basis 1,2,3,4,5,6,7,8,9,10,40 --h 1",
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
        for args in golden + ERRORS + PROFILES + EDGES
    ]
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import batch_bases

    for seed in range(1, seeds + 1):
        path = tmp / f"batch-{seed}.txt"
        lines = [",".join(map(str, elements)) + "\n" for elements, _ in batch_bases(seed)]
        path.write_text("".join(lines), encoding="utf-8")
        cases.append(["analyze", "--basis-file", str(path)])
    for threads, boxes in [("1", SCANS), ("2", POOLED)]:
        for k, ak_max, mode in boxes:
            cases.append([
                "scan", "--k", str(k), "--ak-max", str(ak_max), "--mode", mode,
                "--threads", threads, "--out", str(tmp / "scan.jsonl"),
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
