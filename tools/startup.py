"""Time interpreter start-up against a short stampcover command.

Each round runs, in a rotating order, ``python -c pass`` and
``python -m stampcover family --kind a9 --p 3``, each with and without
``-S`` (which skips ``site`` and the ``.pth`` files it runs).  Every
command is started as ``bench/run.py`` starts the CLI: by
``posix_spawn``, with ``PYTHONPATH=src``, bytecode compiled once into a
temporary ``PYTHONPYCACHEPREFIX``, and ``PYTHONDONTWRITEBYTECODE``
dropped.  It prints the median and quartiles of each command's wall
time, and the family command's cost over ``pass`` with and without
``-S``.  Stdlib only; run from anywhere as

    python3 tools/startup.py [--rounds 21]
"""

from __future__ import annotations

import argparse
import os
import pathlib
import platform
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
FAMILY = ["-m", "stampcover", "family", "--kind", "a9", "--p", "3"]
FAMILY_OUT = b'"basis": "1,3,5,8,20,23,25,27,28"'
COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "python -m stampcover family": FAMILY,
    "python -S -c pass": ["-S", "-c", "pass"],
    "python -S -m stampcover family": ["-S", *FAMILY],
}


def _spawn(args: list[str], env: dict, stdout: str) -> float:
    """Wall time of one ``python ARGS``; raises unless it exits 0."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    argv = [sys.executable, *args]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status = os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"startup: python {' '.join(args)} exited {code}")
    return wall


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:7.1f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--rounds", type=int, default=21, help="interleaved rounds (at least 2)"
    )
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        env["PYTHONPYCACHEPREFIX"] = os.path.join(tmp, "pycache")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        stdout = os.path.join(tmp, "stdout")
        # warm-up: compiles the bytecode every timed run reuses
        for name, cmd in COMMANDS.items():
            _spawn(cmd, env, stdout)
            if "family" in name and FAMILY_OUT not in pathlib.Path(stdout).read_bytes():
                raise SystemExit(f"startup: {name} printed the wrong basis")
        names = list(COMMANDS)
        walls: dict[str, list[float]] = {name: [] for name in names}
        for r in range(args.rounds):
            for name in names[r % len(names):] + names[: r % len(names)]:
                walls[name].append(_spawn(COMMANDS[name], env, os.devnull))
    print(
        f"{args.rounds} interleaved rounds; CPython {platform.python_version()}, "
        f"{os.cpu_count()} CPUs, {platform.machine()}"
    )
    print(f"{'command':<32}{'median':>8}{'q1':>8}{'q3':>8}  (ms)")
    medians = {}
    for name in names:
        q1, medians[name], q3 = statistics.quantiles(
            walls[name], n=4, method="inclusive"
        )
        print(f"{name:<32}{_ms(medians[name]):>8}{_ms(q1):>8}{_ms(q3):>8}")
    for flag, label in (("", "with site"), (" -S", "with -S")):
        family, bare = f"python{flag} -m stampcover family", f"python{flag} -c pass"
        gap = medians[family] - medians[bare]
        print(f"family - pass, {label}: {_ms(gap).strip()} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
