"""Command-line surface: covers, reports, families, scans, extremal search.

Exit codes: 0 success, 1 a scan worker died, 2 invalid input, 3 a
64-bit or table limit was exceeded, 4 no saturating budget within the
cap, 5 a scan found counterexamples, 6 a search box was refused as too
large, 130 interrupted, 141 stdout was closed before the answer was
written.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator

from .analysis import DEFAULT_H1_CAP, analyze
from .core import Basis, _check_size, _integer, cover, cover_profile, parse_basis
from .errors import (
    BadParameterError,
    InvalidBasisError,
    OverflowLimitError,
    StampError,
    TooLargeError,
    WorkerDiedError,
)
from .families import family_a5, family_a9, family_a10
from .search import (
    DEFAULT_EXTREMAL_CEILING,
    ScanSpec,
    run_scan,
    search_extremal,
)

EXIT_OK = 0
EXIT_WORKER_DIED = 1
EXIT_INVALID = 2
EXIT_OVERFLOW = 3
EXIT_NO_H1 = 4
EXIT_COUNTEREXAMPLE = 5
EXIT_TOO_LARGE = 6
EXIT_INTERRUPTED = 130  # the shell's code for a run stopped by SIGINT
EXIT_STDOUT_CLOSED = 141  # the shell's code for a writer stopped by SIGPIPE

_FAMILIES = {"a5": family_a5, "a9": family_a9, "a10": family_a10}
_BASIS_FILE_NOTE = "; --basis-file always writes JSONL and ignores it"


# ---------- rendering ----------


class _Streamed(list):
    """A JSON array whose items are made as the encoder reads them.

    It holds only the first, so that the encoder sees it nonempty, and
    yields the rest from ``__iter__``, which ``iterencode`` reads.
    """

    def __init__(self, items: Iterable) -> None:
        self._rest = iter(items)
        super().__init__(itertools.islice(self._rest, 1))

    def __iter__(self) -> Iterator:
        return itertools.chain(list.__iter__(self), self._rest)


def _emit(payload: dict, fmt: str, lines: Iterable[str]) -> None:
    """Print one answer: its table ``lines``, or the JSON of ``payload``.

    Every command answer reaches stdout here and nowhere else, as it is
    made: a payload value may be a generator (a profile's rows, which can
    be long), read once.  Both forms print at most 1,024 lines or JSON
    chunks at a time, so neither holds a long answer nor makes one write
    per chunk (each is a system call when Python runs unbuffered).
    """
    if fmt == "table":
        chunks = (f"{line}\n" for line in lines)
    else:
        style = {"indent": 2} if fmt == "json" else {"separators": (",", ":")}
        encoder = json.JSONEncoder(**style, default=_Streamed)
        chunks = itertools.chain(encoder.iterencode(payload), "\n")
    for batch in iter(lambda: "".join(itertools.islice(chunks, 1024)), ""):
        print(batch, end="")  # print writes nothing when started without an fd 1


def _profile_lines(payload: dict) -> Iterable[str]:
    yield f"basis = {payload['basis']}"
    for row in payload["rows"]:
        mark = "  saturated" if row["saturated"] else ""
        yield f"h={row['h']} cover={row['cover']}{mark}"


def _report_lines(payload: dict, cap: int, colour: bool) -> Iterable[str]:
    width = max(len(key) for key in payload)
    for key, value in payload.items():
        if key == "h1" and value is None:
            text = f"not found within cap {cap}"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = str(value)
        if key == "counterexample" and value and colour:
            text = f"\x1b[1;31m{text}\x1b[0m"
        yield f"{key:<{width}} = {text}"


def _extremal_lines(payload: dict) -> Iterable[str]:
    yield (
        f"n_star = {payload['n_star']}  "
        f"(h={payload['h']}, k={payload['k']}, top <= {payload['ak_ceiling']})"
    )
    for basis in payload["witnesses"]:
        yield f"  {basis}"


# ---------- input ----------


def _at(where: str, work: Callable, *args: object):
    """``work(*args)``, whose refusal or invalid input names ``where`` first."""
    try:
        return work(*args)
    except (StampError, ValueError) as exc:
        raise type(exc)(f"{where}{exc}") from None


def _read_basis_file(path: str) -> list[tuple[str, Basis]]:
    """Each basis of the file with the ``path:lineno: `` that names it.

    A byte that is not UTF-8 stays in its line as a lone surrogate, so
    ``parse_basis`` refuses it there as a token that is not an integer.
    """
    bases = []
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                where = f"{path}:{lineno}: "
                bases.append((where, _at(where, parse_basis, line)))
    if not bases:
        raise InvalidBasisError(f"{path}: no bases found")
    return bases


def _inputs(args: argparse.Namespace) -> list[tuple[str, Basis]]:
    """The bases of --basis/--basis-file, validated up front, each with
    the prefix that names it in an error (empty for --basis)."""
    if args.basis_file:
        return _read_basis_file(args.basis_file)
    return [("", parse_basis(args.basis))]


# ---------- commands ----------


def _cmd_cover(args: argparse.Namespace) -> int:
    for where, basis in _inputs(args):
        if args.profile:
            profile = _at(where, cover_profile, basis, args.h)
            _at(where, _check_size, args.h, "cover profile", "rows")  # a paired sweep is not sized by h
            first = profile.saturated_at or args.h + 1
            rows = (
                {"h": h, "cover": profile.cover(h), "saturated": h >= first}
                for h in range(1, args.h + 1)
            )
            payload = {"basis": str(basis), "h_max": args.h, "rows": rows}
            _emit(payload, args.format, _profile_lines(payload))
        else:
            n = _at(where, cover, basis, args.h)
            payload = {"basis": str(basis), "h": args.h, "cover": n}
            _emit(payload, args.format, [str(n)])
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    missing = 0
    for where, basis in _inputs(args):
        report = _at(where, analyze, basis, args.cap)
        missing += report.h1 is None
        payload = report.to_json_dict()
        _emit(payload, args.format, _report_lines(payload, report.h1_cap, args.colour))
    return EXIT_NO_H1 if missing else EXIT_OK


def _cmd_family(args: argparse.Namespace) -> int:
    basis = _FAMILIES[args.kind](args.p)
    payload = {"kind": args.kind, "p": args.p, "basis": str(basis), "k": basis.k}
    _emit(payload, args.format, [payload["basis"]])
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    spec = ScanSpec(k=args.k, ak_max=args.ak_max, mode=args.mode)
    summary = run_scan(spec, args.out, resume=args.resume, threads=args.threads)
    # the verdict only speaks for the scanned box, so name the box with it
    print(
        f"scanned={summary.scanned} counterexamples={summary.counterexamples} "
        f"k={spec.k} ak_max={spec.ak_max} mode={spec.mode}",
        file=sys.stderr,
    )
    return EXIT_COUNTEREXAMPLE if summary.counterexamples else EXIT_OK


def _cmd_extremal(args: argparse.Namespace) -> int:
    result = search_extremal(
        args.h, args.k, args.ak_ceiling, max_candidates=args.max_candidates
    )
    payload = {**result._asdict(), "witnesses": [str(basis) for basis in result.witnesses]}
    _emit(payload, args.format, _extremal_lines(payload))
    return EXIT_OK


# ---------- parser ----------


def _positive_int(text: str) -> int:
    try:
        value = _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_basis_arguments(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--basis", help="comma-separated denominations, e.g. 1,3,5")
    group.add_argument(
        "--basis-file",
        help="file with one basis per line (# comments and blank lines ignored);"
        " output becomes JSONL, one line per basis",
    )


def _add_format_argument(sub: argparse.ArgumentParser, note: str = "") -> None:
    sub.add_argument(
        "--format",
        choices=("table", "json", "jsonl"),
        default=None,
        help=f"output format (default: table on a terminal, json otherwise{note})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stampcover",
        description="Covers, admissibility thresholds, and desk-scale scans "
        "for additive stamp bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cover = sub.add_parser(
        "cover", help="largest n with 1..n all reachable by at most h stamps"
    )
    _add_basis_arguments(p_cover)
    p_cover.add_argument("--h", type=_positive_int, required=True, help="stamp budget")
    p_cover.add_argument(
        "--profile",
        action="store_true",
        help="report covers for every budget 1..h, not just h",
    )
    _add_format_argument(p_cover, _BASIS_FILE_NOTE)
    p_cover.set_defaults(func=_cmd_cover)

    p_analyze = sub.add_parser(
        "analyze", help="symmetry, h0, h1, and conjecture verdict for a basis"
    )
    _add_basis_arguments(p_analyze)
    p_analyze.add_argument(
        "--cap",
        type=_positive_int,
        default=None,
        help="largest budget tried for h1 (default: the proven window if "
        f"symmetric, else max({DEFAULT_H1_CAP}, h0))",
    )
    _add_format_argument(p_analyze, _BASIS_FILE_NOTE)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_family = sub.add_parser("family", help="construct a parametric family member")
    p_family.add_argument(
        "--kind", choices=sorted(_FAMILIES), required=True, help="family name"
    )
    p_family.add_argument(
        "--p", type=_positive_int, required=True, help="family parameter (odd)"
    )
    _add_format_argument(p_family)
    p_family.set_defaults(func=_cmd_family)

    p_scan = sub.add_parser(
        "scan", help="check the conjecture across a whole box of bases"
    )
    p_scan.add_argument("--k", type=_positive_int, required=True, help="basis size")
    p_scan.add_argument(
        "--ak-max", type=_positive_int, required=True, help="largest allowed top element"
    )
    p_scan.add_argument(
        "--mode",
        choices=("symmetric", "all"),
        default="symmetric",
        help="which bases to enumerate (default: symmetric)",
    )
    p_scan.add_argument("--out", required=True, help="JSONL output path")
    p_scan.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted scan instead of restarting it",
    )
    p_scan.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="worker processes, at most one per CPU (default: 1, no pool)",
    )
    p_scan.set_defaults(func=_cmd_scan)

    p_extremal = sub.add_parser(
        "extremal", help="maximise the cover over all bases of a given size"
    )
    p_extremal.add_argument("--h", type=_positive_int, required=True, help="stamp budget")
    p_extremal.add_argument("--k", type=_positive_int, required=True, help="basis size")
    p_extremal.add_argument(
        "--ak-ceiling",
        type=_positive_int,
        default=None,
        help="largest top element to try (default: derived sound ceiling)",
    )
    p_extremal.add_argument(
        "--max-candidates",
        type=_positive_int,
        default=DEFAULT_EXTREMAL_CEILING,
        help="refuse the search past this many visited prefixes",
    )
    _add_format_argument(p_extremal)
    p_extremal.set_defaults(func=_cmd_extremal)

    return parser


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the one look at stdout; a command started without an fd 1 has None
    stdout = sys.stdout
    tty = stdout is not None and stdout.isatty()
    if getattr(args, "basis_file", None):
        args.format = "jsonl"  # whatever --format says
    elif hasattr(args, "format") and not args.format:
        args.format = "table" if tty else "json"
    args.colour = tty and not os.environ.get("NO_COLOR")
    try:
        status = args.func(args)
        if stdout is not None:
            stdout.flush()  # a reader that is gone must fail here, not at shutdown
        return status
    except BrokenPipeError:
        # the reader is gone, which is not invalid input; point fd 1 at
        # devnull so that the interpreter's final flush cannot fail again
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), stdout.fileno())
        return EXIT_STDOUT_CLOSED
    except (InvalidBasisError, BadParameterError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_INVALID)
    except OverflowLimitError as exc:
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_OVERFLOW)
    except TooLargeError as exc:
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_TOO_LARGE)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    except KeyboardInterrupt:
        hint = " (rerun with --resume)" if args.command == "scan" else ""
        return _fail(f"interrupted{hint}", EXIT_INTERRUPTED)
    except WorkerDiedError:
        return _fail("a scan worker died (rerun with --resume)", EXIT_WORKER_DIED)


def entry() -> None:
    status = main()
    # Shutdown's collections would walk every object still alive only to
    # free memory the OS takes back anyway; freezing puts them out of reach.
    # After main, so that scan pool workers fork from an unchanged heap.
    gc.freeze()
    raise SystemExit(status)
