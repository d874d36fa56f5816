"""Command-line surface: covers, reports, families, scans, extremal search.

Exit codes: 0 success, 1 a scan worker died, 2 invalid input, 3 a
64-bit or table limit was exceeded, 4 no saturating budget within the
cap, 5 a scan found counterexamples, 6 a search box was refused as too
large, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable
from functools import partial

from .analysis import DEFAULT_H1_CAP, analyze
from .core import Basis, cover, cover_profile, parse_basis
from .errors import (
    BadParameterError,
    InvalidBasisError,
    OverflowLimitError,
    TooLargeError,
    WorkerDiedError,
)
from .families import family_a5, family_a9, family_a10
from .search import (
    DEFAULT_EXTREMAL_CEILING,
    ScanSpec,
    _dumps,
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

_FAMILIES = {"a5": family_a5, "a9": family_a9, "a10": family_a10}
_BASIS_FILE_NOTE = "; --basis-file always writes JSONL and ignores it"
_CAP_DEFAULT = f"the proven window if symmetric, else max({DEFAULT_H1_CAP}, h0)"


# ---------- rendering ----------


def _pick_format(requested: str | None) -> str:
    if requested:
        return requested
    return "table" if sys.stdout.isatty() else "json"


def _style(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _emit(payload: dict, fmt: str, table: Callable[[dict], Iterable[str]]) -> None:
    """Print one answer: the lines ``table(payload)`` gives, or the JSON.

    Every command answer reaches stdout here and nowhere else.
    """
    if fmt == "table":
        for line in table(payload):  # one at a time: a profile can be long
            print(line)
    elif fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_dumps(payload))


def _profile_lines(payload: dict) -> Iterable[str]:
    yield f"basis = {payload['basis']}"
    for row in payload["rows"]:
        mark = "  saturated" if row["saturated"] else ""
        yield f"h={row['h']} cover={row['cover']}{mark}"


def _report_lines(payload: dict, cap: int) -> list[str]:
    width = max(len(key) for key in payload)
    lines = []
    for key, value in payload.items():
        if key == "h1" and value is None:
            text = f"not found within cap {cap}"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = str(value)
        if key == "counterexample" and value:
            text = _style(text, "1;31")
        lines.append(f"{key:<{width}} = {text}")
    return lines


def _extremal_lines(payload: dict) -> list[str]:
    head = (
        f"n_star = {payload['n_star']}  "
        f"(h={payload['h']}, k={payload['k']}, top <= {payload['ak_ceiling']})"
    )
    return [head] + [f"  {basis}" for basis in payload["witnesses"]]


# ---------- input ----------


def _read_basis_file(path: str) -> list[Basis]:
    bases = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                bases.append(parse_basis(line))
            except InvalidBasisError as exc:
                raise InvalidBasisError(f"{path}:{lineno}: {exc}") from None
    if not bases:
        raise InvalidBasisError(f"{path}: no bases found")
    return bases


def _inputs(args: argparse.Namespace) -> tuple[list[Basis], str]:
    """The bases of --basis/--basis-file, validated up front, and the format.

    A basis file always gives JSONL, whatever --format says.
    """
    if args.basis_file:
        return _read_basis_file(args.basis_file), "jsonl"
    return [parse_basis(args.basis)], _pick_format(args.format)


# ---------- commands ----------


def _cmd_cover(args: argparse.Namespace) -> int:
    bases, fmt = _inputs(args)
    for basis in bases:
        if args.profile:
            rows = [row._asdict() for row in cover_profile(basis, args.h).rows]
            payload = {"basis": str(basis), "h_max": args.h, "rows": rows}
            _emit(payload, fmt, _profile_lines)
        else:
            n = cover(basis, args.h)
            payload = {"basis": str(basis), "h": args.h, "cover": n}
            _emit(payload, fmt, lambda payload: [str(payload["cover"])])
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    bases, fmt = _inputs(args)
    missing = 0
    for basis in bases:
        report = analyze(basis, cap=args.cap)
        missing += report.h1 is None
        _emit(report.to_json_dict(), fmt, partial(_report_lines, cap=report.h1_cap))
    return EXIT_NO_H1 if missing else EXIT_OK


def _cmd_family(args: argparse.Namespace) -> int:
    basis = _FAMILIES[args.kind](args.p)
    payload = {"kind": args.kind, "p": args.p, "basis": str(basis), "k": basis.k}
    _emit(payload, _pick_format(args.format), lambda payload: [payload["basis"]])
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    spec = ScanSpec(k=args.k, ak_max=args.ak_max, h_cap=args.h_cap, mode=args.mode)
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
    payload = {
        "h": result.h,
        "k": result.k,
        "ak_ceiling": result.ak_ceiling,
        "n_star": result.n_star,
        "witnesses": [str(basis) for basis in result.witnesses],
    }
    _emit(payload, _pick_format(args.format), _extremal_lines)
    return EXIT_OK


# ---------- parser ----------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
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
        help=f"largest budget tried for h1 (default: {_CAP_DEFAULT})",
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
        "--h-cap",
        type=_positive_int,
        default=None,
        help=f"largest budget tried for h1 in each basis (default: {_CAP_DEFAULT})",
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
    try:
        return args.func(args)
    except (InvalidBasisError, BadParameterError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_INVALID)
    except OverflowLimitError as exc:
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_OVERFLOW)
    except TooLargeError as exc:
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_TOO_LARGE)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    except KeyboardInterrupt:
        return _fail("interrupted (rerun with --resume)", EXIT_INTERRUPTED)
    except WorkerDiedError:
        return _fail("a scan worker died (rerun with --resume)", EXIT_WORKER_DIED)


def entry() -> None:
    raise SystemExit(main())
