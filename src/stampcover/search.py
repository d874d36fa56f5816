"""Exhaustive desk-scale searches over whole boxes of bases.

Three layers: enumerators that stream bases in lexicographic order,
a conjecture scan that turns each basis into a report (with threads > 1
on a process pool, imported only then, preserving order; a dead worker
raises WorkerDiedError), and an append-only JSONL writer whose runs can
be interrupted and resumed without changing the final bytes.  A scan
enumerates its box once: a resume replays the file against the head of
that enumeration, line by line, and continues from where it stops.
The extremal search maximises the cover over every basis of a given
size in one depth-first search, reading a sound top-element ceiling
off it when none is supplied.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections.abc import Iterator

from .analysis import BasisReport, analyze
from .core import Basis, _check_size, _cover_entries, _Frozen, _reach_cover, cover
from .errors import StampError, TooLargeError, WorkerDiedError

# Refuse extremal searches that would visit more prefixes than this.
DEFAULT_EXTREMAL_CEILING = 100_000

_SCAN_HALF = 2048  # bases per half of the process pool's window


# ---------- enumeration ----------


def _check_box(k: int, top: int, name: str = "ak_max") -> None:
    """Refuse a box of k-element bases with top at most ``top`` that holds none."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if top < k:
        raise ValueError(f"{name} {top} cannot fit {k} increasing elements")


def enumerate_all_bases(k: int, ak_max: int) -> Iterator[Basis]:
    """Every basis with k elements and top at most ak_max, lexicographic."""
    _check_box(k, ak_max)
    for rest in itertools.combinations(range(2, ak_max + 1), k - 1):
        yield Basis((1,) + rest)


def enumerate_symmetric(k: int, ak_max: int) -> Iterator[Basis]:
    """Every symmetric basis with k elements and top at most ak_max.

    For k >= 3 a symmetric basis is its lower part low = (1, a_2, ..., a_p),
    p = (k - 1) // 2, and its top T: the middle element T / 2 (even k
    only), then T - a for a in reversed(low), then T.  Its elements rise
    exactly when T > 2 * a_p (and T is even for even k), so each low part
    takes every such top up to ak_max.  Low parts in lexicographic order,
    then tops in increasing order, is lexicographic order of the full
    bases.  k = 1 and k = 2 have only {1} and {1, 2}.
    """
    _check_box(k, ak_max)
    if k < 3:
        yield Basis(tuple(range(1, k + 1)))
        return
    odd = k % 2
    for mid in itertools.combinations(range(2, (ak_max + 1) // 2), (k - 3) // 2):
        low = (1,) + mid
        for top in range(2 * low[-1] + 2 - odd, ak_max + 1, 2 - odd):
            middle = () if odd else (top // 2,)
            yield Basis(low + middle + tuple(top - a for a in reversed(low)) + (top,))


# ---------- conjecture scan ----------


class ScanSpec(_Frozen):
    """One scan box: basis size, top-element cap, enumeration mode.

    Each basis in it gets ``analyze(basis)`` at analyze's default cap, so
    every record of a scan depends on its basis alone.
    """

    _fields = ("k", "ak_max", "mode")

    def __init__(self, k: int, ak_max: int, mode: str = "symmetric") -> None:
        _check_box(k, ak_max)
        if mode not in ("symmetric", "all"):
            raise ValueError(f"mode must be 'symmetric' or 'all', got {mode!r}")
        super().__init__(k, ak_max, mode)


class ScanFailure(_Frozen):
    """A basis the scan could not analyze; the scan itself continues."""

    _fields = ("basis", "error")

    def to_json_dict(self) -> dict:
        return {
            "basis": str(self.basis),
            "k": self.basis.k,
            "error": self.error,
        }


class ScanSummary(_Frozen):
    _fields = ("scanned", "counterexamples")


def _candidates(spec: ScanSpec) -> Iterator[Basis]:
    if spec.mode == "symmetric":
        return enumerate_symmetric(spec.k, spec.ak_max)
    return enumerate_all_bases(spec.k, spec.ak_max)


def _evaluate(basis: Basis) -> BasisReport | ScanFailure:
    """Analyze one basis; must stay top-level so worker processes can load it."""
    try:
        return analyze(basis)
    except (StampError, ValueError) as exc:
        return ScanFailure(basis, f"{type(exc).__name__}: {exc}")


def _reports(bases: Iterator[Basis], threads: int) -> Iterator[BasisReport | ScanFailure]:
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads == 1:
        yield from map(_evaluate, bases)
        return
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    workers = min(threads, os.cpu_count() or 1)
    # Executor.map submits all it is given before yielding a result, so the
    # pool gets the box one half at a time, not all at once, each half split
    # evenly into two chunks per worker.  pairwise submits the next half
    # before this one drains, so no worker idles, and at most two halves of
    # bases are in flight.
    halves = iter(lambda: list(itertools.islice(bases, _SCAN_HALF)), [])
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        maps = (pool.map(_evaluate, h, chunksize=math.ceil(len(h) / (2 * workers))) for h in halves)
        for results, _ in itertools.pairwise(itertools.chain(maps, [()])):
            yield from results
    except BrokenProcessPool as exc:
        raise WorkerDiedError("a scan worker died") from exc
    finally:
        # the prefetched half's map has not started, so nothing else cancels
        # its futures when the reader stops early; only the chunks already
        # sent to the workers are waited for
        pool.shutdown(cancel_futures=True)


def scan_conjecture(
    spec: ScanSpec, *, threads: int = 1
) -> Iterator[BasisReport | ScanFailure]:
    """Reports for every basis in the box, in enumeration order.

    With ``threads`` > 1 the work runs on a process pool, imported and
    created only then, but results are still yielded in enumeration
    order, so the output stream does not depend on the worker count.
    A dead worker raises WorkerDiedError.
    """
    return _reports(_candidates(spec), threads)


# ---------- persistence ----------


# json.dumps caches only its default encoder, so keep the compact one here
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _is_counterexample(record: dict) -> bool:
    """The rule both a scan and its resume count a written record by."""
    return record.get("counterexample") is True


def _replay(
    spec: ScanSpec, out_path: str, bases: Iterator[Basis]
) -> tuple[int, int, int | None]:
    """Match the records on disk against ``bases``, one line at a time.

    Each complete record must hold the next basis of ``bases``, and a
    summary must end the box and the file and agree with the records
    before it; otherwise ValueError.  Anything from the first torn (no
    trailing newline) or unparseable line on is what an interrupted run
    left.  Returns the records, their counterexamples, and the byte
    length of the lines to keep, which is None when the file ends in a
    summary.
    """
    foreign = ValueError(
        f"{out_path} does not hold a scan of the box k={spec.k} "
        f"ak_max={spec.ak_max} mode={spec.mode}; refusing to resume"
    )
    offset = scanned = counterexamples = 0
    with open(out_path, "rb") as fh:
        for line in fh:
            try:
                obj = json.loads(line.decode("utf-8")) if line.endswith(b"\n") else None
            except ValueError:  # UnicodeDecodeError included
                break
            if not isinstance(obj, dict) or not ("summary" in obj or "basis" in obj):
                break
            expected = next(bases, None)
            if "summary" not in obj:
                if expected is None or obj["basis"] != str(expected):
                    raise foreign
                scanned += 1
                counterexamples += _is_counterexample(obj)
                offset += len(line)
                continue
            if expected is not None or fh.read(1):  # a finished box ends the file
                raise foreign
            if obj["summary"] != ScanSummary(scanned, counterexamples)._asdict():
                raise ValueError(
                    f"{out_path} holds {scanned} records with {counterexamples} "
                    f"counterexamples, but its summary says {_dumps(obj['summary'])}; "
                    "refusing to resume"
                )
            return scanned, counterexamples, None
    return scanned, counterexamples, offset


def run_scan(
    spec: ScanSpec,
    out_path: str,
    *,
    resume: bool = False,
    threads: int = 1,
) -> ScanSummary:
    """Scan the box, appending one JSON line per basis to ``out_path``.

    The final line is ``{"summary": {"scanned": N, "counterexamples": M}}``.
    Records reach the file as its buffer fills, not one write each: an
    error or KeyboardInterrupt still closes the file with every finished
    record in it, and a kill that cuts the file anywhere in its last
    buffer leaves what a resume truncates and recomputes.
    The box is enumerated once.  With ``resume=True`` the records on disk
    are replayed line by line against the head of that enumeration, so
    memory does not grow with the file; an interrupted file is truncated
    after its last complete record and the scan continues the same
    enumeration, and a finished file is left untouched.  The bytes of
    run-to-completion and of any interrupt/resume sequence are identical.
    Resuming a file whose records are not the start of this box's
    enumeration (or, once finished, the whole box and nothing after its
    summary), or whose summary disagrees with its records, raises
    ValueError and leaves the file as it was.  Each record depends on its
    basis alone, so matching every basis is all a resume needs to write
    the same bytes.
    """
    bases = _candidates(spec)
    scanned = counterexamples = 0
    mode = "w"
    if resume and os.path.exists(out_path):
        scanned, counterexamples, offset = _replay(spec, out_path, bases)
        if offset is None:
            return ScanSummary(scanned, counterexamples)
        os.truncate(out_path, offset)
        mode = "a"
    with open(out_path, mode, encoding="utf-8", newline="\n") as fh:
        for item in _reports(bases, threads):
            record = item.to_json_dict()
            fh.write(_dumps(record) + "\n")
            scanned += 1
            counterexamples += _is_counterexample(record)
        summary = ScanSummary(scanned, counterexamples)
        fh.write(_dumps({"summary": summary._asdict()}) + "\n")
    return summary


# ---------- extremal search ----------


class ExtremalResult(_Frozen):
    """Best cover over every basis with k elements and top <= ak_ceiling."""

    _fields = ("h", "k", "ak_ceiling", "n_star", "witnesses")


def search_extremal(
    h: int,
    k: int,
    ak_ceiling: int | None = None,
    *,
    max_candidates: int = DEFAULT_EXTREMAL_CEILING,
) -> ExtremalResult:
    """Maximum of cover(h) over k-element bases, with every witness.

    The witnesses are all bases with top <= ``ak_ceiling`` that reach
    the maximum, in lexicographic order.  The box is searched depth
    first over prefixes (1, a_2, ..., a_j) in lexicographic order,
    extending a prefix of cover n only by a_{j+1} in (a_j, n + 1]: a
    larger next element leaves cover exactly n, and the box then holds
    the prefix followed by n + 1, ..., n + s (s free slots), covering at
    least n + s.  A given ``ak_ceiling`` also caps a_{j+1} so that the
    remaining slots still fit below it.

    When ``ak_ceiling`` is omitted it is read off the same search as one
    more than the best cover of a (k - 1)-prefix (1 for k = 1): a basis
    whose top passes the k - 1 optimum leaves a value below its top that
    the other k - 1 elements cannot cover, so it never beats that
    optimum.  The best (k - 1)-prefix visited is that optimum, since a
    (k - 1)-basis that is not admissible covers only what its admissible
    head does, less than the head followed by n + 1, ....  And that
    ceiling never cuts the search: a j-prefix of cover n followed by
    n + 1, n + 2, ... shows the k - 1 optimum is at least
    n + (k - 1 - j), so n + 1 stays within it for the remaining slots.

    Bit x of a prefix's ``levels[j]`` is set when x is a sum of at most
    j of its elements; a child adding a has L'[0] = 1 and
    L'[j] = L[j] | L'[j-1] << a, and its cover is one below the lowest
    clear bit of L'[h].  A child that fills the last slot keeps no
    levels: its L'[h] is carried through them in one int.  No prefix
    builds a table: each witness, and the (k - 1)-prefix a derived
    ceiling comes from, is certified once by ``cover``.

    Every top the search visits is at most T = min(C(h + k - 1, k - 1),
    ``ak_ceiling``): the prefix (1) has top 1, and a j-prefix of cover
    n (j < k) is extended by at most n + 1, where n <= C(h + j, j) - 1,
    since each value in 1..n is the sum of a nonempty multiset of at most
    h of its j elements and there are C(h + j, j) - 1 of those; and
    C(h + j, j) <= C(h + k - 1, k - 1).  So a box of k > 1 is sized
    once, before its first prefix: OverflowLimitError when T's sweep of
    h * T + 2 entries passes the table limit (``_cover_entries``), or
    when its h + 1 levels pass 64 bits per entry of that limit.  That
    sweep is the largest ``cover`` runs to certify a witness or the
    (k - 1)-prefix, so neither can refuse after the search.  The prefix
    1, 2, ..., k is always visited, so its sweep is sized first: past it
    the refusal is certain, and within it h * k <= 2^24, so
    C(h + k - 1, k - 1) takes milliseconds, where h = k = 10^6 would
    take half a minute.  A box of k = 1 holds only {1}, which is
    answered directly (n* = h) with no frame, and {1} is paired, so its
    certifying ``cover`` sweeps one budget: no size or budget refuses it.

    A frame is the plain tuple (levels, free slots, next child, last
    child) of a prefix with children left, and the root is the frame of
    the empty prefix: every level is 1, and its one child is 1.  A frame
    holds no prefix: the open prefix is one shared ``path``, cut back to
    a popped frame's k - slots elements, so a witness is the path and its
    leaf.  A frame of one free slot scores its children as leaves in one
    loop.  Any other frame opens its next child, and goes back on the
    stack below that child only if a later child is left, so it leaves
    the stack when its last child opens: at h = 1, where the prefix
    1, ..., j has the one child j + 1, the stack holds one frame.  Its
    (next, last) is the frame's open position and the range of children
    it has left, which can be read or split without visiting any.  A
    child is opened in one place, which adds its child count to the
    prefixes visited and raises TooLargeError when that passes
    ``max_candidates``, before any child is built, and pushes its frame
    only if it has a child.  The set of refused boxes is that of a count
    per prefix: every child of an opened frame is visited unless the
    search is refused, so the running count never exceeds the final
    total, and a search is refused exactly when its total prefix count
    passes ``max_candidates``.  The refusal comes at the frame that
    crosses the budget, not at the one prefix that does.
    """
    if h < 1:
        raise ValueError(f"h must be at least 1, got {h}")
    # a derived ceiling always fits: k - 1 elements cover at least k - 1
    _check_box(k, k if ak_ceiling is None else ak_ceiling, "ak_ceiling")
    visits = 1  # the prefix (1,), the root's one child
    head, head_cover = (), 0  # first best (k - 1)-prefix; the empty one covers 0
    path = []  # the open prefix; a frame with s free slots owns its first k - s
    if k > 1:
        _cover_entries(k, h)  # the prefix 1, ..., k, sized first so that comb stays small
        entries = _cover_entries(min(math.comb(h + k - 1, k - 1), ak_ceiling or math.inf), h)
        _check_size((h + 1) * entries, "levels", "bits", per_entry=64)
        best, found = -1, []
        # one frame per prefix with children left, so no Python frame per slot; the
        # root is the empty prefix: every level is 1 (only 0 is a sum), and its one
        # child is 1
        stack = [([1] * h, k, 1, 1)]
    else:  # one stamp value reaches exactly 1..h
        best, found, stack = h, [(1,)], []
    while stack:
        upper, slots, nxt, last = stack.pop()
        del path[k - slots:]  # back to this frame's prefix
        if slots == 1:
            # leaves: only their L'[h] is read, so carry one level along
            for a in range(nxt, last + 1):
                reach = 1
                for level in upper:
                    reach = level | reach << a
                leaf = _reach_cover(reach)
                if leaf > best:
                    best, found = leaf, []
                if leaf == best:
                    found.append((*path, a))
            continue
        if nxt < last:  # the frame's later children run after this child's subtree
            stack.append((upper, slots, nxt + 1, last))
        path.append(nxt)
        child = [1]
        for level in upper:
            child.append(level | child[-1] << nxt)
        n = _reach_cover(child[h])
        if slots == 2 and n > head_cover:
            head, head_cover = tuple(path), n
        # admissible next elements; a given ceiling leaves room for the other slots
        cap = n + 1 if ak_ceiling is None else min(n + 1, ak_ceiling - slots + 2)
        if cap > nxt:  # every frame on the stack has a child left to open
            visits += cap - nxt
            if visits > max_candidates:
                raise TooLargeError(f"h={h}, k={k}: more than {max_candidates} prefixes")
            stack.append((child[1:], slots - 1, nxt + 1, cap))
    witnesses = tuple(map(Basis, found))
    checks = [("witness", witness, best) for witness in witnesses]
    if ak_ceiling is None:
        ak_ceiling = head_cover + 1
        if head:
            checks.append(("prefix", Basis(head), head_cover))
    for what, basis, value in checks:
        if cover(basis, h) != value:
            raise AssertionError(f"{what} {basis} does not cover {value}")
    return ExtremalResult(h, k, ak_ceiling, best, witnesses)
