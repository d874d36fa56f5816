"""The three benchmark workloads: their inputs, command lines and gates.

Each workload is one ``python -m stampcover`` command line.  ``check``
turns one finished invocation into a count of operations attempted and
failed (a basis, or the whole run when there is no per-basis output),
plus the reasons for every failure.  Exit codes are judged by meaning:
5 from ``scan`` (counterexamples found) and 4 from ``analyze`` (some h1
not found within the cap) are answers, not failures.

Why these three: together they drive the cover engine in three shapes.
``extremal-h4k5`` makes 135,751 single-budget covers at small bounds
and bypasses ``analyze``, the pool and the writer.  ``scan-sym4`` makes
139 analyses of bases with tops up to 280 and is the only workload that
uses the scan command, its JSONL writer and, in the traced run, the
process pool.  ``analyze-batch`` makes a few huge tables with almost no
enumeration or output.  An engine that wins on large bounds but adds a
cost per call shows a loss on the first two.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
from dataclasses import dataclass, field

import layers
import oracle

TRACEBACK = "Traceback (most recent call last)"


@dataclass
class Invocation:
    """One finished CLI process."""

    wall_s: float
    rc: int
    maxrss_kb: int
    stdout: bytes
    stderr: str


@dataclass
class Check:
    ops: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.ops, self.failed + count)
        self.problems.append(problem)


def _run_failed(inv: Invocation, ok_codes: tuple[int, ...]) -> str | None:
    """Why a process counts as a failed run, or None when it ran."""
    if TRACEBACK in inv.stderr:
        return f"traceback (exit {inv.rc}): {inv.stderr.strip()[-300:]}"
    if inv.rc not in ok_codes:
        return f"unexpected exit code {inv.rc}: {inv.stderr.strip()[-300:]}"
    return None


def _elements(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


# ---------- set-up command ----------

SETUP_ARGV = ["family", "--kind", "a9", "--p", "3"]
A9_P3 = "1,3,5,8,20,23,25,27,28"  # family_a9(3)


def check_setup(inv: Invocation) -> Check:
    check = Check(ops=1)
    why = _run_failed(inv, (0,))
    if why:
        check.fail(1, f"setup: {why}")
        return check
    try:
        basis = json.loads(inv.stdout)["basis"]
    except (ValueError, KeyError, TypeError):
        basis = None
    if basis != A9_P3:
        check.fail(1, f"setup: family a9 p=3 printed {inv.stdout[:200]!r}")
    return check


# ---------- scan-sym4 ----------


class ScanSym4:
    """One serial scan of the symmetric bases with k = 4 and top <= 280.

    The CLI writes a JSONL line and renames a checkpoint file for every
    basis, and on a shared disk a rename took from 0.1 to 0.5 ms as the
    host's load changed.  Boxes of small bases timed that disk more than
    the program: k = 9, top <= 40 (7,752 renames next to 0.6 ms of
    analysis each) and k = 6, top <= 100 (1,176 next to 5 ms) both had
    run medians spread by a fifth of their median.  Here each basis takes
    about 35 ms of analysis.  The box holds no counterexample, so the
    scan exits 0.
    """

    name = "scan-sym4"
    basis_span = "analysis.analyze"
    k, ak_max = 4, 280
    size = 139  # symmetric bases with k = 4 and top <= 280
    counterexamples = ()

    def __init__(self, seed: int, tmp: str, threads: int) -> None:
        # the box is the workload: the seed changes nothing here
        self.tmp = tmp
        # pool size for search.pool_s only: the CLI scan runs serially,
        # since a full pool next to the writing parent is more processes
        # than cores, and its wall time then follows the host's scheduler
        self.threads = threads
        self.out_path = f"{tmp}/scan.jsonl"
        self.reference: tuple[str, int, list[str]] | None = None

    def argv(self) -> list[str]:
        return [
            "scan", "--k", str(self.k), "--ak-max", str(self.ak_max),
            "--threads", "1", "--out", self.out_path,
        ]

    def check(self, inv: Invocation) -> Check:
        check = Check(ops=self.size)
        why = _run_failed(inv, (0, 5))
        if why:
            check.fail(self.size, why)
            return check
        summary = re.search(r"scanned=(\d+) counterexamples=(\d+)", inv.stderr)
        want = (self.size, len(self.counterexamples))
        if not summary or tuple(map(int, summary.groups())) != want:
            check.fail(self.size, f"summary line {inv.stderr.strip()[-200:]!r}")
        if inv.rc != (5 if self.counterexamples else 0):
            check.fail(self.size, f"exit {inv.rc} does not match the verdict")
        try:
            with open(self.out_path, "rb") as fh:
                data = fh.read()
            os.remove(self.out_path)
        except OSError as exc:
            check.fail(self.size, f"no scan output: {exc}")
            return check
        digest = hashlib.sha256(data).hexdigest()
        if self.reference is None:
            try:
                failed, problems = self.verify_lines(data)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                failed, problems = self.size, [f"unreadable scan output: {exc!r}"]
            self.reference = (digest, failed, problems)
        ref_digest, ref_failed, ref_problems = self.reference
        if digest != ref_digest:
            check.fail(self.size, "JSONL bytes differ from the first repeat")
        elif ref_failed:
            check.fail(ref_failed, "; ".join(ref_problems[:5]))
        return check

    def verify_lines(self, data: bytes) -> tuple[int, list[str]]:
        """Check every record of one scan output against the reference."""
        problems = []
        lines = data.decode("utf-8", "replace").split("\n")
        if lines[-1] != "":
            problems.append("output does not end in a newline")
        records = [json.loads(line) for line in lines[:-1] if line]
        summary = records.pop() if records else {}
        want = {"scanned": self.size, "counterexamples": len(self.counterexamples)}
        if summary.get("summary") != want:
            problems.append(f"summary record {summary!r}")
        failed = abs(self.size - len(records))
        if failed:
            problems.append(f"{len(records)} records, expected {self.size}")
        previous: tuple[int, ...] = ()
        found = []
        for record in records:
            elements = _elements(record["basis"])
            bad = oracle.mismatches(record, oracle.report(elements))
            if "error" in record:
                bad.append(f"scan failure {record['error']}")
            if elements <= previous or len(elements) != self.k or elements[-1] > self.ak_max:
                bad.append("outside the box or out of order")
            previous = elements
            if record.get("counterexample") is True:
                found.append(record["basis"])
            if bad:
                failed += 1
                problems.append(f"{record['basis']}: {', '.join(bad)}")
        if tuple(found) != self.counterexamples:
            failed = self.size
            problems.append(f"counterexamples {found}, expected {list(self.counterexamples)}")
        return min(failed, self.size), problems

    def layers(self) -> tuple[dict, Check]:
        report = layers.scan_layers(self.k, self.ak_max, self.threads, f"{self.tmp}/layers.jsonl")
        check = Check(ops=3 * self.size)
        reports = report.pop("search.reports")
        if report["search.enumerated"] != self.size or reports != [self.size] * 2:
            check.fail(2 * self.size, "scan_conjecture did not report every basis of the box")
        digest = report.pop("search.jsonl_sha256")
        if self.reference is None or digest != self.reference[0]:
            check.fail(self.size, "run_scan bytes differ from the CLI's")
        return report, check


# ---------- extremal-h4k5 ----------


class ExtremalH4K5:
    name = "extremal-h4k5"
    basis_span = "core.cover"
    h, k = 4, 5
    n_star = 70
    witnesses = ["1,3,11,15,32"]
    # (k, top ceiling) of every box the exhaustive search covers: the
    # requested k = 5 and the recursion that derives its ceiling
    boxes = ((1, 1), (2, 5), (3, 11), (4, 27), (5, 45))
    size = math.comb(45 - 1, 5 - 1)  # 135,751 candidate bases at ceiling 45

    def __init__(self, seed: int, tmp: str, threads: int) -> None:
        self.witnesses_checked = False

    def argv(self) -> list[str]:
        # without an explicit budget the CLI refuses this box with exit 6
        return ["extremal", "--h", str(self.h), "--k", str(self.k),
                "--max-candidates", "1000000"]

    def check(self, inv: Invocation) -> Check:
        check = Check(ops=1)
        why = _run_failed(inv, (0,))
        if why:
            check.fail(1, why)
            return check
        try:
            result = json.loads(inv.stdout)
            got = (result["h"], result["k"], result["n_star"], result["witnesses"])
        except (ValueError, KeyError, TypeError):
            check.fail(1, f"unreadable output {inv.stdout[:200]!r}")
            return check
        if got != (self.h, self.k, self.n_star, self.witnesses):
            check.fail(1, f"extremal result {got}")
        if not self.witnesses_checked:
            from stampcover.core import Basis, brute_force_cover

            for text in self.witnesses:
                elements = _elements(text)
                brute = brute_force_cover(Basis(elements), self.h)
                bits = oracle.covers(elements, self.h)[-1]
                if brute != self.n_star or bits != self.n_star:
                    check.fail(1, f"witness {text}: brute force {brute}, reference {bits}")
            self.witnesses_checked = True
        return check

    def layers(self) -> tuple[dict, Check]:
        report = layers.extremal_layers(self.h, self.k, self.boxes)
        check = Check(ops=1)
        if report.pop("search.extremal_result") != [self.n_star, self.witnesses]:
            check.fail(1, "search_extremal disagrees with the reference")
        return report, check


# ---------- analyze-batch ----------

# Each slot is (category, target work).  The work of a basis is
# (elements + 4) * table entries for the parent program's algorithm:
# tables of 2, 4, 8, ... times the top until the budget passes h0, then
# one table of cap * top for the h1 search; the 4 stands for the cost
# per entry that does not grow with the elements.  Every slot draws a
# random basis of its category whose work lies within 7% of the target
# (family members are discrete: each target sits where an a9 and an a10
# member lie within 5% of each other, and the seed picks one), so the
# batch's total work barely moves with the seed while its bases change.
# h0 and the cap come from the reference, never from the program.
BATCH_SLOTS = (
    ("family", 600_000), ("family", 1_210_000), ("family", 2_465_000),
    ("family", 4_320_000),
    ("symmetric", 400_000), ("symmetric", 700_000), ("symmetric", 1_000_000),
    ("symmetric", 1_400_000), ("symmetric", 1_900_000), ("symmetric", 2_600_000),
    ("meure", 300_000), ("meure", 500_000), ("meure", 700_000), ("meure", 1_000_000),
    ("meure", 1_400_000),
    ("general", 600_000), ("general", 900_000), ("general", 1_300_000),
    ("general", 1_800_000), ("general", 2_500_000), ("general", 3_000_000),
)
SLOT_TRIES = 5000
# Peak RSS follows the largest table, and grows faster once stamp counts
# pass 256 (CPython caches only small ints).  The seeded slots keep
# h0 < 128 and every table under 200k entries; one fixed general basis
# (h0 = 375, a 383k-entry table) closes every batch, so the peak does
# not depend on the seed.
SLOT_MAX_H0 = 127
SLOT_MAX_TABLE = 200_000
ANCHOR = ((1, 376, 598, 748), "anchor")
BRUTE_CEILING = 400_000  # coefficient vectors per brute-force cover check
BRUTE_SAMPLE = 3


def family_elements(kind: str, p: int) -> tuple[int, ...]:
    """a9 / a10 family members, built from the five-element seed."""
    tail = (3 * p * p + 3 * p + 4) // 2
    seed = (1, p, p + 2, 2 * p + 2)
    if kind == "a9":
        top = tail + 2 * p + 2
        return seed + (tail, top - p - 2, top - p, top - 1, top)
    top = 2 * tail
    return seed + (tail,) + tuple(top - v for v in reversed(seed)) + (top,)


def _random_symmetric(rng: random.Random) -> tuple[int, ...]:
    """A palindromic difference sequence with end differences 1."""
    k = rng.randint(5, 9)
    top = rng.randint(100, 900)
    half = k // 2 - 1
    weights = [rng.random() for _ in range(half + k % 2)]
    scale = (top - 2) / (2 * sum(weights[:half]) + sum(weights[half:]))
    steps = [max(1, round(w * scale)) for w in weights]
    diffs = [1] + steps[:half] + steps[half:] + steps[:half][::-1] + [1]
    elements, total = [], 0
    for d in diffs:
        total += d
        elements.append(total)
    return tuple(elements)


def _random_meure(rng: random.Random) -> tuple[int, ...]:
    k = rng.randint(4, 6)
    top = rng.randint(100, 600)
    middle = sorted(rng.sample(range(2, top - 1), k - 3))
    return (1, *middle, top - 1, top)


def _random_general(rng: random.Random) -> tuple[int, ...]:
    k = rng.randint(4, 7)
    top = rng.randint(200, 1500)
    return (1, *sorted(rng.sample(range(2, top), k - 2)), top)


_SAMPLERS = {
    "symmetric": _random_symmetric,
    "meure": _random_meure,
    "general": _random_general,
}


def _work(
    elements: tuple[int, ...],
    limit: float,
    max_h0: float = math.inf,
    max_table: float = math.inf,
) -> int | None:
    """The work model of BATCH_SLOTS, or None once a limit is passed."""
    top, k = elements[-1], len(elements)
    symmetric = oracle.is_symmetric(elements)
    reach, h = 1, 0
    tables, h_max = 0, 1
    while True:
        h += 1
        if h > h_max:
            h_max = 2 if h_max == 1 else min(2 * h_max, top + 1)
            tables += h_max * top
        cap = max(h, 2 * h - 2) if symmetric else max(oracle.DEFAULT_H1_CAP, h)
        if (
            (k + 4) * (tables + cap * top) > limit
            or h > max_h0
            or max(h_max, cap) * top > max_table
        ):
            return None
        step = reach
        for a in elements:
            step |= reach << a
        reach = step
        if (~reach & (reach + 1)).bit_length() - 2 > top:
            return (k + 4) * (tables + cap * top)


def batch_bases(seed: int) -> list[tuple[tuple[int, ...], str]]:
    """The seeded batch: (elements, label) per slot, in slot order."""
    rng = random.Random(f"analyze-batch/{seed}")
    families = {}
    for kind in ("a9", "a10"):
        for p in range(11, 36, 2):
            work = _work(family_elements(kind, p), math.inf, SLOT_MAX_H0, SLOT_MAX_TABLE)
            if work is not None:
                families[kind, p] = work
    out = []
    for category, target in BATCH_SLOTS:
        if category == "family":
            choices = [key for key, work in families.items() if abs(work / target - 1) <= 0.05]
            kind, p = rng.choice(choices)
            out.append((family_elements(kind, p), f"{kind}:{p}"))
            continue
        sampler = _SAMPLERS[category]
        for _ in range(SLOT_TRIES):
            elements = sampler(rng)
            work = _work(elements, 1.07 * target, SLOT_MAX_H0, SLOT_MAX_TABLE)
            if work is not None and work >= 0.93 * target:
                break
        else:
            raise RuntimeError(f"no {category} basis of work {target} in {SLOT_TRIES} draws")
        out.append((elements, category))
    return out + [ANCHOR]


class AnalyzeBatch:
    name = "analyze-batch"
    basis_span = "analysis.analyze"

    def __init__(self, seed: int, tmp: str, threads: int) -> None:
        self.bases = batch_bases(seed)
        self.size = len(self.bases)
        self.path = f"{tmp}/batch-{seed}.txt"
        with open(self.path, "w", encoding="utf-8") as fh:
            for elements, _ in self.bases:
                fh.write(",".join(map(str, elements)) + "\n")
        self.expected = [oracle.report(elements) for elements, _ in self.bases]
        rng = random.Random(f"analyze-batch/{seed}/brute")
        small = [
            i for i, want in enumerate(self.expected)
            if math.comb(want["h0"] + want["k"], want["k"]) <= BRUTE_CEILING
        ]
        self.brute_sample = sorted(rng.sample(small, min(BRUTE_SAMPLE, len(small))))
        self.reference: bytes | None = None

    def argv(self) -> list[str]:
        return ["analyze", "--basis-file", self.path]

    def check(self, inv: Invocation) -> Check:
        check = Check(ops=self.size)
        why = _run_failed(inv, (0, 4))
        if why:
            check.fail(self.size, why)
            return check
        if inv.stdout == self.reference:
            return check
        try:
            lines = [json.loads(line) for line in inv.stdout.decode().splitlines()]
            if not all(isinstance(line, dict) for line in lines):
                raise ValueError("a line is not a JSON object")
        except ValueError:
            check.fail(self.size, f"unreadable output {inv.stdout[:200]!r}")
            return check
        if len(lines) != self.size:
            check.fail(self.size, f"{len(lines)} lines for {self.size} bases")
            return check
        missing = any(line.get("h1") is None for line in lines)
        if inv.rc != (4 if missing else 0):
            check.fail(self.size, f"exit {inv.rc} does not match the reports")
        for i, (line, want, (elements, label)) in enumerate(
            zip(lines, self.expected, self.bases)
        ):
            bad = oracle.mismatches(line, want)
            if ":" in label:  # a family member, labelled kind:p
                p = int(label.split(":")[1])
                if (line.get("h0"), line.get("h1"), line.get("counterexample")) != (p, p + 1, True):
                    bad.append(f"family {label} must give h0=p, h1=p+1, counterexample")
            if want["symmetric"]:
                h0, h1 = line.get("h0"), line.get("h1")
                if not isinstance(h0, int) or not isinstance(h1, int) or not h0 <= h1 <= max(h0, 2 * h0 - 2):
                    bad.append("symmetric h1 outside [h0, max(h0, 2*h0-2)]")
            if i in self.brute_sample:
                bad += self._brute_force(elements, line)
            if bad:
                check.fail(1, f"{want['basis']}: {', '.join(bad)}")
        if not check.failed:
            self.reference = inv.stdout
        return check

    def layers(self) -> tuple[dict, Check]:
        return {}, Check(ops=0)  # no enumeration, pool or writer to time

    def _brute_force(self, elements: tuple[int, ...], line: dict) -> list[str]:
        """Reported h0 and h1 against brute-force covers, where affordable."""
        from stampcover.core import Basis, brute_force_cover

        basis, top, k = Basis(elements), elements[-1], len(elements)
        bad = []
        h0, h1 = line.get("h0"), line.get("h1")
        if not isinstance(h0, int) or h0 < 2:
            return [f"h0={h0!r}"]
        if math.comb(h0 + k, k) > BRUTE_CEILING:
            return []  # a wrong h0 this large already fails against the reference
        if brute_force_cover(basis, h0, ceiling=BRUTE_CEILING) <= top:
            bad.append(f"brute force: cover at h0={h0} does not pass the top")
        if brute_force_cover(basis, h0 - 1, ceiling=BRUTE_CEILING) > top:
            bad.append(f"brute force: cover at h0-1={h0 - 1} already passes the top")
        if isinstance(h1, int) and math.comb(h1 + k, k) <= BRUTE_CEILING:
            if brute_force_cover(basis, h1, ceiling=BRUTE_CEILING) != h1 * top:
                bad.append(f"brute force: cover at h1={h1} is not saturated")
        return bad


WORKLOADS = {cls.name: cls for cls in (ScanSym4, ExtremalH4K5, AnalyzeBatch)}
