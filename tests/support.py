"""Helpers shared by the test modules: seeded random bases, memory probes,
a call recorder, a runner for CLI children and the keys of a report record.

The test modules import it as ``from support import ...``; pytest puts
this directory on ``sys.path`` when it collects them.  The random-basis
draws keep their bodies as they are: every seeded test's cases depend on
the exact calls they make to ``rng``.
"""

from __future__ import annotations

import contextlib
import os
import random
import subprocess
import sys
import tracemalloc
import types

import stampcover
from stampcover import Basis, symmetrize_even, symmetrize_odd

STAMPCOVER = (sys.executable, "-m", "stampcover")

# the keys of a BasisReport record, in the order every writer prints them
REPORT_KEYS = [
    "basis",
    "k",
    "symmetric",
    "h0",
    "h1",
    "h1_found",
    "theorem_bound",
    "conjecture_holds",
    "counterexample",
]


def random_basis(rng: random.Random, max_k: int = 5, max_element: int = 12) -> Basis:
    k = rng.randint(1, max_k)
    if k == 1:
        return Basis((1,))
    rest = rng.sample(range(2, max_element + 1), k - 1)
    return Basis((1,) + tuple(sorted(rest)))


def random_symmetric_basis(rng: random.Random, max_m: int = 4, max_element: int = 12) -> Basis:
    m = rng.randint(1, max_m)
    if m == 1:
        half = Basis((1,))
    else:
        rest = rng.sample(range(2, max_element + 1), m - 1)
        half = Basis((1,) + tuple(sorted(rest)))
    if m >= 2 and rng.random() < 0.5:
        return symmetrize_odd(half)
    return symmetrize_even(half)


@contextlib.contextmanager
def traced_peak():
    """Trace the allocations of the ``with`` body; ``probe.peak`` holds their peak in bytes."""
    probe = types.SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield probe
        probe.peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def warm_peak(call) -> int:
    """The ``tracemalloc`` peak in bytes of ``call()``, run once untraced first.

    tracemalloc counts a tuple parked in one of the interpreter's free lists
    as allocated, so the peak of a first call depends on which tests ran
    before it; the untraced call leaves those lists as full as ``call``
    itself leaves them.
    """
    call()
    with traced_peak() as probe:
        call()
    return probe.peak


def record_calls(monkeypatch, owner, name: str, record=lambda *args, **kwargs: args) -> list:
    """Rebind ``owner.name`` to call through, and return a list that gets
    ``record(*args, **kwargs)`` of each call, in call order (by default its
    positional arguments)."""
    calls = []
    real = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def child_env() -> dict:
    """Environment in which a child imports the package from where this process found it."""
    src = os.path.dirname(os.path.dirname(stampcover.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_child(*argv: str) -> subprocess.CompletedProcess:
    """Run ``argv`` to its end in ``child_env()``, within 60 s, capturing its output as text."""
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=child_env())
