"""Fixed reference work, timed next to every operation that ``ops_per_s``
counts, that takes the host's speed out of it.

On a shared host the speed this process gets drifts by up to 2x over tens of
seconds: a fixed pure-Python loop took from 15.5 to 23.4 ms per call in
3-second windows of one 30-second run on a 2-vCPU VM, with no steal time and
the same user CPU time, and phases of slow and fast last from milliseconds
to minutes. Runs of the same code then disagree by more than any useful
bound, however long they are.

Each operation's time is divided by the time of a reference call just
before and just after it, and multiplied by the reference's ``nominal_ms``:
the operation's time on a host on which the reference takes that long. A
change to the program moves this figure; the host's phase barely does,
because the reference does the same kind of work as the operation and slows
with it. No reference calls the program, so a change to the program cannot
move a reference.

``KERNEL`` is for in-process operations. It loops in Python over small
frozen dataclasses with method calls, writes elements into a numpy array,
solves a scipy assignment and loops over small-array numpy calls, as the
oracle and the agents do. In two 5-minute traces, each of these kinds of
work cut the spread of training runs and oracle solves over 15-second
windows from 0.13-0.36 to 0.03-0.18 (interquartile range over median);
together, in ten-run sets of the benchmark, ``ops_per_s`` spread 0.03-0.07.

``STARTUP`` is for CLI invocations, which are mostly interpreter start-up
and imports: a fresh interpreter that imports numpy. The in-process kernel
tracked them worse than no correction; this one cut the spread of
``vnfcmap --help`` from 0.07 to 0.03 and of ``vnfcmap oracle`` from 0.19 to
0.08 in the same kind of trace.

``setup_s`` is scaled by both, from the median of the calls made between
the set-ups of one run (see ``run._setup_times``).
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, TypeVar

ITEMS, BINS, STEPS = 8, 300, 400
KERNEL_SEED = 20261018
STARTUP_TIMEOUT_S = 60

T = TypeVar("T")


@dataclass(frozen=True)
class _Box:
    ident: int
    a: float
    b: float

    def fits(self, other: "_Box") -> bool:
        return other.a >= self.a and other.b >= self.b


def _cost(item: _Box, box: _Box) -> float:
    return (1.0 - item.a / box.a) + (1.0 - item.b / box.b)


_state: dict = {}


def _inputs() -> tuple:
    """The kernel's modules and fixed inputs, made on the first call, so that
    importing this module never moves numpy's import out of a timed set-up."""
    if not _state:
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(KERNEL_SEED)
        items = tuple(_Box(i, float(a), float(b)) for i, (a, b) in enumerate(rng.integers(1, 6, (ITEMS, 2))))
        boxes = tuple(_Box(j, float(a), float(b)) for j, (a, b) in enumerate(rng.integers(5, 11, (BINS, 2))))
        _state["args"] = (np, linear_sum_assignment, items, boxes)
        kernel()  # warm caches before the first timed call
    return _state["args"]


def kernel() -> float:
    """One call of the fixed in-process work; returns its result so that none is skipped."""
    np, linear_sum_assignment, items, boxes = _inputs()
    cost = np.full((len(items), len(boxes)), np.inf)
    for i, item in enumerate(items):
        for j, box in enumerate(boxes):
            if item.fits(box):
                cost[i, j] = _cost(item, box)
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum())
    acc = np.zeros(len(items))
    for step in range(STEPS):
        row = cost[step % len(items)]
        j = int(np.argmin(row))
        acc[step % len(items)] += row[j]
    return total + float(acc.sum())


def startup() -> None:
    """A fresh interpreter that imports numpy and exits."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=STARTUP_TIMEOUT_S)


@dataclass(frozen=True)
class Reference:
    call: Callable[[], object]
    # One call on the host the benchmark was defined on, in its fast phase.
    nominal_ms: float

    def ms(self) -> float:
        """Wall time of one call, in ms."""
        start = perf_counter()
        self.call()
        return (perf_counter() - start) * 1e3

    def timed(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """Call ``fn``; returns its result, its wall time in ms, and that time
        scaled to a host on which this reference takes ``nominal_ms``."""
        before = self.ms()
        start = perf_counter()
        result = fn()
        elapsed = (perf_counter() - start) * 1e3
        return result, elapsed, elapsed * self.nominal_ms * 2 / (before + self.ms())


KERNEL = Reference(kernel, 2.0)
STARTUP = Reference(startup, 150.0)
