"""Speed reference for the benchmark's times.

On a shared virtual machine the host's speed can drift by up to about 3x,
in states that last from a few seconds to a minute.  Raw wall time
therefore says as much about the neighbours as about the code.  Each worker runs a fixed calibration chunk
next to its requests and records when each chunk started and ended:

* eight chunks when the job arrives and eight after the pass (a bracket);
* in timed passes, one chunk every PERIOD_S as well, from a SIGALRM
  interval timer, so that the speed is sampled all through the pass.

The drift does not slow all code alike, so the chunk does the kind of work
scepoly does: bignum Fraction arithmetic (Bernoulli numbers) and a product
of small polynomials over a frozen-dataclass Gaussian rational.  Both are
written here and do not call scepoly, and the chunk runs with the garbage
collector off, so scepoly's gc settings do not reach it.  It still shares
the interpreter and its allocator with scepoly: a change that patches the
standard library in-process (fractions.Fraction, say) or reshapes the heap
can move the chunk too, and reference seconds would understate it.

Candidate chunks were compared on the same recorded passes (five seeds per
workload).  This one kept the spread of every end-to-end time under 5 %.
A chunk of argparse work alone, which looks like the small requests, left
`verify` at 35 %.

``Clock.reference_seconds(a, b)`` turns an interval into reference seconds.
Chunk time inside the interval is removed.  Each remaining moment is scaled
by REFERENCE_CHUNK_S over the local chunk duration.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

# The unit of every reported time: about one chunk's duration on a 2-vCPU
# x86-64 VM (Python 3.11).  It never changes, so runs stay comparable.
REFERENCE_CHUNK_S = 0.0022
PERIOD_S = 0.03

BRACKET = 8
SMOOTH = 5  # a chunk's duration is the median over it and SMOOTH neighbours each side

# Set-up is process start-up and imports, which the chunk does not track.
# Each set-up sample is therefore paired with a reference launch just before
# it: a fresh isolated interpreter (-I, so nothing of the checkout is on its
# path) that imports a fixed set of standard-library modules.  A set-up time
# is scaled by REFERENCE_LAUNCH_S, about that launch's time on the same VM,
# over the paired launch's time.
REFERENCE_LAUNCH_S = 0.1
REFERENCE_IMPORTS = "import argparse, csv, dataclasses, decimal, fractions, json, random"


def _bernoulli(n: int) -> Fraction:
    """B_n by the Akiyama-Tanigawa recurrence."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


@dataclass(frozen=True)
class _Gauss:
    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other):
        return _Gauss(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return _Gauss(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)


def _poly_square(size: int) -> list:
    """Square a polynomial with Gaussian-rational coefficients."""
    p = [_Gauss(Fraction(k, k + 1), Fraction(1, k + 2)) for k in range(size)]
    out = [_Gauss(0, 0)] * (2 * size - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(p):
            out[i + j] = out[i + j] + a * b
    return out


def chunk(spans: list) -> None:
    """Run one chunk with the garbage collector off and append its (start, end).

    The chunk allocates thousands of tracked objects.  With the collector on,
    its speed would follow the program's gc settings and young-generation
    size, so a gc change in scepoly (gc.freeze, gc.disable, a threshold)
    would speed the chunk up too and cancel out in reference seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _bernoulli(20)
        _poly_square(7)
        spans.append((t0, time.perf_counter()))
    finally:
        if enabled:
            gc.enable()


def reference_launch() -> float:
    """Seconds from launching the reference interpreter to its exit.

    No timeout: with one, the wait polls with growing sleeps and the figure
    would be rounded up to the poll step."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", REFERENCE_IMPORTS],
        check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def bracket(spans: list) -> None:
    for _ in range(BRACKET):
        chunk(spans)


class Speedometer:
    """Runs one chunk every PERIOD_S while active (main thread only)."""

    def __init__(self, spans: list):
        self.spans = spans

    def _tick(self, signum, frame):
        chunk(self.spans)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


class Clock:
    """Reference seconds for intervals of one worker's life.

    ``spans`` are that worker's calibration chunks in time order.  Between
    two chunks the speed is REFERENCE_CHUNK_S over the mean of their
    durations.  Each duration is first smoothed as the median of it and its
    SMOOTH neighbours on each side, which is about 0.3 s of a timed pass.
    Before the first chunk and after the last, the bracket's median is used.
    """

    def __init__(self, spans: list[tuple[float, float]]):
        if len(spans) < 2:
            raise ValueError("a clock needs at least two calibration chunks")
        self.starts = [s for s, _ in spans]
        self.ends = [e for _, e in spans]
        d = [e - s for s, e in spans]
        self.dur = [statistics.median(d[max(0, i - SMOOTH): i + SMOOTH + 1]) for i in range(len(d))]
        self.head = statistics.median(d[:BRACKET])
        self.tail = statistics.median(d[-BRACKET:])

    def reference_seconds(self, a: float, b: float) -> float:
        """The interval [a, b] in reference seconds."""
        total = 0.0
        n = len(self.starts)
        # gap k runs from the end of chunk k-1 to the start of chunk k;
        # gap 0 is everything before the first chunk, gap n everything after.
        k = bisect.bisect_right(self.ends, a)
        while k <= n:
            lo = self.ends[k - 1] if k > 0 else float("-inf")
            hi = self.starts[k] if k < n else float("inf")
            if lo >= b:
                break
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                if k == 0:
                    d = self.head
                elif k == n:
                    d = self.tail
                else:
                    d = (self.dur[k - 1] + self.dur[k]) / 2
                total += overlap * REFERENCE_CHUNK_S / d
            k += 1
        return total
