"""The machine's current speed, measured by a fixed piece of pure Python.

The benchmark runs on a shared host whose speed for one core changes by
half or more, from one core to the other and from one minute to the
next, with no change of the code: other tenants' work slows the same
instructions down.  A run's medians then move with the hour it ran at.

So rep.py times ``reference`` in the process that runs the workload:
``Sampler`` interrupts the timed section every ``INTERVAL_S`` seconds
to run it, and takes the time it spent out of the workload's, and a
set-up-only process runs it after its set-up.  A time t is then
reported as ``t * NOMINAL_S / r``, where r is the harmonic mean of the
reference times taken during it (see ``rescale``): the time t would
have taken on a machine on which ``reference`` takes ``NOMINAL_S``.

``reference`` does not touch quivertilt, so no change to the program can
move it; it mixes what the program's pure-Python hot path does (lists of
small ints reduced mod p, tuples hashed into dicts, small objects made
and sorted).  The garbage collector is off while it runs, so its time
does not depend on the heap of the process that runs it.
"""

from __future__ import annotations

import gc
import signal
import time

# About the median time of ``reference`` on one core of the two-vCPU
# Intel Xeon host, Python 3.11, on which the benchmark was written.
NOMINAL_S = 0.004
INTERVAL_S = 0.1
SAMPLES = 10


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _eliminate(n: int, p: int) -> int:
    """Row-reduce a fixed n x (n + 4) matrix over F_p; its rank."""
    m = [[(i * 7 + j * 3 + i * j) % p for j in range(n + 4)]
         for i in range(n)]
    rank = 0
    for c in range(n + 4):
        piv = next((i for i in range(rank, n) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        row = m[rank] = [x * inv % p for x in m[rank]]
        for i in range(n):
            f = m[i][c]
            if i != rank and f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], row)]
        rank += 1
    return rank


def _objects(n: int) -> int:
    table = {}
    for i in range(n):
        key = (i * 7919 % 1009, i % 17)
        table[key] = _Node(key, i)
    return sum(node.value for _, node in sorted(table.items()))


def reference() -> float:
    """Seconds one fixed piece of work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _eliminate(20, 3)
        _eliminate(20, 2)
        _objects(2000)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def sample() -> list[float]:
    return [reference() for _ in range(SAMPLES)]


def rescale(seconds: float, references: list[float]) -> float:
    """``seconds`` at the nominal speed.  Samples are evenly spaced in
    time, so the work done in ``seconds`` is proportional to the mean of
    1/r: the harmonic mean is the reference time to divide by."""
    return seconds * NOMINAL_S * sum(1 / r for r in references) / len(
        references)


class Sampler:
    """Runs ``reference`` every INTERVAL_S seconds of wall time, from a
    SIGALRM handler in the main thread, while the ``with`` block runs.
    ``samples`` holds the reference times and ``spent`` the seconds the
    handler took, to be taken out of the block's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
