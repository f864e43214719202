"""Linalg probe: product and row-reduction throughput of the public Mat API.

Seeded random matrices over F_2 and F_3, in the shapes of
benchmarks/bench_kernels.py, go through ``@`` and ``linalg.rref``;
``linalg.solve`` on consistent systems checks the arithmetic.  Only the
public API is used, so the probe measures whatever backend or layout
``Mat`` has.  Rates are multiply-adds per second, computed from the
shapes: m*n*k for a product and rows*cols*min(rows, cols) for a
reduction.
"""

from __future__ import annotations

import random
import time

from quivertilt import linalg

MATMUL_SHAPES = ((8, 8, 8), (16, 16, 16), (32, 32, 32), (48, 32, 48))
RREF_SHAPES = ((8, 12), (16, 24), (32, 48), (64, 64))
MATMUL_ROUNDS = 12
RREF_ROUNDS = 4
FIELDS = (2, 3)


def _random(rng: random.Random, p: int, rows: int, cols: int) -> linalg.Mat:
    return linalg.Mat(p, rows, cols,
                      [rng.randrange(p) for _ in range(rows * cols)])


def _matmul_rate(rng, p) -> float:
    pairs = [(_random(rng, p, m, n), _random(rng, p, n, k))
             for m, n, k in MATMUL_SHAPES]
    ops = sum(m * n * k for m, n, k in MATMUL_SHAPES) * MATMUL_ROUNDS
    t0 = time.perf_counter()
    for _ in range(MATMUL_ROUNDS):
        for a, b in pairs:
            a @ b
    return ops / (time.perf_counter() - t0)


def _rref_rate(rng, p) -> float:
    # rref caches its result on the matrix, so every call gets a new one.
    mats = [_random(rng, p, r, c) for _ in range(RREF_ROUNDS)
            for r, c in RREF_SHAPES]
    ops = sum(r * c * min(r, c) for r, c in RREF_SHAPES) * RREF_ROUNDS
    t0 = time.perf_counter()
    for m in mats:
        linalg.rref(m)
    return ops / (time.perf_counter() - t0)


SOLVE_SIZES = (8, 16, 32)


def _solve_failures(rng, p) -> int:
    """Consistent systems a x = b that solve gets wrong."""
    failed = 0
    for n in SOLVE_SIZES:
        a = _random(rng, p, n, n)
        b = a @ _random(rng, p, n, 1)
        x = linalg.solve(a, b)
        failed += x is None or a @ x != b
    return failed


def run(seed: int) -> tuple[dict[str, float], int, int]:
    """Rates by metric name, solve checks attempted and failed."""
    rng = random.Random(seed)
    rates, failed = {}, 0
    for p in FIELDS:
        failed += _solve_failures(rng, p)
        rates[f"linalg.probe.matmul_ops_per_s.f{p}"] = _matmul_rate(rng, p)
        rates[f"linalg.probe.rref_ops_per_s.f{p}"] = _rref_rate(rng, p)
    return rates, len(FIELDS) * len(SOLVE_SIZES), failed
