from __future__ import annotations

import pytest

from quivertilt.algebras import path_algebra
from quivertilt.linalg import Field, Mat
from quivertilt.quivers import Quiver


@pytest.fixture(scope="session")
def f2():
    return Field(2)


@pytest.fixture(scope="session")
def a2(f2):
    """Path algebra of 1 --a--> 2 over F_2; basis (e_1, e_2, a)."""
    return path_algebra(f2, Quiver((1, 2), ((1, 2, "a"),)))


@pytest.fixture(scope="session")
def a3(f2):
    """Path algebra of 1 --a--> 2 --b--> 3 over F_2."""
    return path_algebra(f2, Quiver((1, 2, 3), ((1, 2, "a"), (2, 3, "b"))))


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product, the oracle of the hom-space tests: with X
    flattened row-major into vec(X), vec(A @ X @ B) = kron(A, B^T) vec(X)."""
    p = a.p
    return Mat(p, a.rows * b.rows, a.cols * b.cols,
               [a.entry(i, j) * b.entry(k, l) % p
                for i in range(a.rows) for k in range(b.rows)
                for j in range(a.cols) for l in range(b.cols)])
