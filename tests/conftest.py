from __future__ import annotations

from dataclasses import dataclass

import pytest

from quivertilt import heart
from quivertilt.algebras import Algebra, opposite_algebra, path_algebra
from quivertilt.complexes import ChainMap, Complex
from quivertilt.derived import DerivedMorphism
from quivertilt.heart import heart_class_reps, one_term
from quivertilt.linalg import Field, Mat
from quivertilt.modules import (
    Module,
    cokernel,
    dual_module,
    kernel,
    presentation_arrows,
    projective_module,
)
from quivertilt.quivers import Quiver
from quivertilt.torsion import PairReport


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


def injective_module(alg: Algebra, pos: int) -> Module:
    """The injective envelope of the simple at an idempotent, realized
    as the dual of the opposite projective."""
    return dual_module(projective_module(opposite_algebra(alg), pos))


def arrow_blocks(m: Module) -> tuple[tuple[int, ...], dict[int, Mat]]:
    """Inverse of `modules.module_from_vertex_data`, in idempotent-adapted
    coordinates: the vertex dimensions and one block per presentation
    arrow.  Only valid for modules built by that front end."""
    alg = m.algebra
    dims = m.vertex_dims()
    off = [0]
    for d in dims:
        off.append(off[-1] + d)
    blocks = {}
    for b in presentation_arrows(alg):
        s, t = alg.endpoints[b]
        rows = []
        for i in range(off[t], off[t + 1]):
            rows.append(tuple(m.action[b].entry(i, j)
                              for j in range(off[s], off[s + 1])))
        blocks[b] = Mat.from_rows(alg.field.p, rows, cols=dims[s])
    return dims, blocks


def a3_with_zero_relation() -> Algebra:
    """Linear A3, 1 --a--> 2 --b--> 3 over F_2, with the path b*a set to
    zero.  The syzygy of the simple at e_1 is the radical of its
    projective cover, the simple at e_2, which is not projective: global
    dimension two."""
    labels = ("e_1", "e_2", "e_3", "a", "b")
    mult = [[() for _ in labels] for _ in labels]
    for i in range(3):
        mult[i][i] = ((i, 1),)
    mult[1][3] = mult[3][0] = ((3, 1),)  # e_2 a = a = a e_1
    mult[2][4] = mult[4][1] = ((4, 1),)  # e_3 b = b = b e_2
    return Algebra(Field(2), labels, mult, (1, 1, 1, 0, 0), (0, 1, 2), (3, 4))


# -- the chain-map reference for the split deciders --------------------------

def heart_ses_ok(ts, f: DerivedMorphism, g: DerivedMorphism) -> bool:
    """Heart-exactness of 0 -> X -f-> Y -g-> Z -> 0 for derived morphisms,
    walked through the truncated cones of chain maps."""
    return heart._heart_exact_sequence(ts, [f, g])


@dataclass(frozen=True)
class HeartDecomposition:
    """The canonical sequence 0 -> H^-1(x)[1] -> x -> H^0(x)[0] -> 0 of
    a heart object, with plain cohomology."""

    tor: Complex
    t_incl: DerivedMorphism
    quo: Complex
    q_proj: DerivedMorphism


def heart_decompose(ts, x: Complex) -> HeartDecomposition:
    if x.components and (x.lo < -1 or x.hi > 0):
        raise ValueError("expected a two-term complex in degrees [-1, 0]")
    if not ts.in_heart(x):
        raise ValueError("complex does not lie in the heart")
    d = x.diff(-1)
    kmod, kincl = kernel(d)
    tor = one_term(kmod, 1)
    hmod, hproj = cokernel(d)
    quo = one_term(hmod)
    return HeartDecomposition(
        tor, DerivedMorphism.from_chain_map(ChainMap(tor, x, {-1: kincl})),
        quo, DerivedMorphism.from_chain_map(ChainMap(x, quo, {0: hproj})))


def chain_map_tilted_pair_report(ts, uni, dim_bound: int = 3) -> PairReport:
    """tilted_pair_report on the class representatives as complexes, each
    decomposition walked as derived morphisms."""
    failures = []
    for k, x in enumerate(heart_class_reps(ts, uni, dim_bound)):
        dec = heart_decompose(ts, x)
        if not heart_ses_ok(ts, dec.t_incl, dec.q_proj):
            failures.append(f"decomposition of heart object #{k} "
                            "is not exact")
    return PairReport(not failures, tuple(failures))
