"""Tests for the exact linear algebra layer and the matrix kernels."""

from __future__ import annotations

import gc
import random

import pytest
from conftest import kron

from quivertilt import kernels
from quivertilt.kernels import _pure
from quivertilt.linalg import (
    Field,
    Mat,
    Subspace,
    all_vectors,
    combine,
    complement_in,
    image_basis,
    kernel_basis,
    pullback_linear,
    quotient_maps,
    rank,
    rref,
    solve,
    _unit_rows,
)


def rand_mat(rng, p, rows, cols):
    return Mat(p, rows, cols, [rng.randrange(p) for _ in range(rows * cols)])


def test_field_accepts_small_primes_only():
    assert Field(2).p == 2
    assert Field(251).inv(5) * 5 % 251 == 1
    for bad in (0, 1, 4, 6, 9, 253, 257):
        with pytest.raises(ValueError):
            Field(bad)


def test_rref_f2_rank_one():
    m = Mat(2, 2, 2, [1, 1, 1, 1])
    r, pivots = rref(m)
    assert r.row_list() == [(1, 1), (0, 0)]
    assert pivots == (0,)


def test_rref_is_idempotent_and_deterministic():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(40):
            m = rand_mat(rng, p, rng.randrange(1, 6), rng.randrange(1, 6))
            r, pivots = rref(m)
            again, pivots2 = rref(r)
            assert again == r
            assert pivots2 == pivots


@pytest.mark.parametrize("p", [2, 3, 5])
def test_born_reduced_matrices_match_the_kernel(p):
    # Mat.zeros and Mat.identity come with their reduction preset; it
    # must be the one kernels.rref computes on the same data, empty
    # shapes included.
    for n in range(7):
        born = Mat.identity(p, n)
        data, pivots = kernels.rref(p, n, n, born.data)
        assert rref(born) == (Mat(p, n, n, data), tuple(pivots))
        assert rref(born)[0] is born and rank(born) == n
        for cols in range(7):
            born = Mat.zeros(p, n, cols)
            data, pivots = kernels.rref(p, n, cols, born.data)
            assert rref(born) == (Mat(p, n, cols, data), tuple(pivots))
            assert rref(born)[0] is born and rank(born) == 0


def test_reduction_is_freed_by_reference_counting():
    # With the cyclic collector off, a dropped matrix and its cached
    # reduction are freed as soon as their last reference goes: the
    # reduction keeps its pivots without a reference to itself.
    def live_mats():
        return sum(isinstance(o, Mat) for o in gc.get_objects())

    enabled = gc.isenabled()
    gc.disable()
    try:
        before = live_mats()
        m = Mat(2, 2, 3, [1, 1, 0, 1, 0, 1])
        r, pivots = rref(m)
        assert rref(r) == (r, pivots) and rref(r)[0] is r
        assert live_mats() == before + 2
        del m, r
        assert live_mats() == before
    finally:
        if enabled:
            gc.enable()


def test_rank_nullity():
    rng = random.Random(11)
    for p in (2, 3, 7):
        for _ in range(60):
            m = rand_mat(rng, p, rng.randrange(1, 6), rng.randrange(1, 6))
            assert rank(m) + kernel_basis(m).dim == m.cols
            assert image_basis(m).dim == rank(m)


def test_kernel_f2_example():
    m = Mat(2, 1, 2, [1, 1])
    ker = kernel_basis(m)
    assert ker.dim == 1
    assert ker.basis.row_list() == [(1, 1)]


def test_kernel_vectors_are_killed():
    rng = random.Random(13)
    for p in (2, 5):
        for _ in range(30):
            m = rand_mat(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))
            ker = kernel_basis(m)
            for i in range(ker.dim):
                assert all(x == 0 for x in m.apply(ker.basis.row(i)))


def test_solve_f2_example():
    a = Mat(2, 1, 2, [1, 1])
    b = Mat(2, 1, 1, [1])
    x = solve(a, b)
    assert x is not None
    assert x.col(0) == (1, 0)


def test_solve_agrees_with_exhaustive_search_over_f2():
    # Every 2x2 system over F_2, checked against brute force.
    for adata in all_vectors(2, 4):
        a = Mat(2, 2, 2, adata)
        for bdata in all_vectors(2, 2):
            b = Mat(2, 2, 1, bdata)
            brute = [v for v in all_vectors(2, 2) if a.apply(v) == b.col(0)]
            x = solve(a, b)
            if brute:
                assert x is not None
                assert a.apply(x.col(0)) == b.col(0)
            else:
                assert x is None


def test_solve_multiple_right_hand_sides():
    rng = random.Random(17)
    for p in (2, 3):
        for _ in range(40):
            a = rand_mat(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))
            xtrue = rand_mat(rng, p, a.cols, 2)
            b = a @ xtrue
            x = solve(a, b)
            assert x is not None
            assert a @ x == b


@pytest.mark.parametrize("p", [2, 3])
def test_solve_is_exact_or_none(p):
    # The oracle that lets callers trust solve without re-multiplying:
    # a returned x satisfies a @ x == b, and None means b leaves the
    # column space of a.
    rng = random.Random(23 + p)
    cases = [
        # The action-unstable case of a submodule: the span of the top
        # of P1 over A2 cannot absorb the image of the arrow.
        (Mat(p, 2, 1, [1, 0]), Mat(p, 2, 1, [0, 1])),
    ]
    for _ in range(200):
        rows, cols, rhs = (rng.randrange(0, 5) for _ in range(3))
        a = rand_mat(rng, p, rows, cols)
        if rng.randrange(2) and cols:
            # Rank-deficient: repeat a column.
            a = a.hstack(Mat(p, rows, 1, [a.entry(i, 0)
                                           for i in range(rows)]))
        cases.append((a, rand_mat(rng, p, rows, rhs)))
    for a, b in cases:
        x = solve(a, b)
        if x is None:
            assert rank(a.hstack(b)) > rank(a)
        else:
            assert (x.rows, x.cols) == (a.cols, b.cols)
            assert a @ x == b
    assert solve(*cases[0]) is None


def _eliminating_solve(a, b):
    """The elimination of [a | b] that solve runs when some column of a
    has no unit row, verbatim: the oracle for the row read."""
    if a.p != b.p or a.rows != b.rows:
        raise ValueError("shape or field mismatch in solve")
    reduced, pivots = rref(a.hstack(b))
    for i in range(len(pivots)):
        if pivots[i] >= a.cols:
            return None
    data = [0] * (a.cols * b.cols)
    for i, c in enumerate(pivots):
        for j in range(b.cols):
            data[c * b.cols + j] = reduced.entry(i, a.cols + j)
    return Mat(a.p, a.cols, b.cols, data)


def _planted_unit_rows(rng, p, cols):
    """Rows e_0 .. e_(cols-1), some repeated, among random rows, in a
    random order."""
    rows = [tuple(int(i == j) for i in range(cols)) for j in range(cols)]
    rows += [rng.choice(rows) for _ in range(rng.randrange(3)) if rows]
    rows += [tuple(rng.randrange(p) for _ in range(cols))
             for _ in range(rng.randrange(4))]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", [2, 3, 251])
def test_row_read_matches_the_elimination(p):
    rng = random.Random(29 + p)
    read = eliminated = none = 0
    for _ in range(300):
        cols = rng.randrange(5)
        rows = _planted_unit_rows(rng, p, cols)
        if cols and rng.randrange(2):
            # Column j loses every unit row, so the elimination runs.
            j = rng.randrange(cols)
            unit = tuple(int(i == j) for i in range(cols))
            for t, r in enumerate(rows):
                while r == unit:
                    r = tuple(rng.randrange(p) for _ in range(cols))
                rows[t] = r
        if not rng.randrange(10):
            rows = []
        a = Mat.from_rows(p, rows, cols=cols)
        k = rng.randrange(3)
        if rng.randrange(2):
            b = a @ rand_mat(rng, p, cols, k)
        else:
            b = rand_mat(rng, p, a.rows, k)
        if _unit_rows(a) is None:
            eliminated += 1
        else:
            read += 1
        x = solve(a, b)
        none += x is None
        assert x == _eliminating_solve(a, b)
    assert read > 50 and eliminated > 50 and none > 20


def test_pullback_identity_pair_over_f2():
    one = Mat.identity(2, 1)
    pb = pullback_linear(one, one)
    assert pb.dim == 1
    assert pb.basis.row_list() == [(1, 1)]


def test_pullback_agrees_with_brute_force():
    rng = random.Random(23)
    for p in (2, 3):
        for _ in range(25):
            w = rng.randrange(1, 3)
            u = rng.randrange(1, 3)
            v = rng.randrange(1, 3)
            f = rand_mat(rng, p, w, u)
            g = rand_mat(rng, p, w, v)
            pb = pullback_linear(f, g)
            brute = [
                uv
                for uv in all_vectors(p, u + v)
                if f.apply(uv[:u]) == g.apply(uv[u:])
            ]
            for vec in brute:
                assert pb.contains(vec)
            assert p ** pb.dim == len(brute)


def test_subspace_equality_is_rref_equality():
    s1 = Subspace(2, 3, [(1, 1, 0), (0, 1, 1)])
    s2 = Subspace(2, 3, [(1, 0, 1), (1, 1, 0), (0, 1, 1)])
    assert s1 == s2
    assert s1.contains((1, 0, 1))
    assert not s1.contains((1, 0, 0))


def test_subspace_sum_and_intersection():
    rng = random.Random(29)
    for p in (2, 3):
        for _ in range(25):
            n = 4
            a = Subspace(p, n, [rand_mat(rng, p, 1, n).row(0) for _ in range(2)])
            b = Subspace(p, n, [rand_mat(rng, p, 1, n).row(0) for _ in range(2)])
            meet = a.intersect(b)
            join = a.sum_with(b)
            assert meet.dim + join.dim == a.dim + b.dim
            for i in range(meet.dim):
                v = meet.basis.row(i)
                assert a.contains(v) and b.contains(v)
            assert join.contains_space(a) and join.contains_space(b)



def _complement_by_loop(v, r):
    """One Subspace per basis vector of v: the greedy extension that
    complement_in replaced with a single reduction."""
    if not v.contains_space(r):
        raise ValueError("r is not contained in v")
    cur = r
    out = []
    for i in range(v.dim):
        vec = v.basis.row(i)
        if any(cur.reduce(vec)):
            out.append(vec)
            cur = cur.sum_with(Subspace(v.p, v.ambient, [vec]))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_complement_in_matches_the_greedy_loop(p):
    rng = random.Random(43 + p)
    for _ in range(60):
        n = rng.randrange(0, 6)
        v = Subspace(p, n, [rand_mat(rng, p, 1, n).row(0)
                            for _ in range(rng.randrange(0, n + 1))])
        # r spanned by combinations of v's basis, so that r lies in v.
        r = Subspace(p, n, [(rand_mat(rng, p, 1, v.dim) @ v.basis).row(0)
                            for _ in range(rng.randrange(0, v.dim + 1))])
        got = complement_in(v, r)
        assert got == _complement_by_loop(v, r)
        assert len(got) == v.dim - r.dim
        assert r.sum_with(Subspace(p, n, got)) == v
        if v.dim > r.dim:
            with pytest.raises(ValueError, match="not contained"):
                complement_in(r, v)

def test_quotient_maps_contract():
    rng = random.Random(31)
    for p in (2, 3):
        for _ in range(25):
            n = rng.randrange(1, 6)
            s = Subspace(p, n, [rand_mat(rng, p, 1, n).row(0)
                                for _ in range(rng.randrange(0, n + 1))])
            proj, sect = quotient_maps(s)
            assert proj.rows == n - s.dim
            assert proj @ sect == Mat.identity(p, n - s.dim)
            assert kernel_basis(proj) == s


def test_construction_reduces_mod_p():
    a = Mat(3, 1, 3, [-1, 7, 3])
    b = Mat(3, 1, 3, [2, 1, 0])
    assert a == b
    assert a.data == (2, 1, 0)
    assert hash(a) == hash(b)


def test_from_cols_is_the_transposed_from_rows():
    cols = [(1, 2, 0), (0, 1, 1)]
    assert Mat.from_cols(3, cols, 3) == Mat.from_rows(3, cols).transpose()
    assert Mat.from_cols(3, [], 2) == Mat.zeros(3, 2, 0)
    assert Mat.from_cols(3, [(), ()], 0) == Mat.zeros(3, 0, 2)


def _reduced(m, p):
    return all(0 <= x < p for x in m.data)


@pytest.mark.parametrize("p", [2, 3, 251])
def test_combine_is_the_schoolbook_sum(p):
    rng = random.Random(53 + p)
    for _ in range(60):
        size, k = rng.randrange(0, 7), rng.randrange(0, 5)
        vecs = [tuple(rng.randrange(p) for _ in range(size)) for _ in range(k)]
        # Zero coefficients, also as multiples of p, and unreduced ones.
        coeffs = [rng.choice((0, p, rng.randrange(-2 * p, 2 * p)))
                  for _ in range(k)]
        want = tuple(sum(c * v[j] for c, v in zip(coeffs, vecs)) % p
                     for j in range(size))
        assert combine(p, size, coeffs, vecs) == want
    # An empty basis gives the zero vector of the stated size.
    assert combine(p, 3, [], []) == (0, 0, 0)
    assert combine(p, 0, [], []) == ()
    # Matrices pass their data, zero-size ones included.
    a, b = rand_mat(rng, p, 2, 3), rand_mat(rng, p, 2, 3)
    assert Mat(p, 2, 3, combine(p, 6, [1, p - 1], [a.data, b.data])) == a - b
    assert combine(p, 0, [1, 1], [Mat.zeros(p, 0, 3).data,
                                  Mat.zeros(p, 2, 0).data]) == ()


def test_kron_oracle_vectorizes_products():
    # The tests' Kronecker oracle: vec(A X B) = kron(A, B^T) vec(X) with
    # X flattened row-major.
    rng = random.Random(59)
    for p in (2, 3, 251):
        for _ in range(10):
            m, n, k, l = (rng.randrange(0, 4) for _ in range(4))
            a, x, b = rand_mat(rng, p, m, n), rand_mat(rng, p, n, k), \
                rand_mat(rng, p, k, l)
            assert kron(a, b.transpose()).apply(x.data) == (a @ x @ b).data


@pytest.mark.parametrize("p", [2, 3, 251])
def test_outputs_are_reduced(p):
    rng = random.Random(41 + p)

    def raw(rows, cols):
        # Entries on both sides of [0, p), so construction must reduce.
        return Mat(p, rows, cols,
                   [rng.randrange(-2 * p, 2 * p) for _ in range(rows * cols)])

    for _ in range(20):
        m, n, k = (rng.randrange(0, 5) for _ in range(3))
        a, a_alt, b, c = raw(m, n), raw(m, n), raw(n, k), raw(m, k)
        outs = [
            a @ b, a + a_alt, a - a_alt, a.scale(rng.randrange(-p, 2 * p)),
            -a, a.transpose(), a.hstack(c), a.vstack(a_alt), rref(a)[0],
        ]
        x = solve(a, c)
        if x is not None:
            outs.append(x)
        for out in outs:
            assert _reduced(out, p), out
        vecs = [[rng.randrange(-2 * p, 2 * p) for _ in range(n)]
                for _ in range(rng.randrange(0, 4))]
        s = Subspace(p, n, vecs)
        proj, sect = quotient_maps(s)
        for out in (s.basis, proj, sect):
            assert _reduced(out, p), out


def _schoolbook(p, m, n, k, a, b):
    return [sum(a[i * n + t] * b[t * k + j] for t in range(n)) % p
            for i in range(m) for j in range(k)]


def _gauss_jordan(p, rows, cols, data):
    """Reduced row echelon form by elimination on a list of rows."""
    a = [[x % p for x in data[i * cols : (i + 1) * cols]] for i in range(rows)]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return [x for row in a for x in row], pivots


def test_backends_agree():
    # The kernels against references written here, both as exported by
    # quivertilt.kernels and as the module that implements them.
    for impl in (_pure, kernels):
        _check_against_references(impl)


def _check_against_references(impl):
    rng = random.Random(37)
    for p in (2, 3, 251):
        shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)]
        shapes += [tuple(rng.randrange(1, 7) for _ in range(3))
                   for _ in range(40)]
        for m, n, k in shapes:
            # Sparse entries too, so that rank-deficient cases occur.
            a = [rng.choice((0, 0, rng.randrange(p))) for _ in range(m * n)]
            b = [rng.randrange(p) for _ in range(n * k)]
            assert list(impl.mat_mul(p, m, n, k, a, b)) == \
                _schoolbook(p, m, n, k, a, b)
            got = impl.rref(p, m, n, a)
            assert (list(got[0]), list(got[1])) == _gauss_jordan(p, m, n, a)
