"""Exact dense linear algebra over prime fields F_p.

Conventions used throughout the package:

* a linear map F_p^n -> F_p^m is an m-by-n matrix acting on column
  vectors, so composition is matrix product;
* elements of a space are row vectors, and a subspace is stored by a
  basis matrix whose rows are in reduced row echelon form, which makes
  equality of subspaces plain equality of matrices.

``solve(a, b)`` reads the solution off the rows of b when every column j
of a has a row equal to e_j, which holds for every inclusion built from
a reduced basis and every transposed quotient projection; such an a has
full column rank, so the result is the elimination's.  Other systems
are solved by reducing [a | b].

Everything is immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from . import kernels

_SMALL_PRIMES = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
}


class Field:
    """A prime field F_p with p <= 251."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p not in _SMALL_PRIMES:
            raise ValueError(f"field order must be a prime <= 251, got {p}")
        self.p = p

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.p - 2, self.p)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return f"Field({self.p})"


class Mat:
    """An immutable matrix over F_p, stored as a flat row-major tuple."""

    __slots__ = ("p", "rows", "cols", "data", "_rref", "_hash")

    def __init__(self, p: int, rows: int, cols: int, data: Iterable[int]):
        self.p = p
        self.rows = rows
        self.cols = cols
        data = tuple(data)
        # Reduce only when some entry lies outside [0, p): most callers
        # pass kernel output or slices of existing matrices, which are
        # reduced already, and min/max find that without a Python loop.
        if data and (min(data) < 0 or max(data) >= p):
            data = tuple(x % p for x in data)
        if len(data) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(data)}"
            )
        self.data = data
        # (reduced form, pivots); the form is None on a matrix that is
        # its own reduction, which keeps no reference to itself.
        self._rref: Optional[tuple[Optional[Mat], tuple[int, ...]]] = None
        self._hash: Optional[int] = None

    # A zero and an identity matrix are born reduced: each is its own
    # reduced echelon form, with no pivot and every pivot respectively.

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "Mat":
        m = cls(p, rows, cols, (0,) * (rows * cols))
        m._rref = (None, ())
        return m

    @classmethod
    def identity(cls, p: int, n: int) -> "Mat":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        m = cls(p, n, n, data)
        m._rref = (None, tuple(range(n)))
        return m

    @classmethod
    def from_rows(cls, p: int, rows: Iterable[Iterable[int]], cols: Optional[int] = None) -> "Mat":
        rows = [tuple(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("cols required for an empty row list")
            ncols = cols
        flat = [x for r in rows for x in r]
        return cls(p, len(rows), ncols, flat)

    @classmethod
    def from_cols(cls, p: int, cols: list[tuple[int, ...]], rows: int) -> "Mat":
        """The rows-by-len(cols) matrix with the given columns."""
        return cls(p, rows, len(cols),
                   [c[i] for i in range(rows) for c in cols])

    def entry(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def transpose(self) -> "Mat":
        data = [0] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                data[j * self.rows + i] = self.data[i * self.cols + j]
        return Mat(self.p, self.cols, self.rows, data)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("shape or field mismatch in product")
        data = kernels.mat_mul(
            self.p, self.rows, self.cols, other.cols, self.data, other.data
        )
        return Mat(self.p, self.rows, other.cols, data)

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        p = self.p
        return Mat(p, self.rows, self.cols,
                   [(x + y) % p for x, y in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        p = self.p
        return Mat(p, self.rows, self.cols,
                   [(x - y) % p for x, y in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return Mat(self.p, self.rows, self.cols, [-x % self.p for x in self.data])

    def scale(self, c: int) -> "Mat":
        p = self.p
        return Mat(p, self.rows, self.cols, [c * x % p for x in self.data])

    def apply(self, v: Iterable[int]) -> tuple[int, ...]:
        """Apply the column-vector map to a row-encoded vector."""
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.p
        return tuple(
            sum(self.data[i * self.cols + j] * v[j] for j in range(self.cols)) % p
            for i in range(self.rows)
        )

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.p != other.p:
            raise ValueError("hstack mismatch")
        a, b = self.data, other.data
        ca, cb = self.cols, other.cols
        flat: list[int] = []
        for i in range(self.rows):
            flat += a[i * ca : (i + 1) * ca]
            flat += b[i * cb : (i + 1) * cb]
        return Mat(self.p, self.rows, ca + cb, flat)

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols or self.p != other.p:
            raise ValueError("vstack mismatch")
        return Mat(self.p, self.rows + other.rows, self.cols, self.data + other.data)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def _check_same_shape(self, other: "Mat") -> None:
        if self.p != other.p or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape or field mismatch")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Mat)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.p, self.rows, self.cols, self.data))
        return self._hash

    def __repr__(self) -> str:
        return f"Mat({self.p}, {self.rows}x{self.cols}, {list(self.row_list())})"


def combine(p: int, size: int, coeffs: Iterable[int],
            vectors: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """The linear combination sum_k c_k v_k over F_p of flat vectors of
    the given size (matrices pass their data).  Terms with a zero
    coefficient are skipped; the others are summed into one list, and
    each entry is reduced once at the end."""
    out = None
    for c, v in zip(coeffs, vectors):
        if c % p:
            out = ([c * x for x in v] if out is None
                   else [a + c * x for a, x in zip(out, v)])
    if out is None:
        return (0,) * size
    return tuple([a % p for a in out])


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form of m and its pivot columns."""
    if m._rref is None:
        data, pivots = kernels.rref(m.p, m.rows, m.cols, m.data)
        pivots = tuple(pivots)
        out = Mat(m.p, m.rows, m.cols, data)
        out._rref = (None, pivots)
        m._rref = (out, pivots)
    out, pivots = m._rref
    return (m if out is None else out), pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


class Subspace:
    """A subspace of F_p^n held by a reduced-echelon row basis."""

    __slots__ = ("p", "ambient", "basis", "pivots", "_hash")

    def __init__(self, p: int, ambient: int, vectors: Iterable[Iterable[int]]):
        flat: list[int] = []
        count = 0
        for v in vectors:
            start = len(flat)
            flat += v
            if len(flat) - start != ambient:
                raise ValueError("vector does not match ambient dimension")
            count += 1
        reduced, pivots = rref(Mat(p, count, ambient, flat))
        self.p = p
        self.ambient = ambient
        # The nonzero rows of a reduced echelon form come first.
        self.basis = Mat(p, len(pivots), ambient,
                         reduced.data[: len(pivots) * ambient])
        self.pivots = pivots
        self._hash: Optional[int] = None

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, [])

    @classmethod
    def full(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, Mat.identity(p, ambient).row_list())

    @property
    def dim(self) -> int:
        return self.basis.rows

    def reduce(self, v: Iterable[int]) -> tuple[int, ...]:
        """Normal form of v modulo the subspace (zero iff contained)."""
        v = list(x % self.p for x in v)
        if len(v) != self.ambient:
            raise ValueError("vector does not match ambient dimension")
        p = self.p
        for i, c in enumerate(self.pivots):
            x = v[c]
            if x:
                row = self.basis.row(i)
                for j in range(c, self.ambient):
                    v[j] = (v[j] - x * row[j]) % p
        return tuple(v)

    def contains(self, v: Iterable[int]) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def coords(self, v: Iterable[int]) -> tuple[int, ...]:
        """Coefficients of v in the echelon basis; v must be contained.

        Because the basis is fully reduced, the coefficient of row i is
        just the entry of v at that row's pivot column.
        """
        v = tuple(x % self.p for x in v)
        out = tuple(v[c] for c in self.pivots)
        if not self.contains(v):
            raise ValueError("vector is not in the subspace")
        return out

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(other.basis.row(i)) for i in range(other.dim))

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.p, self.ambient,
                        self.basis.row_list() + other.basis.row_list())

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.p, self.ambient)
        # Solve x*A = y*B; columns of the stacked transpose are the unknowns.
        stacked = self.basis.transpose().hstack(-other.basis.transpose())
        coeffs = kernel_basis(stacked)
        rows = self.basis.row_list()
        return Subspace(self.p, self.ambient,
                        [combine(self.p, self.ambient,
                                 coeffs.basis.row(i)[: self.dim], rows)
                         for i in range(coeffs.dim)])

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient != other.ambient:
            raise ValueError("subspaces live in different spaces")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.p, self.ambient, self.basis))
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"


def kernel_basis(m: Mat) -> Subspace:
    """Right kernel {v : m v^T = 0} as a subspace of F_p^cols."""
    reduced, pivots = rref(m)
    p = m.p
    cols = m.cols
    data = reduced.data
    free_cols = [j for j in range(cols) if j not in pivots]
    vecs = []
    for j in free_cols:
        v = [0] * cols
        v[j] = 1
        for i, c in enumerate(pivots):
            v[c] = -data[i * cols + j] % p
        vecs.append(v)
    return Subspace(p, cols, vecs)


def image_basis(m: Mat) -> Subspace:
    """Column space of m as a subspace of F_p^rows."""
    return Subspace(m.p, m.rows, m.transpose().row_list())


def _unit_rows(a: Mat) -> Optional[list[int]]:
    """For each column j of a, the first row equal to the unit vector
    e_j; None if some column has no such row."""
    cols = a.cols
    data = a.data
    at: list[Optional[int]] = [None] * cols
    found = 0
    for i in range(a.rows):
        row = data[i * cols : (i + 1) * cols]
        if row.count(0) == cols - 1 and 1 in row:
            j = row.index(1)
            if at[j] is None:
                at[j] = i
                found += 1
                if found == cols:
                    break
    if found < cols:
        return None
    return at  # type: ignore[return-value]


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """One solution x of a x = b with free variables set to zero, or None.

    When every column j of a has a row equal to the unit vector e_j (as
    for the inclusion of a subspace by its transposed reduced basis, or
    a transposed quotient projection), row i of a x is row j of x for
    such a row i.  So x can only be the rows of b at those positions: it
    is read off and returned if a x = b, else None.  Such an a has full
    column rank, so this x is the unique solution and the result is the
    one the elimination of [a | b] gives.  Other systems are eliminated.
    """
    if a.p != b.p or a.rows != b.rows:
        raise ValueError("shape or field mismatch in solve")
    units = _unit_rows(a)
    if units is not None:
        return _solve_by_unit_rows(a, b, units)
    reduced, pivots = rref(a.hstack(b))
    for i in range(len(pivots)):
        if pivots[i] >= a.cols:
            return None
    data = [0] * (a.cols * b.cols)
    for i, c in enumerate(pivots):
        for j in range(b.cols):
            data[c * b.cols + j] = reduced.entry(i, a.cols + j)
    return Mat(a.p, a.cols, b.cols, data)


def _solve_by_unit_rows(a: Mat, b: Mat, units: list[int]) -> Optional[Mat]:
    """solve(a, b) when row units[j] of a is e_j for every column j."""
    n, k = a.cols, b.cols
    ad, bd = a.data, b.data
    x: list[int] = []
    for i in units:
        x += bd[i * k : (i + 1) * k]
    # The rows at units agree by construction; a x = b on the others
    # is one product.
    chosen = set(units)
    rest = [i for i in range(a.rows) if i not in chosen]
    if rest:
        lhs: list[int] = []
        rhs: list[int] = []
        for i in rest:
            lhs += ad[i * n : (i + 1) * n]
            rhs += bd[i * k : (i + 1) * k]
        if kernels.mat_mul(a.p, len(rest), n, k, lhs, x) != rhs:
            return None
    return Mat(a.p, n, k, x)


def pullback_linear(f: Mat, g: Mat) -> Subspace:
    """Pairs (u, v) with f u = g v, as a subspace of F_p^(f.cols+g.cols)."""
    if f.p != g.p or f.rows != g.rows:
        raise ValueError("maps must share their codomain")
    return kernel_basis(f.hstack(-g))


def quotient_maps(s: Subspace) -> tuple[Mat, Mat]:
    """Projection and section matrices for the quotient F_p^n / s.

    Returns (proj, sect) with proj of shape (n - dim s) x n and sect of
    shape n x (n - dim s), such that proj @ sect is the identity and the
    kernel of proj is exactly s.  Quotient coordinates are read off the
    non-pivot positions of the reduced basis of s.
    """
    n = s.ambient
    p = s.p
    basis = s.basis.data
    free = [j for j in range(n) if j not in s.pivots]
    q = len(free)
    proj = [0] * (q * n)
    sect = [0] * (n * q)
    for t, j in enumerate(free):
        proj[t * n + j] = 1
        for i, c in enumerate(s.pivots):
            proj[t * n + c] = -basis[i * n + j] % p
        sect[j * q + t] = 1
    return Mat(p, q, n, proj), Mat(p, n, q, sect)


def complement_in(v: Subspace, r: Subspace) -> list[tuple[int, ...]]:
    """Vectors from v extending a basis of r to one of v (r must lie in v).

    One reduction of the matrix whose columns are r's basis and then
    v's: a basis vector of v is kept when its column is a pivot, that
    is, when it is not in the span of r and the vectors of v before it.
    """
    v._check_compatible(r)
    cols = r.basis.vstack(v.basis).transpose()
    pivots = rref(cols)[1]
    if len(pivots) != v.dim:
        raise ValueError("r is not contained in v")
    return [v.basis.row(c - r.dim) for c in pivots if c >= r.dim]


def all_vectors(p: int, n: int):
    """Iterate over all of F_p^n in lexicographic order."""
    v = [0] * n
    while True:
        yield tuple(v)
        i = n - 1
        while i >= 0 and v[i] == p - 1:
            v[i] = 0
            i -= 1
        if i < 0:
            return
        v[i] += 1
