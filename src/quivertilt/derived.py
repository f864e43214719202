"""Resolutions and morphisms in the bounded derived category.

Hom dimensions come from Happel's split formula, `stalk_hom_dim`, over
lists of (degree, module) stalks.  Over a hereditary algebra every
bounded complex is isomorphic in D^b to the sum of its shifted
cohomologies (Happel, LMS LN 119, 1988), so `derived_hom_dim` reads
dim Hom_D(x, y) off the cohomology modules of x and y, their hom
dimensions and the Euler form.  It does so only behind a certificate of
global dimension at most one, kept on the algebra, and raises
NotHereditary on any other algebra, with no fallback.

Morphisms are chain maps.  A morphism x -> y is represented by a chain
map from the canonical projective resolution of x to y; equality is
equality up to homotopy, composition lifts representatives through
quasi-isomorphisms by solving the corresponding linear systems, and
isomorphy is quasi-isomorphy of the representative.  `derived_hom0`
builds a basis of Hom_D(x, y) this way; its dimension is the
independent oracle for the split formula.  Everything stays exact: a
lift either exists and is found, or an assertion fires.  The chain maps
built here commute by construction and are not checked as they are
built; `ChainMap.check` verifies one on request.

Each complex has one projective resolution, and `lift_postcompose` is
the only lift.  The rule "a lift through an identity is the map itself,
at no solve" lives there alone, so composing through a complex of
projectives, which is its own resolution, costs no solve either.  There
are no injective coresolutions: `tiltbridge` reads the heart's right
section, the one right-derived construction, on objects through the
k-dual `dual_complex`, which takes a complex to the opposite algebra,
and certifies it on the dual side, where it is left-derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .algebras import Algebra, opposite_algebra
from .complexes import (
    ChainMap,
    Complex,
    apply_functor,
    cohomology,
    is_quasi_iso,
)
from .linalg import Mat, Subspace, combine, complement_in, kernel_basis, solve
from .modules import (
    Module,
    ModuleMap,
    dual_map,
    dual_module,
    ext1_basis,
    fiber_product,
    hom_basis,
    hom_dim,
    hom_space,
    is_projective,
    kernel,
    projective_cover,
    simple_module,
    syzygy,
)


# -- resolutions --

def _is_projective_complex(c: Complex) -> bool:
    return all(is_projective(m) for m in c.components)


@lru_cache(maxsize=None)
def projective_resolution(c: Complex) -> tuple[Complex, ChainMap]:
    """A bounded complex of projectives with a quasi-isomorphism onto c.

    Built from the top degree downwards: each term covers the fiber
    product of the incoming differential with the cycles constructed so
    far, and the bottom is capped, two degrees below the lowest degree
    of c, by the kernel of the last differential.  The length is fixed
    because it always suffices: over a hereditary algebra submodules of
    projectives are projective (Happel, LMS LN 119, 1988), so the term
    one degree below c covers a projective module, the cap is zero, and
    a longer resolution would only append zero terms.  The cap is
    projective precisely in the hereditary situations this package
    works in; anything else fails loudly.  A complex that already
    consists of projectives is its own resolution.
    """
    if c.is_zero() or _is_projective_complex(c):
        return c, ChainMap.identity(c)
    alg = c.algebra
    hi = c.hi
    bottom = c.lo - 2
    comps: dict[int, Module] = {}
    dmaps: dict[int, ModuleMap] = {}
    smaps: dict[int, ModuleMap] = {}
    comps[hi], smaps[hi] = projective_cover(c.component(hi))
    dmaps[hi] = ModuleMap.zero(comps[hi], Module.zero(alg))
    for n in range(hi - 1, bottom, -1):
        cyc, kappa = kernel(dmaps[n + 1])
        u = smaps[n + 1].compose(kappa)
        fib, p_cyc, p_c = fiber_product(u, c.diff(n))
        comps[n], cover = projective_cover(fib)
        smaps[n] = p_c.compose(cover)
        dmaps[n] = kappa.compose(p_cyc).compose(cover)
    cap, kappa = kernel(dmaps[bottom + 1])
    if cap.dim and not is_projective(cap):
        raise ValueError("resolution cap is not projective; "
                         "the algebra is not hereditary")
    comps[bottom] = cap
    dmaps[bottom] = kappa
    smaps[bottom] = ModuleMap.zero(cap, c.component(bottom))
    res = Complex(alg, bottom, [comps[n] for n in range(bottom, hi + 1)],
                  [dmaps[n] for n in range(bottom, hi)])
    comparison = ChainMap(res, c, {n: smaps[n] for n in range(bottom, hi + 1)})
    assert is_quasi_iso(comparison), "resolution comparison map failed"
    return res, comparison


def dual_complex(c: Complex) -> Complex:
    """The linear dual over the opposite algebra, with degrees negated,
    built once per complex.  The two are linked, so the dual of the dual
    is c itself."""
    if c._dual is None:
        op = opposite_algebra(c.algebra)
        comps = [dual_module(c.component(-i))
                 for i in range(-c.hi, -c.lo + 1)]
        diffs = [dual_map(c.diff(-i - 1)) for i in range(-c.hi, -c.lo)]
        d = Complex(op, -c.hi, comps, diffs) if comps else Complex.zero(op)
        d._dual = c
        c._dual = d
    return c._dual


# -- graded map coordinates --

class _MapGrid:
    """Coordinates on the space of degree-shift graded module maps
    between two bounded complexes."""

    def __init__(self, x: Complex, y: Complex, shift: int):
        self.x = x
        self.y = y
        self.shift = shift
        self.p = x.algebra.field.p
        self.degrees: list[int] = []
        self.bases: dict[int, list[ModuleMap]] = {}
        self.offsets: dict[int, int] = {}
        total = 0
        for i in range(x.lo, x.hi + 1):
            src = x.component(i)
            tgt = y.component(i + shift)
            if src.dim == 0 or tgt.dim == 0:
                continue
            hb = hom_basis(src, tgt)
            if not hb:
                continue
            self.degrees.append(i)
            self.bases[i] = hb
            self.offsets[i] = total
            total += len(hb)
        self.dim = total

    def comps_from(self, vec) -> dict[int, ModuleMap]:
        comps = {}
        for i in self.degrees:
            basis = self.bases[i]
            coeffs = vec[self.offsets[i]:self.offsets[i] + len(basis)]
            if any(coeffs):
                comps[i] = ModuleMap.combination(
                    self.x.component(i), self.y.component(i + self.shift),
                    coeffs, basis)
        return comps

    def coords_of(self, comps: dict[int, ModuleMap]) -> tuple[int, ...]:
        vec = [0] * self.dim
        for i, f in comps.items():
            if f.is_zero():
                continue
            if i not in self.offsets:
                raise ValueError(f"nonzero component at impossible degree {i}")
            coords = hom_space(self.x.component(i),
                               self.y.component(i + self.shift)).coords(f.mat.data)
            vec[self.offsets[i]:self.offsets[i] + len(coords)] = coords
        return tuple(vec)


def _add_equation(rows, rhs, width, nentries, terms, rhs_flat, p) -> None:
    """Append the rows of one matrix equation.

    terms is a list of (offset, flats): flats[k] is the flat coefficient
    vector multiplying unknown offset+k; rhs_flat is the flat right-hand
    side (None for zero).
    """
    for e in range(nentries):
        row = [0] * width
        for off, flats in terms:
            for k, fl in enumerate(flats):
                if fl[e]:
                    row[off + k] = (row[off + k] + fl[e]) % p
        rows.append(row)
        rhs.append(rhs_flat[e] if rhs_flat is not None else 0)


def _square_terms(grid: _MapGrid, rows, rhs, width: int, off: int) -> None:
    """Chain-map conditions d_y g - g d_x = 0 for a shift-0 grid whose
    unknowns start at column off of a width-column system."""
    x, y, p = grid.x, grid.y, grid.p
    for i in range(x.lo, x.hi + 1):
        n = x.component(i).dim * y.component(i + 1).dim
        if n == 0:
            continue
        terms = []
        if i in grid.offsets:
            flats = [(y.diff(i).mat @ h.mat).data for h in grid.bases[i]]
            terms.append((off + grid.offsets[i], flats))
        if i + 1 in grid.offsets:
            flats = [tuple(-v % p for v in (h.mat @ x.diff(i).mat).data)
                     for h in grid.bases[i + 1]]
            terms.append((off + grid.offsets[i + 1], flats))
        if terms:
            _add_equation(rows, rhs, width, n, terms, None, p)


def chain_map_space(x: Complex, y: Complex) -> tuple[_MapGrid, Subspace]:
    """All chain maps x -> y as a subspace of grid coordinates."""
    grid = _MapGrid(x, y, 0)
    rows: list[list[int]] = []
    rhs: list[int] = []
    _square_terms(grid, rows, rhs, grid.dim, 0)
    if not rows:
        return grid, Subspace.full(grid.p, grid.dim)
    return grid, kernel_basis(Mat.from_rows(grid.p, rows, cols=grid.dim))


def homotopy_boundaries(x: Complex, y: Complex, grid: _MapGrid) -> Subspace:
    """Coordinates of all null-homotopic chain maps x -> y."""
    hgrid = _MapGrid(x, y, -1)
    vecs = []
    for i in hgrid.degrees:
        for h in hgrid.bases[i]:
            comps: dict[int, ModuleMap] = {}
            upper = y.diff(i - 1).compose(h)
            if not upper.is_zero():
                comps[i] = upper
            lower = h.compose(x.diff(i - 1))
            if not lower.is_zero():
                comps[i - 1] = comps.get(i - 1, ModuleMap.zero(
                    x.component(i - 1), y.component(i - 1))) + lower
            vecs.append(grid.coords_of(comps))
    return Subspace(grid.p, grid.dim, vecs)


def _solve_homotopy(f: ChainMap, gridg: Optional[_MapGrid] = None,
                    g_flat=None) -> Optional[tuple[int, ...]]:
    """One solution of g-term + d r + r d = f, or None.

    r runs over the degree -1 graded maps f.source -> f.target.  With a
    shift-0 grid gridg, its chain maps g are unknowns too, ahead of r:
    their square conditions come first, and g_flat(i, h) is the flat
    degree-i term that the basis map h of gridg contributes.  The
    solution has free variables set to zero.
    """
    x, y = f.source, f.target
    gridr = _MapGrid(x, y, -1)
    p = gridr.p
    off = gridg.dim if gridg is not None else 0
    width = off + gridr.dim
    rows: list[list[int]] = []
    rhs: list[int] = []
    if gridg is not None:
        _square_terms(gridg, rows, rhs, width, 0)
    for i in range(x.lo, x.hi + 1):
        n = x.component(i).dim * y.component(i).dim
        if n == 0:
            continue
        terms = []
        if gridg is not None and i in gridg.offsets:
            flats = [g_flat(i, h) for h in gridg.bases[i]]
            terms.append((gridg.offsets[i], flats))
        if i in gridr.offsets:
            flats = [(y.diff(i - 1).mat @ h.mat).data for h in gridr.bases[i]]
            terms.append((off + gridr.offsets[i], flats))
        if i + 1 in gridr.offsets:
            flats = [(h.mat @ x.diff(i).mat).data for h in gridr.bases[i + 1]]
            terms.append((off + gridr.offsets[i + 1], flats))
        _add_equation(rows, rhs, width, n, terms, f.component(i).mat.data, p)
    if not rows:
        return (0,) * width
    sol = solve(Mat.from_rows(p, rows, cols=width), Mat(p, len(rhs), 1, rhs))
    return None if sol is None else sol.col(0)


def is_null_homotopic(f: ChainMap) -> bool:
    """Whether f = d r + r d for some graded map r of degree -1."""
    return _solve_homotopy(f) is not None


def _is_identity(q: ChainMap) -> bool:
    """Whether q is the identity of its source, read off the component
    matrices: each is square with reduced entries, so it is the identity
    when its diagonal holds ones and its entries sum to its size."""
    return q.source == q.target and all(
        f.mat.data[::f.mat.cols + 1].count(1) == f.mat.rows == sum(f.mat.data)
        for f in q.comps)


def lift_postcompose(q: ChainMap, f: ChainMap) -> ChainMap:
    """g with q . g homotopic to f, for f from a bounded complex of
    projectives and q a quasi-isomorphism.  Through an identity q the
    lift is f itself, returned without a solve."""
    if q.target != f.target:
        raise ValueError("lift needs a common target")
    if _is_identity(q):
        return f
    gridg = _MapGrid(f.source, q.source, 0)
    sol = _solve_homotopy(f, gridg,
                          lambda i, h: (q.component(i).mat @ h.mat).data)
    assert sol is not None, "no lift through the quasi-isomorphism"
    return ChainMap(f.source, q.source, gridg.comps_from(sol))


# -- derived morphisms --

class DerivedMorphism:
    """A derived-category morphism as a chain map from the canonical
    projective resolution of the source."""

    __slots__ = ("source", "target", "rep")

    def __init__(self, source: Complex, target: Complex, rep: ChainMap):
        res, _ = projective_resolution(source)
        if rep.source != res or rep.target != target:
            raise ValueError("representative has wrong endpoints")
        self.source = source
        self.target = target
        self.rep = rep

    @classmethod
    def from_chain_map(cls, u: ChainMap) -> "DerivedMorphism":
        res, comparison = projective_resolution(u.source)
        return cls(u.source, u.target, u.compose(comparison))

    @classmethod
    def zero(cls, source: Complex, target: Complex) -> "DerivedMorphism":
        res, _ = projective_resolution(source)
        return cls(source, target, ChainMap.zero(res, target))

    def compose(self, other: "DerivedMorphism") -> "DerivedMorphism":
        """self after other."""
        if other.target != self.source:
            raise ValueError("derived morphisms are not composable")
        _, comparison = projective_resolution(self.source)
        lifted = lift_postcompose(comparison, other.rep)
        return DerivedMorphism(other.source, self.target,
                               self.rep.compose(lifted))

    def add(self, other: "DerivedMorphism") -> "DerivedMorphism":
        return DerivedMorphism(self.source, self.target, self.rep + other.rep)

    def scale(self, c: int) -> "DerivedMorphism":
        return DerivedMorphism(self.source, self.target, self.rep.scale(c))

    def is_zero(self) -> bool:
        return is_null_homotopic(self.rep)

    def equals(self, other: "DerivedMorphism") -> bool:
        if self.source != other.source or self.target != other.target:
            return False
        return is_null_homotopic(self.rep + other.rep.scale(-1))

    def is_iso(self) -> bool:
        return is_quasi_iso(self.rep)

    def __repr__(self) -> str:
        return f"DerivedMorphism({self.source!r} -> {self.target!r})"


@dataclass(frozen=True, eq=False)
class DerivedHom:
    """Hom in degree zero between two complexes: chain maps from the
    resolution modulo homotopy, with a chosen basis of class
    representatives."""

    source: Complex
    target: Complex
    resolution: Complex
    grid: _MapGrid
    boundary_space: Subspace
    rep_coords: tuple[tuple[int, ...], ...]
    reps: tuple[ChainMap, ...]

    @property
    def dim(self) -> int:
        return len(self.reps)

    def basis(self) -> list[DerivedMorphism]:
        return [DerivedMorphism(self.source, self.target, r) for r in self.reps]

    def element(self, coeffs: Iterable[int]) -> DerivedMorphism:
        vec = combine(self.grid.p, self.grid.dim, coeffs, self.rep_coords)
        return DerivedMorphism(self.source, self.target, ChainMap(
            self.resolution, self.target, self.grid.comps_from(vec)))

    def class_coords(self, m: DerivedMorphism) -> tuple[int, ...]:
        """Coefficients of m's class in the chosen representative basis."""
        vec = self.grid.coords_of(_comps_dict(m.rep))
        p = self.grid.p
        cols = list(self.rep_coords)
        cols += [self.boundary_space.basis.row(k)
                 for k in range(self.boundary_space.dim)]
        if not cols:
            assert all(v == 0 for v in vec)
            return ()
        a = Mat.from_cols(p, cols, self.grid.dim)
        b = Mat(p, self.grid.dim, 1, vec)
        sol = solve(a, b)
        assert sol is not None, "morphism does not lie in the hom space"
        return tuple(sol.col(0)[: len(self.reps)])

    def preimage(self, into: "DerivedHom", fn,
                 target: DerivedMorphism) -> Optional[DerivedMorphism]:
        """An element g of this hom space with fn(g) = target in into,
        or None; fn must be linear."""
        p = self.grid.p
        cols = [into.class_coords(fn(b)) for b in self.basis()]
        rhs = into.class_coords(target)
        a = Mat.from_cols(p, cols, into.dim)
        sol = solve(a, Mat(p, into.dim, 1, rhs))
        return None if sol is None else self.element(sol.col(0))


def _comps_dict(f: ChainMap) -> dict[int, ModuleMap]:
    return {i: f.component(i)
            for i in range(f.lo, f.lo + len(f.comps))
            if not f.component(i).is_zero()}


@lru_cache(maxsize=None)
def derived_hom0(x: Complex, y: Complex) -> DerivedHom:
    """Degree-zero morphisms x -> y: chain maps from the resolution of x
    to y modulo homotopy."""
    res, _ = projective_resolution(x)
    grid, space = chain_map_space(res, y)
    bounds = homotopy_boundaries(res, y, grid)
    assert space.contains_space(bounds), "boundaries are not cycles"
    reps = tuple(complement_in(space, bounds))
    chain_reps = tuple(ChainMap(res, y, grid.comps_from(v)) for v in reps)
    return DerivedHom(x, y, res, grid, bounds, reps, chain_reps)


# -- the hereditary split formula --

class NotHereditary(ValueError):
    """The algebra has a simple of projective dimension above one, so
    complexes need not split into their shifted cohomologies."""


def _check_hereditary(alg: Algebra) -> tuple[tuple[int, ...], ...]:
    """Certify global dimension at most one and return the Euler form.

    The certificate is that the syzygy of every simple is projective;
    NotHereditary names the first simple that fails.  The Euler form is
    the matrix of <a, b> = sum_kl a_k (delta_kl - dim Ext^1(S_k, S_l)) b_l
    on dimension vectors.  Both are computed on first use and kept on
    the algebra.
    """
    if alg._euler_form is None:
        simples = [simple_module(alg, pos) for pos in range(len(alg.idem))]
        for s, e in zip(simples, alg.idem):
            omega, _, _ = syzygy(s)
            if not is_projective(omega):
                raise NotHereditary(f"the simple at {alg.labels[e]} has "
                                    "projective dimension above one")
        alg._euler_form = tuple(
            tuple(int(k == l) - ext1_basis(s, t).dim
                  for l, t in enumerate(simples))
            for k, s in enumerate(simples))
    return alg._euler_form


def _stalks(c: Complex) -> list[tuple[int, Module]]:
    """The nonzero cohomologies of c, with their degrees."""
    return [(i, h) for i in c.degrees() if (h := cohomology(c, i)).dim]


def stalk_hom_dim(xs: Sequence[tuple[int, Module]],
                  ys: Sequence[tuple[int, Module]]) -> int:
    """dim Hom_D(X, Y) for X the sum of the stalks M[-i] over (i, M) in
    xs and Y likewise over ys, each degree listed at most once: Happel's
    split formula.  Ext^2 vanishes over a hereditary algebra, so

        dim Hom_D(X, Y) = sum_i dim Hom(X_i, Y_i)
                          + sum_i dim Ext^1(X_i, Y_(i-1)).

    The Ext term comes from the Euler form of `_check_hereditary`:
    dim Ext^1(M, N) = dim Hom(M, N) - <dim M, dim N>.  With both lists
    nonempty it raises NotHereditary unless the algebra has global
    dimension at most one; there is no fallback.
    """
    if not xs or not ys:
        return 0
    euler = _check_hereditary(xs[0][1].algebra)
    hy = dict(ys)
    total = 0
    for i, m in xs:
        n = hy.get(i)
        if n is not None:
            total += hom_dim(m, n)
        n = hy.get(i - 1)
        if n is not None:
            total += _ext1_dim(m, n, euler)
    return total


def derived_hom_dim(x: Complex, y: Complex) -> int:
    """dim Hom_D(x, y): `stalk_hom_dim` on the cohomology stalks of x and
    y.  Over a hereditary algebra every bounded complex is isomorphic in
    D^b to the sum of its shifted cohomologies (Happel, LMS LN 119,
    1988), so that is exact.  Raises NotHereditary unless the algebra has
    global dimension at most one, acyclic complexes included.
    `derived_hom0(x, y).dim` is the same number computed from chain maps
    modulo homotopy."""
    _check_hereditary(x.algebra)
    return stalk_hom_dim(_stalks(x), _stalks(y))


def _ext1_dim(m: Module, n: Module,
              euler: tuple[tuple[int, ...], ...]) -> int:
    """dim Ext^1(m, n) = dim Hom(m, n) - <dim m, dim n>, by the Euler
    form that `_check_hereditary` returns."""
    a, b = m.vertex_dims(), n.vertex_dims()
    return hom_dim(m, n) - sum(a_k * c * b_l
                               for a_k, row in zip(a, euler)
                               for c, b_l in zip(row, b))


def transport_exact(fun, m: DerivedMorphism) -> DerivedMorphism:
    """Image of a derived morphism under an exact additive functor."""
    from .complexes import apply_functor_map

    res, comparison = projective_resolution(m.source)
    fx = apply_functor(fun, m.source)
    f_rep = apply_functor_map(fun, m.rep)
    _, cmp2 = projective_resolution(fx)
    if res == m.source:
        lifted = cmp2
    else:
        f_cmp = apply_functor_map(fun, comparison)
        assert is_quasi_iso(f_cmp), "functor failed to preserve the resolution"
        lifted = lift_postcompose(f_cmp, cmp2)
    return DerivedMorphism(fx, apply_functor(fun, m.target),
                           f_rep.compose(lifted))
