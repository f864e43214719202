"""Bounded cochain complexes of modules, chain maps, cones, cohomology.

Complexes are normalized so that zero components never appear at either
end; degrees outside the support read as the zero module.  Shifting by
n moves content of degree n+i to degree i and rescales differentials by
(-1)^n.

Constructors check only that there is one differential per gap between
components.  `Complex.check` (endpoints and d . d = 0) and
`ChainMap.check` (commuting squares) test the axioms; the cones,
truncations and lifts built here satisfy them by construction and are
not checked as they are built.

Complexes are hash-consed like modules (`algebras.Interned`): a complex
is the one live object of its value, the algebra, the lowest degree,
the components and the differentials, so the resolutions and
truncations cached by complex are found by identity, and the
truncations of distinct complexes that come out equal are one object.
The intern table is weak and keeps no complex alive.

Each complex computes its cohomology once per degree, on first use,
and keeps it on itself (`cohomology_data`), as it keeps its cohomology
stalks (`derived._stalks`); both go with the complex.  Neither table
refers back to the complex, so dropping a complex frees them by
reference counting alone.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .algebras import Algebra, Interned
from .enumeration import SEARCH_CAP, BoundExceeded, ModuleUniverse
from .linalg import Mat, all_vectors, combine, solve
from .modules import (
    Module,
    ModuleMap,
    cokernel,
    direct_sum,
    hom_basis,
    kernel,
)


class Complex(metaclass=Interned):
    __slots__ = ("algebra", "lo", "hi", "components", "diffs", "_hash",
                 "_dual", "_cohomology", "_stalks", "__weakref__")

    def __init__(self, algebra: Algebra, lo: int, components: Iterable[Module],
                 diffs: Iterable[ModuleMap]):
        components = list(components)
        diffs = list(diffs)
        if len(diffs) != max(len(components) - 1, 0):
            raise ValueError("need one differential between adjacent components")
        # Trim zero components from both ends.
        while components and components[0].dim == 0:
            components.pop(0)
            if diffs:
                diffs.pop(0)
            lo += 1
        while components and components[-1].dim == 0:
            components.pop()
            if diffs:
                diffs.pop()
        if not components:
            lo = 0
        self.algebra = algebra
        self.lo = lo
        self.hi = lo + len(components) - 1
        self.components = tuple(components)
        self.diffs = tuple(diffs)
        self._hash: Optional[int] = None
        # Set by derived.dual_complex on first use, on both complexes.
        self._dual: Optional[Complex] = None
        # Filled on first use: the CohomologyData of each degree of the
        # support and one for all degrees outside it, each when first
        # asked for (cohomology_data), and the nonzero cohomologies with
        # their degrees (derived._stalks).
        self._cohomology: Optional[list[Optional[CohomologyData]]] = None
        self._stalks: Optional[tuple[tuple[int, Module], ...]] = None

    def check(self) -> None:
        """Raise ValueError unless every component lies over the algebra,
        each differential joins its neighbours, and d . d = 0."""
        for k, m in enumerate(self.components):
            if m.algebra is not self.algebra:
                raise ValueError("component over the wrong algebra")
            if k < len(self.diffs):
                d = self.diffs[k]
                if (d.source is not self.components[k]
                        or d.target is not self.components[k + 1]):
                    raise ValueError(f"differential {k} has wrong endpoints")
        for k in range(len(self.diffs) - 1):
            if not self.diffs[k + 1].compose(self.diffs[k]).is_zero():
                raise ValueError("differentials do not square to zero")

    @classmethod
    def zero(cls, algebra: Algebra) -> "Complex":
        return cls(algebra, 0, [], [])

    @classmethod
    def from_module(cls, m: Module, degree: int = 0) -> "Complex":
        return cls(m.algebra, degree, [m], [])

    def is_zero(self) -> bool:
        return not self.components

    def total_dim(self) -> int:
        return sum(m.dim for m in self.components)

    def component(self, i: int) -> Module:
        if self.lo <= i <= self.hi:
            return self.components[i - self.lo]
        return Module.zero(self.algebra)

    def diff(self, i: int) -> ModuleMap:
        if self.lo <= i < self.hi:
            return self.diffs[i - self.lo]
        return ModuleMap.zero(self.component(i), self.component(i + 1))

    def shift(self, n: int) -> "Complex":
        """The complex with content of degree n+i placed in degree i and
        differentials rescaled by (-1)^n."""
        if n % 2 == 0:
            diffs = self.diffs
        else:
            diffs = tuple(d.scale(-1) for d in self.diffs)
        return Complex(self.algebra, self.lo - n, self.components, diffs)

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def _value(self) -> tuple:
        # CPython hashes -1 like -2, so lo enters doubled: complexes that
        # differ only in lo -1 against -2 hash apart.
        return (self.algebra, 2 * self.lo, self.components,
                tuple((d.source, d.target, d.mat.data) for d in self.diffs))

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._value())
        return self._hash

    def __repr__(self) -> str:
        if self.is_zero():
            return "Complex(0)"
        dims = ", ".join(f"{i}:{self.component(i).dim}" for i in self.degrees())
        return f"Complex({dims})"


class ChainMap:
    __slots__ = ("source", "target", "lo", "comps", "_hash")

    def __init__(self, source: Complex, target: Complex,
                 comps: dict[int, ModuleMap]):
        self.source = source
        self.target = target
        lo = min(source.lo, target.lo)
        hi = max(source.hi, target.hi)
        stored = []
        for i in range(lo, hi + 1):
            f = comps.get(i)
            if f is None:
                f = ModuleMap.zero(source.component(i), target.component(i))
            stored.append(f)
        self.lo = lo
        self.comps = tuple(stored)
        self._hash: Optional[int] = None

    def check(self) -> None:
        """Raise ValueError unless each component joins the right
        modules and every square commutes."""
        for i in range(self.lo, self.lo + len(self.comps)):
            f = self.component(i)
            if f.source is not self.source.component(i):
                raise ValueError(f"component {i} has wrong source")
            if f.target is not self.target.component(i):
                raise ValueError(f"component {i} has wrong target")
            lhs = self.component(i + 1).compose(self.source.diff(i))
            rhs = self.target.diff(i).compose(f)
            if lhs.mat != rhs.mat:
                raise ValueError(f"square at degree {i} does not commute")

    def component(self, i: int) -> ModuleMap:
        k = i - self.lo
        if 0 <= k < len(self.comps):
            return self.comps[k]
        return ModuleMap.zero(self.source.component(i), self.target.component(i))

    @classmethod
    def zero(cls, source: Complex, target: Complex) -> "ChainMap":
        return cls(source, target, {})

    @classmethod
    def identity(cls, c: Complex) -> "ChainMap":
        return cls(c, c, {i: ModuleMap.identity(c.component(i))
                          for i in c.degrees()})

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        if other.target is not self.source:
            raise ValueError("chain maps are not composable")
        comps = {}
        for i in range(min(self.lo, other.lo),
                       max(self.source.hi, other.source.hi) + 1):
            comps[i] = self.component(i).compose(other.component(i))
        return ChainMap(other.source, self.target, comps)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.source is not other.source or self.target is not other.target:
            raise ValueError("chain maps with different ends")
        comps = {i: self.component(i) + other.component(i)
                 for i in range(min(self.lo, other.lo),
                                max(self.lo + len(self.comps),
                                    other.lo + len(other.comps)))}
        return ChainMap(self.source, self.target, comps)

    def scale(self, c: int) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        {i: self.component(i).scale(c)
                         for i in range(self.lo, self.lo + len(self.comps))})

    def shift(self, n: int) -> "ChainMap":
        src = self.source.shift(n)
        tgt = self.target.shift(n)
        comps = {i: self.component(i + n) for i in
                 range(self.lo - n, self.lo - n + len(self.comps))}
        return ChainMap(src, tgt, comps)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.comps)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, ChainMap)
            and self.source is other.source
            and self.target is other.target
            and all(self.component(i) == other.component(i)
                    for i in range(min(self.lo, other.lo),
                                   max(self.lo + len(self.comps),
                                       other.lo + len(other.comps))))
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.comps))
        return self._hash

    def __repr__(self) -> str:
        return f"ChainMap({self.source!r} -> {self.target!r})"


def cone(f: ChainMap) -> tuple[Complex, ChainMap, ChainMap]:
    """The mapping cone with its triangle maps.

    Returns (cone, incl, proj) for the triangle
    X --f--> Y --incl--> cone --proj--> X[1]; in each degree the cone is
    Y^i (+) X^{i+1} with differential (y, x) -> (dy + fx, -dx).
    """
    x, y = f.source, f.target
    alg = y.algebra
    lo = min(y.lo, x.lo - 1)
    hi = max(y.hi, x.hi - 1)
    comps = {}
    sums = {}
    for i in range(lo, hi + 1):
        whole, incls, projs = direct_sum(alg, [y.component(i), x.component(i + 1)])
        sums[i] = (whole, incls, projs)
        comps[i] = whole
    diffs = {}
    for i in range(lo, hi):
        whole, incls, projs = sums[i]
        nxt, nincls, _ = sums[i + 1]
        dy = y.diff(i).compose(projs[0])
        fx = f.component(i + 1).compose(projs[1])
        dx = x.diff(i + 1).compose(projs[1])
        mat = (nincls[0].compose(dy + fx) + nincls[1].compose(dx.scale(-1))).mat
        diffs[i] = ModuleMap(whole, nxt, mat)
    cone_cplx = Complex(alg, lo, [comps[i] for i in range(lo, hi + 1)],
                        [diffs[i] for i in range(lo, hi)])
    incl = ChainMap(y, cone_cplx, {i: _embed(sums, i, 0, y.component(i))
                                   for i in y.degrees()})
    x1 = x.shift(1)
    proj = ChainMap(cone_cplx, x1,
                    {i: _project(sums, i, 1, x1.component(i))
                     for i in range(lo, hi + 1)})
    return cone_cplx, incl, proj


def _embed(sums, i, part, src) -> ModuleMap:
    whole, incls, _ = sums[i]
    return ModuleMap(src, whole, incls[part].mat)


def _project(sums, i, part, tgt) -> ModuleMap:
    whole, _, projs = sums[i]
    return ModuleMap(whole, tgt, projs[part].mat)


class CohomologyData:
    """Kernel of the outgoing differential with its inclusion, and the
    cohomology as a quotient of that kernel."""

    __slots__ = ("cycles", "cycles_incl", "h", "h_proj")

    def __init__(self, cycles: Module, cycles_incl: ModuleMap, h: Module,
                 h_proj: ModuleMap):
        self.cycles = cycles
        self.cycles_incl = cycles_incl
        self.h = h
        self.h_proj = h_proj


def cohomology_data(c: Complex, i: int) -> CohomologyData:
    """The degree-i cycles and cohomology of c, computed on first use
    and kept on c.  Outside its support they are zero in every degree,
    so one entry, the last, serves all those degrees."""
    n = len(c.components)
    k = i - c.lo if c.lo <= i <= c.hi else n
    table = c._cohomology
    if table is None:
        table = c._cohomology = [None] * (n + 1)
    data = table[k]
    if data is None:
        cyc, incl = kernel(c.diff(i))
        upper = solve(incl.mat, c.diff(i - 1).mat)
        assert upper is not None, "boundaries are not cycles"
        bound = ModuleMap(c.component(i - 1), cyc, upper)
        h, proj = cokernel(bound)
        data = table[k] = CohomologyData(cyc, incl, h, proj)
    return data


def cohomology(c: Complex, i: int) -> Module:
    return cohomology_data(c, i).h


def cohomology_map(f: ChainMap, i: int) -> ModuleMap:
    """The induced map on degree-i cohomology."""
    dx = cohomology_data(f.source, i)
    dy = cohomology_data(f.target, i)
    lifted = solve(dy.cycles_incl.mat, f.component(i).mat @ dx.cycles_incl.mat)
    assert lifted is not None, "chain map does not preserve cycles"
    rhs = (dy.h_proj.mat @ lifted).transpose()
    sol = solve(dx.h_proj.mat.transpose(), rhs)
    assert sol is not None, "chain map does not preserve boundaries"
    return ModuleMap(dx.h, dy.h, sol.transpose())


def is_quasi_iso(f: ChainMap) -> bool:
    lo = min(f.source.lo, f.target.lo)
    hi = max(f.source.hi, f.target.hi)
    return all(cohomology_map(f, i).is_iso() for i in range(lo, hi + 1))


def is_exact_complex(c: Complex) -> bool:
    return all(cohomology(c, i).dim == 0 for i in c.degrees())


def apply_functor(fun, c: Complex) -> Complex:
    """Apply an additive functor levelwise to a complex."""
    comps = [fun.apply(m) for m in c.components]
    diffs = [fun.apply_map(d) for d in c.diffs]
    return Complex(fun.target_algebra, c.lo, comps, diffs)


def apply_functor_map(fun, f: ChainMap) -> ChainMap:
    return apply_functor_maps(fun, [f])[0]


def apply_functor_maps(fun, maps: Sequence[ChainMap]) -> list[ChainMap]:
    """Apply an additive functor levelwise to chain maps that share
    their ends, applying it to those ends once."""
    if not maps:
        return []
    x, y = maps[0].source, maps[0].target
    if any(f.source is not x or f.target is not y for f in maps):
        raise ValueError("chain maps with different ends")
    src = apply_functor(fun, x)
    tgt = apply_functor(fun, y)
    degrees = range(min(src.lo, tgt.lo), max(src.hi, tgt.hi) + 1)
    return [ChainMap(src, tgt, {i: fun.apply_map(f.component(i))
                                for i in degrees})
            for f in maps]


def enumerate_complexes(uni: ModuleUniverse, lo: int, hi: int,
                        comp_bound: int, total_bound: Optional[int] = None,
                        ) -> list[Complex]:
    """All complexes supported in [lo, hi] with components from the
    universe of dimension at most comp_bound (and bounded total size),
    one per choice of components and differentials."""
    mods = [m for m in uni.members if m.dim <= comp_bound]
    out: list[Complex] = []
    _extend(out, uni.algebra, lo, hi - lo + 1, mods, total_bound, [], [])
    return out


def _extend(out: list[Complex], alg: Algebra, lo: int, length: int,
            mods: list[Module], total_bound: Optional[int],
            comps: list[Module], diffs: list[ModuleMap]) -> None:
    """Append to out, depth first, the complexes of length components
    that begin with comps and diffs.  A module-level function: a nested
    function that calls itself is a reference cycle, and would keep out
    and every complex in it alive until the cyclic collector runs."""
    if len(comps) == length:
        out.append(Complex(alg, lo, comps, diffs))
        return
    p = alg.field.p
    total = sum(m.dim for m in comps)
    for nxt in mods:
        if total_bound is not None and total + nxt.dim > total_bound:
            continue
        if not comps:
            _extend(out, alg, lo, length, mods, total_bound, [nxt], [])
            continue
        prev = comps[-1]
        maps = hom_basis(prev, nxt)
        if len(diffs) >= 1 and not diffs[-1].is_zero():
            usable = _kill_previous(maps, diffs[-1])
        else:
            usable = maps
        if p ** len(usable) > SEARCH_CAP:
            raise BoundExceeded("differential scan too large")
        flats = [h.mat.data for h in usable]
        size = nxt.dim * prev.dim
        for coeffs in all_vectors(p, len(usable)):
            d = Mat(p, nxt.dim, prev.dim, combine(p, size, coeffs, flats))
            _extend(out, alg, lo, length, mods, total_bound, comps + [nxt],
                    diffs + [ModuleMap(prev, nxt, d)])


def _kill_previous(maps: list[ModuleMap], prev_d: ModuleMap) -> list[ModuleMap]:
    """Basis of the maps whose composite with the previous differential
    vanishes."""
    from .linalg import kernel_basis

    if not maps:
        return []
    p = prev_d.source.algebra.field.p
    nrows = maps[0].target.dim * prev_d.source.dim
    cols = [(h.mat @ prev_d.mat).data for h in maps]
    ker = kernel_basis(Mat.from_cols(p, cols, nrows))
    return [ModuleMap.combination(prev_d.target, maps[0].target,
                                  ker.basis.row(k), maps)
            for k in range(ker.dim)]
