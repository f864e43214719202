"""Finite-dimensional left modules over a based algebra.

A module is stored by its total action: one dim-by-dim matrix per basis
element of the algebra.  Vertex-graded data (dimension vectors, arrow
matrices) is a front-end conversion on top of this.  All kernels,
images, quotients and pullbacks come with their structure maps and are
exact by construction.  Each submodule and each quotient is built once
per (module, subspace): the part module and its inclusion or projection
matrix go into a table on the module itself, and a later call with an
equal subspace rebuilds only the `ModuleMap`.  No entry refers to its
own module, so the table keeps nothing alive beyond the module, and it
stores only what passed the stability check, so an unstable subspace is
rejected on every call.

Constructors check only shapes: one action matrix per basis element, a
common algebra, matching matrix sizes.  The module axioms and the
intertwining of a map are checked by `Module.check`, `ModuleMap.check`
and `ShortExactSeq.check`, which the library never calls on what it
builds itself; callers holding data from outside the program call them.

Modules are hash-consed like algebras (`algebras.Interned`): a module
is the one live object of its value, the algebra, the dimension and the
action matrices, so two modules are equal exactly when they are the
same object, and the hom spaces, traces and Ext groups cached by
module are found by identity.  The intern table is weak and keeps no
module alive.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

from .algebras import Algebra, Interned, opposite_algebra
from .linalg import (
    Mat,
    Subspace,
    combine,
    complement_in,
    image_basis,
    kernel_basis,
    pullback_linear,
    quotient_maps,
    rank,
    solve,
)


class Module(metaclass=Interned):
    __slots__ = ("algebra", "dim", "action", "_hash", "_dual", "_vertex_dims",
                 "_parts", "__weakref__")

    def __init__(self, algebra: Algebra, dim: int, action: Iterable[Mat]):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self._hash: Optional[int] = None
        # Set by dual_module on first use, on both modules.
        self._dual: Optional[Module] = None
        self._vertex_dims: Optional[tuple[int, ...]] = None
        # Filled by submodule_from_subspace and quotient_by_subspace.
        self._parts: Optional[dict] = None
        if len(self.action) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        for m in self.action:
            if m.rows != dim or m.cols != dim or m.p != algebra.field.p:
                raise ValueError("action matrix has wrong shape or field")

    def check(self) -> None:
        """Raise ValueError unless the unit acts as the identity and the
        action is multiplicative."""
        alg = self.algebra
        p = alg.field.p
        size = self.dim * self.dim

        def acting(coeffs, mats) -> Mat:
            return Mat(p, self.dim, self.dim,
                       combine(p, size, coeffs, [a.data for a in mats]))

        if acting(alg.unit, self.action) != Mat.identity(p, self.dim):
            raise ValueError("unit does not act as the identity")
        for i in range(alg.dim):
            for j in range(alg.dim):
                pairs = alg.mult[i][j]
                prod = acting([c for _, c in pairs],
                              [self.action[k] for k, _ in pairs])
                if self.action[i] @ self.action[j] != prod:
                    raise ValueError(
                        f"action is not multiplicative on "
                        f"({alg.labels[i]}, {alg.labels[j]})"
                    )

    @classmethod
    def zero(cls, algebra: Algebra) -> "Module":
        """The zero module, built once per algebra and shared."""
        if algebra._zero_module is None:
            algebra._zero_module = cls(
                algebra, 0, [Mat.zeros(algebra.field.p, 0, 0)] * algebra.dim)
        return algebra._zero_module

    def vertex_dims(self) -> tuple[int, ...]:
        """Rank of each designated idempotent on the module, computed
        once per module."""
        if self._vertex_dims is None:
            self._vertex_dims = tuple(rank(self.action[i])
                                      for i in self.algebra.idem)
        return self._vertex_dims

    def is_zero(self) -> bool:
        return self.dim == 0

    def _value(self) -> tuple:
        # The action by its entries: the algebra fixes p, and the shape
        # checks fix every matrix to dim by dim.
        return (self.algebra, self.dim, tuple(a.data for a in self.action))

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._value())
        return self._hash

    def __repr__(self) -> str:
        return f"Module(dim={self.dim}, vertex_dims={self.vertex_dims()})"


class ModuleMap:
    __slots__ = ("source", "target", "mat", "_hash")

    def __init__(self, source: Module, target: Module, mat: Mat):
        if source.algebra is not target.algebra:
            raise ValueError("maps need a common algebra")
        if mat.rows != target.dim or mat.cols != source.dim:
            raise ValueError("matrix shape does not match the modules")
        self.source = source
        self.target = target
        self.mat = mat
        self._hash: Optional[int] = None

    def check(self) -> None:
        """Raise ValueError unless the matrix intertwines the actions."""
        alg = self.source.algebra
        mat = self.mat
        for i in range(alg.dim):
            if mat @ self.source.action[i] != self.target.action[i] @ mat:
                raise ValueError(f"matrix does not intertwine {alg.labels[i]}")

    @classmethod
    def zero(cls, source: Module, target: Module) -> "ModuleMap":
        return cls(source, target,
                   Mat.zeros(source.algebra.field.p, target.dim, source.dim))

    @classmethod
    def identity(cls, m: Module) -> "ModuleMap":
        return cls(m, m, Mat.identity(m.algebra.field.p, m.dim))

    @classmethod
    def combination(cls, source: Module, target: Module, coeffs: Iterable[int],
                    maps: Iterable["ModuleMap"]) -> "ModuleMap":
        """sum_k c_k h_k for maps h_k: source -> target."""
        p = source.algebra.field.p
        size = target.dim * source.dim
        return cls(source, target, Mat(p, target.dim, source.dim, combine(
            p, size, coeffs, [h.mat.data for h in maps])))

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.target is not self.source:
            raise ValueError("maps are not composable")
        return ModuleMap(other.source, self.target, self.mat @ other.mat)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if self.source is not other.source or self.target is not other.target:
            raise ValueError("maps with different ends")
        return ModuleMap(self.source, self.target, self.mat + other.mat)

    def scale(self, c: int) -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.mat.scale(c))

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def is_injective(self) -> bool:
        return rank(self.mat) == self.source.dim

    def is_surjective(self) -> bool:
        return rank(self.mat) == self.target.dim

    def is_iso(self) -> bool:
        return (self.source.dim == self.target.dim
                and rank(self.mat) == self.source.dim)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, ModuleMap)
            and self.source is other.source
            and self.target is other.target
            and self.mat == other.mat
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.mat))
        return self._hash

    def __repr__(self) -> str:
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


# -- vertex-graded front end --

def presentation_arrows(alg: Algebra) -> tuple[int, ...]:
    """Radical basis elements that are not products of two radical ones."""
    composite = set()
    for i in alg.radical:
        for j in alg.radical:
            pairs = alg.mult[i][j]
            if not pairs:
                continue
            if len(pairs) != 1 or pairs[0][1] != 1:
                raise ValueError("enumeration needs a multiplicative basis")
            composite.add(pairs[0][0])
    return tuple(b for b in alg.radical if b not in composite)


@lru_cache(maxsize=None)
def _factorizations(alg: Algebra) -> dict[int, tuple[int, ...]]:
    """Unique factorization of each radical basis element into arrows."""
    arrows = presentation_arrows(alg)
    out: dict[int, tuple[int, ...]] = {}
    for b in alg.radical:
        w = _ways(alg, arrows, b)
        if len(w) != 1:
            raise ValueError(
                f"basis element {alg.labels[b]} has {len(w)} arrow "
                "factorizations; enumeration needs exactly one"
            )
        out[b] = w[0]
    return out


def _ways(alg: Algebra, arrows: tuple[int, ...],
          b: int) -> list[tuple[int, ...]]:
    """Every factorization of the radical basis element b into arrows.
    A module-level function: a nested function that calls itself is a
    reference cycle, freed only by the cyclic collector."""
    if b in arrows:
        return [(b,)]
    found = []
    for g in arrows:
        for b2 in alg.radical:
            pairs = alg.mult[g][b2]
            if len(pairs) == 1 and pairs[0] == (b, 1):
                found.extend((g,) + w for w in _ways(alg, arrows, b2))
    return found


def module_from_vertex_data(alg: Algebra, dims: Iterable[int],
                            arrow_mats: dict[int, Mat]) -> Module:
    """Assemble a module from per-idempotent dimensions and arrow blocks.

    Args:
        alg: the algebra.
        dims: dimension at each designated idempotent, in order.
        arrow_mats: for each presentation arrow (basis index), the block
            matrix of shape dims[target] x dims[source].
    """
    dims = tuple(dims)
    if len(dims) != len(alg.idem):
        raise ValueError("need one dimension per idempotent")
    p = alg.field.p
    total = sum(dims)
    off = [0]
    for d in dims:
        off.append(off[-1] + d)

    def embed(b: int, block: Mat) -> Mat:
        s, t = alg.endpoints[b]
        data = [0] * (total * total)
        for i in range(block.rows):
            for j in range(block.cols):
                data[(off[t] + i) * total + (off[s] + j)] = block.entry(i, j)
        return Mat(p, total, total, data)

    action: list[Optional[Mat]] = [None] * alg.dim
    for pos, b in enumerate(alg.idem):
        data = [0] * (total * total)
        for i in range(off[pos], off[pos + 1]):
            data[i * total + i] = 1
        action[b] = Mat(p, total, total, data)
    arrows = presentation_arrows(alg)
    for b in arrows:
        s, t = alg.endpoints[b]
        block = arrow_mats.get(b)
        if block is None:
            block = Mat.zeros(p, dims[t], dims[s])
        if block.rows != dims[t] or block.cols != dims[s]:
            raise ValueError(f"arrow {alg.labels[b]} block has wrong shape")
        action[b] = embed(b, block)
    for b, word in _factorizations(alg).items():
        if action[b] is not None:
            continue
        m = action[word[0]]
        for g in word[1:]:
            m = m @ action[g]
        action[b] = m
    return Module(alg, total, action)


# -- hom spaces --

@lru_cache(maxsize=None)
def _hom(m: Module, n: Module) -> tuple[Subspace, tuple[ModuleMap, ...]]:
    """Hom(m, n) as a reduced kernel, with one module map per basis row."""
    alg = m.algebra
    if alg is not n.algebra:
        raise ValueError("modules over different algebras")
    p = alg.field.p
    nm = n.dim * m.dim
    if nm == 0:
        return Subspace.zero(p, nm), ()
    md, nd = m.dim, n.dim
    flat: list[int] = []
    for t in range(alg.dim):
        rm = m.action[t].data
        rn = n.action[t].data
        # Entry (i, j) of X @ rm - rn @ X as a functional in X: column j
        # of rm at X's row i, minus row i of rn at X's column j.
        for i in range(nd):
            rn_i = rn[i * nd : (i + 1) * nd]
            for j in range(md):
                row = [0] * nm
                row[i * md : (i + 1) * md] = rm[j::md]
                for a, x in enumerate(rn_i):
                    if x:
                        row[a * md + j] = (row[a * md + j] - x) % p
                flat += row
    ker = kernel_basis(Mat(p, alg.dim * nm, nm, flat))
    return ker, tuple(ModuleMap(m, n, Mat(p, nd, md, ker.basis.row(i)))
                      for i in range(ker.dim))


def hom_space(m: Module, n: Module) -> Subspace:
    """The space of module maps m -> n, as the subspace of the flat
    n.dim-by-m.dim matrices held by its reduced echelon basis."""
    return _hom(m, n)[0]


def hom_basis(m: Module, n: Module) -> list[ModuleMap]:
    """The rows of `hom_space` as module maps, in canonical order."""
    return list(_hom(m, n)[1])


def hom_dim(m: Module, n: Module) -> int:
    return hom_space(m, n).dim


# -- exact constructions --

def _part(m: Module, build, s: Subspace) -> tuple[Module, Mat]:
    """The part of m that build makes on s, with its structure matrix,
    from m's table of parts: built on the first call, found by the next.

    Only a successful build is stored, so an unstable subspace raises on
    every call.  An entry never holds m itself (the full submodule and
    the quotient by zero are m; the entry stores None for it), so the
    table makes no reference cycle and goes with its module.
    """
    if m._parts is None:
        m._parts = {}
    key = (build, s)
    entry = m._parts.get(key)
    if entry is None:
        part, mat = build(m, s)
        entry = m._parts[key] = (None if part is m else part, mat)
    part, mat = entry
    return (m if part is None else part), mat


def _build_submodule(m: Module, s: Subspace) -> tuple[Module, Mat]:
    incl = s.basis.transpose()
    action = []
    for b in range(m.algebra.dim):
        moved = m.action[b] @ incl
        restr = solve(incl, moved)
        if restr is None:
            raise ValueError("subspace is not action-stable")
        action.append(restr)
    return Module(m.algebra, s.dim, action), incl


def _build_quotient(m: Module, s: Subspace) -> tuple[Module, Mat]:
    proj, sect = quotient_maps(s)
    labels = m.algebra.labels
    action = []
    for b in range(m.algebra.dim):
        moved = proj @ m.action[b]
        act = moved @ sect
        # Holds exactly when s is stable under b; rejects a caller's
        # unstable subspace.
        if moved != act @ proj:
            raise ValueError(f"matrix does not intertwine {labels[b]}")
        action.append(act)
    return Module(m.algebra, proj.rows, action), proj


def submodule_from_subspace(m: Module, s: Subspace) -> tuple[Module, ModuleMap]:
    """The submodule on an action-stable subspace, with its inclusion."""
    sub, incl = _part(m, _build_submodule, s)
    return sub, ModuleMap(sub, m, incl)


def quotient_by_subspace(m: Module, s: Subspace) -> tuple[Module, ModuleMap]:
    """The quotient module by an action-stable subspace, with projection."""
    quo, proj = _part(m, _build_quotient, s)
    return quo, ModuleMap(m, quo, proj)


def kernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    return submodule_from_subspace(f.source, kernel_basis(f.mat))


def image(f: ModuleMap) -> tuple[Module, ModuleMap, ModuleMap]:
    """Image submodule with inclusion into the target and the
    corestriction of f onto it."""
    sub, incl = submodule_from_subspace(f.target, image_basis(f.mat))
    core = solve(incl.mat, f.mat)
    assert core is not None
    return sub, incl, ModuleMap(f.source, sub, core)


def cokernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    return quotient_by_subspace(f.target, image_basis(f.mat))


def direct_sum(alg: Algebra, parts: list[Module]) -> tuple[Module, list[ModuleMap], list[ModuleMap]]:
    """Direct sum with its inclusions and projections."""
    p = alg.field.p
    total = sum(m.dim for m in parts)
    off = [0]
    for m in parts:
        off.append(off[-1] + m.dim)
    action = []
    for b in range(alg.dim):
        data = [0] * (total * total)
        for t, m in enumerate(parts):
            a = m.action[b].data
            d = m.dim
            for i in range(d):
                start = (off[t] + i) * total + off[t]
                data[start : start + d] = a[i * d : (i + 1) * d]
        action.append(Mat(p, total, total, data))
    whole = Module(alg, total, action)
    incls = []
    projs = []
    for t, m in enumerate(parts):
        idata = [0] * (total * m.dim)
        for i in range(m.dim):
            idata[(off[t] + i) * m.dim + i] = 1
        incls.append(ModuleMap(m, whole, Mat(p, total, m.dim, idata)))
        pdata = [0] * (m.dim * total)
        for i in range(m.dim):
            pdata[i * total + (off[t] + i)] = 1
        projs.append(ModuleMap(whole, m, Mat(p, m.dim, total, pdata)))
    return whole, incls, projs


def fiber_product(f: ModuleMap, g: ModuleMap) -> tuple[Module, ModuleMap, ModuleMap]:
    """The pullback {(a, b) : f(a) = g(b)} with its two projections."""
    if f.target is not g.target:
        raise ValueError("pullback needs a common target")
    alg = f.source.algebra
    whole, _, projs = direct_sum(alg, [f.source, g.source])
    sub = pullback_linear(f.mat, g.mat)
    x, incl = submodule_from_subspace(whole, sub)
    pa = projs[0].compose(incl)
    pb = projs[1].compose(incl)
    assert f.compose(pa).mat == g.compose(pb).mat
    return x, pa, pb


class ShortExactSeq:
    __slots__ = ("mono", "epi")

    def __init__(self, mono: ModuleMap, epi: ModuleMap):
        self.mono = mono
        self.epi = epi

    @property
    def sub(self) -> Module:
        return self.mono.source

    @property
    def middle(self) -> Module:
        return self.mono.target

    @property
    def quot(self) -> Module:
        return self.epi.target

    def check(self) -> None:
        if self.mono.target is not self.epi.source:
            raise ValueError("maps do not share the middle term")
        if not self.mono.is_injective():
            raise ValueError("left map is not injective")
        if not self.epi.is_surjective():
            raise ValueError("right map is not surjective")
        if image_basis(self.mono.mat) != kernel_basis(self.epi.mat):
            raise ValueError("sequence is not exact in the middle")


def ses_from_submodule(m: Module, s: Subspace) -> ShortExactSeq:
    _, incl = submodule_from_subspace(m, s)
    _, proj = quotient_by_subspace(m, s)
    return ShortExactSeq(incl, proj)


def lift_through(epi: ModuleMap, f: ModuleMap) -> Optional[ModuleMap]:
    """A module map g with epi . g = f, found inside the hom space, or
    None if f does not factor through epi."""
    p = f.source.algebra.field.p
    basis = hom_basis(f.source, epi.source)
    cols = [(epi.mat @ h.mat).data for h in basis]
    a = Mat.from_cols(p, cols, len(f.mat.data))
    sol = solve(a, Mat(p, a.rows, 1, f.mat.data))
    if sol is None:
        return None
    return ModuleMap.combination(f.source, epi.source, sol.col(0), basis)


# -- simples, projectives, injectives --

def simple_module(alg: Algebra, pos: int) -> Module:
    p = alg.field.p
    mats = []
    for b in range(alg.dim):
        val = 1 if b == alg.idem[pos] else 0
        mats.append(Mat(p, 1, 1, [val]))
    return Module(alg, 1, mats)


def projective_module(alg: Algebra, pos: int) -> Module:
    """The indecomposable projective at an idempotent: the span of the
    basis elements whose source is that idempotent, under left
    multiplication."""
    basis = alg.basis_by_source(pos)
    back = {b: t for t, b in enumerate(basis)}
    p = alg.field.p
    d = len(basis)
    mats = []
    for a in range(alg.dim):
        data = [0] * (d * d)
        for t, b in enumerate(basis):
            for k, c in alg.mult[a][b]:
                data[back[k] * d + t] = c % p
        mats.append(Mat(p, d, d, data))
    return Module(alg, d, mats)


def dual_module(m: Module) -> Module:
    """The linear dual as a module over the opposite algebra, built once
    per module.  The two are linked, so the dual of the dual is m itself
    and D is an involution on the nose."""
    if m._dual is None:
        d = Module(opposite_algebra(m.algebra), m.dim,
                   [a.transpose() for a in m.action])
        d._dual = m
        m._dual = d
    return m._dual


def dual_map(f: ModuleMap) -> ModuleMap:
    return ModuleMap(dual_module(f.target), dual_module(f.source),
                     f.mat.transpose())


def radical_subspace(m: Module) -> Subspace:
    vecs = []
    for r in m.algebra.radical:
        a = m.action[r]
        for j in range(m.dim):
            vecs.append(a.col(j))
    return Subspace(m.algebra.field.p, m.dim, vecs)


def projective_cover(m: Module) -> tuple[Module, ModuleMap]:
    """A projective cover P(m) -> m built by lifting a basis of the top."""
    alg = m.algebra
    p = alg.field.p
    rad = radical_subspace(m)
    top, proj = quotient_by_subspace(m, rad)
    pieces: list[tuple[int, tuple[int, ...]]] = []
    ident = Mat.identity(p, m.dim)
    for pos in range(len(alg.idem)):
        part = image_basis(top.action[alg.idem[pos]])
        for i in range(part.dim):
            u = part.basis.row(i)
            system = proj.mat.vstack(ident - m.action[alg.idem[pos]])
            rhs = Mat(p, top.dim + m.dim, 1, list(u) + [0] * m.dim)
            sol = solve(system, rhs)
            assert sol is not None, "top basis vector has no homogeneous lift"
            pieces.append((pos, sol.col(0)))
    parts = [projective_module(alg, pos) for pos, _ in pieces]
    whole, _, _ = direct_sum(alg, parts)
    cols: list[tuple[int, ...]] = []
    for (pos, mvec), part in zip(pieces, parts):
        lift = Mat(p, m.dim, 1, mvec)
        for b in alg.basis_by_source(pos):
            cols.append((m.action[b] @ lift).col(0))
    cover = ModuleMap(whole, m, Mat.from_cols(p, cols, m.dim))
    if not cover.is_surjective():
        raise AssertionError("projective cover failed to be surjective")
    return whole, cover


def syzygy(m: Module) -> tuple[Module, ModuleMap, ModuleMap]:
    """(Omega, inclusion Omega -> P, cover P -> m)."""
    cover_src, cover = projective_cover(m)
    omega, incl = kernel(cover)
    return omega, incl, cover


def is_projective(m: Module) -> bool:
    cover_src, cover = projective_cover(m)
    return cover_src.dim == m.dim


# -- extensions --

class Ext1:
    """The space Ext^1(m, n) presented by cocycles on a syzygy.

    cocycles is a basis of representatives, elements of Hom(Omega, n)
    modulo coboundaries, the restrictions of Hom(P, n); coboundaries
    holds those as a subspace of the flat n.dim-by-Omega.dim matrices.
    """

    __slots__ = ("m", "n", "cover", "incl", "cocycles", "coboundaries")

    def __init__(self, m: Module, n: Module, cover: ModuleMap,
                 incl: ModuleMap, cocycles: tuple[ModuleMap, ...],
                 coboundaries: Subspace):
        self.m = m
        self.n = n
        self.cover = cover
        self.incl = incl
        self.cocycles = cocycles
        self.coboundaries = coboundaries

    @property
    def dim(self) -> int:
        return len(self.cocycles)

    def element(self, coeffs: Iterable[int]) -> ModuleMap:
        return ModuleMap.combination(self.incl.source, self.n, coeffs, self.cocycles)

    def is_coboundary(self, cocycle: ModuleMap) -> bool:
        """Whether a cocycle Omega -> n represents the zero class."""
        return self.coboundaries.contains(cocycle.mat.data)


def ext1_basis(m: Module, n: Module) -> Ext1:
    omega, incl, cover = syzygy(m)
    p = m.algebra.field.p
    full = hom_space(omega, n)
    restricted = Subspace(p, full.ambient, [(h.mat @ incl.mat).data
                                            for h in hom_basis(cover.source, n)])
    reps = complement_in(full, restricted)
    cocycles = tuple(ModuleMap(omega, n, Mat(p, n.dim, omega.dim, v))
                     for v in reps)
    return Ext1(m, n, cover, incl, cocycles, restricted)


def extension_realize(ext: Ext1, cocycle: ModuleMap) -> ShortExactSeq:
    """The extension 0 -> n -> E -> m -> 0 classified by a cocycle
    Omega -> n on the syzygy of ext.  n is the cocycle's target, so a
    cocycle of ext pushed along a map ext.n -> n realizes the pushed
    extension."""
    alg = ext.m.algebra
    omega = ext.incl.source
    whole, incls, projs = direct_sum(alg, [cocycle.target, ext.cover.source])
    vecs = []
    for t in range(omega.dim):
        v = [-x % alg.field.p for x in cocycle.mat.col(t)] + list(ext.incl.mat.col(t))
        vecs.append(v)
    w = Subspace(alg.field.p, whole.dim, vecs)
    quo, proj = quotient_by_subspace(whole, w)
    mono = proj.compose(incls[0])
    # The map E -> m descends from (n + P) -> P -> m through the quotient.
    onto_m = ext.cover.compose(projs[1])
    _, sect = quotient_maps(w)
    epi = ModuleMap(quo, ext.m, onto_m.mat @ sect)
    assert epi.mat @ proj.mat == onto_m.mat, "cocycle relations not killed"
    return ShortExactSeq(mono, epi)
