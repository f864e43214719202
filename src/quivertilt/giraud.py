"""Corner localizations and transport of torsion pairs across them.

For a corner idempotent e of an algebra A there are two recollement-style
situations between A-modules and eAe-modules:

* restriction l = e(-) with right adjoint i = Hom_eAe(eA, -), an exact
  localization whose kernel S consists of the modules killed by e;
* restriction r = e(-) with left adjoint j = Ae (x) -, the co-dual.

The colocalization is computed from the localization of the opposite
corner e A^op e through k-duality D = Hom_k(-, k): since
Ae (x)_eAe N = D Hom_(eAe)^op(Ae, DN) (tensor-hom adjunction),
j = D ∘ i^op ∘ D, and the unit and counit of (j, r) are the duals of
the counit and unit of (l^op, i^op).  D commutes with restriction on the
nose here, since every module the package builds has a basis on which
the idempotents act by diagonal 0/1 matrices.

A colocalization context is a localization context of the opposite
category: there r plays the part of l, j that of i, the torsion class
that of the free class, and the surjective counit that of the injective
unit.  Each context class states its side as data (restriction,
section, admissibility test, the class that is cut down, message text),
so one transport and one certificate serve both sides.  Torsion pairs
are pulled back along the restriction (the "hat" construction, with a
fiber-product decomposition witness, dualized on the colocalization
side) and pushed forward by applying it to both classes; the compatible
pairs on the two sides biject, which verify_bijection certifies
exhaustively on bounded universes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Union

from .algebras import CornerData, corner_algebra, opposite_algebra
from .enumeration import ModuleUniverse
from .linalg import Mat, Subspace, image_basis, kernel_basis, kron, solve
from .modules import (
    Module,
    ModuleMap,
    ShortExactSeq,
    dual_map,
    dual_module,
    fiber_product,
    ses_from_submodule,
    submodule_from_subspace,
)
from .torsion import (
    ClassSpec,
    TorsionPair,
    enumerate_torsion_pairs,
    free_indec_indices,
    is_torsion_pair,
    torsion_indec_indices,
    trace_subspace,
)


class CornerFunctor:
    """Restriction m -> e.m from parent modules to corner modules."""

    def __init__(self, corner: CornerData):
        self.corner = corner
        self.source_algebra = corner.parent
        self.target_algebra = corner.sub
        self._cache: dict[Module, tuple[Module, Mat]] = {}

    def data(self, m: Module) -> tuple[Module, Mat]:
        """The restricted module and the inclusion e.m -> m (columns)."""
        if m not in self._cache:
            cd = self.corner
            alg = cd.parent
            p = alg.field.p
            e_mat = Mat.zeros(p, m.dim, m.dim)
            for pos in cd.positions:
                e_mat = e_mat + m.action[alg.idem[pos]]
            sub = image_basis(e_mat)
            incl = sub.basis.transpose()
            action = []
            for t, b in enumerate(cd.kept):
                restr = solve(incl, m.action[b] @ incl)
                assert restr is not None, "corner action escapes e.m"
                action.append(restr)
            self._cache[m] = (Module(cd.sub, sub.dim, action), incl)
        return self._cache[m]

    def apply(self, m: Module) -> Module:
        return self.data(m)[0]

    def apply_map(self, f: ModuleMap) -> ModuleMap:
        src, incl_s = self.data(f.source)
        tgt, incl_t = self.data(f.target)
        mat = solve(incl_t, f.mat @ incl_s)
        assert mat is not None, "map does not preserve the corner part"
        return ModuleMap(src, tgt, mat)


class HomSectionFunctor:
    """The right adjoint n -> Hom_eAe(eA, n) of corner restriction."""

    def __init__(self, corner: CornerData):
        self.corner = corner
        self.source_algebra = corner.sub
        self.target_algebra = corner.parent
        self._cache: dict[Module, tuple[Module, Subspace]] = {}

    def data(self, n: Module) -> tuple[Module, Subspace]:
        """The module Hom_eAe(eA, n) and its space of flat matrices."""
        if n not in self._cache:
            cd = self.corner
            p = cd.parent.field.p
            ea = cd.eA
            amb = n.dim * ea.dim
            if amb == 0:
                space = Subspace.zero(p, amb)
            else:
                blocks = []
                ident_n = Mat.identity(p, n.dim)
                ident_e = Mat.identity(p, ea.dim)
                for t in range(cd.sub.dim):
                    lhs = kron(ident_n, ea.left_act[t].transpose())
                    rhs = kron(n.action[t], ident_e)
                    blocks.append(lhs - rhs)
                stacked = blocks[0]
                for b in blocks[1:]:
                    stacked = stacked.vstack(b)
                space = kernel_basis(stacked)
            mats = [Mat(p, n.dim, ea.dim, space.basis.row(k))
                    for k in range(space.dim)]
            action = []
            for a in range(cd.parent.dim):
                cols = [space.coords((phi @ ea.right_act[a]).data)
                        for phi in mats]
                action.append(Mat.from_cols(p, cols, space.dim))
            self._cache[n] = (Module(cd.parent, space.dim, action), space)
        return self._cache[n]

    def apply(self, n: Module) -> Module:
        return self.data(n)[0]

    def apply_map(self, g: ModuleMap) -> ModuleMap:
        cd = self.corner
        p = cd.parent.field.p
        src, sspace = self.data(g.source)
        tgt, tspace = self.data(g.target)
        ea = cd.eA
        cols = []
        for k in range(sspace.dim):
            phi = Mat(p, g.source.dim, ea.dim, sspace.basis.row(k))
            cols.append(tspace.coords((g.mat @ phi).data))
        return ModuleMap(src, tgt, Mat.from_cols(p, cols, tgt.dim))


@dataclass
class GiraudContext:
    """Exact localization l with right adjoint section i."""

    corner: CornerData
    l: CornerFunctor
    i: HomSectionFunctor

    # The side: the free class (index 1 of a pair) is cut down to the
    # modules with injective unit.
    constrained: ClassVar[int] = 1
    prefix: ClassVar[str] = ""
    composite: ClassVar[str] = "i(l(-))"
    adjunction: ClassVar[str] = "counit"

    @property
    def restriction(self) -> CornerFunctor:
        return self.l

    @property
    def section(self) -> HomSectionFunctor:
        return self.i

    def admissible(self, m: Module) -> bool:
        return self.in_s_perp(m)

    def unit(self, m: Module) -> ModuleMap:
        """m -> i(l(m)), sending x to the map (a |-> restriction of a.x)."""
        cd = self.corner
        p = cd.parent.field.p
        lm, incl = self.l.data(m)
        iln, space = self.i.data(lm)
        ea = cd.eA
        posset = set(cd.positions)
        # One matrix per eA basis element b: its column t holds the
        # coordinates in e.m of b.x for the t-th basis vector x of m.
        restricted = [solve(incl, m.action[b]) for b in range(cd.parent.dim)
                      if cd.parent.endpoints[b][1] in posset]
        assert all(x is not None for x in restricted), "eA.m escapes e.m"
        cols = []
        for t in range(m.dim):
            flat = [0] * (lm.dim * ea.dim)
            for s, lmat in enumerate(restricted):
                for r in range(lm.dim):
                    flat[r * ea.dim + s] = lmat.entry(r, t)
            cols.append(space.coords(flat))
        return ModuleMap(m, iln, Mat.from_cols(p, cols, iln.dim))

    def counit(self, n: Module) -> ModuleMap:
        """l(i(n)) -> n, evaluation of a homomorphism at e."""
        cd = self.corner
        p = cd.parent.field.p
        inn, space = self.i.data(n)
        lin, incl = self.l.data(inn)
        ea = cd.eA
        e_col = Mat(p, ea.dim, 1, cd.eA_e_coords)
        cols = []
        for t in range(lin.dim):
            w = incl.col(t)
            phi = Mat.zeros(p, n.dim, ea.dim)
            for k in range(space.dim):
                if w[k]:
                    phi = phi + Mat(p, n.dim, ea.dim,
                                    space.basis.row(k)).scale(w[k])
            cols.append((phi @ e_col).col(0))
        return ModuleMap(lin, n, Mat.from_cols(p, cols, n.dim))

    def in_s(self, m: Module) -> bool:
        """Whether m is killed by the localization."""
        return self.l.apply(m).dim == 0

    def in_s_perp(self, m: Module) -> bool:
        """Whether the unit at m is injective."""
        return self.unit(m).is_injective()


class TensorSectionFunctor:
    """The left adjoint n -> Ae (x)_eAe n of corner restriction, read
    through k-duality D = Hom_k(-, k) as D Hom_(eAe)^op(Ae, Dn): the
    right section of the opposite corner, conjugated by D."""

    def __init__(self, corner: CornerData, i_op: HomSectionFunctor):
        self.corner = corner
        self.i_op = i_op
        self.source_algebra = corner.sub
        self.target_algebra = corner.parent
        self._cache: dict[Module, Module] = {}

    def apply(self, n: Module) -> Module:
        if n not in self._cache:
            self._cache[n] = dual_module(self.i_op.apply(dual_module(n)))
        return self._cache[n]

    def apply_map(self, g: ModuleMap) -> ModuleMap:
        return dual_map(self.i_op.apply_map(dual_map(g)))


@dataclass
class CoGiraudContext:
    """Exact colocalization r with left adjoint section j, the dual of
    the localization `dual` of the opposite corner: D carries its unit
    to this counit, its counit to this unit, and its unit-injective
    modules to the modules with surjective counit."""

    corner: CornerData
    j: TensorSectionFunctor
    r: CornerFunctor
    dual: GiraudContext

    # The side: the torsion class (index 0 of a pair) is cut down to the
    # modules with surjective counit.
    constrained: ClassVar[int] = 0
    prefix: ClassVar[str] = "co-"
    composite: ClassVar[str] = "j(r(-))"
    adjunction: ClassVar[str] = "unit"

    @property
    def restriction(self) -> CornerFunctor:
        return self.r

    @property
    def section(self) -> TensorSectionFunctor:
        return self.j

    def admissible(self, m: Module) -> bool:
        return self.in_perp_s(m)

    def unit(self, n: Module) -> ModuleMap:
        """n -> r(j(n)), sending x to the class of e (x) x: the dual of
        the opposite corner's counit at Dn."""
        return dual_map(self.dual.counit(dual_module(n)))

    def counit(self, m: Module) -> ModuleMap:
        """j(r(m)) -> m, the action map a.e (x) x -> a.x: the dual of
        the opposite corner's unit at Dm."""
        return dual_map(self.dual.unit(dual_module(m)))

    def in_perp_s(self, m: Module) -> bool:
        """Whether the counit at m is surjective, that is, whether the
        opposite corner's unit at Dm is injective."""
        return self.dual.in_s_perp(dual_module(m))


def giraud_context(corner: CornerData) -> GiraudContext:
    return GiraudContext(corner, CornerFunctor(corner), HomSectionFunctor(corner))


def co_giraud_context(corner: CornerData) -> CoGiraudContext:
    dual = giraud_context(
        corner_algebra(opposite_algebra(corner.parent), corner.positions))
    return CoGiraudContext(corner, TensorSectionFunctor(corner, dual.i),
                           CornerFunctor(corner), dual)


AnyGiraudContext = Union[GiraudContext, CoGiraudContext]
_CLASS_NAMES = ("torsion", "free")
_CLASS_INDICES = (torsion_indec_indices, free_indec_indices)


# -- transport of torsion pairs --

def hat_pair(ctx: AnyGiraudContext, pair_c: TorsionPair,
             uni_d: ModuleUniverse) -> TorsionPair:
    """Pull a corner pair back: both classes are preimages under the
    restriction, and the constrained class is cut down to the admissible
    modules (l^{-1}(F) to injective unit, or r^{-1}(T) to surjective
    counit)."""
    gens = [tuple(d for d in uni_d.indecs
                  if pair_c.in_class(k, ctx.restriction.apply(d)))
            for k in (0, 1)]
    k = ctx.constrained
    gens[k] = tuple(d for d in gens[k] if ctx.admissible(d))
    return TorsionPair(ClassSpec(gens[0], "torsion"), ClassSpec(gens[1], "free"))


def hat_decompose(ctx: GiraudContext, pair_c: TorsionPair,
                  m: Module) -> ShortExactSeq:
    """Decomposition of m for the pulled-back pair, realized as the
    fiber product of i(t(l m)) -> i(l m) <- m."""
    lm = ctx.l.apply(m)
    t_sub = trace_subspace(pair_c.torsion.generators, lm)
    tmod, t_incl = submodule_from_subspace(lm, t_sub)
    it_incl = ctx.i.apply_map(t_incl)
    eta = ctx.unit(m)
    x, p_t, p_m = fiber_product(it_incl, eta)
    assert p_m.is_injective(), "fiber product failed to embed in m"
    return ses_from_submodule(m, image_basis(p_m.mat))


def co_hat_decompose(co: CoGiraudContext, pair_c: TorsionPair,
                     m: Module) -> ShortExactSeq:
    """Decomposition of m for the co-pulled-back pair: the dual of the
    decomposition of Dm for the dual pair (DF, DT) on the opposite
    corner.  Public as the colocalization counterpart of `hat_decompose`,
    which states the paper's decomposition on the localization side."""
    dual_pair = TorsionPair(
        ClassSpec(tuple(map(dual_module, pair_c.free.generators)), "torsion"),
        ClassSpec(tuple(map(dual_module, pair_c.torsion.generators)), "free"))
    ses = hat_decompose(co.dual, dual_pair, dual_module(m))
    return ShortExactSeq(dual_map(ses.epi), dual_map(ses.mono))


def push_pair_classes(ctx_l: CornerFunctor, pair_d: TorsionPair,
                      uni_d: ModuleUniverse) -> TorsionPair:
    """(l(X), l(Y)) generated from the universe's indecomposables."""
    t_gens = tuple(ctx_l.apply(d) for d in uni_d.indecs if pair_d.in_torsion(d))
    f_gens = tuple(ctx_l.apply(d) for d in uni_d.indecs if pair_d.in_free(d))
    return TorsionPair(ClassSpec(t_gens, "torsion"), ClassSpec(f_gens, "free"))


@dataclass(frozen=True)
class PushResult:
    ok: bool
    closed_under_section: bool
    witness: Optional[str]
    pair: Optional[TorsionPair]
    pair_valid: bool
    preimage_matches: bool


def push_pair(ctx: AnyGiraudContext, pair_d: TorsionPair,
              uni_d: ModuleUniverse, uni_c: ModuleUniverse) -> PushResult:
    """Push a parent pair down to the corner.

    Requires the constrained class to be closed under the composite of
    section and restriction (i . l or j . r), tested on the
    indecomposables of the parent universe: the functors are additive
    and the classes are closed under sums and summands, so a direct sum
    passes exactly when its summands do.  The indecomposables are
    sorted by dimension, so the witness is the first failing member of
    the universe.  The constrained class of the image is then also the
    section-preimage of that class upstairs, which is checked as well.
    """
    k = ctx.constrained
    witness = None
    for i, d in enumerate(uni_d.indecs):
        if pair_d.in_class(k, d) and not pair_d.in_class(
                k, ctx.section.apply(ctx.restriction.apply(d))):
            witness = (f"{_CLASS_NAMES[k]} class not closed under "
                       f"{ctx.composite} at {(i,)}")
            break
    closed = witness is None
    if not closed:
        return PushResult(False, False, witness, None, False, False)
    pair_c = push_pair_classes(ctx.restriction, pair_d, uni_d)
    valid = is_torsion_pair(pair_c, uni_c).ok
    preimage = tuple(i for i, c in enumerate(uni_c.indecs)
                     if pair_d.in_class(k, ctx.section.apply(c)))
    matches = preimage == _CLASS_INDICES[k](pair_c, uni_c)
    return PushResult(valid and matches, True, None, pair_c, valid, matches)


# -- exhaustive bijection certificates --

@dataclass(frozen=True)
class BijectionReport:
    ok: bool
    parent_pairs: int
    corner_pairs: int
    compatible: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    matching: tuple[tuple[int, int], ...]
    failures: tuple[str, ...]


def _pair_key(pair: TorsionPair, uni: ModuleUniverse):
    return (torsion_indec_indices(pair, uni), free_indec_indices(pair, uni))


def verify_bijection(ctx: AnyGiraudContext, uni_d: ModuleUniverse,
                     uni_c: ModuleUniverse) -> BijectionReport:
    """Check that push and hat are mutually inverse bijections between
    corner pairs and the compatible parent pairs: those whose constrained
    class lies between the section of its restriction and the admissible
    modules (the free class between i(l(Y)) and the unit-injective
    modules, or the torsion class between j(r(X)) and the modules with
    surjective counit)."""
    k, pre = ctx.constrained, ctx.prefix
    failures: list[str] = []
    d_pairs = enumerate_torsion_pairs(uni_d)
    c_pairs = enumerate_torsion_pairs(uni_c)
    d_keys = [_pair_key(pr, uni_d) for pr in d_pairs]
    c_keys = [_pair_key(pr, uni_c) for pr in c_pairs]

    compatible: list[int] = []
    for t, pr in enumerate(d_pairs):
        members = [uni_d.indecs[i] for i in d_keys[t][k]]
        closed = all(pr.in_class(k, ctx.section.apply(ctx.restriction.apply(d)))
                     for d in members)
        perp = all(ctx.admissible(d) for d in members)
        if closed and perp:
            compatible.append(t)

    matching: list[tuple[int, int]] = []
    for t in compatible:
        res = push_pair(ctx, d_pairs[t], uni_d, uni_c)
        if not res.ok:
            failures.append(f"{pre}push fails on compatible pair {d_keys[t]}: "
                            f"{res.witness or 'axioms'}")
            continue
        key = _pair_key(res.pair, uni_c)
        if key not in c_keys:
            failures.append(f"{pre}pushed pair {key} not among corner pairs")
            continue
        u = c_keys.index(key)
        back = hat_pair(ctx, c_pairs[u], uni_d)
        if _pair_key(back, uni_d) != d_keys[t]:
            failures.append(f"{pre}hat({pre}push) moved pair {d_keys[t]}")
        matching.append((t, u))

    for u, pc in enumerate(c_pairs):
        lifted = hat_pair(ctx, pc, uni_d)
        key = _pair_key(lifted, uni_d)
        if key not in d_keys or d_keys.index(key) not in compatible:
            failures.append(f"{pre}hat of corner pair {c_keys[u]} is not compatible")
            continue
        res = push_pair(ctx, lifted, uni_d, uni_c)
        if not res.ok or _pair_key(res.pair, uni_c) != c_keys[u]:
            failures.append(f"{pre}push({pre}hat) moved corner pair {c_keys[u]}")

    hit_c = {u for _, u in matching}
    if len(matching) != len(compatible) or len(hit_c) != len(c_pairs):
        failures.append(
            f"counts differ: {len(compatible)} compatible vs {len(c_pairs)} corner")
    return BijectionReport(not failures, len(d_pairs), len(c_pairs),
                           tuple(d_keys[t] for t in compatible),
                           tuple(matching), tuple(failures))


# The colocalization certificate is the same certificate; the name stays
# for callers that spell the side out.
verify_co_bijection = verify_bijection
