"""The t-structure induced by a torsion pair, and its heart.

The aisle consists of complexes whose top cohomology is torsion; the
coaisle of those whose bottom cohomology is torsion-free.  Truncation
replaces the degree-zero term by the preimage of the torsion part of
H^0 inside the cycles (or the corresponding quotient), heart cohomology
composes the two truncations, and kernels and cokernels in the heart
are truncations of shifted cones.  Objects of the heart are represented
by two-term complexes in degrees [-1, 0] whose outer cohomologies land
in the free and torsion classes.

The truncations of a complex depend on the pair only through that
preimage, the aisle subspace of degree zero, and the aisle subspace
depends on it only through the torsion part of H^0.  The subspace is
built once per (complex, torsion part) and the truncations once per
(complex, aisle subspace), so every pair that cuts a complex at the
same subspace gets back the same truncation objects, and with them the
same cohomology, rank caches and cache keys.

Over a hereditary algebra every heart object splits as F[1] + T with F
free and T torsion (Happel-Reiten-Smalo, Mem. AMS 575, 1996): the
extension 0 -> F[1] -> X -> T -> 0 is classified by
Hom_D(T, F[2]) = Ext^2(T, F) = 0.  So the isomorphism classes of heart
objects are the pairs (free member, torsion member) of a universe, and
`heart_class_pairs` lists them in closed form once global dimension at
most one is certified; `heart_class_reps` gives the same classes as
complexes.  `tilted_pair_report` decides on the pairs themselves.

The same splitting holds for every bounded complex: it is isomorphic in
D^b to the sum of its shifted cohomologies (Happel, LMS LN 119, 1988),
so its isomorphism class, and Hom_D(a, b), depend only on the
isomorphism classes of the H^i.  `t_structure_report` keeps a table of
those classes: a module equal to one met before is looked up, so
`is_isomorphic` scans only modules never met.  It evaluates the
orthogonality of aisle against shifted coaisle once per pair of classes
with the split formula `derived.stalk_hom_dim`, on the stalks of the
class representatives.
All of them sit behind the certificate of
`derived._check_hereditary`, taken once per algebra: they raise
NotHereditary on an algebra of global dimension above one, with no
fallback scan.

Exactness of 0 -> X_0 -> ... -> X_n -> 0 is decided in one walk, behind
`heart_les_ok` and `heart_decomposition_ok`.  A zero object splits the
sequence into runs of nonzero objects, and the sequence is exact
exactly when each run is exact on its own; a run of one object never
is.  A run needs the kernel object of its first map to vanish, the
cokernel object of its last map to vanish, and, at each inner node
f, g, that g f = 0 and that the image of f fills the kernel of g.  Each
map's cone is built once and serves the node before it and the node
after it.

The walk takes one `_SplitCone` per map, for maps built as
`SplitMorphism`s (a, b, eps) between heart objects F[1] + T:
`heart_les_ok` straight from the module sequence,
`heart_decomposition_ok` as the canonical sequence (id, 0) then
(0, id).  Their kernels, images and cokernels are module pairs read off
one extension, and an inner node compares dim Hom_D(ker g, im f) with
dim Hom_D(ker g, ker g) by the split formula: g f = 0 makes
im f -> ker g a mono, and in a Hom-finite abelian category a mono
u: I -> K is an iso exactly when Hom(K, u) is onto.  That path builds
no complex, resolution, cone or truncation.  The tests hold it to the
chain-map cone of `heart_kernel` and `heart_cokernel`, walked the same
way.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import pairwise

from .complexes import (
    ChainMap,
    Complex,
    cohomology,
    cohomology_data,
    cone,
    is_exact_complex,
    is_quasi_iso,
)
# NotHereditary is imported to be re-exported from here.
from .derived import (
    DerivedMorphism,
    NotHereditary,
    _check_hereditary,
    _stalks,
    lift_postcompose,
    projective_resolution,
    stalk_hom_dim,
)
from .enumeration import ModuleUniverse, is_isomorphic
from .linalg import (
    Subspace,
    kernel_basis,
    quotient_maps,
    solve,
)
from .modules import (
    Ext1,
    Module,
    ModuleMap,
    ShortExactSeq,
    cokernel,
    direct_sum,
    ext1_basis,
    extension_realize,
    kernel,
    lift_through,
    quotient_by_subspace,
    submodule_from_subspace,
)
from .torsion import PairReport, TorsionPair
from .values import Value


def one_term(m: Module, shift: int = 0) -> Complex:
    """The module placed in degree -shift."""
    return Complex.from_module(m).shift(shift)


class InducedTStructure(Value):
    """The t-structure on complexes determined by a torsion pair,
    compared by value."""

    __slots__ = ("pair",)

    def __init__(self, pair: TorsionPair):
        self.pair = pair

    def _fields(self) -> tuple:
        return (self.pair,)

    def in_le(self, c: Complex, n: int = 0) -> bool:
        """Membership in the aisle: H^i = 0 above n and H^n torsion."""
        if any(cohomology(c, i).dim for i in range(n + 1, c.hi + 1)):
            return False
        return self.pair.in_torsion(cohomology(c, n))

    def in_ge(self, c: Complex, n: int = 0) -> bool:
        """Membership in the coaisle: H^i = 0 below n - 1 and H^(n-1)
        torsion-free."""
        if any(cohomology(c, i).dim for i in range(c.lo, n - 1)):
            return False
        return self.pair.in_free(cohomology(c, n - 1))

    def in_heart(self, c: Complex) -> bool:
        return self.in_le(c, 0) and self.in_ge(c, 0)


def induced_t_structure(pair: TorsionPair) -> InducedTStructure:
    return InducedTStructure(pair)


def _aisle_subspace(ts: InducedTStructure, c: Complex) -> Subspace:
    """The preimage of the torsion part of H^0 inside the cycles of
    degree zero: all that the truncations of c read off the pair."""
    return _preimage_in_cycles(c, ts.pair.torsion_subspace(cohomology(c, 0)))


@lru_cache(maxsize=None)
def _preimage_in_cycles(c: Complex, th: Subspace) -> Subspace:
    """The preimage of a subspace of H^0 inside the cycles of degree
    zero, built once per (complex, subspace), so pairs with the same
    torsion part of H^0 share it."""
    data = cohomology_data(c, 0)
    tproj, _ = quotient_maps(th)
    pre = kernel_basis(tproj @ data.h_proj.mat)
    vecs = [data.cycles_incl.mat.apply(v) for v in pre.basis.row_list()]
    return Subspace(c.algebra.field.p, c.component(0).dim, vecs)


@lru_cache(maxsize=None)
def _cut_below(c: Complex, x_sub: Subspace) -> tuple[Complex, ChainMap]:
    """c with degree zero shrunk to x_sub and nothing above, with its
    inclusion into c."""
    x_mod, x_incl = submodule_from_subspace(c.component(0), x_sub)
    lo = min(c.lo, 0)
    comps = [c.component(i) for i in range(lo, 0)] + [x_mod]
    diffs = [c.diff(i) for i in range(lo, -1)]
    if lo < 0:
        into = solve(x_incl.mat, c.diff(-1).mat)
        assert into is not None, "boundaries escape the truncation"
        diffs.append(ModuleMap(c.component(-1), x_mod, into))
    tr = Complex(c.algebra, lo, comps, diffs)
    incl_comps: dict[int, ModuleMap] = {0: x_incl}
    for i in range(lo, 0):
        incl_comps[i] = ModuleMap.identity(c.component(i))
    return tr, ChainMap(tr, c, incl_comps)


@lru_cache(maxsize=None)
def _cut_above(c: Complex, x_sub: Subspace) -> tuple[Complex, ChainMap]:
    """c with degree zero divided by x_sub and nothing below, with the
    projection from c."""
    q_mod, q_proj = quotient_by_subspace(c.component(0), x_sub)
    sol = solve(q_proj.mat.transpose(), c.diff(0).mat.transpose())
    assert sol is not None, "differential does not descend to the quotient"
    comps = [q_mod] + [c.component(i) for i in range(1, c.hi + 1)]
    diffs = [ModuleMap(q_mod, c.component(1), sol.transpose())]
    diffs += [c.diff(i) for i in range(1, c.hi)]
    if c.hi < 1:
        diffs = []
    q = Complex(c.algebra, 0, comps, diffs)
    proj_comps: dict[int, ModuleMap] = {0: q_proj}
    for i in range(1, c.hi + 1):
        proj_comps[i] = ModuleMap.identity(c.component(i))
    return q, ChainMap(c, q, proj_comps)


def truncate_le0(ts: InducedTStructure, c: Complex) -> tuple[Complex, ChainMap]:
    """The aisle truncation, with its inclusion into c.

    Everything below degree zero is kept; the degree-zero term shrinks
    to the preimage of the torsion part of H^0 in the cycles.  It
    depends on the pair only through that subspace, so pairs that cut c
    at the same subspace get back the same objects.
    """
    return _cut_below(c, _aisle_subspace(ts, c))


def truncate_ge1(ts: InducedTStructure, c: Complex) -> tuple[Complex, ChainMap]:
    """The coaisle truncation at level one, with the projection from c.

    Degree zero becomes the quotient by the aisle subspace; everything
    above is kept, everything below is dropped.  Like `truncate_le0` it
    is shared by the pairs that cut c at the same subspace.
    """
    return _cut_above(c, _aisle_subspace(ts, c))


def truncate_ge(ts: InducedTStructure, c: Complex) -> tuple[Complex, ChainMap]:
    """The coaisle truncation at level zero, with the projection from c."""
    q, proj = truncate_ge1(ts, c.shift(-1))
    return q.shift(1), proj.shift(1)


def _restrict(f: ModuleMap, incl_s: ModuleMap, incl_t: ModuleMap) -> ModuleMap:
    """f restricted to submodules of its ends, given by their inclusions."""
    sol = solve(incl_t.mat, f.mat @ incl_s.mat)
    assert sol is not None, "map does not respect the truncation"
    return ModuleMap(incl_s.source, incl_t.source, sol)


def _descend(f: ModuleMap, proj_s: ModuleMap, proj_t: ModuleMap) -> ModuleMap:
    """f descended to quotients of its ends, given by their projections."""
    sol = solve(proj_s.mat.transpose(), (proj_t.mat @ f.mat).transpose())
    assert sol is not None, "map does not descend to the quotient"
    return ModuleMap(proj_s.target, proj_t.target, sol.transpose())


def truncate_le0_map(ts: InducedTStructure, f: ChainMap) -> ChainMap:
    """The truncation applied to a chain map."""
    tr_s, incl_s = truncate_le0(ts, f.source)
    tr_t, incl_t = truncate_le0(ts, f.target)
    comps: dict[int, ModuleMap] = {0: _restrict(
        f.component(0), incl_s.component(0), incl_t.component(0))}
    for i in range(min(tr_s.lo, tr_t.lo), 0):
        comps[i] = f.component(i)
    return ChainMap(tr_s, tr_t, comps)


def truncate_ge1_map(ts: InducedTStructure, f: ChainMap) -> ChainMap:
    q_s, ps = truncate_ge1(ts, f.source)
    q_t, pt = truncate_ge1(ts, f.target)
    comps: dict[int, ModuleMap] = {0: _descend(
        f.component(0), ps.component(0), pt.component(0))}
    for i in range(1, max(q_s.hi, q_t.hi) + 1):
        comps[i] = f.component(i)
    return ChainMap(q_s, q_t, comps)


def truncate_ge_map(ts: InducedTStructure, f: ChainMap) -> ChainMap:
    return truncate_ge1_map(ts, f.shift(-1)).shift(1)


class LowerH0:
    """H^0 for the induced t-structure, reached through the aisle:
    h = (low truncation -> its coaisle quotient)."""

    __slots__ = ("h", "low", "incl", "proj")

    def __init__(self, h: Complex, low: Complex, incl: ChainMap,
                 proj: ChainMap):
        self.h = h
        self.low = low
        self.incl = incl  # low -> the original complex
        self.proj = proj  # low -> h


def h0_lower(ts: InducedTStructure, c: Complex) -> LowerH0:
    low, incl = truncate_le0(ts, c)
    h, proj = truncate_ge(ts, low)
    return LowerH0(h, low, incl, proj)


def h0_lower_map(ts: InducedTStructure, f: ChainMap) -> ChainMap:
    return truncate_ge_map(ts, truncate_le0_map(ts, f))


def t_cohomology(ts: InducedTStructure, c: Complex, i: int) -> Complex:
    """The degree-i heart cohomology of c as a two-term heart object."""
    return h0_lower(ts, c.shift(i)).h


class _HeartCone:
    """The cone of one derived heart morphism, with its kernel and
    cokernel built from it on first use, for `heart_kernel` and
    `heart_cokernel`.

    The representative is lifted to the projective resolution of the
    target, so the cone is that of a map of projective complexes.  The
    shifted cone has torsion cohomology only in degrees 0 (the kernel)
    and 1 (the cokernel), so the heart cohomology of the shifted cone is
    the kernel, and the coaisle part of the cone, truncated into the
    aisle, is the cokernel.  The lifts skip identities themselves: a
    target that is its own resolution and a truncation that cuts nothing
    cost no solve.
    """

    def __init__(self, ts: InducedTStructure, m: DerivedMorphism):
        self.ts = ts
        self.m = m

    @cached_property
    def _cone(self) -> tuple[Complex, ChainMap, ChainMap]:
        _, s_y = projective_resolution(self.m.target)
        return cone(lift_postcompose(s_y, self.m.rep))

    @cached_property
    def kernel(self) -> tuple[Complex, DerivedMorphism]:
        """The kernel with its inclusion: the heart cohomology of the
        aisle part of the shifted cone, mapped onto the source through
        the rotated triangle."""
        cn, _, onto = self._cone
        low, lincl = truncate_le0(self.ts, cn.shift(-1))
        k, kproj = truncate_ge(self.ts, low)
        assert is_quasi_iso(kproj), "aisle truncation of the shifted cone " \
                                    "is not concentrated in the heart"
        delta = onto.shift(-1).scale(-1)
        _, s_k = projective_resolution(k)
        w = lift_postcompose(kproj, s_k)
        _, s_x = projective_resolution(self.m.source)
        rep = s_x.compose(delta.compose(lincl.compose(w)))
        return k, DerivedMorphism(k, self.m.source, rep)

    @cached_property
    def cokernel(self) -> tuple[Complex, DerivedMorphism]:
        """The cokernel with its projection: the coaisle part of the cone,
        truncated into the aisle."""
        cn, into, _ = self._cone
        high, hproj = truncate_ge(self.ts, cn)
        ck, cincl = truncate_le0(self.ts, high)
        assert is_quasi_iso(cincl), "coaisle truncation of the cone is not " \
                                    "concentrated in the heart"
        g = lift_postcompose(cincl, hproj.compose(into))
        return ck, DerivedMorphism(self.m.target, ck, g)


def heart_kernel(ts: InducedTStructure, m: DerivedMorphism,
                 ) -> tuple[Complex, DerivedMorphism]:
    """The kernel of a heart morphism with its inclusion: the heart
    cohomology of the shifted cone, which maps onto the source by the
    rotated triangle."""
    return _HeartCone(ts, m).kernel


def heart_cokernel(ts: InducedTStructure, m: DerivedMorphism,
                   ) -> tuple[Complex, DerivedMorphism]:
    """The cokernel of a heart morphism with its projection."""
    return _HeartCone(ts, m).cokernel


def is_heart_zero(c: Complex) -> bool:
    return is_exact_complex(c)


@lru_cache(maxsize=None)
def _ext(t: Module, f: Module) -> Ext1:
    """Ext^1(t, f) as `ext1_basis` presents it, built once per pair of
    modules, so every split cocycle from t sits on the same syzygy."""
    return ext1_basis(t, f)


def _syzygy_lift(b: ModuleMap, src: Ext1, tgt: Ext1) -> ModuleMap:
    """A map from the syzygy of src.m to that of tgt.m over b: the lift
    of b to the projective covers, restricted to the syzygies."""
    beta = lift_through(tgt.cover, b.compose(src.cover))
    mu = solve(tgt.incl.mat, beta.mat @ src.incl.mat)
    return ModuleMap(src.incl.source, tgt.incl.source, mu)


class SplitMorphism:
    """A heart morphism F_X[1] + T_X -> F_Y[1] + T_Y in Happel's split
    form, over a hereditary algebra: a: F_X -> F_Y, b: T_X -> T_Y, and
    eps, a cocycle of Ext^1(T_X, F_Y) = Hom_D(T_X, F_Y[1]) on the
    syzygy of T_X as `ext` presents it.  Hom_D(F_X[1], T_Y) = 0, so
    that is the whole morphism."""

    __slots__ = ("a", "b", "eps")

    def __init__(self, a: ModuleMap, b: ModuleMap, eps: ModuleMap):
        self.a = a
        self.b = b
        self.eps = eps

    @classmethod
    def diagonal(cls, a: ModuleMap, b: ModuleMap) -> "SplitMorphism":
        """(a, b) with the zero Ext part."""
        omega = _ext(b.source, a.target).incl.source
        return cls(a, b, ModuleMap.zero(omega, a.target))

    @property
    def ext(self) -> Ext1:
        return _ext(self.b.source, self.a.target)

    def compose(self, other: "SplitMorphism") -> "SplitMorphism":
        """self after other, the Yoneda product (a'a, b'b, a'.eps +
        eps'.b); Ext^1 after Ext^1 lands in Ext^2 = 0."""
        eps = self.a.compose(other.eps)
        if not self.eps.is_zero():
            lift = _syzygy_lift(other.b, other.ext, self.ext)
            eps = eps + self.eps.compose(lift)
        return SplitMorphism(self.a.compose(other.a),
                             self.b.compose(other.b), eps)

    def is_zero(self) -> bool:
        return (self.a.is_zero() and self.b.is_zero()
                and self.ext.is_coboundary(self.eps))


def _split_hom_dim(x: tuple[Module, Module], y: tuple[Module, Module]) -> int:
    """dim Hom_D(F_x[1] + T_x, F_y[1] + T_y) by the split formula."""
    return stalk_hom_dim([(-1, x[0]), (0, x[1])], [(-1, y[0]), (0, y[1])])


class _SplitCone:
    """Kernel, image and cokernel of a split heart morphism (a, b, eps),
    as pairs (free part, torsion part) of modules.

    H^-1 of the cone is the extension 0 -> coker a -> E -> ker b -> 0
    whose class is eps pulled back to ker b and pushed to coker a; its
    other cohomologies are ker a (degree -2) and coker b (degree 0).  So
    the kernel is (ker a, t(E)), the cokernel (f(E), coker b) and the
    image (ker(F_Y -> f(E)), coker(t(E) -> T_X)).  E is built as the
    preimage of ker b in the extension of T_X by coker a, which
    realizes eps pushed to coker a, so no lift to the syzygy of ker b
    is needed.
    """

    def __init__(self, ts: InducedTStructure, m: SplitMorphism):
        self.ts = ts
        self.m = m

    @cached_property
    def source_is_zero(self) -> bool:
        return not (self.m.a.source.dim or self.m.b.source.dim)

    @cached_property
    def target_is_zero(self) -> bool:
        return not (self.m.a.target.dim or self.m.b.target.dim)

    @cached_property
    def _middle(self) -> tuple[ModuleMap, ShortExactSeq, ModuleMap,
                               ShortExactSeq]:
        """coker a's projection, the extension 0 -> coker a -> E' -> T_X
        -> 0, the inclusion of E into E' and the torsion decomposition
        of E."""
        a, b = self.m.a, self.m.b
        _, ca = cokernel(a)
        pushed = ca.compose(self.m.eps)
        if pushed.is_zero():
            _, incls, projs = direct_sum(a.source.algebra,
                                         [ca.target, b.source])
            whole = ShortExactSeq(incls[0], projs[1])
        else:
            whole = extension_realize(self.m.ext, pushed)
        _, e_incl = kernel(b.compose(whole.epi))
        return ca, whole, e_incl, self.ts.pair.decompose(e_incl.source)

    @cached_property
    def kernel_object(self) -> tuple[Module, Module]:
        _, _, _, dec = self._middle
        return kernel(self.m.a)[0], dec.sub

    @cached_property
    def image_object(self) -> tuple[Module, Module]:
        ca, whole, e_incl, dec = self._middle
        into_e = solve(e_incl.mat, whole.mono.mat @ ca.mat)
        onto_free = ModuleMap(self.m.a.target, dec.quot, dec.epi.mat @ into_e)
        t_image = whole.epi.compose(e_incl).compose(dec.mono)
        return kernel(onto_free)[0], cokernel(t_image)[0]

    @property
    def kernel_is_zero(self) -> bool:
        _, _, _, dec = self._middle
        return self.m.a.is_injective() and not dec.sub.dim

    @property
    def cokernel_is_zero(self) -> bool:
        _, _, _, dec = self._middle
        return self.m.b.is_surjective() and not dec.quot.dim

    def exact_after(self, f: "_SplitCone") -> bool:
        """Exactness at the middle of f then self.  A vanishing composite
        makes the image of f a subobject of the kernel K of self, and in
        a Hom-finite abelian category a mono u: I -> K is an iso exactly
        when Hom(K, u) is onto, that is, when the dimensions of Hom(K, I)
        and Hom(K, K) agree."""
        if not self.m.compose(f.m).is_zero():
            return False
        k = self.kernel_object
        return _split_hom_dim(k, f.image_object) == _split_hom_dim(k, k)


def _exact_run(cones: list[_SplitCone]) -> bool:
    """0 -> X_0 -> ... -> X_n -> 0 with every X_i nonzero, given by the
    cones of its maps: mono at the first map, epi at the last, exact at
    every inner node.  With no map the run is one nonzero object, which
    is never exact."""
    if not cones:
        return False
    return (cones[0].kernel_is_zero and cones[-1].cokernel_is_zero
            and all(g.exact_after(f) for f, g in pairwise(cones)))


def _heart_exact_sequence(cones: list[_SplitCone]) -> bool:
    """0 -> X_0 -> ... -> X_n -> 0 through composable heart maps, given
    by their cones.

    Every map into or out of a zero object is zero, so exactness at a
    zero object holds, and exactness next to one asks for an epi or a
    mono.  The sequence is therefore exact exactly when each maximal
    run of nonzero objects is exact on its own, and only those runs are
    walked.  Each cone serves the kernel one node asks for and the
    cokernel or image the next node asks for.
    """
    zero = [cones[0].source_is_zero] + [c.target_is_zero for c in cones]
    cuts = [-1] + [k for k, z in enumerate(zero) if z] + [len(zero)]
    # The run between zero objects a and b is X_(a+1), ..., X_(b-1),
    # joined by cones[a + 1:b - 1].
    return all(_exact_run(cones[a + 1:b - 1])
               for a, b in pairwise(cuts) if b > a + 1)


def heart_les_ok(ts: InducedTStructure, ses: ShortExactSeq) -> bool:
    """The six-term heart sequence of a module short exact sequence
    0 -> A -> B -> C -> 0: torsion parts in degree zero, free parts
    shifted once, joined by the boundary morphism t(C) -> f(A)[1].
    Checks exactness at every node, on split morphisms built from the
    module sequence: the boundary's class is the sequence's cocycle,
    pulled back to t(C) and pushed to f(A).  Raises NotHereditary on an
    algebra of global dimension above one."""
    alg = ses.sub.algebra
    _check_hereditary(alg)
    pair = ts.pair
    a, b, c = (pair.decompose(m) for m in (ses.sub, ses.middle, ses.quot))
    zero = Module.zero(alg)
    nothing = ModuleMap.zero(zero, zero)

    def on_torsion(f, s, t):
        return SplitMorphism.diagonal(nothing, _restrict(f, s.mono, t.mono))

    def on_free(f, s, t):
        return SplitMorphism.diagonal(_descend(f, s.epi, t.epi), nothing)

    ext = _ext(c.sub, a.quot)
    lam = lift_through(ses.epi, c.mono.compose(ext.cover))
    mu = solve(ses.mono.mat, lam.mat @ ext.incl.mat)
    bound = SplitMorphism(ModuleMap.zero(zero, a.quot),
                          ModuleMap.zero(c.sub, zero),
                          ModuleMap(ext.incl.source, a.quot,
                                    a.epi.mat @ mu))
    return _heart_exact_sequence([_SplitCone(ts, m) for m in (
        on_torsion(ses.mono, a, b), on_torsion(ses.epi, b, c), bound,
        on_free(ses.mono, a, b), on_free(ses.epi, b, c))])


def heart_class_pairs(ts: InducedTStructure, uni: ModuleUniverse,
                      dim_bound: int = 3) -> list[tuple[Module, Module]]:
    """The isomorphism classes of heart objects with total dimension
    within the bound, as pairs (F, T) standing for the split stalk sum
    F[1] + T, for F free and T torsion among the universe members with
    dim F + dim T within the bound.

    Over a hereditary algebra every heart object is isomorphic to the
    sum of its cohomology stalks, so these are all the classes, each
    once.  They come ordered by (members index of F, members index of
    T), which is the first-occurrence order of the exhaustive scan that
    `enumerate_heart_objects` followed by an isomorphism dedupe
    performs: members are sorted by (dim, signature), and a
    complex a -> b with kernel F has dim a >= dim F, with equality only
    when the differential is zero.  Raises NotHereditary otherwise.
    """
    _check_hereditary(uni.algebra)
    pair = ts.pair
    free = [f for f in uni.members if pair.in_free(f)]
    tors = [t for t in uni.members if pair.in_torsion(t)]
    return [(f, t) for f in free for t in tors if f.dim + t.dim <= dim_bound]


def heart_class_reps(ts: InducedTStructure, uni: ModuleUniverse,
                     dim_bound: int = 3) -> list[Complex]:
    """The classes of `heart_class_pairs` as complexes F -> T with zero
    differential, in the same order."""
    return [Complex(uni.algebra, -1, [f, t], [ModuleMap.zero(f, t)])
            for f, t in heart_class_pairs(ts, uni, dim_bound)]


def kv_classes(ts: InducedTStructure, uni: ModuleUniverse,
               ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of the indecomposables whose stalks sit in the aisle, and
    of those whose first shifts sit in the coaisle: the torsion pair is
    recoverable from the t-structure alone."""
    t_idx = tuple(k for k, m in enumerate(uni.indecs)
                  if ts.in_le(one_term(m), 0))
    f_idx = tuple(k for k, m in enumerate(uni.indecs)
                  if ts.in_ge(one_term(m, 1), 0))
    return t_idx, f_idx


def heart_decomposition_ok(ts: InducedTStructure, f: Module,
                           t: Module) -> bool:
    """Whether the canonical sequence 0 -> F[1] -> F[1] + T -> T -> 0 of
    the heart object F[1] + T is heart-exact, walked in split form as
    (id_F, 0) followed by (0, id_T)."""
    zero = Module.zero(f.algebra)
    into = SplitMorphism.diagonal(ModuleMap.identity(f),
                                  ModuleMap.zero(zero, t))
    onto = SplitMorphism.diagonal(ModuleMap.zero(f, zero),
                                  ModuleMap.identity(t))
    return _heart_exact_sequence([_SplitCone(ts, into), _SplitCone(ts, onto)])


def tilted_pair_report(ts: InducedTStructure, uni: ModuleUniverse,
                       dim_bound: int = 3) -> PairReport:
    """The pair (shifted free class, torsion stalks) as a torsion pair
    on the heart: the canonical decomposition of every heart isomorphism
    class within the bound (`heart_class_pairs`) is a heart-exact
    sequence.  Exactness is invariant under isomorphism, so one object
    per class decides it; a failure names the class by its position #k
    among the class pairs, which is not its position in an exhaustive
    scan of heart objects.  Raises NotHereditary on an algebra of global
    dimension above one.

    The orthogonality Hom_D(F[1], T) = 0 and the full faithfulness of
    the shifts hold for any modules, as dim Hom_D(A[1], B) = 0 and
    dim Hom_D(A[s], B[s]) = dim Hom(A, B), so they are not tested here;
    the tests hold `derived_hom_dim` to both identities."""
    failures = [f"decomposition of heart object #{k} is not exact"
                for k, (f, t) in enumerate(heart_class_pairs(ts, uni, dim_bound))
                if not heart_decomposition_ok(ts, f, t)]
    return PairReport(not failures, tuple(failures))


def _cohomology_key(c: Complex, seen: dict[Module, Module],
                    ) -> tuple[tuple[int, Module], ...]:
    """The nonzero cohomology stalks of c, each module replaced by the
    representative of its isomorphism class: complexes get equal keys
    exactly when their cohomologies are isomorphic degree by degree.
    seen maps every module met before to its representative, so only a
    module never met is scanned by `is_isomorphic`, against the modules
    that represent themselves, and it represents itself if none
    matches.  Empty for an acyclic complex."""
    key = []
    for i, h in _stalks(c):
        if h not in seen:
            seen[h] = next((r for m, r in seen.items()
                            if m is r and is_isomorphic(r, h)), h)
        key.append((i, seen[h]))
    return tuple(key)


def t_structure_report(ts: InducedTStructure, complexes: list[Complex],
                       ) -> PairReport:
    """Axioms of the induced t-structure over a finite set of test
    complexes: truncation memberships, levelwise exactness of the
    truncation sequence, and orthogonality of aisle against shifted
    coaisle.

    Each complex's aisle subspace is computed once and cut both ways.
    Levelwise exactness of 0 -> tr -> c -> q -> 0 is decided by
    dimension: the inclusion is injective, the projection surjective,
    their composite zero, and dim tr + dim q = dim c.

    Over a hereditary algebra every complex is isomorphic in D^b to the
    sum of its shifted cohomologies (Happel, LMS LN 119, 1988), so
    Hom_D(a, b) depends only on the isomorphism classes of the H^i of a
    and b.  The report keeps one class table: each cohomology module is
    looked up, and only a module never met is scanned for isomorphism
    against the representatives found so far.  Orthogonality is then
    evaluated by `stalk_hom_dim` once per pair of cohomology classes of
    nonzero truncations, on the stalks of the class representatives; a
    failing class pair is still reported at every index pair where it
    occurs, in row-major order.  Global dimension at most one is
    certified first, and NotHereditary is raised otherwise.
    """
    if complexes:
        _check_hereditary(complexes[0].algebra)
    failures: list[str] = []
    lows = []
    highs = []
    for k, c in enumerate(complexes):
        x_sub = _aisle_subspace(ts, c)
        tr, incl = _cut_below(c, x_sub)
        q, proj = _cut_above(c, x_sub)
        lows.append(tr)
        highs.append(q)
        if not ts.in_le(tr, 0):
            failures.append(f"truncation of #{k} misses the aisle")
        if not ts.in_ge(q, 1):
            failures.append(f"quotient of #{k} misses the coaisle")
        for i in range(min(c.lo, tr.lo), max(c.hi, q.hi) + 1):
            mono = incl.component(i)
            epi = proj.component(i)
            # With mono injective, epi surjective and epi.mono = 0, the
            # image of mono lies in the kernel of epi, and the two are
            # equal exactly when their dimensions are.
            if (not mono.is_injective() or not epi.is_surjective()
                    or mono.source.dim + epi.target.dim != mono.target.dim
                    or not epi.compose(mono).is_zero()):
                failures.append(f"truncation of #{k} not exact at {i}")
                break
    # One class key per truncation, on the module classes met in this
    # report; its stalks are those of the class representatives.
    seen: dict[Module, Module] = {}
    keys: dict[Complex, tuple] = {}
    for c in lows + highs:
        if c not in keys:
            keys[c] = _cohomology_key(c, seen)

    def classes(items: list[Complex]) -> tuple[list[int], list[tuple]]:
        """The position of each item's key among the distinct keys, and
        the distinct keys in order of first occurrence."""
        ids: dict[tuple, int] = {}
        return [ids.setdefault(keys[c], len(ids)) for c in items], list(ids)

    low_ids, low_keys = classes(lows)
    high_ids, high_keys = classes(highs)
    nonzero_highs = [(j, b) for j, b in enumerate(high_keys) if b]
    hits: dict[int, set[int]] = {}
    for i, a in enumerate(low_keys):
        if a:
            row = {j for j, b in nonzero_highs if stalk_hom_dim(a, b)}
            if row:
                hits[i] = row
    for ka, i in enumerate(low_ids):
        row = hits.get(i)
        if row:
            failures.extend(f"aisle #{ka} maps onto shifted coaisle #{kb}"
                            for kb, j in enumerate(high_ids) if j in row)
    return PairReport(not failures, tuple(failures))
