"""The t-structure induced by a torsion pair, and its heart.

The aisle consists of complexes whose top cohomology is torsion; the
coaisle of those whose bottom cohomology is torsion-free.  Truncation
replaces the degree-zero term by the preimage of the torsion part of
H^0 inside the cycles (or the corresponding quotient), heart cohomology
composes the two truncations, and kernels and cokernels in the heart
are truncations of shifted cones.  Objects of the heart are represented
by two-term complexes in degrees [-1, 0] whose outer cohomologies land
in the free and torsion classes.

Over a hereditary algebra every heart object splits as F[1] + T with F
free and T torsion (Happel-Reiten-Smalo, Mem. AMS 575, 1996): the
extension 0 -> F[1] -> X -> T -> 0 is classified by
Hom_D(T, F[2]) = Ext^2(T, F) = 0.  So the isomorphism classes of heart
objects are the pairs (free member, torsion member) of a universe, and
`heart_class_reps` lists them in closed form once global dimension at
most one is certified.  The exhaustive `enumerate_heart_objects` and
`heart_is_isomorphic` stay for the reports that test the enumeration
itself and as the oracle of that closed form.

The same splitting holds for every bounded complex: it is isomorphic in
D^b to the sum of its shifted cohomologies (Happel, LMS LN 119, 1988),
so Hom_D(a, b) depends only on the isomorphism classes of the H^i of a
and of b.  `t_structure_report` therefore evaluates the orthogonality of
aisle against shifted coaisle once per pair of such cohomology classes,
behind the same certificate: it raises NotHereditary on an algebra of
global dimension above one, with no fallback sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebras import Algebra
from .complexes import (
    ChainMap,
    Complex,
    cohomology,
    cohomology_data,
    cone,
    is_exact_complex,
    is_quasi_iso,
)
from .derived import (
    DerivedMorphism,
    derived_hom0,
    derived_hom_dim,
    lift_postcompose,
    projective_resolution,
)
from .enumeration import (
    SEARCH_CAP,
    BoundExceeded,
    ModuleUniverse,
    is_isomorphic,
)
from .linalg import (
    Subspace,
    all_vectors,
    image_basis,
    kernel_basis,
    quotient_maps,
    solve,
)
from .modules import (
    Module,
    ModuleMap,
    ShortExactSeq,
    cokernel,
    hom_basis,
    hom_dim,
    is_projective,
    kernel,
    lift_through,
    quotient_by_subspace,
    simple_module,
    submodule_from_subspace,
    syzygy,
)
from .torsion import PairReport, TorsionPair


def one_term(m: Module, shift: int = 0) -> Complex:
    """The module placed in degree -shift."""
    return Complex.from_module(m).shift(shift)


@dataclass(frozen=True)
class InducedTStructure:
    """The t-structure on complexes determined by a torsion pair."""

    pair: TorsionPair

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


@lru_cache(maxsize=None)
def _degree_zero_part(ts: InducedTStructure, c: Complex,
                      ) -> tuple[Subspace, Module, ModuleMap]:
    """The preimage of the torsion part of H^0 inside the cycles of
    degree zero, as a submodule of the degree-zero component."""
    c0 = c.component(0)
    data = cohomology_data(c, 0)
    th = ts.pair.torsion_subspace(data.h)
    tproj, _ = quotient_maps(th)
    pre = kernel_basis(tproj @ data.h_proj.mat)
    vecs = [data.cycles_incl.mat.apply(v) for v in pre.basis.row_list()]
    x_sub = Subspace(c.algebra.field.p, c0.dim, vecs)
    x_mod, x_incl = submodule_from_subspace(c0, x_sub)
    return x_sub, x_mod, x_incl


@lru_cache(maxsize=None)
def truncate_le0(ts: InducedTStructure, c: Complex) -> tuple[Complex, ChainMap]:
    """The aisle truncation, with its inclusion into c.

    Everything below degree zero is kept; the degree-zero term shrinks
    to the preimage of the torsion part of H^0 in the cycles.
    """
    _, x_mod, x_incl = _degree_zero_part(ts, c)
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
def truncate_ge1(ts: InducedTStructure, c: Complex) -> tuple[Complex, ChainMap]:
    """The coaisle truncation at level one, with the projection from c.

    Degree zero becomes the quotient by the aisle part; everything above
    is kept, everything below is dropped.
    """
    x_sub, _, _ = _degree_zero_part(ts, c)
    c0 = c.component(0)
    q_mod, q_proj = quotient_by_subspace(c0, x_sub)
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


def truncate_le(ts: InducedTStructure, c: Complex, n: int,
                ) -> tuple[Complex, ChainMap]:
    tr, incl = truncate_le0(ts, c.shift(n))
    return tr.shift(-n), incl.shift(-n)


def truncate_ge(ts: InducedTStructure, c: Complex, n: int,
                ) -> tuple[Complex, ChainMap]:
    q, proj = truncate_ge1(ts, c.shift(n - 1))
    return q.shift(1 - n), proj.shift(1 - n)


def truncate_le0_map(ts: InducedTStructure, f: ChainMap) -> ChainMap:
    """The truncation applied to a chain map."""
    tr_s, _ = truncate_le0(ts, f.source)
    tr_t, _ = truncate_le0(ts, f.target)
    _, xs_mod, xs_incl = _degree_zero_part(ts, f.source)
    _, xt_mod, xt_incl = _degree_zero_part(ts, f.target)
    restricted = solve(xt_incl.mat, f.component(0).mat @ xs_incl.mat)
    assert restricted is not None, "map does not respect the truncation"
    comps: dict[int, ModuleMap] = {
        0: ModuleMap(xs_mod, xt_mod, restricted, validate=False)}
    for i in range(min(tr_s.lo, tr_t.lo), 0):
        comps[i] = f.component(i)
    return ChainMap(tr_s, tr_t, comps)


def truncate_ge1_map(ts: InducedTStructure, f: ChainMap) -> ChainMap:
    q_s, ps = truncate_ge1(ts, f.source)
    q_t, pt = truncate_ge1(ts, f.target)
    sol = solve(ps.component(0).mat.transpose(),
                (pt.component(0).mat @ f.component(0).mat).transpose())
    assert sol is not None, "map does not descend to the quotient"
    comps: dict[int, ModuleMap] = {
        0: ModuleMap(q_s.component(0), q_t.component(0), sol.transpose(),
                     validate=False)}
    for i in range(1, max(q_s.hi, q_t.hi) + 1):
        comps[i] = f.component(i)
    return ChainMap(q_s, q_t, comps)


def truncate_ge_map(ts: InducedTStructure, f: ChainMap, n: int) -> ChainMap:
    return truncate_ge1_map(ts, f.shift(n - 1)).shift(1 - n)


@dataclass(frozen=True)
class LowerH0:
    """H^0 for the induced t-structure, reached through the aisle:
    h = (low truncation -> its coaisle quotient)."""

    h: Complex
    low: Complex
    incl: ChainMap  # low -> the original complex
    proj: ChainMap  # low -> h


@dataclass(frozen=True)
class UpperH0:
    """H^0 reached through the coaisle: h included into the high
    truncation."""

    h: Complex
    high: Complex
    proj: ChainMap  # the original complex -> high
    incl: ChainMap  # h -> high


def h0_lower(ts: InducedTStructure, c: Complex) -> LowerH0:
    low, incl = truncate_le0(ts, c)
    h, proj = truncate_ge(ts, low, 0)
    return LowerH0(h, low, incl, proj)


def h0_upper(ts: InducedTStructure, c: Complex) -> UpperH0:
    high, proj = truncate_ge(ts, c, 0)
    h, incl = truncate_le0(ts, high)
    return UpperH0(h, high, proj, incl)


def h0_lower_map(ts: InducedTStructure, f: ChainMap) -> ChainMap:
    return truncate_ge_map(ts, truncate_le0_map(ts, f), 0)


def t_cohomology(ts: InducedTStructure, c: Complex, i: int) -> Complex:
    """The degree-i heart cohomology of c as a two-term heart object."""
    return h0_lower(ts, c.shift(i)).h


def _lift_rep_to_projectives(m: DerivedMorphism) -> ChainMap:
    res_y, s_y = projective_resolution(m.target)
    if res_y == m.target:
        return m.rep
    return lift_postcompose(s_y, m.rep)


def heart_kernel(ts: InducedTStructure, m: DerivedMorphism,
                 ) -> tuple[Complex, DerivedMorphism]:
    """The kernel of a heart morphism with its inclusion.

    Computed as heart cohomology of the shifted cone: the shifted cone
    has torsion cohomology only in degrees 0 (the kernel) and 1 (the
    cokernel), so its aisle truncation is quasi-isomorphic to the kernel
    and maps onto the source by the rotated triangle.
    """
    rep_p = _lift_rep_to_projectives(m)
    cn, _, onto = cone(rep_p)
    z = cn.shift(-1)
    delta = onto.shift(-1).scale(-1)
    low, lincl = truncate_le0(ts, z)
    k, kproj = truncate_ge(ts, low, 0)
    assert is_quasi_iso(kproj), "aisle truncation of the shifted cone " \
                                "is not concentrated in the heart"
    res_k, s_k = projective_resolution(k)
    w = lift_postcompose(kproj, s_k)
    _, s_x = projective_resolution(m.source)
    rep = s_x.compose(delta.compose(lincl.compose(w)))
    return k, DerivedMorphism(k, m.source, rep)


def heart_cokernel(ts: InducedTStructure, m: DerivedMorphism,
                   ) -> tuple[Complex, DerivedMorphism]:
    """The cokernel of a heart morphism with its projection."""
    rep_p = _lift_rep_to_projectives(m)
    cn, into, _ = cone(rep_p)
    high, hproj = truncate_ge(ts, cn, 0)
    ck, cincl = truncate_le0(ts, high)
    assert is_quasi_iso(cincl), "coaisle truncation of the cone is not " \
                                "concentrated in the heart"
    v = hproj.compose(into)
    g = lift_postcompose(cincl, v)
    return ck, DerivedMorphism(m.target, ck, g)


def is_heart_zero(c: Complex) -> bool:
    return is_exact_complex(c)


def is_heart_mono(ts: InducedTStructure, m: DerivedMorphism) -> bool:
    k, _ = heart_kernel(ts, m)
    return is_heart_zero(k)


def is_heart_epi(ts: InducedTStructure, m: DerivedMorphism) -> bool:
    ck, _ = heart_cokernel(ts, m)
    return is_heart_zero(ck)


def factor_through_mono(mono: DerivedMorphism, f: DerivedMorphism,
                        ) -> DerivedMorphism:
    """The morphism g with mono . g = f, solved in hom coordinates."""
    if mono.target != f.target:
        raise ValueError("factoring needs a common target")
    g = derived_hom0(f.source, mono.source).preimage(
        derived_hom0(f.source, f.target), mono.compose, f)
    assert g is not None, "morphism does not factor through the mono"
    assert mono.compose(g).equals(f)
    return g


def factor_through_epi(epi: DerivedMorphism, f: DerivedMorphism,
                       ) -> DerivedMorphism:
    """The morphism g with g . epi = f, solved in hom coordinates."""
    if epi.source != f.source:
        raise ValueError("factoring needs a common source")
    g = derived_hom0(epi.target, f.target).preimage(
        derived_hom0(epi.source, f.target), lambda b: b.compose(epi), f)
    assert g is not None, "morphism does not factor through the epi"
    assert g.compose(epi).equals(f)
    return g


def heart_exact_at(ts: InducedTStructure, f: DerivedMorphism,
                   g: DerivedMorphism) -> bool:
    """Exactness of a composable heart pair at the middle object."""
    if not g.compose(f).is_zero():
        return False
    k, kincl = heart_kernel(ts, g)
    fbar = factor_through_mono(kincl, f)
    return is_heart_epi(ts, fbar)


def heart_ses_ok(ts: InducedTStructure, f: DerivedMorphism,
                 g: DerivedMorphism) -> bool:
    return (is_heart_mono(ts, f)
            and heart_exact_at(ts, f, g)
            and is_heart_epi(ts, g))


@dataclass(frozen=True)
class HeartDecomposition:
    """The canonical sequence 0 -> H^-1(x)[1] -> x -> H^0(x)[0] -> 0 of
    a heart object, with plain cohomology."""

    tor: Complex
    t_incl: DerivedMorphism
    quo: Complex
    q_proj: DerivedMorphism


def heart_decompose(ts: InducedTStructure, x: Complex) -> HeartDecomposition:
    if x.components and (x.lo < -1 or x.hi > 0):
        raise ValueError("expected a two-term complex in degrees [-1, 0]")
    if not ts.in_heart(x):
        raise ValueError("complex does not lie in the heart")
    d = x.diff(-1)
    kmod, kincl = kernel(d)
    tor = one_term(kmod, 1)
    t_map = ChainMap(tor, x, {-1: kincl})
    hmod, hproj = cokernel(d)
    quo = one_term(hmod)
    q_map = ChainMap(x, quo, {0: hproj})
    return HeartDecomposition(tor, DerivedMorphism.from_chain_map(t_map),
                              quo, DerivedMorphism.from_chain_map(q_map))


def connecting_morphism(ses: ShortExactSeq) -> DerivedMorphism:
    """The boundary morphism quot[0] -> sub[1] of a module short exact
    sequence, realized on the projective resolution of the quotient."""
    res, cmp = projective_resolution(one_term(ses.quot))
    lam = lift_through(ses.epi, cmp.component(0))
    assert lam is not None, "map does not lift through the cover"
    if res.lo == 0:
        return DerivedMorphism.zero(one_term(ses.quot), one_term(ses.sub, 1))
    iota = res.diff(-1)
    mu = solve(ses.mono.mat, lam.mat @ iota.mat)
    assert mu is not None, "syzygy image escapes the submodule"
    rep = ChainMap(res, one_term(ses.sub, 1),
                   {-1: ModuleMap(res.component(-1), ses.sub, mu,
                                  validate=True)})
    return DerivedMorphism(one_term(ses.quot), one_term(ses.sub, 1), rep)


def _restrict_to_torsion(pair: TorsionPair, f: ModuleMap,
                         incl_s: ModuleMap, incl_t: ModuleMap) -> ModuleMap:
    sol = solve(incl_t.mat, f.mat @ incl_s.mat)
    assert sol is not None, "map does not preserve the torsion part"
    return ModuleMap(incl_s.source, incl_t.source, sol, validate=False)


def _descend_to_free(pair: TorsionPair, f: ModuleMap,
                     proj_s: ModuleMap, proj_t: ModuleMap) -> ModuleMap:
    sol = solve(proj_s.mat.transpose(), (proj_t.mat @ f.mat).transpose())
    assert sol is not None, "map does not descend to the free part"
    return ModuleMap(proj_s.target, proj_t.target, sol.transpose(),
                     validate=False)


def heart_les_ok(ts: InducedTStructure, ses: ShortExactSeq) -> bool:
    """The six-term heart sequence of a module short exact sequence:
    torsion parts in degree zero, free parts shifted once, joined by the
    boundary morphism.  Checks exactness at every node."""
    pair = ts.pair
    dec = {name: pair.decompose(m) for name, m in
           (("a", ses.sub), ("b", ses.middle), ("c", ses.quot))}
    t_incl = {k: d.mono for k, d in dec.items()}
    f_proj = {k: d.epi for k, d in dec.items()}

    def t_morphism(src, tgt, f):
        g = _restrict_to_torsion(pair, f, t_incl[src], t_incl[tgt])
        return DerivedMorphism.from_chain_map(
            ChainMap(one_term(g.source), one_term(g.target), {0: g}))

    def f_morphism(src, tgt, f):
        g = _descend_to_free(pair, f, f_proj[src], f_proj[tgt])
        return DerivedMorphism.from_chain_map(
            ChainMap(one_term(g.source, 1), one_term(g.target, 1), {-1: g}))

    m1 = t_morphism("a", "b", ses.mono)
    m2 = t_morphism("b", "c", ses.epi)
    m4 = f_morphism("a", "b", ses.mono)
    m5 = f_morphism("b", "c", ses.epi)
    bound = connecting_morphism(ses)
    into_c = DerivedMorphism.from_chain_map(
        ChainMap(one_term(dec["c"].sub), one_term(ses.quot),
                 {0: t_incl["c"]}))
    onto_fa = DerivedMorphism.from_chain_map(
        ChainMap(one_term(ses.sub, 1), one_term(dec["a"].quot, 1),
                 {-1: f_proj["a"]}))
    m3 = onto_fa.compose(bound.compose(into_c))
    return (is_heart_mono(ts, m1)
            and heart_exact_at(ts, m1, m2)
            and heart_exact_at(ts, m2, m3)
            and heart_exact_at(ts, m3, m4)
            and heart_exact_at(ts, m4, m5)
            and is_heart_epi(ts, m5))


def enumerate_heart_objects(ts: InducedTStructure, uni: ModuleUniverse,
                            dim_bound: int) -> list[Complex]:
    """All two-term heart objects with components from the universe and
    total dimension within the bound, by a scan of every differential."""
    pair = ts.pair
    p = uni.algebra.field.p
    out: list[Complex] = []
    for a in uni.members:
        for b in uni.members:
            if a.dim + b.dim > dim_bound:
                continue
            maps = hom_basis(a, b)
            if p ** len(maps) > SEARCH_CAP:
                raise BoundExceeded("heart object scan too large")
            for coeffs in all_vectors(p, len(maps)):
                d = ModuleMap.zero(a, b)
                for cf, h in zip(coeffs, maps):
                    if cf:
                        d = d + h.scale(cf)
                if not pair.in_free(kernel(d)[0]):
                    continue
                if not pair.in_torsion(cokernel(d)[0]):
                    continue
                out.append(Complex(uni.algebra, -1, [a, b], [d],
                                   validate=False))
    return out


def heart_is_isomorphic(x: Complex, y: Complex) -> bool:
    """Whether two heart objects are isomorphic in the derived category,
    by scanning the hom space for a quasi-isomorphism."""
    if is_exact_complex(x) or is_exact_complex(y):
        return is_exact_complex(x) and is_exact_complex(y)
    for i in (-1, 0):
        if cohomology(x, i).vertex_dims() != cohomology(y, i).vertex_dims():
            return False
    h = derived_hom0(x, y)
    p = x.algebra.field.p
    if p ** h.dim > SEARCH_CAP:
        raise BoundExceeded("isomorphism scan too large")
    for coeffs in all_vectors(p, h.dim):
        if any(coeffs) and h.element(coeffs).is_iso():
            return True
    return False


class NotHereditary(ValueError):
    """The algebra has a simple of projective dimension above one, so
    heart objects need not split into their cohomology stalks."""


def _check_hereditary(alg: Algebra) -> None:
    """Certify global dimension at most one: the syzygy of every simple
    is projective.  Raises NotHereditary naming the first simple that
    fails."""
    for pos, e in enumerate(alg.idem):
        omega, _, _ = syzygy(simple_module(alg, pos))
        if not is_projective(omega):
            raise NotHereditary(f"the simple at {alg.labels[e]} has "
                                "projective dimension above one")


def heart_class_reps(ts: InducedTStructure, uni: ModuleUniverse,
                     dim_bound: int = 3) -> list[Complex]:
    """Representatives of the isomorphism classes of heart objects with
    total dimension within the bound: the split stalk sums F[1] + T, as
    complexes f -> t with zero differential, for f free and t torsion
    among the universe members with dim f + dim t within the bound.

    Over a hereditary algebra every heart object is isomorphic to the
    sum of its cohomology stalks, so these are all the classes, each
    once.  They come ordered by (members index of f, members index of
    t), which is the first-occurrence order of the exhaustive scan that
    `enumerate_heart_objects` followed by a `heart_is_isomorphic`
    dedupe performs: members are sorted by (dim, signature), and a
    complex a -> b with kernel f has dim a >= dim f, with equality only
    when the differential is zero.  Raises NotHereditary otherwise.
    """
    alg = uni.algebra
    _check_hereditary(alg)
    pair = ts.pair
    free = [f for f in uni.members if pair.in_free(f)]
    tors = [t for t in uni.members if pair.in_torsion(t)]
    return [Complex(alg, -1, [f, t], [ModuleMap.zero(f, t)], validate=False)
            for f in free for t in tors if f.dim + t.dim <= dim_bound]


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


def tilted_pair_report(ts: InducedTStructure, uni: ModuleUniverse,
                       dim_bound: int = 3) -> PairReport:
    """The pair (shifted free class, torsion stalks) as a torsion pair
    on the heart: orthogonality, shift-equivalences preserving hom
    dimensions, and the canonical decomposition of every enumerated
    heart object within the bound as a heart-exact sequence; a failure
    names the object by its position #k among those."""
    pair = ts.pair
    failures: list[str] = []
    t_mods = [m for m in uni.nonzero_members() if pair.in_torsion(m)]
    f_mods = [m for m in uni.nonzero_members() if pair.in_free(m)]
    for a in f_mods:
        for b in t_mods:
            if derived_hom_dim(one_term(a, 1), one_term(b)) != 0:
                failures.append(f"hom from shifted {uni.signature(a)} to "
                                f"{uni.signature(b)} is nonzero")
    for mods, shift, label in ((f_mods, 1, "free"), (t_mods, 0, "torsion")):
        for a in mods:
            for b in mods:
                if (derived_hom_dim(one_term(a, shift), one_term(b, shift))
                        != hom_dim(a, b)):
                    failures.append(f"{label} shift is not fully faithful "
                                    f"at ({uni.signature(a)}, "
                                    f"{uni.signature(b)})")
    for k, x in enumerate(enumerate_heart_objects(ts, uni, dim_bound)):
        dec = heart_decompose(ts, x)
        if not heart_ses_ok(ts, dec.t_incl, dec.q_proj):
            failures.append(f"decomposition of heart object #{k} "
                            "is not exact")
    return PairReport(not failures, tuple(failures))


def _cohomology_key(c: Complex, reps: list[Module]
                    ) -> tuple[tuple[int, int], ...]:
    """The degrees where c has nonzero cohomology, each paired with the
    position of that cohomology's isomorphism class among reps; a module
    of a class not yet in reps is appended to it.  Empty for an acyclic
    complex."""
    key = []
    for i in c.degrees():
        h = cohomology(c, i)
        if h.dim == 0:
            continue
        cls = next((k for k, r in enumerate(reps) if is_isomorphic(r, h)),
                   len(reps))
        if cls == len(reps):
            reps.append(h)
        key.append((i, cls))
    return tuple(key)


def _first_by_key(items: list[Complex], keys: dict[Complex, tuple],
                  ) -> tuple[list[int], list[Complex]]:
    """The first item of each key, in order of first occurrence, and the
    position of each item's key among them."""
    ids: dict[tuple, int] = {}
    firsts: list[Complex] = []
    at = []
    for c in items:
        k = keys[c]
        if k not in ids:
            ids[k] = len(firsts)
            firsts.append(c)
        at.append(ids[k])
    return at, firsts


def t_structure_report(ts: InducedTStructure, complexes: list[Complex],
                       ) -> PairReport:
    """Axioms of the induced t-structure over a finite set of test
    complexes: truncation memberships, levelwise exactness of the
    truncation sequence, and orthogonality of aisle against shifted
    coaisle.

    Over a hereditary algebra every complex is isomorphic in D^b to the
    sum of its shifted cohomologies (Happel, LMS LN 119, 1988), so
    Hom_D(a, b) depends only on the isomorphism classes of the H^i of a
    and b.  Orthogonality is therefore evaluated once per pair of
    cohomology classes of nonzero truncations, on the first truncation
    of each class; a failing class pair is still reported at every
    index pair where it occurs, in row-major order.  Global dimension at
    most one is certified first, and NotHereditary is raised otherwise.
    """
    if complexes:
        _check_hereditary(complexes[0].algebra)
    failures: list[str] = []
    lows = []
    highs = []
    for k, c in enumerate(complexes):
        tr, incl = truncate_le0(ts, c)
        q, proj = truncate_ge1(ts, c)
        lows.append(tr)
        highs.append(q)
        if not ts.in_le(tr, 0):
            failures.append(f"truncation of #{k} misses the aisle")
        if not ts.in_ge(q, 1):
            failures.append(f"quotient of #{k} misses the coaisle")
        for i in range(min(c.lo, tr.lo), max(c.hi, q.hi) + 1):
            mono = incl.component(i)
            epi = proj.component(i)
            if not mono.is_injective() or not epi.is_surjective():
                failures.append(f"truncation of #{k} not exact at {i}")
                break
            if kernel_basis(epi.mat) != image_basis(mono.mat):
                failures.append(f"truncation of #{k} not exact at {i}")
                break
    # One cohomology class key per distinct truncation, against the
    # module classes seen in this report.
    reps: list[Module] = []
    keys: dict[Complex, tuple] = {}
    for c in lows + highs:
        if c not in keys:
            keys[c] = _cohomology_key(c, reps)
    low_ids, low_firsts = _first_by_key(lows, keys)
    high_ids, high_firsts = _first_by_key(highs, keys)
    nonzero_highs = [(j, b) for j, b in enumerate(high_firsts) if keys[b]]
    hits: dict[int, set[int]] = {}
    for i, a in enumerate(low_firsts):
        if not keys[a]:
            continue
        row = {j for j, b in nonzero_highs if derived_hom_dim(a, b)}
        if row:
            hits[i] = row
    for ka, i in enumerate(low_ids):
        row = hits.get(i)
        if row:
            failures.extend(f"aisle #{ka} maps onto shifted coaisle #{kb}"
                            for kb, j in enumerate(high_ids) if j in row)
    return PairReport(not failures, tuple(failures))
