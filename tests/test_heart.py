"""Induced t-structures, truncation, heart cohomology, and the abelian
structure of the tilted heart.

Frozen values on the A2 fixture with the pair (add S1, add {S2, P1}):
the heart of the induced t-structure contains S1[0], S2[1] and P1[1],
the shifted radical inclusion S2[1] -> P1[1] has kernel S1[0] and zero
cokernel, and the six-term sequence of 0 -> S2 -> P1 -> S1 -> 0 closes
up exactly.  Enumeration counts (50 raw heart objects, 12 isomorphism
classes at bound 2) were confirmed against the multiplicity bookkeeping
for direct sums of the three indecomposable heart objects before
freezing.
"""

from __future__ import annotations

import collections
import itertools
import json
import sys
from dataclasses import dataclass
from importlib.resources import files

import pytest

import conftest
import quivertilt
from conftest import (
    a3_with_zero_relation, chain_map_tilted_pair_report, counting,
    derived_is_zero, derived_zero, equality_calls, factor_through_epi,
    factor_through_mono, heart_decompose, heart_exact_at, heart_is_isomorphic,
    heart_ses_ok, heart_walk, hom_element, is_heart_epi, is_heart_mono,
    perfbench_module, raised_without_asserts, returned_fresh)
from quivertilt import cli, complexes, derived, heart, kernels, linalg, modules
from quivertilt.algebras import corner_algebra, path_algebra
from quivertilt.complexes import (
    ChainMap,
    Complex,
    cohomology,
    cohomology_map,
    enumerate_complexes,
    is_exact_complex,
    is_quasi_iso,
)
from quivertilt.derived import (
    DerivedMorphism,
    derived_hom0,
    derived_hom_dim,
    projective_resolution,
    stalk_hom_dim,
)
from quivertilt.enumeration import (
    SEARCH_CAP,
    BoundExceeded,
    enumerate_submodules,
    universe,
)
from quivertilt.heart import (
    NotHereditary,
    SplitMorphism,
    h0_lower,
    h0_lower_map,
    heart_class_reps,
    heart_cokernel,
    heart_kernel,
    heart_les_ok,
    induced_t_structure,
    is_heart_zero,
    kv_classes,
    one_term,
    t_cohomology,
    t_structure_report,
    tilted_pair_report,
    truncate_ge,
    truncate_ge1,
    truncate_ge1_map,
    truncate_le0,
    truncate_le0_map,
)
from quivertilt.linalg import Field, Mat, all_vectors, image_basis, solve
from quivertilt.modules import (
    Module,
    ModuleMap,
    ShortExactSeq,
    cokernel,
    direct_sum,
    ext1_basis,
    extension_realize,
    hom_basis,
    kernel,
    lift_through,
    projective_module,
    ses_from_submodule,
    simple_module,
    syzygy,
)
from quivertilt.quivers import Quiver
from quivertilt.torsion import (
    TorsionPair,
    enumerate_torsion_pairs,
    free_indec_indices,
    pair_from_torsion_indecs,
    torsion_indec_indices,
)

BUNDLED = files("quivertilt").joinpath("scenarios/a2_full.json")
_A2 = Quiver((1, 2), ((1, 2, "a"),))
_A3 = Quiver((1, 2, 3), ((1, 2, "a"), (2, 3, "b")))
_A3_REVERSED = Quiver((1, 2, 3), ((2, 1, "a"), (3, 2, "b")))


@pytest.fixture
def a2_setup(a2):
    """Universe at bound 2 plus the tilting pair (add S1, add {S2, P1})."""
    uni = universe(a2, 2)
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    assert uni.indecs == (s2, s1, p1)
    pair = pair_from_torsion_indecs(uni, (1,))
    return uni, induced_t_structure(pair), s1, s2, p1


def shifted_radical_inclusion(a2, p1):
    """The heart morphism S2[1] -> P1[1] under the tilting pair."""
    s1 = simple_module(a2, 0)
    omega, incl, _ = syzygy(s1)
    f = ChainMap(one_term(omega, 1), one_term(p1, 1), {-1: incl})
    return DerivedMorphism.from_chain_map(f)


def radical_ses(a2, p1):
    """0 -> S2 -> P1 -> S1 -> 0."""
    s1 = simple_module(a2, 0)
    _, incl, _ = syzygy(s1)
    return ses_from_submodule(p1, image_basis(incl.mat))


def test_one_term_placement(a2):
    s1 = simple_module(a2, 0)
    c = one_term(s1, 1)
    assert c.lo == -1 and c.hi == -1
    assert c.component(-1) == s1
    assert one_term(s1).lo == 0


def test_stalk_memberships(a2_setup):
    _, ts, s1, s2, p1 = a2_setup
    assert ts.in_le(one_term(s1), 0)
    assert not ts.in_le(one_term(p1), 0)
    assert ts.in_ge(one_term(p1, 1), 0)
    assert ts.in_heart(one_term(s1))
    assert ts.in_heart(one_term(s2, 1))
    assert ts.in_heart(one_term(p1, 1))
    assert not ts.in_heart(one_term(p1))
    assert not ts.in_heart(one_term(s1, 1))


def test_truncation_of_free_stalk(a2_setup):
    # P1 is torsion-free, so the aisle part of P1[0] vanishes and the
    # coaisle quotient is everything.
    _, ts, _, _, p1 = a2_setup
    c = one_term(p1)
    tr, incl = truncate_le0(ts, c)
    assert tr.is_zero()
    assert incl.source == tr and incl.target == c
    q, proj = truncate_ge1(ts, c)
    assert proj.source == c and proj.target == q
    assert heart_is_isomorphic(q, c)


def test_truncation_of_torsion_stalk(a2_setup):
    _, ts, s1, _, _ = a2_setup
    c = one_term(s1)
    tr, incl = truncate_le0(ts, c)
    assert is_quasi_iso(incl)
    q, _ = truncate_ge1(ts, c)
    assert q.is_zero()


def test_truncation_of_mixed_stalk(a2_setup):
    # M = P1 + S1 splits as torsion part S1 and free part P1; the
    # truncation sequence is levelwise exact.
    _, ts, s1, _, p1 = a2_setup
    alg = p1.algebra
    whole, _, _ = direct_sum(alg, [p1, s1])
    c = one_term(whole)
    tr, incl = truncate_le0(ts, c)
    q, proj = truncate_ge1(ts, c)
    assert heart_is_isomorphic(tr, one_term(s1))
    assert heart_is_isomorphic(q, one_term(p1))
    assert incl.component(0).is_injective()
    assert proj.component(0).is_surjective()
    assert proj.component(0).compose(incl.component(0)).is_zero()


def test_truncation_memberships(a2_setup):
    _, ts, s1, s2, p1 = a2_setup
    alg = p1.algebra
    whole, _, _ = direct_sum(alg, [p1, s1])
    for c in (one_term(whole), one_term(s2, 1), one_term(p1, 1)):
        tr, _ = truncate_le0(ts, c)
        q, _ = truncate_ge1(ts, c)
        assert ts.in_le(tr, 0)
        assert ts.in_ge(q, 1)


def test_truncation_shift_conjugation(a2_setup):
    _, ts, _, s2, p1 = a2_setup
    # The aisle truncation at level n is truncate_le0 conjugated by the
    # shift [n].
    c = one_term(s2, 1)
    tr, _ = truncate_le0(ts, c.shift(-1))
    assert tr.shift(1).is_zero()
    q, proj = truncate_ge(ts, c)
    assert is_quasi_iso(proj)
    # Far above the support everything lies in the aisle.
    full, incl = truncate_le0(ts, one_term(p1).shift(2))
    assert is_quasi_iso(incl.shift(-2))
    assert full.shift(-2).total_dim() == 2


def test_t_cohomology_of_stalks(a2_setup):
    # For a stalk M[0] the heart cohomology in degree 0 is the torsion
    # part and in degree 1 the torsion-free part, shifted into the
    # heart; everything else vanishes.
    uni, ts, _, _, _ = a2_setup
    for m in uni.indecs:
        c = one_term(m)
        dec = ts.pair.decompose(m)
        tor, fre = dec.sub, dec.quot
        h0 = t_cohomology(ts, c, 0)
        h1 = t_cohomology(ts, c, 1)
        if tor.dim:
            assert heart_is_isomorphic(h0, one_term(tor))
        else:
            assert is_heart_zero(h0)
        if fre.dim:
            assert heart_is_isomorphic(h1, one_term(fre, 1))
        else:
            assert is_heart_zero(h1)
        assert is_heart_zero(t_cohomology(ts, c, -1))
        assert is_heart_zero(t_cohomology(ts, c, 2))


@dataclass(frozen=True)
class UpperH0:
    """H^0 reached through the coaisle: h included into the high
    truncation.  An oracle for h0_lower, which goes through the aisle."""

    h: Complex
    high: Complex
    proj: ChainMap  # the original complex -> high
    incl: ChainMap  # h -> high


def h0_upper(ts, c: Complex) -> UpperH0:
    high, proj = truncate_ge(ts, c)
    h, incl = truncate_le0(ts, high)
    return UpperH0(h, high, proj, incl)


def test_upper_and_lower_h0_agree(a2):
    uni1 = universe(a2, 1)
    uni2 = universe(a2, 2)
    sample = enumerate_complexes(uni1, -1, 0, 1)
    for t_idx in ((1,), (0, 1, 2)):
        ts = induced_t_structure(pair_from_torsion_indecs(uni2, t_idx))
        for c in sample:
            lower = h0_lower(ts, c).h
            upper = h0_upper(ts, c).h
            assert heart_is_isomorphic(lower, upper)


def test_h0_lower_map_on_cover(a2):
    # Under the standard pair (everything torsion) the heart is the
    # module category, and H^0 of the cover P1 -> S1 is the cover again:
    # surjective but not injective.
    uni = universe(a2, 2)
    ts = induced_t_structure(pair_from_torsion_indecs(uni, (0, 1, 2)))
    s1 = simple_module(a2, 0)
    p1 = projective_module(a2, 0)
    _, _, cover = syzygy(s1)
    f = ChainMap(one_term(p1), one_term(s1), {0: cover})
    hm = h0_lower_map(ts, f)
    assert hm.source == h0_lower(ts, f.source).h
    assert hm.target == h0_lower(ts, f.target).h
    induced = cohomology_map(hm, 0)
    assert induced.is_surjective() and not induced.is_injective()
    ident = h0_lower_map(ts, ChainMap.identity(one_term(p1)))
    assert is_quasi_iso(ident)


def test_heart_kernel_of_shifted_inclusion(a2, a2_setup):
    _, ts, s1, _, p1 = a2_setup
    m = shifted_radical_inclusion(a2, p1)
    k, kappa = heart_kernel(ts, m)
    assert heart_is_isomorphic(k, one_term(s1))
    assert kappa.source == k and kappa.target == m.source
    assert derived_is_zero(m.compose(kappa))
    assert is_heart_mono(ts, kappa)
    assert not is_heart_mono(ts, m)


def test_heart_cokernel_of_shifted_inclusion(a2, a2_setup):
    _, ts, _, _, p1 = a2_setup
    m = shifted_radical_inclusion(a2, p1)
    ck, pi = heart_cokernel(ts, m)
    assert is_heart_zero(ck)
    assert derived_is_zero(pi.compose(m))
    assert is_heart_epi(ts, m)


def test_heart_ses_of_shifted_inclusion(a2, a2_setup):
    # 0 -> S1[0] -> S2[1] -> P1[1] -> 0 is exact in the heart.
    _, ts, _, _, p1 = a2_setup
    m = shifted_radical_inclusion(a2, p1)
    _, kappa = heart_kernel(ts, m)
    assert heart_ses_ok(ts, kappa, m)


def test_factor_through_mono(a2, a2_setup):
    _, ts, _, _, p1 = a2_setup
    m = shifted_radical_inclusion(a2, p1)
    _, kappa = heart_kernel(ts, m)
    g = factor_through_mono(kappa, kappa)
    assert g.is_iso()


def test_factor_through_epi(a2, a2_setup):
    # The shifted radical inclusion is a heart epi, so it factors
    # through itself by an automorphism of its target.
    _, ts, _, _, p1 = a2_setup
    m = shifted_radical_inclusion(a2, p1)
    g = factor_through_epi(m, m)
    assert g.is_iso()
    zero = m.compose(DerivedMorphism.from_chain_map(
        ChainMap.zero(m.source, m.source)))
    assert derived_is_zero(factor_through_epi(m, zero))


def test_identity_is_mono_and_epi(a2_setup):
    _, ts, s1, _, _ = a2_setup
    ident = DerivedMorphism.from_chain_map(ChainMap.identity(one_term(s1)))
    assert is_heart_mono(ts, ident)
    assert is_heart_epi(ts, ident)


def test_heart_decompose(a2, a2_setup):
    _, ts, s1, s2, p1 = a2_setup
    _, _, cover = syzygy(s1)
    x = Complex(a2, -1, [p1, s1], [cover])
    dec = heart_decompose(ts, x)
    assert heart_is_isomorphic(dec.tor, one_term(s2, 1))
    assert is_heart_zero(dec.quo)
    assert derived_is_zero(dec.q_proj.compose(dec.t_incl))

    split = Complex(a2, -1, [s2, s1], [ModuleMap.zero(s2, s1)])
    dec2 = heart_decompose(ts, split)
    assert heart_is_isomorphic(dec2.tor, one_term(s2, 1))
    assert heart_is_isomorphic(dec2.quo, one_term(s1))
    assert ts.in_heart(dec2.tor) and ts.in_heart(dec2.quo)

    with pytest.raises(ValueError):
        heart_decompose(ts, one_term(s1, 1))


def connecting_morphism(ses: ShortExactSeq) -> DerivedMorphism:
    """The boundary morphism quot[0] -> sub[1] of a module short exact
    sequence, realized on the projective resolution of the quotient."""
    res, cmp = projective_resolution(one_term(ses.quot))
    lam = lift_through(ses.epi, cmp.component(0))
    assert lam is not None, "map does not lift through the cover"
    if res.lo == 0:
        return derived_zero(one_term(ses.quot), one_term(ses.sub, 1))
    iota = res.diff(-1)
    mu = solve(ses.mono.mat, lam.mat @ iota.mat)
    assert mu is not None, "syzygy image escapes the submodule"
    rep = ChainMap(res, one_term(ses.sub, 1),
                   {-1: ModuleMap(res.component(-1), ses.sub, mu)})
    return DerivedMorphism(one_term(ses.quot), one_term(ses.sub, 1), rep)


def _chain_map_les(ts, ses):
    """The five maps of the six-term heart sequence of a module short
    exact sequence as derived morphisms: torsion parts in degree zero,
    free parts shifted once, joined by the boundary morphism.  The
    chain-map reference for the split morphisms heart_les_ok builds."""
    pair = ts.pair
    dec = {name: pair.decompose(m) for name, m in
           (("a", ses.sub), ("b", ses.middle), ("c", ses.quot))}
    t_incl = {k: d.mono for k, d in dec.items()}
    f_proj = {k: d.epi for k, d in dec.items()}

    def t_morphism(src, tgt, f):
        g = heart._restrict(f, t_incl[src], t_incl[tgt])
        return DerivedMorphism.from_chain_map(
            ChainMap(one_term(g.source), one_term(g.target), {0: g}))

    def f_morphism(src, tgt, f):
        g = heart._descend(f, f_proj[src], f_proj[tgt])
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
    return [m1, m2, m3, m4, m5]


def test_connecting_morphism_vanishing(a2):
    # Split sequences have zero connecting morphism; the radical
    # sequence of P1 does not.
    s1 = simple_module(a2, 0)
    p1 = projective_module(a2, 0)
    omega, _, _ = syzygy(s1)
    whole, incls, projs = direct_sum(a2, [omega, p1])
    split = ShortExactSeq(incls[0], projs[1])
    assert derived_is_zero(connecting_morphism(split))
    delta = connecting_morphism(radical_ses(a2, p1))
    assert not derived_is_zero(delta)
    assert delta.target == one_term(omega, -1).shift(2)


def test_heart_les_all_pairs(a2):
    uni = universe(a2, 2)
    p1 = projective_module(a2, 0)
    ses = radical_ses(a2, p1)
    for pair in enumerate_torsion_pairs(uni):
        assert heart_les_ok(induced_t_structure(pair), ses)


_LES_POOLS = {
    "A2/F_2 bound 3": (2, _A2, 3),
    "A2/F_3 bound 2": (3, _A2, 2),
    "A3/F_2 bound 2": (2, _A3, 2),
    "A3/F_2 reversed bound 2": (2, _A3_REVERSED, 2),
}


def _split_zero(m):
    return SplitMorphism.diagonal(ModuleMap.zero(m.a.source, m.a.target),
                                  ModuleMap.zero(m.b.source, m.b.target))


@pytest.mark.parametrize("name", list(_LES_POOLS))
def test_split_les_agrees_with_the_cone_walk(name, monkeypatch):
    # Every six-term sequence of a member and a proper nonzero submodule,
    # under every torsion pair, as it is, with each of its five maps set
    # to zero, and cut to each map and each pair of adjacent maps: the
    # walk over the split morphisms heart_les_ok builds and the walk over
    # cones of the chain-map build give one verdict.
    p, quiver, bound = _LES_POOLS[name]
    uni = universe(path_algebra(Field(p), quiver), bound)
    seqs = [ses_from_submodule(m, sub) for m in uni.members
            for sub in enumerate_submodules(m) if 0 < sub.dim < m.dim]
    walk = heart._heart_exact_sequence
    built = []

    def recording(cones):
        built.append(cones)
        return walk(cones)

    def split_walk(ts, maps):
        return walk([heart._SplitCone(ts, m) for m in maps])

    monkeypatch.setattr(heart, "_heart_exact_sequence", recording)
    verdicts = collections.Counter()
    for pair in enumerate_torsion_pairs(uni):
        ts = induced_t_structure(pair)
        for ses in seqs:
            built.clear()
            got = heart_les_ok(ts, ses)
            [cones] = built
            split = [c.m for c in cones]
            chain = _chain_map_les(ts, ses)
            assert got == heart_walk(ts, chain)
            verdicts[got] += 1
            for k in range(5):
                # The map alone (an iso test) and with the next one (a
                # short exact sequence test).
                for j in (k + 1, k + 2)[:5 - k]:
                    assert split_walk(ts, split[k:j]) \
                        == heart_walk(ts, chain[k:j]), (k, j)
                got = split_walk(ts, split[:k] + [_split_zero(split[k])]
                                 + split[k + 1:])
                zero = derived_zero(chain[k].source, chain[k].target)
                assert got == heart_walk(ts, chain[:k] + [zero]
                                         + chain[k + 1:]), k
                verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


def _extends(mono, a):
    """Whether a: n -> n' is h . mono for some h: E -> n'."""
    p = a.source.algebra.field.p
    size = len(a.mat.data)
    cols = [(h.mat @ mono.mat).data for h in hom_basis(mono.target, a.target)]
    return solve(Mat.from_cols(p, cols, size),
                 Mat(p, size, 1, a.mat.data)) is not None


@pytest.mark.parametrize("p, quiver", [(2, _A2), (3, _A2), (2, _A3)],
                         ids=["A2/F_2", "A2/F_3", "A3/F_2"])
def test_split_composite_vanishes_where_the_extension_splits(p, quiver):
    # For a cocycle eps of Ext^1(m, n) realized as 0 -> n -> E -> m -> 0,
    # the Yoneda product eps.b with b: m' -> m vanishes exactly when b
    # lifts to E, and a.eps with a: n -> n' exactly when a extends over
    # E.  So do the split composites (0, 0, eps) after (0, b, 0) and
    # (a, 0, 0) after (0, 0, eps).
    alg = path_algebra(Field(p), quiver)
    mods = universe(alg, 2).nonzero_members()
    zero = Module.zero(alg)
    nothing = ModuleMap.zero(zero, zero)
    seen = set()
    for m in mods:
        for n in mods:
            ext = ext1_basis(m, n)
            for eps in ext.cocycles:
                ses = extension_realize(ext, eps)
                phi = SplitMorphism(ModuleMap.zero(zero, n),
                                    ModuleMap.zero(m, zero), eps)
                assert not phi.is_zero()
                for other in mods:
                    for b in hom_basis(other, m):
                        got = phi.compose(
                            SplitMorphism.diagonal(nothing, b)).is_zero()
                        assert got == (lift_through(ses.epi, b) is not None)
                        seen.add(("pull back", got))
                    for a in hom_basis(n, other):
                        got = SplitMorphism.diagonal(
                            a, nothing).compose(phi).is_zero()
                        assert got == _extends(ses.mono, a)
                        seen.add(("push", got))
    assert seen == {(k, v) for k in ("pull back", "push")
                    for v in (True, False)}


@pytest.mark.parametrize("p, quiver", [(3, _A2), (2, _A3)],
                         ids=["A2/F_3", "A3/F_2"])
def test_split_hom_dims_are_derived_hom_dims(p, quiver):
    # dim Hom_D(F[1] + T, F'[1] + T') by the split formula of the
    # exactness test, against derived_hom_dim of the two-term complexes.
    alg = path_algebra(Field(p), quiver)
    mods = [Module.zero(alg)] + list(universe(alg, 2).indecs)
    objs = [(f, t) for f in mods for t in mods]
    cplx = {x: Complex(alg, -1, list(x), [ModuleMap.zero(*x)]) for x in objs}
    for x in objs:
        for y in objs:
            assert heart._split_hom_dim(x, y) == \
                derived_hom_dim(cplx[x], cplx[y]), (x, y)


def enumerate_heart_objects(ts, uni, dim_bound):
    """All two-term heart objects with components from the universe and
    total dimension within the bound, by a scan of every differential:
    the exhaustive reference for heart_class_reps and for the reports
    that decide on its classes."""
    pair = ts.pair
    p = uni.algebra.field.p
    out = []
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
                out.append(Complex(uni.algebra, -1, [a, b], [d]))
    return out


def test_enumerate_heart_objects_counts(a2_setup):
    uni, ts, _, _, _ = a2_setup
    raw = enumerate_heart_objects(ts, uni, 4)
    assert len(raw) == 50
    assert all(ts.in_heart(c) for c in raw)
    classes = heart_class_reps(ts, uni, max(c.total_dim() for c in raw))
    assert len(classes) == 12


def test_standard_pair_heart_matches_modules(a2):
    # The heart of the standard pair is the module category: its
    # isomorphism classes at bound 2 are exactly the universe members.
    uni = universe(a2, 2)
    ts = induced_t_structure(pair_from_torsion_indecs(uni, (0, 1, 2)))
    raw = enumerate_heart_objects(ts, uni, 4)
    assert len(raw) == 32
    classes = heart_class_reps(ts, uni, max(c.total_dim() for c in raw))
    assert len(classes) == len(uni.members)


def _scanned_is_isomorphic(x, y):
    """Isomorphy of heart objects by scanning the derived hom space for a
    quasi-isomorphism: the independent reference for heart_is_isomorphic,
    which compares cohomology classes."""
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
        if any(coeffs) and hom_element(h, coeffs).is_iso():
            return True
    return False


def _factored_exact_at(ts, f, g):
    """Exactness at the middle by factoring f through the kernel of g and
    asking whether the factor is epi: the independent reference for
    heart_exact_at, which asks whether ker g dies in coker f."""
    if not derived_is_zero(g.compose(f)):
        return False
    k, kincl = heart_kernel(ts, g)
    fbar = factor_through_mono(kincl, f)
    return is_heart_epi(ts, fbar)


def _scanned_class_reps(ts, uni, dim_bound):
    """The exhaustive reference for heart_class_reps: every heart object
    within the bound, deduped by the isomorphism scan in order of first
    occurrence."""
    reps = []
    for c in enumerate_heart_objects(ts, uni, dim_bound):
        if not any(_scanned_is_isomorphic(c, r) for r in reps):
            reps.append(c)
    return reps


_ORACLE_UNIVERSES = {
    "A2/F_2 bound 2": lambda: universe(path_algebra(Field(2), _A2), 2),
    "A2/F_2 bound 3": lambda: universe(path_algebra(Field(2), _A2), 3),
    "A2/F_3 bound 2": lambda: universe(path_algebra(Field(3), _A2), 2),
    "A3/F_2 bound 2": lambda: universe(path_algebra(Field(2), _A3), 2),
    "A3 corner {1,3} bound 2": lambda: universe(
        corner_algebra(path_algebra(Field(2), _A3), (0, 2)).sub, 2),
}


@pytest.mark.parametrize("name", list(_ORACLE_UNIVERSES))
def test_closed_form_reps_equal_the_scan(name):
    # The split stalk sums F[1] + T are the scan's first occurrences,
    # complex for complex and in the same order, for every pair.
    uni = _ORACLE_UNIVERSES[name]()
    for pair in enumerate_torsion_pairs(uni):
        ts = induced_t_structure(pair)
        for bound in (2, 3):
            assert heart_class_reps(ts, uni, bound) \
                == _scanned_class_reps(ts, uni, bound), (pair, bound)


def _non_hereditary_reps():
    alg = a3_with_zero_relation()
    alg.check()
    uni = universe(alg, 1)
    ts = induced_t_structure(enumerate_torsion_pairs(uni)[0])
    return heart_class_reps(ts, uni, 2)


def _non_hereditary_isomorphism():
    stalk = one_term(simple_module(a3_with_zero_relation(), 0))
    return heart_is_isomorphic(stalk, stalk)


def test_heart_is_isomorphic_rejects_non_hereditary():
    with pytest.raises(NotHereditary, match="simple at e_1 "):
        _non_hereditary_isomorphism()


def test_heart_is_isomorphic_rejects_non_hereditary_without_asserts():
    assert b"simple at e_1 " in _raised_without_asserts(
        "_non_hereditary_isomorphism")


def _non_hereditary_hom_dim():
    stalk = one_term(simple_module(a3_with_zero_relation(), 0))
    return derived_hom_dim(stalk, stalk)


def test_derived_hom_dim_rejects_non_hereditary():
    with pytest.raises(NotHereditary, match="simple at e_1 "):
        _non_hereditary_hom_dim()


def test_derived_hom_dim_rejects_non_hereditary_without_asserts():
    assert b"simple at e_1 " in _raised_without_asserts(
        "_non_hereditary_hom_dim")


def test_heart_class_reps_rejects_non_hereditary():
    with pytest.raises(NotHereditary, match="simple at e_1 "):
        _non_hereditary_reps()


def _non_hereditary_report():
    alg = a3_with_zero_relation()
    uni = universe(alg, 1)
    ts = induced_t_structure(enumerate_torsion_pairs(uni)[0])
    return t_structure_report(ts, [one_term(m) for m in uni.indecs])


def _raised_without_asserts(helper: str) -> bytes:
    return raised_without_asserts(__file__, helper, "NotHereditary")


def test_heart_class_reps_rejects_non_hereditary_without_asserts():
    assert b"simple at e_1 " in _raised_without_asserts("_non_hereditary_reps")


def _non_hereditary_les():
    alg = a3_with_zero_relation()
    ts = induced_t_structure(enumerate_torsion_pairs(universe(alg, 1))[0])
    return heart_les_ok(ts, radical_ses(alg, projective_module(alg, 0)))


def test_heart_les_ok_rejects_non_hereditary():
    with pytest.raises(NotHereditary, match="simple at e_1 "):
        _non_hereditary_les()


def test_heart_les_ok_rejects_non_hereditary_without_asserts():
    assert b"simple at e_1 " in _raised_without_asserts("_non_hereditary_les")


def test_t_structure_report_rejects_non_hereditary():
    with pytest.raises(NotHereditary, match="simple at e_1 "):
        _non_hereditary_report()


def test_t_structure_report_rejects_non_hereditary_without_asserts():
    assert b"simple at e_1 " in _raised_without_asserts(
        "_non_hereditary_report")


def test_heart_is_isomorphic_basics(a2_setup):
    _, _, s1, s2, p1 = a2_setup
    assert heart_is_isomorphic(one_term(s1), one_term(s1))
    assert not heart_is_isomorphic(one_term(s1), one_term(s2, 1))
    alg = p1.algebra
    _, incl, _ = syzygy(s1)
    contractible = Complex(alg, -1, [s2, s2],
                           [ModuleMap.identity(s2)])
    assert heart_is_isomorphic(contractible, Complex.zero(alg))


def test_heart_is_isomorphic_scans_no_hom_space(a2_setup, monkeypatch):
    # Deduping every heart object within the bound by heart_is_isomorphic
    # finds the closed-form classes with derived homs and coefficient
    # scans out of reach.
    uni, ts, s1, s2, _ = a2_setup
    raw = enumerate_heart_objects(ts, uni, 3)
    expected = len(heart_class_reps(ts, uni, 3))

    def forbidden(*args):
        raise AssertionError("heart_is_isomorphic scanned a hom space")

    # conftest, which holds heart_is_isomorphic, binds derived_hom0;
    # heart binds neither name, and its patches guard a re-import.
    monkeypatch.setattr(conftest, "derived_hom0", forbidden)
    for name in ("derived_hom0", "all_vectors"):
        monkeypatch.setattr(heart, name, forbidden, raising=False)
    reps = []
    for c in raw:
        if not any(heart_is_isomorphic(c, r) for r in reps):
            reps.append(c)
    assert len(reps) == expected
    assert not heart_is_isomorphic(one_term(s1), one_term(s2, 1))


_AGREEMENT_UNIVERSES = {
    "A2/F_2 bound 2": (2, 2),
    "A2/F_2 bound 3": (2, 3),
    "A2/F_3 bound 2": (3, 2),
}


def _agreement_universe(name):
    p, bound = _AGREEMENT_UNIVERSES[name]
    return universe(path_algebra(Field(p), _A2), bound), bound


def _heart_stalks(ts, uni):
    """The indecomposable heart objects: torsion stalks and shifted free
    stalks."""
    return ([one_term(m) for m in uni.indecs if ts.pair.in_torsion(m)]
            + [one_term(m, 1) for m in uni.indecs if ts.pair.in_free(m)])


def _node_walk(ts, maps):
    """The exactness walk node by node, zero objects included: the kernel
    of the first map vanishes, every inner node passes heart_exact_at,
    and the cokernel of the last map vanishes.  The reference for the
    walk behind heart_ses_ok and heart_les_ok, which splits at zero
    objects and builds one cone per map."""
    return (is_heart_zero(heart_kernel(ts, maps[0])[0])
            and all(heart_exact_at(ts, f, g) for f, g in zip(maps, maps[1:]))
            and is_heart_zero(heart_cokernel(ts, maps[-1])[0]))


def _short_sequences(f, g, zeros):
    """Sequences from a composable pair x -f-> y -g-> z: the pair, f
    alone, the pair after a zero object, the pair before one, two copies
    of the pair on either side of one, and x alone between two.  zeros
    are two heart-zero objects."""
    x, z = f.source, g.target
    zero, other = zeros
    to = derived_zero
    return [[f, g], [f],
            [to(zero, x), f, g],
            [f, g, to(z, other)],
            [f, g, to(z, other), to(other, x), f, g],
            [to(zero, x), to(x, other)]]


@pytest.mark.parametrize("name", list(_AGREEMENT_UNIVERSES))
def test_exactness_agrees_with_the_factoring(name):
    # The four inner nodes of every six-term sequence, and every
    # composable pair x -> y -> z of basis morphisms with x and z
    # indecomposable and y a class representative, get the verdict of
    # the factoring reference.  The walk over every six-term sequence
    # and over short sequences of those pairs, some through zero
    # objects, agrees with the node-by-node walk.
    uni, bound = _agreement_universe(name)
    alg = uni.algebra
    s2 = simple_module(alg, 1)
    zeros = (Complex.zero(alg),
             Complex(alg, -1, [s2, s2], [ModuleMap.identity(s2)]))
    assert all(is_heart_zero(c) for c in zeros)
    seqs = [ses_from_submodule(m, sub) for m in uni.members
            for sub in enumerate_submodules(m) if 0 < sub.dim < m.dim]
    sixterm = []
    composable = []
    pairs = enumerate_torsion_pairs(uni)
    for pair in pairs:
        ts = induced_t_structure(pair)
        assert all(heart_les_ok(ts, ses) for ses in seqs)
        sixterm += [(ts, _chain_map_les(ts, ses)) for ses in seqs]
        ends = _heart_stalks(ts, uni)
        for y in heart_class_reps(ts, uni, bound):
            composable += [(ts, f, g) for x in ends for z in ends
                           for f in derived_hom0(x, y).basis()
                           for g in derived_hom0(y, z).basis()]
    for ts, maps in sixterm:
        assert len(maps) == 5
        for f, g in zip(maps, maps[1:]):
            assert heart_exact_at(ts, f, g) and _factored_exact_at(ts, f, g)
        assert _node_walk(ts, maps)
    verdicts = set()
    walks = set()
    for ts, f, g in composable:
        got = heart_exact_at(ts, f, g)
        assert got == _factored_exact_at(ts, f, g)
        verdicts.add((got, derived_is_zero(g.compose(f))))
        for k, maps in enumerate(_short_sequences(f, g, zeros)):
            got = heart_walk(ts, maps)
            assert got == _node_walk(ts, maps), (k, maps)
            walks.add((k, got))
    # Exact, not composing to zero, and composing to zero without being
    # exact all occur.
    assert verdicts == {(True, True), (False, False), (False, True)}
    # A lone nonzero object is never exact; every other shape of
    # sequence is exact for some pair and not for another.
    assert walks == {(k, v) for k in range(5) for v in (True, False)} \
        | {(5, False)}


def test_exactness_needs_the_kernel_inside_the_image(a2):
    # Under the standard pair the heart is the module category.  The
    # radical inclusion S2 -> P1 + S2 into the first summand and the
    # cover P1 + S2 -> S1 on it compose to zero, but the kernel S2 + S2
    # of the cover is larger than the image S2; dropping the second
    # summand makes the pair exact.
    ts = induced_t_structure(
        pair_from_torsion_indecs(universe(a2, 3), (0, 1, 2)))
    s1 = simple_module(a2, 0)
    p1 = projective_module(a2, 0)
    s2, incl, cover = syzygy(s1)
    mid, incls, projs = direct_sum(a2, [p1, s2])

    def stalk_map(u):
        return DerivedMorphism.from_chain_map(
            ChainMap(one_term(u.source), one_term(u.target), {0: u}))

    f = stalk_map(incls[0].compose(incl))
    g = stalk_map(cover.compose(projs[0]))
    assert not derived_is_zero(f) and not derived_is_zero(g)
    assert derived_is_zero(g.compose(f))
    assert not heart_exact_at(ts, f, g)
    assert not _factored_exact_at(ts, f, g)
    assert heart_exact_at(ts, stalk_map(incl), stalk_map(cover))


def test_scenario_builds_one_cone_per_map_and_solves_no_identity_lift(
        monkeypatch, capsys):
    # Every command of the bundled scenario at bound 3: every homotopy
    # solve with chain-map unknowns is a lift_postcompose, the only lift,
    # none of them through an identity (the lift returns the map itself),
    # and no exactness walk builds a cone: the scenario hands the walk
    # split cones only.  The chain-map reference of tilted_pair_report
    # walks the cones of derived morphisms, and builds at most one cone
    # of a chain map per map.
    lift_code = derived.lift_postcompose.__code__
    quasi_isos = []  # the quasi-isomorphism of every lift that solves
    walks = []  # [maps, cones built] per finished walk
    kinds = set()  # the types of the cones handed to the walk
    walking = []  # the walk under way; cones outside walks are not counted
    real_solve = derived._solve_homotopy
    real_cone = heart.cone
    real_walk = heart._heart_exact_sequence

    def solve(f, gridg=None, g_flat=None):
        if gridg is not None:
            frame = sys._getframe(1)
            assert frame.f_code is lift_code
            quasi_isos.append(frame.f_locals[frame.f_code.co_varnames[0]])
        return real_solve(f, gridg, g_flat)

    def counted_cone(f):
        if walking:
            walking[-1][1] += 1
        return real_cone(f)

    def walk(cones):
        kinds.update(type(c) for c in cones)
        walking.append([len(cones), 0])
        try:
            return real_walk(cones)
        finally:
            walks.append(walking.pop())

    def is_identity(q):
        return q.source == q.target and q == ChainMap.identity(q.source)

    monkeypatch.setattr(derived, "_solve_homotopy", solve)
    monkeypatch.setattr(heart, "cone", counted_cone)
    monkeypatch.setattr(heart, "_heart_exact_sequence", walk)
    assert cli.main([str(BUNDLED), "--bound", "3", "--no-timing",
                     "--json-only"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and len(report["commands"]) > 1
    assert walks and sum(cones for _, cones in walks) == 0
    assert kinds == {heart._SplitCone}
    walks.clear()
    uni = universe(path_algebra(Field(2), _A2), 3)
    for pair in enumerate_torsion_pairs(uni):
        assert chain_map_tilted_pair_report(induced_t_structure(pair), uni).ok
    assert walks and all(cones <= maps for maps, cones in walks)
    assert sum(cones for _, cones in walks) > 0
    assert quasi_isos
    assert [q for q in quasi_isos if is_identity(q)] == []


def _calls_during(monkeypatch, capsys, op, watched):
    """Run the bundled scenario at bound 3, counting the calls made to
    each watched function, through every binding of it in quivertilt,
    while command op runs.  Returns the counts and op's reports."""
    calls = collections.Counter()
    inside = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            if inside:
                calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module in [m for k, m in sys.modules.items()
                   if k.startswith("quivertilt.")]:
        for real in watched:
            if getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__,
                                    counted(real.__name__, real))
    real_op = cli._COMMANDS[op]

    def run_op(env, cmd):
        inside.append(cmd)
        try:
            return real_op(env, cmd)
        finally:
            inside.pop()

    monkeypatch.setitem(cli._COMMANDS, op, run_op)
    assert cli.main([str(BUNDLED), "--bound", "3", "--no-timing",
                     "--json-only"]) == 0
    report = json.loads(capsys.readouterr().out)
    ran = [c for c in report["commands"] if c["op"] == op]
    assert ran and all(c["ok"] for c in ran)
    return calls, ran


_RESOLVE_LIFT_CONE_TRUNCATE = [
    derived.projective_resolution, derived.lift_postcompose, complexes.cone,
    heart.truncate_le0, heart.truncate_ge1]


def test_les_check_builds_no_cone_resolution_lift_or_truncation(
        monkeypatch, capsys):
    # les-check on the bundled scenario at bound 3 decides every six-term
    # sequence in split form: while it runs, nothing resolves, lifts,
    # builds a cone or truncates.
    calls, les = _calls_during(monkeypatch, capsys, "les-check",
                               _RESOLVE_LIFT_CONE_TRUNCATE)
    assert sum(c["checked"] for c in les) == 63
    assert calls == {}


def test_tilted_pair_builds_no_cone_resolution_lift_or_truncation(
        monkeypatch, capsys):
    # tilted-pair walks the canonical sequence of every heart class in
    # split form.
    calls, _ = _calls_during(monkeypatch, capsys, "tilted-pair",
                             _RESOLVE_LIFT_CONE_TRUNCATE)
    assert calls == {}


def test_reconstruct_builds_no_cone_lift_or_heart_cohomology(
        monkeypatch, capsys):
    # reconstruct reads memberships, preimages and the context round
    # trip off module pairs.  Its sections still resolve and truncate,
    # so only cones, lifts and heart cohomology are counted; the
    # decomposition into cohomology stalks lives in the tests alone.
    assert not any(hasattr(m, "heart_decompose") for k, m in
                   sys.modules.items() if k.startswith("quivertilt"))
    calls, _ = _calls_during(
        monkeypatch, capsys, "reconstruct",
        [derived.lift_postcompose, complexes.cone, heart.t_cohomology])
    assert calls == {}


@pytest.mark.parametrize("name", list(_AGREEMENT_UNIVERSES))
def test_isomorphism_agrees_with_the_scan(name):
    # Heart objects within the bound, stalks in four degrees, a
    # contractible complex and zero, compared in every order.
    uni, bound = _agreement_universe(name)
    alg = uni.algebra
    s2 = simple_module(alg, 1)
    extra = [one_term(m, shift) for m in uni.indecs for shift in (-1, 0, 1, 2)]
    extra += [Complex(alg, -1, [s2, s2], [ModuleMap.identity(s2)]),
              Complex.zero(alg)]
    verdicts = set()
    for pair in enumerate_torsion_pairs(uni):
        objs = enumerate_heart_objects(induced_t_structure(pair), uni,
                                       bound) + extra
        for x in objs:
            for y in objs:
                got = heart_is_isomorphic(x, y)
                assert got == _scanned_is_isomorphic(x, y), (x, y)
                verdicts.add((got, x == y))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_kv_roundtrip_all_pairs(a2):
    # The torsion pair is recoverable from its induced t-structure.
    uni = universe(a2, 2)
    for pair in enumerate_torsion_pairs(uni):
        ts = induced_t_structure(pair)
        got = kv_classes(ts, uni)
        assert got == (torsion_indec_indices(pair, uni),
                       free_indec_indices(pair, uni))


def test_t_structure_report_all_pairs(a2, monkeypatch):
    uni1 = universe(a2, 1)
    uni2 = universe(a2, 2)
    sample = enumerate_complexes(uni1, -1, 1, 1, total_bound=3)
    assert len(sample) == 39
    calls = []

    def counted(xs, ys):
        calls.append((xs, ys))
        return stalk_hom_dim(xs, ys)

    monkeypatch.setattr(heart, "stalk_hom_dim", counted)
    counts = []
    for pair in enumerate_torsion_pairs(uni2):
        ts = induced_t_structure(pair)
        calls.clear()
        report = t_structure_report(ts, sample)
        counts.append(len(calls))
        assert report.ok, report.failures
        # The stalks are those of the class representatives: one module
        # object per class, never an equal copy.
        stalk_modules = [m for xs, ys in calls for _, m in (*xs, *ys)]
        assert len({id(m) for m in stalk_modules}) == len(set(stalk_modules))
        # Repeated complexes repeat every truncation; the verdict stays.
        repeated = t_structure_report(ts, sample + sample[::-1])
        assert repeated.ok == report.ok
        assert repeated.failures == ()
    # One orthogonality evaluation per (aisle class, coaisle class) pair.
    assert counts == [16, 25, 25, 25, 16]


def test_t_structure_report_lists_every_failing_index_pair(a2, monkeypatch):
    # Orthogonality holds on a genuine induced t-structure, so a stub
    # that claims homs on a chosen subset of (low, high) pairs drives
    # the failure path; the messages must be those of a plain double
    # loop over all index pairs, duplicates included.  Like a real hom,
    # the stub depends only on cohomology, read off the stalks, and
    # acyclic truncations map nowhere.
    sample = enumerate_complexes(universe(a2, 1), -1, 1, 1, total_bound=3)
    sample = sample + sample[::-1]
    pair = pair_from_torsion_indecs(universe(a2, 2), (1,))
    ts = induced_t_structure(pair)
    lows = [truncate_le0(ts, c)[0] for c in sample]
    highs = [truncate_ge1(ts, c)[0] for c in sample]
    assert len(set(lows)) < len(lows)
    assert len(set(highs)) < len(highs)
    assert any(a.is_zero() for a in lows) and any(b.is_zero() for b in highs)

    def h_dim(c):
        return sum(cohomology(c, i).dim for i in c.degrees())

    def chosen(a, b):
        ha, hb = h_dim(a), h_dim(b)
        return ha and hb and (ha + hb) % 2 == 0

    calls = []

    def stub(xs, ys):
        calls.append((tuple(xs), tuple(ys)))
        hx = sum(m.dim for _, m in xs)
        hy = sum(m.dim for _, m in ys)
        return 1 if hx and hy and (hx + hy) % 2 == 0 else 0

    monkeypatch.setattr(heart, "stalk_hom_dim", stub)
    report = t_structure_report(ts, sample)
    expected = tuple(f"aisle #{ka} maps onto shifted coaisle #{kb}"
                     for ka, a in enumerate(lows)
                     for kb, b in enumerate(highs)
                     if chosen(a, b))
    assert expected
    assert not report.ok
    assert report.failures == expected
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("broken", ["composite", "dimensions"])
def test_t_structure_report_flags_an_inexact_truncation(a2, monkeypatch,
                                                        broken):
    # The degree-0 projection of one truncation sequence is swapped for
    # a surjection that breaks exactness in one way only: onto the same
    # quotient but not killing the aisle part ("composite"), or onto
    # the zero module, which kills everything but leaves the dimensions
    # short ("dimensions").
    uni = universe(a2, 2)
    ts = induced_t_structure(pair_from_torsion_indecs(uni, (1,)))
    sample = [one_term(m) for m in uni.nonzero_members()]
    assert t_structure_report(ts, sample).ok
    k = next(k for k, c in enumerate(sample)
             if truncate_le0(ts, c)[0].component(0).dim
             and truncate_ge1(ts, c)[0].component(0).dim)
    mono = truncate_le0(ts, sample[k])[1].component(0)
    # The report cuts each complex at its aisle subspace itself.
    real = heart._cut_above

    def patched(c, x_sub):
        q, proj = real(c, x_sub)
        if c is not sample[k]:
            return q, proj
        epi = proj.component(0)
        if broken == "composite":
            # Coordinate rows, the first one seeing the aisle part.
            n = epi.source.dim
            seen = next(i for i in range(n) if any(mono.mat.row(i)))
            picks = [seen] + [i for i in range(n) if i != seen]
            rows = [[int(i == j) for j in range(n)]
                    for i in picks[:epi.target.dim]]
            bad = ModuleMap(epi.source, epi.target,
                            Mat.from_rows(a2.field.p, rows))
            assert mono.source.dim + bad.target.dim == mono.target.dim
            assert not bad.compose(mono).is_zero()
        else:
            bad = ModuleMap.zero(epi.source, Module.zero(a2))
            assert mono.source.dim + bad.target.dim != mono.target.dim
            assert bad.compose(mono).is_zero()
        assert mono.is_injective() and bad.is_surjective()
        comps = {i: proj.component(i)
                 for i in range(proj.lo, proj.lo + len(proj.comps))}
        comps[0] = bad
        return q, ChainMap(c, q, comps)

    monkeypatch.setattr(heart, "_cut_above", patched)
    report = t_structure_report(ts, sample)
    assert report.failures == (f"truncation of #{k} not exact at 0",)


def test_truncation_solves_read_unit_rows(a2, monkeypatch):
    # Every system the t-structure report solves has a unit row for each
    # unknown (inclusions by reduced bases, transposed projections), so
    # none of them reduces a matrix.
    uni1 = universe(a2, 1)
    uni2 = universe(a2, 2)
    sample = enumerate_complexes(uni1, -1, 1, 1, total_bound=3)
    for cached in (heart._preimage_in_cycles, heart._cut_below,
                   heart._cut_above, complexes.cohomology_data):
        cached.cache_clear()
    solve_code = linalg.solve.__code__
    reduced_in_solve = []
    read = []
    real_rref = kernels.rref
    real_read = linalg._solve_by_unit_rows

    def counted_rref(*args):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is solve_code:
                reduced_in_solve.append(args)
                break
            frame = frame.f_back
        return real_rref(*args)

    def counted_read(*args):
        read.append(args)
        return real_read(*args)

    monkeypatch.setattr(kernels, "rref", counted_rref)
    monkeypatch.setattr(linalg, "_solve_by_unit_rows", counted_read)
    for pair in enumerate_torsion_pairs(uni2):
        assert t_structure_report(induced_t_structure(pair), sample).ok
    assert read
    assert reduced_in_solve == []


def _a2_pairs_and_sample(a2):
    """The 5 induced t-structures of A2/F_2 and a sample of complexes."""
    structures = [induced_t_structure(pair)
                  for pair in enumerate_torsion_pairs(universe(a2, 2))]
    assert len(structures) == 5
    sample = enumerate_complexes(universe(a2, 1), -1, 1, 1, total_bound=3)
    return structures, sample


def test_pairs_that_cut_alike_share_the_truncation(a2):
    # A truncation reads the pair only through the aisle subspace of
    # degree zero, so two pairs get back the same objects exactly when
    # they cut the complex at the same subspace.
    structures, sample = _a2_pairs_and_sample(a2)
    verdicts = set()
    for c in sample:
        for ts1, ts2 in itertools.combinations(structures, 2):
            same = (heart._aisle_subspace(ts1, c)
                    == heart._aisle_subspace(ts2, c))
            verdicts.add(same)
            for truncate in (truncate_le0, truncate_ge1):
                assert (truncate(ts1, c)[0] is truncate(ts2, c)[0]) == same
    assert verdicts == {True, False}


def test_report_cuts_each_complex_once_per_aisle_subspace(a2, monkeypatch):
    # Over all five pairs the report builds one submodule and one
    # quotient per distinct (complex, aisle subspace), not one per
    # (pair, complex).
    structures, sample = _a2_pairs_and_sample(a2)
    for cached in (heart._preimage_in_cycles, heart._cut_below,
                   heart._cut_above):
        cached.cache_clear()
    calls = {"sub": 0, "quo": 0}
    real_sub = heart.submodule_from_subspace
    real_quo = heart.quotient_by_subspace

    def counted_sub(*args):
        calls["sub"] += 1
        return real_sub(*args)

    def counted_quo(*args):
        calls["quo"] += 1
        return real_quo(*args)

    monkeypatch.setattr(heart, "submodule_from_subspace", counted_sub)
    monkeypatch.setattr(heart, "quotient_by_subspace", counted_quo)
    for ts in structures:
        assert t_structure_report(ts, sample).ok
    cuts = {(c, heart._aisle_subspace(ts, c))
            for ts in structures for c in sample}
    assert len(cuts) < len(structures) * len(sample)
    assert calls == {"sub": len(cuts), "quo": len(cuts)}


def test_report_computes_each_aisle_subspace_once(monkeypatch):
    # On the benchmark's seed-1 tstructure_a2 fixture, 500 complexes
    # under each of the 5 pairs of A2/F_2, the report computes the aisle
    # subspace, and with it the torsion part of H^0, once per (pair,
    # complex): its two truncations share one.
    workloads = perfbench_module("workloads")
    fx, sizes = workloads.tstructure_setup(1, False)
    assert (sizes["sample"], sizes["pairs"]) == (500, 5)
    calls = collections.Counter()
    monkeypatch.setattr(heart, "_aisle_subspace", counting(
        calls, "aisle", heart._aisle_subspace))
    monkeypatch.setattr(TorsionPair, "torsion_subspace", counting(
        calls, "torsion part", TorsionPair.torsion_subspace))
    reports = workloads.tstructure_run(fx, lambda k: None)
    assert [r.ok for r in reports] == [True] * 5
    assert calls == {"aisle": 2500, "torsion part": 2500}


def _tstructure_equality_calls() -> dict:
    """Equality calls while `t_structure_report` runs for the 5 pairs of
    A2/F_2 on the benchmark's tiny seed-1 tstructure_a2 sample, with
    the verdicts."""
    workloads = perfbench_module("workloads")
    fx, sizes = workloads.tstructure_setup(1, True)
    out = []
    calls = equality_calls((Complex, Mat, Module), lambda: out.extend(
        workloads.tstructure_run(fx, lambda k: None)))
    return {"sample": sizes["sample"], "ok": [r.ok for r in out],
            "calls": calls}


def test_report_compares_complexes_by_identity():
    # 20 seeded complexes under each of the 5 pairs, in a fresh
    # interpreter.  Complexes and modules are hash-consed, so equal
    # truncations of distinct complexes are one object and the class
    # table finds them by identity.  The matrix comparisons left are the
    # stability check of each quotient built, once per (module,
    # subspace), the lookups in a module's table of parts by an equal
    # but distinct subspace, and the lookups of equal but distinct
    # torsion parts of H^0.
    assert returned_fresh(__file__, "_tstructure_equality_calls") == {
        "sample": 20, "ok": [True] * 5,
        "calls": {"Complex": 0, "Mat": 388, "Module": 0}}


def _tstructure_part_builds() -> dict:
    """Calls for a submodule or a quotient, and the builds they cause by
    (kind, module, subspace), while `t_structure_report` runs for the 5
    pairs of A2/F_2 on the benchmark's tiny seed-1 tstructure_a2
    sample."""
    workloads = perfbench_module("workloads")
    fx, sizes = workloads.tstructure_setup(1, True)
    calls = collections.Counter()
    builds = collections.Counter()

    def counted(kind, build):
        def wrapper(m, s):
            builds[kind, m, s] += 1
            return build(m, s)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for kind in ("submodule", "quotient"):
            name = f"_build_{kind}"
            patch.setattr(modules, name,
                          counted(kind, getattr(modules, name)))
        patch.setattr(modules, "_part", counting(calls, "parts",
                                                 modules._part))
        out = workloads.tstructure_run(fx, lambda k: None)
    return {"sample": sizes["sample"], "ok": [r.ok for r in out],
            "calls": calls["parts"], "inputs": len(builds),
            "builds": sum(builds.values())}


def test_report_builds_each_part_once_per_module_and_subspace():
    # In a fresh interpreter, on the same tiny sample: the report and
    # the cohomology, truncations and torsion parts under it ask for a
    # submodule or a quotient 299 times, and the action of each is
    # built once per distinct (kind, module, subspace).  The counters
    # hold every module they see, so none is dropped and built again.
    assert returned_fresh(__file__, "_tstructure_part_builds") == {
        "sample": 20, "ok": [True] * 5,
        "calls": 299, "inputs": 33, "builds": 33}


def test_report_scans_each_new_module_once_per_rep(a2, monkeypatch):
    # The report's class table looks up a cohomology module equal to one
    # met before, so is_isomorphic sees each (representative, module)
    # pair at most once per report, and only modules never met before.
    structures, sample = _a2_pairs_and_sample(a2)
    assert len(sample) == 39
    calls = []
    real = heart.is_isomorphic

    def counted(r, h):
        calls.append((r, h))
        return real(r, h)

    monkeypatch.setattr(heart, "is_isomorphic", counted)
    total = 0
    for ts in structures:
        calls.clear()
        assert t_structure_report(ts, sample).ok
        assert len(calls) == len(set(calls))
        total += len(calls)
    assert total


def _per_pair_aisle_subspace(ts, c):
    """The aisle subspace computed afresh for one (t-structure, complex),
    the computation the report ran before it was shared per torsion part
    of H^0: the reference for `heart._aisle_subspace`."""
    data = complexes.cohomology_data(c, 0)
    th = ts.pair.torsion_subspace(data.h)
    tproj, _ = linalg.quotient_maps(th)
    pre = linalg.kernel_basis(tproj @ data.h_proj.mat)
    vecs = [data.cycles_incl.mat.apply(v) for v in pre.basis.row_list()]
    return linalg.Subspace(c.algebra.field.p, c.component(0).dim, vecs)


@pytest.mark.parametrize("p, quiver, pair_bound", [
    (2, _A2, 2), (3, _A2, 2), (2, _A3, 3)], ids=["A2/F_2", "A2/F_3", "A3/F_2"])
def test_aisle_subspace_is_kept_once_per_torsion_part(p, quiver, pair_bound):
    # For every pair and complex the shared aisle subspace is the one the
    # per-pair computation gives, and the cache behind it holds one
    # entry per distinct (complex, torsion part of H^0).
    alg = path_algebra(Field(p), quiver)
    pool = enumerate_complexes(universe(alg, 2), -1, 1, 2, total_bound=3)
    pairs = enumerate_torsion_pairs(universe(alg, pair_bound))
    heart._preimage_in_cycles.cache_clear()
    parts = set()
    for pair in pairs:
        ts = induced_t_structure(pair)
        for c in pool:
            assert heart._aisle_subspace(ts, c) \
                == _per_pair_aisle_subspace(ts, c), c
            parts.add((c, pair.torsion_subspace(cohomology(c, 0))))
    assert len(parts) < len(pool) * len(pairs)
    assert heart._preimage_in_cycles.cache_info().currsize == len(parts)


@pytest.mark.parametrize("p", [2, 3])
def test_truncated_maps_commute_with_the_cuts(p):
    # The cover P1 -> S1, the identity of P1 and the truncation maps of
    # P1, under every pair: both truncated maps are chain maps, and in
    # degree zero the restriction commutes with the inclusions and the
    # descent with the projections.
    alg = path_algebra(Field(p), _A2)
    s1 = simple_module(alg, 0)
    p1 = projective_module(alg, 0)
    _, _, cover = syzygy(s1)
    for pair in enumerate_torsion_pairs(universe(alg, 2)):
        ts = induced_t_structure(pair)
        maps = [ChainMap(one_term(p1), one_term(s1), {0: cover}),
                ChainMap.identity(one_term(p1)),
                truncate_le0(ts, one_term(p1))[1],
                truncate_ge1(ts, one_term(p1))[1]]
        for f in maps:
            low = truncate_le0_map(ts, f)
            high = truncate_ge1_map(ts, f)
            low.check()
            high.check()
            incl_s = truncate_le0(ts, f.source)[1].component(0)
            incl_t = truncate_le0(ts, f.target)[1].component(0)
            assert (incl_t.compose(low.component(0))
                    == f.component(0).compose(incl_s))
            proj_s = truncate_ge1(ts, f.source)[1].component(0)
            proj_t = truncate_ge1(ts, f.target)[1].component(0)
            assert (high.component(0).compose(proj_s)
                    == proj_t.compose(f.component(0)))


@pytest.mark.parametrize("p", [2, 3])
def test_cohomology_class_decides_derived_homs(p):
    # The premise of the orthogonality dedupe: over a hereditary algebra
    # complexes with the same cohomology class key have the same derived
    # homs to and from any complex.  They are counted by chain maps
    # modulo homotopy, not by the split formula that assumes it.
    alg = path_algebra(Field(p), _A2)
    pool = enumerate_complexes(universe(alg, 2), -2, 1, 2, total_bound=3)
    targets = [one_term(m, s) for m in universe(alg, 2).indecs
               for s in (-1, 0, 1)]
    seen = {}
    classes = {}
    for c in pool:
        classes.setdefault(heart._cohomology_key(c, seen), []).append(c)
    shared = [cs for cs in classes.values() if len(cs) > 1]
    assert shared
    nonzero = 0
    for cs in shared:
        dims = {tuple(derived_hom0(c, t).dim for t in targets)
                + tuple(derived_hom0(t, c).dim for t in targets) for c in cs}
        assert len(dims) == 1, cs
        nonzero += any(dims.pop())
    assert nonzero


def _all_distinct_pairs_failures(ts, complexes):
    """The orthogonality sweep run once per distinct (aisle, coaisle)
    pair of nonzero truncations, reported at every index pair: the
    reference for the cohomology-class dedupe.  Hom dimensions come from
    chain maps modulo homotopy, not from the split formula."""
    lows = [truncate_le0(ts, c)[0] for c in complexes]
    highs = [truncate_ge1(ts, c)[0] for c in complexes]
    low_ids = {}
    high_ids = {}
    low_at = [low_ids.setdefault(c, len(low_ids)) for c in lows]
    high_at = [high_ids.setdefault(c, len(high_ids)) for c in highs]
    hits = {(i, j) for a, i in low_ids.items() if not a.is_zero()
            for b, j in high_ids.items()
            if not b.is_zero() and derived_hom0(a, b).dim}
    return tuple(f"aisle #{ka} maps onto shifted coaisle #{kb}"
                 for ka, i in enumerate(low_at)
                 for kb, j in enumerate(high_at) if (i, j) in hits)


@pytest.mark.parametrize("fixture, pair_bound, sample_bounds", [
    ("a2", 2, (1, -1, 1, 1, 3)),
    ("a3", 3, (2, -2, 1, 2, 3)),
], ids=["A2 tier-1 sample", "A3 acceptance-05 sample"])
def test_class_dedupe_matches_the_distinct_pair_sweep(request, fixture,
                                                      pair_bound,
                                                      sample_bounds):
    alg = request.getfixturevalue(fixture)
    uni_bound, lo, hi, comp_bound, total_bound = sample_bounds
    sample = enumerate_complexes(universe(alg, uni_bound), lo, hi,
                                 comp_bound, total_bound=total_bound)
    for pair in enumerate_torsion_pairs(universe(alg, pair_bound)):
        ts = induced_t_structure(pair)
        assert t_structure_report(ts, sample).failures \
            == _all_distinct_pairs_failures(ts, sample)


def test_hom_dims_build_no_chain_maps(a2, monkeypatch):
    # derived_hom_dim and t_structure_report read hom dimensions off
    # cohomology: no resolution, chain-map space, homotopy or cached
    # derived hom may be reached, whatever ran before in this process.
    def forbidden(*args, **kwargs):
        raise AssertionError("a derived hom dimension built chain maps")

    for name in ("projective_resolution", "chain_map_space",
                 "homotopy_boundaries", "derived_hom0"):
        monkeypatch.setattr(derived, name, forbidden)
        if hasattr(heart, name):
            monkeypatch.setattr(heart, name, forbidden)
    alg3 = path_algebra(Field(3), _A2)
    pool = enumerate_complexes(universe(alg3, 2), -1, 0, 2, total_bound=3)
    dims = [derived_hom_dim(x, y) for x in pool for y in pool]
    assert 0 in dims and max(dims) > 0
    sample = enumerate_complexes(universe(a2, 1), -1, 1, 1, total_bound=3)
    for pair in enumerate_torsion_pairs(universe(a2, 2)):
        assert t_structure_report(induced_t_structure(pair), sample).ok


def test_tilted_pair_report_all_pairs(a2):
    uni = universe(a2, 2)
    for pair in enumerate_torsion_pairs(uni):
        report = tilted_pair_report(induced_t_structure(pair), uni)
        assert report.ok, report.failures


def _scanned_tilted_pair_report(ts, uni, dim_bound):
    """The failures of the tilted pair over every scanned heart object,
    not one per class: the reference for tilted_pair_report."""
    failures = []
    for k, x in enumerate(enumerate_heart_objects(ts, uni, dim_bound)):
        dec = heart_decompose(ts, x)
        if not heart_ses_ok(ts, dec.t_incl, dec.q_proj):
            failures.append(f"decomposition of heart object #{k} "
                            "is not exact")
    return failures


@pytest.mark.parametrize("p, quiver", [(2, _A2), (3, _A2), (2, _A3)],
                         ids=["A2/F_2", "A2/F_3", "A3/F_2"])
def test_tilted_pair_report_agrees_with_the_scan(p, quiver):
    # At bound 3 on every pair, the report over the class representatives
    # and the report over every scanned heart object give one verdict.
    alg = path_algebra(Field(p), quiver)
    uni = universe(alg, 3)
    for pair in enumerate_torsion_pairs(uni):
        ts = induced_t_structure(pair)
        report = tilted_pair_report(ts, uni, 3)
        assert report.ok == (_scanned_tilted_pair_report(ts, uni, 3) == [])
        assert report.ok
