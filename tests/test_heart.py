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

import pytest

from quivertilt import heart
from quivertilt.complexes import (
    ChainMap,
    Complex,
    cohomology,
    cohomology_map,
    enumerate_complexes,
    is_quasi_iso,
)
from quivertilt.derived import DerivedMorphism
from quivertilt.enumeration import universe
from quivertilt.heart import (
    connecting_morphism,
    enumerate_heart_objects,
    factor_through_epi,
    factor_through_mono,
    h0_lower,
    h0_lower_map,
    h0_upper,
    heart_class_reps,
    heart_cokernel,
    heart_decompose,
    heart_is_isomorphic,
    heart_kernel,
    heart_les_ok,
    heart_ses_ok,
    induced_t_structure,
    is_heart_epi,
    is_heart_mono,
    is_heart_zero,
    kv_classes,
    one_term,
    t_cohomology,
    t_structure_report,
    tilted_pair_report,
    truncate_ge,
    truncate_ge1,
    truncate_le,
    truncate_le0,
)
from quivertilt.linalg import image_basis
from quivertilt.modules import (
    ModuleMap,
    ShortExactSeq,
    direct_sum,
    projective_module,
    ses_from_submodule,
    simple_module,
    syzygy,
)
from quivertilt.torsion import (
    enumerate_torsion_pairs,
    free_indec_indices,
    pair_from_torsion_indecs,
    torsion_indec_indices,
)


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
    c = one_term(s2, 1)
    tr, _ = truncate_le(ts, c, -1)
    assert tr.is_zero()
    q, proj = truncate_ge(ts, c, 0)
    assert is_quasi_iso(proj)
    # Far above the support everything lies in the aisle.
    full, incl = truncate_le(ts, one_term(p1), 2)
    assert is_quasi_iso(incl)
    assert full.total_dim() == 2


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
    assert m.compose(kappa).is_zero()
    assert is_heart_mono(ts, kappa)
    assert not is_heart_mono(ts, m)


def test_heart_cokernel_of_shifted_inclusion(a2, a2_setup):
    _, ts, _, _, p1 = a2_setup
    m = shifted_radical_inclusion(a2, p1)
    ck, pi = heart_cokernel(ts, m)
    assert is_heart_zero(ck)
    assert pi.compose(m).is_zero()
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
    assert factor_through_epi(m, zero).is_zero()


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
    assert dec.q_proj.compose(dec.t_incl).is_zero()

    split = Complex(a2, -1, [s2, s1], [ModuleMap.zero(s2, s1)])
    dec2 = heart_decompose(ts, split)
    assert heart_is_isomorphic(dec2.tor, one_term(s2, 1))
    assert heart_is_isomorphic(dec2.quo, one_term(s1))
    assert ts.in_heart(dec2.tor) and ts.in_heart(dec2.quo)

    with pytest.raises(ValueError):
        heart_decompose(ts, one_term(s1, 1))


def test_connecting_morphism_vanishing(a2):
    # Split sequences have zero connecting morphism; the radical
    # sequence of P1 does not.
    s1 = simple_module(a2, 0)
    p1 = projective_module(a2, 0)
    omega, _, _ = syzygy(s1)
    whole, incls, projs = direct_sum(a2, [omega, p1])
    split = ShortExactSeq(incls[0], projs[1])
    assert connecting_morphism(split).is_zero()
    delta = connecting_morphism(radical_ses(a2, p1))
    assert not delta.is_zero()
    assert delta.target == one_term(omega, -1).shift(2)


def test_heart_les_all_pairs(a2):
    uni = universe(a2, 2)
    p1 = projective_module(a2, 0)
    ses = radical_ses(a2, p1)
    for pair in enumerate_torsion_pairs(uni):
        assert heart_les_ok(induced_t_structure(pair), ses)


def test_enumerate_heart_objects_counts(a2_setup):
    uni, ts, _, _, _ = a2_setup
    raw = enumerate_heart_objects(ts, uni)
    assert len(raw) == 50
    assert all(ts.in_heart(c) for c in raw)
    classes = heart_class_reps(ts, uni, max(c.total_dim() for c in raw))
    assert len(classes) == 12


def test_standard_pair_heart_matches_modules(a2):
    # The heart of the standard pair is the module category: its
    # isomorphism classes at bound 2 are exactly the universe members.
    uni = universe(a2, 2)
    ts = induced_t_structure(pair_from_torsion_indecs(uni, (0, 1, 2)))
    raw = enumerate_heart_objects(ts, uni)
    assert len(raw) == 32
    classes = heart_class_reps(ts, uni, max(c.total_dim() for c in raw))
    assert len(classes) == len(uni.members)


def test_heart_is_isomorphic_basics(a2_setup):
    _, _, s1, s2, p1 = a2_setup
    assert heart_is_isomorphic(one_term(s1), one_term(s1))
    assert not heart_is_isomorphic(one_term(s1), one_term(s2, 1))
    alg = p1.algebra
    _, incl, _ = syzygy(s1)
    contractible = Complex(alg, -1, [s2, s2],
                           [ModuleMap.identity(s2)])
    assert heart_is_isomorphic(contractible, Complex.zero(alg))


def test_kv_roundtrip_all_pairs(a2):
    # The torsion pair is recoverable from its induced t-structure.
    uni = universe(a2, 2)
    for pair in enumerate_torsion_pairs(uni):
        ts = induced_t_structure(pair)
        got = kv_classes(ts, uni)
        assert got == (torsion_indec_indices(pair, uni),
                       free_indec_indices(pair, uni))


def test_t_structure_report_all_pairs(a2):
    uni1 = universe(a2, 1)
    uni2 = universe(a2, 2)
    sample = enumerate_complexes(uni1, -1, 1, 1, total_bound=3)
    assert len(sample) == 39
    for pair in enumerate_torsion_pairs(uni2):
        ts = induced_t_structure(pair)
        report = t_structure_report(ts, sample)
        assert report.ok, report.failures
        # Repeated complexes repeat every truncation; the verdict stays.
        repeated = t_structure_report(ts, sample + sample[::-1])
        assert repeated.ok == report.ok
        assert repeated.failures == ()


def test_t_structure_report_lists_every_failing_index_pair(a2, monkeypatch):
    # Orthogonality holds on a genuine induced t-structure, so a stub
    # that claims homs on a chosen subset of (low, high) pairs drives
    # the failure path; the messages must be those of a plain double
    # loop over all index pairs, duplicates included.
    sample = enumerate_complexes(universe(a2, 1), -1, 1, 1, total_bound=3)
    sample = sample + sample[::-1]
    pair = pair_from_torsion_indecs(universe(a2, 2), (1,))
    ts = induced_t_structure(pair)
    lows = [truncate_le0(ts, c)[0] for c in sample]
    highs = [truncate_ge1(ts, c)[0] for c in sample]
    assert len(set(lows)) < len(lows)
    assert len(set(highs)) < len(highs)
    assert any(a.is_zero() for a in lows) and any(b.is_zero() for b in highs)

    def chosen(a, b):
        return (a.total_dim() + b.total_dim()) % 2 == 0

    calls = []

    def stub(a, b):
        calls.append((a, b))
        return 1 if chosen(a, b) else 0

    monkeypatch.setattr(heart, "derived_hom_dim", stub)
    report = t_structure_report(ts, sample)
    expected = tuple(f"aisle #{ka} maps onto shifted coaisle #{kb}"
                     for ka, a in enumerate(lows)
                     for kb, b in enumerate(highs)
                     if not a.is_zero() and not b.is_zero() and chosen(a, b))
    assert expected
    assert not report.ok
    assert report.failures == expected
    assert len(calls) == len(set(calls))


def test_tilted_pair_report_all_pairs(a2):
    uni = universe(a2, 2)
    for pair in enumerate_torsion_pairs(uni):
        report = tilted_pair_report(induced_t_structure(pair), uni)
        assert report.ok, report.failures
