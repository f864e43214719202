"""Corner localization contexts and torsion-pair transport.

Frozen facts for the A2 fixture with corner idempotent e_2: the section
of the one-dimensional corner module is the projective P1 on the hom
side and the simple S2 on the tensor side; the kernel of restriction is
add S1, the unit-injective modules are add {S2, P1}, and the modules
with surjective counit are add S2.  Exactly two of the five pairs are
compatible on each side, matching the two corner pairs.
"""

from __future__ import annotations

import pytest

from quivertilt import enumeration, torsion
from quivertilt.algebras import corner_algebra
from quivertilt.enumeration import is_isomorphic, universe
from quivertilt.giraud import (
    co_giraud_context,
    co_hat_decompose,
    giraud_context,
    hat_decompose,
    hat_pair,
    push_pair,
    verify_bijection,
    verify_co_bijection,
)
from quivertilt.modules import direct_sum, projective_module, simple_module
from quivertilt.torsion import (
    ClassSpec,
    TorsionPair,
    enumerate_torsion_pairs,
    free_indec_indices,
    is_torsion_pair,
    self_test,
    torsion_indec_indices,
)


@pytest.fixture(scope="module")
def ctx2(a2):
    return giraud_context(corner_algebra(a2, (1,)))


@pytest.fixture(scope="module")
def co2(a2):
    return co_giraud_context(corner_algebra(a2, (1,)))


@pytest.fixture(scope="module")
def ctx3(a3):
    return giraud_context(corner_algebra(a3, (0, 2)))


@pytest.fixture(scope="module")
def co3(a3):
    return co_giraud_context(corner_algebra(a3, (0, 2)))


def test_restriction_dims(ctx2, a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    assert ctx2.l.apply(s1).dim == 0
    assert ctx2.l.apply(s2).dim == 1
    assert ctx2.l.apply(p1).dim == 1
    assert ctx2.in_s(s1)
    assert not ctx2.in_s(s2) and not ctx2.in_s(p1)


def test_hom_section_values(ctx2, a2):
    p1 = projective_module(a2, 0)
    k = ctx2.l.apply(simple_module(a2, 1))
    section = ctx2.i.apply(k)
    assert section.dim == 2
    assert is_isomorphic(section, p1)


def test_tensor_section_values(co2, a2):
    s2 = simple_module(a2, 1)
    k = co2.r.apply(s2)
    section = co2.j.apply(k)
    assert section.dim == 1
    assert is_isomorphic(section, s2)


def test_unit_and_s_perp(ctx2, a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    assert not ctx2.in_s_perp(s1)
    assert ctx2.in_s_perp(s2)
    assert ctx2.in_s_perp(p1)
    assert ctx2.unit(p1).is_iso()


def test_counit_and_perp_s(co2, a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    assert co2.in_perp_s(s2)
    assert not co2.in_perp_s(s1)
    assert not co2.in_perp_s(p1)


def test_triangle_identities(ctx2, co2, a2):
    mods = [simple_module(a2, 0), simple_module(a2, 1),
            projective_module(a2, 0),
            direct_sum(a2, [simple_module(a2, 0),
                            projective_module(a2, 0)])[0]]
    for m in mods:
        lm = ctx2.l.apply(m)
        tri = ctx2.counit(lm).compose(ctx2.l.apply_map(ctx2.unit(m)))
        assert tri.is_iso() and tri.mat == tri.mat.identity(2, lm.dim)
        rm = co2.r.apply(m)
        tri = co2.r.apply_map(co2.counit(m)).compose(co2.unit(rm))
        assert tri.mat == tri.mat.identity(2, rm.dim)
    corner_mods = [ctx2.l.apply(m) for m in mods]
    for n in corner_mods:
        sec = ctx2.i.apply(n)
        tri = ctx2.i.apply_map(ctx2.counit(n)).compose(ctx2.unit(sec))
        assert tri.mat == tri.mat.identity(2, sec.dim)
        ten = co2.j.apply(n)
        tri = co2.counit(ten).compose(co2.j.apply_map(co2.unit(n)))
        assert tri.mat == tri.mat.identity(2, ten.dim)


def corner_pairs(ctx):
    uni_c = universe(ctx.corner.sub, 2)
    return uni_c, enumerate_torsion_pairs(uni_c)


def test_corner_pair_count_a2(ctx2):
    uni_c, pairs = corner_pairs(ctx2)
    assert len(pairs) == 2


def test_hat_pair_a2(ctx2, a2):
    uni_d = universe(a2, 2)
    uni_c, pairs = corner_pairs(ctx2)
    zero_all = pairs[0]
    hat = hat_pair(ctx2, zero_all, uni_d)
    # Pulling back (0, everything) gives the standard pair (S is torsion).
    assert torsion_indec_indices(hat, uni_d) == (1,)
    assert free_indec_indices(hat, uni_d) == (0, 2)
    assert is_torsion_pair(hat, uni_d).ok
    assert self_test(hat, uni_d).ok
    all_zero = pairs[1]
    hat2 = hat_pair(ctx2, all_zero, uni_d)
    assert torsion_indec_indices(hat2, uni_d) == (0, 1, 2)
    assert free_indec_indices(hat2, uni_d) == ()
    assert is_torsion_pair(hat2, uni_d).ok
    assert self_test(hat2, uni_d).ok


def test_hat_decompose_a2(ctx2, a2):
    uni_d = universe(a2, 2)
    _, pairs = corner_pairs(ctx2)
    zero_all = pairs[0]
    hat = hat_pair(ctx2, zero_all, uni_d)
    for m in uni_d.nonzero_members():
        ses = hat_decompose(ctx2, zero_all, m)
        ses.check()
        assert hat.in_torsion(ses.sub)
        assert hat.in_free(ses.quot)
        # Must agree with the trace decomposition of the pulled-back pair.
        assert ses.sub.dim == hat.torsion_subspace(m).dim


def test_co_hat_decompose_a2(co2, a2):
    uni_d = universe(a2, 2)
    uni_c = universe(co2.corner.sub, 2)
    for pair_c in enumerate_torsion_pairs(uni_c):
        hat = hat_pair(co2, pair_c, uni_d)
        assert is_torsion_pair(hat, uni_d).ok
        assert self_test(hat, uni_d).ok
        for m in uni_d.nonzero_members():
            ses = co_hat_decompose(co2, pair_c, m)
            ses.check()
            assert hat.in_torsion(ses.sub)
            assert hat.in_free(ses.quot)


def test_push_pair_a2(ctx2, a2):
    uni_d = universe(a2, 2)
    uni_c, cpairs = corner_pairs(ctx2)
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    std = TorsionPair(ClassSpec((s1,), "torsion"), ClassSpec((s2, p1), "free"))
    res = push_pair(ctx2, std, uni_d, uni_c)
    assert res.ok and res.closed_under_section
    assert torsion_indec_indices(res.pair, uni_c) == ()
    assert free_indec_indices(res.pair, uni_c) == (0,)
    # An incompatible pair is reported with a witness, not pushed.
    bad = TorsionPair(ClassSpec((s1, p1), "torsion"), ClassSpec((s2,), "free"))
    res_bad = push_pair(ctx2, bad, uni_d, uni_c)
    assert not res_bad.ok and not res_bad.closed_under_section
    assert "not closed" in res_bad.witness


def test_bijection_a2(ctx2, a2):
    uni_d = universe(a2, 2)
    uni_c, _ = corner_pairs(ctx2)
    report = verify_bijection(ctx2, uni_d, uni_c)
    assert report.ok, report.failures
    assert report.parent_pairs == 5
    assert report.corner_pairs == 2
    assert len(report.compatible) == 2


def test_co_bijection_a2(co2, a2):
    uni_d = universe(a2, 2)
    uni_c = universe(co2.corner.sub, 2)
    report = verify_co_bijection(co2, uni_d, uni_c)
    assert report.ok, report.failures
    assert report.parent_pairs == 5
    assert report.corner_pairs == 2
    assert len(report.compatible) == 2
    # The co-compatible pairs differ from the compatible ones.
    keys = {k[0] for k in report.compatible}
    assert keys == {(), (0,)}


def test_bijection_a3(ctx3, a3):
    uni_d = universe(a3, 3)
    uni_c = universe(ctx3.corner.sub, 2)
    report = verify_bijection(ctx3, uni_d, uni_c)
    assert report.ok, report.failures
    assert report.parent_pairs == 14
    assert report.corner_pairs == 5
    assert len(report.compatible) == 5


def test_co_bijection_a3(co3, a3):
    uni_d = universe(a3, 3)
    uni_c = universe(co3.corner.sub, 2)
    report = verify_co_bijection(co3, uni_d, uni_c)
    assert report.ok, report.failures
    assert report.parent_pairs == 14
    assert report.corner_pairs == 5
    assert len(report.compatible) == 5


def test_certificates_run_no_closure_sweep(ctx3, co3, a3, monkeypatch):
    # Deciding a pair needs neither extension middles nor submodule
    # lattices; those belong to torsion.self_test alone.
    calls = {"all_extension_middles": 0, "enumerate_submodules": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for mod, name in ((torsion, "all_extension_middles"),
                      (torsion, "enumerate_submodules"),
                      (enumeration, "enumerate_submodules")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    # Start from an empty pair cache, so that the enumerations run here.
    enumerate_torsion_pairs.cache_clear()
    uni_d = universe(a3, 3)
    uni_c = universe(ctx3.corner.sub, 2)
    assert len(enumerate_torsion_pairs(uni_d)) == 14
    assert verify_bijection(ctx3, uni_d, uni_c).ok
    assert verify_co_bijection(co3, uni_d, uni_c).ok
    assert calls == {"all_extension_middles": 0, "enumerate_submodules": 0}


def test_bijection_failures_on_truncated_corner(ctx3, co3, a3):
    # At corner bound 1 only 4 corner pairs remain against 5 compatible
    # parent pairs on each side: two compatible pairs push to the same
    # corner pair, and one corner pair lifts to an incompatible pair.
    uni_d = universe(a3, 3)
    uni_c = universe(ctx3.corner.sub, 1)
    report = verify_bijection(ctx3, uni_d, uni_c)
    assert not report.ok
    assert report.corner_pairs == 4
    assert report.failures == (
        "hat(push) moved pair ((1, 2, 4), (0, 3, 5))",
        "hat(push) moved pair ((1, 2, 4, 5), (0, 3))",
        "hat of corner pair ((1,), (0,)) is not compatible")
    co_report = verify_co_bijection(co3, uni_d, uni_c)
    assert not co_report.ok
    assert co_report.corner_pairs == 4
    assert co_report.failures == (
        "co-hat(co-push) moved pair ((2, 4), (0, 1, 3, 5))",
        "co-hat(co-push) moved pair ((2, 4, 5), (0, 1, 3))",
        "co-hat of corner pair ((1,), (0,)) is not compatible")


def test_co_push_pair_a2(co2, a2):
    uni_d = universe(a2, 2)
    uni_c = universe(co2.corner.sub, 2)
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    pair = TorsionPair(ClassSpec((s2,), "torsion"), ClassSpec((s1,), "free"))
    res = push_pair(co2, pair, uni_d, uni_c)
    assert res.ok
    assert torsion_indec_indices(res.pair, uni_c) == (0,)
    assert free_indec_indices(res.pair, uni_c) == ()


def _closure_by_members(ctx, pair, uni_d):
    """The closure test push_pair ran before it read indecomposables
    only: every nonzero member of the universe, sums included, with the
    first failing member as the witness."""
    k = ctx.constrained
    for d in uni_d.nonzero_members():
        if pair.in_class(k, d) and not pair.in_class(
                k, ctx.section.apply(ctx.restriction.apply(d))):
            names = ("torsion", "free")
            return False, (f"{names[k]} class not closed under "
                           f"{ctx.composite} at {uni_d.signature(d)}")
    return True, None


@pytest.mark.parametrize("side", ["localization", "colocalization"])
def test_push_closure_on_indecs_matches_members(side, ctx3, co3, a3):
    # The composite and the classes are additive, so testing the
    # indecomposables gives the member-level verdict and witness.
    ctx = ctx3 if side == "localization" else co3
    uni_d = universe(a3, 3)
    uni_c = universe(ctx.corner.sub, 2)
    verdicts = []
    for pair in enumerate_torsion_pairs(uni_d):
        res = push_pair(ctx, pair, uni_d, uni_c)
        verdicts.append((res.closed_under_section, res.witness))
        assert verdicts[-1] == _closure_by_members(ctx, pair, uni_d)
    # Both verdicts occur, so the comparison is not vacuous.
    assert {closed for closed, _ in verdicts} == {True, False}
