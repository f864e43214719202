"""Heart-level localization along a corner idempotent.

Frozen facts for the A2 fixture with corner idempotent e_2 and the pair
(add S1, add {S2, P1}): the corner heart has three classes below total
dimension 3 against ten upstairs, the descended functor kills exactly
the stalks of add S1, the section of the corner simple in degree -1 is
P1[-1], and the unit on S2[-1] sits in the exact sequence
0 -> S1[0] -> S2[-1] -> P1[-1] -> 0.  On the A3 fixture with corner
e_1 + e_3 exactly ten of the fourteen pairs descend, on both the
restriction and the extension side; the pair with torsion signature
(2, 4) passes every verification report, and the pair (0, 2, 4, 5)
reconstructs its kernel class even though its free class does not
generate, so the context roundtrip is not forced for it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from quivertilt.algebras import corner_algebra, path_algebra
from quivertilt import heart
from quivertilt.complexes import ChainMap, enumerate_complexes
from quivertilt.derived import DerivedHom, DerivedMorphism, derived_hom0
from quivertilt.enumeration import enumerate_submodules, universe
from quivertilt.giraud import co_giraud_context, giraud_context
from quivertilt.linalg import Field
from quivertilt.heart import (
    heart_cokernel,
    heart_is_isomorphic,
    heart_kernel,
    heart_les_ok,
    heart_ses_ok,
    is_heart_zero,
    one_term,
)
from quivertilt.modules import Module, ses_from_submodule
from quivertilt.quivers import Quiver
from quivertilt.tiltbridge import (
    _stalk_failures,
    dl_commutation_report,
    heart_class_reps,
    heart_counit,
    heart_co_unit,
    heart_giraud_context,
    heart_unit,
    i_heart,
    i_heart_map,
    j_heart,
    j_heart_map,
    l_heart,
    l_heart_preimage,
    reconstruct_serre,
    s_heart_membership,
    verify_heart_giraud,
    verify_heart_quotient,
)
from quivertilt.torsion import (
    enumerate_torsion_pairs,
    pair_from_torsion_indecs,
    torsion_indec_indices,
)


class _Setup:
    """A corner context together with both heart-level contexts."""

    def __init__(self, alg, positions, torsion, bound_d, bound_c):
        self.corner = corner_algebra(alg, positions)
        self.uni_d = universe(alg, bound_d)
        self.uni_c = universe(self.corner.sub, bound_c)
        self.ctx = giraud_context(self.corner)
        self.co = co_giraud_context(self.corner)
        self.pair = pair_from_torsion_indecs(self.uni_d, torsion)
        self.hctx = heart_giraud_context(self.ctx, self.pair,
                                         self.uni_d, self.uni_c)
        self.co_hctx = heart_giraud_context(self.co, self.pair,
                                            self.uni_d, self.uni_c)


@pytest.fixture(scope="module")
def g2(a2):
    return _Setup(a2, (1,), (1,), 2, 2)


@pytest.fixture(scope="module")
def g3(a3):
    return _Setup(a3, (0, 2), (2, 4), 3, 2)


def test_incompatible_pair_is_rejected(a2, g2):
    bad = pair_from_torsion_indecs(g2.uni_d, (1, 2))
    with pytest.raises(ValueError, match="free class not closed"):
        heart_giraud_context(g2.ctx, bad, g2.uni_d, g2.uni_c)
    with pytest.raises(ValueError, match="torsion class not closed"):
        heart_giraud_context(g2.co, bad, g2.uni_d, g2.uni_c)


def _corner_stalk(g):
    return one_term(g.ctx.l.apply(g.uni_d.indecs[0]), 1)


def _corner_identity(g):
    return DerivedMorphism.from_chain_map(
        ChainMap.identity(_corner_stalk(g)))


# Each function that only one side has, with arguments it accepts on
# that side.
_ONE_SIDED = {
    "i_heart": (i_heart, lambda g: (_corner_stalk(g),)),
    "i_heart_map": (i_heart_map, lambda g: (_corner_identity(g),)),
    "heart_counit": (heart_counit, lambda g: (_corner_stalk(g),)),
    "s_heart_membership": (s_heart_membership,
                           lambda g: (one_term(g.uni_d.indecs[1]),)),
    "l_heart_preimage": (l_heart_preimage, lambda g: (_corner_stalk(g),)),
    "verify_heart_quotient": (verify_heart_quotient,
                              lambda g: (g.uni_d, g.uni_c)),
    "dl_commutation_report": (dl_commutation_report,
                              lambda g: ([one_term(g.uni_d.indecs[1])],)),
    "reconstruct_serre": (reconstruct_serre, lambda g: (g.uni_d, g.uni_c)),
    "j_heart": (j_heart, lambda g: (_corner_stalk(g),)),
    "j_heart_map": (j_heart_map, lambda g: (_corner_identity(g),)),
    "heart_co_unit": (heart_co_unit, lambda g: (_corner_stalk(g),)),
}
_COLOCALIZATION_ONLY = ("j_heart", "j_heart_map", "heart_co_unit")


@pytest.mark.parametrize("name", sorted(_ONE_SIDED))
def test_one_sided_functions_reject_the_other_side(g2, name):
    fn, args = _ONE_SIDED[name]
    if name in _COLOCALIZATION_ONLY:
        wrong, needed = g2.hctx, "colocalization"
    else:
        wrong, needed = g2.co_hctx, "localization"
    with pytest.raises(ValueError, match=f"^{name} needs a {needed} context$"):
        fn(wrong, *args(g2))


def test_descended_pair_is_trivial_on_corner(g2):
    assert torsion_indec_indices(g2.hctx.pair_c, g2.uni_c) == ()
    assert g2.co_hctx.pair_c.in_free(g2.uni_c.indecs[0])


def test_descent_values(a2, g2):
    s2, s1, p1 = g2.uni_d.indecs
    k = g2.ctx.l.apply(s2)
    assert heart_is_isomorphic(l_heart(g2.hctx, one_term(s2, 1)),
                               one_term(k, 1))
    assert heart_is_isomorphic(l_heart(g2.hctx, one_term(p1, 1)),
                               one_term(k, 1))
    assert is_heart_zero(l_heart(g2.hctx, one_term(s1)))


def test_section_values(g2):
    s2, _, p1 = g2.uni_d.indecs
    k = g2.ctx.l.apply(s2)
    section = i_heart(g2.hctx, one_term(k, 1))
    assert heart_is_isomorphic(section, one_term(p1, 1))
    assert heart_is_isomorphic(l_heart(g2.hctx, section), one_term(k, 1))
    assert heart_is_isomorphic(l_heart_preimage(g2.hctx, one_term(k, 1)),
                               one_term(p1, 1))


def test_unit_triangle(g2):
    s2, s1, _ = g2.uni_d.indecs
    eta = heart_unit(g2.hctx, one_term(s2, 1))
    ker, _ = heart_kernel(g2.hctx.ts_d, eta)
    cok, _ = heart_cokernel(g2.hctx.ts_d, eta)
    assert heart_is_isomorphic(ker, one_term(s1))
    assert is_heart_zero(cok)
    assert s_heart_membership(g2.hctx, ker)


def test_co_counit_triangle(g2):
    # On the colocalization side heart_unit reads in the opposite
    # category: it is the counit j_heart(r(x)) -> x, which at P1[-1] is
    # the epimorphism S2[-1] -> P1[-1] of the same exact sequence.
    s2, s1, p1 = g2.uni_d.indecs
    eps = heart_unit(g2.co_hctx, one_term(p1, 1))
    assert heart_is_isomorphic(eps.source, one_term(s2, 1))
    ker, _ = heart_kernel(g2.co_hctx.ts_d, eps)
    cok, _ = heart_cokernel(g2.co_hctx.ts_d, eps)
    assert heart_is_isomorphic(ker, one_term(s1))
    assert is_heart_zero(cok)
    assert heart_unit(g2.co_hctx, one_term(s2, 1)).is_iso()


def test_counit_is_isomorphism(g2):
    for n in heart_class_reps(g2.hctx.ts_c, g2.uni_c):
        assert heart_counit(g2.hctx, n).is_iso()


@pytest.mark.parametrize("p", [2, 3], ids=["A2/F_2", "A2/F_3"])
def test_section_maps_are_functorial(p):
    # On the corner heart classes of the A2 fixture, both sections send
    # identities to identities and g . f to the composite of the images,
    # for every composable pair of basis morphisms.
    alg = path_algebra(Field(p), Quiver((1, 2), ((1, 2, "a"),)))
    g = _Setup(alg, (1,), (1,), 2, 2)
    for hctx, section, section_map in ((g.hctx, i_heart, i_heart_map),
                                       (g.co_hctx, j_heart, j_heart_map)):
        downs = heart_class_reps(hctx.ts_c, g.uni_c)
        for n in downs:
            ident = DerivedMorphism.from_chain_map(ChainMap.identity(n))
            image = DerivedMorphism.from_chain_map(
                ChainMap.identity(section(hctx, n)))
            assert section_map(hctx, ident).equals(image)
        pairs = 0
        for a in downs:
            for b in downs:
                for c in downs:
                    for f in derived_hom0(a, b).basis():
                        for h in derived_hom0(b, c).basis():
                            both = section_map(hctx, h).compose(
                                section_map(hctx, f))
                            assert section_map(hctx, h.compose(f)).equals(both)
                            pairs += 1
        assert pairs == 45


def test_kernel_membership(a2, g2):
    s2, s1, p1 = g2.uni_d.indecs
    assert s_heart_membership(g2.hctx, one_term(s1))
    assert s_heart_membership(g2.hctx, one_term(Module.zero(a2)))
    assert not s_heart_membership(g2.hctx, one_term(s2, 1))
    assert not s_heart_membership(g2.hctx, one_term(p1, 1))


def test_class_rep_counts(g2):
    assert len(heart_class_reps(g2.hctx.ts_d, g2.uni_d)) == 10
    assert len(heart_class_reps(g2.hctx.ts_c, g2.uni_c)) == 3


def test_adjunction_report(g2):
    report = verify_heart_giraud(g2.hctx, g2.uni_d, g2.uni_c)
    assert report.ok
    assert report.failures == ()


def test_co_adjunction_report(g2):
    report = verify_heart_giraud(g2.co_hctx, g2.uni_d, g2.uni_c)
    assert report.ok
    assert report.failures == ()


def _with_section(hctx, section):
    return replace(hctx, side=replace(hctx.side, section=section))


def test_stalk_check_flags_the_class_not_cut_down(g2):
    # A section that sends every corner object to a stalk of the class
    # that is cut down must be caught on each stalk of the other class:
    # the torsion stalks of the localization, the shifted free stalks of
    # the colocalization.
    s2, s1, _ = g2.uni_d.indecs
    loc = _with_section(g2.hctx, lambda hctx, n: one_term(s2, 1))
    assert _stalk_failures(loc, g2.uni_d) == [
        f"section of a collapsed torsion stalk left the torsion stalks at "
        f"{sig}" for sig in ((1,), (1, 1))]
    co = _with_section(g2.co_hctx, lambda hctx, n: one_term(s1))
    assert _stalk_failures(co, g2.uni_d) == [
        f"section of a collapsed shifted stalk left the shifted free "
        f"stalks at {sig}" for sig in ((0,), (0, 0), (2,))]
    assert _stalk_failures(g2.hctx, g2.uni_d) == []
    assert _stalk_failures(g2.co_hctx, g2.uni_d) == []


def test_reconstruction_rejects_an_incompatible_section(g2):
    # The same patched section makes the reconstruction refuse its
    # hypothesis, naming the first failing torsion stalk.
    s2 = g2.uni_d.indecs[0]
    loc = _with_section(g2.hctx, lambda hctx, n: one_term(s2, 1))
    with pytest.raises(ValueError, match=(
            r"^compatibility hypothesis fails: section of a collapsed "
            r"torsion stalk left the torsion stalks at \(1,\)$")):
        reconstruct_serre(loc, g2.uni_d, g2.uni_c)


def test_quotient_report(g2):
    report = verify_heart_quotient(g2.hctx, g2.uni_d, g2.uni_c)
    assert report.ok


def test_truncation_commutes(a2, g2):
    sample = enumerate_complexes(universe(a2, 1), -2, 1, 1, total_bound=3)
    assert len(sample) == 95
    assert dl_commutation_report(g2.hctx, sample).ok


def test_reconstruction_roundtrip(g2):
    report = reconstruct_serre(g2.hctx, g2.uni_d, g2.uni_c)
    assert report.ok
    assert report.matches_kernel
    assert report.membership == tuple(g2.ctx.in_s(m)
                                      for m in g2.uni_d.members)
    assert torsion_indec_indices(report.recovered_pair, g2.uni_c) == ()
    assert report.free_class_generates
    assert report.context_recovered


def test_exactness_runs_no_factoring_solve(a2, g2, monkeypatch):
    # Exactness in the heart asks whether a kernel dies in a cokernel;
    # no report needs to factor a morphism through a mono or solve for a
    # preimage in derived hom coordinates to decide it.
    calls = {"factor_through_mono": 0, "preimage": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(heart, "factor_through_mono",
                        counted("factor_through_mono",
                                heart.factor_through_mono))
    monkeypatch.setattr(DerivedHom, "preimage",
                        counted("preimage", DerivedHom.preimage))
    ts = g2.hctx.ts_d
    _, s1, p1 = g2.uni_d.indecs
    # 0 -> S2 -> P1 -> S1 -> 0, and the heart sequence
    # 0 -> S1 -> S2[1] -> P1[1] -> 0 of its shifted radical inclusion.
    (ses,) = [ses_from_submodule(p1, sub) for sub in enumerate_submodules(p1)
              if 0 < sub.dim < p1.dim]
    assert heart_les_ok(ts, ses)
    m = DerivedMorphism.from_chain_map(ChainMap(
        one_term(ses.sub, 1), one_term(p1, 1), {-1: ses.mono}))
    _, kappa = heart_kernel(ts, m)
    assert heart_ses_ok(ts, kappa, m)
    assert heart_is_isomorphic(kappa.source, one_term(s1))
    assert verify_heart_quotient(g2.hctx, g2.uni_d, g2.uni_c).ok
    sample = enumerate_complexes(universe(a2, 1), -1, 1, 1, total_bound=2)
    assert dl_commutation_report(g2.hctx, sample).ok
    assert reconstruct_serre(g2.hctx, g2.uni_d, g2.uni_c).ok
    assert calls == {"factor_through_mono": 0, "preimage": 0}


def test_compatible_pair_count_a3(g3):
    from quivertilt.giraud import push_pair

    pairs = enumerate_torsion_pairs(g3.uni_d)
    assert len(pairs) == 14
    descend = [torsion_indec_indices(q, g3.uni_d) for q in pairs
               if push_pair(g3.ctx, q, g3.uni_d, g3.uni_c).ok]
    assert descend == [(), (0,), (1,), (2, 4), (0, 1, 3), (1, 2, 4),
                       (2, 4, 5), (0, 2, 4, 5), (1, 2, 4, 5),
                       (0, 1, 2, 3, 4, 5)]
    co_descend = [torsion_indec_indices(q, g3.uni_d) for q in pairs
                  if push_pair(g3.co, q, g3.uni_d, g3.uni_c).ok]
    assert co_descend == descend


def test_class_rep_counts_a3(g3):
    assert len(heart_class_reps(g3.hctx.ts_d, g3.uni_d)) == 29
    assert len(heart_class_reps(g3.hctx.ts_c, g3.uni_c)) == 10


def test_verification_reports_a3(g3):
    assert verify_heart_giraud(g3.hctx, g3.uni_d, g3.uni_c).ok
    assert verify_heart_giraud(g3.co_hctx, g3.uni_d, g3.uni_c).ok
    assert verify_heart_quotient(g3.hctx, g3.uni_d, g3.uni_c).ok


def test_truncation_commutes_a3(a3, g3):
    sample = enumerate_complexes(universe(a3, 1), -2, 1, 1, total_bound=3)
    assert len(sample) == 238
    assert dl_commutation_report(g3.hctx, sample).ok


def test_reconstruction_roundtrip_a3(a3, g3):
    report = reconstruct_serre(g3.hctx, g3.uni_d, g3.uni_c)
    assert report.ok
    assert report.free_class_generates
    assert report.context_recovered

    sparse = pair_from_torsion_indecs(g3.uni_d, (0, 2, 4, 5))
    hctx = heart_giraud_context(g3.ctx, sparse, g3.uni_d, g3.uni_c)
    partial = reconstruct_serre(hctx, g3.uni_d, g3.uni_c)
    assert partial.ok
    assert not partial.free_class_generates
    assert partial.context_recovered
