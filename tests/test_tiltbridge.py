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

import pytest

from quivertilt.algebras import corner_algebra
from quivertilt.complexes import enumerate_complexes
from quivertilt.enumeration import universe
from quivertilt.giraud import co_giraud_context, giraud_context
from quivertilt.heart import (
    heart_cokernel,
    heart_is_isomorphic,
    heart_kernel,
    is_heart_zero,
    one_term,
)
from quivertilt.modules import Module
from quivertilt.tiltbridge import (
    dl_commutation_report,
    heart_class_reps,
    heart_counit,
    heart_giraud_context,
    heart_unit,
    i_heart,
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
