"""Torsion pairs: radicals, axioms, exhaustive pair enumeration.

Frozen counts: the A2 fixture carries exactly 5 torsion pairs at bound
2 and the A3 fixture exactly 14 at bound 3; both counts follow the
Catalan pattern for linearly oriented type-A quivers and were confirmed
by the exhaustive subset scan before freezing.  Larger fixtures are
checked against theorem counts instead: Gabriel's positive roots for
the indecomposables and the Coxeter-Catalan numbers of torsion classes.
"""

from __future__ import annotations

import pytest

from quivertilt.algebras import corner_algebra, path_algebra
from quivertilt.enumeration import universe
from quivertilt.linalg import Field, Subspace
from quivertilt.modules import (
    direct_sum,
    hom_dim,
    projective_module,
    simple_module,
)
from quivertilt.quivers import Quiver
from quivertilt.torsion import (
    ClassSpec,
    TorsionPair,
    enumerate_torsion_pairs,
    free_indec_indices,
    is_torsion_pair,
    pair_from_torsion_indecs,
    reject_subspace,
    self_test,
    torsion_indec_indices,
    trace_subspace,
)


def std_pair(a2):
    """(add S1, add {S2, P1}) on the A2 fixture."""
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    return TorsionPair(ClassSpec((s1,), "torsion"),
                       ClassSpec((s2, p1), "free"))


def test_trace_examples(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    # S1 is not a submodule quotient chain inside P1, so its trace is 0.
    assert trace_subspace((s1,), p1).dim == 0
    # The trace of S2 in P1 is the one-dimensional socle.
    assert trace_subspace((s2,), p1).dim == 1
    # Iteration matters: the trace of {S1, S2} exhausts P1 in two steps.
    assert trace_subspace((s1, s2), p1).dim == 2
    both = direct_sum(a2, [s1, s2])[0]
    assert trace_subspace((s1,), both).dim == 1


def test_reject_examples(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    # No maps from P1 to S2, so nothing is rejected away.
    assert reject_subspace((s2,), p1).dim == 2
    assert reject_subspace((s2, p1), p1).dim == 0
    assert reject_subspace((s1,), s2).dim == 1
    # Iteration matters dually: {S1, S2} corejects P1 in two steps.
    assert reject_subspace((s1, s2), p1).dim == 0


def test_membership_std_pair(a2):
    pair = std_pair(a2)
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    assert pair.in_torsion(s1) and not pair.in_torsion(s2)
    assert not pair.in_torsion(p1)
    assert pair.in_free(s2) and pair.in_free(p1)
    assert not pair.in_free(s1)
    mixed = direct_sum(a2, [s2, p1])[0]
    assert pair.in_free(mixed)


def test_decompose_std_pair(a2):
    pair = std_pair(a2)
    s1 = simple_module(a2, 0)
    p1 = projective_module(a2, 0)
    whole = direct_sum(a2, [s1, p1])[0]
    ses = pair.decompose(whole)
    assert ses.sub.dim == 1 and ses.quot.dim == 2
    assert pair.in_torsion(ses.sub)
    assert pair.in_free(ses.quot)
    # P1 is torsion-free for the standard pair, so its trace vanishes.
    assert pair.torsion_subspace(p1).dim == 0


def test_axiom_report_valid(a2):
    uni = universe(a2, 2)
    report = is_torsion_pair(std_pair(a2), uni)
    assert report.ok
    assert report.failures == ()


def test_axiom_report_invalid(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    # add S2 is not the full hom-perp of add S1 (P1 is missing).
    bad = TorsionPair(ClassSpec((s1,), "torsion"), ClassSpec((s2,), "free"))
    report = is_torsion_pair(bad, universe(a2, 2))
    assert not report.ok
    assert any("maximality" in f for f in report.failures)


def test_axiom_report_flags_broken_decomposition(a2, monkeypatch):
    # A trace that finds nothing leaves each torsion module as its own
    # trace quotient, which is not torsion-free.
    monkeypatch.setattr(TorsionPair, "torsion_subspace",
                        lambda self, m: Subspace.zero(m.algebra.field.p, m.dim))
    report = is_torsion_pair(std_pair(a2), universe(a2, 2))
    assert "decomposition: trace quotient of (1,) not free" in report.failures


def test_enumerate_pairs_a2(a2):
    uni = universe(a2, 2)
    pairs = enumerate_torsion_pairs(uni)
    assert len(pairs) == 5
    shape = [(torsion_indec_indices(pr, uni), free_indec_indices(pr, uni))
             for pr in pairs]
    # Indecomposables sort as [S2, S1, P1].
    assert shape == [
        ((), (0, 1, 2)),
        ((0,), (1,)),
        ((1,), (0, 2)),
        ((1, 2), (0,)),
        ((0, 1, 2), ()),
    ]


def test_enumerate_pairs_a3(a3):
    uni = universe(a3, 3)
    pairs = enumerate_torsion_pairs(uni)
    assert len(pairs) == 14
    for pr in pairs:
        t_idx = torsion_indec_indices(pr, uni)
        f_idx = free_indec_indices(pr, uni)
        for i in t_idx:
            for j in f_idx:
                assert hom_dim(uni.indecs[i], uni.indecs[j]) == 0


def test_pair_from_indices_roundtrip(a2):
    uni = universe(a2, 2)
    pair = pair_from_torsion_indecs(uni, (1,))
    assert torsion_indec_indices(pair, uni) == (1,)
    assert free_indec_indices(pair, uni) == (0, 2)
    report = is_torsion_pair(pair, uni)
    assert report.ok


def _key_shape(uni):
    return [(torsion_indec_indices(pr, uni), free_indec_indices(pr, uni))
            for pr in enumerate_torsion_pairs(uni)]


def test_enumerated_pair_keys_a3_and_corner(a3):
    # Recorded from the enumeration that still ran the closure sweeps
    # inside the decision; deciding by definition must keep every pair
    # and its place in the order.
    uni = universe(a3, 3)
    assert _key_shape(uni) == [
        ((), (0, 1, 2, 3, 4, 5)),
        ((0,), (1, 2, 4)),
        ((1,), (0, 2, 3, 5)),
        ((2,), (0, 1, 3, 4, 5)),
        ((0, 2), (1, 4)),
        ((1, 3), (0, 2)),
        ((2, 4), (0, 1, 3, 5)),
        ((0, 1, 3), (2,)),
        ((1, 2, 4), (0, 3, 5)),
        ((2, 4, 5), (0, 1, 3)),
        ((0, 2, 4, 5), (1,)),
        ((1, 2, 4, 5), (0, 3)),
        ((1, 2, 3, 4, 5), (0,)),
        ((0, 1, 2, 3, 4, 5), ()),
    ]
    corner = universe(corner_algebra(a3, (0, 2)).sub, 2)
    assert _key_shape(corner) == [
        ((), (0, 1, 2)),
        ((0,), (1,)),
        ((1,), (0, 2)),
        ((1, 2), (0,)),
        ((0, 1, 2), ()),
    ]


_SELF_TEST_UNIVERSES = {
    "A2/F_2 bound 2": lambda a2, a3: universe(a2, 2),
    "A2/F_2 bound 3": lambda a2, a3: universe(a2, 3),
    "A3/F_2 bound 3": lambda a2, a3: universe(a3, 3),
    "A3 corner {1,3} bound 2":
        lambda a2, a3: universe(corner_algebra(a3, (0, 2)).sub, 2),
}


@pytest.mark.parametrize("name", list(_SELF_TEST_UNIVERSES))
def test_self_test_every_enumerated_pair(name, a2, a3):
    uni = _SELF_TEST_UNIVERSES[name](a2, a3)
    pairs = enumerate_torsion_pairs(uni)
    assert pairs
    for pair in pairs:
        report = self_test(pair, uni)
        assert report.ok, report.failures


def test_self_test_reports_broken_closure(a2, monkeypatch):
    # Torsion membership that holds only on the universe's own module
    # objects fails on every quotient built with a new basis, which the
    # closure sweeps must report.
    uni = universe(a2, 2)
    pair = std_pair(a2)
    own = {id(m) for m in uni.members}
    honest = TorsionPair.in_torsion

    def in_torsion(self, m):
        return honest(self, m) and (m.dim == 0 or id(m) in own)

    monkeypatch.setattr(TorsionPair, "in_torsion", in_torsion)
    report = self_test(pair, uni)
    assert not report.ok
    assert "torsion class not closed under quotients at (1, 1)" in report.failures


_COXETER_CATALAN = {
    # p, quiver, bound, positive roots, torsion classes
    "A3/F_3 bound 3": (3, Quiver((1, 2, 3), ((1, 2, "a"), (2, 3, "b"))), 3,
                       6, 14),
    "A3 1->2<-3/F_2 bound 3": (2, Quiver((1, 2, 3), ((1, 2, "a"), (3, 2, "b"))),
                               3, 6, 14),
    "A4/F_2 bound 4": (2, Quiver((1, 2, 3, 4),
                                 ((1, 2, "a"), (2, 3, "b"), (3, 4, "c"))),
                       4, 10, 42),
}


@pytest.mark.parametrize("name", list(_COXETER_CATALAN))
def test_pair_count_is_coxeter_catalan(name):
    # Gabriel: the indecomposables of a Dynkin quiver of type A_n are the
    # n(n+1)/2 positive roots, whatever the field and orientation.
    # Ingalls-Thomas: its torsion classes are counted by the
    # Coxeter-Catalan number, 14 for A3 and 42 for A4.
    p, quiver, bound, roots, classes = _COXETER_CATALAN[name]
    uni = universe(path_algebra(Field(p), quiver), bound)
    assert len(uni.indecs) == roots
    assert len(enumerate_torsion_pairs(uni)) == classes
