"""Exhaustive enumeration oracles: indecomposables, universes, submodules.

Frozen counts: the A2 quiver has 3 indecomposables and the A3 quiver 6
(the interval modules); bounded universes have 7 and 29 members.  These
were computed by listing intervals by hand before freezing.
"""

from __future__ import annotations

import pytest
from conftest import a3_with_zero_relation

from quivertilt import enumeration
from quivertilt.enumeration import (
    enumerate_modules,
    enumerate_submodules,
    is_indecomposable,
    is_isomorphic,
    nontrivial_idempotent,
    split_summands,
    universe,
)
from quivertilt.algebras import path_algebra
from quivertilt.linalg import Field, Mat
from quivertilt.modules import (
    direct_sum,
    module_from_vertex_data,
    projective_module,
    simple_module,
)
from quivertilt.quivers import Quiver


def test_indecomposables_a2(a2):
    indecs = enumerate_modules(a2, 2)
    assert len(indecs) == 3
    assert [m.dim for m in indecs] == [1, 1, 2]
    # A2 has no indecomposable beyond dimension 2.
    assert len(enumerate_modules(a2, 3)) == 3
    s2, s1, p1 = indecs
    assert s2.vertex_dims() == (0, 1)
    assert s1.vertex_dims() == (1, 0)
    assert p1.vertex_dims() == (1, 1)
    assert is_isomorphic(p1, projective_module(a2, 0))


def test_indecomposables_a3(a3):
    indecs = enumerate_modules(a3, 3)
    assert len(indecs) == 6
    assert sorted(m.dim for m in indecs) == [1, 1, 1, 2, 2, 3]
    dimvecs = sorted(m.vertex_dims() for m in indecs)
    assert dimvecs == [(0, 0, 1), (0, 1, 0), (0, 1, 1),
                       (1, 0, 0), (1, 1, 0), (1, 1, 1)]


def test_is_isomorphic_distinguishes(a2):
    p1 = module_from_vertex_data(a2, (1, 1), {2: Mat(2, 1, 1, [1])})
    split = module_from_vertex_data(a2, (1, 1), {2: Mat(2, 1, 1, [0])})
    assert not is_isomorphic(p1, split)
    assert is_isomorphic(split, direct_sum(a2, [simple_module(a2, 0),
                                               simple_module(a2, 1)])[0])


def test_idempotent_splitting(a2):
    s1 = simple_module(a2, 0)
    p1 = projective_module(a2, 0)
    assert nontrivial_idempotent(s1) is None
    assert is_indecomposable(p1)
    whole = direct_sum(a2, [s1, p1, s1])[0]
    parts = split_summands(whole)
    assert sorted(m.dim for m in parts) == [1, 1, 2]


def test_universe_a2(a2):
    uni = universe(a2, 2)
    assert len(uni.members) == 7
    assert uni.signature(direct_sum(a2, [simple_module(a2, 0),
                                         simple_module(a2, 1)])[0]) == (0, 1)
    assert uni.signature(projective_module(a2, 0)) == (2,)


def test_universe_a3(a3):
    uni = universe(a3, 3)
    assert len(uni.members) == 29
    assert len(uni.nonzero_members()) == 28


def test_universe_lies_over_the_algebra_it_is_asked_for():
    # Equal constructions of an algebra are one object, with one universe
    # per bound whose members lie over it.  An algebra of another value
    # gets its own universe, also one that differs only in how its
    # quiver's vertices are written (1 against "1": equal path labels
    # and multiplication).
    quiver = Quiver((1, 2), ((1, 2, "a"),))
    a, b = path_algebra(Field(2), quiver), path_algebra(Field(2), quiver)
    assert a is b
    named = path_algebra(Field(2), Quiver(("1", "2"), (("1", "2", "a"),)))
    other = path_algebra(Field(3), quiver)
    assert named.labels == a.labels and named is not a and other is not a
    for alg in (a, named, other, b, a):
        uni = universe(alg, 2)
        assert uni.algebra is alg
        assert all(m.algebra is alg for m in uni.members)
        assert universe(alg, 2) is uni
    assert universe(a, 2) is universe(b, 2)
    assert len({id(universe(alg, 2)) for alg in (a, named, other)}) == 3


def test_universe_respects_relations():
    # Linear A3 with ba = 0 has the five intervals of length at most two
    # as indecomposables; the arrow blocks of the interval [1, 3] break
    # the relation and are not kept.
    uni = universe(a3_with_zero_relation(), 3)
    assert sorted(m.vertex_dims() for m in uni.indecs) == [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    assert len(uni.members) == 28
    for m in uni.members:
        m.check()


def test_universe_refuses_a_member_that_breaks_a_relation(monkeypatch):
    alg = a3_with_zero_relation()
    one = Mat(2, 1, 1, [1])
    bad = module_from_vertex_data(alg, (1, 1, 1), {3: one, 4: one})
    monkeypatch.setattr(enumeration, "enumerate_modules",
                        lambda alg, bound: [bad])
    # The algebra is one object for every test that builds it, so a
    # universe an earlier test kept on it is set aside.
    monkeypatch.setattr(alg, "_universes", {})
    with pytest.raises(ValueError, match=r"not multiplicative on \(b, a\)"):
        universe(alg, 3)


def test_submodules_of_p1(a2):
    p1 = projective_module(a2, 0)
    subs = enumerate_submodules(p1)
    assert [s.dim for s in subs] == [0, 1, 2]


def test_submodules_of_square(a2):
    s1 = simple_module(a2, 0)
    sq = direct_sum(a2, [s1, s1])[0]
    # Every subspace is stable: 0, three lines, the plane.
    assert len(enumerate_submodules(sq)) == 5


def test_submodules_of_a3_projective(a3):
    p1 = projective_module(a3, 0)
    subs = enumerate_submodules(p1)
    # The uniserial chain 0 < S3 < P2 < P1.
    assert [s.dim for s in subs] == [0, 1, 2, 3]
