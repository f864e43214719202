"""Complexes, cones, cohomology, and complex enumeration."""

from __future__ import annotations

import gc

import pytest
from conftest import returned_fresh

from quivertilt.complexes import (
    ChainMap,
    Complex,
    apply_functor,
    cohomology,
    cohomology_map,
    cone,
    enumerate_complexes,
    is_exact_complex,
    is_quasi_iso,
)
from quivertilt.algebras import corner_algebra, path_algebra
from quivertilt.enumeration import ModuleUniverse, universe
from quivertilt.giraud import giraud_context
from quivertilt.linalg import Field
from quivertilt.modules import (
    Module,
    ModuleMap,
    projective_module,
    simple_module,
    syzygy,
)
from quivertilt.quivers import Quiver


@pytest.fixture()
def a2_objects(a2):
    """S1 with its projective cover P1 and radical inclusion."""
    s1 = simple_module(a2, 0)
    p1 = projective_module(a2, 0)
    omega, incl, cover = syzygy(s1)
    assert omega == simple_module(a2, 1)
    return s1, omega, p1, incl, cover


def test_trim_and_zero(a2):
    s1 = simple_module(a2, 0)
    z = Module.zero(a2)
    c = Complex(a2, -2, [z, s1, z],
                [ModuleMap.zero(z, s1), ModuleMap.zero(s1, z)])
    assert c.lo == -1 and c.hi == -1
    assert c == Complex.from_module(s1, degree=-1)
    assert Complex.zero(a2).is_zero()
    assert c.component(5).dim == 0


def test_hash_tells_lo_minus_one_from_minus_two(a2):
    # CPython gives -1 and -2 the same hash; complexes that differ only
    # in lo must still hash apart, or cache lookups compare them in full.
    s1 = simple_module(a2, 0)
    one, two = Complex.from_module(s1, -1), Complex.from_module(s1, -2)
    assert hash(-1) == hash(-2)
    assert one != two and hash(one) != hash(two)
    assert hash(one) == hash(Complex.from_module(s1, -1))


def test_shift_signs(a2, a2_objects):
    _, s2, p1, incl, _ = a2_objects
    c = Complex(a2, -1, [s2, p1], [incl])
    assert c.shift(1).lo == -2
    assert c.shift(1).diffs[0].mat == incl.mat.scale(-1)
    assert c.shift(2).diffs[0].mat == incl.mat
    assert c.shift(1).shift(-1) == c
    assert cohomology(c.shift(1), -1) == cohomology(c, 0)


def test_square_zero_enforced(a2):
    s1 = simple_module(a2, 0)
    one = ModuleMap.identity(s1)
    c = Complex(a2, 0, [s1, s1, s1], [one, one])
    with pytest.raises(ValueError):
        c.check()


def test_chain_map_square_enforced(a2, a2_objects):
    _, s2, p1, incl, _ = a2_objects
    x = Complex(a2, 0, [s2, p1], [incl])
    bad = ChainMap(x, x, {0: ModuleMap.identity(s2),
                          1: ModuleMap.zero(p1, p1)})
    with pytest.raises(ValueError, match="does not commute"):
        bad.check()
    ident = ChainMap.identity(x)
    assert not ident.is_zero()
    assert ident.compose(ident) == ident


def test_cone_of_inclusion(a2, a2_objects):
    s1, s2, p1, incl, _ = a2_objects
    f = ChainMap(Complex.from_module(s2), Complex.from_module(p1), {0: incl})
    cn, into, onto = cone(f)
    assert cn.lo == -1 and cn.hi == 0
    assert cn.component(-1) == s2 and cn.component(0) == p1
    assert cohomology(cn, -1).dim == 0
    assert cohomology(cn, 0) == s1
    assert into.source == f.target
    assert onto.target.component(-1) == s2


def test_cone_of_zero_map(a2, a2_objects):
    _, s2, p1, _, _ = a2_objects
    f = ChainMap(Complex.from_module(s2), Complex.from_module(p1),
                 {0: ModuleMap.zero(s2, p1)})
    cn, _, _ = cone(f)
    assert cohomology(cn, -1) == s2
    assert cohomology(cn, 0) == p1


def test_cohomology_of_resolution(a2, a2_objects):
    _, s2, p1, incl, _ = a2_objects
    c = Complex(a2, -1, [s2, p1], [incl])
    assert cohomology(c, -1).dim == 0
    assert cohomology(c, 0).vertex_dims() == (1, 0)


def test_quasi_iso_detection(a2, a2_objects):
    s1, s2, p1, incl, cover = a2_objects
    c = Complex(a2, -1, [s2, p1], [incl])
    f = ChainMap(c, Complex.from_module(s1), {0: cover})
    assert is_quasi_iso(f)
    assert cohomology_map(f, 0).is_iso()
    zero_map = ChainMap.zero(Complex.from_module(s1), Complex.from_module(s1))
    assert not is_quasi_iso(zero_map)


def test_exactness(a2, a2_objects):
    s1, s2, p1, incl, cover = a2_objects
    assert is_exact_complex(Complex(a2, 0, [s2, p1, s1], [incl, cover]))
    assert not is_exact_complex(Complex(a2, 0, [s2, p1], [incl]))


def test_apply_functor_levelwise(a2, a2_objects):
    s1, s2, p1, incl, cover = a2_objects
    ctx = giraud_context(corner_algebra(a2, (1,)))
    c = Complex(a2, 0, [s2, p1, s1], [incl, cover])
    lc = apply_functor(ctx.l, c)
    assert lc.lo == 0 and lc.hi == 1
    assert [m.dim for m in lc.components] == [1, 1]
    assert is_exact_complex(lc)


def test_enumerate_two_term(a2):
    uni = universe(a2, 1)
    found = enumerate_complexes(uni, 0, 1, comp_bound=1)
    assert len(found) == 11
    for c in found:
        c.check()
    # One zero complex, four one-term complexes, six genuine two-term
    # choices (each simple has a two-element endomorphism ring here).
    assert sum(1 for c in found if c.is_zero()) == 1
    assert sum(1 for c in found if len(c.components) == 1) == 4
    assert sum(1 for c in found if len(c.components) == 2) == 6


def test_enumerate_respects_bounds(a2):
    uni = universe(a2, 2)
    found = enumerate_complexes(uni, 0, 2, comp_bound=2, total_bound=3)
    assert all(c.total_dim() <= 3 for c in found)
    for c in found:
        c.check()
    assert len(set(found)) == len(found)


def _pool_left_behind() -> dict:
    """With the cyclic collector off, the size of a pool of A2/F_2
    complexes (degrees -2 to 1, components of dimension at most 2, total
    dimension at most 4) and how many of its complexes are still
    interned once the pool is dropped."""
    alg = path_algebra(Field(2), Quiver((1, 2), ((1, 2, "a"),)))
    uni = universe(alg, 2)
    gc.disable()
    pool = enumerate_complexes(uni, -2, 1, 2, total_bound=4)
    values = [c._value() for c in pool]
    del pool
    return {"pool": len(values),
            "left": sum(v in Complex._interned for v in values)}


def test_enumeration_keeps_no_complex_alive():
    # The enumeration holds its complexes in no reference cycle, so the
    # last reference to the pool frees them by reference counting alone.
    assert returned_fresh(__file__, "_pool_left_behind") == {
        "pool": 1037, "left": 0}


def _universe_left_behind() -> dict:
    """With the cyclic collector off, the members of a universe of
    A3/F_2 at bound 3 built afresh, how many of them are still interned
    once it is dropped, how many objects the collector then finds
    unreachable, and how many members are interned after it ran."""
    alg = path_algebra(Field(2), Quiver((1, 2, 3), ((1, 2), (2, 3))))
    gc.collect()
    gc.disable()
    uni = ModuleUniverse.build(alg, 3)
    values = [m._value() for m in uni.members]
    del uni
    left = sum(v in Module._interned for v in values)
    garbage = gc.collect()
    return {"members": len(values), "left": left, "garbage": garbage,
            "collected": sum(v in Module._interned for v in values)}


def test_universe_build_keeps_no_member_alive():
    # Building a universe (its sums, and the arrow factorizations of the
    # algebra) makes no reference cycle: dropping it frees by reference
    # counting alone what the cyclic collector would free.  The members
    # still interned are those the module-level caches hold.
    got = returned_fresh(__file__, "_universe_left_behind")
    assert got["members"] == 29 and got["garbage"] == 0
    assert got["left"] == got["collected"] < 29
