"""The library's plain classes: which compare by value and which by
identity.

A class whose instances are compared or used as dict keys (arrows,
paths, corners, class specs, torsion pairs, induced t-structures,
pair reports) compares and hashes by the tuple of its fields through
`values.Value`, with the hash a dataclass would give, so set and dict
orders do not depend on how the class is written.  Every other class
compares by identity.  Every class but `HeartGiraudContext`, whose
cached properties need an instance dict, has `__slots__`.
"""

from __future__ import annotations

import pytest

from quivertilt import (algebras, cli, complexes, derived, enumeration,
                        giraud, heart, modules, quivers, tiltbridge, torsion)
from quivertilt.algebras import corner_algebra
from quivertilt.enumeration import ModuleUniverse, universe
from quivertilt.giraud import (BijectionReport, co_giraud_context,
                               giraud_context)
from quivertilt.heart import InducedTStructure
from quivertilt.modules import projective_module, simple_module
from quivertilt.quivers import Quiver
from quivertilt.tiltbridge import HeartGiraudContext
from quivertilt.torsion import ClassSpec, PairReport, TorsionPair

SLOTTED = [
    quivers.Arrow, quivers.Path, algebras.Bimodule, algebras.CornerData,
    modules.ShortExactSeq, modules.Ext1, complexes.CohomologyData,
    derived.DerivedHom, enumeration.ModuleUniverse, torsion.ClassSpec,
    torsion.TorsionPair, torsion.PairReport, giraud.GiraudContext,
    giraud.CoGiraudContext, giraud.PushResult, giraud.BijectionReport,
    heart.InducedTStructure, heart.LowerH0, tiltbridge.ReconstructionReport,
    cli.Environment,
]


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda c: c.__name__)
def test_plain_classes_have_slots(cls):
    assert "__slots__" in vars(cls)
    assert "__dict__" not in vars(cls)


def _pair(torsion_gens, free_gens) -> TorsionPair:
    return TorsionPair(ClassSpec(tuple(torsion_gens), "torsion"),
                       ClassSpec(tuple(free_gens), "free"))


def _equal_but_distinct(make):
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    return x


def test_equal_but_distinct_values_compare_and_hash_alike(a2):
    s1, s2 = simple_module(a2, 0), simple_module(a2, 1)

    def quiver():
        return Quiver((1, 2), ((1, 2, "a"),))

    arrow = _equal_but_distinct(lambda: quiver().arrows[0])
    assert arrow != quivers.Arrow("b", 1, 2)
    assert arrow != ("a", 1, 2)
    path = _equal_but_distinct(lambda: quiver().all_paths()[-1])
    assert path != quivers.Path((), 1, 1)
    spec = _equal_but_distinct(lambda: ClassSpec((s1,), "torsion"))
    assert spec != ClassSpec((s1,), "free")
    assert spec != ClassSpec((s2,), "torsion")
    pair = _equal_but_distinct(lambda: _pair([s1], [s2]))
    assert pair != _pair([s2], [s1])
    ts = _equal_but_distinct(lambda: InducedTStructure(_pair([s1], [s2])))
    assert ts != InducedTStructure(_pair([s2], [s1]))
    _equal_but_distinct(lambda: corner_algebra(a2, (1,)))
    assert corner_algebra(a2, (1,)) != corner_algebra(a2, (0,))
    report = _equal_but_distinct(lambda: PairReport(False, ("x",)))
    assert report != PairReport(False, ("y",))
    # Equal values are one dict key.
    assert len({pair: 0, _pair([s1], [s2]): 1}) == 1


def test_value_hashes_are_those_of_the_field_tuples(a2):
    # The hash a frozen dataclass gives, so set and dict orders stay.
    s1, s2 = simple_module(a2, 0), simple_module(a2, 1)
    pair = _pair([s1], [s2])
    assert hash(pair.torsion) == hash(((s1,), "torsion"))
    assert hash(pair) == hash((pair.torsion, pair.free))
    assert hash(InducedTStructure(pair)) == hash((pair,))
    arrow = quivers.Arrow("a", 1, 2)
    assert hash(arrow) == hash(("a", 1, 2))
    assert hash(quivers.Path((0,), 1, 2)) == hash(((0,), 1, 2))
    assert hash(PairReport(True, ())) == hash((True, ()))


def test_contexts_and_universes_compare_by_identity(a2):
    cd = corner_algebra(a2, (1,))
    for make in (lambda: giraud_context(cd), lambda: co_giraud_context(cd),
                 lambda: ModuleUniverse.build(a2, 2)):
        x, y = make(), make()
        assert x == x and x != y
        assert len({x: 0, y: 1}) == 2
    assert universe(a2, 2) == universe(a2, 2)
    ctx = giraud_context(cd)
    s1, s2 = simple_module(a2, 0), simple_module(a2, 1)
    pair = _pair([s2], [s1])
    assert HeartGiraudContext(ctx, pair, pair) \
        != HeartGiraudContext(ctx, pair, pair)


def test_class_spec_rejects_an_unknown_polarity(a2):
    with pytest.raises(ValueError, match=r"^unknown polarity 'bogus'$"):
        ClassSpec((projective_module(a2, 0),), "bogus")


def test_reports_print_as_the_benchmark_notes_read_them():
    # The benchmark's gates quote a failing report's repr in their notes.
    assert repr(PairReport(False, ("x",))) \
        == "PairReport(ok=False, failures=('x',))"
    assert repr(BijectionReport(True, 5, 2, (((0,), (1,)),), ((0, 1),), ())) \
        == ("BijectionReport(ok=True, parent_pairs=5, corner_pairs=2, "
            "compatible=(((0,), (1,)),), matching=((0, 1),), failures=())")
