"""Module-category core: algebras, modules, exact constructions, Ext.

Expected dimensions for the A2 and A3 fixtures were computed by hand
from the path bases and frozen here.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from conftest import arrow_blocks, injective_module, kron, returned_fresh
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertilt.algebras import (
    Algebra,
    Bimodule,
    corner_algebra,
    opposite_algebra,
    path_algebra,
)
from quivertilt.complexes import Complex
from quivertilt.derived import (
    _check_hereditary,
    dual_complex,
    projective_resolution,
)
from quivertilt.enumeration import is_isomorphic, universe
from quivertilt.linalg import (
    Field,
    Mat,
    Subspace,
    image_basis,
    kernel_basis,
)
from quivertilt.modules import (
    Module,
    ModuleMap,
    cokernel,
    direct_sum,
    dual_module,
    ext1_basis,
    extension_realize,
    fiber_product,
    hom_basis,
    hom_dim,
    hom_space,
    image,
    is_projective,
    kernel,
    lift_through,
    module_from_vertex_data,
    presentation_arrows,
    projective_cover,
    projective_module,
    quotient_by_subspace,
    ses_from_submodule,
    simple_module,
    submodule_from_subspace,
    syzygy,
)
from quivertilt.quivers import Quiver


def test_path_basis_a2(a2):
    assert a2.labels == ("e_1", "e_2", "a")
    assert a2.idem == (0, 1)
    assert a2.radical == (2,)
    # a * e_1 = a = e_2 * a, and a * a is not composable.
    assert a2.mul_vecs((0, 0, 1), (1, 0, 0)) == (0, 0, 1)
    assert a2.mul_vecs((0, 1, 0), (0, 0, 1)) == (0, 0, 1)
    assert a2.mul_vecs((0, 0, 1), (0, 0, 1)) == (0, 0, 0)


def test_path_basis_a3(a3):
    assert a3.dim == 6
    assert "b*a" in a3.labels
    ia = a3.labels.index("a")
    ib = a3.labels.index("b")
    iba = a3.labels.index("b*a")
    prod = a3.mul_vecs(a3.basis_vec(ib), a3.basis_vec(ia))
    assert prod == a3.basis_vec(iba)
    assert a3.mul_vecs(a3.basis_vec(ia), a3.basis_vec(ib)) == (0,) * 6


def test_cyclic_quiver_rejected():
    with pytest.raises(ValueError):
        Quiver((1, 2), ((1, 2), (2, 1)))


def test_opposite_algebra(a2):
    op = opposite_algebra(a2)
    op.check()
    # In the opposite algebra the arrow composes with e_1 on the left.
    assert op.mul_vecs((1, 0, 0), (0, 0, 1)) == (0, 0, 1)
    assert opposite_algebra(op) == a2


def test_equal_constructions_are_one_object(a2):
    # Hash-consing: building a value again returns its live object, so
    # equality is identity, with equal hashes; values that differ stay
    # apart, and so do classes and quivers as written.
    twin = path_algebra(Field(2), Quiver((1, 2), ((1, 2, "a"),)))
    assert twin is a2 and twin == a2 and hash(twin) == hash(a2)
    p1 = projective_module(a2, 0)
    copy = Module(twin, p1.dim,
                  [Mat(m.p, m.rows, m.cols, list(m.data)) for m in p1.action])
    assert copy is p1 and copy == p1 and hash(copy) == hash(p1)
    assert copy != simple_module(twin, 0) and twin != opposite_algebra(a2)
    bent = Module(a2, p1.dim, [m.scale(0) if k == 2 else m
                               for k, m in enumerate(p1.action)])
    assert bent is not p1 and bent != p1
    c = Complex.from_module(p1, 1)
    assert Complex(twin, 1, [copy], []) is c
    assert c.shift(2).shift(-2) is c and c.shift(1) is not c
    plain = Algebra(a2.field, a2.labels, a2.mult, a2.unit, a2.idem,
                    a2.radical)
    assert type(plain) is Algebra and plain is not a2
    assert Algebra(a2.field, a2.labels, a2.mult, a2.unit, a2.idem,
                   a2.radical) is plain
    named = path_algebra(Field(2), Quiver(("1", "2"), (("1", "2", "a"),)))
    assert named.labels == a2.labels and named.mult == a2.mult
    assert named is not a2 and named.quiver.vertices == ("1", "2")


def _identity_checks() -> dict[str, bool]:
    """The hash-consing contract as named verdicts, computed without
    assert so that python -O reads the same ones: equal constructions
    return one object, and a canonical object keeps the state it
    computed lazily across a second equal construction."""
    quiver = Quiver((1, 2), ((1, 2, "a"),))
    a2 = path_algebra(Field(2), quiver)
    uni = universe(a2, 2)
    op = opposite_algebra(a2)
    euler = _check_hereditary(a2)
    p1 = projective_module(a2, 0)
    dims = p1.vertex_dims()
    d1 = dual_module(p1)
    c = Complex.from_module(p1, 1)
    dc = dual_complex(c)
    twin = path_algebra(Field(2), Quiver((1, 2), ((1, 2, "a"),)))
    copy = Module(twin, p1.dim,
                  [Mat(m.p, m.rows, m.cols, list(m.data)) for m in p1.action])
    c2 = Complex(twin, 1, [copy], [])
    return {
        "algebra": twin is a2 and twin == a2,
        "module": copy is p1 and copy == p1,
        "complex": c2 is c and c2 == c,
        "universe kept": twin._universes.get(2) is uni
                         and universe(twin, 2) is uni,
        "opposite kept": twin._opposite is op and op._opposite is a2,
        "euler form kept": twin._euler_form is euler,
        "zero module kept": Module(twin, 0, [Mat.zeros(2, 0, 0)] * 3)
                            is Module.zero(a2),
        "module dual kept": copy._dual is d1 and d1._dual is p1
                            and dual_module(copy) is d1,
        "vertex dims kept": copy._vertex_dims is dims,
        "complex dual kept": c2._dual is dc and dual_complex(dc) is c,
        "values stay apart": simple_module(twin, 0) is not copy
                             and op is not a2 and dc is not c,
    }


def test_equal_constructions_keep_their_lazy_state():
    checks = _identity_checks()
    assert checks and all(checks.values()), checks


def test_equal_constructions_are_one_object_without_asserts():
    checks = returned_fresh(__file__, "_identity_checks", "-O")
    assert checks == dict.fromkeys(_identity_checks(), True)


def test_intern_tables_keep_nothing_alive(a2):
    # An object that nothing else holds leaves its table, and building
    # its value again makes a new one; a malformed value never enters.
    # Every basis element acting as the identity passes the shape checks
    # but is no module, so no other test holds this value.
    def build():
        return Module(a2, 3, [Mat.identity(2, 3)] * 3)

    value = build()._value()
    gc.collect()
    assert value not in Module._interned
    held = build()
    assert Module._interned[value] is held
    gone = weakref.ref(held)
    del held
    gc.collect()
    assert gone() is None and value not in Module._interned
    size = len(Module._interned)
    with pytest.raises(ValueError, match="one action matrix"):
        Module(a2, 3, [Mat.identity(2, 3)])
    with pytest.raises(ValueError, match="wrong shape"):
        Module(a2, 3, [Mat.identity(2, 2)] * 3)
    assert len(Module._interned) == size


def test_parts_table_keeps_nothing_alive(a2):
    # The full submodule and the quotient by zero are the module itself,
    # and a proper part is a smaller module; none of the entries refers
    # back to the module, so with the cyclic collector off it still
    # leaves its intern table when the last reference goes.  Every basis
    # element acting as the identity on F_2^4 passes the shape checks,
    # every subspace is stable under it, and no other test holds it.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        m = Module(a2, 4, [Mat.identity(2, 4)] * a2.dim)
        value = m._value()
        full, incl = submodule_from_subspace(m, Subspace.full(2, 4))
        top, proj = quotient_by_subspace(m, Subspace.zero(2, 4))
        assert full is m and top is m
        line = Subspace(2, 4, [(1, 1, 0, 0)])
        sub, part = submodule_from_subspace(m, line)
        assert sub.dim == 1 and len(m._parts) == 3
        gone = weakref.ref(m)
        del m, full, incl, top, proj, part
        assert gone() is None and value not in Module._interned
        # The proper part outlives its parent and is unharmed.
        assert submodule_from_subspace(sub, Subspace.full(2, 1))[0] is sub
    finally:
        if enabled:
            gc.enable()


_PART_ALGEBRAS = {
    "A2/F_3": path_algebra(Field(3), Quiver((1, 2), ((1, 2, "a"),))),
    "A3/F_2": path_algebra(Field(2), Quiver((1, 2, 3),
                                            ((1, 2, "a"), (2, 3, "b")))),
}


@st.composite
def _member_and_vectors(draw):
    """A nonzero member of the bound-3 universe of A2/F_3 or A3/F_2,
    with up to three vectors of it."""
    alg = _PART_ALGEBRAS[draw(st.sampled_from(sorted(_PART_ALGEBRAS)))]
    m = draw(st.sampled_from(universe(alg, 3).nonzero_members()))
    entry = st.integers(0, alg.field.p - 1)
    vecs = draw(st.lists(st.tuples(*[entry] * m.dim), max_size=3))
    return m, vecs


def _fresh_submodule(m: Module, s: Subspace) -> tuple[Module, Mat]:
    """The submodule on s, acting on coordinates in the echelon basis of
    s, with its inclusion."""
    p = m.algebra.field.p
    rows = s.basis.row_list()
    action = [Mat.from_cols(p, [s.coords(a.apply(v)) for v in rows], s.dim)
              for a in m.action]
    return Module(m.algebra, s.dim, action), Mat.from_cols(p, rows, m.dim)


def _fresh_quotient(m: Module, s: Subspace) -> tuple[Module, Mat]:
    """The quotient by s, with coordinates the entries of the normal form
    modulo s at the columns where s has no pivot, and its projection."""
    p = m.algebra.field.p
    free = [j for j in range(m.dim) if j not in s.pivots]

    def coords(v):
        reduced = s.reduce(v)
        return tuple(reduced[j] for j in free)

    units = Mat.identity(p, m.dim).row_list()
    action = [Mat.from_cols(p, [coords(a.apply(units[j])) for j in free],
                            len(free))
              for a in m.action]
    proj = Mat.from_cols(p, [coords(u) for u in units], len(free))
    return Module(m.algebra, len(free), action), proj


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_member_and_vectors())
def test_parts_table_matches_a_fresh_construction(case):
    # The submodule generated by the vectors, and the quotient by it,
    # come out of the module's table as a construction written here
    # would build them; an equal but distinct subspace finds the same
    # entry.  The plain span, when it is not stable, raises on every
    # call and never enters the table.
    m, vecs = case
    p = m.algebra.field.p
    gen = Subspace(p, m.dim, [a.apply(v) for v in vecs for a in m.action])
    twin = Subspace(p, m.dim, gen.basis.row_list())
    assert twin == gen and twin is not gen
    for build, fresh in ((submodule_from_subspace, _fresh_submodule),
                         (quotient_by_subspace, _fresh_quotient)):
        part, f = build(m, gen)
        size = len(m._parts)
        again, g = build(m, twin)
        assert len(m._parts) == size
        assert again is part and g.mat is f.mat
        want, mat = fresh(m, gen)
        assert part is want and f.mat == mat
    plain = Subspace(p, m.dim, vecs)
    if all(plain.contains(a.apply(v))
           for v in plain.basis.row_list() for a in m.action):
        return
    for build, message in ((submodule_from_subspace, "not action-stable"),
                           (quotient_by_subspace, "does not intertwine")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                build(m, plain)
    assert all(s != plain for _, s in m._parts)


def test_zero_module_is_shared_per_algebra(a2):
    # One zero module per algebra: Module.zero and every equal
    # construction return it, and complexes hand it out for every
    # degree outside their support.
    zero = Module.zero(a2)
    assert Module.zero(a2) is zero
    assert Module(a2, 0, [Mat.zeros(2, 0, 0)] * a2.dim) is zero
    c = Complex.from_module(projective_module(a2, 0))
    assert c.component(3) is zero and c.diff(3).source is zero
    twin = path_algebra(Field(2), Quiver((1, 2), ((1, 2, "a"),)))
    assert Module.zero(twin) is zero
    op = opposite_algebra(a2)
    assert Module.zero(op) is not zero
    assert dual_module(zero) is Module.zero(op)
    assert dual_module(Module.zero(op)) is zero

def test_module_front_end_roundtrip(a2):
    arrow = presentation_arrows(a2)
    assert arrow == (2,)
    p1 = module_from_vertex_data(a2, (1, 1), {2: Mat(2, 1, 1, [1])})
    assert p1.vertex_dims() == (1, 1)
    dims, blocks = arrow_blocks(p1)
    assert dims == (1, 1)
    assert blocks[2] == Mat(2, 1, 1, [1])


def test_invalid_module_rejected(a2):
    bad = [Mat.zeros(2, 1, 1)] * 3
    m = Module(a2, 1, bad)
    with pytest.raises(ValueError, match="unit does not act"):
        m.check()


def test_non_intertwining_map_rejected(a2):
    # The shape fits, but the map S2 -> P1 onto the top of P1 does not
    # commute with the arrow.
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    f = ModuleMap(s2, p1, Mat(2, 2, 1, [1, 0]))
    with pytest.raises(ValueError, match="does not intertwine"):
        f.check()
    with pytest.raises(ValueError, match="matrix shape"):
        ModuleMap(s2, p1, Mat(2, 1, 1, [1]))


def test_projectives_and_injectives_a2(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    p2 = projective_module(a2, 1)
    assert p1.dim == 2 and p1.vertex_dims() == (1, 1)
    assert is_isomorphic(p2, s2)
    assert is_projective(p1) and is_projective(s2)
    assert not is_projective(s1)
    assert is_isomorphic(injective_module(a2, 0), s1)
    assert is_isomorphic(injective_module(a2, 1), p1)
    # A module is injective when its dual is projective.
    assert is_projective(dual_module(s1)) and is_projective(dual_module(p1))
    assert not is_projective(dual_module(s2))


def test_hom_dims_a2(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    table = {
        (s1, s1): 1, (s2, s2): 1, (s1, s2): 0, (s2, s1): 0,
        (p1, s1): 1, (s1, p1): 0, (p1, s2): 0, (s2, p1): 1,
        (p1, p1): 1,
    }
    for (m, n), d in table.items():
        assert hom_dim(m, n) == d


def test_kernel_image_cokernel(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    whole, cover = projective_cover(s1)
    assert whole.dim == 2
    ker, incl = kernel(cover)
    assert is_isomorphic(ker, s2)
    img, img_incl, core = image(incl)
    assert is_isomorphic(img, s2)
    assert img_incl.compose(core).mat == incl.mat
    cok, proj = cokernel(incl)
    assert is_isomorphic(cok, s1)
    assert proj.compose(incl).is_zero()


def test_syzygy_a2(a2):
    s1 = simple_module(a2, 0)
    omega, incl, cover = syzygy(s1)
    assert is_isomorphic(omega, simple_module(a2, 1))
    assert cover.compose(incl).is_zero()


def test_ses_split_detection(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    # The radical of the cover of S1 gives a non-split sequence.
    omega, incl, cover = syzygy(s1)
    ses = ses_from_submodule(cover.source, image_basis(incl.mat))
    ses.check()
    assert is_isomorphic(ses.sub, s2)
    assert is_isomorphic(ses.quot, s1)
    assert lift_through(ses.epi, ModuleMap.identity(ses.quot)) is None
    # A direct summand splits.
    whole, incls, projs = direct_sum(a2, [s2, s1])
    summand = Subspace(2, 2, [incls[0].mat.col(0)])
    split = ses_from_submodule(whole, summand)
    section = lift_through(split.epi, ModuleMap.identity(split.quot))
    assert section is not None


def test_lift_through_an_epi(a2):
    s1 = simple_module(a2, 0)
    omega, incl, cover = syzygy(s1)
    # The cover lifts through itself ...
    g = lift_through(cover, cover)
    assert g is not None and cover.compose(g) == cover
    # ... but the sequence 0 -> S2 -> P1 -> S1 -> 0 does not split, so
    # the identity of S1 does not.
    assert lift_through(cover, ModuleMap.identity(s1)) is None
    assert lift_through(cover, ModuleMap.zero(s1, s1)).is_zero()


def test_ext_dims_a2(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    assert ext1_basis(s1, s2).dim == 1
    assert ext1_basis(s2, s1).dim == 0
    assert ext1_basis(s1, s1).dim == 0
    assert ext1_basis(s2, s2).dim == 0
    assert ext1_basis(p1, s2).dim == 0


def test_extension_realize_a2(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    ext = ext1_basis(s1, s2)
    ses = extension_realize(ext, ext.element((1,)))
    ses.check()
    assert is_isomorphic(ses.middle, p1)
    assert lift_through(ses.epi, ModuleMap.identity(ses.quot)) is None
    split = extension_realize(ext, ext.element((0,)))
    split.check()
    section = lift_through(split.epi, ModuleMap.identity(split.quot))
    assert section is not None
    assert is_isomorphic(split.middle, direct_sum(a2, [s1, s2])[0])


def test_ext_a3_composition_length(a3):
    s1 = simple_module(a3, 0)
    s3 = simple_module(a3, 2)
    # No arrow 1 -> 3, and the interval realizing b*a has length three,
    # so there is no one-step extension of S1 by S3.
    assert ext1_basis(s1, s3).dim == 0
    assert ext1_basis(s1, simple_module(a3, 1)).dim == 1


def test_fiber_product(a2):
    s1 = simple_module(a2, 0)
    _, cover = projective_cover(s1)
    x, pa, pb = fiber_product(cover, ModuleMap.identity(s1))
    assert x.dim == cover.source.dim
    assert pa.is_iso()


def test_dual_double(a2):
    p1 = projective_module(a2, 0)
    assert dual_module(dual_module(p1)) == p1
    d = dual_module(p1)
    assert d.vertex_dims() == (1, 1)
    # The opposite is built once, and its opposite is the algebra
    # itself, so a double dual lands on the original objects.
    assert opposite_algebra(a2) is opposite_algebra(a2)
    assert opposite_algebra(opposite_algebra(a2)) is a2
    assert dual_module(dual_module(p1)).algebra is p1.algebra
    # Each dual is built once and linked back, so D is an involution on
    # the nose, for complexes as for modules.
    assert dual_module(dual_module(p1)) is p1
    c = Complex.from_module(simple_module(a2, 1))
    assert dual_complex(dual_complex(c)) is c
    # S2 is not injective: the dual of the resolution of D(S2) is a new
    # complex, over a2 itself.
    res, _ = projective_resolution(dual_complex(c))
    cores = dual_complex(res)
    assert cores != c
    assert all(m.algebra is a2 for m in cores.components)


def test_corner_a2(a2):
    cd = corner_algebra(a2, (1,))
    assert cd.sub.dim == 1
    assert cd.eA.dim == 2 and cd.eA.labels == ("e_2", "a")
    assert cd.eA_e_coords == (1, 0)
    # Ae is eA of the opposite corner.
    assert corner_algebra(opposite_algebra(a2), (1,)).eA.dim == 1


def test_corner_a3(a3):
    cd = corner_algebra(a3, (0, 2))
    assert cd.sub.dim == 3
    assert len(cd.sub.radical) == 1
    assert cd.sub.labels[cd.sub.radical[0]] == "b*a"
    assert cd.eA.dim == 4
    assert corner_algebra(opposite_algebra(a3), (0, 2)).eA.dim == 4


def test_corner_bimodule_actions_commute(a3):
    cd = corner_algebra(a3, (0, 2))
    assert isinstance(cd.eA, Bimodule)
    cd.eA.check()
    corner_algebra(opposite_algebra(a3), (0, 2)).eA.check()


def test_submodule_rejects_unstable(a2):
    p1 = projective_module(a2, 0)
    # The span of the top basis vector is not closed under the arrow.
    unstable = Subspace(2, 2, [(1, 0)])
    for _ in range(2):
        with pytest.raises(ValueError, match="not action-stable"):
            submodule_from_subspace(p1, unstable)
    # A rejected subspace is not stored, so it is rejected again.
    assert all(s != unstable for _, s in p1._parts or ())


def test_quotient_rejects_unstable(a2):
    p1 = projective_module(a2, 0)
    # Dividing out the top leaves the arrow's image with nowhere to go.
    unstable = Subspace(2, 2, [(1, 0)])
    for _ in range(2):
        with pytest.raises(ValueError, match="does not intertwine a$"):
            quotient_by_subspace(p1, unstable)
    assert all(s != unstable for _, s in p1._parts or ())


def test_hom_basis_is_deterministic(a3):
    p1 = projective_module(a3, 0)
    maps1 = hom_basis(p1, p1)
    maps2 = hom_basis(p1, p1)
    assert [h.mat for h in maps1] == [h.mat for h in maps2]
    assert hom_dim(p1, p1) == 1


def _kron_hom_space(m, n):
    """Hom(m, n) as the kernel of the stacked systems
    kron(I, A_b^T) - kron(B_b, I), with X flattened row-major."""
    p = m.algebra.field.p
    system = Mat.zeros(p, 0, n.dim * m.dim)
    for a_b, b_b in zip(m.action, n.action):
        system = system.vstack(kron(Mat.identity(p, n.dim), a_b.transpose())
                               - kron(b_b, Mat.identity(p, m.dim)))
    return kernel_basis(system)


@pytest.mark.parametrize("p, vertices, bound", [(2, 3, 3), (3, 2, 2)])
def test_hom_basis_is_kernel_of_kron_system(p, vertices, bound):
    arrows = tuple((v, v + 1, f"a{v}") for v in range(1, vertices))
    alg = path_algebra(Field(p), Quiver(tuple(range(1, vertices + 1)), arrows))
    members = universe(alg, bound).members
    for m in members:
        for n in members:
            want = _kron_hom_space(m, n)
            assert hom_space(m, n) == want
            assert [h.mat.data for h in hom_basis(m, n)] == \
                want.basis.row_list()
