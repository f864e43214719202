"""Module-category core: algebras, modules, exact constructions, Ext.

Expected dimensions for the A2 and A3 fixtures were computed by hand
from the path bases and frozen here.
"""

from __future__ import annotations

import pytest

from quivertilt.algebras import (
    Bimodule,
    corner_algebra,
    opposite_algebra,
    path_algebra,
)
from quivertilt.complexes import Complex
from quivertilt.derived import injective_coresolution
from quivertilt.enumeration import is_isomorphic, universe
from quivertilt.linalg import (
    Field,
    Mat,
    Subspace,
    image_basis,
    kernel_basis,
    kron,
)
from quivertilt.modules import (
    Module,
    ModuleMap,
    arrow_blocks,
    cokernel,
    direct_sum,
    dual_module,
    ext1_basis,
    extension_realize,
    fiber_product,
    hom_basis,
    hom_dim,
    image,
    injective_module,
    is_injective,
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


def test_equal_distinct_objects_compare_and_hash_alike(a2):
    # Equality is structural; the identity shortcut must not make it
    # depend on object identity.
    twin = path_algebra(Field(2), Quiver((1, 2), ((1, 2, "a"),)))
    assert twin is not a2
    assert twin == a2 and hash(twin) == hash(a2)
    p1 = projective_module(a2, 0)
    copy = Module(twin, p1.dim,
                  [Mat(m.p, m.rows, m.cols, list(m.data)) for m in p1.action])
    assert copy is not p1
    assert copy == p1 and hash(copy) == hash(p1)
    assert copy != simple_module(twin, 0) and twin != opposite_algebra(a2)



def test_zero_module_is_shared_per_algebra(a2):
    # Built once per algebra; complexes hand it out for every degree
    # outside their support.
    zero = Module.zero(a2)
    assert Module.zero(a2) is zero
    scratch = Module(a2, 0, [Mat.zeros(2, 0, 0)] * a2.dim)
    assert zero is not scratch
    assert zero == scratch and hash(zero) == hash(scratch)
    c = Complex.from_module(projective_module(a2, 0))
    assert c.component(3) is zero and c.diff(3).source is zero
    twin = path_algebra(Field(2), Quiver((1, 2), ((1, 2, "a"),)))
    assert Module.zero(twin) is not zero and Module.zero(twin) == zero

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
    assert is_injective(s1) and is_injective(p1)
    assert not is_injective(s2)


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
    # S2 is not injective, so its coresolution is built by dualizing.
    c = Complex.from_module(simple_module(a2, 1))
    cores, _ = injective_coresolution(c)
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
    with pytest.raises(ValueError, match="not action-stable"):
        submodule_from_subspace(p1, unstable)


def test_quotient_rejects_unstable(a2):
    p1 = projective_module(a2, 0)
    # Dividing out the top leaves the arrow's image with nowhere to go.
    unstable = Subspace(2, 2, [(1, 0)])
    with pytest.raises(ValueError, match="does not intertwine a$"):
        quotient_by_subspace(p1, unstable)


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
            assert [h.mat.data for h in hom_basis(m, n)] == \
                want.basis.row_list()
