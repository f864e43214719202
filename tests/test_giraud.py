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
from conftest import (counting, hat_decompose, injective_module, kron,
                      self_test)

from quivertilt import enumeration, torsion
from quivertilt.algebras import (CornerData, corner_algebra, opposite_algebra,
                                 path_algebra)
from quivertilt.enumeration import is_isomorphic, universe
from quivertilt.giraud import (
    co_giraud_context,
    giraud_context,
    hat_pair,
    push_pair,
    verify_bijection,
    verify_co_bijection,
)
from quivertilt.linalg import (
    Field,
    Mat,
    Subspace,
    image_basis,
    kernel_basis,
    quotient_maps,
    solve,
)
from quivertilt.modules import (
    Module,
    ModuleMap,
    ShortExactSeq,
    direct_sum,
    dual_map,
    dual_module,
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


# -- the tensor-quotient reference for the colocalization side --

def _ae_bimodule(cd):
    """Ae as an (A, eAe)-bimodule, from the parent's multiplication:
    its basis, the left action of A, the right action of eAe, and the
    coordinates of e."""
    alg = cd.parent
    p = alg.field.p
    basis = tuple(b for b in range(alg.dim)
                  if alg.endpoints[b][0] in set(cd.positions))
    pos_of = {b: t for t, b in enumerate(basis)}
    d = len(basis)

    def mats(acting, product):
        out = []
        for a in acting:
            data = [0] * (d * d)
            for t, b in enumerate(basis):
                vec = product(alg.basis_vec(a), alg.basis_vec(b))
                for k, c in enumerate(vec):
                    if c:
                        data[pos_of[k] * d + t] = c
            out.append(Mat(p, d, d, data))
        return out

    left = mats(range(alg.dim), alg.mul_vecs)
    right = mats(cd.kept, lambda a, b: alg.mul_vecs(b, a))
    return basis, left, right, tuple(cd.e_vec[b] for b in basis)


class _TensorReference:
    """j(n) = Ae (x)_eAe n as the quotient of the plain tensor space by
    the balancing relations, with the unit x |-> e (x) x and the counit
    a.e (x) x |-> a.x written out by hand."""

    def __init__(self, cd):
        self.cd = cd
        self.basis, self.left, self.right, self.e_row = _ae_bimodule(cd)

    def data(self, n):
        cd, p, d = self.cd, self.cd.parent.field.p, len(self.basis)
        ident_n, ident_a = Mat.identity(p, n.dim), Mat.identity(p, d)
        vecs = []
        for t in range(cd.sub.dim):
            rel = kron(self.right[t], ident_n) - kron(ident_a, n.action[t])
            vecs.extend(rel.transpose().row_list())
        w = Subspace(p, d * n.dim, vecs)
        proj, sect = quotient_maps(w)
        action = [proj @ kron(left, ident_n) @ sect for left in self.left]
        return Module(cd.parent, d * n.dim - w.dim, action), proj, sect

    def apply(self, n):
        return self.data(n)[0]

    def unit(self, co, n):
        p = self.cd.parent.field.p
        jn, proj, _ = self.data(n)
        rjn, incl = co.r.data(jn)
        cols = []
        for u in range(n.dim):
            flat = [0] * (len(self.basis) * n.dim)
            for s, c in enumerate(self.e_row):
                if c:
                    flat[s * n.dim + u] = c
            rvec = solve(incl, Mat(p, jn.dim, 1, proj.apply(flat)))
            cols.append(rvec.col(0))
        return ModuleMap(n, rjn, Mat.from_cols(p, cols, rjn.dim))

    def counit(self, co, m):
        p = self.cd.parent.field.p
        rm, incl = co.r.data(m)
        jrm, _, sect = self.data(rm)
        cols = [(m.action[b] @ incl).col(u)
                for b in self.basis for u in range(rm.dim)]
        return ModuleMap(jrm, m, Mat.from_cols(p, cols, m.dim) @ sect)


_CORNER_ALGEBRAS = {
    # p, quiver, universe bound
    "A2/F_2": (2, Quiver((1, 2), ((1, 2, "a"),)), 2),
    "A2/F_3": (3, Quiver((1, 2), ((1, 2, "a"),)), 2),
    "A3/F_2": (2, Quiver((1, 2, 3), ((1, 2, "a"), (2, 3, "b"))), 3),
    "A3 1->2<-3/F_2": (2, Quiver((1, 2, 3), ((1, 2, "a"), (3, 2, "b"))), 3),
    "A3/F_3": (3, Quiver((1, 2, 3), ((1, 2, "a"), (2, 3, "b"))), 3),
}


@pytest.mark.parametrize("name", list(_CORNER_ALGEBRAS))
def test_dual_colocalization_matches_the_tensor_quotient(name):
    # On every proper corner: Ae is eA of the opposite corner, j = D i^op D
    # agrees with the tensor quotient up to isomorphism, and the unit and
    # counit verdicts agree with the hand-written maps.
    p, quiver, bound = _CORNER_ALGEBRAS[name]
    alg = path_algebra(Field(p), quiver)
    uni_d = universe(alg, bound)
    n_idem = len(alg.idem)
    corners = [tuple(k for k in range(n_idem) if mask >> k & 1)
               for mask in range(1, 2 ** n_idem - 1)]
    for positions in corners:
        cd = corner_algebra(alg, positions)
        co = co_giraud_context(cd)
        ref = _TensorReference(cd)
        ea_op = corner_algebra(opposite_algebra(alg), positions).eA
        assert ea_op.labels == tuple(alg.labels[b] for b in ref.basis)
        assert (ea_op.left_act, ea_op.right_act) == (tuple(ref.right),
                                                     tuple(ref.left))
        assert co.dual.corner.eA_e_coords == ref.e_row
        for n in universe(cd.sub, bound).members:
            jn, want = co.j.apply(n), ref.apply(n)
            assert jn.vertex_dims() == want.vertex_dims()
            assert is_isomorphic(jn, want)
            assert co.unit(n).is_injective() == ref.unit(co, n).is_injective()
        verdicts = set()
        for m in uni_d.members:
            # D commutes with restriction on the nose, not just up to
            # isomorphism, so the dual maps compose with r's.
            assert dual_module(co.r.apply(m)) == co.dual.l.apply(dual_module(m))
            want = ref.counit(co, m)
            # Both counits land in m, on the submodule A.e.m.
            assert image_basis(co.counit(m).mat) == image_basis(want.mat)
            assert co.in_perp_s(m) == want.is_surjective()
            verdicts.add(co.in_perp_s(m))
        assert verdicts == {True, False}


def _kron_section_space(cd, n):
    """Hom_eAe(eA, n) as the kernel of the stacked systems
    kron(I, L_t^T) - kron(N_t, I), one per basis element t of eAe, with
    L_t its left action on eA and X: eA -> n flattened row-major."""
    p, ea = cd.parent.field.p, cd.eA
    system = Mat.zeros(p, 0, n.dim * ea.dim)
    for left, act in zip(ea.left_act, n.action):
        system = system.vstack(kron(Mat.identity(p, n.dim), left.transpose())
                               - kron(act, Mat.identity(p, ea.dim)))
    return kernel_basis(system)


_SECTION_ALGEBRAS = {
    # p, quiver, corner modules over all proper corners at bound 2
    "A3/F_2": (2, Quiver((1, 2, 3), ((1, 2, "a"), (2, 3, "b"))), 30),
    "A3/F_3": (3, Quiver((1, 2, 3), ((1, 2, "a"), (2, 3, "b"))), 30),
    "A3 1<-2->3/F_2": (2, Quiver((1, 2, 3), ((2, 1, "a"), (2, 3, "b"))), 29),
}


@pytest.mark.parametrize("opposite", [False, True], ids=["A", "A^op"])
@pytest.mark.parametrize("name", list(_SECTION_ALGEBRAS))
def test_section_space_is_the_kronecker_kernel(name, opposite):
    # On every proper corner the section's space is the Kronecker
    # system's reduced kernel, row for row, for every corner module.
    p, quiver, want_cases = _SECTION_ALGEBRAS[name]
    alg = path_algebra(Field(p), quiver)
    if opposite:
        alg = opposite_algebra(alg)
    cases = 0
    for mask in range(1, 2 ** len(alg.idem) - 1):
        cd = corner_algebra(alg, [k for k in range(len(alg.idem)) if mask >> k & 1])
        section = giraud_context(cd).i
        for n in universe(cd.sub, 2).members:
            space = section.data(n)[1]
            assert space.basis.row_list() == \
                _kron_section_space(cd, n).basis.row_list()
            cases += 1
    assert cases == want_cases


def _stalks(alg):
    """The simple, projective and injective modules over alg itself."""
    return [make(alg, pos) for pos in range(len(alg.idem))
            for make in (simple_module, projective_module, injective_module)]


@pytest.mark.parametrize("name", ["A2/F_2", "A2/F_3", "A3/F_2", "A3/F_3"])
def test_colocalization_stays_on_the_corner_algebra(name):
    # The opposite corner is taken over the opposite of corner.sub, so
    # the duals of the co side land on corner.sub and on the parent
    # themselves, not on equal copies; a second context keeps the link.
    p, quiver, _ = _CORNER_ALGEBRAS[name]
    alg = path_algebra(Field(p), quiver)
    n_idem = len(alg.idem)
    for mask in range(1, 2 ** n_idem - 1):
        cd = corner_algebra(alg, [k for k in range(n_idem) if mask >> k & 1])
        co = co_giraud_context(cd)
        op_sub = co.dual.corner.sub
        assert op_sub is opposite_algebra(cd.sub)
        assert opposite_algebra(op_sub) is cd.sub
        assert co.dual.corner.eA.left_alg is op_sub
        assert co_giraud_context(cd).dual.corner.sub is op_sub
        assert opposite_algebra(cd.sub) is op_sub
        for n in _stalks(cd.sub):
            unit = co.unit(n)
            assert unit.source.algebra is cd.sub
            assert unit.target.algebra is cd.sub
        for m in _stalks(alg):
            counit = co.counit(m)
            assert counit.source.algebra is alg
            assert counit.target.algebra is alg


def test_colocalization_rejects_a_corner_over_another_algebra(a2):
    # A corner that claims the opposite of its own corner algebra: the
    # corner of the opposite parent is then not the opposite of it.
    cd = corner_algebra(a2, (0, 1))
    bad = CornerData(cd.parent, cd.positions, cd.e_vec,
                     opposite_algebra(cd.sub), cd.kept, cd.eA, cd.eA_e_coords)
    with pytest.raises(ValueError, match="not the opposite"):
        co_giraud_context(bad)


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


def co_hat_decompose(co, pair_c, m) -> ShortExactSeq:
    """The dual of `hat_decompose` of Dm for the dual pair (DF, DT)."""
    ses = hat_decompose(co.dual, pair_c.dual(), dual_module(m))
    return ShortExactSeq(dual_map(ses.epi), dual_map(ses.mono))


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
            assert ses.sub.dim == hat.torsion_subspace(m).dim


def test_co_hat_decompose_a3(co3, a3):
    # The dual decomposition embeds exactly the trace of the co-pulled-back
    # torsion class, on every module up to dimension 3 and every pair.
    uni_d = universe(a3, 3)
    uni_c = universe(co3.corner.sub, 2)
    for pair_c in enumerate_torsion_pairs(uni_c):
        hat = hat_pair(co3, pair_c, uni_d)
        for m in uni_d.nonzero_members():
            ses = co_hat_decompose(co3, pair_c, m)
            ses.check()
            assert ses.middle == m
            assert image_basis(ses.mono.mat) == hat.torsion_subspace(m)
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
    # lattices; those belong to the tests' self_test sweep alone.
    # torsion does not bind enumerate_submodules; its patch guards a
    # re-import.
    calls = {"all_extension_middles": 0, "enumerate_submodules": 0}
    real = {"all_extension_middles": torsion.all_extension_middles,
            "enumerate_submodules": enumeration.enumerate_submodules}
    for mod, name in ((torsion, "all_extension_middles"),
                      (torsion, "enumerate_submodules"),
                      (enumeration, "enumerate_submodules")):
        monkeypatch.setattr(mod, name, counting(calls, name, real[name]),
                            raising=False)
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
