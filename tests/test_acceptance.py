"""End-to-end acceptance checks, one verdict per numbered criterion.

Every check is exact (no tolerances): exhaustive enumeration at desk
scale over F_2, on the A2 fixture (quiver 1 -> 2, corner vertex 2) and
the A3 fixture (quiver 1 -> 2 -> 3, corner vertices 1 and 3).  Each
test prints a single ``acceptance NN: PASS/FAIL`` line; the assertion
message carries the same verdict so a failure is visible either way.
"""

from __future__ import annotations

import itertools

import pytest

from quivertilt.algebras import corner_algebra, path_algebra
from quivertilt.complexes import cohomology, enumerate_complexes
from quivertilt.derived import derived_hom0, derived_hom_dim
from quivertilt.enumeration import enumerate_submodules, universe
from quivertilt.giraud import (
    co_giraud_context,
    giraud_context,
    hat_decompose,
    hat_pair,
    verify_bijection,
    verify_co_bijection,
)
from quivertilt.heart import (
    factor_through_epi,
    factor_through_mono,
    heart_cokernel,
    heart_kernel,
    induced_t_structure,
    kv_classes,
    t_structure_report,
    tilted_pair_report,
)
from quivertilt.linalg import Field, Mat, rank
from quivertilt.modules import (
    ext1_basis,
    hom_dim,
    quotient_by_subspace,
    submodule_from_subspace,
)
from quivertilt.quivers import Quiver
from quivertilt.tiltbridge import (
    dl_commutation_report,
    heart_class_reps,
    heart_giraud_context,
    reconstruct_serre,
    verify_heart_giraud,
    verify_heart_quotient,
)
from quivertilt.torsion import (
    all_extension_middles,
    enumerate_torsion_pairs,
    free_indec_indices,
    is_torsion_pair,
    pair_from_torsion_indecs,
    self_test,
    torsion_indec_indices,
)


def _verdict(num: int, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


class _Fixture:
    """A corner setup with heart contexts for one compatible pair."""

    def __init__(self, alg, positions, torsion, bound_d):
        self.alg = alg
        self.corner = corner_algebra(alg, positions)
        self.ctx = giraud_context(self.corner)
        self.co = co_giraud_context(self.corner)
        self.uni_d = universe(alg, bound_d)
        self.uni_c = universe(self.corner.sub, 2)
        self.pair = pair_from_torsion_indecs(self.uni_d, torsion)
        self.hctx = heart_giraud_context(self.ctx, self.pair,
                                         self.uni_d, self.uni_c)
        self.co_hctx = heart_giraud_context(self.co, self.pair,
                                            self.uni_d, self.uni_c)


@pytest.fixture(scope="module")
def fix2(a2):
    return _Fixture(a2, (1,), (1,), 2)


@pytest.fixture(scope="module")
def fix3(a3):
    return _Fixture(a3, (0, 2), (2, 4), 3)


def test_acceptance_01_localization_bijection(fix2, fix3):
    ok = True
    details = []
    for fx, parents, corners in ((fix2, 5, 2), (fix3, 14, 5)):
        rep = verify_bijection(fx.ctx, fx.uni_d, fx.uni_c)
        ok &= (rep.ok and rep.parent_pairs == parents
               and rep.corner_pairs == corners
               and len(rep.compatible) == corners
               and len(rep.matching) == corners)
        details.append(f"{corners}/{parents} compatible")
    _verdict(1, ok, ", ".join(details))


def test_acceptance_02_colocalization_bijection(fix2, fix3):
    ok = True
    details = []
    for fx, parents, corners in ((fix2, 5, 2), (fix3, 14, 5)):
        rep = verify_co_bijection(fx.co, fx.uni_d, fx.uni_c)
        ok &= (rep.ok and rep.parent_pairs == parents
               and rep.corner_pairs == corners
               and len(rep.compatible) == corners
               and len(rep.matching) == corners)
        details.append(f"{corners}/{parents} compatible")
    _verdict(2, ok, ", ".join(details))


def test_acceptance_03_lifted_pairs_and_decompositions(fix2, fix3):
    # Image equality is checked as containment on the enumerated
    # universe plus a constructive section witness per corner module:
    # minimal preimages of some dimension-2 corner modules exceed the
    # parent bound, so a purely enumerated image set would be short.
    ok = True
    checked = 0
    for fx in (fix2, fix3):
        for pc in enumerate_torsion_pairs(fx.uni_c):
            hat = hat_pair(fx.ctx, pc, fx.uni_d)
            ok &= is_torsion_pair(hat, fx.uni_d).ok
            ok &= self_test(hat, fx.uni_d).ok
            for m in fx.uni_d.nonzero_members():
                if hat.in_torsion(m):
                    ok &= pc.in_torsion(fx.ctx.l.apply(m))
                if hat.in_free(m):
                    ok &= pc.in_free(fx.ctx.l.apply(m))
            for n in fx.uni_c.nonzero_members():
                section = fx.ctx.i.apply(n)
                if pc.in_torsion(n):
                    ok &= hat.in_torsion(section)
                if pc.in_free(n):
                    ok &= hat.in_free(section)
            for m in fx.uni_d.nonzero_members():
                ses = hat_decompose(fx.ctx, pc, m)
                ses.check()
                ok &= hat.in_torsion(ses.sub) and hat.in_free(ses.quot)
                checked += 1
    _verdict(3, ok, f"{checked} decompositions")


def test_acceptance_04_preimage_class_closures(fix2, fix3):
    ok = True
    for fx in (fix2, fix3):
        members = fx.uni_d.nonzero_members()
        for pc in enumerate_torsion_pairs(fx.uni_c):
            mtc = [m for m in members if pc.in_torsion(fx.ctx.l.apply(m))]
            mtfc = [m for m in members if pc.in_free(fx.ctx.l.apply(m))]
            for m in mtc:
                for sub in enumerate_submodules(m):
                    q, _ = quotient_by_subspace(m, sub)
                    ok &= q.dim == 0 or pc.in_torsion(fx.ctx.l.apply(q))
            for m in mtfc:
                for sub in enumerate_submodules(m):
                    s, _ = submodule_from_subspace(m, sub)
                    ok &= s.dim == 0 or pc.in_free(fx.ctx.l.apply(s))
            for a, b in itertools.product(mtc, mtc):
                ok &= all(pc.in_torsion(fx.ctx.l.apply(mid))
                          for mid in all_extension_middles(a, b))
            for a, b in itertools.product(mtfc, mtfc):
                ok &= all(pc.in_free(fx.ctx.l.apply(mid))
                          for mid in all_extension_middles(a, b))
    _verdict(4, ok)


def test_acceptance_05_induced_t_structure(fix2, fix3):
    ok = True
    details = []
    for fx, total_bound, count in ((fix2, 4, 1037), (fix3, 3, 660)):
        sample = enumerate_complexes(universe(fx.alg, 2), -2, 1, 2,
                                     total_bound=total_bound)
        ok &= len(sample) == count
        for pair in enumerate_torsion_pairs(fx.uni_d):
            report = t_structure_report(induced_t_structure(pair), sample)
            ok &= report.ok
        details.append(f"{count} complexes")
    _verdict(5, ok, ", ".join(details))


def test_acceptance_06_heart_is_abelian(fix2):
    ts = fix2.hctx.ts_d
    objs = heart_class_reps(ts, fix2.uni_d, 3)
    p = fix2.alg.field.p
    ok = len(objs) == 10
    maps = 0
    for x, y in itertools.product(objs, objs):
        hom = derived_hom0(x, y)
        for f in hom.basis():
            maps += 1
            ker, kincl = heart_kernel(ts, f)
            cok, cproj = heart_cokernel(ts, f)
            ok &= f.compose(kincl).is_zero()
            ok &= cproj.compose(f).is_zero()
            coim, coim_proj = heart_cokernel(ts, kincl)
            im, im_incl = heart_kernel(ts, cproj)
            bar = factor_through_mono(im_incl,
                                      factor_through_epi(coim_proj, f))
            ok &= bar.is_iso()
            for w in objs:
                hom_wx = derived_hom0(w, x)
                hom_wy = derived_hom0(w, y)
                post = Mat.from_rows(
                    p, [hom_wy.class_coords(f.compose(g))
                        for g in hom_wx.basis()], cols=hom_wy.dim)
                hom_wk = derived_hom0(w, ker)
                into = Mat.from_rows(
                    p, [hom_wx.class_coords(kincl.compose(g))
                        for g in hom_wk.basis()], cols=hom_wx.dim)
                ok &= rank(into) == hom_wk.dim
                ok &= hom_wk.dim == hom_wx.dim - rank(post)
                hom_yw = derived_hom0(y, w)
                hom_xw = derived_hom0(x, w)
                pre = Mat.from_rows(
                    p, [hom_xw.class_coords(h.compose(f))
                        for h in hom_yw.basis()], cols=hom_xw.dim)
                hom_cw = derived_hom0(cok, w)
                onto = Mat.from_rows(
                    p, [hom_yw.class_coords(h.compose(cproj))
                        for h in hom_cw.basis()], cols=hom_yw.dim)
                ok &= rank(onto) == hom_cw.dim
                ok &= hom_cw.dim == hom_yw.dim - rank(pre)
    _verdict(6, ok, f"{maps} heart maps over {len(objs)} classes")


def test_acceptance_07_tilted_pairs(fix2, fix3):
    ok = True
    count = 0
    for fx in (fix2, fix3):
        for pair in enumerate_torsion_pairs(fx.uni_d):
            report = tilted_pair_report(induced_t_structure(pair),
                                        fx.uni_d, 3)
            ok &= report.ok
            count += 1
    _verdict(7, ok, f"{count} pairs")


def test_acceptance_08_truncation_commutes_with_descent(fix2, fix3):
    ok = True
    details = []
    for fx, count in ((fix2, 95), (fix3, 238)):
        sample = enumerate_complexes(universe(fx.alg, 1), -2, 1, 1,
                                     total_bound=3)
        ok &= len(sample) == count
        ok &= dl_commutation_report(fx.hctx, sample).ok
        details.append(f"{count} complexes")
    _verdict(8, ok, ", ".join(details))


def test_acceptance_09_heart_adjunctions(fix2, fix3):
    ok = True
    for fx in (fix2, fix3):
        ok &= verify_heart_giraud(fx.hctx, fx.uni_d, fx.uni_c).ok
        ok &= verify_heart_giraud(fx.co_hctx, fx.uni_d, fx.uni_c).ok
    _verdict(9, ok)


def test_acceptance_10_heart_quotient(fix2, fix3):
    ok = True
    for fx in (fix2, fix3):
        ok &= verify_heart_quotient(fx.hctx, fx.uni_d, fx.uni_c).ok
    _verdict(10, ok)


def test_acceptance_11_reconstruction_roundtrip(fix2, fix3):
    ok = True
    for fx in (fix2, fix3):
        rep = reconstruct_serre(fx.hctx, fx.uni_d, fx.uni_c)
        ok &= rep.ok and rep.matches_kernel and rep.free_class_generates \
            and rep.context_recovered
    sparse = pair_from_torsion_indecs(fix3.uni_d, (0, 2, 4, 5))
    hctx = heart_giraud_context(fix3.ctx, sparse, fix3.uni_d, fix3.uni_c)
    partial = reconstruct_serre(hctx, fix3.uni_d, fix3.uni_c)
    ok &= partial.ok and not partial.free_class_generates
    _verdict(11, ok)


def test_acceptance_12_independent_hom_oracles(fix2, fix3):
    ok = True
    details = []
    for fx, total_bound in ((fix2, 4), (fix3, 3)):
        uni = universe(fx.alg, 2)
        two_term = enumerate_complexes(uni, -1, 0, 2,
                                       total_bound=total_bound)
        for x, y in itertools.product(two_term, two_term):
            split = sum(hom_dim(cohomology(x, i), cohomology(y, i))
                        for i in (-1, 0))
            split += sum(
                ext1_basis(cohomology(x, i), cohomology(y, i - 1)).dim
                for i in (-1, 0))
            ok &= derived_hom_dim(x, y) == split
        details.append(f"{len(two_term)}^2 derived pairs")
    # Hom dimensions against a count of all candidate matrices; over F_3
    # the bound 2 keeps it to at most 3^4 candidates per pair.
    a2_f3 = path_algebra(Field(3), Quiver((1, 2), ((1, 2, "a"),)))
    for alg in (fix2.alg, fix3.alg, a2_f3):
        p = alg.field.p
        mods = universe(alg, 2).nonzero_members()
        for m, n in itertools.product(mods, mods):
            count = 0
            for entries in itertools.product(range(p),
                                             repeat=m.dim * n.dim):
                cand = Mat(p, n.dim, m.dim, list(entries))
                if all(cand @ m.action[b] == n.action[b] @ cand
                       for b in range(alg.dim)):
                    count += 1
            ok &= count == p ** hom_dim(m, n)
        details.append(f"{len(mods)}^2 hom pairs over F_{p}")
    _verdict(12, ok, ", ".join(details))


def test_acceptance_13_pair_t_structure_roundtrip(fix2, fix3):
    ok = True
    count = 0
    for fx in (fix2, fix3):
        for pair in enumerate_torsion_pairs(fx.uni_d):
            ts = induced_t_structure(pair)
            got = kv_classes(ts, fx.uni_d)
            want = (torsion_indec_indices(pair, fx.uni_d),
                    free_indec_indices(pair, fx.uni_d))
            ok &= got == want
            count += 1
    _verdict(13, ok, f"{count} pairs")
