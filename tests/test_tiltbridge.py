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

from contextlib import contextmanager
from functools import lru_cache
from importlib.resources import files
from pathlib import Path

import pytest
from conftest import (
    chain_map_tilted_pair_report,
    dual_chain_map,
    heart_decompose,
    heart_ses_ok,
)

from quivertilt.algebras import corner_algebra, opposite_algebra, path_algebra
from quivertilt import derived, heart, tiltbridge
from quivertilt.cli import build_environment, load_scenario
from quivertilt.complexes import (
    ChainMap,
    Complex,
    apply_functor,
    apply_functor_map,
    cohomology,
    enumerate_complexes,
    is_exact_complex,
    is_quasi_iso,
)
from quivertilt.derived import (
    DerivedHom,
    DerivedMorphism,
    _is_identity,
    _MapGrid,
    _solve_homotopy,
    derived_hom0,
    dual_complex,
    lift_postcompose,
    projective_resolution,
)
from quivertilt.enumeration import enumerate_submodules, universe
from quivertilt.giraud import (
    GiraudContext,
    co_giraud_context,
    giraud_context,
    push_pair,
)
from quivertilt.linalg import Field, Mat, rank
from quivertilt.heart import (
    h0_lower,
    h0_lower_map,
    heart_cokernel,
    heart_is_isomorphic,
    heart_kernel,
    heart_les_ok,
    is_heart_zero,
    one_term,
    t_cohomology,
    tilted_pair_report,
)
from quivertilt.modules import (
    Module,
    ModuleMap,
    dual_module,
    is_projective,
    projective_module,
    ses_from_submodule,
    simple_module,
)
from quivertilt.quivers import Quiver
from quivertilt.tiltbridge import (
    _has_preimage,
    _recovered_member,
    _stalk_failures,
    dl_commutation_report,
    heart_class_pairs,
    heart_class_reps,
    heart_co_unit,
    heart_giraud_context,
    i_heart,
    j_heart,
    j_heart_map,
    l_heart,
    l_heart_map,
    reconstruct_serre,
    s_heart_membership,
    verify_heart_giraud,
    verify_heart_quotient,
)
from quivertilt.torsion import (
    PairReport,
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
    "dual": (lambda hctx: hctx.dual, lambda g: ()),
    "i_heart": (i_heart, lambda g: (_corner_stalk(g),)),
    "s_heart_membership": (s_heart_membership,
                           lambda g: (g.uni_d.indecs[1], g.uni_d.indecs[1])),
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


def heart_unit(hctx, x):
    """x -> i_heart(l_heart(x)), transposed through the adjunction from
    the identity of l_heart(x), with the injective reference counit.
    Read in the opposite category, for a colocalization this is the
    counit j_heart(r(x)) -> x, transposed through the unit."""
    lx = l_heart(hctx, x)
    ident = DerivedMorphism.from_chain_map(ChainMap.identity(lx))
    if isinstance(hctx.base, GiraudContext):
        hom_up = derived_hom0(x, i_heart(hctx, lx))
        eps = _ref_heart_counit(hctx, lx)
        transpose = lambda b: eps.compose(l_heart_map(hctx, b))
    else:
        hom_up = derived_hom0(j_heart(hctx, lx), x)
        eta = heart_co_unit(hctx, lx)
        transpose = lambda b: l_heart_map(hctx, b).compose(eta)
    unit = hom_up.preimage(derived_hom0(lx, lx), transpose, ident)
    assert unit is not None, "identity is not in the adjunction image"
    return unit


def test_unit_triangle(g2):
    s2, s1, _ = g2.uni_d.indecs
    eta = heart_unit(g2.hctx, one_term(s2, 1))
    ker, _ = heart_kernel(g2.hctx.ts_d, eta)
    cok, _ = heart_cokernel(g2.hctx.ts_d, eta)
    assert heart_is_isomorphic(ker, one_term(s1))
    assert is_heart_zero(cok)
    assert s_heart_membership(g2.hctx, cohomology(ker, -1),
                              cohomology(ker, 0))


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
        assert _ref_heart_counit(g2.hctx, n).is_iso()


@pytest.mark.parametrize("p", [2, 3], ids=["A2/F_2", "A2/F_3"])
def test_section_maps_are_functorial(p):
    # On the corner heart classes of the A2 fixture, both sections send
    # identities to identities and g . f to the composite of the images,
    # for every composable pair of basis morphisms.
    alg = path_algebra(Field(p), Quiver((1, 2), ((1, 2, "a"),)))
    g = _Setup(alg, (1,), (1,), 2, 2)
    for hctx, section, section_map in ((g.hctx, i_heart, _ref_i_heart_map),
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
    zero = Module.zero(a2)
    assert s_heart_membership(g2.hctx, zero, s1)
    assert s_heart_membership(g2.hctx, zero, zero)
    assert not s_heart_membership(g2.hctx, s2, zero)
    assert not s_heart_membership(g2.hctx, p1, zero)
    assert not s_heart_membership(g2.hctx, p1, s1)


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


def test_certificate_flags_a_unit_that_is_zero(g2, monkeypatch):
    # With the unit of the colocalization reading replaced by zero, the
    # localization (certified through its dual) reports its counit, and
    # the colocalization its unit, as not invertible at each nonzero
    # corner object: #1 and #2 of three classes, #0 being the zero object.
    real = tiltbridge.heart_co_unit
    monkeypatch.setattr(tiltbridge, "heart_co_unit",
                        lambda hctx, n: real(hctx, n).scale(0))
    assert len(heart_class_reps(g2.hctx.ts_c, g2.uni_c)) == 3
    for hctx, name in ((g2.hctx, "counit"), (g2.co_hctx, "unit")):
        report = verify_heart_giraud(hctx, g2.uni_d, g2.uni_c)
        assert not report.ok
        flagged = [f for f in report.failures if f.endswith("invertible")]
        assert flagged == [f"{name} at corner object #{k} is not invertible"
                           for k in (1, 2)]


def test_certificate_flags_a_section_that_is_zero(g2, monkeypatch):
    # A left section that sends every corner object to zero breaks the
    # adjunction dimensions on both sides.
    real = tiltbridge.j_heart
    monkeypatch.setattr(tiltbridge, "j_heart",
                        lambda hctx, n: Complex.zero(real(hctx, n).algebra))
    for hctx in (g2.hctx, g2.co_hctx):
        report = verify_heart_giraud(hctx, g2.uni_d, g2.uni_c)
        assert not report.ok
        assert any(f.startswith("adjunction dimensions differ at")
                   for f in report.failures)


BUNDLED = Path(str(files("quivertilt").joinpath("scenarios/a2_full.json")))


def test_localization_certificate_costs_its_dual(monkeypatch):
    # On the bundled scenario's localization context at bound 3, with
    # the derived and truncation caches cleared before each run, the
    # certificate makes as many lifts and homotopy solves as the
    # colocalization certificate of its dual context.
    env = build_environment(load_scenario(BUNDLED), 3)
    hctx = heart_giraud_context(env.ctx, env.pairs["std"], env.uni_d,
                                env.uni_c)
    dual = hctx.dual
    dual_uni_d = universe(opposite_algebra(env.uni_d.algebra), 3)
    dual_uni_c = universe(opposite_algebra(env.uni_c.algebra), 3)
    calls = {"lift": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    lift = counted("lift", derived.lift_postcompose)
    for module in (derived, heart, tiltbridge):
        monkeypatch.setattr(module, "lift_postcompose", lift)
    monkeypatch.setattr(derived, "_solve_homotopy",
                        counted("solve", derived._solve_homotopy))

    def certify(h, uni_d, uni_c):
        for cached in (derived.projective_resolution, derived.derived_hom0,
                       heart._preimage_in_cycles, heart._cut_below,
                       heart._cut_above):
            cached.cache_clear()
        calls.update(lift=0, solve=0)
        assert verify_heart_giraud(h, uni_d, uni_c, env.heart_bound).ok
        return dict(calls)

    assert certify(hctx, env.uni_d, env.uni_c) \
        == certify(dual, dual_uni_d, dual_uni_c)


@contextmanager
def _with_section(hctx, section):
    """hctx, with its side's section (i_heart of a localization, j_heart
    of a colocalization) replaced by section while the block runs."""
    name = "i_heart" if isinstance(hctx.base, GiraudContext) else "j_heart"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tiltbridge, name, section)
        yield hctx


def test_stalk_check_flags_the_class_not_cut_down(g2):
    # A section that sends every corner object to a stalk of the class
    # that is cut down must be caught on each stalk of the other class:
    # the torsion stalks of the localization, the shifted free stalks of
    # the colocalization.
    s2, s1, _ = g2.uni_d.indecs
    with _with_section(g2.hctx, lambda hctx, n: one_term(s2, 1)) as loc:
        assert _stalk_failures(loc, g2.uni_d) == [
            f"section of a collapsed torsion stalk left the torsion stalks "
            f"at {sig}" for sig in ((1,), (1, 1))]
    with _with_section(g2.co_hctx, lambda hctx, n: one_term(s1)) as co:
        assert _stalk_failures(co, g2.uni_d) == [
            f"section of a collapsed shifted stalk left the shifted free "
            f"stalks at {sig}" for sig in ((0,), (0, 0), (2,))]
    assert _stalk_failures(g2.hctx, g2.uni_d) == []
    assert _stalk_failures(g2.co_hctx, g2.uni_d) == []


def test_reconstruction_rejects_an_incompatible_section(g2):
    # The same patched section makes the reconstruction refuse its
    # hypothesis, naming the first failing torsion stalk.
    s2 = g2.uni_d.indecs[0]
    with _with_section(g2.hctx, lambda hctx, n: one_term(s2, 1)) as loc, \
            pytest.raises(ValueError, match=(
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


# -- the injective reference for the right section --------------------------

@lru_cache(maxsize=None)
def _injective_coresolution(c):
    """A bounded complex of injectives under c, by dualizing a
    projective resolution over the opposite algebra."""
    if c.is_zero() or all(is_projective(dual_module(m))
                          for m in c.components):
        return c, ChainMap.identity(c)
    res, comparison = projective_resolution(dual_complex(c))
    into = dual_chain_map(comparison)
    assert into.source == c and is_quasi_iso(into)
    return dual_complex(res), into


def _lift_precompose(w, v):
    """g with g . w homotopic to v, for w a quasi-isomorphism out of a
    shared source and v into a bounded complex of injectives; v itself
    against an identity w."""
    assert w.source == v.source
    if _is_identity(w):
        return v
    gridg = _MapGrid(w.target, v.target, 0)
    sol = _solve_homotopy(v, gridg,
                          lambda i, h: (h.mat @ w.component(i).mat).data)
    assert sol is not None
    return ChainMap(w.target, v.target, gridg.comps_from(sol))


def _ref_i_heart(hctx, n):
    cores, _ = _injective_coresolution(n)
    return h0_lower(hctx.ts_d, apply_functor(hctx.base.i, cores)).h


def _ref_i_heart_map(hctx, f):
    _, into = _injective_coresolution(f.source)
    _, into2 = _injective_coresolution(f.target)
    _, cmp = projective_resolution(f.source)
    g = _lift_precompose(into.compose(cmp), into2.compose(f.rep))
    lifted = apply_functor_map(hctx.base.i, g)
    return DerivedMorphism.from_chain_map(h0_lower_map(hctx.ts_d, lifted))


def _ref_heart_counit(hctx, n):
    base = hctx.base
    cores, into = _injective_coresolution(n)
    lifted = apply_functor(base.i, cores)
    data = h0_lower(hctx.ts_d, lifted)
    l_h = apply_functor(base.l, data.h)
    l_proj = apply_functor_map(base.l, data.proj)
    l_incl = apply_functor_map(base.l, data.incl)
    evaluate = ChainMap(apply_functor(base.l, lifted), cores,
                        {k: base.counit(cores.component(k))
                         for k in range(cores.lo, cores.hi + 1)})
    _, cmp = projective_resolution(l_h)
    w = lift_postcompose(l_proj, cmp)
    rep = lift_postcompose(into, evaluate.compose(l_incl).compose(w))
    return DerivedMorphism(l_h, n, rep)


_A2Q = Quiver((1, 2), ((1, 2, "a"),))
_A3Q = Quiver((1, 2, 3), ((1, 2, "a"), (2, 3, "b")))
_ORACLE_ALGEBRAS = {
    # p, quiver, parent universe bound; corners use bound 2, hearts 2.
    "A2/F_2": (2, _A2Q, 2),
    "A2/F_3": (3, _A2Q, 2),
    "A3/F_2": (2, _A3Q, 3),
    "A3 1->2<-3/F_2": (2, Quiver((1, 2, 3), ((1, 2, "a"), (3, 2, "b"))), 3),
    "A3/F_3": (3, _A3Q, 3),
}


def _compatible_heart_contexts(name):
    p, quiver, bound = _ORACLE_ALGEBRAS[name]
    alg = path_algebra(Field(p), quiver)
    uni_d = universe(alg, bound)
    n_idem = len(alg.idem)
    for mask in range(1, 2 ** n_idem - 1):
        corner = corner_algebra(alg, [k for k in range(n_idem)
                                      if mask >> k & 1])
        ctx = giraud_context(corner)
        uni_c = universe(corner.sub, 2)
        for pair in enumerate_torsion_pairs(uni_d):
            if push_pair(ctx, pair, uni_d, uni_c).ok:
                yield (heart_giraud_context(ctx, pair, uni_d, uni_c),
                       uni_d, uni_c)


def _same(got, want):
    return (got.source == want.source and got.target == want.target
            and got.equals(want))


@pytest.mark.parametrize("name", list(_ORACLE_ALGEBRAS))
def test_right_section_is_the_dual_of_the_left_matching_the_reference(name):
    # On every compatible pair of every proper corner, the right section,
    # read through the dual colocalization, equals the injective-
    # coresolution construction structurally.
    objects = 0
    for hctx, _, uni_c in _compatible_heart_contexts(name):
        assert hctx.dual.base.dual is hctx.base
        for n in heart_class_reps(hctx.ts_c, uni_c, 2):
            assert i_heart(hctx, n) == _ref_i_heart(hctx, n)
            objects += 1
    assert objects


def _is_bijective(p, columns, dim):
    return len(columns) == dim and (
        dim == 0 or rank(Mat.from_rows(p, columns, cols=dim)) == dim)


def _ref_localization_certificate(hctx, uni_d, uni_c, dim_bound):
    """verify_heart_giraud on a localization read directly, with the
    injective references for the right section, its action on maps and
    the counit: homs and compositions are those of the hearts
    themselves, not of their opposites."""
    p = uni_d.algebra.field.p
    failures = []
    ups = heart_class_reps(hctx.ts_d, uni_d, dim_bound)
    downs = heart_class_reps(hctx.ts_c, uni_c, dim_bound)
    counits = [_ref_heart_counit(hctx, n) for n in downs]
    failures += [f"counit at corner object #{k} is not invertible"
                 for k, eps in enumerate(counits) if not eps.is_iso()]
    sections = [_ref_i_heart(hctx, n) for n in downs]
    for a, x in enumerate(ups):
        lx = l_heart(hctx, x)
        for b, (n, sec) in enumerate(zip(downs, sections)):
            hom_up, hom_down = derived_hom0(x, sec), derived_hom0(lx, n)
            if hom_up.dim != hom_down.dim:
                failures.append(f"adjunction dimensions differ at ({a},{b})")
                continue
            cols = [hom_down.class_coords(
                        counits[b].compose(l_heart_map(hctx, f)))
                    for f in hom_up.basis()]
            if not _is_bijective(p, cols, hom_up.dim):
                failures.append(f"adjunction transpose at ({a},{b}) "
                                "is not bijective")
    for a, (n, sec) in enumerate(zip(downs, sections)):
        for b, (n2, sec2) in enumerate(zip(downs, sections)):
            hom_n = derived_hom0(n, n2)
            images = [_ref_i_heart_map(hctx, f) for f in hom_n.basis()]
            up = derived_hom0(sec, sec2)
            if up.dim != hom_n.dim or not _is_bijective(
                    p, [up.class_coords(g) for g in images], hom_n.dim):
                failures.append(f"section is not fully faithful at ({a},{b})")
            for f, g in zip(hom_n.basis(), images):
                lhs = counits[b].compose(l_heart_map(hctx, g))
                if not lhs.equals(f.compose(counits[a])):
                    failures.append(f"counit is not natural at ({a},{b})")
                    break
    failures += _stalk_failures(hctx, uni_d)
    return PairReport(not failures, tuple(failures))


@pytest.mark.parametrize("name", ["A2/F_2", "A2/F_3", "A3/F_2"])
def test_certificate_through_the_dual_matches_the_direct_reading(name):
    # On every compatible localization context, at heart bound 2, the
    # certificate read on the dual colocalization gives the verdict and
    # the number of failures of the localization read directly.
    contexts = 0
    for hctx, uni_d, uni_c in _compatible_heart_contexts(name):
        got = verify_heart_giraud(hctx, uni_d, uni_c, 2)
        want = _ref_localization_certificate(hctx, uni_d, uni_c, 2)
        assert (got.ok, len(got.failures)) == (want.ok, len(want.failures))
        contexts += 1
    assert contexts


# -- the chain-map reference for the split deciders --------------------------

def _collapses(hctx, x):
    """Kernel membership of a heart complex: the corner functor, applied
    levelwise, leaves an acyclic complex."""
    return is_heart_zero(apply_functor(hctx.base.l, x))


def l_heart_preimage(hctx, n):
    """A heart object upstairs whose corner image is isomorphic to n: the
    heart cohomology of the levelwise section."""
    return h0_lower(hctx.ts_d, apply_functor(hctx.base.i, n)).h


def _heart_seqs(ts, reps):
    """The canonical heart-exact sequence of each nonzero representative,
    as derived morphisms."""
    decs = [heart_decompose(ts, x) for x in reps if not is_exact_complex(x)]
    return [(dec.t_incl, dec.q_proj) for dec in decs]


def _chain_map_heart_quotient(hctx, uni_d, uni_c, dim_bound):
    """verify_heart_quotient on complexes and derived morphisms."""
    failures = []
    ups = heart_class_reps(hctx.ts_d, uni_d, dim_bound)
    downs = heart_class_reps(hctx.ts_c, uni_c, dim_bound)
    for k, (mono, epi) in enumerate(_heart_seqs(hctx.ts_d, ups)):
        if not heart_ses_ok(hctx.ts_c, l_heart_map(hctx, mono),
                            l_heart_map(hctx, epi)):
            failures.append(f"descended functor broke exactness of "
                            f"sequence #{k}")
        members = [_collapses(hctx, x)
                   for x in (mono.source, mono.target, epi.target)]
        if members[1] != (members[0] and members[2]):
            failures.append(f"kernel class fails two-out-of-three at "
                            f"sequence #{k}")
    for k, n in enumerate(downs):
        if not heart_is_isomorphic(l_heart(hctx, l_heart_preimage(hctx, n)),
                                   n):
            failures.append(f"no constructed preimage for corner "
                            f"object #{k}")
    return PairReport(not failures, tuple(failures))


def _chain_map_recovered_member(hctx, m):
    """Every heart cohomology of the stalk m collapses in the corner."""
    stalk = one_term(m)
    return all(_collapses(hctx, t_cohomology(hctx.ts_d, stalk, i))
               for i in (0, 1))


def _chain_map_round_trip(hctx, m):
    """The corner functor takes the heart cohomologies of the stalk m to
    those of the stalk l(m)."""
    dec = hctx.pair_c.decompose(hctx.base.l.apply(m))
    stalk = one_term(m)
    low, high = (apply_functor(hctx.base.l, t_cohomology(hctx.ts_d, stalk, i))
                 for i in (0, 1))
    return (heart_is_isomorphic(low, one_term(dec.sub))
            and heart_is_isomorphic(high, one_term(dec.quot, 1)))


@pytest.mark.parametrize("name", list(_ORACLE_ALGEBRAS))
def test_split_deciders_agree_with_the_chain_map_reference(name):
    # On every compatible pair of every proper corner, at heart bound 2:
    # tilted_pair_report on both hearts, verify_heart_quotient and
    # reconstruct_serre equal their chain-map paths, and so do, one by
    # one, the recovered membership of every member, kernel membership
    # of every heart class (its parts against the collapse of the
    # complex) and the constructed preimage of every corner class.
    tilted = []
    member_verdicts = set()
    kernel_verdicts = set()
    contexts = 0
    for hctx, uni_d, uni_c in _compatible_heart_contexts(name):
        contexts += 1
        for ts, uni in ((hctx.ts_d, uni_d), (hctx.ts_c, uni_c)):
            if ts not in tilted:
                tilted.append(ts)
                assert tilted_pair_report(ts, uni, 2) \
                    == chain_map_tilted_pair_report(ts, uni, 2)
        assert verify_heart_quotient(hctx, uni_d, uni_c, 2) \
            == _chain_map_heart_quotient(hctx, uni_d, uni_c, 2)
        for x in heart_class_reps(hctx.ts_d, uni_d, 2):
            got = s_heart_membership(hctx, x.component(-1), x.component(0))
            assert got == _collapses(hctx, x)
            kernel_verdicts.add(got)
        for f, t in heart_class_pairs(hctx.ts_c, uni_c, 2):
            n = Complex(uni_c.algebra, -1, [f, t], [ModuleMap.zero(f, t)])
            pre = l_heart_preimage(hctx, n)
            assert _has_preimage(hctx, f, t)
            assert heart_is_isomorphic(l_heart(hctx, pre), n)
        report = reconstruct_serre(hctx, uni_d, uni_c, 2)
        membership = tuple(_chain_map_recovered_member(hctx, m)
                           for m in uni_d.members)
        assert report.membership == membership
        assert tuple(_recovered_member(hctx, m)
                     for m in uni_d.members) == membership
        member_verdicts |= set(membership)
        assert report.context_recovered == all(
            _chain_map_round_trip(hctx, m) for m in uni_d.nonzero_members())
        assert report.ok
    assert contexts and member_verdicts == kernel_verdicts == {True, False}


def test_kernel_membership_by_parts_is_the_collapse_of_the_complex(g2, g3):
    # A heart object dies in the corner heart exactly when the corner
    # functor kills both of its cohomologies, split or not.
    verdicts = set()
    for g in (g2, g3):
        alg = g.uni_d.algebra
        pool = enumerate_complexes(universe(alg, 2), -1, 0, 2, total_bound=3)
        for x in pool:
            if not g.hctx.ts_d.in_heart(x):
                continue
            got = s_heart_membership(g.hctx, cohomology(x, -1),
                                     cohomology(x, 0))
            assert got == _collapses(g.hctx, x)
            verdicts.add((got, x.diff(-1).is_zero()))
    assert verdicts == {(v, split) for v in (True, False)
                        for split in (True, False)}


def test_duals_are_linked_both_ways(a2):
    # D is an involution on the nose: the dual of the dual is the object
    # itself, for modules and complexes alike, and is built once.
    s1, p1 = simple_module(a2, 0), projective_module(a2, 0)
    for m in (s1, p1, Module.zero(a2)):
        assert dual_module(m) is dual_module(m)
        assert dual_module(dual_module(m)) is m
    # The shared zero modules of an algebra and its opposite are each
    # other's duals, so a dual zero module is the shared one.
    op = opposite_algebra(a2)
    assert dual_module(Module.zero(a2)) is Module.zero(op)
    assert dual_module(Module.zero(op)) is Module.zero(a2)
    c = Complex(a2, -1, [s1, p1], [ModuleMap.zero(s1, p1)])
    for x in (c, one_term(p1, 1), Complex.zero(a2)):
        assert dual_complex(x) is dual_complex(x)
        assert dual_complex(dual_complex(x)) is x
