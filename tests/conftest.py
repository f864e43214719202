from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import pytest

import quivertilt
from quivertilt import heart
from quivertilt.algebras import Algebra, opposite_algebra, path_algebra
from quivertilt.complexes import (ChainMap, Complex, apply_functor,
                                  apply_functor_map, is_quasi_iso)
from quivertilt.derived import (DerivedHom, DerivedMorphism, _check_hereditary,
                                derived_hom0, dual_complex, is_null_homotopic,
                                lift_postcompose, projective_resolution)
from quivertilt.enumeration import ModuleUniverse, enumerate_submodules
from quivertilt.heart import (_cohomology_key, h0_lower_map, heart_class_reps,
                              is_heart_zero, one_term, t_cohomology,
                              truncate_le0)
from quivertilt.linalg import Field, Mat, combine, image_basis, solve
from quivertilt.modules import (
    Module, ShortExactSeq, cokernel, dual_map, dual_module, fiber_product,
    hom_dim, kernel, presentation_arrows, projective_module,
    quotient_by_subspace, ses_from_submodule, submodule_from_subspace)
from quivertilt.quivers import Quiver
from quivertilt.torsion import (PairReport, TorsionPair, all_extension_middles,
                                trace_subspace)


@pytest.fixture(scope="session")
def f2():
    return Field(2)


@pytest.fixture(scope="session")
def a2(f2):
    """Path algebra of 1 --a--> 2 over F_2; basis (e_1, e_2, a)."""
    return path_algebra(f2, Quiver((1, 2), ((1, 2, "a"),)))


@pytest.fixture(scope="session")
def a3(f2):
    """Path algebra of 1 --a--> 2 --b--> 3 over F_2."""
    return path_algebra(f2, Quiver((1, 2, 3), ((1, 2, "a"), (2, 3, "b"))))


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product, the oracle of the hom-space tests: with X
    flattened row-major into vec(X), vec(A @ X @ B) = kron(A, B^T) vec(X)."""
    p = a.p
    return Mat(p, a.rows * b.rows, a.cols * b.cols,
               [a.entry(i, j) * b.entry(k, l) % p
                for i in range(a.rows) for k in range(b.rows)
                for j in range(a.cols) for l in range(b.cols)])


def dual_chain_map(f: ChainMap) -> ChainMap:
    """The k-dual D(f): D(y) -> D(x) of a chain map f: x -> y, between
    the linked duals of its ends over the opposite algebra."""
    src = dual_complex(f.target)
    tgt = dual_complex(f.source)
    comps = {i: dual_map(f.component(-i))
             for i in range(min(src.lo, tgt.lo), max(src.hi, tgt.hi) + 1)}
    return ChainMap(src, tgt, comps)


def injective_module(alg: Algebra, pos: int) -> Module:
    """The injective envelope of the simple at an idempotent, realized
    as the dual of the opposite projective."""
    return dual_module(projective_module(opposite_algebra(alg), pos))


def arrow_blocks(m: Module) -> tuple[tuple[int, ...], dict[int, Mat]]:
    """Inverse of `modules.module_from_vertex_data`, in idempotent-adapted
    coordinates: the vertex dimensions and one block per presentation
    arrow.  Only valid for modules built by that front end."""
    alg = m.algebra
    dims = m.vertex_dims()
    off = [0]
    for d in dims:
        off.append(off[-1] + d)
    blocks = {}
    for b in presentation_arrows(alg):
        s, t = alg.endpoints[b]
        rows = []
        for i in range(off[t], off[t + 1]):
            rows.append(tuple(m.action[b].entry(i, j)
                              for j in range(off[s], off[s + 1])))
        blocks[b] = Mat.from_rows(alg.field.p, rows, cols=dims[s])
    return dims, blocks


def a3_with_zero_relation() -> Algebra:
    """Linear A3, 1 --a--> 2 --b--> 3 over F_2, with the path b*a set to
    zero.  The syzygy of the simple at e_1 is the radical of its
    projective cover, the simple at e_2, which is not projective: global
    dimension two."""
    labels = ("e_1", "e_2", "e_3", "a", "b")
    mult = [[() for _ in labels] for _ in labels]
    for i in range(3):
        mult[i][i] = ((i, 1),)
    mult[1][3] = mult[3][0] = ((3, 1),)  # e_2 a = a = a e_1
    mult[2][4] = mult[4][1] = ((4, 1),)  # e_3 b = b = b e_2
    return Algebra(Field(2), labels, mult, (1, 1, 1, 0, 0), (0, 1, 2), (3, 4))


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """A module of perfbench/, imported read only."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def counting(calls: dict, name: str, fn):
    """fn, adding one to calls[name] on every call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def equality_calls(classes, run) -> dict[str, int]:
    """The number of `__eq__` calls on each of the classes, by class
    name, while run() runs; each class gets its own `__eq__` back."""
    calls = dict.fromkeys((cls.__name__ for cls in classes), 0)
    real = {cls: vars(cls)["__eq__"] for cls in classes}
    try:
        for cls in classes:
            cls.__eq__ = counting(calls, cls.__name__, real[cls])
        run()
    finally:
        for cls in classes:
            cls.__eq__ = real[cls]
    return calls


def _run_fresh(flags: list[str], script: str, *args: str) -> bytes:
    """The standard output of script, run with args in a fresh
    interpreter under flags, with quivertilt and the test files (which
    import from conftest, beside them) on its path and a fixed string
    hash seed."""
    src = str(Path(quivertilt.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(Path(__file__).resolve().parent)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, *flags, "-c", script, *args],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def fresh_stdout(script: str) -> str:
    """The standard output of script in a fresh interpreter."""
    return _run_fresh([], script).decode()


def raised_without_asserts(path: str, helper: str, error: str) -> bytes:
    """Run the function helper of the test file at path under python -O
    and return the message of the exception named error that it raises;
    a guard written as an assert, which -O strips, would raise nothing."""
    script = ("import runpy, sys\n"
              "ns = runpy.run_path(sys.argv[1])\n"
              "try:\n"
              "    ns[sys.argv[2]]()\n"
              "except ns[sys.argv[3]] as exc:\n"
              "    print(exc)\n")
    return _run_fresh(["-O"], script, path, helper, error)


def returned_fresh(path: str, helper: str, *flags: str):
    """What the function helper of the test file at path returns, a
    JSON value, when it runs in a fresh interpreter under flags: no
    cache or intern table is filled by another test."""
    script = ("import json, runpy, sys\n"
              "ns = runpy.run_path(sys.argv[1])\n"
              "print(json.dumps(ns[sys.argv[2]]()))\n")
    return json.loads(_run_fresh(list(flags), script, path, helper))


# -- derived-morphism arithmetic, for the chain-map references ----------------

def derived_zero(source: Complex, target: Complex) -> DerivedMorphism:
    res, _ = projective_resolution(source)
    return DerivedMorphism(source, target, ChainMap.zero(res, target))


def derived_is_zero(f: DerivedMorphism) -> bool:
    return is_null_homotopic(f.rep)


def hom_element(hom: DerivedHom, coeffs) -> DerivedMorphism:
    """The combination of the hom space's basis with the coefficients."""
    vec = combine(hom.grid.p, hom.grid.dim, coeffs, hom.rep_coords)
    return DerivedMorphism(hom.source, hom.target, ChainMap(
        hom.resolution, hom.target, hom.grid.comps_from(vec)))


def hom_preimage(hom: DerivedHom, into: DerivedHom, fn,
                 target: DerivedMorphism):
    """An element g of hom with fn(g) = target in into, or None; fn must
    be linear.  Solved in the class coordinates of into."""
    p = hom.grid.p
    cols = [into.class_coords(fn(b)) for b in hom.basis()]
    a = Mat.from_cols(p, cols, into.dim)
    sol = solve(a, Mat(p, into.dim, 1, into.class_coords(target)))
    return None if sol is None else hom_element(hom, sol.col(0))


# -- functors on derived morphisms, the reference for the heart certificate --

def transport_exact(fun, m: DerivedMorphism) -> DerivedMorphism:
    """Image of a derived morphism under an exact additive functor: fun
    of the representative after the lift of the resolution comparison of
    fun(m.source) through fun of the comparison of m.source."""
    _, comparison = projective_resolution(m.source)
    f_cmp = apply_functor_map(fun, comparison)
    assert is_quasi_iso(f_cmp), "functor failed to preserve the resolution"
    _, cmp2 = projective_resolution(f_cmp.target)
    lifted = lift_postcompose(f_cmp, cmp2)
    f_rep = apply_functor_map(fun, m.rep)
    return DerivedMorphism(f_cmp.target, f_rep.target, f_rep.compose(lifted))


def l_heart_map(hctx, m: DerivedMorphism) -> DerivedMorphism:
    """The corner functor of a heart context on a heart morphism."""
    return transport_exact(hctx.base.restriction, m)


def j_heart_map(hctx, f: DerivedMorphism) -> DerivedMorphism:
    """The left section of a colocalization context on a corner heart
    morphism: f lifted into the resolution of its target, sent up by j,
    and cut to heart cohomology."""
    _, comparison = projective_resolution(f.target)
    g = lift_postcompose(comparison, f.rep)
    lifted = apply_functor_map(hctx.base.j, g)
    return DerivedMorphism.from_chain_map(h0_lower_map(hctx.ts_d, lifted))


# -- the chain-map reference for the split deciders --------------------------

class ChainMapCone(heart._HeartCone):
    """A chain-map cone with the walk's five questions, so that
    `heart._heart_exact_sequence` walks it as a `_SplitCone`; an inner
    node asks g f = 0 and that ker g dies in coker f."""

    @cached_property
    def source_is_zero(self) -> bool:
        return is_heart_zero(self.m.source)

    @cached_property
    def target_is_zero(self) -> bool:
        return is_heart_zero(self.m.target)

    @property
    def kernel_is_zero(self) -> bool:
        return is_heart_zero(self.kernel[0])

    @property
    def cokernel_is_zero(self) -> bool:
        return is_heart_zero(self.cokernel[0])

    def exact_after(self, f: "ChainMapCone") -> bool:
        if not derived_is_zero(self.m.compose(f.m)):
            return False
        _, kincl = self.kernel
        _, cproj = f.cokernel
        return derived_is_zero(cproj.compose(kincl))


def heart_walk(ts, maps: list[DerivedMorphism]) -> bool:
    """The library's exactness walk over one chain-map cone per map."""
    return heart._heart_exact_sequence([ChainMapCone(ts, m) for m in maps])


def heart_ses_ok(ts, f: DerivedMorphism, g: DerivedMorphism) -> bool:
    """Heart-exactness of 0 -> X -f-> Y -g-> Z -> 0 for derived morphisms,
    walked through the truncated cones of chain maps."""
    return heart_walk(ts, [f, g])


def is_heart_mono(ts, m: DerivedMorphism) -> bool:
    return ChainMapCone(ts, m).kernel_is_zero


def is_heart_epi(ts, m: DerivedMorphism) -> bool:
    return ChainMapCone(ts, m).cokernel_is_zero


def heart_exact_at(ts, f: DerivedMorphism, g: DerivedMorphism) -> bool:
    """Exactness of a composable heart pair at the middle object: g f = 0
    puts the image of f inside the kernel of g, and the kernel of g lies
    inside the image of f exactly when it dies in the cokernel of f."""
    return ChainMapCone(ts, g).exact_after(ChainMapCone(ts, f))


def factor_through_mono(mono: DerivedMorphism,
                        f: DerivedMorphism) -> DerivedMorphism:
    """The morphism g with mono . g = f, solved in hom coordinates."""
    if mono.target != f.target:
        raise ValueError("factoring needs a common target")
    g = hom_preimage(derived_hom0(f.source, mono.source),
                     derived_hom0(f.source, f.target), mono.compose, f)
    assert g is not None, "morphism does not factor through the mono"
    assert mono.compose(g).equals(f)
    return g


def factor_through_epi(epi: DerivedMorphism,
                       f: DerivedMorphism) -> DerivedMorphism:
    """The morphism g with g . epi = f, solved in hom coordinates."""
    if epi.source != f.source:
        raise ValueError("factoring needs a common source")
    g = hom_preimage(derived_hom0(epi.target, f.target),
                     derived_hom0(epi.source, f.target),
                     lambda b: b.compose(epi), f)
    assert g is not None, "morphism does not factor through the epi"
    assert g.compose(epi).equals(f)
    return g


def heart_is_isomorphic(x: Complex, y: Complex) -> bool:
    """Whether two complexes are isomorphic in the derived category: over
    a hereditary algebra each is the sum of its shifted cohomologies, so
    exactly when those are isomorphic degree by degree.  Raises
    NotHereditary on an algebra of global dimension above one."""
    _check_hereditary(x.algebra)
    seen: dict[Module, Module] = {}
    return _cohomology_key(x, seen) == _cohomology_key(y, seen)


@dataclass(frozen=True)
class HeartDecomposition:
    """The canonical sequence 0 -> H^-1(x)[1] -> x -> H^0(x)[0] -> 0 of
    a heart object, with plain cohomology."""

    tor: Complex
    t_incl: DerivedMorphism
    quo: Complex
    q_proj: DerivedMorphism


def heart_decompose(ts, x: Complex) -> HeartDecomposition:
    if x.components and (x.lo < -1 or x.hi > 0):
        raise ValueError("expected a two-term complex in degrees [-1, 0]")
    if not ts.in_heart(x):
        raise ValueError("complex does not lie in the heart")
    d = x.diff(-1)
    kmod, kincl = kernel(d)
    tor = one_term(kmod, 1)
    hmod, hproj = cokernel(d)
    quo = one_term(hmod)
    return HeartDecomposition(
        tor, DerivedMorphism.from_chain_map(ChainMap(tor, x, {-1: kincl})),
        quo, DerivedMorphism.from_chain_map(ChainMap(x, quo, {0: hproj})))


def chain_map_tilted_pair_report(ts, uni, dim_bound: int = 3) -> PairReport:
    """tilted_pair_report on the class representatives as complexes, each
    decomposition walked as derived morphisms."""
    failures = []
    for k, x in enumerate(heart_class_reps(ts, uni, dim_bound)):
        dec = heart_decompose(ts, x)
        if not heart_ses_ok(ts, dec.t_incl, dec.q_proj):
            failures.append(f"decomposition of heart object #{k} "
                            "is not exact")
    return PairReport(not failures, tuple(failures))


# -- references for the corner and torsion layers -----------------------------

def dl_commutation_report(hctx, complexes: list[Complex]) -> PairReport:
    """The corner functor of a localization context commutes with both
    truncations and with heart cohomology on the given complexes: the
    truncation subobjects agree levelwise, and the cohomologies are
    isomorphic."""
    failures: list[str] = []
    for k, c in enumerate(complexes):
        lc = apply_functor(hctx.base.l, c)
        up, up_incl = truncate_le0(hctx.ts_d, c)
        down, down_incl = truncate_le0(hctx.ts_c, lc)
        l_up = apply_functor(hctx.base.l, up)
        l_incl = apply_functor_map(hctx.base.l, up_incl)
        for i in range(min(l_up.lo, down.lo), max(l_up.hi, down.hi) + 1):
            if (l_up.component(i).dim != down.component(i).dim
                    or image_basis(l_incl.component(i).mat)
                    != image_basis(down_incl.component(i).mat)):
                failures.append(f"low truncations of #{k} differ "
                                f"in degree {i}")
                break
        for i in (-1, 0, 1):
            a = apply_functor(hctx.base.l, t_cohomology(hctx.ts_d, c, i))
            b = t_cohomology(hctx.ts_c, lc, i)
            if not heart_is_isomorphic(a, b):
                failures.append(f"heart cohomology of #{k} does not "
                                f"commute in degree {i}")
    return PairReport(not failures, tuple(failures))


def hat_decompose(ctx, pair_c: TorsionPair, m: Module) -> ShortExactSeq:
    """Decomposition of m for the pair pulled back along a localization,
    realized as the fiber product of i(t(l m)) -> i(l m) <- m: the
    paper's witness, the reference for `giraud.hat_pair`."""
    lm = ctx.l.apply(m)
    t_sub = trace_subspace(pair_c.torsion.generators, lm)
    tmod, t_incl = submodule_from_subspace(lm, t_sub)
    it_incl = ctx.i.apply_map(t_incl)
    eta = ctx.unit(m)
    x, p_t, p_m = fiber_product(it_incl, eta)
    assert p_m.is_injective(), "fiber product failed to embed in m"
    return ses_from_submodule(m, image_basis(p_m.mat))


def self_test(pair: TorsionPair, uni: ModuleUniverse) -> PairReport:
    """Check the trace/reject implementation against the pair axioms.

    Sweeps every member of the universe: hom-orthogonality and mutual
    maximality member by member, the canonical decomposition of every
    nonzero member, closure of the torsion class under quotients and
    extensions, and closure of the free class under submodules and
    extensions.  These hold by construction for any pair that
    ``is_torsion_pair`` accepts on the indecomposables, so a failure
    here is a fault of ``trace_subspace``/``reject_subspace``, of the
    decomposition or of membership, not of the pair.  Exhaustive and
    slow; it is a test oracle, not a decision.
    """
    sig = uni.signature
    members = uni.nonzero_members()
    t_mem = [m for m in members if pair.in_torsion(m)]
    f_mem = [m for m in members if pair.in_free(m)]
    failures = [f"hom-orthogonality: Hom({sig(a)}, {sig(b)}) != 0"
                for a in t_mem for b in f_mem if hom_dim(a, b) != 0]
    for m in members:
        if pair.in_torsion(m) != all(hom_dim(m, b) == 0 for b in f_mem):
            failures.append(f"torsion maximality fails at {sig(m)}")
        if pair.in_free(m) != all(hom_dim(a, m) == 0 for a in t_mem):
            failures.append(f"free maximality fails at {sig(m)}")
    for m in members:
        ses = pair.decompose(m)
        if not pair.in_torsion(ses.sub):
            failures.append(f"decomposition: trace part of {sig(m)} "
                            "not torsion")
        if not pair.in_free(ses.quot):
            failures.append(f"decomposition: trace quotient of {sig(m)} "
                            "not free")
    failures += [f"torsion class not closed under quotients at {sig(m)}"
                 for m in t_mem
                 if not all(pair.in_torsion(quotient_by_subspace(m, s)[0])
                            for s in enumerate_submodules(m))]
    failures += [f"free class not closed under submodules at {sig(m)}"
                 for m in f_mem
                 if not all(pair.in_free(submodule_from_subspace(m, s)[0])
                            for s in enumerate_submodules(m))]
    for name, mem, inside in (("torsion", t_mem, pair.in_torsion),
                              ("free", f_mem, pair.in_free)):
        failures += [f"{name} class not closed under extensions "
                     f"({sig(a)} by {sig(b)})" for a in mem for b in mem
                     if not all(map(inside, all_extension_middles(a, b)))]
    return PairReport(not failures, tuple(failures))
