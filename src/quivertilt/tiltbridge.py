"""Heart-level localization along a corner idempotent.

An exact corner functor that matches a compatible torsion pair upstairs
with its pushed pair downstairs descends to an exact functor between
the tilted hearts.  Its left section is left-derived, through
projective resolutions only, and the right section on objects is its
conjugate by Phi(x) = D(x)[1], which carries the heart of (T, F) onto the
opposite of the heart of (DF, DT) over the opposite algebra, and the
localization at a corner onto the colocalization at the same corner of
the opposite algebra (`HeartGiraudContext.dual`).  Everything the
construction promises -- the counit or unit being invertible, full
faithfulness of the section, adjunction hom spaces matching, the kernel
on hearts being a Serre class, and the original corner datum being
recoverable from the heart datum -- is checked exhaustively over
enumerated universes.

Over the hereditary algebras certified here every heart object is
F[1] + T (Happel-Reiten-Smalo), and the exact corner functor acts on it
part by part, so `verify_heart_quotient` and `reconstruct_serre` read
their facts off module pairs: F and T die in the corner, the preimage
of a corner object (F, T) is (f(iF), t(iT)), and canonical sequences
are walked in split form; the tests check its commutation with
truncation on sampled complexes.  The sections and the adjunction
certificate still work on complexes and chain maps; the certificate
lifts each unit and each corner morphism once, and composes chain maps.

The adjunction certificate has one reading, the colocalization's: the
left section with its action on maps and the unit.  A localization is
certified as the colocalization of its dual context.  Phi is an
anti-equivalence that keeps total dimension, so it matches the heart
classes within a bound one to one and carries each check of the
localization onto the matching check of the dual; the right section
has no action on maps and no counit of its own.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

from .algebras import opposite_algebra
from .complexes import (
    ChainMap,
    Complex,
    apply_functor,
    apply_functor_map,
    cohomology,
    is_quasi_iso,
)
from .derived import (
    DerivedMorphism,
    derived_hom0,
    derived_hom_dim,
    dual_complex,
    lift_postcompose,
    projective_resolution,
)
from .enumeration import (
    ModuleUniverse,
    enumerate_submodules,
    is_isomorphic,
    universe,
)
from .giraud import (
    AnyGiraudContext,
    CoGiraudContext,
    GiraudContext,
    opposite_colocalization,
    push_pair,
)
from .heart import (
    InducedTStructure,
    h0_lower,
    h0_lower_map,
    heart_class_pairs,
    heart_class_reps,
    heart_decomposition_ok,
    induced_t_structure,
    one_term,
)
from .linalg import Mat, rank
from .modules import Module, ses_from_submodule
from .torsion import PairReport, TorsionPair, is_torsion_pair, trace_subspace

# -- contexts ---------------------------------------------------------------

class HeartGiraudContext:
    """A corner localization or colocalization descended to tilted
    hearts.  No __slots__: the cached properties keep their values in
    the instance __dict__."""

    def __init__(self, base: AnyGiraudContext, pair_d: TorsionPair,
                 pair_c: TorsionPair):
        self.base = base
        self.pair_d = pair_d
        self.pair_c = pair_c

    @cached_property
    def ts_d(self) -> InducedTStructure:
        return induced_t_structure(self.pair_d)

    @cached_property
    def ts_c(self) -> InducedTStructure:
        return induced_t_structure(self.pair_c)

    @cached_property
    def dual(self) -> HeartGiraudContext:
        """For a localization: the colocalization at the same corner of
        the opposite algebra, for the dual pairs (DF, DT).  Its base's
        `dual` is this context's base, so it shares the section functor."""
        _require_side(self, GiraudContext, "dual")
        co = opposite_colocalization(self.base)
        return HeartGiraudContext(co, self.pair_d.dual(), self.pair_c.dual())


def heart_giraud_context(ctx: AnyGiraudContext, pair_d: TorsionPair,
                         uni_d: ModuleUniverse, uni_c: ModuleUniverse,
                         ) -> HeartGiraudContext:
    """Validate compatibility of the pair and set up both hearts."""
    pushed = push_pair(ctx, pair_d, uni_d, uni_c)
    if not pushed.ok:
        raise ValueError(pushed.witness or "pushed classes are not a pair")
    return HeartGiraudContext(ctx, pair_d, pushed.pair)


_SIDE_NAMES = {GiraudContext: "localization",
               CoGiraudContext: "colocalization"}


def _require_side(hctx: HeartGiraudContext, side: type, fn: str) -> None:
    """Reject a context of the other side before fn reaches for the
    functors that only one side has."""
    if not isinstance(hctx.base, side):
        raise ValueError(f"{fn} needs a {_SIDE_NAMES[side]} context")


# -- the exact descent ------------------------------------------------------

def l_heart(hctx: HeartGiraudContext, x: Complex) -> Complex:
    """Levelwise corner functor (l or r) on a heart object."""
    c = apply_functor(hctx.base.restriction, x)
    assert hctx.ts_c.in_heart(c), "corner image left the heart"
    return c


# -- the right section on hearts --------------------------------------------
#
# Phi shifts without the sign on the differentials: projective resolutions
# commute with that on the nose, so i_heart lands on the very complexes
# an injective coresolution gives.  Phi is its own inverse.

def _phi(x: Complex) -> Complex:
    d = dual_complex(x)
    return Complex(d.algebra, d.lo - 1, d.components, d.diffs)


def i_heart(hctx: HeartGiraudContext, n: Complex) -> Complex:
    """The right adjoint of the descended corner functor: Phi of the
    left section of the dual context at Phi(n)."""
    _require_side(hctx, GiraudContext, "i_heart")
    return _phi(j_heart(hctx.dual, _phi(n)))


# -- the left section on hearts ---------------------------------------------

def j_heart(hctx: HeartGiraudContext, n: Complex) -> Complex:
    """Heart cohomology of the left-derived section: the left adjoint
    of the descended corner functor."""
    _require_side(hctx, CoGiraudContext, "j_heart")
    res, _ = projective_resolution(n)
    lifted = apply_functor(hctx.base.j, res)
    h = h0_lower(hctx.ts_d, lifted).h
    assert hctx.ts_d.in_heart(h)
    return h


def heart_co_unit(hctx: HeartGiraudContext,
                  n: Complex) -> DerivedMorphism:
    """The coinsertion n -> r(j_heart(n)); invertible over a
    colocalization context."""
    _require_side(hctx, CoGiraudContext, "heart_co_unit")
    base = hctx.base
    res, _ = projective_resolution(n)
    lifted = apply_functor(base.j, res)
    data = h0_lower(hctx.ts_d, lifted)
    r_h = apply_functor(base.r, data.h)
    r_proj = apply_functor_map(base.r, data.proj)
    r_incl = apply_functor_map(base.r, data.incl)
    insert = ChainMap(res, apply_functor(base.r, lifted),
                      {k: base.unit(res.component(k))
                       for k in range(res.lo, res.hi + 1)})
    assert is_quasi_iso(r_incl), \
        "corner functor must collapse the low truncation"
    z = lift_postcompose(r_incl, insert)
    return DerivedMorphism(n, r_h, r_proj.compose(z))


# The stalks of the class that is not cut down, for the messages: the
# torsion class of a localization, the free class of a colocalization.
_STALKS = (("torsion stalk", "torsion stalks"),
           ("shifted stalk", "shifted free stalks"))


def s_heart_membership(hctx: HeartGiraudContext, f: Module,
                       t: Module) -> bool:
    """Whether the heart object F[1] + T dies in the corner heart: the
    corner functor kills both of its parts."""
    _require_side(hctx, GiraudContext, "s_heart_membership")
    return hctx.base.in_s(f) and hctx.base.in_s(t)


def _has_preimage(hctx: HeartGiraudContext, f: Module, t: Module) -> bool:
    """Whether the constructed preimage of the corner object F[1] + T,
    the heart cohomology (f(iF), t(iT)) of its levelwise section, comes
    back to it under the corner functor, part by part."""
    base, pair = hctx.base, hctx.pair_d
    up_f = pair.decompose(base.i.apply(f)).quot
    up_t = pair.decompose(base.i.apply(t)).sub
    return (is_isomorphic(base.l.apply(up_f), f)
            and is_isomorphic(base.l.apply(up_t), t))


# -- verification: the descended localization -------------------------------

def _bijective(p: int, columns: list[tuple[int, ...]], dim: int) -> bool:
    if len(columns) != dim:
        return False
    if dim == 0:
        return True
    a = Mat.from_rows(p, columns, cols=dim)
    return rank(a) == dim


def verify_heart_giraud(hctx: HeartGiraudContext, uni_d: ModuleUniverse,
                        uni_c: ModuleUniverse, dim_bound: int = 3,
                        ) -> PairReport:
    """Exhaustive certificate that the descended context is a
    localization, of the hearts or of their opposites: adjunction hom
    spaces match through the explicit transpose, the counit (the unit of
    a colocalization) is a natural isomorphism, the section is fully
    faithful, and the composite section of a stalk of the class that is
    not cut down stays such a stalk.

    A localization is certified as the colocalization of its dual
    context over the opposite universes, so the `#k` and `(a,b)` of its
    failures index the dual's class lists; the stalk check reads the
    context itself."""
    name = hctx.base.adjunction
    if isinstance(hctx.base, GiraudContext):
        failures = _certify(
            hctx.dual, universe(opposite_algebra(uni_d.algebra),
                                uni_d.dim_bound),
            universe(opposite_algebra(uni_c.algebra), uni_c.dim_bound),
            dim_bound, name)
    else:
        failures = _certify(hctx, uni_d, uni_c, dim_bound, name)
    failures += _stalk_failures(hctx, uni_d)
    return PairReport(not failures, tuple(failures))


def _transposer(hctx: HeartGiraudContext, unit: DerivedMorphism,
                ) -> Callable[[DerivedMorphism], DerivedMorphism]:
    """f -> r(f) . unit on the heart morphisms f out of the section that
    unit maps into r of: r(f.rep) after unit lifted through r of the
    resolution comparison of f.source, once per source, when first met."""
    r = hctx.base.restriction
    lifts: dict[Complex, ChainMap] = {}

    def transpose(f: DerivedMorphism) -> DerivedMorphism:
        z = lifts.get(f.source)
        if z is None:
            _, comparison = projective_resolution(f.source)
            z = lifts[f.source] = lift_postcompose(
                apply_functor_map(r, comparison), unit.rep)
        r_f = apply_functor_map(r, f.rep)
        return DerivedMorphism(unit.source, r_f.target, r_f.compose(z))
    return transpose


def _section_image(hctx: HeartGiraudContext, g: ChainMap) -> DerivedMorphism:
    """The left section of a corner heart morphism, given as a chain map
    g between the projective resolutions of its ends: the heart
    cohomology of j(g)."""
    lifted = apply_functor_map(hctx.base.j, g)
    return DerivedMorphism.from_chain_map(h0_lower_map(hctx.ts_d, lifted))


def _certify(hctx: HeartGiraudContext, uni_d: ModuleUniverse,
             uni_c: ModuleUniverse, dim_bound: int, name: str) -> list[str]:
    """The adjunction checks of a colocalization context, read in the
    opposite categories, where it is a localization: homs are reversed,
    and the unit n -> r(j_heart(n)) plays the counit's part."""
    p = uni_d.algebra.field.p
    failures: list[str] = []
    ups = heart_class_reps(hctx.ts_d, uni_d, dim_bound)
    downs = heart_class_reps(hctx.ts_c, uni_c, dim_bound)

    units = [heart_co_unit(hctx, n) for n in downs]
    for k, eta in enumerate(units):
        if not eta.is_iso():
            failures.append(f"{name} at corner object #{k} is not invertible")
    sections = [j_heart(hctx, n) for n in downs]
    transposes = [_transposer(hctx, eta) for eta in units]

    for a, x in enumerate(ups):
        lx = l_heart(hctx, x)
        for b, (n, sec) in enumerate(zip(downs, sections)):
            hom_up = derived_hom0(sec, x)
            hom_down = derived_hom0(n, lx)
            if hom_up.dim != hom_down.dim:
                failures.append(f"adjunction dimensions differ at ({a},{b})")
                continue
            cols = [hom_down.class_coords(transposes[b](f))
                    for f in hom_up.basis()]
            if not _bijective(p, cols, hom_up.dim):
                failures.append(f"adjunction transpose at ({a},{b}) "
                                "is not bijective")

    for a, (n, sec) in enumerate(zip(downs, sections)):
        _, comparison = projective_resolution(n)
        for b, (n2, sec2) in enumerate(zip(downs, sections)):
            hom_n = derived_hom0(n2, n)
            # Each basis morphism n2 -> n, lifted into the resolution of
            # n, gives both its section image and unit . f.
            lifts = [lift_postcompose(comparison, f) for f in hom_n.reps]
            images = [_section_image(hctx, g) for g in lifts]
            up = derived_hom0(sec2, sec)
            if up.dim != hom_n.dim or not _bijective(
                    p, [up.class_coords(g) for g in images], hom_n.dim):
                failures.append(f"section is not fully faithful at ({a},{b})")
            for g, image in zip(lifts, images):
                rhs = DerivedMorphism(n2, units[a].target,
                                      units[a].rep.compose(g))
                if not transposes[b](image).equals(rhs):
                    failures.append(f"{name} is not natural at ({a},{b})")
                    break
    return failures


def _stalk_failures(hctx: HeartGiraudContext,
                    uni_d: ModuleUniverse) -> list[str]:
    """The members of the class that is not cut down whose stalk, sent
    to the corner and back by the section, is no longer such a stalk."""
    # That class has index k, and its members sit in the heart as
    # stalks in degree -k.
    k = 1 - hctx.base.constrained
    section = i_heart if isinstance(hctx.base, GiraudContext) else j_heart
    failures: list[str] = []
    for m in uni_d.nonzero_members():
        if not hctx.pair_d.in_class(k, m):
            continue
        back = section(hctx, l_heart(hctx, one_term(m, k)))
        if cohomology(back, k - 1).dim != 0 \
                or not hctx.pair_d.in_class(k, cohomology(back, -k)):
            stalk, stalks = _STALKS[k]
            failures.append(f"section of a collapsed {stalk} left the "
                            f"{stalks} at {uni_d.signature(m)}")
    return failures


# -- verification: exactness, surjectivity, the Serre kernel -----------------

def verify_heart_quotient(hctx: HeartGiraudContext, uni_d: ModuleUniverse,
                          uni_c: ModuleUniverse, dim_bound: int = 3,
                          ) -> PairReport:
    """The descended functor is exact and essentially surjective: it
    keeps the canonical heart-exact sequences 0 -> F[1] -> F[1] + T ->
    T -> 0 of the nonzero classes exact, with no Ext part to transport,
    and every corner class has a constructed preimage.  Its kernel
    holds F[1] + T exactly when it holds F and T, so two-out-of-three
    on these sequences holds by definition; `reconstruct_serre` checks
    that the kernel is Serre."""
    _require_side(hctx, GiraudContext, "verify_heart_quotient")
    corner = hctx.base.l
    failures: list[str] = []
    ups = [(f, t) for f, t in heart_class_pairs(hctx.ts_d, uni_d, dim_bound)
           if f.dim or t.dim]
    for k, (f, t) in enumerate(ups):
        if not heart_decomposition_ok(hctx.ts_c, corner.apply(f),
                                      corner.apply(t)):
            failures.append(f"descended functor broke exactness of "
                            f"sequence #{k}")

    for k, (f, t) in enumerate(heart_class_pairs(hctx.ts_c, uni_c,
                                                 dim_bound)):
        if not _has_preimage(hctx, f, t):
            failures.append(f"no constructed preimage for corner "
                            f"object #{k}")
    return PairReport(not failures, tuple(failures))


# -- verification: reconstruction of the corner datum -------------------------

class ReconstructionReport:
    """Roundtrip evidence: the kernel class recovered from the heart
    datum, the pair it induces on the corner, and the per-claim
    verdicts."""

    __slots__ = ("membership", "recovered_pair", "hom_table",
                 "kernel_is_serre", "pair_recovered", "equivalence_holds",
                 "context_recovered", "free_class_generates", "matches_kernel")

    def __init__(self, membership: tuple[bool, ...],
                 recovered_pair: TorsionPair,
                 hom_table: tuple[tuple[int, ...], ...],
                 kernel_is_serre: bool, pair_recovered: bool,
                 equivalence_holds: bool, context_recovered: bool,
                 free_class_generates: bool, matches_kernel: bool):
        self.membership = membership
        self.recovered_pair = recovered_pair
        self.hom_table = hom_table
        self.kernel_is_serre = kernel_is_serre
        self.pair_recovered = pair_recovered
        self.equivalence_holds = equivalence_holds
        self.context_recovered = context_recovered
        self.free_class_generates = free_class_generates
        self.matches_kernel = matches_kernel

    @property
    def ok(self) -> bool:
        roundtrip = self.context_recovered or not self.free_class_generates
        return (self.kernel_is_serre and self.pair_recovered
                and self.equivalence_holds and roundtrip
                and self.matches_kernel)


def _recovered_member(hctx: HeartGiraudContext, m: Module) -> bool:
    """Membership in the class recovered from the heart datum: the heart
    cohomologies t(m) and f(m)[1] of the stalk m, the parts of the heart
    object f(m)[1] + t(m), die in the corner heart."""
    dec = hctx.pair_d.decompose(m)
    return s_heart_membership(hctx, dec.quot, dec.sub)


def reconstruct_serre(hctx: HeartGiraudContext, uni_d: ModuleUniverse,
                      uni_c: ModuleUniverse, dim_bound: int = 3,
                      ) -> ReconstructionReport:
    """Recover the corner datum from the heart-level one and certify
    the roundtrip claims on the enumerated universes."""
    _require_side(hctx, GiraudContext, "reconstruct_serre")
    base = hctx.base
    stalks = _stalk_failures(hctx, uni_d)
    if stalks:
        raise ValueError(f"compatibility hypothesis fails: {stalks[0]}")

    membership = tuple(_recovered_member(hctx, m) for m in uni_d.members)
    matches = all(got == base.in_s(m)
                  for got, m in zip(membership, uni_d.members))

    serre = True
    for m, whole in zip(uni_d.members, membership):
        for sub in enumerate_submodules(m):
            if sub.dim in (0, m.dim):
                continue
            ses = ses_from_submodule(m, sub)
            parts = (_recovered_member(hctx, ses.sub)
                     and _recovered_member(hctx, ses.quot))
            if whole != parts:
                serre = False
                break
        if not serre:
            break

    pair_ok = is_torsion_pair(hctx.pair_c, uni_c).ok

    ups = heart_class_reps(hctx.ts_d, uni_d, dim_bound)
    onto = all(_has_preimage(hctx, f, t)
               for f, t in heart_class_pairs(hctx.ts_c, uni_c, dim_bound))
    images = [l_heart(hctx, x) for x in ups]
    sections = [i_heart(hctx, img) for img in images]
    table = []
    tables_match = True
    for x, img_x in zip(ups, images):
        row = []
        for img_y, sec_y in zip(images, sections):
            down_dim = derived_hom_dim(img_x, img_y)
            row.append(down_dim)
            if down_dim != derived_hom_dim(x, sec_y):
                tables_match = False
        table.append(tuple(row))
    equivalence = onto and tables_match

    f_gens = hctx.pair_d.free.generators
    generates = all(
        trace_subspace(f_gens, m).dim == m.dim for m in uni_d.members)
    # The context round trip, part by part: l t(m) = t_c(l m) and
    # l f(m) = f_c(l m).
    context_ok = True
    for m in uni_d.nonzero_members():
        dec = hctx.pair_d.decompose(m)
        dec_c = hctx.pair_c.decompose(base.l.apply(m))
        if not (is_isomorphic(base.l.apply(dec.sub), dec_c.sub)
                and is_isomorphic(base.l.apply(dec.quot), dec_c.quot)):
            context_ok = False
            break

    return ReconstructionReport(membership, hctx.pair_c, tuple(table),
                                serre, pair_ok, equivalence,
                                context_ok, generates, matches)
