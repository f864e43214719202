"""Heart-level localization along a corner idempotent.

An exact corner functor that matches a compatible torsion pair upstairs
with its pushed pair downstairs descends to an exact functor between
the tilted hearts.  Its adjoint sections are left-derived, through
projective resolutions only: the right section is the conjugate of the
left one by Phi(x) = D(x)[1], which carries the heart of (T, F) onto the
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
are walked in split form.  The sections and the adjunction certificate
still work on complexes and chain maps.

A colocalization is read as a localization of the opposite category:
its homs and compositions are reversed, its unit plays the counit's
part, and the shifted free stalks play the torsion stalks' part.  So one
context class, one descended functor and one adjunction certificate
serve both sides; the side is data chosen when the context is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .complexes import (
    ChainMap,
    Complex,
    apply_functor,
    apply_functor_map,
    cohomology,
    is_quasi_iso,
)
from .derived import (
    DerivedHom,
    DerivedMorphism,
    derived_hom0,
    derived_hom_dim,
    dual_chain_map,
    dual_complex,
    lift_postcompose,
    projective_resolution,
    transport_exact,
)
from .enumeration import ModuleUniverse, enumerate_submodules, is_isomorphic
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
    heart_is_isomorphic,
    induced_t_structure,
    one_term,
    t_cohomology,
    truncate_le0,
)
from .linalg import Mat, image_basis, rank
from .modules import Module, ses_from_submodule
from .torsion import PairReport, TorsionPair, is_torsion_pair, trace_subspace

# -- contexts ---------------------------------------------------------------

@dataclass(frozen=True)
class HeartSide:
    """A side read as a localization: the section on hearts with its
    action on morphisms, the adjunction map that must be invertible,
    and the homs and composition (f after g) of the category that is
    localized -- the opposite one for a colocalization."""

    section: Callable[[HeartGiraudContext, Complex], Complex]
    section_map: Callable[[HeartGiraudContext, DerivedMorphism],
                          DerivedMorphism]
    adjunction: Callable[[HeartGiraudContext, Complex], DerivedMorphism]
    hom: Callable[[Complex, Complex], DerivedHom]
    after: Callable[[DerivedMorphism, DerivedMorphism], DerivedMorphism]


@dataclass
class HeartGiraudContext:
    """A corner localization or colocalization descended to tilted
    hearts."""

    base: AnyGiraudContext
    pair_d: TorsionPair
    pair_c: TorsionPair
    ts_d: InducedTStructure
    ts_c: InducedTStructure
    side: HeartSide

    @cached_property
    def dual(self) -> HeartGiraudContext:
        """For a localization: the colocalization at the same corner of
        the opposite algebra, for the dual pairs (DF, DT).  Its base's
        `dual` is this context's base, so it shares the section functor."""
        co = opposite_colocalization(self.base)
        pair_d, pair_c = self.pair_d.dual(), self.pair_c.dual()
        return HeartGiraudContext(co, pair_d, pair_c,
                                  induced_t_structure(pair_d),
                                  induced_t_structure(pair_c), _side_of(co))


def heart_giraud_context(ctx: AnyGiraudContext, pair_d: TorsionPair,
                         uni_d: ModuleUniverse, uni_c: ModuleUniverse,
                         ) -> HeartGiraudContext:
    """Validate compatibility of the pair and set up both hearts."""
    pushed = push_pair(ctx, pair_d, uni_d, uni_c)
    if not pushed.ok:
        raise ValueError(pushed.witness or "pushed classes are not a pair")
    return HeartGiraudContext(ctx, pair_d, pushed.pair,
                              induced_t_structure(pair_d),
                              induced_t_structure(pushed.pair),
                              _side_of(ctx))


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


def l_heart_map(hctx: HeartGiraudContext,
                m: DerivedMorphism) -> DerivedMorphism:
    return transport_exact(hctx.base.restriction, m)


def heart_unit(hctx: HeartGiraudContext, x: Complex) -> DerivedMorphism:
    """x -> i_heart(l_heart(x)), transposed through the adjunction from
    the identity of l_heart(x).  Read in the opposite category, for a
    colocalization this is the counit j_heart(r(x)) -> x.  Public as the
    one unit of the heart-level adjunction that serves both sides."""
    side = hctx.side
    lx = l_heart(hctx, x)
    hom_up = side.hom(x, side.section(hctx, lx))
    hom_down = side.hom(lx, lx)
    eps = side.adjunction(hctx, lx)
    ident = DerivedMorphism.from_chain_map(ChainMap.identity(lx))
    unit = hom_up.preimage(
        hom_down, lambda b: side.after(eps, l_heart_map(hctx, b)), ident)
    assert unit is not None, "identity is not in the adjunction image"
    return unit


# -- the right section on hearts --------------------------------------------
#
# Phi shifts without the sign on the differentials: projective resolutions
# commute with that on the nose, so i_heart lands on the very complexes
# an injective coresolution gives.  Phi is its own inverse.

def _phi(x: Complex) -> Complex:
    d = dual_complex(x)
    return Complex(d.algebra, d.lo - 1, d.components, d.diffs)


def _phi_chain(f: ChainMap) -> ChainMap:
    g = dual_chain_map(f)
    return ChainMap(_phi(f.target), _phi(f.source),
                    {g.lo + k - 1: c for k, c in enumerate(g.comps)})


def _phi_map(f: DerivedMorphism) -> DerivedMorphism:
    """Phi(f): Phi(y) -> Phi(x) for f: x -> y, lifted from Phi of the
    resolution of x through Phi of its comparison map."""
    fy = _phi(f.target)
    _, cmp_x = projective_resolution(f.source)
    _, cmp_y = projective_resolution(fy)
    v = _phi_chain(f.rep).compose(cmp_y)
    return DerivedMorphism(fy, _phi(f.source),
                           lift_postcompose(_phi_chain(cmp_x), v))


def i_heart(hctx: HeartGiraudContext, n: Complex) -> Complex:
    """The right adjoint of the descended corner functor: Phi of the
    left section of the dual context at Phi(n)."""
    _require_side(hctx, GiraudContext, "i_heart")
    return _phi(j_heart(hctx.dual, _phi(n)))


def i_heart_map(hctx: HeartGiraudContext,
                f: DerivedMorphism) -> DerivedMorphism:
    """Functorial image of a heart morphism under the right section."""
    _require_side(hctx, GiraudContext, "i_heart_map")
    return _phi_map(j_heart_map(hctx.dual, _phi_map(f)))


def heart_counit(hctx: HeartGiraudContext, n: Complex) -> DerivedMorphism:
    """The evaluation l_heart(i_heart(n)) -> n; invertible over a
    localization context.  Phi of the dual context's coinsertion at
    Phi(n), since D commutes with restriction on the nose."""
    _require_side(hctx, GiraudContext, "heart_counit")
    return _phi_map(heart_co_unit(hctx.dual, _phi(n)))


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


def j_heart_map(hctx: HeartGiraudContext,
                f: DerivedMorphism) -> DerivedMorphism:
    """Functorial image of a heart morphism under the left section."""
    _require_side(hctx, CoGiraudContext, "j_heart_map")
    _, cmp2 = projective_resolution(f.target)
    g = lift_postcompose(cmp2, f.rep)
    lifted = apply_functor_map(hctx.base.j, g)
    return DerivedMorphism.from_chain_map(h0_lower_map(hctx.ts_d, lifted))


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


def _op_hom(x: Complex, y: Complex) -> DerivedHom:
    return derived_hom0(y, x)


def _side_of(ctx: AnyGiraudContext) -> HeartSide:
    """The side of ctx read as a localization.  The table is built per
    call, so it holds the module's current bindings of its functions."""
    return {
        GiraudContext: HeartSide(i_heart, i_heart_map, heart_counit,
                                 derived_hom0, lambda f, g: f.compose(g)),
        CoGiraudContext: HeartSide(j_heart, j_heart_map, heart_co_unit,
                                   _op_hom, lambda f, g: g.compose(f)),
    }[type(ctx)]

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
    not cut down stays such a stalk."""
    side, name = hctx.side, hctx.base.adjunction
    hom, after = side.hom, side.after
    p = uni_d.algebra.field.p
    failures: list[str] = []
    ups = heart_class_reps(hctx.ts_d, uni_d, dim_bound)
    downs = heart_class_reps(hctx.ts_c, uni_c, dim_bound)

    adj = [side.adjunction(hctx, n) for n in downs]
    for k, eps in enumerate(adj):
        if not eps.is_iso():
            failures.append(f"{name} at corner object #{k} is not invertible")
    sections = [side.section(hctx, n) for n in downs]

    for a, x in enumerate(ups):
        lx = l_heart(hctx, x)
        for b, (n, sec) in enumerate(zip(downs, sections)):
            hom_up = hom(x, sec)
            hom_down = hom(lx, n)
            if hom_up.dim != hom_down.dim:
                failures.append(f"adjunction dimensions differ at ({a},{b})")
                continue
            cols = [hom_down.class_coords(after(adj[b], l_heart_map(hctx, f)))
                    for f in hom_up.basis()]
            if not _bijective(p, cols, hom_up.dim):
                failures.append(f"adjunction transpose at ({a},{b}) "
                                "is not bijective")

    for a, (n, sec) in enumerate(zip(downs, sections)):
        for b, (n2, sec2) in enumerate(zip(downs, sections)):
            hom_n = hom(n, n2)
            images = [side.section_map(hctx, f) for f in hom_n.basis()]
            up = hom(sec, sec2)
            if up.dim != hom_n.dim or not _bijective(
                    p, [up.class_coords(g) for g in images], hom_n.dim):
                failures.append(f"section is not fully faithful at ({a},{b})")
            for f, g in zip(hom_n.basis(), images):
                lhs = after(adj[b], l_heart_map(hctx, g))
                if not lhs.equals(after(f, adj[a])):
                    failures.append(f"{name} is not natural at ({a},{b})")
                    break

    failures += _stalk_failures(hctx, uni_d)
    return PairReport(not failures, tuple(failures))


def _stalk_failures(hctx: HeartGiraudContext,
                    uni_d: ModuleUniverse) -> list[str]:
    """The members of the class that is not cut down whose stalk, sent
    to the corner and back by the section, is no longer such a stalk."""
    # That class has index k, and its members sit in the heart as
    # stalks in degree -k.
    k = 1 - hctx.base.constrained
    failures: list[str] = []
    for m in uni_d.nonzero_members():
        if not hctx.pair_d.in_class(k, m):
            continue
        back = hctx.side.section(hctx, l_heart(hctx, one_term(m, k)))
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
    """The descended functor is exact and essentially surjective, and
    its kernel satisfies two-out-of-three on the canonical heart-exact
    sequences 0 -> F[1] -> F[1] + T -> T -> 0 of the nonzero classes.
    The corner functor takes that sequence of (F, T) to the one of
    (lF, lT), with no Ext part to transport."""
    _require_side(hctx, GiraudContext, "verify_heart_quotient")
    corner = hctx.base.l
    zero = Module.zero(uni_d.algebra)
    failures: list[str] = []
    ups = [(f, t) for f, t in heart_class_pairs(hctx.ts_d, uni_d, dim_bound)
           if f.dim or t.dim]
    for k, (f, t) in enumerate(ups):
        if not heart_decomposition_ok(hctx.ts_c, corner.apply(f),
                                      corner.apply(t)):
            failures.append(f"descended functor broke exactness of "
                            f"sequence #{k}")
        members = (s_heart_membership(hctx, f, zero),
                   s_heart_membership(hctx, f, t),
                   s_heart_membership(hctx, zero, t))
        if members[1] != (members[0] and members[2]):
            failures.append(f"kernel class fails two-out-of-three at "
                            f"sequence #{k}")

    for k, (f, t) in enumerate(heart_class_pairs(hctx.ts_c, uni_c,
                                                 dim_bound)):
        if not _has_preimage(hctx, f, t):
            failures.append(f"no constructed preimage for corner "
                            f"object #{k}")
    return PairReport(not failures, tuple(failures))


# -- verification: commutation with truncation --------------------------------

def dl_commutation_report(hctx: HeartGiraudContext,
                          complexes: list[Complex]) -> PairReport:
    """The corner functor commutes with both truncations and with heart
    cohomology on the given complexes: the truncation subobjects agree
    levelwise, and the cohomologies are isomorphic."""
    _require_side(hctx, GiraudContext, "dl_commutation_report")
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


# -- verification: reconstruction of the corner datum -------------------------

@dataclass(frozen=True)
class ReconstructionReport:
    """Roundtrip evidence: the kernel class recovered from the heart
    datum, the pair it induces on the corner, and the per-claim
    verdicts."""

    membership: tuple[bool, ...]
    recovered_pair: TorsionPair
    hom_table: tuple[tuple[int, ...], ...]
    kernel_is_serre: bool
    pair_recovered: bool
    equivalence_holds: bool
    context_recovered: bool
    free_class_generates: bool
    matches_kernel: bool

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
