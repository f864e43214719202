"""Torsion pairs on desk-scale module categories.

A class is given by generators plus a polarity: a torsion class is the
closure of its generators under quotients, finite sums and extensions,
detected by an iterated trace; a torsion-free class is the closure under
submodules, finite products and extensions, detected by an iterated
reject.

A pair is decided by its definition over a bounded module universe:
``is_torsion_pair`` checks hom-orthogonality and maximality on the
indecomposables and the canonical trace decomposition of every member.
Closure under quotients, submodules and extensions holds by construction
of the trace and the reject, so it is not part of the decision;
``self_test`` sweeps it exhaustively, member by member, as an oracle for
the trace/reject implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .enumeration import SEARCH_CAP, BoundExceeded, ModuleUniverse, enumerate_submodules
from .linalg import Subspace, all_vectors, image_basis, kernel_basis, quotient_maps
from .modules import (
    Module,
    ShortExactSeq,
    ext1_basis,
    extension_realize,
    hom_basis,
    hom_dim,
    quotient_by_subspace,
    ses_from_submodule,
    submodule_from_subspace,
)


@lru_cache(maxsize=None)
def trace_subspace(gens: tuple[Module, ...], m: Module) -> Subspace:
    """Largest subspace of m reachable by iterated images from gens.

    Each round adds the images of every map from a generator into the
    current quotient; the result is the smallest submodule t with
    Hom(g, m/t) = 0 for all generators g.
    """
    p = m.algebra.field.p
    cur = Subspace.zero(p, m.dim)
    while True:
        quo, proj = quotient_by_subspace(m, cur)
        if quo.dim == 0:
            return cur
        tr = Subspace.zero(p, quo.dim)
        for g in gens:
            for h in hom_basis(g, quo):
                tr = tr.sum_with(image_basis(h.mat))
        if tr.dim == 0:
            return cur
        tproj, _ = quotient_maps(tr)
        cur = kernel_basis(tproj @ proj.mat)


@lru_cache(maxsize=None)
def reject_subspace(gens: tuple[Module, ...], m: Module) -> Subspace:
    """Smallest subspace of m stable under iterated kernels into gens.

    Each round intersects the kernels of every map from the current
    submodule into a generator; the result is the largest submodule r
    with Hom(r', g) = 0 for every submodule r' of r mapping onto it --
    equivalently m lies in the generated torsion-free class iff r = 0.
    """
    p = m.algebra.field.p
    cur = Subspace.full(p, m.dim)
    while cur.dim > 0:
        sub, incl = submodule_from_subspace(m, cur)
        mats = [h.mat for g in gens for h in hom_basis(sub, g)]
        if not mats:
            return cur
        stacked = mats[0]
        for extra in mats[1:]:
            stacked = stacked.vstack(extra)
        ker = kernel_basis(stacked)
        if ker.dim == cur.dim:
            return cur
        cur = Subspace(p, m.dim, [incl.mat.apply(v) for v in ker.basis.row_list()])
    return cur


@dataclass(frozen=True)
class ClassSpec:
    """Generators plus polarity ("torsion" or "free")."""

    generators: tuple[Module, ...]
    polarity: str

    def __post_init__(self):
        if self.polarity not in ("torsion", "free"):
            raise ValueError(f"unknown polarity {self.polarity!r}")

    def contains(self, m: Module) -> bool:
        if m.dim == 0:
            return True
        if self.polarity == "torsion":
            return trace_subspace(self.generators, m).dim == m.dim
        return reject_subspace(self.generators, m).dim == 0


@dataclass(frozen=True)
class TorsionPair:
    torsion: ClassSpec
    free: ClassSpec

    def torsion_subspace(self, m: Module) -> Subspace:
        return trace_subspace(self.torsion.generators, m)

    def decompose(self, m: Module) -> ShortExactSeq:
        """0 -> t(m) -> m -> m/t(m) -> 0 with t(m) the trace part."""
        ses = ses_from_submodule(m, self.torsion_subspace(m))
        ses.check()
        return ses

    def in_torsion(self, m: Module) -> bool:
        return self.torsion.contains(m)

    def in_free(self, m: Module) -> bool:
        return self.free.contains(m)

    def in_class(self, k: int, m: Module) -> bool:
        """Membership in class k: 0 the torsion class, 1 the free class."""
        return (self.torsion, self.free)[k].contains(m)


@dataclass(frozen=True)
class PairReport:
    ok: bool
    failures: tuple[str, ...]


@lru_cache(maxsize=None)
def all_extension_middles(m: Module, n: Module) -> tuple[Module, ...]:
    """Middle terms of every element of Ext^1(m, n), one per cocycle."""
    ext = ext1_basis(m, n)
    if ext.dim == 0:
        return ()
    p = m.algebra.field.p
    if p ** ext.dim > SEARCH_CAP:
        raise BoundExceeded(f"extension scan over {p}^{ext.dim} cocycles")
    out = []
    for coeffs in all_vectors(p, ext.dim):
        if any(coeffs):
            out.append(extension_realize(ext, ext.element(coeffs)).middle)
    return tuple(out)


def is_torsion_pair(pair: TorsionPair, uni: ModuleUniverse) -> PairReport:
    """Decide whether the pair is a torsion pair on the universe.

    Checks the definition and nothing else: hom-orthogonality of the two
    classes and mutual maximality, both on the indecomposables (Hom is
    additive and the universe is Krull-Schmidt), and the canonical
    decomposition 0 -> t(m) -> m -> m/t(m) -> 0 of every nonzero member.
    Closure of the classes holds by construction of the trace and the
    reject; ``self_test`` checks that construction.
    """
    failures: list[str] = []
    indecs = uni.indecs
    t_ind = [i for i, m in enumerate(indecs) if pair.in_torsion(m)]
    f_ind = [i for i, m in enumerate(indecs) if pair.in_free(m)]

    for a in t_ind:
        for b in f_ind:
            if hom_dim(indecs[a], indecs[b]) != 0:
                failures.append(f"hom-orthogonality: Hom({(a,)}, {(b,)}) != 0")

    for i, m in enumerate(indecs):
        if (i in t_ind) != all(hom_dim(m, indecs[b]) == 0 for b in f_ind):
            failures.append(f"torsion maximality fails at {(i,)}")
        if (i in f_ind) != all(hom_dim(indecs[a], m) == 0 for a in t_ind):
            failures.append(f"free maximality fails at {(i,)}")

    for m in uni.nonzero_members():
        ses = pair.decompose(m)
        if not pair.in_torsion(ses.sub):
            failures.append(f"decomposition: trace part of {uni.signature(m)} not torsion")
        if not pair.in_free(ses.quot):
            failures.append(f"decomposition: trace quotient of {uni.signature(m)} not free")

    return PairReport(not failures, tuple(failures))


def self_test(pair: TorsionPair, uni: ModuleUniverse) -> PairReport:
    """Check the trace/reject implementation against the pair axioms.

    Sweeps every member of the universe: hom-orthogonality and mutual
    maximality member by member, closure of the torsion class under
    quotients and extensions, and closure of the free class under
    submodules and extensions.  These hold by construction for any pair
    that ``is_torsion_pair`` accepts, so a failure here is a fault of
    ``trace_subspace``/``reject_subspace`` or of membership, not of the
    pair.  Exhaustive and slow; it is a test oracle, not a decision.
    """
    failures: list[str] = []
    members = uni.nonzero_members()
    t_mem = [m for m in members if pair.in_torsion(m)]
    f_mem = [m for m in members if pair.in_free(m)]

    for a in t_mem:
        for b in f_mem:
            if hom_dim(a, b) != 0:
                failures.append(
                    f"hom-orthogonality: Hom({uni.signature(a)}, {uni.signature(b)}) != 0")

    for m in members:
        in_t = pair.in_torsion(m)
        no_maps_to_f = all(hom_dim(m, b) == 0 for b in f_mem)
        if in_t != no_maps_to_f:
            failures.append(f"torsion maximality fails at {uni.signature(m)}")
        in_f = pair.in_free(m)
        no_maps_from_t = all(hom_dim(a, m) == 0 for a in t_mem)
        if in_f != no_maps_from_t:
            failures.append(f"free maximality fails at {uni.signature(m)}")

    for m in t_mem:
        for s in enumerate_submodules(m):
            quo, _ = quotient_by_subspace(m, s)
            if not pair.in_torsion(quo):
                failures.append(
                    f"torsion class not closed under quotients at {uni.signature(m)}")
                break
    for m in f_mem:
        for s in enumerate_submodules(m):
            sub, _ = submodule_from_subspace(m, s)
            if not pair.in_free(sub):
                failures.append(
                    f"free class not closed under submodules at {uni.signature(m)}")
                break
    for a in t_mem:
        for b in t_mem:
            if any(not pair.in_torsion(e) for e in all_extension_middles(a, b)):
                failures.append(
                    f"torsion class not closed under extensions "
                    f"({uni.signature(a)} by {uni.signature(b)})")
    for a in f_mem:
        for b in f_mem:
            if any(not pair.in_free(e) for e in all_extension_middles(a, b)):
                failures.append(
                    f"free class not closed under extensions "
                    f"({uni.signature(a)} by {uni.signature(b)})")

    return PairReport(not failures, tuple(failures))


def pair_from_torsion_indecs(uni: ModuleUniverse,
                             t_indices: tuple[int, ...]) -> TorsionPair:
    t_gens = tuple(uni.indecs[i] for i in t_indices)
    f_gens = tuple(m for m in uni.indecs
                   if all(hom_dim(t, m) == 0 for t in t_gens))
    return TorsionPair(ClassSpec(t_gens, "torsion"), ClassSpec(f_gens, "free"))


def torsion_indec_indices(pair: TorsionPair, uni: ModuleUniverse) -> tuple[int, ...]:
    return tuple(i for i, m in enumerate(uni.indecs) if pair.in_torsion(m))


def free_indec_indices(pair: TorsionPair, uni: ModuleUniverse) -> tuple[int, ...]:
    return tuple(i for i, m in enumerate(uni.indecs) if pair.in_free(m))


@lru_cache(maxsize=None)
def enumerate_torsion_pairs(uni: ModuleUniverse) -> tuple[TorsionPair, ...]:
    """All torsion pairs whose classes are generated inside the universe.

    Scans subsets of the indecomposables; a subset survives if it equals
    the double hom-perp of itself and ``is_torsion_pair`` accepts the
    resulting pair.
    """
    n = len(uni.indecs)
    if (1 << n) > SEARCH_CAP:
        raise BoundExceeded(f"pair scan over 2^{n} subsets")
    pairs: list[TorsionPair] = []
    seen: set[tuple[int, ...]] = set()
    for mask in range(1 << n):
        t_idx = tuple(i for i in range(n) if mask >> i & 1)
        cand = pair_from_torsion_indecs(uni, t_idx)
        closed = torsion_indec_indices(cand, uni)
        if closed != t_idx or closed in seen:
            continue
        if is_torsion_pair(cand, uni).ok:
            seen.add(closed)
            pairs.append(cand)
    pairs.sort(key=lambda pr: (len(torsion_indec_indices(pr, uni)),
                               torsion_indec_indices(pr, uni)))
    return tuple(pairs)
