"""Torsion pairs on desk-scale module categories.

A class is given by generators plus a polarity: a torsion class is the
closure of its generators under quotients, finite sums and extensions,
detected by an iterated trace; a torsion-free class is the closure under
submodules, finite products and extensions, detected by an iterated
reject.

A pair is decided by its definition over a bounded module universe,
on the indecomposables alone: ``is_torsion_pair`` checks
hom-orthogonality, maximality and the canonical trace decomposition
there.  Hom and the trace are additive and the universe is
Krull-Schmidt, so the members that are direct sums add nothing.
Closure under quotients, submodules and extensions holds by
construction of the trace and the reject, so it is not part of the
decision either; the tests sweep all of it member by member, as an
oracle for the trace/reject implementation.

The torsion pairs of a universe are the closed sets T = ⊥(T⊥) of the
Galois connection given by the relation Hom(X, Y) != 0 on its
indecomposables; ``enumerate_torsion_pairs`` lists them with Ganter's
NextClosure (Ganter, "Two basic algorithms in concept analysis", 1984).
"""

from __future__ import annotations

from functools import lru_cache

from .enumeration import SEARCH_CAP, BoundExceeded, ModuleUniverse
from .linalg import Subspace, all_vectors, image_basis, kernel_basis, quotient_maps
from .modules import (
    Module,
    ShortExactSeq,
    dual_module,
    ext1_basis,
    extension_realize,
    hom_basis,
    hom_dim,
    quotient_by_subspace,
    ses_from_submodule,
    submodule_from_subspace,
)
from .values import Value


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


class ClassSpec(Value):
    """Generators plus polarity ("torsion" or "free"), compared by value."""

    __slots__ = ("generators", "polarity")

    def __init__(self, generators: tuple[Module, ...], polarity: str):
        if polarity not in ("torsion", "free"):
            raise ValueError(f"unknown polarity {polarity!r}")
        self.generators = generators
        self.polarity = polarity

    def _fields(self) -> tuple:
        return (self.generators, self.polarity)

    def contains(self, m: Module) -> bool:
        if m.dim == 0:
            return True
        if self.polarity == "torsion":
            return trace_subspace(self.generators, m).dim == m.dim
        return reject_subspace(self.generators, m).dim == 0


class TorsionPair(Value):
    """A torsion class and a torsion-free class, compared by value."""

    __slots__ = ("torsion", "free")

    def __init__(self, torsion: ClassSpec, free: ClassSpec):
        self.torsion = torsion
        self.free = free

    def _fields(self) -> tuple:
        return (self.torsion, self.free)

    def torsion_subspace(self, m: Module) -> Subspace:
        return trace_subspace(self.torsion.generators, m)

    def decompose(self, m: Module) -> ShortExactSeq:
        """0 -> t(m) -> m -> m/t(m) -> 0 with t(m) the trace part."""
        return ses_from_submodule(m, self.torsion_subspace(m))

    def in_torsion(self, m: Module) -> bool:
        return self.torsion.contains(m)

    def in_free(self, m: Module) -> bool:
        return self.free.contains(m)

    def in_class(self, k: int, m: Module) -> bool:
        """Membership in class k: 0 the torsion class, 1 the free class."""
        return (self.torsion, self.free)[k].contains(m)

    def dual(self) -> "TorsionPair":
        """The pair (DF, DT) over the opposite algebra."""
        return TorsionPair(
            ClassSpec(tuple(map(dual_module, self.free.generators)), "torsion"),
            ClassSpec(tuple(map(dual_module, self.torsion.generators)), "free"))


class PairReport(Value):
    """A verdict with its failure messages, compared by value."""

    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple[str, ...]):
        self.ok = ok
        self.failures = failures

    def _fields(self) -> tuple:
        return (self.ok, self.failures)

    def __repr__(self) -> str:
        return f"PairReport(ok={self.ok!r}, failures={self.failures!r})"


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

    Checks the definition and nothing else, on the indecomposables:
    hom-orthogonality of the two classes, mutual maximality, and the
    canonical decomposition 0 -> t(m) -> m -> m/t(m) -> 0.  Hom and the
    trace are additive and the universe is Krull-Schmidt, so a direct
    sum decomposes as the sum of its summands' decompositions.  Closure
    of the classes holds by construction of the trace and the reject;
    the tests' member-by-member sweep checks that construction, and the
    decomposition of every member.
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

    for i, m in enumerate(indecs):
        ses = pair.decompose(m)
        if not pair.in_torsion(ses.sub):
            failures.append(f"decomposition: trace part of {(i,)} not torsion")
        if not pair.in_free(ses.quot):
            failures.append(f"decomposition: trace quotient of {(i,)} not free")

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


def _closed_sets(rows: list[int]):
    """Every closed set of a relation, as a bitset, in lectic order.

    ``rows[i]`` is the bitset of the j related to i.  A set T of
    indices is closed when T = ⊥(T⊥), where T⊥ holds the j related to
    no element of T and ⊥F the i related to no element of F.
    NextClosure visits each closed set once, with one closure per step
    and no store of the sets already seen.
    """
    n = len(rows)
    full = (1 << n) - 1

    def closure(t: int) -> int:
        reach = 0
        for i in range(n):
            if t >> i & 1:
                reach |= rows[i]
        free = full & ~reach
        return sum(1 << i for i in range(n) if not rows[i] & free)

    cur = closure(0)
    yield cur
    while cur != full:
        for i in reversed(range(n)):
            bit = 1 << i
            if cur & bit:
                cur &= ~bit
                continue
            nxt = closure(cur | bit)
            if nxt & (bit - 1) == cur:
                cur = nxt
                break
        yield cur


@lru_cache(maxsize=None)
def enumerate_torsion_pairs(uni: ModuleUniverse) -> tuple[TorsionPair, ...]:
    """All torsion pairs whose classes are generated inside the universe.

    They are the closed sets T = ⊥(T⊥) of the relation Hom(X, Y) != 0 on
    the indecomposables, with T⊥ as the free class; NextClosure lists
    them from the n x n matrix of hom dimensions alone.  The pair
    (⊥F, F) with F = T⊥ is orthogonal and maximal by construction, so
    no candidate is built and then rejected.  The scan raises
    ``BoundExceeded`` once it has visited more than ``SEARCH_CAP``
    closed sets.  Pairs are sorted by the size of the torsion class,
    then by its indices.
    """
    indecs = uni.indecs
    n = len(indecs)
    rows = [sum(1 << j for j in range(n) if hom_dim(indecs[i], indecs[j]) != 0)
            for i in range(n)]
    found: list[tuple[int, ...]] = []
    for t in _closed_sets(rows):
        if len(found) >= SEARCH_CAP:
            raise BoundExceeded(
                f"torsion-class scan over {n} indecomposables visited more "
                f"than {SEARCH_CAP} closed sets")
        found.append(tuple(i for i in range(n) if t >> i & 1))
    found.sort(key=lambda t_idx: (len(t_idx), t_idx))
    return tuple(pair_from_torsion_indecs(uni, t_idx) for t_idx in found)
