"""Exhaustive desk-scale enumeration of modules and submodules.

All completeness claims in the package reduce to these scans, so they
are deliberately brute force: modules are enumerated arrow matrix by
arrow matrix, isomorphism is decided by searching the hom space for an
invertible element, and indecomposability by searching the endomorphism
algebra for a nontrivial idempotent.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .algebras import Algebra
from .linalg import Mat, Subspace, all_vectors, combine, rank
from .modules import (
    Module,
    ModuleMap,
    direct_sum,
    hom_basis,
    image,
    module_from_vertex_data,
    presentation_arrows,
)

SEARCH_CAP = 1 << 16


class BoundExceeded(RuntimeError):
    """Raised when an exhaustive scan would leave desk scale."""


def _combos(m: Module, maps: list[ModuleMap]):
    """The matrices of the nonzero linear combinations of a basis of maps
    between modules of the dimension of m, in the order of all_vectors."""
    p = m.algebra.field.p
    flats = [h.mat.data for h in maps]
    for coeffs in all_vectors(p, len(maps)):
        if any(coeffs):
            yield Mat(p, m.dim, m.dim, combine(p, m.dim * m.dim, coeffs, flats))


def is_isomorphic(m: Module, n: Module) -> bool:
    """Whether an invertible module map m -> n exists (exhaustive search)."""
    if m.algebra is not n.algebra:
        return False
    if m.dim != n.dim or m.vertex_dims() != n.vertex_dims():
        return False
    if m.dim == 0:
        return True
    if any(rank(m.action[b]) != rank(n.action[b]) for b in m.algebra.radical):
        return False
    maps = hom_basis(m, n)
    p = m.algebra.field.p
    if p ** len(maps) > SEARCH_CAP:
        raise BoundExceeded(f"iso search over {p}^{len(maps)} combinations")
    return any(rank(cand) == m.dim for cand in _combos(m, maps))


def nontrivial_idempotent(m: Module) -> Optional[ModuleMap]:
    """A nonzero, non-identity idempotent endomorphism, if one exists."""
    if m.dim == 0:
        return None
    ends = hom_basis(m, m)
    if len(ends) == 1:
        return None
    p = m.algebra.field.p
    if p ** len(ends) > SEARCH_CAP:
        raise BoundExceeded(f"idempotent search over {p}^{len(ends)} combinations")
    ident = Mat.identity(p, m.dim)
    for cand in _combos(m, ends):
        if cand == ident:
            continue
        if cand @ cand == cand:
            return ModuleMap(m, m, cand)
    return None


def is_indecomposable(m: Module) -> bool:
    return m.dim > 0 and nontrivial_idempotent(m) is None


def split_summands(m: Module) -> list[Module]:
    """Indecomposable summands of m, by repeated idempotent splitting."""
    if m.dim == 0:
        return []
    e = nontrivial_idempotent(m)
    if e is None:
        return [m]
    rest = ModuleMap(m, m, Mat.identity(m.algebra.field.p, m.dim) - e.mat)
    out = []
    for part in (e, rest):
        sub, _, _ = image(part)
        out.extend(split_summands(sub))
    out.sort(key=_module_key)
    return out


def _module_key(m: Module):
    return (m.dim, tuple(a.data for a in m.action))


def _zero_relations(alg: Algebra) -> list[tuple[int, int]]:
    """The composable radical pairs (i, j) with i * j = 0.  Every other
    product holds by construction on modules built from arrow blocks,
    and a path algebra has none."""
    return [(i, j) for i in alg.radical for j in alg.radical
            if alg.endpoints[j][1] == alg.endpoints[i][0]
            and not alg.mult[i][j]]


def enumerate_modules(alg: Algebra, dim_bound: int) -> list[Module]:
    """All indecomposable modules of total dimension <= dim_bound, one
    per isomorphism class, sorted by (dimension, action encoding).  Only
    the arrow blocks that satisfy the algebra's relations are kept."""
    p = alg.field.p
    arrows = presentation_arrows(alg)
    relations = _zero_relations(alg)
    nidem = len(alg.idem)
    raw: list[Module] = []
    for dims in itertools.product(range(dim_bound + 1), repeat=nidem):
        total = sum(dims)
        if total == 0 or total > dim_bound:
            continue
        shapes = [(dims[alg.endpoints[b][1]], dims[alg.endpoints[b][0]])
                  for b in arrows]
        count = 1
        for r, c in shapes:
            count *= p ** (r * c)
        if count > SEARCH_CAP:
            raise BoundExceeded("arrow matrix scan too large")
        choices = [
            [Mat(p, r, c, data) for data in all_vectors(p, r * c)]
            for (r, c) in shapes
        ]
        for pick in itertools.product(*choices):
            m = module_from_vertex_data(alg, dims, dict(zip(arrows, pick)))
            if all((m.action[i] @ m.action[j]).is_zero()
                   for i, j in relations):
                raw.append(m)
    groups: dict[object, list[Module]] = {}
    for m in raw:
        key = (m.dim, m.vertex_dims(),
               tuple(rank(m.action[b]) for b in alg.radical))
        groups.setdefault(key, []).append(m)
    reps: list[Module] = []
    for key in sorted(groups, key=repr):
        bucket = sorted(groups[key], key=_module_key)
        chosen: list[Module] = []
        for m in bucket:
            if not any(is_isomorphic(m, r) for r in chosen):
                chosen.append(m)
        reps.extend(chosen)
    reps = [m for m in reps if is_indecomposable(m)]
    reps.sort(key=_module_key)
    return reps


class ModuleUniverse:
    """All modules of bounded total dimension, as sums of enumerated
    indecomposables.  Signatures are sorted tuples of indecomposable
    indices, so class comparisons are plain set comparisons.  Equality
    is identity, so caches keyed by a universe answer over its members."""

    __slots__ = ("algebra", "dim_bound", "indecs", "members", "signatures")

    def __init__(self, algebra: Algebra, dim_bound: int,
                 indecs: tuple[Module, ...], members: tuple[Module, ...],
                 signatures: tuple[tuple[int, ...], ...]):
        self.algebra = algebra
        self.dim_bound = dim_bound
        self.indecs = indecs
        self.members = members
        self.signatures = signatures

    @classmethod
    def build(cls, alg: Algebra, dim_bound: int) -> "ModuleUniverse":
        indecs = tuple(enumerate_modules(alg, dim_bound))
        members = [Module.zero(alg)]
        signatures = [()]
        _extend_sums(alg, indecs, members, signatures, 0, (), dim_bound)
        if _zero_relations(alg):
            # A member that breaks a relation is refused.
            for m in members:
                m.check()
        order = sorted(range(len(members)), key=lambda t: (members[t].dim, signatures[t]))
        return cls(alg, dim_bound, indecs,
                   tuple(members[t] for t in order),
                   tuple(signatures[t] for t in order))

    def indec_index(self, m: Module) -> int:
        for i, r in enumerate(self.indecs):
            if is_isomorphic(m, r):
                return i
        raise KeyError(f"module {m!r} has no enumerated representative")

    def signature(self, m: Module) -> tuple[int, ...]:
        """Multiset of indecomposable indices of the summands of m."""
        return tuple(sorted(self.indec_index(s) for s in split_summands(m)))

    def nonzero_members(self) -> list[Module]:
        return [m for m in self.members if m.dim > 0]


def _extend_sums(alg: Algebra, indecs: tuple[Module, ...],
                 members: list[Module], signatures: list[tuple[int, ...]],
                 start: int, used: tuple[int, ...], left: int) -> None:
    """Append, depth first, every sum that extends the signature used by
    indecomposables from index start on, within left more dimensions.
    A module-level function: a nested function that calls itself is a
    reference cycle, and would keep every member alive until the cyclic
    collector runs."""
    for i in range(start, len(indecs)):
        if indecs[i].dim <= left:
            sig = used + (i,)
            if len(sig) == 1:
                members.append(indecs[i])
            else:
                members.append(direct_sum(alg, [indecs[j] for j in sig])[0])
            signatures.append(sig)
            _extend_sums(alg, indecs, members, signatures, i, sig,
                         left - indecs[i].dim)


def universe(alg: Algebra, dim_bound: int) -> ModuleUniverse:
    """The universe at the bound, kept on the algebra object, so its
    members lie over alg itself and not over an equal algebra."""
    if dim_bound not in alg._universes:
        alg._universes[dim_bound] = ModuleUniverse.build(alg, dim_bound)
    return alg._universes[dim_bound]


@lru_cache(maxsize=None)
def enumerate_submodules(m: Module) -> tuple[Subspace, ...]:
    """Every action-stable subspace of m, zero and full included.

    Cyclic submodules are generated vector by vector, then the set is
    closed under adding a cyclic submodule: every submodule is the sum
    of the cyclic submodules of its vectors.
    """
    p = m.algebra.field.p
    if p ** m.dim > SEARCH_CAP:
        raise BoundExceeded(f"submodule scan over {p}^{m.dim} vectors")
    seen: dict[tuple, Subspace] = {}
    for v in all_vectors(p, m.dim):
        vecs = [v] + [m.action[b].apply(v) for b in range(m.algebra.dim)]
        s = Subspace(p, m.dim, vecs)
        seen.setdefault(s.basis.data, s)
    cyclic = list(seen.values())
    work = list(cyclic)
    while work:
        s = work.pop()
        for t in cyclic:
            u = s.sum_with(t)
            if u.basis.data not in seen:
                seen[u.basis.data] = u
                work.append(u)
    return tuple(sorted(seen.values(), key=lambda s: (s.dim, s.basis.data)))
