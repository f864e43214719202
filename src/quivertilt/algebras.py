"""Finite-dimensional algebras presented by a multiplicative basis.

An Algebra here always comes with a distinguished complete set of
orthogonal idempotents and a basis adapted to the radical: every basis
element is either one of the idempotents or lies in the radical, and
the product of two basis elements is a scalar multiple of a basis
element.  Path algebras of acyclic quivers, their corner algebras eAe
and the opposite algebras all have this shape, and the constructors
below verify it.

Algebras, modules and complexes are hash-consed (Filliâtre and
Conchon, "Type-safe modular hash-consing", ML Workshop 2006): there is
one live object per value, so equality is identity and every cache or
dict keyed by these objects compares them by `is`.  `Interned` keeps
the table; it is weak, so it keeps nothing alive and an object that
nothing else holds leaves it.
"""

from __future__ import annotations

import weakref

from .linalg import Field, Mat, Subspace, combine
from .quivers import Path, Quiver
from .values import Value


class Interned(type):
    """Metaclass of the hash-consed classes.  A call builds a candidate
    with the class's own `__init__`, which normalizes the arguments and
    checks their shapes, and returns the live object of the same value
    if there is one; otherwise the candidate becomes the object of its
    value.  A canonical object is never initialized again, so what it
    computes lazily (its universes, dual, opposite, a module's table of
    submodules and quotients) stays with it.  The parts table holds only
    smaller modules and matrices, never its own module, so it keeps
    nothing alive and goes with the module.

    Each class, a subclass included, has its own table, so a value of
    one class never comes back as an object of another.  The table is a
    `weakref.WeakValueDictionary` keyed by the instance's `_value()`.
    The hash of an object is that of its value, taken on first use and
    kept, so the order of a set of these objects does not depend on
    where they sit in memory.
    """

    def __init__(cls, name, bases, namespace):
        super().__init__(name, bases, namespace)
        cls._interned = weakref.WeakValueDictionary()

    def __call__(cls, *args, **kwargs):
        obj = super().__call__(*args, **kwargs)
        return cls._interned.setdefault(obj._value(), obj)


class Algebra(metaclass=Interned):
    def __init__(self, field: Field, labels, mult, unit, idem, radical):
        """Args:
            field: coefficient field.
            labels: basis element names, one per dimension.
            mult: mult[i][j] is a tuple of (k, coeff) pairs expressing
                the product basis_i * basis_j in the basis.
            unit: coordinate tuple of the unit element.
            idem: indices of the distinguished orthogonal idempotents.
            radical: indices of the basis elements spanning the radical.
        """
        self.field = field
        self.labels = tuple(str(s) for s in labels)
        self.dim = len(self.labels)
        self.mult = tuple(tuple(tuple(pair) for pair in row) for row in mult)
        self.unit = tuple(x % field.p for x in unit)
        self.idem = tuple(idem)
        self.radical = tuple(radical)
        self._check_shape()
        self.endpoints = self._compute_endpoints()
        self._hash = None
        # Set by modules.Module.zero on first use.
        self._zero_module = None
        # Set by derived._check_hereditary once global dimension at most
        # one is certified.
        self._euler_form = None
        # Set by opposite_algebra on first use, on both algebras.
        self._opposite = None
        # Filled by enumeration.universe, one universe per bound.
        self._universes = {}

    # -- element arithmetic on coordinate tuples --

    def basis_vec(self, i: int) -> tuple[int, ...]:
        v = [0] * self.dim
        v[i] = 1
        return tuple(v)

    def mul_vecs(self, x, y) -> tuple[int, ...]:
        p = self.field.p
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                for k, c in self.mult[i][j]:
                    out[k] = (out[k] + xi * yj * c) % p
        return tuple(out)

    # -- structure checks --

    def _check_shape(self) -> None:
        if sorted(self.idem + self.radical) != list(range(self.dim)):
            raise ValueError("idempotents and radical must partition the basis")
        for i in self.idem:
            for j in self.idem:
                want = self.basis_vec(i) if i == j else (0,) * self.dim
                if self.mul_vecs(self.basis_vec(i), self.basis_vec(j)) != want:
                    raise ValueError("designated idempotents are not orthogonal")
        total = [0] * self.dim
        for i in self.idem:
            total[i] += 1
        if tuple(x % self.field.p for x in total) != self.unit:
            raise ValueError("idempotents do not sum to the unit")

    def check(self) -> None:
        """Full axiom check: unit, associativity, radical ideal, nilpotency."""
        vecs = [self.basis_vec(i) for i in range(self.dim)]
        for v in vecs:
            if self.mul_vecs(self.unit, v) != v or self.mul_vecs(v, self.unit) != v:
                raise ValueError("unit axiom fails")
        for x in vecs:
            for y in vecs:
                xy = self.mul_vecs(x, y)
                for z in vecs:
                    if self.mul_vecs(xy, z) != self.mul_vecs(x, self.mul_vecs(y, z)):
                        raise ValueError("associativity fails")
        radset = set(self.radical)
        for r in self.radical:
            for j in range(self.dim):
                for vec in (self.mul_vecs(vecs[r], vecs[j]),
                            self.mul_vecs(vecs[j], vecs[r])):
                    if any(vec[k] and k not in radset for k in range(self.dim)):
                        raise ValueError("radical is not a two-sided ideal")
        # Nilpotency: powers of the radical must reach zero.
        p = self.field.p
        layer = [vecs[r] for r in self.radical]
        for _ in range(self.dim + 1):
            if not layer:
                break
            space = Subspace(p, self.dim, layer)
            nxt = []
            for i in range(space.dim):
                for r in self.radical:
                    w = self.mul_vecs(space.basis.row(i), vecs[r])
                    if any(w):
                        nxt.append(w)
            layer = nxt
        else:
            raise ValueError("radical is not nilpotent")

    def _compute_endpoints(self) -> tuple[tuple[int, int], ...]:
        """For each basis b, the unique (i, j) positions in the idempotent
        list with e_idem[j] * b * e_idem[i] = b."""
        out = []
        for b in range(self.dim):
            v = self.basis_vec(b)
            hits = []
            for ipos, i in enumerate(self.idem):
                for jpos, j in enumerate(self.idem):
                    w = self.mul_vecs(self.basis_vec(j),
                                      self.mul_vecs(v, self.basis_vec(i)))
                    if w == v:
                        hits.append((ipos, jpos))
            if len(hits) != 1:
                raise ValueError(f"basis element {self.labels[b]} is not "
                                 "homogeneous for the idempotents")
            out.append(hits[0])
        return tuple(out)

    def basis_by_source(self, ipos: int) -> list[int]:
        return [b for b in range(self.dim) if self.endpoints[b][0] == ipos]

    def _value(self) -> tuple:
        return (self.field, self.labels, self.mult, self.unit, self.idem,
                self.radical)

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._value())
        return self._hash

    def __repr__(self) -> str:
        return f"Algebra(p={self.field.p}, dim={self.dim}, basis={list(self.labels)})"


class PathAlgebra(Algebra):
    """The path algebra of a finite acyclic quiver."""

    def __init__(self, field: Field, quiver: Quiver):
        self.quiver = quiver
        self.paths = tuple(quiver.all_paths())
        index = {p: i for i, p in enumerate(self.paths)}
        mult = []
        for pi in self.paths:
            row = []
            for pj in self.paths:
                if pi.source == pj.target:
                    comp = Path(pi.arrows + pj.arrows, pj.source, pi.target)
                    row.append(((index[comp], 1),))
                else:
                    row.append(())
            mult.append(row)
        trivial = [i for i, p in enumerate(self.paths) if p.length == 0]
        unit = [0] * len(self.paths)
        for i in trivial:
            unit[i] = 1
        super().__init__(
            field,
            [quiver.path_label(p) for p in self.paths],
            mult,
            unit,
            trivial,
            [i for i, p in enumerate(self.paths) if p.length > 0],
        )

    def _value(self) -> tuple:
        # The quiver as written: vertices 1 and "1" both label e_1.
        return super()._value() + (repr(self.quiver),)


def path_algebra(field: Field, quiver: Quiver) -> PathAlgebra:
    alg = PathAlgebra(field, quiver)
    alg.check()
    return alg


class OppositeAlgebra(Algebra):
    """The same basis with reversed multiplication.  Its value holds
    the value of the algebra it reverses, so the opposites of a path
    algebra and of a plain algebra on the same basis stay apart, and
    each opposite is the opposite of one algebra only."""

    def __init__(self, alg: Algebra):
        mult = [[alg.mult[j][i] for j in range(alg.dim)] for i in range(alg.dim)]
        super().__init__(alg.field, alg.labels, mult, alg.unit, alg.idem,
                         alg.radical)
        self._reverses = (type(alg).__name__, alg._value())

    def _value(self) -> tuple:
        return super()._value() + (self._reverses,)


def opposite_algebra(alg: Algebra) -> Algebra:
    """The opposite algebra, built once per algebra.  The opposite of
    the opposite is the algebra itself, so a double dual lands on the
    original object."""
    if alg._opposite is None:
        op = OppositeAlgebra(alg)
        op._opposite = alg
        alg._opposite = op
    return alg._opposite


class Bimodule(Value):
    """A (B, A)-bimodule with both actions stored as matrices.

    left_act[c] is the matrix of x -> b_c . x for the basis of B;
    right_act[a] is the matrix of x -> x . b_a for the basis of A, an
    anti-homomorphism.  Compared by value, as part of a corner's value.
    """

    __slots__ = ("left_alg", "right_alg", "dim", "labels", "left_act",
                 "right_act")

    def __init__(self, left_alg: Algebra, right_alg: Algebra, dim: int,
                 labels: tuple[str, ...], left_act: tuple[Mat, ...],
                 right_act: tuple[Mat, ...]):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.labels = labels
        self.left_act = left_act
        self.right_act = right_act

    def _fields(self) -> tuple:
        return (self.left_alg, self.right_alg, self.dim, self.labels,
                self.left_act, self.right_act)

    def check(self) -> None:
        p = self.left_alg.field.p
        ident = Mat.identity(p, self.dim)
        unit_l = _combine(self.left_act, self.left_alg.unit, p, self.dim)
        unit_r = _combine(self.right_act, self.right_alg.unit, p, self.dim)
        if unit_l != ident or unit_r != ident:
            raise ValueError("bimodule unit actions are not the identity")
        for i in range(self.left_alg.dim):
            for j in range(self.left_alg.dim):
                prod = _combine(self.left_act, _basis_product(self.left_alg, i, j),
                                p, self.dim)
                if self.left_act[i] @ self.left_act[j] != prod:
                    raise ValueError("left action is not a homomorphism")
        for i in range(self.right_alg.dim):
            for j in range(self.right_alg.dim):
                prod = _combine(self.right_act, _basis_product(self.right_alg, i, j),
                                p, self.dim)
                if self.right_act[j] @ self.right_act[i] != prod:
                    raise ValueError("right action is not an anti-homomorphism")
        for lm in self.left_act:
            for rm in self.right_act:
                if lm @ rm != rm @ lm:
                    raise ValueError("left and right actions do not commute")


def _basis_product(alg: Algebra, i: int, j: int) -> tuple[int, ...]:
    return alg.mul_vecs(alg.basis_vec(i), alg.basis_vec(j))


def _combine(mats, coords, p, dim) -> Mat:
    return Mat(p, dim, dim, combine(p, dim * dim, coords, [m.data for m in mats]))


class CornerData(Value):
    """The corner algebra eAe of a chosen idempotent e together with the
    bimodule eA that drives the section functor Hom_eAe(eA, -).  The
    bimodule Ae of the other section is eA of the opposite corner.
    Compared and hashed by value."""

    __slots__ = ("parent", "positions", "e_vec", "sub", "kept", "eA",
                 "eA_e_coords")

    def __init__(self, parent: Algebra, positions: tuple[int, ...],
                 e_vec: tuple[int, ...], sub: Algebra, kept: tuple[int, ...],
                 eA: Bimodule, eA_e_coords: tuple[int, ...]):
        self.parent = parent
        self.positions = positions
        self.e_vec = e_vec
        self.sub = sub
        self.kept = kept
        self.eA = eA
        self.eA_e_coords = eA_e_coords

    def _fields(self) -> tuple:
        return (self.parent, self.positions, self.e_vec, self.sub, self.kept,
                self.eA, self.eA_e_coords)


def corner_algebra(alg: Algebra, positions) -> CornerData:
    """Build eAe for e the sum of the idempotents at the given positions.

    Requires every basis element b of the parent to satisfy
    e*b*e in {0, b}, which holds for any basis homogeneous under the
    idempotents (in particular for path algebras and their corners).
    """
    positions = tuple(sorted(set(positions)))
    if not positions:
        raise ValueError("corner needs at least one idempotent")
    for pos in positions:
        if not 0 <= pos < len(alg.idem):
            raise ValueError(f"idempotent position {pos} out of range")
    p = alg.field.p
    e = [0] * alg.dim
    for pos in positions:
        e[alg.idem[pos]] = 1
    e = tuple(e)
    posset = set(positions)
    kept = tuple(b for b in range(alg.dim)
                 if alg.endpoints[b][0] in posset and alg.endpoints[b][1] in posset)
    for b in range(alg.dim):
        ebe = alg.mul_vecs(e, alg.mul_vecs(alg.basis_vec(b), e))
        want = alg.basis_vec(b) if b in kept else (0,) * alg.dim
        if ebe != want:
            raise ValueError("basis is not compatible with the corner idempotent")
    back = {b: t for t, b in enumerate(kept)}

    def restrict(pairs):
        out = []
        for k, c in pairs:
            if k not in back:
                raise ValueError("corner multiplication escapes the corner")
            out.append((back[k], c))
        return tuple(out)

    mult = [[restrict(alg.mult[i][j]) for j in kept] for i in kept]
    unit = tuple(e[b] for b in kept)
    idem_sub = [back[alg.idem[pos]] for pos in positions]
    radical_sub = [back[b] for b in kept if b in set(alg.radical)]
    sub = Algebra(alg.field, [alg.labels[b] for b in kept], mult, unit,
                  idem_sub, radical_sub)
    sub.check()

    eA_basis = tuple(b for b in range(alg.dim) if alg.endpoints[b][1] in posset)
    pos_of = {b: t for t, b in enumerate(eA_basis)}
    d = len(eA_basis)

    def action_mats(acting_dim, product):
        mats = []
        for a in range(acting_dim):
            data = [0] * (d * d)
            for t, b in enumerate(eA_basis):
                vec = product(a, b)
                for k in range(alg.dim):
                    if vec[k]:
                        if k not in pos_of:
                            raise ValueError("bimodule action escapes the basis")
                        data[pos_of[k] * d + t] = vec[k]
            mats.append(Mat(p, d, d, data))
        return tuple(mats)

    eA = Bimodule(
        sub, alg, d, tuple(alg.labels[b] for b in eA_basis),
        action_mats(sub.dim,
                    lambda c, b: alg.mul_vecs(alg.basis_vec(kept[c]), alg.basis_vec(b))),
        action_mats(alg.dim,
                    lambda a, b: alg.mul_vecs(alg.basis_vec(b), alg.basis_vec(a))),
    )
    eA.check()
    return CornerData(alg, positions, e, sub, kept, eA,
                      tuple(e[b] for b in eA_basis))
