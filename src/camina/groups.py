"""Finite groups as dense multiplication tables.

Every group lives as an order x order int32 table ``mul`` with
``mul[a, b] = a*b``, identity at index 0, plus the inverse map.  Groups are
either closed from permutation generators (breadth-first, so element
indexing is deterministic), validated from an explicit table, or built by
one of the two extension formulas (`cyclic_extension`,
`central_extension`).  All operations are exact integer computations over
the table.

Conventions, fixed once for reproducible witnesses, and read only through
this module:
  * permutation products compose left to right: ``(x*y)(pt) = y(x(pt))``
  * commutator ``[x, y] = x^-1 y^-1 x y`` (`commutators`)
  * conjugation ``x^g = g^-1 x g`` (`conjugates`)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ClosureExceedsCap,
    InvalidPermutation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
)

DEFAULT_ORDER_CAP = 2048
COMMUTATOR_BLOCK = 1 << 16  # commutators formed per array operation


@dataclass(frozen=True)
class Permutation:
    """A permutation given by its 1-based image sequence."""

    images: tuple[int, ...]

    def __post_init__(self):
        d = len(self.images)
        if sorted(self.images) != list(range(1, d + 1)):
            raise InvalidPermutation(
                f"images {self.images!r} are not a bijection on 1..{d}"
            )

    @property
    def degree(self) -> int:
        return len(self.images)

    def to_array(self) -> np.ndarray:
        """0-based image array."""
        return np.asarray(self.images, dtype=np.int32) - 1

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(1, degree + 1)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(1, degree + 1))
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                images[pt - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))


class FiniteGroup:
    """A finite group on elements 0..order-1 with identity 0."""

    __slots__ = ("order", "mul", "inv", "labels", "name", "_cache", "__weakref__")

    def __init__(self, mul: np.ndarray, inv: np.ndarray, labels=None, name: str = ""):
        self.mul = mul
        self.inv = inv
        self.order = int(mul.shape[0])
        self.labels = labels
        self.name = name
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)
        self._cache: dict = {}

    def __repr__(self):
        tag = self.name or "group"
        return f"<FiniteGroup {tag} of order {self.order}>"

    def product(self, x: int, y: int) -> int:
        return int(self.mul[x, y])

    def inverse(self, x: int) -> int:
        return int(self.inv[x])

    # cached whole-group computations, shared by the higher-level modules

    def conjugacy_data(self):
        """(class_of, classes) with classes listed by smallest member.

        class_of[x] numbers the class of x in that order, so the identity's
        class is 0.
        """
        if "classes" not in self._cache:
            class_of = np.full(self.order, -1, np.int32)
            n_classes = 0
            for x in range(self.order):
                if class_of[x] < 0:
                    class_of[conjugates(self, x, slice(None))] = n_classes
                    n_classes += 1
            members = np.argsort(class_of, kind="stable").astype(np.int32)
            sizes = np.bincount(class_of, minlength=n_classes)
            classes = np.split(members, np.cumsum(sizes)[:-1])
            self._cache["classes"] = (class_of, classes)
        return self._cache["classes"]

    def element_orders(self) -> np.ndarray:
        if "orders" not in self._cache:
            # y = x^k for the x not yet known, all at once: exponent-many steps
            orders = np.empty(self.order, dtype=np.int64)
            x = np.arange(self.order, dtype=np.int32)
            y, k = x, 1
            while x.size:
                done = y == 0
                orders[x[done]] = k
                x, y = x[~done], y[~done]
                y, k = self.mul[y, x], k + 1
            orders.setflags(write=False)
            self._cache["orders"] = orders
        return self._cache["orders"]

    def centralizer_matrix(self) -> np.ndarray:
        """Boolean order x order matrix whose row x is the centralizer of x.

        Not cached: at order 2048 it takes 4 MB.
        """
        return self.mul.T == self.mul

    def center_members(self) -> np.ndarray:
        if "center" not in self._cache:
            members = np.flatnonzero(self.centralizer_matrix().all(axis=1))
            self._cache["center"] = members.astype(np.int32)
        return self._cache["center"]

    def is_abelian(self) -> bool:
        return len(self.center_members()) == self.order


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup as a sorted member array inside a parent group."""

    parent: FiniteGroup
    members: np.ndarray
    _mask: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.members.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def mask(self) -> np.ndarray:
        if "m" not in self._mask:
            m = np.zeros(self.parent.order, dtype=bool)
            m[self.members] = True
            m.setflags(write=False)
            self._mask["m"] = m
        return self._mask["m"]

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[x])

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupHandle)
            and self.parent is other.parent
            and len(self.members) == len(other.members)
            and bool((self.members == other.members).all())
        )

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def closure_holds(self) -> bool:
        """Check closure under multiplication and inversion (witness test)."""
        m = self.members
        prods = self.parent.mul[np.ix_(m, m)]
        return bool(self.mask[prods].all() and self.mask[self.parent.inv[m]].all())


def _handle(parent: FiniteGroup, members: np.ndarray) -> SubgroupHandle:
    return SubgroupHandle(parent, np.sort(np.asarray(members, dtype=np.int32)))


# ---------------------------------------------------------------------------
# construction


def group_from_generators(
    degree: int,
    gens: Sequence[Permutation],
    max_order: int = DEFAULT_ORDER_CAP,
    name: str = "",
) -> FiniteGroup:
    """Close permutation generators into a group table.

    Elements are indexed in breadth-first discovery order from the identity,
    with generators applied in input order, so the table is a deterministic
    function of the input.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    for g in gens:
        if g.degree != degree:
            raise InvalidPermutation(
                f"generator degree {g.degree} does not match declared degree {degree}"
            )
    gen_arrays = [g.to_array() for g in gens]

    ident = np.arange(degree, dtype=np.int32)
    elems = [ident]
    index_of = {ident.tobytes(): 0}
    parent_gen: list[tuple[int, int]] = [(-1, -1)]
    right_maps = [[] for _ in gen_arrays]  # right_maps[j][i] = index of elem_i * gen_j

    head = 0
    while head < len(elems):
        e = elems[head]
        for j, g in enumerate(gen_arrays):
            f = g[e]  # apply e then the generator
            key = f.tobytes()
            idx = index_of.get(key)
            if idx is None:
                idx = len(elems)
                if idx >= max_order:
                    raise ClosureExceedsCap(
                        f"closure exceeds cap {max_order} (degree {degree})"
                    )
                index_of[key] = idx
                elems.append(f)
                parent_gen.append((head, j))
            right_maps[j].append(idx)
        head += 1

    n = len(elems)
    rmaps = [np.asarray(r, dtype=np.int32) for r in right_maps]
    mul = np.empty((n, n), dtype=np.int32)
    mul[:, 0] = np.arange(n, dtype=np.int32)
    for k in range(1, n):
        parent, j = parent_gen[k]
        mul[:, k] = rmaps[j][mul[:, parent]]
    return from_table_unchecked(mul, name=name)


def group_from_cayley_table(table, name: str = "") -> FiniteGroup:
    """Validate an explicit table (identity, inverses, Latin, associative)."""
    mul = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise ValueError(f"table must be square, got shape {mul.shape}")
    n = mul.shape[0]
    if n == 0:
        raise ValueError("table must be nonempty")
    if mul.min() < 0 or mul.max() >= n:
        bad = np.argwhere((mul < 0) | (mul >= n))[0]
        raise NotLatinSquare(
            f"entry at ({bad[0]}, {bad[1]}) is outside [0, {n})"
        )

    idx = np.arange(n, dtype=np.int32)
    row_bad = np.flatnonzero(mul[0] != idx)
    if row_bad.size:
        raise NoIdentity(f"row 0 is not the identity at column {row_bad[0]}")
    col_bad = np.flatnonzero(mul[:, 0] != idx)
    if col_bad.size:
        raise NoIdentity(f"column 0 is not the identity at row {col_bad[0]}")

    for axis, kind in ((1, "row"), (0, "column")):
        sorted_lines = np.sort(mul, axis=axis)
        ok = (sorted_lines == (idx[None, :] if axis == 1 else idx[:, None])).all(
            axis=axis
        )
        bad_lines = np.flatnonzero(~ok)
        if bad_lines.size:
            raise NotLatinSquare(f"{kind} {bad_lines[0]} is not a permutation")

    has_inverse = (mul == 0).any(axis=1)
    no_inv = np.flatnonzero(~has_inverse)
    if no_inv.size:
        raise NoInverse(f"element {no_inv[0]} has no inverse")

    bad = assoc_violation(mul)
    if bad is not None:
        raise NotAssociative(*bad)
    return from_table_unchecked(mul, name=name)


def assoc_violation(mul: np.ndarray) -> tuple[int, int, int] | None:
    """First triple (a, b, c) with (a*b)*c != a*(b*c), or None."""
    for a in range(mul.shape[0]):
        bad = mul[mul[a]] != mul[a][mul]
        if bad.any():
            b, c = np.argwhere(bad)[0]
            return a, int(b), int(c)
    return None


def from_table_unchecked(mul, inv=None, name: str = "") -> FiniteGroup:
    """Wrap a table produced by a trusted internal construction."""
    mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int32))
    if inv is None:
        inv = (mul == 0).argmax(axis=1)
    inv = np.ascontiguousarray(np.asarray(inv, dtype=np.int32))
    return FiniteGroup(mul, inv, name=name)


def cyclic_extension(mulH: np.ndarray, alpha: np.ndarray, h0: int, p: int):
    """Group on H x Zp from (alpha, h0) with t^p = h0, t h t^-1 = alpha(h)."""
    nH = mulH.shape[0]
    n = nH * p
    apow = [np.arange(nH, dtype=np.int64)]
    for _ in range(p - 1):
        apow.append(alpha[apow[-1]])
    h = np.arange(nH)
    table = np.empty((n, n), dtype=np.int64)
    for i in range(p):
        for j in range(p):
            part = mulH[h[:, None], apow[i][None, :]]
            if i + j >= p:
                part = mulH[part, h0]
            table[i * nH : (i + 1) * nH, j * nH : (j + 1) * nH] = (
                ((i + j) % p) * nH + part
            )
    return table


def central_extension(vadd: np.ndarray, wadd: np.ndarray, cocycle: np.ndarray):
    """Table of (v, w)(v', w') = (v + v', w + w' + cocycle[v, v']).

    vadd and wadd are the tables of the abelian groups V and W, and
    cocycle is a |V| x |V| array of elements of W; element (v, w) has
    index v |W| + w.  The table is assembled in place, so nothing larger
    than it is allocated.
    """
    nV, nW = vadd.shape[0], wadd.shape[0]
    wadd = wadd.astype(np.int32)
    table = wadd[wadd[None, :, None, :], cocycle[:, None, :, None]]
    table += (vadd.astype(np.int32) * nW)[:, None, :, None]
    return table.reshape(nV * nW, nV * nW)


# ---------------------------------------------------------------------------
# element and subgroup operations


def element_order(G: FiniteGroup, x: int) -> int:
    """Smallest k >= 1 with x^k = identity."""
    k, y = 1, int(x)
    while y != 0:
        y = int(G.mul[y, x])
        k += 1
    return k


def power_map(G: FiniteGroup, k: int) -> np.ndarray:
    """x -> x^k for every element, as an index array."""
    idx = np.arange(G.order, dtype=np.int32)
    pw = idx.copy()
    for _ in range(k - 1):
        pw = G.mul[pw, idx]
    return pw


def group_exponent(G: FiniteGroup) -> int:
    return int(math.lcm(*(int(o) for o in G.element_orders())))


def subgroup_generate(G: FiniteGroup, seeds: Iterable[int]) -> SubgroupHandle:
    """Smallest subgroup containing the seeds (breadth-first closure)."""
    gens = np.unique(np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int32))
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    mask[gens] = True
    frontier = np.flatnonzero(mask).astype(np.int32)
    if gens.size:
        while frontier.size:
            prods = np.unique(G.mul[np.ix_(frontier, gens)])
            new = prods[~mask[prods]]
            mask[new] = True
            frontier = new.astype(np.int32)
    return _handle(G, np.flatnonzero(mask))


def greedy_generators(G: FiniteGroup) -> list[int]:
    """Small deterministic generating set: each generator is the first
    element outside the subgroup generated by the ones before it, so each
    at least doubles that subgroup and there are at most log2|G| of them."""
    gens: list[int] = []
    mask = np.zeros(G.order, dtype=bool)  # <gens>, extended in place
    mask[0] = True
    while not mask.all():
        gens.append(int(np.argmin(mask)))
        frontier = np.flatnonzero(mask)
        while frontier.size:
            prods = G.mul[np.ix_(frontier, gens)].ravel()
            frontier = np.unique(prods[~mask[prods]])
            mask[frontier] = True
    return gens


def center(G: FiniteGroup) -> SubgroupHandle:
    return _handle(G, G.center_members())


def centralizer(G: FiniteGroup, x: int) -> SubgroupHandle:
    return _handle(G, np.flatnonzero(G.mul[:, x] == G.mul[x, :]))


def conjugacy_classes(G: FiniteGroup) -> list[np.ndarray]:
    """Partition of the elements into conjugation orbits (sorted members)."""
    _, classes = G.conjugacy_data()
    return classes


def commutators(G: FiniteGroup, x, y):
    """[x, y] = x^-1 y^-1 x y, broadcast over index arrays.

    One of x and y may be a slice: commutators(G, g, slice(None)) reads
    row g of the table and commutators(G, slice(None), g) column g.
    """
    m, inv = G.mul, G.inv
    return m[m[inv[x], inv[y]], m[x, y]]


def conjugates(G: FiniteGroup, x, g):
    """x^g = g^-1 (x g), broadcast over index arrays.

    g may also be a slice: conjugates(G, x, slice(None)) reads row x of
    the table and pairs it with g^-1 for every g, giving the class of x.
    """
    m = G.mul
    return m[G.inv[g], m[x, g]]


def commutator(G: FiniteGroup, x: int, y: int) -> int:
    return int(commutators(G, x, y))


def commutator_set(G: FiniteGroup, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All values [a, b] with a in `left`, b in `right` (unique, sorted)."""
    left = np.asarray(left, dtype=np.int32)
    right = np.asarray(right, dtype=np.int32)
    if not left.size:
        return np.array([0], dtype=np.int32)
    hit = np.zeros(G.order, dtype=bool)
    rows = max(1, COMMUTATOR_BLOCK // max(1, right.size))
    for i in range(0, left.size, rows):
        hit[commutators(G, left[i : i + rows, None], right)] = True
    return np.flatnonzero(hit).astype(np.int32)


def derived_subgroup(G: FiniteGroup) -> SubgroupHandle:
    if "derived" not in G._cache:
        every = np.arange(G.order, dtype=np.int32)
        comms = commutator_set(G, every, every)
        G._cache["derived"] = subgroup_generate(G, comms).members
    return _handle(G, G._cache["derived"])


def is_normal(G: FiniteGroup, H: SubgroupHandle) -> bool:
    conj = conjugates(G, H.members, slice(None))
    return bool(H.mask[conj].all())


def quotient(G: FiniteGroup, N: SubgroupHandle):
    """Quotient group on cosets plus the projection map (as an array).

    The identity coset is index 0; remaining cosets are ordered by their
    smallest member, so the quotient table is deterministic.
    """
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    rep = G.mul[:, N.members].min(axis=1)
    reps = np.unique(rep)
    pos = np.empty(G.order, dtype=np.int32)
    pos[reps] = np.arange(len(reps), dtype=np.int32)
    proj = pos[rep]
    qmul = proj[G.mul[np.ix_(reps, reps)]]
    Q = from_table_unchecked(qmul, name=f"{G.name}/N" if G.name else "")
    return Q, proj


def direct_product(
    A: FiniteGroup, B: FiniteGroup, order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Componentwise product; element (a, b) has index a*|B| + b."""
    n = A.order * B.order
    if n > order_cap:
        raise ClosureExceedsCap(f"product order {n} exceeds cap {order_cap}")
    nB = B.order
    mul = (
        A.mul.astype(np.int64)[:, None, :, None] * nB + B.mul[None, :, None, :]
    ).reshape(n, n)
    inv = A.inv.astype(np.int64)[:, None] * nB + B.inv[None, :]
    name = f"{A.name}x{B.name}" if A.name and B.name else ""
    return from_table_unchecked(mul, inv.reshape(-1), name=name)


def materialize_subgroup(G: FiniteGroup, H: SubgroupHandle):
    """Realize a subgroup as a standalone group.

    Returns (group, members): element i of the new group is members[i] in
    the parent.  Identity stays at index 0 because members are sorted.
    """
    m = H.members
    pos = np.empty(G.order, dtype=np.int32)
    pos[m] = np.arange(len(m), dtype=np.int32)
    sub_mul = pos[G.mul[np.ix_(m, m)]]
    return from_table_unchecked(sub_mul), m


def joined(A: SubgroupHandle, B: SubgroupHandle) -> SubgroupHandle:
    """Subgroup generated by the union of two subgroups."""
    return subgroup_generate(A.parent, np.union1d(A.members, B.members))
