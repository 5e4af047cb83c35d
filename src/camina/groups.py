"""Finite groups as dense multiplication tables.

Every group lives as an order x order int16 table ``mul`` with
``mul[a, b] = a*b``, identity at index 0, plus the int16 inverse map;
`FiniteGroup` fixes that dtype, and every order is at most
`MAX_ORDER_CAP`.  Groups are either closed from permutation generators
(breadth-first, so element indexing is deterministic) or built by one of
the two extension formulas (`cyclic_extension`, `central_extension`).
All operations are exact integer computations over the table.

Conventions, fixed once for reproducible witnesses, and read only through
this module:
  * permutation products compose left to right: ``(x*y)(pt) = y(x(pt))``
  * commutator ``[x, y] = x^-1 y^-1 x y`` (`commutators`)
  * conjugation ``x^g = g^-1 x g`` (`conjugates`)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ClosureExceedsCap, InvalidPermutation

DEFAULT_ORDER_CAP = 2048
# The largest order cap any caller may ask for, from a budget of 512 MiB
# peak RSS for one `camina analyze`.  At 2^13 the int16 table takes 128
# MiB, and `analyze --order-cap 8192` peaked at 223 MB on dihedral:8192,
# elemab:2,13 and T:2,4 alike with `--family` (79 MB on heisenberg:2,4,
# order 4096), and at 292 and 294 MB with `--input` on the
# `corpus.group_to_entry` files of dihedral:8192 and elemab:2,13, whose
# closure holds 128 MiB of element keys before the table is formed
# (Python 3.11, numpy 2.4, Linux x86-64).  At 2^14 the table alone would
# take the whole budget.  Below 2^14 every label, label + 1 and label +
# label fits in int16, the dtype of every table.
MAX_ORDER_CAP = 1 << 13
TABLE_DTYPE = np.int16
COMMUTATOR_BLOCK = 1 << 16  # commutators formed per array operation
POWER_STEPS = 8  # powers of an element taken one at a time before doubling


@dataclass(frozen=True, eq=False)
class Permutation:
    """A permutation of 1..degree, held once as its 1-based images in a
    read-only TABLE_DTYPE array, the form `group_from_generators` composes.

    Any integer sequence of images, an array included, is checked to be a
    bijection on 1..degree with degree at most MAX_ORDER_CAP before it is
    narrowed to the table dtype.  Nothing compares permutations, so
    equality is identity.
    """

    images: np.ndarray

    def __post_init__(self):
        d = len(self.images)
        if d > MAX_ORDER_CAP:  # its points would not all fit the table dtype
            raise InvalidPermutation(f"degree {d} exceeds the ceiling {MAX_ORDER_CAP}")
        if sorted(self.images) != list(range(1, d + 1)):
            raise InvalidPermutation(
                f"images {tuple(self.images)!r} are not a bijection on 1..{d}"
            )
        images = np.array(self.images, dtype=TABLE_DTYPE)
        images.setflags(write=False)
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)


class FiniteGroup:
    """A finite group on elements 0..order-1 with identity 0."""

    __slots__ = ("order", "mul", "inv", "labels", "name", "_cache", "__weakref__")

    def __init__(self, mul: np.ndarray, inv=None, labels=None, name: str = ""):
        """Wrap a group table; a missing inverse map is read off it."""
        check_order(len(mul))
        self.mul = np.ascontiguousarray(mul, dtype=TABLE_DTYPE)
        if inv is None:
            inv = (self.mul == 0).argmax(axis=1)
        self.inv = np.ascontiguousarray(inv, dtype=TABLE_DTYPE)
        self.order = int(self.mul.shape[0])
        self.labels = labels
        self.name = name
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)
        self._cache: dict = {}

    def __repr__(self):
        tag = self.name or "group"
        return f"<FiniteGroup {tag} of order {self.order}>"

    # cached whole-group computations, shared by the higher-level modules

    def conjugacy_data(self):
        """(class_of, reps, sizes), read-only arrays over the classes, which
        are numbered by their least members.

        reps[c] is the least member of class c, ascending, so the identity's
        class is 0; class_of[x] is the class of x and sizes[c] = |class c|.
        The classes are the orbits of the conjugations pi_s(x) = x^s for s
        in S = `greedy_generators`, and each x is labelled by the least
        member of its orbit.  Starting from lab = identity, a round sets
        lab = min(lab, lab[pi_s]) for each s and then jumps pointers,
        lab = lab[lab]; rounds repeat until lab stops changing.
        Throughout, lab[x] lies in the class of x and is at most x, and each
        round only lowers labels.  So at the fixed point every step of the
        last round left lab alone: lab[x] <= lab[x^s] for every x, hence lab
        is constant along each cycle of pi_s.  S generates G, so lab is
        constant on each class, and lab[x] is the class minimum.  Every
        round before the last lowers some label, so the loop ends.  In an
        abelian group every pi_s is the identity, so the first round is the
        last.
        """
        if "classes" not in self._cache:
            lab = np.arange(self.order, dtype=np.int32)
            perms = [conjugates(self, lab, s) for s in greedy_generators(self)]
            while True:
                new = lab
                for pi in perms:
                    new = np.minimum(new, new[pi])
                new = new[new]
                if np.array_equal(new, lab):
                    break
                lab = new
            reps, class_of = np.unique(lab, return_inverse=True)
            data = (class_of.astype(np.int32), reps, np.bincount(class_of))
            for a in data:
                a.setflags(write=False)
            self._cache["classes"] = data
        return self._cache["classes"]

    def element_orders(self) -> np.ndarray:
        if "orders" not in self._cache:
            orders = orders_modulo(self, np.arange(self.order) == 0)
            orders.setflags(write=False)
            self._cache["orders"] = orders
        return self._cache["orders"]

    def centralizer_matrix(self, rows) -> np.ndarray:
        """Boolean matrix whose row i is the centralizer of rows[i]; each
        row costs one comparison of |G|.  Not cached: at order 2048 every
        row together takes 4 MB.
        """
        return self.mul[:, rows].T == self.mul[rows]

    def center_members(self) -> np.ndarray:
        """Z(G) = {x : xs = sx for every s in S}, S = `greedy_generators`.

        C(x) is a subgroup, so it is all of G once it contains S: an
        order x |S| comparison instead of the whole centralizer matrix.
        """
        if "center" not in self._cache:
            gens = greedy_generators(self)
            commute = self.mul[:, gens] == self.mul[gens].T
            members = np.flatnonzero(commute.all(axis=1)).astype(np.int32)
            members.setflags(write=False)
            self._cache["center"] = members
        return self._cache["center"]

    def is_abelian(self) -> bool:
        return len(self.center_members()) == self.order


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup as a sorted member array inside a parent group."""

    parent: FiniteGroup
    members: np.ndarray

    def __post_init__(self):
        self.members.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.parent.order, dtype=bool)
        m[self.members] = True
        m.setflags(write=False)
        return m

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[x])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupHandle)
            and self.parent is other.parent
            and len(self.members) == len(other.members)
            and bool((self.members == other.members).all())
        )

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order


def _handle(parent: FiniteGroup, members: np.ndarray) -> SubgroupHandle:
    return SubgroupHandle(parent, np.sort(np.asarray(members, dtype=np.int32)))


# ---------------------------------------------------------------------------
# construction


def check_cap(cap: int) -> None:
    """Refuse an order cap above MAX_ORDER_CAP, before anything is built."""
    if cap > MAX_ORDER_CAP:
        raise ClosureExceedsCap(f"order cap {cap} exceeds the ceiling {MAX_ORDER_CAP}")


def check_order(order: int) -> None:
    """Refuse an order above MAX_ORDER_CAP."""
    if order > MAX_ORDER_CAP:
        raise ClosureExceedsCap(f"order {order} exceeds cap {MAX_ORDER_CAP}")


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
    check_cap(max_order)
    for g in gens:
        if g.degree != degree:
            raise InvalidPermutation(
                f"generator degree {g.degree} does not match declared degree {degree}"
            )
    maps = [g.images - 1 for g in gens]  # 0-based

    # keys[i], the bytes of element i's 0-based image array, is its one copy
    identity = Permutation(range(1, degree + 1))  # refuses a degree past the cap
    keys = [(identity.images - 1).tobytes()]
    index_of = {keys[0]: 0}
    parent_gen: list[tuple[int, int]] = [(-1, -1)]
    right_maps = [[] for _ in maps]  # right_maps[j][i] = index of elem_i * gen_j

    for head, elem in enumerate(keys):  # keys grows while it is read
        e = np.frombuffer(elem, dtype=TABLE_DTYPE)
        for j, g in enumerate(maps):
            key = g.take(e).tobytes()  # apply e then the generator
            idx = index_of.get(key)
            if idx is None:
                idx = len(keys)
                if idx >= max_order:
                    raise ClosureExceedsCap(
                        f"closure exceeds cap {max_order} (degree {degree})"
                    )
                index_of[key] = idx
                keys.append(key)
                parent_gen.append((head, j))
            right_maps[j].append(idx)

    n = len(keys)
    del keys, index_of  # the table is formed from the right maps alone
    rmaps = [np.asarray(r, dtype=TABLE_DTYPE) for r in right_maps]
    mul = np.empty((n, n), dtype=TABLE_DTYPE)
    mul[:, 0] = np.arange(n)
    for k in range(1, n):
        parent, j = parent_gen[k]
        mul[:, k] = rmaps[j][mul[:, parent]]
    return FiniteGroup(mul, name=name)


def assoc_violation(mul: np.ndarray) -> tuple[int, int, int] | None:
    """First triple (a, b, c) with (a*b)*c != a*(b*c), or None.

    Compares both sides for a block of r rows a at a time, r n^2 <=
    COMMUTATOR_BLOCK, and the first violation of the first bad block in
    (a, b, c) order is the first overall.
    """
    mul = np.asarray(mul)
    index = mul.astype(np.intp)  # gathers convert any other index type
    n = mul.shape[0]
    rows = max(1, COMMUTATOR_BLOCK // (n * n))
    for start in range(0, n, rows):
        bad = mul[index[start : start + rows]] != mul[start : start + rows][:, index]
        if bad.any():
            a, b, c = np.argwhere(bad)[0]
            return start + int(a), int(b), int(c)
    return None


def cyclic_extension(mulH: np.ndarray, alpha: np.ndarray, h0: int, p: int):
    """Group on H x Zp from (alpha, h0) with t^p = h0, t h t^-1 = alpha(h).

    The element h t^i has index i |H| + h, and (h t^i)(k t^j) = h
    alpha^i(k) t^(i+j), times t^p = h0 when i + j >= p.  Row block i, all
    |H| rows h t^i, is one contiguous (|H|, p |H|) array: a single column
    gather of mulH writes it in place, then each column block j gets its
    offset ((i + j) mod p) |H|.  Block row 0 needs no gather (alpha^0 is
    the identity).  An alpha entry outside 0..|H|-1 raises IndexError.
    """
    nH = mulH.shape[0]
    n = nH * p
    check_order(n)
    alpha = np.asarray(alpha, dtype=np.intp)
    if alpha.min() < 0 or alpha.max() >= nH:
        raise IndexError(f"alpha maps outside the {nH} elements of H")
    mulH = np.asarray(mulH, dtype=TABLE_DTYPE)
    table = np.empty((p, nH, p, nH), dtype=TABLE_DTYPE)
    offsets = np.arange(2 * p, dtype=TABLE_DTYPE) % p * nH  # ((i + j) mod p) |H|
    np.add(mulH[:, None, :], offsets[:p, None], out=table[0])
    apow = alpha  # alpha^i
    for i in range(1, p):
        # h alpha^i(k), times h0 in the blocks where t^(i+j) wraps; the
        # alpha range check above keeps every column inside mulH
        wrapped = mulH[apow, h0]
        cols = np.concatenate([apow] * (p - i) + [wrapped] * i)
        np.take(mulH, cols, axis=1, out=table[i].reshape(nH, n), mode="clip")
        table[i] += offsets[i : i + p, None]
        apow = alpha[apow]
    return table.reshape(n, n)


def central_extension(vadd: np.ndarray, wadd: np.ndarray, cocycle: np.ndarray):
    """Table of (v, w)(v', w') = (v + v', w + w' + cocycle[v, v']).

    vadd and wadd are the tables of the abelian groups V and W, and
    cocycle is a |V| x |V| array of elements of W; element (v, w) has
    index v |W| + w.  The table is assembled one w at a time.  Its
    entries in the rows (v, w) are (v + v') |W| + ((w + w') + c) for c =
    cocycle[v, v']: one gather, through the index (v + v') |W| + c, of
    the rows of the small table source[x |W| + c, w'] = x |W| + ((w +
    w') + c), into a buffer that is then copied to those rows.  So
    nothing larger than the table and that |V| x |V| x |W| buffer is
    allocated.  A cocycle entry outside 0..|W|-1 raises IndexError.
    """
    nV, nW = vadd.shape[0], wadd.shape[0]
    check_order(nV * nW)
    cocycle = np.asarray(cocycle, dtype=np.intp)
    if cocycle.min() < 0 or cocycle.max() >= nW:
        raise IndexError(f"the cocycle has values outside the {nW} elements of W")
    index = np.multiply(vadd, nW, dtype=np.intp)  # (v + v') |W| + c
    index += cocycle
    wadd = np.asarray(wadd, dtype=TABLE_DTYPE)
    base = (np.arange(nV, dtype=TABLE_DTYPE) * nW)[:, None, None]  # x |W|
    table = np.empty((nV, nW, nV, nW), dtype=TABLE_DTYPE)
    gathered = np.empty((nV, nV, nW), dtype=TABLE_DTYPE)
    for w in range(nW):
        source = base + wadd[wadd[w]].T  # [x, c, w'] -> x |W| + ((w + w') + c)
        np.take(source.reshape(nV * nW, nW), index, axis=0, out=gathered, mode="clip")
        table[:, w] = gathered
    return table.reshape(nV * nW, nV * nW)


# ---------------------------------------------------------------------------
# element and subgroup operations


def orders_modulo(G: FiniteGroup, mask: np.ndarray) -> np.ndarray:
    """k[x] = the least k >= 1 with x^k in the set given by its mask.

    For the set {1} that is the order of x, and for a normal subgroup N
    the order of xN in G/N.  y = x^k for the x not yet done, all at once:
    exponent-many steps.
    """
    orders = np.empty(G.order, dtype=np.int64)
    x = np.arange(G.order, dtype=np.int32)
    y, k = x, 1
    while x.size:
        done = mask[y]
        orders[x[done]] = k
        x, y = x[~done], y[~done]
        y, k = G.mul[y, x], k + 1
    return orders


def power_map(G: FiniteGroup, k: int) -> np.ndarray:
    """x -> x^k for every element, as an index array."""
    idx = np.arange(G.order, dtype=np.int32)
    pw = idx.copy()
    for _ in range(k - 1):
        pw = G.mul[pw, idx]
    return pw


def group_exponent(G: FiniteGroup) -> int:
    return int(np.lcm.reduce(G.element_orders()))


def subgroup_generate(G: FiniteGroup, seeds: Iterable[int]) -> SubgroupHandle:
    """Smallest subgroup containing the seeds: the closure of
    `greedy_generators` run over the distinct seeds, ascending."""
    seeds = seeds if isinstance(seeds, np.ndarray) else np.fromiter(seeds, np.intp)
    return _handle(G, np.flatnonzero(_greedy_closure(G, np.unique(seeds))[1]))


def greedy_generators(G: FiniteGroup, members=None) -> list[int]:
    """Small deterministic generating set S of the subgroup with the given
    sorted members (default, and cached on G: the whole group): each
    generator is the least member outside the subgroup H generated by the
    ones before it, so each at least doubles H and there are at most
    log2|H| of them.  `subgroup_generate` runs the same closure over its
    seeds and returns the subgroup instead.

    <H, g> is closed from H<g> (one |H| x ord(g) product) by right
    multiplication by the generators; only elements new in H<g> need it,
    since H is already closed under the earlier generators, and each
    round takes the elements that the one before added, read off the
    mask.  All of these products stay inside the subgroup.
    """
    whole = members is None or len(members) == G.order
    if whole and "generators" in G._cache:
        return list(G._cache["generators"])
    members = np.arange(G.order) if members is None else np.asarray(members)
    gens = _greedy_closure(G, members)[0]
    if whole:
        G._cache["generators"] = tuple(gens)
    return gens


def _powers(G: FiniteGroup, g: int) -> np.ndarray:
    """g^0, g^1, ..., g^(ord(g) - 1): one at a time up to POWER_STEPS of
    them, then by doubling, g^k times g^0..g^(k-1), cut at the identity."""
    powers = [0]
    while (x := G.mul.item(powers[-1], g)) != 0 and len(powers) < POWER_STEPS:
        powers.append(x)
    powers = np.array(powers)
    while x != 0:  # x = g^k, k = len(powers)
        nxt = G.mul[x, powers]  # g^k, ..., g^(2k-1)
        cut = int((nxt == 0).argmax()) or len(nxt)  # nxt[0] = x is not 1
        powers = np.concatenate([powers, nxt[:cut]])
        x = G.mul.item(nxt[cut - 1], g)
    return powers


def _greedy_closure(G: FiniteGroup, members) -> tuple[list[int], np.ndarray]:
    """(S, mask of <S>) for the greedy generators S of the sorted members."""
    gens: list[int] = []
    mask = np.zeros(G.order, dtype=bool)  # <gens>, extended in place
    mask[0] = True
    while (left := members[~mask[members]]).size:
        g = int(left[0])
        gens.append(g)
        done = mask.copy()  # H, closed under the generators before g
        mask[G.mul[np.flatnonzero(mask)[:, None], _powers(G, g)]] = True  # H<g>
        while (new := np.flatnonzero(mask & ~done)).size:
            done[new] = True
            mask[G.mul[new[:, None], gens]] = True
    return gens, mask


def center(G: FiniteGroup) -> SubgroupHandle:
    return _handle(G, G.center_members())


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


def commutator_subgroup(G: FiniteGroup, T: np.ndarray) -> SubgroupHandle:
    """[N, G] for N the normal closure of T: <[t, x] : t in T, x in G>.

    The subgroup generated is normal, since [t, x]^y = [t, y]^-1 [t, xy];
    modulo it every t is central, so N/it is central and [N, G] <= it.
    |T| x |G| commutators.
    """
    every = np.arange(G.order, dtype=np.int32)
    return subgroup_generate(G, commutator_set(G, T, every))


def derived_subgroup(G: FiniteGroup) -> SubgroupHandle:
    """G' = <[s, x] : s in S, x in G> for S = `greedy_generators`.

    That subgroup is normal ([s, x]^y = [s, y]^-1 [s, xy]) and G modulo it
    is generated by the central images of S, so it is abelian and the
    subgroup is all of G'.
    """
    if "derived" not in G._cache:
        G._cache["derived"] = commutator_subgroup(G, greedy_generators(G)).members
    return _handle(G, G._cache["derived"])


def is_normal(G: FiniteGroup, H: SubgroupHandle) -> bool:
    """H^s <= H for every s in S = `greedy_generators`.

    The g with H^g <= H are closed under products (H^gh = (H^g)^h), so in a
    finite group they form a subgroup, which is G once it contains S.
    """
    conj = conjugates(G, H.members[:, None], greedy_generators(G))
    return bool(H.mask[conj].all())


def cosets(G: FiniteGroup, N: SubgroupHandle) -> tuple[np.ndarray, np.ndarray]:
    """G/N as (reps, coset_of), from |G| |N| products: reps are the least
    members of the cosets xN, ascending (reps[0] = 0, N itself), and
    coset_of[x], the index in reps of the coset of x, counts the reps
    below the least member of xN.  For normal N, cosets a and b multiply
    to coset_of[mul[reps[a], reps[b]]].
    """
    least = G.mul[:, N.members].min(axis=1)
    is_rep = least == np.arange(G.order)
    return np.flatnonzero(is_rep), np.cumsum(is_rep)[least] - 1


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (a, b) has index a*|B| + b."""
    n = A.order * B.order
    check_order(n)
    nB = B.order
    mul = (A.mul[:, None, :, None] * nB + B.mul[None, :, None, :]).reshape(n, n)
    inv = (A.inv[:, None] * nB + B.inv[None, :]).reshape(n)
    name = f"{A.name}x{B.name}" if A.name and B.name else ""
    return FiniteGroup(mul, inv, name=name)

