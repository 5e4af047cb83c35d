"""Central series, nilpotency class, and the subgroups D(g).

D(g) = {x : [g, x] in Z(G)} is the preimage of the centralizer of gZ(G)
in G/Z(G); it drives most of the inequality checks in `pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CentralElement, EquivalenceViolation, InvariantViolation
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    _handle,
    center,
    commutator_set,
    commutators,
    greedy_generators,
    power_map,
    subgroup_generate,
)


@dataclass
class CentralSeries:
    """Terms of a lower or upper central series.

    class_c is None when the series stabilizes without witnessing
    nilpotency ("not nilpotent" is a value, not an error).
    """

    kind: str  # "lower" | "upper"
    terms: list[SubgroupHandle]
    class_c: int | None


def lower_central_series(G: FiniteGroup) -> CentralSeries:
    """G_1 = G, G_{i+1} = [G_i, G], until stable."""
    everything = np.arange(G.order, dtype=np.int32)
    terms = [_handle(G, everything)]
    while True:
        cur = terms[-1]
        comms = commutator_set(G, cur.members, everything)
        nxt = subgroup_generate(G, comms)
        if nxt.order == cur.order:
            break
        terms.append(nxt)
        if nxt.order == 1:
            break
    class_c = len(terms) - 1 if terms[-1].order == 1 else None
    return CentralSeries("lower", terms, class_c)


def upper_central_series(G: FiniteGroup) -> CentralSeries:
    """Z_0 = 1, Z_{i+1}/Z_i = Z(G/Z_i), until stable.

    Z_{i+1} = {x : [x, g] in Z_i for every g in a generating set of G}: the
    elements commuting with xZ_i in G/Z_i form a subgroup, so it holds for
    all of G once it holds for generators.  No quotient is built.
    """
    gens = np.asarray(greedy_generators(G), dtype=np.int32)
    comms = commutators(G, np.arange(G.order)[:, None], gens)  # [x, g_j]
    terms = [subgroup_generate(G, ())]
    while not terms[-1].is_whole_group():
        nxt = np.flatnonzero(terms[-1].mask[comms].all(axis=1))
        if len(nxt) == terms[-1].order:
            break
        terms.append(_handle(G, nxt))
    class_c = len(terms) - 1 if terms[-1].is_whole_group() else None
    return CentralSeries("upper", terms, class_c)


def central_series(G: FiniteGroup) -> tuple[CentralSeries, CentralSeries]:
    """The lower and upper central series, checked to agree on the class."""
    lower = lower_central_series(G)
    upper = upper_central_series(G)
    if lower.class_c != upper.class_c:
        raise EquivalenceViolation(
            f"central series disagree: lower {lower.class_c}, upper {upper.class_c}"
        )
    return lower, upper


def nilpotency_class(G: FiniteGroup) -> int | None:
    """Common class of both central series (checked to agree)."""
    return central_series(G)[0].class_c


def second_center_of(upper: CentralSeries) -> SubgroupHandle:
    """Z_2(G) read off an upper central series (its last term if shorter)."""
    return upper.terms[min(2, len(upper.terms) - 1)]


def second_center(G: FiniteGroup) -> SubgroupHandle:
    return second_center_of(upper_central_series(G))


def d_members(G: FiniteGroup, g: int, z_mask: np.ndarray) -> np.ndarray:
    """Sorted members of D(g) = {x : [g, x] in Z}, Z given by its mask."""
    comms = commutators(G, g, slice(None))
    return np.flatnonzero(z_mask[comms]).astype(np.int32)


def d_subgroup(G: FiniteGroup, g: int, Z: SubgroupHandle) -> SubgroupHandle:
    """D(g) = {x : [g, x] central}; requires Z = center(G) and g noncentral."""
    zc = center(G)
    if not (Z == zc):
        raise ValueError("Z must be the center of G")
    if g in Z:
        raise CentralElement(f"element {g} is central; D(g) would be all of G")
    handle = _handle(G, d_members(G, g, Z.mask))
    if not handle.closure_holds():
        raise InvariantViolation(f"D({g}) is not closed under the group operations")
    return handle


def commutators_land_in(G: FiniteGroup, members: np.ndarray, target_mask) -> bool:
    """True iff [x, y] lies in the target set for all x, y in members."""
    members = np.asarray(members, dtype=np.int32)
    for a in members:
        if not target_mask[commutators(G, a, members)].all():
            return False
    return True


def valuation(x: int, p: int) -> int:
    """The largest k with p^k dividing x (x >= 1)."""
    k = 0
    while x % p == 0 and x > 1:
        x //= p
        k += 1
    return k


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k and k >= 1, else None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = valuation(n, p)
            return (p, k) if p**k == n else None
        p += 1
    return n, 1


def quotient_exponent_over_center(G: FiniteGroup) -> tuple[int, int] | None:
    """(p, n) with exponent(G/Z(G)) = p^n, or None if not a p-group.

    n is the least exponent with x^(p^n) in Z(G) for every x, read off
    iterated p-th power maps, so the quotient is never built.  The
    trivial quotient (abelian G) has no attached prime and also returns
    None.
    """
    Z = center(G)
    pk = is_prime_power(G.order // Z.order)
    if pk is None:
        return None
    p = pk[0]
    pth_power = power_map(G, p)
    powers, n = np.arange(G.order), 0
    while not Z.mask[powers].all():
        powers, n = pth_power[powers], n + 1
    return p, n
