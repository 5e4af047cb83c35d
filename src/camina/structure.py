"""Central series and their nilpotency class, the exponent of G/Z(G), and
prime-power arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EquivalenceViolation
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    _handle,
    center,
    commutator_set,
    commutator_subgroup,
    commutators,
    derived_subgroup,
    greedy_generators,
    orders_modulo,
    subgroup_generate,
)


@dataclass
class CentralSeries:
    """Terms of a lower or upper central series.

    class_c is None when the series stabilizes without witnessing
    nilpotency ("not nilpotent" is a value, not an error).
    """

    terms: list[SubgroupHandle]
    class_c: int | None


def lower_central_series(G: FiniteGroup) -> CentralSeries:
    """G_1 = G, G_{i+1} = [G_i, G], until stable.

    T_i normally generates G_i, for T_1 = S = `greedy_generators` and
    T_{i+1} = {[t, s] : t in T_i, s in S}: modulo the normal closure of
    T_{i+1} each t commutes with S, so is central, and [G_i, G] lies in it.
    Hence G_{i+1} = <[t, x] : t in T_i, x in G> (`commutator_subgroup`).
    """
    gens = greedy_generators(G)
    terms = [_handle(G, np.arange(G.order))]
    T, nxt = gens, derived_subgroup(G)  # [G_1, G] from T_1, cached
    while nxt.order < terms[-1].order:
        terms.append(nxt)
        if nxt.order == 1:
            break
        T = commutator_set(G, T, gens)
        T = T[T != 0]
        nxt = commutator_subgroup(G, T)
    class_c = len(terms) - 1 if terms[-1].order == 1 else None
    return CentralSeries(terms, class_c)


def upper_central_series(G: FiniteGroup) -> CentralSeries:
    """Z_0 = 1, Z_{i+1}/Z_i = Z(G/Z_i), until stable.

    Z_{i+1} = {x : [x, g] in Z_i for every g in a generating set of G}: the
    elements commuting with xZ_i in G/Z_i form a subgroup, so it holds for
    all of G once it holds for generators.  No quotient is built.
    """
    gens = greedy_generators(G)
    comms = commutators(G, np.arange(G.order)[:, None], gens)  # [x, g_j]
    terms = [subgroup_generate(G, ())]
    while not terms[-1].is_whole_group():
        nxt = np.flatnonzero(terms[-1].mask[comms].all(axis=1))
        if len(nxt) == terms[-1].order:
            break
        terms.append(_handle(G, nxt))
    class_c = len(terms) - 1 if terms[-1].is_whole_group() else None
    return CentralSeries(terms, class_c)


def central_series(G: FiniteGroup) -> tuple[CentralSeries, CentralSeries]:
    """The lower and upper central series, checked to agree on the class."""
    lower = lower_central_series(G)
    upper = upper_central_series(G)
    if lower.class_c != upper.class_c:
        raise EquivalenceViolation(
            f"central series disagree: lower {lower.class_c}, upper {upper.class_c}"
        )
    return lower, upper


def second_center_of(upper: CentralSeries) -> SubgroupHandle:
    """Z_2(G) read off an upper central series (its last term if shorter)."""
    return upper.terms[min(2, len(upper.terms) - 1)]


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

    The orders of the elements of the p-group G/Z(G) are powers of p, so
    the exponent is the largest of them, read off `orders_modulo` without
    building the quotient.  The trivial quotient (abelian G) has no
    attached prime and also returns None.
    """
    Z = center(G)
    pk = is_prime_power(G.order // Z.order)
    if pk is None:
        return None
    p = pk[0]
    return p, valuation(int(orders_modulo(G, Z.mask).max()), p)
