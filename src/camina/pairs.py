"""Center Camina pair verdicts and the named inequality check suite.

A pair (G, N) with 1 < N < G normal is a Camina pair when every g outside
N is conjugate to the whole coset gN.  Three equivalent criteria are
implemented (conjugacy classes, commutator coverage, centralizer orders)
and always cross-asserted; the class and centralizer criteria share G's
class partition, the commutator criterion reads none and takes y over the
least members of the cosets of Z(G), and all three read G/N and G/Z only
through `groups.cosets`; `is_camina_group` reads class sizes and no
cosets.  For a positive verdict on N = Z(G) the full report of named
inequality checks is evaluated in exact integer arithmetic; every check
records its hypothesis and conclusion separately so vacuous passes stay
visible.  The checks are declared once, in `CHECKS`, over one
`Invariants` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .characters import dixon_character_table, verify_fully_ramified
from .errors import EquivalenceViolation, InvalidPairTarget
from .groups import (
    COMMUTATOR_BLOCK,
    FiniteGroup,
    SubgroupHandle,
    center,
    commutator_set,
    commutators,
    cosets,
    derived_subgroup,
    greedy_generators,
    is_normal,
    power_map,
)
from .structure import (
    central_series,
    is_prime_power,
    quotient_exponent_over_center,
    second_center_of,
    valuation,
)

DEFAULT_CHAR_TABLE_CAP = 2048


# ---------------------------------------------------------------------------
# the check catalog


@dataclass(frozen=True)
class Invariants:
    """What the checks read, for a positive verdict on a p-group G.

    |G:Z| = p^n, |Z| = p^m, |G':Z| = p^l, exp(G/Z) = p^n_exp and
    |G : G'Z_2| = p^n_z2; the flags are the structural facts the other
    checks test.  fully_ramified is None when no table was built: on an
    index that is not a square, where L2.4 fails anyway, and when |G| is
    over the table cap, where L2.4 reads SKIPPED on a square index.
    p_group is True wherever the invariants are computed, since
    `verify_bounds` reports an order that is not a prime power itself,
    with L2.1 failed and every other check vacuous.
    """

    p: int
    n: int
    m: int
    l: int
    n_exp: int
    n_z2: int
    class_c: int | None
    p_group: bool
    upper_factors_exp_p: bool
    z_is_last_lower_term: bool
    fully_ramified: bool | None
    d_over_c_like_z: bool
    some_c_meets_gp_in_z: bool
    their_d_over_z_abelian: bool
    some_d_abelian_index_p: bool
    some_csmall_a: bool


@dataclass(frozen=True)
class Check:
    """A named inequality: its hypothesis and conclusion over the invariants."""

    check_id: str
    inequality: str
    hypothesis: Callable[[Invariants], bool]
    conclusion: Callable[[Invariants], bool]


def _always(v: Invariants) -> bool:
    return True


def _z_below_gp(v: Invariants) -> bool:
    return v.l >= 1  # with Z <= G', the same as "G/Z is nonabelian"


def _nilpotent(v: Invariants) -> bool:
    return v.class_c is not None


def _square_bound(v: Invariants) -> bool:
    return 2 * v.m <= v.n


def _is_p_group(v: Invariants) -> bool:
    return v.p_group


def _cube_bound(v: Invariants) -> bool:
    return v.m < 3 * v.l  # |Z| < |G':Z|^3


# fmt: off
CHECKS = (
    Check("T1.1", "|Z| <= |G:G'|", _always, lambda v: v.m <= v.n - v.l),
    Check("T1.2", "if Z < G':  |Z| < |G':Z|^3", _z_below_gp, _cube_bound),
    Check("T1.3", "4m + 1 <= 3n", _always, lambda v: 4 * v.m + 1 <= 3 * v.n),
    Check("T1.4", "if Z < G':  |Z|^2 <= |G:Z|  or  |Z| p^4 <= |G:Z|",
          _z_below_gp, lambda v: 2 * v.m <= v.n or v.m + 4 <= v.n),
    Check("T1.5", "if exp(G/Z) != p:  |Z|^2 < |G:Z|",
          lambda v: v.n_exp >= 2, lambda v: 2 * v.m < v.n),
    Check("Texp", "|Z|^n' p^n' <= |G:Z|",
          lambda v: v.n_exp >= 1, lambda v: v.n_exp * (v.m + 1) <= v.n),
    Check("L2.1", "G is a p-group", _always, _is_p_group),
    Check("L2.2", "each upper central factor has exponent p",
          _nilpotent, lambda v: v.upper_factors_exp_p),
    Check("L2.3", "Z(G) equals the last nontrivial lower central term",
          _nilpotent, lambda v: v.z_is_last_lower_term),
    Check("L2.4", "|G:Z| is a square; characters over Z vanish off Z and have "
          "chi(1)^2 = |G:Z| (checked when the table is computed)",
          _always, lambda v: v.n % 2 == 0 and v.fully_ramified),
    Check("Lcents", "D(g)/C(g) matches Z(G) in order and elementary-abelian shape",
          _always, lambda v: v.d_over_c_like_z),
    Check("LZ2Gp", "if G/Z nonabelian:  |G : G'Z_2| >= |Z|",
          _z_below_gp, lambda v: v.n_z2 >= v.m),
    Check("Cor2grp", "if p = 2:  |Z|^2 <= |G:Z|", lambda v: v.p == 2, _square_bound),
    Check("Cm2", "|Z|^2 <= |G:Z|  or  |Z| p^3 <= |G:Z|",
          _always, lambda v: 2 * v.m <= v.n or v.m + 3 <= v.n),
    Check("CGpZ", "if |G':Z| = p:  |Z|^2 <= |G:Z|", lambda v: v.l == 1, _square_bound),
    # the paper states T1.2 a second time as Theorem 5.1; both ids are reported
    Check("T5.1", "if Z < G':  m <= 3l - 1", _z_below_gp, _cube_bound),
    Check("LDquo", "every a with C(a) and G' meeting exactly in Z has D(a)/Z abelian",
          lambda v: v.some_c_meets_gp_in_z, lambda v: v.their_d_over_z_abelian),
    Check("Lidxp", "if some a has D(a)/Z abelian and |G:D(a)| = p:  |Z|^2 <= |G:Z|",
          lambda v: v.some_d_abelian_index_p, _square_bound),
    Check("LidxpRev", "if |Z|^2 > |G:Z|:  no a has D(a)/Z abelian with |G:D(a)| = p",
          lambda v: 2 * v.m > v.n, lambda v: not v.some_d_abelian_index_p),
    Check("Csmall", "if some a in (G' n Z_2) - Z has C(b) <= C(a) for all b in "
          "G' - Z:  3m + 2 <= 2n",
          lambda v: v.some_csmall_a, lambda v: 3 * v.m + 2 <= 2 * v.n),
)
# fmt: on

CHECK_IDS = tuple(c.check_id for c in CHECKS)


@dataclass
class CaminaVerdict:
    """Outcome of the three pair criteria on one target subgroup."""

    pair_target: SubgroupHandle
    by_classes: bool
    by_commutators: bool
    by_centralizers: bool
    witness: tuple[int, int] | None
    is_camina_group: bool

    @property
    def holds(self) -> bool:
        return self.by_classes


@dataclass
class BoundCheck:
    check_id: str
    hypothesis_held: bool
    conclusion_held: bool | None  # None: not evaluated

    @property
    def status(self) -> str:
        if not self.hypothesis_held:
            return "VACUOUS"
        if self.conclusion_held is None:
            return "SKIPPED"
        return "PASS" if self.conclusion_held else "FAIL"


@dataclass
class BoundReport:
    p: int
    n: int
    m: int
    l: int
    class_c: int | None
    quotient_exponent_n: int
    checks: list[BoundCheck] = field(default_factory=list)

    def check(self, check_id: str) -> BoundCheck:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def failures(self) -> list[BoundCheck]:
        return [c for c in self.checks if c.status == "FAIL"]


@dataclass
class CenterPairAnalysis:
    """analyze_center_pair result; verdict is None when not applicable."""

    group: FiniteGroup
    applicable: bool
    verdict: CaminaVerdict | None
    report: BoundReport | None


# ---------------------------------------------------------------------------
# the three criteria


def _validate_pair_target(G: FiniteGroup, N: SubgroupHandle) -> None:
    if N.order <= 1:
        raise InvalidPairTarget("pair target must be nontrivial")
    if N.order >= G.order:
        raise InvalidPairTarget("pair target must be a proper subgroup")
    if not is_normal(G, N):
        raise InvalidPairTarget("pair target must be normal")


def camina_by_classes(G: FiniteGroup, N: SubgroupHandle):
    """True iff the class of every g outside N contains the coset gN.

    Only the g least in gN are scanned, ascending.  gN <= g^G holds for g
    exactly when it holds for every g' in gN (each is then conjugate to g,
    and g'N = gN), so the least failing element is a coset minimum and the
    witness is the one an element-by-element scan returns.
    """
    _validate_pair_target(G, N)
    class_of = G.conjugacy_data()[0]
    scanned = cosets(G, N)[0][1:]
    bad = class_of[G.mul[np.ix_(scanned, N.members)]] != class_of[scanned][:, None]
    if not bad.any():
        return True, None
    i, j = np.argwhere(bad)[0]
    return False, (int(scanned[i]), int(N.members[j]))


def camina_by_commutators(G: FiniteGroup, N: SubgroupHandle):
    """True iff {[y, g] : y in G} covers N for every g outside N.

    g^y = g [g, y] and [y, g] = [g, y]^-1, so the condition says
    gN <= g^G, and as in `camina_by_classes` only the g least in gN are
    scanned, ascending, here in blocks of 1, 2, 4, ... up to
    COMMUTATOR_BLOCK / |G| columns: a failure on the first coset costs one
    column.  [yz, g] = [y, g] for z in Z(G), so y runs over the least
    members of the cosets of Z(G) only, |G:Z| commutators per column.
    Reads no conjugacy data.
    """
    _validate_pair_target(G, N)
    Z = center(G)
    zmin = cosets(G, Z)[0]
    scanned = (zmin if N == Z else cosets(G, N)[0])[1:]
    ys, n, start, cols = zmin[:, None], G.order, 0, 1
    while start < scanned.size:
        gs = scanned[start : start + cols]
        hit = np.zeros((gs.size, n), dtype=bool)
        hit[np.arange(gs.size), commutators(G, ys, gs)] = True  # [y, g]
        missed = ~hit[:, N.members]
        if missed.any():
            i, j = np.argwhere(missed)[0]
            return False, (int(gs[i]), int(N.members[j]))
        start, cols = start + cols, min(2 * cols, COMMUTATOR_BLOCK // n)
    return True, None


def camina_by_centralizers(G: FiniteGroup, N: SubgroupHandle):
    """True iff |C_G(g)| = |C_{G/N}(gN)| for every g outside N.

    The orders are |G| / |g^G| and |G:N| / |(gN)^(G/N)|, equal exactly
    when |g^G| = |N| |(gN)^(G/N)|.  (gN)^(G/N) = {g^x N : x in G} is the
    set of cosets of N that g^G meets, counted over the distinct (coset,
    class) pairs, so G/N is neither built nor partitioned again.  The test
    is per element; the witness (g, -1) is the least g where it fails.
    """
    _validate_pair_target(G, N)
    class_of, _, sizes = G.conjugacy_data()
    _, coset_of = cosets(G, N)
    met = np.bincount(np.unique(coset_of * len(sizes) + class_of) % len(sizes))
    bad = np.flatnonzero((sizes != N.order * met)[class_of] & ~N.mask)
    if bad.size == 0:
        return True, None
    return False, (int(bad[0]), -1)


def is_camina_group(G: FiniteGroup) -> bool:
    """(G, G') is a Camina pair; false when G' is trivial or all of G.

    For g outside G', g^x = g [g, x] puts g^G inside gG', so gG' <= g^G
    exactly when |g^G| = |G'|: the class sizes decide, with no cosets.
    """
    Gp = derived_subgroup(G)
    if Gp.order <= 1 or Gp.order >= G.order:
        return False
    class_of, _, sizes = G.conjugacy_data()
    return bool((sizes[class_of[~Gp.mask]] == Gp.order).all())


# ---------------------------------------------------------------------------
# center-pair analysis


def analyze_center_pair(
    G: FiniteGroup,
    with_bounds: bool = True,
    char_table_cap: int = DEFAULT_CHAR_TABLE_CAP,
) -> CenterPairAnalysis:
    """Run all three criteria on N = Z(G) and, on success, the check suite.

    Not applicable (verdict None) when Z(G) is trivial or Z(G) = G.
    """
    Z = center(G)
    if Z.order == 1 or Z.is_whole_group():
        return CenterPairAnalysis(G, False, None, None)
    b1, w1 = camina_by_classes(G, Z)
    b2, w2 = camina_by_commutators(G, Z)
    b3, w3 = camina_by_centralizers(G, Z)
    if not (b1 == b2 == b3):
        raise EquivalenceViolation(
            f"criteria disagree on {G!r}: classes={b1} commutators={b2} "
            f"centralizers={b3}"
        )
    verdict = CaminaVerdict(
        pair_target=Z,
        by_classes=b1,
        by_commutators=b2,
        by_centralizers=b3,
        witness=w1 or w2 or w3,
        is_camina_group=is_camina_group(G),
    )
    report = None
    if b1 and with_bounds:
        report = verify_bounds(G, verdict, char_table_cap=char_table_cap)
    return CenterPairAnalysis(G, True, verdict, report)


def verify_bounds(
    G: FiniteGroup,
    verdict: CaminaVerdict,
    char_table_cap: int = DEFAULT_CHAR_TABLE_CAP,
) -> BoundReport:
    """Evaluate every named check for a positive center-pair verdict."""
    if not verdict.holds:
        raise ValueError("verify_bounds requires a positive verdict")
    lower, upper = central_series(G)

    pk = is_prime_power(G.order)
    if pk is None:
        # Mathematically impossible for a true verdict; report it honestly:
        # the p-group check fails, and every other check needs p.
        checks = [
            BoundCheck(c.check_id, c.conclusion is _is_p_group, False) for c in CHECKS
        ]
        return BoundReport(0, 0, 0, 0, upper.class_c, 0, checks)

    v = _invariants(G, verdict.pair_target, pk[0], upper, lower, char_table_cap)
    checks = []
    for c in CHECKS:
        held = c.conclusion(v)  # None: not evaluated
        held = None if held is None else bool(held)
        checks.append(BoundCheck(c.check_id, bool(c.hypothesis(v)), held))
    return BoundReport(v.p, v.n, v.m, v.l, v.class_c, v.n_exp, checks)


def _invariants(G, Z, p, upper, lower, char_table_cap) -> Invariants:
    """The invariants of a p-group G with a positive verdict on Z = Z(G).

    The flags over noncentral elements are read on one representative per
    conjugacy class: each is constant on a class, since D(g^y) = D(g)^y and
    C(g^y) = C(g)^y while Z, G' and the p-th power map are fixed by, or
    commute with, conjugation.  Each flag is a reduction over (noncentral
    classes x G) boolean rows: D(g) (`_d_masks`), C(g), and generators of
    D(g)', formed once per distinct D(g) and gathered from the first class
    with it.

    D(g)' is never formed: it is generated by [s, x] for s in a generating
    set S_D of D = D(g) and x in D (the identity of `derived_subgroup`,
    applied inside D), and the flags only ask whether it lies in C(g) or in
    Z, both subgroups, so testing those |S_D| |D| generators suffices.  G'
    is normal, so G'Z_2 is a subgroup of order |G'| |Z_2| / |G' n Z_2|.
    """
    order = G.order
    class_c = upper.class_c
    m = valuation(Z.order, p)
    n = valuation(order // Z.order, p)
    Gp = derived_subgroup(G)
    if not Gp.mask[Z.members].all():
        raise EquivalenceViolation("Z(G) not inside G' despite a true verdict")
    l = valuation(Gp.order // Z.order, p)
    n_exp = quotient_exponent_over_center(G)[1]  # exp(G/Z) = p^n_exp

    Z2 = second_center_of(upper)
    pw = power_map(G, p)
    reps = G.conjugacy_data()[1]
    reps = reps[~Z.mask[reps]]
    in_d = _d_masks(G, Z, reps)
    cent = G.centralizer_matrix(reps)
    first: dict[bytes, int] = {}
    which = [first.setdefault(row.tobytes(), i) for i, row in enumerate(in_d)]
    dprime = np.zeros_like(in_d)
    for i in first.values():
        d = np.flatnonzero(in_d[i])
        dprime[i, commutator_set(G, greedy_generators(G, d), d)] = True
    dprime = dprime[which]
    d_sizes = in_d.sum(axis=1)
    d_over_z_abelian = ~(dprime & ~Z.mask).any(axis=1)

    # Lcents: |D:C| = |Z| and D/C elementary abelian of exponent p
    lcents_ok = bool(
        (pw[Z.members] == 0).all()
        and (d_sizes == cent.sum(axis=1) * Z.order).all()
        and not (dprime & ~cent).any()
        and (cent[:, pw] | ~in_d).all()
    )
    # LDquo: a with C(a) n G' = Z must have D(a)/Z abelian
    meets_in_z = (cent & Gp.mask).sum(axis=1) == Z.order
    # Lidxp qualifier: D(a)/Z abelian and |G:D(a)| = p
    lidxp_qualifier = bool((d_over_z_abelian & (d_sizes * p == order)).any())

    # L2.2: upper central factors have exponent p
    l22_ok = all(
        below.mask[pw[here.members]].all()
        for below, here in zip(upper.terms, upper.terms[1:])
    )
    # L2.3: Z(G) = last nontrivial lower central term
    l23_ok = class_c is not None and class_c >= 1 and lower.terms[class_c - 1] == Z

    n_meet = int((Gp.mask & Z2.mask).sum())  # |G' n Z_2|

    # L2.4, character half: only on a square index, and at desk scale
    ramified_ok = None  # no table: FAIL on an odd n, SKIPPED over the cap
    if n % 2 == 0 and order <= char_table_cap:
        ramified_ok, _ = verify_fully_ramified(G, Z, dixon_character_table(G))

    return Invariants(
        p=p,
        n=n,
        m=m,
        l=l,
        n_exp=n_exp,
        n_z2=valuation(order * n_meet // (Gp.order * Z2.order), p),
        class_c=class_c,
        p_group=True,  # |G| = p^k: verify_bounds checked it
        upper_factors_exp_p=l22_ok,
        z_is_last_lower_term=l23_ok,
        fully_ramified=ramified_ok,
        d_over_c_like_z=lcents_ok,
        some_c_meets_gp_in_z=bool(meets_in_z.any()),
        their_d_over_z_abelian=bool(d_over_z_abelian[meets_in_z].all()),
        some_d_abelian_index_p=lidxp_qualifier,
        some_csmall_a=_some_csmall_a(G, Z, Gp, Z2),
    )


def _d_masks(G: FiniteGroup, Z: SubgroupHandle, reps: np.ndarray) -> np.ndarray:
    """Row i is the mask of D(g) = {x : [g, x] in Z}, for g = reps[i].

    x in D(g) depends only on xZ ([g, xz] = [g, x] for z central), so the
    rows are read off one block of commutators [g, x] over the least member
    x of each coset of Z.
    """
    zmin, coset_of = cosets(G, Z)
    return Z.mask[commutators(G, reps[:, None], zmin[None, :])][:, coset_of]


def _script_c_mask(G: FiniteGroup, Z: SubgroupHandle, Gp: SubgroupHandle) -> np.ndarray:
    """Script-C, the union of C(b) over b in G' - Z, as a mask over G."""
    derived_outside = Gp.members[~Z.mask[Gp.members]]
    return G.centralizer_matrix(derived_outside).any(axis=0)


def _some_csmall_a(G, Z, Gp, Z2) -> bool:
    """Some a in (G' n Z_2) - Z has C(b) <= C(a) for every b in G' - Z.

    That is, C(a) contains script-C, formed once.
    """
    candidates = np.intersect1d(Gp.members, Z2.members)
    candidates = candidates[~Z.mask[candidates]]
    if not candidates.size:
        return False
    covered = _script_c_mask(G, Z, Gp)
    return bool((G.centralizer_matrix(candidates) | ~covered).all(axis=1).any())


# ---------------------------------------------------------------------------
# census and counterexample search


def _pred_center_pair(G) -> bool:
    verdict = analyze_center_pair(G, with_bounds=False).verdict
    return verdict is not None and verdict.holds


def _pred_center_pair_not_camina_group(G) -> bool:
    verdict = analyze_center_pair(G, with_bounds=False).verdict
    return verdict is not None and verdict.holds and not verdict.is_camina_group


PREDICATES = {
    "center-pair": _pred_center_pair,
    "center-pair-not-camina-group": _pred_center_pair_not_camina_group,
    "camina-group": is_camina_group,
}


def census(items, order: int, predicate: str) -> list[str]:
    """The ids of the groups of one order satisfying a named predicate.

    `items` is an iterable of (group_id, FiniteGroup) pairs.
    """
    pred = PREDICATES[predicate]
    return [gid for gid, G in items if G.order == order and pred(G)]


@dataclass
class SearchFinding:
    gid: str
    order: int
    report: BoundReport


@dataclass
class SearchReport:
    scanned: int
    strict: list[SearchFinding]
    equality: list[SearchFinding]


def search_counterexample(items) -> SearchReport:
    """Scan (gid, group) items for center pairs with |Z|^2 > |G:Z|; also
    collect equality cases.  The caller chooses the orders to scan."""
    scanned = 0
    strict: list[SearchFinding] = []
    equality: list[SearchFinding] = []
    for gid, G in items:
        scanned += 1
        report = analyze_center_pair(G).report
        if report is None:  # not applicable, or no center pair
            continue
        if 2 * report.m > report.n:
            strict.append(SearchFinding(gid, G.order, report))
        elif 2 * report.m == report.n:
            equality.append(SearchFinding(gid, G.order, report))
    return SearchReport(scanned, strict, equality)
