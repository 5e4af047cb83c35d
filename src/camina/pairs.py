"""Center Camina pair verdicts and the named inequality check suite.

A pair (G, N) with 1 < N < G normal is a Camina pair when every g outside
N is conjugate to the whole coset gN.  Three equivalent criteria are
implemented independently (conjugacy classes, commutator coverage,
centralizer orders) and always cross-asserted.  For a positive verdict on
N = Z(G) the full report of named inequality checks is evaluated in exact
integer arithmetic; every check records its hypothesis and conclusion
separately so vacuous passes stay visible.  The checks are declared once,
in `CHECKS`, over one `Invariants` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .characters import dixon_character_table, verify_fully_ramified
from .errors import (
    EquivalenceViolation,
    InvalidPairTarget,
    InvariantViolation,
    NotApplicable,
)
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    center,
    commutator_set,
    commutators,
    derived_subgroup,
    is_normal,
    joined,
    power_map,
    quotient,
)
from .structure import (
    central_series,
    d_members,
    is_prime_power,
    quotient_exponent_over_center,
    second_center_of,
    valuation,
)

DEFAULT_CHAR_TABLE_CAP = 256


# ---------------------------------------------------------------------------
# the check catalog


@dataclass(frozen=True)
class Invariants:
    """What the checks read, for a positive verdict on a p-group G.

    |G:Z| = p^n, |Z| = p^m, |G':Z| = p^l, exp(G/Z) = p^n_exp and
    |G : G'Z_2| = p^n_z2; the flags are the structural facts the other
    checks test.  fully_ramified is True when no table was computed.
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
    fully_ramified: bool
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


# fmt: off
CHECKS = (
    Check("T1.1", "|Z| <= |G:G'|", _always, lambda v: v.m <= v.n - v.l),
    Check("T1.2", "if Z < G':  |Z| < |G':Z|^3", _z_below_gp, lambda v: v.m < 3 * v.l),
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
    Check("T5.1", "if Z < G':  m <= 3l - 1", _z_below_gp, lambda v: v.m < 3 * v.l),
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
    conclusion_held: bool

    @property
    def passed(self) -> bool:
        return (not self.hypothesis_held) or self.conclusion_held

    @property
    def status(self) -> str:
        if not self.hypothesis_held:
            return "VACUOUS"
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


def _outside(G: FiniteGroup, N: SubgroupHandle) -> np.ndarray:
    return np.flatnonzero(~N.mask).astype(np.int32)


def camina_by_classes(G: FiniteGroup, N: SubgroupHandle):
    """True iff the class of every g outside N contains the coset gN."""
    _validate_pair_target(G, N)
    class_of, _ = G.conjugacy_data()
    outside = _outside(G, N)
    bad = class_of[G.mul[np.ix_(outside, N.members)]] != class_of[outside][:, None]
    if not bad.any():
        return True, None
    i, j = np.argwhere(bad)[0]
    return False, (int(outside[i]), int(N.members[j]))


def camina_by_commutators(G: FiniteGroup, N: SubgroupHandle):
    """True iff {[y, g] : y in G} covers N for every g outside N."""
    _validate_pair_target(G, N)
    for g in _outside(G, N):
        hit = np.zeros(G.order, dtype=bool)
        hit[commutators(G, slice(None), g)] = True
        missing = N.members[~hit[N.members]]
        if missing.size:
            return False, (int(g), int(missing[0]))
    return True, None


def camina_by_centralizers(G: FiniteGroup, N: SubgroupHandle):
    """True iff |C_G(g)| = |C_{G/N}(gN)| for every g outside N."""
    _validate_pair_target(G, N)
    Q, proj = quotient(G, N)
    class_of, classes = G.conjugacy_data()
    qclass_of, qclasses = Q.conjugacy_data()
    sizes = np.array([len(c) for c in classes], dtype=np.int64)
    qsizes = np.array([len(c) for c in qclasses], dtype=np.int64)
    cent_g = G.order // sizes[class_of]
    cent_q = Q.order // qsizes[qclass_of[proj]]
    outside = _outside(G, N)
    bad = np.flatnonzero(cent_g[outside] != cent_q[outside])
    if bad.size == 0:
        return True, None
    return False, (int(outside[bad[0]]), -1)


def is_camina_group(G: FiniteGroup) -> bool:
    """(G, G') is a Camina pair; false when G' is trivial or all of G."""
    Gp = derived_subgroup(G)
    if Gp.order <= 1 or Gp.order >= G.order:
        return False
    ok, _ = camina_by_classes(G, Gp)
    return ok


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
    checks = [
        BoundCheck(c.check_id, bool(c.hypothesis(v)), bool(c.conclusion(v)))
        for c in CHECKS
    ]
    return BoundReport(v.p, v.n, v.m, v.l, v.class_c, v.n_exp, checks)


def _invariants(G, Z, p, upper, lower, char_table_cap) -> Invariants:
    """The invariants of a p-group G with a positive verdict on Z = Z(G)."""
    order = G.order
    class_c = upper.class_c
    m = valuation(Z.order, p)
    n = valuation(order // Z.order, p)
    Gp = derived_subgroup(G)
    if not Gp.mask[Z.members].all():
        raise EquivalenceViolation("Z(G) not inside G' despite a true verdict")
    l = valuation(Gp.order // Z.order, p)
    qe = quotient_exponent_over_center(G)
    if qe is None or qe[0] != p:
        raise InvariantViolation(f"G/Z(G) is not a nontrivial {p}-group")
    n_exp = qe[1]

    Z2 = second_center_of(upper)
    pw = power_map(G, p)
    noncentral = np.flatnonzero(~Z.mask).astype(np.int32)

    p_group = all(
        is_prime_power(int(o)) == (p, valuation(int(o), p))
        for o in G.element_orders()
        if o > 1
    )

    # one pass over noncentral elements: D(g), centralizers, derived sets
    cent_matrix = G.centralizer_matrix()
    dprime_cache: dict[bytes, np.ndarray] = {}
    lcents_ok = True
    ldquo_qualifier = False
    ldquo_ok = True
    lidxp_qualifier = False
    z_elementary = bool((pw[Z.members] == 0).all())

    for g in noncentral:
        d = d_members(G, g, Z.mask)
        key = d.tobytes()
        dprime_mask = dprime_cache.get(key)
        if dprime_mask is None:
            dset = commutator_set(G, d, d)
            dprime_mask = np.zeros(order, dtype=bool)
            dprime_mask[dset] = True
            dprime_cache[key] = dprime_mask
        c_mask = cent_matrix[g]
        c_size = int(c_mask.sum())

        # Lcents: |D:C| = |Z| and D/C elementary abelian of exponent p
        if lcents_ok:
            lcents_ok = (
                len(d) == c_size * Z.order
                and not (dprime_mask & ~c_mask).any()
                and c_mask[pw[d]].all()
                and z_elementary
            )

        # LDquo: a with C(a) n G' = Z must have D(a)/Z abelian
        if int((c_mask & Gp.mask).sum()) == Z.order:
            ldquo_qualifier = True
            if (dprime_mask & ~Z.mask).any():
                ldquo_ok = False

        # Lidxp qualifier: D(a)/Z abelian and |G:D(a)| = p
        if order == len(d) * p and not (dprime_mask & ~Z.mask).any():
            lidxp_qualifier = True

    # L2.2: upper central factors have exponent p
    l22_ok = all(
        below.mask[pw[here.members]].all()
        for below, here in zip(upper.terms, upper.terms[1:])
    )
    # L2.3: Z(G) = last nontrivial lower central term
    l23_ok = class_c is not None and class_c >= 1 and lower.terms[class_c - 1] == Z

    # L2.4, character half: only on a square index, and at desk scale
    ramified_ok = True
    if n % 2 == 0 and order <= char_table_cap:
        table = dixon_character_table(G)
        ramified_ok, _ = verify_fully_ramified(G, Z, table)

    return Invariants(
        p=p,
        n=n,
        m=m,
        l=l,
        n_exp=n_exp,
        n_z2=valuation(order // joined(Gp, Z2).order, p),
        class_c=class_c,
        p_group=p_group,
        upper_factors_exp_p=l22_ok,
        z_is_last_lower_term=l23_ok,
        fully_ramified=ramified_ok,
        d_over_c_like_z=lcents_ok,
        some_c_meets_gp_in_z=ldquo_qualifier,
        their_d_over_z_abelian=ldquo_ok,
        some_d_abelian_index_p=lidxp_qualifier,
        some_csmall_a=_some_csmall_a(Z, Gp, Z2, cent_matrix),
    )


def _some_csmall_a(Z, Gp, Z2, cent_matrix) -> bool:
    """Some a in (G' n Z_2) - Z has C(b) <= C(a) for every b in G' - Z."""
    candidates = np.intersect1d(Gp.members, Z2.members)
    candidates = candidates[~Z.mask[candidates]]
    derived_outside = Gp.members[~Z.mask[Gp.members]]
    for a in candidates:
        ca = cent_matrix[a]
        if all(not (cent_matrix[b] & ~ca).any() for b in derived_outside):
            return True
    return False


# ---------------------------------------------------------------------------
# script C


def script_c(G: FiniteGroup, Z: SubgroupHandle, Gprime: SubgroupHandle) -> np.ndarray:
    """The set {x : C(x) meets G' beyond Z}, cross-checked two ways.

    Also verified to equal the union of C(a) over a in G' - Z; raises
    NotApplicable when Z = G' (the set is empty by convention).
    """
    if Z.order == Gprime.order:
        raise NotApplicable("script-C is empty when Z(G) = G'")
    if not Gprime.mask[Z.members].all():
        raise ValueError("expected Z <= G'")
    cent_matrix = G.centralizer_matrix()
    counts = (cent_matrix & Gprime.mask[None, :]).sum(axis=1)
    direct = np.flatnonzero(counts > Z.order)
    a_list = Gprime.members[~Z.mask[Gprime.members]]
    union = np.flatnonzero(cent_matrix[a_list].any(axis=0))
    if not np.array_equal(direct, union):
        raise EquivalenceViolation("script-C characterizations disagree")
    return direct.astype(np.int32)


# ---------------------------------------------------------------------------
# census and counterexample search


@dataclass
class CensusReport:
    order: int
    predicate: str
    hits: list[str]

    @property
    def count(self) -> int:
        return len(self.hits)


def _pred_center_pair(G, analysis) -> bool:
    return analysis.applicable and analysis.verdict.holds


def _pred_center_pair_not_camina_group(G, analysis) -> bool:
    return (
        analysis.applicable
        and analysis.verdict.holds
        and not analysis.verdict.is_camina_group
    )


def _pred_camina_group(G, analysis) -> bool:
    return is_camina_group(G)


PREDICATES = {
    "center-pair": _pred_center_pair,
    "center-pair-not-camina-group": _pred_center_pair_not_camina_group,
    "camina-group": _pred_camina_group,
}


def census(items, order: int, predicate: str) -> CensusReport:
    """Count groups of one order satisfying a named predicate.

    `items` is an iterable of (group_id, FiniteGroup) pairs.
    """
    pred = PREDICATES[predicate]
    hits = []
    for gid, G in items:
        if G.order != order:
            continue
        analysis = analyze_center_pair(G, with_bounds=False)
        if pred(G, analysis):
            hits.append(gid)
    return CensusReport(order, predicate, hits)


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


def search_counterexample(items, max_order: int) -> SearchReport:
    """Scan for center pairs with |Z|^2 > |G:Z|; also collect equality cases."""
    scanned = 0
    strict: list[SearchFinding] = []
    equality: list[SearchFinding] = []
    for gid, G in items:
        if G.order > max_order:
            continue
        scanned += 1
        report = analyze_center_pair(G).report
        if report is None:  # not applicable, or no center pair
            continue
        if 2 * report.m > report.n:
            strict.append(SearchFinding(gid, G.order, report))
        elif 2 * report.m == report.n:
            equality.append(SearchFinding(gid, G.order, report))
    return SearchReport(scanned, strict, equality)
