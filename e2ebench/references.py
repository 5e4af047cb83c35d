"""Known answers, written by hand from the classification of small groups.

Nothing here is produced by the code under test.  Each checker returns a
failure message, or None when the output matches, and every mismatch
counts toward the benchmark's failed items.

Notation: |G:Z| = p^n and |Z| = p^m.  An extraspecial group p^(1+2k) has
m = 1 and n = 2k and is a Camina group; the Sylow p-subgroup of SL3(q)
over GF(q), q = p^k, has m = k and n = 2k, G' = Z, and is a Camina group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Positive:
    """(G, Z(G)) is a Camina pair with these invariants."""

    p: int
    m: int
    n: int
    camina_group: bool = True


NA = "na"  # abelian: Z(G) = G, so the center pair is not applicable
FALSE = "false"


def _extraspecial(p: int, k: int = 1) -> Positive:
    return Positive(p, 1, 2 * k)


def _sl3_sylow(p: int, k: int) -> Positive:
    return Positive(p, k, 2 * k)


# ---------------------------------------------------------------------------
# corpus113: the four fixture files plus default_family_instances(625)

FIXTURE_COUNTS = {8: 5, 16: 14, 27: 5, 32: 51}

# The number of abelian groups of order p^k is the number of partitions of k.
FIXTURE_ABELIAN = {8: 3, 16: 5, 27: 3, 32: 7}

# The order-32 census: center pairs that are not Camina groups.
CENSUS_32 = {"32:6", "32:7", "32:8", "32:43", "32:44"}

CORPUS113_POSITIVE = {
    "8:3": _extraspecial(2),  # D8
    "8:4": _extraspecial(2),  # Q8
    "27:3": _extraspecial(3),  # 3^(1+2) of exponent 3
    "27:4": _extraspecial(3),  # 3^(1+2) of exponent 9
    **{gid: Positive(2, 1, 4, camina_group=False) for gid in CENSUS_32},
    "32:49": _extraspecial(2, 2),  # 2^(1+4), plus type
    "32:50": _extraspecial(2, 2),  # 2^(1+4), minus type
    "dihedral:8": _extraspecial(2),
    "quaternion:8": _extraspecial(2),
    **{
        f"extraspecial_{kind}:{p},1": _extraspecial(p)
        for kind in ("p", "p2")
        for p in (3, 5, 7)
    },
    "extraspecial_p:3,2": _extraspecial(3, 2),
    "extraspecial_p2:3,2": _extraspecial(3, 2),
    **{f"heisenberg:{p},1": _sl3_sylow(p, 1) for p in (2, 3, 5, 7)},
}

# Family instances of these kinds are abelian; every other family
# instance that is not listed above is a negative verdict.
ABELIAN_FAMILY_PREFIXES = ("cyclic:", "elemab:")

CORPUS113_SIZE = sum(FIXTURE_COUNTS.values()) + 38


def corpus113_expected(gid: str):
    if gid in CORPUS113_POSITIVE:
        return CORPUS113_POSITIVE[gid]
    if gid.startswith(ABELIAN_FAMILY_PREFIXES):
        return NA
    if gid.split(":")[0].isdigit():
        return (NA, FALSE)  # a fixture: which negatives are abelian is counted
    return FALSE


def check_corpus113_totals(outcomes: dict) -> str | None:
    """Corpus-wide answers: sizes, census hits and abelian counts per order."""
    if len(outcomes) != CORPUS113_SIZE:
        return f"corpus has {len(outcomes)} groups, expected {CORPUS113_SIZE}"
    hits = {
        gid
        for gid, o in outcomes.items()
        if gid.startswith("32:") and o["verdict"] == "true" and not o["camina_group"]
    }
    if hits != CENSUS_32:
        return f"order-32 census hits {sorted(hits)}"
    for order, want in FIXTURE_ABELIAN.items():
        got = sum(
            1
            for gid, o in outcomes.items()
            if gid.startswith(f"{order}:") and o["verdict"] == NA
        )
        if got != want:
            return f"{got} abelian groups of order {order}, expected {want}"
    if sum(o["verdict"] == "true" for o in outcomes.values()) != len(CORPUS113_POSITIVE):
        return "wrong number of positive verdicts"
    return None


# ---------------------------------------------------------------------------
# large2048

LARGE2048 = {
    "dihedral:2048": FALSE,
    "quaternion:1024": FALSE,
    "cyclic:2048": NA,
    "elemab:2,11": NA,
    "T:2,3": FALSE,  # commutators reach only Z(heisenberg), not all of Z
    "heisenberg:2,3": _sl3_sylow(2, 3),
    "heisenberg:3,2": _sl3_sylow(3, 2),
    "heisenberg:11,1": _sl3_sylow(11, 1),
}


def check_analysis(gid: str, outcome: dict, expected) -> str | None:
    """One analyze_center_pair outcome against its known answer."""
    verdict = outcome["verdict"]
    if isinstance(expected, Positive):
        if verdict != "true":
            return f"{gid}: verdict {verdict}, expected true"
        got = (outcome["p"], outcome["m"], outcome["n"], outcome["camina_group"])
        want = (expected.p, expected.m, expected.n, expected.camina_group)
        if got != want:
            return f"{gid}: (p, m, n, camina group) = {got}, expected {want}"
        if len(outcome["checks"]) != 20 or "FAIL" in outcome["checks"]:
            return f"{gid}: checks {outcome['checks']}"
        return None
    allowed = expected if isinstance(expected, tuple) else (expected,)
    if verdict not in allowed:
        return f"{gid}: verdict {verdict}, expected {'/'.join(allowed)}"
    if outcome["checks"] is not None:
        return f"{gid}: a check report on a non-positive verdict"
    return None


# ---------------------------------------------------------------------------
# chartable_wide


@dataclass(frozen=True)
class TableAnswer:
    classes: int
    degrees: dict[int, int]  # degree -> number of irreducible characters
    fully_ramified: bool | None  # None: not checked on this group


def _sl3_sylow_table(q: int) -> TableAnswer:
    # q^2 linear characters and q - 1 characters of degree q over Z
    return TableAnswer(q * q + q - 1, {1: q * q, q: q - 1}, True)


CHARTABLE_WIDE = {
    "heisenberg:2,3": _sl3_sylow_table(8),
    "heisenberg:3,2": _sl3_sylow_table(9),
    # heisenberg(5) x C5: 25 * 5 linear and 4 * 5 of degree 5
    "T:5,1": TableAnswer(145, {1: 125, 5: 20}, None),
}


def check_table(gid: str, outcome: dict, expected: TableAnswer) -> str | None:
    if outcome["classes"] != expected.classes:
        return f"{gid}: {outcome['classes']} classes, expected {expected.classes}"
    if dict(Counter(outcome["degrees"])) != expected.degrees:
        return f"{gid}: degrees {dict(Counter(outcome['degrees']))}"
    if not (outcome["row_orthogonal"] and outcome["column_orthogonal"]):
        return f"{gid}: orthogonality fails"
    if outcome["fully_ramified"] != expected.fully_ramified:
        return f"{gid}: fully ramified = {outcome['fully_ramified']}"
    return None


# ---------------------------------------------------------------------------
# classify32: the 51 groups of order 32 less C2^5, whose only parent is the
# excluded E16

CLASSIFY32_CLASSES = 50


def check_classes(count: int) -> str | None:
    if count != CLASSIFY32_CLASSES:
        return f"{count} isomorphism classes, expected {CLASSIFY32_CLASSES}"
    return None
