"""Pair criteria, the bound-check suite, census, and the search."""

import re
from pathlib import Path

import numpy as np
import pytest
from conftest import centralizer, group_from_cayley_table

from camina import (
    FamilySpec,
    analyze_center_pair,
    build_family,
    camina_by_centralizers,
    camina_by_classes,
    camina_by_commutators,
    census,
    center,
    derived_subgroup,
    direct_product,
    is_camina_group,
    parse_family_spec,
    search_counterexample,
    verify_bounds,
)
from camina import pairs
from camina.corpus import default_family_instances
from camina.errors import InvalidPairTarget
from camina.pairs import CHECK_IDS, CaminaVerdict, _script_c_mask
from camina.groups import subgroup_generate


@pytest.fixture(scope="module")
def c3s3(s3):
    c3 = group_from_cayley_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    return direct_product(c3, s3)


# ---------------------------------------------------------------------------
# the three criteria


def test_by_classes(q8, c4, s3):
    ok, witness = camina_by_classes(q8, center(q8))
    assert ok and witness is None
    sq = subgroup_generate(c4, (2,))
    ok, witness = camina_by_classes(c4, sq)
    assert not ok and witness is not None
    a3 = derived_subgroup(s3)
    ok, _ = camina_by_classes(s3, a3)
    assert ok  # transpositions form a single class covering each coset


def test_by_commutators(q8, d8, klein):
    assert camina_by_commutators(q8, center(q8))[0]
    assert camina_by_commutators(d8, center(d8))[0]
    n = subgroup_generate(klein, (1,))
    ok, witness = camina_by_commutators(klein, n)
    assert not ok
    g, missing = witness
    assert missing in n and g not in n


def test_by_centralizers(q8, heis27, c3s3):
    assert camina_by_centralizers(q8, center(q8))[0]
    assert camina_by_centralizers(heis27, center(heis27))[0]
    ok, witness = camina_by_centralizers(c3s3, center(c3s3))
    assert not ok and witness is not None


def test_invalid_pair_targets(q8, s3):
    with pytest.raises(InvalidPairTarget):
        camina_by_classes(q8, subgroup_generate(q8, ()))
    with pytest.raises(InvalidPairTarget):
        camina_by_classes(q8, subgroup_generate(q8, (1, 4)))
    s = next(x for x in range(6) if s3.element_orders()[x] == 2)
    with pytest.raises(InvalidPairTarget):
        camina_by_classes(s3, subgroup_generate(s3, (s,)))


def test_criteria_agree_on_every_proper_normal_subgroup(q8, d8, s3, heis27):
    for G in (q8, d8, s3, heis27):
        seen = set()
        for x in range(G.order):
            H = subgroup_generate(G, (x,))
            key = H.members.tobytes()
            if key in seen or H.order in (1, G.order):
                continue
            seen.add(key)
            from camina.groups import is_normal

            if not is_normal(G, H):
                continue
            r1 = camina_by_classes(G, H)[0]
            r2 = camina_by_commutators(G, H)[0]
            r3 = camina_by_centralizers(G, H)[0]
            assert r1 == r2 == r3


# ---------------------------------------------------------------------------
# center-pair analysis


def test_not_applicable(c4, s3):
    assert not analyze_center_pair(c4).applicable  # abelian: Z = G
    assert not analyze_center_pair(s3).applicable  # trivial center


def test_q8_analysis(q8):
    a = analyze_center_pair(q8)
    assert a.applicable and a.verdict.holds
    assert a.verdict.is_camina_group
    r = a.report
    assert (r.p, r.n, r.m, r.l) == (2, 2, 1, 0)
    assert r.class_c == 2
    assert not r.failures()
    # hypotheses with Z = G' must be vacuous
    assert r.check("T1.2").status == "VACUOUS"
    assert r.check("T1.4").status == "VACUOUS"
    assert r.check("T5.1").status == "VACUOUS"
    assert r.check("Cor2grp").status == "PASS"


def test_is_camina_group(q8, d8, s3, heis27, klein):
    assert is_camina_group(q8)
    assert is_camina_group(d8)
    assert is_camina_group(heis27)
    assert is_camina_group(s3)  # (S3, A3) is a Camina pair
    assert not is_camina_group(klein)  # derived subgroup trivial


LARGE2048 = (
    "dihedral:2048",
    "quaternion:1024",
    "cyclic:2048",
    "elemab:2,11",
    "T:2,3",
    "heisenberg:2,3",
    "heisenberg:3,2",
    "heisenberg:11,1",
)


@pytest.fixture(scope="module")
def camina_group_cases(corpus_groups, non_nilpotent):
    """Every fixture group, every family instance of order <= 625, the
    non-nilpotent groups and the eight large2048 groups."""
    named = dict(corpus_groups)
    for gid, spec in default_family_instances(625):
        named[gid] = build_family(spec)
    named.update(non_nilpotent)
    named.update((spec, build_family(parse_family_spec(spec))) for spec in LARGE2048)
    return named


def test_camina_group_verdict_from_class_sizes(camina_group_cases):
    """The class-size verdict agrees with the class criterion on (G, G')."""
    proper = 0
    for name, G in camina_group_cases.items():
        Gp = derived_subgroup(G)
        if 1 < Gp.order < G.order:
            proper += 1
            assert is_camina_group(G) == camina_by_classes(G, Gp)[0], name
        else:
            assert not is_camina_group(G), name
    assert proper > 60


def test_camina_group_verdict_gathers_no_cosets(camina_group_cases, monkeypatch):
    want = {name: is_camina_group(G) for name, G in camina_group_cases.items()}

    def refuse(G, N):
        raise AssertionError(f"cosets of a subgroup of order {N.order} gathered")

    monkeypatch.setattr(pairs, "cosets", refuse)
    for name, G in camina_group_cases.items():
        assert is_camina_group(G) == want[name], name


def test_heisenberg_equality_in_texp(heis27):
    r = analyze_center_pair(heis27).report
    assert r.quotient_exponent_n == 1
    assert r.p ** (r.quotient_exponent_n * (r.m + 1)) == r.p**r.n  # 3*3 = 9
    assert r.check("Texp").status == "PASS"


def test_verify_bounds_requires_true_verdict(c3s3):
    a = analyze_center_pair(c3s3)
    assert a.applicable and not a.verdict.holds
    with pytest.raises(ValueError):
        verify_bounds(c3s3, a.verdict)


def test_verify_bounds_off_p_groups_fails_only_l21(s3):
    # no true verdict can reach this branch; force it with a made-up verdict
    verdict = CaminaVerdict(derived_subgroup(s3), True, True, True, None, True)
    r = verify_bounds(s3, verdict)
    assert [c.check_id for c in r.checks] == list(CHECK_IDS)
    assert r.failures() == [r.check("L2.1")]
    assert all(c.status == "VACUOUS" for c in r.checks if c.check_id != "L2.1")


def test_readme_lists_the_check_catalog():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"The check ids, in report\s+order:(.*?)\.\n", readme, re.S)
    assert tuple(re.findall(r"`([^`]+)`", listed.group(1))) == CHECK_IDS


def test_bound_checks_32_6(corpus_groups):
    r = analyze_center_pair(corpus_groups["32:6"]).report
    assert (r.p, r.n, r.m, r.l) == (2, 4, 1, 1)
    assert r.quotient_exponent_n == 2  # exponent 4 quotient: T1.5 applies
    assert r.check("T1.5").status == "PASS"
    assert not r.failures()


# ---------------------------------------------------------------------------
# script C


def test_script_c_contains_derived_and_its_centralizer(corpus_groups, q8):
    assert not _script_c_mask(q8, center(q8), derived_subgroup(q8)).any()  # Z = G'
    for gid in ("32:6", "32:7", "32:43"):
        G = corpus_groups[gid]
        Z = center(G)
        Gp = derived_subgroup(G)
        assert Z.order < Gp.order
        mask = _script_c_mask(G, Z, Gp)
        # x is in C(b) for some b in G' - Z iff C(x) meets G' beyond Z
        meets = (G.centralizer_matrix(np.arange(G.order)) & Gp.mask).sum(axis=1) > Z.order
        assert np.array_equal(mask, meets)
        assert mask[Gp.members].all()
        cent = np.ones(G.order, dtype=bool)
        for a in Gp.members:
            cent &= centralizer(G, int(a)).mask
        assert mask[np.flatnonzero(cent)].all()


# ---------------------------------------------------------------------------
# census and search


def _items(corpus_groups, order=None):
    for gid, G in sorted(corpus_groups.items()):
        if order is None or G.order == order:
            yield gid, G


def test_census_order_8(corpus_groups):
    hits = census(_items(corpus_groups), 8, "center-pair")
    assert sorted(hits) == ["8:3", "8:4"]


def test_census_order_16_no_non_camina_pairs(corpus_groups):
    assert census(_items(corpus_groups), 16, "center-pair-not-camina-group") == []


def test_census_order_32(corpus_groups):
    hits = census(_items(corpus_groups), 32, "center-pair-not-camina-group")
    assert sorted(hits) == ["32:43", "32:44", "32:6", "32:7", "32:8"]


def test_search_no_strict_hits(corpus_groups):
    rep = search_counterexample(_items(corpus_groups))
    assert rep.scanned == 75
    assert rep.strict == []
    eq_ids = {f.gid for f in rep.equality}
    assert {"8:3", "8:4", "27:3", "27:4"} <= eq_ids
    for f in rep.equality:
        assert 2 * f.report.m == f.report.n


def test_search_includes_families():
    fams = [
        ("quaternion:8", build_family(FamilySpec("quaternion", (8,)))),
        ("cyclic:9", build_family(FamilySpec("cyclic", (9,)))),
    ]
    rep = search_counterexample(fams)
    assert rep.strict == []
    assert [f.gid for f in rep.equality] == ["quaternion:8"]
