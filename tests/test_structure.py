"""Central series, nilpotency class, and D(g)."""

import numpy as np
import pytest
from conftest import centralizer, perm_from_cycles, ref_quotient

from camina import (
    build_family,
    center,
    group_from_generators,
    lower_central_series,
    quotient_exponent_over_center,
    upper_central_series,
)
from camina.corpus import default_family_instances
from camina.groups import (
    commutator_set,
    derived_subgroup,
    group_exponent,
    subgroup_generate,
)
from camina.pairs import _d_masks
from camina.structure import (
    central_series,
    is_prime_power,
    second_center_of,
    valuation,
)


@pytest.fixture(scope="module")
def wreath81():
    """C3 wr C3 as the Sylow 3-subgroup of S9: order 81, class 3."""
    block = perm_from_cycles(9, [(1, 2, 3)])
    shift = perm_from_cycles(9, [(1, 4, 7), (2, 5, 8), (3, 6, 9)])
    return group_from_generators(9, [block, shift])


def test_lower_central_series(q8, klein, heis27):
    s = lower_central_series(klein)
    assert [t.order for t in s.terms] == [4, 1]
    assert s.class_c == 1
    s = lower_central_series(q8)
    assert [t.order for t in s.terms] == [8, 2, 1]
    assert s.class_c == 2
    assert s.terms[1] == center(q8)
    s = lower_central_series(heis27)
    assert s.class_c == 2
    assert s.terms[1].order == 3


def test_upper_central_series(q8, klein, s3):
    s = upper_central_series(klein)
    assert [t.order for t in s.terms] == [1, 4]
    assert s.class_c == 1
    s = upper_central_series(q8)
    assert [t.order for t in s.terms] == [1, 2, 8]
    assert s.class_c == 2
    s = upper_central_series(s3)
    assert s.class_c is None
    assert s.terms[-1].order == 1


def _reference_upper_central_series(G):
    """Z_{i+1} as the preimage of Z(G/Z_i), one quotient per term."""
    terms = [np.zeros(1, dtype=np.int64)]
    while len(terms[-1]) < G.order:
        Q, proj = ref_quotient(G, subgroup_generate(G, terms[-1]))
        pre = np.flatnonzero(np.isin(proj, Q.center_members()))
        if len(pre) == len(terms[-1]):
            break
        terms.append(pre)
    return [t.tolist() for t in terms]


def test_upper_central_series_matches_quotient_reference(
    corpus_groups, s3, t81, wreath81
):
    groups = list(corpus_groups.values()) + [s3, t81, wreath81]
    groups += [build_family(spec) for _, spec in default_family_instances(625)]
    for G in groups:
        got = [t.members.tolist() for t in upper_central_series(G).terms]
        assert got == _reference_upper_central_series(G), G.name


def test_nilpotency_class(q8, klein, s3, heis27, t81, wreath81):
    assert central_series(klein)[0].class_c == 1
    assert central_series(q8)[0].class_c == 2
    assert central_series(s3)[0].class_c is None
    assert central_series(heis27)[0].class_c == 2
    assert central_series(t81)[0].class_c == 2
    assert central_series(wreath81)[0].class_c == 3


def test_series_agree_on_corpus_sample(corpus_groups):
    for gid in ("8:3", "16:7", "27:3", "32:6", "32:44", "32:51"):
        G = corpus_groups[gid]
        low = lower_central_series(G)
        up = upper_central_series(G)
        assert low.class_c == up.class_c
        assert low.class_c == central_series(G)[0].class_c


def test_series_terms_are_nested_chains(q8, heis27, wreath81):
    for G in (q8, heis27, wreath81):
        low = lower_central_series(G)
        for big, small in zip(low.terms, low.terms[1:]):
            assert big.mask[small.members].all()
            assert big.order % small.order == 0
            assert small.order < big.order
        up = upper_central_series(G)
        for small, big in zip(up.terms, up.terms[1:]):
            assert big.mask[small.members].all()
            assert small.order < big.order


def _brute_d(G, g, Z):
    """Independent oracle: D(g) by a set comprehension over the table."""
    return [
        x
        for x in range(G.order)
        if int(G.mul[G.mul[G.mul[G.inv[g], G.inv[x]], g], x]) in Z
    ]


def _d_rows(G, Z):
    """{g: members of D(g)} over the noncentral g, from `pairs._d_masks`."""
    outside = np.flatnonzero(~Z.mask)
    rows = _d_masks(G, Z, outside)
    return {int(g): np.flatnonzero(row) for g, row in zip(outside, rows)}


def test_d_subgroup_class_two(q8, heis27):
    for G in (q8, heis27):
        Z = center(G)
        for g, D in _d_rows(G, Z).items():
            assert len(D) == G.order  # class 2: every commutator is central
            assert D.tolist() == _brute_d(G, g, Z)


def test_d_subgroup_proper_in_class_three(wreath81):
    G = wreath81
    Z = center(G)
    Z2 = second_center_of(upper_central_series(G))
    rows = _d_rows(G, Z)
    outside = [g for g in rows if g not in Z2]
    assert outside
    g = outside[0]
    D = rows[g]
    assert D.tolist() == _brute_d(G, g, Z)
    assert len(D) < G.order
    assert centralizer(G, g).mask[D].sum() == centralizer(G, g).order


def test_d_subgroup_contains_centralizer(wreath81, corpus_groups):
    for G in (wreath81, corpus_groups["32:8"]):
        Z = center(G)
        for g, members in _d_rows(G, Z).items():
            assert members.tolist() == _brute_d(G, g, Z)
            D = subgroup_generate(G, members)
            assert D.order == len(members)  # D(g) is a subgroup
            C = centralizer(G, g)
            assert D.mask[C.members].all()
            assert D.order % C.order == 0
            assert Z.order % (D.order // C.order) == 0  # quotient divides |Z|


def test_quotient_exponent_over_center(q8, heis27, s3, corpus_groups):
    assert quotient_exponent_over_center(q8) == (2, 1)
    assert quotient_exponent_over_center(heis27) == (3, 1)
    assert quotient_exponent_over_center(s3) is None
    assert quotient_exponent_over_center(corpus_groups["32:6"]) == (2, 2)


def test_quotient_exponent_matches_the_built_quotient(corpus_groups, s3):
    """The power-map exponent agrees with exponent(G/Z) read off G/Z itself."""
    groups = list(corpus_groups.values()) + [s3]
    groups += [build_family(spec) for _, spec in default_family_instances(625)]
    for G in groups:
        Q, _ = ref_quotient(G, center(G))
        pk = is_prime_power(Q.order)
        want = None if pk is None else (pk[0], valuation(group_exponent(Q), pk[0]))
        assert quotient_exponent_over_center(G) == want, G.name


def test_z2_commutes_with_derived(q8, heis27, t81, wreath81, corpus_groups):
    groups = [q8, heis27, t81, wreath81] + list(corpus_groups.values())
    for G in groups:
        Z2 = second_center_of(upper_central_series(G))
        Gp = derived_subgroup(G)
        comms = commutator_set(G, Z2.members, Gp.members)
        assert comms.tolist() == [0]


def test_is_prime_power():
    assert is_prime_power(32) == (2, 5)
    assert is_prime_power(27) == (3, 3)
    assert is_prime_power(7) == (7, 1)
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None
