"""Structure computed from a generating set, against the all-pairs definitions.

`center`, `derived_subgroup`, `lower_central_series` and `is_normal` read
only a greedy generating set S of G.  The references below are the
definitions themselves, one operation per pair of elements.
"""

import numpy as np
import pytest

from camina import build_family, parse_family_spec
from camina import groups
from camina.corpus import default_family_instances
from camina.groups import (
    center,
    commutator_set,
    conjugates,
    derived_subgroup,
    greedy_generators,
    is_normal,
    subgroup_generate,
)
from camina.structure import lower_central_series


def ref_center(G):
    return np.flatnonzero(G.centralizer_matrix(np.arange(G.order)).all(axis=1)).tolist()


def ref_derived(G):
    every = np.arange(G.order)
    return subgroup_generate(G, commutator_set(G, every, every)).members.tolist()


def ref_lower_terms(G):
    """G_{i+1} from all pairs in G_i x G, with the same stop rule."""
    every = np.arange(G.order)
    terms = [every]
    while True:
        nxt = subgroup_generate(G, commutator_set(G, terms[-1], every)).members
        if len(nxt) == len(terms[-1]):
            break
        terms.append(nxt)
        if len(nxt) == 1:
            break
    return [t.tolist() for t in terms]


def ref_is_normal(G, H):
    """H^g <= H for every g in G."""
    return bool(H.mask[conjugates(G, H.members[:, None], np.arange(G.order))].all())


@pytest.fixture(scope="module")
def structure_groups(corpus_groups, non_nilpotent):
    named = dict(corpus_groups)
    for gid, spec in default_family_instances(256):
        named[gid] = build_family(spec)
    named.update(non_nilpotent)
    return named


def test_non_nilpotent_groups_have_no_class(non_nilpotent):
    for name, G in non_nilpotent.items():
        assert lower_central_series(G).class_c is None, name


def test_center_and_derived_subgroup_match_definitions(structure_groups):
    for name, G in structure_groups.items():
        assert center(G).members.tolist() == ref_center(G), name
        assert derived_subgroup(G).members.tolist() == ref_derived(G), name


def test_lower_central_series_matches_definition(structure_groups):
    for name, G in structure_groups.items():
        series = lower_central_series(G)
        want = ref_lower_terms(G)
        assert [t.members.tolist() for t in series.terms] == want, name
        assert series.class_c == (len(want) - 1 if len(want[-1]) == 1 else None)


def test_is_normal_matches_definition_on_cyclic_subgroups(structure_groups):
    for name, G in structure_groups.items():
        seen = set()
        for x in range(G.order):
            H = subgroup_generate(G, [x])
            key = H.members.tobytes()
            if key in seen:
                continue
            seen.add(key)
            assert is_normal(G, H) == ref_is_normal(G, H), (name, x)
        for H in (center(G), derived_subgroup(G)):
            assert is_normal(G, H) and ref_is_normal(G, H), name


# greedy_generators as computed one right multiplication per round;
# `group_to_entry` serializes them, so they may not change.
GENERATOR_PINS = {
    "cyclic:2048": [1],
    "dihedral:2048": [1, 1024],
    "elemab:2,11": [1 << i for i in range(11)],
    "heisenberg:11,1": [1, 11, 121],
    "extraspecial_p:3,2": [1, 3, 9, 27, 81],
    "quaternion:1024": [1, 512],
    "T:2,3": [1 << i for i in range(10)],
}


@pytest.mark.parametrize("spec", sorted(GENERATOR_PINS))
def test_greedy_generators_are_pinned(spec):
    G = build_family(parse_family_spec(spec))
    gens = greedy_generators(G)
    assert gens == GENERATOR_PINS[spec]
    for i, g in enumerate(gens):
        before = subgroup_generate(G, gens[:i])
        assert g == int(np.argmin(before.mask)), (spec, i)
    assert subgroup_generate(G, gens).is_whole_group()


def test_greedy_generators_are_least_outside_the_earlier_ones(structure_groups):
    for name, G in structure_groups.items():
        gens = greedy_generators(G)
        for i, g in enumerate(gens):
            assert g == int(np.argmin(subgroup_generate(G, gens[:i]).mask)), name
        assert subgroup_generate(G, gens).is_whole_group(), name


@pytest.mark.parametrize("spec", ["cyclic:64", "elemab:2,6"])
def test_abelian_classes_are_singletons(spec):
    G = build_family(parse_family_spec(spec))
    class_of, reps, sizes = G.conjugacy_data()
    assert class_of.dtype == np.int32
    assert class_of.tolist() == list(range(G.order))
    assert reps.tolist() == list(range(G.order))
    assert sizes.tolist() == [1] * G.order
    for x in range(G.order):
        assert np.unique(conjugates(G, x, slice(None))).tolist() == [x]


def test_structure_scans_are_generator_sized(monkeypatch):
    """On dihedral:2048 nothing forms an order x order array of products."""
    G = build_family(parse_family_spec("dihedral:2048"))
    n, d = G.order, len(greedy_generators(G))

    def no_matrix(self, rows):
        raise AssertionError("center built the centralizer matrix")

    monkeypatch.setattr(groups.FiniteGroup, "centralizer_matrix", no_matrix)
    assert center(G).members.tolist() == [0, 512]

    formed = [0]
    for name in ("commutators", "conjugates"):

        def counting(G, x, y, _op=getattr(groups, name)):
            out = _op(G, x, y)
            formed[0] += np.size(out)
            return out

        monkeypatch.setattr(groups, name, counting)

    def work(f, *args):
        formed[0] = 0
        return f(*args), formed[0]

    Gp, k = work(derived_subgroup, G)
    assert Gp.order == 512 and 0 < k <= (d + 1) * n
    series, k = work(lower_central_series, G)
    assert series.class_c == 10 and 0 < k <= (d + 1) * n * len(series.terms)
    for H in (center(G), Gp, subgroup_generate(G, [1024])):
        _, k = work(is_normal, G, H)
        assert 0 < k <= (d + 1) * n
