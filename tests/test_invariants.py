"""The invariants walk against the all-pairs definitions it replaced.

`pairs._invariants` reads every D(g) off one commutator per coset of Z,
builds only the centralizer rows it reads, tests generators of D(g)'
instead of forming D(g)' and reads |G'Z_2| off the product formula; the
references below form D(g) over every element, the whole centralizer
matrix and every commutator of D(g) x D(g), close G' u Z_2 and test every
element order.  The work-counting guard pins that neither the commutator
criterion nor the invariants form a |G|^2 set of commutators.
"""

import dataclasses

import numpy as np
import pytest

from camina import build_family, parse_family_spec
from camina import groups, pairs, structure
from camina.corpus import default_family_instances
from camina.groups import (
    center,
    commutator_set,
    commutators,
    derived_subgroup,
    greedy_generators,
    power_map,
    subgroup_generate,
)
from camina.pairs import analyze_center_pair, camina_by_commutators, verify_bounds
from camina.structure import central_series, is_prime_power, second_center_of, valuation

EXTRA_SPECS = ["heisenberg:2,3", "heisenberg:3,2", "heisenberg:11,1"]


def ref_fields(G, p, upper):
    """The fields of `Invariants` that read D(g)', G'Z_2 or element orders,
    from the definitions, over every noncentral element."""
    Z, Gp, Z2 = center(G), derived_subgroup(G), second_center_of(upper)
    cent, pw = G.centralizer_matrix(np.arange(G.order)), power_map(G, p)
    z_elementary = bool((pw[Z.members] == 0).all())
    dprime = {}
    fields = dict(
        d_over_c_like_z=True,
        some_c_meets_gp_in_z=False,
        their_d_over_z_abelian=True,
        some_d_abelian_index_p=False,
    )
    for g in np.flatnonzero(~Z.mask):
        d = np.flatnonzero(Z.mask[commutators(G, g, slice(None))])  # D(g)
        if d.tobytes() not in dprime:
            dprime[d.tobytes()] = commutator_set(G, d, d)
        dp, c = dprime[d.tobytes()], cent[g]
        d_over_z_abelian = bool(Z.mask[dp].all())
        if not (
            len(d) == c.sum() * Z.order
            and c[dp].all()
            and c[pw[d]].all()
            and z_elementary
        ):
            fields["d_over_c_like_z"] = False
        if (c & Gp.mask).sum() == Z.order:
            fields["some_c_meets_gp_in_z"] = True
            if not d_over_z_abelian:
                fields["their_d_over_z_abelian"] = False
        if G.order == len(d) * p and d_over_z_abelian:
            fields["some_d_abelian_index_p"] = True
    joined = subgroup_generate(G, np.union1d(Gp.members, Z2.members))
    fields["n_z2"] = valuation(G.order // joined.order, p)
    fields["p_group"] = all(
        is_prime_power(int(o)) == (p, valuation(int(o), p))
        for o in G.element_orders()
        if o > 1
    )
    return fields


@pytest.fixture(scope="module")
def walked_groups(corpus_groups):
    """The p-groups with 1 < Z(G) <= G' < G among the fixtures, the family
    instances of order <= 625 and the three large Heisenberg groups.

    Beside the center pairs these include groups of class 4 and more,
    where G'Z_2 is larger than Z_2, and groups where D(g)' is not central.
    """
    named = dict(corpus_groups)
    for gid, spec in default_family_instances(625):
        named[gid] = build_family(spec)
    for spec in EXTRA_SPECS:
        named[spec] = build_family(parse_family_spec(spec))
    out = {}
    for name, G in named.items():
        Z, Gp = center(G), derived_subgroup(G)
        if is_prime_power(G.order) and 1 < Z.order and Gp.mask[Z.members].all():
            out[name] = G
    return out


def test_walked_groups_cover_the_center_pairs(walked_groups):
    positive = {
        name
        for name, G in walked_groups.items()
        if analyze_center_pair(G, with_bounds=False).verdict.holds
    }
    assert set(EXTRA_SPECS) <= positive
    assert len(positive) == 28  # 25 in the benchmark corpus, plus these
    assert len(walked_groups) > len(positive)


def test_invariants_match_all_pairs_reference(walked_groups):
    for name, G in walked_groups.items():
        Z = center(G)
        p = is_prime_power(G.order)[0]
        lower, upper = central_series(G)
        v = pairs._invariants(G, Z, p, upper, lower, char_table_cap=0)
        assert v == dataclasses.replace(v, **ref_fields(G, p, upper)), name


def test_greedy_generators_of_every_d_subgroup(walked_groups):
    for name, G in walked_groups.items():
        Z = center(G)
        seen = set()
        for row in pairs._d_masks(G, Z, np.flatnonzero(~Z.mask)):
            if row.tobytes() in seen:
                continue
            seen.add(row.tobytes())
            d = np.flatnonzero(row)
            gens = greedy_generators(G, d)
            assert subgroup_generate(G, gens).members.tolist() == d.tolist(), name
            assert 2 ** len(gens) <= len(d), name
            # D' = <[s, x] : s in gens, x in D>, the identity _invariants reads
            by_gens = subgroup_generate(G, commutator_set(G, gens, d))
            assert by_gens == subgroup_generate(G, commutator_set(G, d, d)), name
        whole = np.arange(G.order, dtype=np.int32)
        assert greedy_generators(G, whole) == greedy_generators(G), name


def test_pair_scans_are_not_quadratic(monkeypatch):
    """On heisenberg:11,1 no |G|^2 or |D|^2 set of commutators is formed.

    The commutator criterion forms one column of |G| commutators per coset
    of Z.  Beyond the central series, the invariants form one block of
    |G:Z| commutators per class representative (every D(g) at once, over
    the coset minima of Z) and the |S_D| |D| generators of each distinct
    D(g)'.
    """
    G = build_family(parse_family_spec("heisenberg:11,1"))
    Z = center(G)
    n, index = G.order, G.order // Z.order
    derived_subgroup(G)  # cached, as in analyze_center_pair
    reps = G.conjugacy_data()[1]
    reps = reps[~Z.mask[reps]]
    distinct = {row.tobytes(): row for row in pairs._d_masks(G, Z, np.array(reps))}
    dprime_gens = sum(
        len(greedy_generators(G, d)) * len(d)
        for d in (np.flatnonzero(row) for row in distinct.values())
    )

    calls = []

    def counting(G, x, y, _op=groups.commutators):
        out = _op(G, x, y)
        calls.append(np.size(out))
        return out

    for module in (groups, structure, pairs):
        monkeypatch.setattr(module, "commutators", counting)

    def work(f, *args):
        calls.clear()
        return f(*args), sum(calls), max(calls, default=0)

    (holds, _), k, _ = work(camina_by_commutators, G, Z)
    assert holds and 0 < k <= index * n

    _, series_work, _ = work(central_series, G)
    verdict = analyze_center_pair(G, with_bounds=False).verdict
    report, k, largest = work(verify_bounds, G, verdict)
    assert not report.failures()
    assert largest <= len(reps) * index
    assert 0 < k - series_work <= len(reps) * index + dprime_gens
