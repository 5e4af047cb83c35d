"""Identity card for the shipped fixtures.

Pins well-known structural facts of the anchored catalogue indices, so a
faulty fixture regeneration cannot slip through: involution counts for
the dihedral/semidihedral/quaternion chain, exponents of the extraspecial
groups, class counts p^(2n) + p - 1 for extraspecial p^(1+2n), abelian
census per order, and the profile shared by the five census groups.
"""

import numpy as np
from conftest import closure_holds

from camina import center, derived_subgroup, group_exponent
from camina.structure import central_series, is_prime_power


def involutions(G):
    return int((G.element_orders() == 2).sum())


def is_cyclic(G):
    return int(G.element_orders().max()) == G.order


def test_abelian_counts(corpus_groups):
    by_order = {8: 0, 16: 0, 27: 0, 32: 0}
    for G in corpus_groups.values():
        if G.is_abelian():
            by_order[G.order] += 1
    assert by_order == {8: 3, 16: 5, 27: 3, 32: 7}


def test_order8_anchors(corpus_groups):
    assert is_cyclic(corpus_groups["8:1"])
    assert involutions(corpus_groups["8:3"]) == 5  # dihedral
    assert involutions(corpus_groups["8:4"]) == 1  # quaternion
    assert group_exponent(corpus_groups["8:5"]) == 2


def test_order16_anchors(corpus_groups):
    assert is_cyclic(corpus_groups["16:1"])
    assert involutions(corpus_groups["16:7"]) == 9  # dihedral
    assert involutions(corpus_groups["16:8"]) == 5  # semidihedral
    assert involutions(corpus_groups["16:9"]) == 1  # generalized quaternion
    g6 = corpus_groups["16:6"]  # modular: exponent 8, 3 involutions
    assert group_exponent(g6) == 8 and involutions(g6) == 3
    assert group_exponent(corpus_groups["16:14"]) == 2
    pauli = corpus_groups["16:13"]
    assert center(pauli).order == 4 and group_exponent(pauli) == 4


def test_order27_anchors(corpus_groups):
    assert is_cyclic(corpus_groups["27:1"])
    he, mod = corpus_groups["27:3"], corpus_groups["27:4"]
    assert not he.is_abelian() and group_exponent(he) == 3
    assert not mod.is_abelian() and group_exponent(mod) == 9
    assert group_exponent(corpus_groups["27:5"]) == 3
    assert corpus_groups["27:5"].is_abelian()


def test_order32_anchors(corpus_groups):
    assert is_cyclic(corpus_groups["32:1"])
    c16c2 = corpus_groups["32:16"]
    assert c16c2.is_abelian() and group_exponent(c16c2) == 16
    g17 = corpus_groups["32:17"]  # modular
    assert group_exponent(g17) == 16 and involutions(g17) == 3
    assert involutions(corpus_groups["32:18"]) == 17  # dihedral
    assert involutions(corpus_groups["32:19"]) == 9  # semidihedral
    assert involutions(corpus_groups["32:20"]) == 1  # generalized quaternion
    assert group_exponent(corpus_groups["32:51"]) == 2
    g45 = corpus_groups["32:45"]
    assert g45.is_abelian() and group_exponent(g45) == 4


def test_order32_extraspecials(corpus_groups):
    for gid in ("32:49", "32:50"):
        G = corpus_groups[gid]
        Z = center(G)
        assert Z.order == 2
        assert Z == derived_subgroup(G)
        assert central_series(G)[0].class_c == 2
        # extraspecial p^(1+2n) has p^(2n) + p - 1 classes
        _, reps, _ = G.conjugacy_data()
        assert len(reps) == 17
    # plus type has 19 involutions, minus type 11
    assert sorted(
        involutions(corpus_groups[g]) for g in ("32:49", "32:50")
    ) == [11, 19]
    assert involutions(corpus_groups["32:49"]) == 19


def test_extraspecial27_class_counts(corpus_groups):
    for gid in ("27:3", "27:4"):
        _, reps, _ = corpus_groups[gid].conjugacy_data()
        assert len(reps) == 11  # 3^2 + 3 - 1


def test_census_five_share_profile(corpus_groups):
    for gid in ("32:6", "32:7", "32:8", "32:43", "32:44"):
        G = corpus_groups[gid]
        assert center(G).order == 2
        assert derived_subgroup(G).order == 4
        assert central_series(G)[0].class_c == 3
        assert is_prime_power(G.order) == (2, 5)


def test_all_groups_pairwise_distinct_tables(corpus_groups):
    seen = set()
    for gid, G in corpus_groups.items():
        key = G.mul.tobytes()
        assert key not in seen, f"{gid} duplicates another fixture table"
        seen.add(key)


def test_fixture_groups_have_valid_handles(corpus_groups):
    for G in corpus_groups.values():
        Z = center(G)
        assert closure_holds(Z)
        assert G.order % Z.order == 0
        Gp = derived_subgroup(G)
        assert closure_holds(Gp)
        idx = np.arange(G.order)
        assert (G.mul[idx, G.inv] == 0).all()
