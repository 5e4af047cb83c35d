"""The vectorized table loops against plain loops over the table.

Each loop lives in the function that owns it: the conjugacy partition in
FiniteGroup.conjugacy_data, the two pair checks in camina_by_classes and
camina_by_commutators, the associativity scan in groups.assoc_violation
and the class-algebra counts in class_mult_coefficients.  The references
return (-1, -1) or (-1, -1, -1) where those functions return None.
"""

import numpy as np
import pytest

from camina.characters import class_mult_coefficients
from camina.groups import assoc_violation, center, derived_subgroup, subgroup_generate
from camina.pairs import camina_by_classes, camina_by_commutators

# ---------------------------------------------------------------------------
# reference loops: one element at a time, straight from the definitions


def ref_conjugacy_partition(mul, inv):
    n = mul.shape[0]
    class_of = np.full(n, -1, np.int32)
    n_classes = 0
    for x in range(n):
        if class_of[x] >= 0:
            continue
        for g in range(n):
            class_of[mul[mul[inv[g], x], g]] = n_classes
        n_classes += 1
    return class_of, n_classes


def ref_coset_class_check(mul, class_of, members, outside):
    for g in outside:
        for n in members:
            if class_of[mul[g, n]] != class_of[g]:
                return int(g), int(n)
    return -1, -1


def ref_commutator_cover_check(mul, inv, members, outside):
    n = mul.shape[0]
    for g in outside:
        hit = {int(mul[mul[inv[y], inv[g]], mul[y, g]]) for y in range(n)}
        for x in members:
            if int(x) not in hit:
                return int(g), int(x)
    return -1, -1


def ref_assoc_violation(mul):
    n = mul.shape[0]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a, b], c] != mul[a, mul[b, c]]:
                    return a, b, c
    return -1, -1, -1


def ref_class_product_counts(mul, inv, class_of, reps):
    n = mul.shape[0]
    k = len(reps)
    a = np.zeros((k, k, k), dtype=np.int64)
    for j, z in enumerate(reps):
        for u in range(n):
            a[class_of[u], class_of[mul[inv[u], z]], j] += 1
    return a


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def groups(q8, s3, heis27, corpus_groups):
    return {
        "q8": q8,
        "s3": s3,
        "heis27": heis27,
        **{gid: corpus_groups[gid] for gid in ("32:6", "32:43", "32:49")},
    }


GROUP_NAMES = ["q8", "s3", "heis27", "32:6", "32:43", "32:49"]


def _as_witness(result):
    """(holds, witness) from a pair criterion, in the reference's terms."""
    holds, witness = result
    assert holds == (witness is None)
    return (-1, -1) if witness is None else witness


def _targets(G):
    """Center, derived subgroup and <1>, where proper and nontrivial.

    (G, <1>) is not a Camina pair for q8, 32:6 or 32:43, so the witnesses
    the checks return are compared too.
    """
    candidates = (center(G), derived_subgroup(G), subgroup_generate(G, [1]))
    return [H for H in candidates if 1 < H.order < G.order]


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_conjugacy_partition(groups, name):
    G = groups[name]
    class_of, classes = G.conjugacy_data()
    ref_class_of, ref_n = ref_conjugacy_partition(G.mul, G.inv)
    assert len(classes) == ref_n
    assert np.array_equal(class_of, ref_class_of)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_pair_checks(groups, name):
    G = groups[name]
    class_of, _ = G.conjugacy_data()
    for H in _targets(G):
        members = H.members
        outside = np.flatnonzero(~H.mask).astype(np.int32)
        assert _as_witness(camina_by_classes(G, H)) == ref_coset_class_check(
            G.mul, class_of, members, outside
        )
        assert _as_witness(camina_by_commutators(G, H)) == ref_commutator_cover_check(
            G.mul, G.inv, members, outside
        )


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_assoc_and_class_products(groups, name):
    G = groups[name]
    assert assoc_violation(G.mul) is None
    assert ref_assoc_violation(G.mul) == (-1, -1, -1)
    class_of, classes = G.conjugacy_data()
    reps = np.array([int(c[0]) for c in classes], dtype=np.int32)
    assert np.array_equal(
        class_mult_coefficients(G),
        ref_class_product_counts(G.mul, G.inv, class_of, reps),
    )


def test_assoc_kernel_reports_first_violation():
    bad = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ],
        dtype=np.int32,
    )
    # (1*1)*2 = 0*2 = 2, but 1*(1*2) = 1*3 = 4
    assert assoc_violation(bad) == ref_assoc_violation(bad) == (1, 1, 2)
