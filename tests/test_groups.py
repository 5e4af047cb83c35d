"""Group-core operations against independent brute-force oracles."""

import tracemalloc

import numpy as np
import pytest
from conftest import (
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    centralizer,
    closure_holds,
    group_from_cayley_table,
    ref_quotient,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from camina import (
    Permutation,
    build_family,
    center,
    derived_subgroup,
    direct_product,
    dixon_character_table,
    group_exponent,
    group_from_generators,
    is_normal,
    parse_family_spec,
    subgroup_generate,
)
from camina.errors import CaminaError, ClosureExceedsCap, InvalidPermutation
from camina import groups
from camina.corpus import _digit_sum_table
from camina.groups import commutator_set, commutators, cosets
from camina.structure import central_series

# right-regular generators of the quaternion group on {1,-1,i,-i,j,-j,k,-k}
Q8_MUL_BY_I = Permutation((3, 4, 2, 1, 8, 7, 5, 6))
Q8_MUL_BY_J = Permutation((5, 6, 7, 8, 2, 1, 4, 3))


def brute_closure(perms):
    """Independent oracle: set closure of permutation tuples."""
    if not perms:
        return {tuple(range(len(perms[0]) if perms else 1))}
    frontier = {tuple(range(len(perms[0])))}
    closed = set(frontier)
    while frontier:
        new = set()
        for e in frontier:
            for p in perms:
                f = tuple(p[x] for x in e)
                if f not in closed:
                    new.add(f)
        closed |= new
        frontier = new
    return closed


def brute_order(G, x):
    """Independent oracle: repeated multiplication over the table."""
    k, y = 1, x
    while y != 0:
        y = int(G.mul[y, x])
        k += 1
    return k


# ---------------------------------------------------------------------------
# construction


def test_trivial_group_from_no_generators():
    G = group_from_generators(1, [])
    assert G.order == 1
    assert G.mul.tolist() == [[0]]


def test_c4_from_single_cycle():
    G = group_from_generators(4, [Permutation((2, 3, 4, 1))])
    assert G.order == 4
    assert G.element_orders()[1] == 4


def test_q8_from_regular_generators():
    gens = [Q8_MUL_BY_I, Q8_MUL_BY_J]
    oracle = brute_closure([tuple(v - 1 for v in p.images) for p in gens])
    assert len(oracle) == 8
    G = group_from_generators(8, gens)
    assert G.order == 8
    assert G.labels is None
    involutions = [x for x in range(8) if brute_order(G, x) == 2]
    assert len(involutions) == 1


def test_generator_degree_mismatch():
    with pytest.raises(InvalidPermutation):
        group_from_generators(4, [Permutation((2, 1))])


def test_closure_cap():
    with pytest.raises(ClosureExceedsCap):
        group_from_generators(4, [Permutation((2, 3, 4, 1))], max_order=3)


def test_closure_cap_below_one_is_refused():
    with pytest.raises(ValueError, match="max_order must be >= 1"):
        group_from_generators(4, [Permutation((2, 3, 4, 1))], max_order=0)


def test_construction_is_deterministic():
    gens = [Q8_MUL_BY_I, Q8_MUL_BY_J]
    A = group_from_generators(8, gens)
    B = group_from_generators(8, gens)
    assert A.mul.tobytes() == B.mul.tobytes()


@given(st.permutations(list(range(1, 7))))
def test_permutation_accepts_any_bijection(images):
    assert Permutation(tuple(images)).degree == 6


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=6, max_size=6))
def test_permutation_rejects_non_bijections(images):
    if sorted(images) == list(range(1, 7)):
        Permutation(tuple(images))
    else:
        with pytest.raises(InvalidPermutation):
            Permutation(tuple(images))


def test_permutation_holds_a_read_only_table_dtype_array():
    images = Permutation((2, 3, 1)).images
    assert images.dtype == groups.TABLE_DTYPE
    assert images.tolist() == [2, 3, 1]
    with pytest.raises(ValueError):
        images[0] = 1


def test_degree_past_the_ceiling_is_refused():
    """A degree above MAX_ORDER_CAP would not fit the table dtype."""
    degree = groups.MAX_ORDER_CAP + 1
    with pytest.raises(CaminaError, match=f"degree {degree} exceeds the ceiling"):
        Permutation(range(1, degree + 1))
    with pytest.raises(CaminaError, match=f"degree {degree} exceeds the ceiling"):
        group_from_generators(degree, [])


def test_table_trivial_and_c2():
    assert group_from_cayley_table([[0]]).order == 1
    G = group_from_cayley_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.inv.tolist() == [0, 1]


def test_corrupted_c3_table_rejected():
    table = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]  # rows 1 and 2 swapped
    with pytest.raises((NotLatinSquare, NotAssociative, NoIdentity)):
        group_from_cayley_table(table)


def test_latin_violation_named():
    with pytest.raises(NotLatinSquare):
        group_from_cayley_table([[0, 1], [1, 1]])


@pytest.mark.parametrize(
    "table, error",
    [
        ([[0, 1.5], [1.5, 0]], NotLatinSquare),  # an int cast would read C2
        ([["a"]], NotLatinSquare),
        ([[0, 1]], NotLatinSquare),  # not square
        ([0, 1], NotLatinSquare),  # not 2-D
        ([[[0]]], NotLatinSquare),
        ([], NotLatinSquare),
        (np.zeros((0, 0), dtype=np.int64), NotLatinSquare),
        ([[0, 1], [1]], NotLatinSquare),  # ragged
        ([[0, 1], [1, 2]], NotLatinSquare),  # entry out of range
        ([[0, -1], [-1, 0]], NotLatinSquare),
        ([[1, 0], [0, 1]], NoIdentity),  # row 0
    ],
    ids=[
        "float",
        "string",
        "non-square",
        "1-d",
        "3-d",
        "empty-list",
        "empty-array",
        "ragged",
        "above-range",
        "negative",
        "row-0-identity",
    ],
)
def test_malformed_table_refused_as_camina_error(table, error):
    with pytest.raises(error):
        group_from_cayley_table(table)


def test_nonassociative_loop_rejected():
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative) as err:
        group_from_cayley_table(loop)
    a, b, c = err.value.triple
    m = loop
    assert m[m[a][b]][c] != m[a][m[b][c]]


# ---------------------------------------------------------------------------
# element arithmetic


def test_element_orders(q8, c4):
    orders = q8.element_orders()
    assert orders[0] == 1
    assert c4.element_orders()[1] == 4
    minus_one = next(x for x in range(1, 8) if brute_order(q8, x) == 2)
    assert orders[minus_one] == 2
    for x in range(q8.order):
        assert orders[x] == brute_order(q8, x)
        assert q8.order % orders[x] == 0


def test_cached_orders_and_classes_match_per_element_references(corpus_groups, s3):
    for G in list(corpus_groups.values()) + [s3]:
        orders = [brute_order(G, x) for x in range(G.order)]
        assert G.element_orders().tolist() == orders, G.name
        class_of, reps, sizes = G.conjugacy_data()
        want = [np.flatnonzero(class_of == c) for c in range(class_of.max() + 1)]
        assert reps.dtype == np.int32
        assert reps.tolist() == [int(ref[0]) for ref in want]
        assert sizes.tolist() == [len(ref) for ref in want]


def test_cached_class_and_center_arrays_are_read_only():
    """A write through a table would reach the group's cache."""
    G = build_family(parse_family_spec("quaternion:8"))  # not the shared fixture
    t = dixon_character_table(G)
    class_of, reps, sizes = G.conjugacy_data()
    cached = [class_of, reps, sizes, G.center_members(), t.class_reps, t.class_sizes]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[:] = 0
    assert class_of.tolist() == [0, 1, 2, 1, 3, 4, 3, 4]
    assert reps.tolist() == t.class_reps.tolist() == [0, 1, 2, 4, 5]
    assert sizes.tolist() == t.class_sizes.tolist() == [1, 2, 1, 2, 2]


def test_group_exponent(q8, klein, heis27):
    assert group_exponent(klein) == 2
    assert group_exponent(q8) == 4
    assert group_exponent(heis27) == 3
    # oracle: lcm of brute-forced element orders
    import math

    assert group_exponent(q8) == math.lcm(*(brute_order(q8, x) for x in range(8)))


# ---------------------------------------------------------------------------
# subgroups


def test_subgroup_generate(q8, c4):
    assert subgroup_generate(q8, ()).members.tolist() == [0]
    assert subgroup_generate(c4, (1,)).order == 4
    i, j = 1, q8.order // 2  # generator indices in the dicyclic layout
    assert subgroup_generate(q8, (i, j)).order == 8


def _reference_subgroup_generate(G, seeds):
    """Breadth-first closure: every frontier element times every seed."""
    gens = np.unique(np.asarray(sorted({int(s) for s in seeds}), dtype=np.int32))
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    mask[gens] = True
    frontier = np.flatnonzero(mask)
    while gens.size and frontier.size:
        prods = np.unique(G.mul[np.ix_(frontier, gens)])
        frontier = prods[~mask[prods]]
        mask[frontier] = True
    return np.flatnonzero(mask).tolist()


SEED_FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda seeds: (x for x in seeds),
    "int16 array": lambda seeds: np.asarray(seeds, dtype=np.int16),
}


def test_subgroup_generate_on_edge_seed_lists(corpus_groups):
    for gid, G in corpus_groups.items():
        last = G.order - 1
        for seeds in ([], [0], [last, 1, last, 0, 1], range(G.order)):
            for form, make in SEED_FORMS.items():
                got = subgroup_generate(G, make(seeds)).members.tolist()
                assert got == _reference_subgroup_generate(G, seeds), (gid, form)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subgroup_generate_matches_breadth_first_closure(corpus_groups, data):
    G = corpus_groups[data.draw(st.sampled_from(sorted(corpus_groups)))]
    seeds = data.draw(st.lists(st.integers(0, G.order - 1), max_size=6))
    form = data.draw(st.sampled_from(sorted(SEED_FORMS)))
    got = subgroup_generate(G, SEED_FORMS[form](seeds))
    assert got.members.tolist() == _reference_subgroup_generate(G, seeds)
    assert closure_holds(got)


def test_center(q8, heis27, klein):
    assert center(klein).order == 4
    zq = center(q8)
    assert zq.order == 2
    # oracle: brute-force commuting test
    brute = [
        z
        for z in range(q8.order)
        if all(q8.mul[z, g] == q8.mul[g, z] for g in range(q8.order))
    ]
    assert zq.members.tolist() == brute
    zh = center(heis27)
    assert zh.order == 3
    assert zh == derived_subgroup(heis27)


def test_centralizer(q8, heis27):
    assert centralizer(q8, 0).order == 8
    i = 1
    ci = centralizer(q8, i)
    assert ci.order == 4
    assert ci == subgroup_generate(q8, (i,))
    g = next(x for x in range(27) if x not in center(heis27))
    ch = centralizer(heis27, g)
    assert ch.order == 9
    sub = heis27.mul[np.ix_(ch.members, ch.members)]
    assert (sub == sub.T).all()


def test_conjugacy_classes(q8, s3, klein):
    assert sorted(klein.conjugacy_data()[2].tolist()) == [1, 1, 1, 1]
    assert sorted(q8.conjugacy_data()[2].tolist()) == [1, 1, 2, 2, 2]
    assert sorted(s3.conjugacy_data()[2].tolist()) == [1, 2, 3]


def test_orbit_stabilizer(q8, s3, heis27):
    for G in (q8, s3, heis27):
        _, reps, sizes = G.conjugacy_data()
        for x, size in zip(reps.tolist(), sizes.tolist()):
            assert size * centralizer(G, x).order == G.order


def test_commutator(q8, klein):
    for x in range(q8.order):
        assert int(commutators(q8, x, x)) == 0
    for x in range(klein.order):
        for y in range(klein.order):
            assert int(commutators(klein, x, y)) == 0
    i, j = 1, q8.order // 2
    minus_one = next(x for x in range(1, 8) if brute_order(q8, x) == 2)
    assert int(commutators(q8, i, j)) == minus_one


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_commutator_set_matches_pairwise(q8, s3, heis27, monkeypatch, block):
    """Any block size gives the set of all [a, b], a in left, b in right."""
    monkeypatch.setattr(groups, "COMMUTATOR_BLOCK", block)
    for G in (q8, s3, heis27):
        right = np.arange(G.order)[::-1]
        for left in [[a] for a in range(G.order)] + [np.arange(1, G.order, 2)]:
            want = sorted({int(commutators(G, a, b)) for a in left for b in right})
            got = commutator_set(G, left, right)
            assert got.dtype == np.int32 and got.tolist() == want
        assert commutator_set(G, left, right[:0]).size == 0
        assert commutator_set(G, left[:0], right).tolist() == [0]


def test_derived_subgroup(q8, s3, klein):
    assert derived_subgroup(klein).order == 1
    dq = derived_subgroup(q8)
    assert dq == center(q8)
    ds = derived_subgroup(s3)
    assert ds.order == 3
    # oracle: brute-force closure of the commutator set
    comms = {
        int(s3.mul[s3.mul[s3.mul[s3.inv[x], s3.inv[y]], x], y])
        for x in range(6)
        for y in range(6)
    }
    closure = set(comms) | {0}
    changed = True
    while changed:
        changed = False
        for a in list(closure):
            for b in list(closure):
                c = int(s3.mul[a, b])
                if c not in closure:
                    closure.add(c)
                    changed = True
    assert set(ds.members.tolist()) == closure


def test_is_normal(q8, s3):
    assert is_normal(q8, center(q8))
    assert is_normal(q8, subgroup_generate(q8, (1,)))  # index 2
    s = next(x for x in range(6) if s3.element_orders()[x] == 2)
    assert not is_normal(s3, subgroup_generate(s3, (s,)))


def test_cosets(q8, s3, heis27):
    """reps are the ascending coset minima, coset_of labels each element
    as the definition does, and for normal N the coset labels multiply
    through their reps."""
    for G in (q8, s3, heis27):
        targets = (
            subgroup_generate(G, ()),
            center(G),
            derived_subgroup(G),
            subgroup_generate(G, range(G.order)),
        )
        for N in targets:
            reps, coset_of = cosets(G, N)
            assert reps[0] == 0 and (np.diff(reps) > 0).all()
            assert len(reps) == G.order // N.order
            for x in range(G.order):
                assert reps[coset_of[x]] == min(int(G.mul[x, n]) for n in N.members)
            assert np.array_equal(coset_of, ref_quotient(G, N)[1])
            assert is_normal(G, N)
            prod = coset_of[G.mul[np.ix_(reps, reps)]]
            assert (coset_of[G.mul] == prod[np.ix_(coset_of, coset_of)]).all()


def test_quotient(q8):
    """q8 over the whole group, the trivial subgroup and the centre: the
    cosets number |G:N|, G/Z has exponent 2, and the coset product through
    reps matches brute-force multiplication of members."""
    reps, coset_of = cosets(q8, subgroup_generate(q8, tuple(range(8))))
    assert len(reps) == 1 and (coset_of == 0).all()
    reps, coset_of = cosets(q8, subgroup_generate(q8, ()))
    assert len(reps) == 8
    assert len(set(coset_of.tolist())) == 8
    reps, coset_of = cosets(q8, center(q8))
    assert len(reps) == 4
    assert all(coset_of[q8.mul[r, r]] == 0 for r in reps)
    assert any(coset_of[r] != 0 for r in reps)
    prod = coset_of[q8.mul[np.ix_(reps, reps)]]
    for x in range(8):
        for y in range(8):
            assert coset_of[q8.mul[x, y]] == prod[coset_of[x], coset_of[y]]


def test_quotient_projection_is_homomorphism(q8, s3, heis27):
    for G in (q8, s3, heis27):
        reps, coset_of = cosets(G, derived_subgroup(G))
        prod = coset_of[G.mul[np.ix_(reps, reps)]]
        for x in range(G.order):
            assert (coset_of[G.mul[x, :]] == prod[coset_of[x], coset_of]).all()


def test_direct_product(q8, heis27):
    triv = group_from_generators(1, [])
    A = direct_product(q8, triv)
    assert A.order == 8 and group_exponent(A) == 4
    c2 = group_from_cayley_table([[0, 1], [1, 0]])
    V = direct_product(c2, c2)
    assert V.order == 4 and group_exponent(V) == 2
    c3 = group_from_cayley_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    T = direct_product(heis27, c3)
    assert T.order == 81
    assert center(T).order == 9


def _table_view(n):
    """An n x n table of zeros that takes no memory (a zero-stride view)."""
    return np.broadcast_to(np.zeros(1, dtype=np.int16), (n, n))


@pytest.mark.parametrize(
    "build",
    [
        lambda q8: group_from_generators(2, [Permutation((2, 1))], max_order=2**20),
        lambda q8: direct_product(  # 128 * 128 > MAX_ORDER_CAP
            *[groups.FiniteGroup(_table_view(128), np.zeros(1, dtype=np.int16))] * 2
        ),
        lambda q8: group_from_cayley_table(_table_view(groups.MAX_ORDER_CAP + 1)),
        lambda q8: groups.FiniteGroup(
            _table_view(groups.MAX_ORDER_CAP + 1), np.zeros(1, dtype=np.int16)
        ),
        lambda q8: groups.cyclic_extension(
            _table_view(groups.MAX_ORDER_CAP), np.zeros(1, dtype=np.int32), 0, 2
        ),
        lambda q8: groups.central_extension(
            _table_view(groups.MAX_ORDER_CAP), _table_view(2), _table_view(1)
        ),
    ],
    ids=[
        "group_from_generators",
        "direct_product",
        "group_from_cayley_table",
        "FiniteGroup",
        "cyclic_extension",
        "central_extension",
    ],
)
def test_builders_refuse_orders_past_the_ceiling_before_allocating(q8, build):
    tracemalloc.start()
    try:
        with pytest.raises(ClosureExceedsCap):
            build(q8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# module invariants


@pytest.mark.parametrize(
    "maker",
    [
        lambda: group_from_generators(8, [Q8_MUL_BY_I, Q8_MUL_BY_J]),
        lambda: group_from_generators(3, [Permutation((2, 3, 1)), Permutation((2, 1, 3))]),
        lambda: group_from_generators(4, [Permutation((2, 3, 4, 1))]),
    ],
)
def test_constructed_groups_are_associative(maker):
    G = maker()
    assert G.order <= 256
    m = G.mul
    for a in range(G.order):
        assert np.array_equal(m[m[a, :], :], m[a][m])


def test_center_is_intersection_of_centralizers(q8, s3, heis27):
    for G in (q8, s3, heis27):
        mask = np.ones(G.order, dtype=bool)
        for g in range(G.order):
            mask &= centralizer(G, g).mask
        assert np.array_equal(np.flatnonzero(mask), center(G).members)


def test_derived_subgroup_normal_with_abelian_quotient(q8, s3, heis27):
    for G in (q8, s3, heis27):
        Gp = derived_subgroup(G)
        assert is_normal(G, Gp)
        reps, coset_of = cosets(G, Gp)
        prod = coset_of[G.mul[np.ix_(reps, reps)]]
        assert (prod == prod.T).all()


def test_subgroup_handle_invariants(q8):
    H = subgroup_generate(q8, (1,))
    assert closure_holds(H)
    assert q8.order % H.order == 0
    assert 0 in H


@settings(deadline=None, max_examples=25)
@given(
    degree=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_random_closures_are_valid_groups(degree, data):
    n_gens = data.draw(st.integers(min_value=0, max_value=2))
    gens = [
        Permutation(tuple(data.draw(st.permutations(list(range(1, degree + 1))))))
        for _ in range(n_gens)
    ]
    G = group_from_generators(degree, gens, max_order=120)
    # every row and column is a permutation, identity at 0, exact inverses
    m = G.mul
    idx = np.arange(G.order)
    assert (np.sort(m, axis=1) == idx).all()
    assert (np.sort(m, axis=0) == idx[:, None]).all()
    assert (m[0] == idx).all() and (m[:, 0] == idx).all()
    assert (m[idx, G.inv] == 0).all()
    for a in range(G.order):
        assert np.array_equal(m[m[a, :], :], m[a][m])


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_random_subgroups_satisfy_lagrange(corpus_groups, data):
    gid = data.draw(st.sampled_from(["8:3", "16:6", "27:3", "32:7", "32:44"]))
    G = corpus_groups[gid]
    seeds = data.draw(
        st.lists(st.integers(min_value=0, max_value=G.order - 1), max_size=3)
    )
    H = subgroup_generate(G, seeds)
    assert 0 in H
    assert G.order % H.order == 0
    assert closure_holds(H)
    assert all(int(s) in H for s in seeds)


# ---------------------------------------------------------------------------
# the extension builders


# (p, n) with p^(n+1) <= 243
BILINEAR_SHAPES = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)]
BILINEAR_SHAPES += [(5, 1), (5, 2)]


def _form(shape):
    """(p, an n x n matrix over F_p)."""
    p, n = shape
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return st.tuples(st.just(p), st.lists(row, min_size=n, max_size=n))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(BILINEAR_SHAPES).flatmap(_form))
def test_central_extension_by_a_bilinear_cocycle_is_class_two(pform):
    p, form = pform
    n = len(form)
    v = np.arange(p**n)
    digits = np.stack([v // p**i % p for i in range(n)], axis=1)
    cocycle = digits @ np.array(form) @ digits.T % p
    wadd = np.add.outer(np.arange(p), np.arange(p)) % p
    G = group_from_cayley_table(
        groups.central_extension(_digit_sum_table(p, n), wadd, cocycle)
    )
    assert G.order == p ** (n + 1)
    W = np.arange(p)  # the elements (0, w)
    assert center(G).mask[W].all()
    assert central_series(G)[0].class_c in (1, 2)
    # [(v, 0), (v', 0)] = (0, B(v, v') - B(v', v))
    lifts = v * p
    comms = groups.commutators(G, lifts[:, None], lifts[None, :])
    assert np.array_equal(comms, (cocycle - cocycle.T) % p)


@settings(deadline=None, max_examples=30)
@given(
    st.one_of(
        st.integers(2, 121).map(lambda k: (k, k - 1, 0, 2)),  # dihedral
        st.integers(2, 60).map(lambda t: (2 * t, 2 * t - 1, t, 2)),  # quaternion
        st.sampled_from([2, 3, 5]).map(lambda p: (p * p, 1 + p, 0, p)),  # M(p^3)
    )
)
def test_cyclic_extension_of_a_cyclic_group(params):
    k, s, h0, m = params
    alpha = s * np.arange(k) % k
    Ck = np.add.outer(np.arange(k), np.arange(k)) % k
    G = group_from_cayley_table(groups.cyclic_extension(Ck, alpha, h0, m))
    assert G.order == k * m
    t = k  # the element (h, i) = (0, 1)
    assert groups.power_map(G, m)[t] == h0
    h = np.arange(k)
    assert np.array_equal(groups.conjugates(G, h, G.inv[t]), alpha)  # t h t^-1


_C4 = np.add.outer(np.arange(4), np.arange(4)) % 4


@pytest.mark.parametrize(
    "build",
    [
        # a cocycle value |W| = 4 is not an element of W
        lambda: groups.central_extension(_C4, _C4, np.full((4, 4), 4)),
        lambda: groups.central_extension(_C4, _C4, np.eye(4, dtype=int) * 4),
        # alpha maps 3 to column 4 of a table with columns 0..3
        lambda: groups.cyclic_extension(_C4, np.array([0, 3, 2, 4]), 0, 2),
        lambda: groups.cyclic_extension(_C4, np.array([0, 3, 2, 4]), 2, 4),
        # numpy would read -1 as the last element; the builders refuse it
        lambda: groups.central_extension(_C4, _C4, -np.eye(4, dtype=int)),
        lambda: groups.cyclic_extension(_C4, np.array([0, 3, 2, -1]), 0, 2),
    ],
    ids=[
        "cocycle-all",
        "cocycle-one-entry",
        "column-p2",
        "column-p4",
        "cocycle-negative",
        "column-negative",
    ],
)
def test_extension_builders_refuse_indices_outside_the_factor(build):
    """The builders gather in place without numpy's index check, so they
    check the cocycle and alpha ranges themselves."""
    with pytest.raises(IndexError):
        build()
