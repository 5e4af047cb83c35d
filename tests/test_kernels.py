"""The vectorized table loops against plain loops over the table.

Each loop lives in the function that owns it: the conjugacy partition in
FiniteGroup.conjugacy_data, the two pair checks in camina_by_classes and
camina_by_commutators, the associativity scan in groups.assoc_violation
and the class-algebra counts in class_mult_coefficients.  The references
return (-1, -1) or (-1, -1, -1) where those functions return None.
conjugacy_data labels each element by the least member of its orbit under
conjugation by a generating set; its reference conjugates by every
element.  Both pair criteria scan one element per coset of N; their
references scan every element outside N.  The commutator criterion takes
y over one element per coset of Z(G); its reference over every element.  camina_by_centralizers reads
G/N only as coset labels; its reference counts both centralizers from
their definitions.  The work guards pin those savings on dihedral:2048.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camina import build_family, groups, pairs, parse_family_spec
from camina.characters import class_mult_coefficients
from camina.corpus import bilinear, default_family_instances
from camina.groups import (
    assoc_violation,
    center,
    derived_subgroup,
    greedy_generators,
    is_normal,
    subgroup_generate,
)
from camina.pairs import (
    camina_by_centralizers,
    camina_by_classes,
    camina_by_commutators,
)

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
    mul, inv = mul.tolist(), inv.tolist()  # Python lists index 3-4x faster
    n = len(mul)
    for g in outside:
        g = int(g)
        hit = {mul[mul[inv[y]][inv[g]]][mul[y][g]] for y in range(n)}
        for x in members:
            if int(x) not in hit:
                return int(g), int(x)
    return -1, -1


def ref_centralizer_check(mul, inv, members, outside):
    """First g with |C_G(g)| != |C_{G/N}(gN)|, as (g, -1).

    |C_G(g)| = #{x : gx = xg}, and xN commutes with gN exactly when
    [g, x] lies in N, so |C_{G/N}(gN)| = #{x : [g, x] in N} / |N|.
    """
    in_n = np.zeros(mul.shape[0], dtype=bool)
    in_n[members] = True
    for g in outside:
        c_g = int((mul[g, :] == mul[:, g]).sum())
        c_q = int(in_n[mul[mul[inv[g], inv], mul[g, :]]].sum()) // len(members)
        if c_g != c_q:
            return int(g), -1
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
def small_groups(q8, s3, heis27, corpus_groups):
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
def test_conjugacy_partition(small_groups, name):
    G = small_groups[name]
    class_of, reps, _ = G.conjugacy_data()
    ref_class_of, ref_n = ref_conjugacy_partition(G.mul, G.inv)
    assert len(reps) == ref_n
    assert np.array_equal(class_of, ref_class_of)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_pair_checks(small_groups, name):
    G = small_groups[name]
    class_of = G.conjugacy_data()[0]
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
def test_assoc_and_class_products(small_groups, name):
    G = small_groups[name]
    assert assoc_violation(G.mul) is None
    assert ref_assoc_violation(G.mul) == (-1, -1, -1)
    class_of, reps, _ = G.conjugacy_data()
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


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_assoc_kernel_finds_the_first_violation_in_a_later_block(monkeypatch, rows):
    """Rows 0-2 are left identities, so every triple with a < 3 is
    associative and the first violation lies in a later block of rows."""
    n = 6
    idx = np.arange(n)
    bad = np.where(idx[:, None] < 3, idx[None, :], (idx[:, None] * idx + 1) % n)
    want = ref_assoc_violation(bad)
    assert want[0] >= rows
    monkeypatch.setattr(groups, "COMMUTATOR_BLOCK", rows * n * n)
    assert assoc_violation(bad) == want


def _cover_reference(G, N):
    outside = np.flatnonzero(~N.mask).astype(np.int32)
    return ref_commutator_cover_check(G.mul, G.inv, N.members, outside)


def _above_center(G):
    """<Z(G), x> for the least noncentral x: normal when G' <= Z(G)."""
    Z = center(G)
    x = int(np.argmin(Z.mask))
    N = subgroup_generate(G, [*Z.members.tolist(), x])
    assert is_normal(G, N) and N.order < G.order
    return N


def _relabelled(G, N, order):
    """G and N with element order[i] renamed i (order[0] = 0)."""
    pos = np.argsort(order)
    H = groups.FiniteGroup(pos[G.mul[np.ix_(order, order)]])
    return H, groups._handle(H, pos[N.members])


@pytest.fixture(scope="module")
def block_groups():
    return {s: build_family(parse_family_spec(s)) for s in ("heisenberg:11,1", "T:2,3")}


@pytest.mark.parametrize("spec", ["heisenberg:11,1", "T:2,3"])
@pytest.mark.parametrize("target", ["center", "above center"])
def test_commutator_blocks_match_element_scan(block_groups, monkeypatch, spec, target):
    """Each column [y, g] forms |G:Z| commutators, y over the least members
    of the cosets of Z = Z(G).  Z of heisenberg:11,1 passes every block, so
    all 120 columns are scanned, in blocks of up to 49, and 121 * 120
    commutators are formed instead of 1331 * 120."""
    G = block_groups[spec]
    N = center(G) if target == "center" else _above_center(G)
    index_of_z = G.order // center(G).order
    widths, formed = [], []

    def recording(G, x, y, _op=groups.commutators):
        out = _op(G, x, y)
        widths.append(np.size(y))
        formed.append(out.size)
        return out

    monkeypatch.setattr(pairs, "commutators", recording)
    assert _as_witness(camina_by_commutators(G, N)) == _cover_reference(G, N)
    assert sum(formed) == index_of_z * sum(widths)
    if (spec, target) == ("heisenberg:11,1", "center"):
        assert max(widths) == groups.COMMUTATOR_BLOCK // G.order == 49
        assert sum(formed) == index_of_z * (G.order // N.order - 1) == 121 * 120


@pytest.mark.parametrize("k", [1, 4, 100, 126])
def test_commutator_failure_past_the_first_block(block_groups, k):
    """T:2,3 renumbered so that the one failing coset of G' has the k-th
    least minimum outside G', counting from 0, of 127: the blocks of 1, 2,
    4, ... columns before it pass."""
    G = block_groups["T:2,3"]
    N = derived_subgroup(G)
    reps, coset_of = groups.cosets(G, N)
    want = set(N.members.tolist())
    (bad,) = [
        c
        for c in range(1, len(reps))
        if not want <= set(groups.commutators(G, slice(None), int(reps[c])).tolist())
    ]
    rank = np.delete(np.arange(len(reps)), bad)
    rank = np.insert(rank, k + 1, bad)
    order = np.lexsort((np.arange(G.order), np.argsort(rank)[coset_of]))
    H, M = _relabelled(G, N, order)
    holds, (g, missing) = camina_by_commutators(H, M)
    assert not holds and (g, missing) == _cover_reference(H, M)
    assert g == groups.cosets(H, M)[0][k + 1]


def _normal_targets(G):
    """Z(G), G' and every normal <x>, each once, where proper and nontrivial."""
    found = {}
    candidates = [center(G), derived_subgroup(G)]
    candidates += [subgroup_generate(G, [x]) for x in range(1, G.order)]
    for H in candidates:
        if 1 < H.order < G.order and H.members.tobytes() not in found:
            if is_normal(G, H):
                found[H.members.tobytes()] = H
    return list(found.values())


@pytest.fixture(scope="module")
def named_targets(corpus_groups, non_nilpotent):
    """{name: (G, reference class_of, normal targets)} for every fixture
    group, every family instance of order <= 256 and the five non-nilpotent
    groups."""
    named = dict(corpus_groups)
    for gid, spec in default_family_instances(256):
        named[gid] = build_family(spec)
    named.update(non_nilpotent)
    return {
        name: (G, ref_conjugacy_partition(G.mul, G.inv)[0], _normal_targets(G))
        for name, G in named.items()
    }


def test_conjugacy_partition_matches_reference_everywhere(named_targets):
    for name, (G, ref_class_of, _) in named_targets.items():
        class_of, reps, _ = G.conjugacy_data()
        assert np.array_equal(class_of, ref_class_of), name
        assert len(reps) == ref_class_of.max() + 1, name


def test_class_criterion_matches_element_scan(named_targets):
    for name, (G, ref_class_of, targets) in named_targets.items():
        for N in targets:
            outside = np.flatnonzero(~N.mask).astype(np.int32)
            got = _as_witness(camina_by_classes(G, N))
            want = ref_coset_class_check(G.mul, ref_class_of, N.members, outside)
            assert got == want, (name, N.order)


def test_commutator_criterion_matches_element_scan(named_targets):
    for name, (G, _, targets) in named_targets.items():
        for N in targets:
            got = _as_witness(camina_by_commutators(G, N))
            assert got == _cover_reference(G, N), (name, N.order)


def test_centralizer_criterion_matches_element_scan(named_targets):
    for name, (G, _, targets) in named_targets.items():
        for N in targets:
            outside = np.flatnonzero(~N.mask).astype(np.int32)
            got = _as_witness(camina_by_centralizers(G, N))
            want = ref_centralizer_check(G.mul, G.inv, N.members, outside)
            assert got == want, (name, N.order)


def test_centralizer_criterion_builds_no_group_on_dihedral_2048(monkeypatch):
    """G/Z is read as coset labels: no quotient group is constructed."""
    G = build_family(parse_family_spec("dihedral:2048"))
    Z = center(G)
    built = []
    init = groups.FiniteGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", counting)
    assert camina_by_centralizers(G, Z) == (False, (1, -1))
    assert built == []


def test_class_scans_are_generator_sized_on_dihedral_2048(monkeypatch):
    """conjugacy_data builds one conjugation map per generator, also on the
    abelian elemab:2,11, and the class criterion on (G, G') reads one class
    label per product g n it gathers, g a coset minimum, plus one per g: at
    most |G:G'| |G'|."""
    G = build_family(parse_family_spec("dihedral:2048"))
    gens = greedy_generators(G)
    calls = []

    def counting(G, x, g, _op=groups.conjugates):
        calls.append(np.size(g))
        return _op(G, x, g)

    monkeypatch.setattr(groups, "conjugates", counting)
    class_of, reps, sizes = G.conjugacy_data()
    assert len(reps) == 1024 // 2 + 3 and 0 < len(calls) <= len(gens)

    E = build_family(parse_family_spec("elemab:2,11"))
    calls.clear()
    assert E.conjugacy_data()[2].tolist() == [1] * E.order
    assert 0 < len(calls) <= len(greedy_generators(E))

    reads = []

    class Counted(np.ndarray):
        def __getitem__(self, key):
            out = np.asarray(super().__getitem__(key))
            reads.append(out.size)
            return out

    G._cache["classes"] = (class_of.view(Counted), reps, sizes)
    Gp = derived_subgroup(G)
    holds, witness = camina_by_classes(G, Gp)
    assert not holds and witness == (1, 2)
    assert 0 < sum(reads) <= (G.order // Gp.order) * Gp.order


@st.composite
def bilinear_groups(draw):
    """corpus.bilinear(p, form) for p in {2, 3, 5}, order p^(n+1) <= 243."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 6, 3: 4, 5: 2}[p]))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    return bilinear(p, np.array(entries, dtype=np.int64).reshape(n, n))


@settings(max_examples=40, deadline=None)
@given(bilinear_groups())
def test_criteria_agree_on_random_bilinear_groups(G):
    Z = center(G)
    if Z.order == G.order:  # an abelian G has no pair target
        return
    ref_class_of, _ = ref_conjugacy_partition(G.mul, G.inv)
    assert np.array_equal(G.conjugacy_data()[0], ref_class_of)
    b1, w1 = camina_by_classes(G, Z)
    b2, w2 = camina_by_commutators(G, Z)
    b3, w3 = camina_by_centralizers(G, Z)
    assert b1 == b2 == b3
    outside = np.flatnonzero(~Z.mask).astype(np.int32)
    assert _as_witness((b1, w1)) == ref_coset_class_check(
        G.mul, ref_class_of, Z.members, outside
    )
    assert _as_witness((b2, w2)) == _cover_reference(G, Z)
    assert _as_witness((b3, w3)) == ref_centralizer_check(
        G.mul, G.inv, Z.members, outside
    )
