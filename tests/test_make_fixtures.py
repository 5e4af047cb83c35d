"""The fixture generator: automorphism counts, the mapping search against a
reference copy of the breadth-first search it replaced, and byte-identical
regeneration of the shipped fixture files."""

import os
import resource
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from camina import groups
from camina.corpus import greedy_generators
from camina.errors import CaminaError, InvariantViolation
from camina.groups import center, derived_subgroup, power_map, subgroup_generate

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import make_fixtures as mf  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


@pytest.fixture(scope="module")
def census_groups():
    """Representatives of orders 8, 9, 16, 25 and 27, as the generator
    builds them."""
    order4 = mf.classify_order([mf.cyclic_table(2)], 2)
    order8 = mf.classify_order(order4, 2)
    order9 = mf.classify_order([mf.cyclic_table(3)], 3)
    return {
        8: order8,
        9: order9,
        16: mf.classify_order(order8, 2),
        25: mf.classify_order([mf.cyclic_table(5)], 5),
        27: mf.classify_order(order9, 3),
    }


def _is_elementary_abelian(G) -> bool:
    """For a nontrivial p-group: abelian, with element orders 1 and p."""
    return G.is_abelian() and np.unique(G.element_orders()).size == 2


def _reference_mapping_search(A, B, find_all):
    """The generator-image search the array search replaced, kept as a
    reference: greedy generators, candidates matched on (order, class size,
    order of the square), and <gens[:k]> re-closed breadth-first at every
    node."""
    gens = greedy_generators(A)
    if not gens:
        return [np.zeros(1, dtype=np.int32)]

    def invariants(G):
        orders = G.element_orders()
        class_of, _, sizes = G.conjugacy_data()
        return [
            (int(orders[x]), int(sizes[class_of[x]]), int(orders[G.mul[x, x]]))
            for x in range(G.order)
        ]

    invA, invB = invariants(A), invariants(B)
    candidates = [[y for y in range(B.order) if invB[y] == invA[g]] for g in gens]
    n = A.order
    found = []

    def check_partial(images):
        k = len(images)
        phi = np.full(n, -1, dtype=np.int32)
        phi[0] = 0
        queue = [0]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for gi in range(k):
                y = int(A.mul[x, gens[gi]])
                v = int(B.mul[phi[x], images[gi]])
                if phi[y] < 0:
                    phi[y] = v
                    queue.append(y)
                elif phi[y] != v:
                    return None
        got = np.array(queue, dtype=np.int32)
        vals = phi[got]
        if len(np.unique(vals)) != len(got):
            return None
        if (phi[A.mul[np.ix_(got, got)]] != B.mul[vals[:, None], vals[None, :]]).any():
            return None
        return phi

    def recurse(images):
        if len(images) == len(gens):
            phi = check_partial(images)
            if phi is not None and (phi >= 0).all():
                found.append(phi.astype(np.int32))
            return
        for cand in candidates[len(images)]:
            images.append(cand)
            if check_partial(images) is not None:
                recurse(images)
            images.pop()
            if found and not find_all:
                return

    recurse([])
    return found


def test_automorphism_counts_of_order_8():
    counts = {name: len(mf.all_automorphisms(G)) for _, name, G in mf.named_groups_8()}
    assert counts == {"C8": 4, "C4xC2": 8, "D8": 8, "Q8": 24, "C2^3": 168}


def test_automorphism_counts_of_elementary_abelian_groups():
    """|GL(4, 2)|, |GL(3, 3)| and the counts of Hillar and Rhea's formula for
    |Aut| of a finite abelian group (Amer. Math. Monthly 114, 2007), up to
    order 81, where the reference search is too slow; each map is a
    permutation, listed once."""
    counts = {
        (2, 2, 2, 2): 20160,
        (3, 3, 3): 11232,
        (9, 3, 3): 23328,
        (9, 9): 3888,
        (27, 3): 324,
        (81,): 54,
        (4, 2, 2): 192,
        (4, 4): 96,
        (8, 2): 16,
    }
    for factors, count in counts.items():
        auts = mf.all_automorphisms(mf.abelian_product(*factors))
        assert auts.shape == (count, np.prod(factors)), factors
        assert (np.sort(auts, axis=1) == np.arange(auts.shape[1])).all()
        assert len(np.unique(auts, axis=0)) == count


@pytest.mark.parametrize("order", [8, 16, 27])
def test_automorphisms_match_reference_in_order(census_groups, order):
    """Same maps in the same order, so the extension tables, the class
    representatives and the fixture bytes stay the same (Aut(E16), 20160
    maps, and Aut(E27), 11232, are left out: the reference takes minutes
    on them)."""
    for G in census_groups[order]:
        if order > 8 and _is_elementary_abelian(G):
            continue
        got = mf.all_automorphisms(G)
        want = _reference_mapping_search(G, G, find_all=True)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_iso_exists_is_the_identity_relation_on_order_16(census_groups):
    reps = census_groups[16]
    assert len(reps) == 14
    relation = [[mf.iso_exists(A, B) for B in reps] for A in reps]
    assert relation == [[i == j for j in range(14)] for i in range(14)]


def test_iso_exists_finds_relabelled_copies(census_groups):
    rng = np.random.default_rng(16)
    for G in census_groups[16]:
        perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
        inverse = np.argsort(perm)
        H = mf.FiniteGroup(perm[G.mul[np.ix_(inverse, inverse)]])
        assert mf.iso_exists(G, H) and mf.iso_exists(H, G)


def test_iso_exists_rejects_groups_of_different_orders(census_groups):
    trivial, c2 = mf.cyclic_table(1), mf.cyclic_table(2)
    assert mf.iso_exists(trivial, trivial)
    assert not mf.iso_exists(trivial, c2) and not mf.iso_exists(c2, trivial)
    for A in census_groups[8]:
        for B in census_groups[16] + [mf.cyclic_table(27)]:
            assert not mf.iso_exists(A, B) and not mf.iso_exists(B, A)


def test_automorphisms_of_e32_are_refused_before_listing():
    """|GL(5, 2)| |E32| = 319 979 520 entries is past the budget, so both
    calls raise within 1 s and 100 MB.  The child runs under a 1 GiB
    address-space limit: a search that started listing fails there instead
    of filling the machine."""
    script = f"""
import sys, time
sys.path.insert(0, {str(ROOT / "tools")!r})
import make_fixtures as mf

E32 = mf.abelian_product(2, 2, 2, 2, 2)
for call in (mf.all_automorphisms, lambda G: mf.extensions_of(G, 2)):
    start = time.perf_counter()
    try:
        call(E32)
        sys.exit("not refused")
    except mf.CaminaError as exc:
        print(exc)
    if time.perf_counter() - start > 1:
        sys.exit("refused too late")
# the peak of this process alone: ru_maxrss would count the forking parent
peak_kb = int(open("/proc/self/status").read().split("VmHWM:")[1].split()[0])
if peak_kb > 100 * 1024:
    sys.exit(f"peak {{peak_kb}} kB")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.count("319979520 entries") == 2


def test_mapping_search_returns_an_empty_array_when_the_rows_differ():
    """C4 and C2 x C2 differ in their invariant rows, so no search is run,
    and the answer is still an (m, |A|) int32 array."""
    C4, V4 = mf.cyclic_table(4), mf.abelian_product(2, 2)
    maps = mf._mapping_search(C4, V4, find_all=False)
    assert isinstance(maps, np.ndarray)
    assert maps.dtype == np.int32 and maps.shape == (0, 4)


def test_mapping_search_rejects_a_non_prime_power_order():
    S3 = mf.build_family(mf.FamilySpec("dihedral", (6,)))
    with pytest.raises(CaminaError, match="p-group"):
        mf.all_automorphisms(S3)


def test_burnside_basis_has_the_generator_rank(census_groups):
    for G in census_groups[8] + census_groups[16]:
        plan = mf._SearchPlan(G)
        assert len(plan.gens) == mf.generator_rank(G, 2)
        assert plan.members[-1].size == G.order


def _reference_rows(G, p):
    """The invariant rows of G, element by element from the definitions."""
    n = G.order
    orders = G.element_orders()
    powers = power_map(G, p)
    frattini = subgroup_generate(G, np.union1d(derived_subgroup(G).members, powers))
    return np.stack(
        [
            orders,
            n // G.centralizer_matrix(np.arange(n)).sum(axis=1),
            frattini.mask,
            np.bincount(powers, minlength=n),
        ],
        axis=1,
    )


def _extension_tables(census_groups, p):
    """The extension tables of orders 16 (p = 2), 27 (p = 3) and 125
    (p = 5), of every parent."""
    parents = census_groups[{2: 8, 3: 9, 5: 25}[p]]
    return [T for H in parents for T in mf.extensions_of(H, p)]


@pytest.mark.parametrize("p, size", [(2, 7), (3, 3), (5, 4)])
def test_stacked_rows_match_the_definitions(census_groups, p, size):
    """Orders 16, 27 and 125: the extension tables of every parent, stacked
    in blocks that span several parents.  At order 125 the p-th power map
    takes four products, and elements of order 125 occur."""
    tables = _extension_tables(census_groups, p)
    assert len(tables) > 2 * size
    for start in range(0, len(tables), size):
        block = [mf.FiniteGroup(T) for T in tables[start : start + size]]
        rows = mf._element_invariants(block, p)
        for G, got in zip(block, rows):
            assert np.array_equal(got, _reference_rows(G, p))


def _partition(rows):
    """Each element's block, named by the first element with its row."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first[inverse.ravel()]


@pytest.mark.parametrize("p", [2, 3])
def test_order_of_the_square_and_the_center_split_no_kind(census_groups, p):
    """Orders 16 and 27: adding the order of x^2 and membership of Z(G),
    from their definitions, to the four columns of the rows leaves the
    partition of the elements into kinds as it is."""
    for T in _extension_tables(census_groups, p):
        G = mf.FiniteGroup(T)
        rows = _reference_rows(G, p)
        orders = G.element_orders()
        squares = G.mul[np.arange(G.order), np.arange(G.order)]
        full = np.column_stack([rows, orders[squares], center(G).mask])
        assert np.array_equal(_partition(rows), _partition(full))


@pytest.mark.parametrize("count", [64, 48])
def test_stacked_rows_past_the_int16_range(census_groups, count):
    """A stack of order-32 extension tables whose flat labels t n^2 + y n + x
    pass int16 gives each table the rows it gets on its own.  64 tables
    (labels up to 65535) are the classification's block at order 32; a
    wrapped int16 label would still read the right entry of those 2^16
    through negative indexing, so 48 tables check the widening too."""
    parents = [G for G in census_groups[16] if not _is_elementary_abelian(G)]
    extensions = (T for H in parents for T in mf.extensions_of(H, 2))
    tables = list(islice(extensions, count))
    assert len(tables) == count
    assert all(T.dtype == np.int16 for T in tables)
    block = [mf.FiniteGroup(T) for T in tables]
    rows = mf._element_invariants(block, 2)
    for G, got in zip(block, rows):
        assert np.array_equal(got, mf._element_invariants([G], 2)[0])


def test_element_invariants_reject_a_table_without_identity():
    with pytest.raises(InvariantViolation, match="order above 4"):
        mf._element_invariants([mf.FiniteGroup(np.ones((4, 4)))], 2)


def test_classification_reads_each_table_once(monkeypatch):
    """The order-16 classification, from the order-8 groups in the
    generator's own order: no generating set, class partition or derived
    subgroup is computed, each extension table's rows come from one block
    pass, and every isomorphism search is a hit."""
    order8 = mf.classify_order(mf.classify_order([mf.cyclic_table(2)], 2), 2)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [
        (groups, "greedy_generators"),
        (groups, "derived_subgroup"),
        (mf, "derived_subgroup"),
        (groups.FiniteGroup, "conjugacy_data"),
    ]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    extensions_of, element_invariants, iso_exists = (
        mf.extensions_of,
        mf._element_invariants,
        mf.iso_exists,
    )

    def counting_extensions(H, p):
        tables = extensions_of(H, p)
        calls["tables"] += len(tables)
        return tables

    def counting_rows(groups, p):
        calls["rows"] += len(groups)
        return element_invariants(groups, p)

    def counting_iso(A, B):
        found = iso_exists(A, B)
        calls["negative"] += not found
        return found

    monkeypatch.setattr(mf, "extensions_of", counting_extensions)
    monkeypatch.setattr(mf, "_element_invariants", counting_rows)
    monkeypatch.setattr(mf, "iso_exists", counting_iso)
    assert len(mf.classify_order(order8, 2)) == 14
    assert calls["tables"] == calls["rows"] > 0
    assert calls["greedy_generators"] == calls["conjugacy_data"] == 0
    assert calls["derived_subgroup"] == calls["negative"] == 0


def _reference_extensions_of(H, p):
    """Every pair (a, h0), without the orbit reduction: the enumeration
    extensions_of replaced, kept as a reference."""
    inner = mf._inner_maps(H)
    out = []
    for alpha in mf.all_automorphisms(H):
        apow = alpha
        for _ in range(p - 1):
            apow = alpha[apow]
        for h0 in np.flatnonzero((inner == apow[None, :]).all(axis=1)):
            if alpha[h0] == h0:
                out.append(mf.cyclic_extension(H.mul, alpha, int(h0), p))
    return out


def test_one_table_per_orbit_counts(census_groups):
    """1388 pairs fall into 139 orbits under Aut(H) and the coset moves
    over the order-16 parents other than E16, and 3393 into 34 over the
    five groups of order 27."""
    parents = [G for G in census_groups[16] if not _is_elementary_abelian(G)]
    assert len(parents) == 13
    assert sum(len(mf.extensions_of(H, 2)) for H in parents) == 139
    assert sum(len(_reference_extensions_of(H, 2)) for H in parents) == 1388
    assert sum(len(mf.extensions_of(H, 3)) for H in census_groups[27]) == 34
    assert sum(len(_reference_extensions_of(H, 3)) for H in census_groups[27]) == 3393


def _parents_by_prime(census_groups):
    """The parents of orders 8 (p = 2) and 9 (p = 3): at p = 3 the coset
    move's N(h) = h a(h) a^2(h) has three factors, at p = 2 only two."""
    return [(H, 2) for H in census_groups[8]] + [(H, 3) for H in census_groups[9]]


def test_kept_tables_are_a_subsequence_of_the_full_enumeration(census_groups):
    for H, p in _parents_by_prime(census_groups):
        full = [T.tobytes() for T in _reference_extensions_of(H, p)]
        kept = iter(full)
        assert all(T.tobytes() in kept for T in mf.extensions_of(H, p))


def test_classify_order_keeps_the_same_representatives(monkeypatch):
    """Orders 4, 8, 16 and 27: the same tables, in the same order, from
    the orbit representatives as from every pair."""

    def chain(p, steps):
        groups, out = [mf.cyclic_table(p)], []
        for _ in range(steps):
            groups = mf.classify_order(groups, p)
            out.append([G.mul.tobytes() for G in groups])
        return out

    reduced = chain(2, 3) + chain(3, 2)
    monkeypatch.setattr(mf, "extensions_of", _reference_extensions_of)
    full = chain(2, 3) + chain(3, 2)
    assert [len(reps) for reps in reduced] == [2, 5, 14, 2, 5]
    assert reduced == full


def test_every_pair_is_isomorphic_to_a_kept_one(census_groups):
    for H, p in _parents_by_prime(census_groups):
        kept = [mf.FiniteGroup(T) for T in mf.extensions_of(H, p)]
        for T in _reference_extensions_of(H, p):
            G = mf.FiniteGroup(T)
            assert any(mf.iso_exists(G, K) for K in kept)


def test_regenerated_fixtures_are_byte_identical(tmp_path, capsys):
    assert mf.main(["--out", str(tmp_path)]) == 0
    for order in (8, 16, 27, 32):
        name = f"order{order}.grp"
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
    assert "all checks passed" in capsys.readouterr().out


def _run_optimized(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, env=env
    )


def test_regenerated_fixtures_are_byte_identical_under_optimize(tmp_path):
    proc = _run_optimized(str(ROOT / "tools" / "make_fixtures.py"), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for order in (8, 16, 27, 32):
        name = f"order{order}.grp"
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
    assert proc.stdout.splitlines()[-1].startswith("all checks passed")


def test_generator_checks_survive_optimize():
    """The census count and associativity checks raise under python -O;
    classify_order calls _assoc_ok and iso_exists through the module."""
    script = f"""
import sys
sys.path.insert(0, {str(ROOT / "tools")!r})
import make_fixtures as mf
from camina.errors import InvariantViolation

def raised(fn):
    try:
        fn()
    except InvariantViolation as exc:
        return str(exc)

order4 = mf.classify_checked([mf.cyclic_table(2)], 2)
print(raised(lambda: mf.classify_checked(order4, 2)))
mf.iso_exists = lambda A, B: False
print(raised(lambda: mf.classify_checked(order4, 2)))
mf._assoc_ok = lambda table: False
print(raised(lambda: mf.classify_checked(order4, 2)))
"""
    proc = _run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr
    *progress, unchanged, no_iso, no_assoc = proc.stdout.splitlines()
    assert progress == [
        "  order 4: 2 extension tables, 2 classes",
        "  order 8: 7 extension tables, 5 classes",
    ]
    assert unchanged == "None"
    assert no_iso.startswith("order 8: ") and no_iso.endswith("expected 5")
    assert no_assoc == "extension table is not associative"
