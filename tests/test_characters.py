"""Dixon character tables: structure constants, degrees, exact checks."""

import dataclasses
import gc
import hashlib
import itertools
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import group_from_cayley_table

from camina import (
    FamilySpec,
    build_family,
    center,
    class_mult_coefficients,
    derived_subgroup,
    direct_product,
    dixon_character_table,
    verify_fully_ramified,
)
from camina import characters, groups
from camina.characters import (
    CHECK_PRIME_FLOOR,
    TABLE_BUDGET,
    _character_rows,
    _class_combination,
    _class_labels,
    _least_prime_above,
    _nullspace_mod,
    _root_of_unity,
    _rref_mod,
    check_column_orthogonality,
    check_row_orthogonality,
    least_dixon_prime,
)
from camina.cli import main
from camina.corpus import default_family_instances, parse_family_spec
from camina.cyclotomic import reduction_matrix
from camina.errors import InvariantViolation, TableTooLarge
from camina.groups import subgroup_generate
from camina.pairs import analyze_center_pair

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def c3s3(s3):
    c3 = group_from_cayley_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    return direct_product(c3, s3)


def test_class_mult_identity_row(q8):
    a = class_mult_coefficients(q8)
    k = a.shape[0]
    assert np.array_equal(a[0], np.eye(k, dtype=np.int64))


def test_class_mult_abelian(klein):
    a = class_mult_coefficients(klein)
    assert a.min() == 0 and a.max() == 1
    assert (a.sum(axis=2) == 1).all()


def test_class_mult_q8_squares(q8):
    class_of, _, _ = q8.conjugacy_data()
    a = class_mult_coefficients(q8)
    i_cls = int(class_of[1])  # class of an order-4 element
    # oracle: count factorizations of the identity over cl(i) x cl(i)
    members = np.flatnonzero(class_of == i_cls)
    count = sum(
        1 for u in members for v in members if q8.mul[u, v] == 0
    )
    assert a[i_cls, i_cls, 0] == count == 2


def test_dixon_prime_rule():
    assert least_dixon_prime(2, 2) == 3
    assert least_dixon_prime(6, 6) == 7
    assert least_dixon_prime(8, 4) == 13
    assert least_dixon_prime(27, 3) == 13


def test_c2_table():
    c2 = group_from_cayley_table([[0, 1], [1, 0]])
    t = dixon_character_table(c2)
    assert t.degrees == [1, 1]
    assert t.values.shape == (2, 2, 1)
    assert sorted(t.values[:, 1, 0].tolist()) == [-1, 1]
    assert t.modulus == least_dixon_prime(2, 2)


def test_s3_table(s3):
    t = dixon_character_table(s3)
    assert t.degrees == [1, 1, 2]
    assert t.modulus == 7
    assert check_row_orthogonality(t)
    assert t.values[:, 0, 0].tolist() == t.degrees and not t.values[:, 0, 1:].any()


def test_q8_table(q8):
    t = dixon_character_table(q8)
    assert t.degrees == [1, 1, 1, 1, 2]
    assert t.modulus == 13
    deg2 = t.degrees.index(2)
    Z = center(q8)
    for j, rep in enumerate(t.class_reps):
        if int(rep) not in Z:
            assert not t.values[deg2, j].any()


def test_heisenberg_table(heis27):
    t = dixon_character_table(heis27)
    assert t.degrees == [1] * 9 + [3, 3]
    assert sum(d * d for d in t.degrees) == 27
    assert check_row_orthogonality(t)


def _with_value(table, i, j, value):
    """A copy of table with chi_i(g_j) set to the rational integer value."""
    values = table.values.copy()
    values[i, j] = 0
    values[i, j, 0] = value
    values.setflags(write=False)
    return dataclasses.replace(table, values=values)


def test_fully_ramified_reads_only_the_characters_over_z(q8, heis27):
    """Making one value off Z nonzero is witnessed exactly for the
    characters over Z: the nonlinear ones of Q8 and of 3^(1+2)."""
    t = dixon_character_table(q8)
    assert verify_fully_ramified(q8, subgroup_generate(q8, ()), t) == (True, None)
    for G, degrees in ((q8, [2]), (heis27, [3, 3])):
        t = dixon_character_table(G)
        Z = center(G)
        j = int(np.flatnonzero(~Z.mask[t.class_reps])[0])
        rep = int(t.class_reps[j])
        over = []
        for i in range(t.n_classes):
            ok, witness = verify_fully_ramified(G, Z, _with_value(t, i, j, 1))
            if not ok:
                assert witness == (i, rep)
                over.append(i)
        assert [t.degrees[i] for i in over] == degrees


def test_fully_ramified_witnesses_on_doctored_q8_tables(q8):
    """Q8 has degrees [1, 1, 1, 1, 2], class reps [0, 1, 2, 4, 5] and
    Z = {0, 2}; the degree-2 character is 4."""
    t = dixon_character_table(q8)
    Z = center(q8)
    assert verify_fully_ramified(q8, Z, _with_value(t, 4, 4, 1)) == (False, (4, 5))
    degrees = t.degrees[:4] + [3]
    assert verify_fully_ramified(
        q8, Z, dataclasses.replace(t, degrees=degrees)
    ) == (False, (4, -1))


def test_fully_ramified_requires_a_central_subgroup(d8, s3):
    """<r> of order 4 in D8 is normal but not central; in S3 the least
    transposition and the identity are least in their classes, but <(12)>
    is not normal."""
    c4 = subgroup_generate(d8, (1,))
    assert c4.order == 4
    with pytest.raises(ValueError, match="central"):
        verify_fully_ramified(d8, c4, dixon_character_table(d8))
    t = dixon_character_table(s3)
    H = subgroup_generate(s3, (int(t.class_reps[2]),))
    assert H.order == 2 and np.count_nonzero(H.mask[t.class_reps]) == 2
    with pytest.raises(ValueError, match="central"):
        verify_fully_ramified(s3, H, t)


def test_fully_ramified(q8, heis27, c3s3):
    assert verify_fully_ramified(q8, center(q8), dixon_character_table(q8)) == (
        True,
        None,
    )
    assert verify_fully_ramified(
        heis27, center(heis27), dixon_character_table(heis27)
    ) == (True, None)
    ok, witness = verify_fully_ramified(
        c3s3, center(c3s3), dixon_character_table(c3s3)
    )
    assert not ok and witness is not None


def test_tables_on_corpus_sample(corpus_groups):
    for gid in ("16:13", "32:1", "32:6", "32:49", "27:4"):
        G = corpus_groups[gid]
        t = dixon_character_table(G)
        assert sum(d * d for d in t.degrees) == G.order
        assert t.values[:, 0, 0].tolist() == t.degrees and not t.values[:, 0, 1:].any()
        assert check_row_orthogonality(t)
        assert check_column_orthogonality(t)


def test_prime_search_cap_is_defensive():
    from camina.errors import InternalPrimeSearchFailed

    with pytest.raises(InternalPrimeSearchFailed):
        least_dixon_prime(10**6, 999983)


def test_orthogonality_over_whole_fixture_corpus(corpus_groups):
    for gid, G in sorted(corpus_groups.items()):
        t = dixon_character_table(G)
        assert sum(d * d for d in t.degrees) == G.order
        assert _checks_agree(t) == (True, True), gid


def test_table_of_cyclic_32():
    G = build_family(FamilySpec("cyclic", (32,)))
    t = dixon_character_table(G)
    assert t.degrees == [1] * 32
    assert t.exponent == 32
    assert check_row_orthogonality(t)


def test_d8_and_q8_share_a_character_table(q8, d8):
    """The classic pair of nonisomorphic groups with identical tables."""
    td, tq = dixon_character_table(d8), dixon_character_table(q8)
    assert td.degrees == tq.degrees == [1, 1, 1, 1, 2]
    # exponent 4, so phi(e) = 2; all values are rational integers here
    for t in (td, tq):
        assert t.values.shape == (5, 5, 2) and not t.values[:, :, 1].any()
    rows_d = sorted(map(tuple, td.values[:, :, 0].tolist()))
    rows_q = sorted(map(tuple, tq.values[:, :, 0].tolist()))
    assert rows_d == rows_q


def test_dixon_table_is_deterministic():
    a = build_family(FamilySpec("heisenberg", (3, 1)))
    b = build_family(FamilySpec("heisenberg", (3, 1)))
    ta, tb = dixon_character_table(a), dixon_character_table(b)
    assert ta.degrees == tb.degrees
    assert ta.modulus == tb.modulus
    assert np.array_equal(ta.values, tb.values)


# ---------------------------------------------------------------------------
# the eigenspace splitter against the exhaustive lambda-scan


def _lambda_scan_eigenrows(mats, l):
    """Reference splitter: refine by each class matrix in turn, trying
    every lambda in F_l with one nullspace per lambda."""
    k = mats[0].shape[0]
    spaces = [_rref_mod(np.eye(k, dtype=np.int64), l)]
    for A in mats:
        Mt = A.T % l
        refined = []
        for B, piv in spaces:
            d = B.shape[0]
            if d == 1:
                refined.append((B, piv))
                continue
            R = (B @ Mt % l)[:, piv]
            found = 0
            for lam in range(l):
                shifted = (R - lam * np.eye(d, dtype=np.int64)) % l
                N, _ = _nullspace_mod(shifted.T, l)
                if N.shape[0] == 0:
                    continue
                refined.append(_rref_mod(N @ B % l, l))
                found += N.shape[0]
                if found == d:
                    break
            assert found == d
        spaces = refined
    assert all(B.shape[0] == 1 for B, _ in spaces)
    return [B[0] for B, _ in spaces]


@pytest.mark.parametrize("l", [13, 257])
@pytest.mark.parametrize(
    "rows, cols, rank",
    [(1, 1, 0), (1, 1, 1), (4, 7, 0), (4, 7, 2), (4, 7, 4), (7, 4, 4), (6, 6, 3), (6, 6, 6)],
)
def test_nullspace_rows_hold_the_identity_in_the_free_columns(l, rows, cols, rank):
    """M = X Y with X = [I; *] and Y = [I | *] up to a column shuffle has
    exactly the given rank, so rank + nullity = cols is checked against a
    rank known in advance; rank 0 is the zero matrix."""
    rng = np.random.default_rng(rows * 100 + cols * 10 + rank + l)
    for _ in range(10):
        eye = np.eye(rank, dtype=np.int64)
        X = np.vstack([eye, rng.integers(0, l, (rows - rank, rank))])
        Y = np.hstack([eye, rng.integers(0, l, (rank, cols - rank))])
        M = X @ Y[:, rng.permutation(cols)] % l
        N, free = _nullspace_mod(M, l)
        assert N.shape == (cols - rank, cols) and free.shape == (cols - rank,)
        assert not (M @ N.T % l).any()
        assert np.array_equal(N[:, free], np.eye(free.size, dtype=np.int64))
        assert ((N >= 0) & (N < l)).all()


@pytest.mark.parametrize("spec", ["heisenberg:3,1", "T:5,1"])
def test_splitter_eliminates_once_per_eigenvalue(monkeypatch, spec):
    """Each eigenspace basis comes from its nullspace alone: one _rref_mod
    per _nullspace_mod, none on the product with the subspace basis."""
    calls = {"rref": 0, "nullspace": 0}

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)

        return wrapped

    monkeypatch.setattr(characters, "_rref_mod", counting("rref", _rref_mod))
    monkeypatch.setattr(
        characters, "_nullspace_mod", counting("nullspace", _nullspace_mod)
    )
    dixon_character_table(build_family(parse_family_spec(spec)))
    assert calls["nullspace"] > 0
    assert calls["rref"] == calls["nullspace"]


def _normalized(rows, l):
    return sorted(tuple((w * pow(int(w[0]), -1, l) % l).tolist()) for w in rows)


@pytest.mark.parametrize(
    "name", ["q8", "s3", "c3s3", "heis27", "32:49", "extraspecial_p:3,2", "cyclic:32"]
)
def test_splitter_matches_lambda_scan(request, corpus_groups, name):
    """The rows from G/G' plus the split nonlinear span are the rows the
    lambda-scan finds on all of F_l^k."""
    if name in ("q8", "s3", "c3s3", "heis27"):
        G = request.getfixturevalue(name)
    elif name in corpus_groups:
        G = corpus_groups[name]
    else:
        G = build_family(parse_family_spec(name))
    table = dixon_character_table(G)
    l = table.modulus
    consts = class_mult_coefficients(G) % l
    k = consts.shape[0]
    want = _normalized(_lambda_scan_eigenrows([consts[i] for i in range(1, k)], l), l)
    A, nonlinear = _character_rows(G, table.class_reps, table.exponent, l)
    # the linear rows |C_j| lambda(g_j) = |C_j| z^A mod l, z read as zeta_e
    z = _root_of_unity(table.exponent, l)
    zpow = np.array([pow(z, a, l) for a in range(table.exponent)], dtype=np.int64)
    linear = table.class_sizes * zpow[A] % l
    assert len(linear) == G.order // derived_subgroup(G).order
    assert table.degrees.count(1) == len(linear)
    got = _normalized(list(linear) + nonlinear, l)
    assert len(got) == k
    assert got == want


@pytest.mark.parametrize("spec", ["cyclic:64", "elemab:3,4"])
def test_abelian_table_builds_no_class_constants(spec):
    G = build_family(parse_family_spec(spec))
    t = dixon_character_table(G)
    assert t.degrees == [1] * G.order
    assert "class_consts" not in G._cache
    assert check_row_orthogonality(t) and check_column_orthogonality(t)


WIDE_SPECS = ["heisenberg:2,3", "heisenberg:3,2", "T:5,1"]


def _table_groups(corpus_groups):
    """Every fixture group, every family instance of order <= 256 and the
    wide tables, in a fixed order."""
    yield from corpus_groups.values()
    for _, spec in default_family_instances(256):
        yield build_family(spec)
    for spec in WIDE_SPECS:
        yield build_family(parse_family_spec(spec))


def test_class_combination_matches_the_structure_constants(corpus_groups):
    """The combination read off the class labels is the contraction of the
    k^3 structure constants with the same random coefficients."""
    rng = np.random.default_rng(0)
    for G in _table_groups(corpus_groups):
        reps = G.conjugacy_data()[1]
        k = reps.size
        l = least_dixon_prime(G.order, groups.group_exponent(G))
        r = rng.integers(0, l, size=k)
        want = np.tensordot(r, class_mult_coefficients(G), axes=1).T % l
        got = _class_combination(*_class_labels(G, reps), r, l)
        assert np.array_equal(got, want)


# sha256 of (degrees, modulus, values) over the tables of _table_groups plus
# heisenberg:11,1, as computed from the k^3 structure-constant tensor.
TABLES_SHA256 = "24e9be3059412715377e5c7144f6a2f3a63cb7f02132f3ef7c63d9502228a1a6"


def test_tables_are_pinned(corpus_groups):
    h = hashlib.sha256()
    heis11 = build_family(parse_family_spec("heisenberg:11,1"))
    for G in [*_table_groups(corpus_groups), heis11]:
        t = dixon_character_table(G)
        h.update(np.asarray(t.degrees, dtype=np.int64).tobytes())
        h.update(np.int64(t.modulus).tobytes())
        h.update(np.ascontiguousarray(t.values).tobytes())
    assert h.hexdigest() == TABLES_SHA256


def test_splitter_stores_no_class_constants(monkeypatch):
    def refuse(G):
        raise AssertionError("class_mult_coefficients called")

    monkeypatch.setattr(characters, "class_mult_coefficients", refuse)
    G = build_family(parse_family_spec("heisenberg:3,2"))
    assert dixon_character_table(G).n_classes == 89
    assert "class_consts" not in G._cache


def test_table_past_the_old_class_constant_budget():
    """297^3 structure constants would be over TABLE_BUDGET; the class
    labels are 297 x 729."""
    G = direct_product(
        build_family(parse_family_spec("heisenberg:3,1")),
        build_family(parse_family_spec("elemab:3,3")),
    )
    t = dixon_character_table(G)
    assert (G.order, t.n_classes) == (729, 297)
    assert t.n_classes**3 > TABLE_BUDGET
    assert check_row_orthogonality(t) and check_column_orthogonality(t)


def test_default_cap_builds_the_table_of_heisenberg_7():
    G = build_family(parse_family_spec("heisenberg:7"))
    assert G.order == 343
    analyze_center_pair(G)
    assert "chartable" in G._cache


# ---------------------------------------------------------------------------
# the mod-l orthogonality checks against the per-entry folds


def _folds_to(products, e, want):
    """True iff each products[r], the coefficient of zeta^u zeta^v at [u, v],
    sums to the rational integer want[r]."""
    shift = (np.arange(e)[:, None] + np.arange(e)[None, :]) % e
    folded = np.zeros((products.shape[0], e), dtype=np.int64)
    for u in range(e):
        folded[:, shift[u]] += products[:, u, :]
    canonical = folded @ reduction_matrix(e)
    return all(
        c[0] == w and not c[1:].any() for c, w in zip(canonical, want)
    )


def _fold_row_orthogonality(table):
    """Reference first orthogonality: one einsum and k folds per row."""
    k = table.n_classes
    V = _padded(table)
    X = V * table.class_sizes[None, :, None]
    Y = V[:, table.inverse_class, :]
    return all(
        _folds_to(
            np.einsum("ju,mjv->muv", X[i], Y),
            table.exponent,
            [table.order if m == i else 0 for m in range(k)],
        )
        for i in range(k)
    )


def _fold_column_orthogonality(table):
    """Reference second orthogonality: one einsum and k folds per class."""
    k = table.n_classes
    V = _padded(table)
    W = V[:, table.inverse_class, :]
    return all(
        _folds_to(
            np.einsum("iu,ikv->kuv", V[:, j, :], W),
            table.exponent,
            [table.order // int(table.class_sizes[j]) if c == j else 0 for c in range(k)],
        )
        for j in range(k)
    )


def _padded(table):
    """The table values as coefficient vectors of length e (zeros past phi(e))."""
    V = table.values
    return np.pad(V, [(0, 0), (0, 0), (0, table.exponent - V.shape[2])])


def _perturbed(table, i, j, delta):
    """The table with the canonical vector delta added to chi_i(g_j)."""
    values = table.values.copy()
    values[i, j] += delta
    return dataclasses.replace(table, values=values)


def _one(e):
    return reduction_matrix(e)[0]


def _zeta(e):
    return reduction_matrix(e)[1]


def _checks_agree(table):
    row, col = check_row_orthogonality(table), check_column_orthogonality(table)
    assert row == _fold_row_orthogonality(table)
    assert col == _fold_column_orthogonality(table)
    return row, col


@pytest.mark.parametrize("spec", ["heisenberg:2,3", "heisenberg:3,2", "T:5,1"])
def test_gram_checks_match_folds_on_wide_tables(spec):
    t = dixon_character_table(build_family(parse_family_spec(spec)))
    assert _checks_agree(t) == (True, True)
    i = t.degrees.index(max(t.degrees))
    assert _checks_agree(_perturbed(t, i, 1, _one(t.exponent))) == (False, False)


@pytest.mark.parametrize("name", ["q8", "s3", "heis27"])
def test_gram_checks_reject_one_perturbed_value(request, name):
    """Off by l, the first check prime, a table is right mod l; only the
    second prime, which the larger coefficient bound then asks for, sees it."""
    t = dixon_character_table(request.getfixturevalue(name))
    e = t.exponent
    l = _least_prime_above(CHECK_PRIME_FLOOR, e)
    for i, j in [(0, 0), (t.n_classes - 1, t.n_classes - 1), (1, t.n_classes - 1)]:
        for delta in (_one(e), _zeta(e), l * _one(e)):
            assert _checks_agree(_perturbed(t, i, j, delta)) == (False, False)


@pytest.mark.parametrize("spec", ["dihedral:256", "cyclic:256"])
def test_checks_reject_one_coefficient_off_by_one_at_large_exponent(spec):
    """e = 128 and e = 256; the test-side folds are too slow at this size."""
    t = dixon_character_table(build_family(parse_family_spec(spec)))
    assert t.exponent in (128, 256)
    bad = _perturbed(t, t.n_classes - 1, t.n_classes // 2, _zeta(t.exponent))
    assert not check_row_orthogonality(bad)
    assert not check_column_orthogonality(bad)


def test_checks_read_every_root_of_unity():
    """A small delta with delta(z) = 0 mod l at the first root z moves the
    Gram matrices only at the other roots, and the coefficient bound of
    C_16's perturbed table stays below l, so one prime decides."""
    t = dixon_character_table(build_family(FamilySpec("cyclic", (16,))))
    l = _least_prime_above(CHECK_PRIME_FLOOR, 16)
    z = np.array([pow(_root_of_unity(16, l), s, l) for s in range(8)])
    # meet in the middle: halves with coefficients in -4..4 whose sums cancel
    half = np.array(list(itertools.product(range(-4, 5), repeat=4)))
    sums, a, b = np.intersect1d(
        half @ z[:4] % l, -(half @ z[4:]) % l, return_indices=True
    )
    hit = np.flatnonzero(sums)[0]  # a sum of 0 may pair two zero halves
    delta = np.concatenate([half[a[hit]], half[b[hit]]])
    assert delta.any() and int(delta @ z) % l == 0
    assert _checks_agree(_perturbed(t, 1, 1, delta)) == (False, False)


def test_column_check_reads_the_irrational_part():
    """zeta_8 added to the trivial character of C_8 on a non-real class
    moves only irrational coefficients of the column Gram matrix (zeta_8
    and zeta_8^2 are both basis elements)."""
    t = dixon_character_table(build_family(FamilySpec("cyclic", (8,))))
    i = next(i for i, row in enumerate(t.values) if (row == _one(t.exponent)).all())
    j = next(j for j in range(t.n_classes) if t.inverse_class[j] != j)
    bad = _perturbed(t, i, j, _zeta(t.exponent))
    assert not check_column_orthogonality(bad)
    assert not _fold_column_orthogonality(bad)


# sha256 of `camina chartable --family SPEC`, as printed by the lambda-scan
# implementation (cyclic:256 and dihedral:256 by the per-value object
# tables; elemab:3,3, quaternion:64 and extraspecial_p2:3,2, whose
# abelianizations take 3, 2 and 2 cyclic steps, by the linear characters
# walked on a quotient group G/G'); neither the splitter's random draws
# nor the array layout of the values may reach the output.
CHARTABLE_SHA256 = {
    "heisenberg:3": "b9f554420bc77c3191d17df006b4b190564a9dad73cdf37c2df86bdb408840d1",
    "extraspecial_p:3,2": (
        "5db96984e4d290061c8cc7e42783368e81837b303b638b9b5b24770fd20f48da"
    ),
    "T:3,1": "e2cc066c8e9cb81191d3094652de2e6fa325b7c923cee5b80235029b0816c9d2",
    "cyclic:64": "76ea7c344da99f8491d97b176dae17392e2623420286a63e704916cbbbd08374",
    "cyclic:256": "a023567ca26688d3f658ceb8fc488398855e6e61818dbf729958798bcb10ce1f",
    "dihedral:256": "e0aed8fbc758d4fd3872ff86072d939ea33cd1efb905f1df0ce3788796f8e5a2",
    "elemab:3,3": "3c1debd2ea1ed9e90c01aeab4fcb28c490d1161172d8f6fc8d606656d24f3294",
    "quaternion:64": (
        "2c3674c094f7806a9d31f10161b656c2c572cd3ea8afb41f3af06e36f08ce9f5"
    ),
    "extraspecial_p2:3,2": (
        "8e7243c9a41cfd35e0c2efc0237574be3e821f63014bf454990f23352129726a"
    ),
}


@pytest.mark.parametrize("spec", sorted(CHARTABLE_SHA256))
def test_chartable_output_is_pinned(capsys, spec):
    assert main(["chartable", "--family", spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTABLE_SHA256[spec]


def test_table_builds_no_group_on_dihedral_64(monkeypatch):
    """G/G' is read as coset labels: no quotient group is constructed."""
    G = build_family(parse_family_spec("dihedral:64"))
    built = []
    init = groups.FiniteGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", counting)
    assert dixon_character_table(G).n_classes == 32 // 2 + 3
    assert built == []


# heis27 has a 2-dimensional nonlinear span, so the splitter reads
# combinations of its class matrices (for q8 the span is one line and
# none is formed).  Ct[c, j] = sum_i r_i a[i, j, c], so each edit of Ct
# below is exactly the corruption of the class constants a[i, j, c]
# named in its id.
CORRUPTED_TABLE = """
from camina import FamilySpec, build_family, characters
from camina.errors import InvariantViolation
combination = characters._class_combination

def corrupted(U, starts, r, l):
    Ct = combination(U, starts, r, l)
    {corruption}
    return Ct

characters._class_combination = corrupted
G = build_family(FamilySpec("heisenberg", (3, 1)))
try:
    characters.dixon_character_table(G)
except InvariantViolation as exc:
    print("InvariantViolation:", exc)
"""


@pytest.mark.parametrize(
    "corruption, message",
    [
        ("Ct[2, 1] += r.sum()", "class matrix failed to diagonalize"),
        ("Ct[:] = 0", "joint eigenbasis incomplete"),
        ("Ct[1, 1] += r[1]", "11 is not the square of a divisor of 27 mod 13"),
    ],
    # each id names the corruption of the class constants that the edit equals
    ids=[
        "consts[:, 1, 2] += 1-class matrix failed to diagonalize",
        "consts[...] = 0-joint eigenbasis incomplete",
        "consts[1, 1, 1] += 1-11 is not the square of a divisor of 27 mod 13",
    ],
)
def test_corrupted_class_constants_raise_under_optimize(corruption, message):
    """The invariant checks raise InvariantViolation, so -O keeps them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_TABLE.format(corruption=corruption)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == f"InvariantViolation: {message}\n"


def test_linear_and_nonlinear_counts_must_sum_to_the_class_count():
    G = build_family(FamilySpec("heisenberg", (3, 1)))
    G._cache["derived"] = np.zeros(1, dtype=np.int32)  # a wrong G' = 1
    with pytest.raises(InvariantViolation, match="27 plus 0 nonlinear rows is not 11"):
        dixon_character_table(G)


def test_table_does_not_keep_its_group_alive(q8):
    G = build_family(FamilySpec("quaternion", (8,)))
    gc.disable()
    try:
        table = dixon_character_table(G)
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()
    assert table.degrees == dixon_character_table(q8).degrees
    assert verify_fully_ramified(q8, center(q8), table) == (True, None)


def test_cached_values_are_read_only(q8):
    t = dixon_character_table(q8)
    assert t.values.shape == (5, 5, 2) and t.values.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        t.values[0, 0, 0] = 7
    assert dixon_character_table(q8).values[0, 0, 0] == 1


@pytest.mark.parametrize(
    "spec, sizes",
    [
        ("cyclic:512", "67108864 values (k^2 phi(e)); the budget"),
        ("dihedral:1024", "17172736 values (k^2 phi(e)); the budget"),
    ],
)
def test_table_over_budget_raises_before_building(spec, sizes):
    G = build_family(parse_family_spec(spec))
    with pytest.raises(TableTooLarge, match=rf"needs {re.escape(sizes)}"):
        dixon_character_table(G)
    assert "class_consts" not in G._cache and "chartable" not in G._cache


def test_chartable_over_budget_is_one_error_line(capsys):
    assert main(["chartable", "--family", "cyclic:512"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: character table with 512 classes")
    assert err.count("\n") == 1 and str(TABLE_BUDGET) in err
