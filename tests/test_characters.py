"""Dixon character tables: structure constants, degrees, exact checks."""

import gc
import hashlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from camina import (
    FamilySpec,
    build_family,
    center,
    class_mult_coefficients,
    direct_product,
    dixon_character_table,
    irr_over,
    verify_fully_ramified,
)
from camina.characters import (
    _joint_eigenrows,
    _nullspace_mod,
    _rref_mod,
    check_column_orthogonality,
    check_degree_column,
    check_row_orthogonality,
    least_dixon_prime,
)
from camina.cli import main
from camina.corpus import parse_family_spec
from camina.groups import group_from_cayley_table, subgroup_generate

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
    class_of, classes = q8.conjugacy_data()
    a = class_mult_coefficients(q8)
    i_cls = int(class_of[1])  # class of an order-4 element
    # oracle: count factorizations of the identity over cl(i) x cl(i)
    members = classes[i_cls]
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
    vals = sorted(v.as_int() for v in (t.values[0][1], t.values[1][1]))
    assert vals == [-1, 1]
    assert t.modulus == least_dixon_prime(2, 2)


def test_s3_table(s3):
    t = dixon_character_table(s3)
    assert t.degrees == [1, 1, 2]
    assert t.modulus == 7
    assert check_row_orthogonality(t)
    assert check_degree_column(t)


def test_q8_table(q8):
    t = dixon_character_table(q8)
    assert t.degrees == [1, 1, 1, 1, 2]
    assert t.modulus == 13
    deg2 = t.degrees.index(2)
    Z = center(q8)
    for j, rep in enumerate(t.class_reps):
        if int(rep) not in Z:
            assert t.values[deg2][j].is_zero()


def test_heisenberg_table(heis27):
    t = dixon_character_table(heis27)
    assert t.degrees == [1] * 9 + [3, 3]
    assert sum(d * d for d in t.degrees) == 27
    assert check_row_orthogonality(t)


def test_irr_over(q8, heis27):
    t = dixon_character_table(q8)
    triv = subgroup_generate(q8, ())
    assert irr_over(q8, triv, t) == []
    over_z = irr_over(q8, center(q8), t)
    assert [t.degrees[i] for i in over_z] == [2]
    t27 = dixon_character_table(heis27)
    over_z27 = irr_over(heis27, center(heis27), t27)
    assert sorted(t27.degrees[i] for i in over_z27) == [3, 3]


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
        assert check_degree_column(t)
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
        assert check_row_orthogonality(t)
        assert check_column_orthogonality(t)


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
    rows_d = sorted(tuple(v.coeffs[0] for v in row) for row in td.values)
    rows_q = sorted(tuple(v.coeffs[0] for v in row) for row in tq.values)
    # all values are rational integers here; compare as sorted row multisets
    for row in td.values + tq.values:
        for v in row:
            assert v.as_int() is not None
    assert rows_d == rows_q


def test_dixon_table_is_deterministic():
    a = build_family(FamilySpec("heisenberg_sl3_sylow", (3, 1)))
    b = build_family(FamilySpec("heisenberg_sl3_sylow", (3, 1)))
    ta, tb = dixon_character_table(a), dixon_character_table(b)
    assert ta.degrees == tb.degrees
    assert ta.modulus == tb.modulus
    assert [[v.coeffs for v in row] for row in ta.values] == [
        [v.coeffs for v in row] for row in tb.values
    ]


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
                null_cols = _nullspace_mod(shifted.T, l)
                if null_cols.shape[1] == 0:
                    continue
                refined.append(_rref_mod(null_cols.T @ B % l, l))
                found += null_cols.shape[1]
                if found == d:
                    break
            assert found == d
        spaces = refined
    assert all(B.shape[0] == 1 for B, _ in spaces)
    return [B[0] for B, _ in spaces]


def _normalized(rows, l):
    return sorted(tuple((w * pow(int(w[0]), -1, l) % l).tolist()) for w in rows)


@pytest.mark.parametrize(
    "name", ["q8", "c3s3", "heis27", "32:49", "extraspecial_p:3,2", "cyclic:32"]
)
def test_splitter_matches_lambda_scan(request, corpus_groups, name):
    if name in ("q8", "c3s3", "heis27"):
        G = request.getfixturevalue(name)
    elif name in corpus_groups:
        G = corpus_groups[name]
    else:
        G = build_family(parse_family_spec(name))
    l = dixon_character_table(G).modulus
    consts = class_mult_coefficients(G) % l
    k = consts.shape[0]
    want = _normalized(_lambda_scan_eigenrows([consts[i] for i in range(1, k)], l), l)
    got = _normalized(_joint_eigenrows(consts, l), l)
    assert len(got) == k
    assert got == want


# sha256 of `camina chartable --family SPEC`, as printed by the lambda-scan
# implementation; the splitter's random draws must not reach the output.
CHARTABLE_SHA256 = {
    "heisenberg:3": "b9f554420bc77c3191d17df006b4b190564a9dad73cdf37c2df86bdb408840d1",
    "extraspecial_p:3,2": (
        "5db96984e4d290061c8cc7e42783368e81837b303b638b9b5b24770fd20f48da"
    ),
    "T:3,1": "e2cc066c8e9cb81191d3094652de2e6fa325b7c923cee5b80235029b0816c9d2",
    "cyclic:64": "76ea7c344da99f8491d97b176dae17392e2623420286a63e704916cbbbd08374",
}


@pytest.mark.parametrize("spec", sorted(CHARTABLE_SHA256))
def test_chartable_output_is_pinned(capsys, spec):
    assert main(["chartable", "--family", spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTABLE_SHA256[spec]


CORRUPTED_TABLE = """
from camina import FamilySpec, build_family, class_mult_coefficients
from camina import dixon_character_table
from camina.errors import InvariantViolation
G = build_family(FamilySpec("quaternion", (8,)))
consts = class_mult_coefficients(G).copy()
{corruption}
G._cache["class_consts"] = consts
try:
    dixon_character_table(G)
except InvariantViolation as exc:
    print("InvariantViolation:", exc)
"""


@pytest.mark.parametrize(
    "corruption, message",
    [
        ("consts[1, 0, 1] += 1", "class matrix failed to diagonalize"),
        ("consts[...] = 0", "joint eigenbasis incomplete"),
        ("consts[...] += 1", "11 is not a quadratic residue mod 13"),
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
    assert irr_over(q8, center(q8), table) == [table.degrees.index(2)]
