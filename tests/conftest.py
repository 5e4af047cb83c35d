"""Shared fixtures: reference groups and the small-group corpus, and the
references the tests import: the quotient group, the validated-table
builder, centralizers and subgroup closure, each from its definition."""

from pathlib import Path

import numpy as np
import pytest

from camina import (
    FamilySpec,
    FiniteGroup,
    Permutation,
    build_family,
    group_from_generators,
    parse_corpus,
    parse_family_spec,
)
from camina.errors import CaminaError
from camina.groups import TABLE_DTYPE, _handle, assoc_violation, check_order

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_FILES = ["order8.grp", "order16.grp", "order27.grp", "order32.grp"]


def ref_quotient(G, N):
    """G/N from the definition, as (Q, proj) for a normal subgroup N.

    The cosets xN = {xn : n in N} are numbered by their least members in
    ascending order, proj[x] is the number of the coset of x, and Q
    multiplies cosets through any members: (xN)(yN) = xyN.  That product
    is checked to be well defined on every pair of elements.
    """
    proj = np.full(G.order, -1, dtype=np.int64)
    reps = []
    for x in range(G.order):
        if proj[x] < 0:
            for n in N.members:
                proj[G.mul[x, n]] = len(reps)
            reps.append(x)
    table = proj[G.mul[np.ix_(reps, reps)]]
    if not (proj[G.mul] == table[np.ix_(proj, proj)]).all():
        raise ValueError(f"subgroup of order {N.order} is not normal")
    return FiniteGroup(table), proj


class NoIdentity(CaminaError):
    """Cayley table has no identity at index 0."""


class NotLatinSquare(CaminaError):
    """Some row or column of a Cayley table is not a permutation."""


class NotAssociative(CaminaError):
    """Cayley table fails associativity; carries the first bad triple."""

    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"(x*y)*z != x*(y*z) at (x, y, z) = ({a}, {b}, {c})")


def group_from_cayley_table(table, name: str = "") -> FiniteGroup:
    """Validate an explicit table (integer, identity, Latin, associative).

    Every Latin row holds the identity 0, so every element has an inverse.
    The entries must have an integer dtype and are range-checked in it, so
    narrowing to the table dtype afterwards cannot truncate or wrap.
    """
    try:
        table = np.asarray(table)
    except ValueError as exc:  # ragged rows
        raise NotLatinSquare(f"table is not an array: {exc}") from None
    n = table.shape[0] if table.ndim else 0
    if table.dtype.kind not in "iu" or table.shape != (n, n) or n == 0:
        raise NotLatinSquare(
            f"need a nonempty square integer table, got {table.dtype} {table.shape}"
        )
    check_order(n)
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotLatinSquare(f"entry at ({bad[0]}, {bad[1]}) is outside [0, {n})")
    mul = np.ascontiguousarray(table, dtype=TABLE_DTYPE)

    idx = np.arange(n)
    row_bad = np.flatnonzero(mul[0] != idx)
    if row_bad.size:
        raise NoIdentity(f"row 0 is not the identity at column {row_bad[0]}")
    col_bad = np.flatnonzero(mul[:, 0] != idx)
    if col_bad.size:
        raise NoIdentity(f"column 0 is not the identity at row {col_bad[0]}")

    for axis, kind in ((1, "row"), (0, "column")):
        sorted_lines = np.sort(mul, axis=axis)
        ok = (sorted_lines == (idx[None, :] if axis == 1 else idx[:, None])).all(
            axis=axis
        )
        bad_lines = np.flatnonzero(~ok)
        if bad_lines.size:
            raise NotLatinSquare(f"{kind} {bad_lines[0]} is not a permutation")

    bad = assoc_violation(mul)
    if bad is not None:
        raise NotAssociative(*bad)
    return FiniteGroup(mul, name=name)


def centralizer(G, x):
    """C(x) = {g : gx = xg}, one comparison per element."""
    return _handle(G, np.flatnonzero(G.mul[:, x] == G.mul[x, :]))


def closure_holds(H):
    """The members of H are closed under multiplication and inversion."""
    m = H.members
    prods = H.parent.mul[np.ix_(m, m)]
    return bool(H.mask[prods].all() and H.mask[H.parent.inv[m]].all())


@pytest.fixture(scope="session")
def q8():
    return build_family(FamilySpec("quaternion", (8,)))


@pytest.fixture(scope="session")
def d8():
    return build_family(FamilySpec("dihedral", (8,)))


@pytest.fixture(scope="session")
def s3():
    return group_from_generators(3, [Permutation((2, 3, 1)), Permutation((2, 1, 3))])


def perm_from_cycles(degree, cycles):
    """The permutation of 1..degree with the given disjoint cycles."""
    images = list(range(1, degree + 1))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            images[pt - 1] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


def _perm_group(degree, *cycle_lists):
    gens = [perm_from_cycles(degree, cycles) for cycles in cycle_lists]
    return group_from_generators(degree, gens)


@pytest.fixture(scope="session")
def non_nilpotent(s3):
    return {
        "S3": s3,
        "D10": _perm_group(5, [(1, 2, 3, 4, 5)], [(2, 5), (3, 4)]),
        "A4": _perm_group(4, [(1, 2, 3)], [(1, 2), (3, 4)]),
        "F21": _perm_group(7, [(1, 2, 3, 4, 5, 6, 7)], [(1, 2, 4), (3, 6, 5)]),
        "S4": _perm_group(4, [(1, 2, 3, 4)], [(1, 2)]),
    }


@pytest.fixture(scope="session")
def c4():
    return build_family(FamilySpec("cyclic", (4,)))


@pytest.fixture(scope="session")
def klein():
    return build_family(FamilySpec("elemab", (2, 2)))


@pytest.fixture(scope="session")
def heis27():
    return build_family(FamilySpec("heisenberg", (3, 1)))


@pytest.fixture(scope="session")
def mod27():
    return build_family(FamilySpec("extraspecial_p2", (3, 1)))


@pytest.fixture(scope="session")
def t81():
    return build_family(parse_family_spec("T:3,1"))


@pytest.fixture(scope="session")
def corpus_entries():
    entries = []
    for name in FIXTURE_FILES:
        entries.extend(parse_corpus((FIXTURES / name).read_text(), validate=False))
    return entries


@pytest.fixture(scope="session")
def corpus_groups(corpus_entries):
    """{gid: FiniteGroup} for the whole fixture corpus."""
    return {e.gid: e.build() for e in corpus_entries}
