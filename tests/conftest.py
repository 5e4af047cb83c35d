"""Shared fixtures: reference groups and the small-group corpus."""

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


@pytest.fixture(scope="session")
def q8():
    return build_family(FamilySpec("quaternion", (8,)))


@pytest.fixture(scope="session")
def d8():
    return build_family(FamilySpec("dihedral", (8,)))


@pytest.fixture(scope="session")
def s3():
    return group_from_generators(3, [Permutation((2, 3, 1)), Permutation((2, 1, 3))])


def _perm_group(degree, *cycle_lists):
    gens = [Permutation.from_cycles(degree, cycles) for cycles in cycle_lists]
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
