#!/usr/bin/env python3
"""One-time builder for the small-group corpus fixtures.

Every group of order p^(k+1) is a cyclic extension of a group of order
p^k: pick a maximal (hence normal, index p) subgroup H and any t outside
it; conjugation by t is an automorphism a of H with a(h0) = h0 and
a^p = (conjugation by h0) where h0 = t^p.  Conversely every such pair
(a, h0) yields a group on H x Zp.  The builder therefore:

  1. enumerates all extensions of the known groups of order n by C_p,
  2. deduplicates up to isomorphism (invariant fingerprints, then an
     exact generator-mapping search),
  3. checks the census counts against the classical classification
     (5 groups of order 8, 14 of order 16, 5 of order 27, 51 of order 32),
  4. assigns catalogue indices: isomorphism-anchored indices where the
     standard small-groups numbering is attested (all of orders 8/16/27,
     and for order 32 the structural anchors listed in ANCHORS_32 plus
     the five center-pair groups at 6, 7, 8, 43, 44), remaining order-32
     indices filled deterministically by (generator rank, fingerprint),
  5. writes tests/fixtures/order{8,16,27,32}.grp and re-parses them as a
     round-trip check.

Run:  python tools/make_fixtures.py [--out tests/fixtures]
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from camina._kernels import assoc_violation  # noqa: E402
from camina.corpus import (  # noqa: E402
    FamilySpec,
    _central_product_over_cp,
    _metacyclic as metacyclic,
    build_family,
    greedy_generators,
    group_to_entry,
    parse_corpus,
    serialize_corpus,
)
from camina.groups import (  # noqa: E402
    FiniteGroup,
    center,
    derived_subgroup,
    direct_product,
    from_table_unchecked,
    power_map,
    quotient,
    subgroup_generate,
)
from camina.pairs import census  # noqa: E402
from camina.structure import (  # noqa: E402
    nilpotency_class,
    upper_central_series,
    valuation,
)


# ---------------------------------------------------------------------------
# invariants and fingerprints


def order_histogram(G: FiniteGroup, members=None) -> tuple:
    orders = G.element_orders()
    if members is not None:
        orders = orders[np.asarray(members)]
    return tuple(sorted(Counter(orders.tolist()).items()))


def fingerprint(G: FiniteGroup) -> tuple:
    orders = G.element_orders()
    class_of, classes = G.conjugacy_data()
    Z = center(G)
    Gp = derived_subgroup(G)
    Q, _ = quotient(G, Gp)
    idx = np.arange(G.order)
    squares = np.unique(G.mul[idx, idx])
    profile = tuple(
        sorted(
            (
                len(c),
                int(orders[c[0]]),
                int(orders[G.mul[c[0], c[0]]]),
            )
            for c in classes
        )
    )
    return (
        G.order,
        order_histogram(G),
        Z.order,
        order_histogram(G, Z.members),
        Gp.order,
        order_histogram(G, Gp.members),
        int(squares.size),
        order_histogram(Q),
        tuple(t.order for t in upper_central_series(G).terms),
        nilpotency_class(G),
        profile,
    )


def generator_rank(G: FiniteGroup, p: int) -> int:
    """Rank of G over its Frattini quotient (p-groups only)."""
    frattini_gens = np.union1d(derived_subgroup(G).members, np.unique(power_map(G, p)))
    phi = subgroup_generate(G, frattini_gens)
    return valuation(G.order // phi.order, p)


# ---------------------------------------------------------------------------
# generator-mapping searches (isomorphism and automorphisms)


def _element_invariants(G: FiniteGroup) -> list[tuple]:
    orders = G.element_orders()
    class_of, classes = G.conjugacy_data()
    sizes = np.array([len(c) for c in classes])
    return [
        (int(orders[x]), int(sizes[class_of[x]]), int(orders[G.mul[x, x]]))
        for x in range(G.order)
    ]


def _mapping_search(A: FiniteGroup, B: FiniteGroup, find_all: bool):
    """Generator-image search for isomorphisms A -> B.

    Returns a list of image arrays (all of them when find_all, else at
    most one).  Assumes |A| = |B|.
    """
    gens = greedy_generators(A)
    if not gens:  # trivial group
        return [np.zeros(1, dtype=np.int32)]
    invA = _element_invariants(A)
    invB = _element_invariants(B)
    candidates = [
        [y for y in range(B.order) if invB[y] == invA[g]] for g in gens
    ]
    n = A.order
    found: list[np.ndarray] = []

    def check_partial(images: list[int]) -> np.ndarray | None:
        """phi on the subgroup generated by the mapped generators, or None.

        Closes <gens[:k]> breadth-first while propagating images; rejects on
        any inconsistency, non-injectivity, or a failed product check.
        """
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

    def recurse(images: list[int]):
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


def iso_exists(A: FiniteGroup, B: FiniteGroup) -> bool:
    if A.order != B.order:
        return False
    if A.is_abelian() or B.is_abelian():
        if A.is_abelian() != B.is_abelian():
            return False
        return order_histogram(A) == order_histogram(B)
    return bool(_mapping_search(A, B, find_all=False))


def all_automorphisms(G: FiniteGroup) -> list[np.ndarray]:
    return _mapping_search(G, G, find_all=True)


# ---------------------------------------------------------------------------
# cyclic extensions


def cyclic_extension(mulH: np.ndarray, alpha: np.ndarray, h0: int, p: int):
    """Group on H x Zp from (alpha, h0) with t^p = h0, t h t^-1 = alpha(h)."""
    nH = mulH.shape[0]
    n = nH * p
    apow = [np.arange(nH, dtype=np.int64)]
    for _ in range(p - 1):
        apow.append(alpha[apow[-1]])
    h = np.arange(nH)
    table = np.empty((n, n), dtype=np.int64)
    for i in range(p):
        for j in range(p):
            part = mulH[h[:, None], apow[i][None, :]]
            if i + j >= p:
                part = mulH[part, h0]
            table[i * nH : (i + 1) * nH, j * nH : (j + 1) * nH] = (
                ((i + j) % p) * nH + part
            )
    return table


def _inner_maps(G: FiniteGroup) -> np.ndarray:
    """inner[a][h] = a h a^-1."""
    return G.mul[G.mul, G.inv[:, None]]


def _assoc_ok(table: np.ndarray) -> bool:
    return assoc_violation(table)[0] < 0


def extensions_of(H: FiniteGroup, p: int) -> list[np.ndarray]:
    """All cyclic-extension tables of H by C_p (with duplicates)."""
    inner = _inner_maps(H)
    out = []
    for alpha in all_automorphisms(H):
        apow = alpha
        for _ in range(p - 1):
            apow = alpha[apow]
        h0_candidates = np.flatnonzero((inner == apow[None, :]).all(axis=1))
        for h0 in h0_candidates:
            if alpha[h0] != h0:
                continue
            out.append(cyclic_extension(H.mul, alpha, int(h0), p))
    return out


def classify_order(groups_below: list[FiniteGroup], p: int) -> list[FiniteGroup]:
    """All isomorphism classes of extensions of the given groups by C_p."""
    buckets: dict[tuple, list[FiniteGroup]] = {}
    reps: list[FiniteGroup] = []
    for H in groups_below:
        for table in extensions_of(H, p):
            assert _assoc_ok(table), "extension table is not associative"
            G = from_table_unchecked(table)
            key = fingerprint(G)
            bucket = buckets.setdefault(key, [])
            if any(iso_exists(G, R) for R in bucket):
                continue
            bucket.append(G)
            reps.append(G)
    return reps


# ---------------------------------------------------------------------------
# named constructions used as index anchors


def cyclic_table(n: int) -> FiniteGroup:
    return build_family(FamilySpec("cyclic", (n,)))


def abelian_product(*factors: int) -> FiniteGroup:
    G = cyclic_table(factors[0])
    for f in factors[1:]:
        G = direct_product(G, cyclic_table(f))
    return G


def semidirect_by_cyclic(H: FiniteGroup, alpha: np.ndarray, m: int) -> FiniteGroup:
    return from_table_unchecked(cyclic_extension(H.mul, alpha, 0, m))


def central_product(A: FiniteGroup, zA: int, B: FiniteGroup, zB: int) -> FiniteGroup:
    return _central_product_over_cp(A, zA, B, zB)[0]


def named_groups_8() -> list[tuple[int, str, FiniteGroup]]:
    return [
        (1, "C8", cyclic_table(8)),
        (2, "C4xC2", abelian_product(4, 2)),
        (3, "D8", build_family(FamilySpec("dihedral", (8,)))),
        (4, "Q8", build_family(FamilySpec("quaternion", (8,)))),
        (5, "C2^3", abelian_product(2, 2, 2)),
    ]


def named_groups_16() -> list[tuple[int, str, FiniteGroup]]:
    c2c2_swap = np.array([0, 2, 1, 3], dtype=np.int64)  # swap the two factors
    c4_invert = np.array([0, 3, 2, 1], dtype=np.int64)
    d8 = build_family(FamilySpec("dihedral", (8,)))
    q8 = build_family(FamilySpec("quaternion", (8,)))
    c4 = cyclic_table(4)
    return [
        (1, "C16", cyclic_table(16)),
        (2, "C4xC4", abelian_product(4, 4)),
        (3, "C2^2:C4", semidirect_by_cyclic(abelian_product(2, 2), c2c2_swap, 4)),
        (4, "C4:C4", semidirect_by_cyclic(c4, c4_invert, 4)),
        (5, "C8xC2", abelian_product(8, 2)),
        (6, "C8:C2_mod", metacyclic(8, 5)),
        (7, "D16", metacyclic(8, 7)),
        (8, "SD16", metacyclic(8, 3)),
        (9, "Q16", build_family(FamilySpec("quaternion", (16,)))),
        (10, "C4xC2^2", abelian_product(4, 2, 2)),
        (11, "D8xC2", direct_product(d8, cyclic_table(2))),
        (12, "Q8xC2", direct_product(q8, cyclic_table(2))),
        (13, "D8oC4", central_product(d8, int(center(d8).members[1]), c4, 2)),
        (14, "C2^4", abelian_product(2, 2, 2, 2)),
    ]


def named_groups_27() -> list[tuple[int, str, FiniteGroup]]:
    return [
        (1, "C27", cyclic_table(27)),
        (2, "C9xC3", abelian_product(9, 3)),
        (3, "He27", build_family(FamilySpec("heisenberg_sl3_sylow", (3, 1)))),
        (4, "M27", build_family(FamilySpec("extraspecial_exp_p2", (3, 1)))),
        (5, "C3^3", abelian_product(3, 3, 3)),
    ]


def anchors_32() -> list[tuple[int, str, FiniteGroup]]:
    d8 = build_family(FamilySpec("dihedral", (8,)))
    q8 = build_family(FamilySpec("quaternion", (8,)))
    c2 = cyclic_table(2)
    zd8 = int(center(d8).members[1])
    zq8 = int(center(q8).members[1])
    pauli = central_product(d8, zd8, cyclic_table(4), 2)
    return [
        (1, "C32", cyclic_table(32)),
        (16, "C16xC2", abelian_product(16, 2)),
        (17, "C16:C2_mod", metacyclic(16, 9)),
        (18, "D32", metacyclic(16, 15)),
        (19, "SD32", metacyclic(16, 7)),
        (20, "Q32", build_family(FamilySpec("quaternion", (32,)))),
        (45, "C4xC2^3", abelian_product(4, 2, 2, 2)),
        (46, "D8xC2^2", direct_product(direct_product(d8, c2), c2)),
        (47, "Q8xC2^2", direct_product(direct_product(q8, c2), c2)),
        (48, "D8oC4xC2", direct_product(pauli, c2)),
        (49, "ES32+", central_product(d8, zd8, d8, zd8)),
        (50, "ES32-", central_product(d8, zd8, q8, zq8)),
        (51, "C2^5", abelian_product(2, 2, 2, 2, 2)),
    ]


# ---------------------------------------------------------------------------
# index assignment


def match_named(
    reps: list[FiniteGroup], named: list[tuple[int, str, FiniteGroup]]
) -> dict[int, tuple[int, str]]:
    """Map rep position -> (index, name) via isomorphism tests."""
    fps = [fingerprint(G) for G in reps]
    assigned: dict[int, tuple[int, str]] = {}
    for index, name, H in named:
        fpH = fingerprint(H)
        hits = [
            i
            for i, G in enumerate(reps)
            if fps[i] == fpH and i not in assigned and iso_exists(H, G)
        ]
        assert len(hits) == 1, f"anchor {name}: {len(hits)} matches"
        assigned[hits[0]] = (index, name)
    return assigned


def center_pair_positions(reps: list[FiniteGroup]) -> list[int]:
    """Positions of the center pairs that are not Camina groups."""
    return census(enumerate(reps), reps[0].order, "center-pair-not-camina-group").hits


def assign_indices_32(reps: list[FiniteGroup]) -> dict[int, tuple[int, str]]:
    assigned = match_named(reps, anchors_32())
    special = center_pair_positions(reps)
    assert len(special) == 5, f"expected 5 center-pair groups, got {len(special)}"
    assert not (set(special) & set(assigned)), "census groups collide with anchors"

    ranks = {i: generator_rank(reps[i], 2) for i in range(len(reps))}
    fps = {i: fingerprint(reps[i]) for i in range(len(reps))}
    rank_split = Counter(ranks[i] for i in special)
    print(f"  census-five generator ranks: {dict(rank_split)}")
    assert rank_split == Counter({2: 3, 3: 2}), (
        "unexpected rank split for the five center-pair groups; "
        "the 6,7,8/43,44 block placement would not be consistent"
    )
    two_gen = sorted((i for i in special if ranks[i] == 2), key=lambda i: fps[i])
    three_gen = sorted((i for i in special if ranks[i] == 3), key=lambda i: fps[i])
    for slot, i in zip((6, 7, 8), two_gen):
        assigned[i] = (slot, f"CP32_{slot}")
    for slot, i in zip((43, 44), three_gen):
        assigned[i] = (slot, f"CP32_{slot}")

    rest = sorted(
        (i for i in range(len(reps)) if i not in assigned),
        key=lambda i: (ranks[i], fps[i]),
    )
    free_slots = sorted(set(range(1, 52)) - {v[0] for v in assigned.values()})
    assert len(rest) == len(free_slots)
    for slot, i in zip(free_slots, rest):
        assigned[i] = (slot, f"G32_{slot}")
    return assigned


def assign_exact(
    reps: list[FiniteGroup], named: list[tuple[int, str, FiniteGroup]]
) -> dict[int, tuple[int, str]]:
    assigned = match_named(reps, named)
    assert len(assigned) == len(reps), "not every group matched a named anchor"
    return assigned


# ---------------------------------------------------------------------------
# driver


HEADER = """\
# Corpus fixture: all {count} groups of order {order}.
#
# Provenance: enumerated from scratch as iterated cyclic extensions
# (every maximal subgroup of a p-group is normal of index p) and
# deduplicated by isomorphism; the census count {count} matches the
# classical classification for this order, so the list is complete.
# {anchor_note}
# Generators are right-regular permutations of a small generating set.
"""

ANCHOR_NOTES = {
    8: "Indices follow the standard small-groups numbering (all anchored).",
    16: "Indices follow the standard small-groups numbering (all anchored).",
    27: "Indices follow the standard small-groups numbering (all anchored).",
    32: (
        "Indices 1, 16-20, 45-51 are anchored by isomorphism to standard\n"
        "# constructions; 6, 7, 8, 43, 44 are the five center-Camina-pair\n"
        "# non-Camina groups at their attested positions; remaining indices\n"
        "# are filled deterministically by (generator rank, fingerprint)."
    ),
}


def build_fixture(order: int, reps: list[FiniteGroup], assigned, out_dir: Path):
    entries = []
    for i, G in enumerate(reps):
        index, name = assigned[i]
        entries.append((index, name, G))
    entries.sort(key=lambda t: t[0])
    corpus_entries = [
        group_to_entry(G, order, index, name, minimal=True)
        for index, name, G in entries
    ]
    text = HEADER.format(
        count=len(reps), order=order, anchor_note=ANCHOR_NOTES[order]
    ) + serialize_corpus(corpus_entries)
    path = out_dir / f"order{order}.grp"
    path.write_text(text)

    reparsed = parse_corpus(path.read_text())
    assert len(reparsed) == len(reps)
    for entry, (index, name, G) in zip(reparsed, entries):
        rebuilt = entry.build()
        assert rebuilt.order == order
        assert fingerprint(rebuilt) == fingerprint(G), f"round trip {entry.gid}"
    print(f"  wrote {path} ({len(reps)} groups)")
    return entries


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path, default=Path("tests/fixtures"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    print("enumerating 2-groups ...")
    order2 = [cyclic_table(2)]
    order4 = classify_order(order2, 2)
    assert len(order4) == 2, len(order4)
    order8 = classify_order(order4, 2)
    assert len(order8) == 5, len(order8)
    print(f"  order 8: {len(order8)} classes")
    order16 = classify_order(order8, 2)
    assert len(order16) == 14, len(order16)
    print(f"  order 16: {len(order16)} classes ({time.time() - t0:.1f}s)")
    order32 = classify_order(order16, 2)
    assert len(order32) == 51, len(order32)
    print(f"  order 32: {len(order32)} classes ({time.time() - t0:.1f}s)")

    print("enumerating 3-groups ...")
    order9 = classify_order([cyclic_table(3)], 3)
    assert len(order9) == 2
    order27 = classify_order(order9, 3)
    assert len(order27) == 5
    print(f"  order 27: {len(order27)} classes")

    print("assigning indices ...")
    a8 = assign_exact(order8, named_groups_8())
    a16 = assign_exact(order16, named_groups_16())
    a27 = assign_exact(order27, named_groups_27())
    a32 = assign_indices_32(order32)

    print("writing fixtures ...")
    e8 = build_fixture(8, order8, a8, args.out)
    build_fixture(16, order16, a16, args.out)
    build_fixture(27, order27, a27, args.out)
    e32 = build_fixture(32, order32, a32, args.out)

    # cross-checks against the expected census facts
    pair8 = census([(idx, G) for idx, _, G in e8], 8, "center-pair").hits
    assert pair8 == [3, 4], pair8  # D8 and Q8
    five = center_pair_positions([G for _, _, G in e32])
    assert [e32[i][0] for i in five] == [6, 7, 8, 43, 44], five
    for idx, name, G in e32:
        if idx in (6, 7, 8, 43, 44):
            assert center(G).order == 2
    print(f"all checks passed ({time.time() - t0:.1f}s total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
