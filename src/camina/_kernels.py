"""Hot inner loops over dense Cayley tables, vectorized with numpy.

All kernels take raw arrays: ``mul`` is the order x order int32 table with
``mul[a, b] = a*b``, ``inv`` the int32 inverse map.  Conjugation is
``g^-1 * x * g`` and the commutator is ``[x, y] = x^-1 y^-1 x y``.
"""

from __future__ import annotations

import numpy as np

# There is no JIT path.  The flag stays because e2ebench/child.py stamps it on
# every benchmark result and e2ebench/compare.py refuses to compare results
# whose stamps differ.
USING_NUMBA = False


def conjugacy_partition(mul, inv):
    """Label each element with its conjugacy class id.

    Classes are numbered 0, 1, ... in order of their smallest member, so the
    identity's class is always 0.  Returns (class_of, n_classes).
    """
    n = mul.shape[0]
    idx = np.arange(n)
    class_of = np.full(n, -1, np.int32)
    n_classes = 0
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit = mul[mul[inv, x], idx]
        class_of[orbit] = n_classes
        n_classes += 1
    return class_of, n_classes


def coset_class_check(mul, class_of, members, outside):
    """First (g, n) with g outside N, n in N and g*n not conjugate to g.

    Returns (-1, -1) when every coset g*N lies inside the class of g.
    """
    if len(outside) == 0:
        return -1, -1
    got = class_of[mul[np.ix_(outside, members)]]
    bad = got != class_of[outside][:, None]
    if not bad.any():
        return -1, -1
    i, j = np.argwhere(bad)[0]
    return int(outside[i]), int(members[j])


def commutator_cover_check(mul, inv, members, outside):
    """First (g, n) with g outside N and n in N not of the form [y, g].

    Returns (-1, -1) when {[y, g] : y} covers N for every g outside N.
    """
    n = mul.shape[0]
    for g in outside:
        comms = mul[mul[inv, inv[g]], mul[:, g]]
        hit = np.zeros(n, dtype=bool)
        hit[comms] = True
        missing = members[~hit[members]]
        if missing.size:
            return int(g), int(missing[0])
    return -1, -1


def assoc_violation(mul):
    """First triple (a, b, c) with (a*b)*c != a*(b*c), or (-1, -1, -1)."""
    n = mul.shape[0]
    for a in range(n):
        left = mul[mul[a, :], :]
        right = mul[a][mul]
        bad = left != right
        if bad.any():
            b, c = np.argwhere(bad)[0]
            return a, int(b), int(c)
    return -1, -1, -1


def class_product_counts(mul, inv, class_of, reps):
    """Structure constants a[i, j, k] of the class algebra.

    a[i, j, k] counts factorizations rep_k = u * v with u in class i and
    v in class j; the count does not depend on the choice of rep_k.
    """
    k_count = len(reps)
    cls64 = class_of.astype(np.int64)
    a = np.zeros((k_count, k_count, k_count), dtype=np.int64)
    for k, z in enumerate(reps):
        pairs = cls64 * k_count + cls64[mul[inv, z]]
        a[:, :, k] = np.bincount(pairs, minlength=k_count * k_count).reshape(
            k_count, k_count
        )
    return a
