"""Exact character tables via class-algebra eigenvectors mod a prime.

The table is computed over F_l for the least prime l with l = 1 (mod
exponent(G)) and l > 2*sqrt(|G|): the structure constants of the class
algebra give commuting matrices whose joint eigenvectors are the rows
(|C_j| chi(g_j) / chi(1))_j reduced mod l.  The |G:G'| linear rows are
read off the abelianization G/G', built one cyclic extension at a time.
The nonlinear rows span the vectors whose entries sum to zero over the
classes in each coset of G'; following Dixon (1967) as refined by
Schneider (1990), that span alone is split by random F_l-combinations of
all class matrices: the eigenvalues of each combination, restricted to an
unsplit subspace, are the roots in F_l of its characteristic polynomial
(through a Hessenberg reduction mod l), and each eigenspace is one
nullspace.  The values form one (k, k, phi(e)) array of canonical
coefficients in Z[zeta_e]: the linear rows are rows of the reduction
matrix picked by their exponents, and only the nonlinear rows are lifted,
through the discrete Fourier transform over powers of a primitive root
of F_l, one matrix product mod l per class.  A fixed entry budget is
checked before anything is built.  The orthogonality checks form whole
Gram matrices over Z[x]/(x^e - 1) and reduce them mod the cyclotomic
polynomial, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import reduction_matrix
from .errors import InternalPrimeSearchFailed, InvariantViolation, TableTooLarge
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    derived_subgroup,
    group_exponent,
    is_normal,
    quotient,
)
from .structure import is_prime_power

PRIME_SEARCH_CAP = 10**6

# The most int64 entries a table may hold, checked before anything is built:
# k^2 phi(e) values, and the k^3 class constants when the nonlinear span is
# split (128 MB each).
TABLE_BUDGET = 2**24


# ---------------------------------------------------------------------------
# small number theory mod l


def least_dixon_prime(order: int, exponent: int) -> int:
    """Least prime l with l = 1 (mod exponent) and l > 2*sqrt(order)."""
    l = exponent + 1
    while l * l <= 4 * order or is_prime_power(l) != (l, 1):
        l += exponent
        if l > PRIME_SEARCH_CAP:
            raise InternalPrimeSearchFailed(
                f"no usable prime below {PRIME_SEARCH_CAP} for exponent {exponent}"
            )
    return l


def _primitive_root(l: int) -> int:
    phi = l - 1
    factors = []
    rest, f = phi, 2
    while f * f <= rest:
        if rest % f == 0:
            factors.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        factors.append(rest)
    for g in range(2, l):
        if all(pow(g, phi // q, l) != 1 for q in factors):
            return g
    raise InvariantViolation(f"no primitive root mod {l}")  # pragma: no cover


def _sqrt_mod(a: int, l: int) -> int:
    """Tonelli-Shanks square root mod an odd prime (a must be a residue)."""
    a %= l
    if a == 0:
        return 0
    if pow(a, (l - 1) // 2, l) != 1:
        raise InvariantViolation(f"{a} is not a quadratic residue mod {l}")
    if l % 4 == 3:
        return pow(a, (l + 1) // 4, l)
    q, s = l - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (l - 1) // 2, l) != l - 1:
        z += 1
    m, c, t, r = s, pow(z, q, l), pow(a, q, l), pow(a, (q + 1) // 2, l)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % l
            i += 1
        b = pow(c, 1 << (m - i - 1), l)
        m, c = i, b * b % l
        t, r = t * c % l, r * b % l
    return r


# ---------------------------------------------------------------------------
# linear algebra mod l (dense int64 arrays)


def _rref_mod(M: np.ndarray, l: int):
    """Row-reduced echelon form mod l; returns (R, pivot_columns)."""
    R = M.copy() % l
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = np.flatnonzero(R[r:, c])
        if hit.size == 0:
            continue
        pr = r + int(hit[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        # rows r.. vanish left of column c, so only columns c.. change
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), -1, l) % l
        other = np.flatnonzero(R[:, c])
        other = other[other != r]
        R[other, c:] = (R[other, c:] - np.outer(R[other, c], R[r, c:])) % l
        pivots.append(c)
        r += 1
    return R, pivots


def _nullspace_mod(M: np.ndarray, l: int) -> np.ndarray:
    """Columns spanning the nullspace of M mod l."""
    R, pivots = _rref_mod(M, l)
    cols = M.shape[1]
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -R[: len(pivots), free] % l
    return basis


def _charpoly_mod(R: np.ndarray, l: int) -> np.ndarray:
    """Characteristic polynomial of a square matrix mod l, low to high.

    R is brought to upper Hessenberg form H by similarity transforms mod l;
    then p_m, the polynomial of the leading m x m block of H, follows from
        p_m = (x - h_mm) p_(m-1) - sum_i h_im (h_(i+1,i) ... h_(m,m-1)) p_(i-1)
    (1-based).  H and the d + 1 polynomials take O(d^2) numbers.
    """
    H = R % l
    d = H.shape[0]
    for j in range(d - 2):
        hit = np.flatnonzero(H[j + 1 :, j])
        if hit.size == 0:
            continue
        i = j + 1 + int(hit[0])
        if i != j + 1:
            H[[i, j + 1]] = H[[j + 1, i]]
            H[:, [i, j + 1]] = H[:, [j + 1, i]]
        u = H[j + 2 :, j] * pow(int(H[j + 1, j]), -1, l) % l
        if u.any():
            # row_r -= u_r row_(j+1), then column_(j+1) += sum_r u_r column_r
            H[j + 2 :] = (H[j + 2 :] - np.outer(u, H[j + 1])) % l
            H[:, j + 1] = (H[:, j + 1] + H[:, j + 2 :] @ u) % l
    P = np.zeros((d + 1, d + 1), dtype=np.int64)
    P[0, 0] = 1
    T = np.zeros(0, dtype=np.int64)  # T[i-1] = h_(i+1,i) ... h_(m,m-1)
    for m in range(1, d + 1):
        p = np.zeros(d + 1, dtype=np.int64)
        p[1:] = P[m - 1, :-1]
        p -= H[m - 1, m - 1] * P[m - 1]
        if m > 1:
            s = H[m - 1, m - 2]
            T = np.append(T * s % l, s)
            p -= (H[: m - 1, m - 1] * T % l) @ P[: m - 1]
        P[m] = p % l
    return P[d]


def _roots_mod(poly: np.ndarray, l: int) -> np.ndarray:
    """The roots in F_l of a polynomial (low to high), by evaluating it
    at every point of F_l at once."""
    x = np.arange(l, dtype=np.int64)
    val = np.zeros(l, dtype=np.int64)
    for c in poly[::-1]:
        val = (val * x + int(c)) % l
    return np.flatnonzero(val == 0)


# A random combination separates two given characters with probability
# 1 - 1/l, and l >= 3, so a pair stays unsplit through all rounds with
# probability at most 3^-64.
SPLIT_ROUNDS = 64


def _joint_eigenrows(
    consts: np.ndarray, B: np.ndarray, piv: np.ndarray, l: int
) -> list[np.ndarray]:
    """Common eigenvectors (as rows, k-vectors) of the class matrices mod l
    inside the row space of B.

    consts[i] is the i-th class matrix, reduced mod l.  The rows of B span
    a sum of joint eigenspaces, and B[:, piv] is the identity, so a vector
    v of the space is sum_i v[piv[i]] B[i].  Each
    round draws one random F_l-combination C of all class matrices (seeded
    from l, so the draws depend only on the input), restricts C to each
    unsplit subspace and splits the subspace into the eigenspaces of C:
    the eigenvalues are the roots of the characteristic polynomial, and
    each eigenspace is one nullspace.  The class algebra mod l is split
    semisimple, so the joint eigenspaces are lines.
    """
    k = consts.shape[0]
    rng = np.random.default_rng(l)
    spaces = [(B, piv)]
    for _ in range(SPLIT_ROUNDS):
        if all(B.shape[0] == 1 for B, _ in spaces):
            break
        Ct = np.tensordot(rng.integers(0, l, size=k), consts, axes=1).T % l
        refined = []
        for B, piv in spaces:
            d = B.shape[0]
            if d == 1:
                refined.append((B, piv))
                continue
            R = (B @ Ct % l)[:, piv]  # row i: C b_i in the coordinates of B
            found = 0
            for lam in _roots_mod(_charpoly_mod(R, l), l):
                shifted = (R - int(lam) * np.eye(d, dtype=np.int64)) % l
                null_cols = _nullspace_mod(shifted.T, l)
                refined.append(_rref_mod(null_cols.T @ B % l, l))
                found += null_cols.shape[1]
            if found != d:
                raise InvariantViolation("class matrix failed to diagonalize")
        spaces = refined
    if not all(B.shape[0] == 1 for B, _ in spaces):
        raise InvariantViolation("joint eigenbasis incomplete")
    return [B[0] for B, _ in spaces]


# ---------------------------------------------------------------------------
# character table


@dataclass
class CharacterTable:
    """Exact character table: degrees plus cyclotomic values per class.

    values is a read-only (k, k, phi(e)) int64 array: values[i, j] is the
    canonical form of chi_i(g_j) in Z[zeta_e] (see camina.cyclotomic).
    The table holds the group order and class map its checks read, not
    the group itself, so a cached table keeps no reference back to it.
    """

    order: int
    class_of: np.ndarray
    class_reps: np.ndarray
    class_sizes: np.ndarray
    inverse_class: np.ndarray
    degrees: list[int]
    values: np.ndarray
    modulus: int
    exponent: int

    @property
    def n_classes(self) -> int:
        return len(self.degrees)


def class_mult_coefficients(G: FiniteGroup) -> np.ndarray:
    """Structure constants a[i, j, k] of the class algebra (cached).

    a[i, j, k] counts factorizations z = u * v with u in class i and v in
    class j, for z the representative of class k; the count does not
    depend on the choice of z.
    """
    if "class_consts" not in G._cache:
        class_of, classes = G.conjugacy_data()
        k = len(classes)
        cls = class_of.astype(np.int64)
        a = np.zeros((k, k, k), dtype=np.int64)
        for c, members in enumerate(classes):
            pairs = cls * k + cls[G.mul[G.inv, members[0]]]  # v = u^-1 z
            a[:, :, c] = np.bincount(pairs, minlength=k * k).reshape(k, k)
        G._cache["class_consts"] = a
    return G._cache["class_consts"]


def _power_classes(G: FiniteGroup, class_of: np.ndarray, rep: int, o: int) -> np.ndarray:
    """Classes of rep^0, rep^1, ..., rep^(o-1)."""
    pm = np.empty(o, dtype=np.int64)
    cur = 0
    for t in range(o):
        pm[t] = class_of[cur]
        cur = int(G.mul[cur, rep])
    return pm


def _linear_characters(G: FiniteGroup, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The characters of G/G' as exponents mod e.

    Returns (A, proj): proj maps each element of G to its coset of G', and
    the i-th linear character is lambda_i(g) = zeta_e^A[i, proj[g]].  The
    table grows one cyclic step at a time: if x has order r modulo the
    subgroup H built so far and lambda(x^r) = zeta_e^a, then r divides a
    and lambda extends to <H, x> in r ways, by lambda(x) = zeta_e^b with
    b = a/r + t e/r for t = 0, ..., r - 1.
    """
    Q, proj = quotient(G, derived_subgroup(G))
    members = np.zeros(1, dtype=np.int64)  # H, in the column order of A
    pos = np.full(Q.order, -1, dtype=np.int64)  # column of each element of H
    pos[0] = 0
    A = np.zeros((1, 1), dtype=np.int64)
    while members.size < Q.order:
        x = int(np.flatnonzero(pos < 0)[0])
        cosets, y = [members], x  # H, Hx, Hx^2, ...; y runs over x^i
        while pos[y] < 0:
            cosets.append(Q.mul[members, y])
            y = int(Q.mul[y, x])
        r = len(cosets)
        b = A[:, pos[y]][:, None] // r + np.arange(r)[None, :] * (e // r)
        i = np.arange(r)[None, None, :, None]
        A = (A[:, None, None, :] + i * b[:, :, None, None]) % e
        A = A.reshape(b.size, b.size)
        members = np.concatenate(cosets)
        pos[members] = np.arange(members.size)
    return A[:, pos], proj


def _nonlinear_basis(coset_of_class: np.ndarray, m: int, l: int):
    """(B, piv): the span of the nonlinear rows w_j = |C_j| chi(g_j) / chi(1).

    A nonlinear chi is orthogonal to every function on G/G', so its row
    sums to zero over the classes of each of the m = |G:G'| cosets of G';
    those conditions have disjoint supports, and the span is exactly their
    solution space.  Its basis is e_j - e_f for each class j that is not
    the first class f of its coset, with B[:, piv] the identity.
    """
    k = coset_of_class.size
    first = np.unique(coset_of_class, return_index=True)[1]
    if first.size != m:
        raise InvariantViolation(
            f"|G:G'| = {m} plus {k - first.size} nonlinear rows is not {k} classes"
        )
    piv = np.setdiff1d(np.arange(k), first)
    B = np.zeros((piv.size, k), dtype=np.int64)
    B[np.arange(piv.size), piv] = 1
    B[np.arange(piv.size), first[coset_of_class[piv]]] = l - 1
    return B, piv


def _character_rows(G: FiniteGroup, reps, e: int, l: int):
    """(A, nonlinear): the linear characters as exponents, and the
    nonlinear rows w_j = |C_j| chi(g_j) / chi(1) mod l.

    reps are the class representatives; the i-th linear character takes
    the value zeta_e^A[i, j] on class j.  Only the nonlinear span is
    split, so the class-constant tensor is built only when that span has
    dimension at least 2 (never for an abelian group).
    """
    A, proj = _linear_characters(G, e)
    coset_of_class = proj[reps]
    B, piv = _nonlinear_basis(coset_of_class, A.shape[0], l)
    A = A[:, coset_of_class]
    if B.shape[0] < 2:
        return A, list(B)
    return A, _joint_eigenrows(class_mult_coefficients(G) % l, B, piv, l)


def _root_of_unity(e: int, l: int) -> int:
    """The primitive e-th root of unity mod l that the lift reads as zeta_e."""
    return pow(_primitive_root(l), (l - 1) // e, l)


def _check_budget(k: int, e: int, span: int) -> None:
    """Refuse a table whose value array or class-constant tensor would hold
    more than TABLE_BUDGET int64 entries; span is the dimension of the
    nonlinear span, and the k^3 tensor is built only when it is 2 or more."""
    values = k * k * sum(math.gcd(u, e) == 1 for u in range(e))
    consts = k**3 if span >= 2 else 0
    if max(values, consts) > TABLE_BUDGET:
        raise TableTooLarge(
            f"character table with {k} classes and exponent {e} needs "
            f"{values} values (k^2 phi(e)) and {consts} class constants (k^3); "
            f"the budget is {TABLE_BUDGET} int64 entries each"
        )


def _row_order(degrees: list[int], values: np.ndarray) -> np.ndarray:
    """Indices sorting the rows by degree, then coefficients in order.

    The rows of a character table are distinct, so the stable sort reads
    only as many leading coefficients as it needs to tell every pair of
    neighbours apart, doubling that number until it does.
    """
    flat = values.reshape(len(degrees), -1)
    c = 1
    while True:
        keys = np.column_stack([degrees, flat[:, :c]])
        order = np.lexsort(keys.T[::-1])
        ranked = keys[order]
        if c >= flat.shape[1] or (ranked[1:] != ranked[:-1]).any(axis=1).all():
            return order
        c *= 2


def dixon_character_table(G: FiniteGroup) -> CharacterTable:
    """Exact character table of G (cached on the group)."""
    if "chartable" in G._cache:
        return G._cache["chartable"]

    class_of, classes = G.conjugacy_data()
    k = len(classes)
    reps = np.array([int(c[0]) for c in classes], dtype=np.int32)
    sizes = np.array([len(c) for c in classes], dtype=np.int64)
    inverse_class = np.array([class_of[G.inv[r]] for r in reps], dtype=np.int64)
    e = group_exponent(G)
    order = G.order
    _check_budget(k, e, k - order // derived_subgroup(G).order)
    l = least_dixon_prime(order, e)

    A, nonlinear = _character_rows(G, reps, e, l)
    m = len(A)
    size_inv = np.array([pow(int(s), -1, l) for s in sizes], dtype=np.int64)
    chars = []
    degrees = [1] * m
    for w in nonlinear:
        if w[0] % l == 0:
            raise InvariantViolation("eigenvector vanishes on the identity class")
        # normalize w[0] = 1 so w_j = |C_j| chi(g_j) / chi(1) mod l
        w = w * pow(int(w[0]), -1, l) % l
        dot = int((w * w[inverse_class] % l * size_inv % l).sum() % l)
        chi1_sq = order * pow(dot, -1, l) % l
        root = _sqrt_mod(chi1_sq, l)
        chi1 = min(root, l - root)
        degrees.append(int(chi1))
        chars.append(w * chi1 % l * size_inv % l)
    if sum(d * d for d in degrees) != order:
        raise InvariantViolation("degree sum check failed")

    R = reduction_matrix(e)
    values = np.empty((k, k, R.shape[1]), dtype=np.int64)
    values[:m] = R[A]
    if chars:
        # Fourier lift of the nonlinear rows to Z[zeta_e]: on a class of
        # order o, the multiplicity of the eigenvalue zeta_o^u of chi is
        # (1/o) sum_t chi(g^t) zeta_o^(-ut).
        chars = np.array(chars, dtype=np.int64)
        z = _root_of_unity(e, l)
        elem_orders = G.element_orders()
        fourier: dict[int, np.ndarray] = {}
        for j in range(k):
            o = int(elem_orders[reps[j]])
            if o not in fourier:
                zo_inv = pow(z, -(e // o), l)
                powers = np.array([pow(zo_inv, s, l) for s in range(o)], dtype=np.int64)
                t = np.arange(o)
                fourier[o] = powers[np.outer(t, t) % o] * pow(o, -1, l) % l
            mult = chars[:, _power_classes(G, class_of, int(reps[j]), o)] @ fourier[o] % l
            if not np.array_equal(mult.sum(axis=1), degrees[m:]):
                raise InvariantViolation(
                    "eigenvalue multiplicities do not sum to the degree"
                )
            values[m:, j] = mult @ R[np.arange(o) * (e // o)]

    order_key = _row_order(degrees, values)
    values = values[order_key]
    values.setflags(write=False)
    table = CharacterTable(
        order=order,
        class_of=class_of,
        class_reps=reps,
        class_sizes=sizes,
        inverse_class=inverse_class,
        degrees=[degrees[i] for i in order_key],
        values=values,
        modulus=l,
        exponent=e,
    )
    G._cache["chartable"] = table
    return table


# ---------------------------------------------------------------------------
# table-level checks


def _is_integer(V: np.ndarray, n) -> bool:
    """True iff the canonical forms along the last axis of V are the
    rational integers n (broadcast against V[..., 0])."""
    return bool((V[..., 0] == n).all() and not V[..., 1:].any())


def check_degree_column(table: CharacterTable) -> bool:
    return _is_integer(table.values[:, 0], table.degrees)


def _gram(X: np.ndarray, Y: np.ndarray, e: int) -> np.ndarray:
    """Canonical coefficients of sum_j X[i, j] Y[m, j] in Z[zeta_e], as (i, m, u).

    X[i, j] and Y[m, j] are canonical coefficient vectors of length phi(e).
    The products are taken in Z[x]/(x^e - 1), with Y padded to length e,
    one matrix product per power u of x in X, and every entry is then
    reduced mod Phi_e by reduction_matrix(e).  The products run in float64,
    which is exact while every partial sum stays below 2^53; the bound
    below covers the sum of the absolute values of all terms of every entry.
    The float64 arrays hold up to k*k*e entries each; over TABLE_BUDGET
    that raises TableTooLarge before any of them is allocated.
    """
    ki, kj, phi = X.shape
    km = Y.shape[0]
    entries = max(ki, kj) * km * e
    if entries > TABLE_BUDGET:
        raise TableTooLarge(
            f"orthogonality check with {max(ki, kj)} classes and exponent {e} "
            f"needs {entries} Gram entries (k^2 e); "
            f"the budget is {TABLE_BUDGET} entries"
        )
    reduce = reduction_matrix(e)
    bound = (
        int(np.abs(X).sum(axis=(1, 2)).max())
        * int(np.abs(Y).max())
        * int(np.abs(reduce).sum(axis=0).max())
    )
    if bound >= 2**53:
        raise InvariantViolation(f"Gram bound {bound} is not below 2^53")
    Xf = X.astype(np.float64)
    Yt = np.zeros((kj, km, e))  # (j, m, v)
    Yt[:, :, :phi] = Y.transpose(1, 0, 2)
    prod = np.zeros((ki, km * e))
    for u in range(phi):
        # x^u times Y: coefficient v moves to v + u (mod e)
        prod += Xf[:, :, u] @ np.roll(Yt, u, axis=2).reshape(kj, km * e)
    return (prod.reshape(ki, km, e) @ reduce).astype(np.int64)


def check_row_orthogonality(table: CharacterTable) -> bool:
    """Exact first orthogonality: sum_j |C_j| chi_i(g_j) chi_m(g_j^-1)."""
    V = table.values
    X = V * table.class_sizes[None, :, None]
    gram = _gram(X, V[:, table.inverse_class], table.exponent)
    return _is_integer(gram, np.diag([table.order] * table.n_classes))


def check_column_orthogonality(table: CharacterTable) -> bool:
    """Exact second orthogonality: sum_i chi_i(g_j) chi_i(g_k^-1)."""
    V = table.values.transpose(1, 0, 2)
    gram = _gram(V, V[table.inverse_class], table.exponent)
    return _is_integer(gram, np.diag(table.order // table.class_sizes))


def character_kernel_contains(
    table: CharacterTable, i: int, members: np.ndarray
) -> bool:
    """True iff every listed element lies in ker chi_i."""
    classes = np.unique(table.class_of[np.asarray(members)])
    return _is_integer(table.values[i, classes], table.degrees[i])


def irr_over(G: FiniteGroup, N: SubgroupHandle, table: CharacterTable) -> list[int]:
    """Indices of characters chi with N not contained in ker chi.

    For central N (the only use here) this is exactly the set of
    characters lying over a nontrivial character of N.
    """
    if not is_normal(G, N):
        raise ValueError("irr_over requires a normal subgroup")
    return [
        i
        for i in range(table.n_classes)
        if not character_kernel_contains(table, i, N.members)
    ]


def verify_fully_ramified(
    G: FiniteGroup, Z: SubgroupHandle, table: CharacterTable
) -> tuple[bool, tuple[int, int] | None]:
    """Check that every character over Z vanishes off Z with chi(1)^2 = |G:Z|.

    Returns (ok, witness); the witness is (character index, class rep) for
    a vanishing failure and (character index, -1) for a degree failure.
    """
    index = G.order // Z.order
    off_z = ~Z.mask[table.class_reps]
    for i in irr_over(G, Z, table):
        if table.degrees[i] ** 2 != index:
            return False, (i, -1)
        bad = np.flatnonzero(off_z & table.values[i].any(axis=1))
        if bad.size:
            return False, (i, int(table.class_reps[bad[0]]))
    return True, None
