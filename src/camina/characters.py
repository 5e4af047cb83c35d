"""Exact character tables via class-algebra eigenvectors mod a prime.

The table is computed over F_l for the least prime l with l = 1 (mod
exponent(G)) and l > 2*sqrt(|G|): the structure constants of the class
algebra give commuting matrices whose joint eigenvectors are the rows
(|C_j| chi(g_j) / chi(1))_j reduced mod l.  The |G:G'| linear rows are
read off G/G' through the coset labels of G', one cyclic step at a time.
The nonlinear rows span the vectors whose entries sum to zero over the
classes in each coset of G'; following Dixon (1967) as refined by
Schneider (1990), that span alone is split by random F_l-combinations of
all class matrices.  Each combination is read straight off the group, as
Schneider and Hulpke (1993) form class matrices, through one k x |G|
array of class labels: O(k |G|) work a round, and the k^3 structure
constants are never stored.  The eigenvalues of each combination,
restricted to an unsplit subspace, are the roots in F_l of its
characteristic polynomial (through a Hessenberg reduction mod l), and
each eigenspace is one nullspace N with the identity in its free
columns; the subspace basis B has it in its pivot columns, so N B has it
too and needs no second elimination.  The values form one (k, k, phi(e))
array of canonical coefficients in Z[zeta_e]: the linear rows are rows
of the reduction matrix picked by their exponents, and only the
nonlinear rows are lifted, through the discrete Fourier transform over
powers of a primitive root of F_l, one matrix product mod l per element
order.  A fixed entry budget on the values is checked before anything is
built; it bounds the orthogonality checks too, which compare Gram
products with their integer targets at the primitive e-th roots of unity
mod primes l = 1 (mod e).
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
    cosets,
    derived_subgroup,
    group_exponent,
)
from .structure import is_prime_power

PRIME_SEARCH_CAP = 10**6
CHECK_PRIME_FLOOR = 2**19  # the orthogonality primes lie above, all below 2^20

# The most int64 entries a table's values may hold (k^2 phi(e), 128 MB),
# checked before anything is built.  The splitter's class labels hold
# k |G| <= |G|^2 int32 entries, twice the bytes of the int16 group table,
# so the order cap bounds them.
TABLE_BUDGET = 2**24


# ---------------------------------------------------------------------------
# small number theory mod l


def _least_prime_above(floor: int, exponent: int) -> int:
    """Least prime l with l = 1 (mod exponent) and l > floor."""
    start = floor - (floor - 1) % exponent + exponent
    for l in range(start, PRIME_SEARCH_CAP + 1, exponent):
        if is_prime_power(l) == (l, 1):
            return l
    raise InternalPrimeSearchFailed(
        f"no usable prime below {PRIME_SEARCH_CAP} for exponent {exponent}"
    )


def least_dixon_prime(order: int, exponent: int) -> int:
    """Least prime l with l = 1 (mod exponent) and l > 2*sqrt(order)."""
    return _least_prime_above(math.isqrt(4 * order), exponent)


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


def _nullspace_mod(M: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, free): rows N spanning the nullspace of M mod l, with N[:, free]
    the identity."""
    R, pivots = _rref_mod(M, l)
    free = np.setdiff1d(np.arange(M.shape[1]), pivots)
    N = np.zeros((free.size, M.shape[1]), dtype=np.int64)
    N[np.arange(free.size), free] = 1
    N[:, pivots] = -R[: len(pivots), free].T % l
    return N, free


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


def _class_labels(G: FiniteGroup, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, starts): U[c, v] = class of z_c v^-1 for the class representative
    z_c, with the columns v running over G class by class (the stable sort
    of class_of); class j fills the sizes[j] columns from starts[j].  U
    holds k |G| int32 labels.
    """
    class_of, _, sizes = G.conjugacy_data()
    members = np.argsort(class_of, kind="stable")
    U = class_of[G.mul[np.ix_(reps, G.inv[members])]]
    return U, np.cumsum(sizes) - sizes


def _class_combination(
    U: np.ndarray, starts: np.ndarray, r: np.ndarray, l: int
) -> np.ndarray:
    """Ct[c, j] = sum_i r_i a[i, j, c] mod l: the transpose of the
    combination sum_i r_i M_i of the class matrices M_i[j, c] = a[i, j, c].

    z_c = u v with u in class i and v in class j exactly when u = z_c v^-1,
    so the sum is that of r[class of z_c v^-1] over v in class j: one
    gather of r through U and one sum per class.  Each sum has at most |G|
    terms below l, so it is exact in int64.
    """
    return np.add.reduceat(r[U], starts, axis=1) % l


def _joint_eigenrows(
    U: np.ndarray, starts: np.ndarray, B: np.ndarray, piv: np.ndarray, l: int
) -> list[np.ndarray]:
    """Common eigenvectors (as rows, k-vectors) of the class matrices mod l
    inside the row space of B.

    (U, starts) are the class labels of `_class_labels`.  The rows of B
    span a sum of joint eigenspaces, and B[:, piv] is the identity, so a
    vector v of the space is sum_i v[piv[i]] B[i].  Each round draws one
    random F_l-combination C of all class matrices (seeded from l, so the
    draws depend only on the input), reads it off the labels, restricts C
    to each unsplit subspace and splits the subspace into the eigenspaces
    of C: the eigenvalues are the roots of the characteristic polynomial,
    and each eigenspace is one nullspace N, N[:, free] = I, whose rows
    N B hold the identity in the columns piv[free].  The class algebra is
    split semisimple mod l, so the joint eigenspaces are lines.
    """
    k = starts.size
    rng = np.random.default_rng(l)
    spaces = [(B, piv)]
    for _ in range(SPLIT_ROUNDS):
        if all(B.shape[0] == 1 for B, _ in spaces):
            break
        Ct = _class_combination(U, starts, rng.integers(0, l, size=k), l)
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
                N, free = _nullspace_mod(shifted.T, l)
                refined.append((N @ B % l, piv[free]))
                found += free.size
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
    The table holds the group order and the class data its checks read
    (least member, size and inverse class of each class; the first two are
    the group's read-only `conjugacy_data` arrays), not the group itself,
    so a cached table keeps no reference back to it.
    """

    order: int
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
        class_of, reps, _ = G.conjugacy_data()
        k = reps.size
        cls = class_of.astype(np.int64)
        # the pair (u, v = u^-1 z) for z = reps[c], as the flat index of (i, j, c)
        flat = (cls[:, None] * k + cls[G.mul[np.ix_(G.inv, reps)]]) * k + np.arange(k)
        a = np.bincount(flat.ravel(), minlength=k**3).reshape(k, k, k)
        G._cache["class_consts"] = a
    return G._cache["class_consts"]


def _linear_characters(G: FiniteGroup, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The characters of G/G' as exponents mod e.

    Returns (A, coset_of) with coset_of from `groups.cosets`, and the i-th
    linear character is lambda_i(g) = zeta_e^A[i, coset_of[g]].  The
    table grows one cyclic step at a time: if x has order r modulo the
    subgroup H built so far and lambda(x^r) = zeta_e^a, then r divides a
    and lambda extends to <H, x> in r ways, by lambda(x) = zeta_e^b with
    b = a/r + t e/r for t = 0, ..., r - 1.
    """
    reps, coset_of = cosets(G, derived_subgroup(G))
    members = np.zeros(1, dtype=np.int64)  # H, in the column order of A
    pos = np.full(len(reps), -1, dtype=np.int64)  # column of each element of H
    pos[0] = 0
    A = np.zeros((1, 1), dtype=np.int64)
    while members.size < len(reps):
        x = int(np.flatnonzero(pos < 0)[0])
        layers, y = [members], x  # H, Hx, Hx^2, ...; y runs over x^i
        while pos[y] < 0:
            layers.append(coset_of[G.mul[reps[members], reps[y]]])
            y = int(coset_of[G.mul[reps[y], reps[x]]])
        r = len(layers)
        b = A[:, pos[y]][:, None] // r + np.arange(r)[None, :] * (e // r)
        i = np.arange(r)[None, None, :, None]
        A = (A[:, None, None, :] + i * b[:, :, None, None]) % e
        A = A.reshape(b.size, b.size)
        members = np.concatenate(layers)
        pos[members] = np.arange(members.size)
    return A[:, pos], coset_of


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
    split, and only when it has dimension at least 2 (never for an abelian
    group); then each random combination of the class matrices is read off
    the k |G| class labels of `_class_labels`, and no class constant is
    stored.
    """
    A, coset_of = _linear_characters(G, e)
    coset_of_class = coset_of[reps]
    B, piv = _nonlinear_basis(coset_of_class, A.shape[0], l)
    A = A[:, coset_of_class]
    if B.shape[0] < 2:
        return A, list(B)
    return A, _joint_eigenrows(*_class_labels(G, reps), B, piv, l)


def _root_of_unity(e: int, l: int) -> int:
    """The primitive e-th root of unity mod l that the lift reads as zeta_e."""
    return pow(_primitive_root(l), (l - 1) // e, l)


def _check_budget(k: int, e: int) -> None:
    """Refuse a table whose value array would hold more than TABLE_BUDGET
    int64 entries."""
    values = k * k * sum(math.gcd(u, e) == 1 for u in range(e))
    if values > TABLE_BUDGET:
        raise TableTooLarge(
            f"character table with {k} classes and exponent {e} needs "
            f"{values} values (k^2 phi(e)); "
            f"the budget is {TABLE_BUDGET} int64 entries"
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

    class_of, reps, sizes = G.conjugacy_data()
    inverse_class = class_of[G.inv[reps]]
    k = reps.size
    e = group_exponent(G)
    order = G.order
    _check_budget(k, e)
    l = least_dixon_prime(order, e)

    A, nonlinear = _character_rows(G, reps, e, l)
    m = len(A)
    size_inv = np.array([pow(int(s), -1, l) for s in sizes], dtype=np.int64)
    # Degrees divide |G| and are at most sqrt|G| < l/2, so two of them with
    # equal squares mod l are equal: chi(1) is read off chi(1)^2 mod l.
    small_divisors = [d for d in range(1, math.isqrt(order) + 1) if order % d == 0]
    chars = []
    degrees = [1] * m
    for w in nonlinear:
        if w[0] % l == 0:
            raise InvariantViolation("eigenvector vanishes on the identity class")
        # normalize w[0] = 1 so w_j = |C_j| chi(g_j) / chi(1) mod l
        w = w * pow(int(w[0]), -1, l) % l
        dot = int((w * w[inverse_class] % l * size_inv % l).sum() % l)
        chi1_sq = order * pow(dot, -1, l) % l
        chi1 = next((d for d in small_divisors if d * d % l == chi1_sq), None)
        if chi1 is None:
            raise InvariantViolation(
                f"{chi1_sq} is not the square of a divisor of {order} mod {l}"
            )
        degrees.append(chi1)
        chars.append(w * chi1 % l * size_inv % l)
    if sum(d * d for d in degrees) != order:
        raise InvariantViolation("degree sum check failed")

    R = reduction_matrix(e)
    values = np.empty((k, k, R.shape[1]), dtype=np.int64)
    values[:m] = R[A]
    if chars:
        # Fourier lift of the nonlinear rows to Z[zeta_e]: on a class of
        # order o, the multiplicity of the eigenvalue zeta_o^u of chi is
        # (1/o) sum_t chi(g^t) zeta_o^(-ut).  The classes J of order o are
        # lifted together, from the classes P[t][j] of reps[J[j]]^t.
        chars = np.array(chars, dtype=np.int64)
        z_inv = pow(_root_of_unity(e, l), -1, l)
        zpow = np.array([pow(z_inv, s, l) for s in range(e)], dtype=np.int64)
        rep_orders = G.element_orders()[reps]
        for o in np.unique(rep_orders).tolist():
            J = np.flatnonzero(rep_orders == o)
            P, g = [], np.zeros(J.size, dtype=np.int64)
            for _ in range(o):
                P.append(class_of[g])
                g = G.mul[g, reps[J]]
            s = np.arange(o) * (e // o)  # zeta_o^t = zeta_e^s[t]
            fourier = zpow[np.outer(np.arange(o), s) % e] * pow(o, -1, l) % l
            # fourier is symmetric; integer matmul is faster on its column-major .T
            mult = chars[:, np.column_stack(P)] @ fourier.T
            mult %= l
            if (mult.sum(axis=2).T != degrees[m:]).any():
                raise InvariantViolation(
                    "eigenvalue multiplicities do not sum to the degree"
                )
            values[m:, J] = mult @ np.asfortranarray(R[s])
            del mult  # before the next order's product or the sorted copy of values

    order_key = _row_order(degrees, values)
    values = values[order_key]
    values.setflags(write=False)
    table = CharacterTable(
        order=order,
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


def _orthogonal(table: CharacterTable, columns: bool) -> bool:
    """The first (rows) or second (columns) orthogonality relation, exactly.

    Mod a prime l = 1 (mod e), Phi_e splits into distinct factors x - z^u,
    u a unit mod e, so evaluation at the z^u maps Z[zeta_e]/l one to one
    onto F_l^phi(e).  Per prime above CHECK_PRIME_FLOOR, the values are
    evaluated a row at a time, and each root gives one k x k Gram product
    mod l in float64, exactly: at most 2^13 terms below l^2 < 2^40.  No
    Gram coefficient exceeds norm * max|V| * (largest column sum of
    |reduction_matrix(e)|), norm the largest coefficient sum of a row of
    the left factor, so once the primes' product exceeds that plus
    max|target|, agreement mod every prime is equality.
    """
    V, e, k = table.values, table.exponent, table.n_classes
    sizes, inv = table.class_sizes, table.inverse_class
    norms = np.abs(V).sum(axis=2)
    if columns:  # sum_i chi_i(g_j) chi_i(g_c^-1) = |C_G(g_j)| [j = c]
        norm, target = norms.sum(axis=0).max(), np.diag(table.order // sizes)
    else:  # sum_j |C_j| chi_i(g_j) chi_m(g_j^-1) = |G| [i = m]
        norm, target = (norms @ sizes).max(), np.diag([table.order] * k)
    reduce = np.abs(reduction_matrix(e)).sum(axis=0).max()
    bound = int(norm) * max(int(V.max()), -int(V.min())) * int(reduce)
    units = np.flatnonzero(np.gcd(np.arange(e), e) == 1)
    l, product = CHECK_PRIME_FLOOR, 1
    while product <= bound + int(target.max()):
        l = _least_prime_above(l, e)
        z = _root_of_unity(e, l)
        zpow = np.array([pow(z, i, l) for i in range(e)], dtype=np.int64)
        Pt = zpow[np.outer(units, np.arange(units.size)) % e].astype(np.float64)
        Y = np.empty((units.size, k, k), dtype=np.int64)  # Y[s] at z^units[s]
        for i, row in enumerate(V):
            Y[:, i] = (Pt @ (row % l).T.astype(np.float64)).astype(np.int64) % l
        for y in Y:
            left = y.T if columns else y * sizes % l
            right = y[:, inv] if columns else y[:, inv].T
            gram = left.astype(np.float64) @ right.astype(np.float64)
            if not np.array_equal(gram.astype(np.int64) % l, target % l):
                return False
        product *= l
    return True


def check_row_orthogonality(table: CharacterTable) -> bool:
    """Exact first orthogonality: sum_j |C_j| chi_i(g_j) chi_m(g_j^-1)."""
    return _orthogonal(table, columns=False)


def check_column_orthogonality(table: CharacterTable) -> bool:
    """Exact second orthogonality: sum_i chi_i(g_j) chi_i(g_c^-1)."""
    return _orthogonal(table, columns=True)


def verify_fully_ramified(
    G: FiniteGroup, Z: SubgroupHandle, table: CharacterTable
) -> tuple[bool, tuple[int, int] | None]:
    """Check that every character over Z vanishes off Z with chi(1)^2 = |G:Z|.

    Z must be central, so each of its elements is a class of its own and
    the classes of Z are the singleton classes whose representative lies
    in Z; a character lies over Z unless it is the integer chi(1) on all
    of them.  Raises ValueError when fewer than |Z| such classes exist.
    Returns (ok, witness); the witness is (character index, class rep) for
    a vanishing failure and (character index, -1) for a degree failure.
    """
    on_z = Z.mask[table.class_reps]
    if np.count_nonzero(on_z & (table.class_sizes == 1)) < Z.order:
        raise ValueError("verify_fully_ramified requires a central subgroup")
    V = table.values[:, on_z]
    degrees = np.array(table.degrees)
    over_z = (V[..., 0] != degrees[:, None]).any(axis=1) | V[..., 1:].any(axis=(1, 2))
    index = G.order // Z.order
    for i in np.flatnonzero(over_z).tolist():
        if table.degrees[i] ** 2 != index:
            return False, (i, -1)
        bad = np.flatnonzero(~on_z & table.values[i].any(axis=1))
        if bad.size:
            return False, (i, int(table.class_reps[bad[0]]))
    return True, None
