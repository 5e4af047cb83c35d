"""Exact character tables via class-algebra eigenvectors mod a prime.

The table is computed over F_l for the least prime l with l = 1 (mod
exponent(G)) and l > 2*sqrt(|G|): the structure constants of the class
algebra give commuting matrices whose joint eigenvectors are the rows
(|C_j| chi(g_j) / chi(1))_j reduced mod l.  Eigenvalues are found by
exhaustive search over F_l (the field is small at the orders handled
here) with nullspace elimination, and the values are lifted to exact
cyclotomic integers through the discrete Fourier transform over powers
of a primitive root of F_l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cyclotomic import CyclotomicValue
from .errors import InternalPrimeSearchFailed
from .groups import FiniteGroup, SubgroupHandle, group_exponent, is_normal
from .structure import is_prime_power

PRIME_SEARCH_CAP = 10**6


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
    raise AssertionError("no primitive root found")  # pragma: no cover


def _sqrt_mod(a: int, l: int) -> int:
    """Tonelli-Shanks square root mod an odd prime (a must be a residue)."""
    a %= l
    if a == 0:
        return 0
    assert pow(a, (l - 1) // 2, l) == 1, "not a quadratic residue"
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
        R[r] = R[r] * pow(int(R[r, c]), -1, l) % l
        other = np.flatnonzero(R[:, c])
        other = other[other != r]
        R[other] = (R[other] - np.outer(R[other, c], R[r])) % l
        pivots.append(c)
        r += 1
    return R, pivots


def _nullspace_mod(M: np.ndarray, l: int) -> np.ndarray:
    """Columns spanning the nullspace of M mod l."""
    R, pivots = _rref_mod(M, l)
    cols = M.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-R[i, fc]) % l
    return basis


def _joint_eigenrows(mats: list[np.ndarray], l: int) -> list[np.ndarray]:
    """Common eigenvectors (as rows, k-vectors) of commuting matrices mod l."""
    k = mats[0].shape[0]
    spaces = [(_rref_mod(np.eye(k, dtype=np.int64), l))]
    for A in mats:
        if all(B.shape[0] == 1 for B, _ in spaces):
            break
        Mt = A.T % l
        refined = []
        for B, piv in spaces:
            d = B.shape[0]
            if d == 1:
                refined.append((B, piv))
                continue
            transformed = B @ Mt % l
            R = transformed[:, piv]  # coords in the rref basis
            found = 0
            for lam in range(l):
                shifted = (R - lam * np.eye(d, dtype=np.int64)) % l
                null_cols = _nullspace_mod(shifted.T, l)
                if null_cols.shape[1] == 0:
                    continue
                rows = null_cols.T @ B % l
                refined.append(_rref_mod(rows, l))
                found += null_cols.shape[1]
                if found == d:
                    break
            assert found == d, "class matrix failed to diagonalize"
        spaces = refined
    assert all(B.shape[0] == 1 for B, _ in spaces), "joint eigenbasis incomplete"
    return [B[0] for B, _ in spaces]


# ---------------------------------------------------------------------------
# character table


@dataclass
class CharacterTable:
    """Exact character table: degrees plus cyclotomic values per class."""

    group: FiniteGroup
    class_reps: np.ndarray
    class_sizes: np.ndarray
    inverse_class: np.ndarray
    degrees: list[int]
    values: list[list[CyclotomicValue]]
    modulus: int
    exponent: int

    @property
    def classes(self) -> list[tuple[int, int]]:
        return [(int(r), int(s)) for r, s in zip(self.class_reps, self.class_sizes)]

    @property
    def n_classes(self) -> int:
        return len(self.degrees)


def class_mult_coefficients(G: FiniteGroup) -> np.ndarray:
    """Structure constants a[i][j][k] of the class algebra (cached)."""
    if "class_consts" not in G._cache:
        class_of, classes = G.conjugacy_data()
        reps = np.array([int(c[0]) for c in classes], dtype=np.int32)
        G._cache["class_consts"] = _kernels.class_product_counts(
            G.mul, G.inv, class_of, reps
        )
    return G._cache["class_consts"]


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
    l = least_dixon_prime(order, e)

    consts = class_mult_coefficients(G) % l
    mats = [consts[i] for i in range(1, k)]
    rows = _joint_eigenrows(mats, l) if k > 1 else [np.array([1], dtype=np.int64)]

    # normalize w[0] = 1 so w_j = |C_j| chi(g_j) / chi(1) mod l
    norm_rows = []
    for w in rows:
        assert w[0] % l != 0, "eigenvector vanishes on the identity class"
        norm_rows.append(w * pow(int(w[0]), -1, l) % l)

    size_inv = np.array([pow(int(s), -1, l) for s in sizes], dtype=np.int64)
    chars_mod = []
    degrees = []
    for w in norm_rows:
        dot = int((w * w[inverse_class] % l * size_inv % l).sum() % l)
        chi1_sq = order * pow(dot, -1, l) % l
        root = _sqrt_mod(chi1_sq, l)
        chi1 = min(root, l - root)
        degrees.append(int(chi1))
        chars_mod.append(w * chi1 % l * size_inv % l)
    assert sum(d * d for d in degrees) == order, "degree sum check failed"

    # power map and Fourier lift to Z[zeta_e]
    elem_orders = G.element_orders()
    z = pow(_primitive_root(l), (l - 1) // e, l)
    values_by_class = []
    power_classes = []
    for j in range(k):
        o = int(elem_orders[reps[j]])
        pm = np.empty(o, dtype=np.int64)
        cur = 0
        for t in range(o):
            pm[t] = class_of[cur]
            cur = int(G.mul[cur, reps[j]])
        power_classes.append((o, pm))

    table_values: list[list[CyclotomicValue]] = []
    for chi_hat, chi1 in zip(chars_mod, degrees):
        row = []
        for j in range(k):
            o, pm = power_classes[j]
            zo = pow(z, e // o, l)
            zo_inv = pow(zo, -1, l)
            o_inv = pow(o, -1, l)
            coeffs = [0] * e
            total = 0
            for u in range(o):
                acc = 0
                zpow = 1
                step = pow(zo_inv, u, l)
                for t in range(o):
                    acc = (acc + int(chi_hat[pm[t]]) * zpow) % l
                    zpow = zpow * step % l
                mult = acc * o_inv % l
                total += mult
                coeffs[(u * (e // o)) % e] += mult
            assert total == chi1, "eigenvalue multiplicities do not sum to the degree"
            row.append(CyclotomicValue.from_coeffs(e, coeffs))
        table_values.append(row)

    order_key = sorted(
        range(k), key=lambda i: (degrees[i], [v.coeffs for v in table_values[i]])
    )
    table = CharacterTable(
        group=G,
        class_reps=reps,
        class_sizes=sizes,
        inverse_class=inverse_class,
        degrees=[degrees[i] for i in order_key],
        values=[table_values[i] for i in order_key],
        modulus=l,
        exponent=e,
    )
    G._cache["chartable"] = table
    return table


# ---------------------------------------------------------------------------
# table-level checks


def check_degree_column(table: CharacterTable) -> bool:
    return all(
        row[0].as_int() == d for row, d in zip(table.values, table.degrees)
    )


def _coefficients(table: CharacterTable) -> np.ndarray:
    """(k, k, e) array: the zeta-power coefficients of every table value."""
    return np.array([[v.coeffs for v in row] for row in table.values], dtype=np.int64)


def _folds_to(products: np.ndarray, e: int, want: list[int]) -> bool:
    """True iff each products[r], the coefficient of zeta^u zeta^v at [u, v],
    sums to the rational integer want[r]."""
    shift = (np.arange(e)[:, None] + np.arange(e)[None, :]) % e
    folded = np.zeros((products.shape[0], e), dtype=np.int64)
    for u in range(e):
        folded[:, shift[u]] += products[:, u, :]
    return all(
        CyclotomicValue.from_coeffs(e, f.tolist()).as_int() == w
        for f, w in zip(folded, want)
    )


def check_row_orthogonality(table: CharacterTable) -> bool:
    """Exact first orthogonality: sum_j |C_j| chi_i(g_j) chi_m(g_j^-1)."""
    k = table.n_classes
    V = _coefficients(table)
    X = V * table.class_sizes[None, :, None]
    Y = V[:, table.inverse_class, :]
    order = table.group.order
    return all(
        _folds_to(
            np.einsum("ju,mjv->muv", X[i], Y),
            table.exponent,
            [order if m == i else 0 for m in range(k)],
        )
        for i in range(k)
    )


def check_column_orthogonality(table: CharacterTable) -> bool:
    """Exact second orthogonality: sum_i chi_i(g_j) chi_i(g_k^-1)."""
    k = table.n_classes
    V = _coefficients(table)
    W = V[:, table.inverse_class, :]
    order = table.group.order
    return all(
        _folds_to(
            np.einsum("iu,ikv->kuv", V[:, j, :], W),
            table.exponent,
            [order // int(table.class_sizes[j]) if c == j else 0 for c in range(k)],
        )
        for j in range(k)
    )


def character_kernel_contains(
    table: CharacterTable, i: int, members: np.ndarray
) -> bool:
    """True iff every listed element lies in ker chi_i."""
    class_of, _ = table.group.conjugacy_data()
    deg = CyclotomicValue.from_int(table.exponent, table.degrees[i])
    for c in np.unique(class_of[np.asarray(members)]):
        if table.values[i][int(c)] != deg:
            return False
    return True


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
    for i in irr_over(G, Z, table):
        if table.degrees[i] ** 2 != index:
            return False, (i, -1)
        for j, rep in enumerate(table.class_reps):
            if int(rep) not in Z and not table.values[i][j].is_zero():
                return False, (i, int(rep))
    return True, None
