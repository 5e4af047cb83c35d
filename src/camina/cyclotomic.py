"""Canonical forms in Z[zeta_e], the e-th cyclotomic integers.

A value is an integer coefficient vector of length phi(e) against the
power basis 1, zeta, ..., zeta^(phi(e)-1): the remainder of a polynomial
in zeta modulo the e-th cyclotomic polynomial Phi_e.  Canonical forms are
unique, so zero testing and equality compare integer arrays; no floating
point is involved anywhere.  reduction_matrix(e) takes coefficient
vectors of length e to canonical form in one matrix product, and
format_values writes canonical forms as text.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvariantViolation


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic, coeffs low->high)."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        q = num[i]
        out[i - dn] = q
        if q:
            for j, c in enumerate(den):
                num[i - dn + j] -= q * c
    if any(num):
        raise InvariantViolation("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the e-th cyclotomic polynomial.

    Computed by dividing x^e - 1 by the cyclotomic polynomials of the
    proper divisors of e; exact integer arithmetic throughout.
    """
    if e == 1:
        return (-1, 1)
    num = [-1] + [0] * (e - 1) + [1]
    for d in _divisors(e)[:-1]:
        num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def reduction_matrix(e: int) -> np.ndarray:
    """(e, phi(e)) read-only int64 array whose row u is the canonical form
    of zeta_e^u.

    Row u is x times row u - 1, minus its top coefficient times Phi_e
    (which is monic), so a polynomial with coefficient vector c of length
    e has canonical form c @ reduction_matrix(e).
    """
    phi = np.array(cyclotomic_polynomial(e), dtype=np.int64)
    R = np.zeros((e, phi.size - 1), dtype=np.int64)
    R[0, 0] = 1
    for u in range(1, e):
        R[u, 1:] = R[u - 1, :-1]
        R[u] -= R[u - 1, -1] * phi[:-1]
    R.setflags(write=False)
    return R


def _format_terms(powers: list[int], coeffs: list[int]) -> str:
    """sum_i coeffs[i] z^powers[i] as text, for nonzero coefficients."""
    parts = []
    for i, c in zip(powers, coeffs):
        if i == 0:
            parts.append(str(c))
            continue
        unit = f"z{i}" if i > 1 else "z"
        if c == 1:
            parts.append(unit)
        elif c == -1:
            parts.append(f"-{unit}")
        else:
            parts.append(f"{c}*{unit}")
    return "+".join(parts).replace("+-", "-") or "0"


def _sort_keys(flat: np.ndarray) -> np.ndarray:
    """One weighted sum (mod 2^64) of the coefficients of each row of the
    int64 array flat, with fixed pseudo-random weights: equal rows get equal
    keys, and distinct rows almost never do."""
    weights = np.random.default_rng(0).integers(
        0, 2**64, size=flat.shape[1], dtype=np.uint64
    )
    return flat.view(np.uint64) @ weights


def format_values(V: np.ndarray) -> list[str]:
    """The text of every canonical coefficient vector along the last axis
    of V, in C order, e.g. "1-z2+3*z5" or "0".

    Table values repeat heavily, so each run of equal vectors is written
    once.  Sorting by `_sort_keys` brings equal vectors together, and
    neighbours are then compared exactly, so two vectors share a text only
    if they are equal; distinct vectors with equal keys merely cost an
    extra text.  One np.nonzero pass reads the terms of the runs, and the
    texts are gathered back.
    """
    flat = V.reshape(-1, V.shape[-1])
    order = np.argsort(_sort_keys(flat))
    ranked = flat[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    runs = ranked[starts]
    which, powers = np.nonzero(runs)
    coeffs = runs[which, powers].tolist()
    powers = powers.tolist()
    ends = np.searchsorted(which, np.arange(runs.shape[0] + 1)).tolist()
    texts = np.array(
        [_format_terms(powers[a:b], coeffs[a:b]) for a, b in zip(ends, ends[1:])],
        dtype=object,
    )
    run_of = np.empty(order.size, dtype=np.intp)
    run_of[order] = np.cumsum(starts) - 1
    return texts[run_of].tolist()
