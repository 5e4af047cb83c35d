"""Canonical forms in Z[zeta_e], against a reference implementation of
the full ring arithmetic."""

import cmath
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camina.cyclotomic import (
    _sort_keys,
    cyclotomic_polynomial,
    format_values,
    reduction_matrix,
)

# ---------------------------------------------------------------------------
# reference: one frozen object per value, reduced mod Phi_e in pure Python


def _reduce_mod_cyclotomic(coeffs: list[int], e: int) -> tuple[int, ...]:
    """Remainder of the polynomial modulo Phi_e, padded to length e."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        q = rem[i]
        if q:
            for j in range(deg + 1):
                rem[i - deg + j] -= q * phi[j]
    rem = rem[:deg]
    return tuple(rem) + (0,) * (e - len(rem))


@dataclass(frozen=True)
class CyclotomicValue:
    """An element of Z[zeta_e] in canonical (reduced) coefficient form."""

    e: int
    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, e: int, coeffs) -> "CyclotomicValue":
        coeffs = list(coeffs)
        if len(coeffs) < e:
            coeffs += [0] * (e - len(coeffs))
        return cls(e, _reduce_mod_cyclotomic(coeffs, e))

    @classmethod
    def from_int(cls, e: int, value: int) -> "CyclotomicValue":
        return cls.from_coeffs(e, [value])

    @classmethod
    def root(cls, e: int, k: int) -> "CyclotomicValue":
        """zeta_e^k."""
        coeffs = [0] * e
        coeffs[k % e] = 1
        return cls.from_coeffs(e, coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_int(self) -> int | None:
        """The value as a rational integer, or None if it is not one."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __add__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        assert self.e == other.e
        return CyclotomicValue(
            self.e, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicValue":
        return CyclotomicValue(self.e, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        return self + (-other)

    def __mul__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        assert self.e == other.e
        e = self.e
        out = [0] * e
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % e] += a * b
        return CyclotomicValue.from_coeffs(e, out)

    def scaled(self, k: int) -> "CyclotomicValue":
        return CyclotomicValue(self.e, tuple(k * a for a in self.coeffs))

    def conjugate(self) -> "CyclotomicValue":
        """Complex conjugation, zeta -> zeta^-1."""
        e = self.e
        out = [0] * e
        for i, a in enumerate(self.coeffs):
            out[(-i) % e] += a
        return CyclotomicValue.from_coeffs(e, out)

    def galois(self, a: int) -> "CyclotomicValue":
        """The automorphism zeta -> zeta^a (a coprime to e)."""
        e = self.e
        out = [0] * e
        for i, c in enumerate(self.coeffs):
            out[(i * a) % e] += c
        return CyclotomicValue.from_coeffs(e, out)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                unit = f"z{i}" if i > 1 else "z"
                if c == 1:
                    parts.append(unit)
                elif c == -1:
                    parts.append(f"-{unit}")
                else:
                    parts.append(f"{c}*{unit}")
        return "+".join(parts).replace("+-", "-")


def _phi(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


# ---------------------------------------------------------------------------
# the package's canonical form against the reference


@pytest.mark.parametrize("e", [1, 2, 3, 4, 6, 8, 9, 12, 16, 25, 27, 30, 64, 128])
def test_reduction_matrix_rows_are_canonical_roots(e):
    R = reduction_matrix(e)
    assert R.shape == (e, _phi(e)) and R.dtype == np.int64
    for u in range(e):
        assert R[u].tolist() == list(CyclotomicValue.root(e, u).coeffs[: _phi(e)])
    assert not R.flags.writeable


@settings(deadline=None, max_examples=60)
@given(
    e=st.sampled_from([2, 3, 4, 8, 9, 12]),
    raw=st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -7]), min_size=12, max_size=12),
)
def test_format_value_matches_reference_text(e, raw):
    c = raw[: _phi(e)]
    want = str(CyclotomicValue.from_coeffs(e, c))
    assert format_values(np.array([[c, [0] * len(c)]])) == [want, "0"]


def test_format_value_of_zero_and_units():
    V = np.array([[0, 0, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 3]])
    assert format_values(V) == ["0", "-1+z2", "-z+3*z3"]


def test_format_values_writes_repeated_vectors_one_by_one():
    """A repeated vector gets its own text at every position, and two
    distinct vectors with equal sort keys get different texts."""
    w = _sort_keys(np.eye(2, dtype=np.int64)).view(np.int64)  # the weights
    x, y = [w[1], 0], [0, w[0]]  # keys w1 w0 and w0 w1 (mod 2^64)
    keys = _sort_keys(np.array([x, y]))
    assert keys[0] == keys[1]
    V = np.array([[x, [1, 0], y], [[0, -1], x, y], [y, [1, 0], x]])
    want = [format_values(v[None])[0] for v in V.reshape(-1, 2)]
    assert want[:3] == [str(w[1]), "1", f"{w[0]}*z"]
    assert format_values(V) == want


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_powers():
    z = CyclotomicValue.root(4, 1)
    assert (z * z).as_int() == -1
    assert (z * z * z * z).as_int() == 1
    w = CyclotomicValue.root(6, 1)
    assert (w * w * w).as_int() == -1


def test_root_sums_vanish():
    for e in (2, 3, 4, 5, 6, 8, 12):
        total = CyclotomicValue.from_int(e, 0)
        for k in range(e):
            total = total + CyclotomicValue.root(e, k)
        assert total.is_zero()


def test_conjugation():
    for e in (3, 4, 5, 8):
        z = CyclotomicValue.root(e, 1)
        assert (z * z.conjugate()).as_int() == 1
        assert z.conjugate().conjugate() == z


def test_galois_action():
    z = CyclotomicValue.root(5, 1)
    assert z.galois(2) == CyclotomicValue.root(5, 2)
    assert z.galois(2).galois(3) == z.galois(6 % 5)


small_vals = st.lists(st.integers(min_value=-4, max_value=4), min_size=8, max_size=8)


@settings(deadline=None, max_examples=60)
@given(a=small_vals, b=small_vals, c=small_vals)
def test_ring_axioms_e8(a, b, c):
    e = 8
    A = CyclotomicValue.from_coeffs(e, a)
    B = CyclotomicValue.from_coeffs(e, b)
    C = CyclotomicValue.from_coeffs(e, c)
    assert (A + B) + C == A + (B + C)
    assert A + B == B + A
    assert A * B == B * A
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    assert (A - A).is_zero()
    assert A.scaled(3) == A + A + A


@settings(deadline=None, max_examples=40)
@given(a=small_vals, b=small_vals)
def test_matches_complex_arithmetic(a, b):
    """Secondary numeric oracle: evaluate at the complex root of unity."""
    e = 8
    z = cmath.exp(2j * cmath.pi / e)

    def ev(v):
        return sum(c * z**k for k, c in enumerate(v.coeffs))

    A = CyclotomicValue.from_coeffs(e, a)
    B = CyclotomicValue.from_coeffs(e, b)
    assert abs(ev(A * B) - ev(A) * ev(B)) < 1e-6
    assert abs(ev(A + B) - (ev(A) + ev(B))) < 1e-9
    assert abs(ev(A.conjugate()) - ev(A).conjugate()) < 1e-9


def test_is_zero_is_exact():
    # 1 + z + z^2 with z a primitive cube root: exactly zero
    e = 3
    v = (
        CyclotomicValue.from_int(e, 1)
        + CyclotomicValue.root(e, 1)
        + CyclotomicValue.root(e, 2)
    )
    assert v.is_zero()
    w = v + CyclotomicValue.from_int(e, 1)
    assert not w.is_zero()
    assert w.as_int() == 1
