"""Exact arithmetic in Z[zeta_e], the e-th cyclotomic integers.

Values are integer coefficient vectors of length e against the power basis
1, zeta, ..., zeta^(e-1), kept in the canonical form obtained by reducing
modulo the e-th cyclotomic polynomial.  Canonical forms are unique, so
zero testing and equality are exact; no floating point is involved
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def _same_e(a: "CyclotomicValue", b: "CyclotomicValue") -> None:
    if a.e != b.e:
        raise InvariantViolation(f"mixed cyclotomic fields: e = {a.e} and e = {b.e}")


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
        _same_e(self, other)
        return CyclotomicValue(
            self.e, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicValue":
        return CyclotomicValue(self.e, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        return self + (-other)

    def __mul__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        _same_e(self, other)
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
