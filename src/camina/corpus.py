"""Group corpora on disk and the built-in family constructors.

Corpus text format (line based, '#' comments and blank lines ignored):

    group <order> <index> <name>
    degree <d>
    gen <d space-separated 1-based images>
    ...
    end

Families cover the recurring constructions: cyclic, dihedral,
(generalized) quaternion, elementary abelian, the two extraspecial types
for odd p, the Sylow p-subgroup of SL3 over GF(p^k) (upper unitriangular
matrices), and its product with C_p.  Each is declared once, in `FAMILIES`.
Dihedral, quaternion and the extraspecial group of order p^3 and
exponent p^2 are cyclic extensions of C_k; the SL3 Sylow subgroups,
their products with C_p and the other extraspecial groups are central
extensions of a vector space by a bilinear cocycle (`camina.groups`
holds both formulas, each writing its int16 table in place).  The
cyclic table is cut from one doubled row, and (Z/p)^k is the direct
product of the groups of its high and low halves of digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ClosureExceedsCap,
    CorpusSyntaxError,
    DuplicateId,
    InvalidPermutation,
    InvariantViolation,
    OrderMismatch,
    UnsupportedParameters,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    MAX_ORDER_CAP,
    TABLE_DTYPE,
    FiniteGroup,
    Permutation,
    central_extension,
    check_cap,
    cyclic_extension,
    direct_product,
    greedy_generators,
    group_from_generators,
)
from .structure import is_prime_power


# ---------------------------------------------------------------------------
# corpus text format


@dataclass
class CorpusEntry:
    order: int
    index: int
    name: str
    degree: int
    generators: list[Permutation]

    @property
    def gid(self) -> str:
        return f"{self.order}:{self.index}"

    def build(self, order_cap: int = MAX_ORDER_CAP) -> FiniteGroup:
        """Close the generators; raises OrderMismatch on a wrong closure."""
        check_cap(order_cap)
        if self.order > order_cap:
            raise ClosureExceedsCap(
                f"{self.gid}: declared order {self.order} exceeds cap {order_cap}"
            )
        try:
            G = group_from_generators(
                self.degree, self.generators, max_order=self.order, name=self.gid
            )
        except ClosureExceedsCap:
            raise OrderMismatch(
                f"{self.gid}: closure exceeds the declared order {self.order}"
            ) from None
        if G.order != self.order:
            raise OrderMismatch(
                f"{self.gid}: generators close to order {G.order}, "
                f"declared {self.order}"
            )
        return G


def parse_corpus(
    text: str, validate: bool = True, order_cap: int = DEFAULT_ORDER_CAP
) -> list[CorpusEntry]:
    """Parse corpus text into entries; closures are validated by default.

    A degree above the order cap is rejected before anything is allocated,
    and so, when closures are validated, is a declared order above it; a
    cap above MAX_ORDER_CAP is rejected before the text is read.
    """
    check_cap(order_cap)
    entries: list[CorpusEntry] = []
    seen: set[tuple[int, int]] = set()
    entry: CorpusEntry | None = None  # the open block; degree 0 until read
    start = 0  # the line of its 'group' keyword

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kw = fields[0]
        if kw == "group":
            if entry is not None:
                raise CorpusSyntaxError(lineno, "previous entry not closed by 'end'")
            if len(fields) < 4:
                raise CorpusSyntaxError(lineno, "expected: group <order> <index> <name>")
            try:
                order, index = int(fields[1]), int(fields[2])
            except ValueError:
                raise CorpusSyntaxError(lineno, "order and index must be integers")
            if order < 1:
                raise CorpusSyntaxError(lineno, "order must be positive")
            entry = CorpusEntry(order, index, " ".join(fields[3:]), 0, [])
            start = lineno
        elif kw == "degree":
            if entry is None:
                raise CorpusSyntaxError(lineno, "'degree' outside a group block")
            if entry.degree:
                raise CorpusSyntaxError(lineno, "duplicate 'degree' line")
            try:
                degree = int(fields[1])
            except (IndexError, ValueError):
                raise CorpusSyntaxError(lineno, "expected: degree <d>")
            if degree < 1:
                raise CorpusSyntaxError(lineno, "degree must be positive")
            if degree > order_cap:
                raise CorpusSyntaxError(
                    lineno, f"degree {degree} exceeds the order cap {order_cap}"
                )
            entry.degree = degree
        elif kw == "gen":
            if entry is None or not entry.degree:
                raise CorpusSyntaxError(lineno, "'gen' before 'degree'")
            try:
                images = [int(v) for v in fields[1:]]
            except ValueError:
                raise CorpusSyntaxError(lineno, "generator images must be integers")
            if len(images) != entry.degree:
                raise CorpusSyntaxError(
                    lineno, f"expected {entry.degree} images, got {len(images)}"
                )
            try:
                entry.generators.append(Permutation(images))
            except InvalidPermutation as exc:
                raise CorpusSyntaxError(lineno, str(exc)) from None
        elif kw == "end":
            if entry is None:
                raise CorpusSyntaxError(lineno, "'end' outside a group block")
            if not entry.degree:
                raise CorpusSyntaxError(lineno, "entry has no 'degree' line")
            key = (entry.order, entry.index)
            if key in seen:
                raise DuplicateId(f"duplicate group id {key[0]}:{key[1]}")
            seen.add(key)
            entries.append(entry)
            entry = None
        else:
            raise CorpusSyntaxError(lineno, f"unknown keyword {kw!r}")

    if entry is not None:
        raise CorpusSyntaxError(start, "unterminated group block")
    if validate:
        for entry in entries:
            entry.build(order_cap)
    return entries


def serialize_corpus(entries: list[CorpusEntry]) -> str:
    lines = []
    for e in entries:
        lines.append(f"group {e.order} {e.index} {e.name}")
        lines.append(f"degree {e.degree}")
        for g in e.generators:
            lines.append("gen " + " ".join(map(str, g.images.tolist())))
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


def group_to_entry(G: FiniteGroup, order: int, index: int, name: str) -> CorpusEntry:
    """Serialize a group via its regular permutation representation.

    The generators are right multiplication by each element of
    `greedy_generators`, as 1-based permutations of the elements; the
    rebuilt table is the same group with a possibly different element order.
    """
    images = G.mul[:, greedy_generators(G)].T + 1
    gens = [Permutation(row) for row in images]
    return CorpusEntry(
        order=order, index=index, name=name, degree=G.order, generators=gens
    )


# ---------------------------------------------------------------------------
# finite fields GF(p^k) for the unitriangular family


def gf_tables(p: int, k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(q, add, mul) index tables for GF(p^k) = F_p[x]/(f), elements as
    base-p codes of their coefficients, lowest digit the constant term.

    f is the first monic x^k + m(x), m taken in code order, whose table has
    no zero divisors: F_p[x]/(f) is a field exactly when f is irreducible.
    """
    q = p**k
    digits = np.arange(q)[:, None] // p ** np.arange(k) % p  # digits[b, i]
    for m in digits:
        # xb[i] holds the digits of x^i b for every b: shift up one place,
        # then replace the carried-out x^k by -m(x)
        xb = [digits]
        for _ in range(k - 1):
            top = xb[-1][:, -1:]
            shifted = np.pad(xb[-1][:, :-1], ((0, 0), (1, 0)))
            xb.append((shifted - top * m) % p)
        # a b = sum_i a_i (x^i b)
        mul = np.tensordot(digits, np.stack(xb), axes=1) % p @ p ** np.arange(k)
        if mul[1:, 1:].all():
            return q, _digit_sum_table(p, k), mul
    raise InvariantViolation(f"no irreducible polynomial of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class FamilySpec:
    """A built-in family instance by its command-line name, e.g.
    FamilySpec("dihedral", (8,)) or FamilySpec("T", (3, 1))."""

    family: str
    params: tuple[int, ...]


def _cyclic(n: int) -> FiniteGroup:
    """Row i is 0..n-1 rotated left by i: n windows of one doubled copy."""
    idx = np.arange(n, dtype=TABLE_DTYPE)
    table = sliding_window_view(np.concatenate([idx, idx]), n)[:n].copy()
    return FiniteGroup(table, -idx % n, name=f"C{n}")


def _extend_cyclic(k: int, s: int, h0: int, m: int, name: str) -> FiniteGroup:
    """C_k extended by t with t^m = h0 and t h t^-1 = h^s."""
    table = cyclic_extension(_cyclic(k).mul, s * np.arange(k) % k, h0, m)
    return FiniteGroup(table, name=name)


def _elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(Z/p)^k on the base-p codes of its elements, added digit by digit.

    It is the direct product of the groups of the high k - k//2 digits
    and of the low k//2 digits, each built the same way: the element
    (a, b) has index a p^(k//2) + b, so b's code is exactly the low k//2
    digits and the sum of two elements goes digit by digit in both
    factors.  Halving keeps the innermost broadcast axis of each product
    long, where the k-fold product with C_p would make it p.
    """
    G = _cyclic(p) if k == 1 else direct_product(
        _elementary_abelian(p, k - k // 2), _elementary_abelian(p, k // 2)
    )
    return FiniteGroup(G.mul, G.inv, name=f"E{p}^{k}")


def _digit_sum_table(p: int, k: int) -> np.ndarray:
    """Digitwise sums mod p of base-p codes: the table of (Z/p)^k and of
    the addition in GF(p^k), from `_elementary_abelian`."""
    return _elementary_abelian(p, k).mul


def _bilinear_cocycle(form, p: int) -> np.ndarray:
    """cocycle[v, v'] = v^T form v' mod p on F_p^n, each vector coded in
    base p with its first coordinate as the most significant digit."""
    n = len(form)
    digits = np.arange(p**n)[:, None] // p ** np.arange(n - 1, -1, -1) % p
    return digits @ np.asarray(form, dtype=np.int64) @ digits.T % p


def bilinear(p: int, form, name: str = "") -> FiniteGroup:
    """The central extension of F_p^n by F_p with cocycle v^T form v' mod
    p, where form is an n x n matrix over F_p and (v, w) has index
    v p + w, v coded as in `_bilinear_cocycle`."""
    table = central_extension(
        _digit_sum_table(p, len(form)), _cyclic(p).mul, _bilinear_cocycle(form, p)
    )
    return FiniteGroup(table, name=name)


def _heisenberg(p: int, k: int, cyclic_factor: bool = False) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over GF(p^k), order p^(3k): the
    central extension of GF(q)^2 by GF(q) with cocycle a b', where (a, b)
    has index a q + b.  With the cyclic factor, see
    `_heisenberg_times_cyclic`."""
    q, fadd, fmul = gf_tables(p, k)
    a, b = np.divmod(np.arange(q * q), q)
    cocycle = fmul[a[:, None], b]
    name = f"H({p}^{k})"
    if cyclic_factor:  # W = GF(q) x C_p, cocycle (a b', 0)
        fadd, cocycle, name = _digit_sum_table(p, k + 1), cocycle * p, f"{name}xC{p}"
    table = central_extension(_digit_sum_table(p, 2 * k), fadd, cocycle)
    return FiniteGroup(table, name=name)


def _extraspecial(p: int, blocks: int, exponent_p2: bool) -> FiniteGroup:
    """Order p^(2 blocks + 1): the central extension of F_p^(2 blocks),
    digits (u_1, w_1, ..., u_b, w_b), by F_p with cocycle sum u_i w'_i.

    With exponent p^2 the first block is M(p^3) = <a, b | a^(p^2), b^p,
    b a b^-1 = a^(1+p)>, with u_1 = b and w_1 the low digit of a, so the
    cocycle gains the carry (w_1 + w'_1) div p.  One block of that type is
    the cyclic extension of C_(p^2) itself.
    """
    form = np.kron(np.eye(blocks, dtype=np.int64), [[0, 1], [0, 0]])  # sum u_i w'_i
    if not exponent_p2:
        return bilinear(p, form, name=f"ESp({p},{blocks})")
    name = f"ESp2({p},{blocks})"
    if blocks == 1:
        return _extend_cyclic(p * p, 1 + p, 0, p, name)
    n = 2 * blocks
    w1 = np.arange(p**n) // p ** (n - 2) % p
    cocycle = (_bilinear_cocycle(form, p) + (w1[:, None] + w1) // p) % p
    table = central_extension(_digit_sum_table(p, n), _cyclic(p).mul, cocycle)
    return FiniteGroup(table, name=name)


def _heisenberg_times_cyclic(p: int, k: int) -> FiniteGroup:
    """T = H(p^k) x C_p, built as one central extension of GF(q)^2 by W =
    GF(q) x C_p with cocycle (a b', 0).

    W's element (w, c) has index w p + c, so W's table is the digit sums
    of k + 1 digits and (a b', 0) is fmul[a, b'] p.  With h = v q + w the
    element (h, c) of H x C_p has index (v q + w) p + c = v (q p) + (w p
    + c), which is the index of (v, (w, c)) in the extension, and the
    products agree factor by factor; so the table is `direct_product(H,
    C_p)` entry for entry, without a product whose inner factor has only
    p elements.
    """
    return _heisenberg(p, k, cyclic_factor=True)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UnsupportedParameters(message)


def _check_prime_and_exponent(p: int, k: int) -> None:
    _require(is_prime_power(p) == (p, 1), f"{p} is not prime")
    _require(k >= 1, f"the second parameter must be at least 1, got {k}")


def _check_extraspecial(p: int, blocks: int) -> None:
    _check_prime_and_exponent(p, blocks)
    _require(
        p != 2,
        "extraspecial families here require odd p; use dihedral:8 or "
        "quaternion:8 for the order-8 cases",
    )


@dataclass(frozen=True)
class Family:
    """A built-in family: parameters, order and builder.

    `syntax` names the parameters, e.g. "p[,k]"; bracketed trailing ones
    default to 1.  `check` raises UnsupportedParameters outside the
    family's domain; `check`, `order` and `build` take all parameters.
    """

    syntax: str
    doc: str
    check: Callable[..., None]
    order: Callable[..., int]
    build: Callable[..., FiniteGroup]


# fmt: off
FAMILIES = {
    "cyclic": Family(
        "N", "cyclic group of order N",
        lambda n: _require(n >= 1, "cyclic order must be positive"),
        lambda n: n, _cyclic),
    "dihedral": Family(
        "N", "dihedral group of order N",
        lambda n: _require(n >= 4 and n % 2 == 0,
                           "dihedral order must be an even number >= 4"),
        lambda n: n, lambda n: _extend_cyclic(n // 2, -1, 0, 2, f"D{n}")),
    "quaternion": Family(
        "N", "generalized quaternion group of order N",
        lambda n: _require(n >= 8 and n % 4 == 0, "generalized quaternion "
                           "order must be a multiple of 4, at least 8"),
        lambda n: n, lambda n: _extend_cyclic(n // 2, -1, n // 4, 2, f"Q{n}")),
    "elemab": Family(
        "p,k", "elementary abelian group of order p^k",
        _check_prime_and_exponent, lambda p, k: p**k,
        _elementary_abelian),
    "extraspecial_p": Family(
        "p[,blocks]", "extraspecial, order p^(2 blocks+1), exponent p",
        _check_extraspecial, lambda p, b: p ** (2 * b + 1),
        lambda p, b: _extraspecial(p, b, exponent_p2=False)),
    "extraspecial_p2": Family(
        "p[,blocks]", "the same with exponent p^2",
        _check_extraspecial, lambda p, b: p ** (2 * b + 1),
        lambda p, b: _extraspecial(p, b, exponent_p2=True)),
    "heisenberg": Family(
        "p[,k]", "Sylow p-subgroup of SL3(p^k), of order p^(3k)",
        _check_prime_and_exponent, lambda p, k: p ** (3 * k), _heisenberg),
    "T": Family(
        "p[,k]", "the witness product heisenberg(p,k) x C_p",
        _check_prime_and_exponent, lambda p, k: p ** (3 * k + 1),
        _heisenberg_times_cyclic),
}
# fmt: on


def _resolve(spec: FamilySpec) -> tuple[Family, tuple[int, ...]]:
    """The registry entry of a spec and its parameters, defaults filled in."""
    fam = FAMILIES.get(spec.family)
    if fam is None:
        raise UnsupportedParameters(f"unknown family {spec.family!r}")
    arity = fam.syntax.count(",") + 1
    given = len(spec.params)
    if not arity - fam.syntax.count("[") <= given <= arity:
        raise UnsupportedParameters(
            f"{spec.family} takes parameters {fam.syntax}, got {given}"
        )
    return fam, spec.params + (1,) * (arity - given)


def build_family(spec: FamilySpec, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Construct a family instance; deterministic element order.

    Arity, parameter ranges, primality and the order cap, itself at most
    MAX_ORDER_CAP, are all checked before any table is allocated.
    """
    check_cap(order_cap)
    fam, params = _resolve(spec)
    # No parameter exceeds the order of its group.  Checked first, this
    # bounds the cost of the primality test and of computing the order.
    if max(params) > order_cap:
        raise ClosureExceedsCap(
            f"{spec.family} parameter {max(params)} exceeds the order cap {order_cap}"
        )
    fam.check(*params)
    order = fam.order(*params)
    if order > order_cap:
        raise ClosureExceedsCap(f"family order {order} exceeds cap {order_cap}")
    return fam.build(*params)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse CLI syntax like 'quaternion:8', 'heisenberg:3,2' or 'T:3,1'."""
    family, _, rest = text.partition(":")
    if not rest:
        raise UnsupportedParameters(f"family spec {text!r} needs parameters")
    try:
        params = tuple(int(v) for v in rest.split(","))
    except ValueError:
        raise UnsupportedParameters(f"bad family parameters in {text!r}")
    if family not in FAMILIES:
        raise UnsupportedParameters(f"unknown family {family!r}")
    return FamilySpec(family, params)


def default_family_instances(max_order: int) -> list[tuple[str, FamilySpec]]:
    """The deterministic family instances used by search and the harness."""
    gids = [f"cyclic:{n}" for n in (2, 3, 4, 5, 6, 8, 9, 16, 27, 32)]
    gids += [f"{f}:{n}" for n in (8, 16, 32, 64) for f in ("dihedral", "quaternion")]
    gids += [
        f"elemab:{p},{k}" for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2))
    ]
    gids += [
        f"{f}:{p},{blocks}"
        for p, blocks in ((3, 1), (5, 1), (7, 1), (3, 2))
        for f in ("extraspecial_p", "extraspecial_p2")
    ]
    gids += [f"heisenberg:{p},1" for p in (2, 3, 5, 7)]
    gids += [f"T:{p},1" for p in (3, 5)]
    out = []
    for gid in gids:
        spec = parse_family_spec(gid)
        fam, params = _resolve(spec)
        if fam.order(*params) <= max_order:
            out.append((gid, spec))
    return out
