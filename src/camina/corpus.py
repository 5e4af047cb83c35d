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
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

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
    FiniteGroup,
    Permutation,
    center,
    centralizer,
    derived_subgroup,
    direct_product,
    from_table_unchecked,
    greedy_generators,
    group_exponent,
    group_from_generators,
    quotient,
    subgroup_generate,
)
from .structure import is_prime_power, nilpotency_class


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

    def build(self, order_cap: int | None = None) -> FiniteGroup:
        """Close the generators; raises OrderMismatch on a wrong closure."""
        if order_cap is not None and self.order > order_cap:
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
    and so, when closures are validated, is a declared order above it.
    """
    entries: list[CorpusEntry] = []
    seen: set[tuple[int, int]] = set()
    cur: dict | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kw = fields[0]
        if kw == "group":
            if cur is not None:
                raise CorpusSyntaxError(lineno, "previous entry not closed by 'end'")
            if len(fields) < 4:
                raise CorpusSyntaxError(lineno, "expected: group <order> <index> <name>")
            try:
                order, index = int(fields[1]), int(fields[2])
            except ValueError:
                raise CorpusSyntaxError(lineno, "order and index must be integers")
            if order < 1:
                raise CorpusSyntaxError(lineno, "order must be positive")
            cur = {
                "order": order,
                "index": index,
                "name": " ".join(fields[3:]),
                "degree": None,
                "gens": [],
                "line": lineno,
            }
        elif kw == "degree":
            if cur is None:
                raise CorpusSyntaxError(lineno, "'degree' outside a group block")
            if cur["degree"] is not None:
                raise CorpusSyntaxError(lineno, "duplicate 'degree' line")
            try:
                cur["degree"] = int(fields[1])
            except (IndexError, ValueError):
                raise CorpusSyntaxError(lineno, "expected: degree <d>")
            if cur["degree"] < 1:
                raise CorpusSyntaxError(lineno, "degree must be positive")
            if cur["degree"] > order_cap:
                raise CorpusSyntaxError(
                    lineno, f"degree {cur['degree']} exceeds the order cap {order_cap}"
                )
        elif kw == "gen":
            if cur is None or cur["degree"] is None:
                raise CorpusSyntaxError(lineno, "'gen' before 'degree'")
            try:
                images = tuple(int(v) for v in fields[1:])
            except ValueError:
                raise CorpusSyntaxError(lineno, "generator images must be integers")
            if len(images) != cur["degree"]:
                raise CorpusSyntaxError(
                    lineno,
                    f"expected {cur['degree']} images, got {len(images)}",
                )
            try:
                cur["gens"].append(Permutation(images))
            except InvalidPermutation as exc:
                raise CorpusSyntaxError(lineno, str(exc)) from None
        elif kw == "end":
            if cur is None:
                raise CorpusSyntaxError(lineno, "'end' outside a group block")
            if cur["degree"] is None:
                raise CorpusSyntaxError(lineno, "entry has no 'degree' line")
            key = (cur["order"], cur["index"])
            if key in seen:
                raise DuplicateId(f"duplicate group id {key[0]}:{key[1]}")
            seen.add(key)
            entries.append(
                CorpusEntry(
                    order=cur["order"],
                    index=cur["index"],
                    name=cur["name"],
                    degree=cur["degree"],
                    generators=cur["gens"],
                )
            )
            cur = None
        else:
            raise CorpusSyntaxError(lineno, f"unknown keyword {kw!r}")

    if cur is not None:
        raise CorpusSyntaxError(cur["line"], "unterminated group block")
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
            lines.append("gen " + " ".join(str(v) for v in g.images))
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


def regular_permutation(G: FiniteGroup, g: int) -> Permutation:
    """Right-multiplication by g as a permutation of the elements."""
    return Permutation(tuple(int(v) + 1 for v in G.mul[:, g]))


def group_to_entry(
    G: FiniteGroup, order: int, index: int, name: str, minimal: bool = False
) -> CorpusEntry:
    """Serialize a group via its regular permutation representation.

    With minimal=False the generator list is every non-identity element, so
    re-parsing rebuilds the identical Cayley table (breadth-first discovery
    then matches the original element order).  With minimal=True a greedy
    generating set is used instead; the rebuilt table is the same group
    with a possibly different element order.
    """
    if minimal:
        gen_ids = greedy_generators(G)
    else:
        gen_ids = list(range(1, G.order))
    gens = [regular_permutation(G, g) for g in gen_ids]
    return CorpusEntry(
        order=order, index=index, name=name, degree=G.order, generators=gens
    )


# ---------------------------------------------------------------------------
# finite fields GF(p^k) for the unitriangular family


def _digits(code: int, p: int, k: int) -> list[int]:
    """The k base-p digits of code, lowest first."""
    out = []
    for _ in range(k):
        code, digit = divmod(code, p)
        out.append(digit)
    return out


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division of a monic poly (low-to-high coeffs) over F_p."""
    k = len(poly) - 1
    if k == 1:
        return True

    def poly_mod(num, den):
        num = list(num)
        dn = len(den) - 1
        inv_lead = pow(den[-1], -1, p)
        for i in range(len(num) - 1, dn - 1, -1):
            q = num[i] * inv_lead % p
            if q:
                for j in range(dn + 1):
                    num[i - dn + j] = (num[i - dn + j] - q * den[j]) % p
        return num[:dn]

    # enumerate monic divisors of degree 1..k//2
    for d in range(1, k // 2 + 1):
        for code in range(p**d):
            den = _digits(code, p, d) + [1]
            if all(v == 0 for v in poly_mod(poly, den)):
                return False
    return True


def gf_tables(p: int, k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(q, add, mul) index tables for GF(p^k), elements as base-p digit codes."""
    q = p**k
    for code in range(q):
        modulus = _digits(code, p, k) + [1]
        if _is_irreducible(modulus, p):
            break
    else:
        raise InvariantViolation(f"no irreducible polynomial of degree {k} over F_{p}")

    def encode(coeffs):
        v = 0
        for c in reversed(coeffs):
            v = v * p + c
        return v

    mul = np.empty((q, q), dtype=np.int64)
    elems = [_digits(i, p, k) for i in range(q)]
    for i in range(q):
        for j in range(q):
            prod = [0] * (2 * k - 1)
            for a, ca in enumerate(elems[i]):
                if ca:
                    for b, cb in enumerate(elems[j]):
                        prod[a + b] = (prod[a + b] + ca * cb) % p
            for d in range(2 * k - 2, k - 1, -1):
                c = prod[d]
                if c:
                    prod[d] = 0
                    for t in range(k):
                        prod[d - k + t] = (prod[d - k + t] - c * modulus[t]) % p
            mul[i, j] = encode(prod[:k])
    return q, _digit_sum_table(p, k), mul


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class FamilySpec:
    """A built-in family instance, e.g. FamilySpec("dihedral", (8,))."""

    family: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.family}:{','.join(map(str, self.params))}"


def _cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int64)
    return from_table_unchecked((idx[:, None] + idx[None, :]) % n, name=f"C{n}")


def _metacyclic(k: int, s: int, name: str = "") -> FiniteGroup:
    """<a, b | a^k = b^2 = 1, b a b^-1 = a^s> as an explicit table."""
    i = np.arange(2 * k)
    rot, flip = i % k, i // k
    r1, f1 = rot[:, None], flip[:, None]
    r2, f2 = rot[None, :], flip[None, :]
    twist = np.where(f1 == 1, s, 1)
    table = (r1 + twist * r2) % k + k * ((f1 + f2) % 2)
    return from_table_unchecked(table, name=name)


def _quaternion(order: int) -> FiniteGroup:
    t = order // 4
    i = np.arange(order)
    a, b = i % (2 * t), i // (2 * t)
    a1, b1, a2, b2 = a[:, None], b[:, None], a[None, :], b[None, :]
    sign = np.where(b1 == 1, -1, 1)
    twist = np.where((b1 == 1) & (b2 == 1), t, 0)
    table = (a1 + sign * a2 + twist) % (2 * t) + 2 * t * ((b1 + b2) % 2)
    return from_table_unchecked(table, name=f"Q{order}")


def _digit_sum_table(p: int, k: int) -> np.ndarray:
    """Digitwise sums mod p of base-p codes: the table of (Z/p)^k and of
    the addition in GF(p^k)."""
    q = p**k
    table = np.zeros((q, q), dtype=np.int64)
    v = np.arange(q)
    place = 1
    for _ in range(k):  # one q x q digit plane at a time
        digit = v % p
        plane = np.add.outer(digit, digit)
        plane %= p
        plane *= place
        table += plane
        v //= p
        place *= p
    return table


def _heisenberg(p: int, k: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over GF(p^k), order p^(3k)."""
    q, fadd, fmul = gf_tables(p, k)
    n = q**3
    i = np.arange(n)
    a, rest = i // (q * q), i % (q * q)
    b, c = rest // q, rest % q
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    a2, b2, c2 = a[None, :], b[None, :], c[None, :]
    ca = fadd[a1, a2]
    cb = fadd[b1, b2]
    cc = fadd[fadd[c1, c2], fmul[a1, b2]]
    table = (ca * q + cb) * q + cc
    return from_table_unchecked(table, name=f"H({p}^{k})")


def _modular_p3(p: int) -> FiniteGroup:
    """The order-p^3 group of exponent p^2 (odd p): <a, b | a^(p^2), b^p,
    b a b^-1 = a^(1+p)>."""
    p2 = p * p
    n = p2 * p
    i = np.arange(n)
    ai, bi = i % p2, i // p2
    a1, b1, a2, b2 = ai[:, None], bi[:, None], ai[None, :], bi[None, :]
    factor = np.array([pow(1 + p, int(j), p2) for j in range(p)], dtype=np.int64)
    table = (a1 + a2 * factor[b1]) % p2 + p2 * ((b1 + b2) % p)
    return from_table_unchecked(table, name=f"M{p}^3")


def _central_product_over_cp(A: FiniteGroup, zA: int, B: FiniteGroup, zB: int):
    """(A x B) / <(zA, zB^-1)>, identifying the two central order-p elements.

    Returns the quotient group and the index of the image of (zA, 1), a
    generator of the shared center.
    """
    prod = direct_product(A, B, order_cap=A.order * B.order)
    anti = int(zA) * B.order + int(B.inv[zB])
    N = subgroup_generate(prod, [anti])
    Q, proj = quotient(prod, N)
    return Q, int(proj[zA * B.order])


def _extraspecial(p: int, blocks: int, exponent_p2: bool) -> FiniteGroup:
    parts = [_modular_p3(p)] if exponent_p2 else [_heisenberg(p, 1)]
    parts += [_heisenberg(p, 1) for _ in range(blocks - 1)]

    def central_gen(G):
        # both block types have center of order p; take its first non-identity
        return int(center(G).members[1])

    G = parts[0]
    zg = central_gen(G)
    for H in parts[1:]:
        G, zg = _central_product_over_cp(G, zg, H, central_gen(H))
    kind = "p2" if exponent_p2 else "p"
    return from_table_unchecked(
        np.asarray(G.mul), name=f"ES{kind}({p},{blocks})"
    )


def _heisenberg_times_cyclic(p: int, k: int) -> FiniteGroup:
    H = _heisenberg(p, k)
    return direct_product(H, _cyclic(p), order_cap=H.order * p)


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
    """A built-in family: command-line name, parameters, order and builder.

    `syntax` names the parameters, e.g. "p[,k]"; bracketed trailing ones
    default to 1.  `check` raises UnsupportedParameters outside the
    family's domain; `check`, `order` and `build` take all parameters.
    """

    alias: str
    syntax: str
    doc: str
    check: Callable[..., None]
    order: Callable[..., int]
    build: Callable[..., FiniteGroup]


# fmt: off
FAMILIES = {
    "cyclic": Family(
        "cyclic", "N", "cyclic group of order N",
        lambda n: _require(n >= 1, "cyclic order must be positive"),
        lambda n: n, _cyclic),
    "dihedral": Family(
        "dihedral", "N", "dihedral group of order N",
        lambda n: _require(n >= 4 and n % 2 == 0,
                           "dihedral order must be an even number >= 4"),
        lambda n: n, lambda n: _metacyclic(n // 2, -1, name=f"D{n}")),
    "quaternion": Family(
        "quaternion", "N", "generalized quaternion group of order N",
        lambda n: _require(n >= 8 and n % 4 == 0, "generalized quaternion "
                           "order must be a multiple of 4, at least 8"),
        lambda n: n, _quaternion),
    "elementary_abelian": Family(
        "elemab", "p,k", "elementary abelian group of order p^k",
        _check_prime_and_exponent, lambda p, k: p**k,
        lambda p, k: from_table_unchecked(_digit_sum_table(p, k), name=f"E{p}^{k}")),
    "extraspecial_exp_p": Family(
        "extraspecial_p", "p[,blocks]", "extraspecial, order p^(2 blocks+1), exponent p",
        _check_extraspecial, lambda p, b: p ** (2 * b + 1),
        lambda p, b: _extraspecial(p, b, exponent_p2=False)),
    "extraspecial_exp_p2": Family(
        "extraspecial_p2", "p[,blocks]", "the same with exponent p^2",
        _check_extraspecial, lambda p, b: p ** (2 * b + 1),
        lambda p, b: _extraspecial(p, b, exponent_p2=True)),
    "heisenberg_sl3_sylow": Family(
        "heisenberg", "p[,k]", "Sylow p-subgroup of SL3(p^k), of order p^(3k)",
        _check_prime_and_exponent, lambda p, k: p ** (3 * k), _heisenberg),
    "heisenberg_times_cyclic": Family(
        "T", "p[,k]", "the witness product heisenberg(p,k) x C_p",
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
            f"{fam.alias} takes parameters {fam.syntax}, got {given}"
        )
    return fam, spec.params + (1,) * (arity - given)


def build_family(spec: FamilySpec, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Construct a family instance; deterministic element order.

    Arity, parameter ranges, primality and the order cap are all checked
    before any table is allocated.
    """
    fam, params = _resolve(spec)
    # No parameter exceeds the order of its group.  Checked first, this
    # bounds the cost of the primality test and of computing the order.
    if max(params) > order_cap:
        raise ClosureExceedsCap(
            f"{fam.alias} parameter {max(params)} exceeds the order cap {order_cap}"
        )
    fam.check(*params)
    order = fam.order(*params)
    if order > order_cap:
        raise ClosureExceedsCap(f"family order {order} exceeds cap {order_cap}")
    return fam.build(*params)


def t_witness_spec(p: int, k: int) -> FamilySpec:
    """T = (Sylow p-subgroup of SL3(p^k)) x C_p."""
    return FamilySpec("heisenberg_times_cyclic", (p, k))


def parse_family_spec(text: str) -> FamilySpec:
    """Parse CLI syntax like 'quaternion:8', 'heisenberg:3,2' or 'T:3,1'."""
    alias, _, rest = text.partition(":")
    if not rest:
        raise UnsupportedParameters(f"family spec {text!r} needs parameters")
    try:
        params = tuple(int(v) for v in rest.split(","))
    except ValueError:
        raise UnsupportedParameters(f"bad family parameters in {text!r}")
    for family, fam in FAMILIES.items():
        if fam.alias == alias:
            return FamilySpec(family, params)
    raise UnsupportedParameters(f"unknown family {alias!r}")


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


# ---------------------------------------------------------------------------
# witness-family property report


@dataclass
class WitnessReport:
    """Structural profile of T = (SL3 Sylow) x C_p against its contract."""

    p: int
    k: int
    order_ok: bool
    center_order_ok: bool
    center_index_ok: bool
    centralizer_order_ok: bool
    centralizer_abelian_ok: bool
    derived_inside_center_ok: bool
    center_over_derived_ok: bool
    class_two_ok: bool
    exponent_ok: bool

    @property
    def passed(self) -> bool:
        flags = [f.name for f in fields(self) if f.name.endswith("_ok")]
        return all(getattr(self, name) for name in flags)


def verify_witness_properties(T: FiniteGroup, p: int, k: int) -> WitnessReport:
    """Check the witness profile: center p^(k+1) of index p^(2k), abelian
    noncentral centralizers of order p^(2k+1), |Z:T'| = p, class 2, and
    exponent p for odd p."""
    Z = center(T)
    Tp = derived_subgroup(T)
    cents_ok = True
    cents_abelian = True
    for g in range(T.order):
        if g in Z:
            continue
        C = centralizer(T, g)
        if C.order != p ** (2 * k + 1):
            cents_ok = False
            break
        sub = T.mul[np.ix_(C.members, C.members)]
        if not (sub == sub.T).all():
            cents_abelian = False
            break
    return WitnessReport(
        p=p,
        k=k,
        order_ok=T.order == p ** (3 * k + 1),
        center_order_ok=Z.order == p ** (k + 1),
        center_index_ok=T.order // Z.order == p ** (2 * k),
        centralizer_order_ok=cents_ok,
        centralizer_abelian_ok=cents_abelian,
        derived_inside_center_ok=bool(Z.mask[Tp.members].all()),
        center_over_derived_ok=Z.order == Tp.order * p,
        class_two_ok=nilpotency_class(T) == 2,
        exponent_ok=(p == 2) or group_exponent(T) == p,
    )
