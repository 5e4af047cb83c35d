"""Exception types raised by the camina package."""


class CaminaError(Exception):
    """Base class for all package errors."""


class InvalidPermutation(CaminaError):
    """An images sequence is not a bijection on {1..degree}."""


class ClosureExceedsCap(CaminaError):
    """Generated closure grew past the configured order cap."""


class NoIdentity(CaminaError):
    """Cayley table has no identity at index 0."""


class NoInverse(CaminaError):
    """Some element of a Cayley table has no inverse."""


class NotLatinSquare(CaminaError):
    """Some row or column of a Cayley table is not a permutation."""


class NotAssociative(CaminaError):
    """Cayley table fails associativity; carries the first bad triple."""

    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"(x*y)*z != x*(y*z) at (x, y, z) = ({a}, {b}, {c})")


class NotNormal(CaminaError):
    """Quotient requested by a non-normal subgroup."""


class CentralElement(CaminaError):
    """D(g) requested for central g, where it degenerates to the whole group."""


class InvalidPairTarget(CaminaError):
    """Pair test target N is trivial, the whole group, or not normal."""


class EquivalenceViolation(CaminaError):
    """Criteria that are provably equivalent disagreed; indicates a bug."""


class InvariantViolation(CaminaError):
    """An internal invariant failed to hold; indicates a bug."""


class NotApplicable(CaminaError):
    """Operation has no content for this input (e.g. script-C when Z = G')."""


class UnsupportedParameters(CaminaError):
    """Family constructor called with parameters outside its domain."""


class InternalPrimeSearchFailed(CaminaError):
    """Defensive cap hit while searching for the character-table prime."""


class CorpusSyntaxError(CaminaError):
    """Malformed corpus text; carries a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class OrderMismatch(CaminaError):
    """Corpus entry's generators close to a different order than declared."""


class DuplicateId(CaminaError):
    """Corpus contains two entries with the same (order, index) id."""


class UnknownGroupId(CaminaError):
    """Requested group id not present in the loaded corpus."""
