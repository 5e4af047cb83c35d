"""Exception types raised by the camina package."""


class CaminaError(Exception):
    """Base class for all package errors."""


class InvalidPermutation(CaminaError):
    """An images sequence is not a bijection on {1..degree}."""


class ClosureExceedsCap(CaminaError):
    """Generated closure grew past the configured order cap."""


class InvalidPairTarget(CaminaError):
    """Pair test target N is trivial, the whole group, or not normal."""


class EquivalenceViolation(CaminaError):
    """Criteria that are provably equivalent disagreed; indicates a bug."""


class InvariantViolation(CaminaError):
    """An internal invariant failed to hold; indicates a bug."""


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


class TableTooLarge(CaminaError):
    """A character table would hold more entries than its fixed budget."""


class UsageError(CaminaError):
    """Unknown option, bad option value or missing subcommand on the CLI."""
