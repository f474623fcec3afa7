"""Exception types shared across the package."""


class MannaError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(MannaError):
    """An operation was called with arguments violating its precondition."""


class MalformedValuation(MannaError):
    """A valuation specification is structurally invalid."""


class UnsupportedValuation(MannaError):
    """The solver was given a valuation class it does not handle."""


class InvalidInstance(MannaError):
    """An instance failed structural or semantic validation."""


class DecompositionFailure(MannaError):
    """A bundle decomposition violated one of its defining clauses."""

    def __init__(self, clause, message=""):
        super().__init__(message or f"decomposition clause {clause!r} violated")


class CleannessViolation(MannaError):
    """An internal cleanness invariant failed after a path augmentation.

    This must never fire on valid in-scope inputs; if it does, either the
    input valuations are not what they claim to be or there is a bug.
    """


class TerminationGuard(MannaError):
    """The augmentation counter exceeded its polynomial safety bound."""


class BudgetExceeded(MannaError):
    """A brute-force enumeration would exceed the configured budget."""


class ParseError(MannaError):
    """A JSON document could not be parsed into a domain object.

    ``location``, a dotted path into the offending document, prefixes the
    message.
    """

    def __init__(self, location, message):
        super().__init__(f"{location}: {message}")
