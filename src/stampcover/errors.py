"""Exception types shared across the package.

Validation failures subclass ValueError so callers that only care about
"bad input" can catch one thing; resource refusals (table or enumeration
too big) and WorkerDiedError subclass neither ValueError nor OSError, so
the CLI can map them to their own exit codes.
"""


class StampError(Exception):
    """Base class for every error this package raises deliberately."""


# ---------- basis validation ----------


class InvalidBasisError(StampError, ValueError):
    """The text or element sequence does not describe a valid basis."""


class NotStartingAtOneError(InvalidBasisError):
    """The smallest denomination must be exactly 1."""


class NotIncreasingError(InvalidBasisError):
    """Denominations must be strictly increasing."""


class NonPositiveError(InvalidBasisError):
    """Denominations must be positive integers."""


# ---------- resource limits ----------


class OverflowLimitError(StampError, OverflowError):
    """A value or table size exceeds the 64-bit / memory safety limits."""


class TooLargeError(StampError):
    """An exhaustive enumeration would exceed its configured ceiling."""


# ---------- computation-specific ----------


class NotRepresentableError(StampError):
    """The target integer has no representation within the stamp budget."""


class BadParameterError(StampError, ValueError):
    """A family parameter is outside its admissible range."""


class WorkerDiedError(StampError):
    """A worker process of a parallel scan died before returning its work."""


class ReflectionError(StampError):
    """A precondition of the reflection construction is violated."""


class NotSymmetricError(ReflectionError):
    """The reflection construction only applies to symmetric bases."""


class WeightExceedsBudgetError(ReflectionError):
    """The generation being reflected uses more stamps than the budget."""


class UsesTopElementError(ReflectionError):
    """The generation being reflected may not use the largest denomination."""
