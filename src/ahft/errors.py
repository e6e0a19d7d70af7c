"""Exception hierarchy for the ahft package.

Three families matter to callers; each holds its CLI exit code in the
class attribute ``exit_code``:

* :class:`InputError` — bad data or bad arguments; the caller can fix the
  input and retry.  Exit code 2.
* :class:`NoConvergence` — an iterative routine exhausted its budget; carries
  whatever diagnostics were available at the point of failure.  Exit code 3.
* :class:`SingularProblem` — the numbers themselves are degenerate (singular
  information matrix, constant factor column, ...).  Exit code 4.
"""

from __future__ import annotations


class AhftError(Exception):
    """Base class for every error raised by this package."""


class InputError(AhftError, ValueError):
    """Invalid data or arguments supplied by the caller."""

    exit_code = 2


# -- dataset ----------------------------------------------------------------

class MissingColumn(InputError):
    """A required column is absent from the input."""


class NonNumericCell(InputError):
    """A cell that must be numeric failed to parse (row/column identified)."""


class FatigueOutOfRange(InputError):
    """A fatigue value lies outside the open interval (0, 1)."""


class EmptyDataset(InputError):
    """The input contains a header but no data rows."""


class ZeroVarianceColumn(InputError):
    """A column selected for standardization has no sample variance."""


class TooFewRows(InputError):
    """Fewer rows than the operation's minimum."""


# -- fatigue ----------------------------------------------------------------

class NonPositiveRate(InputError):
    """Fatigue rate must be strictly positive."""


class NegativeTime(InputError):
    """Durations must be nonnegative."""


class NonPositiveTime(InputError):
    """This duration must be strictly positive."""


# -- pca --------------------------------------------------------------------

class NotSymmetric(InputError):
    """Matrix handed to the eigensolver is not symmetric."""


# -- alt --------------------------------------------------------------------

class MissingFactor(InputError):
    """A prediction point does not supply a value for every model factor."""


class TransformDomainError(InputError):
    """Non-positive factor value under a log or reciprocal transform."""


class NonPositiveValue(InputError):
    """A parameter that must be positive is not."""


class NonPositiveSE(InputError):
    """A standard error must be strictly positive."""


class SingularProblem(AhftError):
    """The problem is numerically degenerate."""

    exit_code = 4


class DegenerateFactor(SingularProblem):
    """A factor column is constant after its transform, or a linear combination
    of the intercept and the columns before it; the design is singular."""


class SingularInformation(SingularProblem):
    """The observed information matrix is not invertible."""


class NoConvergence(AhftError):
    """An iterative routine ran out of budget.

    Attributes
    ----------
    diagnostics : dict
        Partial state at failure (iteration count, last gradient norm,
        parameter vector, ...), for post-mortem rather than for use.
    """

    exit_code = 3

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
