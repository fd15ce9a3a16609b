"""Exception taxonomy shared by all modules.

Every failure mode that callers are expected to handle has its own class so
the command line driver can map errors to exit codes mechanically.
"""


class NeronError(Exception):
    """Base class for all library errors."""


class PolyParseError(NeronError):
    """Bad polynomial or problem-file syntax; carries line/column."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class NotInIdeal(NeronError):
    """A division was requested for an element outside the ideal."""


class DecompositionIncomplete(NeronError):
    """minimal_primes could not certify a complete decomposition.

    Supply the primes explicitly through a MINPRIMES section.
    """


class NotAUnit(NeronError):
    """Jet inversion of an element with zero constant term."""


class NotDivisible(NeronError):
    """Jet division has no solution at the requested precision."""


class TargetInsidePrime(NeronError):
    """The active-element target ideal lies inside a minimal prime."""


class ActiveElementNotFound(NeronError):
    """No active element was found within the search budget."""


class ConditionStarStarFailed(NeronError):
    """No generator subset passes the per-prime evaluation test."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class CompletionFailed(NeronError):
    """The Jacobian matrix could not be completed within the retry cap."""


class DivisibilityViolated(NeronError):
    """An exact division demanded by the construction does not hold."""


class CertificateFailed(NeronError):
    """The output presentation failed its smoothness certificate."""


class VerificationFailed(NeronError):
    """Jet-level factorization checks rejected the supplied data."""


class BoundTooSmall(NeronError):
    """Raised by the precision test; message text is part of the contract."""

    MESSAGE = "the algorithm fails since the bound N is too small"

    def __init__(self):
        super().__init__(self.MESSAGE)


class HypothesisViolated(NeronError):
    """The lifting hypothesis on the evaluated Jacobian ideal fails."""


class DivisionFailed(NeronError):
    """Exact division required by the lifting construction fails."""


class NoContraction(NeronError):
    """A Newton iteration failed to strictly increase the update order."""


class PreconditionFailed(NeronError):
    """Input data violates a stated congruence precondition."""
