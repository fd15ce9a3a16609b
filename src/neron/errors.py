"""Exception taxonomy shared by all modules.

Every failure mode that callers are expected to handle has its own class,
and each class carries the exit code of the command line driver and the
text it writes to stderr:

* 2  the precision bound is too small (``BoundTooSmall``, exact message);
* 3  a hypothesis or search condition failed;
* 4  a parse error;
* 5  an internal certificate or verification failure, and any other error.
"""


class NeronError(Exception):
    """Base class for all library errors."""
    exit_code = 5

    def report(self):
        """The stderr text of the command line driver."""
        return f"{type(self).__name__}: {self}\n"


class PolyParseError(NeronError):
    """Bad polynomial or problem-file syntax; carries line/column."""
    exit_code = 4

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)

    def report(self):
        return f"parse error: {self}\n"


class NotInIdeal(NeronError):
    """A division was requested for an element outside the ideal."""


class DecompositionIncomplete(NeronError):
    """minimal_primes could not certify a complete decomposition.

    Supply the primes explicitly through a MINPRIMES section.
    """
    exit_code = 3


class NotAUnit(NeronError):
    """Jet inversion of an element with zero constant term."""
    exit_code = 3


class NotDivisible(NeronError):
    """Jet division has no solution at the requested precision."""
    exit_code = 3


class TargetInsidePrime(NeronError):
    """The active-element target ideal lies inside a minimal prime."""
    exit_code = 3


class ActiveElementNotFound(NeronError):
    """No active element was found within the search budget."""
    exit_code = 3


class ConditionStarStarFailed(NeronError):
    """No generator subset passes the per-prime evaluation test."""
    exit_code = 3

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []

    def report(self):
        return super().report() + "".join(
            f"  subset {list(subset)}, prime "
            f"{'-' if prime is None else prime}: {reason}\n"
            for subset, prime, reason in self.diagnostics)


class CompletionFailed(NeronError):
    """The Jacobian matrix could not be completed within the retry cap."""
    exit_code = 3


class DivisibilityViolated(NeronError):
    """An exact division demanded by the construction does not hold."""
    exit_code = 3


class CertificateFailed(NeronError):
    """The output presentation failed its smoothness certificate."""


class VerificationFailed(NeronError):
    """Jet-level factorization checks rejected the supplied data."""


class BoundTooSmall(NeronError):
    """Raised by the precision test; message text is part of the contract."""

    MESSAGE = "the algorithm fails since the bound N is too small"
    exit_code = 2

    def __init__(self):
        super().__init__(self.MESSAGE)

    def report(self):
        return f"{self}\n"


class HypothesisViolated(NeronError):
    """The lifting hypothesis on the evaluated Jacobian ideal fails."""
    exit_code = 3


class DivisionFailed(NeronError):
    """Exact division required by the lifting construction fails."""
    exit_code = 3


class NoContraction(NeronError):
    """A Newton iteration failed to strictly increase the update order."""
    exit_code = 3


class PreconditionFailed(NeronError):
    """Input data violates a stated congruence precondition."""
    exit_code = 3
