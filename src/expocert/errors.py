"""Shared exception types.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for programming errors (bad argument
types, malformed construction).
"""

from __future__ import annotations


class ExpocertError(Exception):
    """Base class for all library-specific errors."""


class BudgetExceededError(ExpocertError):
    """A series or refinement loop hit its configured cap before reaching
    the requested tolerance."""


class DivisionByPossiblyZeroError(ExpocertError):
    """A denominator enclosure still contains 0 at the tightest budgeted
    precision, so the quotient cannot be certified."""


class ZeroPolynomialError(ExpocertError):
    """The zero polynomial was passed to a decision procedure that cannot
    meaningfully answer for it."""


class PreconditionError(ExpocertError):
    """An operation's documented precondition does not hold."""


class DegenerateInputError(ExpocertError):
    """The input collapses to the zero function, so positivity is not a
    meaningful question."""


class SearchExhaustedError(ExpocertError):
    """The uniform degree search reached max_l without a valid bound.

    Carries diagnostics: the last level tried and the interior root count
    of the final bounding polynomial (when one existed).
    """

    def __init__(self, max_l: int, last_root_count: int | None, detail: str = ""):
        self.max_l = max_l
        self.last_root_count = last_root_count
        msg = f"no valid bound up to l = {max_l}"
        if last_root_count is not None:
            msg += f" (last P had {last_root_count} interior roots)"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class MalformedCertificateError(ExpocertError):
    """A certificate file or dict is structurally invalid (verification of
    a well-formed but wrong certificate returns False instead)."""


class ParseError(ExpocertError):
    """Syntax error in the expression grammar, annotated with a position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class NonlinearExpArgumentError(ParseError):
    """exp(...) argument is not linear in the variables."""


class LoweringError(ExpocertError):
    """A syntactically valid expression cannot be represented in the
    exponential-polynomial form (e.g. a transcendental constant
    coefficient, or sign() applied to a variable expression)."""


class DenominatorSignUnknownError(ExpocertError):
    """The denominator's sign on the interval could not be certified, so
    the inequality cannot be soundly cleared to polynomial-times-MEP form."""


class MonotonicityUnprovenError(ExpocertError):
    """Neither sign of the derivative numerator (or denominator) could be
    proven on the interval at the configured search depth."""


class EndpointValidationError(ExpocertError):
    """A claimed endpoint limit is not the limit of f there: the exact
    l'Hopital test found a different value or a pole."""

