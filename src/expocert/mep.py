"""Mixed exponential polynomials and their quotients.

A mixed exponential polynomial (MEP) is a finite sum

    sum_k  alpha_k * x^(p_k) * (e^(-x))^(q_k)

with rational alpha_k, nonnegative integer p_k and, in canonical form,
nonnegative integer q_k. Writing y for e^(-x) this is a bivariate
polynomial in (x, y), closed under addition, multiplication and d/dx
(since dy/dx = -y). A `Mep` holds it grouped by the y-exponent, as

    sum_q  c_q(x) * y^q

with one `Polynomial` c_q per q: the coefficient polynomials that the
prover bounds one at a time and the evaluator sums at a point. Sums,
products and d/dx (c_q' - q*c_q in each group) are `Polynomial`'s own.

Inputs with negative q (positive exponentials) are handled by `normalize`,
which multiplies through by a positive power of y; inputs with rational q
by `_stretch`, which substitutes x = v*z with one v shared by every sum
in the same variable (`expr.to_exp_rational` and
`stratify.substitute_alpha` both go through it). Both moves preserve
positivity on the matching interval.

At a rational point x an MEP is the exact sum {-q*x: c_q(x)} of rational
multiples of e^s (`arith.ExpSum`), so `eval_enclosure` and `sign_at` hand
that sum, or a quotient of two, to the one evaluator in `arith`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .arith import (
    _ONE,
    ExpSum,
    RationalInterval,
    _common_denominator,
    _put,
    exp_sum_sign,
    quotient_enclosure,
)
from .errors import DenominatorSignUnknownError, PreconditionError
from .poly import Polynomial, _power, _signed_sum


class Mep:
    """Canonical mixed exponential polynomial, held as its groups.

    `groups` is the tuple of pairs (q, c_q) with ascending q >= 0 and
    nonzero Polynomial c_q: the MEP is sum c_q(x) e^(-qx). The constructor
    takes raw terms (alpha, p, q) = alpha x^p e^(-qx) and merges equal
    (p, q); feed raw terms with negative q through `normalize` first.
    """

    __slots__ = ("groups",)

    groups: tuple[tuple[int, Polynomial], ...]

    def __init__(self, terms: Iterable = ()):
        by_q: dict[int, dict[int, Fraction]] = {}
        for a, p, q in terms:
            if p < 0:
                raise PreconditionError("x-power p must be nonnegative")
            if q < 0:
                raise PreconditionError(
                    "canonical Mep needs q >= 0; use normalize() first"
                )
            _put(by_q.setdefault(q, {}), p, a if isinstance(a, Fraction) else Fraction(a))
        groups = [
            (q, Polynomial([cs.get(p, 0) for p in range(max(cs) + 1)]))
            for q, cs in by_q.items()
            if cs
        ]
        object.__setattr__(self, "groups", tuple(sorted(groups)))

    @classmethod
    def _of(cls, groups: dict[int, Polynomial]) -> "Mep":
        """The Mep with these groups by q, less those that cancelled to
        zero (`_put` cannot tell a zero Polynomial)."""
        m = object.__new__(cls)
        object.__setattr__(m, "groups", tuple(sorted(
            (q, c) for q, c in groups.items() if not c.is_zero
        )))
        return m

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Mep is immutable")

    @classmethod
    def constant(cls, c) -> "Mep":
        return cls([(c, 0, 0)])

    # -- ring operations ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.groups

    def __add__(self, other: "Mep") -> "Mep":
        out = dict(self.groups)
        for q, c in other.groups:
            _put(out, q, c)
        return Mep._of(out)

    def __neg__(self) -> "Mep":
        return Mep._of({q: -c for q, c in self.groups})

    def __sub__(self, other: "Mep") -> "Mep":
        return self + (-other)

    def __mul__(self, other: "Mep") -> "Mep":
        out: dict[int, Polynomial] = {}
        for q, c in self.groups:
            for r, d in other.groups:
                _put(out, q + r, c * d)
        return Mep._of(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mep) and self.groups == other.groups

    def __hash__(self) -> int:
        return hash(self.groups)

    # -- calculus ---------------------------------------------------------

    def differentiate(self) -> "Mep":
        """Exact d/dx. Since y = e^(-x) has dy/dx = -y,

            d/dx [c_q(x) y^q] = (c_q'(x) - q c_q(x)) y^q.
        """
        return Mep._of({q: c.derivative() - c.scale(q) for q, c in self.groups})

    # -- display ------------------------------------------------------------

    def text(self) -> str:
        """Terms by ascending q, then ascending power of x; "0" when zero."""
        terms = []
        for q, c in self.groups:
            exp = ["exp(-x)" if q == 1 else f"exp(-{q}*x)"] if q else []
            terms += [(a, _power("x", p) + exp) for p, a in enumerate(c.coeffs) if a]
        return _signed_sum(terms)

    def __repr__(self) -> str:
        return f"Mep({self.text()!r})"


@dataclass(frozen=True)
class ExpRational:
    """Quotient of two MEPs; the denominator must not be identically zero."""

    numerator: Mep
    denominator: Mep

    def __post_init__(self):
        if self.denominator.is_zero:
            raise PreconditionError("denominator is identically zero")


def normalize(terms) -> Mep:
    """Clear negative exponential powers by one global multiplication.

    With q_min the most negative exponent present, every term is
    multiplied by y^(-q_min); since that factor is e^(|q_min| x) > 0,
    positivity of the sum on any interval is unchanged.
    """
    terms = list(terms)
    shift = max(0, -min((q for _, _, q in terms), default=0))
    return Mep([(a, p, q + shift) for a, p, q in terms])


def _stretch(groups) -> tuple[int, list[list[tuple[Fraction, int, int]]]]:
    """Substitute x = v*z into lists of raw terms (a, p, q) = a x^p e^(-qx).

    v is the least positive integer that makes q*v an integer for every
    rational q in every list, so sums that share one variable share one
    stretch. Each term becomes (a v^p) z^p (e^(-z))^(qv), which keeps the
    value of each sum at corresponding points, and an x-interval (a, b)
    becomes (a/v, b/v). q keeps its sign: the results are raw terms for
    `normalize` or `Mep`.
    """
    v = _common_denominator(q for terms in groups for _, _, q in terms)
    return v, [
        [(a * v**p if v > 1 else a, p, q.numerator * (v // q.denominator))
         for a, p, q in terms]
        for terms in groups
    ]


def differentiate_quotient(f: ExpRational) -> ExpRational:
    """Quotient rule, denominator squared; no common-factor reduction."""
    n, d = f.numerator, f.denominator
    return ExpRational(n.differentiate() * d - n * d.differentiate(), d * d)


def _value_sum(f: Mep, x: Fraction) -> ExpSum:
    """f(x) written exactly as the sum {-q*x: c_q(x)} of rational
    multiples of e^s."""
    out: ExpSum = {}
    for q, c in f.groups:
        _put(out, -q * x, c.eval(x))
    return out


def _sums_at(f: Union[Mep, ExpRational], x) -> tuple[ExpSum, ExpSum]:
    """f(x), x rational, as an exact quotient num/den of such sums; an MEP
    has den = 1. A denominator that is exactly zero at x raises
    DenominatorSignUnknownError."""
    x = Fraction(x)
    if isinstance(f, Mep):
        return _value_sum(f, x), _ONE
    den = _value_sum(f.denominator, x)
    if not den:
        raise DenominatorSignUnknownError(f"denominator is exactly zero at x = {x}")
    return _value_sum(f.numerator, x), den


def eval_enclosure(f: Union[Mep, ExpRational], x, eps) -> RationalInterval:
    """Certified enclosure of f(x) with width < eps, x rational, by
    quotient_enclosure of the sums of `_sums_at`."""
    return quotient_enclosure(*_sums_at(f, x), eps)


def sign_at(f: Union[Mep, ExpRational], x) -> int:
    """Exact sign of f(x), x rational: 0 only for an exact zero. Errors as
    in eval_enclosure, plus exp_sum_sign's BudgetExceededError."""
    num, den = _sums_at(f, x)
    return exp_sum_sign(num) * exp_sum_sign(den)
