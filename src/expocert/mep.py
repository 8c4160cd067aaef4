"""Mixed exponential polynomials and their quotients.

A mixed exponential polynomial (MEP) is a finite sum

    sum_k  alpha_k * x^(p_k) * (e^(-x))^(q_k)

with rational alpha_k, nonnegative integer p_k and, in canonical form,
nonnegative integer q_k. Writing y for e^(-x) this is just a bivariate
polynomial in (x, y), which is the internal view taken here: it is closed
under addition, multiplication and d/dx (since dy/dx = -y), and grouping
by the y-exponent recovers the coefficient polynomials c_q(x) that the
prover bounds one at a time.

Inputs with negative q (positive exponentials) are handled by `normalize`,
which multiplies through by a positive power of y; inputs with rational q
by `_stretch`, which substitutes x = v*z with one v shared by every sum
in the same variable (`expr.to_exp_rational` and
`stratify.substitute_alpha` both go through it). Both moves preserve
positivity on the matching interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .arith import RationalInterval, _common_denominator, enclose_exp_neg
from .errors import (
    BudgetExceededError,
    DenominatorSignUnknownError,
    DivisionByPossiblyZeroError,
    PreconditionError,
)
from .poly import Polynomial

Q = Fraction


@dataclass(frozen=True)
class MepTerm:
    """One addend alpha * x^p * (e^(-x))^q.

    q may be negative here; only the canonical Mep container insists on
    q >= 0.
    """

    alpha: Fraction
    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.p < 0:
            raise PreconditionError("x-power p must be nonnegative")

    def text(self) -> str:
        parts = []
        if self.p:
            parts.append("x" if self.p == 1 else f"x^{self.p}")
        if self.q:
            inner = "-x" if self.q == 1 else f"-{self.q}*x"
            parts.append(f"exp({inner})")
        mag = abs(self.alpha)
        if not parts:
            return str(mag)
        if mag != 1:
            parts.insert(0, str(mag))
        return "*".join(parts)


def _as_terms(items) -> list[MepTerm]:
    out = []
    for it in items:
        if isinstance(it, MepTerm):
            out.append(it)
        else:
            a, p, q = it
            out.append(MepTerm(Fraction(a), int(p), int(q)))
    return out


class Mep:
    """Canonical mixed exponential polynomial.

    Terms are merged on equal (p, q), zero coefficients dropped, and the
    sequence sorted by (q, p). All q are nonnegative; feed raw terms with
    negative q through `normalize` first.
    """

    __slots__ = ("terms",)

    terms: tuple[MepTerm, ...]

    def __init__(self, terms: Iterable = ()):
        merged: dict[tuple[int, int], Fraction] = {}
        for t in _as_terms(terms):
            if t.q < 0:
                raise PreconditionError(
                    "canonical Mep needs q >= 0; use normalize() first"
                )
            key = (t.q, t.p)
            merged[key] = merged.get(key, Fraction(0)) + t.alpha
        cleaned = [
            MepTerm(a, p, q) for (q, p), a in sorted(merged.items()) if a != 0
        ]
        object.__setattr__(self, "terms", tuple(cleaned))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Mep is immutable")

    @classmethod
    def from_polynomial(cls, poly: Polynomial, q: int = 0) -> "Mep":
        return cls([(c, p, q) for p, c in enumerate(poly.coeffs) if c != 0])

    @classmethod
    def constant(cls, c) -> "Mep":
        return cls([(c, 0, 0)])

    # -- ring operations ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Mep") -> "Mep":
        return Mep(self.terms + other.terms)

    def __neg__(self) -> "Mep":
        return Mep([(-t.alpha, t.p, t.q) for t in self.terms])

    def __sub__(self, other: "Mep") -> "Mep":
        return self + (-other)

    def __mul__(self, other: "Mep") -> "Mep":
        prods = [
            (a.alpha * b.alpha, a.p + b.p, a.q + b.q)
            for a in self.terms
            for b in other.terms
        ]
        return Mep(prods)

    def scale(self, c) -> "Mep":
        c = Fraction(c)
        return Mep([(t.alpha * c, t.p, t.q) for t in self.terms])

    def __eq__(self, other) -> bool:
        return isinstance(other, Mep) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    # -- calculus ---------------------------------------------------------

    def differentiate(self) -> "Mep":
        """Exact d/dx. Since y = e^(-x) has dy/dx = -y,

            d/dx [a x^p y^q] = a p x^(p-1) y^q - a q x^p y^q.
        """
        out: list[tuple[Fraction, int, int]] = []
        for t in self.terms:
            if t.p:
                out.append((t.alpha * t.p, t.p - 1, t.q))
            if t.q:
                out.append((-t.alpha * t.q, t.p, t.q))
        return Mep(out)

    # -- structure ----------------------------------------------------------

    def group_by_q(self) -> list[tuple[int, Polynomial]]:
        """Coefficient polynomials per exponential power, ascending q."""
        groups: dict[int, dict[int, Fraction]] = {}
        for t in self.terms:
            groups.setdefault(t.q, {})[t.p] = t.alpha
        out = []
        for q in sorted(groups):
            coeffs = groups[q]
            top = max(coeffs)
            poly = Polynomial([coeffs.get(i, Fraction(0)) for i in range(top + 1)])
            out.append((q, poly))
        return out

    def max_q(self) -> int:
        return max((t.q for t in self.terms), default=0)

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t in self.terms:
            body = t.text()
            if not parts:
                parts.append(body if t.alpha > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if t.alpha > 0 else f"- {body}")
        return " ".join(parts)

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
    ts = _as_terms(terms)
    q_min = min((t.q for t in ts), default=0)
    shift = -q_min if q_min < 0 else 0
    return Mep([(t.alpha, t.p, t.q + shift) for t in ts])


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
        [(a * Fraction(v) ** p, p, int(q * v)) for a, p, q in terms]
        for terms in groups
    ]


def differentiate_quotient(f: ExpRational) -> ExpRational:
    """Quotient rule, denominator squared; no common-factor reduction."""
    n, d = f.numerator, f.denominator
    return ExpRational(n.differentiate() * d - n * d.differentiate(), d * d)


def eval_enclosure(f: Union[Mep, ExpRational], x, eps) -> RationalInterval:
    """Certified enclosure of f(x) with width < eps, x >= 0.

    y = e^(-x) is enclosed once (inside [0, 1], so monotone powering
    handles y^q), the coefficient polynomials are evaluated exactly, and
    the working tolerance shrinks until the total width fits. Quotients
    additionally require the denominator enclosure to clear zero; if it
    never does, DenominatorSignUnknownError is raised.
    """
    x = Fraction(x)
    eps = Fraction(eps)
    if x < 0:
        raise PreconditionError("eval_enclosure needs x >= 0")
    if eps <= 0:
        raise PreconditionError("eps must be positive")

    if isinstance(f, ExpRational):
        delta = eps
        for _ in range(80):
            den = eval_enclosure(f.denominator, x, delta)
            if den.definite_sign() != 0:
                num = eval_enclosure(f.numerator, x, delta)
                try:
                    out = num * den.reciprocal()
                except DivisionByPossiblyZeroError:  # pragma: no cover
                    out = None
                if out is not None and out.width < eps:
                    return out
            delta /= 16
        raise DenominatorSignUnknownError(
            f"denominator enclosure at x = {x} never cleared zero"
        )

    if f.is_zero:
        return RationalInterval.point(0)
    groups = f.group_by_q()
    values = [(q, c.eval(x)) for q, c in groups]
    # a priori tolerance: d/dy of sum c_q y^q on [0,1] is at most
    # sum q*|c_q(x)|, so that slope picks the starting y-width
    slope = sum(abs(v) * q for q, v in values) + 1
    delta = eps / slope / 2
    unit = RationalInterval(Fraction(0), Fraction(1))
    for _ in range(80):
        y = enclose_exp_neg(x, delta).intersect(unit)
        acc = RationalInterval.point(0)
        for q, v in values:
            acc = acc + y.power(q).scale(v)
        if acc.width < eps:
            return acc
        delta /= 16
    raise BudgetExceededError(f"enclosure of width {eps} not reached at x = {x}")
