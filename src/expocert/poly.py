"""Exact univariate polynomial algebra over the rationals.

Dense representation: ``coeffs[i]`` is the coefficient of ``x**i``, always a
``fractions.Fraction``, with no trailing zeros (the zero polynomial has an
empty coefficient tuple). Root counting goes through Sturm chains of the
squarefree part, so every sign decision is exact; there is no floating
point anywhere in this module.

Interval conventions: ``count_roots_open`` and ``is_positive_on`` speak
about the open interval (a, b). Roots exactly at an endpoint are never
counted and never falsify positivity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import PreconditionError, ZeroPolynomialError


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) or isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"expected a rational, got {type(v).__name__}")


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, c, power: int) -> "Polynomial":
        """c * x**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls([Fraction(0)] * power + [c])

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        if c == 0:
            return Polynomial.zero()
        return Polynomial([a * c for a in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x) -> Fraction:
        """Exact value at a rational point (Horner)."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = eval

    # -- euclidean structure --------------------------------------------

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact quotient and remainder; divisor must be nonzero."""
        if other.is_zero:
            raise ZeroPolynomialError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree
        lead = other.coeffs[-1]
        if len(rem) - 1 < dq:
            return Polynomial.zero(), Polynomial(rem)
        quot = [Fraction(0)] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / lead
            quot[i - dq] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dq + j] -= f * oc
        return Polynomial(quot), Polynomial(rem)

    __divmod__ = divmod

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("polynomial powers take n >= 0")
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer
        coefficients; 0 for the zero polynomial."""
        if self.is_zero:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Polynomial":
        """Divide out the content; the sign of the leading coefficient is
        preserved (the scaling factor is positive)."""
        if self.is_zero:
            return self
        return self.scale(1 / self.content())

    # -- hashing / comparison / display ----------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.text()!r})"

    def text(self, var: str = "x") -> str:
        """Canonical display form: "8 - 12*x + 1/2*x^2"; "0" when zero."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif mag == 1:
                body = var if i == 1 else f"{var}^{i}"
            else:
                body = f"{mag}*{var}" if i == 1 else f"{mag}*{var}^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def coeff_strings(self) -> list[str]:
        """JSON-friendly form: coefficient strings indexed by power."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls([Fraction(s) for s in items])


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monicized-by-content GCD: primitive, positive leading coefficient.

    Euclidean remainders with primitive-part normalization at every step;
    positive rescaling keeps the root set and all Sturm sign data intact
    while stopping coefficient blow-up.
    """
    a, b = p.primitive(), q.primitive()
    while not b.is_zero:
        a, b = b, (a % b).primitive()
    if a.is_zero:
        return a
    if a.leading < 0:
        a = -a
    return a


def squarefree_part(p: Polynomial) -> Polynomial:
    """P / gcd(P, P'), made primitive.

    Same distinct real roots as P, each simple; the sign of the leading
    coefficient follows P's.
    """
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return p.primitive()
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    quot, rem = p.divmod(g)
    assert rem.is_zero, "gcd must divide exactly"
    return quot.primitive()


class SturmChain:
    """Canonical Sturm sequence of a squarefree polynomial.

    Sign-variation counts V(t) skip zero entries; for squarefree P and
    a < b, V(a) - V(b) is the number of distinct roots in the half-open
    interval (a, b]. Each remainder is reduced to its primitive part,
    which only rescales by positive rationals and so changes no signs.
    """

    __slots__ = ("poly", "chain")

    def __init__(self, squarefree: Polynomial):
        if squarefree.is_zero:
            raise ZeroPolynomialError("Sturm chain of the zero polynomial")
        chain = [squarefree]
        if squarefree.degree >= 1:
            chain.append(squarefree.derivative().primitive())
            while chain[-1].degree >= 1:
                rem = chain[-2] % chain[-1]
                if rem.is_zero:
                    # cannot happen for a squarefree head; guard anyway
                    break
                chain.append((-rem).primitive())
        self.poly = squarefree
        self.chain = tuple(chain)

    def variations_at(self, t) -> int:
        t = _as_fraction(t)
        count = 0
        prev = 0
        for member in self.chain:
            v = member.eval(t)
            if v == 0:
                continue
            s = 1 if v > 0 else -1
            if prev != 0 and s != prev:
                count += 1
            prev = s
        return count

    def roots_in_open(self, a, b) -> int:
        """Distinct roots in (a, b): those in (a, b], less a root at b."""
        n = self.variations_at(a) - self.variations_at(b)
        if self.poly.eval(b) == 0:
            n -= 1
        return n


def count_roots_open(p: Polynomial, a, b) -> int:
    """Number of distinct real roots of p strictly inside (a, b)."""
    if p.is_zero:
        raise ZeroPolynomialError("root counting needs a nonzero polynomial")
    a, b = _as_fraction(a), _as_fraction(b)
    if not a < b:
        raise PreconditionError("need a < b")
    return SturmChain(squarefree_part(p)).roots_in_open(a, b)


def is_positive_on(p: Polynomial, a, b) -> bool:
    """True iff p > 0 on the whole open interval (a, b).

    Decided exactly: no interior root (Sturm) plus a positive midpoint
    value. Zeros at the endpoints themselves are tolerated.
    """
    if p.is_zero:
        raise ZeroPolynomialError("positivity of the zero polynomial is degenerate")
    a, b = _as_fraction(a), _as_fraction(b)
    if not a < b:
        raise PreconditionError("need a < b")
    if count_roots_open(p, a, b) != 0:
        return False
    return p.eval((a + b) / 2) > 0

