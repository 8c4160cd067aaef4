"""Maclaurin polynomials of e^(-x) and the sign-directed order rule.

T_n(x) = sum_{k<=n} (-x)^k / k! is a lower bound of e^(-x) on x > 0 when
n is odd and an upper bound when n is even. That parity fact drives the
whole prover: a term with positive coefficient may have its exponential
replaced by an odd-order T without increasing the term, a negative one
by an even-order T. select_order encodes the rule, maclaurin builds the
scaled polynomial T_n(qx), and odd_root locates the single positive root
each odd-order T possesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial

from .arith import RationalInterval, _brackets
from .errors import BudgetExceededError, PreconditionError
from .poly import Polynomial


@dataclass(frozen=True)
class TaylorBound:
    """One Maclaurin bound T_n(qx) together with its bounding direction."""

    order: int
    scale: int
    poly: Polynomial
    side: str  # "lower" (odd order) or "upper" (even order)


@dataclass(frozen=True)
class OddRootRecord:
    """Enclosure of c_{2m-1}, the unique positive root of T_{2m-1}."""

    m: int
    enclosure: RationalInterval


def maclaurin(n: int, q: int = 1) -> TaylorBound:
    """T_n(qx) in expanded monomial form.

    The coefficient of x^k is (-1)^k q^k / k!. Odd n gives a lower bound
    of (e^(-x))^q on x > 0, even n an upper bound.
    """
    if n < 0:
        raise PreconditionError("order must be nonnegative")
    if q < 1:
        raise PreconditionError("scale must be a positive integer")
    coeffs = [Fraction((-q) ** k, factorial(k)) for k in range(n + 1)]
    side = "lower" if n % 2 == 1 else "upper"
    return TaylorBound(order=n, scale=q, poly=Polynomial(coeffs), side=side)


def select_order(coeff_sign, l: int) -> int:
    """Order to use at depth l for a term whose coefficient has this sign.

    Positive coefficients take the odd order 2l-1 (replace the
    exponential by something smaller), negative ones the even order 2l
    (replace it by something larger). Either way the substitution can
    only push the term down, which is the single inequality the prover
    leans on.
    """
    if l < 1:
        raise PreconditionError("l must be >= 1")
    if coeff_sign > 0:
        return 2 * l - 1
    if coeff_sign < 0:
        return 2 * l
    raise PreconditionError("coefficient sign must be nonzero")


def gap_enclosure(n: int, x, eps) -> RationalInterval:
    """Enclosure of F_n(x) = T_n(x) - e^(-x), width < eps.

    For x > 0 the result is sign-definite (positive for even n, negative
    for odd n); the internal exponential enclosure starts at an order
    above n and is tightened until it clears T_n(x).
    """
    x = Fraction(x)
    eps = Fraction(eps)
    if x < 0:
        raise PreconditionError("gap_enclosure needs x >= 0")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if x == 0:
        return RationalInterval.point(0)
    tn = maclaurin(n).poly.eval(x)
    # brackets from m = (n + 1)//2 + 1 on, whose orders exceed n
    for a, b, q, w in islice(_brackets(x), (n + 1) // 2, None):
        if w * eps.denominator < eps.numerator * q:  # the width W/Q
            out = RationalInterval(tn - Fraction(b, q), tn - Fraction(a, q))
            if out.definite_sign() != 0:
                return out
    raise BudgetExceededError(f"gap F_{n}({x}) not resolved within order cap")


def odd_root(m: int, eps) -> OddRootRecord:
    """Enclose the unique positive root of T_{2m-1} to width < eps.

    The bracket starts as (0, 2m+1], where the polynomial is already
    negative at the right end; if it were not, the end is doubled until
    a sign change appears. Integer points are probed first so that exact
    roots (c_1 = 1) come back as degenerate intervals.
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    p = maclaurin(2 * m - 1).poly

    for k in range(1, 2 * m + 2):
        if p.eval(k) == 0:
            return OddRootRecord(m, RationalInterval.point(k))

    lo, hi = Fraction(0), Fraction(2 * m + 1)
    while p.eval(hi) > 0:  # not expected; defensive widening
        hi *= 2
    # T_{2m-1}(0) = 1 > 0 and the positive root is unique, so plain sign
    # bisection is already a correct isolation method here.
    while hi - lo >= eps:
        mid = (lo + hi) / 2
        v = p.eval(mid)
        if v == 0:
            return OddRootRecord(m, RationalInterval.point(mid))
        if v > 0:
            lo = mid
        else:
            hi = mid
    return OddRootRecord(m, RationalInterval(lo, hi))
