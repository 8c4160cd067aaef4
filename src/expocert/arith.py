"""Exact interval arithmetic and constant enclosures.

Everything here is built from rational endpoints. The only transcendental
that ever enters is e, and it enters through one gate: the alternating
Maclaurin bracket

    T_{2m-1}(t) < exp(-t) < T_{2m}(t)    for rational t > 0,

whose width t^(2m)/(2m)! is an exact rational. Enclosures of exp(s) for
any rational s, of the constant e itself, of rational expressions in e
(ConstExpr) and of finite sums of rational multiples of e^s (ExpSum) are
all derived from that bracket, so tightening is always a matter of
raising m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import (
    BudgetExceededError,
    DivisionByPossiblyZeroError,
    LoweringError,
    PreconditionError,
)
from .poly import Polynomial, poly_gcd

MACLAURIN_ORDER_CAP = 200


def _rat(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise TypeError(f"expected a rational, got {type(v).__name__}")


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _rat(self.lo))
        object.__setattr__(self, "hi", _rat(self.hi))
        if self.lo > self.hi:
            raise PreconditionError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, v) -> "RationalInterval":
        v = _rat(v)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def definite_sign(self) -> int:
        """+1 or -1 when the interval excludes zero, else 0 (undecided)."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return 0

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RationalInterval") -> "RationalInterval":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalInterval):
            products = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return RationalInterval(min(products), max(products))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "RationalInterval":
        c = _rat(c)
        if c >= 0:
            return RationalInterval(self.lo * c, self.hi * c)
        return RationalInterval(self.hi * c, self.lo * c)

    def reciprocal(self) -> "RationalInterval":
        if self.definite_sign() == 0:
            raise DivisionByPossiblyZeroError(
                f"interval [{self.lo}, {self.hi}] may contain zero"
            )
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: "RationalInterval") -> "RationalInterval":
        return self * other.reciprocal()

    def power(self, n: int) -> "RationalInterval":
        """[lo, hi]**n for integer n; negative n needs a sign-definite base."""
        if n == 0:
            return RationalInterval.point(1)
        if n < 0:
            return self.reciprocal().power(-n)
        a, b = self.lo**n, self.hi**n
        if n % 2 == 1:
            return RationalInterval(a, b)
        if self.lo >= 0:
            return RationalInterval(a, b)
        if self.hi <= 0:
            return RationalInterval(b, a)
        return RationalInterval(Fraction(0), max(a, b))

    def intersect(self, other: "RationalInterval") -> "RationalInterval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise PreconditionError("intervals do not intersect")
        return RationalInterval(lo, hi)

    def outward_round(self, bits: int) -> "RationalInterval":
        """Widen to endpoints with denominator 2**bits.

        Caps digit growth in long interval products at the cost of at most
        2**(1-bits) of extra width.
        """
        scale = 1 << bits
        lo_n = self.lo.numerator * scale
        lo = Fraction(lo_n // self.lo.denominator, scale)
        hi_n = self.hi.numerator * scale
        hi = Fraction(-((-hi_n) // self.hi.denominator), scale)
        return RationalInterval(lo, hi)

    def __repr__(self) -> str:
        return f"RationalInterval({self.lo}, {self.hi})"


# ---------------------------------------------------------------------------
# the exp(-t) bracket


def enclose_exp_neg(t, eps, m_force: int | None = None) -> RationalInterval:
    """Enclose exp(-t) for rational t >= 0 in [T_{2m-1}(t), T_{2m}(t)].

    m is the smallest index that makes the bracket width
    t^(2m)/(2m)! smaller than eps, unless m_force pins it. t = 0 gives
    the exact point [1, 1].

    Raises BudgetExceededError if no m <= 200 is tight enough.
    """
    t = _rat(t)
    eps = _rat(eps)
    if t < 0:
        raise PreconditionError("enclose_exp_neg needs t >= 0")
    if eps <= 0 and m_force is None:
        raise PreconditionError("eps must be positive")
    if t == 0:
        return RationalInterval.point(1)

    acc = Fraction(1)
    term = Fraction(1)
    k = 0
    m = 0
    while True:
        m += 1
        if m > MACLAURIN_ORDER_CAP:
            raise BudgetExceededError(
                f"exp(-{t}) not enclosed to width {eps} within order cap"
            )
        # extend the partial sum through k = 2m
        while k < 2 * m:
            k += 1
            term *= -t / k
            acc += term
        lo = acc - term  # T_{2m-1}; the last term added is +t^(2m)/(2m)!
        hi = acc
        if m_force is not None:
            if m == m_force:
                return RationalInterval(lo, hi)
            continue
        if term < eps:
            return RationalInterval(lo, hi)


def exp_enclosure(s, eps) -> RationalInterval:
    """Enclose exp(s) for a rational s of either sign, to width < eps.

    Positive s goes through the reciprocal of the exp(-s) bracket, with
    the inner tolerance tightened until the reciprocal is narrow enough.
    """
    s = _rat(s)
    eps = _rat(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if s <= 0:
        return enclose_exp_neg(-s, eps)
    inner = eps if eps < 1 else Fraction(1, 2)
    while True:
        box = enclose_exp_neg(s, inner)
        if box.lo > 0:
            rec = box.reciprocal()
            if rec.width < eps:
                return rec
        inner /= 4


# ---------------------------------------------------------------------------
# constant expressions over Q and e


class ConstExpr:
    """Expression tree over rational constants and the constant e.

    Supports +, -, *, /, integer powers. Two views are maintained on
    demand: a certified enclosure of adjustable width, and an exact
    representation as a rational function of e (a pair of polynomials),
    which decides equality and exact zeroness outright since e is
    transcendental.
    """

    __slots__ = ("op", "args", "value")

    def __init__(self, op: str, args: tuple = (), value=None):
        self.op = op
        self.args = args
        self.value = value

    # construction ------------------------------------------------------

    @classmethod
    def rational(cls, q) -> "ConstExpr":
        return cls("rat", value=_rat(q))

    @classmethod
    def e(cls) -> "ConstExpr":
        return cls("e")

    @staticmethod
    def _coerce(v) -> "ConstExpr":
        if isinstance(v, ConstExpr):
            return v
        return ConstExpr.rational(v)

    def __add__(self, other):
        return ConstExpr("add", (self, self._coerce(other)))

    def __radd__(self, other):
        return ConstExpr("add", (self._coerce(other), self))

    def __sub__(self, other):
        return ConstExpr("sub", (self, self._coerce(other)))

    def __rsub__(self, other):
        return ConstExpr("sub", (self._coerce(other), self))

    def __mul__(self, other):
        return ConstExpr("mul", (self, self._coerce(other)))

    def __rmul__(self, other):
        return ConstExpr("mul", (self._coerce(other), self))

    def __truediv__(self, other):
        return ConstExpr("div", (self, self._coerce(other)))

    def __rtruediv__(self, other):
        return ConstExpr("div", (self._coerce(other), self))

    def __neg__(self):
        return ConstExpr("neg", (self,))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("only integer powers of constants")
        return ConstExpr("pow", (self,), value=n)

    # exact view ----------------------------------------------------------

    def e_fraction(self) -> tuple[Polynomial, Polynomial]:
        """(num, den) with self = num(e)/den(e), reduced, den(e) not the
        zero polynomial and with positive leading coefficient."""
        num, den = self._raw_fraction()
        if num.is_zero:
            return Polynomial.zero(), Polynomial.constant(1)
        g = poly_gcd(num, den)
        num = num.divmod(g)[0]
        den = den.divmod(g)[0]
        if den.leading < 0:
            num, den = -num, -den
        return num, den

    def _raw_fraction(self) -> tuple[Polynomial, Polynomial]:
        one = Polynomial.constant(1)
        if self.op == "rat":
            return Polynomial.constant(self.value), one
        if self.op == "e":
            return Polynomial.monomial(1, 1), one
        if self.op == "neg":
            n, d = self.args[0]._raw_fraction()
            return -n, d
        if self.op == "pow":
            n, d = self.args[0]._raw_fraction()
            k = self.value
            if k < 0:
                if n.is_zero:
                    raise DivisionByPossiblyZeroError("negative power of exact zero")
                n, d, k = d, n, -k
            return n**k, d**k
        a_n, a_d = self.args[0]._raw_fraction()
        b_n, b_d = self.args[1]._raw_fraction()
        if self.op == "add":
            return a_n * b_d + b_n * a_d, a_d * b_d
        if self.op == "sub":
            return a_n * b_d - b_n * a_d, a_d * b_d
        if self.op == "mul":
            return a_n * b_n, a_d * b_d
        if self.op == "div":
            if b_n.is_zero:
                raise DivisionByPossiblyZeroError("division by exact zero constant")
            return a_n * b_d, a_d * b_n
        raise ValueError(f"unknown op {self.op!r}")

    def is_zero(self) -> bool:
        return self.e_fraction()[0].is_zero

    # numeric view --------------------------------------------------------

    def enclosure(self, eps) -> RationalInterval:
        """Certified enclosure of width < eps.

        Walks the tree in interval arithmetic with e itself enclosed to a
        working tolerance, halving that tolerance until the result is
        narrow enough (and until every denominator along the way has
        definite sign). A denominator that is *exactly* zero is detected
        symbolically and rejected; any other one eventually clears zero.
        """
        eps = _rat(eps)
        if eps <= 0:
            raise PreconditionError("eps must be positive")
        self._reject_zero_denominators()
        e_eps = eps if eps < 1 else Fraction(1, 2)
        for _ in range(220):
            e_box = exp_enclosure(1, e_eps)
            try:
                box = self._eval_interval(e_box)
            except DivisionByPossiblyZeroError:
                e_eps /= 16
                continue
            if box.width < eps:
                return box
            e_eps /= 16
        raise BudgetExceededError("constant enclosure did not converge")

    def _reject_zero_denominators(self) -> None:
        if self.op == "div" and self.args[1].is_zero():
            raise DivisionByPossiblyZeroError("division by exact zero constant")
        if self.op == "pow" and self.value < 0 and self.args[0].is_zero():
            raise DivisionByPossiblyZeroError("negative power of exact zero")
        for a in self.args:
            a._reject_zero_denominators()

    def _eval_interval(self, e_box: RationalInterval) -> RationalInterval:
        if self.op == "rat":
            return RationalInterval.point(self.value)
        if self.op == "e":
            return e_box
        if self.op == "neg":
            return -self.args[0]._eval_interval(e_box)
        if self.op == "pow":
            return self.args[0]._eval_interval(e_box).power(self.value)
        a = self.args[0]._eval_interval(e_box)
        b = self.args[1]._eval_interval(e_box)
        if self.op == "add":
            return a + b
        if self.op == "sub":
            return a - b
        if self.op == "mul":
            return a * b
        if self.op == "div":
            return a / b
        raise ValueError(f"unknown op {self.op!r}")

    def sign(self) -> int:
        """Exact sign: 0 only for the symbolic zero, else decided by
        tightening the enclosure until it clears zero."""
        if self.is_zero():
            return 0
        eps = Fraction(1, 4)
        for _ in range(220):
            s = self.enclosure(eps).definite_sign()
            if s != 0:
                return s
            eps /= 16
        raise BudgetExceededError("sign of constant did not resolve")

    # display --------------------------------------------------------------

    def text(self) -> str:
        """Canonical display, read off the reduced rational function of e."""
        num, den = self.e_fraction()
        ns = num.text("e")
        if den == Polynomial.constant(1):
            return ns
        return f"({ns}) / ({den.text('e')})"

    def __repr__(self) -> str:
        return f"ConstExpr({self.text()!r})"


# ---------------------------------------------------------------------------
# sums of rational multiples of e^s
#
# A sum is a dict {s: c} with rational s, meaning sum c * e^s. Such sums
# come up when an expression is evaluated at an exact rational point:
# every exp(.) collapses onto one e^s, so the value (and the difference
# of two sides) is a finite sum whose exact vanishing is read off the
# dict and whose sign is read off an enclosure of a single e^(1/D).
# Zero coefficients are never stored, so {} is exactly zero.

ExpSum = dict


def _sum_add(a: dict, b: dict, sgn: int) -> dict:
    """a + sgn*b on sparse sums; only the keys are merged, so any sparse
    coefficient dict (e^s sums, linear forms) can use it."""
    out = dict(a)
    for k, c in b.items():
        nc = out.get(k, Fraction(0)) + sgn * c
        if nc == 0:
            out.pop(k, None)
        else:
            out[k] = nc
    return out


def _sum_mul(a: ExpSum, b: ExpSum) -> ExpSum:
    out: ExpSum = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            nc = out.get(k, Fraction(0)) + ca * cb
            if nc == 0:
                out.pop(k, None)
            else:
                out[k] = nc
    return out


def _sum_reciprocal(b: ExpSum) -> ExpSum:
    """1/b, exact only for a single term c*e^s."""
    if not b:
        raise LoweringError("division by exact zero at this point")
    if len(b) > 1:
        raise LoweringError("division by a sum of exponentials is not exact")
    ((k, c),) = b.items()
    return {-k: 1 / c}


def _common_denominator(rationals: Iterable[Fraction]) -> int:
    """Least D > 0 with every r*D an integer."""
    return lcm(1, *(r.denominator for r in rationals))


def _interval_pow(base: RationalInterval, k: int, bits: int) -> RationalInterval:
    """base**k for a positive base interval, square-and-multiply with
    outward rounding after each product to keep digits bounded."""
    if k < 0:
        return _interval_pow(base.reciprocal().outward_round(bits), -k, bits)
    acc = RationalInterval.point(1)
    sq = base
    while k:
        if k & 1:
            acc = (acc * sq).outward_round(bits)
        k >>= 1
        if k:
            sq = (sq * sq).outward_round(bits)
    return acc


def lau_enclosure(a: ExpSum, eps) -> RationalInterval:
    """Enclose sum c * e^s to width < eps.

    With D the common denominator of the exponents, every e^s is an
    integer power of tau = e^(1/D), so one enclosure of tau serves all
    terms; it and the working precision tighten together until the sum
    is narrow enough.
    """
    eps = _rat(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if not a:
        return RationalInterval.point(0)
    denom = _common_denominator(a)
    powers = [(int(s * denom), c) for s, c in sorted(a.items())]
    # seed the schedule from the target: the first tau needs roughly the
    # requested precision already, and the working precision must exceed
    # -log2(eps) or outward rounding alone would defeat the tightening
    extra = (eps.denominator // max(abs(eps.numerator), 1)).bit_length()
    bits = 64 + extra
    tau_eps = eps / (1 << 16)
    for _ in range(60):
        tau = exp_enclosure(Fraction(1, denom), tau_eps)
        acc = RationalInterval.point(0)
        for k, c in powers:
            acc = acc + _interval_pow(tau, k, bits).scale(c)
        if acc.width < eps:
            return acc
        tau_eps /= 1 << 12
        bits += 48
    raise BudgetExceededError("exponential sum enclosure did not converge")


# ---------------------------------------------------------------------------
# decimal rendering without floats


def decimal_str(v, digits: int = 6) -> str:
    """Truncated decimal form of a rational, digits places after the point.

    Truncation (toward zero) rather than rounding, so the printed digits
    are always an exact prefix of the true expansion.
    """
    v = _rat(v)
    if digits < 0:
        raise PreconditionError("digits must be nonnegative")
    sign = "-" if v < 0 else ""
    v = abs(v)
    scaled = (v.numerator * 10**digits) // v.denominator
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(digits)}"
