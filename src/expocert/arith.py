"""Exact interval arithmetic, sums of rational multiples of e^s, and
constants in e.

Everything here is built from rational endpoints. The only transcendental
that ever enters is e, and it enters through one gate: the alternating
Maclaurin bracket

    T_{2m-1}(t) < exp(-t) < T_{2m}(t)    for rational t > 0,

whose width t^(2m)/(2m)! is an exact rational.

A value taken at a rational point is an exact finite sum of rational
multiples of e^s (ExpSum), or a quotient of two: an MEP at a point, a
grid point's two sides, a constant in e (ConstExpr). Distinct e^s are
linearly independent over Q, so such a sum is zero only when it has no
terms. `lau_enclosure` encloses every sum through powers of one
tau = e^(1/D) with 1/D <= 1, so a large |s| needs no high Maclaurin
order; `exp_sum_sign` reads the sign of a one-signed sum off its
coefficients and otherwise tightens the enclosure until it clears zero,
and `quotient_enclosure` divides two.
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

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

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


def _brackets(t: Fraction):
    """Yield (T_{2m-1}(t), T_{2m}(t), t^(2m)/(2m)!) for m = 1, 2, ... up
    to MACLAURIN_ORDER_CAP, each extending the previous partial sum by two
    terms."""
    acc = Fraction(1)
    term = Fraction(1)
    for k in range(1, 2 * MACLAURIN_ORDER_CAP + 1):
        term *= -t / k
        acc += term
        if k % 2 == 0:  # the last term added is +t^(2m)/(2m)!
            yield acc - term, acc, term


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
    for m, (lo, hi, width) in enumerate(_brackets(t), 1):
        if (width < eps) if m_force is None else (m == m_force):
            return RationalInterval(lo, hi)
    raise BudgetExceededError(f"exp(-{t}) not enclosed to width {eps} within order cap")


def exp_enclosure(s, eps) -> RationalInterval:
    """Enclose exp(s) for a rational s of either sign, to width < eps.

    Positive s goes through the reciprocal of the exp(-s) bracket: from
    the first bracket narrower than eps (1/2 if eps >= 1) on, the partial
    sum is extended until the reciprocal is narrow enough.
    """
    s = _rat(s)
    eps = _rat(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if s <= 0:
        return enclose_exp_neg(-s, eps)
    inner = eps if eps < 1 else Fraction(1, 2)
    for lo, hi, width in _brackets(s):
        if width < inner and lo > 0 and 1 / lo - 1 / hi < eps:
            return RationalInterval(1 / hi, 1 / lo)
    raise BudgetExceededError(f"exp({s}) not enclosed to width {eps} within order cap")


# ---------------------------------------------------------------------------
# sums of rational multiples of e^s
#
# A sum is a dict {s: c} with rational s, meaning sum c * e^s. Such sums
# come up whenever a value is taken at an exact rational point: every
# exp(.) collapses onto one e^s, so the value (and the difference of two
# sides) is a finite sum whose exact vanishing is read off the dict and
# whose sign is read off an enclosure of a single e^(1/D). Zero
# coefficients are never stored, so {} is exactly zero.

ExpSum = dict

_ONE: ExpSum = {Fraction(0): Fraction(1)}

# exp_sum_sign tries widths 2^-16, 2^-32, ... down to 2^-SIGN_BITS_CAP
SIGN_BITS_CAP = 2048


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


def _sum_pow(a: ExpSum, k: int) -> ExpSum:
    """a**k for an integer k >= 0, by squaring."""
    out: ExpSum = {Fraction(0): Fraction(1)}
    while k:
        if k & 1:
            out = _sum_mul(out, a)
        k >>= 1
        if k:
            a = _sum_mul(a, a)
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
    if set(a) <= {0}:  # no e^s with s != 0: the value is exact
        return RationalInterval.point(a.get(0, 0))
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


def exp_sum_sign(a: ExpSum) -> int:
    """Exact sign of sum c * e^s: 0 for {} and only for {}.

    Every e^s is positive, so coefficients of one sign give the sign
    outright, however small the value. Otherwise distinct e^s are linearly
    independent over Q (Lindemann-Weierstrass), so a nonempty sum is
    nonzero and a narrow enough lau_enclosure clears zero. The width is
    squared until it does; a mixed-sign value smaller than
    2^-SIGN_BITS_CAP raises BudgetExceededError.
    """
    if not a:
        return 0
    if all(c > 0 for c in a.values()):
        return 1
    if all(c < 0 for c in a.values()):
        return -1
    bits = 16
    while bits <= SIGN_BITS_CAP:
        sgn = lau_enclosure(a, Fraction(1, 1 << bits)).definite_sign()
        if sgn:
            return sgn
        bits *= 2
    raise BudgetExceededError(
        f"sign of a nonzero exponential sum not resolved at width 2^-{SIGN_BITS_CAP}"
    )


def quotient_enclosure(num: ExpSum, den: ExpSum, eps) -> RationalInterval:
    """Enclose (sum num) / (sum den) to width < eps.

    The working width shrinks until den's enclosure clears zero, then by
    the factor the quotient missed eps by. An exactly zero den raises
    DivisionByPossiblyZeroError; any other den is nonzero (see
    exp_sum_sign), so only lau_enclosure's budget can end the loop early.
    """
    if not den:
        raise DivisionByPossiblyZeroError("division by an exact zero")
    eps = delta = _rat(eps)
    while True:
        d = lau_enclosure(den, delta)
        if not d.definite_sign():
            delta /= 1 << 8
            continue
        box = lau_enclosure(num, delta) / d
        if box.width < eps:
            return box
        delta /= 2 << int(box.width / eps).bit_length()


# ---------------------------------------------------------------------------
# constants over Q and e


def _e_poly(a: ExpSum) -> Polynomial:
    """A sum over integer powers e^k, k >= 0, as a polynomial in e."""
    top = int(max(a, default=0))
    return Polynomial([a.get(k, Fraction(0)) for k in range(top + 1)])


@dataclass(frozen=True, eq=False)
class ConstExpr:
    """A rational function of e, held exactly as a quotient num/den of two
    sums over integer powers of e (ExpSum dicts with exponents >= 0).

    +, -, *, / and integer powers combine the pairs by the fraction rules,
    without reduction. A sum is zero exactly when its dict is empty (see
    exp_sum_sign), so exact zeroness and the sign are decided outright, and
    the value is enclosed by quotient_enclosure like any quotient of sums.
    Dividing by an exact zero leaves den = {}, which raises
    DivisionByPossiblyZeroError when the value is used.
    """

    num: ExpSum
    den: ExpSum

    # construction ------------------------------------------------------

    @classmethod
    def rational(cls, q) -> "ConstExpr":
        q = _rat(q)
        return cls({Fraction(0): q} if q else {}, _ONE)

    @classmethod
    def e(cls) -> "ConstExpr":
        return cls({Fraction(1): Fraction(1)}, _ONE)

    @staticmethod
    def _coerce(v) -> "ConstExpr":
        if isinstance(v, ConstExpr):
            return v
        return ConstExpr.rational(v)

    def _add(self, other: "ConstExpr", sgn: int) -> "ConstExpr":
        return ConstExpr(
            _sum_add(_sum_mul(self.num, other.den), _sum_mul(other.num, self.den), sgn),
            _sum_mul(self.den, other.den),
        )

    def __add__(self, other):
        return self._add(self._coerce(other), 1)

    def __sub__(self, other):
        return self._add(self._coerce(other), -1)

    def __mul__(self, other):
        other = self._coerce(other)
        return ConstExpr(_sum_mul(self.num, other.num), _sum_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return ConstExpr(_sum_mul(self.num, other.den), _sum_mul(self.den, other.num))

    def __neg__(self):
        return ConstExpr({k: -c for k, c in self.num.items()}, self.den)

    def __pow__(self, n: int):
        if not self.den:
            return self
        num, den = (self.num, self.den) if n >= 0 else (self.den, self.num)
        return ConstExpr(_sum_pow(num, abs(n)), _sum_pow(den, abs(n)))

    def _checked(self) -> tuple[ExpSum, ExpSum]:
        if not self.den:
            raise DivisionByPossiblyZeroError("division by exact zero constant")
        return self.num, self.den

    # exact view ----------------------------------------------------------

    def e_fraction(self) -> tuple[Polynomial, Polynomial]:
        """(num, den) with self = num(e)/den(e), reduced, den(e) not the
        zero polynomial and with positive leading coefficient."""
        num, den = (_e_poly(a) for a in self._checked())
        if num.is_zero:
            return Polynomial.zero(), Polynomial.constant(1)
        g = poly_gcd(num, den)
        num = num.divmod(g)[0]
        den = den.divmod(g)[0]
        if den.leading < 0:
            num, den = -num, -den
        return num, den

    def is_zero(self) -> bool:
        return not self._checked()[0]

    def sign(self) -> int:
        num, den = self._checked()
        return exp_sum_sign(num) * exp_sum_sign(den)

    # numeric view --------------------------------------------------------

    def enclosure(self, eps) -> RationalInterval:
        """Certified enclosure of width < eps."""
        return quotient_enclosure(*self._checked(), eps)

    # display --------------------------------------------------------------

    def text(self) -> str:
        """Canonical display, read off the reduced rational function of e."""
        num, den = self.e_fraction()
        ns = num.text("e")
        if den == Polynomial.constant(1):
            return ns
        return f"({ns}) / ({den.text('e')})"


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
