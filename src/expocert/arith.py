"""Exact interval arithmetic, sums of rational multiples of e^s, and
constants in e.

Everything here is built from rational endpoints. The only transcendental
that ever enters is e, and it enters through one gate: the alternating
Maclaurin bracket

    T_{2m-1}(t) < exp(-t) < T_{2m}(t)    for rational t > 0,

whose width t^(2m)/(2m)! is an exact rational. `_brackets` walks it on
integers over one denominator (2m)!*r^(2m) for t = p/r, and a Fraction is
built only for the interval returned.

A value taken at a rational point is an exact finite sum of rational
multiples of e^s (ExpSum), or a quotient of two: an MEP at a point, a
grid point's two sides, a constant in e (ConstExpr). Distinct e^s are
linearly independent over Q, so such a sum is zero only when it has no
terms. `lau_enclosure` encloses every sum through powers of one
tau = e^(1/D) with 1/D <= 1, so a large |s| needs no high Maclaurin
order, and computes on integer mantissas rounded outward; a caller that
signs many sums, such as one grid command, passes it a table of the tau
enclosures made so far, so each is made once; `exp_sum_sign`
reads the sign of a one-signed sum off its coefficients and otherwise
tightens the enclosure until it clears zero, down to a width floor, and
`quotient_enclosure` divides two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable

from .errors import (
    BudgetExceededError,
    DivisionByPossiblyZeroError,
    LoweringError,
    PreconditionError,
)
from .poly import Polynomial, _as_fraction, poly_gcd

MACLAURIN_ORDER_CAP = 200


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_fraction(self.lo))
        object.__setattr__(self, "hi", _as_fraction(self.hi))
        if self.lo > self.hi:
            raise PreconditionError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, v) -> "RationalInterval":
        v = _as_fraction(v)
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

    def __mul__(self, other: "RationalInterval") -> "RationalInterval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RationalInterval(min(products), max(products))

    def reciprocal(self) -> "RationalInterval":
        if self.definite_sign() == 0:
            raise DivisionByPossiblyZeroError(
                f"interval [{self.lo}, {self.hi}] may contain zero"
            )
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: "RationalInterval") -> "RationalInterval":
        return self * other.reciprocal()

    def mantissas(self, bits: int) -> tuple[int, int]:
        """floor(lo * 2**bits) and ceil(hi * 2**bits): the integer mantissas
        of the narrowest interval over 2**-bits that contains this one."""
        lo_n = self.lo.numerator << bits
        hi_n = self.hi.numerator << bits
        return lo_n // self.lo.denominator, -((-hi_n) // self.hi.denominator)

    def __repr__(self) -> str:
        return f"RationalInterval({self.lo}, {self.hi})"


# ---------------------------------------------------------------------------
# the exp(-t) bracket


def _brackets(t: Fraction):
    """Yield integers (A, B, Q, W) for m = 1, 2, ... up to
    MACLAURIN_ORDER_CAP, with T_{2m-1}(t) = A/Q, T_{2m}(t) = B/Q and the
    width t^(2m)/(2m)! = W/Q, so A = B - W.

    For t = p/r, S_n = Q_n * T_n(t) over Q_n = n! * r^n satisfies
    S_n = n*r*S_{n-1} + (-p)^n, so the walk takes only integer products
    and the callers compare on integers, building Fractions only for the
    interval they return."""
    p, r = t.numerator, t.denominator
    s = q = w = 1  # S_0, Q_0, p^0
    for n in range(2, 2 * MACLAURIN_ORDER_CAP + 1, 2):
        k = (n - 1) * r
        s = n * r * (k * s - w * p)  # through S_{n-1}, whose last term is -p^(n-1)
        q *= k * n * r
        w *= p * p
        s += w
        yield s - w, s, q, w


def enclose_exp_neg(t, eps, m_force: int | None = None) -> RationalInterval:
    """Enclose exp(-t) for rational t >= 0 in [T_{2m-1}(t), T_{2m}(t)].

    m is the smallest index that makes the bracket width
    t^(2m)/(2m)! smaller than eps, unless m_force pins it. t = 0 gives
    the exact point [1, 1].

    Raises BudgetExceededError if no m <= 200 is tight enough.
    """
    t = _as_fraction(t)
    eps = _as_fraction(eps)
    if t < 0:
        raise PreconditionError("enclose_exp_neg needs t >= 0")
    if eps <= 0 and m_force is None:
        raise PreconditionError("eps must be positive")
    if t == 0:
        return RationalInterval.point(1)
    en, ed = eps.numerator, eps.denominator
    for m, (a, b, q, w) in enumerate(_brackets(t), 1):
        if (w * ed < en * q) if m_force is None else (m == m_force):
            return RationalInterval(Fraction(a, q), Fraction(b, q))
    raise BudgetExceededError(f"exp(-{t}) not enclosed to width {eps} within order cap")


def exp_enclosure(s, eps) -> RationalInterval:
    """Enclose exp(s) for a rational s of either sign, to width < eps.

    Positive s goes through the reciprocal of the exp(-s) bracket: from
    the first bracket narrower than eps (1/2 if eps >= 1) on, the partial
    sum is extended until the reciprocal [Q/B, Q/A] is narrow enough,
    that is until A > 0 and Q*W/(A*B) < eps, all read on integers.
    """
    s = _as_fraction(s)
    eps = _as_fraction(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if s <= 0:
        return enclose_exp_neg(-s, eps)
    inner = eps if eps < 1 else Fraction(1, 2)
    inn, ind = inner.numerator, inner.denominator
    en, ed = eps.numerator, eps.denominator
    for a, b, q, w in _brackets(s):
        if ind * w < inn * q and a > 0 and q * w * ed < en * a * b:
            return RationalInterval(Fraction(q, b), Fraction(q, a))
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

# exp_sum_sign tries widths 2^-16, 2^-32, ... down to 2^-SIGN_BITS_CAP by default
SIGN_BITS_CAP = 2048


def _put(out: dict, key, c: Fraction) -> None:
    """Add c at key in a sparse sum, dropping the key when its coefficient
    comes to zero: the one place any sparse sum is merged. A new key is
    hashed once; whether it was new is read off len(out), not off the
    identity of the stored value."""
    n = len(out)
    prev = out.setdefault(key, c)
    if len(out) > n:
        if not c:
            del out[key]
        return
    c = prev + c
    if c:
        out[key] = c
    else:
        del out[key]


def _sum_add(a: dict, b: dict, sgn: int) -> dict:
    """a + sgn*b on sparse sums; only the keys are merged, so any sparse
    coefficient dict (e^s sums, the lowering's monomial sums, linear
    forms) can use it."""
    out = dict(a)
    for k, c in b.items():
        _put(out, k, sgn * c)
    return out


def _sum_mul(a: dict, b: dict, join=add) -> dict:
    """a * b on sparse sums; join(ka, kb) is the key of a product of two
    terms: + for e^s sums, expr._mono_mul for the lowering's monomials and
    expr._degrees for exp-argument forms."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            _put(out, join(ka, kb), ca * cb)
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


def _mantissa_pow(lo: int, hi: int, k: int, bits: int) -> tuple[int, int]:
    """[lo, hi] / 2**bits raised to an integer k, for 0 < lo <= hi, as
    mantissas over 2**bits. A negative k starts from the reciprocal. Then
    square-and-multiply shifts each product back to 2**-bits, floor for lo
    and ceiling for hi, so digits stay bounded and the result encloses
    every power."""
    acc_lo = acc_hi = one = 1 << bits
    if k < 0:
        lo, hi, k = one * one // hi, -(-one * one // lo), -k
    while k:
        if k & 1:
            acc_lo = (acc_lo * lo) >> bits
            acc_hi = -((-acc_hi * hi) >> bits)
        k >>= 1
        if k:
            lo = (lo * lo) >> bits
            hi = -((-hi * hi) >> bits)
    return acc_lo, acc_hi


def lau_enclosure(a: ExpSum, eps, taus: dict | None = None) -> RationalInterval:
    """Enclose sum c * e^s to width < eps.

    With D the common denominator of the exponents, every e^s is an
    integer power of tau = e^(1/D), so one enclosure of tau serves all
    terms; it and the working precision tighten together until the sum
    is narrow enough. Each round runs on integer mantissas over 2**bits:
    tau, its powers and each term c * tau^k are rounded outward (floor
    for the lower end, ceiling for the upper), then summed as ints.

    `taus`, if given, is a table of the tau enclosures already made,
    keyed by (D, width): a caller that signs many sums, as grid_check
    does for one command, passes one dict to all of them, and each tau
    is enclosed once. The result is the same with or without it.
    """
    eps = _as_fraction(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if set(a) <= {0}:  # no e^s with s != 0: the value is exact
        return RationalInterval.point(a.get(0, 0))
    if taus is None:
        taus = {}
    denom = _common_denominator(a)
    powers = [(int(s * denom), c.numerator, c.denominator) for s, c in a.items()]
    # seed the schedule from the target: the first tau needs roughly the
    # requested precision already, and the working precision must exceed
    # -log2(eps) or outward rounding alone would defeat the tightening
    extra = (eps.denominator // max(abs(eps.numerator), 1)).bit_length()
    bits = 64 + extra
    tau_eps = eps / (1 << 16)
    for _ in range(60):
        tau = taus.get((denom, tau_eps))
        if tau is None:
            tau = taus[denom, tau_eps] = exp_enclosure(Fraction(1, denom), tau_eps)
        lo, hi = tau.mantissas(bits)
        lo_sum = hi_sum = 0
        for k, n, d in powers:
            p_lo, p_hi = _mantissa_pow(lo, hi, k, bits)
            if n < 0:
                p_lo, p_hi = p_hi, p_lo
            lo_sum += p_lo * n // d
            hi_sum -= -p_hi * n // d
        if (hi_sum - lo_sum) * eps.denominator < eps.numerator << bits:
            one = 1 << bits
            return RationalInterval(Fraction(lo_sum, one), Fraction(hi_sum, one))
        tau_eps /= 1 << 12
        bits += 48
    raise BudgetExceededError("exponential sum enclosure did not converge")


def exp_sum_sign(
    a: ExpSum, eps=Fraction(1, 1 << SIGN_BITS_CAP), taus: dict | None = None
) -> int:
    """Exact sign of sum c * e^s: 0 for {} and only for {}.

    Every e^s is positive, so coefficients of one sign give the sign
    outright, however small the value. Otherwise distinct e^s are linearly
    independent over Q (Lindemann-Weierstrass), so a nonempty sum is
    nonzero and a narrow enough lau_enclosure clears zero. The width
    starts at 2^-16 and is squared while it stays above eps, then eps is
    tried; a mixed-sign value no width down to eps signs raises
    BudgetExceededError. `taus` is passed on to lau_enclosure.
    """
    if not a:
        return 0
    if all(c > 0 for c in a.values()):
        return 1
    if all(c < 0 for c in a.values()):
        return -1
    eps = _as_fraction(eps)
    bits = 16
    while True:
        width = max(Fraction(1, 1 << bits), eps)
        sgn = lau_enclosure(a, width, taus).definite_sign()
        if sgn:
            return sgn
        if width == eps:
            break
        bits *= 2
    shown = f"2^-{bits}" if eps == Fraction(1, 1 << bits) else str(eps)
    raise BudgetExceededError(
        f"sign of a nonzero exponential sum not resolved at width {shown}"
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
    eps = delta = _as_fraction(eps)
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

    expr.to_const builds one from an expression; +, - and / combine the
    pairs by the fraction rules, without reduction. A sum is zero exactly
    when its dict is empty (see exp_sum_sign), so exact zeroness and the
    sign are decided outright, and the value is enclosed by
    quotient_enclosure like any quotient of sums. Dividing by an exact zero
    leaves den = {}, which raises DivisionByPossiblyZeroError when the
    value is used.
    """

    num: ExpSum
    den: ExpSum

    # construction ------------------------------------------------------

    @classmethod
    def rational(cls, q) -> "ConstExpr":
        q = _as_fraction(q)
        return cls({Fraction(0): q} if q else {}, _ONE)

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

    def __truediv__(self, other):
        other = self._coerce(other)
        return ConstExpr(_sum_mul(self.num, other.den), _sum_mul(self.den, other.num))

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
    v = _as_fraction(v)
    if digits < 0:
        raise PreconditionError("digits must be nonnegative")
    sign = "-" if v < 0 else ""
    v = abs(v)
    scaled = (v.numerator * 10**digits) // v.denominator
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(digits)}"
