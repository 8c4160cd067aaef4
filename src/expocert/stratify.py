"""Analysis of one-parameter families of exponential inequalities.

Three instruments, one theme (reduce a family question to things the
prover and the interval arithmetic can certify):

* `analyze_affine_family` handles families phi_p(x) = f(x) - p. Strict
  monotonicity of f is proven by running the positivity prover on the
  numerator and denominator of f'; the endpoint limits A < B of f then
  split the parameter line into three zones, and the minimax member sits
  exactly in the middle: p0 = (A+B)/2 with error d0 = (B-A)/2. A and B
  enter as exact expressions in e, and each is checked exactly against
  the limit of f at its endpoint (l'Hopital on exact values).

* `cascade_check` handles families with the parameter inside the
  exponent. It verifies the layered pattern "value and first derivative
  vanish identically at alpha = 0, deeper derivative positive for
  alpha > 0": the vanishing layers are checked symbolically, the deep
  layer per sampled rational alpha, by proof when the substitution stays
  an exact MEP and by certified pointwise evidence otherwise.

* `grid_check` classifies a two-parameter inequality on a rational grid.
  The difference of the sides is lowered once to a quotient num/den; at
  each point both collapse to exact finite sums of rational multiples of
  e^s, so ties are recognized symbolically (no amount of interval
  tightening could). A point's sign is sign(num) * sign(den), each read
  off coefficients of one sign or else off enclosures of a single
  e^(1/D), down to the grid's eps relative to the sum's largest term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from .arith import (
    ConstExpr,
    ExpSum,
    RationalInterval,
    _put,
    _sum_add,
    _sum_mul,
    exp_sum_sign,
)
from .errors import (
    BudgetExceededError,
    EndpointValidationError,
    LoweringError,
    MonotonicityUnprovenError,
    PreconditionError,
    SearchExhaustedError,
)
from .expr import InequalityAst, Node, exp_denominator, exp_sum_at, lower_grid
from .mep import ExpRational, Mep, _stretch, _value_sum, differentiate_quotient
from .poly import _power, _signed_sum
from .prover import (
    DEFAULT_MAX_L,
    PER_TERM,
    Certificate,
    _check_interval,
    prove_positive,
    prove_sign,
)

DECREASING = "decreasing"
INCREASING = "increasing"

# width of the reported enclosures of A, B, p0 and d0
CONSTANT_EPS = Fraction(1, 10**9)

# interior points signed for a cascade member that is not an exact MEP
EVIDENCE_SAMPLES = 7


# ---------------------------------------------------------------------------
# affine families phi_p = f - p


@dataclass(frozen=True)
class AffineFamily:
    """f together with its interval and claimed one-sided endpoint limits.

    The limits are exact expressions (rational functions of e); the
    analyzer does not derive them, it decides exactly whether they hold.
    """

    f: ExpRational
    interval: tuple[Fraction, Fraction]
    endpoint_a_value: ConstExpr
    endpoint_b_value: ConstExpr


@dataclass(frozen=True)
class ConstValue:
    expr: ConstExpr
    enclosure: RationalInterval

    def to_json_dict(self) -> dict:
        return {
            "expr": self.expr.text(),
            "enclosure": [str(self.enclosure.lo), str(self.enclosure.hi)],
        }


@dataclass(frozen=True)
class FamilyReport:
    monotone: str  # "decreasing" or "increasing"
    A: ConstValue  # smaller endpoint value of f
    B: ConstValue  # larger endpoint value of f
    p0: ConstValue  # (A+B)/2, the minimax parameter
    d0: ConstValue  # (B-A)/2, the minimax error
    derivative_certificate: Certificate
    denominator_certificate: Certificate
    derivative_sign: int

    def to_json_dict(self) -> dict:
        return {
            "monotone": self.monotone,
            "A": self.A.to_json_dict(),
            "B": self.B.to_json_dict(),
            "p0": self.p0.to_json_dict(),
            "d0": self.d0.to_json_dict(),
            "derivative_certificate": self.derivative_certificate.to_json_dict(),
        }


def _check_endpoint(f: ExpRational, at: Fraction, claimed: ConstExpr) -> None:
    """Decide exactly whether f(x) -> claimed as x -> at.

    The values of f's numerator N and denominator D at the rational point
    are exact sums of rational multiples of e^s. While D's value is zero,
    a nonzero N value means a pole; otherwise both are replaced by their
    derivatives (l'Hopital). N and D are entire and D is not the zero
    function, so this ends. The limit n/d then equals c_num/c_den exactly
    when n*c_den - c_num*d is the empty sum: distinct e^s are linearly
    independent over Q.
    """
    num, den = f.numerator, f.denominator
    m = at.denominator
    n, d = _value_sum(num, at, m), _value_sum(den, at, m)
    while not d:
        if n:
            raise EndpointValidationError(
                f"f has a pole at x = {at}, so it does not tend to {claimed.text()}"
            )
        num, den = num.differentiate(), den.differentiate()
        n, d = _value_sum(num, at, m), _value_sum(den, at, m)
    # the claimed sums are keyed over 1: put them over m as well
    c_num, c_den = ({k * m: c for k, c in p.items()} for p in claimed._checked())
    if _sum_add(_sum_mul(n, c_den), _sum_mul(c_num, d), -1):
        raise EndpointValidationError(f"f does not tend to {claimed.text()} at x = {at}")


def analyze_affine_family(fam: AffineFamily, max_l: int = DEFAULT_MAX_L) -> FamilyReport:
    """Full pipeline for phi_p = f - p: the exact endpoint limit test,
    the monotonicity proof, and the equioscillation constants. The cheap
    limit test runs first, so a wrong claim is refuted before any proof
    search.

    Stratification in p itself is trivial (d phi_p / d p = -1), so the
    real work is strict monotonicity of f in x: the quotient rule gives
    f' = N/D, then N and D each get a positivity certificate (possibly
    after negation) and sign(f') = sign(N) * sign(D). For decreasing f
    the infimum A is the right endpoint value and the supremum B the
    left one; increasing swaps them. p0 and d0 are formed symbolically,
    so p0 - A = B - p0 holds exactly, not just numerically.
    """
    a, b = _check_interval(fam.interval)

    _check_endpoint(fam.f, a, fam.endpoint_a_value)
    _check_endpoint(fam.f, b, fam.endpoint_b_value)

    deriv = differentiate_quotient(fam.f)
    try:
        num_sign, num_cert = prove_sign(deriv.numerator, (a, b), max_l, PER_TERM)
        den_sign, den_cert = prove_sign(deriv.denominator, (a, b), max_l, PER_TERM)
    except SearchExhaustedError as exc:
        raise MonotonicityUnprovenError(
            f"neither sign certified up to max_l = {max_l}: {exc}"
        ) from exc
    slope = num_sign * den_sign
    monotone = INCREASING if slope > 0 else DECREASING

    if monotone == DECREASING:
        a_expr, b_expr = fam.endpoint_b_value, fam.endpoint_a_value
    else:
        a_expr, b_expr = fam.endpoint_a_value, fam.endpoint_b_value
    gap = b_expr - a_expr
    if gap.sign() != 1:
        raise EndpointValidationError(
            "endpoint values are inconsistent with the proven monotonicity"
        )
    p0_expr = (a_expr + b_expr) / 2
    d0_expr = (b_expr - a_expr) / 2

    w = CONSTANT_EPS
    while True:
        a_box = a_expr.enclosure(w)
        b_box = b_expr.enclosure(w)
        if a_box.hi < b_box.lo:
            break
        w /= 16
    return FamilyReport(
        monotone=monotone,
        A=ConstValue(a_expr, a_box),
        B=ConstValue(b_expr, b_box),
        p0=ConstValue(p0_expr, p0_expr.enclosure(CONSTANT_EPS)),
        d0=ConstValue(d0_expr, d0_expr.enclosure(CONSTANT_EPS)),
        derivative_certificate=num_cert,
        denominator_certificate=den_cert,
        derivative_sign=slope,
    )


# ---------------------------------------------------------------------------
# parameter-in-the-exponent families


@dataclass(frozen=True)
class ParamTerm:
    """c * x^p * alpha^r * exp(-alpha*(u*x + v))."""

    c: Fraction
    p: int
    r: int
    u: Fraction
    v: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "u", Fraction(self.u))
        object.__setattr__(self, "v", Fraction(self.v))
        if self.p < 0 or self.r < 0:
            raise PreconditionError("powers p and r must be nonnegative")


class ParamExpFamily:
    """Finite sum of ParamTerms; closed under d/dalpha and substitution."""

    __slots__ = ("terms",)

    terms: tuple[ParamTerm, ...]

    def __init__(self, terms=()):
        merged: dict[tuple, Fraction] = {}
        for t in terms:
            if not isinstance(t, ParamTerm):
                t = ParamTerm(*t)
            _put(merged, (t.p, t.r, t.u, t.v), t.c)
        object.__setattr__(
            self,
            "terms",
            tuple(
                ParamTerm(c, p, r, u, v)
                for (p, r, u, v), c in sorted(merged.items())
            ),
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ParamExpFamily is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamExpFamily) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def diff_alpha(self) -> "ParamExpFamily":
        """d/dalpha, term by term:

        d/da [c x^p a^r e^(-a(ux+v))]
            = c r x^p a^(r-1) e^(...) - c x^p a^r (ux + v) e^(...)
        """
        out: list[ParamTerm] = []
        for t in self.terms:
            if t.r:
                out.append(ParamTerm(t.c * t.r, t.p, t.r - 1, t.u, t.v))
            if t.u:
                out.append(ParamTerm(-t.c * t.u, t.p + 1, t.r, t.u, t.v))
            if t.v:
                out.append(ParamTerm(-t.c * t.v, t.p, t.r, t.u, t.v))
        return ParamExpFamily(out)

    def substitute_x(self, x0) -> "ParamExpFamily":
        """Collapse the x dependence at a rational point; the result is a
        function of alpha alone (terms with u = 0 and folded powers)."""
        x0 = Fraction(x0)
        out = [
            ParamTerm(t.c * x0**t.p, 0, t.r, Fraction(0), t.u * x0 + t.v)
            for t in self.terms
        ]
        return ParamExpFamily(out)

    def text(self) -> str:
        return _signed_sum(
            (t.c, _power("x", t.p) + _power("alpha", t.r)
             + ([f"exp(-alpha*({t.u}*x + {t.v}))"] if t.u or t.v else []))
            for t in self.terms
        )

    def __repr__(self) -> str:
        return f"ParamExpFamily({self.text()!r})"


@dataclass(frozen=True)
class AlphaSubstitution:
    """Family member at a fixed rational alpha0.

    The value in the stretched variable z = x/stretch is

        pure(z) + sum over offsets (w, M):  e^(-w) * M(z).

    With no offsets (w = alpha0*v all zero) the member is an exact MEP
    and full proof machinery applies; otherwise the irrational constants
    e^(-w) force enclosure-based treatment.
    """

    pure: Mep
    offsets: tuple[tuple[Fraction, Mep], ...]
    stretch: int

    @property
    def exact(self) -> bool:
        return not self.offsets


def substitute_alpha(fam: ParamExpFamily, alpha0) -> AlphaSubstitution:
    """Fix alpha = alpha0 >= 0.

    alpha0 = 0 kills every term with r >= 1 and turns the rest into the
    plain polynomial sum c x^p: an exact MEP, no offsets, stretch 1.
    For alpha0 > 0 the exponent splits as alpha0*u*x + alpha0*v: the x
    part gives rational exponential powers q = alpha0*u (made integral by
    one shared variable stretch), the constant part groups terms by
    w = alpha0*v.
    """
    alpha0 = Fraction(alpha0)
    if alpha0 < 0:
        raise PreconditionError("alpha0 must be nonnegative")
    if alpha0 == 0:
        pure = Mep(
            [(t.c, t.p, 0) for t in fam.terms if t.r == 0]
        )
        return AlphaSubstitution(pure=pure, offsets=(), stretch=1)

    by_w: dict[Fraction, list] = {}
    for t in fam.terms:
        q = alpha0 * t.u
        if q < 0:
            raise PreconditionError(
                "alpha0*u < 0 produces a growing exponential; not supported"
            )
        coeff = t.c * alpha0**t.r
        by_w.setdefault(alpha0 * t.v, []).append((coeff, t.p, q))
    ws = sorted(by_w)
    stretch, groups = _stretch([by_w[w] for w in ws])
    pure = Mep()
    offsets = []
    for w, terms in zip(ws, groups):
        mep = Mep(terms)
        if w == 0:
            pure = mep
        elif not mep.is_zero:
            offsets.append((w, mep))
    return AlphaSubstitution(pure=pure, offsets=tuple(offsets), stretch=stretch)


@dataclass(frozen=True)
class CascadeStep:
    level: int
    kind: str  # "exact-zero", "proof", "evidence"
    alpha: Optional[Fraction]
    passed: bool
    detail: str


@dataclass(frozen=True)
class CascadeReport:
    steps: tuple[CascadeStep, ...]
    depth: int

    @property
    def ok(self) -> bool:
        return all(s.passed for s in self.steps)


def _member_sign_evidence(
    sub: AlphaSubstitution, z_interval: tuple[Fraction, Fraction]
) -> tuple[bool, str]:
    """Certified pointwise signs of pure(z) + sum e^(-w) M_w(z).

    Every sampled value is an exact finite combination of rational powers
    of e, so its exact sign comes from exp_sum_sign; an exact zero is
    acceptable for the non-strict cascade.
    """
    lo, hi = z_interval
    step = (hi - lo) / (EVIDENCE_SAMPLES + 1)
    for i in range(1, EVIDENCE_SAMPLES + 1):
        z = lo + i * step
        m = lcm(z.denominator, *(w.denominator for w, _ in sub.offsets))
        value = _value_sum(sub.pure, z, m)
        for w, mep in sub.offsets:
            shift = w.numerator * (m // w.denominator)
            shifted = {k - shift: c for k, c in _value_sum(mep, z, m).items()}
            value = _sum_add(value, shifted, 1)
        try:
            sgn = exp_sum_sign(value, m)
        except BudgetExceededError:
            return False, f"enclosure budget exhausted at z = {z}"
        if sgn < 0:
            return False, f"certified negative value at z = {z}"
    return True, f"positive at {EVIDENCE_SAMPLES} interior points"


def cascade_check(
    fam: ParamExpFamily, x_interval, alpha_samples: Sequence
) -> CascadeReport:
    """Verify the layered monotonicity pattern in the parameter.

    Layers 0 .. depth-1 must vanish identically at alpha = 0 (checked
    symbolically); the layer at `depth` must be nonnegative for positive
    alpha, checked at each sampled alpha either by a positivity proof
    (exact MEP case; reported as "proof") or by certified enclosures at
    interior points (reported as "evidence"). depth is 2 unless the
    second derivative degenerates to the zero family, in which case the
    deepest nonvanishing layer is used.
    """
    a, b = _check_interval(x_interval)
    levels = [fam, fam.diff_alpha()]
    levels.append(levels[-1].diff_alpha())
    depth = 2
    while depth > 0 and levels[depth].is_zero:
        depth -= 1
    steps: list[CascadeStep] = []
    if levels[depth].is_zero:
        steps.append(
            CascadeStep(0, "exact-zero", None, True, "family is identically zero")
        )
        return CascadeReport(steps=tuple(steps), depth=0)

    for k in range(depth):
        at_zero = substitute_alpha(levels[k], 0).pure
        if at_zero.is_zero:
            steps.append(
                CascadeStep(k, "exact-zero", None, True, "vanishes at alpha = 0")
            )
        else:
            steps.append(
                CascadeStep(
                    k, "exact-zero", None, False,
                    f"nonzero at alpha = 0: {at_zero.text()}",
                )
            )

    for alpha0 in alpha_samples:
        alpha0 = Fraction(alpha0)
        if alpha0 <= 0:
            raise PreconditionError("alpha samples must be positive")
        sub = substitute_alpha(levels[depth], alpha0)
        z_iv = (a / sub.stretch, b / sub.stretch)
        if sub.exact:
            if sub.pure.is_zero:
                steps.append(
                    CascadeStep(depth, "proof", alpha0, True, "identically zero")
                )
                continue
            try:
                cert = prove_positive(sub.pure, z_iv, DEFAULT_MAX_L, PER_TERM)
                steps.append(
                    CascadeStep(
                        depth, "proof", alpha0, True,
                        f"positivity certificate, deg P = {cert.poly.degree}",
                    )
                )
            except SearchExhaustedError as exc:
                steps.append(
                    CascadeStep(depth, "proof", alpha0, False, str(exc))
                )
        else:
            ok, detail = _member_sign_evidence(sub, z_iv)
            steps.append(CascadeStep(depth, "evidence", alpha0, ok, detail))
    return CascadeReport(steps=tuple(steps), depth=depth)


# ---------------------------------------------------------------------------
# two-parameter grids


@dataclass(frozen=True)
class GridReport:
    holds_at: tuple[tuple[Fraction, Fraction], ...]
    fails_at: tuple[tuple[Fraction, Fraction], ...]
    undecided_at: tuple[tuple[Fraction, Fraction], ...]

    @property
    def total(self) -> int:
        return len(self.holds_at) + len(self.fails_at) + len(self.undecided_at)

    def to_json_dict(self) -> dict:
        def fmt(points):
            return [[str(x), str(a)] for x, a in points]

        return {
            "holds_at": fmt(self.holds_at),
            "fails_at": fmt(self.fails_at),
            "undecided_at": fmt(self.undecided_at),
        }


def _axis(lo: Fraction, hi: Fraction, n: int) -> list[Fraction]:
    if n < 2:
        raise PreconditionError("steps must be >= 2 per axis")
    if lo > hi:
        raise PreconditionError("range endpoints out of order")
    if lo == hi:
        raise PreconditionError("degenerate range")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def grid_check(
    ineq: InequalityAst,
    x_range,
    a_range,
    steps: Union[int, tuple],
    eps: Fraction = Fraction(1, 10**30),
) -> GridReport:
    """Classify the inequality at every point of a rational grid.

    `steps` counts grid points per axis (one int for both, or a pair
    (nx, na)); endpoints inclusive. The difference of the two sides is
    lowered once (expr.lower_grid), and at each point its numerator and
    denominator become exact sums of rational multiples of powers of e,
    on integer keys over the command's one exponent denominator
    (expr.exp_denominator). Every point takes the sign of the numerator
    times that of the denominator (exp_sum_sign with eps as its floor);
    an exactly zero denominator, or a sign(...) argument that divides by
    zero, leaves the point undecided. Cancellation to zero is detected
    symbolically, so equality rows of non-strict inequalities classify
    as holds no matter how close the sides are. A sum whose coefficients
    share one sign is signed outright; any other is enclosed at widths
    2^-16, 2^-32, ... while they stay above eps, then at eps, each
    relative to the sum's largest term, and stops at the first enclosure
    that clears zero. A sum still unsigned at eps leaves the point
    undecided (reported, never fatal). eps must be positive.
    """
    if isinstance(steps, tuple):
        nx, na = steps
    else:
        nx = na = steps
    xs = _axis(Fraction(x_range[0]), Fraction(x_range[1]), int(nx))
    as_ = _axis(Fraction(a_range[0]), Fraction(a_range[1]), int(na))
    strict = ineq.strict
    want_less = ineq.cmp in ("<", "<=")

    form = lower_grid(Node("sub", (ineq.left, ineq.right)))
    m = exp_denominator(form, xs, as_)  # every exponent of the command over m
    taus: dict = {}  # the e^(1/D) enclosures of this command, for lau_enclosure

    holds: list[tuple[Fraction, Fraction]] = []
    fails: list[tuple[Fraction, Fraction]] = []
    undecided: list[tuple[Fraction, Fraction]] = []
    for xv in xs:
        for av in as_:
            try:
                sgn = _point_sign(*exp_sum_at(form, xv, av, m), m, eps, taus)
            except (LoweringError, BudgetExceededError):
                undecided.append((xv, av))
                continue
            if sgn == 0:
                (fails if strict else holds).append((xv, av))
            elif (sgn < 0) == want_less:
                holds.append((xv, av))
            else:
                fails.append((xv, av))
    return GridReport(
        holds_at=tuple(holds),
        fails_at=tuple(fails),
        undecided_at=tuple(undecided),
    )


def _point_sign(num: ExpSum, den: ExpSum, m: int, eps: Fraction, taus: dict) -> int:
    """Sign of num/den at one grid point, both keyed over m as exp_sum_at
    gives them: sign(num) * sign(den). An exactly zero den raises
    LoweringError."""
    if not den:
        raise LoweringError("division by exact zero at this point")
    sgn = exp_sum_sign(num, m, eps, taus)
    return sgn and sgn * exp_sum_sign(den, m, eps, taus)
