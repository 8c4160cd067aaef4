"""Positivity prover for mixed exponential polynomials.

The method: in f(x) = sum alpha x^p (e^(-x))^q, replace each exponential
factor by a Maclaurin polynomial T_theta(qx) whose parity is chosen
against the sign of its coefficient (odd order under positive
coefficients, even under negative). Every replacement can only lower the
value on x > 0, so the resulting ordinary polynomial P satisfies
f(x) > P(x) there, except that a pure polynomial passes through exactly.
If P > 0 is certified on the interval, f > 0 follows, and everything
needed to re-check that conclusion is packaged as a Certificate.

Descartes proves, Sturm verifies. The search decides P > 0 with
`is_positive_on`: exact samples, then Descartes' rule of signs with
bisection. The verifier rebuilds P from scratch in Fractions and decides
it with a Sturm chain, so the two share no decision kernel. A certificate
records no Sturm data: its v_a, v_b and endpoint_adjust are derived from
its P when read.

The search over Taylor orders is deliberately dumb: one shared depth l
for every bounded unit, deepened until P is certified positive or the
depth budget runs out. Going from depth l - 1 to l adds only the next two
Taylor terms of each unit, so each depth extends the last P rather than
rebuilding it. P is held as integers over one positive denominator, the
way FLINT's fmpq_poly holds a rational polynomial (`_IntegerBound`): the
positivity test and the witness value read that integer list. Most depths
fail, and the sample test rejects most of them at once. The Certificate,
with its P as a Polynomial of Fractions, is built once per proof, at the
depth that passes.
The root count that an exhausted search reports comes from a Sturm chain
of its last P, and is taken on demand: only when the error's count or
message is read, which a search that ends in a disproof never does. A
greedy per-unit descent (`minimize_assignment`) can then shrink the
orders, which tends to shrink deg P as well; it builds its Certificate
once, after the descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm, perm
from typing import Optional, Sequence, Union

from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    MalformedCertificateError,
    ParseError,
    PreconditionError,
    SearchExhaustedError,
)
from .expr import Node, parse_inequality, to_exp_rational
from .mep import ExpRational, Mep, eval_enclosure, sign_at
from .poly import Polynomial, SturmChain, _value, is_positive_on
from .taylor import maclaurin, select_order
from .arith import RationalInterval

DEFAULT_MAX_L = 20

# the counterexample scan: points tried, and a witness's first enclosure width
FALSIFY_SAMPLES = 40
FALSIFY_EPS = Fraction(1, 10**12)

PER_TERM = "per-term"
GROUPED = "grouped"


@dataclass(frozen=True)
class BoundUnit:
    """One thing that receives its own Taylor bound.

    In per-term mode a unit is a single term alpha*x^p*y^q (poly is the
    monomial alpha*x^p); in grouped mode it may be a whole q-group whose
    coefficient polynomial c_q is sign-definite on the interval. The unit
    index is what certificates call "term".
    """

    index: int
    q: int
    poly: Polynomial
    sign: int  # sign of the coefficient (polynomial) on the interval


@dataclass(frozen=True)
class AssignmentEntry:
    term: int
    l: int
    theta: int


@dataclass(frozen=True)
class Certificate:
    """Self-contained, independently checkable record of f > 0 on (a,b).

    ``v_a``, ``v_b`` and ``endpoint_adjust`` are the Sturm data of poly on
    the interval: sign variations at a and at b, and 1 if b is a root.
    They are neither stored nor serialized; one Sturm chain of poly is
    built when the first of them is read.
    """

    input: str
    interval: tuple[Fraction, Fraction]
    mode: str
    assignment: tuple[AssignmentEntry, ...]
    poly: Polynomial
    witness_x: Fraction
    witness_value: Fraction

    @cached_property
    def _chain(self) -> SturmChain:
        return SturmChain(self.poly)

    @property
    def v_a(self) -> int:
        return self._chain.variations_at(self.interval[0])

    @property
    def v_b(self) -> int:
        return self._chain.variations_at(self.interval[1])

    @property
    def endpoint_adjust(self) -> int:
        return 1 if self.poly.eval(self.interval[1]) == 0 else 0

    def to_json_dict(self) -> dict:
        a, b = self.interval
        return {
            "input": self.input,
            "interval": [str(a), str(b)],
            "mode": self.mode,
            "assignment": [
                {"term": e.term, "l": e.l, "theta": e.theta}
                for e in self.assignment
            ],
            "poly": self.poly.coeff_strings(),
            "witness": {"x": str(self.witness_x), "value": str(self.witness_value)},
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Certificate":
        """The certificate a JSON object records. A "sturm" object, which
        certificates carried before verify derived it, is ignored."""
        try:
            interval = (Fraction(d["interval"][0]), Fraction(d["interval"][1]))
            assignment = tuple(
                AssignmentEntry(int(e["term"]), int(e["l"]), int(e["theta"]))
                for e in d["assignment"]
            )
            return Certificate(
                input=d["input"],
                interval=interval,
                mode=d["mode"],
                assignment=assignment,
                poly=Polynomial.from_coeff_strings(d["poly"]),
                witness_x=Fraction(d["witness"]["x"]),
                witness_value=Fraction(d["witness"]["value"]),
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedCertificateError(f"bad certificate field: {exc}") from exc


@dataclass(frozen=True)
class NegativeWitness:
    x: Fraction
    enclosure: RationalInterval


def _check_interval(interval) -> tuple[Fraction, Fraction]:
    a, b = Fraction(interval[0]), Fraction(interval[1])
    if not 0 <= a < b:
        raise PreconditionError("need rational endpoints 0 <= a < b")
    return a, b


def bounding_units(
    f: Mep, interval, mode: str = PER_TERM, positive=None
) -> tuple[list[BoundUnit], Polynomial]:
    """Split f into bounded units plus the exact q=0 passthrough.

    Grouped mode bounds a whole exponential group at once whenever its
    coefficient polynomial has certified constant sign on the interval,
    and quietly degrades to per-term units for groups where it does not.
    ``positive(p, a, b)`` certifies that sign: is_positive_on unless the
    verifier passes its own Sturm test. Unit enumeration is deterministic,
    so the same (f, interval, mode) always yields the same indexing.
    """
    a, b = _check_interval(interval)
    if mode not in (PER_TERM, GROUPED):
        raise PreconditionError(f"unknown mode {mode!r}")
    positive = positive or is_positive_on
    units: list[BoundUnit] = []
    passthrough = Polynomial.zero()

    def add_unit(q: int, poly: Polynomial, sign: int) -> None:
        units.append(BoundUnit(index=len(units), q=q, poly=poly, sign=sign))

    for q, c_q in f.groups:
        if q == 0:
            passthrough = c_q
            continue
        if mode == GROUPED:
            if positive(c_q, a, b):
                add_unit(q, c_q, 1)
                continue
            if positive(-c_q, a, b):
                add_unit(q, c_q, -1)
                continue
        for p, alpha in enumerate(c_q.coeffs):
            if alpha == 0:
                continue
            add_unit(q, Polynomial.monomial(alpha, p), 1 if alpha > 0 else -1)
    return units, passthrough


def lower_bound_poly(
    f: Mep, interval, assignment: Sequence[AssignmentEntry]
) -> Polynomial:
    """The polynomial P with f > P on the interval (f = P when exponential-
    free), with per-term units. Each unit contributes poly * T_theta(q x);
    parity of theta against the unit sign is enforced, since that is what
    makes the substitution one-sided.
    """
    units, passthrough = bounding_units(f, interval, PER_TERM)
    if len(assignment) != len(units):
        raise PreconditionError(
            f"assignment covers {len(assignment)} units, need {len(units)}"
        )
    for entry, unit in zip(assignment, units):
        if entry.term != unit.index:
            raise PreconditionError("assignment indices out of order")
        if select_order(unit.sign, entry.l) != entry.theta:
            raise PreconditionError(
                f"theta {entry.theta} has the wrong parity for unit {unit.index}"
            )
    return _IntegerBound.of(passthrough, units).moved(
        [e.theta for e in assignment]
    ).polynomial()


def upper_bound_poly(
    f: Mep, interval, assignment: Sequence[AssignmentEntry]
) -> Polynomial:
    """Mirror image: a polynomial above f, via lower-bounding -f.

    Order parities are therefore judged against the negated coefficients:
    a positive term here takes an even order.
    """
    return -lower_bound_poly(-f, interval, assignment)


def uniform_assignment(units: Sequence[BoundUnit], l: int) -> tuple[AssignmentEntry, ...]:
    return tuple(
        AssignmentEntry(u.index, l, select_order(u.sign, l)) for u in units
    )


def assignment_for_orders(
    units: Sequence[BoundUnit], orders: Sequence[int]
) -> tuple[AssignmentEntry, ...]:
    """Build an assignment from explicit Taylor orders (one per unit)."""
    if len(orders) != len(units):
        raise PreconditionError("one order per unit required")
    out = []
    for u, theta in zip(units, orders):
        l = (theta + 1) // 2
        if select_order(u.sign, l) != theta:
            raise PreconditionError(
                f"order {theta} has the wrong parity for unit {u.index}"
            )
        out.append(AssignmentEntry(u.index, l, theta))
    return tuple(out)


class _IntegerBound:
    """P = passthrough + sum of unit.poly * T_theta(q x) at some orders, as
    integers over one positive denominator.

    ``ints`` lists P * scale * top! with no trailing zeros, where scale is
    the lcm of every passthrough and unit coefficient denominator and top
    is the highest order reached so far; ``thetas`` holds the orders, and
    -1 means that a unit contributes nothing yet. ``moved`` returns the
    bound at new orders and leaves this one as it is. A higher top
    multiplies the list by top'!/top!; each order k that a unit gains adds
    alpha.num * (scale/alpha.den) * (-q)^k * top!/k! at x^(p+k) for each of
    its terms alpha*x^p, and each order it loses subtracts that. All of it
    is exact, so P does not depend on the path of orders that reached it.
    """

    __slots__ = ("units", "scale", "top", "thetas", "ints")

    def __init__(self, units, scale: int, top: int, thetas, ints: list[int]):
        self.units = units  # per unit: (q, [(p, alpha * scale), ...])
        self.scale = scale
        self.top = top
        self.thetas = thetas
        self.ints = ints

    @classmethod
    def of(
        cls, passthrough: Polynomial, units: Sequence[BoundUnit]
    ) -> "_IntegerBound":
        """The passthrough alone: every unit at order -1."""
        scale = lcm(*[c.denominator for c in passthrough.coeffs],
                    *[c.denominator for u in units for c in u.poly.coeffs])
        terms = [
            (u.q, [(p, c.numerator * (scale // c.denominator))
                   for p, c in enumerate(u.poly.coeffs) if c])
            for u in units
        ]
        ints = [c.numerator * (scale // c.denominator) for c in passthrough.coeffs]
        return cls(terms, scale, 0, (-1,) * len(units), ints)

    def moved(self, thetas: Sequence[int]) -> "_IntegerBound":
        top = max([self.top, *thetas])
        if top > self.top:
            up = perm(top, top - self.top)
            ints = [c * up for c in self.ints]
        else:
            ints = list(self.ints)
        for (q, terms), old, new in zip(self.units, self.thetas, thetas):
            if old == new:
                continue
            sign = 1 if new > old else -1
            lo, hi = min(old, new), max(old, new)
            ints += [0] * (terms[-1][0] + hi + 1 - len(ints))
            for k in range(lo + 1, hi + 1):
                c = sign * (-q) ** k * perm(top, top - k)
                for p, alpha in terms:
                    ints[p + k] += alpha * c
        while ints and not ints[-1]:
            ints.pop()
        return _IntegerBound(self.units, self.scale, top, tuple(thetas), ints)

    @property
    def den(self) -> int:
        return self.scale * factorial(self.top)

    def value(self, x: Fraction) -> Fraction:
        """P(x), exactly, for a nonzero P."""
        d = x.denominator ** (len(self.ints) - 1)
        return Fraction(_value(self.ints, x), self.den * d)

    def polynomial(self) -> Polynomial:
        den = self.den
        return Polynomial([Fraction(c, den) for c in self.ints])


def _attempt(bound: _IntegerBound, a: Fraction, b: Fraction) -> bool:
    """P > 0 on (a, b) for the P of one assignment, decided on P's integer
    list. A P that degenerates to the zero polynomial fails."""
    return bool(bound.ints) and is_positive_on(bound.ints, a, b)


def _certificate(
    f: Mep,
    interval: tuple[Fraction, Fraction],
    mode: str,
    assignment: tuple[AssignmentEntry, ...],
    bound: _IntegerBound,
) -> Certificate:
    """The certificate of an assignment whose P passed `_attempt`."""
    mid = (interval[0] + interval[1]) / 2
    return Certificate(
        input=f"{f.text()} > 0",
        interval=interval,
        mode=mode,
        assignment=assignment,
        poly=bound.polynomial(),
        witness_x=mid,
        witness_value=bound.value(mid),
    )


def prove_positive(
    f: Mep, interval, max_l: int = DEFAULT_MAX_L, mode: str = PER_TERM
) -> Certificate:
    """Prove f > 0 on the open interval, or raise SearchExhaustedError.

    Iterative deepening with one shared l across all units; the first
    assignment whose P is certified positive wins, which makes the result
    a deterministic function of the input. Each depth extends the last P
    by the next two Taylor terms of every unit. Exhaustion is a statement
    about this search only, never a disproof; its root count is taken
    from the last nonzero P only when it is read.
    """
    a, b = _check_interval(interval)
    if f.is_zero:
        raise DegenerateInputError("f is identically zero")
    if max_l < 1:
        raise PreconditionError("max_l must be >= 1")
    units, passthrough = bounding_units(f, interval, mode)

    last: Optional[list[int]] = None
    bound = _IntegerBound.of(passthrough, units)
    depths = [1] if not units else range(1, max_l + 1)
    for l in depths:
        assignment = uniform_assignment(units, l)
        bound = bound.moved([e.theta for e in assignment])
        if _attempt(bound, a, b):
            return _certificate(f, (a, b), mode, assignment, bound)
        if bound.ints:
            last = bound.ints
    raise SearchExhaustedError(
        max_l=max_l if units else 0,
        last_root_count=(
            None if last is None
            else lambda: SturmChain(last).roots_in_open(a, b)
        ),
        detail="pure polynomial part is not positive" if not units else "",
    )


def prove_sign(
    f: Mep, interval, max_l: int, mode: str
) -> tuple[int, Certificate]:
    """Certify f > 0 (sign +1) or -f > 0 (sign -1) on the interval.

    The sign of f at the midpoint picks which direction to try first, so
    the usual case costs one search; a mixed-sign value too small to sign
    leaves f > 0 first (a one-signed value is always signed). When
    neither direction is proved, the SearchExhaustedError of the second
    attempt is raised.
    """
    if f.is_zero:
        raise DegenerateInputError("expression is identically zero")
    mid = (Fraction(interval[0]) + Fraction(interval[1])) / 2
    try:
        hint = sign_at(f, mid)
    except BudgetExceededError:
        hint = 0
    first, second = (1, -1) if hint >= 0 else (-1, 1)
    try:
        return first, prove_positive(f if first > 0 else -f, interval, max_l, mode)
    except SearchExhaustedError:
        return second, prove_positive(f if second > 0 else -f, interval, max_l, mode)


def minimize_assignment(f: Mep, interval, seed: Certificate) -> Certificate:
    """Greedy descent from a valid certificate toward smaller orders.

    Sweeps the units in index order, decrementing each unit's l as long
    as the proof still goes through, and repeats until a full sweep makes
    no change. P is kept beside the orders: each trial drops the two top
    Taylor terms of one unit from it. The certificate is built once, after
    the descent; when no order drops, the seed itself is returned.
    Deterministic, locally minimal, not guaranteed globally minimal.
    """
    a, b = _check_interval(interval)
    units, passthrough = bounding_units(f, interval, seed.mode)
    entries = list(seed.assignment)
    if len(entries) != len(units):
        raise PreconditionError("seed assignment does not match the input")
    bound = _IntegerBound.of(passthrough, units).moved(
        [e.theta for e in entries]
    )
    changed = True
    while changed:
        changed = False
        for i, unit in enumerate(units):
            while entries[i].l > 1:
                trial = AssignmentEntry(
                    unit.index, entries[i].l - 1,
                    select_order(unit.sign, entries[i].l - 1),
                )
                candidate = entries.copy()
                candidate[i] = trial
                lower = bound.moved([e.theta for e in candidate])
                if not _attempt(lower, a, b):
                    break
                entries[i] = trial
                bound = lower
                changed = True
    if tuple(entries) == seed.assignment:
        return seed
    return _certificate(f, (a, b), seed.mode, tuple(entries), bound)


def falsify(f: Union[Mep, ExpRational], interval) -> Optional[NegativeWitness]:
    """Look for a point where f is certifiably negative.

    Scans FALSIFY_SAMPLES equally spaced interior rationals left to right
    and returns the first where the exact sign of f is negative, with an
    enclosure of width below FALSIFY_EPS, narrowed further until it lies
    below zero. None means no disproof found (not a proof of positivity).
    A quotient whose denominator is exactly zero at a scanned point raises
    DenominatorSignUnknownError, as sign_at does.
    """
    a, b = _check_interval(interval)
    step = (b - a) / (FALSIFY_SAMPLES + 1)
    for i in range(1, FALSIFY_SAMPLES + 1):
        x = a + i * step
        if sign_at(f, x) < 0:
            eps = FALSIFY_EPS
            box = eval_enclosure(f, x, eps)
            while box.hi >= 0:
                eps *= eps
                box = eval_enclosure(f, x, eps)
            return NegativeWitness(x=x, enclosure=box)
    return None


# ---------------------------------------------------------------------------
# independent verification


def _sturm_positive(p: Polynomial, a: Fraction, b: Fraction) -> bool:
    """p > 0 on (a, b): a positive value at the midpoint, and no root
    inside by a Sturm chain."""
    return p.eval((a + b) / 2) > 0 and SturmChain(p).roots_in_open(a, b) == 0


def verify_certificate(cert: Certificate) -> bool:
    ok, _ = verify_certificate_report(cert)
    return ok


def verify_certificate_report(cert: Certificate) -> tuple[bool, str]:
    """Re-derive everything a certificate claims.

    Parses the recorded input, rebuilds the bounding polynomial from the
    recorded assignment, counts its interior roots with a Sturm chain,
    recomputes the witness, and compares against the recorded values bit
    for bit. The first mismatch is reported; "ok" only when the
    re-derivation also implies f > 0. Positivity is decided here by Sturm
    chains alone, grouped units' signs included: nothing the prover
    decides with (is_positive_on, with its samples and Descartes' rule)
    is called.
    """
    try:
        a, b = cert.interval
        if not (isinstance(cert.mode, str) and cert.mode in (PER_TERM, GROUPED)):
            raise MalformedCertificateError(f"unknown mode {cert.mode!r}")
        if not 0 <= a < b:
            raise MalformedCertificateError("bad interval")
        try:
            ast = parse_inequality(cert.input)
        except ParseError as exc:
            raise MalformedCertificateError(f"input does not parse: {exc}") from exc
        if ast.cmp != ">":
            raise MalformedCertificateError("certificate input must use >")
        quotient, stretch = to_exp_rational(Node("sub", (ast.left, ast.right)))
        if stretch != 1 or quotient.denominator != Mep.constant(1):
            raise MalformedCertificateError("input is not in canonical MEP form")
        f = quotient.numerator
        units, passthrough = bounding_units(f, (a, b), cert.mode, _sturm_positive)
    except PreconditionError as exc:
        raise MalformedCertificateError(str(exc)) from exc

    if len(cert.assignment) != len(units):
        return False, "assignment does not cover the bounded units"
    rebuilt = passthrough
    for entry, unit in zip(cert.assignment, units):
        if entry.term != unit.index:
            return False, f"assignment index {entry.term} out of order"
        if entry.l < 1 or select_order(unit.sign, entry.l) != entry.theta:
            return False, f"theta parity wrong at unit {unit.index}"
        rebuilt = rebuilt + unit.poly * maclaurin(entry.theta, unit.q).poly
    if rebuilt != cert.poly:
        for i in range(max(len(rebuilt.coeffs), len(cert.poly.coeffs))):
            if rebuilt.coefficient(i) != cert.poly.coefficient(i):
                return False, f"bounding polynomial differs at x^{i}"
        return False, "bounding polynomial differs"
    if rebuilt.is_zero:
        return False, "bounding polynomial is zero"

    if SturmChain(rebuilt).roots_in_open(a, b) != 0:
        return False, "interior root count is not zero"
    if not a < cert.witness_x < b:
        return False, "witness point outside the interval"
    value = rebuilt.eval(cert.witness_x)
    if value != cert.witness_value:
        return False, "witness value does not recompute"
    if value <= 0:
        return False, "witness value is not positive"
    return True, "ok"
