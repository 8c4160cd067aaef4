"""Positivity prover for mixed exponential polynomials.

The method: in f(x) = sum alpha x^p (e^(-x))^q, replace each exponential
factor by a Maclaurin polynomial T_theta(qx) whose parity is chosen
against the sign of its coefficient (odd order under positive
coefficients, even under negative). Every replacement can only lower the
value on x > 0, so the resulting ordinary polynomial P satisfies
f(x) > P(x) there, except that a pure polynomial passes through exactly.
If Sturm counting certifies P > 0 on the interval, f > 0 follows, and
everything needed to re-check that conclusion is packaged as a
Certificate.

The search over Taylor orders is deliberately dumb: one shared depth l
for every bounded unit, deepened until the Sturm test passes or the depth
budget runs out. A greedy per-unit descent (`minimize_assignment`) can
then shrink the orders, which tends to shrink deg P as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DegenerateInputError,
    MalformedCertificateError,
    ParseError,
    PreconditionError,
    SearchExhaustedError,
)
from .mep import Mep, eval_enclosure
from .poly import Polynomial, SturmChain, is_positive_on, squarefree_part
from .taylor import maclaurin, select_order
from .arith import RationalInterval

Q = Fraction

DEFAULT_MAX_L = 20

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
    """Self-contained, independently checkable record of f > 0 on (a,b)."""

    input: str
    interval: tuple[Fraction, Fraction]
    mode: str
    assignment: tuple[AssignmentEntry, ...]
    poly: Polynomial
    v_a: int
    v_b: int
    endpoint_adjust: int
    witness_x: Fraction
    witness_value: Fraction

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
            "sturm": {
                "v_a": self.v_a,
                "v_b": self.v_b,
                "endpoint_adjust": self.endpoint_adjust,
            },
            "witness": {"x": str(self.witness_x), "value": str(self.witness_value)},
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Certificate":
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
                v_a=int(d["sturm"]["v_a"]),
                v_b=int(d["sturm"]["v_b"]),
                endpoint_adjust=int(d["sturm"]["endpoint_adjust"]),
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
    f: Mep, interval, mode: str = PER_TERM
) -> tuple[list[BoundUnit], Polynomial]:
    """Split f into bounded units plus the exact q=0 passthrough.

    Grouped mode bounds a whole exponential group at once whenever its
    coefficient polynomial has certified constant sign on the interval,
    and quietly degrades to per-term units for groups where it does not.
    Unit enumeration is deterministic, so the same (f, interval, mode)
    always yields the same indexing.
    """
    a, b = _check_interval(interval)
    if mode not in (PER_TERM, GROUPED):
        raise PreconditionError(f"unknown mode {mode!r}")
    units: list[BoundUnit] = []
    passthrough = Polynomial.zero()

    def add_unit(q: int, poly: Polynomial, sign: int) -> None:
        units.append(BoundUnit(index=len(units), q=q, poly=poly, sign=sign))

    for q, c_q in f.group_by_q():
        if q == 0:
            passthrough = c_q
            continue
        if mode == GROUPED:
            if is_positive_on(c_q, a, b):
                add_unit(q, c_q, 1)
                continue
            if is_positive_on(-c_q, a, b):
                add_unit(q, c_q, -1)
                continue
        for p, alpha in enumerate(c_q.coeffs):
            if alpha == 0:
                continue
            add_unit(q, Polynomial.monomial(alpha, p), 1 if alpha > 0 else -1)
    return units, passthrough


def lower_bound_poly(
    f: Mep, interval, assignment: Sequence[AssignmentEntry], mode: str = PER_TERM
) -> Polynomial:
    """The polynomial P with f > P on the interval (f = P when exponential-
    free). Each unit contributes poly * T_theta(q x); parity of theta
    against the unit sign is enforced, since that is what makes the
    substitution one-sided.
    """
    units, passthrough = bounding_units(f, interval, mode)
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
    return _bound_poly(units, passthrough, assignment)


def upper_bound_poly(
    f: Mep, interval, assignment: Sequence[AssignmentEntry], mode: str = PER_TERM
) -> Polynomial:
    """Mirror image: a polynomial above f, via lower-bounding -f.

    Order parities are therefore judged against the negated coefficients:
    a positive term here takes an even order.
    """
    return -lower_bound_poly(-f, interval, assignment, mode)


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


def _bound_poly(
    units: Sequence[BoundUnit],
    passthrough: Polynomial,
    assignment: Sequence[AssignmentEntry],
) -> Polynomial:
    """P = passthrough + sum of unit.poly * T_theta(q x) over the units."""
    total = passthrough
    for entry, unit in zip(assignment, units):
        total = total + unit.poly * maclaurin(entry.theta, unit.q).poly
    return total


def _attempt(
    f: Mep,
    interval: tuple[Fraction, Fraction],
    mode: str,
    units: Sequence[BoundUnit],
    passthrough: Polynomial,
    assignment: tuple[AssignmentEntry, ...],
) -> tuple[Optional[Certificate], Optional[int]]:
    """Build P for one assignment and Sturm-check it.

    Returns (certificate, None) on success, else (None, root count);
    the count feeds failure diagnostics. A P that degenerates to the zero
    polynomial counts as a plain failure.
    """
    a, b = interval
    total = _bound_poly(units, passthrough, assignment)
    if total.is_zero:
        return None, None
    sf = squarefree_part(total)
    chain = SturmChain(sf)
    v_a = chain.variations_at(a)
    v_b = chain.variations_at(b)
    adjust = 1 if sf.eval(b) == 0 else 0
    roots = v_a - v_b - adjust
    mid = (a + b) / 2
    value = total.eval(mid)
    if roots != 0 or value <= 0:
        return None, roots
    return (
        Certificate(
            input=f"{f.text()} > 0",
            interval=interval,
            mode=mode,
            assignment=assignment,
            poly=total,
            v_a=v_a,
            v_b=v_b,
            endpoint_adjust=adjust,
            witness_x=mid,
            witness_value=value,
        ),
        None,
    )


def prove_positive(
    f: Mep, interval, max_l: int = DEFAULT_MAX_L, mode: str = PER_TERM
) -> Certificate:
    """Prove f > 0 on the open interval, or raise SearchExhaustedError.

    Iterative deepening with one shared l across all units; the first
    assignment whose P passes the Sturm test wins, which makes the result
    a deterministic function of the input. Exhaustion is a statement
    about this search only, never a disproof.
    """
    a, b = _check_interval(interval)
    if f.is_zero:
        raise DegenerateInputError("f is identically zero")
    if max_l < 1:
        raise PreconditionError("max_l must be >= 1")
    units, passthrough = bounding_units(f, interval, mode)

    last_roots: Optional[int] = None
    depths = [1] if not units else range(1, max_l + 1)
    for l in depths:
        assignment = uniform_assignment(units, l)
        cert, roots = _attempt(f, (a, b), mode, units, passthrough, assignment)
        if cert is not None:
            return cert
        if roots is not None:
            last_roots = roots
    raise SearchExhaustedError(
        max_l=max_l if units else 0,
        last_root_count=last_roots,
        detail="pure polynomial part is not positive" if not units else "",
    )


def prove_sign(
    f: Mep, interval, max_l: int, mode: str
) -> tuple[int, Certificate]:
    """Certify f > 0 (sign +1) or -f > 0 (sign -1) on the interval.

    A loose enclosure of f at the midpoint picks which direction to try
    first, so the usual case costs one search. When neither direction is
    proved, the SearchExhaustedError of the second attempt is raised.
    """
    if f.is_zero:
        raise DegenerateInputError("expression is identically zero")
    mid = (Fraction(interval[0]) + Fraction(interval[1])) / 2
    hint = eval_enclosure(f, mid, Fraction(1, 10**6))
    first, second = (1, -1) if hint.definite_sign() >= 0 else (-1, 1)
    try:
        return first, prove_positive(f if first > 0 else -f, interval, max_l, mode)
    except SearchExhaustedError:
        return second, prove_positive(f if second > 0 else -f, interval, max_l, mode)


def minimize_assignment(f: Mep, interval, seed: Certificate) -> Certificate:
    """Greedy descent from a valid certificate toward smaller orders.

    Sweeps the units in index order, decrementing each unit's l as long
    as the proof still goes through, and repeats until a full sweep makes
    no change. Deterministic, locally minimal, not guaranteed globally
    minimal.
    """
    a, b = _check_interval(interval)
    units, passthrough = bounding_units(f, interval, seed.mode)
    entries = list(seed.assignment)
    if len(entries) != len(units):
        raise PreconditionError("seed assignment does not match the input")
    best = seed
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
                cert, _ = _attempt(
                    f, (a, b), seed.mode, units, passthrough, tuple(candidate)
                )
                if cert is None:
                    break
                entries[i] = trial
                best = cert
                changed = True
    return best


def falsify(
    f: Mep, interval, samples: int = 40, eps=Fraction(1, 10**12)
) -> Optional[NegativeWitness]:
    """Look for a point where f is certifiably negative.

    Scans `samples` equally spaced interior rationals left to right and
    returns the first whose enclosure lies entirely below zero; None
    means no disproof found (not a proof of positivity).
    """
    a, b = _check_interval(interval)
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    step = (b - a) / (samples + 1)
    for i in range(1, samples + 1):
        x = a + i * step
        box = eval_enclosure(f, x, eps)
        if box.hi < 0:
            return NegativeWitness(x=x, enclosure=box)
    return None


# ---------------------------------------------------------------------------
# independent verification


def verify_certificate(cert: Certificate) -> bool:
    ok, _ = verify_certificate_report(cert)
    return ok


def verify_certificate_report(cert: Certificate) -> tuple[bool, str]:
    """Re-derive everything a certificate claims.

    Parses the recorded input, rebuilds the bounding polynomial from the
    recorded assignment, recomputes the Sturm data and the witness, and
    compares against the recorded values bit for bit. The first mismatch
    is reported; "ok" only when the re-derivation also implies f > 0.
    """
    from .expr import parse_inequality, to_exp_rational

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
        from .expr import Node

        quotient, stretch = to_exp_rational(Node("sub", (ast.left, ast.right)))
        if stretch != 1 or quotient.denominator != Mep.constant(1):
            raise MalformedCertificateError("input is not in canonical MEP form")
        f = quotient.numerator
        units, passthrough = bounding_units(f, (a, b), cert.mode)
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

    sf = squarefree_part(rebuilt)
    chain = SturmChain(sf)
    v_a = chain.variations_at(a)
    v_b = chain.variations_at(b)
    adjust = 1 if sf.eval(b) == 0 else 0
    if (v_a, v_b, adjust) != (cert.v_a, cert.v_b, cert.endpoint_adjust):
        return False, (
            f"sturm data recomputes to ({v_a}, {v_b}, {adjust}), "
            f"recorded ({cert.v_a}, {cert.v_b}, {cert.endpoint_adjust})"
        )
    if v_a - v_b - adjust != 0:
        return False, "interior root count is not zero"
    if not a < cert.witness_x < b:
        return False, "witness point outside the interval"
    value = rebuilt.eval(cert.witness_x)
    if value != cert.witness_value:
        return False, "witness value does not recompute"
    if value <= 0:
        return False, "witness value is not positive"
    return True, "ok"
