"""Command-line surface.

Subcommands map one-to-one onto the library entry points: `prove` and
`verify` wrap the certificate machinery, `family` the equioscillation
analyzer, `grid` the two-parameter classifier, `eval` and `taylor` the
small utilities. The exit code is the verdict:

    0   proven / verified / holds everywhere
    1   disproven, with a certified counterexample or mismatch
    2   undecided within the configured budgets
    3   input error (syntax, unsupported form, bad flags)

Certificates and reports go to files as JSON; stdout stays a short
human-readable summary unless --json is given.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .arith import decimal_str
from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    DenominatorSignUnknownError,
    DivisionByPossiblyZeroError,
    EndpointValidationError,
    ExpocertError,
    LoweringError,
    MalformedCertificateError,
    MonotonicityUnprovenError,
    ParseError,
    PreconditionError,
    SearchExhaustedError,
    SignIndeterminateError,
)
from .expr import (
    Node,
    lower_to_quotient,
    parse_expression,
    parse_inequality,
    to_const,
    to_exp_rational,
    variables,
)
from .mep import ExpRational, Mep, eval_enclosure
from .prover import (
    DEFAULT_MAX_L,
    GROUPED,
    PER_TERM,
    Certificate,
    NegativeWitness,
    falsify,
    minimize_assignment,
    prove_positive,
    prove_sign,
    verify_certificate_report,
)
from .stratify import AffineFamily, analyze_affine_family, grid_check
from .taylor import maclaurin


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route everything through
    # the exit-code contract instead.
    def error(self, message):
        raise _UsageError(message)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let values like "-5,5" or "-1/2" reach options without the = form.
        # None of our option names starts with a digit, so widening the
        # negative-number heuristic cannot shadow a real flag.
        self._negative_number_matcher = re.compile(r"^-\d")


def _fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad {what} {text!r}: expected a rational") from exc


def _pair(text: str, what: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"bad {what} {text!r}: expected two comma-separated rationals")
    return _fraction(parts[0], what), _fraction(parts[1], what)


def _decimal_digits(eps: Fraction) -> int:
    d = 1
    t = Fraction(1, 10)
    while t > eps and d < 40:
        t /= 10
        d += 1
    return max(d, 6)


def _single_variable(node: Node, command: str) -> None:
    vs = variables(node)
    if "a" in vs:
        raise _UsageError(f"{command} expects an inequality in x only")


# ---------------------------------------------------------------------------
# prove / verify


def _clear_denominator(
    quotient: ExpRational, interval, max_l: int, mode: str
) -> tuple[Mep, Certificate | None]:
    """Reduce N/D > 0 to a single MEP > 0, multiplying through by D only
    once its sign on the interval is certified."""
    num, den = quotient.numerator, quotient.denominator
    if len(den.terms) == 1 and den.terms[0].p == 0 and den.terms[0].q == 0:
        c = den.terms[0].alpha
        return (num if c > 0 else -num), None
    try:
        sgn, cert = prove_sign(den, interval, max_l, mode)
    except SearchExhaustedError as exc:
        raise DenominatorSignUnknownError(
            f"sign of the denominator {den.text()} on the interval could not "
            f"be certified up to max_l = {max_l}"
        ) from exc
    return (num if sgn > 0 else -num), cert


def _cmd_prove(ns) -> int:
    ineq = parse_inequality(ns.inequality)
    _single_variable(ineq.left, "prove")
    _single_variable(ineq.right, "prove")
    a, b = _pair(ns.on, "--on")
    if not 0 <= a < b:
        raise _UsageError("--on needs rational endpoints 0 <= a < b")
    diff = (
        Node("sub", (ineq.left, ineq.right))
        if ineq.cmp in (">", ">=")
        else Node("sub", (ineq.right, ineq.left))
    )
    quotient, stretch = to_exp_rational(diff)
    za, zb = a / stretch, b / stretch
    mode = GROUPED if ns.grouped else PER_TERM

    if quotient.numerator.is_zero:
        if ineq.strict:
            print(f"disproven: both sides of {ineq.text()} are identical")
            return 1
        print(f"holds with equality: both sides of {ineq.text()} are identical")
        return 0

    f, den_cert = _clear_denominator(quotient, (za, zb), ns.max_l, mode)
    try:
        cert = prove_positive(f, (za, zb), ns.max_l, mode)
        if ns.minimize:
            cert = minimize_assignment(f, (za, zb), cert)
    except SearchExhaustedError as exc:
        witness = falsify(f, (za, zb))
        if witness is None and ineq.strict:
            # a strict claim also fails where the reduced form is exactly
            # zero, as a polynomial input can be at the midpoint
            mid = (za + zb) / 2
            box = eval_enclosure(f, mid, Fraction(1, 10**12))
            if box.lo == box.hi == 0:
                witness = NegativeWitness(x=mid, enclosure=box)
        if witness is not None:
            x_orig = witness.x * stretch
            if ns.json:
                print(json.dumps({
                    "result": "disproven",
                    "witness": {
                        "x": str(x_orig),
                        "reduced_value": [
                            str(witness.enclosure.lo),
                            str(witness.enclosure.hi),
                        ],
                    },
                }))
            elif witness.enclosure.hi == 0:
                print(f"disproven: at x = {x_orig} the reduced form is exactly zero")
            else:
                print(
                    f"disproven: at x = {x_orig} the reduced form is certified "
                    f"negative, enclosure [{witness.enclosure.lo}, "
                    f"{witness.enclosure.hi}]"
                )
            return 1
        print(f"undecided: {exc}", file=sys.stderr)
        return 2

    if ns.cert:
        with open(ns.cert, "w") as fh:
            json.dump(cert.to_json_dict(), fh, indent=2)
            fh.write("\n")
    if ns.json:
        print(json.dumps(cert.to_json_dict()))
    else:
        print(f"proved: {ineq.text()} on ({a}, {b})")
        if stretch != 1 or den_cert is not None or f != quotient.numerator:
            print(f"reduced to: {cert.input} on ({za}, {zb})")
        if den_cert is not None:
            print("denominator sign certified separately")
        orders = ", ".join(
            f"term {e.term}: theta = {e.theta}" for e in cert.assignment
        )
        if orders:
            print(f"orders: {orders}")
        print(
            f"P has degree {cert.poly.degree}, no roots inside the interval; "
            f"P({cert.witness_x}) = {cert.witness_value}"
        )
        if ns.cert:
            print(f"certificate written to {ns.cert}")
    return 0


def _cmd_verify(ns) -> int:
    try:
        with open(ns.file) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {ns.file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{ns.file} is not JSON: {exc}") from exc
    try:
        cert = Certificate.from_json_dict(data)
        ok, reason = verify_certificate_report(cert)
    except MalformedCertificateError as exc:
        ok, reason = False, str(exc)
    if ns.json:
        print(json.dumps({"verified": ok, "reason": reason}))
    else:
        print(f"verified: {reason}" if ok else f"mismatch: {reason}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# family / eval / taylor / grid


def _value_faithful_quotient(node: Node) -> ExpRational:
    """Family analysis needs values of f, not just its sign, so the input
    must already be a quotient of MEPs: every exp factor exp(-k*x) with a
    nonnegative integer k."""
    num, den = lower_to_quotient(node)
    for c, p, q in num + den:
        if q.denominator != 1 or q < 0:
            raise _UsageError(
                "family analysis needs exp(-k*x) factors with nonnegative "
                "integer k (the input must equal a quotient of MEPs exactly)"
            )
    return ExpRational(
        Mep([(c, p, int(q)) for c, p, q in num]),
        Mep([(c, p, int(q)) for c, p, q in den]),
    )


def _cmd_family(ns) -> int:
    f_node = parse_expression(ns.function)
    _single_variable(f_node, "family")
    a, b = _pair(ns.on, "--on")
    if not 0 <= a < b:
        raise _UsageError("--on needs rational endpoints 0 <= a < b")
    f = _value_faithful_quotient(f_node)
    end_a = to_const(parse_expression(ns.endpoint_a))
    end_b = to_const(parse_expression(ns.endpoint_b))
    fam = AffineFamily(f, (a, b), end_a, end_b)
    report = analyze_affine_family(fam, max_l=ns.max_l)
    if ns.report:
        with open(ns.report, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
    if ns.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"monotone: {report.monotone}")
        for label, cv in (
            ("A ", report.A),
            ("B ", report.B),
            ("p0", report.p0),
            ("d0", report.d0),
        ):
            mid = cv.enclosure.midpoint
            print(
                f"{label} = {cv.expr.text()}"
                f"  in [{cv.enclosure.lo}, {cv.enclosure.hi}]"
                f"  = {decimal_str(mid, 8)}..."
            )
        cert = report.derivative_certificate
        print(
            f"derivative numerator certified sign-definite; "
            f"P degree {cert.poly.degree}"
        )
        if ns.report:
            print(f"report written to {ns.report}")
    return 0


def _cmd_eval(ns) -> int:
    node = parse_expression(ns.expression)
    if variables(node):
        raise _UsageError("eval takes a constant expression (no x, no a)")
    eps = _fraction(ns.eps, "--eps")
    if eps <= 0:
        raise _UsageError("--eps must be positive")
    box = to_const(node).enclosure(eps)
    digits = _decimal_digits(eps)
    if ns.json:
        print(json.dumps({
            "enclosure": [str(box.lo), str(box.hi)],
            "decimal": decimal_str(box.midpoint, digits),
        }))
    else:
        print(f"[{box.lo}, {box.hi}]")
        print(f"= {decimal_str(box.midpoint, digits)}... (width {box.width})")
    return 0


def _cmd_taylor(ns) -> int:
    if ns.order < 0:
        raise _UsageError("--order must be >= 0")
    if ns.scale < 1:
        raise _UsageError("--scale must be >= 1")
    tb = maclaurin(ns.order, ns.scale)
    if ns.json:
        print(json.dumps({
            "order": tb.order,
            "scale": tb.scale,
            "side": tb.side,
            "poly": tb.poly.coeff_strings(),
        }))
    else:
        print(tb.poly.text())
        print(f"({tb.side} bound for exp(-{ns.scale}*x) on x > 0)")
    return 0


def _cmd_grid(ns) -> int:
    ineq = parse_inequality(ns.inequality)
    x_range = _pair(ns.x, "--x")
    a_range = _pair(ns.a, "--a")
    if ns.steps < 2:
        raise _UsageError("--steps must be >= 2")
    eps = _fraction(ns.eps, "--eps")
    if eps <= 0:
        raise _UsageError("--eps must be positive")
    report = grid_check(ineq, x_range, a_range, ns.steps, eps)
    if ns.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(
            f"grid {ns.steps}x{ns.steps} on [{x_range[0]}, {x_range[1]}] x "
            f"[{a_range[0]}, {a_range[1]}]: {len(report.holds_at)} holds, "
            f"{len(report.fails_at)} fails, {len(report.undecided_at)} undecided"
        )
        for x, av in report.fails_at:
            print(f"fails at x = {x}, a = {av}")
        for x, av in report.undecided_at:
            print(f"undecided at x = {x}, a = {av}")
    if report.fails_at:
        return 1
    if report.undecided_at:
        return 2
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="expocert", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable stdout")

    p = sub.add_parser("prove", parents=[common], help="certify an inequality on an interval")
    p.add_argument("inequality")
    p.add_argument("--on", required=True, metavar="a,b")
    p.add_argument("--max-l", type=int, default=DEFAULT_MAX_L, dest="max_l")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--grouped", action="store_true")
    p.add_argument("--cert", metavar="FILE")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("verify", parents=[common], help="re-check a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("family", parents=[common], help="equioscillation analysis of f - p")
    p.add_argument("function")
    p.add_argument("--on", required=True, metavar="a,b")
    p.add_argument("--endpoint-a", required=True, dest="endpoint_a", metavar="EXPR")
    p.add_argument("--endpoint-b", required=True, dest="endpoint_b", metavar="EXPR")
    p.add_argument("--max-l", type=int, default=DEFAULT_MAX_L, dest="max_l")
    p.add_argument("--report", metavar="FILE")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("eval", parents=[common], help="enclose a constant expression")
    p.add_argument("expression")
    p.add_argument("--eps", default="1/1000000000000")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("taylor", parents=[common], help="print a Maclaurin bound polynomial")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--scale", type=int, default=1)
    p.set_defaults(func=_cmd_taylor)

    p = sub.add_parser("grid", parents=[common], help="classify a two-variable inequality on a grid")
    p.add_argument("inequality")
    p.add_argument("--x", required=True, metavar="a,b")
    p.add_argument("--a", required=True, metavar="c,d")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--eps", default="1/" + "1" + "0" * 30)
    p.set_defaults(func=_cmd_grid)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (LoweringError, DivisionByPossiblyZeroError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        DenominatorSignUnknownError,
        MonotonicityUnprovenError,
        EndpointValidationError,
        SignIndeterminateError,
        BudgetExceededError,
        DegenerateInputError,
    ) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 2
    except ExpocertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    sys.exit(run())
