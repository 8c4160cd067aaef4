"""Prover: bounding units, assignments, certificates, falsification."""

import json
import random
from fractions import Fraction as F

import pytest

from expocert import cli
from expocert.arith import ConstExpr
from expocert.errors import (
    DegenerateInputError,
    DenominatorSignUnknownError,
    MalformedCertificateError,
    MonotonicityUnprovenError,
    PreconditionError,
    SearchExhaustedError,
)
from expocert.mep import ExpRational, Mep, eval_enclosure
from expocert.poly import Polynomial
from expocert.prover import (
    GROUPED,
    PER_TERM,
    AssignmentEntry,
    Certificate,
    assignment_for_orders,
    bounding_units,
    falsify,
    lower_bound_poly,
    minimize_assignment,
    prove_positive,
    prove_sign,
    upper_bound_poly,
    uniform_assignment,
    verify_certificate,
    verify_certificate_report,
)
from expocert.stratify import AffineFamily, analyze_affine_family
from expocert.taylor import maclaurin

G_TERMS = [(2, 0, 0), (-6, 0, 1), (-1, 3, 1), (6, 0, 2), (-1, 3, 2), (-2, 0, 3)]
UNIT = (F(0), F(1))


def test_bounding_units_per_term():
    g = Mep(G_TERMS)
    units, passthrough = bounding_units(g, UNIT)
    assert passthrough == Polynomial.constant(2)
    got = [(u.index, u.q, u.sign, u.poly) for u in units]
    assert got == [
        (0, 1, -1, Polynomial.monomial(F(-6), 0)),
        (1, 1, -1, Polynomial.monomial(F(-1), 3)),
        (2, 2, 1, Polynomial.monomial(F(6), 0)),
        (3, 2, -1, Polynomial.monomial(F(-1), 3)),
        (4, 3, -1, Polynomial.monomial(F(-2), 0)),
    ]


def test_bounding_units_grouped():
    g = Mep(G_TERMS)
    units, passthrough = bounding_units(g, UNIT, mode=GROUPED)
    assert passthrough == Polynomial.constant(2)
    # -6 - x^3 and 6 - x^3 are sign-definite on (0,1), the constant -2 too
    assert [(u.q, u.sign) for u in units] == [(1, -1), (2, 1), (3, -1)]
    assert units[0].poly == Polynomial([F(-6), F(0), F(0), F(-1)])
    assert units[1].poly == Polynomial([F(6), F(0), F(0), F(-1)])
    # grouped falls back to per-term when a group changes sign
    mixed = Mep([(1, 0, 1), (-1, 1, 1)])  # (1 - x) e^-x on (0, 2)
    units, _ = bounding_units(mixed, (F(0), F(2)), mode=GROUPED)
    assert [(u.q, u.sign) for u in units] == [(1, 1), (1, -1)]


def test_bounding_units_preconditions():
    with pytest.raises(PreconditionError):
        bounding_units(Mep(G_TERMS), (F(-1), F(1)))
    with pytest.raises(PreconditionError):
        bounding_units(Mep(G_TERMS), (F(1), F(1)))
    with pytest.raises(PreconditionError):
        bounding_units(Mep(G_TERMS), UNIT, mode="both")


def test_lower_bound_poly_simplest():
    y = Mep([(1, 0, 1)])
    units, _ = bounding_units(y, UNIT)
    asg = uniform_assignment(units, 1)
    assert asg == (AssignmentEntry(0, 1, 1),)
    assert lower_bound_poly(y, UNIT, asg) == Polynomial([F(1), F(-1)])


def test_upper_bound_poly_mirror():
    # upper bounds are lower bounds of the negation, so the parity of a
    # positive term flips to even; assignments are built against -f
    y = Mep([(1, 0, 1)])
    neg_units, _ = bounding_units(-y, UNIT)
    assert neg_units[0].sign == -1
    asg = assignment_for_orders(neg_units, [2])
    up = upper_bound_poly(y, UNIT, asg)
    assert up == Polynomial([F(1), F(-1), F(1, 2)])
    with pytest.raises(PreconditionError):
        assignment_for_orders(neg_units, [3])


def test_assignment_for_orders_parity():
    g = Mep(G_TERMS)
    units, _ = bounding_units(g, UNIT)
    asg = assignment_for_orders(units, [12, 12, 9, 12, 12])
    assert [e.theta for e in asg] == [12, 12, 9, 12, 12]
    assert [e.l for e in asg] == [6, 6, 5, 6, 6]
    with pytest.raises(PreconditionError):
        assignment_for_orders(units, [11, 12, 9, 12, 12])  # unit 0 is negative
    with pytest.raises(PreconditionError):
        assignment_for_orders(units, [12, 12])


def test_bounds_sandwich_pointwise():
    rng = random.Random(60221023)
    g = Mep(G_TERMS)
    units, _ = bounding_units(g, UNIT)
    lower = lower_bound_poly(g, UNIT, uniform_assignment(units, 4))
    neg_units, _ = bounding_units(-g, UNIT)
    upper = upper_bound_poly(g, UNIT, uniform_assignment(neg_units, 4))
    for _ in range(200):
        x = F(rng.randint(1, 9999), 10000)
        box = eval_enclosure(g, x, F(1, 10**30))
        assert lower.eval(x) < box.lo
        assert box.hi < upper.eval(x)


def test_bounds_hold_beyond_the_interval():
    # per-term Maclaurin brackets are valid for every x > 0, not just on
    # the interval used to build them
    g = Mep(G_TERMS)
    units, _ = bounding_units(g, UNIT)
    lower = lower_bound_poly(g, UNIT, uniform_assignment(units, 6))
    for x in (F(1, 2), F(1), F(2), F(7, 2), F(9, 2)):
        box = eval_enclosure(g, x, F(1, 10**30))
        assert lower.eval(x) < box.lo


def test_prove_g_both_modes():
    g = Mep(G_TERMS)
    for mode in (PER_TERM, GROUPED):
        cert = prove_positive(g, UNIT, mode=mode)
        assert cert.mode == mode
        assert verify_certificate(cert)
        assert cert.witness_value > 0
        assert cert.v_a - cert.v_b - cert.endpoint_adjust == 0


def test_prove_is_deterministic():
    g = Mep(G_TERMS)
    c1 = prove_positive(g, UNIT)
    c2 = prove_positive(g, UNIT)
    assert c1 == c2
    assert json.dumps(c1.to_json_dict()) == json.dumps(c2.to_json_dict())


def test_prove_failure_paths():
    with pytest.raises(DegenerateInputError):
        prove_positive(Mep(), UNIT)
    with pytest.raises(PreconditionError):
        prove_positive(Mep(G_TERMS), UNIT, max_l=0)
    # exponential-free and negative: exhaustion reports the polynomial part
    with pytest.raises(SearchExhaustedError) as ei:
        prove_positive(Mep.constant(-1), UNIT)
    assert ei.value.max_l == 0
    assert "polynomial part" in str(ei.value)
    # y - 1 < 0 on (0,1): no l can work, diagnostics carry the last count
    with pytest.raises(SearchExhaustedError) as ei:
        prove_positive(Mep([(1, 0, 1), (-1, 0, 0)]), UNIT, max_l=4)
    assert ei.value.max_l == 4


def test_falsify():
    # e^-x - (1 - x + x^2/2) is negative for all x > 0
    f = Mep([(1, 0, 1), (-1, 0, 0), (1, 1, 0), (F(-1, 2), 2, 0)])
    w = falsify(f, UNIT)
    assert w is not None
    assert w.enclosure.hi < 0
    assert F(0) < w.x < F(1)
    assert falsify(Mep(G_TERMS), UNIT) is None
    with pytest.raises(PreconditionError):
        falsify(f, UNIT, samples=0)


def test_minimize_assignment():
    y = Mep([(1, 0, 1)])
    seed = prove_positive(y, UNIT, max_l=20)
    small = minimize_assignment(y, UNIT, seed)
    assert [e.l for e in small.assignment] == [1]
    assert small.poly == Polynomial([F(1), F(-1)])
    assert verify_certificate(small)
    # idempotent: already-minimal certificates survive unchanged
    assert minimize_assignment(y, UNIT, small) == small
    # and never worse than the seed
    g = Mep(G_TERMS)
    seed = prove_positive(g, UNIT)
    small = minimize_assignment(g, UNIT, seed)
    assert sum(e.l for e in small.assignment) <= sum(e.l for e in seed.assignment)
    assert verify_certificate(small)


def test_certificate_json_round_trip():
    cert = prove_positive(Mep(G_TERMS), UNIT)
    blob = json.dumps(cert.to_json_dict())
    back = Certificate.from_json_dict(json.loads(blob))
    assert back == cert
    assert verify_certificate(back)


def _tampered(cert, **changes):
    d = cert.to_json_dict()
    for k, v in changes.items():
        d[k] = v
    return Certificate.from_json_dict(d)


def test_verify_rejects_tampering():
    cert = prove_positive(Mep(G_TERMS), UNIT)
    d = cert.to_json_dict()

    bad = dict(d)
    bad["poly"] = list(d["poly"])
    bad["poly"][0] = "3"
    ok, reason = verify_certificate_report(Certificate.from_json_dict(bad))
    assert not ok and "differs" in reason

    bad = dict(d)
    bad["sturm"] = dict(d["sturm"], v_a=d["sturm"]["v_a"] + 1)
    ok, reason = verify_certificate_report(Certificate.from_json_dict(bad))
    assert not ok and "sturm" in reason

    bad = dict(d)
    bad["witness"] = dict(d["witness"], value="1")
    ok, reason = verify_certificate_report(Certificate.from_json_dict(bad))
    assert not ok and "witness" in reason

    bad = dict(d)
    bad["assignment"] = [
        dict(e, theta=e["theta"] + 1) for e in d["assignment"]
    ]
    ok, reason = verify_certificate_report(Certificate.from_json_dict(bad))
    assert not ok and "parity" in reason


def test_verify_rejects_malformed():
    cert = prove_positive(Mep(G_TERMS), UNIT)
    d = cert.to_json_dict()
    with pytest.raises(MalformedCertificateError):
        Certificate.from_json_dict({k: v for k, v in d.items() if k != "poly"})
    with pytest.raises(MalformedCertificateError):
        Certificate.from_json_dict(dict(d, interval=["0", "nope"]))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_report(_tampered(cert, input="x + > 0"))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_report(_tampered(cert, input="x >= 0"))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_report(_tampered(cert, mode="freestyle"))


def test_certificate_polynomial_matches_orders():
    # the recorded poly is literally sum of passthrough and unit * T_theta
    g = Mep(G_TERMS)
    cert = prove_positive(g, UNIT)
    units, passthrough = bounding_units(g, UNIT)
    total = passthrough
    for e, u in zip(cert.assignment, units):
        total = total + u.poly * maclaurin(e.theta, u.q).poly
    assert total == cert.poly


def test_prove_sign_directions_and_error_mappings():
    half = (F(0), F(1, 2))
    one_minus_x = Mep([(1, 0, 0), (-1, 1, 0)])
    sign, cert = prove_sign(one_minus_x, half, 3, PER_TERM)
    assert sign == 1 and cert.input == "1 - x > 0"
    sign, cert = prove_sign(-one_minus_x, half, 3, PER_TERM)
    assert sign == -1 and cert.input == "1 - x > 0"
    with pytest.raises(DegenerateInputError, match="expression is identically zero"):
        prove_sign(Mep(), half, 3, PER_TERM)
    # 1 - 2x changes sign at 1/2: both directions fail, the last error is raised
    crossing = Mep([(1, 0, 0), (-2, 1, 0)])
    with pytest.raises(SearchExhaustedError, match="pure polynomial part"):
        prove_sign(crossing, UNIT, 3, PER_TERM)
    # a denominator of unknown sign, and a derivative of unknown sign
    quotient = ExpRational(Mep([(1, 1, 0)]), crossing)
    with pytest.raises(
        DenominatorSignUnknownError,
        match=r"^sign of the denominator 1 - 2\*x on the interval could not "
        r"be certified up to max_l = 3$",
    ):
        cli._clear_denominator(quotient, UNIT, 3, PER_TERM)
    zero = ConstExpr.rational(0)
    fam = AffineFamily(ExpRational(Mep([(1, 1, 0), (-1, 2, 0)]), Mep.constant(1)),
                       UNIT, zero, zero)
    with pytest.raises(
        MonotonicityUnprovenError,
        match=r"^neither sign certified up to max_l = 3: no valid bound up to "
        r"l = 0 \(last P had 1 interior roots\): pure polynomial part is not positive$",
    ):
        analyze_affine_family(fam, max_l=3)
