"""Family analysis: affine minimax, parameter cascades, grids."""

from fractions import Fraction as F

import pytest

from expocert.arith import ConstExpr
from expocert.errors import (
    EndpointValidationError,
    MonotonicityUnprovenError,
    PreconditionError,
)
from expocert.expr import parse_expression, parse_inequality, to_const, to_exp_rational
from expocert.mep import ExpRational, Mep, eval_enclosure
from expocert.prover import verify_certificate
from expocert.stratify import (
    AffineFamily,
    AlphaSubstitution,
    ParamExpFamily,
    ParamTerm,
    analyze_affine_family,
    cascade_check,
    grid_check,
    substitute_alpha,
)

APP_F_TEXT = "1/x^2 - exp(-x)/(1 - exp(-x))^2"
# limits of f: 1/12 at 0+ and (e^2 - 3e + 1)/(e - 1)^2 at 1-
END_A = "1/12"
END_B = "(e^2 - 3*e + 1)/(e - 1)^2"


def _family(f_text, a, b, end_a, end_b):
    quotient, stretch = to_exp_rational(parse_expression(f_text))
    assert stretch == 1
    return AffineFamily(
        f=quotient,
        interval=(F(a), F(b)),
        endpoint_a_value=to_const(parse_expression(end_a)),
        endpoint_b_value=to_const(parse_expression(end_b)),
    )


@pytest.fixture(scope="module")
def app_family():
    return _family(APP_F_TEXT, 0, 1, END_A, END_B)


@pytest.fixture(scope="module")
def app_report(app_family):
    return analyze_affine_family(app_family)


def test_affine_analysis(app_family, app_report):
    rep = app_report
    assert rep.monotone == "decreasing"
    assert rep.derivative_sign == -1
    # decreasing: infimum A comes from the right endpoint
    assert (rep.B.expr - F(1, 12)).is_zero()
    assert rep.A.enclosure.lo < F(79327, 10**6) and rep.A.enclosure.hi > F(79326, 10**6)
    # equioscillation is exact by construction, not up to rounding
    assert ((rep.p0.expr - rep.A.expr) - (rep.B.expr - rep.p0.expr)).is_zero()
    assert ((rep.p0.expr + rep.d0.expr) - rep.B.expr).is_zero()
    assert verify_certificate(rep.derivative_certificate)
    assert verify_certificate(rep.denominator_certificate)
    d = rep.to_json_dict()
    assert set(d) == {"monotone", "A", "B", "p0", "d0", "derivative_certificate"}
    assert d["monotone"] == "decreasing"


def test_affine_zone_consistency(app_family, app_report):
    # enclosures of f along an increasing x grid must decrease strictly
    # and stay inside (A, B)
    boxes = [
        eval_enclosure(app_family.f, F(i, 51), F(1, 10**12)) for i in range(1, 51)
    ]
    for left, right in zip(boxes, boxes[1:]):
        assert right.hi < left.lo
    assert boxes[0].hi < app_report.B.enclosure.hi + F(1, 10**9)
    assert boxes[-1].lo > app_report.A.enclosure.lo - F(1, 10**9)


def test_affine_linear_families():
    rep = analyze_affine_family(_family("1 - x", 0, 1, "1", "0"))
    assert rep.monotone == "decreasing"
    assert (rep.A.expr - F(0)).is_zero()
    assert (rep.B.expr - F(1)).is_zero()
    assert (rep.p0.expr - F(1, 2)).is_zero()
    assert (rep.d0.expr - F(1, 2)).is_zero()

    rep = analyze_affine_family(_family("x", 0, 1, "0", "1"))
    assert rep.monotone == "increasing"
    assert (rep.A.expr - F(0)).is_zero()
    assert (rep.B.expr - F(1)).is_zero()


def test_affine_rejects_wrong_endpoint_claim():
    # the limit test is exact, so a claim off by 10^-40 fails like one off
    # by 1/2
    wrong = [
        ("1 - x", 0, 1, "1/2", "0", "does not tend to 1/2 at x = 0"),
        ("1 - x", 0, 1, "0", "1", "does not tend to 0 at x = 0"),
        ("exp(-x)", 0, 1, "1", "1/e + 1/10^6", "at x = 1"),
        ("exp(-x)", 0, 1, "1", "1/e + 1/10^40", "at x = 1"),
        (APP_F_TEXT, 0, 1, "1/12 + 1/10^6", END_B, "250003/3000000 at x = 0"),
        ("1/x", 0, 1, "1", "1", "pole at x = 0"),
    ]
    for f_text, a, b, end_a, end_b, message in wrong:
        with pytest.raises(EndpointValidationError, match=message):
            analyze_affine_family(_family(f_text, a, b, end_a, end_b))


def test_affine_accepts_removable_singularities_against_sympy():
    # claimed limits at both ends, checked against sympy.limit, and
    # accepted by the exact l'Hopital test at the singular end x = 0
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    cases = [
        ("(1 - exp(-x))/x", 1, "1", "1 - 1/e"),
        ("(exp(-x) - 1 + x)/x^2", 1, "1/2", "1/e"),
        (APP_F_TEXT, 1, END_A, END_B),
        (APP_F_TEXT, 2, END_A, "1/4 - e^2/(e^2 - 1)^2"),
    ]
    for f_text, b, end_a, end_b in cases:
        f = sympy.sympify(f_text.replace("^", "**"), locals={"x": x})
        for at, text, side in ((0, end_a, "+"), (b, end_b, "-")):
            claim = sympy.sympify(text.replace("^", "**"), locals={"e": sympy.E})
            assert sympy.simplify(sympy.limit(f, x, at, side) - claim) == 0
        rep = analyze_affine_family(_family(f_text, 0, b, end_a, end_b))
        assert rep.monotone == "decreasing"


def test_affine_rejects_non_monotone():
    with pytest.raises(MonotonicityUnprovenError):
        analyze_affine_family(_family("x - x^2", 0, 1, "0", "0"), max_l=4)


def test_affine_interval_precondition():
    fam = _family("1 - x", 0, 1, "1", "0")
    bad = AffineFamily(fam.f, (F(1), F(1)), fam.endpoint_a_value, fam.endpoint_b_value)
    with pytest.raises(PreconditionError):
        analyze_affine_family(bad)


# ---------------------------------------------------------------------------
# parameter-in-the-exponent families

# phi_alpha(x) = exp(-alpha*x) + alpha*x*(1 - x) - x^2*(exp(-alpha) - 1) - 1
PHI = ParamExpFamily(
    [
        (1, 0, 0, 1, 0),    # exp(-alpha*x)
        (1, 1, 1, 0, 0),    # alpha*x
        (-1, 2, 1, 0, 0),   # -alpha*x^2
        (-1, 2, 0, 0, 1),   # -x^2*exp(-alpha)
        (1, 2, 0, 0, 0),    # x^2
        (-1, 0, 0, 0, 0),   # -1
    ]
)


def test_param_family_canonicalization():
    assert ParamExpFamily([(1, 1, 0, 0, 0), (-1, 1, 0, 0, 0)]).is_zero
    merged = ParamExpFamily([(1, 2, 1, 1, 0), (2, 2, 1, 1, 0)])
    assert merged.terms == (ParamTerm(F(3), 2, 1, F(1), F(0)),)
    with pytest.raises(PreconditionError):
        ParamTerm(F(1), -1, 0, F(1), F(0))


def test_diff_alpha_matches_hand_derivatives():
    d1 = PHI.diff_alpha()
    assert d1 == ParamExpFamily(
        [(-1, 1, 0, 1, 0), (1, 1, 0, 0, 0), (-1, 2, 0, 0, 0), (1, 2, 0, 0, 1)]
    )
    d2 = d1.diff_alpha()
    assert d2 == ParamExpFamily([(1, 2, 0, 1, 0), (-1, 2, 0, 0, 1)])
    # the third derivative keeps the same shape with sign flips
    d3 = d2.diff_alpha()
    assert d3 == ParamExpFamily([(-1, 3, 0, 1, 0), (1, 2, 0, 0, 1)])


def test_substitute_x_kills_both_ends():
    # the family vanishes identically in alpha at x = 0 and x = 1
    assert PHI.substitute_x(0).is_zero
    assert PHI.substitute_x(1).is_zero
    assert not PHI.substitute_x(F(1, 2)).is_zero


def test_substitute_alpha_zero():
    sub = substitute_alpha(PHI, 0)
    assert sub.exact and sub.stretch == 1
    assert sub.pure.is_zero


def test_substitute_alpha_one():
    sub = substitute_alpha(PHI, 1)
    assert sub.stretch == 1
    assert sub.pure == Mep([(-1, 0, 0), (1, 1, 0), (1, 0, 1)])  # exp(-x) + x - 1
    assert sub.offsets == ((F(1), Mep([(-1, 2, 0)])),)
    assert not sub.exact


def test_substitute_alpha_half_stretches():
    sub = substitute_alpha(PHI, F(1, 2))
    assert sub.stretch == 2
    # cross-check the represented value at x = 1/2 (z = 1/4) against the
    # family definition, as exact sums of c * e^s
    z = F(1, 4)
    got = {}
    for w, mep in ((F(0), sub.pure),) + sub.offsets:
        for t in mep.terms:
            key = -t.q * z - w
            got[key] = got.get(key, F(0)) + t.alpha * z**t.p
    got = {k: v for k, v in got.items() if v}
    assert got == {F(-1, 4): F(1), F(0): F(-5, 8), F(-1, 2): F(-1, 4)}


def test_substitute_alpha_preconditions():
    with pytest.raises(PreconditionError):
        substitute_alpha(PHI, -1)
    growing = ParamExpFamily([(1, 0, 0, -1, 0)])  # exp(+alpha*x)
    with pytest.raises(PreconditionError):
        substitute_alpha(growing, 1)
    assert substitute_alpha(growing, 0).pure == Mep.constant(1)


def test_cascade_on_phi():
    report = cascade_check(PHI, (F(0), F(1)), [F(1, 2), F(1), F(2)])
    assert report.ok and report.depth == 2
    kinds = [(s.level, s.kind, s.passed) for s in report.steps]
    assert kinds[0] == (0, "exact-zero", True)
    assert kinds[1] == (1, "exact-zero", True)
    # exp(-alpha) offsets force evidence mode at every sampled alpha
    assert [k for k in kinds[2:]] == [(2, "evidence", True)] * 3
    assert [s.alpha for s in report.steps[2:]] == [F(1, 2), F(1), F(2)]


def test_cascade_zero_family():
    report = cascade_check(ParamExpFamily(), (F(0), F(1)), [F(1)])
    assert report.ok and report.depth == 0
    assert report.steps[0].kind == "exact-zero"


def test_cascade_flags_nonvanishing_layer():
    broken = ParamExpFamily([t for t in PHI.terms if (t.c, t.p) != (F(-1), 0)])
    report = cascade_check(broken, (F(0), F(1)), [F(1)])
    assert not report.ok
    level0 = report.steps[0]
    assert level0.kind == "exact-zero" and not level0.passed
    assert "nonzero at alpha = 0" in level0.detail and "1" in level0.detail


def test_cascade_proof_mode():
    # a family whose deep layer has no constant exponential offset stays
    # an exact MEP, so the cascade proves instead of sampling
    fam = ParamExpFamily([(1, 0, 0, 1, 0)])  # exp(-alpha*x)
    report = cascade_check(fam, (F(0), F(1)), [F(1), F(1, 2)])
    alpha_steps = [s for s in report.steps if s.level == 2]
    assert all(s.kind == "proof" and s.passed for s in alpha_steps)
    assert all("deg P" in s.detail for s in alpha_steps)
    # but its value at alpha = 0 is 1, not 0
    assert not report.steps[0].passed


def test_cascade_rejects_bad_samples():
    with pytest.raises(PreconditionError):
        cascade_check(PHI, (F(0), F(1)), [F(0)])
    with pytest.raises(PreconditionError):
        cascade_check(PHI, (F(1), F(0)), [F(1)])


# ---------------------------------------------------------------------------
# grids

INEQ_13 = "sign(a)*exp(a*x) <= sign(a)*(a*x*(1 - x) + x^2*(exp(a) - 1) + 1)"
INEQ_15 = "sign(a)*exp(a*x) >= sign(a)*(a*x*(1 - x) + x^2*(exp(a) - 1) + 1)"


def test_grid_small_sweep():
    rep = grid_check(parse_inequality(INEQ_13), (F(0), F(1)), (F(-1), F(1)), 3)
    assert rep.total == 9
    assert len(rep.fails_at) == 0 and len(rep.undecided_at) == 0
    d = rep.to_json_dict()
    assert len(d["holds_at"]) == 9 and d["fails_at"] == []


def test_grid_equality_rows():
    # along a = 0 both sides coincide exactly; strict comparison fails
    # there and non-strict holds, decided symbolically either way
    strict = INEQ_13.replace("<=", "<")
    rep = grid_check(parse_inequality(strict), (F(0), F(1)), (F(0), F(1)), (3, 2))
    assert rep.total == 6
    assert set(rep.fails_at) >= {(F(0), F(0)), (F(1, 2), F(0)), (F(1), F(0))}
    # x = 0 and x = 1 columns are equalities too, for every a
    assert (F(0), F(1)) in rep.fails_at and (F(1), F(1)) in rep.fails_at
    assert rep.holds_at == ((F(1, 2), F(1)),)


def test_grid_reversed_regime():
    rep = grid_check(parse_inequality(INEQ_15), (F(3, 2), F(3)), (F(-2), F(2)), (3, 5))
    assert len(rep.fails_at) == 0 and len(rep.undecided_at) == 0
    assert rep.total == 15


def test_grid_undecided_then_decided():
    ineq = parse_inequality("exp(a*x) <= 1 + a*x + a^2*x^2")
    ranges = ((F(1, 10**6), F(2, 10**6)), (F(1, 10**6), F(2, 10**6)))
    coarse = grid_check(ineq, *ranges, steps=2, eps=F(1, 10**10))
    assert len(coarse.undecided_at) == 4
    fine = grid_check(ineq, *ranges, steps=2, eps=F(1, 10**30))
    assert len(fine.undecided_at) == 0 and len(fine.holds_at) == 4


def test_grid_unloweable_points_are_undecided():
    ineq = parse_inequality("1/(exp(a*x) + 1) <= 1")
    rep = grid_check(ineq, (F(1, 2), F(1)), (F(1), F(2)), 2)
    assert len(rep.undecided_at) == rep.total == 4
    # at a*x = 0 the divisor is the single term 2, which lowers exactly
    rep = grid_check(ineq, (F(0), F(1)), (F(1), F(2)), 2)
    assert set(rep.holds_at) == {(F(0), F(1)), (F(0), F(2))}
    assert len(rep.undecided_at) == 2


def test_grid_preconditions():
    ineq = parse_inequality(INEQ_13)
    with pytest.raises(PreconditionError):
        grid_check(ineq, (F(0), F(1)), (F(0), F(1)), 1)
    with pytest.raises(PreconditionError):
        grid_check(ineq, (F(1), F(0)), (F(0), F(1)), 3)
    with pytest.raises(PreconditionError):
        grid_check(ineq, (F(0), F(0)), (F(0), F(1)), 3)
