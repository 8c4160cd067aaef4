"""Family analysis: affine minimax, parameter cascades, grids."""

from fractions import Fraction as F

import pytest

from expocert import arith
from expocert.arith import ConstExpr, exp_sum_sign, lau_enclosure
from expocert.errors import (
    BudgetExceededError,
    EndpointValidationError,
    MonotonicityUnprovenError,
    PreconditionError,
)
from expocert.expr import (
    Node,
    exp_denominator,
    exp_sum_at,
    lower_grid,
    parse_expression,
    parse_inequality,
    to_const,
    to_exp_rational,
)
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
        # not monotone, but the exact limit test runs first and refutes
        ("x - x^2", 0, 1, "1", "0", "does not tend to 1 at x = 0"),
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
        for q, c in mep.groups:
            key = -q * z - w
            got[key] = got.get(key, F(0)) + c.eval(z)
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


def _quotient_at(form, x, a):
    """num/den at a point whose den is a single term, as a sum keyed over
    the point's own M, and that M."""
    m = exp_denominator(form, [x], [a])
    num, den = exp_sum_at(form, x, a, m)
    assert len(den) == 1
    ((k, c),) = den.items()
    return {j - k: v / c for j, v in num.items()}, m


def test_grid_encloses_each_tau_once(monkeypatch):
    # the points of one grid command share one table of tau = e^(1/D)
    # enclosures, and are classified as when each is signed on its own
    calls = []
    enclose = arith.exp_enclosure
    monkeypatch.setattr(
        arith, "exp_enclosure", lambda s, eps: calls.append((s, eps)) or enclose(s, eps)
    )
    ineq = parse_inequality(INEQ_13)
    form = lower_grid(Node("sub", (ineq.left, ineq.right)))
    xs = (F(1, 10**4), F(2, 10**4), F(3, 10**4))
    as_ = (F(-1, 7), F(2, 21), F(1, 3))
    for eps in (F(1, 10**30), F(1, 10**5)):
        calls.clear()
        rep = grid_check(ineq, (xs[0], xs[-1]), (as_[0], as_[-1]), 3, eps)
        # one call per distinct (1/D, width), though each tau serves
        # several points; at 10^-30 some tau is needed at two widths
        assert calls and len(calls) == len(set(calls))
        assert len({s for s, _ in calls}) < len(calls) or eps > F(1, 10**20)
        want = {"holds": [], "fails": [], "undecided": []}
        for x in xs:
            for a in as_:
                try:
                    sgn = exp_sum_sign(*_quotient_at(form, x, a), eps)
                except BudgetExceededError:
                    want["undecided"].append((x, a))
                    continue
                want["fails" if sgn > 0 else "holds"].append((x, a))
        assert (list(rep.holds_at), list(rep.fails_at), list(rep.undecided_at)) == (
            want["holds"], want["fails"], want["undecided"]
        )
        # at 10^-5 some points run out of widths and stay undecided
        assert rep.holds_at and (rep.undecided_at or eps < F(1, 10**20))


def test_grid_quotients_and_zero_denominators():
    # a denominator that is a sum of exponentials is signed with the
    # numerator, so the point is decided
    ineq = parse_inequality("1/(exp(a*x) + 1) <= 1")
    rep = grid_check(ineq, (F(1, 2), F(1)), (F(1), F(2)), 2)
    assert len(rep.holds_at) == rep.total == 4
    rep = grid_check(parse_inequality("exp(x)/(exp(a) - exp(x)) > 0"), (0, 1), (-1, 1), 3)
    assert set(rep.holds_at) == {(F(0), F(1)), (F(1, 2), F(1))}
    # where the denominator is exactly zero the point stays undecided
    assert set(rep.undecided_at) == {(F(0), F(0)), (F(1), F(1))}
    rep = grid_check(parse_inequality("x/(x - a) > 0"), (0, 1), (-1, 1), 3)
    assert set(rep.undecided_at) == {(F(0), F(0)), (F(1), F(1))}


def test_grid_signs_match_sympy_and_full_enclosures():
    # on random small grids every decided point has sympy's sign, and no
    # point that one enclosure to width eps, relative to the point's
    # largest term, decides is left undecided
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings, strategies as st

    inequalities = [
        INEQ_13,
        INEQ_15,
        "exp(a*x) <= 1 + a*x + a^2*x^2",
        "exp(-a*x) >= 1 - a*x",
        "x*exp(a) + a*exp(x/3) < 2",
    ]
    bound = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)

    def sign_of(diff, m):
        value = sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.exp(sympy.Rational(k, m))
            for k, c in diff.items()
        )
        return int(sympy.sign(sympy.N(value, 120)))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        text=st.sampled_from(inequalities),
        xs=st.tuples(bound, bound).filter(lambda p: p[0] != p[1]).map(sorted),
        as_=st.tuples(bound, bound).filter(lambda p: p[0] != p[1]).map(sorted),
        steps=st.tuples(st.integers(2, 4), st.integers(2, 4)),
        scale=st.sampled_from([1, F(1, 10**6)]),
        eps=st.sampled_from([F(1, 10**6), F(1, 10**10), F(1, 10**30)]),
    )
    def check(text, xs, as_, steps, scale, eps):
        # scale 10^-6 brings both sides within eps of each other
        ineq = parse_inequality(text)
        xs, as_ = [v * scale for v in xs], [v * scale for v in as_]
        rep = grid_check(ineq, xs, as_, steps, eps)
        verdicts = {p: "holds" for p in rep.holds_at}
        verdicts.update({p: "fails" for p in rep.fails_at})
        assert rep.total == steps[0] * steps[1] == len(verdicts) + len(rep.undecided_at)
        want_less = ineq.cmp in ("<", "<=")
        form = lower_grid(Node("sub", (ineq.left, ineq.right)))
        for xv, av in verdicts.keys() | set(rep.undecided_at):
            diff, m = _quotient_at(form, xv, av)  # no grid here divides by a sum
            sgn = sign_of(diff, m)
            if sgn == 0:
                want = "fails" if ineq.strict else "holds"
            else:
                want = "holds" if (sgn < 0) == want_less else "fails"
            if (xv, av) in verdicts:
                assert verdicts[(xv, av)] == want
                continue
            top = max(diff, default=0)
            diff = {k - top: c for k, c in diff.items()}
            try:
                decided = not diff or lau_enclosure(diff, m, eps).definite_sign()
            except BudgetExceededError:
                decided = False
            assert not decided

    check()


def test_grid_preconditions():
    ineq = parse_inequality(INEQ_13)
    with pytest.raises(PreconditionError):
        grid_check(ineq, (F(0), F(1)), (F(0), F(1)), 1)
    with pytest.raises(PreconditionError):
        grid_check(ineq, (F(1), F(0)), (F(0), F(1)), 3)
    with pytest.raises(PreconditionError):
        grid_check(ineq, (F(0), F(0)), (F(0), F(1)), 3)
    with pytest.raises(PreconditionError):
        grid_check(ineq, (F(0), F(1)), (F(0), F(1)), 3, eps=-1)
