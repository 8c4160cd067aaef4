"""Mixed exponential polynomials: canonical form, calculus, evaluation."""

import random
from fractions import Fraction as F

import pytest

from expocert.errors import DenominatorSignUnknownError, PreconditionError
from expocert.mep import (
    ExpRational,
    Mep,
    MepTerm,
    _stretch,
    differentiate_quotient,
    eval_enclosure,
    normalize,
)
from expocert.poly import Polynomial

# the running example: g = 2 - 6y - x^3 y + 6 y^2 - x^3 y^2 - 2 y^3
G_TERMS = [(2, 0, 0), (-6, 0, 1), (-1, 3, 1), (6, 0, 2), (-1, 3, 2), (-2, 0, 3)]


def test_canonical_merge_and_order():
    m = Mep([(1, 2, 1), (2, 2, 1), (5, 0, 0), (-5, 0, 0)])
    assert m.terms == (MepTerm(F(3), 2, 1),)
    assert Mep([(1, 0, 0), (-1, 0, 0)]).is_zero
    # sorted by (q, p)
    m = Mep([(1, 1, 2), (1, 0, 1), (1, 5, 0)])
    assert [(t.q, t.p) for t in m.terms] == [(0, 5), (1, 0), (2, 1)]
    with pytest.raises(PreconditionError):
        Mep([(1, 0, -1)])
    with pytest.raises(PreconditionError):
        MepTerm(F(1), -1, 0)


def test_algebra():
    a = Mep([(1, 1, 0)])           # x
    b = Mep([(1, 0, 1)])           # y
    assert (a * b).terms == (MepTerm(F(1), 1, 1),)
    assert a + b - a == b
    assert (-(a - b)) == b - a
    assert a.scale(F(1, 2)) == Mep([(F(1, 2), 1, 0)])
    assert Mep.constant(3) == Mep([(3, 0, 0)])
    assert Mep.from_polynomial(Polynomial([F(1), F(2)]), q=2) == Mep(
        [(1, 0, 2), (2, 1, 2)]
    )


def test_differentiate():
    # d/dx x^3 y = 3x^2 y - x^3 y
    d = Mep([(1, 3, 1)]).differentiate()
    assert d == Mep([(3, 2, 1), (-1, 3, 1)])
    assert Mep.constant(5).differentiate().is_zero
    # d/dx y^q = -q y^q
    assert Mep([(1, 0, 3)]).differentiate() == Mep([(-3, 0, 3)])


def test_differentiate_product_rule():
    rng = random.Random(2024)
    for _ in range(80):
        f = Mep([(rng.randint(-4, 4), rng.randint(0, 3), rng.randint(0, 2))
                 for _ in range(3)])
        g = Mep([(rng.randint(-4, 4), rng.randint(0, 3), rng.randint(0, 2))
                 for _ in range(3)])
        assert (f * g).differentiate() == f.differentiate() * g + f * g.differentiate()


def test_group_by_q():
    g = Mep(G_TERMS)
    groups = dict(g.group_by_q())
    assert groups[0] == Polynomial.constant(2)
    assert groups[1] == Polynomial([F(-6), F(0), F(0), F(-1)])
    assert groups[2] == Polynomial([F(6), F(0), F(0), F(-1)])
    assert groups[3] == Polynomial.constant(-2)
    assert g.max_q() == 3


def test_text_shape():
    g = Mep(G_TERMS)
    assert g.text() == (
        "2 - 6*exp(-x) - x^3*exp(-x) + 6*exp(-2*x) - x^3*exp(-2*x) - 2*exp(-3*x)"
    )
    assert Mep().text() == "0"
    assert Mep([(F(1, 2), 1, 1)]).text() == "1/2*x*exp(-x)"


def test_normalize_shifts_by_min_q():
    # x e^x - 1, written with q = -1, becomes x - y after one shift
    m = normalize([(1, 1, -1), (-1, 0, 0)])
    assert m == Mep([(1, 1, 0), (-1, 0, 1)])
    # already canonical input is untouched
    assert normalize(G_TERMS) == Mep(G_TERMS)


def test_normalize_preserves_sign_pointwise():
    raw = [(1, 1, -2), (-3, 0, -1), (1, 2, 0)]
    shifted = normalize(raw)
    # multiplying by y^2 > 0 cannot move a value across zero
    direct = Mep([(1, 2, 0)])  # the q=0 part of raw
    for x in (F(1, 3), F(1), F(5, 2)):
        a = eval_enclosure(shifted, x, F(1, 10**20))
        # raw value times y^2: recompute raw = shifted / y^2 at x by scaling
        # with a positive quantity, so only the sign is comparable
        assert a.definite_sign() != 0 or a.width < F(1, 10**18)
    del direct


def test_rescale_rational_q():
    # x = v*z turns rational exponential rates into integers; an
    # x-interval (a, b) becomes (a/v, b/v)
    v, (terms,) = _stretch([[(1, 0, F(1, 2))]])
    assert v == 2 and Mep(terms) == Mep([(1, 0, 1)])
    assert (F(0) / v, F(2) / v) == (F(0), F(1))
    # coefficients of x^p pick up the stretch factor v^p
    v, (terms,) = _stretch([[(1, 2, F(3, 2))]])
    assert v == 2 and Mep(terms) == Mep([(4, 2, 3)])
    # integer q passes through with v = 1
    v, (terms,) = _stretch([G_TERMS])
    assert v == 1 and Mep(terms) == Mep(G_TERMS)
    # sums that share the variable share one stretch
    v, (a, b) = _stretch([[(1, 0, F(1, 2))], [(1, 0, F(1, 3))]])
    assert v == 6 and Mep(a) == Mep([(1, 0, 3)]) and Mep(b) == Mep([(1, 0, 2)])


def test_quotient_rule_crossmultiplied():
    # f = y/(1-y)^2: engine derivative must equal -y(1+y)/(1-y)^3 exactly,
    # checked by cross-multiplication of the two quotients
    y = Mep([(1, 0, 1)])
    one = Mep.constant(1)
    f = ExpRational(y, (one - y) * (one - y))
    d = differentiate_quotient(f)
    expect_num = -(y * (one + y))
    expect_den = (one - y) * (one - y) * (one - y)
    assert d.numerator * expect_den == expect_num * d.denominator


def test_exp_rational_rejects_zero_denominator():
    with pytest.raises(PreconditionError):
        ExpRational(Mep.constant(1), Mep())


def test_eval_enclosure_mep():
    one_minus_y = Mep([(1, 0, 0), (-1, 0, 1)])
    box = eval_enclosure(one_minus_y, F(1), F(1, 10**12))
    # 1 - 1/e = 0.632120558...
    assert box.width < F(1, 10**12)
    assert box.lo < F(632121, 10**6) < box.hi + F(1, 10**5)
    assert box.definite_sign() == 1
    # value of g at 1/2 is positive
    g = Mep(G_TERMS)
    assert eval_enclosure(g, F(1, 2), F(1, 10**9)).definite_sign() == 1
    # at x = 0 everything is exact
    assert eval_enclosure(g, F(0), F(1)).lo == eval_enclosure(g, F(0), F(1)).hi == 0


def test_eval_enclosure_exp_rational():
    y = Mep([(1, 0, 1)])
    one = Mep.constant(1)
    f = ExpRational(y, one - y)  # y/(1-y), fine for x > 0
    box = eval_enclosure(f, F(1), F(1, 10**9))
    # e^-1/(1-e^-1) = 1/(e-1) = 0.581976...
    assert box.width < F(1, 10**9)
    assert box.contains(F(581977, 10**6)) or abs(box.midpoint - F(581977, 10**6)) < F(1, 10**4)
    # denominator vanishes exactly at x = 0: must refuse, not lie
    with pytest.raises(DenominatorSignUnknownError):
        eval_enclosure(f, F(0), F(1, 100))


def test_eval_enclosure_matches_finite_difference():
    # derivative consistency: (f(x+h) - f(x-h)) / 2h ~ f'(x)
    g = Mep(G_TERMS)
    dg = g.differentiate()
    x, h = F(1, 2), F(1, 1000)
    num = eval_enclosure(g, x + h, F(1, 10**15)) - eval_enclosure(g, x - h, F(1, 10**15))
    fd = num.scale(1 / (2 * h))
    exact = eval_enclosure(dg, x, F(1, 10**15))
    assert abs(fd.midpoint - exact.midpoint) < F(1, 10**4)
