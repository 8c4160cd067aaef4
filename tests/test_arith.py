"""Interval arithmetic, exponential brackets, and constants in e."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from expocert.arith import (
    ConstExpr,
    RationalInterval,
    _common_denominator,
    _sum_add,
    _sum_mul,
    _sum_reciprocal,
    decimal_str,
    enclose_exp_neg,
    exp_enclosure,
    lau_enclosure,
)
from expocert.errors import DivisionByPossiblyZeroError, PreconditionError

# interior reference values, correct to far beyond any eps used below
E_REF = sum(F(1, factorial(k)) for k in range(40))
EXP_NEG1_REF = sum(F((-1) ** k, factorial(k)) for k in range(40))
SLOP = F(1, 10**40)


def contains_ref(box, ref):
    return box.lo - SLOP <= ref <= box.hi + SLOP


def test_interval_basics():
    iv = RationalInterval(F(1, 3), F(1, 2))
    assert iv.width == F(1, 6)
    assert iv.midpoint == F(5, 12)
    assert iv.lo <= F(2, 5) <= iv.hi
    assert not iv.lo <= F(3, 5) <= iv.hi
    assert RationalInterval.point(F(7)).width == 0
    with pytest.raises(PreconditionError):
        RationalInterval(F(1), F(0))


def test_interval_arithmetic():
    a = RationalInterval(F(1), F(2))
    b = RationalInterval(F(-1), F(3))
    assert (a + b) == RationalInterval(F(0), F(5))
    assert (a - b) == RationalInterval(F(-2), F(3))
    assert (a * b) == RationalInterval(F(-2), F(6))
    assert (-a) == RationalInterval(F(-2), F(-1))
    assert a.scale(F(-2)) == RationalInterval(F(-4), F(-2))
    assert a.reciprocal() == RationalInterval(F(1, 2), F(1))
    assert (a / a) == RationalInterval(F(1, 2), F(2))


def test_interval_power_and_sign():
    spans = RationalInterval(F(-2), F(3))
    assert spans.power(2) == RationalInterval(F(0), F(9))
    assert spans.power(3) == RationalInterval(F(-8), F(27))
    assert spans.power(0) == RationalInterval.point(1)
    assert spans.definite_sign() == 0
    assert RationalInterval(F(1, 9), F(2)).definite_sign() == 1
    assert RationalInterval(F(-2), F(-1, 9)).definite_sign() == -1
    with pytest.raises(DivisionByPossiblyZeroError):
        spans.reciprocal()


def test_intersect_and_round():
    a = RationalInterval(F(0), F(2))
    b = RationalInterval(F(1), F(3))
    assert a.intersect(b) == RationalInterval(F(1), F(2))
    with pytest.raises(PreconditionError):
        a.intersect(RationalInterval(F(5), F(6)))
    rng = random.Random(3)
    for _ in range(100):
        lo = F(rng.randint(-999, 999), rng.randint(1, 997))
        iv = RationalInterval(lo, lo + F(rng.randint(0, 99), 7))
        r = iv.outward_round(16)
        assert r.lo <= iv.lo and iv.hi <= r.hi
        assert r.lo.denominator <= 2**16 and r.hi.denominator <= 2**16


def test_enclose_exp_neg():
    box = enclose_exp_neg(F(1), F(1, 10**6))
    assert box.width < F(1, 10**6)
    assert contains_ref(box, EXP_NEG1_REF)
    assert enclose_exp_neg(F(0), F(1, 10)) == RationalInterval.point(1)
    # t = 1 with m = 1 forced gives the order-(1,2) bracket
    assert enclose_exp_neg(F(1), F(1), m_force=1) == RationalInterval(F(0), F(1, 2))


def test_enclose_exp_neg_exact_width():
    # for forced order the bracket width is exactly t^(2m)/(2m)!
    rng = random.Random(11)
    for _ in range(50):
        t = F(rng.randint(1, 30), rng.randint(1, 10))
        m = rng.randint(1, 8)
        box = enclose_exp_neg(t, F(1), m_force=m)
        assert box.width == t ** (2 * m) / factorial(2 * m)
        assert contains_ref(box, sum(F((-1) ** k, factorial(k)) * t**k for k in range(60)))


def test_exp_enclosure_both_signs():
    for s, ref in ((F(1), E_REF), (F(-1), EXP_NEG1_REF), (F(0), F(1))):
        box = exp_enclosure(s, F(1, 10**9))
        assert box.width < F(1, 10**9)
        assert contains_ref(box, ref)
    big = exp_enclosure(F(5), F(1, 10**6))
    assert contains_ref(big, sum(F(5**k, factorial(k)) for k in range(80)))


def test_const_expr_rational_degenerate():
    c = ConstExpr.rational(F(3, 4))
    assert c.enclosure(F(1, 10)) == RationalInterval.point(F(3, 4))
    assert c.sign() == 1
    assert (c - c).is_zero()
    assert (c - c).sign() == 0


def test_const_expr_e_arithmetic():
    e = ConstExpr.e()
    one = ConstExpr.rational(1)
    # (e+1)(e-1) = e^2 - 1, recognized symbolically
    assert ((e + one) * (e - one) - (e * e - one)).is_zero()
    assert (e - ConstExpr.rational(2)).sign() == 1
    assert (e - ConstExpr.rational(3)).sign() == -1
    assert (e**2 - e * e).is_zero()
    num, den = (e / (e + one)).e_fraction()
    assert num.text("e") == "e"
    assert den.text("e") == "1 + e"


def test_const_expr_division_by_symbolic_zero():
    e = ConstExpr.e()
    bad = e / (e - e)
    with pytest.raises(DivisionByPossiblyZeroError):
        bad.enclosure(F(1, 100))


def test_application_constants_decimals():
    e = ConstExpr.e()
    one = ConstExpr.rational(1)
    A = (e * e - 3 * e + one) / (e * e - 2 * e + one)
    box = A.enclosure(F(1, 10**9))
    assert decimal_str(box.midpoint, 6) == "0.079326"
    twelve = ConstExpr.rational(F(1, 12))
    p0 = (A + twelve) / 2
    box = p0.enclosure(F(1, 10**9))
    assert decimal_str(box.midpoint, 6) == "0.081329"


def test_const_expr_text_round_shape():
    e = ConstExpr.e()
    A = (e * e - 3 * e + ConstExpr.rational(1)) / (e * e - 2 * e + ConstExpr.rational(1))
    assert A.text() == "(1 - 3*e + e^2) / (1 - 2*e + e^2)"
    assert ConstExpr.rational(F(1, 12)).text() == "1/12"


def test_lau_helpers():
    a = {F(1): F(2)}  # 2 e
    assert _sum_add(a, {F(1): F(-2)}, 1) == {}  # cancellation drops the key
    assert _sum_add(a, a, -1) == {}
    assert _sum_add(a, {F(0): F(3)}, -1) == {F(1): F(2), F(0): F(-3)}
    # (e^s + 1)(e^s - 1) = e^(2s) - 1
    s = F(1, 3)
    p = {s: F(1), F(0): F(1)}
    q = {s: F(1), F(0): F(-1)}
    assert _sum_mul(p, q) == {2 * s: F(1), F(0): F(-1)}
    assert _sum_mul(p, {}) == {}
    assert _sum_reciprocal({F(-1, 2): F(4)}) == {F(1, 2): F(1, 4)}
    # D puts every exponent on the lattice of e^(1/D)
    assert _common_denominator({F(-3, 2): F(2), F(-1, 2): F(-1), F(0): F(1)}) == 2
    assert _common_denominator({F(0): F(5)}) == 1
    assert _common_denominator([F(1, 4), F(5, 6)]) == 12


def test_lau_sign_and_enclosure():
    # e - 3 < 0 < e - 2
    assert lau_enclosure({F(1): F(1), F(0): F(-3)}, F(1, 10)).definite_sign() == -1
    assert lau_enclosure({F(1): F(1), F(0): F(-2)}, F(1, 10)).definite_sign() == 1
    box = lau_enclosure({F(1): F(1)}, F(1, 10**12))
    assert contains_ref(box, E_REF)
    assert box.width < F(1, 10**12)
    assert lau_enclosure({}, F(1, 10)) == RationalInterval.point(0)
    # a negative fractional exponent uses reciprocal powers: e^(-1/2) squared
    half = lau_enclosure({F(-1, 2): F(1)}, F(1, 10**9))
    sq = half * half
    assert contains_ref(sq, EXP_NEG1_REF)
    root_e = lau_enclosure({F(1, 2): F(1)}, F(1, 10**9))
    assert contains_ref(root_e * root_e, E_REF)
    # e^(1/2) e^(1/3) share the one tau = e^(1/6)
    box = lau_enclosure({F(1, 2): F(1), F(1, 3): F(-1)}, F(1, 10**9))
    assert box.definite_sign() == 1 and box.width < F(1, 10**9)
    with pytest.raises(PreconditionError):
        lau_enclosure({F(1): F(1)}, F(0))


def test_lau_enclosure_tightening_is_consistent():
    # a decided sign stays the same sign as eps shrinks
    term = {F(3, 2): F(1), F(0): F(-4)}  # e^(3/2) - 4 = 0.4816...
    s1 = lau_enclosure(term, F(1, 10**3)).definite_sign()
    s2 = lau_enclosure(term, F(1, 10**25)).definite_sign()
    assert s1 == s2 == 1


def test_decimal_str():
    assert decimal_str(F(1, 3), 6) == "0.333333"
    assert decimal_str(F(-1, 3), 6) == "-0.333333"
    assert decimal_str(F(22, 7), 6) == "3.142857"
    assert decimal_str(F(5), 2) == "5.00"
    assert decimal_str(F(1, 2), 0) == "0"
    with pytest.raises(PreconditionError):
        decimal_str(F(1, 3), -1)
