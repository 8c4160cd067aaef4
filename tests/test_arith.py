"""Interval arithmetic, exponential brackets, and constants in e."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from expocert.arith import (
    ConstExpr,
    RationalInterval,
    _common_denominator,
    _interval_pow,
    _sum_add,
    _sum_mul,
    _sum_reciprocal,
    decimal_str,
    enclose_exp_neg,
    exp_enclosure,
    exp_sum_sign,
    lau_enclosure,
    quotient_enclosure,
)
from expocert.errors import (
    BudgetExceededError,
    DivisionByPossiblyZeroError,
    PreconditionError,
)

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
    assert (a * b) == RationalInterval(F(-2), F(6))
    assert a.scale(F(-2)) == RationalInterval(F(-4), F(-2))
    assert a.reciprocal() == RationalInterval(F(1, 2), F(1))
    assert (a / a) == RationalInterval(F(1, 2), F(2))


def test_interval_power_and_sign():
    # powers of a positive interval, exact while the rounding grid holds them
    base = RationalInterval(F(1, 2), F(3))
    assert _interval_pow(base, 2, 16) == RationalInterval(F(1, 4), F(9))
    assert _interval_pow(base, 3, 16) == RationalInterval(F(1, 8), F(27))
    assert _interval_pow(base, 0, 16) == RationalInterval.point(1)
    inverse = RationalInterval(F(1, 3), F(2)).outward_round(16)
    assert _interval_pow(base, -1, 16) == inverse
    spans = RationalInterval(F(-2), F(3))
    assert spans.definite_sign() == 0
    assert RationalInterval(F(1, 9), F(2)).definite_sign() == 1
    assert RationalInterval(F(-2), F(-1, 9)).definite_sign() == -1
    with pytest.raises(DivisionByPossiblyZeroError):
        spans.reciprocal()


def test_outward_round():
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


def test_exp_enclosure_matches_retry_reference():
    # the former exp_enclosure for s > 0: restart the exp(-s) bracket with
    # the tolerance quartered until its reciprocal is narrow enough. For
    # s = 1/D <= 1, walking one partial sum must pick the same bracket.
    def reference(s, eps):
        inner = eps if eps < 1 else F(1, 2)
        while True:
            box = enclose_exp_neg(s, inner)
            if box.lo > 0 and box.reciprocal().width < eps:
                return box.reciprocal()
            inner /= 4

    for d in range(1, 7):
        for bits in (0, 1, 2, 5, 16, 33, 64, 100, 257, 700):
            for eps in (F(1, 2**bits), F(3, 2**bits), F(1, 10**bits)):
                assert exp_enclosure(F(1, d), eps) == reference(F(1, d), eps)


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


def test_quotient_enclosure_and_sign():
    # 1/e^(-100): the denominator must first clear zero, then the quotient
    # needs a working width about e^-200 times the target
    box = quotient_enclosure({F(0): F(1)}, {F(-100): F(1)}, F(1, 10**6))
    assert box.width < F(1, 10**6)
    assert contains_ref(box, sum(F(100**k, factorial(k)) for k in range(400)))
    with pytest.raises(DivisionByPossiblyZeroError):
        quotient_enclosure({F(0): F(1)}, {}, F(1, 10))
    # exact zero, and a nonzero value far below any fixed width
    assert exp_sum_sign({}) == 0
    assert exp_sum_sign({F(-500): F(1)}) == 1
    assert exp_sum_sign({F(-500): F(-1), F(-501): F(2)}) == -1
    # a mixed-sign value below 2^-2048 is not signed; one sign needs no width
    with pytest.raises(BudgetExceededError):
        exp_sum_sign({F(-1500): F(1), F(-1501): F(-1)})
    assert exp_sum_sign({F(-1500): F(-1), F(-1501): F(-3)}) == -1


def test_decimal_str():
    assert decimal_str(F(1, 3), 6) == "0.333333"
    assert decimal_str(F(-1, 3), 6) == "-0.333333"
    assert decimal_str(F(22, 7), 6) == "3.142857"
    assert decimal_str(F(5), 2) == "5.00"
    assert decimal_str(F(1, 2), 0) == "0"
    with pytest.raises(PreconditionError):
        decimal_str(F(1, 3), -1)


def test_const_expr_against_sympy():
    # random constants from rationals and e under + - * / and integer
    # powers, built twice: as ConstExpr, and in sympy with a symbol t for e.
    # Since e is transcendental, the constant is zero exactly when sympy
    # cancels the rational function of t to 0.
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import assume, given, settings, strategies as st

    from expocert.expr import parse_expression, to_const

    t = sympy.Symbol("t")
    leaf = st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=6).map(
            lambda q: ("rat", q)
        ),
        st.just(("e",)),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), inner, inner),
            st.tuples(st.just("pow"), inner, st.integers(-2, 3)),
        )

    def build(tree):
        """(ConstExpr, sympy expression in t, whether a divisor is exactly 0)"""
        if tree[0] == "rat":
            return ConstExpr.rational(tree[1]), sympy.Rational(str(tree[1])), False
        if tree[0] == "e":
            return ConstExpr.e(), t, False
        if tree[0] == "pow":
            c, s, bad = build(tree[1])
            bad = bad or (tree[2] < 0 and sympy.cancel(s) == 0)
            return c ** tree[2], s ** tree[2], bad
        (a, sa, bad_a), (b, sb, bad_b) = build(tree[1]), build(tree[2])
        bad = bad_a or bad_b
        if tree[0] == "add":
            return a + b, sa + sb, bad
        if tree[0] == "sub":
            return a - b, sa - sb, bad
        if tree[0] == "mul":
            return a * b, sa * sb, bad
        bad = bad or sympy.cancel(sb) == 0
        return a / b, (sa / sb if not bad else sympy.Integer(0)), bad

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        tree=st.recursive(leaf, extend, max_leaves=6),
        eps=st.sampled_from([F(1, 10), F(1, 10**12), F(1, 10**30)]),
    )
    def check(tree, eps):
        c, s, divides_by_zero = build(tree)
        if divides_by_zero:
            for use in (c.is_zero, c.sign, lambda: c.enclosure(eps)):
                with pytest.raises(DivisionByPossiblyZeroError):
                    use()
            return
        exact_zero = sympy.cancel(s) == 0
        assert c.is_zero() == exact_zero
        value = s.subs(t, sympy.E).evalf(80)
        tol = sympy.Float(10, 80) ** -60 * (1 + abs(value))
        assume(exact_zero or abs(value) > tol)
        assert c.sign() == (0 if exact_zero else (1 if value > 0 else -1))
        box = c.enclosure(eps)
        assert box.width < eps
        lo = sympy.Rational(box.lo.numerator, box.lo.denominator)
        hi = sympy.Rational(box.hi.numerator, box.hi.denominator)
        assert lo - tol <= value <= hi + tol
        assert (to_const(parse_expression(c.text())) - c).is_zero()

    check()


def test_exp_sum_sign_against_sympy():
    # one-signed sums are signed however small (exponents down to -3000,
    # far below the 2^-2048 enclosure cap); mixed sums of moderate size
    # must agree with sympy's value at 60 digits
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings, strategies as st

    def value(a):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.exp(sympy.Rational(s.numerator, s.denominator))
                   for s, c in a.items())

    def as_sum(terms):
        return _sum_add({}, {s: c for s, c in terms}, 1)

    coeff = st.fractions(min_value=1, max_value=9, max_denominator=5)
    deep = st.fractions(min_value=-3000, max_value=40, max_denominator=7)
    near = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    signed = st.integers(-9, 9).filter(bool).map(F)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        one_signed=st.lists(st.tuples(deep, coeff), min_size=1, max_size=5),
        sign=st.sampled_from([1, -1]),
        mixed=st.lists(st.tuples(near, signed), min_size=1, max_size=5),
    )
    def check(one_signed, sign, mixed):
        a = as_sum((s, sign * c) for s, c in one_signed)
        assert exp_sum_sign(a) == sign == sympy.sign(value(a))
        b = as_sum(mixed)
        want = sympy.sign(value(b).evalf(60)) if b else 0
        assert exp_sum_sign(b) == want

    check()
