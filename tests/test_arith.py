"""Interval arithmetic, exponential brackets, and constants in e."""

import random
from fractions import Fraction as F
from itertools import islice
from math import factorial, lcm

import pytest

from expocert.arith import (
    ConstExpr,
    RationalInterval,
    _mantissa_pow,
    _put,
    _sum_add,
    _sum_mul,
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
from expocert.expr import Node, parse_expression, to_const

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
    assert (a * b) == RationalInterval(F(-2), F(6))
    assert a * RationalInterval.point(F(-2)) == RationalInterval(F(-4), F(-2))
    assert a.reciprocal() == RationalInterval(F(1, 2), F(1))
    assert (a / a) == RationalInterval(F(1, 2), F(2))


def test_interval_power_and_sign():
    # powers of [1/2, 3] on mantissas over 2^16: exact where the grid holds
    # them, and 1/3 = 1/hi rounded down
    bits, one = 16, 2**16
    lo, hi = RationalInterval(F(1, 2), F(3)).mantissas(bits)
    assert (lo, hi) == (one // 2, 3 * one)
    assert _mantissa_pow(lo, hi, 0, bits) == (one, one)
    for k in (2, 3, -1):
        p_lo, p_hi = _mantissa_pow(lo, hi, k, bits)
        want_lo, want_hi = sorted((F(1, 2) ** k, F(3) ** k))
        assert F(p_lo, one) <= want_lo < F(p_lo + 1, one)
        assert F(p_hi - 1, one) < want_hi <= F(p_hi, one)
    assert _mantissa_pow(lo, hi, -1, bits) == (one // 3, 2 * one)
    # a long chain of rounded products still encloses the exact power
    rng = random.Random(5)
    for _ in range(100):
        base = RationalInterval(F(rng.randint(1, 99), 37), F(rng.randint(100, 199), 37))
        k = rng.randint(-9, 9)
        p_lo, p_hi = _mantissa_pow(*base.mantissas(8), k, 8)
        exact = sorted((base.lo**k, base.hi**k))
        assert F(p_lo, 2**8) <= exact[0] and exact[1] <= F(p_hi, 2**8)
    spans = RationalInterval(F(-2), F(3))
    assert spans.definite_sign() == 0
    assert RationalInterval(F(1, 9), F(2)).definite_sign() == 1
    assert RationalInterval(F(-2), F(-1, 9)).definite_sign() == -1
    with pytest.raises(DivisionByPossiblyZeroError):
        spans.reciprocal()


def test_outward_round():
    # mantissas are the floor and the ceiling of the ends over 2^-16
    rng = random.Random(3)
    for _ in range(100):
        lo = F(rng.randint(-999, 999), rng.randint(1, 997))
        iv = RationalInterval(lo, lo + F(rng.randint(0, 99), 7))
        m_lo, m_hi = iv.mantissas(16)
        assert F(m_lo, 2**16) <= iv.lo < F(m_lo + 1, 2**16)
        assert F(m_hi - 1, 2**16) < iv.hi <= F(m_hi, 2**16)


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


def _fraction_brackets(t):
    # the former Fraction walk of the bracket: (T_{2m-1}(t), T_{2m}(t),
    # t^(2m)/(2m)!) for m = 1, 2, ..., each from the previous partial sum
    acc = term = F(1)
    for k in range(1, 401):
        term *= -t / k
        acc += term
        if k % 2 == 0:
            yield acc - term, acc, term


def _fraction_exp_enclosure(s, eps):
    # the former Fraction exp_enclosure for s > 0
    inner = eps if eps < 1 else F(1, 2)
    for lo, hi, width in _fraction_brackets(s):
        if width < inner and lo > 0 and 1 / lo - 1 / hi < eps:
            return RationalInterval(1 / hi, 1 / lo)
    raise BudgetExceededError("reference walk hit the order cap")


def test_exp_enclosure_matches_retry_reference():
    # the former exp_enclosure for s > 0: restart the exp(-s) bracket with
    # the tolerance quartered until its reciprocal is narrow enough. For
    # s <= 1, walking one partial sum must pick the same bracket, whatever
    # the numerator of s.
    def reference(s, eps):
        inner = eps if eps < 1 else F(1, 2)
        while True:
            box = enclose_exp_neg(s, inner)
            if box.lo > 0 and box.reciprocal().width < eps:
                return box.reciprocal()
            inner /= 4

    exponents = [F(1, d) for d in range(1, 7)] + [F(3, 5), F(5, 7), F(2, 3), F(7, 9)]
    for s in exponents:
        for bits in (0, 1, 2, 5, 16, 33, 64, 100, 257, 700):
            for eps in (F(1, 2**bits), F(3, 2**bits), F(1, 10**bits)):
                assert exp_enclosure(s, eps) == reference(s, eps)


def test_exp_enclosure_matches_fraction_walk():
    # the integer bracket returns the interval the Fraction walk returned,
    # for exponents above 1 and numerators above 1 too
    rng = random.Random(29)
    for _ in range(150):
        s = F(rng.randint(1, 60), rng.randint(1, 12))
        eps = F(rng.randint(1, 9), 10 ** rng.randint(0, 60))
        assert exp_enclosure(s, eps) == _fraction_exp_enclosure(s, eps)
        assert exp_enclosure(-s, eps) == enclose_exp_neg(s, eps)


def test_enclose_exp_neg_matches_fraction_walk():
    rng = random.Random(31)
    for _ in range(150):
        t = F(rng.randint(1, 60), rng.randint(1, 12))
        eps = F(rng.randint(1, 9), 10 ** rng.randint(0, 60))
        want = next(
            RationalInterval(lo, hi)
            for lo, hi, width in _fraction_brackets(t)
            if width < eps
        )
        assert enclose_exp_neg(t, eps) == want
        m = rng.randint(1, 30)
        lo, hi, _ = next(islice(_fraction_brackets(t), m - 1, None))
        assert enclose_exp_neg(t, F(1), m_force=m) == RationalInterval(lo, hi)


def test_const_expr_rational_degenerate():
    c = ConstExpr.rational(F(3, 4))
    assert c.enclosure(F(1, 10)) == RationalInterval.point(F(3, 4))
    assert c.sign() == 1
    assert (c - c).is_zero()
    assert (c - c).sign() == 0


def _const(text):
    return to_const(parse_expression(text))


def test_const_expr_e_arithmetic():
    # (e+1)(e-1) = e^2 - 1, recognized symbolically
    assert _const("(e + 1)*(e - 1) - (e*e - 1)").is_zero()
    assert _const("e - 2").sign() == 1
    assert _const("e - 3").sign() == -1
    assert _const("e^2 - e*e").is_zero()
    num, den = _const("e/(e + 1)").e_fraction()
    assert num.text("e") == "e"
    assert den.text("e") == "1 + e"


def test_const_expr_division_by_symbolic_zero():
    bad = _const("e/(e - e)")
    with pytest.raises(DivisionByPossiblyZeroError):
        bad.enclosure(F(1, 100))


def test_application_constants_decimals():
    A = _const("(e*e - 3*e + 1)/(e*e - 2*e + 1)")
    box = A.enclosure(F(1, 10**9))
    assert decimal_str(box.midpoint, 6) == "0.079326"
    twelve = ConstExpr.rational(F(1, 12))
    p0 = (A + twelve) / 2
    box = p0.enclosure(F(1, 10**9))
    assert decimal_str(box.midpoint, 6) == "0.081329"


def test_const_expr_text_round_shape():
    A = _const("(e*e - 3*e + 1)/(e*e - 2*e + 1)")
    assert A.text() == "(1 - 3*e + e^2) / (1 - 2*e + e^2)"
    assert ConstExpr.rational(F(1, 12)).text() == "1/12"


def over_m(a: dict) -> tuple[dict, int]:
    """A sum keyed by rational exponents s, {s: c}, as the integer-keyed
    sum over the least M that puts every s over it: ({s*M: c}, M)."""
    m = lcm(1, *(s.denominator for s in a))
    return {s.numerator * (m // s.denominator): c for s, c in a.items()}, m


def test_lau_helpers():
    a = {1: F(2)}  # 2 e
    assert _sum_add(a, {1: F(-2)}, 1) == {}  # cancellation drops the key
    assert _sum_add(a, a, -1) == {}
    assert _sum_add(a, {0: F(3)}, -1) == {1: F(2), 0: F(-3)}
    # _put adds by value: the very object stored at a key counts twice
    c = F(2, 3)
    out = {1: c}
    _put(out, 1, c)
    assert out == {1: F(4, 3)}
    _put(out, 1, F(-4, 3))  # the opposite value drops the key
    assert out == {}
    _put(out, 2, F(0))  # a zero at a new key stores nothing
    assert out == {}
    # (e^s + 1)(e^s - 1) = e^(2s) - 1, for s = 1/3: keys over M = 3
    p = {1: 1, 0: 1}
    q = {1: 1, 0: -1}
    assert _sum_mul(p, q) == {2: 1, 0: -1}
    assert _sum_mul(p, {}) == {}


def test_lau_sign_and_enclosure():
    # e - 3 < 0 < e - 2
    assert lau_enclosure({1: F(1), 0: F(-3)}, 1, F(1, 10)).definite_sign() == -1
    assert lau_enclosure({1: F(1), 0: F(-2)}, 1, F(1, 10)).definite_sign() == 1
    box = lau_enclosure({1: F(1)}, 1, F(1, 10**12))
    assert contains_ref(box, E_REF)
    assert box.width < F(1, 10**12)
    assert lau_enclosure({}, 1, F(1, 10)) == RationalInterval.point(0)
    # int coefficients enclose as the equal Fractions: 2 - e and the exact 3
    box = lau_enclosure({0: 2, 1: -1}, 1, F(1, 10**9))
    assert box == lau_enclosure({0: F(2), 1: F(-1)}, 1, F(1, 10**9))
    assert lau_enclosure({0: 3}, 5, F(1, 10)) == RationalInterval.point(3)
    # a negative fractional exponent uses reciprocal powers: e^(-1/2) squared
    half = lau_enclosure({-1: F(1)}, 2, F(1, 10**9))
    sq = half * half
    assert contains_ref(sq, EXP_NEG1_REF)
    root_e = lau_enclosure({1: F(1)}, 2, F(1, 10**9))
    assert contains_ref(root_e * root_e, E_REF)
    # the keys over M = 4 reduce to the same tau = e^(1/2)
    assert lau_enclosure({2: F(1)}, 4, F(1, 10**9)) == root_e
    # e^(1/2) e^(1/3) share the one tau = e^(1/6)
    box = lau_enclosure({3: F(1), 2: F(-1)}, 6, F(1, 10**9))
    assert box.definite_sign() == 1 and box.width < F(1, 10**9)
    with pytest.raises(PreconditionError):
        lau_enclosure({1: F(1)}, 1, F(0))


def test_lau_enclosure_tightening_is_consistent():
    # a decided sign stays the same sign as eps shrinks
    term = {3: F(1), 0: F(-4)}  # e^(3/2) - 4 = 0.4816...
    s1 = lau_enclosure(term, 2, F(1, 10**3)).definite_sign()
    s2 = lau_enclosure(term, 2, F(1, 10**25)).definite_sign()
    assert s1 == s2 == 1
    # one table of tau enclosures, shared across sums of different D and
    # widths, gives what each call gives without one
    rng = random.Random(37)
    taus = {}
    for _ in range(80):
        a = {}
        for _ in range(rng.randint(1, 4)):
            s = F(rng.randint(-40, 40), rng.randint(1, 6))
            _put(a, s, F(rng.randint(-9, 9), rng.randint(1, 5)))
        a, m = over_m(a)
        eps = F(rng.randint(1, 3), 2 ** rng.choice((8, 16, 30, 64, 120)))
        assert lau_enclosure(a, m, eps, taus) == lau_enclosure(a, m, eps)
    denoms = {d for d, _ in taus}
    assert len(denoms) > 1 and len(taus) > len(denoms)


def test_quotient_enclosure_and_sign():
    # 1/e^(-100): the denominator must first clear zero, then the quotient
    # needs a working width about e^-200 times the target
    box = quotient_enclosure({0: F(1)}, {-100: F(1)}, 1, F(1, 10**6))
    assert box.width < F(1, 10**6)
    assert contains_ref(box, sum(F(100**k, factorial(k)) for k in range(400)))
    with pytest.raises(DivisionByPossiblyZeroError):
        quotient_enclosure({0: F(1)}, {}, 1, F(1, 10))
    # exact zero, and a nonzero value far below any fixed width
    assert exp_sum_sign({}, 1) == 0
    assert exp_sum_sign({-500: F(1)}, 1) == 1
    assert exp_sum_sign({-500: F(-1), -501: F(2)}, 1) == -1
    # widths are relative to the largest term, so a tiny mixed-sign value
    # is signed too; one sign needs no width
    assert exp_sum_sign({-1500: F(1), -1501: F(-1)}, 1) == 1
    assert exp_sum_sign({-1500: F(-1), -1501: F(-3)}, 1) == -1
    # 1 - e^(-10^-700) is below 2^-2048 of its largest term: not signed
    with pytest.raises(BudgetExceededError):
        exp_sum_sign({0: F(1), -1: F(-1)}, 10**700)
    # eps must be positive, as for lau_enclosure
    with pytest.raises(PreconditionError):
        exp_sum_sign({-1500: F(1), -1501: F(-1)}, 1, 0)
    # int coefficients sign alike: 2e - 5 > 0
    assert exp_sum_sign({1: 2, 0: -5}, 1) == 1


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
    # powers, built twice: as expression trees for to_const, and in sympy
    # with a symbol t for e. Since e is transcendental, the constant is zero
    # exactly when sympy cancels the rational function of t to 0.
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import assume, example, given, settings, strategies as st

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
        """(Node, sympy expression in t, whether a divisor is exactly 0)"""
        if tree[0] == "rat":
            return Node("rat", value=tree[1]), sympy.Rational(str(tree[1])), False
        if tree[0] == "e":
            return Node("e"), t, False
        if tree[0] == "pow":
            n, s, bad = build(tree[1])
            bad = bad or (tree[2] < 0 and sympy.cancel(s) == 0)
            return Node("pow", (n,), value=tree[2]), s ** tree[2], bad
        (a, sa, bad_a), (b, sb, bad_b) = build(tree[1]), build(tree[2])
        node = Node(tree[0], (a, b))
        bad = bad_a or bad_b
        if tree[0] == "add":
            return node, sa + sb, bad
        if tree[0] == "sub":
            return node, sa - sb, bad
        if tree[0] == "mul":
            return node, sa * sb, bad
        bad = bad or sympy.cancel(sb) == 0
        return node, (sa / sb if not bad else sympy.Integer(0)), bad

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        tree=st.recursive(leaf, extend, max_leaves=6),
        eps=st.sampled_from([F(1, 10), F(1, 10**12), F(1, 10**30)]),
    )
    # the inner quotient is undefined, so the whole constant is too
    @example(tree=("div", ("rat", F(1)), ("div", ("rat", F(1)), ("sub", ("e",), ("e",)))),
             eps=F(1, 10))
    def check(tree, eps):
        node, s, divides_by_zero = build(tree)
        c = to_const(node)
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
    # far below the 2^-2048 enclosure cap); mixed sums of moderate size,
    # and mixed sums whose exponents share an offset of 500 to 5000 either
    # way, must agree with sympy's value at 60 digits
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
    positive = st.integers(1, 9).map(F)
    # terms of both signs, all moved by one offset
    both = st.tuples(
        st.lists(st.tuples(near, positive), min_size=1, max_size=3),
        st.lists(st.tuples(near, positive.map(lambda c: -c)), min_size=1, max_size=3),
    ).map(lambda p: p[0] + p[1])
    far = st.fractions(min_value=500, max_value=5000, max_denominator=7)
    offset = st.tuples(far, st.sampled_from([1, -1])).map(lambda p: p[0] * p[1])

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        one_signed=st.lists(st.tuples(deep, coeff), min_size=1, max_size=5),
        sign=st.sampled_from([1, -1]),
        mixed=st.lists(st.tuples(near, signed), min_size=1, max_size=5),
        moved=st.tuples(both, offset),
    )
    def check(one_signed, sign, mixed, moved):
        a = as_sum((s, sign * c) for s, c in one_signed)
        assert exp_sum_sign(*over_m(a)) == sign == sympy.sign(value(a))
        for terms in (mixed, [(s + moved[1], c) for s, c in moved[0]]):
            b = as_sum(terms)
            want = sympy.sign(value(b).evalf(60)) if b else 0
            assert exp_sum_sign(*over_m(b)) == want

    check()
    # values far above or below 1, which a width absolute in the value
    # could not sign: e^500 - 1, e^3000 - 1, e^5000 - 2^-300,
    # e^-1500 - e^-1501 and e^-1500 - e^(-1500 - 10^-6)
    for terms in (
        [(500, 1), (0, -1)],
        [(3000, 1), (0, -1)],
        [(5000, 1), (0, -F(1, 2**300))],
        [(-1500, 1), (-1501, -1)],
        [(-1500, 1), (-1500 - F(1, 10**6), -1)],
    ):
        for sign in (1, -1):
            a = as_sum((F(s), sign * F(c)) for s, c in terms)
            assert exp_sum_sign(*over_m(a)) == sign == sympy.sign(value(a).evalf(60))


def test_lau_enclosure_against_sympy():
    # mixed-sign sums over exponents with denominators 1..12 and |s| <= 20:
    # the enclosure holds the value (computed far past eps), is narrower
    # than eps, and has endpoints over a power of 2
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings, strategies as st

    exponent = st.integers(1, 12).flatmap(
        lambda q: st.integers(-20 * q, 20 * q).map(lambda n: F(n, q))
    )
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)

    def is_power_of_2(n):
        return n & (n - 1) == 0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        terms=st.lists(st.tuples(exponent, coeff), min_size=1, max_size=5),
        eps=st.sampled_from([F(1, 2**16), F(1, 10**30), F(1, 10**200)]),
    )
    def check(terms, eps):
        a = _sum_add({}, dict(terms), 1)
        box = lau_enclosure(*over_m(a), eps)
        value = sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.exp(sympy.Rational(s.numerator, s.denominator))
            for s, c in a.items()
        )
        digits = 80 + len(str(eps.denominator))
        value = sympy.N(value, digits)
        tol = sympy.Float(10, digits) ** (10 - digits) * (1 + abs(value))
        assert sympy.Rational(box.lo.numerator, box.lo.denominator) - tol <= value
        assert value <= sympy.Rational(box.hi.numerator, box.hi.denominator) + tol
        assert box.width < eps
        if set(a) - {0}:
            assert is_power_of_2(box.lo.denominator)
            assert is_power_of_2(box.hi.denominator)

    check()
