"""Exact polynomial algebra, Sturm root counting and the Descartes test."""

import math
import random
from fractions import Fraction as F

import pytest

from expocert import poly
from expocert.errors import PreconditionError, ZeroPolynomialError
from expocert.poly import (
    Polynomial,
    SturmChain,
    count_roots_open,
    descartes_positive,
    is_positive_on,
    negative_point,
    poly_gcd,
    squarefree_part,
)


def P(*coeffs):
    return Polynomial([F(c) for c in coeffs])


def power(p, m):
    return math.prod([p] * m, start=P(1))


def test_canonical_form():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert Polynomial.zero().degree == -1
    assert Polynomial.zero().is_zero
    assert P(0).is_zero
    assert P(3).degree == 0
    assert P(0, 0, 5).degree == 2
    assert P(0, 0, 5).leading == 5
    assert Polynomial.monomial(F(2), 3) == P(0, 0, 0, 2)


def test_arithmetic():
    one_plus = P(1, 1)
    one_minus = P(1, -1)
    assert one_plus * one_minus == P(1, 0, -1)
    assert one_plus + one_minus == P(2)
    assert one_plus - one_plus == Polynomial.zero()
    assert -one_plus == P(-1, -1)
    assert one_plus.scale(F(3)) == P(3, 3)
    assert P(1, 2, 3).derivative() == P(2, 6)
    assert P(5).derivative() == Polynomial.zero()


def test_eval_is_exact():
    p = P(F(1, 3), F(-2, 7), 1)
    x = F(5, 11)
    assert p(x) == F(1, 3) - F(2, 7) * x + x * x


def test_divmod_exact():
    num = P(-1, 0, 1)  # x^2 - 1
    q, r = num.divmod(P(-1, 1))
    assert q == P(1, 1) and r.is_zero
    q, r = P(1, 0, 1).divmod(P(-1, 1))
    assert q == P(1, 1) and r == P(2)
    assert P(1).divmod(P(-1, 1)) == (Polynomial.zero(), P(1))
    with pytest.raises(ZeroPolynomialError):
        P(1, 1).divmod(Polynomial.zero())


def test_content_primitive():
    p = P(F(2, 3), F(4, 3), 2)
    assert p.content() == F(2, 3)
    # a squarefree input comes back as its primitive form, sign kept
    assert squarefree_part(p) == P(1, 2, 3)
    assert P(-2, -4).content() == 2
    assert squarefree_part(P(-2, -4)) == P(-1, -2)
    assert Polynomial.zero().content() == 0


def test_poly_gcd():
    a = P(-1, 1) * P(2, 1)   # (x-1)(x+2)
    b = P(-1, 1) * P(-3, 1)  # (x-1)(x-3)
    assert poly_gcd(a, b) == P(-1, 1)
    assert poly_gcd(a.scale(F(-2, 3)), Polynomial.zero()) == a
    # result is primitive with positive leading coefficient
    assert poly_gcd(P(0, -2), P(0, 0, -4)) == P(0, 1)
    assert poly_gcd(P(7), P(5)) == P(1)


def test_squarefree_part():
    sq = P(-1, 1) * P(-1, 1) * P(1, 1)
    sf = squarefree_part(sq)
    assert sf == P(-1, 1) * P(1, 1)
    assert squarefree_part(sf) == sf
    # leading sign of the input is kept
    assert squarefree_part(-sq).leading < 0
    with pytest.raises(ZeroPolynomialError):
        squarefree_part(Polynomial.zero())


def test_sturm_simple_counts():
    p = P(-1, 0, 1)  # roots -1, 1
    assert count_roots_open(p, F(-2), F(2)) == 2
    assert count_roots_open(p, F(0), F(2)) == 1
    assert count_roots_open(p, F(-1), F(1)) == 0  # open: endpoints excluded
    assert count_roots_open(p, F(-2), F(0)) == 1
    chain = SturmChain(p)
    # V(0) - V(1) counts (0, 1], which includes 1; the open count drops it
    assert chain.variations_at(F(0)) - chain.variations_at(F(1)) == 1
    assert chain.roots_in_open(F(0), F(1)) == 0
    # an integer list stands for any positive multiple of p
    assert SturmChain([-3, 0, 3]).chain == chain.chain == (p, P(0, 1), P(1))
    with pytest.raises(ZeroPolynomialError):
        SturmChain([])


def test_sturm_oracle_random_products():
    # 500 polynomials with known rational roots, counts must match exactly
    rng = random.Random(20260819)
    for _ in range(500):
        k = rng.randint(1, 6)
        roots = set()
        while len(roots) < k:
            roots.add(F(rng.randint(-40, 40), rng.randint(1, 8)))
        p = P(rng.choice([-3, -1, 1, 2]))
        for r in roots:
            p = p * P(-r, 1)
        a = F(rng.randint(-60, 0), rng.randint(1, 4))
        b = a + F(rng.randint(1, 90), rng.randint(1, 4))
        expected = sum(1 for r in roots if a < r < b)
        assert count_roots_open(p, a, b) == expected


def test_sturm_oracle_repeated_factors():
    # 100 with multiplicities: distinct roots are what gets counted
    rng = random.Random(7)
    for _ in range(100):
        k = rng.randint(1, 4)
        roots = set()
        while len(roots) < k:
            roots.add(F(rng.randint(-10, 10), rng.randint(1, 5)))
        p = P(1)
        for r in roots:
            p = p * power(P(-r, 1), rng.randint(1, 3))
        expected = sum(1 for r in roots if -12 < r < 12)
        assert count_roots_open(p, F(-12), F(12)) == expected


def test_is_positive_on():
    assert is_positive_on(P(1, 0, 1), F(0), F(5))
    assert not is_positive_on(P(-1, 0, 1), F(0), F(5))  # root at 1
    assert not is_positive_on(P(-1), F(0), F(1))
    # endpoint zeros are tolerated: x(1-x) on (0,1)
    assert is_positive_on(P(0, 1) * P(1, -1), F(0), F(1))
    with pytest.raises(ZeroPolynomialError):
        is_positive_on(Polynomial.zero(), F(0), F(1))
    with pytest.raises(PreconditionError):
        is_positive_on(P(1), F(1), F(1))


def test_is_positive_on_agrees_with_sampling():
    rng = random.Random(99)
    for _ in range(60):
        p = P(*[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))])
        if p.is_zero:
            continue
        a, b = F(rng.randint(-5, 4)), None
        b = a + F(rng.randint(1, 10), 2)
        if is_positive_on(p, a, b):
            for i in range(1, 16):
                x = a + (b - a) * F(i, 16)
                assert p(x) > 0


def test_descartes_positive_edges(monkeypatch):
    x = P(0, 1)
    # multiple roots at the endpoints are allowed: x^7 (1 + x) on (0, 1),
    # and (x - 1)^2 (x + 1) with its double root at b
    assert descartes_positive(power(x, 7) * P(1, 1), F(0), F(1))
    assert descartes_positive(power(P(-1, 1), 2) * P(1, 1), F(0), F(1))
    # a root exactly at the midpoint of a piece: 1/2 of (0, 1), 3/8 of
    # (1/4, 1/2) two bisections down; a nearby positive P is cleared
    assert not descartes_positive(power(P(-1, 2), 2), F(0), F(1))
    assert not descartes_positive(power(P(-3, 8), 2), F(0), F(1))
    assert descartes_positive(power(P(-3, 8), 2) + P(F(1, 10**6)), F(0), F(1))
    # an integer list stands for any positive multiple
    assert descartes_positive([2, 0, 2], F(-1), F(1))
    assert not descartes_positive([-2, 0, 2], F(-2), F(2))
    with pytest.raises(ZeroPolynomialError):
        descartes_positive([], F(0), F(1))
    with pytest.raises(PreconditionError):
        descartes_positive([1], F(1), F(1))

    # (x^2 - 2)^2 on (1, 2): the double root at sqrt(2) keeps the count of
    # every piece around it at 2, so the test returns only because it
    # counts on the squarefree part from DESCARTES_SQUAREFREE_DEPTH on
    reductions = []
    squarefree = poly.squarefree_part

    def counting(p):
        reductions.append(p)
        return squarefree(p)

    monkeypatch.setattr(poly, "squarefree_part", counting)
    assert not descartes_positive(power(P(-2, 0, 1), 2), F(1), F(2))
    assert len(reductions) == 1
    # a simple root there, or none, needs no reduction
    assert not descartes_positive(P(-2, 0, 1), F(1), F(2))
    assert descartes_positive(power(P(-2, 0, 1), 2), F(3, 2), F(2))
    assert len(reductions) == 1


def test_descartes_positive_against_sturm_and_sympy():
    # P = lead * x^k * prod (x - r)^m * (x^2 - c)^n on intervals whose
    # endpoints are often roots: the Descartes test agrees with a Sturm
    # chain plus the midpoint sign, and with sympy's root count
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings, strategies as st

    sx = sympy.Symbol("x")
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    verdicts = []

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(0, 4),
        roots=st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=4),
        quadratic=st.tuples(st.integers(-3, 7), st.integers(0, 2)),
        lead=st.sampled_from([F(-2), F(-1, 3), F(1), F(7, 2)]),
        ends=st.tuples(rationals, rationals).filter(lambda ab: ab[0] != ab[1]),
        at_root=st.sampled_from([None, 0, 1]),
    )
    def check(k, roots, quadratic, lead, ends, at_root):
        c, n = quadratic
        p = Polynomial.monomial(lead, k) * power(P(-c, 0, 1), n)
        for r, m in roots:
            p = p * power(P(-r, 1), m)
        a, b = sorted(ends)
        if at_root is not None and roots:  # move an endpoint onto a root
            r = roots[0][0]
            a, b = (r, max(b, r + 1)) if at_root == 0 else (min(a, r - 1), r)
        mid = (a + b) / 2
        want = SturmChain(p).roots_in_open(a, b) == 0 and p(mid) > 0
        q = sympy.Poly([sympy.Rational(v.numerator, v.denominator)
                        for v in reversed(p.coeffs)], sx)
        inside = q.count_roots(a, b) - (p(a) == 0) - (p(b) == 0)
        assert want == (inside == 0 and p(mid) > 0)
        assert descartes_positive(p, a, b) == want
        assert descartes_positive(_integer_list(p, 3), a, b) == want
        verdicts.append(want)

    check()
    assert 40 <= sum(verdicts) <= len(verdicts) - 40


def test_negative_point_edges():
    # x^2 - 4/7 x + 4/49 - 10^-9 is negative only within sqrt(10^-9) of
    # 2/7, between the points of any coarse scan
    p = P(F(4, 49) - F(1, 10**9), F(-4, 7), 1)
    x = negative_point(p, F(0), F(1))
    assert 0 < x < 1 and p(x) < 0
    assert negative_point(p, F(2, 7) + F(1, 10**4), F(1)) is None
    # nonnegative with rational and irrational double roots, and roots at
    # both endpoints
    assert negative_point(P(4, 0, -4, 0, 1), F(1), F(2)) is None  # (x^2 - 2)^2
    assert negative_point(power(P(F(-2, 7), 1), 2), F(0), F(1)) is None
    assert negative_point(P(0, -1, 1), F(0), F(1)) == F(1, 2)  # x (x - 1)
    assert negative_point(P(0, 1, -1), F(0), F(1)) is None
    # negative only next to an endpoint: p(b) < 0 with a root just inside
    p = P(F(1, 10**6) - 1, 0, 1)  # roots +-sqrt(1 - 10^-6)
    x = negative_point(p, F(1, 2), F(1))
    assert F(1, 2) < x < 1 and p(x) < 0
    with pytest.raises(ZeroPolynomialError):
        negative_point(P(), F(0), F(1))
    with pytest.raises(PreconditionError):
        negative_point(P(1), F(1), F(0))


def test_negative_point_against_sympy():
    # P = lead * x^k * prod (x - r)^m * (x^2 - c)^n + shift, the shift
    # opening or closing narrow stretches at the roots. By sympy's
    # squarefree factorization P = C * O * S^2, with O the product of the
    # factors of odd multiplicity; P < 0 somewhere on (a, b) exactly when
    # O has a root inside or C * O is negative at the midpoint
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings, strategies as st

    sx = sympy.Symbol("x")
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    found = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(0, 3),
        roots=st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=4),
        quadratic=st.tuples(st.integers(-2, 5), st.integers(0, 2)),
        lead=st.sampled_from([F(-2), F(1, 3), F(1), F(7, 2)]),
        shift=st.sampled_from([F(0), F(1, 10**9), F(-1, 10**9), F(-1, 100)]),
        ends=st.tuples(rationals, rationals).filter(lambda ab: ab[0] != ab[1]),
    )
    def check(k, roots, quadratic, lead, shift, ends):
        c, n = quadratic
        p = Polynomial.monomial(lead, k) * power(P(-c, 0, 1), n)
        for r, m in roots:
            p = p * power(P(-r, 1), m)
        p = p + P(shift)
        if p.is_zero:
            return
        a, b = sorted(ends)
        q = sympy.Poly([sympy.Rational(v.numerator, v.denominator)
                        for v in reversed(p.coeffs)], sx)
        const, factors = q.sqf_list()
        odd = sympy.Poly(const, sx)
        for f, m in factors:
            if m % 2:
                odd = odd * f
        inside = odd.count_roots(a, b) - (odd.eval(a) == 0) - (odd.eval(b) == 0)
        negative = inside > 0 or odd.eval((a + b) / 2) < 0
        x = negative_point(p, a, b)
        assert (x is not None) == negative
        if x is not None:
            assert a < x < b and p(x) < 0
        found.append(x is not None)

    check()
    assert 40 <= sum(found) <= len(found) - 40


def _integer_list(p, scale):
    """p times scale and the lcm of its denominators: an integer list that
    stands for a positive multiple of p."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return [int(c * den) * scale for c in p.coeffs]


def test_ring_homomorphism_random():
    # evaluation commutes with + and *
    rng = random.Random(4242)
    for _ in range(200):
        p = P(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        q = P(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        v = F(rng.randint(-20, 20), rng.randint(1, 10))
        assert (p + q)(v) == p(v) + q(v)
        assert (p * q)(v) == p(v) * q(v)


def test_text_and_coeff_strings():
    p = P(8, -12, 0, F(-8, 945))
    assert p.text() == "8 - 12*x - 8/945*x^3"
    assert Polynomial.from_coeff_strings(p.coeff_strings()) == p
    assert Polynomial.zero().text() == "0"
    assert P(0, 1).text("e") == "e"


def _rational_sturm_chain(sf):
    """The rational remainder sequence, as a reference for SturmChain."""

    def primitive(p):
        return p.scale(1 / p.content())

    chain = [sf, primitive(sf.derivative())] if sf.degree >= 1 else [sf]
    while chain[-1].degree >= 1:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(primitive(-rem))
    return chain


def _is_integer_primitive(p):
    return all(c.denominator == 1 for c in p.coeffs) and math.gcd(
        *(c.numerator for c in p.coeffs)
    ) == 1


def test_integer_prs_against_sympy():
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings, strategies as st

    x = sympy.Symbol("x")
    rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    root = st.tuples(rationals, st.integers(1, 3))

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)], x)

    def from_sympy(q):
        return Polynomial(list(reversed([F(str(c)) for c in q.all_coeffs()])))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        roots=st.lists(root, min_size=1, max_size=5),
        shared=st.integers(0, 5),
        lead=st.sampled_from([-3, -1, 1, 2]),
        quadratic=st.integers(-3, 3),
        interval=st.tuples(rationals, rationals).filter(lambda ab: ab[0] != ab[1]),
        at_endpoint=st.sampled_from([None, 0, 1]),
    )
    def check(roots, shared, lead, quadratic, interval, at_endpoint):
        a, b = sorted(interval)
        if at_endpoint is not None:
            roots = roots + [((a, b)[at_endpoint], 1)]
        p = P(lead)
        for r, m in roots:
            p = p * power(P(-r, 1), m)
        if quadratic:
            p = p * P(quadratic, 0, 1)  # x^2 + c: no real roots, or +-sqrt(-c)
        want = to_sympy(p).count_roots(a, b) - (p(a) == 0) - (p(b) == 0)
        assert count_roots_open(p, a, b) == want

        sf = squarefree_part(p)
        assert _is_integer_primitive(sf)
        assert (sf.leading > 0) == (p.leading > 0)
        expected_sf = from_sympy(sympy.sqf_part(to_sympy(p)).primitive()[1])
        assert sf == (expected_sf if expected_sf.leading * p.leading > 0 else -expected_sf)

        chain = SturmChain(sf).chain
        assert all(_is_integer_primitive(m) for m in chain)
        assert list(chain) == _rational_sturm_chain(sf)

        q = P(1)
        for r, m in roots[:shared]:
            q = q * power(P(-r, 1), m)
        g = to_sympy(p).gcd(to_sympy(q)).primitive()[1]
        g = from_sympy(g if g.LC() > 0 else -g)
        assert poly_gcd(p, q) == g

    check()


def _rational_squarefree(p):
    """p / gcd(p, p') by the rational Euclidean algorithm: the first of the
    two remainder sequences that SturmChain usually avoids."""
    a, b = p, p.derivative()
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return p.divmod(a)[0] if a.degree >= 1 else p


def _variations(chain, t):
    signs = [s for s in (m(t) for m in chain) if s != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if (u > 0) != (v > 0))


def test_sturm_chain_of_any_polynomial_against_sympy():
    # SturmChain(p) for p = lead * x^k * prod (x - r)^m * (x^2 + c): its head
    # is sympy's primitive squarefree part with p's leading sign, and its
    # sign variations match the chain of a separately computed squarefree
    # part at a, b, 0 and every rational root
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings, strategies as st

    x = sympy.Symbol("x")
    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)], x)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(0, 4),
        roots=st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=4),
        lead=st.sampled_from([F(-3), F(-1, 2), F(1), F(5, 3)]),
        c=st.integers(-4, 4),
        interval=st.tuples(rationals, rationals).filter(lambda ab: ab[0] != ab[1]),
    )
    def check(k, roots, lead, c, interval):
        p = Polynomial.monomial(lead, k) * P(c, 0, 1)
        for r, m in roots:
            p = p * power(P(-r, 1), m)
        chain = SturmChain(p)

        want = sympy.sqf_part(to_sympy(p)).primitive()[1]
        want = Polynomial(list(reversed([F(str(v)) for v in want.all_coeffs()])))
        assert chain.chain[0] == (want if want.leading * p.leading > 0 else -want)

        reference = _rational_sturm_chain(_rational_squarefree(p))
        a, b = sorted(interval)
        for t in (a, b, F(0), *(r for r, _ in roots)):
            assert chain.variations_at(t) == _variations(reference, t), t

    check()
