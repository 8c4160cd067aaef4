"""Maclaurin bound polynomials, their ordering, and odd-order roots."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from expocert.arith import RationalInterval, enclose_exp_neg
from expocert.errors import PreconditionError
from expocert.poly import Polynomial, count_roots_open
from expocert.taylor import gap_enclosure, maclaurin, odd_root, select_order


def test_maclaurin_small():
    t3 = maclaurin(3)
    assert t3.poly == Polynomial([F(1), F(-1), F(1, 2), F(-1, 6)])
    assert t3.side == "lower" and t3.order == 3 and t3.scale == 1
    t4 = maclaurin(4)
    assert t4.side == "upper"
    assert t4.poly.coefficient(4) == F(1, 24)
    t0 = maclaurin(0)
    assert t0.poly == Polynomial.constant(1) and t0.side == "upper"
    with pytest.raises(PreconditionError):
        maclaurin(-1)


def test_maclaurin_scaled():
    # T_9(2x): coefficient of x^k is (-2)^k / k!
    t = maclaurin(9, 2)
    assert t.poly.coefficient(9) == F(-4, 2835)
    assert t.poly.coefficient(1) == -2
    assert t.poly == Polynomial([F((-2) ** k, factorial(k)) for k in range(10)])
    # scaled by 6 this is the top coefficient of the classic G1 bound
    assert 6 * t.poly.coefficient(9) == F(-8, 945)


def test_select_order():
    assert select_order(1, 1) == 1
    assert select_order(1, 6) == 11
    assert select_order(-1, 1) == 2
    assert select_order(-1, 6) == 12
    assert select_order(F(-5), 3) == 6
    with pytest.raises(PreconditionError):
        select_order(0, 3)
    with pytest.raises(PreconditionError):
        select_order(1, 0)


def test_gap_enclosure_signs():
    up = gap_enclosure(2, F(1), F(1, 1000))
    assert up.definite_sign() == 1            # T_2(1) > e^-1
    assert up.width < F(1, 1000)
    down = gap_enclosure(3, F(1), F(1, 1000))
    assert down.definite_sign() == -1         # T_3(1) < e^-1
    assert gap_enclosure(5, F(0), F(1, 10)).lo == 0
    assert gap_enclosure(5, F(0), F(1, 10)).hi == 0
    with pytest.raises(PreconditionError):
        gap_enclosure(2, F(-1), F(1, 10))


def test_gap_enclosure_magnitude():
    # |T_n(x) - e^(-x)| <= x^(n+1)/(n+1)! for 0 < x
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 12)
        x = F(rng.randint(1, 200), rng.randint(100, 300))
        box = gap_enclosure(n, x, F(1, 10**9))
        bound = x ** (n + 1) / factorial(n + 1)
        assert max(abs(box.lo), abs(box.hi)) <= bound


def test_gap_enclosure_matches_forced_orders():
    # one walk of the partial sums gives what forcing each order m in
    # turn from (n + 1)//2 + 1 gave
    def reference(n, x, eps):
        tn = maclaurin(n).poly.eval(x)
        m = (n + 1) // 2 + 1
        while True:
            box = enclose_exp_neg(x, eps, m_force=m)
            out = RationalInterval(tn - box.hi, tn - box.lo)
            if out.width < eps and out.definite_sign() != 0:
                return out
            m += 1

    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 20)
        x = F(rng.randint(1, 300), rng.randint(50, 150))
        eps = F(1, 10 ** rng.randint(3, 40))
        assert gap_enclosure(n, x, eps) == reference(n, x, eps)


def test_gap_enclosure_matches_fraction_walk():
    # the former walk: the bracket's partial sums kept as Fractions
    def reference(n, x, eps):
        tn = maclaurin(n).poly.eval(x)
        acc = term = F(1)
        for k in range(1, 401):
            term *= -x / k
            acc += term
            if k % 2 == 0 and k // 2 > (n + 1) // 2:
                out = RationalInterval(tn - acc, tn - (acc - term))
                if out.width < eps and out.definite_sign() != 0:
                    return out

    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 20)
        x = F(rng.randint(1, 300), rng.randint(1, 150))
        eps = F(rng.randint(1, 9), 10 ** rng.randint(0, 40))
        assert gap_enclosure(n, x, eps) == reference(n, x, eps)


def test_bracket_interleaving_on_unit_interval():
    # T_1 < T_3 < ... < e^(-x) < ... < T_4 < T_2 pointwise on (0,1)
    rng = random.Random(17)
    for _ in range(100):
        x = F(rng.randint(1, 999), 1000)
        # bracket of order strictly deeper than any chain member, so the
        # chain ends stay strictly outside it
        expbox = enclose_exp_neg(x, F(1), m_force=12)
        lowers = [maclaurin(2 * m - 1).poly.eval(x) for m in range(1, 11)]
        uppers = [maclaurin(2 * m).poly.eval(x) for m in range(1, 11)]
        assert all(a < b for a, b in zip(lowers, lowers[1:]))
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
        assert lowers[-1] < expbox.lo and expbox.hi < uppers[-1]


def test_consecutive_orders_touch_at_window_end():
    # T_n(n+2) = T_{n+2}(n+2) exactly, and the difference has no root
    # strictly inside (0, n+2)
    for n in range(0, 21):
        x = F(n + 2)
        diff = maclaurin(n + 2).poly - maclaurin(n).poly
        assert diff.eval(x) == 0
        assert count_roots_open(diff, F(0), x) == 0


def test_odd_root_basics():
    r1 = odd_root(1, F(1, 1000))
    assert r1.enclosure.lo == r1.enclosure.hi == 1  # T_1 = 1 - x
    r2 = odd_root(2, F(1, 10**6))
    assert r2.enclosure.width < F(1, 10**6)
    p = maclaurin(3).poly
    assert p.eval(r2.enclosure.lo) >= 0 >= p.eval(r2.enclosure.hi)
    with pytest.raises(PreconditionError):
        odd_root(0, F(1, 10))


def test_odd_roots_strictly_increase():
    prev = odd_root(1, F(1, 10**8))
    for m in range(2, 9):
        cur = odd_root(m, F(1, 10**8))
        assert prev.enclosure.hi < cur.enclosure.lo
        prev = cur


def test_root_against_sign_change_oracle():
    # independent check: T_(2m-1) is positive just left of the enclosure
    # and negative just right of it
    for m in (2, 3, 5):
        rec = odd_root(m, F(1, 10**10))
        p = maclaurin(2 * m - 1).poly
        delta = F(1, 10**6)
        assert p.eval(rec.enclosure.lo - delta) > 0
        assert p.eval(rec.enclosure.hi + delta) < 0
