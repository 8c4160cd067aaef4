"""Expression grammar: parsing, printing, lowering, pointwise values."""

import random
from fractions import Fraction as F

import pytest

from expocert.errors import LoweringError, NonlinearExpArgumentError, ParseError
from expocert.expr import (
    EXPONENT_CAP,
    Node,
    exp_sum_at,
    lower_to_quotient,
    node_text,
    parse_expression,
    parse_inequality,
    to_exp_rational,
    variables,
)
from expocert.mep import Mep

G_TEXT = (
    "2 - 6*exp(-x) - x^3*exp(-x) + 6*exp(-2*x) - x^3*exp(-2*x) - 2*exp(-3*x)"
)
G_TERMS = [(2, 0, 0), (-6, 0, 1), (-1, 3, 1), (6, 0, 2), (-1, 3, 2), (-2, 0, 3)]


def test_parse_basic_shapes():
    ast = parse_inequality("x > x")
    assert ast.cmp == ">" and ast.strict
    assert ast.left == ast.right == Node("var", value="x")
    ast = parse_inequality("exp(-x) >= 1 - x")
    assert not ast.strict
    assert parse_expression("0.5") == Node("rat", value=F(1, 2))
    assert parse_expression("2/4") == Node("rat", value=F(1, 2))
    # unicode comparison and minus aliases
    assert parse_inequality("x ≥ 0").cmp == ">="
    assert parse_expression("−x") == Node("neg", (Node("var", value="x"),))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_expression("x + ")
    assert ei.value.position == 4
    with pytest.raises(ParseError):
        parse_expression("2 @ 3")
    with pytest.raises(ParseError):
        parse_inequality("x + 1")  # no comparison
    with pytest.raises(ParseError):
        parse_expression("foo(x)")
    with pytest.raises(ParseError):
        parse_expression("x^2^3")  # chained pow needs parentheses
    with pytest.raises(ParseError):
        parse_expression(f"x^{EXPONENT_CAP * 2}")
    with pytest.raises(ParseError):
        parse_expression("1/0")


def test_exp_argument_linearity():
    with pytest.raises(NonlinearExpArgumentError):
        parse_expression("exp(x^2)")
    with pytest.raises(NonlinearExpArgumentError):
        parse_expression("exp(exp(x))")
    # x*a is multilinear, hence allowed
    parse_expression("exp(a*x)")
    parse_expression("exp(-(x - a)/3 + 1)")


def test_e_caret_sugar():
    assert parse_expression("e^(-2*x)") == parse_expression("exp(-2*x)")
    # without parentheses the caret is an ordinary integer power of e
    n = parse_expression("e^2")
    assert n.op == "pow" and n.value == 2 and n.args[0] == Node("e")


def test_variables():
    assert variables(parse_expression("exp(a*x) - a*x^2")) == frozenset({"x", "a"})
    assert variables(parse_expression("e^2 + 1")) == frozenset()


def _gen_expr(rng, depth):
    """Random expression tree, guaranteed parseable once printed."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [
                Node("var", value="x"),
                Node("var", value="a"),
                Node("e"),
                Node("rat", value=F(rng.randint(-9, 9), rng.randint(1, 9))),
            ]
        )
    op = rng.choice(["add", "sub", "mul", "div", "neg", "pow", "exp", "sign"])
    if op == "neg":
        return Node("neg", (_gen_expr(rng, depth - 1),))
    if op == "pow":
        base = _gen_expr(rng, depth - 1)
        k = rng.randint(0, 6)
        if _fold_value(base) == F(0):
            k = abs(k)  # 0^-k would be rejected at parse time
        return Node("pow", (base,), value=k if rng.random() < 0.8 else -max(k, 1))
    if op == "exp":
        # linear argument: c*x + d*a + k
        parts = []
        for v in ("x", "a"):
            if rng.random() < 0.6:
                c = Node("rat", value=F(rng.randint(-3, 3), rng.randint(1, 3)))
                parts.append(Node("mul", (c, Node("var", value=v))))
        parts.append(Node("rat", value=F(rng.randint(-2, 2))))
        node = parts[0]
        for p in parts[1:]:
            node = Node("add", (node, p))
        return Node("exp", (node,))
    if op == "sign":
        return Node("sign", (_gen_poly(rng, depth - 1),))
    a = _gen_expr(rng, depth - 1)
    b = _gen_expr(rng, depth - 1)
    if op == "div":
        while _fold_value(b) == F(0):
            b = Node("rat", value=F(rng.randint(1, 9)))
    return Node(op, (a, b))


def _gen_poly(rng, depth):
    """Tree over x, a and rationals only (legal inside sign)."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(
            [
                Node("var", value="x"),
                Node("var", value="a"),
                Node("rat", value=F(rng.randint(-5, 5))),
            ]
        )
    op = rng.choice(["add", "sub", "mul"])
    return Node(op, (_gen_poly(rng, depth - 1), _gen_poly(rng, depth - 1)))


def _fold_value(t):
    """Fraction the parser would fold t to, or None if it has symbols."""
    if t.op == "rat":
        return t.value
    if t.op in ("var", "e", "exp", "sign"):
        return None
    vals = [_fold_value(c) for c in t.args]
    if any(v is None for v in vals):
        return None
    if t.op == "neg":
        return -vals[0]
    if t.op == "add":
        return vals[0] + vals[1]
    if t.op == "sub":
        return vals[0] - vals[1]
    if t.op == "mul":
        return vals[0] * vals[1]
    if t.op == "div":
        return None if vals[1] == 0 else vals[0] / vals[1]
    if t.op == "pow":
        if t.value < 0 and vals[0] == 0:
            return None
        return vals[0] ** t.value
    return None


def test_print_parse_round_trip():
    # parse(print(.)) is a projection: one pass canonicalizes (folding
    # rational subtrees), after which print and parse are exact inverses
    rng = random.Random(1789)
    for _ in range(500):
        t = _gen_expr(rng, 4)
        try:
            n1 = parse_expression(node_text(t))
        except ParseError:
            # a folded zero denominator can slip through _fold_value's
            # conservative None answers; the input was degenerate, skip
            continue
        n2 = parse_expression(node_text(n1))
        assert n2 == n1
        assert node_text(n2) == node_text(n1)


def test_grammar_is_total_on_garbage():
    rng = random.Random(31415)
    alphabet = "xa e+-*/^()0123456789.<>=signexp%$"
    for _ in range(100_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            parse_inequality(s)
        except ParseError as err:
            assert 0 <= err.position <= len(s)


def test_lowering_g():
    q, stretch = to_exp_rational(parse_expression(G_TEXT))
    assert stretch == 1
    assert q.numerator == Mep(G_TERMS)
    assert q.denominator == Mep.constant(1)


def test_lowering_clears_positive_exponentials():
    # x*exp(x) - 1 > 0 iff x - exp(-x) > 0; the lowering multiplies
    # through by exp(-x) so the quotient is sign-faithful, not equal
    q, stretch = to_exp_rational(parse_expression("x*exp(x) - 1"))
    assert stretch == 1
    assert q.numerator == Mep([(1, 1, 0), (-1, 0, 1)])
    assert q.denominator == Mep.constant(1)


def test_lowering_fractional_rates_stretch():
    # exp(-x/2) forces the substitution x = 2z
    q, stretch = to_exp_rational(parse_expression("exp(-x/2) - x"))
    assert stretch == 2
    assert q.numerator == Mep([(1, 0, 1), (-2, 1, 0)])
    # coefficients of x^p pick up the stretch factor v^p
    q, stretch = to_exp_rational(parse_expression("x^2*exp(-3*x/2)"))
    assert stretch == 2 and q.numerator == Mep([(4, 2, 3)])
    # numerator and denominator share one stretch
    q, stretch = to_exp_rational(parse_expression("exp(-x/2)/(1 + exp(-x/3))"))
    assert stretch == 6
    assert q.numerator == Mep([(1, 0, 3)])
    assert q.denominator == Mep([(1, 0, 0), (1, 0, 2)])


def test_lowering_quotient_shape():
    text = "1/x^2 - exp(-x)/(1 - exp(-x))^2"
    q, stretch = to_exp_rational(parse_expression(text))
    assert stretch == 1
    assert q.denominator == Mep([(1, 2, 0), (-2, 2, 1), (1, 2, 2)])
    assert q.numerator == Mep([(1, 0, 0), (-2, 0, 1), (-1, 2, 1), (1, 0, 2)])


def test_lowering_rejections():
    with pytest.raises(LoweringError):
        to_exp_rational(parse_expression("e + x"))  # bare e has no MEP form
    with pytest.raises(LoweringError):
        to_exp_rational(parse_expression("exp(a*x)"))
    with pytest.raises(LoweringError):
        to_exp_rational(parse_expression("sign(x) * x"))
    with pytest.raises(LoweringError):
        to_exp_rational(parse_expression("exp(x + 1)"))  # constant offset
    with pytest.raises(LoweringError):
        lower_to_quotient(parse_expression("1/(x - x)"))


def test_exp_sum_at_points():
    pt = {"x": F(1, 2), "a": F(-3)}
    assert exp_sum_at(parse_expression("exp(a*x)"), pt) == {F(-3, 2): F(1)}
    assert exp_sum_at(parse_expression("e"), pt) == {F(1): F(1)}
    assert exp_sum_at(parse_expression("sign(a)"), pt) == {F(0): F(-1)}
    assert exp_sum_at(parse_expression("sign(a - a)"), pt) == {}
    # single-term division is exact
    assert exp_sum_at(parse_expression("exp(x)/exp(a)"), pt) == {F(7, 2): F(1)}
    combo = exp_sum_at(parse_expression("2*exp(a*x) - exp(-x) + 1"), pt)
    assert combo == {F(-3, 2): F(2), F(-1, 2): F(-1), F(0): F(1)}


def test_exp_sum_division_limits():
    pt = {"x": F(1), "a": F(0)}
    with pytest.raises(LoweringError):
        exp_sum_at(parse_expression("1/(exp(x) + 1)"), pt)
    with pytest.raises(LoweringError):
        exp_sum_at(parse_expression("1/(x - 1)"), pt)
    with pytest.raises(LoweringError):
        exp_sum_at(parse_expression("sign(x - 1 + a)"), {"x": F(1)})
