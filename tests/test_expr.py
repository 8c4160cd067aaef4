"""Expression grammar: parsing, printing, lowering, pointwise values."""

import contextlib
import gc
import random
from fractions import Fraction as F

import pytest

from expocert import expr
from expocert.arith import _sum_add, _sum_mul, _sum_pow, _sum_reciprocal
from expocert.errors import (
    LoweringError,
    NonlinearExpArgumentError,
    ParseError,
)
from expocert.expr import (
    EXPONENT_CAP,
    Node,
    _linear_form,
    exp_sum_at,
    lower_grid,
    lower_to_quotient,
    node_text,
    parse_expression,
    parse_inequality,
    to_const,
    to_exp_rational,
    variables,
)
from expocert.mep import ExpRational, Mep, _stretch, normalize

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
    # forms keyed by (degree in x, degree in a)
    for text, form in [
        ("exp((1+x)*(1+a))", {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}),
        ("exp(x*(x - x))", {}),
        ("exp((2*x)^0)", {(0, 0): 1}),
        ("exp(-(x - a)/3 + 1)", {(0, 0): 1, (1, 0): F(-1, 3), (0, 1): F(1, 3)}),
    ]:
        assert _linear_form(parse_expression(text).args[0], 0) == form
    # rejected at the exp (or the ^ of e^(...)), also where the nonlinear
    # terms cancel, and without multiplying out a power of a sum
    for text, pos in [
        ("exp(x^2 - x^2)", 0),
        ("exp(exp(0))", 0),
        ("exp((x + 1)*(x - 1))", 0),
        ("exp(x/(a - a))", 0),
        ("exp((x - x)^-1)", 0),
        ("exp((x + 1)^10000)", 0),
        ("1 + exp(x*x)", 4),
        ("e^(x^2)", 1),
    ]:
        with pytest.raises(NonlinearExpArgumentError) as ei:
            parse_expression(text)
        assert ei.value.position == pos


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
    # equal exponents are equal keys, however they were built
    for text in ("exp(-x/3)^3 - exp(-x)", "exp(-2*x/4) - exp(-x/2)"):
        assert to_exp_rational(parse_expression(text))[0].numerator.is_zero
    q, stretch = to_exp_rational(parse_expression("exp(x/2)*exp(-x/2)"))
    assert stretch == 1 and q == ExpRational(Mep.constant(1), Mep.constant(1))


def test_lowering_quotient_shape():
    text = "1/x^2 - exp(-x)/(1 - exp(-x))^2"
    q, stretch = to_exp_rational(parse_expression(text))
    assert stretch == 1
    assert q.denominator == Mep([(1, 2, 0), (-2, 2, 1), (1, 2, 2)])
    assert q.numerator == Mep([(1, 0, 0), (-2, 0, 1), (-1, 2, 1), (1, 0, 2)])


def test_lowering_rejections():
    # the lowered quotient holds e and exp(1) alike, as exp(form) with l0 = 1
    constant_power = r"^the constant e, or an exp argument with a constant offset, has no exact"
    with pytest.raises(LoweringError, match=constant_power):
        to_exp_rational(parse_expression("e + x"))  # bare e has no MEP form
    with pytest.raises(LoweringError, match=r"^variable a is not allowed in a proof input$"):
        to_exp_rational(parse_expression("exp(a*x)"))
    with pytest.raises(LoweringError, match=r"^only the variable x can appear in a proof input$"):
        to_exp_rational(parse_expression("a + x"))
    with pytest.raises(LoweringError, match=r"^sign\(\) is not supported in proof inputs$"):
        to_exp_rational(parse_expression("sign(x) * x"))
    with pytest.raises(LoweringError, match=constant_power):
        to_exp_rational(parse_expression("exp(x + 1)"))  # constant offset
    with pytest.raises(LoweringError, match=r"^division by exact zero$"):
        lower_to_quotient(parse_expression("1/(x - x)"))
    with pytest.raises(LoweringError, match=r"^division by exact zero$"):
        to_exp_rational(parse_expression("(x - x)^-1"))
    with pytest.raises(LoweringError, match=r"^variable 'x' in a constant expression$"):
        to_const(parse_expression("x + 1"))
    with pytest.raises(LoweringError, match=r"^variable 'x' in a constant expression$"):
        to_const(parse_expression("exp(x)"))
    with pytest.raises(LoweringError, match=r"^exp\(1/2\) is not an integer power of e$"):
        to_const(parse_expression("exp(1/2)"))


def test_lowering_keeps_divisor_dens():
    # a divisor's own den stays a factor of both sides, so den vanishes
    # at x = 1/2, where 1/(x - 1/2) is undefined
    q, _ = to_exp_rational(parse_expression("1/(1/(x - 1/2))"))
    assert q.numerator == Mep([(F(1, 4), 0, 0), (-1, 1, 0), (1, 2, 0)])
    assert q.denominator == Mep([(F(-1, 2), 0, 0), (1, 1, 0)])
    q, _ = to_exp_rational(parse_expression("(1/(x - 1/2))^0"))
    assert q.numerator == q.denominator == Mep([(F(-1, 2), 0, 0), (1, 1, 0)])
    # a den that cannot vanish is not kept
    q, _ = to_exp_rational(parse_expression("(x/2)^0 + 1/(1 + exp(-x))"))
    assert q.numerator == Mep([(2, 0, 0), (1, 0, 1)])
    assert q.denominator == Mep([(1, 0, 0), (1, 0, 1)])
    # constants are read after the lowering: only the value needs integer
    # powers of e, and an undefined inner quotient stays undefined
    two = to_const(parse_expression("exp(1/2)*exp(3/2)"))
    assert (two - to_const(parse_expression("e^2"))).is_zero()
    assert to_const(parse_expression("1/(1/(e - e))")).den == {}


def test_lowering_leaves_no_reference_cycles():
    # the parser's and the lowering's objects are all freed by reference
    # counting, so nothing waits for the cyclic collector
    ineq = "sign(a)*exp(a*x) <= sign(a)*(a*x*(1 - x) + x^2*(exp(a) - 1) + 1)"
    gc.collect()
    gc.disable()
    try:
        ast = parse_inequality(ineq)
        exp_sum_at(lower_grid(Node("sub", (ast.left, ast.right))), F(1, 2), F(-3))
        to_exp_rational(parse_expression(G_TEXT))
        to_const(parse_expression("(e^2 - 3*e + 1)/(e - 1)^2"))
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_power_of_one_monomial_makes_no_product(monkeypatch):
    # x^k of one monomial is taken in one step, for num and den alike
    calls = []
    mono_mul = expr._mono_mul
    monkeypatch.setattr(expr, "_mono_mul", lambda m1, m2: calls.append(1) or mono_mul(m1, m2))
    q, stretch = to_exp_rational(parse_expression("exp(-x/3)^9999"))
    assert (q, stretch) == (ExpRational(Mep([(1, 0, 3333)]), Mep.constant(1)), 1)
    ast = parse_inequality("exp(x)^10000 > a^200")
    form = lower_grid(Node("sub", (ast.left, ast.right)))
    assert calls == []
    for x, a, num in [
        (F(0), F(1), {}),
        (F(1, 2), F(-1), {F(5000): F(1), F(0): F(-1)}),
        (F(1), F(1, 2), {F(10000): F(1), F(0): -F(1, 2**200)}),
        (F(-1, 3), F(2), {F(-10000, 3): F(1), F(0): F(-(2**200))}),
    ]:
        assert exp_sum_at(form, x, a) == (num, {F(0): F(1)})


def _grid_value(text, x, a):
    """The point's value num/den as one sum, for a single-term den."""
    num, den = exp_sum_at(lower_grid(parse_expression(text)), x, a)
    assert len(den) == 1
    return _sum_mul(num, _sum_reciprocal(den))


def test_exp_sum_at_points():
    x, a = F(1, 2), F(-3)
    assert _grid_value("exp(a*x)", x, a) == {F(-3, 2): F(1)}
    assert _grid_value("e", x, a) == {F(1): F(1)}
    assert _grid_value("sign(a)", x, a) == {F(0): F(-1)}
    assert _grid_value("sign(a - a)", x, a) == {}
    # a single-term denominator divides exactly
    assert exp_sum_at(lower_grid(parse_expression("exp(x)/exp(a)")), x, a) == (
        {F(1, 2): F(1)}, {F(-3): F(1)}
    )
    assert _grid_value("exp(x)/exp(a)", x, a) == {F(7, 2): F(1)}
    combo = _grid_value("2*exp(a*x) - exp(-x) + 1", x, a)
    assert combo == {F(-3, 2): F(2), F(-1, 2): F(-1), F(0): F(1)}
    # groups whose exponents meet at this point merge, and cancel
    assert exp_sum_at(lower_grid(parse_expression("exp(x) - exp(a)")), F(2), F(2)) == (
        {}, {F(0): F(1)}
    )
    assert _grid_value("exp(a*x) + exp(x/2)", F(1, 2), F(1, 2)) == {F(1, 4): F(2)}


def test_exp_sum_division_limits():
    form = lower_grid(parse_expression("1/(exp(x) + 1)"))
    # a sum in the denominator is kept, for its sign
    assert exp_sum_at(form, F(1), F(0)) == ({F(0): F(1)}, {F(1): F(1), F(0): F(1)})
    # an exact zero denominator stays an exact zero
    assert exp_sum_at(lower_grid(parse_expression("1/(x - 1)")), F(1), F(0))[1] == {}
    with pytest.raises(LoweringError):
        exp_sum_at(lower_grid(parse_expression("sign(1/(x - 1 + a))")), F(1), F(0))


def test_grid_lowering_keeps_powers_of_sums():
    # the power of a sum is held once and raised at each point, not
    # expanded; products by one monomial expand into the sum
    form = lower_grid(parse_expression("2*(1 + x + a + exp(x))^40 - x*a*exp(a)"))
    assert form.den == ("sum", ((F(0), (0, 0, 0, 0, 1), 1, ((1, 0, 0, ()),)),))
    kind, (scaled, two, (power, base, k)), rest = form.num
    assert (kind, scaled, power, k) == ("add", "mul", "pow", 40)
    assert two == ("sum", ((F(0), (0, 0, 0, 0, 1), 1, ((2, 0, 0, ()),)),))
    assert base[0] == "sum" and sum(len(g[3]) for g in base[1]) == 4
    assert rest[0] == "sum" and len(rest[1]) == 1
    value = _grid_value("(1 + x + a + exp(x))^40", F(1, 3), F(-1, 2))
    assert len(value) == 41 and value[F(40, 3)] == 1
    # sign arguments are lowered once each, however often they occur
    form = lower_grid(parse_expression("sign(a)*exp(a*x) - sign(a)*(x + 1) + sign(x - a)"))
    assert len(form.signs) == 2


def _old_exp_sum_at(node, point):
    # the former recursive grid evaluator: one walk of the tree per side
    # and per point, exact only when every divisor is a single term
    def rational(s):
        if not s:
            return F(0)
        if set(s) != {F(0)}:
            raise LoweringError("value is not an exact rational here")
        return s[F(0)]

    if node.op == "rat":
        return {F(0): node.value} if node.value else {}
    if node.op == "var":
        v = point[node.value]
        return {F(0): v} if v else {}
    if node.op == "e":
        return {F(1): F(1)}
    if node.op == "exp":
        return {rational(_old_exp_sum_at(node.args[0], point)): F(1)}
    if node.op == "sign":
        v = rational(_old_exp_sum_at(node.args[0], point))
        return {F(0): F((v > 0) - (v < 0))} if v else {}
    if node.op == "neg":
        return {k: -c for k, c in _old_exp_sum_at(node.args[0], point).items()}
    if node.op == "pow":
        base = _old_exp_sum_at(node.args[0], point)
        if node.value < 0:
            base = _sum_reciprocal(base)
        return _sum_pow(base, abs(node.value))
    a = _old_exp_sum_at(node.args[0], point)
    b = _old_exp_sum_at(node.args[1], point)
    if node.op == "add":
        return _sum_add(a, b, 1)
    if node.op == "sub":
        return _sum_add(a, b, -1)
    if node.op == "mul":
        return _sum_mul(a, b)
    return _sum_mul(a, _sum_reciprocal(b))


def _pair_at(node, point):
    # an independent quotient evaluator: (num, den) sums by the fraction
    # rules at the point, with u^0 = den/den as in the lowering, and
    # den = {} wherever a divisor is zero or undefined
    one = {F(0): F(1)}
    if node.op in ("rat", "var"):
        v = node.value if node.op == "rat" else point[node.value]
        return ({F(0): v} if v else {}), one
    if node.op == "e":
        return {F(1): F(1)}, one
    if node.op == "exp":
        # the argument is free of exp, e and sign: a rational at the point
        n, d = _pair_at(node.args[0], point)
        return {n.get(F(0), F(0)) / d[F(0)]: F(1)}, one
    if node.op == "sign":
        n, d = _pair_at(node.args[0], point)
        if not d:
            raise LoweringError("division by exact zero")
        v = n.get(F(0), F(0)) * d[F(0)]
        return ({F(0): F((v > 0) - (v < 0))} if v else {}), one
    if node.op == "neg":
        n, d = _pair_at(node.args[0], point)
        return {k: -c for k, c in n.items()}, d
    if node.op == "pow":
        n, d = _pair_at(node.args[0], point)
        k = node.value
        if k < 0:
            if not d:
                return {}, {}
            n, d, k = d, n, -k
        return (d, d) if k == 0 else (_sum_pow(n, k), _sum_pow(d, k))
    (n1, d1), (n2, d2) = (_pair_at(c, point) for c in node.args)
    if node.op in ("add", "sub"):
        sgn = 1 if node.op == "add" else -1
        return _sum_add(_sum_mul(n1, d2), _sum_mul(n2, d1), sgn), _sum_mul(d1, d2)
    if node.op == "mul":
        return _sum_mul(n1, n2), _sum_mul(d1, d2)
    if not d2:
        return {}, {}
    return _sum_mul(n1, d2), _sum_mul(d1, n2)


def _nested_quotient(node):
    # True when some divisor is itself a quotient: 1/(1/(exp(x) + 1)) has a
    # single-term denominator, though the old walk failed on it
    def has_quotient(n):
        return (n.op == "div" or (n.op == "pow" and n.value < 0)
                or any(has_quotient(c) for c in n.args))

    if node.op == "div" and has_quotient(node.args[1]):
        return True
    if node.op == "pow" and node.value < 0 and has_quotient(node.args[0]):
        return True
    return any(_nested_quotient(c) for c in node.args)


def _swap_variables(node):
    if node.op == "var":
        return Node("var", value="a" if node.value == "x" else "x")
    return Node(node.op, tuple(_swap_variables(c) for c in node.args), node.value)


def test_grid_lowering_matches_recursive_walk():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    rat = small.map(lambda v: Node("rat", value=v))
    var = st.sampled_from([Node("var", value="x"), Node("var", value="a")])

    def linear(c):
        terms = [Node("rat", value=c[0]),
                 Node("mul", (Node("rat", value=c[1]), Node("var", value="x"))),
                 Node("mul", (Node("rat", value=c[2]), Node("var", value="a"))),
                 Node("mul", (Node("mul", (Node("rat", value=c[3]), Node("var", value="x"))),
                              Node("var", value="a")))]
        node = terms[0]
        for t in terms[1:]:
            node = Node("add", (node, t))
        return Node("exp", (node,))

    def branches(kids):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), kids, kids).map(
                lambda t: Node(t[0], t[1:])),
            kids.map(lambda k: Node("neg", (k,))),
            st.tuples(kids, st.integers(-3, 3)).map(
                lambda t: Node("pow", (t[0],), value=t[1])),
        )

    exp_free = st.recursive(st.one_of(var, rat), branches, max_leaves=4)
    leaves = st.one_of(
        var, rat, st.just(Node("e")),
        st.tuples(*[st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2)])] * 4).map(linear),
        exp_free.map(lambda u: Node("sign", (u,))),
    )
    trees = st.recursive(leaves, branches, max_leaves=8)
    # few coordinates, so that x = a and exponents of distinct groups meet
    coords = st.fractions(min_value=-2, max_value=2, max_denominator=2)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(tree=trees, x=coords, a=coords)
    # at x = a the inner quotient, and so the whole tree, is undefined
    @example(tree=parse_expression("1/(1/(x - a))"), x=F(1), a=F(1))
    # powers of one monomial: forms divided by their gcd, and sign
    # exponents reduced to 1 or 2, here where sign(x - a) = -1
    @example(tree=parse_expression("exp(a*x/3)^3 - exp(a*x)"), x=F(1, 2), a=F(-2))
    @example(tree=parse_expression("sign(x - a)^3 - sign(x - a)"), x=F(-1), a=F(1))
    @example(tree=parse_expression("sign(x - a)^2*exp(x/2)^2"), x=F(-1), a=F(1))
    def check(tree, x, a):
        point = {"x": x, "a": a}
        try:
            num, den = exp_sum_at(lower_grid(tree), x, a)
        except LoweringError:
            num = den = None
        try:
            pair = _pair_at(tree, point)
        except LoweringError:
            pair = None
        assert (num is None) == (pair is None)
        if pair is not None:
            # no zero coefficient is stored
            assert all(num.values()) and all(den.values())
            # the same quotient, and zero denominators at the same points
            assert (not den) == (not pair[1])
            assert _sum_mul(num, pair[1]) == _sum_mul(pair[0], den)
        # t(x, a) - t(a, x) vanishes at x = a: groups whose forms differ
        # meet there and must cancel to nothing
        twin = lower_grid(Node("sub", (tree, _swap_variables(tree))))
        with contextlib.suppress(LoweringError):
            assert exp_sum_at(twin, x, x)[0] == {}
        try:
            old = _old_exp_sum_at(tree, point)
        except LoweringError:
            # undecided, or decided only through a multi-term den or a
            # divisor that is itself a quotient
            assert num is None or len(den) != 1 or _nested_quotient(tree)
            return
        assert num is not None and len(den) == 1
        assert _sum_mul(num, _sum_reciprocal(den)) == old

    check()
    # the same examples merge into canonical groups before any point
    for text in ("exp(a*x/3)^3 - exp(a*x)", "exp(x/2)*exp(a*x/2) - exp((x + a*x)/2)",
                 "sign(x - a)^3 - sign(x - a)"):
        assert lower_grid(parse_expression(text)).num == ("sum", ())
    form = lower_grid(parse_expression("sign(x - a)^2*exp(x/2)^2"))
    assert form.num == ("sum", ((None, (0, 1, 0, 0, 1), 1, ((1, 0, 0, ((0, 2),)),)),))


# The former lower_to_quotient walk, kept as a reference: raw terms
# (alpha, p, q) for alpha * x^p * exp(-q*x), multiplied out at every node.


def _rate(node):
    """c in an exp(c*x) leaf, the only exp that the proof-lowering test
    builds."""
    return node.args[0].args[0].value


def _ref_const(c):
    return ([(c, 0, F(0))] if c else []), [(F(1), 0, F(0))]


def _ref_mul_terms(a, b):
    out = {}
    for ca, pa, qa in a:
        for cb, pb, qb in b:
            key = (pa + pb, qa + qb)
            out[key] = out.get(key, F(0)) + ca * cb
    return [(c, p, q) for (p, q), c in sorted(out.items()) if c != 0]


def _ref_add(x, y):
    xn, xd = x
    yn, yd = y
    if xd == yd:
        return _ref_sum_terms(xn, yn), xd
    return (
        _ref_sum_terms(_ref_mul_terms(xn, yd), _ref_mul_terms(yn, xd)),
        _ref_mul_terms(xd, yd),
    )


def _ref_sum_terms(a, b):
    out = {}
    for c, p, q in list(a) + list(b):
        out[(p, q)] = out.get((p, q), F(0)) + c
    return [(c, p, q) for (p, q), c in sorted(out.items()) if c != 0]


def _ref_neg(x):
    n, d = x
    return [(-c, p, q) for c, p, q in n], d


def _ref_lower_to_quotient(node):
    if node.op == "rat":
        return _ref_const(node.value)
    if node.op == "var":
        return [(F(1), 1, F(0))], [(F(1), 0, F(0))]
    if node.op == "exp":
        return [(F(1), 0, -_rate(node))], [(F(1), 0, F(0))]
    if node.op == "neg":
        return _ref_neg(_ref_lower_to_quotient(node.args[0]))
    if node.op == "pow":
        k = node.value
        n, d = _ref_lower_to_quotient(node.args[0])
        if k < 0:
            n, d, k = d, n, -k
            if not n:
                raise LoweringError("division by exact zero")
        rn, rd = _ref_const(F(1))
        for _ in range(k):
            rn = _ref_mul_terms(rn, n)
            rd = _ref_mul_terms(rd, d)
        return rn, rd
    a = _ref_lower_to_quotient(node.args[0])
    b = _ref_lower_to_quotient(node.args[1])
    if node.op == "add":
        return _ref_add(a, b)
    if node.op == "sub":
        return _ref_add(a, _ref_neg(b))
    if node.op == "mul":
        return _ref_mul_terms(a[0], b[0]), _ref_mul_terms(a[1], b[1])
    if not b[0]:
        raise LoweringError("division by exact zero")
    return _ref_mul_terms(a[0], b[1]), _ref_mul_terms(a[1], b[0])


def _divisors(node, zero_powers=False):
    """Right operands of / and bases of negative powers, at any depth; with
    zero_powers, the bases of u^0 too, which keep their den as well."""
    if node.op == "div":
        yield node.args[1]
    if node.op == "pow" and (node.value < 0 or zero_powers and node.value == 0):
        yield node.args[0]
    for c in node.args:
        yield from _divisors(c, zero_powers)


def test_proof_lowering_matches_reference_walk():
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import example, given, settings, strategies as st

    X, t = sympy.symbols("X t")  # t stands for exp(X/2)
    x = Node("var", value="x")
    leaves = st.one_of(
        st.just(x),
        st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2)]).map(lambda v: Node("rat", value=v)),
        st.sampled_from([F(1), F(-1), F(1, 2), F(-3, 2), F(2)]).map(
            lambda c: Node("exp", (Node("mul", (Node("rat", value=c), x)),))),
    )

    def branches(kids):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), kids, kids).map(
                lambda t: Node(t[0], t[1:])),
            kids.map(lambda k: Node("neg", (k,))),
            st.tuples(kids, st.integers(-2, 3)).map(
                lambda t: Node("pow", (t[0],), value=t[1])),
        )

    def sym(node):
        """The tree in sympy, or None when a divisor cancels to zero."""
        if node.op == "rat":
            return sympy.Rational(node.value.numerator, node.value.denominator)
        if node.op == "var":
            return X
        if node.op == "exp":
            return t ** int(2 * _rate(node))
        args = [sym(c) for c in node.args]
        if None in args:
            return None
        if node.op == "neg":
            return -args[0]
        if node.op == "pow":
            if node.value < 0 and sympy.cancel(args[0]) == 0:
                return None
            return args[0] ** node.value
        u, v = args
        if node.op == "div":
            return None if sympy.cancel(v) == 0 else u / v
        return {"add": u + v, "sub": u - v, "mul": u * v}[node.op]

    def side(terms):
        return sum((sympy.Rational(c.numerator, c.denominator) * X**p * t ** int(-2 * q)
                    for c, p, q in terms), sympy.Integer(0))

    def vanishes_at(expr, xv):
        # zero, or a pole: the cancelled form has a pole only where expr has one
        return any(sympy.expand(f.subs(X, xv)) == 0
                   for f in sympy.fraction(sympy.cancel(expr)))

    points = [sympy.Rational(n, 2) for n in range(-2, 5)]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tree=st.recursive(leaves, branches, max_leaves=6))
    @example(tree=parse_expression("1/(1/(x - 1/2)) + 1"))
    @example(tree=parse_expression("(x*exp(-1*x) - 1/2)^-2 - 1/(x - 1)"))
    def check(tree):
        value = sym(tree)
        try:
            num, den = lower_to_quotient(tree)
        except LoweringError:
            assert value is None
            return
        assert value is not None
        # the exact value, with den zero wherever a divisor is
        assert sympy.cancel(value - side(num) / side(den)) == 0
        divisors = [sym(d) for d in _divisors(tree)]
        for xv in points:
            if any(vanishes_at(d, xv) for d in divisors):
                assert sympy.expand(side(den).subs(X, xv)) == 0
        # where every divisor's den, and every u^0 base's, is one constant
        # term, the same quotient and stretch as the former walk. (That walk
        # also merged two sums whose dens were equal only once multiplied
        # out, as in 1/((1 + x)*(1 + x)) + 1/(1 + x)^2; _lower merges dens
        # built alike, and trees this small do not build such a pair.)
        if all(len(d) == 1 and d[0][1] == 0
               for _, d in map(_ref_lower_to_quotient, _divisors(tree, True))):
            stretch, (n, d) = _stretch(_ref_lower_to_quotient(tree))
            assert to_exp_rational(tree) == (ExpRational(normalize(n), normalize(d)), stretch)

    check()
