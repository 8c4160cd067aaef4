"""Surface syntax: tokenizer, recursive-descent parser, and lowerings.

Grammar (whitespace-insensitive, single pass):

    ineq   := expr cmp expr          cmp in { ">", "<", ">=", "<=" }
    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" integer)?
    base   := rational | "x" | "a" | "e" | "exp" "(" expr ")"
            | "sign" "(" expr ")" | "(" expr ")" | "-" factor

Decimal literals parse as exact rationals. `e^(...)` is sugar for
`exp(...)`; `e^n` with a bare integer stays a power of the constant e.
Arguments of exp must be linear in the variables (degree at most one in
each of x and a, product x*a allowed) with rational coefficients;
arguments of sign must be free of exp and e, so their exact rational
value is computable pointwise.

Constant subexpressions made only of rationals fold during parsing, so
the canonical printer and the parser are mutually inverse on ASTs.

Three lowerings leave this module: `to_const` (no variables) produces a
constant in e, an exact quotient of sums over integer powers of e that
`arith` signs and encloses, `to_exp_rational` (variable x) produces the
quotient of mixed exponential polynomials the prover works on, stretching
x by the shared `mep` substitution when exponential rates are fractional,
and `exp_sum_at` (variables x, a) collapses an expression at one rational
grid point into an exact finite sum of rational multiples of e^s, built
and enclosed by the one sum algebra in `arith`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .arith import ConstExpr, ExpSum, _sum_add, _sum_mul, _sum_pow, _sum_reciprocal
from .errors import (
    LoweringError,
    NonlinearExpArgumentError,
    ParseError,
)
from .mep import ExpRational, _stretch, normalize

EXPONENT_CAP = 10_000


@dataclass(frozen=True)
class Node:
    """Expression tree node.

    op is one of: rat (value: Fraction), var (value: "x" | "a"), e,
    exp, sign, add, sub, mul, div, neg, pow (value: int exponent).
    """

    op: str
    args: tuple = ()
    value: object = None


@dataclass(frozen=True)
class InequalityAst:
    left: Node
    cmp: str  # ">", "<", ">=", "<="
    right: Node

    def text(self) -> str:
        return f"{node_text(self.left)} {self.cmp} {node_text(self.right)}"

    @property
    def strict(self) -> bool:
        return self.cmp in (">", "<")


# ---------------------------------------------------------------------------
# tokens

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>>=|<=|≥|≤|[><+*/^()-]|−))"
)

_KNOWN_NAMES = {"x", "a", "e", "exp", "sign"}
_OP_ALIASES = {"−": "-", "≥": ">=", "≤": "<="}


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if m is None or m.end() == m.start():
            # nothing but whitespace may remain
            rest = text[i:]
            if rest.strip() == "":
                break
            bad = i + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group("num") is not None:
            out.append(_Token("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            name = m.group("name")
            if name not in _KNOWN_NAMES:
                raise ParseError(f"unknown name {name!r}", m.start("name"))
            out.append(_Token("name", name, m.start("name")))
        else:
            op = _OP_ALIASES.get(m.group("op"), m.group("op"))
            out.append(_Token("op", op, m.start("op")))
        i = m.end()
    out.append(_Token("end", "", n))
    return out


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> _Token:
        t = self.peek()
        if t.kind == "op" and t.text == op:
            return self.take()
        raise ParseError(f"expected {op!r}", t.pos)

    # -- productions ---------------------------------------------------

    def inequality(self) -> InequalityAst:
        left = self.expr()
        t = self.peek()
        if t.kind != "op" or t.text not in (">", "<", ">=", "<="):
            raise ParseError("expected a comparison operator", t.pos)
        self.take()
        right = self.expr()
        self.end()
        return InequalityAst(left, t.text, right)

    def expression(self) -> Node:
        node = self.expr()
        self.end()
        return node

    def end(self) -> None:
        t = self.peek()
        if t.kind != "end":
            raise ParseError("unexpected trailing input", t.pos)

    def expr(self) -> Node:
        node = self.term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.take()
                rhs = self.term()
                node = _fold("add" if t.text == "+" else "sub", node, rhs, t.pos)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.take()
                rhs = self.factor()
                node = _fold("mul" if t.text == "*" else "div", node, rhs, t.pos)
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.take()
            if node.op == "e" and self.peek().text == "(":
                # e^(...) sugar: a parenthesized exponent of the constant
                # e is the same thing as exp(...)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                _linear_form(arg, t.pos)
                return Node("exp", (arg,))
            k = self.integer()
            return _fold_pow(node, k, t.pos)
        return node

    def integer(self) -> int:
        neg = False
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.take()
            neg = True
            t = self.peek()
        if t.kind != "num" or "." in t.text:
            raise ParseError("expected an integer exponent", t.pos)
        self.take()
        k = int(t.text)
        if k > EXPONENT_CAP:
            raise ParseError(f"exponent exceeds cap {EXPONENT_CAP}", t.pos)
        return -k if neg else k

    def base(self) -> Node:
        t = self.peek()
        if t.kind == "num":
            self.take()
            return Node("rat", value=Fraction(t.text))
        if t.kind == "name":
            self.take()
            if t.text in ("x", "a"):
                return Node("var", value=t.text)
            if t.text == "e":
                return Node("e")
            if t.text == "exp":
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                _linear_form(arg, t.pos)  # validate, then discard
                return Node("exp", (arg,))
            if t.text == "sign":
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                _reject_transcendental(arg, t.pos)
                return Node("sign", (arg,))
        if t.kind == "op" and t.text == "(":
            self.take()
            node = self.expr()
            self.expect_op(")")
            return node
        if t.kind == "op" and t.text == "-":
            self.take()
            inner = self.factor()
            if inner.op == "rat":
                return Node("rat", value=-inner.value)
            return Node("neg", (inner,))
        raise ParseError("expected a value", t.pos)


def _fold(op: str, a: Node, b: Node, pos: int) -> Node:
    """Build a binary node, collapsing rational-only operations."""
    if a.op == "rat" and b.op == "rat":
        if op == "add":
            return Node("rat", value=a.value + b.value)
        if op == "sub":
            return Node("rat", value=a.value - b.value)
        if op == "mul":
            return Node("rat", value=a.value * b.value)
        if b.value == 0:
            raise ParseError("division by zero constant", pos)
        return Node("rat", value=a.value / b.value)
    return Node(op, (a, b))


def _fold_pow(base: Node, k: int, pos: int) -> Node:
    if base.op == "rat":
        if k < 0 and base.value == 0:
            raise ParseError("zero to a negative power", pos)
        return Node("rat", value=base.value**k)
    return Node("pow", (base,), value=k)


def parse_inequality(text: str) -> InequalityAst:
    """Parse "<expr> cmp <expr>"; errors carry the offending position."""
    return _Parser(text).inequality()


def parse_expression(text: str) -> Node:
    return _Parser(text).expression()


# ---------------------------------------------------------------------------
# validation helpers


def _reject_transcendental(node: Node, pos: int) -> None:
    """sign(...) arguments must have exact rational pointwise values."""
    if node.op in ("e", "exp"):
        raise ParseError("sign argument must not contain e or exp", pos)
    for c in node.args:
        _reject_transcendental(c, pos)


def _linear_form(node: Node, pos: int) -> dict[tuple[int, int], Fraction]:
    """Expand an exp argument as a multilinear form in (x, a).

    Keys are (degree in x, degree in a), each at most 1. Anything that
    cannot be brought to that shape with rational coefficients is a
    parse-time nonlinearity error.
    """

    def fail() -> NonlinearExpArgumentError:
        return NonlinearExpArgumentError(
            "exp argument must be linear in the variables", pos
        )

    def walk(n: Node) -> dict[tuple[int, int], Fraction]:
        if n.op == "rat":
            return {(0, 0): n.value} if n.value else {}
        if n.op == "var":
            key = (1, 0) if n.value == "x" else (0, 1)
            return {key: Fraction(1)}
        if n.op in ("e", "exp", "sign"):
            raise fail()
        if n.op == "neg":
            return {k: -v for k, v in walk(n.args[0]).items()}
        if n.op == "add" or n.op == "sub":
            sgn = 1 if n.op == "add" else -1
            return _sum_add(walk(n.args[0]), walk(n.args[1]), sgn)
        if n.op == "mul":
            a = walk(n.args[0])
            b = walk(n.args[1])
            out: dict[tuple[int, int], Fraction] = {}
            for (i1, j1), v1 in a.items():
                for (i2, j2), v2 in b.items():
                    i, j = i1 + i2, j1 + j2
                    if i > 1 or j > 1:
                        raise fail()
                    nv = out.get((i, j), Fraction(0)) + v1 * v2
                    if nv == 0:
                        out.pop((i, j), None)
                    else:
                        out[(i, j)] = nv
            return out
        if n.op == "div":
            a = walk(n.args[0])
            b = walk(n.args[1])
            if set(b) - {(0, 0)}:
                raise fail()
            c = b.get((0, 0), Fraction(0))
            if c == 0:
                raise fail()
            return {k: v / c for k, v in a.items()}
        if n.op == "pow":
            k = n.value
            inner = walk(n.args[0])
            if k == 0:
                return {(0, 0): Fraction(1)}
            if set(inner) - {(0, 0)}:
                if k == 1:
                    return inner
                raise fail()
            c = inner.get((0, 0), Fraction(0))
            if k < 0 and c == 0:
                raise fail()
            return {(0, 0): c**k} if c**k != 0 else {}
        raise fail()

    return walk(node)


def variables(node: Node) -> frozenset[str]:
    if node.op == "var":
        return frozenset((node.value,))
    out: frozenset[str] = frozenset()
    for c in node.args:
        out |= variables(c)
    return out


# ---------------------------------------------------------------------------
# canonical printing
#
# Precedence: add/sub 1, mul/div 2, neg 3, pow 4, atoms 5. The printer
# emits exactly the text the parser folds back into the same tree, which
# the round-trip property test pins down.


def node_text(node: Node) -> str:
    return _render(node)


def _render(n: Node) -> str:
    if n.op == "rat":
        return str(n.value)
    if n.op == "var":
        return n.value
    if n.op == "e":
        return "e"
    if n.op == "exp":
        return f"exp({_render(n.args[0])})"
    if n.op == "sign":
        return f"sign({_render(n.args[0])})"
    if n.op == "neg":
        inner = n.args[0]
        body = _render(inner)
        return f"-{body}" if _prec(inner) >= 3 else f"-({body})"
    if n.op == "pow":
        base = n.args[0]
        body = _render(base)
        if _prec(base) < 5 or (base.op == "rat" and base.value < 0):
            body = f"({body})"
        return f"{body}^{n.value}"
    if n.op in ("add", "sub"):
        sym = "+" if n.op == "add" else "-"
        a, b = n.args
        left = _render(a)
        right = _render(b)
        if _prec(b) < 2:
            right = f"({right})"
        return f"{left} {sym} {right}"
    if n.op in ("mul", "div"):
        sym = "*" if n.op == "mul" else "/"
        a, b = n.args
        left = _render(a)
        if _prec(a) < 2:
            left = f"({left})"
        right = _render(b)
        if _prec(b) <= 2:
            right = f"({right})"
        return f"{left}{sym}{right}"
    raise ValueError(f"unknown node {n.op!r}")


def _prec(n: Node) -> int:
    if n.op in ("add", "sub"):
        return 1
    if n.op in ("mul", "div"):
        return 2
    if n.op == "neg":
        return 3
    if n.op == "pow":
        return 4
    return 5


# ---------------------------------------------------------------------------
# lowering to constants


def to_const(node: Node) -> ConstExpr:
    """Variable-free expression -> rational function of e.

    exp(k) survives only for integer k (as e^k); anything else cannot be
    represented exactly in that field.
    """
    if node.op == "rat":
        return ConstExpr.rational(node.value)
    if node.op == "var":
        raise LoweringError(f"variable {node.value!r} in a constant expression")
    if node.op == "e":
        return ConstExpr.e()
    if node.op == "exp":
        form = _linear_form(node.args[0], 0)
        if set(form) - {(0, 0)}:
            raise LoweringError("exp argument is not constant here")
        v = form.get((0, 0), Fraction(0))
        if v.denominator != 1:
            raise LoweringError(f"exp({v}) is not a rational power of e")
        return ConstExpr.e() ** int(v)
    if node.op == "sign":
        # argument is exp/e-free, so it has an exact rational value
        val = _exp_sum_rational(exp_sum_at(node.args[0], {}))
        s = 0 if val == 0 else (1 if val > 0 else -1)
        return ConstExpr.rational(s)
    if node.op == "neg":
        return -to_const(node.args[0])
    if node.op == "pow":
        return to_const(node.args[0]) ** node.value
    a = to_const(node.args[0])
    b = to_const(node.args[1])
    if node.op == "add":
        return a + b
    if node.op == "sub":
        return a - b
    if node.op == "mul":
        return a * b
    if node.op == "div":
        return a / b
    raise LoweringError(f"unknown node {node.op!r}")


# ---------------------------------------------------------------------------
# lowering to MEP quotients (variable x only)
#
# Working form: a pair of raw term lists [(alpha, p, q)] with integer
# p >= 0 and *rational*, any-sign q; exp(c*x) contributes q = -c. The
# final step clears negative q (normalize) and non-integer q (a common
# variable stretch shared by numerator and denominator).

_RawTerms = list  # [(Fraction alpha, int p, Fraction q)]


def _rq_const(c: Fraction) -> tuple[_RawTerms, _RawTerms]:
    return ([(c, 0, Fraction(0))] if c else []), [(Fraction(1), 0, Fraction(0))]


def _rq_mul_terms(a: _RawTerms, b: _RawTerms) -> _RawTerms:
    out: dict[tuple[int, Fraction], Fraction] = {}
    for ca, pa, qa in a:
        for cb, pb, qb in b:
            key = (pa + pb, qa + qb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return [(c, p, q) for (p, q), c in sorted(out.items()) if c != 0]


def _rq_add(x, y):
    xn, xd = x
    yn, yd = y
    if xd == yd:
        return _rq_sum_terms(xn, yn), xd
    return (
        _rq_sum_terms(_rq_mul_terms(xn, yd), _rq_mul_terms(yn, xd)),
        _rq_mul_terms(xd, yd),
    )


def _rq_sum_terms(a: _RawTerms, b: _RawTerms) -> _RawTerms:
    out: dict[tuple[int, Fraction], Fraction] = {}
    for c, p, q in list(a) + list(b):
        key = (p, q)
        out[key] = out.get(key, Fraction(0)) + c
    return [(c, p, q) for (p, q), c in sorted(out.items()) if c != 0]


def _rq_neg(x):
    n, d = x
    return [(-c, p, q) for c, p, q in n], d


def lower_to_quotient(node: Node) -> tuple[_RawTerms, _RawTerms]:
    """Lower an x-only tree to (numerator terms, denominator terms)."""
    if node.op == "rat":
        return _rq_const(node.value)
    if node.op == "var":
        if node.value != "x":
            raise LoweringError("only the variable x can appear in a proof input")
        return [(Fraction(1), 1, Fraction(0))], [(Fraction(1), 0, Fraction(0))]
    if node.op == "e":
        raise LoweringError(
            "the bare constant e has no exact mixed-exponential form; "
            "write exp(c*x) factors instead"
        )
    if node.op == "exp":
        form = _linear_form(node.args[0], 0)
        if (0, 1) in form or (1, 1) in form:
            raise LoweringError("variable a is not allowed in a proof input")
        if form.get((0, 0)):
            raise LoweringError(
                "exp argument has a constant offset; its value is not an "
                "exact rational coefficient"
            )
        c = form.get((1, 0), Fraction(0))
        return [(Fraction(1), 0, -c)], [(Fraction(1), 0, Fraction(0))]
    if node.op == "sign":
        raise LoweringError("sign() is not supported in proof inputs")
    if node.op == "neg":
        return _rq_neg(lower_to_quotient(node.args[0]))
    if node.op == "pow":
        k = node.value
        n, d = lower_to_quotient(node.args[0])
        if k < 0:
            n, d, k = d, n, -k
            if not n:
                raise LoweringError("division by exact zero")
        rn, rd = _rq_const(Fraction(1))
        for _ in range(k):
            rn = _rq_mul_terms(rn, n)
            rd = _rq_mul_terms(rd, d)
        return rn, rd
    a = lower_to_quotient(node.args[0])
    b = lower_to_quotient(node.args[1])
    if node.op == "add":
        return _rq_add(a, b)
    if node.op == "sub":
        return _rq_add(a, _rq_neg(b))
    if node.op == "mul":
        return _rq_mul_terms(a[0], b[0]), _rq_mul_terms(a[1], b[1])
    if node.op == "div":
        if not b[0]:
            raise LoweringError("division by exact zero")
        return _rq_mul_terms(a[0], b[1]), _rq_mul_terms(a[1], b[0])
    raise LoweringError(f"unknown node {node.op!r}")


def to_exp_rational(node: Node) -> tuple[ExpRational, int]:
    """Lower to an exact quotient of canonical MEPs.

    Returns (quotient, stretch v). Positive exponentials are cleared per
    side by a positive-factor multiplication, which preserves the sign of
    each side but not its value; the quotient is therefore sign-faithful,
    which is all the prover needs. When fractional exponential powers
    occur, both sides get the substitution x = v*z with one shared v and
    the result lives in the variable z; callers must shrink intervals by
    v. v = 1 means the quotient is literally equal to the input.
    """
    v, (num, den) = _stretch(lower_to_quotient(node))
    return ExpRational(normalize(num), normalize(den)), v


# ---------------------------------------------------------------------------
# pointwise lowering for the two-parameter grid
#
# At an exact rational point every exp collapses to e^s with rational s,
# so any expression value is a finite sum {s: c} meaning sum c * e^s
# (arith.ExpSum). Addition and multiplication stay exact; division is
# exact only by a single-term sum (enough for the target inequalities).


def exp_sum_at(node: Node, point: dict[str, Fraction]) -> ExpSum:
    if node.op == "rat":
        return {Fraction(0): node.value} if node.value else {}
    if node.op == "var":
        if node.value not in point:
            raise LoweringError(f"no value given for variable {node.value!r}")
        v = point[node.value]
        return {Fraction(0): v} if v else {}
    if node.op == "e":
        return {Fraction(1): Fraction(1)}
    if node.op == "exp":
        # the argument is linear, so its value here is an exact rational
        return {_exp_sum_rational(exp_sum_at(node.args[0], point)): Fraction(1)}
    if node.op == "sign":
        v = _exp_sum_rational(exp_sum_at(node.args[0], point))
        s = 0 if v == 0 else (1 if v > 0 else -1)
        return {Fraction(0): Fraction(s)} if s else {}
    if node.op == "neg":
        return {k: -c for k, c in exp_sum_at(node.args[0], point).items()}
    if node.op == "pow":
        k = node.value
        base = exp_sum_at(node.args[0], point)
        if k < 0:
            base = _sum_reciprocal(base)
        return _sum_pow(base, abs(k))
    a = exp_sum_at(node.args[0], point)
    b = exp_sum_at(node.args[1], point)
    if node.op == "add":
        return _sum_add(a, b, 1)
    if node.op == "sub":
        return _sum_add(a, b, -1)
    if node.op == "mul":
        return _sum_mul(a, b)
    if node.op == "div":
        return _sum_mul(a, _sum_reciprocal(b))
    raise LoweringError(f"unknown node {node.op!r}")


def _exp_sum_rational(s: ExpSum) -> Fraction:
    if not s:
        return Fraction(0)
    if set(s) != {Fraction(0)}:
        raise LoweringError("value is not an exact rational here")
    return s[Fraction(0)]
