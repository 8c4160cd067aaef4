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
and `lower_grid` (variables x, a) lowers an expression once per grid to a
quotient of sparse sums over monomials x^i * a^j * exp(linear form), held
on integers. `exp_sum_at` then evaluates that quotient at each rational
grid point into two exact finite sums of rational multiples of e^s, which
`arith` signs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .arith import ConstExpr, ExpSum, _sum_add, _sum_mul, _sum_pow
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
        return ConstExpr.rational(to_const(node.args[0]).sign())
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
# the two-parameter grid: one lowering per command, integers at each point
#
# lower_grid turns the tree, once, into a quotient num/den. Each side is a
# sparse sum, or a product, power or sum of such sums that is kept
# unexpanded: expanding (1 + x + exp(x))^40 costs far more than raising
# its value at each point. A sum is a dict {(form, i, j, signs): c} for
# the monomial c * x^i * a^j * prod sign_k^e_k * exp(form), where form =
# (l0, lx, la, lxa) spans the exp arguments 1, x, a, x*a that
# _linear_form admits and signs holds pairs (k, e) into a table of the
# distinct sign(...) arguments, e = 1 or 2 (sign^3 = sign). Products by a
# single monomial expand; products of two longer sums do not.
#
# At a rational point every exp(form) collapses to e^s with rational s,
# so each side becomes an exact finite sum {s: c} (arith.ExpSum). Each
# group of monomials sharing one form is stored on integers over one
# denominator L, so its coefficient at x = px/qx, a = pa/qa is a single
# integer sum over L * qx^I * qa^J.

_NO_EXP = (Fraction(0),) * 4
_UNIT = (_NO_EXP, 0, 0, ())
_ONE_SUM = {_UNIT: Fraction(1)}


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    f1, i1, j1, s1 = m1
    f2, i2, j2, s2 = m2
    exps = dict(s1)
    for k, e in s2:
        exps[k] = exps.get(k, 0) + e
    signs = tuple(sorted((k, 2 - e % 2) for k, e in exps.items()))
    return tuple(u + v for u, v in zip(f1, f2)), i1 + i2, j1 + j2, signs


def _mul(p, q):
    """Product of two lowered sides; expanded only by a single monomial."""
    if p == _ONE_SUM:
        return q
    if q == _ONE_SUM:
        return p
    if isinstance(p, dict) and isinstance(q, dict) and min(len(p), len(q)) <= 1:
        out: dict = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                _put(out, _mono_mul(m1, m2), c1 * c2)
        return out
    if p == {} or q == {}:
        return {}
    return ("mul", p, q)


def _put(out: dict, key, c: Fraction) -> None:
    """Add a nonzero c at key, dropping the key if the sum cancels."""
    prev = out.setdefault(key, c)
    if prev is not c:
        nc = prev + c
        if nc:
            out[key] = nc
        else:
            del out[key]


def _add(p, q, sgn: int):
    if isinstance(p, dict) and isinstance(q, dict):
        return _sum_add(p, q, sgn)
    if sgn < 0:
        q = _mul({_UNIT: Fraction(-1)}, q)
    if p == {}:
        return q
    if q == {}:
        return p
    return ("add", p, q)


def _pow(p, k: int):
    if k == 1:
        return p
    if isinstance(p, dict) and len(p) <= 1:
        out = dict(_ONE_SUM)
        for _ in range(k):
            out = _mul(out, p)
        return out
    return ("pow", p, k)


def _lower(node: Node, signs: list, seen: dict) -> tuple:
    """(num, den) of a tree in x and a; sign arguments go into `signs`."""
    op = node.op
    if op == "rat":
        return ({_UNIT: node.value} if node.value else {}), _ONE_SUM
    if op == "var":
        mono = (_NO_EXP, 1, 0, ()) if node.value == "x" else (_NO_EXP, 0, 1, ())
        return {mono: Fraction(1)}, _ONE_SUM
    if op == "e":
        return {((Fraction(1),) + _NO_EXP[1:], 0, 0, ()): Fraction(1)}, _ONE_SUM
    if op == "exp":
        lin = _linear_form(node.args[0], 0)
        form = tuple(lin.get(key, Fraction(0)) for key in ((0, 0), (1, 0), (0, 1), (1, 1)))
        return {(form, 0, 0, ()): Fraction(1)}, _ONE_SUM
    if op == "sign":
        arg = node.args[0]
        if arg not in seen:
            signs.append(_lower(arg, signs, seen))
            seen[arg] = len(signs) - 1
        return {(_NO_EXP, 0, 0, ((seen[arg], 1),)): Fraction(1)}, _ONE_SUM
    if op == "neg":
        n, d = _lower(node.args[0], signs, seen)
        return _add({}, n, -1), d
    if op == "pow":
        k = node.value
        n, d = _lower(node.args[0], signs, seen)
        if k < 0:
            n, d, k = d, n, -k
        if k == 0:  # u^0 = d/d keeps the points where u is undefined
            return d, d
        return _pow(n, k), _pow(d, k)
    (n1, d1), (n2, d2) = (_lower(c, signs, seen) for c in node.args)
    if op in ("add", "sub"):
        sgn = 1 if op == "add" else -1
        if d1 == d2:
            return _add(n1, n2, sgn), d1
        return _add(_mul(n1, d2), _mul(n2, d1), sgn), _mul(d1, d2)
    if op == "mul":
        return _mul(n1, n2), _mul(d1, d2)
    if op == "div":
        return _mul(n1, d2), _mul(d1, n2)
    raise LoweringError(f"unknown node {op!r}")


@dataclass(frozen=True)
class GridForm:
    """A tree in x and a lowered once: num/den and the sign(...) table, in
    the integer groups that exp_sum_at evaluates at each point."""

    num: object
    den: object
    signs: tuple  # ((num, den), ...), each argument after those it uses
    x_powers: frozenset  # the powers i of x and j of a that occur
    a_powers: frozenset


def lower_grid(node: Node) -> GridForm:
    """Lower a tree in x and a once, for exp_sum_at at every grid point."""
    signs: list = []
    quotient = _lower(node, signs, {})
    powers = (set(), set())
    pairs = [tuple(_compile(p, powers) for p in pair) for pair in [*signs, quotient]]
    return GridForm(*pairs[-1], tuple(pairs[:-1]), *map(frozenset, powers))


def _compile(p, powers: tuple):
    """Replace each sum by its groups ((s or None, exponent integers, L,
    monomials), ...); s is the exponent when it is constant."""
    if not isinstance(p, dict):
        return (p[0], *(_compile(c, powers) if isinstance(c, (dict, tuple)) else c
                        for c in p[1:]))
    by_form: dict = {}
    for (form, i, j, sg), c in p.items():
        by_form.setdefault(form, []).append((c, i, j, sg))
        powers[0].add(i)
        powers[1].add(j)
    groups = []
    for form, monos in by_form.items():
        fd = lcm(*(f.denominator for f in form))
        ints = tuple(f.numerator * (fd // f.denominator) for f in form) + (fd,)
        scale = lcm(*(c.denominator for c, *_ in monos))
        monos = tuple((c.numerator * (scale // c.denominator), i, j, sg)
                      for c, i, j, sg in monos)
        const = form[0] if not any(form[1:]) else None
        groups.append((const, ints, scale, monos))
    return ("sum", tuple(groups))


def exp_sum_at(form: GridForm, x: Fraction, a: Fraction) -> tuple[ExpSum, ExpSum]:
    """(num, den) of a lowered tree at the rational point (x, a), each an
    exact sum {s: c} of c * e^s.

    Raises LoweringError when a sign(...) argument divides by zero here.
    """
    px, qx, pa, qa = x.numerator, x.denominator, a.numerator, a.denominator
    xi, aj = max(form.x_powers, default=0), max(form.a_powers, default=0)
    qq = qx * qa
    ctx = (
        {i: px**i * qx ** (xi - i) for i in form.x_powers},
        {j: pa**j * qa ** (aj - j) for j in form.a_powers},
        qx**xi * qa**aj,
        (qq, px * qa, pa * qx, px * pa),
        [],
    )
    for n, d in form.signs:
        d = _sign(d, ctx)
        if not d:
            raise LoweringError("division by exact zero at this point")
        ctx[4].append(_sign(n, ctx) * d)
    return _at(form.num, ctx), _at(form.den, ctx)


def _acc(monos, ctx) -> int:
    """A group's coefficient at the point, times L * qx^I * qa^J."""
    xs, as_, _, _, sv = ctx
    acc = 0
    for n, i, j, sg in monos:
        for k, e in sg:
            n *= sv[k] if e == 1 else sv[k] * sv[k]
        acc += n * xs[i] * as_[j]
    return acc


def _sign(p, ctx) -> int:
    """Sign of an exp-free side at the point."""
    v = _at(p, ctx).get(0, 0)
    return (v > 0) - (v < 0)


def _at(p, ctx) -> ExpSum:
    kind = p[0]
    if kind == "mul":
        return _sum_mul(_at(p[1], ctx), _at(p[2], ctx))
    if kind == "pow":
        return _sum_pow(_at(p[1], ctx), p[2])
    if kind == "add":
        return _sum_add(_at(p[1], ctx), _at(p[2], ctx), 1)
    _, _, den, (qq, pxqa, paqx, pxpa), _ = ctx
    out: ExpSum = {}
    for const, (l0, lx, la, lxa, ld), scale, monos in p[1]:
        acc = _acc(monos, ctx)
        if acc:
            if const is None:
                const = Fraction(l0 * qq + lx * pxqa + la * paqx + lxa * pxpa, ld * qq)
            _put(out, const, Fraction(acc, scale * den))
    return out
