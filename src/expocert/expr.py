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

One lowering, `_lower`, turns a tree in x and a into a quotient num/den
of sparse sums over monomials x^i * a^j * exp(linear form), and den
vanishes wherever a divisor in the tree is zero or undefined. Three
readings follow. `lower_grid` and `exp_sum_at` evaluate it at each
rational grid point into two exact finite sums of rational multiples of
e^s, which `arith` signs. `to_const` (no variables) reads it at the
origin as a constant in e that `arith` signs and encloses.
`to_exp_rational` (variable x) multiplies it out into the quotient of
mixed exponential polynomials the prover works on, stretching x by the
shared `mep` substitution when exponential rates are fractional.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arith import ConstExpr, ExpSum, _put, _sum_add, _sum_mul, _sum_pow
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
        kind = m.lastgroup  # "num", "name" or "op": exactly one matched
        tok, pos = m.group(kind), m.start(kind)
        if kind == "name" and tok not in _KNOWN_NAMES:
            raise ParseError(f"unknown name {tok!r}", pos)
        out.append(_Token(kind, _OP_ALIASES.get(tok, tok) if kind == "op" else tok, pos))
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
    parse-time nonlinearity error at pos. A product is multiplied out
    before its degrees are checked: a product of two nonzero forms is
    never zero, so that rejects what a check of each pair of terms would.
    """
    op, args = node.op, node.args
    if op == "rat":
        return {(0, 0): node.value} if node.value else {}
    if op == "var":
        return {(1, 0) if node.value == "x" else (0, 1): Fraction(1)}
    if op == "neg":
        return _sum_add({}, _linear_form(args[0], pos), -1)
    if op in ("add", "sub", "mul", "div"):
        u, v = _linear_form(args[0], pos), _linear_form(args[1], pos)
        if op in ("add", "sub"):
            return _sum_add(u, v, 1 if op == "add" else -1)
        if op == "mul":
            out = _sum_mul(u, v, _degrees)
            if max(map(max, out), default=0) <= 1:  # no x^2 or a^2
                return out
        elif list(v) == [(0, 0)]:  # division by a nonzero constant
            return _sum_mul(u, {(0, 0): 1 / v[(0, 0)]}, _degrees)
    elif op == "pow":
        k = node.value
        inner = _linear_form(args[0], pos)
        if k == 0:
            return {(0, 0): Fraction(1)}
        # the form itself, or a power of a constant, a nonzero one if k < 0
        if k == 1 or (set(inner) <= {(0, 0)} and (k > 0 or inner)):
            return {key: c**k for key, c in inner.items()}
    raise NonlinearExpArgumentError("exp argument must be linear in the variables", pos)


def _degrees(k1: tuple[int, int], k2: tuple[int, int]) -> tuple[int, int]:
    """The key of a product of two terms of a linear form."""
    return k1[0] + k2[0], k1[1] + k2[1]


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
# the one lowering
#
# _lower turns a tree, once, into a quotient num/den. Each side is a
# sparse sum, or a product, power or sum of such sums that is kept
# unexpanded: expanding (1 + x + exp(x))^40 costs far more than raising
# its value at each grid point. A sum is a dict {(form, i, j, signs): c}
# for the monomial c * x^i * a^j * prod sign_k^e_k * exp(form). The form
# (l0, lx, la, lxa, L) holds the exp argument (l0 + lx*x + la*a + lxa*x*a)/L
# on integers, with L > 0 and the five divided by their gcd, so equal
# exponents are equal keys; signs holds pairs (k, e) into a table of the
# distinct sign(...) arguments, e = 1 or 2 (sign^3 = sign). Sums add and
# multiply by arith's _sum_add and _sum_mul, with _mono_mul as the product
# of two monomials; a power of one monomial is taken in one step.
# Products by a single monomial expand; products of two longer sums do not.
# The parser checks each form but keeps only the tree, which is all that a
# tree built by hand has, so _lower calls _linear_form again, once per
# exp leaf, and makes its integer form there.
#
# A quotient is undefined wherever one of its divisors is zero or itself
# undefined. So a division keeps the divisor's own den as a factor of both
# sides, a negative power is the power of such a quotient 1/u, and u^0 is
# den/den: den vanishes wherever any divisor in the tree does. A divisor
# den that is one monomial c * exp(form) free of x, a and sign cannot
# vanish, and is not kept.

_NO_EXP = (0, 0, 0, 0, 1)
_UNIT = (_NO_EXP, 0, 0, ())
_ONE_SUM = {_UNIT: Fraction(1)}


def _reduced(*ints: int) -> tuple:
    """The integers divided by their gcd."""
    g = gcd(*ints)
    return ints if g == 1 else tuple(n // g for n in ints)


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    f1, i1, j1, s1 = m1
    f2, i2, j2, s2 = m2
    if f2 == _NO_EXP:
        form = f1
    elif f1 == _NO_EXP:
        form = f2
    else:
        *u, l1 = f1
        *v, l2 = f2
        form = _reduced(*(a * l2 + b * l1 for a, b in zip(u, v)), l1 * l2)
    if s1 and s2:
        exps = dict(s1)
        for k, e in s2:
            exps[k] = exps.get(k, 0) + e
        s1 = tuple(sorted((k, 2 - e % 2) for k, e in exps.items()))
    return form, i1 + i2, j1 + j2, s1 or s2


def _mul(p, q):
    """Product of two lowered sides; expanded only by a single monomial."""
    if p == _ONE_SUM:
        return q
    if q == _ONE_SUM:
        return p
    if isinstance(p, dict) and isinstance(q, dict) and min(len(p), len(q)) <= 1:
        return _sum_mul(p, q, _mono_mul)
    if p == {} or q == {}:
        return {}
    return ("mul", p, q)


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
        # one monomial: c^k, every exponent times k, sign exponents 1 or 2
        return {(_reduced(*(u * k for u in form[:4]), form[4]), i * k, j * k,
                 tuple((s, 2 - e * k % 2) for s, e in signs)): c**k
                for (form, i, j, signs), c in p.items()}
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
        return {((1, 0, 0, 0, 1), 0, 0, ()): Fraction(1)}, _ONE_SUM
    if op == "exp":
        lin = _linear_form(node.args[0], 0)
        coeffs = [lin.get(key, 0) for key in ((0, 0), (1, 0), (0, 1), (1, 1))]
        den = lcm(*(f.denominator for f in coeffs))  # leaves no common factor
        form = (*(f.numerator * (den // f.denominator) for f in coeffs), den)
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
        if k == 0:  # u^0 = d/d keeps the points where u is undefined
            return (d, d) if _can_vanish(d) else (_ONE_SUM, _ONE_SUM)
        if k < 0:  # the power of 1/u
            n, d = _divide(_ONE_SUM, _ONE_SUM, n, d)
        return _pow(n, abs(k)), _pow(d, abs(k))
    (n1, d1), (n2, d2) = (_lower(c, signs, seen) for c in node.args)
    if op in ("add", "sub"):
        sgn = 1 if op == "add" else -1
        if d1 == d2:
            return _add(n1, n2, sgn), d1
        return _add(_mul(n1, d2), _mul(n2, d1), sgn), _mul(d1, d2)
    if op == "mul":
        return _mul(n1, n2), _mul(d1, d2)
    if op == "div":
        return _divide(n1, d1, n2, d2)
    raise LoweringError(f"unknown node {op!r}")


def _divide(n1, d1, n2, d2) -> tuple:
    """(n1/d1) / (n2/d2); d2 stays a factor of both sides if it can vanish."""
    num, den = _mul(n1, d2), _mul(d1, n2)
    return (_mul(num, d2), _mul(den, d2)) if _can_vanish(d2) else (num, den)


def _can_vanish(d) -> bool:
    """False only for one monomial c * exp(form), free of x, a and sign."""
    return not (isinstance(d, dict) and len(d) == 1 and next(iter(d))[1:] == (0, 0, ()))


# ---------------------------------------------------------------------------
# constants and proof inputs: the quotient at the origin, or multiplied out


def to_const(node: Node) -> ConstExpr:
    """Variable-free expression -> rational function of e: the lowered
    quotient at the origin, both sums shifted to exponents >= 0. exp(k)
    survives only for integer k (as e^k), and a divisor that is zero leaves
    den = {}, which ConstExpr reports when the value is used."""
    names = variables(node)
    if names:
        raise LoweringError(f"variable {min(names)!r} in a constant expression")
    num, den = exp_sum_at(lower_grid(node), Fraction(0), Fraction(0))
    for s in (*num, *den):
        if s.denominator != 1:
            raise LoweringError(f"exp({s}) is not an integer power of e")
    low = min((0, *num, *den))
    return ConstExpr(*({s - low: c for s, c in p.items()} for p in (num, den)))


_RawTerms = list  # [(alpha, p, q)] for alpha * x^p * exp(-q*x), q rational


def lower_to_quotient(node: Node) -> tuple[_RawTerms, _RawTerms]:
    """Lower an x-only tree to (numerator terms, denominator terms)."""
    signs: list = []
    quotient = _lower(node, signs, {})
    if signs:
        raise LoweringError("sign() is not supported in proof inputs")
    num, den = (_raw_terms(_expand(p)) for p in quotient)
    if not den:
        raise LoweringError("division by exact zero")
    return num, den


def _expand(p) -> dict:
    """A kept product, power or sum multiplied out into one sparse sum."""
    if isinstance(p, dict):
        return p
    if p[0] == "pow":
        base, out = _expand(p[1]), _ONE_SUM
        for _ in range(p[2]):
            out = _sum_mul(out, base, _mono_mul)
        return out
    u, v = _expand(p[1]), _expand(p[2])
    return _sum_mul(u, v, _mono_mul) if p[0] == "mul" else _sum_add(u, v, 1)


def _raw_terms(p: dict) -> _RawTerms:
    out = []
    for ((l0, lx, la, lxa, den), i, j, _), c in p.items():
        if j:
            raise LoweringError("only the variable x can appear in a proof input")
        if la or lxa:
            raise LoweringError("variable a is not allowed in a proof input")
        if l0:
            raise LoweringError(
                "the constant e, or an exp argument with a constant offset, has no "
                "exact mixed-exponential form; write exp(c*x) factors instead")
        out.append((c, i, Fraction(-lx, den)))
    return out


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
# the two-parameter grid: integers at each point
#
# At a rational point every exp(form) collapses to e^s with rational s,
# so each side becomes an exact finite sum {s: c} (arith.ExpSum). The
# monomials of a sum are grouped by their integer form, and each group's
# coefficients are stored on integers over one scale, so at x = px/qx,
# a = pa/qa its coefficient is a single integer sum over
# scale * qx^I * qa^J, and its exponent one integer over L * qx * qa.


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
    """Replace each sum by its groups ((s or None, form, scale, monomials),
    ...): the monomials of one form, with integer coefficients over one
    scale; s is the exponent when it is constant."""
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
        scale = lcm(*(c.denominator for c, *_ in monos))
        monos = tuple((c.numerator * (scale // c.denominator), i, j, sg)
                      for c, i, j, sg in monos)
        const = Fraction(form[0], form[4]) if not any(form[1:4]) else None
        groups.append((const, form, scale, monos))
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
