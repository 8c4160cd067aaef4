"""Exact univariate polynomial algebra over the rationals.

Dense representation: ``coeffs[i]`` is the coefficient of ``x**i``, always a
``fractions.Fraction``, with no trailing zeros (the zero polynomial has an
empty coefficient tuple). There is no floating point anywhere in this
module, so every sign decision is exact.

Deciding signs works on integers. A polynomial is first scaled by a
positive rational to its primitive integer form; its value at ``n/d`` is
taken homogeneously as ``d**deg * P(n/d)``, which has the sign of
``P(n/d)``. ``is_positive_on``, ``sample_refutes``,
``descartes_positive``, ``squarefree_part`` and ``SturmChain`` also take
an integer list that stands for a positive multiple of a polynomial, as
the prover holds its bounds.

Descartes proves, Sturm verifies: two independent kernels decide P > 0.
``sample_refutes`` evaluates a polynomial at a few fixed rationals of an
interval and reports a nonpositive interior value (or a negative endpoint
value), which settles "not positive" at once. ``descartes_positive``,
which ``is_positive_on`` calls next, maps the interval onto
(0, 1) and bisects it, counting sign variations by Descartes' rule on
each piece and checking each piece's midpoint value exactly. The
verifier counts roots with a Sturm chain of the squarefree part instead,
which SturmChain finds without a separate gcd when x^k is P's only
repeated factor. It stores only its members' integer lists. The gcd and
the Sturm chain are both primitive pseudo-remainder sequences: each
remainder is computed on integer coefficient lists after multiplying by a
positive power of the divisor's leading coefficient, then reduced to its
primitive part. The positive factors change no sign, so every member
equals the primitive part of the exact rational remainder.

Interval conventions: ``count_roots_open``, ``is_positive_on`` and
``descartes_positive`` speak about the open interval (a, b). Roots
exactly at an endpoint are never counted and never falsify positivity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

from .errors import PreconditionError, ZeroPolynomialError


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) or isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"expected a rational, got {type(v).__name__}")


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, c, power: int) -> "Polynomial":
        """c * x**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls([Fraction(0)] * power + [c])

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        if c == 0:
            return Polynomial.zero()
        return Polynomial([a * c for a in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x) -> Fraction:
        """Exact value at a rational point (Horner)."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = eval

    # -- euclidean structure --------------------------------------------

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact quotient and remainder; divisor must be nonzero."""
        if other.is_zero:
            raise ZeroPolynomialError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree
        lead = other.coeffs[-1]
        if len(rem) - 1 < dq:
            return Polynomial.zero(), Polynomial(rem)
        quot = [Fraction(0)] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / lead
            quot[i - dq] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dq + j] -= f * oc
        return Polynomial(quot), Polynomial(rem)

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer
        coefficients; 0 for the zero polynomial."""
        if self.is_zero:
            return Fraction(0)
        # lists, not generators: a starred generator grows its argument
        # tuple by resizing, so that tuple never comes from the free list
        # of the length it is freed into, and those free lists only fill
        return Fraction(
            gcd(*[c.numerator for c in self.coeffs]),
            lcm(*[c.denominator for c in self.coeffs]),
        )

    # -- hashing / comparison / display ----------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.text()!r})"

    def text(self, var: str = "x") -> str:
        """Canonical display form: "8 - 12*x + 1/2*x^2"; "0" when zero."""
        return _signed_sum(
            (c, _power(var, i)) for i, c in enumerate(self.coeffs) if c
        )

    def coeff_strings(self) -> list[str]:
        """JSON-friendly form: coefficient strings indexed by power."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls([Fraction(s) for s in items])


def _power(var: str, k: int) -> list[str]:
    """The factors that display var^k: none for k = 0."""
    return [] if not k else [var if k == 1 else f"{var}^{k}"]


def _signed_sum(terms: Iterable[tuple[Fraction, list[str]]]) -> str:
    """Display form of a sum of terms c * f1 * f2 * ..., each c nonzero,
    given as (c, [f1, f2, ...]): |c| leads unless it is 1 and factors
    follow; the first term keeps its "-", later terms join with " + " or
    " - "; "0" for no terms."""
    parts: list[str] = []
    for c, factors in terms:
        mag = abs(c)
        body = "*".join([str(mag), *factors] if mag != 1 or not factors else factors)
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# integer coefficient lists: the deciding kernel
#
# A list ``cs`` stands for sum cs[i] * x**i, with no trailing zeros. Every
# list below is a positive multiple of the rational polynomial it stands
# for, so it has the same roots and the same sign everywhere.


def _integer_coeffs(p: Polynomial) -> list[int]:
    """p / content(p): coprime integers, leading sign kept."""
    if p.is_zero:
        return []
    c = p.content()
    num, den = c.numerator, c.denominator
    return [x.numerator // num * (den // x.denominator) for x in p.coeffs]


def _primitive(cs: list[int]) -> list[int]:
    g = gcd(*cs)  # 0 for the empty list
    return [c // g for c in cs] if g > 1 else cs


def _value(cs: list[int], x: Fraction) -> int:
    """d**deg * P(n/d) for x = n/d with d > 0: the sign of P(x), in integers."""
    n, d = x.numerator, x.denominator
    acc = 0
    dk = 1
    for c in reversed(cs):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Positive multiple of the remainder of a by b (b nonzero).

    Each step scales the running remainder by |lc(b)| / g > 0 and cancels
    its leading term with an integer multiple of b, where g is the gcd of
    that leading term and lc(b).
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) > db:
        c = r.pop()
        g = gcd(c, lb)
        s, f = abs(lb) // g, c // g if lb > 0 else -c // g
        if s != 1:
            r = [s * x for x in r]
        k = len(r) - db
        r[k:] = [x - f * y for x, y in zip(r[k:], b)]
        while r and not r[-1]:
            r.pop()
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd of primitive lists: primitive, positive leading coefficient
    ([] if both are zero)."""
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


def _sturm_ints(head: list[int]) -> list[list[int]]:
    """head, its derivative and the negated primitive pseudo-remainders,
    until a constant or until the remainder vanishes."""
    ints = [head]
    if len(head) > 1:
        ints.append(_primitive([i * c for i, c in enumerate(head)][1:]))
        while len(ints[-1]) > 1:
            rem = _pseudo_remainder(ints[-2], ints[-1])
            if not rem:
                break
            ints.append(_primitive([-c for c in rem]))
    return ints


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer lists where b divides a with an integer quotient."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    quot = [0] * (len(r) - db)
    for i in range(len(quot) - 1, -1, -1):
        f = r[i + db] // lb
        quot[i] = f
        if f:
            for j, y in enumerate(b):
                r[i + j] -= f * y
    assert not any(r), "gcd must divide exactly"
    return quot


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monicized-by-content GCD: primitive, positive leading coefficient.

    The primitive pseudo-remainder sequence of the integer forms; positive
    rescaling keeps the root set and all Sturm sign data intact while
    stopping coefficient blow-up.
    """
    return Polynomial(_gcd(_integer_coeffs(p), _integer_coeffs(q)))


def _ints_of(p: Polynomial | list[int]) -> list[int]:
    """The primitive integer list of a Polynomial, or of an integer list
    (no trailing zeros) that stands for a positive multiple of one."""
    return _integer_coeffs(p) if isinstance(p, Polynomial) else _primitive(p)


def squarefree_part(p: Polynomial | list[int]) -> Polynomial:
    """P / gcd(P, P'), made primitive, for a Polynomial or an integer list.

    Same distinct real roots as P, each simple; the sign of the leading
    coefficient follows P's.
    """
    cs = _ints_of(p)
    if not cs:
        raise ZeroPolynomialError("squarefree part of the zero polynomial")
    g = _gcd(cs, _primitive([i * c for i, c in enumerate(cs)][1:]))
    # cs = g * h with h integer and primitive (Gauss's lemma)
    return Polynomial(cs if len(g) == 1 else _exact_quotient(cs, g))


class SturmChain:
    """Canonical Sturm sequence of the squarefree part of a nonzero polynomial.

    Takes a Polynomial, or an integer list that stands for a positive
    multiple of one. Sign-variation counts V(t) skip zero entries; for
    a < b, V(a) - V(b) is the number of distinct roots in the half-open
    interval (a, b]. The head is P made primitive with a power x^k cut to
    x (a Maclaurin bound P often has such a factor and no other repeated
    one). When that head's chain ends in a nonzero constant the head is
    squarefree and the chain is kept; otherwise it is rebuilt from the
    squarefree part of P. The members after the head are the head's
    derivative, then the negated remainders, each reduced to its primitive
    part, which only rescales by positive rationals and so changes no
    signs. Only these integer lists are stored, in ``_ints``; ``chain``
    gives the members as polynomials, built each time it is read.
    """

    __slots__ = ("_ints",)

    def __init__(self, p: Polynomial | list[int]):
        cs = _ints_of(p)
        if not cs:
            raise ZeroPolynomialError("Sturm chain of the zero polynomial")
        k = next(i for i, c in enumerate(cs) if c)
        ints = _sturm_ints(cs[max(k - 1, 0):])
        if len(ints[-1]) > 1:  # ends in gcd(head, head'): a repeated factor
            ints = _sturm_ints(_integer_coeffs(squarefree_part(cs)))
        self._ints = ints

    @property
    def chain(self) -> tuple[Polynomial, ...]:
        return tuple(Polynomial(m) for m in self._ints)

    def variations_at(self, t) -> int:
        t = _as_fraction(t)
        return _sign_changes([_value(member, t) for member in self._ints])

    def roots_in_open(self, a, b) -> int:
        """Distinct roots in (a, b): those in (a, b], less a root at b."""
        n = self.variations_at(a) - self.variations_at(b)
        if _value(self._ints[0], _as_fraction(b)) == 0:
            n -= 1
        return n


def _check_open(a, b) -> tuple[Fraction, Fraction]:
    a, b = _as_fraction(a), _as_fraction(b)
    if not a < b:
        raise PreconditionError("need a < b")
    return a, b


def count_roots_open(p: Polynomial, a, b) -> int:
    """Number of distinct real roots of p strictly inside (a, b)."""
    if p.is_zero:
        raise ZeroPolynomialError("root counting needs a nonzero polynomial")
    a, b = _check_open(a, b)
    return SturmChain(p).roots_in_open(a, b)


def negative_point(p: Polynomial, a, b) -> Fraction | None:
    """A rational x in (a, b) with p(x) < 0, or None when p >= 0 on (a, b).

    The distinct roots are isolated by bisection with a Sturm chain, and
    every piece's midpoint is evaluated exactly. A piece with no root
    inside has the sign of its midpoint. One with a single root r keeps
    the sign of a nonzero endpoint value up to r (it is continuous), so it
    is settled once both endpoint values are positive; otherwise it is
    halved, and since r lies strictly inside, a piece with no root on the
    unknown side of r comes after finitely many halvings. Pieces with two
    or more roots are halved until the roots are apart.
    """
    cs = _integer_coeffs(p)
    if not cs:
        raise ZeroPolynomialError("negative point of the zero polynomial")
    a, b = _check_open(a, b)
    chain = SturmChain(cs)
    pieces = [(a, b)]
    while pieces:
        u, v = pieces.pop()
        m = (u + v) / 2
        if _value(cs, m) < 0:
            return m
        n = chain.roots_in_open(u, v)
        if n > 1 or n == 1 and not (_value(cs, u) > 0 < _value(cs, v)):
            pieces += [(m, v), (u, m)]
    return None


# sample_refutes tries a + (b - a) * k / SAMPLE_PARTS for 0 < k < SAMPLE_PARTS
SAMPLE_PARTS = 17


def sample_refutes(p: Polynomial | list[int], a, b) -> bool:
    """True when exact values show that p > 0 fails somewhere on (a, b).

    p is a Polynomial, or an integer list that stands for a positive
    multiple of one. It is evaluated at SAMPLE_PARTS - 1 equally spaced
    interior rationals and at both endpoints: a value <= 0 inside, or < 0
    at an endpoint (p is continuous), refutes positivity. False proves
    nothing.
    """
    # only signs are read, so an integer list serves as given, without a gcd
    cs = _integer_coeffs(p) if isinstance(p, Polynomial) else p
    a, b = _as_fraction(a), _as_fraction(b)
    if _value(cs, a) < 0 or _value(cs, b) < 0:
        return True
    step = (b - a) / SAMPLE_PARTS
    return any(_value(cs, a + k * step) <= 0 for k in range(1, SAMPLE_PARTS))


# descartes_positive counts roots with P's squarefree part from this
# bisection depth on: an even-multiplicity root keeps P's count at 2 or
# more however small the piece around it, a simple root does not
DESCARTES_SQUAREFREE_DEPTH = 12


def _shifted(cs: list[int], t: int) -> list[int]:
    """Coefficients of c(x + t): synthetic division by x - t, repeated.

    Held highest degree first, each division is a running Horner sum over
    the coefficients it has not yet fixed.
    """
    h = cs[::-1]
    step = add if t == 1 else (lambda acc, c: acc * t + c)
    for end in range(len(h), 1, -1):
        h[:end] = accumulate(h[:end], step)
    return h[::-1]


def _sign_changes(cs: list[int]) -> int:
    count = prev = 0
    for c in cs:
        if c:
            if prev and (c > 0) != (prev > 0):
                count += 1
            prev = c
    return count


def _on_unit_interval(cs: list[int], a: Fraction, b: Fraction) -> list[int]:
    """A positive multiple of P(a + (b - a) x) / x^k, with x^k the largest
    power that divides it (k is the multiplicity of a as a root of P).

    With m = lcm of the endpoint denominators, a = s/m and b - a = w/m:
    m^d P((s + w x)/m) = sum c_i m^(d-i) (s + w x)^i.
    """
    m = lcm(a.denominator, b.denominator)
    s = a.numerator * (m // a.denominator)
    w = b.numerator * (m // b.denominator) - s
    d = len(cs) - 1
    q = [c * m ** (d - i) for i, c in enumerate(cs)]
    if s:
        q = _shifted(q, s)
    q = [c * w**i for i, c in enumerate(q)]
    k = next(i for i, c in enumerate(q) if c)
    return q[k:]


def _descartes_pieces(
    cs: list[int], count: list[int], a: Fraction, b: Fraction, max_depth
) -> bool | None:
    """P > 0 on (a, b), with P the integer list cs and roots counted on
    the list count, whose roots in (a, b) are P's.

    Each piece (u, v) of the bisection holds C(x), a positive multiple of
    count(u + (v - u) x) on (0, 1). P's exact value at the piece's
    midpoint must be positive. The sign variations of (1+z)^d C(1/(1+z))
    bound the roots in (u, v) and have their parity: 0 clears the piece,
    1 is a root, and 2 or more splits it in halves, 2^d C(x/2) and
    2^d C((x+1)/2). None when a piece at max_depth still counts 2 or more.
    """
    pieces = [(_on_unit_interval(count, a, b), 0, 0)]
    while pieces:
        q, depth, j = pieces.pop()
        # the piece is (a + (b - a) j / 2^depth, a + (b - a) (j + 1) / 2^depth)
        if _value(cs, a + (b - a) * Fraction(2 * j + 1, 2 ** (depth + 1))) <= 0:
            return False
        v = _sign_changes(_shifted(q[::-1], 1))
        if v == 1:
            return False
        if v == 0:
            continue
        if depth == max_depth:
            return None
        d = len(q) - 1
        left = [c << (d - i) for i, c in enumerate(q)]
        pieces += [(_shifted(left, 1), depth + 1, 2 * j + 1), (left, depth + 1, 2 * j)]
    return True


def descartes_positive(p: Polynomial | list[int], a, b) -> bool:
    """True iff p > 0 on the whole open interval (a, b), by Descartes'
    rule of signs with bisection (Collins and Akritas, 1976).

    p is a nonzero Polynomial, or an integer list that stands for a
    positive multiple of one. Roots at a or b are allowed. Every piece of
    the bisection has its midpoint value checked exactly, and a count of
    one root settles "not positive". Past DESCARTES_SQUAREFREE_DEPTH the
    roots are counted on the squarefree part, whose roots are simple, so
    the bisection ends whatever the multiplicities are.
    """
    cs = _integer_coeffs(p) if isinstance(p, Polynomial) else p
    if not cs:
        raise ZeroPolynomialError("positivity of the zero polynomial is degenerate")
    a, b = _check_open(a, b)
    verdict = _descartes_pieces(cs, cs, a, b, DESCARTES_SQUAREFREE_DEPTH)
    if verdict is None:
        squarefree = _integer_coeffs(squarefree_part(cs))
        verdict = _descartes_pieces(cs, squarefree, a, b, None)
    return verdict


def is_positive_on(p: Polynomial | list[int], a, b) -> bool:
    """True iff p > 0 on the whole open interval (a, b).

    p is a nonzero Polynomial, or an integer list that stands for a
    positive multiple of one, as the prover holds its bounds. Decided
    exactly: a sampled refutation (``sample_refutes``) settles False at
    once; otherwise Descartes' rule of signs with bisection decides
    (``descartes_positive``). Zeros at the endpoints themselves are
    tolerated.
    """
    cs = _integer_coeffs(p) if isinstance(p, Polynomial) else p
    if not cs:
        raise ZeroPolynomialError("positivity of the zero polynomial is degenerate")
    a, b = _check_open(a, b)
    return not sample_refutes(cs, a, b) and descartes_positive(cs, a, b)
