"""Checks of expocert's outputs that share no code with expocert.

Nothing here imports the package. Inputs are evaluated with `decimal` at
PREC significant digits, certificates are rebuilt from their recorded
orders with this module's own Maclaurin coefficients (-q)^k/k!, and the
positivity of each rebuilt P is re-decided exactly by Descartes' rule of
signs on a Moebius-transformed integer polynomial with bisection, where
expocert uses Sturm chains.

Error bound of the decimal evaluation: every +, -, *, / and Decimal.exp
is correctly rounded to PREC = 60 significant digits, so each operation
adds a relative error below 10^-59. The expressions checked here take
fewer than 10^3 operations on magnitudes below 10^12, which bounds the
absolute error by 10^-44. TOL = 10^-40 leaves a margin over that; a
sign is only trusted when the value is farther than TOL from zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial, lcm

PREC = 60
TOL = Decimal(10) ** -40


class OracleError(Exception):
    """The oracle could not decide (never raised on a well-formed run)."""


# ---------------------------------------------------------------------------
# claims: sums of c * x^p * exp(-q*x) with rational q >= 0


@dataclass(frozen=True)
class Term:
    c: Fraction
    p: int
    q: Fraction


def dec(v: Fraction) -> Decimal:
    return Decimal(v.numerator) / Decimal(v.denominator)


def sum_dec(terms, x: Fraction) -> Decimal:
    """Value of sum c * x^p * exp(-q*x) at a rational x."""
    with localcontext() as ctx:
        ctx.prec = PREC
        xd = dec(x)
        total = Decimal(0)
        for t in terms:
            v = dec(t.c) * xd ** t.p
            if t.q:
                v *= (-dec(t.q) * xd).exp()
            total += v
        return +total


def taylor(n: int, q: Fraction) -> list[Fraction]:
    """Coefficients of T_n(q*x) = sum_{k<=n} (-q*x)^k / k!."""
    return [Fraction(-q) ** k / factorial(k) for k in range(n + 1)]


def term_text(t: Term) -> str:
    """Magnitude text of one term, in the form the expocert parser reads."""
    parts = []
    mag = abs(t.c)
    if mag != 1 or (not t.p and not t.q):
        parts.append(str(mag))
    if t.p:
        parts.append("x" if t.p == 1 else f"x^{t.p}")
    if t.q:
        parts.append("exp(-x)" if t.q == 1 else f"exp(-{t.q}*x)")
    return "*".join(parts)


def sum_text(terms) -> str:
    out = []
    for t in terms:
        if t.c == 0:
            continue
        body = term_text(t)
        if not out:
            out.append(body if t.c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if t.c > 0 else f"- {body}")
    return " ".join(out) if out else "0"


# ---------------------------------------------------------------------------
# dense polynomials over Q: coeffs[i] is the coefficient of x^i


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a, b):
    n = max(len(a), len(b))
    return trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def peval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign_variations(coeffs) -> int:
    count, prev = 0, 0
    for c in coeffs:
        if c:
            s = 1 if c > 0 else -1
            if prev and s != prev:
                count += 1
            prev = s
    return count


def _shift(c, t: int):
    """Coefficients of c(x + t), integer Horner scheme."""
    c = list(c)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += t * c[j + 1]
    return c


def descartes_bound(p, lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1+y)^d * p((lo + hi*y)/(1 + y)): an upper bound on
    the number of roots of p in (lo, hi) with the same parity."""
    d = len(p) - 1
    den = lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    m = lcm(lo.denominator, hi.denominator)
    A, W = int(lo * m), int((hi - lo) * m)
    # m^d * p(lo + (hi - lo)*y) = sum ints_i * m^(d-i) * (A + W*y)^i
    scaled = [c * m ** (d - i) for i, c in enumerate(ints)]
    shifted = _shift(scaled, A)
    on01 = [c * W**k for k, c in enumerate(shifted)]
    # roots in (0,1) <-> positive roots of (1+y)^d * q(1/(1+y))
    return _sign_variations(_shift(list(reversed(on01)), 1))


def positive_on(p, a: Fraction, b: Fraction, max_depth: int = 60) -> bool:
    """Exactly: p > 0 everywhere on the open interval (a, b)."""
    p = trim(p)
    if not p:
        return False
    pending = [(a, b, 0)]
    while pending:
        lo, hi, depth = pending.pop()
        v = descartes_bound(p, lo, hi)
        mid = (lo + hi) / 2
        if peval(p, mid) <= 0 or v == 1:
            return False
        if v == 0:
            continue
        if depth >= max_depth:
            raise OracleError(f"root isolation on ({a}, {b}) did not terminate")
        pending += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
    return True


# ---------------------------------------------------------------------------
# certificates


_FACTOR_SPLIT = re.compile(r"\*(?![^(]*\))")


def read_canonical(text: str) -> list[Term]:
    """Terms of a certificate's canonical input text "<sum> > 0"."""
    if not text.endswith(" > 0"):
        raise OracleError(f"not a canonical '> 0' input: {text!r}")
    body = text[: -len(" > 0")]
    pieces = re.split(r" ([+-]) ", body)
    signs = [1] + [1 if s == "+" else -1 for s in pieces[1::2]]
    bodies = pieces[0::2]
    if bodies[0].startswith("-"):
        signs[0], bodies[0] = -1, bodies[0][1:]
    terms = []
    for sign, piece in zip(signs, bodies):
        c, p, q = Fraction(sign), 0, Fraction(0)
        for f in _FACTOR_SPLIT.split(piece):
            if re.fullmatch(r"\d+(/\d+)?", f):
                c *= Fraction(f)
            elif m := re.fullmatch(r"x(?:\^(\d+))?", f):
                p += int(m[1] or 1)
            elif m := re.fullmatch(r"exp\(-(?:(\d+)\*)?x\)", f):
                q += int(m[1] or 1)
            else:
                raise OracleError(f"unreadable factor {f!r} in {text!r}")
        terms.append(Term(c, p, q))
    return terms


def bound_units(terms, a: Fraction, b: Fraction, mode: str):
    """(units, passthrough) in the paper's order: q-groups ascending; per
    term, powers ascending; grouped mode keeps a whole group when its
    coefficient polynomial has constant sign on (a, b)."""
    groups: dict[Fraction, dict[int, Fraction]] = {}
    for t in terms:
        g = groups.setdefault(t.q, {})
        g[t.p] = g.get(t.p, Fraction(0)) + t.c
    units, passthrough = [], []
    for q in sorted(groups):
        g = groups[q]
        poly = trim(g.get(i, Fraction(0)) for i in range(max(g) + 1))
        if q == 0:
            passthrough = poly
            continue
        if mode == "grouped":
            if positive_on(poly, a, b):
                units.append((q, poly, 1))
                continue
            if positive_on([-c for c in poly], a, b):
                units.append((q, poly, -1))
                continue
        for p, c in enumerate(poly):
            if c:
                units.append((q, [Fraction(0)] * p + [c], 1 if c > 0 else -1))
    return units, passthrough


def check_certificate(cert: dict, samples) -> list[str]:
    """Problems found in a positivity certificate; [] when it holds.

    Rebuilds P from the recorded orders, compares it with the recorded
    polynomial, decides P > 0 on the interval by Descartes' rule, and
    checks P <= f at the given interior sample points of the interval.
    """
    problems = []
    terms = read_canonical(cert["input"])
    a, b = (Fraction(v) for v in cert["interval"])
    units, P = bound_units(terms, a, b, cert["mode"])
    orders = cert["assignment"]
    if len(orders) != len(units):
        return [f"{len(orders)} orders for {len(units)} units"]
    for i, (entry, (q, poly, sign)) in enumerate(zip(orders, units)):
        theta, l = entry["theta"], entry["l"]
        if entry["term"] != i or theta % 2 != (1 if sign > 0 else 0) or (
            theta + 1
        ) // 2 != l:
            problems.append(f"order {entry} breaks the parity rule for unit {i}")
        P = padd(P, pmul(poly, taylor(theta, q)))
    recorded = trim(Fraction(c) for c in cert["poly"])
    if P != recorded:
        problems.append("recorded P differs from the P rebuilt from its orders")
    if not positive_on(recorded, a, b):
        problems.append(f"recorded P is not positive on ({a}, {b})")
    for x in samples:
        z = a + (b - a) * x
        f = sum_dec(terms, z)
        if dec(peval(recorded, z)) > f + TOL:
            problems.append(f"P exceeds f at x = {z}")
    return problems


# ---------------------------------------------------------------------------
# disproofs, families, grids


def check_witness(claim, a, b, x, lo, hi, allow_zero=False) -> list[str]:
    """claim(x) is the Decimal margin of the inequality, which the reduced
    form equals when no quotient or stretch is involved. allow_zero admits
    an exact root as the witness of a strict inequality."""
    if not a < x < b:
        return [f"witness {x} outside ({a}, {b})"]
    v = claim(x)
    problems = []
    if not (v <= TOL if allow_zero else v < -TOL):
        problems.append(f"f({x}) = {v:.6e} is not negative")
    if not dec(lo) - TOL <= v <= dec(hi) + TOL or hi > 0 or (hi == 0 and not allow_zero):
        problems.append(f"f({x}) = {v:.6e} is outside the reported [{lo}, {hi}]")
    return problems


def check_family(report: dict, f, a: Fraction, b: Fraction, end_a, end_b, tol) -> list[str]:
    """f is a Decimal function; end_a, end_b the endpoint limits computed
    independently; tol their error bound."""
    problems = []
    xs = [a + (b - a) * Fraction(i, 10) for i in range(1, 10)]
    vals = [end_a] + [f(x) for x in xs] + [end_b]
    steps = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
    if all(s < 0 for s in steps):
        monotone, A, B = "decreasing", end_b, end_a
    elif all(s > 0 for s in steps):
        monotone, A, B = "increasing", end_a, end_b
    else:
        raise OracleError("family is not monotone at the sample points")
    if report["monotone"] != monotone:
        problems.append(f"monotone is {report['monotone']}, sampled {monotone}")
    for name, want in (("A", A), ("B", B), ("p0", (A + B) / 2), ("d0", (B - A) / 2)):
        lo, hi = (dec(Fraction(s)) for s in report[name]["enclosure"])
        if not lo - tol <= want <= hi + tol:
            problems.append(f"{name} enclosure [{lo:.12e}, {hi:.12e}] misses {want:.15e}")
    return problems


def grid_axis(lo: Fraction, hi: Fraction, n: int) -> list[Fraction]:
    return [lo + (hi - lo) * Fraction(i, n - 1) for i in range(n)]


def grid_expected(margin, ties, xs, as_) -> dict:
    """Expected verdict per point of a non-strict inequality's grid:
    margin(x, a) is the Decimal amount by which it holds (negative where it
    fails), ties(x, a) says its sides are equal in closed form there."""
    out = {}
    for x in xs:
        for a in as_:
            if ties(x, a):
                out[(x, a)] = "holds"
                continue
            v = margin(x, a)
            if abs(v) <= TOL:
                raise OracleError(f"grid point ({x}, {a}) is within {TOL} of a tie")
            out[(x, a)] = "holds" if v > 0 else "fails"
    return out


def check_grid(report: dict, expected: dict) -> list[str]:
    seen = {}
    for key, verdict in (("holds_at", "holds"), ("fails_at", "fails"), ("undecided_at", "undecided")):
        for xs, as_ in report[key]:
            pt = (Fraction(xs), Fraction(as_))
            if pt in seen:
                return [f"point {pt} classified twice"]
            seen[pt] = verdict
    if set(seen) != set(expected):
        return [f"grid covers {len(seen)} points, expected {len(expected)}"]
    wrong = [(pt, seen[pt]) for pt in expected if seen[pt] != expected[pt]]
    return [f"{len(wrong)} wrong verdicts, first {wrong[0]}"] if wrong else []
