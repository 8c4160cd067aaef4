"""Seeded command lists for the three workloads.

Every input is true or false by construction, independently of the
program: positives rest on the bracket T_(2m-1)(t) < exp(-t) < T_(2m)(t)
for t > 0 (the paper's parity rule), falsities on the same bracket read
the wrong way round, and grid verdicts on a decimal evaluation. Each
Command carries the exit code the truth calls for and a check of the
program's output built from oracle.py, which shares no code with expocert.

A workload is one round of commands that the runner repeats; the seed
changes the inputs, never the shape of the round (how many commands of
each kind, at which difficulty), so runs on different seeds measure the
same mixture.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Optional

import oracle
from oracle import Term, sum_dec, sum_text, taylor

G_TEXT = "2 - 6*exp(-x) - x^3*exp(-x) + 6*exp(-2*x) - x^3*exp(-2*x) - 2*exp(-3*x) > 0"
G_TERMS = [Term(F(c), p, F(q)) for c, p, q in
           [(2, 0, 0), (-6, 0, 1), (-1, 3, 1), (6, 0, 2), (-1, 3, 2), (-2, 0, 3)]]
GRID_LE = "sign(a)*exp(a*x) <= sign(a)*(a*x*(1 - x) + x^2*(exp(a) - 1) + 1)"
GRID_GE = "sign(a)*exp(a*x) >= sign(a)*(a*x*(1 - x) + x^2*(exp(a) - 1) + 1)"
WIDE_MAX_L = "40"

# relative positions in (0, 1) at which P <= f is checked
SAMPLES_PER_CHECK = 5


@dataclass
class Command:
    argv: list
    kind: str  # prove, verify, disprove, family, grid
    expect: int  # exit code the truth calls for
    check: Callable  # (stdout, cert text or None) -> list of problems
    cert: Optional[Path] = None
    known_fault: str = ""  # why the program is expected to miss `expect`
    points: int = 1  # verdicts in one successful run (grid points for grid)


def _claim(lhs, rhs, cmp=">"):
    """Decimal function of the inequality's margin (positive where it holds)."""
    if cmp == ">":
        return lambda x: sum_dec(lhs, x) - sum_dec(rhs, x)
    return lambda x: sum_dec(rhs, x) - sum_dec(lhs, x)


def _proof_check(rng, claim, interval, stretch=1):
    a, b = interval
    samples = [F(rng.randint(1, 999), 1000) for _ in range(SAMPLES_PER_CHECK)]

    def check(out, cert_text):
        if not out.startswith("proved:"):
            return [f"unexpected output {out[:80]!r}"]
        cert = json.loads(cert_text)
        problems = oracle.check_certificate(cert, samples)
        za, zb = (F(v) for v in cert["interval"])
        if (za * stretch, zb * stretch) != (a, b):
            problems.append(f"certified interval ({za}, {zb}) is not ({a}, {b}) / {stretch}")
        terms = oracle.read_canonical(cert["input"])
        for s in samples:
            z = za + (zb - za) * s
            if not (sum_dec(terms, z) > 0 and claim(z * stretch) > oracle.TOL):
                problems.append(f"reduced form and claim disagree in sign at x = {z * stretch}")
        return problems

    return check


def _verify_check(out, _cert):
    return [] if out == "verified: ok\n" else [f"verify said {out.strip()!r}"]


def _witness_check(claim, interval, allow_zero=False):
    a, b = interval

    def check(out, _cert):
        data = json.loads(out)
        if data.get("result") != "disproven":
            return [f"result {data.get('result')!r}"]
        w = data["witness"]
        lo, hi = (F(v) for v in w["reduced_value"])
        return oracle.check_witness(claim, a, b, F(w["x"]), lo, hi, allow_zero)

    return check


def _on(a, b):
    return f"{a},{b}"


class _Round:
    def __init__(self, workdir: Path):
        self.commands: list[Command] = []
        self.workdir = workdir

    def prove(self, rng, text, interval, claim, *, flags=(), stretch=1, known_fault=""):
        """A prove that must succeed with a certificate, then its verify;
        a known fault gets no verify, which would fail for want of a file."""
        cert = self.workdir / f"cert{len(self.commands)}.json"
        self.commands.append(Command(
            ["prove", text, "--on", _on(*interval), *flags, "--cert", str(cert)],
            "prove", 0, _proof_check(rng, claim, interval, stretch), cert,
            known_fault,
        ))
        if not known_fault:
            self.commands.append(Command(["verify", str(cert)], "verify", 0, _verify_check))

    def disprove(self, text, interval, claim, *, known_fault="", allow_zero=False):
        self.commands.append(Command(
            ["prove", text, "--on", _on(*interval), "--json"], "disprove", 1,
            _witness_check(claim, interval, allow_zero), None, known_fault,
        ))


# ---------------------------------------------------------------------------
# unit: the paper's scale, intervals inside (0, 2]


def _bracketed_positive(units, c0, scale):
    """scale * (c0 + sum c_j x^p s_j (exp(-q x) - T_n(q x))) > 0, s_j = +1 for
    odd n and -1 for even n, so every bracketed term is positive for x > 0.

    The order n itself cancels a bracket exactly, so the prover must climb
    until each tail T_theta - T_n stays positive up to q*b; q, n, p and b
    set that depth and deg P. The unit coefficients c_j are fixed by their
    place in the slot; the seed's scale multiplies the whole inequality."""
    lhs, rhs = [Term(scale * c0, 0, F(0))], []
    for j, (q, n, p) in enumerate(units):
        q = F(q)
        c = scale * UNIT_COEFFS[j % len(UNIT_COEFFS)] * (1 if n % 2 else -1)
        lhs.append(Term(c, p, q))
        rhs += [Term(c * t, p + k, F(0)) for k, t in enumerate(taylor(n, q))]
    return lhs, rhs


# (units as (q, n, p), c0, interval, flags); q*b runs up to 10, deg P to
# about 25. c0 > 0 only where the units need different depths: at one depth
# for all, the orders n cancel every bracket and c0 alone proves P > 0.
POSITIVE_SLOTS = [
    ([(1, 1, 0)], F(0), (F(0), F(2)), ()),
    ([(2, 2, 1)], F(0), (F(1, 8), F(2)), ()),
    ([(3, 1, 2), (1, 3, 0)], F(1, 100), (F(1, 4), F(2)), ()),
    ([(2, 3, 0), (2, 1, 1)], F(0), (F(0), F(3, 2)), ("--grouped",)),
    ([(4, 1, 1)], F(0), (F(1, 8), F(2)), ("--minimize",)),
    ([(5, 2, 0)], F(0), (F(1, 4), F(2)), ()),
    ([(1, 4, 1), (3, 1, 0)], F(1, 100), (F(0), F(3, 2)), ()),
    ([(5, 1, 0), (2, 2, 1), (1, 3, 2)], F(0), (F(1, 8), F(2)), ()),
    ([(3, 2, 1), (3, 4, 2)], F(0), (F(1, 4), F(2)), ("--grouped",)),
    ([(2, 1, 2), (2, 4, 0)], F(1, 10), (F(0), F(2)), ("--minimize",)),
    ([(4, 4, 2)], F(0), (F(1, 8), F(2)), ()),
    ([(1, 2, 0), (4, 3, 1)], F(0), (F(1, 4), F(3, 2)), ()),
    ([(3, 3, 1)], F(0), (F(0), F(1)), ()),
    ([(5, 3, 0), (5, 1, 2)], F(0), (F(1, 8), F(2)), ("--grouped",)),
]


# the seed's factor on a whole inequality: it changes every coefficient of
# the input and of P, but neither deg P nor the depth of the search, so
# each slot costs about the same on every seed
SCALES = [F(1, 2), F(1), F(3, 2), F(2), F(3)]
UNIT_COEFFS = [F(1), F(2), F(1, 2)]

# the paper's g on (a, a + 1/2), with its flags
G_SLOTS = [(F(0), ()), (F(1, 8), ("--grouped",)), (F(1, 4), ("--minimize",)),
           (F(1, 2), ())]

# c/(1 + d exp(-q x)) > share * c/(1 + d): (q, d, share, interval); the seed
# picks the integer c, a scale
QUOTIENT_SLOTS = [(1, F(1, 2), F(1, 2), (F(0), F(2))), (2, F(2), F(2, 3), (F(1, 4), F(1))),
                  (1, F(1), F(9, 10), (F(0), F(1)))]

# exp(-q x) cmp T_n(q x) on (0, t/q) with q = p/r: expocert stretches x = r z
# back to exp(-p z) cmp T_n(p z) on (0, t/p), the same reduced problem for
# every r. (cmp, n, t, p, choices of r coprime to p with t/q <= 2)
RATE_SLOTS = [(">", 1, F(2), 5, (2, 3, 4)), (">", 3, F(3), 7, (2, 3, 4)),
              ("<", 2, F(1), 3, (2, 4, 5))]

# (q, m, p, cmp, interval): exp(-t) < T_2m(t) and exp(-t) > T_(2m-1)(t), so
# stating either the other way round is false at every x > 0. A disproof
# searches every depth up to max_l, so the slot fixes its whole cost.
DISPROOF_SLOTS = [(1, 1, 0, ">", (F(0), F(1))), (2, 2, 1, ">", (F(1, 4), F(3, 2))),
                  (3, 1, 0, ">", (F(0), F(2))), (1, 3, 1, ">", (F(1, 4), F(1))),
                  (1, 1, 1, "<", (F(0), F(3, 2))), (2, 2, 0, "<", (F(1, 4), F(2))),
                  (3, 1, 1, "<", (F(0), F(1))), (2, 3, 0, "<", (F(1, 4), F(3, 2)))]


def unit_round(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(f"unit/{seed}")
    r = _Round(workdir)
    for units, c0, iv, flags in POSITIVE_SLOTS:
        lhs, rhs = _bracketed_positive(units, c0, rng.choice(SCALES))
        r.prove(rng, f"{sum_text(lhs)} > {sum_text(rhs)}", iv, _claim(lhs, rhs), flags=flags)
    for a, flags in G_SLOTS:
        scale = rng.choice(SCALES)
        g = [Term(scale * t.c, t.p, t.q) for t in G_TERMS]
        r.prove(rng, f"{sum_text(g)} > 0", (a, a + F(1, 2)), _claim(g, []), flags=flags)
    for q, d, share, iv in QUOTIENT_SLOTS:
        # c/(1 + d exp(-q x)) rises from c/(1+d) at x = 0, so any r below that
        # is a strict lower bound on x >= 0
        c = F(rng.choice([1, 2, 3, 4]))
        low = c / (1 + d) * share

        def quotient(x, c=c, d=d, q=q, low=low):
            with localcontext() as ctx:
                ctx.prec = oracle.PREC
                return oracle.dec(c) / (1 + oracle.dec(d) * (-q * oracle.dec(x)).exp()) \
                    - oracle.dec(low)

        den = sum_text([Term(F(1), 0, F(0)), Term(d, 0, F(q))])
        r.prove(rng, f"{c}/({den}) > {low}", iv, quotient)
    for cmp, n, t, p, denominators in RATE_SLOTS:
        q = F(p, rng.choice(denominators))
        lhs = [Term(F(1), 0, q)]
        rhs = [Term(coef, k, F(0)) for k, coef in enumerate(taylor(n, q))]
        r.prove(rng, f"{sum_text(lhs)} {cmp} {sum_text(rhs)}", (F(0), t / q),
                _claim(lhs, rhs, cmp), stretch=q.denominator)
    for fam in FAMILIES:
        r.commands.append(fam)
    for q, m, p, cmp, iv in DISPROOF_SLOTS:
        c = rng.choice(SCALES)
        n = 2 * m if cmp == ">" else 2 * m - 1
        lhs = [Term(c, p, F(q))]
        rhs = [Term(c * t, p + k, F(0)) for k, t in enumerate(taylor(n, F(q)))]
        r.disprove(f"{sum_text(lhs)} {cmp} {sum_text(rhs)}", iv, _claim(lhs, rhs, cmp))
    square = [Term(F(1), 2, F(0)), Term(F(-1), 1, F(0)), Term(F(1, 4), 0, F(0))]
    r.disprove("x^2 - x + 1/4 > 0", (F(0), F(1)), _claim(square, []), allow_zero=True,
               known_fault="exact root 1/2 of a pure polynomial is left undecided "
                           "'up to l = 0' instead of disproven")
    return r.commands


# ---------------------------------------------------------------------------
# family reports


def _paper_family(x: F) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = oracle.PREC
        y = (-oracle.dec(x)).exp()
        return 1 / oracle.dec(x) ** 2 - y / (1 - y) ** 2


def _exp_family(x: F) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = oracle.PREC
        return (-oracle.dec(x)).exp()


# the paper's f tends to 1/12 at 0; f(1e-12) is within 1e-25 of the limit
FAMILY_TOL = Decimal(10) ** -20


def _family(text, b, end_a, end_b, f, lim_a):
    interval = (F(0), F(b))
    samples = [F(i, 7) for i in range(1, 7)]

    def check(out, _cert):
        report = json.loads(out)
        problems = oracle.check_family(report, f, *interval, lim_a, f(F(b)), FAMILY_TOL)
        problems += oracle.check_certificate(report["derivative_certificate"], samples)
        return problems

    return Command(["family", text, "--on", _on(*interval), "--endpoint-a", end_a,
                    "--endpoint-b", end_b, "--json"], "family", 0, check)


PAPER_FAMILY = "1/x^2 - exp(-x)/(1 - exp(-x))^2"
FAMILIES = [
    _family(PAPER_FAMILY, 1, "1/12", "(e^2 - 3*e + 1)/(e - 1)^2",
            _paper_family, _paper_family(F(1, 10**12))),
    _family(PAPER_FAMILY, 2, "1/12", "1/4 - e^2/(e^2 - 1)^2",
            _paper_family, _paper_family(F(1, 10**12))),
    _family("exp(-x)", 1, "1", "1/e", _exp_family, Decimal(1)),
]


# ---------------------------------------------------------------------------
# wide: rate times length from 10 to 30


def wide_round(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(f"wide/{seed}")
    r = _Round(workdir)
    for i, t in enumerate(range(10, 31, 4)):
        # c*exp(-q x) > c*T_n(q x) on (0, t/q) for odd n; the last slot is
        # exp(-x) > 1 - x on (0,30), deg P = 75, in the seed's q and c. The
        # stretch x = v*z of q = 1/v and the factor c leave the reduced
        # problem, exp(-z) > T_n(z) on (0, t), the same, so the seed changes
        # the input but not its cost; t = q*b alone sets deg P.
        q = 1 / F(rng.choice([1, 2, 3, 4]))
        c = rng.choice([F(1), F(2), F(1, 3), F(5, 2)])
        n = 3 if i % 2 == 0 else 1
        lhs = [Term(c, 0, q)]
        rhs = [Term(c * k_coef, k, F(0)) for k, k_coef in enumerate(taylor(n, q))]
        iv = (F(0), t / q)
        r.prove(rng, f"{sum_text(lhs)} > {sum_text(rhs)}", iv, _claim(lhs, rhs),
                flags=("--max-l", WIDE_MAX_L), stretch=q.denominator)
    for text, q, b, fault in [
        ("exp(-x) > 0", 1, 200, "exp(-t) is enclosed without range reduction, so large t "
                                "hits the order cap"),
        ("exp(-20*x) > 0", 20, 1, "the only unit is positive, yet the search gives up at "
                                  "the default max_l"),
    ]:
        r.prove(rng, text, (F(0), F(b)), _claim([Term(F(1), 0, F(q))], []), known_fault=fault)
    return r.commands


# ---------------------------------------------------------------------------
# grid: two-variable classification, no polynomial algebra


def _grid_margin_le(x: F, a: F) -> Decimal:
    """rhs - lhs of GRID_LE at (x, a)."""
    with localcontext() as ctx:
        ctx.prec = oracle.PREC
        xd, ad = oracle.dec(x), oracle.dec(a)
        s = (a > 0) - (a < 0)
        return s * (ad * xd * (1 - xd) + xd * xd * (ad.exp() - 1) + 1 - (ad * xd).exp())


def _grid_ties(x: F, a: F) -> bool:
    # a = 0 makes both sides 0; x = 0 and x = 1 make them equal in closed form
    return a == 0 or x == 0 or x == 1


def _grid(text, xr, ar, steps):
    margin = _grid_margin_le if text == GRID_LE else (lambda x, a: -_grid_margin_le(x, a))
    xs, as_ = oracle.grid_axis(*xr, steps), oracle.grid_axis(*ar, steps)
    expected = oracle.grid_expected(margin, _grid_ties, xs, as_)

    def check(out, _cert):
        return oracle.check_grid(json.loads(out), expected)

    return Command(["grid", text, "--x", _on(*xr), "--a", _on(*ar), "--steps", str(steps),
                    "--json"], "grid", 0 if "fails" not in expected.values() else 1,
                   check, points=steps * steps)


def _placed(rng, lo: F, hi: F, width: F, start: F, steps: int):
    """A range of the given width from start, moved by the seed one grid
    step either way where it stays inside [lo, hi]. The moved grid keeps
    the lattice of points, so it shares all but one row of them."""
    step = width / (steps - 1)
    starts = [s for s in (start - step, start, start + step) if lo <= s <= hi - width]
    start = rng.choice(starts)
    return start, start + width


def grid_round(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(f"grid/{seed}")
    cmds = [
        _grid(GRID_LE, (F(0), F(1)), (F(-5), F(5)), 41),
        # the CLI takes one step count for both axes, so the 21x11 reversed
        # grid runs as 21x21, a superset of its points
        _grid(GRID_GE, (F(11, 10), F(3)), (F(-5), F(5)), 21),
    ]
    # the inequality holds for '<=' exactly when x <= 1 (and for '>=' when
    # x >= 1), so ranges on either side of x = 1 give holds and fails. The
    # cost of a point grows with |a| and x, so each slot fixes the step
    # count and where its ranges lie; the seed moves them by one grid step.
    # Moves that left the lattice (1/8 in x, 1/2 in a) changed the points'
    # denominators, and the round's median command by up to 1.6 times from
    # seed to seed.
    sides = [(GRID_LE, F(0), F(1)), (GRID_LE, F(1), F(3)),
             (GRID_GE, F(1), F(3)), (GRID_GE, F(0), F(1))]
    # twelve 6x6 grids around the middle of the step counts keep the
    # round's median command inside one size class
    steps = [4] * 6 + [5] * 6 + [6] * 12 + [7] * 6 + [8] * 6
    for i in range(36):
        text, lo, hi = sides[i % 4]
        x_width, a_width = F(2 + i % 3, 8), F(2 + i % 5)
        x_start = lo + (hi - lo - x_width) * F(i % 7, 6)
        xr = _placed(rng, lo, hi, x_width, x_start - x_start % F(1, 8), steps[i])
        ar = _placed(rng, F(-5), F(5), a_width, -a_width / 2, steps[i])
        cmds.append(_grid(text, xr, ar, steps[i]))
    return cmds


BUILDERS = {"unit": unit_round, "wide": wide_round, "grid": grid_round}

# first command of a fresh interpreter, and the untimed warm-up
WARMUP = {
    "unit": ["prove", "exp(-x) > 1 - x", "--on", "0,1"],
    "wide": ["prove", "exp(-x) > 1 - x", "--on", "0,10", "--max-l", WIDE_MAX_L],
    "grid": ["grid", GRID_LE, "--x", "0,1", "--a", "-1,1", "--steps", "3"],
}
