"""Differential gate: random claims through the CLI, judged by an outside oracle.

Claims are drawn in the shapes that perfbench/workloads.py builds, and
every verdict is checked by perfbench/oracle.py, which evaluates inputs in
`decimal`, rebuilds certificates with its own Maclaurin coefficients and
decides positivity by Descartes' rule of signs; it shares no code with
expocert. The shapes are:

- sums of signed units c * x^p * exp(-q*x) with rational rates q, whose
  truth is not known in advance: a proof must pass the oracle's
  certificate check, a disproof its witness check, and an undecided
  verdict is counted;
- Taylor sandwiches scale * (c0 + sum c x^p s (exp(-q x) - T_n(q x))), each
  bracket positive for x > 0 by the parity of n, which must be proved;
- the benchmark's disproof shapes, c x^p exp(-q x) compared the wrong way
  round with its own Maclaurin bracket, which must be disproven;
- quadratics like the benchmark's x^2 - x + 1/4 > 0, with roots placed
  where the prover's sample points cannot see them, so that only its
  exact positivity test tells a true claim from a false one: a true one
  must be proved, a false one must not be. These are not drawn: every
  root pair and margin is run. A false one is disproven wherever it is
  negative somewhere, so at most the two whose only failure is a double
  rational root (value zero, never negative) may stay undecided.

Each claim is run plain, with --grouped or with --minimize. Every
certificate must verify, and must stop verifying once one coefficient of
P, one order or the witness is changed.
"""

import contextlib
import importlib.util
import io
import json
import sys
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest

from expocert import cli

ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()
Term = oracle.Term

# interior points, as fractions of the interval, where P <= f and the
# claim's sign are checked
SAMPLES = [F(1, 7), F(1, 3), F(1, 2), F(5, 7), F(19, 20)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _margin(lhs, rhs, cmp):
    """Decimal margin of `lhs cmp rhs`: positive where the claim holds."""
    if cmp == ">":
        return lambda x: oracle.sum_dec(lhs, x) - oracle.sum_dec(rhs, x)
    return lambda x: oracle.sum_dec(rhs, x) - oracle.sum_dec(lhs, x)


def _proof_problems(cert, claim, a, b, stretch):
    """The oracle's certificate check, plus the link from the certified
    reduced form on (a, b) / stretch back to the typed claim."""
    problems = oracle.check_certificate(cert, SAMPLES)
    za, zb = (F(v) for v in cert["interval"])
    if (za * stretch, zb * stretch) != (a, b):
        problems.append(f"certified ({za}, {zb}) is not ({a}, {b}) / {stretch}")
    reduced = oracle.read_canonical(cert["input"])
    for s in SAMPLES:
        z = za + (zb - za) * s
        if not (oracle.sum_dec(reduced, z) > 0 and claim(z * stretch) > oracle.TOL):
            problems.append(f"reduced form and claim disagree at x = {z * stretch}")
    return problems


def _tamperings(cert, i):
    """Three copies of a certificate, each with one thing changed: a
    coefficient of P, one unit's order (by two, so its parity still
    holds), and the witness value."""
    coeff = json.loads(json.dumps(cert))
    k = i % len(coeff["poly"])
    coeff["poly"][k] = str(F(coeff["poly"][k]) + F(1, 3))
    order = json.loads(json.dumps(cert))
    if order["assignment"]:
        e = order["assignment"][i % len(order["assignment"])]
        e["l"], e["theta"] = e["l"] + 1, e["theta"] + 2
    else:  # a pure polynomial has no order to change
        order = None
    witness = json.loads(json.dumps(cert))
    witness["witness"]["value"] = str(F(witness["witness"]["value"]) * 2)
    return [t for t in (coeff, order, witness) if t is not None]


def _signed_units(draw, st):
    """c0 + sum c x^p exp(-q x) > 0 with rates q = n/r: any verdict."""
    r = draw(st.sampled_from([1, 2, 3]))
    rates = st.integers(1, 6).map(lambda n: F(n, r))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    units = draw(st.lists(st.tuples(coeff, st.integers(0, 2), rates), min_size=1,
                          max_size=3, unique_by=lambda u: u[1:]))  # none cancel
    c0 = draw(st.fractions(min_value=-1, max_value=3, max_denominator=4))
    lhs = [Term(c0, 0, F(0))] + [Term(c, p, q) for c, p, q in units]
    a = draw(st.sampled_from([F(0), F(1, 4), F(1, 2)]))
    b = a + draw(st.sampled_from([F(1, 2), F(1), F(3, 2)]))
    stretch = lcm(*[t.q.denominator for t in lhs])
    return "any", lhs, [], ">", (a, b), stretch


def _sandwich(draw, st):
    """scale * (c0 + sum c x^p s (exp(-q x) - T_n(q x))) > 0: must be proved."""
    scale = draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)]))
    brackets = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2))
    units = draw(st.lists(brackets, min_size=1, max_size=3))
    c0 = draw(st.sampled_from([F(0), F(1, 100), F(1, 10)]))
    a = draw(st.sampled_from([F(0), F(1, 8), F(1, 4)]))
    b = draw(st.sampled_from([F(1), F(3, 2), F(2)]))
    lhs, rhs = [Term(scale * c0, 0, F(0))], []
    for j, (q, n, p) in enumerate(units):
        c = scale * [F(1), F(2), F(1, 2)][j % 3] * (1 if n % 2 else -1)
        lhs.append(Term(c, p, F(q)))
        rhs += [Term(c * t, p + k, F(0)) for k, t in enumerate(oracle.taylor(n, F(q)))]
    return "prove", lhs, rhs, ">", (a, b), 1


def _wrong_bracket(draw, st):
    """c x^p exp(-q x) > c x^p T_2m(q x), or < T_(2m-1): false for x > 0."""
    q, m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 1))
    cmp = draw(st.sampled_from([">", "<"]))
    c = draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)]))
    a = draw(st.sampled_from([F(0), F(1, 4)]))
    b = a + draw(st.sampled_from([F(1), F(5, 4), F(7, 4)]))
    n = 2 * m if cmp == ">" else 2 * m - 1
    lhs = [Term(c, p, F(q))]
    rhs = [Term(c * t, p + k, F(0)) for k, t in enumerate(oracle.taylor(n, F(q)))]
    return "disprove", lhs, rhs, cmp, (a, b), 1


# root pairs (r, t) of the quadratics below: double roots, at a midpoint
# of the bisection or not; pairs 10^-3 apart; and pairs at an endpoint of
# (0, 1), where P may be negative only next to a root at a or b
ROOT_PAIRS = [(F(1, 2), F(1, 2)), (F(3, 8), F(3, 8)), (F(2, 7), F(2, 7)),
              (F(2, 7), F(2, 7) + F(1, 1000)), (F(4, 9), F(4, 9) - F(1, 1000)),
              (F(0), F(1, 1000)), (F(0), F(-1, 1000)),
              (F(1), F(999, 1000)), (F(1), F(1001, 1000))]


def _quadratic_positive(r, t, s):
    """Exactly: (x - r)(x - t) > s on all of (0, 1)."""
    q = lambda x: (x - r) * (x - t) - s  # noqa: E731
    v = (r + t) / 2
    if 0 < v < 1:
        return q(v) > 0
    return min(q(F(0)), q(F(1))) >= 0  # monotone on (0, 1)


def _narrow_quadratics():
    """c (x - r)(x - t) > c s on (0, 1) for every root pair and margin,
    like the benchmark's x^2 - x + 1/4 > 0: where one fails, it fails
    between the prover's sample points k/17, or next to a root at an
    endpoint. The scale c and the flags cycle."""
    scales, flags = [F(1, 2), F(1), F(3), F(7, 4)], [[], ["--grouped"], ["--minimize"]]
    margins = [F(0), F(1, 10**9), F(-1, 10**9)]
    for i, ((r, t), s) in enumerate((pair, s) for pair in ROOT_PAIRS for s in margins):
        c = scales[i % len(scales)]
        lhs = [Term(c, 2, F(0)), Term(-c * (r + t), 1, F(0)), Term(c * r * t, 0, F(0))]
        want = "prove" if _quadratic_positive(r, t, s) else "refute"
        rhs = [Term(c * s, 0, F(0))]
        yield want, lhs, rhs, ">", (F(0), F(1)), 1, flags[i % len(flags)]


def _judge(tmp_path, tally, want, lhs, rhs, cmp, interval, stretch, flags):
    """Run one claim through the CLI and check its verdict with the oracle."""
    a, b = interval
    claim = _margin(lhs, rhs, cmp)
    text = f"{oracle.sum_text(lhs)} {cmp} {oracle.sum_text(rhs)}"
    cert_path = tmp_path / "cert.json"
    cert_path.unlink(missing_ok=True)
    code, out, err = _run(
        ["prove", text, "--on", f"{a},{b}", *flags, "--json", "--cert", cert_path]
    )
    assert code in (0, 1, 2), (text, out, err)
    if code == 2:
        assert want in ("any", "refute"), (text, err)
        tally["undecided"] += 1
        return
    if code == 1:
        assert want != "prove", (text, out)
        w = json.loads(out)["witness"]
        lo, hi = (F(v) for v in w["reduced_value"])
        zero = want == "refute"  # a quadratic's rational root is a witness
        assert oracle.check_witness(claim, a, b, F(w["x"]), lo, hi, zero) == [], text
        tally["disproven"] += 1
        return
    assert want in ("any", "prove"), (text, out)
    cert = json.loads(cert_path.read_text())
    assert json.loads(out) == cert
    assert _proof_problems(cert, claim, a, b, stretch) == [], text
    assert _run(["verify", cert_path])[:2] == (0, "verified: ok\n"), text
    tally["proved"] += 1
    for i, bad in enumerate(_tamperings(cert, tally["proved"])):
        path = tmp_path / f"tampered{i}.json"
        path.write_text(json.dumps(bad))
        code, out, _ = _run(["verify", path])
        assert (code, out.startswith("mismatch: ")) == (1, True), (text, bad)
        tally["tampered"] += 1


def test_verdicts_agree_with_the_oracle(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    shapes = [_signed_units, _sandwich, _wrong_bracket]
    tally = {"proved": 0, "disproven": 0, "undecided": 0, "tampered": 0}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        shape = data.draw(st.sampled_from(shapes))
        flags = data.draw(st.sampled_from([[], ["--grouped"], ["--minimize"]]))
        _judge(tmp_path, tally, *shape(data.draw, st), flags)

    check()
    for case in _narrow_quadratics():
        _judge(tmp_path, tally, *case)
    print(f"differential gate: {tally}")
    assert tally["proved"] >= 25 and tally["disproven"] >= 20, tally
    assert tally["undecided"] <= 2, tally
