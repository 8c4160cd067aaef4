"""Prover: bounding units, assignments, certificates, falsification."""

import json
import random
from fractions import Fraction as F

import pytest

from expocert import cli
from expocert.arith import ConstExpr
from expocert.errors import (
    DegenerateInputError,
    DenominatorSignUnknownError,
    MalformedCertificateError,
    MonotonicityUnprovenError,
    PreconditionError,
    SearchExhaustedError,
)
from expocert.mep import ExpRational, Mep, eval_enclosure
from expocert import poly, prover
from expocert.poly import (
    Polynomial,
    SturmChain,
    count_roots_open,
    is_positive_on,
    sample_refutes,
)
from expocert.prover import (
    GROUPED,
    PER_TERM,
    AssignmentEntry,
    Certificate,
    assignment_for_orders,
    bounding_units,
    falsify,
    lower_bound_poly,
    minimize_assignment,
    prove_positive,
    prove_sign,
    upper_bound_poly,
    uniform_assignment,
    verify_certificate,
    verify_certificate_report,
)
from expocert.stratify import AffineFamily, analyze_affine_family
from expocert.taylor import maclaurin, select_order

G_TERMS = [(2, 0, 0), (-6, 0, 1), (-1, 3, 1), (6, 0, 2), (-1, 3, 2), (-2, 0, 3)]
UNIT = (F(0), F(1))


def test_bounding_units_per_term():
    g = Mep(G_TERMS)
    units, passthrough = bounding_units(g, UNIT)
    assert passthrough == Polynomial.constant(2)
    got = [(u.index, u.q, u.sign, u.poly) for u in units]
    assert got == [
        (0, 1, -1, Polynomial.monomial(F(-6), 0)),
        (1, 1, -1, Polynomial.monomial(F(-1), 3)),
        (2, 2, 1, Polynomial.monomial(F(6), 0)),
        (3, 2, -1, Polynomial.monomial(F(-1), 3)),
        (4, 3, -1, Polynomial.monomial(F(-2), 0)),
    ]


def test_bounding_units_grouped():
    g = Mep(G_TERMS)
    units, passthrough = bounding_units(g, UNIT, mode=GROUPED)
    assert passthrough == Polynomial.constant(2)
    # -6 - x^3 and 6 - x^3 are sign-definite on (0,1), the constant -2 too
    assert [(u.q, u.sign) for u in units] == [(1, -1), (2, 1), (3, -1)]
    assert units[0].poly == Polynomial([F(-6), F(0), F(0), F(-1)])
    assert units[1].poly == Polynomial([F(6), F(0), F(0), F(-1)])
    # grouped falls back to per-term when a group changes sign
    mixed = Mep([(1, 0, 1), (-1, 1, 1)])  # (1 - x) e^-x on (0, 2)
    units, _ = bounding_units(mixed, (F(0), F(2)), mode=GROUPED)
    assert [(u.q, u.sign) for u in units] == [(1, 1), (1, -1)]


def test_bounding_units_preconditions():
    with pytest.raises(PreconditionError):
        bounding_units(Mep(G_TERMS), (F(-1), F(1)))
    with pytest.raises(PreconditionError):
        bounding_units(Mep(G_TERMS), (F(1), F(1)))
    with pytest.raises(PreconditionError):
        bounding_units(Mep(G_TERMS), UNIT, mode="both")


def test_lower_bound_poly_simplest():
    y = Mep([(1, 0, 1)])
    units, _ = bounding_units(y, UNIT)
    asg = uniform_assignment(units, 1)
    assert asg == (AssignmentEntry(0, 1, 1),)
    assert lower_bound_poly(y, UNIT, asg) == Polynomial([F(1), F(-1)])


def test_upper_bound_poly_mirror():
    # upper bounds are lower bounds of the negation, so the parity of a
    # positive term flips to even; assignments are built against -f
    y = Mep([(1, 0, 1)])
    neg_units, _ = bounding_units(-y, UNIT)
    assert neg_units[0].sign == -1
    asg = assignment_for_orders(neg_units, [2])
    up = upper_bound_poly(y, UNIT, asg)
    assert up == Polynomial([F(1), F(-1), F(1, 2)])
    with pytest.raises(PreconditionError):
        assignment_for_orders(neg_units, [3])


def test_assignment_for_orders_parity():
    g = Mep(G_TERMS)
    units, _ = bounding_units(g, UNIT)
    asg = assignment_for_orders(units, [12, 12, 9, 12, 12])
    assert [e.theta for e in asg] == [12, 12, 9, 12, 12]
    assert [e.l for e in asg] == [6, 6, 5, 6, 6]
    with pytest.raises(PreconditionError):
        assignment_for_orders(units, [11, 12, 9, 12, 12])  # unit 0 is negative
    with pytest.raises(PreconditionError):
        assignment_for_orders(units, [12, 12])


def test_bounds_sandwich_pointwise():
    rng = random.Random(60221023)
    g = Mep(G_TERMS)
    units, _ = bounding_units(g, UNIT)
    lower = lower_bound_poly(g, UNIT, uniform_assignment(units, 4))
    neg_units, _ = bounding_units(-g, UNIT)
    upper = upper_bound_poly(g, UNIT, uniform_assignment(neg_units, 4))
    for _ in range(200):
        x = F(rng.randint(1, 9999), 10000)
        box = eval_enclosure(g, x, F(1, 10**30))
        assert lower.eval(x) < box.lo
        assert box.hi < upper.eval(x)


def test_bounds_hold_beyond_the_interval():
    # per-term Maclaurin brackets are valid for every x > 0, not just on
    # the interval used to build them
    g = Mep(G_TERMS)
    units, _ = bounding_units(g, UNIT)
    lower = lower_bound_poly(g, UNIT, uniform_assignment(units, 6))
    for x in (F(1, 2), F(1), F(2), F(7, 2), F(9, 2)):
        box = eval_enclosure(g, x, F(1, 10**30))
        assert lower.eval(x) < box.lo


def test_prove_g_both_modes():
    g = Mep(G_TERMS)
    for mode in (PER_TERM, GROUPED):
        cert = prove_positive(g, UNIT, mode=mode)
        assert cert.mode == mode
        assert verify_certificate(cert)
        assert cert.witness_value > 0
        assert cert.v_a - cert.v_b - cert.endpoint_adjust == 0


def test_prove_is_deterministic():
    g = Mep(G_TERMS)
    c1 = prove_positive(g, UNIT)
    c2 = prove_positive(g, UNIT)
    assert c1 == c2
    assert json.dumps(c1.to_json_dict()) == json.dumps(c2.to_json_dict())


def test_prove_failure_paths():
    with pytest.raises(DegenerateInputError):
        prove_positive(Mep(), UNIT)
    with pytest.raises(PreconditionError):
        prove_positive(Mep(G_TERMS), UNIT, max_l=0)
    # exponential-free and negative: exhaustion reports the polynomial part
    with pytest.raises(SearchExhaustedError) as ei:
        prove_positive(Mep.constant(-1), UNIT)
    assert ei.value.max_l == 0
    assert "polynomial part" in str(ei.value)
    # y - 1 < 0 on (0,1): no l can work, diagnostics carry the last count
    with pytest.raises(SearchExhaustedError) as ei:
        prove_positive(Mep([(1, 0, 1), (-1, 0, 0)]), UNIT, max_l=4)
    assert ei.value.max_l == 4


def _sturm_positive(p, a, b):
    return count_roots_open(p, a, b) == 0 and p((a + b) / 2) > 0


def test_sample_refutation_is_sound():
    # a P the samples reject would also fail the Sturm test, so rejecting
    # it early cannot change which depth wins
    rng = random.Random(1717)
    fired = 0
    for _ in range(400):
        p = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(rng.randint(1, 7))])
        if p.is_zero:
            continue
        a = F(rng.randint(0, 20), rng.randint(1, 3))
        b = a + F(rng.randint(1, 30), rng.randint(1, 3))
        if sample_refutes(p, a, b):
            fired += 1
            assert not _sturm_positive(p, a, b)
    assert fired > 100
    # the bound polynomials of exp(-x) > 1 - x on (0, 30): P = 0 at depth 1,
    # depths 2..37 fail, 38 passes
    f = Mep([(1, 0, 1), (-1, 0, 0), (1, 1, 0)])
    wide = (F(0), F(30))
    units, _ = bounding_units(f, wide)
    for l in range(2, 39):
        p = lower_bound_poly(f, wide, uniform_assignment(units, l))
        if sample_refutes(p, *wide):
            assert not _sturm_positive(p, *wide)
        assert _sturm_positive(p, *wide) == (l == 38)


def test_exhausted_search_counts_roots_of_its_last_p():
    cases = [
        (Mep([(1, 0, 1), (-1, 0, 0), (1, 1, 0)]), (F(0), F(30)), 20),
        (Mep([(1, 0, 20)]), UNIT, 20),
        (Mep([(1, 0, 1), (-2, 0, 0)]), UNIT, 6),  # P < 0 with no root
        (Mep([(1, 0, 1), (-1, 0, 0)]), UNIT, 4),
        # the counts change with the depth: 1 root at l = 1, then 2
        (Mep([(1, 1, 1), (F(-1, 4), 0, 0)]), (F(0), F(4)), 4),
        # 1 root up to l = 4, then 3
        (Mep([(1, 0, 2), (-1, 0, 1), (F(1, 5), 0, 0)]), (F(0), F(5)), 6),
        (Mep([(1, 2, 0), (-1, 1, 0), (F(1, 4), 0, 0)]), UNIT, 20),  # no units
    ]
    counts = []
    for f, interval, max_l in cases:
        with pytest.raises(SearchExhaustedError) as ei:
            prove_positive(f, interval, max_l)
        units, _ = bounding_units(f, interval)
        last = lower_bound_poly(f, interval, uniform_assignment(units, max_l))
        assert ei.value.last_root_count == count_roots_open(last, *interval)
        counts.append(ei.value.last_root_count)
    assert counts == [1, 1, 0, 0, 2, 3, 1]


def test_falsify():
    # e^-x - (1 - x + x^2/2) is negative for all x > 0
    f = Mep([(1, 0, 1), (-1, 0, 0), (1, 1, 0), (F(-1, 2), 2, 0)])
    w = falsify(f, UNIT)
    assert w is not None
    assert w.enclosure.hi < 0
    assert F(0) < w.x < F(1)
    assert falsify(Mep(G_TERMS), UNIT) is None


def test_minimize_assignment():
    y = Mep([(1, 0, 1)])
    seed = prove_positive(y, UNIT, max_l=20)
    small = minimize_assignment(y, UNIT, seed)
    assert [e.l for e in small.assignment] == [1]
    assert small.poly == Polynomial([F(1), F(-1)])
    assert verify_certificate(small)
    # idempotent: already-minimal certificates survive unchanged
    assert minimize_assignment(y, UNIT, small) == small
    # and never worse than the seed
    g = Mep(G_TERMS)
    seed = prove_positive(g, UNIT)
    small = minimize_assignment(g, UNIT, seed)
    assert sum(e.l for e in small.assignment) <= sum(e.l for e in seed.assignment)
    assert verify_certificate(small)


def test_one_certificate_per_proof(monkeypatch, capsys):
    # the search and the descent decide each level on integers: prove G
    # --minimize builds one Certificate at the depth that passes and one
    # after the descent, none for the levels in between
    built = []
    init = Certificate.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Certificate, "__init__", counting)
    g = Mep(G_TERMS)
    assert cli.run(["prove", f"{g.text()} > 0", "--on", "0,1", "--minimize"]) == 0
    assert "theta = 6, term 1: theta = 6" in capsys.readouterr().out
    assert len(built) == 2
    # a descent that drops no order returns its seed itself
    assert minimize_assignment(g, UNIT, built[-1]) is built[-1]
    assert len(built) == 2


def test_certificate_json_round_trip():
    cert = prove_positive(Mep(G_TERMS), UNIT)
    blob = json.dumps(cert.to_json_dict())
    back = Certificate.from_json_dict(json.loads(blob))
    assert back == cert
    assert verify_certificate(back)


def _tampered(cert, **changes):
    d = cert.to_json_dict()
    for k, v in changes.items():
        d[k] = v
    return Certificate.from_json_dict(d)


def test_verify_rejects_tampering():
    cert = prove_positive(Mep(G_TERMS), UNIT)
    d = cert.to_json_dict()

    bad = dict(d)
    bad["poly"] = list(d["poly"])
    bad["poly"][0] = "3"
    ok, reason = verify_certificate_report(Certificate.from_json_dict(bad))
    assert not ok and "differs" in reason

    # the Sturm data is derived, never read: a certificate built honestly
    # at a depth whose P has a root inside the interval is refused
    f = Mep([(1, 0, 1), (-1, 0, 0), (1, 1, 0)])
    wide = (F(0), F(30))
    shallow = uniform_assignment(bounding_units(f, wide)[0], 20)
    p = lower_bound_poly(f, wide, shallow)
    assert count_roots_open(p, *wide) == 1
    low = Certificate(
        input=f"{f.text()} > 0", interval=wide, mode=PER_TERM, assignment=shallow,
        poly=p, witness_x=F(15), witness_value=p(F(15)),
    )
    assert low.v_a - low.v_b - low.endpoint_adjust == 1
    assert verify_certificate_report(low) == (False, "interior root count is not zero")

    bad = dict(d)
    bad["witness"] = dict(d["witness"], value="1")
    ok, reason = verify_certificate_report(Certificate.from_json_dict(bad))
    assert not ok and "witness" in reason

    bad = dict(d)
    bad["assignment"] = [
        dict(e, theta=e["theta"] + 1) for e in d["assignment"]
    ]
    ok, reason = verify_certificate_report(Certificate.from_json_dict(bad))
    assert not ok and "parity" in reason


def test_verify_rejects_malformed():
    cert = prove_positive(Mep(G_TERMS), UNIT)
    d = cert.to_json_dict()
    with pytest.raises(MalformedCertificateError):
        Certificate.from_json_dict({k: v for k, v in d.items() if k != "poly"})
    with pytest.raises(MalformedCertificateError):
        Certificate.from_json_dict(dict(d, interval=["0", "nope"]))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_report(_tampered(cert, input="x + > 0"))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_report(_tampered(cert, input="x >= 0"))
    with pytest.raises(MalformedCertificateError):
        verify_certificate_report(_tampered(cert, mode="freestyle"))


def test_certificate_polynomial_matches_orders():
    # the recorded poly is literally sum of passthrough and unit * T_theta
    g = Mep(G_TERMS)
    cert = prove_positive(g, UNIT)
    units, passthrough = bounding_units(g, UNIT)
    total = passthrough
    for e, u in zip(cert.assignment, units):
        total = total + u.poly * maclaurin(e.theta, u.q).poly
    assert total == cert.poly


def _reference_bound(units, passthrough, thetas):
    """P from scratch: passthrough + sum of unit.poly * T_theta(q x); theta
    -1 leaves a unit out."""
    total = passthrough
    for u, theta in zip(units, thetas):
        if theta >= 0:
            total = total + u.poly * maclaurin(theta, u.q).poly
    return total


def _reference_attempt(f, interval, mode, units, passthrough, assignment):
    """One assignment checked on its rational P, rebuilt from scratch, and
    decided by a Sturm chain: no samples, no Descartes test."""
    total = _reference_bound(units, passthrough, [e.theta for e in assignment])
    a, b = interval
    if total.is_zero:
        return None
    chain = SturmChain(total)
    v_a, v_b = chain.variations_at(a), chain.variations_at(b)
    adjust = 1 if total(b) == 0 else 0
    mid = (a + b) / 2
    if v_a - v_b - adjust != 0 or total(mid) <= 0:
        return None
    cert = Certificate(
        input=f"{f.text()} > 0", interval=interval, mode=mode,
        assignment=assignment, poly=total, witness_x=mid, witness_value=total(mid),
    )
    assert (cert.v_a, cert.v_b, cert.endpoint_adjust) == (v_a, v_b, adjust)
    return cert


def _reference_prove(f, interval, max_l, mode):
    """The deepening loop with P rebuilt at every depth, and grouped units'
    signs decided by the verifier's Sturm test; None if exhausted."""
    units, passthrough = bounding_units(f, interval, mode, prover._sturm_positive)
    for l in [1] if not units else range(1, max_l + 1):
        assignment = uniform_assignment(units, l)
        cert = _reference_attempt(f, interval, mode, units, passthrough, assignment)
        if cert is not None:
            return cert
    return None


def _reference_minimize(f, interval, seed):
    """The greedy descent with P rebuilt for every trial."""
    units, passthrough = bounding_units(f, interval, seed.mode, prover._sturm_positive)
    entries, best, changed = list(seed.assignment), seed, True
    while changed:
        changed = False
        for i, unit in enumerate(units):
            while entries[i].l > 1:
                l = entries[i].l - 1
                candidate = entries.copy()
                candidate[i] = AssignmentEntry(unit.index, l, select_order(unit.sign, l))
                cert = _reference_attempt(
                    f, interval, seed.mode, units, passthrough, tuple(candidate)
                )
                if cert is None:
                    break
                entries, best, changed = candidate, cert, True
    return best


def test_incremental_bound_matches_from_scratch_build():
    # random MEPs in both modes: P moved along random walks of orders (up
    # and down by any step) equals P built from scratch, and the
    # certificates of the search and of the descent equal those of loops
    # that rebuild P for every assignment and decide it by Sturm chains
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    term = st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=4),
        st.integers(0, 2),
        st.integers(0, 3),
    )
    proofs = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        c0=st.fractions(min_value=0, max_value=8, max_denominator=3),
        raw=st.lists(term, min_size=1, max_size=5),
        a=st.sampled_from([F(0), F(1, 3)]),
        width=st.sampled_from([F(1, 2), F(1), F(2)]),
        data=st.data(),
    )
    def check(c0, raw, a, width, data):
        f = Mep([(c0, 0, 0), *raw])
        interval = (a, a + width)
        for mode in (PER_TERM, GROUPED):
            units, passthrough = bounding_units(f, interval, mode)
            bound = prover._IntegerBound.of(passthrough, units)
            for _ in range(4):
                thetas = data.draw(st.lists(
                    st.integers(-1, 14), min_size=len(units), max_size=len(units)
                ))
                bound = bound.moved(thetas)
                assert bound.polynomial() == _reference_bound(units, passthrough, thetas)
            if f.is_zero:
                continue
            want = _reference_prove(f, interval, 6, mode)
            try:
                got = prove_positive(f, interval, max_l=6, mode=mode)
            except SearchExhaustedError:
                got = None
            assert got == want
            if got is not None:
                proofs.append(mode)
                assert minimize_assignment(f, interval, got) == _reference_minimize(
                    f, interval, got
                )

    check()
    assert proofs.count(PER_TERM) >= 10 and proofs.count(GROUPED) >= 10


def test_integer_bound_matches_verifier_rebuild():
    # per-term and grouped units with rational coefficients and rates q = 1..5,
    # walked up to a random depth and then down the way the descent moves
    # (one unit, one level at a time): at every stop the integer P over its
    # denominator is the verifier's from-scratch rational P, its exact
    # value is Polynomial.eval's, and a Sturm chain of the integer list
    # counts like one of the rational P
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    term = st.tuples(rationals, st.integers(0, 3), st.integers(1, 5))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        c=st.lists(rationals, max_size=3),
        raw=st.lists(term, min_size=1, max_size=5),
        a=st.sampled_from([F(0), F(1, 3), F(2)]),
        width=st.sampled_from([F(1, 2), F(1), F(7, 3)]),
        data=st.data(),
    )
    def check(c, raw, a, width, data):
        f = Mep([*((v, p, 0) for p, v in enumerate(c)), *raw])
        interval = (a, a + width)
        x = data.draw(st.fractions(min_value=-1, max_value=4, max_denominator=9))
        for mode in (PER_TERM, GROUPED):
            units, passthrough = bounding_units(f, interval, mode)
            ls = data.draw(st.lists(
                st.integers(1, 9), min_size=len(units), max_size=len(units)
            ))
            bound = prover._IntegerBound.of(passthrough, units)
            walk = [[select_order(u.sign, l) for u, l in zip(units, ls)]]
            while any(l > 1 for l in ls):
                i = data.draw(st.sampled_from([i for i, l in enumerate(ls) if l > 1]))
                ls[i] -= 1
                walk.append(walk[-1].copy())
                walk[-1][i] = select_order(units[i].sign, ls[i])
            for thetas in walk:
                bound = bound.moved(thetas)
                want = _reference_bound(units, passthrough, thetas)
                den = bound.den
                assert den > 0
                assert [F(v, den) for v in bound.ints] == list(want.coeffs)
                assert bound.polynomial() == want
                if want.is_zero:
                    continue
                assert bound.value(x) == want.eval(x)
                from_ints, from_poly = SturmChain(bound.ints), SturmChain(want)
                for t in (*interval, F(0)):
                    assert from_ints.variations_at(t) == from_poly.variations_at(t)

    check()


def test_exhausted_search_counts_roots_only_when_read(monkeypatch):
    built = []
    init = SturmChain.__init__

    def counting(self, p):
        built.append(p)
        init(self, p)

    monkeypatch.setattr(SturmChain, "__init__", counting)
    # a false claim: every depth fails its samples, the error goes unread
    # and the counterexample scan disproves it, with no Sturm chain at all
    assert cli.run(["prove", "2*exp(-x) > 2 - 2*x + x^2", "--on", "0,1", "--json"]) == 1
    assert built == []
    f = Mep([(1, 0, 1), (-1, 0, 0)])
    with pytest.raises(SearchExhaustedError) as ei:
        prove_positive(f, UNIT, 4)
    assert built == []
    assert str(ei.value) == "no valid bound up to l = 4 (last P had 0 interior roots)"
    assert len(built) == 1
    assert ei.value.last_root_count == 0 and str(ei.value).endswith("roots)")
    assert len(built) == 1  # counted once


def test_descartes_proves_sturm_verifies(monkeypatch):
    # each side runs with the other side's kernel made to fail: the search,
    # the descent and the grouped split build no Sturm chain, and verify
    # (grouped units' signs included) calls no sampling or Descartes test
    def refuse(*args):
        raise AssertionError("the other side's kernel was called")

    g = Mep(G_TERMS)
    with monkeypatch.context() as m:
        m.setattr(SturmChain, "__init__", refuse)
        certs = [prove_positive(g, UNIT, mode=mode) for mode in (PER_TERM, GROUPED)]
        certs.append(minimize_assignment(g, UNIT, certs[0]))
        assert is_positive_on(Polynomial([F(6), F(0), F(0), F(-1)]), *UNIT)
    monkeypatch.setattr(poly, "descartes_positive", refuse)
    monkeypatch.setattr(poly, "sample_refutes", refuse)
    assert len(certs[1].assignment) == 3  # every q-group is one unit
    for cert in certs:
        assert verify_certificate_report(cert) == (True, "ok")
        assert cert.v_a - cert.v_b - cert.endpoint_adjust == 0


def test_prove_sign_directions_and_error_mappings():
    half = (F(0), F(1, 2))
    one_minus_x = Mep([(1, 0, 0), (-1, 1, 0)])
    sign, cert = prove_sign(one_minus_x, half, 3, PER_TERM)
    assert sign == 1 and cert.input == "1 - x > 0"
    sign, cert = prove_sign(-one_minus_x, half, 3, PER_TERM)
    assert sign == -1 and cert.input == "1 - x > 0"
    with pytest.raises(DegenerateInputError, match="expression is identically zero"):
        prove_sign(Mep(), half, 3, PER_TERM)
    # 1 - 2x changes sign at 1/2: both directions fail, the last error is raised
    crossing = Mep([(1, 0, 0), (-2, 1, 0)])
    with pytest.raises(SearchExhaustedError, match="pure polynomial part"):
        prove_sign(crossing, UNIT, 3, PER_TERM)
    # a denominator of unknown sign, and a derivative of unknown sign
    quotient = ExpRational(Mep([(1, 1, 0)]), crossing)
    with pytest.raises(
        DenominatorSignUnknownError,
        match=r"^sign of the denominator 1 - 2\*x on the interval could not "
        r"be certified up to max_l = 3$",
    ):
        cli._clear_denominator(quotient, UNIT, 3, PER_TERM)
    zero = ConstExpr.rational(0)
    fam = AffineFamily(ExpRational(Mep([(1, 1, 0), (-1, 2, 0)]), Mep.constant(1)),
                       UNIT, zero, zero)
    with pytest.raises(
        MonotonicityUnprovenError,
        match=r"^neither sign certified up to max_l = 3: no valid bound up to "
        r"l = 0 \(last P had 1 interior roots\): pure polynomial part is not positive$",
    ):
        analyze_affine_family(fam, max_l=3)
