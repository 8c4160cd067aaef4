"""Negative controls for the benchmark's output checks.

Each test runs the program once, shows that the matching check accepts
the real output, then corrupts one thing and shows that the check
rejects it. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from expocert import cli  # noqa: E402
from oracle import Term  # noqa: E402
from run import run_command  # noqa: E402

SAMPLES = [F(1, 7), F(1, 2), F(6, 7)]


def _run(cmd):
    _, code, out, _ = run_command(cli, cmd.argv)
    assert code == cmd.expect
    return out


def _g_certificate(tmp_path):
    path = tmp_path / "g.json"
    _, code, _, _ = run_command(
        cli, ["prove", workloads.G_TEXT, "--on", "0,1", "--cert", str(path)]
    )
    assert code == 0
    return json.loads(path.read_text())


def test_certificate_coefficient_corrupted(tmp_path):
    cert = _g_certificate(tmp_path)
    assert oracle.check_certificate(cert, SAMPLES) == []
    cert["poly"][3] = str(F(cert["poly"][3]) + F(1, 10**9))
    assert any("differs" in p for p in oracle.check_certificate(cert, SAMPLES))


def test_certificate_order_corrupted(tmp_path):
    cert = _g_certificate(tmp_path)
    entry = cert["assignment"][1]
    entry["theta"] += 2
    entry["l"] += 1
    assert any("differs" in p for p in oracle.check_certificate(cert, SAMPLES))
    entry["theta"] -= 1
    assert any("parity" in p for p in oracle.check_certificate(cert, SAMPLES))


def test_certificate_not_positive():
    # P = (x - 1/2)^2 has a double root inside (0, 1)
    cert = {"input": "x^2 - x + 1/4 > 0", "interval": ["0", "1"], "mode": "per-term",
            "assignment": [], "poly": ["1/4", "-1", "1"]}
    assert any("not positive" in p for p in oracle.check_certificate(cert, SAMPLES))


def test_witness_moved_to_positive_value():
    # x^2 - x + 1/8 is negative only between (1 -+ 1/sqrt(2))/2
    terms = [Term(F(1), 2, F(0)), Term(F(-1), 1, F(0)), Term(F(1, 8), 0, F(0))]
    cmd = workloads.Command(["prove", "x^2 - x + 1/8 > 0", "--on", "0,1", "--json"],
                            "disprove", 1,
                            workloads._witness_check(workloads._claim(terms, []), (F(0), F(1))))
    out = _run(cmd)
    assert cmd.check(out, None) == []
    data = json.loads(out)
    data["witness"]["x"] = "1/20"
    assert any("not negative" in p for p in cmd.check(json.dumps(data), None))


def test_grid_verdict_flipped(tmp_path):
    cmd = next(c for c in workloads.grid_round(1, tmp_path)
               if c.kind == "grid" and c.expect == 1 and c.points <= 36)
    out = _run(cmd)
    assert cmd.check(out, None) == []
    report = json.loads(out)
    report["holds_at"].append(report["fails_at"].pop())
    assert any("wrong verdicts" in p for p in cmd.check(json.dumps(report), None))


def test_family_enclosure_shifted():
    cmd = next(c for c in workloads.FAMILIES if "exp(-x)" == c.argv[1])
    out = _run(cmd)
    assert cmd.check(out, None) == []
    report = json.loads(out)
    report["A"]["enclosure"] = [str(F(v) + F(1, 10**6)) for v in report["A"]["enclosure"]]
    assert any("A enclosure" in p for p in cmd.check(json.dumps(report), None))


def test_positive_on_matches_known_roots():
    assert oracle.positive_on([F(1), F(0), F(1)], F(-5), F(5))
    assert not oracle.positive_on([F(1, 4), F(-1), F(1)], F(0), F(1))
    # (x - 1/3)(x - 2/3) changes sign twice in (0, 1) but not in (0, 1/3)
    p = oracle.pmul([F(-1, 3), F(1)], [F(-2, 3), F(1)])
    assert not oracle.positive_on(p, F(0), F(1))
    assert oracle.positive_on(p, F(0), F(1, 3))
    assert oracle.positive_on(p, F(2, 3), F(5))


def test_read_canonical():
    assert oracle.read_canonical("2 - x^3*exp(-2*x) + 1/3*x > 0") == [
        Term(F(2), 0, F(0)), Term(F(-1), 3, F(2)), Term(F(1, 3), 1, F(0))]
