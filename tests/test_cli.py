"""CLI: exit codes, output shapes, file round-trips."""

import json
import random
from fractions import Fraction as F

from expocert import cli

G_TEXT = (
    "2 - 6*exp(-x) - x^3*exp(-x) + 6*exp(-2*x) - x^3*exp(-2*x) - 2*exp(-3*x)"
)
INEQ_13 = "sign(a)*exp(a*x) <= sign(a)*(a*x*(1 - x) + x^2*(exp(a) - 1) + 1)"


def test_prove_writes_certificate(tmp_path, capsys):
    cert_file = tmp_path / "g.json"
    code = cli.run(["prove", f"{G_TEXT} > 0", "--on", "0,1", "--cert", str(cert_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "proved:" in out and "no roots inside" in out
    data = json.loads(cert_file.read_text())
    assert data["mode"] == "per-term"
    assert cli.run(["verify", str(cert_file)]) == 0
    assert "verified: ok" in capsys.readouterr().out


def test_prove_json_output(capsys):
    code = cli.run(["prove", f"{G_TEXT} > 0", "--on", "0,1", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "input", "interval", "mode", "assignment", "poly", "sturm", "witness",
    }
    assert data["interval"] == ["0", "1"]
    assert data["sturm"]["v_a"] - data["sturm"]["v_b"] - data["sturm"]["endpoint_adjust"] == 0


def test_prove_minimize_never_worse(capsys):
    assert cli.run(["prove", f"{G_TEXT} > 0", "--on", "0,1", "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    args = ["prove", f"{G_TEXT} > 0", "--on", "0,1", "--json", "--minimize"]
    assert cli.run(args) == 0
    small = json.loads(capsys.readouterr().out)
    total = lambda d: sum(e["l"] for e in d["assignment"])  # noqa: E731
    assert total(small) <= total(plain)


def test_prove_grouped_mode(capsys):
    code = cli.run(["prove", f"{G_TEXT} > 0", "--on", "0,1", "--grouped", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "grouped"


def test_prove_disproven(tmp_path, capsys):
    cert_file = tmp_path / "never.json"
    code = cli.run([
        "prove", "exp(-x) > 1 - x + x^2/2", "--on", "0,1", "--cert", str(cert_file),
    ])
    assert code == 1
    assert "disproven" in capsys.readouterr().out
    assert not cert_file.exists()


def test_prove_disproven_json(capsys):
    code = cli.run(["prove", "exp(-x) > 1 - x + x^2/2", "--on", "0,1", "--json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "disproven"
    x = F(data["witness"]["x"])
    assert F(0) < x < F(1)
    assert F(data["witness"]["reduced_value"][1]) < 0


def test_prove_identical_sides(capsys):
    assert cli.run(["prove", "x > x", "--on", "0,1"]) == 1
    assert "identical" in capsys.readouterr().out
    assert cli.run(["prove", "x >= x", "--on", "0,1"]) == 0
    assert "holds with equality" in capsys.readouterr().out


def test_prove_stretch_reduces_and_scales_witness(capsys):
    code = cli.run(["prove", "exp(-x/2) > 1 - x", "--on", "0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reduced to:" in out and "(0, 1/2)" in out
    # disproof witnesses come back in the original variable
    code = cli.run(["prove", "exp(-x/2) < 1 - x", "--on", "0,1", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert F(0) < F(data["witness"]["x"]) < F(1)


def test_prove_exact_zero_at_midpoint(capsys):
    # (x - 1/2)^2 vanishes at the midpoint: a strict claim is disproven there
    assert cli.run(["prove", "x^2 - x + 1/4 > 0", "--on", "0,1"]) == 1
    assert capsys.readouterr().out == (
        "disproven: at x = 1/2 the reduced form is exactly zero\n"
    )
    assert cli.run(["prove", "x^2 - x + 1/4 > 0", "--on", "0,1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "result": "disproven",
        "witness": {"x": "1/2", "reduced_value": ["0", "0"]},
    }
    # the non-strict claim is true; the search still cannot prove it
    assert cli.run(["prove", "x^2 - x + 1/4 >= 0", "--on", "0,1"]) == 2
    assert "undecided" in capsys.readouterr().err


def test_prove_denominator_sign_unknown(capsys):
    code = cli.run(["prove", "x/(1 - 2*x) > 0", "--on", "0,1"])
    assert code == 2
    assert "undecided" in capsys.readouterr().err


def test_prove_search_exhausted(capsys):
    code = cli.run(["prove", f"{G_TEXT} > 0", "--on", "0,1", "--max-l", "1"])
    assert code == 2
    assert "undecided" in capsys.readouterr().err


def test_prove_usage_errors(capsys):
    assert cli.run(["prove", f"{G_TEXT} > 0", "--on", "1,0"]) == 3
    assert cli.run(["prove", f"{G_TEXT} > 0", "--on", "0"]) == 3
    assert cli.run(["prove", "exp(a*x) > 0", "--on", "0,1"]) == 3
    assert cli.run(["prove", "x + > 0", "--on", "0,1"]) == 3
    assert cli.run(["prove", "e > 0", "--on", "0,1"]) == 3  # bare e cannot lower
    assert cli.run(["prove", f"{G_TEXT} > 0"]) == 3  # --on required
    assert cli.run(["nope", "x > 0"]) == 3
    capsys.readouterr()


def test_verify_mismatch_and_malformed(tmp_path, capsys):
    cert_file = tmp_path / "g.json"
    assert cli.run([
        "prove", f"{G_TEXT} > 0", "--on", "0,1", "--cert", str(cert_file),
    ]) == 0
    capsys.readouterr()

    data = json.loads(cert_file.read_text())
    data["witness"]["value"] = "99"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    assert cli.run(["verify", str(tampered)]) == 1
    assert "mismatch" in capsys.readouterr().out

    del data["sturm"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert cli.run(["verify", str(broken), "--json"]) == 1
    reply = json.loads(capsys.readouterr().out)
    assert reply["verified"] is False

    not_json = tmp_path / "not.json"
    not_json.write_text("{nope")
    assert cli.run(["verify", str(not_json)]) == 3
    assert cli.run(["verify", str(tmp_path / "absent.json")]) == 3
    capsys.readouterr()


def test_family_report(tmp_path, capsys):
    report_file = tmp_path / "family.json"
    code = cli.run([
        "family", "1/x^2 - exp(-x)/(1 - exp(-x))^2",
        "--on", "0,1",
        "--endpoint-a", "1/12",
        "--endpoint-b", "(e^2 - 3*e + 1)/(e - 1)^2",
        "--report", str(report_file),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "monotone: decreasing" in out
    assert "0.08132986" in out  # p0 to 8 decimals
    data = json.loads(report_file.read_text())
    assert data["monotone"] == "decreasing"
    assert set(data) == {"monotone", "A", "B", "p0", "d0", "derivative_certificate"}


def test_family_errors(capsys):
    base = ["family", "1 - x", "--on", "0,1"]
    # wrong claimed endpoint: analysis refuses, verdict undecided
    assert cli.run(base + ["--endpoint-a", "1/2", "--endpoint-b", "0"]) == 2
    assert "undecided" in capsys.readouterr().err
    # fractional exponential rate: values would need a stretch, refused
    assert cli.run([
        "family", "exp(-x/2)", "--on", "0,1",
        "--endpoint-a", "1", "--endpoint-b", "1/2",
    ]) == 3
    assert cli.run([
        "family", "exp(-a*x)", "--on", "0,1",
        "--endpoint-a", "1", "--endpoint-b", "1/2",
    ]) == 3
    capsys.readouterr()


def test_eval(capsys):
    code = cli.run(["eval", "(e^2 - 3*e + 1)/(e - 1)^2", "--eps", "1/100000000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.0793264" in out
    code = cli.run(["eval", "e", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["decimal"].startswith("2.7182818284")
    lo, hi = F(data["enclosure"][0]), F(data["enclosure"][1])
    assert lo < hi and hi - lo < F(1, 10**12)
    assert cli.run(["eval", "x + 1"]) == 3
    assert cli.run(["eval", "1/(e - e)"]) == 3  # division by symbolic zero
    assert cli.run(["eval", "e", "--eps", "0"]) == 3
    capsys.readouterr()


def test_taylor(capsys):
    assert cli.run(["taylor", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "1 - x + 1/2*x^2" in out and "upper" in out
    assert cli.run(["taylor", "--order", "3", "--scale", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["side"] == "lower" and data["scale"] == 2
    assert data["poly"] == ["1", "-2", "2", "-4/3"]
    assert cli.run(["taylor", "--order", "-1"]) == 3
    assert cli.run(["taylor", "--order", "2", "--scale", "0"]) == 3
    capsys.readouterr()


def test_grid_exit_codes(capsys):
    assert cli.run(["grid", INEQ_13, "--x", "0,1", "--a", "-1,1", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "9 holds, 0 fails, 0 undecided" in out

    strict = INEQ_13.replace("<=", "<")
    assert cli.run(["grid", strict, "--x", "0,1", "--a", "-1,1", "--steps", "3"]) == 1
    assert "fails at" in capsys.readouterr().out

    args = [
        "grid", "exp(a*x) <= 1 + a*x + a^2*x^2",
        "--x", "0.000001,0.000002", "--a", "0.000001,0.000002",
        "--steps", "2", "--eps", "1/10000000000",
    ]
    assert cli.run(args) == 2
    assert "undecided at" in capsys.readouterr().out

    assert cli.run(["grid", INEQ_13, "--x", "0,1", "--a", "-1,1", "--steps", "1"]) == 3
    assert cli.run(["grid", INEQ_13, "--x", "0,1", "--a", "-1,1",
                    "--steps", "3", "--eps", "-1/10"]) == 3
    capsys.readouterr()


def test_grid_json(capsys):
    code = cli.run([
        "grid", INEQ_13, "--x", "0,1", "--a", "-5,5", "--steps", "3", "--json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["holds_at"]) == 9
    assert data["fails_at"] == [] and data["undecided_at"] == []


def test_prove_exit_codes_match_exact_linear_analysis(capsys):
    # for linear inequalities the bound polynomial is the input itself, so
    # the verdict must agree with arithmetic on the endpoints
    rng = random.Random(1729)
    for _ in range(20):
        c0 = rng.randint(-3, 3)
        c1 = rng.randint(-3, 3)
        if c0 == 0 and c1 == 0:
            continue
        code = cli.run(["prove", f"{c0} + {c1}*x > 0", "--on", "0,1"])
        capsys.readouterr()
        expected = 0 if (c0 >= 0 and c0 + c1 >= 0) else 1
        assert code == expected, (c0, c1, code)
