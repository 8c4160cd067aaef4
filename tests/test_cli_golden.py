"""CLI golden transcript: exit code, stdout and stderr of fixed commands.

Every command runs through `expocert.cli.run` inside one temporary
directory, so certificate paths written and read back are stable. The
transcript is compared byte for byte with `tests/golden/cli.txt`; a change
of any verdict, message or certificate shows up as a diff. After an
intended output change, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff before committing it.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from expocert import cli

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

G = "2 - 6*exp(-x) - x^3*exp(-x) + 6*exp(-2*x) - x^3*exp(-2*x) - 2*exp(-3*x) > 0"
GRID = "sign(a)*exp(a*x) <= sign(a)*(a*x*(1 - x) + x^2*(exp(a) - 1) + 1)"

COMMANDS = [
    ["prove", G, "--on", "0,1"],
    ["prove", G, "--on", "0,1", "--minimize"],
    ["prove", G, "--on", "0,1", "--grouped"],
    ["prove", G, "--on", "0,1", "--json"],
    ["prove", G, "--on", "0,1", "--minimize", "--json"],
    ["prove", G, "--on", "0,1", "--grouped", "--json"],
    ["prove", "1/(1+exp(-x)) > 1/3", "--on", "0,1"],
    ["prove", "exp(-x/2) > 1 - x/2", "--on", "0,1"],
    ["prove", "exp(-x) < 1", "--on", "0,1"],
    ["prove", "x/(1 - 2*x) > 0", "--on", "0,1"],
    ["prove", "exp(-x) > 1 - x + x^2/2", "--on", "0,1"],
    ["prove", "exp(-x) > 1 - x + x^2/2", "--on", "0,1", "--json"],
    ["prove", "x^2 - x + 1/4 > 0", "--on", "0,1"],
    ["prove", "x^2 - x + 1/4 > 0", "--on", "0,1", "--json"],
    ["prove", "x^2 - x + 1/4 >= 0", "--on", "0,1"],
    ["prove", "exp(-x) > 1 - x", "--on", "0,30", "--max-l", "40", "--json"],
    ["prove", "exp(-x) > 1 - x", "--on", "0,30"],
    ["prove", "exp(-x) > 1 - x", "--on", "0,30", "--max-l", "40", "--cert", "w.json"],
    ["verify", "w.json"],
    ["prove", "exp(-x) > 0", "--on", "0,200"],
    ["prove", "exp(-x) > 0", "--on", "0,20000"],
    ["prove", "exp(-x) > exp(-2*x)", "--on", "0,20000"],
    ["prove", "exp(-x)/(1 - exp(-x) - x/100) > 0", "--on", "0,200"],
    ["prove", G, "--on", "0,1", "--cert", "g.json"],
    ["verify", "g.json"],
    ["verify", "g.json", "--json"],
    [
        "family", "1/x^2 - exp(-x)/(1 - exp(-x))^2", "--on", "0,1",
        "--endpoint-a", "1/12", "--endpoint-b", "(e^2 - 3*e + 1)/(e - 1)^2",
    ],
    [
        "family", "1/x^2 - exp(-x)/(1 - exp(-x))^2", "--on", "0,1",
        "--endpoint-a", "1/12", "--endpoint-b", "(e^2 - 3*e + 1)/(e - 1)^2", "--json",
    ],
    [
        "family", "1/x^2 - exp(-x)/(1 - exp(-x))^2", "--on", "0,1",
        "--endpoint-a", "1/12 + 1/10^6", "--endpoint-b", "(e^2 - 3*e + 1)/(e - 1)^2",
    ],
    ["family", "exp(-x)", "--on", "0,1", "--endpoint-a", "1", "--endpoint-b", "1/e + 1/10^6"],
    ["family", "1/x", "--on", "0,1", "--endpoint-a", "1", "--endpoint-b", "1"],
    ["family", "(x - 1/2)^2", "--on", "0,1", "--endpoint-a", "1/4", "--endpoint-b", "1/4"],
    ["family", "1", "--on", "0,1", "--endpoint-a", "1", "--endpoint-b", "1"],
    ["eval", "(e^2 - 3*e + 1)/(e - 1)^2"],
    ["taylor", "--order", "9", "--scale", "2"],
    ["grid", GRID, "--x", "0,1", "--a", "-5,5", "--steps", "11"],
    ["grid", GRID.replace("<=", "<"), "--x", "0,1", "--a", "-1,1", "--steps", "3"],
    ["grid", GRID, "--x", "0,1", "--a", "-5,5", "--steps", "11", "--json"],
    [
        "grid", "exp(a*x) <= 1 + a*x + a^2*x^2", "--x", "0.000001,0.000002",
        "--a", "0.000001,0.000002", "--steps", "2", "--eps", "1/10000000000",
    ],
    ["grid", "1/(1 + exp(a*x)) < 1", "--x", "0,1", "--a", "-1,1", "--steps", "3"],
    ["grid", "exp(x)/(exp(a) - exp(x)) > 0", "--x", "0,1", "--a", "-1,1", "--steps", "3"],
    ["grid", "x/(x - a) > 0", "--x", "0,1", "--a", "-1,1", "--steps", "3"],
    ["grid", "(1 + x + a + exp(x))^40 > 0", "--x", "0,1", "--a", "-1,1", "--steps", "3"],
    ["grid", "1/(1/(x - a)) > -1", "--x", "0,1", "--a", "0,1", "--steps", "2"],
    ["grid", "(1/(x - a))^-1 > -1", "--x", "0,1", "--a", "0,1", "--steps", "2"],
    ["grid", "exp(x)^10000 > x^300*a^200", "--x", "0,1", "--a", "-1,1", "--steps", "3"],
    ["prove", "1/(1/(x - 1/2)) + 1 > 0", "--on", "0,1"],
    ["prove", "exp(-x/3)^3 > exp(-x)", "--on", "0,1"],
    ["prove", "x*exp(-x) > x*exp(-x)", "--on", "0,1", "--json"],
    ["prove", "x*exp(-x) >= x*exp(-x)", "--on", "0,1", "--json"],
    ["eval", "1/(1/(e - e))"],
    ["prove", "x + > 0", "--on", "0,1"],
    ["prove", G, "--on", "1,0"],
]


def transcript() -> str:
    """Run COMMANDS in a fresh temporary directory and render the results."""
    blocks = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv)
                shown = " ".join(repr(a) if " " in a or not a else a for a in argv)
                blocks.append(
                    f"$ expocert {shown}\n[exit {code}]\n"
                    f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
                )
        finally:
            os.chdir(here)
    return "\n".join(blocks)


def test_cli_transcript_matches_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript())
    sys.exit(0)
