"""Time the ROADMAP baseline rows through expocert.cli.run, in-process.

    python3 perfbench/baseline.py

Prints each row's best and median wall time over REPEATS runs after one
untimed warm-up run of the same command.
"""

import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from expocert import cli  # noqa: E402
from run import run_command  # noqa: E402
from workloads import G_TEXT, GRID_LE, PAPER_FAMILY  # noqa: E402

REPEATS = 5


def rows(cert: str):
    return [
        ("README prove (5 terms, (0,1))", ["prove", G_TEXT, "--on", "0,1", "--cert", cert]),
        ("same with --minimize", ["prove", G_TEXT, "--on", "0,1", "--minimize"]),
        ("exp(-x) > 1 - x on (0,10)", ["prove", "exp(-x) > 1 - x", "--on", "0,10"]),
        ("exp(-x) > 1 - x on (0,30), --max-l 40",
         ["prove", "exp(-x) > 1 - x", "--on", "0,30", "--max-l", "40"]),
        ("family on the paper's f, (0,1)",
         ["family", PAPER_FAMILY, "--on", "0,1", "--endpoint-a", "1/12",
          "--endpoint-b", "(e^2 - 3*e + 1)/(e - 1)^2"]),
        ("grid criterion 8, 41x41",
         ["grid", GRID_LE, "--x", "0,1", "--a", "-5,5", "--steps", "41"]),
        ("disproof exp(-x) > 1 - x + x^2/2", ["prove", "exp(-x) > 1 - x + x^2/2", "--on", "0,1"]),
        ("verify of the README certificate", ["verify", cert]),
    ]


def main() -> None:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for label, argv in rows(str(Path(tmp) / "g.json")):
            run_command(cli, argv)
            times = [run_command(cli, argv)[0] for _ in range(REPEATS)]
            print(f"{label:42s} best {min(times):8.4f} s  median "
                  f"{statistics.median(times):8.4f} s")


if __name__ == "__main__":
    main()
