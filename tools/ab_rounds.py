"""Time in-process rounds of one workload on two expocert source trees.

    python3 tools/ab_rounds.py PARENT_SRC CHANGE_SRC --workload grid --seed 7
        [--alternations 4] [--rounds 12]

Each SRC is a directory that holds the `expocert` package, such as the
`src` of a checkout. The trees take turns: in each alternation both run,
each in a fresh subprocess, the parent first in odd alternations and the
change first in even ones, so neither side always meets the machine in
the same state. A run imports expocert from its tree, runs one untimed
round of the workload's commands (built by perfbench/workloads.py of the
checkout that holds this script) and then times --rounds rounds through
`expocert.cli.run`. Prints the median and minimum round time of each
side per alternation; then, over the alternations, each side's quartiles
of its medians, the median of those medians with the change's share of
the parent's, and in how many alternations the change was faster. A
spread of the parent's own medians as wide as the difference between
the sides means the difference is not resolved. Outputs are not compared
here; tools/compare_outputs.py does that.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _child(src: str, workload: str, seed: int, rounds: int) -> list[float]:
    """Round wall times of the expocert under src."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import expocert
    from expocert import cli

    if Path(expocert.__file__).resolve().parent != (Path(src) / "expocert").resolve():
        sys.exit(f"error: imported expocert from {expocert.__file__}, not from {src}")
    import workloads

    with tempfile.TemporaryDirectory(prefix="ab-rounds-") as tmp:
        commands = workloads.BUILDERS[workload](seed, Path(tmp))
        times = []
        for _ in range(rounds + 1):
            t0 = perf_counter()
            for cmd in commands:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.run(cmd.argv)
            times.append(perf_counter() - t0)
    return times[1:]  # the first round warms up


def _side(src: str, args) -> list[float]:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", src, args.workload, str(args.seed),
         str(args.rounds)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"error: the run of {src} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--child"] and len(args) == 5:
        json.dump(_child(args[1], args[2], int(args[3]), int(args[4])), sys.stdout)
        return 0
    ap = argparse.ArgumentParser(description="A/B round times of two expocert trees")
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--workload", required=True, choices=("unit", "wide", "grid"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--alternations", type=int, default=4)
    ap.add_argument("--rounds", type=int, default=12)
    args = ap.parse_args(args)
    if args.alternations < 1 or args.rounds < 1:
        ap.error("--alternations and --rounds must be at least 1")
    srcs = [str(Path(p).resolve()) for p in (args.parent_src, args.change_src)]
    medians: dict = {side: [] for side in SIDES}
    print(f"workload {args.workload}, seed {args.seed}: {args.rounds} timed rounds "
          f"per side per alternation, seconds per round (median / min)")
    for i in range(1, args.alternations + 1):
        order = list(zip(SIDES, srcs))
        if i % 2 == 0:
            order.reverse()
        shown = {}
        for side, src in order:
            times = _side(src, args)
            medians[side].append(statistics.median(times))
            shown[side] = f"{side} {statistics.median(times):.4f} / {min(times):.4f}"
        print(f"  alternation {i} ({order[0][0]} first): "
              + ",  ".join(shown[side] for side in SIDES))
    for side in SIDES:
        q1, q2, q3 = _quartiles(medians[side])
        print(f"{side} medians: q1 {q1:.4f}, median {q2:.4f}, q3 {q3:.4f}")
    parent, change = (statistics.median(medians[side]) for side in SIDES)
    won = sum(c < p for p, c in zip(medians["parent"], medians["change"]))
    print(f"median of medians: parent {parent:.4f}, change {change:.4f} "
          f"({change / parent:.1%} of the parent); the change was faster in "
          f"{won} of {args.alternations} alternations")
    return 0


def _quartiles(values: list[float]) -> list[float]:
    """q1, median and q3 of values; a single value is all three."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


if __name__ == "__main__":
    sys.exit(main())
