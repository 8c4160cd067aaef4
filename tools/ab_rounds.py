"""Time in-process rounds of one workload on two expocert source trees.

    python3 tools/ab_rounds.py PARENT_SRC CHANGE_SRC --workload grid --seed 7
        [--alternations 4] [--rounds 12]

Each SRC is a directory that holds the `expocert` package, such as the
`src` of a checkout. The trees take turns: in each alternation the parent
and then the change run in a fresh subprocess, which imports expocert
from its tree, runs one untimed round of the workload's commands (built
by perfbench/workloads.py of the checkout that holds this script) and
then times --rounds rounds through `expocert.cli.run`. Prints the median
and minimum round time of each side per alternation, then the medians of
those over all alternations, with the change's share of the parent's.
Outputs are not compared here; tools/compare_outputs.py does that.
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
        shown = []
        for side, src in zip(SIDES, srcs):
            times = _side(src, args)
            medians[side].append(statistics.median(times))
            shown.append(f"{side} {statistics.median(times):.4f} / {min(times):.4f}")
        print(f"  alternation {i}: " + ",  ".join(shown))
    parent, change = (statistics.median(medians[side]) for side in SIDES)
    print(f"median of medians: parent {parent:.4f}, change {change:.4f} "
          f"({change / parent:.1%} of the parent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
