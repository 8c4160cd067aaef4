"""expocert benchmark: one workload, in-process, closed loop.

    python3 perfbench/run.py --workload unit --seed 1 --seconds 40 --trace 0

Drives `expocert.cli.run` from one process and one thread; each command
starts when the previous one returns. The workload's command list (one
round, see workloads.py) is repeated in whole rounds until the next round
would overrun --seconds, after an untimed warm-up command. Before each
untraced round, SETUP_PER_ROUND fresh interpreters time set-up, so set-up
is sampled across the same stretch of the machine's drifting speed as the
rounds. Outputs of the first round are checked by oracle.py, which shares
no code with expocert; later rounds must reproduce them exactly.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: untraced rounds for a third of --seconds, then traced
rounds (see spans.py), with counts and self times given per round. Human-readable lines come
first; the last line of stdout is the JSON result. Scratch files
(certificates, the span dump) go under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_PER_ROUND = 2
# a 90th percentile is printed only over this many commands or more
P90_MIN_SAMPLES = 40

# a fresh interpreter: import expocert from src/, run one command, report
SETUP_CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from expocert import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.run(sys.argv[2:])
print("done", flush=True)
"""


def load_program():
    if not (SRC / "expocert" / "cli.py").is_file():
        sys.exit(f"error: no expocert sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import expocert
    import expocert.cli

    if Path(expocert.__file__).resolve().parent != (SRC / "expocert").resolve():
        sys.exit(f"error: imported expocert from {expocert.__file__}, not from {SRC}")
    return expocert


def setup_seconds(argv) -> list[float]:
    """Start of a fresh interpreter to the end of its first command."""
    times = []
    for _ in range(SETUP_PER_ROUND):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *argv],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if line != "done\n" or proc.returncode != 0:
            sys.exit(f"error: set-up interpreter exited {proc.returncode}")
    return times


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        code = cli.run(argv)
        dt = perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


def run_rounds(cli, commands, seconds, tracer=None, before_round=None):
    """Whole rounds until the next one would end after `seconds`; at least one.
    `before_round`, if given, is called before each round, untimed but
    within `seconds`.

    Returns [(round wall seconds, [(latency, code, stdout, stderr, cert), ...])].
    """
    rounds = []
    start = perf_counter()
    while True:
        if before_round is not None:
            before_round()
        t0 = perf_counter()
        results = []
        for cmd in commands:
            if tracer is not None:
                tracer.command += 1
            dt, code, out, err = run_command(cli, cmd.argv)
            cert = cmd.cert.read_text() if cmd.cert and code == 0 else None
            results.append((dt, code, out, err, cert))
        rounds.append((perf_counter() - t0, results))
        mean_round = (perf_counter() - start) / len(rounds)
        if perf_counter() - start + mean_round > seconds:
            return rounds


def judge(commands, rounds):
    """Outcome of each command of the first round, and problems found.

    ok: the exit code the truth calls for and an output the oracle accepts.
    failed: an honest non-answer (undecided or error) where the truth calls
    for a verdict. Anything else, or a later round that does not reproduce
    the first, is a problem and makes the run incorrect.
    """
    outcomes, problems = [], []
    first = rounds[0][1]
    for cmd, (_, code, out, err, cert) in zip(commands, first):
        if code == cmd.expect:
            found = cmd.check(out, cert)
            outcomes.append("ok" if not found else "wrong")
            problems += [f"{' '.join(cmd.argv[:2])}: {p}" for p in found]
        elif code in (2, 3):
            outcomes.append("failed")
        else:
            outcomes.append("wrong")
            problems.append(f"{' '.join(cmd.argv[:2])}: exit {code}, the truth calls "
                            f"for {cmd.expect}: {(out + err).strip()[:200]}")
    for _, results in rounds[1:]:
        for cmd, r, r0 in zip(commands, results, first):
            if r[1:] != r0[1:]:
                problems.append(f"{' '.join(cmd.argv[:2])}: output differs between rounds")
    return outcomes, problems


def degree_total(commands, first) -> int:
    """Sum of deg P over the certificates one round produces."""
    total = 0
    for cmd, (_, code, out, _, cert) in zip(commands, first):
        if code != 0:
            continue
        if cert is not None:
            total += len(json.loads(cert)["poly"]) - 1
        elif cmd.kind == "family":
            total += len(json.loads(out)["derivative_certificate"]["poly"]) - 1
    return total


def lower_quartile(values) -> float:
    """The value that a quarter of the samples reach or beat."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def command_times(rounds):
    """Each command's lower-quartile latency over the rounds of a run."""
    return [lower_quartile(ts) for ts in zip(*[[r[0] for r in results]
                                               for _, results in rounds])]


def end_to_end(commands, rounds, outcomes, setup, peak_rss_kib):
    """Every timing is the lower quartile of its samples over the run's
    rounds: a command's latency, and the round wall time behind the
    throughput. The shared 2-vCPU Xeon VM of the README's figures changes
    speed by up to 1.8x. When it swings within a run, a run's best times
    vary least from run to run and its medians most; when it stays slow
    and only now and then runs fast, the best times vary most, because
    some runs catch a fast stretch and others do not. The lower quartile
    is the steadiest statistic over both (README, "Run-to-run spread")."""
    times = command_times(rounds)
    verify = [t for c, t in zip(commands, times) if c.kind == "verify"]
    decisions = sum(c.points for c, o in zip(commands, outcomes) if o == "ok")
    metrics = {
        "setup_s": statistics.median(setup),
        "decisions_per_s": decisions / lower_quartile(w for w, _ in rounds),
        "latency_p50_ms": 1000 * statistics.median(times),
        "peak_rss_mib": peak_rss_kib / 1024,
    }
    samples = f"n = {len(times)} commands, lower quartile of {len(rounds)} rounds"
    notes = {
        "latency_p50_ms": samples,
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "decisions_per_s": f"{decisions} verdicts per round, lower quartile of {len(rounds)} rounds",
        "peak_rss_mib": "read after the timed loop, before the output checks",
    }
    extra = [("degree_total", degree_total(commands, rounds[0][1]), "degree", "per round")]
    if len(times) >= P90_MIN_SAMPLES:
        extra.append(("latency_p90_ms",
                      1000 * statistics.quantiles(times, n=10, method="inclusive")[8], "ms",
                      samples))
    if verify:
        extra.append(("verify_p50_ms", 1000 * statistics.median(verify), "ms",
                      f"n = {len(verify)}"))
    return metrics, notes, extra


def per_layer(tracer, rounds, untraced_wall, commands):
    """Every per-layer value the trace yields, counts and times per round."""
    n = len(rounds)
    walls = [w for w, _ in rounds]
    wall = sum(walls) / n
    values = {}
    for span in tracer.names:
        values[f"{span}.calls"] = tracer.calls[span] / n
        values[f"{span}.self_s"] = tracer.self_s[span] / n
    layers = {layer: sum(s for span, s in tracer.self_s.items()
                         if span.startswith(layer + ".")) / n for layer in spans.LAYERS}
    values.update({f"{layer}.self_s": s for layer, s in layers.items()})
    values.update({name: tracer.counts[name] / n for name in spans.COUNTERS})
    values.update(tracer.maxima)
    levels = tracer.counts["prover.levels"]
    values.update({
        "prover.proofs_per_level": tracer.counts["prover.proofs"] / levels if levels else 0.0,
        "prover.degree_total": degree_total(commands, rounds[0][1]),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(layers.values()),
        "trace.overhead_s": statistics.median(walls) - untraced_wall,
    })
    return values, layers, wall


def dump_spans(tracer, path: Path, commands: int) -> int:
    """Write the spans of the first traced round, one JSON list per line."""
    count = 0
    with open(path, "w") as fh:
        for span in tracer.spans:
            if span[4] <= commands:
                fh.write(json.dumps(span) + "\n")
                count += 1
    return count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("unit", "wide", "grid"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    package = load_program()
    cli = package.cli
    workdir = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        commands = workloads.BUILDERS[args.workload](args.seed, workdir)
        warmup = workloads.WARMUP[args.workload]
        setup = []
        run_command(cli, warmup)
        if args.trace:
            untraced = run_rounds(cli, commands, args.seconds / 3)
            tracer = spans.Tracer()
            tracer.install(package)
            spent = sum(w for w, _ in untraced)
            rounds = run_rounds(cli, commands, args.seconds - spent, tracer)
            outcomes, problems = judge(commands, untraced + rounds)
            ran = len(untraced) + len(rounds)
        else:
            rounds = run_rounds(cli, commands, args.seconds,
                                before_round=lambda: setup.extend(setup_seconds(warmup)))
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            outcomes, problems = judge(commands, rounds)
            ran = len(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(commands) * ran
    failed = outcomes.count("failed") * ran
    print(f"workload {args.workload}, seed {args.seed}: {ran} rounds of "
          f"{len(commands)} commands, {attempted} attempted, {failed} failed")
    for cmd, (_, code, out, err, _), o in zip(commands, rounds[0][1], outcomes):
        if o == "failed":
            why = f" (known fault: {cmd.known_fault})" if cmd.known_fault else ""
            print(f"  failed: {' '.join(cmd.argv[:4])!r}: exit {code}, the truth calls for "
                  f"{cmd.expect}{why}: {(err or out).strip()[:160]}")
    for p in problems:
        print(f"  INCORRECT {p}")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        untraced_wall = statistics.median(w for w, _ in untraced)
        values, layer_self, wall = per_layer(tracer, rounds, untraced_wall, commands)
        print(f"  traced wall {wall:.4f} s per round ({len(rounds)} traced rounds), "
              f"untraced {untraced_wall:.4f} s ({len(untraced)} rounds); self-time shares:")
        for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:10s} {s:9.4f} s  {100 * s / wall:5.1f}%")
        print(f"    {'(outside)':10s} {values['trace.unattributed_s']:9.4f} s  "
              f"{100 * values['trace.unattributed_s'] / wall:5.1f}%")
        print(f"  prover.proofs_per_level base: {values['prover.proofs']:g} proofs over "
              f"{values['prover.levels']:g} levels searched")
        SCRATCH.mkdir(exist_ok=True)
        span_file = SCRATCH / f"trace-{args.workload}-{args.seed}.jsonl"
        written = dump_spans(tracer, span_file, len(commands))
        print(f"  {written} spans of the first traced round written to "
              f"{span_file.relative_to(ROOT)}")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, notes, extra = end_to_end(commands, rounds, outcomes, setup, peak_rss_kib)
        for name in names:
            print(f"  {name:18s} {values[name]:12.4f} {units[name]:6s} {notes.get(name, '')}")
        for name, value, unit, note in extra:
            print(f"  {name:18s} {value:12.4f} {unit:6s} {note}")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
