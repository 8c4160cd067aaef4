"""The benchmark's layer trace still finds every span BENCHMARK.json names.

perfbench/spans.py wraps expocert's public functions by name, so renaming
or removing one of them would silently drop a per-layer metric from
`perfbench/run.py --trace 1`. The tracer patches modules in place, so it
is installed in a child interpreter, never in the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
import expocert, expocert.cli, spans
tracer = spans.Tracer()
tracer.install(expocert)
print(json.dumps({"names": sorted(tracer.names), "layers": list(spans.LAYERS)}))
"""


def test_benchmark_spans_are_installed():
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT)],
        capture_output=True, text=True, check=True,
    )
    installed = json.loads(done.stdout)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = set()
    for metric in spec["per_layer"]:
        span, _, kind = metric["name"].rpartition(".")
        # "<layer>.self_s" is a whole module's total, not one span
        if kind in ("calls", "self_s") and span not in installed["layers"]:
            wanted.add(span)
    assert wanted, "BENCHMARK.json names no span metrics"
    assert sorted(wanted - set(installed["names"])) == []
