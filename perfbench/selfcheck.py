"""Checks on the benchmark itself; exits 1 on the first mismatch.

    python3 perfbench/selfcheck.py

1. The workload and metric names (and units) the runner emits are the ones
   BENCHMARK.json declares.
2. The output gate records a failure when it is handed a wrong expected
   size, a distance violation, or a non-zero exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

from gate import Gate
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics
from workloads import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def check(ok, what):
    if not ok:
        print(f"selfcheck FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "workload names match BENCHMARK.json")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "end-to-end metric names and units match BENCHMARK.json")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS,
          "per-layer metric names and units match BENCHMARK.json")
    emitted = layer_metrics(Tracer("selfcheck"), 1.0, 1.0)
    check(set(emitted) == set(PER_LAYER_UNITS),
          "a traced run computes every per-layer metric")

    w = WORKLOADS["certify_8_4_4"]
    gate = Gate()
    gate.size(SimpleNamespace(size=w.size), w.size, w.size)
    check(gate.failed == 0, "gate passes the right size")
    gate.size(SimpleNamespace(size=w.size), w.size, w.size + 1)
    check(gate.failed == 1, "gate fails a wrong expected size")
    gate.size(SimpleNamespace(size=w.size - 1), w.size, w.size)
    check(gate.failed == 2, "gate fails a code of the wrong size")
    gate.distance({"min_distance_found": 2, "violations": [{"distance": 2}]}, 4)
    check(gate.failed == 3, "gate fails a distance violation")
    gate.distance({"min_distance_found": 6, "violations": []}, 4, exact=4)
    check(gate.failed == 4, "gate fails an inexact full-check distance")
    gate.exit_code(1, ["verify"])
    check(gate.failed == 5 and gate.attempted == 6, "gate fails a non-zero exit code")


if __name__ == "__main__":
    main()
