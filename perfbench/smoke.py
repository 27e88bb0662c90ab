"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload once at tiny sizes, untraced and traced, and checks
that every metric named in BENCHMARK.json is reported and that
layer_map.json describes exactly the benchmark's workloads and per-layer
metrics.  Then it perturbs one estimate.json between the run and its
checks, and requires the checks to catch it and count it as a failed
operation.  Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import TINY, WORKLOADS


class PerturbedEstimate:
    """A workload whose estimate.json is altered after the commands ran."""

    def __init__(self, inner):
        self.inner = inner
        self.item_unit = inner.item_unit

    def steps(self, work, seed, iteration):
        return self.inner.steps(work, seed, iteration)

    def checks(self, work):
        path = work / "estimate/estimate.json"
        est = json.loads(path.read_text())
        est["sigma_hat"][0] *= 1.0 + 1e-6
        path.write_text(json.dumps(est))
        return self.inner.checks(work)

    def items(self, work):
        return self.inner.items(work)

    def quality(self, work):
        return self.inner.quality(work)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((Path(__file__).parent / "layer_map.json").read_text())
    failures = []
    names = {w["name"] for w in spec["workloads"]}
    if not names == set(WORKLOADS) == set(TINY) == set(layer_map["workloads"]):
        failures.append("BENCHMARK.json, workloads.py and layer_map.json list different workloads")
    if set(layer_map["per_layer"]) != {m["name"] for m in spec["per_layer"]}:
        failures.append("layer_map.json and BENCHMARK.json list different per-layer metrics")

    (run.ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench_tmp") as base:
        for name, workload in TINY.items():
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                result, lines = run.measure(workload, 1, 0.0, trace, spec, Path(base))
                if not result["correct"]:
                    failures.append(f"{name} trace={trace:d}: " + " | ".join(lines))
                absent = {m["name"] for m in spec[kind]} - set(result["metrics"])
                if absent:
                    failures.append(f"{name} trace={trace:d}: no value for {sorted(absent)}")
                print(f"{name} trace={trace:d}: {result['attempted']} operations, "
                      f"{result['failed']} failed")

        result, lines = run.measure(PerturbedEstimate(TINY["infer-d2"]), 1, 0.0, False,
                                    spec, Path(base))
        caught = [line for line in lines if line.startswith("FAILED") and "step estimate" in line]
        if result["correct"] or result["failed"] < 1 or not caught:
            failures.append("a perturbed estimate.json was not counted as a failed operation")
        print("perturbed estimate.json: " + (caught[0] if caught else "not caught"))
        print([line for line in lines if line.startswith("fail_frac")][0])

    for failure in failures:
        print("SMOKE FAILURE: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
