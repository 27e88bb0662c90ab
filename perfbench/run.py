"""Benchmark of the gaussdpp command-line pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  NAME is one of the workloads in workloads.py, or `all` to run
each in turn.  The seed fixes every input and CLI seed.  Iterations of
the workload's pipeline run, each in a fresh directory with its own HOME
and XDG_CACHE_HOME, until S seconds have passed; every CLI command is a
separate process, timed from outside, with its peak RSS read from
wait4.  Outputs are checked by independent recomputation after the
timed commands.  BLAS is pinned to one thread in every child process
(the inherited settings are recorded): with the default two threads,
repeated `sample --L 60` runs on a 2-vCPU VM spread 19% against 5%.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported:
set-up time (fresh `gaussdpp --version` processes, two before each
iteration), pipeline wall time, work per second and peak RSS, all as
medians over the run.
With --trace 1 each iteration runs once plainly and once through
traced_cli.py, and the per-layer metrics are reported as medians.  The
last line of output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Step

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PER_ITERATION = 2  # set-up samples are spread over the run, like the iterations
RUN_LIMIT_S = 170.0   # children still running this long after the start are killed

# Counters combined over the calls of one iteration by something other than a sum.
COUNTER_REDUCERS = {"sampling.modes": max, "estimator.r_used": statistics.median}


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    returncode: int
    stderr_tail: str


@dataclass
class Iteration:
    steps: list[Step]
    procs: dict[str, Proc]
    problems: dict[str, list[str]]
    items: float = 0.0
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs.values())

    @property
    def rss_mb(self) -> float:
        return max((p.rss_mb for p in self.procs.values()), default=0.0)


def child_env() -> dict[str, str]:
    # Children may cache bytecode, as an installed package would, whatever
    # the caller's PYTHONDONTWRITEBYTECODE says.
    env = {k: v for k, v in os.environ.items()
           if k not in ("GAUSSDPP_JOBS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_child(cmd: list[str], cwd: Path, env: dict[str, str], limit: float) -> Proc:
    """Run one process to completion; wall time and its own peak RSS."""
    with open(cwd / ".stdout", "wb") as out, open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(limit - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-300:].decode(errors="replace").strip()
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode, tail)


def fresh_dir(base: Path, env: dict[str, str]) -> tuple[Path, dict[str, str]]:
    work = Path(tempfile.mkdtemp(dir=base))
    (work / "home").mkdir()
    (work / "cache").mkdir()
    return work, dict(env, HOME=str(work / "home"), XDG_CACHE_HOME=str(work / "cache"))


def run_iteration(workload, seed: int, index: int, base: Path, env: dict[str, str],
                  limit: float, traced: bool = False) -> tuple[Iteration, list[dict]]:
    """One pipeline iteration in a fresh directory, then its output checks.
    Returns the iteration and, when traced, each process's span record."""
    work, env = fresh_dir(base, env)
    steps = workload.steps(work, seed, index)
    procs: dict[str, Proc] = {}
    for n, step in enumerate(steps):
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(work / f".spans-{n}.json"), "--",
                   *step.argv]
        else:
            cmd = [sys.executable, "-m", "gaussdpp.cli", *step.argv]
        proc = procs[step.label] = run_child(cmd, work, env, limit)
        if proc.returncode != 0:
            break
    problems = {s.label: (["not run: an earlier step failed"] if s.label not in procs else
                          [f"exit status {procs[s.label].returncode}: "
                           f"{procs[s.label].stderr_tail}"])
                for s in steps
                if s.label not in procs or procs[s.label].returncode != 0}
    it = Iteration(steps, procs, problems)
    check_outputs(workload, work, it)
    spans = []
    if traced:
        for n in range(len(procs)):
            path = work / f".spans-{n}.json"
            if path.is_file():
                spans.append(json.loads(path.read_text()))
    shutil.rmtree(work)
    return it, spans


def check_outputs(workload, work: Path, it: Iteration) -> None:
    """Run the workload's checks on the steps that ran; on success read the
    iteration's work count and quality numbers."""
    for label, check in workload.checks(work).items():
        if label in it.problems:
            continue
        try:
            found = check()
        except Exception as exc:  # a malformed output is a failed check, not a crash
            found = [f"output could not be checked: {exc!r}"]
        if found:
            it.problems[label] = found
    if not it.problems:
        it.items = workload.items(work)
        it.quality = workload.quality(work)


def version_process(base: Path, env: dict[str, str], limit: float) -> Proc:
    """One fresh `gaussdpp --version` process: interpreter start and package import."""
    work, env = fresh_dir(base, env)
    proc = run_child([sys.executable, "-m", "gaussdpp.cli", "--version"], work, env, limit)
    shutil.rmtree(work)
    return proc


def layer_values(plain: Iteration, traced: Iteration, spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one iteration: self time, call counts, counters
    and shares from the traced run; per-command wall time from the plain run."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    events: dict[str, list[float]] = defaultdict(list)
    for record in spans:
        for name, value in record["self_s"].items():
            self_s[name] += value
        for span in record["spans"]:
            calls[span[0]] += 1
        for name, value in record["events"]:
            events[name].append(value)
    values: dict[str, float] = {}
    for name, value in self_s.items():
        values[f"{name}_s"] = value
        values[f"{name}_calls"] = calls[name]
        values[f"{name}_share"] = 100.0 * value / traced.wall_s
    for name, seen in events.items():
        values[name] = COUNTER_REDUCERS.get(name, sum)(seen)
    if values.get("sampling.sample_gdp_s"):
        values["sampling.points_per_s"] = values["sampling.points"] / values["sampling.sample_gdp_s"]
    for step in plain.steps:
        if step.label in plain.procs:
            key = f"cli.{step.command}_s"
            values[key] = values.get(key, 0.0) + plain.procs[step.label].wall_s
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    values.update(plain.quality)
    return values


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.4g}, q3={q3:.4g}"


def measure(workload, seed: int, seconds: float, trace: bool, spec: dict,
            base: Path) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and report lines."""
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    env = child_env()
    setup: list[Proc] = []
    if not trace:
        version_process(base, env, limit)  # warm-up: fills the bytecode cache
    loop_start = time.monotonic()
    iterations: list[Iteration] = []
    layers: list[dict[str, float]] = []
    missing: set[str] = set()
    index = 0
    last = 0.0
    # Start an iteration only if it should end within the measuring time.
    while index == 0 or time.monotonic() - loop_start + last <= seconds:
        began = time.monotonic()
        if not trace:
            setup += [version_process(base, env, limit) for _ in range(SETUP_PER_ITERATION)]
        plain, _ = run_iteration(workload, seed, index, base, env, limit)
        iterations.append(plain)
        if trace:
            traced, spans = run_iteration(workload, seed, index, base, env, limit, traced=True)
            iterations.append(traced)
            layers.append(layer_values(plain, traced, spans))
            for record in spans:
                missing.update(record["missing"])
        index += 1
        last = time.monotonic() - began
        if time.monotonic() > limit:
            break

    attempted = len(setup) + sum(len(it.steps) for it in iterations)
    failed = sum(p.returncode != 0 for p in setup) + sum(len(it.problems) for it in iterations)
    lines = [f"FAILED gaussdpp --version: exit status {p.returncode}: {p.stderr_tail}"
             for p in setup if p.returncode != 0]
    for n, it in enumerate(iterations):
        for label, found in it.problems.items():
            lines.append(f"FAILED iteration {n} step {label}: {'; '.join(found)}")
    metrics: dict[str, dict] = {}
    if trace:
        for m in spec["per_layer"]:
            seen = [values.get(m["name"], 0.0) for values in layers]
            metrics[m["name"]] = {"value": float(median(seen)), "unit": m["unit"]}
            lines.append(f"{m['name']:40s} {median(seen):12.6g} {m['unit']:6s} ({spread(seen)})")
        shares = {key[:-len("_share")]: median([values.get(key, 0.0) for values in layers])
                  for key in {k for values in layers for k in values if k.endswith("_share")}}
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        lines.append("largest self-time shares of the traced wall time: "
                     + ", ".join(f"{name} {share:.1f}%" for name, share in top))
        if missing:
            lines.append("layer functions not found (renamed or removed): "
                         + ", ".join(sorted(missing)))
    else:
        good = [it for it in iterations if not it.problems]
        observed = {
            "setup_s": [p.wall_s for p in setup if p.returncode == 0],
            "wall_s": [it.wall_s for it in good],
            "items_per_s": [it.items / it.wall_s for it in good],
            "peak_rss_mb": [it.rss_mb for it in good],
        }
        for m in spec["end_to_end"]:
            seen = observed[m["name"]]
            metrics[m["name"]] = {"value": float(median(seen)), "unit": m["unit"]}
            lines.append(f"{m['name']:12s} {median(seen):12.6g} {m['unit']:5s} ({spread(seen)})")
        lines.append(f"items_per_s counts {workload.item_unit}")
    lines.append(f"fail_frac    {failed / attempted:12.6g} ({failed} of {attempted} operations)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "inherited_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "child_threads": {var: "1" for var in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaussdpp" / "cli.py").is_file():
        print(f"perfbench: no gaussdpp sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    print("env " + json.dumps(environment(), sort_keys=True))
    results = {}
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as base:
        for name in names:
            result, lines = measure(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), spec, Path(base))
            print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
            print("\n".join(lines))
            results[name] = result
    if len(names) > 1:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{metric}": value for name, r in results.items()
                              for metric, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
