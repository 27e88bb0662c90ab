"""Run one gaussdpp command line with spans around its layer functions.

    python perfbench/traced_cli.py SPANS_JSON -- <gaussdpp arguments...>

The program under test is not modified.  Each public layer function in
LAYERS is wrapped, and the wrapper is installed on every gaussdpp module
attribute bound to that function, which is where its callers look it up
(for example both `gaussdpp.cli.estimate_scattering` and the recursive
pilot call through `gaussdpp.estimator.estimate_scattering`).  A span
records name, start, end and parent; counters read work counts from the
return values.  Spans stay in memory and are written to SPANS_JSON when
the command ends, together with per-name self time (span time minus the
time covered by child spans).  A layer function that no longer exists is
listed under "missing" and the command still runs.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = [
    ("cli", "main"),
    ("sampling", "sample_gdp"),
    ("sampling", "build_spectral_basis"),
    ("sampling", "empirical_pair_correlation"),
    ("estimator", "estimate_scattering"),
    ("estimator", "build_neighborhoods"),
    ("spiked", "calibrate_null_threshold"),
    ("dimred", "dpp_embed"),
    ("dimred", "pair_difference_sum"),
    ("dimred", "pca_embed"),
    ("dimred", "roc_auc"),
    ("patterns", "save_pattern"),
    ("patterns", "load_pattern"),
    ("patterns", "extract_ball"),
    ("datasets", "load_dataset"),
]


def _estimate_counts(result, nested):
    counts = {"estimator.pairs": result.pair_count}
    if not nested:  # the pilot estimate's cutoff is not the one reported
        counts["estimator.r_used"] = result.r_used
    return counts


# Work counts read from return values; `nested` is true when the call sits
# inside another span of the same name.
COUNTERS = {
    "sampling.sample_gdp": lambda res, nested: {"sampling.points": len(res)},
    "sampling.build_spectral_basis":
        lambda res, nested: {"sampling.modes": res.modes.shape[0]},
    "estimator.estimate_scattering": _estimate_counts,
    "spiked.calibrate_null_threshold":
        lambda res, nested: {"spiked.null_replicates": len(res.statistics)},
    "dimred.pair_difference_sum":
        lambda res, nested: {"dimred.pair_count": res[1]},
    "datasets.load_dataset": lambda res, nested: {"datasets.rows": res.n_rows},
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.events: list[list] = []  # [counter name, value]
        self.stack: list[int] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            nested = any(self.spans[i][0] == name for i in self.stack)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if counter is not None:
                self.events.extend(counter(result, nested).items())
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out


def install(recorder: Recorder) -> list[str]:
    """Wrap every LAYERS function where gaussdpp modules bind it; return
    the names that could not be found."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "gaussdpp" or n.startswith("gaussdpp.")]
    missing = []
    for module, func in LAYERS:
        fn = getattr(sys.modules.get(f"gaussdpp.{module}"), func, None)
        if fn is None:
            missing.append(f"{module}.{func}")
            continue
        wrapper = recorder.wrap(f"{module}.{func}", fn)
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                setattr(mod, attr, wrapper)
    return missing


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: traced_cli.py SPANS_JSON -- <gaussdpp arguments...>",
              file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[3:]
    recorder = Recorder()
    t0 = time.perf_counter()
    import gaussdpp.cli
    recorder.spans.append(["cli.import", t0, time.perf_counter(), -1])
    missing = install(recorder)
    try:
        return gaussdpp.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": recorder.spans, "events": recorder.events,
                       "self_s": recorder.self_times(), "missing": missing}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
