"""The benchmark's workloads: CLI pipelines, their inputs, checks and counts.

A workload turns (workload seed, iteration) into the command lines of one
pipeline iteration, run in a fresh directory.  After the timed commands
have run, `checks` maps each step label to a callable returning the
problems found in that step's outputs, `items` counts the work the
iteration did, and `quality` reads the statistical results that are
reported but not gated.  Why
each workload exists, and which layer metrics it should move, is written
down in layer_map.json.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Step:
    label: str        # unique within an iteration; failures are counted per step
    argv: list[str]   # gaussdpp arguments, subcommand first

    @property
    def command(self) -> str:
        return self.argv[0]


def derived_seed(seed: int, iteration: int, stream: int) -> int:
    """Deterministic CLI seed for one command of one iteration."""
    return int(np.random.SeedSequence([seed, iteration, stream]).generate_state(1)[0])


def _frob(est_json: Path, sigma: np.ndarray) -> float:
    return float(np.linalg.norm(checks.estimate_matrix(checks.read_json(est_json)) - sigma))


class InferD2:
    """sample -> estimate -> analytic detect on one spiked d=2 pattern."""

    item_unit = "points"

    def __init__(self, side: float = 45.0, lam: float = 3.0):
        self.side, self.lam = side, lam
        self.sigma = checks.scattering(2, lam)

    def steps(self, work: Path, seed: int, iteration: int) -> list[Step]:
        return [
            Step("sample", ["sample", "--d", "2", "--sigma", "spiked", "--lam", str(self.lam),
                            "--L", str(self.side), "--seed", str(derived_seed(seed, iteration, 0)),
                            "--out", "sample"]),
            Step("estimate", ["estimate", "--pattern", "sample/pattern", "--out", "estimate"]),
            Step("detect", ["detect", "--estimate", "estimate/estimate.json", "--out", "detect"]),
        ]

    def checks(self, work: Path) -> dict[str, Callable[[], list[str]]]:
        return {
            "sample": partial(checks.check_pattern, work / "sample/pattern", self.sigma,
                              self.side),
            "estimate": partial(checks.check_estimate, work / "sample/pattern",
                                work / "estimate/estimate.json"),
            "detect": partial(checks.check_detect, work / "estimate/estimate.json",
                              work / "detect/detect.json"),
        }

    def items(self, work: Path) -> float:
        return float(len(checks.read_points(work / "sample/pattern")))

    def quality(self, work: Path) -> dict[str, float]:
        det = checks.read_json(work / "detect/detect.json")
        return {"estimator.frob_err": _frob(work / "estimate/estimate.json", self.sigma),
                "spiked.statistic": det["statistic"], "spiked.threshold": det["threshold"],
                "spiked.reject": float(det["reject"])}


class CalibrateD2:
    """Two small patterns (spiked and isotropic), each estimated and tested
    with `detect --calibrate` against the same null settings."""

    item_unit = "null replicates"

    def __init__(self, side: float = 28.0, lam: float = 3.0, null_replicates: int = 5,
                 delta: float = 0.2):
        self.side, self.lam = side, lam
        self.null_replicates, self.delta = null_replicates, delta
        self.sigmas = {"spiked": checks.scattering(2, lam), "iso": checks.scattering(2)}

    def steps(self, work: Path, seed: int, iteration: int) -> list[Step]:
        null_seed = str(derived_seed(seed, iteration, 2))
        steps = []
        for stream, name in enumerate(self.sigmas):
            model = ["--sigma", "spiked", "--lam", str(self.lam)] if name == "spiked" else []
            steps.append(Step(f"sample-{name}", [
                "sample", "--d", "2", *model, "--L", str(self.side),
                "--seed", str(derived_seed(seed, iteration, stream)), "--out", f"sample-{name}"]))
        for name in self.sigmas:
            steps.append(Step(f"estimate-{name}", [
                "estimate", "--pattern", f"sample-{name}/pattern", "--out", f"estimate-{name}"]))
        for name in self.sigmas:
            steps.append(Step(f"detect-{name}", [
                "detect", "--estimate", f"estimate-{name}/estimate.json", "--calibrate",
                "--null-replicates", str(self.null_replicates), "--delta", str(self.delta),
                "--seed", null_seed, "--L", str(self.side), "--out", f"detect-{name}"]))
        return steps

    def checks(self, work: Path) -> dict[str, Callable[[], list[str]]]:
        found = {}
        for name, sigma in self.sigmas.items():
            stem = work / f"sample-{name}/pattern"
            found[f"sample-{name}"] = partial(checks.check_pattern, stem, sigma, self.side)
            found[f"estimate-{name}"] = partial(checks.check_estimate, stem,
                                                work / f"estimate-{name}/estimate.json")
            found[f"detect-{name}"] = partial(self._check_detect, work, name)
        return found

    def _check_detect(self, work: Path, name: str) -> list[str]:
        problems = checks.check_detect(work / f"estimate-{name}/estimate.json",
                                       work / f"detect-{name}/detect.json",
                                       work / f"detect-{name}/calibration.json")
        if name == "iso":  # the second calibration repeats the first one's inputs
            stats = [checks.read_json(work / f"detect-{other}/calibration.json")["statistics"]
                     for other in self.sigmas]
            if stats[0] != stats[1]:
                problems.append("detect: identical null settings gave different null statistics")
        return problems

    def items(self, work: Path) -> float:
        return float(sum(len(checks.read_json(work / f"detect-{name}/calibration.json")
                             ["statistics"]) for name in self.sigmas))

    def quality(self, work: Path) -> dict[str, float]:
        spiked = checks.read_json(work / "detect-spiked/detect.json")
        iso = checks.read_json(work / "detect-iso/detect.json")
        return {"spiked.statistic": spiked["statistic"], "spiked.threshold": spiked["threshold"],
                "spiked.reject": float(spiked["reject"]),
                "spiked.reject_null": float(iso["reject"])}


class ReduceRoc:
    """DPP (all pairs and finite r) and PCA embeddings of a generated
    labelled dataset, each scored by `roc`."""

    item_unit = "rows embedded"

    def __init__(self, rows: int = 2000, features: int = 30, pair_share: float = 0.1):
        self.rows, self.features, self.pair_share = rows, features, pair_share

    def make_dataset(self, path: Path, seed: int, iteration: int) -> float:
        """Write the dataset CSV and return the cutoff r that keeps
        `pair_share` of all pairs of the standardized rows."""
        rng = np.random.default_rng([seed, iteration, 3])
        labels = rng.random(self.rows) < 0.5
        scales = np.exp(rng.uniform(-1.0, 1.5, self.features))  # uneven feature scales
        shift = np.zeros(self.features)
        shift[rng.choice(self.features, 5, replace=False)] = 1.0  # two-class mean shift
        x = (rng.standard_normal((self.rows, self.features)) + np.outer(labels, shift)) * scales
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{j + 1}" for j in range(self.features)] + ["label"])
            for row, label in zip(x, labels):
                writer.writerow([repr(float(v)) for v in row] + [int(label)])
        xs = checks.standardize(checks.read_dataset(path)[0])
        sq = np.einsum("ij,ij->i", xs, xs)
        dist2 = sq[:, None] + sq[None, :] - 2.0 * xs @ xs.T
        return float(np.sqrt(np.quantile(dist2[np.triu_indices(self.rows, 1)], self.pair_share)))

    def steps(self, work: Path, seed: int, iteration: int) -> list[Step]:
        r = self.make_dataset(work / "data.csv", seed, iteration)
        (work / "cutoff.txt").write_text(repr(r))
        data = ["--data", "data.csv", "--label-column", "label", "--positive-label", "1"]
        steps = [
            Step("reduce-dpp", ["reduce", *data, "--method", "dpp", "--out", "dpp"]),
            Step("reduce-dpp-r", ["reduce", *data, "--method", "dpp", "--standardize",
                                  "--r", repr(r), "--out", "dpp-r"]),
            Step("reduce-pca", ["reduce", *data, "--method", "pca", "--out", "pca"]),
        ]
        for out in ("dpp", "dpp-r", "pca"):
            steps.append(Step(f"roc-{out}", ["roc", "--embedding", f"{out}/embedding.csv",
                                             "--out", f"roc-{out}"]))
        return steps

    def checks(self, work: Path) -> dict[str, Callable[[], list[str]]]:
        data = work / "data.csv"
        r = float((work / "cutoff.txt").read_text())
        found = {
            "reduce-dpp": partial(checks.check_reduce, data, work / "dpp/reduce.json", "dpp"),
            "reduce-dpp-r": partial(checks.check_reduce, data, work / "dpp-r/reduce.json",
                                    "dpp", r=r, standardized=True),
            "reduce-pca": partial(checks.check_reduce, data, work / "pca/reduce.json", "pca"),
        }
        for out in ("dpp", "dpp-r", "pca"):
            found[f"roc-{out}"] = partial(checks.check_roc, work / f"{out}/embedding.csv",
                                          work / f"roc-{out}/roc.json", self.rows)
        return found

    def items(self, work: Path) -> float:
        return float(sum(checks.read_json(work / f"{out}/reduce.json")["count"]
                         for out in ("dpp", "dpp-r", "pca")))

    def quality(self, work: Path) -> dict[str, float]:
        return {"dimred.auc_dpp": checks.read_json(work / "roc-dpp/roc.json")["auc"],
                "dimred.auc_pca": checks.read_json(work / "roc-pca/roc.json")["auc"]}


class ValidateD3:
    """`validate` in d=3: replicate sampling plus the pair correlation."""

    item_unit = "points in the observation ball"

    def __init__(self, side: float = 12.0, replicates: int = 2):
        self.side, self.replicates = side, replicates

    def steps(self, work: Path, seed: int, iteration: int) -> list[Step]:
        return [Step("validate", ["validate", "--d", "3", "--L", str(self.side),
                                  "--replicates", str(self.replicates),
                                  "--seed", str(derived_seed(seed, iteration, 0)),
                                  "--out", "validate"])]

    def checks(self, work: Path) -> dict[str, Callable[[], list[str]]]:
        return {"validate": partial(checks.check_validate, work / "validate", 3, self.side,
                                    self.replicates)}

    def items(self, work: Path) -> float:
        val = checks.read_json(work / "validate/validate.json")
        return val["mean_count"] * val["replicates"]

    def quality(self, work: Path) -> dict[str, float]:
        val = checks.read_json(work / "validate/validate.json")
        return {"sampling.intensity": val["intensity"],
                "sampling.paircorr_max_abs_err": val["paircorr_max_abs_err"]}


WORKLOADS = {
    "infer-d2": InferD2(),
    "calibrate-d2": CalibrateD2(),
    "reduce-roc": ReduceRoc(),
    "validate-d3": ValidateD3(),
}

# Tiny sizes of the same pipelines, for the smoke test.
TINY = {
    "infer-d2": InferD2(side=28.0),
    "calibrate-d2": CalibrateD2(null_replicates=3),
    "reduce-roc": ReduceRoc(rows=120, features=6),
    "validate-d3": ValidateD3(side=6.0),
}
