"""Command-line surface for reproducible experiments.

Every run writes its resolved configuration (run_config.json) next to its
outputs; re-running with `gaussdpp --config <that file> --out <dir>`
reproduces the payload files byte for byte.  result.json wraps the
payload in a schema-versioned envelope that also records the tool version
and wall-clock time (the one field that varies between reruns).

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import load_dataset
from .dimred import dpp_embed, pca_embed, risk_scores, roc_auc, scree
from .estimator import (EstimatorConfig, bernstein_tail, bias_bound,
                        count_expectation, estimate_scattering, risk_rate,
                        variance_bound)
from .kernel import (ScatteringMatrix, isotropic_scattering,
                     normalize_scattering, spiked_scattering,
                     truncated_pair_correlation)
from .patterns import BoxWindow, PointPattern, extract_ball, load_pattern, save_pattern
from .sampling import (count_dispersion_test, empirical_pair_correlation,
                       sample_gdp_ensemble, sample_poisson)
from .spiked import (calibrate_null_threshold, detection_test,
                     detection_test_calibrated, estimate_spike)

SCHEMA_VERSION = 1


def _default_jobs() -> int:
    raw = os.environ.get("GAUSSDPP_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _checked(convert, ok, requirement: str):
    """argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


_side = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_tol = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")


def _parse_sigma(args, d: int) -> ScatteringMatrix:
    if args.sigma_entries:
        rows = [[float(v) for v in row.split(",")]
                for row in args.sigma_entries.split(";")]
        sigma = ScatteringMatrix(np.asarray(rows))
        if sigma.dim != d:
            raise ValueError(f"--sigma-entries is {sigma.dim}x{sigma.dim} but --d is {d}")
        return normalize_scattering(sigma)
    if args.sigma == "iso":
        return isotropic_scattering(d)
    if args.sigma == "spiked":
        if args.u:
            u = np.asarray([float(v) for v in args.u.split(",")])
            u = u / math.sqrt(float(u @ u))
        else:
            u = np.zeros(d)
            u[0] = 1.0
        return spiked_scattering(args.lam, u, d)
    raise ValueError(f"unknown --sigma {args.sigma!r}")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def _finish(args, command: str, payload: dict, t0: float) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    argv = list(getattr(args, "_argv", []))
    config = {"command": command, "argv": argv,
              "params": {k: v for k, v in vars(args).items()
                         if not k.startswith("_") and k not in ("out", "func")}}
    _write_json(out / "run_config.json", config)
    envelope = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
                "command": command, "config": config,
                "wall_time_s": time.perf_counter() - t0, "payload": payload}
    _write_json(out / "result.json", envelope)
    print(json.dumps({"command": command, "out": str(out), **_summary(payload)}))
    return 0


def _summary(payload: dict) -> dict:
    keep = ("count", "auc", "reject", "statistic", "threshold", "mean_count",
            "dispersion_ratio")
    return {k: payload[k] for k in keep if k in payload}


def _cmd_sample(args) -> int:
    t0 = time.perf_counter()
    sigma = _parse_sigma(args, args.d)
    window = BoxWindow(args.L, args.d)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.process == "poisson":
        patterns = [sample_poisson(1.0, window, (args.seed, i))
                    for i in range(args.replicates)]
    else:
        patterns = sample_gdp_ensemble(sigma, window, args.replicates,
                                       args.seed, tol=args.tol,
                                       jobs=_default_jobs())
    names = []
    for i, pat in enumerate(patterns):
        stem = out / ("pattern" if args.replicates == 1 else f"pattern_{i:04d}")
        save_pattern(pat, stem, seed=[args.seed, i], sigma_entries=sigma.entries,
                     tol=args.tol, extra={"process": args.process})
        names.append(stem.name)
    payload = {"patterns": names, "count": len(patterns[0]),
               "counts": [len(p) for p in patterns]}
    return _finish(args, "sample", payload, t0)


def _load_estimate_config(args) -> EstimatorConfig:
    return EstimatorConfig(r=args.r, R=args.R, c0=args.C0)


def _cmd_estimate(args) -> int:
    t0 = time.perf_counter()
    pattern, _meta = load_pattern(args.pattern)
    if args.ball_radius is not None:
        pattern = extract_ball(pattern, args.ball_radius)
    result = estimate_scattering(pattern, _load_estimate_config(args))
    payload = result.to_json_dict(c_variance=args.C, c_rate=args.c)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "estimate.json", payload)
    return _finish(args, "estimate", payload, t0)


def _cmd_detect(args) -> int:
    t0 = time.perf_counter()
    with open(args.estimate) as fh:
        est = json.load(fh)
    d = est["dim"]
    sigma_hat = np.asarray(est["sigma_hat"], dtype=float).reshape(d, d)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload: dict
    if args.calibrate:
        side = args.L if args.L is not None else 2.0 * est["R_used"]
        cal = calibrate_null_threshold(d, side, args.delta,
                                       args.null_replicates, args.seed,
                                       jobs=_default_jobs())
        result = detection_test_calibrated(sigma_hat, cal.threshold)
        _write_json(out / "calibration.json", cal.to_json_dict())
        payload = {**result.to_json_dict(), "mode": "calibrated",
                   "delta": args.delta, "null_replicates": args.null_replicates}
    else:
        result = detection_test(sigma_hat, est["n"], d, args.t, args.c)
        payload = {**result.to_json_dict(), "mode": "analytic"}
    spike = estimate_spike(sigma_hat)
    payload["spike"] = spike.to_json_dict()
    _write_json(out / "detect.json", payload)
    return _finish(args, "detect", payload, t0)


def _cmd_reduce(args) -> int:
    t0 = time.perf_counter()
    dataset = load_dataset(args.data, args.label_column, args.positive_label)
    if args.method == "dpp":
        r_mode = "all_pairs" if args.r is None else args.r
        proj = dpp_embed(dataset, args.k, r_mode=r_mode,
                         standardize=args.standardize)
    else:
        proj = pca_embed(dataset, args.k, center=not args.no_center,
                         scale=not args.no_scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    labels = dataset.labels if dataset.labels is not None else [""] * dataset.n_rows
    rows = [[i, *map(float, proj.coords[i]), labels[i]]
            for i in range(dataset.n_rows)]
    _write_csv(out / "embedding.csv",
               ["row", *(f"coord{j + 1}" for j in range(args.k)), "label"], rows)
    _write_csv(out / "scree.csv", ["rank", "eigenvalue"], scree(proj.eigvals))
    payload = {"method": proj.method, "k": args.k, "count": dataset.n_rows,
               "eigvals": proj.eigvals.tolist(), "r_used": proj.r_used}
    _write_json(out / "reduce.json", payload)
    return _finish(args, "reduce", payload, t0)


def _cmd_roc(args) -> int:
    t0 = time.perf_counter()
    coords = []
    labels = []
    with open(args.embedding, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ncoord = sum(1 for h in header if h.startswith("coord"))
        for row in reader:
            coords.append([float(v) for v in row[1:1 + ncoord]])
            labels.append(row[-1])
    if args.component < 1 or args.component > ncoord:
        raise ValueError(f"--component must be in 1..{ncoord}")
    if args.positive_label is not None:
        lab = np.asarray([1 if v == str(args.positive_label) else 0
                          for v in labels])
    else:
        lab = np.asarray([int(v) for v in labels])
    scores = risk_scores(np.asarray(coords), args.component - 1, flip=args.flip)
    curve = roc_auc(scores, lab)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [[float(th), float(p[0]), float(p[1])]
            for th, p in zip(curve.thresholds, curve.points)]
    _write_csv(out / "roc.csv", ["threshold", "fpr", "tpr"], rows)
    payload = {"auc": curve.auc, "n_points": len(rows), "flip": args.flip,
               "component": args.component}
    _write_json(out / "roc.json", payload)
    return _finish(args, "roc", payload, t0)


def _cmd_validate(args) -> int:
    t0 = time.perf_counter()
    sigma = _parse_sigma(args, args.d)
    window = BoxWindow(args.L, args.d)
    patterns = sample_gdp_ensemble(sigma, window, args.replicates, args.seed,
                                   tol=args.tol, jobs=_default_jobs())
    radius = args.L / 2.0
    counts = np.asarray([len(extract_ball(p, radius)) for p in patterns])
    n_exp = count_expectation(radius, args.d)
    ratio, pvalue = count_dispersion_test(counts)
    bern = []
    for eps in (0.1, 0.2, 0.3):
        freq = float(np.mean(np.abs(counts / n_exp - 1.0) >= eps))
        bern.append({"eps": eps, "empirical": freq,
                     "bound": bernstein_tail(eps, radius, args.d)})

    edges = np.arange(0.0, args.r_max + args.bin_width / 2, args.bin_width)
    est = empirical_pair_correlation(patterns, edges)
    theory = [1.0 + truncated_pair_correlation(
        sigma, np.zeros(args.d), np.r_[c, np.zeros(args.d - 1)])
        for c, _ in est]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "paircorr.csv", ["center", "empirical", "theoretical"],
               [[c, g, th] for (c, g), th in zip(est, theory)])
    payload = {
        "replicates": args.replicates,
        "mean_count": float(counts.mean()),
        "expected_count": n_exp,
        "count_variance": float(counts.var(ddof=1)),
        "dispersion_ratio": ratio,
        "dispersion_pvalue": pvalue,
        "bernstein": bern,
        "intensity": float(counts.mean() / n_exp),
        "paircorr_max_abs_err": max(abs(g - th) for (_, g), th in zip(est, theory)),
    }
    _write_json(out / "validate.json", payload)
    return _finish(args, "validate", payload, t0)


def _cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    payload: dict = {}
    if args.bernstein:
        payload["bernstein"] = bernstein_tail(args.eps, args.R, args.d)
    if args.bias:
        sigma = _parse_sigma(args, args.d)
        payload["bias_bound"] = bias_bound(sigma, args.r)
    if args.variance:
        payload["variance_bound"] = variance_bound(args.r, args.d, args.n, args.C)
    if args.rate:
        payload["risk_rate"] = risk_rate(args.n, args.d, args.c)
    if args.count:
        payload["count_expectation"] = count_expectation(args.R, args.d)
    if not payload:
        raise ValueError("select at least one of --bernstein/--bias/--variance/--rate/--count")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "bounds.json", payload)
    return _finish(args, "bounds", payload, t0)


def _add_sigma_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", default="iso", choices=["iso", "spiked"],
                   help="scattering matrix family")
    p.add_argument("--lam", type=float, default=0.0, help="spike strength")
    p.add_argument("--u", default=None,
                   help="comma-separated spike direction (normalized internally)")
    p.add_argument("--sigma-entries", default=None,
                   help="explicit matrix, rows ';'-separated, entries ','-separated; "
                        "normalized on load")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussdpp",
        description="Gaussian determinantal point processes: simulate, estimate, "
                    "detect, reduce, evaluate.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="simulate point patterns on a box window")
    p.add_argument("--d", type=int, required=True)
    _add_sigma_flags(p)
    p.add_argument("--process", default="gdp", choices=["gdp", "poisson"])
    p.add_argument("--L", type=_side, required=True, help="box side")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=_tol, default=1e-6)
    p.add_argument("--replicates", type=_checked(int, lambda v: v >= 1, ">= 1"), default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="scattering-matrix estimate from a pattern")
    p.add_argument("--pattern", required=True,
                   help="pattern file stem (reads <stem>.csv and <stem>.json)")
    p.add_argument("--r", type=float, default=None, help="cutoff radius (default: auto)")
    p.add_argument("--R", type=float, default=None, help="observation ball radius")
    p.add_argument("--ball-radius", type=float, default=None,
                   help="restrict a box pattern to this ball before estimating")
    p.add_argument("--C0", type=float, default=1.0, help="auto-cutoff constant")
    p.add_argument("--C", type=float, default=1.0, help="variance-bound constant")
    p.add_argument("--c", type=float, default=1.0, help="rate constant")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("detect", help="spike detection test on an estimate")
    p.add_argument("--estimate", required=True, help="estimate.json from `estimate`")
    p.add_argument("--t", type=float, default=20.0, help="analytic threshold multiplier")
    p.add_argument("--c", type=float, default=1.0, help="rate constant")
    p.add_argument("--calibrate", action="store_true",
                   help="Monte-Carlo null calibration instead of the analytic threshold")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--null-replicates", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--L", type=_side, default=None,
                   help="box side for null simulation (default 2 * R_used)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("reduce", help="DPP or PCA embedding of a dataset")
    p.add_argument("--data", required=True, help="feature CSV with header")
    p.add_argument("--label-column", default=None)
    p.add_argument("--positive-label", default=None)
    p.add_argument("--method", required=True, choices=["dpp", "pca"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--r", type=float, default=None,
                   help="explicit DPP cutoff (default: all pairs)")
    p.add_argument("--standardize", action="store_true",
                   help="center+scale features before the DPP pipeline")
    p.add_argument("--no-center", action="store_true", help="PCA: skip centering")
    p.add_argument("--no-scale", action="store_true", help="PCA: use covariance")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("roc", help="ROC/AUC of a risk score from an embedding")
    p.add_argument("--embedding", required=True, help="embedding.csv from `reduce`")
    p.add_argument("--component", type=int, default=1, help="1-based component index")
    p.add_argument("--flip", action="store_true", help="negate the risk scores")
    p.add_argument("--positive-label", default=None,
                   help="label value mapped to 1 (otherwise labels must be 0/1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser("validate", help="simulation fidelity report")
    p.add_argument("--d", type=int, required=True)
    _add_sigma_flags(p)
    p.add_argument("--L", type=_side, required=True)
    p.add_argument("--replicates", type=_checked(int, lambda v: v >= 2, ">= 2"), default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=_tol, default=1e-6)
    p.add_argument("--bin-width", type=float, default=0.1)
    p.add_argument("--r-max", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bounds", help="theoretical bound calculators")
    p.add_argument("--bernstein", action="store_true")
    p.add_argument("--bias", action="store_true")
    p.add_argument("--variance", action="store_true")
    p.add_argument("--rate", action="store_true")
    p.add_argument("--count", action="store_true")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--r", type=float, default=3.0)
    p.add_argument("--n", type=float, default=100.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    _add_sigma_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds)
    return parser


def _replay_argv(argv: list[str]) -> list[str]:
    """Expand a leading `--config FILE` into the stored argument vector,
    keeping any `--out` given alongside it."""
    if not argv or argv[0] != "--config":
        return argv
    if len(argv) < 2:
        raise SystemExit("--config requires a file path")
    with open(argv[1]) as fh:
        config = json.load(fh)
    stored = [config["command"], *config["argv"]]
    return stored + list(argv[2:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _replay_argv(argv)
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"gaussdpp: bad --config: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    # Stored for the config echo: everything after the subcommand, minus --out.
    tokens = argv[1:]
    cleaned = []
    skip = False
    for i, tok in enumerate(tokens):
        if skip:
            skip = False
            continue
        if tok == "--out":
            skip = True
            continue
        if tok.startswith("--out="):
            continue
        cleaned.append(tok)
    args._argv = cleaned
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"gaussdpp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
