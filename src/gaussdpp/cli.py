"""Command-line surface for reproducible experiments.

Every run writes its resolved configuration (run_config.json) next to its
outputs; re-running with `gaussdpp --config <that file> --out <dir>`
reproduces the payload files byte for byte.  result.json wraps the
payload in a schema-versioned envelope that also records the tool version
and wall-clock time (the one field that varies between reruns).

`detect --calibrate` caches the K null statistics it simulates, one JSON
file per key under ${XDG_CACHE_HOME:-~/.cache}/gaussdpp/null/.  The key
is the SHA-256 of the package's *.py sources, the numpy version, d, the
null box side, the spectral tolerance, the estimator settings (r, R, C0)
recorded in estimate.json, K (--null-replicates) and the null --seed; the
file is named by the SHA-256 of that key.  --delta is not part of it: a
later call with the same key reads the statistics instead of simulating
them and takes its own threshold from them, so calibration.json and
detect.json are the same either way.  result.json reports
"calibration_cache": "hit" or "miss".  Deleting the directory clears the
cache; an unreadable entry is recomputed and an unwritable one ignored.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
import time
from contextlib import suppress
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
from .patterns import BoxWindow, extract_ball, load_pattern, save_pattern
from .sampling import (count_dispersion_test, empirical_pair_correlation,
                       sample_gdp_ensemble, sample_poisson)
from .spiked import (NullCalibration, calibrate_null_threshold, detection_test,
                     detection_test_calibrated, estimate_spike)

SCHEMA_VERSION = 1
NULL_TOL = 1e-6  # spectral truncation of the null simulations


def _checked(convert, ok, requirement: str):
    """argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


_positive_finite = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_tol = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
_strength = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")


def _direction(text: str) -> list[float]:
    """argparse type of --u: comma-separated finite numbers, not all zero.
    Whether the length matches --d is checked when the matrix is built."""
    try:
        u = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text}") from None
    if not all(map(math.isfinite, u)) or not any(u):
        raise argparse.ArgumentTypeError(f"must be finite with a nonzero norm, got {text}")
    return u


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
            u = np.asarray(args.u) / math.hypot(*args.u)
        else:
            u = np.zeros(d)
            u[0] = 1.0
        return spiked_scattering(args.lam, u, d)
    raise ValueError(f"unknown --sigma {args.sigma!r}")


def _write_json(path: Path, obj) -> None:
    """Strict JSON: a non-finite float raises ValueError before the file
    is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def _finish(args, out: Path, payload: dict, t0: float, status: dict) -> int:
    """Write run_config.json and result.json; `status` goes into the
    envelope only, beside the payload."""
    argv = list(getattr(args, "_argv", []))
    # A non-finite option value (reduce --r inf) is echoed by name, "inf".
    config = {"command": args.command, "argv": argv,
              "params": {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                         for k, v in vars(args).items()
                         if not k.startswith("_") and k not in ("out", "func")}}
    _write_json(out / "run_config.json", config)
    envelope = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
                "command": args.command, "config": config,
                "wall_time_s": time.perf_counter() - t0, **status,
                "payload": payload}
    _write_json(out / "result.json", envelope)
    print(json.dumps({"command": args.command, "out": str(out), **_summary(payload)}))
    return 0


def _summary(payload: dict) -> dict:
    keep = ("count", "auc", "reject", "statistic", "threshold", "mean_count",
            "dispersion_ratio")
    return {k: payload[k] for k in keep if k in payload}


def _cmd_sample(args, out: Path) -> dict:
    sigma = _parse_sigma(args, args.d)
    window = BoxWindow(args.L, args.d)
    if args.process == "poisson":
        patterns = [sample_poisson(1.0, window, (args.seed, i))
                    for i in range(args.replicates)]
    else:
        patterns = sample_gdp_ensemble(sigma, window, args.replicates,
                                       args.seed, tol=args.tol)
    names = []
    for i, pat in enumerate(patterns):
        stem = out / ("pattern" if args.replicates == 1 else f"pattern_{i:04d}")
        save_pattern(pat, stem, seed=[args.seed, i], sigma_entries=sigma.entries,
                     tol=args.tol, extra={"process": args.process})
        names.append(stem.name)
    return {"patterns": names, "count": len(patterns[0]),
            "counts": [len(p) for p in patterns]}


def _field(obj: dict, key: str, source):
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise ValueError(f"{source}: missing key {key!r}") from None


def _cmd_estimate(args, out: Path) -> dict:
    pattern, _meta = load_pattern(args.pattern)
    if args.ball_radius is not None:
        pattern = extract_ball(pattern, args.ball_radius)
    config = EstimatorConfig(r=args.r, R=args.R, c0=args.C0)
    result = estimate_scattering(pattern, config)
    payload = {**result.to_json_dict(c_variance=args.C, c_rate=args.c),
               "estimator": {"r": args.r, "R": args.R, "C0": args.C0}}
    _write_json(out / "estimate.json", payload)
    return payload


def _estimator_config(est: dict, source) -> EstimatorConfig:
    """The estimator settings recorded in an estimate.json; files that
    record none were made with the defaults."""
    block = est.get("estimator")
    if block is None:
        return EstimatorConfig()
    return EstimatorConfig(r=_field(block, "r", source), R=_field(block, "R", source),
                           c0=_field(block, "C0", source))


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "gaussdpp" / "null"


def _source_fingerprint() -> str:
    """SHA-256 over the names and bytes of the package's *.py sources."""
    import hashlib  # kept off the import path of `gaussdpp --version`
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _store_atomically(path: Path, obj) -> None:
    """Write through a temporary file and a rename, so a reader sees a
    whole file whatever other writers do; failures are ignored."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", dir=path.parent, suffix=".tmp",
                                         delete=False) as fh:
            tmp = fh.name
            json.dump(obj, fh)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)


def _calibrate_cached(d: int, side: float, delta: float, n_replicates: int, seed: int,
                      config: EstimatorConfig) -> tuple[NullCalibration, str]:
    """Null calibration through the on-disk cache (see the module
    docstring); returns it with "hit" or "miss"."""
    import hashlib
    key = {"source_sha256": _source_fingerprint(), "numpy": np.__version__,
           "d": d, "side": side, "tol": NULL_TOL,
           "estimator": {"r": config.r, "R": config.R, "c0": config.c0},
           "null_replicates": n_replicates, "seed": seed}
    name = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    path = _cache_dir() / f"{name}.json"
    try:
        with open(path) as fh:
            stored = json.load(fh)
        stats = stored["statistics"]
        if (stored["key"] == key and isinstance(stats, list) and len(stats) == n_replicates
                and all(type(v) is float and math.isfinite(v) for v in stats)):
            return NullCalibration.from_statistics(stats, delta), "hit"
    except (OSError, ValueError, KeyError, TypeError):
        pass  # missing or unreadable: recompute and overwrite
    cal = calibrate_null_threshold(d, side, delta, n_replicates, seed, config=config,
                                   tol=NULL_TOL)
    _store_atomically(path, {"key": key, "statistics": cal.statistics.tolist()})
    return cal, "miss"


def _cmd_detect(args, out: Path) -> tuple[dict, dict]:
    with open(args.estimate) as fh:
        est = json.load(fh)
    d = _field(est, "dim", args.estimate)
    sigma_hat = np.asarray(_field(est, "sigma_hat", args.estimate),
                           dtype=float).reshape(d, d)
    payload: dict
    status = {}
    if args.calibrate:
        side = args.L if args.L is not None else 2.0 * _field(est, "R_used", args.estimate)
        cal, status["calibration_cache"] = _calibrate_cached(
            d, side, args.delta, args.null_replicates, args.seed,
            _estimator_config(est, args.estimate))
        result = detection_test_calibrated(sigma_hat, cal.threshold)
        _write_json(out / "calibration.json", cal.to_json_dict())
        payload = {**result.to_json_dict(), "mode": "calibrated",
                   "delta": args.delta, "null_replicates": args.null_replicates}
    else:
        result = detection_test(sigma_hat, _field(est, "n", args.estimate), d,
                                args.t, args.c)
        payload = {**result.to_json_dict(), "mode": "analytic"}
    spike = estimate_spike(sigma_hat)
    payload["spike"] = spike.to_json_dict()
    _write_json(out / "detect.json", payload)
    return payload, status


def _cmd_reduce(args, out: Path) -> dict:
    dataset = load_dataset(args.data, args.label_column, args.positive_label)
    if args.method == "dpp":
        proj = dpp_embed(dataset, args.k, r=args.r, standardize=args.standardize)
    else:
        proj = pca_embed(dataset, args.k, center=not args.no_center,
                         scale=not args.no_scale)
    labels = dataset.labels if dataset.labels is not None else [""] * dataset.n_rows
    rows = [[i, *map(float, proj.coords[i]), labels[i]]
            for i in range(dataset.n_rows)]
    _write_csv(out / "embedding.csv",
               ["row", *(f"coord{j + 1}" for j in range(args.k)), "label"], rows)
    _write_csv(out / "scree.csv", ["rank", "eigenvalue"], scree(proj.eigvals))
    payload = {"method": proj.method, "k": args.k, "count": dataset.n_rows,
               "eigvals": proj.eigvals.tolist(), "r_used": proj.r_used}
    _write_json(out / "reduce.json", payload)
    return payload


def _cmd_roc(args, out: Path) -> dict:
    embedding = load_dataset(args.embedding, "label", args.positive_label)
    coords = embedding.features[:, [i for i, name in enumerate(embedding.feature_names)
                                    if name.startswith("coord")]]
    if args.component > coords.shape[1]:
        raise ValueError(f"--component must be in 1..{coords.shape[1]}")
    try:
        labels = embedding.labels.astype(np.int64)
    except ValueError:
        raise ValueError(f"{args.embedding}: labels must be integers "
                         "unless --positive-label is given") from None
    scores = risk_scores(coords, args.component - 1, flip=args.flip)
    curve = roc_auc(scores, labels)
    rows = [[float(th), float(p[0]), float(p[1])]
            for th, p in zip(curve.thresholds, curve.points)]
    _write_csv(out / "roc.csv", ["threshold", "fpr", "tpr"], rows)
    payload = {"auc": curve.auc, "n_points": len(rows), "flip": args.flip,
               "component": args.component}
    _write_json(out / "roc.json", payload)
    return payload


def _cmd_validate(args, out: Path) -> dict:
    sigma = _parse_sigma(args, args.d)
    window = BoxWindow(args.L, args.d)
    patterns = sample_gdp_ensemble(sigma, window, args.replicates, args.seed,
                                   tol=args.tol)
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
    return payload


def _cmd_bounds(args, out: Path) -> dict:
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
    _write_json(out / "bounds.json", payload)
    return payload


def _add_sigma_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", default="iso", choices=["iso", "spiked"],
                   help="scattering matrix family")
    p.add_argument("--lam", type=_strength, default=0.0, help="spike strength")
    p.add_argument("--u", type=_direction, default=None,
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
    p.add_argument("--d", type=_positive_int, required=True)
    _add_sigma_flags(p)
    p.add_argument("--process", default="gdp", choices=["gdp", "poisson"])
    p.add_argument("--L", type=_positive_finite, required=True, help="box side")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=_tol, default=1e-6)
    p.add_argument("--replicates", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="scattering-matrix estimate from a pattern")
    p.add_argument("--pattern", required=True,
                   help="pattern file stem (reads <stem>.csv and <stem>.json)")
    p.add_argument("--r", type=_positive_finite, default=None,
                   help="cutoff radius (default: auto)")
    p.add_argument("--R", type=_positive_finite, default=None,
                   help="observation ball radius")
    p.add_argument("--ball-radius", type=_positive_finite, default=None,
                   help="restrict a box pattern to this ball before estimating")
    p.add_argument("--C0", type=_positive_finite, default=1.0, help="auto-cutoff constant")
    p.add_argument("--C", type=_positive_finite, default=1.0, help="variance-bound constant")
    p.add_argument("--c", type=_positive_finite, default=1.0, help="rate constant")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("detect", help="spike detection test on an estimate")
    p.add_argument("--estimate", required=True, help="estimate.json from `estimate`")
    p.add_argument("--t", type=_positive_finite, default=20.0,
                   help="analytic threshold multiplier")
    p.add_argument("--c", type=_positive_finite, default=1.0, help="rate constant")
    p.add_argument("--calibrate", action="store_true",
                   help="Monte-Carlo null calibration instead of the analytic threshold. "
                        "The null statistics are cached under "
                        "${XDG_CACHE_HOME:-~/.cache}/gaussdpp/null/, keyed by the "
                        "package sources, numpy version, d, box side, spectral "
                        "tolerance, estimator settings, --null-replicates and --seed "
                        "(not --delta); delete that directory to clear it. result.json "
                        "reports calibration_cache: hit or miss.")
    p.add_argument("--delta", type=_tol, default=0.05)
    p.add_argument("--null-replicates", type=_checked(int, lambda v: v >= 2, ">= 2"),
                   default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--L", type=_positive_finite, default=None,
                   help="box side for null simulation (default 2 * R_used)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("reduce", help="DPP or PCA embedding of a dataset")
    p.add_argument("--data", required=True, help="feature CSV with header")
    p.add_argument("--label-column", default=None)
    p.add_argument("--positive-label", default=None)
    p.add_argument("--method", required=True, choices=["dpp", "pca"])
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--r", type=_checked(float, lambda v: v > 0, "positive"), default=None,
                   help="DPP cutoff: only pairs closer than r enter the pair sum "
                        "(default or inf: all pairs, i.e. covariance PCA, with "
                        "r_used null in reduce.json)")
    p.add_argument("--standardize", action="store_true",
                   help="center+scale features before the DPP pipeline")
    p.add_argument("--no-center", action="store_true", help="PCA: skip centering")
    p.add_argument("--no-scale", action="store_true", help="PCA: use covariance")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("roc", help="ROC/AUC of a risk score from an embedding")
    p.add_argument("--embedding", required=True, help="embedding.csv from `reduce`")
    p.add_argument("--component", type=_positive_int, default=1,
                   help="1-based component index")
    p.add_argument("--flip", action="store_true", help="negate the risk scores")
    p.add_argument("--positive-label", default=None,
                   help="label value mapped to 1 (otherwise labels must be 0/1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser("validate", help="simulation fidelity report")
    p.add_argument("--d", type=_positive_int, required=True)
    _add_sigma_flags(p)
    p.add_argument("--L", type=_positive_finite, required=True)
    p.add_argument("--replicates", type=_checked(int, lambda v: v >= 2, ">= 2"), default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=_tol, default=1e-6)
    p.add_argument("--bin-width", type=_positive_finite, default=0.1)
    p.add_argument("--r-max", type=_positive_finite, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bounds", help="theoretical bound calculators")
    p.add_argument("--bernstein", action="store_true")
    p.add_argument("--bias", action="store_true")
    p.add_argument("--variance", action="store_true")
    p.add_argument("--rate", action="store_true")
    p.add_argument("--count", action="store_true")
    p.add_argument("--eps", type=_positive_finite, default=0.1)
    p.add_argument("--R", type=_positive_finite, default=10.0)
    p.add_argument("--d", type=_positive_int, default=2)
    p.add_argument("--r", type=_positive_finite, default=3.0)
    p.add_argument("--n", type=_positive_finite, default=100.0)
    p.add_argument("--C", type=_positive_finite, default=1.0)
    p.add_argument("--c", type=_positive_finite, default=1.0)
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
        t0 = time.perf_counter()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        result = args.func(args, out)
        payload, status = result if isinstance(result, tuple) else (result, {})
        return _finish(args, out, payload, t0, status)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"gaussdpp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
