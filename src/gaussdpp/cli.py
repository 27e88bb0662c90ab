"""Command-line surface for reproducible experiments.

Every run writes its resolved configuration (run_config.json) next to its
outputs; re-running with `gaussdpp --config <that file> --out <dir>`
reproduces the payload files byte for byte.  result.json wraps the
payload in a schema-versioned envelope that also records the tool version
and wall-clock time (the one field that varies between reruns).

`detect --calibrate` caches the K null statistics it simulates, one JSON
file per key under ${XDG_CACHE_HOME:-~/.cache}/gaussdpp/null/.  The key
is the SHA-256 of the package's *.py sources, the numpy version, d, the
estimate's design R_used and r_used (the null's only box and cutoff),
K (--null-replicates) and the null --seed; the file is named by the
SHA-256 of that key.  --delta is not part of it: a later call with the
same key reads the statistics instead of simulating them and takes its
own threshold from them, so calibration.json and detect.json are the
same either way.  result.json reports
"calibration_cache": "hit" or "miss".  An entry is written like every
other file (`datasets.write_json`: a temporary file renamed onto it), so
a reader never sees half of one.  Deleting the directory clears the
cache; an unreadable entry is recomputed and an unwritable one ignored.

Replicates (`sample --replicates`, `validate --replicates` and the null
replicates of `detect --calibrate`) run in forked processes, one per
usable CPU (`sampling.map_replicates`).  Each replicate draws from its own
seed, so the outputs do not depend on the CPU count.

Exit codes: 0 success, 1 runtime failure, 2 usage error; an option the run
would not read, or a Sigma that cannot be built, exits 2 before any work.

A process imports only what its command runs.  The package modules are
bound here through `importlib.util.LazyLoader`: each is registered in
sys.modules when this module is imported and executed on its first
attribute access, and every package function is called through its module
(`sampling.sample_gdp(...)`).  numpy is imported inside the few functions
here that use it.  So `--version`, a usage error and `roc` (a sort and two
running sums, in `datasets`) never import numpy; sample, estimate, detect,
reduce, validate and bounds do, because they compute with it.  The modules
are bound lazily rather than imported inside the functions that use them
so that code which wraps the package's functions after importing this
module (perfbench/traced_cli.py) finds every module in sys.modules, and
reading a module's attributes loads it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
import time
from contextlib import suppress
from functools import partial
from pathlib import Path

from . import __version__


def _lazy(name: str):
    """The package module `name`, registered in sys.modules and executed on
    its first attribute access (see the module docstring).  A module that is
    already imported is returned as it is, so there is only ever one copy."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


datasets, dimred, estimator, kernel, patterns, sampling, spiked = map(_lazy, [
    "datasets", "dimred", "estimator", "kernel", "patterns", "sampling", "spiked"])

SCHEMA_VERSION = 1

_WITH_SIGMA = ("sample", "validate", "bounds")  # the commands that take the Sigma options
# Options a run reads in one mode only: (commands, is that mode on, the other mode, options).
_MODE_OPTIONS = [
    (["detect"], lambda args: args.calibrate, "without --calibrate",
     ("--L", "--null-replicates", "--seed", "--delta")),
    (["detect"], lambda args: not args.calibrate, "with --calibrate", ("--t",)),
    (["reduce"], lambda args: args.method == "dpp", "by --method pca", ("--r", "--standardize")),
    (["sample"], lambda args: args.process == "gdp", "by --process poisson",
     ("--sigma", "--lam", "--u", "--sigma-entries")),
    (_WITH_SIGMA, lambda args: not args.sigma_entries, "with --sigma-entries",
     ("--sigma", "--lam", "--u")),
    (_WITH_SIGMA, lambda args: args.sigma == "spiked", "without --sigma spiked", ("--lam", "--u")),
]


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
_seed = _checked(int, lambda v: v >= 0, ">= 0")  # numpy's SeedSequence takes no negative
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


def _square_matrix(text: str) -> list[list[float]]:
    """argparse type of --sigma-entries: a square matrix of finite numbers,
    rows ';'-separated and entries ','-separated.  Whether its size
    matches --d is checked when the matrix is built."""
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers in ';'-separated rows, got {text}") from None
    if any(len(row) != len(rows) for row in rows):
        raise argparse.ArgumentTypeError(f"must be a square matrix, got {text}")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return rows


def _parse_sigma(args, d: int) -> kernel.ScatteringMatrix:
    import numpy as np

    if args.sigma_entries:
        sigma = kernel.ScatteringMatrix(np.asarray(args.sigma_entries))
        if sigma.dim != d:
            raise ValueError(f"--sigma-entries is {sigma.dim}x{sigma.dim} but --d is {d}")
        return kernel.normalize_scattering(sigma)
    if args.sigma == "iso":
        return kernel.isotropic_scattering(d)
    u = np.asarray(args.u or [1.0] + [0.0] * (d - 1))  # --sigma spiked; e1 by default
    return kernel.spiked_scattering(args.lam, u / math.hypot(*u), d)


def _finish(args, out: Path, payload: dict, t0: float, status: dict) -> int:
    """Write run_config.json and result.json; `status` goes into the
    envelope only, beside the payload."""
    argv = list(getattr(args, "_argv", []))
    # A non-finite option value (reduce --r inf) is echoed by name, "inf".
    config = {"command": args.command, "argv": argv,
              "params": {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                         for k, v in vars(args).items()
                         if not k.startswith("_") and k not in ("out", "func")}}
    datasets.write_json(out / "run_config.json", config)
    envelope = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
                "command": args.command, "config": config,
                "wall_time_s": time.perf_counter() - t0, **status,
                "payload": payload}
    datasets.write_json(out / "result.json", envelope)
    print(json.dumps({"command": args.command, "out": str(out), **_summary(payload)}))
    return 0


def _summary(payload: dict) -> dict:
    keep = ("count", "auc", "reject", "statistic", "threshold", "mean_count",
            "dispersion_ratio")
    return {k: payload[k] for k in keep if k in payload}


def _cmd_sample(args, out: Path) -> dict:
    window = patterns.BoxWindow(args.L, args.d)
    if args.process == "poisson":
        draw, model = partial(sampling.sample_poisson, window), {}
    else:
        draw = partial(sampling.sample_gdp, args._sigma, window)
        model = {"sigma": args._sigma.entries.tolist(), "tol": sampling.DEFAULT_TOL}
    drawn = sampling.map_replicates(draw, [(args.seed, i) for i in range(args.replicates)])
    names = []
    for i, pat in enumerate(drawn):
        stem = out / ("pattern" if args.replicates == 1 else f"pattern_{i:04d}")
        patterns.save_pattern(pat, stem,
                              {"seed": [args.seed, i], **model, "process": args.process})
        names.append(stem.name)
    return {"patterns": names, "count": len(drawn[0]), "counts": [len(p) for p in drawn]}


def _cmd_estimate(args, out: Path) -> dict:
    pattern, _meta = patterns.load_pattern(args.pattern)
    if args.ball_radius is not None:
        pattern = patterns.extract_ball(pattern, args.ball_radius)
    window_file = Path(args.pattern).with_suffix(".json")
    try:
        payload = estimator.estimate_scattering(pattern, args.r).to_json_dict()
    except OverflowError as exc:  # a window too large for a float
        raise OverflowError(f"{window_file}: {exc}") from None
    except MemoryError as exc:  # more close pairs than memory holds
        raise MemoryError(f"{window_file}: {exc}") from None
    datasets.write_json(out / "estimate.json", payload)
    return payload


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


def _calibrate_cached(d: int, R: float, r: float, delta: float, n_replicates: int,
                      seed: int) -> tuple[spiked.NullCalibration, str]:
    """Null calibration through the on-disk cache (see the module
    docstring); returns it with "hit" or "miss"."""
    import hashlib

    import numpy as np

    key = {"source_sha256": _source_fingerprint(), "numpy": np.__version__,
           "d": d, "R": R, "r": r, "null_replicates": n_replicates, "seed": seed}
    name = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    path = _cache_dir() / f"{name}.json"
    try:
        stored = datasets.read_json(path)
        stats = stored["statistics"]
        if (stored["key"] == key and isinstance(stats, list) and len(stats) == n_replicates
                and all(type(v) is float and math.isfinite(v) for v in stats)):
            return spiked.NullCalibration.from_statistics(stats, delta), "hit"
    except (OSError, ValueError, KeyError):
        pass  # missing or unreadable: recompute and overwrite
    cal = spiked.calibrate_null_threshold(d, R, r, delta, n_replicates, seed)
    with suppress(OSError):  # an unwritable cache only costs the next run
        path.parent.mkdir(parents=True, exist_ok=True)
        datasets.write_json(path, {"key": key, "statistics": cal.statistics.tolist()})
    return cal, "miss"


def _cmd_detect(args, out: Path) -> tuple[dict, dict]:
    sigma_hat, R_used, r = estimator.read_estimate(args.estimate)
    d, status = len(sigma_hat), {}
    try:  # an asymmetric Sigma_hat, or n <= 1 for the rate, fails before any null is drawn
        statistic = spiked.detection_statistic(sigma_hat)
        spike = spiked.estimate_spike(sigma_hat)
        n = estimator.count_expectation(R_used, d)  # bitwise the "n" that `estimate` wrote
        if not (args.calibrate or n > 1):
            raise ValueError(f"the analytic threshold needs |B(R_used)| > 1, got "
                             f"|B({R_used:g})| = {n:.3g}; --calibrate takes any R_used")
        rate = None if args.calibrate else estimator.risk_rate(n, d)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{args.estimate}: {exc}") from None
    if args.calibrate:
        if args.L is not None and args.L != 2.0 * R_used:
            raise ValueError(f"--L {args.L} is not the estimate's box side 2 * R_used = "
                             f"{2.0 * R_used}: the null replays the estimate's own design")
        cal, status["calibration_cache"] = _calibrate_cached(
            d, R_used, r, args.delta, args.null_replicates, args.seed)
        datasets.write_json(out / "calibration.json", cal.to_json_dict())
        rule = {"mode": "calibrated", "threshold": cal.threshold, "t": None, "rate": None,
                "delta": args.delta, "null_replicates": args.null_replicates}
    else:
        rule = {"mode": "analytic", "threshold": 1.0 + args.t * rate, "t": args.t, "rate": rate}
    payload = {"statistic": statistic, **rule, "reject": statistic > rule["threshold"],
               "spike": spike.to_json_dict()}
    datasets.write_json(out / "detect.json", payload)
    return payload, status


def _cmd_reduce(args, out: Path) -> dict:
    dataset = datasets.load_dataset(args.data, args.label_column, args.positive_label)
    if args.method == "dpp":
        proj = dimred.dpp_embed(dataset, args.k, r=args.r, standardize=args.standardize)
    else:
        proj = dimred.pca_embed(dataset, args.k)
    labels = dataset.labels if dataset.labels is not None else [""] * dataset.n_rows
    rows = [[i, *map(float, proj.coords[i]), labels[i]]
            for i in range(dataset.n_rows)]
    datasets.write_csv(out / "embedding.csv",
                       ["row", *(f"coord{j + 1}" for j in range(args.k)), "label"], rows)
    datasets.write_csv(out / "scree.csv", ["rank", "eigenvalue"],
                       enumerate(proj.eigvals.tolist(), 1))
    payload = {"method": proj.method, "k": args.k, "count": dataset.n_rows,
               "eigvals": proj.eigvals.tolist(), "r_used": proj.r_used}
    datasets.write_json(out / "reduce.json", payload)
    return payload


def _binary_label(path, text: str) -> int:
    """An embedding's label cell read as 0 or 1, or a ValueError naming the
    file and the cell."""
    try:
        label = int(text)
    except ValueError:
        raise ValueError(f"{path}: labels must be integers unless --positive-label is "
                         f"given, got {datasets.value_text(text)}") from None
    if label not in (0, 1):
        raise ValueError(f"{path}: label {datasets.value_text(text)} is not 0 or 1")
    return label


def _cmd_roc(args, out: Path) -> dict:
    path = args.embedding
    names, rows, labels = datasets.read_table(path, "label", args.positive_label)
    coords = [i for i, name in enumerate(names) if name.startswith("coord")]
    if not coords:
        raise ValueError(f"{path}: no coord columns")
    if args.component > len(coords):
        raise ValueError(f"--component must be in 1..{len(coords)}")
    if args.positive_label is None:
        labels = [_binary_label(path, text) for text in labels]
    if not rows:
        raise ValueError(f"{path}: no rows; both classes must be present")
    if len(set(labels)) < 2:
        only = labels[0] if args.positive_label is None else repr(args.positive_label)
        raise ValueError(f"{path}: every label is {only}; both classes must be present")
    column = [row[coords[args.component - 1]] for row in rows]
    # The coordinate's sign does not say which end is high risk.
    curve = datasets.roc_auc(column if args.flip else [-v for v in column], labels)
    rows = [[th, fpr, tpr] for th, (fpr, tpr) in zip(curve.thresholds, curve.points)]
    datasets.write_csv(out / "roc.csv", ["threshold", "fpr", "tpr"], rows)
    payload = {"auc": curve.auc, "n_points": len(rows), "flip": args.flip,
               "component": args.component}
    datasets.write_json(out / "roc.json", payload)
    return payload


def _cmd_validate(args, out: Path) -> dict:
    import numpy as np

    window = patterns.BoxWindow(args.L, args.d)
    drawn = sampling.map_replicates(partial(sampling.sample_gdp, args._sigma, window),
                                    [(args.seed, i) for i in range(args.replicates)])
    radius = args.L / 2.0
    counts = np.asarray([len(patterns.extract_ball(p, radius)) for p in drawn])
    n_exp = estimator.count_expectation(radius, args.d)
    ratio, pvalue = sampling.count_dispersion_test(counts)
    bern = []
    for eps in (0.1, 0.2, 0.3):
        freq = float(np.mean(np.abs(counts / n_exp - 1.0) >= eps))
        bern.append({"eps": eps, "empirical": freq,
                     "bound": estimator.bernstein_tail(eps, radius, args.d)})

    # Binned by rho = sqrt(u'(2 pi S)^-1 u), where g = 1 - exp(-2 pi rho^2) for any S.
    est = sampling.empirical_pair_correlation(drawn, args._edges, args._sigma)
    theory = [1.0 - math.exp(-kernel.TWO_PI * c * c) for c, _ in est]
    datasets.write_csv(out / "paircorr.csv", ["center", "empirical", "theoretical"],
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
    datasets.write_json(out / "validate.json", payload)
    return payload


def _cmd_bounds(args, out: Path) -> dict:
    # count_expectation first: bernstein reads it, so an R beyond a float is blamed on it.
    bounds = {"count_expectation": partial(estimator.count_expectation, args.R, args.d),
              "bernstein": partial(estimator.bernstein_tail, args.eps, args.R, args.d),
              "bias_bound": partial(estimator.bias_bound, args._sigma, args.r),
              "variance_bound": partial(estimator.variance_bound, args.r, args.d, args.n),
              "risk_rate": partial(estimator.risk_rate, args.n, args.d)}
    payload = {key: estimator.in_float_range(key, bound) for key, bound in bounds.items()}
    datasets.write_json(out / "bounds.json", payload)
    return payload


def _add_sigma_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", default="iso", choices=["iso", "spiked"],
                   help="scattering matrix family")
    p.add_argument("--lam", type=_strength, default=0.0, help="spike strength")
    p.add_argument("--u", type=_direction, default=None,
                   help="comma-separated spike direction (normalized internally)")
    p.add_argument("--sigma-entries", type=_square_matrix, default=None,
                   help="explicit matrix, rows ';'-separated, entries ','-separated; "
                        "normalized on load")


_REPLICATES_HELP = ("drawn in forked processes, one per usable CPU, each from its own seed, "
                    "so the outputs do not depend on the CPU count")


def build_parser() -> argparse.ArgumentParser:
    # No abbreviated options: a prefix of a live option must not stand in
    # for a removed one in a stored config.
    parser = argparse.ArgumentParser(
        prog="gaussdpp", allow_abbrev=False,
        description="Gaussian determinantal point processes: simulate, estimate, "
                    "detect, reduce, evaluate.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser,
                                                     allow_abbrev=False))

    p = sub.add_parser("sample", help="simulate point patterns on a box window")
    p.add_argument("--d", type=_positive_int, required=True)
    _add_sigma_flags(p)
    p.add_argument("--process", default="gdp", choices=["gdp", "poisson"],
                   help="poisson: unit intensity, takes no scattering option")
    p.add_argument("--L", type=_positive_finite, required=True, help="box side")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--replicates", type=_positive_int, default=1,
                   help="patterns, " + _REPLICATES_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="scattering-matrix estimate from a pattern")
    p.add_argument("--pattern", required=True,
                   help="pattern file stem (reads <stem>.csv and <stem>.json)")
    p.add_argument("--r", type=_positive_finite, default=None,
                   help="cutoff radius (default: min(sqrt(d log n), R/2), n = |B(R)|)")
    p.add_argument("--ball-radius", type=_positive_finite, default=None,
                   help="restrict a box pattern to this ball before estimating; the "
                        "window fixes the observation ball radius R, which is this "
                        "radius, or half the box side without it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("detect", help="spike detection test on an estimate")
    p.add_argument("--estimate", required=True, help="estimate.json from `estimate`")
    p.add_argument("--t", type=_positive_finite, default=20.0,
                   help="without --calibrate: analytic threshold multiplier")
    p.add_argument(
        "--calibrate", action="store_true",
        help="Monte-Carlo null calibration instead of the analytic threshold. Every null "
             "replicate is drawn on the box of side 2 * R_used and estimated at r_used on "
             "B(R_used), as the estimate was. The null statistics are cached under "
             "${XDG_CACHE_HOME:-~/.cache}/gaussdpp/null/, keyed by the package sources, "
             "numpy version, d, R_used, r_used, --null-replicates and --seed (not --delta); "
             "delete that directory to clear it. result.json reports calibration_cache.")
    p.add_argument("--delta", type=_checked(float, lambda v: 0 < v < 1, "in (0, 1)"),
                   default=0.05, help="with --calibrate: test level")
    p.add_argument("--null-replicates", type=_checked(int, lambda v: v >= 2, ">= 2"),
                   default=200, help="with --calibrate: null replicates K, "
                   + _REPLICATES_HELP)
    p.add_argument("--seed", type=_seed, default=0, help="with --calibrate: null seed; replicate "
                   "i draws from (seed, i, 0, 1), a stream no sample or validate run uses")
    p.add_argument("--L", type=_positive_finite, default=None,
                   help="with --calibrate: must equal 2 * R_used, the null's box side")
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
    p.add_argument("--replicates", type=_checked(int, lambda v: v >= 2, ">= 2"), default=200,
                   help="patterns, " + _REPLICATES_HELP)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--bin-width", type=_positive_finite, default=0.1)
    p.add_argument("--r-max", type=_positive_finite, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bounds", help="the paper's bernstein, bias_bound, variance_bound, "
                                      "risk_rate and count_expectation, all in bounds.json")
    p.add_argument("--eps", type=_positive_finite, default=0.1)
    p.add_argument("--R", type=_positive_finite, default=10.0)
    p.add_argument("--d", type=_positive_int, default=2)
    p.add_argument("--r", type=_positive_finite, default=3.0)
    p.add_argument("--n", type=_checked(float, lambda v: 1 < v < math.inf, "finite and > 1"),
                   default=100.0, help="expected count")
    _add_sigma_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds)
    return parser


def _replay_argv(argv: list[str]) -> list[str]:
    """Expand a leading `--config FILE` into the stored argument vector,
    keeping any `--out` given alongside it."""
    if not argv or argv[0] != "--config":
        return argv
    if len(argv) < 2 or argv[1].startswith("-"):
        raise ValueError("--config requires a file path")
    config = datasets.read_json(argv[1])
    command, stored = config["command"], config["argv"]
    if not (isinstance(command, str) and isinstance(stored, list)
            and all(isinstance(a, str) for a in stored)):
        raise ValueError(f'{argv[1]}: "command" must be a string and "argv" a list of strings')
    return [command, *stored, *argv[2:]]


def _preflight(args, tokens: list[str]) -> None:
    """Usage checks before any work, each a ValueError: refuse options the run
    would not read, build Sigma once into args._sigma and validate's bin edges
    into args._edges, and keep those bins in --L/2."""
    for commands, used, mode, options in _MODE_OPTIONS:
        given = [o for o in options if any(t == o or t.startswith(o + "=") for t in tokens)]
        if args.command in commands and given and not used(args):
            raise ValueError(f"{', '.join(given)} not used {mode}")
    if args.command in _WITH_SIGMA and getattr(args, "process", "gdp") == "gdp":
        args._sigma = _parse_sigma(args, args.d)
    if args.command == "validate":
        import numpy as np

        # 0, w, 2w, ... to the last edge within --r-max; one at --r-max, or at --L/2 in pair
        # reach, up to rounding (arange's 3 * 0.1 is 0.30000000000000004) ends there, not beyond.
        edges = np.arange(0.0, args.r_max + args.bin_width / 2, args.bin_width)
        args._edges = edges = edges[edges <= args.r_max * (1.0 + 1e-9)]
        stretch = sampling.pair_metric(args._sigma)[1]
        for end in (args.r_max, args.L / 2 / stretch):
            if math.isclose(edges[-1], end, rel_tol=1e-9):
                edges[-1] = end - np.spacing(end) * (end * stretch > args.L / 2)
        reach = edges[-1] * stretch
        if edges.size < 2 or reach > args.L / 2:
            pairs = f", whose pairs reach {reach:g}" if reach != edges[-1] else ""
            raise ValueError(f"--r-max {args.r_max:g} and --bin-width {args.bin_width:g}" + (
                " give no bin" if edges.size < 2 else " put the last bin edge at "
                f"{edges[-1]:g}{pairs}, beyond --L/2 = {args.L / 2:g}"))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _replay_argv(argv)
    except (OSError, KeyError, ValueError) as exc:  # ValueError: bad text, JSON or shape
        print(f"gaussdpp: bad --config: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    tokens = argv[1:]  # after the subcommand
    try:
        _preflight(args, tokens)
    except ValueError as exc:
        parser.error(f"{args.command}: {exc}")
    # Stored for the config echo: everything after the subcommand, minus --out.
    args._argv = [tok for i, tok in enumerate(tokens) if not (
        tok == "--out" or tok.startswith("--out=") or (i and tokens[i - 1] == "--out"))]
    try:
        t0 = time.perf_counter()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        result = args.func(args, out)
        payload, status = result if isinstance(result, tuple) else (result, {})
        return _finish(args, out, payload, t0, status)
    except (ValueError, OSError, RuntimeError, OverflowError, MemoryError) as exc:
        print(f"gaussdpp: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
