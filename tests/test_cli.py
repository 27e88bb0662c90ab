import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussdpp import EstimatorConfig, calibrate_null_threshold, cli, spiked_scattering

SAMPLE = ["sample", "--d", "2", "--seed", "0"]
VALIDATE = ["validate", "--d", "2", "--seed", "0"]
DETECT = ["detect", "--estimate", "estimate.json", "--calibrate"]
ESTIMATE = ["estimate", "--pattern", "pattern"]
SRC = Path(cli.__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, message", [
    (SAMPLE + ["--L", "5", "--replicates", "0"], "--replicates: must be >= 1"),
    (VALIDATE + ["--L", "5", "--replicates", "1"], "--replicates: must be >= 2"),
    (SAMPLE + ["--L", "0"], "--L: must be positive and finite"),
    (VALIDATE + ["--L", "-4"], "--L: must be positive and finite"),
    (["detect", "--estimate", "estimate.json", "--L", "inf"],
     "--L: must be positive and finite"),
    (SAMPLE + ["--L", "5", "--tol", "0"], "--tol: must be in (0, 1)"),
    (VALIDATE + ["--L", "5", "--tol", "1"], "--tol: must be in (0, 1)"),
    (SAMPLE + ["--L", "five"], "--L: invalid float value"),
    (VALIDATE + ["--L", "5", "--bin-width", "0"], "--bin-width: must be positive and finite"),
    (VALIDATE + ["--L", "5", "--r-max", "inf"], "--r-max: must be positive and finite"),
    (DETECT + ["--delta", "1"], "--delta: must be in (0, 1)"),
    (DETECT + ["--null-replicates", "1"], "--null-replicates: must be >= 2"),
    (ESTIMATE + ["--r", "0"], "--r: must be positive and finite"),
    (ESTIMATE + ["--R", "-3"], "--R: must be positive and finite"),
    (ESTIMATE + ["--ball-radius", "inf"], "--ball-radius: must be positive and finite"),
    (["detect", "--estimate", "estimate.json", "--t", "0"], "--t: must be positive and finite"),
    (["reduce", "--data", "data.csv", "--method", "pca", "--k", "0"], "--k: must be >= 1"),
    (["roc", "--embedding", "embedding.csv", "--component", "0"],
     "--component: must be >= 1"),
    (["sample", "--d", "0", "--L", "5", "--seed", "0"], "--d: must be >= 1"),
    (["validate", "--d", "0", "--L", "5", "--seed", "0"], "--d: must be >= 1"),
    (["bounds", "--variance", "--d", "0"], "--d: must be >= 1"),
    (ESTIMATE + ["--C0", "0"], "--C0: must be positive and finite"),
    (ESTIMATE + ["--C", "-1"], "--C: must be positive and finite"),
    (ESTIMATE + ["--c", "nan"], "--c: must be positive and finite"),
    (["detect", "--estimate", "estimate.json", "--c", "-1"], "--c: must be positive and finite"),
    (["reduce", "--data", "data.csv", "--method", "dpp", "--r", "-1"], "--r: must be positive"),
    (["reduce", "--data", "data.csv", "--method", "dpp", "--r", "nan"], "--r: must be positive"),
    (["bounds", "--bernstein", "--eps", "0"], "--eps: must be positive and finite"),
    (["bounds", "--count", "--R", "-3"], "--R: must be positive and finite"),
    (["bounds", "--bias", "--r", "inf"], "--r: must be positive and finite"),
    (["bounds", "--variance", "--n", "-1"], "--n: must be positive and finite"),
    (["bounds", "--variance", "--C", "0"], "--C: must be positive and finite"),
    (["bounds", "--rate", "--c", "nan"], "--c: must be positive and finite"),
    (SAMPLE + ["--L", "5", "--sigma", "spiked", "--lam", "-0.5"],
     "--lam: must be finite and >= 0"),
    (SAMPLE + ["--L", "5", "--sigma", "spiked", "--lam", "inf"],
     "--lam: must be finite and >= 0"),
    (["bounds", "--count", "--lam", "nan"], "--lam: must be finite and >= 0"),
    (VALIDATE + ["--L", "5", "--sigma", "spiked", "--lam", "-1"],
     "--lam: must be finite and >= 0"),
    (SAMPLE + ["--L", "5", "--sigma", "spiked", "--u", "1,x"],
     "--u: must be comma-separated numbers"),
    (SAMPLE + ["--L", "5", "--sigma", "spiked", "--u", "0,0"],
     "--u: must be finite with a nonzero norm"),
    (VALIDATE + ["--L", "5", "--sigma", "spiked", "--u", "1,inf"],
     "--u: must be finite with a nonzero norm"),
])
def test_out_of_range_arguments_are_usage_errors(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gaussdpp")
    assert message in err
    assert not out.exists()


def test_spike_direction_is_normalized_and_its_length_checked_at_run_time():
    args = cli.build_parser().parse_args(
        SAMPLE + ["--L", "5", "--sigma", "spiked", "--lam", "3", "--u", "3,4", "--out", "out"])
    assert args.u == [3.0, 4.0]
    expected = spiked_scattering(3.0, [0.6, 0.8])
    assert np.allclose(cli._parse_sigma(args, 2).entries, expected.entries, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="length 2, expected 3"):
        cli._parse_sigma(args, 3)


def test_reduce_accepts_an_infinite_cutoff():
    # dpp_embed documents r = inf as all pairs.
    args = cli.build_parser().parse_args(
        ["reduce", "--data", "data.csv", "--method", "dpp", "--r", "inf", "--out", "out"])
    assert args.r == float("inf")


def test_single_replicate_sample(tmp_path):
    assert cli.main(SAMPLE + ["--L", "4", "--replicates", "1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pattern.csv").exists()


def _run_cli(*argv):
    """The CLI as a separate process, as a user runs it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "gaussdpp.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def _assert_clean_runtime_error(proc, *fragments):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("gaussdpp: error: ")
    for fragment in fragments:
        assert fragment in proc.stderr


@pytest.mark.parametrize("missing", ["dim", "sigma_hat"])
def test_detect_names_a_missing_estimate_key(missing, tmp_path):
    est = {"dim": 2, "sigma_hat": [0.2, 0.0, 0.0, 0.2], "n": 50.0, "R_used": 4.0}
    del est[missing]
    path = tmp_path / "estimate.json"
    path.write_text(json.dumps(est))
    proc = _run_cli("detect", "--estimate", str(path), "--out", str(tmp_path / "out"))
    _assert_clean_runtime_error(proc, str(path), repr(missing))


@pytest.mark.parametrize("sidecar, message", [
    ({"count": 1}, "missing key 'window'"),
    ([], "expected a JSON object"),
])
def test_estimate_rejects_a_malformed_sidecar(sidecar, message, tmp_path):
    stem = tmp_path / "pattern"
    stem.with_suffix(".csv").write_text("x1,x2\n0.5,0.5\n")
    stem.with_suffix(".json").write_text(json.dumps(sidecar))
    proc = _run_cli("estimate", "--pattern", str(stem), "--out", str(tmp_path / "out"))
    _assert_clean_runtime_error(proc, str(stem.with_suffix(".json")), message)


@pytest.mark.parametrize("argv, text, message", [
    (["roc", "--embedding"], "", "empty file, expected a header row"),
    (["reduce", "--method", "pca", "--data"], "", "empty file, expected a header row"),
    (["reduce", "--method", "pca", "--data"], "a,b\n1.0,x\n",
     "non-numeric value 'x' in column 'b'"),
    (["reduce", "--method", "pca", "--data"], "a,b\n1.0,2.0\n3.0\n",
     "expected 2 cells, got 1"),
    (["reduce", "--method", "pca", "--label-column", "label", "--data"], "a,b\n1.0,2.0\n",
     "no column named 'label'"),
    (["roc", "--embedding"], "row,coord1,label\n0,1.0\n", ":2: expected 3 cells, got 2"),
    (["roc", "--embedding"], "row,coord1,label\n0,x,1\n",
     ":2: non-numeric value 'x' in column 'coord1'"),
    (["roc", "--embedding"], "row,coord1,label\n0,1.0,yes\n1,2.0,no\n",
     "labels must be integers unless --positive-label is given"),
])
def test_malformed_csv_is_a_runtime_error(argv, text, message, tmp_path):
    path = tmp_path / "input.csv"
    path.write_text(text)
    proc = _run_cli(*argv, str(path), "--out", str(tmp_path / "out"))
    _assert_clean_runtime_error(proc, str(path), message)


def test_core_imports_only_numpy():
    forbidden = ("scipy", "pytest", "hypothesis", "multiprocessing", "concurrent.futures")
    code = ("import gaussdpp.cli, sys; "
            f"print(sorted(m for m in {forbidden!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_imported_name_is_used():
    # No linter runs on the sources; an import the module never reads is
    # dead weight on the import path.
    unused = {}
    for path in sorted((SRC / "gaussdpp").glob("*.py")):
        if path.name == "__init__.py":  # re-exports its imports
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if imported - loaded:
            unused[path.name] = sorted(imported - loaded)
    assert unused == {}


# Null calibration cache.  The estimate fixes r = 0.8, so the null
# estimates never take the auto cutoff and a small box is enough.
NULL_L, NULL_K, NULL_SEED, NULL_DELTA, NULL_R = "10", "3", "7", "0.2", 0.8


@pytest.fixture(scope="module")
def estimate_json(tmp_path_factory):
    work = tmp_path_factory.mktemp("estimate")
    assert cli.main(["sample", "--d", "2", "--L", "10", "--seed", "3",
                     "--out", str(work / "sample")]) == 0
    assert cli.main(["estimate", "--pattern", str(work / "sample" / "pattern"),
                     "--r", str(NULL_R), "--out", str(work / "estimate")]) == 0
    return work / "estimate" / "estimate.json"


def _calibrate(estimate_json, out, *, L=NULL_L, K=NULL_K, seed=NULL_SEED, delta=NULL_DELTA):
    argv = ["detect", "--estimate", str(estimate_json), "--calibrate", "--L", L,
            "--null-replicates", K, "--seed", seed, "--delta", delta, "--out", str(out)]
    assert cli.main(argv) == 0
    return json.loads((out / "result.json").read_text())["calibration_cache"]


def _forbid_simulation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("calibrate_null_threshold called on a cache hit")
    monkeypatch.setattr(cli, "calibrate_null_threshold", fail)


def test_estimate_records_its_estimator_settings(estimate_json):
    est = json.loads(estimate_json.read_text())
    assert est["estimator"] == {"r": NULL_R, "R": None, "C0": 1.0}


def test_calibrated_null_uses_the_estimate_settings(estimate_json, tmp_path):
    _calibrate(estimate_json, tmp_path / "out")
    stats = json.loads((tmp_path / "out" / "calibration.json").read_text())["statistics"]
    cal = calibrate_null_threshold(2, float(NULL_L), float(NULL_DELTA), int(NULL_K),
                                   int(NULL_SEED), config=EstimatorConfig(r=NULL_R))
    assert stats == cal.statistics.tolist()


def test_warm_calibration_is_byte_identical(estimate_json, tmp_path, monkeypatch):
    assert _calibrate(estimate_json, tmp_path / "cold") == "miss"
    _forbid_simulation(monkeypatch)
    assert _calibrate(estimate_json, tmp_path / "warm") == "hit"
    for name in ("calibration.json", "detect.json"):
        assert ((tmp_path / "cold" / name).read_bytes()
                == (tmp_path / "warm" / name).read_bytes())


def test_other_delta_hits_with_its_own_threshold(estimate_json, tmp_path, monkeypatch):
    assert _calibrate(estimate_json, tmp_path / "cold") == "miss"
    fresh = calibrate_null_threshold(2, float(NULL_L), 0.5, int(NULL_K), int(NULL_SEED),
                                     config=EstimatorConfig(r=NULL_R))
    _forbid_simulation(monkeypatch)
    assert _calibrate(estimate_json, tmp_path / "warm", delta="0.5") == "hit"
    cal = json.loads((tmp_path / "warm" / "calibration.json").read_text())
    det = json.loads((tmp_path / "warm" / "detect.json").read_text())
    assert cal == fresh.to_json_dict()
    assert det["threshold"] == fresh.threshold
    assert fresh.threshold != json.loads(
        (tmp_path / "cold" / "calibration.json").read_text())["threshold"]


@pytest.mark.parametrize("change", [{"seed": "8"}, {"K": "4"}, {"L": "11"}, "sources"])
def test_changed_inputs_miss(change, estimate_json, tmp_path, monkeypatch):
    assert _calibrate(estimate_json, tmp_path / "cold") == "miss"
    if change == "sources":
        monkeypatch.setattr(cli, "_source_fingerprint", lambda: "0" * 64)
        change = {}
    assert _calibrate(estimate_json, tmp_path / "other", **change) == "miss"
    assert len(list((tmp_path / "xdg-cache" / "gaussdpp" / "null").glob("*.json"))) == 2


def test_corrupt_entry_is_recomputed_and_overwritten(estimate_json, tmp_path):
    assert _calibrate(estimate_json, tmp_path / "cold") == "miss"
    [entry] = (tmp_path / "xdg-cache" / "gaussdpp" / "null").glob("*.json")
    whole = entry.read_text()
    entry.write_text(whole[:len(whole) // 2])
    assert _calibrate(estimate_json, tmp_path / "again") == "miss"
    assert entry.read_text() == whole
    assert ((tmp_path / "cold" / "calibration.json").read_bytes()
            == (tmp_path / "again" / "calibration.json").read_bytes())


def test_unusable_cache_location_still_succeeds(estimate_json, tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert _calibrate(estimate_json, tmp_path / "first") == "miss"
    assert _calibrate(estimate_json, tmp_path / "second") == "miss"
    assert blocker.read_text() == ""


def _replayed_payload_matches(first: Path, second: Path) -> None:
    names = sorted(p.name for p in first.iterdir() if p.name != "result.json")
    assert names == sorted(p.name for p in second.iterdir() if p.name != "result.json")
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_config_replay_reproduces_sample(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(SAMPLE + ["--L", "6", "--out", str(first)]) == 0
    assert cli.main(["--config", str(first / "run_config.json"), "--out", str(second)]) == 0
    _replayed_payload_matches(first, second)


def test_config_replay_reproduces_calibrated_detect(estimate_json, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    _calibrate(estimate_json, first)
    assert cli.main(["--config", str(first / "run_config.json"), "--out", str(second)]) == 0
    assert {"calibration.json", "detect.json", "run_config.json"} <= {
        p.name for p in second.iterdir()}
    _replayed_payload_matches(first, second)


def _replays_byte_identically(argv, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main([*argv, "--out", str(first)]) == 0
    assert cli.main(["--config", str(first / "run_config.json"), "--out", str(second)]) == 0
    _replayed_payload_matches(first, second)


def _write_labelled_csv(path: Path) -> Path:
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 4)) * [3.0, 1.0, 0.5, 0.2]
    labels = rng.integers(0, 2, size=40)
    x[:, 1] += labels
    rows = [",".join([*map(repr, row), str(lab)]) for row, lab in zip(x.tolist(), labels)]
    path.write_text("\n".join(["f1,f2,f3,f4,label", *rows]) + "\n")
    return path


@pytest.fixture
def labelled_csv(tmp_path):
    return _write_labelled_csv(tmp_path / "data.csv")


def test_config_replay_reproduces_estimate(tmp_path):
    assert cli.main(SAMPLE + ["--L", "6", "--out", str(tmp_path / "sample")]) == 0
    _replays_byte_identically(["estimate", "--pattern", str(tmp_path / "sample" / "pattern"),
                               "--r", "0.8"], tmp_path)


@pytest.mark.parametrize("options", [["--method", "dpp"],
                                     ["--method", "dpp", "--standardize", "--r", "1.5"],
                                     ["--method", "pca"],
                                     ["--method", "dpp", "--r", "inf"]])
def test_config_replay_reproduces_reduce(options, labelled_csv, tmp_path):
    _replays_byte_identically(["reduce", "--data", str(labelled_csv), "--label-column",
                               "label", *options], tmp_path)


def test_config_replay_reproduces_roc(labelled_csv, tmp_path):
    assert cli.main(["reduce", "--data", str(labelled_csv), "--label-column", "label",
                     "--method", "pca", "--out", str(tmp_path / "reduce")]) == 0
    _replays_byte_identically(["roc", "--embedding", str(tmp_path / "reduce" / "embedding.csv"),
                               "--positive-label", "1"], tmp_path)


def test_config_replay_reproduces_validate(tmp_path):
    _replays_byte_identically(["validate", "--d", "1", "--seed", "0", "--L", "6",
                               "--replicates", "2", "--r-max", "1.0", "--bin-width", "0.25"],
                              tmp_path)


def test_config_replay_reproduces_bounds(tmp_path):
    _replays_byte_identically(["bounds", "--bernstein", "--bias", "--variance", "--rate",
                               "--count", "--sigma", "spiked", "--lam", "1.5"], tmp_path)


def _strict_json(path: Path):
    def refuse(constant):
        raise AssertionError(f"{path.name} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_calibrated_detect_writes_strict_json(estimate_json, tmp_path):
    out = tmp_path / "detect"
    _calibrate(estimate_json, out)
    detect = _strict_json(out / "detect.json")
    assert detect["t"] is None and detect["rate"] is None
    assert _strict_json(out / "result.json")["payload"] == detect


@pytest.mark.parametrize("cutoff", [[], ["--r", "inf"]])
def test_all_pairs_reduce_writes_strict_json(cutoff, labelled_csv, tmp_path):
    out = tmp_path / "reduce"
    assert cli.main(["reduce", "--data", str(labelled_csv), "--method", "dpp", *cutoff,
                     "--out", str(out)]) == 0
    assert _strict_json(out / "reduce.json")["r_used"] is None
    params = _strict_json(out / "run_config.json")["params"]
    assert _strict_json(out / "result.json")["config"]["params"] == params
    assert params["r"] == ("inf" if cutoff else None)


# The exit-code contract, one subcommand at a time: 0 success, 1 runtime
# failure, 2 usage error.  Paths are relative to the inputs fixture.
EXIT_CASES = {
    "estimate": (["estimate", "--pattern", "sample/pattern", "--r", "0.8"],
                 ["estimate", "--pattern", "missing/pattern"],
                 ["estimate", "--pattern", "sample/pattern", "--r", "-1"]),
    "reduce": (["reduce", "--data", "data.csv", "--method", "pca"],
               ["reduce", "--data", "missing.csv", "--method", "pca"],
               ["reduce", "--data", "data.csv", "--method", "svd"]),
    "roc": (["roc", "--embedding", "reduce/embedding.csv", "--positive-label", "1"],
            ["roc", "--embedding", "missing.csv"],
            ["roc", "--embedding", "reduce/embedding.csv", "--component", "x"]),
    "validate": (["validate", "--d", "1", "--L", "6", "--seed", "0", "--replicates", "2",
                  "--r-max", "1.0", "--bin-width", "0.25"],
                 ["validate", "--d", "1", "--L", "6", "--seed", "0", "--replicates", "2",
                  "--r-max", "4.0"],
                 ["validate", "--d", "1", "--L", "6"]),
    "bounds": (["bounds", "--bernstein", "--count"],
               ["bounds", "--eps", "0.2"],
               ["bounds", "--rate", "--c", "-1"]),
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("inputs")
    _write_labelled_csv(work / "data.csv")
    assert cli.main(SAMPLE + ["--L", "6", "--out", str(work / "sample")]) == 0
    assert cli.main(["reduce", "--data", str(work / "data.csv"), "--label-column", "label",
                     "--method", "pca", "--out", str(work / "reduce")]) == 0
    return work


@pytest.mark.parametrize("command", sorted(EXIT_CASES))
@pytest.mark.parametrize("outcome, code", [("success", 0), ("runtime", 1), ("usage", 2)])
def test_exit_code_contract(command, outcome, code, cli_inputs, tmp_path, capsys,
                            monkeypatch):
    argv = EXIT_CASES[command][code]
    monkeypatch.chdir(cli_inputs)
    out = tmp_path / "out"
    try:
        status = cli.main([*argv, "--out", str(out)])
    except SystemExit as exc:
        status = exc.code
    assert status == code
    err = capsys.readouterr().err
    if outcome == "success":
        assert err == ""
        assert _strict_json(out / "result.json")["command"] == command
    elif outcome == "runtime":
        assert err.startswith("gaussdpp: error: ")
        assert not (out / "result.json").exists()
    else:
        assert err.startswith("usage: gaussdpp")
        assert not out.exists()
