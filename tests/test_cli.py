import ast
import graphlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaussdpp
from gaussdpp import (BoxWindow, bernstein_tail, bias_bound, calibrate_null_threshold, cli,
                      count_expectation, estimate_scattering, isotropic_scattering, risk_rate,
                      sample_gdp, spiked, spiked_scattering, variance_bound)

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
    (SAMPLE + ["--L", "5", "--tol", "1e-3"], "unrecognized arguments: --tol"),
    (VALIDATE + ["--L", "5", "--tol", "1e-3"], "unrecognized arguments: --tol"),
    (SAMPLE + ["--L", "five"], "--L: invalid float value"),
    (VALIDATE + ["--L", "5", "--bin-width", "0"], "--bin-width: must be positive and finite"),
    (VALIDATE + ["--L", "5", "--r-max", "inf"], "--r-max: must be positive and finite"),
    (DETECT + ["--delta", "1"], "--delta: must be in (0, 1)"),
    (DETECT + ["--null-replicates", "1"], "--null-replicates: must be >= 2"),
    (ESTIMATE + ["--r", "0"], "--r: must be positive and finite"),
    (ESTIMATE + ["--R", "3"], "unrecognized arguments: --R 3"),
    (ESTIMATE + ["--ball-radius", "inf"], "--ball-radius: must be positive and finite"),
    (["detect", "--estimate", "estimate.json", "--t", "0"], "--t: must be positive and finite"),
    (["reduce", "--data", "data.csv", "--method", "pca", "--k", "0"], "--k: must be >= 1"),
    (["roc", "--embedding", "embedding.csv", "--component", "0"],
     "--component: must be >= 1"),
    (["sample", "--d", "0", "--L", "5", "--seed", "0"], "--d: must be >= 1"),
    (["validate", "--d", "0", "--L", "5", "--seed", "0"], "--d: must be >= 1"),
    (["bounds", "--d", "0"], "--d: must be >= 1"),
    (ESTIMATE + ["--C0", "1"], "unrecognized arguments: --C0 1"),
    (ESTIMATE + ["--C", "2"], "unrecognized arguments: --C 2"),
    (ESTIMATE + ["--c", "2"], "unrecognized arguments: --c 2"),
    (["detect", "--estimate", "estimate.json", "--c", "2"], "unrecognized arguments: --c 2"),
    (["reduce", "--data", "data.csv", "--method", "dpp", "--r", "-1"], "--r: must be positive"),
    (["reduce", "--data", "data.csv", "--method", "dpp", "--r", "nan"], "--r: must be positive"),
    (["bounds", "--eps", "0"], "--eps: must be positive and finite"),
    (["bounds", "--R", "-3"], "--R: must be positive and finite"),
    (["bounds", "--r", "inf"], "--r: must be positive and finite"),
    (["bounds", "--n", "1"], "--n: must be finite and > 1"),
    (["bounds", "--C", "2"], "unrecognized arguments: --C 2"),
    (["bounds", "--c", "2"], "unrecognized arguments: --c 2"),
    (SAMPLE + ["--L", "5", "--sigma", "spiked", "--lam", "-0.5"],
     "--lam: must be finite and >= 0"),
    (SAMPLE + ["--L", "5", "--sigma", "spiked", "--lam", "inf"],
     "--lam: must be finite and >= 0"),
    (["bounds", "--lam", "nan"], "--lam: must be finite and >= 0"),
    (VALIDATE + ["--L", "5", "--sigma", "spiked", "--lam", "-1"],
     "--lam: must be finite and >= 0"),
    (SAMPLE + ["--L", "5", "--sigma", "spiked", "--u", "1,x"],
     "--u: must be comma-separated numbers"),
    (SAMPLE + ["--L", "5", "--sigma", "spiked", "--u", "0,0"],
     "--u: must be finite with a nonzero norm"),
    (VALIDATE + ["--L", "5", "--sigma", "spiked", "--u", "1,inf"],
     "--u: must be finite with a nonzero norm"),
    (["bounds", "--d", "2", "--sigma-entries", "1,x;0,1"],
     "--sigma-entries: must be comma-separated numbers"),
    (["bounds", "--d", "2", "--sigma-entries", "1,0;0"],
     "--sigma-entries: must be a square matrix"),
    (SAMPLE + ["--L", "5", "--sigma-entries", "1,0;0,inf"], "--sigma-entries: must be finite"),
    (DETECT + ["--t", "5"], "detect: --t not used with --calibrate"),
    (["reduce", "--data", "data.csv", "--method", "pca", "--no-center"],
     "unrecognized arguments: --no-center"),
    (["reduce", "--data", "data.csv", "--method", "pca", "--no-scale"],
     "unrecognized arguments: --no-scale"),
    # Options the chosen mode never reads.
    (["detect", "--estimate", "estimate.json", "--L", "3", "--null-replicates", "7", "--seed",
      "5", "--delta", "0.3"],
     "detect: --L, --null-replicates, --seed, --delta not used without --calibrate"),
    (["detect", "--estimate", "estimate.json", "--t", "5", "--delta=0.3"],
     "detect: --delta not used without --calibrate"),
    (SAMPLE + ["--L", "5", "--sigma", "spiked", "--lam", "2", "--process", "poisson"],
     "sample: --sigma, --lam not used by --process poisson"),
    (SAMPLE + ["--L", "5", "--process", "poisson", "--u", "1,0"],
     "sample: --u not used by --process poisson"),
    (SAMPLE + ["--L", "5", "--process", "poisson", "--sigma-entries=1,0;0,1"],
     "sample: --sigma-entries not used by --process poisson"),
    (["reduce", "--data", "data.csv", "--method", "pca", "--r", "1.5"],
     "reduce: --r not used by --method pca"),
    (["reduce", "--data", "data.csv", "--method", "pca", "--r=1.5"],
     "reduce: --r not used by --method pca"),
    (["reduce", "--data", "data.csv", "--method", "pca", "--standardize"],
     "reduce: --standardize not used by --method pca"),
    (["reduce", "--data", "data.csv", "--method", "pca", "--standardize", "--r=1.5"],
     "reduce: --r, --standardize not used by --method pca"),
    # A scattering matrix that cannot be built.
    (SAMPLE + ["--L", "5", "--sigma-entries", "1,0,0;0,1,0;0,0,1"],
     "sample: --sigma-entries is 3x3 but --d is 2"),
    (["bounds", "--d", "2", "--sigma-entries", "1,0,0;0,1,0;0,0,1"],
     "bounds: --sigma-entries is 3x3 but --d is 2"),
    (["sample", "--d", "1", "--L", "5", "--seed", "0", "--sigma", "spiked"],
     "sample: spiked model needs d >= 2"),
    (["bounds", "--d", "1", "--sigma", "spiked"], "bounds: spiked model needs d >= 2"),
    (["validate", "--d", "1", "--L", "8", "--seed", "0", "--sigma", "spiked"],
     "validate: spiked model needs d >= 2"),
    # Spike options that the chosen scattering matrix does not read.
    (["bounds", "--sigma", "iso", "--lam", "3"], "bounds: --lam not used without --sigma spiked"),
    (SAMPLE + ["--L", "5", "--u=1,0"], "sample: --u not used without --sigma spiked"),
    (VALIDATE + ["--L", "8", "--sigma", "spiked", "--lam", "3", "--sigma-entries", "1,0;0,1"],
     "validate: --sigma, --lam not used with --sigma-entries"),
    # numpy's SeedSequence takes no negative seed.
    (["sample", "--d", "2", "--L", "5", "--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["validate", "--d", "2", "--L", "5", "--seed", "-3"], "--seed: must be >= 0, got -3"),
    (DETECT + ["--seed=-1"], "--seed: must be >= 0, got -1"),
    (SAMPLE + ["--L", "5", "--sigma-entries", "0,0;0,0"],
     "sample: scattering matrix is not positive-definite"),
    (VALIDATE + ["--L", "5", "--sigma-entries", "0,0;0,0"],
     "validate: scattering matrix is not positive-definite"),
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


def _run_cli(*argv, cwd=None):
    """The CLI as a separate process, as a user runs it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "gaussdpp.cli", *argv], cwd=cwd,
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
    ({"window": "box"}, "window must be a JSON object, got 'box'"),
    ({"window": {"type": "box", "side": "abc", "dim": 2}},
     "window side must be a number and dim an integer, got 'abc' and 2"),
    ({"window": {"type": "disk", "radius": 1.0, "dim": 2}}, "unknown window type 'disk'"),
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
    (["reduce", "--method", "pca", "--data"], "a,b\n1.0,2.0\n3.0,inf\n",
     ":3: non-finite value 'inf' in column 'b'"),
    (["roc", "--embedding"], "row,coord1,label\n0,nan,1\n",
     ":2: non-finite value 'nan' in column 'coord1'"),
    (["roc", "--embedding"], "row,label\n0,1\n", ": no coord columns"),
    (["reduce", "--method", "pca", "--label-column", "label", "--positive-label", "yes",
      "--data"], "a,label\n1.0,no\n2.0,no\n",
     ": positive label 'yes' does not occur in the label column"),
    (["roc", "--embedding"], "row,coord1,label\n0,1.0,yes\n1,2.0,no\n",
     "labels must be integers unless --positive-label is given, got 'yes'"),
    (["roc", "--embedding"], "row,coord1,label\n0,1.0,2\n1,2.0,0\n",
     ": label '2' is not 0 or 1"),
    (["roc", "--embedding"], "row,coord1,label\n0,1.0,99999999999999999999\n1,2.0,0\n",
     ": label '99999999999999999999' is not 0 or 1"),
    (["roc", "--embedding"], "row,coord1,label\n0,1.0,1\n1,2.0,1\n",
     ": every label is 1; both classes must be present"),
    (["roc", "--positive-label", "yes", "--embedding"], "row,coord1,label\n0,1.0,yes\n",
     ": every label is 'yes'; both classes must be present"),
    (["roc", "--embedding"], "row,coord1,label\n", ": no rows; both classes must be present"),
])
def test_malformed_csv_is_a_runtime_error(argv, text, message, tmp_path):
    path = tmp_path / "input.csv"
    path.write_text(text)
    proc = _run_cli(*argv, str(path), "--out", str(tmp_path / "out"))
    _assert_clean_runtime_error(proc, str(path), message)


def test_a_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path):
    # Excel's "CSV UTF-8" starts the file with U+FEFF.
    text = "label,f1,f2\n1,0.5,1.5\n0,2.0,-1.0\n1,-0.25,0.75\n0,1.0,2.5\n"
    outputs = []
    for name, data in (("plain.csv", text.encode()), ("bom.csv", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).write_bytes(data)
        out = tmp_path / name.replace(".", "-")
        assert cli.main(["reduce", "--data", str(tmp_path / name), "--label-column", "label",
                         "--method", "pca", "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes()
                        for f in ("embedding.csv", "scree.csv", "reduce.json")])
    assert outputs[0] == outputs[1]


ESTIMATE_JSON = {"dim": 2, "sigma_hat": [0.16, 0.0, 0.0, 0.16], "n": 50.0, "R_used": 4.0,
                 "r_used": 0.8}
NAN_SIGMA_HAT = [float("nan"), 0.0, 0.0, 0.16]
ASYMMETRIC_SIGMA_HAT = [0.16, 0.05, 0.0, 0.16]


def _json_bytes(obj) -> bytes:
    return json.dumps(obj).encode()


# A bad --config is a usage error (2), a bad input file a runtime error
# (1) that names the file, and so is a value out of range of a float
# (1), named by its key.
@pytest.mark.parametrize("files, argv, code, message", [
    ({}, ["--config"], 2, "--config requires a file path"),
    ({"config.json": b"[]"}, ["--config", "config.json"], 2,
     "config.json: expected a JSON object"),
    ({"config.json": b"not json"}, ["--config", "config.json"], 2,
     "config.json: Expecting value"),
    ({"config.json": b'{"command": "sample", "argv": ["--d", "\xff"]}'},
     ["--config", "config.json"], 2, "codec can't decode"),
    ({"config.json": _json_bytes({"command": "sample", "argv": ["--d", 2]})},
     ["--config", "config.json"], 2, '"argv" a list of strings'),
    ({"pattern.csv": b"",
      "pattern.json": _json_bytes({"window": {"type": "box", "side": 6.0, "dim": 2}})},
     ["estimate", "--pattern", "pattern"], 1, "pattern.csv: empty file, expected a header row"),
    ({"pattern.csv": b"x1,x2\n0.5,abc\n",
      "pattern.json": _json_bytes({"window": {"type": "box", "side": 6.0, "dim": 2}})},
     ["estimate", "--pattern", "pattern"], 1,
     "pattern.csv:2: non-numeric value 'abc' in column 'x2'"),
    ({"pattern.csv": b"x1,x2\n0.5,nan\n",
      "pattern.json": _json_bytes({"window": {"type": "box", "side": 6.0, "dim": 2}})},
     ["estimate", "--pattern", "pattern"], 1,
     "pattern.csv:2: non-finite value 'nan' in column 'x2'"),
    ({"pattern.csv": b"x1,x2\n0.5,0.5\n", "pattern.json": b"not json"},
     ["estimate", "--pattern", "pattern"], 1, "pattern.json: Expecting value"),
    ({"estimate.json": b"not json"}, ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: Expecting value"),
    ({"estimate.json": b"[]"}, ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: expected a JSON object"),
    ({"estimate.json": b"[" * 100000}, ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: maximum recursion depth exceeded"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "dim": "2"})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: 'dim' must be a positive integer, got '2'"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "sigma_hat": {"a": 1}})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: 'sigma_hat' must hold 4 numbers"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "sigma_hat": ["0.16", 0, 0, "0.16"]})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: 'sigma_hat' must hold 4 numbers"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "sigma_hat": [0.16, False, False, 0.16]})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: 'sigma_hat' must hold 4 numbers"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "R_used": "x"})},
     ["detect", "--estimate", "estimate.json", "--calibrate"], 1,
     "estimate.json: 'R_used' must be a positive number, got 'x'"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "r_used": "x"})},
     ["detect", "--estimate", "estimate.json", "--calibrate"], 1,
     "estimate.json: 'r_used' must be a positive number, got 'x'"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "r_used": -1})},
     ["detect", "--estimate", "estimate.json", "--calibrate"], 1,
     "estimate.json: 'r_used' must be a positive number, got -1"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "sigma_hat": NAN_SIGMA_HAT})}, DETECT, 1,
     "estimate.json: 'sigma_hat' has non-finite entries"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "sigma_hat": ASYMMETRIC_SIGMA_HAT})},
     DETECT, 1, "estimate.json: matrix is asymmetric beyond tolerance"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "R_used": 0.5})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: the analytic threshold needs |B(R_used)| > 1, got |B(0.5)| = 0.785; "
     "--calibrate takes any R_used\n"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "R_used": 10**400})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: 'R_used' must be a positive number, got more than 10^15\n"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "sigma_hat": [10**400, 0, 0, 0.16]})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: 'sigma_hat' has non-finite entries"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "r_used": 10**400})},
     ["detect", "--estimate", "estimate.json", "--calibrate"], 1,
     "estimate.json: 'r_used' must be a positive number, got more than 10^15\n"),
    ({"pattern.csv": b"x1,x2\n0.5,0.5\n",
      "pattern.json": _json_bytes({"window": {"type": "box", "side": 10**400, "dim": 2}})},
     ["estimate", "--pattern", "pattern"], 1,
     "pattern.json: window side must be a number and dim an integer, got more than 10^15 "
     "and 2\n"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "dim": 10**2500})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: 'sigma_hat' must hold more than 10^15 numbers\n"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "dim": -10**4000})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: 'dim' must be a positive integer, got less than -10^15\n"),
    ({"pattern.csv": b"x1,x2\n0.5,0.5\n",
      "pattern.json": _json_bytes({"window": {"type": "box", "side": 6.0, "dim": 10**3999}})},
     ["estimate", "--pattern", "pattern"], 1,
     "pattern.csv: pattern CSV has 2 columns, window 'dim' in pattern.json is more than "
     "10^15\n"),
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "dim": "x" * 100_000})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: 'dim' must be a positive integer, got '" + "x" * 35 + "...\n"),
    # count_expectation is computed first: bernstein reads it.
    ({}, ["bounds", "--d", "400"], 1, "count_expectation is out of range of a float"),
    ({}, ["bounds", "--r", "1e100", "--d", "3"], 1,
     "variance_bound is out of range of a float"),
    ({}, ["bounds", "--d", "1000", "--R", "0.5"], 1, "risk_rate is out of range of a float"),
    ({}, ["bounds", "--R", "1e154"], 1, "count_expectation is out of range of a float"),
    ({}, ["bounds", "--R", "1e200"], 1, "count_expectation is out of range of a float"),
    ({}, ["sample", "--d", "200", "--L", "100", "--seed", "0"], 1,
     "mode count (at least 10^"),
    # |B(0.3)| = 0.6 in d=1: no automatic cutoff and no analytic threshold.
    ({"pattern.csv": b"x1\n0.1\n-0.25\n2.5\n",
      "pattern.json": _json_bytes({"window": {"type": "box", "side": 8.0, "dim": 1}})},
     ["estimate", "--pattern", "pattern", "--ball-radius", "0.3"], 1,
     "gaussdpp: error: the automatic cutoff needs |B(R)| > 1, got |B(0.3)| = 0.6; "
     "give the cutoff r\n"),
    ({"estimate.json": _json_bytes({"dim": 1, "sigma_hat": [0.2], "n": 0.6, "R_used": 0.3,
                                    "r_used": 0.1})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: the analytic threshold needs |B(R_used)| > 1, got |B(0.3)| = 0.6; "
     "--calibrate takes any R_used\n"),
    # |B(1e200)| = pi 1e400 is not a float.
    ({"estimate.json": _json_bytes({**ESTIMATE_JSON, "R_used": 1e200})},
     ["detect", "--estimate", "estimate.json"], 1,
     "estimate.json: |B(R)| for R = 1e+200 in d = 2 is out of range of a float\n"),
    ({"pattern.csv": b"x1,x2\n0.5,0.5\n",
      "pattern.json": _json_bytes({"window": {"type": "box", "side": 1e200, "dim": 2}})},
     ["estimate", "--pattern", "pattern"], 1,
     "pattern.json: |B(R)| for R = 5e+199 in d = 2 is out of range of a float\n"),
    # |B(5e99)| is a float; r^(d+2) = 1e396 is not, and 2^2 |B(1)| 1e308 / 4 is not.
    *[({"pattern.csv": b"x1,x2\n0.5,0.5\n",
        "pattern.json": _json_bytes({"window": {"type": "box", "side": 1e100, "dim": 2}})},
       ["estimate", "--pattern", "pattern", "--r", r], 1,
       f"pattern.json: the identity term in r^(d+2) for r = {float(r):g} in d = 2 is out of "
       "range of a float\n")
      for r in ("1e99", "1e77")],
    # The identity term in r^4 = 1e304 is a float; the variance bound in r^8 is not.
    ({"pattern.csv": b"x1,x2\n0.5,0.5\n",
      "pattern.json": _json_bytes({"window": {"type": "box", "side": 1e100, "dim": 2}})},
     ["estimate", "--pattern", "pattern", "--r", "1e76"], 1,
     "gaussdpp: error: pattern.json: variance_bound in r^(2d+4) for r = 1e+76 in d = 2 is "
     "out of range of a float\n"),
    # R_used^d = 1e308 is a float, |B(R_used)| = pi 1e308 is not.
    *[({"estimate.json": _json_bytes({**ESTIMATE_JSON, "R_used": 1e154})},
       ["detect", "--estimate", "estimate.json", *calibrate], 1,
       "estimate.json: |B(R)| for R = 1e+154 in d = 2 is out of range of a float\n")
      for calibrate in ([], ["--calibrate"])],
    # The same |B(R)| as a window: estimate once wrote it to estimate.json as inf.
    ({"p.csv": b"x1,x2\n0.5,0.5\n",
      "p.json": _json_bytes({"window": {"type": "box", "side": 2e154, "dim": 2}})},
     ["estimate", "--pattern", "p", "--r", "1"], 1,
     "gaussdpp: error: p.json: |B(R)| for R = 1e+154 in d = 2 is out of range of a float\n"),
    # R - r is one ulp of R = 1e-160, and |B(R - r)| underflows to 0.
    ({"pattern.csv": b"x1,x2\n0.0,0.0\n",
      "pattern.json": _json_bytes({"window": {"type": "box", "side": 2e-160, "dim": 2}})},
     ["estimate", "--pattern", "pattern", "--r", repr(math.nextafter(1e-160, 0))], 1,
     "pattern.json: the pair-sum weight 2^((d+2)/2)/|B(R-r)| for R - r = "
     f"{1e-160 - math.nextafter(1e-160, 0):g} in d = 2 is out of range of a float\n"),
], ids=["config-no-path", "config-list", "config-not-json", "config-not-utf8",
        "config-argv-not-strings",
        "pattern-csv-empty", "pattern-csv-non-numeric", "pattern-csv-non-finite",
        "pattern-json-not-json", "estimate-not-json", "estimate-list",
        "estimate-nested-too-deep",
        "estimate-dim-string",
        "estimate-sigma_hat-object", "estimate-sigma_hat-strings", "estimate-sigma_hat-bool",
        "estimate-R_used-string", "estimate-r_used-string",
        "estimate-r_used-negative", "estimate-sigma_hat-nan",
        "estimate-sigma_hat-asymmetric", "estimate-analytic-n-below-1",
        "estimate-R_used-beyond-float",
        "estimate-sigma_hat-beyond-float", "estimate-r_used-beyond-float",
        "pattern-json-side-beyond-float", "estimate-dim-2501-digits",
        "estimate-dim-negative-4001-digits",
        "pattern-json-dim-4000-digits", "estimate-dim-100000-char-string", "bounds-d-400",
        "bounds-r-1e100", "bounds-d-1000", "bounds-R-1e154", "bounds-R-1e200",
        "sample-mode-count",
        "estimate-automatic-cutoff-ball-below-1", "estimate-analytic-d1-ball-below-1",
        "estimate-R_used-ball-volume-beyond-float", "pattern-json-ball-volume-beyond-float",
        "pattern-json-identity-term-beyond-float", "pattern-json-identity-term-infinite",
        "pattern-json-variance-bound-beyond-float",
        "estimate-R_used-ball-volume-infinite",
        "estimate-R_used-ball-volume-infinite-calibrated",
        "pattern-json-ball-volume-infinite", "pattern-json-pair-weight-underflow"])
def test_malformed_input_file_ends_in_a_message(files, argv, code, message, tmp_path):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    proc = _run_cli(*argv, "--out", "out", cwd=tmp_path)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    prefix = "gaussdpp: bad --config: " if code == 2 else "gaussdpp: error: "
    assert proc.stderr.startswith(prefix)
    assert message in proc.stderr


# bounds writes all five values; these once selected them one at a time.
BOUNDS_SELECTORS = ["--bernstein", "--bias", "--variance", "--rate", "--count"]


@pytest.mark.parametrize("command, argv, removed", [
    ("sample", ["--d", "2", "--L", "6", "--seed", "0"], ["--tol", "1e-06"]),
    ("estimate", ["--pattern", "pattern"], ["--R", "3.0"]),
    ("bounds", [], ["--C", "2.0"]),
    ("bounds", [], ["--c", "2.0"]),
    ("reduce", ["--data", "data.csv", "--method", "pca"], ["--no-center"]),
    ("reduce", ["--data", "data.csv", "--method", "pca"], ["--no-scale"]),
    *[("bounds", [], [flag]) for flag in BOUNDS_SELECTORS],
], ids=["tol", "R", "C", "c", "no-center", "no-scale", *(f[2:] for f in BOUNDS_SELECTORS)])
def test_stored_config_with_a_removed_option_is_a_usage_error(command, argv, removed,
                                                              tmp_path):
    config = {"command": command, "argv": [*argv, *removed]}
    (tmp_path / "run_config.json").write_text(json.dumps(config))
    proc = _run_cli("--config", "run_config.json", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"unrecognized arguments: {' '.join(removed)}" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["bounds", "--out", "afile"], "afile"),
    (["bounds", "--out", "afile/x"], "afile/x"),
    (["estimate", "--pattern", "adir/pattern", "--out", "out"], "pattern.json"),
    (["detect", "--estimate", "adir", "--out", "out"], "adir"),
    (["reduce", "--data", "adir", "--method", "pca", "--out", "out"], "adir"),
], ids=["out-is-a-file", "out-under-a-file", "pattern-sidecar-is-a-directory",
        "estimate-is-a-directory", "data-is-a-directory"])
def test_os_errors_end_in_a_message(argv, named, tmp_path):
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir" / "pattern.json").mkdir(parents=True)
    proc = _run_cli(*argv, cwd=tmp_path)
    _assert_clean_runtime_error(proc, named)


def _python(code: str, *args: str) -> list[str]:
    """Run code in a fresh interpreter importing gaussdpp from the sources;
    its last line of output, split."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_core_imports_only_numpy():
    # The command line binds the package modules lazily: load each one.
    modules = sorted(p.stem for p in (SRC / "gaussdpp").glob("*.py") if p.stem != "__init__")
    forbidden = ("scipy", "pytest", "hypothesis", "multiprocessing", "concurrent.futures")
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    vars(importlib.import_module('gaussdpp.' + name))\n"
            f"print(sorted(m for m in {forbidden!r} if m in sys.modules))")
    assert _python(code) == ["[]"]


# Runs the command line as `python -m gaussdpp.cli` does, then reports its
# exit code and whether numpy was imported.
_RUN_CLI = """import runpy, sys
try:
    runpy.run_module("gaussdpp.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules)
"""


def test_a_process_imports_numpy_only_to_compute_with_it(pca_embedding, tmp_path):
    roc = ["roc", "--embedding", str(pca_embedding), "--out", str(tmp_path / "roc")]
    assert _python(_RUN_CLI, *roc) == ["0", "False"]
    assert (tmp_path / "roc" / "roc.csv").is_file()
    assert _python(_RUN_CLI, "--version") == ["0", "False"]
    usage = ["reduce", "--data", "data.csv", "--method", "pca", "--r", "1",
             "--out", str(tmp_path / "reduce")]
    assert _python(_RUN_CLI, *usage) == ["2", "False"]
    code = ("import sys, gaussdpp; print('numpy' in sys.modules, "
            "[m for m in sys.modules if m.startswith('gaussdpp.')])")
    assert _python(code) == ["False", "[]"]


def test_every_public_name_is_the_object_its_home_module_defines():
    for name in gaussdpp.__all__:
        if name != "__version__":
            home = sys.modules[getattr(gaussdpp, name).__module__]
            assert home.__name__.startswith("gaussdpp.")
            assert getattr(home, name) is getattr(gaussdpp, name), name


def test_only_datasets_opens_files():
    # datasets.py owns every file format.  json.dumps and Path.read_bytes
    # (the source fingerprint) stay allowed elsewhere.
    calls = []
    for path in sorted((SRC / "gaussdpp").glob("*.py")):
        if path.name != "datasets.py":
            calls += [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Call) and (
                          ast.unparse(node.func) in ("open", "json.load", "json.dump")
                          or getattr(node.func, "attr", None) == "open")]
    assert calls == []


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


def test_every_kernel_function_has_a_caller_in_src():
    # kernel.py holds the model's formulas that the package computes with;
    # a reference formula only tests call belongs in tests/oracles.py.
    tree = ast.parse((SRC / "gaussdpp" / "kernel.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in sorted((SRC / "gaussdpp").glob("*.py")):
        if path.name != "kernel.py":
            called.update(ast.unparse(node.func).split(".")[-1]
                          for node in ast.walk(ast.parse(path.read_text()))
                          if isinstance(node, ast.Call))
    assert public and sorted(public - called) == []


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package and the package modules it imports, at
    module level or inside a function."""
    modules = {path.stem: path for path in (SRC / "gaussdpp").glob("*.py")}
    graph = {}
    for name, path in modules.items():
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                # A relative import is from the package itself, which has no subpackage.
                base = ".".join(filter(None, ["gaussdpp" if node.level else "", node.module]))
                imported.update([base, *(f"{base}.{a.name}" for a in node.names)])
        graph[name] = {full.split(".")[1] for full in imported
                       if full.startswith("gaussdpp.") and full.split(".")[1] in modules} - {name}
    return graph


def test_package_imports_run_one_way():
    # The stack: datasets (file formats) at the bottom, then kernel and
    # patterns, then the estimator, the sampler and dimred side by side, then
    # spiked and the command line.  An edge against it makes a cycle, or makes
    # a command load a module it does not use.
    graph = _package_imports()
    side_by_side = {"estimator", "sampling", "dimred"}
    against = sorted(f"{a} -> {b}" for a, targets in graph.items() for b in targets
                     if a == "datasets" or {a, b} <= side_by_side)
    assert against == [], f"imports against the stack: {against}"
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


# Null calibration cache.  The estimate is made on a side-10 box at r = 0.8,
# so its null draws on that box (NULL_L = 2 R_used) and estimates at 0.8.
NULL_L, NULL_K, NULL_SEED, NULL_DELTA, NULL_R = "10", "3", "7", "0.2", 0.8


def _make_estimate(work: Path, L: str, *options: str) -> Path:
    assert cli.main(["sample", "--d", "2", "--L", L, "--seed", "3",
                     "--out", str(work / "sample")]) == 0
    assert cli.main(["estimate", "--pattern", str(work / "sample" / "pattern"), *options,
                     "--out", str(work / "estimate")]) == 0
    return work / "estimate" / "estimate.json"


@pytest.fixture(scope="module")
def estimate_json(tmp_path_factory):
    return _make_estimate(tmp_path_factory.mktemp("estimate"), NULL_L, "--r", str(NULL_R))


def _calibrate(estimate_json, out, *, L=NULL_L, K=NULL_K, seed=NULL_SEED, delta=NULL_DELTA):
    argv = ["detect", "--estimate", str(estimate_json), "--calibrate", "--L", L,
            "--null-replicates", K, "--seed", seed, "--delta", delta, "--out", str(out)]
    assert cli.main(argv) == 0
    return json.loads((out / "result.json").read_text())["calibration_cache"]


def _forbid_simulation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("calibrate_null_threshold called on a cache hit")
    monkeypatch.setattr(cli.spiked, "calibrate_null_threshold", fail)


def test_estimate_records_its_estimator_settings(estimate_json):
    est = json.loads(estimate_json.read_text())
    assert est["estimator"] == {"r": NULL_R}


def test_calibrated_null_uses_the_estimate_settings(estimate_json, tmp_path):
    _calibrate(estimate_json, tmp_path / "out")
    stats = json.loads((tmp_path / "out" / "calibration.json").read_text())["statistics"]
    cal = calibrate_null_threshold(2, float(NULL_L) / 2, NULL_R, float(NULL_DELTA),
                                   int(NULL_K), int(NULL_SEED))
    assert stats == cal.statistics.tolist()


def test_null_never_redraws_the_observed_pattern(tmp_path):
    # At the default seeds sample's pattern must not be a null replicate: the
    # observed statistic would then sit in its own null.
    assert cli.main(SAMPLE + ["--L", "8", "--out", str(tmp_path / "sample")]) == 0
    assert cli.main(["estimate", "--pattern", str(tmp_path / "sample" / "pattern"),
                     "--r", "0.8", "--out", str(tmp_path / "est")]) == 0
    assert cli.main(["detect", "--estimate", str(tmp_path / "est" / "estimate.json"),
                     "--calibrate", "--null-replicates", "3",
                     "--out", str(tmp_path / "detect")]) == 0
    det = json.loads((tmp_path / "detect" / "detect.json").read_text())
    cal = json.loads((tmp_path / "detect" / "calibration.json").read_text())
    assert det["statistic"] not in cal["statistics"]


# 2 pi Sigma_hat has eigenvalues 3 and 1/3, so the statistic is 3.
SPIKED_ESTIMATE_JSON = {**ESTIMATE_JSON,
                        "sigma_hat": spiked_scattering(2.0, [0.6, 0.8]).entries.ravel().tolist()}


@pytest.mark.parametrize("t, reject", [(0.1, True), (20.0, False)])
def test_analytic_detect_compares_the_statistic_with_one_plus_t_rate(t, reject, tmp_path):
    path = tmp_path / "estimate.json"
    path.write_text(json.dumps(SPIKED_ESTIMATE_JSON))
    assert cli.main(["detect", "--estimate", str(path), "--t", str(t),
                     "--out", str(tmp_path / "out")]) == 0
    det = json.loads((tmp_path / "out" / "detect.json").read_text())
    assert set(det) == {"statistic", "threshold", "reject", "mode", "t", "rate", "spike"}
    sigma_hat = np.reshape(SPIKED_ESTIMATE_JSON["sigma_hat"], (2, 2))
    assert det["statistic"] == spiked.detection_statistic(sigma_hat)
    rate = risk_rate(count_expectation(ESTIMATE_JSON["R_used"], 2), 2)
    assert (det["mode"], det["t"], det["rate"]) == ("analytic", t, rate)
    assert det["threshold"] == 1.0 + t * rate
    assert det["reject"] is reject is (det["statistic"] > det["threshold"])


def test_calibrated_detect_takes_the_calibration_threshold(estimate_json, tmp_path):
    _calibrate(estimate_json, tmp_path / "out")
    det = json.loads((tmp_path / "out" / "detect.json").read_text())
    cal = json.loads((tmp_path / "out" / "calibration.json").read_text())
    assert set(det) == {"statistic", "threshold", "reject", "mode", "t", "rate", "delta",
                        "null_replicates", "spike"}
    assert det["threshold"] == cal["threshold"]
    assert (det["mode"], det["t"], det["rate"]) == ("calibrated", None, None)
    assert (det["delta"], det["null_replicates"]) == (float(NULL_DELTA), int(NULL_K))
    assert det["reject"] is (det["statistic"] > det["threshold"])


@pytest.mark.parametrize("sigma_hat", [NAN_SIGMA_HAT, ASYMMETRIC_SIGMA_HAT],
                         ids=["nan", "asymmetric"])
def test_bad_sigma_hat_fails_before_any_null_is_simulated(sigma_hat, tmp_path, monkeypatch,
                                                          capsys):
    def fail(*args, **kwargs):
        raise AssertionError("null simulated before the estimate was checked")
    monkeypatch.setattr(cli.spiked, "calibrate_null_threshold", fail)
    path = tmp_path / "estimate.json"
    path.write_text(json.dumps({**ESTIMATE_JSON, "sigma_hat": sigma_hat}))
    argv = ["detect", "--estimate", str(path), "--calibrate", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"gaussdpp: error: {path}: ")


def test_calibrated_detect_takes_an_expected_count_below_one(tmp_path):
    # A ball of radius 0.5 expects n = pi/4 points; only the analytic rate needs n > 1.
    assert cli.main(["sample", "--d", "2", "--L", "6", "--seed", "0",
                     "--out", str(tmp_path / "sample")]) == 0
    assert cli.main(["estimate", "--pattern", str(tmp_path / "sample" / "pattern"),
                     "--ball-radius", "0.5", "--r", "0.2", "--out", str(tmp_path / "est")]) == 0
    assert json.loads((tmp_path / "est" / "estimate.json").read_text())["n"] < 1
    assert cli.main(["detect", "--estimate", str(tmp_path / "est" / "estimate.json"),
                     "--calibrate", "--null-replicates", "2",
                     "--out", str(tmp_path / "detect")]) == 0


def test_older_estimate_record_replays_the_same_null(estimate_json, tmp_path, monkeypatch):
    # Before the window fixed R, estimate.json recorded R (null unless
    # --R was given) and the auto-rule scale C0 beside r.
    older = tmp_path / "older.json"
    est = json.loads(estimate_json.read_text())
    older.write_text(json.dumps({**est, "estimator": {"r": NULL_R, "R": None, "C0": 1.0}}))
    assert _calibrate(estimate_json, tmp_path / "current") == "miss"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "another-cache"))
    assert _calibrate(older, tmp_path / "older") == "miss"
    for name in ("calibration.json", "detect.json"):
        assert ((tmp_path / "current" / name).read_bytes()
                == (tmp_path / "older" / name).read_bytes())


@pytest.fixture(scope="module")
def auto_estimate_json(tmp_path_factory):
    # On the side-10 box the automatic cutoff is capped at R/2 = 2.5.
    return _make_estimate(tmp_path_factory.mktemp("auto-estimate"), NULL_L)


def test_automatic_estimate_null_runs_at_its_r_used(auto_estimate_json, tmp_path):
    est = json.loads(auto_estimate_json.read_text())
    assert (est["estimator"], est["r_used"]) == ({"r": None}, 2.5)
    _calibrate(auto_estimate_json, tmp_path / "out")
    stats = json.loads((tmp_path / "out" / "calibration.json").read_text())["statistics"]
    draws = [sample_gdp(isotropic_scattering(2), BoxWindow(10.0, 2), (int(NULL_SEED), i, 0, 1))
             for i in range(int(NULL_K))]
    assert stats == [spiked.detection_statistic(estimate_scattering(pat, 2.5).sigma_hat)
                     for pat in draws]


def test_older_automatic_record_replays_its_own_r_used(auto_estimate_json, tmp_path):
    # An older automatic record, with the removed scale C0 = 2, replays the
    # null at its r_used, the cutoff its statistic was computed at.
    older = tmp_path / "older.json"
    est = json.loads(auto_estimate_json.read_text())
    older.write_text(json.dumps({**est, "estimator": {"r": None, "R": None, "C0": 2.0}}))
    _calibrate(older, tmp_path / "out")
    cal = calibrate_null_threshold(2, est["R_used"], est["r_used"], float(NULL_DELTA),
                                   int(NULL_K), int(NULL_SEED))
    assert (json.loads((tmp_path / "out" / "calibration.json").read_text())
            == cal.to_json_dict())


def test_null_box_too_small_for_the_cutoff_fails_before_sampling(monkeypatch):
    # The null's box is 2R, so a cutoff r >= R cannot be estimated on B(R).
    def fail(*args, **kwargs):
        raise AssertionError("calibration sampled before checking its cutoff")
    monkeypatch.setattr(spiked, "sample_gdp", fail)
    with pytest.raises(ValueError) as exc:
        calibrate_null_threshold(2, 0.5, 0.8, float(NULL_DELTA), int(NULL_K), int(NULL_SEED))
    assert str(exc.value) == "the null estimates need 0 < r < R, got r = 0.8, R = 0.5"


def _spy(log: Path, fn, entry):
    """fn, appending entry(*args) to log as a JSON line on each call: a file
    sees the calls of the forked replicate processes too, a list only the caller's."""
    def spy(*args):
        with log.open("a") as fh:
            fh.write(json.dumps(entry(*args)) + "\n")
        return fn(*args)
    return spy


def _spied(log: Path) -> list:
    return [json.loads(line) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("options, side, r", [
    (["--r", "0.8"], 10.0, 0.8),
    (["--ball-radius", "3.5", "--r", "0.6"], 7.0, 0.6),
], ids=["box", "ball-radius"])
def test_every_null_replicate_replays_the_estimate_design(options, side, r, tmp_path,
                                                          monkeypatch):
    # Drawn on the box of side 2 R_used, estimated at r_used on B(R_used).
    path = _make_estimate(tmp_path, "10", *options)
    est = json.loads(path.read_text())
    assert (2 * est["R_used"], est["r_used"]) == (side, r)
    draws, estimates = tmp_path / "draws.jsonl", tmp_path / "estimates.jsonl"
    monkeypatch.setattr(spiked, "sample_gdp", _spy(
        draws, sample_gdp, lambda sigma, window, seed: [window.side, window.dim]))
    monkeypatch.setattr(spiked, "estimate_scattering", _spy(
        estimates, estimate_scattering,
        lambda pattern, cutoff: [pattern.window.side, pattern.window.dim, cutoff]))
    assert cli.main(["detect", "--estimate", str(path), "--calibrate", "--null-replicates",
                     NULL_K, "--out", str(tmp_path / "out")]) == 0
    assert [BoxWindow(*w) for w in _spied(draws)] == [BoxWindow(side, 2)] * int(NULL_K)
    assert ([(BoxWindow(s, d), cutoff) for s, d, cutoff in _spied(estimates)]
            == [(BoxWindow(side, 2), r)] * int(NULL_K))


def test_null_box_other_than_the_estimate_is_refused(estimate_json, tmp_path, monkeypatch,
                                                     capsys):
    # --L stays for stored configs, which pass 2 R_used; it sets nothing else.
    assert _calibrate(estimate_json, tmp_path / "with-L") == "miss"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "another-cache"))
    assert cli.main(["detect", "--estimate", str(estimate_json), "--calibrate",
                     "--null-replicates", NULL_K, "--seed", NULL_SEED, "--delta", NULL_DELTA,
                     "--out", str(tmp_path / "without-L")]) == 0
    for name in ("calibration.json", "detect.json"):
        assert ((tmp_path / "with-L" / name).read_bytes()
                == (tmp_path / "without-L" / name).read_bytes())

    def fail(*args, **kwargs):
        raise AssertionError("null drawn on another box")
    monkeypatch.setattr(spiked, "sample_gdp", fail)
    capsys.readouterr()
    argv = ["detect", "--estimate", str(estimate_json), "--calibrate", "--L", "12",
            "--null-replicates", NULL_K, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "gaussdpp: error: --L 12.0 is not the estimate's box side 2 * R_used = 10.0: "
        "the null replays the estimate's own design\n")
    assert not (tmp_path / "out" / "result.json").exists()


@pytest.mark.parametrize("record", [{"n": 3.0}, {}], ids=["stale-n", "no-n"])
def test_analytic_detect_reads_n_from_R_used(record, tmp_path):
    # The record's n is |B(R_used)|; detect recomputes it rather than read it.
    consistent = {**SPIKED_ESTIMATE_JSON, "n": count_expectation(4.0, 2)}
    other = {k: v for k, v in SPIKED_ESTIMATE_JSON.items() if k != "n"} | record
    outputs = []
    for name, est in (("consistent", consistent), ("other", other)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(est))
        assert cli.main(["detect", "--estimate", str(path), "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "detect.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_warm_calibration_is_byte_identical(estimate_json, tmp_path, monkeypatch):
    assert _calibrate(estimate_json, tmp_path / "cold") == "miss"
    _forbid_simulation(monkeypatch)
    assert _calibrate(estimate_json, tmp_path / "warm") == "hit"
    for name in ("calibration.json", "detect.json"):
        assert ((tmp_path / "cold" / name).read_bytes()
                == (tmp_path / "warm" / name).read_bytes())


def test_other_delta_hits_with_its_own_threshold(estimate_json, tmp_path, monkeypatch):
    assert _calibrate(estimate_json, tmp_path / "cold") == "miss"
    fresh = calibrate_null_threshold(2, float(NULL_L) / 2, NULL_R, 0.5, int(NULL_K),
                                     int(NULL_SEED))
    _forbid_simulation(monkeypatch)
    assert _calibrate(estimate_json, tmp_path / "warm", delta="0.5") == "hit"
    cal = json.loads((tmp_path / "warm" / "calibration.json").read_text())
    det = json.loads((tmp_path / "warm" / "detect.json").read_text())
    assert cal == fresh.to_json_dict()
    assert det["threshold"] == fresh.threshold
    assert fresh.threshold != json.loads(
        (tmp_path / "cold" / "calibration.json").read_text())["threshold"]


@pytest.mark.parametrize("change", [{"seed": "8"}, {"K": "4"}, {"L": "12"}, "sources"])
def test_changed_inputs_miss(change, estimate_json, tmp_path, monkeypatch):
    assert _calibrate(estimate_json, tmp_path / "cold") == "miss"
    if change == "sources":
        monkeypatch.setattr(cli, "_source_fingerprint", lambda: "0" * 64)
        change = {}
    elif "L" in change:  # an estimate of another window: R_used 6 against 5
        estimate_json = _make_estimate(tmp_path / "side-12", change["L"], "--r", str(NULL_R))
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


def test_calibration_replicate_prefix_is_stable(estimate_json, tmp_path):
    _calibrate(estimate_json, tmp_path / "three", K="3")
    _calibrate(estimate_json, tmp_path / "five", K="5")
    three, five = (json.loads((tmp_path / k / "calibration.json").read_text())["statistics"]
                   for k in ("three", "five"))
    assert len(five) == 5 and five[:3] == three


def test_poisson_sidecar_records_no_scattering_matrix(tmp_path):
    # The Poisson draw uses neither a scattering matrix nor the spectral
    # tolerance (its scattering options are usage errors).
    assert cli.main(SAMPLE + ["--L", "6", "--process", "poisson", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "pattern.json").read_text())
    assert meta["process"] == "poisson"
    assert "sigma" not in meta and "tol" not in meta
    assert meta["count"] == len((tmp_path / "pattern.csv").read_text().splitlines()) - 1


def test_sigma_entries_are_normalized_and_drive_sample_and_validate(tmp_path):
    # --sigma-entries is rescaled to det (2 pi)^-d, keeping its eigenvectors,
    # and validate bins by that matrix's own separation.
    argv = ["--d", "2", "--L", "8", "--seed", "0", "--sigma-entries", "1,0.2;0.2,1"]
    assert cli.main(["sample", *argv, "--out", str(tmp_path / "sample")]) == 0
    sigma = np.asarray(json.loads((tmp_path / "sample" / "pattern.json").read_text())["sigma"])
    assert np.linalg.det(sigma) == pytest.approx((2 * np.pi) ** -2, rel=1e-12)
    assert np.allclose(sigma / sigma[0, 0], [[1.0, 0.2], [0.2, 1.0]], rtol=1e-14, atol=0)
    assert cli.main(["validate", *argv, "--replicates", "2", "--r-max", "1",
                     "--out", str(tmp_path / "validate")]) == 0
    assert json.loads((tmp_path / "validate" / "validate.json").read_text())["replicates"] == 2


def test_sample_replicate_prefix_is_stable(tmp_path):
    for k in ("3", "5"):
        assert cli.main(SAMPLE + ["--L", "8", "--replicates", k, "--out", str(tmp_path / k)]) == 0
    for i in range(3):
        for suffix in (".csv", ".json"):
            name = f"pattern_{i:04d}{suffix}"
            assert (tmp_path / "3" / name).read_bytes() == (tmp_path / "5" / name).read_bytes()


@pytest.mark.parametrize("command, calls", [("sample", 3), ("validate", 2), ("detect", 3)])
def test_every_replicate_is_one_sample_gdp_call(command, calls, estimate_json, tmp_path,
                                                monkeypatch):
    log = tmp_path / "seeds.jsonl"
    counting = _spy(log, sample_gdp, lambda sigma, window, seed: seed)
    monkeypatch.setattr(cli.sampling, "sample_gdp", counting)
    monkeypatch.setattr(spiked, "sample_gdp", counting)
    argv = {"sample": SAMPLE + ["--L", "6", "--replicates", "3"],
            "validate": ["validate", "--d", "1", "--L", "6", "--seed", "0", "--replicates",
                         "2", "--r-max", "1.0", "--bin-width", "0.25"],
            "detect": ["detect", "--estimate", str(estimate_json), "--calibrate", "--L",
                       NULL_L, "--null-replicates", "3", "--seed", NULL_SEED]}[command]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    seed = int(argv[argv.index("--seed") + 1])
    stream = (0, 1) if command == "detect" else ()  # the null's own streams
    # Sorted: the replicate processes append in no fixed order.
    assert sorted(map(tuple, _spied(log))) == [(seed, i, *stream) for i in range(calls)]


@pytest.mark.parametrize("command", ["sample", "validate", "detect"])
def test_replicate_outputs_do_not_depend_on_the_cpu_count(command, estimate_json, tmp_path,
                                                          monkeypatch):
    # Replicates run in one process per usable CPU; each draws from its own seed.
    argv = {"sample": SAMPLE + ["--L", "6", "--replicates", "3"],
            "validate": VALIDATE + ["--L", "8", "--replicates", "3", "--r-max", "1"],
            "detect": ["detect", "--estimate", str(estimate_json), "--calibrate",
                       "--null-replicates", "3"]}[command]
    payloads = []
    for cpus in (None, {0}, {0, 1, 2}):  # this machine's, then one and three
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        run = tmp_path / str(len(payloads))
        monkeypatch.setenv("XDG_CACHE_HOME", str(run / "cache"))  # every null is drawn
        assert cli.main([*argv, "--out", str(run / "out")]) == 0
        assert json.loads((run / "out" / "result.json").read_text()).get(
            "calibration_cache", "miss") == "miss"
        payloads.append({p.name: p.read_bytes() for p in (run / "out").iterdir()
                         if p.name != "result.json"})
        with pytest.raises(ChildProcessError):  # no replicate process outlives the command
            os.waitpid(-1, os.WNOHANG)
    assert len(payloads[0]) >= 3
    assert payloads[0] == payloads[1] == payloads[2]


def test_a_replicate_error_in_a_child_process_exits_1_with_its_message(tmp_path, monkeypatch,
                                                                      capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller = os.getpid()

    def refusing(sigma, window, seed):
        if os.getpid() != caller:
            raise ValueError(f"replicate {seed[1]} refused in a child")
        return sample_gdp(sigma, window, seed)
    monkeypatch.setattr(cli.sampling, "sample_gdp", refusing)
    out = tmp_path / "out"
    assert cli.main(SAMPLE + ["--L", "6", "--replicates", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "gaussdpp: error: replicate 1 refused in a child\n"
    assert not (out / "result.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.fixture
def pca_embedding(labelled_csv, tmp_path):
    out = tmp_path / "reduce"
    assert cli.main(["reduce", "--data", str(labelled_csv), "--label-column", "label",
                     "--method", "pca", "--out", str(out)]) == 0
    return out / "embedding.csv"


@pytest.mark.parametrize("component", [1, 2])
def test_roc_scores_the_negated_component_unless_flipped(component, pca_embedding, tmp_path):
    table = np.loadtxt(pca_embedding, delimiter=",", skiprows=1)
    coord, labels = table[:, component], table[:, -1].astype(int)
    assert np.unique(coord).size == coord.size  # no ties: --flip mirrors the AUC
    auc = []
    for flip in ([], ["--flip"]):
        out = tmp_path / ("roc-flip" if flip else "roc")
        assert cli.main(["roc", "--embedding", str(pca_embedding), "--component",
                         str(component), *flip, "--out", str(out)]) == 0
        auc.append(_strict_json(out / "roc.json")["auc"])
    pos, neg = -coord[labels == 1], -coord[labels == 0]
    assert auc[0] == sum((p > neg).sum() for p in pos) / (pos.size * neg.size)
    assert auc[1] == pytest.approx(1.0 - auc[0], abs=1e-12)


def test_roc_refuses_a_component_beyond_the_embedding(pca_embedding, tmp_path):
    proc = _run_cli("roc", "--embedding", str(pca_embedding), "--component", "3",
                    "--out", str(tmp_path / "out"))
    _assert_clean_runtime_error(proc, "--component must be in 1..2")


def test_scree_lists_every_eigenvalue_by_rank(pca_embedding):
    eigvals = _strict_json(pca_embedding.parent / "reduce.json")["eigvals"]
    assert len(eigvals) == 4 and eigvals == sorted(eigvals, reverse=True)
    lines = (pca_embedding.parent / "scree.csv").read_text().splitlines()
    assert lines == ["rank,eigenvalue", *(f"{i},{v!r}" for i, v in enumerate(eigvals, 1))]


def test_config_replay_reproduces_validate(tmp_path):
    _replays_byte_identically(["validate", "--d", "1", "--seed", "0", "--L", "6",
                               "--replicates", "2", "--r-max", "1.0", "--bin-width", "0.25"],
                              tmp_path)


def test_config_replay_reproduces_bounds(tmp_path):
    _replays_byte_identically(["bounds", "--sigma", "spiked", "--lam", "1.5"], tmp_path)


@pytest.mark.parametrize("d, model", [(1, "iso"), (2, "iso"), (2, "spiked"), (3, "iso"),
                                      (3, "spiked")])
def test_bounds_writes_each_value_as_its_estimator_function_returns_it(d, model, tmp_path):
    if model == "iso":
        sigma, options = isotropic_scattering(d), []
    else:
        sigma = spiked_scattering(3.0, np.eye(d)[0], d)
        options = ["--sigma", "spiked", "--lam", "3"]
    for r in (1.0, 3.0):
        for n in (2.0, 100.0):
            out = tmp_path / f"r{r}-n{n}"
            assert cli.main(["bounds", "--d", str(d), "--r", str(r), "--n", str(n), "--eps",
                             "0.3", "--R", "4", *options, "--out", str(out)]) == 0
            assert _strict_json(out / "bounds.json") == {
                "bernstein": bernstein_tail(0.3, 4.0, d),
                "bias_bound": bias_bound(sigma, r),
                "variance_bound": variance_bound(r, d, n),
                "risk_rate": risk_rate(n, d),
                "count_expectation": count_expectation(4.0, d)}


@pytest.mark.parametrize("argv, builds", [
    (SAMPLE + ["--L", "4", "--sigma", "spiked", "--lam", "2"], 1),
    (SAMPLE + ["--L", "4", "--process", "poisson"], 0),
    (["validate", "--d", "1", "--L", "6", "--seed", "0", "--replicates", "2", "--r-max", "1",
      "--bin-width", "0.25"], 1),
    (["bounds"], 1),
], ids=["sample", "poisson", "validate", "bounds"])
def test_a_run_builds_its_scattering_matrix_once(argv, builds, tmp_path, monkeypatch):
    calls = []
    parse = cli._parse_sigma
    monkeypatch.setattr(cli, "_parse_sigma", lambda *a: calls.append(a) or parse(*a))
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == builds


def test_bounds_overflow_is_a_runtime_error(tmp_path):
    # |B(1)| R^d: 10^400 is not a float.
    _assert_clean_runtime_error(_run_cli("bounds", "--d", "400", "--out", "out", cwd=tmp_path),
                                "out of range")


@pytest.mark.parametrize("argv, callee, error, message", [
    # Stands in for a pattern with more close pairs than memory holds.
    (["estimate", "--pattern", "pattern", "--r", "0.5"], "close_pairs",
     MemoryError("Unable to allocate 8.00 GiB"),
     "gaussdpp: error: pattern.json: Unable to allocate 8.00 GiB\n"),
    (["bounds"], "count_expectation", MemoryError("Unable to allocate 8.00 GiB"),
     "gaussdpp: error: Unable to allocate 8.00 GiB\n"),
    (["bounds"], "count_expectation", MemoryError(), "gaussdpp: error: MemoryError\n"),
], ids=["estimate", "bounds", "bounds-bare"])
def test_memory_error_ends_in_a_message(argv, callee, error, message, tmp_path, monkeypatch,
                                        capsys):
    def out_of_memory(*args):
        raise error
    (tmp_path / "pattern.csv").write_text("x1,x2\n0.5,0.5\n0.6,0.5\n")
    (tmp_path / "pattern.json").write_text(
        json.dumps({"window": {"type": "box", "side": 3.0, "dim": 2}}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.estimator, callee, out_of_memory)
    assert cli.main([*argv, "--out", "out"]) == 1
    assert capsys.readouterr().err == message


def test_a_draw_beyond_physical_memory_exits_1_naming_rank_and_bytes(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.setattr(cli.sampling, "_physical_memory", lambda: 1000)
    out = tmp_path / "out"
    assert cli.main(SAMPLE + ["--L", "6", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    found = re.fullmatch(r"gaussdpp: error: a draw of rank (\d+) needs (\d+) bytes, "
                         r"more than physical memory\n", err)
    assert found and int(found[2]) == 4 * int(found[1]) ** 2 > 1000, err
    assert not (out / "result.json").exists()


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


@pytest.mark.parametrize("method", ["pca", "dpp"])
def test_reduce_takes_a_single_feature(method, tmp_path):
    data = tmp_path / "one.csv"
    data.write_text("f1,label\n1.0,0\n2.0,1\n4.0,1\n")
    out = tmp_path / "reduce"
    assert cli.main(["reduce", "--data", str(data), "--label-column", "label", "--method",
                     method, "--k", "1", "--out", str(out)]) == 0
    assert len(_strict_json(out / "reduce.json")["eigvals"]) == 1


# The exit-code contract, one subcommand at a time: 0 success, 1 runtime
# failure, 2 usage error.  Paths are relative to the inputs fixture; an
# --out in a case stands in for the test's own.
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
                 ["validate", "--d", "1", "--L", "1e7", "--seed", "0", "--replicates", "2"],
                 ["validate", "--d", "1", "--L", "6"]),
    "bounds": (["bounds"],
               ["bounds", "--out", "data.csv/bounds"],  # a directory under a regular file
               ["bounds", "--n", "1"]),
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
        status = cli.main([argv[0], "--out", str(out), *argv[1:]])
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


@pytest.mark.parametrize("options, message", [
    (["--r-max", "5"], "--r-max 5 and --bin-width 0.1 put the last bin edge at 5, "
                       "beyond --L/2 = 4"),
    (["--bin-width", "5"], "--r-max 2 and --bin-width 5 give no bin"),
    # Under 2 pi S = diag(4, 1/4) a separation rho = 2.5 spans 5 along e1.
    (["--r-max", "2.5", "--sigma", "spiked", "--lam", "3"],
     "--r-max 2.5 and --bin-width 0.1 put the last bin edge at 2.5, whose pairs reach 5, "
     "beyond --L/2 = 4"),
    (["--sigma", "spiked", "--lam", "3", "--u", "1,0,0"],
     "validate: spike direction has length 3, expected 2"),
])
def test_validate_checks_its_bins_before_sampling(options, message, tmp_path, capsys,
                                                  monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("validate sampled before checking its bins")
    monkeypatch.setattr(cli.sampling, "sample_gdp", fail)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(VALIDATE + ["--L", "8", "--replicates", "20", *options, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gaussdpp")
    assert message in err
    assert not out.exists()


def test_validate_ends_its_bins_at_r_max(tmp_path):
    # arange puts the last edge of 0.3 in widths of 0.1 at 0.30000000000000004,
    # beyond --L/2 = 0.3.
    out = tmp_path / "out"
    assert cli.main(["validate", "--d", "2", "--L", "0.6", "--replicates", "2", "--seed", "1",
                     "--r-max", "0.3", "--bin-width", "0.1", "--out", str(out)]) == 0
    centers = np.loadtxt(out / "paircorr.csv", delimiter=",", skiprows=1)[:, 0]
    assert centers.tolist() == pytest.approx([0.05, 0.15, 0.25], rel=1e-12)


def test_validate_keeps_its_last_bin_edge_within_r_max(tmp_path):
    # Rounded to the nearest width, --r-max 0.26 put the last edge at 0.3 (arange's
    # 0.30000000000000004), beyond --L/2 = 0.3; it ends at the last width within.
    out = tmp_path / "out"
    assert cli.main(["validate", "--d", "2", "--L", "0.6", "--replicates", "2", "--seed", "1",
                     "--r-max", "0.26", "--bin-width", "0.1", "--out", str(out)]) == 0
    centers = np.loadtxt(out / "paircorr.csv", delimiter=",", skiprows=1)[:, 0]
    assert centers.tolist() == pytest.approx([0.05, 0.15], rel=1e-12)


def test_validate_accepts_a_last_bin_edge_at_half_the_side(tmp_path):
    # --r-max 0.31 put the last edge at arange's 0.30000000000000004, --L/2 = 0.3 up
    # to rounding.  The edge ends where its pairs reach --L/2, and the estimator's
    # own reach check passes.  The spike stretches pairs by s = 1.30384...: there
    # --L/2 / s is 0.3 up to rounding, and (--L/2 / s) * s rounds above --L/2.
    # A draw here is about one point, outside the inscribed ball that validate
    # counts in with probability 1 - pi/4; the count test refuses all-zero
    # counts, which 16 replicates give with probability 0.215^16 = 2e-11.
    spiked = ["--sigma", "spiked", "--lam", "0.7", "--u", "0.6,0.8"]
    for name, model, side in [("iso", [], "0.6"), ("spiked", spiked, "0.7823042886243179")]:
        out = tmp_path / name
        assert cli.main(["validate", "--d", "2", "--L", side, "--replicates", "16",
                         "--seed", "1", *model, "--r-max", "0.31", "--bin-width", "0.1",
                         "--out", str(out)]) == 0
        centers = np.loadtxt(out / "paircorr.csv", delimiter=",", skiprows=1)[:, 0]
        assert centers.tolist() == pytest.approx([0.05, 0.15, 0.25], rel=1e-9)


def test_validate_bins_an_anisotropic_model_by_its_own_separation(tmp_path):
    # The model's pair correlation depends on u through rho = sqrt(u'(2 pi S)^-1 u)
    # alone, so a correct sampler matches it as closely for a spike, along an
    # axis or not, as for the isotropic model.  The statistic is the replicate
    # mean's excess over the model, averaged over the four bins below rho = 0.4
    # where the model repels most.  Over seeds 0-299 it read 0.009 +- 0.012 (sd)
    # for each model and at most 0.046 of 900 values, so the bound 0.06 is
    # 4.2 sd away: a false-failure rate of about 4e-5 a run (normal
    # approximation, three models), and none of the 300 seeds failed.
    # Binning the spiked models by Euclidean distance moves it to 0.12 +- 0.016
    # (0.09 at least over seeds 0-99, 0.10 at seed 3), 4 sd beyond the bound.
    for name, model in {"iso": [], "spiked": ["--sigma", "spiked", "--lam", "3"],
                        "diagonal": ["--sigma", "spiked", "--lam", "3", "--u", "1,1"]}.items():
        assert cli.main(["validate", "--d", "2", "--L", "20", "--replicates", "16", "--seed",
                         "3", *model, "--out", str(tmp_path / name)]) == 0
        table = np.loadtxt(tmp_path / name / "paircorr.csv", delimiter=",", skiprows=1)
        near = table[table[:, 0] < 0.4]
        assert abs(np.mean(near[:, 1] - near[:, 2])) <= 0.06, name


def test_estimate_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma (about 10 ms) on first use.
    assert cli.main(SAMPLE + ["--L", "6", "--out", str(tmp_path / "sample")]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = ["estimate", "--pattern", str(tmp_path / "sample" / "pattern"), "--r", "0.8",
            "--out", str(tmp_path / "estimate")]
    loaded = {}
    for name, code in {"numpy": "import numpy",
                       "estimate": f"from gaussdpp import cli; assert cli.main({argv!r}) == 0"
                       }.items():
        proc = subprocess.run([sys.executable, "-c", f"{code}; import sys; "
                               "print('numpy.ma' in sys.modules)"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded[name] = proc.stdout.split()[-1]
    if loaded["numpy"] == "True":
        pytest.skip("this numpy imports numpy.ma itself")
    assert loaded["estimate"] == "False"
