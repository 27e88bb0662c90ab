import pytest

from gaussdpp import cli

SAMPLE = ["sample", "--d", "2", "--seed", "0"]
VALIDATE = ["validate", "--d", "2", "--seed", "0"]
DETECT = ["detect", "--estimate", "estimate.json", "--calibrate"]


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


def test_single_replicate_sample(tmp_path):
    assert cli.main(SAMPLE + ["--L", "4", "--replicates", "1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pattern.csv").exists()
