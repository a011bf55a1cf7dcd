import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cukf.cli import build_parser, parse_and_dispatch


def run(args, tmp_path, monkeypatch, capsys=None):
    monkeypatch.delenv("CUKF_OUTPUT_DIR", raising=False)
    return parse_and_dispatch(args + ["--out", str(tmp_path)])


def test_models_subcommand(capsys):
    assert parse_and_dispatch(["models"]) == 0
    out = capsys.readouterr().out.split()
    assert "example_sec3" in out
    assert "birth_death_cle" in out


def test_unknown_model_exits_1(tmp_path, monkeypatch, capsys):
    code = run(["simulate", "--model", "nope"], tmp_path, monkeypatch)
    assert code == 1
    err = capsys.readouterr().err
    assert "example_sec3" in err  # message lists valid names


def test_missing_beta_exits_1(tmp_path, monkeypatch, capsys):
    code = run(["filter", "--model", "example_sec3", "--variant", "fixed-beta"],
               tmp_path, monkeypatch)
    assert code == 1
    assert "--beta" in capsys.readouterr().err


def test_simulate_writes_trajectory_and_manifest(tmp_path, monkeypatch):
    code = run(["simulate", "--model", "example_sec3", "--N", "20",
                "--seed", "5"], tmp_path, monkeypatch)
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["model"] == "example_sec3"
    assert "version" in manifest


def test_filter_discrete_and_continuous(tmp_path, monkeypatch):
    d1 = tmp_path / "d"
    code = parse_and_dispatch(["filter", "--model", "example_sec3",
                               "--N", "30", "--out", str(d1)])
    assert code == 0
    assert (d1 / "trace.csv").exists()
    d2 = tmp_path / "c"
    code = parse_and_dispatch(["filter", "--model", "birth_death_cle",
                               "--x0", "100", "--out", str(d2)])
    assert code == 0
    assert (d2 / "trace.csv").exists()
    assert (d2 / "trace_summary.csv").exists()
    header = (d2 / "trace.csv").read_text().splitlines()[0]
    assert header.split(",")[1] == "t"


def test_compare_writes_report(tmp_path, monkeypatch):
    code = run(["compare", "--model", "example_sec3", "--beta", "0.1",
                "--replicates", "10", "--N", "40", "--seed", "42"],
               tmp_path, monkeypatch)
    assert code == 0
    body = (tmp_path / "comparison.csv").read_text()
    assert "covariance-update" in body
    assert "fixed-beta=0.1" in body
    assert (tmp_path / "comparison.txt").exists()


def test_oracle_check_passes_on_builtin_models(tmp_path, monkeypatch):
    for model in ("example_sec3", "logistic"):
        d = tmp_path / model
        code = parse_and_dispatch(["oracle-check", "--model", model,
                                   "--horizon", "20", "--x0", "50",
                                   "--out", str(d)])
        assert code == 0
        assert (d / "oracle_deltas.csv").exists()
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["max_relative_delta"] <= 1e-9


def test_limit_check(tmp_path, monkeypatch):
    code = run(["limit-check", "--model", "example_sec3", "--x0", "5"],
               tmp_path, monkeypatch)
    assert code == 0
    lines = (tmp_path / "limit_check.csv").read_text().strip().splitlines()
    assert lines[0] == "dt,mean_err,cov_err"
    assert len(lines) == 5  # four refinement levels


def test_rerun_is_byte_identical(tmp_path, monkeypatch):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code = parse_and_dispatch(["compare", "--model", "example_sec3",
                                   "--beta", "0.1", "--replicates", "5",
                                   "--N", "30", "--seed", "9",
                                   "--out", str(d)])
        assert code == 0
    assert (d1 / "comparison.csv").read_bytes() == (d2 / "comparison.csv").read_bytes()
    assert (d1 / "comparison.txt").read_bytes() == (d2 / "comparison.txt").read_bytes()


def test_oracle_check_rerun_is_byte_identical(tmp_path, monkeypatch):
    # One output directory for both runs: the manifest records it.
    outputs = []
    for _ in range(2):
        code = run(["oracle-check", "--model", "example_sec3", "--horizon",
                    "30", "--init-sigma", "1"], tmp_path, monkeypatch)
        assert code == 0
        outputs.append([(tmp_path / name).read_bytes()
                        for name in ("oracle_deltas.csv", "manifest.json")])
    assert outputs[0] == outputs[1]


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("CUKF_OUTPUT_DIR", str(target))
    code = parse_and_dispatch(["simulate", "--model", "example_sec3",
                               "--N", "5", "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert (target / "trajectory.csv").exists()
    assert not (tmp_path / "ignored").exists()
    manifest = json.loads((target / "manifest.json").read_text())
    assert manifest["out"] == str(target)


def test_model_file_path_accepted(tmp_path, monkeypatch):
    from cukf import modelio
    from cukf.builtin import example_sec3

    path = tmp_path / "sec3.model"
    modelio.save_model(example_sec3(), path)
    code = parse_and_dispatch(["simulate", "--model", str(path), "--N", "5",
                               "--out", str(tmp_path / "out")])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["filter", "--model", "birth_death_cle", "--step", "100"],
    ["filter", "--model", "birth_death_cle", "--step", "0"],
    ["limit-check", "--model", "birth_death_cle", "--dt0", "0.3"],
    ["simulate", "--model", "example_sec3", "--N", "0"],
    ["compare", "--model", "example_sec3", "--beta", "0.1",
     "--replicates", "0"],
    ["oracle-check", "--model", "example_sec3", "--horizon", "0"],
    ["limit-check", "--model", "example_sec3", "--levels", "-1"],
    ["filter", "--model", "example_sec3", "--init-sigma", "-1"],
    ["oracle-check", "--model", "example_sec3", "--init-sigma", "-1"],
    ["filter", "--model", "logistic", "--variant", "fixed-beta",
     "--beta", "0.1"],
    ["filter", "--model", "birth_death_cle", "--variant", "fixed-beta",
     "--beta", "0.1"],
    ["limit-check", "--model", "birth_death_cle", "--dt0", "0"],
    ["limit-check", "--model", "birth_death_cle", "--dt0", "-0.08"],
    ["limit-check", "--model", "birth_death_cle", "--t1", "nan"],
    ["filter", "--model", "birth_death_cle", "--step", "nan"],
    ["simulate", "--model", "birth_death_cle", "--em-step", "nan"],
    ["simulate", "--model", "example_sec3", "--x0", "nan"],
    ["filter", "--model", "example_sec3", "--x0", "nan"],
    ["compare", "--model", "example_sec3", "--beta", "0.1", "--x0", "nan"],
    ["oracle-check", "--model", "example_sec3", "--x0", "nan"],
    ["limit-check", "--model", "birth_death_cle", "--x0", "nan"],
    # Clamp-detection grids of 2.2e13 and 2e8 nodes, refused before they
    # are allocated.
    ["limit-check", "--model", "birth_death_cle", "--levels", "40"],
    ["filter", "--model", "birth_death_cle", "--step", "1e-9"],
    # The Euler limit is of the linear moment equations.
    ["limit-check", "--model", "logistic"],
    # 10^8 Euler-Maruyama steps per gap (40 GB of noise), refused before
    # the noise is drawn.
    ["filter", "--model", "birth_death_cle", "--em-step", "1e-9"],
    ["compare", "--model", "example_sec3"],
    ["compare", "--model", "birth_death_cle", "--beta", "0.1"],
    ["oracle-check", "--model", "birth_death_cle"],
    # Steps whose count overflows to inf.
    ["filter", "--model", "birth_death_cle", "--step", "5e-324"],
    ["simulate", "--model", "birth_death_cle", "--em-step", "5e-324"],
    # One step past the oracle's horizon cap, refused before simulating.
    ["oracle-check", "--model", "example_sec3", "--horizon", "501"],
    # Paths that cannot be used: an --out that is a file, a --model that is
    # a directory.
    ["simulate", "--model", "example_sec3", "--out", "<file>"],
    ["filter", "--model", "<dir>"],
])
@pytest.mark.filterwarnings("error")
def test_invalid_input_exits_1_without_traceback(argv, tmp_path, monkeypatch,
                                                 capsys):
    (tmp_path / "a-file").write_text("")
    paths = {"<file>": str(tmp_path / "a-file"), "<dir>": str(tmp_path)}
    argv = [paths.get(arg, arg) for arg in argv]
    if "--out" in argv:
        monkeypatch.delenv("CUKF_OUTPUT_DIR", raising=False)
        assert parse_and_dispatch(argv) == 1
    else:
        assert run(argv, tmp_path, monkeypatch) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and "NaN" not in err



def test_nonfinite_nonlinear_simulation_names_its_step(tmp_path, monkeypatch,
                                                      capsys):
    code = run(["filter", "--model", "logistic", "--x0", "-5"], tmp_path,
               monkeypatch)
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: drift non-finite (at step 45)\n")


@pytest.mark.filterwarnings("error")
def test_overflowing_mse_exits_0_without_a_warning(tmp_path, monkeypatch,
                                                   capsys):
    # The estimate errors are finite, but their squares overflow.
    code = run(["filter", "--model", "birth_death_cle", "--x0", "1e307",
                "--init-sigma", "1e307"], tmp_path, monkeypatch)
    assert code == 0
    assert "RuntimeWarning" not in capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["mse"] == np.inf


def test_a_diverged_compare_is_a_numerical_failure(tmp_path, monkeypatch,
                                                  capsys):
    # The estimates stay finite, but every squared error overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["compare", "--model", "example_sec3", "--beta", "0.1",
                    "--replicates", "5", "--x0", "1e200"], tmp_path / "out",
                   monkeypatch)
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: mean squared error of filter 'covariance-update' "
        "became non-finite (replicate 0)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("x0", ["1e90", "1e120", "1e153"])
def test_a_compare_whose_mse_standard_error_overflows_is_a_numerical_failure(
        x0, tmp_path, monkeypatch, capsys):
    # Every per-replicate MSE is finite (up to ~1e305), but the squares of
    # their deviations in the standard error overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["compare", "--model", "example_sec3", "--beta", "0.1",
                    "--replicates", "5", "--x0", x0], tmp_path / "out",
                   monkeypatch)
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: mean or standard error of the mean squared error "
        "of filter 'covariance-update' is not finite\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["-1e3", "-1E-3", "-.5e2", "-5"])
@pytest.mark.parametrize("argv, dest", [
    (["filter", "--model", "example_sec3", "--x0"], "x0"),
    (["limit-check", "--model", "example_sec3", "--t0"], "t0"),
    (["compare", "--model", "example_sec3", "--beta"], "beta"),
    (["filter", "--model", "example_sec3", "--variant", "fixed-beta",
      "--beta"], "beta"),
])
def test_a_negative_number_in_exponent_notation_is_an_option_value(
        value, argv, dest):
    # argparse reads "-1e3" as an option unless its negative-number
    # matcher is widened; a Python that drops the hook fails here.
    assert getattr(build_parser().parse_args(argv + [value]), dest) == \
        float(value)


def test_a_negative_compare_seed_exits_1_with_one_error_line(
        tmp_path, monkeypatch, capsys):
    code = run(["compare", "--model", "example_sec3", "--beta", "0.1",
                "--seed", "-1"], tmp_path / "out", monkeypatch)
    assert code == 1
    assert capsys.readouterr().err == "error: expected non-negative integer\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["filter", "oracle-check"])
def test_infinite_init_sigma_exits_1_with_one_error_line(command, tmp_path,
                                                         monkeypatch, capsys):
    code = run([command, "--model", "example_sec3", "--init-sigma", "inf"],
               tmp_path, monkeypatch)
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: --init-sigma must be finite and nonnegative\n"


GOOD_MODEL_FILE = ("kind = discrete\nn = 1\nm = 1\nA0 = 1.0\nA1 = 0.99\n"
                   "C = 1.0\ngsq = 100.0 1.0\nSigma_v = 1.0\nSigma_w = 1.0\n")


@pytest.mark.parametrize("text, message", [
    ("kind = discrete\nn = 1\nm = 1\nA0 = nan\nA1 = 0.99\n"
     "C = 1.0\ngsq = 100.0 1.0\nSigma_v = -1\nSigma_w = -1\n",
     "non-finite"),
    (GOOD_MODEL_FILE + "A1 0.99\n", "line 10: expected 'key = values'"),
    (GOOD_MODEL_FILE + "n = 1\n", "line 10: duplicate key 'n'"),
    (GOOD_MODEL_FILE.replace("Sigma_w = 1.0\n", ""), "missing key 'Sigma_w'"),
    (GOOD_MODEL_FILE.replace("A0 = 1.0", "A0 = 1.0 2.0"),
     "A0 needs 1 values, got 2"),
    (GOOD_MODEL_FILE.replace("discrete", "hybrid"),
     "kind must be discrete or continuous, got 'hybrid'"),
    (GOOD_MODEL_FILE + "sample_times = 0 1\n",
     "sample_times is only valid for kind = continuous"),
    (GOOD_MODEL_FILE.replace("A0 = 1.0", "A0 = abc"), "A0: "),
], ids=["nonfinite", "no-equals", "duplicate", "missing", "count", "kind",
        "sample-times", "not-a-number"])
def test_invalid_model_file_exits_1_with_one_error_line(text, message,
                                                       tmp_path, monkeypatch,
                                                       capsys):
    path = tmp_path / "bad.model"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["filter", "--model", str(path)], tmp_path / "out",
                   monkeypatch)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert message in err


def test_usage_error_exits_1(tmp_path, monkeypatch, capsys):
    assert run(["filter"], tmp_path, monkeypatch) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "error: the following arguments are required: --model" in err


# Usage errors, each followed by valid runs of other subcommands.
ONE_PROCESS = [
    ["filter"],
    ["simulate", "--model", "example_sec3", "--N", "5"],
    ["compare", "--model", "example_sec3", "--beta", "0.1", "--bogus", "1"],
    ["filter", "--model", "birth_death_cle", "--x0", "100"],
    ["oracle-check", "--model", "example_sec3", "--horizon", "two"],
    ["compare", "--model", "example_sec3", "--beta", "0.1", "--replicates",
     "3", "--N", "30"],
    ["filter", "--model", "example_sec3", "--variant", "other"],
    ["oracle-check", "--model", "example_sec3", "--horizon", "10"],
    ["no-such-command"],
    ["limit-check", "--model", "birth_death_cle", "--x0", "100"],
    ["filter", "--help"],
    ["models"],
]


def one_process_outcomes(root, monkeypatch, capsys):
    """Exit code, stdout, stderr and output files of each ONE_PROCESS argv,
    run in turn in this process, each that names a model into its own --out
    under root."""
    monkeypatch.delenv("CUKF_OUTPUT_DIR", raising=False)
    root.mkdir()
    monkeypatch.chdir(root)
    outcomes = []
    for i, argv in enumerate(ONE_PROCESS):
        code = parse_and_dispatch(
            argv + (["--out", f"out{i}"] if "--model" in argv else []))
        out, err = capsys.readouterr()
        files = {str(p.relative_to(root)): p.read_bytes()
                 for p in sorted(root.glob(f"out{i}/*"))}
        outcomes.append((code, out, err, files))
    return outcomes


def test_the_parser_is_built_once_and_reused_as_a_fresh_one(
        tmp_path, monkeypatch, capsys):
    import cukf.cli
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    cukf.cli._parser.cache_clear()
    monkeypatch.setattr(cukf.cli, "build_parser", counting_build_parser)
    reused = one_process_outcomes(tmp_path / "reused", monkeypatch, capsys)
    assert len(builds) == 1
    monkeypatch.setattr(cukf.cli, "_parser", build_parser)  # one per call
    fresh = one_process_outcomes(tmp_path / "fresh", monkeypatch, capsys)
    assert reused == fresh
    assert [code for code, *_ in fresh] == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0]
    assert all(files for code, _, _, files in fresh[1:-2] if code == 0)


@pytest.mark.parametrize("argv", [
    ["compare", "--model", "example_sec3", "--beta", "0.1", "--em-step", "0.01"],
    ["oracle-check", "--model", "example_sec3", "--em-step", "0.01"],
    ["limit-check", "--model", "birth_death_cle", "--em-step", "0.01"],
    ["limit-check", "--model", "birth_death_cle", "--seed", "1"],
])
def test_option_the_subcommand_does_not_read_is_a_usage_error(
        argv, tmp_path, monkeypatch, capsys):
    assert run(argv, tmp_path, monkeypatch) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["oracle-check", "--model", "example_sec3", "--horizon", "0"],
     "--horizon must be at least 1"),
    (["filter", "--model", "birth_death_cle", "--step", "0"],
     "--step must be finite and positive"),
    (["filter", "--model", "birth_death_cle", "--step", "nan"],
     "--step must be finite and positive"),
    (["filter", "--model", "birth_death_cle", "--step", "-1"],
     "--step must be finite and positive"),
])
def test_error_names_the_option_the_user_set(argv, message, tmp_path,
                                             monkeypatch, capsys):
    import cukf.cli

    def refused(*args, **kwargs):
        raise AssertionError("simulated before refusing the horizon")

    if argv[0] == "oracle-check":
        monkeypatch.setattr(cukf.cli, "simulate_discrete", refused)
    assert run(argv, tmp_path, monkeypatch) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["filter", "--model", "example_sec3", "--step", "0", "--em-step", "-1"],
     "--em-step applies to continuous-discrete models only"),
    (["filter", "--model", "example_sec3", "--step", "0"],
     "--step applies to continuous-discrete models only"),
    (["filter", "--model", "birth_death_cle", "--N", "7"],
     "--N applies to discrete models only"),
    (["simulate", "--model", "example_sec3", "--em-step", "-1"],
     "--em-step applies to continuous-discrete models only"),
    (["simulate", "--model", "birth_death_cle", "--N", "7"],
     "--N applies to discrete models only"),
    (["filter", "--model", "example_sec3", "--beta", "0.1"],
     "--beta applies to --variant fixed-beta only"),
    (["filter", "--model", "logistic", "--beta", "0.1"],
     "--beta applies to --variant fixed-beta only"),
])
def test_option_the_model_kind_does_not_read_is_refused(argv, message,
                                                        tmp_path, monkeypatch,
                                                        capsys):
    import cukf.cli

    def refused(*args, **kwargs):
        raise AssertionError("simulated before refusing the option")

    monkeypatch.setattr(cukf.cli, "simulate_discrete", refused)
    monkeypatch.setattr(cukf.cli, "simulate_cd", refused)
    assert run(argv, tmp_path / "out", monkeypatch) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--model", "birth_death_cle", "--em-step", "nan"],
     "--em-step must be finite and positive"),
    (["filter", "--model", "birth_death_cle", "--em-step", "-1"],
     "--em-step must be finite and positive"),
    (["filter", "--model", "birth_death_cle", "--step", "0"],
     "--step must be finite and positive"),
    (["filter", "--model", "birth_death_cle", "--step", "inf",
      "--init-sigma", "-1"],
     "--step must be finite and positive"),
    # An --em-step grid the simulator refuses, in the simulator's words.
    (["simulate", "--model", "birth_death_cle", "--em-step", "0.003"],
     "em_step 0.003 does not divide the gap 0.1"),
    (["simulate", "--model", "birth_death_cle", "--em-step", "1e-9"],
     "em_step 1e-09 puts 1e+08 steps on [0.0, 0.1]; at most 100000 are "
     "allowed"),
])
def test_a_step_that_is_not_finite_and_positive_is_refused_before_any_output(
        argv, message, tmp_path, monkeypatch, capsys):
    import cukf.cli

    def refused(*args, **kwargs):
        raise AssertionError("simulated before refusing the step")

    monkeypatch.setattr(cukf.cli, "simulate_cd", refused)
    assert run(argv, tmp_path / "out", monkeypatch) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--model", "example_sec3", "--N", "0"],
     "--N must be at least 1"),
    (["filter", "--model", "example_sec3", "--N", "0"],
     "--N must be at least 1"),
    (["compare", "--model", "example_sec3", "--beta", "0.1", "--N", "-3"],
     "--N must be at least 21"),
    (["compare", "--model", "example_sec3", "--beta", "0.1", "--N", "20"],
     "--N must be at least 21"),
    (["compare", "--model", "example_sec3", "--beta", "0.1",
      "--replicates", "0"],
     "--replicates must be at least 1"),
    (["limit-check", "--model", "birth_death_cle", "--levels", "-1"],
     "--levels must be at least 0"),
])
def test_a_count_out_of_range_is_refused_by_its_flag_before_any_output(
        argv, message, tmp_path, monkeypatch, capsys):
    import cukf.cli

    def refused(*args, **kwargs):
        raise AssertionError("computed before refusing the count")

    for name in ("simulate_discrete", "monte_carlo_compare",
                 "euler_limit_check"):
        monkeypatch.setattr(cukf.cli, name, refused)
    assert run(argv, tmp_path / "out", monkeypatch) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["filter", "--model", "example_sec3", "--variant", "fixed-beta",
     "--beta", "1e308"],
    ["compare", "--model", "example_sec3", "--beta", "1e308"],
], ids=["filter", "compare"])
def test_a_beta_whose_square_overflows_is_refused_before_any_output(
        argv, tmp_path, monkeypatch, capsys):
    import cukf.cli

    def refused(*args, **kwargs):
        raise AssertionError("simulated before refusing --beta")

    for name in ("simulate_discrete", "monte_carlo_compare"):
        monkeypatch.setattr(cukf.cli, name, refused)
    assert run(argv, tmp_path / "out", monkeypatch) == 1
    assert capsys.readouterr().err == (
        "error: beta must be finite and nonnegative, with a finite square\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_a_beta_whose_noise_covariance_overflows_is_refused(
        tmp_path, monkeypatch, capsys):
    # beta^2 = 1e300 is finite; beta^2 Sigma_v = 1e310 is not.
    path = _mutated(tmp_path, GOOD_MODEL_FILE, "Sigma_v = 1e10")
    assert run(["filter", "--model", path, "--variant", "fixed-beta",
                "--beta", "1e150"], tmp_path / "out", monkeypatch) == 1
    assert capsys.readouterr().err == (
        "error: beta^2 Sigma_v has non-finite entries\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["--t1", "1e308"],
     "dt=0.01 puts inf steps on [0.0, 1e+308]; at most 100000 are allowed"),
    (["--t0=-1e308", "--t1", "1e308"],
     "dt=0.01 puts inf steps on [-1e+308, 1e+308]; at most 100000 are "
     "allowed"),
], ids=["t1", "t0-t1"])
def test_a_limit_check_span_of_infinitely_many_steps_is_refused(
        argv, message, tmp_path, monkeypatch, capsys):
    assert run(["limit-check", "--model", "birth_death_cle"] + argv,
               tmp_path / "out", monkeypatch) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_step_count_past_the_cap_is_printed_to_three_digits(
        tmp_path, monkeypatch, capsys):
    assert run(["limit-check", "--model", "birth_death_cle", "--dt0",
                "1e-300"], tmp_path / "out", monkeypatch) == 1
    assert capsys.readouterr().err == (
        "error: step 1.25e-301 puts 6.4e+300 grid steps on [0.0, 0.8]; at "
        "most 100000 are allowed\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "logistic", "--x0", "-5"],
    ["filter", "--model", "logistic", "--x0", "-5"],
    ["limit-check", "--model", "birth_death_cle", "--t1", "-1"],
])
def test_a_failed_run_leaves_no_output_directory(argv, tmp_path, monkeypatch):
    assert run(argv, tmp_path / "out", monkeypatch) in (1, 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, init_sigma, message", [
    ("Sigma_v = 1.0", "Sigma_v = 0.0", "0",
     "Sigma_v has a zero diagonal entry; the oracle weighs each time step "
     "by its inverse"),
    ("Sigma_w = 1.0", "Sigma_w = 0.0", "1",
     "Sigma_w is singular; the oracle weighs each measurement by its "
     "inverse"),
    ("Sigma_v = 1.0", "Sigma_v = 1e-320", "0",
     "Sigma_v has a diagonal entry so small that the oracle's largest time "
     "weight 1/(EPS_G Sigma_v) overflows"),
])
def test_oracle_check_refuses_a_model_it_cannot_weigh(
        old, new, init_sigma, message, tmp_path, monkeypatch, capsys):
    path = tmp_path / "model.txt"
    path.write_text(GOOD_MODEL_FILE.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["oracle-check", "--model", str(path), "--init-sigma",
                    init_sigma], tmp_path / "out", monkeypatch)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


TWO_SPECIES_FILE = ("kind = continuous\nn = 2\nm = 2\nA0 = 20.0 5.0\n"
                    "A1 = -0.1 0.0 0.5 -0.05\nC = 1.0 0.0 0.0 1.0\n"
                    "gsq = 20.0 0.1 0.0 5.0 0.5 0.05\nSigma_v = 1.0 1.0\n"
                    "Sigma_w = 1.0 0.0 0.0 1.0\nsample_times = 0.0 0.1 0.2 0.3\n")


TWO_STATE_DISCRETE_FILE = ("kind = discrete\nn = 2\nm = 1\nA0 = 1.0 0.5\n"
                           "A1 = 0.9 0.05 0.0 0.8\nC = 1.0 1.0\n"
                           "gsq = 10.0 0.5 0.0 4.0 0.0 0.2\n"
                           "Sigma_v = 1.0 2.0\nSigma_w = 1.0\n")


def _mutated(tmp_path, text, line):
    """A model file: `text` with the line of `line`'s key replaced by it."""
    key = line.split(" =")[0]
    old = next(row for row in text.splitlines() if row.startswith(key + " ="))
    path = tmp_path / "model.txt"
    path.write_text(text.replace(old, line))
    return str(path)


@pytest.mark.parametrize("command, line", [
    ("filter", "Sigma_v = 1e308 1.0"),
    ("limit-check", "Sigma_v = 1.0 1e308"),
    ("limit-check", "A1 = -1e308 0.0 0.5 -0.05"),
])
@pytest.mark.filterwarnings("error")
def test_a_moment_generator_that_overflows_is_a_numerical_failure(
        command, line, tmp_path, monkeypatch, capsys):
    path = _mutated(tmp_path, TWO_SPECIES_FILE, line)
    assert run([command, "--model", path], tmp_path / "out",
               monkeypatch) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: matrix exponential argument "
                          "non-finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("line, message", [
    ("gsq = 1e200 0.1 0.0 5.0 0.5 0.05", "Euler error at dt=0.01 not finite"),
    ("gsq = 20.0 1e308 0.0 5.0 0.5 0.05", "Euler error at dt=0.01 not finite"),
    ("A1 = 1e200 0.0 0.5 -0.05", "integration diverged on [0.0, 0.8]"),
])
def test_limit_check_on_a_finite_but_huge_model_is_a_numerical_failure(
        line, message, tmp_path, monkeypatch, capsys):
    path = _mutated(tmp_path, TWO_SPECIES_FILE, line)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["limit-check", "--model", path], tmp_path / "out",
                   monkeypatch) == 2
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not (tmp_path / "out" / "limit_check.csv").exists()


@pytest.mark.parametrize("x0", ["1e308", "-1e308"])
def test_limit_check_whose_exact_propagation_overflows_has_no_warning(
        x0, tmp_path, monkeypatch, capsys):
    # E z overflows in the reference propagation of the first interval.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["limit-check", "--model", "example_sec3", "--x0", x0],
                   tmp_path / "out", monkeypatch) == 2
    assert capsys.readouterr().err == (
        "numerical failure: integration diverged on [0.0, 0.8]\n")
    assert not (tmp_path / "out" / "limit_check.csv").exists()


@pytest.mark.parametrize("argv, text, line, where", [
    (["simulate"], TWO_SPECIES_FILE, "C = 1e308 0.0 0.0 1.0", "at step 3"),
    (["filter"], TWO_SPECIES_FILE, "C = -1e308 0.0 0.0 1.0", "at step 3"),
    (["compare", "--beta", "0.5"], GOOD_MODEL_FILE, "C = 1e308",
     "replicate 0, at step 2"),
    (["oracle-check"], GOOD_MODEL_FILE, "C = -1e308", "at step 3"),
], ids=["simulate", "filter", "compare", "oracle-check"])
def test_a_simulated_measurement_that_overflows_is_a_numerical_failure(
        argv, text, line, where, tmp_path, monkeypatch, capsys):
    path = _mutated(tmp_path, text, line)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv + ["--model", path], tmp_path / "out", monkeypatch)
    assert code == 2
    assert capsys.readouterr().err == (
        f"numerical failure: simulated measurement became non-finite "
        f"({where})\n")
    assert not (tmp_path / "out").exists()


def test_an_innovation_covariance_that_overflows_is_a_numerical_failure(
        tmp_path, monkeypatch, capsys):
    # Symmetrizing S adds 1e308 to itself; the posteriors stay finite.
    path = _mutated(tmp_path, TWO_SPECIES_FILE, "Sigma_w = 1.0 0.0 0.0 1e308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["filter", "--model", path], tmp_path / "out", monkeypatch)
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: innovation covariance became non-finite "
        "(at step 1)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["Sigma_v = 1e-250", "Sigma_v = 1e-200"])
def test_an_oracle_newton_check_that_overflows_is_a_numerical_failure(
        line, tmp_path, monkeypatch, capsys):
    path = _mutated(tmp_path, GOOD_MODEL_FILE, line)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["oracle-check", "--model", path], tmp_path / "out",
                   monkeypatch)
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: Newton check norm non-finite\n")
    assert not (tmp_path / "out").exists()


def test_oracle_linearizes_an_overflowing_gain_without_a_warning(
        tmp_path, monkeypatch, capsys):
    # g_2^2 = -1e308 x_2 overflows to -inf and is floored, as in the filter.
    path = _mutated(tmp_path, TWO_STATE_DISCRETE_FILE,
                    "gsq = 10.0 0.5 0.0 4.0 0.0 -1e308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["oracle-check", "--model", path, "--x0", "5"],
                   tmp_path / "out", monkeypatch)
    assert code == 0
    assert capsys.readouterr().err == ""
    text = (tmp_path / "out" / "oracle_deltas.csv").read_text()
    assert "inf" not in text and "nan" not in text


@pytest.mark.filterwarnings("error")
def test_oracle_prior_whose_symmetric_part_overflows_exits_1(
        tmp_path, monkeypatch, capsys):
    code = run(["oracle-check", "--model", "example_sec3", "--init-sigma",
                "1e308"], tmp_path, monkeypatch)
    assert code == 1
    assert capsys.readouterr().err == (
        "error: initial prior covariance must not contain infs or NaNs, nor "
        "overflow when symmetrized\n")


@pytest.mark.parametrize("command", ["simulate", "filter"])
def test_manifest_records_null_for_the_option_the_model_kind_does_not_read(
        command, tmp_path, monkeypatch):
    for model, read, value, unread in (("example_sec3", "N", 100, "em_step"),
                                       ("birth_death_cle", "em_step", 0.01,
                                        "N")):
        assert run([command, "--model", model, "--x0", "100"],
                   tmp_path / model, monkeypatch) == 0
        manifest = json.loads((tmp_path / model / "manifest.json").read_text())
        assert manifest[read] == value and manifest[unread] is None


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "birth_death_cle", "--x0", "100"],
    ["filter", "--model", "birth_death_cle", "--x0", "100"],
    ["filter", "--model", "example_sec3", "--N", "20"],
    ["compare", "--model", "example_sec3", "--beta", "0.1",
     "--replicates", "5", "--N", "30"],
    ["oracle-check", "--model", "example_sec3"],
    ["limit-check", "--model", "example_sec3", "--x0", "5"],
])
def test_every_csv_line_the_cli_writes_ends_in_crlf(argv, tmp_path,
                                                     monkeypatch):
    assert run(argv, tmp_path, monkeypatch) == 0
    names = sorted(os.listdir(tmp_path))
    assert not [name for name in names if name.startswith(".tmp-")]
    csvs = [name for name in names if name.endswith(".csv")]
    assert csvs
    for name in csvs:
        body = (tmp_path / name).read_bytes()
        assert body.endswith(b"\r\n"), name
        assert body.count(b"\n") == body.count(b"\r\n"), name


def test_oracle_disagreement_exits_2(tmp_path, monkeypatch, capsys):
    import cukf.cli
    original = cukf.cli.oracle_filter

    def shifted(*args, **kwargs):
        sol = original(*args, **kwargs)
        sol.xhat[-1] += 1e-6
        return sol

    monkeypatch.setattr(cukf.cli, "oracle_filter", shifted)
    code = run(["oracle-check", "--model", "example_sec3"], tmp_path,
               monkeypatch)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("max relative delta: ")
    assert captured.err == "oracle-check FAILED (tolerance 1e-9)\n"


NO_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy import blocked")


sys.meta_path.insert(0, NoScipy())
import cukf

assert "scipy" not in sys.modules
from cukf.cli import parse_and_dispatch

code = parse_and_dispatch(sys.argv[1:])
assert "scipy" not in sys.modules
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["filter", "--model", "birth_death_cle", "--x0", "100"],
    ["oracle-check", "--model", "example_sec3", "--horizon", "20"],
    ["limit-check", "--model", "birth_death_cle", "--x0", "100"],
], ids=["filter", "oracle-check", "limit-check"])
def test_package_runs_without_scipy(argv, tmp_path):
    import cukf
    env = dict(os.environ)
    src = str(Path(cukf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("CUKF_OUTPUT_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY] + argv + ["--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
