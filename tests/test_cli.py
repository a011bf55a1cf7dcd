import collections
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cukf.cli
from cukf.cli import build_parser, parse_and_dispatch


def run(argv, out, monkeypatch):
    """The exit code of `cukf argv`, run in this process with every warning
    an error, CUKF_OUTPUT_DIR unset and `--out out` unless argv has one."""
    monkeypatch.delenv("CUKF_OUTPUT_DIR", raising=False)
    if "--out" not in argv:
        argv = argv + ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return parse_and_dispatch(argv)


def test_models_subcommand(capsys):
    assert parse_and_dispatch(["models"]) == 0
    out = capsys.readouterr().out.split()
    assert "example_sec3" in out
    assert "birth_death_cle" in out

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


def test_overflowing_mse_exits_0_without_a_warning(tmp_path, monkeypatch,
                                                   capsys):
    # The estimate errors are finite, but their squares overflow.
    code = run(["filter", "--model", "birth_death_cle", "--x0", "1e307",
                "--init-sigma", "1e307"], tmp_path, monkeypatch)
    assert code == 0
    assert "RuntimeWarning" not in capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["mse"] == np.inf


@pytest.mark.parametrize("value", ["-1e3", "-1E-3", "-.5e2", "-5", "-inf"])
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


GOOD_MODEL_FILE = ("kind = discrete\nn = 1\nm = 1\nA0 = 1.0\nA1 = 0.99\n"
                   "C = 1.0\ngsq = 100.0 1.0\nSigma_v = 1.0\nSigma_w = 1.0\n")

TWO_STATE_DISCRETE_FILE = ("kind = discrete\nn = 2\nm = 1\nA0 = 1.0 0.5\n"
                           "A1 = 0.9 0.05 0.0 0.8\nC = 1.0 1.0\n"
                           "gsq = 10.0 0.5 0.0 4.0 0.0 0.2\n"
                           "Sigma_v = 1.0 2.0\nSigma_w = 1.0\n")

TWO_SPECIES_FILE = ("kind = continuous\nn = 2\nm = 2\nA0 = 20.0 5.0\n"
                    "A1 = -0.1 0.0 0.5 -0.05\nC = 1.0 0.0 0.0 1.0\n"
                    "gsq = 20.0 0.1 0.0 5.0 0.5 0.05\nSigma_v = 1.0 1.0\n"
                    "Sigma_w = 1.0 0.0 0.0 1.0\nsample_times = 0.0 0.1 0.2 0.3\n")

EXACT_SCALAR_FILE = ("kind = discrete\nn = 1\nm = 1\nA0 = 0.0\nA1 = 0.9\n"
                     "C = 1.0\ngsq = 1.0 0.0\nSigma_v = 1.0\nSigma_w = 0.0\n")


def _mutated(text, *lines):
    """A model file's text: `text` with the line of each `line`'s key
    replaced by it."""
    for line in lines:
        key = line.split(" =")[0]
        text = text.replace(next(row for row in text.splitlines()
                                 if row.startswith(key + " =")), line)
    return text


# The CLI's failure contract (`check_refusal`), one row per case, under the
# name of the test the rows are.  A row is (case id, argv, stderr, refused
# before work = True, model file = None): stderr is the exact line, or
# "usage: …" and argparse's exact last line; a model file is its text or
# (base text, lines that replace its lines).  In argv and stderr, <model>
# is the row's model file, <file> an empty file and <dir> a directory.
REFUSALS = {
    "test_unknown_model_exits_1": [
        (None, "simulate --model nope",
         'error: "unknown model \'nope\'; valid names: birth_death_cle, example_sec3, '
         'logistic"')],
    "test_missing_beta_exits_1": [
        (None, "filter --model example_sec3 --variant fixed-beta",
         "error: --beta is required with --variant fixed-beta")],
    "test_invalid_input_exits_1_without_traceback": [
        ("argv0", "filter --model birth_death_cle --step 100",
         "error: --step 100.0 exceeds interval 0.1"),
        ("argv1", "filter --model birth_death_cle --step 0",
         "error: --step must be finite and positive"),
        ("argv2", "limit-check --model birth_death_cle --dt0 0.3",
         "error: --dt0 0.3 / 2^3 = 0.0375 does not divide --t1 - --t0 = 0.8"),
        ("argv3", "simulate --model example_sec3 --N 0",
         "error: --N must be at least 1"),
        ("argv4", "compare --model example_sec3 --beta 0.1 --replicates 0",
         "error: --replicates must be at least 1"),
        ("argv5", "oracle-check --model example_sec3 --horizon 0",
         "error: --horizon must be at least 1"),
        ("argv6", "limit-check --model example_sec3 --levels -1",
         "error: --levels must be at least 0"),
        ("argv7", "filter --model example_sec3 --init-sigma -1",
         "error: --init-sigma must be finite and nonnegative"),
        ("argv8", "oracle-check --model example_sec3 --init-sigma -1",
         "error: --init-sigma must be finite and nonnegative"),
        ("argv9", "filter --model logistic --variant fixed-beta --beta 0.1",
         "error: --variant fixed-beta needs a discrete linear model"),
        ("argv10", "filter --model birth_death_cle --variant fixed-beta --beta 0.1",
         "error: --variant fixed-beta needs a discrete linear model"),
        ("argv11", "limit-check --model birth_death_cle --dt0 0",
         "error: --dt0 must be finite and positive"),
        ("argv12", "limit-check --model birth_death_cle --dt0 -0.08",
         "error: --dt0 must be finite and positive"),
        ("argv13", "limit-check --model birth_death_cle --t1 nan",
         "error: --t0 and --t1 must be finite, with --t0 < --t1"),
        ("argv14", "filter --model birth_death_cle --step nan",
         "error: --step must be finite and positive"),
        ("argv15", "simulate --model birth_death_cle --em-step nan",
         "error: --em-step must be finite and positive"),
        ("argv16", "simulate --model example_sec3 --x0 nan",
         "error: --x0 must be finite"),
        ("argv17", "filter --model example_sec3 --x0 nan",
         "error: --x0 must be finite"),
        ("argv18", "compare --model example_sec3 --beta 0.1 --x0 nan",
         "error: --x0 must be finite"),
        ("argv19", "oracle-check --model example_sec3 --x0 nan",
         "error: --x0 must be finite"),
        ("argv20", "limit-check --model birth_death_cle --x0 nan",
         "error: --x0 must be finite"),
        ("argv21", "limit-check --model birth_death_cle --levels 40",
         "error: --dt0 0.08 / 2^40 = 7.275957614183426e-14 puts 1.1e+13 steps on "
         "[--t0, --t1] = [0.0, 0.8]; at most 100000 are allowed"),
        ("argv22", "filter --model birth_death_cle --step 1e-9",
         "error: --step 1e-09 puts 1e+08 grid steps on [0.0, 0.1]; at most 100000 are "
         "allowed"),
        ("argv23", "limit-check --model logistic",
         "error: limit-check needs a linear model"),
        ("argv24", "filter --model birth_death_cle --em-step 1e-9",
         "error: --em-step 1e-09 puts 1e+08 steps on [0.0, 0.1]; at most 100000 are allowed"),
        ("argv25", "compare --model example_sec3",
         "error: --beta is required for the fixed-beta baseline"),
        ("argv26", "compare --model birth_death_cle --beta 0.1",
         "error: compare needs a discrete linear model"),
        ("argv27", "oracle-check --model birth_death_cle",
         "error: oracle-check supports discrete models only"),
        ("argv28", "filter --model birth_death_cle --step 5e-324",
         "error: --step 5e-324 puts inf grid steps on [0.0, 0.1]; at most 100000 are "
         "allowed"),
        ("argv29", "simulate --model birth_death_cle --em-step 5e-324",
         "error: --em-step 5e-324 puts inf steps on [0.0, 0.1]; at most 100000 are allowed"),
        ("argv30", "oracle-check --model example_sec3 --horizon 501",
         "error: --horizon must be at most 500"),
        ("argv31", "simulate --model example_sec3 --out <file>",
         "error: [Errno 17] File exists: '<file>'", False),
        ("argv32", "filter --model <dir>",
         "error: [Errno 21] Is a directory: '<dir>'"),
        ("levels-1023", "limit-check --model birth_death_cle --levels 1023",
         "error: --dt0 0.08 / 2^1023 = 8.9002954340288e-310 puts inf steps on "
         "[--t0, --t1] = [0.0, 0.8]; at most 100000 are allowed"),
        ("levels-1024", "limit-check --model birth_death_cle --levels 1024",
         "error: --dt0 0.08 / 2^1024 = 4.4501477170144e-310 puts inf steps on "
         "[--t0, --t1] = [0.0, 0.8]; at most 100000 are allowed"),
        ("levels-1074", "limit-check --model birth_death_cle --levels 1074",
         "error: --levels 1074 halves --dt0 0.08 to 0"),
        ("levels-1e9", "limit-check --model birth_death_cle --levels 1000000000",
         "error: --levels 1000000000 halves --dt0 0.08 to 0"),
        ("dt0-1e300-levels-2000", "limit-check --model birth_death_cle --dt0 1e300 --levels 2000",
         "error: --dt0 1e+300 / 2^2000 = 8.709809816217217e-303 puts 9.19e+301 steps "
         "on [--t0, --t1] = [0.0, 0.8]; at most 100000 are allowed")],
    "test_nonfinite_nonlinear_simulation_names_its_step": [
        (None, "filter --model logistic --x0 -5",
         "numerical failure: drift non-finite (at step 45)", False)],
    "test_a_diverged_compare_is_a_numerical_failure": [
        (None, "compare --model example_sec3 --beta 0.1 --replicates 5 --x0 1e200",
         "numerical failure: mean squared error of filter 'covariance-update' became "
         "non-finite (replicate 0)", False)],
    "test_a_compare_whose_mse_standard_error_overflows_is_a_numerical_failure": [
        ("1e90", "compare --model example_sec3 --beta 0.1 --replicates 5 --x0 1e90",
         "numerical failure: mean or standard error of the mean squared error of filter "
         "'covariance-update' is not finite", False),
        ("1e120", "compare --model example_sec3 --beta 0.1 --replicates 5 --x0 1e120",
         "numerical failure: mean or standard error of the mean squared error of filter "
         "'covariance-update' is not finite", False),
        ("1e153", "compare --model example_sec3 --beta 0.1 --replicates 5 --x0 1e153",
         "numerical failure: mean or standard error of the mean squared error of filter "
         "'covariance-update' is not finite", False)],
    "test_a_negative_compare_seed_exits_1_with_one_error_line": [
        (None, "compare --model example_sec3 --beta 0.1 --seed -1",
         "error: --seed must be at least 0")],
    "test_a_negative_seed_is_refused_by_its_flag_before_any_output": [
        ("simulate", "simulate --model example_sec3 --seed -1",
         "error: --seed must be at least 0"),
        ("filter", "filter --model birth_death_cle --seed -1",
         "error: --seed must be at least 0"),
        ("oracle-check", "oracle-check --model example_sec3 --seed -1",
         "error: --seed must be at least 0")],
    "test_infinite_init_sigma_exits_1_with_one_error_line": [
        ("filter", "filter --model example_sec3 --init-sigma inf",
         "error: --init-sigma must be finite and nonnegative"),
        ("oracle-check", "oracle-check --model example_sec3 --init-sigma inf",
         "error: --init-sigma must be finite and nonnegative")],
    "test_invalid_model_file_exits_1_with_one_error_line": [
        ("nonfinite", "filter --model <model>",
         "error: A0 has non-finite entries", True,
         (GOOD_MODEL_FILE, "A0 = nan", "Sigma_v = -1", "Sigma_w = -1")),
        ("no-equals", "filter --model <model>",
         "error: line 10: expected 'key = values'", True, GOOD_MODEL_FILE + "A1 0.99\n"),
        ("duplicate", "filter --model <model>",
         "error: line 10: duplicate key 'n'", True, GOOD_MODEL_FILE + "n = 1\n"),
        ("missing", "filter --model <model>",
         "error: missing key 'Sigma_w'", True, GOOD_MODEL_FILE.replace("Sigma_w = 1.0\n", "")),
        ("count", "filter --model <model>",
         "error: A0 needs 1 values, got 2", True, (GOOD_MODEL_FILE, "A0 = 1.0 2.0")),
        ("kind", "filter --model <model>",
         "error: kind must be discrete or continuous, got 'hybrid'", True,
         (GOOD_MODEL_FILE, "kind = hybrid")),
        ("sample-times", "filter --model <model>",
         "error: sample_times is only valid for kind = continuous", True,
         GOOD_MODEL_FILE + "sample_times = 0 1\n"),
        ("not-a-number", "filter --model <model>",
         "error: A0: could not convert string to float: 'abc'", True,
         (GOOD_MODEL_FILE, "A0 = abc"))],
    "test_usage_error_exits_1": [
        (None, "filter",
         "usage: …\ncukf filter: error: the following arguments are required: --model")],
    "test_option_the_subcommand_does_not_read_is_a_usage_error": [
        ("argv0", "compare --model example_sec3 --beta 0.1 --em-step 0.01",
         "usage: …\ncukf: error: unrecognized arguments: --em-step 0.01"),
        ("argv1", "oracle-check --model example_sec3 --em-step 0.01",
         "usage: …\ncukf: error: unrecognized arguments: --em-step 0.01"),
        ("argv2", "limit-check --model birth_death_cle --em-step 0.01",
         "usage: …\ncukf: error: unrecognized arguments: --em-step 0.01"),
        ("argv3", "limit-check --model birth_death_cle --seed 1",
         "usage: …\ncukf: error: unrecognized arguments: --seed 1")],
    "test_error_names_the_option_the_user_set": [
        ("argv0---horizon must be at least 1", "oracle-check --model example_sec3 --horizon 0",
         "error: --horizon must be at least 1"),
        ("argv1---step must be finite and positive", "filter --model birth_death_cle --step 0",
         "error: --step must be finite and positive"),
        ("argv2---step must be finite and positive", "filter --model birth_death_cle --step nan",
         "error: --step must be finite and positive"),
        ("argv3---step must be finite and positive", "filter --model birth_death_cle --step -1",
         "error: --step must be finite and positive"),
        ("em-step-3", "filter --model birth_death_cle --em-step 3",
         "error: --em-step 3.0 does not divide the gap 0.1"),
        ("t0--1", "limit-check --model birth_death_cle --t0 -1",
         "error: --dt0 0.08 does not divide --t1 - --t0 = 1.8"),
        ("t0--inf", "limit-check --model birth_death_cle --t0 -inf",
         "error: --t0 and --t1 must be finite, with --t0 < --t1"),
        ("x0--inf", "filter --model example_sec3 --x0 -inf", "error: --x0 must be finite")],
    # -nan is read as a value, as -inf is, so its option's own rule refuses
    # it, where argparse took it for an option ("expected one argument"):
    # one row per refusal line.
    "test_a_negative_nan_is_refused_by_its_option": [
        ("x0", "filter --model example_sec3 --x0 -nan", "error: --x0 must be finite"),
        ("seed", "simulate --model example_sec3 --seed -nan",
         "usage: …\ncukf simulate: error: argument --seed: invalid int value: '-nan'"),
        ("N", "filter --model example_sec3 --N -nan",
         "usage: …\ncukf filter: error: argument --N: invalid int value: '-nan'"),
        ("em-step", "simulate --model birth_death_cle --em-step -nan",
         "error: --em-step must be finite and positive"),
        ("init-sigma", "oracle-check --model example_sec3 --init-sigma -nan",
         "error: --init-sigma must be finite and nonnegative"),
        ("beta", "compare --model example_sec3 --beta -nan",
         "error: --beta must be finite and nonnegative, with a finite square"),
        ("step", "filter --model birth_death_cle --step -nan",
         "error: --step must be finite and positive"),
        ("replicates", "compare --model example_sec3 --beta 0.5 --replicates -nan",
         "usage: …\ncukf compare: error: argument --replicates: invalid int value: '-nan'"),
        ("horizon", "oracle-check --model example_sec3 --horizon -nan",
         "usage: …\ncukf oracle-check: error: argument --horizon: invalid int value: '-nan'"),
        ("t0", "limit-check --model birth_death_cle --t0 -nan",
         "error: --t0 and --t1 must be finite, with --t0 < --t1"),
        ("dt0", "limit-check --model birth_death_cle --dt0 -nan",
         "error: --dt0 must be finite and positive"),
        ("levels", "limit-check --model birth_death_cle --levels -nan",
         "usage: …\ncukf limit-check: error: argument --levels: invalid int value: '-nan'")],
    "test_option_the_model_kind_does_not_read_is_refused": [
        ("argv0---em-step applies to continuous-discrete models only",
         "filter --model example_sec3 --step 0 --em-step -1",
         "error: --em-step applies to continuous-discrete models only"),
        ("argv1---step applies to continuous-discrete models only",
         "filter --model example_sec3 --step 0",
         "error: --step applies to continuous-discrete models only"),
        ("argv2---N applies to discrete models only", "filter --model birth_death_cle --N 7",
         "error: --N applies to discrete models only"),
        ("argv3---em-step applies to continuous-discrete models only",
         "simulate --model example_sec3 --em-step -1",
         "error: --em-step applies to continuous-discrete models only"),
        ("argv4---N applies to discrete models only", "simulate --model birth_death_cle --N 7",
         "error: --N applies to discrete models only"),
        ("argv5---beta applies to --variant fixed-beta only",
         "filter --model example_sec3 --beta 0.1",
         "error: --beta applies to --variant fixed-beta only"),
        ("argv6---beta applies to --variant fixed-beta only", "filter --model logistic --beta 0.1",
         "error: --beta applies to --variant fixed-beta only")],
    "test_a_step_that_is_not_finite_and_positive_is_refused_before_any_output": [
        ("argv0---em-step must be finite and positive",
         "simulate --model birth_death_cle --em-step nan",
         "error: --em-step must be finite and positive"),
        ("argv1---em-step must be finite and positive",
         "filter --model birth_death_cle --em-step -1",
         "error: --em-step must be finite and positive"),
        ("argv2---step must be finite and positive", "filter --model birth_death_cle --step 0",
         "error: --step must be finite and positive"),
        ("argv3---step must be finite and positive",
         "filter --model birth_death_cle --step inf --init-sigma -1",
         "error: --step must be finite and positive"),
        ("argv4-em_step 0.003 does not divide the gap 0.1",
         "simulate --model birth_death_cle --em-step 0.003",
         "error: --em-step 0.003 does not divide the gap 0.1"),
        ("argv5-em_step 1e-09 puts 1e+08 steps on [0.0, 0.1]; at most 100000 are allowed"
         "argv5-em_step 1e-09 puts 1e+08 steps on [0.0, 0.1]; at most 100000 are allowed",
         "simulate --model birth_death_cle --em-step 1e-9",
         "error: --em-step 1e-09 puts 1e+08 steps on [0.0, 0.1]; at most 100000 are allowed")],
    "test_a_count_out_of_range_is_refused_by_its_flag_before_any_output": [
        ("argv0---N must be at least 1", "simulate --model example_sec3 --N 0",
         "error: --N must be at least 1"),
        ("argv1---N must be at least 1", "filter --model example_sec3 --N 0",
         "error: --N must be at least 1"),
        ("argv2---N must be at least 21", "compare --model example_sec3 --beta 0.1 --N -3",
         "error: --N must be at least 21"),
        ("argv3---N must be at least 21", "compare --model example_sec3 --beta 0.1 --N 20",
         "error: --N must be at least 21"),
        ("argv4---replicates must be at least 1",
         "compare --model example_sec3 --beta 0.1 --replicates 0",
         "error: --replicates must be at least 1"),
        ("argv5---levels must be at least 0", "limit-check --model birth_death_cle --levels -1",
         "error: --levels must be at least 0"),
        ("filter --N past the budget", "filter --model example_sec3 --N 1000001",
         "error: --N must be at most 1000000"),
        ("compare --replicates past the budget",
         "compare --model example_sec3 --beta 0.1 --replicates 10001",
         "error: --replicates 10001 times --N 100 must be at most 1000000 steps")],
    "test_a_beta_whose_square_overflows_is_refused_before_any_output": [
        ("filter", "filter --model example_sec3 --variant fixed-beta --beta 1e308",
         "error: --beta must be finite and nonnegative, with a finite square"),
        ("compare", "compare --model example_sec3 --beta 1e308",
         "error: --beta must be finite and nonnegative, with a finite square"),
        ("filter-inf", "filter --model example_sec3 --variant fixed-beta --beta -inf",
         "error: --beta must be finite and nonnegative, with a finite square")],
    "test_a_beta_whose_noise_covariance_overflows_is_refused": [
        (None, "filter --model <model> --variant fixed-beta --beta 1e150",
         "error: beta^2 Sigma_v has non-finite entries", True,
         (GOOD_MODEL_FILE, "Sigma_v = 1e10"))],
    "test_a_limit_check_span_of_infinitely_many_steps_is_refused": [
        ("t1", "limit-check --model birth_death_cle --t1 1e308",
         "error: --dt0 0.08 / 2^3 = 0.01 puts inf steps on [--t0, --t1] = "
         "[0.0, 1e+308]; at most 100000 are allowed"),
        ("t0-t1", "limit-check --model birth_death_cle --t0=-1e308 --t1 1e308",
         "error: --dt0 0.08 / 2^3 = 0.01 puts inf steps on [--t0, --t1] = "
         "[-1e+308, 1e+308]; at most 100000 are allowed")],
    "test_a_step_count_past_the_cap_is_printed_to_three_digits": [
        (None, "limit-check --model birth_death_cle --dt0 1e-300",
         "error: --dt0 1e-300 / 2^3 = 1.25e-301 puts 6.4e+300 steps on "
         "[--t0, --t1] = [0.0, 0.8]; at most 100000 are allowed")],
    "test_a_failed_run_leaves_no_output_directory": [
        ("argv0", "simulate --model logistic --x0 -5",
         "numerical failure: drift non-finite (at step 45)", False),
        ("argv1", "filter --model logistic --x0 -5",
         "numerical failure: drift non-finite (at step 45)", False),
        ("argv2", "limit-check --model birth_death_cle --t1 -1",
         "error: --t0 and --t1 must be finite, with --t0 < --t1", False)],
    "test_oracle_check_refuses_a_model_it_cannot_weigh": [
        ("Sigma_v = 1.0-Sigma_v = 0.0-0-Sigma_v has a zero diagonal entry; the oracle weighs "
         "each time step by its inverse", "oracle-check --model <model> --init-sigma 0",
         "error: Sigma_v has a zero diagonal entry; the oracle weighs each time step by its "
         "inverse", False, (GOOD_MODEL_FILE, "Sigma_v = 0.0")),
        ("Sigma_w = 1.0-Sigma_w = 0.0-1-Sigma_w is singular; the oracle weighs each "
         "measurement by its inverse", "oracle-check --model <model> --init-sigma 1",
         "error: Sigma_w is singular; the oracle weighs each measurement by its inverse", False,
         (GOOD_MODEL_FILE, "Sigma_w = 0.0")),
        ("Sigma_v = 1.0-Sigma_v = 1e-320-0-Sigma_v has a diagonal entry so small that the "
         "oracle's largest time weight 1/(EPS_G Sigma_v) overflows",
         "oracle-check --model <model> --init-sigma 0",
         "error: Sigma_v has a diagonal entry so small that the oracle's largest time weight "
         "1/(EPS_G Sigma_v) overflows", False, (GOOD_MODEL_FILE, "Sigma_v = 1e-320")),
        ("Sigma_w = 5e-308", "oracle-check --model <model> --init-sigma 0",
         "error: Sigma_w is too small for the measurements: the oracle's weighted measurement "
         "C' Sigma_w^{-1} y overflows", False, (GOOD_MODEL_FILE, "Sigma_w = 5e-308")),
        ("two-state-Sigma_w = 5e-308", "oracle-check --model <model> --init-sigma 0",
         "error: Sigma_w is too small for the measurements: the oracle's weighted measurement "
         "C' Sigma_w^{-1} y overflows", False, (TWO_STATE_DISCRETE_FILE, "Sigma_w = 5e-308")),
        ("C = 1e5-Sigma_w = 1e-300", "oracle-check --model <model> --init-sigma 0",
         "error: Sigma_w is too small for C: the oracle's measurement information C' "
         "Sigma_w^{-1} C overflows", False, (GOOD_MODEL_FILE, "C = 1e5", "Sigma_w = 1e-300"))],
    "test_a_moment_generator_that_overflows_is_a_numerical_failure": [
        ("filter-Sigma_v = 1e308 1.0", "filter --model <model>",
         "numerical failure: matrix exponential argument non-finite (at step 2)", False,
         (TWO_SPECIES_FILE, "Sigma_v = 1e308 1.0")),
        ("limit-check-Sigma_v = 1.0 1e308", "limit-check --model <model>",
         "numerical failure: matrix exponential argument non-finite", False,
         (TWO_SPECIES_FILE, "Sigma_v = 1.0 1e308")),
        ("limit-check-A1 = -1e308 0.0 0.5 -0.05", "limit-check --model <model>",
         "numerical failure: matrix exponential argument non-finite", False,
         (TWO_SPECIES_FILE, "A1 = -1e308 0.0 0.5 -0.05"))],
    "test_limit_check_on_a_finite_but_huge_model_is_a_numerical_failure": [
        ("gsq = 1e200 0.1 0.0 5.0 0.5 0.05-Euler error at dt=0.01 not finite"
         "gsq = 1e200 0.1 0.0 5.0 0.5 0.05-Euler error at dt=0.01 not finite",
         "limit-check --model <model>",
         "numerical failure: Euler error at dt=0.01 not finite", False,
         (TWO_SPECIES_FILE, "gsq = 1e200 0.1 0.0 5.0 0.5 0.05")),
        ("gsq = 20.0 1e308 0.0 5.0 0.5 0.05-Euler error at dt=0.01 not finite"
         "gsq = 20.0 1e308 0.0 5.0 0.5 0.05-Euler error at dt=0.01 not finite",
         "limit-check --model <model>",
         "numerical failure: Euler error at dt=0.01 not finite", False,
         (TWO_SPECIES_FILE, "gsq = 20.0 1e308 0.0 5.0 0.5 0.05")),
        ("A1 = 1e200 0.0 0.5 -0.05-integration diverged on [0.0, 0.8]"
         "A1 = 1e200 0.0 0.5 -0.05-integration diverged on [0.0, 0.8]",
         "limit-check --model <model>",
         "numerical failure: integration diverged on [0.0, 0.8]", False,
         (TWO_SPECIES_FILE, "A1 = 1e200 0.0 0.5 -0.05"))],
    "test_limit_check_whose_exact_propagation_overflows_has_no_warning": [
        ("1e308", "limit-check --model example_sec3 --x0 1e308",
         "numerical failure: integration diverged on [0.0, 0.8]", False),
        ("-1e308", "limit-check --model example_sec3 --x0 -1e308",
         "numerical failure: integration diverged on [0.0, 0.8]", False)],
    "test_a_simulated_measurement_that_overflows_is_a_numerical_failure": [
        ("simulate", "simulate --model <model>",
         "numerical failure: simulated measurement became non-finite (at step 3)", False,
         (TWO_SPECIES_FILE, "C = 1e308 0.0 0.0 1.0")),
        ("filter", "filter --model <model>",
         "numerical failure: simulated measurement became non-finite (at step 3)", False,
         (TWO_SPECIES_FILE, "C = -1e308 0.0 0.0 1.0")),
        ("compare", "compare --beta 0.5 --model <model>",
         "numerical failure: simulated measurement became non-finite (replicate 0, at step 2)",
         False, (GOOD_MODEL_FILE, "C = 1e308")),
        ("oracle-check", "oracle-check --model <model>",
         "numerical failure: simulated measurement became non-finite (at step 3)", False,
         (GOOD_MODEL_FILE, "C = -1e308"))],
    # S_11 = Sigma_w,11 + 1e292 Sigma_11 rounds past the largest float.
    "test_an_innovation_covariance_that_overflows_is_a_numerical_failure": [
        (None, "filter --model <model> --init-sigma 1",
         "numerical failure: innovation covariance became non-finite (at step 1)", False,
         (TWO_SPECIES_FILE, "C = 1.0 0.0 0.0 1e146",
          "Sigma_w = 1.0 0.0 0.0 1.7976931348623157e308"))],
    "test_exact_measurements_from_a_zero_prior_are_a_numerical_failure": [
        ("filter", "filter --model <model>",
         "numerical failure: innovation covariance not positive definite (at step 1)", False,
         EXACT_SCALAR_FILE),
        ("compare-1", "compare --beta 0.1 --replicates 1 --model <model>",
         "numerical failure: innovation covariance not positive definite (at step 1)", False,
         EXACT_SCALAR_FILE),
        ("compare-20", "compare --beta 0.1 --replicates 20 --model <model>",
         "numerical failure: innovation covariance not positive definite (replicate 0, at "
         "step 1)", False, EXACT_SCALAR_FILE)],
    "test_an_oracle_newton_check_that_overflows_is_a_numerical_failure": [
        ("Sigma_v = 1e-250", "oracle-check --model <model>",
         "numerical failure: Newton check norm non-finite", False,
         (GOOD_MODEL_FILE, "Sigma_v = 1e-250")),
        ("Sigma_v = 1e-200", "oracle-check --model <model>",
         "numerical failure: Newton check norm non-finite", False,
         (GOOD_MODEL_FILE, "Sigma_v = 1e-200"))],
    "test_an_oracle_schur_complement_that_overflows_is_a_numerical_failure": [
        ("one-state-g2-slope", "oracle-check --model <model> --horizon 30",
         "numerical failure: Hessian Schur complement 0 non-finite", False,
         (GOOD_MODEL_FILE, "gsq = 0.0 1.0", "Sigma_v = 1e-296")),
        ("one-state-g2-floor", "oracle-check --model <model> --horizon 30",
         "numerical failure: Hessian Schur complement 0 non-finite", False,
         (GOOD_MODEL_FILE, "gsq = 1e-12 0.0", "Sigma_v = 1e-296")),
        ("two-state", "oracle-check --model <model> --horizon 30",
         "numerical failure: Hessian Schur complement 0 non-finite", False,
         (TWO_STATE_DISCRETE_FILE, "gsq = 0.0 1.0 0.0 4.0 0.0 0.2", "Sigma_v = 1e-296 2.0"))],
    "test_oracle_prior_whose_symmetric_part_overflows_exits_1": [
        (None, "oracle-check --model example_sec3 --init-sigma 1e308",
         "error: initial prior covariance must not contain infs or NaNs, nor overflow when "
         "symmetrized", False)],
    "test_oracle_prior_whose_inverse_overflows_exits_1": [
        (None, "oracle-check --model example_sec3 --init-sigma 1e-310",
         "error: initial prior covariance is so small that its inverse, the oracle's prior "
         "weight, overflows", False)],
}

Row = collections.namedtuple("Row", "argv stderr before_work model",
                             defaults=(True, None))

# The functions of cukf.cli that compute; a row refused before work runs
# with each of them raising.
WORK = ("simulate_discrete", "simulate_cd", "monte_carlo_compare",
        "euler_limit_check", "run_filter", "cd_run", "oracle_filter")


def _worked(*args, **kwargs):
    raise AssertionError("computed before refusing")


def check_refusal(row, tmp_path, monkeypatch, capsys):
    """Run one row of REFUSALS (`run`): it exits 1 after an `error:` or
    usage line and 2 after a `numerical failure:` line, prints its stderr
    exactly and leaves nothing behind, no --out directory included."""
    paths = {"<model>": tmp_path / "model.txt", "<file>": tmp_path / "a-file",
             "<dir>": tmp_path}
    if row.model is not None:
        paths["<model>"].write_text(row.model if isinstance(row.model, str)
                                    else _mutated(*row.model))
    paths["<file>"].write_text("")
    if row.before_work:
        for name in WORK:
            monkeypatch.setattr(cukf.cli, name, _worked)
    files = sorted(tmp_path.rglob("*"))
    code = run([str(paths.get(arg, arg)) for arg in row.argv.split()],
               tmp_path / "out", monkeypatch)
    err = capsys.readouterr().err
    if err.startswith("usage: "):  # argparse's usage, wrapped, then its error
        _, *wrapped, last = err.splitlines()
        assert all(line.startswith(" ") for line in wrapped), err
        err = f"usage: …\n{last}\n"
    stderr = row.stderr
    for key, path in paths.items():
        stderr = stderr.replace(key, str(path))
    assert (code, err) == (2 if stderr.startswith("numerical failure: ")
                           else 1, stderr + "\n")
    assert sorted(tmp_path.rglob("*")) == files


def _refusal_test(rows):
    """The test of one group of REFUSALS: one case per row, named by its
    case id, or a plain test for a lone row without one."""
    rows = {case: Row(*row) for case, *row in rows}
    if None in rows:
        def test(tmp_path, monkeypatch, capsys):
            check_refusal(rows[None], tmp_path, monkeypatch, capsys)
        return test

    @pytest.mark.parametrize("row", rows.values(), ids=rows.keys())
    def test(row, tmp_path, monkeypatch, capsys):
        check_refusal(row, tmp_path, monkeypatch, capsys)
    return test


globals().update((name, _refusal_test(rows))
                 for name, rows in REFUSALS.items())


def test_oracle_linearizes_an_overflowing_gain_without_a_warning(
        tmp_path, monkeypatch, capsys):
    # g_2^2 = -1e308 x_2 overflows to -inf and is floored, as in the filter.
    path = tmp_path / "model.txt"
    path.write_text(_mutated(TWO_STATE_DISCRETE_FILE,
                             "gsq = 10.0 0.5 0.0 4.0 0.0 -1e308"))
    assert run(["oracle-check", "--model", str(path), "--x0", "5"],
               tmp_path / "out", monkeypatch) == 0
    assert capsys.readouterr().err == ""
    text = (tmp_path / "out" / "oracle_deltas.csv").read_text()
    assert "inf" not in text and "nan" not in text


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


LIMITED = """
import resource, sys
from cukf.cli import parse_and_dispatch

with open("/proc/self/status") as fh:
    vm = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
limit = vm * 1024 + (64 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(parse_and_dispatch(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the address space size from /proc")
@pytest.mark.parametrize("argv, code, stderr", [
    ("filter --model example_sec3 --N 1000000000000", 1,
     "error: --N must be at most 1000000"),
    ("simulate --model example_sec3 --N 1000000000000", 1,
     "error: --N must be at most 1000000"),
    ("compare --model example_sec3 --beta 1 --replicates 1000000000", 1,
     "error: --replicates 1000000000 times --N 100 must be at most 1000000 "
     "steps"),
    ("compare --model example_sec3 --beta 1 --replicates 3000000 --N 100", 1,
     "error: --replicates 3000000 times --N 100 must be at most 1000000 "
     "steps"),
    ("filter --model example_sec3 --N 1000000", 2,
     "numerical failure: out of memory"),
], ids=["filter", "simulate", "compare-replicates", "compare-replicates-N",
        "out-of-memory"])
def test_counts_past_the_memory_budget_end_in_one_line(argv, code, stderr,
                                                       tmp_path):
    # In a process whose address space is what its imports took and 64 MiB
    # more: a count past the budget is refused by its flag before any
    # work, and a run within it that still runs out of memory (filter's
    # 10^6 steps take about 115 MB) is one numerical failure line.  Either
    # way there is no traceback and no --out.
    import cukf
    env = dict(os.environ)
    src = str(Path(cukf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("CUKF_OUTPUT_DIR", None)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED] + argv.split() + ["--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(stderr)
    assert not out.exists()


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
