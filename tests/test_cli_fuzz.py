"""Deterministic fuzzes of the CLI boundary, each case run by `test_cli.run`
(every warning an error) and held to `contract_failure`: it ends in a
documented exit code without a traceback; on success every CSV it wrote is
finite; on failure it prints one stderr line (argparse's usage and its one
error line for a usage error) and leaves no output directory, except
oracle-check's tolerance failure, which writes its outputs before it
reports.

The model-file fuzz sets each numeric entry of three model files (the two
under bench/models and a two-state discrete model) in turn to each value of
VALUES, and runs the mutated file through one subcommand, cycled from
COMMANDS.  The argv fuzz sets each numeric option of each subcommand and
model kind that reads it (FLAGS) to each value of FLAG_VALUES; a count takes
no value larger than 3, so that no case allocates in proportion to it.
"""

import csv
import math
import shutil
from pathlib import Path

from test_cli import TWO_STATE_DISCRETE_FILE, run

BENCH_MODELS = Path(__file__).resolve().parents[1] / "bench" / "models"

VALUES = ["0", "-1", "1e308", "-1e308", "1e-320", "nan", "inf", "2", "0.5",
          "-0.0", "1e20", "-1e20", "1e-300"]

COMMANDS = [
    ["simulate"],
    ["filter"],
    ["filter", "--variant", "fixed-beta", "--beta", "0.5"],
    ["filter", "--step", "0.01"],
    ["compare", "--replicates", "5", "--beta", "0.5"],
    ["oracle-check", "--horizon", "20", "--init-sigma", "0"],
    ["oracle-check", "--horizon", "20", "--init-sigma", "1"],
    ["limit-check"],
]

TOLERANCE_FAILURE = "oracle-check FAILED (tolerance 1e-9)\n"


def mutations():
    """(label, model text) for every entry and value: each numeric entry
    but kind, n and m, and only the first, second and last sample time."""
    texts = [(p.name, p.read_text())
             for p in sorted(BENCH_MODELS.glob("*.txt"))]
    texts.append(("two_state_discrete", TWO_STATE_DISCRETE_FILE))
    for name, text in texts:
        lines = text.splitlines()
        for i, line in enumerate(lines):
            key, sep, value = line.partition(" = ")
            if line.startswith("#") or not sep or key in ("kind", "n", "m"):
                continue
            words = value.split()
            where = ((0, 1, len(words) - 1) if key == "sample_times"
                     else range(len(words)))
            for pos in where:
                for new in VALUES:
                    mutated = words[:pos] + [new] + words[pos + 1:]
                    lines[i] = f"{key} = {' '.join(mutated)}"
                    yield f"{name} {key}[{pos}] = {new}", "\n".join(lines)
            lines[i] = line


def nonfinite_cells(out):
    """The CSV cells under `out` that parse as floats but are not finite."""
    bad = []
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    if not math.isfinite(value):
                        bad.append(f"{path.name}: {cell}")
    return bad


def contract_failure(argv, out, monkeypatch, capsys):
    """None if `cukf argv` keeps the contract of the module docstring, else
    what broke it.  Removes `out`."""
    try:
        code = run(argv, out, monkeypatch)
        err = capsys.readouterr().err
        if err.startswith("usage: "):  # argparse's usage, then its one error
            err = err.splitlines(keepends=True)[-1]
        if code not in (0, 1, 2) or "Traceback" in err:
            return f"exit {code}, stderr {err!r}"
        if code == 0:
            bad = nonfinite_cells(out)
            return f"non-finite output {bad[:3]}" if bad else None
        if err != TOLERANCE_FAILURE and (err.count("\n") != 1 or out.exists()):
            return (f"exit {code}, stderr {err!r}, output left: "
                    f"{out.exists()}")
        return None
    except Exception as exc:  # a traceback at the boundary
        capsys.readouterr()
        return f"raised {exc!r}"
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_mutated_model_files_end_in_a_documented_exit(tmp_path, monkeypatch,
                                                      capsys):
    model, out = tmp_path / "model.txt", tmp_path / "out"
    failures, cases = [], 0
    for i, (label, text) in enumerate(mutations()):
        cases += 1
        command = COMMANDS[i % len(COMMANDS)]
        model.write_text(text + "\n")
        failure = contract_failure(command + ["--model", str(model)], out,
                                   monkeypatch, capsys)
        if failure:
            failures.append(f"{label}: {' '.join(command)}: {failure}")
    assert cases == 676
    assert not failures, "\n".join(failures)


FLAG_VALUES = ["-1", "0", "-0", "2.5", "3", "1e308", "-1e308", "nan", "inf",
               "-inf", "1e-320"]

# (base argv, the numeric options of its subcommand and model kind).
FLAGS = [
    ("simulate --model example_sec3", "--x0 --seed --N"),
    ("simulate --model birth_death_cle", "--x0 --seed --em-step"),
    ("simulate --model logistic", "--x0 --seed --N"),
    ("filter --model example_sec3", "--x0 --seed --N --init-sigma"),
    ("filter --model example_sec3 --variant fixed-beta --beta 0.5", "--beta"),
    ("filter --model birth_death_cle",
     "--x0 --seed --em-step --init-sigma --step"),
    ("filter --model logistic --x0 50", "--init-sigma"),
    ("compare --model example_sec3 --beta 0.5 --replicates 5",
     "--x0 --seed --N --beta --replicates"),
    ("oracle-check --model example_sec3",
     "--x0 --seed --init-sigma --horizon"),
    ("limit-check --model birth_death_cle", "--x0 --t0 --t1 --dt0 --levels"),
]


def test_out_of_range_options_end_in_a_documented_exit(tmp_path, monkeypatch,
                                                       capsys):
    # An option given twice takes its last value, the fuzzed one.
    failures, cases = [], 0
    for base, flags in FLAGS:
        for flag in flags.split():
            for value in FLAG_VALUES:
                cases += 1
                argv = base.split() + [flag, value]
                failure = contract_failure(argv, tmp_path / "out",
                                           monkeypatch, capsys)
                if failure:
                    failures.append(f"{' '.join(argv)}: {failure}")
    assert cases == 374
    assert not failures, "\n".join(failures)
