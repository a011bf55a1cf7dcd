"""A deterministic mutation fuzz of the CLI boundary.

Each numeric entry of three model files (the two under bench/models and a
two-state discrete model) is set in turn to each value of VALUES, and the
mutated file is run through one subcommand, cycled from COMMANDS, by
`test_cli.run` (every warning an error).  Every run must end in a
documented exit code without a traceback: on success every CSV it wrote
is finite; on failure it prints one stderr line and leaves no output
directory, except oracle-check's tolerance failure, which writes its
outputs before it reports.
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


def test_mutated_model_files_end_in_a_documented_exit(tmp_path, monkeypatch,
                                                      capsys):
    model, out = tmp_path / "model.txt", tmp_path / "out"
    failures, cases = [], 0
    for i, (label, text) in enumerate(mutations()):
        cases += 1
        command = COMMANDS[i % len(COMMANDS)]
        model.write_text(text + "\n")
        case = f"{label}: {' '.join(command)}"
        try:
            code = run(command + ["--model", str(model)], out, monkeypatch)
        except Exception as exc:  # a traceback at the boundary
            failures.append(f"{case}: raised {exc!r}")
            capsys.readouterr()
            shutil.rmtree(out, ignore_errors=True)
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or "Traceback" in err:
            failures.append(f"{case}: exit {code}, stderr {err!r}")
        elif code == 0:
            bad = nonfinite_cells(out)
            if bad:
                failures.append(f"{case}: non-finite output {bad[:3]}")
        elif err != TOLERANCE_FAILURE and (err.count("\n") != 1
                                           or out.exists()):
            failures.append(f"{case}: exit {code}, stderr {err!r}, "
                            f"output left: {out.exists()}")
        shutil.rmtree(out, ignore_errors=True)
    assert cases == 676
    assert not failures, "\n".join(failures)
