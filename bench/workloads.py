"""The benchmark's workloads: which CLI calls make one op, how much work an
op is, and how each call's outputs are checked.

Paths are relative to the repository root, which is the working directory
of every op.
"""

import csv
import hashlib
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

MODELS_DIR = os.path.join("bench", "models")
TWO_SPECIES = os.path.join(MODELS_DIR, "two_species_cle.txt")
PURE_DEATH = os.path.join(MODELS_DIR, "pure_death_cle.txt")


@dataclass(frozen=True)
class Call:
    """One CLI invocation; `--seed` and `--out` are appended per op."""

    argv: Tuple[str, ...]
    check: Optional[Callable[[str, str], Optional[str]]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Tuple[Call, ...]
    steps: int               # work units per op (see `step_unit`)
    step_unit: str
    models: Tuple[str, ...]  # builtin names or model files loaded at set-up


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_compare(outdir, stdout):
    """Covariance-update MSE must beat the fixed-beta baseline."""
    rows = {r["filter"]: float(r["mse_mean"])
            for r in _csv_rows(os.path.join(outdir, "comparison.csv"))}
    cu = rows.get("covariance-update")
    fixed = [v for k, v in rows.items() if k.startswith("fixed-beta")]
    if cu is None or len(fixed) != 1:
        return f"comparison.csv lacks the two filters: {sorted(rows)}"
    if not cu < fixed[0]:
        return f"covariance-update MSE {cu!r} not below fixed-beta MSE {fixed[0]!r}"
    return None


_DELTA = re.compile(r"max relative delta:\s*(\S+)")


def check_oracle(outdir, stdout):
    """The printed max relative delta must be at most 1e-9."""
    m = _DELTA.search(stdout)
    if m is None:
        return "no 'max relative delta' line on stdout"
    delta = float(m.group(1))
    if not delta <= 1e-9:
        return f"max relative delta {delta!r} > 1e-9"
    return None


def check_finite(outdir):
    """Every numeric field of every CSV output must be finite."""
    for fname in sorted(os.listdir(outdir)):
        if not fname.endswith(".csv"):
            continue
        with open(os.path.join(outdir, fname), newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for lineno, row in enumerate(reader, start=2):
                for field in row:
                    try:
                        value = float(field)
                    except ValueError:
                        continue
                    if not math.isfinite(value):
                        return f"{fname}:{lineno}: non-finite value {field}"
    return None


def output_digest(outdir):
    """(file name -> sha256, total bytes) over every file the call wrote."""
    digests = {}
    total = 0
    for fname in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, fname)
        with open(path, "rb") as fh:
            body = fh.read()
        digests[fname] = hashlib.sha256(body).hexdigest()
        total += len(body)
    return digests, total


def build(small=False):
    """Workloads by name.  `small` shrinks every op to a few milliseconds
    for the smoke test; the real sizes are the defaults."""
    replicates, horizon, long_n = (5, 10, 50) if small else (50, 100, 10000)
    cd_step = ("--step", "0.01") if small else ()
    compare_n = 50 if small else 100
    cd_models = ("birth_death_cle", TWO_SPECIES, PURE_DEATH)
    return {
        "mc-compare": Workload(
            name="mc-compare",
            calls=(Call(("compare", "--model", "example_sec3", "--beta", "0.1",
                         "--replicates", str(replicates), "--N", str(compare_n)),
                        check_compare),),
            steps=2 * replicates * compare_n, step_unit="filter steps",
            models=("example_sec3",)),
        "oracle-check": Workload(
            name="oracle-check",
            calls=(Call(("oracle-check", "--model", "example_sec3",
                         "--horizon", str(horizon)), check_oracle),),
            steps=horizon, step_unit="oracle Newton solves",
            models=("example_sec3",)),
        "cd-filter": Workload(
            name="cd-filter",
            calls=tuple(Call(("filter", "--model", m, "--x0", "100") + cd_step)
                        for m in cd_models),
            steps=51 + 101 + 101, step_unit="filter steps",
            models=cd_models),
        "long-trajectory": Workload(
            name="long-trajectory",
            calls=(Call(("filter", "--model", "example_sec3", "--N", str(long_n))),),
            steps=long_n, step_unit="filter steps",
            models=("example_sec3",)),
    }
