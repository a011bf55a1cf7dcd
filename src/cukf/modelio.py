"""Plain-text model definition files.

One key per line, `key = values`, values whitespace-separated numbers,
matrices flattened row-major, `#` starts a comment.  Keys:

    kind        discrete | continuous
    n           state dimension
    m           output dimension
    A0          n values
    A1          n*n values (row-major)
    C           m*n values (row-major)
    gsq         n*(n+1) values (row i: c_i0, c_i1, ..., c_in)
    Sigma_v     n values (diagonal entries)
    Sigma_w     m*m values (row-major)
    sample_times  measurement instants (kind continuous only)

See README.md for a worked example.
"""

from typing import Union

import numpy as np

from .discrete import _atomic_open
from .errors import ModelError
from .models import ContinuousDiscreteModel, DiscreteLinearModel


def loads(text: str) -> Union[DiscreteLinearModel, ContinuousDiscreteModel]:
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelError(f"line {lineno}: expected 'key = values'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ModelError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()

    def take(key):
        if key not in fields:
            raise ModelError(f"missing key {key!r}")
        return fields.pop(key)

    def numbers(key, count=None):
        words = take(key).split()
        try:
            vals = np.array([float(v) for v in words])
        except ValueError as exc:
            raise ModelError(f"{key}: {exc}") from None
        if count is not None and vals.size != count:
            raise ModelError(f"{key} needs {count} values, got {vals.size}")
        return vals

    kind = take("kind")
    if kind not in ("discrete", "continuous"):
        raise ModelError(f"kind must be discrete or continuous, got {kind!r}")

    def dimension(key):
        v = float(numbers(key, 1)[0])
        if not (v >= 1 and v.is_integer()):
            raise ModelError(f"{key} must be a positive integer, got {v!r}")
        return int(v)

    n = dimension("n")
    m = dimension("m")
    model = DiscreteLinearModel(
        A0=numbers("A0", n),
        A1=numbers("A1", n * n).reshape(n, n),
        C=numbers("C", m * n).reshape(m, n),
        gsq=numbers("gsq", n * (n + 1)).reshape(n, n + 1),
        Sigma_v=np.diag(numbers("Sigma_v", n)),
        Sigma_w=numbers("Sigma_w", m * m).reshape(m, m))
    if kind == "continuous":
        model = ContinuousDiscreteModel(inner=model,
                                        sample_times=numbers("sample_times"))
    elif "sample_times" in fields:
        raise ModelError("sample_times is only valid for kind = continuous")
    if fields:
        raise ModelError(f"unknown keys: {sorted(fields)}")
    return model


def dumps(model) -> str:
    cd = isinstance(model, ContinuousDiscreteModel)
    inner = model.inner if cd else model
    lines = [
        f"kind = {'continuous' if cd else 'discrete'}",
        f"n = {inner.n}",
        f"m = {inner.m}",
        "A0 = " + " ".join(repr(float(v)) for v in inner.A0),
        "A1 = " + " ".join(repr(float(v)) for v in inner.A1.ravel()),
        "C = " + " ".join(repr(float(v)) for v in inner.C.ravel()),
        "gsq = " + " ".join(repr(float(v)) for v in inner.gsq.ravel()),
        "Sigma_v = " + " ".join(repr(float(v)) for v in np.diag(inner.Sigma_v)),
        "Sigma_w = " + " ".join(repr(float(v)) for v in inner.Sigma_w.ravel()),
    ]
    if cd:
        lines.append("sample_times = "
                     + " ".join(repr(float(v)) for v in model.sample_times))
    return "\n".join(lines) + "\n"


def load_model(path) -> Union[DiscreteLinearModel, ContinuousDiscreteModel]:
    with open(path) as fh:
        return loads(fh.read())


def save_model(model, path):
    with _atomic_open(path) as fh:
        fh.write(dumps(model))
