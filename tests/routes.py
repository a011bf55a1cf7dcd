"""The route contract as one check: a route test compares the `outcome`s of
one case on two routes that must agree (the filter kernel and the numpy
loop, the oracle's float and block bindings, the simulator's float and
batch loops), or on a route and a reference, with `same`.  `route` turns a
route off and records the routes taken.  A new route is one more `same`."""

import collections
import contextlib
from pathlib import Path

import numpy as np
import pytest

from cukf import discrete, simulate
from cukf.errors import FilterError
from cukf.models import DiscreteLinearModel, with_fixed_noise
from cukf.wls import OracleSolution

from reference_impl import rel_err

MODELS = Path(__file__).resolve().parents[1] / "bench" / "models"  # shipped model files
N = 25  # the steps of a random case
FIELDS = ("xhat_prior", "Sigma_prior", "xhat_post", "Sigma_post",
          "innovation", "S", "gain")
Failure = collections.namedtuple("Failure", "cls text step replicate")


def outcome(run, off=None, text=True):
    """run()'s trace, solution, report or path as {field: value}, with the
    route `off` turned off (see `route`), or the Failure it raises: class,
    str (None for text=False, where a reference words its errors otherwise
    than the package), step and replicate."""
    try:
        with route(off):
            result = run()
    except (FilterError, ValueError) as exc:  # ValueError: LinAlgError too
        return Failure(type(exc), str(exc) if text else None,
                       getattr(exc, "step", None),
                       getattr(exc, "replicate", None))
    return {name: np.ascontiguousarray(v) if isinstance(v, np.ndarray) else v
            for name, v in vars(result).items()}


def same(got, want, tol=None):
    """Assert that two outcomes agree, and return `got`: the same Failure,
    or the same fields, a float array of the same shape and dtype byte for
    byte for tol None, else within rel_err <= tol, and any other field (a
    count, flag, index or name) equal."""
    if isinstance(got, Failure) or isinstance(want, Failure):
        assert got == want
        return got
    assert got.keys() == want.keys()
    for name, w in want.items():
        g = got[name]
        if isinstance(w, np.ndarray) and w.dtype.kind == "f":
            assert (np.shape(g), g.dtype) == (w.shape, w.dtype), name
            assert (g.tobytes() == w.tobytes() if tol is None
                    else rel_err(g, w) <= tol), name
        else:
            assert np.array_equal(g, w), name
    return got


def random_linear(rng, n, m, clamp=False, fixed_beta=False, slope=0.5):
    """A stable linear model whose g^2 rows have slopes up to `slope`; with
    `clamp`, g^2_1 < 0 near the origin, so the floor is hit; with
    `fixed_beta`, its fixed-beta baseline."""
    A1 = rng.standard_normal((n, n))
    A1 *= 0.95 / max(np.abs(np.linalg.eigvals(A1)).max(), 1e-6)
    gsq = np.column_stack([rng.uniform(0.5, 5.0, n),
                           rng.uniform(-slope, slope, (n, n))])
    if clamp:
        gsq[0, 0] = -1.0
    B = rng.standard_normal((m, m))
    model = DiscreteLinearModel(
        A0=rng.standard_normal(n), A1=A1, C=rng.standard_normal((m, n)),
        gsq=gsq, Sigma_v=np.diag(rng.uniform(0.1, 2.0, n)),
        Sigma_w=B @ B.T + 0.1 * np.eye(m))
    return with_fixed_noise(model, rng.uniform(0, 2)) if fixed_beta else model


def stacked(steps):
    """The oracle's per-step (trajectory block, xhat, Sigma, and the three
    norms) as the solution oracle_filter returns, each trajectory row +0.0
    past its step's block."""
    blocks, *rest = zip(*steps)
    trajectory = np.zeros((len(blocks), len(blocks), blocks[0].shape[-1]))
    for k, block in enumerate(blocks):
        trajectory[k, :k + 1] = block
    return OracleSolution(trajectory, *map(np.array, rest))


@contextlib.contextmanager
def route(off=None):
    """Turn off the route `off` inside the block, "kernel" (every filter runs
    the numpy loop) or "oracle floats" (the oracle's block binding runs),
    and yield the routes taken in order: ("kernel", columns) per run of the
    filter kernel, ("numpy loop", replicates) per `discrete._run_loop` and
    ("floats", n) per path of the simulator's float loop."""
    taken = []
    with pytest.MonkeyPatch.context() as patch:
        for module, attr, name, size in (
                (discrete, "_linear_steps", "kernel",
                 lambda models, R, interval: len(models) * R),
                (discrete, "_run_loop", "numpy loop", lambda ms, *_: len(ms)),
                (simulate, "_float_steps", "floats", lambda n: n)):
            def call(*args, fn=getattr(module, attr), name=name, size=size):
                taken.append((name, size(*args)))
                return fn(*args)
            patch.setattr(module, attr, call)
        if off:
            patch.setattr({"kernel": "cukf.discrete._small_linear",
                           "oracle floats": "cukf.wls._scalar_linear"}[off],
                          lambda model: False)
        yield taken
