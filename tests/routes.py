"""The route contract as one check: a route test compares the `outcome`s of
one case on two routes that must agree (the filter kernel and the numpy
loop, the oracle's float and block bindings, the simulator's float and
batch loops), or on a route and a reference, with `same`.  `route` turns a
route off and records the routes taken.  A new route is one more `same`.

The continuous-discrete route contract is one table, CD_ROUTES, of rows
that `check_cd_routes` runs.  A new continuous-discrete case is a row."""

import collections
import contextlib
import types
from pathlib import Path

import numpy as np
import pytest

from cukf import discrete, simulate
from cukf.builtin import birth_death_cle
from cukf.cli import _init_estimate
from cukf.continuous import _Propagator, cd_run, cd_time_update, default_config
from cukf.discrete import StateEstimate
from cukf.errors import FilterError
from cukf.modelio import load_model
from cukf.models import (ContinuousDiscreteModel, DiscreteLinearModel,
                         with_fixed_noise)
from cukf.simulate import simulate_cd
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
    filter kernel, ("numpy loop", replicates) per `discrete._run_loop`,
    ("floats", n) per path of the simulator's float loop; and a propagator's
    builds, ("span", t0) on [t0, t1], ("affine", key) and ("generator",
    key) per floored set, and ("propagate", t0) per slow interval."""
    taken = []
    with pytest.MonkeyPatch.context() as patch:
        for owner, attr, name, value in (
                (discrete, "_linear_steps", "kernel",
                 lambda models, R, prop: len(models) * R),
                (discrete, "_run_loop", "numpy loop", lambda ms, *_: len(ms)),
                (simulate, "_float_steps", "floats", lambda n: n),
                (_Propagator, "_new_span", "span", lambda _, span, t0, t1: t0),
                (_Propagator, "affine", "affine", lambda _, k, key: key),
                (_Propagator, "_generator", "generator", lambda prop, key: (
                    None if key in prop._generators else key)),
                (_Propagator, "propagate", "propagate",
                 lambda _, z, t0, t1: t0)):
            def call(*args, fn=getattr(owner, attr), name=name, value=value):
                if (v := value(*args)) is not None:
                    taken.append((name, v))
                return fn(*args)
            patch.setattr(owner, attr, call)
        if off:
            patch.setattr({"kernel": "cukf.discrete._small_linear",
                           "oracle floats": "cukf.wls._scalar_linear"}[off],
                          lambda model: False)
        yield taken


def cd_model(name):
    """A shipped continuous-discrete model, built in or a file of MODELS."""
    return birth_death_cle() if name == "birth_death_cle" else load_model(
        MODELS / name)


def linear_cd(times, **fields):
    """A continuous-discrete linear model sampled at `times`."""
    return ContinuousDiscreteModel(inner=DiscreteLinearModel(**fields),
                                   sample_times=times)


def simulated(model, x0, seed, sigma=1.0):
    """cd_run's inputs: `model` (or the shipped model of that name),
    measurements simulated from x0 by `seed` (em_step 0.01) and the prior
    (x0, sigma I) at t = 0, or for sigma None `filter`'s at that seed."""
    model = cd_model(model) if isinstance(model, str) else model
    x0 = np.full(model.n, x0)
    prior = (StateEstimate(x0, sigma * np.eye(model.n), 0.0) if sigma
             is not None else _init_estimate(model, types.SimpleNamespace(
                 init_sigma=0.0, seed=seed)))
    return model, simulate_cd(model, x0, seed, 0.01).measurements, prior


def gaps(n, gap):
    """Intervals of 0.25, 0.25 and `gap`, from x = 50 in n dimensions."""
    eye, tens = np.eye(n), np.full(n, 10.0)
    return (linear_cd([0.0, 0.25, 0.5, 0.5 + gap], A0=tens, A1=-0.1 * eye,
                      C=eye, gsq=np.column_stack([tens, 0.1 * eye]),
                      Sigma_v=eye, Sigma_w=eye),
            np.full((4, n), 50.0), StateEstimate(5 * tens, eye, 0.0))


SHIPPED = ["birth_death_cle", "two_species_cle.txt", "pure_death_cle.txt"]
# The CI's cutting file: g^2 = x - 2 crosses the floor as the mean relaxes
# toward 5, so intervals are cut.  Its gaps are all 0.5, a canonical length.
CUTTING = linear_cd(0.5 * np.arange(7), A0=[5.0], A1=[[-1.0]], C=[[1.0]],
                    gsq=[[-2.0, 1.0]], Sigma_v=[[1.0]], Sigma_w=[[0.25]])
# The CI's partial-floor file: g2_0 = x_0 - 2 floors for part of the run: a
# decided interval with a mixed floored set, intervals the node bounds
# leave to propagate, and a cut.
PARTIAL_FLOOR = linear_cd(
    0.5 * np.arange(9), A0=[5.0, 2.0], A1=[[-1.0, 0.0], [0.2, -0.5]],
    C=np.eye(2), gsq=[[-2.0, 1.0, 0.0], [3.0, 0.1, 0.2]], Sigma_v=np.eye(2),
    Sigma_w=0.25 * np.eye(2))
ONE_SET = "kernel 1, span 0.0, affine 0, generator 0"  # no g^2 floored
FLOORED = "kernel 1, span 0.0, affine 1, generator 1"  # g^2 floored
BOTH = ONE_SET + ", affine 1, generator 1"
OPEN = "propagate 0.5, propagate 1.0"  # intervals left to propagate
CUT = "kernel 1, span 0.0, propagate 0.0, generator 1, generator 0, " + OPEN
# Rows (case id, inputs, route, counts), grouped as FAILURES' (`table_tests`).
CD_ROUTES = {
    "test_continuous::test_cd_time_update_is_the_time_update_cd_run_makes": [
        ("birth_death_cle", ("birth_death_cle", 100.0, 1), ONE_SET, (0, 0, 0)),
        ("two_species", ("two_species_cle.txt", 100.0, 1), ONE_SET, (0, 0, 0)),
        ("cutting", (CUTTING, 0.0, 1),
         CUT + ", propagate 1.5, affine 0, propagate 2.5", (2, 2, 2))],
    # bench's cd-filter runs, which cut no interval: every interval takes the
    # affine map, pure-death's clamped ones too, and none calls propagate.
    "test_continuous::test_cd_filter_intervals_take_the_affine_map": [
        (f"{name}-{seed}", (name, 100.0, seed, None), route, (clamps, 0, 0))
        for name, runs in [
            ("birth_death_cle", [(ONE_SET, 0)] * 4),
            ("two_species_cle.txt", [(ONE_SET, 0)] * 4),
            ("pure_death_cle.txt", [(FLOORED, 100), (BOTH, 36), (BOTH, 74),
                                    (FLOORED, 100)])]
        for seed, (route, clamps) in enumerate(runs)],
    "test_continuous::"
    "test_a_partly_floored_two_state_run_makes_the_priors_of_cd_time_update": [
        (None, (PARTIAL_FLOOR, 0.0, 0, 0.0), FLOORED + ", propagate 0.5, "
         "generator 0, propagate 1.0, propagate 1.5, propagate 2.0, affine 0",
         (2, 1, 1))],
    "test_continuous::test_generator_is_built_once_per_floored_set": [
        (None, ("birth_death_cle", 100.0, 0), ONE_SET, (0, 0, 0))],
    # Their gaps differ by ulps; rounded to _SPAN_BITS, they are one length.
    "test_continuous::test_cd_run_builds_one_span_on_each_shipped_model": [
        (name, (name, 100.0, 1), route, (clamps, 0, 0)) for name, route, clamps
        in zip(SHIPPED, [ONE_SET, ONE_SET, BOTH], [0, 0, 36])],
    # 0.25 + 2^-46 is the next canonical length after 0.25.
    "test_continuous::test_gaps_that_really_differ_get_their_own_spans": [
        (f"{n}-{case}", lambda n=n, gap=gap: gaps(n, gap),
         ONE_SET + ", span 0.5, affine 0", (0, 0, 0)) for n in (1, 2)
        for case, gap in [("1e-9", 0.25 * (1 + 1e-9)),
                          ("outside-the-rounding", 0.25 + 2.0 ** -46)]],
    "test_continuous::test_the_cutting_model_keeps_its_cuts": [
        (f"{seed}-counts{seed}", (CUTTING, 0.0, seed), route, counts)
        for seed, route, counts in [
            (0, "kernel 1, span 0.0, propagate 0.0, generator 1, propagate "
             "0.5, generator 0, propagate 1.0, affine 0", (2, 1, 1)),
            (1, CUT + ", propagate 1.5, affine 0, propagate 2.5", (2, 2, 2)),
            (2, CUT + ", affine 0", (2, 2, 2)),
            (3, CUT + ", affine 0", (1, 1, 1))]],
    # n = 4, or m > n, from x = 1; each g^2_1 floors near the origin.
    "test_continuous::test_the_kernel_leaves_other_sizes_to_the_numpy_loop": [
        (f"n{n}-m{m}", (ContinuousDiscreteModel(
            inner=random_linear(np.random.default_rng([n, m]), n, m, True),
            sample_times=0.5 * np.arange(7)), 1.0, 0),
         "numpy loop 1, span 0.0, affine 1, generator 1" + route, counts)
        for n, m, route, counts in [
            (4, 2, ", propagate 1.5, propagate 2.0, propagate 2.5", (6, 0, 0)),
            (4, 4, ", propagate 1.0, propagate 1.5, propagate 2.0, "
             "propagate 2.5", (6, 0, 0)),
            (2, 3, ", affine 0, generator 0, propagate 2.0, generator 2, "
             "affine 2", (3, 1, 1)),
            (1, 2, "", (6, 0, 0))]],
    "test_loop_reference::test_one_state_cd_models_take_the_scalar_rule": [
        (None, ("birth_death_cle", 100.0, 0), ONE_SET, (0, 0, 0)),
        (None, ("pure_death_cle.txt", 100.0, 0), BOTH, (52, 0, 0))],
}


def check_cd_routes(rows):
    """Run cd_run once per row (inputs, route, counts): the routes it takes
    and its propagator's work (`route`), as text, are exactly `route`; its
    (clamp_count, fallback_intervals, step_count), exactly `counts`; and
    from each posterior, cd_time_update makes the next prior, bit for bit."""
    for inputs, want, counts in rows:
        model, ms, prior = (inputs() if callable(inputs)
                            else simulated(*inputs))
        with route() as taken:
            trace = cd_run(model, ms, prior)
        assert ", ".join(f"{name} {v}" for name, v in taken) == want
        assert (trace.clamp_count, trace.fallback_intervals,
                trace.step_count) == counts
        ts, step = model.sample_times, default_config(model)
        priors = [cd_time_update(StateEstimate(x, P), model, t0, t1, step)
                  for x, P, t0, t1 in zip(trace.xhat_post, trace.Sigma_post,
                                          ts, ts[1:])]
        same({"xhat": trace.xhat_prior[1:], "Sigma": trace.Sigma_prior[1:]},
             {"xhat": np.array([p.xhat for p in priors]),
              "Sigma": np.array([p.Sigma for p in priors])})


def table_tests(table, module, check):
    """The tests of `table`'s groups "module::name" for `module`, by name:
    check(rows) on each case, the rows that share a case id, named by it;
    case id None makes a plain test."""
    tests = {}
    for key, rows in table.items():
        where, _, name = key.partition("::")
        if where != module:
            continue
        cases = collections.defaultdict(list)
        for case, *row in rows:
            cases[case].append(row)
        if None in cases:
            def test(rows=cases[None]):  # a default is not a fixture
                check(rows)
        else:
            @pytest.mark.parametrize("rows", cases.values(), ids=cases.keys())
            def test(rows):
                check(rows)
        tests[name] = test
    return tests
