"""Property tests over random small models, some of which clamp g^2: a batch
of replicates equals the same replicates run one at a time, the covariances
keep their structure, the batched oracle equals its per-step Newton loop,
and model files round-trip.  The closed-form scalar innovation factor and
the oracle's closed-form 1 x 1 Schur factor equal their LAPACK form bit for
bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cukf.discrete import (StateEstimate, _inverse_factor, run_filter,
                           run_filter_batch)
from cukf import modelio
from cukf.errors import IndefiniteHessianError
from cukf.models import (ContinuousDiscreteModel, DiscreteLinearModel,
                         with_fixed_noise)
from cukf.simulate import innovation_whiteness, simulate_batch
from cukf.wls import (StackedTrajectory, _inverse_cholesky,
                      build_measurement_cost, build_time_cost, initial_cost,
                      newton_solve, oracle_filter)

from reference_impl import rel_err

N = 25
ORACLE_N = 12
MAX_LAG = 5
TRACE_FIELDS = ("xhat_prior", "Sigma_prior", "xhat_post", "Sigma_post",
                "innovation", "S", "gain")


def random_model(rng, n, m, clamp=False, slope=0.5):
    """A stable linear model whose g^2 has entries of C1 up to `slope`."""
    A1 = rng.standard_normal((n, n))
    A1 *= 0.95 / max(np.abs(np.linalg.eigvals(A1)).max(), 1e-6)
    gsq = np.column_stack([rng.uniform(0.5, 5.0, n),
                           rng.uniform(-slope, slope, (n, n))])
    if clamp:
        gsq[0, 0] = -1.0  # g^2_1 < 0 near the origin: the floor is hit
    B = rng.standard_normal((m, m))
    return DiscreteLinearModel(
        A0=rng.standard_normal(n), A1=A1, C=rng.standard_normal((m, n)),
        gsq=gsq, Sigma_v=np.diag(rng.uniform(0.1, 2.0, n)),
        Sigma_w=B @ B.T + 0.1 * np.eye(m))


@st.composite
def batches(draw):
    """(model, measurements (R, N, m), xinit (R, n), Sigma0); half of the
    models are fixed-beta baselines."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    R = draw(st.integers(1, 8))
    clamp = draw(st.booleans())
    fixed_beta = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = random_model(rng, n, m, clamp)
    seeds = rng.integers(1 << 31, size=R)
    data = simulate_batch(model, rng.standard_normal((R, n)), N, seeds)
    xinit = rng.standard_normal((R, n))
    C0 = rng.standard_normal((n, n))
    Sigma0 = C0 @ C0.T
    if fixed_beta:
        model = with_fixed_noise(model, rng.uniform(0.0, 2.0))
    return model, data.measurements, xinit, Sigma0


def run_batch(case):
    return run_filter_batch(*case)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
                min_size=1, max_size=50))
def test_scalar_inverse_factor_is_bitwise_inv_cholesky(values):
    S = np.array(values).reshape(-1, 1, 1)
    ref = np.linalg.inv(np.linalg.cholesky(S))
    assert _inverse_factor(S).tobytes() == ref.tobytes()
    for Sk, want in zip(S, ref):  # the oracle's 1 x 1 Schur factors
        assert _inverse_cholesky(Sk).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batches())
def test_batch_equals_replicates_run_one_at_a_time(case):
    model, ys, xinit, Sigma0 = case
    batch = run_batch(case)
    wh_batch = innovation_whiteness(batch, max_lag=MAX_LAG)
    for r in range(len(ys)):
        single = run_filter(model, ys[r], StateEstimate(xinit[r], Sigma0))
        one = batch.replicate(r)
        for name in TRACE_FIELDS:
            assert rel_err(getattr(one, name), getattr(single, name)) <= 1e-12
        assert one.clamp_count == single.clamp_count
        wh = innovation_whiteness(single, max_lag=MAX_LAG)
        assert wh.degenerate == wh_batch.degenerate[r]
        if not wh.degenerate:
            assert rel_err(wh_batch.rho[r], wh.rho) <= 1e-12
            assert wh_batch.pass_fraction[r] == wh.pass_fraction


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batches())
def test_covariances_symmetric_psd_and_posterior_below_prior(case):
    trace = run_batch(case)
    for Sig in (trace.Sigma_prior, trace.Sigma_post):
        scale = np.abs(Sig).max(axis=(-2, -1))
        asym = np.abs(Sig - np.swapaxes(Sig, -1, -2)).max(axis=(-2, -1))
        assert np.all(asym <= 1e-10 * (1 + scale))
        norm = np.linalg.norm(Sig, 2, axis=(-2, -1))
        assert np.all(np.linalg.eigvalsh(Sig)[..., 0]
                      >= -1e-10 * np.maximum(norm, 1e-300))
    prior_norm = np.linalg.norm(trace.Sigma_prior, 2, axis=(-2, -1))
    gap = np.linalg.eigvalsh(trace.Sigma_prior - trace.Sigma_post)[..., 0]
    assert np.all(gap >= -1e-10 * np.maximum(prior_norm, 1.0))


def reference_oracle(model, ys, init):
    """The oracle as a per-step loop: build step k's cost, then take one
    Newton step from the previous minimizer extended by f(xhat_{k-1})."""
    cost = initial_cost(init)
    blocks = [init.xhat.copy()]
    solutions = []
    for k in range(len(ys)):
        cost = build_measurement_cost(cost, ys[k], model.C, model.Sigma_w)
        sol = newton_solve(cost, StackedTrajectory.from_blocks(blocks, cost.n))
        sol.index = k
        solutions.append(sol)
        blocks = list(sol.trajectory.blocks())
        if k + 1 < len(ys):
            cost = build_time_cost(cost, model, sol.xhat)
            blocks.append(model.drift(sol.xhat))
    return solutions


@st.composite
def oracle_cases(draw):
    """(model, measurements (N, m), init) on linear models with a gentle
    g^2 slope or on fixed-beta models, under a zero or a symmetric positive
    definite prior."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    zero_prior = draw(st.booleans())
    fixed_beta = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = random_model(rng, n, m, slope=0.05)
    data = simulate_batch(model, rng.standard_normal((1, n)), ORACLE_N,
                          rng.integers(1 << 31, size=1))
    C0 = rng.standard_normal((n, n))
    Sigma0 = np.zeros((n, n)) if zero_prior else C0 @ C0.T + 0.1 * np.eye(n)
    if fixed_beta:
        model = with_fixed_noise(model, rng.uniform(0.1, 2.0))
    return model, data.measurements[0], StateEstimate(rng.standard_normal(n),
                                                      Sigma0)


def close(a, ref, tol=1e-10):
    a, ref = np.asarray(a), np.asarray(ref)
    return np.all(np.abs(a - ref) <= tol * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(oracle_cases())
def test_oracle_matches_per_step_newton_loop(case):
    model, ys, init = case
    try:
        ref = reference_oracle(model, ys, init)
    except IndefiniteHessianError:
        # Ill-conditioned (g^2 at its floor): the oracle must reject it too.
        with pytest.raises(IndefiniteHessianError):
            oracle_filter(model, ys, init)
        return
    sols = oracle_filter(model, ys, init)
    assert len(sols) == len(ref)
    for sol, want in zip(sols, ref):
        assert sol.index == want.index
        assert close(sol.xhat, want.xhat)
        assert close(sol.Sigma, want.Sigma)
        assert close(sol.grad_norm_before, want.grad_norm_before)
        assert sol.trajectory.z.shape == want.trajectory.z.shape
        assert sol.grad_norm_after <= 1e-9 * (1.0 + sol.grad_norm_before)
        assert sol.second_step_norm <= 1e-10 * (
            1.0 + np.linalg.norm(sol.trajectory.z))


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def file_models(draw):
    """Random discrete or continuous models that a model file can hold (a
    diagonal Sigma_v), with arbitrary finite entries."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))

    def array(*shape, elements=finite):
        size = int(np.prod(shape))
        vals = draw(st.lists(elements, min_size=size, max_size=size))
        return np.array(vals, dtype=float).reshape(shape)

    B = array(m, m)
    model = DiscreteLinearModel(
        A0=array(n), A1=array(n, n), C=array(m, n), gsq=array(n, n + 1),
        Sigma_v=np.diag(array(n, elements=st.floats(0, 1e6))),
        Sigma_w=B @ B.T)
    if draw(st.booleans()):
        gaps = array(draw(st.integers(0, 4)), elements=st.floats(1e-3, 10))
        t0 = draw(finite)
        model = ContinuousDiscreteModel(
            inner=model, sample_times=t0 + np.concatenate(([0.0],
                                                           np.cumsum(gaps))))
    return model


def same_model(a, b):
    if isinstance(a, ContinuousDiscreteModel):
        return (isinstance(b, ContinuousDiscreteModel)
                and np.array_equal(a.sample_times, b.sample_times)
                and same_model(a.inner, b.inner))
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("A0", "A1", "C", "gsq", "Sigma_v", "Sigma_w"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(file_models())
def test_modelio_round_trip(model):
    assert same_model(modelio.loads(modelio.dumps(model)), model)
