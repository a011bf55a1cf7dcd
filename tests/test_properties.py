"""Property tests over random small models, some of which clamp g^2: a batch
of replicates equals the same replicates run one at a time, the covariances
keep their structure, and model files round-trip."""

import numpy as np
from hypothesis import given, settings, strategies as st

from cukf.discrete import StateEstimate, run_filter, run_filter_batch
from cukf import modelio
from cukf.models import (ContinuousDiscreteModel, DiscreteLinearModel,
                         with_fixed_noise)
from cukf.simulate import innovation_whiteness, simulate_batch

from reference_impl import rel_err

N = 25
MAX_LAG = 5
TRACE_FIELDS = ("xhat_prior", "Sigma_prior", "xhat_post", "Sigma_post",
                "innovation", "S", "gain")


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
    A1 = rng.standard_normal((n, n))
    A1 *= 0.95 / max(np.abs(np.linalg.eigvals(A1)).max(), 1e-6)
    gsq = np.column_stack([rng.uniform(0.5, 5.0, n),
                           rng.uniform(-0.5, 0.5, (n, n))])
    if clamp:
        gsq[0, 0] = -1.0  # g^2_1 < 0 near the origin: the floor is hit
    B = rng.standard_normal((m, m))
    model = DiscreteLinearModel(
        A0=rng.standard_normal(n), A1=A1, C=rng.standard_normal((m, n)),
        gsq=gsq, Sigma_v=np.diag(rng.uniform(0.1, 2.0, n)),
        Sigma_w=B @ B.T + 0.1 * np.eye(m))
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
