"""Property tests over random small models, some of which clamp g^2: a batch
of replicates equals the same replicates run one at a time, the covariances
keep their structure, the batched oracle equals its per-step Newton loop,
the oracle's float bindings (forward pass, sweeps and gradients) equal its
block binding bit for bit, model files round-trip, and a batch of
simulated paths equals its one-path runs and an ordered-sum reference.
The closed-form scalar innovation factor and the oracle's closed-form
1 x 1 Schur factor equal their LAPACK form bit for bit.  Every property of
the suite runs under the profile and with the seed of conftest.py."""

from dataclasses import astuple

import numpy as np
from hypothesis import (example, given, is_hypothesis_test, settings,
                        strategies as st)

from cukf.discrete import (StateEstimate, _inverse_factor, run_filter,
                           run_filter_batch)
from cukf import modelio
from cukf.errors import IndefiniteHessianError
from cukf.models import (ContinuousDiscreteModel, DiscreteLinearModel,
                         NonlinearModel, gain_from_affine, with_fixed_noise)
from cukf.simulate import (TrajectoryData, innovation_whiteness,
                           simulate_batch, simulate_cd, simulate_cd_batch,
                           simulate_discrete)
from cukf.wls import (_inverse_cholesky, build_measurement_cost,
                      build_time_cost, initial_cost, newton_solve,
                      oracle_filter)

from conftest import PROFILE, name_seed
from reference_impl import euler_maruyama_ordered, rel_err
from routes import N, Failure, outcome, random_linear, same, stacked

ORACLE_N = 12
MAX_LAG = 5


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
    model = random_linear(rng, n, m, clamp)
    seeds = rng.integers(1 << 31, size=R)
    data = simulate_batch(model, rng.standard_normal((R, n)), N, seeds)
    xinit = rng.standard_normal((R, n))
    C0 = rng.standard_normal((n, n))
    Sigma0 = C0 @ C0.T
    if fixed_beta:
        model = with_fixed_noise(model, rng.uniform(0.0, 2.0))
    return model, data.measurements, xinit, Sigma0


@st.composite
def path_cases(draw):
    """(model, x0 (R, n), sample times) for R in 1..6: generic coefficients,
    about a third of them +0.0 or -0.0, g^2 rows of which some clamp, some
    zero noise intensities, and uneven gaps of 1 to 4 steps of 0.01."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    R = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def generic(*shape):
        a = rng.standard_normal(shape)
        zero = rng.random(shape) < 1 / 3
        return np.where(zero, np.copysign(0.0, rng.standard_normal(shape)), a)

    gsq = np.column_stack([rng.uniform(-1.0, 5.0, n), generic(n, n)])
    B = rng.standard_normal((m, m))
    model = DiscreteLinearModel(
        A0=generic(n), A1=0.5 * generic(n, n), C=generic(m, n), gsq=gsq,
        Sigma_v=np.diag(np.where(rng.random(n) < 0.2, 0.0,
                                 rng.uniform(0.1, 2.0, n))),
        Sigma_w=B @ B.T + 0.1 * np.eye(m))
    times = 0.01 * np.cumsum(np.append(0, rng.integers(1, 5, 7)))
    return model, generic(R, n), times


@settings(max_examples=60)
@given(path_cases())
# A -0.0 offset counts as +0.0: from x0 = -0.0 with no noise, the state
# after seed 0's first (negative) draw is +0.0, not -0.0.
@example((DiscreteLinearModel(A0=[-0.0], A1=[[0.0]], C=[[1.0]],
                              gsq=[[1.0, 0.0]], Sigma_v=[[0.0]],
                              Sigma_w=[[1.0]]),
          np.array([[-0.0]]), 0.01 * np.arange(4.0)))
def test_batch_paths_equal_one_path_runs_and_the_ordered_sums(case):
    # Byte for byte, signed zeros included: both simulator routes compute
    # f(x), g^2(x) and the measurements as sums taken left to right, so
    # neither depends on the BLAS kernel, and path 0 is the pure-Python
    # Euler-Maruyama reference's.
    model, x0, times = case
    cd = ContinuousDiscreteModel(inner=model, sample_times=times)
    seeds = range(len(x0))
    discrete = simulate_batch(model, x0, len(times), seeds)
    euler = simulate_cd_batch(cd, x0, seeds, em_step=0.01)
    for r in seeds:
        same(outcome(lambda: discrete.replicate(r)),
             outcome(lambda: simulate_discrete(model, x0[r], len(times), r)))
        same(outcome(lambda: euler.replicate(r)),
             outcome(lambda: simulate_cd(cd, x0[r], r, em_step=0.01)))
    draw = np.random.default_rng(0).standard_normal
    same(outcome(lambda: euler.replicate(0)), outcome(lambda: TrajectoryData(
        *euler_maruyama_ordered(model, times, 0.01, x0[0], draw),
        times=cd.sample_times)))


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
                min_size=1, max_size=50))
def test_scalar_inverse_factor_is_bitwise_inv_cholesky(values):
    S = np.array(values).reshape(-1, 1, 1)
    ref = np.linalg.inv(np.linalg.cholesky(S))
    assert _inverse_factor(S).tobytes() == ref.tobytes()
    for Sk, want in zip(S, ref):  # the oracle's 1 x 1 Schur factors
        assert _inverse_cholesky(Sk).tobytes() == want.tobytes()


@settings(max_examples=40)
@given(batches())
def test_batch_equals_replicates_run_one_at_a_time(case):
    model, ys, xinit, Sigma0 = case
    batch = run_filter_batch(*case)
    wh_batch = innovation_whiteness(batch, max_lag=MAX_LAG)
    for r in range(len(ys)):
        single = run_filter(model, ys[r], StateEstimate(xinit[r], Sigma0))
        same(outcome(lambda: batch.replicate(r)), outcome(lambda: single),
             1e-12)
        wh = innovation_whiteness(single, max_lag=MAX_LAG)
        assert wh.degenerate == wh_batch.degenerate[r]
        if not wh.degenerate:
            assert rel_err(wh_batch.rho[r], wh.rho) <= 1e-12
            assert wh_batch.pass_fraction[r] == wh.pass_fraction


@settings(max_examples=40)
@given(batches())
def test_covariances_symmetric_psd_and_posterior_below_prior(case):
    trace = run_filter_batch(*case)
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
        sol = newton_solve(cost, np.array(blocks))
        solutions.append(sol)
        blocks = list(sol.trajectory)
        if k + 1 < len(ys):
            cost = build_time_cost(cost, model, sol.xhat)
            blocks.append(model.linearize(np.concatenate(
                (sol.xhat[:, None], np.eye(cost.n)), axis=1))[0][:, 0])
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
    model = random_linear(rng, n, m, slope=0.05)
    data = simulate_batch(model, rng.standard_normal((1, n)), ORACLE_N,
                          rng.integers(1 << 31, size=1))
    C0 = rng.standard_normal((n, n))
    Sigma0 = np.zeros((n, n)) if zero_prior else C0 @ C0.T + 0.1 * np.eye(n)
    if fixed_beta:
        model = with_fixed_noise(model, rng.uniform(0.1, 2.0))
    return model, data.measurements[0], StateEstimate(rng.standard_normal(n),
                                                      Sigma0)


@settings(max_examples=40)
@given(oracle_cases())
def test_oracle_matches_per_step_newton_loop(case):
    # Within 1e-10 relative; a failure is the same, but for the residual
    # its message quotes.
    want = outcome(lambda: stacked(
        [astuple(sol) for sol in reference_oracle(*case)]), text=False)
    sol = same(outcome(lambda: oracle_filter(*case), text=False), want, 1e-10)
    if isinstance(want, Failure):
        # Ill-conditioned (g^2 at its floor): the oracle must reject it too.
        assert want.cls is IndefiniteHessianError
        return
    assert (sol["grad_norm_after"]
            <= 1e-9 * (1.0 + sol["grad_norm_before"])).all()
    assert (sol["second_step_norm"] <= 1e-10 * (
        1.0 + np.linalg.norm(sol["trajectory"], axis=(1, 2)))).all()


@st.composite
def scalar_oracle_cases(draw):
    """(model, measurements (N, m), init) of a one-state model, N from 1 to
    60: a linear model with m = 1, whose forward pass runs on floats, or
    one that the forward pass leaves to blocks while the Newton checks run
    on floats, linear with m = 2 or logistic-like (f(x) = x + r x (1 -
    x / K), g^2 affine).  About a third of the drift and g^2 coefficients,
    C, xhat_0 and the measurements are +0.0 or -0.0 (a measurement may be
    +-5e-324), some g^2 rows floor, a third of the linear models are
    fixed-beta baselines, the prior is pinned or positive, some Sigma_w are
    so small that the oracle refuses them (C' Sigma_w^{-1} C or
    C' Sigma_w^{-1} y overflows) or that a Newton check overflows, and some
    Sigma_v so small that a Hessian Schur complement overflows."""
    N = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["linear", "two outputs", "logistic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def signed(value):
        if rng.random() < 1 / 3:
            return rng.choice([0.0, -0.0])
        return value

    tiny, tiny_v = rng.random(2) < 0.2
    m = 2 if kind == "two outputs" else 1
    common = dict(  # the fields of both model kinds
        C=[[signed(rng.uniform(1, 10) if tiny else rng.standard_normal())]
           for _ in range(m)],
        Sigma_v=[[10 ** rng.uniform(-296.2, -290.0) if tiny_v
                  else rng.uniform(0.1, 2.0)]],
        Sigma_w=np.diag(10 ** rng.uniform(-307.9, -306.0, m) if tiny
                        else rng.uniform(0.1, 2.0, m)))
    gsq = [[signed(rng.uniform(-1.0, 5.0)), signed(rng.uniform(-2.0, 2.0))]]
    if kind == "logistic":
        r, K = signed(rng.uniform(0.0, 0.5)), rng.uniform(20.0, 200.0)
        model = NonlinearModel(
            f=lambda x: x + r * x * (1.0 - x / K),
            Df=lambda x: np.array([[1.0 + r - 2.0 * r * x[0] / K]]),
            G=gain_from_affine(gsq), n=1, **common)
        x0 = rng.uniform(0.25 * K, K)
    else:
        model = DiscreteLinearModel(
            A0=[signed(rng.standard_normal())],
            A1=[[signed(rng.uniform(-1, 1))]], gsq=gsq, **common)
        if rng.random() < 1 / 3:
            model = with_fixed_noise(model, rng.uniform(0.1, 2.0))
        x0 = rng.standard_normal()
    ys = simulate_discrete(model, x0, N,
                           int(rng.integers(1 << 31))).measurements
    ys[rng.random(N) < 1 / 3] = rng.choice([0.0, -0.0, 5e-324, -5e-324])
    Sigma0 = 0.0 if rng.random() < 0.5 else rng.uniform(0.1, 4.0)
    return model, ys, StateEstimate([signed(rng.standard_normal())],
                                    [[Sigma0]])


@settings(max_examples=150)
@given(scalar_oracle_cases())
# x_1 = li (li b + 0.0) + 0.0 with li = 0.3 and b = -1e-323: li b rounds to
# -5e-324 and li (li b) underflows to -0.0, which the matmul makes +0.0.
@example((DiscreteLinearModel(A0=[0.0], A1=[[0.5]], C=[[1.0]],
                              gsq=[[0.11, 0.0]], Sigma_v=[[1.0]],
                              Sigma_w=[[0.5]]),
          np.array([[0.0], [-5e-324]]), StateEstimate([0.0], [[0.0]])))
# m = 2: the first gradient entry, -2e-323, solves to a product that
# underflows, -0.0 on floats and +0.0 from the one-term matmul; without the
# sweep's closing + 0.0, step 2's first block would be +0.0, not -0.0.
@example((DiscreteLinearModel(A0=[0.0], A1=[[0.5]], C=[[2.0], [0.0]],
                              gsq=[[1.0, 0.0]], Sigma_v=[[1.0]],
                              Sigma_w=0.5 * np.eye(2)),
          np.full((2, 2), 5e-324), StateEstimate([0.0], [[1.0]])))
def test_scalar_oracle_floats_equal_its_blocks_bit_for_bit(case):
    # A linear n = m = 1 model runs the oracle's forward pass on Python
    # floats, and every n = 1 model its Newton-check sweeps and gradients;
    # with the route predicate patched, all of them run on the block arrays.
    same(outcome(lambda: oracle_filter(*case)),
         outcome(lambda: oracle_filter(*case), "oracle floats"))


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


@settings(max_examples=60)
@given(file_models())
def test_modelio_round_trip(model):
    assert same_model(modelio.loads(modelio.dumps(model)), model)


def test_every_property_runs_under_the_profile_with_its_names_seed(request):
    # The rule of conftest.py for each collected property: every setting
    # the profile's but max_examples, and the seed of its name.
    profile = settings.get_profile(PROFILE)
    assert settings.get_current_profile_name() == PROFILE
    tests = [item.obj for item in request.session.items
             if is_hypothesis_test(getattr(item, "obj", None))]
    for test in tests:
        used = test._hypothesis_internal_use_settings
        assert repr(used) == repr(settings(
            profile, max_examples=used.max_examples)), test.__qualname__
        assert test._hypothesis_internal_use_seed == name_seed(test)
