"""Route checks of the filter and the oracle (see `routes`).  The filter loop
must match a copy of its earlier per-step form (`earlier_loop`), which held
xhat and Sigma as separate arrays, tested S > 0 at every step and copied
each step into the trace: bit for bit at n = 1 (linear, fixed-beta and
nonlinear models), within 1e-12 relative up to n = 3 and m = 2, with the
same clamp counts, or fail with the same error class, step and replicate.  A
linear model with m <= n <= 3 runs the generated kernel, which must match
the numpy loop `_run_loop`, within 1e-12 relative and at n = m = 1 bit for
bit, signed zeros included, or fail with the same error and message; so must
`monte_carlo_compare`, which fills all n = 1 filters in one batch, and
`cd_run`, whose kernel takes the exact propagation of each interval as its
time update.  The oracle's forward pass must match a copy of its earlier
form (`earlier_oracle`), which copied the running cost through the builders
at every step and grew its block elimination one block at a time, bit for
bit in every output, or fail with the same error and message."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cukf.builtin import example_sec3, logistic
from cukf.continuous import cd_run
from cukf.discrete import (FilterTrace, StateEstimate, run_filter,
                           run_filter_batch, symmetrize)
from cukf.errors import (FilterError, IndefiniteHessianError,
                         NonFiniteStateError, SingularInnovationError)
from cukf.modelio import loads
from cukf.models import (EPS_G, ContinuousDiscreteModel, DiscreteLinearModel,
                         NonlinearModel, with_fixed_noise)
from cukf.simulate import (monte_carlo_compare, simulate_batch, simulate_cd,
                           simulate_cd_batch, simulate_discrete)
from cukf.wls import (_inverse_cholesky, _schur_factor, _sweep,
                      build_measurement_cost, build_time_cost, initial_cost,
                      oracle_filter)

from routes import (CD_ROUTES, FIELDS, N, Failure, check_cd_routes, outcome,
                    random_linear, route, same, stacked, table_tests)

globals().update(table_tests(CD_ROUTES, "test_loop_reference",
                             check_cd_routes))


def matvec(A, X):
    return (A @ X[..., None])[..., 0]


def sym(S):
    return 0.5 * (S + S.swapaxes(-1, -2))


def first(ok):
    return int(np.argmin(ok)) if len(ok) > 1 else None


def earlier_parts(model, X):
    """f(x), Df(x), the gains and the floored mask at each state of X."""
    if isinstance(model, DiscreteLinearModel):
        g2 = model.gsq[:, 0] + matvec(model.gsq[:, 1:], X)
        return (model.A0 + matvec(model.A1, X), model.A1,
                np.sqrt(np.maximum(g2, EPS_G)), g2 < EPS_G)
    def each(h):
        return np.array([h(x) for x in X.reshape(-1, model.n)], dtype=float)

    return (each(model.f).reshape(X.shape),
            each(model.Df).reshape(X.shape + (model.n,)),
            each(model.G).reshape(X.shape), np.zeros(X.shape, bool))


def earlier_blue(X, P, Y, C, Sigma_w, step):
    E = Y - matvec(C, X)
    CP = C @ P
    S = sym(CP @ C.T + Sigma_w)
    if S.shape[-1] == 1:
        ok = S[:, 0, 0] > 0
        if not ok.all():
            raise SingularInnovationError("singular", step=step,
                                          replicate=first(ok))
        Li = 1.0 / np.sqrt(S)
    else:
        try:
            Li = np.linalg.inv(np.linalg.cholesky(S))
        except np.linalg.LinAlgError:
            ok = np.ones(len(S), bool)
            for r, Sr in enumerate(S):
                try:
                    np.linalg.cholesky(Sr)
                except np.linalg.LinAlgError:
                    ok[r] = False
            raise SingularInnovationError("singular", step=step,
                                          replicate=first(ok)) from None
    K = (Li.swapaxes(-1, -2) @ (Li @ CP)).swapaxes(-1, -2)
    return X + matvec(K, E), sym(P - K @ CP), E, S, K


def earlier_check(first_step, xs, Ps):
    ok = (np.isfinite(xs).all(axis=2) & np.isfinite(Ps).all(axis=(2, 3)))
    if not ok.all():
        k = int(np.argmin(ok.all(axis=0)))
        raise NonFiniteStateError("non-finite", step=first_step + k,
                                  replicate=first(ok[:, k]))


def earlier_loop(model, ms, xhat, Sigma):
    """The earlier loop: returns the trace fields (R, N, ...) and the clamp
    counts, or raises."""
    R, N, m = ms.shape
    X = np.asarray(xhat, float)
    P = np.broadcast_to(Sigma, X.shape + X.shape[-1:])
    rows = {name: [] for name in FIELDS}
    floored = np.zeros((N, R, X.shape[-1]), bool)
    written = 0
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for k in range(N):
                rows["xhat_prior"].append(X)
                rows["Sigma_prior"].append(P)
                X, P, E, S, K = earlier_blue(X, P, ms[:, k], model.C,
                                            model.Sigma_w, step=1 + k)
                for name, v in zip(FIELDS[2:], (X, P, E, S, K)):
                    rows[name].append(v)
                written = k + 1
                if written < N:
                    f, J, g, floored[k] = earlier_parts(model, X)
                    Q = g[..., :, None] * model.Sigma_v * g[..., None, :]
                    X, P = f, sym(J @ P @ J.swapaxes(-1, -2) + Q)
    except Exception as exc:
        if written:
            earlier_check(1, np.stack(rows["xhat_post"], 1),
                         np.stack(rows["Sigma_post"], 1))
        if isinstance(exc, FilterError) and exc.step is None:
            raise type(exc)(str(exc), step=1 + written) from exc
        raise
    trace = {name: np.stack(v, 1) for name, v in rows.items()}
    earlier_check(1, trace["xhat_post"], trace["Sigma_post"])
    return trace, floored.any(axis=-1).sum(axis=0)


def earlier_trace(model, ms, xhat, Sigma):
    """earlier_loop's run as the trace run_filter_batch returns."""
    trace, clamps = earlier_loop(model, ms, xhat, Sigma)
    return FilterTrace(np.arange(1, 1 + np.shape(ms)[1]),
                       *map(trace.get, FIELDS), clamp_count=clamps)


def random_nonlinear(rng):
    a, b, c = rng.uniform(0.5, 0.95), rng.uniform(-1, 1), rng.uniform(0.5, 3)
    return NonlinearModel(
        f=lambda x: a * x + b * np.sin(x),
        Df=lambda x: np.atleast_2d(a + b * np.cos(x)),
        G=lambda x: np.sqrt(c + 0.1 * x ** 2), C=[[rng.uniform(0.5, 2)]],
        Sigma_v=[[rng.uniform(0.1, 2)]], Sigma_w=[[rng.uniform(0.1, 2)]], n=1)


def data_for(rng, model, R):
    n = model.C.shape[1]
    ms = simulate_batch(model, rng.standard_normal((R, n)), N,
                        rng.integers(1 << 31, size=R)).measurements
    C0 = rng.standard_normal((n, n))
    return ms, rng.standard_normal((R, n)), C0 @ C0.T


@settings(max_examples=30)
@given(st.sampled_from(["linear", "clamping", "fixed-beta", "nonlinear"]),
       st.sampled_from([1, 50]), st.integers(0, 2 ** 32 - 1))
def test_scalar_loop_matches_the_earlier_loop_bit_for_bit(kind, R, seed):
    rng = np.random.default_rng(seed)
    if kind == "nonlinear":
        model = random_nonlinear(rng)
    else:
        model = random_linear(rng, 1, 1, kind == "clamping",
                              kind == "fixed-beta")
    case = model, *data_for(rng, model, R)
    same(outcome(lambda: run_filter_batch(*case)),
         outcome(lambda: earlier_trace(*case)))


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 8),
       st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_loop_matches_the_earlier_loop(n, m, R, clamp, fixed_beta, seed):
    rng = np.random.default_rng(seed)
    model = random_linear(rng, n, m, clamp, fixed_beta)
    case = model, *data_for(rng, model, R)
    trace = run_filter_batch(*case)
    same(outcome(lambda: trace), outcome(lambda: earlier_trace(*case)), 1e-12)
    for P in (trace.Sigma_prior, trace.Sigma_post):
        assert np.array_equal(P, P.swapaxes(-1, -2))


@settings(max_examples=120)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_failures_match_the_earlier_loop(n, m, R, exact, seed):
    # Priors that are zero or indefinite for some replicates, so that S <= 0
    # with exact (zero-noise) measurements or later on, and NaN or inf
    # measurements for others.  Every third example is one scalar replicate,
    # which the kernel runs on Python floats.  A kernel run that fails is run
    # again by the numpy loop, so the failures are the numpy loop's.  At
    # n = 3, exact measurements come with process noise of full rank
    # (beta = 1): with none, S is singular in exact arithmetic and rounding
    # decides which step fails, and there the numpy loop `_run_loop` and the
    # earlier loop disagree (beta = 0 at n = 3, m = 1, R = 4, seed 1: steps 6
    # and 4).
    if seed % 3 == 0:
        n = m = R = 1
    rng = np.random.default_rng(seed)
    model = random_linear(rng, n, m, rng.random() < 0.5, rng.random() < 0.5)
    if exact:
        beta = 1.0 if n == 3 else rng.choice([0.0, 1.0])
        model = replace(with_fixed_noise(model, beta), Sigma_w=np.zeros((m, m)))
    ms, xinit, Sigma0 = data_for(rng, model, R)
    Sigma0 = np.broadcast_to(Sigma0, (R, n, n)).copy()
    for r in range(R):
        pick = rng.integers(5)
        if pick == 1:
            Sigma0[r] = 0.0
        elif pick == 2:
            Sigma0[r] = -4.0 * np.eye(n)
        elif pick == 3:
            ms[r, rng.integers(N), rng.integers(m)] = rng.choice([np.nan,
                                                                  np.inf])
    case = model, ms, xinit, Sigma0
    got, want = (  # their failures; the earlier loop words errors otherwise
        o if isinstance(o, Failure) else None for o in (
            outcome(lambda: run_filter_batch(*case), text=False),
            outcome(lambda: earlier_trace(*case), text=False)))
    assert got == want
    assert want is None or want.cls in (SingularInnovationError,
                                        NonFiniteStateError)
    if n == m == 1:  # the kernel ran, bit for bit
        same(outcome(lambda: run_filter_batch(*case)),
             outcome(lambda: run_filter_batch(*case), "kernel"))


def batch_outcome(outcomes):
    """The outcome of one batch from the outcomes of its replicates run
    alone: their fields stacked, or the first failed step's Failure, at it
    the first replicate whose S is not positive definite, else the first
    that failed (see `discrete._check_finite`), named in a batch of more
    than one."""
    failed = [(o.step, r, o) for r, o in enumerate(outcomes)
              if isinstance(o, Failure)]
    if not failed:
        return {**outcomes[0], **{
            name: np.concatenate([o[name] for o in outcomes])
            for name in FIELDS + ("clamp_count",)}}
    step = min(failed)[0]
    _, r, o = min((o.cls is not SingularInnovationError, r, o)
                  for k, r, o in failed if k == step)  # r breaks every tie
    return o if len(outcomes) == 1 else o._replace(text=o.text.replace(
        " (at step", f" (replicate {r}, at step"), replicate=r)


@settings(max_examples=150)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 8),
       st.booleans(), st.booleans(), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_float_kernel_matches_the_numpy_loop(
        n, m, R, clamp, fixed_beta, signed_zeros, hazards, seed):
    # The generated kernel on Python floats (each replicate alone) against
    # the batch route (arrays at n = 1, else the numpy loop) and the numpy
    # loop itself.  The model may clamp g^2, be a fixed-beta baseline or
    # hold -0.0 coefficients; with `hazards`, a replicate may start from a
    # zero or indefinite prior, or meet a NaN or inf measurement; with
    # `signed_zeros`, -0.0 states and measurements.  Exact measurements are
    # left to the test above: at m = n they make the posterior Sigma 0 in
    # exact arithmetic, so its entries are the rounding residue of a prior
    # of any size, which no relative bound holds.
    rng = np.random.default_rng(seed)
    model = random_linear(rng, n, m, clamp, fixed_beta)
    if signed_zeros:
        model = replace(model, A0=np.where(rng.random(n) < 0.5, -0.0,
                                           model.A0),
                        Sigma_v=np.diag(np.where(rng.random(n) < 0.3, -0.0,
                                                 np.diag(model.Sigma_v))))
    ms, xinit, Sigma0 = data_for(rng, model, R)
    Sigma0 = np.broadcast_to(Sigma0, (R, n, n)).copy()
    for r in range(R):
        pick = rng.integers(5) if hazards else 0
        if pick == 1:
            Sigma0[r] = 0.0
        elif pick == 2:
            Sigma0[r] = -4.0 * np.eye(n)
        elif pick == 3:
            ms[r, rng.integers(N), rng.integers(m)] = rng.choice(
                [np.nan, np.inf, -np.inf])
        if signed_zeros and rng.random() < 0.5:
            xinit[r] = -0.0
            ms[r, :3] = -0.0
    alone = batch_outcome([outcome(lambda: run_filter_batch(
        model, ms[r:r + 1], xinit[r:r + 1], Sigma0[r:r + 1]))
        for r in range(R)])
    tol = None if n == 1 else 1e-12
    for off in (None, "kernel"):
        same(alone, outcome(lambda: run_filter_batch(model, ms, xinit, Sigma0),
                            off), tol)


def test_the_numpy_loop_keeps_a_finite_diagonal_near_the_largest_float():
    # Sigma_w = diag(1, 1e308): each S is finite, and the numpy loop (a
    # batch of n = 2) averages its off-diagonal pairs without doubling the
    # diagonal, as the kernel (each replicate alone) does.
    model = DiscreteLinearModel(
        A0=[1.0, 0.5], A1=[[0.9, 0.05], [0.0, 0.8]], C=np.eye(2),
        gsq=[[10.0, 0.0, 0.0], [4.0, 0.0, 0.0]], Sigma_v=np.eye(2),
        Sigma_w=np.diag([1.0, 1e308]))
    ms, xhat, Sigma = np.ones((2, 5, 2)), np.zeros((2, 2)), np.eye(2)
    with route() as taken:
        batch = outcome(lambda: run_filter_batch(model, ms, xhat, Sigma))
    assert taken == [("numpy loop", 2)]
    same(batch_outcome([outcome(lambda: run_filter_batch(
        model, ms[r:r + 1], xhat[r:r + 1], Sigma)) for r in range(2)]), batch,
         1e-12)


def test_scalar_kernels_keep_the_signed_zeros_of_the_numpy_loops():
    # Zero states and priors, -0.0 inputs and a denormal prior, whose
    # products round to -0.0 where a one-product matmul gives +0.0.
    for x0, P0, y0, c, A0, Sigma_v, Sigma_w in itertools.product(
            [0.0, -0.0], [0.0, -0.0, 5e-324], [-0.0, 1.0], [1.0, -1.0],
            [-0.0, 1.0], [-0.0, 1.0], [0.0, 4.0]):
        model = DiscreteLinearModel(A0=[A0], A1=[[0.5]], C=[[c]],
                                    gsq=[[1.0, 0.5]], Sigma_v=[[Sigma_v]],
                                    Sigma_w=[[Sigma_w]])
        case = model, [[[y0], [1.0], [-0.0]]], [[x0]], [[P0]]
        same(outcome(lambda: run_filter_batch(*case)),
             outcome(lambda: run_filter_batch(*case), "kernel"))
        batch = simulate_batch(model, [x0], 3, [0, 1, 2])  # the numpy loop
        cd = ContinuousDiscreteModel(inner=model, sample_times=[0.0, 0.02])
        cd_batch = simulate_cd_batch(cd, [x0], [0, 1, 2], em_step=0.01)
        for r in range(3):
            same(outcome(lambda: simulate_discrete(model, [x0], 3, r)),
                 outcome(lambda: batch.replicate(r)))
            same(outcome(lambda: simulate_cd(cd, [x0], r, em_step=0.01)),
                 outcome(lambda: cd_batch.replicate(r)))


@settings(max_examples=200)
@given(st.integers(1, 40), st.booleans(), st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_array_route_matches_the_numpy_loop_bit_for_bit(R, clamp, exact,
                                                        signed_zeros, hazards,
                                                        seed):
    # run_filter_batch takes the generated kernel for R replicates of a
    # linear n = m = 1 model: on Python floats for R = 1, on arrays for
    # more.  Per replicate: a prior that is zero, -0.0 or denormal, so that
    # S <= 0 with exact (zero-noise) measurements or a gain underflows to
    # -0.0, or a -0.0 state and measurements; with `hazards`, also a
    # negative prior or a NaN, inf or signed-zero measurement.  The model
    # may clamp g^2, hold -0.0 coefficients or measure exactly.
    rng = np.random.default_rng(seed)
    gsq = [rng.uniform(-5.0, 5.0) if clamp else rng.uniform(0.5, 5.0),
           rng.uniform(-2.0, 2.0)]
    if clamp and rng.random() < 0.3:
        gsq = [EPS_G, 0.0]  # g^2 on the floor, which is not floored
    zero = -0.0 if signed_zeros else 0.0
    model = DiscreteLinearModel(
        A0=[zero if rng.random() < 0.5 else rng.standard_normal()],
        A1=[[rng.uniform(-1.0, 1.0)]], C=[[rng.choice([-1.0, 1.0])
                                           * rng.uniform(0.0, 2.0)]],
        gsq=[gsq],
        Sigma_v=[[zero if rng.random() < 0.3 else rng.uniform(0.1, 2.0)]],
        Sigma_w=[[0.0 if exact else rng.choice([rng.uniform(0.1, 2.0),
                                                rng.uniform(4.0, 100.0)])]])
    if rng.random() < 0.3:
        model = with_fixed_noise(model, rng.choice([0.0, rng.uniform(0, 2)]))
    ms, xinit, Sigma0 = data_for(rng, model, R)
    Sigma0 = np.broadcast_to(Sigma0, (R, 1, 1)).copy()
    for r in range(R):
        pick = rng.integers(8) if hazards else rng.choice([0, 1, 4])
        if pick == 1:
            Sigma0[r] = rng.choice([0.0, -0.0, 5e-324])
        elif pick == 2:
            Sigma0[r] = -rng.uniform(0.1, 4.0)
        elif pick == 3:
            ms[r, rng.integers(N)] = rng.choice([np.nan, np.inf, -np.inf,
                                                 -0.0, 0.0])
        elif pick == 4:
            xinit[r] = zero
            ms[r, :3] = zero
    case = model, ms, xinit, Sigma0
    same(outcome(lambda: run_filter_batch(*case)),
         outcome(lambda: run_filter_batch(*case), "kernel"))


def random_filter(rng, truth):
    """A filter for data from `truth`: its fixed-beta baseline, a model of
    its own, or one that fails: diverging, measuring exactly with no
    process noise (S reaches 0), or with estimates so large that the MSE
    or the square in its standard error overflows."""
    pick = rng.integers(8)
    if pick == 0:
        return with_fixed_noise(truth, rng.uniform(0.0, 2.0))
    model = random_linear(rng, 1, 1, rng.random() < 0.5, rng.random() < 0.3)
    if pick == 2:
        return replace(model, A1=np.array([[rng.choice([1e10, 1e100])]]))
    if pick == 3:
        return replace(with_fixed_noise(model, 0.0), Sigma_w=np.zeros((1, 1)))
    if pick == 4:
        return replace(model, A0=np.array([rng.choice([1e150, 1e153, 1e160])]))
    return model


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(21, 40),
       st.sampled_from([0.0, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_fused_compare_matches_per_filter_numpy_loops(F, R, N_steps,
                                                      init_sigma, seed):
    # One batch of F R columns must give the report, or the error (class,
    # filter, step and replicate), of running each filter on its own, also
    # when one filter fails, or another, or both.
    rng = np.random.default_rng(seed)
    truth = random_linear(rng, 1, 1, False, False)
    filters = {f"f{i}": random_filter(rng, truth) for i in range(F)}
    args = (truth, filters, R, N_steps, int(rng.integers(1 << 31)))
    kwargs = dict(x0=rng.standard_normal(), init_sigma=init_sigma)
    same(outcome(lambda: monte_carlo_compare(*args, **kwargs)),
         outcome(lambda: monte_carlo_compare(*args, **kwargs), "kernel"))


def test_one_scalar_replicate_takes_the_kernels():
    # Without this, a silent fall-back to the numpy loop would pass every
    # bit-identity test.  Every linear n = m = 1 filter takes the one
    # kernel, with one column per replicate: one (Python floats) for
    # run_filter, R for a batch, and 2 R when compare fills both filters in
    # one batch; and one simulated path takes the simulator's float loop.
    init = StateEstimate(xhat=[0.5], Sigma=[[1.0]], index=1)
    models = {"cu": example_sec3(), "fixed": with_fixed_noise(example_sec3(),
                                                              0.1)}
    for model in models.values():
        with route() as taken:
            data = simulate_discrete(model, [1.0], 30, 0)
            assert len(run_filter(model, data.measurements, init)) == 30
            for R in (2, 5):
                trace = run_filter_batch(model, np.ones((R, 5, 1)),
                                         np.zeros((R, 1)), np.eye(1))
                assert trace.xhat_post.shape == (R, 5, 1)
        assert taken == [("floats", 1), ("kernel", 1), ("kernel", 2),
                         ("kernel", 5)]
    for R in (1, 3):  # the simulator's numpy loop runs R > 1 paths
        with route() as taken:
            monte_carlo_compare(example_sec3(), models, R, 30, 0)
        assert taken == [("floats", 1)] * (R == 1) + [("kernel", 2 * R)]


@settings(max_examples=250)
@given(st.booleans(), st.booleans(), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_scalar_cd_route_matches_the_numpy_loop_bit_for_bit(
        clamp, exact, signed_zeros, hazards, seed):
    # cd_run takes the Python-float rule for n = 1.  Models whose g^2
    # crosses the floor near where the estimate goes (so intervals clamp
    # and are cut), gaps that differ by ulps, -0.0 coefficients, exact
    # measurements (Sigma_w = 0); with `hazards`, also a zero, -0.0,
    # denormal or negative prior, a NaN, inf or signed-zero measurement,
    # a step too large for the smallest gap, or a Sigma_v so large that
    # Sigma or the generator overflows.
    rng = np.random.default_rng(seed)
    zero = -0.0 if signed_zeros else 0.0
    K = int(rng.integers(1, 12))
    if rng.random() < 0.5:  # gaps that differ by ulps
        times = np.linspace(0.0, rng.uniform(0.05, 1.0) * K, K)
    else:
        times = np.cumsum(np.r_[rng.uniform(-1.0, 1.0),
                                rng.uniform(0.01, 0.5, K - 1)])
    A1 = rng.choice([zero, rng.uniform(-8.0, 0.5)])
    floor_at = rng.uniform(-5.0, 5.0)  # where g^2 = EPS_G, if `clamp`
    c1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
    c0 = EPS_G - c1 * floor_at if clamp else rng.uniform(0.5, 5.0)
    if rng.random() < 0.2:
        c1 = zero
    C = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
    dyn = DiscreteLinearModel(
        A0=[rng.choice([zero, -A1 * (floor_at + rng.choice([-1.0, 1.0])
                                     * rng.uniform(0.5, 4.0))])],
        A1=[[A1]], C=[[C]], gsq=[[c0, c1]],
        Sigma_v=[[zero if rng.random() < 0.2 else rng.uniform(0.1, 2.0)]],
        Sigma_w=[[0.0 if exact else rng.uniform(0.1, 4.0)]])
    ms = C * (floor_at + rng.normal(0.0, 2.0, (K, 1)))
    x0, P0 = floor_at + rng.normal(0.0, 2.0), rng.uniform(0.0, 4.0)
    step = None
    if hazards:
        pick = rng.integers(4)
        if pick == 0:
            P0 = rng.choice([0.0, -0.0, 5e-324, -rng.uniform(0.1, 4.0)])
        elif pick == 1:
            ms[rng.integers(K)] = rng.choice([np.nan, np.inf, -np.inf, -0.0,
                                              0.0])
        elif pick == 2 and K > 1:
            step = np.diff(times).min() * rng.choice([0.3, 1.0, 1.5])
        elif pick == 3:  # Sigma or the generator overflows
            dyn = replace(dyn, Sigma_v=np.array([[rng.choice([1e306,
                                                              1e308])]]))
    if signed_zeros and rng.random() < 0.5:
        x0 = zero
        ms[:2] = zero
    model = ContinuousDiscreteModel(inner=dyn, sample_times=times)
    init = StateEstimate([x0], [[P0]], times[0])
    same(outcome(lambda: cd_run(model, ms, init, step)),
         outcome(lambda: cd_run(model, ms, init, step), "kernel"))


def test_two_state_filters_take_the_kernel():
    # The run_filter of an n = 2 linear model file runs the kernel on one
    # column of Python floats (a cd_run's route is a row of CD_ROUTES).  A
    # batch of n = 2, such as compare's, keeps the numpy loop, and so do a
    # model with n = 4 and one with more outputs than states.
    two = loads("kind = discrete\nn = 2\nm = 1\nA0 = 1.0 0.5\n"
                "A1 = 0.9 0.05 0.0 0.8\nC = 1.0 1.0\n"
                "gsq = 10.0 0.5 0.0 4.0 0.0 0.2\nSigma_v = 1.0 2.0\n"
                "Sigma_w = 1.0\n")
    with route() as taken:
        run_filter(two, np.ones((30, 1)),
                   StateEstimate(np.zeros(2), np.eye(2)))
        monte_carlo_compare(two, {"cu": two,
                                  "fixed": with_fixed_noise(two, 0.5)}, 7, 30,
                            0)
        run_filter_batch(replace(two, A0=np.ones(4), A1=0.5 * np.eye(4),
                                 C=np.ones((1, 4)), gsq=np.ones((4, 5)),
                                 Sigma_v=np.eye(4)),
                         np.ones((1, 5, 1)), np.zeros((1, 4)), np.eye(4))
        run_filter(replace(two, C=np.eye(3, 2), Sigma_w=np.eye(3)),
                   np.ones((5, 3)), StateEstimate(np.zeros(2), np.eye(2)))
    assert taken == [("kernel", 1)] + [("numpy loop", 7)] * 2 + [
        ("numpy loop", 1)] * 2


def factor_solve(Li, B):
    return Li.T @ (Li @ B)


def earlier_sweep(L, factors, last, R, ends):
    """Solve, for each column c of R (blocks, n, K), the leading block
    system that ends at block ends[c], factored by `last` there."""
    nb, _, K = R.shape
    first = np.searchsorted(ends, np.arange(nb + 1))
    Y = np.zeros_like(R)
    Y[0] = R[0]
    for i in range(1, nb):
        c = first[i]
        Y[i, :, c:] = R[i, :, c:] - L[i - 1] @ factor_solve(
            factors[i - 1], Y[i - 1, :, c:])
    X = np.zeros_like(R)
    for i in range(nb - 1, -1, -1):
        a, c = first[i], first[i + 1]
        if a < c:
            X[i, :, a:c] = factor_solve(last[i], Y[i, :, a:c])
        if c < K:
            X[i, :, c:] = factor_solve(
                factors[i], Y[i, :, c:] - L[i].T @ X[i + 1, :, c:])
    return X



@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(1, 12),
       st.sampled_from(["ascending", "every block", "last block"]),
       st.integers(0, 2 ** 32 - 1))
def test_sweep_matches_its_earlier_form(n, nb, ends_kind, seed):
    # "every block" is the Newton checks' call, "last block" the
    # BlockTridiagFactor solve's.  Where columns share an end block, the
    # earlier form solved them in one matrix-matrix product, which a BLAS
    # kernel with FMA may round otherwise than a product per column, but
    # not at n = 1: a one-term product has no FMA.  A quarter of R is +0.0
    # or -0.0, whose signs the float binding's products keep until its
    # closing + 0.0.
    rng = np.random.default_rng(seed)

    def factors():
        A = rng.standard_normal((nb, n, n))
        return np.array([_inverse_cholesky(S) for S in
                         A @ A.swapaxes(1, 2) + 0.1 * np.eye(n)])

    F, T = factors(), factors()
    L = rng.standard_normal((nb - 1, n, n))
    ends = {"ascending": np.sort(rng.integers(0, nb,
                                              rng.integers(1, 2 * nb))),
            "every block": np.arange(nb),
            "last block": np.array([nb - 1])}[ends_kind]
    R = rng.standard_normal((nb, n, len(ends)))
    zeros = rng.random(R.shape) < 1 / 4
    R[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    got, want = _sweep(L, F, T, R, ends), earlier_sweep(L, F, T, R, ends)
    if n == 1 or np.unique(ends).size == ends.size:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def earlier_newton_checks(cost, factors, terminal, Dt, bt, starts):
    nb, n = cost.n_variable_blocks, cost.n
    D, b, Dt, bt = (np.array(a) for a in (cost.D, cost.b, Dt, bt))
    L = np.array(cost.L).reshape(-1, n, n)
    j = np.arange(nb)
    upper = np.triu(np.ones((nb, nb)))[:, None, :]

    def gradients(Z):
        G = D @ Z + b[..., None]
        G[j, :, j] = (Dt @ Z[j, :, j, None])[..., 0] + bt
        G[1:] += L @ Z[:-1]
        G[:-1] += L.swapaxes(-1, -2) @ Z[1:]
        return G * upper

    def solve(R):
        return earlier_sweep(cost.L, factors, terminal, R, j)

    def norms(Z):
        return np.sqrt(np.einsum("ijk,ijk->k", Z, Z))

    z_min = -solve(gradients(np.zeros((nb, n, nb))))
    z0 = np.zeros_like(z_min)
    z0[:, :, 1:] = z_min[:, :, :-1]
    z0[j, :, j] = starts
    g0 = gradients(z0)
    z_star = z0 - solve(g0)
    g1 = gradients(z_star)
    step2 = solve(g1)
    rel = norms(step2) / (1.0 + norms(z_star))
    bad = np.flatnonzero(rel > 1e-10)
    if bad.size:
        raise IndefiniteHessianError(
            "Newton step failed to converge in one iteration "
            f"(residual {rel[bad[0]]:.2e})")
    return z_star, norms(g0), norms(g1), norms(step2)


def earlier_oracle(model, ms, init):
    """The earlier forward pass: per step, the builders copy the running
    cost and the elimination grows by one block, whose Schur complement is
    factored with the measurement term and again with the time term;
    returns per step (index, trajectory, xhat, Sigma, three norms) as bytes
    and floats."""
    ms = np.atleast_2d(np.asarray(ms, dtype=float))
    N = ms.shape[0]
    cost = initial_cost(init)
    n = cost.n
    factors, terminal, Dt, bt, xhats, Sigmas = [], [], [], [], [], []
    starts = [init.xhat]
    y = coupling = None  # coupling: L S^-1 L' from the frozen previous block

    def schur(D, i):
        return _schur_factor(D if coupling is None else D - coupling, i)

    for k in range(N):
        cost = build_measurement_cost(cost, ms[k], model.C, model.Sigma_w)
        i = cost.n_variable_blocks - 1
        if i < 0:
            xhats.append(cost.head.copy())
            Sigmas.append(np.zeros((n, n)))
        else:
            coupled = 0.0
            if i:
                Lc = cost.L[i - 1]
                coupled = Lc @ factor_solve(factors[i - 1], y)
                coupling = Lc @ factor_solve(factors[i - 1], Lc.T)
            factors.append(schur(cost.D[i], i))
            terminal.append(factors[-1])
            xhats.append(factor_solve(factors[i], -cost.b[i] - coupled))
            Sigmas.append(symmetrize(factors[-1].T @ factors[-1]))
            Dt.append(cost.D[i])
            bt.append(cost.b[i])
        if k + 1 == N:
            break
        cost = build_time_cost(cost, model, xhats[k])
        starts.append(model.linearize(np.concatenate(
            (xhats[k][:, None], np.eye(n)), axis=1))[0][:, 0])
        if i >= 0:
            factors[i] = schur(cost.D[i], i)
            y = -cost.b[i] - coupled
    pinned = int(cost.pinned)
    out = [(0, cost.head.tobytes(), xhats[0].tobytes(), Sigmas[0].tobytes(),
            0.0, 0.0, 0.0)] if pinned else []
    if cost.n_variable_blocks == 0:
        return out
    z_star, before, after, step2 = earlier_newton_checks(
        cost, factors, terminal, Dt, bt, starts[pinned:])
    head = [cost.head] if pinned else []
    for j in range(cost.n_variable_blocks):
        z = np.concatenate(head + list(z_star[:j + 1, :, j]))
        out.append((j + pinned, z.tobytes(), xhats[j + pinned].tobytes(),
                    Sigmas[j + pinned].tobytes(), float(before[j]),
                    float(after[j]), float(step2[j])))
    return out


def earlier_solution(model, ms, init):
    """earlier_oracle's rows as the solution oracle_filter returns."""
    n = init.xhat.size
    return stacked([(np.frombuffer(z).reshape(k + 1, n), np.frombuffer(x),
                     np.frombuffer(S).reshape(n, n), *norms)
                    for k, z, x, S, *norms in earlier_oracle(model, ms, init)])


def padded(sol):
    """The solution `sol` with each trajectory row +0.0 past its step's
    block, where the oracle leaves a zero of either sign."""
    sol.trajectory[np.triu_indices(len(sol.xhat), 1)] = 0.0
    return sol


@pytest.mark.parametrize("sigma0", [0.0, 1.0])
def test_oracle_matches_its_earlier_forward_pass_on_builtins(sigma0):
    for model, x0, xinit in ((example_sec3(), 1.0, 0.3),
                             (logistic(), 50.0, 48.0)):
        ms = simulate_discrete(model, x0, 40, 39).measurements
        init = StateEstimate([xinit], [[sigma0]], 1)
        got = same(outcome(lambda: padded(oracle_filter(model, ms, init))),
                   outcome(lambda: earlier_solution(model, ms, init)))
        assert len(got["xhat"]) == 40


@settings(max_examples=30)
@given(st.integers(1, 3), st.integers(1, 2), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_oracle_matches_its_earlier_forward_pass(n, m, zero_prior,
                                                 fixed_beta, seed):
    rng = np.random.default_rng(seed)
    model = random_linear(rng, n, m, False, False)
    if fixed_beta:
        model = with_fixed_noise(model, rng.uniform(0.1, 2.0))
    ms = simulate_batch(model, rng.standard_normal((1, n)), 12,
                        rng.integers(1 << 31, size=1)).measurements[0]
    C0 = rng.standard_normal((n, n))
    Sigma0 = np.zeros((n, n)) if zero_prior else C0 @ C0.T + 0.1 * np.eye(n)
    init = StateEstimate(rng.standard_normal(n), Sigma0)
    same(outcome(lambda: padded(oracle_filter(model, ms, init))),
         outcome(lambda: earlier_solution(model, ms, init)))


def test_oracle_fails_like_its_earlier_forward_pass_when_g2_is_floored():
    # n = 2 models whose g^2 = c0 + c1 x is floored where a state falls
    # below -c0/c1: the floored term weighs 1e12 and the one-step Newton
    # check rejects about half of the runs.
    failed = 0
    for seed in range(0, 60, 5):
        rng = np.random.default_rng(seed)
        model = DiscreteLinearModel(
            A0=rng.standard_normal(2),
            A1=np.diag(rng.uniform(0.5, 0.95, 2))
            + 0.05 * rng.standard_normal((2, 2)),
            C=np.eye(2), gsq=np.column_stack([rng.uniform(1, 20, 2),
                                              rng.uniform(0, 1, (2, 2))]),
            Sigma_v=np.eye(2), Sigma_w=np.eye(2))
        ms = simulate_discrete(model, np.ones(2), 60,
                               int(rng.integers(1 << 31))).measurements
        init = StateEstimate(rng.standard_normal(2), np.eye(2))
        got = same(outcome(lambda: padded(oracle_filter(model, ms, init))),
                   outcome(lambda: earlier_solution(model, ms, init)))
        failed += getattr(got, "cls", None) is IndefiniteHessianError
    assert 0 < failed < 12
