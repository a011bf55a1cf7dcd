"""The filter loop against a copy of its earlier per-step form, which held
xhat and Sigma as separate arrays, tested S > 0 at every step and copied
each step into the trace.  The joint [xhat | Sigma] loop must match it bit
for bit at n = 1 (linear, fixed-beta and nonlinear models), within 1e-12
relative up to n = 3 and m = 2, with the same clamp counts, and fail with
the same error class, step and replicate on a non-positive innovation
covariance or a non-finite measurement.

One replicate of a linear model with n = m = 1 runs through the scalar
kernel `_scalar_steps` instead; it must match the numpy loop `_run_loop` bit
for bit, signed zeros included, or fail the same way.

The oracle's forward pass, which keeps its blocks and factors in arrays,
must match a copy of its earlier form, which copied the running cost
through the builders at every step and grew its block elimination one
block at a time, bit for bit in every output, or fail with the same error
and message."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cukf.builtin import example_sec3, logistic
from cukf.discrete import (StateEstimate, _predictor, _run_loop, run_filter,
                           run_filter_batch, symmetrize)
from cukf.errors import (FilterError, IndefiniteHessianError,
                         NonFiniteStateError, SingularInnovationError)
from cukf.models import (EPS_G, ContinuousDiscreteModel, DiscreteLinearModel,
                         NonlinearModel, with_fixed_noise)
from cukf.simulate import (simulate_batch, simulate_cd, simulate_cd_batch,
                           simulate_discrete)
from cukf.wls import (_schur_factor, build_measurement_cost, build_time_cost,
                      initial_cost, oracle_filter)

from reference_impl import rel_err

N = 25
FIELDS = ("xhat_prior", "Sigma_prior", "xhat_post", "Sigma_post",
          "innovation", "S", "gain")


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


def random_linear(rng, n, m, clamp, fixed_beta):
    A1 = rng.standard_normal((n, n))
    A1 *= 0.95 / max(np.abs(np.linalg.eigvals(A1)).max(), 1e-6)
    gsq = np.column_stack([rng.uniform(0.5, 5.0, n),
                           rng.uniform(-0.5, 0.5, (n, n))])
    if clamp:
        gsq[0, 0] = -1.0
    B = rng.standard_normal((m, m))
    model = DiscreteLinearModel(
        A0=rng.standard_normal(n), A1=A1, C=rng.standard_normal((m, n)),
        gsq=gsq, Sigma_v=np.diag(rng.uniform(0.1, 2.0, n)),
        Sigma_w=B @ B.T + 0.1 * np.eye(m))
    return with_fixed_noise(model, rng.uniform(0, 2)) if fixed_beta else model


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


def assert_same_run(model, ms, xinit, Sigma0, bitwise):
    trace = run_filter_batch(model, ms, xinit, Sigma0)
    ref, clamps = earlier_loop(model, ms, xinit, Sigma0)
    for name in FIELDS:
        got = np.ascontiguousarray(getattr(trace, name))
        if bitwise:
            assert got.tobytes() == ref[name].tobytes(), name
        else:
            assert rel_err(got, ref[name]) <= 1e-12, name
    assert np.array_equal(trace.clamp_count, clamps)
    for P in (trace.Sigma_prior, trace.Sigma_post):
        assert np.array_equal(P, P.swapaxes(-1, -2))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["linear", "clamping", "fixed-beta", "nonlinear"]),
       st.sampled_from([1, 50]), st.integers(0, 2 ** 32 - 1))
def test_scalar_loop_matches_the_earlier_loop_bit_for_bit(kind, R, seed):
    rng = np.random.default_rng(seed)
    if kind == "nonlinear":
        model = random_nonlinear(rng)
    else:
        model = random_linear(rng, 1, 1, kind == "clamping",
                              kind == "fixed-beta")
    assert_same_run(model, *data_for(rng, model, R), bitwise=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 8),
       st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_loop_matches_the_earlier_loop(n, m, R, clamp, fixed_beta, seed):
    rng = np.random.default_rng(seed)
    model = random_linear(rng, n, m, clamp, fixed_beta)
    assert_same_run(model, *data_for(rng, model, R), bitwise=False)


def outcome(fn):
    try:
        fn()
    except FilterError as exc:
        return type(exc), exc.step, exc.replicate
    return None


def assert_kernel_matches_numpy_loop(model, ms, xinit, Sigma0):
    """run_filter_batch, which takes the scalar kernel here, against the
    numpy loop: the same trace bytes and clamp counts, or the same error."""
    results = []
    for run in (lambda: run_filter_batch(model, ms, xinit, Sigma0),
                lambda: _run_loop(ms, xinit, Sigma0, _predictor(model),
                                  model.C, model.Sigma_w)):
        try:
            trace = run()
        except FilterError as exc:
            results.append((type(exc), exc.step, exc.replicate))
        else:
            results.append([np.ascontiguousarray(getattr(trace, name)).tobytes()
                            for name in FIELDS] + [trace.clamp_count.tolist()])
    assert results[0] == results[1]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 6),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_failures_match_the_earlier_loop(n, m, R, exact, seed):
    # Priors that are zero or indefinite for some replicates, so that S <= 0
    # with exact (zero-noise) measurements or later on, and NaN or inf
    # measurements for others.  Every third example is one scalar replicate,
    # which the scalar kernel runs.
    if seed % 3 == 0:
        n = m = R = 1
    rng = np.random.default_rng(seed)
    model = random_linear(rng, n, m, rng.random() < 0.5, rng.random() < 0.5)
    if exact:
        model = replace(with_fixed_noise(model, rng.choice([0.0, 1.0])),
                        Sigma_w=np.zeros((m, m)))
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
    got = outcome(lambda: run_filter_batch(model, ms, xinit, Sigma0))
    want = outcome(lambda: earlier_loop(model, ms, xinit, Sigma0))
    assert got == want
    if want is not None:
        assert want[0] in (SingularInnovationError, NonFiniteStateError)
    if R == n == m == 1:
        assert_kernel_matches_numpy_loop(model, ms, xinit, Sigma0)


def test_scalar_kernels_keep_the_signed_zeros_of_the_numpy_loops():
    # Zero states and priors, -0.0 inputs and a denormal prior, whose
    # products round to -0.0 where a one-product matmul gives +0.0.
    for x0, P0, y0, c, A0, Sigma_v, Sigma_w in itertools.product(
            [0.0, -0.0], [0.0, -0.0, 5e-324], [-0.0, 1.0], [1.0, -1.0],
            [-0.0, 1.0], [-0.0, 1.0], [0.0, 4.0]):
        model = DiscreteLinearModel(A0=[A0], A1=[[0.5]], C=[[c]],
                                    gsq=[[1.0, 0.5]], Sigma_v=[[Sigma_v]],
                                    Sigma_w=[[Sigma_w]])
        assert_kernel_matches_numpy_loop(model, [[[y0], [1.0], [-0.0]]],
                                         [[x0]], [[P0]])
        batch = simulate_batch(model, [x0], 3, [0, 1, 2])  # the numpy loop
        for r in range(3):
            one = simulate_discrete(model, [x0], 3, r)
            assert one.states.tobytes() == batch.states[r].tobytes()
        cd = ContinuousDiscreteModel(inner=model, sample_times=[0.0, 0.02])
        batch = simulate_cd_batch(cd, [x0], [0, 1, 2], em_step=0.01)
        for r in range(3):
            one = simulate_cd(cd, [x0], r, em_step=0.01)
            assert one.states.tobytes() == batch.states[r].tobytes()


def test_one_scalar_replicate_takes_the_kernels(monkeypatch):
    # Without this, a silent fall-back to the numpy loop would pass every
    # bit-identity test.
    def numpy_path(*args, **kwargs):
        raise AssertionError("numpy path taken")

    monkeypatch.setattr("cukf.discrete._run_loop", numpy_path)
    monkeypatch.setattr(DiscreteLinearModel, "linearize", numpy_path)
    init = StateEstimate(xhat=[0.5], Sigma=[[1.0]], index=1)
    for model in (example_sec3(), with_fixed_noise(example_sec3(), 0.1)):
        data = simulate_discrete(model, [1.0], 30, 0)
        assert len(run_filter(model, data.measurements, init)) == 30
    with pytest.raises(AssertionError, match="numpy path taken"):
        run_filter_batch(example_sec3(), np.ones((2, 5, 1)), np.zeros((2, 1)),
                         np.eye(1))


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


def solution_rows(sols):
    return [(s.index, s.trajectory.z.tobytes(), s.xhat.tobytes(),
             s.Sigma.tobytes(), s.grad_norm_before, s.grad_norm_after,
             s.second_step_norm) for s in sols]


def oracle_outcome(run):
    """The rows run() returns, with the norms as bit patterns so that -0.0
    differs from 0.0, or the class and message of the error it raises."""
    try:
        rows = run()
    except (FilterError, ValueError) as exc:
        return type(exc), str(exc)
    return [row[:4] + tuple(float(v).hex() for v in row[4:]) for row in rows]


def assert_oracle_matches_earlier(model, ms, init):
    got = oracle_outcome(lambda: solution_rows(oracle_filter(model, ms, init)))
    assert got == oracle_outcome(lambda: earlier_oracle(model, ms, init))
    return got


@pytest.mark.parametrize("sigma0", [0.0, 1.0])
def test_oracle_matches_its_earlier_forward_pass_on_builtins(sigma0):
    for model, x0, xinit in ((example_sec3(), 1.0, 0.3),
                             (logistic(), 50.0, 48.0)):
        ms = simulate_discrete(model, x0, 40, 39).measurements
        init = StateEstimate([xinit], [[sigma0]], 1)
        assert len(assert_oracle_matches_earlier(model, ms, init)) == 40


@settings(max_examples=30, deadline=None, derandomize=True)
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
    assert_oracle_matches_earlier(model, ms,
                                  StateEstimate(rng.standard_normal(n), Sigma0))


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
        got = assert_oracle_matches_earlier(
            model, ms, StateEstimate(rng.standard_normal(2), np.eye(2)))
        failed += got[0] is IndefiniteHessianError
    assert 0 < failed < 12
