import numpy as np
import pytest

from cukf.builtin import example_sec3, logistic
from cukf.discrete import StateEstimate, run_filter
from cukf.models import DiscreteLinearModel
from cukf.simulate import simulate_discrete
from cukf.wls import (QuadraticCost, _inverse_cholesky,
                      build_measurement_cost, build_time_cost, initial_cost,
                      newton_solve, oracle_filter)

from reference_impl import random_constant_noise_model, rel_err, textbook_kf
from routes import route
from test_failures import failure_tests

globals().update(failure_tests("test_wls"))


def fd_gradient(cost, xs, h=1e-6):
    z = xs.ravel()
    head = 1 if cost.pinned else 0
    nvar = cost.n_variable_blocks * cost.n
    g = np.empty(nvar)
    off = head * cost.n
    for i in range(nvar):
        zp = z.copy(); zp[off + i] += h
        zm = z.copy(); zm[off + i] -= h
        g[i] = (cost.value(zp.reshape(xs.shape))
                - cost.value(zm.reshape(xs.shape))) / (2 * h)
    return g


def fd_hessian(cost, xs, h=1e-4):
    z = xs.ravel()
    head = 1 if cost.pinned else 0
    nvar = cost.n_variable_blocks * cost.n
    off = head * cost.n
    H = np.empty((nvar, nvar))
    for i in range(nvar):
        for j in range(nvar):
            zz = {}
            for si in (1, -1):
                for sj in (1, -1):
                    zp = z.copy()
                    zp[off + i] += si * h
                    zp[off + j] += sj * h
                    zz[si, sj] = cost.value(zp.reshape(xs.shape))
            H[i, j] = (zz[1, 1] - zz[1, -1] - zz[-1, 1] + zz[-1, -1]) / (4 * h * h)
    return H


def identity_gain_model(n=2):
    return DiscreteLinearModel(A0=np.arange(1.0, n + 1.0),
                               A1=0.5 * np.eye(n) + 0.1,
                               C=np.eye(n)[:1],
                               gsq=np.column_stack([np.ones(n), np.zeros((n, n))]),
                               Sigma_v=np.eye(n), Sigma_w=[[1.0]])


def test_identity_gain_time_term_blocks():
    model = identity_gain_model()
    init = StateEstimate(np.zeros(2), np.eye(2))
    cost = initial_cost(init)
    xhat = np.array([1.0, 2.0])
    cost = build_time_cost(cost, model, xhat)
    # With G = I and Sigma_v = I the appended blocks are the standard
    # least-squares blocks of the residual x_k - A0 - A1 x_{k-1}.
    assert np.allclose(cost.D[1], np.eye(2))
    assert np.allclose(cost.L[0], -model.A1)
    assert np.allclose(cost.D[0], np.eye(2) + model.A1.T @ model.A1)
    kind, Q, A, d, j = cost.terms[-1]
    assert kind == "time"
    assert np.allclose(A, model.A1)
    assert np.allclose(d, model.A0)


def test_sec3_gain_inverse_derivative():
    # 1/g(x) = (100 + x)^(-1/2); derivative at x = 0 is -0.5 * 100^(-3/2).
    model = example_sec3()
    cost = initial_cost(StateEstimate([0.0], [[1.0]]))
    cost = build_time_cost(cost, model, [0.0])
    # Q = 1 / (g^2 * sigma_v) = 0.01
    assert np.allclose(cost.D[-1], [[0.01]])


def test_gradient_hessian_match_finite_differences():
    rng = np.random.default_rng(30)
    model = DiscreteLinearModel(A0=[1.0, -1.0], A1=[[0.9, 0.1], [0.0, 0.8]],
                                C=[[1.0, 0.0]],
                                gsq=[[50.0, 1.0, 0.5], [20.0, 0.0, 1.0]],
                                Sigma_v=np.diag([1.0, 2.0]), Sigma_w=[[1.0]])
    cost = initial_cost(StateEstimate([5.0, 5.0], 2 * np.eye(2)))
    cost = build_measurement_cost(cost, [4.5], model.C, model.Sigma_w)
    cost = build_time_cost(cost, model, [5.0, 5.0])
    cost = build_measurement_cost(cost, [6.0], model.C, model.Sigma_w)
    cost = build_time_cost(cost, model, [5.5, 4.5])
    for _ in range(5):
        xs = rng.uniform(3.0, 7.0, (3, 2))
        g = cost.gradient(xs)
        assert np.allclose(g, fd_gradient(cost, xs), rtol=1e-6, atol=1e-6)
    H = cost.dense_hessian()
    assert np.allclose(H, fd_hessian(cost, xs), rtol=1e-4, atol=1e-4)


def test_hessian_is_block_tridiagonal():
    model = example_sec3()
    cost = initial_cost(StateEstimate([0.0], [[1.0]]))
    xhat = 0.0
    for k in range(5):
        cost = build_measurement_cost(cost, [float(k)], model.C, model.Sigma_w)
        cost = build_time_cost(cost, model, [xhat])
        xhat = 1.0 + 0.99 * xhat
    H = fd_hessian(cost, np.zeros((6, 1)))
    n = cost.n
    for i in range(6):
        for j in range(6):
            if abs(i - j) > 1:
                assert np.abs(H[i * n:(i + 1) * n, j * n:(j + 1) * n]).max() < 1e-8


def test_measurement_cost_zero_C_unchanged():
    cost = initial_cost(StateEstimate([0.0], [[1.0]]))
    out = build_measurement_cost(cost, [3.0], [[0.0]], [[1.0]])
    assert np.allclose(out.D[0], cost.D[0])
    assert np.allclose(out.b[0], cost.b[0])


def test_measurement_cost_scalar_increment():
    cost = initial_cost(StateEstimate([0.0], [[1.0]]))
    out = build_measurement_cost(cost, [3.0], [[1.0]], [[1.0]])
    assert np.allclose(out.D[0] - cost.D[0], [[1.0]])


def test_measurement_cost_stacked_sensors():
    # Frozen direct formula: block increase is C' Sigma_w^{-1} C.
    C = np.array([[1.0, 0.0], [1.0, 1.0]])
    Sigma_w = np.array([[2.0, 0.5], [0.5, 1.0]])
    cost = initial_cost(StateEstimate([0.0, 0.0], np.eye(2)))
    out = build_measurement_cost(cost, [1.0, 2.0], C, Sigma_w)
    expect = C.T @ np.linalg.inv(Sigma_w) @ C
    assert np.allclose(out.D[0] - cost.D[0], expect, rtol=1e-12)


def test_newton_prior_only_returns_init():
    init = StateEstimate([2.0, -1.0], np.diag([3.0, 0.5]))
    cost = initial_cost(init)
    sol = newton_solve(cost, np.zeros((1, 2)))
    assert np.allclose(sol.xhat, init.xhat, rtol=1e-12)
    assert np.allclose(sol.Sigma, init.Sigma, rtol=1e-12)


def test_newton_pinned_prior_degenerate():
    init = StateEstimate([4.0], [[0.0]])
    cost = initial_cost(init)
    cost = build_measurement_cost(cost, [10.0], [[1.0]], [[1.0]])
    sol = newton_solve(cost, np.array([[4.0]]))
    assert np.allclose(sol.xhat, [4.0])
    assert np.allclose(sol.Sigma, [[0.0]])
    with pytest.raises(ValueError, match="pinned initial block"):
        newton_solve(cost, np.array([[5.0]]))


def test_newton_one_step_convergence():
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 10, 31)
    sol = oracle_filter(model, data.measurements,
                        StateEstimate([0.0], [[2.0]], 1))
    for k in range(10):
        assert sol.grad_norm_after[k] <= 1e-9 * (1.0 + sol.grad_norm_before[k])
        assert sol.second_step_norm[k] <= 1e-10 * (
            1.0 + np.linalg.norm(sol.trajectory[k, :k + 1]))


def test_k1_equivalence_with_filter():
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 2, 32)
    init = StateEstimate([0.5], [[1.5]], 1)
    trace = run_filter(model, data.measurements, init)
    sol = oracle_filter(model, data.measurements, init)
    for k in range(2):
        assert rel_err(sol.xhat[k], trace.xhat_post[k]) < 1e-9
        assert rel_err(sol.Sigma[k], trace.Sigma_post[k]) < 1e-9


def test_random_constant_gain_marginal_matches_textbook_kf():
    rng = np.random.default_rng(33)
    for _ in range(20):
        p = random_constant_noise_model(rng)
        n = p["n"]
        model = DiscreteLinearModel(
            A0=p["A0"], A1=p["A1"], C=p["C"],
            gsq=np.column_stack([p["g2"], np.zeros((n, n))]),
            Sigma_v=np.diag(p["sv"]), Sigma_w=p["Sigma_w"])
        data = simulate_discrete(model, np.ones(n), 6, rng.integers(1 << 31))
        x0 = rng.standard_normal(n)
        P0 = np.eye(n)
        sol = oracle_filter(model, data.measurements, StateEstimate(x0, P0))
        Q = np.diag(p["g2"] * p["sv"])
        xs, Ps = textbook_kf(p["A0"], p["A1"], p["C"], Q, p["Sigma_w"],
                             data.measurements, x0, P0)
        assert rel_err(sol.xhat[-1], xs[-1]) < 1e-9
        assert rel_err(sol.Sigma[-1], Ps[-1]) < 1e-9


def test_oracle_filter_matches_recursive_filter_sec3():
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 20, 34)
    for sigma0 in (0.0, 1.0):
        init = StateEstimate([0.0], [[sigma0]], 1)
        trace = run_filter(model, data.measurements, init)
        sol = oracle_filter(model, data.measurements, init)
        for k in range(20):
            assert rel_err(sol.xhat[k], trace.xhat_post[k]) < 1e-9
            assert rel_err(sol.Sigma[k], trace.Sigma_post[k]) < 1e-9


def test_oracle_filter_matches_nonlinear_filter_logistic():
    model = logistic()
    data = simulate_discrete(model, 50.0, 20, 35)
    init = StateEstimate([40.0], [[4.0]], 1)
    trace = run_filter(model, data.measurements, init)
    sol = oracle_filter(model, data.measurements, init)
    for k in range(20):
        assert rel_err(sol.xhat[k], trace.xhat_post[k]) < 1e-9
        assert rel_err(sol.Sigma[k], trace.Sigma_post[k]) < 1e-9


def test_oracle_factors_each_schur_block_at_most_twice():
    # On both bindings of the forward pass: example_sec3 takes the float
    # one, whose 1 x 1 factors are Python floats, and the block one when
    # `route` turns the float one off.  The prior is factored as an array.
    import cukf.wls as wls

    inverse_cholesky = wls._inverse_cholesky
    model = example_sec3()
    N = 60
    data = simulate_discrete(model, 1.0, N, 36)
    for off in (None, "oracle floats"):
        calls = []

        def counting_inverse_cholesky(S):
            calls.append(isinstance(S, float))
            return inverse_cholesky(S)

        with route(off), pytest.MonkeyPatch.context() as patch:
            patch.setattr(wls, "_inverse_cholesky", counting_inverse_cholesky)
            oracle_filter(model, data.measurements,
                          StateEstimate([0.0], [[1.0]], 1))
        assert len(calls) <= 2 * N + 1
        assert calls.count(True) == (0 if off else 2 * N - 1)


def test_oracle_filter_makes_no_cost_copies(monkeypatch):
    def copy(self):
        raise AssertionError("QuadraticCost.copy called")

    monkeypatch.setattr(QuadraticCost, "copy", copy)
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 20, 37)
    for sigma0 in (0.0, 1.0):
        init = StateEstimate([0.0], [[sigma0]], 1)
        assert len(oracle_filter(model, data.measurements, init).xhat) == 20


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.nan, np.inf, 1e308])
def test_scalar_factor_fails_like_the_matrix_path(bad):
    # 1e308 is finite, but symmetrizing it overflows to inf.
    def failure(S):
        with np.errstate(over="ignore"):
            try:
                _inverse_cholesky(S)
            except ValueError as exc:  # np.linalg.LinAlgError included
                return type(exc), str(exc)

    got = failure(np.array([[bad]]))
    assert got is not None
    assert got == failure(np.diag([bad, 1.0])) == failure(np.diag([1.0, bad]))
    assert got == failure(float(bad))  # the oracle's float binding


@pytest.mark.parametrize("N", [1, 2, 5])
@pytest.mark.parametrize("sigma0", [0.0, 1.0])
def test_oracle_returns_one_record_of_per_step_arrays(N, sigma0):
    model = example_sec3()
    data = simulate_discrete(model, 1.0, N, 38)
    init = StateEstimate([0.3], [[sigma0]], 1)
    sol = oracle_filter(model, data.measurements, init)
    assert sol.trajectory.shape == (N, N, 1)
    assert sol.xhat.shape == (N, 1)
    assert sol.Sigma.shape == (N, 1, 1)
    norms = (sol.grad_norm_before, sol.grad_norm_after, sol.second_step_norm)
    for norm in norms:
        assert norm.shape == (N,)
    for k in range(N):
        assert np.all(sol.trajectory[k, k + 1:] == 0.0)
        assert np.allclose(sol.trajectory[k, k], sol.xhat[k], rtol=1e-9)
    if sigma0 == 0.0:
        # x_0 is pinned: every row starts at the head, and row 0 is the
        # head alone, with no Newton step taken.
        assert np.all(sol.trajectory[:, 0] == init.xhat)
        assert np.all(sol.xhat[0] == init.xhat)
        assert np.all(sol.Sigma[0] == 0.0)
        assert all(norm[0] == 0.0 for norm in norms)
    else:
        assert np.all(sol.grad_norm_before > 0.0)


