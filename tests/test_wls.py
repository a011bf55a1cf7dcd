import numpy as np
import pytest

from cukf.builtin import example_sec3, logistic
from cukf.discrete import StateEstimate, run_filter
from cukf.errors import IndefiniteHessianError, ModelError
from cukf.models import DiscreteLinearModel
from cukf.simulate import simulate_discrete
from cukf.wls import (BlockTridiagFactor, QuadraticCost, StackedTrajectory,
                      _inverse_cholesky, build_measurement_cost,
                      build_time_cost, initial_cost, newton_solve,
                      oracle_filter)

from reference_impl import random_constant_noise_model, rel_err, textbook_kf


def fd_gradient(cost, traj, h=1e-6):
    z = traj.z.copy()
    head = 1 if cost.pinned else 0
    nvar = cost.n_variable_blocks * cost.n
    g = np.empty(nvar)
    off = head * cost.n
    for i in range(nvar):
        zp = z.copy(); zp[off + i] += h
        zm = z.copy(); zm[off + i] -= h
        g[i] = (cost.value(StackedTrajectory(zp, cost.n))
                - cost.value(StackedTrajectory(zm, cost.n))) / (2 * h)
    return g


def fd_hessian(cost, traj, h=1e-4):
    z = traj.z.copy()
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
                    zz[si, sj] = cost.value(StackedTrajectory(zp, cost.n))
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
        z = rng.uniform(3.0, 7.0, 3 * 2)
        traj = StackedTrajectory(z, 2)
        g = cost.gradient(traj)
        assert np.allclose(g, fd_gradient(cost, traj), rtol=1e-6, atol=1e-6)
    H = cost.dense_hessian()
    assert np.allclose(H, fd_hessian(cost, traj), rtol=1e-4, atol=1e-4)


def test_hessian_is_block_tridiagonal():
    model = example_sec3()
    cost = initial_cost(StateEstimate([0.0], [[1.0]]))
    xhat = 0.0
    for k in range(5):
        cost = build_measurement_cost(cost, [float(k)], model.C, model.Sigma_w)
        cost = build_time_cost(cost, model, [xhat])
        xhat = 1.0 + 0.99 * xhat
    traj = StackedTrajectory(np.zeros(6), 1)
    H = fd_hessian(cost, traj)
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
    z0 = StackedTrajectory(np.array([0.0, 0.0]), 2)
    sol = newton_solve(cost, z0)
    assert np.allclose(sol.xhat, init.xhat, rtol=1e-12)
    assert np.allclose(sol.Sigma, init.Sigma, rtol=1e-12)


def test_newton_pinned_prior_degenerate():
    init = StateEstimate([4.0], [[0.0]])
    cost = initial_cost(init)
    cost = build_measurement_cost(cost, [10.0], [[1.0]], [[1.0]])
    sol = newton_solve(cost, StackedTrajectory(np.array([4.0]), 1))
    assert np.allclose(sol.xhat, [4.0])
    assert np.allclose(sol.Sigma, [[0.0]])


def test_newton_one_step_convergence():
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 10, 31)
    sols = oracle_filter(model, data.measurements,
                         StateEstimate([0.0], [[2.0]], 1))
    for sol in sols:
        assert sol.grad_norm_after <= 1e-9 * (1.0 + sol.grad_norm_before)
        assert sol.second_step_norm <= 1e-10 * (1.0 + np.linalg.norm(sol.trajectory.z))


def test_k1_equivalence_with_filter():
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 2, 32)
    init = StateEstimate([0.5], [[1.5]], 1)
    trace = run_filter(model, data.measurements, init)
    sols = oracle_filter(model, data.measurements, init)
    for k in range(2):
        assert rel_err(sols[k].xhat, trace.xhat_post[k]) < 1e-9
        assert rel_err(sols[k].Sigma, trace.Sigma_post[k]) < 1e-9


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
        sols = oracle_filter(model, data.measurements, StateEstimate(x0, P0))
        Q = np.diag(p["g2"] * p["sv"])
        xs, Ps = textbook_kf(p["A0"], p["A1"], p["C"], Q, p["Sigma_w"],
                             data.measurements, x0, P0)
        assert rel_err(sols[-1].xhat, xs[-1]) < 1e-9
        assert rel_err(sols[-1].Sigma, Ps[-1]) < 1e-9


def test_oracle_filter_matches_recursive_filter_sec3():
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 20, 34)
    for sigma0 in (0.0, 1.0):
        init = StateEstimate([0.0], [[sigma0]], 1)
        trace = run_filter(model, data.measurements, init)
        sols = oracle_filter(model, data.measurements, init)
        for k in range(20):
            assert rel_err(sols[k].xhat, trace.xhat_post[k]) < 1e-9
            assert rel_err(sols[k].Sigma, trace.Sigma_post[k]) < 1e-9


def test_oracle_filter_matches_nonlinear_filter_logistic():
    model = logistic()
    data = simulate_discrete(model, 50.0, 20, 35)
    init = StateEstimate([40.0], [[4.0]], 1)
    trace = run_filter(model, data.measurements, init)
    sols = oracle_filter(model, data.measurements, init)
    for k in range(20):
        assert rel_err(sols[k].xhat, trace.xhat_post[k]) < 1e-9
        assert rel_err(sols[k].Sigma, trace.Sigma_post[k]) < 1e-9


def test_oracle_factors_each_schur_block_at_most_twice(monkeypatch):
    import cukf.wls as wls

    calls = []
    inverse_cholesky = wls._inverse_cholesky

    def counting_inverse_cholesky(S):
        calls.append(1)
        return inverse_cholesky(S)

    monkeypatch.setattr(wls, "_inverse_cholesky", counting_inverse_cholesky)
    model = example_sec3()
    N = 60
    data = simulate_discrete(model, 1.0, N, 36)
    oracle_filter(model, data.measurements, StateEstimate([0.0], [[1.0]], 1))
    assert len(calls) <= 2 * N + 1


def test_oracle_filter_makes_no_cost_copies(monkeypatch):
    def copy(self):
        raise AssertionError("QuadraticCost.copy called")

    monkeypatch.setattr(QuadraticCost, "copy", copy)
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 20, 37)
    for sigma0 in (0.0, 1.0):
        init = StateEstimate([0.0], [[sigma0]], 1)
        assert len(oracle_filter(model, data.measurements, init)) == 20


def test_partially_singular_prior_rejected():
    init = StateEstimate([0.0, 0.0], np.diag([1.0, 0.0]))
    with pytest.raises(ModelError):
        initial_cost(init)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_blocks_rejected(bad):
    with pytest.raises(ValueError, match="infs or NaNs"):
        initial_cost(StateEstimate([0.0], [[bad]]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        BlockTridiagFactor([np.eye(2), np.diag([1.0, bad])], [np.eye(2)])


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


def test_horizon_cap_enforced():
    model = example_sec3()
    with pytest.raises(ValueError):
        oracle_filter(model, np.zeros((11, 1)),
                      StateEstimate([0.0], [[1.0]]), max_horizon=10)


def test_indefinite_hessian_detected():
    cost = initial_cost(StateEstimate([0.0], [[1.0]]))
    cost.D[0] = np.array([[-1.0]])
    with pytest.raises(IndefiniteHessianError):
        newton_solve(cost, StackedTrajectory(np.zeros(1), 1))
