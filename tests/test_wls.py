import warnings

import numpy as np
import pytest

from cukf.builtin import example_sec3, logistic
from cukf.discrete import StateEstimate, run_filter
from cukf.errors import IndefiniteHessianError, ModelError
from cukf.models import DiscreteLinearModel
from cukf.simulate import simulate_discrete
from cukf.wls import (MAX_HORIZON, BlockTridiagFactor, QuadraticCost,
                      _inverse_cholesky, build_measurement_cost,
                      build_time_cost, initial_cost, newton_solve,
                      oracle_filter)

from reference_impl import random_constant_noise_model, rel_err, textbook_kf


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


@pytest.mark.parametrize("pinned", [False, True])
def test_trajectory_boundary_is_checked(pinned):
    model = example_sec3()
    cost = initial_cost(StateEstimate([2.0], [[0.0 if pinned else 1.0]]))
    cost = build_measurement_cost(cost, [1.0], model.C, model.Sigma_w)
    cost = build_time_cost(cost, model, [2.0])
    cost = build_measurement_cost(cost, [1.5], model.C, model.Sigma_w)
    good = np.full((cost.n_blocks, 1), 2.0)
    off_head = good.copy()
    off_head[0] += 1.0
    bad = {r"must be a \(K, 1\) array": [good.ravel(), np.hstack((good, good)),
                                          good[None]],
           "length does not match": [good[:-1], np.vstack((good, good)),
                                     np.zeros((0, 1))]}
    if pinned:
        bad["pinned initial block does not match"] = [off_head]
    else:
        newton_solve(cost, off_head)
    newton_solve(cost, good)
    for check in (newton_solve, QuadraticCost.gradient):
        for match, starts in bad.items():
            for z0 in starts:
                with pytest.raises(ValueError, match=match):
                    check(cost, z0)


def test_time_cost_expands_at_the_pinned_head_only():
    cost = initial_cost(StateEstimate([2.0], [[0.0]]))
    with pytest.raises(ValueError, match="must equal the pinned head"):
        build_time_cost(cost, example_sec3(), [3.0])
    assert build_time_cost(cost, example_sec3(), [2.0]).n_blocks == 2


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
    # the route predicate is patched.  The prior is factored as an array.
    import cukf.wls as wls

    inverse_cholesky = wls._inverse_cholesky
    model = example_sec3()
    N = 60
    data = simulate_discrete(model, 1.0, N, 36)
    for floats in (True, False):
        calls = []

        def counting_inverse_cholesky(S):
            calls.append(isinstance(S, float))
            return inverse_cholesky(S)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wls, "_inverse_cholesky", counting_inverse_cholesky)
            if not floats:
                patch.setattr(wls, "_scalar_linear", lambda model: False)
            oracle_filter(model, data.measurements,
                          StateEstimate([0.0], [[1.0]], 1))
        assert len(calls) <= 2 * N + 1
        assert calls.count(True) == (2 * N - 1 if floats else 0)


def test_oracle_filter_makes_no_cost_copies(monkeypatch):
    def copy(self):
        raise AssertionError("QuadraticCost.copy called")

    monkeypatch.setattr(QuadraticCost, "copy", copy)
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 20, 37)
    for sigma0 in (0.0, 1.0):
        init = StateEstimate([0.0], [[sigma0]], 1)
        assert len(oracle_filter(model, data.measurements, init).xhat) == 20


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
    # A non-finite measurement is not a Sigma_w too small for it.
    ys = np.ones((5, 1))
    ys[2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        oracle_filter(example_sec3(), ys, StateEstimate([0.0], [[1.0]]))


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


def test_horizon_cap_enforced():
    model = example_sec3()
    with pytest.raises(ValueError, match=f"exceeds cap {MAX_HORIZON}"):
        oracle_filter(model, np.zeros((MAX_HORIZON + 1, 1)),
                      StateEstimate([0.0], [[1.0]]))


def test_indefinite_hessian_detected():
    cost = initial_cost(StateEstimate([0.0], [[1.0]]))
    cost.D[0] = np.array([[-1.0]])
    with pytest.raises(IndefiniteHessianError):
        newton_solve(cost, np.zeros((1, 1)))


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


@pytest.mark.parametrize("key, value", [
    ("Sigma_v", np.array([[0.0]])),
    ("Sigma_w", np.array([[0.0]])),
    ("Sigma_v", np.array([[1e-320]])),
    ("Sigma_v", np.array([[1e-300]])),
    ("Sigma_w", np.array([[1e-310]])),
    ("Sigma_w", np.array([[1e-320]])),
])
def test_oracle_refuses_a_noise_covariance_it_cannot_invert(key, value):
    from dataclasses import replace

    model = replace(example_sec3(), **{key: value})
    data = simulate_discrete(example_sec3(), 1.0, 5, 39)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match=f"^{key} "):
            oracle_filter(model, data.measurements,
                          StateEstimate([0.3], [[1.0]], 1))


def test_oracle_refuses_a_singular_matrix_measurement_covariance():
    model = DiscreteLinearModel(
        A0=np.zeros(2), A1=0.9 * np.eye(2), C=np.eye(2),
        gsq=np.column_stack([np.ones(2), np.zeros((2, 2))]),
        Sigma_v=np.eye(2), Sigma_w=np.ones((2, 2)))
    with pytest.raises(ModelError, match="^Sigma_w is singular"):
        oracle_filter(model, np.ones((3, 2)),
                      StateEstimate(np.zeros(2), np.eye(2), 1))
