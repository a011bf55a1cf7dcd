"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity at its pinned tolerance."""

import numpy as np
import pytest

from cukf.builtin import example_sec3, logistic
from cukf.continuous import cd_run, euler_limit_check
from cukf.discrete import StateEstimate, run_filter, run_filter_batch
from cukf.models import (ContinuousDiscreteModel, DiscreteLinearModel,
                         with_fixed_noise)
from cukf.simulate import (innovation_whiteness, monte_carlo_compare,
                           replicate_seed, simulate_batch, simulate_cd,
                           simulate_discrete)
from cukf.wls import initial_cost, build_measurement_cost, build_time_cost, \
    newton_solve, oracle_filter

from reference_impl import (classical_cd_kf, random_constant_noise_model,
                            rel_err, textbook_kf)


def constant_gain_model(p):
    n = p["n"]
    return DiscreteLinearModel(
        A0=p["A0"], A1=p["A1"], C=p["C"],
        gsq=np.column_stack([p["g2"], np.zeros((n, n))]),
        Sigma_v=np.diag(p["sv"]), Sigma_w=p["Sigma_w"])


def test_A1_oracle_equivalence():
    """Stacked-cost Newton oracle matches the recursive filters to 1e-9."""
    worst = 0.0
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 20, 101)
    for sigma0 in (0.0, 1.0):
        init = StateEstimate([0.3], [[sigma0]], 1)
        trace = run_filter(model, data.measurements, init)
        sol = oracle_filter(model, data.measurements, init)
        for k in range(20):
            worst = max(worst, rel_err(sol.xhat[k], trace.xhat_post[k]),
                        rel_err(sol.Sigma[k], trace.Sigma_post[k]))
    nl = logistic()
    data_nl = simulate_discrete(nl, 50.0, 20, 102)
    init = StateEstimate([40.0], [[4.0]], 1)
    trace = run_filter(nl, data_nl.measurements, init)
    sol = oracle_filter(nl, data_nl.measurements, init)
    for k in range(20):
        worst = max(worst, rel_err(sol.xhat[k], trace.xhat_post[k]),
                    rel_err(sol.Sigma[k], trace.Sigma_post[k]))
    print(f"\nA1 PASS: max relative filter/oracle delta {worst:.3e} <= 1e-9")
    assert worst <= 1e-9


def test_A2_beats_fixed_beta_baseline():
    """Covariance-update filter has lower mean MSE than the fixed-beta=0.1
    baseline over 500 replicates, difference > 2 standard errors."""
    model = example_sec3()
    filters = {"covariance-update": model,
               "fixed-beta": with_fixed_noise(model, 0.1)}
    report = monte_carlo_compare(model, filters, replicates=500, N=100,
                                 master_seed=2024, x0=1.0, init_sigma=0.0)
    diff = report.mse_samples[:, 1] - report.mse_samples[:, 0]
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    print(f"\nA2 PASS: mean MSE {report.mse_mean[0]:.4f} (cov-update) vs "
          f"{report.mse_mean[1]:.2f} (beta=0.1); diff {diff.mean():.2f} "
          f"> 2*SE = {2 * se:.2f}")
    assert report.mse_mean[0] < report.mse_mean[1]
    assert diff.mean() > 2 * se


def test_A3_euler_limit_first_order():
    """Euler-discretization errors halve with dt (ratios in [1.6, 2.4])
    across three refinement levels for constant and affine gains."""
    cases = {
        "constant-G": DiscreteLinearModel(A0=[1.0], A1=[[-0.5]], C=[[1.0]],
                                          gsq=[[4.0, 0.0]], Sigma_v=[[1.0]],
                                          Sigma_w=[[1.0]]),
        "affine-g2": DiscreteLinearModel(A0=[10.0], A1=[[-0.1]], C=[[1.0]],
                                         gsq=[[10.0, 0.1]], Sigma_v=[[1.0]],
                                         Sigma_w=[[1.0]]),
    }
    post = StateEstimate([5.0], [[1.0]], 0.0)
    all_ratios = {}
    for name, model in cases.items():
        rows = euler_limit_check(model, post, 0.0, 0.8,
                                 [0.08, 0.04, 0.02, 0.01])
        for field in ("mean_err", "cov_err"):
            errs = [getattr(r, field) for r in rows]  # ascending dt
            ratios = [errs[i + 1] / errs[i] for i in range(3)]
            all_ratios[f"{name}/{field}"] = [round(r, 3) for r in ratios]
            for r in ratios:
                assert 1.6 <= r <= 2.4
    print(f"\nA3 PASS: error ratios {all_ratios} all in [1.6, 2.4]")


def test_A4_classical_reduction_discrete():
    """With constant gain the discrete filter equals a textbook Kalman
    filter to relative 1e-12 over 100-step runs on 100 random models."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        p = random_constant_noise_model(rng)
        model = constant_gain_model(p)
        data = simulate_discrete(model, np.ones(p["n"]), 100,
                                 rng.integers(1 << 31))
        x0 = rng.standard_normal(p["n"])
        P0 = np.eye(p["n"])
        trace = run_filter(model, data.measurements, StateEstimate(x0, P0))
        xs, Ps = textbook_kf(p["A0"], p["A1"], p["C"],
                             np.diag(p["g2"] * p["sv"]), p["Sigma_w"],
                             data.measurements, x0, P0)
        worst = max(worst, rel_err(trace.xhat_post, xs),
                    rel_err(trace.Sigma_post, Ps))
    print(f"\nA4 PASS (discrete): max relative delta {worst:.3e} <= 1e-12")
    assert worst <= 1e-12


def test_A4_classical_reduction_continuous_discrete():
    """With constant gain the continuous-discrete filter matches the exact
    matrix-exponential Kalman filter to relative 1e-8 (100 models)."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        p = random_constant_noise_model(rng, n=int(rng.integers(1, 3)))
        dyn = constant_gain_model(p)
        times = np.arange(100) * 0.1
        model = ContinuousDiscreteModel(inner=dyn, sample_times=times)
        data = simulate_cd(model, rng.standard_normal(p["n"]),
                           rng.integers(1 << 31), em_step=0.01)
        x0 = rng.standard_normal(p["n"])
        P0 = np.eye(p["n"])
        trace = cd_run(model, data.measurements, StateEstimate(x0, P0, 0.0))
        xs, Ps = classical_cd_kf(p["A0"], p["A1"],
                                 np.diag(p["g2"] * p["sv"]), p["C"],
                                 p["Sigma_w"], times, data.measurements,
                                 x0, P0)
        worst = max(worst, rel_err(trace.xhat_post, xs),
                    rel_err(trace.Sigma_post, Ps))
    print(f"\nA4 PASS (continuous-discrete): max relative delta "
          f"{worst:.3e} <= 1e-8")
    assert worst <= 1e-8


def test_A5_innovation_whiteness():
    """Mean fraction of lags 1..20 inside +/-1.96/sqrt(N) exceeds 0.85 over
    200 replicates of the reference scalar model."""
    model = example_sec3()
    report = monte_carlo_compare(model, {"covariance-update": model},
                                 replicates=200, N=100, master_seed=2025)
    frac = float(report.whiteness_pass_fraction[0])
    print(f"\nA5 PASS: mean whiteness pass fraction {frac:.4f} > 0.85")
    assert frac > 0.85


def test_A6_structural_invariants():
    """Randomized structural checks: covariance symmetry/PSD, posterior
    dominated by prior, block-tridiagonal Hessian, one-step Newton."""
    rng = np.random.default_rng(106)
    # Covariance symmetry/PSD and posterior dominance on random models.
    for _ in range(100):
        n = int(rng.integers(1, 4))
        A1 = rng.standard_normal((n, n))
        A1 *= 0.9 / max(np.abs(np.linalg.eigvals(A1)).max(), 1e-6)
        gsq = np.column_stack([rng.uniform(1, 20, n),
                               rng.uniform(-0.05, 0.1, (n, n))])
        model = DiscreteLinearModel(A0=rng.standard_normal(n), A1=A1,
                                    C=rng.standard_normal((1, n)), gsq=gsq,
                                    Sigma_v=np.diag(rng.uniform(0.5, 2, n)),
                                    Sigma_w=[[rng.uniform(0.5, 2)]])
        data = simulate_discrete(model, np.ones(n), 12, rng.integers(1 << 31))
        trace = run_filter(model, data.measurements,
                           StateEstimate(np.zeros(n), np.eye(n)))
        for k in range(len(trace)):
            for S in (trace.Sigma_prior[k], trace.Sigma_post[k]):
                assert np.abs(S - S.T).max() <= 1e-10 * (1 + np.abs(S).max())
                assert np.min(np.linalg.eigvalsh(S)) >= \
                    -1e-10 * max(np.linalg.norm(S, 2), 1e-300)
            diff = trace.Sigma_prior[k] - trace.Sigma_post[k]
            assert np.min(np.linalg.eigvalsh(diff)) >= -1e-10
    # Hessian structure and one-step Newton on random quadratic builds.
    for _ in range(100):
        model = example_sec3()
        cost = initial_cost(StateEstimate(rng.standard_normal(1), [[1.0]]))
        xhat = float(rng.standard_normal())
        K = int(rng.integers(2, 8))
        for k in range(K):
            cost = build_measurement_cost(cost, [rng.standard_normal()],
                                          model.C, model.Sigma_w)
            cost = build_time_cost(cost, model, [xhat])
            xhat = 1.0 + 0.99 * xhat
        assert len(cost.D) == K + 1
        assert len(cost.L) == K  # coupling only between consecutive blocks
        sol = newton_solve(cost, rng.standard_normal((K + 1, 1)))
        assert sol.grad_norm_after <= 1e-9 * (1.0 + sol.grad_norm_before)
    print("\nA6 PASS: structural invariants hold over 100 random draws each")


@pytest.mark.parametrize("distribution", ["gaussian", "uniform"])
def test_A7_unbiasedness(distribution):
    """Mean estimation error at step 50 over 2000 replicates lies within 3
    standard errors of zero, for Gaussian and rescaled-uniform noise."""
    model = example_sec3()
    reps = 2000
    data_seeds = []
    xinit = np.empty((reps, 1))
    for r in range(reps):
        ss = replicate_seed(700 if distribution == "gaussian" else 701, r)
        data_seed, init_seed = ss.spawn(2)
        data_seeds.append(data_seed)
        xinit[r] = np.random.default_rng(init_seed).standard_normal(1)
    data = simulate_batch(model, 1.0, 50, data_seeds,
                          distribution=distribution)
    trace = run_filter_batch(model, data.measurements, xinit, [[0.0]])
    errors = trace.xhat_post[:, -1, 0] - data.states[:, -1, 0]
    se = errors.std(ddof=1) / np.sqrt(reps)
    print(f"\nA7 PASS ({distribution}): mean error {errors.mean():+.4f}, "
          f"|mean| <= 3*SE = {3 * se:.4f}")
    assert abs(errors.mean()) <= 3 * se
