from dataclasses import replace

import numpy as np
import pytest

from cukf import simulate
from cukf.builtin import birth_death_cle, example_sec3
from cukf.discrete import StateEstimate, run_filter, run_filter_batch
from cukf.modelio import load_model
from cukf.models import (ContinuousDiscreteModel, DiscreteLinearModel,
                         with_fixed_noise)
from cukf.simulate import (MAX_LAG, TrajectoryData, _replicate_words,
                           innovation_whiteness, monte_carlo_compare, mse,
                           replicate_seed, simulate_batch, simulate_cd,
                           simulate_cd_batch, simulate_discrete)

from reference_impl import (em_steps_loop, euler_maruyama_ordered,
                            ordered_affine)
from routes import MODELS, linear_cd, outcome, route, same
from test_failures import failure_tests
from test_writer import csv_writer_text

globals().update(failure_tests("test_simulate"))


def noiseless_sec3():
    return DiscreteLinearModel(A0=[1.0], A1=[[0.99]], C=[[1.0]],
                               gsq=[[100.0, 1.0]], Sigma_v=[[0.0]],
                               Sigma_w=[[0.0]])


def test_noiseless_recursion():
    data = simulate_discrete(noiseless_sec3(), 1.0, 3, 0)
    assert np.allclose(data.states[:, 0], [1.0, 1.99, 2.9701])
    assert np.allclose(data.measurements, data.states)


def test_determinism_contract():
    model = example_sec3()
    a = simulate_discrete(model, 1.0, 50, 123)
    b = simulate_discrete(model, 1.0, 50, 123)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.measurements, b.measurements)


def test_one_step_variance_matches_gsq():
    # At x = 0 the one-step conditional variance is g^2(0) = 100.
    model = example_sec3()
    rng = np.random.default_rng(50)
    draws = 10 ** 5
    v = rng.standard_normal(draws)
    nxt = 1.0 + 0.99 * 0.0 + np.sqrt(100.0) * v
    assert abs(nxt.var() - 100.0) < 3.0
    # and through the simulator itself, two-step trajectories pinned at x0=0
    samples = np.array([
        simulate_discrete(model, 0.0, 2, replicate_seed(51, r)).states[1, 0]
        for r in range(4000)])
    se = samples.var(ddof=1) * np.sqrt(2.0 / (len(samples) - 1))
    assert abs(samples.var(ddof=1) - 100.0) < 3 * se


def test_uniform_noise_matches_second_moments():
    model = example_sec3()
    samples = np.array([
        simulate_discrete(model, 0.0, 2, replicate_seed(52, r),
                          distribution="uniform").states[1, 0]
        for r in range(4000)])
    se = samples.var(ddof=1) * np.sqrt(2.0 / (len(samples) - 1))
    assert abs(samples.var(ddof=1) - 100.0) < 3 * se


def test_simulate_cd_noiseless_solves_ode():
    model = linear_cd(np.linspace(0, 2, 5), A0=[10.0], A1=[[-0.1]], C=[[1.0]],
                      gsq=[[0.0, 0.0]], Sigma_v=[[1.0]], Sigma_w=[[0.0]])
    data = simulate_cd(model, [50.0], 0, em_step=1e-4)
    exact = 100.0 + (50.0 - 100.0) * np.exp(-0.1 * model.sample_times)
    assert np.allclose(data.states[:, 0], exact, rtol=1e-3)


def test_simulate_cd_ensemble_mean_follows_ode():
    model = birth_death_cle(t_end=0.5, n_samples=2)
    paths = 10 ** 4
    finals = simulate_cd_batch(
        model, [100.0], [replicate_seed(53, r) for r in range(paths)],
        em_step=0.01).states[:, -1, 0]
    exact = 100.0 + (100.0 - 100.0) * np.exp(-0.05)  # equilibrium at 100
    se = finals.std(ddof=1) / np.sqrt(paths)
    assert abs(finals.mean() - exact) < 3 * se


def test_simulate_cd_weak_convergence_in_step():
    model = birth_death_cle(t_end=0.5, n_samples=2)
    paths = 8000
    var = {}
    for step in (0.01, 0.005):
        finals = simulate_cd_batch(
            model, [100.0], [replicate_seed(54, r) for r in range(paths)],
            em_step=step).states[:, -1, 0]
        var[step] = finals.var(ddof=1)
    assert abs(var[0.005] - var[0.01]) / var[0.01] < 0.05


def unit_draws(seed, distribution):
    """draw(size): the next `size` unit draws of `default_rng(seed)`."""
    rng = np.random.default_rng(seed)
    if distribution == "gaussian":
        return rng.standard_normal
    return lambda size: rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size)


@pytest.mark.parametrize("distribution", ["gaussian", "uniform"])
def test_simulate_cd_matches_per_step_loop_bit_for_bit(distribution):
    times = np.linspace(0.0, 3.0, 31)
    models = [birth_death_cle(t_end=3.0, n_samples=31),
              linear_cd(times, A0=[20.0, 5.0], A1=[[-0.1, 0.0], [0.5, -0.05]],
                        C=np.eye(2), gsq=[[20.0, 0.1, 0.0], [5.0, 0.5, 0.05]],
                        Sigma_v=np.eye(2), Sigma_w=np.eye(2)),
              linear_cd(times, A0=[0.0], A1=[[-2.0]], C=[[1.0]],
                        gsq=[[0.0, 2.0]], Sigma_v=[[1.0]], Sigma_w=[[1.0]])]
    for model in models:
        for seed in range(3):
            x0 = np.full(model.n, 2.0)
            data = simulate_cd(model, x0, seed, em_step=0.01,
                               distribution=distribution)
            same(outcome(lambda: data), outcome(lambda: TrajectoryData(
                *euler_maruyama_ordered(model.inner, model.sample_times, 0.01,
                                        x0, unit_draws(seed, distribution)),
                times=model.sample_times)))


def simulate_discrete_per_step(model, x0, N, seed, distribution):
    """One noise draw per measurement and per transition, every affine map
    an ordered sum (`ordered_affine`) and the gain applied as the diagonal
    matrix diag(sqrt(max(g^2, 1e-12)))."""
    draw = unit_draws(seed, distribution)
    Lw = np.linalg.cholesky(model.Sigma_w)
    sv = np.sqrt(np.diag(model.Sigma_v))
    x = np.array(x0, dtype=float)
    xs, ys = [], []
    clamped = False
    for k in range(N):
        xs.append(x)
        ys.append(np.add(ordered_affine(model.C, x),
                         ordered_affine(Lw, draw(model.m))))
        if k + 1 < N:
            v = sv * draw(model.n)
            g2 = np.array(ordered_affine(model.gsq[:, 1:], x, model.gsq[:, 0]))
            clamped = clamped or bool((g2 < 1e-12).any())
            G = np.diag(np.sqrt(np.maximum(g2, 1e-12)))
            x = ordered_affine(model.A1, x, model.A0) + G @ v
    return np.array(xs), np.array(ys), clamped


@pytest.mark.parametrize("distribution", ["gaussian", "uniform"])
def test_simulate_batch_matches_per_step_loop_bit_for_bit(distribution):
    two_state = DiscreteLinearModel(
        A0=[1.0, 0.5], A1=[[0.9, 0.05], [0.1, 0.8]], C=[[1.0, 0.5]],
        gsq=[[4.0, 0.1, 0.0], [2.0, 0.0, 0.2]], Sigma_v=[[1.0, 0.0], [0.0, 2.0]],
        Sigma_w=[[0.5]])
    # g^2_1 = 1 - x_1 is negative from x0 on, so this model clamps.
    clamping = DiscreteLinearModel(
        A0=[0.5, 0.2, -0.1], A1=[[0.9, 0.1, 0.0], [0.0, 0.7, 0.2], [0.1, 0.0, 0.8]],
        C=[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
        gsq=[[1.0, -1.0, 0.0, 0.0], [2.0, 0.0, 0.5, 0.0], [0.5, 0.1, 0.1, -0.3]],
        Sigma_v=np.diag([1.0, 0.5, 2.0]), Sigma_w=[[1.0, 0.3], [0.3, 2.0]])
    # g^2 = -1 + 0.5 x is floored from x0 = 2 on; two outputs.
    scalar_clamping = DiscreteLinearModel(
        A0=[0.5], A1=[[0.9]], C=[[1.0], [0.5]], gsq=[[-1.0, 0.5]],
        Sigma_v=[[1.5]], Sigma_w=[[1.0, 0.3], [0.3, 2.0]])
    seeds = [0, 1, 2]
    for model, N, clamps in ((example_sec3(), 60, False),
                             (two_state, 40, False), (clamping, 40, True),
                             (scalar_clamping, 40, True)):
        x0 = np.full(model.n, 2.0)
        batch = simulate_batch(model, x0, N, seeds, distribution=distribution)
        for r, seed in enumerate(seeds):
            want = outcome(lambda: TrajectoryData(*simulate_discrete_per_step(
                model, x0, N, seed, distribution)))
            same(outcome(lambda: batch.replicate(r)), want)
            same(outcome(lambda: simulate_discrete(
                model, x0, N, seed, distribution=distribution)), want)
        assert batch.clamped.all() == clamps


def test_simulate_cd_batch_rows_match_one_path_runs():
    # Uneven gaps, and a pure-death model whose g^2 = 2x is floored once
    # the path crosses 0.  A batch runs the numpy loop and one path the
    # Python-float kernel, so the rows must match byte for byte, signed
    # zeros included.
    pure_death = linear_cd([0.0, 0.05, 0.25, 0.3, 1.0], A0=[0.0],
                           A1=[[-2.0]], C=[[1.0]], gsq=[[0.0, 2.0]],
                           Sigma_v=[[1.0]], Sigma_w=[[1.0]])
    seeds = [replicate_seed(5, r) for r in range(6)]
    for model, x0 in ((birth_death_cle(t_end=1.0, n_samples=5), 1.0),
                      (pure_death, 1.0), (pure_death, 0.0),
                      (pure_death, -0.0)):
        batch = simulate_cd_batch(model, [x0], seeds, em_step=0.01)
        for r, seed in enumerate(seeds):
            same(outcome(lambda: batch.replicate(r)),
                 outcome(lambda: simulate_cd(model, [x0], seed, em_step=0.01)))
        assert batch.clamped.any() == (model is pure_death)


def test_one_path_of_a_linear_model_takes_the_float_route():
    # Without this, a silent fall-back to the numpy loop would pass every
    # bit-identity test: one path of any linear model, n = 2 included, runs
    # the Python-float loop, and a batch the numpy loop.
    pure_death = load_model(MODELS / "pure_death_cle.txt")
    two_species = load_model(MODELS / "two_species_cle.txt")
    two_state = DiscreteLinearModel(
        A0=[1.0, 0.5], A1=[[0.9, 0.05], [0.1, 0.8]], C=[[1.0, 0.5]],
        gsq=[[4.0, 0.1, 0.0], [2.0, 0.0, 0.2]], Sigma_v=np.eye(2),
        Sigma_w=[[0.5]])
    for model in (birth_death_cle(), pure_death, two_species):
        x0 = np.full(model.n, 100.0)
        with route() as taken:
            simulate_cd(model, x0, 0, em_step=0.01)
            batch = simulate_cd_batch(model, x0, [0, 1], em_step=0.01)
        assert taken == [("floats", model.n)]
        assert batch.clamped.tolist() == [model is pure_death] * 2
    with route() as taken:
        simulate_discrete(two_state, [1.0, 1.0], 10, 0)
        batch = simulate_batch(two_state, [1.0, 1.0], 10, [0, 1])
    assert taken == [("floats", 2)]
    assert batch.states.shape == (2, 10, 2)


@pytest.mark.parametrize("distribution", ["gaussian", "uniform"])
@pytest.mark.parametrize("R", [1, 3])
def test_both_simulators_draw_one_noise_layout(distribution, R):
    # With C = 0 the measurements are the measurement draws alone, so a
    # discrete run and an Euler-Maruyama run with one step per gap must
    # read them from the same places of each path's noise block.
    h, N = 0.1, 30
    stable = DiscreteLinearModel(A0=[0.5, 0.0], A1=[[-0.5, 0.1], [0.0, -0.2]],
                                 C=np.zeros((2, 2)), gsq=[[1.0, 0.0, 0.0],
                                                          [2.0, 0.0, 0.0]],
                                 Sigma_v=np.eye(2), Sigma_w=[[1.0, 0.3],
                                                             [0.3, 2.0]])
    scalar = DiscreteLinearModel(A0=[0.5], A1=[[-0.5]], C=[[0.0]],
                                 gsq=[[1.0, 0.0]], Sigma_v=[[1.0]],
                                 Sigma_w=[[2.0]])
    seeds = [replicate_seed(8, r) for r in range(R)]
    for model in (stable, scalar):
        cd = ContinuousDiscreteModel(inner=model,
                                     sample_times=h * np.arange(N))
        x0 = np.ones(model.n)
        discrete = simulate_batch(model, x0, N, seeds, distribution)
        euler = simulate_cd_batch(cd, x0, seeds, em_step=h,
                                  distribution=distribution)
        assert (discrete.measurements.tobytes()
                == euler.measurements.tobytes())


def test_measurement_noise_factor_matches_lapack():
    # The float recursion agrees with LAPACK's Cholesky factor to rounding,
    # exactly for a diagonal Sigma_w; a semidefinite one (here 0) still
    # takes eigh's factor.
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 4):
        for _ in range(100):
            B = rng.standard_normal((m, m))
            Sigma_w = B @ B.T + 0.1 * np.eye(m)
            want = np.linalg.cholesky(Sigma_w)
            got = simulate._meas_noise_chol(Sigma_w)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
            diagonal = np.diag(rng.uniform(0.01, 100.0, m))
            assert (simulate._meas_noise_chol(diagonal).tobytes()
                    == np.linalg.cholesky(diagonal).tobytes())
        w, V = np.linalg.eigh(np.zeros((m, m)))
        assert (simulate._meas_noise_chol(np.zeros((m, m))).tobytes()
                == (V * np.sqrt(np.clip(w, 0.0, None))).tobytes())


def test_em_step_cap_is_checked_before_the_noise_is_drawn(monkeypatch):
    def no_noise(*args, **kwargs):
        raise AssertionError("noise drawn")

    monkeypatch.setattr("cukf.simulate._noise_blocks", no_noise)
    with pytest.raises(ValueError) as exc:
        simulate_cd(birth_death_cle(), [100.0], 0, em_step=1e-9)
    assert str(exc.value) == ("em_step 1e-09 puts 1e+08 steps on "
                              "[0.0, 0.1]; at most 100000 are allowed")


@pytest.mark.parametrize("em_step", [0.01, 0.05, 0.1, 0.3, 0.003, 1e-6,
                                     1e-9, 5e-324, 3.0])
def test_em_steps_checks_every_gap_as_a_loop_over_the_gaps_does(em_step):
    # Grids whose gaps fail in different ways at different places: the
    # steps, or the message naming the first gap that fails, of the loop.
    grids = [birth_death_cle().sample_times, [0.0, 0.1, 0.3, 0.35, 1.0],
             [0.0, 0.5, 0.6, 2000.6, 2001.0], [5.0, 5.3, 5.6, 6.0]]
    for times in map(np.array, grids):
        try:
            expected = em_steps_loop(times, em_step).tobytes()
        except ValueError as exc:
            expected = str(exc)
        try:
            got = simulate._em_steps(times, em_step).tobytes()
        except ValueError as exc:
            got = str(exc)
        assert got == expected


def test_mse_trivials():
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 10, 55)
    trace = run_filter(model, data.measurements, StateEstimate([0.0], [[0.0]]))
    trace.xhat_post = data.states.copy()
    assert mse(trace, data) == 0.0
    trace.xhat_post = data.states + 0.5
    assert np.isclose(mse(trace, data), 0.25)


def test_whiteness_lag0_is_one():
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 100, 57)
    trace = run_filter(model, data.measurements, StateEstimate([0.0], [[0.0]]))
    res = innovation_whiteness(trace, max_lag=20)
    assert np.isclose(res.rho[0], 1.0, atol=1e-12)
    assert not res.degenerate


def test_whiteness_iid_calibration():
    # An iid standard normal "innovation" sequence should pass most lags.
    fracs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        N = 1000
        trace = run_filter(example_sec3(),
                           np.zeros((1, 1)), StateEstimate([0.0], [[0.0]]))
        trace.innovation = rng.standard_normal((N, 1))
        trace.S = np.ones((N, 1, 1))
        trace.xhat_post = np.zeros((N, 1))
        res = innovation_whiteness(trace, max_lag=20)
        fracs.append(res.pass_fraction)
    assert np.mean(fracs) >= 0.9


def test_whiteness_degenerate_sequence_flagged():
    trace = run_filter(example_sec3(), np.zeros((1, 1)),
                       StateEstimate([0.0], [[0.0]]))
    trace.innovation = np.ones((50, 1))
    trace.S = np.ones((50, 1, 1))
    trace.xhat_post = np.zeros((50, 1))
    res = innovation_whiteness(trace, max_lag=10)
    assert res.degenerate
    assert np.all(np.isnan(res.rho))


def test_monte_carlo_single_replicate_reduces_to_one_run():
    model = example_sec3()
    report = monte_carlo_compare(model, {"cu": model}, replicates=1,
                                 N=60, master_seed=99)
    ss = replicate_seed(99, 0)
    data_seed, init_seed = ss.spawn(2)
    data = simulate_discrete(model, 1.0, 60, data_seed)
    rng = np.random.default_rng(init_seed)
    init = StateEstimate(rng.standard_normal(1), np.zeros((1, 1)), 1)
    trace = run_filter(model, data.measurements, init)
    assert np.isclose(report.mse_mean[0], mse(trace, data), rtol=1e-14)


def test_monte_carlo_duplicate_filter_identical_stats():
    model = example_sec3()
    report = monte_carlo_compare(model, {"a": model, "b": model},
                                 replicates=20, N=50, master_seed=7)
    assert report.mse_mean[0] == report.mse_mean[1]
    assert np.array_equal(report.autocorr_mean[0], report.autocorr_mean[1])


def test_monte_carlo_determinism_and_invariants():
    model = example_sec3()
    fs = {"cu": model, "kf": with_fixed_noise(model, 0.5)}
    a = monte_carlo_compare(model, fs, replicates=10, N=50, master_seed=3)
    b = monte_carlo_compare(model, fs, replicates=10, N=50, master_seed=3)
    assert np.array_equal(a.mse_samples, b.mse_samples)
    assert np.all(a.mse_mean >= 0)
    assert np.allclose(a.autocorr_mean[:, 0], 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7,
                                  2 ** 128 - 1, 2 ** 128 + 5, 3 ** 200])
def test_replicate_words_are_the_spawned_seed_sequences_words(seed):
    # The last three seeds take more than the pool's 4 entropy words.
    words = _replicate_words(seed, 70)
    assert words.shape == (2, 70, 4) and words.dtype == np.uint64
    for r in range(70):
        for c, child in enumerate(replicate_seed(seed, r).spawn(2)):
            assert (words[c, r].tobytes()
                    == child.generate_state(4, np.uint64).tobytes())


def per_replicate_compare(model, filters, R, N, seed, distribution):
    """mse_samples, pass fractions and autocorr_mean of monte_carlo_compare,
    with each replicate's streams made one at a time by SeedSequence."""
    data_seeds, xinit = [], np.empty((R, model.n))
    for r in range(R):
        data_seed, init_seed = replicate_seed(seed, r).spawn(2)
        data_seeds.append(data_seed)
        xinit[r] = np.random.default_rng(init_seed).standard_normal(model.n)
    data = simulate_batch(model, 1.0, N, data_seeds, distribution=distribution)
    mses, passes = np.empty((R, len(filters))), np.empty((R, len(filters)))
    rhos = np.empty((len(filters), MAX_LAG + 1))
    for i, run_model in enumerate(filters.values()):
        trace = run_filter_batch(run_model, data.measurements, xinit,
                                 np.zeros((model.n, model.n)))
        mses[:, i] = mse(trace, data)
        wh = innovation_whiteness(trace)
        passes[:, i] = wh.pass_fraction
        rhos[i] = wh.rho.sum(axis=0) / R
    return mses, passes.mean(axis=0), rhos


@pytest.mark.parametrize("seed", [0, 2 ** 128 + 5])
@pytest.mark.parametrize("distribution", ["gaussian", "uniform"])
def test_monte_carlo_compare_equals_the_per_replicate_streams(seed,
                                                              distribution):
    model = example_sec3()
    filters = {"cu": model, "kf": with_fixed_noise(model, 0.1)}
    report = monte_carlo_compare(model, filters, replicates=40, N=60,
                                 master_seed=seed, distribution=distribution)
    mses, passes, rhos = per_replicate_compare(model, filters, 40, 60, seed,
                                               distribution)
    assert report.mse_samples.tobytes() == mses.tobytes()
    assert report.whiteness_pass_fraction.tobytes() == passes.tobytes()
    assert report.autocorr_mean.tobytes() == rhos.tobytes()


@pytest.mark.parametrize("m", [1, 2])
def test_whitening_equals_the_solve_with_the_cholesky_factor(m):
    # Exponents of +-50 (S) and +-30 (E).  Whitening a trace whose
    # innovations are already whitened by the solve, with S = I, divides by
    # (or solves with) exactly 1, so both traces give the same bits iff the
    # whitening rounds like the solve.
    rng = np.random.default_rng(m)
    R, N = 30, 200
    E = rng.choice([-1, 1], (R, N, m)) * 10.0 ** rng.uniform(-30, 30,
                                                           (R, N, m))
    # S = D A D, A well conditioned, D diagonal with entries 10^+-25.
    L = 10.0 ** rng.uniform(-25, 25, (R, N, m, 1)) * (
        np.eye(m) + np.tril(rng.standard_normal((R, N, m, m)), -1))
    S = L @ L.swapaxes(-1, -2)
    z = np.linalg.solve(np.linalg.cholesky(S), E[..., None])[..., 0]
    if m == 1:
        assert (E / np.sqrt(S[..., 0])).tobytes() == z.tobytes()
    trace = run_filter(example_sec3(), np.zeros((N, 1)),
                       StateEstimate([0.0], [[0.0]]))
    whitened = []
    for innovation, cov in ((E, S), (z, np.broadcast_to(np.eye(m), S.shape))):
        batch = replace(trace, innovation=innovation, S=cov)
        whitened.append(innovation_whiteness(batch))
    assert whitened[0].rho.tobytes() == whitened[1].rho.tobytes()
    assert (whitened[0].pass_fraction.tobytes()
            == whitened[1].pass_fraction.tobytes())


def test_trajectory_csv(tmp_path):
    data = simulate_discrete(example_sec3(), 1.0, 4, 58)
    path = tmp_path / "traj.csv"
    data.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,x_true_0,y_0"
    assert len(lines) == 5


@pytest.mark.parametrize("timed", [False, True])
def test_trajectory_csv_bytes_match_per_value_repr_writer(tmp_path, timed):
    values = np.array([-0.0, 5e-324, 1e300, 0.1, -2.5, 1 / 3, 1e-7, 42.0])
    rng = np.random.default_rng(8)
    N = 12
    data = TrajectoryData(
        states=rng.choice(values, size=(N, 2)),
        measurements=rng.choice(values, size=(N, 1)),
        times=rng.choice(values, size=N) if timed else None)
    # csv writes a float by its repr, as the per-value writer did.
    data.to_csv(tmp_path / "trajectory.csv")
    text = (tmp_path / "trajectory.csv").read_bytes()
    assert text == csv_writer_text(range(1, N + 1), data.times,
                                   ["x_true_0", "x_true_1", "y_0"],
                                   [data.states, data.measurements])
    for value in (b"-0.0", b"5e-324", b"1e+300"):
        assert value in text
