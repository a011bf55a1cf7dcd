import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cukf.builtin import birth_death_cle, example_sec3
from cukf.continuous import (_PADE, _Propagator, _canonical, _expm,
                             cd_run, cd_time_update, default_config,
                             euler_limit_check)
from cukf.discrete import StateEstimate, time_update
from cukf.modelio import load_model
from cukf.models import ContinuousDiscreteModel, DiscreteLinearModel
from cukf.simulate import simulate_cd

from reference_impl import (EPS_G, _rk4, classical_cd_kf, floor_crossings,
                            random_constant_noise_model, rel_err, split_rk4,
                            vanloan_discretize)
from test_failures import failure_tests

globals().update(failure_tests("test_continuous"))

STEP = 0.001


def scalar_model(A0=10.0, A1=-0.1, g2=(10.0, 0.1)):
    return DiscreteLinearModel(A0=[A0], A1=[[A1]], C=[[1.0]],
                               gsq=[list(g2)], Sigma_v=[[1.0]],
                               Sigma_w=[[1.0]])


def test_zero_length_interval_is_identity():
    post = StateEstimate([50.0], [[1.0]], 0.0)
    out = cd_time_update(post, scalar_model(), 2.0, 2.0, STEP)
    assert np.array_equal(out.xhat, post.xhat)
    assert np.array_equal(out.Sigma, post.Sigma)


def test_constant_integrand_closed_form():
    # A0 = 0, A1 = 0, g^2 = c: Sigma(t1) = Sigma(t0) + c * sv * (t1 - t0) I
    model = DiscreteLinearModel(A0=[0, 0], A1=np.zeros((2, 2)), C=np.eye(2),
                                gsq=[[3.0, 0, 0], [3.0, 0, 0]],
                                Sigma_v=np.diag([2.0, 2.0]), Sigma_w=np.eye(2))
    post = StateEstimate([1.0, -1.0], np.eye(2) * 0.5, 0.0)
    out = cd_time_update(post, model, 0.0, 0.7, STEP)
    assert np.allclose(out.xhat, post.xhat)
    assert np.allclose(out.Sigma, 0.5 * np.eye(2) + 3.0 * 2.0 * 0.7 * np.eye(2),
                       rtol=1e-12)


def test_affine_gain_frozen_reference():
    # Frozen from an independent forward-Euler integration at h = 1e-6:
    # xhat(1) = 54.75812932441148, Sigma(1) = 14.64032322594648.
    post = StateEstimate([50.0], [[1.0]], 0.0)
    out = cd_time_update(post, scalar_model(), 0.0, 1.0, STEP)
    assert np.allclose(out.xhat, [54.75812932441148], rtol=1e-5)
    assert np.allclose(out.Sigma, [[14.64032322594648]], rtol=1e-5)


def test_covariance_ode_preserves_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_constant_noise_model(rng, n=2)
        model = DiscreteLinearModel(
            A0=p["A0"], A1=p["A1"], C=p["C"],
            gsq=np.column_stack([p["g2"], rng.uniform(0, 0.2, (2, 2))]),
            Sigma_v=np.diag(p["sv"]), Sigma_w=p["Sigma_w"])
        B = rng.standard_normal((2, 2))
        S0 = B @ B.T + np.eye(2)
        out = cd_time_update(StateEstimate(rng.standard_normal(2) + 10, S0, 0.0),
                             model, 0.0, 0.5, 0.005)
        assert np.abs(out.Sigma - out.Sigma.T).max() <= 1e-10


def test_euler_single_step_equals_discrete_update():
    # dt = t1 - t0 reproduces one discrete time update of the scaled model.
    model = scalar_model()
    post = StateEstimate([50.0], [[1.0]], 0.0)
    dt = 0.25
    rows = euler_limit_check(model, post, 0.0, dt, [dt])
    scaled = DiscreteLinearModel(
        A0=model.A0 * dt, A1=np.eye(1) + dt * model.A1, C=model.C,
        gsq=dt * model.gsq, Sigma_v=model.Sigma_v, Sigma_w=model.Sigma_w)
    one = time_update(StateEstimate(post.xhat, post.Sigma, 0), scaled)
    ref = cd_time_update(post, model, 0.0, dt, dt / 400)
    assert np.isclose(rows[0].mean_err, abs(one.xhat[0] - ref.xhat[0]),
                      rtol=1e-6, atol=1e-12)
    assert np.isclose(rows[0].cov_err, abs(one.Sigma[0, 0] - ref.Sigma[0, 0]),
                      rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("name", ["birth_death_cle", "two_species"])
def test_euler_rows_equal_a_loop_of_time_updates(name):
    # Bit for bit: the Euler model stepped by repeated time_update calls,
    # against the exact propagation at the finest step.
    model = birth_death_cle() if name == "birth_death_cle" else load_model(
        Path(__file__).resolve().parents[1] / "bench" / "models"
        / "two_species_cle.txt")
    dyn = model.inner
    post = StateEstimate(np.full(dyn.n, 100.0), np.eye(dyn.n), 0.0)
    dts = [0.08 / 2 ** i for i in range(4)]
    rows = euler_limit_check(model, post, 0.0, 0.8, dts)
    ref = cd_time_update(post, model, 0.0, 0.8, dts[-1])
    for row, dt in zip(rows, sorted(dts)):
        euler = replace(dyn, A0=dt * dyn.A0, A1=np.eye(dyn.n) + dt * dyn.A1,
                        Sigma_v=dt * dyn.Sigma_v)
        est = post
        for _ in range(round(0.8 / dt)):
            est = time_update(est, euler)
        assert row.dt == dt
        assert row.mean_err == float(np.linalg.norm(est.xhat - ref.xhat))
        assert row.cov_err == float(np.linalg.norm(est.Sigma - ref.Sigma))


@pytest.mark.parametrize("g2", [(4.0, 0.0), (10.0, 0.1)])
def test_euler_errors_halve_with_dt(g2):
    model = scalar_model(A0=1.0, A1=-0.5, g2=g2)
    post = StateEstimate([5.0], [[1.0]], 0.0)
    rows = euler_limit_check(model, post, 0.0, 0.8, [0.08, 0.04, 0.02, 0.01])
    errs = [r.cov_err for r in rows]
    for fine, coarse in zip(errs[:-1], errs[1:]):
        assert 1.6 <= coarse / fine <= 2.4


def test_cd_run_degenerate_single_sample():
    model = ContinuousDiscreteModel(inner=example_sec3(), sample_times=[0.0])
    init = StateEstimate([2.0], [[0.0]], 0.0)
    trace = cd_run(model, [[5.0]], init)
    assert np.allclose(trace.xhat_post[0], [2.0])
    assert np.allclose(trace.Sigma_post[0], [[0.0]])


def test_cd_run_birth_death_runs_clean():
    model = birth_death_cle()
    data = simulate_cd(model, np.array([100.0]), 11, em_step=0.005)
    trace = cd_run(model, data.measurements, StateEstimate([90.0], [[25.0]], 0.0))
    assert len(trace) == model.sample_times.size
    assert np.all(np.isfinite(trace.xhat_post))
    for S in trace.Sigma_post:
        assert np.min(np.linalg.eigvalsh(S)) >= -1e-10


def test_cd_run_constant_gain_matches_classical(subtests=None):
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_constant_noise_model(rng, n=int(rng.integers(1, 3)))
        n = p["n"]
        dyn = DiscreteLinearModel(
            A0=p["A0"], A1=p["A1"], C=p["C"],
            gsq=np.column_stack([p["g2"], np.zeros((n, n))]),
            Sigma_v=np.diag(p["sv"]), Sigma_w=p["Sigma_w"])
        times = np.arange(30) * 0.1
        model = ContinuousDiscreteModel(inner=dyn, sample_times=times)
        data = simulate_cd(model, rng.standard_normal(n), rng.integers(1 << 31),
                           em_step=0.01)
        x0 = rng.standard_normal(n)
        P0 = np.eye(n)
        trace = cd_run(model, data.measurements, StateEstimate(x0, P0, 0.0))
        Q = np.diag(p["g2"] * p["sv"])
        xs, Ps = classical_cd_kf(p["A0"], p["A1"], Q, p["C"], p["Sigma_w"],
                                 times, data.measurements, x0, P0)
        assert rel_err(trace.xhat_post, xs) < 1e-8
        assert rel_err(trace.Sigma_post, Ps) < 1e-8


def cutting_cd():
    """The CI's cutting file: g^2 = x - 2 crosses the floor as the mean
    relaxes toward 5, so intervals are cut."""
    dyn = DiscreteLinearModel(A0=[5.0], A1=[[-1.0]], C=[[1.0]],
                              gsq=[[-2.0, 1.0]], Sigma_v=[[1.0]],
                              Sigma_w=[[0.25]])
    return ContinuousDiscreteModel(inner=dyn, sample_times=0.5 * np.arange(7))


@pytest.mark.parametrize("name", ["birth_death_cle", "two_species",
                                  "cutting"])
def test_cd_time_update_is_the_time_update_cd_run_makes(name):
    # From cd_run's posterior at step k, cd_time_update over the next gap
    # gives cd_run's prior at step k + 1, bit for bit: for n = 1 through
    # the scalar rule's float adaptor, for n = 2 through the numpy loop's.
    models = Path(__file__).resolve().parents[1] / "bench" / "models"
    model, x0 = {"birth_death_cle": (birth_death_cle(), [100.0]),
                 "two_species": (load_model(models / "two_species_cle.txt"),
                                 [100.0, 100.0]),
                 "cutting": (cutting_cd(), [0.0])}[name]
    data = simulate_cd(model, x0, 1, 0.01)
    step = default_config(model)
    trace = cd_run(model, data.measurements,
                   StateEstimate(x0, np.eye(model.n), 0.0), step)
    if name == "cutting":
        assert trace.fallback_intervals > 0
    ts = model.sample_times
    for k in range(len(ts) - 1):
        prior = cd_time_update(
            StateEstimate(trace.xhat_post[k], trace.Sigma_post[k], ts[k]),
            model, ts[k], ts[k + 1], step)
        assert prior.xhat.tobytes() == trace.xhat_prior[k + 1].tobytes()
        assert prior.Sigma.tobytes() == trace.Sigma_prior[k + 1].tobytes()


def test_cd_trace_csv_has_time_column_and_sidecar(tmp_path, monkeypatch):
    # The CLI writes the continuous-discrete run's counts beside its trace.
    import cukf.cli
    traces = []

    def recording_cd_run(*args):
        traces.append(cd_run(*args))
        return traces[-1]

    monkeypatch.setattr(cukf.cli, "cd_run", recording_cd_run)
    monkeypatch.delenv("CUKF_OUTPUT_DIR", raising=False)
    models = Path(__file__).resolve().parents[1] / "bench" / "models"
    assert cukf.cli.parse_and_dispatch([
        "filter", "--model", str(models / "pure_death_cle.txt"), "--x0", "100",
        "--out", str(tmp_path)]) == 0
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header.split(",")[1] == "t"
    trace, = traces
    assert trace.clamp_count > 0
    assert (tmp_path / "trace_summary.csv").read_bytes() == (
        f"key,value\r\nclamp_count,{trace.clamp_count}\r\n"
        f"step_count,{trace.step_count}\r\n"
        f"fallback_intervals,{trace.fallback_intervals}\r\n").encode()


def test_default_config_uses_hundredth_of_gap():
    model = birth_death_cle(t_end=5.0, n_samples=51)
    assert np.isclose(default_config(model), 0.1 / 100.0)


def rk4_reference(model, post, span, step=1e-4):
    return _rk4(model, post.xhat, post.Sigma, span, int(round(span / step)))


def test_exact_matches_rk4_on_random_affine_models():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(3):
            p = random_constant_noise_model(rng, n=n)
            model = DiscreteLinearModel(
                A0=p["A0"], A1=p["A1"], C=p["C"],
                gsq=np.column_stack([p["g2"] + 5.0,
                                     rng.uniform(-0.2, 0.2, (n, n))]),
                Sigma_v=np.diag(p["sv"]), Sigma_w=p["Sigma_w"])
            B = rng.standard_normal((n, n))
            post = StateEstimate(rng.standard_normal(n), B @ B.T, 0.0)
            out = cd_time_update(post, model, 0.0, 0.1, STEP)
            x, S = rk4_reference(model, post, 0.1)
            assert np.all(model.gsq[:, 0] + model.gsq[:, 1:] @ x > 0)
            assert rel_err(out.xhat, x) <= 1e-9
            assert rel_err(out.Sigma, S) <= 1e-9


def pure_death_run(x0, gap=0.1, A0=0.0, c0=0.0):
    """cd_run over one interval of dx = (A0 - 2x)dt, g^2 = c0 + 2x, from the
    prior x0 and a first measurement equal to it (so the posterior is x0)."""
    dyn = DiscreteLinearModel(A0=[A0], A1=[[-2.0]], C=[[1.0]],
                              gsq=[[c0, 2.0]], Sigma_v=[[1.0]],
                              Sigma_w=[[1.0]])
    model = ContinuousDiscreteModel(inner=dyn, sample_times=[0.0, gap])
    post = StateEstimate([x0], [[0.5]], 0.0)
    trace = cd_run(model, [[x0], [0.0]], post)
    return dyn, trace


@pytest.mark.parametrize("c0", [0.0, 1.0])
def test_interval_clamped_throughout_matches_rk4(c0):
    # A negative estimate stays below -1, so g^2 = c0 + 2x is floored all
    # along and the noise intensity is the floor, whatever c0 is.
    dyn, trace = pure_death_run(-3.0, c0=c0)
    assert trace.clamp_count == 1
    assert trace.fallback_intervals == 0 and trace.step_count == 0
    post = StateEstimate(trace.xhat_post[0], trace.Sigma_post[0], 0.0)
    x, S = rk4_reference(dyn, post, 0.1)
    assert rel_err(trace.xhat_prior[1], x) <= 1e-9
    assert rel_err(trace.Sigma_prior[1], S) <= 1e-9


def test_clamp_set_change_takes_counted_fallback():
    # dx = (-10 - 2x)dt from x = 0.5 crosses g^2 = 2x = 0 mid-interval: the
    # interval is cut once there, and both pieces are propagated exactly.
    dyn, trace = pure_death_run(0.5, A0=-10.0)
    assert trace.clamp_count == 1
    assert trace.fallback_intervals == 1
    assert trace.step_count == 1
    post = StateEstimate(trace.xhat_post[0], trace.Sigma_post[0], 0.0)
    assert len(floor_crossings(dyn, post.xhat, 0.1)) == 1
    x, S = split_rk4(dyn, post.xhat, post.Sigma, 0.1)
    assert rel_err(trace.xhat_prior[1], x) <= 1e-12
    assert rel_err(trace.Sigma_prior[1], S) <= 1e-12


@st.composite
def crossing_cases(draw, span=0.1):
    """(model, posterior) whose mean path over `span` takes at least one
    g2_i across EPS_G, each at a chosen time with a slope well away from 0;
    every other g2_i stays above the floor or below it throughout."""
    n = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(["cross", "above", "below"]),
                          min_size=n, max_size=n))
    kinds[0] = "cross"
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A1 = rng.standard_normal((n, n))
    A1 *= rng.uniform(0.1, 2.0) / max(np.abs(np.linalg.eigvals(A1)).max(), 1e-6)
    A0 = 5.0 * rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    C1 = rng.standard_normal((n, n))
    c0 = np.empty(n)
    for i, kind in enumerate(kinds):
        tau = rng.uniform(0.1, 0.9) * span
        Phi, offset, _ = vanloan_discretize(A0, A1, np.zeros((n, n)), tau)
        x_tau = Phi @ x0 + offset
        d = A0 + A1 @ x_tau
        d /= np.linalg.norm(d)
        # Tilt row i toward the path's direction at tau: the crossing is
        # then transversal, and the path crosses no second time.
        C1[i] += (rng.choice([-1.0, 1.0]) * np.linalg.norm(C1[i])
                  - C1[i] @ d) * d
        c0[i] = EPS_G - C1[i] @ x_tau
        if kind != "cross":
            c0[i] += 1e3 if kind == "above" else -1e3
    B = rng.standard_normal((n, n))
    model = DiscreteLinearModel(
        A0=A0, A1=A1, C=np.eye(n), gsq=np.column_stack([c0, C1]),
        Sigma_v=np.diag(rng.uniform(0.5, 2.0, n)), Sigma_w=np.eye(n))
    return model, StateEstimate(x0, B @ B.T, 0.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(crossing_cases())
def test_cut_propagation_matches_split_reference(case):
    model, post = case
    out = cd_time_update(post, model, 0.0, 0.1, STEP)
    prop = _Propagator(model, STEP, [0.0, 0.1])
    prop.propagate(np.concatenate((post.xhat, post.Sigma.ravel(), [1.0])),
                   0.0, 0.1)
    assert prop.cuts == len(floor_crossings(model, post.xhat, 0.1)) >= 1
    x, S = split_rk4(model, post.xhat, post.Sigma, 0.1)
    assert rel_err(out.xhat, x) <= 1e-9
    assert rel_err(out.Sigma, S) <= 1e-9


def test_models_built_in_a_loop_each_get_their_own_exponential():
    # Back-to-back models may reuse a freed object's id(); each run must
    # still propagate with its own model's values.
    times = np.arange(6) * 0.1
    ys = np.linspace(1.0, 2.0, times.size)[:, None]
    for a1 in (-0.5, -1.0, -2.0):
        dyn = DiscreteLinearModel(A0=[1.0], A1=[[a1]], C=[[1.0]],
                                  gsq=[[2.0, 0.0]], Sigma_v=[[1.0]],
                                  Sigma_w=[[1.0]])
        model = ContinuousDiscreteModel(inner=dyn, sample_times=times)
        trace = cd_run(model, ys, StateEstimate([0.0], [[1.0]], 0.0))
        xs, Ps = classical_cd_kf([1.0], [[a1]], [[2.0]], [[1.0]], [[1.0]],
                                 times, ys, [0.0], [[1.0]])
        assert rel_err(trace.xhat_post, xs) < 1e-12
        assert rel_err(trace.Sigma_post, Ps) < 1e-12


def test_generator_is_built_once_per_floored_set(monkeypatch):
    # linspace gives gaps that differ by ulps; whatever lengths they are
    # propagated over, the generator M is built once per floored set.
    kron, kron_calls = np.kron, []

    def counting_kron(*args):
        kron_calls.append(args)
        return kron(*args)

    model = birth_death_cle()
    assert np.unique(np.diff(model.sample_times)).size >= 5
    data = simulate_cd(model, [100.0], 0, 0.01)
    monkeypatch.setattr(np, "kron", counting_kron)
    trace = cd_run(model, data.measurements,
                   StateEstimate([100.0], [[1.0]], 0.0))
    assert trace.clamp_count == 0
    assert len(kron_calls) == 2  # the two products of the Kronecker sum


def counted_spans(monkeypatch):
    """The canonical lengths of the span entries that `_Propagator` builds
    from now on, in build order."""
    built, new_span = [], _Propagator._new_span

    def counting_new_span(self, span, t0, t1):
        built.append(span)
        return new_span(self, span, t0, t1)

    monkeypatch.setattr(_Propagator, "_new_span", counting_new_span)
    return built


@pytest.mark.parametrize("name", ["birth_death_cle", "two_species_cle.txt",
                                  "pure_death_cle.txt"])
def test_cd_run_builds_one_span_on_each_shipped_model(name, monkeypatch):
    # Their gaps differ by ulps; rounded to _SPAN_BITS, they are one length.
    model = (birth_death_cle() if name == "birth_death_cle" else load_model(
        Path(__file__).resolve().parents[1] / "bench" / "models" / name))
    assert np.unique(np.diff(model.sample_times)).size >= 5
    x0 = np.full(model.n, 100.0)
    data = simulate_cd(model, x0, 1, 0.01)
    built = counted_spans(monkeypatch)
    cd_run(model, data.measurements, StateEstimate(x0, np.eye(model.n), 0.0))
    assert len(built) == 1


@pytest.mark.parametrize("gap", [0.25 * (1 + 1e-9), 0.25 + 2.0 ** -46],
                         ids=["1e-9", "outside-the-rounding"])
@pytest.mark.parametrize("n", [1, 2])
def test_gaps_that_really_differ_get_their_own_spans(gap, n, monkeypatch):
    # 0.25 + 2^-46 is the next canonical length after 0.25, 2^-44 relative
    # away.  Each length is propagated as cd_time_update propagates it.
    dyn = DiscreteLinearModel(
        A0=np.full(n, 10.0), A1=-0.1 * np.eye(n), C=np.eye(n),
        gsq=np.column_stack([np.full(n, 10.0), 0.1 * np.eye(n)]),
        Sigma_v=np.eye(n), Sigma_w=np.eye(n))
    model = ContinuousDiscreteModel(inner=dyn,
                                    sample_times=[0.0, 0.25, 0.5, 0.5 + gap])
    last = np.diff(model.sample_times)[-1]
    assert _canonical(0.25) == 0.25 != _canonical(last)
    built = counted_spans(monkeypatch)
    trace = cd_run(model, np.full((4, n), 50.0),
                   StateEstimate(np.full(n, 50.0), np.eye(n), 0.0))
    assert len(built) == 2
    ts = model.sample_times
    for k in range(len(ts) - 1):
        prior = cd_time_update(
            StateEstimate(trace.xhat_post[k], trace.Sigma_post[k], ts[k]),
            model, ts[k], ts[k + 1], default_config(model))
        assert prior.xhat.tobytes() == trace.xhat_prior[k + 1].tobytes()
        assert prior.Sigma.tobytes() == trace.Sigma_prior[k + 1].tobytes()


@pytest.mark.parametrize("seed, counts", [(0, (2, 1, 1)), (1, (2, 2, 2)),
                                          (2, (2, 2, 2)), (3, (1, 1, 1))])
def test_the_cutting_model_keeps_its_cuts(seed, counts):
    # Its gaps are all 0.5, its own canonical length: the clamped
    # intervals, the cut ones and their cuts are those of exact lengths.
    model = cutting_cd()
    data = simulate_cd(model, [0.0], seed, 0.01)
    trace = cd_run(model, data.measurements,
                   StateEstimate([0.0], np.eye(1), 0.0))
    assert (trace.clamp_count, trace.fallback_intervals,
            trace.step_count) == counts


def scipy_expm(A):
    """scipy's `expm`, the reference of the `_expm` accuracy tests; a test
    that calls it is skipped where scipy is not installed."""
    return pytest.importorskip("scipy.linalg").expm(A)


def expm_rel_err(A):
    ref = scipy_expm(A)
    return np.abs(_expm(A) - ref).max() / np.abs(ref).max()


def test_expm_matches_scipy_on_random_matrices():
    rng = np.random.default_rng(2005)
    for _ in range(200):
        n = int(rng.integers(2, 22))
        A = rng.uniform(0.01, 5.0) * rng.standard_normal((n, n))
        assert expm_rel_err(A) <= 1e-12


def test_expm_matches_scipy_at_every_pade_degree_and_with_squaring():
    # One input just inside each degree's 1-norm bound, one at twice the
    # degree-13 bound (one squaring) and one far beyond it.
    rng = np.random.default_rng(13)
    B = rng.standard_normal((7, 7))
    B /= np.linalg.norm(B, 1)
    thetas = [theta for theta, _ in _PADE]
    for norm in [0.99 * t for t in thetas] + [2 * thetas[-1], 60.0]:
        assert expm_rel_err(norm * B) <= 1e-12


def test_expm_matches_scipy_on_cle_moment_generators(monkeypatch):
    # Every exponential the propagator takes while filtering the three CLE
    # models: the moment generators M*gap and the mean generators of the
    # clamp-detection grid.
    import cukf.continuous as continuous
    args = []

    def recording_expm(A):
        args.append(A)
        return _expm(A)

    monkeypatch.setattr(continuous, "_expm", recording_expm)
    models = Path(__file__).resolve().parents[1] / "bench" / "models"
    for model in (birth_death_cle(),
                  load_model(models / "two_species_cle.txt"),
                  load_model(models / "pure_death_cle.txt")):
        data = simulate_cd(model, np.full(model.n, 100.0), 0, 0.01)
        cd_run(model, data.measurements,
               StateEstimate(np.full(model.n, 100.0), np.eye(model.n)))
    assert len(args) >= 6
    for A in args:
        assert expm_rel_err(A) <= 1e-12


def test_expm_of_zero_is_identity():
    for n in (1, 2, 7):
        assert np.array_equal(_expm(np.zeros((n, n))), np.eye(n))


def test_expm_balances_an_affine_column_that_dominates():
    # exp of [[0, 0, 0], [0, 0, a], [0, 0, 0]] is I + a e_1 e_2'.  Without
    # balancing, the squarings that a large a forces wash out the diagonal:
    # 0.99997 at a = 1e12, 0 at 1e20.
    for a in [5.5, 1e8, 1e12, 1e16, 1e20, 1e100, 1e300, 1.7e308]:
        A = np.zeros((3, 3))
        A[1, 2] = a
        E = _expm(A)
        want = np.eye(3)
        want[1, 2] = E[1, 2]
        assert np.array_equal(E, want)
        assert abs(E[1, 2] - a) <= np.finfo(float).eps * a


def test_expm_balancing_keeps_the_dynamics_and_scales_the_affine_column():
    # [[B, c], [0, 0]] with c 2^60 times larger than scipy's reference: the
    # B block must stay exp(B), and the affine column scale with c.
    rng = np.random.default_rng(1977)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = rng.uniform(0.1, 3.0) * rng.standard_normal((n, n))
        A[:n, -1] = rng.standard_normal(n)
        ref = scipy_expm(A)
        A[:n, -1] *= 2.0 ** 60
        E = _expm(A)
        assert rel_err(E[:n, :n], ref[:n, :n]) <= 1e-12
        assert rel_err(E[:n, -1], 2.0 ** 60 * ref[:n, -1]) <= 1e-12


def test_a_huge_constant_noise_intensity_reaches_the_prior():
    # One state, A1 = 0 and g^2 = 1e307: Sigma grows by 1e307 per unit of
    # time.  Unbalanced, the constant column forced ~1020 squarings and the
    # prior's Sigma came out 0.
    dyn = DiscreteLinearModel(A0=[0.0], A1=[[0.0]], C=[[1.0]],
                              gsq=[[1e307, 0.0]], Sigma_v=[[1.0]],
                              Sigma_w=[[1.0]])
    model = ContinuousDiscreteModel(inner=dyn, sample_times=[0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = cd_run(model, [[0.0], [0.0]],
                       StateEstimate([0.0], [[1.0]], 0.0), step=0.01)
    assert trace.Sigma_prior[1, 0, 0] == pytest.approx(1e307, rel=1e-12)
