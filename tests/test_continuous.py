import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cukf import discrete
from cukf.builtin import birth_death_cle, example_sec3
from cukf.cli import parse_and_dispatch
from cukf.continuous import (_MARGIN, _PADE, _Propagator, _canonical, _expm,
                             _interval, cd_run, cd_time_update, default_config,
                             euler_limit_check)
from cukf.discrete import StateEstimate, time_update
from cukf.errors import FilterError, NonFiniteStateError
from cukf.models import ContinuousDiscreteModel, DiscreteLinearModel
from cukf.simulate import simulate_cd

from reference_impl import (EPS_G, _rk4, classical_cd_kf,
                            concatenated_node_map, floor_crossings,
                            kron_generator, random_constant_noise_model,
                            rel_err, split_rk4, triu_affine,
                            vanloan_discretize)
from routes import (CD_ROUTES, CUTTING, MODELS, SHIPPED, cd_model,
                    check_cd_routes, linear_cd, outcome, route, same,
                    simulated, table_tests)
from test_failures import failure_tests

globals().update(failure_tests("test_continuous"))
globals().update(table_tests(CD_ROUTES, "test_continuous", check_cd_routes))

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
    model = cd_model({"two_species": "two_species_cle.txt"}.get(name, name))
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


def test_cd_run_constant_gain_matches_classical():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_constant_noise_model(rng, n=int(rng.integers(1, 3)))
        n = p["n"]
        times = np.arange(30) * 0.1
        model = linear_cd(times, A0=p["A0"], A1=p["A1"], C=p["C"],
                          gsq=np.column_stack([p["g2"], np.zeros((n, n))]),
                          Sigma_v=np.diag(p["sv"]), Sigma_w=p["Sigma_w"])
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


def test_cd_trace_csv_has_time_column_and_sidecar(tmp_path, monkeypatch):
    # The CLI writes the continuous-discrete run's counts beside its trace,
    # and its run is cd_run on CD_ROUTES' inputs of that argv.
    monkeypatch.delenv("CUKF_OUTPUT_DIR", raising=False)
    assert parse_and_dispatch([
        "filter", "--model", str(MODELS / "pure_death_cle.txt"), "--x0", "100",
        "--out", str(tmp_path)]) == 0
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header.split(",")[1] == "t"
    trace = cd_run(*simulated("pure_death_cle.txt", 100.0, 0, None))
    trace.to_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (
        tmp_path / "trace.csv").read_bytes()
    assert trace.clamp_count > 0
    assert (tmp_path / "trace_summary.csv").read_bytes() == (
        f"key,value\r\nclamp_count,{trace.clamp_count}\r\n"
        f"step_count,{trace.step_count}\r\n"
        f"fallback_intervals,{trace.fallback_intervals}\r\n").encode()


def test_the_gaps_of_the_shipped_models_differ_by_ulps():
    # So that the one span each builds (CD_ROUTES) is _canonical's doing.
    for name in SHIPPED:
        assert np.unique(np.diff(cd_model(name).sample_times)).size >= 5


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
    model = linear_cd([0.0, gap], A0=[A0], A1=[[-2.0]], C=[[1.0]],
                      gsq=[[c0, 2.0]], Sigma_v=[[1.0]], Sigma_w=[[1.0]])
    post = StateEstimate([x0], [[0.5]], 0.0)
    return model.inner, cd_run(model, [[x0], [0.0]], post)


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


@pytest.mark.parametrize("seed", range(4))
def test_a_failed_kernel_run_leaves_the_counts_to_the_numpy_loop(
        seed, monkeypatch):
    # The kernel runs the cutting model, cuts its intervals and then raises:
    # the numpy loop's rerun gives the trace and counts, as it does alone.
    model, ms, prior = simulated(CUTTING, 0.0, seed)
    want = outcome(lambda: cd_run(model, ms, prior), "kernel")
    kernel, cut = discrete._linear_steps, []

    def failing(models, R, prop=None):
        steps = kernel(models, R, prop)

        def run(*buffers):
            steps(*buffers)
            cut.append(bool(prop.cuts))
            raise FilterError("the kernel run fails")
        return run

    monkeypatch.setattr(discrete, "_linear_steps", failing)
    same(outcome(lambda: cd_run(model, ms, prior)), want)
    assert cut == [True] and want["fallback_intervals"] >= 1


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


@settings(max_examples=20)
@given(crossing_cases())
def test_cut_propagation_matches_split_reference(case):
    model, post = case
    out = cd_time_update(post, model, 0.0, 0.1, STEP)
    prop = _Propagator(model, STEP, [0.0, 0.1])
    prop.propagate(np.concatenate((post.xhat, post.Sigma.ravel(), [1.0])),
                   0.0, 0.1)
    assert prop.cuts == {0.0: len(floor_crossings(model, post.xhat, 0.1))}
    assert prop.cuts[0.0] >= 1
    x, S = split_rk4(model, post.xhat, post.Sigma, 0.1)
    assert rel_err(out.xhat, x) <= 1e-9
    assert rel_err(out.Sigma, S) <= 1e-9


@st.composite
def interval_cases(draw):
    """(model, x, Sigma, gap, kinds, hazard) for one interval: n <= 3, and
    each g2_i far above the floor, far below it, crossing it near the
    middle of the gap, or at EPS_G at x, within rounding of its terms
    ("edge": on a frozen path, where every node is x, propagate's rounding
    decides whether it floors); terms up to ~1e6, whose rounding is a
    sizable part of EPS_G or more.  `hazard` puts a NaN or inf in x or
    Sigma, or scales Sigma to 1e290."""
    n = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(["above", "below", "cross", "edge",
                                           "edge"]), min_size=n, max_size=n))
    hazard = draw(st.sampled_from([None] * 6 + ["nan x", "inf x", "nan Sigma",
                                                "inf Sigma", "huge Sigma"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gap = rng.uniform(0.05, 0.5)
    A1 = rng.standard_normal((n, n))
    A1 *= rng.uniform(0.1, 2.0) / max(np.abs(np.linalg.eigvals(A1)).max(), 1e-6)
    A0 = 5.0 * rng.standard_normal(n)
    if draw(st.booleans()):  # a frozen path: every node is x
        A0, A1 = np.zeros(n), np.zeros((n, n))
    x = rng.choice([1.0, 1e3, 1e6]) * rng.standard_normal(n)
    C1 = rng.standard_normal((n, n))
    mid = x + 0.5 * gap * (A0 + A1 @ x)  # about the path's midpoint
    size = 1.0 + np.abs(C1) @ (np.abs(x) + np.abs(mid))
    c0 = np.empty(n)
    for i, kind in enumerate(kinds):
        if kind in ("above", "below"):
            c0[i] = (1e3 if kind == "above" else -1e3) * size[i]
        elif kind == "cross":
            c0[i] = EPS_G - C1[i] @ mid
        else:
            c0[i] = EPS_G - C1[i] @ x
    B = rng.standard_normal((n, n))
    Sigma = B @ B.T
    model = DiscreteLinearModel(
        A0=A0, A1=A1, C=np.eye(n), gsq=np.column_stack([c0, C1]),
        Sigma_v=np.diag(rng.uniform(0.5, 2.0, n)), Sigma_w=np.eye(n))
    i, j = rng.integers(n, size=2)
    if hazard in ("nan x", "inf x"):
        x[i] = np.nan if hazard == "nan x" else rng.choice([np.inf, -np.inf])
    elif hazard in ("nan Sigma", "inf Sigma"):
        Sigma[i, j] = Sigma[j, i] = np.nan if hazard == "nan Sigma" else np.inf
    elif hazard == "huge Sigma":
        Sigma *= 1e290
    return model, x, Sigma, gap, kinds, hazard


def interval_outcome(model, x, Sigma, gap, generated):
    """One interval [0, gap] from x and Sigma, by the generated time update
    (`continuous._interval`) if `generated`, else by `propagate`: x', the
    upper triangle of Sigma' (propagate's two triangles averaged) and the
    floored flag, or the error (class and message); and whether it called
    `propagate` (`routes.route`)."""
    n = model.n
    iu = np.triu_indices(n)
    prop = _Propagator(model, gap / 100, [0.0, gap])
    with route() as taken, np.errstate(invalid="ignore", over="ignore"):
        try:
            if generated:
                *xP, floored = _interval(n)(prop, 0, *x, *Sigma[iu])
                out = xP[:n], xP[n:], floored
            else:
                z, floored = prop.propagate(np.r_[x, Sigma.T.ravel(), 1.0],
                                            0.0, gap)
                S = z[n:-1].reshape(n, n).T
                out = z[:n].tolist(), (0.5 * (S + S.T))[iu].tolist(), floored
        except NonFiniteStateError as exc:
            out = type(exc), str(exc)
    return out, ("propagate", 0.0) in taken


@settings(max_examples=200)
@given(interval_cases())
def test_the_generated_interval_is_propagate_where_its_bounds_decide(case):
    # Where the node bounds decide every g2_i, the generated time update
    # takes the affine map of that floored set: within 1e-12 of propagate,
    # with its floored flag.  Elsewhere, and for a NaN or inf input, it
    # calls propagate, so it is propagate.  A bound test without its margin
    # would misjudge an "edge" g2_i that propagate's rounding floors.
    model, x, Sigma, gap, kinds, hazard = case
    got, calls = interval_outcome(model, x, Sigma, gap, True)
    want, _ = interval_outcome(model, x, Sigma, gap, False)
    if hazard in ("nan x", "inf x", "nan Sigma", "inf Sigma"):
        assert calls
    if hazard in (None, "huge Sigma") and set(kinds) <= {"above", "below"}:
        assert not calls
    if calls or isinstance(want[0], type):
        assert got == want
        return
    assert got[2] == want[2]
    for g, w in zip(got[:2], want[:2]):
        g, w = np.array(g), np.array(w)
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@st.composite
def set_up_cases(draw):
    """(model, gap, nsteps) for one interval [0, gap] of n <= 3 states on a
    grid of nsteps steps: A1 with a negative entry off the diagonal (n > 1)
    and entries of +0.0 and -0.0, whose Kronecker sum has -0.0 entries; A0
    and the g2 rows with zeros too; g2_0 floored at the origin; a gap of 0
    or up to 2; nsteps whose 2 nsteps + 1 nodes are 2^k + 1 (1, 8) or not
    (7, 100)."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A1 = rng.standard_normal((n, n))
    A1 *= rng.uniform(0.1, 2.0) / max(np.abs(np.linalg.eigvals(A1)).max(), 1e-6)
    if n > 1:
        A1[0, 1] = -abs(A1[0, 1])
    zeros = rng.random((n, n))
    A1[zeros < 0.2], A1[zeros > 0.8] = 0.0, -0.0
    A0 = 5.0 * rng.standard_normal(n) * (rng.random(n) < 0.7)
    gsq = np.column_stack([rng.choice([1.0, 1e3], n) * rng.standard_normal(n),
                           rng.standard_normal((n, n))])
    gsq[:, 1:][rng.random((n, n)) < 0.3] = -0.0
    gsq[0, 0] = -1.0
    model = DiscreteLinearModel(
        A0=A0, A1=A1, C=np.eye(n), gsq=gsq,
        Sigma_v=np.diag(rng.uniform(0.5, 2.0, n)), Sigma_w=np.eye(n))
    gap = draw(st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.5, 1.0, 2.0]))
    return model, gap, draw(st.sampled_from([1, 7, 8, 100]))


@settings(max_examples=100)
@given(set_up_cases())
def test_the_propagator_set_up_is_its_first_form_bit_for_bit(case):
    # The set-up of a span (node map and bounds) and of every floored set
    # (generator and affine coefficients) equals, byte for byte, the form
    # kept in reference_impl: Kronecker products, a concatenated doubling,
    # triu_indices.  A Kronecker sum accumulated into zeros turns a -0.0
    # entry of M into +0.0, and fails here.
    model, gap, nsteps = case
    n = model.n
    span = _canonical(gap) if gap else 1.0
    prop = _Propagator(model, span / nsteps, [0.0, gap])

    def same_bytes(got, want):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    if not gap:  # NaN bounds, which decide nothing, and nothing else
        assert len(prop.coeffs[0]) == 1
        same_bytes(prop.coeffs[0][0], np.full(2 * n * (n + 1), np.nan))
        return
    w0, W1, bounds = concatenated_node_map(model, span, nsteps, _expm,
                                           _MARGIN)
    for got, want in zip(prop._new_span(span, 0.0, gap), (w0, W1)):
        same_bytes(got, want)
    assert len(w0) == n * (2 * nsteps + 1)
    same_bytes(prop.coeffs[0][0], bounds)
    for key in range(2 ** n):
        M = kron_generator(model, key)
        same_bytes(prop._generator(key), M)
        same_bytes(prop.affine(0, key), triu_affine(_expm(M * span), n))


def test_models_built_in_a_loop_each_get_their_own_exponential():
    # Back-to-back models may reuse a freed object's id(); each run must
    # still propagate with its own model's values.
    times = np.arange(6) * 0.1
    ys = np.linspace(1.0, 2.0, times.size)[:, None]
    for a1 in (-0.5, -1.0, -2.0):
        model = linear_cd(times, A0=[1.0], A1=[[a1]], C=[[1.0]],
                          gsq=[[2.0, 0.0]], Sigma_v=[[1.0]], Sigma_w=[[1.0]])
        trace = cd_run(model, ys, StateEstimate([0.0], [[1.0]], 0.0))
        xs, Ps = classical_cd_kf([1.0], [[a1]], [[2.0]], [[1.0]], [[1.0]],
                                 times, ys, [0.0], [[1.0]])
        assert rel_err(trace.xhat_post, xs) < 1e-12
        assert rel_err(trace.Sigma_post, Ps) < 1e-12


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
    for name in SHIPPED:
        cd_run(*simulated(name, 100.0, 0))
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
    model = linear_cd([0.0, 1.0], A0=[0.0], A1=[[0.0]], C=[[1.0]],
                      gsq=[[1e307, 0.0]], Sigma_v=[[1.0]], Sigma_w=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = cd_run(model, [[0.0], [0.0]],
                       StateEstimate([0.0], [[1.0]], 0.0), step=0.01)
    assert trace.Sigma_prior[1, 0, 0] == pytest.approx(1e307, rel=1e-12)
