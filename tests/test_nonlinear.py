import numpy as np
import pytest

from cukf.builtin import example_sec3, logistic
from cukf.discrete import StateEstimate, run_filter, time_update
from cukf.errors import NonFiniteStateError
from cukf.models import (DiscreteLinearModel, NonlinearModel,
                         gain_from_affine)
from cukf.simulate import simulate_batch, simulate_discrete

from reference_impl import rel_err


def linear_as_nonlinear(model: DiscreteLinearModel) -> NonlinearModel:
    return NonlinearModel(
        f=lambda x: model.A0 + model.A1 @ x,
        Df=lambda x: model.A1,
        G=gain_from_affine(model.gsq),
        C=model.C, Sigma_v=model.Sigma_v, Sigma_w=model.Sigma_w, n=model.n)


def test_linear_reduction_single_step():
    model = example_sec3()
    nlm = linear_as_nonlinear(model)
    post = StateEstimate([21.0], [[2.0]])
    a = time_update(post, model)
    b = time_update(post, nlm)
    assert np.allclose(a.xhat, b.xhat, rtol=1e-15)
    assert np.allclose(a.Sigma, b.Sigma, rtol=1e-15)


def test_square_drift_no_noise():
    model = NonlinearModel(f=lambda x: x ** 2, Df=lambda x: np.array([[2 * x[0]]]),
                           G=lambda x: np.zeros((1, 1)), C=[[1.0]],
                           Sigma_v=[[1.0]], Sigma_w=[[1.0]], n=1)
    out = time_update(StateEstimate([3.0], [[1.0]]), model)
    assert np.allclose(out.xhat, [9.0])
    assert np.allclose(out.Sigma, [[36.0]])


def test_logistic_frozen_formula_oracle():
    # Direct hand evaluation: f(50) = 52.5, Df(50) = 1.1 - 0.002*50 = 1.0,
    # g^2(50) = 50, so Sigma = 1*4*1 + 50 = 54.
    out = time_update(StateEstimate([50.0], [[4.0]]), logistic())
    assert np.allclose(out.xhat, [52.5], rtol=1e-14)
    assert np.allclose(out.Sigma, [[54.0]], rtol=1e-14)


def test_fd_jacobian_consistency_on_test_models():
    # Central differences with step 1e-5*(1+|x_i|) agree with supplied
    # Jacobians to relative 1e-4.
    rng = np.random.default_rng(20)
    models = [logistic(), linear_as_nonlinear(example_sec3())]
    for model in models:
        nofd = NonlinearModel(f=model.f, G=model.G, C=model.C,
                              Sigma_v=model.Sigma_v, Sigma_w=model.Sigma_w,
                              n=model.n)
        for _ in range(20):
            Z = np.column_stack((rng.uniform(1.0, 80.0, model.n),
                                 np.eye(model.n)))
            J_user = model.linearize(Z)[1]
            J_fd = nofd.linearize(Z)[1]
            assert np.allclose(J_fd, J_user, rtol=1e-4, atol=1e-8)


def test_propagated_covariance_dominates_noise_term():
    # Sigma_pred - G Sigma_v G is a congruence of a PSD matrix, hence PSD.
    rng = np.random.default_rng(21)
    model = logistic()
    for _ in range(100):
        B = rng.standard_normal((1, 1))
        Sigma = B @ B.T
        xhat = rng.uniform(1.0, 90.0, 1)
        out = time_update(StateEstimate(xhat, Sigma), model)
        G = np.diag(model.linearize(xhat[:, None])[2][:, 0])
        resid = out.Sigma - G @ model.Sigma_v @ G
        assert np.min(np.linalg.eigvalsh(resid)) >= -1e-10


def test_nl_run_linear_reduction_random_models():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        A1 = rng.standard_normal((n, n)) * 0.5
        gsq = np.column_stack([rng.uniform(1, 5, n),
                               rng.uniform(0, 0.1, (n, n))])
        model = DiscreteLinearModel(A0=rng.standard_normal(n), A1=A1,
                                    C=np.eye(n)[:1], gsq=gsq,
                                    Sigma_v=np.eye(n), Sigma_w=[[1.0]])
        data = simulate_discrete(model, np.ones(n), 15, rng.integers(1 << 31))
        init = StateEstimate(np.zeros(n), np.eye(n))
        a = run_filter(model, data.measurements, init)
        b = run_filter(linear_as_nonlinear(model), data.measurements, init)
        assert rel_err(a.xhat_post, b.xhat_post) < 1e-12
        assert rel_err(a.Sigma_post, b.Sigma_post) < 1e-12


def test_nl_run_degenerate_horizon():
    init = StateEstimate([30.0], [[0.0]], index=1)
    trace = run_filter(logistic(), [[28.0]], init)
    assert np.allclose(trace.xhat_post[0], [30.0])
    assert np.allclose(trace.Sigma_post[0], [[0.0]])


def test_nl_run_logistic_long_run_invariants():
    model = logistic()
    data = simulate_discrete(model, 50.0, 100, 23)
    trace = run_filter(model, data.measurements, StateEstimate([40.0], [[4.0]], 1))
    assert np.all(np.isfinite(trace.xhat_post))
    for k in range(len(trace)):
        S = trace.Sigma_post[k]
        assert np.abs(S - S.T).max() <= 1e-10 * (1 + np.abs(S).max())
        diff = trace.Sigma_prior[k] - trace.Sigma_post[k]
        assert np.min(np.linalg.eigvalsh(diff)) >= -1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_drift_raises():
    model = NonlinearModel(f=lambda x: x * np.inf, G=lambda x: np.eye(1),
                           C=[[1.0]], Sigma_v=[[1.0]], Sigma_w=[[1.0]], n=1)
    with pytest.raises(NonFiniteStateError):
        time_update(StateEstimate([1.0], [[1.0]]), model)


def test_nonfinite_posterior_fails_at_its_own_step():
    # The NaN measurement makes the step-2 posterior NaN; the time update
    # that follows would fail on it as "drift non-finite".
    model = NonlinearModel(f=lambda x: 0.9 * x + 1.0, G=lambda x: np.ones(1),
                           C=[[1.0]], Sigma_v=[[1.0]], Sigma_w=[[1.0]], n=1)
    ys = [[1.0], [np.nan], [1.0], [1.0]]
    with pytest.raises(NonFiniteStateError) as exc:
        run_filter(model, ys, StateEstimate([0.0], [[1.0]], 1))
    assert exc.value.step == 2
    assert str(exc.value) == "estimate became non-finite (at step 2)"


def test_time_update_failure_names_the_step_of_its_prior():
    # The posterior of step 3 is 20, where the finite-difference Jacobian
    # steps into f = inf: making the prior of step 4 fails.
    model = NonlinearModel(f=lambda x: np.where(x > 20, np.inf, x + 10.0),
                           G=lambda x: np.ones(1), C=[[1.0]], Sigma_v=[[1.0]],
                           Sigma_w=[[1.0]], n=1)
    ys = np.arange(0.0, 100.0, 10.0)[:, None]
    with pytest.raises(NonFiniteStateError) as exc:
        run_filter(model, ys, StateEstimate([0.0], [[1.0]], 1))
    assert exc.value.step == 4
    assert str(exc.value) == "Jacobian non-finite (at step 4)"


def test_simulated_nonfinite_drift_names_its_step_and_replicate():
    # Below 0 the logistic drift runs off to -inf; f(x) overflows making
    # the state of step 44, whichever the noise (g^2 is floored there).
    with pytest.raises(NonFiniteStateError) as exc:
        simulate_discrete(logistic(), [-5.0], 50, 0)
    assert (exc.value.replicate, exc.value.step) == (None, 44)
    assert str(exc.value) == "drift non-finite (at step 44)"
    x0 = np.full((3, 1), 50.0)
    x0[1] = -5.0
    with pytest.raises(NonFiniteStateError) as exc:
        simulate_batch(logistic(), x0, 50, [0, 1, 2])
    assert (exc.value.replicate, exc.value.step) == (1, 44)
    assert str(exc.value) == "drift non-finite (replicate 1, at step 44)"


@pytest.mark.parametrize("analytic", [True, False])
def test_linearize_is_one_pass_over_the_states(analytic):
    # f and G once per state; Df once per state only when Z carries M, or
    # else central differences of f at the 2n offset points.
    calls = {"f": 0, "Df": 0, "G": 0}

    def counted(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped

    rng = np.random.default_rng(24)
    R, n = 5, 3
    A = rng.standard_normal((n, n))
    model = NonlinearModel(
        f=counted("f", lambda x: A @ x + np.sin(x)),
        Df=counted("Df", lambda x: A + np.diag(np.cos(x))) if analytic else None,
        G=counted("G", lambda x: np.sqrt(1.0 + x ** 2)), C=np.eye(n),
        Sigma_v=np.eye(n), Sigma_w=np.eye(n), n=n)
    X = rng.standard_normal((R, n, 1))
    FZ, J, g, _ = model.linearize(X)
    assert J is None and FZ.shape == g.shape == (R, n, 1)
    assert calls == {"f": R, "Df": 0, "G": R}
    calls.update(f=0, G=0)
    Z = np.concatenate((X, rng.standard_normal((R, n, 2))), axis=-1)
    FZ, J, g, _ = model.linearize(Z)
    assert FZ.shape == (R, n, 3) and J.shape == (R, n, n)
    if analytic:
        assert calls == {"f": R, "Df": R, "G": R}
    else:
        assert calls == {"f": R * (1 + 2 * n), "Df": 0, "G": R}
