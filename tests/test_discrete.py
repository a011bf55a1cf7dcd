import numpy as np
import pytest

from cukf.builtin import example_sec3
from cukf.discrete import (FilterTrace, StateEstimate, kf_fixed_time_update,
                           measurement_update, run_filter, run_filter_batch,
                           time_update)
from cukf.errors import NonFiniteStateError, SingularInnovationError
from cukf.models import DiscreteLinearModel, with_fixed_noise
from cukf.simulate import simulate_discrete

from reference_impl import random_constant_noise_model, rel_err, textbook_kf


def test_measurement_update_zero_prior_covariance():
    prior = StateEstimate(xhat=[3.0], Sigma=[[0.0]], index=1)
    post = measurement_update(prior, [99.0], [[1.0]], [[1.0]])
    assert np.allclose(post.xhat, [3.0])
    assert np.allclose(post.Sigma, [[0.0]])


def test_measurement_update_scalar():
    prior = StateEstimate(xhat=[0.0], Sigma=[[1.0]], index=1)
    post = measurement_update(prior, [2.0], [[1.0]], [[1.0]])
    assert np.allclose(post.xhat, [1.0])
    assert np.allclose(post.Sigma, [[0.5]])


def test_measurement_update_two_state_frozen_oracle():
    # Frozen from a straight-line evaluation of the update formulas:
    # S = 3, K = [2/3, 1/3], xhat = [2, 1], Sigma = [[2/3,1/3],[1/3,8/3]].
    prior = StateEstimate(xhat=[0.0, 0.0], Sigma=[[2.0, 1.0], [1.0, 3.0]])
    post = measurement_update(prior, [3.0], [[1.0, 0.0]], [[1.0]])
    assert np.allclose(post.xhat, [2.0, 1.0], rtol=1e-14)
    assert np.allclose(post.Sigma,
                       [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 8.0 / 3.0]],
                       rtol=1e-14)


def test_measurement_update_singular_innovation():
    prior = StateEstimate(xhat=[0.0], Sigma=[[0.0]])
    with pytest.raises(SingularInnovationError):
        measurement_update(prior, [1.0], [[1.0]], [[0.0]])


def test_time_update_sec3_from_origin():
    model = example_sec3()
    post = StateEstimate(xhat=[0.0], Sigma=[[0.0]])
    pred = time_update(post, model)
    assert np.allclose(pred.xhat, [1.0])
    assert np.allclose(pred.Sigma, [[100.0]])


def test_time_update_pure_noise():
    model = DiscreteLinearModel(A0=[0, 0], A1=np.zeros((2, 2)), C=np.eye(2),
                                gsq=[[1.0, 0, 0], [1.0, 0, 0]],
                                Sigma_v=np.eye(2), Sigma_w=np.eye(2))
    for sigma in (np.zeros((2, 2)), np.eye(2) * 7):
        pred = time_update(StateEstimate([3.0, -1.0], sigma), model)
        assert np.allclose(pred.Sigma, np.eye(2))


def test_time_update_sec3_arithmetic():
    pred = time_update(StateEstimate([21.0], [[2.0]]), example_sec3())
    assert np.allclose(pred.xhat, [21.79])
    assert np.allclose(pred.Sigma, [[122.9602]])


def test_fixed_time_update_beta_point_one():
    model = with_fixed_noise(example_sec3(), 0.1)
    pred = kf_fixed_time_update(StateEstimate([0.0], [[1.0]]), model)
    assert np.allclose(pred.Sigma, [[0.9901]])


def test_fixed_time_update_beta_zero():
    model = with_fixed_noise(example_sec3(), 0.0)
    pred = kf_fixed_time_update(StateEstimate([2.0], [[3.0]]), model)
    assert np.allclose(pred.Sigma, [[0.99 ** 2 * 3.0]])


def test_fixed_time_update_zero_covariance():
    model = with_fixed_noise(example_sec3(), 10.0)
    pred = kf_fixed_time_update(StateEstimate([0.0], [[0.0]]), model)
    assert np.allclose(pred.Sigma, [[100.0]])


def test_run_filter_degenerate_horizon():
    model = example_sec3()
    init = StateEstimate([5.0], [[0.0]], index=1)
    trace = run_filter(model, [[7.0]], init)
    assert len(trace) == 1
    assert np.allclose(trace.xhat_post[0], [5.0])
    assert np.allclose(trace.Sigma_post[0], [[0.0]])


def test_run_filter_constant_gain_matches_textbook_kf():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_constant_noise_model(rng)
        model = DiscreteLinearModel(
            A0=p["A0"], A1=p["A1"], C=p["C"],
            gsq=np.column_stack([p["g2"], np.zeros((p["n"], p["n"]))]),
            Sigma_v=np.diag(p["sv"]), Sigma_w=p["Sigma_w"])
        data = simulate_discrete(model, rng.standard_normal(p["n"]), 30,
                                 rng.integers(1 << 31))
        x0 = rng.standard_normal(p["n"])
        P0 = np.eye(p["n"])
        trace = run_filter(model, data.measurements, StateEstimate(x0, P0))
        Q = np.diag(p["g2"] * p["sv"])
        xs, Ps = textbook_kf(p["A0"], p["A1"], p["C"], Q, p["Sigma_w"],
                             data.measurements, x0, P0)
        assert rel_err(trace.xhat_post, xs) < 1e-12
        assert rel_err(trace.Sigma_post, Ps) < 1e-12


def test_gain_identity():
    # K_k equals Sigma_post C' Sigma_w^{-1} (the information-form gain).
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 40, 5)
    trace = run_filter(model, data.measurements, StateEstimate([0.0], [[2.0]]))
    Rw_inv = np.linalg.inv(model.Sigma_w)
    for k in range(len(trace)):
        K_alt = trace.Sigma_post[k] @ model.C.T @ Rw_inv
        assert np.allclose(trace.gain[k], K_alt, rtol=1e-9, atol=1e-12)


def test_posterior_covariance_dominated_by_prior():
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 60, 6)
    trace = run_filter(model, data.measurements, StateEstimate([0.0], [[0.0]]))
    for k in range(len(trace)):
        diff = trace.Sigma_prior[k] - trace.Sigma_post[k]
        assert np.min(np.linalg.eigvalsh(diff)) >= -1e-10


def test_covariances_stay_symmetric_psd():
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 60, 7)
    trace = run_filter(model, data.measurements, StateEstimate([0.0], [[1.0]]))
    for S in np.concatenate([trace.Sigma_prior, trace.Sigma_post]):
        scale = 1.0 + np.abs(S).max()
        assert np.abs(S - S.T).max() <= 1e-10 * scale
        assert np.min(np.linalg.eigvalsh(S)) >= -1e-10 * np.linalg.norm(S, 2)


def test_trace_csv_schema(tmp_path):
    model = example_sec3()
    data = simulate_discrete(model, 1.0, 5, 8)
    trace = run_filter(model, data.measurements, StateEstimate([0.0], [[1.0]]))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("k,xhat_prior_0,xhat_post_0,innovation_0,"
                       "S_diag_0,Sigma_post_00")
    assert len(lines) == 6


def test_run_filter_error_carries_step_index():
    model = DiscreteLinearModel(A0=[0.0], A1=[[1.0]], C=[[1.0]],
                                gsq=[[0.0, 0.0]], Sigma_v=[[1.0]],
                                Sigma_w=[[0.0]])
    init = StateEstimate([0.0], [[0.0]], index=1)
    with pytest.raises(SingularInnovationError) as exc:
        run_filter(model, [[1.0], [2.0]], init)
    assert exc.value.step == 1


def test_batch_errors_name_the_first_failing_replicate():
    model = DiscreteLinearModel(A0=[0.0], A1=[[1.0]], C=[[1.0]],
                                gsq=[[1.0, 0.0]], Sigma_v=[[1.0]],
                                Sigma_w=[[0.0]])
    ys = np.ones((4, 5, 1))
    Sigma0 = np.ones((4, 1, 1))
    Sigma0[2] = 0.0  # S = C Sigma C' + 0 is singular for replicate 2 only
    with pytest.raises(SingularInnovationError) as exc:
        run_filter_batch(model, ys, np.zeros((4, 1)), Sigma0)
    assert (exc.value.replicate, exc.value.step) == (2, 1)
    assert "(replicate 2, at step 1)" in str(exc.value)
    ys[1, 3] = np.nan
    ys[3, 2] = np.inf
    with pytest.raises(NonFiniteStateError) as exc:
        run_filter_batch(model, ys, np.zeros((4, 1)), np.eye(1))
    assert (exc.value.replicate, exc.value.step) == (3, 3)
    assert "(replicate 3, at step 3)" in str(exc.value)
