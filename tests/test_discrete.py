import csv
import os

import numpy as np
import pytest

from cukf.builtin import example_sec3
from cukf.discrete import (FilterTrace, StateEstimate, _predictor, _run_loop,
                           _write_csv, measurement_update, run_filter,
                           run_filter_batch, time_update)
from cukf.models import DiscreteLinearModel, with_fixed_noise
from cukf.simulate import simulate_discrete

from reference_impl import random_constant_noise_model, rel_err, textbook_kf
from test_failures import failure_tests

globals().update(failure_tests("test_discrete"))


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
    pred = time_update(StateEstimate([0.0], [[1.0]]), model)
    assert np.allclose(pred.Sigma, [[0.9901]])


def test_fixed_time_update_beta_zero():
    model = with_fixed_noise(example_sec3(), 0.0)
    pred = time_update(StateEstimate([2.0], [[3.0]]), model)
    assert np.allclose(pred.Sigma, [[0.99 ** 2 * 3.0]])


def test_fixed_time_update_zero_covariance():
    model = with_fixed_noise(example_sec3(), 10.0)
    pred = time_update(StateEstimate([0.0], [[0.0]]), model)
    assert np.allclose(pred.Sigma, [[100.0]])


def test_run_filter_degenerate_horizon():
    model = example_sec3()
    init = StateEstimate([5.0], [[0.0]], index=1)
    trace = run_filter(model, [[7.0]], init)
    assert len(trace) == 1
    assert np.allclose(trace.xhat_post[0], [5.0])
    assert np.allclose(trace.Sigma_post[0], [[0.0]])


def test_run_filter_constant_gain_matches_textbook_kf():
    # Two constant-gain inputs per draw: a constant g^2, and the fixed-beta
    # baseline of the state-dependent model, whose process noise is
    # beta^2 Sigma_v whatever the affine g^2 was.
    rng = np.random.default_rng(10)
    beta_rng = np.random.default_rng(11)
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
        beta = beta_rng.uniform(0.0, 2.0)
        affine = DiscreteLinearModel(
            A0=p["A0"], A1=p["A1"], C=p["C"],
            gsq=np.column_stack([p["g2"],
                                 beta_rng.uniform(-1, 1, (p["n"], p["n"]))]),
            Sigma_v=np.diag(p["sv"]), Sigma_w=p["Sigma_w"])
        for run_model, Q in ((model, np.diag(p["g2"] * p["sv"])),
                             (with_fixed_noise(affine, beta),
                              beta ** 2 * np.diag(p["sv"]))):
            trace = run_filter(run_model, data.measurements,
                               StateEstimate(x0, P0))
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


def test_clamps_are_counted_from_the_posteriors_that_a_time_update_follows():
    # g^2 = x, floored where a posterior is below EPS_G.  Replicate 0 floors
    # only at its last posterior, which no time update follows, so it
    # counts none; replicate 1 floors at step 1 only; replicate 2 never.
    model = DiscreteLinearModel(A0=[2.0], A1=[[0.5]], C=[[1.0]],
                                gsq=[[0.0, 1.0]], Sigma_v=[[1.0]],
                                Sigma_w=[[1e-6]])
    ms = np.ones((3, 5, 1))
    ms[0, -1] = ms[1, 0] = -1.0
    xhat, Sigma = np.ones((3, 1)), np.eye(1)
    numpy_loop = _run_loop(ms, xhat, Sigma, _predictor(model), model.C,
                           model.Sigma_w)
    assert numpy_loop.clamp_count.tolist() == [0, 1, 0]
    trace = run_filter_batch(model, ms, xhat, Sigma)
    assert trace.xhat_post[0, -1, 0] < 0 and trace.xhat_post[1, 0, 0] < 0
    assert trace.clamp_count.tolist() == [0, 1, 0]
    for r in range(3):  # one replicate, in Python floats
        one = run_filter_batch(model, ms[r:r + 1], xhat[r:r + 1], Sigma)
        assert one.clamp_count.tolist() == [numpy_loop.clamp_count[r]]


SPECIAL_VALUES = np.array([-0.0, 5e-324, 1e300, 0.1, -2.5, 1 / 3, 1e-7, 42.0])


def per_value_repr_trace_csv(trace, path):
    # The writer as it was before rows came from .tolist().
    n = trace.xhat_post.shape[1]
    m = trace.innovation.shape[1]
    iu = np.triu_indices(n)
    header = ["k"]
    if trace.times is not None:
        header.append("t")
    header += [f"xhat_prior_{i}" for i in range(n)]
    header += [f"xhat_post_{i}" for i in range(n)]
    header += [f"innovation_{i}" for i in range(m)]
    header += [f"S_diag_{i}" for i in range(m)]
    header += [f"Sigma_post_{i}{j}" for i, j in zip(*iu)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(len(trace)):
            row = [trace.indices[k]]
            if trace.times is not None:
                row.append(repr(float(trace.times[k])))
            row += [repr(float(v)) for v in trace.xhat_prior[k]]
            row += [repr(float(v)) for v in trace.xhat_post[k]]
            row += [repr(float(v)) for v in trace.innovation[k]]
            row += [repr(float(v)) for v in np.diag(trace.S[k])]
            row += [repr(float(v)) for v in trace.Sigma_post[k][iu]]
            w.writerow(row)


@pytest.mark.parametrize("timed", [False, True])
def test_trace_csv_bytes_match_per_value_repr_writer(tmp_path, timed):
    rng = np.random.default_rng(7)
    N, n, m = 9, 2, 2

    def draw(*shape):
        return rng.choice(SPECIAL_VALUES, size=shape)

    trace = FilterTrace(
        indices=np.arange(3, 3 + N), xhat_prior=draw(N, n),
        Sigma_prior=draw(N, n, n), xhat_post=draw(N, n),
        Sigma_post=draw(N, n, n), innovation=draw(N, m), S=draw(N, m, m),
        gain=draw(N, n, m), times=draw(N) if timed else None)
    trace.to_csv(tmp_path / "new.csv")
    per_value_repr_trace_csv(trace, tmp_path / "old.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    for text in (b"-0.0", b"5e-324", b"1e+300"):
        assert text in new


def test_a_failed_write_leaves_no_file_and_keeps_the_old_one(tmp_path):
    def rows():
        yield [1, 0.5]
        raise RuntimeError("row 2")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="row 2"):
        _write_csv(target, ["k", "x"], rows())
    assert os.listdir(tmp_path) == []
    target.write_bytes(b"k,x\r\n1,0.25\r\n")
    with pytest.raises(RuntimeError, match="row 2"):
        _write_csv(target, ["k", "x"], rows())
    assert os.listdir(tmp_path) == ["out.csv"]
    assert target.read_bytes() == b"k,x\r\n1,0.25\r\n"
    _write_csv(target, ["k", "x"], iter([[1, 0.5], [2, -0.0]]))
    assert target.read_bytes() == b"k,x\r\n1,0.5\r\n2,-0.0\r\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_an_output_file_has_the_mode_the_umask_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        _write_csv(tmp_path / "out.csv", ["k"], [[1]])
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "out.csv").st_mode & 0o777 == mode
