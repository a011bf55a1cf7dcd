import numpy as np
import pytest

from cukf.builtin import example_sec3
from cukf.models import (ContinuousDiscreteModel, EPS_G, eval_G,
                         finite_difference_jacobian, from_cle,
                         gain_from_affine)
from cukf import modelio

from test_failures import failure_tests

globals().update(failure_tests("test_models"))


def test_eval_G_sec3_at_zero():
    G, clamped = eval_G([[100.0, 1.0]], [0.0])
    assert np.allclose(G, [[10.0]])
    assert not clamped


def test_eval_G_clamps_at_negative():
    G, clamped = eval_G([[100.0, 1.0]], [-100.0])
    assert clamped
    assert np.allclose(G, [[np.sqrt(EPS_G)]])


def test_eval_G_constant_two_states():
    gsq = [[4.0, 0, 0], [4.0, 0, 0]]
    for x in ([0.0, 0.0], [5.0, -3.0]):
        G, clamped = eval_G(gsq, x)
        assert np.allclose(G, 2 * np.eye(2))
        assert not clamped


def test_eval_G_squares_back_to_gsq():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(1, 4)
        gsq = rng.uniform(-1, 1, (n, n + 1))
        gsq[:, 0] += 5.0  # keep well above the clamp floor
        x = rng.uniform(-2, 2, n)
        vals = gsq[:, 0] + gsq[:, 1:] @ x
        if np.all(vals >= EPS_G):
            G, clamped = eval_G(gsq, x)
            assert not clamped
            assert np.allclose(np.diag(G) ** 2, vals, rtol=1e-14)


def test_from_cle_birth_death():
    dyn = from_cle(nu=[[1, -1]], propensities=[[10.0, 0.0], [0.0, 0.1]])
    assert np.allclose(dyn.A0, [10.0])
    assert np.allclose(dyn.A1, [[-0.1]])
    # g^2(x) = 10 + 0.1 x
    assert np.allclose(dyn.gsq, [[10.0, 0.1]])


def test_from_cle_variance_matches_channel_sum():
    rng = np.random.default_rng(1)
    nu = np.array([[1, -1, 0], [0, 0, 2]])
    b = np.array([[3.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.25]])
    dyn = from_cle(nu, b)
    for _ in range(20):
        x = rng.uniform(0, 10, 2)
        a = b[:, 0] + b[:, 1:] @ x
        assert np.all(a >= 0)
        expected = (nu.astype(float) ** 2) @ a
        assert np.allclose(dyn.gsq[:, 0] + dyn.gsq[:, 1:] @ x, expected,
                           rtol=1e-15)


def test_models_immutable():
    m = example_sec3()
    with pytest.raises(ValueError):
        m.A1[0, 0] = 2.0


def test_finite_difference_jacobian_matches_analytic():
    def f(x):
        return np.array([x[0] ** 2 + x[1], np.sin(x[1])])

    def Df(x):
        return np.array([[2 * x[0], 1.0], [0.0, np.cos(x[1])]])

    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        assert np.allclose(finite_difference_jacobian(f, x), Df(x),
                           rtol=1e-6, atol=1e-8)


def test_gain_from_affine_clamps():
    gain = gain_from_affine([[0.0, 1.0]])
    assert np.allclose(gain(np.array([4.0])), [[2.0]])
    assert np.allclose(gain(np.array([-1.0])), [[np.sqrt(EPS_G)]])


def test_modelio_roundtrip_discrete():
    m = example_sec3()
    m2 = modelio.loads(modelio.dumps(m))
    assert np.array_equal(m2.A0, m.A0)
    assert np.array_equal(m2.A1, m.A1)
    assert np.array_equal(m2.gsq, m.gsq)
    assert np.array_equal(m2.Sigma_w, m.Sigma_w)


def test_modelio_roundtrip_continuous(tmp_path):
    cd = ContinuousDiscreteModel(inner=example_sec3(),
                                 sample_times=np.linspace(0, 1, 11))
    path = tmp_path / "model.txt"
    modelio.save_model(cd, path)
    cd2 = modelio.load_model(path)
    assert np.array_equal(cd2.sample_times, cd.sample_times)
    assert np.array_equal(cd2.inner.A1, cd.inner.A1)
