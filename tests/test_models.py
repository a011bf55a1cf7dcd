import numpy as np
import pytest

from cukf.builtin import example_sec3
from cukf.errors import ModelError, NonDiagonalizableError
from cukf.models import (ContinuousDiscreteModel, DiscreteLinearModel,
                         EPS_G, NonlinearModel, eval_G,
                         finite_difference_jacobian, from_cle,
                         gain_from_affine, with_fixed_noise)
from cukf import modelio


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


def test_from_cle_multispecies_rejected():
    with pytest.raises(NonDiagonalizableError):
        from_cle(nu=[[1], [-1]], propensities=[[1.0, 0.0, 0.0]])


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


@pytest.mark.parametrize("nu", [[[1, -0.5]], [[1, np.nan]], [[1, np.inf]]])
def test_from_cle_rejects_a_non_integer_stoichiometry(nu):
    with pytest.raises(ModelError, match="^stoichiometry entries must be integers$"):
        from_cle(nu, [[10.0, 0.0], [0.0, 0.1]])


@pytest.mark.parametrize("propensities, got", [
    ([[10.0, 0.0]], r"\(1, 2\)"),                    # one row for two reactions
    ([[10.0, 0.0, 0.0], [0.0, 0.1, 0.0]], r"\(2, 3\)"),  # a column too many
    ([10.0, 0.1], r"\(1, 2\)"),
])
def test_from_cle_rejects_propensities_of_the_wrong_shape(propensities, got):
    with pytest.raises(ModelError,
                       match=r"^propensities must have shape \(2, 2\), got " + got):
        from_cle([[1, -1]], propensities)


def test_models_immutable():
    m = example_sec3()
    with pytest.raises(ValueError):
        m.A1[0, 0] = 2.0


def test_sample_times_must_increase():
    with pytest.raises(ValueError):
        ContinuousDiscreteModel(inner=example_sec3(), sample_times=[0.0, 0.0])


def test_sample_times_must_be_finite():
    with pytest.raises(ModelError, match="non-finite"):
        ContinuousDiscreteModel(inner=example_sec3(),
                                sample_times=[0.0, np.nan, 1.0])


def test_nonlinear_gain_rejects_offdiagonal():
    model = NonlinearModel(f=lambda x: x, G=lambda x: np.ones((2, 2)),
                           C=np.eye(2), Sigma_v=np.eye(2), Sigma_w=np.eye(2),
                           n=2)
    with pytest.raises(ValueError):
        model.linearize(np.zeros((2, 1)))


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


def test_modelio_rejects_unknown_key():
    text = modelio.dumps(example_sec3()) + "bogus = 1\n"
    with pytest.raises(ValueError):
        modelio.loads(text)


@pytest.mark.parametrize("line", ["n = 1.7", "n = 0", "n = -1", "n = nan",
                                  "m = 1.5", "m = inf"])
def test_modelio_rejects_dimension_that_is_not_a_positive_integer(line):
    key = line.split()[0]
    text = modelio.dumps(example_sec3()).replace(f"{key} = 1", line)
    with pytest.raises(ModelError, match=f"{key} must be a positive integer"):
        modelio.loads(text)


def test_modelio_refuses_to_drop_off_diagonal_sigma_v():
    with pytest.raises(ModelError, match="^Sigma_v must be diagonal$"):
        m = DiscreteLinearModel(A0=[0, 0], A1=np.eye(2), C=np.eye(2),
                                gsq=np.zeros((2, 3)),
                                Sigma_v=[[1, 0.5], [0.5, 1]],
                                Sigma_w=np.eye(2))
        modelio.dumps(m)


def test_non_diagonal_sigma_v_is_refused_at_construction():
    # Every consumer but the discrete time update reads diag(Sigma_v) only.
    Sigma_v = [[1.0, 0.99], [0.99, 1.0]]
    with pytest.raises(ModelError, match="^Sigma_v must be diagonal$"):
        DiscreteLinearModel(A0=[0, 0], A1=np.zeros((2, 2)), C=np.eye(2),
                            gsq=[[1.0, 0, 0], [1.0, 0, 0]], Sigma_v=Sigma_v,
                            Sigma_w=np.eye(2))
    with pytest.raises(ModelError, match="^Sigma_v must be diagonal$"):
        NonlinearModel(f=lambda x: x, G=lambda x: np.ones(2), C=np.eye(2),
                       Sigma_v=Sigma_v, Sigma_w=np.eye(2), n=2)


def sec3_fields(**changes):
    fields = dict(A0=[1.0], A1=[[0.99]], C=[[1.0]], gsq=[[100.0, 1.0]],
                  Sigma_v=[[1.0]], Sigma_w=[[1.0]])
    fields.update(changes)
    return fields


@pytest.mark.parametrize("field,value", [
    ("A0", [np.nan]), ("A1", [[np.inf]]), ("C", [[np.nan]]),
    ("gsq", [[100.0, np.nan]]), ("Sigma_v", [[np.nan]]),
    ("Sigma_w", [[np.inf]]),
])
def test_model_rejects_non_finite_entries(field, value):
    with pytest.raises(ModelError, match=field):
        DiscreteLinearModel(**sec3_fields(**{field: value}))


def test_model_rejects_negative_sigma_v_diagonal():
    with pytest.raises(ModelError, match="Sigma_v"):
        DiscreteLinearModel(**sec3_fields(Sigma_v=[[-1.0]]))


def test_model_rejects_nonsymmetric_sigma_w():
    with pytest.raises(ModelError, match="symmetric"):
        DiscreteLinearModel(A0=[0, 0], A1=np.eye(2), C=np.eye(2),
                            gsq=np.zeros((2, 3)), Sigma_v=np.eye(2),
                            Sigma_w=[[1.0, 0.5], [0.0, 1.0]])


def test_model_rejects_sigma_w_with_negative_eigenvalue():
    # Symmetric with a positive diagonal, eigenvalues -1 and 3.
    with pytest.raises(ModelError, match="eigenvalue"):
        DiscreteLinearModel(A0=[0, 0], A1=np.eye(2), C=np.eye(2),
                            gsq=np.zeros((2, 3)), Sigma_v=np.eye(2),
                            Sigma_w=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ModelError, match="eigenvalue"):
        DiscreteLinearModel(**sec3_fields(Sigma_w=[[-1.0]]))


def test_fixed_noise_rejects_non_finite_beta():
    for beta in (np.nan, np.inf, -1.0):
        with pytest.raises(ModelError, match="beta"):
            with_fixed_noise(example_sec3(), beta)


@pytest.mark.filterwarnings("error")
def test_fixed_noise_rejects_a_beta_whose_square_overflows():
    for beta in (1e308, np.float64(1e155)):
        with pytest.raises(ModelError, match="finite square"):
            with_fixed_noise(example_sec3(), beta)
    assert with_fixed_noise(example_sec3(), 1e154).Sigma_v[0, 0] < np.inf
