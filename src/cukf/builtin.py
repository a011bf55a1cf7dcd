"""Named models shipped with the package."""

import numpy as np

from .models import (ContinuousDiscreteModel, DiscreteLinearModel,
                     NonlinearModel, from_cle, gain_from_affine)


def example_sec3() -> DiscreteLinearModel:
    """Scalar model x_{k+1} = 1 + 0.99 x_k + sqrt(100 + x_k) v_k, y = x + w,
    unit noise covariances."""
    return DiscreteLinearModel(A0=[1.0], A1=[[0.99]], C=[[1.0]],
                               gsq=[[100.0, 1.0]], Sigma_v=[[1.0]],
                               Sigma_w=[[1.0]])


def birth_death_cle(t_end: float = 5.0, n_samples: int = 51) -> ContinuousDiscreteModel:
    """Diffusion approximation of the birth-death process (one species,
    constant birth at rate 10, linear death at rate 0.1), sampled uniformly."""
    dyn = from_cle(nu=[[1, -1]], propensities=[[10.0, 0.0], [0.0, 0.1]])
    return ContinuousDiscreteModel(
        inner=dyn, sample_times=np.linspace(0.0, t_end, n_samples))


def logistic() -> NonlinearModel:
    """Scalar logistic growth with state-proportional squared noise gain."""

    def f(x):
        return x + 0.1 * x * (1.0 - x / 100.0)

    def Df(x):
        return np.array([[1.1 - 0.002 * x[0]]])

    return NonlinearModel(f=f, Df=Df, G=gain_from_affine([[0.0, 1.0]]),
                          C=[[1.0]], Sigma_v=[[1.0]], Sigma_w=[[1.0]], n=1)


BUILTIN_BUILDERS = {
    "example_sec3": example_sec3,
    "birth_death_cle": birth_death_cle,
    "logistic": logistic,
}


def builtin_models():
    """Names of the shipped models."""
    return sorted(BUILTIN_BUILDERS)


def get_builtin(name: str):
    try:
        return BUILTIN_BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; valid names: {', '.join(builtin_models())}"
        ) from None
