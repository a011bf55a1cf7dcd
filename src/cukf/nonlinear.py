"""Filter for nonlinear drift with an arbitrary diagonal noise gain: the
time update propagates through f and uses the Jacobian and the gain evaluated
at the posterior estimate; the measurement update is the shared BLUE step."""

import numpy as np

from .discrete import FilterTrace, StateEstimate, _run_loop, symmetrize
from .errors import NonFiniteStateError
from .models import NonlinearModel


def nl_time_update(post: StateEstimate, model: NonlinearModel) -> StateEstimate:
    """xhat -> f(xhat); Sigma -> Df Sigma Df' + G Sigma_v G, everything
    evaluated at the posterior estimate."""
    xpred = model.drift(post.xhat)
    if not np.all(np.isfinite(xpred)):
        raise NonFiniteStateError("drift non-finite")
    J = model.jacobian(post.xhat)
    G = model.gain(post.xhat)
    if not (np.all(np.isfinite(J)) and np.all(np.isfinite(G))):
        raise NonFiniteStateError("Jacobian or gain non-finite")
    Spred = symmetrize(J @ post.Sigma @ J.T + G @ model.Sigma_v @ G)
    return StateEstimate(xhat=xpred, Sigma=Spred, index=post.index + 1)


def nl_run(model: NonlinearModel, measurements, init: StateEstimate) -> FilterTrace:
    """The shared filter loop, for one replicate, with nl_time_update as its
    time update."""
    def predict(k, X, P):
        est = nl_time_update(StateEstimate(X[0], P[0]), model)
        return est.xhat[None], est.Sigma[None], np.zeros(1, dtype=bool)

    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    return _run_loop(ms[None], init.xhat[None], init.Sigma[None], predict,
                     model.C, model.Sigma_w).replicate(0)
