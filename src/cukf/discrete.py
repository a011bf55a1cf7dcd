"""Discrete-time filter: BLUE measurement update and the time update that
recomputes the process noise covariance from the current estimate, plus the
fixed-gain baseline used for comparisons."""

import csv
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import SingularInnovationError, NonFiniteStateError
from .models import EPS_G, DiscreteLinearModel, FixedNoiseModel, eval_G

# eval_G is not called here; bench/spans.py wraps it as an attribute of this
# module, so it stays importable from it.


def symmetrize(S: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (S + S.swapaxes(-1, -2))


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for one vector or a stack of vectors (..., n).  The stacked
    product rounds like the single one, which `x @ A.T` does not."""
    return (A @ x[..., None])[..., 0]


def _first_failure(ok: np.ndarray):
    """Index of the first False entry of the per-replicate mask `ok`, or
    None for a single run, whose errors name only the step."""
    return int(np.argmin(ok)) if len(ok) > 1 else None


@dataclass
class StateEstimate:
    """Estimate vector with covariance; index is the step k (or time t)."""

    xhat: np.ndarray
    Sigma: np.ndarray
    index: float = 0

    def __post_init__(self):
        self.xhat = np.atleast_1d(np.asarray(self.xhat, dtype=float))
        self.Sigma = np.atleast_2d(np.asarray(self.Sigma, dtype=float))


@dataclass
class FilterTrace:
    """Per-step record of a filter run.

    All arrays share the leading dimension N (number of measurements).
    `clamp_count` counts time updates in which any g^2 was floored.  `times`,
    `step_count` (RK4 fallback steps) and `fallback_intervals` (intervals
    integrated by that fallback) are populated only by the
    continuous-discrete driver.

    A batch trace (`run_filter_batch`) holds R replicates: every per-step
    array gains a leading axis R, and `clamp_count` is an (R,) array;
    `indices` and `times` are shared.  `replicate(r)` gives one of them.
    """

    indices: np.ndarray
    xhat_prior: np.ndarray   # (N, n)
    Sigma_prior: np.ndarray  # (N, n, n)
    xhat_post: np.ndarray    # (N, n)
    Sigma_post: np.ndarray   # (N, n, n)
    innovation: np.ndarray   # (N, m)
    S: np.ndarray            # (N, m, m)
    gain: np.ndarray         # (N, n, m)
    times: Optional[np.ndarray] = None
    clamp_count: int = 0
    step_count: int = 0
    fallback_intervals: int = 0

    def __len__(self):
        return self.xhat_post.shape[-2]

    def replicate(self, r: int) -> "FilterTrace":
        """Replicate r of a batch trace, as a single-run trace."""
        return replace(
            self, xhat_prior=self.xhat_prior[r], Sigma_prior=self.Sigma_prior[r],
            xhat_post=self.xhat_post[r], Sigma_post=self.Sigma_post[r],
            innovation=self.innovation[r], S=self.S[r], gain=self.gain[r],
            clamp_count=int(self.clamp_count[r]))

    def to_csv(self, path, sidecar=None):
        """One row per step: k, [t,] xhat_prior, xhat_post, innovation,
        S diagonal, upper triangle of Sigma_post.

        When `sidecar` is given, integration diagnostics are written there
        as a small key,value CSV.
        """
        n = self.xhat_post.shape[1]
        m = self.innovation.shape[1]
        iu = np.triu_indices(n)
        header = ["k"]
        if self.times is not None:
            header.append("t")
        header += [f"xhat_prior_{i}" for i in range(n)]
        header += [f"xhat_post_{i}" for i in range(n)]
        header += [f"innovation_{i}" for i in range(m)]
        header += [f"S_diag_{i}" for i in range(m)]
        header += [f"Sigma_post_{i}{j}" for i, j in zip(*iu)]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for k in range(len(self)):
                row = [self.indices[k]]
                if self.times is not None:
                    row.append(repr(float(self.times[k])))
                row += [repr(float(v)) for v in self.xhat_prior[k]]
                row += [repr(float(v)) for v in self.xhat_post[k]]
                row += [repr(float(v)) for v in self.innovation[k]]
                row += [repr(float(v)) for v in np.diag(self.S[k])]
                row += [repr(float(v)) for v in self.Sigma_post[k][iu]]
                w.writerow(row)
        if sidecar is not None:
            with open(sidecar, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["key", "value"])
                w.writerow(["clamp_count", self.clamp_count])
                w.writerow(["step_count", self.step_count])
                w.writerow(["fallback_intervals", self.fallback_intervals])


def _blue_update(X, P, Y, C, Sigma_w, step=None):
    """BLUE measurement update of R estimates X (R, n), P (R, n, n) with
    measurements Y (R, m); returns the posterior pieces plus diagnostics."""
    E = Y - _matvec(C, X)
    CP = C @ P
    S = symmetrize(CP @ C.T + Sigma_w)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        ok = np.ones(len(S), dtype=bool)
        for r, Sr in enumerate(S):
            try:
                np.linalg.cholesky(Sr)
            except np.linalg.LinAlgError:
                ok[r] = False
        raise SingularInnovationError(
            "innovation covariance not positive definite", step=step,
            replicate=_first_failure(ok)) from exc
    # K = Sigma C' S^{-1} through the inverse Cholesky factor, which for a
    # scalar output rounds exactly like a Cholesky solve.
    Li = np.linalg.inv(L)
    K = (Li.swapaxes(-1, -2) @ (Li @ CP)).swapaxes(-1, -2)
    Xpost = X + _matvec(K, E)
    Ppost = symmetrize(P - K @ C @ P)
    return Xpost, Ppost, E, S, K


def measurement_update(prior: StateEstimate, y, C, Sigma_w) -> StateEstimate:
    """Incorporate measurement y via the best linear unbiased update."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    Sigma_w = np.atleast_2d(np.asarray(Sigma_w, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    X, P, _, _, _ = _blue_update(prior.xhat[None], prior.Sigma[None], y[None],
                                 C, Sigma_w)
    return StateEstimate(xhat=X[0], Sigma=P[0], index=prior.index)


def _predictor(model, variant: str = "covariance-update"):
    """Discrete time update over a batch: predict(k, X, P) -> (X, P, clamped)
    with X (R, n), P (R, n, n) and clamped (R,) flagging the replicates whose
    g^2 was floored.  "covariance-update" recomputes G(xhat) Sigma_v G(xhat)
    at each posterior estimate and needs a DiscreteLinearModel; "fixed-beta"
    adds the constant beta^2 Sigma_v of a FixedNoiseModel."""
    A0, A1 = model.A0, model.A1
    if variant == "covariance-update":
        if not isinstance(model, DiscreteLinearModel):
            raise TypeError("covariance-update variant needs a DiscreteLinearModel")
        c0, C1, Sigma_v = model.gsq[:, 0], model.gsq[:, 1:], model.Sigma_v

        def predict(k, X, P):
            g2 = c0 + _matvec(C1, X)
            g = np.sqrt(np.maximum(g2, EPS_G))
            Q = g[..., :, None] * Sigma_v * g[..., None, :]
            return (A0 + _matvec(A1, X), symmetrize(A1 @ P @ A1.T + Q),
                    (g2 < EPS_G).any(axis=-1))
    elif variant == "fixed-beta":
        if not isinstance(model, FixedNoiseModel):
            raise TypeError("fixed-beta variant needs a FixedNoiseModel")
        Q = model.beta ** 2 * model.Sigma_v

        def predict(k, X, P):
            return (A0 + _matvec(A1, X), symmetrize(A1 @ P @ A1.T + Q),
                    np.zeros(len(X), dtype=bool))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return predict


def _time_update(post: StateEstimate, model, variant):
    X, P, _ = _predictor(model, variant)(0, post.xhat[None], post.Sigma[None])
    return StateEstimate(xhat=X[0], Sigma=P[0], index=post.index + 1)


def time_update(post: StateEstimate, model: DiscreteLinearModel) -> StateEstimate:
    """Propagate one step, recomputing the process noise covariance
    G(xhat) Sigma_v G(xhat) at the posterior estimate."""
    return _time_update(post, model, "covariance-update")


def kf_fixed_time_update(post: StateEstimate, model: FixedNoiseModel) -> StateEstimate:
    """Baseline propagation with the constant beta^2 Sigma_v process noise."""
    return _time_update(post, model, "fixed-beta")


def _run_loop(measurements, xhat, Sigma, predict, C, Sigma_w, start_index=1):
    """The measurement-first filter loop shared by every filter, over a batch
    of R replicates: measurements (R, N, m), initial priors xhat (R, n) and
    Sigma (R, n, n).  Returns a batch FilterTrace.

    predict(k, X, P) -> (X, P, clamped (R,)) maps the posteriors of step k
    (0-based) to the priors of step k + 1; it is not called after the final
    measurement.  Errors name the step and, when R > 1, the first failing
    replicate.
    """
    ms = np.asarray(measurements, dtype=float)
    R, N, m = ms.shape
    if N < 1:
        raise ValueError("need at least one measurement")
    X = np.asarray(xhat, dtype=float)
    P = np.asarray(Sigma, dtype=float)
    n = X.shape[-1]
    tr = FilterTrace(
        indices=np.arange(start_index, start_index + N),
        xhat_prior=np.empty((R, N, n)), Sigma_prior=np.empty((R, N, n, n)),
        xhat_post=np.empty((R, N, n)), Sigma_post=np.empty((R, N, n, n)),
        innovation=np.empty((R, N, m)), S=np.empty((R, N, m, m)),
        gain=np.empty((R, N, n, m)))
    clamps = np.zeros(R, dtype=int)
    for k in range(N):
        step = start_index + k
        tr.xhat_prior[:, k] = X
        tr.Sigma_prior[:, k] = P
        X, P, E, S, K = _blue_update(X, P, ms[:, k], C, Sigma_w, step=step)
        if not (np.isfinite(X).all() and np.isfinite(P).all()):
            ok = (np.isfinite(X).all(axis=-1)
                  & np.isfinite(P).all(axis=(-2, -1)))
            raise NonFiniteStateError("estimate became non-finite", step=step,
                                      replicate=_first_failure(ok))
        tr.xhat_post[:, k] = X
        tr.Sigma_post[:, k] = P
        tr.innovation[:, k] = E
        tr.S[:, k] = S
        tr.gain[:, k] = K
        if k + 1 < N:
            X, P, clamped = predict(k, X, P)
            clamps += clamped
    tr.clamp_count = clamps
    return tr


def run_filter_batch(model, measurements, xhat, Sigma,
                     variant: str = "covariance-update") -> FilterTrace:
    """Filter R replicates at once: measurements (R, N, m), initial priors
    xhat (R, n) and Sigma (R, n, n) or one shared (n, n).  Returns a batch
    trace; see `run_filter` for the variants."""
    ms = np.asarray(measurements, dtype=float)
    X = np.asarray(xhat, dtype=float)
    P = np.broadcast_to(np.asarray(Sigma, dtype=float), X.shape + X.shape[-1:])
    return _run_loop(ms, X, P, _predictor(model, variant), model.C,
                     model.Sigma_w)


def run_filter(model, measurements, init: StateEstimate,
               variant: str = "covariance-update") -> FilterTrace:
    """Alternate measurement and time updates starting from the prior `init`
    at the first measured step (the x_{1|0} convention); the one-replicate
    case of `run_filter_batch`.

    variant "covariance-update" requires a DiscreteLinearModel; "fixed-beta"
    requires a FixedNoiseModel.
    """
    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    return run_filter_batch(model, ms[None], init.xhat[None], init.Sigma,
                            variant).replicate(0)
