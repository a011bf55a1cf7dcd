"""Discrete-time filter: BLUE measurement update and the time update that
recomputes the process noise covariance from the current estimate, plus the
fixed-gain baseline used for comparisons."""

import csv
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import SingularInnovationError, NonFiniteStateError
from .models import DiscreteLinearModel, FixedNoiseModel, eval_G


def symmetrize(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + S.T)


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
        return self.xhat_post.shape[0]

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


def _blue_update(xhat, Sigma, y, C, Sigma_w, step=None):
    """BLUE measurement update; returns posterior pieces plus diagnostics."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    e = y - C @ xhat
    S = symmetrize(C @ Sigma @ C.T + Sigma_w)
    try:
        cho = cho_factor(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationError(
            "innovation covariance not positive definite", step=step) from exc
    K = cho_solve(cho, C @ Sigma).T  # Sigma C' S^{-1}
    xpost = xhat + K @ e
    Spost = symmetrize(Sigma - K @ C @ Sigma)
    return xpost, Spost, e, S, K


def measurement_update(prior: StateEstimate, y, C, Sigma_w) -> StateEstimate:
    """Incorporate measurement y via the best linear unbiased update."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    Sigma_w = np.atleast_2d(np.asarray(Sigma_w, dtype=float))
    xpost, Spost, _, _, _ = _blue_update(prior.xhat, prior.Sigma, y, C, Sigma_w)
    return StateEstimate(xhat=xpost, Sigma=Spost, index=prior.index)


def _time_update(post, model: DiscreteLinearModel):
    G, clamped = eval_G(model.gsq, post.xhat)
    xpred = model.A0 + model.A1 @ post.xhat
    Spred = symmetrize(model.A1 @ post.Sigma @ model.A1.T + G @ model.Sigma_v @ G)
    return StateEstimate(xhat=xpred, Sigma=Spred, index=post.index + 1), clamped


def time_update(post: StateEstimate, model: DiscreteLinearModel) -> StateEstimate:
    """Propagate one step, recomputing the process noise covariance
    G(xhat) Sigma_v G(xhat) at the posterior estimate."""
    est, _ = _time_update(post, model)
    return est


def kf_fixed_time_update(post: StateEstimate, model: FixedNoiseModel) -> StateEstimate:
    """Baseline propagation with the constant beta^2 Sigma_v process noise."""
    xpred = model.A0 + model.A1 @ post.xhat
    Spred = symmetrize(model.A1 @ post.Sigma @ model.A1.T
                       + model.beta ** 2 * model.Sigma_v)
    return StateEstimate(xhat=xpred, Sigma=Spred, index=post.index + 1)


def _run_loop(measurements, init, step_fn, C, Sigma_w, start_index=1):
    """Shared measurement-first filter loop.

    step_fn(post) -> (next prior StateEstimate, clamped flag); it is not
    called after the final measurement.
    """
    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    if ms.shape[0] < 1:
        raise ValueError("need at least one measurement")
    N = ms.shape[0]
    n = init.xhat.size
    m = C.shape[0]
    tr = FilterTrace(
        indices=np.arange(start_index, start_index + N),
        xhat_prior=np.empty((N, n)), Sigma_prior=np.empty((N, n, n)),
        xhat_post=np.empty((N, n)), Sigma_post=np.empty((N, n, n)),
        innovation=np.empty((N, m)), S=np.empty((N, m, m)),
        gain=np.empty((N, n, m)))
    prior = StateEstimate(init.xhat, init.Sigma, index=start_index)
    clamps = 0
    for k in range(N):
        tr.xhat_prior[k] = prior.xhat
        tr.Sigma_prior[k] = prior.Sigma
        xpost, Spost, e, S, K = _blue_update(
            prior.xhat, prior.Sigma, ms[k], C, Sigma_w, step=start_index + k)
        if not (np.all(np.isfinite(xpost)) and np.all(np.isfinite(Spost))):
            raise NonFiniteStateError("estimate became non-finite",
                                      step=start_index + k)
        tr.xhat_post[k] = xpost
        tr.Sigma_post[k] = Spost
        tr.innovation[k] = e
        tr.S[k] = S
        tr.gain[k] = K
        if k + 1 < N:
            prior, clamped = step_fn(
                StateEstimate(xpost, Spost, index=start_index + k))
            clamps += int(clamped)
    tr.clamp_count = clamps
    return tr


def run_filter(model, measurements, init: StateEstimate,
               variant: str = "covariance-update") -> FilterTrace:
    """Alternate measurement and time updates starting from the prior `init`
    at the first measured step (the x_{1|0} convention).

    variant "covariance-update" requires a DiscreteLinearModel; "fixed-beta"
    requires a FixedNoiseModel.
    """
    if variant == "covariance-update":
        if not isinstance(model, DiscreteLinearModel):
            raise TypeError("covariance-update variant needs a DiscreteLinearModel")
        step_fn = lambda post: _time_update(post, model)
    elif variant == "fixed-beta":
        if not isinstance(model, FixedNoiseModel):
            raise TypeError("fixed-beta variant needs a FixedNoiseModel")
        step_fn = lambda post: (kf_fixed_time_update(post, model), False)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return _run_loop(measurements, init, step_fn, model.C, model.Sigma_w)
