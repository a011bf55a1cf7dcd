"""Discrete-time filter: BLUE measurement update, and the time update that
recomputes the process noise covariance G(xhat) Sigma_v G(xhat) from the
current estimate.  One time update serves every discrete model: a linear
model, its fixed-gain baseline (`with_fixed_noise`) and a nonlinear model
all answer drift, jacobian and gain (see `cukf.models`)."""

import csv
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import FilterError, NonFiniteStateError, SingularInnovationError
from .models import _matvec, eval_G

# eval_G is not called here; bench/spans.py wraps it as an attribute of this
# module, so it stays importable from it.


def symmetrize(S: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (S + S.swapaxes(-1, -2))


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
    `fallback_intervals` (intervals cut where the set of floored g^2
    changes) and `step_count` (the cuts made in them) are populated only by
    the continuous-discrete driver.

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
        cols = [self.xhat_prior, self.xhat_post, self.innovation,
                np.diagonal(self.S, axis1=1, axis2=2),
                self.Sigma_post[:, iu[0], iu[1]]]
        if self.times is not None:
            cols.insert(0, self.times[:, None])
        table = np.hstack(cols)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            # .tolist() gives Python floats, which csv writes by their repr.
            w.writerows([k] + row.tolist() for k, row in
                        zip(self.indices.tolist(), table))
        if sidecar is not None:
            with open(sidecar, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["key", "value"])
                w.writerow(["clamp_count", self.clamp_count])
                w.writerow(["step_count", self.step_count])
                w.writerow(["fallback_intervals", self.fallback_intervals])


def _inverse_factor(S, step=None):
    """Inverse lower Cholesky factor of each innovation covariance in the
    stack S (R, m, m).  For a scalar output it is 1 / sqrt(S), which rounds
    exactly like inv(cholesky(S)); the test S > 0 also fails on NaN."""
    if S.shape[-1] == 1:
        ok = S[:, 0, 0] > 0
        if not ok.all():
            raise SingularInnovationError(
                "innovation covariance not positive definite", step=step,
                replicate=_first_failure(ok))
        return 1.0 / np.sqrt(S)
    try:
        return np.linalg.inv(np.linalg.cholesky(S))
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


def _blue_update(X, P, Y, C, Sigma_w, step=None):
    """BLUE measurement update of R estimates X (R, n), P (R, n, n) with
    measurements Y (R, m); returns the posterior pieces plus diagnostics."""
    E = Y - _matvec(C, X)
    CP = C @ P
    S = symmetrize(CP @ C.T + Sigma_w)
    # K = Sigma C' S^{-1} through the inverse Cholesky factor, which for a
    # scalar output rounds exactly like a Cholesky solve.
    Li = _inverse_factor(S, step)
    K = (Li.swapaxes(-1, -2) @ (Li @ CP)).swapaxes(-1, -2)
    Xpost = X + _matvec(K, E)
    Ppost = symmetrize(P - K @ CP)
    return Xpost, Ppost, E, S, K


def measurement_update(prior: StateEstimate, y, C, Sigma_w) -> StateEstimate:
    """Incorporate measurement y via the best linear unbiased update."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    Sigma_w = np.atleast_2d(np.asarray(Sigma_w, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    X, P, _, _, _ = _blue_update(prior.xhat[None], prior.Sigma[None], y[None],
                                 C, Sigma_w)
    return StateEstimate(xhat=X[0], Sigma=P[0], index=prior.index)


def _predictor(model):
    """Time update over a batch: predict(k, X, P) -> (X, P, floored) with
    X (R, n), P (R, n, n) and floored (R, n) flagging the components whose
    g^2 was floored.  xhat -> f(xhat) and Sigma -> Df Sigma Df' + G Sigma_v G,
    with Df and G evaluated at each posterior estimate."""
    drift, jacobian, gain = model.drift, model.jacobian, model.gain
    Sigma_v = model.Sigma_v

    def predict(k, X, P):
        Xpred = drift(X)
        J = jacobian(X)
        g, floored = gain(X)
        Q = g[..., :, None] * Sigma_v * g[..., None, :]
        return Xpred, symmetrize(J @ P @ J.swapaxes(-1, -2) + Q), floored

    return predict


def time_update(post: StateEstimate, model) -> StateEstimate:
    """Propagate one step, recomputing the process noise covariance
    G(xhat) Sigma_v G(xhat) at the posterior estimate."""
    X, P, _ = _predictor(model)(0, post.xhat[None], post.Sigma[None])
    return StateEstimate(xhat=X[0], Sigma=P[0], index=post.index + 1)


def _check_finite(what, first_step, *stacks):
    """Raise NonFiniteStateError at the first step, and the first replicate
    at it, where one of `stacks` (R, K, ...) is non-finite; column k of them
    belongs to step first_step + k."""
    ok = np.logical_and.reduce([
        np.isfinite(a).all(axis=tuple(range(2, a.ndim))) for a in stacks])
    if not ok.all():
        k = int(np.argmin(ok.all(axis=0)))
        raise NonFiniteStateError(f"{what} became non-finite",
                                  step=first_step + k,
                                  replicate=_first_failure(ok[:, k]))


def _run_loop(measurements, xhat, Sigma, predict, C, Sigma_w, start_index=1):
    """The measurement-first filter loop shared by every filter, over a batch
    of R replicates: measurements (R, N, m), initial priors xhat (R, n) and
    Sigma (R, n, n).  Returns a batch FilterTrace.

    predict(k, X, P) -> (X, P, floored) maps the posteriors of step k
    (0-based) to the priors of step k + 1, with a mask broadcastable to
    (R, n) of the g^2 it floored; it is not called after the final
    measurement.  Errors name the step and, when R > 1, the first failing
    replicate; a FilterError that predict raises without a step is raised
    again naming the step whose prior it was making.

    The loop runs with numpy's floating-point warnings off and does not test
    each step: one scan after it, and before any error raised inside it
    propagates, finds the first non-finite posterior.  A non-finite estimate
    therefore fails at its own step, even when it first makes the time
    update or a later measurement update fail.
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
    floored = np.zeros((N, R, n), dtype=bool)
    written = 0
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for k in range(N):
                tr.xhat_prior[:, k] = X
                tr.Sigma_prior[:, k] = P
                X, P, E, S, K = _blue_update(X, P, ms[:, k], C, Sigma_w,
                                             step=start_index + k)
                tr.xhat_post[:, k] = X
                tr.Sigma_post[:, k] = P
                written = k + 1
                tr.innovation[:, k] = E
                tr.S[:, k] = S
                tr.gain[:, k] = K
                if written < N:
                    X, P, floored[k] = predict(k, X, P)
    except Exception as exc:
        # Whatever predict raised on a non-finite posterior (a user's f may
        # raise anything), the non-finite posterior is the first failure.
        _check_finite("estimate", start_index, tr.xhat_post[:, :written],
                      tr.Sigma_post[:, :written])
        if isinstance(exc, FilterError) and exc.step is None:
            # predict failed making the prior of this step.
            raise type(exc)(str(exc), step=start_index + written) from exc
        raise
    _check_finite("estimate", start_index, tr.xhat_post, tr.Sigma_post)
    tr.clamp_count = floored.any(axis=-1).sum(axis=0)
    return tr


def run_filter_batch(model, measurements, xhat, Sigma) -> FilterTrace:
    """Filter R replicates at once: measurements (R, N, m), initial priors
    xhat (R, n) and Sigma (R, n, n) or one shared (n, n).  Returns a batch
    trace."""
    ms = np.asarray(measurements, dtype=float)
    X = np.asarray(xhat, dtype=float)
    P = np.broadcast_to(np.asarray(Sigma, dtype=float), X.shape + X.shape[-1:])
    return _run_loop(ms, X, P, _predictor(model), model.C, model.Sigma_w)


def run_filter(model, measurements, init: StateEstimate) -> FilterTrace:
    """Alternate measurement and time updates starting from the prior `init`
    at the first measured step (the x_{1|0} convention); the one-replicate
    case of `run_filter_batch`.  `model` is any discrete model: linear,
    fixed-gain or nonlinear."""
    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    return run_filter_batch(model, ms[None], init.xhat[None],
                            init.Sigma).replicate(0)
