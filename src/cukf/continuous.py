"""Continuous-discrete filter: propagation of the estimate and its
covariance between measurement instants, with the noise gain re-evaluated
along the evolving estimate, plus the Euler-refinement consistency check."""

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .discrete import FilterTrace, StateEstimate, _run_loop, symmetrize
from .errors import (LengthMismatchError, ModelError, NonFiniteStateError,
                     StepTooLargeError)
from .models import EPS_G, ContinuousDiscreteModel, DiscreteLinearModel, eval_G


@dataclass(frozen=True)
class IntegratorConfig:
    """Step of the clamp-detection grid and of the RK4 fallback."""

    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")


def default_config(model: ContinuousDiscreteModel) -> IntegratorConfig:
    """Step = (smallest inter-sample gap)/100."""
    gaps = np.diff(model.sample_times)
    gap = gaps.min() if gaps.size else 1.0
    return IntegratorConfig(step=gap / 100.0)


def _inner(model) -> DiscreteLinearModel:
    return model.inner if isinstance(model, ContinuousDiscreteModel) else model


def _rhs(dyn, x, S):
    """Coupled mean/covariance right-hand side."""
    G, _ = eval_G(dyn.gsq, x)
    dx = dyn.A0 + dyn.A1 @ x
    dS = dyn.A1 @ S + S @ dyn.A1.T + G @ dyn.Sigma_v @ G
    return dx, dS


def _rk4(dyn, x, S, span, nsteps):
    """`nsteps` classical RK4 steps of the moment ODEs over `span`."""
    h = span / nsteps
    for _ in range(nsteps):
        k1x, k1S = _rhs(dyn, x, S)
        k2x, k2S = _rhs(dyn, x + 0.5 * h * k1x, S + 0.5 * h * k1S)
        k3x, k3S = _rhs(dyn, x + 0.5 * h * k2x, S + 0.5 * h * k2S)
        k4x, k4S = _rhs(dyn, x + h * k3x, S + h * k3S)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        S = S + (h / 6.0) * (k1S + 2 * k2S + 2 * k3S + k4S)
    return x, S


class _Propagator:
    """Moment propagation for one model over one run.

    Between samples x' = A0 + A1 x and
    Sigma' = A1 Sigma + Sigma A1' + diag(sv * max(g2(x), EPS_G)).  While the
    set of floored g2 components stays fixed, this is a linear ODE in
    z = [x; vec Sigma; 1], so z(t1) = expm(M (t1 - t0)) z(t0) exactly
    (Van Loan, IEEE TAC 23(3), 1978).  The mean path does not depend on
    Sigma, so the floored set is read off g2(x(t)) at the RK4 grid nodes
    (steps and midpoints); only an interval where that set changes is
    integrated by RK4, and counted.  Exponentials are cached per exact gap
    and floored set; the cache lives as long as the object.
    """

    def __init__(self, dyn: DiscreteLinearModel, cfg: IntegratorConfig):
        sv = np.diag(dyn.Sigma_v)
        if np.any(dyn.Sigma_v != np.diag(sv)):
            raise ModelError(
                "continuous-discrete propagation needs a diagonal Sigma_v")
        self.dyn = dyn
        self.cfg = cfg
        self.sv = sv
        self.rk4_steps = 0
        self.fallback_intervals = 0
        # Keyed on the exact gap; the node count follows from gap and step.
        self._node_maps = {}   # gap -> (K*n, n+1): [1; x(t0)] -> g2(nodes)
        self._exps = {}        # (gap, floored set) -> expm(M gap)

    def _node_g2(self, x, span, nsteps):
        """g2(x(t)) at the 2*nsteps + 1 nodes, shape (K, n)."""
        W = self._node_maps.get(span)
        dyn = self.dyn
        n = dyn.n
        if W is None:
            Mx = np.zeros((n + 1, n + 1))  # mean generator acting on [1; x]
            Mx[1:, 0] = dyn.A0
            Mx[1:, 1:] = dyn.A1
            # Powers 0..2*nsteps of the half-step propagator, by doubling.
            P = np.eye(n + 1)[None]
            power = expm(Mx * (span / (2 * nsteps)))
            while P.shape[0] <= 2 * nsteps:
                P = np.concatenate((P, power @ P))
                power = power @ power
            W = (dyn.gsq @ P[:2 * nsteps + 1]).reshape(-1, n + 1)
            self._node_maps[span] = W
        return (W[:, 0] + W[:, 1:] @ x).reshape(-1, n)

    def _exp(self, span, floored):
        key = (span, floored.tobytes())
        E = self._exps.get(key)
        if E is None:
            dyn = self.dyn
            n = dyn.n
            M = np.zeros((n + n * n + 1, n + n * n + 1))
            M[:n, :n] = dyn.A1
            M[:n, -1] = dyn.A0
            eye = np.eye(n)
            M[n:-1, n:-1] = np.kron(dyn.A1, eye) + np.kron(eye, dyn.A1)
            diag = n + np.arange(n) * (n + 1)   # rows of Sigma_ii in vec Sigma
            M[diag, :n] = np.where(floored[:, None], 0.0,
                                   self.sv[:, None] * dyn.gsq[:, 1:])
            M[diag, -1] = self.sv * np.where(floored, EPS_G, dyn.gsq[:, 0])
            E = expm(M * span)
            self._exps[key] = E
        return E

    def propagate(self, x, S, t0, t1):
        """(x, S) at t1 from (x, S) at t0, and whether any g2 was floored."""
        span = t1 - t0
        if span == 0:
            return x.copy(), S.copy(), False
        if self.cfg.step > span * (1 + 1e-12):
            raise StepTooLargeError(
                f"step {self.cfg.step} exceeds interval {span}")
        nsteps = max(1, int(round(span / self.cfg.step)))
        floored = self._node_g2(x, span, nsteps) < EPS_G
        if (floored == floored[0]).all():
            n = x.size
            z = self._exp(span, floored[0]) @ np.concatenate(
                (x, S.ravel(), [1.0]))
            x, S = z[:n], z[n:-1].reshape(n, n)
        else:
            x, S = _rk4(self.dyn, x, S, span, nsteps)
            self.rk4_steps += nsteps
            self.fallback_intervals += 1
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(S))):
            raise NonFiniteStateError(f"integration diverged on [{t0}, {t1}]")
        return x, S, bool(floored.any())


def cd_time_update(post: StateEstimate, model, t0: float, t1: float,
                   cfg: IntegratorConfig) -> StateEstimate:
    """Propagate estimate and covariance from t0 to t1 through the coupled
    ODEs, evaluating the noise gain along the evolving estimate.  Each call
    builds its own matrix exponentials; `cd_run` reuses them across
    intervals."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    x, S, _ = _Propagator(_inner(model), cfg).propagate(
        post.xhat, post.Sigma, t0, t1)
    return StateEstimate(xhat=x, Sigma=symmetrize(S), index=t1)


def cd_run(model: ContinuousDiscreteModel, measurements, init: StateEstimate,
           cfg: Optional[IntegratorConfig] = None) -> FilterTrace:
    """Discrete measurement update at each sample time, exact propagation in
    between.  `init` is the prior at the first sample time.

    The trace counts intervals in which any g2 was floored (`clamp_count`),
    intervals integrated by the RK4 fallback (`fallback_intervals`) and the
    RK4 steps they took (`step_count`)."""
    if cfg is None:
        cfg = default_config(model)
    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    times = model.sample_times
    if ms.shape[0] != times.size:
        raise LengthMismatchError(
            f"{ms.shape[0]} measurements for {times.size} sample times")
    dyn = _inner(model)
    prop = _Propagator(dyn, cfg)

    def predict(k, X, P):
        try:
            x, S, clamped = prop.propagate(X[0], P[0], times[k], times[k + 1])
        except NonFiniteStateError as exc:
            raise NonFiniteStateError(
                f"propagation failed between t={times[k]} and t={times[k + 1]}"
            ) from exc
        return x[None], symmetrize(S)[None], np.array([clamped])

    trace = _run_loop(ms[None], init.xhat[None], init.Sigma[None], predict,
                      dyn.C, dyn.Sigma_w).replicate(0)
    trace.times = times.copy()
    trace.indices = np.arange(1, times.size + 1)
    trace.step_count = prop.rk4_steps
    trace.fallback_intervals = prop.fallback_intervals
    return trace


@dataclass(frozen=True)
class LimitCheckRow:
    dt: float
    mean_err: float
    cov_err: float


def euler_limit_check(model, post: StateEstimate, t0: float, t1: float,
                      steps: Sequence[float]) -> List[LimitCheckRow]:
    """Compare the discretized one-step-covariance recursion against the
    exact ODE propagation for each step size in `steps`.

    The discretization propagates xhat <- A0*dt + (I + dt*A1)*xhat and
    Sigma <- (I + dt*A1) Sigma (I + dt*A1)' + dt * G(xhat) Sigma_v G(xhat),
    i.e. the discrete time update applied to the Euler model whose noise has
    covariance Sigma_v/dt.  Errors must shrink roughly linearly in dt.  The
    finest step sets the reference's clamp-detection grid.
    """
    dyn = _inner(model)
    span = t1 - t0
    if span <= 0:
        raise ValueError("need t1 > t0")
    steps = sorted(float(dt) for dt in steps)
    for dt in steps:
        ratio = span / dt
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(f"dt={dt} does not divide the interval {span}")
    ref = cd_time_update(post, dyn, t0, t1, IntegratorConfig(step=steps[0]))
    eye = np.eye(dyn.n)
    rows = []
    for dt in steps:
        nsteps = int(round(span / dt))
        x = post.xhat.copy()
        S = post.Sigma.copy()
        Phi = eye + dt * dyn.A1
        for _ in range(nsteps):
            G, _ = eval_G(dyn.gsq, x)
            S = Phi @ S @ Phi.T + dt * (G @ dyn.Sigma_v @ G)
            x = dyn.A0 * dt + Phi @ x
        rows.append(LimitCheckRow(
            dt=dt,
            mean_err=float(np.linalg.norm(x - ref.xhat)),
            cov_err=float(np.linalg.norm(S - ref.Sigma))))
    return rows
