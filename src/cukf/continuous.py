"""Continuous-discrete filter: propagation of the estimate and its
covariance between measurement instants, with the noise gain re-evaluated
along the evolving estimate, plus the Euler-refinement consistency check.

The matrix exponentials of the exact propagation come from `_expm`, a numpy
Padé scaling-and-squaring method (Higham, "The scaling and squaring method
for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4),
2005, Algorithm 2.3)."""

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .discrete import (FilterTrace, StateEstimate, _run_loop, symmetrize,
                       time_update)
from .errors import (LengthMismatchError, ModelError, NonFiniteStateError,
                     StepTooLargeError)
from .models import EPS_G, ContinuousDiscreteModel, DiscreteLinearModel, eval_G

# eval_G is not called here; bench/spans.py wraps it as an attribute of this
# module, so it stays importable from it.


@dataclass(frozen=True)
class IntegratorConfig:
    """Step of the clamp-detection grid, which tests g2 every half step."""

    step: float

    def __post_init__(self):
        if not 0 < self.step < np.inf:
            raise ValueError("step must be finite and positive")


def default_config(model: ContinuousDiscreteModel) -> IntegratorConfig:
    """Step = (smallest inter-sample gap)/100."""
    gaps = np.diff(model.sample_times)
    gap = gaps.min() if gaps.size else 1.0
    return IntegratorConfig(step=gap / 100.0)


# Higham (2005), Table 2.3: the largest 1-norm at which the degree-m
# diagonal Padé approximant of exp is accurate to double precision, and
# the approximant's coefficients b_0..b_m.
_PADE = (
    (1.495585217958292e-2, (120., 60., 12., 1.)),
    (2.539398330063230e-1, (30240., 15120., 3360., 420., 30., 1.)),
    (9.504178996162932e-1, (17297280., 8648640., 1995840., 277200., 25200.,
                            1512., 56., 1.)),
    (2.097847961257068, (17643225600., 8821612800., 2075673600., 302702400.,
                         30270240., 2162160., 110880., 3960., 90., 1.)),
    (5.371920351148152, (64764752532480000., 32382376266240000.,
                         7771770303897600., 1187353796428800.,
                         129060195264000., 10559470521600., 670442572800.,
                         33522128640., 1323241920., 40840800., 960960.,
                         16380., 182., 1.)),
)


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) from the lowest Padé degree m in {3, 5, 7, 9, 13} whose bound
    covers the 1-norm of A; at degree 13, A is first scaled by 2^-s into the
    bound and the result squared s times."""
    norm = np.linalg.norm(A, 1)
    s = 0
    for theta, b in _PADE:
        if norm <= theta:
            break
    else:
        s = int(np.ceil(np.log2(norm / theta)))
        A = A / 2.0 ** s
    # r_m(A) = (V - U)^{-1} (V + U), U = odd part and V = even part of the
    # numerator, both sums over the even powers I, A^2, ..., A^(m-1).
    powers = [np.eye(len(A)), A @ A]
    while len(powers) < len(b) // 2:
        powers.append(powers[-1] @ powers[1])
    U = A @ sum(c * P for c, P in zip(b[1::2], powers))
    V = sum(c * P for c, P in zip(b[::2], powers))
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def _inner(model) -> DiscreteLinearModel:
    return model.inner if isinstance(model, ContinuousDiscreteModel) else model


class _Propagator:
    """Moment propagation for one model over one run.

    Between samples x' = A0 + A1 x and
    Sigma' = A1 Sigma + Sigma A1' + diag(sv * max(g2(x), EPS_G)).  While the
    set of floored g2 components stays fixed, this is a linear ODE in
    z = [x; vec Sigma; 1], so z(t1) = expm(M (t1 - t0)) z(t0) exactly
    (Van Loan, IEEE TAC 23(3), 1978).  The mean path does not depend on
    Sigma, so the floored set is read off g2(x(t)) at nodes half a step
    apart.  An interval where that set changes is cut at each crossing of
    EPS_G, and each piece is propagated by its own exponential; such
    intervals and their cuts are counted.  Whole-gap exponentials are cached
    per exact gap and floored set, as long as the object lives.
    """

    def __init__(self, dyn: DiscreteLinearModel, cfg: IntegratorConfig):
        sv = np.diag(dyn.Sigma_v)
        if np.any(dyn.Sigma_v != np.diag(sv)):
            raise ModelError(
                "continuous-discrete propagation needs a diagonal Sigma_v")
        self.dyn = dyn
        self.cfg = cfg
        self.sv = sv
        self.cut_intervals = 0
        self.cuts = 0
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
            power = _expm(Mx * (span / (2 * nsteps)))
            while P.shape[0] <= 2 * nsteps:
                P = np.concatenate((P, power @ P))
                power = power @ power
            W = (dyn.gsq @ P[:2 * nsteps + 1]).reshape(-1, n + 1)
            self._node_maps[span] = W
        return (W[:, 0] + W[:, 1:] @ x).reshape(-1, n)

    def _generator(self, floored):
        """M of z' = M z, with the g2 components in `floored` at EPS_G."""
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
        return M

    def _cut(self, z, g2, floored, span):
        """z propagated piece by piece, cut where a g2_i crosses EPS_G between
        two nodes; the crossing is placed by linear interpolation."""
        j, i = np.nonzero(floored[1:] != floored[:-1])
        cuts = (j + (EPS_G - g2[j, i]) / (g2[j + 1, i] - g2[j, i])) * (
            span / (len(g2) - 1))
        order = np.argsort(cuts)
        flags = floored[0].copy()
        for length, toggle in zip(np.diff(cuts[order], prepend=0.0), i[order]):
            z = _expm(self._generator(flags) * length) @ z
            flags[toggle] ^= True
        self.cut_intervals += 1
        self.cuts += len(cuts)
        return _expm(self._generator(flags) * (span - cuts.max())) @ z

    def propagate(self, x, S, t0, t1):
        """(x, S) at t1 from (x, S) at t0, and whether any g2 was floored."""
        span = t1 - t0
        if span == 0:
            return x.copy(), S.copy(), False
        if self.cfg.step > span * (1 + 1e-12):
            raise StepTooLargeError(
                f"step {self.cfg.step} exceeds interval {span}")
        nsteps = max(1, int(round(span / self.cfg.step)))
        g2 = self._node_g2(x, span, nsteps)
        floored = g2 < EPS_G
        n = x.size
        z = np.concatenate((x, S.ravel(), [1.0]))
        if (floored == floored[0]).all():
            key = (span, floored[0].tobytes())
            if key not in self._exps:
                self._exps[key] = _expm(self._generator(floored[0]) * span)
            z = self._exps[key] @ z
        else:
            z = self._cut(z, g2, floored, span)
        x, S = z[:n], z[n:-1].reshape(n, n)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(S))):
            raise NonFiniteStateError(f"integration diverged on [{t0}, {t1}]")
        return x, S, bool(floored.any())


def cd_time_update(post: StateEstimate, model, t0: float, t1: float,
                   cfg: IntegratorConfig) -> StateEstimate:
    """Propagate estimate and covariance from t0 to t1 through the coupled
    ODEs, evaluating the noise gain along the evolving estimate.  Each call
    builds its own matrix exponentials; `cd_run` reuses them across
    intervals."""
    if not -np.inf < t0 <= t1 < np.inf:
        raise ValueError("need finite t0 <= t1")
    x, S, _ = _Propagator(_inner(model), cfg).propagate(
        post.xhat, post.Sigma, t0, t1)
    return StateEstimate(xhat=x, Sigma=symmetrize(S), index=t1)


def cd_run(model: ContinuousDiscreteModel, measurements, init: StateEstimate,
           cfg: Optional[IntegratorConfig] = None) -> FilterTrace:
    """Discrete measurement update at each sample time, exact propagation in
    between.  `init` is the prior at the first sample time.

    The trace counts intervals in which any g2 was floored (`clamp_count`),
    intervals cut where the floored set changes (`fallback_intervals`) and
    the cuts made in them (`step_count`)."""
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
        x, S, clamped = prop.propagate(X[0], P[0], times[k], times[k + 1])
        return x[None], symmetrize(S)[None], np.array([clamped])

    trace = _run_loop(ms[None], init.xhat[None], init.Sigma[None], predict,
                      dyn.C, dyn.Sigma_w).replicate(0)
    trace.times = times.copy()
    trace.indices = np.arange(1, times.size + 1)
    trace.step_count = prop.cuts
    trace.fallback_intervals = prop.cut_intervals
    return trace


@dataclass(frozen=True)
class LimitCheckRow:
    dt: float
    mean_err: float
    cov_err: float


def euler_limit_check(model, post: StateEstimate, t0: float, t1: float,
                      steps: Sequence[float]) -> List[LimitCheckRow]:
    """Compare the Euler discretization against the exact ODE propagation
    for each step size in `steps`.

    The discretization is the discrete time update of the Euler model
    (A0*dt, I + dt*A1, Sigma_v*dt), which propagates
    Sigma <- (I + dt*A1) Sigma (I + dt*A1)' + dt * G(xhat) Sigma_v G(xhat).
    Errors must shrink roughly linearly in dt.  The finest step sets the
    reference's clamp-detection grid.
    """
    dyn = _inner(model)
    if not -np.inf < t0 < t1 < np.inf:
        raise ValueError("need finite t0 < t1")
    span = t1 - t0
    steps = sorted(float(dt) for dt in steps)
    if not steps:
        raise ValueError("need at least one step")
    for dt in steps:
        if not 0 < dt < np.inf:
            raise ValueError(f"dt={dt} must be finite and positive")
        ratio = span / dt
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(f"dt={dt} does not divide the interval {span}")
    ref = cd_time_update(post, dyn, t0, t1, IntegratorConfig(step=steps[0]))
    rows = []
    for dt in steps:
        euler = replace(dyn, A0=dt * dyn.A0, A1=np.eye(dyn.n) + dt * dyn.A1,
                        Sigma_v=dt * dyn.Sigma_v)
        est = post
        for _ in range(int(round(span / dt))):
            est = time_update(est, euler)
        rows.append(LimitCheckRow(
            dt=dt,
            mean_err=float(np.linalg.norm(est.xhat - ref.xhat)),
            cov_err=float(np.linalg.norm(est.Sigma - ref.Sigma))))
    return rows
