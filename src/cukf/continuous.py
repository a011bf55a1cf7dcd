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

from .discrete import (FilterTrace, StateEstimate, _run_loop,
                       _symmetrize_in_place, symmetrize, time_update)
from .errors import (LengthMismatchError, NonFiniteStateError,
                     StepTooLargeError)
from .models import EPS_G, ContinuousDiscreteModel, DiscreteLinearModel, eval_G

# eval_G is not called here; bench/spans.py wraps it as an attribute of this
# module, so it stays importable from it.


def default_config(model: ContinuousDiscreteModel) -> float:
    """Step of the clamp-detection grid: (smallest inter-sample gap)/100."""
    gaps = np.diff(model.sample_times)
    gap = gaps.min() if gaps.size else 1.0
    return gap / 100.0


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
    bound and the result squared s times.  A non-finite 1-norm raises."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(A, 1)
    if not norm < np.inf:
        raise NonFiniteStateError("matrix exponential argument non-finite")
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
    with np.errstate(over="ignore", invalid="ignore"):  # the caller tests E z
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
    intervals and their cuts are counted.  For as long as the object lives,
    the grid checks, the node map and the whole-interval exponentials (one
    per floored set) are built once per exact interval length, on its first
    interval, and the generator M once per floored set.
    """

    def __init__(self, dyn: DiscreteLinearModel, step: float):
        if not 0 < step < np.inf:
            raise ValueError("step must be finite and positive")
        self.dyn = dyn
        self.step = step
        self.sv = np.diag(dyn.Sigma_v)
        self.cut_intervals = 0
        self.cuts = 0
        self._spans = {}       # span -> (w0, W1, {floored set: expm})
        self._generators = {}  # floored set -> M

    def _new_span(self, span, t0, t1):
        """The entry of an interval of length `span`, built on its first
        interval [t0, t1]: W = [w0 W1] maps [1; x(t0)] to g2 at the
        2*nsteps + 1 nodes, stacked (K*n, n+1)."""
        if self.step > span * (1 + 1e-12):
            raise StepTooLargeError(
                f"step {self.step} exceeds interval {span}")
        # In Python floats, so that a ratio that overflows is inf, unwarned.
        nsteps = max(1.0, round(float(span) / float(self.step), 0))
        if nsteps > 10 ** 5:  # a grid of 2 * nsteps + 1 nodes
            raise ValueError(f"step {self.step} puts {nsteps:.3g} grid "
                             f"steps on [{t0}, {t1}]; at most 100000 are "
                             "allowed")
        nsteps = int(nsteps)
        dyn = self.dyn
        n = dyn.n
        Mx = np.zeros((n + 1, n + 1))  # mean generator acting on [1; x]
        Mx[1:, 0] = dyn.A0
        Mx[1:, 1:] = dyn.A1
        # Powers 0..2*nsteps of the half-step propagator, by doubling.
        P = np.eye(n + 1)[None]
        power = _expm(Mx * (span / (2 * nsteps)))
        while P.shape[0] <= 2 * nsteps:
            P = np.concatenate((P, power @ P))
            power = power @ power
        with np.errstate(over="ignore", invalid="ignore"):  # propagate tests z
            W = (dyn.gsq @ P[:2 * nsteps + 1]).reshape(-1, n + 1)
        entry = self._spans[span] = (W[:, 0], W[:, 1:], {})
        return entry

    def _generator(self, floored):
        """M of z' = M z, with the g2 components in `floored` at EPS_G."""
        key = floored.tobytes()
        M = self._generators.get(key)
        if M is not None:
            return M
        dyn = self.dyn
        n = dyn.n
        M = np.zeros((n + n * n + 1, n + n * n + 1))
        M[:n, :n] = dyn.A1
        M[:n, -1] = dyn.A0
        eye = np.eye(n)
        diag = n + np.arange(n) * (n + 1)   # rows of Sigma_ii in vec Sigma
        # An entry that overflows is inf, unwarned; _expm then raises.
        with np.errstate(over="ignore"):
            M[n:-1, n:-1] = np.kron(dyn.A1, eye) + np.kron(eye, dyn.A1)
            M[diag, :n] = np.where(floored[:, None], 0.0,
                                   self.sv[:, None] * dyn.gsq[:, 1:])
            M[diag, -1] = self.sv * np.where(floored, EPS_G, dyn.gsq[:, 0])
        self._generators[key] = M
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
        w0, W1, exps = (self._spans.get(span)
                        or self._new_span(span, t0, t1))
        n = x.size
        with np.errstate(over="ignore", invalid="ignore"):  # z is tested below
            g2 = (w0 + W1 @ x).reshape(-1, n)
        floored = g2 < EPS_G
        z = np.concatenate((x, S.ravel(), [1.0]))
        if (floored == floored[0]).all():
            key = floored[0].tobytes()
            E = exps.get(key)
            if E is None:
                E = exps[key] = _expm(self._generator(floored[0]) * span)
            z = E @ z
        else:
            z = self._cut(z, g2, floored, span)
        if not np.isfinite(z[:-1]).all():
            raise NonFiniteStateError(f"integration diverged on [{t0}, {t1}]")
        return z[:n], z[n:-1].reshape(n, n), bool(floored.any())


def cd_time_update(post: StateEstimate, model, t0: float, t1: float,
                   step: float) -> StateEstimate:
    """Propagate estimate and covariance from t0 to t1 through the coupled
    ODEs, evaluating the noise gain along the evolving estimate.  Each call
    builds its own matrix exponentials; `cd_run` reuses them across
    intervals."""
    if not -np.inf < t0 <= t1 < np.inf:
        raise ValueError("need finite t0 <= t1")
    x, S, _ = _Propagator(_inner(model), step).propagate(
        post.xhat, post.Sigma, t0, t1)
    return StateEstimate(xhat=x, Sigma=symmetrize(S), index=t1)


def cd_run(model: ContinuousDiscreteModel, measurements, init: StateEstimate,
           step: Optional[float] = None) -> FilterTrace:
    """Discrete measurement update at each sample time, exact propagation in
    between.  `init` is the prior at the first sample time.

    The trace counts intervals in which any g2 was floored (`clamp_count`),
    intervals cut where the floored set changes (`fallback_intervals`) and
    the cuts made in them (`step_count`)."""
    if step is None:
        step = default_config(model)
    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    times = model.sample_times
    if ms.shape[0] != times.size:
        raise LengthMismatchError(
            f"{ms.shape[0]} measurements for {times.size} sample times")
    dyn = _inner(model)
    prop = _Propagator(dyn, step)

    def predict(k, Z, out):
        out[0, :, 0], out[0, :, 1:], clamped = prop.propagate(
            Z[0, :, 0], Z[0, :, 1:], times[k], times[k + 1])
        _symmetrize_in_place(out[0, :, 1:])
        return clamped

    trace = _run_loop(ms[None], init.xhat[None], init.Sigma[None], predict,
                      dyn.C, dyn.Sigma_w).replicate(0)
    trace.times = times.copy()
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
    Errors must shrink roughly linearly in dt; one that is not finite
    raises NonFiniteStateError.  The finest step sets the reference's
    clamp-detection grid, so it may take 10^5 steps.
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
        if ratio == np.inf:  # the reference would refuse it, past 10^5
            raise ValueError(f"dt={dt} puts {ratio:.3g} steps on "
                             f"[{t0}, {t1}]; at most 100000 are allowed")
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(f"dt={dt} does not divide the interval {span}")
    ref = cd_time_update(post, dyn, t0, t1, steps[0])
    rows = []
    for dt in steps:
        euler = replace(dyn, A0=dt * dyn.A0, A1=np.eye(dyn.n) + dt * dyn.A1,
                        Sigma_v=dt * dyn.Sigma_v)
        est = post
        for _ in range(int(round(span / dt))):
            est = time_update(est, euler)
        with np.errstate(over="ignore", invalid="ignore"):
            errs = [float(np.linalg.norm(est.xhat - ref.xhat)),
                    float(np.linalg.norm(est.Sigma - ref.Sigma))]
        if not np.isfinite(errs).all():
            raise NonFiniteStateError(f"Euler error at dt={dt} not finite")
        rows.append(LimitCheckRow(dt, *errs))
    return rows
