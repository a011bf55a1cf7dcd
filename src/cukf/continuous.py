"""Continuous-discrete filter: propagation of the estimate and its
covariance between measurement instants, with the noise gain re-evaluated
along the evolving estimate, plus the Euler-refinement consistency check.

The matrix exponentials of the exact propagation come from `_expm`, a numpy
Padé scaling-and-squaring method (Higham, "The scaling and squaring method
for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4),
2005, Algorithm 2.3)."""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .discrete import (FilterTrace, StateEstimate, _check_sizes, _predictor,
                       _run, _stepped, _symmetrize_in_place)
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
    bound and the result squared s times.  A non-finite 1-norm raises.

    Before that, on the squaring path only, the constant coordinates (zero
    rows of A, such as the 1 of [x; vec Sigma; 1]) are balanced (Ward, SIAM
    J. Numer. Anal. 14(4), 1977): when their columns set the norm, they are
    scaled by the power of two 2^-p that brings them within the other
    columns' norm, or the degree-3 bound if that is larger, and exp(A) =
    D exp(D^-1 A D) D^-1, D = diag(1 or 2^-p), exactly.  Otherwise an
    affine column far larger than the dynamics forces squarings that wash
    out the rest of exp(A)."""
    with np.errstate(over="ignore"):
        cols = np.abs(A).sum(axis=0)  # the 1-norm of each column
    norm = cols.max()
    if not norm < np.inf:
        raise NonFiniteStateError("matrix exponential argument non-finite")
    e = None  # the exponents of D, when balanced
    if norm > _PADE[-1][0]:
        const = ~A.any(axis=1)
        rest = max(cols[~const].max(initial=0.0), _PADE[0][0])
        if norm > rest:  # a constant column sets the norm
            p = int(np.ceil(np.log2(norm) - np.log2(rest)))
            e = np.where(const, -p, 0)
            A = np.ldexp(A, e)
            norm = np.abs(A).sum(axis=0).max()
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
        return E if e is None else np.ldexp(E, e[:, None] - e)


# The bits after the leading one that a canonical interval length keeps.
_SPAN_BITS = 44


def _canonical(gap):
    """The length over which an interval of length `gap` > 0 is propagated:
    `gap` rounded to _SPAN_BITS bits after its leading one, a pure function
    of `gap` within 2^-45 (about 2.8e-14) of it, relative.  Gaps that differ
    by a few ulps, as linspace gives, mostly share it.  A gap that rounds
    past the largest float, or is not finite, is its own length."""
    m, e = math.frexp(gap)
    try:
        return math.ldexp(round(m * 2 ** (_SPAN_BITS + 1)),
                          e - _SPAN_BITS - 1)
    except OverflowError:
        return gap


def _inner(model) -> DiscreteLinearModel:
    return model.inner if isinstance(model, ContinuousDiscreteModel) else model


class _Propagator:
    """Moment propagation for one model over one run at the sample times
    `times`: the time update from times[k] to times[k + 1] in two adaptors
    of one z buffer, `interval` (floats) and `predict` (a joint block).

    Between samples x' = A0 + A1 x and
    Sigma' = A1 Sigma + Sigma A1' + diag(sv * max(g2(x), EPS_G)).  While the
    set of floored g2 components stays fixed, this is a linear ODE in
    z = [x; vec Sigma; 1], so z(t1) = expm(M (t1 - t0)) z(t0) exactly
    (Van Loan, IEEE TAC 23(3), 1978).  The mean path does not depend on
    Sigma, so the floored set is read off g2(x(t)) at nodes half a step
    apart.  An interval where that set changes is cut at each crossing of
    EPS_G, and each piece is propagated by its own exponential; such
    intervals and their cuts are counted.  An interval is propagated over
    its canonical length (`_canonical`: its length rounded to _SPAN_BITS
    bits, within 2^-45 relative), not its exact one.  For as long as the
    object lives, the grid checks, the node map and the whole-interval
    exponentials (one per floored set) are built once per canonical length,
    on its first interval, and the generator M once per floored set.

    Its numpy calls run under the np.errstate of the filter loop (or of
    `discrete._stepped`), entered once per run: a value that overflows is
    tested where `propagate` tests z.
    """

    def __init__(self, dyn: DiscreteLinearModel, step: float, times):
        if not 0 < step < np.inf:
            raise ValueError("step must be finite and positive")
        self.dyn = dyn
        self.step = step
        self._ts = list(times)
        self._z = np.r_[np.zeros(dyn.n * (dyn.n + 1)), 1.0]
        self.sv = np.diag(dyn.Sigma_v)
        self.cut_intervals = 0
        self.cuts = 0
        self._unfloored = bytes(dyn.n)  # the key of the empty floored set
        self._spans = {}       # length -> (w0, W1, {floored set: expm})
        self._generators = {}  # floored set -> M

    def _new_span(self, span, t0, t1):
        """The entry of the canonical length `span`, built on its first
        interval [t0, t1], whose exact length a refusal names: W = [w0 W1]
        maps [1; x(t0)] to g2 at the 2*nsteps + 1 nodes, stacked
        (K*n, n+1)."""
        if self.step > span * (1 + 1e-12):
            raise StepTooLargeError(
                f"step {self.step} exceeds interval {t1 - t0}")
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
        W = (dyn.gsq @ P[:2 * nsteps + 1]).reshape(-1, n + 1)
        entry = self._spans[span] = (W[:, 0], W[:, 1:], {})
        return entry

    def _generator(self, key):
        """M of z' = M z, with the g2 components of the floored set `key`
        (the bytes of a boolean mask) at EPS_G."""
        M = self._generators.get(key)
        if M is not None:
            return M
        floored = np.frombuffer(key, dtype=bool)
        dyn = self.dyn
        n = dyn.n
        M = np.zeros((n + n * n + 1, n + n * n + 1))
        M[:n, :n] = dyn.A1
        M[:n, -1] = dyn.A0
        eye = np.eye(n)
        diag = n + np.arange(n) * (n + 1)   # rows of Sigma_ii in vec Sigma
        # An entry that overflows is inf; _expm then raises.
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
            z = _expm(self._generator(flags.tobytes()) * length) @ z
            flags[toggle] ^= True
        self.cut_intervals += 1
        self.cuts += len(cuts)
        M = self._generator(flags.tobytes())
        return _expm(M * (span - cuts.max())) @ z

    def propagate(self, z, t0, t1):
        """z = [x; vec Sigma; 1] at t1 from the contiguous array z at t0 (z
        itself if t1 == t0), propagated over the canonical length of t1 - t0,
        and whether any g2 was floored.  An interval where no node floors,
        the common case, takes the exponential of the empty floored set at
        once; an x or Sigma at t1 that is not finite raises
        NonFiniteStateError."""
        if t1 == t0:
            return z, False
        span = _canonical(t1 - t0)
        w0, W1, exps = (self._spans.get(span)
                        or self._new_span(span, t0, t1))
        n = self.dyn.n
        g2 = w0 + W1 @ z[:n]
        floored = g2 < EPS_G
        key = self._unfloored
        if floored.any():
            g2, floored = g2.reshape(-1, n), floored.reshape(-1, n)
            same = (floored == floored[0]).all()  # at every node
            key = floored[0].tobytes() if same else None
        if key is None:
            z = self._cut(z, g2, floored, span)
        else:
            E = exps.get(key)
            if E is None:
                E = exps[key] = _expm(self._generator(key) * span)
            z = E @ z
        if not np.isfinite(z[:-1]).all():
            raise NonFiniteStateError(f"integration diverged on [{t0}, {t1}]")
        return z, key != self._unfloored

    def interval(self, k, x, P):
        """(x, P, floored) at times[k + 1] from the floats x, P (n = 1)."""
        z = self._z
        z[0], z[1] = x, P
        z, floored = self.propagate(z, self._ts[k], self._ts[k + 1])
        x, P, _ = z.tolist()
        return x, P, floored

    def predict(self, k, Z, out):
        """`_run_loop`'s time update of one joint block Z into `out` (maybe
        Z), read and written by columns: Sigma is symmetric on the way in,
        as `_blue_step` leaves it, and symmetrized on the way out."""
        n, z = self.dyn.n, self._z
        z[:-1] = Z[0].T.ravel()
        z, floored = self.propagate(z, self._ts[k], self._ts[k + 1])
        out[0] = z[:-1].reshape(1 + n, n).T
        _symmetrize_in_place(out[0, :, 1:])
        return floored


def cd_time_update(post: StateEstimate, model, t0: float, t1: float,
                   step: float) -> StateEstimate:
    """Propagate estimate and covariance from t0 to t1 through the coupled
    ODEs, evaluating the noise gain along the evolving estimate, over the
    canonical length of t1 - t0 (`_canonical`), as `cd_run` propagates an
    interval of that length, so with the same bits.  Each call builds its
    own matrix exponentials; `cd_run` reuses them across intervals.  A
    value that overflows raises NonFiniteStateError, never a RuntimeWarning
    first; a prior of another size than the model's, LengthMismatchError."""
    dyn = _inner(model)
    _check_sizes(dyn.m, dyn.n, xhat=post.xhat, Sigma=post.Sigma)
    if not -np.inf < t0 <= t1 < np.inf:
        raise ValueError("need finite t0 <= t1")
    prop = _Propagator(dyn, step, [t0, t1])
    return _stepped(post, prop.predict, 1, t1)


def cd_run(model: ContinuousDiscreteModel, measurements, init: StateEstimate,
           step: Optional[float] = None) -> FilterTrace:
    """Discrete measurement update at each sample time, exact propagation in
    between.  `init` is the prior at the first sample time.

    The trace counts intervals in which any g2 was floored (`clamp_count`),
    intervals cut where the floored set changes (`fallback_intervals`) and
    the cuts made in them (`step_count`).

    It is `discrete._run` with a `_Propagator` as the time update, so it
    takes a discrete model's route, with the same bits and errors."""
    if step is None:
        step = default_config(model)
    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    times = model.sample_times
    if ms.shape[0] != times.size:
        raise LengthMismatchError(
            f"{ms.shape[0]} measurements for {times.size} sample times")
    prop = _Propagator(_inner(model), step, times.tolist())
    trace = next(_run([prop.dyn], ms[None], init.xhat[None],
                      init.Sigma[None], prop)).replicate(0)
    return replace(trace, times=times.copy(), step_count=prop.cuts,
                   fallback_intervals=prop.cut_intervals)


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
    clamp-detection grid, so it may take 10^5 steps.  A prior of another
    size than the model's raises LengthMismatchError.
    """
    dyn = _inner(model)
    _check_sizes(dyn.m, dyn.n, xhat=post.xhat, Sigma=post.Sigma)
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
        est = _stepped(post, _predictor(euler), int(round(span / dt)), t1)
        with np.errstate(over="ignore", invalid="ignore"):
            errs = [float(np.linalg.norm(est.xhat - ref.xhat)),
                    float(np.linalg.norm(est.Sigma - ref.Sigma))]
        if not np.isfinite(errs).all():
            raise NonFiniteStateError(f"Euler error at dt={dt} not finite")
        rows.append(LimitCheckRow(dt, *errs))
    return rows
