"""Discrete-time filter: BLUE measurement update, and the time update that
recomputes the process noise covariance G(xhat) Sigma_v G(xhat) from the
current estimate.  One time update serves every discrete model: a linear
model, its fixed-gain baseline (`with_fixed_noise`) and a nonlinear model
all answer `linearize` (see `cukf.models`), on joint arrays [xhat | Sigma]."""

import contextlib
import csv
import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import FilterError, NonFiniteStateError, SingularInnovationError
from .models import EPS_G, DiscreteLinearModel, _first_failure, eval_G

# eval_G is not called here; bench/spans.py wraps it as an attribute of this
# module, so it stays importable from it.


@contextlib.contextmanager
def _atomic_open(path):
    """A text file for `path`, with no newline translation: a temp file
    beside it that replaces it on success and is removed on failure, so a
    partly written output never appears.  The package's one output writer,
    with `_write_csv` and `_write_steps`.  The temp file is created with
    mode 0666 less the umask, as a plain open() would create `path`."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(path, header, rows):
    """Write the header and the iterable `rows` to `path` atomically, as
    csv's default dialect (lines end in CR LF; a Python float is written
    by its repr; a string that needs it is quoted).  For the small tables
    of labelled rows; the per-step tables go through `_write_steps`."""
    with _atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# Rows that _write_steps formats per write.  256 was no faster, and its
# transient strings raised the peak RSS of a 10,000-row trace by ~0.3 MB.
_CHUNK = 64


def _write_steps(path, ks, times, names, cols):
    """One row per step: k from the iterable `ks`, t from `times` unless it
    is None, then the columns of the (N, ...) arrays `cols`, headed by
    `names`, written to `path` atomically.

    The rows are formatted _CHUNK at a time, a column at a time, and each
    chunk is written at once, so neither the file's text nor a list of
    `ks` is ever held.  The bytes are csv's default dialect by
    construction: csv writes an int by its str and a Python float by its
    repr, quotes neither (no repr holds a comma, quote or line break), and
    ends each line in CR LF."""
    if times is not None:
        names, cols = ["t"] + names, [times[:, None]] + cols
    table = np.hstack(cols)
    ks = iter(ks)
    with _atomic_open(path) as fh:
        csv.writer(fh).writerow(["k"] + names)
        for a in range(0, len(table), _CHUNK):
            fields = [map(str, itertools.islice(ks, _CHUNK))] + [
                map(repr, col) for col in table[a:a + _CHUNK].T.tolist()]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def symmetrize(S: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (S + S.swapaxes(-1, -2))


def _symmetrize_in_place(S: np.ndarray):
    """Symmetrize each matrix of the stack S in place (1 x 1 ones are)."""
    if S.shape[-1] > 1:
        S[...] = symmetrize(S)


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

    All arrays share the leading dimension N (number of measurements), and
    are views of the filter loop's buffers (see `_filtered`).  `clamp_count`
    counts time updates in which any g^2 was floored.  `times`,
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

    def to_csv(self, path):
        """One row per step: k, [t,] xhat_prior, xhat_post, innovation,
        S diagonal, upper triangle of Sigma_post."""
        n = self.xhat_post.shape[1]
        m = self.innovation.shape[1]
        iu = np.triu_indices(n)
        _write_steps(
            path, map(int, self.indices), self.times,
            [f"xhat_prior_{i}" for i in range(n)]
            + [f"xhat_post_{i}" for i in range(n)]
            + [f"innovation_{i}" for i in range(m)]
            + [f"S_diag_{i}" for i in range(m)]
            + [f"Sigma_post_{i}{j}" for i, j in zip(*iu)],
            [self.xhat_prior, self.xhat_post, self.innovation,
             np.diagonal(self.S, axis1=1, axis2=2),
             self.Sigma_post[:, iu[0], iu[1]]])


def _inverse_factor(S, step=None):
    """Inverse lower Cholesky factor of each innovation covariance in the
    stack S (R, m, m).  For a scalar output it is 1 / sqrt(S), which rounds
    exactly like inv(cholesky(S)) and is not tested (see `_check_finite`)."""
    if S.shape[-1] == 1:
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


def _blue_step(Z, W, C, Sigma_w, S, Kt, out, step=None):
    """BLUE measurement update of R joint estimates Z = [xhat | Sigma]: W
    holds [y | 0] and becomes [E | -C Sigma]; S receives the innovation
    covariance, Kt the gain as -K' = -S^-1 C Sigma, and `out` the posterior
    Z - Kt' W = [xhat + K E | Sigma - K C Sigma]."""
    np.subtract(W, C @ Z, out=W)
    CS = W[..., 1:]
    np.subtract(Sigma_w, CS @ C.T, out=S)
    _symmetrize_in_place(S)
    Li = _inverse_factor(S, step)
    np.matmul(Li.swapaxes(-1, -2), Li @ CS, out=Kt)
    np.subtract(Z, Kt.swapaxes(-1, -2) @ W, out=out)
    _symmetrize_in_place(out[..., 1:])


def measurement_update(prior: StateEstimate, y, C, Sigma_w) -> StateEstimate:
    """Incorporate measurement y via the best linear unbiased update."""
    C, Sigma_w = (np.atleast_2d(np.asarray(a, float)) for a in (C, Sigma_w))
    tr = _run_loop(np.reshape(y, (1, 1, -1)), prior.xhat[None],
                   prior.Sigma[None], None, C, Sigma_w, prior.index)
    return StateEstimate(tr.xhat_post[0, 0], tr.Sigma_post[0, 0], prior.index)


def _predictor(model):
    """Time update over a batch: predict(k, Z, out) -> floored writes into
    `out` (which may be Z) the priors made from the joint posteriors Z:
    xhat -> f(xhat) and Sigma -> Df Sigma Df' + G Sigma_v G, with Df and G
    evaluated at each posterior, and flags the floored g^2 (R, n, 1)."""
    linearize, Sigma_v = model.linearize, model.Sigma_v

    def predict(k, Z, out):
        FZ, J, g, g2 = linearize(Z)
        out[..., 0] = FZ[..., 0]
        P = out[..., 1:]
        np.add(FZ[..., 1:] @ J.swapaxes(-1, -2),
               g * Sigma_v * g.swapaxes(-1, -2), out=P)
        _symmetrize_in_place(P)
        return g2 < EPS_G

    return predict


def time_update(post: StateEstimate, model) -> StateEstimate:
    """Propagate one step, recomputing the process noise covariance
    G(xhat) Sigma_v G(xhat) at the posterior estimate.  As in the filter
    loop, numpy's floating-point warnings are off: a non-finite f or G
    raises NonFiniteStateError, never a RuntimeWarning first."""
    Z = np.concatenate((post.xhat[:, None], post.Sigma), axis=1)[None]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        _predictor(model)(0, Z, Z)
    return StateEstimate(Z[0, :, 0], Z[0, :, 1:], post.index + 1)


def _check_finite(first_step, *stacks, S=None):
    """Raise NonFiniteStateError at the first step, first_step + k, where one
    of the named `stacks`, pairs (name, (R, K, ...) array), is non-finite,
    naming its first failing replicate and, for that replicate, the first
    such stack; SingularInnovationError if S[:, k, 0, 0] is not > 0."""
    oks = [np.isfinite(a).all(axis=tuple(range(2, a.ndim)))
           for _, a in stacks]
    ok = np.logical_and.reduce(oks)
    if not ok.all():
        k = int(np.argmin(ok.all(axis=0)))
        if S is not None and not (S_ok := S[:, k, 0, 0] > 0).all():
            raise SingularInnovationError(
                "innovation covariance not positive definite",
                step=first_step + k, replicate=_first_failure(S_ok))
        r = int(np.argmin(ok[:, k]))
        what = next(name for (name, _), o in zip(stacks, oks) if not o[r, k])
        raise NonFiniteStateError(f"{what} became non-finite",
                                  step=first_step + k,
                                  replicate=_first_failure(ok[:, k]))


def _filtered(measurements, xhat, Sigma, start_index, steps):
    """A filter run over measurements (R, N, m) of R replicates from priors
    xhat (R, n) and Sigma (R, n, n): steps(prior, post, W, S, Kt, tr) fills
    the time-major buffers (N, R, ...) of [xhat | Sigma], W = [y | 0] ->
    [E | -C Sigma], S and -K', returning the clamp counts, and one scan of
    the posteriors and S finds the first failed step (`_check_finite`).
    tr's fields view the buffers."""
    ms = np.asarray(measurements, dtype=float)
    R, N, m = ms.shape
    if N < 1:
        raise ValueError("need at least one measurement")
    n = np.shape(xhat)[-1]
    prior, post = np.empty((2, N, R, n, 1 + n))
    prior[0, ..., 0], prior[0, ..., 1:] = xhat, Sigma
    W = np.zeros((N, R, m, 1 + n))
    W[..., 0] = ms.swapaxes(0, 1)
    S, Kt = np.empty((N, R, m, m)), np.empty((N, R, m, n))
    tr = FilterTrace(np.arange(start_index, start_index + N), *(
        a.swapaxes(0, 1) for a in (prior[..., 0], prior[..., 1:], post[..., 0],
                                   post[..., 1:], W[..., 0], S,
                                   Kt.swapaxes(-1, -2))))
    clamp_count = steps(prior, post, W, S, Kt, tr)
    _check_finite(start_index, ("estimate", tr.xhat_post),
                  ("estimate", tr.Sigma_post),
                  ("innovation covariance", tr.S), S=tr.S)
    np.negative(Kt, out=Kt)  # the trace's gains K = -Kt'
    tr.clamp_count = clamp_count
    return tr


def _run_loop(measurements, xhat, Sigma, predict, C, Sigma_w, start_index=1):
    """The measurement-first filter loop shared by every filter, in numpy
    over the batch (see `_filtered`).

    predict(k, Z, out) -> floored writes the priors of step k + 1 (0-based),
    made from the posteriors Z of step k, into `out`, with a mask
    broadcastable to (R, n, 1) of the g^2 it floored.  Errors name the step
    and, when R > 1, the first failing replicate; a FilterError that predict
    raises without a step is raised again naming the step of its prior.

    The loop runs with numpy's floating-point warnings off and tests nothing
    per step; the scan also runs before an error inside it propagates.
    """

    def steps(prior, post, W, S, Kt, tr):
        N, R, n = prior.shape[:3]
        floored = np.zeros((N, R, n, 1), dtype=bool)
        written = 0
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                for k in range(N):
                    _blue_step(prior[k], W[k], C, Sigma_w, S[k], Kt[k],
                               post[k], step=start_index + k)
                    written = k + 1
                    if written < N:
                        floored[k] = predict(k, post[k], prior[k + 1])
        except Exception as exc:
            # Whatever the loop raised (a user's f may raise anything), a
            # failed step before it is the first failure.
            _check_finite(start_index, ("estimate", tr.xhat_post[:, :written]),
                          ("estimate", tr.Sigma_post[:, :written]),
                          ("innovation covariance", tr.S[:, :written]),
                          S=tr.S)
            if isinstance(exc, FilterError) and exc.step is None:
                exc.step = start_index + written  # predict made its prior
            raise
        return floored.any(axis=(2, 3)).sum(axis=0)

    return _filtered(measurements, xhat, Sigma, start_index, steps)


def _scalar_steps(model, prior, post, W, S, Kt, tr):
    """`_run_loop`'s steps for one replicate of a linear model with n = m = 1
    in Python floats, bit-identical: the same IEEE operations in the same
    order.  A matmul of one product adds it to +0.0 (-0.0 becomes +0.0); so
    does this code where the sign can reach the trace."""
    xp, Pp, xq, Pq, E, Ss, Ks = (memoryview(a[:, 0, 0, j]) for a, j in zip(
        (prior, prior, post, post, W, S, Kt), (0, 1, 0, 1, 0, 0, 0)))
    c, sw, a1 = (a.item() for a in (model.C, model.Sigma_w, model.A1))
    a0, sv = model.A0.item() + 0.0, model.Sigma_v.item() + 0.0
    c0, c1 = model.gsq[0].tolist()
    x, P, N, clamps = xp[0], Pp[0], len(Ss), 0
    for k in range(N):
        mcp = 0.0 - c * P  # -C Sigma
        Ss[k] = s = sw - mcp * c
        # S not > 0 makes the posteriors non-finite, for the scan to report.
        li = 1.0 / math.sqrt(s) if s > 0 else math.nan
        E[k] = e = E[k] - (c * x + 0.0)
        Ks[k] = kt = li * (li * mcp) + 0.0
        xq[k] = x = x - (kt * e + 0.0)
        Pq[k] = P = P - kt * mcp
        if k + 1 < N:
            g2 = c1 * x + c0
            if g2 < EPS_G:  # not for NaN, which reaches the gain
                g2, clamps = EPS_G, clamps + 1
            g = math.sqrt(g2)
            xp[k + 1] = x = a1 * x + a0
            Pp[k + 1] = P = a1 * P * a1 + g * sv * g
    return np.array([clamps])


def run_filter_batch(model, measurements, xhat, Sigma) -> FilterTrace:
    """Filter R replicates at once: measurements (R, N, m), initial priors
    xhat (R, n) and Sigma (R, n, n) or one shared (n, n).  Returns a batch
    trace.  One replicate of a linear model with n = m = 1 takes the
    Python-float kernel `_scalar_steps`, bit-identical to the numpy loop
    `_run_loop`, which runs every other case."""
    if (isinstance(model, DiscreteLinearModel) and model.n == model.m == 1
            and np.shape(measurements)[0] == 1):
        return _filtered(measurements, xhat, Sigma, 1,
                         lambda *bufs: _scalar_steps(model, *bufs))
    return _run_loop(measurements, xhat, Sigma, _predictor(model), model.C,
                     model.Sigma_w)


def run_filter(model, measurements, init: StateEstimate) -> FilterTrace:
    """Alternate measurement and time updates starting from the prior `init`
    at the first measured step (the x_{1|0} convention); the one-replicate
    case of `run_filter_batch`.  `model` is any discrete model: linear,
    fixed-gain or nonlinear."""
    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    return run_filter_batch(model, ms[None], init.xhat[None],
                            init.Sigma).replicate(0)
