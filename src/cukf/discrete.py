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

from .errors import (FilterError, LengthMismatchError, NonFiniteStateError,
                     SingularInnovationError)
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
    is None, then the columns of the (N, c) arrays `cols`, headed by
    `names`, written to `path` atomically.

    The rows are formatted _CHUNK at a time, a column at a time, each
    column taken from its array's slice, and each chunk is written at once,
    so neither the file's text, nor a stacked copy of the table, nor a list
    of `ks` is ever held.  The bytes are csv's default dialect by
    construction: csv writes an int by its str and a Python float by its
    repr, quotes neither (no repr holds a comma, quote or line break), and
    ends each line in CR LF."""
    if times is not None:
        names, cols = ["t"] + names, [times[:, None]] + cols
    ks = iter(ks)
    with _atomic_open(path) as fh:
        csv.writer(fh).writerow(["k"] + names)
        for a in range(0, len(cols[0]), _CHUNK):
            fields = [map(str, itertools.islice(ks, _CHUNK))] + [
                map(repr, column) for array in cols
                for column in array[a:a + _CHUNK].T.tolist()]
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

    def replicate(self, r) -> "FilterTrace":
        """Replicate r of a batch trace, as a single-run trace; for a slice
        r, the batch trace of those replicates."""
        clamps = self.clamp_count[r]
        return replace(
            self, xhat_prior=self.xhat_prior[r], Sigma_prior=self.Sigma_prior[r],
            xhat_post=self.xhat_post[r], Sigma_post=self.Sigma_post[r],
            innovation=self.innovation[r], S=self.S[r], gain=self.gain[r],
            clamp_count=clamps if isinstance(r, slice) else int(clamps))

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
    """Incorporate measurement y via the best linear unbiased update; y,
    the prior and Sigma_w must fit C (m, n), or LengthMismatchError."""
    C, Sigma_w = (np.atleast_2d(np.asarray(a, float)) for a in (C, Sigma_w))
    ys = np.reshape(y, (1, 1, -1))
    _check_sizes(*C.shape, ys, prior.xhat[None], prior.Sigma, Sigma_w=Sigma_w)
    tr = _run_loop(ys, prior.xhat[None], prior.Sigma[None], None, C, Sigma_w,
                   prior.index)
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


def _stepped(post: StateEstimate, predict, count, index) -> StateEstimate:
    """`post` after the time updates predict(k, Z, Z), k < count (see
    `_run_loop`), in place on one joint block Z = [xhat | Sigma] under the
    filter loop's np.errstate, indexed `index`."""
    Z = np.concatenate((post.xhat[:, None], post.Sigma), axis=1)[None]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for k in range(count):
            predict(k, Z, Z)
    return StateEstimate(Z[0, :, 0], Z[0, :, 1:], index)


def time_update(post: StateEstimate, model) -> StateEstimate:
    """Propagate one step, recomputing the process noise covariance
    G(xhat) Sigma_v G(xhat) at the posterior estimate (`_stepped`): a
    non-finite f or G raises NonFiniteStateError, never a RuntimeWarning;
    a prior of another size than the model's, LengthMismatchError."""
    _check_sizes(model.m, model.n, xhat=post.xhat, Sigma=post.Sigma)
    return _stepped(post, _predictor(model), 1, post.index + 1)


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
    [E | -C Sigma], S and -K', returning the clamp counts.  tr's fields
    view the buffers; it is returned unchecked, for `_checked`."""
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
    tr.clamp_count = steps(prior, post, W, S, Kt, tr)
    return tr


def _checked(tr, start_index=1):
    """The trace `tr` of `_filtered`, once one scan of its posteriors and S
    finds no failed step (`_check_finite`), with its -K' made the gains K."""
    _check_finite(start_index, ("estimate", tr.xhat_post),
                  ("estimate", tr.Sigma_post),
                  ("innovation covariance", tr.S), S=tr.S)
    np.negative(tr.gain, out=tr.gain)
    return tr


def _scan_failed_run(exc, tr, written, start_index):
    """What a filter loop does with the exception `exc` raised after it
    wrote `written` posteriors into `tr`, before raising it again: whatever
    it was (a user's f may raise anything), a failed step before it is the
    first failure (`_check_finite`); and a FilterError without a step names
    the step of the prior being made."""
    _check_finite(start_index, ("estimate", tr.xhat_post[:, :written]),
                  ("estimate", tr.Sigma_post[:, :written]),
                  ("innovation covariance", tr.S[:, :written]), S=tr.S)
    if isinstance(exc, FilterError) and exc.step is None:
        exc.step = start_index + written


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
            _scan_failed_run(exc, tr, written, start_index)
            raise
        return floored.any(axis=(2, 3)).sum(axis=0)

    return _checked(_filtered(measurements, xhat, Sigma, start_index, steps),
                    start_index)


def _scalar_linear(model):
    """Whether `model` is linear with n = m = 1, so that the scalar step
    rule (`_column_steps`) filters with it."""
    return isinstance(model, DiscreteLinearModel) and model.n == model.m == 1


def _coefficients(models, R=1):
    """The (7, F R) columns (c, Sigma_w, a1, a0, Sigma_v, c0, c1) of the F
    `_scalar_linear` models, model i in columns i R to (i + 1) R, for the
    scalar step rule.  A matmul of one product adds it to +0.0; so A0 and
    Sigma_v have -0.0 made +0.0."""
    return np.repeat(np.array(
        [(m.C.item(), m.Sigma_w.item(), m.A1.item(), m.A0.item() + 0.0,
          m.Sigma_v.item() + 0.0, *m.gsq[0].tolist()) for m in models]).T,
        R, axis=1)


def _column_steps(coefs, prior, post, W, S, Kt, tr, interval=None):
    """`_run_loop`'s steps for `_scalar_linear` models, one column per
    replicate, with coefs their `_coefficients`: the same IEEE operations
    in the same order, so bit-identical to `_run_loop`.  A matmul of one
    product adds it to +0.0 (-0.0 becomes +0.0); so does this code where
    the sign can reach the trace.  The body is written once: one column
    runs it on Python floats (memoryviews of the buffers, math.sqrt and
    max), more on 1-D arrays, a row of each buffer per step (np.sqrt and
    np.maximum).  S not > 0 gives numpy's non-finite 1 / sqrt(S), or NaN
    where a float raises; nothing is tested per step.

    The time update is the discrete model's, and the time updates that
    floored g^2 are counted from the posteriors after the loop, unless
    `interval` is given: interval(k, x, P) -> (x, P, floored) then makes
    the prior at index k + 1 from the posterior at index k (a propagator's
    float adaptor, `continuous._Propagator.interval`), and an error it
    raises is handled as `_run_loop` handles predict's."""
    rows = [a[:, :, 0, j] for a, j in zip((prior, prior, post, post, W, S, Kt),
                                          (0, 1, 0, 1, 0, 0, 0))]
    if coefs.shape[1] == 1:
        rows = [memoryview(a[:, 0]) for a in rows]
        coefs, sqrt, maximum = coefs[:, 0].tolist(), math.sqrt, max
    else:
        sqrt, maximum = np.sqrt, np.maximum
    xp, Pp, xq, Pq, E, Ss, Ks = rows
    c, sw, a1, a0, sv, c0, c1 = coefs
    x, P, N, clamps = xp[0], Pp[0], len(Ss), 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for k in range(N):
            mcp = 0.0 - c * P  # -C Sigma
            Ss[k] = s = sw - mcp * c
            try:
                li = 1.0 / sqrt(s)
            except (ValueError, ZeroDivisionError):  # a float S not > 0
                li = math.nan
            E[k] = e = E[k] - (c * x + 0.0)
            Ks[k] = kt = li * (li * mcp) + 0.0
            xq[k] = x = x - (kt * e + 0.0)
            Pq[k] = P = P - kt * mcp
            if k + 1 == N:
                break
            if interval is None:
                g = sqrt(maximum(c1 * x + c0, EPS_G))  # NaN stays NaN
                xp[k + 1] = x = a1 * x + a0
                Pp[k + 1] = P = a1 * P * a1 + g * sv * g
                continue
            try:
                x, P, floored = interval(k, x, P)
            except Exception as exc:
                _scan_failed_run(exc, tr, k + 1, 1)
                raise
            xp[k + 1], Pp[k + 1], clamps = x, P, clamps + floored
        if interval is not None:
            return np.array([clamps])
        # The loop's g^2 of each posterior but the last, the same bits.
        return (c1 * post[:-1, :, 0, 0] + c0 < EPS_G).sum(axis=0)


def _check_sizes(m, n, measurements=None, xhat=None, Sigma=None, x0=None,
                 Sigma_w=None, R=None):
    """Raise LengthMismatchError unless every input given fits a model of
    m outputs and n states and one number R of replicates, that of the
    measurements (R, N, m) when they are given: prior means xhat (R, n),
    or (n,) for no R; covariances Sigma, (R, n, n) or one shared (n, n);
    initial states x0 (R, n), one shared (n,) or a scalar; and a
    measurement noise covariance Sigma_w (m, m)."""
    parts, ok = [], True
    if measurements is not None:
        shape = np.shape(measurements)
        R, ok = shape[0], shape[-1] == m
        parts.append(f"{R} series of measurements of {shape[-1]} components")
    for name, a, fits in (("priors", xhat, [(n,) if R is None else (R, n)]),
                          ("covariances", Sigma, [(n, n), (R, n, n)]),
                          ("initial states", x0, [(), (n,), (R, n)]),
                          ("measurement noise covariances", Sigma_w,
                           [(m, m)])):
        if a is not None:
            ok &= np.shape(a) in fits
            parts.append(f"{name} of shape {np.shape(a)}")
    if not ok:
        *head, last = parts
        of = ("" if measurements is not None or R is None
              else f"R = {R} replicates of ")
        raise LengthMismatchError(
            f"{', '.join(head)}{' and ' if head else ''}{last} for {of}a "
            f"model of m = {m}, n = {n}")


def _run(models, measurements, xhat, Sigma, prop=None):
    """The route of every filter run: the checked trace of each of the
    `models` over the same R replicates (see `_filtered`), yielded in turn
    as it is reached, so that a caller meets their errors in order.  When
    every model is linear with n = m = 1, they run as one batch of F R
    columns through the scalar step rule `_column_steps` (Python floats
    for one column), model i in columns i R to (i + 1) R; otherwise each
    runs the numpy loop `_run_loop` when reached.  The two are
    bit-identical.  A continuous-discrete run's propagator `prop` gives the
    time update.  Sizes that do not fit a model raise LengthMismatchError."""
    if not (models and all(map(_scalar_linear, models))):
        for model in models:
            _check_sizes(model.m, model.n, measurements, xhat, Sigma)
            yield _run_loop(measurements, xhat, Sigma,
                            prop.predict if prop else _predictor(model),
                            model.C, model.Sigma_w)
        return
    for model in models:
        _check_sizes(model.m, model.n, measurements, xhat, Sigma)
    F, R = len(models), len(measurements)
    coefs = _coefficients(models, R)
    tr = _filtered(np.tile(np.asarray(measurements, dtype=float), (F, 1, 1)),
                   np.tile(xhat, (F, 1)),
                   np.tile(np.broadcast_to(Sigma, (R, 1, 1)), (F, 1, 1)), 1,
                   lambda *bufs: _column_steps(coefs, *bufs,
                                               prop and prop.interval))
    for i in range(F):
        yield _checked(tr.replicate(slice(i * R, (i + 1) * R)))


def run_filter_batch(model, measurements, xhat, Sigma) -> FilterTrace:
    """Filter R replicates at once: measurements (R, N, m), initial priors
    xhat (R, n) and Sigma (R, n, n) or one shared (n, n); other sizes raise
    LengthMismatchError.  Returns a batch trace; `_run` picks the route."""
    return next(_run([model], measurements, xhat, Sigma))


def run_filter(model, measurements, init: StateEstimate) -> FilterTrace:
    """Alternate measurement and time updates starting from the prior `init`
    at the first measured step (the x_{1|0} convention); the one-replicate
    case of `run_filter_batch`.  `model` is any discrete model: linear,
    fixed-gain or nonlinear."""
    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    return run_filter_batch(model, ms[None], init.xhat[None],
                            init.Sigma).replicate(0)
