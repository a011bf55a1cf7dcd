"""Discrete-time filter: BLUE measurement update, and the time update that
recomputes the process noise covariance G(xhat) Sigma_v G(xhat) from the
current estimate.  One time update serves every discrete model: a linear
model, its fixed-gain baseline (`with_fixed_noise`) and a nonlinear model
all answer `linearize` (see `cukf.models`), on joint arrays [xhat | Sigma]."""

import contextlib
import csv
import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
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


@functools.lru_cache(maxsize=None)
def _upper(n):
    """np.triu_indices(n), the upper triangle of an n x n matrix by rows,
    made once per n, its arrays read-only."""
    iu = np.triu_indices(n)
    for a in iu:
        a.flags.writeable = False
    return iu


def _one_run(what, a):
    """Raise ValueError if the per-step array `a` of the `what` to be
    written holds a batch, (R, N, ...): a CSV holds one run."""
    if a.ndim == 3:
        raise ValueError(
            f"a batch {what} of R = {len(a)} replicates has no CSV form; "
            f"write one replicate, .replicate(r)")


def symmetrize(S: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (S + S.swapaxes(-1, -2))


def _symmetrize_in_place(S: np.ndarray):
    """Symmetrize each matrix of the stack S in place: each off-diagonal
    pair becomes its mean 0.5 (a + b), as in `symmetrize`; the diagonal
    stays, where `symmetrize` doubles it first, so it cannot overflow."""
    for i, j in itertools.combinations(range(S.shape[-1]), 2):
        S[..., i, j] = S[..., j, i] = 0.5 * (S[..., i, j] + S[..., j, i])


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
    `indices` and `times` are shared.  `replicate(r)`, for an int r, gives
    one of them; only that one-run trace has a CSV form (`to_csv`).
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
        r = operator.index(r)
        return FilterTrace(
            self.indices, self.xhat_prior[r], self.Sigma_prior[r],
            self.xhat_post[r], self.Sigma_post[r], self.innovation[r],
            self.S[r], self.gain[r], self.times, int(self.clamp_count[r]),
            self.step_count, self.fallback_intervals)

    def to_csv(self, path):
        """One row per step: k, [t,] xhat_prior, xhat_post, innovation,
        S diagonal, upper triangle of Sigma_post.  A batch trace raises
        ValueError (`_one_run`)."""
        _one_run("trace", self.xhat_post)
        n = self.xhat_post.shape[1]
        m = self.innovation.shape[1]
        iu = _upper(n)
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


def _inverse_factor(S):
    """Inverse lower Cholesky factor of each innovation covariance in the
    stack S (R, m, m).  For a scalar output it is 1 / sqrt(S), which rounds
    exactly like inv(cholesky(S)) and is not tested (see `_check_finite`).
    A factor LAPACK refuses raises SingularInnovationError; the filter
    loop names its step."""
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
            "innovation covariance not positive definite",
            replicate=_first_failure(ok)) from exc


def _blue_step(Z, W, C, Sigma_w, S, Kt, out):
    """BLUE measurement update of R joint estimates Z = [xhat | Sigma]: W
    holds [y | 0] and becomes [E | -C Sigma]; S receives the innovation
    covariance, Kt the gain as -K' = -S^-1 C Sigma, and `out` the posterior
    Z - Kt' W = [xhat + K E | Sigma - K C Sigma]."""
    np.subtract(W, C @ Z, out=W)
    CS = W[..., 1:]
    np.subtract(Sigma_w, CS @ C.T, out=S)
    _symmetrize_in_place(S)
    Li = _inverse_factor(S)
    np.matmul(Li.swapaxes(-1, -2), Li @ CS, out=Kt)
    np.subtract(Z, Kt.swapaxes(-1, -2) @ W, out=out)
    _symmetrize_in_place(out[..., 1:])


def measurement_update(prior: StateEstimate, y, C, Sigma_w) -> StateEstimate:
    """Incorporate measurement y via the best linear unbiased update; y,
    the prior and Sigma_w must fit C (m, n), or LengthMismatchError.  A
    FilterError names the prior's index as its step."""
    C, Sigma_w = (np.atleast_2d(np.asarray(a, float)) for a in (C, Sigma_w))
    ys = np.reshape(y, (1, 1, -1))
    _check_sizes(*C.shape, ys, prior.xhat[None], prior.Sigma, Sigma_w=Sigma_w)
    try:
        tr = _run_loop(ys, prior.xhat[None], prior.Sigma[None], None, C,
                       Sigma_w)
    except FilterError as exc:  # the loop's one step is the prior's
        exc.step = prior.index
        raise
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
    non-finite f, G or prior (naming its step) raises NonFiniteStateError,
    never a RuntimeWarning; a prior of another size, LengthMismatchError."""
    _check_sizes(model.m, model.n, xhat=post.xhat, Sigma=post.Sigma)
    prior = _stepped(post, _predictor(model), 1, post.index + 1)
    _check_finite(prior.index, ("estimate", prior.xhat[None, None]),
                  ("estimate", prior.Sigma[None, None]))
    return prior


def _check_finite(first_step, *stacks, S=None):
    """Raise NonFiniteStateError at the first step, first_step + k, where one
    of the named `stacks`, pairs (name, (R, K, ...) array), is non-finite,
    naming its first failing replicate and, for that replicate, the first
    such stack; SingularInnovationError if S[:, k, 0, 0] is not > 0."""
    if all(np.isfinite(a).all() for _, a in stacks):
        return
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


def _filtered(measurements, xhat, Sigma, steps, F):
    """The traces of F models run over measurements (R, N, m) of R
    replicates from priors xhat (R, n) and Sigma (R, n, n) or (n, n), which
    every model shares: time-major buffers (N, F, R, ...) of [xhat | Sigma],
    W = [y | 0] -> [E | -C Sigma], S and -K' give model i the block [:, i],
    into which the measurements and priors are broadcast.  steps(prior,
    post, W, S, Kt, trace) fills them through (N, F R, ...) views, model i
    in columns i R to (i + 1) R, and returns the F R clamp counts; trace(i)
    views model i's block as a trace of the steps 1..N.  Each model's trace
    is made once, after steps, and returned unchecked, for `_checked`."""
    ms = np.asarray(measurements, dtype=float)
    R, N, m = ms.shape
    if N < 1:
        raise ValueError("need at least one measurement")
    n = np.shape(xhat)[-1]
    Z = np.empty((2, N, F, R, n, 1 + n))  # priors, posteriors
    Z[0, 0, ..., 0], Z[0, 0, ..., 1:] = xhat, Sigma
    W = np.zeros((N, F, R, m, 1 + n))
    W[..., 0] = ms.swapaxes(0, 1)[:, None]
    S, Kt = np.empty((N, F, R, m, m)), np.empty((N, F, R, m, n))

    def trace(i, clamps=0):  # model i's block, replicate-major
        prior, post = Z[:, :, i].swapaxes(1, 2)
        return FilterTrace(np.arange(1, N + 1),
                           prior[..., 0], prior[..., 1:], post[..., 0],
                           post[..., 1:], W[:, i, ..., 0].swapaxes(0, 1),
                           S[:, i].swapaxes(0, 1),
                           Kt[:, i].swapaxes(0, 1).swapaxes(-1, -2),
                           clamp_count=clamps)

    counts = steps(*Z.reshape(2, N, F * R, n, 1 + n),
                   W.reshape(N, F * R, m, 1 + n), S.reshape(N, F * R, m, m),
                   Kt.reshape(N, F * R, m, n), trace)
    return [trace(i, counts[i * R:(i + 1) * R]) for i in range(F)]


def _checked(tr, written=None):
    """The trace `tr` of `_filtered`, once one scan of its posteriors and S,
    or of the first `written` of a failed run, finds no failed step
    (`_check_finite`), with its -K' made the gains K."""
    _check_finite(1, ("estimate", tr.xhat_post[:, :written]),
                  ("estimate", tr.Sigma_post[:, :written]),
                  ("innovation covariance", tr.S[:, :written]), S=tr.S)
    np.negative(tr.gain, out=tr.gain)
    return tr


def _run_loop(measurements, xhat, Sigma, predict, C, Sigma_w):
    """The measurement-first filter loop shared by every filter, in numpy
    over the batch (see `_filtered`).

    predict(k, Z, out) -> floored writes the priors of step k + 1 (0-based),
    made from the posteriors Z of step k, into `out`, with a mask
    broadcastable to (R, n, 1) of the g^2 it floored.  Errors name the step
    and, when R > 1, the first failing replicate.

    The loop runs with numpy's floating-point warnings off and tests nothing
    per step.  An error inside it (a user's f may raise anything) is raised
    after the scan of the steps written (`_checked`), which raises a failed
    step before it instead; a FilterError without a step names the step of
    the prior being made.
    """

    def steps(prior, post, W, S, Kt, trace):
        N, R, n = prior.shape[:3]
        floored = np.zeros((N, R, n, 1), dtype=bool)
        written = 0
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                for k in range(N):
                    _blue_step(prior[k], W[k], C, Sigma_w, S[k], Kt[k],
                               post[k])
                    written = k + 1
                    if written < N:
                        floored[k] = predict(k, post[k], prior[k + 1])
        except Exception as exc:
            _checked(trace(0), written)
            if isinstance(exc, FilterError) and exc.step is None:
                exc.step = written + 1
            raise
        return floored.any(axis=(2, 3)).sum(axis=0)

    return _checked(_filtered(measurements, xhat, Sigma, steps, 1)[0])


# The largest n whose linear models run the generated kernel.
_KERNEL_SIZE = 3


def _small_linear(model):
    """Whether `model` is linear with m <= n <= _KERNEL_SIZE, so that the
    generated kernel (`_kernel`) may filter with it.  With more outputs
    than states, S = Sigma_w + C Sigma C' is only as definite as Sigma_w:
    with a singular Sigma_w, rounding alone decides whether a pivot of S
    is > 0, and a kernel run that does not fail is not run again by the
    numpy loop (see `_run`)."""
    return (isinstance(model, DiscreteLinearModel)
            and model.m <= model.n <= _KERNEL_SIZE)


def _products(pairs):
    """Python text of the sum of the products of `pairs`, which Python
    adds left to right."""
    return " + ".join(f"{a} * {b}" for a, b in pairs)


def _dpotf2(m):
    """Python lines that factor the symmetric matrix held in s{a}_{b}
    (a >= b) by LAPACK's textbook dpotf2 recursion, for the kernel and for
    the simulator's factor of Sigma_w (`simulate._cholesky`): pivot j is
    d{j}, u{j} is 1 / sqrt(d{j}) (NaN where a float raises), and below the
    diagonal l{i}_{j} = (s{i}_{j} - ordered sum of l{i}_{q} l{j}_{q},
    q < j) u{j}."""
    lines = []
    for j in range(m):
        for i in range(j, m):
            t = f"s{i}_{j}"
            if j:
                t += " - (" + _products((f"l{i}_{q}", f"l{j}_{q}")
                                        for q in range(j)) + ")"
            if i == j:
                lines += [f"d{j} = {t}", "try:",
                          f"    u{j} = 1.0 / sqrt(d{j})",
                          "except (ValueError, ZeroDivisionError):",
                          f"    u{j} = nan"]
            else:
                lines.append(f"l{i}_{j} = ({t}) * u{j}")
    return lines


def _compiled(src, name, floats):
    """The function `name` that the Python lines `src` define, with EPS_G,
    nan, np, maximum and sqrt (math's on floats, else numpy's) in its
    scope."""
    scope = {"EPS_G": EPS_G, "nan": math.nan, "np": np, "maximum": np.maximum,
             "sqrt": math.sqrt if floats else np.sqrt}
    exec(compile("\n".join(src), f"<{name}>", "exec"), scope)
    return scope[name]


@functools.lru_cache(maxsize=None)
def _kernel(n, m, floats, cd):
    """`_run_loop`'s steps for linear models of n states and m outputs, one
    column per replicate, as Python text written out by component and
    compiled once per (n, m, floats, cd):
    steps(coefs, prior, post, W, S, Kt, prop) fills `_filtered`'s
    buffers and returns the clamp counts.  coefs holds, per column, C,
    Sigma_w and A1 by rows, A0 + 0.0, diag(Sigma_v) + 0.0, c0 and c1 by
    rows (`_linear_steps`).

    A step is the BLUE update, every sum ordered left to right: the
    innovation y - C x; S = Sigma_w + C Sigma C', each off-diagonal pair
    averaged as `_run_loop` symmetrizes it; S's Cholesky factor
    (`_dpotf2`); the gain -K' = -S^-1 C Sigma by two triangular solves;
    and the posterior [x + K E | Sigma - K C Sigma], its upper triangle
    mirrored.  Then the discrete time update x <- A0 + A1 x, Sigma <- A1
    Sigma A1' + diag(g Sigma_v g), g^2 = c0 + c1 x floored at EPS_G, whose
    floored steps are counted after the loop from the posteriors by the
    same sums; or, for `cd`, the continuous-discrete time update of the
    propagator `prop`, inline, as text that `cukf.continuous` writes and
    whose records it owns (`continuous._Propagator`).  `prop.predict`
    runs the same text, so from the same posterior both routes make the
    same prior, bit for bit, at every n.  An error it raises ends the run
    (see `_run`).  At n = m = 1 these are `_run_loop`'s IEEE operations in
    its order, so the trace is bit-identical to it, signed zeros included:
    a matmul of one product adds it to +0.0, and so does this code where
    the sign can reach the trace.  At larger n or m it agrees with
    `_run_loop` to rounding, and its bits do not depend on the CPU's BLAS
    kernel.

    `floats` binds the text to one column of Python floats, through
    memoryviews of the buffers, with math.sqrt and a compare-and-assign
    floor; otherwise each buffer's column block is an (N, columns) array,
    a row per step, with np.sqrt and np.maximum.  Both keep NaN through the
    floor and round alike, so they are bit-identical; `_run` takes the
    array binding at n = m = 1 only.  A pivot not > 0 gives numpy's
    non-finite 1 / sqrt, or NaN where a float raises, and so a non-finite
    posterior; nothing is tested per step, and `_run` runs a failed run
    again by the numpy loop.  A cd kernel runs on floats only."""
    def P(i, j):  # Sigma_ij: one name for both triangles
        return f"p{min(i, j)}_{max(i, j)}"

    dot = _products

    def store(buf, i, j, k, value):  # both triangles of a symmetric buffer
        also = f"{buf}{j}_{i}[{k}] = " if i != j else ""
        return f"{buf}{i}_{j}[{k}] = {also}{value}"

    ns, ms = range(n), range(m)
    upper = [(i, j) for i in ns for j in ns if i <= j]
    lower = [(a, b) for a in ms for b in ms if a >= b]
    coefs = ([f"c{a}_{j}" for a in ms for j in ns]
             + [f"r{a}_{b}" for a in ms for b in ms]
             + [f"a{i}_{j}" for i in ns for j in ns]
             + [f"a{i}" for i in ns] + [f"q{i}" for i in ns]
             + [f"h{i}" for i in ns] + [f"h{i}_{j}" for i in ns for j in ns])
    cols = ":, 0" if floats else ":, :"
    view = "memoryview({})" if floats else "{}"
    bufs = ([(f"xp{i}", "prior", i, 0) for i in ns]
            + [(f"xq{i}", "post", i, 0) for i in ns]
            + [(f"{b}{i}_{j}", Z, i, 1 + j) for i in ns for j in ns
               for b, Z in (("Pp", "prior"), ("Pq", "post"))]
            + [(f"Ey{a}", "W", a, 0) for a in ms]
            + [(f"Sb{a}_{b}", "S", a, b) for a in ms for b in ms]
            + [(f"Kb{a}_{j}", "Kt", a, j) for a in ms for j in ns])
    src = ["def steps(coefs, prior, post, W, S, Kt, prop):",
           f"    {', '.join(coefs)}, = coefs"]
    if cd:  # cukf.continuous writes the time update and the names it binds
        from .continuous import _PROPAGATOR, _interval_lines
        src.append("    " + _PROPAGATOR)
    src += [f"    {name} = " + view.format(f"{Z}[{cols}, {i}, {j}]")
            for name, Z, i, j in bufs]
    src += [f"    x{i} = xp{i}[0]" for i in ns]
    src += [f"    p{i}_{j} = Pp{i}_{j}[0]" for i, j in upper]
    src += ["    N, clamps = len(Ey0), 0", "    for k in range(N):"]
    body = [f"mc{a}_{j} = 0.0 - ({dot((f'c{a}_{i}', P(i, j)) for i in ns)})"
            for a in ms for j in ns]  # -C Sigma
    S = {(a, b): f"r{a}_{b} - ({dot((f'mc{a}_{j}', f'c{b}_{j}') for j in ns)})"
         for a in ms for b in ms}
    body += [store("Sb", a, b, "k", f"s{a}_{b} = " + (
        S[a, b] if a == b else f"0.5 * ({S[a, b]} + ({S[b, a]}))"))
             for a, b in lower]
    body += _dpotf2(m)
    body += [f"Ey{a}[k] = e{a} = Ey{a}[k] - ("
             + dot((f"c{a}_{i}", f"x{i}") for i in ns) + " + 0.0)" for a in ms]
    for j in ns:  # column j of -K' = L'^-1 (L^-1 (-C Sigma))
        for a in ms:
            t = f"mc{a}_{j}"
            if a:
                t = (f"({t} - ("
                     + dot((f"l{a}_{b}", f"f{b}") for b in range(a)) + "))")
            body.append(f"f{a} = u{a} * {t}")
        for a in reversed(ms):
            t = f"f{a}"
            if a + 1 < m:
                t = (f"({t} - (" + dot((f"l{b}_{a}", f"kt{b}_{j}")
                                       for b in range(a + 1, m)) + "))")
            body.append(f"Kb{a}_{j}[k] = kt{a}_{j} = u{a} * {t} + 0.0")
    body += [f"xq{i}[k] = x{i} = x{i} - ("
             + dot((f"kt{a}_{i}", f"e{a}") for a in ms) + " + 0.0)"
             for i in ns]
    body += [store("Pq", i, j, "k", f"p{i}_{j} = p{i}_{j} - ("
                   + dot((f"kt{a}_{i}", f"mc{a}_{j}") for a in ms) + ")")
             for i, j in upper]
    body += ["if k + 1 == N:", "    break"]
    if cd:
        body += _interval_lines(n) + ["clamps += floored"]
    else:
        for i in ns:
            body.append(f"y{i} = "
                        + dot((f"h{i}_{j}", f"x{j}") for j in ns) + f" + h{i}")
            body += ([f"if y{i} < EPS_G:", f"    y{i} = EPS_G"] if floats
                     else [f"y{i} = maximum(y{i}, EPS_G)"])  # NaN stays NaN
            body.append(f"g{i} = sqrt(y{i})")
        body += [f"ap{i}_{j} = {dot((f'a{i}_{l}', P(l, j)) for l in ns)}"
                 for i in ns for j in ns]  # A1 Sigma
        body += [f"p{i}_{j} = {dot((f'ap{i}_{l}', f'a{j}_{l}') for l in ns)}"
                 + (f" + g{i} * q{i} * g{i}" if i == j else "")
                 for i, j in upper]
        body.append(", ".join(f"x{i}" for i in ns) + " = " + ", ".join(
            f"{dot((f'a{i}_{j}', f'x{j}') for j in ns)} + a{i}" for i in ns))
    body += [f"xp{i}[k + 1] = x{i}" for i in ns]
    body += [store("Pp", i, j, "k + 1", f"p{i}_{j}") for i, j in upper]
    src += ["        " + line for line in body]
    if cd:
        src.append("    return np.array([clamps])")
    else:  # the loop's g^2 of each posterior but the last, the same bits
        src += [f"    X{j} = post[:-1, :, {j}, 0]" for j in ns]
        src.append("    return (" + " | ".join(
            f"({dot((f'h{i}_{j}', f'X{j}') for j in ns)} + h{i} < EPS_G)"
            for i in ns) + ").sum(axis=0)")
    return _compiled(src, "steps", floats)


def _linear_steps(models, R, prop=None):
    """`_filtered`'s steps for the `_small_linear` models, which share n and
    m, over R replicates each: one batch of F R columns through `_kernel`,
    model i in columns i R to (i + 1) R.  One column binds its model's
    coefficients as a list of Python floats, with no array of columns.
    The propagator `prop`, if given, makes the time update of a
    continuous-discrete run (see `_kernel`)."""
    n, m = models[0].n, models[0].m
    coefs = [np.concatenate((
        model.C.ravel(), model.Sigma_w.ravel(), model.A1.ravel(),
        model.A0 + 0.0, np.diag(model.Sigma_v) + 0.0, model.gsq[:, 0],
        model.gsq[:, 1:].ravel())) for model in models]
    floats = len(models) * R == 1
    coefs = (coefs[0].tolist() if floats
             else np.repeat(np.array(coefs).T, R, axis=1))
    kernel = _kernel(n, m, floats, prop is not None)

    def steps(prior, post, W, S, Kt, trace):
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            return kernel(coefs, prior, post, W, S, Kt, prop)

    return steps


# The kernels of one-state discrete filters, which most runs take, are made
# at import, so that a run's first call does not compile them.
_kernel(1, 1, True, False)
_kernel(1, 1, False, False)


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
    as it is reached, so that a caller meets their errors in order; every
    model's sizes are checked first (LengthMismatchError).  When every
    model is `_small_linear`, they run as one batch of F R columns through
    the generated kernel (`_linear_steps`), model i in columns i R to
    (i + 1) R: in Python floats for one column, else on arrays, which only
    n = m = 1 models take (for n >= 2 the array binding makes more numpy
    calls per step than the numpy loop's stacked matmuls).  Then each model
    yields its checked kernel trace or, when reached, its run of the numpy
    loop `_run_loop`; at n = m = 1 the two are bit-identical.  A model
    whose kernel run fails or raises (a continuous-discrete time update
    may) is run again by the numpy loop, whose LAPACK factor decides the
    error as it always has: where S is singular in exact arithmetic,
    rounding decides which step fails, and the kernel rounds otherwise.  A
    continuous-discrete run's propagator `prop` gives the time update and
    owns its counts (`continuous._Propagator`).  `_filtered` broadcasts
    the shared inputs into each model's block of its buffers and makes
    each model's trace once, for every F."""
    for model in models:
        _check_sizes(model.m, model.n, measurements, xhat, Sigma)
    F, R = len(models), len(measurements)
    traces = [None] * F
    if (models and all(map(_small_linear, models))
            and (F * R == 1 or all(model.n == 1 for model in models))):
        with contextlib.suppress(FilterError, ValueError):
            traces = _filtered(measurements, xhat, Sigma,
                               _linear_steps(models, R, prop), F)
    for model, tr in zip(models, traces):
        trace = None
        if tr is not None:
            with contextlib.suppress(FilterError):
                trace = _checked(tr)
        yield trace if trace is not None else _run_loop(
            measurements, xhat, Sigma,
            prop.predict if prop else _predictor(model),
            model.C, model.Sigma_w)


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
