"""Seedable simulation of the models, Monte Carlo filter comparison, and the
statistics (mean squared error, innovation whiteness) used to judge them."""

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import List, Mapping, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .discrete import (FilterTrace, _check_finite, _check_sizes, _run,
                       _write_csv, _write_steps, run_filter)
from .errors import FilterError, LengthMismatchError, NonFiniteStateError
from .models import (EPS_G, ContinuousDiscreteModel, DiscreteLinearModel,
                     _first_failure, eval_G)

# run_filter and eval_G are not called here; bench/spans.py wraps them as
# attributes of this module, so they stay importable from it.

SQRT3 = np.sqrt(3.0)

# Largest autocorrelation lag of the whiteness statistic.
MAX_LAG = 20


def _unit_noise(rng, size, distribution):
    """Zero-mean unit-variance draws; BLUE only needs second moments, so a
    rescaled-uniform alternative is exposed alongside the Gaussian default."""
    if distribution == "gaussian":
        return rng.standard_normal(size)
    if distribution == "uniform":
        return rng.uniform(-SQRT3, SQRT3, size)
    raise ValueError(f"unknown noise distribution {distribution!r}")


def _noise_blocks(seeds, size, distribution):
    """(R, size) array whose row r holds `size` unit draws from
    `default_rng(seeds[r])`."""
    noise = np.empty((len(seeds), size))
    for r, seed in enumerate(seeds):
        noise[r] = _unit_noise(np.random.default_rng(seed), size, distribution)
    return noise


def replicate_seed(master_seed: int, replicate: int) -> np.random.SeedSequence:
    """Deterministic per-replicate stream, independent of execution order."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate,))


# numpy's SeedSequence constants (NEP 19 fixes its output): the pool hash,
# the state hash and the pool mix, all uint32 arithmetic.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(h, mult):
    """SeedSequence's `hashmix`, whose multiplier h advances by `mult` at
    each call, on a Python int or a uint64 array of uint32 values."""

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    """SeedSequence's `mix` of a pool word x with a hashed word y."""
    value = _MIX_L * x - _MIX_R * y & _M32
    return value ^ value >> 16


def _replicate_words(master_seed, R) -> np.ndarray:
    """(2, R, 4) uint64 whose [c, r] is
    `replicate_seed(master_seed, r).spawn(2)[c].generate_state(4, np.uint64)`
    (c = 0 the data stream, 1 the init stream), made for all R at once.

    It runs SeedSequence's pool hashing and state mixing word by word on
    the entropy [seed words, r, c], with r and c held in uint64 arrays and
    every product or difference reduced mod 2^32.  The seed's words are
    the same for every replicate and stay Python ints."""
    seed = operator.index(master_seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if R >= 2 ** 32:
        raise ValueError(f"replicates must be below 2**32, got {R}: a "
                         "replicate index is one 32-bit spawn-key word")
    run = [seed >> 32 * i & _M32
           for i in range(max(1, (seed.bit_length() + 31) // 32))]
    r, c = np.arange(R, dtype=np.uint64), np.arange(2, dtype=np.uint64)
    # With a spawn key, the seed's words are padded to the pool size, 4.
    entropy = run + [0] * (4 - len(run)) + [r[None, :], c[:, None]]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(e))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.array([hashmix(pool[i % 4]) for i in range(8)])
    # Little-endian pairs of uint32 words make the uint64 words; PCG64
    # reads a row's buffer, so each row must be contiguous.
    return np.ascontiguousarray(
        (state[0::2] | state[1::2] << np.uint64(32)).transpose(1, 2, 0))


class _Words(ISeedSequence):
    """A seed for PCG64 whose state words are given: `generate_state`
    returns them, for the one call PCG64 makes, (4, np.uint64)."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words) -> np.random.Generator:
    """`default_rng(ss)` for the SeedSequence ss whose
    `generate_state(4, np.uint64)` is `words`."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


@dataclass
class TrajectoryData:
    """True states and measurements.

    Regenerating with the same (model, seed) is bit-identical.  A batch
    (`simulate_batch`) holds R replicates: states and measurements gain a
    leading axis R and `clamped` is an (R,) array.
    """

    states: np.ndarray        # (N, n)
    measurements: np.ndarray  # (N, m)
    clamped: bool = False
    times: Optional[np.ndarray] = None

    def __len__(self):
        return self.states.shape[-2]

    def replicate(self, r: int) -> "TrajectoryData":
        """Replicate r of a batch, as a single trajectory."""
        return replace(self, states=self.states[r],
                       measurements=self.measurements[r],
                       clamped=bool(self.clamped[r]))

    def to_csv(self, path):
        _write_steps(path, range(1, len(self) + 1), self.times,
                     [f"x_true_{i}" for i in range(self.states.shape[1])]
                     + [f"y_{i}" for i in range(self.measurements.shape[1])],
                     [self.states, self.measurements])


def _meas_noise_chol(Sigma_w):
    """A square-root factor L of Sigma_w, L L' = Sigma_w.  A positive
    definite Sigma_w gets its lower Cholesky factor by the textbook
    (unblocked) recursion in Python floats: each dot product summed left to
    right, math.sqrt, and each column scaled by the reciprocal of its
    pivot.  So unlike LAPACK's, its bits do not depend on the CPU's BLAS
    kernel.  Any other (a semidefinite one, such as 0) gets V sqrt(w) from
    eigh."""
    S, m = Sigma_w.tolist(), len(Sigma_w)
    L = [[0.0] * m for _ in range(m)]
    for j in range(m):
        for i in range(j, m):
            dot = 0.0
            for k in range(j):
                dot += L[i][k] * L[j][k]
            s = S[i][j] - dot
            if i > j:
                L[i][j] = s * inv
            elif s > 0:
                L[j][j] = math.sqrt(s)
                inv = 1.0 / L[j][j]
            else:
                w, V = np.linalg.eigh(Sigma_w)
                return V * np.sqrt(np.clip(w, 0.0, None))
    return np.array(L)


def _affine(A, x, b=0.0):
    """b + A x for x (n, ...), its components first: output i is the ordered
    sum (A[i, 0] x[0] + ... + A[i, n-1] x[n-1]) + b[i], one rounding per
    operation, by n broadcast multiply-adds.  A BLAS product may fuse them
    into FMAs, depending on the CPU; this rounds alike on every CPU, and
    like `_float_steps`.  b = 0.0 makes a -0.0 sum +0.0, as a matmul does."""
    y = np.multiply.outer(A[:, 0], x[0])
    for a, xj in zip(A.T[1:], x[1:]):
        y = y + np.multiply.outer(a, xj)
    return y + b


@functools.lru_cache(maxsize=None)
def _float_steps(n):
    """The Python-float loop of `_paths` for n states, written out by
    component: steps(ps, ks, vs, step, coefs) writes component i of the
    state after each step of gap k to ps[i][k], so the gap's last step
    leaves it there, with ks[j] the gap of step j and vs[i] component i's
    draws.  coefs holds the rows of [A1; C1], then [A0; c0] + 0.0, then
    the start x0 ... x{n-1}.  Output i, drift i or g^2_{i-n}, is
    `a{i}_0 * x0 + ... + a{i}_{n-1} * x{n-1} + b{i}`, which Python sums
    left to right, as `_affine` does.  Returns whether a g^2 was floored."""
    def names(prefix, count):
        return ", ".join(f"{prefix}{i}" for i in range(count)) + ","

    rows = range(2 * n)
    src = ["def steps(ps, ks, vs, step, coefs):",
           f"    {' '.join(f'a{i}_{j},' for i in rows for j in range(n))}"
           f" {names('b', 2 * n)} {names('x', n)} = coefs",
           f"    {names('p', n)} = ps",
           "    clamped = False",
           f"    for k, {names('v', n)} in zip(ks, *vs):"]
    src += [f"        y{i} = "
            + " + ".join(f"a{i}_{j} * x{j}" for j in range(n)) + f" + b{i}"
            for i in rows]
    for i in range(n, 2 * n):  # not for NaN, which reaches the state
        src += [f"        if y{i} < EPS_G:",
                f"            y{i}, clamped = EPS_G, True"]
    src += [f"        p{i}[k] = x{i} = step(k, x{i}, y{i}, sqrt(y{n + i}),"
            f" v{i})" for i in range(n)]
    src.append("    return clamped")
    scope = {"EPS_G": EPS_G, "sqrt": math.sqrt}
    exec("\n".join(src), scope)
    return scope["steps"]


def _paths(dyn, x0, seeds, nsteps, distribution, what, step,
           times=None) -> TrajectoryData:
    """R = len(seeds) paths of `dyn` from x0 (shared or (R, n)), sampled
    K = len(nsteps) + 1 times, with nsteps[k] steps in gap k.  Path r draws
    its noise as one block from `default_rng(seeds[r])` in the order y_1,
    the steps of gap 1, y_2, ..., y_K, so every row is bit-identical to a
    one-path run with the same seed.  A step of gap k is
    x <- step(k, x, f(x), g(x), v), v its draws times sqrt(diag Sigma_v).

    One path of a `DiscreteLinearModel` runs `_float_steps` on Python
    floats; more paths, or a nonlinear model, run the numpy loop.  For a
    linear model both compute f(x) = A0 + A1 x, g^2(x) = c0 + C1 x and the
    measurements C x + L w as `_affine`'s ordered sums, not as BLAS
    products.  So a batch row equals its one-path run bit for bit for every
    n, and the path does not depend on the CPU's BLAS kernel, nor does L
    (`_meas_noise_chol`) unless Sigma_w is singular and not zero.  A
    filter's trace of an n >= 2 model still does.  A
    non-finite state or measurement raises naming its row k of the samples
    (x_1 = x0 is row 1), and so does a nonlinear model's drift or gain that
    turns non-finite making row k.  No seeds, or an x0 of another size
    (`discrete._check_sizes`), is refused before any noise is drawn."""
    R, n, m = len(seeds), dyn.n, dyn.m
    if R < 1:
        raise ValueError("seeds must be nonempty")
    _check_sizes(m, n, x0=x0, R=R)
    K, ends = len(nsteps) + 1, np.cumsum(nsteps)
    is_y = np.zeros(K * m + n * int(np.sum(nsteps)), dtype=bool)
    is_y[(m * np.arange(K) + n * np.append(0, ends))[:, None]
         + np.arange(m)] = True
    noise = _noise_blocks(seeds, is_y.size, distribution)
    # v[j] holds step j's draws times sqrt(diag Sigma_v), as (n, R).
    v = np.multiply(np.sqrt(np.diag(dyn.Sigma_v))[:, None], np.compress(
        ~is_y, noise, axis=1).reshape(R, -1, n).transpose(1, 2, 0), order="C")
    states = np.empty((R, K, n))
    states[:, 0] = x0
    linear = isinstance(dyn, DiscreteLinearModel)
    if linear:
        A, b = dyn._A1C1, dyn._a0c0 + 0.0
    if R == 1 and linear:
        path = np.empty((n, K - 1))
        clamped = np.array([_float_steps(n)(
            list(map(memoryview, path)),
            memoryview(np.repeat(np.arange(K - 1), nsteps)),
            list(map(memoryview, np.ascontiguousarray(v[..., 0].T))),
            step, A.ravel().tolist() + b.tolist() + states[0, 0].tolist())])
        states[0, 1:] = path.T
    else:
        # Components first, x (n, R), so that each operation runs along R.
        x, g2 = states[:, 0].T, np.empty_like(v)
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                for k, (lo, hi) in enumerate(zip((ends - nsteps).tolist(),
                                                 ends.tolist())):
                    for j in range(lo, hi):
                        if linear:
                            y = _affine(A, x, b[:, None])
                            fx, g2[j] = y[:n], y[n:]
                            g = np.sqrt(np.maximum(g2[j], EPS_G))
                        else:
                            fx, _, g, g2[j] = dyn.linearize(x.T[..., None])
                            fx, g = fx[..., 0].T, g[..., 0].T
                        x = step(k, x, fx, g, v[j])
                    states[:, k + 1] = x.T
        except FilterError as exc:  # f or G non-finite making row k + 2
            _check_finite(2, (what, states[:, 1:k + 1]))
            exc.step = k + 2
            raise
        clamped = (g2 < EPS_G).any(axis=(0, 1))
    _check_finite(2, (what, states[:, 1:]))
    w = np.compress(is_y, noise, axis=1).reshape(R, K, m)
    with np.errstate(invalid="ignore", over="ignore"):
        ys = np.ascontiguousarray((_affine(dyn.C, states.T) + _affine(
            _meas_noise_chol(dyn.Sigma_w), w.T)).T)
    _check_finite(1, ("simulated measurement", ys))
    return TrajectoryData(states=states, measurements=ys, clamped=clamped,
                          times=times)


def simulate_batch(model, x0, N: int, seeds,
                   distribution: str = "gaussian") -> TrajectoryData:
    """R = len(seeds) replicates of N steps of a discrete model, x0 shared
    or (R, n): the `_paths` with one step x <- f(x) + g(x) v per gap, so
    replicate r draws y_1 v_1 y_2 ... y_N from `default_rng(seeds[r])`
    (seeds[r] itself if it is a Generator).
    One replicate of a linear model steps in Python floats."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _paths(model, x0, seeds, np.ones(N - 1, dtype=int), distribution,
                  "simulated state", lambda k, x, fx, g, v: fx + g * v)


def simulate_discrete(model, x0, N: int, seed,
                      distribution: str = "gaussian") -> TrajectoryData:
    """Simulate N steps of a discrete model with the gain evaluated at the
    TRUE state; the first recorded state is x0 itself (the x_1 convention).
    The one-replicate case of `simulate_batch`."""
    return simulate_batch(model, x0, N, [seed], distribution).replicate(0)


def _em_steps(times, em_step: float, name: str = "em_step") -> np.ndarray:
    """The Euler-Maruyama steps in each gap of `times` for the step
    `em_step`, which must be finite and positive, put at most 10^5 steps in
    a gap and divide every gap; a refusal names the step `name` and the
    first gap that fails."""
    if not 0 < em_step < np.inf:
        raise ValueError(f"{name} must be finite and positive")
    gaps = np.diff(times)
    with np.errstate(over="ignore"):
        nsteps = np.rint(gaps / em_step)
        bad = ~(nsteps <= 10 ** 5) | (nsteps < 1) | (
            np.abs(nsteps * em_step - gaps) > 1e-9 * np.maximum(gaps, 1.0))
    if bad.any():
        k = int(bad.argmax())
        ns = nsteps[k]
        if not ns <= 10 ** 5:
            raise ValueError(f"{name} {em_step} puts {ns:.3g} steps on "
                             f"[{times[k]}, {times[k + 1]}]; at most 100000 "
                             "are allowed")
        raise ValueError(f"{name} {em_step} does not divide the gap {gaps[k]}")
    return nsteps.astype(int)


def simulate_cd_batch(model: ContinuousDiscreteModel, x0, seeds,
                      em_step: float,
                      distribution: str = "gaussian") -> TrajectoryData:
    """Euler-Maruyama paths of the continuous dynamics, measured at the
    model's sample times (the first sample time carries x0), for
    R = len(seeds) paths at once, x0 shared or (R, n): the `_paths` whose
    gap k takes `_em_steps` steps x <- x + h f(x) + sqrt(h) g(x) v of
    length h = hs[k].  One path steps in Python floats."""
    times = model.sample_times
    nsteps = _em_steps(times, em_step)
    hs = (np.diff(times) / nsteps).tolist()
    sqhs = [math.sqrt(h) for h in hs]
    return _paths(model.inner, x0, seeds, nsteps, distribution,
                  "simulated path",
                  lambda k, x, fx, g, v: x + hs[k] * fx + sqhs[k] * (g * v),
                  times=times.copy())


def simulate_cd(model: ContinuousDiscreteModel, x0, seed, em_step: float,
                distribution: str = "gaussian") -> TrajectoryData:
    """Euler-Maruyama path of the continuous dynamics, measured at the
    model's sample times (the first sample time carries x0).  The one-path
    case of `simulate_cd_batch`."""
    return simulate_cd_batch(model, x0, [seed], em_step,
                             distribution).replicate(0)


def mse(trace: FilterTrace, truth: TrajectoryData):
    """Mean of ||xhat_post - x_true||^2 over the steps; an (R,) array for a
    batch trace and batch truth."""
    if len(trace) != len(truth):
        raise LengthMismatchError(
            f"trace has {len(trace)} steps, truth has {len(truth)}")
    err = trace.xhat_post - truth.states
    with np.errstate(over="ignore"):  # a diverged run's mse is inf
        out = np.mean(np.sum(err ** 2, axis=-1), axis=-1)
    return float(out) if out.ndim == 0 else out


def _dot(a, b):
    """Dot products over the last axis, rounded like the 1-D `a @ b`."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@dataclass
class WhitenessResult:
    """For a batch trace, rho, pass_fraction and degenerate gain a leading
    replicate axis."""

    rho: np.ndarray          # autocorrelations, lags 0..max_lag
    pass_fraction: float
    degenerate: bool = False


def innovation_whiteness(trace: FilterTrace,
                         max_lag: int = MAX_LAG) -> WhitenessResult:
    """Sample autocorrelations of the normalized innovations.

    Innovations are whitened per step by the Cholesky factor of the
    innovation covariance (for one output, divided by sqrt(S)); for
    multi-output models the autocorrelations are averaged over components.
    The pass fraction counts lags 1..max_lag with |rho| <= 1.96/sqrt(N).  A
    replicate with a constant component is degenerate: its rho and pass
    fraction are NaN.
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be at least 1, got {max_lag}")
    N = len(trace)
    if N <= max_lag:
        raise ValueError(f"need more than max_lag={max_lag} steps, got {N}")
    m = trace.innovation.shape[-1]
    E = trace.innovation.reshape(-1, N, m)
    S = trace.S.reshape(-1, N, m, m)
    if m > 1:
        z = np.linalg.solve(np.linalg.cholesky(S), E[..., None])[..., 0]
    elif (S <= 0).any():
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    else:  # rounds exactly like the solve, as in `discrete._inverse_factor`
        z = E / np.sqrt(S[..., 0])
    # (R, m, N): each component's series contiguous, as in a 1-D reduction.
    z = np.ascontiguousarray(z.swapaxes(-1, -2))
    z = z - z.mean(axis=-1, keepdims=True)
    denom = _dot(z, z)
    degenerate = (denom <= 0).any(axis=-1)
    rho = np.empty(z.shape[:2] + (max_lag + 1,))
    for lag in range(max_lag + 1):
        rho[..., lag] = _dot(z[..., :N - lag], z[..., lag:])
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.mean(rho / denom[..., None], axis=1)
    threshold = 1.96 / np.sqrt(N)
    pass_fraction = np.mean(np.abs(rho[:, 1:]) <= threshold, axis=-1)
    rho[degenerate] = np.nan
    pass_fraction[degenerate] = np.nan
    if trace.innovation.ndim == 2:
        return WhitenessResult(rho=rho[0], pass_fraction=float(pass_fraction[0]),
                               degenerate=bool(degenerate[0]))
    return WhitenessResult(rho=rho, pass_fraction=pass_fraction,
                           degenerate=degenerate)


@dataclass
class ComparisonReport:
    """Replicate-aggregated comparison of filters on one model."""

    filter_names: List[str]
    replicates: int
    N: int
    master_seed: int
    mse_mean: np.ndarray           # (F,)
    mse_se: np.ndarray             # (F,) standard error of the mean
    mse_halfwidth: np.ndarray      # (F,) 1.96 * se
    whiteness_pass_fraction: np.ndarray  # (F,)
    autocorr_mean: np.ndarray      # (F, max_lag+1)
    clamped_replicates: int
    mse_samples: np.ndarray        # (replicates, F), per-replicate MSE

    def to_table(self) -> str:
        lines = [f"replicates={self.replicates} N={self.N} "
                 f"seed={self.master_seed} clamped={self.clamped_replicates}"]
        lines.append(f"{'filter':<24}{'mse':>14}{'+/-':>12}{'whiteness':>12}")
        for i, name in enumerate(self.filter_names):
            lines.append(f"{name:<24}{self.mse_mean[i]:>14.6g}"
                         f"{self.mse_halfwidth[i]:>12.3g}"
                         f"{self.whiteness_pass_fraction[i]:>12.4f}")
        return "\n".join(lines)

    def to_csv(self, path):
        # .tolist() gives Python floats, which csv writes by their repr.
        stats = np.column_stack((self.mse_mean, self.mse_se, self.mse_halfwidth,
                                 self.whiteness_pass_fraction)).tolist()
        _write_csv(path, ["filter", "replicates", "N", "master_seed",
                          "mse_mean", "mse_se", "mse_halfwidth",
                          "whiteness_pass_fraction", "clamped_replicates"]
                   + [f"rho_{l}" for l in range(self.autocorr_mean.shape[1])],
                   ([name, self.replicates, self.N, self.master_seed, *row,
                     self.clamped_replicates, *rho] for name, row, rho in zip(
                         self.filter_names, stats, self.autocorr_mean.tolist())))


def monte_carlo_compare(model: DiscreteLinearModel,
                        filters: Mapping[str, DiscreteLinearModel],
                        replicates: int, N: int, master_seed: int,
                        x0=1.0, init_sigma: float = 0.0,
                        distribution: str = "gaussian") -> ComparisonReport:
    """Run every filter on the same seeded replicates and aggregate.
    `filters` maps each filter's name to the model it filters with, e.g.
    `with_fixed_noise(model, beta)` for a fixed-beta baseline.

    Per replicate, data are simulated from the model and the filter initial
    condition is drawn from a standard Gaussian with prior covariance
    init_sigma * I (zero by default, matching the reproduction setup even
    though that prior claims no uncertainty about a random guess).
    Replicate r's data and initial condition draw from the two children of
    `replicate_seed(master_seed, r).spawn(2)`, whose words
    `_replicate_words` makes for every replicate at once.

    The filters take the filter's own route over all replicates
    (`discrete._run`: one batch of F R columns when every filter is linear
    with n = m = 1), and each in turn is then checked: its trace (errors
    name the step and its replicate), its MSE, whose first non-finite
    replicate raises NonFiniteStateError naming the filter, and its
    whiteness.  A mean or standard error of the MSE that is not finite
    raises NonFiniteStateError naming its filter.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    _check_sizes(model.m, model.n, x0=x0, R=replicates)
    data_words, init_words = _replicate_words(master_seed, replicates)
    xinit = np.array([_generator(w).standard_normal(model.n)
                      for w in init_words])
    data = simulate_batch(model, x0, N, [_generator(w) for w in data_words],
                          distribution=distribution)
    Sigma0 = init_sigma * np.eye(model.n)
    F = len(filters)
    mses = np.empty((replicates, F))
    passes = np.empty((replicates, F))
    rhos = np.empty((F, MAX_LAG + 1))
    traces = _run(list(filters.values()), data.measurements, xinit, Sigma0)
    for i, (name, trace) in enumerate(zip(filters, traces)):
        mses[:, i] = mse(trace, data)
        if not (ok := np.isfinite(mses[:, i])).all():
            raise NonFiniteStateError(
                f"mean squared error of filter {name!r} became non-finite",
                replicate=_first_failure(ok))
        wh = innovation_whiteness(trace)
        passes[:, i] = wh.pass_fraction
        rhos[i] = wh.rho.sum(axis=0) / replicates
    with np.errstate(over="ignore"):  # squares of finite MSEs may overflow
        mean = mses.mean(axis=0)
        se = mses.std(axis=0, ddof=1) / np.sqrt(replicates) \
            if replicates > 1 else np.zeros(F)
    for name, ok in zip(filters, np.isfinite(mean) & np.isfinite(se)):
        if not ok:
            raise NonFiniteStateError(
                f"mean or standard error of the mean squared error of filter "
                f"{name!r} is not finite")
    return ComparisonReport(
        filter_names=list(filters), replicates=replicates, N=N,
        master_seed=master_seed, mse_mean=mean, mse_se=se,
        mse_halfwidth=1.96 * se,
        whiteness_pass_fraction=passes.mean(axis=0), autocorr_mean=rhos,
        clamped_replicates=int(data.clamped.sum()), mse_samples=mses)
