"""Seedable simulation of the models, Monte Carlo filter comparison, and the
statistics (mean squared error, innovation whiteness) used to judge them."""

import math
from dataclasses import dataclass, replace
from typing import List, Mapping, Optional

import numpy as np

from .discrete import (FilterTrace, _check_finite, _write_csv, _write_steps,
                       run_filter, run_filter_batch)
from .errors import FilterError, LengthMismatchError
from .models import (EPS_G, ContinuousDiscreteModel, DiscreteLinearModel,
                     _matvec, eval_G)

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
    # Square-root factor that also accepts PSD (e.g. zero) matrices.
    try:
        return np.linalg.cholesky(Sigma_w)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(Sigma_w)
        return V * np.sqrt(np.clip(w, 0.0, None))


def _paths(dyn, x0, seeds, nsteps, distribution, what, step,
           times=None) -> TrajectoryData:
    """R = len(seeds) paths of `dyn` from x0 (shared or (R, n)), sampled
    K = len(nsteps) + 1 times, with nsteps[k] steps in gap k.  Path r draws
    its noise as one block from `default_rng(seeds[r])` in the order y_1,
    the steps of gap 1, y_2, ..., y_K, so every row is bit-identical to a
    one-path run with the same seed.  A step of gap k is
    x <- step(k, x, f(x), g(x), v), v its draws times sqrt(diag Sigma_v).
    One path of a linear model with n = 1 calls `step` on Python floats,
    bit-identical (see `discrete._scalar_steps`); the numpy loop runs every
    other case.  A non-finite state raises naming the step that made it, a
    non-finite measurement y_k naming k."""
    R, n, m = len(seeds), dyn.n, dyn.m
    K, ends = len(nsteps) + 1, np.cumsum(nsteps)
    is_y = np.zeros(K * m + n * int(np.sum(nsteps)), dtype=bool)
    is_y[(m * np.arange(K) + n * np.append(0, ends))[:, None]
         + np.arange(m)] = True
    noise = _noise_blocks(seeds, is_y.size, distribution)
    v = np.sqrt(np.diag(dyn.Sigma_v)) * np.compress(
        ~is_y, noise, axis=1).reshape(R, -1, n)
    states = np.empty((R, K, n))
    states[:, 0] = x0
    if R == n == 1 and isinstance(dyn, DiscreteLinearModel):
        a1, a0 = dyn.A1.item(), dyn.A0.item() + 0.0
        c0, c1 = dyn.gsq[0].tolist()
        xs, vs = memoryview(states.reshape(-1)), memoryview(v.reshape(-1))
        x, clamped = xs[0], False
        # k is the gap of each step; the gap's last step leaves states[k + 1].
        for k, vj in zip(memoryview(np.repeat(np.arange(K - 1), nsteps)), vs):
            g2 = c1 * x + c0
            if g2 < EPS_G:  # not for NaN, which reaches the gain
                g2, clamped = EPS_G, True
            xs[k + 1] = x = step(k, x, a1 * x + a0, math.sqrt(g2), vj)
        clamped = np.array([clamped])
    else:
        # Column states (R, n, 1), so that A @ x rounds like the 1-D product.
        x, v = states[:, 0, :, None], v[..., None]
        g2 = np.empty_like(v)
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                for k, (a, b) in enumerate(zip((ends - nsteps).tolist(),
                                               ends.tolist())):
                    for j in range(a, b):
                        fx, _, g, g2[:, j] = dyn.linearize(x)
                        x = step(k, x, fx, g, v[:, j])
                    states[:, k + 1] = x[..., 0]
        except FilterError as exc:  # f or G non-finite in gap k
            _check_finite(1, (what, states[:, 1:k + 1]))
            exc.step = k + 1
            raise
        clamped = (g2 < EPS_G).any(axis=(1, 2, 3))
    _check_finite(1, (what, states[:, 1:]))
    with np.errstate(invalid="ignore", over="ignore"):
        ys = _matvec(dyn.C, states) + _matvec(
            _meas_noise_chol(dyn.Sigma_w),
            np.compress(is_y, noise, axis=1).reshape(R, K, m))
    _check_finite(1, ("simulated measurement", ys))
    return TrajectoryData(states=states, measurements=ys, clamped=clamped,
                          times=times)


def simulate_batch(model, x0, N: int, seeds,
                   distribution: str = "gaussian") -> TrajectoryData:
    """R = len(seeds) replicates of N steps of a discrete model, x0 shared
    or (R, n): the `_paths` with one step x <- f(x) + g(x) v per gap, so
    replicate r draws y_1 v_1 y_2 ... y_N from `default_rng(seeds[r])`.
    One replicate of a linear model with n = 1 steps in Python floats."""
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


def _em_steps(times, em_step: float) -> np.ndarray:
    """The Euler-Maruyama steps in each gap of `times` for the step
    `em_step`, which must be finite and positive, put at most 10^5 steps in
    a gap and divide every gap."""
    if not 0 < em_step < np.inf:
        raise ValueError("em_step must be finite and positive")
    gaps = np.diff(times)
    with np.errstate(over="ignore"):
        nsteps = np.rint(gaps / em_step)
    for t0, t1, gap, ns in zip(times, times[1:], gaps, nsteps):
        if not ns <= 10 ** 5:
            raise ValueError(f"em_step {em_step} puts {ns:.3g} steps on "
                             f"[{t0}, {t1}]; at most 100000 are allowed")
        if ns < 1 or abs(ns * em_step - gap) > 1e-9 * max(gap, 1.0):
            raise ValueError(f"em_step {em_step} does not divide the gap {gap}")
    return nsteps.astype(int)


def simulate_cd_batch(model: ContinuousDiscreteModel, x0, seeds,
                      em_step: float,
                      distribution: str = "gaussian") -> TrajectoryData:
    """Euler-Maruyama paths of the continuous dynamics, measured at the
    model's sample times (the first sample time carries x0), for
    R = len(seeds) paths at once, x0 shared or (R, n): the `_paths` whose
    gap k takes `_em_steps` steps x <- x + h f(x) + sqrt(h) g(x) v of
    length h = hs[k].  One path of a model with n = 1 steps in Python
    floats."""
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
    innovation covariance; for multi-output models the autocorrelations are
    averaged over components.  The pass fraction counts lags 1..max_lag with
    |rho| <= 1.96/sqrt(N).  A replicate with a constant component is
    degenerate: its rho and pass fraction are NaN.
    """
    N = len(trace)
    if N <= max_lag:
        raise ValueError(f"need more than max_lag={max_lag} steps, got {N}")
    m = trace.innovation.shape[-1]
    E = trace.innovation.reshape(-1, N, m, 1)
    S = trace.S.reshape(-1, N, m, m)
    z = np.linalg.solve(np.linalg.cholesky(S), E)[..., 0]
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
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    data_seeds = []
    xinit = np.empty((replicates, model.n))
    for r in range(replicates):
        data_seed, init_seed = replicate_seed(master_seed, r).spawn(2)
        data_seeds.append(data_seed)
        xinit[r] = np.random.default_rng(init_seed).standard_normal(model.n)
    data = simulate_batch(model, x0, N, data_seeds, distribution=distribution)
    Sigma0 = init_sigma * np.eye(model.n)
    F = len(filters)
    mses = np.empty((replicates, F))
    passes = np.empty((replicates, F))
    rhos = np.empty((F, MAX_LAG + 1))
    for i, run_model in enumerate(filters.values()):
        trace = run_filter_batch(run_model, data.measurements, xinit, Sigma0)
        mses[:, i] = mse(trace, data)
        wh = innovation_whiteness(trace)
        passes[:, i] = wh.pass_fraction
        rhos[i] = wh.rho.sum(axis=0) / replicates
    se = mses.std(axis=0, ddof=1) / np.sqrt(replicates) if replicates > 1 \
        else np.zeros(F)
    return ComparisonReport(
        filter_names=list(filters), replicates=replicates, N=N,
        master_seed=master_seed, mse_mean=mses.mean(axis=0), mse_se=se,
        mse_halfwidth=1.96 * se,
        whiteness_pass_fraction=passes.mean(axis=0), autocorr_mean=rhos,
        clamped_replicates=int(data.clamped.sum()), mse_samples=mses)
