"""Seedable simulation of the models, Monte Carlo filter comparison, and the
statistics (mean squared error, innovation whiteness) used to judge them."""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .discrete import (FilterTrace, _check_finite, _write_csv, _write_steps,
                       run_filter, run_filter_batch)
from .errors import FilterError, LengthMismatchError
from .models import (EPS_G, ContinuousDiscreteModel, DiscreteLinearModel,
                     _matvec, eval_G, with_fixed_noise)

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


def _noise_blocks(seeds, size, distribution, pad=0):
    """(R, size + pad) array whose row r holds `size` unit draws from
    `default_rng(seeds[r])`, then `pad` zeros."""
    noise = np.zeros((len(seeds), size + pad))
    for r, seed in enumerate(seeds):
        noise[r, :size] = _unit_noise(np.random.default_rng(seed), size,
                                      distribution)
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


def simulate_batch(model, x0, N: int, seeds,
                   distribution: str = "gaussian") -> TrajectoryData:
    """Simulate R = len(seeds) replicates of N steps of a discrete model at
    once, replicate r from its own Generator `default_rng(seeds[r])`; x0 is
    shared or (R, n).  Each replicate draws its noise as one block in the
    per-step order y_1 v_1 y_2 v_2 ... y_N, so every row is bit-identical to
    a one-replicate run with the same seed.  One replicate of a linear model
    with n = 1 takes the Python-float kernel `_scalar_states`, bit-identical
    to the numpy loop, which runs every other case."""
    if N < 1:
        raise ValueError("N must be >= 1")
    R = len(seeds)
    n = model.n
    m = model.m
    sv = np.sqrt(np.diag(model.Sigma_v))
    Lw = _meas_noise_chol(model.Sigma_w)
    # Pad each block by n so that row k holds the draws of step k.
    noise = _noise_blocks(seeds, N * (m + n) - n, distribution,
                          pad=n).reshape(R, N, m + n)
    # Column states (R, n, 1); row 0 holds x0, row k the state of step k.
    v = (sv * noise[:, :-1, m:])[..., None]
    states, g2 = np.empty((R, N, n, 1)), np.empty((R, N - 1, n, 1))
    states[:, 0, :, 0] = x0
    if R == n == 1 and isinstance(model, DiscreteLinearModel):
        clamped = _scalar_states(model, states.reshape(-1), v.reshape(-1))
    else:
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                for k in range(N - 1):
                    fx, _, g, g2[:, k] = model.linearize(states[:, k])
                    states[:, k + 1] = fx + g * v[:, k]
        except FilterError as exc:  # f or G non-finite making step k + 1
            _check_finite("simulated state", 1, states[:, 1:k + 1])
            exc.step = k + 1
            raise
        clamped = (g2 < EPS_G).any(axis=(1, 2, 3))
    states = states[..., 0]
    _check_finite("simulated state", 1, states[:, 1:])
    ys = _matvec(model.C, states) + _matvec(Lw, noise[..., :m])
    return TrajectoryData(states=states, measurements=ys, clamped=clamped)


def _scalar_states(model, x, v):
    """`simulate_batch`'s state loop for one replicate of a linear model with
    n = 1 in Python floats, bit-identical (see `discrete._scalar_steps`): x
    (N,) holds x0 and gets the states, v the N - 1 scaled noises."""
    a1, a0 = model.A1.item(), model.A0.item() + 0.0
    c0, c1 = model.gsq[0].tolist()
    xs, clamped = memoryview(x), False
    xk = xs[0]
    for k, vk in enumerate(memoryview(v), 1):
        g2 = c1 * xk + c0
        if g2 < EPS_G:  # not for NaN, which reaches the gain
            g2, clamped = EPS_G, True
        xs[k] = xk = a1 * xk + a0 + math.sqrt(g2) * vk
    return np.array([clamped])


def simulate_discrete(model, x0, N: int, seed,
                      distribution: str = "gaussian") -> TrajectoryData:
    """Simulate N steps of a discrete model with the gain evaluated at the
    TRUE state; the first recorded state is x0 itself (the x_1 convention).
    The one-replicate case of `simulate_batch`."""
    return simulate_batch(model, x0, N, [seed], distribution).replicate(0)


def simulate_cd_batch(model: ContinuousDiscreteModel, x0, seeds,
                      em_step: float,
                      distribution: str = "gaussian") -> TrajectoryData:
    """Euler-Maruyama paths of the continuous dynamics, measured at the
    model's sample times (the first sample time carries x0), for
    R = len(seeds) paths at once; x0 is shared or (R, n).  Path r draws its
    noise as one block from `default_rng(seeds[r])` in the per-step order
    y_1, the steps of gap 1, y_2, ..., so every row is bit-identical to a
    one-path run with the same seed.  A gap of more than 10^5 steps is
    refused before any noise is drawn.  One path of a model with n = 1 takes
    the Python-float kernel `_one_path_states`, bit-identical to the numpy
    loop, which runs every other case."""
    if not 0 < em_step < np.inf:
        raise ValueError("em_step must be finite and positive")
    dyn = model.inner
    times = model.sample_times
    R = len(seeds)
    n = dyn.n
    m = dyn.m
    gaps = np.diff(times)
    with np.errstate(over="ignore"):
        nsteps = np.rint(gaps / em_step)
    for t0, t1, gap, ns in zip(times, times[1:], gaps, nsteps):
        if not ns <= 10 ** 5:
            raise ValueError(f"em_step {em_step} puts {ns:.0f} steps on "
                             f"[{t0}, {t1}]; at most 100000 are allowed")
        if ns < 1 or abs(ns * em_step - gap) > 1e-9 * max(gap, 1.0):
            raise ValueError(f"em_step {em_step} does not divide the gap {gap}")
    nsteps = nsteps.astype(int)
    hs = gaps / nsteps
    # Sample k's draws start at starts[k]: m for y_k, then n per step.
    sizes = m + n * np.append(nsteps, 0)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    noise = _noise_blocks(seeds, starts[-1], distribution)
    sv = np.sqrt(np.diag(dyn.Sigma_v))
    Lw = _meas_noise_chol(dyn.Sigma_w)
    # Column states (R, n, 1), so that A @ x rounds like the 1-D product.
    x = np.broadcast_to(np.asarray(x0, dtype=float), (R, n))[..., None]
    states = np.empty((R, times.size, n))
    states[:, 0] = x[..., 0]
    if R == n == 1:
        floored = _one_path_states(dyn, states.reshape(-1), sv * noise[0],
                                   hs, nsteps, starts[:-1] + m)
    else:
        floored = np.zeros(R, dtype=bool)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for k, h in enumerate(hs):
                sqh = np.sqrt(h)
                xi = (sv * noise[:, starts[k] + m:starts[k + 1]].reshape(
                    R, nsteps[k], n))[..., None]
                # g^2 of every step of the gap, tested for the floor once.
                g2 = np.empty_like(xi)
                for j in range(nsteps[k]):
                    fx, _, gain, g2[:, j] = dyn.linearize(x)
                    x = x + h * fx + sqh * (gain * xi[:, j])
                floored |= (g2 < EPS_G).any(axis=(1, 2, 3))
                states[:, k + 1] = x[..., 0]
    _check_finite("simulated path", 1, states[:, 1:])
    ys = _matvec(dyn.C, states) + _matvec(
        Lw, noise[:, starts[:-1, None] + np.arange(m)])
    return TrajectoryData(states=states, measurements=ys, clamped=floored,
                          times=times.copy())


def _one_path_states(dyn, x, xi, hs, nsteps, starts):
    """`simulate_cd_batch`'s Euler-Maruyama loop for one path of a model with
    n = 1 in Python floats, bit-identical (see `discrete._scalar_steps`): x
    (K,) holds x0 and gets the states at the sample times, xi the scaled
    noise row, whose steps of gap k start at starts[k]."""
    a1, a0 = dyn.A1.item(), dyn.A0.item() + 0.0
    c0, c1 = dyn.gsq[0].tolist()
    xs, xi, floored = memoryview(x), memoryview(xi), False
    xk = xs[0]
    for k, (h, ns, s) in enumerate(zip(hs.tolist(), nsteps.tolist(),
                                       starts.tolist()), 1):
        sqh = math.sqrt(h)
        for v in xi[s:s + ns]:
            g2 = c1 * xk + c0
            if g2 < EPS_G:  # not for NaN, which reaches the gain
                g2, floored = EPS_G, True
            xk = xk + h * (a1 * xk + a0) + sqh * (math.sqrt(g2) * v)
        xs[k] = xk
    return np.array([floored])


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


@dataclass(frozen=True)
class FilterSpec:
    """A filter entry for the comparison: covariance-update or fixed-beta.
    The variant only picks the model that is filtered: the model itself, or
    its `with_fixed_noise(model, beta)` baseline."""

    name: str
    variant: str = "covariance-update"
    beta: Optional[float] = None

    def __post_init__(self):
        if self.variant == "fixed-beta" and self.beta is None:
            raise ValueError("fixed-beta filter needs a beta value")
        if self.variant not in ("covariance-update", "fixed-beta"):
            raise ValueError(f"unknown variant {self.variant!r}")


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


def monte_carlo_compare(model: DiscreteLinearModel, filters: Sequence[FilterSpec],
                        replicates: int, N: int, master_seed: int,
                        x0=1.0, init_sigma: float = 0.0,
                        distribution: str = "gaussian") -> ComparisonReport:
    """Run every filter on the same seeded replicates and aggregate.

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
    for i, spec in enumerate(filters):
        run_model = (with_fixed_noise(model, spec.beta)
                     if spec.variant == "fixed-beta" else model)
        trace = run_filter_batch(run_model, data.measurements, xinit, Sigma0)
        mses[:, i] = mse(trace, data)
        wh = innovation_whiteness(trace)
        passes[:, i] = wh.pass_fraction
        rhos[i] = wh.rho.sum(axis=0) / replicates
    se = mses.std(axis=0, ddof=1) / np.sqrt(replicates) if replicates > 1 \
        else np.zeros(F)
    return ComparisonReport(
        filter_names=[s.name for s in filters], replicates=replicates, N=N,
        master_seed=master_seed, mse_mean=mses.mean(axis=0), mse_se=se,
        mse_halfwidth=1.96 * se,
        whiteness_pass_fraction=passes.mean(axis=0), autocorr_mean=rhos,
        clamped_replicates=int(data.clamped.sum()), mse_samples=mses)
