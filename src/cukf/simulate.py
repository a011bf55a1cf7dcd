"""Seedable simulation of the models, Monte Carlo filter comparison, and the
statistics (mean squared error, innovation whiteness) used to judge them."""

import csv
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .discrete import (FilterTrace, _first_failure, _matvec, run_filter,
                       run_filter_batch)
from .errors import LengthMismatchError, NonFiniteStateError
from .models import (EPS_G, ContinuousDiscreteModel, DiscreteLinearModel,
                     eval_G, with_fixed_noise)

# run_filter and eval_G are not called here; bench/spans.py wraps them as
# attributes of this module, so they stay importable from it.

SQRT3 = np.sqrt(3.0)


def _unit_noise(rng, size, distribution):
    """Zero-mean unit-variance draws; BLUE only needs second moments, so a
    rescaled-uniform alternative is exposed alongside the Gaussian default."""
    if distribution == "gaussian":
        return rng.standard_normal(size)
    if distribution == "uniform":
        return rng.uniform(-SQRT3, SQRT3, size)
    raise ValueError(f"unknown noise distribution {distribution!r}")


def replicate_seed(master_seed: int, replicate: int) -> np.random.SeedSequence:
    """Deterministic per-replicate stream, independent of execution order."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate,))


@dataclass
class TrajectoryData:
    """True states and measurements with seed provenance.

    Regenerating with the same (model, seed) is bit-identical.  A batch
    (`simulate_batch`) holds R replicates: states and measurements gain a
    leading axis R, `seed` is the list of seeds and `clamped` an (R,) array.
    """

    states: np.ndarray        # (N, n)
    measurements: np.ndarray  # (N, m)
    seed: object
    model_id: str = ""
    clamped: bool = False
    times: Optional[np.ndarray] = None

    def __len__(self):
        return self.states.shape[-2]

    def replicate(self, r: int) -> "TrajectoryData":
        """Replicate r of a batch, as a single trajectory."""
        return replace(self, states=self.states[r],
                       measurements=self.measurements[r], seed=self.seed[r],
                       clamped=bool(self.clamped[r]))

    def to_csv(self, path):
        n = self.states.shape[1]
        m = self.measurements.shape[1]
        header = ["k"]
        if self.times is not None:
            header.append("t")
        header += [f"x_true_{i}" for i in range(n)] + [f"y_{i}" for i in range(m)]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for k in range(len(self)):
                row = [k + 1]
                if self.times is not None:
                    row.append(repr(float(self.times[k])))
                row += [repr(float(v)) for v in self.states[k]]
                row += [repr(float(v)) for v in self.measurements[k]]
                w.writerow(row)


def _meas_noise_chol(Sigma_w):
    # Square-root factor that also accepts PSD (e.g. zero) matrices.
    try:
        return np.linalg.cholesky(Sigma_w)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(Sigma_w)
        return V * np.sqrt(np.clip(w, 0.0, None))


def simulate_batch(model: DiscreteLinearModel, x0, N: int, seeds,
                   distribution: str = "gaussian",
                   model_id: str = "") -> TrajectoryData:
    """Simulate R = len(seeds) replicates of N steps of the linear model at
    once, replicate r from its own Generator `default_rng(seeds[r])`; x0 is
    shared or (R, n).  Each replicate draws its noise as one block in the
    per-step order y_1 v_1 y_2 v_2 ... y_N, so every row is bit-identical to
    a one-replicate run with the same seed."""
    if N < 1:
        raise ValueError("N must be >= 1")
    R = len(seeds)
    n = model.n
    m = model.m
    sv = np.sqrt(np.diag(model.Sigma_v))
    Lw = _meas_noise_chol(model.Sigma_w)
    c0, C1 = model.gsq[:, 0], model.gsq[:, 1:]
    # Pad each block by n so that row k holds the draws of step k.
    noise = np.zeros((R, N * (m + n)))
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        noise[r, :-n] = _unit_noise(rng, N * (m + n) - n, distribution)
    noise = noise.reshape(R, N, m + n)
    v = sv * noise[:, :-1, m:]
    states = np.empty((R, N, n))
    x = np.broadcast_to(np.asarray(x0, dtype=float), (R, n))
    clamped = np.zeros(R, dtype=bool)
    for k in range(N):
        states[:, k] = x
        if k + 1 < N:
            g2 = c0 + _matvec(C1, x)
            clamped |= (g2 < EPS_G).any(axis=-1)
            x = (model.A0 + _matvec(model.A1, x)
                 + np.sqrt(np.maximum(g2, EPS_G)) * v[:, k])
            if not np.isfinite(x).all():
                raise NonFiniteStateError(
                    "simulated state became non-finite", step=k + 1,
                    replicate=_first_failure(np.isfinite(x).all(axis=-1)))
    ys = _matvec(model.C, states) + _matvec(Lw, noise[..., :m])
    return TrajectoryData(states=states, measurements=ys, seed=list(seeds),
                          model_id=model_id, clamped=clamped)


def simulate_discrete(model, x0, N: int, seed, distribution: str = "gaussian",
                      model_id: str = "") -> TrajectoryData:
    """Simulate N steps of the discrete model with the gain evaluated at the
    TRUE state; the first recorded state is x0 itself (the x_1 convention).
    A linear model is the one-replicate case of `simulate_batch`."""
    if isinstance(model, DiscreteLinearModel):
        return simulate_batch(model, x0, N, [seed],
                              distribution, model_id).replicate(0)
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = np.random.default_rng(seed)
    n = model.n
    m = model.m
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    sv = np.sqrt(np.diag(model.Sigma_v))
    Lw = _meas_noise_chol(model.Sigma_w)
    states = np.empty((N, n))
    ys = np.empty((N, m))
    for k in range(N):
        states[k] = x
        ys[k] = model.C @ x + Lw @ _unit_noise(rng, m, distribution)
        if k + 1 < N:
            v = sv * _unit_noise(rng, n, distribution)
            x = model.drift(x) + model.gain(x) @ v
            if not np.all(np.isfinite(x)):
                raise NonFiniteStateError("simulated state became non-finite",
                                          step=k + 1)
    return TrajectoryData(states=states, measurements=ys, seed=seed,
                          model_id=model_id)


def simulate_cd(model: ContinuousDiscreteModel, x0, seed, em_step: float,
                distribution: str = "gaussian",
                model_id: str = "") -> TrajectoryData:
    """Euler-Maruyama path of the continuous dynamics, measured at the
    model's sample times (the first sample time carries x0)."""
    if em_step <= 0:
        raise ValueError("em_step must be positive")
    rng = np.random.default_rng(seed)
    dyn = model.inner
    times = model.sample_times
    n = dyn.n
    m = dyn.m
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    sv = np.sqrt(np.diag(dyn.Sigma_v))
    Lw = _meas_noise_chol(dyn.Sigma_w)
    A0, A1, c0, C1 = dyn.A0, dyn.A1, dyn.gsq[:, 0], dyn.gsq[:, 1:]
    states = np.empty((times.size, n))
    ys = np.empty((times.size, m))
    clamped = False
    for k in range(times.size):
        states[k] = x
        ys[k] = dyn.C @ x + Lw @ _unit_noise(rng, m, distribution)
        if k + 1 < times.size:
            gap = times[k + 1] - times[k]
            nsteps = int(round(gap / em_step))
            if nsteps < 1 or abs(nsteps * em_step - gap) > 1e-9 * max(gap, 1.0):
                raise ValueError(
                    f"em_step {em_step} does not divide the gap {gap}")
            h = gap / nsteps
            sqh = np.sqrt(h)
            # One block per gap draws the same values as one draw per step;
            # the diagonal gain acts elementwise.
            xi = sv * _unit_noise(rng, (nsteps, n), distribution)
            for xi_j in xi:
                g2 = c0 + C1 @ x
                clamped = clamped or bool((g2 < EPS_G).any())
                gain = np.sqrt(np.maximum(g2, EPS_G))
                x = x + h * (A0 + A1 @ x) + sqh * (gain * xi_j)
            if not np.all(np.isfinite(x)):
                raise NonFiniteStateError("simulated path became non-finite",
                                          step=k + 1)
    return TrajectoryData(states=states, measurements=ys, seed=seed,
                          model_id=model_id, clamped=clamped,
                          times=times.copy())


def mse(trace: FilterTrace, truth: TrajectoryData, burn_in: int = 0):
    """Mean of ||xhat_post - x_true||^2 over steps after burn_in; an (R,)
    array for a batch trace and batch truth."""
    if len(trace) != len(truth):
        raise LengthMismatchError(
            f"trace has {len(trace)} steps, truth has {len(truth)}")
    err = trace.xhat_post[..., burn_in:, :] - truth.states[..., burn_in:, :]
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
    threshold: float
    degenerate: bool = False


def innovation_whiteness(trace: FilterTrace, max_lag: int = 20) -> WhitenessResult:
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
                               threshold=threshold,
                               degenerate=bool(degenerate[0]))
    return WhitenessResult(rho=rho, pass_fraction=pass_fraction,
                           threshold=threshold, degenerate=degenerate)


@dataclass(frozen=True)
class FilterSpec:
    """A filter entry for the comparison: covariance-update or fixed-beta."""

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
        max_lag = self.autocorr_mean.shape[1] - 1
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["filter", "replicates", "N", "master_seed",
                        "mse_mean", "mse_se", "mse_halfwidth",
                        "whiteness_pass_fraction", "clamped_replicates"]
                       + [f"rho_{l}" for l in range(max_lag + 1)])
            for i, name in enumerate(self.filter_names):
                w.writerow([name, self.replicates, self.N, self.master_seed,
                            repr(float(self.mse_mean[i])),
                            repr(float(self.mse_se[i])),
                            repr(float(self.mse_halfwidth[i])),
                            repr(float(self.whiteness_pass_fraction[i])),
                            self.clamped_replicates]
                           + [repr(float(v)) for v in self.autocorr_mean[i]])


def monte_carlo_compare(model: DiscreteLinearModel, filters: Sequence[FilterSpec],
                        replicates: int, N: int, master_seed: int,
                        x0=1.0, init_sigma: float = 0.0,
                        distribution: str = "gaussian",
                        max_lag: int = 20, burn_in: int = 0) -> ComparisonReport:
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
    rhos = np.empty((F, max_lag + 1))
    for i, spec in enumerate(filters):
        run_model = (with_fixed_noise(model, spec.beta)
                     if spec.variant == "fixed-beta" else model)
        trace = run_filter_batch(run_model, data.measurements, xinit, Sigma0,
                                 variant=spec.variant)
        mses[:, i] = mse(trace, data, burn_in=burn_in)
        wh = innovation_whiteness(trace, max_lag=max_lag)
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
