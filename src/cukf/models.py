"""System model definitions, validated at construction.

A model is "linear with square-root state-dependent noise" when the dynamics
are x_{k+1} = A0 + A1 x_k + G(x_k) v_k with G = diag(g_1, ..., g_n) and every
g_i^2 an affine function of the state.  The affine coefficients are stored
explicitly (one row [c_i0, c_i1, ..., c_in] per state) so the hypothesis is
checkable by construction.  A fixed-gain baseline is the linear model with
constant g^2 (`with_fixed_noise`); continuous-discrete models wrap a linear
one.

Every caller evaluates a discrete model through `linearize(Z) -> ([f(x) |
Df(x) M], Df(x), g, g^2)` alone, on a stack of blocks Z = [x | M] (..., n,
1 + k).  A nonlinear model makes one pass over the states: f and G once per
state, and Df (or central differences of f) only when Z carries M.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ModelError, NonDiagonalizableError, NonFiniteStateError

# Floor applied to g_i^2 before taking the square root.  Keeps covariances
# PSD when an estimate wanders into the region where the affine form goes
# negative; every clamp is flagged to the caller.
EPS_G = 1e-12


def _first_failure(ok: np.ndarray):
    """Index of the first False entry of the per-replicate mask `ok`, or
    None for a single run, whose errors name only the step."""
    return int(np.argmin(ok)) if len(ok) > 1 else None


def _as_matrix(a, rows, cols, name):
    out = np.atleast_2d(np.asarray(a, dtype=float))
    if out.shape != (rows, cols):
        raise ModelError(f"{name} must have shape ({rows}, {cols}), got {out.shape}")
    return out


def _as_vector(a, n, name):
    out = np.atleast_1d(np.asarray(a, dtype=float))
    if out.shape != (n,):
        raise ModelError(f"{name} must have shape ({n},), got {out.shape}")
    return out


def _set_noise_covariances(model, n, m):
    """Check `model`'s Sigma_v (n, n) and Sigma_w (m, m), and reject what no
    filter can use: non-finite entries, a Sigma_v that is not diagonal with
    a nonnegative diagonal, or a Sigma_w that is not symmetric positive
    semidefinite.  A zero Sigma_w is accepted."""
    for name, size in (("Sigma_v", n), ("Sigma_w", m)):
        a = _as_matrix(getattr(model, name), size, size, name)
        if not np.all(np.isfinite(a)):
            raise ModelError(f"{name} has non-finite entries")
        object.__setattr__(model, name, a)
    Sv = model.Sigma_v
    if np.any(Sv != np.diag(np.diag(Sv))):
        raise ModelError("Sigma_v must be diagonal")
    if np.any(np.diag(Sv) < 0):
        raise ModelError("Sigma_v has negative diagonal entries")
    Sw = model.Sigma_w
    tol = 1e-12 * (1.0 + np.abs(Sw).max())
    if np.abs(Sw - Sw.T).max() > tol:
        raise ModelError("Sigma_w is not symmetric")
    if np.linalg.eigvalsh(Sw).min() < -tol:
        raise ModelError("Sigma_w has a negative eigenvalue")


@dataclass(frozen=True)
class DiscreteLinearModel:
    """Linear dynamics with diagonal, affine-in-the-state squared noise gain.

    Fields:
        A0: drift offset (n,)
        A1: state matrix (n, n)
        C: output matrix (m, n)
        gsq: affine coefficients (n, n+1); g_i^2(x) = gsq[i,0] + gsq[i,1:] @ x
        Sigma_v: diagonal process-noise covariance (n, n)
        Sigma_w: measurement-noise covariance (m, m), symmetric PD
    """

    A0: np.ndarray
    A1: np.ndarray
    C: np.ndarray
    gsq: np.ndarray
    Sigma_v: np.ndarray
    Sigma_w: np.ndarray

    def __post_init__(self):
        A1 = np.atleast_2d(np.asarray(self.A1, dtype=float))
        n = A1.shape[0]
        object.__setattr__(self, "A1", _as_matrix(A1, n, n, "A1"))
        object.__setattr__(self, "A0", _as_vector(self.A0, n, "A0"))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        m = C.shape[0]
        object.__setattr__(self, "C", _as_matrix(C, m, n, "C"))
        object.__setattr__(self, "gsq", _as_matrix(self.gsq, n, n + 1, "gsq"))
        for name in ("A0", "A1", "C", "gsq"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ModelError(f"{name} has non-finite entries")
        _set_noise_covariances(self, n, m)
        object.__setattr__(self, "_A1C1", np.vstack((A1, self.gsq[:, 1:])))
        object.__setattr__(self, "_a0c0", np.append(self.A0, self.gsq[:, 0]))
        for arr in (self.A0, self.A1, self.C, self.gsq, self.Sigma_v,
                    self.Sigma_w, self._A1C1, self._a0c0):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A1.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def linearize(self, Z: np.ndarray):
        """[f(x) | Df(x) M], Df(x), g = sqrt(max(g^2, EPS_G)) and g^2 for each
        block [x | M] of the stack Z: [A0; c0] + one product [A1; C1] Z."""
        AZ = self._A1C1 @ Z
        AZ[..., 0] += self._a0c0
        g2 = AZ[..., self.n:, :1]
        return AZ[..., :self.n, :], self.A1, np.sqrt(np.maximum(g2, EPS_G)), g2


def with_fixed_noise(model: DiscreteLinearModel, beta: float) -> DiscreteLinearModel:
    """Baseline companion of `model` with the gain frozen at `beta`: every
    g^2 is the constant 1 and Sigma_v becomes beta^2 Sigma_v, so the process
    noise is exactly beta^2 Sigma_v (zero for beta = 0) and never floored."""
    beta = float(beta)
    if not 0 <= beta < np.inf or beta * beta == np.inf:
        raise ModelError("beta must be finite and nonnegative, with a finite "
                         "square")
    with np.errstate(over="ignore"):
        Sigma_v = beta ** 2 * model.Sigma_v
    if not np.isfinite(Sigma_v).all():
        raise ModelError("beta^2 Sigma_v has non-finite entries")
    gsq = np.zeros_like(model.gsq)
    gsq[:, 0] = 1.0
    return replace(model, gsq=gsq, Sigma_v=Sigma_v)


@dataclass(frozen=True)
class NonlinearModel:
    """Nonlinear drift with an arbitrary diagonal noise gain map.

    f maps R^n -> R^n.  Df, if given, returns the (n, n) Jacobian of f;
    otherwise central finite differences are used.  G returns either the
    (n,) diagonal gain entries or a full (n, n) diagonal matrix.
    """

    f: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    C: np.ndarray
    Sigma_v: np.ndarray
    Sigma_w: np.ndarray
    n: int
    Df: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        n = self.n
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        m = C.shape[0]
        object.__setattr__(self, "C", _as_matrix(C, m, n, "C"))
        _set_noise_covariances(self, n, m)

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def linearize(self, Z: np.ndarray):
        """As `DiscreteLinearModel.linearize`, in one pass over the states;
        Df is None if Z has only x, and g^2 is inf: a user-supplied gain is
        never floored.  An f, Df or G value of the wrong size for n
        raises ModelError, and a non-finite one NonFiniteStateError naming
        the first failing replicate, tested in that order over all states."""
        X = Z[..., 0]
        Df = None
        if Z.shape[-1] > 1:
            Df = self.Df or partial(finite_difference_jacobian, self.f)
        fs, Js, gs = zip(*[(self.f(x), Df and Df(x), self._gain_row(x))
                           for x in X.reshape(-1, self.n)])
        n = self.n
        f = _stacked(fs, X.shape + (1,), "drift", (n,))
        J = Df and _stacked(Js, X.shape + (n,), "Jacobian", (n, n))
        g = _stacked(gs, X.shape + (1,), "gain", (n,))
        FZ = f if J is None else np.concatenate((f, J @ Z[..., 1:]), axis=-1)
        return FZ, J, g, np.inf

    def _gain_row(self, x):
        raw = np.asarray(self.G(x), dtype=float)
        if raw.ndim < 2:
            return raw
        if np.any(raw - np.diag(np.diag(raw)) != 0.0):
            raise ModelError("G(x) evaluated to a non-diagonal matrix")
        return np.diag(raw)


def _stacked(rows, shape, what, row):
    """The per-state values `rows`, each of the size of `row`, as one array
    of `shape`: a value of another size raises ModelError naming `what` and
    the shape returned, and a non-finite one "<what> non-finite"."""
    out = np.array(rows, dtype=float)
    if out.size != len(rows) * math.prod(row):
        raise ModelError(f"{what} must have shape {row}, got {out.shape[1:]}")
    if not np.isfinite(out).all():
        ok = np.isfinite(out.reshape(len(out), -1)).all(axis=-1)
        raise NonFiniteStateError(f"{what} non-finite",
                                  replicate=_first_failure(ok))
    return out.reshape(shape)


def finite_difference_jacobian(f, x):
    """Central-difference Jacobian with per-coordinate step 1e-5*(1+|x_i|),
    from f at the 2n offset points only."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = 1e-5 * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.atleast_1d(f(xp)) - np.atleast_1d(f(xm))) / (2.0 * h))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class ContinuousDiscreteModel:
    """Continuous-time linear dynamics sampled at discrete measurement times.

    `inner` carries A0, A1, gsq, Sigma_v with their continuous-time meaning
    (Sigma_v is the white-noise intensity); C and Sigma_w apply at each of
    the strictly increasing `sample_times`.
    """

    inner: DiscreteLinearModel
    sample_times: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.sample_times, dtype=float))
        if t.size < 1:
            raise ModelError("sample_times must be nonempty")
        if not np.all(np.isfinite(t)):
            raise ModelError("sample_times has non-finite entries")
        if np.any(np.diff(t) <= 0):
            raise ModelError("sample_times must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "sample_times", t)

    @property
    def n(self) -> int:
        return self.inner.n


def eval_G(gsq: np.ndarray, x: np.ndarray, eps: float = EPS_G):
    """Diagonal gain matrix diag(sqrt(max(g_i^2(x), eps))).

    Returns (G, clamped) where clamped is True when any squared gain had to
    be floored at eps.
    """
    gsq = np.atleast_2d(np.asarray(gsq, dtype=float))
    vals = gsq[:, 0] + gsq[:, 1:] @ np.atleast_1d(np.asarray(x, dtype=float))
    return np.diag(np.sqrt(np.maximum(vals, eps))), bool(np.any(vals < eps))


def gain_from_affine(gsq) -> Callable[[np.ndarray], np.ndarray]:
    """Gain map for NonlinearModel backed by affine squared-gain
    coefficients: the diagonal gains sqrt(max(c0 + C1 x, EPS_G))."""
    gsq = np.atleast_2d(np.asarray(gsq, dtype=float))
    return lambda x: np.sqrt(np.maximum(gsq[:, 0] + gsq[:, 1:] @ x, EPS_G))


def from_cle(nu, propensities) -> DiscreteLinearModel:
    """Chemical-Langevin continuous dynamics from the integer stoichiometry
    `nu` (n, M) and one affine propensity row [b_j0, b_j1, ..., b_jn] per
    reaction (M, n+1), the row layout of gsq; every species is measured
    (C = I) with unit noise (Sigma_w = I).  A0 = nu b_.0 and A1 = nu b_.1:;
    the independent channels are summed in variance per species, g_i^2(x) =
    sum_j nu_ij^2 a_j(x), which is diagonal: every reaction must change
    exactly one species."""
    nu = np.atleast_2d(np.asarray(nu, dtype=float))
    if not np.all(np.isfinite(nu) & (nu == np.rint(nu))):
        raise ModelError("stoichiometry entries must be integers")
    n, M = nu.shape
    b = _as_matrix(propensities, M, n + 1, "propensities")
    bad = np.nonzero(np.count_nonzero(nu, axis=0) != 1)[0]
    if bad.size:
        raise NonDiagonalizableError(
            f"reaction(s) {bad.tolist()} change more or fewer than one species; "
            "diagonal conversion requires single-species reactions")
    return DiscreteLinearModel(A0=nu @ b[:, 0], A1=nu @ b[:, 1:], C=np.eye(n),
                               gsq=nu ** 2 @ b, Sigma_v=np.eye(n),
                               Sigma_w=np.eye(n))
