"""System model definitions, validated at construction.

A model is "linear with square-root state-dependent noise" when the dynamics
are x_{k+1} = A0 + A1 x_k + G(x_k) v_k with G = diag(g_1, ..., g_n) and every
g_i^2 an affine function of the state.  The affine coefficients are stored
explicitly (one row [c_i0, c_i1, ..., c_in] per state) so the hypothesis is
checkable by construction.  A fixed-gain baseline is the linear model with
constant g^2 (`with_fixed_noise`); continuous-discrete models wrap a linear
one.

Every discrete model answers the same three questions about a stack of
states X (..., n), which is all the filter, the simulator and the oracle ask:
`drift(X)`, `jacobian(X)` and `gain(X) -> (g, floored)`, the diagonal noise
gains and the mask of components whose g^2 was floored.
"""

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (ModelError, NonAffineError, NonDiagonalizableError,
                     NonFiniteStateError)

# Floor applied to g_i^2 before taking the square root.  Keeps covariances
# PSD when an estimate wanders into the region where the affine form goes
# negative; every clamp is flagged to the caller.
EPS_G = 1e-12


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for one vector or a stack of vectors (..., n).  The stacked
    product rounds like the single one, which `x @ A.T` does not."""
    return (A @ x[..., None])[..., 0]


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
    """Shape `model`'s Sigma_v (n, n) and Sigma_w (m, m), where a scalar or
    vector gives the diagonal, and reject what no filter can use: non-finite
    entries, a negative Sigma_v diagonal, or a Sigma_w that is not symmetric
    positive semidefinite.  A non-diagonal Sigma_v and a zero Sigma_w are
    accepted."""
    for name, size in (("Sigma_v", n), ("Sigma_w", m)):
        a = np.asarray(getattr(model, name), dtype=float)
        if a.ndim <= 1:
            a = np.diag(np.atleast_1d(a) * np.ones(size))
        a = _as_matrix(a, size, size, name)
        if not np.all(np.isfinite(a)):
            raise ModelError(f"{name} has non-finite entries")
        object.__setattr__(model, name, a)
    if np.any(np.diag(model.Sigma_v) < 0):
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
        for arr in (self.A0, self.A1, self.C, self.gsq, self.Sigma_v, self.Sigma_w):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A1.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def drift(self, X: np.ndarray) -> np.ndarray:
        """A0 + A1 x for each state of the stack X (..., n)."""
        return self.A0 + _matvec(self.A1, X)

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        """A1, which broadcasts over any stack of states."""
        return self.A1

    def gain(self, X: np.ndarray):
        """Diagonal gains sqrt(max(g^2(x), EPS_G)) for each state of the
        stack X (..., n), and the mask of components where g^2 < EPS_G."""
        g2 = self.gsq[:, 0] + _matvec(self.gsq[:, 1:], X)
        return np.sqrt(np.maximum(g2, EPS_G)), g2 < EPS_G


def with_fixed_noise(model: DiscreteLinearModel, beta: float) -> DiscreteLinearModel:
    """Baseline companion of `model` with the gain frozen at `beta`: every
    g^2 is the constant 1 and Sigma_v becomes beta^2 Sigma_v, so the process
    noise is exactly beta^2 Sigma_v (zero for beta = 0) and never floored."""
    if not 0 <= beta < np.inf:
        raise ModelError("beta must be finite and nonnegative")
    gsq = np.zeros_like(model.gsq)
    gsq[:, 0] = 1.0
    return replace(model, gsq=gsq, Sigma_v=beta ** 2 * model.Sigma_v)


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

    def _rows(self, fn, X, shape, what):
        """fn applied to each state of the stack X (..., n), stacked to
        X.shape[:-1] + shape; a non-finite value raises."""
        X = np.asarray(X, dtype=float)
        out = np.array([fn(x) for x in X.reshape(-1, self.n)], dtype=float)
        out = out.reshape(X.shape[:-1] + shape)
        if not np.all(np.isfinite(out)):
            raise NonFiniteStateError(f"{what} non-finite")
        return out

    def drift(self, X: np.ndarray) -> np.ndarray:
        """f(x) for each state of the stack X (..., n)."""
        return self._rows(self.f, X, (self.n,), "drift")

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        """Df(x), or its central-difference estimate, for each state of the
        stack X (..., n)."""
        Df = self.Df or (lambda x: finite_difference_jacobian(self.f, x))
        return self._rows(Df, X, (self.n, self.n), "Jacobian")

    def _gain_row(self, x):
        raw = np.asarray(self.G(x), dtype=float)
        if raw.ndim < 2:
            return raw
        if np.any(raw - np.diag(np.diag(raw)) != 0.0):
            raise ModelError("G(x) evaluated to a non-diagonal matrix")
        return np.diag(raw)

    def gain(self, X: np.ndarray):
        """Diagonal gains G(x) for each state of the stack X (..., n), and
        an all-False mask: a user-supplied gain is never floored here."""
        g = self._rows(self._gain_row, X, (self.n,), "gain")
        return g, np.zeros(g.shape, dtype=bool)


def finite_difference_jacobian(f, x, rel_step=1e-5):
    """Central-difference Jacobian with per-coordinate step rel_step*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    fx = np.atleast_1d(np.asarray(f(x), dtype=float))
    J = np.empty((fx.size, n))
    for i in range(n):
        h = rel_step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (np.atleast_1d(f(xp)) - np.atleast_1d(f(xm))) / (2.0 * h)
    return J


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

    @property
    def m(self) -> int:
        return self.inner.m


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


@dataclass(frozen=True)
class ReactionNetwork:
    """Stoichiometry plus affine propensities.

    Propensities are given one per reaction as a mapping from monomial index
    tuples to coefficients, e.g. {(): 10.0} for a constant rate and
    {(0,): 0.1} for 0.1 * x_0.  Any monomial of degree > 1 (e.g. {(0, 0): 1}
    for x_0^2) is rejected at construction.
    """

    nu: np.ndarray
    propensities: Tuple[Mapping, ...]

    def __post_init__(self):
        nu = np.atleast_2d(np.asarray(self.nu))
        if not np.issubdtype(nu.dtype, np.integer):
            rounded = np.rint(nu)
            if np.any(rounded != nu):
                raise ModelError("stoichiometry entries must be integers")
            nu = rounded.astype(int)
        nu.setflags(write=False)
        object.__setattr__(self, "nu", nu)
        if len(self.propensities) != nu.shape[1]:
            raise ModelError("need one propensity per reaction column")
        n = nu.shape[0]
        coeffs = np.zeros((nu.shape[1], n + 1))
        for j, prop in enumerate(self.propensities):
            for mono, c in prop.items():
                mono = tuple(mono)
                if len(mono) == 0:
                    coeffs[j, 0] += float(c)
                elif len(mono) == 1:
                    i = int(mono[0])
                    if not 0 <= i < n:
                        raise ModelError(f"species index {i} out of range")
                    coeffs[j, 1 + i] += float(c)
                else:
                    raise NonAffineError(
                        f"propensity {j} has a degree-{len(mono)} monomial; "
                        "only affine propensities are supported")
        coeffs.setflags(write=False)
        object.__setattr__(self, "propensities", tuple(dict(p) for p in self.propensities))
        object.__setattr__(self, "_coeffs", coeffs)

    @property
    def n_species(self) -> int:
        return self.nu.shape[0]

    @property
    def n_reactions(self) -> int:
        return self.nu.shape[1]

    def propensity_coeffs(self) -> np.ndarray:
        """Affine coefficients (M, n+1): a_j(x) = b_j0 + b_j. @ x."""
        return self._coeffs


def from_cle(net: ReactionNetwork, C=None, Sigma_w=None) -> DiscreteLinearModel:
    """Chemical-Langevin continuous dynamics with per-species diagonal noise.

    Drift: A0_i = sum_j nu_ij b_j0, A1_ik = sum_j nu_ij b_jk.  The independent
    reaction channels are summed in variance per species, giving
    g_i^2(x) = sum_j nu_ij^2 a_j(x), which keeps the gain diagonal.  Requires
    every reaction to change exactly one species.
    """
    nu = net.nu
    per_column_nonzeros = np.count_nonzero(nu, axis=0)
    bad = np.nonzero(per_column_nonzeros != 1)[0]
    if bad.size:
        raise NonDiagonalizableError(
            f"reaction(s) {bad.tolist()} change more or fewer than one species; "
            "diagonal conversion requires single-species reactions")
    b = net.propensity_coeffs()  # (M, n+1)
    n = net.n_species
    A0 = nu @ b[:, 0]
    A1 = nu @ b[:, 1:]
    gsq = (nu.astype(float) ** 2) @ b  # rows: [c_i0, c_i1, ..., c_in]
    if C is None:
        C = np.eye(n)
    if Sigma_w is None:
        Sigma_w = np.eye(np.atleast_2d(np.asarray(C)).shape[0])
    return DiscreteLinearModel(A0=A0, A1=A1, C=C, gsq=gsq,
                               Sigma_v=np.eye(n), Sigma_w=Sigma_w)
