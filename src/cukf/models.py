"""System model definitions and hypothesis validation.

A model is "linear with square-root state-dependent noise" when the dynamics
are x_{k+1} = A0 + A1 x_k + G(x_k) v_k with G = diag(g_1, ..., g_n) and every
g_i^2 an affine function of the state.  The affine coefficients are stored
explicitly (one row [c_i0, c_i1, ..., c_in] per state) so the hypothesis is
checkable by construction.  Nonlinear and continuous-discrete wrappers reuse
the same noise machinery.
"""

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ModelError, NonAffineError, NonDiagonalizableError

# Floor applied to g_i^2 before taking the square root.  Keeps covariances
# PSD when an estimate wanders into the region where the affine form goes
# negative; every clamp is flagged to the caller.
EPS_G = 1e-12


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
class ValidationReport:
    """Outcome of hypothesis validation: ok iff no violations."""

    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


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


@dataclass(frozen=True)
class FixedNoiseModel:
    """DiscreteLinearModel shape with a constant scalar process noise gain.

    The time update uses beta^2 * Sigma_v in place of G Sigma_v G; this is
    the fixed-covariance baseline the variant is compared against.
    """

    A0: np.ndarray
    A1: np.ndarray
    C: np.ndarray
    beta: float
    Sigma_v: np.ndarray
    Sigma_w: np.ndarray

    def __post_init__(self):
        if not 0 <= self.beta < np.inf:
            raise ModelError("beta must be finite and nonnegative")
        base = DiscreteLinearModel(
            A0=self.A0, A1=self.A1, C=self.C,
            gsq=np.zeros((np.atleast_2d(np.asarray(self.A1)).shape[0],
                          np.atleast_2d(np.asarray(self.A1)).shape[0] + 1)),
            Sigma_v=self.Sigma_v, Sigma_w=self.Sigma_w)
        for name in ("A0", "A1", "C", "Sigma_v", "Sigma_w"):
            object.__setattr__(self, name, getattr(base, name))

    @property
    def n(self) -> int:
        return self.A1.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]


def with_fixed_noise(model: DiscreteLinearModel, beta: float) -> FixedNoiseModel:
    """Baseline companion of `model` with the gain frozen at `beta`."""
    return FixedNoiseModel(A0=model.A0, A1=model.A1, C=model.C, beta=beta,
                           Sigma_v=model.Sigma_v, Sigma_w=model.Sigma_w)


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

    def drift(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float))

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        if self.Df is not None:
            return np.atleast_2d(np.asarray(self.Df(np.asarray(x, dtype=float)), dtype=float))
        return finite_difference_jacobian(self.drift, np.asarray(x, dtype=float))

    def gain(self, x: np.ndarray) -> np.ndarray:
        """Diagonal gain matrix at x; rejects non-diagonal evaluations."""
        raw = np.asarray(self.G(np.asarray(x, dtype=float)), dtype=float)
        if raw.ndim == 1:
            return np.diag(raw)
        off = raw - np.diag(np.diag(raw))
        if np.any(off != 0.0):
            raise ModelError("G(x) evaluated to a non-diagonal matrix")
        return raw


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


def validate_model(model: DiscreteLinearModel) -> ValidationReport:
    """Check the model hypotheses; violations are reported, never raised."""
    violations = []
    Sv = model.Sigma_v
    if np.any(Sv - np.diag(np.diag(Sv)) != 0.0):
        violations.append("Sigma_v not diagonal")
    if np.any(np.diag(Sv) < 0):
        violations.append("Sigma_v has negative entries")
    Sw = model.Sigma_w
    if not np.allclose(Sw, Sw.T, rtol=0, atol=1e-12 * (1.0 + np.abs(Sw).max())):
        violations.append("Sigma_w not symmetric")
    else:
        try:
            np.linalg.cholesky(Sw)
        except np.linalg.LinAlgError:
            violations.append("Sigma_w not positive definite")
    # Dimension consistency is enforced at construction; re-check defensively.
    n, m = model.n, model.m
    if model.gsq.shape != (n, n + 1):
        violations.append("gsq shape inconsistent")
    if model.C.shape != (m, n):
        violations.append("C shape inconsistent")
    return ValidationReport(tuple(violations))


def eval_gsq(gsq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the affine squared gains g_i^2(x)."""
    gsq = np.atleast_2d(np.asarray(gsq, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return gsq[:, 0] + gsq[:, 1:] @ x


def eval_G(gsq: np.ndarray, x: np.ndarray, eps: float = EPS_G):
    """Diagonal gain matrix diag(sqrt(max(g_i^2(x), eps))).

    Returns (G, clamped) where clamped is True when any squared gain had to
    be floored at eps.
    """
    vals = eval_gsq(gsq, x)
    clamped = bool(np.any(vals < eps))
    return np.diag(np.sqrt(np.maximum(vals, eps))), clamped


def gain_from_affine(gsq) -> Callable[[np.ndarray], np.ndarray]:
    """Gain map for NonlinearModel backed by affine squared-gain coefficients."""
    gsq = np.atleast_2d(np.asarray(gsq, dtype=float))

    def gain(x):
        G, _ = eval_G(gsq, x)
        return G

    return gain


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
