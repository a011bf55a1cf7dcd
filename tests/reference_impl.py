"""Independent reference implementations used as test oracles.

These are deliberately written as straight-line textbook code, sharing no
code path with the package: explicit inverses for the discrete Kalman
filter, matrix-exponential (Van Loan) discretization for the
continuous-discrete one, classical RK4 for the moment ODEs of a
state-dependent noise gain, and an Euler-Maruyama path in Python floats
whose affine maps are sums taken left to right.

scipy is optional: the Van Loan discretization takes scipy's `expm`, and a
test that reaches it is skipped where scipy is not installed.
"""

import math

import numpy as np
import pytest


def textbook_kf(A0, A1, C, Q, R, measurements, x0, P0):
    """Standard Kalman filter with constant process noise covariance Q.

    Measurement-first per step; returns (xhat_post, P_post) arrays.
    """
    A0 = np.atleast_1d(np.asarray(A0, float))
    A1 = np.atleast_2d(np.asarray(A1, float))
    C = np.atleast_2d(np.asarray(C, float))
    Q = np.atleast_2d(np.asarray(Q, float))
    R = np.atleast_2d(np.asarray(R, float))
    ys = np.atleast_2d(np.asarray(measurements, float))
    x = np.atleast_1d(np.asarray(x0, float)).copy()
    P = np.atleast_2d(np.asarray(P0, float)).copy()
    xs, Ps = [], []
    for k, y in enumerate(ys):
        S = C @ P @ C.T + R
        K = P @ C.T @ np.linalg.inv(S)
        x = x + K @ (y - C @ x)
        P = P - K @ C @ P
        P = 0.5 * (P + P.T)
        xs.append(x.copy())
        Ps.append(P.copy())
        if k + 1 < len(ys):
            x = A0 + A1 @ x
            P = A1 @ P @ A1.T + Q
    return np.array(xs), np.array(Ps)


def vanloan_discretize(A0, A1, Q, h):
    """Exact discrete equivalent of dx = (A0 + A1 x)dt + noise with constant
    spectral density Q over a step h.

    Returns (Phi, offset, Qd).
    """
    expm = pytest.importorskip("scipy.linalg").expm
    n = A1.shape[0]
    # Mean with constant offset via the augmented system [x; 1].
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A1 * h
    M[:n, n] = A0 * h
    E = expm(M)
    Phi = E[:n, :n]
    offset = E[:n, n]
    # Van Loan block trick for the integral of Phi(s) Q Phi(s)'.
    V = np.zeros((2 * n, 2 * n))
    V[:n, :n] = -A1 * h
    V[:n, n:] = Q * h
    V[n:, n:] = A1.T * h
    F = expm(V)
    Qd = F[n:, n:].T @ F[:n, n:]
    return Phi, offset, 0.5 * (Qd + Qd.T)


def classical_cd_kf(A0, A1, Q, C, R, times, measurements, x0, P0):
    """Continuous-discrete Kalman filter with constant Q, using the exact
    matrix-exponential discretization between sample instants."""
    A0 = np.atleast_1d(np.asarray(A0, float))
    A1 = np.atleast_2d(np.asarray(A1, float))
    Q = np.atleast_2d(np.asarray(Q, float))
    C = np.atleast_2d(np.asarray(C, float))
    R = np.atleast_2d(np.asarray(R, float))
    times = np.asarray(times, float)
    ys = np.atleast_2d(np.asarray(measurements, float))
    x = np.atleast_1d(np.asarray(x0, float)).copy()
    P = np.atleast_2d(np.asarray(P0, float)).copy()
    xs, Ps = [], []
    for k in range(times.size):
        S = C @ P @ C.T + R
        K = P @ C.T @ np.linalg.inv(S)
        x = x + K @ (ys[k] - C @ x)
        P = P - K @ C @ P
        P = 0.5 * (P + P.T)
        xs.append(x.copy())
        Ps.append(P.copy())
        if k + 1 < times.size:
            Phi, offset, Qd = vanloan_discretize(A0, A1, Q, times[k + 1] - times[k])
            x = Phi @ x + offset
            P = Phi @ P @ Phi.T + Qd
    return np.array(xs), np.array(Ps)


def random_constant_noise_model(rng, n=None, m=None):
    """Random stable linear model parameters with a constant noise gain.

    Returns a dict of arrays: A0, A1, C, g2 (constant squared gains),
    Sigma_v diag entries, Sigma_w.
    """
    if n is None:
        n = int(rng.integers(1, 4))
    if m is None:
        m = int(rng.integers(1, n + 1))
    A1 = rng.standard_normal((n, n))
    radius = max(np.abs(np.linalg.eigvals(A1)))
    A1 *= 0.9 / max(radius, 1e-6)
    A0 = rng.standard_normal(n)
    C = rng.standard_normal((m, n))
    g2 = rng.uniform(0.5, 4.0, n)
    sv = rng.uniform(0.5, 2.0, n)
    B = rng.standard_normal((m, m))
    Sigma_w = B @ B.T + m * np.eye(m)
    return dict(A0=A0, A1=A1, C=C, g2=g2, sv=sv, Sigma_w=Sigma_w, n=n, m=m)


def rel_err(a, b):
    """Max elementwise |a-b| / max(1, |b|)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


EPS_G = 1e-12  # the floor on g^2, as in cukf.models


def _rhs(dyn, x, S):
    """Coupled mean/covariance right-hand side, with each g_i^2 floored at
    EPS_G."""
    g = np.sqrt(np.maximum(dyn.gsq[:, 0] + dyn.gsq[:, 1:] @ x, EPS_G))
    dx = dyn.A0 + dyn.A1 @ x
    dS = dyn.A1 @ S + S @ dyn.A1.T + np.outer(g, g) * dyn.Sigma_v  # G Sv G
    return dx, dS


def _rk4(dyn, x, S, span, nsteps):
    """`nsteps` classical RK4 steps of the moment ODEs over `span`."""
    h = span / nsteps
    for _ in range(nsteps):
        k1x, k1S = _rhs(dyn, x, S)
        k2x, k2S = _rhs(dyn, x + 0.5 * h * k1x, S + 0.5 * h * k1S)
        k3x, k3S = _rhs(dyn, x + 0.5 * h * k2x, S + 0.5 * h * k2S)
        k4x, k4S = _rhs(dyn, x + h * k3x, S + h * k3S)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        S = S + (h / 6.0) * (k1S + 2 * k2S + 2 * k3S + k4S)
    return x, S


def floor_crossings(dyn, x0, span, grid=101):
    """Sorted times in (0, span) at which some g_i^2 crosses EPS_G on the
    exact mean path from x0: bracketed on a uniform grid of `grid` points,
    then bisected to the last bit."""
    zero = np.zeros((dyn.n, dyn.n))

    def floored(t):
        Phi, offset, _ = vanloan_discretize(dyn.A0, dyn.A1, zero, t)
        return dyn.gsq[:, 0] + dyn.gsq[:, 1:] @ (Phi @ x0 + offset) < EPS_G

    ts = np.linspace(0.0, span, grid)
    flags = np.array([floored(t) for t in ts])
    crossings = []
    for j, i in zip(*np.nonzero(flags[1:] != flags[:-1])):
        lo, hi = ts[j], ts[j + 1]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if floored(mid)[i] == flags[j, i]:
                lo = mid
            else:
                hi = mid
        crossings.append(lo)
    return sorted(crossings)


def split_rk4(dyn, x, S, span, step=1e-4):
    """Moments at the end of `span`, integrated by RK4 of step at most
    `step` on each piece between the floor crossings of the mean path, so
    that no RK4 step straddles the kink of max(g^2, EPS_G)."""
    bounds = [0.0] + floor_crossings(dyn, x, span) + [span]
    for length in np.diff(bounds):
        if length > 0:
            x, S = _rk4(dyn, x, S, length, max(1, int(np.ceil(length / step))))
    return x, S


# The continuous-discrete propagator's set-up as it was first written, kept
# as the pin of the faster one in cukf.continuous, bit for bit.  A floored
# set `key` has bit i set for a g2_i held at EPS_G; `expm` is the matrix
# exponential that both share (the set-up around it is what is pinned).

def kron_generator(dyn, key):
    """M of z' = M z, z = [x; vec Sigma; 1], with the g2_i of the floored
    set `key` at EPS_G: its Kronecker sum A1 (x) I + I (x) A1 as the sum of
    two np.kron products."""
    n = dyn.n
    floored = ((1 << np.arange(n)) & key) > 0
    sv = np.diag(dyn.Sigma_v)
    M = np.zeros((n + n * n + 1, n + n * n + 1))
    M[:n, :n] = dyn.A1
    M[:n, -1] = dyn.A0
    eye = np.eye(n)
    diag = n + np.arange(n) * (n + 1)  # rows of Sigma_ii in vec Sigma
    M[n:-1, n:-1] = np.kron(dyn.A1, eye) + np.kron(eye, dyn.A1)
    M[diag, :n] = np.where(floored[:, None], 0.0, sv[:, None] * dyn.gsq[:, 1:])
    M[diag, -1] = sv * np.where(floored, EPS_G, dyn.gsq[:, 0])
    return M


def concatenated_node_map(dyn, span, nsteps, expm, margin):
    """(w0, W1, bounds) of an interval of length `span` on a grid of nsteps
    steps: W = [w0 W1] maps [1; x] to g2 at the 2 nsteps + 1 nodes half a
    step apart, the powers of the half-step propagator made by doubling a
    stack with np.concatenate; per g2_i and column of W, the midpoint of
    its extremes over the nodes, then the half-range widened by `margin`
    times the largest magnitude, as one tuple."""
    n = dyn.n
    Mx = np.zeros((n + 1, n + 1))
    Mx[1:, 0] = dyn.A0
    Mx[1:, 1:] = dyn.A1
    P = np.eye(n + 1)[None]
    power = expm(Mx * (span / (2 * nsteps)))
    while P.shape[0] <= 2 * nsteps:
        P = np.concatenate((P, power @ P))
        power = power @ power
    W = (dyn.gsq @ P[:2 * nsteps + 1]).reshape(-1, n + 1)
    nodes = W.reshape(-1, n, n + 1)
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    bounds = np.concatenate(
        (0.5 * lo + 0.5 * hi,
         0.5 * hi - 0.5 * lo + margin * np.maximum(-lo, hi)), axis=1)
    return W[:, 0], W[:, 1:], tuple(bounds.ravel().tolist())


def triu_affine(E, n):
    """The affine coefficients that the exponential E of z's generator
    holds: psi = E[:n, -1], Phi = E[:n, :n] by rows, then per i <= j (by
    np.triu_indices) Q0_ij and Q_l,ij, the columns 1 and x_l (np.r_) of
    Sigma_ij's and Sigma_ji's rows averaged; all NaN if E is not finite."""
    i, j = np.triu_indices(n)
    Q = 0.5 * (E[n + j * n + i] + E[n + i * n + j])
    coefs = np.concatenate((E[:n, -1], E[:n, :n].ravel(),
                            Q[:, np.r_[-1, :n]].ravel()))
    if not np.isfinite(E).all():
        coefs[:] = np.nan
    return tuple(coefs.tolist())


def ordered_affine(A, x, b=None):
    """A x + b as Python floats: output i is the sum (A[i][0] x[0] + ... +
    A[i][n-1] x[n-1]) + b[i], taken left to right with one rounding per
    operation.  A -0.0 offset counts as +0.0, and b = None adds +0.0, so a
    sum that is -0.0 comes out +0.0, as from a matmul."""
    rows = np.asarray(A, float).tolist()
    b = [0.0] * len(rows) if b is None else [float(c) + 0.0 for c in b]
    x = [float(c) for c in x]
    out = []
    for row, offset in zip(rows, b):
        total = row[0] * x[0]
        for a, xj in zip(row[1:], x[1:]):
            total = total + a * xj
        out.append(total + offset)
    return out


def euler_maruyama_ordered(dyn, times, em_step, x0, draw):
    """One Euler-Maruyama path of the linear model `dyn` (A0, A1, gsq,
    Sigma_v, C, Sigma_w) in Python floats, measured at `times` (x0 at the
    first), with every affine map an `ordered_affine` sum.  A gap of length
    d takes round(d / em_step) steps of h = d / steps,
    x <- x + h f(x) + sqrt(h) (g(x) (sqrt(Sigma_v,ii) z)), with
    g = sqrt(max(g^2, EPS_G)); a measurement is C x + L w, L the Cholesky
    factor of Sigma_w.  draw(size) returns `size` unit draws, asked for in
    the order y_1, each step of gap 1, y_2, ...  Returns (states,
    measurements, clamped)."""
    n, m = dyn.n, dyn.m
    L = np.linalg.cholesky(dyn.Sigma_w)
    sv = [math.sqrt(s) for s in np.diag(dyn.Sigma_v).tolist()]
    x = [float(c) for c in x0]
    xs, ys, clamped = [], [], False
    for k in range(len(times)):
        xs.append(x)
        ys.append([a + b for a, b in zip(ordered_affine(dyn.C, x),
                                         ordered_affine(L, draw(m)))])
        if k + 1 == len(times):
            break
        gap = float(times[k + 1]) - float(times[k])
        steps = round(gap / em_step)
        h = gap / steps
        sqh = math.sqrt(h)
        for _ in range(steps):
            f = ordered_affine(dyn.A1, x, dyn.A0)
            g2 = ordered_affine(dyn.gsq[:, 1:], x, dyn.gsq[:, 0])
            clamped = clamped or any(g < EPS_G for g in g2)
            v = [s * z for s, z in zip(sv, draw(n))]
            x = [xi + h * fi + sqh * (math.sqrt(max(gi, EPS_G)) * vi)
                 for xi, fi, gi, vi in zip(x, f, g2, v)]
    return np.array(xs), np.array(ys), clamped


def em_steps_loop(times, em_step):
    """The Euler-Maruyama steps per gap of `times`, gap by gap: a gap of
    more than 10^5 steps, then one that em_step does not divide, raises
    ValueError naming the first such gap."""
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
