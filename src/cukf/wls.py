"""Trajectory-cost oracle: builds the recursive quadratic approximation to
the noise-covariance-weighted least squares cost over a trajectory (a (K, n)
array of states, any pinned head included), minimizes it with a single Newton
step, and extracts the marginal covariance from the inverse Hessian.  Used as
an independent check of the recursive filters.

`oracle_filter` is linear in the horizon in its factorizations (Bell, "The
iterated Kalman smoother as a Gauss-Newton method", SIAM J. Optim. 4(3),
1994): a measurement or time term changes only the last diagonal block of
the block-tridiagonal Hessian, so each Schur complement is factored once
for the step that ends at it and once more, frozen, with the next time
term.  The forward pass adds the terms' blocks in place, in arrays allocated
once, with the measurement blocks made once per run and no copies of the
cost.  The Newton checks of all N prefix costs then run together in batched
block sweeps over those factors (O(N) Python iterations, O(N^2 n) memory),
through the one `_newton_step` that `newton_solve` takes on one system; its
`BlockTridiagFactor` eliminates a whole cost in one loop.  Each Schur
complement S is stored as the inverse of its lower Cholesky factor, Li =
L^{-1} (1 / sqrt(S) if 1 x 1), so a solve S^{-1} B is the two products
Li' (Li B), as in the filter's BLUE step.

The quadratic time-step term is the second-order expansion of
0.5 * r' Sigma_v^{-1} r with r(x_k, x_{k-1}) = G^{-1}(x_{k-1})(x_k - f(x_{k-1}))
around (f(xhat_{k-1}), xhat_{k-1}).  The derivative of G^{-1} with respect to
the previous state multiplies the predicted residual, which vanishes at the
expansion point, so it contributes nothing to the gradient or Hessian there.
The block binding of the forward pass (below) and `build_time_cost` read
f, Df and G from one `linearize` of [x | I] per step; the costs themselves
are built here in information form and share no code with the
covariance-form filter.

The forward pass of `oracle_filter` has one loop body and two bindings, as
the filter's generated kernel has.  A linear model with n = m = 1
(`_scalar_linear`, fixed-beta baselines included) runs it on
Python floats, through memoryviews of the block arrays, with float helpers
that read the model's coefficients and repeat the block binding's IEEE
operations in the same order: each one-term matmul is a product added to
+0.0.  So its outputs and errors are bit-identical to the block binding's,
which every other model runs on (blocks, n, n) arrays.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import IndefiniteHessianError, ModelError, NonFiniteStateError
from .models import EPS_G, DiscreteLinearModel
from .discrete import StateEstimate, _check_sizes, _write_steps, symmetrize

# Longest horizon `oracle_filter` accepts; its memory grows as O(N^2 n).
MAX_HORIZON = 500


def _scalar_linear(model):
    """Whether `model` is linear with n = m = 1, so that the forward pass
    runs on Python floats."""
    return isinstance(model, DiscreteLinearModel) and model.n == model.m == 1


@dataclass
class QuadraticCost:
    """Gradient/Hessian representation of the running quadratic cost.

    The Hessian is block tridiagonal by construction: `D[i]` is the diagonal
    block of variable block i, `L[i]` couples variable blocks i+1 and i.
    The gradient at the flattened variable blocks z is H z + b.  When the
    initial prior covariance is exactly zero, x_0 is pinned: it is excluded
    from the variables and `head` holds its fixed value.

    `terms` keeps each cost term in residual form so the quadratic can be
    re-evaluated independently of the assembled (H, b).
    """

    n: int
    head: Optional[np.ndarray] = None
    D: List[np.ndarray] = field(default_factory=list)
    L: List[np.ndarray] = field(default_factory=list)
    b: List[np.ndarray] = field(default_factory=list)
    terms: List[tuple] = field(default_factory=list)

    @property
    def pinned(self) -> bool:
        return self.head is not None

    @property
    def n_variable_blocks(self) -> int:
        return len(self.D)

    @property
    def n_blocks(self) -> int:
        return len(self.D) + (1 if self.pinned else 0)

    def copy(self) -> "QuadraticCost":
        """New block lists sharing the blocks: the builders rebind the
        blocks they change and never modify one in place."""
        return QuadraticCost(n=self.n, head=self.head, D=list(self.D),
                             L=list(self.L), b=list(self.b),
                             terms=list(self.terms))

    def value(self, xs: np.ndarray) -> float:
        """Evaluate the quadratic from its term list at a (K, n) trajectory,
        pinned head included."""
        total = 0.0
        for term in self.terms:
            kind = term[0]
            if kind == "prior":
                _, W, center = term
                d = xs[0] - center
                total += 0.5 * d @ W @ d
            elif kind == "time":
                _, Q, A, dvec, j = term
                r = xs[j + 1] - A @ xs[j] - dvec
                total += 0.5 * r @ Q @ r
            else:  # measurement
                _, C, Wm, y, j = term
                r = y - C @ xs[j]
                total += 0.5 * r @ Wm @ r
        return float(total)

    def variable_part(self, xs: np.ndarray) -> np.ndarray:
        """The (nb, n) variable blocks of a (K, n) trajectory."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ValueError(f"trajectory must be a (K, {self.n}) array, "
                             f"not of shape {xs.shape}")
        if len(xs) != self.n_blocks:
            raise ValueError("trajectory length does not match cost")
        if self.pinned and not np.allclose(xs[0], self.head):
            raise ValueError("pinned initial block does not match trajectory")
        return xs[int(self.pinned):]

    def gradient(self, xs: np.ndarray) -> np.ndarray:
        """Gradient with respect to the variable blocks, flattened."""
        zv = self.variable_part(xs)
        nb = self.n_variable_blocks
        g = [self.D[i] @ zv[i] + self.b[i] for i in range(nb)]
        for i, Li in enumerate(self.L):
            g[i + 1] = g[i + 1] + Li @ zv[i]
            g[i] = g[i] + Li.T @ zv[i + 1]
        return np.concatenate(g) if g else np.zeros(0)

    def dense_hessian(self) -> np.ndarray:
        nb = self.n_variable_blocks
        n = self.n
        H = np.zeros((nb * n, nb * n))
        for i, Di in enumerate(self.D):
            H[i * n:(i + 1) * n, i * n:(i + 1) * n] = Di
        for i, Li in enumerate(self.L):
            H[(i + 1) * n:(i + 2) * n, i * n:(i + 1) * n] = Li
            H[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = Li.T
        return H


def _inverse_cholesky(S) -> np.ndarray:
    """Inverse of the lower Cholesky factor of symmetrize(S); raises
    ValueError if S is not finite (np.linalg.cholesky would return NaN
    factors) and np.linalg.LinAlgError if it is not positive definite.  A
    1 x 1 factor is 1 / sqrt(S), which rounds like inv(cholesky(S)); a
    Python float S is a 1 x 1 block, factored by the same steps in floats,
    with the same bits and the same exceptions."""
    if isinstance(S, float):
        S = 0.5 * (S + S)
        if not math.isfinite(S):
            raise ValueError("array must not contain infs or NaNs")
        if not S > 0:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return 1.0 / math.sqrt(S)
    S = symmetrize(S)
    if not np.isfinite(S).all():
        raise ValueError("array must not contain infs or NaNs")
    if S.shape[-1] == 1:
        if not S[0, 0] > 0:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return 1.0 / np.sqrt(S)
    return np.linalg.inv(np.linalg.cholesky(S))


def _schur_factor(S, i) -> np.ndarray:
    """_inverse_cholesky of the Schur complement S of Hessian block i.  Its
    inputs are finite, so a non-finite S overflowed: NonFiniteStateError."""
    try:
        return _inverse_cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteHessianError(
            f"Hessian Schur complement {i} not positive definite") from exc
    except ValueError as exc:
        raise NonFiniteStateError(
            f"Hessian Schur complement {i} non-finite") from exc


def _factor_solve(Li, B) -> np.ndarray:
    """S^{-1} B from Li = _inverse_cholesky(S)."""
    return Li.T @ (Li @ B)


def initial_cost(init: StateEstimate) -> QuadraticCost:
    """Prior term on x_0.

    A symmetric positive definite prior covariance enters through its
    inverse; an exactly zero covariance pins x_0 at the prior mean.  A
    partially singular or a non-finite prior is rejected.
    """
    n = init.xhat.size
    Sigma = init.Sigma
    if np.all(Sigma == 0.0):
        return QuadraticCost(n=n, head=init.xhat.copy())
    try:
        with np.errstate(over="ignore"):  # an overflow is inf, refused below
            Li = _inverse_cholesky(Sigma)
            W = symmetrize(Li.T @ Li)
    except np.linalg.LinAlgError as exc:
        raise ModelError(
            "initial prior covariance must be symmetric positive definite "
            "or exactly zero") from exc
    except ValueError as exc:
        raise ModelError("initial prior covariance must not contain infs or "
                         "NaNs, nor overflow when symmetrized") from exc
    if not np.isfinite(W).all():
        raise ModelError("initial prior covariance is so small that its "
                         "inverse, the oracle's prior weight, overflows")
    cost = QuadraticCost(n=n)
    cost.D.append(W.copy())
    cost.b.append(-W @ init.xhat)
    cost.terms.append(("prior", W, init.xhat.copy()))
    return cost


def _time_blocks(model, sigma_v, XI, head):
    """The time term at xprev = XI[:, 0] from one linearization of XI =
    [xprev | I]: f(xprev), A = Df(xprev), Q, d = f(xprev) - A xprev, and its
    blocks: A'QA and A'Qd on the previous block, the coupling -QA, and -Qd,
    or -Q f(xprev) after the pinned head (`head`).  As in the filter, the
    linearization runs without floating-point warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        fx, A, g, _ = model.linearize(XI)
    pred, xprev = fx[:, 0], XI[:, 0]
    Q = np.diag(1.0 / (np.maximum(g[:, 0] ** 2, EPS_G) * sigma_v))
    d = pred - A @ xprev
    AtQ = A.T @ Q
    return pred, A, Q, d, AtQ @ A, AtQ @ d, -Q @ A, -Q @ (pred if head else d)


def _float_time_blocks(model, sigma_v):
    """`_time_blocks` of a `_scalar_linear` model as a function of xprev and
    head on Python floats: the block route's IEEE operations in the same
    order, each one-term matmul a product added to +0.0, and g * g for g ** 2
    (a float's ** raises OverflowError)."""
    a0, a1, sv = model.A0.item(), model.A1.item(), sigma_v.item()
    c0, c1 = model.gsq[0].tolist()

    def time_blocks(x, head):
        ax = a1 * x + 0.0
        pred = ax + a0
        g = math.sqrt(max(c1 * x + 0.0 + c0, EPS_G))  # NaN stays NaN
        q = 1.0 / (max(g * g, EPS_G) * sv)
        d = pred - ax
        atq = a1 * q + 0.0
        return (pred, a1, q, d, atq * a1 + 0.0, atq * d + 0.0, -q * a1 + 0.0,
                -q * (pred if head else d) + 0.0)

    return time_blocks


def _float_product(a, b):
    """A @ B of 1 x 1 blocks held as Python floats."""
    return a * b + 0.0


def _float_solve(li, b):
    """`_factor_solve` of 1 x 1 blocks held as Python floats."""
    return li * (li * b + 0.0) + 0.0


def build_time_cost(prev: QuadraticCost, model, xhat_prev) -> QuadraticCost:
    """Append one time-step term, expanding the weighted residual around the
    running estimate xhat_prev; the Hessian grows by one block row/column."""
    cost = prev.copy()
    xprev = np.atleast_1d(np.asarray(xhat_prev, dtype=float))
    head = cost.pinned and cost.n_variable_blocks == 0
    _, A, Q, d, AtQA, AtQd, L, b = _time_blocks(
        model, np.diag(model.Sigma_v),
        np.concatenate((xprev[:, None], np.eye(xprev.size)), axis=1), head)
    j = cost.n_blocks - 1  # full-trajectory index of the previous block
    if j < 0:
        raise ValueError("cost has no blocks to extend from")
    if head:
        # Previous state is the pinned head: only the new block is free.
        if not np.allclose(xprev, cost.head):
            raise ValueError("expansion point must equal the pinned head")
    else:
        i = cost.n_variable_blocks - 1
        cost.D[i] = cost.D[i] + AtQA
        cost.b[i] = cost.b[i] + AtQd
        cost.L.append(L)
    cost.D.append(Q.copy())
    cost.b.append(b)
    cost.terms.append(("time", Q, A.copy(), d, j))
    return cost


def _measurement_blocks(C, Sigma_w):
    """(C, Wm = Sigma_w^{-1}, C'Wm, C'Wm C) of the measurement term; a
    singular Sigma_w, or one whose inverse or C'Wm C overflows, is a
    ModelError."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    try:
        with np.errstate(over="ignore"):  # an overflow is inf, refused below
            Wm = symmetrize(np.linalg.inv(
                np.atleast_2d(np.asarray(Sigma_w, dtype=float))))
    except np.linalg.LinAlgError as exc:
        raise ModelError("Sigma_w is singular; the oracle weighs each "
                         "measurement by its inverse") from exc
    if not np.isfinite(Wm).all():
        raise ModelError("Sigma_w is so small that its inverse, the "
                         "oracle's measurement weight, overflows")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        CtW = C.T @ Wm
        CtWC = CtW @ C
    if not np.isfinite(CtWC).all():  # so wherever C'Wm is not finite
        raise ModelError("Sigma_w is too small for C: the oracle's "
                         "measurement information C' Sigma_w^{-1} C "
                         "overflows")
    return C, Wm, CtW, CtWC


def build_measurement_cost(cost: QuadraticCost, y, C, Sigma_w) -> QuadraticCost:
    """Add the (already quadratic) measurement term on the last block."""
    out = cost.copy()
    C, Wm, CtW, CtWC = _measurement_blocks(C, Sigma_w)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    j = out.n_blocks - 1
    out.terms.append(("meas", C.copy(), Wm, y.copy(), j))
    if out.n_variable_blocks > 0:
        i = out.n_variable_blocks - 1
        out.D[i] = out.D[i] + CtWC
        out.b[i] = out.b[i] - CtW @ y
    return out


def _sweep(L, factors, last, R, ends) -> np.ndarray:
    """Solve, for each column c of R (blocks, n, K), the leading system with
    couplings L that ends at block ends[c] (ascending).  A block is factored
    by `last[i]` where a system ends and by `factors[i]` elsewhere.  Entries
    below a column's end are ignored and returned as zeros."""
    nb, _, K = R.shape
    # first[i]: the first column whose system reaches block i.
    first = np.searchsorted(ends, np.arange(nb + 1))
    Y = np.zeros_like(R)
    Y[:1] = R[:1]  # a slice: a pinned head alone leaves no block
    for i in range(1, nb):
        c = first[i]
        Y[i, :, c:] = R[i, :, c:] - L[i - 1] @ _factor_solve(
            factors[i - 1], Y[i - 1, :, c:])
    X = np.zeros_like(R)
    for i in range(nb - 1, -1, -1):
        a, c = first[i], first[i + 1]
        if a < c:
            X[i, :, a:c] = _factor_solve(last[i], Y[i, :, a:c])
        if c < K:
            X[i, :, c:] = _factor_solve(
                factors[i], Y[i, :, c:] - L[i].T @ X[i + 1, :, c:])
    return X


class BlockTridiagFactor:
    """Block elimination of the symmetric block-tridiagonal matrix with
    diagonal blocks D and couplings L (L[i] couples block i + 1 to block
    i), in one pass over the blocks.  Block i is factored through the
    inverse lower Cholesky factor of its Schur complement
    S_i = D_i - L_{i-1} S_{i-1}^{-1} L_{i-1}'.
    """

    def __init__(self, D, L):
        if not all(np.isfinite(B).all() for B in (*D, *L)):
            raise ValueError("blocks must not contain infs or NaNs")
        self.L = L
        self.factors = []
        for i, Di in enumerate(D):
            if i:
                Di = Di - L[i - 1] @ _factor_solve(self.factors[-1], L[i - 1].T)
            self.factors.append(_schur_factor(Di, i))

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve the whole system for one right-hand side."""
        nb = len(self.factors)
        return _sweep(self.L, self.factors, self.factors,
                      r.reshape(nb, -1, 1), [nb - 1]).ravel()

    def last_inverse_block(self) -> np.ndarray:
        Li = self.factors[-1]
        return symmetrize(Li.T @ Li)


@dataclass
class OracleSolution:
    """Minimizing trajectory with the estimate and covariance of its final
    block.  `oracle_filter` returns every step's, each field with a leading
    step axis and each trajectory row zero past its step's block; its xhat
    and Sigma, from Schur factors, agree with the Newton step to rounding."""

    trajectory: np.ndarray
    xhat: np.ndarray
    Sigma: np.ndarray
    grad_norm_before: np.ndarray
    grad_norm_after: np.ndarray
    second_step_norm: np.ndarray


def newton_solve(cost: QuadraticCost, z0: np.ndarray) -> OracleSolution:
    """One Newton step from the (K, n) trajectory z0, pinned head included;
    verifies internally that the step converged (a second step would move by
    < 1e-10 relative) and extracts the marginal covariance of the final
    block from the inverse Hessian."""
    n = cost.n
    zv = cost.variable_part(z0).ravel()
    if cost.n_variable_blocks == 0:
        return OracleSolution(
            trajectory=cost.head[None].copy(), xhat=cost.head.copy(),
            Sigma=np.zeros((n, n)), grad_norm_before=0.0,
            grad_norm_after=0.0, second_step_norm=0.0)
    head = cost.head[None] if cost.pinned else np.zeros((0, n))

    def trajectory(z):
        return np.concatenate((head, z.reshape(-1, n)))

    factor = BlockTridiagFactor(cost.D, cost.L)
    z_star, before, after, step2 = _newton_step(
        lambda z: cost.gradient(trajectory(z)), factor.solve, zv,
        np.linalg.norm)
    xs = trajectory(z_star)
    return OracleSolution(
        trajectory=xs, xhat=xs[-1].copy(),
        Sigma=factor.last_inverse_block(),
        grad_norm_before=float(before), grad_norm_after=float(after),
        second_step_norm=float(step2))


def _newton_step(gradient, solve, z0, norms):
    """One Newton step from z0 (one system, or a column per system): the
    stepped z and the norms of the gradient before and after and of a second
    step.  Raises if a norm is not finite, and at the first system whose
    second step moves > 1e-10 relative."""
    g0 = gradient(z0)
    z = z0 - solve(g0)
    g1 = gradient(z)
    step2 = solve(g1)
    out = [norms(g0), norms(g1), norms(step2)]
    if not np.isfinite(out).all():
        raise NonFiniteStateError("Newton check norm non-finite")
    rel = np.atleast_1d(out[2] / (1.0 + norms(z)))
    bad = np.flatnonzero(rel > 1e-10)
    if bad.size:
        raise IndefiniteHessianError(
            "Newton step failed to converge in one iteration "
            f"(residual {rel[bad[0]]:.2e})")
    return (z, *out)


def _newton_checks(D, b, L, Dt, bt, factors, terminal, starts):
    """One Newton step on every prefix cost at once, each from the previous
    prefix's minimizer extended by starts[j], as the per-step solve started.
    Prefix j holds the final blocks D, b, L (factored by `factors`) up to
    block j, whose terminal blocks are Dt[j] and bt[j], factored by
    terminal[j].  Returns `_newton_step`'s outputs, the stepped
    trajectories (blocks, n, prefixes) and three norms per prefix."""
    nb, n = b.shape
    j = np.arange(nb)
    upper = np.triu(np.ones((nb, nb)))[:, None, :]

    def gradients(Z):
        # Column j of Z holds blocks 0..j of a point of prefix j.
        G = D @ Z + b[..., None]
        G[j, :, j] = (Dt @ Z[j, :, j, None])[..., 0] + bt
        G[1:] += L @ Z[:-1]
        G[:-1] += L.swapaxes(-1, -2) @ Z[1:]
        return G * upper

    def norms(Z):
        return np.sqrt(np.einsum("ijk,ijk->k", Z, Z))

    def solve(R):
        return _sweep(L, factors, terminal, R, j)

    z_min = -solve(gradients(np.zeros((nb, n, nb))))
    z0 = np.zeros_like(z_min)
    z0[:, :, 1:] = z_min[:, :, :-1]
    z0[j, :, j] = starts
    return _newton_step(gradients, solve, z0, norms)


def _forward_pass(model, sigma_v, pinned, CtWC, CtWy, D, b, L, Dt, bt,
                  factors, terminal, xhats, starts):
    """Fill `oracle_filter`'s block arrays step by step: D, b, L and
    factors end as the whole cost's, Dt, bt and terminal as each step's
    terminal block, xhats[k] is step k's estimate and starts[k + 1] is
    f(xhats[k]).  A step's measurement and time terms change only its last
    block, whose Schur complement (D - coupling) is factored as the
    terminal block, then again, frozen, with the time term.

    The loop body is written once (see the module docstring): on Python
    floats through memoryviews of the arrays for a `_scalar_linear` model,
    on the arrays with `@` for every other."""
    if _scalar_linear(model):
        D, b, L, Dt, bt, factors, terminal, xhats, starts, CtWy = (
            memoryview(a.reshape(len(a))) for a in
            (D, b, L, Dt, bt, factors, terminal, xhats, starts, CtWy))
        CtWC = CtWC.item()
        time_blocks = _float_time_blocks(model, sigma_v)
        # float(a) is a: a 1 x 1 block is its own transpose.
        solve, product, transpose = _float_solve, _float_product, float
    else:
        n = xhats.shape[1]
        XI = np.eye(n, n + 1, 1)  # [xhat_k | I], linearized at each step

        def time_blocks(x, head):
            XI[:, 0] = x
            return _time_blocks(model, sigma_v, XI, head)
        solve, product, transpose = _factor_solve, np.matmul, np.transpose
    coupled = coupling = 0.0  # what eliminating blocks < i adds to block i
    N = len(xhats)
    for k in range(N):
        i = k - pinned
        if i >= 0:
            D[i] += CtWC
            b[i] -= CtWy[i]
            Dt[i], bt[i] = D[i], b[i]
            terminal[i] = factors[i] = _schur_factor(D[i] - coupling, i)
            xhats[k] = solve(terminal[i], -b[i] - coupled)
        if k + 1 == N:
            break
        starts[k + 1], _, D[i + 1], _, AtQA, AtQd, Lq, b[i + 1] = (
            time_blocks(xhats[k], i < 0))
        if i >= 0:
            D[i] += AtQA
            b[i] += AtQd
            L[i] = Lq
            factors[i] = _schur_factor(D[i] - coupling, i)
            coupled = product(Lq, solve(factors[i], -b[i] - coupled))
            coupling = product(Lq, solve(factors[i], transpose(Lq)))


def oracle_filter(model, measurements, init: StateEstimate) -> OracleSolution:
    """Recursive cost construction mirroring the filter: at each step the
    measurement term is added and the cost minimized; the time term appended
    afterwards is expanded at the running estimate and never revisited.

    A term only changes the last diagonal block, so the forward pass factors
    each Schur complement twice: once as the terminal block of step k's cost
    (measurement in, next time term out), which gives xhat_k and Sigma_k,
    and once with the time term, frozen for every later step: a step
    expands one time term and makes these two factorizations, in arrays
    allocated once (`_forward_pass`).  The prefix costs differ only in
    their terminal block, and batched block sweeps solve all of them at
    once.  All factors are made before any
    Newton check runs, so a Hessian that is not positive definite is
    reported before a failed check of an earlier step.  Step k's Newton
    check starts, as the per-step solve did, from the previous minimizer
    extended by f(xhat_{k-1}); it takes one Newton step and requires a
    second step to move by < 1e-10 relative; a norm that is not finite
    raises.  A Sigma_v diagonal entry whose largest weight 1/(EPS_G Sigma_v)
    is not finite, a singular Sigma_w or one whose inverse overflows, which
    the costs invert, is a `ModelError`, as is a Sigma_w against which
    C' Sigma_w^{-1} C or C' Sigma_w^{-1} y overflows, and a prior
    covariance whose inverse overflows (`initial_cost`).  A non-finite
    measurement is a ValueError; a Schur complement that overflows is a
    NonFiniteStateError.  Before any of that, inputs of another size than
    the model's raise LengthMismatchError (`discrete._check_sizes`), and no
    measurements or a non-finite prior mean, ValueError.
    """
    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    _check_sizes(model.m, model.n, ms[None], init.xhat[None], init.Sigma)
    N = ms.shape[0]
    if N < 1:
        raise ValueError("need at least one measurement")
    if not np.isfinite(init.xhat).all():
        raise ValueError("initial prior mean must not contain infs or NaNs")
    if N > MAX_HORIZON:
        raise ValueError(
            f"horizon {N} exceeds cap {MAX_HORIZON}; the cap bounds the "
            "O(N^2 n) memory of the batched per-step Newton checks and of "
            "the per-step trajectories returned")
    sigma_v = np.diag(model.Sigma_v)
    if not np.all(sigma_v > 0):
        raise ModelError("Sigma_v has a zero diagonal entry; the oracle "
                         "weighs each time step by its inverse")
    with np.errstate(over="ignore", divide="ignore"):
        if not np.all(1.0 / (EPS_G * sigma_v) < np.inf):
            raise ModelError("Sigma_v has a diagonal entry so small that the "
                             "oracle's largest time weight 1/(EPS_G Sigma_v) "
                             "overflows")
    _, _, CtW, CtWC = _measurement_blocks(model.C, model.Sigma_w)
    prior = initial_cost(init)
    n, pinned = prior.n, int(prior.pinned)
    nb = N - pinned  # variable blocks; step k ends at block k - pinned
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        CtWy = (CtW @ ms[pinned:, :, None])[..., 0]
    if not np.isfinite(ms).all():
        raise ValueError("measurements must not contain infs or NaNs")
    if not np.isfinite(CtWy).all():
        raise ModelError("Sigma_w is too small for the measurements: the "
                         "oracle's weighted measurement C' Sigma_w^{-1} y "
                         "overflows")
    D, Dt, L, factors, terminal = np.zeros((5, nb, n, n))
    b, bt = np.zeros((2, nb, n))
    xhats, starts = np.empty((2, N, n))
    xhats[0] = starts[0] = init.xhat
    if not pinned:
        D[0], b[0] = prior.D[0], prior.b[0]
    # As in the filter loop, a value that overflows is left to the checks:
    # a Schur complement that is not finite and a non-finite norm raise.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        _forward_pass(model, sigma_v, pinned, CtWC, CtWy, D, b, L, Dt, bt,
                      factors, terminal, xhats, starts)
        Sigmas = np.zeros((N, n, n))  # zero for a pinned head
        Sigmas[pinned:] = symmetrize(terminal.swapaxes(-1, -2) @ terminal)

        z_star, before, after, step2 = _newton_checks(
            D, b, L[:-1], Dt, bt, factors, terminal, starts[pinned:])
    # Row k: step k's trajectory, pinned head first, zero past block k.
    trajectory = np.zeros((N, N, n))
    trajectory[:, :pinned] = init.xhat
    trajectory[pinned:, pinned:] = z_star.transpose(2, 0, 1)
    norms = np.zeros((3, N))  # zero for a pinned head alone
    norms[:, pinned:] = before, after, step2
    return OracleSolution(trajectory, xhats, Sigmas, *norms)


def dump_diagnostics(sol: OracleSolution, path, deltas: np.ndarray):
    """Per-step gradient norms of `sol` and the (N, 2) estimate/covariance
    deltas against a filter trace, as CSV."""
    _write_steps(path, range(len(deltas)), None,
                 ["grad_norm_before", "grad_norm_after", "second_step_norm",
                  "xhat_delta", "Sigma_delta"],
                 [np.column_stack((sol.grad_norm_before, sol.grad_norm_after,
                                   sol.second_step_norm)), deltas])
