"""Continuous-discrete filter: propagation of the estimate and its
covariance between measurement instants, with the noise gain re-evaluated
along the evolving estimate, plus the Euler-refinement consistency check.

The matrix exponentials of the exact propagation come from `_expm`, a numpy
Padé scaling-and-squaring method (Higham, "The scaling and squaring method
for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4),
2005, Algorithm 2.3)."""

import functools
import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .discrete import (FilterTrace, StateEstimate, _check_finite,
                       _check_sizes, _compiled, _predictor, _products, _run,
                       _stepped, _upper)
from .errors import (LengthMismatchError, NonFiniteStateError,
                     StepTooLargeError)
from .models import EPS_G, ContinuousDiscreteModel, DiscreteLinearModel, eval_G

# eval_G is not called here; bench/spans.py wraps it as an attribute of this
# module, so it stays importable from it.


def default_config(model: ContinuousDiscreteModel) -> float:
    """Step of the clamp-detection grid: (smallest inter-sample gap)/100."""
    gaps = np.diff(model.sample_times)
    gap = gaps.min() if gaps.size else 1.0
    return gap / 100.0


# Higham (2005), Table 2.3: the largest 1-norm at which the degree-m
# diagonal Padé approximant of exp is accurate to double precision, and
# the approximant's coefficients b_0..b_m.
_PADE = (
    (1.495585217958292e-2, (120., 60., 12., 1.)),
    (2.539398330063230e-1, (30240., 15120., 3360., 420., 30., 1.)),
    (9.504178996162932e-1, (17297280., 8648640., 1995840., 277200., 25200.,
                            1512., 56., 1.)),
    (2.097847961257068, (17643225600., 8821612800., 2075673600., 302702400.,
                         30270240., 2162160., 110880., 3960., 90., 1.)),
    (5.371920351148152, (64764752532480000., 32382376266240000.,
                         7771770303897600., 1187353796428800.,
                         129060195264000., 10559470521600., 670442572800.,
                         33522128640., 1323241920., 40840800., 960960.,
                         16380., 182., 1.)),
)


@functools.lru_cache(maxsize=None)
def _identity(size):
    """np.eye(size), made once per size and read-only."""
    eye = np.eye(size)
    eye.flags.writeable = False
    return eye


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) from the lowest Padé degree m in {3, 5, 7, 9, 13} whose bound
    covers the 1-norm of A; at degree 13, A is first scaled by 2^-s into the
    bound and the result squared s times.  A non-finite 1-norm raises.

    Before that, on the squaring path only, the constant coordinates (zero
    rows of A, such as the 1 of [x; vec Sigma; 1]) are balanced (Ward, SIAM
    J. Numer. Anal. 14(4), 1977): when their columns set the norm, they are
    scaled by the power of two 2^-p that brings them within the other
    columns' norm, or the degree-3 bound if that is larger, and exp(A) =
    D exp(D^-1 A D) D^-1, D = diag(1 or 2^-p), exactly.  Otherwise an
    affine column far larger than the dynamics forces squarings that wash
    out the rest of exp(A)."""
    with np.errstate(over="ignore"):
        cols = np.abs(A).sum(axis=0)  # the 1-norm of each column
    norm = cols.max()
    if not norm < np.inf:
        raise NonFiniteStateError("matrix exponential argument non-finite")
    e = None  # the exponents of D, when balanced
    if norm > _PADE[-1][0]:
        const = ~A.any(axis=1)
        rest = max(cols[~const].max(initial=0.0), _PADE[0][0])
        if norm > rest:  # a constant column sets the norm
            p = int(np.ceil(np.log2(norm) - np.log2(rest)))
            e = np.where(const, -p, 0)
            A = np.ldexp(A, e)
            norm = np.abs(A).sum(axis=0).max()
    s = 0
    for theta, b in _PADE:
        if norm <= theta:
            break
    else:
        s = int(np.ceil(np.log2(norm / theta)))
        A = A / 2.0 ** s
    # r_m(A) = (V - U)^{-1} (V + U), U = odd part and V = even part of the
    # numerator, both sums over the even powers I, A^2, ..., A^(m-1).
    powers = [_identity(len(A)), A @ A]
    while len(powers) < len(b) // 2:
        powers.append(powers[-1] @ powers[1])
    U = V = 0  # each sum 0 + term_0 + term_1 + ..., in this order
    for c_even, c_odd, P in zip(b[::2], b[1::2], powers):
        V = V + c_even * P
        U = U + c_odd * P
    U = A @ U
    E = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller tests E z
        for _ in range(s):
            E = E @ E
        return E if e is None else np.ldexp(E, e[:, None] - e)


# The bits after the leading one that a canonical interval length keeps.
_SPAN_BITS = 44


def _canonical(gap):
    """The length over which an interval of length `gap` > 0 is propagated:
    `gap` rounded to _SPAN_BITS bits after its leading one, a pure function
    of `gap` within 2^-45 (about 2.8e-14) of it, relative.  Gaps that differ
    by a few ulps, as linspace gives, mostly share it.  A gap that rounds
    past the largest float, or is not finite, is its own length."""
    m, e = math.frexp(gap)
    try:
        return math.ldexp(round(m * 2 ** (_SPAN_BITS + 1)),
                          e - _SPAN_BITS - 1)
    except OverflowError:
        return gap


def _grid_steps(step, span, t0, t1, name="step"):
    """The steps of the clamp-detection grid of an interval [t0, t1] that
    is propagated over the canonical length `span`: round(span / step),
    at least 1.  A step longer than the interval, or one that puts more
    than 10^5 steps on it, is refused, naming the step by `name`."""
    if step > span * (1 + 1e-12):
        raise StepTooLargeError(f"{name} {step} exceeds interval {t1 - t0}")
    # In Python floats, so that a ratio that overflows is inf, unwarned.
    nsteps = max(1.0, round(float(span) / float(step), 0))
    if nsteps > 10 ** 5:  # a grid of 2 * nsteps + 1 nodes
        raise ValueError(f"{name} {step} puts {nsteps:.3g} grid steps on "
                         f"[{t0}, {t1}]; at most 100000 are allowed")
    return int(nsteps)


def _inner(model) -> DiscreteLinearModel:
    return model.inner if isinstance(model, ContinuousDiscreteModel) else model


# The margin of the node bounds (see `_Propagator._new_span`), relative to
# the size of the node map's terms, |w0| + sum_l |W1_l| |x_l|.  Rounding
# moves a g2 that `propagate` computes, or its bound, by a few 2^-53 of
# that size at n <= 3: 2^-40 is far above it, so that an interval whose
# bounds decide its floored set is one that `propagate` floors alike.
_MARGIN = 2.0 ** -40

# The names that the generated time update (`_interval_lines`) binds from
# the propagator `prop`, once per run of the filter kernel
# (`discrete._kernel`) or per call of `_interval`.
_PROPAGATOR = ("zc, zb, za, interval = prop.coeffs, prop.bounds, prop.affine, "
               "prop.interval")


def _interval_lines(n):
    """Python lines of the continuous-discrete time update of interval k,
    the filter kernel's and `_interval`'s alike: x{i} and the upper
    triangle p{i}_{j} of Sigma at times[k] become those at times[k + 1],
    and `floored` says whether a g2 was floored.

    zc[k] is the record of the interval's span (see `_Propagator`).  Its
    node bounds (zb(k) builds them on first use) hold per g2_i a centre
    m_i0 + sum_l m_il x_l and a half-width e_i0 + sum_l e_il |x_l|, whose
    interval holds g2_i at every node.  When they put every g2_i above
    EPS_G or below it over the whole interval, the floored set `key` is
    fixed and the interval is its affine map (za(k, key) builds it on
    first use): x' = psi + Phi x and Sigma' = Phi Sigma Phi' + Q(x), its
    upper triangle, each sum ordered left to right.  Otherwise, and where
    x' or Sigma' is not finite, `interval(k, x, vec Sigma)` (`propagate`)
    propagates it, and the two triangles of its Sigma are averaged."""
    ns = range(n)
    upper = [(i, j) for i in ns for j in ns if i <= j]
    dot = _products

    def P(i, j):  # Sigma_ij: one name for both triangles
        return f"p{min(i, j)}_{max(i, j)}"

    bounds = [f"z{b}{i}{s}" for i in ns for b in "me"
              for s in [""] + [f"_{l}" for l in ns]]
    coefs = ([f"zv{i}" for i in ns] + [f"zf{i}_{j}" for i in ns for j in ns]
             + [f"zq{i}_{j}{s}" for i, j in upper
                for s in [""] + [f"_{l}" for l in ns]])
    lines = ["zr = zc[k]", f"{', '.join(bounds)}, = zr[0] or zb(k)"]
    lines += [f"zx{l} = x{l} if x{l} >= 0.0 else -x{l}" for l in ns]
    lines.append("zk, zok = 0, True")
    for i in ns:  # a NaN decides nothing
        lines += [f"zg = zm{i} + " + dot((f"zm{i}_{l}", f"x{l}") for l in ns),
                  f"ze = ze{i} + " + dot((f"ze{i}_{l}", f"zx{l}") for l in ns),
                  "if zg + ze < EPS_G:", f"    zk += {1 << i}",
                  "elif not zg - ze > EPS_G:", "    zok = False"]
    fast = [f"{', '.join(coefs)}, = zr[1 + zk] or za(k, zk)"]
    fast += [f"zp{i}_{j} = " + dot((f"zf{i}_{l}", P(l, j)) for l in ns)
             for i in ns for j in ns]  # Phi Sigma
    fast += [f"zs{i}_{j} = " + dot((f"zp{i}_{l}", f"zf{j}_{l}") for l in ns)
             + f" + zq{i}_{j} + "
             + dot((f"zq{i}_{j}_{l}", f"x{l}") for l in ns) for i, j in upper]
    fast += [f"zy{i} = zv{i} + " + dot((f"zf{i}_{j}", f"x{j}") for j in ns)
             for i in ns]
    outs = [f"zy{i}" for i in ns] + [f"zs{i}_{j}" for i, j in upper]
    fast += [f"zt = {' + '.join(outs)}", "if zt - zt == 0.0:",  # finite
             "    " + ", ".join([f"x{i}" for i in ns]
                                + [f"p{i}_{j}" for i, j in upper])
             + f", floored = {', '.join(outs)}, zk > 0",
             "else:", "    zok = False"]
    lines += ["if zok:"] + ["    " + line for line in fast]
    vec = [(i, j) for j in ns for i in ns]  # vec Sigma, by columns
    slow = [", ".join([f"x{i}" for i in ns]
                      + [f"p{i}_{j}" if i <= j else f"t{i}_{j}"
                         for i, j in vec]) + ", floored = interval("
            + ", ".join(["k"] + [f"x{i}" for i in ns]
                        + [P(i, j) for i, j in vec]) + ")"]
    slow += [f"p{i}_{j} = 0.5 * (p{i}_{j} + t{j}_{i})"
             for i, j in upper if i < j]
    return lines + ["if not zok:"] + ["    " + line for line in slow]


@functools.lru_cache(maxsize=None)
def _interval(n):
    """`_interval_lines` compiled once per n, for `_Propagator.predict`:
    step(prop, k, x0, .., p0_0, ..) takes x and the upper triangle of Sigma
    by rows, and returns them at times[k + 1], then `floored`, as one list."""
    names = [f"x{i}" for i in range(n)] + [
        f"p{i}_{j}" for i in range(n) for j in range(i, n)]
    src = [f"def step(prop, k, {', '.join(names)}):", "    " + _PROPAGATOR]
    src += ["    " + line for line in _interval_lines(n)]
    src.append(f"    return [{', '.join(names)}, floored]")
    return _compiled(src, "step", True)


class _Layout(NamedTuple):
    """The index tables of an n-state `_Propagator` (`_layout`)."""

    bits: np.ndarray    # bit i of a floored set's key, per g2_i
    diag: np.ndarray    # the rows of Sigma_ii in vec Sigma
    direct: np.ndarray  # E's flat indices of psi, then Phi by rows
    q_ij: np.ndarray    # of Q0 and Q_l (l < n) in Sigma_ij's row, per i <= j
    q_ji: np.ndarray    # the same columns of Sigma_ji's row
    z: np.ndarray       # [0; vec 0; 1], a template for z


@functools.lru_cache(maxsize=None)
def _layout(n):
    """`_Layout` of n states, made once per n, its arrays read-only.  E,
    the exponential of the generator of z = [x; vec Sigma; 1], is N x N,
    N = n + n^2 + 1, and `affine` reads its coefficients off E's flat
    indices: psi = E[:n, -1], Phi = E[:n, :n] and, per i <= j, the columns
    1 and x_l of Sigma_ij's and Sigma_ji's rows."""
    N = n + n * n + 1
    i, j = _upper(n)  # the upper triangle of Sigma, by rows
    cols = np.array([N - 1, *range(n)])  # the columns 1 and x_l of E
    rows = np.arange(n)
    z = np.zeros(N)
    z[-1] = 1.0
    layout = _Layout(
        1 << rows, n + rows * (n + 1),
        np.concatenate((rows * N + N - 1, (rows[:, None] * N + rows).ravel())),
        ((n + j * n + i)[:, None] * N + cols).ravel(),
        ((n + i * n + j)[:, None] * N + cols).ravel(), z)
    for a in layout:
        a.flags.writeable = False
    return layout


class _Propagator:
    """Moment propagation for one model over one run at the sample times
    `times`: the time update from times[k] to times[k + 1] as generated
    float code (`_interval_lines`), which the filter kernel runs inline and
    `predict` runs on a joint block, with `propagate` as its slow path
    (`interval`).

    Between samples x' = A0 + A1 x and
    Sigma' = A1 Sigma + Sigma A1' + diag(sv * max(g2(x), EPS_G)).  While the
    set of floored g2 components stays fixed, this is a linear ODE in
    z = [x; vec Sigma; 1], so z(t1) = expm(M (t1 - t0)) z(t0) exactly
    (Van Loan, IEEE TAC 23(3), 1978).  The mean path does not depend on
    Sigma, so the floored set is read off g2(x(t)) at nodes half a step
    apart.  An interval where that set changes is cut at each crossing of
    EPS_G, and each piece is propagated by its own exponential; `cuts`
    records each such interval's cuts under its start, so a rerun (see
    `discrete._run`) overwrites them and never adds.  An interval is
    propagated over its canonical length (`_canonical`: its length rounded
    to _SPAN_BITS bits, within 2^-45 relative), not its exact one.  For as
    long as the object lives, the grid checks, the node map and the
    whole-interval exponentials (one per floored set) are built once per
    canonical length, on its first interval, and the generator M once per
    floored set.  A floored set is keyed by the int whose bit i is set for
    a floored g2_i.

    While the floored set is fixed, an interval is one affine map, whose
    coefficients the exponential E of that set holds: x' = psi + Phi x
    and Sigma' = Phi Sigma Phi' + Q(x), Q(x) = Q0 + sum_l x_l Q_l, with
    Phi = E[:n, :n], psi = E[:n, -1], and Q0 and Q_l the columns 1 and x_l
    of E's vec Sigma rows (each pair of triangles averaged).

    Each canonical length has one record, a list shared by its intervals
    (`coeffs[k]` is interval k's), whose entries are built on first use:
    - [0], the node bounds: per g2_i, the centres of its n + 1 columns of
      [w0 W1], then their half-widths, as one tuple (`_new_span`);
    - [1 + key], the affine coefficients of the floored set `key`: psi,
      Phi by rows, then Q0_ij and Q_l,ij (l < n) for each i <= j, as one
      tuple, all NaN if E is not finite (`affine`);
    - [-2], the node map (w0, W1) (`_new_span`); [-1], {key: E}.
    They are built where `propagate` would build them, so with the same
    errors.  A zero gap's record is NaN bounds, which decide nothing.  The
    coefficients, like E, come from `_expm`'s matmuls, so CD traces still
    depend on the BLAS kernel; the per-interval sums do not.

    The set-up does no more than these entries need, with the bits of its
    first form (`tests/reference_impl.py`): the index tables come from
    `_layout`, once per n; M's Kronecker sum A1 (x) I + I (x) A1 is formed
    by broadcasting, as np.kron's products summed; the node map's powers
    of the half-step propagator double into one preallocated stack.
    Nothing is shared across runs of one model: a cache on the model would
    hold every grid it met, up to 2 * 10^5 + 1 nodes per span.

    Its numpy calls run under the np.errstate of the filter loop (or of
    `discrete._stepped`), entered once per run: a value that overflows is
    tested where `propagate` tests z.
    """

    def __init__(self, dyn: DiscreteLinearModel, step: float, times):
        if not 0 < step < np.inf:
            raise ValueError("step must be finite and positive")
        self.dyn = dyn
        self.step = step
        self._ts = ts = list(times)
        n = dyn.n
        self._layout = layout = _layout(n)
        self._z = layout.z.copy()
        self.sv = np.diag(dyn.Sigma_v)
        self.cuts = {}  # the start of each cut interval -> its cuts
        self._bits = layout.bits
        self._generators = {}  # floored set -> M
        self._records = {}     # canonical length -> its record
        gaps = [t1 - t0 for t0, t1 in zip(ts, ts[1:])]
        records = {gap: self._record(_canonical(gap)) if gap else
                   [(math.nan,) * (2 * n * (n + 1))] for gap in set(gaps)}
        self.coeffs = list(map(records.__getitem__, gaps))

    def _record(self, span):
        """The record of the canonical length `span`, nothing built."""
        record = self._records.get(span)
        if record is None:
            n = self.dyn.n
            record = self._records[span] = [None] * (2 ** n + 2) + [{}]
        return record

    def _new_span(self, span, t0, t1):
        """The node map (w0, W1) of the canonical length `span`, built on its
        first interval [t0, t1], whose exact length a refusal names, with
        its node bounds: W = [w0 W1] maps [1; x(t0)] to g2 at the
        2*nsteps + 1 nodes, stacked (K*n, n+1).  Per g2_i and column of W,
        the bounds are the midpoint of its smallest and largest value over
        the nodes, then the half-range widened by _MARGIN times the largest
        magnitude."""
        nsteps = _grid_steps(self.step, span, t0, t1)
        dyn = self.dyn
        n = dyn.n
        Mx = np.zeros((n + 1, n + 1))  # mean generator acting on [1; x]
        Mx[1:, 0] = dyn.A0
        Mx[1:, 1:] = dyn.A1
        # Powers 0..2*nsteps of the half-step propagator, by doubling: powers
        # m..m+k-1 are power^m times powers 0..k-1.
        P = np.empty((2 * nsteps + 1, n + 1, n + 1))
        P[0] = _identity(n + 1)
        power = _expm(Mx * (span / (2 * nsteps)))
        m = 1
        while True:
            k = min(m, len(P) - m)
            np.matmul(power, P[:k], out=P[m:m + k])
            m += k
            if m == len(P):
                break
            power = power @ power
        W = (dyn.gsq @ P).reshape(-1, n + 1)
        nodes = W.reshape(-1, n, n + 1)
        bounds = []
        for los, his in zip(nodes.min(axis=0).tolist(),
                            nodes.max(axis=0).tolist()):  # per g2_i
            bounds += [0.5 * lo + 0.5 * hi for lo, hi in zip(los, his)]
            # A NaN lo or hi makes a NaN width, whichever max() returns.
            bounds += [0.5 * hi - 0.5 * lo + _MARGIN * max(-lo, hi)
                       for lo, hi in zip(los, his)]
        record = self._record(span)
        record[0] = tuple(bounds)
        record[-2] = W[:, 0], W[:, 1:]
        return record[-2]

    def _generator(self, key):
        """M of z' = M z, with the g2 components of the floored set `key` at
        EPS_G."""
        M = self._generators.get(key)
        if M is not None:
            return M
        floored = (self._bits & key) > 0
        dyn = self.dyn
        n = dyn.n
        A, eye = dyn.A1, _identity(n)
        M = np.zeros((n + n * n + 1, n + n * n + 1))
        M[:n, :n] = A
        M[:n, -1] = dyn.A0
        diag = self._layout.diag
        # The Kronecker sum A1 (x) I + I (x) A1 by broadcasting, entry
        # [(i, k), (j, l)] the sum A1_ij I_kl + I_ij A1_kl of np.kron's two
        # products, so a -0.0 product keeps its sign.  An entry that
        # overflows is inf; _expm then raises.
        M[n:-1, n:-1] = (A[:, None, :, None] * eye[None, :, None, :]
                         + eye[:, None, :, None] * A[None, :, None, :]
                         ).reshape(n * n, n * n)
        M[diag, :n] = np.where(floored[:, None], 0.0,
                               self.sv[:, None] * dyn.gsq[:, 1:])
        M[diag, -1] = self.sv * np.where(floored, EPS_G, dyn.gsq[:, 0])
        self._generators[key] = M
        return M

    def _exponential(self, exps, key, span):
        """The exponential of the floored set `key` over `span`, from the
        record's exponentials `exps`, built on first use."""
        E = exps.get(key)
        if E is None:
            E = exps[key] = _expm(self._generator(key) * span)
        return E

    def _cut(self, z, g2, floored, span, t0):
        """z propagated piece by piece, cut where a g2_i crosses EPS_G between
        two nodes; the crossing is placed by linear interpolation."""
        j, i = np.nonzero(floored[1:] != floored[:-1])
        cuts = (j + (EPS_G - g2[j, i]) / (g2[j + 1, i] - g2[j, i])) * (
            span / (len(g2) - 1))
        order = np.argsort(cuts)
        key = int(self._bits @ floored[0])
        for length, toggle in zip(np.diff(cuts[order], prepend=0.0),
                                  i[order].tolist()):
            z = _expm(self._generator(key) * length) @ z
            key ^= 1 << toggle
        self.cuts[t0] = len(cuts)
        M = self._generator(key)
        return _expm(M * (span - cuts.max())) @ z

    def propagate(self, z, t0, t1):
        """z = [x; vec Sigma; 1] at t1 from the contiguous array z at t0 (z
        itself if t1 == t0), propagated over the canonical length of t1 - t0,
        and whether any g2 was floored.  An interval where no node floors,
        the common case, takes the exponential of the empty floored set at
        once; an x or Sigma at t1 that is not finite raises
        NonFiniteStateError."""
        if t1 == t0:
            return z, False
        span = _canonical(t1 - t0)
        record = self._record(span)
        w0, W1 = record[-2] or self._new_span(span, t0, t1)
        n = self.dyn.n
        g2 = w0 + W1 @ z[:n]
        floored = g2 < EPS_G
        key = 0
        if floored.any():
            g2, floored = g2.reshape(-1, n), floored.reshape(-1, n)
            same = (floored == floored[0]).all()  # at every node
            key = int(self._bits @ floored[0]) if same else None
        if key is None:
            z = self._cut(z, g2, floored, span, t0)
        else:
            z = self._exponential(record[-1], key, span) @ z
        if not np.isfinite(z[:-1]).all():
            raise NonFiniteStateError(f"integration diverged on [{t0}, {t1}]")
        return z, key != 0

    def bounds(self, k):
        """The node bounds of interval k, built with its node map."""
        t0, t1 = self._ts[k], self._ts[k + 1]
        self._new_span(_canonical(t1 - t0), t0, t1)
        return self.coeffs[k][0]

    def affine(self, k, key):
        """The affine coefficients of interval k while the floored set is
        `key`, once its node map is built, stored in its record."""
        t0, t1 = self._ts[k], self._ts[k + 1]
        record = self.coeffs[k]
        E = self._exponential(record[-1], key, _canonical(t1 - t0))
        layout, flat = self._layout, E.ravel()
        coefs = np.concatenate((flat[layout.direct], 0.5 * (
            flat[layout.q_ij] + flat[layout.q_ji])))
        if not np.isfinite(E).all():
            coefs[:] = np.nan
        record[1 + key] = coefs = tuple(coefs.tolist())
        return coefs

    def interval(self, k, *xP):
        """The slow path of the generated time update: the n + n^2 floats
        xP = [x; vec Sigma] at times[k + 1] from those at times[k], by
        `propagate`, and whether a g2 was floored, as one list."""
        z = self._z
        z[:-1] = xP
        z, floored = self.propagate(z, self._ts[k], self._ts[k + 1])
        xP = z.tolist()
        xP[-1] = floored
        return xP

    def predict(self, k, Z, out):
        """`_run_loop`'s time update of one joint block Z into `out` (maybe
        Z): the generated code that the filter kernel runs inline
        (`_interval`), on x and the upper triangle of Sigma, which is
        symmetric on the way in, as `_blue_step` leaves it; Sigma leaves
        symmetric."""
        n = self.dyn.n
        iu = _upper(n)
        *xP, floored = _interval(n)(self, k, *Z[0, :, 0].tolist(),
                                    *Z[0, :, 1:][iu].tolist())
        out[0, :, 0] = xP[:n]
        out[0, :, 1:][iu] = out[0, :, 1:].T[iu] = xP[n:]
        return floored


def cd_time_update(post: StateEstimate, model, t0: float, t1: float,
                   step: float) -> StateEstimate:
    """Propagate estimate and covariance from t0 to t1 through the coupled
    ODEs, evaluating the noise gain along the evolving estimate, over the
    canonical length of t1 - t0 (`_canonical`), as `cd_run` propagates an
    interval of that length, so with the same bits.  Each call builds its
    own matrix exponentials; `cd_run` reuses them across intervals.  A
    value that overflows, in the propagation or in the prior it returns
    (indexed t1), raises NonFiniteStateError, never a RuntimeWarning first;
    a prior of another size than the model's, LengthMismatchError."""
    dyn = _inner(model)
    _check_sizes(dyn.m, dyn.n, xhat=post.xhat, Sigma=post.Sigma)
    if not -np.inf < t0 <= t1 < np.inf:
        raise ValueError("need finite t0 <= t1")
    prop = _Propagator(dyn, step, [t0, t1])
    prior = _stepped(post, prop.predict, 1, t1)
    _check_finite(t1, ("estimate", prior.xhat[None, None]),
                  ("estimate", prior.Sigma[None, None]))
    return prior


def cd_run(model: ContinuousDiscreteModel, measurements, init: StateEstimate,
           step: Optional[float] = None) -> FilterTrace:
    """Discrete measurement update at each sample time, exact propagation in
    between.  `init` is the prior at the first sample time.

    The trace counts intervals in which any g2 was floored (`clamp_count`),
    intervals cut where the floored set changes (`fallback_intervals`) and
    the cuts made in them (`step_count`), the totals of `_Propagator.cuts`.

    It is `discrete._run` with a `_Propagator` as the time update, so it
    takes a discrete model's route, with the same bits and errors."""
    if step is None:
        step = default_config(model)
    ms = np.atleast_2d(np.asarray(measurements, dtype=float))
    times = model.sample_times
    if ms.shape[0] != times.size:
        raise LengthMismatchError(
            f"{ms.shape[0]} measurements for {times.size} sample times")
    prop = _Propagator(_inner(model), step, times.tolist())
    trace = next(_run([prop.dyn], ms[None], init.xhat[None],
                      init.Sigma[None], prop)).replicate(0)
    trace.times, trace.step_count, trace.fallback_intervals = (
        times.copy(), sum(prop.cuts.values()), len(prop.cuts))
    return trace


@dataclass(frozen=True)
class LimitCheckRow:
    dt: float
    mean_err: float
    cov_err: float


def euler_limit_check(model, post: StateEstimate, t0: float, t1: float,
                      steps: Sequence[float]) -> List[LimitCheckRow]:
    """Compare the Euler discretization against the exact ODE propagation
    for each step size in `steps`.

    The discretization is the discrete time update of the Euler model
    (A0*dt, I + dt*A1, Sigma_v*dt), which propagates
    Sigma <- (I + dt*A1) Sigma (I + dt*A1)' + dt * G(xhat) Sigma_v G(xhat).
    Errors must shrink roughly linearly in dt; one that is not finite
    raises NonFiniteStateError.  The finest step sets the reference's
    clamp-detection grid, so it may take 10^5 steps.  A prior of another
    size than the model's raises LengthMismatchError.
    """
    dyn = _inner(model)
    _check_sizes(dyn.m, dyn.n, xhat=post.xhat, Sigma=post.Sigma)
    if not -np.inf < t0 < t1 < np.inf:
        raise ValueError("need finite t0 < t1")
    span = t1 - t0
    steps = sorted(float(dt) for dt in steps)
    if not steps:
        raise ValueError("need at least one step")
    for dt in steps:
        if not 0 < dt < np.inf:
            raise ValueError(f"dt={dt} must be finite and positive")
        ratio = span / dt
        if ratio == np.inf:  # the reference would refuse it, past 10^5
            raise ValueError(f"dt={dt} puts {ratio:.3g} steps on "
                             f"[{t0}, {t1}]; at most 100000 are allowed")
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(f"dt={dt} does not divide the interval {span}")
    ref = cd_time_update(post, dyn, t0, t1, steps[0])
    rows = []
    for dt in steps:
        euler = replace(dyn, A0=dt * dyn.A0, A1=np.eye(dyn.n) + dt * dyn.A1,
                        Sigma_v=dt * dyn.Sigma_v)
        est = _stepped(post, _predictor(euler), int(round(span / dt)), t1)
        with np.errstate(over="ignore", invalid="ignore"):
            errs = [float(np.linalg.norm(est.xhat - ref.xhat)),
                    float(np.linalg.norm(est.Sigma - ref.Sigma))]
        if not np.isfinite(errs).all():
            raise NonFiniteStateError(f"Euler error at dt={dt} not finite")
        rows.append(LimitCheckRow(dt, *errs))
    return rows
