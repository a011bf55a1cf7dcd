"""The library's failure contract, one table: a row of FAILURES is (case id, call, class,
message), and `call()` raises exactly that class, whose str() is exactly that message (a
FilterError's names its step and replicate), with every warning an error.  Rows are grouped
under "module::test name", the module that registers the test (`failure_tests`); rows that
share a case id are one case, and case id None makes a plain test.  A boundary fix is a row."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from cukf import (ContinuousDiscreteModel, DiscreteLinearModel, IndefiniteHessianError,
                  LengthMismatchError, ModelError, NonDiagonalizableError, NonFiniteStateError,
                  NonlinearModel, QuadraticCost, SingularInnovationError, StateEstimate,
                  StepTooLargeError, build_measurement_cost, build_time_cost, cd_run,
                  cd_time_update, euler_limit_check, from_cle, innovation_whiteness,
                  measurement_update, modelio, monte_carlo_compare, mse, newton_solve,
                  oracle_filter, run_filter, run_filter_batch, simulate_batch, simulate_cd,
                  simulate_cd_batch, simulate_discrete, time_update, with_fixed_noise)
from cukf.builtin import birth_death_cle, example_sec3, logistic
from cukf.simulate import _replicate_words
from cukf.wls import MAX_HORIZON, BlockTridiagFactor, initial_cost

from routes import MODELS, table_tests

INF, NAN = np.inf, np.nan
SEC3, BD = example_sec3(), birth_death_cle()
TWO_STATE = DiscreteLinearModel(A0=[0.0, 0.0], A1=0.5 * np.eye(2), C=[[1.0, 0.0]],
                                gsq=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], Sigma_v=np.eye(2),
                                Sigma_w=[[1.0]])  # n = 2, m = 1
DATA10 = simulate_discrete(SEC3, 1.0, 10, 56)
TRACE50 = run_filter(SEC3, np.zeros((50, 1)), StateEstimate([0.0], [[0.0]]))


def two_species():
    return modelio.load_model(MODELS / "two_species_cle.txt")


def prior(n=1, sigma=1.0, index=0):
    return StateEstimate(np.zeros(n), sigma * np.eye(n), index)


def put(a, where, value):
    """A copy of the array `a` with a[where] = value."""
    a = a.copy()
    a[where] = value
    return a


def linear(n=1, A1=1.0, g2=1.0, **fields):
    """x' = A1 x, y = x, g^2 = g2 and unit noise in n dimensions, but for `fields`."""
    return DiscreteLinearModel(**{"A0": np.zeros(n), "A1": A1 * np.eye(n), "C": np.eye(n),
                                  "gsq": np.column_stack([g2 * np.ones(n), np.zeros((n, n))]),
                                  "Sigma_v": np.eye(n), "Sigma_w": np.eye(n), **fields})


def nonlinear(f, G=lambda x: np.ones(1), n=1, Sigma_v=None, **kw):
    return NonlinearModel(f=f, G=G, C=np.eye(n), Sigma_v=np.eye(n) if Sigma_v is None
                          else Sigma_v, Sigma_w=np.eye(n), n=n, **kw)


def boundary_cost(pinned):
    """Two blocks of example_sec3's cost from x0 = 2, pinned or not."""
    cost = initial_cost(StateEstimate([2.0], [[0.0 if pinned else 1.0]]))
    cost = build_measurement_cost(cost, [1.0], SEC3.C, SEC3.Sigma_w)
    cost = build_time_cost(cost, SEC3, [2.0])
    return build_measurement_cost(cost, [1.5], SEC3.C, SEC3.Sigma_w)


def sec3_batch(R):
    """example_sec3's batch trace and batch truth of R replicates of 10 steps."""
    truth = simulate_batch(SEC3, 1.0, 10, range(R))
    return run_filter_batch(SEC3, truth.measurements, np.zeros((R, 1)), np.eye(1)), truth


# A batch's to_csv refuses before it opens a file: this directory need not exist.
UNWRITTEN = "no-such-directory/out.csv"
NO_CSV = "a batch {} of R = 3 replicates has no CSV form; write one replicate, .replicate(r)"
GOOD_START = np.full((2, 1), 2.0)
OFF_HEAD = GOOD_START + [[1.0], [0.0]]
BAD_STARTS = [(z, f"trajectory must be a (K, 1) array, not of shape {z.shape}") for z in (
    GOOD_START.ravel(), np.hstack((GOOD_START,) * 2), GOOD_START[None])] + [
    (z, "trajectory length does not match cost")
    for z in (GOOD_START[:-1], np.vstack((GOOD_START,) * 2), np.zeros((0, 1)))]


def sizes(m, n, ms, xhat, Sigma):
    """LengthMismatchError's message for these shapes and a model of m outputs, n states."""
    return (f"{ms[0]} series of measurements of {ms[-1]} components, priors of shape {xhat} "
            f"and covariances of shape {Sigma} for a model of m = {m}, n = {n}")


def size_rows(n):
    """Runs with one size that does not fit m = 1 and n; (n = 2) compare's filter of n = 1."""
    model, R = SEC3 if n == 1 else TWO_STATE, 3
    ms, xs, P = np.ones((R, 5, 1)), np.zeros((R, n)), np.eye(n)
    bad = [(np.ones((R, 5, 2)), xs, P), (ms, np.zeros((R, n + 1)), P), (ms, xs, np.eye(n + 1)),
           (ms, xs, np.ones((R + 1, n, n))), (ms, np.zeros((R - 1, n)), P),
           (ms[:1], xs, np.ones((R, n, n)))]
    rows = [(lambda b=b: run_filter_batch(model, *b), sizes(1, n, *map(np.shape, b)))
            for b in bad]
    rows += [(lambda b=b: run_filter(model, b[0][0], StateEstimate(b[1][0], b[2])),
              sizes(1, n, (1, 5, b[0].shape[-1]), (1, b[1].shape[-1]), b[2].shape))
             for b in bad[:3]]
    rows += [(lambda: monte_carlo_compare(model, {"cu": SEC3}, R, 30, 0),
              sizes(1, 1, (R, 30, 1), (R, 2), (2, 2)))] * (n == 2)
    return [(str(n), call, LengthMismatchError, text) for call, text in rows]


BETA = "beta must be finite and nonnegative, with a finite square"
SINGULAR_W = "Sigma_w is singular; the oracle weighs each measurement by its inverse"
TINY_V = ("Sigma_v has a diagonal entry so small that the oracle's largest time weight "
          "1/(EPS_G Sigma_v) overflows")
TINY_W = "Sigma_w is so small that its inverse, the oracle's measurement weight, overflows"
NON_FINITE = "estimate became non-finite (replicate 1, at step 3)"
SINGULAR_S = "innovation covariance not positive definite (replicate 0, at step 1)"
TWO_STATE_PRIOR = ("priors of shape (2,) and covariances of shape (2, 2) for a model of m = 1, "
                   "n = 1")
OFF_DIAGONAL = [[1.0, 0.5], [0.5, 1.0]]

FAILURES = {
    "test_models::test_from_cle_multispecies_rejected": [(
        None, lambda: from_cle(nu=[[1], [-1]], propensities=[[1.0, 0.0, 0.0]]),
        NonDiagonalizableError, "reaction(s) [0] change more or fewer than one species; "
        "diagonal conversion requires single-species reactions")],
    "test_models::test_from_cle_rejects_a_non_integer_stoichiometry": [
        (f"nu{i}", lambda nu=nu: from_cle(nu, [[10.0, 0.0], [0.0, 0.1]]), ModelError,
         "stoichiometry entries must be integers")
        for i, nu in enumerate([[[1, -0.5]], [[1, NAN]], [[1, INF]]])],
    # One row for two reactions, a column too many, one row.
    "test_models::test_from_cle_rejects_propensities_of_the_wrong_shape": [
        (f"propensities{i}-{case}", lambda b=b: from_cle([[1, -1]], b), ModelError,
         f"propensities must have shape (2, 2), got {np.shape(np.atleast_2d(b))}")
        for i, (b, case) in enumerate([([[10.0, 0.0]], r"\(1, 2\)"),
                                       ([[10.0, 0.0, 0.0], [0.0, 0.1, 0.0]], r"\(2, 3\)"),
                                       ([10.0, 0.1], r"\(1, 2\)")])],
    "test_models::test_sample_times_must_increase": [(
        None, lambda: ContinuousDiscreteModel(inner=SEC3, sample_times=[0.0, 0.0]),
        ModelError, "sample_times must be strictly increasing")],
    "test_models::test_sample_times_must_be_finite": [(
        None, lambda: ContinuousDiscreteModel(inner=SEC3, sample_times=[0.0, NAN, 1.0]),
        ModelError, "sample_times has non-finite entries")],
    "test_models::test_nonlinear_gain_rejects_offdiagonal": [(
        None, lambda: nonlinear(lambda x: x, lambda x: np.ones((2, 2)), 2).linearize(
            np.zeros((2, 1))), ModelError, "G(x) evaluated to a non-diagonal matrix")],
    "test_models::test_modelio_rejects_unknown_key": [(
        None, lambda: modelio.loads(modelio.dumps(SEC3) + "bogus = 1\n"), ModelError,
        "unknown keys: ['bogus']")],
    "test_models::test_modelio_rejects_dimension_that_is_not_a_positive_integer": [
        (line, lambda line=line: modelio.loads(modelio.dumps(SEC3).replace(
            f"{line[0]} = 1", line)),
         ModelError, f"{line[0]} must be a positive integer, got {float(line[4:])}")
        for line in ["n = 1.7", "n = 0", "n = -1", "n = nan", "m = 1.5", "m = inf"]],
    "test_models::test_modelio_refuses_to_drop_off_diagonal_sigma_v": [(
        None, lambda: modelio.dumps(linear(2, g2=0.0, Sigma_v=OFF_DIAGONAL)), ModelError,
        "Sigma_v must be diagonal")],
    # Every consumer but the discrete time update reads diag(Sigma_v) only.
    "test_models::test_non_diagonal_sigma_v_is_refused_at_construction": [
        (None, lambda: linear(2, 0.0, Sigma_v=[[1.0, 0.99], [0.99, 1.0]]), ModelError,
         "Sigma_v must be diagonal"),
        (None, lambda: nonlinear(lambda x: x, lambda x: np.ones(2), 2,
                                 [[1.0, 0.99], [0.99, 1.0]]),
         ModelError, "Sigma_v must be diagonal")],
    "test_models::test_model_rejects_non_finite_entries": [
        (f"{key}-value{i}", lambda c={key: value}: replace(SEC3, **c), ModelError,
         f"{key} has non-finite entries") for i, (key, value) in enumerate([
             ("A0", [NAN]), ("A1", [[INF]]), ("C", [[NAN]]), ("gsq", [[100.0, NAN]]),
             ("Sigma_v", [[NAN]]), ("Sigma_w", [[INF]])])],
    "test_models::test_model_rejects_negative_sigma_v_diagonal": [(
        None, lambda: replace(SEC3, Sigma_v=[[-1.0]]), ModelError,
        "Sigma_v has negative diagonal entries")],
    "test_models::test_model_rejects_nonsymmetric_sigma_w": [(
        None, lambda: linear(2, g2=0.0, Sigma_w=[[1.0, 0.5], [0.0, 1.0]]), ModelError,
        "Sigma_w is not symmetric")],
    # Symmetric with a positive diagonal, eigenvalues -1 and 3; then -1.
    "test_models::test_model_rejects_sigma_w_with_negative_eigenvalue": [
        (None, lambda: linear(2, g2=0.0, Sigma_w=[[1.0, 2.0], [2.0, 1.0]]), ModelError,
         "Sigma_w has a negative eigenvalue"),
        (None, lambda: replace(SEC3, Sigma_w=[[-1.0]]), ModelError,
         "Sigma_w has a negative eigenvalue")],
    "test_models::test_fixed_noise_rejects_non_finite_beta": [
        (None, lambda beta=beta: with_fixed_noise(SEC3, beta), ModelError, BETA)
        for beta in (NAN, INF, -1.0)],
    "test_models::test_fixed_noise_rejects_a_beta_whose_square_overflows": [
        (None, lambda beta=beta: with_fixed_noise(SEC3, beta), ModelError, BETA)
        for beta in (1e308, np.float64(1e155))],
    # Starts of the wrong shape or length, and (pinned) one off the head.
    "test_wls::test_trajectory_boundary_is_checked": [
        (str(pinned), lambda c=check, z=z, p=pinned: c(boundary_cost(p), z), ValueError, text)
        for pinned in (False, True) for check in (newton_solve, QuadraticCost.gradient)
        for z, text in BAD_STARTS + [
            (OFF_HEAD, "pinned initial block does not match trajectory")] * pinned],
    "test_wls::test_time_cost_expands_at_the_pinned_head_only": [(
        None, lambda: build_time_cost(initial_cost(StateEstimate([2.0], [[0.0]])), SEC3,
                                      [3.0]),
        ValueError, "expansion point must equal the pinned head")],
    "test_wls::test_partially_singular_prior_rejected": [(
        None, lambda: initial_cost(StateEstimate([0.0, 0.0], np.diag([1.0, 0.0]))),
        ModelError,
        "initial prior covariance must be symmetric positive definite or exactly zero")],
    # A non-finite measurement is not a Sigma_w too small for it.
    "test_wls::test_non_finite_blocks_rejected": [
        (str(bad), *row) for bad in (INF, NAN) for row in [
        (lambda bad=bad: initial_cost(StateEstimate([0.0], [[bad]])), ModelError,
         "initial prior covariance must not contain infs or NaNs, nor overflow when "
         "symmetrized"),
        (lambda bad=bad: BlockTridiagFactor([np.eye(2), np.diag([1.0, bad])], [np.eye(2)]),
         ValueError, "blocks must not contain infs or NaNs"),
        (lambda bad=bad: oracle_filter(SEC3, put(np.ones((5, 1)), 2, bad), prior()),
         ValueError, "measurements must not contain infs or NaNs")]],
    "test_wls::test_horizon_cap_enforced": [(
        None, lambda: oracle_filter(SEC3, np.zeros((MAX_HORIZON + 1, 1)), prior()),
        ValueError, "horizon 501 exceeds cap 500; the cap bounds the O(N^2 n) memory of "
        "the batched per-step Newton checks and of the per-step trajectories returned")],
    "test_wls::test_indefinite_hessian_detected": [(
        None, lambda: newton_solve(replace(initial_cost(prior()), D=[np.array([[-1.0]])]),
                                   np.zeros((1, 1))),
        IndefiniteHessianError, "Hessian Schur complement 0 not positive definite")],
    "test_wls::test_oracle_refuses_a_noise_covariance_it_cannot_invert": [
        (f"{key}-value{i}", lambda c={key: np.array([[value]])}: oracle_filter(
            replace(SEC3, **c), simulate_discrete(SEC3, 1.0, 5, 39).measurements,
            StateEstimate([0.3], [[1.0]], 1)), ModelError, text)
        for i, (key, value, text) in enumerate([
            ("Sigma_v", 0.0, "Sigma_v has a zero diagonal entry; the oracle weighs each "
                             "time step by its inverse"), ("Sigma_w", 0.0, SINGULAR_W),
            ("Sigma_v", 1e-320, TINY_V), ("Sigma_v", 1e-300, TINY_V),
            ("Sigma_w", 1e-310, TINY_W), ("Sigma_w", 1e-320, TINY_W)])],
    "test_wls::test_oracle_refuses_a_singular_matrix_measurement_covariance": [(
        None, lambda: oracle_filter(linear(2, 0.9, Sigma_w=np.ones((2, 2))), np.ones((3, 2)),
                                    prior(2, index=1)), ModelError, SINGULAR_W)],
    # x_1 = x0 is row 1 of the samples; the first state made from it, row 2.
    "test_simulate::test_simulate_batch_names_the_failing_replicate": [(
        None, lambda: simulate_batch(SEC3, put(np.ones((4, 1)), 2, INF), 5, [0, 1, 2, 3]),
        NonFiniteStateError, "simulated state became non-finite (replicate 2, at step 2)")],
    "test_simulate::test_nonfinite_simulations_emit_no_runtime_warning": [
        (str(bad), call, NonFiniteStateError, f"simulated {text} became non-finite ({at})")
        for bad in (INF, NAN) for call, text, at in [
            (lambda bad=bad: simulate_batch(SEC3, put(np.ones((4, 1)), 1, bad), 5,
                                            [0, 1, 2, 3]), "state", "replicate 1, at step 2"),
            (lambda bad=bad: simulate_discrete(SEC3, [bad], 5, 0), "state", "at step 2"),
            (lambda bad=bad: simulate_cd(birth_death_cle(0.5, 6), [bad], 0, em_step=0.01),
             "path", "at step 2"),
            (lambda bad=bad: simulate_cd_batch(birth_death_cle(0.5, 6), put(
                np.ones((4, 1)), 1, bad), [0, 1, 2, 3], em_step=0.01),
             "path", "replicate 1, at step 2")]],
    "test_simulate::test_mse_length_mismatch": [(
        None, lambda: mse(run_filter(SEC3, DATA10.measurements[:5], prior(sigma=0.0)),
                          DATA10), LengthMismatchError, "trace has 5 steps, truth has 10")],
    "test_simulate::test_mse_refuses_a_trace_and_truth_of_other_shapes": [
        (case, call, LengthMismatchError,
         f"trace estimates of shape {got}, truth states of shape {want}")
        for case, call, got, want in [
            ("batch-trace", lambda: mse(sec3_batch(3)[0], DATA10), (3, 10, 1), (10, 1)),
            ("batch-truth", lambda: mse(run_filter(SEC3, DATA10.measurements, prior()),
                                        sec3_batch(3)[1]), (10, 1), (3, 10, 1)),
            ("two-state-trace", lambda: mse(run_filter(TWO_STATE, DATA10.measurements,
                                                       prior(2)), DATA10), (10, 2), (10, 1)),
            ("other-R", lambda: mse(sec3_batch(3)[0], sec3_batch(2)[1]), (3, 10, 1),
             (2, 10, 1))]],
    "test_simulate::test_a_batch_trajectory_has_no_csv_form": [(
        None, lambda: sec3_batch(3)[1].to_csv(UNWRITTEN), ValueError,
        NO_CSV.format("trajectory"))],
    # replicate(r) takes an int: a slice is a TypeError, not a batch of one.
    "test_simulate::test_a_trajectory_replicate_is_an_int": [
        (f"slice-0-{stop}", lambda stop=stop: simulate_batch(
            SEC3, 1.0, 5, [0, 1, 2]).replicate(slice(0, stop)), TypeError,
         "'slice' object cannot be interpreted as an integer") for stop in (1, 2)],
    "test_simulate::test_replicate_words_refuse_what_a_seed_sequence_cannot_spawn": [
        (None, lambda: _replicate_words(-1, 3), ValueError, "expected non-negative integer"),
        (None, lambda: monte_carlo_compare(SEC3, {}, replicates=2 ** 32, N=50, master_seed=0),
         ValueError, "replicates must be below 2**32, got 4294967296: a replicate index is "
         "one 32-bit spawn-key word")],
    # Replicates 2 and 4 start at 1e200: finite estimates, squared errors that overflow.
    "test_simulate::test_a_diverged_compare_names_its_filter_and_first_replicate": [(
        None, lambda: monte_carlo_compare(SEC3, {"cu": SEC3}, 5, 50, 0,
                                          x0=[[1.0], [1.0], [1e200], [1.0], [1e200]]),
        NonFiniteStateError, "mean squared error of filter 'cu' became non-finite "
        "(replicate 2)")],
    "test_simulate::test_whitening_refuses_a_scalar_s_that_is_not_positive": [
        (str(bad), lambda bad=bad: innovation_whiteness(replace(
            TRACE50, S=put(TRACE50.S, 17, bad))),
         np.linalg.LinAlgError, "Matrix is not positive definite")
        for bad in (0.0, -0.0, -1.0)],
    "test_continuous::test_step_too_large": [(
        None, lambda: cd_time_update(prior(index=0.0), BD.inner, 0.0, 0.5, 1.0),
        StepTooLargeError, "step 1.0 exceeds interval 0.5")],
    "test_continuous::test_bad_interval_rejected": [
        (f"{t0}-{t1}", lambda t=(t0, t1): cd_time_update(prior(index=0.0), BD.inner, *t,
                                                         0.001),
         ValueError, "need finite t0 <= t1")
        for t0, t1 in [(0.0, NAN), (0.0, INF), (NAN, 1.0), (1.0, 0.5)]],
    # An interval whose length rounds past the largest float, or is inf, is propagated
    # over its own length (`_canonical`), which puts too many grid steps on it.
    "test_continuous::test_an_interval_too_long_to_round_is_its_own_length": [
        (f"{t0}-{t1}", lambda t=(t0, t1): cd_time_update(prior(index=0.0), SEC3, *t, 1e300),
         ValueError, f"step 1e+300 puts {steps} grid steps on [{t0!r}, {t1!r}]; at most "
         "100000 are allowed")
        for t0, t1, steps in [(0.0, 1.7976931348623157e308, "1.8e+08"),
                              (-8.98846567431158e307, 8.98846567431158e307, "inf")]],
    "test_continuous::test_non_diagonal_sigma_v_rejected": [(
        None, lambda: cd_time_update(prior(2, index=0.0), linear(
            2, -1.0, Sigma_v=OFF_DIAGONAL), 0.0, 0.1, 0.001),
        ModelError, "Sigma_v must be diagonal")],
    # n = 1 fails in the propagator's float adaptor `interval`, n = 2 in its `predict`
    # inside the numpy loop; both name the prior's step.
    "test_continuous::test_diverging_propagation_names_its_interval_and_step": [
        (str(n), lambda n=n: cd_run(ContinuousDiscreteModel(
            inner=linear(n, 800.0, A0=np.ones(n)), sample_times=[0.0, 0.5, 1.0]),
            np.zeros((3, n)), StateEstimate(np.ones(n), np.eye(n), 0.0)),
         NonFiniteStateError, "integration diverged on [0.0, 0.5] (at step 2)")
        for n in (1, 2)],
    # A positive definite Sigma near the largest float: averaging the two triangles of the
    # propagated Sigma overflows, over a zero interval too.
    "test_continuous::test_cd_time_update_refuses_a_prior_that_overflows": [
        (f"{t0}-{t1}", lambda t=(t0, t1): cd_time_update(
            StateEstimate([100.0, 100.0], [[1e308, 9e307], [9e307, 1e308]], t0), two_species(),
            *t, 0.01), NonFiniteStateError, f"estimate became non-finite (at step {t1})")
        for t0, t1 in [(0.5, 0.5), (0.5, 0.6)]],
    # n + r components, n + 1 - r states: the scalar rule would run on the first component
    # alone, the numpy loop into a numpy error or a wrong trace.
    "test_continuous::test_cd_run_refuses_a_prior_or_measurements_of_another_size": [
        (str(n), lambda n=n, K=K, r=r, model=model: cd_run(model(), np.zeros((K, n + r)), (
            StateEstimate(np.zeros(n + 1 - r), np.eye(n), 0.0))),
         LengthMismatchError, sizes(n, n, (1, K, n + r), (1, n + 1 - r), (1, n, n)))
        for n, model, K in [(1, birth_death_cle, 51), (2, two_species, 101)] for r in (0, 1)],
    # An overflowing prior is refused, as in measurement_update and cd_time_update.
    "test_discrete::test_a_time_update_that_overflows_is_non_finite": [(
        None, lambda: time_update(StateEstimate([1e10], [[1e10]]), linear(A1=1e300)),
        NonFiniteStateError, "estimate became non-finite (at step 1)")],
    "test_discrete::test_a_batch_trace_has_no_csv_form": [(
        None, lambda: sec3_batch(3)[0].to_csv(UNWRITTEN), ValueError, NO_CSV.format("trace"))],
    "test_discrete::test_measurement_update_singular_innovation": [(
        None, lambda: measurement_update(prior(sigma=0.0), [1.0], [[1.0]], [[0.0]]),
        SingularInnovationError, "innovation covariance not positive definite (at step 0)")],
    # At m = 2 LAPACK's factor refuses S = diag(1, 0); the error names the prior's index.
    "test_discrete::test_measurement_update_names_its_prior_index_when_lapack_refuses_S": [(
        None, lambda: measurement_update(prior(2, sigma=0.0, index=7), [1.0, 1.0], np.eye(2),
                                         np.diag([1.0, 0.0])),
        SingularInnovationError, "innovation covariance not positive definite (at step 7)")],
    "test_discrete::test_run_filter_error_carries_step_index": [(
        None, lambda: run_filter(linear(g2=0.0, Sigma_w=[[0.0]]), [[1.0], [2.0]],
                                 prior(sigma=0.0, index=1)),
        SingularInnovationError, "innovation covariance not positive definite (at step 1)")],
    # S = C Sigma C' + 0 is singular for replicate 2 only; then replicates 1 and 3 get NaN.
    "test_discrete::test_batch_errors_name_the_first_failing_replicate": [
        (None, lambda: run_filter_batch(linear(Sigma_w=[[0.0]]), np.ones((4, 5, 1)),
                                        np.zeros((4, 1)), put(np.ones((4, 1, 1)), 2, 0.0)),
         SingularInnovationError,
         "innovation covariance not positive definite (replicate 2, at step 1)"),
        (None, lambda: run_filter_batch(
            linear(Sigma_w=[[0.0]]), put(put(np.ones((4, 5, 1)), (1, 3), NAN), (3, 2), INF),
            np.zeros((4, 1)), np.eye(1)),
         NonFiniteStateError, "estimate became non-finite (replicate 3, at step 3)")],
    # n = 1 and n = 2 take the generated kernel, which would otherwise filter on the first
    # column alone and leave the rest of its buffers unwritten.
    "test_discrete::test_run_filter_refuses_a_prior_or_measurements_of_another_size":
        size_rows(1) + size_rows(2),
    # Replicate 1 fails at step 3 on a non-finite measurement, or replicate 0 at step 1
    # on a singular S, at m = 1 and m = 2.
    "test_discrete::test_failing_runs_emit_no_runtime_warning": [
        (f"{bad}-{Sw}-{P0}-{error.__name__}-{m}", lambda a=(
            linear(m, Sigma_w=Sw * np.eye(m)), np.ones((3, 6, m)) if bad is None
            else put(np.ones((3, 6, m)), (1, 2), bad), np.zeros((3, m)), P0 * np.eye(m)):
         run_filter_batch(*a), error, text)
        for bad, Sw, P0, error, text in [
            (INF, 1.0, 0.0, NonFiniteStateError, NON_FINITE),
            (NAN, 1.0, 0.0, NonFiniteStateError, NON_FINITE),
            (None, 0.0, 0.0, SingularInnovationError, SINGULAR_S),
            (None, 0.0, -1.0, SingularInnovationError, SINGULAR_S)] for m in (1, 2)],
    # Each S = Sigma_0 + I has S_00 > 0 and a later Cholesky pivot < 0, which the kernel
    # takes as NaN; its failed run is run again by the numpy loop, whose LAPACK factor
    # names the failure.  In the batch, which the numpy loop runs, replicate 2 also meets a
    # NaN measurement at step 1: the singular S of replicate 1 is the failure.
    "test_discrete::test_an_indefinite_S_whose_first_pivot_is_positive_is_singular": [
        ("m2", lambda: run_filter(linear(2), np.ones((3, 2)),
                                  StateEstimate(np.zeros(2), [[1.0, 3.0], [3.0, 1.0]], 1)),
         SingularInnovationError, "innovation covariance not positive definite (at step 1)"),
        ("m3", lambda: run_filter(linear(3), np.ones((3, 3)), StateEstimate(
            np.zeros(3), [[0.0, 0.0, 0.8], [0.0, 0.0, 0.8], [0.8, 0.8, 0.0]], 1)),
         SingularInnovationError, "innovation covariance not positive definite (at step 1)"),
        ("batch", lambda: run_filter_batch(
            linear(2), put(np.ones((3, 3, 2)), (2, 0, 1), NAN), np.zeros((3, 2)),
            np.array([np.eye(2), [[1.0, 3.0], [3.0, 1.0]], np.eye(2)])),
         SingularInnovationError,
         "innovation covariance not positive definite (replicate 1, at step 1)")],
    # S_00 is finite and S_01 overflows, so the factor's second pivot is inf - inf.
    "test_discrete::test_an_S_that_overflows_off_its_diagonal_is_non_finite": [(
        None, lambda: run_filter(linear(2, C=[[1.0, 0.0], [1e160, 1e160]]), np.ones((3, 2)),
                                 StateEstimate(np.zeros(2), np.diag([1e200, 1.0]), 1)),
        NonFiniteStateError, "estimate became non-finite (at step 1)")],
    "test_nonlinear::test_nonfinite_drift_raises": [(
        None, lambda: time_update(StateEstimate([1.0], [[1.0]]),
                                  nonlinear(lambda x: x * np.inf, lambda x: np.eye(1))),
        NonFiniteStateError, "drift non-finite")],
    # The NaN measurement makes the step-2 posterior NaN; the time update that follows
    # would fail on it as "drift non-finite".
    "test_nonlinear::test_nonfinite_posterior_fails_at_its_own_step": [(
        None, lambda: run_filter(nonlinear(lambda x: 0.9 * x + 1.0),
                                 [[1.0], [NAN], [1.0], [1.0]], prior(index=1)),
        NonFiniteStateError, "estimate became non-finite (at step 2)")],
    # The posterior of step 3 is 20, where the finite-difference Jacobian steps into
    # f = inf: making the prior of step 4 fails.
    "test_nonlinear::test_time_update_failure_names_the_step_of_its_prior": [(
        None, lambda: run_filter(nonlinear(lambda x: np.where(x > 20, np.inf, x + 10.0)),
                                 np.arange(0.0, 100.0, 10.0)[:, None], prior(index=1)),
        NonFiniteStateError, "Jacobian non-finite (at step 4)")],
    # Below 0 the logistic drift runs off to -inf; f(x) overflows making the state of row
    # 45 of the samples (x_1 = x0 is row 1), whichever the noise (g^2 is floored there).
    "test_nonlinear::test_simulated_nonfinite_drift_names_its_step_and_replicate": [
        (None, lambda: simulate_discrete(logistic(), [-5.0], 50, 0), NonFiniteStateError,
         "drift non-finite (at step 45)"),
        (None, lambda: simulate_batch(logistic(), put(np.full((3, 1), 50.0), 1, -5.0), 50,
                                      [0, 1, 2]),
         NonFiniteStateError, "drift non-finite (replicate 1, at step 45)")],
    # Every public entry point checks the sizes of its inputs before it computes.
    "test_failures::test_an_input_of_another_size_is_refused_before_any_work": [
        ("measurement_update-y", lambda: measurement_update(prior(), [1.0, 5.0], [[1.0]],
                                                            [[1.0]]),
         LengthMismatchError, "1 series of measurements of 2 components, priors of shape "
         "(1, 1), covariances of shape (1, 1) and measurement noise covariances of shape "
         "(1, 1) for a model of m = 1, n = 1"),
        ("measurement_update-Sigma_w", lambda: measurement_update(prior(), [1.0], [[1.0]],
                                                                  np.eye(2)),
         LengthMismatchError, "1 series of measurements of 1 components, priors of shape "
         "(1, 1), covariances of shape (1, 1) and measurement noise covariances of shape "
         "(2, 2) for a model of m = 1, n = 1"),
        ("oracle_filter-m", lambda: oracle_filter(SEC3, np.ones((3, 2)), prior()),
         LengthMismatchError, sizes(1, 1, (1, 3, 2), (1, 1), (1, 1))),
        ("oracle_filter-n", lambda: oracle_filter(SEC3, np.ones((3, 1)), prior(2)),
         LengthMismatchError, sizes(1, 1, (1, 3, 1), (1, 2), (2, 2))),
        ("time_update", lambda: time_update(prior(2), SEC3), LengthMismatchError,
         TWO_STATE_PRIOR),
        ("cd_time_update", lambda: cd_time_update(prior(2), BD, 0.0, 0.1, 0.001),
         LengthMismatchError, TWO_STATE_PRIOR),
        ("euler_limit_check", lambda: euler_limit_check(BD, prior(2), 0.0, 0.8, [0.08]),
         LengthMismatchError, TWO_STATE_PRIOR),
        ("simulate_discrete", lambda: simulate_discrete(SEC3, [1.0, 2.0], 5, 0),
         LengthMismatchError,
         "initial states of shape (2,) for R = 1 replicates of a model of m = 1, n = 1"),
        ("simulate_batch", lambda: simulate_batch(SEC3, np.ones((2, 1)), 5, [0, 1, 2]),
         LengthMismatchError,
         "initial states of shape (2, 1) for R = 3 replicates of a model of m = 1, n = 1"),
        ("simulate_cd_batch", lambda: simulate_cd_batch(BD, [1.0, 2.0], [0, 1], 0.01),
         LengthMismatchError,
         "initial states of shape (2,) for R = 2 replicates of a model of m = 1, n = 1"),
        ("monte_carlo_compare", lambda: monte_carlo_compare(SEC3, {"cu": SEC3}, 5, 30, 0,
                                                            x0=[1.0, 2.0]),
         LengthMismatchError,
         "initial states of shape (2,) for R = 5 replicates of a model of m = 1, n = 1")],
    # A nonlinear model's f, Df or G of another size than its n.
    "test_failures::test_a_model_output_of_another_size_is_refused": [
        ("drift", lambda: simulate_discrete(nonlinear(lambda x: np.array([1.0, 2.0])),
                                            [1.0], 5, 0),
         ModelError, "drift must have shape (1,), got (2,)"),
        ("Jacobian", lambda: run_filter(nonlinear(lambda x: x, Df=lambda x: np.eye(2)),
                                        np.ones((3, 1)), prior()),
         ModelError, "Jacobian must have shape (1, 1), got (2, 2)"),
        ("gain", lambda: run_filter(nonlinear(lambda x: x, lambda x: np.ones(2)),
                                    np.ones((3, 1)), prior()),
         ModelError, "gain must have shape (1,), got (2,)")],
    # The CLI checks these inputs by flag before it calls the library, so no CLI row reaches
    # the library's own refusal.
    "test_failures::test_the_library_refuses_what_the_cli_checks_first": [
        ("t0-t1", lambda: euler_limit_check(BD, prior(), 1.0, 0.5, [0.1]), ValueError,
         "need finite t0 < t1"),
        ("no-steps", lambda: euler_limit_check(BD, prior(), 0.0, 0.8, []), ValueError,
         "need at least one step"),
        ("dt-0", lambda: euler_limit_check(BD, prior(), 0.0, 0.8, [0.0]), ValueError,
         "dt=0.0 must be finite and positive"),
        ("dt-inf-steps", lambda: euler_limit_check(BD, prior(), 0.0, 1e308, [1e-300]),
         ValueError, "dt=1e-300 puts inf steps on [0.0, 1e+308]; at most 100000 are allowed"),
        ("dt-not-dividing", lambda: euler_limit_check(BD, prior(), 0.0, 0.8, [0.3]),
         ValueError, "dt=0.3 does not divide the interval 0.8"),
        ("cd_run-measurements", lambda: cd_run(BD, np.zeros((3, 1)), prior(index=0.0)),
         LengthMismatchError, "3 measurements for 51 sample times"),
        ("cd_time_update-step", lambda: cd_time_update(prior(index=0.0), BD, 0.0, 0.1, 0.0),
         ValueError, "step must be finite and positive"),
        ("simulate_batch-N", lambda: simulate_batch(SEC3, 1.0, 0, [0]), ValueError,
         "N must be >= 1"),
        ("simulate_cd-em_step", lambda: simulate_cd(BD, [1.0], 0, em_step=0.0), ValueError,
         "em_step must be finite and positive"),
        ("distribution", lambda: simulate_batch(SEC3, 1.0, 5, [0], distribution="cauchy"),
         ValueError, "unknown noise distribution 'cauchy'"),
        ("whiteness-steps", lambda: innovation_whiteness(
            run_filter(SEC3, np.ones((10, 1)), prior())),
         ValueError, "need more than max_lag=20 steps, got 10"),
        ("replicates", lambda: monte_carlo_compare(SEC3, {"cu": SEC3}, 0, 30, 0), ValueError,
         "replicates must be >= 1"),
        ("run_filter_batch-N", lambda: run_filter_batch(SEC3, np.ones((1, 0, 1)),
                                                        np.zeros((1, 1)), np.eye(1)),
         ValueError, "need at least one measurement"),
        ("A0", lambda: replace(SEC3, A0=[0.0, 0.0]), ModelError,
         "A0 must have shape (1,), got (2,)"),
        ("sample_times", lambda: ContinuousDiscreteModel(inner=SEC3, sample_times=[]),
         ModelError, "sample_times must be nonempty"),
        ("time-cost", lambda: build_time_cost(QuadraticCost(n=1), SEC3, [0.0]), ValueError,
         "cost has no blocks to extend from")],
    "test_failures::test_a_degenerate_input_is_refused_by_name": [
        ("no-measurements", lambda: oracle_filter(SEC3, np.zeros((0, 1)), prior()),
         ValueError, "need at least one measurement"),
        ("nan-prior-mean", lambda: oracle_filter(SEC3, np.ones((3, 1)),
                                                 StateEstimate([NAN], [[0.0]])),
         ValueError, "initial prior mean must not contain infs or NaNs"),
        ("inf-prior-mean", lambda: oracle_filter(SEC3, np.ones((3, 1)),
                                                 StateEstimate([INF], [[1.0]])),
         ValueError, "initial prior mean must not contain infs or NaNs"),
        ("no-seeds", lambda: simulate_batch(SEC3, 1.0, 5, []), ValueError,
         "seeds must be nonempty"),
        *[(f"max_lag={lag}", lambda lag=lag: innovation_whiteness(
            run_filter(SEC3, np.ones((30, 1)), prior()), max_lag=lag),
           ValueError, f"max_lag must be at least 1, got {lag}") for lag in (0, -1)]],
}


def check_failures(rows):
    """Each (call, class, message) of `rows` raises exactly, every warning an error."""
    for call, cls, message in rows:
        with warnings.catch_warnings(), pytest.raises(Exception) as exc:
            warnings.simplefilter("error")
            call()
        assert (type(exc.value), str(exc.value)) == (cls, message)


def failure_tests(module):
    """The tests of FAILURES' groups for `module` (`routes.table_tests`)."""
    return table_tests(FAILURES, module, check_failures)


globals().update(failure_tests("test_failures"))


def test_the_neighbours_of_refused_inputs_are_accepted():
    for pinned in (False, True):  # starts refused by their shape, length or head alone
        newton_solve(boundary_cost(pinned), GOOD_START)
    newton_solve(boundary_cost(False), OFF_HEAD)
    head = initial_cost(StateEstimate([2.0], [[0.0]]))
    assert build_time_cost(head, SEC3, [2.0]).n_blocks == 2
    assert with_fixed_noise(SEC3, 1e154).Sigma_v[0, 0] < np.inf
    data = simulate_discrete(SEC3, 1e200, 50, 0)  # diverged: compare refuses its inf mse
    assert mse(run_filter(SEC3, data.measurements, prior(sigma=0.0)), data) == np.inf
    # Sizes callers pass: a scalar y for m = 1; x0 a scalar (for any n), (n,) or (R, n); a
    # shared (n, n) or a stacked (R, n, n) Sigma.
    assert np.allclose(measurement_update(prior(), 1.5, [[1.0]], [[1.0]]).xhat, 0.75)
    for x0 in (1.0, [1.0, 1.0], np.ones((3, 2))):
        assert simulate_batch(TWO_STATE, x0, 5, [0, 1, 2]).states.shape == (3, 5, 2)
    assert simulate_discrete(SEC3, 1.0, 5, 0).states.shape == (5, 1)
    monte_carlo_compare(TWO_STATE, {"cu": TWO_STATE}, 2, 30, 0, x0=1.0)
    for model in (SEC3, TWO_STATE):
        xhat, P = np.zeros((3, model.n)), np.eye(model.n)
        for Sigma in (P, np.stack([P] * 3)):
            assert len(run_filter_batch(model, np.ones((3, 5, 1)), xhat, Sigma)) == 5
