"""Per-call timings of single public layer functions, and the oracle horizon
sweep.  Each row is the median over batches of calls after warm-up, at the
model sizes the workloads use.  The nonlinear row is per filter step of a
200-step `nl_run`."""

import statistics
import sys
import time
import traceback

import numpy as np

import cukf
from cukf.modelio import load_model

from workloads import TWO_SPECIES


def per_call_us(fn, budget_s, batches=9):
    """Median per-call time in microseconds over `batches` timed batches."""
    fn()
    t0 = time.perf_counter()
    fn()
    one = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(budget_s / batches / one))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


NL_STEPS = 200


def _rows():
    """(metric name, zero-argument call, share of the time budget, steps
    per call)."""
    sec3 = cukf.get_builtin("example_sec3")
    prior = cukf.StateEstimate(xhat=[1.0], Sigma=[[2.0]], index=1)
    cle = load_model(TWO_SPECIES)
    post2 = cukf.StateEstimate(xhat=[200.0, 2000.0],
                               Sigma=[[4.0, 0.5], [0.5, 9.0]], index=0.0)
    cfg = cukf.continuous.default_config(cle)
    gap = float(cle.sample_times[1] - cle.sample_times[0])
    data = cukf.simulate_discrete(sec3, x0=1.0, N=100, seed=1)
    trace = cukf.run_filter(sec3, data.measurements, prior)
    # The logistic filter runs on measurements around the carrying capacity;
    # simulating the model can diverge (see README.md, Findings).
    logistic = cukf.get_builtin("logistic")
    ys = 100.0 + np.random.default_rng(0).standard_normal((NL_STEPS, 1))
    nl_init = cukf.StateEstimate(xhat=[100.0], Sigma=[[1.0]], index=1)
    return [
        ("discrete.measurement_update_us",
         lambda: cukf.measurement_update(prior, 1.5, sec3.C, sec3.Sigma_w), 1, 1),
        ("discrete.time_update_us", lambda: cukf.time_update(prior, sec3), 1, 1),
        ("models.eval_G_us", lambda: cukf.eval_G(cle.inner.gsq, post2.xhat), 1, 1),
        ("continuous.cd_time_update_us",
         lambda: cukf.cd_time_update(post2, cle, 0.0, gap, cfg), 3, 1),
        ("simulate.whiteness_us", lambda: cukf.innovation_whiteness(trace), 1, 1),
        ("nonlinear.us_per_step", lambda: cukf.nl_run(logistic, ys, nl_init), 2,
         NL_STEPS),
    ]


def micro_rows(budget_s):
    """Metric name -> microseconds per call.  A row whose function is gone
    or fails reads 0 and its traceback goes to stderr."""
    try:
        rows = _rows()
    except Exception:  # a refactor renamed the functions: report, keep going
        traceback.print_exc()
        return {}
    weight = sum(row[2] for row in rows)
    out = {}
    for name, fn, w, steps in rows:
        try:
            out[name] = per_call_us(fn, budget_s * w / weight) / steps
        except Exception:
            traceback.print_exc()
            print(f"bench: micro row {name} failed; it reads 0", file=sys.stderr)
    return out


def horizon_sweep(horizons, seed):
    """Seconds for one oracle_filter run per horizon on example_sec3, with
    the inputs oracle-check would make; plus the log-log slope."""
    model = cukf.get_builtin("example_sec3")
    init_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(0xF117,)))
    init = cukf.StateEstimate(xhat=init_rng.standard_normal(1),
                              Sigma=np.zeros((1, 1)), index=1)
    times = []
    for h in horizons:
        data = cukf.simulate_discrete(model, x0=1.0, N=h, seed=seed)
        t0 = time.perf_counter()
        cukf.oracle_filter(model, data.measurements, init)
        times.append(time.perf_counter() - t0)
    slope = float(np.polyfit(np.log(horizons), np.log(times), 1)[0])
    return times, slope
