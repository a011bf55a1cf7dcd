"""cukf benchmark: drives the cukf CLI in-process as one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op starts when the previous one ends.  Op i runs with the (i mod 2)-th
of two seeds derived from --seed, so every op from the third on is a
same-seed rerun whose output files must match the first run byte for byte.
Times are in reference seconds (see harness.SpeedClock).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.  Three
fresh interpreters (probe.py) each give one set-up time and one cold run.
Then this process runs a warm-up op and times warm ops for S seconds with
tracing off.
--trace 1 reports the per-layer metrics: ops alternate between traced and
untraced for S seconds (the difference is the tracing overhead), followed
by per-call timings of single layer functions and, on oracle-check, the
oracle horizon sweep.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Details, with the machine's provenance, go
to .bench_out/<workload>/result-trace<0|1>.json.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

PROBES = 3               # fresh interpreters per --trace 0 run
MIN_TIMED_OPS = 3        # even when one op outlasts --seconds
SWEEP_HORIZONS = (50, 100, 200, 400)
MICRO_BUDGET_S = 2.0
LAYERS = ("discrete", "simulate", "models", "continuous", "wls", "modelio",
          "cli")


def op_seeds(seed):
    import numpy as np
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(2)]


def run_probes(workload, seed, outbase, checker, clock, small):
    """Set-up and cold-run times of PROBES fresh interpreters (reference
    seconds), the set-up wall times, and the cold runs' op errors.  Cold runs
    use `seed` and `outbase`, so their outputs join the byte-for-byte rerun
    check."""
    cmd = [sys.executable, os.path.join(bootstrap.ROOT, "bench", "probe.py"),
           "--workload", workload.name, "--seed", str(seed), "--out", outbase]
    if small:
        cmd.append("--small")
    setup, setup_wall, cold, errors = [], [], [], []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            wall = time.perf_counter() - t0
            rest = proc.stdout.read()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed (exit {proc.returncode})")
        setup.append(clock.lap(wall))
        setup_wall.append(wall)
        report = json.loads(rest)
        cold.append(report["cold_run_s"])
        errors.append(checker.check(seed, report["results"])[0])
    return setup, setup_wall, cold, errors


def layer_metrics(summary, wall, nbytes):
    """Per-layer metrics of one traced op from its span summary."""
    calls, total = summary["calls"], summary["total_ns"]
    self_ns, counts = summary["self_ns"], summary["counts"]

    def secs(*names):
        return sum(total.get(n, 0) for n in names) / 1e9

    def per(seconds, n):
        return seconds * 1e6 / n if n else 0.0

    f_steps = counts.get("discrete.run_filter", 0)
    s_steps = (counts.get("simulate.simulate_discrete", 0)
               + counts.get("simulate.simulate_cd", 0))
    intervals = counts.get("continuous.cd_run:intervals", 0)
    m = {
        "discrete.filter_steps": f_steps,
        "discrete.us_per_step": per(secs("discrete.run_filter"), f_steps),
        "simulate.steps": s_steps,
        "simulate.us_per_step": per(secs("simulate.simulate_discrete",
                                         "simulate.simulate_cd"), s_steps),
        "simulate.whiteness_calls": calls.get("simulate.innovation_whiteness", 0),
        "simulate.whiteness_s": secs("simulate.innovation_whiteness"),
        "models.eval_G_calls": calls.get("models.eval_G", 0),
        "models.eval_G_s": secs("models.eval_G"),
        "continuous.intervals": intervals,
        "continuous.us_per_interval": per(secs("continuous.cd_run"), intervals),
        "continuous.rk4_steps": counts.get("continuous.cd_run:rk4_steps", 0),
        "continuous.clamped_rhs_evals":
            counts.get("continuous.cd_run:clamped_rhs_evals", 0),
        "wls.solves": calls.get("wls.newton_solve", 0),
        "wls.solve_s": secs("wls.newton_solve"),
        "wls.factor_s": secs("wls.factor"),
        "wls.backsolve_s": secs("wls.backsolve"),
        "wls.gradient_s": secs("wls.gradient"),
        "wls.build_s": secs("wls.initial_cost", "wls.build_measurement_cost",
                            "wls.build_time_cost"),
        "wls.factored_blocks": counts.get("wls.factor", 0),
        "wls.copied_blocks": counts.get("wls.copy", 0),
        "modelio.load_s": secs("modelio.load_model"),
        "cli.self_s": self_ns.get("cli.parse_and_dispatch", 0) / 1e9,
        "cli.write_s": sum(t for n, t in total.items()
                           if n.startswith("write.")) / 1e9,
        "cli.bytes_written": nbytes,
        "trace.attributed_frac": sum(self_ns.values()) / 1e9 / wall,
    }
    for layer in LAYERS:
        if layer == "cli":
            ns = self_ns.get("cli.parse_and_dispatch", 0)
        else:
            ns = sum(t for n, t in self_ns.items() if n.startswith(layer + "."))
        m[f"{layer}.self_frac"] = ns / 1e9 / wall
    return m


def measure(workload, seed, seconds, trace, outbase, small=False,
            sweep_horizons=SWEEP_HORIZONS, micro_budget_s=MICRO_BUDGET_S):
    """Run one benchmark run; return (metric values, details)."""
    from harness import Checker, SpeedClock, run_op
    from spans import Tracer

    shutil.rmtree(outbase, ignore_errors=True)
    os.makedirs(outbase)
    seeds = op_seeds(seed)
    checker = Checker(workload, outbase)
    errors = []
    values = {}
    details = {"workload": workload.name, "seed": seed, "op_seeds": seeds,
               "steps_per_op": workload.steps, "step_unit": workload.step_unit}

    clock = SpeedClock()
    if not trace:
        setup, setup_wall, cold, probe_errors = run_probes(
            workload, seeds[0], outbase, checker, clock, small)
        errors += probe_errors
        details.update(setup_s=setup, setup_wall_s=setup_wall, cold_run_s=cold)

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}  # reference seconds
    raw = {False: [], True: []}    # wall seconds
    layer_samples = []
    problems = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        # Op 0 is the warm-up.  After it, traced and untraced ops alternate
        # in pairs, so both see both seeds.
        traced = bool(trace) and (i // 2) % 2 == 1
        if traced:
            tracer.reset(op=i)
            tracer.install()
        try:
            wall, ref_wall, results = run_op(workload, seeds[i % 2], outbase,
                                             clock, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        error, nbytes = checker.check(seeds[i % 2], results)
        errors.append(error)
        i += 1
        if i == 1:
            continue
        walls[traced].append(ref_wall)
        raw[traced].append(wall)
        if traced:
            problems += tracer.check_nesting()
            layer_samples.append(layer_metrics(tracer.summary(), wall, nbytes))
        done = len(walls[traced]) >= MIN_TIMED_OPS and (
            not trace or len(walls[not traced]) >= MIN_TIMED_OPS)
        if time.perf_counter() >= deadline and done:
            break

    plain = walls[False]
    if not trace:
        values["setup_s"] = statistics.median(setup)
        values["cold_run_s"] = statistics.median(cold)
        values["run_s"] = statistics.median(plain)
        values["steps_per_s"] = workload.steps / values["run_s"]
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        details.update(run_s_samples=plain, run_wall_s_samples=raw[False])
    else:
        for key in layer_samples[0]:
            values[key] = statistics.median(s[key] for s in layer_samples)
        traced_med = statistics.median(walls[True])
        plain_med = statistics.median(plain)
        values["trace.ops"] = len(walls[True])
        values["trace.overhead_s"] = traced_med - plain_med
        values["trace.overhead_frac"] = (traced_med - plain_med) / plain_med
        from micro import horizon_sweep, micro_rows
        values.update(micro_rows(micro_budget_s))
        if workload.name == "oracle-check":
            times, slope = horizon_sweep(sweep_horizons, seed)
            for h, t in zip(sweep_horizons, times):
                values[f"wls.horizon_{h}_s"] = t
            values["wls.growth_exponent"] = slope
        details.update(run_s_samples=plain, traced_run_s_samples=walls[True],
                       span_problems=problems[:20],
                       missing_wrap_points=tracer.missing)
    details["calibration_s"] = clock.cal

    attempted = len(errors)
    failed = sum(e is not None for e in errors)
    values["ops_ok_frac"] = 1.0 - failed / attempted
    details.update(attempted=attempted, failed=failed, reruns=checker.reruns,
                   errors=sorted({e for e in errors if e}),
                   correct=failed == 0 and not problems and checker.reruns > 0)
    return values, details


def _git_commit():
    head = os.path.join(bootstrap.ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(bootstrap.ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def provenance():
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v)
                             for v in bootstrap.BLAS_THREAD_VARS},
            "git_commit": _git_commit()}


def load_spec():
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(spec, values, details, trace):
    """The final JSON object.  It holds every metric BENCHMARK.json names
    for this mode, with its unit; the horizon sweep, measured on
    oracle-check only, reads 0 elsewhere."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    return {"correct": details["correct"], "attempted": details["attempted"],
            "failed": details["failed"], "metrics": metrics}


def tail_percentile(samples):
    """The highest whole percentile with at least ten samples above it, as
    (percentile, value), or None below 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100)[p - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    bootstrap.prepare()
    from workloads import build

    spec = load_spec()
    workloads = build()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")
    outbase = os.path.join(bootstrap.ROOT, ".bench_out", args.workload)
    values, details = measure(workloads[args.workload], args.seed,
                              args.seconds, args.trace, outbase)
    samples = details["run_s_samples"]
    details.update(provenance=provenance(), metrics=values,
                   run_s_tail=tail_percentile(samples))
    with open(os.path.join(outbase, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
    for error in details["errors"]:
        print(f"failed op: {error}")
    q1, _, q3 = statistics.quantiles(samples, n=4)
    print(f"{args.workload}: {details['attempted']} ops, "
          f"{details['reruns']} byte-compared reruns; untraced run_s median "
          f"{statistics.median(samples):.4f} s over {len(samples)} ops "
          f"(quartiles {q1:.4f}, {q3:.4f}; tail {details['run_s_tail']})")
    print("provenance " + json.dumps(details["provenance"], sort_keys=True))
    print(json.dumps(result_line(spec, values, details, args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
