"""Command-line front end: reproducible simulation, filtering, comparison,
oracle-equivalence and Euler-limit checks.

Exit status: 0 success, 1 usage error, 2 numerical failure.  Every run
writes a manifest.json with the full configuration so outputs can be
reproduced bit-exactly; an option the model kind does not read is refused.
Files are written atomically (temp + rename), CSV in csv's default dialect,
by the package's one writer in `cukf.discrete`.  The output directory can be
overridden with the CUKF_OUTPUT_DIR environment variable.
"""

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .builtin import builtin_models, get_builtin
from .continuous import (_canonical, _grid_steps, _inner, cd_run,
                         default_config, euler_limit_check)
from .discrete import StateEstimate, _atomic_open, _write_csv, run_filter
from .errors import FilterError
from .models import (ContinuousDiscreteModel, DiscreteLinearModel, _fixed_beta,
                     with_fixed_noise)
from .modelio import load_model
from .simulate import (MAX_LAG, _em_steps, monte_carlo_compare, mse,
                       simulate_cd, simulate_discrete)
from .wls import MAX_HORIZON, dump_diagnostics, oracle_filter

# The most steps that one run holds in memory: --N of simulate and filter,
# --replicates times --N of compare.  There a one-state model peaks at
# about 0.15 GB (filter) and 0.23 GB (compare), a three-state one at about
# 0.6 GB (filter); see the README.
MAX_STEPS = 10 ** 6


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1, and a negative
    number in exponent notation (--x0 -1e3), a negative infinity (--x0
    -inf) or a negative nan (--x0 -nan) read as a value, as -1000 is."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            self._negative_number_matcher.pattern
            + r"|^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(?i:inf|infinity|nan)$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_outdir(args):
    args.out = os.environ.get("CUKF_OUTPUT_DIR") or args.out  # for the manifest
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load(name_or_path):
    if os.path.exists(name_or_path):
        return load_model(name_or_path)
    try:
        return get_builtin(name_or_path)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _write_manifest(outdir, args, extra=None):
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    if extra:
        cfg.update(extra)
    with _atomic_open(os.path.join(outdir, "manifest.json")) as fh:
        fh.write(json.dumps(cfg, indent=2, sort_keys=True, default=str) + "\n")


def _kind_options(model, args, least_N=1):
    """Refuse an option that the model's kind does not read and a step that
    is not finite and positive, then resolve --N (discrete) or --em-step
    (continuous-discrete) to its default and refuse an --N below least_N or
    an --em-step grid that the simulator would refuse.  For `filter` on a
    continuous-discrete model, refuse a --step that the propagator would
    refuse on a gap (`continuous._grid_steps`), and return the
    clamp-detection step."""
    cd = isinstance(model, ContinuousDiscreteModel)
    unread, kind = ((("N",), "discrete") if cd else
                    (("em_step", "step"), "continuous-discrete"))
    for dest in ("N", "em_step", "step"):
        value, flag = getattr(args, dest, None), "--" + dest.replace("_", "-")
        if value is not None and dest in unread:
            raise ValueError(f"{flag} applies to {kind} models only")
        if value is not None and dest != "N" and not 0 < value < np.inf:
            raise ValueError(f"{flag} must be finite and positive")
    if not cd:
        args.N = 100 if args.N is None else args.N
        if args.N < least_N:
            raise ValueError(f"--N must be at least {least_N}")
        if args.N > MAX_STEPS:
            raise ValueError(f"--N must be at most {MAX_STEPS}")
        return None
    args.em_step = 0.01 if args.em_step is None else args.em_step
    _em_steps(model.sample_times, args.em_step, "--em-step")
    if hasattr(args, "step"):
        if args.step is None:
            return default_config(model)
        ts = model.sample_times.tolist()
        for t0, t1 in zip(ts, ts[1:]):
            _grid_steps(args.step, _canonical(t1 - t0), t0, t1, "--step")
        return args.step


def _simulate_any(model, args):
    if isinstance(model, ContinuousDiscreteModel):
        return simulate_cd(model, x0=np.full(model.n, args.x0), seed=args.seed,
                           em_step=args.em_step)
    return simulate_discrete(model, x0=np.full(model.n, args.x0), N=args.N,
                             seed=args.seed)


def _cmd_models(args):
    for name in builtin_models():
        print(name)
    return 0


def _cmd_simulate(args):
    model = _load(args.model)
    _kind_options(model, args)
    data = _simulate_any(model, args)
    outdir = _resolve_outdir(args)
    path = os.path.join(outdir, "trajectory.csv")
    data.to_csv(path)
    _write_manifest(outdir, args, {"clamped": data.clamped})
    print(f"wrote {path}")
    return 0


def _init_estimate(model, args):
    if not 0 <= args.init_sigma < np.inf:
        raise ValueError("--init-sigma must be finite and nonnegative")
    n = model.n
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=args.seed, spawn_key=(0xF117,)))
    xinit = rng.standard_normal(n)
    return StateEstimate(xhat=xinit, Sigma=args.init_sigma * np.eye(n), index=1)


def _fixed_beta_baseline(model, beta, what, beta_for):
    """The fixed-beta baseline of `model` (`with_fixed_noise`), refused for
    a model that is not discrete linear, then without --beta, then for a
    --beta that `with_fixed_noise` would refuse whatever the model."""
    if not isinstance(model, DiscreteLinearModel):
        raise ValueError(f"{what} needs a discrete linear model")
    if beta is None:
        raise ValueError(f"--beta is required {beta_for}")
    return with_fixed_noise(model, _fixed_beta(beta, "--beta"))


def _cmd_filter(args):
    model = filter_model = _load(args.model)
    if args.variant == "fixed-beta":
        filter_model = _fixed_beta_baseline(model, args.beta,
                                            "--variant fixed-beta",
                                            "with --variant fixed-beta")
    elif args.beta is not None:
        raise ValueError("--beta applies to --variant fixed-beta only")
    step = _kind_options(model, args)
    init = _init_estimate(model, args)
    data = _simulate_any(model, args)
    cd = isinstance(model, ContinuousDiscreteModel)
    if cd:
        trace = cd_run(model, data.measurements, init, step)
    else:
        trace = run_filter(filter_model, data.measurements, init)
    outdir = _resolve_outdir(args)
    path = os.path.join(outdir, "trace.csv")
    trace.to_csv(path)
    if cd:
        _write_csv(os.path.join(outdir, "trace_summary.csv"), ["key", "value"],
                   [("clamp_count", trace.clamp_count),
                    ("step_count", trace.step_count),
                    ("fallback_intervals", trace.fallback_intervals)])
    _write_manifest(outdir, args, {"mse": mse(trace, data)})
    print(f"wrote {path}")
    return 0


def _cmd_compare(args):
    model = _load(args.model)
    baseline = _fixed_beta_baseline(model, args.beta, "compare",
                                    "for the fixed-beta baseline")
    _kind_options(model, args, least_N=MAX_LAG + 1)  # the whiteness lags
    if args.replicates < 1:
        raise ValueError("--replicates must be at least 1")
    if args.replicates * args.N > MAX_STEPS:
        raise ValueError(f"--replicates {args.replicates} times --N {args.N} "
                         f"must be at most {MAX_STEPS} steps")
    filters = {"covariance-update": model, f"fixed-beta={args.beta}": baseline}
    report = monte_carlo_compare(model, filters, replicates=args.replicates,
                                 N=args.N, master_seed=args.seed, x0=args.x0,
                                 distribution=args.distribution)
    outdir = _resolve_outdir(args)
    csv_path = os.path.join(outdir, "comparison.csv")
    report.to_csv(csv_path)
    with _atomic_open(os.path.join(outdir, "comparison.txt")) as fh:
        fh.write(report.to_table() + "\n")
    _write_manifest(outdir, args)
    print(report.to_table())
    return 0


def _step_rel_deltas(a, b):
    """Per step (leading axis), the largest |a - b| / max(1, |b|)."""
    r = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    return r.reshape(len(r), -1).max(axis=1)


def _cmd_oracle_check(args):
    if args.horizon < 1:
        raise ValueError("--horizon must be at least 1")
    if args.horizon > MAX_HORIZON:
        raise ValueError(f"--horizon must be at most {MAX_HORIZON}")
    model = _load(args.model)
    if isinstance(model, ContinuousDiscreteModel):
        raise ValueError("oracle-check supports discrete models only")
    init = _init_estimate(model, args)
    args.N = args.horizon
    data = _simulate_any(model, args)
    trace = run_filter(model, data.measurements, init)
    sol = oracle_filter(model, data.measurements, init)
    deltas = np.column_stack(
        (_step_rel_deltas(sol.xhat, trace.xhat_post),
         _step_rel_deltas(sol.Sigma, trace.Sigma_post)))
    outdir = _resolve_outdir(args)
    path = os.path.join(outdir, "oracle_deltas.csv")
    dump_diagnostics(sol, path, deltas)
    worst = float(deltas.max())
    _write_manifest(outdir, args, {"max_relative_delta": worst})
    print(f"max relative delta: {worst:.3e}")
    if worst > 1e-9:
        print("oracle-check FAILED (tolerance 1e-9)", file=sys.stderr)
        return 2
    return 0


def _cmd_limit_check(args):
    model = _load(args.model)
    dyn = _inner(model)
    if not isinstance(dyn, DiscreteLinearModel):
        raise ValueError("limit-check needs a linear model")
    if args.levels < 0:
        raise ValueError("--levels must be at least 0")
    t0, t1, dt0 = args.t0, args.t1, args.dt0
    if not -np.inf < t0 < t1 < np.inf:
        raise ValueError("--t0 and --t1 must be finite, with --t0 < --t1")
    if not 0 < dt0 < np.inf:
        raise ValueError("--dt0 must be finite and positive")
    if not math.ldexp(dt0, -args.levels) > 0:
        raise ValueError(f"--levels {args.levels} halves --dt0 {dt0} to 0")
    dts = [math.ldexp(dt0, -i) for i in range(args.levels + 1)]
    # euler_limit_check's checks of the steps, finest first, in flag terms.
    span = t1 - t0
    for i in reversed(range(len(dts))):
        step = f"--dt0 {dt0}" + (f" / 2^{i} = {dts[i]}" if i else "")
        ratio = span / dts[i]
        if not round(ratio, 0) <= 10 ** 5:  # the reference's grid
            raise ValueError(f"{step} puts {ratio:.3g} steps on [--t0, --t1] "
                             f"= [{t0}, {t1}]; at most 100000 are allowed")
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(f"{step} does not divide --t1 - --t0 = {span}")
    n = dyn.n
    post = StateEstimate(xhat=np.full(n, args.x0), Sigma=np.eye(n), index=t0)
    rows = euler_limit_check(dyn, post, t0, t1, dts)
    outdir = _resolve_outdir(args)
    path = os.path.join(outdir, "limit_check.csv")
    _write_csv(path, ["dt", "mean_err", "cov_err"],
               ([row.dt, row.mean_err, row.cov_err] for row in rows))
    _write_manifest(outdir, args)
    for a, b in zip(rows[1:], rows[:-1]):
        # rows sorted ascending in dt: ratio of coarse to fine error
        print(f"dt={a.dt:g}->{b.dt:g} cov ratio "
              f"{a.cov_err / max(b.cov_err, 1e-300):.3f}")
    print(f"wrote {path}")
    return 0


_OPTIONS = {
    "--seed": dict(type=int, default=0),
    "--N": dict(type=int, default=None,
                help="number of measurements (discrete models; default 100)"),
    "--em-step": dict(type=float, default=None,
                      help="Euler-Maruyama step (continuous models; default 0.01)"),
    "--init-sigma": dict(type=float, default=0.0, dest="init_sigma"),
}


def _add_common(p, *options):
    """--model, --x0 and --out, then the named `options` of _OPTIONS: a
    subcommand declares those it reads and no other."""
    p.add_argument("--model", required=True,
                   help="builtin model name or model file path")
    p.add_argument("--x0", type=float, default=1.0,
                   help="initial true state (all components)")
    p.add_argument("--out", default="out", help="output directory")
    for name in options:
        p.add_argument(name, **_OPTIONS[name])


def build_parser():
    parser = _Parser(prog="cukf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list builtin models")
    p.set_defaults(func=_cmd_models)

    p = sub.add_parser("simulate", help="simulate a trajectory to CSV")
    _add_common(p, "--seed", "--N", "--em-step")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("filter", help="simulate then filter, trace to CSV")
    _add_common(p, "--seed", "--N", "--em-step", "--init-sigma")
    p.add_argument("--variant", choices=["covariance-update", "fixed-beta"],
                   default="covariance-update")
    p.add_argument("--beta", type=float, default=None,
                   help="process noise gain for the fixed-beta variant")
    p.add_argument("--step", type=float, default=None,
                   help="clamp-detection grid step for continuous models: "
                   "where the floored set changes, intervals are cut there")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("compare",
                       help="Monte Carlo comparison against the fixed-beta baseline")
    _add_common(p, "--seed", "--N")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--replicates", type=int, default=500)
    p.add_argument("--distribution", choices=["gaussian", "uniform"],
                   default="gaussian")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle-check",
                       help="check filter against the trajectory-cost oracle")
    _add_common(p, "--seed", "--init-sigma")
    p.add_argument("--horizon", type=int, default=20)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("limit-check",
                       help="Euler-refinement consistency of the covariance ODE")
    _add_common(p)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=0.8)
    p.add_argument("--dt0", type=float, default=0.08,
                   help="coarsest step; halved --levels times")
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(func=_cmd_limit_check)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser of `parse_and_dispatch`, built once per process: parsing
    leaves it as it was, and building it costs more than most runs' own
    parsing."""
    return build_parser()


def parse_and_dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if not np.isfinite(getattr(args, "x0", 0.0)):
            raise ValueError("--x0 must be finite")
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be at least 0")
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except (FilterError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # before --out exists, as for any failure
        print(f"numerical failure: out of memory{': ' * bool(str(exc))}{exc}",
              file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # ModelError, StepTooLargeError, other bad inputs and unusable paths.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(parse_and_dispatch())
