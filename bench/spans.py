"""In-memory spans around the public functions of each cukf module.

The program itself is not instrumented.  `Tracer.install()` replaces each
function in `WRAP_POINTS` at the place its caller looks it up (a module
global or a class attribute) with a wrapper that records one span
(name, start, end, parent, op id) and, where given, a work count derived
from the call's arguments or result.  `uninstall()` puts the originals back.

A span's self time is its duration minus the durations of its direct
children.  Times are integer nanoseconds from `time.perf_counter_ns`, so a
parent always covers its children exactly.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _len_result(args, kwargs, result):
    return len(result)


def _cd_em_steps(args, kwargs, result):
    # simulate_cd(model, x0, seed, em_step, ...): Euler-Maruyama steps taken.
    em_step = kwargs["em_step"] if "em_step" in kwargs else args[3]
    return int(np.sum(np.rint(np.diff(result.times) / em_step)))


def _cd_counts(args, kwargs, result):
    return {"intervals": len(result) - 1, "rk4_steps": result.step_count,
            "clamped_rhs_evals": result.clamp_count}


def _factored_blocks(args, kwargs, result):
    # BlockTridiagFactor.__init__(self, D, L): one Schur block per D block.
    return len(args[1] if len(args) > 1 else kwargs["D"])


def _copied_blocks(args, kwargs, result):
    return len(args[0].D)


# (module, class or None, attribute, span name, count).  The span name's
# prefix before the first dot is its layer.  Writers of output files form
# the "write" layer, which the metrics report as cli.write_s.
WRAP_POINTS = [
    ("cukf.cli", None, "load_model", "modelio.load_model", None),
    ("cukf.cli", None, "get_builtin", "builtin.get_builtin", None),
    ("cukf.cli", None, "simulate_discrete", "simulate.simulate_discrete", _len_result),
    ("cukf.cli", None, "simulate_cd", "simulate.simulate_cd", _cd_em_steps),
    ("cukf.cli", None, "monte_carlo_compare", "simulate.monte_carlo_compare", None),
    ("cukf.cli", None, "mse", "simulate.mse", None),
    ("cukf.cli", None, "run_filter", "discrete.run_filter", _len_result),
    ("cukf.cli", None, "default_config", "continuous.default_config", None),
    ("cukf.cli", None, "cd_run", "continuous.cd_run", _cd_counts),
    ("cukf.cli", None, "oracle_filter", "wls.oracle_filter", None),
    ("cukf.cli", None, "dump_diagnostics", "write.dump_diagnostics", None),
    ("cukf.cli", None, "_write_manifest", "write.manifest", None),
    ("cukf.simulate", None, "simulate_discrete", "simulate.simulate_discrete", _len_result),
    ("cukf.simulate", None, "run_filter", "discrete.run_filter", _len_result),
    ("cukf.simulate", None, "innovation_whiteness", "simulate.innovation_whiteness", None),
    ("cukf.simulate", None, "mse", "simulate.mse", None),
    ("cukf.simulate", None, "eval_G", "models.eval_G", None),
    ("cukf.discrete", None, "eval_G", "models.eval_G", None),
    ("cukf.continuous", None, "eval_G", "models.eval_G", None),
    ("cukf.models", None, "eval_G", "models.eval_G", None),
    ("cukf.wls", None, "initial_cost", "wls.initial_cost", None),
    ("cukf.wls", None, "build_measurement_cost", "wls.build_measurement_cost", None),
    ("cukf.wls", None, "build_time_cost", "wls.build_time_cost", None),
    ("cukf.wls", None, "newton_solve", "wls.newton_solve", None),
    ("cukf.wls", "BlockTridiagFactor", "__init__", "wls.factor", _factored_blocks),
    ("cukf.wls", "BlockTridiagFactor", "solve", "wls.backsolve", None),
    ("cukf.wls", "BlockTridiagFactor", "last_inverse_block", "wls.backsolve", None),
    ("cukf.wls", "QuadraticCost", "gradient", "wls.gradient", None),
    ("cukf.wls", "QuadraticCost", "copy", "wls.copy", _copied_blocks),
    ("cukf.discrete", "FilterTrace", "to_csv", "write.FilterTrace.to_csv", None),
    ("cukf.simulate", "ComparisonReport", "to_csv", "write.ComparisonReport.to_csv", None),
]

ROOT_SPAN = "cli.parse_and_dispatch"


class Tracer:
    """Span recorder; the spans of one op are kept until `reset()`."""

    def __init__(self):
        self._saved = []
        self.missing = []
        self.reset()

    def reset(self, op=0):
        self.op = op
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.child_ns = []
        self.ops = []
        self.counts = defaultdict(int)
        self._stack = []

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self.child_ns.append(0)
        self.ops.append(self.op)
        self._stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def close(self, i):
        end = time.perf_counter_ns()
        self.ends[i] = end
        self._stack.pop()
        p = self.parents[i]
        if p >= 0:
            self.child_ns[p] += end - self.starts[i]

    def add(self, name, count):
        if isinstance(count, dict):
            for key, value in count.items():
                self.counts[f"{name}:{key}"] += int(value)
        else:
            self.counts[name] += int(count)

    def _wrap(self, fn, name, count):
        open_, close, add = self.open, self.close, self.add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if count is not None:
                add(name, count(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        """Wrap every point that exists; record the ones that do not."""
        self.missing = []
        for modname, clsname, attr, name, count in WRAP_POINTS:
            owner = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(owner, clsname, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{modname}.{clsname or ''}.{attr}")
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        for point in self.missing:
            print(f"bench: wrap point {point} not found; its spans read 0",
                  file=sys.stderr)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def check_nesting(self):
        """Return a list of problems: unclosed spans, children outside their
        parent, or children summing to more than their parent."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            if dur < 0:
                problems.append(f"span {i} {name} ends before it starts")
            if self.child_ns[i] > dur:
                problems.append(f"span {i} {name}: children {self.child_ns[i]} ns "
                                f"> duration {dur} ns")
            p = self.parents[i]
            if p >= 0 and not (self.starts[p] <= self.starts[i]
                               and self.ends[i] <= self.ends[p]):
                problems.append(f"span {i} {name} lies outside its parent {p}")
        return problems

    def summary(self):
        """Per span name: calls, total ns, self ns; and counts."""
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += dur
            self_ns[name] += dur - self.child_ns[i]
        return {"calls": dict(calls), "total_ns": dict(total),
                "self_ns": dict(self_ns), "counts": dict(self.counts)}
