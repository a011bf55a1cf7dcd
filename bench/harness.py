"""Runs one op of a workload in this process and checks what it wrote.

An op is every call of the workload, made in order through
`cukf.cli.parse_and_dispatch` with stdout and stderr captured.  Only the
calls themselves are timed; clearing the output directories and the checks
happen outside the timed region.
"""

import contextlib
import io
import os
import shutil
import time
import traceback

import numpy as np
from cukf.cli import parse_and_dispatch

from spans import ROOT_SPAN
from workloads import check_finite, output_digest


def run_op(workload, seed, outbase, clock, tracer=None):
    """Return (wall seconds, reference seconds, [(exit code, stdout, stderr)
    per call]).  `clock` calibrates after every call."""
    wall = ref = 0.0
    results = []
    for j, call in enumerate(workload.calls):
        outdir = os.path.join(outbase, str(j))
        shutil.rmtree(outdir, ignore_errors=True)
        argv = list(call.argv) + ["--seed", str(seed), "--out", outdir]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            span = tracer.open(ROOT_SPAN) if tracer is not None else None
            try:
                rc = parse_and_dispatch(argv)
            except Exception:  # an op that raises is a failed op, not a crash
                rc = -1
                traceback.print_exc()
            finally:
                if span is not None:
                    tracer.close(span)
                call_wall = time.perf_counter() - t0
        wall += call_wall
        ref += clock.lap(call_wall)
        results.append((rc, out.getvalue(), err.getvalue()))
    return wall, ref, results


class Checker:
    """Checks each op's outputs.  The first op run with a seed records the
    bytes of every output file; every later op with that seed, in this
    process or a set-up probe, must write identical bytes."""

    def __init__(self, workload, outbase):
        self.workload = workload
        self.outbase = outbase
        self.reference = {}
        self.reruns = 0

    def check(self, seed, results):
        """Return (error message or None, bytes written)."""
        digests = []
        nbytes = 0
        for j, (call, (rc, out, err)) in enumerate(zip(self.workload.calls,
                                                       results)):
            if rc != 0:
                tail = err.strip().splitlines()[-1:] or [""]
                return f"call {j} exited {rc}: {tail[0]}", nbytes
            outdir = os.path.join(self.outbase, str(j))
            problem = (call.check(outdir, out) if call.check else None) \
                or check_finite(outdir)
            if problem:
                return f"call {j}: {problem}", nbytes
            digest, size = output_digest(outdir)
            digests.append(digest)
            nbytes += size
        if seed in self.reference:
            self.reruns += 1
            if self.reference[seed] != digests:
                return f"rerun with seed {seed} wrote different bytes", nbytes
        else:
            self.reference[seed] = digests
        return None, nbytes


# Wall times are reported in reference seconds: the wall time scaled by
# CAL_REF_S over the time the calibration loop took right around it.  The
# shared host's speed drifts by tens of percent over minutes; the loop runs
# the same kind of small-numpy-call Python code as the filters, so the ratio
# cancels the drift and leaves what the op itself costs.
CAL_REF_S = 0.04
_CAL_A = np.array([[0.99]])


def calibration_s(iterations=5000):
    """Wall seconds of a fixed loop that does not touch cukf."""
    x = np.ones(1)
    S = _CAL_A
    t0 = time.perf_counter()
    for _ in range(iterations):
        x = 1.0 + _CAL_A @ x
        S = 0.5 * (S + S.T) + np.diag(np.sqrt(np.maximum(x, 1e-12)))
    return time.perf_counter() - t0


class SpeedClock:
    """Turns wall times into reference seconds.  Call `lap()` after each
    timed piece of work; the work is scaled by the mean of the calibration
    times measured just before and just after it.  Ops of several calls are
    scaled call by call, because the host's speed changes within seconds."""

    def __init__(self):
        self.cal = [calibration_s()]

    def lap(self, wall):
        self.cal.append(calibration_s())
        return wall * CAL_REF_S / (0.5 * (self.cal[-2] + self.cal[-1]))
