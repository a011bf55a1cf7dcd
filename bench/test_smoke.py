"""Smoke test of the benchmark at minimal size (5 replicates, horizon 10,
N = 50, a coarse RK4 step).  It is not part of the repository's test suite;
run it with

    python3 -m pytest bench/test_smoke.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bootstrap  # noqa: E402

SWEEP = (5, 10, 20, 40)


@pytest.fixture(scope="module")
def bench():
    cwd = os.getcwd()
    bootstrap.prepare()
    import run
    from workloads import build
    yield run, build(small=True)
    os.chdir(cwd)


def _measure(bench, name, trace, tmp_path):
    run, workloads = bench
    return run.measure(workloads[name], seed=3, seconds=0.01, trace=trace,
                       outbase=str(tmp_path / name), small=True,
                       sweep_horizons=SWEEP, micro_budget_s=0.05)


WORKLOADS = ("mc-compare", "oracle-check", "cd-filter", "long-trajectory")


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(bench, name, trace, tmp_path):
    run, _ = bench
    spec = run.load_spec()
    values, details = _measure(bench, name, trace, tmp_path)
    assert details["correct"], details["errors"]
    assert details["failed"] == 0 and details["reruns"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    sweep = {f"wls.horizon_{h}_s" for h in (50, 100, 200, 400)}
    sweep.add("wls.growth_exponent")
    for m in wanted:
        if m["name"] in sweep:
            continue
        assert m["name"] in values, m["name"]
    if trace and name == "oracle-check":
        for h in SWEEP:
            assert values[f"wls.horizon_{h}_s"] > 0
        assert values["wls.growth_exponent"] > 0
    line = run.result_line(spec, values, details, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert [m["name"] for m in wanted] == list(line["metrics"])
    for m in wanted:
        emitted = line["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_nest(bench, name, tmp_path):
    run, workloads = bench
    from harness import SpeedClock, run_op
    from spans import ROOT_SPAN, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wall, _, results = run_op(workloads[name], 7, str(tmp_path),
                                  SpeedClock(), tracer)
    finally:
        tracer.uninstall()
    assert all(rc == 0 for rc, _, _ in results)
    assert tracer.missing == []
    assert tracer.check_nesting() == []
    summary = tracer.summary()
    assert all(t >= 0 for t in summary["self_ns"].values())
    roots = [i for i, p in enumerate(tracer.parents) if p < 0]
    assert {tracer.names[i] for i in roots} == {ROOT_SPAN}
    assert len(roots) == len(workloads[name].calls)
    assert sum(summary["self_ns"].values()) / 1e9 <= wall
    # Every layer the workload leads shows up below the root span.
    assert len(summary["calls"]) > 2


def test_wrappers_are_removed(bench):
    import cukf.cli
    import cukf.wls
    from spans import Tracer

    before = (cukf.cli.run_filter, cukf.wls.BlockTridiagFactor.__init__)
    tracer = Tracer()
    tracer.install()
    assert cukf.cli.run_filter is not before[0]
    tracer.uninstall()
    assert (cukf.cli.run_filter, cukf.wls.BlockTridiagFactor.__init__) == before
