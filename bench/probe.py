"""Set-up probe, started by run.py in a fresh interpreter.

It imports cukf, builds or loads the workload's models and prints `ready`;
the parent times set-up from starting this process to that line.  It then
runs the workload's first op, the cold run, and prints one JSON line with
the op's time in reference seconds (see harness.SpeedClock) and the calls'
results, which the parent checks.

    python3 bench/probe.py --workload NAME --seed N --out DIR [--small]
"""

import argparse
import json
import os

import bootstrap


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    cukf = bootstrap.prepare()
    from cukf.modelio import load_model
    from workloads import build

    workload = build(small=args.small)[args.workload]
    for name in workload.models:
        if os.path.exists(name):
            load_model(name)
        else:
            cukf.get_builtin(name)
    print("ready", flush=True)
    from harness import SpeedClock, run_op
    _, ref, results = run_op(workload, args.seed, args.out, SpeedClock())
    print(json.dumps({"cold_run_s": ref, "results": results}), flush=True)


if __name__ == "__main__":
    main()
