"""Exact-count self-check of the benchmark.

Two traced runs of the same workload and seed must report identical counts:
every per-layer count metric and every solve's systems, matvecs, iterations
and preconditioner set-ups.  At seed 0, ``state_2d_pcg`` must also
reproduce the baseline of 99 / 166 / 1440 PCG systems for
s = 0.05 / 0.5 / 0.95 with one preconditioner set-up each.

Run from the repository root; about five minutes for all workloads:

    python3 perfbench/selfcheck.py [--seed N] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import PER_LAYER

HERE = Path(__file__).resolve().parent
WORKLOADS = ("state_2d_pcg", "control_2d_multishift", "state_3d_setup")
BASELINE = {"state_2d_pcg": [{"systems_pcg": 99, "prec_setups": 1},
                             {"systems_pcg": 166, "prec_setups": 1},
                             {"systems_pcg": 1440, "prec_setups": 1}]}
COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count"]


def traced_run(workload: str, seed: int, seconds: float):
    """(per-layer counts, per-solve counts of the first round)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    record = json.loads(out.stdout.strip().splitlines()[-2])
    layers = {name: record["per_layer"][name] for name in COUNTS}
    return layers, [e["counts"] for e in record["rounds"][0]["solves"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        same = first == second
        baseline = True
        if args.seed == 0 and workload in BASELINE:
            baseline = all(counts is not None
                           and all(counts[k] == v for k, v in want.items())
                           for counts, want in zip(first[1],
                                                   BASELINE[workload]))
        ok &= same and baseline
        print(f"{workload} seed {args.seed}: counts "
              f"{'repeat' if same else 'DIFFER'}"
              + ("" if baseline else ", baseline NOT reproduced"))
        print(json.dumps(first[0]))
        print(json.dumps(first[1]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
