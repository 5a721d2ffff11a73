"""Benchmark entry point: one workload in a fresh, pinned worker process.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The worker (``worker.py``) runs with ``PYTHONPATH=src`` and BLAS/OpenMP
pinned to one thread, so it never uses more threads than the two cores of
the reference machine.  This process prints the worker's full record
(environment, samples, counts, checks) as one JSON line, keeps it under
``.perfbench_out/``, and then prints the result line: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Metric definitions and the workloads' rationale are in ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TIMEOUT_S = 170
THREADS = "1"

END_TO_END = {"setup_s": "s", "wall_s": "s", "solve_max_s": "s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "mesh.build_s": "s",
    "fem.operators_s": "s",
    "setup.peak_rss_mb": "MiB",
    "setup.other_s": "s",
    "multigrid.hierarchy_s": "s",
    "multigrid.setups": "count",
    "multigrid.setup_s": "s",
    "multigrid.applies": "count",
    "multigrid.apply_s": "s",
    "shifted.pcg_s": "s",
    "shifted.pcg_self_s": "s",
    "shifted.multishift_s": "s",
    "shifted.normalize_s": "s",
    "shifted.normalize_calls": "count",
    "shifted.systems_multishift": "count",
    "shifted.systems_pcg": "count",
    "shifted.basis_vectors": "count",
    "shifted.matvecs_pcg": "count",
    "shifted.pcg_iterations": "count",
    "shifted.prec_setups": "count",
    "shifted.basis_mb_computed": "MiB",
    "fractional.solves": "count",
    "fractional.self_s": "s",
    "control.iterations": "count",
    "control.fractional_solves": "count",
    "control.self_s": "s",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fraclap").is_dir():
        print(f"no fraclap sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(OUT_DIR / f"{stem}.spans.jsonl")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS=THREADS, OPENBLAS_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    # the worker leads its own process group, so a timeout also ends the
    # set-up processes it may have started
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(stdout.strip().splitlines()[-1])
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    units = PER_LAYER if args.trace else END_TO_END
    measured = record["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"worker did not report {missing}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0 and record["counts_repeat"],
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
