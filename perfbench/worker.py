"""Run one benchmark workload in this process and print its record.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and
``PYTHONPATH`` at the checkout's ``src``.  The last line of standard output
is one JSON record: environment, set-up samples, every round's per-solve
times, counts and checks, and the end-to-end or per-layer metrics.

Set-up runs ``workload.setups`` times, each in a fresh process (all but the
last in short-lived child processes, one at a time), then the run performs
rounds (every top-level solve of the workload once, one after another)
until the next round would end after ``--seconds``; at least one round
runs.  With ``--trace 1`` rounds come in pairs, one untraced and one traced
in alternating order, and the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# solve-phase self times: metric -> span name
SELF_TIMES = {
    "multigrid.setup_s": "multigrid.setup",
    "multigrid.apply_s": "multigrid.apply",
    "shifted.pcg_self_s": "shifted.pcg",
    "shifted.multishift_s": "shifted.family",
    "shifted.normalize_s": "shifted.normalize",
    "fractional.self_s": "fractional.solve",
    "control.self_s": "control.solve",
}
# solve-phase call counts: metric -> span name
CALLS = {
    "multigrid.setups": "multigrid.setup",
    "multigrid.applies": "multigrid.apply",
    "shifted.normalize_calls": "shifted.normalize",
    "fractional.solves": "fractional.solve",
}
SHIFTED_COUNTS = ("systems_multishift", "systems_pcg", "basis_vectors",
                  "matvecs_pcg", "pcg_iterations", "prec_setups")


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "pinned_threads": {v: os.environ.get(v) for v in PINNED}}


def cold_setup_times(args, count):
    """Set-up times of ``count`` fresh worker processes run one at a time,
    so each set-up is cold and none leaves memory behind in this one."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        times.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return times


def span(tracer, name):
    """A root span of the tracer, or no span when untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def run_round(case, tracer):
    """Every top-level solve once; returns the round record and root spans."""
    kind = case.workload.kind
    solves, roots = [], []
    if tracer is not None:
        tracer.wrap()
    try:
        for solve in case.solves:
            entry = {"label": solve.label}
            t0 = time.perf_counter()
            try:
                with span(tracer, f"{kind}.solve") as root:
                    out = solve.run()
                if root is not None:
                    roots.append(root.idx)
                entry["time_s"] = time.perf_counter() - t0
                entry["ok"], entry["counts"], entry["check"] = \
                    solve.check(out)
                if tracer is not None and kind == "control":
                    root.count(iterations=entry["counts"]["iterations"])
            except Exception:         # a failed solve is counted, not fatal
                entry.update(time_s=time.perf_counter() - t0, ok=False,
                             counts=None, error=traceback.format_exc())
            solves.append(entry)
    finally:
        if tracer is not None:
            tracer.unwrap()
    return {"traced": tracer is not None, "solves": solves,
            "wall_s": sum(e["time_s"] for e in solves)}, roots


def layer_metrics(spans, setup_root, round_roots):
    """Per-layer metrics: set-up ones of this process's set-up, solve ones
    per traced round (means, so that self times add up to the round's)."""
    n_rounds = len(round_roots)
    setup = tracing.self_times(spans, [setup_root])
    roots = [r for rr in round_roots for r in rr]
    solve = tracing.self_times(spans, roots)
    out = {
        "mesh.build_s": sum(v["self_s"] for k, v in setup.items()
                            if k.startswith("mesh.")),
        "fem.operators_s": setup["fem.operators"]["self_s"],
        "multigrid.hierarchy_s": setup["multigrid.hierarchy"]["total_s"],
        "setup.other_s": setup["setup"]["self_s"],
        "shifted.pcg_s": solve["shifted.pcg"]["total_s"] / n_rounds,
        "trace.other_s": sum(v["self_s"] for k, v in solve.items()
                             if k not in SELF_TIMES.values()) / n_rounds,
    }
    for metric, name in SELF_TIMES.items():
        out[metric] = solve[name]["self_s"] / n_rounds
    for metric, name in CALLS.items():
        out[metric] = solve[name]["calls"] / n_rounds

    # counts recorded on spans; the Lanczos basis of a family solve is its
    # matvecs minus those of its PCG tail
    traces = {spans[r][4] for r in roots}
    pcg_matvecs = {}
    for name, _, _, parent, trace, counts in spans:
        if name == "shifted.pcg" and trace in traces and counts is not None:
            pcg_matvecs[parent] = counts["matvecs_pcg"]
    totals = dict.fromkeys(SHIFTED_COUNTS, 0)
    totals.update(iterations=0, control_fractional=0)
    basis_mib = 0.0
    for idx, (name, _, _, parent, trace, counts) in enumerate(spans):
        if trace not in traces:
            continue
        if name == "fractional.solve" and spans[parent][0] == "control.solve":
            totals["control_fractional"] += 1
        if counts is None:            # a span whose call raised
            continue
        if name == "shifted.family":
            basis = counts["matvecs"] - pcg_matvecs.get(idx, 0)
            totals["basis_vectors"] += basis
            totals["systems_multishift"] += counts["systems_multishift"]
            totals["systems_pcg"] += counts["systems_pcg"]
            basis_mib = max(basis_mib, basis * counts["n"] * 8 / 2 ** 20)
        elif name == "shifted.pcg":
            for key in ("matvecs_pcg", "pcg_iterations", "prec_setups"):
                totals[key] += counts[key]
        elif name == "control.solve":
            totals["iterations"] += counts["iterations"]
    for key in SHIFTED_COUNTS:
        out[f"shifted.{key}"] = totals[key] / n_rounds
    out["shifted.basis_mb_computed"] = basis_mib
    out["control.iterations"] = totals["iterations"] / n_rounds
    out["control.fractional_solves"] = totals["control_fractional"] / n_rounds
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print the time and exit")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(
        (Path(__file__).resolve().parent / "reference.json").read_text())
    if args.setup_only:
        t0 = time.perf_counter()
        workloads.set_up(workload, args.seed, reference)
        print(json.dumps(time.perf_counter() - t0))
        return

    setup_times = cold_setup_times(args, workload.setups - 1)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.wrap()
    try:
        t0 = time.perf_counter()
        with span(tracer, "setup") as setup_root:
            case = workloads.set_up(workload, args.seed, reference)
        setup_times.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.unwrap()
    setup_rss = max_rss_mib()

    rounds, round_roots = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # a traced pair alternates its order, so that the first round's
        # first-touch costs do not always fall on the untraced side
        pair = [None] if tracer is None else \
            [None, tracer][::1 if len(round_roots) % 2 == 0 else -1]
        for round_tracer in pair:
            record, roots = run_round(case, round_tracer)
            rounds.append(record)
            if round_tracer is not None:
                round_roots.append(roots)
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    solves = [e for r in rounds for e in r["solves"]]
    failed = sum(not e["ok"] for e in solves)
    # identical inputs must give identical counts in every round
    per_solve = [[r["solves"][i]["counts"] for r in rounds]
                 for i in range(len(case.solves))]
    counts_repeat = all(c == cs[0] for cs in per_solve for c in cs)

    untraced = [r for r in rounds if not r["traced"]]
    walls = [r["wall_s"] for r in untraced]
    result = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "setup_s_samples": setup_times,
        "rounds": rounds,
        "attempted": len(solves), "failed": failed,
        "counts_repeat": counts_repeat,
        "solves_per_round": len(case.solves),
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "solve_max_s": statistics.median(
                max(e["time_s"] for e in r["solves"]) for r in untraced),
            "peak_rss_mb": max_rss_mib(),
        },
    }
    if tracer is not None:
        traced_walls = [r["wall_s"] for r in rounds if r["traced"]]
        layers = layer_metrics(tracer.spans, setup_root.idx, round_roots)
        wall = statistics.fmean(traced_walls)
        root_time = sum(tracer.spans[r][2] - tracer.spans[r][1]
                        for roots in round_roots for r in roots)
        layers.update({
            "setup.peak_rss_mb": setup_rss,
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - root_time / len(round_roots),
            "trace.overhead": statistics.median(traced_walls)
                              / statistics.median(walls) - 1.0,
        })
        result["per_layer"] = layers
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
