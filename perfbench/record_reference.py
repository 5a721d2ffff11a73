"""Record the output references of the benchmark's workloads.

Run from the repository root (about three minutes on one core):

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python3 perfbench/record_reference.py [WORKLOAD ...]

and commit the rewritten ``perfbench/reference.json``; named workloads are
re-recorded, the others kept.  See
``workloads.py`` for why these references hold for every seed.  State
references are solved at rtol 1e-10, a hundred times below the benchmark's
solver tolerance.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import fraclap.fem
import fraclap.fractional
from fraclap.fem import NodalFunction
from fraclap.fractional import SolveOptions

import workloads

REFERENCE_RTOL = 1e-10
OUT = Path(__file__).resolve().parent / "reference.json"


def state_reference(workload):
    mesh = workloads.build_mesh(workload)
    mass = fraclap.fem.operators(mesh).mass
    B = workloads.basis_data(workload, mesh)
    Z = (mass @ B.T).T
    out = {}
    for s in workload.s_values:
        U = np.array([fraclap.fractional.fractional_solve(
            mesh, s, NodalFunction(mesh, row),
            SolveOptions(rtol=REFERENCE_RTOL)).u.values for row in B])
        out[str(s)] = {"uZ": (U @ Z.T).tolist(),
                       "uMu": (U @ (mass @ U.T)).tolist()}
        print(f"{workload.name} s={s} recorded", file=sys.stderr)
    return out


def control_reference(workload):
    mesh = workloads.build_mesh(workload)
    mass = fraclap.fem.operators(mesh).mass
    B = workloads.basis_data(workload, mesh)
    phi = B[1:]
    out = {}
    for s in workload.s_values:
        sol = workloads.solve_control(workloads.control_problem(
            mesh, NodalFunction(mesh, B[0]), s))
        misfit = sol.state.values - B[0]
        out[str(s)] = {"J0": sol.objective,
                       "grad": (-(phi @ (mass @ misfit))).tolist(),
                       "gram": (phi @ (mass @ phi.T)).tolist()}
        print(f"{workload.name} s={s} recorded", file=sys.stderr)
    return out


def main():
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    reference = json.loads(OUT.read_text()) if OUT.exists() else {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        if workload.kind == "state":
            reference[name] = state_reference(workload)
        else:
            reference[name] = control_reference(workload)
    OUT.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
