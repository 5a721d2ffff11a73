"""The benchmark's workloads: seeded inputs, top-level solves, output checks.

Seed 0 gives the paper's data unperturbed: the clamped hat right-hand side
for the state workloads and the eigenfunction desired state for the control
workload.  Any other seed adds ``eps * sum_k c_k phi_k`` to that data, with
``c_k`` drawn uniformly from [-1, 1] by ``numpy.random.default_rng(seed)``
and ``phi_k`` smooth low-frequency modes ``prod_d sin(k_d pi x_d)`` with odd
``k_d``, summed over the permutations of the coordinates.  Like the paper's
data, the modes are invariant under the mesh's symmetries (swapping
coordinates and ``x -> 1 - x``): a perturbation that breaks them lets CG
see the whole spectrum, which costs about 30% more iterations than the
unperturbed data and would make seed 0 an outlier.  A workload with
``problems > 1`` draws that many independent perturbations per seed.  The
library only receives the generated arrays.

Every library call goes through a module or class attribute looked up at
call time, so the traced run's wrappers see it.

Output references (``reference.json``, written by ``record_reference.py``)
hold for every seed:

* State solves are linear in the data, so with the data written as
  ``a @ B`` (``B`` = base data and modes, ``a = [1, eps * c]``) the
  references are the quadratic forms ``a G a`` of Gram matrices of the
  solutions of the rows of ``B``.
* The optimal control objective ``J*(u_d)`` is convex in the desired state
  with gradient ``-M (u* - u_d)`` and Hessian at most ``M`` (partial
  minimization of a jointly convex quadratic over a convex set), so for
  ``u_d = u_d0 + d`` it lies in ``[J0 + g.d, J0 + g.d + d M d / 2]``, with
  ``J0`` and ``g`` recorded at seed 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

import fraclap.control
import fraclap.fem
import fraclap.fractional
import fraclap.harness
import fraclap.mesh
import fraclap.multigrid
from fraclap.fem import NodalFunction

# per dimension: the frequencies k_d of each mode, before symmetrizing
MODES = {2: ((1, 1), (1, 3), (3, 3)),
         3: ((1, 1, 1), (1, 1, 3), (1, 3, 3))}

# mu, box and optimality tolerance of the control workload (the paper's
# control study)
CONTROL = {"mu": 0.1, "lower": -0.8, "upper": 0.8, "tol": 1e-5}

# Relative slack of the recorded control objective bracket.  The objective
# of a solve stopped at the optimality tolerance differs from the optimum by
# O(residual^2 / mu) ~ 1e-13, and the inner fractional solves (rtol 1e-8)
# perturb it by ~1e-8 relative; the bracket itself is ~1e-3 wide.
OBJECTIVE_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A round solves every one of ``problems`` seeded data sets at every
    ``s_values`` entry.  ``setups`` is how often set-up is repeated per run
    (``setup_s`` is the median).  ``rtol`` is the state output check's
    relative tolerance: above the solver tolerance (1e-8) and the sinc
    quadrature truncation exp(-pi^2 / (4k)) at the level's quadrature step,
    below the level's finite element error.
    """

    name: str
    kind: str                      # "state" or "control"
    dim: int
    level: int
    s_values: tuple
    setups: int
    eps: float                     # perturbation amplitude per mode
    problems: int = 1
    rtol: float = 0.0


WORKLOADS = {w.name: w for w in (
    # h = 2^-8 sqrt 2: k = 0.187, truncation 1.8e-6; FE error h^2..h^1.6,
    # 3e-5..2.4e-4
    Workload("state_2d_pcg", "state", 2, 8, (0.05, 0.5, 0.95), setups=9,
             eps=2.5e-3, rtol=1e-5),
    # the projected-gradient iteration count moves by +-10% between nearby
    # desired states, so a round averages three of them
    Workload("control_2d_multishift", "control", 2, 7, (0.05,), setups=9,
             eps=1e-2, problems=3),
    # h = 2^-6 sqrt 3: k = 0.256, truncation 6.4e-5; FE error h^2..h^1.6,
    # 7e-4..3e-3
    Workload("state_3d_setup", "state", 3, 6, (0.5,), setups=3, eps=2.5e-3,
             rtol=2e-4),
)}


def weights(workload: Workload, seed: int) -> np.ndarray:
    """Row weights ``a`` (one row per problem) with data = ``a @ B``,
    ``B = basis_data(...)``; seed 0 leaves the data unperturbed."""
    shape = (workload.problems, len(MODES[workload.dim]))
    c = np.zeros(shape) if seed == 0 else \
        np.random.default_rng(abs(seed)).uniform(-1.0, 1.0, shape)
    return np.hstack([np.ones((workload.problems, 1)), workload.eps * c])


def modes(mesh) -> np.ndarray:
    """Nodal values of the perturbation modes, one row per mode."""
    x = mesh.vertices[mesh.interior]
    out = np.zeros((len(MODES[mesh.dim]), mesh.n_interior))
    for row, freqs in enumerate(MODES[mesh.dim]):
        for k in sorted(set(itertools.permutations(freqs))):
            out[row] += np.prod(np.sin(math.pi * np.asarray(k) * x), axis=1)
    return out


def basis_data(workload: Workload, mesh) -> np.ndarray:
    """The paper's data followed by the modes, as nodal value rows."""
    if workload.kind == "state":
        base = fraclap.harness.hat_rhs(mesh).values
    else:
        base = fraclap.fem.interpolate(
            mesh, fraclap.harness.eigen_desired).values
    return np.vstack([base, modes(mesh)])


def build_mesh(workload: Workload):
    m = 2 ** workload.level
    if workload.dim == 2:
        return fraclap.mesh.unit_square_mesh(m)
    return fraclap.mesh.unit_cube_mesh(m)


@dataclass(frozen=True)
class Solve:
    """One top-level solve: ``run()`` is timed, ``check(out)`` is not."""

    label: str
    run: object
    check: object


@dataclass(eq=False)
class Case:
    """A set-up workload: its top-level solves."""

    workload: Workload
    solves: list


def set_up(workload: Workload, seed: int, reference: dict) -> Case:
    """Cold set-up: mesh, ``fem.operators``, ``MeshHierarchy.for_mesh`` and
    the seeded inputs."""
    mesh = build_mesh(workload)
    mass = fraclap.fem.operators(mesh).mass
    fraclap.multigrid.MeshHierarchy.for_mesh(mesh)
    a = weights(workload, seed)
    data = a @ basis_data(workload, mesh)
    ref = reference[workload.name]
    make = _state_solve if workload.kind == "state" else _control_solve
    solves = [make(workload, mesh, mass, NodalFunction(mesh, data[p]), a[p],
                   s, ref[str(s)], f"#{p} s={s}")
              for p in range(workload.problems) for s in workload.s_values]
    return Case(workload, solves)


def _state_solve(workload, mesh, mass, rhs, a, s, ref, label) -> Solve:
    Z = mass @ rhs.values                  # the load the library assembles
    ref_uz = float(a @ np.asarray(ref["uZ"]) @ a)
    ref_norm = math.sqrt(float(a @ np.asarray(ref["uMu"]) @ a))

    def run():
        return fraclap.fractional.fractional_solve(mesh, s, rhs)

    def check(res):
        st = res.stats
        u = res.u.values
        counts = {"systems_multishift": st.n_alg1, "systems_pcg": st.n_alg2,
                  "matvecs": st.n_matvec, "prec_setups": st.n_prec_setups,
                  "iterations": sum(st.iterations.values())}
        finite = bool(np.all(np.isfinite(u)))
        systems = st.n_alg1 + st.n_alg2 == res.quadrature.n_systems
        uz, norm = float(u @ Z), math.sqrt(float(u @ (mass @ u)))
        err = max(abs(uz - ref_uz) / abs(ref_uz),
                  abs(norm - ref_norm) / ref_norm)
        ok = finite and systems and err <= workload.rtol
        return ok, counts, {"finite": finite, "systems_match": systems,
                            "rel_err": err, "rtol": workload.rtol}

    return Solve(label, run, check)


def control_problem(mesh, desired, s):
    return fraclap.control.ControlProblem(
        mesh=mesh, s=s, mu=CONTROL["mu"], lower=CONTROL["lower"],
        upper=CONTROL["upper"], desired=desired, mode="variational")


def solve_control(problem):
    return fraclap.control.solve_variational(problem, tol=CONTROL["tol"])


def _control_solve(workload, mesh, mass, desired, a, s, ref, label) -> Solve:
    problem = control_problem(mesh, desired, s)
    lo, up = CONTROL["lower"], CONTROL["upper"]
    threshold = CONTROL["tol"] * math.sqrt(mesh.h ** mesh.dim)
    # interval holding J* for the desired state u_d0 + sum delta_k phi_k
    delta = a[1:]
    low = ref["J0"] + float(np.asarray(ref["grad"]) @ delta)
    high = low + 0.5 * float(delta @ np.asarray(ref["gram"]) @ delta)
    slack = OBJECTIVE_RTOL * abs(ref["J0"])

    def run():
        return solve_control(problem)

    def check(sol):
        st = sol.stats
        z = sol.control.values
        counts = {"iterations": sol.iterations,
                  "systems_multishift": st.n_alg1, "systems_pcg": st.n_alg2,
                  "matvecs": st.n_matvec, "prec_setups": st.n_prec_setups}
        box = bool(np.all(np.isfinite(z)) and np.all((z >= lo) & (z <= up)))
        residual = sol.residual <= threshold
        obj = low - slack <= sol.objective <= high + slack
        return box and residual and obj, counts, {
            "in_box": box, "residual": sol.residual, "threshold": threshold,
            "objective": sol.objective, "bracket": [low - slack, high + slack]}

    return Solve(label, run, check)
