"""Box-constrained linear-quadratic optimal control of the fractional solve.

Minimizes J(z) = 1/2 ||S z - u_d||^2 + mu/2 ||z||^2 over controls z with
a <= z <= b, where S is the discrete fractional solution operator.  Two
discretizations are supported:

* ``variational``: the control is induced by the adjoint through the nodal
  projection formula z = clamp(-p/mu); the admissible set itself is never
  meshed.  The solver is a projected gradient iteration whose fixed points
  are exactly that formula.
* ``p0``: the control is piecewise constant with cellwise bounds; the
  gradient representative in the P0 inner product is Q_h p + mu z, and
  either a projected gradient loop or L-BFGS-B can drive the minimization.

Both solvers run a projected gradient phase with spectral (Barzilai-Borwein)
trial steps and an Armijo backtracking line search, so the objective is
non-increasing across accepted iterates; once objective differences sink
below the noise of the inner solves, an active-set polish finishes the
optimality system directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import CellwiseFunction, NodalFunction
from .fractional import SolveOptions, fractional_solve
from .mesh import Mesh
from .shifted import SolveStats

__all__ = [
    "ControlProblem",
    "ControlSolution",
    "project_box",
    "objective",
    "reduced_gradient",
    "solve_variational",
    "solve_fully_discrete",
    "post_process",
]

VARIATIONAL = "variational"
FULLY_DISCRETE = "p0"


@dataclass(eq=False)
class ControlProblem:
    """Problem data. Bounds must satisfy lower <= 0 <= upper; mu > 0."""

    mesh: Mesh
    s: float
    mu: float
    lower: float
    upper: float
    desired: NodalFunction
    mode: str = VARIATIONAL
    options: SolveOptions = field(default_factory=SolveOptions)
    max_iterations: int = 5000

    def __post_init__(self):
        if not self.lower <= 0.0 <= self.upper:
            raise ValueError("bounds must satisfy lower <= 0 <= upper")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if self.mode not in (VARIATIONAL, FULLY_DISCRETE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.desired.mesh is not self.mesh:
            raise ValueError("desired state must live on the problem mesh")


@dataclass(eq=False)
class ControlSolution:
    control: NodalFunction | CellwiseFunction
    state: NodalFunction
    adjoint: NodalFunction
    objective: float
    iterations: int
    residual: float
    stats: SolveStats
    mode: str
    objective_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)


def project_box(values, lower: float, upper: float):
    """Componentwise clamp onto [lower, upper]; rejects empty intervals."""
    if lower > upper:
        raise ValueError("empty box: lower > upper")
    if isinstance(values, NodalFunction):
        return NodalFunction(values.mesh, np.clip(values.values, lower, upper))
    if isinstance(values, CellwiseFunction):
        return CellwiseFunction(values.mesh,
                                np.clip(values.values, lower, upper))
    return np.clip(np.asarray(values, dtype=float), lower, upper)


class _Reduced:
    """Reduced-functional evaluations with shared solver statistics."""

    def __init__(self, problem: ControlProblem):
        self.problem = problem
        self.mesh = problem.mesh
        self.ops = fem.operators(problem.mesh)
        self.options = problem.options
        self.stats = SolveStats()
        self.n_solves = 0

    def _accumulate(self, stats: SolveStats):
        agg = self.stats
        agg.n_alg1 += stats.n_alg1
        agg.n_alg2 += stats.n_alg2
        agg.n_prec_setups += stats.n_prec_setups
        agg.n_matvec += stats.n_matvec
        self.n_solves += 1

    def _wrap(self, values: np.ndarray):
        if self.problem.mode == VARIATIONAL:
            return NodalFunction(self.mesh, values)
        return CellwiseFunction(self.mesh, values)

    def state(self, z_values: np.ndarray) -> NodalFunction:
        res = fractional_solve(self.mesh, self.problem.s,
                               self._wrap(z_values), self.options)
        self._accumulate(res.stats)
        return res.u

    def adjoint(self, u: NodalFunction) -> NodalFunction:
        return self.apply_solution_operator(NodalFunction(
            self.mesh, u.values - self.problem.desired.values))

    def apply_solution_operator(self, u: NodalFunction) -> NodalFunction:
        """Plain S applied to a P1 function (no desired-state shift)."""
        res = fractional_solve(self.mesh, self.problem.s, u, self.options)
        self._accumulate(res.stats)
        return res.u

    def value(self, z_values: np.ndarray, u: NodalFunction) -> float:
        diff = NodalFunction(self.mesh,
                             u.values - self.problem.desired.values)
        misfit = fem.l2_norm(diff)
        reg = fem.l2_norm(self._wrap(z_values))
        return 0.5 * misfit ** 2 + 0.5 * self.problem.mu * reg ** 2

    def gradient_values(self, z_values: np.ndarray,
                        p: NodalFunction) -> np.ndarray:
        if self.problem.mode == VARIATIONAL:
            return p.values + self.problem.mu * z_values
        q = fem.project_p0(self.mesh, p)
        return q.values + self.problem.mu * z_values

    def pairing(self, g_values: np.ndarray, d_values: np.ndarray) -> float:
        """L2 pairing (g, d) in the mode's control space."""
        if self.problem.mode == VARIATIONAL:
            return float(d_values @ (self.ops.mass @ g_values))
        return float(self.mesh.volumes @ (g_values * d_values))


def objective(problem: ControlProblem, z) -> float:
    """J(z) for a control in the mode's space (one fractional solve)."""
    red = _Reduced(problem)
    z_values = z.values if hasattr(z, "values") else np.asarray(z, dtype=float)
    u = red.state(z_values)
    return red.value(z_values, u)


def reduced_gradient(problem: ControlProblem, z):
    """L2-Riesz representative of dJ at z in the mode's control space."""
    red = _Reduced(problem)
    z_values = z.values if hasattr(z, "values") else np.asarray(z, dtype=float)
    u = red.state(z_values)
    p = red.adjoint(u)
    return red._wrap(red.gradient_values(z_values, p))


def _stationarity(z, g, lower, upper) -> float:
    """l2 norm of the step-one projected gradient z - clamp(z - g)."""
    return float(np.linalg.norm(z - np.clip(z - g, lower, upper)))


def _projected_descent(problem: ControlProblem, red: _Reduced, tol: float,
                       z0: np.ndarray | None):
    """Two-phase solve of the box-constrained optimality system.

    Phase one is a projected gradient method with spectral trial steps and
    Armijo backtracking, so the objective is strictly non-increasing across
    its accepted steps.  Near the optimum the objective differences drop
    below the noise of the inner fractional solves and can no longer certify
    descent, while the projection-formula residual is still above the
    stopping threshold; from there an active-set polish solves the free-node
    stationarity system mu*z + g_state = 0 directly (a Krylov solve of the
    reduced operator), which drives the residual to the threshold.
    """
    mesh = problem.mesh
    lo, up = problem.lower, problem.upper
    n = mesh.n_interior if problem.mode == VARIATIONAL else mesh.n_cells
    z = np.clip(z0.copy() if z0 is not None else np.zeros(n), lo, up)

    u = red.state(z)
    p = red.adjoint(u)
    g = red.gradient_values(z, p)
    J = red.value(z, u)
    threshold = tol * math.sqrt(mesh.h ** mesh.dim)
    step = 1.0 / (problem.mu + 1.0)
    armijo = 1e-4
    objective_history = [J]
    residual_history = []
    res_window: list[float] = []
    it = 0

    while it < problem.max_iterations:
        res = _stationarity(z, g, lo, up)
        residual_history.append(res)
        if res <= threshold:
            return ControlSolution(
                control=red._wrap(z), state=u, adjoint=p, objective=J,
                iterations=it, residual=res, stats=red.stats,
                mode=problem.mode,
                objective_history=objective_history,
                residual_history=residual_history)

        # stagnation of the residual marks the solver-noise floor
        res_window.append(res)
        if len(res_window) > 6:
            res_window.pop(0)
            if res > 0.8 * max(res_window[:3]):
                break

        t = step
        accepted = False
        for _ in range(20):
            z_trial = np.clip(z - t * g, lo, up)
            d = z_trial - z
            slope = red.pairing(g, d)
            if slope < 0.0:
                u_trial = red.state(z_trial)
                J_trial = red.value(z_trial, u_trial)
                if J_trial <= J + armijo * slope:
                    accepted = True
                    break
            t *= 0.25
        if not accepted:
            break

        p_trial = red.adjoint(u_trial)
        g_trial = red.gradient_values(z_trial, p_trial)
        dz = z_trial - z
        dg = g_trial - g
        num = red.pairing(dz, dz)
        den = red.pairing(dg, dz)
        step = num / den if den > 0 else 1.0 / (problem.mu + 1.0)
        step = min(max(step, 1e-8), 1e8)
        z, u, p, g, J = z_trial, u_trial, p_trial, g_trial, J_trial
        objective_history.append(J)
        it += 1

    return _active_set_polish(problem, red, z, threshold, it,
                              objective_history, residual_history)


def _active_set_polish(problem: ControlProblem, red: _Reduced, z: np.ndarray,
                       threshold: float, it0: int, objective_history,
                       residual_history) -> ControlSolution:
    """Semismooth polish: freeze the active set predicted by the projection
    formula and solve the free-component stationarity system
    mu*z_F + g_state(z)_F = 0 with GMRES (matvec = two fractional solves)."""
    from scipy.sparse.linalg import LinearOperator, gmres

    lo, up = problem.lower, problem.upper
    mu = problem.mu
    iterations = [it0]

    def state_gradient(zv):
        u = red.state(zv)
        p = red.adjoint(u)
        return u, p, red.gradient_values(zv, p)

    u, p, g = state_gradient(z)
    res = _stationarity(z, g, lo, up)
    for _ in range(12):
        residual_history.append(res)
        if res <= threshold:
            break
        w = z - g
        lower_set = w <= lo
        upper_set = w >= up
        free = ~(lower_set | upper_set)
        z_new = np.where(lower_set, lo, np.where(upper_set, up, z))
        if free.any():
            nf = int(free.sum())

            def matvec(v_free):
                v = np.zeros_like(z_new)
                v[free] = v_free
                sv = red.state(v)
                ssv = red.apply_solution_operator(sv)
                gv = red.gradient_values(v, ssv)
                iterations[0] += 1
                return mu * v_free + (gv - mu * v)[free]

            z_fix = z_new.copy()
            z_fix[free] = 0.0
            _, _, g_fix = state_gradient(z_fix)
            rhs = -g_fix[free]
            op = LinearOperator((nf, nf), matvec=matvec)
            rhs_norm = float(np.linalg.norm(rhs))
            target = max(0.05 * threshold, 1e-13 * max(rhs_norm, 1.0))
            x, info = gmres(op, rhs, x0=z[free].copy(), atol=target,
                            rtol=0.0, restart=60, maxiter=3)
            z_new[free] = x
        z = np.clip(z_new, lo, up)
        u, p, g = state_gradient(z)
        res = _stationarity(z, g, lo, up)
        iterations[0] += 1
    else:
        residual_history.append(res)
        if res > threshold:
            raise RuntimeError(
                "active-set polish did not reach the stopping tolerance; "
                "residual history tail: "
                f"{[f'{r:.3e}' for r in residual_history[-8:]]}")

    return ControlSolution(
        control=red._wrap(z), state=u, adjoint=p, objective=red.value(z, u),
        iterations=iterations[0], residual=res, stats=red.stats,
        mode=problem.mode, objective_history=objective_history,
        residual_history=residual_history)


def solve_variational(problem: ControlProblem, tol: float = 1e-5,
                      z0: np.ndarray | None = None) -> ControlSolution:
    """Variational-discretization solve.

    At convergence the control equals clamp(-p/mu) at every node up to the
    stationarity tolerance, mirroring the continuous projection formula.
    """
    if problem.mode != VARIATIONAL:
        raise ValueError("problem mode must be 'variational'")
    return _projected_descent(problem, _Reduced(problem), tol, z0)


def solve_fully_discrete(problem: ControlProblem, tol: float = 1e-5,
                         z0: np.ndarray | None = None,
                         method: str = "projected_gradient") -> ControlSolution:
    """Piecewise-constant control solve with cellwise box constraints.

    ``method`` may be "projected_gradient" (default) or "lbfgsb", which
    drives scipy's bound-constrained quasi-Newton method until the same
    stationarity measure meets the tolerance (falling back to the projected
    gradient loop if L-BFGS-B stops before that).
    """
    if problem.mode != FULLY_DISCRETE:
        raise ValueError("problem mode must be 'p0'")
    red = _Reduced(problem)
    if method == "projected_gradient":
        return _projected_descent(problem, red, tol, z0)
    if method != "lbfgsb":
        raise ValueError(f"unknown method {method!r}")

    from scipy.optimize import minimize

    mesh = problem.mesh
    vols = mesh.volumes
    last = {}

    def fun(z):
        u = red.state(z)
        p = red.adjoint(u)
        g = red.gradient_values(z, p)
        last.update(z=z.copy(), u=u, p=p, J=red.value(z, u), g=g)
        return last["J"], vols * g

    objective_history, residual_history = [], []
    threshold = tol * math.sqrt(mesh.h ** mesh.dim)

    def record(xk):
        # L-BFGS-B reports an iterate only after evaluating it, so the last
        # evaluation is the accepted iterate's
        res = _stationarity(last["z"], last["g"], problem.lower,
                            problem.upper)
        objective_history.append(last["J"])
        residual_history.append(res)
        # stop on the stationarity measure: scipy's own ftol / gtol would
        # go on deciding below the accuracy of the inner solves
        if res <= threshold:
            raise StopIteration

    z_init = np.clip(z0 if z0 is not None else np.zeros(mesh.n_cells),
                     problem.lower, problem.upper)
    out = minimize(fun, z_init, jac=True, method="L-BFGS-B",
                   bounds=[(problem.lower, problem.upper)] * mesh.n_cells,
                   callback=record,
                   options={"maxiter": problem.max_iterations,
                            "ftol": 1e-16, "gtol": 1e-14})
    z = np.clip(out.x, problem.lower, problem.upper)
    if np.array_equal(z, last["z"]):
        u, p, g = last["u"], last["p"], last["g"]
    else:
        u = red.state(z)
        p = red.adjoint(u)
        g = red.gradient_values(z, p)
    res = _stationarity(z, g, problem.lower, problem.upper)
    if res > threshold:
        return _projected_descent(problem, red, tol, z)
    return ControlSolution(control=red._wrap(z), state=u, adjoint=p,
                           objective=red.value(z, u), iterations=out.nit,
                           residual=res, stats=red.stats, mode=problem.mode,
                           objective_history=objective_history,
                           residual_history=residual_history)


def post_process(problem: ControlProblem,
                 solution: ControlSolution) -> NodalFunction:
    """Piecewise-linear control recovered from a P0 solve's adjoint.

    Evaluates clamp(-p/mu) at the nodes, which upgrades the piecewise
    constant approximation to the accuracy of the variational one.
    """
    values = np.clip(-solution.adjoint.values / problem.mu,
                     problem.lower, problem.upper)
    return NodalFunction(problem.mesh, values)
