"""Box-constrained linear-quadratic optimal control of the fractional solve.

Minimizes J(z) = 1/2 ||S z - u_d||^2 + mu/2 ||z||^2 over controls z with
a <= z <= b, where S is the discrete fractional solution operator.  Two
discretizations are supported:

* ``variational``: the control is induced by the adjoint through the nodal
  projection formula z = clamp(-p/mu); the admissible set itself is never
  meshed.  The solver is a projected gradient iteration whose fixed points
  are exactly that formula.
* ``p0``: the control is piecewise constant with cellwise bounds; the
  gradient representative in the P0 inner product is Q_h p + mu z.

The mode picks one control space (function class and length) that every
control goes through; both solves check the mode, ``tol`` and ``z0`` before
any fractional solve, and leave through one exit.

One optimizer serves both modes: a projected gradient phase with spectral
(Barzilai-Borwein) trial steps and an Armijo backtracking line search, so
the objective is non-increasing across accepted iterates; unless it
converges, an active-set polish finishes the optimality system directly
once the projected step can no longer descend or the residual stagnates.

All its fractional solves share one operator.  On a 2D mesh the solver
turns on ``SolveOptions.deflate`` for them, so the operator keeps its
lowest eigenpairs (built on the first solve, once per operator, not
counted in the solve statistics) and every Lanczos scan deflates them;
``objective`` and ``reduced_gradient`` solve with the options as given.

Each iteration of both phases emits one DEBUG record on the
``fraclap.control`` logger (phase, iteration, residual, objective, step
length, fractional solves so far and, on a phase's last record, why it
ended), also attached to the record as its ``control`` attribute.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

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

_log = logging.getLogger(__name__)

# projected gradient steps before the active-set polish takes over
_MAX_ITERATIONS = 5000


@dataclass(eq=False)
class ControlProblem:
    """Problem data: 0 < s < 1, finite mu > 0, lower <= 0 <= upper."""

    mesh: Mesh
    s: float
    mu: float
    lower: float
    upper: float
    desired: NodalFunction
    mode: str = VARIATIONAL
    options: SolveOptions = field(default_factory=SolveOptions)

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if not self.lower <= 0.0 <= self.upper:
            raise ValueError("bounds must satisfy lower <= 0 <= upper")
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
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
    if not lower <= upper:
        raise ValueError(f"empty box [{lower}, {upper}]: need lower <= upper")
    if isinstance(values, NodalFunction):
        return NodalFunction(values.mesh, np.clip(values.values, lower, upper))
    if isinstance(values, CellwiseFunction):
        return CellwiseFunction(values.mesh,
                                np.clip(values.values, lower, upper))
    return np.clip(np.asarray(values, dtype=float), lower, upper)


class _Reduced:
    """Reduced-functional evaluations in the mode's control space: its
    function class ``space`` and length ``n``.  Every fractional solve goes
    through ``solve``, which counts it in ``n_solves`` and sums its
    statistics into ``stats``, deflated when ``deflate`` is set."""

    def __init__(self, problem: ControlProblem, deflate: bool = False):
        self.problem = problem
        self.mesh = mesh = problem.mesh
        variational = problem.mode == VARIATIONAL
        self.space = NodalFunction if variational else CellwiseFunction
        self.n = mesh.n_interior if variational else mesh.n_cells
        self.options = replace(problem.options, deflate=True) if deflate \
            else problem.options
        self.stats = SolveStats()
        self.n_solves = 0

    def solve(self, rhs) -> NodalFunction:
        """S applied to ``rhs`` (a P1 or P0 function)."""
        res = fractional_solve(self.mesh, self.problem.s, rhs, self.options)
        self.n_solves += 1
        agg = self.stats
        agg.n_alg1 += res.stats.n_alg1
        agg.n_alg2 += res.stats.n_alg2
        agg.n_prec_setups += res.stats.n_prec_setups
        agg.n_matvec += res.stats.n_matvec
        return res.u

    def _wrap(self, values: np.ndarray):
        return self.space(self.mesh, values)

    def control_values(self, z, name: str) -> np.ndarray:
        """The values of control ``z``, a function or an array, checked."""
        vals = np.asarray(getattr(z, "values", z), dtype=float)
        if vals.shape != (self.n,):
            raise ValueError(f"{name} must hold {self.n} values in the "
                             f"{self.space.__name__} space, got {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError(f"{name} must be finite")
        return vals

    def state(self, z_values: np.ndarray) -> NodalFunction:
        return self.solve(self._wrap(z_values))

    def adjoint(self, u: NodalFunction) -> NodalFunction:
        return self.solve(NodalFunction(
            self.mesh, u.values - self.problem.desired.values))

    def evaluate(self, z_values: np.ndarray):
        """``(u, p, g)``: state, adjoint and gradient values at ``z``."""
        u = self.state(z_values)
        p = self.adjoint(u)
        return u, p, self.gradient_values(z_values, p)

    def value(self, z_values: np.ndarray, u: NodalFunction) -> float:
        diff = NodalFunction(self.mesh,
                             u.values - self.problem.desired.values)
        misfit = fem.l2_norm(diff)
        reg = fem.l2_norm(self._wrap(z_values))
        return 0.5 * misfit ** 2 + 0.5 * self.problem.mu * reg ** 2

    def gradient_values(self, z_values: np.ndarray,
                        p: NodalFunction) -> np.ndarray:
        if self.space is CellwiseFunction:
            p = fem.project_p0(self.mesh, p)
        return p.values + self.problem.mu * z_values

    def pairing(self, g_values: np.ndarray, d_values: np.ndarray) -> float:
        """L2 pairing (g, d) in the mode's control space."""
        return fem.l2_inner(self._wrap(d_values), self._wrap(g_values))


def objective(problem: ControlProblem, z) -> float:
    """J(z) for a control in the mode's space (one fractional solve)."""
    red = _Reduced(problem)
    z_values = red.control_values(z, "z")
    return red.value(z_values, red.state(z_values))


def reduced_gradient(problem: ControlProblem, z):
    """L2-Riesz representative of dJ at z in the mode's control space."""
    red = _Reduced(problem)
    _, _, g = red.evaluate(red.control_values(z, "z"))
    return red._wrap(g)


def _stationarity(z, g, lower, upper) -> float:
    """l2 norm of the step-one projected gradient z - clamp(z - g)."""
    return float(np.linalg.norm(z - np.clip(z - g, lower, upper)))


def _record(phase: str, it: int, res: float, J: float, t, n_solves: int,
            reason=None) -> None:
    """One DEBUG record of a control iteration: its iterate's residual and
    objective, the step length taken from it (None when the phase ends
    there), the fractional solves so far, and why the phase ended."""
    info = {"phase": phase, "iteration": it, "residual": res,
            "objective": J, "step": t, "solves": n_solves, "exit": reason}
    _log.debug("control %s iteration %d: residual %.6e, objective %.15e, "
               "step %s, %d fractional solves, exit %s", phase, it, res, J,
               "-" if t is None else f"{t:.6e}", n_solves, reason or "-",
               extra={"control": info})


def _solve(problem: ControlProblem, tol: float, z0,
           mode: str) -> ControlSolution:
    """Two-phase solve of the box-constrained optimality system in ``mode``.

    Phase one is a projected gradient method with spectral trial steps and
    Armijo backtracking, so the objective is strictly non-increasing across
    its accepted steps.  It ends at one exit, with its reason: the residual
    meets the threshold ("converged") or stagnates over six steps, a trial
    step's slope is not negative ("ascent", no solve needed to tell: with
    the free set fixed, clipping the M-Riesz gradient node by node, paired
    with the consistent mass matrix, can give an ascent direction that no
    step length repairs), or the line search fails.  Unless it converged,
    the active-set polish then solves the free-node stationarity system
    mu*z + g_state = 0 directly (a Krylov solve of the reduced operator).
    """
    if problem.mode != mode:
        raise ValueError(f"problem mode must be {mode!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    mesh = problem.mesh
    # in 2D every fractional solve deflates the operator's lowest
    # eigenmodes; in 3D the sparse LU this takes fills too much
    red = _Reduced(problem, deflate=mesh.dim == 2)
    debug = _log.isEnabledFor(logging.DEBUG)
    lo, up, mu = problem.lower, problem.upper, problem.mu
    z = np.zeros(red.n) if z0 is None else red.control_values(z0, "z0")
    z = np.clip(z, lo, up)

    u, p, g = red.evaluate(z)
    J = red.value(z, u)
    threshold = tol * math.sqrt(mesh.h ** mesh.dim)
    step = 1.0 / (mu + 1.0)
    armijo = 1e-4
    objective_history = [J]
    residual_history = []
    res_window: list[float] = []
    it = 0
    reason = None

    while it < _MAX_ITERATIONS:
        res = _stationarity(z, g, lo, up)
        residual_history.append(res)
        reason = "converged" if res <= threshold else None

        # stagnation of the residual marks the solver-noise floor
        res_window.append(res)
        if len(res_window) > 6:
            res_window.pop(0)
            if reason is None and res > 0.8 * max(res_window[:3]):
                reason = "stagnation window"

        # the adjoint is solved only once a trial step is accepted
        t = step
        if reason is None:
            for _ in range(20):
                z_trial = np.clip(z - t * g, lo, up)
                slope = red.pairing(g, z_trial - z)
                if slope >= 0.0:
                    reason = "ascent"
                    break
                u_trial = red.state(z_trial)
                J_trial = red.value(z_trial, u_trial)
                if J_trial <= J + armijo * slope:
                    break
                t *= 0.25
            else:
                reason = "line search failed"
        if debug:
            _record("projected gradient", it, res, J,
                    None if reason else t, red.n_solves, reason)
        if reason is not None:
            break

        p_trial = red.adjoint(u_trial)
        g_trial = red.gradient_values(z_trial, p_trial)
        dz = z_trial - z
        dg = g_trial - g
        num = red.pairing(dz, dz)
        den = red.pairing(dg, dz)
        step = num / den if den > 0 else 1.0 / (mu + 1.0)
        step = min(max(step, 1e-8), 1e8)
        z, u, p, g, J = z_trial, u_trial, p_trial, g_trial, J_trial
        objective_history.append(J)
        it += 1

    # Semismooth polish: freeze the active set predicted by the projection
    # formula and solve the free-component stationarity system
    # mu*z_F + g_state(z)_F = 0 with GMRES (matvec = two fractional solves),
    # for the correction from the current point.  Phase one leaves u, p and
    # g current for z; its residual is stale if it ran out of iterations.
    def hessian(v):
        """H v, the reduced Hessian's product (two fractional solves); the
        gradient is affine in z, g(z + v) = g(z) + H v."""
        return red.gradient_values(v, red.solve(red.state(v)))

    if reason != "converged":
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
                    nonlocal it
                    v = np.zeros_like(z_new)
                    v[free] = v_free
                    gv = hessian(v)
                    it += 1
                    return mu * v_free + (gv - mu * v)[free]

                # the gradient at z_new; one Hessian product when the
                # active set moved it away from z
                dz = z_new - z
                rhs = -(g + hessian(dz) if dz.any() else g)[free]
                op = LinearOperator((nf, nf), matvec=matvec, dtype=float)
                rhs_norm = float(np.linalg.norm(rhs))
                target = max(0.05 * threshold, 1e-13 * max(rhs_norm, 1.0))
                x, info = gmres(op, rhs, atol=target, rtol=0.0, restart=60,
                                maxiter=3)
                z_new[free] += x
            z = np.clip(z_new, lo, up)
            u, p, g = red.evaluate(z)
            res = _stationarity(z, g, lo, up)
            it += 1
            if debug:
                _record("polish", it, res, red.value(z, u), None, red.n_solves,
                        "converged" if res <= threshold else None)
        else:
            residual_history.append(res)
            if res > threshold:
                raise RuntimeError(
                    "active-set polish did not reach the stopping tolerance; "
                    "residual history tail: "
                    f"{[f'{r:.3e}' for r in residual_history[-8:]]}")

    return ControlSolution(
        control=red._wrap(z), state=u, adjoint=p, objective=red.value(z, u),
        iterations=it, residual=res, stats=red.stats, mode=mode,
        objective_history=objective_history,
        residual_history=residual_history)


def solve_variational(problem: ControlProblem, tol: float = 1e-5,
                      z0: np.ndarray | None = None) -> ControlSolution:
    """Variational-discretization solve.

    At convergence the control equals clamp(-p/mu) at every node up to the
    stationarity tolerance, mirroring the continuous projection formula.
    """
    return _solve(problem, tol, z0, VARIATIONAL)


def solve_fully_discrete(problem: ControlProblem, tol: float = 1e-5,
                         z0: np.ndarray | None = None) -> ControlSolution:
    """Piecewise-constant control solve with cellwise box constraints.

    At convergence the control equals clamp(-Q_h p / mu) on every cell up to
    the stationarity tolerance, Q_h being the L2 projection onto P0.
    """
    return _solve(problem, tol, z0, FULLY_DISCRETE)


def post_process(problem: ControlProblem,
                 solution: ControlSolution) -> NodalFunction:
    """Piecewise-linear control recovered from a P0 solve's adjoint.

    Evaluates clamp(-p/mu) at the nodes, which upgrades the piecewise
    constant approximation to the accuracy of the variational one.
    """
    values = np.clip(-solution.adjoint.values / problem.mu,
                     problem.lower, problem.upper)
    return NodalFunction(problem.mesh, values)
