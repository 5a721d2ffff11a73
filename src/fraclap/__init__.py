"""Spectral fractional Poisson solves and box-constrained optimal control.

The package discretizes (-Laplace)^s u = z on the unit square/cube with P1
finite elements, evaluates the inverse fractional power through an
exponentially convergent rational quadrature whose shifted systems are
solved by tailored conjugate gradient methods, and builds linear-quadratic
optimal control solvers (variational and piecewise-constant control
discretizations) on top of it.
"""

from .control import (ControlProblem, ControlSolution, objective,
                      post_process, project_box, reduced_gradient,
                      solve_fully_discrete, solve_variational)
from .fem import (CellwiseFunction, NodalFunction, assemble_load,
                  assemble_mass, assemble_stiffness, h1_seminorm, interpolate,
                  l2_inner, l2_norm, lump_mass, project_p0)
from .fractional import (FractionalSolveResult, SincQuadrature, SolveOptions,
                         fractional_solve, quadrature_for_mesh,
                         sinc_quadrature, solve_all_shifted,
                         spectral_oracle_solve)
from .harness import (ExperimentConfig, RateTable, compute_rates, hat_rhs,
                      hs_error_surrogate, run_control_convergence,
                      run_solver_stats, run_state_convergence)
from .mesh import (Mesh, cell_parents, eval_p1, prolongation_matrix,
                   read_mesh, refine_uniform, unit_cube_mesh,
                   unit_square_mesh, write_mesh)
from .shifted import SolveStats, solve_family

__version__ = "0.1.0"
