"""Discrete spectral fractional Poisson solver.

``fractional_solve`` evaluates u = (-Laplace)^{-s} z on a mesh by combining
the solutions of the shifted systems (A + e^{kl} M_h) V^l = Z with
exponentially graded quadrature weights; the quadrature step k is tied to
the mesh size so that the quadrature error stays below the finite element
error.  ``spectral_oracle_solve`` computes the same operator exactly through
a dense eigendecomposition and serves as the validation oracle on small
meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import CellwiseFunction, NodalFunction
from .mesh import Mesh
from .multigrid import GeometricMultigrid, MeshHierarchy
from .shifted import _SCAN_MAX, SolveStats, solve_family

__all__ = [
    "SincQuadrature",
    "sinc_quadrature",
    "quadrature_for_mesh",
    "SolveOptions",
    "FractionalSolveResult",
    "fractional_solve",
    "solve_all_shifted",
    "spectral_oracle_solve",
]


@dataclass(frozen=True, eq=False)
class SincQuadrature:
    """Exponentially graded quadrature for the inverse fractional power.

    Nodes are alpha_l = e^{k l} for l = -n_minus .. n_plus with
    n_plus = ceil(pi^2 / (4 s k^2)) and n_minus = ceil(pi^2 / (4 (1-s) k^2));
    the weight of node l is (sin(s pi)/pi) * k * e^{(1-s) k l}.
    """

    s: float
    k: float
    n_plus: int
    n_minus: int
    l: np.ndarray
    shifts: np.ndarray
    weights: np.ndarray

    @property
    def n_systems(self) -> int:
        return self.n_plus + self.n_minus + 1


def sinc_quadrature(s: float, k: float) -> SincQuadrature:
    """Quadrature nodes/weights for fractional power s and step k."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    if k <= 0.0:
        raise ValueError("k must be positive")
    n_plus = math.ceil(np.pi ** 2 / (4.0 * s * k * k))
    n_minus = math.ceil(np.pi ** 2 / (4.0 * (1.0 - s) * k * k))
    if k * n_plus > 700.0:
        raise ValueError("quadrature nodes overflow double precision; "
                         "use a larger k or a coarser mesh")
    l = np.arange(-n_minus, n_plus + 1, dtype=np.int64)
    shifts = np.exp(k * l.astype(float))
    # log-space evaluation keeps the large-l weights finite
    log_w = math.log(k * math.sin(s * np.pi) / np.pi) + (1.0 - s) * k * l
    weights = np.exp(log_w)
    return SincQuadrature(s=s, k=k, n_plus=n_plus, n_minus=n_minus,
                          l=l, shifts=shifts, weights=weights)


def quadrature_for_mesh(s: float, h: float, c_k: float = 1.1) -> SincQuadrature:
    """Quadrature with k = c_k / log(2/h), balancing both error sources."""
    if h <= 0.0 or c_k <= 0.0:
        raise ValueError("h and c_k must be positive")
    return sinc_quadrature(s, c_k / math.log(2.0 / h))


@dataclass
class SolveOptions:
    """Configuration of a fractional solve.

    ``n_max`` caps the multishift Lanczos scan (1500 vectors by default);
    a family solve keeps at most ``shifted._STORED_MAX`` (500) of them in
    memory and regenerates the rest in a second pass.  Individual systems
    are solved to a relative residual of ``rtol``.  ``k`` overrides the
    mesh-coupled quadrature step, and with it ``c_k`` (used by convergence
    studies that sweep the quadrature alone).  The preconditioner follows
    the mesh: geometric multigrid on the structured unit-square/cube
    meshes, symmetric Gauss-Seidel on any other mesh; the sequential solver
    rebuilds it after a system that needed more than ``shifted._ITER_CAP``
    iterations.
    """

    c_k: float = 1.1
    k: float | None = None
    rtol: float = 1e-8
    n_max: int = _SCAN_MAX

    def __post_init__(self):
        if self.k is not None and self.c_k != SolveOptions.c_k:
            raise ValueError("c_k has no effect when k is given; "
                             "pass one of them")


@dataclass(eq=False)
class FractionalSolveResult:
    u: NodalFunction
    stats: SolveStats
    quadrature: SincQuadrature


def _as_load(mesh: Mesh, rhs) -> np.ndarray:
    if isinstance(rhs, np.ndarray):
        rhs = NodalFunction(mesh, np.asarray(rhs, dtype=float))
    if isinstance(rhs, (NodalFunction, CellwiseFunction)) or callable(rhs):
        return fem.assemble_load(mesh, rhs)
    raise TypeError("rhs must be a NodalFunction, CellwiseFunction, "
                    "callable, or coefficient array")


def _prec_factory(mesh: Mesh):
    """Geometric multigrid on structured meshes, on a hierarchy built at the
    first set-up; None otherwise, so that the family solve builds its
    default symmetric Gauss-Seidel preconditioner."""
    if mesh.cells_per_side is None:
        return None
    return lambda alpha: GeometricMultigrid(MeshHierarchy.for_mesh(mesh),
                                            alpha)


def _solve_quadrature(mesh: Mesh, s: float, rhs, options: SolveOptions | None,
                      weighted: bool):
    """``(values, stats, quad)`` of the shifted family the quadrature for
    ``s`` defines: the weighted combination, or one row per node."""
    options = options or SolveOptions()
    quad = sinc_quadrature(s, options.k) if options.k is not None else \
        quadrature_for_mesh(s, mesh.h, options.c_k)
    Z = _as_load(mesh, rhs)
    ops = fem.operators(mesh)
    values, stats = solve_family(
        ops.stiffness, ops.lumped_mass, quad.shifts, Z,
        labels=quad.l, weights=quad.weights if weighted else None,
        rtol=options.rtol, n_max=options.n_max,
        prec_factory=_prec_factory(mesh))
    return values, stats, quad


def fractional_solve(mesh: Mesh, s: float, rhs,
                     options: SolveOptions | None = None) -> FractionalSolveResult:
    """Approximate u with (-Laplace)^s u = rhs, u = 0 on the boundary."""
    u_values, stats, quad = _solve_quadrature(mesh, s, rhs, options,
                                              weighted=True)
    return FractionalSolveResult(u=NodalFunction(mesh, u_values),
                                 stats=stats, quadrature=quad)


def solve_all_shifted(mesh: Mesh, s: float, rhs,
                      options: SolveOptions | None = None):
    """All shifted-system solutions (one row per quadrature node) and stats.

    Materializes every V^l, so this is intended for small meshes and tests;
    ``fractional_solve`` combines the solutions on the fly instead.
    """
    return _solve_quadrature(mesh, s, rhs, options, weighted=False)


_ORACLE_DOF_CAP = 5000


def spectral_oracle_solve(mesh: Mesh, s: float, rhs) -> NodalFunction:
    """Exact fractional power of the lumped-mass discrete Laplacian.

    Dense eigendecomposition of M_h^{-1/2} A M_h^{-1/2}; refuses meshes with
    more than 5000 interior dofs.  Accepts s in [0, 1] so the integer-power
    endpoints can be cross-checked.
    """
    if mesh.n_interior > _ORACLE_DOF_CAP:
        raise ValueError("spectral oracle is limited to small meshes "
                         f"(<= {_ORACLE_DOF_CAP} interior dofs)")
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    ops = fem.operators(mesh)
    Z = _as_load(mesh, rhs)
    d = 1.0 / np.sqrt(ops.lumped_mass)
    a_hat = (d[:, None] * ops.stiffness.toarray()) * d[None, :]
    a_hat = (a_hat + a_hat.T) / 2.0
    lam, Q = np.linalg.eigh(a_hat)
    u = d * (Q @ (lam ** (-s) * (Q.T @ (d * Z))))
    return NodalFunction(mesh, u)
