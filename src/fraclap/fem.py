"""P1/P0 finite element assembly on simplicial meshes.

All matrices live on the interior degrees of freedom only (homogeneous
Dirichlet values are eliminated, which keeps every operator symmetric
positive definite).  Loads of P1/P0 data are integrated exactly; pointwise
right-hand sides use a fixed degree-2 simplex rule.

Stiffness and mass matrices are assembled together, once per mesh, in one
pass over fixed-size chunks of cells, so that temporaries are bounded by the
chunk rather than the mesh.  Cell gradients and volumes come in closed form
from ``mesh._cell_geometry`` (no per-cell inverse or determinant).  Only the
upper triangle is scattered, and mirroring it makes the matrices exactly
symmetric.  ``_once`` builds every value kept per object: these operators
per mesh, its multigrid hierarchy, and per stiffness matrix the scaled
operator and its deflation space.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, _cell_chunks, _cell_geometry

__all__ = [
    "NodalFunction",
    "CellwiseFunction",
    "assemble_stiffness",
    "assemble_mass",
    "lump_mass",
    "assemble_load",
    "project_p0",
    "interpolate",
    "l2_norm",
    "h1_seminorm",
    "l2_inner",
    "operators",
    "simplex_quadrature",
]


@dataclass(frozen=True, eq=False)
class NodalFunction:
    """Piecewise linear function vanishing on the boundary.

    ``values`` holds the coefficients at interior vertices in mesh dof order.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.mesh.n_interior,):
            raise ValueError("coefficient length must equal the interior dof count")

    def full_values(self) -> np.ndarray:
        out = np.zeros(self.mesh.n_vertices)
        out[self.mesh.interior] = self.values
        return out


@dataclass(frozen=True, eq=False)
class CellwiseFunction:
    """Piecewise constant function, one value per cell."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.mesh.n_cells,):
            raise ValueError("coefficient length must equal the cell count")


# barycentric points and weights (weights sum to 1, scaled by |T| on use)
_QUADRATURE = {
    (2, 2): (np.array([[0.5, 0.5, 0.0],
                       [0.0, 0.5, 0.5],
                       [0.5, 0.0, 0.5]]),
             np.full(3, 1.0 / 3.0)),
    (3, 2): (np.array([[0.5854101966249685, 0.1381966011250105,
                        0.1381966011250105, 0.1381966011250105],
                       [0.1381966011250105, 0.5854101966249685,
                        0.1381966011250105, 0.1381966011250105],
                       [0.1381966011250105, 0.1381966011250105,
                        0.5854101966249685, 0.1381966011250105],
                       [0.1381966011250105, 0.1381966011250105,
                        0.1381966011250105, 0.5854101966249685]]),
             np.full(4, 0.25)),
    # Dunavant degree-4 rule, 6 points, all weights positive
    (2, 4): (np.array([[0.108103018168070, 0.445948490915965, 0.445948490915965],
                       [0.445948490915965, 0.108103018168070, 0.445948490915965],
                       [0.445948490915965, 0.445948490915965, 0.108103018168070],
                       [0.816847572980459, 0.091576213509771, 0.091576213509771],
                       [0.091576213509771, 0.816847572980459, 0.091576213509771],
                       [0.091576213509771, 0.091576213509771, 0.816847572980459]]),
             np.array([0.223381589678011, 0.223381589678011, 0.223381589678011,
                       0.109951743655322, 0.109951743655322, 0.109951743655322])),
}


def simplex_quadrature(dim: int, degree: int):
    """Barycentric quadrature rule exact for polynomials up to ``degree``."""
    key = (dim, 2 if degree <= 2 else 4)
    if key not in _QUADRATURE:
        raise ValueError(f"no rule for dim={dim}, degree={degree}")
    return _QUADRATURE[key]


def _assemble_operators(mesh: Mesh):
    """Stiffness and mass matrices in one chunked pass over the cells.

    Each chunk scatters the local pairs a <= b of its cells to the upper
    triangle (row <= column), the stiffness entry as the real and the mass
    entry as the imaginary part of one complex value, so that both share the
    index work and one COO->CSR conversion; the chunk's CSR is added to the
    running upper triangle U.  The result is mirrored as U + U^T - diag(U),
    which is exactly symmetric.
    """
    n = mesh.n_interior
    d1 = mesh.dim + 1
    ia, ib = np.triu_indices(d1)
    mass_ref = np.where(ia == ib, 2.0, 1.0)[:, None] / (d1 * (d1 + 1))
    idx = np.int32 if mesh.n_vertices <= np.iinfo(np.int32).max else np.int64
    dof = mesh.dof_index.astype(idx)
    upper = sp.csr_matrix((n, n), dtype=complex)
    for chunk in _cell_chunks(mesh.n_cells):
        cells = mesh.cells[chunk]
        grads, vol = _cell_geometry(mesh.vertices, cells)
        vol = np.abs(vol)
        local = np.empty((ia.size, vol.size), dtype=complex)
        for p, (a, b) in enumerate(zip(ia, ib)):
            local.real[p] = np.einsum("dc,dc->c", grads[a], grads[b]) * vol
        local.imag = mass_ref * vol
        ends = dof[cells.T]
        rows = np.minimum(ends[ia], ends[ib]).T
        cols = np.maximum(ends[ia], ends[ib]).T
        keep = rows >= 0                       # both ends interior
        # cell-major entry order keeps the CSR conversion's writes local
        upper = upper + sp.csr_matrix(
            (local.T[keep], (rows[keep], cols[keep])), shape=(n, n))
    # each non-empty row of U starts with its diagonal: halving it turns
    # U + U^T into U + U^T - diag(U)
    starts = upper.indptr[:-1][np.diff(upper.indptr) > 0]
    upper.data[starts] *= 0.5
    full = upper + upper.T.tocsr()
    del upper
    A = sp.csr_matrix((full.data.real.copy(), full.indices.copy(),
                       full.indptr.copy()), shape=(n, n))
    A.eliminate_zeros()                        # couplings that cancel exactly
    M = sp.csr_matrix((full.data.imag.copy(), full.indices, full.indptr),
                      shape=(n, n))
    return A, M


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Stiffness matrix of the Dirichlet Laplacian on interior dofs."""
    return operators(mesh).stiffness.copy()


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix on interior dofs (exact integration)."""
    return operators(mesh).mass.copy()


def lump_mass(M: sp.spmatrix) -> np.ndarray:
    """Row-sum lumping; returns the diagonal as a vector."""
    diag = np.asarray(M.sum(axis=1)).ravel()
    bad = np.flatnonzero(~((diag > 0.0) & np.isfinite(diag)))
    if bad.size:
        raise ValueError("lumped mass must be finite and positive; "
                         f"entry {bad[0]} is {diag[bad[0]]}")
    return diag


class Operators(NamedTuple):
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    lumped_mass: np.ndarray


_UNSET = object()
_built: dict = {}
_built_lock = threading.Lock()


class _Slot:
    __slots__ = ("lock", "value")

    def __init__(self):
        self.lock, self.value = threading.Lock(), _UNSET


def _once(owner, kind: str, build: Callable, keep: Callable | None = None):
    """``build()``, run once per live ``owner`` and ``kind`` (again only
    when ``keep(value)`` is false), its value shared by every caller.

    Each slot's lock makes its check and build one step: concurrent callers
    wait and share one build, while other owners build beside it.  The slot
    is popped when its owner is collected, by a finalizer that takes no
    lock, as the collector may run it on a thread that holds one."""
    key = (id(owner), kind)
    with _built_lock:
        slot = _built.get(key)
        if slot is None:
            slot = _built[key] = _Slot()
            weakref.finalize(owner, _built.pop, key, None)
    with slot.lock:
        if slot.value is _UNSET or (keep is not None and not keep(slot.value)):
            slot.value = build()
        return slot.value


def operators(mesh: Mesh) -> Operators:
    """Assembled (A, M, lumped M) for a mesh, built once per mesh object."""
    def build():
        A, M = _assemble_operators(mesh)
        return Operators(A, M, lump_mass(M))
    return _once(mesh, "operators", build)


def _quad_points(mesh: Mesh, degree: int):
    lam, w = simplex_quadrature(mesh.dim, degree)
    pts = np.einsum("qk,ckd->cqd", lam, mesh.vertices[mesh.cells])
    return lam, w, pts


def assemble_load(mesh: Mesh, f) -> np.ndarray:
    """Load vector (f, phi_i) over interior dofs.

    P1 and P0 inputs are integrated exactly; callables with a degree-2 rule.
    """
    if isinstance(f, NodalFunction):
        if f.mesh is not mesh:
            raise ValueError("mesh mismatch")
        return operators(mesh).mass @ f.values
    d1 = mesh.dim + 1
    if isinstance(f, CellwiseFunction):
        if f.mesh is not mesh:
            raise ValueError("mesh mismatch")
        contrib = f.values * mesh.volumes / d1
        out = np.zeros(mesh.n_vertices)
        np.add.at(out, mesh.cells.ravel(),
                  np.repeat(contrib, d1))
        return out[mesh.interior]
    lam, w, pts = _quad_points(mesh, degree=2)
    fvals = f(pts.reshape(-1, mesh.dim)).reshape(mesh.n_cells, -1)
    cell_contrib = np.einsum("c,q,cq,qk->ck", mesh.volumes, w, fvals, lam)
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.cells.ravel(), cell_contrib.ravel())
    return out[mesh.interior]


def project_p0(mesh: Mesh, v) -> CellwiseFunction:
    """L2-orthogonal projection onto piecewise constants (cell means)."""
    if isinstance(v, CellwiseFunction):
        if v.mesh is not mesh:
            raise ValueError("mesh mismatch")
        return CellwiseFunction(mesh, v.values.copy())
    if isinstance(v, NodalFunction):
        if v.mesh is not mesh:
            raise ValueError("mesh mismatch")
        full = v.full_values()
        return CellwiseFunction(mesh, full[mesh.cells].mean(axis=1))
    lam, w, pts = _quad_points(mesh, degree=2)
    fvals = v(pts.reshape(-1, mesh.dim)).reshape(mesh.n_cells, -1)
    return CellwiseFunction(mesh, fvals @ w)


def interpolate(mesh: Mesh, f: Callable) -> NodalFunction:
    """Nodal interpolant of a pointwise function (boundary values dropped)."""
    vals = f(mesh.vertices[mesh.interior])
    return NodalFunction(mesh, np.asarray(vals, dtype=float))


def l2_norm(v) -> float:
    """L2 norm via the Gram matrix (P1) or cell volumes (P0)."""
    if isinstance(v, NodalFunction):
        M = operators(v.mesh).mass
        return float(np.sqrt(max(v.values @ (M @ v.values), 0.0)))
    if isinstance(v, CellwiseFunction):
        return float(np.sqrt(v.mesh.volumes @ (v.values ** 2)))
    raise TypeError("expected a NodalFunction or CellwiseFunction")


def h1_seminorm(v: NodalFunction) -> float:
    """H1 seminorm via the stiffness Gram matrix."""
    A = operators(v.mesh).stiffness
    return float(np.sqrt(max(v.values @ (A @ v.values), 0.0)))


def l2_inner(u, v) -> float:
    """Exact L2 inner product of P1/P0 functions on a shared mesh."""
    if u.mesh is not v.mesh:
        raise ValueError("mesh mismatch")
    if isinstance(u, NodalFunction) and isinstance(v, NodalFunction):
        return float(u.values @ (operators(u.mesh).mass @ v.values))
    if isinstance(u, CellwiseFunction) and isinstance(v, CellwiseFunction):
        return float(u.mesh.volumes @ (u.values * v.values))
    if isinstance(u, CellwiseFunction):
        u, v = v, u
    # P1 against P0: the integral of P1 over a simplex is |T| * vertex mean
    mesh = u.mesh
    means = u.full_values()[mesh.cells].mean(axis=1)
    return float(mesh.volumes @ (means * v.values))
