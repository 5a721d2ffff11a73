"""Preconditioners for the shifted systems (A + alpha * M_h).

The workhorse is a geometric multigrid V-cycle on the structured refinement
hierarchy (damped Jacobi smoothing, two pre/post sweeps, one symmetric
cycle per application: a second cycle saves only ~7% of the PCG iterations
of the small-shift tail at twice the cost).  For operators that do not come
with a mesh hierarchy one symmetric Gauss-Seidel sweep is the fallback.

Operators whose nonzeros lie on a few diagonals, as the grid operators do
(5 in 2D, 7 in 3D), are stored as DIA matrices: their matvec reads no
column indices and adds each row's products in the same order as the CSR
matvec, so it is faster and gives the same bits.  ``_banded`` is the one
place that decides on that storage and builds it, here for the V-cycle
levels and in ``shifted`` for the scaled operator.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .mesh import Mesh, prolongation_matrix, unit_cube_mesh, unit_square_mesh

__all__ = ["MeshHierarchy", "GeometricMultigrid", "SymmetricGaussSeidel"]


def _banded(mat: sp.csr_matrix):
    """``mat`` as a DIA matrix when its entries lie on few diagonals
    (``n_diagonals * n <= 1.1 * nnz``), else ``mat`` itself.

    Only a canonical CSR matrix (sorted indices, no duplicates) qualifies:
    the DIA matvec adds a row's products in ascending offset order, the CSR
    one in stored column order, so with sorted indices both give the same
    bits (the padding adds zeros).
    """
    n = mat.shape[0]
    if mat.shape[1] != n or n == 0 or not mat.has_canonical_format:
        return mat
    # the entries' offsets j - i, in the index dtype to keep the copies small
    offsets = np.unique(mat.indices - np.repeat(
        np.arange(n, dtype=mat.indices.dtype), np.diff(mat.indptr)))
    if offsets.size * n > 1.1 * mat.nnz:
        return mat
    # filled one diagonal at a time, so that nothing of size nnz is held
    # beside the result; DIA keeps entry (i, j) in column j
    data = np.zeros((offsets.size, n))
    for row, k in zip(data, offsets):
        row[max(k, 0):min(n + k, n)] = mat.diagonal(k)
    return sp.dia_matrix((data, offsets), shape=mat.shape)


_hierarchy_cache: "weakref.WeakKeyDictionary[Mesh, MeshHierarchy]" = \
    weakref.WeakKeyDictionary()


class MeshHierarchy:
    """Nested structured meshes from a small coarse grid up to ``fine``.

    Levels are ordered coarse to fine.  Each level carries its assembled
    stiffness matrix, lumped mass, and the interpolation from the previous
    level.
    """

    # levels coarser than this are replaced by one direct solve
    COARSE_DOFS = 1024

    def __init__(self, fine: Mesh):
        if fine.cells_per_side is None:
            raise ValueError("a mesh hierarchy requires a structured mesh")
        sizes = [fine.cells_per_side]
        while (sizes[-1] % 2 == 0 and sizes[-1] > 2
               and (sizes[-1] - 1) ** fine.dim > self.COARSE_DOFS):
            sizes.append(sizes[-1] // 2)
        sizes.reverse()
        maker = unit_square_mesh if fine.dim == 2 else unit_cube_mesh
        self.meshes = [maker(m) for m in sizes[:-1]] + [fine]
        self.stiffness = []
        self.lumped_mass = []
        for mesh in self.meshes:
            ops = fem.operators(mesh)
            self.stiffness.append(ops.stiffness)
            self.lumped_mass.append(ops.lumped_mass)
        self.prolongations = [None] + [
            prolongation_matrix(self.meshes[i], self.meshes[i + 1])
            for i in range(len(self.meshes) - 1)
        ]
        self.restrictions = [None] + [sp.csr_matrix(P.T)
                                      for P in self.prolongations[1:]]

    @classmethod
    def for_mesh(cls, fine: Mesh) -> "MeshHierarchy":
        hier = _hierarchy_cache.get(fine)
        if hier is None:
            hier = cls(fine)
            _hierarchy_cache[fine] = hier
        return hier

    @property
    def n_levels(self) -> int:
        return len(self.meshes)


class GeometricMultigrid:
    """V-cycle approximate inverse of (A + alpha * M_h) on the finest level.

    Symmetric by construction (matching damped-Jacobi pre/post smoothing and
    adjoint transfer operators), hence usable inside preconditioned CG.
    """

    SWEEPS = 2      # damped-Jacobi sweeps before and after the coarse solve
    OMEGA = 0.8     # their damping factor

    def __init__(self, hierarchy: MeshHierarchy, alpha: float):
        self.hierarchy = hierarchy
        # shifted operators are prebuilt per level, banded above the coarse
        # one; setups are infrequent
        self._ops = [(A + alpha * sp.diags(mh)).tocsr()
                     for A, mh in zip(hierarchy.stiffness,
                                      hierarchy.lumped_mass)]
        self._scaled_inv_diag = [self.OMEGA / L.diagonal() for L in self._ops]
        self._coarse_solve = spla.factorized(self._ops[0].tocsc())
        for level in range(1, len(self._ops)):
            self._ops[level] = _banded(self._ops[level])

    def _vcycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == 0:
            return self._coarse_solve(b)
        op = self._ops[level]
        wd = self._scaled_inv_diag[level]
        x = wd * b
        for _ in range(self.SWEEPS - 1):
            x += wd * (b - op @ x)
        r = b - op @ x
        R = self.hierarchy.restrictions[level]
        x += self.hierarchy.prolongations[level] @ self._vcycle(level - 1,
                                                                R @ r)
        for _ in range(self.SWEEPS):
            x += wd * (b - op @ x)
        return x

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._vcycle(self.hierarchy.n_levels - 1, r)


class SymmetricGaussSeidel:
    """One symmetric Gauss-Seidel sweep, ``M^{-1} r`` for ``M = (D + L) D^{-1}
    (D + L)^T`` with ``D + L`` the lower triangle of ``mat``: the fallback
    when no mesh hierarchy is available.  M is SPD for every symmetric matrix
    with a positive diagonal, so nothing can break down (Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., 10.2).

    Each triangle is factored once, in its natural order and without
    pivoting, which creates no fill, so an application is two triangular
    solves and no set-up."""

    def __init__(self, mat: sp.spmatrix):
        self._diag = d = mat.diagonal()
        bad = np.flatnonzero(~(d > 0.0))
        if bad.size:
            raise ValueError("symmetric Gauss-Seidel needs a positive "
                             f"diagonal; entry {bad[0]} is {d[bad[0]]}")
        self._lower, self._upper = (
            spla.splu(tri.tocsc(), permc_spec="NATURAL",
                      diag_pivot_thresh=0.0)
            for tri in (sp.tril(mat), sp.triu(mat)))

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._upper.solve(self._diag * self._lower.solve(r))
