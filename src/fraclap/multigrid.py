"""Preconditioners for the shifted systems (A + alpha * M_h).

The workhorse is a geometric multigrid V-cycle on the structured refinement
hierarchy (damped Jacobi smoothing, two pre/post sweeps, one symmetric
cycle per application: a second cycle saves only ~7% of the PCG iterations
of the small-shift tail at twice the cost).  For operators that do not come
with a mesh hierarchy a zero-fill incomplete Cholesky factorization is
available as a fallback.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .mesh import Mesh, prolongation_matrix, unit_cube_mesh, unit_square_mesh

__all__ = ["MeshHierarchy", "GeometricMultigrid", "IncompleteCholesky"]

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

    def __init__(self, hierarchy: MeshHierarchy, alpha: float, *,
                 sweeps: int = 2, omega: float = 0.8):
        self.hierarchy = hierarchy
        self.alpha = float(alpha)
        self.sweeps = sweeps
        self.omega = omega
        # shifted operators are prebuilt per level; setups are infrequent
        self._ops = [(A + self.alpha * sp.diags(mh)).tocsr()
                     for A, mh in zip(hierarchy.stiffness,
                                      hierarchy.lumped_mass)]
        self._scaled_inv_diag = [self.omega / L.diagonal() for L in self._ops]
        self._coarse_solve = spla.factorized(self._ops[0].tocsc())

    def _op(self, level: int, x: np.ndarray) -> np.ndarray:
        return self._ops[level] @ x

    def _vcycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == 0:
            return self._coarse_solve(b)
        wd = self._scaled_inv_diag[level]
        x = wd * b
        for _ in range(self.sweeps - 1):
            x += wd * (b - self._op(level, x))
        r = b - self._op(level, x)
        R = self.hierarchy.restrictions[level]
        x += self.hierarchy.prolongations[level] @ self._vcycle(level - 1,
                                                                R @ r)
        for _ in range(self.sweeps):
            x += wd * (b - self._op(level, x))
        return x

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._vcycle(self.hierarchy.n_levels - 1, r)


class IncompleteCholesky:
    """IC(0) approximate inverse of an SPD sparse matrix.

    Fallback preconditioner when no mesh hierarchy is available.  On
    breakdown the diagonal is boosted and the factorization restarted.
    """

    def __init__(self, mat: sp.spmatrix):
        A = sp.csr_matrix(mat)
        n = A.shape[0]
        diag = A.diagonal()
        boost = 0.0
        for _ in range(40):
            ok, L = self._factor(A, diag * (1.0 + boost))
            if ok:
                break
            boost = max(2 * boost, 1e-3)
        else:
            raise RuntimeError("incomplete Cholesky broke down")
        self._L = L
        self._Lt = sp.csr_matrix(L.T)
        self.n = n

    @staticmethod
    def _factor(A: sp.csr_matrix, boosted_diag: np.ndarray):
        n = A.shape[0]
        indptr, indices, data = A.indptr, A.indices, A.data
        rows: list[dict[int, float]] = [dict() for _ in range(n)]
        for i in range(n):
            start, stop = indptr[i], indptr[i + 1]
            cols = indices[start:stop]
            vals = data[start:stop]
            row_i = rows[i]
            lower = sorted((int(j), v) for j, v in zip(cols, vals) if j < i)
            for j, aij in lower:
                row_j = rows[j]
                s = aij
                for t, lit in row_i.items():
                    ljt = row_j.get(t)
                    if ljt is not None:
                        s -= lit * ljt
                row_i[j] = s / row_j[j]
            s = boosted_diag[i] - sum(v * v for v in row_i.values())
            if s <= 0.0:
                return False, None
            row_i[i] = math.sqrt(s)
        rows_idx = np.concatenate([np.full(len(r), i, dtype=np.int64)
                                   for i, r in enumerate(rows)])
        cols_idx = np.concatenate([np.fromiter(r.keys(), dtype=np.int64)
                                   for r in rows])
        vals = np.concatenate([np.fromiter(r.values(), dtype=float)
                               for r in rows])
        L = sp.coo_matrix((vals, (rows_idx, cols_idx)), shape=(n, n)).tocsr()
        return True, L

    def apply(self, r: np.ndarray) -> np.ndarray:
        y = spla.spsolve_triangular(self._L, r, lower=True)
        return spla.spsolve_triangular(self._Lt, y, lower=False)
