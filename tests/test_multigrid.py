"""Hierarchy construction and the preconditioners as SPD operators."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fraclap import unit_cube_mesh, unit_square_mesh
from fraclap.multigrid import (GeometricMultigrid, MeshHierarchy,
                               SymmetricGaussSeidel)
from fraclap.fem import operators


class TestMeshHierarchy:
    def test_levels_reach_the_coarse_cap(self):
        hier = MeshHierarchy.for_mesh(unit_square_mesh(128))
        sizes = [m.cells_per_side for m in hier.meshes]
        assert sizes[-1] == 128
        assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
        assert hier.meshes[0].n_interior <= MeshHierarchy.COARSE_DOFS

    def test_cached_per_mesh(self):
        mesh = unit_square_mesh(16)
        assert MeshHierarchy.for_mesh(mesh) is MeshHierarchy.for_mesh(mesh)

    def test_requires_structured_mesh(self):
        mesh = unit_square_mesh(8)
        object.__setattr__(mesh, "cells_per_side", None)
        with pytest.raises(ValueError):
            MeshHierarchy(mesh)


class TestGeometricMultigrid:
    def _prec(self, m=32, alpha=1.0, dim=2):
        mesh = unit_square_mesh(m) if dim == 2 else unit_cube_mesh(m)
        hier = MeshHierarchy.for_mesh(mesh)
        return mesh, GeometricMultigrid(hier, alpha)

    def test_symmetric_positive_on_probes(self):
        rng = np.random.default_rng(0)
        mesh, prec = self._prec(m=64, alpha=3.0)
        n = mesh.n_interior
        for _ in range(5):
            v = rng.standard_normal(n)
            w = rng.standard_normal(n)
            Bv = prec.apply(v)
            Bw = prec.apply(w)
            assert v @ Bv > 0.0
            assert w @ Bv == pytest.approx(v @ Bw, rel=1e-10)

    def test_contracts_the_error(self):
        rng = np.random.default_rng(1)
        mesh, prec = self._prec(m=64, alpha=0.0)
        ops = operators(mesh)
        x_true = rng.standard_normal(mesh.n_interior)
        b = ops.stiffness @ x_true
        x = prec.apply(b)
        rel = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
        assert rel < 0.1

    def test_apply_is_one_vcycle(self):
        rng = np.random.default_rng(4)
        mesh, prec = self._prec(m=128, alpha=3.0)
        assert prec.hierarchy.n_levels > 2
        r = rng.standard_normal(mesh.n_interior)
        top = prec.hierarchy.n_levels - 1
        np.testing.assert_array_equal(prec.apply(r), prec._vcycle(top, r))

    def test_three_dimensional_cycle(self):
        rng = np.random.default_rng(2)
        mesh, prec = self._prec(m=8, alpha=2.0, dim=3)
        ops = operators(mesh)
        x_true = rng.standard_normal(mesh.n_interior)
        b = ops.stiffness @ x_true + 2.0 * (ops.lumped_mass * x_true)
        x = prec.apply(b)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 0.2


class TestSymmetricGaussSeidel:
    def _fem_matrix(self):
        mesh = unit_square_mesh(12)
        ops = operators(mesh)
        return (ops.stiffness + 0.5 * sp.diags(ops.lumped_mass)).tocsr()

    def test_exact_on_diagonal(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.5, 3.0, 25)
        prec = SymmetricGaussSeidel(sp.diags(d).tocsr())
        v = rng.standard_normal(25)
        np.testing.assert_allclose(prec.apply(v), v / d, rtol=1e-12)

    def test_strong_preconditioner_for_fem_matrix(self):
        A = self._fem_matrix()
        prec = SymmetricGaussSeidel(A)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(A.shape[0])
        # SPD on probes and a genuine approximate inverse
        assert v @ prec.apply(v) > 0.0
        x = prec.apply(A @ v)
        assert np.linalg.norm(x - v) / np.linalg.norm(v) < 0.6

    def test_symmetric_on_probes(self):
        A = self._fem_matrix()
        prec = SymmetricGaussSeidel(A)
        rng = np.random.default_rng(6)
        for _ in range(5):
            v = rng.standard_normal(A.shape[0])
            w = rng.standard_normal(A.shape[0])
            assert w @ prec.apply(v) == pytest.approx(v @ prec.apply(w),
                                                      rel=1e-10)

    def test_matches_two_triangular_solves(self):
        A = self._fem_matrix()
        # a random symmetric renumbering, as on a mesh without grid order
        perm = np.random.default_rng(8).permutation(A.shape[0])
        A = A[perm][:, perm].tocsr()
        prec = SymmetricGaussSeidel(A)
        rng = np.random.default_rng(9)
        for _ in range(3):
            r = rng.standard_normal(A.shape[0])
            y = spla.spsolve_triangular(sp.tril(A, format="csr"), r,
                                        lower=True)
            want = spla.spsolve_triangular(sp.triu(A, format="csr"),
                                           A.diagonal() * y, lower=False)
            np.testing.assert_allclose(prec.apply(r), want, rtol=0,
                                       atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_diagonal_raises(self, bad):
        d = np.ones(6)
        d[3] = bad
        with pytest.raises(ValueError, match="entry 3"):
            SymmetricGaussSeidel(sp.diags(d).tocsr())
