"""Assembly, loads, the piecewise-constant projection, and norms."""

import dataclasses
import gc
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import fraclap.fem
import fraclap.mesh
import fraclap.multigrid
import fraclap.shifted
from fraclap import (CellwiseFunction, NodalFunction, assemble_load,
                     assemble_mass, assemble_stiffness, h1_seminorm,
                     interpolate, l2_inner, l2_norm, lump_mass, project_p0,
                     read_mesh, refine_uniform, unit_cube_mesh,
                     unit_square_mesh, write_mesh)
from fraclap.fem import operators, simplex_quadrature


def sin_eigenfunction(points):
    return np.sin(np.pi * points[:, 0]) * np.sin(np.pi * points[:, 1])


class TestStiffness:
    def test_single_interior_dof_entry(self):
        A = assemble_stiffness(unit_square_mesh(2))
        np.testing.assert_allclose(A.toarray(), [[4.0]])

    def test_exactly_symmetric(self):
        for mesh in (unit_square_mesh(5), unit_cube_mesh(3)):
            A = assemble_stiffness(mesh)
            assert abs(A - A.T).max() == 0.0

    def test_positive_definite_on_probes(self):
        rng = np.random.default_rng(0)
        mesh = unit_square_mesh(6)
        A = assemble_stiffness(mesh)
        for _ in range(10):
            x = rng.standard_normal(mesh.n_interior)
            assert x @ (A @ x) > 0.0

    def test_five_point_stencil_row(self):
        # uniform interior row: diagonal 4, four axis neighbors -1
        mesh = unit_square_mesh(6)
        A = assemble_stiffness(mesh).toarray()
        inner = [i for i, v in enumerate(mesh.interior)
                 if (np.abs(mesh.vertices[v] - 0.5) < 0.2).all()]
        row = A[inner[0]]
        assert row[inner[0]] == pytest.approx(4.0)
        vals = sorted(np.round(row[row != 0], 12))
        assert vals == [-1.0, -1.0, -1.0, -1.0, 4.0]


def reference_operators(mesh):
    """Per-cell inverse-Jacobian gradients and determinant volumes,
    scattered block by block into dense matrices.  Also returns the sums of
    the contributions' magnitudes, the scale of each entry's rounding."""
    d1 = mesh.dim + 1
    n = mesh.n_interior
    A, A_scale, M = np.zeros((3, n, n))
    ref = (np.ones((d1, d1)) + np.eye(d1)) / (d1 * (d1 + 1))
    for cell in mesh.cells:
        edges = (mesh.vertices[cell[1:]] - mesh.vertices[cell[0]]).T
        grads = np.empty((d1, mesh.dim))
        grads[1:] = np.linalg.inv(edges)
        grads[0] = -grads[1:].sum(axis=0)
        vol = abs(np.linalg.det(edges)) / math.factorial(mesh.dim)
        dofs = mesh.dof_index[cell]
        keep = dofs >= 0
        block, local = np.ix_(dofs[keep], dofs[keep]), np.ix_(keep, keep)
        A[block] += (vol * grads @ grads.T)[local]
        A_scale[block] += np.abs(vol * grads @ grads.T)[local]
        M[block] += (vol * ref)[local]
    return A, A_scale, M


def perturbed_mesh(grid, tmp_path):
    """``grid`` with jittered interior vertices and every third cell listed
    in negative orientation, read back as an unstructured mesh."""
    rng = np.random.default_rng(7)
    vertices = grid.vertices.copy()
    vertices[grid.interior] += 0.15 * grid.h * rng.uniform(
        -1.0, 1.0, (grid.n_interior, grid.dim))
    cells = grid.cells.copy()
    cells[::3, [0, 1]] = cells[::3, [1, 0]]
    path = tmp_path / "perturbed.txt"
    write_mesh(dataclasses.replace(grid, vertices=vertices, cells=cells), path)
    mesh = read_mesh(path)
    assert mesh.cells_per_side is None
    return mesh


def assert_matches_dense(S, dense, scale):
    """Same pattern as ``dense``'s nonzeros, every entry within 1e-14 times
    ``scale`` (an entry that cancels to a small fraction of its terms keeps
    the terms' rounding)."""
    ref = sp.csr_matrix(dense)
    np.testing.assert_array_equal(S.indptr, ref.indptr)
    np.testing.assert_array_equal(S.indices, ref.indices)
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    assert np.all(np.abs(S.data - ref.data)
                  <= 1e-14 * scale[rows, S.indices])


class TestAssembly:
    @pytest.mark.parametrize("build", [lambda tmp: unit_square_mesh(8),
                                       lambda tmp: unit_cube_mesh(4),
                                       lambda tmp: perturbed_mesh(
                                           unit_square_mesh(8), tmp),
                                       lambda tmp: perturbed_mesh(
                                           unit_cube_mesh(3), tmp)],
                             ids=["square", "cube", "perturbed-2d",
                                  "perturbed-3d"])
    def test_matches_per_cell_reference(self, build, tmp_path):
        mesh = build(tmp_path)
        A_ref, A_scale, M_ref = reference_operators(mesh)
        ops = operators(mesh)
        assert_matches_dense(ops.stiffness, A_ref, A_scale)
        assert_matches_dense(ops.mass, M_ref, M_ref)
        np.testing.assert_allclose(ops.lumped_mass, M_ref.sum(axis=1),
                                   rtol=1e-14)

    @pytest.mark.parametrize("maker, m", [(unit_square_mesh, 8),
                                          (unit_cube_mesh, 4)])
    def test_chunk_size_does_not_matter(self, monkeypatch, maker, m):
        base = operators(maker(m))
        n_cells = maker(m).n_cells
        for chunk in (1, 7, n_cells):
            monkeypatch.setattr(fraclap.mesh, "_CHUNK_CELLS", chunk)
            ops = operators(maker(m))
            for S, S0 in ((ops.stiffness, base.stiffness),
                          (ops.mass, base.mass)):
                np.testing.assert_array_equal(S.indptr, S0.indptr)
                np.testing.assert_array_equal(S.indices, S0.indices)
                np.testing.assert_allclose(S.data, S0.data, rtol=1e-14)
                assert (S != S.T).nnz == 0

    def test_peak_memory_bounded_by_output(self, monkeypatch):
        # temporaries scale with the chunk, not with the mesh
        monkeypatch.setattr(fraclap.mesh, "_CHUNK_CELLS", 4096)
        mesh = unit_cube_mesh(32)
        tracemalloc.start()
        try:
            ops = operators(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = ops.lumped_mass.nbytes + sum(
            S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
            for S in (ops.stiffness, ops.mass))
        assert peak <= 4 * out

    @staticmethod
    def run_in_threads(build, *owners):
        """``build(owner)`` for each owner, on one thread each, all started
        together at a barrier."""
        results, errors = [None] * len(owners), []
        start = threading.Barrier(len(owners), timeout=20)

        def work(i):
            try:
                start.wait()
                results[i] = build(owners[i])
            except Exception as exc:                # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(owners))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        return results

    @staticmethod
    def slowed(module, name, monkeypatch):
        """Record the arguments of every call of ``module.name``, which
        sleeps first, so that the other caller arrives meanwhile."""
        calls, raw = [], getattr(module, name)

        def slow(*args, **kwargs):
            calls.append(args)
            time.sleep(0.2)
            return raw(*args, **kwargs)

        monkeypatch.setattr(module, name, slow)
        return calls

    def test_concurrent_callers_share_one_assembly(self, monkeypatch):
        calls = self.slowed(fraclap.fem, "_assemble_operators", monkeypatch)
        mesh = unit_square_mesh(16)
        first, second = self.run_in_threads(operators, mesh, mesh)
        assert calls == [(mesh,)]
        assert first is second

    def test_other_meshes_assemble_at_the_same_time(self, monkeypatch):
        # each assembly waits for the other inside: serialized, they would
        # break the barrier
        assemble = fraclap.fem._assemble_operators
        barrier = threading.Barrier(2, timeout=20)

        def meeting(mesh):
            barrier.wait()
            return assemble(mesh)

        monkeypatch.setattr(fraclap.fem, "_assemble_operators", meeting)
        meshes = (unit_square_mesh(16), unit_square_mesh(16))
        ops = self.run_in_threads(operators, *meshes)
        assert ops[0] is not ops[1]
        assert all(operators(mesh) is o for mesh, o in zip(meshes, ops))

    def test_concurrent_callers_share_one_hierarchy(self, monkeypatch):
        calls = self.slowed(fraclap.multigrid, "prolongation_matrix",
                            monkeypatch)
        mesh = unit_square_mesh(64)
        first, second = self.run_in_threads(
            fraclap.multigrid.MeshHierarchy.for_mesh, mesh, mesh)
        assert first is second
        assert len(calls) == first.n_levels - 1     # one construction

    def test_concurrent_deflated_solves_share_one_space(self, monkeypatch):
        calls = self.slowed(fraclap.shifted, "splu", monkeypatch)
        mesh = unit_square_mesh(32)
        ops = operators(mesh)
        z = assemble_load(mesh, sin_eigenfunction)

        def solve(A):
            return fraclap.shifted.solve_family(
                A, ops.lumped_mass, np.array([2.0, 0.5]), z, deflate=True)

        (first, _), (second, _) = self.run_in_threads(
            solve, ops.stiffness, ops.stiffness)
        assert len(calls) == 1                      # one LU, one eigsh
        np.testing.assert_array_equal(first, second)

    def test_other_stiffness_matrices_scale_at_the_same_time(
            self, monkeypatch):
        # as for the assembly: serialized, the scalings would break it
        scale = fraclap.shifted._scale_operator
        barrier = threading.Barrier(2, timeout=20)

        def meeting(A, mass):
            barrier.wait()
            return scale(A, mass)

        monkeypatch.setattr(fraclap.shifted, "_scale_operator", meeting)
        meshes = (unit_square_mesh(16), unit_square_mesh(8))

        def scaled(mesh):
            ops = operators(mesh)
            return fraclap.shifted.normalize(
                ops.stiffness, ops.lumped_mass, np.ones(1),
                np.ones(mesh.n_interior)).A_scaled

        first, second = self.run_in_threads(scaled, *meshes)
        assert first.shape != second.shape


    def test_many_threads_build_each_value_once(self):
        # more threads than cores, switching often: a check and build that
        # were two steps would run a build twice or hand out two values
        owners = [type("Owner", (), {})() for _ in range(16)]
        builds = []

        def build_all(order):
            def value_of(owner):
                def build():
                    builds.append(owner)
                    time.sleep(1e-3)
                    return object()
                return fraclap.fem._once(owner, "stress", build)
            return {id(owners[i]): value_of(owners[i]) for i in order}

        orders = [np.random.default_rng(i).permutation(len(owners))
                  for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            first, *others = self.run_in_threads(build_all, *orders)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(map(id, builds)) == sorted(map(id, owners))
        assert all(other[key] is value for other in others
                   for key, value in first.items())
        # the values die with their owners
        del owners, builds, first, others
        gc.collect()
        assert all(kind != "stress" for _, kind in fraclap.fem._built)


class TestMass:
    def test_positive_definite(self):
        rng = np.random.default_rng(1)
        mesh = unit_cube_mesh(2)
        M = assemble_mass(mesh)
        for _ in range(10):
            x = rng.standard_normal(mesh.n_interior)
            assert x @ (M @ x) > 0.0

    def test_total_mass_against_patch_volumes(self):
        # sum_ij M_ij equals the integral of (sum of interior hats)^2,
        # computed independently with the degree-2 cell rule
        mesh = unit_square_mesh(4)
        M = assemble_mass(mesh)
        ones = NodalFunction(mesh, np.ones(mesh.n_interior))
        full = ones.full_values()
        lam, w = simplex_quadrature(2, 2)
        vals = full[mesh.cells] @ lam.T
        quad = float(mesh.volumes @ ((vals ** 2) @ w))
        assert M.sum() == pytest.approx(quad, rel=1e-13)


class TestLumpedMass:
    def test_row_sum_definition(self):
        mesh = unit_square_mesh(4)
        M = assemble_mass(mesh)
        mh = lump_mass(M)
        np.testing.assert_allclose(mh, np.asarray(M.sum(axis=1)).ravel())
        assert mh.sum() == pytest.approx(M.sum(), rel=1e-14)

    def test_uniform_interior_value_is_grid_h_squared(self):
        mesh = unit_square_mesh(8)
        mh = lump_mass(assemble_mass(mesh))
        deep = [i for i, v in enumerate(mesh.interior)
                if (np.abs(mesh.vertices[v] - 0.5) < 0.3).all()]
        np.testing.assert_allclose(mh[deep], (1.0 / 8) ** 2, rtol=1e-13)

    def test_single_dof(self):
        M = assemble_mass(unit_square_mesh(2))
        np.testing.assert_allclose(lump_mass(M), [0.125])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_row_sum_that_is_not_finite(self, bad):
        # NaN compares false with zero, so a sign test alone lets it through
        M = assemble_mass(unit_square_mesh(4)).tolil()
        M[3, 4] = bad
        with pytest.raises(ValueError, match="entry 3 is"):
            lump_mass(M.tocsr())


class TestLoad:
    def test_zero_function(self):
        mesh = unit_square_mesh(4)
        np.testing.assert_array_equal(
            assemble_load(mesh, lambda p: np.zeros(len(p))),
            np.zeros(mesh.n_interior))

    def test_p1_load_is_mass_times_coefficients(self):
        rng = np.random.default_rng(2)
        mesh = unit_cube_mesh(2)
        v = NodalFunction(mesh, rng.standard_normal(mesh.n_interior))
        M = assemble_mass(mesh)
        np.testing.assert_allclose(assemble_load(mesh, v), M @ v.values,
                                   rtol=1e-14)

    def test_p0_indicator_load(self):
        mesh = unit_square_mesh(4)
        z = np.zeros(mesh.n_cells)
        cell = 2 * (1 * 4 + 1)          # lower triangle of an interior square
        z[cell] = 1.0
        load = assemble_load(mesh, CellwiseFunction(mesh, z))
        expected = np.zeros(mesh.n_interior)
        for v in mesh.cells[cell]:
            dof = mesh.dof_index[v]
            if dof >= 0:
                expected[dof] = mesh.volumes[cell] / 3.0
        np.testing.assert_allclose(load, expected, atol=1e-16)

    def test_quadrature_load_exact_for_linear_integrand(self):
        # pointwise loads use a degree-2 rule: exact when f is linear,
        # cross-checked against the (also exact) degree-4 rule
        mesh = unit_square_mesh(3)

        def f(p):
            return 1.0 + 2.0 * p[:, 0] - p[:, 1]

        lam, w = simplex_quadrature(2, 4)
        pts = np.einsum("qk,ckd->cqd", lam, mesh.vertices[mesh.cells])
        fvals = f(pts.reshape(-1, 2)).reshape(mesh.n_cells, -1)
        contrib = np.einsum("c,q,cq,qk->ck", mesh.volumes, w, fvals, lam)
        expected = np.zeros(mesh.n_vertices)
        np.add.at(expected, mesh.cells.ravel(), contrib.ravel())
        np.testing.assert_allclose(assemble_load(mesh, f),
                                   expected[mesh.interior], rtol=1e-13)


class TestProjectP0:
    def test_constant(self):
        mesh = unit_square_mesh(4)
        q = project_p0(mesh, lambda p: np.full(len(p), 3.25))
        np.testing.assert_allclose(q.values, 3.25)

    def test_hat_projects_to_vertex_means(self):
        mesh = unit_square_mesh(4)
        rng = np.random.default_rng(3)
        v = NodalFunction(mesh, rng.standard_normal(mesh.n_interior))
        q = project_p0(mesh, v)
        full = v.full_values()
        np.testing.assert_allclose(q.values, full[mesh.cells].mean(axis=1),
                                   rtol=1e-14)

    def test_idempotent_on_p0(self):
        mesh = unit_square_mesh(3)
        z = CellwiseFunction(mesh, np.arange(mesh.n_cells, dtype=float))
        np.testing.assert_array_equal(project_p0(mesh, z).values, z.values)

    def test_orthogonality(self):
        rng = np.random.default_rng(4)
        mesh = unit_square_mesh(6)
        v = NodalFunction(mesh, rng.standard_normal(mesh.n_interior))
        q = project_p0(mesh, v)
        scale = l2_norm(v)
        for _ in range(20):
            w = CellwiseFunction(mesh, rng.standard_normal(mesh.n_cells))
            gap = l2_inner(v, w) - l2_inner(q, w)
            assert abs(gap) <= 1e-12 * scale * l2_norm(w)

    def test_first_order_approximation(self):
        def f(p):
            return np.sin(2 * np.pi * p[:, 0]) * np.sin(2 * np.pi * p[:, 1])
        errors = []
        mesh = unit_square_mesh(8)
        for _ in range(3):
            v = interpolate(mesh, f)
            q = project_p0(mesh, v)
            full = v.full_values()
            lam, w = simplex_quadrature(2, 2)
            vals = full[mesh.cells] @ lam.T - q.values[:, None]
            errors.append(np.sqrt(mesh.volumes @ ((vals ** 2) @ w)))
            mesh = refine_uniform(mesh)
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        for r in ratios:
            assert r == pytest.approx(2.0, abs=0.3)


class TestNorms:
    def test_zero(self):
        mesh = unit_square_mesh(4)
        z = NodalFunction(mesh, np.zeros(mesh.n_interior))
        assert l2_norm(z) == 0.0
        assert h1_seminorm(z) == 0.0

    def test_eigenfunction_l2_limit(self):
        # || sin(pi x) sin(pi y) ||_{L2} = 1/2
        mesh = unit_square_mesh(32)
        v = interpolate(mesh, sin_eigenfunction)
        assert l2_norm(v) == pytest.approx(0.5, abs=2e-3)

    def test_eigenfunction_dirichlet_energy(self):
        # |v|_{H1}^2 -> 2 pi^2 * ||v||^2 = pi^2 / 2
        mesh = unit_square_mesh(32)
        v = interpolate(mesh, sin_eigenfunction)
        assert h1_seminorm(v) ** 2 == pytest.approx(np.pi ** 2 / 2, rel=5e-3)

    def test_mixed_inner_product_exact(self):
        rng = np.random.default_rng(5)
        mesh = unit_square_mesh(4)
        u = NodalFunction(mesh, rng.standard_normal(mesh.n_interior))
        z = CellwiseFunction(mesh, rng.standard_normal(mesh.n_cells))
        lam, w = simplex_quadrature(2, 2)
        vals = u.full_values()[mesh.cells] @ lam.T
        expect = float(mesh.volumes @ ((vals * z.values[:, None]) @ w))
        assert l2_inner(u, z) == pytest.approx(expect, rel=1e-13)
        assert l2_inner(z, u) == pytest.approx(expect, rel=1e-13)

    def test_mesh_mismatch_rejected(self):
        a = unit_square_mesh(2)
        b = unit_square_mesh(4)
        u = NodalFunction(a, np.zeros(a.n_interior))
        v = NodalFunction(b, np.zeros(b.n_interior))
        with pytest.raises(ValueError):
            l2_inner(u, v)
