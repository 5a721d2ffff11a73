"""Sinc quadrature, fractional solves, and the dense spectral oracle."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from fraclap import (NodalFunction, interpolate, l2_norm, quadrature_for_mesh,
                     read_mesh, sinc_quadrature, solve_all_shifted,
                     spectral_oracle_solve, unit_cube_mesh, unit_square_mesh,
                     write_mesh)
from fraclap import fem, shifted
from fraclap.fem import operators
from fraclap.fractional import SolveOptions, fractional_solve


def eigen_rhs(points):
    return np.sin(2 * np.pi * points[:, 0]) * np.sin(2 * np.pi * points[:, 1])


class TestSincQuadrature:
    def test_symmetric_counts_at_half(self):
        quad = sinc_quadrature(0.5, 0.5)
        assert quad.n_plus == quad.n_minus == 20

    def test_small_s_counts(self):
        quad = sinc_quadrature(0.05, 1.0)
        assert quad.n_plus == 50
        assert quad.n_minus == 3
        assert quad.n_systems == 54

    def test_ceiling_formulas_and_positivity(self):
        for s in (0.05, 0.1, 0.25, 0.5, 0.75, 0.95):
            for k in (0.35, 0.5, 0.9):
                quad = sinc_quadrature(s, k)
                assert quad.n_plus == int(np.ceil(np.pi ** 2 / (4 * s * k * k)))
                assert quad.n_minus == int(np.ceil(np.pi ** 2
                                                   / (4 * (1 - s) * k * k)))
                assert quad.n_systems == quad.n_plus + quad.n_minus + 1
                assert (quad.weights > 0).all()
                assert (quad.shifts > 0).all()

    def test_weights_and_shifts(self):
        quad = sinc_quadrature(0.3, 0.6)
        assert (quad.weights > 0).all()
        assert (np.diff(quad.shifts) > 0).all()
        assert np.isfinite(quad.weights).all()
        # spot check the weight formula at a moderate node
        j = np.flatnonzero(quad.l == 2)[0]
        expect = np.sin(0.3 * np.pi) / np.pi * 0.6 * np.exp(0.7 * 0.6 * 2)
        assert quad.weights[j] == pytest.approx(expect, rel=1e-13)

    def test_log_space_weights_stay_finite_for_small_s(self):
        quad = sinc_quadrature(0.05, 0.35)
        assert quad.n_plus == 403
        assert np.isfinite(quad.weights).all()

    def test_mesh_rule(self):
        quad = quadrature_for_mesh(0.5, 0.25, c_k=1.1)
        assert quad.k == pytest.approx(1.1 / np.log(8.0))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sinc_quadrature(0.0, 0.5)
        with pytest.raises(ValueError):
            sinc_quadrature(0.5, -1.0)

    def test_nan_inputs_are_named(self):
        # they used to fail with "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="k must be positive"):
            sinc_quadrature(0.5, np.nan)
        for h, c_k in ((np.nan, 1.1), (0.1, np.nan)):
            with pytest.raises(ValueError, match="h and c_k"):
                quadrature_for_mesh(0.5, h, c_k)


class TestSolveOptions:
    def test_k_takes_no_c_k(self):
        # a c_k next to k used to be accepted and ignored
        with pytest.raises(ValueError, match="c_k"):
            SolveOptions(k=0.5, c_k=3.0)
        assert SolveOptions(k=0.5).k == 0.5
        assert SolveOptions(c_k=3.0).c_k == 3.0


class TestFractionalSolve:
    def test_zero_rhs(self):
        mesh = unit_square_mesh(8)
        res = fractional_solve(mesh, 0.5,
                               NodalFunction(mesh, np.zeros(mesh.n_interior)))
        np.testing.assert_array_equal(res.u.values, 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        mesh = unit_square_mesh(8)
        z1 = NodalFunction(mesh, rng.standard_normal(mesh.n_interior))
        z2 = NodalFunction(mesh, rng.standard_normal(mesh.n_interior))
        opts = SolveOptions(rtol=1e-11)
        u1 = fractional_solve(mesh, 0.3, z1, opts).u.values
        u2 = fractional_solve(mesh, 0.3, z2, opts).u.values
        mix = NodalFunction(mesh, 2.0 * z1.values - 0.5 * z2.values)
        u12 = fractional_solve(mesh, 0.3, mix, opts).u.values
        np.testing.assert_allclose(u12, 2.0 * u1 - 0.5 * u2, atol=1e-8)

    def test_discrete_eigenvector_scaling(self):
        # nodal sine interpolants are eigenvectors of (A, lumped M); compare
        # the solve against the scalar quadrature applied to that eigenvalue
        mesh = unit_square_mesh(16)
        ops = operators(mesh)
        z = interpolate(mesh, eigen_rhs)
        Az = ops.stiffness @ z.values
        lam_h = float(z.values @ Az / (z.values @ (ops.lumped_mass * z.values)))
        s, k = 0.5, 0.4
        quad = sinc_quadrature(s, k)
        res = fractional_solve(mesh, s, z, SolveOptions(k=k, rtol=1e-12))
        # scalar reference: sum of w_l M z/(lam + alpha_l) in the eigenbasis
        # of the lumped pencil; the consistent-mass load mixes in a second
        # lattice mode, so compare against the oracle instead
        oracle = spectral_oracle_solve(mesh, s, z)
        scalar = np.sum(quad.weights / (lam_h + quad.shifts))
        assert scalar == pytest.approx(lam_h ** -s, rel=2e-2)
        diff = NodalFunction(mesh, res.u.values - oracle.values)
        assert l2_norm(diff) <= 3e-2 * l2_norm(oracle)

    def test_sinc_error_decreases_with_k(self):
        mesh = unit_square_mesh(8)
        z = interpolate(mesh, eigen_rhs)
        for s in (0.05, 0.5, 0.95):
            oracle = spectral_oracle_solve(mesh, s, z)
            scale = l2_norm(oracle)
            errs = []
            for k in (1.0, 0.7, 0.5, 0.35):
                u = fractional_solve(mesh, s, z,
                                     SolveOptions(k=k, rtol=1e-12)).u
                errs.append(l2_norm(NodalFunction(mesh,
                                                  u.values - oracle.values))
                            / scale)
            assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_self_adjoint_in_mass_inner_product(self):
        rng = np.random.default_rng(3)
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        opts = SolveOptions(rtol=1e-12)
        n = mesh.n_interior
        cache = {}

        def solve_basis(i):
            if i not in cache:
                e = np.zeros(n)
                e[i] = 1.0
                cache[i] = fractional_solve(
                    mesh, 0.5, NodalFunction(mesh, e), opts).u.values
            return cache[i]

        scale = None
        for _ in range(10):
            i, j = rng.integers(0, n, size=2)
            ui = solve_basis(int(i))
            uj = solve_basis(int(j))
            ei = np.zeros(n); ei[i] = 1.0
            ej = np.zeros(n); ej[j] = 1.0
            a = ui @ (ops.mass @ ej)
            b = uj @ (ops.mass @ ei)
            scale = max(abs(a), abs(b)) if scale is None else scale
            assert abs(a - b) <= 1e-8 * max(scale, abs(a), abs(b))

    def test_scaled_operator_built_once_per_mesh(self, monkeypatch):
        calls = []
        build = shifted._scale_operator

        def counting(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(shifted, "_scale_operator", counting)
        mesh = unit_square_mesh(16)
        rhs = interpolate(mesh, eigen_rhs)
        u1 = fractional_solve(mesh, 0.5, rhs).u.values
        u2 = fractional_solve(mesh, 0.5, rhs).u.values
        assert len(calls) == 1
        np.testing.assert_array_equal(u1, u2)

    def test_hierarchy_built_at_the_first_preconditioner_set_up(self):
        # a solve the multishift head finishes builds no hierarchy
        mesh = unit_square_mesh(32)
        z = interpolate(mesh, eigen_rhs)
        res = fractional_solve(mesh, 0.5, z)
        assert res.stats.n_prec_setups == 0
        assert (id(mesh), "hierarchy") not in fem._built
        res = fractional_solve(mesh, 0.5, z, SolveOptions(n_max=20))
        assert res.stats.n_prec_setups > 0
        assert (id(mesh), "hierarchy") in fem._built

    def test_3d_smoke(self):
        mesh = unit_cube_mesh(4)
        z = interpolate(mesh, lambda p: np.sin(np.pi * p).prod(axis=1))
        res = fractional_solve(mesh, 0.5, z, SolveOptions(k=0.45))
        oracle = spectral_oracle_solve(mesh, 0.5, z)
        diff = NodalFunction(mesh, res.u.values - oracle.values)
        assert l2_norm(diff) <= 3e-2 * l2_norm(oracle)

    @pytest.mark.parametrize("make, m", [(unit_square_mesh, 16),
                                         (unit_cube_mesh, 6)],
                             ids=["square", "cube"])
    def test_sgs_tail_on_unstructured_mesh(self, tmp_path, make, m):
        # perturbed interior vertices: the mesh reads back without its grid
        # structure, so the PCG tail runs on the default symmetric
        # Gauss-Seidel preconditioner
        grid = make(m)
        vertices = grid.vertices.copy()
        rng = np.random.default_rng(0)
        vertices[grid.interior] += 0.1 * grid.h * rng.uniform(
            -1.0, 1.0, (grid.n_interior, grid.dim))
        path = tmp_path / "perturbed.txt"
        write_mesh(dataclasses.replace(grid, vertices=vertices), path)
        mesh = read_mesh(path)
        assert mesh.cells_per_side is None
        z = interpolate(mesh, lambda p: np.sin(np.pi * p).prod(axis=1))
        res = fractional_solve(mesh, 0.5, z,
                               SolveOptions(k=0.3, rtol=1e-10, n_max=20))
        assert res.stats.n_prec_setups >= 1
        ref = fractional_solve(mesh, 0.5, z,
                               SolveOptions(k=0.3, rtol=1e-10, n_max=500))
        diff = NodalFunction(mesh, res.u.values - ref.u.values)
        assert l2_norm(diff) <= 1e-9 * l2_norm(ref.u)
        oracle = spectral_oracle_solve(mesh, 0.5, z)
        diff = NodalFunction(mesh, res.u.values - oracle.values)
        assert l2_norm(diff) <= 2e-3 * l2_norm(oracle)

    def test_all_solutions_variant_matches_combination(self):
        mesh = unit_square_mesh(8)
        z = interpolate(mesh, eigen_rhs)
        opts = SolveOptions(k=0.5, rtol=1e-11)
        sols, stats, quad = solve_all_shifted(mesh, 0.25, z, opts)
        combined = fractional_solve(mesh, 0.25, z, opts).u.values
        np.testing.assert_allclose(quad.weights @ sols, combined, atol=1e-10)
        assert stats.n_systems == quad.n_systems


class TestSpectralOracle:
    def test_integer_power_matches_direct_solve(self):
        mesh = unit_square_mesh(8)
        z = interpolate(mesh, eigen_rhs)
        ops = operators(mesh)
        direct = spla.spsolve(ops.stiffness.tocsc(), ops.mass @ z.values)
        oracle = spectral_oracle_solve(mesh, 1.0, z)
        np.testing.assert_allclose(oracle.values, direct, rtol=1e-10)

    def test_zero_power_is_lumped_inverse(self):
        mesh = unit_square_mesh(8)
        z = interpolate(mesh, eigen_rhs)
        ops = operators(mesh)
        oracle = spectral_oracle_solve(mesh, 0.0, z)
        np.testing.assert_allclose(oracle.values,
                                   (ops.mass @ z.values) / ops.lumped_mass,
                                   rtol=1e-12, atol=1e-13)

    def test_dimension_cap(self):
        mesh = unit_square_mesh(128)
        with pytest.raises(ValueError):
            spectral_oracle_solve(mesh, 0.5,
                                  NodalFunction(mesh,
                                                np.zeros(mesh.n_interior)))
