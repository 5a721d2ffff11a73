"""Optimal control solvers: gradients, optimality, and post-processing."""

import math

import numpy as np
import pytest

from fraclap import (CellwiseFunction, NodalFunction, interpolate, objective,
                     post_process, project_box, reduced_gradient,
                     solve_fully_discrete, solve_variational,
                     spectral_oracle_solve, unit_square_mesh)
from fraclap.control import FULLY_DISCRETE, VARIATIONAL, ControlProblem
from fraclap.fem import operators, project_p0
from fraclap.fractional import SolveOptions


def u_d_fn(points):
    return np.sin(2 * np.pi * points[:, 0]) * np.sin(2 * np.pi * points[:, 1])


def make_problem(mesh, mode, s=0.5, mu=0.1, lower=-0.8, upper=0.8, **opts):
    return ControlProblem(mesh=mesh, s=s, mu=mu, lower=lower, upper=upper,
                          desired=interpolate(mesh, u_d_fn), mode=mode,
                          options=SolveOptions(**opts))


class TestProjectBox:
    def test_identity_inside(self):
        v = np.array([-0.5, 0.0, 0.7])
        np.testing.assert_array_equal(project_box(v, -0.8, 0.8), v)

    def test_clamps(self):
        assert project_box(np.array([1.0]), -0.8, 0.8)[0] == 0.8
        assert project_box(np.array([-2.0]), -0.8, 0.8)[0] == -0.8

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(-3, 3, 50)
        once = project_box(v, -0.8, 0.8)
        np.testing.assert_array_equal(project_box(once, -0.8, 0.8), once)

    def test_function_kinds(self):
        mesh = unit_square_mesh(4)
        nodal = NodalFunction(mesh, np.linspace(-2, 2, mesh.n_interior))
        clamped = project_box(nodal, -1.0, 1.0)
        assert isinstance(clamped, NodalFunction)
        assert clamped.values.max() <= 1.0
        cells = CellwiseFunction(mesh, np.linspace(-2, 2, mesh.n_cells))
        assert isinstance(project_box(cells, -1, 1), CellwiseFunction)

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(3), 1.0, -1.0)


class TestObjective:
    def test_zero_control(self):
        mesh = unit_square_mesh(32)
        prob = make_problem(mesh, VARIATIONAL)
        J = objective(prob, np.zeros(mesh.n_interior))
        # J(0) = ||u_d||^2 / 2 -> 1/8 since ||sin sin||^2 = 1/4
        assert J == pytest.approx(0.125, abs=2e-3)

    def test_regularization_term_split(self):
        rng = np.random.default_rng(1)
        mesh = unit_square_mesh(8)
        for mode in (VARIATIONAL, FULLY_DISCRETE):
            prob = make_problem(mesh, mode, mu=0.37)
            n = mesh.n_interior if mode == VARIATIONAL else mesh.n_cells
            z = rng.uniform(-0.5, 0.5, n)
            prob0 = make_problem(mesh, mode, mu=1e-30)
            from fraclap import l2_norm
            zf = NodalFunction(mesh, z) if mode == VARIATIONAL \
                else CellwiseFunction(mesh, z)
            gap = objective(prob, z) - objective(prob0, z)
            assert gap == pytest.approx(0.5 * 0.37 * l2_norm(zf) ** 2,
                                        rel=1e-9)

    def test_nonnegative(self):
        mesh = unit_square_mesh(8)
        prob = make_problem(mesh, FULLY_DISCRETE)
        assert objective(prob, np.zeros(mesh.n_cells)) >= 0.0


class TestReducedGradient:
    @pytest.mark.parametrize("mode", [VARIATIONAL, FULLY_DISCRETE])
    def test_matches_central_differences(self, mode):
        rng = np.random.default_rng(2)
        mesh = unit_square_mesh(8)
        prob = make_problem(mesh, mode, rtol=1e-12)
        n = mesh.n_interior if mode == VARIATIONAL else mesh.n_cells
        z = rng.uniform(-0.5, 0.5, n)
        g = reduced_gradient(prob, z)
        M = operators(mesh).mass
        t = 1e-4
        for _ in range(5):
            delta = rng.standard_normal(n)
            fd = (objective(prob, z + t * delta)
                  - objective(prob, z - t * delta)) / (2 * t)
            if mode == VARIATIONAL:
                pair = delta @ (M @ g.values)
            else:
                pair = float(mesh.volumes @ (g.values * delta))
            assert abs(fd - pair) <= 1e-5 * abs(pair)

    def test_stationary_at_unconstrained_optimum(self):
        mesh = unit_square_mesh(8)
        prob = make_problem(mesh, VARIATIONAL, lower=-1e4, upper=1e4,
                            rtol=1e-12)
        sol = solve_variational(prob, tol=1e-8)
        g = reduced_gradient(prob, sol.control.values)
        assert np.abs(g.values).max() <= 1e-6

    def test_squared_operator_nonnegative(self):
        # (S S z, z) >= 0 underpins the convexity of the reduced problem
        rng = np.random.default_rng(3)
        mesh = unit_square_mesh(8)
        M = operators(mesh).mass
        from fraclap.fractional import fractional_solve
        opts = SolveOptions(rtol=1e-11)
        for _ in range(5):
            z = rng.standard_normal(mesh.n_interior)
            u = fractional_solve(mesh, 0.5, NodalFunction(mesh, z), opts).u
            uu = fractional_solve(mesh, 0.5, u, opts).u
            assert uu.values @ (M @ z) >= -1e-10


class TestVariationalSolve:
    def test_zero_desired_state(self):
        mesh = unit_square_mesh(8)
        prob = ControlProblem(
            mesh=mesh, s=0.5, mu=0.1, lower=-0.8, upper=0.8,
            desired=NodalFunction(mesh, np.zeros(mesh.n_interior)),
            mode=VARIATIONAL)
        sol = solve_variational(prob, tol=1e-7)
        np.testing.assert_array_equal(sol.control.values, 0.0)
        np.testing.assert_array_equal(sol.state.values, 0.0)
        np.testing.assert_array_equal(sol.adjoint.values, 0.0)

    def test_wide_bounds_against_dense_normal_equations(self):
        mesh = unit_square_mesh(8)
        mu = 0.1
        prob = make_problem(mesh, VARIATIONAL, lower=-1e3, upper=1e3,
                            k=0.18, rtol=1e-12)
        sol = solve_variational(prob, tol=1e-8)
        ops = operators(mesh)
        d = 1.0 / np.sqrt(ops.lumped_mass)
        a_hat = (d[:, None] * ops.stiffness.toarray()) * d[None, :]
        lam, Q = np.linalg.eigh((a_hat + a_hat.T) / 2)
        C = (d[:, None] * Q) @ np.diag(lam ** -0.5) @ (Q.T * d[None, :])
        S = C @ ops.mass.toarray()
        ud = interpolate(mesh, u_d_fn).values
        z_star = np.linalg.solve(mu * np.eye(len(S)) + S @ S, S @ ud)
        assert np.abs(sol.control.values - z_star).max() <= 1e-4

    def test_single_dof_closed_form(self):
        # one interior node: the reduced problem is scalar calculus
        mesh = unit_square_mesh(2)
        opts = SolveOptions(rtol=1e-13)
        from fraclap.fractional import fractional_solve
        e = NodalFunction(mesh, np.ones(1))
        sigma = fractional_solve(mesh, 0.5, e, opts).u.values[0]
        mu = 0.1
        for d_val, lower, upper in ((2.0, -0.8, 0.8), (0.5, -5.0, 5.0),
                                    (-3.0, -0.2, 0.2)):
            prob = ControlProblem(
                mesh=mesh, s=0.5, mu=mu, lower=lower, upper=upper,
                desired=NodalFunction(mesh, np.array([d_val])),
                mode=VARIATIONAL, options=opts)
            sol = solve_variational(prob, tol=1e-10)
            z_star = np.clip(sigma * d_val / (mu + sigma ** 2), lower, upper)
            assert sol.control.values[0] == pytest.approx(z_star, abs=1e-8)

    def test_projection_formula_and_active_set(self):
        mesh = unit_square_mesh(16)
        prob = make_problem(mesh, VARIATIONAL, s=0.25)
        sol = solve_variational(prob, tol=1e-6)
        z = sol.control.values
        assert (z >= -0.8).all() and (z <= 0.8).all()
        proj = np.clip(-sol.adjoint.values / 0.1, -0.8, 0.8)
        assert np.abs(z - proj).max() <= 10 * 1e-6
        # the bound is attained on part of the domain for this data
        assert ((z >= 0.8 - 1e-10) | (z <= -0.8 + 1e-10)).any()

    def test_objective_monotone_over_accepted_steps(self):
        mesh = unit_square_mesh(16)
        prob = make_problem(mesh, VARIATIONAL, s=0.05)
        sol = solve_variational(prob, tol=1e-5)
        hist = sol.objective_history
        assert len(hist) >= 2
        assert all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))

    def test_mode_guard(self):
        mesh = unit_square_mesh(4)
        with pytest.raises(ValueError):
            solve_variational(make_problem(mesh, FULLY_DISCRETE))


class TestFullyDiscreteSolve:
    def test_zero_desired_state(self):
        mesh = unit_square_mesh(8)
        prob = ControlProblem(
            mesh=mesh, s=0.5, mu=0.1, lower=-0.8, upper=0.8,
            desired=NodalFunction(mesh, np.zeros(mesh.n_interior)),
            mode=FULLY_DISCRETE)
        sol = solve_fully_discrete(prob, tol=1e-7)
        np.testing.assert_array_equal(sol.control.values, 0.0)

    def test_cellwise_projection_identity(self):
        mesh = unit_square_mesh(16)
        prob = make_problem(mesh, FULLY_DISCRETE, s=0.25)
        sol = solve_fully_discrete(prob, tol=1e-6)
        z = sol.control.values
        assert (z >= -0.8).all() and (z <= 0.8).all()
        cell_adj = project_p0(mesh, sol.adjoint).values
        proj = np.clip(-cell_adj / 0.1, -0.8, 0.8)
        assert np.abs(z - proj).max() <= 10 * 1e-6

    def test_matches_scipy_lbfgsb(self):
        mesh = unit_square_mesh(8)
        prob = make_problem(mesh, FULLY_DISCRETE, s=0.25, rtol=1e-11)
        a = solve_fully_discrete(prob, tol=1e-7)
        b = solve_fully_discrete(prob, tol=1e-7, method="lbfgsb")
        assert np.abs(a.control.values - b.control.values).max() <= 1e-5

    def test_lbfgsb_records_histories(self):
        mesh = unit_square_mesh(8)
        prob = make_problem(mesh, FULLY_DISCRETE, s=0.25)
        sol = solve_fully_discrete(prob, tol=1e-6, method="lbfgsb")
        # one entry per L-BFGS-B iterate (the fallback would record more)
        assert len(sol.objective_history) == sol.iterations > 0
        assert len(sol.residual_history) == sol.iterations
        # it stops at the first iterate that meets the threshold
        threshold = 1e-6 * math.sqrt(mesh.h ** mesh.dim)
        assert sol.residual_history[-1] <= threshold
        assert all(r > threshold for r in sol.residual_history[:-1])
        hist = sol.objective_history
        assert all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))

    def test_objective_monotone_over_accepted_steps(self):
        mesh = unit_square_mesh(8)
        prob = make_problem(mesh, FULLY_DISCRETE, s=0.05)
        sol = solve_fully_discrete(prob, tol=1e-5)
        hist = sol.objective_history
        assert all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))

    def test_unknown_method(self):
        mesh = unit_square_mesh(4)
        with pytest.raises(ValueError):
            solve_fully_discrete(make_problem(mesh, FULLY_DISCRETE),
                                 method="newton")


class TestPostProcess:
    def test_zero_adjoint(self):
        mesh = unit_square_mesh(8)
        prob = ControlProblem(
            mesh=mesh, s=0.5, mu=0.1, lower=-0.8, upper=0.8,
            desired=NodalFunction(mesh, np.zeros(mesh.n_interior)),
            mode=FULLY_DISCRETE)
        sol = solve_fully_discrete(prob, tol=1e-7)
        zpp = post_process(prob, sol)
        np.testing.assert_array_equal(zpp.values, 0.0)

    def test_inactive_bounds_give_scaled_adjoint(self):
        mesh = unit_square_mesh(8)
        prob = make_problem(mesh, FULLY_DISCRETE, lower=-1e4, upper=1e4)
        sol = solve_fully_discrete(prob, tol=1e-7)
        zpp = post_process(prob, sol)
        np.testing.assert_allclose(zpp.values, -sol.adjoint.values / 0.1,
                                   rtol=1e-12)

    def test_post_processed_control_is_closer_than_p0(self):
        # against the dense-oracle variational solution on a finer mesh the
        # clamped adjoint beats the raw piecewise constant control
        mesh = unit_square_mesh(16)
        prob = make_problem(mesh, FULLY_DISCRETE, s=0.25, k=0.3)
        sol = solve_fully_discrete(prob, tol=1e-6)
        zpp = post_process(prob, sol)
        # reference: variational solve on the same mesh at tight tolerance
        prob_v = make_problem(mesh, VARIATIONAL, s=0.25, k=0.3)
        ref = solve_variational(prob_v, tol=1e-8)
        err_pp = np.abs(zpp.values - ref.control.values).max()
        # P0 error measured against the cell means of the reference control
        ref_cells = ref.control.full_values()[mesh.cells].mean(axis=1)
        err_p0 = np.abs(sol.control.values - ref_cells).max()
        assert err_pp < err_p0


class TestProblemValidation:
    def test_bounds_must_straddle_zero(self):
        mesh = unit_square_mesh(4)
        with pytest.raises(ValueError):
            ControlProblem(mesh=mesh, s=0.5, mu=0.1, lower=0.1, upper=0.8,
                           desired=interpolate(mesh, u_d_fn),
                           mode=VARIATIONAL)

    def test_mu_positive(self):
        mesh = unit_square_mesh(4)
        with pytest.raises(ValueError):
            ControlProblem(mesh=mesh, s=0.5, mu=0.0, lower=-1, upper=1,
                           desired=interpolate(mesh, u_d_fn),
                           mode=VARIATIONAL)
