"""Optimal control solvers: gradients, optimality, and post-processing."""

import logging
import math

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from fraclap import (CellwiseFunction, NodalFunction, fractional_solve,
                     interpolate, objective, post_process, project_box,
                     reduced_gradient, solve_fully_discrete,
                     solve_variational, spectral_oracle_solve, unit_cube_mesh,
                     unit_square_mesh)
import fraclap.control
import fraclap.shifted
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
        # a NaN bound used to clamp every value to NaN
        for lower, upper in [(math.nan, 1.0), (-1.0, math.nan)]:
            with pytest.raises(ValueError, match="empty box"):
                project_box(np.array([2.0, -2.0]), lower, upper)


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

    def test_phase_one_ends_at_its_first_ascent_direction(self, caplog):
        # clipping the gradient node by node, paired with the consistent
        # mass matrix, turns into an ascent direction near this optimum
        # (at iteration 17): phase one hands over to the polish there
        # instead of accepting rounding-level steps that leave J unchanged
        caplog.set_level(logging.DEBUG, logger="fraclap")
        mesh = unit_square_mesh(64)
        sol = solve_variational(make_problem(mesh, VARIATIONAL, s=0.05),
                                tol=1e-5)
        hist = np.array(sol.objective_history)
        assert np.all(np.diff(hist) < 0.0)
        phase_one = [r.control for r in caplog.records
                     if r.name == "fraclap.control"
                     and r.control["phase"] == "projected gradient"]
        assert len(phase_one) == hist.size
        assert phase_one[-1]["exit"] == "ascent"

    def test_solve_count_does_not_follow_rounding(self, monkeypatch):
        # every inner solution perturbed by 1e-13 relative: the decisions of
        # phase one must not hang on differences that small
        solve = fraclap.control.fractional_solve
        state = {"rng": None, "calls": 0}

        def perturbed(*args, **kwargs):
            res = solve(*args, **kwargs)
            state["calls"] += 1
            if state["rng"] is not None:
                res.u.values[:] *= 1.0 + 1e-13 * state["rng"].standard_normal(
                    res.u.values.size)
            return res

        monkeypatch.setattr(fraclap.control, "fractional_solve", perturbed)
        prob = make_problem(unit_square_mesh(64), VARIATIONAL, s=0.05)
        counts = []
        for seed in (None, 1, 2):
            state["rng"] = seed and np.random.default_rng(seed)
            state["calls"] = 0
            sol = solve_variational(prob, tol=1e-5)
            counts.append((state["calls"], sol.iterations))
        assert counts[1:] == counts[:1] * 2

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
        # an independent optimizer on the public objective and gradient
        from scipy.optimize import minimize
        mesh = unit_square_mesh(8)
        prob = make_problem(mesh, FULLY_DISCRETE, s=0.25, rtol=1e-11)
        a = solve_fully_discrete(prob, tol=1e-7)
        b = minimize(
            lambda z: (objective(prob, z),
                       mesh.volumes * reduced_gradient(prob, z).values),
            np.zeros(mesh.n_cells), jac=True, method="L-BFGS-B",
            bounds=[(-0.8, 0.8)] * mesh.n_cells,
            options={"ftol": 1e-15, "gtol": 1e-12})
        assert np.abs(a.control.values - b.x).max() <= 1e-5

    def test_objective_monotone_over_accepted_steps(self):
        mesh = unit_square_mesh(8)
        prob = make_problem(mesh, FULLY_DISCRETE, s=0.05)
        sol = solve_fully_discrete(prob, tol=1e-5)
        hist = sol.objective_history
        assert all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))


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

    @pytest.mark.parametrize("s", [0.0, 1.0, 1.5, math.nan])
    def test_s_inside_the_unit_interval(self, s):
        # s = 1.5 used to construct, and the first solve then rejected it
        mesh = unit_square_mesh(4)
        with pytest.raises(ValueError, match=r"s must lie in \(0, 1\)"):
            ControlProblem(mesh=mesh, s=s, mu=0.1, lower=-1, upper=1,
                           desired=interpolate(mesh, u_d_fn),
                           mode=VARIATIONAL)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_mu_finite(self, mu):
        # a non-finite mu used to construct, and the first solve then
        # blamed its right-hand side
        mesh = unit_square_mesh(4)
        with pytest.raises(ValueError, match="mu"):
            ControlProblem(mesh=mesh, s=0.5, mu=mu, lower=-1, upper=1,
                           desired=interpolate(mesh, u_d_fn),
                           mode=VARIATIONAL)


SOLVES = {VARIATIONAL: solve_variational, FULLY_DISCRETE: solve_fully_discrete}


@pytest.mark.parametrize("mode", [VARIATIONAL, FULLY_DISCRETE])
class TestInputsCheckedBeforeSolving:
    """Each input a solve cannot use raises a ValueError that names it
    before the first fractional solve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = fraclap.control.fractional_solve

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fraclap.control, "fractional_solve", counting)
        return calls

    def test_mode(self, solves, mode):
        prob = make_problem(unit_square_mesh(8), mode)
        other = FULLY_DISCRETE if mode == VARIATIONAL else VARIATIONAL
        with pytest.raises(ValueError, match=f"mode must be '{other}'"):
            SOLVES[other](prob)
        assert solves == []

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol(self, solves, mode, tol):
        # 0 and -1 used to run the polish dry (50 solves), nan to return
        # after 208 solves and inf to return the zero control
        prob = make_problem(unit_square_mesh(8), mode)
        with pytest.raises(ValueError, match="tol must be finite and posi"):
            SOLVES[mode](prob, tol=tol)
        assert solves == []

    @pytest.mark.parametrize("bad", ["short", "nan"])
    @pytest.mark.parametrize("call", ["z0", "objective", "reduced_gradient"])
    def test_control(self, solves, mode, bad, call):
        # they used to fail inside the first solve, naming its coefficients
        # or its right-hand side
        mesh = unit_square_mesh(8)
        prob = make_problem(mesh, mode)
        n = mesh.n_interior if mode == VARIATIONAL else mesh.n_cells
        z = np.zeros(n - 1) if bad == "short" else np.full(n, math.nan)
        name = "z0" if call == "z0" else "z"
        space = "NodalFunction" if mode == VARIATIONAL else "CellwiseFunction"
        message = (f"{name} must hold {n} values in the {space} space"
                   if bad == "short" else f"{name} must be finite")
        with pytest.raises(ValueError, match=f"^{message}"):
            if call == "z0":
                SOLVES[mode](prob, z0=z)
            else:
                getattr(fraclap.control, call)(prob, z)
        assert solves == []


@pytest.mark.parametrize("mode", [VARIATIONAL, FULLY_DISCRETE])
def test_stats_sum_every_fractional_solve(monkeypatch, mode):
    # the solution's stats are the sums over every fractional solve the
    # control solve made, state, adjoint and polish alike
    calls = []
    solve = fraclap.control.fractional_solve

    def recorder(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append(res.stats)
        return res

    monkeypatch.setattr(fraclap.control, "fractional_solve", recorder)
    # a small basis cap sends part of every family to the PCG tail, so
    # that all four counts are nonzero
    mesh = unit_square_mesh(8)
    prob = make_problem(mesh, mode, s=0.25, n_max=10)
    sol = (solve_variational if mode == VARIATIONAL else
           solve_fully_discrete)(prob, tol=1e-7)
    assert len(calls) > 2
    for name in ("n_alg1", "n_alg2", "n_prec_setups", "n_matvec"):
        total = sum(getattr(st, name) for st in calls)
        assert total > 0
        assert getattr(sol.stats, name) == total


def test_polish_makes_no_zero_load_solve(monkeypatch):
    # GMRES's operator has its dtype: left to probe it, scipy applies the
    # operator to a zero vector, two fractional solves with a zero load.
    # Tight bounds keep the box active, so the polish's fixed part z_fix
    # and all its other loads are nonzero
    loads, polish_starts = [], []
    solve, gmres = fraclap.control.fractional_solve, fraclap.control.gmres

    def recorder(mesh, s, rhs, options=None):
        loads.append(np.asarray(rhs.values).copy())
        return solve(mesh, s, rhs, options)

    def gmres_spy(*args, **kwargs):
        polish_starts.append(len(loads))
        return gmres(*args, **kwargs)

    monkeypatch.setattr(fraclap.control, "fractional_solve", recorder)
    monkeypatch.setattr(fraclap.control, "gmres", gmres_spy)
    mesh = unit_square_mesh(16)
    prob = make_problem(mesh, VARIATIONAL, mu=0.01, lower=-0.3, upper=0.3)
    sol = solve_variational(prob, tol=1e-9)
    z = sol.control.values
    assert polish_starts
    assert np.any(z == -0.3) and np.any(z == 0.3)
    # only the state of the zero start has a zero load
    assert not np.any(loads[0])
    assert all(np.any(load) for load in loads[1:])


def test_polish_that_cannot_converge_names_its_residuals(monkeypatch,
                                                         caplog):
    # a GMRES that returns no correction leaves the polish its active-set
    # steps alone, which stall above the threshold
    def no_correction(op, rhs, **kwargs):
        return np.zeros_like(rhs), 0

    monkeypatch.setattr(fraclap.control, "gmres", no_correction)
    caplog.set_level(logging.DEBUG, logger="fraclap")
    mesh = unit_square_mesh(16)
    prob = make_problem(mesh, VARIATIONAL, mu=0.01, lower=-0.3, upper=0.3)
    with pytest.raises(RuntimeError, match="polish did not reach") as exc:
        solve_variational(prob, tol=1e-9)
    records = [r.control for r in caplog.records
               if r.name == "fraclap.control"]
    polish = [r for r in records if r["phase"] == "polish"]
    assert len(polish) == 12
    assert all(r["exit"] is None for r in polish)
    assert polish[-1]["residual"] > 1e-9 * mesh.h
    tail = [f"{r['residual']:.3e}" for r in polish[-8:]]
    assert str(exc.value).endswith(f"tail: {tail}")


class TestIterationRecords:
    """One DEBUG record per control iteration on ``fraclap.control``."""

    def test_one_record_per_iteration(self, monkeypatch, caplog):
        calls = [0]
        solve = fraclap.control.fractional_solve

        def counting(*args, **kwargs):
            calls[0] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(fraclap.control, "fractional_solve", counting)
        caplog.set_level(logging.DEBUG, logger="fraclap")
        mesh = unit_square_mesh(16)
        prob = make_problem(mesh, VARIATIONAL, mu=0.01, lower=-0.3,
                            upper=0.3)
        sol = solve_variational(prob, tol=1e-9)
        records = [r.control for r in caplog.records
                   if r.name == "fraclap.control"]
        n_one = len(sol.objective_history)
        assert [r["phase"] for r in records] == \
            ["projected gradient"] * n_one \
            + ["polish"] * (len(records) - n_one)
        one, polish = records[:n_one], records[n_one:]
        assert [r["iteration"] for r in one] == list(range(n_one))
        assert [r["objective"] for r in one] == sol.objective_history
        assert [r["residual"] for r in one] == sol.residual_history[:n_one]
        assert all(r["exit"] is None and r["step"] > 0.0 for r in one[:-1])
        assert one[-1]["step"] is None
        assert one[-1]["exit"] in ("ascent", "stagnation window",
                                   "line search failed")
        assert polish and all(r["exit"] is None for r in polish[:-1])
        assert polish[-1]["exit"] == "converged"
        assert polish[-1]["iteration"] == sol.iterations
        assert polish[-1]["residual"] == sol.residual
        assert polish[-1]["objective"] == sol.objective
        solves = [r["solves"] for r in records]
        assert solves == sorted(solves) and solves[-1] == calls[0]
        assert caplog.records[-1].getMessage().startswith(
            f"control polish iteration {sol.iterations}: residual ")

    def test_no_record_with_logging_off(self, monkeypatch, caplog):
        def refuse(*args, **kwargs):
            raise AssertionError("a control record was built")

        caplog.set_level(logging.INFO, logger="fraclap")
        monkeypatch.setattr(fraclap.control, "_record", refuse)
        mesh = unit_square_mesh(16)
        sol = solve_variational(make_problem(mesh, VARIATIONAL), tol=1e-7)
        assert sol.residual <= 1e-7 * mesh.h


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The operator sizes of every eigensolve the library runs."""
    calls = []
    eigsh = fraclap.shifted.eigsh

    def spy(A, *args, **kwargs):
        calls.append(A.shape[0])
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(fraclap.shifted, "eigsh", spy)
    return calls


def deflation_space(mesh):
    """What ``fem._once`` keeps as the operator's deflation space, or
    "absent"."""
    ops = operators(mesh)
    family = fraclap.shifted.normalize(ops.stiffness, ops.lumped_mass,
                                       np.ones(1), np.zeros(mesh.n_interior))
    slot = fraclap.fem._built.get((id(family.A_scaled), "deflation"))
    return "absent" if slot is None else slot.value


class TestDeflation:
    """A 2D control solve has the lowest eigenmodes of its operator taken
    out of every scan, from a space built once per operator and before the
    first fractional solve."""

    def test_repeated_solves_repeat_bit_for_bit(self, eigsh_calls):
        mesh = unit_square_mesh(32)
        prob = make_problem(mesh, VARIATIONAL)
        first = solve_variational(prob)
        second = solve_variational(prob)
        assert eigsh_calls == [mesh.n_interior]
        assert deflation_space(mesh)[0].shape == \
            (fraclap.shifted._DEFLATE, mesh.n_interior)
        np.testing.assert_array_equal(first.control.values,
                                      second.control.values)
        assert first.stats.n_matvec == second.stats.n_matvec
        assert first.iterations == second.iterations

    def test_state_solve_ignores_a_space_built_by_a_control_solve(
            self, eigsh_calls):
        mesh = unit_square_mesh(32)
        prob = make_problem(mesh, VARIATIONAL)
        before = fractional_solve(mesh, 0.5, prob.desired)
        solve_variational(prob)
        assert deflation_space(mesh) is not None
        after = fractional_solve(mesh, 0.5, prob.desired)
        np.testing.assert_array_equal(after.u.values, before.u.values)
        assert after.stats.n_matvec == before.stats.n_matvec
        # asked for, the space shortens the scan
        deflated = fractional_solve(mesh, 0.5, prob.desired,
                                    SolveOptions(deflate=True))
        assert deflated.stats.n_matvec < before.stats.n_matvec
        assert eigsh_calls == [mesh.n_interior]

    def test_deflate_option_builds_the_space_once(self, eigsh_calls):
        mesh = unit_square_mesh(32)
        z = np.ones(mesh.n_interior)
        options = SolveOptions(deflate=True)
        first = fractional_solve(mesh, 0.5, z, options)
        second = fractional_solve(mesh, 0.5, z, options)
        assert eigsh_calls == [mesh.n_interior]
        assert deflation_space(mesh)[0].shape == \
            (fraclap.shifted._DEFLATE, mesh.n_interior)
        np.testing.assert_array_equal(first.u.values, second.u.values)
        plain = fractional_solve(mesh, 0.5, z)
        assert np.linalg.norm(plain.u.values - first.u.values) <= \
            1e-8 * np.linalg.norm(plain.u.values)

    def test_no_eigensolve_outside_a_2d_control_solve(self, eigsh_calls):
        mesh = unit_square_mesh(32)
        prob = make_problem(mesh, VARIATIONAL)
        z = np.zeros(mesh.n_interior)
        objective(prob, z)
        reduced_gradient(prob, z)
        fractional_solve(mesh, 0.5, prob.desired)
        assert deflation_space(mesh) == "absent"
        cube = unit_cube_mesh(8)
        sol = solve_variational(make_problem(cube, VARIATIONAL))
        assert sol.residual <= 1e-5 * math.sqrt(cube.h ** 3)
        assert deflation_space(cube) == "absent"
        assert eigsh_calls == []

    def test_small_operator_keeps_no_space(self, eigsh_calls):
        # 4 * _DEFLATE = 120 dofs: 11^2 = 121 gets a space, 10^2 does not
        small, large = unit_square_mesh(11), unit_square_mesh(12)
        assert small.n_interior <= 4 * fraclap.shifted._DEFLATE \
            < large.n_interior
        for mesh in (small, large):
            solve_variational(make_problem(mesh, VARIATIONAL))
        assert eigsh_calls == [large.n_interior]
        assert deflation_space(small) is None
        assert deflation_space(large) is not None

    def test_non_converging_eigensolve_keeps_no_space(self, monkeypatch):
        def no_convergence(A, k, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                      np.empty(0), np.empty((A.shape[0], 0)))

        monkeypatch.setattr(fraclap.shifted, "eigsh", no_convergence)
        mesh = unit_square_mesh(16)
        sol = solve_variational(make_problem(mesh, VARIATIONAL))
        assert deflation_space(mesh) is None
        assert sol.residual <= 1e-5 * mesh.h

    def test_one_debug_record_per_space(self, caplog):
        caplog.set_level(logging.DEBUG, logger="fraclap")
        mesh, small = unit_square_mesh(32), unit_square_mesh(8)
        prob = make_problem(mesh, VARIATIONAL)
        solve_variational(prob)
        solve_variational(prob)
        objective(prob, np.zeros(mesh.n_interior))
        solve_variational(make_problem(small, VARIATIONAL))
        records = [r for r in caplog.records if r.name == "fraclap"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        built, skipped = (r.getMessage() for r in records)
        assert f"n = {mesh.n_interior}:" in built
        assert f"kept {fraclap.shifted._DEFLATE} modes, max eps" in built
        assert built.endswith(" s")
        assert f"n = {small.n_interior}: skipped" in skipped
