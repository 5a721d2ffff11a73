"""Shifted-family normalization, multishift CG, and sequential PCG."""

import dataclasses
import gc

import numpy as np
import pytest
import scipy.sparse as sp

import fraclap.fractional
from fraclap import (fractional_solve, read_mesh, shifted, solve_family,
                     unit_square_mesh, write_mesh)
from fraclap.fem import assemble_load, lump_mass, operators
from fraclap.fractional import (SolveOptions, quadrature_for_mesh,
                                sinc_quadrature)
from fraclap.harness import hat_rhs
from fraclap.shifted import _head, normalize, solve_preconditioned


def plain_cg(A_apply, b, rtol, maxiter=10000):
    """Textbook conjugate gradients, used as an independent reference."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    tol = rtol * np.linalg.norm(b)
    for _ in range(maxiter):
        if np.sqrt(rr) <= tol:
            break
        Ap = A_apply(p)
        alpha = rr / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rr_new = r @ r
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x


def combination(fam, weights):
    """The combination matrix of an unweighted solve in family order (the
    identity), or the one row of ``weights``."""
    return np.eye(fam.n_shifts) if weights is None else \
        np.asarray(weights, dtype=float)[None]


def run_head(fam, n_max, tol_abs, weights=None, deflate=False):
    """``_head`` with ``combination(fam, weights)``: the solved shifts' rows,
    or their weighted sum."""
    n_solved, n_basis, n_products, values, x_last = _head(
        fam, n_max, tol_abs, combination(fam, weights), deflate)
    values = values[:n_solved] if weights is None else values[0]
    return n_solved, n_basis, n_products, values, x_last


def run_tail(fam, start, rtol, weights=None, **kwargs):
    """``solve_preconditioned`` with ``combination(fam, weights)``: the rows
    of the shifts from ``start`` on, or their weighted sum."""
    values, stats = solve_preconditioned(
        fam, start, rtol, combination(fam, weights), **kwargs)
    return (values[start:] if weights is None else values[0]), stats


class TestNormalize:
    def test_identity_case(self):
        n = 6
        Z = np.arange(1.0, n + 1)
        fam = normalize(sp.eye(n).tocsr(), np.ones(n), np.array([3.0, 0.5]), Z)
        assert fam.rho == pytest.approx(1.0)
        sols, _ = solve_family(sp.eye(n).tocsr(), np.ones(n),
                               np.array([3.0, 0.5]), Z, rtol=1e-12)
        np.testing.assert_allclose(sols[0], Z / 4.0, rtol=1e-10)
        np.testing.assert_allclose(sols[1], Z / 1.5, rtol=1e-10)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            normalize(sp.eye(2).tocsr(), np.array([1.0, 0.0]),
                      np.array([1.0]), np.ones(2))

    def test_rejects_nan_shift(self):
        # unchecked, the scan ran to n_max and the tail's preconditioner
        # failed on a NaN diagonal
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        shifts = np.array([10.0, np.nan, 0.1])
        Z = np.ones(mesh.n_interior)
        with pytest.raises(ValueError, match="shifts"):
            normalize(ops.stiffness, ops.lumped_mass, shifts, Z)
        with pytest.raises(ValueError, match="shifts"):
            solve_family(ops.stiffness, ops.lumped_mass, shifts, Z)

    @pytest.mark.parametrize("bad", [np.nan, np.inf],
                             ids=["nan", "inf"])
    def test_rejects_mass_that_is_not_finite(self, bad):
        # unchecked, a NaN fails in the tridiagonal eigensolve and an inf
        # as "rtol = 0", errors that name neither input
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        mass = ops.lumped_mass.copy()
        mass[3] = bad
        with pytest.raises(ValueError, match="lumped mass"):
            solve_family(ops.stiffness, mass, np.array([1.0, 0.1]),
                         np.ones(mesh.n_interior))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_rhs_that_is_not_finite(self, bad):
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        Z = np.ones(mesh.n_interior)
        Z[5] = bad
        with pytest.raises(ValueError, match="right-hand side"):
            solve_family(ops.stiffness, ops.lumped_mass,
                         np.array([1.0, 0.1]), Z)

    @pytest.mark.parametrize("name", ["Z", "lumped_mass", "shifts"])
    def test_misshapen_input_names_its_argument(self, name):
        # these used to fail inside numpy: a broadcast error for Z or the
        # mass, an IndexError for 2-D shifts
        mesh = unit_square_mesh(16)
        ops = operators(mesh)
        args = {"A": ops.stiffness, "lumped_mass": ops.lumped_mass,
                "shifts": np.array([1.0, 0.1]),
                "Z": np.ones(mesh.n_interior)}
        args[name] = {"Z": np.ones(mesh.n_interior - 1),
                      "lumped_mass": ops.lumped_mass[1:],
                      "shifts": np.array([[1.0, 0.1], [0.01, 1e-3]])}[name]
        with pytest.raises(ValueError, match=name):
            solve_family(**args)

    def test_shifts_sorted_decreasing(self):
        fam = normalize(sp.eye(3).tocsr(), np.ones(3),
                        np.array([0.1, 10.0, 1.0]), np.ones(3),
                        labels=np.array([-1, 1, 0]))
        np.testing.assert_array_equal(fam.shifts, [10.0, 1.0, 0.1])
        np.testing.assert_array_equal(fam.labels, [1, 0, -1])

    def test_scaled_operator_has_unit_sup_norm(self):
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        fam = normalize(ops.stiffness, ops.lumped_mass, np.array([1.0]),
                        np.ones(mesh.n_interior))
        d = fam.inv_sqrt_mass
        scaled = sp.diags(d) @ ops.stiffness @ sp.diags(d) / fam.rho
        assert np.max(np.abs(scaled).sum(axis=1)) == pytest.approx(1.0)

    def test_single_dof_closed_form(self):
        mesh = unit_square_mesh(2)
        ops = operators(mesh)
        alphas = np.array([0.25, 4.0])
        Z = np.array([1.5])
        sols, _ = solve_family(ops.stiffness, ops.lumped_mass, alphas, Z,
                               rtol=1e-14)
        expected = Z / (4.0 + alphas * 0.125)
        np.testing.assert_allclose(sols[:, 0], expected, rtol=1e-12)

    def test_cache_keeps_one_entry_per_stiffness(self):
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        shifts = np.array([2.0, 0.5])
        gc.collect()        # earlier tests' matrices drop their entries
        before = len(shifted._scaled_cache)
        for _ in range(5):
            # a new lumped-mass array on every call
            solve_family(ops.stiffness, lump_mass(ops.mass), shifts,
                         np.ones(mesh.n_interior))
        assert len(shifted._scaled_cache) <= before + 1
        assert id(ops.stiffness) in shifted._scaled_cache

    def test_another_mass_gives_the_bits_of_a_fresh_operator(self):
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        shifts = np.array([2.0, 0.5, 1e-3])
        Z = np.ones(mesh.n_interior)
        other = ops.lumped_mass * np.linspace(0.5, 2.0, mesh.n_interior)
        solve_family(ops.stiffness, ops.lumped_mass, shifts, Z, n_max=5)
        got, _ = solve_family(ops.stiffness, other, shifts, Z, n_max=5)
        want, _ = solve_family(ops.stiffness.copy(), other, shifts, Z,
                               n_max=5)
        np.testing.assert_array_equal(got, want)


class TestMultishift:
    def test_diagonal_closed_form(self):
        rng = np.random.default_rng(0)
        n = 50
        d = rng.uniform(0.5, 4.0, n)
        shifts = np.array([0.01, 0.3, 2.0, 40.0])
        Z = rng.standard_normal(n)
        sols, stats = solve_family(sp.diags(d).tocsr(), np.ones(n), shifts,
                                   Z, rtol=1e-10, n_max=300)
        np.testing.assert_allclose(
            sols, Z[None, :] / (d[None, :] + shifts[:, None]), atol=1e-9)
        assert stats.n_alg2 == 0

    def test_shared_basis_matvec_budget(self, monkeypatch):
        mesh = unit_square_mesh(16)
        ops = operators(mesh)
        quad = sinc_quadrature(0.5, 0.4)
        # every matvec, and those made inside the PCG tail
        matvecs, in_tail = [0], [0]
        apply = shifted.ShiftedFamily.apply_scaled
        tail = shifted.solve_preconditioned

        def counted_apply(family, v, out=None):
            matvecs[0] += 1
            return apply(family, v, out)

        def counted_tail(*args, **kwargs):
            before = matvecs[0]
            result = tail(*args, **kwargs)
            in_tail[0] += matvecs[0] - before
            return result

        monkeypatch.setattr(shifted.ShiftedFamily, "apply_scaled",
                            counted_apply)
        monkeypatch.setattr(shifted, "solve_preconditioned", counted_tail)
        # the head converges within 120 vectors; at 20 it leaves a tail
        for n_max in (120, 20):
            matvecs[0] = in_tail[0] = 0
            _, stats = solve_family(ops.stiffness, ops.lumped_mass,
                                    quad.shifts, np.ones(mesh.n_interior),
                                    labels=quad.l, n_max=n_max)
            assert stats.n_matvec == matvecs[0]
            # the head shares one basis of at most n_max vectors
            head = matvecs[0] - in_tail[0]
            assert 0 < head <= n_max
            by_shift = quad.l[::-1]         # labels by decreasing shift
            assert all(stats.iterations[label] == head
                       for label in by_shift[:stats.n_alg1])
            assert stats.crossover == by_shift[stats.n_alg1 - 1]
            assert stats.n_alg1 + stats.n_alg2 == quad.n_systems
        assert stats.n_alg2 > 0 and in_tail[0] > 0

    def test_agrees_with_plain_cg_per_shift(self):
        mesh = unit_square_mesh(16)
        ops = operators(mesh)
        quad = sinc_quadrature(0.25, 0.5)
        Z = np.asarray(
            ops.mass @ np.sin(np.pi * mesh.vertices[mesh.interior]).prod(axis=1))
        rtol = 1e-9
        sols, stats = solve_family(ops.stiffness, ops.lumped_mass,
                                   quad.shifts, Z, labels=quad.l, rtol=rtol,
                                   n_max=500)
        mh = ops.lumped_mass
        for i in np.linspace(0, quad.n_systems - 1, 7).astype(int):
            alpha = quad.shifts[i]

            def apply(x, alpha=alpha):
                return ops.stiffness @ x + alpha * (mh * x)

            ref = plain_cg(apply, Z, rtol=1e-12)
            scale = np.linalg.norm(ref)
            assert np.linalg.norm(sols[i] - ref) <= 10 * rtol * scale

    def test_breakdown_on_indefinite_operator(self):
        A = sp.diags(np.array([1.0, -2.0, 3.0])).tocsr()
        with pytest.raises(RuntimeError):
            solve_family(A, np.ones(3), np.array([0.1]), np.ones(3))

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_max": 0}, "n_max"),
        ({"n_max": -3}, "n_max"),
        ({"rtol": -1e-8}, "rtol"),
        ({"rtol": float("nan")}, "rtol"),
        ({"rtol": float("inf")}, "rtol"),
        ({"rtol": 0.0, "n_max": 5}, "rtol"),    # the tail gets systems
        ({"rtol": 0.0, "n_max": 5, "weights": np.ones(41)}, "rtol"),
        # 41 shifts; a 42nd weight used to be dropped without a word
        ({"weights": np.ones(42)}, "weights"),
        ({"weights": np.ones(40)}, "weights"),
        ({"labels": np.arange(42)}, "labels"),
        ({"labels": list(range(40))}, "labels"),
        # one NaN weight used to give an all-NaN result without a word
        ({"weights": np.r_[np.ones(40), np.nan]}, "weights"),
        ({"weights": np.r_[np.inf, np.ones(40)]}, "weights"),
        # these used to fail with an IndexError from the empty family
        ({"shifts": np.array([])}, "shifts"),
        ({"shifts": np.array([]), "weights": np.array([])}, "shifts"),
        # a repeated label used to merge two systems' iteration counts
        ({"labels": np.r_[0, np.arange(40)]}, "labels"),
    ])
    def test_rejects_invalid_inputs_by_name(self, kwargs, name):
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        kwargs = {"shifts": sinc_quadrature(0.5, 0.5).shifts, **kwargs}
        with pytest.raises(ValueError, match=name):
            solve_family(ops.stiffness, ops.lumped_mass,
                         Z=assemble_rhs(mesh), **kwargs)

    def test_zero_rhs(self):
        mesh = unit_square_mesh(4)
        ops = operators(mesh)
        sols, stats = solve_family(ops.stiffness, ops.lumped_mass,
                                   np.array([0.5, 5.0]),
                                   np.zeros(mesh.n_interior))
        np.testing.assert_array_equal(sols, 0.0)
        assert stats.n_matvec == 0


def full_width_scan(family, n_max, rtol):
    """Reference multishift scan: every shift runs through every Lanczos
    step, and each converged shift is back-substituted on its own."""
    sig = family.shifts_scaled
    z = family.rhs_scaled
    beta0 = np.linalg.norm(z)
    D = np.zeros((sig.size, n_max))
    C = np.zeros((sig.size, n_max))
    m_conv = np.zeros(sig.size, dtype=np.int64)
    basis, b = [], []
    q_prev, q = np.zeros_like(z), z / beta0
    for j in range(n_max):
        basis.append(q)
        w = family.apply_scaled(q)
        if j > 0:
            w = w - b[j - 1] * q_prev
        aj = q @ w
        w = w - aj * q
        bj = np.linalg.norm(w)
        if j == 0:
            d, c = aj + sig, np.full(sig.size, beta0)
        else:
            ratio = b[j - 1] / d
            d, c = aj + sig - b[j - 1] * ratio, -ratio * c
        b.append(bj)
        D[:, j], C[:, j] = d, c
        hit = (m_conv == 0) & (np.abs(c) / d * bj <= rtol * beta0)
        m_conv[hit] = j + 1
        if (m_conv > 0).all():
            break
        q_prev, q = q, w / bj
    sols = np.zeros((sig.size, z.size))
    for i in np.flatnonzero(m_conv):
        m = m_conv[i]
        y = np.zeros(m + 1)
        for j in range(m - 1, -1, -1):
            y[j] = (C[i, j] - b[j] * y[j + 1]) / D[i, j]
        sols[i] = y[:m] @ np.array(basis[:m])
    return m_conv, len(basis), sols


class TestActiveSetScan:
    def _family(self, s, k=0.4):
        mesh = unit_square_mesh(16)
        ops = operators(mesh)
        quad = sinc_quadrature(s, k)
        return normalize(ops.stiffness, ops.lumped_mass, quad.shifts,
                         assemble_rhs(mesh), labels=quad.l), quad

    def _head(self, fam, n_max, rtol, weights=None):
        tol_abs = rtol * np.linalg.norm(fam.rhs_scaled)
        return run_head(fam, n_max, tol_abs, weights)

    @pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
    def test_matches_full_width_recurrences(self, s):
        fam, _ = self._family(s)
        rtol = 1e-9
        solved = []
        for n_max in (30, 60):
            n_solved, n_basis, _, rows, _ = self._head(fam, n_max, rtol)
            m_ref, n_ref, sols_ref = full_width_scan(fam, n_max, rtol)
            assert n_solved == np.count_nonzero(m_ref)
            assert n_basis == n_ref
            # the reference solves each shift in the basis it converged in,
            # the head in the whole basis: both meet rtol
            ref = sols_ref[:n_solved]
            scale = np.linalg.norm(ref, axis=1)
            assert (np.linalg.norm(rows - ref, axis=1) <= 1e-8 * scale).all()
            solved.append(n_solved)
        # at n_max = 30 some shifts are solved and some are not
        assert 0 < solved[0] < fam.n_shifts

    @pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
    def test_head_rows_meet_rtol(self, s):
        fam, _ = self._family(s)
        rtol = 1e-9
        b = fam.rhs_scaled
        for n_max in (30, 60):
            n_solved, _, _, rows, _ = self._head(fam, n_max, rtol)
            for x, sigma in zip(rows, fam.shifts_scaled[:n_solved]):
                r = b - fam.apply_scaled(x) - sigma * x
                assert np.linalg.norm(r) <= rtol * np.linalg.norm(b)

    def test_weighted_equals_weighted_rows(self):
        fam, quad = self._family(0.05)
        w = quad.weights[::-1]              # family order is decreasing shift
        n_solved, _, _, rows, x_last = self._head(fam, 30, 1e-9)
        _, _, _, combined, _ = self._head(fam, 30, 1e-9, weights=w)
        expected = w[:n_solved] @ rows
        assert np.linalg.norm(combined - expected) <= \
            1e-13 * np.linalg.norm(expected)
        # the tail starts from the last head row
        assert n_solved < fam.n_shifts
        assert np.linalg.norm(x_last - rows[-1]) <= \
            1e-13 * np.linalg.norm(rows[-1])

    def test_eigenvector_rhs_stops_after_one_vector(self):
        a = np.array([1.0, 2.0, 5.0, 3.0])
        mass = np.array([0.5, 1.0, 2.0, 0.25])
        Z = np.zeros(4)
        Z[2] = 1.0            # an eigenvector of the scaled operator
        shifts = np.array([0.01, 1.0, 100.0])
        sols, stats = solve_family(sp.diags(a).tocsr(), mass, shifts, Z,
                                   rtol=0.0)
        assert stats.n_matvec == 1
        assert stats.n_alg2 == 0
        np.testing.assert_allclose(
            sols, Z[None, :] / (a[None, :] + shifts[:, None] * mass),
            rtol=1e-14, atol=0.0)

    def test_breakdown_after_some_shifts_converged(self):
        # the huge shift converges at the first step; the small one then
        # meets the negative eigenvalue
        A = sp.diags(np.array([1.0, -2.0, 3.0])).tocsr()
        with pytest.raises(RuntimeError, match="breakdown"):
            solve_family(A, np.ones(3), np.array([1e12, 0.1]), np.ones(3))


class TestSequentialPCG:
    def _family(self, mesh_m=8, s=0.05, k=0.45):
        mesh = unit_square_mesh(mesh_m)
        ops = operators(mesh)
        quad = sinc_quadrature(s, k)
        Z = np.asarray(assemble_rhs(mesh))
        fam = normalize(ops.stiffness, ops.lumped_mass, quad.shifts, Z,
                        labels=quad.l)
        return fam

    def test_empty_range_is_noop(self):
        fam = self._family()
        sols, stats = run_tail(fam, fam.n_shifts, 1e-8)
        assert sols.shape == (0, fam.n)
        assert stats.n_alg2 == 0
        assert stats.n_prec_setups == 0

    def test_rebuild_trigger_fires_iff_cap_exceeded(self, monkeypatch):
        fam = self._family()
        # cap 0: every system after one that iterated "exceeds" the cap and
        # rebuilds, on top of the initial setup
        monkeypatch.setattr(shifted, "_ITER_CAP", 0)
        _, stats0 = run_tail(fam, fam.n_shifts - 12, 1e-10)
        iters = [stats0.iterations[l] for l in fam.labels[-12:]]
        assert stats0.n_prec_setups == 1 + sum(it > 0 for it in iters[:-1])
        # generous cap: only the initial setup
        monkeypatch.setattr(shifted, "_ITER_CAP", 500)
        _, stats1 = run_tail(fam, fam.n_shifts - 12, 1e-10)
        assert stats1.n_prec_setups == 1

    def test_exact_preconditioner_single_iteration(self, monkeypatch):
        rng = np.random.default_rng(1)
        n = 30
        d = rng.uniform(1.0, 2.0, n)
        A = sp.diags(d).tocsr()
        Z = rng.standard_normal(n)
        shifts = np.array([1e-3, 1e-4, 1e-5])
        fam = normalize(A, np.ones(n), shifts, Z)
        # cap 0 rebuilds for every shift; symmetric Gauss-Seidel on a diagonal
        # matrix is exact
        monkeypatch.setattr(shifted, "_ITER_CAP", 0)
        sols, stats = run_tail(fam, 0, 1e-12)
        assert all(v <= 1 for v in stats.iterations.values())
        for x, alpha in zip(sols, fam.shifts):
            np.testing.assert_allclose(fam.unnormalize(x),
                                       Z / (d + alpha), rtol=1e-10)

    def test_residuals_of_full_family(self):
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        quad = sinc_quadrature(0.05, 0.45)
        Z = np.asarray(assemble_rhs(mesh))
        sols, stats = solve_family(ops.stiffness, ops.lumped_mass,
                                   quad.shifts, Z, labels=quad.l, rtol=1e-8,
                                   n_max=8)
        assert stats.n_alg2 > 0
        assert stats.n_systems == quad.n_systems
        norm_z = np.linalg.norm(Z)
        for v, alpha in zip(sols, quad.shifts):
            r = ops.stiffness @ v + alpha * (ops.lumped_mass * v) - Z
            assert np.linalg.norm(r) <= 1e-8 * norm_z


class TestStagnation:
    """A tail system that PCG cannot solve raises, naming its shift and
    label, once it has failed with a freshly built preconditioner."""

    @staticmethod
    def never(op, x0, r0, prec, tol, maxiter):
        return x0, r0, maxiter, False

    def _solve(self, monkeypatch, pcg):
        """``(error, preconditioner shifts, tail shifts and labels)`` of a
        2D m = 16 solve whose tail runs ``pcg``."""
        mesh = unit_square_mesh(16)
        opts = SolveOptions(n_max=5)
        good = fractional_solve(mesh, 0.5, hat_rhs(mesh), opts)
        quad = good.quadrature
        order = np.argsort(-quad.shifts)[good.stats.n_alg1:]
        builds = []
        gmg = fraclap.fractional.GeometricMultigrid

        def counted(hierarchy, alpha):
            builds.append(alpha)
            return gmg(hierarchy, alpha)

        monkeypatch.setattr(fraclap.fractional, "GeometricMultigrid", counted)
        monkeypatch.setattr(shifted, "_pcg", pcg)
        with pytest.raises(RuntimeError, match="PCG stagnation") as exc:
            fractional_solve(mesh, 0.5, hat_rhs(mesh), opts)
        return str(exc.value), builds, quad.shifts[order], quad.l[order]

    def test_first_system(self, monkeypatch):
        # its preconditioner is fresh, so it is not built twice
        err, builds, shifts, labels = self._solve(monkeypatch, self.never)
        assert builds == [shifts[0]]
        assert err.startswith(f"PCG stagnation on shift {shifts[0]:.4g} "
                              f"(label {labels[0]}): no convergence within ")
        assert err.endswith(" after a fresh preconditioner")

    def test_after_a_cheap_system(self, monkeypatch):
        # the first system converges within the cap, so the next one keeps
        # its preconditioner and builds a fresh one only once it fails
        pcg, calls = shifted._pcg, []

        def first_only(*args):
            calls.append(args)
            return pcg(*args) if len(calls) == 1 else self.never(*args)

        err, builds, shifts, labels = self._solve(monkeypatch, first_only)
        assert len(calls) == 3 and len(builds) == 2
        assert builds[0] == shifts[0] and builds[1] in shifts[1:]
        pos = list(shifts).index(builds[1])
        assert err.startswith(f"PCG stagnation on shift {shifts[pos]:.4g} "
                              f"(label {labels[pos]}): no convergence ")
        assert err.endswith(" after a fresh preconditioner")


def traced_solve(monkeypatch, fam, start, rtol, **kwargs):
    """``solve_preconditioned`` with its matvecs counted by wrapping
    ``fam.apply_scaled``, and its minimum-residual starts counted by wrapping
    the start itself.  Returns ``(result, matvecs, starts)``."""
    matvecs, starts = [0], [0]
    apply, min_residual = fam.apply_scaled, shifted._History.start

    def counted_apply(v):
        matvecs[0] += 1
        return apply(v)

    def counted_start(history, sigma):
        starts[0] += 1
        return min_residual(history, sigma)

    monkeypatch.setattr(fam, "apply_scaled", counted_apply)
    monkeypatch.setattr(shifted._History, "start", counted_start)
    result = run_tail(fam, start, rtol, **kwargs)
    return result, matvecs[0], starts[0]


class TestCarriedResidual:
    """The PCG tail derives each initial residual from its neighbor's, and
    restarts a system whose carried residual misses the tolerance from the
    minimum-residual combination of earlier solutions."""

    START, RTOL = 0, 1e-8

    def _family(self, m=32, s=0.95):
        mesh = unit_square_mesh(m)
        ops = operators(mesh)
        quad = quadrature_for_mesh(s, mesh.h)
        fam = normalize(ops.stiffness, ops.lumped_mass, quad.shifts,
                        assemble_rhs(mesh), labels=quad.l)
        return fam, quad.weights[::-1]      # family order: decreasing shift

    def test_true_residual_of_every_row(self):
        fam, _ = self._family()
        sols, stats = run_tail(fam, self.START, self.RTOL)
        iters = np.array([stats.iterations[l]
                          for l in fam.labels[self.START:]])
        # the tail mixes iterating systems with systems whose warm start
        # already meets the tolerance
        assert (iters == 0).sum() > 100 and (iters > 0).sum() > 10
        b = fam.rhs_scaled
        for x, sigma in zip(sols, fam.shifts_scaled[self.START:]):
            r = b - fam.apply_scaled(x) - sigma * x
            assert np.linalg.norm(r) <= self.RTOL * np.linalg.norm(b)

    @pytest.mark.parametrize("m, s", [(64, 0.5), (32, 0.05)])
    def test_minimum_residual_starts_meet_rtol(self, m, s):
        # the whole quadrature as one tail, scaled shifts from ~1e4 (m = 64)
        # or ~1e70 (m = 32, s = 0.05) down: large combination coefficients,
        # so a start that kept its combined residual instead of computing
        # the true one left rows at 7e-3 and 31 relative
        fam, _ = self._family(m, s)
        sols, _ = run_tail(fam, 0, self.RTOL)
        b = fam.rhs_scaled
        for x, sigma in zip(sols, fam.shifts_scaled):
            r = b - fam.apply_scaled(x) - sigma * x
            assert np.linalg.norm(r) <= self.RTOL * np.linalg.norm(b)

    def test_only_the_first_system_pays_a_residual_matvec(self, monkeypatch):
        fam, _ = self._family()
        (_, stats), matvecs, starts = traced_solve(
            monkeypatch, fam, self.START, self.RTOL)
        # no rebuild retry: every system converged within maxiter
        assert max(stats.iterations.values()) < 200
        # besides the first system's, only the minimum-residual starts pay
        # a residual matvec; most carried residuals meet the tolerance
        assert 0 < starts < fam.n_shifts // 4
        assert stats.n_matvec == matvecs
        assert stats.n_matvec == 1 + starts + sum(stats.iterations.values())

    def test_retry_after_fresh_preconditioner_recomputes_residual(
            self, monkeypatch):
        n = 400
        A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1]).tocsr() * n * n
        mass = np.full(n, 1.0 / n)

        class Exact:
            def __init__(self, alpha):
                self.inv = np.linalg.inv(
                    (A + alpha * sp.diags(mass)).toarray())

            def apply(self, v):
                return self.inv @ v

        Z = np.random.default_rng(5).standard_normal(n)
        fam = normalize(A, mass, np.array([1e8, 1e-3]), Z)
        # the exact inverse at the huge shift is a poor preconditioner at
        # the small one: the second system, after its minimum-residual
        # start, exhausts maxiter = 50 and is retried with a fresh
        # preconditioner from its true residual
        monkeypatch.setattr(shifted, "_ITER_CAP", 5)
        (sols, stats), matvecs, starts = traced_solve(
            monkeypatch, fam, 0, 1e-10, prec_factory=Exact)
        assert stats.n_prec_setups == 2
        assert stats.iterations[1] > 50
        assert starts == 1
        assert stats.n_matvec == matvecs
        assert stats.n_matvec == 2 + starts + sum(stats.iterations.values())
        b = fam.rhs_scaled
        for x, sigma in zip(sols, fam.shifts_scaled):
            r = b - fam.apply_scaled(x) - sigma * x
            assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)

    def test_weighted_equals_weighted_rows(self):
        fam, w = self._family()
        rows, _ = run_tail(fam, self.START, self.RTOL)
        combined, _ = run_tail(fam, self.START, self.RTOL,
                                           weights=w)
        expected = w[self.START:] @ rows
        assert np.linalg.norm(combined - expected) <= \
            1e-13 * np.linalg.norm(expected)

    def test_weighted_tail_from_a_start_vector(self):
        # a tail that starts mid-family from a given vector, as after the
        # multishift head: the weights of each run of carried systems are
        # summed before they multiply the shared solution
        fam, w = self._family()
        start = int(np.argmax(fam.shifts_scaled < 0.1))
        x_start = fam.rhs_scaled / (1.0 + fam.shifts_scaled[start])
        rows, stats = run_tail(fam, start, self.RTOL,
                                           x_start=x_start)
        combined, _ = run_tail(fam, start, self.RTOL,
                                           x_start=x_start, weights=w)
        iters = np.array(list(stats.iterations.values()))
        assert start > 0
        assert (iters == 0).sum() > 100 and (iters > 0).sum() > 10
        expected = w[start:] @ rows
        assert np.linalg.norm(combined - expected) <= \
            1e-13 * np.linalg.norm(expected)

    def test_systems_accepted_without_a_vector_meet_tol(self, monkeypatch):
        # a system accepted on the scalar estimate of its carried residual
        # runs no PCG; form that residual from the last PCG result
        fam, _ = self._family()
        b = fam.rhs_scaled
        runs = []                   # (x, r, sigma) of every PCG run
        pcg = shifted._pcg

        def recorded_pcg(op, *args):
            x, r, iters, converged = pcg(op, *args)
            probe = np.ones_like(x)
            sigma = (op(probe) - fam.apply_scaled(probe)).mean()
            runs.append((x, r.copy(), sigma))
            return x, r, iters, converged

        monkeypatch.setattr(shifted, "_pcg", recorded_pcg)
        sols, _ = run_tail(fam, 0, self.RTOL)
        sig = fam.shifts_scaled
        ran = {int(np.argmin(np.abs(np.log(sig / s)))): run
               for run in runs for s in [run[2]]}
        tol = self.RTOL * np.linalg.norm(b)
        accepted = 0
        for pos in range(fam.n_shifts):
            if pos in ran:
                x, r, sigma_r = ran[pos]
                continue
            accepted += 1
            np.testing.assert_array_equal(sols[pos], x)
            assert np.linalg.norm(r - (sig[pos] - sigma_r) * x) <= tol
        assert accepted > 100

    def test_gram_start_is_near_the_least_squares_start(self, monkeypatch):
        # the p x p normal equations against lstsq on the explicit (n, p)
        # block, wherever that block is not too ill-conditioned
        fam, _ = self._family()
        b = fam.rhs_scaled
        ratios = []
        start = shifted._History.start

        def compared_start(history, sigma):
            x = start(history, sigma)
            p = history.size
            W = (history.Y[:p] + sigma * history.X[:p]).T
            if np.linalg.cond(W) <= 1e6:
                c = np.linalg.lstsq(W, b, rcond=None)[0]
                x_ref = c @ history.X[:p]

                def residual(v):
                    return np.linalg.norm(
                        b - fam.apply_scaled(v) - sigma * v)

                ratios.append(residual(x) / residual(x_ref))
            return x

        monkeypatch.setattr(shifted._History, "start", compared_start)
        run_tail(fam, 0, self.RTOL)
        assert len(ratios) > 10
        assert max(ratios) <= 2.0


def assemble_rhs(mesh):
    return np.asarray(operators(mesh).mass @ hat_rhs(mesh).values)


class TestStats:
    def test_split_identity(self):
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        quad = sinc_quadrature(0.5, 0.5)
        Z = assemble_rhs(mesh)
        _, stats = solve_family(ops.stiffness, ops.lumped_mass, quad.shifts,
                                Z, labels=quad.l, n_max=40)
        assert stats.n_alg1 + stats.n_alg2 == quad.n_systems
        assert stats.crossover is not None

    def test_weighted_combination_matches_sum(self):
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        quad = sinc_quadrature(0.5, 0.6)
        Z = assemble_rhs(mesh)
        sols, _ = solve_family(ops.stiffness, ops.lumped_mass, quad.shifts,
                               Z, labels=quad.l, rtol=1e-11, n_max=50)
        combined, _ = solve_family(ops.stiffness, ops.lumped_mass,
                                   quad.shifts, Z, labels=quad.l, rtol=1e-11,
                                   n_max=50, weights=quad.weights)
        np.testing.assert_allclose(combined, quad.weights @ sols,
                                   rtol=1e-9, atol=1e-13)

    def test_weighted_solve_with_empty_head(self):
        # one basis vector solves neither shift: PCG takes every system
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        shifts, w = np.array([0.5, 5.0]), np.array([0.3, 0.7])
        Z = assemble_rhs(mesh)
        sols, stats = solve_family(ops.stiffness, ops.lumped_mass, shifts, Z,
                                   rtol=1e-11, n_max=1)
        assert stats.n_alg1 == 0
        combined, _ = solve_family(ops.stiffness, ops.lumped_mass, shifts, Z,
                                   rtol=1e-11, n_max=1, weights=w)
        np.testing.assert_allclose(combined, w @ sols, rtol=1e-9, atol=1e-13)


class TestCallerOrder:
    """Shifts in any order: the rows come back in the caller's order and the
    statistics under the caller's labels."""

    @pytest.mark.parametrize("kwargs", [{}, {"n_max": 20}, {"deflate": True}],
                             ids=["head", "tail", "deflated"])
    def test_random_permutation_of_the_shifts(self, kwargs):
        mesh = unit_square_mesh(16)
        ops = operators(mesh)
        quad = sinc_quadrature(0.5, 0.4)
        Z = assemble_rhs(mesh)
        perm = np.random.default_rng(7).permutation(quad.n_systems)
        shifts, labels, w = quad.shifts[perm], quad.l[perm], \
            quad.weights[perm]

        def solve(shifts, labels, weights=None):
            return solve_family(ops.stiffness, ops.lumped_mass, shifts, Z,
                                labels=labels, weights=weights, **kwargs)

        rows, stats = solve(quad.shifts, quad.l)
        got, got_stats = solve(shifts, labels)
        assert (got_stats.n_alg2 > 0) == ("n_max" in kwargs)
        want = rows[perm]
        assert np.all(np.linalg.norm(got - want, axis=1)
                      <= 1e-13 * np.linalg.norm(want, axis=1))
        u, _ = solve(shifts, labels, w)
        assert np.linalg.norm(u - w @ got) <= 1e-12 * np.linalg.norm(w @ got)
        assert set(got_stats.iterations) == set(labels)
        assert got_stats.iterations == stats.iterations
        assert got_stats.crossover == stats.crossover


def jittered_square(path, m):
    """``unit_square_mesh(m)`` with jittered interior vertices, read back
    from ``path``: a mesh with non-uniform lumped mass."""
    grid = unit_square_mesh(m)
    vertices = grid.vertices.copy()
    vertices[grid.interior] += 0.1 * grid.h * np.random.default_rng(3) \
        .uniform(-1.0, 1.0, (grid.n_interior, 2))
    write_mesh(dataclasses.replace(grid, vertices=vertices), path)
    return read_mesh(path)


@pytest.fixture(scope="module")
def deflation_meshes(tmp_path_factory):
    """The meshes of the deflated-head tests, built once per module, with
    the deflation space of each kept on its stiffness matrix."""
    meshes = {"square32": unit_square_mesh(32),
              "square64": unit_square_mesh(64),
              "perturbed32": jittered_square(
                  tmp_path_factory.mktemp("mesh") / "jittered32.txt", 32)}
    for mesh in meshes.values():
        ops = operators(mesh)
        shifted._deflate(normalize(ops.stiffness, ops.lumped_mass,
                                   np.ones(1), np.zeros(mesh.n_interior)))
    return meshes


MESHES = ["square32", "square64", "perturbed32"]


def deflation_rhs(mesh):
    """The hat load on a grid, a smooth load without its symmetries on the
    jittered mesh."""
    if mesh.cells_per_side is not None:
        return assemble_rhs(mesh)
    return assemble_load(mesh, lambda x: np.exp(x[:, 0]) * (1.0 + x[:, 1]))
S_VALUES = [0.05, 0.5, 0.95]


class TestDeflatedHead:
    """Scans that start from the rhs with the operator's lowest eigenmodes
    taken out, and add those modes' exact part back to every solution."""

    RTOL = 1e-8

    def _family(self, mesh, s, Z=None, deflated=True):
        ops = operators(mesh)
        # a copy of the stiffness matrix is an operator without the space
        A = ops.stiffness if deflated else ops.stiffness.copy()
        quad = quadrature_for_mesh(s, mesh.h)
        Z = deflation_rhs(mesh) if Z is None else Z
        fam = normalize(A, ops.lumped_mass, quad.shifts, Z, labels=quad.l)
        assert (fam.spare.get("deflation") is not None) == deflated
        return fam, quad.weights[::-1]      # family order: decreasing shift

    def _head(self, fam, n_max=shifted._SCAN_MAX, weights=None):
        tol_abs = self.RTOL * np.linalg.norm(fam.rhs_scaled)
        return run_head(fam, n_max, tol_abs, weights, deflate=True)

    def _assert_rows_meet_rtol(self, fam, rows):
        b = fam.rhs_scaled
        for x, sigma in zip(rows, fam.shifts_scaled):
            r = b - fam.apply_scaled(x) - sigma * x
            assert np.linalg.norm(r) <= self.RTOL * np.linalg.norm(b)

    @pytest.mark.parametrize("s", S_VALUES)
    @pytest.mark.parametrize("name", MESHES)
    def test_head_rows_meet_rtol(self, deflation_meshes, name, s):
        fam, _ = self._family(deflation_meshes[name], s)
        n_solved, n_basis, _, rows, _ = self._head(fam)
        assert n_solved == fam.n_shifts
        self._assert_rows_meet_rtol(fam, rows)
        # the lowest modes no longer set the basis size
        plain, _ = self._family(deflation_meshes[name], s, deflated=False)
        assert n_basis < self._head(plain)[1]

    @pytest.mark.parametrize("s", S_VALUES)
    @pytest.mark.parametrize("name", MESHES)
    def test_u_matches_the_undeflated_solve(self, deflation_meshes, name, s):
        fam, w = self._family(deflation_meshes[name], s)
        plain, _ = self._family(deflation_meshes[name], s, deflated=False)
        u = self._head(fam, weights=w)[3]
        want = self._head(plain, weights=w)[3]
        assert np.linalg.norm(u - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("s", S_VALUES)
    @pytest.mark.parametrize("name", MESHES)
    def test_weighted_equals_weighted_rows(self, deflation_meshes, name, s):
        fam, w = self._family(deflation_meshes[name], s)
        # a basis of 20 vectors leaves the smallest shifts to the tail
        n_solved, _, _, rows, _ = self._head(fam, 20)
        _, _, _, combined, x_start = self._head(fam, 20, weights=w)
        assert 0 < n_solved < fam.n_shifts
        expected = w[:n_solved] @ rows
        assert np.linalg.norm(combined - expected) <= \
            1e-13 * np.linalg.norm(expected)
        # the tail starts from the last head row, modal part included
        assert np.linalg.norm(x_start - rows[-1]) <= \
            1e-13 * np.linalg.norm(rows[-1])

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["rows", "weighted"])
    @pytest.mark.parametrize("s", S_VALUES)
    @pytest.mark.parametrize("name", MESHES)
    def test_tail_meets_rtol_from_the_deflated_start(
            self, deflation_meshes, name, s, weighted):
        mesh = deflation_meshes[name]
        ops = operators(mesh)
        quad = quadrature_for_mesh(s, mesh.h)
        Z = deflation_rhs(mesh)
        sols, stats = solve_family(ops.stiffness, ops.lumped_mass,
                                   quad.shifts, Z, labels=quad.l,
                                   rtol=self.RTOL, n_max=20, deflate=True)
        assert 0 < stats.n_alg1 and stats.n_alg2 > 0
        norm_z = np.linalg.norm(Z)
        for v, alpha in zip(sols, quad.shifts):
            r = ops.stiffness @ v + alpha * (ops.lumped_mass * v) - Z
            assert np.linalg.norm(r) <= self.RTOL * norm_z
        if weighted:
            u, _ = solve_family(ops.stiffness, ops.lumped_mass, quad.shifts,
                                Z, labels=quad.l, rtol=self.RTOL, n_max=20,
                                weights=quad.weights, deflate=True)
            want = quad.weights @ sols
            assert np.linalg.norm(u - want) <= 1e-7 * np.linalg.norm(want)

    @pytest.mark.parametrize("s", S_VALUES)
    @pytest.mark.parametrize("name", MESHES)
    def test_stopping_test_pays_for_inexact_modes(self, deflation_meshes,
                                                  name, s):
        # modes perturbed until their residual bound takes 45% of the
        # tolerance: a scan that stopped on the full tolerance would leave
        # the smallest shifts' true residuals above it
        fam, _ = self._family(deflation_meshes[name], s)
        U = fam.spare["deflation"][0]
        b = fam.rhs_scaled
        tol_abs = self.RTOL * np.linalg.norm(b)
        noise = np.random.default_rng(5).standard_normal(U.shape)

        def space(delta):
            V = np.linalg.qr((U + delta * noise).T)[0].T
            AV = fam.apply_scaled(V.T)
            lam = np.einsum("ij,ji->i", V, AV)
            eps = np.linalg.norm(AV - V.T * lam, axis=0)
            bound = eps @ (np.abs(V @ b) / (lam + fam.shifts_scaled[-1]))
            return (V, lam, eps), bound

        _, bound = space(1e-6)
        inexact, bound = space(1e-6 * 0.45 * tol_abs / bound)
        assert 0.4 * tol_abs < bound <= 0.5 * tol_abs
        fam = dataclasses.replace(fam, spare={"deflation": inexact})
        n_solved, _, _, rows, _ = self._head(fam)
        assert n_solved == fam.n_shifts
        self._assert_rows_meet_rtol(fam, rows)
        # the guarantee itself: the scan's own residual plus the modes'
        # bound, per row
        V, lam, eps = inexact
        c = V @ b
        for x, sigma in zip(rows, fam.shifts_scaled):
            y = x - (c / (lam + sigma)) @ V
            r_scan = b - c @ V - fam.apply_scaled(y) - sigma * y
            assert np.linalg.norm(r_scan) \
                + eps @ (np.abs(c) / (lam + sigma)) <= tol_abs

    def test_zero_rhs(self, deflation_meshes):
        mesh = deflation_meshes["square32"]
        ops = operators(mesh)
        sols, stats = solve_family(ops.stiffness, ops.lumped_mass,
                                   np.array([0.5, 5.0]),
                                   np.zeros(mesh.n_interior), deflate=True)
        np.testing.assert_array_equal(sols, 0.0)
        assert stats.n_matvec == 0

    @pytest.mark.parametrize("modes", [[0], [0, 4, 29]],
                             ids=["eigenvector", "span"])
    def test_rhs_in_the_space_gets_the_modal_solution(self, deflation_meshes,
                                                      modes):
        mesh = deflation_meshes["square32"]
        ops = operators(mesh)
        fam, _ = self._family(mesh, 0.5)
        U, lam, _ = fam.spare["deflation"]
        coef = np.arange(1.0, len(modes) + 1)
        # Z with scaled rhs d Z / rho = coef @ U[modes]
        Z = fam.rho * (coef @ U[modes]) / fam.inv_sqrt_mass
        sols, stats = solve_family(ops.stiffness, ops.lumped_mass,
                                   fam.shifts, Z, rtol=self.RTOL,
                                   deflate=True)
        assert stats.n_matvec == 0 and stats.n_alg2 == 0
        want = (coef / (lam[modes] + fam.shifts_scaled[:, None])) @ U[modes]
        assert np.linalg.norm(sols / fam.inv_sqrt_mass - want) <= \
            1e-12 * np.linalg.norm(want)

    def test_shift_below_the_lowest_mode_scans_undeflated(
            self, deflation_meshes):
        # lam_1 + sigma <= 0 would make the modes' bound negative; the scan
        # runs without the space and reports the indefinite system
        mesh = deflation_meshes["square32"]
        ops = operators(mesh)
        fam, _ = self._family(mesh, 0.5)
        lam_1 = fam.spare["deflation"][1][0]
        shifts = np.array([1.0, -2.0 * lam_1 * fam.rho])
        with pytest.raises(RuntimeError, match="breakdown"):
            solve_family(ops.stiffness, ops.lumped_mass, shifts,
                         deflation_rhs(mesh), deflate=True)
