"""Shifted-family normalization, multishift CG, and sequential PCG."""

import numpy as np
import pytest
import scipy.sparse as sp

from fraclap import normalize, shifted, solve_family, unit_square_mesh
from fraclap.fem import operators
from fraclap.fractional import quadrature_for_mesh, sinc_quadrature
from fraclap.harness import hat_rhs
from fraclap.shifted import _MultishiftScan, solve_preconditioned


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

    def test_shared_basis_matvec_budget(self):
        mesh = unit_square_mesh(16)
        ops = operators(mesh)
        quad = sinc_quadrature(0.5, 0.4)
        _, stats = solve_family(ops.stiffness, ops.lumped_mass, quad.shifts,
                                np.ones(mesh.n_interior), labels=quad.l,
                                n_max=120)
        by_shift = quad.l[::-1]             # labels by decreasing shift
        assert all(stats.iterations[label] <= 120
                   for label in by_shift[:stats.n_alg1])
        assert stats.crossover == by_shift[stats.n_alg1 - 1]
        assert stats.n_alg1 + stats.n_alg2 == quad.n_systems

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

    @pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
    def test_matches_full_width_recurrences(self, s):
        fam, _ = self._family(s)
        n_max, rtol = 30, 1e-9
        scan = _MultishiftScan(fam, n_max, rtol)
        m_ref, n_ref, sols_ref = full_width_scan(fam, n_max, rtol)
        np.testing.assert_array_equal(scan.m_conv, m_ref)
        assert scan.n_basis == n_ref
        solved = np.flatnonzero(m_ref)
        # some shifts converge early and some never within n_max
        assert 0 < solved.size < fam.n_shifts
        sols = scan.reconstruct(solved)
        scale = np.linalg.norm(sols_ref[solved], axis=1, keepdims=True)
        assert (np.abs(sols - sols_ref[solved]) <= 1e-12 * scale).all()

    def test_reconstruct_keeps_requested_order(self):
        fam, _ = self._family(0.05)
        scan = _MultishiftScan(fam, 60, 1e-9)
        solved = np.flatnonzero(scan.m_conv)
        perm = np.random.default_rng(3).permutation(solved)
        rows = scan.reconstruct(solved)[np.searchsorted(solved, perm)]
        np.testing.assert_allclose(scan.reconstruct(perm), rows,
                                   rtol=1e-13, atol=0.0)

    def test_weighted_equals_weighted_rows(self):
        fam, quad = self._family(0.05)
        scan = _MultishiftScan(fam, 60, 1e-9)
        solved = np.flatnonzero(scan.m_conv)
        idx = np.random.default_rng(4).permutation(solved)
        w = quad.weights[::-1][idx]         # family order is decreasing shift
        combined = scan.reconstruct(idx, weights=w)
        expected = w @ scan.reconstruct(idx)
        assert np.linalg.norm(combined - expected) <= \
            1e-13 * np.linalg.norm(expected)

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
        sols, stats = solve_preconditioned(fam, fam.n_shifts, 20, 1e-8)
        assert sols.shape == (0, fam.n)
        assert stats.n_alg2 == 0
        assert stats.n_prec_setups == 0

    def test_rebuild_trigger_fires_iff_cap_exceeded(self):
        fam = self._family()
        # cap 0: every system after one that iterated "exceeds" the cap and
        # rebuilds, on top of the initial setup
        _, stats0 = solve_preconditioned(fam, fam.n_shifts - 12, 0, 1e-10)
        iters = [stats0.iterations[l] for l in fam.labels[-12:]]
        assert stats0.n_prec_setups == 1 + sum(it > 0 for it in iters[:-1])
        # generous cap: only the initial setup
        _, stats1 = solve_preconditioned(fam, fam.n_shifts - 12, 500, 1e-10)
        assert stats1.n_prec_setups == 1

    def test_exact_preconditioner_single_iteration(self):
        rng = np.random.default_rng(1)
        n = 30
        d = rng.uniform(1.0, 2.0, n)
        A = sp.diags(d).tocsr()
        Z = rng.standard_normal(n)
        shifts = np.array([1e-3, 1e-4, 1e-5])
        fam = normalize(A, np.ones(n), shifts, Z)
        # cap 0 rebuilds for every shift; IC(0) of a diagonal matrix is exact
        sols, stats = solve_preconditioned(fam, 0, 0, 1e-12)
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


def traced_solve(monkeypatch, fam, start, iter_cap, rtol, **kwargs):
    """``solve_preconditioned`` with its matvecs counted by wrapping
    ``fam.apply_scaled``, and its minimum-residual starts counted from the
    PCG runs it makes: a system starts from a combination exactly when the
    residual carried from its neighbor, ``r - (sigma - sigma_prev) x``,
    misses the tolerance.  Returns ``(result, matvecs, starts)``."""
    matvecs, finals = [0], []
    apply, pcg = fam.apply_scaled, shifted._pcg

    def counted_apply(v):
        matvecs[0] += 1
        return apply(v)

    def recorded_pcg(*args):
        x, r, iters, converged = pcg(*args)
        if converged:               # a system's last run (after any retry)
            finals.append((x.copy(), r.copy()))
        return x, r, iters, converged

    monkeypatch.setattr(fam, "apply_scaled", counted_apply)
    monkeypatch.setattr(shifted, "_pcg", recorded_pcg)
    result = solve_preconditioned(fam, start, iter_cap, rtol, **kwargs)
    sig = fam.shifts_scaled[start:]
    tol = rtol * float(np.linalg.norm(fam.rhs_scaled))
    starts = sum(np.linalg.norm(r - (s1 - s0) * x) > tol
                 for (x, r), s0, s1 in zip(finals, sig, sig[1:]))
    return result, matvecs[0], starts


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
        sols, stats = solve_preconditioned(fam, self.START, 20, self.RTOL)
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
        sols, _ = solve_preconditioned(fam, 0, 20, self.RTOL)
        b = fam.rhs_scaled
        for x, sigma in zip(sols, fam.shifts_scaled):
            r = b - fam.apply_scaled(x) - sigma * x
            assert np.linalg.norm(r) <= self.RTOL * np.linalg.norm(b)

    def test_only_the_first_system_pays_a_residual_matvec(self, monkeypatch):
        fam, _ = self._family()
        (_, stats), matvecs, starts = traced_solve(
            monkeypatch, fam, self.START, 20, self.RTOL)
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
        (sols, stats), matvecs, starts = traced_solve(
            monkeypatch, fam, 0, 5, 1e-10, prec_factory=Exact)
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
        rows, _ = solve_preconditioned(fam, self.START, 20, self.RTOL)
        combined, _ = solve_preconditioned(fam, self.START, 20, self.RTOL,
                                           weights=w)
        expected = w[self.START:] @ rows
        assert np.linalg.norm(combined - expected) <= \
            1e-13 * np.linalg.norm(expected)


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
