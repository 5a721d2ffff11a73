"""Acceptance suite: end-to-end checks with pinned tolerances.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Criterion 1b asserts an absolute quadrature accuracy of 1e-5 at step
k = 0.35; with the implemented node counts N+ = ceil(pi^2/(4 s k^2)) and
N- = ceil(pi^2/(4 (1-s) k^2)) the truncated positive tail of the node sum is
of size exp(-pi^2/(4k)) ~ 8.7e-4 (each omitted term scales like
exp(-s k l), and the last retained term alone is ~1.5e-5), so that bound is
not attainable with these node counts and the check is expected to fail; the
monotone-decay part (1a) holds.
"""

import time

import numpy as np
import pytest

from fraclap import (NodalFunction, hat_rhs, interpolate, l2_norm, objective,
                     post_process, reduced_gradient, sinc_quadrature,
                     solve_fully_discrete, solve_variational,
                     spectral_oracle_solve, unit_square_mesh)
from fraclap.control import FULLY_DISCRETE, VARIATIONAL, ControlProblem
from fraclap.fem import operators, project_p0
from fraclap.fractional import SolveOptions, fractional_solve, solve_all_shifted
from fraclap.harness import ExperimentConfig, run_control_convergence, \
    run_state_convergence

pytestmark = pytest.mark.acceptance


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")


def eigen_fn(points):
    return np.sin(2 * np.pi * points[:, 0]) * np.sin(2 * np.pi * points[:, 1])


def finest_rate(table):
    """Measured asymptotic rate: the finest level pair's log2 error ratio,
    the same convention as the published rate tables."""
    return table.rate[-1]


# ---------------------------------------------------------------- criterion 1
def _sinc_vs_oracle_errors():
    mesh = unit_square_mesh(8)
    rhs = hat_rhs(mesh)
    out = {}
    for s in (0.05, 0.5, 0.95):
        oracle = spectral_oracle_solve(mesh, s, rhs)
        scale = l2_norm(oracle)
        errs = []
        for k in (1.0, 0.7, 0.5, 0.35):
            res = fractional_solve(mesh, s, rhs, SolveOptions(k=k, rtol=1e-12))
            errs.append(l2_norm(NodalFunction(
                mesh, res.u.values - oracle.values)) / scale)
        out[s] = errs
    return out


def test_criterion_1a_sinc_error_decreases_with_k():
    t0 = time.time()
    errors = _sinc_vs_oracle_errors()
    ok = all(all(a > b for a, b in zip(errs, errs[1:]))
             for errs in errors.values())
    report("1a sinc error monotone in k", ok,
           f"({time.time() - t0:.1f}s; final errors "
           f"{ {s: f'{e[-1]:.2e}' for s, e in errors.items()} })")
    assert ok
    assert time.time() - t0 < 10.0


def test_criterion_1b_sinc_error_magnitude_at_smallest_step():
    errors = _sinc_vs_oracle_errors()
    worst = max(errs[-1] for errs in errors.values())
    ok = worst <= 1e-5
    report("1b sinc relative error <= 1e-5 at k=0.35", ok,
           f"(worst {worst:.3e}; truncation tail exp(-pi^2/(4k)) = "
           f"{np.exp(-np.pi ** 2 / 1.4):.3e})")
    assert ok, (
        "quadrature error at k=0.35 is dominated by the truncated node tail "
        f"of size ~exp(-pi^2/(4k)) ~ 8.7e-4; measured {worst:.3e}")


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_state_equation_rates():
    t0 = time.time()
    cfg = ExperimentConfig(s_values=(0.05, 0.10, 0.25),
                           levels=(3, 4, 5, 6, 7), ref_level=9)
    tables = run_state_convergence(cfg)
    targets = {0.05: 1.6, 0.10: 1.7, 0.25: 2.0}
    measured = {s: finest_rate(t) for s, t in tables.items()}
    ok = all(abs(measured[s] - targets[s]) <= 0.2 for s in targets)
    elapsed = time.time() - t0
    report("2 state-equation L2 rates", ok,
           f"({elapsed:.0f}s; measured { {s: round(r, 2) for s, r in measured.items()} })")
    assert ok, f"measured rates {measured}, targets {targets} (+/- 0.2)"
    assert elapsed < 900.0


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_eigenfunction_decay():
    t0 = time.time()
    lam = 8 * np.pi ** 2
    errors, hs = [], []
    for m in (8, 16, 32, 64):
        mesh = unit_square_mesh(m)
        z = interpolate(mesh, eigen_fn)
        res = fractional_solve(mesh, 0.5, z, SolveOptions())
        diff = NodalFunction(mesh, res.u.values - lam ** -0.5 * z.values)
        errors.append(l2_norm(diff))
        hs.append(mesh.h)
    # asymptotic measured rate: finest-pair log ratio, the same convention
    # as the other rate criteria (the m=8 point sits where the quadrature
    # and discretization errors partly cancel)
    rate = float(np.log(errors[-2] / errors[-1]) / np.log(hs[-2] / hs[-1]))
    ok = rate >= 1.8
    elapsed = time.time() - t0
    report("3 eigenfunction error decay", ok,
           f"({elapsed:.0f}s; rate {rate:.2f}, errors "
           f"{[f'{e:.2e}' for e in errors]})")
    assert ok
    assert elapsed < 120.0


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_solver_structure():
    t0 = time.time()
    details = []
    ok = True
    for s in (0.05, 0.5, 0.95):
        for level in (2, 3, 4, 5, 6, 7):
            mesh = unit_square_mesh(2 ** level)
            res = fractional_solve(mesh, s, hat_rhs(mesh), SolveOptions())
            quad = res.quadrature
            st = res.stats
            k = quad.k
            ok &= st.n_alg1 + st.n_alg2 == quad.n_systems
            ok &= quad.n_plus == int(np.ceil(np.pi ** 2 / (4 * s * k * k)))
            ok &= quad.n_minus == int(np.ceil(np.pi ** 2
                                              / (4 * (1 - s) * k * k)))
            ok &= st.n_prec_setups <= 3
            details.append((s, 2 ** level, quad.n_systems, st.n_alg1,
                            st.n_alg2, st.n_prec_setups))
    # identical system counts for s and 1-s
    counts = {(s, m): n for s, m, n, *_ in details}
    ok &= all(counts[(0.05, m)] == counts[(0.95, m)]
              for m in (4, 8, 16, 32, 64, 128))
    # residuals of every shifted system at materialized sizes
    worst_res = 0.0
    for s in (0.05, 0.5, 0.95):
        for m in (8, 32, 128):
            mesh = unit_square_mesh(m)
            ops = operators(mesh)
            rhs = hat_rhs(mesh)
            sols, _, quad = solve_all_shifted(mesh, s, rhs, SolveOptions())
            Z = ops.mass @ rhs.values
            norm_z = np.linalg.norm(Z)
            for v, alpha in zip(sols, quad.shifts):
                r = ops.stiffness @ v + alpha * (ops.lumped_mass * v) - Z
                worst_res = max(worst_res, np.linalg.norm(r) / norm_z)
            del sols
    ok &= worst_res <= 1e-8
    elapsed = time.time() - t0
    report("4 solver structure and residuals", ok,
           f"({elapsed:.0f}s; worst residual {worst_res:.2e})")
    assert ok, f"details {details}, worst residual {worst_res:.3e}"
    assert elapsed < 300.0


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_multishift_matches_plain_cg():
    t0 = time.time()
    mesh = unit_square_mesh(16)
    ops = operators(mesh)
    rhs = hat_rhs(mesh)
    n_max = 500
    sols, stats, quad = solve_all_shifted(
        mesh, 0.25, rhs, SolveOptions(rtol=1e-10, n_max=n_max))
    # on this mesh every system is well conditioned enough for the shared
    # basis, so the total matvec count is the basis dimension
    assert stats.n_alg2 == 0
    assert stats.n_matvec <= n_max
    Z = np.asarray(ops.mass @ rhs.values)
    mh = ops.lumped_mass
    worst = 0.0
    alg1_labels = [l for l in quad.l
                   if stats.crossover is not None and l >= stats.crossover]
    for i, (l, alpha) in enumerate(zip(quad.l, quad.shifts)):
        if l not in alg1_labels:
            continue

        def apply(x, alpha=alpha):
            return ops.stiffness @ x + alpha * (mh * x)

        x = np.zeros_like(Z)
        r = Z.copy()
        p = r.copy()
        rr = r @ r
        tol = 1e-13 * np.linalg.norm(Z)
        for _ in range(5000):
            if np.sqrt(rr) <= tol:
                break
            Ap = apply(p)
            a = rr / (p @ Ap)
            x += a * p
            r -= a * Ap
            rr_new = r @ r
            p = r + (rr_new / rr) * p
            rr = rr_new
        worst = max(worst, np.linalg.norm(sols[i] - x)
                    / max(np.linalg.norm(x), 1e-300))
    ok = worst <= 1e-7 and stats.n_alg1 > 0
    elapsed = time.time() - t0
    report("5 multishift vs plain CG", ok,
           f"({elapsed:.0f}s; {stats.n_alg1} systems, worst rel diff "
           f"{worst:.2e})")
    assert ok
    assert elapsed < 120.0


# ---------------------------------------------------------------- criterion 6
def test_criterion_6_control_problem_rates():
    t0 = time.time()
    cfg = ExperimentConfig(s_values=(0.05, 0.25, 0.5),
                           levels=(3, 4, 5, 6), ref_level=8, mu=0.1,
                           lower=-0.8, upper=0.8)
    tables = run_control_convergence(cfg)
    ok = True
    measured = {}
    for s in cfg.s_values:
        target = min(2.0, 1.5 + 2 * s)
        r_p0 = finest_rate(tables[s]["control_p0"])
        r_pp = finest_rate(tables[s]["control_pp"])
        r_u = finest_rate(tables[s]["state_L2"])
        measured[s] = (round(r_p0, 2), round(r_pp, 2), round(r_u, 2))
        ok &= abs(r_p0 - 1.0) <= 0.2
        ok &= abs(r_pp - target) <= 0.2
        ok &= abs(r_u - target) <= 0.2
    elapsed = time.time() - t0
    report("6 control-problem rates (p0/pp/state)", ok,
           f"({elapsed:.0f}s; measured {measured})")
    assert ok, f"measured (p0, pp, state) rates {measured}"
    assert elapsed < 1800.0


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_optimality_properties():
    t0 = time.time()
    mesh = unit_square_mesh(8)
    desired = interpolate(mesh, eigen_fn)
    tol = 1e-5
    ok = True
    notes = []

    for mode in (VARIATIONAL, FULLY_DISCRETE):
        prob = ControlProblem(mesh=mesh, s=0.25, mu=0.1, lower=-0.8,
                              upper=0.8, desired=desired, mode=mode)
        sol = (solve_variational(prob, tol=tol) if mode == VARIATIONAL
               else solve_fully_discrete(prob, tol=tol))
        z = sol.control.values
        feasible = (z >= -0.8).all() and (z <= 0.8).all()
        ok &= feasible
        hist = sol.objective_history
        monotone = all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))
        ok &= monotone
        notes.append(f"{mode}: feasible={feasible} monotone={monotone}")
        if mode == VARIATIONAL:
            proj = np.clip(-sol.adjoint.values / 0.1, -0.8, 0.8)
            proj_res = np.abs(z - proj).max()
            ok &= proj_res <= 10 * tol
            notes.append(f"projection residual {proj_res:.2e}")

    # gradient versus central differences (quadratic objective: exact up to
    # solver noise)
    rng = np.random.default_rng(11)
    M = operators(mesh).mass
    for mode in (VARIATIONAL, FULLY_DISCRETE):
        prob = ControlProblem(mesh=mesh, s=0.25, mu=0.1, lower=-0.8,
                              upper=0.8, desired=desired, mode=mode,
                              options=SolveOptions(rtol=1e-12))
        n = mesh.n_interior if mode == VARIATIONAL else mesh.n_cells
        z = rng.uniform(-0.5, 0.5, n)
        g = reduced_gradient(prob, z)
        worst_fd = 0.0
        for _ in range(3):
            delta = rng.standard_normal(n)
            step = 1e-4
            fd = (objective(prob, z + step * delta)
                  - objective(prob, z - step * delta)) / (2 * step)
            pair = (delta @ (M @ g.values) if mode == VARIATIONAL
                    else float(mesh.volumes @ (g.values * delta)))
            worst_fd = max(worst_fd, abs(fd - pair) / abs(pair))
        ok &= worst_fd <= 1e-5
        notes.append(f"{mode} fd err {worst_fd:.1e}")

    elapsed = time.time() - t0
    report("7 optimality-system properties", ok,
           f"({elapsed:.0f}s; {'; '.join(notes)})")
    assert ok, notes


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_discrete_self_adjointness():
    t0 = time.time()
    mesh = unit_square_mesh(8)
    ops = operators(mesh)
    opts = SolveOptions(rtol=1e-12)
    rng = np.random.default_rng(4)
    n = mesh.n_interior
    cache = {}

    def solve_basis(i):
        if i not in cache:
            e = np.zeros(n)
            e[i] = 1.0
            cache[i] = fractional_solve(mesh, 0.5, NodalFunction(mesh, e),
                                        opts).u.values
        return cache[i]

    worst = 0.0
    scale = 0.0
    for _ in range(10):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        ei = np.zeros(n); ei[i] = 1.0
        ej = np.zeros(n); ej[j] = 1.0
        a = solve_basis(i) @ (ops.mass @ ej)
        b = solve_basis(j) @ (ops.mass @ ei)
        scale = max(scale, abs(a), abs(b))
        worst = max(worst, abs(a - b))
    ok = worst <= 1e-8 * scale
    elapsed = time.time() - t0
    report("8 discrete self-adjointness", ok,
           f"({elapsed:.0f}s; worst gap {worst:.2e} at scale {scale:.2e})")
    assert ok
