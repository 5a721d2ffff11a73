"""Experiment engine: convergence-rate studies and solver statistics.

Experiments run on the structured unit-square/cube meshes with level ``j``
meaning ``2**j`` cells per side.  Errors are always measured on the
reference mesh after prolongation (exact for nested P1 spaces; cellwise for
P0 controls), and rate tables report log2 error ratios between successive
levels.

Reference solutions are cached under ``<out_dir>/cache/``, keyed by file name
on every setting they depend on, for the control reference also the level
its warm-start chain starts from.  A cached file that is unreadable, holds a
non-finite value or has another length is recomputed.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .control import (ControlProblem, FULLY_DISCRETE, VARIATIONAL,
                      solve_fully_discrete, solve_variational)
from .fem import NodalFunction
from .fractional import SolveOptions, fractional_solve
from .mesh import (Mesh, _grid_mesh, cell_parents, eval_p1,
                   prolongation_matrix)

__all__ = [
    "ExperimentConfig",
    "eigen_desired",
    "RateTable",
    "hat_rhs",
    "compute_rates",
    "hs_error_surrogate",
    "run_state_convergence",
    "run_control_convergence",
    "run_solver_stats",
]


@dataclass
class ExperimentConfig:
    """Settings of the studies; level ``j`` means ``2**j`` cells per side.
    Only ``run_state_convergence`` and ``run_control_convergence`` read
    ``ref_level``, and they reject one that does not exceed every level."""

    dim: int = 2
    s_values: tuple = (0.05, 0.10, 0.25)
    levels: tuple = (3, 4, 5, 6, 7)
    ref_level: int = 9
    mu: float = 0.1
    lower: float = -0.8
    upper: float = 0.8
    c_k: float = 1.1
    rtol: float = 1e-8
    opt_tol: float = 1e-5
    out_dir: str | None = None
    threads: int = 1

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim!r}")
        if self.threads < 1:
            raise ValueError(
                f"threads must be at least 1, got {self.threads!r}")

    def solve_options(self) -> SolveOptions:
        return SolveOptions(c_k=self.c_k, rtol=self.rtol)


@dataclass
class RateTable:
    """Rows of (N_omega, h, error, rate); the first rate prints as 0.00."""

    label: str
    n_omega: list = field(default_factory=list)
    h: list = field(default_factory=list)
    error: list = field(default_factory=list)
    rate: list = field(default_factory=list)

    @classmethod
    def from_errors(cls, label, n_omega, h, errors) -> "RateTable":
        rates = compute_rates(errors, h)
        return cls(label=label, n_omega=list(n_omega), h=list(h),
                   error=list(errors), rate=rates)

    def to_csv(self) -> str:
        lines = ["N_omega,h,error,rate"]
        for n, h, e, r in zip(self.n_omega, self.h, self.error, self.rate):
            rate_txt = "" if r is None else f"{r:.2f}"
            lines.append(f"{n},{h:.4f},{e:.6e},{rate_txt}")
        return "\n".join(lines) + "\n"

    def to_gnuplot(self) -> str:
        lines = [f"# {self.label}", "# h error"]
        for h, e in zip(self.h, self.error):
            lines.append(f"{h:.6e} {e:.6e}")
        return "\n".join(lines) + "\n"


def compute_rates(errors, hs):
    """r_i = log(e_{i-1}/e_i) / log(h_{i-1}/h_i); None for degenerate rows."""
    if len(errors) != len(hs):
        raise ValueError("errors and mesh sizes must align")
    rates = [0.0]
    for i in range(1, len(errors)):
        if errors[i] == 0.0 or errors[i - 1] == 0.0:
            rates.append(None)
        else:
            rates.append(math.log(errors[i - 1] / errors[i])
                         / math.log(hs[i - 1] / hs[i]))
    return rates if errors else []


def hs_error_surrogate(e_l2: float, e_h1: float, s: float) -> float:
    """Interpolation estimate of the H^s error: e_L2^(1-s) * e_H1^s."""
    if e_l2 < 0 or e_h1 < 0:
        raise ValueError("errors must be nonnegative")
    return e_l2 ** (1.0 - s) * e_h1 ** s


def hat_rhs(mesh: Mesh) -> NodalFunction:
    """Clamped coarse hat: min(0.25, f0) with f0 the center hat scaled to 0.5.

    f0 is piecewise linear on the 2-cells-per-side mesh; the clamp contour
    runs along quarter-grid lines, so meshes must have cells_per_side
    divisible by 4 for the nodal interpolant to be exact (kinks resolved).
    """
    m = mesh.cells_per_side
    if m is None or m % 4 != 0:
        raise ValueError("hat rhs needs a structured mesh with "
                         "cells_per_side divisible by 4")
    base = _grid_mesh(mesh.dim, 2)
    center_vals = np.zeros(base.n_vertices)
    center_vals[base.interior[0]] = 0.5
    f0 = eval_p1(base, center_vals, mesh.vertices)
    values = np.minimum(0.25, f0)
    return NodalFunction(mesh, values[mesh.interior])


class _Prolongator:
    """Chained P1 prolongations between structured levels, built lazily."""

    def __init__(self, meshes: dict):
        self.meshes = meshes
        self._mats = {}

    def _step(self, m: int):
        if m not in self._mats:
            self._mats[m] = prolongation_matrix(self.meshes[m],
                                                self.meshes[2 * m])
        return self._mats[m]

    def lift(self, values: np.ndarray, m_from: int, m_to: int) -> np.ndarray:
        out = values
        m = m_from
        while m < m_to:
            out = self._step(m) @ out
            m *= 2
        return out


@contextlib.contextmanager
def _replacing(path):
    """A temporary path beside ``path``, renamed over it once the block
    succeeds: an interrupted write leaves the previous file or none, never
    a partial one."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _write(out_dir: str | None, name: str, text: str):
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with _replacing(os.path.join(out_dir, name)) as tmp, \
            open(tmp, "w") as fh:
        fh.write(text)


def _cache_path(out_dir: str | None, name: str):
    if out_dir is None:
        return None
    cache = os.path.join(out_dir, "cache")
    os.makedirs(cache, exist_ok=True)
    return os.path.join(cache, name)


def _load_vector(path, n: int):
    """Cached vector of length ``n``; None if missing, unreadable,
    non-finite or of another length (a file cut short or written for
    another mesh)."""
    if path is None or not os.path.exists(path):
        return None
    try:
        vec = np.loadtxt(path, ndmin=1)
    except ValueError:
        return None
    return vec if vec.shape == (n,) and np.isfinite(vec).all() else None


def _save_vector(path, vec: np.ndarray):
    if path is None:
        return
    with _replacing(path) as tmp:
        np.savetxt(tmp, vec, fmt="%.17g")


def _cached(paths, n: int, compute) -> list:
    """The vectors of length ``n`` cached at ``paths``; when any of them
    does not load, every one of ``compute()``'s, saved there."""
    vecs = [_load_vector(path, n) for path in paths]
    if any(vec is None for vec in vecs):
        vecs = list(compute())
        for path, vec in zip(paths, vecs):
            _save_vector(path, vec)
    return vecs


def _write_table(out_dir: str | None, stem: str, table: RateTable):
    _write(out_dir, f"{stem}.csv", table.to_csv())
    _write(out_dir, f"{stem}.dat", table.to_gnuplot())


def _state_solution(mesh: Mesh, s: float, config: ExperimentConfig):
    opts = config.solve_options()
    return fractional_solve(mesh, s, hat_rhs(mesh), opts)


def _run_jobs(threads: int, fn, jobs) -> dict:
    """``{key: result}`` over ``fn(job) -> (key, result)`` for every job,
    on a pool of ``threads`` threads when more than one is asked for."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return dict(pool.map(fn, jobs))
    return dict(map(fn, jobs))


def _study_sizes(config: ExperimentConfig) -> list:
    """Cells per side of every study level; a study with no level or no
    value of s is rejected rather than run to an empty result."""
    if not config.levels:
        raise ValueError("a study needs at least one level")
    if not config.s_values:
        raise ValueError("a study needs at least one value of s")
    return [2 ** lv for lv in config.levels]


def _reference_study(config: ExperimentConfig):
    """``(ms, m_ref, meshes, lift, ref_mesh)`` of a study measured against a
    reference solve: the study and reference sizes, the meshes of every
    level from the coarsest up to the reference, a ``_Prolongator`` over
    them, and the reference mesh."""
    ms = _study_sizes(config)
    if config.ref_level <= max(config.levels):
        raise ValueError("the reference level must exceed every study level")
    m_ref = 2 ** config.ref_level
    meshes = {2 ** lv: _grid_mesh(config.dim, 2 ** lv)
              for lv in range(min(config.levels), config.ref_level + 1)}
    return ms, m_ref, meshes, _Prolongator(meshes), meshes[m_ref]


def run_state_convergence(config: ExperimentConfig) -> dict:
    """L2 errors of the fractional solves against a fine reference.

    Returns one RateTable per fractional power.
    """
    ms, m_ref, meshes, lift, ref_mesh = _reference_study(config)

    def solve_level(args):
        s, m = args
        return (s, m), _state_solution(meshes[m], s, config).u.values

    jobs = [(s, m) for s in config.s_values for m in ms]
    results = _run_jobs(config.threads, solve_level, jobs)
    n_omegas = [meshes[m].n_vertices for m in ms]
    hs = [meshes[m].h for m in ms]

    tables = {}
    for s in config.s_values:
        path = _cache_path(config.out_dir,
                           f"state_ref_dim{config.dim}_m{m_ref}_s{s}"
                           f"_ck{config.c_k}_rtol{config.rtol}.txt")
        (u_ref,) = _cached(
            [path], ref_mesh.n_interior,
            lambda: [_state_solution(ref_mesh, s, config).u.values])
        errors = [fem.l2_norm(NodalFunction(
            ref_mesh, u_ref - lift.lift(results[(s, m)], m, m_ref)))
            for m in ms]
        table = RateTable.from_errors(f"state_L2_s{s}", n_omegas, hs, errors)
        tables[s] = table
        _write_table(config.out_dir, f"state_conv_s{s}", table)
    return tables


def run_solver_stats(config: ExperimentConfig) -> str:
    """Per-level solver statistics in CSV form (also returned as text)."""
    ms = _study_sizes(config)

    def solve_one(args):
        s, m = args
        mesh = _grid_mesh(config.dim, m)
        res = _state_solution(mesh, s, config)
        st = res.stats
        return (s, m), (mesh.n_vertices, s, res.quadrature.n_systems,
                        st.n_alg1, st.n_alg2, st.n_prec_setups)

    jobs = [(s, m) for s in config.s_values for m in ms]
    collected = _run_jobs(config.threads, solve_one, jobs)
    rows = [collected[job] for job in jobs]

    lines = ["N_omega,s,N_alpha,n_alg1,n_alg2,n_amg_setups"]
    for n_omega, s, n_alpha, n1, n2, setups in rows:
        lines.append(f"{n_omega},{s},{n_alpha},{n1},{n2},{setups}")
    text = "\n".join(lines) + "\n"
    _write(config.out_dir, "solver_stats.csv", text)
    return text


def _quad_l2(mesh: Mesh, w: np.ndarray, diff_at_quad: np.ndarray) -> float:
    return math.sqrt(float(mesh.volumes @ ((diff_at_quad ** 2) @ w)))


def _control_solution(config: ExperimentConfig, mesh: Mesh, s: float,
                      mode: str, z0=None):
    """``(problem, solution)`` of the control study's problem on ``mesh``:
    the eigenfunction target with the config's penalty, bounds and solve
    options, solved in ``mode`` from ``z0``."""
    problem = ControlProblem(
        mesh=mesh, s=s, mu=config.mu, lower=config.lower, upper=config.upper,
        desired=fem.interpolate(mesh, eigen_desired), mode=mode,
        options=config.solve_options())
    solve = solve_variational if mode == VARIATIONAL else solve_fully_discrete
    return problem, solve(problem, tol=config.opt_tol, z0=z0)


def _control_reference(config: ExperimentConfig, s: float, meshes, lift):
    """Variational reference ``(z, u, p)``, warm-started through the levels
    from the finest study level up."""
    m_ref = 2 ** config.ref_level
    start = 2 ** max(config.levels)
    cache_base = (f"dim{config.dim}_m{m_ref}_s{s}_mu{config.mu}"
                  f"_a{config.lower}_b{config.upper}_ck{config.c_k}"
                  f"_start{start}_rtol{config.rtol}_tol{config.opt_tol}")
    paths = [_cache_path(config.out_dir, f"control_ref_{name}_{cache_base}.txt")
             for name in ("control", "state", "adjoint")]

    def solve_chain():
        z0 = None
        m = start
        while m <= m_ref:
            _, sol = _control_solution(config, meshes[m], s, VARIATIONAL, z0)
            z0 = lift.lift(sol.control.values, m, 2 * m) if m < m_ref else None
            m *= 2
        return sol.control.values, sol.state.values, sol.adjoint.values

    return _cached(paths, meshes[m_ref].n_interior, solve_chain)


def eigen_desired(points: np.ndarray) -> np.ndarray:
    """Desired state of the control study: a Laplacian eigenfunction."""
    out = np.sin(2 * np.pi * points[:, 0]) * np.sin(2 * np.pi * points[:, 1])
    for d in range(2, points.shape[1]):
        out = out * np.sin(2 * np.pi * points[:, d])
    return out


def run_control_convergence(config: ExperimentConfig) -> dict:
    """Control/state errors of both discretizations against a fine reference.

    Emits, per fractional power: P0 control error, post-processed control
    error, variational control error, state L2 error, and the H^s surrogate.
    """
    if config.dim != 2:
        raise ValueError("the control study is defined on the unit square")
    if config.threads != 1:
        raise ValueError("the control study runs its solves in sequence; "
                         f"threads must be 1, got {config.threads}")
    ms, m_ref, meshes, lift, ref_mesh = _reference_study(config)
    lam, w = fem.simplex_quadrature(config.dim, degree=4)
    n_omegas = [meshes[m].n_vertices for m in ms]
    hs = [meshes[m].h for m in ms]

    def clamped_at_quadrature(p_ref_values):
        """clamp(-p/mu) at the reference quadrature points of a P1 adjoint."""
        full = NodalFunction(ref_mesh, p_ref_values).full_values()
        return np.clip(-(full[ref_mesh.cells] @ lam.T) / config.mu,
                       config.lower, config.upper)

    tables = {}
    for s in config.s_values:
        z_ref, u_ref, p_ref = _control_reference(config, s, meshes, lift)
        z_ref_quad = clamped_at_quadrature(p_ref)

        series = {name: [] for name in
                  ("control_p0", "control_pp", "control_var",
                   "state_L2", "state_Hs")}
        for m in ms:
            mesh = meshes[m]
            _, p0_sol = _control_solution(config, mesh, s, FULLY_DISCRETE)
            _, var_sol = _control_solution(config, mesh, s, VARIATIONAL)

            parents = cell_parents(mesh, ref_mesh)
            z_p0_quad = p0_sol.control.values[parents][:, None]
            err_p0 = _quad_l2(ref_mesh, w, z_ref_quad - z_p0_quad)

            # post-processed control measured as the clamped adjoint
            # function (prolongation of the P1 adjoint is exact; clamping at
            # the quadrature points avoids the kink-interpolation error that
            # would otherwise cap the measured rate near h^1.5)
            zpp_quad = clamped_at_quadrature(
                lift.lift(p0_sol.adjoint.values, m, m_ref))
            err_pp = _quad_l2(ref_mesh, w, z_ref_quad - zpp_quad)

            z_var_quad = clamped_at_quadrature(
                lift.lift(var_sol.adjoint.values, m, m_ref))
            err_var = _quad_l2(ref_mesh, w, z_ref_quad - z_var_quad)

            du = NodalFunction(
                ref_mesh, u_ref - lift.lift(p0_sol.state.values, m, m_ref))
            e_l2, e_h1 = fem.l2_norm(du), fem.h1_seminorm(du)

            series["control_p0"].append(err_p0)
            series["control_pp"].append(err_pp)
            series["control_var"].append(err_var)
            series["state_L2"].append(e_l2)
            series["state_Hs"].append(hs_error_surrogate(e_l2, e_h1, s))

        tables[s] = {}
        for name, errs in series.items():
            table = RateTable.from_errors(f"{name}_s{s}", n_omegas, hs, errs)
            tables[s][name] = table
            _write_table(config.out_dir, f"control_conv_{name}_s{s}", table)
    return tables
