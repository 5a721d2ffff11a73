"""The package's public surface: the names it exports, the parameters its
entry points take, and the module attributes the benchmark's tracer wraps."""

import dataclasses
import importlib
import inspect
import pathlib
import types

import pytest

import fraclap
from fraclap import cli, mesh, multigrid, shifted

PUBLIC = [
    "CellwiseFunction", "ControlProblem", "ControlSolution",
    "ExperimentConfig", "FractionalSolveResult", "Mesh", "NodalFunction",
    "RateTable", "SincQuadrature", "SolveOptions", "SolveStats",
    "assemble_load", "assemble_mass", "assemble_stiffness", "cell_parents",
    "compute_rates", "eval_p1", "fractional_solve", "h1_seminorm", "hat_rhs",
    "hs_error_surrogate", "interpolate", "l2_inner", "l2_norm", "lump_mass",
    "objective", "post_process", "project_box", "project_p0",
    "prolongation_matrix", "quadrature_for_mesh", "read_mesh",
    "reduced_gradient", "refine_uniform", "run_control_convergence",
    "run_solver_stats", "run_state_convergence", "sinc_quadrature",
    "solve_all_shifted", "solve_family", "solve_fully_discrete",
    "solve_variational", "spectral_oracle_solve", "unit_cube_mesh",
    "unit_square_mesh", "write_mesh",
]


def test_top_level_names_are_pinned():
    # the submodules are attributes too, but not names the package exports
    names = sorted(name for name in dir(fraclap) if not name.startswith("_")
                   and not isinstance(getattr(fraclap, name),
                                      types.ModuleType))
    assert len(PUBLIC) == 46
    assert names == PUBLIC


@pytest.mark.parametrize("module,name", [
    (shifted, "ShiftedFamily"), (shifted, "normalize"),
    (shifted, "solve_preconditioned"), (multigrid, "GeometricMultigrid"),
    (multigrid, "MeshHierarchy"), (multigrid, "SymmetricGaussSeidel")])
def test_solver_internals_live_in_their_modules(module, name):
    assert not hasattr(fraclap, name)
    assert callable(getattr(module, name))


def test_shifted_exports_only_its_entry_point():
    assert shifted.__all__ == ["SolveStats", "solve_family"]


def test_no_unused_parameters():
    assert "iter_cap" not in \
        inspect.signature(shifted.solve_preconditioned).parameters
    for maker in (mesh.unit_square_mesh, mesh.unit_cube_mesh):
        assert list(inspect.signature(maker).parameters) == ["cells_per_side"]
    assert "level" not in {f.name for f in dataclasses.fields(mesh.Mesh)}


def test_cli_defaults_hold_no_placeholders():
    assert cli._DEFAULTS["solver-stats"].keys() == {"s", "levels"}
    assert cli._DEFAULTS["solve"].keys() == {"s"}


def test_benchmark_tracer_finds_every_target(monkeypatch):
    """The benchmark wraps library attributes by name; a renamed or moved
    one makes ``wrap`` raise ``AttributeError``."""
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracing = importlib.import_module("tracing")
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.wrap()
    finally:
        tracer.unwrap()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)
