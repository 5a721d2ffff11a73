"""The package's public surface: the names it exports, the parameters its
entry points take, the fields of its configuration classes, and the module
attributes the benchmark's tracer wraps.  A new knob shows up here as a test
edit."""

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


# parameter names of every public function, in order
PARAMETERS = {
    "assemble_load": ["mesh", "f"],
    "assemble_mass": ["mesh"],
    "assemble_stiffness": ["mesh"],
    "cell_parents": ["coarse", "fine"],
    "compute_rates": ["errors", "hs"],
    "eval_p1": ["mesh", "vertex_values", "points"],
    "fractional_solve": ["mesh", "s", "rhs", "options"],
    "h1_seminorm": ["v"],
    "hat_rhs": ["mesh"],
    "hs_error_surrogate": ["e_l2", "e_h1", "s"],
    "interpolate": ["mesh", "f"],
    "l2_inner": ["u", "v"],
    "l2_norm": ["v"],
    "lump_mass": ["M"],
    "objective": ["problem", "z"],
    "post_process": ["problem", "solution"],
    "project_box": ["values", "lower", "upper"],
    "project_p0": ["mesh", "v"],
    "prolongation_matrix": ["coarse", "fine"],
    "quadrature_for_mesh": ["s", "h", "c_k"],
    "read_mesh": ["path"],
    "reduced_gradient": ["problem", "z"],
    "refine_uniform": ["mesh"],
    "run_control_convergence": ["config"],
    "run_solver_stats": ["config"],
    "run_state_convergence": ["config"],
    "sinc_quadrature": ["s", "k"],
    "solve_all_shifted": ["mesh", "s", "rhs", "options"],
    "solve_family": ["A", "lumped_mass", "shifts", "Z", "labels", "rtol",
                     "n_max", "prec_factory", "weights", "deflate"],
    "solve_fully_discrete": ["problem", "tol", "z0"],
    "solve_variational": ["problem", "tol", "z0"],
    "spectral_oracle_solve": ["mesh", "s", "rhs"],
    "unit_cube_mesh": ["cells_per_side"],
    "unit_square_mesh": ["cells_per_side"],
    "write_mesh": ["mesh", "path"],
}

# fields of the configuration classes, in order
FIELDS = {
    "SolveOptions": ["c_k", "k", "rtol", "n_max", "deflate"],
    "ExperimentConfig": ["dim", "s_values", "levels", "ref_level", "mu",
                         "lower", "upper", "c_k", "rtol", "opt_tol",
                         "out_dir", "threads"],
    "ControlProblem": ["mesh", "s", "mu", "lower", "upper", "desired",
                       "mode", "options"],
}


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


def test_function_parameters_are_pinned():
    functions = {name for name in PUBLIC
                 if inspect.isfunction(getattr(fraclap, name))}
    assert functions == PARAMETERS.keys()
    for name, params in PARAMETERS.items():
        assert list(inspect.signature(getattr(fraclap, name)).parameters) \
            == params, name


@pytest.mark.parametrize("name", FIELDS)
def test_configuration_fields_are_pinned(name):
    fields = dataclasses.fields(getattr(fraclap, name))
    assert [f.name for f in fields] == FIELDS[name]


def test_shifted_exports_only_its_entry_point():
    assert shifted.__all__ == ["SolveStats", "solve_family"]


def test_no_unused_parameters():
    # the tail takes the family's combination matrix, not a weight knob
    assert list(inspect.signature(shifted.solve_preconditioned).parameters) \
        == ["family", "start", "rtol", "W", "prec_factory", "x_start"]
    assert "level" not in {f.name for f in dataclasses.fields(mesh.Mesh)}


def test_cli_defaults_hold_no_placeholders():
    assert cli._DEFAULTS["solver-stats"].keys() == {"s", "levels"}
    assert cli._DEFAULTS["solve"].keys() == {"s"}


def test_cli_flags_set_every_config_field_once():
    # a config field without a flag, or a flag that sets no field, fails here
    fields = [field for _, field, _ in cli._FLAGS.values() if field]
    config = [f.name for f in dataclasses.fields(fraclap.ExperimentConfig)]
    assert len(config) == 12
    assert sorted(fields) == sorted(config)
    for command, (_, names) in cli._COMMANDS.items():
        assert set(names) <= cli._FLAGS.keys(), command


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
