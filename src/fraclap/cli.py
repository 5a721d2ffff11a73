"""Command line interface.

Subcommands: ``state-conv``, ``control-conv``, ``solver-stats`` run the
experiment suites; ``solve`` performs a single solve and dumps the solution.
Every flag can also be supplied through a plain ``key = value`` config file
(flag names with dashes replaced by underscores); explicit flags win, and a
key the command does not take as a flag, or ``config`` itself, is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import control as ctl
from . import harness
from .fractional import fractional_solve
from .mesh import _grid_mesh, write_mesh


def _parse_levels(text: str):
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(t) for t in text.split(",") if t)


def _parse_s_list(text: str):
    return tuple(float(t) for t in text.split(",") if t)


def read_config_file(path: str) -> dict:
    """Plain key = value lines; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = (t.strip() for t in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected one of 1/true/yes/on or 0/false/no/off")


# parser and default of every flag; None leaves a study setting to
# ``ExperimentConfig``, whose defaults are the state study's
_COMMON = {
    "dim": (int, None),
    "s": (_parse_s_list, None),
    "levels": (_parse_levels, None),
    "ref_level": (int, None),
    "mu": (float, None),
    "a": (float, None),
    "b": (float, None),
    "ck": (float, None),
    "rtol": (float, None),
    "tol": (float, None),
    "mode": (str, None),
    "post_process": (_parse_bool, False),
    "out": (str, None),
    "threads": (int, None),
    "config": (str, None),
    "level": (int, 4),
}

# the study settings in which a command departs from ``ExperimentConfig``
_DEFAULTS = {
    "state-conv": {},
    "control-conv": {"s": (0.05, 0.25, 0.5), "levels": (3, 4, 5, 6),
                     "ref_level": 8},
    "solver-stats": {"s": (0.05, 0.5, 0.95), "levels": (2, 3, 4, 5, 6, 7)},
    "solve": {"s": (0.5,)},
}

# the ``ExperimentConfig`` field of every study flag
_FIELDS = {"dim": "dim", "s": "s_values", "levels": "levels",
           "ref_level": "ref_level", "mu": "mu", "a": "lower", "b": "upper",
           "ck": "c_k", "rtol": "rtol", "tol": "opt_tol", "out": "out_dir",
           "threads": "threads"}


def _add_flags(parser: argparse.ArgumentParser, names):
    for name in names:
        parse, _ = _COMMON[name]
        flag = "--" + name.replace("_", "-")
        if parse is _parse_bool:
            parser.add_argument(flag, action="store_const", const=True,
                                default=None, dest=name)
        else:
            parser.add_argument(flag, type=str, default=None, dest=name)


def _resolve(args: argparse.Namespace, command: str, names) -> dict:
    """Every ``_COMMON`` value, and under ``"given"`` the names that a flag
    or the config file set."""
    file_vals = {}
    if args.config:
        file_vals = read_config_file(args.config)
        # a config file does not name another one
        unknown = [key for key in file_vals
                   if key not in names or key == "config"]
        if unknown:
            raise ValueError(f"{command} does not take config key(s): "
                             + ", ".join(unknown))
    out = {"given": {name for name in _COMMON if name in file_vals
                     or getattr(args, name, None) is not None}}
    for name, (parse, default) in _COMMON.items():
        raw = getattr(args, name, None)
        if raw is None and name in file_vals:
            raw = file_vals[name]
        if raw is None:
            value = _DEFAULTS[command].get(name, default)
        elif raw is True:               # a boolean flag
            value = raw
        else:
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ValueError(f"{name} = {raw!r} does not parse: {exc}") \
                    from None
        out[name] = value
    return out


def _experiment_config(vals: dict) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(**{
        field: vals[name] for name, field in _FIELDS.items()
        if vals[name] is not None})


def _cmd_state_conv(vals: dict) -> int:
    tables = harness.run_state_convergence(_experiment_config(vals))
    for s, table in tables.items():
        print(f"# s = {s}")
        print(table.to_csv(), end="")
    return 0


def _cmd_control_conv(vals: dict) -> int:
    tables = harness.run_control_convergence(_experiment_config(vals))
    for s, per_series in tables.items():
        for name, table in per_series.items():
            print(f"# s = {s}, series = {name}")
            print(table.to_csv(), end="")
    return 0


def _cmd_solver_stats(vals: dict) -> int:
    print(harness.run_solver_stats(_experiment_config(vals)), end="")
    return 0


def _cmd_solve(vals: dict) -> int:
    if len(vals["s"]) != 1:
        raise ValueError("solve takes a single value of --s")
    if vals["post_process"] and vals["mode"] != ctl.FULLY_DISCRETE:
        raise ValueError("--post-process needs --mode p0")
    if vals["mode"] is None:
        for name in ("mu", "a", "b", "tol"):
            if name in vals["given"]:
                raise ValueError(f"--{name} needs --mode")
    config = _experiment_config(vals)   # rejects a dim other than 2 or 3
    m = 2 ** vals["level"]
    mesh = _grid_mesh(config.dim, m)
    s = config.s_values[0]
    summary = {"dim": config.dim, "cells_per_side": m, "s": s,
               "n_vertices": mesh.n_vertices, "h": mesh.h}

    if vals["mode"] is None:
        res = fractional_solve(mesh, s, harness.hat_rhs(mesh),
                               config.solve_options())
        vectors = {"state_u.txt": res.u.values}
        summary.update({
            "kind": "state", "n_systems": res.quadrature.n_systems,
            "n_alg1": res.stats.n_alg1, "n_alg2": res.stats.n_alg2,
            "n_amg_setups": res.stats.n_prec_setups,
            "n_matvec": res.stats.n_matvec,
        })
    else:
        problem = harness._control_problem(config, mesh, s, vals["mode"])
        if vals["mode"] == ctl.VARIATIONAL:
            sol = ctl.solve_variational(problem, tol=config.opt_tol)
        else:
            sol = ctl.solve_fully_discrete(problem, tol=config.opt_tol)
        vectors = {"control_z.txt": sol.control.values,
                   "state_u.txt": sol.state.values,
                   "adjoint_p.txt": sol.adjoint.values}
        if vals["post_process"]:
            vectors["postprocessed_z.txt"] = \
                ctl.post_process(problem, sol).values
        summary.update({
            "kind": "control", "mode": vals["mode"],
            "objective": sol.objective, "iterations": sol.iterations,
            "residual": sol.residual, "mu": config.mu,
            "bounds": [config.lower, config.upper],
            "n_matvec": sol.stats.n_matvec,
            "n_amg_setups": sol.stats.n_prec_setups,
        })
    # written only once the solve has succeeded: a rejected input leaves
    # no partial output behind
    out_dir = vals["out"] or "fraclap-out"
    os.makedirs(out_dir, exist_ok=True)
    with harness._replacing(os.path.join(out_dir, "mesh.txt")) as tmp:
        write_mesh(mesh, tmp)
    for name, values in vectors.items():
        harness._save_vector(os.path.join(out_dir, name), values)
    text = json.dumps(summary, indent=2, sort_keys=True)
    harness._write(out_dir, "summary.json", text + "\n")
    print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="Spectral fractional Poisson solves and optimal control")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "state-conv": ["dim", "s", "levels", "ref_level", "ck", "rtol",
                       "out", "threads", "config"],
        # the control study always reports the post-processed control and
        # runs its solves in sequence
        "control-conv": ["dim", "s", "levels", "ref_level", "mu", "a", "b",
                         "ck", "rtol", "tol", "out", "config"],
        "solver-stats": ["dim", "s", "levels", "ck", "rtol", "out",
                         "threads", "config"],
        "solve": ["dim", "s", "level", "mu", "a", "b", "ck", "rtol", "tol",
                  "mode", "post_process", "out", "config"],
    }
    runners = {
        "state-conv": _cmd_state_conv,
        "control-conv": _cmd_control_conv,
        "solver-stats": _cmd_solver_stats,
        "solve": _cmd_solve,
    }
    for command, names in flags.items():
        p = sub.add_parser(command)
        _add_flags(p, names)

    args = parser.parse_args(argv)
    try:
        vals = _resolve(args, args.command, flags[args.command])
        return runners[args.command](vals)
    except Exception as exc:                      # noqa: BLE001
        print(f"fraclap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
