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


# parser, ``ExperimentConfig`` field (None for a flag only ``solve`` or the
# config file reads) and default of every flag; a None default leaves a
# study setting to ``ExperimentConfig``, whose defaults are the state study's
_FLAGS = {
    "dim": (int, "dim", None),
    "s": (_parse_s_list, "s_values", None),
    "levels": (_parse_levels, "levels", None),
    "ref_level": (int, "ref_level", None),
    "mu": (float, "mu", None),
    "a": (float, "lower", None),
    "b": (float, "upper", None),
    "ck": (float, "c_k", None),
    "rtol": (float, "rtol", None),
    "tol": (float, "opt_tol", None),
    "mode": (str, None, None),
    "post_process": (_parse_bool, None, False),
    "out": (str, "out_dir", None),
    "threads": (int, "threads", None),
    "config": (str, None, None),
    "level": (int, None, 4),
}

# the study settings in which a command departs from ``ExperimentConfig``
_DEFAULTS = {
    "state-conv": {},
    "control-conv": {"s": (0.05, 0.25, 0.5), "levels": (3, 4, 5, 6),
                     "ref_level": 8},
    "solver-stats": {"s": (0.05, 0.5, 0.95), "levels": (2, 3, 4, 5, 6, 7)},
    "solve": {"s": (0.5,)},
}


def _add_flags(parser: argparse.ArgumentParser, names):
    for name in names:
        # a boolean flag stores True; every other flag keeps its text
        kind = ({"action": "store_const", "const": True}
                if _FLAGS[name][0] is _parse_bool else {})
        parser.add_argument("--" + name.replace("_", "-"), dest=name, **kind)


def _resolve(args: argparse.Namespace, command: str, names) -> dict:
    """The value of every ``_FLAGS`` name, from the flag, else the config
    file, else the command's default."""
    file_vals = {}
    if args.config:
        file_vals = read_config_file(args.config)
        # a config file does not name another one
        unknown = [key for key in file_vals
                   if key not in names or key == "config"]
        if unknown:
            raise ValueError(f"{command} does not take config key(s): "
                             + ", ".join(unknown))
    out = {}
    for name, (parse, _, default) in _FLAGS.items():
        raw = getattr(args, name, None)
        if raw is None and name in file_vals:
            raw = file_vals[name]
        if raw is None:
            out[name] = _DEFAULTS[command].get(name, default)
        elif raw is True:               # a boolean flag
            out[name] = raw
        else:
            try:
                out[name] = parse(raw)
            except ValueError as exc:
                raise ValueError(f"{name} = {raw!r} does not parse: {exc}") \
                    from None
    return out


def _experiment_config(vals: dict) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(**{
        field: vals[name] for name, (_, field, _) in _FLAGS.items()
        if field is not None and vals[name] is not None})


def _cmd_state_conv(vals: dict):
    tables = harness.run_state_convergence(_experiment_config(vals))
    for s, table in tables.items():
        print(f"# s = {s}")
        print(table.to_csv(), end="")


def _cmd_control_conv(vals: dict):
    tables = harness.run_control_convergence(_experiment_config(vals))
    for s, per_series in tables.items():
        for name, table in per_series.items():
            print(f"# s = {s}, series = {name}")
            print(table.to_csv(), end="")


def _cmd_solver_stats(vals: dict):
    print(harness.run_solver_stats(_experiment_config(vals)), end="")


def _cmd_solve(vals: dict):
    if len(vals["s"]) != 1:
        raise ValueError("solve takes a single value of --s")
    if vals["post_process"] and vals["mode"] != ctl.FULLY_DISCRETE:
        raise ValueError("--post-process needs --mode p0")
    if vals["mode"] is None:
        for name in ("mu", "a", "b", "tol"):
            if vals[name] is not None:
                raise ValueError(f"--{name} needs --mode")
    config = _experiment_config(vals)   # rejects a dim other than 2 or 3
    m = 2 ** vals["level"]
    mesh = _grid_mesh(config.dim, m)
    s = config.s_values[0]
    summary = {"dim": config.dim, "cells_per_side": m, "s": s,
               "n_vertices": mesh.n_vertices, "h": mesh.h}

    if vals["mode"] is None:
        res = harness._state_solution(mesh, s, config)
        vectors = {"state_u.txt": res.u.values}
        summary.update({
            "kind": "state", "n_systems": res.quadrature.n_systems,
            "n_alg1": res.stats.n_alg1, "n_alg2": res.stats.n_alg2,
            "n_amg_setups": res.stats.n_prec_setups,
            "n_matvec": res.stats.n_matvec,
        })
    else:
        problem, sol = harness._control_solution(config, mesh, s,
                                                 vals["mode"])
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


# the runner and the flags of every command
_COMMANDS = {
    "state-conv": (_cmd_state_conv,
                   ["dim", "s", "levels", "ref_level", "ck", "rtol", "out",
                    "threads", "config"]),
    # the control study always reports the post-processed control and runs
    # its solves in sequence
    "control-conv": (_cmd_control_conv,
                     ["dim", "s", "levels", "ref_level", "mu", "a", "b",
                      "ck", "rtol", "tol", "out", "config"]),
    "solver-stats": (_cmd_solver_stats,
                     ["dim", "s", "levels", "ck", "rtol", "out", "threads",
                      "config"]),
    "solve": (_cmd_solve,
              ["dim", "s", "level", "mu", "a", "b", "ck", "rtol", "tol",
               "mode", "post_process", "out", "config"]),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="Spectral fractional Poisson solves and optimal control")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, names) in _COMMANDS.items():
        _add_flags(sub.add_parser(command), names)

    args = parser.parse_args(argv)
    run, names = _COMMANDS[args.command]
    try:
        run(_resolve(args, args.command, names))
    except Exception as exc:                      # noqa: BLE001
        print(f"fraclap: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
