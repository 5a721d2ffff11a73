"""Experiment harness: rates, the hat right-hand side, outputs, CLI."""

import json
import os

import numpy as np
import pytest

from fraclap import (NodalFunction, hat_rhs, hs_error_surrogate, interpolate,
                     l2_norm, prolongation_matrix, unit_cube_mesh,
                     unit_square_mesh)
from fraclap.cli import main, read_config_file
from fraclap.fem import operators
from fraclap.fractional import SolveOptions, fractional_solve
import fraclap.harness
from fraclap.harness import (ExperimentConfig, RateTable, compute_rates,
                             run_control_convergence, run_solver_stats,
                             run_state_convergence)
from fraclap.mesh import eval_p1, refine_uniform


class TestHatRhs:
    def test_center_value_clamped(self):
        mesh = unit_square_mesh(8)
        f = hat_rhs(mesh)
        center = np.flatnonzero(
            (np.abs(mesh.vertices[mesh.interior] - 0.5) < 1e-12).all(axis=1))
        assert f.values[center[0]] == pytest.approx(0.25)

    def test_boundary_is_zero(self):
        mesh = unit_square_mesh(8)
        full = hat_rhs(mesh).full_values()
        assert np.abs(full[mesh.boundary]).max() == 0.0

    def test_quarter_point_value(self):
        mesh = unit_square_mesh(8)
        full = hat_rhs(mesh).full_values()
        idx = np.flatnonzero((np.abs(mesh.vertices - [0.25, 0.5]) < 1e-12)
                             .all(axis=1))
        assert full[idx[0]] == pytest.approx(0.25)

    def test_interpolant_is_exact_on_nested_meshes(self):
        # the nodal interpolant at one level, prolongated, reproduces the
        # interpolant on the refined mesh (all kinks resolved)
        coarse = unit_square_mesh(8)
        fine = refine_uniform(coarse)
        P = prolongation_matrix(coarse, fine)
        np.testing.assert_allclose(P @ hat_rhs(coarse).values,
                                   hat_rhs(fine).values, atol=1e-14)

    def test_3d_center(self):
        mesh = unit_cube_mesh(4)
        full = hat_rhs(mesh).full_values()
        idx = np.flatnonzero((np.abs(mesh.vertices - 0.5) < 1e-12).all(axis=1))
        assert full[idx[0]] == pytest.approx(0.25)

    def test_rejects_unresolved_mesh(self):
        with pytest.raises(ValueError):
            hat_rhs(unit_square_mesh(6))


class TestRates:
    def test_ratio_four_gives_rate_two(self):
        rates = compute_rates([1.0, 0.25], [0.2, 0.1])
        assert rates[1] == pytest.approx(2.0)

    def test_published_pair(self):
        rates = compute_rates([0.002924, 0.000662], [0.0884, 0.0442])
        assert rates[1] == pytest.approx(2.14, abs=0.005)

    def test_constant_errors(self):
        rates = compute_rates([0.5, 0.5, 0.5], [0.4, 0.2, 0.1])
        assert rates[1] == pytest.approx(0.0)

    def test_zero_error_blank(self):
        rates = compute_rates([1.0, 0.0], [0.2, 0.1])
        assert rates[1] is None

    def test_table_formatting(self):
        table = RateTable.from_errors("demo", [25, 81], [0.3536, 0.1768],
                                      [0.1, 0.025])
        text = table.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "N_omega,h,error,rate"
        assert lines[1].endswith("0.00")
        assert lines[2].endswith("2.00")


class TestSurrogate:
    def test_endpoints(self):
        assert hs_error_surrogate(3.0, 7.0, 0.0) == pytest.approx(3.0)
        assert hs_error_surrogate(3.0, 7.0, 1.0) == pytest.approx(7.0)

    def test_equal_errors(self):
        assert hs_error_surrogate(0.3, 0.3, 0.42) == pytest.approx(0.3)

    def test_geometric_mean(self):
        assert hs_error_surrogate(1e-4, 1e-2, 0.5) == pytest.approx(1e-3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hs_error_surrogate(-1.0, 1.0, 0.5)


class TestProlongationExactness:
    def test_nested_norm_identity(self):
        # prolongation then fine-mesh norms equals coarse-mesh norms exactly
        rng = np.random.default_rng(5)
        coarse = unit_square_mesh(8)
        fine = refine_uniform(coarse)
        P = prolongation_matrix(coarse, fine)
        v = rng.standard_normal(coarse.n_interior)
        vc = NodalFunction(coarse, v)
        vf = NodalFunction(fine, P @ v)
        assert l2_norm(vf) == pytest.approx(l2_norm(vc), rel=1e-12)


class TestExperimentConfig:
    @pytest.mark.parametrize("dim", [1, 4, 7])
    def test_rejects_unsupported_dim(self, dim):
        # every dim other than 2 used to run silently on the cube
        with pytest.raises(ValueError, match="dim"):
            ExperimentConfig(dim=dim)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_rejects_threads_below_one(self, threads):
        # such a count used to run the jobs serially
        with pytest.raises(ValueError, match="threads"):
            ExperimentConfig(threads=threads)


class TestControlConvergence:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_rejects_threads_other_than_one(self, tmp_path, threads):
        # the study runs its solves in sequence
        cfg = ExperimentConfig(s_values=(0.5,), levels=(2,), ref_level=3,
                               out_dir=str(tmp_path), threads=threads)
        with pytest.raises(ValueError, match="threads"):
            run_control_convergence(cfg)
        assert not any(tmp_path.iterdir())


class TestStateConvergence:
    def test_small_study_structure_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(s_values=(0.5,), levels=(2, 3), ref_level=5,
                               out_dir=str(tmp_path))
        tables = run_state_convergence(cfg)
        table = tables[0.5]
        assert table.n_omega == [25, 81]
        assert table.rate[0] == 0.0
        assert table.error[0] > table.error[1] > 0
        csv1 = (tmp_path / "state_conv_s0.5.csv").read_text()
        # rerun reuses the cached reference and reproduces identical bytes
        tables2 = run_state_convergence(cfg)
        csv2 = (tmp_path / "state_conv_s0.5.csv").read_text()
        assert csv1 == csv2
        assert (tmp_path / "cache").is_dir()


@pytest.mark.parametrize("run", [run_state_convergence,
                                 run_control_convergence])
@pytest.mark.parametrize("levels,message", [
    ((2, 3), "reference level must exceed"), ((), "at least one level")])
def test_study_levels_are_checked(tmp_path, run, levels, message):
    # an empty study used to fail with a KeyError on the reference mesh
    cfg = ExperimentConfig(s_values=(0.5,), levels=levels, ref_level=3,
                           out_dir=str(tmp_path))
    with pytest.raises(ValueError, match=message):
        run(cfg)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("run", [run_state_convergence,
                                 run_control_convergence, run_solver_stats])
@pytest.mark.parametrize("empty,message", [
    ("s_values", "at least one value of s"), ("levels", "at least one level")])
def test_empty_studies_are_rejected(tmp_path, run, empty, message):
    # such a study used to return nothing, or a header-only table
    cfg = ExperimentConfig(**{"s_values": (0.5,), "levels": (2,),
                              "ref_level": 3, "out_dir": str(tmp_path),
                              empty: ()})
    with pytest.raises(ValueError, match=message):
        run(cfg)
    assert not any(tmp_path.iterdir())


class TestReferenceCache:
    def test_changed_tolerance_misses_control_cache(self, tmp_path,
                                                    monkeypatch):
        ref_solves = []
        solve = fraclap.harness.solve_variational

        def counting(problem, *args, **kwargs):
            if problem.mesh.cells_per_side == 16:
                ref_solves.append(problem)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(fraclap.harness, "solve_variational", counting)

        def reference_solves(levels=(2, 3), **overrides):
            ref_solves.clear()
            run_control_convergence(ExperimentConfig(
                s_values=(0.5,), levels=levels, ref_level=4,
                out_dir=str(tmp_path), **overrides))
            return len(ref_solves)

        assert reference_solves() == 1
        assert reference_solves() == 0          # cache hit
        assert reference_solves(opt_tol=1e-6) == 1
        assert reference_solves(rtol=1e-9) == 1
        # a cut-short cache file is recomputed, not returned
        (path,) = (tmp_path / "cache").glob(
            "control_ref_state_*_rtol1e-08_tol1e-05.txt")
        path.write_text("".join(path.read_text().splitlines(True)[:10]))
        assert reference_solves() == 1
        assert reference_solves() == 0
        # the warm-start chain begins at the finest study level, so the
        # reference moves with it within opt_tol
        assert reference_solves(levels=(2,)) == 1
        assert reference_solves(levels=(2,)) == 0

    @staticmethod
    def recomputes_state_reference(tmp_path, corrupt):
        """Rewrites the state reference cache file as ``corrupt(lines)``
        and checks that the rerun recomputes it: the rate table and the
        file come back unchanged."""
        cfg = ExperimentConfig(s_values=(0.5,), levels=(2, 3), ref_level=4,
                               out_dir=str(tmp_path))
        run_state_convergence(cfg)
        csv = (tmp_path / "state_conv_s0.5.csv").read_text()
        (path,) = (tmp_path / "cache").glob("state_ref_*.txt")
        lines = path.read_text().splitlines(True)
        path.write_text("".join(corrupt(lines)))
        run_state_convergence(cfg)
        assert (tmp_path / "state_conv_s0.5.csv").read_text() == csv
        assert path.read_text().splitlines(True) == lines

    def test_truncated_state_reference_is_recomputed(self, tmp_path):
        self.recomputes_state_reference(
            tmp_path, lambda lines: lines[:len(lines) // 2])
        assert not list((tmp_path / "cache").glob("*.tmp"))

    def test_unreadable_state_reference_is_recomputed(self, tmp_path):
        self.recomputes_state_reference(tmp_path,
                                        lambda lines: ["not a number\n"])

    def test_non_finite_state_reference_is_recomputed(self, tmp_path):
        # such a file used to load as a valid reference of the right length
        self.recomputes_state_reference(
            tmp_path, lambda lines: ["nan\n", "inf\n"] + lines[2:])


def test_interrupted_write_keeps_the_previous_file(tmp_path, monkeypatch):
    fraclap.harness._write(str(tmp_path), "table.csv", "old\n")

    class DiskFull:
        """A file whose write stores half its text, then fails."""

        def __init__(self, path, mode):
            self.fh = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError("No space left on device")

    monkeypatch.setattr(fraclap.harness, "open", DiskFull, raising=False)
    with pytest.raises(OSError, match="No space"):
        fraclap.harness._write(str(tmp_path), "table.csv", "new rows\n" * 9)
    assert (tmp_path / "table.csv").read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


class TestSolverStats:
    def test_structure(self):
        cfg = ExperimentConfig(s_values=(0.05, 0.5, 0.95),
                               levels=(2, 3), ref_level=9, out_dir=None)
        text = run_solver_stats(cfg)
        lines = text.strip().splitlines()
        assert lines[0] == "N_omega,s,N_alpha,n_alg1,n_alg2,n_amg_setups"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        by_key = {(float(r[1]), int(r[0])): r for r in rows}
        for (s, n), r in by_key.items():
            assert int(r[3]) + int(r[4]) == int(r[2])
        # s and 1-s share the same number of systems
        for n in (25, 81):
            assert by_key[(0.05, n)][2] == by_key[(0.95, n)][2]

    def test_reads_no_reference_level(self):
        # the study solves no reference; such a level used to be rejected
        cfg = ExperimentConfig(s_values=(0.5,), levels=(2,), ref_level=2)
        assert run_solver_stats(cfg).splitlines()[1].startswith("25,0.5,")


@pytest.mark.parametrize("run", [run_state_convergence, run_solver_stats])
def test_two_threads_give_the_results_of_one(tmp_path, run):
    results = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        result = run(ExperimentConfig(s_values=(0.25, 0.5), levels=(2, 3, 4),
                                      ref_level=5, out_dir=str(out),
                                      threads=threads))
        files = {path.name: path.read_text() for path in out.iterdir()
                 if path.is_file()}
        results.append((result, files))
    assert results[0][1]
    assert results[1] == results[0]


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ns = 0.25\nlevels = 2..3\nref-level = 5\n"
                        "mu = 0.2\n")
        vals = read_config_file(path)
        assert vals == {"s": "0.25", "levels": "2..3", "ref_level": "5",
                        "mu": "0.2"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError):
            read_config_file(path)


class TestCli:
    def test_solve_state_dumps_solution(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--level", "3", "--s", "0.5",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "state"
        assert summary["n_vertices"] == 81
        u = np.loadtxt(out / "state_u.txt")
        assert u.shape == (49,)
        assert (out / "mesh.txt").exists()

    def test_solve_control_p0(self, tmp_path):
        out = tmp_path / "ctl"
        code = main(["solve", "--level", "3", "--s", "0.25", "--mode", "p0",
                     "--post-process", "--tol", "1e-4", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "control"
        z = np.loadtxt(out / "control_z.txt")
        assert z.shape == (2 * 8 * 8,)
        assert (np.abs(z) <= 0.8 + 1e-12).all()
        assert (out / "postprocessed_z.txt").exists()

    def test_state_conv_subcommand(self, tmp_path, capsys):
        code = main(["state-conv", "--s", "0.5", "--levels", "2..3",
                     "--ref-level", "4", "--out", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "N_omega,h,error,rate" in captured.out
        cfg = ExperimentConfig(s_values=(0.5,), levels=(2, 3), ref_level=4)
        table = run_state_convergence(cfg)[0.5]
        assert captured.out == "# s = 0.5\n" + table.to_csv()

    def test_control_conv_subcommand(self, tmp_path, capsys):
        code = main(["control-conv", "--s", "0.5", "--levels", "2..3",
                     "--ref-level", "4", "--out", str(tmp_path)])
        assert code == 0
        expected = ""
        for name in ("control_p0", "control_pp", "control_var", "state_L2",
                     "state_Hs"):
            csv = (tmp_path / f"control_conv_{name}_s0.5.csv").read_text()
            assert csv.startswith("N_omega,h,error,rate\n25,")
            assert (tmp_path / f"control_conv_{name}_s0.5.dat").exists()
            expected += f"# s = 0.5, series = {name}\n{csv}"
        assert capsys.readouterr().out == expected

    def test_solve_rejects_tol_that_is_not_positive(self, tmp_path, capsys):
        # it used to fail after 50 fractional solves, blaming the polish
        out = tmp_path / "run"
        code = main(["solve", "--level", "3", "--mode", "variational",
                     "--tol", "0", "--out", str(out)])
        assert code == 1
        assert "tol must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_flag(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("s = 0.5\nlevels = 2..2\nref-level = 3\n")
        code = main(["state-conv", "--config", str(cfg)])
        assert code == 0
        assert "25," in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["threads = 2", "seed = 7",
                                      "rtoll = 1e-8", "config = other.cfg"],
                             ids=["threads", "seed", "rtoll", "config"])
    def test_config_rejects_keys_the_command_does_not_take(self, tmp_path,
                                                           capsys, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"s = 0.5\nlevels = 2\nref-level = 3\n{line}\n")
        code = main(["control-conv", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "control-conv" in err and f": {line.split()[0]}" in err

    def test_failure_exit_code(self, capsys):
        code = main(["state-conv", "--s", "0.5", "--levels", "3..4",
                     "--ref-level", "3"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["state-conv", "--s", "0.5", "--levels", "2", "--ref-level", "3"],
        ["solver-stats", "--s", "0.5", "--levels", "2"],
    ], ids=["state-conv", "solver-stats"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_rejects_threads_below_one(self, tmp_path, capsys, argv,
                                       threads):
        out = tmp_path / "run"
        code = main(argv + ["--threads", threads, "--out", str(out)])
        assert code == 1
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["control-conv", "--threads", "2"],
        ["control-conv", "--post-process"],
        ["state-conv", "--seed", "1"],
    ])
    def test_rejects_flags_nothing_reads(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--s", "0.5", "--levels", "2", "--ref-level", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,config,flag", [
        (["--s", "0.1,0.9"], None, "--s"),
        (["--post-process"], None, "--post-process"),
        (["--post-process", "--mode", "variational"], None, "--post-process"),
        (["--mu", "0.5"], None, "--mu"),
        (["--a", "-0.5"], None, "--a"),
        (["--b", "0.5"], None, "--b"),
        (["--tol", "1e-3"], None, "--tol"),
        ([], "mu = 0.5\n", "--mu"),
        ([], "tol = 1e-3\n", "--tol"),
    ], ids=["two-s", "post-process-state", "post-process-variational",
            "mu-state", "a-state", "b-state", "tol-state", "mu-config-state",
            "tol-config-state"])
    def test_solve_rejects_inputs_it_would_ignore(self, tmp_path, capsys,
                                                  argv, config, flag):
        # a state solve (no --mode) reads none of the control inputs
        out = tmp_path / "run"
        if config is not None:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        code = main(["solve", "--level", "3", "--out", str(out)] + argv)
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["1", "4"])
    def test_solve_rejects_unsupported_dim(self, tmp_path, capsys, dim):
        # it used to write a 3D solve whose summary reported the given dim
        out = tmp_path / "run"
        code = main(["solve", "--dim", dim, "--level", "2", "--out", str(out)])
        assert code == 1
        assert "dim must be 2 or 3" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_rejected_by_the_solver_leaves_no_output(self, tmp_path,
                                                           capsys):
        out = tmp_path / "run"
        code = main(["solve", "--level", "2", "--s", "1.5", "--out", str(out)])
        assert code == 1
        assert "s must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_value_that_does_not_parse_names_its_key(self, tmp_path, capsys,
                                                     source):
        argv = ["solve", "--level", "2", "--out", str(tmp_path / "run")]
        if source == "config":
            cfg = tmp_path / "c.cfg"
            cfg.write_text("mu = 0.1x\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--mu", "0.1x"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "mu = '0.1x'" in err

    @pytest.mark.parametrize("word,written", [("TRUE", True), ("On", True),
                                              ("no", False), ("0", False)])
    def test_config_boolean_spellings(self, tmp_path, word, written):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"mode = p0\npost_process = {word}\n")
        out = tmp_path / "run"
        code = main(["solve", "--level", "3", "--tol", "1e-4",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "postprocessed_z.txt").exists() == written

    @pytest.mark.parametrize("word", ["ture", "2", ""])
    def test_config_rejects_non_boolean(self, tmp_path, capsys, word):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"mode = p0\npost_process = {word}\n")
        out = tmp_path / "run"
        code = main(["solve", "--level", "3", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 1
        assert "post_process" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_stats_subcommand(self, capsys):
        code = main(["solver-stats", "--s", "0.5", "--levels", "2,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("N_omega,s,N_alpha")
        cfg = ExperimentConfig(s_values=(0.5,), levels=(2, 3))
        assert out == run_solver_stats(cfg)

    def test_solve_writes_the_library_solution(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--dim", "3", "--level", "2", "--s", "0.3",
                     "--ck", "1.2", "--rtol", "1e-9", "--out", str(out)]) == 0
        mesh = unit_cube_mesh(4)
        res = fractional_solve(mesh, 0.3, hat_rhs(mesh),
                               SolveOptions(c_k=1.2, rtol=1e-9))
        np.testing.assert_array_equal(np.loadtxt(out / "state_u.txt"),
                                      res.u.values)


def test_eval_p1_quarter_hat_consistency():
    # the clamped hat evaluated through the generic point evaluator agrees
    # with its nodal interpolation on a finer mesh
    coarse = unit_square_mesh(4)
    fine = unit_square_mesh(32)
    full = hat_rhs(coarse).full_values()
    vals_f = eval_p1(coarse, full, fine.vertices)
    np.testing.assert_allclose(vals_f, hat_rhs(fine).full_values(),
                               atol=1e-13)
