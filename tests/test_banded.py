"""Banded (DIA) storage of the grid operators and the reused Lanczos basis:
both must leave every output bit unchanged.  A family solve that keeps
only part of its basis and regenerates the rest must scan the same bits."""

import dataclasses
import inspect
import itertools
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from fraclap import (GeometricMultigrid, MeshHierarchy, fractional,
                     interpolate, multigrid, normalize, read_mesh, shifted,
                     solve_all_shifted, solve_family, unit_cube_mesh,
                     unit_square_mesh, write_mesh)
from fraclap.fem import assemble_load, operators
from fraclap.fractional import (SolveOptions, fractional_solve,
                                quadrature_for_mesh)
from fraclap.harness import hat_rhs

# small enough that every solve below has a PCG tail
N_MAX = 20


def solve_everything(mesh, s):
    """``fractional_solve``'s u and stats, ``solve_all_shifted``'s rows and
    stats, with a PCG tail and (on a mesh with a hierarchy) V-cycles."""
    opts = SolveOptions(n_max=N_MAX)
    z = interpolate(mesh, lambda p: np.sin(np.pi * p).prod(axis=1) + p[:, 0])
    res = fractional_solve(mesh, s, z, opts)
    rows, stats, _ = solve_all_shifted(mesh, s, z, opts)
    assert res.stats.n_alg2 > 0 and res.stats.n_prec_setups > 0
    return (res.u.values, dataclasses.asdict(res.stats), rows,
            dataclasses.asdict(stats))


def perturbed_square(tmp_path, m, renumber=False):
    """A jittered unit_square_mesh(m), read back without its grid
    structure; with ``renumber`` its vertices are listed in random
    order."""
    grid = unit_square_mesh(m)
    rng = np.random.default_rng(0)
    vertices = grid.vertices.copy()
    vertices[grid.interior] += 0.1 * grid.h * rng.uniform(
        -1.0, 1.0, (grid.n_interior, 2))
    cells = grid.cells
    if renumber:
        perm = rng.permutation(grid.n_vertices)     # new -> old
        vertices = vertices[perm]
        cells = np.argsort(perm)[cells]
    path = tmp_path / f"perturbed{m}.txt"
    write_mesh(dataclasses.replace(grid, vertices=vertices, cells=cells),
               path)
    mesh = read_mesh(path)
    assert mesh.cells_per_side is None
    return mesh


class TestBitwiseParity:
    # square 64 and cube 16 are the smallest grids whose hierarchy has a
    # smoothed (banded) level above the coarse direct solve; cube 8 is
    # below the band rule and stays CSR.  The perturbed mesh, in grid order,
    # is banded too, and its lumped mass varies, so it checks the rounding
    # of the scaled operator's entries; its tail runs symmetric Gauss-Seidel
    @pytest.mark.parametrize("build, banded", [
        (lambda tmp: unit_square_mesh(32), (True, False)),
        (lambda tmp: unit_square_mesh(64), (True, True)),
        (lambda tmp: unit_cube_mesh(8), (False, False)),
        (lambda tmp: unit_cube_mesh(16), (True, True)),
        (lambda tmp: perturbed_square(tmp, 32), (True, False)),
    ], ids=["square32", "square64", "cube8", "cube16", "perturbed32"])
    @pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
    def test_same_bits_as_csr(self, monkeypatch, tmp_path, build, banded,
                              s):
        # fresh meshes: the scaled operator is cached per stiffness matrix
        with monkeypatch.context() as patch:
            patch.setattr(multigrid, "_banded", lambda mat: mat)
            csr = solve_everything(build(tmp_path), s)
        mesh = build(tmp_path)
        got = solve_everything(mesh, s)
        for value, want in zip(got, csr):
            if isinstance(want, dict):
                assert value == want
            else:
                np.testing.assert_array_equal(value, want)
        # which operators were banded: A~, and the finest V-cycle level
        ops = operators(mesh)
        family = normalize(ops.stiffness, ops.lumped_mass, np.ones(1),
                           np.ones(mesh.n_interior))
        assert sp.isspmatrix_dia(family.A_scaled) == banded[0]
        if mesh.cells_per_side is not None:
            gmg = GeometricMultigrid(MeshHierarchy.for_mesh(mesh), 0.1)
            assert sp.isspmatrix_dia(gmg._ops[-1]) == banded[1]


class TestBandRule:
    def test_grid_operators_are_banded(self):
        for mesh, n_diagonals in ((unit_square_mesh(16), 5),
                                  (unit_cube_mesh(16), 7)):
            A = operators(mesh).stiffness
            D = multigrid._banded(A)
            assert sp.isspmatrix_dia(D)
            assert D.offsets.size == n_diagonals
            assert np.all(np.diff(D.offsets) > 0)
            x = np.random.default_rng(0).standard_normal(A.shape[0])
            np.testing.assert_array_equal(D @ x, A @ x)

    def test_perturbed_mesh_in_grid_order_is_banded(self, tmp_path):
        # the diagonal couplings that vanish on the grid no longer do: 7
        # diagonals, still within the rule
        A = operators(perturbed_square(tmp_path, 16)).stiffness
        D = multigrid._banded(A)
        assert sp.isspmatrix_dia(D) and D.offsets.size == 7
        x = np.random.default_rng(2).standard_normal(A.shape[0])
        np.testing.assert_array_equal(D @ x, A @ x)

    def test_renumbered_perturbed_mesh_keeps_csr(self, tmp_path):
        mesh = perturbed_square(tmp_path, 16, renumber=True)
        ops = operators(mesh)
        assert multigrid._banded(ops.stiffness) is ops.stiffness
        family = normalize(ops.stiffness, ops.lumped_mass, np.ones(1),
                           np.ones(mesh.n_interior))
        assert sp.isspmatrix_csr(family.A_scaled)

    def test_random_pattern_gives_up_after_the_first_block(self,
                                                           monkeypatch):
        n = 12288
        rng = np.random.default_rng(1)
        B = sp.random(n, n, density=4.0 / n, random_state=rng, format="csr")
        mat = (B + B.T + 10.0 * sp.eye(n)).tocsr()
        mat.sort_indices()

        def no_dia(*args, **kwargs):
            raise AssertionError("a DIA matrix was built")

        monkeypatch.setattr(mat, "diagonal", no_dia)
        monkeypatch.setattr(sp, "dia_matrix", no_dia)
        assert multigrid._banded(mat) is mat

    def test_unsorted_indices_keep_csr(self):
        # a DIA matvec would add the products in another order
        A = operators(unit_square_mesh(8)).stiffness.copy()
        A.indices[:3] = A.indices[2::-1].copy()
        A.data[:3] = A.data[2::-1].copy()
        A.has_sorted_indices = False
        assert multigrid._banded(A) is A


class TestScaledOperator:
    # A~ is scaled on A's own pattern; the reference is the product of
    # diagonal matrices it replaces, whose entries round as (d_i a_ij) d_j.
    # Perturbed meshes, as the grid's stiffness entries (4, -1) multiply
    # exactly in any order
    @pytest.mark.parametrize("renumber, dia", [(False, True), (True, False)],
                             ids=["grid-order", "renumbered"])
    @pytest.mark.parametrize("varying", [False, True],
                             ids=["lumped", "varying"])
    def test_same_bits_as_the_diagonal_product(self, tmp_path, renumber, dia,
                                               varying):
        mesh = perturbed_square(tmp_path, 16, renumber=renumber)
        ops = operators(mesh)
        A, mass = ops.stiffness, ops.lumped_mass
        if varying:
            mass = mass * np.linspace(0.5, 2.0, mesh.n_interior)
        got, rho, d = shifted._scale_operator(A, mass)
        assert sp.isspmatrix_dia(got) == dia
        want = sp.csr_matrix(sp.diags(d) @ A @ sp.diags(d))
        want_rho = float(np.max(np.abs(want).sum(axis=1)))
        want.data /= want_rho
        assert rho == want_rho
        np.testing.assert_array_equal(got.toarray(), want.toarray())
        x = np.random.default_rng(3).standard_normal(mesh.n_interior)
        np.testing.assert_array_equal(got @ x, want @ x)


class TestSpareBasis:
    def test_scans_reuse_one_basis(self):
        mesh = unit_square_mesh(16)
        ops = operators(mesh)
        shifts = np.array([10.0, 1.0, 0.1])
        Z = np.ones(mesh.n_interior)
        spare = normalize(ops.stiffness, ops.lumped_mass, shifts, Z).spare
        solve_family(ops.stiffness, ops.lumped_mass, shifts, Z, n_max=30)
        first = spare["Q"]
        assert first.shape == (30, mesh.n_interior)
        solve_family(ops.stiffness, ops.lumped_mass, shifts, 2 * Z, n_max=20)
        assert spare["Q"] is first
        # a spare with too few rows is replaced
        solve_family(ops.stiffness, ops.lumped_mass, shifts, Z, n_max=40)
        assert spare["Q"].shape == (40, mesh.n_interior)

    def test_later_solves_do_not_change_earlier_results(self):
        mesh = unit_square_mesh(32)
        rng = np.random.default_rng(5)
        opts = SolveOptions(n_max=N_MAX)
        u = fractional_solve(mesh, 0.5, rng.standard_normal(mesh.n_interior),
                             opts).u.values
        rows, _, _ = solve_all_shifted(
            mesh, 0.5, rng.standard_normal(mesh.n_interior), opts)
        ops = operators(mesh)
        head, _ = solve_family(ops.stiffness, ops.lumped_mass,
                               np.array([50.0, 20.0]),
                               rng.standard_normal(mesh.n_interior))
        kept = [u.copy(), rows.copy(), head.copy()]
        for _ in range(2):
            fractional_solve(mesh, 0.5, rng.standard_normal(mesh.n_interior),
                             opts)
            solve_all_shifted(mesh, 0.5,
                              rng.standard_normal(mesh.n_interior), opts)
            solve_family(ops.stiffness, ops.lumped_mass,
                         np.array([50.0, 20.0]),
                         rng.standard_normal(mesh.n_interior))
        for got, want in zip((u, rows, head), kept):
            np.testing.assert_array_equal(got, want)

    def test_concurrent_solves_match_the_serial_run(self):
        # more threads than cores, switching often: a scan that found the
        # spare taken must allocate its own basis rather than share one
        mesh = unit_square_mesh(32)
        rng = np.random.default_rng(11)
        rhs = [rng.standard_normal(mesh.n_interior) for _ in range(3)]
        opts = [SolveOptions(), SolveOptions(n_max=N_MAX)]

        def solve(z):
            return [fractional_solve(mesh, 0.5, z, o).u.values for o in opts]

        serial = [solve(z) for z in rhs]
        results, errors = [[] for _ in rhs], []

        def work(i):
            try:
                for _ in range(3):
                    results[i].append(solve(rhs[i]))
            except Exception as exc:                # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(rhs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        for runs, want in zip(results, serial):
            assert len(runs) == 3
            for run in runs:
                for got, expected in zip(run, want):
                    np.testing.assert_array_equal(got, expected)


class TestRegeneratedBasis:
    # square 64 and cube 16 have a DIA A~, the renumbered perturbed mesh a
    # CSR one
    @pytest.mark.parametrize("build", [
        lambda tmp: unit_square_mesh(64),
        lambda tmp: unit_cube_mesh(16),
        lambda tmp: perturbed_square(tmp, 32, renumber=True),
    ], ids=["square64", "cube16", "renumbered32"])
    @pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
    def test_same_scan_with_fewer_stored_vectors(self, monkeypatch, tmp_path,
                                                 build, s):
        mesh = build(tmp_path)
        ops = operators(mesh)
        quad = quadrature_for_mesh(s, mesh.h)
        z = assemble_load(mesh, lambda p: np.sin(np.pi * p).prod(axis=1)
                          + p[:, 0])
        family = normalize(ops.stiffness, ops.lumped_mass, quad.shifts, z,
                           labels=quad.l)
        lanczos = shifted._lanczos
        apply = shifted.ShiftedFamily.apply_scaled
        step = shifted._step
        # at rtol 1e-8 the head takes every shift; at 1e-12 the scan stops
        # at n_max and the tail's start x_last is regenerated too.  The
        # weighted and the unweighted solve keep the same rows
        for weights, (rtol, n_max) in itertools.product(
                (quad.weights[::-1], None), ((1e-8, 200), (1e-12, 50))):
            tol_abs = rtol * np.linalg.norm(family.rhs_scaled)
            runs = {}
            for cap in (shifted._STORED_MAX, 1, 2, 20):
                scans, products, steps = [], [], []

                def spy(*args, scans=scans):
                    Q, a, b, done = lanczos(*args)
                    scans.append((a.copy(), b.copy(), done))
                    return Q, a, b, done

                def counting(self, x, products=products):
                    products.append(1)
                    return apply(self, x)

                def counting_step(*args, steps=steps, **kwargs):
                    steps.append(1)
                    return step(*args, **kwargs)

                with monkeypatch.context() as patch:
                    patch.setattr(shifted, "_STORED_MAX", cap)
                    patch.setattr(shifted, "_lanczos", spy)
                    patch.setattr(shifted.ShiftedFamily, "apply_scaled",
                                  counting)
                    patch.setattr(shifted, "_step", counting_step)
                    family.spare.clear()
                    out = shifted._head(family, n_max, tol_abs, weights)
                    assert family.spare["Q"].shape[0] == min(n_max, cap)
                    n_basis, n_products = out[1:3]
                    n_regenerated = max(n_basis - min(n_max, cap), 0)
                    assert len(products) == len(steps) == n_products == \
                        n_basis + n_regenerated
                    if rtol == 1e-8:
                        products.clear()
                        _, stats = solve_family(
                            ops.stiffness, ops.lumped_mass, quad.shifts, z,
                            labels=quad.l, n_max=n_max,
                            weights=None if weights is None else quad.weights)
                        assert stats.n_alg2 == 0
                        assert stats.n_matvec == len(products)
                runs[cap] = out, scans[0]
            (n_solved, n_basis, _, head, x_last), scan = \
                runs.pop(shifted._STORED_MAX)
            assert n_basis > 20
            assert (x_last is None) == (rtol == 1e-8)
            for (got_solved, got_basis, _, got_head, got_last), got_scan in \
                    runs.values():
                assert (got_solved, got_basis) == (n_solved, n_basis)
                for got, want in zip(got_scan, scan):
                    np.testing.assert_array_equal(got, want)
                # row by row: one solution, or the weighted sum
                assert np.all(np.linalg.norm(got_head - head, axis=-1) <=
                              1e-13 * np.linalg.norm(head, axis=-1))
                if x_last is not None:
                    assert np.linalg.norm(got_last - x_last) <= \
                        1e-13 * np.linalg.norm(x_last)

    def test_default_scan_caps(self, monkeypatch):
        # one default scan cap, in 2D, in 3D and in the family solve
        assert shifted._SCAN_MAX == 1500
        assert SolveOptions().n_max == shifted._SCAN_MAX
        assert inspect.signature(solve_family).parameters["n_max"].default \
            == shifted._SCAN_MAX
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["n_max"])
            return solve_family(*args, **kwargs)

        monkeypatch.setattr(fractional, "solve_family", spy)
        for mesh in (unit_square_mesh(8), unit_cube_mesh(4)):
            fractional_solve(mesh, 0.5, np.ones(mesh.n_interior))
        assert seen == [shifted._SCAN_MAX] * 2

    def test_level_8_state_solve_needs_no_pcg(self):
        # the smallest shift needs about 600 vectors: more than are stored,
        # fewer than the scan cap
        mesh = unit_square_mesh(256)
        stats = fractional_solve(mesh, 0.05, hat_rhs(mesh)).stats
        assert stats.n_alg2 == 0 and stats.n_prec_setups == 0
        n_basis = stats.iterations[stats.crossover]
        assert shifted._STORED_MAX < n_basis < 1500
        assert stats.n_matvec == 2 * n_basis - shifted._STORED_MAX
