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
from scipy.sparse import _sparsetools

from fraclap import (fem, fractional, interpolate, multigrid, read_mesh,
                     shifted, solve_all_shifted, solve_family, unit_cube_mesh,
                     unit_square_mesh, write_mesh)
from fraclap.fem import assemble_load, operators
from fraclap.fractional import (SolveOptions, fractional_solve,
                                quadrature_for_mesh)
from fraclap.harness import hat_rhs
from fraclap.multigrid import GeometricMultigrid, MeshHierarchy
from fraclap.shifted import normalize

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


def accumulated(A, x, y):
    """``y + A @ x`` with each row's products added to ``y[i]`` one at a
    time, in the order of scipy's matvec for ``A``'s storage: diagonal by
    diagonal for DIA, stored entry by stored entry for CSR."""
    n = A.shape[0]
    out = y.copy()
    if A.format == "dia":
        for k, diag in zip(A.offsets, A.data):
            cols = np.arange(max(k, 0), min(n + k, n))
            out[cols - k] += diag[cols] * x[cols]
        return out
    lengths = np.diff(A.indptr)
    for p in range(lengths.max()):
        rows = np.flatnonzero(lengths > p)
        at = A.indptr[rows] + p
        out[rows] += A.data[at] * x[A.indices[at]]
    return out


class TestAccumulatingProduct:
    @pytest.mark.parametrize("build, storage", [
        (lambda tmp: unit_square_mesh(32), "dia"),
        (lambda tmp: unit_cube_mesh(16), "dia"),
        (lambda tmp: perturbed_square(tmp, 32, renumber=True), "csr"),
    ], ids=["square32", "cube16", "renumbered32"])
    def test_adds_the_product_in_place(self, tmp_path, build, storage):
        mesh = build(tmp_path)
        ops = operators(mesh)
        family = normalize(ops.stiffness, ops.lumped_mass, np.array([1.0]),
                           np.ones(mesh.n_interior))
        A = family.A_scaled
        assert A.format == storage
        x, y = np.random.default_rng(7).standard_normal((2, family.n))
        out = y.copy()
        assert family.apply_scaled(x, out=out) is out
        np.testing.assert_array_equal(out, accumulated(A, x, y))
        # the same sum as y + A~ x but for the order of its terms
        np.testing.assert_allclose(out, y + A @ x, rtol=0.0,
                                   atol=1e-15 * np.abs(y + A @ x).max())
        # from zero, the plain product, bit for bit
        zero = np.zeros(family.n)
        np.testing.assert_array_equal(family.apply_scaled(x, out=zero),
                                      family.apply_scaled(x))

    def test_rejects_what_the_kernel_cannot_take(self):
        mesh = unit_square_mesh(8)
        ops = operators(mesh)
        family = normalize(ops.stiffness, ops.lumped_mass, np.array([1.0]),
                           np.ones(mesh.n_interior))
        n = family.n
        x = np.ones(n)
        for bad_x, bad_out in ((x, np.zeros(n - 1)), (x[:-1], np.zeros(n)),
                               (x, np.zeros(2 * n)[::2]),
                               (x, np.zeros(n, dtype=np.float32)),
                               (x, np.zeros((1, n)))):
            with pytest.raises(ValueError, match="out="):
                family.apply_scaled(bad_x, out=bad_out)
        # without out, a block of vectors no longer reaches the kernel
        for bad_x in (np.ones((2, n)), np.ones((n, 1)), x[:-1]):
            with pytest.raises(ValueError, match="vector x"):
                family.apply_scaled(bad_x)


def spy_kernels(patch):
    """Record ``(n_row, n_col, offsets)`` of every DIA kernel call and the
    CSR kernel's calls, on kernels bound after this patch."""
    dia, csr = [], []
    dia_matvec = _sparsetools.dia_matvec
    csr_matvec = _sparsetools.csr_matvec

    def dia_spy(n_row, n_col, n_diags, stride, offsets, data, x, y):
        dia.append((n_row, n_col, offsets.copy()))
        dia_matvec(n_row, n_col, n_diags, stride, offsets, data, x, y)

    def csr_spy(*args):
        csr.append(args[:2])
        csr_matvec(*args)

    patch.setattr(_sparsetools, "dia_matvec", dia_spy)
    patch.setattr(_sparsetools, "csr_matvec", csr_spy)
    return dia, csr


# rows per block below: a prime, so that the blocks cut through the stencils
# and the last block is a short one on every mesh here
BLOCK = 97


class TestBlockedProduct:
    @pytest.mark.parametrize("build, n_diagonals", [
        (lambda: unit_square_mesh(32), 5), (lambda: unit_cube_mesh(16), 7)],
        ids=["square32", "cube16"])
    def test_blocks_give_the_unblocked_bits(self, monkeypatch, build,
                                            n_diagonals):
        monkeypatch.setattr(shifted, "_BLOCK_ROWS", BLOCK)
        monkeypatch.setattr(fem, "_built", {})
        mesh = build()
        ops = operators(mesh)
        dia, _ = spy_kernels(monkeypatch)
        family = normalize(ops.stiffness, ops.lumped_mass, np.array([1.0]),
                           np.ones(mesh.n_interior))
        A, n = family.A_scaled, family.n
        assert A.format == "dia" and A.offsets.size == n_diagonals
        x, y = np.random.default_rng(13).standard_normal((2, n))
        out = y.copy()
        assert family.apply_scaled(x, out=out) is out
        # one call per block of rows, each on the columns its rows reach
        n_blocks = -(-n // BLOCK)
        assert n % BLOCK and len(dia) == n_blocks
        assert [call[0] for call in dia] == [BLOCK] * (n_blocks - 1) \
            + [n % BLOCK]
        lo, hi = int(A.offsets.min()), int(A.offsets.max())
        for (n_row, n_col, offsets), r0 in zip(dia, range(0, n, BLOCK)):
            c0 = max(0, r0 + lo)
            assert n_col == min(n, r0 + n_row + hi) - c0
            np.testing.assert_array_equal(offsets, A.offsets + (r0 - c0))
        # the unblocked kernel, one call over all rows
        want = y.copy()
        _sparsetools.dia_matvec(n, n, A.offsets.size, A.data.shape[1],
                                A.offsets, A.data, x, want)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(out, accumulated(A, x, y))
        # without out: the same kernel into a zero vector, A~ @ x's bits
        product = A @ x
        dia.clear()
        np.testing.assert_array_equal(family.apply_scaled(x), product)
        assert len(dia) == n_blocks

    def test_operator_of_one_block_makes_one_call(self, monkeypatch):
        monkeypatch.setattr(fem, "_built", {})
        mesh = unit_cube_mesh(16)
        ops = operators(mesh)
        dia, _ = spy_kernels(monkeypatch)
        family = normalize(ops.stiffness, ops.lumped_mass, np.array([1.0]),
                           np.ones(mesh.n_interior))
        assert family.n <= shifted._BLOCK_ROWS
        family.apply_scaled(np.ones(family.n))
        assert len(dia) == 1 and dia[0][:2] == (family.n, family.n)
        np.testing.assert_array_equal(dia[0][2], family.A_scaled.offsets)

    def test_csr_operator_keeps_its_kernel(self, monkeypatch, tmp_path):
        monkeypatch.setattr(shifted, "_BLOCK_ROWS", BLOCK)
        monkeypatch.setattr(fem, "_built", {})
        mesh = perturbed_square(tmp_path, 32, renumber=True)
        ops = operators(mesh)
        dia, csr = spy_kernels(monkeypatch)
        family = normalize(ops.stiffness, ops.lumped_mass, np.array([1.0]),
                           np.ones(mesh.n_interior))
        assert family.A_scaled.format == "csr"
        x, y = np.random.default_rng(17).standard_normal((2, family.n))
        out = family.apply_scaled(x, out=y.copy())
        assert not dia and csr == [(family.n, family.n)]
        np.testing.assert_array_equal(out, accumulated(family.A_scaled, x, y))

    def test_whole_solve_keeps_its_bits(self, monkeypatch):
        # a scan past the stored rows (second pass) and a PCG tail: the
        # scan, the regeneration and the tail's operator all multiply
        mesh = unit_cube_mesh(16)
        ops = operators(mesh)
        quad = quadrature_for_mesh(0.5, mesh.h)
        z = assemble_load(mesh, lambda p: np.sin(np.pi * p).prod(axis=1)
                          + p[:, 0])
        runs = []
        for block in (shifted._BLOCK_ROWS, BLOCK):
            with monkeypatch.context() as patch:
                patch.setattr(shifted, "_BLOCK_ROWS", block)
                patch.setattr(shifted, "_STORED_MAX", 5)
                patch.setattr(fem, "_built", {})
                dia, _ = spy_kernels(patch)
                values, stats = solve_family(
                    ops.stiffness, ops.lumped_mass, quad.shifts, z,
                    labels=quad.l, n_max=N_MAX)
            n_basis = stats.iterations[stats.crossover]
            # N_MAX scanned products, N_MAX - 5 regenerated, then the tail's
            assert n_basis == N_MAX and stats.n_alg2 > 0
            assert stats.n_matvec > 2 * N_MAX - 5
            # every product through the kernel, block by block
            n_blocks = 1 if block > mesh.n_interior else \
                -(-mesh.n_interior // block)
            assert len(dia) == n_blocks * stats.n_matvec
            runs.append((values, dataclasses.asdict(stats)))
        (want, want_stats), (got, got_stats) = runs
        assert got_stats == want_stats
        np.testing.assert_array_equal(got, want)


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
            W = np.eye(family.n_shifts) if weights is None else weights[None]
            runs = {}
            for cap in (shifted._STORED_MAX, 1, 2, 20):
                scans, products, steps = [], [], []

                def spy(*args, scans=scans):
                    Q, a, b, done = lanczos(*args)
                    scans.append((a.copy(), b.copy(), done))
                    return Q, a, b, done

                def counting(self, x, out=None, products=products):
                    products.append(1)
                    return apply(self, x, out)

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
                    out = shifted._head(family, n_max, tol_abs, W)
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
                # row by row: one solution (zero for a shift left to the
                # tail), or the weighted sum
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
