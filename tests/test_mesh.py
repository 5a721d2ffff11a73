"""Mesh construction, refinement, transfer operators, and text IO."""

import collections
import hashlib

import numpy as np
import pytest

from fraclap import mesh as mesh_mod
from fraclap import (cell_parents, eval_p1, prolongation_matrix, read_mesh,
                     refine_uniform, unit_cube_mesh, unit_square_mesh,
                     write_mesh)
from fraclap.fem import operators


class TestUnitSquareMesh:
    def test_vertex_counts_match_published_sizes(self):
        assert unit_square_mesh(4).n_vertices == 25
        assert unit_square_mesh(8).n_vertices == 81
        assert unit_square_mesh(16).n_vertices == 289

    def test_smallest_mesh(self):
        mesh = unit_square_mesh(1)
        assert mesh.n_vertices == 4
        assert mesh.n_cells == 2
        assert mesh.n_interior == 0

    def test_h_is_the_diagonal_length(self):
        assert unit_square_mesh(4).h == pytest.approx(0.3536, abs=5e-5)
        assert unit_square_mesh(8).h == pytest.approx(0.1768, abs=5e-5)

    def test_volumes_positive_and_partition_unity(self):
        mesh = unit_square_mesh(5)
        assert (mesh.volumes > 0).all()
        assert mesh.volumes.sum() == pytest.approx(1.0, rel=1e-14)

    def test_boundary_flags(self):
        mesh = unit_square_mesh(6)
        on_edge = ((mesh.vertices == 0.0) | (mesh.vertices == 1.0)).any(axis=1)
        np.testing.assert_array_equal(mesh.boundary, on_edge)
        assert mesh.n_interior == 25

    def test_interior_order_is_lexicographic(self):
        mesh = unit_square_mesh(5)
        pts = mesh.vertices[mesh.interior]
        keys = list(map(tuple, pts))
        assert keys == sorted(keys)

    def test_conforming_edges(self):
        mesh = unit_square_mesh(4)
        edges = collections.Counter()
        for cell in mesh.cells:
            for a in range(3):
                for b in range(a + 1, 3):
                    edges[tuple(sorted((cell[a], cell[b])))] += 1
        assert set(edges.values()) <= {1, 2}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            unit_square_mesh(0)


class TestUnitCubeMesh:
    def test_vertex_counts_match_published_sizes(self):
        assert unit_cube_mesh(4).n_vertices == 125
        assert unit_cube_mesh(8).n_vertices == 729

    def test_smallest_mesh(self):
        mesh = unit_cube_mesh(1)
        assert mesh.n_vertices == 8
        assert mesh.n_cells == 6
        assert mesh.n_interior == 0

    def test_volumes_positive_and_partition_unity(self):
        mesh = unit_cube_mesh(3)
        assert (mesh.volumes > 0).all()
        assert mesh.volumes.sum() == pytest.approx(1.0, rel=1e-12)

    def test_conforming_faces(self):
        mesh = unit_cube_mesh(2)
        faces = collections.Counter()
        for cell in mesh.cells:
            for drop in range(4):
                faces[tuple(sorted(np.delete(cell, drop)))] += 1
        # interior faces shared by exactly two cells, boundary by one
        assert set(faces.values()) == {1, 2}

    def test_h_is_the_long_diagonal(self):
        assert unit_cube_mesh(4).h == pytest.approx(np.sqrt(3) / 4, rel=1e-14)


# SHA-256 of the cells and volumes of the Kuhn meshes as first built with
# one hand-written builder per dimension
_GRID_DIGESTS = [
    (2, 1, "2f0423ed92951d2a036addbcfa5cbadb84c31d0bbc8385ee700d3947be498348",
     "606e5166986dd9f186277d16e3d18bae3887a944a829487b59fd8672bbb20251"),
    (2, 2, "92c46d20ac4c16a13c7428076182e432ed77e9f03ec15d72f317562d85979874",
     "65c5345153d2f48b057ce282be27f774447677c4afb9cde391a88c6bd1acdb29"),
    (2, 3, "3e8414307b9d53e20bafc2bf3905822ecfc8a29071658a86fde54161d2f9368f",
     "7f75cdb796f93559742acede9344b3daf321a4d6a17c34009df63fa68ada4223"),
    (2, 5, "26fb302705509e211b21cc86c92028f541146cf0dc7e499fafc4ea35169f0ae8",
     "2e55d7aba5d06e4d895c4d093718a191cd42bf8902a7935169b7235e9bb6d29d"),
    (2, 8, "11b2e7295faab26787d8e393fe980270ccfc75291f390bb7e73e83af4b557fa2",
     "07553244f129e952b911136dd4bcaf7caab0371a1bcac8f0a6a8bfe1a60ef9e8"),
    (3, 1, "a422c669071248daa98c025725508a1a56f480db138def5c9bef56f8309e1b26",
     "52950246a9009306a12db679d1f01b7866b9b7c91414a136c2bf0b207da4121d"),
    (3, 2, "b62f705da54a2ceb9c53e2917b24db7ccc0fb2c67859fc90069793dd4afe5047",
     "ba614a4952f44db3df506a1a12cf2ddc805919d982c73b2d0bb761a5792d25e7"),
    (3, 3, "d0d89b89171749db430310899ca511b79e44c74422b48c51d2a6396e0b2f34b7",
     "4281a05ed0971761bbe2283c314097bc54ef6575c7e65bbb6713e661cdecb747"),
]


@pytest.mark.parametrize("dim,m,cells_sha,volumes_sha", _GRID_DIGESTS,
                         ids=[f"{d}d-m{m}" for d, m, _, _ in _GRID_DIGESTS])
def test_grid_mesh_bits_are_pinned(dim, m, cells_sha, volumes_sha):
    mesh = (unit_square_mesh if dim == 2 else unit_cube_mesh)(m)
    assert mesh.cells.dtype == np.int64 and mesh.volumes.dtype == np.float64
    assert hashlib.sha256(mesh.cells.tobytes()).hexdigest() == cells_sha
    assert hashlib.sha256(mesh.volumes.tobytes()).hexdigest() == volumes_sha


@pytest.mark.parametrize("dim,m", [(2, 1), (2, 5), (3, 1), (3, 3)])
def test_located_cell_contains_the_point(dim, m):
    """Random points, points on the Kuhn faces (equal local coordinates),
    on grid faces and on vertices all land in a cell that contains them."""
    rng = np.random.default_rng(dim * 10 + m)
    mesh = (unit_square_mesh if dim == 2 else unit_cube_mesh)(m)
    ties = rng.random((300, dim))
    ties[:, 1] = ties[:, 0]                  # on a diagonal face
    on_grid = rng.random((300, dim))
    on_grid[:, -1] = rng.integers(0, m + 1, 300) / m
    halves = rng.integers(0, 2 * m + 1, (300, dim)) / (2 * m)
    points = np.concatenate([rng.random((1000, dim)), ties, on_grid, halves,
                             mesh.vertices])
    denom = 2 ** 20
    num = np.rint(points * denom).astype(np.int64)
    cells = mesh_mod._locate_cells_int(mesh, num, denom)
    lam = mesh_mod._barycentric(mesh, cells, points)
    assert lam.min() >= -1e-12


class TestRefinement:
    def test_vertex_growth_2d(self):
        mesh = unit_square_mesh(4)
        fine = refine_uniform(mesh)
        assert fine.n_vertices == 81
        assert fine.h == pytest.approx(mesh.h / 2, rel=1e-14)

    def test_two_refinements_multiply_cells_by_16(self):
        mesh = unit_square_mesh(2)
        twice = refine_uniform(refine_uniform(mesh))
        assert twice.n_cells == 16 * mesh.n_cells

    def test_refined_vertices_contain_coarse_vertices(self):
        mesh = unit_cube_mesh(2)
        fine = refine_uniform(mesh)
        coarse_set = {tuple(np.round(v, 12)) for v in mesh.vertices}
        fine_set = {tuple(np.round(v, 12)) for v in fine.vertices}
        assert coarse_set <= fine_set

    def test_cell_growth_3d(self):
        mesh = unit_cube_mesh(2)
        assert refine_uniform(mesh).n_cells == 8 * mesh.n_cells


class TestTransferOperators:
    @pytest.mark.parametrize("maker,m", [(unit_square_mesh, 8),
                                         (unit_cube_mesh, 4)])
    def test_galerkin_identity(self, maker, m):
        coarse = maker(m)
        fine = refine_uniform(coarse)
        P = prolongation_matrix(coarse, fine)
        oc = operators(coarse)
        of = operators(fine)
        scale = np.abs(oc.stiffness).max()
        assert (abs(P.T @ of.stiffness @ P - oc.stiffness)).max() <= 1e-12 * scale
        assert (abs(P.T @ of.mass @ P - oc.mass)).max() <= 1e-12

    def test_prolongation_is_pointwise_interpolation(self):
        rng = np.random.default_rng(7)
        coarse = unit_cube_mesh(2)
        fine = refine_uniform(coarse)
        P = prolongation_matrix(coarse, fine)
        vals = rng.standard_normal(coarse.n_interior)
        full = np.zeros(coarse.n_vertices)
        full[coarse.interior] = vals
        direct = eval_p1(coarse, full, fine.vertices[fine.interior])
        np.testing.assert_allclose(P @ vals, direct, atol=1e-13)

    @pytest.mark.parametrize("maker,children", [(unit_square_mesh, 4),
                                                (unit_cube_mesh, 8)])
    def test_cell_parents_partition(self, maker, children):
        coarse = maker(2)
        fine = refine_uniform(coarse)
        parents = cell_parents(coarse, fine)
        counts = np.bincount(parents, minlength=coarse.n_cells)
        assert (counts == children).all()
        vol = np.zeros(coarse.n_cells)
        np.add.at(vol, parents, fine.volumes)
        np.testing.assert_allclose(vol, coarse.volumes, rtol=1e-12)

    def test_cell_parents_across_two_levels(self):
        coarse = unit_square_mesh(4)
        fine = unit_square_mesh(16)
        parents = cell_parents(coarse, fine)
        assert (np.bincount(parents) == 16).all()


class TestEvalP1:
    def test_reproduces_nodal_values(self):
        rng = np.random.default_rng(11)
        mesh = unit_square_mesh(5)
        full = rng.standard_normal(mesh.n_vertices)
        np.testing.assert_allclose(eval_p1(mesh, full, mesh.vertices), full,
                                   atol=1e-12)

    def test_linear_function_exact(self):
        mesh = unit_cube_mesh(3)
        full = 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 2] + 0.25
        pts = np.random.default_rng(1).random((50, 3))
        expect = 2.0 * pts[:, 0] - pts[:, 2] + 0.25
        np.testing.assert_allclose(eval_p1(mesh, full, pts), expect,
                                   atol=1e-12)


class TestMeshIO:
    def test_structured_roundtrip(self, tmp_path):
        mesh = unit_square_mesh(4)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert back.cells_per_side == 4
        np.testing.assert_allclose(back.vertices, mesh.vertices)
        np.testing.assert_array_equal(back.cells, mesh.cells)

    def test_structured_roundtrip_3d(self, tmp_path):
        mesh = unit_cube_mesh(3)
        path = tmp_path / "mesh3.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert back.cells_per_side == 3
        np.testing.assert_array_equal(back.cells, mesh.cells)

    def test_generic_mesh_readback(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("2 4 2\n0 0\n1 0\n0 1\n1 1\n0 1 2\n1 3 2\n")
        mesh = read_mesh(path)
        assert mesh.cells_per_side is None
        assert mesh.n_cells == 2
        assert mesh.volumes.sum() == pytest.approx(1.0)

    def test_degenerate_cell_rejected(self, tmp_path):
        # cell 2 has collinear vertices: reported by index, not as NaN
        # matrices later on
        path = tmp_path / "flat.txt"
        path.write_text("2 5 3\n0 0\n1 0\n0 1\n1 1\n0.5 0.5\n"
                        "0 1 3\n0 3 2\n0 4 3\n")
        with pytest.raises(ValueError, match="cell 2 "):
            read_mesh(path)

    def test_header_line(self, tmp_path):
        mesh = unit_cube_mesh(2)
        path = tmp_path / "mesh3.txt"
        write_mesh(mesh, path)
        header = path.read_text().splitlines()[0]
        assert header == "3 27 48"

    @pytest.mark.parametrize("text", [
        "4 5 1\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n0 1 2 3 4\n",
        "1 2 1\n0\n1\n0 1\n"], ids=["dim4", "dim1"])
    def test_unsupported_dimension_rejected(self, tmp_path, text):
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="dimension must be 2 or 3"):
            read_mesh(path)

    def test_cell_naming_a_missing_vertex_rejected(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("2 3 2\n0 0\n1 0\n0 1\n0 1 2\n0 1 7\n")
        with pytest.raises(ValueError, match="cell 1 "):
            read_mesh(path)
