"""Mesh construction, refinement, transfer operators, and text IO."""

import collections

import numpy as np
import pytest

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
