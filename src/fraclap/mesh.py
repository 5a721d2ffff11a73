"""Structured simplicial meshes of the unit square and unit cube.

Meshes are conforming, quasi-uniform triangulations built on a regular grid
with ``m`` cells per side.  Every grid cell is split by Kuhn's (Freudenthal's)
construction into ``dim!`` simplices around its main diagonal, one per
ordering of the axes: the simplex of a permutation is the vertex path that
steps from the cell's lowest corner along the axes in that order.  In 2D the
two permutations give the two triangles of a fixed (1,1) diagonal; in 3D the
six give the Kuhn tetrahedra.  The split is self-similar under uniform (red)
refinement, so ``refine_uniform`` reproduces the structured mesh at twice
the resolution and nested-grid transfer operators can be computed
arithmetically.

Vertices are ordered lexicographically by coordinate, and so are the interior
degrees of freedom, which makes all derived quantities deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mesh",
    "unit_square_mesh",
    "unit_cube_mesh",
    "refine_uniform",
    "prolongation_matrix",
    "cell_parents",
    "eval_p1",
    "write_mesh",
    "read_mesh",
]

# Kuhn subdivision: simplex #p of a grid cell covers the region where the
# local coordinates sorted in decreasing order follow permutation p (the
# permutations in lexicographic order).
_PERMS = {dim: np.array(list(itertools.permutations(range(dim))))
          for dim in (2, 3)}


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable simplicial mesh of the unit square/cube.

    ``cells_per_side`` is the structured grid resolution ``m``; it is None
    for meshes read back from a text dump whose structure could not be
    recognized (such meshes support assembly and norms but not refinement).
    A structured mesh's refinement level is ``log2(cells_per_side)``.
    """

    dim: int
    cells_per_side: int | None
    vertices: np.ndarray        # (n_vertices, dim)
    cells: np.ndarray           # (n_cells, dim + 1), vertex indices
    boundary: np.ndarray        # (n_vertices,) bool
    interior: np.ndarray        # interior vertex indices, lexicographic
    dof_index: np.ndarray       # (n_vertices,) dof number or -1 on boundary
    volumes: np.ndarray         # (n_cells,)
    h: float                    # length of the longest edge

    def __post_init__(self):
        for arr in (self.vertices, self.cells, self.boundary, self.interior,
                    self.dof_index, self.volumes):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_interior(self) -> int:
        return self.interior.shape[0]

    def __repr__(self):
        return (f"Mesh(dim={self.dim}, m={self.cells_per_side}, "
                f"vertices={self.n_vertices}, cells={self.n_cells}, "
                f"h={self.h:.4g})")


def _grid_vertices(m: int, dim: int) -> np.ndarray:
    """Vertices of the (m+1)^dim lattice, lexicographic by coordinate."""
    axes = [np.arange(m + 1, dtype=float) / m] * dim
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


def _digits(base: int, dim: int) -> np.ndarray:
    """Place values of a ``dim``-digit number in ``base``, most significant
    first: the weights of a lexicographic numbering."""
    return base ** np.arange(dim - 1, -1, -1, dtype=np.int64)


def _boundary_dofs(vertices: np.ndarray):
    """``(boundary, interior, dof_index)`` of the vertices on the faces of
    their bounding box; interior vertices are numbered in their own order."""
    boundary = np.zeros(vertices.shape[0], dtype=bool)
    for d in range(vertices.shape[1]):
        boundary |= np.isclose(vertices[:, d], vertices[:, d].min())
        boundary |= np.isclose(vertices[:, d], vertices[:, d].max())
    interior = np.flatnonzero(~boundary)
    dof_index = np.full(vertices.shape[0], -1, dtype=np.int64)
    dof_index[interior] = np.arange(interior.size)
    return boundary, interior, dof_index


# Cells per chunk of the closed-form geometry loops (volumes here, operator
# assembly in ``fem``): bounds their temporaries to a few dozen MiB whatever
# the mesh size.  A chunk boundary regroups the sums of the entries it
# splits (last-bit changes); 2^17 keeps 2D meshes up to level 8 in one chunk.
_CHUNK_CELLS = 1 << 17


def _cell_chunks(n_cells: int):
    """Consecutive slices of at most ``_CHUNK_CELLS`` cells."""
    step = _CHUNK_CELLS
    return (slice(i, min(i + step, n_cells)) for i in range(0, n_cells, step))


def _cell_geometry(vertices: np.ndarray, cells: np.ndarray,
                   gradients: bool = True):
    """Barycentric gradients and signed volumes of ``cells``, in closed form.

    With edges ``e_k = v_k - v_0`` the gradient of barycentric coordinate
    k >= 1 is the normal of the opposite edges over ``det = d! |T|``: the
    rotated edge in 2D, the cross product ``e_{k+1} x e_{k+2}`` (indices
    cyclic in 1..3) in 3D; ``grad lambda_0`` is minus their sum.  Returns the
    gradients with the cell index last, shape (dim+1, dim, n), or None when
    ``gradients`` is false (the determinant needs one normal only), and the
    signed volumes (positive for counterclockwise / right-handed vertex
    order).
    """
    n, dim = cells.shape[0], vertices.shape[1]
    x = vertices.take(cells.T, axis=0).transpose(2, 0, 1)   # (dim, dim+1, n)
    e = np.empty((dim, dim, n))               # e[i, k]: component i of edge k
    np.subtract(x[:, 1:], x[:, :1], out=e)
    normals = np.empty((dim, dim, n))
    if dim == 2:
        normals[0] = e[1, 1], -e[0, 1]
        normals[1] = -e[1, 0], e[0, 0]
    else:
        for k in range(3 if gradients else 1):    # e_{k+1} x e_{k+2}
            a, b = e[:, (k + 1) % 3], e[:, (k + 2) % 3]
            for i in range(3):
                j, l = (i + 1) % 3, (i + 2) % 3
                np.subtract(a[j] * b[l], a[l] * b[j], out=normals[k, i])
    det = (e[:, 0] * normals[0]).sum(axis=0)
    volumes = det / math.factorial(dim)
    if not gradients:
        return None, volumes
    grads = np.empty((dim + 1, dim, n))
    np.divide(normals, det, out=grads[1:])
    np.negative(grads[1:].sum(axis=0), out=grads[0])
    return grads, volumes


def _signed_volumes(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    volumes = np.empty(cells.shape[0])
    for chunk in _cell_chunks(cells.shape[0]):
        volumes[chunk] = _cell_geometry(vertices, cells[chunk],
                                        gradients=False)[1]
    return volumes


def _grid_mesh(dim: int, cells_per_side: int) -> Mesh:
    """Kuhn mesh of (0,1)^dim: the grid cells in lexicographic order, each
    split into one simplex per axis permutation."""
    m = int(cells_per_side)
    if m < 1:
        raise ValueError("cells_per_side must be >= 1")
    vertices = _grid_vertices(m, dim)
    strides = _digits(m + 1, dim)
    # vertex id of every cell's lowest corner, lexicographic over the cells
    corner = np.zeros(1, dtype=np.int64)
    for stride in strides:
        corner = (corner[:, None] + np.arange(m) * stride).ravel()
    perms = _PERMS[dim]
    cells = np.empty((m ** dim, len(perms), dim + 1), dtype=np.int64)
    for p_idx, perm in enumerate(perms):
        offsets = np.concatenate([[0], np.cumsum(strides[perm])])
        # odd permutations give negative orientation; swap two vertices
        if sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2:
            offsets[-2:] = offsets[-1], offsets[-2]
        cells[:, p_idx] = corner[:, None] + offsets
    cells = cells.reshape(-1, dim + 1)
    boundary, interior, dof_index = _boundary_dofs(vertices)
    return Mesh(dim=dim, cells_per_side=m, vertices=vertices, cells=cells,
                boundary=boundary, interior=interior, dof_index=dof_index,
                volumes=_signed_volumes(vertices, cells),
                h=float(np.sqrt(dim) / m))


def unit_square_mesh(cells_per_side: int) -> Mesh:
    """Right-triangle mesh of (0,1)^2, one fixed diagonal per grid square."""
    return _grid_mesh(2, cells_per_side)


def unit_cube_mesh(cells_per_side: int) -> Mesh:
    """Kuhn (six tetrahedra per cube) mesh of (0,1)^3."""
    return _grid_mesh(3, cells_per_side)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Bisect every edge: the structured mesh at twice the resolution.

    The Kuhn split is self-similar under red refinement, so the refined mesh
    is rebuilt directly at 2m cells per side; nestedness of the P1 spaces is
    exercised by the transfer operators below.
    """
    if mesh.cells_per_side is None:
        raise ValueError("refinement requires a structured mesh")
    return _grid_mesh(mesh.dim, 2 * mesh.cells_per_side)


def _int_coords(mesh: Mesh) -> np.ndarray:
    """Vertex coordinates as exact integers on the m-grid."""
    return np.rint(mesh.vertices * mesh.cells_per_side).astype(np.int64)


def prolongation_matrix(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """P1 interpolation between nested structured meshes (interior dofs).

    Fine vertices sit either on coarse vertices or on midpoints of coarse
    edges: the parity of the integer fine-grid coordinates identifies which,
    and the offending edge always exists because the Kuhn edge directions
    span every {0,1}^dim offset.
    """
    if coarse.dim != fine.dim:
        raise ValueError("dimension mismatch")
    mc, mf = coarse.cells_per_side, fine.cells_per_side
    if mc is None or mf is None or mf != 2 * mc:
        raise ValueError("prolongation requires fine = refine(coarse)")

    qf = _int_coords(fine)[fine.interior]        # integer coords on 2m grid
    parity = qf % 2
    strides = _digits(mc + 1, coarse.dim)

    rows, cols, vals = [], [], []
    is_vertex = ~parity.any(axis=1)
    # coincident coarse vertices
    vherit = (qf[is_vertex] // 2) @ strides
    cdof = coarse.dof_index[vherit]
    rows.append(np.flatnonzero(is_vertex)[cdof >= 0])
    cols.append(cdof[cdof >= 0])
    vals.append(np.ones(rows[-1].size))
    # edge midpoints
    mid = ~is_vertex
    for end_sign in (-1, +1):
        endpoint = (qf[mid] + end_sign * parity[mid]) // 2
        vids = endpoint @ strides
        cdof = coarse.dof_index[vids]
        keep = cdof >= 0
        rows.append(np.flatnonzero(mid)[keep])
        cols.append(cdof[keep])
        vals.append(np.full(keep.sum(), 0.5))

    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fine.n_interior, coarse.n_interior))
    return P.tocsr()


def _locate_cells_int(mesh: Mesh, num: np.ndarray, denom: int) -> np.ndarray:
    """Cells containing points given as exact fractions num/denom."""
    m, dim = mesh.cells_per_side, mesh.dim
    t = num * m
    idx = np.clip(t // denom, 0, m - 1)
    loc = t - idx * denom                      # local coords, scaled by denom
    # the axes by decreasing local coordinate (ties by axis) are the Kuhn
    # permutation; read as base-dim numbers, the sorted table finds its index
    order = np.argsort(-loc, axis=1, kind="stable")
    digits = _digits(dim, dim)
    perm = np.searchsorted(_PERMS[dim] @ digits, order @ digits)
    return len(_PERMS[dim]) * (idx @ _digits(m, dim)) + perm


def cell_parents(coarse: Mesh, fine: Mesh) -> np.ndarray:
    """For each fine cell, the coarse cell containing it (nested meshes)."""
    mc, mf = coarse.cells_per_side, fine.cells_per_side
    if mc is None or mf is None or mf % mc != 0:
        raise ValueError("cell_parents requires nested structured meshes")
    qf = _int_coords(fine)
    d1 = fine.dim + 1
    centroid_num = qf[fine.cells].sum(axis=1)     # integers over mf * (d+1)
    return _locate_cells_int(coarse, centroid_num, mf * d1)


def _barycentric(mesh: Mesh, cells: np.ndarray, points: np.ndarray):
    """lambda_k = grad lambda_k . (x - v_0) for k >= 1, lambda_0 = 1 - rest."""
    vc = mesh.cells[cells]
    grads = _cell_geometry(mesh.vertices, vc)[0]
    offset = (points - mesh.vertices[vc[:, 0]]).T     # (dim, n)
    lam = np.empty((cells.shape[0], mesh.dim + 1))
    lam[:, 1:] = (grads[1:] * offset).sum(axis=1).T
    lam[:, 0] = 1.0 - lam[:, 1:].sum(axis=1)
    return lam


def eval_p1(mesh: Mesh, vertex_values: np.ndarray,
            points: np.ndarray) -> np.ndarray:
    """Evaluate a P1 function (given by all-vertex values) at points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = mesh.cells_per_side
    if m is None:
        raise ValueError("point evaluation requires a structured mesh")
    # emulate the exact integer location on a fine auxiliary denominator
    denom = 2 ** 20
    num = np.rint(points * denom).astype(np.int64)
    cells = _locate_cells_int(mesh, num, denom)
    lam = _barycentric(mesh, cells, points)
    return np.einsum("pk,pk->p", lam, vertex_values[mesh.cells[cells]])


def write_mesh(mesh: Mesh, path) -> None:
    """Dump a mesh as plain text: header, vertex lines, cell lines."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}\n")
        for v in mesh.vertices:
            fh.write(" ".join(f"{x:.17g}" for x in v) + "\n")
        for c in mesh.cells:
            fh.write(" ".join(str(i) for i in c) + "\n")


def read_mesh(path) -> Mesh:
    """Read a mesh dump; recognizes structured meshes by their vertex grid."""
    with open(path) as fh:
        dim, nv, nc = (int(t) for t in fh.readline().split())
        if dim not in _PERMS:
            raise ValueError(f"mesh dimension must be 2 or 3, got {dim}")
        vertices = np.array([[float(t) for t in fh.readline().split()]
                             for _ in range(nv)])
        cells = np.array([[int(t) for t in fh.readline().split()]
                          for _ in range(nc)], dtype=np.int64)
    if vertices.shape != (nv, dim) or cells.shape != (nc, dim + 1):
        raise ValueError("malformed mesh file")
    bad = np.flatnonzero(((cells < 0) | (cells >= nv)).any(axis=1))
    if bad.size:
        raise ValueError(f"cell {bad[0]} names a vertex outside 0..{nv - 1}")
    per_cell = math.factorial(dim)
    m = round((nc / per_cell) ** (1.0 / dim))
    # structured: the lattice in lexicographic order and the Kuhn cells
    if (nc == per_cell * m ** dim and nv == (m + 1) ** dim
            and np.allclose(vertices, _grid_vertices(m, dim), atol=1e-12)):
        ref = _grid_mesh(dim, m)
        if np.array_equal(ref.cells[np.lexsort(ref.cells.T[::-1])],
                          cells[np.lexsort(cells.T[::-1])]):
            return ref
    boundary, interior, dof_index = _boundary_dofs(vertices)
    volumes = _signed_volumes(vertices, cells)
    edges = vertices[cells[:, 1:]] - vertices[cells[:, :1]]
    lengths = np.sqrt((edges ** 2).sum(axis=2))
    # |det| is at most the product of the edge lengths (Hadamard); a cell
    # whose ratio is at rounding level has no usable gradients
    det = np.abs(volumes) * per_cell
    bad = np.flatnonzero(~(det > 1e-12 * lengths.prod(axis=1)))
    if bad.size:
        raise ValueError(f"cell {bad[0]} is degenerate (zero volume)")
    h = float(lengths.max())
    return Mesh(dim=dim, cells_per_side=None, vertices=vertices, cells=cells,
                boundary=boundary, interior=interior, dof_index=dof_index,
                volumes=np.abs(volumes), h=h)
