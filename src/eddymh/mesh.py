"""Structured tetrahedral meshes of box domains with edge incidence data.

Boxes are subdivided into ``n**3`` subcubes, each split into six tetrahedra
sharing the subcube's main diagonal (Kuhn subdivision).  All faces between
neighbouring subcubes match, so the mesh is conforming by construction and
no geometric tolerances enter anywhere.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

# local edges of a tet, lexicographic in the local vertex numbers
LOCAL_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_LOCAL_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])

# largest part that nested_dissection leaves undivided
DISSECTION_LEAF = 64


@dataclass(eq=False)
class TetMesh:
    """Tetrahedral mesh with precomputed edge and boundary incidence.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 3)
    tets : ndarray, shape (nt, 4)
        Vertex indices, ordered so every tet has positive signed volume.
    edges : ndarray, shape (ne, 2)
        Global edges as vertex pairs (a, b) with a < b, numbered in nested
        dissection order (``nested_dissection`` of the edge midpoints,
        edges coupled within a tet), so every edge matrix is assembled in
        the fill-reducing order of its factors.
    tet_edges : ndarray, shape (nt, 6)
        Global edge index of each local edge (local pairs ``LOCAL_EDGES``).
    tet_edge_signs : ndarray, shape (nt, 6)
        +1 where the local edge runs from lower to higher global vertex
        index, -1 otherwise.
    boundary_edges : ndarray
        Sorted indices of edges lying on a boundary face.
    boundary_nodes : ndarray
        Sorted indices of vertices lying on a boundary face.
    """

    vertices: np.ndarray
    tets: np.ndarray
    edges: np.ndarray
    tet_edges: np.ndarray
    tet_edge_signs: np.ndarray
    boundary_edges: np.ndarray
    boundary_nodes: np.ndarray

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_tets(self):
        return self.tets.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def interior_nodes(self):
        return np.setdiff1d(np.arange(self.num_vertices), self.boundary_nodes)


def _edge_incidence(tets, num_vertices):
    """Extract global edges and the per-tet (edge index, sign) tables."""
    pairs = tets[:, LOCAL_EDGES]  # (nt, 6, 2)
    lo = pairs.min(axis=2)
    hi = pairs.max(axis=2)
    signs = np.where(pairs[:, :, 0] < pairs[:, :, 1], 1, -1).astype(np.int8)
    keys = lo.astype(np.int64) * num_vertices + hi
    unique_keys, inverse = np.unique(keys.ravel(), return_inverse=True)
    tet_edges = inverse.reshape(tets.shape[0], 6).astype(np.int64)
    edges = np.column_stack(divmod(unique_keys, num_vertices))
    return edges, tet_edges, signs


def _boundary_info(tets, edges, num_vertices):
    """Boundary nodes and edges via face incidence counting.

    A triangular face belonging to exactly one tet is a boundary face; an
    edge is boundary iff it lies on at least one such face.  A sorted face
    (a, b, c) is keyed by r nv + c, with r the rank of a nv + b: unlike
    (a nv + b) nv + c, that key cannot overflow int64.
    """
    faces = np.sort(tets[:, _LOCAL_FACES], axis=2).reshape(-1, 3).astype(np.int64)
    _, rank = np.unique(faces[:, 0] * num_vertices + faces[:, 1], return_inverse=True)
    keys = rank * num_vertices + faces[:, 2]
    _, face, counts = np.unique(keys, return_inverse=True, return_counts=True)
    bfaces = faces[counts[face] == 1]
    boundary_nodes = np.unique(bfaces)
    bkeys = np.unique(bfaces[:, [0, 0, 1]] * num_vertices + bfaces[:, [1, 2, 2]])
    edge_keys = edges[:, 0].astype(np.int64) * num_vertices + edges[:, 1]
    return np.flatnonzero(np.isin(edge_keys, bkeys)), boundary_nodes


def build_box_mesh(n, box=(1.0, 1.0, 1.0)):
    """Mesh the box ``[0, box[0]] x [0, box[1]] x [0, box[2]]``.

    Parameters
    ----------
    n : int
        Subdivisions per axis, at least 1.
    box : sequence of 3 floats
        Strictly positive side lengths.

    Returns
    -------
    TetMesh
        ``(n+1)**3`` vertices and ``6 n**3`` tets.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one subdivision per axis")
    box = np.asarray(box, dtype=float)
    if box.shape != (3,) or np.any(box <= 0.0):
        raise ValueError("box extents must be three positive lengths")

    m = n + 1
    grid = np.stack(
        np.meshgrid(
            np.linspace(0.0, box[0], m),
            np.linspace(0.0, box[1], m),
            np.linspace(0.0, box[2], m),
            indexing="ij",
        ),
        axis=-1,
    )
    vertices = grid.reshape(-1, 3)

    # Kuhn templates: the six monotone lattice paths from a subcube's
    # lowest corner to its highest, one per axis order, as corner offsets
    steps = np.eye(3, dtype=np.int64)
    paths = np.array(
        [
            np.vstack([np.zeros(3, dtype=np.int64), np.cumsum(steps[list(p)], axis=0)])
            for p in itertools.permutations(range(3))
        ]
    )
    # odd permutations give negative volume; swap the last two corners
    odd = np.linalg.det(paths[:, 1:].astype(float)) < 0.0
    paths[odd, 2:] = paths[odd, :1:-1]
    offsets = paths @ np.array([m * m, m, 1])  # (6, 4) vertex id offsets
    i = np.arange(n)
    lowest = ((i[:, None, None] * m + i[None, :, None]) * m + i[None, None, :]).ravel()
    tets = (lowest[:, None, None] + offsets[None]).reshape(-1, 4)

    edges, tet_edges, signs = _edge_incidence(tets, vertices.shape[0])
    order = nested_dissection(np.arange(edges.shape[0]), vertices[edges].mean(axis=1), tet_edges)
    edges, tet_edges = edges[order], np.argsort(order)[tet_edges]
    boundary_edges, boundary_nodes = _boundary_info(tets, edges, vertices.shape[0])
    return TetMesh(
        vertices=vertices,
        tets=tets,
        edges=edges,
        tet_edges=tet_edges,
        tet_edge_signs=signs,
        boundary_edges=boundary_edges,
        boundary_nodes=boundary_nodes,
    )


def nested_dissection(items, points, cells):
    """Fill-reducing symmetric order of the unknowns ``items``.

    ``items`` index the rows of ``points`` (positions, shape (p, 3)); the
    items in one row of ``cells`` (an index table into the same rows:
    ``tet_edges`` for edges, ``edges`` for nodes) are coupled.  Each part
    is split along its longest coordinate axis at its median position.
    Of the two layers of items coupled across that cut, the smaller is the
    part's separator and is numbered after both halves, which are dissected
    in turn down to DISSECTION_LEAF items.  A matrix with that coupling
    pattern, permuted into the returned order, factors with little fill in
    its natural order.  Every level of the dissection tree is one pass of
    array operations over all its parts.
    """
    items = np.asarray(items)
    index = np.full(points.shape[0], -1, dtype=np.int64)
    index[items] = np.arange(items.size)
    x = points[items]
    local = index[cells]  # -1 (no item) reads the spare last slot of the arrays below
    part = np.zeros(items.size, dtype=np.int64)  # -1 once numbered
    levels = []  # per level and item: 0, 1 for the halves, 2 for the separator
    while True:
        live = np.flatnonzero(part >= 0)
        leaf = np.bincount(part[live])[part[live]] <= DISSECTION_LEAF
        part[live[leaf]] = -1
        live = live[~leaf]
        if live.size == 0:
            break
        live = live[np.argsort(part[live], kind="stable")]
        first = np.diff(part[live], prepend=-1) != 0
        starts, seg = np.flatnonzero(first), np.cumsum(first) - 1
        xs = x[live]
        extent = np.maximum.reduceat(xs, starts) - np.minimum.reduceat(xs, starts)
        t = xs[np.arange(live.size), np.argmax(extent, axis=1)[seg]]
        middle = starts + np.diff(np.append(starts, live.size)) // 2
        median = t[np.lexsort((t, seg))[middle]][seg]
        right = t >= median
        # a part whose median is its least value splits just above it
        low = (np.bincount(seg[~right], minlength=starts.size) == 0)[seg]
        right[low] = t[low] > median[low]
        # A cell holding live items of both sides (counted as 1 and 8) is
        # cut, and each of its live items lies in a layer: live items of
        # two parts never share a cell, since a separator takes a whole
        # layer.
        weight = np.zeros(items.size + 1, dtype=np.int8)
        weight[live] = np.where(right, 8, 1)
        held = sum(weight[column] for column in local.T)
        cut = (held % 8 > 0) & (held >= 8)
        layer = np.zeros(items.size + 1, dtype=bool)
        layer[local[cut]] = True
        layer = layer[live]
        sizes = np.bincount(2 * seg[layer] + right[layer], minlength=2 * starts.size)
        smaller = (sizes[1::2] < sizes[::2])[seg]  # the right layer is smaller
        # a part all on one side (its points coincide) is numbered whole
        whole = (np.bincount(seg[right], minlength=starts.size) == 0)[seg]
        separator = (layer & (right == smaller)) | whole
        level = np.zeros(items.size, dtype=np.int8)
        level[live] = np.where(separator, 2, right)
        levels.append(level)
        part[live] = np.where(separator, -1, 2 * seg + right)
    # stable: the items of a leaf or a separator keep their given order
    return items[np.lexsort(levels[::-1])] if levels else items


def gradient_incidence(mesh):
    """Node-to-edge incidence map realizing discrete gradients.

    For edge e = (a, b) the map has G[e, b] = +1 and G[e, a] = -1, so that
    (G psi)_e is the tangential edge value of the gradient of the nodal
    function psi.

    Returns
    -------
    scipy.sparse.csr_matrix, shape (num_edges, num_nodes)
    """
    ne = mesh.num_edges
    rows = np.repeat(np.arange(ne), 2)
    cols = mesh.edges.ravel()
    vals = np.tile(np.array([-1.0, 1.0]), ne)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(ne, mesh.num_vertices))
