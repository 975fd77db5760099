import itertools

import numpy as np
import pytest

from eddymh.mesh import (
    _boundary_info,
    _edge_incidence,
    build_box_mesh,
    gradient_incidence,
    nested_dissection,
)


def edge_set_oracle(tets):
    # independent pair extraction: all sorted vertex pairs over all tets
    pairs = set()
    for tet in tets:
        t = sorted(int(v) for v in tet)
        for a in range(4):
            for b in range(a + 1, 4):
                pairs.add((t[a], t[b]))
    return pairs


def test_unit_cube_n1_counts():
    mesh = build_box_mesh(1)
    assert mesh.num_vertices == 8
    assert mesh.num_tets == 6
    assert mesh.num_edges == 19
    assert len(mesh.boundary_edges) == 18
    # the single interior edge is the body diagonal (0,0,0)-(1,1,1)
    free = np.setdiff1d(np.arange(19), mesh.boundary_edges)
    assert free.shape == (1,)
    np.testing.assert_array_equal(mesh.edges[free[0]], [0, 7])


def test_unit_cube_n1_enumeration_oracle():
    # Kuhn subdivision: six tets, each the hull of a lattice path 0 -> 7
    mesh = build_box_mesh(1)

    def vid(i, j, k):
        return (i * 2 + j) * 2 + k

    paths = []
    for perm in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        c = [0, 0, 0]
        path = [vid(*c)]
        for axis in perm:
            c[axis] += 1
            path.append(vid(*c))
        paths.append(frozenset(path))
    assert set(frozenset(t) for t in mesh.tets.tolist()) == set(paths)


def kuhn_tets_loop(n):
    # the subcube-by-subcube loop build_box_mesh used before it was
    # vectorized, kept as the reference for the tet order
    m = n + 1

    def vid(i, j, k):
        return (i * m + j) * m + k

    perms = list(itertools.permutations(range(3)))
    tets = np.empty((6 * n**3, 4), dtype=np.int64)
    t = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for p in perms:
                    corners = [base.copy()]
                    c = base.copy()
                    for axis in p:
                        c = c.copy()
                        c[axis] += 1
                        corners.append(c)
                    ids = [vid(*c) for c in corners]
                    inversions = sum(
                        p[a] > p[b] for a in range(3) for b in range(a + 1, 3)
                    )
                    if inversions % 2 == 1:
                        ids[2], ids[3] = ids[3], ids[2]
                    tets[t] = ids
                    t += 1
    return tets


@pytest.mark.parametrize("box", [(1.0, 1.0, 1.0), (0.5, 2.0, 3.0)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tets_match_the_loop_oracle(n, box):
    tets = build_box_mesh(n, box).tets
    want = kuhn_tets_loop(n)
    assert tets.dtype == want.dtype
    np.testing.assert_array_equal(tets, want)


@pytest.mark.parametrize(
    "n,edges,free,interior",
    [(1, 19, 1, 0), (2, 98, 26, 1), (3, 279, 117, 8), (4, 604, 316, 27)],
)
def test_frozen_counts(n, edges, free, interior):
    mesh = build_box_mesh(n)
    assert mesh.num_vertices == (n + 1) ** 3
    assert mesh.num_tets == 6 * n**3
    assert mesh.num_edges == edges
    assert mesh.num_edges - len(mesh.boundary_edges) == free
    assert len(mesh.interior_nodes()) == interior


def test_edge_set_matches_pair_extraction_oracle():
    mesh = build_box_mesh(2)
    assert mesh.num_vertices == 27
    assert mesh.num_tets == 48
    got = set(map(tuple, mesh.edges.tolist()))
    assert got == edge_set_oracle(mesh.tets)


@pytest.mark.parametrize("n,box", [(1, (1, 1, 1)), (2, (1, 1, 1)), (2, (0.5, 2.0, 3.0))])
def test_volumes_positive_and_sum(n, box):
    mesh = build_box_mesh(n, box)
    v = mesh.vertices[mesh.tets]
    vols = np.linalg.det(v[:, 1:] - v[:, :1]) / 6.0
    assert np.all(vols > 0.0)
    assert vols.sum() == pytest.approx(np.prod(box), rel=1e-12)


def test_refinement_multiplies_tets_by_8():
    for n in (1, 2):
        assert build_box_mesh(2 * n).num_tets == 8 * build_box_mesh(n).num_tets


def test_orientation_signs():
    mesh = build_box_mesh(2)
    # sign is +1 exactly when the local edge already runs lower -> higher
    from eddymh.mesh import LOCAL_EDGES

    pairs = mesh.tets[:, LOCAL_EDGES]
    expect = np.where(pairs[:, :, 0] < pairs[:, :, 1], 1, -1)
    np.testing.assert_array_equal(mesh.tet_edge_signs, expect)
    # and the signed pair always reproduces the stored global edge
    a = np.where(mesh.tet_edge_signs == 1, pairs[:, :, 0], pairs[:, :, 1])
    b = np.where(mesh.tet_edge_signs == 1, pairs[:, :, 1], pairs[:, :, 0])
    np.testing.assert_array_equal(a, mesh.edges[mesh.tet_edges][:, :, 0])
    np.testing.assert_array_equal(b, mesh.edges[mesh.tet_edges][:, :, 1])


def test_boundary_independent_of_tet_order():
    mesh = build_box_mesh(2)
    rng = np.random.default_rng(7)
    perm = rng.permutation(mesh.num_tets)
    edges, _, _ = _edge_incidence(mesh.tets, mesh.num_vertices)
    be, bn = _boundary_info(mesh.tets, edges, mesh.num_vertices)
    edges2, _, _ = _edge_incidence(mesh.tets[perm], mesh.num_vertices)
    be2, bn2 = _boundary_info(mesh.tets[perm], edges2, mesh.num_vertices)
    np.testing.assert_array_equal(edges2, edges)
    np.testing.assert_array_equal(be2, be)
    np.testing.assert_array_equal(bn2, bn)
    np.testing.assert_array_equal(bn2, mesh.boundary_nodes)
    # the mesh holds the same edges and boundary edges in its own numbering
    key = {pair: e for e, pair in enumerate(map(tuple, mesh.edges.tolist()))}
    assert sorted(key) == list(map(tuple, edges.tolist()))
    np.testing.assert_array_equal(
        np.sort([key[tuple(pair)] for pair in edges[be].tolist()]), mesh.boundary_edges
    )


@pytest.mark.parametrize(
    "n, box", [(1, (1, 1, 1)), (2, (1, 1, 1)), (5, (1, 1, 1)), (8, (1, 1, 1)), (3, (0.5, 2, 3))]
)
def test_boundary_matches_unique_face_rows(n, box):
    # the boundary faces as the unique rows of the sorted face array seen
    # once, the computation the 1-D face keys replace
    mesh = build_box_mesh(n, box)
    faces = np.sort(mesh.tets[:, list(itertools.combinations(range(4), 3))], axis=2)
    unique_faces, counts = np.unique(faces.reshape(-1, 3), axis=0, return_counts=True)
    bfaces = unique_faces[counts == 1]
    pairs = {pair for face in bfaces.tolist() for pair in itertools.combinations(face, 2)}
    edges = [e for e, pair in enumerate(map(tuple, mesh.edges.tolist())) if pair in pairs]
    np.testing.assert_array_equal(mesh.boundary_edges, edges)
    np.testing.assert_array_equal(mesh.boundary_nodes, np.unique(bfaces))


@pytest.mark.parametrize("n", [2, 5, 8])
def test_edges_are_numbered_in_dissection_order(n):
    # the mesh's edge numbering is the fixed point of the dissection of its
    # edges, so every edge matrix arrives in a fill-reducing order
    mesh = build_box_mesh(n, (0.5, 2.0, 3.0))
    midpoints = mesh.vertices[mesh.edges].mean(axis=1)
    edges = np.arange(mesh.num_edges)
    np.testing.assert_array_equal(nested_dissection(edges, midpoints, mesh.tet_edges), edges)


def test_gradient_incidence_oracle():
    mesh = build_box_mesh(2)
    G = gradient_incidence(mesh)
    psi = mesh.vertices[:, 0].copy()
    g = G @ psi
    # per-edge recomputation: endpoint x-difference
    expect = psi[mesh.edges[:, 1]] - psi[mesh.edges[:, 0]]
    np.testing.assert_allclose(g, expect, rtol=0, atol=0)
    np.testing.assert_array_equal(G @ np.ones(mesh.num_vertices), 0.0)
    Gi = gradient_incidence(mesh)[:, mesh.interior_nodes()]
    assert Gi.shape == (mesh.num_edges, 1)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_box_mesh(0)
    with pytest.raises(ValueError):
        build_box_mesh(1, (1.0, -1.0, 1.0))


def test_nested_dissection_numbers_each_separator_after_its_halves():
    # a path of 200 items on a line: the cut at the median leaves item 99
    # (the left of the two one-item layers) as the first separator, so it
    # comes last, after the halves 0..98 and 100..199, which are cut at
    # items 48 and 149 in turn
    points = np.column_stack([np.arange(200.0), np.zeros(200), np.zeros(200)])
    cells = np.column_stack([np.arange(199), np.arange(1, 200)])
    order = nested_dissection(np.arange(200), points, cells)
    np.testing.assert_array_equal(np.sort(order), np.arange(200))
    assert order[-1] == 99
    position = np.argsort(order)
    assert position[:99].max() < position[100:].min()
    for first, separator, last in ((0, 48, 98), (100, 149, 199)):
        assert position[separator] == position[first : last + 1].max()


def test_nested_dissection_of_degenerate_parts():
    # no items; and more than a leaf of coincident points, numbered as given
    cells = np.column_stack([np.arange(99), np.arange(1, 100)])
    assert nested_dissection(np.arange(0), np.zeros((100, 3)), cells).size == 0
    order = nested_dissection(np.arange(100), np.zeros((100, 3)), cells)
    np.testing.assert_array_equal(order, np.arange(100))
