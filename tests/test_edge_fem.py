import gc
import weakref

import numpy as np
import pytest
from scipy import linalg

from eddymh.edge_fem import (
    Coefficients,
    DofMap,
    assemble,
    assemble_cross,
    assemble_curl_load,
    assemble_load,
    basis_data,
    fe_curls,
    fe_values,
    interpolate_tangential,
)
from eddymh.mesh import LOCAL_EDGES, build_box_mesh, gradient_incidence
from eddymh.quadrature import TET_P5_BARY, TET_P5_WEIGHTS, conical_tet_rule
from fem_oracles import difference_norms, element_matrices, field_norms, whitney_values

REF_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def whitney_oracle(verts, n=4):
    """Independent evaluation of the local matrices via barycentric solves."""
    pts, wts = conical_tet_rule(n)
    J = verts[1:] - verts[0]
    phys = verts[0] + pts @ J
    detJ = abs(np.linalg.det(J))
    A = np.vstack([np.ones(4), verts.T])  # lam solves A lam = (1, x)
    Ainv = np.linalg.inv(A)
    grads = Ainv[:, 1:]
    lam = Ainv @ np.vstack([np.ones(len(phys)), phys.T])  # (4, m)
    ea, eb = LOCAL_EDGES[:, 0], LOCAL_EDGES[:, 1]
    phi = lam[ea].T[:, :, None] * grads[None, eb] - lam[eb].T[:, :, None] * grads[None, ea]
    mass = detJ * np.einsum("q,qei,qfi->ef", wts, phi, phi)
    curls = 2.0 * np.cross(grads[ea], grads[eb])
    stiff = (detJ / 6.0) * (curls @ curls.T)
    return mass, stiff


def test_element_matrices_reference_tet_oracle():
    mass, wmass, stiff = element_matrices(REF_TET, sigma=1.0, nu=1.0)
    mass_o, stiff_o = whitney_oracle(REF_TET)
    np.testing.assert_allclose(mass, mass_o, atol=1e-12)
    np.testing.assert_allclose(stiff, stiff_o, atol=1e-12)
    np.testing.assert_allclose(wmass, mass, atol=0)


def test_element_matrices_scaled_and_skewed_tet():
    rng = np.random.default_rng(3)
    for _ in range(5):
        verts = REF_TET * 2.0 + rng.normal(scale=0.25, size=(4, 3))
        mass, wmass, stiff = element_matrices(verts, sigma=1.5, nu=0.7)
        mass_o, stiff_o = whitney_oracle(verts)
        np.testing.assert_allclose(mass, mass_o, atol=1e-12 * abs(mass_o).max())
        np.testing.assert_allclose(stiff, 0.7 * stiff_o, atol=1e-12 * abs(stiff_o).max())
        np.testing.assert_allclose(wmass, 1.5 * mass, rtol=1e-15)


def test_element_stiffness_rank_and_gradient_kernel():
    rng = np.random.default_rng(11)
    verts = REF_TET + rng.normal(scale=0.1, size=(4, 3))
    _, _, stiff = element_matrices(verts)
    assert np.linalg.matrix_rank(stiff, tol=1e-10) <= 3
    # local gradient pattern of a nodal function lies in the kernel
    psi = rng.normal(size=4)
    g = psi[LOCAL_EDGES[:, 1]] - psi[LOCAL_EDGES[:, 0]]
    np.testing.assert_allclose(stiff @ g, 0.0, atol=1e-12)


def test_element_degenerate_tet_raises():
    flat = REF_TET.copy()
    flat[3] = [0.5, 0.5, 0.0]  # coplanar
    with pytest.raises(ValueError):
        element_matrices(flat)


def test_assemble_unconstrained_n1():
    mesh = build_box_mesh(1)
    coeffs = Coefficients.constant(mesh)
    M = assemble(mesh, coeffs, "mass")
    K = assemble(mesh, coeffs, "stiffness")
    assert M.shape[0] == 19 and K.shape[0] == 19
    evals = linalg.eigvalsh(M.toarray())
    assert evals.min() > 0.0
    # structural symmetry is exact
    assert np.array_equal(M.toarray(), M.toarray().T)
    assert np.array_equal(K.toarray(), K.toarray().T)
    # kernel of K = discrete gradients: dimension = vertices - 1
    kdim = int(np.sum(linalg.eigvalsh(K.toarray()) < 1e-10))
    assert kdim == mesh.num_vertices - 1


def test_weighted_mass_scales_linearly():
    mesh = build_box_mesh(2)
    c1 = Coefficients.constant(mesh, sigma=1.0)
    c2 = Coefficients.constant(mesh, sigma=2.0)
    M = assemble(mesh, c1, "weighted_mass")
    M2 = assemble(mesh, c2, "weighted_mass")
    np.testing.assert_allclose(M2.toarray(), 2.0 * M.toarray(), rtol=1e-15)


def test_stiffness_annihilates_gradients_on_free_dofs():
    mesh = build_box_mesh(2)
    dof = DofMap.from_mesh(mesh)
    K = assemble(mesh, Coefficients.constant(mesh), "stiffness", dof)
    G = gradient_incidence(mesh)[:, mesh.interior_nodes()]
    Gf = G.toarray()[dof.free]
    rng = np.random.default_rng(5)
    for _ in range(5):
        psi = rng.normal(size=Gf.shape[1])
        g = Gf @ psi
        resid = K @ g
        assert np.abs(resid).max() <= 1e-11 * max(np.abs(g).max(), 1e-30)


def test_load_vector_against_refined_quadrature_oracle():
    mesh = build_box_mesh(2)
    dof = DofMap.from_mesh(mesh)
    f = lambda p: np.stack([np.zeros(len(p)), np.zeros(len(p)), np.ones(len(p))], axis=1)
    L = assemble_load(mesh, dof, f)
    # oracle: degree-9 rule per tet, independent basis path
    pts9, wts9 = conical_tet_rule(5)
    full = np.zeros(mesh.num_edges)
    for t in range(mesh.num_tets):
        verts = mesh.vertices[mesh.tets[t]]
        J = verts[1:] - verts[0]
        detJ = abs(np.linalg.det(J))
        A = np.vstack([np.ones(4), verts.T])
        Ainv = np.linalg.inv(A)
        grads = Ainv[:, 1:]
        phys = verts[0] + pts9 @ J
        lam = Ainv @ np.vstack([np.ones(len(phys)), phys.T])
        ea, eb = LOCAL_EDGES[:, 0], LOCAL_EDGES[:, 1]
        phi = lam[ea].T[:, :, None] * grads[None, eb] - lam[eb].T[:, :, None] * grads[None, ea]
        fv = f(phys)
        loc = detJ * np.einsum("q,qi,qei->e", wts9, fv, phi)
        loc *= mesh.tet_edge_signs[t]
        np.add.at(full, mesh.tet_edges[t], loc)
    np.testing.assert_allclose(L, full[dof.free], atol=1e-10)


def test_zero_load():
    mesh = build_box_mesh(1)
    dof = DofMap.from_mesh(mesh)
    f = lambda p: np.zeros((len(p), 3))
    np.testing.assert_array_equal(assemble_load(mesh, dof, f), 0.0)


def test_gradient_load_pairing():
    # f = grad(x y z) is curl-free; load against curls must vanish,
    # plain load must match the weighted pairing computed from matrices
    mesh = build_box_mesh(2)
    dof = DofMap.from_mesh(mesh)
    f = lambda p: np.stack([p[:, 1] * p[:, 2], p[:, 0] * p[:, 2], p[:, 0] * p[:, 1]], axis=1)
    points = basis_data(mesh).points
    values = f(points.reshape(-1, 3)).reshape(points.shape)
    Lc = assemble_curl_load(mesh, 6.0 * np.einsum("q,tqi->ti", TET_P5_WEIGHTS, values))
    np.testing.assert_allclose(Lc[dof.free], 0.0, atol=1e-13)


def test_patch_test_constant_field():
    mesh = build_box_mesh(2, (1.0, 0.7, 1.3))
    c = np.array([0.3, -1.2, 0.8])
    coef = interpolate_tangential(mesh, lambda p: np.tile(c, (len(p), 1)))
    # DOF of a constant equals c . (v_b - v_a)
    expect = (mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]) @ c
    np.testing.assert_allclose(coef, expect, atol=1e-14)
    vals = fe_values(mesh, coef)
    np.testing.assert_allclose(vals, np.broadcast_to(c, vals.shape), atol=1e-12)
    np.testing.assert_allclose(fe_curls(mesh, coef), 0.0, atol=1e-12)


def test_tangential_interpolation_of_gradient():
    mesh = build_box_mesh(2)
    psi = lambda p: p[:, 0] ** 2 + p[:, 1] * p[:, 2]
    grad = lambda p: np.stack([2 * p[:, 0], p[:, 2], p[:, 1]], axis=1)
    coef = interpolate_tangential(mesh, grad)
    expect = psi(mesh.vertices[mesh.edges[:, 1]]) - psi(mesh.vertices[mesh.edges[:, 0]])
    np.testing.assert_allclose(coef, expect, atol=1e-13)


def test_field_norms_discrete_identity():
    mesh = build_box_mesh(2)
    rng = np.random.default_rng(2)
    v = rng.normal(size=mesh.num_edges)
    coeffs = Coefficients.constant(mesh)
    M = assemble(mesh, coeffs, "mass")
    K = assemble(mesh, coeffs, "stiffness")
    n2, c2 = field_norms(mesh, v)
    assert n2 == pytest.approx(v @ (M @ v), rel=1e-12)
    assert c2 == pytest.approx(v @ (K @ v), rel=1e-12)
    # gradient fields have zero curl seminorm
    G = gradient_incidence(mesh)
    psi = rng.normal(size=mesh.num_vertices)
    _, csq = field_norms(mesh, np.asarray(G @ psi))
    assert csq == pytest.approx(0.0, abs=1e-13)


def test_field_norms_analytic():
    mesh = build_box_mesh(3)
    f = lambda p: np.stack(
        [np.zeros(len(p)), np.zeros(len(p)), np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])],
        axis=1,
    )
    n2, c2 = field_norms(mesh, f)
    assert c2 is None
    assert n2 == pytest.approx(0.25, abs=1e-8)


def test_difference_norms_consistency():
    # a + b x x lies in the lowest-order edge space, so the interpolated
    # field matches it exactly and the difference vanishes
    mesh = build_box_mesh(2)
    a = np.array([0.2, -0.1, 0.5])
    b = np.array([0.3, 0.7, -0.2])
    f = lambda p: a + np.cross(np.broadcast_to(b, p.shape), p)
    curl_f = lambda p: np.broadcast_to(2.0 * b, p.shape).copy()
    coef = interpolate_tangential(mesh, f)
    n2, c2 = difference_norms(mesh, coef, f, curl_f)
    assert n2 == pytest.approx(0.0, abs=1e-13)
    assert c2 == pytest.approx(0.0, abs=1e-13)


def test_cross_pairing_oracle():
    mesh = build_box_mesh(1)
    C = assemble_cross(mesh, 1.0)
    rng = np.random.default_rng(8)
    u = rng.normal(size=mesh.num_edges)
    v = rng.normal(size=mesh.num_edges)
    # u^T C v = int FE(u) . curl FE(v): recompute from point values
    vals_u = fe_values(mesh, u)
    bd = basis_data(mesh)
    cu = fe_curls(mesh, v)[:, None, :]
    dots = np.einsum("tqi,tqi->tq", vals_u, np.broadcast_to(cu, vals_u.shape))
    expect = float((6.0 * bd.vols * (dots @ TET_P5_WEIGHTS)).sum())
    assert u @ (C @ v) == pytest.approx(expect, rel=1e-12)


def test_kernels_match_vertex_only_oracles():
    # every kernel on the barycentric vectors against basis values built
    # per tet from its vertices, on a non-cubic box with per-tet data
    mesh = build_box_mesh(2, (1.0, 0.7, 1.3))
    rng = np.random.default_rng(13)
    nt, ne = mesh.num_tets, mesh.num_edges
    coeffs = Coefficients(rng.uniform(0.5, 2.0, nt), rng.uniform(0.5, 2.0, nt))
    weight = rng.uniform(0.5, 2.0, nt)
    f = lambda p: np.stack(
        [np.sin(p[:, 1]) * p[:, 2], np.exp(p[:, 0]) * p[:, 1], np.cos(p[:, 0] + p[:, 2])],
        axis=1,
    )
    coef = rng.normal(size=ne)
    centroid = np.full((1, 4), 0.25)
    matrices = {key: np.zeros((ne, ne)) for key in ("mass", "weighted_mass", "stiffness")}
    cross, load = np.zeros((ne, ne)), np.zeros(ne)
    values = np.zeros((nt, TET_P5_BARY.shape[0], 3))
    for t in range(nt):
        verts = mesh.vertices[mesh.tets[t]]
        edges, s = mesh.tet_edges[t], mesh.tet_edge_signs[t]
        local = element_matrices(verts, coeffs.sigma[t], coeffs.nu[t])
        for key, m in zip(matrices, local):
            matrices[key][np.ix_(edges, edges)] += np.outer(s, s) * m
        vol, phi, curls = whitney_values(verts, np.vstack([centroid, TET_P5_BARY]))
        phi = phi * s[None, :, None]
        cross[np.ix_(edges, edges)] += weight[t] * vol * phi[0] @ (curls * s[:, None]).T
        F = f(TET_P5_BARY @ verts)
        load[edges] += 6.0 * vol * np.einsum("q,qi,qei->e", TET_P5_WEIGHTS, F, phi[1:])
        values[t] = np.einsum("qei,e->qi", phi[1:], coef[edges])
    for key, expect in matrices.items():
        got = assemble(mesh, coeffs, key).toarray()
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * abs(expect).max())
    got = assemble_cross(mesh, weight).toarray()
    np.testing.assert_allclose(got, cross, rtol=0, atol=1e-12 * abs(cross).max())
    got = assemble_load(mesh, None, f)
    np.testing.assert_allclose(got, load, rtol=0, atol=1e-12 * abs(load).max())
    got = fe_values(mesh, coef)
    np.testing.assert_allclose(got, values, rtol=0, atol=1e-12 * abs(values).max())


def test_basis_data_dies_with_its_mesh():

    mesh = build_box_mesh(2)
    assert basis_data(mesh) is basis_data(mesh)
    alive = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert alive() is None


def test_dofmap_roundtrip():
    mesh = build_box_mesh(2)
    dof = DofMap.from_mesh(mesh)
    assert dof.free.size == 26
    assert np.all(dof.index[mesh.boundary_edges] == -1)
    np.testing.assert_array_equal(dof.index[dof.free], np.arange(26))
    v = np.arange(26, dtype=float)
    np.testing.assert_array_equal(dof.extend(v)[dof.free], v)


def test_coefficients_validation():
    mesh = build_box_mesh(1)
    with pytest.raises(ValueError):
        Coefficients.constant(mesh, sigma=-1.0)
    c = Coefficients.constant(mesh, sigma=2.0, nu=0.5)
    np.testing.assert_array_equal(c.sigma, 2.0)
    np.testing.assert_array_equal(c.nu, 0.5)
