import math

import numpy as np
import pytest
from scipy import linalg
from scipy.sparse.linalg import splu

from eddymh import estimator
from eddymh.edge_fem import Coefficients, DofMap, assemble_load
from eddymh.estimator import FluxWorkspace
from eddymh.harmonics import PeriodSpec, friedrichs_constant
from eddymh.mesh import build_box_mesh, gradient_incidence, nested_dissection
from eddymh.systems import (
    SPD_SPLU,
    SystemMatrices,
    build_forward,
    build_forward0,
    build_ocp,
    build_ocp0,
    minres,
    mode_factor,
    reconstruct,
    solve_mode,
)

TWO_PI = 2.0 * math.pi


def setup(n, sigma=1.0, nu=1.0):
    mesh = build_box_mesh(n)
    dof = DofMap.from_mesh(mesh)
    co = Coefficients.constant(mesh, sigma, nu)
    return mesh, dof, SystemMatrices.from_mesh(mesh, co, dof)


def operator_matrix(system):
    dim = system.blocks * system.n
    cols = [system.apply_A(col) for col in np.eye(dim)]
    return np.column_stack(cols)


def dense_forward_unreformulated(k, mats, period):
    kw = k * period.omega
    K = mats.K.toarray()
    Ms = mats.Msigma.toarray()
    return np.block([[K, kw * Ms], [-kw * Ms, K]])


def dense_ocp(k, mats, alpha, period):
    kw = k * period.omega
    K = mats.K.toarray()
    M = mats.M.toarray()
    Ms = mats.Msigma.toarray()
    Z = np.zeros_like(M)
    ia = 1.0 / alpha
    return np.block(
        [
            [M, Z, -K, kw * Ms],
            [Z, M, -kw * Ms, -K],
            [-K, -kw * Ms, -ia * M, Z],
            [kw * Ms, -K, Z, -ia * M],
        ]
    )


def dense_gauge(mats, u0):
    # dense reference of the gauge step: the load's projection onto
    # range(K) and the M_sigma-orthogonal projection off the gradients
    G = mats.G.toarray()
    Ms = mats.Msigma.toarray()
    rhs = u0 - G @ np.linalg.solve(G.T @ G, G.T @ u0)

    def project(y):
        return y - G @ np.linalg.solve(G.T @ Ms @ G, G.T @ (Ms @ y))

    return rhs, project


def divergence_free_load(mesh, dof):
    return assemble_load(
        mesh,
        dof,
        lambda p: np.stack(
            [
                np.zeros(len(p)),
                np.zeros(len(p)),
                2.0 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
            ],
            axis=1,
        ),
    )


def test_minres_identity():
    rng = np.random.default_rng(0)
    b = rng.normal(size=7)
    x, stats = minres(lambda v: v, lambda v: v, b, tol=1e-12)
    np.testing.assert_allclose(x, b, atol=1e-12)
    assert stats.iterations == 1
    assert stats.converged


def test_minres_indefinite_diagonal():
    d = np.array([1.0, -1.0])
    x, stats = minres(lambda v: d * v, lambda v: v, np.array([1.0, 1.0]), tol=1e-12)
    np.testing.assert_allclose(x, [1.0, -1.0], atol=1e-10)
    assert stats.converged and stats.relative_residual <= 1e-12


def test_minres_random_symmetric_vs_dense():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(20, 20))
    A = 0.5 * (A + A.T)
    B = rng.normal(size=(20, 20))
    P = B @ B.T + 20.0 * np.eye(20)
    Pinv = np.linalg.inv(P)
    b = rng.normal(size=20)
    x, stats = minres(lambda v: A @ v, lambda v: Pinv @ v, b, tol=1e-10, maxit=500)
    assert stats.converged
    expect = np.linalg.solve(A, b)
    assert np.linalg.norm(x - expect) <= 1e-8 * np.linalg.norm(expect)


def test_minres_flags_nonconvergence():
    b = np.array([1.0, 1.0])
    x, stats = minres(lambda v: 0.0 * v, lambda v: v, b, tol=1e-10, maxit=10)
    assert not stats.converged
    d = np.array([1.0, 1e-12])
    _, stats = minres(lambda v: d * v, lambda v: v, b, tol=1e-14, maxit=1)
    assert not stats.converged


def test_forward_operator_blocks_and_symmetry():
    _, _, mats = setup(1)
    period = PeriodSpec(TWO_PI, 1)
    n = mats.n
    rng = np.random.default_rng(2)
    sys1 = build_forward(1, mats, period, rng.normal(size=n), rng.normal(size=n))
    A = operator_matrix(sys1)
    scale = np.abs(A).max()
    assert np.abs(A - A.T).max() <= 1e-11 * scale
    Ms = mats.Msigma.toarray()
    K = mats.K.toarray()
    kw = period.omega
    np.testing.assert_allclose(A[:n, :n], -kw * Ms, atol=1e-13)
    np.testing.assert_allclose(A[:n, n:], -K, atol=1e-13)
    np.testing.assert_allclose(A[n:, n:], kw * Ms, atol=1e-13)


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_forward_minres_matches_dense_oracle(n, k):
    _, _, mats = setup(n)
    period = PeriodSpec(TWO_PI, max(k, 1))
    rng = np.random.default_rng(10 * n + k)
    u_c = rng.normal(size=mats.n)
    u_s = rng.normal(size=mats.n)
    system = build_forward(k, mats, period, u_c, u_s)
    parts, stats = solve_mode(system, tol=1e-12)
    assert stats.converged
    dense = dense_forward_unreformulated(k, mats, period)
    sol = np.linalg.solve(dense, np.concatenate([u_c, u_s]))
    expect_c, expect_s = sol[: mats.n], sol[mats.n :]
    norm = np.linalg.norm(sol)
    assert np.linalg.norm(parts["y_c"] - expect_c) <= 1e-8 * norm
    assert np.linalg.norm(parts["y_s"] - expect_s) <= 1e-8 * norm


def test_forward0_zero_load():
    _, _, mats = setup(2)
    system = build_forward0(mats, np.zeros(mats.n))
    parts, stats = solve_mode(system)
    np.testing.assert_array_equal(parts["y_c"], 0.0)
    assert stats.converged


def test_forward0_divergence_free_load_and_gauge():
    mesh, dof, mats = setup(2)
    u0 = divergence_free_load(mesh, dof)
    system = build_forward0(mats, u0)  # consistency check must pass
    parts, stats = solve_mode(system, tol=1e-12)
    assert stats.converged
    y = parts["y_c"]
    G = mats.G.toarray()
    Ms = mats.Msigma.toarray()
    ker_coef = np.linalg.solve(G.T @ Ms @ G, G.T @ (Ms @ y))
    assert np.linalg.norm(ker_coef) < 1e-9
    # dense oracle: least-squares solution, then the same gauge projection
    K = mats.K.toarray()
    lsq = np.linalg.lstsq(K, system.rhs, rcond=None)[0]
    lsq = lsq - G @ np.linalg.solve(G.T @ Ms @ G, G.T @ (Ms @ lsq))
    assert np.linalg.norm(y - lsq) <= 1e-8 * np.linalg.norm(lsq)


@pytest.mark.parametrize("sigma", [1.0, 3.5])
def test_sparse_gauge_matches_dense_oracle(sigma):
    mesh, dof, mats = setup(3, sigma=sigma)
    rng = np.random.default_rng(11)
    # a consistent load with a kernel component the projection must remove
    load = divergence_free_load(mesh, dof)
    kernel = mats.G @ rng.normal(size=mats.G.shape[1])
    u0 = load + 1e-10 * np.linalg.norm(load) / np.linalg.norm(kernel) * kernel
    system = build_forward0(mats, u0)
    rhs, project = dense_gauge(mats, u0)
    assert np.linalg.norm(system.rhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
    y = rng.normal(size=mats.n)
    want = project(y)
    assert np.linalg.norm(system.postprocess(y) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["forward", "ocp", "ocp0"])
def test_preconditioner_is_the_block_diagonal_inverse(kind):
    # one multi-column solve per application must equal the blockwise
    # inverse of blkdiag(P, ..., P/alpha, ...)
    _, _, mats = setup(2)
    period = PeriodSpec(TWO_PI, 1)
    alpha = 0.3
    kw = period.omega
    K, M, Ms = (A.toarray() for A in (mats.K, mats.M, mats.Msigma))
    z = np.zeros(mats.n)
    if kind == "forward":
        system = build_forward(1, mats, period, z, z)
        P, scales = K + kw * Ms, [1.0, 1.0]
    elif kind == "ocp":
        system = build_ocp(1, mats, alpha, period, z, z)
        P, scales = M + np.sqrt(alpha) * (K + kw * Ms), [1.0, 1.0, alpha, alpha]
    else:
        system = build_ocp0(mats, alpha, z)
        P, scales = M + np.sqrt(alpha) * K, [1.0, alpha]
    r = np.random.default_rng(4).normal(size=system.blocks * mats.n)
    want = np.concatenate(
        [s * np.linalg.solve(P, b) for s, b in zip(scales, np.split(r, system.blocks))]
    )
    got = system.apply_Pinv(r)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def closure_Pinv(system, alpha):
    # the per-kind preconditioner closures the systems were built with
    # before they became data, kept as the bitwise reference
    lu, n = system.lu, system.n
    if system.kind == "forward0":
        return lu.solve
    if system.kind == "forward":
        return lambda r: lu.solve(r.reshape(2, n).T).T.ravel()

    def apply(r):
        x = lu.solve(r.reshape(system.blocks, n).T)
        x[:, system.blocks // 2 :] *= alpha
        return x.T.ravel()

    return apply


def block_formula(system, mats, kw, alpha, x):
    # the mode operator applied block by block from M, K and M_sigma
    K, M, Ms = mats.K, mats.M, mats.Msigma
    b = dict(zip(system.names, np.split(x, system.blocks)))
    if system.kind == "forward0":
        rows = [K @ b["y_c"]]
    elif system.kind == "forward":
        ys, yc = b["y_s"], b["y_c"]
        rows = [-kw * (Ms @ ys) - K @ yc, -(K @ ys) + kw * (Ms @ yc)]
    elif system.kind == "ocp0":
        yc, pc = b["y_c"], b["p_c"]
        rows = [M @ yc - K @ pc, -(K @ yc) - (M @ pc) / alpha]
    else:
        yc, ys, pc, ps = (b[name] for name in ("y_c", "y_s", "p_c", "p_s"))
        rows = [
            M @ yc - K @ pc + kw * (Ms @ ps),
            M @ ys - kw * (Ms @ pc) - K @ ps,
            -(K @ yc) - kw * (Ms @ ys) - (M @ pc) / alpha,
            kw * (Ms @ yc) - K @ ys - (M @ ps) / alpha,
        ]
    return np.concatenate(rows)


@pytest.mark.parametrize("kind", ["forward", "forward0", "ocp", "ocp0"])
def test_mode_system_data_matches_block_formula_and_closures(kind):
    _, _, mats = setup(3, sigma=2.5)
    period = PeriodSpec(TWO_PI, 2)
    alpha = 0.3
    rng = np.random.default_rng(21)
    u_c, u_s = rng.normal(size=mats.n), rng.normal(size=mats.n)
    k = 0 if kind.endswith("0") else 2
    if kind.startswith("forward"):
        # the mean forward mode needs a load free of gradients
        u_c = u_c - mats.G @ np.linalg.lstsq(mats.G.toarray(), u_c, rcond=None)[0]
        system = build_forward(k, mats, period, u_c, u_s)
    else:
        system = build_ocp(k, mats, alpha, period, u_c, u_s)
    assert system.kind == kind
    x = rng.normal(size=system.blocks * system.n)
    want = block_formula(system, mats, k * period.omega, alpha, x)
    np.testing.assert_allclose(
        system.A @ x, want, rtol=1e-13, atol=1e-13 * np.abs(want).max()
    )
    np.testing.assert_array_equal(system.apply_A(x), system.A @ x)
    np.testing.assert_array_equal(system.apply_Pinv(x), closure_Pinv(system, alpha)(x))
    parts = system.unpack(x)
    assert tuple(parts) == system.names
    np.testing.assert_array_equal(np.concatenate(list(parts.values())), x)


def test_forward0_inconsistent_load_raises():
    _, _, mats = setup(2)
    kernel_vec = np.asarray(mats.G @ np.ones(mats.G.shape[1])).ravel()
    with pytest.raises(ValueError, match="inconsistent"):
        build_forward0(mats, kernel_vec)


def test_ocp_operator_blocks():
    _, _, mats = setup(1)
    period = PeriodSpec(TWO_PI, 1)
    n = mats.n
    system = build_ocp(1, mats, 1.0, period, np.zeros(n), np.zeros(n))
    A = operator_matrix(system)
    assert np.abs(A - A.T).max() <= 1e-11 * max(np.abs(A).max(), 1.0)
    kw = period.omega
    Ms = mats.Msigma.toarray()
    M = mats.M.toarray()
    np.testing.assert_allclose(A[:n, 3 * n :], kw * Ms, atol=1e-13)
    np.testing.assert_allclose(A[3 * n :, :n], kw * Ms, atol=1e-13)
    np.testing.assert_allclose(A[n : 2 * n, 2 * n : 3 * n], -kw * Ms, atol=1e-13)
    np.testing.assert_allclose(A[2 * n : 3 * n, n : 2 * n], -kw * Ms, atol=1e-13)
    np.testing.assert_allclose(A[:n, :n], M, atol=1e-13)
    np.testing.assert_allclose(A[2 * n : 3 * n, 2 * n : 3 * n], -M, atol=1e-13)


def test_ocp_alpha_scaling_touches_only_lower_blocks():
    _, _, mats = setup(1)
    period = PeriodSpec(TWO_PI, 1)
    n = mats.n
    z = np.zeros(n)
    A1 = operator_matrix(build_ocp(1, mats, 1.0, period, z, z))
    A4 = operator_matrix(build_ocp(1, mats, 4.0, period, z, z))
    D = A4 - A1
    assert np.abs(D[: 2 * n, :]).max() == 0.0
    assert np.abs(D[2 * n :, : 2 * n]).max() == 0.0
    M = mats.M.toarray()
    np.testing.assert_allclose(D[2 * n : 3 * n, 2 * n : 3 * n], 0.75 * M, atol=1e-13)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
def test_ocp_minres_matches_dense_oracle(alpha):
    _, _, mats = setup(1)
    period = PeriodSpec(TWO_PI, 1)
    rng = np.random.default_rng(int(10 * alpha))
    yd_c = rng.normal(size=mats.n)
    yd_s = rng.normal(size=mats.n)
    system = build_ocp(1, mats, alpha, period, yd_c, yd_s)
    parts, stats = solve_mode(system, tol=1e-12)
    assert stats.converged
    dense = dense_ocp(1, mats, alpha, period)
    sol = np.linalg.solve(dense, system.rhs)
    got = np.concatenate([parts["y_c"], parts["y_s"], parts["p_c"], parts["p_s"]])
    assert np.linalg.norm(got - sol) <= 1e-8 * np.linalg.norm(sol)


def test_ocp0_dense_oracle_and_residuals():
    _, _, mats = setup(2)
    rng = np.random.default_rng(5)
    yd0 = rng.normal(size=mats.n)
    alpha = 0.5
    system = build_ocp0(mats, alpha, yd0)
    parts, stats = solve_mode(system, tol=1e-12)
    assert stats.converged
    K = mats.K.toarray()
    M = mats.M.toarray()
    dense = np.block([[M, -K], [-K, -(1.0 / alpha) * M]])
    sol = np.linalg.solve(dense, system.rhs)
    got = np.concatenate([parts["y_c"], parts["p_c"]])
    assert np.linalg.norm(got - sol) <= 1e-8 * np.linalg.norm(sol)
    # variational residuals of the two block equations
    r1 = M @ parts["y_c"] - K @ parts["p_c"] - yd0
    r2 = -K @ parts["y_c"] - (1.0 / alpha) * (M @ parts["p_c"])
    scale = np.linalg.norm(yd0)
    assert np.linalg.norm(r1) <= 1e-8 * scale
    assert np.linalg.norm(r2) <= 1e-8 * scale


def test_ocp0_zero_data():
    _, _, mats = setup(1)
    parts, _ = solve_mode(build_ocp0(mats, 2.0, np.zeros(mats.n)))
    np.testing.assert_array_equal(parts["y_c"], 0.0)
    np.testing.assert_array_equal(parts["p_c"], 0.0)


def test_mode_zero_routing():
    _, _, mats = setup(1)
    period = PeriodSpec(TWO_PI, 1)
    z = np.zeros(mats.n)
    assert build_forward(0, mats, period, z).kind == "forward0"
    assert build_ocp(0, mats, 1.0, period, z).kind == "ocp0"
    with pytest.raises(ValueError):
        build_forward(1, mats, period, z)  # missing sine load
    with pytest.raises(ValueError):
        build_ocp(1, mats, -1.0, period, z, z)
    with pytest.raises(ValueError):
        build_ocp(0, mats, 0.0, period, z)


def test_preconditioner_factors_are_spd():
    _, _, mats = setup(2)
    for kw in (0.0, 1.0, 2.0):
        S = (mats.K + max(kw, 1.0) * mats.Msigma).toarray()
        assert linalg.eigvalsh(S).min() > 0.0


@pytest.mark.parametrize("kind", ["forward0", "ocp0"])
def test_mean_mode_factors_are_the_mode_factor(kind):
    # the mean modes factor K + Ms and M + sqrt(alpha) K through
    # mode_factor; the factors must equal the SPD factors of the matrices
    # themselves, which arrive in the free DOFs' dissection order
    mesh, dof, mats = setup(3)
    alpha = 0.3
    if kind == "forward0":
        lu = build_forward0(mats, divergence_free_load(mesh, dof)).lu
        inline = splu((mats.K + mats.Msigma).tocsc(), **SPD_SPLU)
    else:
        lu = build_ocp0(mats, alpha, np.ones(mats.n)).lu
        inline = splu((mats.M + np.sqrt(alpha) * mats.K).tocsc(), **SPD_SPLU)
    np.testing.assert_array_equal(lu.perm_c, inline.perm_c)
    for a, b in ((lu.L, inline.L), (lu.U, inline.U)):
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))


DISSECTED_MESHES = [(n, (1.0, 1.0, 1.0)) for n in (1, 2, 3, 5, 6)] + [(4, (0.5, 2.0, 3.0))]


def _assert_solves(solve, matrix, rhs):
    # the factor's solution against a dense solve, to 1e-12 relative
    expected = linalg.solve(matrix.toarray(), rhs, assume_a="pos")
    assert np.linalg.norm(solve(rhs) - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("n, box", DISSECTED_MESHES)
def test_every_spd_factor_solves_its_matrix_in_dissection_order(monkeypatch, n, box):
    mesh = build_box_mesh(n, box)
    dof = DofMap.from_mesh(mesh)
    co = Coefficients.constant(mesh, 2.0, 0.5)
    mats = SystemMatrices.from_mesh(mesh, co, dof)
    ws = FluxWorkspace.from_mesh(mesh, co)
    # the mesh numbers its edges in dissection order, which the free DOFs keep
    free = np.setdiff1d(np.arange(mesh.num_edges), mesh.boundary_edges)
    np.testing.assert_array_equal(dof.free, free)
    nodes = mesh.interior_nodes()
    node_order = nested_dissection(nodes, mesh.vertices, mesh.edges)
    np.testing.assert_array_equal(np.sort(node_order), nodes)
    if nodes.size:
        assert abs(mats.G - gradient_incidence(mesh)[dof.free][:, node_order]).max() == 0.0

    rng = np.random.default_rng(n)
    b = rng.standard_normal((mats.n, 2))
    K, M, Ms, G = mats.K, mats.M, mats.Msigma, mats.G
    alpha = 0.3
    period = PeriodSpec(TWO_PI, 1)
    forward0 = build_forward0(mats, divergence_free_load(mesh, dof))
    factors = [
        (mode_factor(mats, 2.0), K + 2.0 * Ms),
        (mode_factor(mats, 2.0, alpha), M + np.sqrt(alpha) * (K + 2.0 * Ms)),
        (build_forward(1, mats, period, b[:, 0], b[:, 1]).lu, K + Ms),
        (build_ocp(1, mats, alpha, period, b[:, 0], b[:, 1]).lu, M + np.sqrt(alpha) * (K + Ms)),
        (forward0.lu, K + Ms),
        (build_ocp0(mats, alpha, b[:, 0]).lu, M + np.sqrt(alpha) * K),
    ]
    for lu, matrix in factors:
        _assert_solves(lu.solve, matrix, b)
    if G.shape[1]:
        # the gauge factors on the interior nodes in G's column order: the
        # load projection's G^T G as build_forward0 factors it, and
        # G^T Ms G through the gauge of the solution
        GtG = (G.T @ G).tocsc()
        _assert_solves(splu(GtG, **SPD_SPLU).solve, GtG, G.T @ b)
        y = b[:, 0]
        w = linalg.solve((G.T @ Ms @ G).toarray(), G.T @ (Ms @ y), assume_a="pos")
        gauged = y - forward0.postprocess(y)
        assert np.linalg.norm(gauged - G @ w) <= 1e-12 * np.linalg.norm(G @ w)

    cf2 = friedrichs_constant() ** 2
    flux_rhs = rng.standard_normal((mesh.num_edges, 3))
    for curl_weight, mass_weight in ((cf2, 1.0), (2.0, 1.0)):
        matrix = curl_weight * ws.stiffness + mass_weight * ws.mass
        _assert_solves(ws.factor(curl_weight, mass_weight), matrix, flux_rhs)
    # the fallback past the PCG step cap, through the solve that takes it
    monkeypatch.setattr(estimator, "PCG_MAXIT", 2)
    counts = {"pcg_steps": 0, "direct_solves": 0}
    got = ws.solve(2.0, 1.0, list(flux_rhs.T), cf2, counts)
    assert counts["direct_solves"] == 1
    _assert_solves(lambda r: np.array(got).T, ws.stiffness * 2.0 + ws.mass, flux_rhs)


def test_dissection_keeps_the_n8_factors_small(monkeypatch):
    # fill at n = 8 in the dissection order: 0.52M (mode) and 0.79M (flux)
    # nnz(L+U), against 1.13M (COLAMD) and 1.10M (MMD_AT_PLUS_A) before
    mesh, _, mats = setup(8)
    assert mode_factor(mats, 2.0).nnz <= 650_000
    fills = []

    def recording_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(estimator, "splu", recording_splu)
    ws = FluxWorkspace.from_mesh(mesh, Coefficients.constant(mesh))
    ws.factor(friedrichs_constant() ** 2, 1.0)
    assert fills and fills[0] <= 850_000


def test_iteration_counts_robust_in_alpha():
    _, _, mats = setup(2)
    period = PeriodSpec(TWO_PI, 1)
    rng = np.random.default_rng(9)
    yd_c = rng.normal(size=mats.n)
    yd_s = rng.normal(size=mats.n)
    its = []
    for alpha in (1e-4, 1e-2, 1.0, 1e2, 1e4):
        system = build_ocp(1, mats, alpha, period, yd_c, yd_s)
        _, stats = solve_mode(system, tol=1e-10)
        assert stats.converged
        its.append(stats.iterations)
    assert max(its) < 2 * min(its)


def test_solve_stats_contract():
    _, _, mats = setup(1)
    period = PeriodSpec(TWO_PI, 1)
    rng = np.random.default_rng(3)
    system = build_forward(1, mats, period, rng.normal(size=mats.n), rng.normal(size=mats.n))
    _, stats = solve_mode(system, tol=1e-10)
    assert stats.converged and stats.relative_residual <= 1e-10
    assert stats.wall_time >= 0.0


def test_reconstruct_and_evaluator():
    period = PeriodSpec(TWO_PI, 2)
    rng = np.random.default_rng(4)
    v0 = rng.normal(size=3)
    pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(2)]
    field = reconstruct([v0, pairs[0], pairs[1]], period)
    np.testing.assert_array_equal(field.mode0, v0)
    for k, (c, s) in enumerate(pairs, start=1):
        np.testing.assert_array_equal(field.mode(k)[0], c)
        np.testing.assert_array_equal(field.mode(k)[1], s)
    p0 = PeriodSpec(TWO_PI, 0)
    const = reconstruct([v0], p0)
    np.testing.assert_array_equal(const.mode0, v0)
    assert const.N == 0
    with pytest.raises(ValueError):
        reconstruct([v0, pairs[0]], p0)
