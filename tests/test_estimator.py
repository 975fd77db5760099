import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from eddymh import estimator
from eddymh.edge_fem import Coefficients, DofMap, field_norms, interpolate_tangential
from eddymh.estimator import (
    BETA_MAX,
    BETA_MIN,
    FluxWorkspace,
    StabilityConstants,
    beta_optimal,
    beta_optimal_ocp,
    efficiency_index,
    majorant_forward,
    majorant_ocp,
    minimize_majorant,
    residuals_forward,
    residuals_ocp,
    stability_constants,
)
from eddymh.harmonics import FourierField, PeriodSpec, remainder
from eddymh.mesh import LOCAL_EDGES, build_box_mesh
from eddymh.presets import (
    PROFILE_NORM_SQ,
    benchmark_errors,
    build_benchmark,
    full_field,
    mode_evaluators,
    profile,
    profile_curl,
    solve_benchmark,
)
from eddymh.quadrature import TET_P5_BARY, TET_P5_WEIGHTS

TWO_PI = 2.0 * math.pi


def unit_coeffs(mesh):
    return Coefficients.constant(mesh)


def test_stability_constants_frozen_values():
    mesh = build_box_mesh(1)
    co = unit_coeffs(mesh)
    fwd_semi = stability_constants("forward", "seminorm", co)
    np.testing.assert_allclose(fwd_semi.lower, 1.0 / math.sqrt(2.0), rtol=1e-14)
    np.testing.assert_allclose(fwd_semi.upper, 1.0, rtol=1e-14)
    fwd_norm = stability_constants("forward", "norm", co, friedrichs=1.0)
    np.testing.assert_allclose(fwd_norm.lower, 0.5 / math.sqrt(2.0), rtol=1e-14)
    ocp_norm = stability_constants("ocp", "norm", co, alpha=1.0)
    np.testing.assert_allclose(ocp_norm.lower, 1.0 / math.sqrt(3.0), rtol=1e-14)
    np.testing.assert_allclose(ocp_norm.upper, 1.0, rtol=1e-14)
    ocp_semi = stability_constants("ocp", "seminorm", co, alpha=1.0, friedrichs=1.0)
    np.testing.assert_allclose(ocp_semi.lower, 1.0 / math.sqrt(2.0), rtol=1e-14)
    np.testing.assert_allclose(ocp_semi.upper, 2.0, rtol=1e-14)


def test_stability_constants_validation():
    mesh = build_box_mesh(1)
    co = unit_coeffs(mesh)
    with pytest.raises(ValueError):
        stability_constants("poisson", "seminorm", co)
    with pytest.raises(ValueError):
        stability_constants("forward", "energy", co)
    with pytest.raises(ValueError):
        stability_constants("ocp", "seminorm", co)
    with pytest.raises(ValueError):
        stability_constants("forward", "seminorm", co, friedrichs=-1.0)


def test_stability_constants_ordering():
    mesh = build_box_mesh(1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        co = Coefficients(
            rng.uniform(0.2, 5.0, mesh.num_tets), rng.uniform(0.2, 5.0, mesh.num_tets)
        )
        alpha = float(rng.uniform(1e-3, 1e3))
        for problem, quantity in (
            ("forward", "seminorm"),
            ("forward", "norm"),
            ("ocp", "seminorm"),
            ("ocp", "norm"),
        ):
            c = stability_constants(problem, quantity, co, alpha=alpha)
            assert 0.0 < c.lower <= c.upper


def test_zero_inputs_leave_the_data_norm():
    mesh = build_box_mesh(2)
    co = unit_coeffs(mesh)
    period = PeriodSpec(TWO_PI, 1)
    zero = np.zeros(mesh.num_edges)
    load = (lambda p: 0.7 * profile(p), lambda p: -0.4 * profile(p))
    r1, r2 = residuals_forward(mesh, co, period, 1, (zero, zero), (zero, zero), load)
    norm_sq, _ = field_norms(mesh, profile)
    np.testing.assert_allclose(r1, (0.7**2 + 0.4**2) * norm_sq, rtol=1e-12)
    assert r2 == 0.0
    r = residuals_ocp(
        mesh, co, period, 1, (zero, zero), (zero, zero), (zero, zero), (zero, zero),
        load, 1.0,
    )
    np.testing.assert_allclose(r[0], (0.7**2 + 0.4**2) * norm_sq, rtol=1e-12)
    assert r[1] == r[2] == r[3] == 0.0


def test_constant_curl_flux_kills_r2():
    # a + b x x has constant curl 2b, which the edge space reproduces
    mesh = build_box_mesh(2)
    co = unit_coeffs(mesh)
    period = PeriodSpec(TWO_PI, 1)
    a = np.array([0.3, -1.1, 0.5])
    b = np.array([0.9, 0.2, -0.7])
    eta = interpolate_tangential(mesh, lambda p: a + np.cross(b, p))
    tau = interpolate_tangential(mesh, lambda p: np.broadcast_to(2.0 * b, p.shape))
    load = (lambda p: np.zeros_like(p), lambda p: np.zeros_like(p))
    _, r2 = residuals_forward(mesh, co, period, 1, (eta, eta), (tau, tau), load)
    assert r2 < 1e-18


def _local_whitney(verts):
    # independent basis construction: barycentric data from a 4x4 inverse
    A = np.vstack([np.ones(4), verts.T])
    Ainv = np.linalg.inv(A)
    grads = Ainv[:, 1:]
    vol = abs(np.linalg.det(A)) / 6.0
    return Ainv, grads, vol


def _oracle_values(mesh, coef, t, pts):
    # reconstruct barycentric values from the physical points
    verts = mesh.vertices[mesh.tets[t]]
    Ainv, grads, _ = _local_whitney(verts)
    lam = np.column_stack([np.ones(len(pts)), pts]) @ Ainv.T
    vals = np.zeros((pts.shape[0], 3))
    curl = np.zeros(3)
    for le, (la, lb) in enumerate(LOCAL_EDGES):
        c = coef[mesh.tet_edges[t, le]] * mesh.tet_edge_signs[t, le]
        phi = lam[:, la, None] * grads[lb] - lam[:, lb, None] * grads[la]
        vals += c * phi
        curl += c * 2.0 * np.cross(grads[la], grads[lb])
    return vals, curl


def _oracle_integral(mesh, fields, combine):
    total = 0.0
    for t in range(mesh.num_tets):
        verts = mesh.vertices[mesh.tets[t]]
        _, _, vol = _local_whitney(verts)
        pts = TET_P5_BARY @ verts
        parts = {}
        for name, coef in fields.items():
            parts[name] = _oracle_values(mesh, coef, t, pts)
        res = combine(t, pts, parts)
        total += 6.0 * vol * float(TET_P5_WEIGHTS @ np.einsum("qi,qi->q", res, res))
    return total


def test_residuals_match_requadrature_oracle():
    mesh = build_box_mesh(1)
    rng = np.random.default_rng(11)
    co = Coefficients(
        rng.uniform(0.5, 2.0, mesh.num_tets), rng.uniform(0.5, 2.0, mesh.num_tets)
    )
    period = PeriodSpec(TWO_PI, 2)
    k, kw = 2, 2 * period.omega
    ne = mesh.num_edges
    eta = (rng.normal(size=ne), rng.normal(size=ne))
    tau = (rng.normal(size=ne), rng.normal(size=ne))
    zeta = (rng.normal(size=ne), rng.normal(size=ne))
    rho = (rng.normal(size=ne), rng.normal(size=ne))

    def fc(p):
        return np.column_stack([np.sin(p[:, 0]), np.cos(p[:, 1]), p[:, 2] ** 2])

    def fs(p):
        return np.column_stack([p[:, 1], np.exp(-p[:, 0]), np.sin(3 * p[:, 2])])

    r1, r2 = residuals_forward(mesh, co, period, k, eta, tau, (fc, fs))

    def r1_cos(t, pts, parts):
        return (
            fc(pts)
            - kw * co.sigma[t] * parts["eta_s"][0]
            - parts["tau_c"][1][None, :]
        )

    def r1_sin(t, pts, parts):
        return (
            fs(pts)
            + kw * co.sigma[t] * parts["eta_c"][0]
            - parts["tau_s"][1][None, :]
        )

    def r2_cos(t, pts, parts):
        return parts["tau_c"][0] - co.nu[t] * parts["eta_c"][1][None, :]

    def r2_sin(t, pts, parts):
        return parts["tau_s"][0] - co.nu[t] * parts["eta_s"][1][None, :]

    fields = {"eta_c": eta[0], "eta_s": eta[1], "tau_c": tau[0], "tau_s": tau[1]}
    oracle_r1 = _oracle_integral(mesh, fields, r1_cos) + _oracle_integral(
        mesh, fields, r1_sin
    )
    oracle_r2 = _oracle_integral(mesh, fields, r2_cos) + _oracle_integral(
        mesh, fields, r2_sin
    )
    np.testing.assert_allclose(r1, oracle_r1, rtol=1e-10)
    np.testing.assert_allclose(r2, oracle_r2, rtol=1e-10)

    alpha = 0.7
    r = residuals_ocp(mesh, co, period, k, eta, zeta, tau, rho, (fc, fs), alpha)
    fields = {
        "eta_c": eta[0], "eta_s": eta[1], "zeta_c": zeta[0], "zeta_s": zeta[1],
        "tau_c": tau[0], "tau_s": tau[1], "rho_c": rho[0], "rho_s": rho[1],
    }

    def o1c(t, pts, parts):
        return (
            kw * co.sigma[t] * parts["zeta_s"][0]
            - parts["rho_c"][1][None, :]
            + parts["eta_c"][0]
            - fc(pts)
        )

    def o1s(t, pts, parts):
        return (
            -kw * co.sigma[t] * parts["zeta_c"][0]
            - parts["rho_s"][1][None, :]
            + parts["eta_s"][0]
            - fs(pts)
        )

    def o3c(t, pts, parts):
        return (
            kw * co.sigma[t] * parts["eta_s"][0]
            + parts["tau_c"][1][None, :]
            + parts["zeta_c"][0] / alpha
        )

    def o3s(t, pts, parts):
        return (
            -kw * co.sigma[t] * parts["eta_c"][0]
            + parts["tau_s"][1][None, :]
            + parts["zeta_s"][0] / alpha
        )

    def o4c(t, pts, parts):
        return parts["rho_c"][0] - co.nu[t] * parts["zeta_c"][1][None, :]

    def o4s(t, pts, parts):
        return parts["rho_s"][0] - co.nu[t] * parts["zeta_s"][1][None, :]

    oracle = [
        _oracle_integral(mesh, fields, o1c) + _oracle_integral(mesh, fields, o1s),
        oracle_r2,
        _oracle_integral(mesh, fields, o3c) + _oracle_integral(mesh, fields, o3s),
        _oracle_integral(mesh, fields, o4c) + _oracle_integral(mesh, fields, o4s),
    ]
    np.testing.assert_allclose(r, oracle, rtol=1e-10)


def test_majorant_forward_plugin_value():
    consts = StabilityConstants(1.0 / math.sqrt(2.0), 1.0, 1.0)
    np.testing.assert_allclose(
        majorant_forward(1.0, 1.0, consts, beta=1.0), 8.0, rtol=1e-14
    )
    assert majorant_forward(0.0, 0.0, consts, beta=1.0) == 0.0


def test_majorant_quadratic_dominates_linear():
    consts = StabilityConstants(0.4, 1.0, 0.8)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.lognormal(0.0, 2.0, size=2)
        beta = float(rng.lognormal(0.0, 1.5))
        quad = majorant_forward(a, b, consts, beta=beta)
        # the linear seminorm bound (C_F |R1| + |R2|) / c_lower
        lin = (consts.friedrichs * math.sqrt(a) + math.sqrt(b)) / consts.lower
        assert quad >= lin**2 * (1.0 - 1e-12)


def test_majorant_validation():
    consts = StabilityConstants(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        majorant_forward(1.0, 1.0, consts, beta=0.0)
    with pytest.raises(ValueError):
        majorant_forward(-1.0, 1.0, consts, beta=1.0)
    with pytest.raises(ValueError):
        majorant_ocp(1.0, 1.0, 1.0, 1.0, consts, (1.0, -1.0, 1.0))


def _golden_log(f, lo=1e-9, hi=1e9, iters=200):
    # extended precision keeps the argument resolvable at a flat minimum
    one = np.longdouble(1.0)
    phi = (np.sqrt(np.longdouble(5.0)) - one) / 2
    a, b = np.log(np.longdouble(lo)), np.log(np.longdouble(hi))
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(np.exp(c)), f(np.exp(d))
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(np.exp(d))
    return float(np.exp((a + b) / 2))


def test_beta_optimal_matches_golden_section():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.lognormal(0.0, 2.0, size=2)
        beta = beta_optimal(a, b)
        ref = _golden_log(lambda x: a * (1 + x) + b * (1 + x) / x)
        np.testing.assert_allclose(beta, ref, rtol=1e-8)


def test_beta_optimal_edge_cases():
    assert beta_optimal(4.0, 4.0) == 1.0
    assert beta_optimal(1.0, 0.0) == BETA_MIN
    assert beta_optimal(0.0, 1.0) == BETA_MAX
    with pytest.raises(ValueError):
        beta_optimal(0.0, 0.0)
    with pytest.raises(ValueError):
        beta_optimal(-1.0, 1.0)


def _grid_min_ocp(r1, r2, r3, r4, consts, rounds=5, pts=17):
    center = np.zeros(3)
    span = 4.0
    best_val, best_log = np.inf, center
    for _ in range(rounds):
        axes = [center[i] + np.linspace(-span, span, pts) for i in range(3)]
        B1, B2, B3 = np.meshgrid(*[10.0**ax for ax in axes], indexing="ij")
        cf2 = consts.friedrichs**2
        val = (
            cf2 * (1 + B1) * (1 + B2) * r1
            + cf2 * (1 + B1) * (1 + B3) / B1 * r3
            + (1 + B1) * (1 + B2) / B2 * r2
            + (1 + B1) * (1 + B3) / (B1 * B3) * r4
        ) / consts.lower**2
        idx = np.unravel_index(np.argmin(val), val.shape)
        best_val = float(val[idx])
        best_log = np.array([axes[i][idx[i]] for i in range(3)])
        center = best_log
        span = 2.0 * (2.0 * span / (pts - 1))
    return best_val, 10.0**best_log


def test_beta_optimal_ocp_matches_grid_search():
    consts = StabilityConstants(0.5, 1.0, 0.6)
    rng = np.random.default_rng(9)
    for _ in range(5):
        r = rng.lognormal(0.0, 1.5, size=4)
        betas = beta_optimal_ocp(*r, consts.friedrichs)
        closed = majorant_ocp(*r, consts, betas)
        grid_val, _ = _grid_min_ocp(*r, consts)
        assert closed <= grid_val * (1.0 + 1e-12)
        np.testing.assert_allclose(closed, grid_val, rtol=1e-4)


def test_beta_optimal_ocp_edge_cases():
    b1, b2, b3 = beta_optimal_ocp(1.0, 0.0, 0.0, 0.0, 1.0)
    assert b2 == BETA_MIN and b3 == 1.0 and b1 == BETA_MIN
    with pytest.raises(ValueError):
        beta_optimal_ocp(0.0, 0.0, 0.0, 0.0, 1.0)


def test_efficiency_index_basics():
    assert efficiency_index(4.0, 4.0) == 1.0
    with pytest.raises(ValueError):
        efficiency_index(1.0, 0.0)


def test_scaling_homogeneity():
    consts = StabilityConstants(0.7, 1.0, 1.3)
    rng = np.random.default_rng(17)
    for _ in range(30):
        r = rng.lognormal(0.0, 1.0, size=4)
        s = float(rng.lognormal(0.0, 1.0)) ** 2
        beta = beta_optimal(consts.friedrichs**2 * r[0], r[1])
        scaled = beta_optimal(s * consts.friedrichs**2 * r[0], s * r[1])
        np.testing.assert_allclose(scaled, beta, rtol=1e-12)
        m1 = majorant_forward(r[0], r[1], consts, beta=beta)
        m2 = majorant_forward(s * r[0], s * r[1], consts, beta=beta)
        np.testing.assert_allclose(m2, s * m1, rtol=1e-12)
        betas = beta_optimal_ocp(*r, consts.friedrichs)
        np.testing.assert_allclose(
            beta_optimal_ocp(*(s * r), consts.friedrichs), betas, rtol=1e-12
        )
        np.testing.assert_allclose(
            majorant_ocp(*(s * r), consts, betas),
            s * majorant_ocp(*r, consts, betas),
            rtol=1e-12,
        )


def test_interpolated_exact_residuals_decrease_under_refinement():
    period = PeriodSpec(TWO_PI, 1)
    amp_c, amp_s = 0.6, -1.2
    totals = []
    for n in (1, 2, 3):
        mesh = build_box_mesh(n)
        co = unit_coeffs(mesh)
        eta = (
            interpolate_tangential(mesh, lambda p: amp_c * profile(p)),
            interpolate_tangential(mesh, lambda p: amp_s * profile(p)),
        )
        tau = (
            interpolate_tangential(mesh, lambda p: amp_c * profile_curl(p)),
            interpolate_tangential(mesh, lambda p: amp_s * profile_curl(p)),
        )
        mu = 2.0 * math.pi**2
        load = (
            lambda p: (mu * amp_c + amp_s) * profile(p),
            lambda p: (-amp_c + mu * amp_s) * profile(p),
        )
        r1, r2 = residuals_forward(mesh, co, period, 1, eta, tau, load)
        totals.append(r1 + r2)
    h = np.log([1.0, 0.5, 1.0 / 3.0])
    slope = np.polyfit(h, np.log(totals), 1)[0]
    assert slope > 0.5


def test_minimize_majorant_forward_guaranteed_bound():
    bench = build_benchmark("forward", 2, 1)
    fields, _ = solve_benchmark(bench)
    err = benchmark_errors(bench, fields)["state"]
    state = full_field(bench.dofmap, fields["state"])
    consts = stability_constants("forward", "seminorm", bench.coefficients)
    loads = mode_evaluators(bench)
    ws = FluxWorkspace.from_mesh(bench.mesh, bench.coefficients)
    for k in (0, 1):
        report = minimize_majorant(
            bench.mesh, bench.coefficients, bench.period, "forward", state, loads,
            consts, mode=k, error_sq=err.semi_modes[k], workspace=ws,
        )
        assert report.converged
        assert report.trace[0].betas == (1.0,)
        values = [row.majorant_sq for row in report.trace]
        assert all(b <= a * (1 + 1e-10) for a, b in zip(values, values[1:]))
        assert report.efficiency >= 1.0 - 1e-6
    tail = remainder(bench.data_profile, PROFILE_NORM_SQ, bench.period)
    total = minimize_majorant(
        bench.mesh, bench.coefficients, bench.period, "forward", state, loads,
        consts, tail=tail, error_sq=err.semi_total, workspace=ws,
    )
    assert total.converged
    assert total.efficiency >= 1.0 - 1e-6


def test_minimize_majorant_ocp_guaranteed_bound():
    bench = build_benchmark("ocp", 2, 1, alpha=1.0)
    fields, _ = solve_benchmark(bench)
    errs = benchmark_errors(bench, fields)
    state = full_field(bench.dofmap, fields["state"])
    adjoint = full_field(bench.dofmap, fields["adjoint"])
    consts = stability_constants("ocp", "seminorm", bench.coefficients, alpha=1.0)
    loads = mode_evaluators(bench)
    ws = FluxWorkspace.from_mesh(bench.mesh, bench.coefficients)
    for k in (0, 1):
        pair_err = errs["state"].semi_modes[k] + errs["adjoint"].semi_modes[k]
        report = minimize_majorant(
            bench.mesh, bench.coefficients, bench.period, "ocp", state, loads,
            consts, adjoint=adjoint, alpha=1.0, mode=k, error_sq=pair_err,
            workspace=ws,
        )
        assert report.converged
        assert len(report.trace[0].betas) == 3
        values = [row.majorant_sq for row in report.trace]
        assert all(b <= a * (1 + 1e-10) for a, b in zip(values, values[1:]))
        assert report.efficiency >= 1.0 - 1e-6


def test_minimize_majorant_validation():
    bench = build_benchmark("forward", 1, 1)
    fields, _ = solve_benchmark(bench)
    state = full_field(bench.dofmap, fields["state"])
    consts = stability_constants("forward", "seminorm", bench.coefficients)
    loads = mode_evaluators(bench)
    with pytest.raises(ValueError):
        minimize_majorant(
            bench.mesh, bench.coefficients, bench.period, "heat", state, loads, consts
        )
    with pytest.raises(ValueError):
        minimize_majorant(
            bench.mesh, bench.coefficients, bench.period, "ocp", state, loads, consts
        )
    short = PeriodSpec(TWO_PI, 3)
    with pytest.raises(ValueError):
        minimize_majorant(
            bench.mesh, bench.coefficients, short, "forward", state, loads, consts
        )
    # a mode outside 0..N would read another mode's coefficients or none
    for mode in (-1, 2):
        with pytest.raises(ValueError):
            minimize_majorant(
                bench.mesh, bench.coefficients, bench.period, "forward", state,
                loads, consts, mode=mode,
            )
    truncated = FourierField(state.mode0, [])
    with pytest.raises(ValueError):
        minimize_majorant(
            bench.mesh, bench.coefficients, bench.period, "ocp", state, loads,
            consts, adjoint=truncated, alpha=1.0,
        )


def _majorant(kind, n, truncation, alpha=None, mode=None, **options):
    # minimization on a solved benchmark, with the workspace built inside;
    # without ``mode`` a total run (all modes plus the data remainder)
    bench = build_benchmark(kind, n, truncation, alpha=alpha)
    fields, _ = solve_benchmark(bench)
    state = full_field(bench.dofmap, fields["state"])
    adjoint = None
    if kind == "ocp":
        adjoint = full_field(bench.dofmap, fields["adjoint"])
    consts = stability_constants(kind, "seminorm", bench.coefficients, alpha=alpha)
    tail = 0.0
    if mode is None:
        tail = remainder(bench.data_profile, PROFILE_NORM_SQ, bench.period)
    return minimize_majorant(
        bench.mesh, bench.coefficients, bench.period, kind, state,
        mode_evaluators(bench), consts, adjoint=adjoint, alpha=alpha, mode=mode,
        tail=tail, **options,
    )


# Per-iteration squared bounds recorded from the per-mode flux path
# (one COLAMD-ordered factorization for each mode and field); the batched
# symmetric-ordered path must reproduce them and their iteration count.
PER_MODE_PATH_TRACES = [
    (
        ("forward", 3, 2, None),
        [
            506327.02775076136, 273728.74287852313, 243793.40154823678,
            243702.230321503, 243702.04018036625, 243702.03979273868,
            243702.03979194927,
        ],
    ),
    (
        ("ocp", 2, 1, 0.5),
        [
            2801099570.46416, 1144734407.815531, 1097860994.4311504,
            1097408801.5507166, 1097404822.184806, 1097404787.0327194,
            1097404786.7208474, 1097404786.718076, 1097404786.7180512,
        ],
    ),
]


@pytest.mark.parametrize("case, expected", PER_MODE_PATH_TRACES)
def test_batched_flux_path_reproduces_per_mode_traces(case, expected):
    report = _majorant(*case)
    assert report.converged
    values = [row.majorant_sq for row in report.trace]
    np.testing.assert_allclose(values, expected, rtol=1e-10)


@pytest.mark.parametrize("kind, alpha", [("forward", None), ("ocp", 0.5)])
def test_flux_factorizations_batched_over_modes(monkeypatch, kind, alpha):
    # a whole total run factors one matrix, the workspace's cf^2 K + M:
    # every flux step of every mode runs PCG off it, and the mass
    # projection of iteration 1 runs Jacobi-PCG
    factored = []
    splu = estimator.splu

    def counting_splu(*args, **kwargs):
        factored.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(estimator, "splu", counting_splu)
    report = _majorant(kind, 2, 2, alpha=alpha)
    assert len(factored) == 1
    assert report.direct_solves == 0
    assert report.pcg_steps >= len(report.trace)


@pytest.mark.parametrize("kind, alpha", [("forward", None), ("ocp", 0.5)])
@pytest.mark.parametrize("mode", [0, 1])
def test_each_flux_step_minimizes_its_own_pair(monkeypatch, kind, alpha, mode):
    # The fluxes of a weighted flux step minimize the bound at the Young
    # parameters they were solved for, each pair's flux on its own: along
    # a random direction d the bound is a parabola in that flux, whose
    # first difference vanishes against its second.  This pins the sign
    # and the time direction of every flux right-hand side.
    calls = []
    for name in ("residuals_forward", "residuals_ocp"):
        residuals = getattr(estimator, name)
        monkeypatch.setattr(
            estimator, name,
            lambda *args, f=residuals: calls.append(args) or f(*args),
        )
    report = _majorant(kind, 2, 1, alpha=alpha, mode=mode, tol=0.0, maxit=2)
    assert len(report.trace) == 2  # iteration 2 is the weighted step
    args = list(calls[-1])
    betas = report.trace[-1].betas
    consts = stability_constants(kind, "seminorm", args[1], alpha=alpha)

    def bound(flux_args):
        if kind == "forward":
            return majorant_forward(
                *residuals_forward(*flux_args), consts, beta=betas[0]
            )
        return majorant_ocp(*residuals_ocp(*flux_args), consts, betas)

    rng = np.random.default_rng(11)
    flux_slots = (5,) if kind == "forward" else (6, 7)  # tau, then rho
    for slot in flux_slots:
        flux = args[slot]
        d = [rng.standard_normal(c.size) * np.linalg.norm(c) / c.size**0.5
             for c in flux]
        values = []
        for step in (1.0, -1.0, 0.0):
            moved = list(args)
            moved[slot] = tuple(c + step * e for c, e in zip(flux, d))
            values.append(bound(moved))
        plus, minus, centre = values
        assert abs(plus - minus) <= 1e-6 * (plus + minus - 2.0 * centre)


def _flux_problem(n=3):
    mesh = build_box_mesh(n)
    ws = FluxWorkspace.from_mesh(mesh, unit_coeffs(mesh))
    rng = np.random.default_rng(7)
    rhs = [rng.standard_normal(mesh.num_edges) for _ in range(3)]
    rhs.insert(1, np.zeros(mesh.num_edges))
    return ws, rhs


@pytest.mark.parametrize(
    "curl_weight, mass_weight, direct",
    [
        (0.0, 1.0, 0),  # Jacobi-PCG on the mass matrix
        (0.05, 1.0, 0),  # at the anchor
        (0.3, 2.0, 0),  # ratio 3 times the anchor
        (0.007, 1.0, 0),  # ratio about 1/7 of the anchor
        (2.0, 1.0, 1),  # far above the band
        (1e-4, 3.0, 1),  # far below it
    ],
)
def test_flux_solve_matches_a_direct_factorization(curl_weight, mass_weight, direct):
    ws, rhs = _flux_problem()
    counts = {"pcg_steps": 0, "direct_solves": 0}
    got = ws.solve(curl_weight, mass_weight, rhs, 0.05, counts)
    assert isinstance(got, list) and len(got) == len(rhs)
    matrix = (curl_weight * ws.stiffness + mass_weight * ws.mass).tocsc()
    lu = estimator.splu(matrix)
    for x, b in zip(got, rhs):
        expected = lu.solve(b)
        assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)
    assert not got[1].any()
    assert counts["direct_solves"] == direct
    if direct:
        assert counts["pcg_steps"] == 0


def test_flux_solve_falls_back_past_the_step_cap(monkeypatch):
    ws, rhs = _flux_problem()
    monkeypatch.setattr(estimator, "PCG_MAXIT", 2)
    counts = {"pcg_steps": 0, "direct_solves": 0}
    got = ws.solve(0.3, 2.0, rhs, 0.05, counts)
    assert counts == {"pcg_steps": 2, "direct_solves": 1}
    lu = estimator.splu((0.3 * ws.stiffness + 2.0 * ws.mass).tocsc())
    for x, b in zip(got, rhs):
        np.testing.assert_allclose(x, lu.solve(b), rtol=1e-12, atol=1e-15)


def test_concurrent_minimizations_share_one_factor(monkeypatch):
    # more threads than cores on one workspace, switching as often as the
    # interpreter allows: one factor between them (a racy lazy build would
    # factor twice), and every report bitwise equal to the same
    # minimizations run one by one
    bench = build_benchmark("forward", 3, 2)
    fields, _ = solve_benchmark(bench)
    state = full_field(bench.dofmap, fields["state"])
    consts = stability_constants("forward", "seminorm", bench.coefficients)
    tail = remainder(bench.data_profile, PROFILE_NORM_SQ, bench.period)

    def run(ws, part):
        return minimize_majorant(
            bench.mesh, bench.coefficients, bench.period, "forward", state,
            mode_evaluators(bench), consts, workspace=ws, **part,
        )

    parts = [{"mode": 1}, {"tail": tail}, {"mode": 2}, {"mode": 0}]
    serial_ws = FluxWorkspace.from_mesh(bench.mesh, bench.coefficients)
    serial = [run(serial_ws, part) for part in parts]
    factored = []
    splu = estimator.splu

    def slow_counting_splu(*args, **kwargs):
        # a slow factorization keeps the other threads arriving while the
        # first one factors, which is when an unguarded build repeats
        factored.append(1)
        time.sleep(0.3)
        return splu(*args, **kwargs)

    monkeypatch.setattr(estimator, "splu", slow_counting_splu)
    ws = FluxWorkspace.from_mesh(bench.mesh, bench.coefficients)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            futures = [pool.submit(run, ws, part) for part in parts]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(factored) == 1
    for a, b in zip(serial, threaded):
        assert [row.majorant_sq for row in a.trace] == [
            row.majorant_sq for row in b.trace
        ]
        assert a.betas == b.betas and a.residual_sums == b.residual_sums
        assert (a.pcg_steps, a.direct_solves) == (b.pcg_steps, b.direct_solves)


def test_majorant_stop_at_rounding_level():
    # Mode 1 of this case has a squared bound of about 3.3e12, whose ulp
    # exceeds the default tol = 1e-4: the bound settles within a few
    # iterations and then only moves by rounding, which must stop the loop.
    report = _majorant("ocp", 6, 2, alpha=10.0**-1.9375, mode=1, tol=1e-4, maxit=50)
    assert np.spacing(report.majorant_sq) > 1e-4
    assert report.converged
    assert len(report.trace) < 50
    values = [row.majorant_sq for row in report.trace]
    assert all(b <= a * (1 + 1e-10) for a, b in zip(values, values[1:]))
