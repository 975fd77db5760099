import math
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eddymh import estimator
from eddymh.edge_fem import Coefficients, DofMap, fe_curls, interpolate_tangential
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
    residual_forms,
    residuals_forward,
    residuals_ocp,
    stability_constants,
)
from eddymh.harmonics import FourierField, PeriodSpec, friedrichs_constant, remainder
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
from eddymh.systems import SPD_SPLU
from fem_oracles import field_norms

TWO_PI = 2.0 * math.pi


def unit_coeffs(mesh):
    return Coefficients.constant(mesh)


def test_stability_constants_frozen_values():
    mesh = build_box_mesh(1)
    co = unit_coeffs(mesh)
    fwd_semi = stability_constants("forward", "seminorm", co)
    np.testing.assert_allclose(fwd_semi.lower, 1.0 / math.sqrt(2.0), rtol=1e-14)
    np.testing.assert_allclose(fwd_semi.upper, 1.0, rtol=1e-14)
    ocp_semi = stability_constants("ocp", "seminorm", co, alpha=1.0, friedrichs=1.0)
    np.testing.assert_allclose(ocp_semi.lower, 1.0 / math.sqrt(2.0), rtol=1e-14)
    np.testing.assert_allclose(ocp_semi.upper, 2.0, rtol=1e-14)


def test_stability_constants_validation():
    mesh = build_box_mesh(1)
    co = unit_coeffs(mesh)
    with pytest.raises(ValueError):
        stability_constants("poisson", "seminorm", co)
    for quantity in ("energy", "norm"):
        with pytest.raises(ValueError):
            stability_constants("forward", quantity, co)
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
        for problem in ("forward", "ocp"):
            c = stability_constants(problem, "seminorm", co, alpha=alpha)
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


_SUMS = st.floats(0.0, 1e8)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["forward", "ocp"]),
    st.lists(st.tuples(_SUMS, _SUMS, _SUMS, _SUMS), min_size=1, max_size=6),
    _SUMS,
    st.tuples(*[st.floats(BETA_MIN, BETA_MAX)] * 3),
)
def test_summed_total_is_at_most_the_joint_bound(kind, modes, tail, common):
    # each mode at its own optimal Young parameters and the tail at BETA_MIN
    # sum to at most the bound of the summed residuals at any parameters
    # the modes share: the total of minimize_majorant never exceeds a joint
    # minimization's
    consts = StabilityConstants(0.3, 2.0, friedrichs_constant())
    cf = consts.friedrichs
    if kind == "forward":
        modes = [sums[:2] for sums in modes]
        summed = majorant_forward(0.0, 0.0, consts, BETA_MIN, tail=tail)
        for r1, r2 in modes:
            if cf * cf * r1 or r2:  # a subnormal r1 can scale to 0
                summed += majorant_forward(r1, r2, consts, beta_optimal(cf * cf * r1, r2))
        joint = majorant_forward(*map(sum, zip(*modes)), consts, common[0], tail=tail)
    else:
        summed = majorant_ocp(0.0, 0.0, 0.0, 0.0, consts, (BETA_MIN,) * 3, tail=tail)
        for sums in modes:
            if any(sums):
                summed += majorant_ocp(*sums, consts, beta_optimal_ocp(*sums, cf))
        joint = majorant_ocp(*map(sum, zip(*modes)), consts, common, tail=tail)
    assert summed <= joint * (1.0 + 1e-12)


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
    # the data remainder belongs to the total; one mode's bound would drop it
    with pytest.raises(ValueError, match="tail"):
        minimize_majorant(
            bench.mesh, bench.coefficients, bench.period, "forward", state,
            loads, consts, mode=0, tail=1.0,
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


# Per-iteration squared total bounds recorded from the per-mode flux path
# (one COLAMD-ordered factorization for each mode and field), when the
# total was minimized jointly over shared Young parameters; the sum of the
# separately minimized mode bounds may not exceed its final value.
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
    assert report.majorant_sq <= expected[-1] * (1.0 + 1e-10)


@pytest.mark.parametrize("kind, alpha", [("forward", None), ("ocp", 0.5), ("ocp", 1e-4)])
def test_flux_factorizations_batched_over_modes(monkeypatch, kind, alpha):
    # a whole total run factors one matrix, the workspace's cf^2 K + M:
    # every flux step of every mode runs PCG off it, also at a small alpha,
    # whose weighted ratios lie far below cf^2, and the mass projection of
    # iteration 1 runs Jacobi-PCG
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
    steps = []  # the fluxes of every step of every bound, as summed
    residual_sums = estimator._residual_sums
    monkeypatch.setattr(
        estimator, "_residual_sums", lambda *args: steps.append(args[3]) or residual_sums(*args)
    )
    report = _majorant(kind, 2, 1, alpha=alpha, mode=mode, tol=0.0, maxit=2)
    assert len(report.trace) == 2  # iteration 2 is the weighted step
    bench = build_benchmark(kind, 2, 1, alpha=alpha)
    fields, _ = solve_benchmark(bench)
    args = [bench.mesh, bench.coefficients, bench.period, mode]
    names = ("state",) if kind == "forward" else ("state", "adjoint")
    args += [full_field(bench.dofmap, fields[name]).mode(mode) for name in names]
    flat, members = steps[-1], 1 if mode == 0 else 2  # the last step's tau, then rho
    args += [tuple(flat[i : i + members]) for i in range(0, len(flat), members)]
    args.append(mode_evaluators(bench)(mode))
    if kind == "ocp":
        args.append(alpha)
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
    "curl_weight, mass_weight",
    [
        (0.0, 1.0),  # Jacobi-PCG on the mass matrix
        (0.05, 1.0),  # at the anchor
        (0.3, 2.0),  # ratio 3 times the anchor
        (0.007, 1.0),  # ratio about 1/7 of the anchor
        (2.0, 1.0),  # ratio 40 times the anchor
        (1e-4, 3.0),  # ratio about 1/1500 of it
    ],
)
def test_flux_solve_matches_a_direct_factorization(curl_weight, mass_weight):
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
    assert counts["direct_solves"] == 0


# one weight pair per column of _flux_problem (anchor 0.05)
SPAN_WEIGHTS = ([0.05, 0.3, 0.007, 0.1], [1.0, 2.0, 1.0, 1.5])


def test_projected_start_from_the_solution_takes_no_steps():
    # a span that holds each column's own solution, next to an unrelated
    # vector, projects onto it: the start already meets the stop
    ws, rhs = _flux_problem()
    a, b = SPAN_WEIGHTS
    exact = [
        estimator.splu((ai * ws.stiffness + bi * ws.mass).tocsc()).solve(r)
        for ai, bi, r in zip(a, b, rhs)
    ]
    rng = np.random.default_rng(3)
    counts = {"pcg_steps": 0, "direct_solves": 0}
    got = ws.solve(a, b, rhs, 0.05, counts, [[rng.standard_normal(x.size), x] for x in exact])
    assert counts == {"pcg_steps": 0, "direct_solves": 0}
    for x, expected in zip(got, exact):
        assert np.linalg.norm(x - expected) <= estimator.PCG_RTOL * np.linalg.norm(expected)


def test_projected_start_from_unrelated_vectors_keeps_the_stop():
    # whatever the span, every column stops at its true relative residual
    ws, rhs = _flux_problem()
    a, b = SPAN_WEIGHTS
    rng = np.random.default_rng(5)
    spans = [list(rng.standard_normal((m, ws.mass.shape[0]))) for m in (1, 2, 3, 2)]
    counts = {"pcg_steps": 0, "direct_solves": 0}
    got = ws.solve(a, b, rhs, 0.05, counts, spans)
    assert counts["pcg_steps"] > 0 and counts["direct_solves"] == 0
    assert not got[1].any()
    for x, r, ai, bi in zip(got, rhs, a, b):
        residual = r - (ai * ws.stiffness + bi * ws.mass) @ x
        assert np.linalg.norm(residual) <= estimator.PCG_RTOL * np.linalg.norm(r)


def test_projected_start_from_a_repeated_flux():
    # a span that holds one flux twice has a singular Gram matrix
    ws, rhs = _flux_problem()
    a, b = SPAN_WEIGHTS
    previous = ws.solve(0.03, 1.0, rhs, 0.05, {"pcg_steps": 0, "direct_solves": 0})
    counts = {"pcg_steps": 0, "direct_solves": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ws.solve(a, b, rhs, 0.05, counts, [[x, x] for x in previous])
    assert counts["direct_solves"] == 0
    for x, r, ai, bi in zip(got, rhs, a, b):
        expected = estimator.splu((ai * ws.stiffness + bi * ws.mass).tocsc()).solve(r)
        assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)


def test_flux_solve_falls_back_past_the_step_cap(monkeypatch):
    ws, rhs = _flux_problem()
    monkeypatch.setattr(estimator, "PCG_MAXIT", 2)
    counts = {"pcg_steps": 0, "direct_solves": 0}
    got = ws.solve(0.3, 2.0, rhs, 0.05, counts)
    assert counts == {"pcg_steps": 2, "direct_solves": 1}
    # the oracle factors the same matrix as the fallback does: in the
    # mesh's edge order, which is already fill-reducing
    lu = estimator.splu((0.3 * ws.stiffness + 2.0 * ws.mass).tocsc(), **SPD_SPLU)
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
        # the total's own trace is empty: its modes hold the iterations
        assert len(a.modes) == (3 if a.mode is None else 0)
        for x, y in zip([a, *a.modes], [b, *b.modes]):
            assert [row.majorant_sq for row in x.trace] == [
                row.majorant_sq for row in y.trace
            ]
            assert x.betas == y.betas and x.residual_sums == y.residual_sums
            assert (x.pcg_steps, x.direct_solves) == (y.pcg_steps, y.direct_solves)


# Per bound (each mode's, then the total's) of ocp at mesh_n 4, N=2, alpha
# 1e-4: the iterations and the squared bound, recorded when the bounds ran
# one by one and each flux matrix whose ratio a / b lay more than a factor
# 8 from cf^2 (about half of the weighted ones) was factored on its own.
# The total was then minimized jointly; the summed total may not exceed it.
LOW_ALPHA_BOUNDS = [
    (8, 1.1352193198574829e18),
    (8, 1.819840035952494e18),
    (8, 4.575748695569874e17),
    (8, 3.451221103006044e18),
]


def test_low_alpha_bounds_run_pcg_off_the_shared_factor():
    # ratios far from the shared factor's take more PCG steps, but no
    # factorization of their own, and give the same bounds
    report = _majorant("ocp", 4, 2, alpha=1e-4)
    *modes, (_, joint) = LOW_ALPHA_BOUNDS
    for bound, (iterations, value) in zip(report.modes, modes, strict=True):
        assert (len(bound.trace), bound.converged, bound.direct_solves) == (iterations, True, 0)
        np.testing.assert_allclose(bound.majorant_sq, value, rtol=1e-12)
    assert (report.converged, report.direct_solves) == (True, 0)
    assert report.majorant_sq <= joint * (1.0 + 1e-12)


@pytest.mark.parametrize("kind, alpha", [("forward", None), ("ocp", 0.5)])
def test_step_cap_falls_back_per_bound_and_pair(monkeypatch, kind, alpha):
    # Past PCG_MAXIT steps a lock-step block falls back group by group: each
    # bound's pair (in iteration 1 each mode's table) factors its own
    # matrix, so every mode's bound of the total call, solved in blocks with
    # the other modes' bounds, equals that mode bounded alone.  Iteration
    # 1's mass projection always falls back; a weighted group may not, as
    # its projected start can converge within the cap, but some do.
    monkeypatch.setattr(estimator, "PCG_MAXIT", 2)
    bench = build_benchmark(kind, 2, 1, alpha=alpha)
    fields = {
        name: full_field(bench.dofmap, f) for name, f in solve_benchmark(bench)[0].items()
    }
    consts = stability_constants(kind, "seminorm", bench.coefficients, alpha=alpha)
    tail = remainder(bench.data_profile, PROFILE_NORM_SQ, bench.period)

    def run(**part):
        return minimize_majorant(
            bench.mesh, bench.coefficients, bench.period, kind, fields["state"],
            mode_evaluators(bench), consts, adjoint=fields.get("adjoint"), alpha=alpha,
            **part,
        )

    def falls_back(bound):
        groups = 1 + pairs * (len(bound.trace) - 1)
        return 1 < bound.direct_solves < groups and bound.pcg_steps >= 2 * bound.direct_solves

    report = run(tail=tail)
    pairs = 1 if kind == "forward" else 2
    for k, joint in enumerate(report.modes):
        alone = run(mode=k)
        assert falls_back(joint)
        assert (joint.pcg_steps, joint.direct_solves) == (alone.pcg_steps, alone.direct_solves)
        assert joint.converged == alone.converged and joint.betas == alone.betas
        assert joint.residual_sums == alone.residual_sums
        assert [row.majorant_sq for row in joint.trace] == [
            row.majorant_sq for row in alone.trace
        ]


@pytest.mark.parametrize("other", ["mesh", "box", "sigma", "nu"])
def test_minimize_majorant_refuses_another_problems_workspace(other):
    # a workspace of another mesh, even one of the same size, or of other
    # coefficients would steer and report the bound of another problem;
    # one with equal coefficients in other arrays serves
    bench = build_benchmark("forward", 2, 1)
    mesh = bench.mesh
    state = full_field(bench.dofmap, solve_benchmark(bench)[0]["state"])
    consts = stability_constants("forward", "seminorm", bench.coefficients)
    workspaces = {
        "mesh": lambda: FluxWorkspace.from_mesh(build_box_mesh(2), unit_coeffs(mesh)),
        "box": lambda: FluxWorkspace.from_mesh(
            build_box_mesh(2, (2.0, 2.0, 2.0)), unit_coeffs(mesh)
        ),
        "sigma": lambda: FluxWorkspace.from_mesh(mesh, Coefficients.constant(mesh, 50.0)),
        "nu": lambda: FluxWorkspace.from_mesh(mesh, Coefficients.constant(mesh, 1.0, 2.0)),
    }

    def run(ws):
        return minimize_majorant(
            mesh, bench.coefficients, bench.period, "forward", state,
            mode_evaluators(bench), consts, mode=1, workspace=ws,
        )

    with pytest.raises(ValueError, match="workspace"):
        run(workspaces[other]())
    assert run(FluxWorkspace.from_mesh(mesh, unit_coeffs(mesh))).majorant_sq > 0.0


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


@pytest.mark.parametrize("kind", ["forward", "ocp"])
@pytest.mark.parametrize("k", [0, 1])
def test_residual_forms_match_quadrature(kind, k):
    # the quadratic forms that steer the majorant iterations give the
    # quadrature's residuals for any fields and fluxes, with variable
    # coefficients: the forward pair, and the state and adjoint pairs
    mesh = build_box_mesh(2)
    rng = np.random.default_rng(5)
    co = Coefficients(
        rng.uniform(0.5, 2.0, mesh.num_tets), rng.uniform(0.5, 2.0, mesh.num_tets)
    )
    ws = FluxWorkspace.from_mesh(mesh, co)
    period = PeriodSpec(TWO_PI, 1)
    eta, zeta, tau, rho = (
        tuple(rng.standard_normal(mesh.num_edges) for _ in range(2)) for _ in range(4)
    )

    def fc(p):
        return np.column_stack([np.sin(p[:, 0]), np.cos(p[:, 1]), p[:, 2] ** 2])

    def fs(p):
        return np.column_stack([p[:, 1], np.exp(-p[:, 0]), np.sin(3 * p[:, 2])])

    if kind == "forward":
        quadrature = residuals_forward(mesh, co, period, k, eta, tau, (fc, fs))
        forms = residual_forms(ws, period, k, eta, (tau,), (fc, fs))
    else:
        quadrature = residuals_ocp(
            mesh, co, period, k, eta, zeta, tau, rho, (fc, fs), 0.7
        )
        forms = residual_forms(ws, period, k, eta, (tau, rho), (fc, fs), zeta, 0.7)
    assert len(forms) == len(quadrature)
    np.testing.assert_allclose(forms, quadrature, rtol=1e-10)


def test_residual_forms_keep_a_residual_the_flux_nearly_cancels():
    # The mean mode's load is curl t0 per tet and its flux t0 + 1e-4 r, so
    # the equation residual is 1e-4 of the load: quadratic forms in the
    # flux lose it to cancellation (1.2e-8 relative here), the per-tet
    # sums keep it to rounding.
    mesh = build_box_mesh(3)
    ws = FluxWorkspace.from_mesh(mesh, unit_coeffs(mesh))
    period = PeriodSpec(TWO_PI, 1)
    rng = np.random.default_rng(13)
    t0, r, phi = rng.standard_normal((3, mesh.num_edges))
    zero = np.zeros(mesh.num_edges)

    def load(p):
        return np.repeat(fe_curls(mesh, t0), TET_P5_WEIGHTS.size, axis=0)

    eta, tau = (phi, zero), (t0 + 1e-4 * r, zero)
    quadrature = residuals_forward(mesh, ws.coefficients, period, 0, eta, tau, (load, load))
    forms = residual_forms(ws, period, 0, eta, (tau,), (load, load))
    np.testing.assert_allclose(forms, quadrature, rtol=1e-10)


@pytest.mark.parametrize("kind, alpha", [("forward", None), ("ocp", 0.5)])
def test_reported_bound_is_the_quadrature_of_the_final_fluxes(monkeypatch, kind, alpha):
    # the per-tet sums that steer the iterations also report the bound:
    # each mode's reported bound and its residual sums are the reference
    # quadrature of its last flux step's fluxes up to rounding, and its
    # last trace row as computed; the total is their sum plus the tail's
    steps = []  # the fluxes of every step of every bound, as summed
    residual_sums = estimator._residual_sums
    monkeypatch.setattr(
        estimator, "_residual_sums", lambda *args: steps.append(args[3]) or residual_sums(*args)
    )
    report = _majorant(kind, 2, 1, alpha=alpha, error_sq=1.0)
    # one flux step per iteration of every mode's bound, the live ones in
    # mode order
    assert len(steps) == sum(len(m.trace) for m in report.modes)
    step, final = iter(steps), {}
    for iteration in range(max(len(m.trace) for m in report.modes)):
        live = [k for k, m in enumerate(report.modes) if len(m.trace) > iteration]
        final.update((k, next(step)) for k in live)
    bench = build_benchmark(kind, 2, 1, alpha=alpha)
    fields, _ = solve_benchmark(bench)
    state = full_field(bench.dofmap, fields["state"])
    adjoint = None if kind == "forward" else full_field(bench.dofmap, fields["adjoint"])
    period, loads = bench.period, mode_evaluators(bench)
    consts = stability_constants(kind, "seminorm", bench.coefficients, alpha=alpha)
    pairs = 1 if kind == "forward" else 2
    for k, mode in enumerate(report.modes):
        members = 1 if k == 0 else 2
        fluxes = iter(final[k])  # pair by pair, member by member
        flux = [tuple(next(fluxes) for _ in range(members)) for _ in range(pairs)]
        w = period.T if k == 0 else 0.5 * period.T
        if kind == "forward":
            res = residuals_forward(
                bench.mesh, bench.coefficients, period, k, state.mode(k), *flux, loads(k)
            )
            value = majorant_forward(w * res[0], w * res[1], consts, beta=mode.betas[0])
        else:
            res = residuals_ocp(
                bench.mesh, bench.coefficients, period, k, state.mode(k),
                adjoint.mode(k), *flux, loads(k), alpha,
            )
            value = majorant_ocp(*(w * r for r in res), consts, mode.betas)
        for key, r in zip(("r1", "r2", "r3", "r4"), res):
            np.testing.assert_allclose(mode.residual_sums[key], w * r, rtol=1e-13)
        np.testing.assert_allclose(mode.majorant_sq, value, rtol=1e-13)
        assert mode.majorant_sq == mode.trace[-1].majorant_sq
        assert mode.betas == mode.trace[-1].betas
    tail = remainder(bench.data_profile, PROFILE_NORM_SQ, period)
    if kind == "forward":
        tail_sq = majorant_forward(0.0, 0.0, consts, BETA_MIN, tail=tail)
    else:
        tail_sq = majorant_ocp(0.0, 0.0, 0.0, 0.0, consts, (BETA_MIN,) * 3, tail=tail)
    summed = sum(m.majorant_sq for m in report.modes) + tail_sq
    np.testing.assert_allclose(report.majorant_sq, summed, rtol=1e-13)
    assert report.efficiency == report.majorant_sq
    assert (report.betas, report.trace, report.tail) == ((), [], tail)


def test_low_alpha_iterations_stop_at_the_form_noise():
    # At this alpha every squared bound is about 1e12 and settles within
    # a few iterations; from there the sums' rounding noise, about 1e-14
    # of the bound, exceeds its 4-ulp floor and must stop the loop rather
    # than run on (9, 10 and 9 iterations without the noise term).
    alpha = 10.0**-1.9375
    bench = build_benchmark("ocp", 6, 2, alpha=alpha)
    fields, _ = solve_benchmark(bench)
    state = full_field(bench.dofmap, fields["state"])
    adjoint = full_field(bench.dofmap, fields["adjoint"])
    consts = stability_constants("ocp", "seminorm", bench.coefficients, alpha=alpha)
    tail = remainder(bench.data_profile, PROFILE_NORM_SQ, bench.period)
    total = minimize_majorant(
        bench.mesh, bench.coefficients, bench.period, "ocp", state,
        mode_evaluators(bench), consts, adjoint=adjoint, alpha=alpha, tail=tail,
    )
    assert total.converged
    assert [m.mode for m in total.modes] == [0, 1, 2]
    for report, most in zip(total.modes, (8, 7, 8)):
        assert report.converged
        assert len(report.trace) <= most


def test_friedrichs_constant_below_the_domain_is_refused():
    # the default constant is the unit cube's; on a larger box it
    # understates the domain's, and the bound would not be guaranteed
    mesh = build_box_mesh(2, box=(2.0, 2.0, 2.0))
    co = unit_coeffs(mesh)
    period = PeriodSpec(TWO_PI, 1)
    rng = np.random.default_rng(3)
    zero = np.zeros(mesh.num_edges)
    state = FourierField(
        rng.standard_normal(mesh.num_edges), [(rng.standard_normal(mesh.num_edges), zero)]
    )

    def loads(k):
        return (lambda p: np.ones_like(p), lambda p: p)

    default = stability_constants("forward", "seminorm", co)
    with pytest.raises(ValueError, match="Friedrichs"):
        minimize_majorant(mesh, co, period, "forward", state, loads, default)
    own = stability_constants(
        "forward", "seminorm", co, friedrichs=friedrichs_constant((2.0, 2.0, 2.0))
    )
    report = minimize_majorant(mesh, co, period, "forward", state, loads, own)
    assert report.converged and report.majorant_sq > 0.0
