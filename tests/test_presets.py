import dataclasses
import math

import numpy as np
import pytest

from eddymh.edge_fem import field_norms
from eddymh.harmonics import PeriodSpec, fourier_coeff, remainder
from eddymh.mesh import build_box_mesh
from eddymh.presets import (
    EIGENVALUE,
    PROFILE_CURL_SQ,
    PROFILE_NORM_SQ,
    benchmark_errors,
    build_benchmark,
    exp_cos_modes,
    exp_sin_modes,
    forward_data_modes,
    forward_data_profile,
    ocp_data_modes,
    ocp_data_profile,
    profile,
    profile_curl,
    scalar_forward_exact,
    scalar_ocp_exact,
    solve_benchmark,
)
from eddymh.systems import build_forward, build_ocp, solve_mode

TWO_PI = 2.0 * math.pi
E2PI = math.exp(TWO_PI) - 1.0


def test_exp_sin_frozen_values():
    c, s = exp_sin_modes(np.array([0, 1, 2]))
    expected_c = [-E2PI / (4 * math.pi), -E2PI / (5 * math.pi), E2PI / (10 * math.pi)]
    expected_s = [0.0, 2 * E2PI / (5 * math.pi), E2PI / (5 * math.pi)]
    np.testing.assert_allclose(c, expected_c, rtol=1e-14)
    np.testing.assert_allclose(s, expected_s, rtol=1e-14)


def test_exp_cos_frozen_values():
    c, s = exp_cos_modes(np.array([0, 1, 2]))
    expected_c = [E2PI / (4 * math.pi), 3 * E2PI / (5 * math.pi), 3 * E2PI / (10 * math.pi)]
    expected_s = [0.0, -E2PI / (5 * math.pi), -2 * E2PI / (5 * math.pi)]
    np.testing.assert_allclose(c, expected_c, rtol=1e-14)
    np.testing.assert_allclose(s, expected_s, rtol=1e-14)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 17])
def test_closed_forms_match_quadrature(k):
    period = PeriodSpec(TWO_PI, 1)
    c, s = fourier_coeff(lambda t: np.exp(t) * np.sin(t), k, period, m=4000)
    cc, cs = exp_sin_modes(k)
    np.testing.assert_allclose([c, s], [cc, cs], rtol=1e-9, atol=1e-9 * E2PI)
    c, s = fourier_coeff(lambda t: np.exp(t) * np.cos(t), k, period, m=4000)
    cc, cs = exp_cos_modes(k)
    np.testing.assert_allclose([c, s], [cc, cs], rtol=1e-9, atol=1e-9 * E2PI)


def test_data_profiles_match_their_modes():
    period = PeriodSpec(TWO_PI, 1)
    for modes, prof in (
        (forward_data_modes, forward_data_profile),
        (ocp_data_modes, ocp_data_profile),
    ):
        for k in (0, 2, 6):
            c, s = fourier_coeff(prof, k, period, m=4000)
            cc, cs = modes(k)
            scale = abs(cc) + abs(cs) + 1.0
            np.testing.assert_allclose([c, s], [cc, cs], atol=1e-8 * scale)


def test_forward_modes_solve_the_modal_equations():
    # the exact state e^t sin t must satisfy mu a_c + k a_s = g_c,
    # -k a_c + mu a_s = g_s for every mode of the load
    k = np.arange(0, 31)
    ac, as_ = exp_sin_modes(k)
    gc, gs = forward_data_modes(k)
    np.testing.assert_allclose(EIGENVALUE * ac + k * as_, gc, rtol=1e-12)
    np.testing.assert_allclose(-k * ac + EIGENVALUE * as_, gs, rtol=1e-12, atol=1e-15)


def test_scalar_forward_exact_recovers_sin_modes():
    k = np.arange(0, 31)
    ac, as_ = scalar_forward_exact(k, forward_data_modes)
    ec, es = exp_sin_modes(k)
    np.testing.assert_allclose(ac, ec, rtol=1e-12)
    np.testing.assert_allclose(as_, es, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("k", [0, 1, 2, 7])
def test_scalar_ocp_exact_vs_dense_solve(k, alpha):
    mu = EIGENVALUE
    dc, ds = (float(v) for v in ocp_data_modes(k))
    if k == 0:
        mat = np.array([[1.0, -mu], [-mu, -1.0 / alpha]])
        a0, p0 = np.linalg.solve(mat, [dc, 0.0])
        ac, as_, pc, ps = (float(v) for v in scalar_ocp_exact(0, alpha, ocp_data_modes))
        np.testing.assert_allclose([ac, pc], [a0, p0], rtol=1e-12)
        assert as_ == 0.0 and ps == 0.0
        return
    mat = np.array(
        [
            [1.0, 0.0, -mu, k],
            [0.0, 1.0, -k, -mu],
            [-mu, -k, -1.0 / alpha, 0.0],
            [k, -mu, 0.0, -1.0 / alpha],
        ]
    )
    ref = np.linalg.solve(mat, [dc, ds, 0.0, 0.0])
    got = [float(v) for v in scalar_ocp_exact(k, alpha, ocp_data_modes)]
    np.testing.assert_allclose(got, ref, rtol=1e-11)


def test_profile_norms_match_closed_forms():
    mesh = build_box_mesh(3)
    norm_sq, curl_sq = field_norms(mesh, profile, curl=profile_curl)
    np.testing.assert_allclose(norm_sq, PROFILE_NORM_SQ, rtol=1e-4)
    np.testing.assert_allclose(curl_sq, PROFILE_CURL_SQ, rtol=1e-4)


def test_profile_is_a_curl_curl_eigenfunction():
    # central differences of the analytic curl must reproduce
    # eigenvalue times the profile
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.95, size=(40, 3))
    h = 1e-5
    curl = np.zeros((40, 3))
    for i, (j, l) in enumerate(((1, 2), (2, 0), (0, 1))):
        dj = np.zeros(3)
        dj[j] = h
        dl = np.zeros(3)
        dl[l] = h
        dal = (profile_curl(pts + dj)[:, l] - profile_curl(pts - dj)[:, l]) / (2 * h)
        daj = (profile_curl(pts + dl)[:, j] - profile_curl(pts - dl)[:, j]) / (2 * h)
        curl[:, i] = dal - daj
    np.testing.assert_allclose(curl, EIGENVALUE * profile(pts), atol=1e-5)


def test_benchmark_input_validation():
    with pytest.raises(ValueError):
        build_benchmark("heat", 2, 1)
    with pytest.raises(ValueError):
        build_benchmark("ocp", 2, 1)
    with pytest.raises(ValueError):
        build_benchmark("forward", 2, 1, T=1.0)
    with pytest.raises(ValueError):
        build_benchmark("forward", 2, 1, preset="bessel")


def test_forward_benchmark_error_decreases_with_refinement():
    totals = []
    for n in (2, 3):
        bench = build_benchmark("forward", n, 2)
        fields, stats = solve_benchmark(bench)
        assert all(st.converged for st in stats)
        err = benchmark_errors(bench, fields)["state"]
        assert err.semi_tail > 0.0
        assert all(m > 0.0 for m in err.semi_modes)
        totals.append(err.semi_total)
    assert totals[1] < totals[0]


def test_trig_preset_is_truncation_free():
    bench = build_benchmark("forward", 2, 2, preset="trig", T=3.0)
    fields, stats = solve_benchmark(bench)
    assert all(st.converged for st in stats)
    err = benchmark_errors(bench, fields)["state"]
    assert err.semi_tail == 0.0
    tail = remainder(bench.data_profile, PROFILE_NORM_SQ, bench.period)
    assert abs(tail) < 1e-10


def test_ocp_benchmark_solves_both_fields():
    bench = build_benchmark("ocp", 2, 1, alpha=1.0)
    fields, stats = solve_benchmark(bench)
    assert all(st.converged for st in stats)
    errs = benchmark_errors(bench, fields)
    assert set(errs) == {"state", "adjoint"}
    for err in errs.values():
        assert math.isfinite(err.semi_total) and err.semi_total > 0.0
        assert err.norm_total >= err.semi_total - 1e-12


@pytest.mark.parametrize(
    "kind, n, N, alpha", [("forward", 3, 3, None), ("ocp", 2, 2, 0.7)]
)
def test_concurrent_solve_equals_mode_by_mode_solves(kind, n, N, alpha):
    bench = build_benchmark(kind, n, N, alpha=alpha)
    fields, stats = solve_benchmark(bench)
    assert len(stats) == N + 1
    for k in range(N + 1):
        loads = bench.mode_load(k)
        if kind == "forward":
            system = build_forward(k, bench.matrices, bench.period, *loads)
        else:
            system = build_ocp(k, bench.matrices, alpha, bench.period, *loads)
        parts, st = solve_mode(system)
        assert st.iterations == stats[k].iterations
        assert st.relative_residual == stats[k].relative_residual
        for name, field in fields.items():
            prefix = {"state": "y", "adjoint": "p"}[name]
            if k == 0:
                np.testing.assert_array_equal(field.mode0, parts[f"{prefix}_c"])
            else:
                got_c, got_s = field.mode(k)
                np.testing.assert_array_equal(got_c, parts[f"{prefix}_c"])
                np.testing.assert_array_equal(got_s, parts[f"{prefix}_s"])


def test_concurrent_solve_raises_a_mode_failure():
    # a pure-gradient load makes the mean mode inconsistent; the other
    # modes solve, and the pool must still hand the failure back
    bench = build_benchmark("forward", 2, 2)
    G = bench.matrices.G
    bench.load_vector = np.asarray(G @ np.ones(G.shape[1])).ravel()
    with pytest.raises(ValueError, match="inconsistent"):
        solve_benchmark(bench)


@pytest.mark.parametrize("preset", ["exp", "trig"])
def test_replaced_alpha_matches_a_fresh_build(preset):
    # an ocp run builds one benchmark and sweeps alpha by replacing it
    bench = dataclasses.replace(
        build_benchmark("ocp", 2, 1, alpha=0.5, preset=preset), alpha=2.0
    )
    fresh = build_benchmark("ocp", 2, 1, alpha=2.0, preset=preset)
    ks = np.arange(6)
    for name in ("exact_state", "exact_adjoint"):
        for got, want in zip(getattr(bench, name)(ks), getattr(fresh, name)(ks)):
            np.testing.assert_array_equal(got, want)
    errors = benchmark_errors(bench, solve_benchmark(bench)[0])
    expected = benchmark_errors(fresh, solve_benchmark(fresh)[0])
    for field in ("state", "adjoint"):
        assert errors[field].semi_modes == expected[field].semi_modes
        assert errors[field].semi_total == expected[field].semi_total
        assert errors[field].norm_total == expected[field].norm_total
