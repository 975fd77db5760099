import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from eddymh.harmonics import PeriodSpec, fourier_coeff, remainder
from eddymh.mesh import build_box_mesh
from eddymh.presets import (
    _EXP_DATA,
    EIGENVALUE,
    MEAN_SHARE_BAND,
    PROFILE_CURL_SQ,
    PROFILE_NORM_SQ,
    _exp_data,
    benchmark_errors,
    build_benchmark,
    profile,
    profile_curl,
    scalar_forward_exact,
    scalar_ocp_exact,
    shared_factor,
    solve_benchmark,
)
from eddymh.systems import (
    build_forward,
    build_forward0,
    build_ocp,
    build_ocp0,
    mode_factor,
    solve_mode,
)
from fem_oracles import difference_norms, field_norms

TWO_PI = 2.0 * math.pi
E2PI = math.exp(TWO_PI) - 1.0

# Coefficients (c_k, s_k) of e^t cos t and e^t sin t, and the exponential
# data sets as (modes, time profile); vectorized.
exp_cos_modes, _ = _exp_data(1.0, 0.0)
exp_sin_modes, _ = _exp_data(0.0, 1.0)
forward_data_modes, forward_data_profile = _EXP_DATA["forward"]
ocp_data_modes, ocp_data_profile = _EXP_DATA["ocp"]


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


def _exact_reference(k, omega, data_modes, alpha=None):
    # the closed forms in exact rational arithmetic on the float inputs,
    # rounded once at the end: no intermediate overflows or underflows
    mu = Fraction(EIGENVALUE)
    kw = Fraction(float(k) * omega)
    gc, gs = (Fraction(float(v)) for v in data_modes(k))
    det = mu * mu + kw * kw
    if alpha is None:
        amps = ((mu * gc - kw * gs) / det, (kw * gc + mu * gs) / det)
    else:
        a = Fraction(alpha)
        ac, as_ = gc / (1 + a * det), gs / (1 + a * det)
        amps = (ac, as_, -a * (mu * ac + kw * as_), -a * (-kw * ac + mu * as_))
    return [float(v) for v in amps]


@pytest.mark.parametrize("k", [1, 2, 7])
def test_exact_amplitudes_at_a_tiny_period(k):
    # at period 1e-200, (k omega)^2 overflows: the amplitudes must still
    # come out nonzero, without a floating-point warning
    omega = PeriodSpec(1e-200, 7).omega
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forward = [float(v) for v in scalar_forward_exact(k, forward_data_modes, omega)]
        ocp = [float(v) for v in scalar_ocp_exact(k, 1e-300, ocp_data_modes, omega)]
        unit = [float(v) for v in scalar_ocp_exact(k, 1.0, ocp_data_modes, omega)]
    for got, alpha, modes in (
        (forward, None, forward_data_modes),
        (ocp, 1e-300, ocp_data_modes),
        (unit, 1.0, ocp_data_modes),
    ):
        expected = _exact_reference(k, omega, modes, alpha)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
    assert all(forward) and all(ocp)
    # at alpha 1 the state amplitudes (about 1e-401) underflow; the
    # adjoint ones (about 1e-201) must not
    assert unit[0] == unit[1] == 0.0 and all(unit[2:])


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
def test_exact_amplitudes_match_the_unscaled_formula(alpha):
    # at ordinary periods the scaled evaluation agrees with the direct one,
    # A = L^-1 g (forward), A = d / (1 + alpha |L|^2), P = -alpha L A (ocp),
    # and with the exact values of the closed forms.  P_s = -alpha
    # (-kw A_c + mu A_s) cancels near k = 50 at omega = 1, where the direct
    # formula itself is off by about 2e-14, so P is compared relative to
    # the size of its terms.
    k = np.arange(0, 60)
    for omega in (1.0, 0.1, 40.0):
        mu, kw = EIGENVALUE, k * omega
        det = mu * mu + kw * kw
        gc, gs = forward_data_modes(k)
        direct = ((mu * gc - kw * gs) / det, (kw * gc + mu * gs) / det)
        got = scalar_forward_exact(k, forward_data_modes, omega)
        np.testing.assert_allclose(got, direct, rtol=1e-14, atol=0.0)
        dc, ds = ocp_data_modes(k)
        ac, as_ = dc / (1.0 + alpha * det), ds / (1.0 + alpha * det)
        got = np.array(scalar_ocp_exact(k, alpha, ocp_data_modes, omega))
        np.testing.assert_allclose(got[:2], (ac, as_), rtol=1e-14, atol=0.0)
        for p, direct_p, terms in (
            (got[2], -alpha * (mu * ac + kw * as_), (mu * ac, kw * as_)),
            (got[3], -alpha * (-kw * ac + mu * as_), (kw * ac, mu * as_)),
        ):
            size = alpha * (np.abs(terms[0]) + np.abs(terms[1]))
            assert np.all(np.abs(p - direct_p) <= 1e-14 * size)
        exact = np.array([_exact_reference(j, omega, ocp_data_modes, alpha) for j in k])
        np.testing.assert_allclose(got, exact.T, rtol=1e-14, atol=0.0)


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


@pytest.mark.parametrize("kind, alpha", [("forward", None), ("ocp", 0.7)])
def test_error_modes_match_the_difference_norms_oracle(kind, alpha):
    # each member's squared errors integrated against its own scaled
    # evaluators, as the oracle does, give the same mode contributions
    bench = build_benchmark(kind, 3, 2, alpha=alpha)
    fields, _ = solve_benchmark(bench)
    errors = benchmark_errors(bench, fields)
    omega, T = bench.period.omega, bench.period.T
    exact = {"state": bench.exact_state, "adjoint": bench.exact_adjoint}
    for name, err in errors.items():
        for k, semi in enumerate(err.semi_modes):
            members = list(zip(exact[name](k), fields[name].mode(k)))[: 1 if k == 0 else 2]
            l2 = curl = 0.0
            for amp, coef in members:
                dl2, dcurl = difference_norms(
                    bench.mesh,
                    bench.dofmap.extend(coef),
                    lambda p, a=float(amp): a * profile(p),
                    lambda p, a=float(amp): a * profile_curl(p),
                )
                l2, curl = l2 + dl2, curl + dcurl
            expected = (T if k == 0 else 0.5 * T) * (k * omega * l2 + curl)
            assert semi == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "kind, n, N, alpha", [("forward", 3, 3, None), ("ocp", 2, 2, 0.7)]
)
def test_concurrent_solve_equals_mode_by_mode_solves(kind, n, N, alpha):
    # at the default period every mode, the mean mode included, shares one
    # factor in the concurrent solve; given the same factor, the
    # mode-by-mode solves must agree bit for bit
    bench = build_benchmark(kind, n, N, alpha=alpha)
    assert bench.period.omega * math.sqrt(N) <= MEAN_SHARE_BAND
    fields, stats = solve_benchmark(bench)
    assert len(stats) == N + 1
    lu = shared_factor(bench)
    for k in range(N + 1):
        parts, st = solve_mode(_mode_system(bench, k, lu))
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


def _mode_system(bench, k, lu=None):
    loads = bench.mode_load(k)
    if bench.kind == "forward":
        return build_forward(k, bench.matrices, bench.period, *loads, lu=lu)
    return build_ocp(k, bench.matrices, bench.alpha, bench.period, *loads, lu=lu)


@pytest.mark.parametrize(
    "kind, n, N, alpha", [("forward", 3, 3, None), ("ocp", 3, 3, 0.0115), ("ocp", 3, 3, 31.6)]
)
def test_shared_factor_solutions_match_per_mode_factors(kind, n, N, alpha):
    # the preconditioner changes only the path, not the solution: at a
    # tight tolerance both factors give the same fields, mean mode included
    bench = build_benchmark(kind, n, N, alpha=alpha)
    fields, stats = solve_benchmark(bench, tol=1e-12)
    assert all(st.converged for st in stats)
    for k in range(N + 1):
        parts, st = solve_mode(_mode_system(bench, k), tol=1e-12)
        assert st.converged
        for name, field in fields.items():
            prefix = {"state": "y", "adjoint": "p"}[name]
            got = [field.mode0] if k == 0 else field.mode(k)
            for value, member in zip(got, "cs"):
                want = parts[f"{prefix}_{member}"]
                scale = np.linalg.norm(want)
                assert np.linalg.norm(value - want) <= 1e-10 * scale


def _minres_counts(bench, lu=None):
    return [
        solve_mode(_mode_system(bench, k, lu))[1].iterations
        for k in range(1, bench.period.N + 1)
    ]


# worst MINRES count over modes 1..N with the shared factor, n = 4, exp
# preset, N = 2, 4, 16, 64 (with each mode's own factor: forward 12, 14,
# 20, 21; ocp 20, 20, 24, 26 at alpha 0.0115 and 12, 14, 20, 22 at 31.6)
SHARED_FACTOR_WORST_COUNTS = {
    ("forward", None): (12, 12, 14, 26),
    ("ocp", 0.0115): (20, 20, 20, 24),
    ("ocp", 31.6): (12, 12, 16, 26),
}


@pytest.mark.parametrize("kind, alpha", list(SHARED_FACTOR_WORST_COUNTS))
def test_shared_factor_keeps_minres_counts_near_per_mode_factors(kind, alpha):
    # one factor at kw* = omega sqrt(N) serves every harmonic up to the
    # truncation cap: the worst MINRES count stays within 1.5x of the
    # worst with each mode's own factor (which does not depend on N).
    # The pins allow one step of 2 for rounding on other BLAS builds.
    bench = build_benchmark(kind, 4, 64, alpha=alpha)
    own = _minres_counts(bench)
    pins = SHARED_FACTOR_WORST_COUNTS[kind, alpha]
    for N, pin in zip((2, 4, 16, 64), pins):
        case = dataclasses.replace(bench, period=PeriodSpec(TWO_PI, N))
        shared = _minres_counts(case, shared_factor(case))
        assert max(shared) <= 1.5 * max(own[:N]), (N, own[:N], shared)
        assert abs(max(shared) - pin) <= 2, (N, shared)


def _mean_count(bench, lu=None):
    return solve_mode(_mode_system(bench, 0, lu))[1].iterations


@pytest.mark.parametrize("kind, alpha", list(SHARED_FACTOR_WORST_COUNTS))
def test_mean_mode_inside_the_band_keeps_its_minres_count_near_its_own(kind, alpha):
    # at the default period the mean mode solves with P*.  Up to N = 4 its
    # count stays within 1.5x of its count on its own factor (n = 4:
    # forward 5-6 against 5, ocp 18-20 against 18 at alpha 0.0115 and 12
    # against 8 at 31.6); at N = 16 and 64 it may take more (up to 18
    # against 8 at 31.6) but no more than the slowest mode k >= 1 on P*
    bench = build_benchmark(kind, 4, 1, alpha=alpha)
    own = _mean_count(bench)
    for N in (1, 2, 4, 16, 64):
        case = dataclasses.replace(bench, period=PeriodSpec(TWO_PI, N))
        assert case.period.omega * math.sqrt(N) <= MEAN_SHARE_BAND
        lu = shared_factor(case)
        shared = _mean_count(case, lu)
        if N <= 4:
            assert shared <= 1.5 * own, (N, own, shared)
        else:
            assert shared <= max(_minres_counts(case, lu)), (N, shared)


@pytest.mark.parametrize("kind, alpha", [("forward", None), ("ocp", 1.0)])
def test_mean_mode_above_the_band_solves_on_its_own_factor(kind, alpha):
    # at period 0.1 and N = 2, kw* = 20 pi sqrt(2) is about 89: the mean
    # mode factors its own, exactly as its builder does without a factor
    bench = build_benchmark(kind, 3, 2, alpha=alpha, T=0.1, preset="trig")
    assert bench.period.omega * math.sqrt(2) > MEAN_SHARE_BAND
    fields, stats = solve_benchmark(bench)
    (load,) = bench.mode_load(0)
    if kind == "forward":
        system = build_forward0(bench.matrices, load)
    else:
        system = build_ocp0(bench.matrices, alpha, load)
    parts, st = solve_mode(system)
    assert (st.iterations, st.relative_residual, st.converged) == (
        stats[0].iterations,
        stats[0].relative_residual,
        stats[0].converged,
    )
    for name, field in fields.items():
        np.testing.assert_array_equal(field.mode0, parts[{"state": "y_c", "adjoint": "p_c"}[name]])


@pytest.mark.parametrize("kind, alpha", [("forward", None), ("ocp", 0.7)])
def test_a_case_factors_one_mode_preconditioner(monkeypatch, kind, alpha):
    # inside the band a case factors P* at kw* = sqrt(N) only; at N = 0
    # the mean mode factors its own (kw = 1 forward, 0 ocp), and above the
    # band it factors its own beside P*.  The gauge's nodal factors are
    # not mode factors.
    frequencies = []

    def counting(*args, **kwargs):
        frequencies.append(args[1])
        return mode_factor(*args, **kwargs)

    monkeypatch.setattr("eddymh.systems.mode_factor", counting)
    monkeypatch.setattr("eddymh.presets.mode_factor", counting)
    own = 1.0 if kind == "forward" else 0.0
    for N, T, preset, expected in (
        (1, TWO_PI, "exp", [1.0]),
        (4, TWO_PI, "exp", [2.0]),
        (0, TWO_PI, "exp", [own]),
        (2, 0.1, "trig", [own, 20.0 * math.pi * math.sqrt(2.0)]),
    ):
        frequencies.clear()
        solve_benchmark(build_benchmark(kind, 2, N, alpha=alpha, T=T, preset=preset))
        assert sorted(frequencies) == pytest.approx(expected), (N, T, frequencies)


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
