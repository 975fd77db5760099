import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from eddymh.edge_fem import Coefficients, DofMap, assemble
from eddymh.harmonics import (
    FourierField,
    PeriodSpec,
    fourier_coeff,
    friedrichs_constant,
    remainder,
)
from eddymh.mesh import build_box_mesh, gradient_incidence
from eddymh.presets import _EXP_DATA, EIGENVALUE

TWO_PI = 2.0 * math.pi
E2PI = math.exp(TWO_PI) - 1.0


def exp_sin_coeff(k):
    # closed-form Fourier coefficients of e^t sin t on [0, 2 pi]
    if k == 0:
        return -E2PI / (4.0 * math.pi), 0.0
    c = -(E2PI / (2.0 * math.pi)) * (
        (1 - k) / (1 + (1 - k) ** 2) + (1 + k) / (1 + (1 + k) ** 2)
    )
    s = (E2PI / (2.0 * math.pi)) * (
        1.0 / (1 + (1 - k) ** 2) - 1.0 / (1 + (1 + k) ** 2)
    )
    return c, s


def random_field(rng, dim, N):
    return FourierField(
        rng.normal(size=dim),
        [(rng.normal(size=dim), rng.normal(size=dim)) for _ in range(N)],
    )


def test_period_spec():
    p = PeriodSpec(TWO_PI, 2)
    assert p.omega * p.T == pytest.approx(TWO_PI, rel=1e-14)
    with pytest.raises(ValueError):
        PeriodSpec(0.0, 1)
    with pytest.raises(ValueError):
        PeriodSpec(1.0, -1)


def test_fourier_coeff_orthonormality():
    p = PeriodSpec(TWO_PI, 3)
    c, s = fourier_coeff(lambda t: np.cos(t), 1, p)
    assert c == pytest.approx(1.0, abs=1e-12)
    assert s == pytest.approx(0.0, abs=1e-12)
    mean, z = fourier_coeff(lambda t: np.ones_like(t), 0, p)
    assert mean == pytest.approx(1.0, rel=1e-13) and z == 0.0
    c, s = fourier_coeff(lambda t: np.ones_like(t), 2, p)
    assert abs(c) < 1e-12 and abs(s) < 1e-12


def test_fourier_coeff_exp_sin_closed_form():
    p = PeriodSpec(TWO_PI, 3)
    g = lambda t: np.exp(t) * np.sin(t)
    # frozen closed forms: c1 = (1 - e^{2 pi})/(5 pi), s1 = 2(e^{2 pi} - 1)/(5 pi)
    c1, s1 = fourier_coeff(g, 1, p)
    assert c1 == pytest.approx((1.0 - math.exp(TWO_PI)) / (5.0 * math.pi), rel=1e-9)
    assert s1 == pytest.approx(2.0 * E2PI / (5.0 * math.pi), rel=1e-9)
    c2, s2 = fourier_coeff(g, 2, p)
    assert c2 == pytest.approx(E2PI / (10.0 * math.pi), rel=1e-9)
    assert s2 == pytest.approx(E2PI / (5.0 * math.pi), rel=1e-9)
    mean, _ = fourier_coeff(g, 0, p)
    assert mean == pytest.approx(-E2PI / (4.0 * math.pi), rel=1e-9)


def test_fourier_coeff_rejects_nonfinite():
    p = PeriodSpec(TWO_PI, 1)
    # the test's own division by zero makes the non-finite samples
    with np.errstate(divide="ignore"), pytest.raises(ValueError):
        fourier_coeff(lambda t: 1.0 / (t - t[0]), 1, p)


def test_remainder_trivial_cases():
    p = PeriodSpec(TWO_PI, 1)
    assert remainder(lambda t: np.sin(t), 3.0, p) == pytest.approx(0.0, abs=1e-10)
    g = lambda t: np.sin(t) + np.sin(2 * t)
    # dropped mode carries (T/2) * ||s||^2
    assert remainder(g, 3.0, p) == pytest.approx(0.5 * TWO_PI * 3.0, rel=1e-12)


def test_remainder_exp_sin_tail_oracle():
    g = lambda t: np.exp(t) * np.sin(t)
    values = [remainder(g, 1.0, PeriodSpec(TWO_PI, N)) for N in range(6)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    for N in (1, 2, 4):
        tail = sum(
            0.5 * TWO_PI * (c * c + s * s)
            for c, s in (exp_sin_coeff(k) for k in range(N + 1, 2001))
        )
        assert values[N] == pytest.approx(tail, rel=1e-6)


@pytest.mark.parametrize("N", [20, 30, 40])
@pytest.mark.parametrize("kind", ["forward", "ocp"])
def test_time_rule_resolves_every_harmonic(kind, N):
    # the data profiles e^t (a cos t + b sin t) against their closed-form
    # modes: ||g||^2 = (e^{4 pi} - 1) ((a^2 + b^2)/4 + (a^2 - b^2)/8 - ab/4)
    m = EIGENVALUE + 1.0
    modes, g, (a, b) = {
        "forward": (*_EXP_DATA["forward"], (1.0, m)),
        "ocp": (*_EXP_DATA["ocp"], (-m, 1.0 + m * m)),
    }[kind]
    total = math.expm1(4.0 * math.pi) * (
        (a * a + b * b) / 4.0 + (a * a - b * b) / 8.0 - a * b / 4.0
    )
    c, s = modes(np.arange(N + 1))
    tail = total - TWO_PI * c[0] ** 2 - 0.5 * TWO_PI * np.sum(c[1:] ** 2 + s[1:] ** 2)
    period = PeriodSpec(TWO_PI, N)
    assert remainder(g, 1.0, period) == pytest.approx(tail, rel=1e-7)
    np.testing.assert_allclose(fourier_coeff(g, N, period), (c[N], s[N]), rtol=1e-6)


def test_parseval_totals():
    # T mean^2 + (T/2) sum + tail = ||g||^2 = (e^{4 pi} - 1)/8 for e^t sin t
    p = PeriodSpec(TWO_PI, 4)
    g = lambda t: np.exp(t) * np.sin(t)
    mean, _ = fourier_coeff(g, 0, p)
    head = TWO_PI * mean**2
    for k in range(1, 5):
        c, s = fourier_coeff(g, k, p)
        head += 0.5 * TWO_PI * (c * c + s * s)
    total = head + remainder(g, 1.0, p)
    assert total == pytest.approx((math.exp(4 * math.pi) - 1.0) / 8.0, rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_perp_properties(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(4, 4))
    M = A @ A.T + 4.0 * np.eye(4)
    v = random_field(rng, 4, 3)
    # involution up to sign, mode-wise
    w = v.perp().perp()
    np.testing.assert_array_equal(w.mode0, 0.0)
    for k in range(1, 4):
        np.testing.assert_allclose(w.mode(k)[0], -v.mode(k)[0], atol=0)
        np.testing.assert_allclose(w.mode(k)[1], -v.mode(k)[1], atol=0)
    # isometry of the perpendicular map in the M-weighted mode norms
    vp = v.perp()
    for k in range(1, 4):
        c, s = v.mode(k)
        pc, ps = vp.mode(k)
        assert c @ M @ c + s @ M @ s == pytest.approx(pc @ M @ pc + ps @ M @ ps, rel=1e-13)


def test_field_dimension_mismatch():
    with pytest.raises(ValueError):
        FourierField(np.zeros(2), [(np.zeros(3), np.zeros(3))])


def test_friedrichs_constant_values():
    assert friedrichs_constant() == pytest.approx(1.0 / (math.sqrt(2.0) * math.pi), rel=1e-15)
    # box (1,1,2): smallest pair sum is 1 + 1/4
    assert friedrichs_constant((1, 1, 2)) == pytest.approx(
        1.0 / (math.pi * math.sqrt(1.25)), rel=1e-15
    )
    with pytest.raises(ValueError):
        friedrichs_constant((1.0, 0.0, 1.0))


def test_discrete_friedrichs_on_gauged_fields():
    # the sharp discrete constant comes from the gauged eigenvalue oracle
    mesh = build_box_mesh(2)
    dof = DofMap.from_mesh(mesh)
    co = Coefficients.constant(mesh)
    K = assemble(mesh, co, "stiffness", dof).toarray()
    M = assemble(mesh, co, "mass", dof).toarray()
    lam = linalg.eigh(K, M, eigvals_only=True)
    kdim = 1  # one interior node on n=2
    lam_min = lam[kdim]
    # the discrete eigenvalue sits below the continuous 2 pi^2, converging up
    assert 0.85 * 2 * math.pi**2 < lam_min < 2 * math.pi**2
    G = gradient_incidence(mesh)[:, mesh.interior_nodes()].toarray()[dof.free]
    rng = np.random.default_rng(12)
    for _ in range(10):
        v = rng.normal(size=dof.free.size)
        # M-orthogonal projection away from the gradient kernel
        coef = linalg.solve(G.T @ M @ G, G.T @ (M @ v))
        v = v - G @ coef
        assert v @ M @ v <= (1.0 + 1e-9) / lam_min * (v @ K @ v)
