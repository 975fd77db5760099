import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eddymh.quadrature import (
    TET_P5_POINTS,
    TET_P5_WEIGHTS,
    _gauss_jacobi,
    conical_tet_rule,
    gauss_time_rule,
)
from fem_oracles import TET_P2_BARY, TET_P2_WEIGHTS


def monomial_integral(a, b, c):
    # int_T x^a y^b z^c = a! b! c! / (a + b + c + 3)! on the reference tet
    return (
        math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


def monomials_up_to(degree):
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                yield a, b, c


def test_p2_rule_exact_to_degree_2():
    pts = TET_P2_BARY[:, 1:]  # cartesian coords on the reference tet
    for a, b, c in monomials_up_to(2):
        val = np.sum(TET_P2_WEIGHTS * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
        assert val == pytest.approx(monomial_integral(a, b, c), rel=1e-14)


def test_p2_weights_sum_to_volume():
    assert TET_P2_WEIGHTS.sum() == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert np.all(TET_P2_BARY >= 0.0)
    np.testing.assert_allclose(TET_P2_BARY.sum(axis=1), 1.0, rtol=1e-14)


def test_conical_rule_exact_to_degree_5():
    for a, b, c in monomials_up_to(5):
        val = np.sum(
            TET_P5_WEIGHTS
            * TET_P5_POINTS[:, 0] ** a
            * TET_P5_POINTS[:, 1] ** b
            * TET_P5_POINTS[:, 2] ** c
        )
        assert val == pytest.approx(monomial_integral(a, b, c), rel=1e-13)


def test_conical_rule_exact_to_degree_9():
    pts, wts = conical_tet_rule(5)
    for a, b, c in monomials_up_to(9):
        val = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
        assert val == pytest.approx(monomial_integral(a, b, c), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("a", [2.0, 1.0, 0.0])  # the conical rule's three weights
def test_gauss_jacobi_matches_scipy(n, a):
    from scipy.special import roots_jacobi

    nodes, weights = _gauss_jacobi(n, a, 0.0)
    expected_nodes, expected_weights = roots_jacobi(n, a, 0.0)
    np.testing.assert_allclose(nodes, expected_nodes, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(weights, expected_weights, rtol=1e-14)


def test_import_leaves_scipy_special_out():
    # scipy.special costs about a tenth of the package's import time, and
    # the quadrature rules need none of it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, eddymh; sys.exit('scipy.special' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_conical_rules_agree_on_smooth_integrand():
    # non-polynomial integrand: degree-5 and degree-9 must agree closely
    f = lambda p: np.exp(p[:, 0]) * np.sin(np.pi * p[:, 1]) * np.cos(p[:, 2])
    v5 = np.sum(TET_P5_WEIGHTS * f(TET_P5_POINTS))
    pts9, wts9 = conical_tet_rule(5)
    v9 = np.sum(wts9 * f(pts9))
    assert v5 == pytest.approx(v9, abs=5e-5)


def test_time_rule_weights_and_polynomials():
    T = 2.0 * np.pi
    t, w = gauss_time_rule(T, panels=4, points=6)
    assert w.sum() == pytest.approx(T, rel=1e-14)
    for p in range(8):
        assert np.sum(w * t**p) == pytest.approx(T ** (p + 1) / (p + 1), rel=1e-12)


def test_time_rule_exp_sin():
    # int_0^{2 pi} e^t sin t dt = (1 - e^{2 pi}) / 2
    T = 2.0 * np.pi
    t, w = gauss_time_rule(T, panels=10, points=8)
    val = np.sum(w * np.exp(t) * np.sin(t))
    assert val == pytest.approx((1.0 - math.exp(T)) / 2.0, rel=1e-12)
