"""Quadrature rules on the reference tetrahedron and on time intervals.

The reference tetrahedron is ``T = {x >= 0, y >= 0, z >= 0, x + y + z <= 1}``
with volume 1/6.  One spatial rule serves the package: the conical-product
rule (degree 2n - 1) with n = 3, for integrands that involve analytic data.
Products of lowest-order edge functions need no rule: their mass integrals
have a closed form in the barycentric coordinates.
"""

import math

import numpy as np


def _gauss_jacobi(n, a, b):
    # The n-point Gauss rule for the weight (1 - x)^a (1 + x)^b on [-1, 1]
    # by Golub-Welsch: its nodes are the eigenvalues of the symmetric
    # tridiagonal matrix of the monic Jacobi recurrence, its weights mu0
    # (the weight's integral) times the squared first eigenvector entries.
    # The diagonal's k = 0 entry is written as its limit, finite at a + b = 0.
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    diag = (b - a) * np.append(1.0, (a + b) / s[1:]) / (s + 2.0)
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    return nodes, mu0 * vectors[0] ** 2


def conical_tet_rule(n):
    """Conical product rule with ``n**3`` points, exact to degree ``2n - 1``.

    Built from one-dimensional Gauss-Jacobi rules with weights ``(1-u)**2``,
    ``(1-v)`` and ``1`` under the collapsed coordinate map
    ``x = u, y = v(1-u), z = w(1-u)(1-v)``.

    Parameters
    ----------
    n : int
        Points per direction.

    Returns
    -------
    points : ndarray, shape (n**3, 3)
        Quadrature points on the reference tetrahedron.
    weights : ndarray, shape (n**3,)
        Weights summing to 1/6.
    """
    tu, wu = _gauss_jacobi(n, 2.0, 0.0)
    tv, wv = _gauss_jacobi(n, 1.0, 0.0)
    tw, ww = _gauss_jacobi(n, 0.0, 0.0)
    # map [-1, 1] -> [0, 1]; the Jacobi weight absorbs the Jacobian factors
    u, cu = (1.0 + tu) / 2.0, wu / 8.0
    v, cv = (1.0 + tv) / 2.0, wv / 4.0
    w, cw = (1.0 + tw) / 2.0, ww / 2.0
    U, V, W = np.meshgrid(u, v, w, indexing="ij")
    CU, CV, CW = np.meshgrid(cu, cv, cw, indexing="ij")
    x = U
    y = V * (1.0 - U)
    z = W * (1.0 - U) * (1.0 - V)
    points = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    weights = (CU * CV * CW).ravel()
    return points, weights


TET_P5_POINTS, TET_P5_WEIGHTS = conical_tet_rule(3)
TET_P5_BARY = np.column_stack([1.0 - TET_P5_POINTS.sum(axis=1), TET_P5_POINTS])


def gauss_time_rule(period, panels=10, points=8):
    """Composite Gauss-Legendre rule on ``[0, period]``.

    Returns
    -------
    t : ndarray, shape (panels * points,)
    w : ndarray, shape (panels * points,)
        Weights summing to ``period``.
    """
    x, wx = np.polynomial.legendre.leggauss(points)
    h = period / panels
    left = h * np.arange(panels)
    t = (left[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    w = np.tile(0.5 * h * wx, panels)
    return t, w
