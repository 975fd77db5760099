"""Test oracles for the edge-element layer.

Local element matrices from their defining integrals, and field norms by
direct quadrature, independent of the assembly the package uses: every
basis value here is built from the tet's vertices.  ``difference_norms``
measures an FE field against an analytic one by the degree-5 rule.
"""

import numpy as np

from eddymh.edge_fem import basis_data, fe_curls, fe_values, integrate_squared
from eddymh.mesh import LOCAL_EDGES
from eddymh.quadrature import TET_P5_WEIGHTS

_EA = LOCAL_EDGES[:, 0]
_EB = LOCAL_EDGES[:, 1]

# Degree-2 rule, 4 interior points, barycentric coordinates.
_A = 0.5854101966249685
_B = 0.1381966011250105
TET_P2_BARY = np.array(
    [
        [_A, _B, _B, _B],
        [_B, _A, _B, _B],
        [_B, _B, _A, _B],
        [_B, _B, _B, _A],
    ]
)
TET_P2_WEIGHTS = np.full(4, 0.25 / 6.0)  # sums to the reference volume 1/6


def whitney_values(verts, bary):
    """Whitney basis values and curls of tets given by their vertices.

    Orientation is by local vertex order (no global signs).

    Parameters
    ----------
    verts : array_like, shape (..., 4, 3)
    bary : array_like, shape (nq, 4)
        Barycentric coordinates of the evaluation points.

    Returns
    -------
    vol : ndarray, shape (...)
        Signed volumes.
    phi : ndarray, shape (..., nq, 6, 3)
    curls : ndarray, shape (..., 6, 3)
    """
    verts = np.asarray(verts, dtype=float)
    J = verts[..., 1:, :] - verts[..., :1, :]
    vol = np.linalg.det(J) / 6.0
    if np.any(abs(vol) < 1e-14):
        raise ValueError("degenerate tet")
    g123 = np.swapaxes(np.linalg.inv(J), -1, -2)
    grads = np.concatenate([-g123.sum(axis=-2, keepdims=True), g123], axis=-2)
    bary = np.asarray(bary, dtype=float)
    phi = (
        bary[:, _EA, None] * grads[..., None, _EB, :]
        - bary[:, _EB, None] * grads[..., None, _EA, :]
    )
    curls = 2.0 * np.cross(grads[..., _EA, :], grads[..., _EB, :])
    return vol, phi, curls


def element_matrices(verts, sigma=1.0, nu=1.0):
    """Local 6x6 mass, weighted mass, and curl-curl stiffness matrices.

    Local edge ordering follows ``LOCAL_EDGES``; orientation is by local
    vertex order (global signs are applied during assembly).

    Parameters
    ----------
    verts : array_like, shape (4, 3)
    sigma, nu : float
        Constant coefficient values on this tet.

    Returns
    -------
    mass, weighted_mass, stiffness : ndarray, shape (6, 6)
    """
    verts = np.asarray(verts, dtype=float).reshape(4, 3)
    vol, phi, curls = whitney_values(verts, TET_P2_BARY)
    mass = 6.0 * abs(vol) * np.einsum("q,qei,qfi->ef", TET_P2_WEIGHTS, phi, phi)
    stiffness = nu * abs(vol) * (curls @ curls.T)
    return mass, sigma * mass, stiffness


def field_norms(mesh, field, weight=None, curl=None):
    """Weighted L2 norm squared and curl seminorm squared of a field.

    Parameters
    ----------
    field : ndarray or callable
        Edge coefficient vector over all edges (computed exactly), or a
        point evaluator integrated with the degree-5 rule.
    weight : None, float, or per-tet array
    curl : callable, optional
        Curl evaluator for analytic fields; without it the seminorm is
        returned as None for callables.

    Returns
    -------
    (norm_sq, curl_sq)
    """
    nt = mesh.num_tets
    w = np.ones(nt) if weight is None else np.broadcast_to(np.asarray(weight, float), (nt,))
    if callable(field):
        bd = basis_data(mesh)
        nq = bd.points.shape[1]

        def weighted(f):
            F = np.asarray(f(bd.points.reshape(-1, 3))).reshape(nt, nq, 3)
            sq = np.einsum("tqi,tqi->tq", F, F) @ TET_P5_WEIGHTS
            return float((6.0 * bd.vols * w * sq).sum())

        return weighted(field), None if curl is None else weighted(curl)
    coef = np.asarray(field, dtype=float)
    vol, phi, _ = whitney_values(mesh.vertices[mesh.tets], TET_P2_BARY)
    signed = coef[mesh.tet_edges] * mesh.tet_edge_signs
    vals2 = np.einsum("tqei,te->tqi", phi, signed)
    sq = np.einsum("tqi,tqi->tq", vals2, vals2)
    norm_sq = float((6.0 * abs(vol) * w * (sq @ TET_P2_WEIGHTS)).sum())
    cv = fe_curls(mesh, coef)
    curl_sq = float((w * abs(vol) * np.einsum("ti,ti->t", cv, cv)).sum())
    return norm_sq, curl_sq


def difference_norms(mesh, coef, f, curl_f):
    """Norms of (f - FE field): returns (L2 norm^2, curl seminorm^2).

    The FE parts are linear/constant per tet, so the degree-5 rule leaves
    only the analytic-data approximation error.
    """
    bd = basis_data(mesh)
    nt, nq = bd.points.shape[:2]
    F = np.asarray(f(bd.points.reshape(-1, 3))).reshape(nt, nq, 3) - fe_values(mesh, coef)
    norm_sq = integrate_squared(mesh, F)
    C = np.asarray(curl_f(bd.points.reshape(-1, 3))).reshape(nt, nq, 3) - fe_curls(
        mesh, coef
    )[:, None, :]
    curl_sq = integrate_squared(mesh, C)
    return norm_sq, curl_sq
