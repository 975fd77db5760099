"""Test oracles for the edge-element layer.

Local element matrices from their defining integrals, and field norms by
direct quadrature, independent of the assembly the package uses.
"""

import numpy as np

from eddymh.edge_fem import basis_data, fe_curls, integrate_squared
from eddymh.mesh import LOCAL_EDGES
from eddymh.quadrature import TET_P2_BARY, TET_P2_WEIGHTS

_EA = LOCAL_EDGES[:, 0]
_EB = LOCAL_EDGES[:, 1]


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
    J = verts[1:] - verts[:1]
    vol = np.linalg.det(J) / 6.0
    if abs(vol) < 1e-14:
        raise ValueError("degenerate tet")
    g123 = np.linalg.inv(J).T
    grads = np.vstack([-g123.sum(axis=0, keepdims=True), g123])
    phi = (
        TET_P2_BARY[:, _EA, None] * grads[None, _EB, :]
        - TET_P2_BARY[:, _EB, None] * grads[None, _EA, :]
    )
    mass = 6.0 * abs(vol) * np.einsum("q,qei,qfi->ef", TET_P2_WEIGHTS, phi, phi)
    curls = 2.0 * np.cross(grads[_EA], grads[_EB])
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
    bd = basis_data(mesh)
    nt = mesh.num_tets
    w = np.ones(nt) if weight is None else np.broadcast_to(np.asarray(weight, float), (nt,))
    if callable(field):
        nq = bd.points.shape[1]
        F = np.asarray(field(bd.points.reshape(-1, 3))).reshape(nt, nq, 3)
        norm_sq = integrate_squared(mesh, F, w)
        if curl is None:
            return norm_sq, None
        C = np.asarray(curl(bd.points.reshape(-1, 3))).reshape(nt, nq, 3)
        return norm_sq, integrate_squared(mesh, C, w)
    coef = np.asarray(field, dtype=float)
    vals2 = np.einsum("tqei,te->tqi", bd.phi2, coef[mesh.tet_edges])
    sq = np.einsum("tqi,tqi->tq", vals2, vals2)
    norm_sq = float((6.0 * bd.vols * w * (sq @ TET_P2_WEIGHTS)).sum())
    cv = fe_curls(mesh, coef)
    curl_sq = float((w * bd.vols * np.einsum("ti,ti->t", cv, cv)).sum())
    return norm_sq, curl_sq
