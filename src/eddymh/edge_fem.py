"""Lowest-order Nedelec (edge) element discretization on tetrahedra.

The basis function attached to edge e = (a, b) is the Whitney form
``phi_e = lambda_a grad lambda_b - lambda_b grad lambda_a`` with
``curl phi_e = 2 grad lambda_a x grad lambda_b`` constant per tet.  Global
orientation follows ascending vertex indices; the per-tet signs from the mesh
make the assembled fields tangentially continuous.

Each is linear in the barycentric coordinates, ``phi_e = sum_i lambda_i w_ei``
with ``w_ea = grad lambda_b``, ``w_eb = -grad lambda_a`` and the other two
zero.  These vectors are the only basis table kept: point values apply the
points' barycentric coordinates, and the mass matrices use
``int lambda_i lambda_j = vol (1 + delta_ij) / 20`` exactly.
"""

import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from eddymh.mesh import LOCAL_EDGES
from eddymh.quadrature import TET_P5_BARY, TET_P5_POINTS, TET_P5_WEIGHTS

_EA = LOCAL_EDGES[:, 0]
_EB = LOCAL_EDGES[:, 1]

# int lambda_i lambda_j / vol, acting on the barycentric vectors of an edge
# flattened to 12 entries, vertex after vertex
_MASS_BARY = np.kron((np.ones((4, 4)) + np.eye(4)) / 20.0, np.eye(3))
# degree-5 weight times barycentric coordinate, (4, nq5)
_MOMENTS_P5 = (TET_P5_BARY * TET_P5_WEIGHTS[:, None]).T


@dataclass(eq=False)
class DofMap:
    """Mapping between all mesh edges and the free (interior) DOFs.

    Boundary edges carry the essential condition y x n = 0 and are removed by
    row/column elimination.  The free DOFs keep the mesh's edge order, so
    every free-DOF matrix arrives in the fill-reducing order of its factors.
    """

    num_edges: int
    free: np.ndarray  # free dof -> edge
    index: np.ndarray  # edge -> free dof, -1 if constrained

    @classmethod
    def from_mesh(cls, mesh):
        free = np.setdiff1d(np.arange(mesh.num_edges), mesh.boundary_edges)
        index = np.full(mesh.num_edges, -1, dtype=np.int64)
        index[free] = np.arange(free.size)
        return cls(mesh.num_edges, free, index)

    def extend(self, free_vec):
        out = np.zeros(self.num_edges)
        out[self.free] = free_vec
        return out


@dataclass(eq=False)
class Coefficients:
    """Piecewise-constant conductivity and reluctivity, one value per tet."""

    sigma: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        self.sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        self.nu = np.atleast_1d(np.asarray(self.nu, dtype=float))
        if np.any(self.sigma <= 0.0) or np.any(self.nu <= 0.0):
            raise ValueError("sigma and nu must be strictly positive")
        if not (np.all(np.isfinite(self.sigma)) and np.all(np.isfinite(self.nu))):
            raise ValueError("sigma and nu must be finite")

    @classmethod
    def constant(cls, mesh, sigma=1.0, nu=1.0):
        nt = mesh.num_tets
        return cls(np.full(nt, float(sigma)), np.full(nt, float(nu)))


@dataclass(eq=False)
class BasisData:
    """Per-mesh geometry and basis shared by assembly and estimation.

    ``whitney[t, e, i]`` is the vector multiplying barycentric coordinate
    i in the globally signed basis function of local edge e of tet t;
    ``curl`` holds the (constant) signed curls.
    """

    vols: np.ndarray  # (nt,) positive volumes
    points: np.ndarray  # (nt, nq5, 3) degree-5 physical points
    whitney: np.ndarray  # (nt, 6, 4, 3)
    curl: np.ndarray  # (nt, 6, 3)


# one entry per live mesh, dropped with the mesh
_BASIS = weakref.WeakKeyDictionary()


def basis_data(mesh):
    bd = _BASIS.get(mesh)
    if bd is None:
        bd = _BASIS[mesh] = _basis_data(mesh)
    return bd


def _basis_data(mesh):
    v = mesh.vertices[mesh.tets]  # (nt, 4, 3)
    J = v[:, 1:] - v[:, :1]  # rows are edge vectors
    vols = np.linalg.det(J) / 6.0
    if np.any(vols <= 1e-14):
        raise ValueError("mesh contains a degenerate or misoriented tet")
    Jinv = np.linalg.inv(J)
    g123 = np.transpose(Jinv, (0, 2, 1))
    grads = np.concatenate([-g123.sum(axis=1, keepdims=True), g123], axis=1)

    points = v[:, :1] + np.einsum("qj,tji->tqi", TET_P5_POINTS, J)
    signs = mesh.tet_edge_signs.astype(float)[:, :, None]
    edges = np.arange(6)
    whitney = np.zeros((mesh.num_tets, 6, 4, 3))
    whitney[:, edges, _EA] = grads[:, _EB] * signs
    whitney[:, edges, _EB] = -grads[:, _EA] * signs
    curl = 2.0 * np.cross(grads[:, _EA, :], grads[:, _EB, :]) * signs
    return BasisData(vols, points, whitney, curl)


def _scatter(mesh, local, dofmap):
    # global CSR matrix of the local ones, restricted to the free DOFs
    ne = mesh.num_edges
    rows = np.broadcast_to(mesh.tet_edges[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(mesh.tet_edges[:, None, :], local.shape).ravel()
    A = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(ne, ne)).tocsr()
    # freed before the restriction: held through it, these index copies
    # raised the resident set by about 14 MB at n = 12 (heap high-water)
    del rows, cols
    if dofmap is not None:
        A = A[dofmap.free][:, dofmap.free]
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


def assemble(mesh, coefficients, kind, dofmap=None):
    """Assemble a global CSR matrix on free DOFs (all edges if no dofmap).

    Parameters
    ----------
    kind : {"mass", "weighted_mass", "stiffness"}
        Mass ``(phi_i, phi_j)``, weighted mass with sigma, or curl-curl
        stiffness with nu.
    """
    bd = basis_data(mesh)
    if kind == "stiffness":
        w = coefficients.nu * bd.vols
        local = np.einsum("t,tei,tfi->tef", w, bd.curl, bd.curl)
    elif kind in ("mass", "weighted_mass"):
        w = bd.whitney.reshape(-1, 6, 12)
        local = (w @ _MASS_BARY) @ w.transpose(0, 2, 1) * bd.vols[:, None, None]
        if kind == "weighted_mass":
            local = local * coefficients.sigma[:, None, None]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    # enforce bitwise symmetry lost to summation-order roundoff
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return _scatter(mesh, local, dofmap)


def assemble_cross(mesh, weight):
    """Pairing matrix C[i, j] = int w phi_i . curl phi_j on all edges."""
    bd = basis_data(mesh)
    w = np.broadcast_to(np.asarray(weight, dtype=float), (mesh.num_tets,))
    centroid = 0.25 * bd.whitney.sum(axis=2)
    local = centroid @ bd.curl.transpose(0, 2, 1) * (w * bd.vols)[:, None, None]
    return _scatter(mesh, local, None)


def assemble_load(mesh, dofmap, f):
    """Load vector (f, phi_e) using the degree-5 rule.

    ``f`` maps an (m, 3) array of points to (m, 3) field values.
    """
    bd = basis_data(mesh)
    nt, nq = bd.points.shape[:2]
    F = np.asarray(f(bd.points.reshape(-1, 3))).reshape(nt, nq, 3)
    moments = (_MOMENTS_P5 @ F).reshape(nt, -1, 1)  # int lambda_i F / (6 vol)
    L = (bd.whitney.reshape(-1, 6, 12) @ moments)[:, :, 0] * (6.0 * bd.vols)[:, None]
    full = np.bincount(mesh.tet_edges.ravel(), weights=L.ravel(), minlength=mesh.num_edges)
    return full[dofmap.free] if dofmap is not None else full


def assemble_curl_load(mesh, means):
    """Load vector (f, curl phi_e) on all edges from the tet means of f,
    shape (nt, 3): curl phi_e is constant per tet, so they are all it reads.
    """
    bd = basis_data(mesh)
    L = np.einsum("tei,ti->te", bd.curl, means * bd.vols[:, None])
    return np.bincount(mesh.tet_edges.ravel(), weights=L.ravel(), minlength=mesh.num_edges)


def fe_vertex_values(mesh, coef):
    """FE field values v_i at the tet vertices, (nt, 4, 3): sum_i lambda_i v_i."""
    bd = basis_data(mesh)
    c = np.asarray(coef)[mesh.tet_edges][:, None, :]
    return (c @ bd.whitney.reshape(-1, 6, 12)).reshape(-1, 4, 3)


def fe_values(mesh, coef):
    """FE field values at the degree-5 quadrature points, shape (nt, nq, 3)."""
    return TET_P5_BARY @ fe_vertex_values(mesh, coef)


def fe_curls(mesh, coef):
    """Per-tet constant curl of the FE field, shape (nt, 3)."""
    bd = basis_data(mesh)
    return np.einsum("tei,te->ti", bd.curl, np.asarray(coef)[mesh.tet_edges])


def integrate_squared(mesh, values):
    """Integrate |values|^2 over the mesh; values sampled like ``fe_values``."""
    bd = basis_data(mesh)
    sq = np.einsum("tqi,tqi->tq", values, values)
    return float((6.0 * bd.vols * (sq @ TET_P5_WEIGHTS)).sum())


def interpolate_tangential(mesh, f):
    """Edge DOFs of an analytic field: int_e f . t ds per global edge,
    by the 4-point Gauss rule on each edge."""
    x, wx = np.polynomial.legendre.leggauss(4)
    s = 0.5 * (x + 1.0)
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    tang = b - a  # includes edge length
    pts = a[:, None, :] + s[None, :, None] * tang[:, None, :]
    F = np.asarray(f(pts.reshape(-1, 3))).reshape(mesh.num_edges, x.size, 3)
    return 0.5 * np.einsum("q,eqi,ei->e", wx, F, tang)

