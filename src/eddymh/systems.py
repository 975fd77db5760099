"""Per-mode discrete systems and the preconditioned MINRES solver.

Every Fourier mode decouples into one symmetric (indefinite) linear system on
the free edge DOFs: a 2x2 block system for the forward problem (one block for
the mean mode), a 4x4 block system for the optimality system of the control
problem (2x2 for the mean mode).  All are solved with preconditioned MINRES
with block-diagonal preconditioners built from one SPD factor per mode:
K + k w M_sigma for the forward problem, M + sqrt(alpha) (K + k w M_sigma)
for the control problem (the sqrt(alpha) weighting keeps iteration counts
flat across many decades of alpha).  One preconditioner application is a
single multi-column solve with that factor, one column per block.

The singular mean mode of the forward problem is gauged on the interior
nodal potentials: the load is projected onto range(K) with a factor of
G^T G and the solution onto the M_sigma-orthogonal complement of the
gradients with a factor of G^T M_sigma G.  Both are sparse SPD factors
with the symmetric ordering of ``SPD_SPLU``, so no nodal matrix is ever
held dense.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from eddymh.edge_fem import assemble
from eddymh.harmonics import FourierField
from eddymh.mesh import gradient_incidence

# splu arguments for SPD matrices: symmetric fill-reducing ordering, no
# pivoting.  The MINRES preconditioners keep the default COLAMD ordering,
# which measured faster for them.
SPD_SPLU = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


@dataclass(eq=False)
class SystemMatrices:
    """Free-DOF mass, weighted mass, and stiffness plus the gauge map.

    ``G`` maps interior-node potentials to free-edge gradient fields and is
    empty (zero columns) when the mesh has no interior nodes.
    """

    M: object
    Msigma: object
    K: object
    G: object

    @classmethod
    def from_mesh(cls, mesh, coefficients, dofmap):
        M = assemble(mesh, coefficients, "mass", dofmap).tocsr()
        Ms = assemble(mesh, coefficients, "weighted_mass", dofmap).tocsr()
        K = assemble(mesh, coefficients, "stiffness", dofmap).tocsr()
        G = gradient_incidence(mesh, interior_only=True).tocsr()[dofmap.free]
        return cls(M, Ms, K, G)

    @property
    def n(self):
        return self.M.shape[0]


@dataclass(eq=False)
class ControlParams:
    """Cost parameter of the distributed control problem."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")


@dataclass(eq=False)
class SolveStats:
    iterations: int
    relative_residual: float
    wall_time: float
    converged: bool
    trace: list = field(default_factory=list)


@dataclass(eq=False)
class ModeSystem:
    """One per-mode linear system with its preconditioner and unpacking."""

    k: int
    kind: str
    apply_A: object
    apply_Pinv: object
    rhs: np.ndarray
    blocks: int
    n: int
    unpack: object
    postprocess: object = None


def minres(apply_A, apply_Pinv, b, tol=1e-10, maxit=2000, trace=False):
    """Preconditioned MINRES for symmetric A and SPD preconditioner P.

    Stops when the P^{-1}-weighted residual norm has dropped by ``tol``
    relative to the initial one.  Returns the iterate and solve statistics;
    a breakdown or hitting ``maxit`` is reported via ``converged`` rather
    than raised.
    """
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    x = np.zeros(n)
    history = []

    r2 = b.copy()
    y = apply_Pinv(r2)
    beta1sq = float(r2 @ y)
    if beta1sq < 0.0:
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1sq)
    if beta1 == 0.0:
        return x, SolveStats(0, 0.0, time.perf_counter() - t0, True, history)

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r1 = r2.copy()

    converged = False
    itn = 0
    while itn < maxit:
        itn += 1
        s = 1.0 / beta
        v = s * y
        y = apply_A(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = apply_Pinv(r2)
        oldb = beta
        betasq = float(r2 @ y)
        if betasq < 0.0:
            raise ValueError("preconditioner is not positive definite")
        beta = np.sqrt(betasq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.sqrt(gbar * gbar + beta * beta)
        if gamma == 0.0:
            # exact breakdown with a nonzero residual
            break
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        rel = phibar / beta1
        if trace:
            history.append((itn, rel))
        if rel <= tol:
            converged = True
            break
        if beta == 0.0:
            break

    rel = phibar / beta1
    return x, SolveStats(itn, float(rel), time.perf_counter() - t0, converged, history)


def _block_apply(parts, n):
    def apply_A(x):
        out = np.empty_like(x)
        segs = [x[i * n : (i + 1) * n] for i in range(len(parts))]
        for i, row in enumerate(parts):
            acc = np.zeros(n)
            for j, term in row:
                acc += term(segs[j])
            out[i * n : (i + 1) * n] = acc
        return out

    return apply_A


def build_forward(k, matrices, period, u_c, u_s=None):
    """Mode-k forward system in its symmetric MINRES form.

    The discrete mode equations are ``K y_c + k w Ms y_s = u_c`` and
    ``-k w Ms y_c + K y_s = u_s``.  Negating the first row and swapping the
    block rows gives the symmetric operator
    ``[[-k w Ms, -K], [-K, +k w Ms]]`` acting on (y_s, y_c) with right-hand
    side (-u_c, -u_s), which MINRES accepts.
    """
    if k == 0:
        return build_forward0(matrices, u_c)
    if u_s is None:
        raise ValueError("mode k >= 1 needs both cosine and sine loads")
    kw = k * period.omega
    K, Ms = matrices.K, matrices.Msigma
    n = matrices.n
    apply_A = _block_apply(
        [
            [(0, lambda x: -kw * (Ms @ x)), (1, lambda x: -(K @ x))],
            [(0, lambda x: -(K @ x)), (1, lambda x: kw * (Ms @ x))],
        ],
        n,
    )
    rhs = np.concatenate([-u_c, -u_s])
    lu = splu((K + kw * Ms).tocsc())

    def apply_Pinv(r):
        return lu.solve(r.reshape(2, n).T).T.ravel()

    def unpack(x):
        return {"y_s": x[:n], "y_c": x[n:]}

    return ModeSystem(k, "forward", apply_A, apply_Pinv, rhs, 2, n, unpack)


def build_forward0(matrices, u0, consistency_tol=1e-9):
    """Mean-mode forward system K y = u with gradient-space gauging.

    K is singular with the discrete gradients as kernel; the load must be
    consistent.  The right-hand side is projected onto range(K) and the
    returned solution onto the M_sigma-orthogonal complement of the kernel.
    """
    K, Ms, G = matrices.K, matrices.Msigma, matrices.G
    n = matrices.n
    u0 = np.asarray(u0, dtype=float)
    if G.shape[1] > 0:
        z = splu((G.T @ G).tocsc(), **SPD_SPLU).solve(G.T @ u0)
        defect = np.linalg.norm(G @ z)
        scale = np.linalg.norm(u0)
        if scale > 0 and defect > consistency_tol * scale:
            raise ValueError(
                f"load is inconsistent with the gauged system "
                f"(kernel component {defect / scale:.3e})"
            )
        rhs = u0 - G @ z
        gauge = splu((G.T @ Ms @ G).tocsc(), **SPD_SPLU)
    else:
        rhs = u0.copy()
        gauge = None

    lu = splu((K + Ms).tocsc())

    def postprocess(y):
        if gauge is None:
            return y
        return y - G @ gauge.solve(G.T @ (Ms @ y))

    def unpack(x):
        return {"y_c": x}

    return ModeSystem(
        0,
        "forward0",
        lambda x: K @ x,
        lambda r: lu.solve(r),
        rhs,
        1,
        n,
        unpack,
        postprocess,
    )


def build_ocp(k, matrices, alpha, period, yd_c, yd_s=None):
    """Mode-k optimality system, 4x4 symmetric block form.

    Rows: [M, 0, -K, k w Ms | 0, M, -k w Ms, -K | -K, -k w Ms, -M/alpha, 0 |
    k w Ms, -K, 0, -M/alpha] on unknowns (y_c, y_s, p_c, p_s) with data
    (yd_c, yd_s, 0, 0).

    The preconditioner is blkdiag(P, P, P/alpha, P/alpha) with
    P = M + sqrt(alpha) (K + k w Ms).  Weighting the coupling factor by
    sqrt(alpha) balances it against the mass block for every alpha, which a
    plain K + k w Ms factor does not: that one loses its grip as alpha -> 0
    and iteration counts grow by several multiples.
    """
    if isinstance(alpha, ControlParams):
        alpha = alpha.alpha
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if k == 0:
        return build_ocp0(matrices, alpha, yd_c)
    if yd_s is None:
        raise ValueError("mode k >= 1 needs both cosine and sine data")
    kw = k * period.omega
    K, M, Ms = matrices.K, matrices.M, matrices.Msigma
    n = matrices.n
    ia = 1.0 / alpha
    apply_A = _block_apply(
        [
            [(0, lambda x: M @ x), (2, lambda x: -(K @ x)), (3, lambda x: kw * (Ms @ x))],
            [(1, lambda x: M @ x), (2, lambda x: -kw * (Ms @ x)), (3, lambda x: -(K @ x))],
            [(0, lambda x: -(K @ x)), (1, lambda x: -kw * (Ms @ x)), (2, lambda x: -ia * (M @ x))],
            [(0, lambda x: kw * (Ms @ x)), (1, lambda x: -(K @ x)), (3, lambda x: -ia * (M @ x))],
        ],
        n,
    )
    rhs = np.concatenate([yd_c, yd_s, np.zeros(n), np.zeros(n)])
    lu = splu((M + np.sqrt(alpha) * (K + kw * Ms)).tocsc())

    def apply_Pinv(r):
        x = lu.solve(r.reshape(4, n).T)
        x[:, 2:] *= alpha
        return x.T.ravel()

    def unpack(x):
        return {
            "y_c": x[:n],
            "y_s": x[n : 2 * n],
            "p_c": x[2 * n : 3 * n],
            "p_s": x[3 * n :],
        }

    return ModeSystem(k, "ocp", apply_A, apply_Pinv, rhs, 4, n, unpack)


def build_ocp0(matrices, alpha, yd0):
    """Mean-mode optimality system [[M, -K], [-K, -M/alpha]], nonsingular.

    Preconditioned by blkdiag(P, P/alpha) with P = M + sqrt(alpha) K, the
    mean-mode limit of the modal factor; the mass term keeps P positive
    definite even though K alone is singular.
    """
    if isinstance(alpha, ControlParams):
        alpha = alpha.alpha
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    K, M = matrices.K, matrices.M
    n = matrices.n
    ia = 1.0 / alpha
    apply_A = _block_apply(
        [
            [(0, lambda x: M @ x), (1, lambda x: -(K @ x))],
            [(0, lambda x: -(K @ x)), (1, lambda x: -ia * (M @ x))],
        ],
        n,
    )
    rhs = np.concatenate([yd0, np.zeros(n)])
    lu = splu((M + np.sqrt(alpha) * K).tocsc())

    def apply_Pinv(r):
        x = lu.solve(r.reshape(2, n).T)
        x[:, 1] *= alpha
        return x.T.ravel()

    def unpack(x):
        return {"y_c": x[:n], "p_c": x[n:]}

    return ModeSystem(0, "ocp0", apply_A, apply_Pinv, rhs, 2, n, unpack)


def solve_mode(system, tol=1e-10, maxit=2000, trace=False):
    """Run MINRES on a mode system and unpack the block solution."""
    x, stats = minres(
        system.apply_A, system.apply_Pinv, system.rhs, tol=tol, maxit=maxit, trace=trace
    )
    parts = system.unpack(x)
    if system.postprocess is not None:
        parts = {key: system.postprocess(v) for key, v in parts.items()}
    return parts, stats


def reconstruct(modes, period):
    """Package per-mode coefficient vectors as a Fourier field.

    Parameters
    ----------
    modes : sequence
        Element 0 is the mean coefficient vector; element k (1-based) the
        pair (cosine, sine) of mode k.  Length must be period.N + 1.
    """
    if len(modes) != period.N + 1:
        raise ValueError(f"expected {period.N + 1} modes, got {len(modes)}")
    mode0 = np.asarray(modes[0], dtype=float)
    pairs = [(np.asarray(c, float), np.asarray(s, float)) for c, s in modes[1:]]
    return FourierField(mode0, pairs)
