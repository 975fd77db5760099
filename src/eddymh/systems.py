"""Per-mode discrete systems and the preconditioned MINRES solver.

Every Fourier mode decouples into one symmetric (indefinite) linear system on
the free edge DOFs: a 2x2 block system for the forward problem (one block for
the mean mode), a 4x4 block system for the optimality system of the control
problem (2x2 for the mean mode).  All are solved with preconditioned MINRES
with block-diagonal preconditioners built from one SPD factor:
K + kw M_sigma for the forward problem, M + sqrt(alpha) (K + kw M_sigma)
for the control problem (the sqrt(alpha) weighting keeps iteration counts
flat across many decades of alpha).  ``mode_factor`` builds it for any
frequency kw.  Every builder takes an optional factor ``lu``, so that a
whole case can share one factor at a middle frequency, the mean mode while
that frequency is small (``presets.MEAN_SHARE_BAND``).  Without it a mode
k >= 1 factors its own at kw = k w and the mean mode its own at kw = 1
(forward) or kw = 0 (control), which do not depend on w.  Each mode's
operator is one sparse block matrix, so a MINRES step does one sparse
product, and one preconditioner application is a single multi-column solve
with the factor, one column per block.

The singular mean mode of the forward problem is gauged on the interior
nodal potentials: the load is projected onto range(K) with a factor of
G^T G and the solution onto the M_sigma-orthogonal complement of the
gradients with a factor of G^T M_sigma G, so no nodal matrix is ever
held dense.

Every factor here is an SPD factor in one fill-reducing order, the nested
dissection of its unknowns (``mesh.nested_dissection``): the mesh numbers
its edges in that order, which the free DOFs keep (``DofMap``), and the
columns of G are the interior nodes in their own dissection order, so each
matrix is factored by ``SPD_SPLU`` as it stands.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from eddymh.edge_fem import assemble
from eddymh.harmonics import FourierField
from eddymh.mesh import gradient_incidence, nested_dissection

# splu arguments for SPD matrices already in nested-dissection order: no
# column ordering, no pivoting.  For K + 2 Ms at n = 12 this filled 3.22M
# nnz(L+U) in 0.25 s, against 8.7M in 1.4 s with the default COLAMD order;
# for the flux matrix cf^2 K + M, 4.1M in 0.36 s against 7.3M in 1.2 s
# with MMD_AT_PLUS_A (one BLAS thread).
SPD_SPLU = {
    "permc_spec": "NATURAL",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}

# largest kernel component, relative to it, of a mean forward mode's load
CONSISTENCY_TOL = 1e-9


@dataclass(eq=False)
class SystemMatrices:
    """Free-DOF mass, weighted mass, and stiffness plus the gauge map.

    ``G`` maps interior-node potentials, in the nested dissection order of
    the interior nodes, to free-edge gradient fields and is empty (zero
    columns) when the mesh has no interior nodes.
    """

    M: object
    Msigma: object
    K: object
    G: object

    @classmethod
    def from_mesh(cls, mesh, coefficients, dofmap):
        M = assemble(mesh, coefficients, "mass", dofmap)
        Ms = assemble(mesh, coefficients, "weighted_mass", dofmap)
        K = assemble(mesh, coefficients, "stiffness", dofmap)
        nodes = nested_dissection(mesh.interior_nodes(), mesh.vertices, mesh.edges)
        G = gradient_incidence(mesh)[dofmap.free][:, nodes]
        return cls(M, Ms, K, G)

    @property
    def n(self):
        return self.M.shape[0]


@dataclass(eq=False)
class SolveStats:
    iterations: int
    relative_residual: float
    wall_time: float
    converged: bool


@dataclass(eq=False)
class ModeSystem:
    """One per-mode linear system as data.

    ``A`` is the symmetric block operator on the unknowns ``names``, stacked
    block after block, and ``lu`` the factor of the SPD matrix P of the
    block-diagonal preconditioner ``blkdiag(scales[i] P^{-1})``.
    ``postprocess``, if set, maps each solution block to its final value
    (the gauge of the mean forward mode).
    """

    k: int
    kind: str
    A: object
    lu: object
    scales: np.ndarray
    names: tuple
    rhs: np.ndarray
    postprocess: object = None

    @property
    def blocks(self):
        return len(self.names)

    @property
    def n(self):
        return self.A.shape[0] // self.blocks

    def apply_A(self, x):
        return self.A @ x

    def apply_Pinv(self, r):
        # one multi-column solve, one column per block
        x = self.lu.solve(r.reshape(self.blocks, self.n).T)
        return (x * self.scales).T.ravel()

    def unpack(self, x):
        return dict(zip(self.names, x.reshape(self.blocks, self.n)))


def minres(apply_A, apply_Pinv, b, tol=1e-10, maxit=2000):
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

    r2 = b.copy()
    y = apply_Pinv(r2)
    beta1sq = float(r2 @ y)
    if beta1sq < 0.0:
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1sq)
    if beta1 == 0.0:
        return x, SolveStats(0, 0.0, time.perf_counter() - t0, True)

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
        if rel <= tol:
            converged = True
            break
        if beta == 0.0:
            break

    rel = phibar / beta1
    return x, SolveStats(itn, float(rel), time.perf_counter() - t0, converged)


def _block_operator(blocks, n):
    """CSR block matrix of n x n blocks, given as (c, B) for c B or None.

    ``sparse.bmat`` stacks the unscaled blocks and the stacked values are
    scaled in place.  Stacking scaled copies held three operators' worth
    of arrays at once, and a worker thread's heap keeps such a high-water
    mark resident: on two cores it raised the peak RSS of the concurrent
    n = 12 forward solve by 11 %, against 4 % this way.
    """
    A = sparse.bmat(
        [[None if b is None else b[1] for b in row] for row in blocks], format="csr"
    )
    for i, row in enumerate(blocks):
        scale = np.array([0.0 if b is None else b[0] for b in row])
        lo, hi = A.indptr[i * n], A.indptr[(i + 1) * n]
        A.data[lo:hi] *= scale[A.indices[lo:hi] // n]
    return A


def mode_factor(matrices, kw, alpha=None):
    """Factor of the SPD preconditioner block P at mode frequency ``kw``.

    P = K + kw Ms for the forward problem (``alpha`` None) and
    P = M + sqrt(alpha) (K + kw Ms) for the optimality system.  A mean
    mode given no factor factors its own here too: K + Ms at kw = 1
    (forward) and M + sqrt(alpha) K at kw = 0 (optimality system).

    A forward kw below sqrt(eps) times the largest diagonal ratio of K to
    Ms is raised to that floor: K + kw Ms is then numerically K, which is
    singular (its kernel is the gradients), and the unpivoted factor meets
    a zero pivot.  Only the preconditioner changes; MINRES keeps kw.
    """
    K, Ms = matrices.K, matrices.Msigma
    if alpha is not None:
        return splu((matrices.M + np.sqrt(alpha) * (K + kw * Ms)).tocsc(), **SPD_SPLU)
    floor = np.sqrt(np.finfo(float).eps) * np.max(K.diagonal() / Ms.diagonal())
    return splu((K + max(kw, floor) * Ms).tocsc(), **SPD_SPLU)


def build_forward(k, matrices, period, u_c, u_s=None, lu=None):
    """Mode-k forward system in its symmetric MINRES form.

    The discrete mode equations are ``K y_c + k w Ms y_s = u_c`` and
    ``-k w Ms y_c + K y_s = u_s``.  Negating the first row and swapping the
    block rows gives the symmetric operator
    ``[[-k w Ms, -K], [-K, +k w Ms]]`` acting on (y_s, y_c) with right-hand
    side (-u_c, -u_s), which MINRES accepts.  ``lu`` is a preconditioner
    factor from ``mode_factor``; without it the mode factors its own at
    kw = k w (the mean mode: see ``build_forward0``).
    """
    if k == 0:
        return build_forward0(matrices, u_c, lu=lu)
    if u_s is None:
        raise ValueError("mode k >= 1 needs both cosine and sine loads")
    kw = k * period.omega
    K, Ms = matrices.K, matrices.Msigma
    # The operator is built before the factor (as in build_ocp and
    # build_ocp0): the factorization then reuses the heap the stacking
    # freed, which built after it stayed resident beside the factor.
    A = _block_operator([[(-kw, Ms), (-1.0, K)], [(-1.0, K), (kw, Ms)]], matrices.n)
    if lu is None:
        lu = mode_factor(matrices, kw)
    rhs = np.concatenate([-u_c, -u_s])
    return ModeSystem(k, "forward", A, lu, np.ones(2), ("y_s", "y_c"), rhs)


def build_forward0(matrices, u0, lu=None):
    """Mean-mode forward system K y = u with gradient-space gauging.

    K is singular with the discrete gradients as kernel; the load must be
    consistent.  The right-hand side is projected onto range(K) and the
    returned solution onto the M_sigma-orthogonal complement of the kernel.
    ``lu`` is a factor of K + kw Ms from ``mode_factor``; without it the
    mode factors its own at kw = 1.
    """
    K, Ms, G = matrices.K, matrices.Msigma, matrices.G
    u0 = np.asarray(u0, dtype=float)
    if G.shape[1] > 0:
        z = splu((G.T @ G).tocsc(), **SPD_SPLU).solve(G.T @ u0)
        defect = np.linalg.norm(G @ z)
        scale = np.linalg.norm(u0)
        if scale > 0 and defect > CONSISTENCY_TOL * scale:
            raise ValueError(
                f"load is inconsistent with the gauged system "
                f"(kernel component {defect / scale:.3e})"
            )
        rhs = u0 - G @ z
        gauge = splu((G.T @ Ms @ G).tocsc(), **SPD_SPLU)
    else:
        rhs = u0.copy()
        gauge = None

    if lu is None:
        lu = mode_factor(matrices, 1.0)

    def postprocess(y):
        if gauge is None:
            return y
        return y - G @ gauge.solve(G.T @ (Ms @ y))

    return ModeSystem(0, "forward0", K, lu, np.ones(1), ("y_c",), rhs, postprocess)


def build_ocp(k, matrices, alpha, period, yd_c, yd_s=None, lu=None):
    """Mode-k optimality system, 4x4 symmetric block form.

    Rows: [M, 0, -K, k w Ms | 0, M, -k w Ms, -K | -K, -k w Ms, -M/alpha, 0 |
    k w Ms, -K, 0, -M/alpha] on unknowns (y_c, y_s, p_c, p_s) with data
    (yd_c, yd_s, 0, 0).

    The preconditioner is blkdiag(P, P, P/alpha, P/alpha) with
    P = M + sqrt(alpha) (K + k w Ms).  Weighting the coupling factor by
    sqrt(alpha) balances it against the mass block for every alpha, which a
    plain K + k w Ms factor does not: that one loses its grip as alpha -> 0
    and iteration counts grow by several multiples.  ``lu`` is a factor of
    P from ``mode_factor``; without it the mode factors its own at
    kw = k w (the mean mode: see ``build_ocp0``).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if k == 0:
        return build_ocp0(matrices, alpha, yd_c, lu=lu)
    if yd_s is None:
        raise ValueError("mode k >= 1 needs both cosine and sine data")
    kw = k * period.omega
    K, M, Ms = matrices.K, matrices.M, matrices.Msigma
    n = matrices.n
    A = _block_operator(
        [
            [(1.0, M), None, (-1.0, K), (kw, Ms)],
            [None, (1.0, M), (-kw, Ms), (-1.0, K)],
            [(-1.0, K), (-kw, Ms), (-1.0 / alpha, M), None],
            [(kw, Ms), (-1.0, K), None, (-1.0 / alpha, M)],
        ],
        n,
    )
    if lu is None:
        lu = mode_factor(matrices, kw, alpha)
    rhs = np.concatenate([yd_c, yd_s, np.zeros(n), np.zeros(n)])
    scales = np.array([1.0, 1.0, alpha, alpha])
    return ModeSystem(k, "ocp", A, lu, scales, ("y_c", "y_s", "p_c", "p_s"), rhs)


def build_ocp0(matrices, alpha, yd0, lu=None):
    """Mean-mode optimality system [[M, -K], [-K, -M/alpha]], nonsingular.

    Preconditioned by blkdiag(P, P/alpha) with P = M + sqrt(alpha) K, the
    mean-mode limit of the modal factor; the mass term keeps P positive
    definite even though K alone is singular.  ``lu`` is a factor of
    M + sqrt(alpha) (K + kw Ms) from ``mode_factor``; without it the mode
    factors its own at kw = 0.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    K, M = matrices.K, matrices.M
    A = _block_operator([[(1.0, M), (-1.0, K)], [(-1.0, K), (-1.0 / alpha, M)]], matrices.n)
    if lu is None:
        lu = mode_factor(matrices, 0.0, alpha)
    rhs = np.concatenate([yd0, np.zeros(matrices.n)])
    return ModeSystem(0, "ocp0", A, lu, np.array([1.0, alpha]), ("y_c", "p_c"), rhs)


def solve_mode(system, tol=1e-10, maxit=2000):
    """Run MINRES on a mode system and unpack the block solution."""
    x, stats = minres(system.apply_A, system.apply_Pinv, system.rhs, tol=tol, maxit=maxit)
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
