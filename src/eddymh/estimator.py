"""Guaranteed a posteriori error bounds via flux reconstruction.

For any conforming approximation of the periodic state (and, for the
control problem, the adjoint), weighted sums of computable residual
norms bound the error in the half-derivative energy (semi)norm from
above.  The bound holds for arbitrary flux fields in the unconstrained
edge space and arbitrary positive Young parameters; it is tightened by
alternating minimization in the fluxes (SPD solves, decoupled per mode
and per component) and in the parameters (closed forms), so the recorded
value does not increase between iterations beyond rounding.

Both problems are built from one kind of *pair*: a field phi, its flux t
and its load g, with the equation residual g - sigma d/dt phi - curl t
(d/dt maps a mode's (cos, sin) coefficients to kw (sin, -cos)) and the
flux defect t - nu curl phi.  The forward problem is one pair (eta, tau,
the data); the control problem two: the state (eta, tau, -zeta / alpha)
and the adjoint (zeta, rho, eta - y_d), which runs backwards in time
(kw -> -kw).  Each pair is defined once, by point values that both the
reference quadrature and the minimization read; one flux step serves them
all.  Per-tet closed forms of the residuals, exact under the degree-5 rule
and free of cancellation, both steer the minimization and report its bound.

As any flux gives a valid bound, an inexact flux solve can only make it
less sharp, never wrong: every flux matrix ``a K + b M`` is solved by
conjugate gradients preconditioned with one shared factor of
``cf^2 K + M``, the matrix at unit Young parameters.  A case's mode bounds
run in lock-step, so each iteration's block solves serve every unfinished
bound, each column at its own ``(a, b)``.  From one iteration to the next
a column's system changes only through ``(a, b)``, so each solve starts
from the Galerkin projection of its system onto the fluxes its bound found
before (Fischer's projection for successive right-hand sides, Comput.
Methods Appl. Mech. Engrg. 163, 1998).
"""

import collections
import math
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import splu

from eddymh.edge_fem import (
    Coefficients,
    assemble,
    assemble_cross,
    assemble_curl_load,
    basis_data,
    fe_curls,
    fe_values,
    fe_vertex_values,
    integrate_squared,
)
from eddymh.harmonics import friedrichs_constant
from eddymh.quadrature import TET_P5_WEIGHTS
from eddymh.systems import SPD_SPLU

BETA_MIN = 1e-8
BETA_MAX = 1e8

_KEYS = ("r1", "r2", "r3", "r4")  # residual sums; forward runs leave r3, r4 zero

# The keys each pair's (equation residual, flux defect) feed: the forward
# pair; the state pair (its equation residual is -R3) and the adjoint pair.
_PAIR_KEYS = {"forward": (("r1", "r2"),), "ocp": (("r3", "r2"), ("r1", "r4"))}

# The majorant stop accepts a change within FORM_NOISE epsilons of the bound
# on its residual sums' term magnitudes: the sums' rounding noise.
FORM_NOISE = 4.0

# Every flux column runs PCG and stops at PCG_RTOL; a group that PCG_MAXIT
# steps leave unsolved factors its own matrix.
PCG_MAXIT = 100
PCG_RTOL = 1e-10

# Flux columns per lock-step block unless one flux matrix has more: the
# shared factor's solve costs the same per column from about 16 on, and at
# forward n=12, N=32 a cap of 64 raised the peak RSS by 5 MB (128: 50 MB).
_BLOCK_COLUMNS = 32

# Flux columns whose Galerkin starts share one product with K and with M:
# with spans of up to two fluxes, no more vectors than a block.
_SPAN_COLUMNS = 8


@dataclass(frozen=True)
class StabilityConstants:
    """Inf-sup (lower) and sup-sup (upper) constants of one error context."""

    lower: float
    upper: float
    friedrichs: float

    def __post_init__(self):
        if not (self.lower > 0.0 and self.upper > 0.0 and self.friedrichs > 0.0):
            raise ValueError("stability constants must be positive")
        if self.lower > self.upper * (1.0 + 1e-14):
            raise ValueError("lower constant exceeds upper constant")


def stability_constants(problem, quantity, coefficients, alpha=None, friedrichs=None):
    """Stability constants linking residual norms to the true error.

    Parameters
    ----------
    problem : {"forward", "ocp"}
    quantity : {"seminorm"}
        The error quantity the majorant bounds: the half-derivative seminorm.
    coefficients : Coefficients
        Supplies the essential bounds of sigma and nu.
    alpha : float, required for the control problem
    friedrichs : float, optional
        Defaults to the unit-cube constant 1/(sqrt(2) pi).
    """
    if quantity != "seminorm":
        raise ValueError(f"unknown quantity {quantity!r}")
    cf = friedrichs_constant() if friedrichs is None else float(friedrichs)
    s_lo, s_hi = float(coefficients.sigma.min()), float(coefficients.sigma.max())
    n_lo, n_hi = float(coefficients.nu.min()), float(coefficients.nu.max())
    if problem == "forward":
        lower = min(n_lo, s_lo) / math.sqrt(2.0)
        upper = max(s_hi, n_hi)
    elif problem == "ocp":
        if alpha is None or not alpha > 0.0:
            raise ValueError("ocp constants need alpha > 0")
        inv = 1.0 / alpha
        lower = min(n_lo, s_lo) * min(alpha, inv) / math.sqrt(2.0)
        upper = (1.0 + cf * cf) * max(1.0, inv, n_hi, s_hi)
    else:
        raise ValueError(f"unknown problem {problem!r}")
    return StabilityConstants(lower, upper, cf)


def _point_values(mesh, f):
    points = basis_data(mesh).points
    return np.asarray(f(points.reshape(-1, 3))).reshape(points.shape)


def _pair_points(mesh, coefficients, period, k, eta, zeta, load, alpha):
    # The pairs of mode k, laid out like _PAIR_KEYS: forward if zeta is
    # None, else state and adjoint.  Each yields per member i (the cosine
    # alone for the mean mode, else cosine and sine; one member's point
    # values live at a time) the field phi_i, the load plus coupling
    # G = g_i + (2i - 1) kw sigma phi_(1-i) at the degree-5 points and
    # nu curl phi_i per tet.
    sig = coefficients.sigma[:, None, None]

    def members(kw, field, load):
        for i in range(1 if k == 0 else 2):
            g = load(i)
            if kw:
                g = g + (2 * i - 1) * kw * sig * fe_values(mesh, field[1 - i])
            yield field[i], g, coefficients.nu[:, None] * fe_curls(mesh, field[i])

    kw = k * period.omega
    if zeta is None:
        return [members(kw, eta, lambda i: _point_values(mesh, load[i]))]
    return [
        members(kw, eta, lambda i: -fe_values(mesh, zeta[i]) / alpha),
        members(-kw, zeta, lambda i: fe_values(mesh, eta[i]) - _point_values(mesh, load[i])),
    ]


def _pair_residuals(mesh, members, flux):
    # squared equation residual |G - curl t|^2 and flux defect
    # |t - nu curl phi|^2 of one pair by quadrature, summed over members
    eq = defect = 0.0
    for (_, g, d), t in zip(members, flux):
        eq += integrate_squared(mesh, g - fe_curls(mesh, t)[:, None, :])
        defect += integrate_squared(mesh, fe_values(mesh, t) - d[:, None, :])
    return eq, defect


def residuals_forward(mesh, coefficients, period, k, eta, tau, load):
    """Squared residual norms (|R1|^2, |R2|^2) of one forward mode.

    R1 measures the equation residual u - k w sigma eta_perp - curl tau,
    R2 the flux defect tau - nu curl eta; the perpendicular pairing makes
    the cosine part of R1 pick up the sine part of eta and vice versa.

    Parameters
    ----------
    eta, tau : (cos, sin) pairs of full-edge coefficient vectors
        The sine members are ignored for k = 0.
    load : (cos, sin) pair of point evaluators for the mode's data.

    Cosine and sine contributions are summed; all integrals use the
    degree-5 rule, exact for the discrete parts.
    """
    (members,) = _pair_points(mesh, coefficients, period, k, eta, None, load, None)
    return _pair_residuals(mesh, members, tau)


def residuals_ocp(mesh, coefficients, period, k, eta, zeta, tau, rho, desired, alpha):
    """Squared residual norms (|R1|^2, ..., |R4|^2) of one optimality mode.

    R1: adjoint equation sigma d/dt zeta - curl rho + eta - y_d;
    R2: state flux defect tau - nu curl eta;
    R3: state equation -sigma d/dt eta + curl tau + zeta / alpha
        (the control is eliminated through u = -zeta / alpha);
    R4: adjoint flux defect rho - nu curl zeta.

    These are the residuals of two pairs (module docstring): the state
    pair's equation residual is -R3 and its defect R2; the adjoint
    pair's are R1 and R4.
    ``desired`` is the (cos, sin) evaluator pair of the target's mode.
    """
    pairs = _pair_points(mesh, coefficients, period, k, eta, zeta, desired, alpha)
    sums = {}
    for keys, members, flux in zip(_PAIR_KEYS["ocp"], pairs, (tau, rho)):
        sums.update(zip(keys, _pair_residuals(mesh, members, flux)))
    return tuple(sums[key] for key in _KEYS)


def _weights(betas, cf):
    # the bound's weight of each residual key (R1's also weighs the tail)
    # at the forward beta or the ocp (beta1, beta2, beta3), equation
    # residuals first: _bound sums the terms in this order
    cf2 = cf * cf
    if len(betas) == 1:
        return {"r1": cf2 * (1.0 + betas[0]), "r2": (1.0 + betas[0]) / betas[0]}
    b1, b2, b3 = betas
    return {
        "r1": cf2 * (1.0 + b1) * (1.0 + b2),
        "r3": cf2 * (1.0 + b1) * (1.0 + b3) / b1,
        "r2": (1.0 + b1) * (1.0 + b2) / b2,
        "r4": (1.0 + b1) * (1.0 + b3) / (b1 * b3),
    }


def _bound(sums, betas, constants, tail):
    # The squared majorant: the residual sums keyed like _KEYS (a forward
    # bound reads r1 and r2) in their _weights, over lower^2; the data
    # remainder tail joins R1's group.
    if not all(b > 0.0 for b in betas):
        raise ValueError("Young parameters must be positive")
    w = _weights(betas, constants.friedrichs)
    if min(tail, *(sums[key] for key in w)) < 0.0:
        raise ValueError("residual norms must be nonnegative")
    terms = (w[key] * (sums[key] + tail if key == "r1" else sums[key]) for key in w)
    return sum(terms) / constants.lower**2


def majorant_forward(r1_sq, r2_sq, constants, beta, tail=0.0):
    """Squared forward majorant M^2(beta) from space-time summed residuals.

    The data remainder ``tail`` joins the equation-residual group.
    """
    return _bound({"r1": r1_sq, "r2": r2_sq}, (beta,), constants, tail)


def majorant_ocp(r1_sq, r2_sq, r3_sq, r4_sq, constants, betas, tail=0.0):
    """Squared quadratic majorant of the combined state-adjoint error.

    Bounds the sum of the two squared half-derivative seminorms. beta1
    balances the state group against the adjoint group; beta2 and beta3
    balance each group's equation residual against its flux defect.
    """
    return _bound(dict(zip(_KEYS, (r1_sq, r2_sq, r3_sq, r4_sq))), betas, constants, tail)


def _balance(a, b):
    # minimizer of a (1 + beta) + b (1 + beta) / beta over beta > 0
    if a == 0.0 and b == 0.0:
        return 1.0
    if a == 0.0:
        return BETA_MAX
    if b == 0.0:
        return BETA_MIN
    return min(max(math.sqrt(b / a), BETA_MIN), BETA_MAX)


def beta_optimal(a, b):
    """Closed-form minimizer sqrt(b/a) of the two-term quadratic bound.

    ``a`` is the Friedrichs-scaled equation-residual sum, ``b`` the flux
    defect sum.  Clamped to [1e-8, 1e8]; both zero is an error since the
    caller should then report a zero majorant outright.
    """
    if a < 0.0 or b < 0.0:
        raise ValueError("residual sums must be nonnegative")
    if a == 0.0 and b == 0.0:
        raise ValueError("nothing to balance: both residual sums vanish")
    return _balance(a, b)


def beta_optimal_ocp(r1_sq, r2_sq, r3_sq, r4_sq, friedrichs):
    """Joint minimizer (beta1, beta2, beta3) of the quadratic ocp bound.

    beta2 and beta3 each balance one independent group, so their optima
    do not depend on beta1; beta1 then balances the two minimized
    groups.  The result is the global minimum, reached in one pass.
    """
    if min(r1_sq, r2_sq, r3_sq, r4_sq) < 0.0:
        raise ValueError("residual sums must be nonnegative")
    if max(r1_sq, r2_sq, r3_sq, r4_sq) == 0.0:
        raise ValueError("nothing to balance: all residual sums vanish")
    cf2 = friedrichs * friedrichs
    b2 = _balance(cf2 * r1_sq, r2_sq)
    b3 = _balance(cf2 * r3_sq, r4_sq)
    x = cf2 * (1.0 + b2) * r1_sq + (1.0 + b2) / b2 * r2_sq
    y = cf2 * (1.0 + b3) * r3_sq + (1.0 + b3) / b3 * r4_sq
    return _balance(x, y), b2, b3


def efficiency_index(majorant_sq, error_sq):
    """Ratio of the squared majorant to the squared true error quantity."""
    if not error_sq > 0.0:
        raise ValueError("error quantity must be positive")
    return majorant_sq / error_sq


def _pcg(apply, precondition, rhs, start=None):
    # Multi-column preconditioned CG on the columns of rhs, from ``start``
    # or else the preconditioned rhs; apply and precondition take a block
    # and its columns' indices.  Every block is column-major, so a column's
    # dot products and norms are summed alike at any block width.  Every
    # column stops at relative residual PCG_RTOL (its start may already
    # meet it) and drops out, so a zero column never divides.  Returns the
    # solution, each column's steps and the columns PCG_MAXIT steps left
    # unsolved.
    goal = PCG_RTOL * np.linalg.norm(rhs, axis=0)
    todo = np.arange(rhs.shape[1])
    x = precondition(rhs, todo) if start is None else start
    r = rhs - apply(x, todo)
    steps = np.zeros(todo.size, dtype=int)
    keep = np.linalg.norm(r, axis=0) > goal
    todo, r = todo[keep], r[:, keep]
    p = precondition(r, todo)
    rz = np.einsum("ij,ij->j", r, p)
    for _ in range(PCG_MAXIT):  # in place where that saves a block of vectors
        if not todo.size:
            break
        steps[todo] += 1
        q = apply(p, todo)
        step = rz / np.einsum("ij,ij->j", p, q)
        q *= step
        r -= q
        del q
        x[:, todo] += step * p
        keep = np.linalg.norm(r, axis=0) > goal[todo]
        todo, r, p, rz = todo[keep], r[:, keep], p[:, keep], rz[keep]
        if todo.size:
            z = precondition(r, todo)
            rz_next = np.einsum("ij,ij->j", r, z)
            z += (rz_next / rz) * p
            p, rz = z, rz_next
    return x, steps, todo


@dataclass(eq=False)
class FluxWorkspace:
    """Unconstrained-edge-space operators shared by all flux solves.

    The flux fields carry no boundary condition, so every matrix lives
    on the full edge set: unit-weight curl-curl K and mass M, and
    C_nu[i, j] = int nu phi_i . curl phi_j for the flux-defect terms.
    Every matrix is assembled in the mesh's fill-reducing edge order and
    factored as it stands.  The workspace keeps one factor, of
    ``anchor K + M``, built by the first solve that needs it (under a
    lock, so concurrent minimizations share it) and replaced only by a
    solve with another anchor.
    """

    mesh: object
    coefficients: Coefficients
    stiffness: object
    mass: object
    pair_nu: object
    _shared: tuple = field(default=None, init=False, repr=False)
    _lock: object = field(default_factory=threading.Lock, init=False, repr=False)

    @classmethod
    def from_mesh(cls, mesh, coefficients):
        unit = Coefficients.constant(mesh)
        stiffness = assemble(mesh, unit, "stiffness")
        mass = assemble(mesh, unit, "mass")
        pair_nu = assemble_cross(mesh, coefficients.nu)
        return cls(mesh, coefficients, stiffness, mass, pair_nu)

    def factor(self, curl_weight, mass_weight):
        """The solve map of (curl_weight K + mass_weight M), one SPD factor;
        it takes one or more columns."""
        matrix = curl_weight * self.stiffness + mass_weight * self.mass
        return splu(matrix.tocsc(), **SPD_SPLU).solve

    def _galerkin_start(self, a, b, rhs, spans):
        # x = V y per column, V its span, from V' (a K + b M) V y = V' rhs;
        # _SPAN_COLUMNS columns' spans share one product with K and with M.
        # V is column-major, so each span is alike whatever shares its chunk.
        start = np.zeros_like(rhs)
        for lo in range(0, len(spans), _SPAN_COLUMNS):
            chunk = spans[lo : lo + _SPAN_COLUMNS]
            v = np.array([u for span in chunk for u in span]).T
            kv, mv = self.stiffness @ v, self.mass @ v
            end = 0
            for j, span in enumerate(chunk, lo):
                s = slice(end, end := end + len(span))
                av = a[j] * kv[:, s] + b[j] * mv[:, s]
                y = np.linalg.lstsq(v[:, s].T @ av, v[:, s].T @ rhs[:, j], rcond=None)[0]
                start[:, j] = v[:, s] @ y
        return start

    def solve(self, curl_weight, mass_weight, rhs_list, anchor, counts, spans=None):
        """Solutions of (curl_weight K + mass_weight M) x = r, one per r.

        Weights are numbers or one per r; ``counts`` is one dict or one
        per r, and the columns sharing a dict (and weights) are one solve
        that adds its most PCG steps ("pcg_steps") and fallback
        factorizations ("direct_solves") to it.  One multi-column PCG,
        weighting K and M per column, serves all, preconditioned by Jacobi
        if no column has a curl weight, else by the ``anchor K + M`` factor
        over each column's mass weight.  A solve that PCG_MAXIT steps leave
        unsolved factors its matrix once.

        ``spans``, one non-empty sequence of vectors per r, starts each
        column from the Galerkin projection of its own system onto their
        span instead of from the preconditioned r.  Its small Gram system
        is solved by least squares, so a dependent span (a vector given
        twice) serves too.  The stop does not change: a start that already
        meets it takes 0 steps.  The solutions are views of one block.
        """
        rhs = np.asarray(rhs_list).T
        a, b = (np.broadcast_to(w, rhs.shape[1:]) for w in (curl_weight, mass_weight))
        start = None if spans is None else self._galerkin_start(a, b, rhs, spans)
        if not a.any():
            diagonal = self.mass.diagonal()[:, None]
            base = lambda r: r / diagonal  # noqa: E731
        else:
            with self._lock:
                if self._shared is None or self._shared[0] != anchor:
                    self._shared = (anchor, self.factor(anchor, 1.0))
                base = self._shared[1]

        def apply(v, cols):  # in place where it saves a block of vectors
            q = self.mass @ v
            q *= b[cols]
            if a.any():
                t = self.stiffness @ v
                t *= a[cols]
                q += t
            return np.asfortranarray(q)

        x, steps, stuck = _pcg(apply, lambda r, cols: base(r) / b[cols], rhs, start)
        groups = {}
        for j, group in enumerate([counts] * a.size if isinstance(counts, dict) else counts):
            groups.setdefault(id(group), (group, []))[1].append(j)
        for group, cols in groups.values():
            group["pcg_steps"] += int(steps[cols].max())
            if np.isin(cols, stuck).any():
                group["direct_solves"] += 1
                x[:, cols] = self.factor(a[cols[0]], b[cols[0]])(rhs[:, cols])
        return list(x.T)


def _pairs(ws, period, k, weight, eta, zeta, load, alpha):
    # The flux columns of mode k, pair by pair, one per member: the pair's
    # index into _PAIR_KEYS, the time weight, the field phi, the tet means
    # Gbar of G and the oscillation |G - Gbar|^2, all from _pair_points,
    # the load part (Gbar, curl phi_e) of its flux right-hand sides and
    # nu curl phi per tet.
    columns = []
    points = _pair_points(ws.mesh, ws.coefficients, period, k, eta, zeta, load, alpha)
    for p, members in enumerate(points):
        for phi, g, d in members:
            mean = 6.0 * np.einsum("q,tqi->ti", TET_P5_WEIGHTS, g)
            osc = integrate_squared(ws.mesh, g - mean[:, None, :])
            columns.append((p, weight, phi, mean, osc, assemble_curl_load(ws.mesh, mean), d))
    return columns


def _dot(a, b):
    return np.einsum("ti,ti->t", a, b)


def _residual_sums(ws, kind, columns, fluxes):
    # Residual sums keyed like MajorantReport.residual_sums, each column
    # at its time weight, per tet in closed form: curl t is constant, so
    # |G - curl t|^2 integrates to |G - Gbar|^2 + vol |Gbar - curl t|^2;
    # t - nu curl phi is linear, so its square integrates to vol/20
    # (|sum v_i|^2 + sum |v_i|^2) over its vertex values v_i.  Then the
    # sums of the terms' magnitudes, the scale of their rounding: per tet
    # |a|^2 + |b|^2 + 2 |a.b| = |a - b|^2 + 4 max(a.b, 0) for a - b.
    mesh, vols = ws.mesh, basis_data(ws.mesh).vols
    sums, scales = dict.fromkeys(_KEYS, 0.0), dict.fromkeys(_KEYS, 0.0)
    for (p, w, _, mean, osc, _, d), x in zip(columns, fluxes):
        eq_key, def_key = _PAIR_KEYS[kind][p]
        curl = fe_curls(mesh, x)
        v = fe_vertex_values(mesh, x) - d[:, None, :]
        total = np.einsum("tvi->ti", v)
        eq = osc + vols @ _dot(mean - curl, mean - curl)
        defect = vols @ (_dot(total, total) + np.einsum("tvi,tvi->t", v, v)) / 20.0
        sums[eq_key] += w * eq
        sums[def_key] += w * defect
        scales[eq_key] += w * (eq + 4.0 * (vols @ np.maximum(_dot(mean, curl), 0.0)))
        scales[def_key] += w * (defect + vols @ np.maximum(_dot(total + 4.0 * d, d), 0.0))
    return sums, scales


def residual_forms(workspace, period, k, eta, fluxes, load, zeta=None, alpha=None):
    """``residuals_forward`` (fluxes = (tau,)) or, given zeta and alpha,
    ``residuals_ocp`` (fluxes = (tau, rho)) from the per-tet closed forms
    that steer and report minimize_majorant, equal to them up to rounding."""
    kind = "forward" if zeta is None else "ocp"
    columns = _pairs(workspace, period, k, 1.0, eta, zeta, load, alpha)
    flat = [t[i] for t in fluxes for i in range(1 if k == 0 else 2)]
    sums, _ = _residual_sums(workspace, kind, columns, flat)
    return tuple(sums[key] for key in _KEYS[: 2 * len(fluxes)])


def _flux_step(ws, kind, columns, work, cf):
    # One lock-step flux step: the residual sums and scales and the fluxes
    # (by column index) of each bound of ``work``, a list of groups
    # (weights, column indices, counts, spans) each; spans are None (a
    # cold start) or one ws.solve span per column.  At weights (w_eq, w_def)
    # a flux minimizes w_eq |G - curl t|^2 + w_def |t - nu curl phi|^2.
    # Whole groups, the widest first (so no flux is held while the widest
    # block runs) fill blocks, one ws.solve each; a bound's residuals are
    # summed once every block is solved.
    queue = sorted((g for groups in work for g in groups), key=lambda g: len(g[1]), reverse=True)
    fluxes = {}
    while queue:
        block = [queue.pop(0)]
        while queue and sum(len(g[1]) for g in block + queue[:1]) <= _BLOCK_COLUMNS:
            block.append(queue.pop(0))
        cols = [(w, i, counts) for w, rows, counts, _ in block for i in rows]
        a, b = zip(*(w for w, _, _ in cols))
        rhs = np.array([
            w[0] * columns[i][5] + w[1] * (ws.pair_nu @ columns[i][2]) for w, i, _ in cols
        ])
        spans = None if block[0][3] is None else [span for g in block for span in g[3]]
        solved = ws.solve(a, b, rhs, cf * cf, [counts for _, _, counts in cols], spans)
        fluxes.update(zip((i for _, i, _ in cols), solved))
    results = []
    for groups in work:
        mine = {i: fluxes[i] for i in sorted(i for g in groups for i in g[1])}
        sums = _residual_sums(ws, kind, [columns[i] for i in mine], list(mine.values()))
        results.append((*sums, mine))
    return results


@dataclass(eq=False)
class TraceRow:
    """One minimization step: parameters held, bound achieved."""

    iteration: int
    wall_time: float
    betas: tuple
    majorant_sq: float


@dataclass(eq=False)
class MajorantReport:
    """Outcome of the alternating majorant minimization; a total's report
    lists its modes' reports in ``modes``."""

    kind: str
    betas: tuple
    residual_sums: dict
    tail: float
    majorant_sq: float
    converged: bool
    pcg_steps: int
    direct_solves: int
    trace: list = field(default_factory=list)
    mode: int = None
    error_sq: float = None
    modes: list = field(default_factory=list)

    @property
    def efficiency(self):
        """majorant_sq / error_sq, or None without an error."""
        return None if self.error_sq is None else efficiency_index(self.majorant_sq, self.error_sq)


def minimize_majorant(
    mesh,
    coefficients,
    period,
    kind,
    state,
    loads,
    constants,
    adjoint=None,
    alpha=None,
    mode=None,
    tail=0.0,
    error_sq=None,
    tol=1e-4,
    maxit=50,
    workspace=None,
):
    """Alternating flux / Young-parameter minimization of the bound.

    Parameters
    ----------
    state : FourierField
        Approximation on the full edge set (boundary entries zero).
    loads : callable
        Maps a mode index to a (cos, sin) pair of point evaluators: the
        load for the forward problem, the desired state for the ocp.
    constants : StabilityConstants matching ``kind`` and the seminorm.
    adjoint : FourierField, required for the ocp.
    mode : int, optional
        Restrict to a single mode (with its own time weight); the default
        bounds each mode 0..N (``modes``) and sums them into the total.
    tail : float, the total's data remainder (T/2) sum_{k > N} |f_k|^2;
        a single mode refuses a nonzero one (ValueError).
    error_sq : float, optional
        Squared true error quantity that ``efficiency`` divides by.
    workspace : FluxWorkspace, optional
        Built from this ``mesh`` and ``coefficients`` (else ValueError);
        by default a new one.
    tol : absolute stop threshold on the decrease of the squared bound.
        It is raised to FORM_NOISE machine epsilons of the bound on the
        magnitudes of its terms, so a bound that only moves by rounding
        stops.  That floor is at least FORM_NOISE ulps of the bound
        itself: each term magnitude is at least its residual.

    Returns a MajorantReport whose trace records, per iteration, the
    parameters in force during the flux solve, the bound they yield and
    the iteration's wall time.  Each mode's flux columns are built once;
    the modes' bounds run in lock-step, each with its own parameters,
    stop, trace and counts of PCG steps and fallback factorizations.
    Iteration 1 projects nu curl of the fields; from iteration 2 on, block
    PCG (in blocks of _BLOCK_COLUMNS) solves the flux subproblems of every
    unfinished bound at its weights to relative residual PCG_RTOL, so a
    bound does not increase beyond rounding.  Each column starts from the
    Galerkin projection of its system onto the fluxes its bound found in
    its last two flux steps, held by reference until the bound converges.
    A bound reads no other bound's, so it reports what ``mode=k`` alone
    does, up to SuperLU rounding, which varies with a block's width from
    mesh_n 3 on.  Its residuals are summed per tet in closed form, exact
    under the degree-5 rule; its bound, residual sums and betas are the
    last trace row.  A Friedrichs constant below the mesh's bounding box's
    raises ValueError.

    The total is the modes' bounds plus the tail's, ``cf^2 (1 +
    BETA_MIN)^p tail / lower^2`` (p = 1 forward, 2 ocp), and guaranteed:
    by Parseval the squared error is the time-weighted sum of the modes',
    each mode's bound holds at its own fluxes and parameters, and a
    truncated mode k > N (zero approximation and flux) is bounded by
    ``cf^2 (1 + beta)^p |f_k|^2 / lower^2`` at any beta > 0.  A sum of
    separate minima never exceeds the minimum of the sum, so the total is
    at most one minimized over parameters shared by all modes.  Its sums
    and counts are the modes' sums; it has no betas, trace or iterations
    of its own and converged when every mode did.
    """
    if kind not in ("forward", "ocp"):
        raise ValueError(f"unknown problem kind {kind!r}")
    if kind == "ocp":
        if adjoint is None:
            raise ValueError("ocp minimization needs the adjoint field")
        if alpha is None or not alpha > 0.0:
            raise ValueError("ocp minimization needs alpha > 0")
    if state.N != period.N or (adjoint is not None and adjoint.N != period.N):
        raise ValueError("field truncation does not match the period's mode count")
    if mode is not None and not 0 <= mode <= period.N:
        raise ValueError(f"mode {mode} outside 0..{period.N}")
    if mode is not None and tail != 0.0:
        raise ValueError("the data remainder tail belongs to the total, not to one mode")
    cf = constants.friedrichs
    if cf < friedrichs_constant(np.ptp(mesh.vertices, axis=0)) * (1.0 - 1e-12):
        raise ValueError(f"Friedrichs constant {cf!r} is below the domain's")
    ws = workspace if workspace is not None else FluxWorkspace.from_mesh(mesh, coefficients)
    if ws.mesh is not mesh or not (
        np.array_equal(ws.coefficients.sigma, coefficients.sigma)
        and np.array_equal(ws.coefficients.nu, coefficients.nu)
    ):
        raise ValueError("flux workspace was built for another mesh or coefficients")
    ks = range(period.N + 1) if mode is None else [int(mode)]
    tables = [
        _pairs(ws, period, k, period.T if k == 0 else 0.5 * period.T, state.mode(k),
               None if adjoint is None else adjoint.mode(k), loads(k), alpha) for k in ks
    ]
    columns = [column for table in tables for column in table]
    ends = np.cumsum([len(table) for table in tables])
    rows = [range(end - len(table), end) for table, end in zip(tables, ends)]
    unit = (1.0,) if kind == "forward" else (1.0,) * 3
    reports = [MajorantReport(kind, unit, None, 0.0, None, False, 0, 0, mode=k) for k in ks]
    kept = [{} for _ in rows]  # per bound: each column's last two fluxes

    def work(j, iteration):
        # bound j's groups: in iteration 1 its table's mass projection, then
        # one per pair at its weights, each column spanned by its kept fluxes
        if iteration == 1:
            return [((0.0, 1.0), rows[j], collections.Counter(), None)]
        w = _weights(reports[j].betas, cf)
        pairs = [[i for i in rows[j] if columns[i][0] == p] for p in range(len(_PAIR_KEYS[kind]))]
        return [((w[eq], w[de]), cols, collections.Counter(), [kept[j][i] for i in cols])
                for (eq, de), cols in zip(_PAIR_KEYS[kind], pairs)]

    for iteration in range(1, maxit + 1):
        live = [j for j, report in enumerate(reports) if not report.converged]
        if not live:
            break
        start = time.perf_counter()
        todo = [work(j, iteration) for j in live]
        solved = zip(live, todo, _flux_step(ws, kind, columns, todo, cf))
        elapsed = time.perf_counter() - start
        for j, groups, (sums, scales, mine) in solved:
            report = reports[j]
            report.pcg_steps += sum(counts["pcg_steps"] for _, _, counts, _ in groups)
            report.direct_solves += sum(counts["direct_solves"] for _, _, counts, _ in groups)
            kept[j] = {i: kept[j].get(i, [])[-1:] + [x] for i, x in mine.items()}
            value = _bound(sums, report.betas, constants, 0.0)
            report.trace.append(TraceRow(iteration, elapsed, report.betas, value))
            report.residual_sums, report.majorant_sq = sums, value
            noise = _bound(scales, report.betas, constants, 0.0)
            noise *= FORM_NOISE * np.finfo(float).eps
            parts = [sums[key] for key in _KEYS]
            if max(parts) == 0.0 or (
                iteration > 1 and abs(report.trace[-2].majorant_sq - value) <= max(tol, noise)
            ):
                report.converged, kept[j] = True, None
            elif iteration < maxit and kind == "forward":
                report.betas = (_balance(cf * cf * parts[0], parts[1]),)  # cf^2 r1 may be 0
            elif iteration < maxit:
                report.betas = beta_optimal_ocp(*parts, cf)
    if mode is not None:
        return replace(reports[0], error_sq=error_sq)
    tail_sq = _bound(dict.fromkeys(_KEYS, 0.0), (BETA_MIN,) * len(unit), constants, tail)
    sums = {key: sum(r.residual_sums[key] for r in reports) for key in _KEYS}
    return MajorantReport(
        kind, (), sums, tail, sum(r.majorant_sq for r in reports) + tail_sq,
        all(r.converged for r in reports), sum(r.pcg_steps for r in reports),
        sum(r.direct_solves for r in reports), error_sq=error_sq, modes=reports,
    )
