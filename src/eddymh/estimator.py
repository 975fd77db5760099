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
(kw -> -kw).  One residual kernel and one flux step serve every pair.

As any flux gives a valid bound, an inexact flux solve can only make it
less sharp, never wrong: every flux matrix ``a K + b M`` is solved by
conjugate gradients preconditioned with one shared factor of
``cf^2 K + M``, the matrix at unit Young parameters.
"""

import math
import threading
import time
from dataclasses import dataclass, field

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
    integrate_squared,
)
from eddymh.harmonics import friedrichs_constant
from eddymh.systems import SPD_SPLU

BETA_MIN = 1e-8
BETA_MAX = 1e8

# PCG off the shared factor serves flux matrices whose ratio a / b lies
# within a factor FLUX_BAND of the factor's (the preconditioned spectrum
# then lies in [1 / FLUX_BAND, FLUX_BAND]); each column stops at PCG_RTOL.
FLUX_BAND = 8.0
PCG_MAXIT = 100
PCG_RTOL = 1e-10


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
    quantity : {"seminorm", "norm"}
        Which error quantity the majorant is meant to bound.
    coefficients : Coefficients
        Supplies the essential bounds of sigma and nu.
    alpha : float, required for the control problem
    friedrichs : float, optional
        Defaults to the unit-cube constant 1/(sqrt(2) pi).
    """
    cf = friedrichs_constant() if friedrichs is None else float(friedrichs)
    if not cf > 0.0:
        raise ValueError("Friedrichs constant must be positive")
    s_lo, s_hi = coefficients.sigma_min, coefficients.sigma_max
    n_lo, n_hi = coefficients.nu_min, coefficients.nu_max
    if problem == "forward":
        if quantity == "seminorm":
            lower = min(n_lo, s_lo) / math.sqrt(2.0)
        elif quantity == "norm":
            lower = min(n_lo / (1.0 + cf * cf), s_lo) / math.sqrt(2.0)
        else:
            raise ValueError(f"unknown quantity {quantity!r}")
        upper = max(s_hi, n_hi)
    elif problem == "ocp":
        if alpha is None or not alpha > 0.0:
            raise ValueError("ocp constants need alpha > 0")
        inv = 1.0 / alpha
        if quantity == "seminorm":
            lower = min(n_lo, s_lo) * min(alpha, inv) / math.sqrt(2.0)
            upper = (1.0 + cf * cf) * max(1.0, inv, n_hi, s_hi)
        elif quantity == "norm":
            lower = (
                min(1.0 / math.sqrt(alpha), n_lo, s_lo)
                * min(math.sqrt(alpha), 1.0 / math.sqrt(alpha))
                / math.sqrt(1.0 + 2.0 * max(alpha, inv))
            )
            upper = max(1.0, inv, n_hi, s_hi)
        else:
            raise ValueError(f"unknown quantity {quantity!r}")
    else:
        raise ValueError(f"unknown problem {problem!r}")
    return StabilityConstants(lower, upper, cf)


def _curl_at_points(mesh, coef):
    return fe_curls(mesh, coef)[:, None, :]


def _analytic_at_points(mesh, f):
    bd = basis_data(mesh)
    nt, nq = bd.points.shape[:2]
    return np.asarray(f(bd.points.reshape(-1, 3))).reshape(nt, nq, 3)


def _pair_residuals(mesh, coefficients, kw, field, flux, load):
    # squared equation residual and flux defect of one pair, summed over
    # the members of ``load`` (its point values, one per member: the
    # cosine alone for the mean mode, else cosine and sine)
    sig = coefficients.sigma[:, None, None]
    nu = coefficients.nu[:, None, None]
    eq = 0.0
    defect = 0.0
    for i, g in enumerate(load):
        if kw:
            g = g + (2 * i - 1) * kw * sig * fe_values(mesh, field[1 - i])
        eq += integrate_squared(mesh, g - _curl_at_points(mesh, flux[i]))
        defect += integrate_squared(
            mesh, fe_values(mesh, flux[i]) - nu * _curl_at_points(mesh, field[i])
        )
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
    members = (_analytic_at_points(mesh, f) for f in load[: 1 if k == 0 else 2])
    return _pair_residuals(mesh, coefficients, k * period.omega, eta, tau, members)


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
    m = 1 if k == 0 else 2
    kw = k * period.omega
    state = (-fe_values(mesh, z) / alpha for z in zeta[:m])
    adjoint = (
        fe_values(mesh, e) - _analytic_at_points(mesh, y)
        for e, y in zip(eta[:m], desired[:m])
    )
    r3, r2 = _pair_residuals(mesh, coefficients, kw, eta, tau, state)
    r1, r4 = _pair_residuals(mesh, coefficients, -kw, zeta, rho, adjoint)
    return r1, r2, r3, r4


def _forward_weights(beta, cf):
    # weights of the equation residual (with the tail) and the flux defect
    return cf * cf * (1.0 + beta), (1.0 + beta) / beta


def _ocp_weights(betas, cf):
    # weights of R1 (with the tail), R2, R3 and R4 in the ocp bound
    b1, b2, b3 = betas
    cf2 = cf * cf
    return (
        cf2 * (1.0 + b1) * (1.0 + b2),
        (1.0 + b1) * (1.0 + b2) / b2,
        cf2 * (1.0 + b1) * (1.0 + b3) / b1,
        (1.0 + b1) * (1.0 + b3) / (b1 * b3),
    )


def majorant_forward(r1_sq, r2_sq, constants, beta, tail=0.0):
    """Squared forward majorant M^2(beta) from space-time summed residuals.

    The data remainder ``tail`` joins the equation-residual group.
    """
    if min(r1_sq, r2_sq, tail) < 0.0:
        raise ValueError("residual norms must be nonnegative")
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    w_a, w_b = _forward_weights(beta, constants.friedrichs)
    return (w_a * (r1_sq + tail) + w_b * r2_sq) / constants.lower**2


def majorant_ocp(r1_sq, r2_sq, r3_sq, r4_sq, constants, betas, tail=0.0):
    """Squared quadratic majorant of the combined state-adjoint error.

    Bounds the sum of the two squared half-derivative seminorms. beta1
    balances the state group against the adjoint group; beta2 and beta3
    balance each group's equation residual against its flux defect.
    """
    if min(r1_sq, r2_sq, r3_sq, r4_sq, tail) < 0.0:
        raise ValueError("residual norms must be nonnegative")
    b1, b2, b3 = betas
    if not (b1 > 0.0 and b2 > 0.0 and b3 > 0.0):
        raise ValueError("Young parameters must be positive")
    w_r1, w_r2, w_r3, w_r4 = _ocp_weights(betas, constants.friedrichs)
    val = w_r1 * (r1_sq + tail) + w_r3 * r3_sq + w_r2 * r2_sq + w_r4 * r4_sq
    return val / constants.lower**2


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


def _pcg(matrix, precondition, rhs):
    # Multi-column preconditioned CG started from precondition(rhs); every
    # column stops at relative residual PCG_RTOL and then drops out, so a
    # zero column never divides.  Returns (solution, steps), or
    # (None, steps) when PCG_MAXIT steps did not suffice.
    goal = PCG_RTOL * np.linalg.norm(rhs, axis=0)
    x = precondition(rhs)
    r = rhs - matrix @ x
    todo = np.flatnonzero(np.linalg.norm(r, axis=0) > goal)
    r = r[:, todo]
    z = precondition(r)
    p = z
    rz = np.einsum("ij,ij->j", r, z)
    steps = 0
    while todo.size:
        if steps == PCG_MAXIT:
            return None, steps
        steps += 1
        q = matrix @ p
        step = rz / np.einsum("ij,ij->j", p, q)
        x[:, todo] += step * p
        r -= step * q
        keep = np.linalg.norm(r, axis=0) > goal[todo]
        todo, r, p, rz = todo[keep], r[:, keep], p[:, keep], rz[keep]
        if todo.size:
            z = precondition(r)
            rz_next = np.einsum("ij,ij->j", r, z)
            p = z + (rz_next / rz) * p
            rz = rz_next
    return x, steps


@dataclass(eq=False)
class FluxWorkspace:
    """Unconstrained-edge-space operators shared by all flux solves.

    The flux fields carry no boundary condition, so every matrix lives
    on the full edge set: unit-weight curl-curl and mass, plus the
    pairings C_w[i, j] = int w phi_i . curl phi_j for w = sigma, nu, 1.
    The workspace keeps one factor, of ``anchor K + M``, built by the
    first solve that needs it (under a lock, so concurrent minimizations
    share it) and replaced only by a solve with another anchor.
    """

    mesh: object
    coefficients: Coefficients
    stiffness: object
    mass: object
    pair_sigma_t: object
    pair_nu: object
    pair_one_t: object
    _factor: tuple = field(default=None, init=False, repr=False)
    _lock: object = field(default_factory=threading.Lock, init=False, repr=False)

    @classmethod
    def from_mesh(cls, mesh, coefficients):
        unit = Coefficients.constant(mesh)
        stiffness = assemble(mesh, unit, "stiffness")
        mass = assemble(mesh, unit, "mass")
        pair_sigma = assemble_cross(mesh, coefficients.sigma)
        pair_nu = assemble_cross(mesh, coefficients.nu)
        pair_one = assemble_cross(mesh, np.ones(mesh.num_tets))
        return cls(
            mesh=mesh,
            coefficients=coefficients,
            stiffness=stiffness,
            mass=mass,
            pair_sigma_t=pair_sigma.T.tocsr(),
            pair_nu=pair_nu,
            pair_one_t=pair_one.T.tocsr(),
        )

    def solve(self, curl_weight, mass_weight, rhs_list, anchor, counts):
        """Solutions of (curl_weight K + mass_weight M) x = r, one per r.

        One multi-column PCG serves all of them: Jacobi for the mass
        matrix, the ``anchor K + M`` factor for a ratio within FLUX_BAND
        of ``anchor``.  Any other matrix, or a PCG past PCG_MAXIT steps,
        is factored once and the factor dropped.  ``counts`` accumulates
        "pcg_steps" and "direct_solves".
        """
        rhs = np.array(rhs_list).T
        matrix = curl_weight * self.stiffness + mass_weight * self.mass
        x, steps = None, 0
        if curl_weight == 0.0:
            diagonal = mass_weight * self.mass.diagonal()[:, None]
            x, steps = _pcg(matrix, lambda r: r / diagonal, rhs)
        elif anchor / FLUX_BAND <= curl_weight / mass_weight <= anchor * FLUX_BAND:
            with self._lock:
                if self._factor is None or self._factor[0] != anchor:
                    factored = (anchor * self.stiffness + self.mass).tocsc()
                    self._factor = (anchor, splu(factored, **SPD_SPLU))
                lu = self._factor[1]
            x, steps = _pcg(matrix, lambda r: lu.solve(r) / mass_weight, rhs)
        counts["pcg_steps"] += steps
        if x is None:
            counts["direct_solves"] += 1
            x = splu(matrix.tocsc(), **SPD_SPLU).solve(rhs)
        return list(x.T)


def _pairs(ws, period, kind, modes, alpha):
    # Every pair of every mode as (kw, field, curl load), laid out
    # pairs[p][j] for pair p (forward or state, then adjoint) of mode j.
    # A curl load holds, per member, the load g tested against the curl
    # of every edge basis function; fixed over a minimization, so built once.
    one = ws.pair_one_t
    pairs = ([], [])
    for k, eta, zeta, f in modes:
        kw = k * period.omega
        data = [assemble_curl_load(ws.mesh, None, g) for g in f[: 1 if k == 0 else 2]]
        if kind == "ocp":
            pairs[1].append((-kw, zeta, [one @ e - c for e, c in zip(eta, data)]))
            data = [-(one @ z) / alpha for z in zeta[: len(data)]]
        pairs[0].append((kw, eta, data))
    return list(pairs) if kind == "ocp" else [pairs[0]]


def _pair_rhs(ws, kw, field, curl_load, w_eq, w_def):
    # normal equations of w_eq |g - sigma d/dt phi - curl t|^2 +
    # w_def |t - nu curl phi|^2 in the flux t, one per member
    rhs = []
    for i, g in enumerate(curl_load):
        if kw:
            g = g + (2 * i - 1) * kw * (ws.pair_sigma_t @ field[1 - i])
        rhs.append(w_eq * g + w_def * (ws.pair_nu @ field[i]))
    return rhs


def _flux_step(ws, pairs, weights, cf, counts):
    # Fluxes laid out as ``pairs``, each a (cos, sin) tuple, a 1-tuple
    # for the mean mode, whose sine member the residuals ignore.  Pair p
    # takes one multi-column solve with its Young weights weights[p] =
    # (w_eq, w_def); without weights (iteration 1), one mass solve
    # projects nu curl (field) for every pair.
    if weights is None:
        rhs = [ws.pair_nu @ c for p in pairs for _, phi, g in p for c in phi[: len(g)]]
        solves = [(0.0, 1.0, rhs)]
    else:
        solves = [
            (w_eq, w_def, [r for p in pair for r in _pair_rhs(ws, *p, w_eq, w_def)])
            for pair, (w_eq, w_def) in zip(pairs, weights)
        ]
    solutions = iter([
        x for w_k, w_m, rhs in solves for x in ws.solve(w_k, w_m, rhs, cf * cf, counts)
    ])
    return [[tuple(next(solutions) for _ in g) for _, _, g in pair] for pair in pairs]


@dataclass(eq=False)
class TraceRow:
    """One minimization step: parameters held, bound achieved."""

    iteration: int
    wall_time: float
    betas: tuple
    majorant_sq: float
    efficiency: float = None


@dataclass(eq=False)
class MajorantReport:
    """Outcome of the alternating majorant minimization."""

    kind: str
    mode: int
    betas: tuple
    residual_sums: dict
    tail: float
    majorant_sq: float
    error_sq: float
    efficiency: float
    converged: bool
    pcg_steps: int
    direct_solves: int
    trace: list = field(default_factory=list)


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
        Restrict to a single mode (with its own time weight); the
        default sums modes 0..N plus the data remainder ``tail``.
    error_sq : float, optional
        Squared true error quantity; fills the efficiency columns.
    tol : absolute stop threshold on the decrease of the squared bound.
        It is raised to four ulps of the current bound, so a bound too
        large for ``tol`` to resolve stops once it only moves by rounding.

    Returns a MajorantReport whose trace records, per iteration, the
    parameters in force during the flux solve and the bound they yield.
    Iteration 1 evaluates the constitutive flux guess (the projection
    of nu curl applied to the fields) at unit parameters; from
    iteration 2 on, each step solves the flux subproblems for the
    current parameters to relative residual PCG_RTOL, so the recorded
    bound does not increase beyond rounding.  Every mode in an iteration
    shares the flux matrix of each pair, so an iteration runs one
    multi-column solve per pair (the mass matrix of iteration 1 once
    for all pairs): the right-hand sides of all modes are built first,
    solved together, and the residuals evaluated last.  The report
    counts the PCG steps and the one-shot factorizations those solves
    took.  The pairs' curl loads do not change between iterations and
    are built once per call.
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
    ws = workspace if workspace is not None else FluxWorkspace.from_mesh(mesh, coefficients)
    cf = constants.friedrichs
    mode_list = list(range(period.N + 1)) if mode is None else [int(mode)]
    weights = {k: period.T if k == 0 else 0.5 * period.T for k in mode_list}
    modes = [
        (k, state.mode(k), None if adjoint is None else adjoint.mode(k), loads(k))
        for k in mode_list
    ]
    pairs = _pairs(ws, period, kind, modes, alpha)
    betas = (1.0,) if kind == "forward" else (1.0, 1.0, 1.0)
    counts = {"pcg_steps": 0, "direct_solves": 0}
    trace = []
    converged = False
    previous = None
    sums = {}
    for iteration in range(1, maxit + 1):
        start = time.perf_counter()
        if iteration == 1:
            pair_weights = None
        elif kind == "forward":
            pair_weights = [_forward_weights(betas[0], cf)]
        else:
            w_r1, w_r2, w_r3, w_r4 = _ocp_weights(betas, cf)
            pair_weights = [(w_r3, w_r2), (w_r1, w_r4)]
        fluxes = _flux_step(ws, pairs, pair_weights, cf, counts)
        sums = {key: 0.0 for key in ("r1", "r2", "r3", "r4")}
        for (k, eta, zeta, f), *flux in zip(modes, *fluxes):
            if kind == "forward":
                res = residuals_forward(mesh, coefficients, period, k, eta, *flux, f)
            else:
                res = residuals_ocp(
                    mesh, coefficients, period, k, eta, zeta, *flux, f, alpha
                )
            for key, r in zip(("r1", "r2", "r3", "r4"), res):
                sums[key] += weights[k] * r
        if kind == "forward":
            value = majorant_forward(
                sums["r1"], sums["r2"], constants, beta=betas[0], tail=tail
            )
        else:
            value = majorant_ocp(
                sums["r1"], sums["r2"], sums["r3"], sums["r4"], constants, betas, tail=tail
            )
        eff = None if error_sq is None else efficiency_index(value, error_sq)
        trace.append(
            TraceRow(iteration, time.perf_counter() - start, betas, value, eff)
        )
        if previous is not None and abs(previous - value) <= max(
            tol, 4.0 * np.spacing(value)
        ):
            converged = True
            break
        previous = value
        groups = (sums["r1"] + tail, sums["r2"], sums["r3"], sums["r4"])
        if max(groups) == 0.0:
            converged = True
            break
        if kind == "forward":
            betas = (beta_optimal(cf * cf * groups[0], groups[1]),)
        else:
            betas = beta_optimal_ocp(*groups, cf)
    final = trace[-1]
    return MajorantReport(
        kind=kind,
        mode=mode,
        betas=final.betas,
        residual_sums=dict(sums),
        tail=tail,
        majorant_sq=final.majorant_sq,
        error_sq=error_sq,
        efficiency=final.efficiency,
        converged=converged,
        trace=trace,
        **counts,
    )
