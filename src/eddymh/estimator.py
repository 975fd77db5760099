"""Guaranteed a posteriori error bounds via flux reconstruction.

For any conforming approximation of the periodic state (and, for the
control problem, the adjoint), weighted sums of computable residual
norms bound the error in the half-derivative energy (semi)norm from
above.  The bound holds for arbitrary flux fields in the unconstrained
edge space and arbitrary positive Young parameters; it is tightened by
alternating exact minimization in the fluxes (SPD solves, decoupled
per mode and per component) and in the parameters (closed forms), so
the recorded value never increases between iterations.
"""

import math
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
    sig = coefficients.sigma[:, None, None]
    nu = coefficients.nu[:, None, None]
    if k == 0:
        r1v = _analytic_at_points(mesh, load[0]) - _curl_at_points(mesh, tau[0])
        r2v = fe_values(mesh, tau[0]) - nu * _curl_at_points(mesh, eta[0])
        return integrate_squared(mesh, r1v), integrate_squared(mesh, r2v)
    kw = k * period.omega
    r1 = 0.0
    r2 = 0.0
    for sign, this, other, t, f in (
        (-1.0, eta[0], eta[1], tau[0], load[0]),
        (+1.0, eta[1], eta[0], tau[1], load[1]),
    ):
        r1v = (
            _analytic_at_points(mesh, f)
            + sign * kw * sig * fe_values(mesh, other)
            - _curl_at_points(mesh, t)
        )
        r2v = fe_values(mesh, t) - nu * _curl_at_points(mesh, this)
        r1 += integrate_squared(mesh, r1v)
        r2 += integrate_squared(mesh, r2v)
    return r1, r2


def residuals_ocp(mesh, coefficients, period, k, eta, zeta, tau, rho, desired, alpha):
    """Squared residual norms (|R1|^2, ..., |R4|^2) of one optimality mode.

    R1: adjoint equation sigma d/dt zeta - curl rho + eta - y_d;
    R2: state flux defect tau - nu curl eta;
    R3: state equation -sigma d/dt eta + curl tau + zeta / alpha
        (the control is eliminated through u = -zeta / alpha);
    R4: adjoint flux defect rho - nu curl zeta.

    ``desired`` is the (cos, sin) evaluator pair of the target's mode.
    """
    sig = coefficients.sigma[:, None, None]
    nu = coefficients.nu[:, None, None]
    if k == 0:
        r1v = (
            fe_values(mesh, eta[0])
            - _analytic_at_points(mesh, desired[0])
            - _curl_at_points(mesh, rho[0])
        )
        r2v = fe_values(mesh, tau[0]) - nu * _curl_at_points(mesh, eta[0])
        r3v = _curl_at_points(mesh, tau[0]) + fe_values(mesh, zeta[0]) / alpha
        r4v = fe_values(mesh, rho[0]) - nu * _curl_at_points(mesh, zeta[0])
        return tuple(integrate_squared(mesh, v) for v in (r1v, r2v, r3v, r4v))
    kw = k * period.omega
    sums = [0.0, 0.0, 0.0, 0.0]
    for sign, ix in ((+1.0, (0, 1)), (-1.0, (1, 0))):
        this, other = ix
        r1v = (
            sign * kw * sig * fe_values(mesh, zeta[other])
            - _curl_at_points(mesh, rho[this])
            + fe_values(mesh, eta[this])
            - _analytic_at_points(mesh, desired[this])
        )
        r2v = fe_values(mesh, tau[this]) - nu * _curl_at_points(mesh, eta[this])
        r3v = (
            sign * kw * sig * fe_values(mesh, eta[other])
            + _curl_at_points(mesh, tau[this])
            + fe_values(mesh, zeta[this]) / alpha
        )
        r4v = fe_values(mesh, rho[this]) - nu * _curl_at_points(mesh, zeta[this])
        for i, v in enumerate((r1v, r2v, r3v, r4v)):
            sums[i] += integrate_squared(mesh, v)
    return tuple(sums)


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


@dataclass(eq=False)
class FluxWorkspace:
    """Unconstrained-edge-space operators shared by all flux solves.

    The flux fields carry no boundary condition, so every matrix lives
    on the full edge set: unit-weight curl-curl and mass, plus the
    pairings C_w[i, j] = int w phi_i . curl phi_j for w = sigma, nu, 1.
    No factor is kept: each ``solve`` factors its SPD matrix once, for
    all the right-hand sides it is given, and drops the factor.
    """

    mesh: object
    coefficients: Coefficients
    stiffness: object
    mass: object
    pair_sigma_t: object
    pair_nu: object
    pair_one_t: object

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

    def solve(self, curl_weight, mass_weight, rhs_list):
        """Solutions of (curl_weight K + mass_weight M) x = r, one per r.

        The matrix is SPD, so it is factored with a symmetric fill-reducing
        ordering and no pivoting; one factorization serves every
        right-hand side through a single multi-column solve.
        """
        lu = splu(
            (curl_weight * self.stiffness + mass_weight * self.mass).tocsc(),
            **SPD_SPLU,
        )
        return list(lu.solve(np.array(rhs_list).T).T)


def _solve_blocks(ws, curl_weight, mass_weight, blocks):
    # One factorization for every block of right-hand sides; each block
    # (one field of one mode) comes back as a (cos, sin) pair, a 1-tuple
    # for the mean mode, whose sine member the residuals ignore.
    solutions = iter(ws.solve(curl_weight, mass_weight, [r for b in blocks for r in b]))
    return [tuple(next(solutions) for _ in b) for b in blocks]


def _projected_rhs(ws, k, pair):
    # constitutive starting guess: L2 projection of nu curl (field)
    if k == 0:
        return [ws.pair_nu @ pair[0]]
    return [ws.pair_nu @ pair[0], ws.pair_nu @ pair[1]]


def _curl_loads(ws, k, load):
    # (f, curl phi_i) of the mode's data, cosine and sine; fixed over a
    # minimization, so assembled once
    members = load[:1] if k == 0 else load
    return tuple(assemble_curl_load(ws.mesh, None, f) for f in members)


def _forward_rhs(ws, period, k, eta, curl_load, weights):
    kw = k * period.omega
    a, b = weights
    if k == 0:
        return [a * curl_load[0] + b * (ws.pair_nu @ eta[0])]
    rhs_cos = (
        a * (curl_load[0] - kw * (ws.pair_sigma_t @ eta[1]))
        + b * (ws.pair_nu @ eta[0])
    )
    rhs_sin = (
        a * (curl_load[1] + kw * (ws.pair_sigma_t @ eta[0]))
        + b * (ws.pair_nu @ eta[1])
    )
    return [rhs_cos, rhs_sin]


def _ocp_rhs(ws, period, k, eta, zeta, curl_desired, alpha, weights):
    # (tau, rho) right-hand-side blocks of one mode
    kw = k * period.omega
    w_r1, w_r2, w_r3, w_r4 = weights
    if k == 0:
        tau_rhs = w_r2 * (ws.pair_nu @ eta[0]) - w_r3 / alpha * (
            ws.pair_one_t @ zeta[0]
        )
        rho_rhs = w_r1 * (ws.pair_one_t @ eta[0] - curl_desired[0]) + w_r4 * (
            ws.pair_nu @ zeta[0]
        )
        return [tau_rhs], [rho_rhs]
    tau_rhs = []
    rho_rhs = []
    for sign, this, other in ((+1.0, 0, 1), (-1.0, 1, 0)):
        q = sign * kw * (ws.pair_sigma_t @ eta[other]) + (
            ws.pair_one_t @ zeta[this]
        ) / alpha
        tau_rhs.append(w_r2 * (ws.pair_nu @ eta[this]) - w_r3 * q)
        m = (
            sign * kw * (ws.pair_sigma_t @ zeta[other])
            + ws.pair_one_t @ eta[this]
            - curl_desired[this]
        )
        rho_rhs.append(w_r1 * m + w_r4 * (ws.pair_nu @ zeta[this]))
    return tau_rhs, rho_rhs


def _forward_fluxes(ws, period, modes, curl_loads, beta, cf, first):
    # tau pairs of all modes from one factorization
    if first:
        blocks = [_projected_rhs(ws, k, eta) for k, eta, _, _ in modes]
        return _solve_blocks(ws, 0.0, 1.0, blocks)
    w = _forward_weights(beta, cf)
    blocks = [
        _forward_rhs(ws, period, k, eta, g, w)
        for (k, eta, _, _), g in zip(modes, curl_loads)
    ]
    return _solve_blocks(ws, *w, blocks)


def _ocp_fluxes(ws, period, modes, curl_loads, alpha, betas, cf, first):
    # (tau pairs, rho pairs) of all modes from one factorization per field,
    # or one for both fields on the first (projection) step
    if first:
        blocks = [_projected_rhs(ws, k, eta) for k, eta, _, _ in modes]
        blocks += [_projected_rhs(ws, k, zeta) for k, _, zeta, _ in modes]
        both = _solve_blocks(ws, 0.0, 1.0, blocks)
        return both[: len(modes)], both[len(modes) :]
    w = _ocp_weights(betas, cf)
    blocks = [
        _ocp_rhs(ws, period, k, eta, zeta, g, alpha, w)
        for (k, eta, zeta, _), g in zip(modes, curl_loads)
    ]
    w_r1, w_r2, w_r3, w_r4 = w
    taus = _solve_blocks(ws, w_r3, w_r2, [t for t, _ in blocks])
    rhos = _solve_blocks(ws, w_r1, w_r4, [r for _, r in blocks])
    return taus, rhos


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
    iteration 2 on, each step solves the flux subproblems exactly for
    the current parameters, so the recorded bound never increases.
    Every mode in an iteration shares the flux matrix of each field, so
    an iteration factors one SPD matrix per field (the mass matrix of
    iteration 1 once for all fields): the right-hand sides of all modes
    are built first, solved together, and the residuals evaluated last.
    The data's curl loads do not change between iterations and are
    assembled once per call.
    """
    if kind not in ("forward", "ocp"):
        raise ValueError(f"unknown problem kind {kind!r}")
    if kind == "ocp":
        if adjoint is None:
            raise ValueError("ocp minimization needs the adjoint field")
        if alpha is None or not alpha > 0.0:
            raise ValueError("ocp minimization needs alpha > 0")
    if state.N != period.N:
        raise ValueError("field truncation does not match the period's mode count")
    ws = workspace if workspace is not None else FluxWorkspace.from_mesh(mesh, coefficients)
    cf = constants.friedrichs
    mode_list = list(range(period.N + 1)) if mode is None else [int(mode)]
    weights = {k: period.T if k == 0 else 0.5 * period.T for k in mode_list}
    modes = [
        (k, state.mode(k), None if adjoint is None else adjoint.mode(k), loads(k))
        for k in mode_list
    ]
    curl_loads = [_curl_loads(ws, k, f) for k, _, _, f in modes]
    betas = (1.0,) if kind == "forward" else (1.0, 1.0, 1.0)
    trace = []
    converged = False
    previous = None
    sums = {}
    for iteration in range(1, maxit + 1):
        start = time.perf_counter()
        if kind == "forward":
            taus = _forward_fluxes(
                ws, period, modes, curl_loads, betas[0], cf, iteration == 1
            )
            rhos = [None] * len(modes)
        else:
            taus, rhos = _ocp_fluxes(
                ws, period, modes, curl_loads, alpha, betas, cf, iteration == 1
            )
        sums = {key: 0.0 for key in ("r1", "r2", "r3", "r4")}
        for (k, eta, zeta, f), tau, rho in zip(modes, taus, rhos):
            if kind == "forward":
                res = residuals_forward(mesh, coefficients, period, k, eta, tau, f)
            else:
                res = residuals_ocp(
                    mesh, coefficients, period, k, eta, zeta, tau, rho, f, alpha
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
        if kind == "forward":
            total_r1 = sums["r1"] + tail
            if total_r1 == 0.0 and sums["r2"] == 0.0:
                converged = True
                break
            betas = (beta_optimal(cf * cf * total_r1, sums["r2"]),)
        else:
            if max(sums["r1"] + tail, sums["r2"], sums["r3"], sums["r4"]) == 0.0:
                converged = True
                break
            betas = beta_optimal_ocp(
                sums["r1"] + tail, sums["r2"], sums["r3"], sums["r4"], cf
            )
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
    )
