"""Benchmark problems on the unit cube with semi-analytic exact solutions.

Both built-in problems drive the spatial profile (0, 0, s(x)) with
s = sin(pi x1) sin(pi x2), an exact eigenfunction of curl curl (eigenvalue
2 pi^2) that satisfies the tangential boundary condition.  The time
profiles combine e^t sin t and e^t cos t on (0, 2 pi); their Fourier
coefficients have closed forms, so exact modal amplitudes and series
tails come out at machine precision.  A third, purely trigonometric data
set with finitely many modes is available for truncation-free runs.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from eddymh.edge_fem import Coefficients, DofMap, assemble_load, difference_norms
from eddymh.harmonics import FourierField, PeriodSpec
from eddymh.mesh import build_box_mesh
from eddymh.systems import SystemMatrices, build_forward, build_ocp, reconstruct, solve_mode

EIGENVALUE = 2.0 * math.pi**2
PROFILE_NORM_SQ = 0.25
PROFILE_CURL_SQ = math.pi**2 / 2.0

# modes per slice of the exact-error series tail
TAIL_CHUNK = 8192

# finite-mode amplitudes of the trigonometric data set
TRIG_AMPLITUDES = {0: (0.6, 0.0), 1: (1.0, -0.5), 2: (0.25, 0.75)}


def profile(points):
    """Spatial profile (0, 0, sin pi x1 sin pi x2), evaluated rowwise."""
    p = np.asarray(points, dtype=float)
    out = np.zeros_like(p)
    out[:, 2] = np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    return out


def profile_curl(points):
    """Curl of ``profile``; lies in the x1-x2 plane."""
    p = np.asarray(points, dtype=float)
    out = np.empty_like(p)
    out[:, 0] = np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
    out[:, 1] = -np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    out[:, 2] = 0.0
    return out


def _exp_trig_modes(k, which):
    """Fourier coefficients of e^t sin t or e^t cos t on (0, 2 pi).

    Closed forms follow from int_0^{2pi} e^t e^{i m t} dt = (e^{2pi}-1)/(1-im)
    for integer m.  Vectorized over k; k = 0 returns (mean, 0).
    """
    k = np.asarray(k, dtype=float)
    scale = math.expm1(2.0 * math.pi) / (2.0 * math.pi)
    a = 1.0 - k
    b = 1.0 + k
    fa, fb = a / (1.0 + a * a), b / (1.0 + b * b)
    ga, gb = 1.0 / (1.0 + a * a), 1.0 / (1.0 + b * b)
    if which == "sin":
        c = -scale * (fa + fb)
        s = scale * (ga - gb)
    elif which == "cos":
        c = scale * (ga + gb)
        s = scale * (fa - fb)
    else:
        raise ValueError(f"unknown profile {which!r}")
    # the k >= 1 normalization 2/T doubles the k = 0 value
    c = np.where(k == 0, 0.5 * c, c)
    s = np.where(k == 0, 0.0, s)
    return c, s


def exp_sin_modes(k):
    """Coefficients (c_k, s_k) of e^t sin t on (0, 2 pi); vectorized."""
    return _exp_trig_modes(k, "sin")


def exp_cos_modes(k):
    """Coefficients (c_k, s_k) of e^t cos t on (0, 2 pi); vectorized."""
    return _exp_trig_modes(k, "cos")


def forward_data_modes(k):
    """Modes of g = e^t (cos t + (2 pi^2 + 1) sin t), the forward load scale."""
    cc, cs = exp_cos_modes(k)
    sc, ss = exp_sin_modes(k)
    m = EIGENVALUE + 1.0
    return cc + m * sc, cs + m * ss


def forward_data_profile(t):
    t = np.asarray(t, dtype=float)
    return np.exp(t) * (np.cos(t) + (EIGENVALUE + 1.0) * np.sin(t))


def ocp_data_modes(k):
    """Modes of d = e^t (sin t + (2 pi^2+1)((2 pi^2+1) sin t - cos t))."""
    m = EIGENVALUE + 1.0
    sc, ss = exp_sin_modes(k)
    cc, cs = exp_cos_modes(k)
    w = 1.0 + m * m
    return w * sc - m * cc, w * ss - m * cs


def ocp_data_profile(t):
    t = np.asarray(t, dtype=float)
    m = EIGENVALUE + 1.0
    return np.exp(t) * (np.sin(t) + m * (m * np.sin(t) - np.cos(t)))


def _scaled_operator(k, omega):
    # L = [[mu, kw], [-kw, mu]] as s [[m, w], [-w, m]], s = max(mu, |kw|), so
    # q = m^2 + w^2 lies in [1, 2]; kw^2 itself overflows for |kw| > 1e154.
    mu = EIGENVALUE
    kw = np.asarray(k, dtype=float) * omega
    s = np.maximum(mu, np.abs(kw))
    m, w = mu / s, kw / s
    return s, m, w, m * m + w * w


def scalar_forward_exact(k, data_modes, omega=1.0):
    """Amplitudes A solving the modal equations mu A_c + kw A_s = g_c,
    -kw A_c + mu A_s = g_s for the eigenprofile; vectorized over k."""
    gc, gs = data_modes(k)
    s, m, w, q = _scaled_operator(k, omega)
    det = s * q
    return (m * gc - w * gs) / det, (w * gc + m * gs) / det


def scalar_ocp_exact(k, alpha, data_modes, omega=1.0):
    """State and adjoint amplitudes (A_c, A_s, P_c, P_s) of the modal
    optimality system for the eigenprofile.

    The modal operator L = [[mu, kw], [-kw, mu]] satisfies L^T L =
    (mu^2 + (kw)^2) I, which collapses the 4x4 solve to
    A = d / (1 + alpha (mu^2 + (kw)^2)) and P = -alpha L A, evaluated with
    L = s L' (``_scaled_operator``) as A = (d / s) / (1 / s + alpha s q) and
    P = -L' d / (1 / (alpha s) + s q): nothing overflows at tiny periods.
    """
    dc, ds = data_modes(k)
    s, m, w, q = _scaled_operator(k, omega)
    denom = 1.0 / s + alpha * s * q
    ac, as_ = dc / s / denom, ds / s / denom
    denom = 1.0 / (alpha * s) + s * q
    pc = -(m * dc + w * ds) / denom
    ps = -(-w * dc + m * ds) / denom
    return ac, as_, pc, ps


def _trig_modes(k):
    k = np.asarray(k)
    c = np.zeros(np.shape(k), dtype=float)
    s = np.zeros(np.shape(k), dtype=float)
    for kk, (cv, sv) in TRIG_AMPLITUDES.items():
        c = np.where(k == kk, cv, c)
        s = np.where(k == kk, sv, s)
    return c, s


def _trig_profile(t, omega):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for kk, (cv, sv) in TRIG_AMPLITUDES.items():
        out = out + cv * np.cos(kk * omega * t) + sv * np.sin(kk * omega * t)
    return out


# exponential data sets: (modes, time profile) per problem kind
_EXP_DATA = {
    "forward": (forward_data_modes, forward_data_profile),
    "ocp": (ocp_data_modes, ocp_data_profile),
}


@dataclass(eq=False)
class Benchmark:
    """One assembled benchmark problem plus its analytic reference data.

    Only the optimality system depends on ``alpha``, so
    ``dataclasses.replace(bench, alpha=a)`` is the problem for ``a`` on
    the same mesh, matrices and loads.
    """

    kind: str
    preset: str
    mesh: object
    dofmap: DofMap
    coefficients: Coefficients
    matrices: SystemMatrices
    period: PeriodSpec
    alpha: object
    data_modes: object
    data_profile: object
    load_vector: np.ndarray

    def mode_load(self, k):
        """Assembled per-mode load(s): one vector for k = 0, else a pair."""
        c, s = self.data_modes(k)
        if k == 0:
            return (float(c) * self.load_vector,)
        return float(c) * self.load_vector, float(s) * self.load_vector

    def exact_state(self, k):
        """Exact state amplitudes (A_c, A_s) of the profile; vectorized."""
        if self.kind == "forward":
            return scalar_forward_exact(k, self.data_modes, self.period.omega)
        return scalar_ocp_exact(k, self.alpha, self.data_modes, self.period.omega)[:2]

    def exact_adjoint(self, k):
        """Exact adjoint amplitudes (P_c, P_s) of the control problem."""
        return scalar_ocp_exact(k, self.alpha, self.data_modes, self.period.omega)[2:]


def build_benchmark(kind, n, N, alpha=None, T=2.0 * math.pi, preset="exp"):
    """Assemble a benchmark problem on the unit-cube mesh with 6 n^3 tets.

    kind ∈ {"forward", "ocp"} selects the problem; preset ∈ {"exp",
    "trig"} selects the data.  The exponential data set requires
    T = 2 pi, where its closed-form coefficients hold.
    """
    if kind not in ("forward", "ocp"):
        raise ValueError(f"unknown problem kind {kind!r}")
    if kind == "ocp":
        if alpha is None or not alpha > 0:
            raise ValueError("ocp benchmark needs alpha > 0")
    period = PeriodSpec(T, N)
    if preset == "exp":
        if abs(T - 2.0 * math.pi) > 1e-12:
            raise ValueError("the exponential data set is defined for T = 2 pi")
        data_modes, data_profile = _EXP_DATA[kind]
    elif preset == "trig":
        data_modes = _trig_modes

        def data_profile(t):
            return _trig_profile(t, period.omega)

    else:
        raise ValueError(f"unknown preset {preset!r}")

    mesh = build_box_mesh(n)
    dofmap = DofMap.from_mesh(mesh)
    coefficients = Coefficients.constant(mesh)
    matrices = SystemMatrices.from_mesh(mesh, coefficients, dofmap)
    load_vector = assemble_load(mesh, dofmap, profile)
    return Benchmark(
        kind=kind,
        preset=preset,
        mesh=mesh,
        dofmap=dofmap,
        coefficients=coefficients,
        matrices=matrices,
        period=period,
        alpha=alpha,
        data_modes=data_modes,
        data_profile=data_profile,
        load_vector=load_vector,
    )


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _solve_one_mode(bench, k, tol, maxit):
    # Returns only the solution and its stats, so the mode's factor is
    # freed when the task ends rather than when the whole solve does.
    loads = bench.mode_load(k)
    if bench.kind == "forward":
        system = build_forward(k, bench.matrices, bench.period, *loads)
    else:
        system = build_ocp(k, bench.matrices, bench.alpha, bench.period, *loads)
    return solve_mode(system, tol=tol, maxit=maxit)


def solve_benchmark(bench, tol=1e-10, maxit=2000):
    """Solve all modes 0..N; returns ({"state": ..., "adjoint": ...}, stats).

    The modes are independent systems, so they are built and solved
    concurrently, one thread per available core (at most one per mode).
    SuperLU releases the interpreter lock while it factors and solves.
    Results keep mode order; the first failing mode's exception is raised.
    """
    modes = range(bench.period.N + 1)
    with ThreadPoolExecutor(max_workers=min(len(modes), _cores())) as pool:
        solved = list(pool.map(lambda k: _solve_one_mode(bench, k, tol, maxit), modes))
    state = []
    adjoint = []
    for k, (parts, _) in zip(modes, solved):
        if k == 0:
            state.append(parts["y_c"])
            if "p_c" in parts:
                adjoint.append(parts["p_c"])
        else:
            state.append((parts["y_c"], parts["y_s"]))
            if "p_c" in parts:
                adjoint.append((parts["p_c"], parts["p_s"]))
    fields = {"state": reconstruct(state, bench.period)}
    if adjoint:
        fields["adjoint"] = reconstruct(adjoint, bench.period)
    return fields, [st for _, st in solved]


def full_field(dofmap, field):
    """Zero-extend a free-DOF Fourier field to the full edge set."""
    return FourierField(
        dofmap.extend(field.mode0),
        [(dofmap.extend(c), dofmap.extend(s)) for c, s in field.modes],
    )


def mode_evaluators(bench):
    """Per-mode point-evaluator pairs of the benchmark data.

    Returns a callable mapping a mode index to (cosine, sine) field
    evaluators, the form the residual computations consume.
    """

    def loads(k):
        c, s = bench.data_modes(k)
        return (
            lambda p, a=float(c): a * profile(p),
            lambda p, a=float(s): a * profile(p),
        )

    return loads


@dataclass(eq=False)
class ErrorBreakdown:
    """Squared error pieces in the half-derivative seminorm and full norm.

    ``semi_modes[k]`` is mode k's contribution (time weights included);
    the tail covers all exact modes beyond the truncation.
    """

    semi_modes: list
    norm_modes: list
    semi_tail: float
    norm_tail: float

    @property
    def semi_total(self):
        return float(sum(self.semi_modes) + self.semi_tail)

    @property
    def norm_total(self):
        return float(sum(self.norm_modes) + self.norm_tail)


def error_breakdown(bench, field, exact, kmax=200000):
    """Exact squared errors of a modal FE field against scalar amplitudes.

    ``exact`` maps mode indices (vectorized) to amplitude pairs of the
    spatial profile.  Modes up to the truncation are integrated with the
    degree-5 rule; the remaining series is summed directly to ``kmax``,
    far past where the amplitudes' quadratic decay makes terms vanish,
    TAIL_CHUNK modes at a time so that no array spans the whole tail.
    """
    mesh, dofmap, period = bench.mesh, bench.dofmap, bench.period
    T, omega = period.T, period.omega
    semi_modes = []
    norm_modes = []
    for k in range(period.N + 1):
        # the mean mode has no sine member; its time weight is T, not T / 2
        members = list(zip(exact(k), field.mode(k)))[: 1 if k == 0 else 2]
        l2 = 0.0
        curl = 0.0
        for amp, coef in members:
            dl2, dcurl = difference_norms(
                mesh,
                dofmap.extend(coef),
                lambda p, a=float(amp): a * profile(p),
                lambda p, a=float(amp): a * profile_curl(p),
            )
            l2 += dl2
            curl += dcurl
        weight = T if k == 0 else 0.5 * T
        semi_modes.append(weight * (k * omega * l2 + curl))
        norm_modes.append(weight * ((1.0 + k * omega) * l2 + curl))
    semi_tail = 0.0
    norm_tail = 0.0
    for first in range(period.N + 1, kmax + 1, TAIL_CHUNK):
        ks = np.arange(first, min(first + TAIL_CHUNK, kmax + 1))
        tc, ts = exact(ks)
        amp_sq = (np.asarray(tc) ** 2 + np.asarray(ts) ** 2) * PROFILE_NORM_SQ
        curl_sq = (np.asarray(tc) ** 2 + np.asarray(ts) ** 2) * PROFILE_CURL_SQ
        kw = ks * omega
        semi_tail += float(np.sum(kw * amp_sq + curl_sq))
        norm_tail += float(np.sum((1.0 + kw) * amp_sq + curl_sq))
    return ErrorBreakdown(
        semi_modes, norm_modes, 0.5 * T * semi_tail, 0.5 * T * norm_tail
    )


def benchmark_errors(bench, fields, kmax=200000):
    """Error breakdowns for the solved fields: state and, for ocp, adjoint."""
    out = {"state": error_breakdown(bench, fields["state"], bench.exact_state, kmax)}
    if bench.kind == "ocp":
        out["adjoint"] = error_breakdown(
            bench, fields["adjoint"], bench.exact_adjoint, kmax
        )
    return out
