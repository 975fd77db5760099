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
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from eddymh.edge_fem import (
    Coefficients,
    DofMap,
    assemble_load,
    basis_data,
    fe_curls,
    fe_vertex_values,
    integrate_squared,
)
from eddymh.harmonics import FourierField, PeriodSpec
from eddymh.mesh import build_box_mesh
from eddymh.quadrature import TET_P5_BARY, TET_P5_WEIGHTS
from eddymh.systems import (
    SystemMatrices,
    build_forward,
    build_ocp,
    mode_factor,
    reconstruct,
    solve_mode,
)

EIGENVALUE = 2.0 * math.pi**2
PROFILE_NORM_SQ = 0.25
PROFILE_CURL_SQ = math.pi**2 / 2.0

# The exact-error series tail is summed to mode TAIL_KMAX, far past where
# the amplitudes' quadratic decay makes terms vanish, TAIL_CHUNK modes at a
# time so that no array spans the whole tail.
TAIL_KMAX = 200000
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


def _exp_data(a, b):
    """Fourier modes and time profile of e^t (a cos t + b sin t) on (0, 2 pi).

    The modes' closed forms follow from int_0^{2pi} e^t e^{i m t} dt =
    (e^{2pi}-1)/(1-im) for integer m, so they agree with the profile to
    rounding, as the Parseval tail of the bound needs.  The modes are
    vectorized over k; k = 0 returns (mean, 0).
    """
    scale = math.expm1(2.0 * math.pi) / (2.0 * math.pi)

    def modes(k):
        k = np.asarray(k, dtype=float)
        lo, hi = 1.0 - k, 1.0 + k
        flo, fhi = lo / (1.0 + lo * lo), hi / (1.0 + hi * hi)
        glo, ghi = 1.0 / (1.0 + lo * lo), 1.0 / (1.0 + hi * hi)
        c = scale * (a * (glo + ghi) - b * (flo + fhi))
        s = scale * (a * (flo - fhi) + b * (glo - ghi))
        # the k >= 1 normalization 2/T doubles the k = 0 value
        return np.where(k == 0, 0.5 * c, c), np.where(k == 0, 0.0, s)

    def profile(t):
        t = np.asarray(t, dtype=float)
        return np.exp(t) * (a * np.cos(t) + b * np.sin(t))

    return modes, profile


# The exponential data sets, as (modes, time profile) per problem kind: the
# forward load scale g = e^t (cos t + (2 pi^2 + 1) sin t) and the desired
# state d = e^t (sin t + (2 pi^2 + 1)((2 pi^2 + 1) sin t - cos t)).
_EXP_DATA = {
    "forward": _exp_data(1.0, EIGENVALUE + 1.0),
    "ocp": _exp_data(-(EIGENVALUE + 1.0), 1.0 + (EIGENVALUE + 1.0) ** 2),
}


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


@dataclass(eq=False)
class Benchmark:
    """One assembled benchmark problem plus its analytic reference data.

    Only the optimality system depends on ``alpha``, so
    ``dataclasses.replace(bench, alpha=a)`` is the problem for ``a`` on
    the same mesh, matrices and loads.
    """

    kind: str
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

    def exact_amplitudes(self, k):
        """Exact (A_c, A_s), then for ocp (P_c, P_s); vectorized."""
        if self.kind == "forward":
            return scalar_forward_exact(k, self.data_modes, self.period.omega)
        return scalar_ocp_exact(k, self.alpha, self.data_modes, self.period.omega)

    def exact_state(self, k):
        """Exact state amplitudes (A_c, A_s) of the profile; vectorized."""
        return self.exact_amplitudes(k)[:2]

    def exact_adjoint(self, k):
        """Exact adjoint amplitudes (P_c, P_s) of the control problem."""
        return self.exact_amplitudes(k)[2:]


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
        kind, mesh, dofmap, coefficients, matrices, period, alpha,
        data_modes, data_profile, load_vector,
    )


def available_cores():
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The mean mode shares P* while kw* = omega sqrt(N) is at most this, and
# factors its own above it.  On P* its MINRES count grows with kw*: at
# n = 4 from 5 on its own factor to 8 at kw* = 10 and 17 at 100 (forward),
# and from 8 to 20 and 62 (ocp, alpha 31.6).  Up to 10 it takes no more
# steps than the slowest mode k >= 1 on P* at N = 64, and every
# default-period run (kw* = sqrt(N) <= 8) shares.
MEAN_SHARE_BAND = 10.0


def shared_factor(bench):
    """The preconditioner factor P* that the modes of ``bench`` share.

    It is P at kw* = omega sqrt(N), the geometric middle of the harmonics'
    frequencies [omega, N omega].  A case then factors once instead of N + 1
    times, and MINRES counts stay close to those of per-mode factors: at
    n = 4 and N = 64 the worst mode k >= 1 takes 26 iterations against 21
    (forward) and 26 against 22 (ocp, alpha 31.6).  The mean mode shares it
    inside ``MEAN_SHARE_BAND``.
    """
    kw = bench.period.omega * math.sqrt(bench.period.N)
    return mode_factor(bench.matrices, kw, bench.alpha if bench.kind == "ocp" else None)


def _solve_one_mode(bench, k, lu, tol, maxit):
    # Returns only the solution and its stats, so the system (and a mean
    # mode's own factors) is freed when the task ends rather than when the
    # whole solve does.
    loads = bench.mode_load(k)
    if bench.kind == "forward":
        system = build_forward(k, bench.matrices, bench.period, *loads, lu=lu)
    else:
        system = build_ocp(k, bench.matrices, bench.alpha, bench.period, *loads, lu=lu)
    return solve_mode(system, tol=tol, maxit=maxit)


def solve_benchmark(bench, tol=1e-10, maxit=2000):
    """Solve all modes 0..N; returns ({"state": ..., "adjoint": ...}, stats).

    The calling thread factors ``shared_factor`` once.  Then the modes,
    which are independent systems, are solved concurrently with it, one
    thread per available core (at most one per mode); SuperLU releases the
    interpreter lock while it solves.  The mean mode shares the factor
    while kw* is inside ``MEAN_SHARE_BAND``, so a default-period case holds
    one mode factor; above the band, and at N = 0, where there is no P*
    (at kw* = 0 it would be the floored, nearly singular K), the mean mode
    factors its own.  Results keep mode order; the first failing mode's
    exception is raised.
    """
    N = bench.period.N
    lu = shared_factor(bench) if N > 0 else None
    inside = bench.period.omega * math.sqrt(N) <= MEAN_SHARE_BAND
    factors = [lu if inside else None] + [lu] * N
    with ThreadPoolExecutor(max_workers=min(N + 1, available_cores())) as pool:
        # map submits every mode at once; results are read in mode order
        solved = list(
            pool.map(lambda k: _solve_one_mode(bench, k, factors[k], tol, maxit), range(N + 1))
        )
    fields = {}
    for name, c, s in (("state", "y_c", "y_s"), ("adjoint", "p_c", "p_s")):
        if c in solved[0][0]:
            # the mean mode has no sine member
            coeffs = [solved[0][0][c]] + [(p[c], p[s]) for p, _ in solved[1:]]
            fields[name] = reconstruct(coeffs, bench.period)
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


# the profile's degree-5 moments, one entry per live mesh, dropped with it
_MOMENTS = weakref.WeakKeyDictionary()


def _profile_moments(mesh):
    """(V, Q|p - Πp|^2, cbar, Q|curl p - cbar|^2) of the profile p under
    the degree-5 rule Q; ``benchmark_errors`` defines them."""
    moments = _MOMENTS.get(mesh)
    if moments is None:
        points = basis_data(mesh).points
        values, curls = (
            f(points.reshape(-1, 3)).reshape(points.shape) for f in (profile, profile_curl)
        )
        b = 6.0 * (TET_P5_BARY.T * TET_P5_WEIGHTS) @ values
        V = 20.0 * (b - b.sum(axis=1, keepdims=True) / 5.0)
        cbar = 6.0 * (TET_P5_WEIGHTS @ curls)
        osc = integrate_squared(mesh, values - TET_P5_BARY @ V)
        curl_osc = integrate_squared(mesh, curls - cbar[:, None, :])
        moments = _MOMENTS[mesh] = (V, osc, cbar, curl_osc)
    return moments


def _member_errors(mesh, amp, coef):
    """Q|amp p - u|^2 and Q|amp curl p - curl u|^2 for the FE field u with
    edge coefficients ``coef``, split as ``benchmark_errors`` describes."""
    V, osc, cbar, curl_osc = _profile_moments(mesh)
    vols = basis_data(mesh).vols
    D = amp * V - fe_vertex_values(mesh, coef)
    S, G = np.einsum("tvi->ti", D), amp * cbar - fe_curls(mesh, coef)
    l2 = vols @ (np.einsum("ti,ti->t", S, S) + np.einsum("tvi,tvi->t", D, D)) / 20.0
    return amp * amp * osc + l2, amp * amp * curl_osc + vols @ np.einsum("ti,ti->t", G, G)


def benchmark_errors(bench, fields):
    """Exact squared errors of the solved fields: state and, for ocp, adjoint.

    A member of a mode up to the truncation pairs an amplitude a with an FE
    field u; its errors are those of a p - u under the degree-5 rule Q.  Let
    Πp be the Q-projection of the profile p onto linear fields per tet, with
    vertex values V = 20 (b - sum_j b_j / 5), b_j = Q(p λ_j) / vol (the P1
    Gram matrix is vol (I + 11^T) / 20), and cbar the tet mean of curl p.
    p - Πp is Q-orthogonal to linear fields and Q is exact for degree 2, so
    per tet Q|a p - u|^2 = a^2 Q|p - Πp|^2 + vol/20 (|sum_i D_i|^2 +
    sum_i |D_i|^2) for D = a V - u at the vertices, and Q|a curl p - curl u|^2
    = a^2 Q|curl p - cbar|^2 + vol |a cbar - curl u|^2: sums of squares that
    equal the rule to rounding.  The series past the truncation is summed
    directly to TAIL_KMAX, one amplitude call per chunk for both fields.
    """
    period, T, omega = bench.period, bench.period.T, bench.period.omega
    names = ("state", "adjoint")[: 1 if bench.kind == "forward" else 2]
    errors = {name: ErrorBreakdown([], [], 0.0, 0.0) for name in names}
    for k in range(period.N + 1):
        amps = bench.exact_amplitudes(k)
        # the mean mode has no sine member; its time weight is T, not T / 2
        weight = T if k == 0 else 0.5 * T
        for i, (name, e) in enumerate(errors.items()):
            members = zip(amps[2 * i : 2 * i + (1 if k == 0 else 2)], fields[name].mode(k))
            l2 = curl = 0.0
            for amp, coef in members:
                dl2, dcurl = _member_errors(bench.mesh, float(amp), bench.dofmap.extend(coef))
                l2, curl = l2 + dl2, curl + dcurl
            e.semi_modes.append(weight * (k * omega * l2 + curl))
            e.norm_modes.append(weight * ((1.0 + k * omega) * l2 + curl))
    for first in range(period.N + 1, TAIL_KMAX + 1, TAIL_CHUNK):
        ks = np.arange(first, min(first + TAIL_CHUNK, TAIL_KMAX + 1))
        amps, kw = bench.exact_amplitudes(ks), ks * omega
        for i, e in enumerate(errors.values()):
            sq = np.asarray(amps[2 * i]) ** 2 + np.asarray(amps[2 * i + 1]) ** 2
            amp_sq, curl_sq = sq * PROFILE_NORM_SQ, sq * PROFILE_CURL_SQ
            e.semi_tail += float(np.sum(kw * amp_sq + curl_sq))
            e.norm_tail += float(np.sum((1.0 + kw) * amp_sq + curl_sq))
    for e in errors.values():
        e.semi_tail, e.norm_tail = 0.5 * T * e.semi_tail, 0.5 * T * e.norm_tail
    return errors
