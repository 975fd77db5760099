"""Fourier-in-time machinery for multiharmonic fields.

A time-periodic field is represented by its truncated real Fourier series
``v(t) = v_0^c + sum_k (v_k^c cos(k w t) + v_k^s sin(k w t))`` with edge
coefficient vectors per mode.  The perpendicular operation
``(c, s) -> (-s, c)`` realizes the quarter-period shift entering the
half-derivative pairings.
"""

import math
from dataclasses import dataclass

import numpy as np

from eddymh.quadrature import gauss_time_rule


@dataclass(frozen=True)
class PeriodSpec:
    """Period T, derived base frequency, and truncation index N."""

    T: float
    N: int

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError("period must be positive")
        if self.N < 0:
            raise ValueError("truncation index must be nonnegative")

    @property
    def omega(self):
        return 2.0 * math.pi / self.T


@dataclass(eq=False)
class FourierField:
    """Edge-coefficient vectors of a truncated Fourier series.

    ``mode0`` is the mean (cosine) coefficient, ``modes[k-1]`` the pair
    (cosine, sine) for mode k.
    """

    mode0: np.ndarray
    modes: list

    def __post_init__(self):
        dim = self.mode0.shape[0]
        for c, s in self.modes:
            if c.shape[0] != dim or s.shape[0] != dim:
                raise ValueError("all mode vectors must share one dimension")

    @property
    def N(self):
        return len(self.modes)

    def mode(self, k):
        """Coefficient pair of mode k; the mean has a zero sine part."""
        if k == 0:
            return self.mode0, np.zeros_like(self.mode0)
        return self.modes[k - 1]

    def perp(self):
        """Mode-wise (c, s) -> (-s, c); the mean maps to zero."""
        return FourierField(
            np.zeros_like(self.mode0), [(-s, c) for c, s in self.modes]
        )


def _time_rule(period, m=None, harmonic=0):
    # composite 8-point Gauss-Legendre with at least m samples (default
    # 80) and at least one panel per period of the given harmonic
    m = max(80 if m is None else m, 8 * harmonic)
    panels = max(10, int(np.ceil(m / 8)))
    return gauss_time_rule(period.T, panels=panels, points=8)


def fourier_coeff(g, k, period, m=None):
    """Cosine/sine coefficients of a scalar periodic signal.

    Parameters
    ----------
    g : callable
        Vectorized signal on [0, T].
    k : int
        Mode index; k = 0 returns (mean, 0).
    period : PeriodSpec
    m : int, optional
        Minimum number of quadrature samples (default 80); the rule
        takes at least 8 k, one 8-point panel per period of mode k.

    Returns
    -------
    (c_k, s_k) : floats
    """
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    t, w = _time_rule(period, m, k)
    vals = np.asarray(g(t), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("signal produced non-finite values")
    if k == 0:
        return float(np.dot(w, vals) / period.T), 0.0
    arg = k * period.omega * t
    c = 2.0 / period.T * np.dot(w, vals * np.cos(arg))
    s = 2.0 / period.T * np.dot(w, vals * np.sin(arg))
    return float(c), float(s)


def remainder(g, spatial_norm_sq, period):
    """Parseval tail of separable data g(t) s(x) beyond mode ``period.N``.

    Returns ``(||g||^2_{L2(0,T)} - T mean^2 - (T/2) sum_{k<=N}(c_k^2+s_k^2))
    * spatial_norm_sq``, clamped at zero against quadrature noise.  The
    time rule resolves every subtracted mode, as in ``fourier_coeff``.
    """
    t, w = _time_rule(period, harmonic=period.N)
    vals = np.asarray(g(t), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("signal produced non-finite values")
    total = float(np.dot(w, vals * vals))
    mean = float(np.dot(w, vals) / period.T)
    tail = total - period.T * mean**2
    for k in range(1, period.N + 1):
        arg = k * period.omega * t
        c = 2.0 / period.T * np.dot(w, vals * np.cos(arg))
        s = 2.0 / period.T * np.dot(w, vals * np.sin(arg))
        tail -= 0.5 * period.T * (c * c + s * s)
    if tail < -1e-10 * max(total, 1.0):
        raise ValueError("negative Parseval tail: inconsistent coefficients")
    return max(tail, 0.0) * spatial_norm_sq


def friedrichs_constant(box=(1.0, 1.0, 1.0)):
    """Friedrichs constant of a box domain.

    The smallest curl-curl eigenvalue on a box with tangential boundary
    conditions is ``pi^2 min_{i<j} (1/a_i^2 + 1/a_j^2)``; the constant is
    its inverse square root (unit cube: 1/(sqrt(2) pi)).
    """
    a = np.asarray(box, dtype=float)
    if a.shape != (3,) or np.any(a <= 0):
        raise ValueError("box extents must be three positive lengths")
    inv2 = 1.0 / a**2
    lam = np.pi**2 * min(
        inv2[0] + inv2[1], inv2[0] + inv2[2], inv2[1] + inv2[2]
    )
    return 1.0 / math.sqrt(lam)
