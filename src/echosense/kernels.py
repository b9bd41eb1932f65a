"""Pulse-schedule kernels h, p, q that determine all spin moments at fixed detuning.

For a schedule with spin-dependent coupling g(t), drive eta(t) and detuning
delta, the three kernels are

    h(t) = integral_0^t g(s) exp(-i delta s) ds
    p(t) = (i/2) integral_0^t (conj(h)' h - conj(h) h') ds
         = -integral_0^t g(s) Im[exp(i delta s) h(s)] ds
    q(t) = integral_0^t ds integral_0^s du g(s) eta(u) cos[delta (u - s)]

Instantaneous kicks enter q as delta-function contributions of eta(t).

``kernels_generic`` evaluates these integrals exactly for any
piecewise-constant schedule, as pairwise sums over segments (see its
docstring), and is the kernel engine of every protocol but the two e-field
ones.  A sequence of schedules of one layout is one batched call with a
leading row axis, which is how a sweep over the drive time tau of the kick
protocols (echo and readout) is evaluated.  The two e-field protocols keep
hand-derived closed forms, which are faster on the optimizer's grids; the
sign convention (entangling pulse +g, readout pulse -g, see
``core.Variant``) fixes the sign of q.  Every kernel function broadcasts
over ``delta``, so a full quadrature grid is one call, and a scalar
``delta`` gives scalar kernels.  The closed forms also take a drive-time
axis: ``tau`` of shape ``(n_tau, 1)`` against ``delta`` of shape
``(n_delta,)`` gives kernels of shape ``(n_tau, n_delta)`` and one
``odf_on_time`` per row, and ``T`` may be a column beside ``tau`` too, so
the rows of one call may belong to different protocol times.  Their
coefficients in tau and T (the powers of tau and T - tau in the p series)
are products, never ``**``: IEEE products round alike on a Python float and
on an array element, so row i is bitwise the kernels of a scalar call at
``tau[i]`` (and ``T[i]``), while numpy's array power can differ from the
scalar one in the last bit.

Numerical notes: the closed-form h and q are evaluated through
cancellation-free product forms.  The closed-form p kernels subtract terms
that agree through O(delta^2), which costs ~1e-7 relative accuracy near
|delta|*t ~ 1e-4 in double precision; below ``SERIES_THRESHOLD`` they
therefore switch to a Taylor series carrying two correction orders, keeping
both branches below 1e-12 relative error at the switchover.  The generic engine needs a series only
for its one cancelling helper, (x - sin x)/x^3, below |x| = 1; its sums over
segments are accurate to a few eps times the sum of the magnitudes of their
terms, which bounds the relative error where a kernel is a small remainder
of larger cancelling parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import ConfigError, NumericalError, PulseSchedule

__all__ = [
    "Kernels",
    "SERIES_THRESHOLD",
    "ZERO_DETUNING",
    "kernels_classical_efield",
    "kernels_quantum_efield",
    "kernels_generic",
]

Scalar = Union[float, np.ndarray]

# Switch p to its series when |delta| * t_char <= this.  See module docstring.
SERIES_THRESHOLD = 3e-3

# The closed forms take their delta = 0 values below this |delta| (rad/s),
# where 1/delta^2 would overflow.  Those values are then exact up to a relative
# O(delta t), or an absolute O(g delta t^2) where they vanish; p keeps its series.
ZERO_DETUNING = 1e-100


@dataclass(frozen=True)
class Kernels:
    """Kernel triple at one (or a broadcast array of) detuning value(s).

    h is complex and carries the spin-conditioned displacement amplitude;
    p (real) the accumulated geometric phase / squeezing; q (real) the
    effective displacement signal per the drive amplitude used to build it.
    ``odf_on_time`` is the total time the spin-dependent coupling was on (a
    column, one value per row, for kernels built on a tau axis).
    """

    h: Scalar
    p: Scalar
    q: Scalar
    odf_on_time: Scalar

    @property
    def hsq(self) -> Scalar:
        """|h|^2."""
        return np.abs(self.h) ** 2


def _as_tau(tau: Scalar) -> Scalar:
    """tau as a float, or an array (a column against a delta axis); all > 0."""
    arr = np.asarray(tau, dtype=float)
    if not np.all(arr > 0.0):
        raise ConfigError("tau must be > 0")
    return float(arr) if arr.ndim == 0 else arr


def _detuning(delta: Scalar) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """delta as an array, the mask where it counts as 0, and delta with 1 there."""
    d = np.asarray(delta, dtype=float)
    at_zero = np.abs(d) < ZERO_DETUNING
    return d, at_zero, np.where(at_zero, 1.0, d)


def _kernels(h: np.ndarray, p: np.ndarray, q: np.ndarray, odf_on_time: Scalar) -> Kernels:
    """Kernels with 0-d arrays turned into Python scalars."""
    h, p, q = (value.item() if value.ndim == 0 else value for value in (h, p, q))
    return Kernels(h=h, p=p, q=q, odf_on_time=odf_on_time)


def kernels_classical_efield(
    g: float, tau: Scalar, T: Scalar, delta: Scalar, eta: float = 1.0
) -> Kernels:
    """Constant drive for T, readout pulse (-g) during the final tau.

    |h|^2 = (4 g^2/delta^2) sin^2(delta tau/2)
    p     = (g^2/delta^2) [sin(delta tau) - delta tau]
    q     = (eta g/delta^2) {cos(delta T) - cos[delta (T - tau)]}

    ``T`` is a float, or a column beside a ``tau`` column (one T per row).
    """
    tau = _as_tau(tau)
    if np.any(tau > T):
        raise ConfigError("classical protocol requires tau <= T")
    d, at_zero, safe = _detuning(delta)
    y = d * tau
    small = np.abs(y) <= SERIES_THRESHOLD

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tau3 = tau * tau * tau
        sin_half_y = np.sin(y / 2.0)
        safe_sq = safe**2
        h = np.where(
            at_zero,
            -g * tau + 0.0j,
            -(2.0 * g / safe) * np.exp(-1.0j * d * (T - tau / 2.0)) * sin_half_y,
        )
        p_direct = (g**2 / safe_sq) * (np.sin(y) - y)
        # cos(dT) - cos(d(T-tau)) = -2 sin(d(2T-tau)/2) sin(d tau/2), cancellation-free
        q = np.where(
            at_zero,
            -eta * g * tau * (2.0 * T - tau) / 2.0,
            -(2.0 * eta * g / safe_sq) * np.sin(d * (2.0 * T - tau) / 2.0) * sin_half_y,
        )
    if not np.isfinite(tau3).all():
        raise NumericalError(
            "classical e-field p series coefficient tau^3 overflows "
            f"(largest tau {np.max(tau):.6g} s)"
        )
    p_series = -(g**2 * d * tau3 / 6.0) * (1.0 - y**2 / 20.0 + y**4 / 840.0)
    p = np.where(small, p_series, p_direct)
    return _kernels(h, p, q, odf_on_time=tau)


def _quantum_series_coefficients(tau: Scalar, T: Scalar) -> tuple[Scalar, Scalar, Scalar]:
    """Coefficients of delta, delta^3 and delta^5 in -p/(2 g^2) for the quantum
    protocol, on floats or on columns alike (products only, see module docstring)."""
    s = T - tau
    t2, s2 = tau * tau, s * s
    t4 = t2 * t2
    s3 = s2 * s
    c1 = t2 * tau / 6.0 - t2 * s / 2.0
    c3 = -(t4 * tau) / 120.0 + t2 * s3 / 12.0 + t4 * s / 24.0
    c5 = t4 * t2 * tau / 5040.0 - t2 * s3 * s2 / 240.0 - t4 * s3 / 144.0 - t4 * t2 * s / 720.0
    if not np.isfinite([c1, c3, c5]).all():
        raise NumericalError(
            "quantum e-field p series coefficients overflow "
            f"(largest tau {np.max(tau):.6g} s, T {np.max(T):.6g} s)"
        )
    return c1, c3, c5


def kernels_quantum_efield(
    g: float, tau: Scalar, T: Scalar, delta: Scalar, eta: float = 1.0
) -> Kernels:
    """Constant drive for T with entangling (+g) and readout (-g) pulses of length tau.

    |h|^2 = (16 g^2/delta^2) sin^2(delta tau/2) sin^2[delta (T - tau)/2]
    p     = -(2 g^2/delta^2) {delta tau - sin(delta tau)
                              - 2 sin^2(delta tau/2) sin[delta (T - tau)]}
    q     = -(4 g eta/delta^2) sin(delta tau/2) sin[delta (T - tau)/2] cos(delta T/2)

    ``T`` is a float, or a column beside a ``tau`` column (one T per row).
    """
    tau = _as_tau(tau)
    if np.any(2.0 * tau > T):
        raise ConfigError("quantum protocol requires 2*tau <= T")
    d, at_zero, safe = _detuning(delta)
    s = T - tau
    u = d * tau
    v = d * s
    small = np.abs(d) * T <= SERIES_THRESHOLD

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sin_half_u, sin_half_v = np.sin(u / 2.0), np.sin(v / 2.0)
        safe_sq = safe**2
        h = np.where(
            at_zero,
            0.0 + 0.0j,
            (4.0j * g / safe) * np.exp(-1.0j * d * T / 2.0) * sin_half_u * sin_half_v,
        )
        p_direct = -(2.0 * g**2 / safe_sq) * (u - np.sin(u) - 2.0 * sin_half_u**2 * np.sin(v))
        q = np.where(
            at_zero,
            -g * eta * tau * s,
            -(4.0 * g * eta / safe_sq) * sin_half_u * sin_half_v * np.cos(d * T / 2.0),
        )
        c1, c3, c5 = _quantum_series_coefficients(tau, T)
    p_series = -2.0 * g**2 * (d * c1 + d**3 * c3 + d**5 * c5)
    p = np.where(small, p_series, p_direct)
    return _kernels(h, p, q, odf_on_time=2.0 * tau)


# ---------------------------------------------------------------------------
# generic schedules
# ---------------------------------------------------------------------------

# Taylor coefficients (-1)^n/(2n+3)! of (x - sin x)/x^3, highest order first;
# through x^14 the series is exact in double precision for |x| < 1
_F_SERIES = [(-1) ** n / math.factorial(2 * n + 3) for n in range(7, -1, -1)]


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x)/x, 1 at x = 0."""
    return np.sinc(x / np.pi)


def _x_minus_sin_over_cube(x: np.ndarray) -> np.ndarray:
    """(x - sin x)/x^3, by its Taylor series for |x| < 1 where the difference cancels."""
    x2 = x * x
    series = _F_SERIES[0]
    for coef in _F_SERIES[1:]:
        series = series * x2 + coef
    small = x2 < 1.0
    if small.all():  # the usual case: no direct branch to evaluate
        return series
    safe = np.where(small, 1.0, x)
    return np.where(small, series, (safe - np.sin(safe)) / safe**3)


def _pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero products left_j right_k with j < k, and their indices j, k;
    leading axes index schedules, which must all have the same nonzero ones."""
    first = np.triu(np.outer(left[(0,) * (left.ndim - 1)], right[(0,) * (right.ndim - 1)]), 1)
    j, k = np.nonzero(first)
    if left.ndim == 1:
        return first[j, k], j, k
    each = np.triu(left[..., :, None] * right[..., None, :], 1)
    if not ((each != 0.0) == (first != 0.0)).all():
        raise ConfigError("batched schedules must switch on the same segments")
    return each[..., j, k], j, k


def _columns(schedule, ndim: int) -> tuple:
    """Segment starts, L, g and eta, the kicks' (time, beta), and odf_on_time,
    shaped to broadcast against a delta of ``ndim`` axes and a last segment
    axis; a sequence of schedules adds a leading row axis."""
    single = isinstance(schedule, PulseSchedule)
    rows = (schedule,) if single else tuple(schedule)
    n_seg, n_kick = (len(rows[0].segments), len(rows[0].kicks)) if rows else (0, 0)
    if not rows or any((len(s.segments), len(s.kicks)) != (n_seg, n_kick) for s in rows):
        raise ConfigError("kernels_generic needs schedules with as many segments and kicks")
    table = []
    for s in rows:
        start, row = 0.0, []
        for x in s.segments:  # the running sum is np.cumsum's, term by term
            row.append((start, x.duration, x.g, x.eta))
            start += x.duration
        table.append(row)
    seg = np.array(table, dtype=float).reshape(len(rows), n_seg, 4).transpose(2, 0, 1)
    if single:  # kicks as Python floats, the fastest path for their terms
        return (*seg[:, 0], [(x.time, x.beta) for x in schedule.kicks], schedule.odf_on_time)
    lead = (len(rows),) + (1,) * ndim
    kick = np.array([[(x.time, x.beta) for x in s.kicks] for s in rows], dtype=float)
    kick = kick.reshape(len(rows), n_kick, 2).transpose(1, 2, 0)
    kicks = [(time.reshape(lead + (1,)), beta.reshape(lead)) for time, beta in kick]
    odf = np.array([s.odf_on_time for s in rows]).reshape(lead)
    return (*seg.reshape((4,) + lead + (n_seg,)), kicks, odf)


def kernels_generic(
    schedule: Union[PulseSchedule, Sequence[PulseSchedule]], delta: Scalar
) -> Kernels:
    """Kernels for arbitrary piecewise-constant schedules, broadcast over ``delta``.

    Exact closed form from pairwise sums over segments.  Segment k has length
    L_k, midpoint c_k, couplings g_k, eta_k and A_k = L_k sinc(delta L_k/2),
    so that its integral of exp(-i delta s) is A_k exp(-i delta c_k):

        h = sum_k g_k A_k exp(-i delta c_k)
        p = -sum_k g_k^2 delta L_k^3 f(delta L_k)
            - sum_{j<k} g_j g_k A_j A_k sin[delta (c_k - c_j)]
        q = sum_k g_k [eta_k A_k^2/2 + sum_{j<k} eta_j A_j A_k cos[delta (c_k - c_j)]]

    with f(x) = (x - sin x)/x^3.  A kick beta at t adds beta g_k W
    sinc(delta W/2) cos[delta (m - t)] for the part of each segment after t
    (length W, midpoint m).  Every term is a product of sines, so delta = 0
    needs no special case.  A scalar ``delta`` gives scalar kernels.

    A sequence of R schedules is one batched call: the kernels gain a leading
    axis of R rows (``odf_on_time`` a column), and row i is bitwise the call
    on ``schedule[i]`` alone.  The schedules must share their layout: the
    numbers of segments and kicks, and which products g_j g_k and eta_j g_k
    are nonzero; durations, couplings, kick times and betas may differ.
    """
    d = np.asarray(delta, dtype=float)
    starts, L, g, eta, kicks, odf_on_time = _columns(schedule, d.ndim)
    ends = starts + L
    c = starts + 0.5 * L
    dd = d[..., None]
    A = L * _sinc(0.5 * dd * L)

    h = (g * A * np.exp(-1.0j * dd * c)).sum(axis=-1)
    p = -(g**2 * dd * L**3 * _x_minus_sin_over_cube(dd * L)).sum(axis=-1)
    q = (0.5 * g * eta * A**2).sum(axis=-1)
    w, j, k = _pairs(g, g)
    gap = c.take(k, axis=-1) - c.take(j, axis=-1)
    p = p - (w * A[..., j] * A[..., k] * np.sin(dd * gap)).sum(axis=-1)
    w, j, k = _pairs(eta, g)
    gap = c.take(k, axis=-1) - c.take(j, axis=-1)
    q = q + (w * A[..., j] * A[..., k] * np.cos(dd * gap)).sum(axis=-1)
    for time, beta in kicks:  # each kick on every row at once
        after = np.maximum(starts, time)
        W = np.maximum(ends - after, 0.0)
        m = 0.5 * (after + ends)
        q = q + beta * (g * W * _sinc(0.5 * dd * W) * np.cos(dd * (m - time))).sum(axis=-1)
    return _kernels(h, p, q, odf_on_time=odf_on_time)
