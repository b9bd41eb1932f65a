"""Pulse-schedule kernels h, p, q that determine all spin moments at fixed detuning.

For a schedule with spin-dependent coupling g(t), drive eta(t) and detuning
delta, the three kernels are

    h(t) = integral_0^t g(s) exp(-i delta s) ds
    p(t) = (i/2) integral_0^t (conj(h)' h - conj(h) h') ds
         = -integral_0^t g(s) Im[exp(i delta s) h(s)] ds
    q(t) = integral_0^t ds integral_0^s du g(s) eta(u) cos[delta (u - s)]

Instantaneous kicks enter q as delta-function contributions of eta(t).

Specialized closed forms are provided for the four named protocols; the sign
convention (entangling pulse +g, readout pulse -g, see ``core.Variant``)
fixes the sign of q.  All specialized functions broadcast over ``delta`` so a
full quadrature grid is one call.

Numerical notes: h and q are evaluated through cancellation-free product
forms, so they are accurate at every nonzero detuning and switch to the exact
limit only at delta == 0.  The p kernels subtract terms that agree through
O(delta^2), which costs ~1e-7 relative accuracy near |delta|*t ~ 1e-4 in
double precision; below ``SERIES_THRESHOLD`` they therefore switch to a Taylor
series carrying two correction orders, keeping both branches below 1e-12
relative error at the switchover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import ConfigError, PulseSchedule

__all__ = [
    "Kernels",
    "SERIES_THRESHOLD",
    "kernels_displacement",
    "kernels_readout",
    "kernels_classical_efield",
    "kernels_quantum_efield",
    "kernels_generic",
]

Scalar = Union[float, np.ndarray]

# Switch p to its series when |delta| * t_char <= this.  See module docstring.
SERIES_THRESHOLD = 3e-3


@dataclass(frozen=True)
class Kernels:
    """Kernel triple at one (or a broadcast array of) detuning value(s).

    h is complex and carries the spin-conditioned displacement amplitude;
    p (real) the accumulated geometric phase / squeezing; q (real) the
    effective displacement signal per the drive amplitude used to build it.
    ``odf_on_time`` is the total time the spin-dependent coupling was on.
    """

    h: Scalar
    p: Scalar
    q: Scalar
    odf_on_time: float

    @property
    def hsq(self) -> Scalar:
        """|h|^2."""
        return np.abs(self.h) ** 2


def _as_delta(delta: Scalar) -> tuple[np.ndarray, bool]:
    arr = np.asarray(delta, dtype=float)
    return arr, arr.ndim == 0


def _maybe_item(value: np.ndarray, scalar: bool) -> Scalar:
    return value.item() if scalar else value


def kernels_displacement(g: float, tau: float, delta: Scalar, beta: float = 1.0) -> Kernels:
    """Echo protocol (+g for tau, kick beta at tau, -g for tau), evaluated at 2*tau.

    |h|^2 = (16 g^2/delta^2) sin^4(delta tau/2)
    p     = (g^2/delta^2) [4 sin(delta tau) - sin(2 delta tau) - 2 delta tau]
    q     = -(beta g/delta) sin(delta tau)
    """
    if not tau > 0.0:
        raise ConfigError("tau must be > 0")
    d, scalar = _as_delta(delta)
    y = d * tau
    small = np.abs(y) <= SERIES_THRESHOLD
    safe = np.where(d == 0.0, 1.0, d)

    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(
            d == 0.0,
            0.0 + 0.0j,
            (4.0j * g / safe) * np.exp(-1.0j * y) * np.sin(y / 2.0) ** 2,
        )
        p_direct = (g**2 / safe**2) * (4.0 * np.sin(y) - np.sin(2.0 * y) - 2.0 * y)
        q = np.where(d == 0.0, -beta * g * tau, -(beta * g / safe) * np.sin(y))
    p_series = (2.0 / 3.0) * g**2 * d * tau**3 * (
        1.0 - (7.0 / 20.0) * y**2 + (31.0 / 840.0) * y**4
    )
    p = np.where(small, p_series, p_direct)
    return Kernels(
        h=_maybe_item(h, scalar),
        p=_maybe_item(p, scalar),
        q=_maybe_item(q, scalar),
        odf_on_time=2.0 * tau,
    )


def kernels_readout(g: float, tau: float, delta: Scalar, beta: float = 1.0) -> Kernels:
    """Kick beta at t=0 followed by a single readout pulse (-g, tau).

    Closed forms follow from the generic integrals for this schedule:
    |h|^2 = (4 g^2/delta^2) sin^2(delta tau/2), p = (g^2/delta^2)
    [sin(delta tau) - delta tau], q = -(beta g/delta) sin(delta tau), so the
    zero-detuning response is d<Jy>/dbeta = -sqrt(N) g tau exactly as for the
    echo protocol.
    """
    if not tau > 0.0:
        raise ConfigError("tau must be > 0")
    d, scalar = _as_delta(delta)
    y = d * tau
    small = np.abs(y) <= SERIES_THRESHOLD
    safe = np.where(d == 0.0, 1.0, d)

    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(
            d == 0.0,
            -g * tau + 0.0j,
            -(2.0 * g / safe) * np.exp(-1.0j * y / 2.0) * np.sin(y / 2.0),
        )
        p_direct = (g**2 / safe**2) * (np.sin(y) - y)
        q = np.where(d == 0.0, -beta * g * tau, -(beta * g / safe) * np.sin(y))
    p_series = -(g**2 * d * tau**3 / 6.0) * (1.0 - y**2 / 20.0 + y**4 / 840.0)
    p = np.where(small, p_series, p_direct)
    return Kernels(
        h=_maybe_item(h, scalar),
        p=_maybe_item(p, scalar),
        q=_maybe_item(q, scalar),
        odf_on_time=tau,
    )


def kernels_classical_efield(
    g: float, tau: float, T: float, delta: Scalar, eta: float = 1.0
) -> Kernels:
    """Constant drive for T, readout pulse (-g) during the final tau.

    |h|^2 = (4 g^2/delta^2) sin^2(delta tau/2)
    p     = (g^2/delta^2) [sin(delta tau) - delta tau]
    q     = (eta g/delta^2) {cos(delta T) - cos[delta (T - tau)]}
    """
    if not tau > 0.0:
        raise ConfigError("tau must be > 0")
    if tau > T:
        raise ConfigError("classical protocol requires tau <= T")
    d, scalar = _as_delta(delta)
    y = d * tau
    small = np.abs(y) <= SERIES_THRESHOLD
    safe = np.where(d == 0.0, 1.0, d)

    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(
            d == 0.0,
            -g * tau + 0.0j,
            -(2.0 * g / safe) * np.exp(-1.0j * d * (T - tau / 2.0)) * np.sin(y / 2.0),
        )
        p_direct = (g**2 / safe**2) * (np.sin(y) - y)
        # cos(dT) - cos(d(T-tau)) = -2 sin(d(2T-tau)/2) sin(d tau/2), cancellation-free
        q = np.where(
            d == 0.0,
            -eta * g * tau * (2.0 * T - tau) / 2.0,
            -(2.0 * eta * g / safe**2)
            * np.sin(d * (2.0 * T - tau) / 2.0)
            * np.sin(y / 2.0),
        )
    p_series = -(g**2 * d * tau**3 / 6.0) * (1.0 - y**2 / 20.0 + y**4 / 840.0)
    p = np.where(small, p_series, p_direct)
    return Kernels(
        h=_maybe_item(h, scalar),
        p=_maybe_item(p, scalar),
        q=_maybe_item(q, scalar),
        odf_on_time=tau,
    )


def kernels_quantum_efield(
    g: float, tau: float, T: float, delta: Scalar, eta: float = 1.0
) -> Kernels:
    """Constant drive for T with entangling (+g) and readout (-g) pulses of length tau.

    |h|^2 = (16 g^2/delta^2) sin^2(delta tau/2) sin^2[delta (T - tau)/2]
    p     = -(2 g^2/delta^2) {delta tau - sin(delta tau)
                              - 2 sin^2(delta tau/2) sin[delta (T - tau)]}
    q     = -(4 g eta/delta^2) sin(delta tau/2) sin[delta (T - tau)/2] cos(delta T/2)
    """
    if not tau > 0.0:
        raise ConfigError("tau must be > 0")
    if 2.0 * tau > T:
        raise ConfigError("quantum protocol requires 2*tau <= T")
    d, scalar = _as_delta(delta)
    s = T - tau
    u = d * tau
    v = d * s
    small = np.abs(d) * T <= SERIES_THRESHOLD
    safe = np.where(d == 0.0, 1.0, d)

    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(
            d == 0.0,
            0.0 + 0.0j,
            (4.0j * g / safe)
            * np.exp(-1.0j * d * T / 2.0)
            * np.sin(u / 2.0)
            * np.sin(v / 2.0),
        )
        p_direct = -(2.0 * g**2 / safe**2) * (
            u - np.sin(u) - 2.0 * np.sin(u / 2.0) ** 2 * np.sin(v)
        )
        q = np.where(
            d == 0.0,
            -g * eta * tau * s,
            -(4.0 * g * eta / safe**2)
            * np.sin(u / 2.0)
            * np.sin(v / 2.0)
            * np.cos(d * T / 2.0),
        )
    p_series = -2.0 * g**2 * (
        d * (tau**3 / 6.0 - tau**2 * s / 2.0)
        + d**3 * (-(tau**5) / 120.0 + tau**2 * s**3 / 12.0 + tau**4 * s / 24.0)
        + d**5
        * (
            tau**7 / 5040.0
            - tau**2 * s**5 / 240.0
            - tau**4 * s**3 / 144.0
            - tau**6 * s / 720.0
        )
    )
    p = np.where(small, p_series, p_direct)
    return Kernels(
        h=_maybe_item(h, scalar),
        p=_maybe_item(p, scalar),
        q=_maybe_item(q, scalar),
        odf_on_time=2.0 * tau,
    )


# ---------------------------------------------------------------------------
# generic schedules
# ---------------------------------------------------------------------------


def _segment_h_increment(g: float, t0: float, d: float, delta: float) -> complex:
    """g * integral_{t0}^{t0+d} exp(-i delta s) ds, cancellation-free."""
    if delta == 0.0:
        return g * d
    x = delta * d
    one_minus = 2.0 * math.sin(x / 2.0) ** 2 + 1.0j * math.sin(x)
    return g * complex(math.cos(delta * t0), -math.sin(delta * t0)) * one_minus / (1.0j * delta)


def _simpson_rec(
    f: Callable[[float], float],
    a: float,
    m: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
) -> float:
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _simpson_rec(f, a, lm, m, fa, flm, fm, left, half, depth - 1) + _simpson_rec(
        f, m, rm, b, fm, frm, fb, right, half, depth - 1
    )


def _adaptive_integral(
    f: Callable[[float], float],
    a: float,
    b: float,
    delta: float,
    rel_tol: float = 1e-10,
    abs_floor: float = 1e-14,
) -> float:
    """Adaptive Simpson integral of f over [a, b], pre-split to resolve oscillation."""
    if b <= a:
        return 0.0
    # a few panels per oscillation period; the recursion refines the rest
    n_panels = min(8 + 4 * int(abs(delta) * (b - a) / math.pi), 16384)
    edges = np.linspace(a, b, n_panels + 1)
    width = edges[1] - edges[0]
    scale = sum(abs(f(0.5 * (lo + hi))) for lo, hi in zip(edges[:-1], edges[1:])) * width
    tol = max(abs_floor, rel_tol * scale) / n_panels
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        fa, fm, fb = f(lo), f(mid), f(hi)
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        total += _simpson_rec(f, lo, mid, hi, fa, fm, fb, whole, tol, 48)
    return total


def kernels_generic(
    schedule: PulseSchedule, delta: float, rel_tol: float = 1e-10
) -> Kernels:
    """Kernels for an arbitrary piecewise-constant schedule at scalar detuning.

    h accumulates per-segment analytic integrals.  p and q integrate their
    analytic integrands by adaptive Simpson quadrature to ``rel_tol`` relative
    (absolute floor 1e-14).  Kicks contribute beta*cos[delta(t_kick - s)] to
    the inner q integrand for every later time s.
    """
    delta = float(delta)
    boundaries: list[float] = [0.0]
    for seg in schedule.segments:
        boundaries.append(boundaries[-1] + seg.duration)

    # prefix values of h at segment starts
    h_starts: list[complex] = [0.0 + 0.0j]
    for seg, t0 in zip(schedule.segments, boundaries[:-1]):
        h_starts.append(h_starts[-1] + _segment_h_increment(seg.g, t0, seg.duration, delta))
    h_total = h_starts[-1]

    def h_local(k: int, t: float) -> complex:
        seg = schedule.segments[k]
        return h_starts[k] + _segment_h_increment(seg.g, boundaries[k], t - boundaries[k], delta)

    def drive_window(a: float, e: float, t: float) -> float:
        """integral_a^e cos[delta (u - t)] du via the product form."""
        if e <= a:
            return 0.0
        if delta == 0.0:
            return e - a
        return (
            2.0
            * math.cos(delta * (a + e - 2.0 * t) / 2.0)
            * math.sin(delta * (e - a) / 2.0)
            / delta
        )

    def inner_drive(t: float) -> float:
        acc = 0.0
        for seg, a, b in zip(schedule.segments, boundaries[:-1], boundaries[1:]):
            if seg.eta != 0.0 and t > a:
                acc += seg.eta * drive_window(a, min(b, t), t)
        for kick in schedule.kicks:
            if kick.beta != 0.0 and kick.time < t:
                acc += kick.beta * math.cos(delta * (kick.time - t))
        return acc

    p_total = 0.0
    q_total = 0.0
    for k, (seg, a, b) in enumerate(zip(schedule.segments, boundaries[:-1], boundaries[1:])):
        if seg.g == 0.0 or seg.duration == 0.0:
            continue
        g_k = seg.g

        def p_integrand(t: float, k: int = k, g_k: float = g_k) -> float:
            z = complex(math.cos(delta * t), math.sin(delta * t)) * h_local(k, t)
            return -g_k * z.imag

        def q_integrand(t: float, g_k: float = g_k) -> float:
            return g_k * inner_drive(t)

        p_total += _adaptive_integral(p_integrand, a, b, delta, rel_tol)
        q_total += _adaptive_integral(q_integrand, a, b, delta, rel_tol)

    return Kernels(h=h_total, p=p_total, q=q_total, odf_on_time=schedule.odf_on_time)
