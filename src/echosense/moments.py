"""Closed-form collective-spin expectation values at fixed detuning.

Given the kernel triple (h, p, q) of a schedule, the initial state (spins
polarized along +x, oscillator thermal with occupation nbar) evolves to

    <Jy>    = 0
    <Jy^2>  = N/4 + [N(N-1) e^{-G t}/8] {1 - e^{-4|h|^2 (nbar+1/2)/N}
                                             cos(2p/N)^{N-2}}
    d<Jy>   = q sqrt(N) e^{-G t/2} e^{-|h|^2 (nbar+1/2)/N} cos(p/N)^{N-1}
    <Jx>    = (N/2) e^{-G t/2} e^{-|h|^2 (nbar+1/2)/N} cos(p/N)^{N-1}

with G the depolarization rate and t the time the spin-dependent drive was
on.  These expressions are exact for every N >= 2 at fixed detuning; the
brute-force simulator in ``echosense.oracle`` verifies them.

The powers cos(x)^m are evaluated as sign(cos x)^m * exp(m ln|cos x|) for
numerical stability at large N.  Arguments with |2p/N| >= pi/2 are far outside
the perturbative operating regime; the returned ``in_domain`` flag marks them
(the values themselves remain the exact formula values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import ConfigError, NoiseModel
from .kernels import Kernels

__all__ = [
    "SpinMoments",
    "moments_at_detuning",
    "contrast",
    "readout_snr_largeN",
    "deformed_transverse_invariant",
    "cos_power",
]

Scalar = Union[float, np.ndarray]


@dataclass(frozen=True)
class SpinMoments:
    """Spin moments at the working point (zero applied perturbation).

    ``slope`` is the first-order response d<Jy>/d(amplitude); ``in_domain``
    is False where the squeezing phase left the trusted window (see module
    docstring).
    """

    jy_sq: Scalar
    slope: Scalar
    jx_mean: Scalar
    in_domain: Union[bool, np.ndarray] = True


def cos_power(x: Scalar, m: int) -> Scalar:
    """cos(x)**m for integer m >= 0, stable for large m."""
    if m == 0:
        return np.ones_like(np.asarray(x, dtype=float))
    c = np.cos(np.asarray(x, dtype=float))
    sign = np.where(c < 0.0, -1.0 if m % 2 else 1.0, 1.0)
    with np.errstate(divide="ignore"):
        mag = np.exp(m * np.log(np.abs(c)))
    return sign * np.where(c == 0.0, 0.0, mag)


def moments_at_detuning(kernels: Kernels, n_ions: int, noise: NoiseModel) -> SpinMoments:
    """Evaluate the closed-form moments for one kernel triple.

    The kernels must be built at unit drive amplitude (the default of the
    kernel functions); q is exactly linear in the drive, so the returned
    slope is per unit perturbation.  Kernels on a tau axis (one
    ``odf_on_time`` per row) give moments of the same shape, row i bitwise
    those of row i's kernels alone: every step is the same numpy arithmetic
    on a float as on a column.
    """
    if n_ions < 2:
        raise ConfigError("moments need n_ions >= 2")
    n = float(n_ions)
    hsq = kernels.hsq
    p = np.asarray(kernels.p, dtype=float)
    q = np.asarray(kernels.q, dtype=float)

    depol = np.exp(-noise.gamma * kernels.odf_on_time / 2.0)
    depol_sq = depol * depol
    therm = np.exp(-hsq * (noise.nbar + 0.5) / n)
    coherence = depol * therm * cos_power(p / n, n_ions - 1)

    twist = 2.0 * p / n
    jy_sq = n / 4.0 + (n * (n - 1.0) * depol_sq / 8.0) * (
        1.0 - therm**4 * cos_power(twist, n_ions - 2)
    )
    slope = q * math.sqrt(n) * coherence
    jx = (n / 2.0) * coherence
    in_domain = np.abs(twist) < math.pi / 2.0

    scalar = np.asarray(kernels.p).ndim == 0
    if scalar:
        return SpinMoments(
            jy_sq=float(jy_sq),
            slope=float(slope),
            jx_mean=float(jx),
            in_domain=bool(in_domain),
        )
    return SpinMoments(
        jy_sq=jy_sq,
        slope=slope,
        jx_mean=jx,
        in_domain=in_domain,
    )


def contrast(tau: float, gamma_tot: float) -> float:
    """Ramsey contrast exp(-2 Gamma_tot tau) after two drive arms of length tau."""
    if tau < 0.0:
        raise ConfigError("tau must be >= 0")
    return math.exp(-2.0 * gamma_tot * tau)


def readout_snr_largeN(g: float, tau: float, beta: float, n_ions: int) -> tuple[float, float]:
    """Large-N mean and variance of Jy for the readout-only protocol (nbar = 0).

    mean = -sqrt(N) beta g tau, var = (N/4)(1 + g^2 tau^2).  The implied
    sensitivity (del beta)^2 = 1/(4 g^2 tau^2) + 1/4 never beats the coherent
    -state limit: the entanglement built during readout feeds oscillator
    vacuum noise into the spins.
    """
    mean = -math.sqrt(n_ions) * beta * g * tau
    variance = (n_ions / 4.0) * (1.0 + g**2 * tau**2)
    return mean, variance


def deformed_transverse_invariant(n_ions: int, gamma: float, t_odf: float) -> float:
    """<(J+J- + J-J+)/2> under depolarization: N/2 + N(N-1) e^{-Gamma t}/4.

    Conserved (= N(N+1)/4) by the coherent dynamics; dephasing deforms it to
    this value, which the Lindblad oracle reproduces.
    """
    n = float(n_ions)
    return n / 2.0 + n * (n - 1.0) / 4.0 * math.exp(-gamma * t_odf)
