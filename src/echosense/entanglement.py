"""Analytic entanglement and phase-space diagnostics of the echo protocol.

Everything here is Gaussian and closed-form: in the large-N limit the spin
sector maps to a bosonic quadrature pair and the entangling pulse acts as a
two-mode squeezer in the hybrid quadratures x_pm = (x_spin +- x_boson)/sqrt(2).
Quadrature variances use the convention var_vacuum = 1/2.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError, NumericalError

__all__ = [
    "renyi_entropy",
    "wigner_hybrid_plus",
    "wigner_reduced_boson",
]


def renyi_entropy(g: float, tau: float, t: float) -> float:
    """Second Renyi entropy -ln Tr(rho_boson^2) at time t of a 2*tau echo sequence.

    S2 = (1/2) ln(1 + g^2 t^2) while entangling (t <= tau) and
    (1/2) ln(1 + g^2 (t - 2 tau)^2) while disentangling, so it vanishes at
    both ends and peaks at the kick time.
    """
    if not tau > 0.0:
        raise ConfigError("tau must be > 0")
    if not 0.0 <= t <= 2.0 * tau:
        raise ConfigError("t must lie within [0, 2*tau]")
    phase = g * t if t <= tau else g * (t - 2.0 * tau)
    try:
        return 0.5 * math.log1p(phase**2)
    except OverflowError:
        raise NumericalError(f"renyi entropy: (g t)^2 overflows at g t = {phase!r}") from None


def wigner_hybrid_plus(x: float, p: float, g_tau: float):
    """Wigner density (1/pi) exp[-x^2 - (p - g_tau x)^2] of the hybrid-plus pair."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.exp(-(x**2) - (p - g_tau * x) ** 2) / math.pi
    return float(out) if out.ndim == 0 else out


def wigner_reduced_boson(x: float, p: float, g_tau: float):
    """Wigner density of the oscillator after tracing out the spins.

    exp(-x^2) exp(-p^2/(1 + g_tau^2)) / (pi sqrt(1 + g_tau^2)): the position
    marginal stays at vacuum width, the momentum marginal is antisqueezed.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    widen = 1.0 + g_tau**2
    out = np.exp(-(x**2)) * np.exp(-(p**2) / widen) / (math.pi * math.sqrt(widen))
    return float(out) if out.ndim == 0 else out
