"""Analytic entanglement and phase-space diagnostics of the echo protocol.

Everything here is Gaussian and closed-form: in the large-N limit the spin
sector maps to a bosonic quadrature pair and the entangling pulse acts as a
two-mode squeezer in the hybrid quadratures x_pm = (x_spin +- x_boson)/sqrt(2).
Quadrature variances use the convention var_vacuum = 1/2.

Two inequivalent squeezing numbers are exposed deliberately.  ``xi_sq`` is the
commonly quoted closed form 1/(1 + y^2 + y sqrt(2 + y^2)) with y = g*tau,
associated with the rotation angle tan(phi) = (sqrt(4 + y^2) - y)/2;
``xi_sq_eigen`` is the inverse largest eigenvalue of the quadratic form
[[1 + y^2, -y], [-y, 1]] of the hybrid-plus Wigner function, i.e. the actual
minimal variance ratio of that Gaussian.  They do not agree at finite y, and
neither is silently corrected here; pick the one matching your definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, NumericalError

__all__ = [
    "GaussianPhaseSpace",
    "SqueezingParameters",
    "renyi_entropy",
    "squeezing_parameters",
    "wigner_hybrid_plus",
    "wigner_reduced_boson",
    "hybrid_plus_state",
    "reduced_boson_purity",
]


@dataclass(frozen=True)
class GaussianPhaseSpace:
    """Mean and 2x2 covariance of a single-quadrature-pair Gaussian state."""

    covariance: np.ndarray
    mean: np.ndarray

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariance, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "mean", mean)
        if cov.shape != (2, 2) or mean.shape != (2,):
            raise ConfigError("covariance must be 2x2 and mean length 2")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-12 * (1.0 + abs(cov[0, 1])):
            raise ConfigError("covariance must be symmetric")
        if np.linalg.det(cov) < 0.25 * (1.0 - 1e-12):
            raise ConfigError("covariance violates the uncertainty bound det >= 1/4")


@dataclass(frozen=True)
class SqueezingParameters:
    xi_sq: float
    phi: float
    xi_sq_eigen: float


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


def squeezing_parameters(g_tau: float) -> SqueezingParameters:
    """Both squeezing conventions for the post-entangling hybrid-plus state."""
    if g_tau < 0.0:
        raise ConfigError("g_tau must be >= 0")
    y = g_tau
    xi_sq = 1.0 / (1.0 + y**2 + y * math.sqrt(2.0 + y**2))
    phi = math.atan((math.sqrt(4.0 + y**2) - y) / 2.0)
    lam_max = 1.0 + y**2 / 2.0 + (y / 2.0) * math.sqrt(4.0 + y**2)
    return SqueezingParameters(xi_sq=xi_sq, phi=phi, xi_sq_eigen=1.0 / lam_max)


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


def hybrid_plus_state(g_tau: float) -> GaussianPhaseSpace:
    """Covariance of the hybrid-plus Wigner Gaussian: [[1, y], [y, 1 + y^2]]/2."""
    y = g_tau
    cov = 0.5 * np.array([[1.0, y], [y, 1.0 + y**2]])
    return GaussianPhaseSpace(covariance=cov, mean=np.zeros(2))


def reduced_boson_purity(g_tau: float) -> float:
    """Tr rho_boson^2 = 1/sqrt(1 + g_tau^2), i.e. exp(-S2) at the entangling peak."""
    return 1.0 / math.sqrt(1.0 + g_tau**2)
