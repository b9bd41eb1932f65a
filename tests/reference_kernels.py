"""Hand-derived closed forms of the two kick protocols' kernels.

The package computes the echo (``Displacement``) and readout (``ReadoutOnly``)
kernels with the generic engine (``echosense.kernels.kernels_generic``).  These
closed forms, derived from the same integrals, stay here as independent
references for the tests.  They take a drive-time column like the e-field
forms: ``tau`` of shape ``(n_tau, 1)`` against ``delta`` of shape
``(n_delta,)`` gives kernels of shape ``(n_tau, n_delta)``, row i bitwise the
call at ``tau[i]``.
"""

from __future__ import annotations

import numpy as np

from echosense.kernels import (
    SERIES_THRESHOLD,
    Kernels,
    Scalar,
    _as_tau,
    _detuning,
    _kernels,
)

__all__ = ["kernels_displacement", "kernels_readout"]


def kernels_displacement(g: float, tau: Scalar, delta: Scalar, beta: float = 1.0) -> Kernels:
    """Echo protocol (+g for tau, kick beta at tau, -g for tau), evaluated at 2*tau.

    |h|^2 = (16 g^2/delta^2) sin^4(delta tau/2)
    p     = (g^2/delta^2) [4 sin(delta tau) - sin(2 delta tau) - 2 delta tau]
    q     = -(beta g/delta) sin(delta tau)
    """
    tau = _as_tau(tau)
    d, at_zero, safe = _detuning(delta)
    y = d * tau
    small = np.abs(y) <= SERIES_THRESHOLD

    with np.errstate(divide="ignore", invalid="ignore"):
        sin_y = np.sin(y)
        amp = np.where(at_zero, 0.0, (4.0 * g / safe) * np.sin(y / 2.0) ** 2)
        p_direct = (g**2 / safe**2) * (4.0 * sin_y - np.sin(2.0 * y) - 2.0 * y)
        q = np.where(at_zero, -beta * g * tau, -(beta * g / safe) * sin_y)
    p_series = (2.0 / 3.0) * g**2 * d * (tau * tau * tau) * (
        1.0 - (7.0 / 20.0) * y**2 + (31.0 / 840.0) * y**4
    )
    p = np.where(small, p_series, p_direct)
    return _kernels(amp * amp, p, q, odf_on_time=2.0 * tau)


def kernels_readout(g: float, tau: Scalar, delta: Scalar, beta: float = 1.0) -> Kernels:
    """Kick beta at t=0 followed by a single readout pulse (-g, tau).

    Closed forms follow from the generic integrals for this schedule:
    |h|^2 = (4 g^2/delta^2) sin^2(delta tau/2), p = (g^2/delta^2)
    [sin(delta tau) - delta tau], q = -(beta g/delta) sin(delta tau), so the
    zero-detuning response is d<Jy>/dbeta = -sqrt(N) g tau exactly as for the
    echo protocol.
    """
    tau = _as_tau(tau)
    d, at_zero, safe = _detuning(delta)
    y = d * tau
    small = np.abs(y) <= SERIES_THRESHOLD

    with np.errstate(divide="ignore", invalid="ignore"):
        sin_y = np.sin(y)
        amp = np.where(at_zero, g * tau, (2.0 * g / safe) * np.sin(y / 2.0))
        p_direct = (g**2 / safe**2) * (sin_y - y)
        q = np.where(at_zero, -beta * g * tau, -(beta * g / safe) * sin_y)
    p_series = -(g**2 * d * (tau * tau * tau) / 6.0) * (1.0 - y**2 / 20.0 + y**4 / 840.0)
    p = np.where(small, p_series, p_direct)
    return _kernels(amp * amp, p, q, odf_on_time=tau)
