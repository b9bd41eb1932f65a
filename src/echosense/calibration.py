"""Least-squares fits for the standard sensor calibrations.

Covers the four routine calibrations: detuning-spread extraction from the
bright-fraction growth of an undriven echo sequence, depolarization-rate
extraction from Ramsey contrast, oscillator ring-down decay, and the heating
rate.  Fits are Levenberg-Marquardt with numerically estimated Jacobians
(central differences, relative step 1e-6) and at most 200 residual
evaluations; non-convergence, a non-finite model value anywhere during the
fit, and a singular covariance (data that do not determine every parameter)
raise NumericalError instead of returning a silent best effort.

The bright-fraction model uses the closed form

    P_up(tau) = 1/2 - (1/2) e^{-2 Gamma_tot tau}
                / sqrt(1 + g^2 sigma^2 tau^4 (2 nbar + 1)/N
                         + 4 g^4 sigma^2 tau^6 / (9 N)),

the Gaussian average of the echo-sequence coherence to second order in the
detuning.  The last term carries tau^6: it is the square of the quadratic
-in-tau squeezing phase, and tau^6 is the only power with a dimensionless
coefficient g^4 sigma^2 tau^6.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from .core import ConfigError, NumericalError

__all__ = [
    "CalibrationDataset",
    "FitResult",
    "pup_model",
    "fit_sigma",
    "fit_contrast",
    "ring_down_model",
    "fit_ring_down",
    "fit_heating_rate",
]

MAX_RESIDUAL_EVALS = 200
JACOBIAN_REL_STEP = 1e-6


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class CalibrationDataset:
    """Measured points (x, y) with optional standard errors."""

    x: np.ndarray
    y: np.ndarray
    y_err: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape or x.ndim != 1:
            raise ConfigError("x and y must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ConfigError("x and y must be finite")
        if len(x) < 3:
            raise ConfigError("need at least 3 data points")
        if self.y_err is not None:
            err = np.asarray(self.y_err, dtype=float)
            object.__setattr__(self, "y_err", err)
            if err.shape != x.shape:
                raise ConfigError("y_err must match x in length")
            if not np.all(err > 0.0):
                raise ConfigError("y_err entries must be > 0")

    @classmethod
    def from_csv(cls, path: str) -> "CalibrationDataset":
        """Read a dataset with header ``x,y`` or ``x,y,yerr``.

        A first row of two numbers is data without a header, and an error:
        reading it as the header would drop that row unnoticed."""
        xs: list[float] = []
        ys: list[float] = []
        errs: list[float] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if len(header) >= 2 and all(map(_is_number, header[:2])):
                raise ConfigError(f"{path}: missing header x,y[,yerr]; first row {header}")
            has_err = len(header) >= 3
            for row in reader:
                if not row:
                    continue
                try:
                    xs.append(float(row[0]))
                    ys.append(float(row[1]))
                    if has_err and len(row) >= 3 and row[2] != "":
                        errs.append(float(row[2]))
                except (IndexError, ValueError) as exc:
                    raise ConfigError(f"{path}:{reader.line_num}: bad row {row}") from exc
        if errs and len(errs) != len(xs):
            raise ConfigError("yerr column must be complete if present")
        return cls(
            x=np.array(xs),
            y=np.array(ys),
            y_err=np.array(errs) if errs else None,
        )


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates with covariance and the weighted residual norm."""

    params: dict[str, float]
    covariance: np.ndarray
    residual_norm: float

    def error(self, name: str) -> float:
        """One-sigma standard error of a named parameter."""
        idx = list(self.params).index(name)
        return float(np.sqrt(self.covariance[idx, idx]))


def _central_diff_jacobian(
    fun: Callable[[np.ndarray], np.ndarray],
) -> Callable[[np.ndarray], np.ndarray]:
    def jac(params: np.ndarray, *args) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        cols = []
        for i in range(len(params)):
            step = JACOBIAN_REL_STEP * max(abs(params[i]), 1.0)
            plus = params.copy()
            minus = params.copy()
            plus[i] += step
            minus[i] -= step
            cols.append((fun(plus) - fun(minus)) / (2.0 * step))
        return np.column_stack(cols)

    return jac


def _line(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Slope and intercept of the least-squares line through (x, y): a fit's
    start values.  NumericalError where no line is determined (all x zero)."""
    try:
        # degenerate data overflow polyfit's scaling and make it rank-deficient;
        # the fit's own checks report that, not numpy's warnings (full=True
        # returns the rank instead of warning about it)
        with np.errstate(all="ignore"):
            return np.polyfit(x, y, 1, full=True)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"no start values: the line through the data fails ({exc})") from exc


def _fit(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    data: CalibrationDataset,
    p0: Sequence[float],
    names: Sequence[str],
) -> FitResult:
    sigma = data.y_err if data.y_err is not None else np.ones_like(data.y)

    def residuals(params: np.ndarray) -> np.ndarray:
        # a finite model value still overflows against a tiny yerr
        with np.errstate(all="ignore"):
            weighted = (model(params, data.x) - data.y) / sigma
        if not np.all(np.isfinite(weighted)):
            raise NumericalError(
                "fit residuals became non-finite at "
                + ", ".join(f"{name}={value:.6g}" for name, value in zip(names, params))
            )
        return weighted

    result = least_squares(
        residuals,
        x0=np.asarray(p0, dtype=float),
        jac=_central_diff_jacobian(residuals),
        method="lm",
        max_nfev=MAX_RESIDUAL_EVALS,
    )
    if result.status <= 0:
        raise NumericalError(
            f"fit did not converge within {MAX_RESIDUAL_EVALS} evaluations: "
            f"{result.message}"
        )
    jac = result.jac
    dof = max(len(data.y) - len(p0), 1)
    undetermined = f"the data do not determine all of {', '.join(names)}"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            jtj_inv = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"fit covariance is singular: {undetermined}") from exc
    if data.y_err is None:
        # scale by reduced chi-square when no measurement errors were given
        jtj_inv = jtj_inv * (2.0 * result.cost / dof)
    residual_norm = math.sqrt(2.0 * result.cost)
    if not (np.isfinite(jtj_inv).all() and (np.diag(jtj_inv) >= 0.0).all()):
        raise NumericalError(f"fit covariance gives no finite standard errors: {undetermined}")
    if not math.isfinite(residual_norm):
        raise NumericalError(f"fit residual norm is not finite: {undetermined}")
    return FitResult(
        params={name: float(v) for name, v in zip(names, result.x)},
        covariance=jtj_inv,
        residual_norm=residual_norm,
    )


# ---------------------------------------------------------------------------
# bright-fraction (detuning-spread) calibration
# ---------------------------------------------------------------------------


def pup_model(
    tau, g: float, sigma: float, nbar: float, n_ions: int, gamma_tot: float
):
    """Closed-form bright fraction of the undriven echo sequence (see module docs)."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ConfigError("tau must be >= 0")
    root = np.sqrt(
        1.0
        + g**2 * sigma**2 * tau**4 * (2.0 * nbar + 1.0) / n_ions
        + 4.0 * g**4 * sigma**2 * tau**6 / (9.0 * n_ions)
    )
    out = 0.5 - 0.5 * np.exp(-2.0 * gamma_tot * tau) / root
    return float(out) if out.ndim == 0 else out


def fit_sigma(
    data: CalibrationDataset,
    g: float,
    nbar: float,
    n_ions: int,
    gamma_tot: float,
    sigma0: float = 2.0 * math.pi * 30.0,
) -> FitResult:
    """One-parameter fit of the detuning spread sigma to bright-fraction data.

    Abscissa is the per-arm time tau.  The model is even in sigma, so the
    magnitude of the fitted value is reported.
    """

    def model(params: np.ndarray, x: np.ndarray) -> np.ndarray:
        return pup_model(x, g, params[0], nbar, n_ions, gamma_tot)

    result = _fit(model, data, [sigma0], ["sigma"])
    sigma = abs(result.params["sigma"])
    return FitResult(
        params={"sigma": sigma},
        covariance=result.covariance,
        residual_norm=result.residual_norm,
    )


# ---------------------------------------------------------------------------
# contrast / depolarization
# ---------------------------------------------------------------------------


def fit_contrast(data: CalibrationDataset) -> FitResult:
    """Fit exp(-Gamma_tot * t) to contrast vs total drive-on time t = 2*tau."""

    def model(params: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.exp(-params[0] * x)

    x, y = data.x, data.y
    positive = y > 0.0
    slope0 = 0.0
    if positive.sum() >= 2:
        slope0 = -_line(x[positive], np.log(y[positive]))[0]
    return _fit(model, data, [max(slope0, 0.0)], ["gamma_tot"])


# ---------------------------------------------------------------------------
# ring-down
# ---------------------------------------------------------------------------


def ring_down_model(theta_max, gamma_tot: float, tau: float):
    """Bright fraction for a randomly phased coherent excitation of angle theta_max:
    (1/2)[1 - e^{-2 Gamma_tot tau} cos(theta_max)], a small-angle approximation.
    The readout time ``tau`` must be finite and > 0."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"readout time tau must be finite and > 0, not {tau!r}")
    theta_max = np.asarray(theta_max, dtype=float)
    out = 0.5 * (1.0 - math.exp(-2.0 * gamma_tot * tau) * np.cos(theta_max))
    return float(out) if out.ndim == 0 else out


def fit_ring_down(
    data: CalibrationDataset,
    gamma_tot: float,
    tau: float,
    theta0_guess: float = 1.0,
    kappa_guess: float = 5.0,
) -> FitResult:
    """Fit (theta0, kappa) to bright fraction vs wait time.

    The excitation angle is proportional to the oscillation amplitude, so an
    exponential amplitude decay Zc(t) = Zc(0) e^{-kappa t} enters the signal
    as theta(t) = theta0 e^{-kappa t}.  A non-finite or non-positive ``tau``
    raises ConfigError from the model's first evaluation.
    """

    def model(params: np.ndarray, x: np.ndarray) -> np.ndarray:
        theta0, kappa = params
        return ring_down_model(theta0 * np.exp(-kappa * x), gamma_tot, tau)

    result = _fit(model, data, [theta0_guess, kappa_guess], ["theta0", "kappa"])
    return FitResult(
        params={
            "theta0": abs(result.params["theta0"]),
            "kappa": result.params["kappa"],
        },
        covariance=result.covariance,
        residual_norm=result.residual_norm,
    )


# ---------------------------------------------------------------------------
# heating rate
# ---------------------------------------------------------------------------


def fit_heating_rate(data: CalibrationDataset) -> FitResult:
    """Linear fit nbar(t) = nbar0 + rate * t to occupation vs wait time."""

    def model(params: np.ndarray, x: np.ndarray) -> np.ndarray:
        return params[0] + params[1] * x

    slope0, intercept0 = _line(data.x, data.y)
    return _fit(model, data, [intercept0, slope0], ["nbar0", "rate"])
