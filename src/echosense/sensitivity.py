"""Detuning-averaged sensitivities, perturbative expansions, bounds, optimization.

The full-numerics path averages the second moment of Jy and the signal slope
separately over the Gaussian detuning distribution (matching the estimator
built from many experimental trials), then forms

    delta_sq = <Jy^2>_av / (d<Jy>/d amplitude)_av**2 .

Averages use Gauss-Hermite quadrature rescaled to the detuning distribution;
node evaluations are independent and summed in fixed node order, so results
are deterministic regardless of any data-parallel execution of the nodes.

Many drive times at once (``sensitivity_over_tau``, and ``optimize_tau``'s
coarse grid) are a single batched evaluation: one call of the closed-form
kernels and moments on a ``(n_tau, n_delta)`` grid, reduced row by row by the
code of ``averaged_sensitivity``, so that each row is bitwise
``averaged_sensitivity`` at its tau.

The perturbative expressions keep terms through second order in the detuning
spread sigma and lowest order in 1/N.  They are trustworthy for
2*sigma*tau < 0.5 (flagged via ``trusted``); at longer times only the
full-numerics path should be believed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .core import (
    ConfigError,
    NoiseModel,
    NumericalError,
    ProtocolSpec,
    SensitivityReport,
    Variant,
    db_below,
)
# the kernels_<protocol> closed forms are called by name (Variant.closed_form)
# in _protocol_kernels
from .kernels import (
    Kernels,
    kernels_classical_efield,
    kernels_displacement,
    kernels_generic,
    kernels_quantum_efield,
    kernels_readout,
)
from .moments import moments_at_detuning

__all__ = [
    "QuadratureRule",
    "gauss_hermite_rule",
    "averaged_sensitivity",
    "sensitivity_over_tau",
    "PerturbativeSensitivity",
    "perturbative_displacement",
    "perturbative_classical_efield",
    "perturbative_quantum_efield",
    "Bounds",
    "bounds",
    "optimize_tau",
    "snr_single_measurement",
    "SweepRow",
    "sweep_to_csv",
]

# quadrature nodes lighter than this cannot flip the domain flag
NEGLIGIBLE_WEIGHT = 1e-12

PERTURBATIVE_TRUST_LIMIT = 0.5  # on 2*sigma*tau


@dataclass(frozen=True)
class QuadratureRule:
    """Detuning nodes and probability weights for the disorder average."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape:
            raise ConfigError("nodes and weights must have equal length")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigError("quadrature weights must sum to 1")
        if not np.allclose(nodes, -nodes[::-1], rtol=0.0, atol=1e-9 * (1.0 + np.abs(nodes).max())):
            raise ConfigError("quadrature nodes must be symmetric about 0")

    @cached_property
    def heavy(self) -> np.ndarray:
        """Mask of the nodes heavy enough to flip the domain flag."""
        return self.weights > NEGLIGIBLE_WEIGHT


def gauss_hermite_rule(sigma: float, n_nodes: int = 64) -> QuadratureRule:
    """Gauss-Hermite rule rescaled to a zero-mean normal with std sigma.

    Exact for polynomial integrands of degree < 2*n_nodes against the
    Gaussian; sigma = 0 collapses to the single node delta = 0.
    """
    if sigma < 0.0:
        raise ConfigError("sigma must be >= 0")
    if n_nodes < 2 or n_nodes % 2 != 0:
        raise ConfigError("n_nodes must be even and >= 2")
    if sigma == 0.0:
        return QuadratureRule(nodes=np.array([0.0]), weights=np.array([1.0]))
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    nodes = math.sqrt(2.0) * sigma * x
    weights = w / math.sqrt(math.pi)
    weights = weights / weights.sum()
    return QuadratureRule(nodes=nodes, weights=weights)


def _protocol_kernels(variant: Variant, delta: np.ndarray, tau=None) -> Kernels:
    """Unit-drive-amplitude kernels for the variant, broadcast over delta: its
    closed form (one of the kernel functions imported here) or the generic
    kernels of its unit-drive schedule.  ``tau`` (a column) replaces the
    variant's own drive time, giving one row of kernels per drive time."""
    if variant.closed_form is None:
        if tau is not None:
            raise ConfigError(f"protocol {variant.name!r} has no drive time tau")
        return kernels_generic(variant.unit_drive().schedule(1.0), delta)
    args = [
        tau if tau is not None and f.name == "tau" else getattr(variant, f.name)
        for f in fields(variant)
        if f.name != variant.drive
    ]
    return globals()[variant.closed_form](*args, delta)


def _reduce(
    noise: NoiseModel,
    rule: QuadratureRule,
    jy_sq: np.ndarray,
    slope: np.ndarray,
    in_domain: np.ndarray,
) -> tuple[float, float, float, bool]:
    """Average one drive time's node values over ``rule`` into the variance,
    slope, delta_sq and in_domain of its report (see ``averaged_sensitivity``);
    the one reduction behind every averaged sensitivity."""
    jy_sq_av = float(rule.weights @ jy_sq)
    slope_av = float(rule.weights @ slope)
    domain_ok = bool(in_domain[rule.heavy].all())

    variance = jy_sq_av * noise.excess_noise_factor**2
    slope_sq = slope_av**2
    delta_sq = variance / slope_sq if slope_sq > 0.0 else math.inf
    if not math.isfinite(delta_sq):
        raise NumericalError(
            f"delta_sq is not finite (averaged signal slope {slope_av:.3e}): "
            "no usable signal to estimate"
        )
    return variance, slope_av, delta_sq, domain_ok


def _report(
    variant: Variant,
    noise: NoiseModel,
    rule: QuadratureRule,
    jy_sq: np.ndarray,
    slope: np.ndarray,
    in_domain: np.ndarray,
) -> SensitivityReport:
    """The report of one drive time's node values."""
    variance, slope, delta_sq, domain_ok = _reduce(noise, rule, jy_sq, slope, in_domain)
    sql = variant.sql
    return SensitivityReport(
        variance=variance,
        slope=slope,
        delta_sq=delta_sq,
        sql=sql,
        thermal_bound=(2.0 * noise.nbar + 1.0) * sql,
        db_below_sql=db_below(sql, delta_sq),
        protocol=variant.name,
        in_domain=domain_ok,
    )


def averaged_sensitivity(
    spec: ProtocolSpec, noise: NoiseModel, rule: QuadratureRule
) -> SensitivityReport:
    """Full-numerics sensitivity of ``spec`` under ``noise``, averaged over ``rule``.

    Numerator and denominator are averaged separately before forming the
    ratio.  The excess-noise factor multiplies the noise standard deviation,
    i.e. the variance (and delta_sq) by its square.
    """
    kernels = _protocol_kernels(spec.variant, rule.nodes)
    mom = moments_at_detuning(kernels, spec.n_ions, noise)
    return _report(spec.variant, noise, rule, mom.jy_sq, mom.slope, mom.in_domain)


def _tau_rows(
    spec: ProtocolSpec, taus: np.ndarray, noise: NoiseModel, rule: QuadratureRule
) -> zip:
    """(jy_sq, slope, in_domain) node rows, one per drive time in ``taus``,
    from one batched closed-form evaluation."""
    column = np.asarray(taus, dtype=float).reshape(-1, 1)
    kernels = _protocol_kernels(spec.variant, rule.nodes, column)
    mom = moments_at_detuning(kernels, spec.n_ions, noise)
    return zip(mom.jy_sq, mom.slope, mom.in_domain)


def sensitivity_over_tau(
    spec: ProtocolSpec, taus: np.ndarray, noise: NoiseModel, rule: QuadratureRule
) -> list[SensitivityReport]:
    """``averaged_sensitivity`` of ``spec`` at every drive time in ``taus``.

    ``spec``'s own tau is replaced by each entry of ``taus``; its other fields
    are kept.  All drive times go through the closed forms and the moments in
    one batched call, and report i is bitwise ``averaged_sensitivity`` at
    ``taus[i]``.  Where that raises, this raises (at the first such tau).
    """
    rows = _tau_rows(spec, taus, noise, rule)
    return [_report(spec.variant, noise, rule, *row) for row in rows]


def _delta_sq_over_tau(
    spec: ProtocolSpec, taus: np.ndarray, noise: NoiseModel, rule: QuadratureRule
) -> np.ndarray:
    """The delta_sq of ``sensitivity_over_tau`` without building reports, and
    +inf where ``averaged_sensitivity`` raises NumericalError: the objective on
    ``optimize_tau``'s coarse grid."""
    values = []
    for row in _tau_rows(spec, taus, noise, rule):
        try:
            values.append(_reduce(noise, rule, *row)[2])
        except NumericalError:
            values.append(math.inf)
    return np.array(values)


@dataclass(frozen=True)
class PerturbativeSensitivity:
    """Perturbative sensitivity with each contribution separately retrievable.

    ``total`` includes the squared excess-noise factor; the individual terms
    are quoted without it.
    """

    total: float
    terms: dict[str, float]
    trusted: bool


def perturbative_displacement(g: float, tau: float, noise: NoiseModel) -> PerturbativeSensitivity:
    """(delta beta)^2 through second order in sigma for the echo protocol.

    terms: ideal e^{2 G tau}/(4 g^2 tau^2); signal_reduction
    sigma^2 e^{2 G tau}/(12 g^2); spin_phonon sigma^2 tau^2 (nbar + 1/2)/2;
    spin_spin g^2 sigma^2 tau^4/9.
    """
    if not tau > 0.0:
        raise ConfigError("tau must be > 0")
    gam, sig, nbar = noise.gamma, noise.sigma, noise.nbar
    terms = {
        "ideal": math.exp(2.0 * gam * tau) / (4.0 * g**2 * tau**2),
        "signal_reduction": sig**2 * math.exp(2.0 * gam * tau) / (12.0 * g**2),
        "spin_phonon": sig**2 * tau**2 * (nbar + 0.5) / 2.0,
        "spin_spin": g**2 * sig**2 * tau**4 / 9.0,
    }
    total = sum(terms.values()) * noise.excess_noise_factor**2
    return PerturbativeSensitivity(
        total=total,
        terms=terms,
        trusted=2.0 * sig * tau <= PERTURBATIVE_TRUST_LIMIT,
    )


def perturbative_classical_efield(
    g: float, tau: float, T: float, noise: NoiseModel
) -> PerturbativeSensitivity:
    """(delta eta)^2 for the classical (readout-only) drive-sensing protocol."""
    if not 0.0 < tau <= T:
        raise ConfigError("classical protocol requires 0 < tau <= T")
    gam, sig, nbar = noise.gamma, noise.sigma, noise.nbar
    span = 2.0 * T - tau
    terms = {
        "ideal": math.exp(gam * tau) / (g**2 * tau**2 * span**2),
        "ideal_spin_phonon": (2.0 * nbar + 1.0) / span**2,
        "signal_reduction": sig**2
        * math.exp(gam * tau)
        * (2.0 * T**2 - 2.0 * tau * T + tau**2)
        / (6.0 * g**2 * tau**2 * span**2),
        "spin_phonon": sig**2 * (nbar + 0.5) / 6.0,
        "spin_spin": g**2 * sig**2 * tau**4 / (36.0 * span**2),
    }
    total = sum(terms.values()) * noise.excess_noise_factor**2
    return PerturbativeSensitivity(
        total=total,
        terms=terms,
        trusted=2.0 * sig * tau <= PERTURBATIVE_TRUST_LIMIT,
    )


def perturbative_quantum_efield(
    g: float, tau: float, T: float, noise: NoiseModel
) -> PerturbativeSensitivity:
    """(delta eta)^2 for the entangle-drive-disentangle protocol.

    The ideal term 1/(4 g^2 tau^2 (T-tau)^2) is unbounded from below at
    Gamma = 0, so this protocol can beat both the coherent-state and thermal
    references; the sigma^2 (2 nbar + 1)/4 term is the large-T noise floor.
    """
    if not 0.0 < 2.0 * tau <= T:
        raise ConfigError("quantum protocol requires 0 < 2*tau <= T")
    gam, sig, nbar = noise.gamma, noise.sigma, noise.nbar
    span = T - tau
    terms = {
        "ideal": math.exp(2.0 * gam * tau) / (4.0 * g**2 * tau**2 * span**2),
        "signal_reduction": sig**2
        * math.exp(2.0 * gam * tau)
        * (2.0 * T**2 - tau * T + tau**2)
        / (24.0 * g**2 * tau**2 * span**2),
        "spin_phonon": sig**2 * (2.0 * nbar + 1.0) / 4.0,
        "spin_spin": g**2 * sig**2 * tau**2 * (3.0 * T - 4.0 * tau) ** 2 / (36.0 * span**2),
    }
    total = sum(terms.values()) * noise.excess_noise_factor**2
    return PerturbativeSensitivity(
        total=total,
        terms=terms,
        trusted=2.0 * sig * tau <= PERTURBATIVE_TRUST_LIMIT,
    )


@dataclass(frozen=True)
class Bounds:
    sql_beta: float
    sql_eta: float
    thermal_beta: float
    thermal_eta: float
    cramer_rao_beta: float


def bounds(T: float, nbar: float, g: float, tau: float) -> Bounds:
    """Reference sensitivities: coherent-state limits, thermal limits, and the
    quantum Cramer-Rao value 1/(4 + 4 g^2 tau^2) for displacement estimation."""
    if not T > 0.0:
        raise ConfigError("T must be > 0")
    return Bounds(
        sql_beta=0.25,
        sql_eta=1.0 / (4.0 * T**2),
        thermal_beta=(2.0 * nbar + 1.0) / 4.0,
        thermal_eta=(2.0 * nbar + 1.0) / (4.0 * T**2),
        cramer_rao_beta=1.0 / (4.0 + 4.0 * g**2 * tau**2),
    )


def snr_single_measurement(beta: float, g: float, tau: float, noise: NoiseModel) -> float:
    """Single-measurement signal-to-noise ratio of the echo displacement sensor.

    2 g tau beta e^{-G tau} / sqrt(1 + e^{-2 G tau} [(2 nbar + 1) g^2 sigma^2
    tau^4 + (4/9) g^4 sigma^2 tau^6]); equivalent to beta/sqrt(perturbative
    displacement sensitivity) with the signal-reduction term dropped.  The
    excess-noise factor divides the SNR.
    """
    if not tau > 0.0:
        raise ConfigError("tau must be > 0")
    gam, sig, nbar = noise.gamma, noise.sigma, noise.nbar
    depol = math.exp(-2.0 * gam * tau)
    noise_sq = 1.0 + depol * (
        (2.0 * nbar + 1.0) * g**2 * sig**2 * tau**4
        + (4.0 / 9.0) * g**4 * sig**2 * tau**6
    )
    return 2.0 * g * tau * beta * math.exp(-gam * tau) / (
        math.sqrt(noise_sq) * noise.excess_noise_factor
    )


@dataclass(frozen=True)
class SweepRow:
    """One protocol-time point of an optimized sensitivity sweep."""

    T: float
    tau_opt: float
    delta_sq: float
    db_below_sql: float
    protocol: str

    def __post_init__(self) -> None:
        cap = Variant.lookup(self.protocol).tau_cap * self.T
        if not 0.0 < self.tau_opt <= cap * (1.0 + 1e-12):
            raise ConfigError(
                f"tau_opt={self.tau_opt} violates the {self.protocol} cap {cap}"
            )


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """Render optimized-sweep rows as CSV (T_s, tau_opt_s, delta_sq,
    db_below_sql, protocol)."""
    lines = ["T_s,tau_opt_s,delta_sq,db_below_sql,protocol"]
    for row in rows:
        lines.append(
            f"{row.T:.12g},{row.tau_opt:.12g},{row.delta_sq:.12g},"
            f"{row.db_below_sql:.12g},{row.protocol}"
        )
    return "\n".join(lines) + "\n"


def optimize_tau(
    family: str,
    T: float,
    g: float,
    noise: NoiseModel,
    rule: QuadratureRule,
    n_ions: int,
    tau_min: float | None = None,
    tau_max: float | None = None,
    coarse: int = 64,
    tol: float = 1e-7,
) -> tuple[float, float]:
    """Minimize the full-numerics delta_sq over the admissible drive time tau.

    A ``coarse``-point grid brackets the minimum, then golden-section search
    refines it to absolute tolerance ``tol`` seconds.  The grid is one batched
    evaluation (``_delta_sq_over_tau``) whose values are bitwise those of
    ``averaged_sensitivity`` at each grid point; the refinement calls
    ``averaged_sensitivity`` once per step.  If the grid shows more
    than one local minimum a warning is emitted and the grid minimum is
    returned unrefined.  ``family`` names a variant class (``Variant.lookup``)
    and tau is capped at its ``tau_cap`` times T (for "displacement", T simply
    bounds the scan).  A tau where delta_sq is not finite scores +inf; only a
    grid without a finite point raises NumericalError.
    """
    cls = Variant.lookup(family)
    names = {f.name for f in fields(cls)}
    if "tau" not in names:
        raise ConfigError(f"protocol {family!r} has no drive time tau to optimize")
    fixed = {key: value for key, value in (("g", g), ("T", T)) if key in names}
    if not T > 0.0:
        raise ConfigError("T must be > 0")
    if coarse < 8:
        raise ConfigError("coarse grid needs at least 8 points")
    hi = tau_max if tau_max is not None else cls.tau_cap * T
    lo = tau_min if tau_min is not None else hi / 256.0
    if not 0.0 < lo < hi:
        raise ConfigError("need 0 < tau_min < tau_max")

    def objective(tau: float) -> float:
        spec = ProtocolSpec(cls(tau=tau, **fixed), n_ions)
        try:
            return averaged_sensitivity(spec, noise, rule).delta_sq
        except NumericalError:
            return math.inf

    grid = np.linspace(lo, hi, coarse)
    # the variant at tau_max checks the tau cap before the batched grid
    values = _delta_sq_over_tau(ProtocolSpec(cls(tau=hi, **fixed), n_ions), grid, noise, rule)
    if not np.isfinite(values).any():
        raise NumericalError(f"delta_sq({family}) is not finite anywhere on the coarse grid")
    i_best = int(np.argmin(values))

    interior_minima = 0
    for i in range(1, coarse - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            interior_minima += 1
    edge_minima = int(values[0] < values[1]) + int(values[-1] < values[-2])
    if interior_minima + edge_minima > 1:
        warnings.warn(
            f"delta_sq({family}) is not unimodal on the coarse grid; "
            "returning the grid minimum",
            RuntimeWarning,
            stacklevel=2,
        )
        return float(grid[i_best]), float(values[i_best])

    a = grid[max(i_best - 1, 0)]
    b = grid[min(i_best + 1, coarse - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = objective(x2)
    tau_opt = 0.5 * (a + b)
    return float(tau_opt), float(objective(tau_opt))
