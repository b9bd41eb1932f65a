"""Detuning-averaged sensitivities, perturbative expansions, bounds, optimization.

The full-numerics path averages the second moment of Jy and the signal slope
separately over the Gaussian detuning distribution (matching the estimator
built from many experimental trials), then forms

    delta_sq = <Jy^2>_av / (d<Jy>/d amplitude)_av**2 .

Averages use Gauss-Hermite quadrature rescaled to the detuning distribution;
node evaluations are independent and summed in fixed node order, so results
are deterministic regardless of any data-parallel execution of the nodes.
numpy's unscaled Hermite rule is solved once per node count, cached
read-only.  The moments are even in the detuning, so a rule that is bitwise
a mirror pair (``QuadratureRule.half``, as every ``gauss_hermite_rule`` is)
evaluates them on its non-negative nodes only, mirrored back onto all nodes
before the unchanged reduction; any other rule evaluates every node.

Many drive times at once (``sensitivity_over_tau``, and every call of
``optimize_tau``'s objective) are a single batched evaluation: one call of
the kernels (a closed form, or ``kernels_generic`` on one schedule per tau),
the moments and the node reduction (``_reduce``) on a ``(n_tau, n_delta)``
grid.  One drive time runs the same numpy arithmetic on a single row, so each
batch row is bitwise ``averaged_sensitivity`` at its tau by construction.
The e-field forms also take a T per row, so ``optimize_tau`` handles a whole
sweep over T with one objective: one call holds the coarse grids of every T,
and one call per golden-section step serves the searches of every T.  Its
grid size and stopping width are the module constants ``TAU_GRID_POINTS`` and
``TAU_TOL``, not arguments.

The perturbative expressions keep terms through second order in the detuning
spread sigma and lowest order in 1/N.  They are trustworthy for
2*sigma*tau < 0.5 (flagged via ``trusted``); at longer times only the
full-numerics path should be believed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property

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
from .kernels import Kernels, kernels_classical_efield, kernels_generic, kernels_quantum_efield
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
    "TauOptima",
    "optimize_tau",
    "snr_single_measurement",
]

# quadrature nodes lighter than this cannot flip the domain flag
NEGLIGIBLE_WEIGHT = 1e-12

PERTURBATIVE_TRUST_LIMIT = 0.5  # on 2*sigma*tau

# optimize_tau: coarse grid points per protocol time T, and the bracket
# width (seconds) at which a golden-section search stops
TAU_GRID_POINTS = 64
TAU_TOL = 1e-7


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
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ConfigError("quadrature nodes and weights must be finite")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigError("quadrature weights must sum to 1")
        if not np.allclose(nodes, -nodes[::-1], rtol=0.0, atol=1e-9 * (1.0 + np.abs(nodes).max())):
            raise ConfigError("quadrature nodes must be symmetric about 0")

    @cached_property
    def heavy(self) -> np.ndarray:
        """Mask of the nodes heavy enough to flip the domain flag."""
        return self.weights > NEGLIGIBLE_WEIGHT

    @cached_property
    def half(self) -> int | None:
        """n // 2 when the rule is bitwise a mirror pair (even n, exactly
        ``nodes[::-1] == -nodes`` and ``weights[::-1] == weights``), else None."""
        n, nodes, weights = len(self.nodes), self.nodes, self.weights
        mirror = np.array_equal(nodes[::-1], -nodes) and np.array_equal(weights[::-1], weights)
        return n // 2 if n % 2 == 0 and mirror else None


@cache
def _hermite_base(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Hermite nodes and weights, read-only: rules scale copies."""
    # from 372 nodes on the weights overflow to NaN, which QuadratureRule rejects
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, w = np.polynomial.hermite.hermgauss(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    x, w = _hermite_base(n_nodes)
    nodes = math.sqrt(2.0) * sigma * x
    weights = w / math.sqrt(math.pi)
    weights = weights / weights.sum()
    return QuadratureRule(nodes=nodes, weights=weights)


def _protocol_kernels(variant: Variant, delta: np.ndarray, **columns) -> Kernels:
    """Unit-drive-amplitude kernels for the variant, broadcast over delta: its
    closed form (one of the kernel functions imported here) or the generic
    kernels of its unit-drive schedule.  ``columns`` (``tau``, and ``T`` for
    the e-field variants) replace the variant's own fields, giving one row of
    kernels per entry; the generic kernels then take one schedule per row."""
    if variant.closed_form is not None:
        args = [
            columns.get(f.name, getattr(variant, f.name))
            for f in fields(variant)
            if f.name != variant.drive
        ]
        return globals()[variant.closed_form](*args, delta)
    unit = variant.unit_drive()
    if not columns:
        return kernels_generic(unit.schedule(1.0), delta)
    if not hasattr(unit, "tau"):
        raise ConfigError(f"protocol {variant.name!r} has no drive time tau")
    rows = zip(*(col.ravel().tolist() for col in np.broadcast_arrays(*columns.values())))
    schedules = [replace(unit, **dict(zip(columns, row))).schedule(1.0) for row in rows]
    return kernels_generic(schedules, delta)


def _reduce(
    noise: NoiseModel, rule: QuadratureRule, jy_sq: np.ndarray, slope: np.ndarray
) -> tuple:
    """Average node values over ``rule`` (the last axis) into the variance,
    slope and delta_sq of a report (see ``averaged_sensitivity``), with
    delta_sq +inf where it is not finite; the one reduction behind every
    averaged sensitivity, for one row or many.

    A batch row is bitwise the reduction of that row alone: each row is the
    same elementwise product and the same pairwise sum along its nodes.
    Division by a zero slope warns unless the caller ignores it (``_rows``).
    """
    jy_sq_av = np.add.reduce(jy_sq * rule.weights, axis=-1)
    slope_av = np.add.reduce(slope * rule.weights, axis=-1)
    variance = jy_sq_av * noise.excess_noise_factor**2
    # jy_sq > 0, so the quotient is finite, +inf or nan; fmin sends nan to +inf
    delta_sq = np.fmin(variance / (slope_av * slope_av), math.inf)
    return variance, slope_av, delta_sq


def _report(
    variant: Variant,
    noise: NoiseModel,
    rule: QuadratureRule,
    variance: float,
    slope: float,
    delta_sq: float,
    in_domain: np.ndarray,
) -> SensitivityReport:
    """The report of one drive time's reduced values and node domain flags."""
    if delta_sq == math.inf:
        raise NumericalError(
            f"delta_sq is not finite (averaged signal slope {slope:.3e}): "
            "no usable signal to estimate"
        )
    sql = variant.sql
    delta_sq = float(delta_sq)
    return SensitivityReport(
        variance=float(variance),
        slope=float(slope),
        delta_sq=delta_sq,
        sql=sql,
        thermal_bound=(2.0 * noise.nbar + 1.0) * sql,
        db_below_sql=db_below(sql, delta_sq),
        protocol=variant.name,
        in_domain=bool(in_domain[rule.heavy].all()),
    )


def averaged_sensitivity(
    spec: ProtocolSpec, noise: NoiseModel, rule: QuadratureRule
) -> SensitivityReport:
    """Full-numerics sensitivity of ``spec`` under ``noise``, averaged over ``rule``.

    Numerator and denominator are averaged separately before forming the
    ratio.  The excess-noise factor multiplies the noise standard deviation,
    i.e. the variance (and delta_sq) by its square.
    """
    return _report(spec.variant, noise, rule, *_rows(spec, noise, rule))


def _rows(spec: ProtocolSpec, noise: NoiseModel, rule: QuadratureRule, **columns) -> tuple:
    """Variance, slope, delta_sq (``_reduce``) and the node domain flags, one
    row per entry of ``columns`` (``tau``, and ``T`` for the e-field forms),
    which replace ``spec``'s own fields; without columns, the values of the
    spec itself as scalars, beside its flags.

    The kernels and moments of all rows are one batched evaluation.  Overflow
    to inf or nan, and a zero slope, raise no warning here: ``_reduce`` and
    ``_report`` check the reduced values and flag or raise on non-finite ones.
    """
    columns = {key: np.asarray(col, dtype=float).reshape(-1, 1) for key, col in columns.items()}
    half = rule.half
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kernels = _protocol_kernels(spec.variant, rule.nodes[half:], **columns)
        mom = moments_at_detuning(kernels, spec.n_ions, noise)
        jy_sq, slope, in_domain = mom.jy_sq, mom.slope, mom.in_domain
        if half is not None:
            # the moments are even in delta: mirror the non-negative nodes
            jy_sq, slope, in_domain = (
                np.concatenate([x[..., ::-1], x], axis=-1) for x in (jy_sq, slope, in_domain)
            )
        return (*_reduce(noise, rule, jy_sq, slope), in_domain)


def sensitivity_over_tau(
    spec: ProtocolSpec, taus: np.ndarray, noise: NoiseModel, rule: QuadratureRule
) -> list[SensitivityReport]:
    """``averaged_sensitivity`` of ``spec`` at every drive time in ``taus``.

    ``spec``'s own tau is replaced by each entry of ``taus``; its other fields
    are kept.  All drive times go through the kernels, the moments and the
    reduction in one batched call, and report i is bitwise
    ``averaged_sensitivity`` at ``taus[i]``.  Where that raises, this raises
    (at the first such tau).
    """
    rows = zip(*_rows(spec, noise, rule, tau=taus))
    return [_report(spec.variant, noise, rule, *row) for row in rows]


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
    try:
        noise_sq = 1.0 + depol * (
            (2.0 * nbar + 1.0) * g**2 * sig**2 * tau**4
            + (4.0 / 9.0) * g**4 * sig**2 * tau**6
        )
    except OverflowError:
        raise NumericalError(
            f"snr: the noise variance overflows at g = {g!r}, tau = {tau!r}"
        ) from None
    return 2.0 * g * tau * beta * math.exp(-gam * tau) / (
        math.sqrt(noise_sq) * noise.excess_noise_factor
    )


@dataclass(frozen=True)
class TauOptima:
    """``optimize_tau`` at many protocol times T, one entry per T.

    ``tau_opt`` and ``delta_sq`` are the optimum and its delta_sq; ``refined``
    is False where the grid minimum is returned unrefined: the coarse grid
    was not unimodal, or the search ended where delta_sq is not finite.
    ``tau_opt`` is NaN where the grid has no finite point.
    """

    family: str
    tau_opt: np.ndarray
    delta_sq: np.ndarray
    refined: np.ndarray

    def row(self, i: int) -> tuple[float, float]:
        """(tau_opt, delta_sq) at the ith T; NumericalError where its grid has
        no finite point."""
        if math.isnan(self.tau_opt[i]):
            raise NumericalError(
                f"delta_sq({self.family}) is not finite anywhere on the coarse grid"
            )
        return float(self.tau_opt[i]), float(self.delta_sq[i])


def _golden_section(objective, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Midpoints of the brackets [a, b] after golden-section search of each.

    The searches run in lockstep: ``objective(taus, at)`` evaluates the point
    ``taus[j]`` of search ``at[j]`` for all of them in one call, first the two
    inner points of every search, then at each step the one new point of every
    search whose bracket is still above ``tol`` and still shrinking.  Each
    search makes the float operations of a scalar loop on its own bracket.
    """
    every = np.arange(len(a))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = np.split(objective(np.concatenate([x1, x2]), np.concatenate([every, every])), 2)
    width = b - a
    live = width > tol
    while live.any():
        at = np.flatnonzero(live)
        left = f1[at] < f2[at]
        lt, rt = at[left], at[~left]
        b[lt], x2[lt], f2[lt] = x2[lt], x1[lt], f1[lt]
        x1[lt] = b[lt] - invphi * (b[lt] - a[lt])
        a[rt], x1[rt], f1[rt] = x1[rt], x2[rt], f2[rt]
        x2[rt] = a[rt] + invphi * (b[rt] - a[rt])
        f_new = objective(np.where(left, x1[at], x2[at]), at)
        f1[lt], f2[rt] = f_new[left], f_new[~left]
        shrunk = b[at] - a[at]
        # a bracket at the float spacing of tau no longer shrinks
        live[at] = (shrunk > tol) & (shrunk < width[at])
        width[at] = shrunk
    return 0.5 * (a + b)


def optimize_tau(
    family: str,
    T: float | np.ndarray,
    g: float,
    noise: NoiseModel,
    rule: QuadratureRule,
    n_ions: int,
) -> tuple[float, float] | TauOptima:
    """Minimize the full-numerics delta_sq over the admissible drive time tau.

    For each protocol time T, a ``TAU_GRID_POINTS``-point grid on
    [tau_max/256, tau_max] brackets the minimum, tau_max being the variant
    class's ``tau_cap`` times T (``family`` names the class,
    ``Variant.lookup``; for "displacement", T simply bounds the scan).
    Golden-section search (Kiefer, Proc. AMS 4, 502 (1953)) then refines the
    bracket to ``TAU_TOL`` seconds; a bracket that stops shrinking at the
    float spacing ends the search there.  One objective serves every stage:
    the grids of all T are a single batched evaluation, and the searches of
    all T run in lockstep, each step evaluating the one new point of every
    still-open search in one batched call, as do the first two probes and
    the final evaluation at the optimum.  Every search makes exactly the
    float operations of a search of its T alone, and every objective value
    is bitwise ``averaged_sensitivity`` at its point; a tau where that raises
    NumericalError scores +inf.  If a grid shows more than one local
    minimum, or a search ends where delta_sq is not finite, the grid minimum
    is returned unrefined.

    A float ``T`` returns ``(tau_opt, delta_sq)``; an unrefined grid minimum
    comes with a RuntimeWarning, and a grid without a finite point raises
    NumericalError.  A 1-D array of T returns ``TauOptima``, which flags both
    per T instead.
    """
    cls = Variant.lookup(family)
    names = {f.name for f in fields(cls)}
    if "tau" not in names:
        raise ConfigError(f"protocol {family!r} has no drive time tau to optimize")
    Ts = np.asarray(T, dtype=float)
    scalar = Ts.ndim == 0
    if Ts.ndim > 1 or Ts.size == 0:
        raise ConfigError("T must be a number or a non-empty 1-D array")
    Ts = Ts.reshape(-1)
    hi = cls.tau_cap * Ts
    lo = hi / 256.0
    if not np.all((lo > 0.0) & (hi < math.inf)):
        raise ConfigError("T must be finite and > 0, with tau_cap*T/256 > 0")
    fixed = {key: value for key, value in (("g", g), ("T", Ts[0])) if key in names}
    # validates g and n_ions; every grid tau is within the cap by construction
    spec = ProtocolSpec(cls(tau=hi[0], **fixed), n_ions)

    def objective(taus: np.ndarray, at: np.ndarray) -> np.ndarray:
        # delta_sq at taus[j] for the T of row at[j]
        return _rows(spec, noise, rule, tau=taus, **({"T": Ts[at]} if "T" in names else {}))[2]

    every = np.arange(len(Ts))
    grid = np.linspace(lo, hi, TAU_GRID_POINTS, axis=-1)
    values = objective(grid.ravel(), np.repeat(every, TAU_GRID_POINTS)).reshape(grid.shape)
    best = np.argmin(values, axis=-1)
    finite = np.isfinite(values).any(axis=-1)
    tau_opt = np.where(finite, grid[every, best], math.nan)
    delta_sq = values[every, best]
    inner = values[:, 1:-1]
    minima = (
        np.count_nonzero((inner < values[:, :-2]) & (inner < values[:, 2:]), axis=-1)
        + (values[:, 0] < values[:, 1])
        + (values[:, -1] < values[:, -2])
    )
    refined = finite & (minima <= 1)
    rows = np.flatnonzero(refined)
    if rows.size:
        a = grid[rows, np.maximum(best[rows] - 1, 0)]
        b = grid[rows, np.minimum(best[rows] + 1, TAU_GRID_POINTS - 1)]
        taus = _golden_section(lambda x, at: objective(x, rows[at]), a, b, TAU_TOL)
        final = objective(taus, rows)
        # a search that ends where delta_sq is not finite keeps its grid minimum
        ended = np.isfinite(final)
        tau_opt[rows[ended]], delta_sq[rows[ended]] = taus[ended], final[ended]
        refined[rows[~ended]] = False

    optima = TauOptima(family, tau_opt, delta_sq, refined)
    if not scalar:
        return optima
    tau, value = optima.row(0)
    if not optima.refined[0]:
        warnings.warn(
            f"delta_sq({family}) is not unimodal on the coarse grid, or not finite "
            "where its search ended; returning the grid minimum",
            RuntimeWarning,
            stacklevel=2,
        )
    return tau, value
