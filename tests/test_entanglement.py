"""Entanglement diagnostics, with the closed-form Gaussian references they are
checked against.

The references are the paper's hybrid-quadrature relations, kept here because
no command uses them.  Two inequivalent squeezing numbers appear: ``xi_sq`` is
the commonly quoted closed form 1/(1 + y^2 + y sqrt(2 + y^2)) with y = g*tau,
associated with the rotation angle tan(phi) = (sqrt(4 + y^2) - y)/2;
``xi_sq_eigen`` is the inverse largest eigenvalue of the quadratic form
[[1 + y^2, -y], [-y, 1]] of the hybrid-plus Wigner function, i.e. the actual
minimal variance ratio of that Gaussian.  They do not agree at finite y.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from echosense.core import ConfigError, NumericalError
from echosense.entanglement import renyi_entropy, wigner_hybrid_plus, wigner_reduced_boson

G = 2 * math.pi * 3910.0
TAU = 200e-6


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


def squeezing_parameters(g_tau: float) -> SqueezingParameters:
    """Both squeezing conventions for the post-entangling hybrid-plus state."""
    if g_tau < 0.0:
        raise ConfigError("g_tau must be >= 0")
    y = g_tau
    xi_sq = 1.0 / (1.0 + y**2 + y * math.sqrt(2.0 + y**2))
    phi = math.atan((math.sqrt(4.0 + y**2) - y) / 2.0)
    lam_max = 1.0 + y**2 / 2.0 + (y / 2.0) * math.sqrt(4.0 + y**2)
    return SqueezingParameters(xi_sq=xi_sq, phi=phi, xi_sq_eigen=1.0 / lam_max)


def hybrid_plus_state(g_tau: float) -> GaussianPhaseSpace:
    """Covariance of the hybrid-plus Wigner Gaussian: [[1, y], [y, 1 + y^2]]/2."""
    y = g_tau
    cov = 0.5 * np.array([[1.0, y], [y, 1.0 + y**2]])
    return GaussianPhaseSpace(covariance=cov, mean=np.zeros(2))


def reduced_boson_purity(g_tau: float) -> float:
    """Tr rho_boson^2 = 1/sqrt(1 + g_tau^2), i.e. exp(-S2) at the entangling peak."""
    return 1.0 / math.sqrt(1.0 + g_tau**2)


def grid_integrate(fn, half_width, points=1501):
    xs = np.linspace(-half_width, half_width, points)
    vals = fn(xs[:, None], xs[None, :])
    return np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)


class TestRenyiEntropy:
    def test_endpoints_vanish(self):
        assert renyi_entropy(G, TAU, 0.0) == 0.0
        assert abs(renyi_entropy(G, TAU, 2 * TAU)) < 1e-12

    def test_peak_value(self):
        assert renyi_entropy(G, TAU, TAU) == pytest.approx(
            0.5 * math.log(1 + (G * TAU) ** 2), rel=1e-14
        )

    def test_symmetry_about_peak(self):
        for s in (0.1 * TAU, 0.5 * TAU, 0.9 * TAU):
            assert renyi_entropy(G, TAU, TAU + s) == pytest.approx(
                renyi_entropy(G, TAU, TAU - s), rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(ConfigError):
            renyi_entropy(G, TAU, -1e-9)
        with pytest.raises(ConfigError):
            renyi_entropy(G, TAU, 2 * TAU + 1e-9)

    def test_overflow_is_numerical_error(self):
        # (g t)^2 overflows a float although g t itself is finite
        with pytest.raises(NumericalError, match=r"\(g t\)\^2"):
            renyi_entropy(1e303, TAU, TAU)


class TestSqueezing:
    def test_zero_coupling(self):
        sq = squeezing_parameters(0.0)
        assert sq.xi_sq == 1.0
        assert sq.xi_sq_eigen == 1.0
        assert sq.phi == pytest.approx(math.pi / 4, rel=1e-14)

    def test_strong_coupling_asymptote(self):
        y = 200.0
        sq = squeezing_parameters(y)
        assert sq.xi_sq == pytest.approx(1 / (2 * y**2), rel=1e-3)

    def test_eigen_value_at_unity(self):
        sq = squeezing_parameters(1.0)
        assert sq.xi_sq_eigen == pytest.approx(2 / (3 + math.sqrt(5)), rel=1e-14)
        assert sq.xi_sq == pytest.approx(1 / (2 + math.sqrt(3)), rel=1e-14)

    def test_both_below_unity_and_monotone(self):
        ys = np.linspace(0.0, 8.0, 30)
        xi = [squeezing_parameters(y).xi_sq for y in ys]
        xi_e = [squeezing_parameters(y).xi_sq_eigen for y in ys]
        assert all(v <= 1.0 + 1e-15 for v in xi + xi_e)
        assert all(b < a for a, b in zip(xi, xi[1:]))
        assert all(b < a for a, b in zip(xi_e, xi_e[1:]))


class TestWignerFunctions:
    def test_origin_value(self):
        assert wigner_hybrid_plus(0.0, 0.0, 2.0) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_zero_coupling_is_vacuum(self):
        for x, p in ((0.3, -0.7), (1.1, 0.2)):
            assert wigner_hybrid_plus(x, p, 0.0) == pytest.approx(
                math.exp(-(x**2) - p**2) / math.pi, rel=1e-14
            )
            assert wigner_reduced_boson(x, p, 0.0) == pytest.approx(
                math.exp(-(x**2) - p**2) / math.pi, rel=1e-14
            )

    def test_hybrid_normalization(self):
        y = 2.0
        sigma_max = math.sqrt((1 + y**2) / 2)
        total = grid_integrate(
            lambda x, p: wigner_hybrid_plus(x, p, y), 12 * sigma_max
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_reduced_marginal_variances(self):
        y = 1.8
        width = 12 * math.sqrt((1 + y**2) / 2)
        norm = grid_integrate(lambda x, p: wigner_reduced_boson(x, p, y), width)
        var_p = grid_integrate(
            lambda x, p: p**2 * wigner_reduced_boson(x, p, y), width
        )
        var_x = grid_integrate(
            lambda x, p: x**2 * wigner_reduced_boson(x, p, y), width
        )
        assert norm == pytest.approx(1.0, abs=1e-9)
        assert var_p == pytest.approx((1 + y**2) / 2, abs=1e-8)
        assert var_x == pytest.approx(0.5, abs=1e-9)

    def test_purity_consistent_with_entropy(self):
        # Tr rho^2 = 2 pi Int W^2 must equal exp(-S2) with tau -> t
        for t_frac in np.linspace(0.05, 1.0, 20):
            t = t_frac * TAU
            y = G * t
            width = 12 * math.sqrt((1 + y**2) / 2)
            tr_rho_sq = 2 * math.pi * grid_integrate(
                lambda x, p: wigner_reduced_boson(x, p, y) ** 2, width
            )
            assert tr_rho_sq == pytest.approx(
                math.exp(-renyi_entropy(G, TAU, t)), abs=1e-8
            )
            assert tr_rho_sq == pytest.approx(reduced_boson_purity(y), abs=1e-8)


class TestGaussianPhaseSpace:
    def test_hybrid_covariance_matches_moments(self):
        y = 2.0
        state = hybrid_plus_state(y)
        width = 12 * math.sqrt((1 + y**2) / 2)
        cov = np.empty((2, 2))
        cov[0, 0] = grid_integrate(lambda x, p: x**2 * wigner_hybrid_plus(x, p, y), width)
        cov[1, 1] = grid_integrate(lambda x, p: p**2 * wigner_hybrid_plus(x, p, y), width)
        cov[0, 1] = cov[1, 0] = grid_integrate(
            lambda x, p: x * p * wigner_hybrid_plus(x, p, y), width
        )
        assert np.allclose(cov, state.covariance, atol=1e-8)
        # pure squeezed state saturates the uncertainty bound
        assert np.linalg.det(state.covariance) == pytest.approx(0.25, rel=1e-12)

    def test_uncertainty_bound_enforced(self):
        with pytest.raises(ConfigError):
            GaussianPhaseSpace(covariance=0.1 * np.eye(2), mean=np.zeros(2))
        with pytest.raises(ConfigError):
            GaussianPhaseSpace(
                covariance=np.array([[1.0, 0.5], [0.2, 1.0]]), mean=np.zeros(2)
            )
