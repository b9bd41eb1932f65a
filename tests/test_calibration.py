import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import echosense.calibration as cal
from echosense.calibration import (
    CalibrationDataset,
    fit_contrast,
    fit_heating_rate,
    fit_ring_down,
    fit_sigma,
    pup_model,
    ring_down_model,
)
from echosense.core import ConfigError, Displacement, NoiseModel, NumericalError, population_up
from echosense.kernels import kernels_generic
from echosense.moments import moments_at_detuning
from echosense.sensitivity import gauss_hermite_rule

G = 2 * math.pi * 3910.0
SIGMA40 = 2 * math.pi * 40.0
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestDataset:
    def test_minimum_points(self):
        with pytest.raises(ConfigError):
            CalibrationDataset(x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]))

    def test_finite_values(self):
        with pytest.raises(ConfigError):
            CalibrationDataset(x=np.arange(3.0), y=np.array([0.0, math.nan, 1.0]))

    def test_positive_errors(self):
        with pytest.raises(ConfigError):
            CalibrationDataset(
                x=np.arange(3.0), y=np.arange(3.0), y_err=np.array([1.0, 0.0, 1.0])
            )

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,yerr\n0.0,1.0,0.1\n1.0,0.5,0.1\n2.0,0.3,0.2\n")
        data = CalibrationDataset.from_csv(str(path))
        assert data.x.tolist() == [0.0, 1.0, 2.0]
        assert data.y_err.tolist() == [0.1, 0.1, 0.2]
        path2 = tmp_path / "noerr.csv"
        path2.write_text("x,y\n0.0,1.0\n1.0,0.5\n2.0,0.3\n")
        assert CalibrationDataset.from_csv(str(path2)).y_err is None

    # derandomized so that the suite is deterministic; every example rewrites
    # the same file, so the function-scoped tmp_path is safe to share
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(
        st.lists(FINITE, min_size=n, max_size=n),
        st.lists(FINITE, min_size=n, max_size=n),
        st.none() | st.lists(POSITIVE, min_size=n, max_size=n),
    )))
    def test_csv_round_trip_property(self, tmp_path, columns):
        xs, ys, errs = columns
        header = ["x", "y"] if errs is None else ["x", "y", "yerr"]
        rows = zip(xs, ys) if errs is None else zip(xs, ys, errs)
        path = tmp_path / "data.csv"
        path.write_text(
            "\n".join([",".join(header)] + [",".join(map(repr, row)) for row in rows]) + "\n"
        )
        data = CalibrationDataset.from_csv(str(path))
        assert data.x.tobytes() == np.array(xs).tobytes()
        assert data.y.tobytes() == np.array(ys).tobytes()
        if errs is None:
            assert data.y_err is None
        else:
            assert data.y_err.tobytes() == np.array(errs).tobytes()


def pup_model_exact(
    tau: float,
    g: float,
    sigma: float,
    nbar: float,
    n_ions: int,
    gamma_tot: float,
    n_nodes: int = 64,
) -> float:
    """Bright fraction from the numerically averaged echo coherence: the
    reference for ``pup_model``.

    Averages the exact <Jx> of the undriven echo sequence over the detuning
    distribution (spin depolarization applied as exp(-2 Gamma_tot tau)) and
    converts to population with the 2<J>/N normalization.  It agrees with
    the closed form at the percent level over the calibration range, pinning
    the closed form's tau^6 exponent.
    """
    if tau == 0.0:
        return 0.0
    rule = gauss_hermite_rule(sigma, n_nodes)
    kernels = kernels_generic(Displacement(g, tau, 1.0).schedule(), rule.nodes)
    mom = moments_at_detuning(kernels, n_ions, NoiseModel(nbar=nbar))
    jx_av = float(rule.weights @ np.atleast_1d(mom.jx_mean))
    jx_av *= math.exp(-2.0 * gamma_tot * tau)
    return population_up(jx_av, n_ions)


class TestPupModel:
    def test_zero_time(self):
        assert pup_model(0.0, G, SIGMA40, 5.0, 150, 250.0) == 0.0
        assert pup_model_exact(0.0, G, SIGMA40, 5.0, 150, 250.0) == 0.0

    def test_pure_depolarization(self):
        tau = 1e-3
        assert pup_model(tau, G, 0.0, 5.0, 150, 250.0) == pytest.approx(
            0.5 * (1 - math.exp(-2 * 250.0 * tau)), rel=1e-12
        )

    def test_rises_above_depolarization_baseline(self):
        sigma = 2 * math.pi * 30.0
        taus = np.linspace(2e-4, 2.5e-3, 15)
        with_noise = pup_model(taus, G, sigma, 4.6, 120, 250.0)
        baseline = pup_model(taus, G, 0.0, 4.6, 120, 250.0)
        assert np.all(with_noise > baseline)

    def test_closed_form_tracks_exact_average(self):
        # within 2% of the full population range over the calibration window
        worst = 0.0
        for sigma_hz in (20.0, 40.0, 60.0):
            for tau in np.linspace(1e-5, 3e-3, 40):
                a = pup_model(tau, G, 2 * math.pi * sigma_hz, 4.6, 120, 250.0)
                b = pup_model_exact(tau, G, 2 * math.pi * sigma_hz, 4.6, 120, 250.0)
                worst = max(worst, abs(a - b))
        assert worst < 0.02

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            pup_model(-1e-6, G, SIGMA40, 5.0, 150, 250.0)


class TestFitSigma:
    TAUS = np.linspace(1e-4, 2.5e-3, 30)

    def synthetic(self, sigma):
        return pup_model(self.TAUS, G, sigma, 5.0, 150, 250.0)

    def test_round_trip(self):
        fit = fit_sigma(
            CalibrationDataset(self.TAUS, self.synthetic(SIGMA40)), G, 5.0, 150, 250.0
        )
        assert fit.params["sigma"] == pytest.approx(SIGMA40, rel=0.02)

    def test_zero_spread(self):
        fit = fit_sigma(
            CalibrationDataset(self.TAUS, self.synthetic(0.0)),
            G,
            5.0,
            150,
            250.0,
            sigma0=2 * math.pi * 5.0,
        )
        assert fit.params["sigma"] < 2 * math.pi * 1.0

    def test_noisy_recovery_within_errors(self):
        rng = np.random.default_rng(42)
        y = self.synthetic(SIGMA40)
        noisy = y + 0.01 * rng.standard_normal(len(y))
        data = CalibrationDataset(self.TAUS, noisy, y_err=np.full(len(y), 0.01))
        fit = fit_sigma(data, G, 5.0, 150, 250.0)
        assert abs(fit.params["sigma"] - SIGMA40) < 3 * fit.error("sigma")


def gamma_el_from_gamma_tot(gamma_tot: float) -> float:
    """Depolarizing rate from the total rate assuming Gamma_el = 4 Gamma_ram:
    Gamma_tot = (Gamma_ram + Gamma_el)/2 = 5 Gamma_el / 8, so Gamma_el = 8/5 Gamma_tot."""
    return 1.6 * gamma_tot


class TestFitContrast:
    TIMES = np.linspace(2e-4, 8e-3, 25)

    def test_round_trip(self):
        data = CalibrationDataset(self.TIMES, np.exp(-250.0 * self.TIMES))
        fit = fit_contrast(data)
        assert fit.params["gamma_tot"] == pytest.approx(250.0, rel=0.01)

    def test_flat_data(self):
        data = CalibrationDataset(self.TIMES, np.ones_like(self.TIMES))
        fit = fit_contrast(data)
        assert abs(fit.params["gamma_tot"]) < 1e-6

    def test_noisy_recovery_within_errors(self):
        rng = np.random.default_rng(43)
        y = np.exp(-250.0 * self.TIMES)
        noisy = y * (1 + 0.01 * rng.standard_normal(len(y)))
        data = CalibrationDataset(self.TIMES, noisy, y_err=0.01 * y)
        fit = fit_contrast(data)
        assert abs(fit.params["gamma_tot"] - 250.0) < 3 * fit.error("gamma_tot")

    def test_gamma_el_relation(self):
        assert gamma_el_from_gamma_tot(250.0) == pytest.approx(400.0, rel=1e-12)


class TestRingDown:
    WAITS = np.linspace(0.0, 0.4, 30)
    KAPPA = 1.0 / 0.3

    def synthetic(self, kappa, theta0=0.8):
        return ring_down_model(theta0 * np.exp(-kappa * self.WAITS), 250.0, 1.5e-3)

    def test_zero_angle_baseline(self):
        assert ring_down_model(0.0, 250.0, 1.5e-3) == pytest.approx(
            0.5 * (1 - math.exp(-2 * 250.0 * 1.5e-3)), rel=1e-12
        )

    @pytest.mark.parametrize("tau", [0.0, -1.5e-3, math.nan, math.inf])
    def test_bad_readout_time_rejected(self, tau):
        with pytest.raises(ConfigError):
            ring_down_model(0.0, 250.0, tau)
        with pytest.raises(ConfigError):
            fit_ring_down(CalibrationDataset(self.WAITS, self.synthetic(self.KAPPA)), 250.0, tau)

    def test_zero_decay_is_flat(self):
        y = self.synthetic(0.0)
        assert np.ptp(y) < 1e-12

    def test_round_trip(self):
        data = CalibrationDataset(self.WAITS, self.synthetic(self.KAPPA))
        fit = fit_ring_down(data, 250.0, 1.5e-3)
        assert fit.params["kappa"] == pytest.approx(self.KAPPA, rel=0.02)
        assert fit.params["theta0"] == pytest.approx(0.8, rel=0.02)

    def test_noisy_recovery_within_errors(self):
        rng = np.random.default_rng(44)
        y = self.synthetic(self.KAPPA)
        noisy = y + 0.01 * rng.standard_normal(len(y))
        data = CalibrationDataset(self.WAITS, noisy, y_err=np.full(len(y), 0.01))
        fit = fit_ring_down(data, 250.0, 1.5e-3)
        assert abs(fit.params["kappa"] - self.KAPPA) < 3 * fit.error("kappa")


def per_ion_heating_rate(rate: float, n_ions: int) -> float:
    """Collective-mode heating scales with ion number; divide out for one ion."""
    if n_ions < 1:
        raise ConfigError("n_ions must be >= 1")
    return rate / n_ions


class TestHeatingRate:
    TIMES = np.linspace(0.0, 0.05, 20)

    def test_round_trip(self):
        data = CalibrationDataset(self.TIMES, 0.3 + 58.0 * self.TIMES)
        fit = fit_heating_rate(data)
        assert fit.params["rate"] == pytest.approx(58.0, rel=0.02)

    def test_constant_data(self):
        data = CalibrationDataset(self.TIMES, np.full_like(self.TIMES, 1.7))
        fit = fit_heating_rate(data)
        assert abs(fit.params["rate"]) < 1e-9

    def test_noisy_recovery_within_errors(self):
        rng = np.random.default_rng(45)
        y = 0.3 + 58.0 * self.TIMES
        noisy = y * (1 + 0.01 * rng.standard_normal(len(y)))
        data = CalibrationDataset(self.TIMES, noisy, y_err=0.01 * np.abs(y) + 1e-9)
        fit = fit_heating_rate(data)
        assert abs(fit.params["rate"] - 58.0) < 3 * fit.error("rate")

    def test_per_ion_conversion(self):
        assert per_ion_heating_rate(100.0, 100) == pytest.approx(1.0)

    def test_single_wait_time_singular(self):
        # one x value cannot separate intercept from slope
        data = CalibrationDataset(np.ones(3), np.array([0.3, 0.4, 0.5]))
        with warnings.catch_warnings(), pytest.raises(NumericalError):
            warnings.simplefilter("error")  # polyfit's RankWarning stays inside
            fit_heating_rate(data)


class TestFitMachinery:
    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(cal, "MAX_RESIDUAL_EVALS", 2)
        taus = np.linspace(1e-4, 2.5e-3, 30)
        y = pup_model(taus, G, SIGMA40, 5.0, 150, 250.0)
        with pytest.raises(NumericalError):
            # deliberately distant start; two evaluations cannot converge
            fit_sigma(CalibrationDataset(taus, y), G, 5.0, 150, 250.0,
                      sigma0=2 * math.pi * 500.0)

    def test_covariance_shape_and_symmetry(self):
        waits = np.linspace(0.0, 0.4, 30)
        y = ring_down_model(0.8 * np.exp(-waits / 0.3), 250.0, 1.5e-3)
        fit = fit_ring_down(CalibrationDataset(waits, y), 250.0, 1.5e-3)
        cov = fit.covariance
        assert cov.shape == (2, 2)
        assert cov[0, 1] == pytest.approx(cov[1, 0], rel=1e-9, abs=1e-30)
