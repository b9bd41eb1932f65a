import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosense import sensitivity
from echosense.cli import main
from echosense.core import (
    ClassicalEField,
    ConfigError,
    Custom,
    Displacement,
    Kick,
    NoiseModel,
    NumericalError,
    ProtocolSpec,
    PulseSchedule,
    QuantumEField,
    ReadoutOnly,
    Segment,
    Variant,
)
from echosense.kernels import SERIES_THRESHOLD
from echosense.moments import moments_at_detuning
from echosense.sensitivity import (
    QuadratureRule,
    averaged_sensitivity,
    bounds,
    gauss_hermite_rule,
    optimize_tau,
    perturbative_classical_efield,
    perturbative_displacement,
    perturbative_quantum_efield,
    sensitivity_over_tau,
    snr_single_measurement,
)
from test_core import protocol_spec_from_json, protocol_spec_to_json

G = 2 * math.pi * 3910.0
QUIET = NoiseModel()
RULE0 = gauss_hermite_rule(0.0)


class TestGaussHermiteRule:
    def test_zero_sigma(self):
        rule = gauss_hermite_rule(0.0)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [1.0]

    @pytest.mark.parametrize("n", [8, 64, 128])
    def test_gaussian_moments(self, n):
        sigma = 2 * math.pi * 40
        rule = gauss_hermite_rule(sigma, n)
        assert float(rule.weights @ rule.nodes**2) == pytest.approx(
            sigma**2, rel=1e-12
        )
        assert float(rule.weights @ rule.nodes**4) == pytest.approx(
            3 * sigma**4, rel=1e-12
        )

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_rejects_odd_or_tiny(self, n):
        with pytest.raises(ConfigError):
            gauss_hermite_rule(10.0, n)

    def test_rule_validation(self):
        with pytest.raises(ConfigError):
            QuadratureRule(nodes=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ConfigError):
            QuadratureRule(nodes=np.array([-1.0, 1.0]), weights=np.array([0.7, 0.7]))

    @pytest.mark.parametrize(
        "nodes,weights",
        [([0.0], [math.nan]), ([-math.inf, math.inf], [0.5, 0.5]), ([-1.0, 1.0], [math.inf, 0.5])],
        ids=["nan_weight", "inf_nodes", "inf_weight"],
    )
    def test_non_finite_rule_rejected(self, nodes, weights):
        # abs(nan - 1.0) > 1e-12 is False, so the sum check let NaN through
        with pytest.raises(ConfigError, match="finite"):
            QuadratureRule(nodes=np.array(nodes), weights=np.array(weights))

    @pytest.mark.parametrize("n", [372, 512, 1000])
    def test_too_many_nodes_rejected(self, n):
        # from 372 nodes on numpy's Gauss-Hermite weights are NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite"):
                gauss_hermite_rule(1.0, n)

    @pytest.mark.parametrize("n", [2, 32, 64, 128, 370])
    def test_rule_is_a_fresh_hermgauss_rule(self, n):
        # the base rule is solved once per node count; each rule is bitwise
        # the one built from a fresh hermgauss solve
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x, w = np.polynomial.hermite.hermgauss(n)
        for sigma in (1e-3, 2 * math.pi * 40.0, 1e6):
            rule = gauss_hermite_rule(sigma, n)
            weights = w / math.sqrt(math.pi)
            assert rule.nodes.tobytes() == (math.sqrt(2.0) * sigma * x).tobytes()
            assert rule.weights.tobytes() == (weights / weights.sum()).tobytes()

    def test_rules_do_not_share_arrays(self):
        sigma = 2 * math.pi * 40.0
        first = gauss_hermite_rule(sigma, 64)
        nodes, weights = first.nodes.copy(), first.weights.copy()
        first.nodes[:] = 1.0
        first.weights[:] = 0.0
        second = gauss_hermite_rule(sigma, 64)
        assert second.nodes.tobytes() == nodes.tobytes()
        assert second.weights.tobytes() == weights.tobytes()

    def test_too_many_nodes_rejected_again(self, capsys):
        # the NaN base rule is cached too, and still fails every rule built on it
        for _ in range(2):
            with pytest.raises(ConfigError, match="finite"):
                gauss_hermite_rule(2 * math.pi * 40.0, 512)
            assert main(["efield-sweep", "--nodes", "512"]) == 2
        assert capsys.readouterr().err.count("must be finite") == 2


class TestAveragedSensitivity:
    def test_ideal_displacement(self):
        for gt in (0.1, 1.0, 10.0):
            tau = gt / G
            r = averaged_sensitivity(ProtocolSpec(Displacement(G, tau), 150), QUIET, RULE0)
            assert r.delta_sq * 4 * G**2 * tau**2 == pytest.approx(1.0, rel=1e-12)
            assert r.sql == 0.25
            assert r.protocol == "displacement"

    def test_readout_large_n(self):
        tau = 1.0 / G
        r = averaged_sensitivity(ProtocolSpec(ReadoutOnly(G, tau), 20000), QUIET, RULE0)
        assert r.delta_sq == pytest.approx(0.25 + 1 / (4 * G**2 * tau**2), rel=1e-3)

    def test_readout_never_sub_sql(self):
        # oscillator vacuum noise fed into the spins bounds readout at the SQL
        rng = np.random.default_rng(23)
        for _ in range(40):
            g = 2 * math.pi * rng.uniform(1000, 6000)
            tau = rng.uniform(0.2, 4.0) / g
            noise = NoiseModel(
                sigma=rng.uniform(0, 300), nbar=rng.uniform(0, 6), gamma=rng.uniform(0, 800)
            )
            rule = gauss_hermite_rule(noise.sigma, 32)
            n_ions = int(rng.integers(2, 300))
            r = averaged_sensitivity(ProtocolSpec(ReadoutOnly(g, tau), n_ions), noise, rule)
            assert r.delta_sq > 0.25

    def test_quantum_ideal_at_half_time(self):
        T = 500e-6
        r = averaged_sensitivity(
            ProtocolSpec(QuantumEField(G, T / 2, T), 150), QUIET, RULE0
        )
        assert r.delta_sq == pytest.approx(4 / (G**2 * T**4), rel=1e-12)
        assert r.sql == pytest.approx(1 / (4 * T**2), rel=1e-12)

    def test_sigma_sign_invariance(self):
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=610.0)
        rule = gauss_hermite_rule(noise.sigma, 64)
        flipped = QuadratureRule(nodes=-rule.nodes[::-1], weights=rule.weights[::-1])
        spec = ProtocolSpec(Displacement(G, 2e-4), 150)
        a = averaged_sensitivity(spec, noise, rule).delta_sq
        b = averaged_sensitivity(spec, noise, flipped).delta_sq
        assert a == pytest.approx(b, rel=1e-13)

    def test_excess_noise_strictly_increases(self):
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=610.0)
        rule = gauss_hermite_rule(noise.sigma, 64)
        spec = ProtocolSpec(Displacement(G, 2e-4), 150)
        base = averaged_sensitivity(spec, noise, rule).delta_sq
        factors = (1.05, 1.18, 1.5)
        vals = []
        for f in factors:
            inflated = NoiseModel(
                sigma=noise.sigma, nbar=noise.nbar, gamma=noise.gamma,
                excess_noise_factor=f,
            )
            vals.append(averaged_sensitivity(spec, inflated, rule).delta_sq)
            assert vals[-1] == pytest.approx(base * f**2, rel=1e-12)
        assert base < vals[0] < vals[1] < vals[2]

    def test_no_signal_error(self):
        # a kick after the last drive segment never couples to the spins
        tau = 2e-4
        sched = PulseSchedule(segments=(Segment(tau, G),), kicks=(Kick(tau, 1.0),))
        with pytest.raises(NumericalError):
            averaged_sensitivity(ProtocolSpec(Custom(sched), 150), QUIET, RULE0)

    def test_non_finite_delta_sq_error(self):
        # the averaged slope of a long classical readout underflows, so
        # delta_sq = inf; it is reported as a numerical failure
        noise = NoiseModel(sigma=2 * math.pi * 13.48, nbar=7.49, gamma=548.8)
        rule = gauss_hermite_rule(noise.sigma, 64)
        T = 1.718e-3
        spec = ProtocolSpec(ClassicalEField(2 * math.pi * 4427.3, 0.95 * T, T), 44)
        with pytest.raises(NumericalError):
            averaged_sensitivity(spec, noise, rule)

    def test_custom_matches_named(self):
        tau = 2e-4
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=610.0)
        rule = gauss_hermite_rule(noise.sigma, 16)
        named = averaged_sensitivity(ProtocolSpec(Displacement(G, tau), 150), noise, rule)
        sched = PulseSchedule(
            segments=(Segment(tau, G), Segment(tau, -G)), kicks=(Kick(tau, 1.0),)
        )
        custom = averaged_sensitivity(ProtocolSpec(Custom(sched), 150), noise, rule)
        assert custom.delta_sq == pytest.approx(named.delta_sq, rel=1e-9)
        assert custom.sql == 0.25

    def test_custom_drive_only_sql(self):
        sched = PulseSchedule(
            segments=(Segment(3e-4, 0.0, 5.0), Segment(1e-4, -G, 5.0))
        )
        r = averaged_sensitivity(ProtocolSpec(Custom(sched), 150), QUIET, RULE0)
        assert r.sql == pytest.approx(1 / (4 * (4e-4) ** 2), rel=1e-12)

    def test_custom_mixed_drive_rejected(self):
        sched = PulseSchedule(
            segments=(Segment(1e-4, G, 5.0),), kicks=(Kick(0.0, 0.1),)
        )
        with pytest.raises(ConfigError):
            averaged_sensitivity(ProtocolSpec(Custom(sched), 150), QUIET, RULE0)


class TestPerturbative:
    def test_displacement_sigma_zero(self):
        noise = NoiseModel(gamma=610.0)
        p = perturbative_displacement(G, 2e-4, noise)
        assert p.terms["signal_reduction"] == 0.0
        assert p.terms["spin_phonon"] == 0.0
        assert p.terms["spin_spin"] == 0.0
        assert p.total == pytest.approx(p.terms["ideal"], rel=1e-14)
        assert p.trusted

    def test_trust_flag(self):
        noise = NoiseModel(sigma=2 * math.pi * 40)
        tau_bad = 0.6 / (2 * noise.sigma)
        assert not perturbative_displacement(G, tau_bad, noise).trusted

    def test_snr_equivalent_to_terms(self):
        # the SNR closed form equals beta/sqrt(delta_sq) with the
        # signal-reduction term dropped
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=610.0)
        for tau in (1e-4, 2e-4, 4e-4):
            p = perturbative_displacement(G, tau, noise)
            dropped = p.total - p.terms["signal_reduction"]
            beta = 0.24
            assert snr_single_measurement(beta, G, tau, noise) == pytest.approx(
                beta / math.sqrt(dropped), rel=1e-12
            )

    def test_snr_vanishes_at_zero(self):
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=500.0)
        assert snr_single_measurement(0.0, G, 2e-4, noise) == 0.0

    def test_frozen_reference_point(self):
        # tau = 200 us, g/(2*pi) = 3.91 kHz, sigma/(2*pi) = 40 Hz, nbar = 5,
        # gamma = 610 1/s; expected value frozen from independent term-by-term
        # evaluation of the four closed-form contributions
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=610.0)
        p = perturbative_displacement(G, 2e-4, noise)
        assert p.total == pytest.approx(2.6953899938e-02, rel=1e-9)
        assert p.terms["ideal"] == pytest.approx(0.0132170526320695, rel=1e-12)
        rule = gauss_hermite_rule(noise.sigma, 64)
        exact = averaged_sensitivity(
            ProtocolSpec(Displacement(G, 2e-4), 150), noise, rule
        ).delta_sq
        assert exact == pytest.approx(p.total, rel=0.05)

    def test_classical_floor_limit(self):
        # sigma = 0, Gamma = 0, g*tau -> infinity with tau << T leaves the
        # thermal limit (2 nbar + 1)/(4 T^2)
        noise = NoiseModel(nbar=5.0)
        T = 1.0
        p = perturbative_classical_efield(1e9, 1e-6, T, noise)
        assert p.total == pytest.approx((2 * 5 + 1) / (4 * T**2), rel=1e-4)

    def test_classical_never_beats_thermal(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            g = 2 * math.pi * rng.uniform(500, 8000)
            T = rng.uniform(1e-4, 3e-3)
            tau = T * rng.uniform(0.01, 1.0)
            noise = NoiseModel(
                sigma=rng.uniform(0, 400), nbar=rng.uniform(0, 8), gamma=rng.uniform(0, 1000)
            )
            p = perturbative_classical_efield(g, tau, T, noise)
            ref = bounds(T, noise.nbar, g, tau)
            assert p.total > ref.thermal_eta
            assert p.total > ref.sql_eta

    def test_classical_exact_never_beats_thermal(self):
        # the thermal limit also binds the full-numerics estimator
        rng = np.random.default_rng(22)
        for _ in range(25):
            g = 2 * math.pi * rng.uniform(1000, 6000)
            T = rng.uniform(2e-4, 2e-3)
            tau = T * rng.uniform(0.02, 1.0)
            noise = NoiseModel(
                sigma=rng.uniform(0, 350), nbar=rng.uniform(0, 6), gamma=rng.uniform(0, 800)
            )
            rule = gauss_hermite_rule(noise.sigma, 32)
            r = averaged_sensitivity(
                ProtocolSpec(ClassicalEField(g, tau, T), 150), noise, rule
            )
            assert r.delta_sq > r.thermal_bound

    def test_quantum_ideal(self):
        noise = NoiseModel()
        T = 6e-4
        tau = T / 2
        p = perturbative_quantum_efield(G, tau, T, noise)
        assert p.total == pytest.approx(4 / (G**2 * T**4), rel=1e-14)

    def test_quantum_floor_term(self):
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0)
        p = perturbative_quantum_efield(G, 1e-4, 2e-3, noise)
        assert p.terms["spin_phonon"] == pytest.approx(
            noise.sigma**2 * 11 / 4, rel=1e-14
        )

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            perturbative_quantum_efield(G, 1e-3, 1e-3, QUIET)
        with pytest.raises(ConfigError):
            perturbative_classical_efield(G, 2e-3, 1e-3, QUIET)

    @pytest.mark.parametrize("tau", [0.0, -1e-4, float("nan")])
    def test_nonpositive_tau_rejected(self, tau):
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=610.0)
        with pytest.raises(ConfigError):
            perturbative_displacement(G, tau, noise)
        with pytest.raises(ConfigError):
            perturbative_classical_efield(G, tau, 1e-3, noise)
        with pytest.raises(ConfigError):
            perturbative_quantum_efield(G, tau, 1e-3, noise)
        with pytest.raises(ConfigError):
            snr_single_measurement(0.1, G, tau, noise)

    def test_snr_overflow_is_numerical_error(self):
        # g^2 overflows a float although g itself is finite
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=610.0)
        with pytest.raises(NumericalError, match="noise variance"):
            snr_single_measurement(0.1, 2 * math.pi * 3.91e303, 2e-4, noise)


class TestBounds:
    def test_reference_values(self):
        b = bounds(1e-3, 5.0, G, 0.0)
        assert b.sql_beta == 0.25
        assert b.thermal_beta == pytest.approx(2.75)
        assert b.sql_eta == pytest.approx(1 / (4e-6), rel=1e-12)
        assert b.thermal_eta == pytest.approx(11 / (4e-6), rel=1e-12)
        assert b.cramer_rao_beta == 0.25

    def test_cramer_rao_below_sql(self):
        b = bounds(1e-3, 0.0, G, 2e-4)
        assert b.cramer_rao_beta == pytest.approx(
            1 / (4 + 4 * G**2 * (2e-4) ** 2), rel=1e-14
        )
        assert b.cramer_rao_beta < 0.25


class TestOptimizeTau:
    def test_ideal_quantum_half_time(self):
        T = 500e-6
        tau_opt, dsq = optimize_tau("quantum", T, G, QUIET, RULE0, 150)
        assert tau_opt == pytest.approx(T / 2, abs=2e-7)
        assert dsq == pytest.approx(4 / (G**2 * T**4), rel=1e-6)

    def test_saturation_at_large_T(self):
        g = 2 * math.pi * 3880.0
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=520.0)
        rule = gauss_hermite_rule(noise.sigma, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            tau_15, _ = optimize_tau("quantum", 1.5e-3, g, noise, rule, 150)
            tau_20, _ = optimize_tau("quantum", 2.0e-3, g, noise, rule, 150)
        # tau_opt saturates: far below the T/2 cap and nearly T-independent
        assert tau_20 < 0.25 * 2.0e-3
        assert tau_20 == pytest.approx(tau_15, rel=0.25)

    def test_respects_constraints(self):
        g = 2 * math.pi * 3880.0
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=520.0)
        rule = gauss_hermite_rule(noise.sigma, 32)
        T = 6e-4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            tau_q, _ = optimize_tau("quantum", T, g, noise, rule, 150)
            tau_c, _ = optimize_tau("classical", T, g, noise, rule, 150)
        assert 0 < tau_q <= T / 2 + 1e-12
        assert 0 < tau_c <= T + 1e-12

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            optimize_tau("nope", 1e-3, G, QUIET, RULE0, 150)


def per_point(cls, fixed, n_ions, grid, noise, rule):
    """delta_sq of one averaged_sensitivity call per tau, +inf where it raises
    NumericalError: the coarse-grid objective before it was batched."""
    values = []
    for tau in grid:
        spec = ProtocolSpec(cls(tau=tau, **fixed), n_ions)
        try:
            values.append(averaged_sensitivity(spec, noise, rule).delta_sq)
        except NumericalError:
            values.append(math.inf)
    return np.array(values)


def spy_rows(monkeypatch):
    """Record (taus, delta_sq) of every ``sensitivity._rows`` call with a tau
    column, as optimize_tau's objective makes them."""
    calls = []
    rows = sensitivity._rows

    def spy(spec, noise, rule, **columns):
        out = rows(spec, noise, rule, **columns)
        if "tau" in columns:
            calls.append((np.array(columns["tau"]), out[2]))
            assert len(calls) < 1000, "golden-section search does not stop"
        return out

    monkeypatch.setattr(sensitivity, "_rows", spy)
    return calls


def fixed_fields(cls, g, T):
    return {"g": g, "T": T} if "T" in cls.__dataclass_fields__ else {"g": g}


def series_branch(cls, grid, T, nodes):
    """Per (tau, delta): does the closed form take its p series there?"""
    if cls is QuantumEField:
        return np.broadcast_to(np.abs(nodes) * T <= SERIES_THRESHOLD, (len(grid), len(nodes)))
    return np.abs(np.outer(grid, nodes)) <= SERIES_THRESHOLD


class TestTauGrid:
    """optimize_tau's coarse grid is one batched evaluation, bitwise the per-point loop."""

    FAMILIES = ("displacement", "readout", "classical", "quantum")

    @pytest.mark.parametrize("nodes", [0, 32, 64], ids=["sigma0", "n32", "n64"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_optimize_tau_grid_is_bitwise_per_point(self, family, nodes, monkeypatch):
        seen = spy_rows(monkeypatch)
        cls = Variant.lookup(family)
        rng = np.random.default_rng([self.FAMILIES.index(family), nodes])
        branches = set()
        for draw in range(6):
            # the named_sweep box; the first draw's narrow spread puts
            # quadrature nodes on the quantum protocol's p series
            sigma_hz = 0.5 if draw == 0 else rng.uniform(10.0, 60.0)
            g = 2 * math.pi * rng.uniform(3000.0, 4500.0)
            T = rng.uniform(0.2, 2.0) * 1e-3
            n_ions = int(rng.integers(20, 301))
            noise = NoiseModel(
                sigma=2 * math.pi * sigma_hz, nbar=rng.uniform(0.0, 8.0),
                gamma=rng.uniform(200.0, 800.0),
            )
            rule = gauss_hermite_rule(0.0 if nodes == 0 else noise.sigma, max(nodes, 2))
            seen.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                optimize_tau(family, T, g, noise, rule, n_ions)
            grid, values = seen[0]
            assert len(grid) == 64
            want = per_point(cls, fixed_fields(cls, g, T), n_ions, grid, noise, rule)
            assert values.tobytes() == want.tobytes()
            branches.update(np.unique(series_branch(cls, grid, T, rule.nodes)).tolist())
        assert branches == ({True} if nodes == 0 else {True, False})

    def test_non_finite_rows_score_inf(self):
        # a long classical readout at small N: the averaged slope underflows
        g, T, n_ions = 2 * math.pi * 3600.0, 1.9e-3, 24
        noise = NoiseModel(sigma=2 * math.pi * 10.6, nbar=4.3, gamma=570.0)
        rule = gauss_hermite_rule(noise.sigma, 64)
        grid = np.linspace(T / 256, T, 64)
        spec = ProtocolSpec(ClassicalEField(g, T, T), n_ions)
        values = sensitivity._rows(spec, noise, rule, tau=grid)[2]
        want = per_point(ClassicalEField, {"g": g, "T": T}, n_ions, grid, noise, rule)
        assert np.isinf(values).sum() >= 1 and np.isfinite(values).sum() >= 1
        assert values.tobytes() == want.tobytes()
        # the reports raise where averaged_sensitivity raises
        with pytest.raises(NumericalError):
            sensitivity_over_tau(spec, grid, noise, rule)

    def test_reports_equal_per_point(self):
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5.0, gamma=610.0, excess_noise_factor=1.18)
        rule = gauss_hermite_rule(noise.sigma, 32)
        taus = np.linspace(20e-6, 600e-6, 17)
        reports = sensitivity_over_tau(ProtocolSpec(Displacement(G, 1e-4), 150), taus, noise, rule)
        for tau, report in zip(taus, reports):
            assert report == averaged_sensitivity(
                ProtocolSpec(Displacement(G, float(tau)), 150), noise, rule
            )

    def test_custom_has_no_tau_axis(self):
        sched = PulseSchedule(segments=(Segment(1e-4, G),), kicks=(Kick(0.0, 1.0),))
        with pytest.raises(ConfigError):
            sensitivity_over_tau(ProtocolSpec(Custom(sched), 150), [1e-4], QUIET, RULE0)

    def test_non_unimodal_grid_returns_grid_minimum(self):
        g, T, n_ions = 2 * math.pi * 3300.0, 1.9e-3, 78
        noise = NoiseModel(sigma=2 * math.pi * 40.0, nbar=7.0, gamma=680.0)
        rule = gauss_hermite_rule(noise.sigma, 32)
        with pytest.warns(RuntimeWarning, match="not unimodal"):
            tau, value = optimize_tau("classical", T, g, noise, rule, n_ions)
        grid = np.linspace(T / 256, T, 64)
        want = per_point(ClassicalEField, {"g": g, "T": T}, n_ions, grid, noise, rule)
        i_best = int(np.argmin(want))
        assert (tau, value) == (float(grid[i_best]), float(want[i_best]))

    def test_search_ending_non_finite_keeps_grid_minimum(self):
        # a huge coupling: the classical search walks from a finite grid
        # minimum into the region where delta_sq is +inf
        g, T = 2 * math.pi * 1e6, 1.6e-3
        noise = NoiseModel(sigma=2 * math.pi * 40.0, nbar=5.0, gamma=520.0)
        rule = gauss_hermite_rule(noise.sigma, 64)
        got = optimize_tau("classical", [T], g, noise, rule, 150)
        grid = np.linspace(T / 256, T, 64)
        want = per_point(ClassicalEField, {"g": g, "T": T}, 150, grid, noise, rule)
        i_best = int(np.argmin(want))
        assert not got.refined[0]
        assert got.row(0) == (float(grid[i_best]), float(want[i_best]))
        with pytest.warns(RuntimeWarning, match="not finite where its search ended"):
            assert optimize_tau("classical", T, g, noise, rule, 150) == got.row(0)

    def test_no_finite_grid_point(self):
        # depolarization wipes out the signal at every tau
        with pytest.raises(NumericalError, match="not finite anywhere"):
            optimize_tau("quantum", 1e-3, G, NoiseModel(gamma=1e9), RULE0, 150)


def golden_reference(family, T, g, noise, rule, n_ions, coarse=64, tol=1e-7):
    """optimize_tau of one T as the scalar loop it replaced: the coarse grid
    point by point, then one averaged_sensitivity call per golden-section
    step, falling back to the grid minimum where the search ends at +inf.
    Returns (tau_opt, delta_sq, refined, steps)."""
    cls = Variant.lookup(family)
    fixed = fixed_fields(cls, g, T)
    hi = cls.tau_cap * T
    grid = np.linspace(hi / 256.0, hi, coarse)
    values = per_point(cls, fixed, n_ions, grid, noise, rule)
    if not np.isfinite(values).any():
        raise NumericalError(f"delta_sq({family}) is not finite anywhere on the coarse grid")
    i_best = int(np.argmin(values))
    minima = sum(
        values[i] < values[i - 1] and values[i] < values[i + 1] for i in range(1, coarse - 1)
    )
    minima += int(values[0] < values[1]) + int(values[-1] < values[-2])
    if minima > 1:
        return float(grid[i_best]), float(values[i_best]), False, 0

    def objective(tau):
        return per_point(cls, fixed, n_ions, [tau], noise, rule)[0]

    a = grid[max(i_best - 1, 0)]
    b = grid[min(i_best + 1, coarse - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    steps = 0
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = objective(x2)
        steps += 1
    tau_opt = 0.5 * (a + b)
    value = objective(tau_opt)
    if not math.isfinite(value):  # the search ended where delta_sq is +inf
        return float(grid[i_best]), float(values[i_best]), False, steps
    return float(tau_opt), float(value), True, steps


def scalar_reduce(noise, rule, jy_sq, slope):
    """One drive time's reduction in Python floats: (variance, slope,
    delta_sq or +inf)."""
    jy_sq_av = float(rule.weights @ jy_sq)
    slope_av = float(rule.weights @ slope)
    variance = jy_sq_av * noise.excess_noise_factor**2
    slope_sq = slope_av**2
    delta_sq = variance / slope_sq if slope_sq > 0.0 else math.inf
    if not math.isfinite(delta_sq):
        delta_sq = math.inf
    return variance, slope_av, delta_sq


def bits(*values):
    return np.array(values, dtype=float).tobytes()


class TestLockstepOptimizer:
    """optimize_tau over many T is bitwise the scalar search of each T alone."""

    # the non-unimodal classical grid of test_non_unimodal_grid_returns_grid_minimum
    BIMODAL = dict(g=2 * math.pi * 3300.0, n_ions=78,
                   noise=NoiseModel(sigma=2 * math.pi * 40.0, nbar=7.0, gamma=680.0))
    # classical at T = 1.718 ms scores +inf at its largest grid tau
    # (test_cli.py::TestTableCommands::test_efield_sweep_skips_non_finite_tau)
    INF_POINT = dict(g=2 * math.pi * 4427.3, n_ions=44,
                     noise=NoiseModel(sigma=2 * math.pi * 13.48, nbar=7.49, gamma=548.8))

    def check_rows(self, family, Ts, g, noise, rule, n_ions):
        got = optimize_tau(family, Ts, g, noise, rule, n_ions)
        steps = []
        for i, T in enumerate(Ts):
            tau, dsq, refined, n_steps = golden_reference(family, T, g, noise, rule, n_ions)
            assert bits(*got.row(i)) == bits(tau, dsq)
            assert got.refined[i] == refined
            steps.append(n_steps)
        return got, steps

    def test_reduction_is_the_scalar_one(self):
        # a batch reduces each row as the one-row call does; both agree with
        # a dot product in Python floats to a few eps of the summed magnitudes
        # (the slope cancels, so its error is bounded by sum w |slope|, not
        # by its value, and delta_sq = variance / slope^2 carries twice that)
        rng = np.random.default_rng(3)
        rule = gauss_hermite_rule(2 * math.pi * 40.0, 64)
        n_rows = 4000
        jy_sq = rng.uniform(1.0, 1e4, (n_rows, 64))
        slope = rng.normal(0.0, 1e3, (n_rows, 64))
        slope[:3] = 0.0  # no signal
        slope[3] = 1e-160  # delta_sq overflows
        noise = NoiseModel(excess_noise_factor=1.18)
        with np.errstate(divide="ignore", over="ignore"):
            batch = sensitivity._reduce(noise, rule, jy_sq, slope)
            for i in range(n_rows):
                one = sensitivity._reduce(noise, rule, jy_sq[i], slope[i])
                assert bits(*(column[i] for column in batch)) == bits(*one)
                variance, slope_av, delta_sq = scalar_reduce(noise, rule, jy_sq[i], slope[i])
                magnitude = rule.weights @ np.abs(slope[i])
                assert abs(one[0] - variance) <= 1e-15 * variance
                assert abs(one[1] - slope_av) <= 1e-15 * magnitude
                if math.isinf(delta_sq):
                    assert one[2] == delta_sq
                else:
                    spread = 1.0 + 2.0 * magnitude / abs(slope_av)
                    assert abs(one[2] - delta_sq) <= 1e-15 * spread * delta_sq
        assert np.isinf(batch[2][:4]).all() and np.isfinite(batch[2][4:]).all()

    def test_named_sweep_box_bitwise(self):
        rng = np.random.default_rng(12)
        step_spreads = []
        for draw in range(5):
            t_min = rng.uniform(0.2, 1.0)
            Ts = np.linspace(t_min, rng.uniform(t_min + 0.2, 2.0), int(rng.integers(2, 7))) * 1e-3
            g = 2 * math.pi * rng.uniform(3000.0, 4500.0)
            noise = NoiseModel(
                sigma=2 * math.pi * rng.uniform(10.0, 60.0), nbar=rng.uniform(0.0, 8.0),
                gamma=rng.uniform(200.0, 800.0),
            )
            rule = gauss_hermite_rule(noise.sigma, (32, 64)[draw % 2])
            n_ions = int(rng.integers(20, 301))
            for family in ("quantum", "classical"):
                _, steps = self.check_rows(family, Ts, g, noise, rule, n_ions)
                step_spreads.append(len(set(steps)))
        # rows of one call close after different numbers of steps
        assert max(step_spreads) > 1

    def test_non_unimodal_row_among_refined_rows(self):
        rule = gauss_hermite_rule(self.BIMODAL["noise"].sigma, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the batched form flags, it does not warn
            got, _ = self.check_rows(
                "classical", [1.0e-3, 1.9e-3, 1.3e-3], self.BIMODAL["g"],
                self.BIMODAL["noise"], rule, self.BIMODAL["n_ions"],
            )
        assert got.refined.tolist() == [True, False, True]

    def test_row_with_inf_grid_point(self, monkeypatch):
        calls = spy_rows(monkeypatch)
        p = self.INF_POINT
        rule = gauss_hermite_rule(p["noise"].sigma, 64)
        got, _ = self.check_rows("classical", [0.896e-3, 1.718e-3], p["g"], p["noise"], rule,
                                 p["n_ions"])
        # the first objective call holds both T's grids, one row of 64 each
        grids = calls[0][1].reshape(2, 64)
        assert got.refined.all()
        assert np.isfinite(grids[0]).all() and np.isinf(grids[1][-1])

    def test_row_without_finite_grid_point(self):
        # a huge coupling at N = 2: the classical signal vanishes at every T,
        # the quantum one from the fourth T on
        noise = NoiseModel(sigma=2 * math.pi * 40.0, nbar=100.0, gamma=500.0)
        rule = gauss_hermite_rule(noise.sigma, 16)
        g, Ts = 2 * math.pi * 1e6, np.linspace(0.2e-3, 2.0e-3, 5)
        quantum = optimize_tau("quantum", Ts, g, noise, rule, 2)
        for i, T in enumerate(Ts):
            if i < 3:
                tau, dsq, _, _ = golden_reference("quantum", T, g, noise, rule, 2)
                assert bits(*quantum.row(i)) == bits(tau, dsq)
            else:
                with pytest.raises(NumericalError, match=r"delta_sq\(quantum\) is not finite"):
                    quantum.row(i)
        classical = optimize_tau("classical", Ts, g, noise, rule, 2)
        assert np.isnan(classical.tau_opt).all() and not classical.refined.any()

    @pytest.mark.parametrize("T", [1e9, 1e12, 1e15])
    def test_huge_T_stops_at_float_spacing(self, T, monkeypatch):
        # near tau = T/2 the float spacing of tau is at or above TAU_TOL, so
        # the bracket stops shrinking before it is TAU_TOL wide
        calls = spy_rows(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refined: no grid-minimum fallback
            tau, dsq = optimize_tau("quantum", T, G, QUIET, RULE0, 150)
        # one grid, the first two probes, ~67 steps to the float spacing, the final point
        assert len(calls[0][0]) == 64 and len(calls) < 120
        assert T / 512 < tau <= T / 2
        assert dsq <= calls[0][1].min()

    def test_sweep_is_one_grid_call(self, monkeypatch):
        # every T's grid goes into the first objective call, and the lockstep
        # searches close in a number of calls that does not grow with n_T
        calls = spy_rows(monkeypatch)
        counts = {}
        for n_T in (1, 4, 16):
            calls.clear()
            optimize_tau("quantum", np.full(n_T, 1e-3), G, QUIET, RULE0, 150)
            assert len(calls[0][0]) == n_T * 64
            counts[n_T] = len(calls)
        assert counts[1] == counts[4] == counts[16] < 20
        calls.clear()
        Ts = np.linspace(0.2e-3, 2.0e-3, 19)
        optimize_tau("quantum", Ts, G, QUIET, RULE0, 150)
        assert len(calls[0][0]) == 19 * 64 and len(calls) < 19

    # the last three: an infinite T, a grid start that underflows to 0, no T
    @pytest.mark.parametrize(
        "T", [[1e-3, 0.0], [[1e-3]], [1e-3, math.nan], [1e-3, math.inf], 5e-324, []]
    )
    def test_bad_T_axis_rejected(self, T):
        with pytest.raises(ConfigError, match="T must be"):
            optimize_tau("quantum", T, G, QUIET, RULE0, 150)


def full_rows(spec, noise, rule, **columns):
    """``_rows`` without the parity half: kernels and moments on every node
    of ``rule``, then ``_reduce``; the node slopes come last."""
    columns = {key: np.asarray(col, dtype=float).reshape(-1, 1) for key, col in columns.items()}
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kernels = sensitivity._protocol_kernels(spec.variant, rule.nodes, **columns)
        mom = moments_at_detuning(kernels, spec.n_ions, noise)
        reduced = sensitivity._reduce(noise, rule, mom.jy_sq, mom.slope)
        return (*reduced, mom.in_domain, mom.slope)


def cut_up(variant, fractions):
    """``variant``'s unit-drive schedule as a Custom one, each segment cut at
    ``fractions`` of its duration."""
    schedule = variant.unit_drive().schedule(1.0)
    pieces = []
    for seg in schedule.segments:
        edges = [0.0] + [f * seg.duration for f in fractions] + [seg.duration]
        pieces += [Segment(b - a, seg.g, seg.eta) for a, b in zip(edges, edges[1:])]
    return Custom(PulseSchedule(tuple(pieces), schedule.kicks))


class TestParityHalf:
    """The moments are even in delta, so a bitwise mirror-symmetric rule
    evaluates the kernels and moments on its non-negative half only."""

    def test_every_hermite_rule_takes_the_half_path(self):
        for n in (2, 4, 32, 64, 128, 370):
            for sigma in (1e-3, 2 * math.pi * 40.0, 1e6):
                assert gauss_hermite_rule(sigma, n).half == n // 2
        assert RULE0.half is None

    def test_efield_closed_forms_bitwise(self):
        # the draws of TestLockstepOptimizer.test_named_sweep_box_bitwise
        rng = np.random.default_rng(12)
        for draw in range(5):
            t_min = rng.uniform(0.2, 1.0)
            Ts = np.linspace(t_min, rng.uniform(t_min + 0.2, 2.0), int(rng.integers(2, 7))) * 1e-3
            g = 2 * math.pi * rng.uniform(3000.0, 4500.0)
            noise = NoiseModel(
                sigma=2 * math.pi * rng.uniform(10.0, 60.0), nbar=rng.uniform(0.0, 8.0),
                gamma=rng.uniform(200.0, 800.0),
            )
            rule = gauss_hermite_rule(noise.sigma, (32, 64)[draw % 2])
            n_ions = int(rng.integers(20, 301))
            assert rule.half == len(rule.nodes) // 2
            for cls in (QuantumEField, ClassicalEField):
                for T in Ts.tolist():
                    hi = cls.tau_cap * T
                    spec = ProtocolSpec(cls(g, hi, T), n_ions)
                    taus = np.linspace(hi / 256.0, hi, 64)
                    got = sensitivity._rows(spec, noise, rule, tau=taus)
                    ref = full_rows(spec, noise, rule, tau=taus)
                    assert bits(*got[:3]) == bits(*ref[:3])
                    assert np.array_equal(got[3], ref[3])
                # one (tau, T) pair per row, as the lockstep search asks
                T_col = np.repeat(Ts, 8)
                tau_col = T_col * cls.tau_cap * np.tile(np.linspace(0.05, 1.0, 8), len(Ts))
                got = sensitivity._rows(spec, noise, rule, tau=tau_col, T=T_col)
                ref = full_rows(spec, noise, rule, tau=tau_col, T=T_col)
                assert bits(*got[:3]) == bits(*ref[:3])
                assert np.array_equal(got[3], ref[3])

    def test_generic_engine_within_reduction_error(self):
        # the generic kernels are not bitwise even in delta at every entry
        # (6 of the 7 488 node slopes of the default displacement grid differ
        # from their mirror by up to 1.9e-14 relative), so the half path is
        # held to the bound of test_reduction_is_the_scalar_one; measured 0:
        # every reduced value here is bitwise the full-node one
        noise = NoiseModel(sigma=2 * math.pi * 40.0, nbar=5.0, gamma=610.0)
        taus = np.linspace(20e-6, 600e-6, 117)
        for nodes in (32, 64, 128):
            rule = gauss_hermite_rule(noise.sigma, nodes)
            cases = [
                (ProtocolSpec(Displacement(G, taus[0]), 150), {"tau": taus}),
                (ProtocolSpec(ReadoutOnly(G, taus[0]), 150), {"tau": taus}),
            ] + [
                (ProtocolSpec(cut_up(Displacement(G, tau), (0.3, 0.71)), 150), {})
                for tau in taus[::8]
            ]
            for spec, columns in cases:
                got = sensitivity._rows(spec, noise, rule, **columns)
                ref = full_rows(spec, noise, rule, **columns)
                assert np.array_equal(got[3], ref[3])
                magnitude = np.add.reduce(np.abs(ref[4]) * rule.weights, axis=-1)
                variance, slope_av, delta_sq = (np.asarray(x) for x in got[:3])
                ref_variance, ref_slope, ref_delta_sq = (np.asarray(x) for x in ref[:3])
                assert np.all(np.abs(variance - ref_variance) <= 1e-15 * ref_variance)
                assert np.all(np.abs(slope_av - ref_slope) <= 1e-15 * magnitude)
                spread = 1.0 + 2.0 * magnitude / np.abs(ref_slope)
                assert np.all(np.abs(delta_sq - ref_delta_sq) <= 1e-15 * spread * ref_delta_sq)

    def test_rules_that_are_not_bitwise_mirrors_take_the_full_path(self, monkeypatch):
        seen = []
        kernels = sensitivity._protocol_kernels

        def spy(variant, delta, **columns):
            seen.append(len(delta))
            return kernels(variant, delta, **columns)

        monkeypatch.setattr(sensitivity, "_protocol_kernels", spy)
        noise = NoiseModel(sigma=2 * math.pi * 40.0, nbar=5.0, gamma=610.0)
        rule = gauss_hermite_rule(noise.sigma, 32)
        nodes = rule.nodes.copy()
        nodes[3] *= 1.0 + 1e-12  # within QuadratureRule's 1e-9 symmetry tolerance
        nudged = QuadratureRule(nodes=nodes, weights=rule.weights)
        assert nudged.half is None
        spec = ProtocolSpec(QuantumEField(G, 2e-4, 1e-3), 150)
        for r in (rule, nudged, RULE0):
            averaged_sensitivity(spec, noise, r)
            sensitivity_over_tau(spec, np.array([1e-4, 2e-4, 3e-4]), noise, r)
        assert seen == [16, 16, 32, 32, 1, 1]
        # the nudged rule gives the value of the full-node evaluation
        got = sensitivity._rows(spec, noise, nudged)
        assert bits(*got[:3]) == bits(*full_rows(spec, noise, nudged)[:3])


def signed(lo, hi):
    """Magnitudes in [lo, hi] of either sign."""
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(lambda t: t[0] * t[1])


# JSON carries frequencies in Hz, as the CLI flags do, so the round trip is
# exact for rad/s values of the form 2*pi*Hz; an arbitrary rad/s value can
# come back one ulp off (g / (2 pi) * (2 pi) != g), a limit of the Hz form
RAD_PER_S = signed(1e-3, 1e6).map(lambda hz: 2 * math.pi * hz)
TIMES = st.floats(1e-7, 1e-2)


@st.composite
def variants(draw):
    cls = draw(st.sampled_from([Displacement, ReadoutOnly, ClassicalEField, QuantumEField, Custom]))
    if cls is Custom:
        segments = draw(st.lists(st.builds(Segment, TIMES, RAD_PER_S, RAD_PER_S), min_size=1, max_size=4))
        total = sum(seg.duration for seg in segments)
        fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=2))
        kicks = [Kick(f * total, draw(signed(1e-3, 10.0))) for f in fractions]
        return Custom(PulseSchedule(segments, kicks))
    g = draw(RAD_PER_S)
    if cls in (Displacement, ReadoutOnly):
        return cls(g, draw(TIMES), draw(signed(0.0, 10.0)))
    T = draw(TIMES)
    return cls(g, T * draw(st.floats(1e-3, cls.tau_cap)), T, draw(RAD_PER_S))


class TestProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.floats(100.0, 1e5),
        st.lists(st.floats(1e-3, 30.0), min_size=1, max_size=16),
        st.integers(2, 500),
    )
    def test_echo_above_cramer_rao(self, g_hz, g_taus, n_ions):
        # sigma = nbar = Gamma = 0, all drive times as one batched column
        g = 2 * math.pi * g_hz
        taus = np.array(g_taus) / g
        spec = ProtocolSpec(Displacement(g, float(taus[0])), n_ions)
        for tau, report in zip(taus, sensitivity_over_tau(spec, taus, QUIET, RULE0)):
            assert report.delta_sq >= bounds(2.0 * tau, 0.0, g, tau).cramer_rao_beta

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(variants(), st.integers(2, 1000))
    def test_json_round_trip(self, variant, n_ions):
        text = json.dumps(variant.to_json())
        assert type(variant).from_json(json.loads(text)) == variant
        spec = ProtocolSpec(variant, n_ions)
        assert protocol_spec_from_json(json.loads(json.dumps(protocol_spec_to_json(spec)))) == spec
