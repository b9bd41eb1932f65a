import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosense.core import (
    ClassicalEField,
    ConfigError,
    Displacement,
    NoiseModel,
    ProtocolSpec,
    QuantumEField,
    ReadoutOnly,
)
from echosense.kernels import Kernels, kernels_classical_efield, kernels_quantum_efield
from echosense.moments import (
    contrast,
    deformed_transverse_invariant,
    moments_at_detuning,
    readout_snr_largeN,
)
from echosense.oracle import ThermalEnsemble, evolve_exact_detail
from reference_kernels import kernels_displacement, kernels_readout

QUIET = NoiseModel()
CLOSED_FORMS = {
    Displacement: kernels_displacement,
    ReadoutOnly: kernels_readout,
    ClassicalEField: kernels_classical_efield,
    QuantumEField: kernels_quantum_efield,
}


def make_kernels(hsq=0.0, p=0.0, q=0.0, t_odf=1e-4):
    return Kernels(hsq=hsq, p=p, q=q, odf_on_time=t_odf)


class TestMomentsAtDetuning:
    def test_perfect_echo(self):
        for n in (2, 10, 150):
            mom = moments_at_detuning(make_kernels(), n, QUIET)
            assert mom.jy_sq == pytest.approx(n / 4, rel=1e-14)
            assert mom.jx_mean == pytest.approx(n / 2, rel=1e-14)

    def test_zero_detuning_slope_magnitude(self):
        g, tau, n = 2 * math.pi * 3910.0, 2e-4, 150
        k = kernels_displacement(g, tau, 0.0)
        mom = moments_at_detuning(k, n, QUIET)
        assert abs(mom.slope) == pytest.approx(g * tau * math.sqrt(n), rel=1e-12)
        assert mom.slope < 0

    def test_matches_oracle(self):
        # N = 4, nbar = 0.5, g*tau = 1, delta = 0.1 g
        g = 2 * math.pi * 3910.0
        tau = 1.0 / g
        delta = 0.1 * g
        noise = NoiseModel(nbar=0.5)
        mom = moments_at_detuning(kernels_displacement(g, tau, delta), 4, noise)
        det = evolve_exact_detail(
            ProtocolSpec(Displacement(g, tau, 0.0), 4),
            delta,
            initial=ThermalEnsemble.from_nbar(0.5),
        )
        assert det.jx == pytest.approx(mom.jx_mean, rel=1e-6)
        assert det.jy_sq == pytest.approx(mom.jy_sq, rel=1e-6)
        assert det.slope == pytest.approx(mom.slope, rel=1e-6)

    def test_matches_oracle_random_draws(self):
        # N in {2,3,4,6}, random delta/g in [-0.3, 0.3], g*tau in [0.2, 3]
        rng = np.random.default_rng(31)
        for n_ions in (2, 3, 4, 6):
            for _ in range(2):
                g_tau = rng.uniform(0.2, 3.0)
                frac = rng.uniform(-0.3, 0.3)
                g = 2 * math.pi * 3910.0
                tau = g_tau / g
                delta = frac * g
                mom = moments_at_detuning(kernels_displacement(g, tau, delta), n_ions, QUIET)
                det = evolve_exact_detail(
                    ProtocolSpec(Displacement(g, tau, 0.0), n_ions), delta
                )
                assert det.jx == pytest.approx(mom.jx_mean, rel=1e-6)
                assert det.jy_sq == pytest.approx(mom.jy_sq, rel=1e-6)
                assert det.slope == pytest.approx(mom.slope, rel=1e-6)

    def test_thermal_enters_only_through_hsq(self):
        # moments at (|h|^2, nbar) equal those at (|h|^2 scaled, nbar') when
        # |h|^2 (nbar + 1/2) is held fixed
        nbar, nbar2 = 1.3, 4.0
        hsq = 2.7
        hsq2 = hsq * (nbar + 0.5) / (nbar2 + 0.5)
        k1 = make_kernels(hsq=hsq, p=0.3, q=-1.0)
        k2 = make_kernels(hsq=hsq2, p=0.3, q=-1.0)
        m1 = moments_at_detuning(k1, 20, NoiseModel(nbar=nbar))
        m2 = moments_at_detuning(k2, 20, NoiseModel(nbar=nbar2))
        assert m1.jy_sq == pytest.approx(m2.jy_sq, rel=1e-14)
        assert m1.slope == pytest.approx(m2.slope, rel=1e-14)
        assert m1.jx_mean == pytest.approx(m2.jx_mean, rel=1e-14)

    def test_monotonicity(self):
        n = 30
        hs = np.linspace(0.0, 3.0, 12)
        vals = [
            moments_at_detuning(make_kernels(hsq=h * h, p=0.2), n, NoiseModel(nbar=1.0)).jy_sq
            for h in hs
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        nbars = np.linspace(0.0, 6.0, 10)
        vals = [
            moments_at_detuning(make_kernels(hsq=1.0, p=0.2), n, NoiseModel(nbar=nb)).jy_sq
            for nb in nbars
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_projection_noise_floor(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            k = make_kernels(
                hsq=rng.uniform(0, 3) ** 2, p=rng.uniform(-0.5, 0.5) * n, q=rng.uniform(-2, 2)
            )
            noise = NoiseModel(nbar=rng.uniform(0, 6), gamma=rng.uniform(0, 2000))
            mom = moments_at_detuning(k, n, noise)
            assert mom.jy_sq >= n / 4 - 1e-12 * n

    def test_bloch_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            k = make_kernels(hsq=rng.uniform(0, 3) ** 2, p=rng.uniform(-0.5, 0.5) * n)
            mom = moments_at_detuning(k, n, QUIET)
            assert abs(mom.jx_mean) <= n / 2 + 1e-12 * n

    def test_domain_flag(self):
        n = 150
        ok = moments_at_detuning(make_kernels(p=0.1 * n), n, QUIET)
        assert ok.in_domain
        out = moments_at_detuning(make_kernels(p=0.9 * n), n, QUIET)
        assert not out.in_domain

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError):
            moments_at_detuning(make_kernels(), 1, QUIET)


@st.composite
def tau_axis_kernels(draw):
    """A named closed form on a (tau column x delta) grid, with the kernels
    of each tau alone."""
    cls = draw(st.sampled_from([Displacement, ReadoutOnly, ClassicalEField, QuantumEField]))
    fn = CLOSED_FORMS[cls]
    g = 2 * math.pi * draw(st.floats(100.0, 2e4))
    T = draw(st.floats(1e-5, 5e-3))
    fractions = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8))
    deltas = np.array(draw(st.lists(st.floats(-5e4, 5e4), min_size=1, max_size=8)))
    taus = np.array(fractions)[:, None] * cls.tau_cap * T

    def build(tau):
        return fn(g, tau, T, deltas) if cls.tau_cap != 1.0 or cls is ClassicalEField else fn(g, tau, deltas)

    return build(taus), [build(float(tau)) for tau in taus[:, 0]]


class TestTauAxisProperties:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        tau_axis_kernels(),
        st.integers(2, 500),
        st.floats(0.0, 10.0),
        st.floats(0.0, 3000.0),
    )
    def test_bounds_and_rows(self, grid_and_rows, n_ions, nbar, gamma):
        grid, rows = grid_and_rows
        noise = NoiseModel(nbar=nbar, gamma=gamma)
        mom = moments_at_detuning(grid, n_ions, noise)
        assert mom.jy_sq.shape == (len(rows), np.size(rows[0].p))
        assert np.all(np.abs(mom.jx_mean) <= n_ions / 2)
        assert np.all(mom.jy_sq >= 0.0)
        # each row is bitwise the kernels and moments of that tau alone
        for i, kernels in enumerate(rows):
            for name in ("hsq", "p", "q"):
                assert getattr(grid, name)[i].tobytes() == getattr(kernels, name).tobytes()
            assert grid.odf_on_time[i, 0] == kernels.odf_on_time
            one = moments_at_detuning(kernels, n_ions, noise)
            for name in ("jy_sq", "slope", "jx_mean", "in_domain"):
                assert getattr(mom, name)[i].tobytes() == getattr(one, name).tobytes()


class TestContrast:
    def test_zero_time(self):
        assert contrast(0.0, 250.0) == 1.0

    def test_reference_decay(self):
        # Gamma_tot = 250 1/s with 2*tau = 4 ms gives 1/e
        assert contrast(2e-3, 250.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_doubling_time_squares(self):
        c1 = contrast(1.3e-3, 410.0)
        assert contrast(2.6e-3, 410.0) == pytest.approx(c1**2, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            contrast(-1e-3, 100.0)


class TestReadoutLargeN:
    def test_zero_displacement(self):
        mean, var = readout_snr_largeN(1000.0, 1e-3, 0.0, 100)
        assert mean == 0.0
        assert var == pytest.approx(25.0 * (1 + 1.0), rel=1e-12)

    def test_never_beats_sql(self):
        for gt in (0.3, 1.0, 5.0):
            mean, var = readout_snr_largeN(gt / 1e-3, 1e-3, 1.0, 64)
            delta_beta_sq = var / mean**2
            assert delta_beta_sq == pytest.approx(1 / (4 * gt**2) + 0.25, rel=1e-12)
            assert delta_beta_sq > 0.25

    def test_strong_coupling_limit(self):
        mean, var = readout_snr_largeN(1e6, 1e-3, 1.0, 64)
        assert var / mean**2 == pytest.approx(0.25, rel=1e-5)


class TestDeformedInvariant:
    def test_gamma_zero(self):
        assert deformed_transverse_invariant(6, 0.0, 1e-3) == pytest.approx(
            6 * 7 / 4, rel=1e-14
        )

    def test_decay_form(self):
        n, gamma, t = 4, 800.0, 5e-4
        expected = n / 2 + n * (n - 1) / 4 * math.exp(-gamma * t)
        assert deformed_transverse_invariant(n, gamma, t) == pytest.approx(expected)
