import math

import numpy as np
import pytest

from echosense.core import (
    ClassicalEField,
    ConfigError,
    Displacement,
    NoiseModel,
    NumericalError,
    ProtocolSpec,
    QuantumEField,
)
from echosense.kernels import (
    kernels_classical_efield,
    kernels_displacement,
    kernels_quantum_efield,
)
from echosense.moments import deformed_transverse_invariant, moments_at_detuning
from echosense.oracle import (
    ThermalEnsemble,
    damped_by_dephasing,
    driven_moments,
    evolve_exact,
    evolve_exact_detail,
    evolve_lindblad_detail,
    final_state,
)

G = 2 * math.pi * 3910.0


class TestThermalEnsemble:
    def test_ground_state(self):
        ens = ThermalEnsemble.from_nbar(0.0)
        assert ens.weights.tolist() == [1.0]
        assert ens.tail_mass == 0.0

    def test_mean_occupation(self):
        ens = ThermalEnsemble.from_nbar(2.0)
        n = np.arange(len(ens.weights))
        # the discarded tail carries at most ~tail_mass * n_keep of the mean
        assert float(ens.weights @ n) == pytest.approx(2.0, abs=1e-8)
        assert ens.tail_mass < 1e-10

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigError):
            ThermalEnsemble(weights=np.array([0.5, 0.4]), nbar=0.3, tail_mass=0.0)
        with pytest.raises(ConfigError):
            ThermalEnsemble(weights=np.array([1.0]), nbar=0.0, tail_mass=1e-9)


class TestExactEvolution:
    def test_perfect_echo(self):
        tau = 1.0 / G
        mom = evolve_exact(ProtocolSpec(Displacement(G, tau, 0.0), 2), 0.0)
        assert mom.jy_sq == pytest.approx(0.5, abs=1e-10)
        assert mom.jx_mean == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n_ions,nbar", [(2, 0.0), (4, 0.5)])
    def test_matches_closed_forms(self, n_ions, nbar):
        tau = 1.0 / G
        delta = 0.1 * G
        det = evolve_exact_detail(
            ProtocolSpec(Displacement(G, tau, 0.0), n_ions),
            delta,
            initial=ThermalEnsemble.from_nbar(nbar),
        )
        mom = moments_at_detuning(
            kernels_displacement(G, tau, delta), n_ions, NoiseModel(nbar=nbar)
        )
        assert det.jx == pytest.approx(mom.jx_mean, rel=1e-6)
        assert det.jy_sq == pytest.approx(mom.jy_sq, rel=1e-6)
        # finite-difference slope against the analytic first-order response
        assert det.slope == pytest.approx(mom.slope, rel=1e-5)

    def test_efield_slope_matches_closed_form(self):
        g = 2 * math.pi * 3880.0
        tau = 0.8 / g
        T = 3 * tau
        delta = 0.15 * g
        det = evolve_exact_detail(ProtocolSpec(ClassicalEField(g, tau, T, 0.0), 3), delta)
        mom = moments_at_detuning(
            kernels_classical_efield(g, tau, T, delta), 3, NoiseModel()
        )
        assert det.slope == pytest.approx(mom.slope, rel=1e-6)

    def test_quantum_efield_thermal_matches_closed_form(self):
        g = 2 * math.pi * 3880.0
        tau = 1.2 / g
        T = 3.1 * tau
        delta = 0.12 * g
        det = evolve_exact_detail(
            ProtocolSpec(QuantumEField(g, tau, T, 0.0), 6),
            delta,
            initial=ThermalEnsemble.from_nbar(2.0),
        )
        mom = moments_at_detuning(
            kernels_quantum_efield(g, tau, T, delta), 6, NoiseModel(nbar=2.0)
        )
        assert det.jx == pytest.approx(mom.jx_mean, rel=1e-6)
        assert det.jy_sq == pytest.approx(mom.jy_sq, rel=1e-6)
        assert det.slope == pytest.approx(mom.slope, rel=1e-6)

    def test_norm_preserved(self):
        det = evolve_exact_detail(
            ProtocolSpec(QuantumEField(G, 1.0 / G, 3.0 / G, 0.0), 4), 0.2 * G
        )
        assert det.norm_error < 1e-10

    def test_echo_identity_fock_independent(self):
        # at zero detuning the final spin state does not depend on the
        # initial oscillator state
        spec = ProtocolSpec(Displacement(G, 2e-4, 0.3), 4)
        values = []
        for n0 in (0, 1, 2, 5):
            weights = np.zeros(n0 + 1)
            weights[n0] = 1.0
            ens = ThermalEnsemble(weights=weights, nbar=float(n0), tail_mass=0.0)
            values.append(driven_moments(spec, 0.0, initial=ens)["jy"])
        expected = -2.0 * math.sin(2 * G * 2e-4 * 0.3 / 2.0)
        assert max(values) - min(values) < 1e-9
        assert values[0] == pytest.approx(expected, rel=1e-10)

    def test_final_state_consistency(self):
        spec = ProtocolSpec(Displacement(G, 2e-4, 0.3), 4)
        state = final_state(spec, 0.0)
        assert state.norm == pytest.approx(1.0, abs=1e-10)
        assert state.top_level_population < 1e-10
        jy_op = np.zeros((5, 5), dtype=complex)
        j = 2.0
        m = np.arange(5) - j
        for k in range(4):
            jp = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
            jy_op[k + 1, k] += jp / 2j
            jy_op[k, k + 1] += -jp / 2j
        amp = state.amplitudes
        jy = float(np.real(np.einsum("ak,ab,bk->", amp.conj(), jy_op, amp)))
        assert jy == pytest.approx(driven_moments(spec, 0.0)["jy"], rel=1e-10)

    def test_cutoff_doubling_stability(self):
        tau = 1.0 / G
        delta = 0.1 * G
        spec = ProtocolSpec(Displacement(G, tau, 0.0), 4)
        ens = ThermalEnsemble.from_nbar(0.5)
        base = evolve_exact_detail(spec, delta, initial=ens)
        double = evolve_exact_detail(spec, delta, n_cut=2 * base.n_cut, initial=ens)
        assert double.jx == pytest.approx(base.jx, rel=1e-8)
        assert double.jy_sq == pytest.approx(base.jy_sq, rel=1e-8)
        assert double.slope == pytest.approx(base.slope, rel=1e-8)

    def test_leakage_abort(self):
        spec = ProtocolSpec(Displacement(G, 3.0 / G, 0.0), 6)
        with pytest.raises(NumericalError):
            evolve_exact(spec, 0.2 * G, n_cut=4)

    def test_ion_cap(self):
        with pytest.raises(ConfigError):
            evolve_exact(ProtocolSpec(Displacement(G, 1e-4, 0.0), 13), 0.0)


class TestLindblad:
    TAU = 1.0 / G
    SPEC = ProtocolSpec(Displacement(G, 1.0 / G, 0.0), 2)
    DELTA = 0.1 * G

    def test_gamma_zero_reduces_to_exact(self):
        lb = evolve_lindblad_detail(self.SPEC, self.DELTA, nbar=0.0, gamma=0.0)
        ex = evolve_exact_detail(self.SPEC, self.DELTA)
        assert lb.jx == pytest.approx(ex.jx, abs=1e-8)
        assert lb.jy_sq == pytest.approx(ex.jy_sq, abs=1e-8)
        assert lb.slope == pytest.approx(ex.slope, abs=1e-8)

    def test_matches_damped_closed_forms(self):
        gamma = 0.25 / self.TAU
        lb = evolve_lindblad_detail(self.SPEC, self.DELTA, nbar=0.0, gamma=gamma)
        mom = moments_at_detuning(
            kernels_displacement(G, self.TAU, self.DELTA), 2, NoiseModel(gamma=gamma)
        )
        assert lb.jx == pytest.approx(mom.jx_mean, rel=1e-6)
        assert lb.jy_sq == pytest.approx(mom.jy_sq, rel=1e-6)
        assert lb.slope == pytest.approx(mom.slope, rel=1e-6)
        assert lb.trace_error < 1e-8

    def test_transverse_damping_rule(self):
        # master equation = Hamiltonian evolution followed by e^{-n Gamma t/2}
        # damping of the nth transverse moment
        gamma = 0.3 / self.TAU
        ex = evolve_exact_detail(self.SPEC, self.DELTA)
        lb = evolve_lindblad_detail(self.SPEC, self.DELTA, nbar=0.0, gamma=gamma)
        jx_pred, jy_sq_pred, slope_pred = damped_by_dephasing(ex, 2, gamma, 2 * self.TAU)
        assert lb.jx == pytest.approx(jx_pred, rel=1e-6)
        assert lb.jy_sq == pytest.approx(jy_sq_pred, rel=1e-6)
        assert lb.slope == pytest.approx(slope_pred, rel=1e-6)

    def test_deformed_invariant(self):
        gamma = 0.4 / self.TAU
        lb = evolve_lindblad_detail(self.SPEC, self.DELTA, nbar=0.0, gamma=gamma)
        assert lb.jpm_sym == pytest.approx(
            deformed_transverse_invariant(2, gamma, 2 * self.TAU), rel=1e-6
        )

    def test_thermal_initial_state(self):
        gamma = 0.3 / self.TAU
        lb = evolve_lindblad_detail(
            self.SPEC, self.DELTA, n_cut=40, nbar=0.3, gamma=gamma
        )
        mom = moments_at_detuning(
            kernels_displacement(G, self.TAU, self.DELTA),
            2,
            NoiseModel(nbar=0.3, gamma=gamma),
        )
        assert lb.jx == pytest.approx(mom.jx_mean, rel=1e-6)
        assert lb.jy_sq == pytest.approx(mom.jy_sq, rel=1e-6)
        assert lb.slope == pytest.approx(mom.slope, rel=1e-6)

    def test_classical_efield_dephasing_window(self):
        # dissipation acts only while the readout pulse is on, so the
        # classical protocol damps with t_odf = tau, not T
        g = 2 * math.pi * 3880.0
        tau = 0.8 / g
        T = 3 * tau
        delta = 0.1 * g
        gamma = 0.3 / tau
        spec = ProtocolSpec(ClassicalEField(g, tau, T, 0.0), 2)
        lb = evolve_lindblad_detail(spec, delta, nbar=0.0, gamma=gamma)
        mom = moments_at_detuning(
            kernels_classical_efield(g, tau, T, delta), 2, NoiseModel(gamma=gamma)
        )
        assert lb.jx == pytest.approx(mom.jx_mean, rel=1e-6)
        assert lb.jy_sq == pytest.approx(mom.jy_sq, rel=1e-6)
        assert lb.slope == pytest.approx(mom.slope, rel=1e-6)

    def test_quantum_efield_dephasing_window(self):
        # both pulses dissipate: t_odf = 2*tau
        g = 2 * math.pi * 3880.0
        tau = 0.6 / g
        T = 3 * tau
        delta = 0.1 * g
        gamma = 0.25 / tau
        spec = ProtocolSpec(QuantumEField(g, tau, T, 0.0), 2)
        lb = evolve_lindblad_detail(spec, delta, nbar=0.0, gamma=gamma)
        mom = moments_at_detuning(
            kernels_quantum_efield(g, tau, T, delta), 2, NoiseModel(gamma=gamma)
        )
        assert lb.jx == pytest.approx(mom.jx_mean, rel=1e-6)
        assert lb.jy_sq == pytest.approx(mom.jy_sq, rel=1e-6)
        assert lb.slope == pytest.approx(mom.slope, rel=1e-6)

    def test_three_ion_deformed_invariant(self):
        tau = 0.5 / G
        gamma = 0.4 / tau
        spec = ProtocolSpec(Displacement(G, tau, 0.0), 3)
        lb = evolve_lindblad_detail(spec, 0.1 * G, nbar=0.0, gamma=gamma, n_cut=16)
        assert lb.jpm_sym == pytest.approx(
            deformed_transverse_invariant(3, gamma, 2 * tau), rel=1e-6
        )

    def test_ion_cap(self):
        with pytest.raises(ConfigError):
            evolve_lindblad_detail(
                ProtocolSpec(Displacement(G, 1e-4, 0.0), 4), 0.0, gamma=100.0
            )

    def test_ensemble_longer_than_fock_space(self):
        # nbar = 0.3 keeps 16 Fock levels; n_cut = 8 has room for 9
        with pytest.raises(ConfigError):
            evolve_lindblad_detail(
                ProtocolSpec(Displacement(G, 1e-4, 0.0), 2), 0.0, n_cut=8, nbar=0.3
            )
