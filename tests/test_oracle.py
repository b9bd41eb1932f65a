import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

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
)
from echosense.kernels import kernels_classical_efield, kernels_quantum_efield
from echosense.moments import deformed_transverse_invariant, moments_at_detuning
from echosense.oracle import (
    ThermalEnsemble,
    _ExactRun,
    _max_h_amplitude,
    _timeline,
    damped_by_dephasing,
    default_fock_cutoff,
    evolve_exact_detail,
    evolve_lindblad_detail,
)
from reference_kernels import kernels_displacement, kernels_readout

G = 2 * math.pi * 3910.0
FD_STEP = 1e-4


def _drive_slope(jy_at, unit_schedule) -> float:
    """Reference d<Jy>/d(drive amplitude) at zero drive from ``jy_at(drive_scale)``
    (elementwise if it returns an array).

    Central differences at steps h and h/2 combined by one Richardson step;
    h = FD_STEP, divided by the schedule duration for continuous drives.
    """
    step = FD_STEP
    if any(seg.eta != 0.0 for seg in unit_schedule.segments):
        step = FD_STEP / unit_schedule.total_duration
    d1 = (jy_at(step) - jy_at(-step)) / (2.0 * step)
    d2 = (jy_at(step / 2.0) - jy_at(-step / 2.0)) / step
    return (4.0 * d2 - d1) / 3.0


class _RK45Lindblad:
    """Reference master-equation integrator: RK45 on the full 2^N x Fock
    density matrix, with sigma_z^i dephasing at rate gamma/4 while g != 0."""

    def __init__(self, n_ions: int, n_cut: int, delta: float):
        self.n_ions = n_ions
        dim_s = 2**n_ions
        self.dim_b = n_cut + 1
        self.dim = dim_s * self.dim_b

        # single-spin sigma_z diagonals over the spin product basis
        z_single = np.ones((n_ions, dim_s))
        for i in range(n_ions):
            for idx in range(dim_s):
                if (idx >> (n_ions - 1 - i)) & 1:
                    z_single[i, idx] = -1.0
        self.jz_diag = 0.5 * z_single.sum(axis=0)
        full_z = np.repeat(z_single, self.dim_b, axis=1)  # sigma_z^i on (s, n)
        self.mask = np.einsum("ia,ib->ab", full_z, full_z)

        a = np.diag(np.sqrt(np.arange(1.0, n_cut + 1)), 1)
        self.num_b = a.T @ a
        self.x_b = a + a.T
        self.y_b = 1.0j * (a.T - a)
        self.delta = delta

        def collective(single: np.ndarray) -> np.ndarray:
            total = np.zeros((dim_s, dim_s), dtype=complex)
            for i in range(n_ions):
                left, right = np.eye(2**i), np.eye(2 ** (n_ions - 1 - i))
                total += 0.5 * np.kron(np.kron(left, single), right)
            return total

        eye_b = np.eye(self.dim_b)
        jx_s = collective(np.array([[0.0, 1.0], [1.0, 0.0]]))
        jy_s = collective(np.array([[0.0, -1.0j], [1.0j, 0.0]]))
        jp_s, jm_s = jx_s + 1.0j * jy_s, jx_s - 1.0j * jy_s
        self.ops = {
            "jx": np.kron(jx_s, eye_b),
            "jy": np.kron(jy_s, eye_b),
            "jy_sq": np.kron(jy_s @ jy_s, eye_b),
            "jpm_sym": np.kron(0.5 * (jp_s @ jm_s + jm_s @ jp_s), eye_b),
        }

    def hamiltonian(self, g: float, eta: float) -> np.ndarray:
        common = -self.delta * self.num_b + eta * self.y_b
        ham = np.zeros((self.dim, self.dim), dtype=complex)
        for s, jz in enumerate(self.jz_diag):
            sl = slice(s * self.dim_b, (s + 1) * self.dim_b)
            ham[sl, sl] = common + (g * jz / math.sqrt(self.n_ions)) * self.x_b
        return ham

    def kick(self, rho: np.ndarray, beta: float) -> np.ndarray:
        lam, vec = np.linalg.eigh(self.y_b)
        d_b = (vec * np.exp(-1.0j * beta * lam)) @ vec.conj().T
        u = np.kron(np.eye(2**self.n_ions), d_b)
        return u @ rho @ u.conj().T

    def segment(self, rho: np.ndarray, g: float, eta: float, gamma: float, duration: float):
        ham = self.hamiltonian(g, eta)

        def rhs(_t: float, y: np.ndarray) -> np.ndarray:
            r = y.reshape(self.dim, self.dim)
            out = -1.0j * (ham @ r - r @ ham)
            if gamma > 0.0:
                out += (gamma / 4.0) * (self.mask * r - self.n_ions * r)
            return out.ravel()

        sol = solve_ivp(rhs, (0.0, duration), rho.ravel(), method="RK45", rtol=1e-10, atol=1e-12)
        assert sol.success, sol.message
        return sol.y[:, -1].reshape(self.dim, self.dim)


def _rk45_lindblad(spec, delta, n_cut, nbar, gamma) -> dict:
    """jx, jy_sq, jpm_sym at zero drive and the Richardson drive slope, by RK45."""
    sys = _RK45Lindblad(spec.n_ions, n_cut, delta)
    chi = np.full(2**spec.n_ions, 2.0 ** (-spec.n_ions / 2.0))
    rho_b = np.zeros((n_cut + 1, n_cut + 1))
    weights = ThermalEnsemble.from_nbar(nbar).weights
    rho_b[np.arange(len(weights)), np.arange(len(weights))] = weights
    rho0 = np.kron(np.outer(chi, chi), rho_b).astype(complex)
    unit = spec.variant.unit_drive()

    def expect(scale: float) -> dict:
        rho = rho0
        for kind, payload in _timeline(unit.schedule(scale)):
            if kind == "kick":
                rho = sys.kick(rho, payload.beta)
            elif payload.duration > 0.0:
                on = gamma if payload.g != 0.0 else 0.0
                rho = sys.segment(rho, payload.g, payload.eta, on, payload.duration)
        return {key: float(np.trace(op @ rho).real) for key, op in sys.ops.items()}

    values = expect(0.0)
    values["slope"] = _drive_slope(lambda s: expect(s)["jy"], unit.schedule(1.0))
    return values


def _dense_blocks(spec, delta, n_cut, nbar):
    """Reference exact propagation at finite drive: dense complex eigh of every
    block Hamiltonian -delta n + c x + eta y and of y, all N+1 Jz blocks
    propagated on one uniform cutoff.  Returns ``blocks_at(scale)``, the
    blocks B_m e_n of the unit-drive schedule at that drive scale, shape
    (N+1, n_cut+1, ensemble length)."""
    n_ions = spec.n_ions
    n_comp = len(ThermalEnsemble.from_nbar(nbar).weights)
    levels = np.arange(n_cut + 1, dtype=float)
    a = np.diag(np.sqrt(levels[1:]), 1)
    x_b, y_b = a + a.T, 1.0j * (a.T - a)
    m = np.arange(n_ions + 1) - n_ions / 2.0
    unit = spec.variant.unit_drive()
    y_lam, y_vec = np.linalg.eigh(y_b)
    eigs = {}

    def eig(coupling: float, eta: float) -> tuple:
        if (coupling, eta) not in eigs:
            ham = np.diag(-delta * levels) + coupling * x_b + eta * y_b
            eigs[coupling, eta] = np.linalg.eigh(ham)
        return eigs[coupling, eta]

    def blocks_at(scale: float) -> np.ndarray:
        blocks = np.zeros((n_ions + 1, n_cut + 1, n_comp), dtype=complex)
        blocks[:] = np.eye(n_cut + 1)[:, :n_comp]
        for kind, ev in _timeline(unit.schedule(scale)):
            if kind == "kick":
                kick = (y_vec * np.exp(-1.0j * ev.beta * y_lam)) @ y_vec.conj().T
                blocks = kick @ blocks
                continue
            for i, m_i in enumerate(m):
                lam, vec = eig(ev.g * m_i / math.sqrt(n_ions), ev.eta)
                phases = np.exp(-1.0j * lam * ev.duration)[:, None]
                blocks[i] = vec @ (phases * (vec.conj().T @ blocks[i]))
        return blocks

    return blocks_at


def _dense_exact(spec, delta, n_cut, nbar) -> dict:
    """Reference exact oracle on ``_dense_blocks``: jx, jy_sq, jpm_sym at zero
    drive and the Richardson drive slope of <Jy> at finite drive."""
    n_ions = spec.n_ions
    weights = ThermalEnsemble.from_nbar(nbar).weights
    m = np.arange(n_ions + 1) - n_ions / 2.0
    j = n_ions / 2.0
    jp = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    jx, jy = 0.5 * (jp + jp.T), (jp - jp.T) / 2.0j
    ops = {"jx": jx, "jy": jy, "jy_sq": jy @ jy, "jpm_sym": 0.5 * (jp @ jp.T + jp.T @ jp)}
    css = np.sqrt([math.comb(n_ions, k) for k in range(n_ions + 1)]) / 2.0 ** (n_ions / 2.0)
    blocks_at = _dense_blocks(spec, delta, n_cut, nbar)

    def expect(scale: float) -> dict:
        scaled = blocks_at(scale) * np.sqrt(weights)
        overlap = np.einsum("akn,bkn->ab", scaled.conj(), scaled)
        return {key: float((css @ (op * overlap) @ css).real) for key, op in ops.items()}

    values = expect(0.0)
    values["slope"] = _drive_slope(lambda s: expect(s)["jy"], spec.variant.unit_drive().schedule())
    return values


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

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -0.5])
    def test_bad_nbar_rejected(self, nbar):
        with pytest.raises(ConfigError):
            ThermalEnsemble.from_nbar(nbar)
        # a NaN nbar used to end in a bare ValueError, a negative one passed
        with pytest.raises(ConfigError, match="nbar"):
            ThermalEnsemble(weights=np.array([1.0]), nbar=nbar, tail_mass=0.0)

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigError):
            ThermalEnsemble(weights=np.array([0.5, 0.4]), nbar=0.3, tail_mass=0.0)
        with pytest.raises(ConfigError):
            ThermalEnsemble(weights=np.array([1.0]), nbar=0.0, tail_mass=1e-9)

    @pytest.mark.parametrize(
        "weights",
        [[1.5, -0.5], [math.nan], [math.inf, -math.inf], [], [[0.5, 0.5]]],
        ids=["negative", "nan", "inf", "empty", "2d"],
    )
    def test_bad_weight_values_rejected(self, weights):
        # [1.5, -0.5] and [nan] used to fail later as a norm drift, with a
        # sqrt warning on the way
        with pytest.raises(ConfigError, match="weights"):
            ThermalEnsemble(weights=np.array(weights), nbar=0.0, tail_mass=0.0)

    @pytest.mark.parametrize("tail_tol", [0.0, -1.0, math.nan, 1e-6])
    def test_bad_tail_tol_rejected(self, tail_tol):
        # 0 and -1 used to raise a bare math domain error, NaN a conversion
        # error, and 1e-6 a ConfigError about the tail, not the argument
        with pytest.raises(ConfigError, match="tail_tol"):
            ThermalEnsemble.from_nbar(1.0, tail_tol)

    @pytest.mark.parametrize("tail_mass", [math.nan, math.inf, -1e-12])
    def test_bad_tail_mass_rejected(self, tail_mass):
        # a NaN tail used to pass, and the run returned numbers
        with pytest.raises(ConfigError, match="tail"):
            ThermalEnsemble(weights=np.array([1.0]), nbar=0.0, tail_mass=tail_mass)


class TestExactEvolution:
    def test_perfect_echo(self):
        tau = 1.0 / G
        det = evolve_exact_detail(ProtocolSpec(Displacement(G, tau, 0.0), 2), 0.0)
        assert det.jy_sq == pytest.approx(0.5, abs=1e-10)
        assert det.jx == pytest.approx(1.0, abs=1e-10)

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
        # initial oscillator state: <Jy> = -(N/2) sin(2 g tau beta / sqrt(N)),
        # whose slope at beta = 0 is -sqrt(N) g tau for every Fock state
        tau, n_ions = 2e-4, 4
        spec = ProtocolSpec(Displacement(G, tau, 0.0), n_ions)
        slopes = []
        for n0 in (0, 1, 2, 5):
            weights = np.zeros(n0 + 1)
            weights[n0] = 1.0
            ens = ThermalEnsemble(weights=weights, nbar=float(n0), tail_mass=0.0)
            slopes.append(evolve_exact_detail(spec, 0.0, initial=ens).slope)
        expected = -math.sqrt(n_ions) * G * tau
        assert max(slopes) - min(slopes) < 1e-9
        for slope in slopes:
            assert slope == pytest.approx(expected, rel=1e-10)

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
            evolve_exact_detail(spec, 0.2 * G, n_cut=4)

    def test_tangent_leakage_abort(self):
        # at n_cut 68 B keeps 4.7e-11 in its top two levels, under the gate;
        # the tangent dB, one generator step wider, holds 3.2e-10 of its norm
        spec = ProtocolSpec(Displacement(G, 1.0 / G, 0.0), 12)
        ens = ThermalEnsemble.from_nbar(1.0)
        delta = 0.1 * G
        run = _ExactRun(spec, delta, 68, ens, 1e-10)
        run.propagate(_timeline(spec.schedule(0.0)))
        assert run.worst_leak < 1e-10
        with pytest.raises(NumericalError, match="leakage"):
            evolve_exact_detail(spec, delta, n_cut=68, initial=ens)

    def test_ion_cap(self):
        with pytest.raises(ConfigError):
            evolve_exact_detail(ProtocolSpec(Displacement(G, 1e-4, 0.0), 13), 0.0)

    @pytest.mark.parametrize("leak_tol", [math.nan, 0.0, -1e-10])
    def test_bad_leak_tol_rejected(self, leak_tol):
        # leak_tol=nan used to switch the gate off: this run leaks 0.10 at
        # n_cut 40 and returned moments, where leak_tol=1e-10 aborts it
        spec = ProtocolSpec(Displacement(G, 1.0 / G, 0.0), 12)
        ens = ThermalEnsemble.from_nbar(1.0)
        with pytest.raises(NumericalError, match="leakage"):
            evolve_exact_detail(spec, 0.1 * G, n_cut=40, initial=ens)
        with pytest.raises(ConfigError, match="leak_tol"):
            evolve_exact_detail(spec, 0.1 * G, n_cut=40, initial=ens, leak_tol=leak_tol)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, delta):
        # a NaN detuning used to return all-NaN moments past the norm gate
        with pytest.raises(ConfigError):
            evolve_exact_detail(ProtocolSpec(Displacement(G, 1.0 / G, 0.0), 2), delta)

    def test_non_integral_cutoff_rejected(self):
        spec = ProtocolSpec(Displacement(G, 1.0 / G, 0.0), 2)
        with pytest.raises(ConfigError):
            evolve_exact_detail(spec, 0.1 * G, n_cut=40.5)
        assert evolve_exact_detail(spec, 0.1 * G, n_cut=40.0).n_cut == 40


PROTOCOLS = ["displacement", "readout", "classical_efield", "quantum_efield"]


def _protocol(name: str, rng: np.random.Generator):
    """A named protocol at g*tau and T/tau drawn from ``rng``."""
    tau = rng.uniform(0.3, 0.6) / G
    T = rng.uniform(2.2, 3.5) * tau
    variants = {
        "displacement": Displacement(G, tau, 0.0),
        "readout": ReadoutOnly(G, tau, 0.0),
        "classical_efield": ClassicalEField(G, tau, T, 0.0),
        "quantum_efield": QuantumEField(G, tau, T, 0.0),
    }
    return variants[name]


class TestStructuredCore:
    """The gauged tridiagonal, parity-paired core against the dense one."""

    @pytest.mark.parametrize("n_ions", [2, 3, 5, 8])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_matches_dense_reference(self, protocol, n_ions):
        variant = _protocol(protocol, np.random.default_rng([PROTOCOLS.index(protocol), n_ions]))
        spec = ProtocolSpec(variant, n_ions)
        for nbar in (0.0, 0.7):
            ens = ThermalEnsemble.from_nbar(nbar)
            for delta in (0.0, 0.13 * G):
                default = evolve_exact_detail(spec, delta, initial=ens)
                zero_drive = variant.unit_drive().schedule(0.0)
                cutoffs = default_fock_cutoff(zero_drive, delta, n_ions, ens)
                assert np.array_equal(_ExactRun(spec, delta, None, ens, 1e-10).cutoffs, cutoffs)
                n_cut = int(cutoffs.max())
                assert default.n_cut == n_cut
                explicit = evolve_exact_detail(spec, delta, n_cut=n_cut + 3, initial=ens)
                assert explicit.n_cut == n_cut + 3
                for det in (default, explicit):
                    ref = _dense_exact(spec, delta, det.n_cut, nbar)
                    assert det.jx == pytest.approx(ref["jx"], rel=1e-12)
                    assert det.jy_sq == pytest.approx(ref["jy_sq"], rel=1e-12)
                    assert det.jpm_sym == pytest.approx(ref["jpm_sym"], rel=1e-12)
                    assert det.slope == pytest.approx(ref["slope"], rel=1e-10)

    @pytest.mark.parametrize("n_ions", [2, 5, 8, 12])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_block_cutoffs_match_uniform(self, protocol, n_ions):
        # per-block default cutoffs against one uniform cutoff twice the largest
        variant = _protocol(protocol, np.random.default_rng([5, PROTOCOLS.index(protocol), n_ions]))
        spec = ProtocolSpec(variant, n_ions)
        by_excursion = np.argsort(np.abs(np.arange(n_ions + 1) - n_ions / 2.0), kind="stable")
        for nbar in (0.0, 1.0, 2.0):
            ens = ThermalEnsemble.from_nbar(nbar)
            for delta in (0.0, 0.13 * G):
                cutoffs = _ExactRun(spec, delta, None, ens, 1e-10).cutoffs
                assert np.all(np.diff(cutoffs[by_excursion]) >= 0)
                assert np.array_equal(cutoffs, cutoffs[::-1])
                default = evolve_exact_detail(spec, delta, initial=ens)
                assert default.n_cut == cutoffs.max()
                wide = evolve_exact_detail(spec, delta, n_cut=2 * default.n_cut, initial=ens)
                assert default.jx == pytest.approx(wide.jx, rel=1e-12)
                assert default.jy_sq == pytest.approx(wide.jy_sq, rel=1e-12)
                assert default.jpm_sym == pytest.approx(wide.jpm_sym, rel=1e-12)
                assert default.slope == pytest.approx(wide.slope, rel=1e-10)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_parity_mirror(self, protocol):
        # the m >= 0 half of the zero-drive run, unfolded by parity
        # (B_{-m} = P B_m diag((-1)^n), dB_{-m} = -P dB_m diag((-1)^n)),
        # against all N+1 blocks propagated densely at finite drive
        variant = _protocol(protocol, np.random.default_rng(7))
        spec = ProtocolSpec(variant, 5)
        ens = ThermalEnsemble.from_nbar(0.7)
        delta = 0.13 * G
        n_cut = _ExactRun(spec, delta, None, ens, 1e-10).n_cut
        run = _ExactRun(spec, delta, n_cut, ens, 1e-10)
        unit = variant.unit_drive().schedule()
        blocks = run.unfold(run.propagate(_timeline(unit)))
        n = run.n_comp
        blocks_at = _dense_blocks(spec, delta, n_cut, 0.7)
        assert np.max(np.abs(blocks[:, :, :n] - blocks_at(0.0))) <= 1e-13
        # the tangent dB/ds against a Richardson difference of the dense blocks
        tangent = blocks[:, :, n:]
        assert np.max(np.abs(tangent[: len(tangent) // 2])) > 0.0
        ref = _drive_slope(blocks_at, unit)
        assert np.max(np.abs(tangent - ref)) <= 1e-9 * np.max(np.abs(tangent))

    @pytest.mark.parametrize("nbar", [0.0, 1.0])
    @pytest.mark.parametrize("n_ions", [3, 8, 12])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_tangent_slope_matches_finite_drive(self, protocol, n_ions, nbar):
        # the tangent slope against the Richardson slope of _dense_exact,
        # which propagates dense kicks and eta != 0 eigenpairs at finite drive
        variant = _protocol(protocol, np.random.default_rng([11, PROTOCOLS.index(protocol)]))
        ens = ThermalEnsemble.from_nbar(nbar)
        delta = 0.11 * G
        spec = ProtocolSpec(variant, n_ions)
        det = evolve_exact_detail(spec, delta, initial=ens)
        ref = _dense_exact(spec, delta, det.n_cut, nbar)
        assert det.slope == pytest.approx(ref["slope"], rel=1e-9)

    def test_tangent_slope_custom_schedule(self):
        # two kicks and three driven segments: the tangent accumulates over
        # kicks and Duhamel terms that meet a nonzero incoming tangent
        tau = 0.4 / G
        schedule = PulseSchedule(
            segments=(Segment(tau, G, 300.0), Segment(tau, 0.0, -200.0), Segment(tau, -G, 500.0)),
            kicks=(Kick(0.5 * tau, 0.02), Kick(2.0 * tau, -0.03)),
        )
        ens = ThermalEnsemble.from_nbar(0.5)
        delta = 0.11 * G
        det = evolve_exact_detail(ProtocolSpec(Custom(schedule), 4), delta, initial=ens)
        ref = _dense_exact(ProtocolSpec(Custom(schedule), 4), delta, det.n_cut, 0.5)
        assert det.slope == pytest.approx(ref["slope"], rel=1e-9)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_even_in_detuning(self, protocol):
        # at zero drive H_m(-delta) = -P H_m(delta) P, so every moment and the
        # slope are even in delta, and the default cutoffs are too
        variant = _protocol(protocol, np.random.default_rng([13, PROTOCOLS.index(protocol)]))
        ens = ThermalEnsemble.from_nbar(0.7)
        for n_ions in (2, 3, 4, 5):
            spec = ProtocolSpec(variant, n_ions)
            plus, minus = (evolve_exact_detail(spec, d, initial=ens) for d in (0.13 * G, -0.13 * G))
            assert plus.n_cut == minus.n_cut
            for key in ("jx", "jy_sq", "jpm_sym", "slope"):
                assert getattr(minus, key) == pytest.approx(getattr(plus, key), rel=1e-13)


def _old_fock_cutoff(schedule, delta, n_ions, ensemble):
    """The a-priori rule the tail-shaped first estimate replaced: thermal
    band plus alpha^2 + 4 alpha sqrt(n_ens + 1) + 24, with a floor."""
    n_ens = len(ensemble.weights)
    reach = _max_h_amplitude(schedule, delta) / math.sqrt(n_ions)
    alpha = reach * np.abs(np.arange(n_ions + 1) - n_ions / 2.0)
    margin = np.ceil(alpha**2 + 4.0 * alpha * math.sqrt(n_ens + 1.0) + 24.0)
    floor = np.ceil(8.0 * (ensemble.nbar + 1.0) + alpha**2 + 20.0)
    return np.maximum(n_ens - 1 + margin, floor).astype(int)


class TestFockSizing:
    """The first-estimate cutoffs, and their growth on a leakage abort."""

    @staticmethod
    def counting_propagations(monkeypatch) -> list:
        """Record the block cutoffs of every propagation, regrowths included."""
        sizes = []
        propagate = _ExactRun.propagate

        def counted(run, events):
            sizes.append(run.cutoffs.copy())
            return propagate(run, events)

        monkeypatch.setattr(_ExactRun, "propagate", counted)
        return sizes

    def test_broad_draws_match_old_rule(self, monkeypatch):
        rng = np.random.default_rng(31)
        sizes = self.counting_propagations(monkeypatch)
        for i in range(20):
            protocol = PROTOCOLS[i % 4]
            tau = rng.uniform(0.2, 1.5) / G
            variant = {
                "displacement": Displacement(G, tau, 0.0),
                "readout": ReadoutOnly(G, tau, 0.0),
                "classical_efield": ClassicalEField(G, tau, rng.uniform(2.01, 4.0) * tau, 0.0),
                "quantum_efield": QuantumEField(G, tau, rng.uniform(2.01, 4.0) * tau, 0.0),
            }[protocol]
            n_ions = int(rng.integers(2, 13))
            spec = ProtocolSpec(variant, n_ions)
            ens = ThermalEnsemble.from_nbar(float(rng.uniform(0.0, 5.0)))
            delta = float(rng.uniform(-0.5, 0.5)) * G
            sizes.clear()
            new = evolve_exact_detail(spec, delta, initial=ens)
            # one propagation: the first estimate passed the gate, no growth
            assert len(sizes) == 1
            run = _ExactRun(spec, delta, None, ens, 1e-10)
            old_cutoffs = _old_fock_cutoff(spec.schedule(0.0), delta, n_ions, ens)
            assert np.all(run.cutoffs <= old_cutoffs)
            run.resize(old_cutoffs)
            old = run.moments(run.unfold(run.propagate(_timeline(variant.unit_drive().schedule()))))
            for key in ("jx", "jy_sq", "jpm_sym"):
                assert abs(getattr(new, key) - old[key]) <= 1e-10 * n_ions / 2.0
            assert new.slope == pytest.approx(old["slope"], rel=1e-10)

    def test_growth_on_abort(self, monkeypatch):
        # a gate at 1e-20 aborts the first estimate, which leaks 1.7e-15 in
        # this long readout pulse; one growth by 1.25 leaks 2.3e-24
        spec = ProtocolSpec(ReadoutOnly(G, 3.0 / G, 0.0), 11)
        delta = 0.28 * G
        first = _ExactRun(spec, delta, None, None, 1e-10).cutoffs
        sizes = self.counting_propagations(monkeypatch)
        grown = evolve_exact_detail(spec, delta, leak_tol=1e-20)
        assert len(sizes) == 2
        assert np.array_equal(sizes[0], first)
        assert np.array_equal(sizes[1], np.ceil(1.25 * first).astype(int))
        assert grown.n_cut == sizes[1].max()
        assert grown.leakage <= 1e-20
        wide = evolve_exact_detail(spec, delta, n_cut=2 * grown.n_cut)
        assert grown.jx == pytest.approx(wide.jx, rel=1e-12)
        assert grown.jy_sq == pytest.approx(wide.jy_sq, rel=1e-12)
        assert grown.jpm_sym == pytest.approx(wide.jpm_sym, rel=1e-12)
        assert grown.slope == pytest.approx(wide.slope, rel=1e-10)

    def test_growth_limit_and_explicit_cutoff(self, monkeypatch):
        spec = ProtocolSpec(Displacement(G, 1.0 / G, 0.0), 4)
        ens = ThermalEnsemble.from_nbar(0.5)
        sizes = self.counting_propagations(monkeypatch)
        # no cutoff passes a gate at 1e-300: three growths, then the abort
        with pytest.raises(NumericalError, match="leakage"):
            evolve_exact_detail(spec, 0.1 * G, initial=ens, leak_tol=1e-300)
        assert len(sizes) == 4
        assert np.all(sizes[3] > sizes[0])
        sizes.clear()
        with pytest.raises(NumericalError, match="leakage"):
            evolve_exact_detail(spec, 0.1 * G, n_cut=60, initial=ens, leak_tol=1e-300)
        assert len(sizes) == 1


G_E = 2 * math.pi * 3880.0

# the four named protocols with their closed-form kernels at unit drive
DAMPED_PROTOCOLS = [
    pytest.param(
        Displacement(G, 1.0 / G, 0.0),
        lambda d: kernels_displacement(G, 1.0 / G, d),
        id="displacement",
    ),
    pytest.param(
        ReadoutOnly(G, 1.0 / G, 0.0),
        lambda d: kernels_readout(G, 1.0 / G, d),
        id="readout",
    ),
    pytest.param(
        ClassicalEField(G_E, 0.8 / G_E, 2.4 / G_E, 0.0),
        lambda d: kernels_classical_efield(G_E, 0.8 / G_E, 2.4 / G_E, d),
        id="classical_efield",
    ),
    pytest.param(
        QuantumEField(G_E, 0.6 / G_E, 1.8 / G_E, 0.0),
        lambda d: kernels_quantum_efield(G_E, 0.6 / G_E, 1.8 / G_E, d),
        id="quantum_efield",
    ),
]


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

    @pytest.mark.parametrize("nbar", [0.0, 0.5])
    @pytest.mark.parametrize("n_ions", [2, 3])
    @pytest.mark.parametrize("variant,kernels", DAMPED_PROTOCOLS)
    def test_matches_damped_closed_forms(self, variant, kernels, n_ions, nbar):
        gamma = 0.25 / variant.tau
        delta = 0.1 * variant.g
        lb = evolve_lindblad_detail(
            ProtocolSpec(variant, n_ions), delta, nbar=nbar, gamma=gamma
        )
        mom = moments_at_detuning(
            kernels(delta), n_ions, NoiseModel(nbar=nbar, gamma=gamma)
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
        pred = damped_by_dephasing(ex, 2, gamma, 2 * self.TAU)
        assert lb.jx == pytest.approx(pred.jx, rel=1e-6)
        assert lb.jy_sq == pytest.approx(pred.jy_sq, rel=1e-6)
        assert lb.slope == pytest.approx(pred.slope, rel=1e-6)

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

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(ConfigError):
            evolve_lindblad_detail(self.SPEC, self.DELTA, gamma=gamma)

    def test_ion_cap(self):
        with pytest.raises(ConfigError):
            evolve_lindblad_detail(
                ProtocolSpec(Displacement(G, 1e-4, 0.0), 13), 0.0, gamma=100.0
            )

    def test_ensemble_longer_than_fock_space(self):
        # nbar = 0.3 keeps 16 Fock levels; n_cut = 8 has room for 9
        with pytest.raises(ConfigError):
            evolve_lindblad_detail(
                ProtocolSpec(Displacement(G, 1e-4, 0.0), 2), 0.0, n_cut=8, nbar=0.3
            )

    @pytest.mark.parametrize(
        "variant,n_ions,nbar,delta,gamma,n_cut",
        [
            pytest.param(
                Displacement(G, 0.5 / G, 0.0), 3, 0.1, 0.15 * G, 0.8 * G, 12,
                id="displacement-N3-thermal",
            ),
            pytest.param(
                QuantumEField(G_E, 0.6 / G_E, 1.8 / G_E, 0.0), 2, 0.1, 0.1 * G_E,
                0.25 * G_E / 0.6, 12, id="quantum_efield-N2-thermal",
            ),
            pytest.param(
                ClassicalEField(G_E, 0.8 / G_E, 2.4 / G_E, 0.0), 3, 0.0, 0.1 * G_E,
                0.3 * G_E / 0.8, 12, id="classical_efield-N3",
            ),
            pytest.param(
                Displacement(G, 0.5 / G, 0.0), 4, 0.0, 0.15 * G, 0.8 * G, 6,
                id="displacement-N4",
            ),
        ],
    )
    def test_matches_rk45_integration(self, variant, n_ions, nbar, delta, gamma, n_cut):
        spec = ProtocolSpec(variant, n_ions)
        lb = evolve_lindblad_detail(spec, delta, n_cut=n_cut, nbar=nbar, gamma=gamma)
        ref = _rk45_lindblad(spec, delta, n_cut, nbar, gamma)
        assert lb.jx == pytest.approx(ref["jx"], rel=1e-8)
        assert lb.jy_sq == pytest.approx(ref["jy_sq"], rel=1e-8)
        assert lb.jpm_sym == pytest.approx(ref["jpm_sym"], rel=1e-8)
        assert lb.slope == pytest.approx(ref["slope"], rel=1e-6)
