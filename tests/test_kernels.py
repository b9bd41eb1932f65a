import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosense.core import (
    ClassicalEField,
    ConfigError,
    Displacement,
    NumericalError,
    Kick,
    ProtocolSpec,
    PulseSchedule,
    QuantumEField,
    ReadoutOnly,
    Segment,
)
from echosense.kernels import (
    SERIES_THRESHOLD,
    ZERO_DETUNING,
    kernels_classical_efield,
    kernels_generic,
    kernels_quantum_efield,
)
from reference_kernels import kernels_displacement, kernels_readout

G = 2 * math.pi * 3910.0
TAU = 200e-6
EPS = np.finfo(float).eps


def assert_kernels_close(ka, kb, rel=1e-9, scale_hint=1.0):
    for field in ("hsq", "p", "q"):
        a, b = getattr(ka, field), getattr(kb, field)
        floor = rel * scale_hint
        assert abs(a - b) <= rel * max(abs(a), abs(b)) + floor, (
            f"{field}: {a} vs {b}"
        )
    assert ka.odf_on_time == pytest.approx(kb.odf_on_time, rel=1e-12)


class TestDisplacementKernels:
    def test_zero_detuning_limits(self):
        k = kernels_displacement(G, TAU, 0.0, beta=0.5)
        assert k.q == pytest.approx(-0.5 * G * TAU, rel=1e-12)
        assert k.hsq == 0.0
        assert k.p == 0.0
        assert k.odf_on_time == pytest.approx(2 * TAU)

    def test_delta_tau_pi(self):
        delta = math.pi / TAU
        k = kernels_displacement(G, TAU, delta, beta=0.5)
        assert k.q == pytest.approx(0.0, abs=1e-9 * G * TAU)
        assert k.hsq == pytest.approx(16 * G**2 / delta**2, rel=1e-12)

    @pytest.mark.parametrize("dt", [0.01, 0.5, 2.0])
    def test_matches_generic(self, dt):
        delta = dt / TAU
        spec = ProtocolSpec(Displacement(G, TAU, 0.7), 150)
        assert_kernels_close(
            kernels_displacement(G, TAU, delta, beta=0.7),
            kernels_generic(spec.schedule(), delta),
            scale_hint=(G * TAU) ** 2 * 1e-3,
        )

    def test_reference_point_matches_generic(self):
        # tau = 200 us at g/(2*pi) = 3.91 kHz, i.e. g*tau = 4.91, delta = 0.05 g
        delta = 0.05 * G
        spec = ProtocolSpec(Displacement(G, TAU, 1.0), 150)
        assert_kernels_close(
            kernels_displacement(G, TAU, delta),
            kernels_generic(spec.schedule(), delta),
            scale_hint=(G * TAU) ** 2 * 1e-3,
        )


class TestReadoutKernels:
    def test_zero_detuning(self):
        k = kernels_readout(G, TAU, 0.0, beta=0.3)
        assert k.hsq == pytest.approx(G**2 * TAU**2, rel=1e-12)
        assert k.p == 0.0
        assert k.q == pytest.approx(-0.3 * G * TAU, rel=1e-12)
        assert k.odf_on_time == pytest.approx(TAU)

    def test_no_kick_no_signal(self):
        assert kernels_readout(G, TAU, 0.1 * G, beta=0.0).q == 0.0

    def test_matches_generic(self):
        delta = 0.2 * G
        tau = 1.0 / G
        spec = ProtocolSpec(ReadoutOnly(G, tau, 0.3), 150)
        assert_kernels_close(
            kernels_readout(G, tau, delta, beta=0.3),
            kernels_generic(spec.schedule(), delta),
            scale_hint=1e-3,
        )


class TestClassicalKernels:
    T = 538e-6

    def test_zero_detuning(self):
        tau = 150e-6
        k = kernels_classical_efield(G, tau, self.T, 0.0, eta=2.0)
        assert k.q == pytest.approx(-2.0 * G * tau * (2 * self.T - tau) / 2, rel=1e-12)
        assert k.odf_on_time == pytest.approx(tau)

    def test_full_window(self):
        k = kernels_classical_efield(G, self.T, self.T, 0.0, eta=1.0)
        assert k.q == pytest.approx(-G * self.T**2 / 2, rel=1e-12)

    def test_matches_generic(self):
        tau = 150e-6
        delta = 0.1 / self.T
        spec = ProtocolSpec(ClassicalEField(G, tau, self.T, 2.0), 150)
        assert_kernels_close(
            kernels_classical_efield(G, tau, self.T, delta, eta=2.0),
            kernels_generic(spec.schedule(), delta),
            scale_hint=(G * self.T) ** 2 * 1e-3,
        )

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            kernels_classical_efield(G, 2 * self.T, self.T, 0.0)

    def test_series_overflow_is_numerical_error(self):
        # tau^3 in the small-detuning series overflows at a finite tau
        with pytest.raises(NumericalError, match="tau\\^3 overflows"):
            kernels_classical_efield(G, 1e103, 1e104, np.array([0.0, 1e-60]))


class TestQuantumKernels:
    T = 538e-6

    def test_zero_detuning(self):
        tau = 150e-6
        k = kernels_quantum_efield(G, tau, self.T, 0.0, eta=3.0)
        assert k.q == pytest.approx(-3.0 * G * tau * (self.T - tau), rel=1e-12)
        assert k.hsq == 0.0
        assert k.odf_on_time == pytest.approx(2 * tau)

    def test_echo_node(self):
        tau = self.T / 2
        delta = 2 * math.pi / (self.T - tau)
        k = kernels_quantum_efield(G, tau, self.T, delta)
        assert k.hsq == pytest.approx(0.0, abs=1e-18 * G**2 * self.T**2)

    def test_matches_generic(self):
        g = 2 * math.pi * 3880.0
        tau = 200e-6
        delta = 2 * math.pi * 40.0
        spec = ProtocolSpec(QuantumEField(g, tau, self.T, 2.0), 150)
        assert_kernels_close(
            kernels_quantum_efield(g, tau, self.T, delta, eta=2.0),
            kernels_generic(spec.schedule(), delta),
            scale_hint=(g * self.T) ** 2 * 1e-3,
        )

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            kernels_quantum_efield(G, 0.6 * self.T, self.T, 0.0)

    def test_series_overflow_is_numerical_error(self):
        # tau^7 in the small-detuning series overflows at a finite tau
        with pytest.raises(NumericalError, match="series coefficients"):
            kernels_quantum_efield(G, 1e50, 3e50, np.array([0.0, 1e-60]))


class TestGenericSchedules:
    def test_all_zero_schedule(self):
        sched = PulseSchedule(segments=(Segment(1e-4), Segment(2e-4)))
        k = kernels_generic(sched, 123.0)
        assert k.hsq == 0.0
        assert k.p == 0.0
        assert k.q == 0.0
        assert k.odf_on_time == 0.0

    def test_single_segment_zero_detuning(self):
        sched = PulseSchedule(segments=(Segment(TAU, G),))
        k = kernels_generic(sched, 0.0)
        assert k.hsq == pytest.approx((G * TAU) ** 2, rel=1e-12)
        assert k.p == pytest.approx(0.0, abs=1e-12)

    def test_mid_segment_kick(self):
        # a kick inside a segment must match the same schedule with the
        # segment split at the kick time
        sched_a = PulseSchedule(segments=(Segment(TAU, G),), kicks=(Kick(TAU / 3, 0.4),))
        sched_b = PulseSchedule(
            segments=(Segment(TAU / 3, G), Segment(2 * TAU / 3, G)),
            kicks=(Kick(TAU / 3, 0.4),),
        )
        delta = 0.3 * G
        assert_kernels_close(
            kernels_generic(sched_a, delta), kernels_generic(sched_b, delta),
            scale_hint=1e-3,
        )


class TestKernelProperties:
    RNG_CASES = 25  # per specialized operation: 100 random cross-checks total

    def _draw(self, rng):
        g = 2 * math.pi * rng.uniform(1e3, 6e3)
        tau = rng.uniform(30e-6, 500e-6)
        delta = rng.uniform(-3.0, 3.0) / tau
        return g, tau, delta

    def test_displacement_random_cross_checks(self):
        rng = np.random.default_rng(11)
        for _ in range(self.RNG_CASES):
            g, tau, delta = self._draw(rng)
            beta = rng.uniform(-1, 1)
            spec = ProtocolSpec(Displacement(g, tau, beta), 10)
            assert_kernels_close(
                kernels_displacement(g, tau, delta, beta=beta),
                kernels_generic(spec.schedule(), delta),
                scale_hint=(g * tau) ** 2 * 1e-3,
            )

    def test_readout_random_cross_checks(self):
        rng = np.random.default_rng(12)
        for _ in range(self.RNG_CASES):
            g, tau, delta = self._draw(rng)
            beta = rng.uniform(-1, 1)
            spec = ProtocolSpec(ReadoutOnly(g, tau, beta), 10)
            assert_kernels_close(
                kernels_readout(g, tau, delta, beta=beta),
                kernels_generic(spec.schedule(), delta),
                scale_hint=(g * tau) ** 2 * 1e-3,
            )

    def test_classical_random_cross_checks(self):
        rng = np.random.default_rng(13)
        for _ in range(self.RNG_CASES):
            g, tau, delta = self._draw(rng)
            T = tau * rng.uniform(1.0, 5.0)
            eta = rng.uniform(-10, 10)
            spec = ProtocolSpec(ClassicalEField(g, tau, T, eta), 10)
            assert_kernels_close(
                kernels_classical_efield(g, tau, T, delta, eta=eta),
                kernels_generic(spec.schedule(), delta),
                scale_hint=(g * T) ** 2 * 1e-3,
            )

    def test_quantum_random_cross_checks(self):
        rng = np.random.default_rng(14)
        for _ in range(self.RNG_CASES):
            g, tau, delta = self._draw(rng)
            T = tau * rng.uniform(2.0, 6.0)
            eta = rng.uniform(-10, 10)
            spec = ProtocolSpec(QuantumEField(g, tau, T, eta), 10)
            assert_kernels_close(
                kernels_quantum_efield(g, tau, T, delta, eta=eta),
                kernels_generic(spec.schedule(), delta),
                scale_hint=(g * T) ** 2 * 1e-3,
            )

    def test_series_branch_continuity(self):
        # p switches to its series at the threshold; p is linear in delta to
        # leading order, so p/delta evaluated just below (series) and just
        # above (direct) the switch must agree
        def p_over_delta(fn, delta):
            return fn(delta).p / delta

        cases = [
            (lambda d: kernels_displacement(G, TAU, d), SERIES_THRESHOLD / TAU),
            (lambda d: kernels_readout(G, TAU, d), SERIES_THRESHOLD / TAU),
            (
                lambda d: kernels_classical_efield(G, TAU, 3 * TAU, d),
                SERIES_THRESHOLD / TAU,
            ),
            (
                lambda d: kernels_quantum_efield(G, TAU, 3 * TAU, d),
                SERIES_THRESHOLD / (3 * TAU),
            ),
        ]
        for fn, switch in cases:
            below = p_over_delta(fn, switch * (1 - 1e-9))
            above = p_over_delta(fn, switch * (1 + 1e-9))
            assert below == pytest.approx(above, rel=1e-9)

    def test_parity_in_detuning(self):
        delta = 0.37 / TAU
        for fn in (
            lambda d: kernels_displacement(G, TAU, d, beta=0.4),
            lambda d: kernels_readout(G, TAU, d, beta=0.4),
            lambda d: kernels_classical_efield(G, TAU, 3 * TAU, d, eta=2.0),
            lambda d: kernels_quantum_efield(G, TAU, 3 * TAU, d, eta=2.0),
        ):
            plus, minus = fn(delta), fn(-delta)
            assert plus.hsq == pytest.approx(minus.hsq, rel=1e-12)
            assert plus.p == pytest.approx(-minus.p, rel=1e-12)
            assert plus.q == pytest.approx(minus.q, rel=1e-12)

    def test_scaling_laws(self):
        delta = 0.8 / TAU
        base = kernels_displacement(G, TAU, delta, beta=0.5)
        doubled_g = kernels_displacement(2 * G, TAU, delta, beta=0.5)
        assert doubled_g.hsq == pytest.approx(4 * base.hsq, rel=1e-12)
        assert doubled_g.p == pytest.approx(4 * base.p, rel=1e-12)
        assert doubled_g.q == pytest.approx(2 * base.q, rel=1e-12)
        doubled_beta = kernels_displacement(G, TAU, delta, beta=1.0)
        assert doubled_beta.q == pytest.approx(2 * base.q, rel=1e-12)
        ke = kernels_classical_efield(G, TAU, 3 * TAU, delta, eta=1.0)
        ke2 = kernels_classical_efield(G, TAU, 3 * TAU, delta, eta=3.0)
        assert ke2.q == pytest.approx(3 * ke.q, rel=1e-12)

    def test_far_detuned_cross_check(self):
        # many oscillation periods across each segment: the generic pairwise
        # sums must stay exact where sinc and the phase factors oscillate fast
        delta = 40.0 / TAU
        spec = ProtocolSpec(Displacement(G, TAU, 0.5), 10)
        assert_kernels_close(
            kernels_displacement(G, TAU, delta, beta=0.5),
            kernels_generic(spec.schedule(), delta),
            scale_hint=(G * TAU) ** 2 * 1e-3,
        )

    def test_vectorized_matches_scalar(self):
        deltas = np.linspace(-2.0 / TAU, 2.0 / TAU, 9)
        vec = kernels_displacement(G, TAU, deltas, beta=0.3)
        for i, d in enumerate(deltas):
            one = kernels_displacement(G, TAU, float(d), beta=0.3)
            assert vec.p[i] == pytest.approx(one.p, rel=1e-14, abs=1e-300)
            assert vec.q[i] == pytest.approx(one.q, rel=1e-14, abs=1e-300)
            assert vec.hsq[i] == pytest.approx(one.hsq, rel=1e-14, abs=1e-300)


# ---------------------------------------------------------------------------
# generic engine: independent high-precision reference and properties
# ---------------------------------------------------------------------------


NAMED = {
    "displacement": (kernels_displacement, 1.0, False),
    "readout": (kernels_readout, 1.0, False),
    "classical_efield": (kernels_classical_efield, 1.0, True),
    "quantum_efield": (kernels_quantum_efield, 0.5, True),
}


class TestTauAxis:
    T = 1e-3

    def call(self, name, tau, delta):
        fn, _, takes_T = NAMED[name]
        return fn(G, tau, self.T, delta) if takes_T else fn(G, tau, delta)

    @pytest.mark.parametrize("name", list(NAMED))
    def test_rows_are_scalar_calls_bitwise(self, name):
        cap = NAMED[name][1] * self.T
        rng = np.random.default_rng(len(name))
        taus = np.sort(rng.uniform(1e-3, 1.0, 64)) * cap
        # detunings on both sides of the p series switch, for every protocol
        deltas = np.concatenate(([0.0], [-1.0, 1.0] * rng.uniform(0.1, 2.0, 2), rng.uniform(-6e3, 6e3, 8)))
        grid = self.call(name, taus[:, None], deltas)
        assert grid.p.shape == (64, len(deltas))
        for i, tau in enumerate(taus):
            one = self.call(name, float(tau), deltas)
            for field in ("hsq", "p", "q"):
                assert getattr(grid, field)[i].tobytes() == getattr(one, field).tobytes()
            assert grid.odf_on_time[i, 0] == one.odf_on_time

    @pytest.mark.parametrize("name", ["classical_efield", "quantum_efield"])
    def test_T_column_rows_are_scalar_calls_bitwise(self, name):
        fn, cap, _ = NAMED[name]
        rng = np.random.default_rng(len(name) + 1)
        Ts = rng.uniform(0.2e-3, 2e-3, 48)
        taus = rng.uniform(1e-3, 1.0, 48) * cap * Ts
        # the quantum p series switches on |delta| T, so these straddle it per row
        deltas = np.concatenate(([0.0, -2.0, 2.0, 5.0], rng.uniform(-6e3, 6e3, 8)))
        grid = fn(G, taus[:, None], Ts[:, None], deltas)
        assert grid.p.shape == (48, len(deltas))
        for i, (tau, T) in enumerate(zip(taus.tolist(), Ts.tolist())):
            one = fn(G, tau, T, deltas)
            for field in ("hsq", "p", "q"):
                assert getattr(grid, field)[i].tobytes() == getattr(one, field).tobytes()
            assert grid.odf_on_time[i, 0] == one.odf_on_time
        # the second row's tau is above its own T's cap
        taus, Ts = np.full((2, 1), 0.5 * cap * 1e-3), np.array([[1e-3], [0.4e-3]])
        with pytest.raises(ConfigError):
            fn(G, taus, Ts, 100.0)

    @pytest.mark.parametrize("name", list(NAMED))
    def test_checks_cover_the_whole_axis(self, name):
        cap = NAMED[name][1] * self.T
        with pytest.raises(ConfigError):
            self.call(name, np.array([[0.5 * cap], [0.0]]), 100.0)
        if NAMED[name][2]:
            with pytest.raises(ConfigError):
                self.call(name, np.array([[0.5 * cap], [1.01 * cap]]), 100.0)

    @pytest.mark.parametrize("name", list(NAMED))
    def test_tiny_detuning_is_the_zero_limit(self, name):
        # 1/delta^2 overflowed below ~1e-154 rad/s and gave inf or nan kernels
        cap = NAMED[name][1] * self.T
        zero = self.call(name, 0.5 * cap, 0.0)
        for delta in (1e-310, 1e-160, 0.5 * ZERO_DETUNING):
            tiny = self.call(name, 0.5 * cap, delta)
            assert (tiny.hsq, tiny.q) == (zero.hsq, zero.q)
            assert abs(tiny.p) <= G**2 * self.T**3 * ZERO_DETUNING  # p keeps its series


def mp_kernels(schedule, delta):
    """(|h|^2, p, q) of the defining integrals at 30 digits, and their condition.

    h and the inner integrals of g and eta come from the antiderivative of
    exp(-i delta u); p = -int g Im[exp(i delta s) h(s)] ds and
    q = int g(s) K(s) ds, with K the drive accumulated up to s (segments
    plus kicks), go through mp.quad on each segment, split at the kicks.
    The condition of each kernel is the sum of the magnitudes of its
    per-segment parts over the magnitude of the whole (doubled for |h|^2):
    where parts cancel, double precision loses that factor.
    """
    with mp.workdps(30):
        d = mp.mpf(delta)

        def window(a, b):  # integral_a^b exp(-i d u) du
            return b - a if d == 0 else mp.expj(-d * a) * mp.expm1(-1j * d * (b - a)) / (-1j * d)

        h = e = mp.mpc(0)  # integrals of g and eta times exp(-i d u) up to a
        a = p = q = mp.mpf(0)
        parts = [mp.mpf(0)] * 3  # sum of |part| for h, p, q
        for seg in schedule.segments:
            b = a + seg.duration
            g, eta = mp.mpf(seg.g), mp.mpf(seg.eta)

            def integrand(s, a=a, h=h, e=e, g=g, eta=eta):
                turn = mp.expj(d * s)
                drive = mp.re(turn * (e + eta * window(a, s))) + mp.fsum(
                    k.beta * mp.cos(d * (s - k.time)) for k in schedule.kicks if k.time < s
                )
                return mp.mpc(-g * mp.im(turn * (h + g * window(a, s))), g * drive)

            h_part = g * window(a, b)
            if g != 0 and b > a:
                cuts = sorted({a, b} | {mp.mpf(k.time) for k in schedule.kicks if a < k.time < b})
                value, err = mp.quad(integrand, cuts, method="gauss-legendre", error=True)
                assert err <= mp.mpf(10) ** -24 * (1 + abs(value))
                p += value.real
                q += value.imag
                parts[0] += abs(h_part)
                parts[1] += abs(value.real)
                parts[2] += abs(value.imag)
            h += h_part
            e += eta * window(a, b)
            a = b
        whole = (abs(h), abs(p), abs(q))
        cond = [float(s / w) if w else math.inf for s, w in zip(parts, whole)]
        cond[0] *= 2.0
        return (float(abs(h) ** 2), float(p), float(q)), cond


def scales(schedule):
    """(gT)^2 for |h|^2 and p, gT times the total drive for q."""
    gT = sum(abs(seg.g) * seg.duration for seg in schedule.segments)
    drive = sum(abs(seg.eta) * seg.duration for seg in schedule.segments)
    drive += sum(abs(k.beta) for k in schedule.kicks)
    return gT**2, gT**2, gT * drive


def values(k):
    return k.hsq, k.p, k.q


def assert_values_close(got, want, scale, rel, floor):
    for name, a, b, s in zip(("hsq", "p", "q"), got, want, scale):
        assert abs(a - b) <= rel * max(abs(a), abs(b)) + floor * s, f"{name}: {a} vs {b}"


class TestGenericEngine:
    # delta * T_total from 0 through 1e2, a decade apart
    DELTA_T = [0.0] + [10.0**e for e in range(-8, 3)]

    def _schedule(self, rng):
        n = int(rng.integers(2, 7))
        gs = [0.0 if rng.random() < 0.3 else G * rng.uniform(-1.5, 1.5) for _ in range(n)]
        gs[int(rng.integers(n))] = G  # at least one coupled segment
        segments = [
            Segment(rng.uniform(20e-6, 400e-6), g, rng.uniform(-10.0, 10.0)) for g in gs
        ]
        total = sum(seg.duration for seg in segments)
        return PulseSchedule(segments, (Kick(rng.uniform(0.0, total), rng.uniform(-1, 1)),))

    def test_matches_mpmath_reference(self):
        # absolute: 1e-14 of the natural scale everywhere; relative: 1e-12
        # wherever the value is at least 1e-6 of that scale, unless the value
        # is ill-conditioned: a small remainder of cancelling parts (cond) or
        # of phases delta*t that one rounding of delta already moves, so that
        # no double-precision evaluation can do better than eps*(1+dT)*cond
        rng = np.random.default_rng(21)
        for _ in range(4):
            sched = self._schedule(rng)
            T = sched.total_duration
            scale = scales(sched)
            vec = kernels_generic(sched, np.array(self.DELTA_T) / T)
            for i, x in enumerate(self.DELTA_T):
                want, cond = mp_kernels(sched, x / T)
                got = (vec.hsq[i], vec.p[i], vec.q[i])
                for name, a, b, s, c in zip(("hsq", "p", "q"), got, want, scale, cond):
                    err = abs(a - b)
                    assert err <= 1e-14 * s, f"{name} at delta*T={x}: {a} vs {b}"
                    if abs(b) >= 1e-6 * s:
                        rel = max(1e-12, 8 * EPS * (1 + x) * c)
                        assert err <= rel * abs(b), f"{name} at delta*T={x}: {a} vs {b}"

    def test_zero_detuning_is_exact(self):
        sched = PulseSchedule(
            segments=(Segment(1e-4, G, 2.0), Segment(2e-4, 0.0, 3.0), Segment(1e-4, -G, 2.0)),
            kicks=(Kick(1.5e-4, 0.5),),
        )
        k = kernels_generic(sched, 0.0)
        assert k.hsq == 0.0
        assert k.p == 0.0
        # q = sum_k g_k [eta_k L_k^2/2 + L_k sum_{j<k} eta_j L_j] + beta g W
        want = G * 2.0 * 1e-4**2 / 2 - G * (2.0 * 1e-4**2 / 2 + 1e-4 * (2e-4 + 6e-4))
        want += -0.5 * G * 1e-4
        assert k.q == pytest.approx(want, rel=1e-14)


def signed(lo, hi):
    """Magnitudes in [lo, hi] of either sign."""
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(lambda t: t[0] * t[1])


DURATIONS = st.floats(1e-6, 5e-4)
COUPLINGS = st.one_of(st.just(0.0), signed(0.01 * G, 2.0 * G))
DRIVES = st.one_of(st.just(0.0), signed(0.01, 10.0))


@st.composite
def schedules(draw):
    segments = draw(
        st.lists(st.builds(Segment, DURATIONS, COUPLINGS, DRIVES), min_size=1, max_size=6)
    )
    total = sum(seg.duration for seg in segments)
    fractions = draw(st.lists(st.floats(0.0, 0.999), max_size=2))
    kicks = [Kick(f * total, draw(signed(0.01, 1.0))) for f in fractions]
    return PulseSchedule(segments, kicks)


DELTA_T = st.floats(-30.0, 30.0)
FLOOR = 1e-14


class TestGenericProperties:
    # derandomized so that the suite is deterministic
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(schedules(), DELTA_T, st.data())
    def test_cutting_a_segment_changes_nothing(self, sched, x, data):
        i = data.draw(st.integers(0, len(sched.segments) - 1))
        frac = data.draw(st.floats(0.01, 0.99))
        seg = sched.segments[i]
        first = frac * seg.duration
        pieces = (Segment(first, seg.g, seg.eta), Segment(seg.duration - first, seg.g, seg.eta))
        cut = PulseSchedule(sched.segments[:i] + pieces + sched.segments[i + 1:], sched.kicks)
        delta = x / sched.total_duration
        whole, parts = kernels_generic(sched, delta), kernels_generic(cut, delta)
        assert_values_close(values(parts), values(whole), scales(sched), 1e-12, FLOOR)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(schedules(), DELTA_T)
    def test_parity_in_detuning(self, sched, x):
        delta = x / sched.total_duration
        plus, minus = kernels_generic(sched, delta), kernels_generic(sched, -delta)
        assert_values_close(
            (minus.hsq, -minus.p, minus.q), values(plus), scales(sched), 1e-14, FLOOR
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(schedules(), DELTA_T, st.one_of(st.just(0.0), signed(1e-3, 5.0)))
    def test_q_linear_in_drive(self, sched, x, factor):
        delta = x / sched.total_duration
        base = kernels_generic(sched, delta)
        scaled = kernels_generic(sched.scaled_drive(factor), delta)
        assert scaled.hsq == base.hsq
        assert scaled.p == base.p
        q_scale = scales(sched)[2]
        assert abs(scaled.q - factor * base.q) <= 1e-13 * abs(factor) * (abs(base.q) + q_scale)
        # superposition: the continuous drive and the kicks add
        drive_only = PulseSchedule(sched.segments, ())
        kicks_only = PulseSchedule(
            [Segment(seg.duration, seg.g) for seg in sched.segments], sched.kicks
        )
        parts = kernels_generic(drive_only, delta).q + kernels_generic(kicks_only, delta).q
        assert abs(parts - base.q) <= 1e-13 * (abs(base.q) + q_scale)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(schedules(), st.lists(DELTA_T, min_size=1, max_size=8))
    def test_array_matches_scalar(self, sched, xs):
        deltas = np.array(xs) / sched.total_duration
        vec = kernels_generic(sched, deltas)
        assert vec.p.shape == deltas.shape
        for i, d in enumerate(deltas):
            one = kernels_generic(sched, float(d))
            assert isinstance(one.p, float) and isinstance(one.hsq, float)
            assert_values_close(
                (vec.hsq[i], vec.p[i], vec.q[i]), values(one), scales(sched), 1e-14, FLOOR
            )


@st.composite
def batches(draw):
    """1-4 schedules of one layout, and detunings, 0 among them.

    The layout fixes the number of segments (1-4) and of kicks (0-2) and
    which segments have g = 0 or eta = 0; each schedule draws its own
    durations (0 included), couplings and kicks, at t = 0, on a segment
    boundary or inside a segment.
    """
    # listed first, the richer choices are the ones draws shrink towards
    n_seg = draw(st.sampled_from((4, 3, 2, 1)))
    on = st.lists(st.sampled_from((True, False)), min_size=n_seg, max_size=n_seg)
    coupled, driven = draw(on), draw(on)
    n_kick = draw(st.sampled_from((2, 1, 0)))
    schedules = []
    for _ in range(draw(st.sampled_from((3, 4, 2, 1)))):
        durations = [draw(st.one_of(DURATIONS, st.just(0.0))) for _ in range(n_seg)]
        segments = [
            Segment(L, draw(signed(0.01 * G, 2.0 * G)) if g_on else 0.0,
                    draw(signed(0.01, 10.0)) if eta_on else 0.0)
            for L, g_on, eta_on in zip(durations, coupled, driven)
        ]
        edges = list(itertools.accumulate(durations, initial=0.0))
        kicks = []
        for _ in range(n_kick):
            where = draw(st.sampled_from(("start", "boundary", "inside")))
            if where == "start":
                t = 0.0
            elif where == "boundary":
                t = draw(st.sampled_from(edges))
            else:
                i = draw(st.integers(0, n_seg - 1))
                t = edges[i] + draw(st.floats(0.01, 0.99)) * durations[i]
            kicks.append(Kick(t, draw(signed(0.01, 1.0))))
        schedules.append(PulseSchedule(segments, kicks))
    total = max(s.total_duration for s in schedules) or 1.0
    deltas = np.array([0.0] + draw(st.lists(DELTA_T, min_size=4, max_size=8))) / total
    return schedules, deltas


class TestBatchedEngine:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(batches())
    def test_rows_are_single_calls_bitwise(self, batch):
        schedules, deltas = batch
        got = kernels_generic(schedules, deltas)
        last = float(deltas[-1])
        at_last = kernels_generic(schedules, last)
        assert got.p.shape == (len(schedules), len(deltas))
        assert at_last.p.shape == (len(schedules),)
        for i, sched in enumerate(schedules):
            one = kernels_generic(sched, deltas)
            for field in ("hsq", "p", "q"):
                assert getattr(got, field)[i].tobytes() == getattr(one, field).tobytes()
            assert got.odf_on_time[i, 0] == one.odf_on_time
            scalar = kernels_generic(sched, last)
            assert (at_last.hsq[i], at_last.p[i], at_last.q[i]) == (scalar.hsq, scalar.p, scalar.q)

    @pytest.mark.parametrize(
        "second",
        [
            PulseSchedule((Segment(TAU, G),)),  # fewer segments
            PulseSchedule((Segment(TAU, G), Segment(TAU, -G))),  # no kick
            PulseSchedule((Segment(TAU, G), Segment(TAU, 0.0)), (Kick(TAU, 1.0),)),  # g = 0
        ],
    )
    def test_layouts_must_match(self, second):
        first = Displacement(G, TAU, 1.0).schedule()
        with pytest.raises(ConfigError):
            kernels_generic([first, second], 0.1 * G)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            kernels_generic([], 0.1 * G)
