"""Brute-force spin-boson simulator used as ground truth for the closed forms.

The Hamiltonian evolved here is, per detuning delta,

    H = -delta a^dag a + (g(t)/sqrt(N)) (a + a^dag) Jz + i eta(t) (a^dag - a),

acting on (collective-spin ladder) x (truncated Fock space).  The collective
sector suffices for Hamiltonian evolution because the initial state is
permutation symmetric and every coupling is collective, so ``evolve_exact``
works on the (N+1)-dimensional ladder; per Jz eigenvalue the boson factor is a
driven oscillator, evolved by exponentiating the truncated block Hamiltonian
(Hermitian eigendecomposition, no Trotterization).  Kicks apply the
displacement unitary exp(beta (a^dag - a)).

``evolve_lindblad`` solves the master equation with single-spin dephasing
jumps sigma_z^i at rate Gamma/4 while the spin-dependent drive is on.  It
needs neither an ODE solver nor the 2^N spin product space.  In the product
basis the Hamiltonian is block-diagonal, and the dephasing term multiplies the
block rho_ss' by exp(-Gamma hamming(s, s') t_odf / 2), t_odf being the time
during which g != 0.  The initial product state along x has amplitudes that
depend only on m; one-body collective operators connect states at Hamming
distance 1, two-body ones states at distance 0 or 2.  So every moment is the
Hamiltonian oracle's value with a fixed factor per distance
(``damped_by_dephasing``), valid for the same N <= 12.  The tests check it
against an independent RK45 integration of the full master equation for
N = 2 to 4.

Signal slopes are central finite differences in the drive amplitude with one
step of Richardson extrapolation (step 1e-4 for kicks, 1e-4/duration for
continuous drives), evaluated around the zero-amplitude working point.

Hamiltonian runs abort with NumericalError when the ensemble-component
population in the top two Fock levels exceeds ``leak_tol`` at any stage, or
when the norm of the zero-drive final state drifts by more than 1e-10;
Lindblad runs keep the norm check and skip the leakage one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ConfigError, NumericalError, ProtocolSpec, PulseSchedule, Segment
from .moments import SpinMoments

__all__ = [
    "ThermalEnsemble",
    "DickeBosonState",
    "OracleMoments",
    "LindbladMoments",
    "default_fock_cutoff",
    "evolve_exact",
    "evolve_exact_detail",
    "driven_moments",
    "final_state",
    "evolve_lindblad",
    "evolve_lindblad_detail",
    "damped_by_dephasing",
]

MAX_HAMILTONIAN_IONS = 12
FD_STEP = 1e-4


@dataclass(frozen=True)
class ThermalEnsemble:
    """Geometric (thermal) mixture over initial Fock states, renormalized.

    ``weights[n]`` is the probability of starting in |n>; the discarded tail
    mass before renormalization must stay below ``tail_tol``.
    """

    weights: np.ndarray
    nbar: float
    tail_mass: float

    @classmethod
    def from_nbar(cls, nbar: float, tail_tol: float = 1e-10) -> "ThermalEnsemble":
        if nbar < 0.0:
            raise ConfigError("nbar must be >= 0")
        if nbar == 0.0:
            return cls(weights=np.array([1.0]), nbar=0.0, tail_mass=0.0)
        ratio = nbar / (nbar + 1.0)
        # keep n = 0..n_keep-1 with tail ratio**n_keep < tail_tol
        n_keep = max(1, math.ceil(math.log(tail_tol) / math.log(ratio)))
        n = np.arange(n_keep)
        w = (1.0 / (nbar + 1.0)) * ratio**n
        tail = ratio**n_keep
        if tail >= tail_tol:
            n_keep += 1
            n = np.arange(n_keep)
            w = (1.0 / (nbar + 1.0)) * ratio**n
            tail = ratio**n_keep
        return cls(weights=w / w.sum(), nbar=nbar, tail_mass=tail)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ConfigError("ensemble weights must sum to 1")
        if self.tail_mass >= 1e-10:
            raise ConfigError("ensemble truncation tail exceeds 1e-10")


@dataclass(frozen=True)
class DickeBosonState:
    """Pure state on (spin ladder) x (Fock), amplitudes indexed [m, n]."""

    amplitudes: np.ndarray
    n_ions: int

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    @property
    def top_level_population(self) -> float:
        """Population in the top two Fock levels (truncation leakage proxy)."""
        return float(np.sum(np.abs(self.amplitudes[:, -2:]) ** 2))


class _SpinMomentsView:
    """``as_spin_moments`` of the oracle records, which carry jx, jy, jy_sq and slope."""

    def as_spin_moments(self) -> SpinMoments:
        return SpinMoments(
            jy_mean=self.jy,
            jy_sq=self.jy_sq,
            slope=self.slope,
            jx_mean=self.jx,
            in_domain=True,
        )


@dataclass(frozen=True)
class OracleMoments(_SpinMomentsView):
    """Exact-evolution moments plus the raw transverse pieces used in diagnostics."""

    jx: float
    jy: float
    jy_sq: float
    slope: float
    jplus: complex
    jplus_sq: complex
    jpm_sym: float
    norm_error: float
    leakage: float
    n_cut: int


@dataclass(frozen=True)
class LindbladMoments(_SpinMomentsView):
    jx: float
    jy: float
    jy_sq: float
    slope: float
    jpm_sym: float
    trace_error: float
    n_cut: int


# ---------------------------------------------------------------------------
# operators and sizing
# ---------------------------------------------------------------------------


def _ladder_ops(n_ions: int) -> dict:
    j = n_ions / 2.0
    m = np.arange(n_ions + 1) - j
    jp = np.zeros((n_ions + 1, n_ions + 1))
    for k in range(n_ions):
        jp[k + 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.T.copy()
    jx = 0.5 * (jp + jm)
    jy = (jp - jm) / 2.0j
    return {
        "m": m,
        "jp": jp,
        "jm": jm,
        "jx": jx,
        "jy": jy,
        "jy2": jy @ jy,
        "jp2": jp @ jp,
        "jpm_sym": 0.5 * (jp @ jm + jm @ jp),
    }


def _css_amplitudes(n_ions: int) -> np.ndarray:
    c = np.array([math.comb(n_ions, k) for k in range(n_ions + 1)], dtype=float)
    return np.sqrt(c) / 2.0 ** (n_ions / 2.0)


def _max_h_amplitude(schedule: PulseSchedule, delta: float, samples: int = 64) -> float:
    """max_t |h(t)| sampled along the schedule (exact within segments up to sampling)."""
    h = 0.0 + 0.0j
    t0 = 0.0
    hmax = 0.0
    for seg in schedule.segments:
        if seg.duration == 0.0:
            continue
        ts = np.linspace(0.0, seg.duration, samples + 1)[1:]
        if delta == 0.0:
            vals = h + seg.g * ts
        else:
            x = delta * ts
            one_minus = 2.0 * np.sin(x / 2.0) ** 2 + 1.0j * np.sin(x)
            vals = h + seg.g * np.exp(-1.0j * delta * t0) * one_minus / (1.0j * delta)
        hmax = max(hmax, float(np.max(np.abs(vals))))
        h = vals[-1]
        t0 += seg.duration
    return hmax


def default_fock_cutoff(
    schedule: PulseSchedule,
    delta: float,
    n_ions: int,
    ensemble: ThermalEnsemble,
) -> int:
    """Fock cutoff: thermal band, worst-block coherent excursion, and tail margin.

    The most-displaced spin block reaches |alpha| = (sqrt(N)/2) max_t|h(t)|;
    continuous drives and kicks add their integrated amplitude.  The margin
    keeps the top-two-level population of a displaced Fock state at the top
    of the thermal band far below 1e-10 (verified post hoc by the leakage
    assertion).
    """
    n_ens = len(ensemble.weights)
    alpha = (math.sqrt(n_ions) / 2.0) * _max_h_amplitude(schedule, delta)
    alpha += sum(abs(seg.eta) * seg.duration for seg in schedule.segments)
    alpha += sum(abs(k.beta) for k in schedule.kicks)
    margin = math.ceil(4.0 * alpha**2 + 8.0 * alpha * math.sqrt(n_ens + 1.0) + 24.0)
    floor = math.ceil(8.0 * (ensemble.nbar + 1.0) + 4.0 * alpha**2 + 20.0)
    return max(n_ens - 1 + margin, floor)


def _timeline(schedule: PulseSchedule) -> list[tuple[str, object]]:
    """Ordered ("segment"|"kick", payload) events; kicks at a boundary apply
    before the segment starting there, interior kicks split their segment."""
    kicks = sorted(enumerate(schedule.kicks), key=lambda ik: ik[1].time)
    used: set[int] = set()
    events: list[tuple[str, object]] = []
    t0 = 0.0
    for seg in schedule.segments:
        t1 = t0 + seg.duration
        for i, kick in kicks:
            if i not in used and kick.time <= t0:
                events.append(("kick", kick))
                used.add(i)
        cursor = t0
        for i, kick in kicks:
            if i not in used and t0 < kick.time < t1:
                events.append(("segment", Segment(kick.time - cursor, seg.g, seg.eta)))
                events.append(("kick", kick))
                used.add(i)
                cursor = kick.time
        events.append(("segment", Segment(t1 - cursor, seg.g, seg.eta)))
        t0 = t1
    for i, kick in kicks:
        if i not in used:
            events.append(("kick", kick))
            used.add(i)
    return events


def _drive_slope(jy_at: Callable[[float], float], unit_schedule: PulseSchedule) -> float:
    """d<Jy>/d(drive amplitude) at zero drive from ``jy_at(drive_scale)``.

    Central differences at steps h and h/2 combined by one Richardson step;
    h = FD_STEP, divided by the schedule duration for continuous drives.
    """
    step = FD_STEP
    if any(seg.eta != 0.0 for seg in unit_schedule.segments):
        step = FD_STEP / unit_schedule.total_duration
    d1 = (jy_at(step) - jy_at(-step)) / (2.0 * step)
    d2 = (jy_at(step / 2.0) - jy_at(-step / 2.0)) / step
    return (4.0 * d2 - d1) / 3.0


# ---------------------------------------------------------------------------
# Hamiltonian (collective-ladder) evolution
# ---------------------------------------------------------------------------


def _boson_ops(n_cut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fock numbers 0..n_cut, x = a + a^dag and the Hermitian y = i(a^dag - a)."""
    n = np.arange(n_cut + 1, dtype=float)
    a = np.diag(np.sqrt(n[1:]), 1)
    y = np.zeros((n_cut + 1, n_cut + 1), dtype=complex)
    y.imag = a.T - a
    return n, a + a.T, y


class _BlockCache:
    """Eigendecompositions of the per-block Hamiltonians, shared within a run."""

    def __init__(self, delta: float, n_cut: int):
        self.number, self.x_op, self.y_op = _boson_ops(n_cut)
        self.delta = delta
        self._eigs: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}
        self._kicks: dict[float, np.ndarray] = {}
        self._y_eig: Optional[tuple[np.ndarray, np.ndarray]] = None

    def block_eig(self, coupling: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
        key = (coupling, eta)
        if key not in self._eigs:
            ham = -self.delta * np.diag(self.number).astype(complex)
            ham += coupling * self.x_op
            if eta != 0.0:
                ham += eta * self.y_op
            lam, vec = np.linalg.eigh(ham)
            self._eigs[key] = (lam, vec)
        return self._eigs[key]

    def kick(self, beta: float) -> np.ndarray:
        if beta not in self._kicks:
            if self._y_eig is None:
                self._y_eig = np.linalg.eigh(self.y_op)
            lam, vec = self._y_eig
            self._kicks[beta] = (vec * np.exp(-1.0j * beta * lam)) @ vec.conj().T
        return self._kicks[beta]


class _ExactRun:
    """Validated setup shared by the exact-oracle entry points.

    Checks the ion cap; defaults the ensemble to the vacuum, the propagated
    boson columns e_0..e_{n_comp-1} to the ensemble length, and the Fock
    cutoff to ``default_fock_cutoff`` of ``sizing`` plus one level per column
    beyond the ensemble.  Holds the coherent spin state, the ladder operators
    and the block eigendecompositions.
    """

    def __init__(
        self,
        spec: ProtocolSpec,
        delta: float,
        sizing: PulseSchedule,
        n_cut: Optional[int],
        initial: Optional[ThermalEnsemble],
        leak_tol: float,
        n_comp: Optional[int] = None,
    ):
        n_ions = spec.n_ions
        if n_ions > MAX_HAMILTONIAN_IONS:
            raise ConfigError(f"exact oracle capped at N <= {MAX_HAMILTONIAN_IONS}")
        ensemble = initial if initial is not None else ThermalEnsemble.from_nbar(0.0)
        n_comp = n_comp if n_comp is not None else len(ensemble.weights)
        if n_cut is None:
            n_cut = default_fock_cutoff(sizing, delta, n_ions, ensemble)
            n_cut += n_comp - len(ensemble.weights)
        if n_comp > n_cut:
            raise ConfigError("initial Fock levels exceed the Fock cutoff")
        self.n_ions = n_ions
        self.weights = ensemble.weights
        self.n_cut = n_cut
        self.n_comp = n_comp
        self.leak_tol = leak_tol
        self.css = _css_amplitudes(n_ions)
        self.ops = _ladder_ops(n_ions)
        self.cache = _BlockCache(delta, n_cut)
        self.worst_leak = 0.0

    def propagate(self, schedule: PulseSchedule) -> np.ndarray:
        """Evolve the boson columns through the schedule for every Jz block.

        Returns B with shape (N+1, n_cut+1, n_comp).  Leakage is checked after
        every segment and kick, per ensemble component.
        """
        n_ions, cache = self.n_ions, self.cache
        m_values = np.arange(n_ions + 1) - n_ions / 2.0
        blocks = np.zeros((n_ions + 1, self.n_cut + 1, self.n_comp), dtype=complex)
        blocks[:] = np.eye(self.n_cut + 1, dtype=complex)[:, : self.n_comp]
        probs = np.abs(self.css) ** 2

        for kind_name, payload in _timeline(schedule):
            if kind_name == "segment":
                seg = payload
                if seg.duration == 0.0:
                    continue
                for a, m in enumerate(m_values):
                    lam, vec = cache.block_eig(seg.g * m / math.sqrt(n_ions), seg.eta)
                    phases = np.exp(-1.0j * lam * seg.duration)
                    blocks[a] = vec @ (phases[:, None] * (vec.conj().T @ blocks[a]))
            else:
                kick = payload
                if kick.beta == 0.0:
                    continue
                op = cache.kick(kick.beta)
                for a in range(n_ions + 1):
                    blocks[a] = op @ blocks[a]
            leak = np.einsum("a,akn->n", probs, np.abs(blocks[:, -2:, :]) ** 2)
            worst = float(np.max(leak))
            if worst > self.leak_tol:
                raise NumericalError(
                    f"Fock-truncation leakage {worst:.3e} exceeds {self.leak_tol:.1e}; "
                    "increase n_cut"
                )
            self.worst_leak = max(self.worst_leak, worst)
        return blocks

    def moments(self, schedule: PulseSchedule) -> dict:
        """Ensemble-averaged final-state moments of the schedule (needs
        ``n_comp`` equal to the ensemble length)."""
        css, ops = self.css, self.ops
        # ensemble-weighted overlaps sum_n w_n <B_a e_n, B_b e_n> of the Jz blocks
        scaled = self.propagate(schedule) * np.sqrt(self.weights)[None, None, :]
        overlap = np.einsum("akn,bkn->ab", scaled.conj(), scaled)

        def expect(op: np.ndarray) -> complex:
            return complex(css.conj() @ (op * overlap) @ css)

        return {
            "norm": expect(np.eye(len(css), dtype=complex)).real,
            "jx": expect(ops["jx"]).real,
            "jy": expect(ops["jy"]).real,
            "jy_sq": expect(ops["jy2"]).real,
            "jplus": expect(ops["jp"]),
            "jplus_sq": expect(ops["jp2"]),
            "jpm_sym": expect(ops["jpm_sym"]).real,
        }


def evolve_exact_detail(
    spec: ProtocolSpec,
    delta: float,
    n_cut: Optional[int] = None,
    initial: Optional[ThermalEnsemble] = None,
    leak_tol: float = 1e-10,
) -> OracleMoments:
    """Exact Hamiltonian evolution; returns moments, slope, and raw diagnostics."""
    unit = spec.variant.unit_drive()
    run = _ExactRun(spec, delta, unit.schedule(1.0), n_cut, initial, leak_tol)
    at_zero = run.moments(unit.schedule(0.0))
    norm_error = abs(at_zero["norm"] - 1.0)
    if norm_error > 1e-10:
        raise NumericalError(f"norm drift {norm_error:.3e} exceeds 1e-10")
    slope = _drive_slope(lambda s: run.moments(unit.schedule(s))["jy"], unit.schedule(1.0))

    return OracleMoments(
        jx=at_zero["jx"],
        jy=at_zero["jy"],
        jy_sq=at_zero["jy_sq"],
        slope=slope,
        jplus=at_zero["jplus"],
        jplus_sq=at_zero["jplus_sq"],
        jpm_sym=at_zero["jpm_sym"],
        norm_error=norm_error,
        leakage=run.worst_leak,
        n_cut=run.n_cut,
    )


def evolve_exact(
    spec: ProtocolSpec,
    delta: float,
    n_cut: Optional[int] = None,
    initial: Optional[ThermalEnsemble] = None,
    leak_tol: float = 1e-10,
) -> SpinMoments:
    """Exact spin moments (jx, jy, jy^2) and drive slope for a protocol at fixed detuning."""
    return evolve_exact_detail(spec, delta, n_cut, initial, leak_tol).as_spin_moments()


def driven_moments(
    spec: ProtocolSpec,
    delta: float,
    n_cut: Optional[int] = None,
    initial: Optional[ThermalEnsemble] = None,
    leak_tol: float = 1e-10,
) -> dict:
    """Final-state moments with the protocol's own drive amplitudes applied.

    Unlike ``evolve_exact`` (which evaluates the zero-drive working point and
    the first-order slope), this propagates the schedule exactly as given and
    returns {"jx", "jy", "jy_sq", "jplus", "jplus_sq", "jpm_sym", "norm"}.
    """
    schedule = spec.schedule(1.0)
    return _ExactRun(spec, delta, schedule, n_cut, initial, leak_tol).moments(schedule)


def final_state(
    spec: ProtocolSpec,
    delta: float,
    n_cut: Optional[int] = None,
    initial_fock: int = 0,
    leak_tol: float = 1e-10,
) -> DickeBosonState:
    """Final pure state for one initial Fock level, with the spec's own drive.

    amplitudes[m, k] is the coefficient of |m_z = m - N/2> x |k>.
    """
    schedule = spec.schedule(1.0)
    run = _ExactRun(spec, delta, schedule, n_cut, None, leak_tol, n_comp=initial_fock + 1)
    amplitudes = run.css[:, None] * run.propagate(schedule)[:, :, initial_fock]
    return DickeBosonState(amplitudes=amplitudes, n_ions=spec.n_ions)


# ---------------------------------------------------------------------------
# dephasing master equation
# ---------------------------------------------------------------------------


def damped_by_dephasing(
    detail: OracleMoments, n_ions: int, gamma: float, t_odf: float
) -> LindbladMoments:
    """Master-equation moments from a Gamma = 0 oracle result.

    Dephasing for ``t_odf`` damps the nth transverse moment by
    e^{-n Gamma t_odf/2}: jx, jy and the slope by e^{-Gamma t_odf/2}, the
    two-body parts of jy_sq and jpm_sym (all but N/4 and N/2) by
    e^{-Gamma t_odf}.  The trace error is the oracle's norm error.
    """
    n = float(n_ions)
    decay1 = math.exp(-gamma * t_odf / 2.0)
    decay2 = math.exp(-gamma * t_odf)
    return LindbladMoments(
        jx=detail.jx * decay1,
        jy=detail.jy * decay1,
        jy_sq=n / 4.0 + (detail.jy_sq - n / 4.0) * decay2,
        slope=detail.slope * decay1,
        jpm_sym=n / 2.0 + (detail.jpm_sym - n / 2.0) * decay2,
        trace_error=detail.norm_error,
        n_cut=detail.n_cut,
    )


def evolve_lindblad_detail(
    spec: ProtocolSpec,
    delta: float,
    n_cut: Optional[int] = None,
    nbar: float = 0.0,
    gamma: float = 0.0,
) -> LindbladMoments:
    """Master-equation evolution with sigma_z^i dephasing at rate gamma/4 while g != 0:
    the exact oracle from a thermal state, then ``damped_by_dephasing``."""
    # no leakage abort: valid jobs at an explicit n_cut reach ~1e-10
    exact = evolve_exact_detail(
        spec, delta, n_cut, ThermalEnsemble.from_nbar(nbar), leak_tol=math.inf
    )
    return damped_by_dephasing(exact, spec.n_ions, gamma, spec.schedule().odf_on_time)


def evolve_lindblad(
    spec: ProtocolSpec,
    delta: float,
    n_cut: Optional[int] = None,
    nbar: float = 0.0,
    gamma: float = 0.0,
) -> SpinMoments:
    """Master-equation spin moments and drive slope."""
    return evolve_lindblad_detail(spec, delta, n_cut, nbar, gamma).as_spin_moments()
