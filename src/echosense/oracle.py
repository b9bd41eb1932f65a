"""Brute-force spin-boson simulator used as ground truth for the closed forms.

The Hamiltonian evolved here is, per detuning delta,

    H = -delta a^dag a + (g(t)/sqrt(N)) (a + a^dag) Jz + i eta(t) (a^dag - a),

acting on (collective-spin ladder) x (truncated Fock space).  The collective
sector suffices for Hamiltonian evolution because the initial state is
permutation symmetric and every coupling is collective, so the exact oracle
works on the (N+1)-dimensional ladder; per Jz eigenvalue the boson factor is a
driven oscillator, evolved by exponentiating the truncated block Hamiltonian
(numerical eigendecomposition, no Trotterization).  That Hamiltonian is
tridiagonal in the Fock basis.  The oracle propagates only at zero drive,
where it is also real symmetric, so ``scipy.linalg.eigh_tridiagonal`` (MRRR)
solves it and the propagation runs in real matmuls; a real sign gauge lets
the blocks with couplings c and -c share one eigendecomposition.  Parity (-1)^n maps the +m block at drive scale s onto the
-m block at -s, so the run at zero drive propagates only the m >= 0 blocks.

Importing this module loads no scipy: ``scipy.linalg`` loads at the first
exact or Lindblad solve, inside ``_BlockCache.eig``.  ``cli`` imports
``calibration``, and with it ``scipy.optimize``, only when ``calibrate`` runs,
so ``import echosense.cli`` and every numpy-only command load no scipy.

``evolve_lindblad_detail`` solves the master equation with single-spin dephasing
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

The figure of merit <Jy^2> / (d<Jy>/ds)^2 needs the zero-drive moments and
the slope d<Jy>/ds in the drive scale s at s = 0 alone, so no finite drive is
ever propagated: the run carries the exact tangent dB/ds of every boson block
beside the block.  A kick adds beta (a^dag - a) B to it; a segment with a
drive eta adds the Frechet derivative of its exponential (Al-Mohy & Higham,
SIAM J. Matrix Anal. Appl. 30, 1639 (2009)), built from the zero-drive
eigenpairs.

Each Jz block has its own Fock cutoff, first estimated from its own coherent
excursion on the zero-drive schedule the run propagates
(``default_fock_cutoff``), and the blocks share one zero-padded array.
Hamiltonian runs gate the CSS-weighted population of the blocks' top two Fock
levels in each ensemble column of B and of its tangent dB, relative to the
column's norm, at ``leak_tol`` (> 0) after every stage: default cutoffs grow
by 1.25 up to three times, then the run aborts with NumericalError, as it
does at once for an explicit ``n_cut`` or when the norm of the zero-drive
final state drifts by more than 1e-10.  Lindblad runs keep the norm check only.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConfigError, NumericalError, ProtocolSpec, PulseSchedule, Segment

__all__ = [
    "ThermalEnsemble",
    "OracleMoments",
    "LindbladMoments",
    "default_fock_cutoff",
    "evolve_exact_detail",
    "evolve_lindblad_detail",
    "damped_by_dephasing",
]

MAX_HAMILTONIAN_IONS = 12
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class ThermalEnsemble:
    """Geometric (thermal) mixture over initial Fock states, renormalized.

    ``weights[n]`` is the probability of starting in |n>; the discarded tail
    mass before renormalization must stay below ``tail_tol``, which
    ``from_nbar`` takes in (0, 1e-10].
    """

    weights: np.ndarray
    nbar: float
    tail_mass: float

    @classmethod
    def from_nbar(cls, nbar: float, tail_tol: float = 1e-10) -> "ThermalEnsemble":
        if not 0.0 < tail_tol <= 1e-10:
            raise ConfigError(f"tail_tol must be in (0, 1e-10], not {tail_tol!r}")
        if not (math.isfinite(nbar) and nbar >= 0.0):
            raise ConfigError(f"nbar must be finite and >= 0, not {nbar!r}")
        if nbar == 0.0:
            return cls(weights=np.array([1.0]), nbar=0.0, tail_mass=0.0)
        ratio = nbar / (nbar + 1.0)
        # keep n = 0..n_keep-1 with tail ratio**n_keep < tail_tol
        n_keep = max(1, math.ceil(math.log(tail_tol) / math.log(ratio)))
        if ratio**n_keep >= tail_tol:
            n_keep += 1
        w = (1.0 / (nbar + 1.0)) * ratio ** np.arange(n_keep)
        return cls(weights=w / w.sum(), nbar=nbar, tail_mass=ratio**n_keep)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not (w.ndim == 1 and w.size and np.all(np.isfinite(w)) and np.all(w >= 0.0)):
            raise ConfigError(f"ensemble weights must be finite, >= 0 and non-empty, not {w!r}")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ConfigError("ensemble weights must sum to 1")
        if not (math.isfinite(self.nbar) and self.nbar >= 0.0):
            raise ConfigError(f"nbar must be finite and >= 0, not {self.nbar!r}")
        tail = self.tail_mass
        if not 0.0 <= tail < 1e-10:
            raise ConfigError(f"ensemble truncation tail must be in [0, 1e-10), not {tail!r}")


@dataclass(frozen=True)
class OracleMoments:
    """Exact-evolution moments at zero drive, the drive slope, and diagnostics:
    ``leakage`` is the worst gated top-two-level population (B and dB) and
    ``n_cut`` the largest block Fock cutoff of the run that passed the gate."""

    jx: float
    jy: float
    jy_sq: float
    slope: float
    jpm_sym: float
    norm_error: float
    leakage: float
    n_cut: int


@dataclass(frozen=True)
class LindbladMoments:
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


_MOMENTS = ("norm", "jx", "jy", "jy_sq", "jpm_sym")


@functools.cache
def _ladder_ops(n_ions: int) -> np.ndarray:
    """The operators of ``_MOMENTS`` on the Dicke ladder, stacked: 1, Jx, Jy,
    Jy^2 and (J+J- + J-J+)/2."""
    j = n_ions / 2.0
    m = np.arange(n_ions) - j
    jp = np.diag(np.sqrt(j * (j + 1) - m * (m + 1)), -1)
    jm = jp.T
    jy = (jp - jm) / 2.0j
    return np.array([np.eye(n_ions + 1), 0.5 * (jp + jm), jy, jy @ jy, 0.5 * (jp @ jm + jm @ jp)])


@functools.cache
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
) -> np.ndarray:
    """First estimate of the Fock cutoff of every Jz block m = -N/2..N/2 on a
    zero-drive schedule: the tail of a displaced number state.

    Block m reaches |alpha_m| = (|m|/sqrt(N)) max_t|h(t)|; the schedule's
    drives (eta, kick beta) are not counted, since the exact oracle
    propagates only at zero drive.  The cutoff K is
    ceil((sqrt(n_top) + alpha_m)^2 + 6.5 alpha_m + 16), n_top the ensemble's
    top Fock level.  For n <= 160 and alpha <= 14, D(alpha)|n> and its image
    under the drive generator (a^dag - a), which the tangent dB/ds adds, hold
    less than 1e-10 of their norm from level K - 1 up; n = 0 sets the 6.5 and
    the 16.  The leakage gates on B and dB verify every cutoff post hoc.
    """
    n_top = len(ensemble.weights) - 1
    reach = _max_h_amplitude(schedule, delta) / math.sqrt(n_ions)
    alpha = reach * np.abs(np.arange(n_ions + 1) - n_ions / 2.0)
    return np.ceil((math.sqrt(n_top) + alpha) ** 2 + 6.5 * alpha + 16.0).astype(int)


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


# ---------------------------------------------------------------------------
# Hamiltonian (collective-ladder) evolution
# ---------------------------------------------------------------------------


def _real_matmul(real: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``real @ z`` for a real matrix and C-contiguous complex columns, as one
    real matmul on the interleaved (re, im) view."""
    return (real @ z.view(float)).view(complex)


class _BlockCache:
    """Real eigenpairs of the gauged zero-drive block Hamiltonians, shared
    within a run.

    The block Hamiltonian -delta n + c x has the off-diagonal c sqrt(k).  With
    the real gauge D = diag(sign(c)^k) it is D T D, T real symmetric
    tridiagonal with diagonal -delta k and off-diagonal |c| sqrt(k), so the
    eigenpairs (lam, W) of T depend on |c| and the block's cutoff n alone and
    serve blocks of either sign of c alike, with eigenvectors V = D W.
    """

    def __init__(self, delta: float, n_cut: int):
        self.levels = np.arange(n_cut + 1)
        self.sqrt_k = np.sqrt(self.levels[1:].astype(float))
        self.delta = delta
        self._eigs: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}

    def eig(self, r: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of T on Fock levels 0..n."""
        if (r, n) not in self._eigs:
            # imported here, so that importing the package loads no scipy
            from scipy.linalg import eigh_tridiagonal

            self._eigs[r, n] = eigh_tridiagonal(-self.delta * self.levels[: n + 1],
                                                r * self.sqrt_k[:n])
        return self._eigs[r, n]

    def generator(self, x: np.ndarray) -> np.ndarray:
        """(a^dag - a) x along the Fock axis -2, truncated to its length: the
        kick generator, real and tridiagonal, applied as two shifts."""
        sqrt_k = self.sqrt_k[: x.shape[-2] - 1, None]
        out = np.zeros_like(x)
        out[..., 1:, :] = sqrt_k * x[..., :-1, :]
        out[..., :-1, :] -= sqrt_k * x[..., 1:, :]
        return out


class _ExactRun:
    """Validated setup and the zero-drive tangent run of the exact oracle.

    Checks the detuning, the Fock cutoff and the ion cap; defaults the
    ensemble to the vacuum and the Fock cutoffs to ``default_fock_cutoff`` of
    the zero-drive schedule ``spec.schedule(0.0)``, one per Jz block, which a
    leakage abort grows by 1.25 (``resize``), at most three times; an
    explicit ``n_cut`` gives every block the same one and never grows.
    Propagates the boson columns e_0..e_{n_comp-1}, n_comp the ensemble
    length, of the m >= 0 blocks only.  Block m lives on the leading
    cutoffs[m] + 1 rows of one array with n_cut + 1 rows, n_cut the largest
    cutoff; the rows beyond stay zero.  Holds the coherent spin state, the
    ladder operators and the block eigenpairs.

    Parity P = diag((-1)^n) maps x and y to -x and -y, so
    P H_m(s) P = H_{-m}(-s) at drive scale s.  The columns e_n are parity
    eigenstates, so at s = 0 B_{-m} = P B_m diag((-1)^n) exactly, and the
    tangents obey dB_{-m} = -P dB_m diag((-1)^n): ``unfold`` gives the -m
    blocks without propagating them (block -m has the cutoff of block m).
    """

    def __init__(
        self,
        spec: ProtocolSpec,
        delta: float,
        n_cut: Optional[int],
        initial: Optional[ThermalEnsemble],
        leak_tol: float,
    ):
        n_ions = spec.n_ions
        if n_ions > MAX_HAMILTONIAN_IONS:
            raise ConfigError(f"exact oracle capped at N <= {MAX_HAMILTONIAN_IONS}")
        if not math.isfinite(delta):
            raise ConfigError(f"detuning must be finite, not {delta!r}")
        if not leak_tol > 0.0:  # nan would switch the leakage gate off
            raise ConfigError(f"leak_tol must be > 0, not {leak_tol!r}")
        ensemble = initial if initial is not None else ThermalEnsemble.from_nbar(0.0)
        n_comp = len(ensemble.weights)
        if n_cut is None:
            cutoffs = default_fock_cutoff(spec.schedule(0.0), delta, n_ions, ensemble)
        elif not (isinstance(n_cut, numbers.Real) and float(n_cut).is_integer()):
            raise ConfigError(f"n_cut must be an integer, not {n_cut!r}")
        else:
            cutoffs = np.full(n_ions + 1, int(n_cut))
        if n_comp > cutoffs.min():
            raise ConfigError("initial Fock levels exceed the Fock cutoff")
        self.n_ions = n_ions
        self.delta = delta
        self.weights = ensemble.weights
        self.n_comp = n_comp
        self.leak_tol = leak_tol
        self.growths = 3 if n_cut is None else 0
        self.css = _css_amplitudes(n_ions)
        self.ops = _ladder_ops(n_ions)
        m_values = np.arange(n_ions + 1) - n_ions / 2.0
        self.half = np.flatnonzero(m_values >= 0.0)
        self.m_values = m_values[self.half]
        # the m >= 0 half stands for its mirror too, which leaks alike
        self.probs = (self.css[self.half] ** 2 + self.css[::-1][self.half] ** 2)[:, None]
        self.probs[self.m_values == 0.0] /= 2.0
        self.resize(cutoffs)

    def resize(self, cutoffs: np.ndarray) -> None:
        """Set the block Fock cutoffs and all sized by them; reset the leakage."""
        self.cutoffs = cutoffs
        self.n_cut = int(cutoffs.max())
        self.cuts = cutoffs[self.half].tolist()
        self.cache = _BlockCache(self.delta, self.n_cut)
        self.worst_leak = 0.0
        # the mask of each block's own Fock rows, shape (blocks, n_cut+1, 1), and
        # the gate weights, shape (2, blocks * (n_cut+1)): CSS weights on each
        # block's top two rows and on all its rows
        levels, top = self.cache.levels, cutoffs[self.half, None]
        inside = levels <= top
        self.inside = inside[:, :, None]
        self.gate = (np.array([(levels >= top - 1) & inside, inside]) * self.probs).reshape(2, -1)
        self.parity = parity = 1.0 - 2.0 * (levels % 2)
        # columns [B | dB]: the tangent columns flip sign under the mirror
        n_comp = self.n_comp
        self.parity_sign = np.outer(parity, np.concatenate([parity[:n_comp], -parity[:n_comp]]))

    def unfold(self, half: np.ndarray) -> np.ndarray:
        """All N+1 blocks [B | dB] from the m >= 0 half of the run."""
        n_neg = self.n_ions + 1 - len(half)
        return np.concatenate([half[::-1][:n_neg] * self.parity_sign, half])

    def _unit_blocks(self) -> np.ndarray:
        blocks = np.zeros((len(self.m_values), self.n_cut + 1, self.n_comp), dtype=complex)
        blocks[:] = np.eye(self.n_cut + 1)[:, : self.n_comp]
        return blocks

    def propagate(self, events: list[tuple[str, object]]) -> np.ndarray:
        """Evolve the unit boson columns e_0..e_{n_comp-1} of the m >= 0 blocks
        through ``_timeline`` events at drive scale s = 0, with their tangents:
        shape (blocks, n_cut+1, 2 n_comp), columns [B | dB], dB = dB/ds for
        every drive (kick beta, segment eta) scaled by s.  Leakage of B and dB
        is checked after every segment and kick, per ensemble column, and
        default cutoffs grow by 1.25 on an abort (``_ExactRun``).
        """
        n_comp = self.n_comp
        blocks = None
        for kind_name, event in events:
            if kind_name == "segment":
                if event.duration == 0.0:
                    continue
                blocks = self._segment(blocks, event)
            elif event.beta == 0.0:
                continue
            else:
                # d/ds exp(s beta (a^dag - a)) at s = 0, in each block's own
                # Fock space; B itself is unchanged
                blocks = self._unit_blocks() if blocks is None else blocks
                step = event.beta * self.cache.generator(blocks[..., :n_comp]) * self.inside
                if blocks.shape[2] == n_comp:
                    blocks = np.concatenate([blocks, step], axis=2)
                else:
                    blocks[..., n_comp:] += step
            # per column of [B | dB]: the CSS-weighted top-two-level population
            # relative to the column's norm, 0 for a tangent still all zero
            top, norm = self.gate @ (blocks * blocks.conj()).real.reshape(self.gate.shape[1], -1)
            worst = float((top / np.maximum(norm, _TINY)).max())
            if worst > self.leak_tol:
                if self.growths:  # default cutoffs grow and the run starts again
                    self.growths -= 1
                    self.resize(np.ceil(1.25 * self.cutoffs).astype(int))
                    return self.propagate(events)
                raise NumericalError(
                    f"Fock-truncation leakage {worst:.3e} exceeds {self.leak_tol:.1e}; "
                    "increase n_cut"
                )
            self.worst_leak = max(self.worst_leak, worst)
        if blocks is None:
            blocks = self._unit_blocks()
        if blocks.shape[2] == n_comp:
            blocks = np.concatenate([blocks, np.zeros_like(blocks)], axis=2)
        return blocks

    def _segment(self, blocks: Optional[np.ndarray], seg: Segment) -> np.ndarray:
        """exp(-i H_m t) B_m = V e^{-i lam t} V^T B_m per block at zero drive,
        on its own Fock levels, V = D W the gauged eigenvectors; blocks that
        share |c| and the cutoff share one real matmul pair.  The segment's
        drive enters the tangent columns (``_duhamel``)."""
        n_comp, cache = self.n_comp, self.cache
        n_in = n_comp if blocks is None else blocks.shape[2]
        n_out = 2 * n_comp if seg.eta != 0.0 else n_in
        couplings = seg.g * self.m_values / math.sqrt(self.n_ions)
        groups: dict[tuple[float, int], list[int]] = {}
        for i, (c, n) in enumerate(zip(couplings, self.cuts)):
            groups.setdefault((abs(c), n), []).append(i)
        out = np.zeros((len(self.m_values), self.n_cut + 1, n_out), dtype=complex)
        for (r, n), rows in groups.items():
            lam, vec = cache.eig(r, n)
            if seg.g < 0.0:
                # every m >= 0 block has c <= 0 (the gauge is moot at c = 0):
                # D = diag((-1)^k)
                vec = vec * self.parity[: n + 1, None]
            if blocks is None:
                # V^T e_n is row n of V
                z = np.tile(vec[:n_comp].T.astype(complex), len(rows))
            else:
                z = _real_matmul(vec.T, np.concatenate([blocks[i, : n + 1] for i in rows], axis=1))
            if seg.eta != 0.0:
                z = self._duhamel(z.reshape(n + 1, len(rows), n_in), lam, vec, seg)
            else:
                z *= np.exp(-1.0j * lam * seg.duration)[:, None]
            z = _real_matmul(vec, z)
            for j, i in enumerate(rows):
                out[i, : n + 1] = z[:, j * n_out : (j + 1) * n_out]
        return out

    def _duhamel(self, z: np.ndarray, lam: np.ndarray, vec: np.ndarray, seg: Segment) -> np.ndarray:
        """e^{-i lam t} [z_B | z_dB] plus the drive's first-order term in the
        tangent columns, for one r-group at zero drive; z = V^T [B | dB] has
        shape (levels, rows, n_in) and the result (levels, rows * 2 n_comp).

        d/ds e^{-i (H + s G) t} = V (Psi o V^T G V) V^T (Frechet derivative),
        Psi_jk = -i t e^{-i (lam_j + lam_k) t/2} sinc((lam_j - lam_k) t/2),
        G = eta y.  V^T y V = i V^T (a^dag - a) V = i A, A real antisymmetric,
        so Psi o (i eta A) is eta t diag(e) (A o sinc) diag(e) with
        e = e^{-i lam t/2}.
        """
        n_comp, t = self.n_comp, seg.duration
        half_step = np.exp(-0.5j * lam * t)[:, None, None]
        kernel = (vec.T @ self.cache.generator(vec)) * np.sinc(
            np.subtract.outer(lam, lam) * (t / (2.0 * math.pi))
        )
        source = z[:, :, :n_comp] * half_step * (seg.eta * t)
        out = np.zeros((len(lam), z.shape[1], 2 * n_comp), dtype=complex)
        out[:, :, : z.shape[2]] = z
        out *= np.exp(-1.0j * lam * t)[:, None, None]
        response = _real_matmul(kernel, source.reshape(len(lam), -1)).reshape(source.shape)
        out[:, :, n_comp:] += half_step * response
        return out.reshape(len(lam), -1)

    def moments(self, blocks: np.ndarray) -> dict:
        """Ensemble-averaged moments of the final [B | dB] blocks, and the
        slope d<Jy>/ds = 2 Re css^T (Jy o <B, dB>_w) css."""
        css, ops, n_comp = self.css, self.ops, self.n_comp
        root_w = np.sqrt(self.weights)
        # ensemble-weighted overlaps sum_n w_n <B_a e_n, B_b e_n> of the Jz blocks
        scaled = (blocks[..., :n_comp] * root_w).reshape(len(blocks), -1)
        overlap = scaled.conj() @ scaled.T
        # <op> = css^T (op o overlap) css for every stacked op (css is real)
        out = dict(zip(_MOMENTS, (css @ (ops * overlap) @ css).real.tolist()))
        tangent = (blocks[..., n_comp:] * root_w).reshape(len(blocks), -1)
        out["slope"] = 2.0 * float((css @ (ops[2] * (scaled.conj() @ tangent.T)) @ css).real)
        return out


def evolve_exact_detail(
    spec: ProtocolSpec,
    delta: float,
    n_cut: Optional[int] = None,
    initial: Optional[ThermalEnsemble] = None,
    leak_tol: float = 1e-10,
) -> OracleMoments:
    """Exact Hamiltonian evolution: moments at zero drive, the drive slope
    d<Jy>/ds of the unit-drive schedule at s = 0, and raw diagnostics.

    One run propagates the m >= 0 blocks at zero drive with their tangents
    dB/ds beside them (``_ExactRun.propagate``); parity gives the -m blocks.
    The slope is exact up to rounding, with no finite-difference step.
    """
    unit = spec.variant.unit_drive().schedule(1.0)
    run = _ExactRun(spec, delta, n_cut, initial, leak_tol)
    final = run.moments(run.unfold(run.propagate(_timeline(unit))))
    norm_error = abs(final["norm"] - 1.0)
    if not norm_error <= 1e-10:
        raise NumericalError(f"norm drift {norm_error:.3e} exceeds 1e-10")
    return OracleMoments(
        **{key: final[key] for key in ("jx", "jy", "jy_sq", "slope", "jpm_sym")},
        norm_error=norm_error, leakage=run.worst_leak, n_cut=run.n_cut,
    )


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
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ConfigError(f"gamma must be finite and >= 0, not {gamma!r}")
    # no leakage abort: valid jobs at an explicit n_cut reach ~1e-10
    exact = evolve_exact_detail(
        spec, delta, n_cut, ThermalEnsemble.from_nbar(nbar), leak_tol=math.inf
    )
    return damped_by_dephasing(exact, spec.n_ions, gamma, spec.schedule().odf_on_time)

