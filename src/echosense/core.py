"""Domain types, physical constants, and unit conversions.

Conventions used throughout the package:

* All angular frequencies and rates are stored in rad/s internally.  The CLI
  and the JSON interfaces accept plain Hz (field suffix ``_hz``) and convert
  at the boundary, so a coupling quoted as ``g/(2*pi) = 3.91 kHz`` enters the
  library as ``2*pi*3910`` rad/s.
* Times are seconds, lengths are meters, fields are V/m.
* Bloch-vector components are normalized as ``2*<J>/N`` whenever a spin
  population is formed, so ``P_up = (1 - 2*<J>/N)/2``.  This keeps population
  conversions well defined for every ion number.
* dB comparisons are ``10*log10(reference/achieved)``; positive numbers mean
  better than the reference.

Electric-field conversion.  A drive of strength ``eta`` acting for a time T
produces the dimensionless displacement ``beta = eta*T``, and a physical
amplitude ``Zc = 2*z0*beta/sqrt(N)``.  The field that produces ``Zc`` through
the harmonic restoring force is ``eps = 2*m*omega_z*Zc/(q*T)``.  Eliminating
``Zc`` and ``T``:

    delta_eps = 2*m*omega_z/(q*T) * (2*z0*T*delta_eta/sqrt(N))
              = 4*m*omega_z*z0*delta_eta/(q*sqrt(N)),

i.e. the drive duration cancels and the field uncertainty is a fixed multiple
of ``delta_eta``.  ``efield_sensitivity_from_eta`` implements this reduction
(the T argument is validated but algebraically absent).

All types are immutable after construction and all functions are pure, so
everything in this module is safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from typing import ClassVar, Optional

__all__ = [
    "HBAR",
    "AMU_KG",
    "ELEMENTARY_CHARGE",
    "ConfigError",
    "NumericalError",
    "PhysicalConstants",
    "NoiseModel",
    "Segment",
    "Kick",
    "PulseSchedule",
    "Displacement",
    "ReadoutOnly",
    "ClassicalEField",
    "QuantumEField",
    "Custom",
    "Variant",
    "ProtocolSpec",
    "SensitivityReport",
    "beta_from_displacement",
    "displacement_from_beta",
    "efield_sensitivity_from_eta",
    "population_up",
    "db_below",
    "constants_from_json",
]

HBAR = 1.054571817e-34  # J s
AMU_KG = 1.66053906660e-27  # kg
ELEMENTARY_CHARGE = 1.602176634e-19  # C

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid physical parameters or configuration."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (leakage, non-convergence, vanishing signal)."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Trap and ion constants.

    Defaults are for a light alkaline-earth ion in a 1.59 MHz axial well
    (mass 9.012182 amu, single elementary charge).
    """

    hbar: float = HBAR
    ion_mass: float = 9.012182 * AMU_KG
    ion_charge: float = ELEMENTARY_CHARGE
    trap_freq: float = TWO_PI * 1.59e6  # rad/s

    def __post_init__(self) -> None:
        for name in ("hbar", "ion_mass", "ion_charge", "trap_freq"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"PhysicalConstants.{name} must be strictly positive")

    @property
    def z0(self) -> float:
        """Ground-state wavefunction size sqrt(hbar/(2 m omega_z)) in meters."""
        return math.sqrt(self.hbar / (2.0 * self.ion_mass * self.trap_freq))


@dataclass(frozen=True)
class NoiseModel:
    """Technical-noise parameters.

    sigma
        rms spread of the shot-to-shot oscillator detuning, rad/s.
    nbar
        mean thermal occupation of the oscillator mode.
    gamma
        effective spin depolarization rate while the spin-dependent drive is
        on, 1/s.
    excess_noise_factor
        multiplicative inflation of the measured noise standard deviation
        relative to projection noise (1.0 = none).
    """

    sigma: float = 0.0
    nbar: float = 0.0
    gamma: float = 0.0
    excess_noise_factor: float = 1.0

    def __post_init__(self) -> None:
        bounds = (("sigma", 0.0), ("nbar", 0.0), ("gamma", 0.0), ("excess_noise_factor", 1.0))
        for name, low in bounds:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= low):
                raise ConfigError(f"NoiseModel.{name} must be finite and >= {low:g}")


@dataclass(frozen=True)
class Segment:
    """A pulse-schedule segment with constant couplings.

    duration in seconds, spin-dependent coupling g and spin-independent drive
    eta in rad/s.
    """

    duration: float
    g: float = 0.0
    eta: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.duration, self.g, self.eta))):
            raise ConfigError("Segment fields must be finite")
        if self.duration < 0.0:
            raise ConfigError("Segment.duration must be >= 0")


@dataclass(frozen=True)
class Kick:
    """An instantaneous displacement of the oscillator by ``beta`` at ``time``."""

    time: float
    beta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta):
            raise ConfigError("Kick.beta must be finite")


@dataclass(frozen=True)
class PulseSchedule:
    """Piecewise-constant couplings plus instantaneous displacement kicks."""

    segments: tuple[Segment, ...]
    kicks: tuple[Kick, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "kicks", tuple(self.kicks))
        total = self.total_duration
        for kick in self.kicks:
            if not 0.0 <= kick.time <= total:
                raise ConfigError(
                    f"kick at t={kick.time} outside schedule [0, {total}]"
                )

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)

    @property
    def odf_on_time(self) -> float:
        """Total time the spin-dependent coupling is switched on."""
        return sum(seg.duration for seg in self.segments if seg.g != 0.0)

    def scaled_drive(self, scale: float) -> "PulseSchedule":
        """Return a copy with every drive amplitude (eta and kick beta) scaled."""
        return PulseSchedule(
            segments=tuple(
                Segment(seg.duration, seg.g, seg.eta * scale) for seg in self.segments
            ),
            kicks=tuple(Kick(k.time, k.beta * scale) for k in self.kicks),
        )

    def __call__(self, drive_scale: float = 1.0) -> "PulseSchedule":
        """``scaled_drive(drive_scale)``, so a stored schedule answers the
        variants' ``schedule(drive_scale)``."""
        return self.scaled_drive(drive_scale)


# angular frequencies (rad/s) that JSON carries in Hz, under a _hz suffix.
# from_json(to_json(v)) is exact when v is TWO_PI times a float, as the CLI
# builds it from Hz; other values may come back 1 ulp off.  Carrying rad/s
# instead would change the byte-identical JSON outputs.
_HZ_FIELDS = ("g", "eta", "sigma", "trap_freq")


def _fields_to_json(obj) -> dict:
    """A dataclass's fields in order; tuples of dataclasses become lists."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in _HZ_FIELDS:
            out[f"{f.name}_hz"] = value / TWO_PI
        elif isinstance(value, tuple):
            out[f.name] = [_fields_to_json(item) for item in value]
        else:
            out[f.name] = value
    return out


def _fields_from_json(cls, obj: dict):
    """Inverse of ``_fields_to_json`` for a dataclass of numbers; absent
    fields take their defaults."""
    kwargs = {}
    for f in fields(cls):
        key = f"{f.name}_hz" if f.name in _HZ_FIELDS else f.name
        if key not in obj:
            if f.default is MISSING:
                raise ConfigError(f"{cls.__name__} JSON missing field {key!r}")
        elif f.name in _HZ_FIELDS:
            kwargs[f.name] = TWO_PI * obj[key]
        else:
            kwargs[f.name] = obj[key]
    return cls(**kwargs)


class Variant:
    """A sensing protocol.  Each variant is a frozen dataclass that defines

    * ``name``: its JSON ``variant`` value and report name;
    * ``schedule(drive_scale)``: its pulse schedule, every drive amplitude
      (kick beta, eta) times ``drive_scale``;
    * ``sql``: the coherent-state reference for the estimated amplitude;
    * ``tau_cap``: the largest drive time tau as a fraction of T;
    * ``drive``: the drive-amplitude field that ``unit_drive`` sets to 1;
    * ``closed_form``: the ``kernels`` function of its unit-drive kernels,
      called with the non-drive fields and the detuning; None (all but the
      e-field variants): ``kernels_generic`` of the unit-drive schedule.

    Sign convention: the entangling (initial) pulse carries +g, the readout
    (final) pulse -g, so the echo responds to a kick with d<Jy>/dbeta =
    -sqrt(N)*g*tau at zero detuning, as does a bare readout pulse.
    """

    name: ClassVar[str]
    tau_cap: ClassVar[float] = 1.0
    drive: ClassVar[Optional[str]] = None
    closed_form: ClassVar[Optional[str]] = None
    _by_name: ClassVar[dict] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "name" in vars(cls):
            Variant._by_name[cls.name] = cls

    @staticmethod
    def lookup(name: str) -> type:
        """The variant class called ``name``, or ``name + "_efield"`` (``"quantum"``)."""
        cls = Variant._by_name.get(name) or Variant._by_name.get(f"{name}_efield")
        if cls is None:
            raise ConfigError(f"unknown protocol variant {name!r}")
        return cls

    def __post_init__(self) -> None:
        kind = type(self).__name__
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{kind}.{f.name} must be finite")
        if not self.tau > 0.0:
            raise ConfigError(f"{kind}.tau must be > 0")
        if self.tau > self.tau_cap * getattr(self, "T", math.inf):
            raise ConfigError(f"{kind} requires tau <= {self.tau_cap:g}*T")

    def unit_drive(self) -> "Variant":
        """Copy with unit drive amplitude; without a drive field, the variant itself."""
        return replace(self, **{self.drive: 1.0}) if self.drive else self

    def to_json(self) -> dict:
        return _fields_to_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "Variant":
        return _fields_from_json(cls, obj)


@dataclass(frozen=True)
class _KickVariant(Variant):
    """Spin-dependent pulses of length tau around a displacement kick beta."""

    g: float
    tau: float
    beta: float = 0.0
    drive = "beta"

    @property
    def sql(self) -> float:
        return 0.25


@dataclass(frozen=True)
class _EFieldVariant(Variant):
    """A constant drive eta for T, read out by spin-dependent pulses of length tau."""

    g: float
    tau: float
    T: float
    eta: float = 0.0
    drive = "eta"

    @property
    def sql(self) -> float:
        return 1.0 / (4.0 * self.T**2)


@dataclass(frozen=True)
class Displacement(_KickVariant):
    """Echo protocol: drive +g for tau, kick beta, drive -g for tau."""

    name = "displacement"

    def schedule(self, drive_scale: float = 1.0) -> PulseSchedule:
        return PulseSchedule(
            segments=(Segment(self.tau, self.g, 0.0), Segment(self.tau, -self.g, 0.0)),
            kicks=(Kick(self.tau, self.beta * drive_scale),),
        )


@dataclass(frozen=True)
class ReadoutOnly(_KickVariant):
    """Kick beta first, then a single readout drive of duration tau."""

    name = "readout"

    def schedule(self, drive_scale: float = 1.0) -> PulseSchedule:
        return PulseSchedule(
            segments=(Segment(self.tau, -self.g, 0.0),),
            kicks=(Kick(0.0, self.beta * drive_scale),),
        )


@dataclass(frozen=True)
class ClassicalEField(_EFieldVariant):
    """Constant drive eta for T with a single readout pulse of length tau at the end."""

    name = "classical_efield"
    closed_form = "kernels_classical_efield"

    def schedule(self, drive_scale: float = 1.0) -> PulseSchedule:
        eta = self.eta * drive_scale
        return PulseSchedule(
            segments=(
                Segment(self.T - self.tau, 0.0, eta),
                Segment(self.tau, -self.g, eta),
            )
        )


@dataclass(frozen=True)
class QuantumEField(_EFieldVariant):
    """Constant drive eta for T with entangling pulses of length tau at both ends."""

    name = "quantum_efield"
    closed_form = "kernels_quantum_efield"
    tau_cap = 0.5

    def schedule(self, drive_scale: float = 1.0) -> PulseSchedule:
        eta = self.eta * drive_scale
        return PulseSchedule(
            segments=(
                Segment(self.tau, self.g, eta),
                Segment(self.T - 2.0 * self.tau, 0.0, eta),
                Segment(self.tau, -self.g, eta),
            )
        )


@dataclass(frozen=True)
class Custom(Variant):
    """An arbitrary user-supplied pulse schedule, which is its own unit drive.

    The stored PulseSchedule is callable with a drive scale, so
    ``schedule(drive_scale)`` works as for every variant.
    """

    schedule: PulseSchedule
    name = "custom"

    def __post_init__(self) -> None:
        """The PulseSchedule validated itself when it was built."""

    @property
    def sql(self) -> float:
        # kick-only schedules estimate a displacement, drive-only schedules a
        # constant drive strength; a mixed schedule has no canonical reference
        has_kicks = any(k.beta != 0.0 for k in self.schedule.kicks)
        has_drive = any(seg.eta != 0.0 for seg in self.schedule.segments)
        if has_kicks and not has_drive:
            return 0.25
        if has_drive and not has_kicks:
            return 1.0 / (4.0 * self.schedule.total_duration**2)
        raise ConfigError(
            "custom schedule needs exactly one drive type (kicks or continuous eta) "
            "for a sensitivity reference"
        )

    def to_json(self) -> dict:
        return _fields_to_json(self.schedule)

    @classmethod
    def from_json(cls, obj: dict) -> "Custom":
        segments = tuple(_fields_from_json(Segment, s) for s in obj.get("segments", []))
        kicks = tuple(_fields_from_json(Kick, k) for k in obj.get("kicks", []))
        return cls(PulseSchedule(segments, kicks))


@dataclass(frozen=True)
class ProtocolSpec:
    """A sensing protocol variant plus the ion number (an integer >= 2)."""

    variant: Variant
    n_ions: int

    def __post_init__(self) -> None:
        n = self.n_ions
        if not (isinstance(n, numbers.Real) and float(n).is_integer() and n >= 2):
            raise ConfigError(f"ProtocolSpec.n_ions must be an integer >= 2, not {n!r}")
        object.__setattr__(self, "n_ions", int(n))

    def schedule(self, drive_scale: float = 1.0) -> PulseSchedule:
        """The variant's pulse schedule, every drive amplitude times ``drive_scale``."""
        return self.variant.schedule(drive_scale)


@dataclass(frozen=True)
class SensitivityReport:
    """Outcome of a sensitivity evaluation.

    ``variance`` is the detuning-averaged second moment of Jy (inflated by the
    excess-noise factor), ``slope`` the averaged signal derivative per unit
    perturbation, ``delta_sq`` their ratio variance/slope**2.  ``sql`` and
    ``thermal_bound`` are the matching coherent-state and thermal references
    and ``db_below_sql = 10*log10(sql/delta_sq)``.  ``in_domain`` is False when
    any quadrature node with non-negligible weight fell outside the trusted
    domain of the closed-form moments (see ``moments.moments_at_detuning``
    and the ``moments`` module docstring).
    """

    variance: float
    slope: float
    delta_sq: float
    sql: float
    thermal_bound: float
    db_below_sql: float
    protocol: str = ""
    in_domain: bool = True

    def __post_init__(self) -> None:
        if not self.variance > 0.0:
            raise ConfigError("SensitivityReport.variance must be > 0")
        if not self.delta_sq > 0.0:
            raise ConfigError("SensitivityReport.delta_sq must be > 0")
        if not math.isfinite(self.db_below_sql):
            raise ConfigError("SensitivityReport.db_below_sql must be finite")


# ---------------------------------------------------------------------------
# unit conversions
# ---------------------------------------------------------------------------


def beta_from_displacement(zc: float, n_ions: int, constants: PhysicalConstants) -> float:
    """Dimensionless displacement beta = Zc*sqrt(N)/(2*z0) for amplitude Zc >= 0."""
    if zc < 0.0:
        raise ConfigError("displacement amplitude must be >= 0")
    return zc * math.sqrt(n_ions) / (2.0 * constants.z0)


def displacement_from_beta(beta: float, n_ions: int, constants: PhysicalConstants) -> float:
    """Physical amplitude Zc = 2*z0*beta/sqrt(N); exact inverse of beta_from_displacement."""
    return 2.0 * constants.z0 * beta / math.sqrt(n_ions)


def efield_sensitivity_from_eta(
    delta_eta: float, T: float, constants: PhysicalConstants, n_ions: int
) -> float:
    """Electric-field uncertainty (V/m) for a drive-strength uncertainty delta_eta.

    delta_eps = 4*m*omega_z*z0*delta_eta/(q*sqrt(N)); see the module docstring
    for the reduction.  T only enters validation: the drive duration cancels.
    """
    if not T > 0.0:
        raise ConfigError("drive duration T must be > 0")
    m, wz, q = constants.ion_mass, constants.trap_freq, constants.ion_charge
    return 4.0 * m * wz * constants.z0 * delta_eta / (q * math.sqrt(n_ions))


def population_up(j_component: float, n_ions: int) -> float:
    """Bright fraction (1 - 2*<J>/N)/2 for a measured collective spin component."""
    return 0.5 * (1.0 - 2.0 * j_component / n_ions)


def db_below(reference: float, achieved: float) -> float:
    """10*log10(reference/achieved); positive when better than the reference."""
    if not (math.isfinite(reference) and math.isfinite(achieved)):
        raise NumericalError(f"db_below needs finite inputs, not {reference!r}, {achieved!r}")
    if not (reference > 0.0 and achieved > 0.0):
        raise ConfigError("db_below needs strictly positive inputs")
    return 10.0 * math.log10(reference / achieved)


# ---------------------------------------------------------------------------
# JSON interfaces (frequencies in Hz, suffix _hz)
# ---------------------------------------------------------------------------


def constants_from_json(obj: dict) -> PhysicalConstants:
    return _fields_from_json(PhysicalConstants, obj)
