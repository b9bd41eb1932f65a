"""Sensitivity theory for spin-coupled mechanical-oscillator sensors.

Layered API: ``core`` (types, constants, unit conversions), ``kernels``
(pulse-schedule kernels), ``moments`` (closed-form spin moments),
``sensitivity`` (disorder averaging, perturbative expansions, bounds,
optimization), ``entanglement`` (Gaussian diagnostics), ``oracle``
(brute-force simulators), ``calibration`` (least-squares fits), and ``cli``.
"""

from .core import (
    ClassicalEField,
    ConfigError,
    Custom,
    Displacement,
    Kick,
    NoiseModel,
    NumericalError,
    PhysicalConstants,
    ProtocolSpec,
    PulseSchedule,
    QuantumEField,
    ReadoutOnly,
    Segment,
    SensitivityReport,
    beta_from_displacement,
    displacement_from_beta,
    efield_sensitivity_from_eta,
    voltage_to_displacement,
)
from .kernels import (
    Kernels,
    kernels_classical_efield,
    kernels_generic,
    kernels_quantum_efield,
)
from .moments import SpinMoments, contrast, moments_at_detuning, readout_snr_largeN
from .sensitivity import (
    Bounds,
    QuadratureRule,
    TauOptima,
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

__version__ = "0.1.0"

__all__ = [
    "ClassicalEField",
    "ConfigError",
    "Custom",
    "Displacement",
    "Kick",
    "NoiseModel",
    "NumericalError",
    "PhysicalConstants",
    "ProtocolSpec",
    "PulseSchedule",
    "QuantumEField",
    "ReadoutOnly",
    "Segment",
    "SensitivityReport",
    "beta_from_displacement",
    "displacement_from_beta",
    "efield_sensitivity_from_eta",
    "voltage_to_displacement",
    "Kernels",
    "kernels_classical_efield",
    "kernels_generic",
    "kernels_quantum_efield",
    "SpinMoments",
    "contrast",
    "moments_at_detuning",
    "readout_snr_largeN",
    "Bounds",
    "QuadratureRule",
    "TauOptima",
    "averaged_sensitivity",
    "bounds",
    "gauss_hermite_rule",
    "optimize_tau",
    "perturbative_classical_efield",
    "perturbative_displacement",
    "perturbative_quantum_efield",
    "sensitivity_over_tau",
    "snr_single_measurement",
    "__version__",
]
