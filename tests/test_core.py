import json
import math
from dataclasses import fields, is_dataclass, replace

import pytest

from echosense.core import (
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
    Variant,
    _fields_from_json,
    _fields_to_json,
    beta_from_displacement,
    constants_from_json,
    db_below,
    displacement_from_beta,
    efield_sensitivity_from_eta,
    population_up,
)

C = PhysicalConstants()

# Electrode calibration, m per volt (measured lever arm of the drive electrode).
DEFAULT_VOLT_TO_METER = 12.9e-9

VARIANTS = [
    Displacement(2 * math.pi * 3910, 2e-4, 0.24),
    ReadoutOnly(2 * math.pi * 3910, 2e-4, 0.1),
    ClassicalEField(2 * math.pi * 3880, 1e-4, 5e-4, 2 * math.pi * 3.0),
    QuantumEField(2 * math.pi * 3880, 1e-4, 5e-4, 2 * math.pi * 3.0),
    Custom(
        PulseSchedule(
            segments=(Segment(1e-4, 2 * math.pi * 3910, 0.0),),
            kicks=(Kick(0.0, 0.2),),
        )
    ),
]


def numbers(obj) -> list:
    """Every number in a (nested) dataclass, in field order."""
    if is_dataclass(obj):
        return [x for f in fields(obj) for x in numbers(getattr(obj, f.name))]
    if isinstance(obj, tuple):
        return [x for item in obj for x in numbers(item)]
    return [obj]


class TestGroundStateLength:
    def test_default_value(self):
        assert C.z0 == pytest.approx(1.878e-8, rel=1e-3)

    def test_thermal_extent_cross_check(self):
        # collective-mode thermal extent z0*sqrt(2*nbar+1)/sqrt(N) for a
        # 120-ion crystal at nbar = 4.6 is about 5.5 nm
        z = C.z0 * math.sqrt(2 * 4.6 + 1) / math.sqrt(120)
        assert z == pytest.approx(5.5e-9, rel=0.01)

    def test_quadrupling_frequency_halves_z0(self):
        c4 = PhysicalConstants(trap_freq=4 * C.trap_freq)
        assert c4.z0 == pytest.approx(C.z0 / 2, rel=1e-12)

    def test_quadrupling_mass_halves_z0(self):
        c4 = PhysicalConstants(ion_mass=4 * C.ion_mass)
        assert c4.z0 == pytest.approx(C.z0 / 2, rel=1e-12)

    def test_positivity_enforced(self):
        with pytest.raises(ConfigError):
            PhysicalConstants(ion_mass=0.0)
        with pytest.raises(ConfigError):
            PhysicalConstants(trap_freq=-1.0)


def voltage_to_displacement(volts: float, calibration: float = DEFAULT_VOLT_TO_METER) -> float:
    """Electrode voltage to crystal displacement via the measured calibration (m/V)."""
    if not calibration > 0.0:
        raise ConfigError("calibration must be > 0")
    return volts * calibration


def drive_force_from_displacement(z: float, constants: PhysicalConstants) -> float:
    """Force per ion (magnitude) that statically displaces the crystal by z: m*omega_z**2*z."""
    return constants.ion_mass * constants.trap_freq**2 * z


def com_amplitude_from_force(force: float, duration: float, constants: PhysicalConstants) -> float:
    """Zero-to-peak oscillator amplitude excited by a resonant force over ``duration``."""
    return force * duration / (2.0 * constants.ion_mass * constants.trap_freq)


class TestBetaConversion:
    def test_reference_displacement(self):
        # 775 pm at N = 150 corresponds to beta ~ 0.24 (within the quoted
        # 28 pm amplitude uncertainty)
        assert beta_from_displacement(775e-12, 150, C) == pytest.approx(0.24, abs=0.02)

    def test_zero(self):
        assert beta_from_displacement(0.0, 150, C) == 0.0

    def test_round_trip(self):
        beta = 0.37
        zc = displacement_from_beta(beta, 150, C)
        assert beta_from_displacement(zc, 150, C) == pytest.approx(beta, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            beta_from_displacement(-1e-12, 150, C)

    def test_drive_force_chain_consistency(self):
        # voltage -> static displacement -> force -> driven amplitude -> beta
        z = voltage_to_displacement(2.0)
        force = drive_force_from_displacement(z, C)
        zc = com_amplitude_from_force(force, 0.5e-3, C)
        direct = C.trap_freq * z * 0.5e-3 / 2.0
        assert zc == pytest.approx(direct, rel=1e-12)
        assert beta_from_displacement(zc, 100, C) == pytest.approx(
            beta_from_displacement(direct, 100, C), rel=1e-12
        )


class TestEfieldConversion:
    def test_zero(self):
        assert efield_sensitivity_from_eta(0.0, 1e-3, C, 150) == 0.0

    def test_rejects_bad_duration(self):
        with pytest.raises(ConfigError):
            efield_sensitivity_from_eta(1.0, 0.0, C, 150)

    def test_duration_cancels(self):
        a = efield_sensitivity_from_eta(100.0, 1e-3, C, 150)
        b = efield_sensitivity_from_eta(100.0, 5e-3, C, 150)
        assert a == b


class TestVoltageCalibration:
    def test_one_volt(self):
        assert voltage_to_displacement(1.0) == pytest.approx(12.9e-9, rel=1e-12)

    def test_zero(self):
        assert voltage_to_displacement(0.0) == 0.0

    def test_linearity(self):
        assert voltage_to_displacement(100.0) == pytest.approx(1.29e-6, rel=1e-12)

    def test_calibration_positive(self):
        with pytest.raises(ConfigError):
            voltage_to_displacement(1.0, calibration=0.0)


class TestNoiseModel:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": -1.0},
            {"nbar": -0.1},
            {"gamma": -5.0},
            {"excess_noise_factor": 0.9},
            {"sigma": math.nan},
            {"gamma": math.inf},
            {"nbar": math.inf},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(ConfigError):
            NoiseModel(**kwargs)


class TestProtocolSpec:
    def test_tau_positive(self):
        with pytest.raises(ConfigError):
            Displacement(1000.0, 0.0)

    def test_classical_window(self):
        with pytest.raises(ConfigError):
            ClassicalEField(1000.0, 2e-3, 1e-3)

    def test_quantum_window(self):
        with pytest.raises(ConfigError):
            QuantumEField(1000.0, 0.6e-3, 1e-3)

    def test_ion_count(self):
        with pytest.raises(ConfigError):
            ProtocolSpec(Displacement(1000.0, 1e-4), 0)

    @pytest.mark.parametrize("n_ions", [1, 2.5, math.nan, math.inf, "150", True])
    def test_ion_count_integer_at_least_two(self, n_ions):
        with pytest.raises(ConfigError):
            ProtocolSpec(Displacement(1000.0, 1e-4), n_ions)

    def test_integral_ion_count_stored_as_int(self):
        spec = ProtocolSpec(Displacement(1000.0, 1e-4), 150.0)
        assert spec.n_ions == 150 and type(spec.n_ions) is int

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Displacement(math.nan, 1e-4),
            lambda: ReadoutOnly(1000.0, math.inf),
            lambda: ClassicalEField(1000.0, 1e-4, math.inf),
            lambda: QuantumEField(1000.0, 1e-4, 5e-4, math.nan),
            lambda: Segment(math.nan),
            lambda: Segment(1e-4, math.inf),
            lambda: Kick(0.0, math.nan),
        ],
        ids=["displacement_g", "readout_tau", "classical_T", "quantum_eta",
             "segment_duration", "segment_g", "kick_beta"],
    )
    def test_non_finite_fields_rejected(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_schedule_shapes(self):
        spec = ProtocolSpec(Displacement(1000.0, 1e-4, 0.3), 10)
        sched = spec.schedule()
        assert [seg.g for seg in sched.segments] == [1000.0, -1000.0]
        assert sched.kicks[0].time == pytest.approx(1e-4)
        assert sched.odf_on_time == pytest.approx(2e-4)
        quantum = ProtocolSpec(QuantumEField(1000.0, 1e-4, 5e-4, 7.0), 10).schedule()
        assert [seg.g for seg in quantum.segments] == [1000.0, 0.0, -1000.0]
        assert all(seg.eta == 7.0 for seg in quantum.segments)
        assert quantum.odf_on_time == pytest.approx(2e-4)

    def test_drive_scaling(self):
        spec = ProtocolSpec(ClassicalEField(1000.0, 1e-4, 5e-4, 7.0), 10)
        assert spec.schedule(0.5).segments[0].eta == pytest.approx(3.5)


class TestPulseSchedule:
    def test_negative_duration(self):
        with pytest.raises(ConfigError):
            PulseSchedule(segments=(Segment(-1e-4, 0.0, 0.0),))

    def test_kick_in_window(self):
        with pytest.raises(ConfigError):
            PulseSchedule(segments=(Segment(1e-4),), kicks=(Kick(2e-4, 0.1),))

    def test_odf_on_time_counts_nonzero_g(self):
        sched = PulseSchedule(
            segments=(Segment(1e-4, 100.0), Segment(2e-4, 0.0, 5.0), Segment(3e-4, -100.0))
        )
        assert sched.odf_on_time == pytest.approx(4e-4)


class TestPopulation:
    def test_full_bloch_vector(self):
        assert population_up(75.0, 150) == 0.0
        assert population_up(-75.0, 150) == 1.0
        assert population_up(0.0, 150) == 0.5


class TestDb:
    def test_value_and_sign(self):
        assert db_below(0.25, 0.025) == pytest.approx(10.0)
        assert db_below(0.25, 2.5) == pytest.approx(-10.0)

    @pytest.mark.parametrize("args", [(0.25, math.inf), (math.inf, 0.25), (0.25, math.nan)])
    def test_non_finite_is_a_numerical_failure(self, args):
        # sql/inf is 0, whose log10 raised a bare ValueError
        with pytest.raises(NumericalError, match="finite"):
            db_below(*args)

    def test_non_positive_is_a_config_error(self):
        with pytest.raises(ConfigError):
            db_below(0.25, 0.0)


def constants_to_json(constants: PhysicalConstants) -> dict:
    return _fields_to_json(constants)


def noise_model_to_json(noise: NoiseModel) -> dict:
    return _fields_to_json(noise)


def noise_model_from_json(obj: dict) -> NoiseModel:
    return _fields_from_json(NoiseModel, obj)


def protocol_spec_to_json(spec: ProtocolSpec) -> dict:
    return {"variant": spec.variant.name, "n_ions": spec.n_ions, **spec.variant.to_json()}


def protocol_spec_from_json(obj: dict) -> ProtocolSpec:
    try:
        cls, n_ions = Variant.lookup(obj["variant"]), obj["n_ions"]
    except KeyError as exc:
        raise ConfigError(f"protocol spec missing field {exc}") from exc
    return ProtocolSpec(cls.from_json(obj), n_ions)


class TestJsonInterfaces:
    def test_constants_round_trip(self):
        obj = constants_to_json(C)
        assert obj["trap_freq_hz"] == pytest.approx(1.59e6)
        back = constants_from_json(obj)
        assert back == C

    def test_noise_round_trip(self):
        noise = NoiseModel(sigma=2 * math.pi * 40, nbar=5, gamma=610, excess_noise_factor=1.18)
        back = noise_model_from_json(noise_model_to_json(noise))
        assert back.sigma == pytest.approx(noise.sigma, rel=1e-12)
        assert back.nbar == noise.nbar

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_protocol_round_trip(self, variant):
        spec = ProtocolSpec(variant, 150)
        back = protocol_spec_from_json(protocol_spec_to_json(spec))
        assert back.n_ions == 150
        assert type(back.variant) is type(variant)
        assert numbers(back.variant) == pytest.approx(numbers(variant), rel=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_contract(self, variant):
        # schedule(s) scales every drive amplitude by s and nothing else
        base, scaled = variant.schedule(1.0), variant.schedule(0.37)
        assert [(s.duration, s.g) for s in scaled.segments] == [
            (s.duration, s.g) for s in base.segments
        ]
        assert [s.eta for s in scaled.segments] == [0.37 * s.eta for s in base.segments]
        assert [k.time for k in scaled.kicks] == [k.time for k in base.kicks]
        assert [k.beta for k in scaled.kicks] == [0.37 * k.beta for k in base.kicks]
        assert ProtocolSpec(variant, 150).schedule(0.37) == scaled
        # the variant's own constructor stops accepting tau at its tau cap
        cap = type(variant).tau_cap
        if hasattr(variant, "T"):
            replace(variant, tau=cap * variant.T)
            with pytest.raises(ConfigError):
                replace(variant, tau=1.001 * cap * variant.T)

    def test_protocol_json_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        from echosense.schemas import load_schema

        schema = load_schema()
        spec = ProtocolSpec(Displacement(2 * math.pi * 3910, 2e-4, 0.24), 150)
        obj = json.loads(json.dumps(protocol_spec_to_json(spec)))
        jsonschema.validate(
            obj, {**schema["$defs"]["protocol_spec"], "$defs": schema["$defs"]}
        )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            protocol_spec_from_json({"variant": "nope", "n_ions": 2})
