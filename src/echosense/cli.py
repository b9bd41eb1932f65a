"""Command-line interface: sensitivity sweeps, diagnostics, oracle checks, fits.

Frequencies on all flags are plain Hz (e.g. ``--g-hz 3910`` for a coupling of
2*pi*3910 rad/s); rates like ``--gamma`` are 1/s; times carry their unit in
the flag name.  Each command's defaults dict is its whole interface: every
key is a ``--key-with-dashes`` flag and a key of the JSON config file
(``--config``).  Flags override file entries, which override the defaults,
and both pass one check: finite floats, integers >= 1, listed choices.

Outputs are deterministic: identical configuration produces byte-identical
CSV or JSON.  Every JSON output validates against the schema shipped in
``echosense/schemas/echosense.schema.json`` ($defs cli_table / fit_result).

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure (an
overflow, or a table cell that is not finite, included).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

from . import entanglement
from .core import (
    ConfigError,
    Displacement,
    NoiseModel,
    NumericalError,
    PhysicalConstants,
    ProtocolSpec,
    QuantumEField,
    TWO_PI,
    constants_from_json,
    efield_sensitivity_from_eta,
)
from .kernels import kernels_generic
from .moments import moments_at_detuning
from .oracle import ThermalEnsemble, evolve_exact_detail
from .sensitivity import (
    gauss_hermite_rule,
    optimize_tau,
    perturbative_displacement,
    sensitivity_over_tau,
    snr_single_measurement,
)

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_table(
    command: str,
    params: dict,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    out: Optional[str],
    fmt: str,
) -> None:
    rows = [list(row) for row in rows]
    for row in rows:
        for column, value in zip(columns, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericalError(f"{command}: {column} = {value} is not finite")
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "command": command,
            "params": params,
            "columns": list(columns),
            "rows": rows,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, out)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _checked(key: str, value, default):
    """A value of its default's type: an int default needs an integer >= 1
    (an integral float is stored as int), a float default a finite number,
    a str default one of its ``CHOICES``."""
    if isinstance(default, int):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if type(value) is not int or value < 1:  # bool is not an integer here
            raise ConfigError(f"config value {key}={value!r} must be an integer >= 1")
    elif isinstance(default, float):
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ConfigError(f"config value {key}={value!r} must be a finite number")
    elif value not in CHOICES[key]:
        raise ConfigError(f"config value {key}={value!r} must be one of {CHOICES[key]}")
    return value


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """The defaults, overridden by the config file, overridden by flags."""
    file_cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_cfg) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    flags = {k: v for k, v in vars(args).items() if k in defaults and v is not None}
    cfg = dict(defaults)
    for given in (file_cfg, flags):
        for key in defaults:
            if key in given:
                cfg[key] = _checked(key, given[key], defaults[key])
    cfg["_file"] = file_cfg
    return cfg


def _constants(cfg: dict) -> PhysicalConstants:
    if "constants" in cfg["_file"]:
        return constants_from_json(cfg["_file"]["constants"])
    return PhysicalConstants()


def _noise(cfg: dict) -> NoiseModel:
    return NoiseModel(
        sigma=TWO_PI * cfg["sigma_hz"],
        nbar=cfg["nbar"],
        gamma=cfg["gamma"],
        excess_noise_factor=cfg["excess_noise"],
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

DISPLACEMENT_DEFAULTS = {
    "n_ions": 150,
    "g_hz": 3910.0,
    "nbar": 5.0,
    "gamma": 610.0,
    "sigma_hz": 40.0,
    "excess_noise": 1.0,
    "nodes": 64,
    "tau_min_us": 20.0,
    "tau_max_us": 600.0,
    "tau_steps": 117,
}


def cmd_displacement_sweep(args: argparse.Namespace, cfg: dict) -> int:
    g = TWO_PI * cfg["g_hz"]
    noise = _noise(cfg)
    base_noise = NoiseModel(sigma=noise.sigma, nbar=noise.nbar, gamma=noise.gamma)
    rule = gauss_hermite_rule(noise.sigma, cfg["nodes"])
    taus = np.linspace(cfg["tau_min_us"] * 1e-6, cfg["tau_max_us"] * 1e-6, cfg["tau_steps"])
    with_excess = noise.excess_noise_factor != 1.0
    columns = ["tau_s", "delta_sq_exact", "delta_sq_perturbative", "sql", "db_below_sql"]
    if with_excess:
        columns.append("delta_sq_exact_excess")
    # every tau row from one batched evaluation; the spec's own tau is replaced
    spec = ProtocolSpec(Displacement(g, float(taus[0]), 0.0), cfg["n_ions"])
    reports = sensitivity_over_tau(spec, taus, base_noise, rule)
    rows = []
    for tau, report in zip(taus, reports):
        pert = perturbative_displacement(g, float(tau), base_noise)
        row = [float(tau), report.delta_sq, pert.total, report.sql, report.db_below_sql]
        if with_excess:
            row.append(report.delta_sq * noise.excess_noise_factor**2)
        rows.append(row)
    _write_table("displacement-sweep", _public(cfg), columns, rows, args.out, args.format)
    return 0


EFIELD_DEFAULTS = {
    "n_ions": 150,
    "g_hz": 3880.0,
    "nbar": 5.0,
    "gamma": 520.0,
    "sigma_hz": 40.0,
    "excess_noise": 1.0,
    "nodes": 64,
    "t_min_ms": 0.2,
    "t_max_ms": 2.0,
    "t_steps": 19,
}


def cmd_efield_sweep(args: argparse.Namespace, cfg: dict) -> int:
    g = TWO_PI * cfg["g_hz"]
    noise = _noise(cfg)
    rule = gauss_hermite_rule(noise.sigma, cfg["nodes"])
    constants = _constants(cfg)
    t_grid = np.linspace(cfg["t_min_ms"] * 1e-3, cfg["t_max_ms"] * 1e-3, cfg["t_steps"])
    columns = [
        "T_s",
        "tau_opt_quantum",
        "tau_opt_classical",
        "delta_eta_sq_quantum",
        "delta_eta_sq_classical",
        "sql",
        "eps_Vm_quantum",
    ]
    # each family's T rows refined in lockstep; a row without a finite grid
    # point raises at its turn (T ascending, quantum before classical)
    quantum_rows = optimize_tau("quantum", t_grid, g, noise, rule, cfg["n_ions"])
    classical_rows = optimize_tau("classical", t_grid, g, noise, rule, cfg["n_ions"])
    rows = []
    for i, T in enumerate(t_grid.tolist()):
        tau_q, dsq_q = quantum_rows.row(i)
        tau_c, dsq_c = classical_rows.row(i)
        eps = efield_sensitivity_from_eta(math.sqrt(dsq_q), T, constants, cfg["n_ions"])
        rows.append([T, tau_q, tau_c, dsq_q, dsq_c, QuantumEField(g, tau_q, T).sql, eps])
    _write_table("efield-sweep", _public(cfg), columns, rows, args.out, args.format)
    return 0


SNR_DEFAULTS = {
    "g_hz": 3910.0,
    "tau_us": 200.0,
    "nbar": 5.0,
    "gamma": 500.0,
    "sigma_hz": 40.0,
    "excess_noise": 1.0,
    "beta_max": 0.6,
    "steps": 61,
}


def cmd_snr(args: argparse.Namespace, cfg: dict) -> int:
    g = TWO_PI * cfg["g_hz"]
    tau = cfg["tau_us"] * 1e-6
    noise = _noise(cfg)
    betas = np.linspace(0.0, cfg["beta_max"], cfg["steps"])
    rows = [[float(b), snr_single_measurement(float(b), g, tau, noise)] for b in betas]
    _write_table("snr", _public(cfg), ["beta", "snr"], rows, args.out, args.format)
    return 0


RENYI_DEFAULTS = {"g_hz": 3910.0, "tau_us": 200.0, "steps": 101}


def cmd_renyi(args: argparse.Namespace, cfg: dict) -> int:
    g = TWO_PI * cfg["g_hz"]
    tau = cfg["tau_us"] * 1e-6
    times = np.linspace(0.0, 2.0 * tau, cfg["steps"])
    rows = [[float(t), entanglement.renyi_entropy(g, tau, float(t))] for t in times]
    _write_table("renyi", _public(cfg), ["t_s", "s2"], rows, args.out, args.format)
    return 0


WIGNER_DEFAULTS = {"kind": "hybrid_plus", "g_tau": 2.0, "extent": 4.0, "points": 81}
WIGNER_KINDS = {
    "hybrid_plus": entanglement.wigner_hybrid_plus,
    "reduced_boson": entanglement.wigner_reduced_boson,
}
# the allowed values of each str-valued defaults key
CHOICES = {"kind": tuple(WIGNER_KINDS)}


def cmd_wigner(args: argparse.Namespace, cfg: dict) -> int:
    fn = WIGNER_KINDS[cfg["kind"]]
    grid = np.linspace(-cfg["extent"], cfg["extent"], cfg["points"])
    rows = []
    for x in grid:
        for p in grid:
            rows.append([float(x), float(p), float(fn(float(x), float(p), cfg["g_tau"]))])
    _write_table("wigner", _public(cfg), ["x", "p", "w"], rows, args.out, args.format)
    return 0


ORACLE_DEFAULTS = {"tol": 1e-6}

ORACLE_CASES = [
    # (n_ions, nbar, delta_over_g, g_tau)
    (2, 0.0, 0.0, 1.0),
    (2, 0.5, 0.1, 0.5),
    (3, 0.0, 0.2, 1.5),
    (4, 0.5, 0.1, 1.0),
    (4, 0.0, 0.05, 2.0),
]


def cmd_oracle_check(args: argparse.Namespace, cfg: dict) -> int:
    if not cfg["tol"] > 0.0:
        raise ConfigError(f"tol must be > 0, not {cfg['tol']!r}")
    g = TWO_PI * 3910.0
    columns = ["n_ions", "nbar", "delta_over_g", "g_tau", "max_rel_err", "status"]
    rows = []
    worst = 0.0
    for n_ions, nbar, frac, g_tau in ORACLE_CASES:
        tau = g_tau / g
        delta = frac * g
        spec = ProtocolSpec(Displacement(g, tau, 0.0), n_ions)
        det = evolve_exact_detail(spec, delta, initial=ThermalEnsemble.from_nbar(nbar))
        kernels = kernels_generic(spec.variant.unit_drive().schedule(), delta)
        mom = moments_at_detuning(kernels, n_ions, NoiseModel(nbar=nbar))
        rel = max(
            abs(det.jx - mom.jx_mean) / abs(mom.jx_mean),
            abs(det.jy_sq - mom.jy_sq) / abs(mom.jy_sq),
            abs(det.slope - mom.slope) / abs(mom.slope),
        )
        worst = max(worst, rel)
        rows.append(
            [n_ions, nbar, frac, g_tau, rel, "ok" if rel < cfg["tol"] else "FAIL"]
        )
    _write_table("oracle-check", _public(cfg), columns, rows, args.out, args.format)
    if worst >= cfg["tol"]:
        raise NumericalError(
            f"oracle disagreement {worst:.3e} exceeds tolerance {cfg['tol']:.1e}"
        )
    return 0


CALIBRATE_DEFAULTS = {
    "g_hz": 3910.0,
    "nbar": 5.0,
    "gamma_tot": 250.0,
    "tau_us": 1500.0,
    "n_ions": 150,
}


# kind -> fit(calibration module, data, cfg); cmd_calibrate imports the module,
# so scipy.optimize loads only when a calibration runs
CALIBRATIONS = {
    "sigma": lambda cal, data, cfg: cal.fit_sigma(
        data,
        g=TWO_PI * cfg["g_hz"],
        nbar=cfg["nbar"],
        n_ions=cfg["n_ions"],
        gamma_tot=cfg["gamma_tot"],
    ),
    "contrast": lambda cal, data, cfg: cal.fit_contrast(data),
    "ringdown": lambda cal, data, cfg: cal.fit_ring_down(
        data, gamma_tot=cfg["gamma_tot"], tau=cfg["tau_us"] * 1e-6
    ),
    "heating": lambda cal, data, cfg: cal.fit_heating_rate(data),
}


def cmd_calibrate(args: argparse.Namespace, cfg: dict) -> int:
    from . import calibration

    data = calibration.CalibrationDataset.from_csv(args.data)
    fit = CALIBRATIONS[args.kind](calibration, data, cfg)
    errors = {name: fit.error(name) for name in fit.params}
    if args.format == "csv":
        rows = [[name, fit.params[name], errors[name]] for name in fit.params]
        _write_table(
            "calibrate", {"kind": args.kind}, ["param", "value", "stderr"], rows, args.out, "csv"
        )
        return 0
    payload = {
        "command": "calibrate",
        "kind": args.kind,
        "params": fit.params,
        "errors": errors,
        "covariance": [[float(v) for v in row] for row in fit.covariance],
        "residual_norm": fit.residual_norm,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


# name -> (handler, defaults, help); each defaults key is a flag and a config key
COMMANDS = {
    "displacement-sweep": (
        cmd_displacement_sweep, DISPLACEMENT_DEFAULTS, "sensitivity vs drive time"
    ),
    "efield-sweep": (cmd_efield_sweep, EFIELD_DEFAULTS, "optimized drive-sensing sweep"),
    "snr": (cmd_snr, SNR_DEFAULTS, "single-measurement SNR vs displacement"),
    "renyi": (cmd_renyi, RENYI_DEFAULTS, "entanglement entropy along the echo"),
    "wigner": (cmd_wigner, WIGNER_DEFAULTS, "Wigner-function grid dump"),
    "oracle-check": (cmd_oracle_check, ORACLE_DEFAULTS, "closed forms vs brute-force simulator"),
    "calibrate": (cmd_calibrate, CALIBRATE_DEFAULTS, "least-squares calibrations"),
}

# every key some command reads: one config file may serve several commands,
# so only a key no command knows is an error
_CONFIG_KEYS = frozenset({"constants"}).union(*(d for _, d, _ in COMMANDS.values()))


def _public(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if not k.startswith("_")}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echosense",
        description="Sensitivity theory for spin-coupled oscillator sensors",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults, help_text) in COMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        if name == "calibrate":
            p.add_argument("kind", choices=tuple(CALIBRATIONS))
            p.add_argument("--data", required=True, help="CSV with header x,y[,yerr]")
        _add_common(p)
        for key, default in defaults.items():
            p.add_argument(
                "--" + key.replace("_", "-"), type=type(default), choices=CHOICES.get(key)
            )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handler, defaults, _ = COMMANDS[args.command]
    try:
        return handler(args, _merged(args, defaults))
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
