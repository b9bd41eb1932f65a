"""Seeded inputs, jobs and correctness checks for the benchmark workloads.

A workload's inputs are *blocks*.  A block is a fixed list of cells that
together span the workload's parameter ranges: the parameters that set a
job's cost are drawn inside fixed strata (paired across parameters in a fixed
Latin arrangement), the others uniformly over their whole range, from a
generator seeded by (workload, seed, block index) that also shuffles the
block.  Every block therefore costs about the same whatever the seed, which
keeps the run-to-run spread low, while the seed still changes every input the
package sees.  A run holds a fixed number of whole blocks, so the job count,
and with it the percentile that ``job_ms_tail`` reports, is the same on every
run of a given length.

Jobs reach the package only through module attributes looked up at call
time (``cli.main``, ``sensitivity.averaged_sensitivity``,
``oracle.evolve_exact_detail``, ``oracle.evolve_lindblad_detail``), so the
tracing hooks in ``tracing.py`` see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from echosense import cli, kernels, oracle, sensitivity
from echosense.core import (
    ClassicalEField,
    Custom,
    Displacement,
    NoiseModel,
    ProtocolSpec,
    PulseSchedule,
    QuantumEField,
    ReadoutOnly,
    Segment,
)
from echosense.moments import deformed_transverse_invariant, moments_at_detuning

TWO_PI = 2.0 * math.pi

# criterion 01/02 contract for the oracles; 1e-9 for the closed-form paths
ORACLE_TOL = 1e-6
CLOSED_FORM_TOL = 1e-9

VARIANTS = {
    "displacement": Displacement,
    "readout": ReadoutOnly,
    "classical_efield": ClassicalEField,
    "quantum_efield": QuantumEField,
}
PROTOCOLS = tuple(VARIANTS)

# named_sweep draws keep (g T_max)^2 (nbar + 1/2) / N below this
SLOPE_EXPONENT_LIMIT = 300.0


@dataclass
class Job:
    """One prepared input: JSON-able ``params`` plus the call that runs it."""

    params: dict
    call: Callable[[], Any]
    context: dict = field(default_factory=dict)


@dataclass
class Check:
    """Outcome of checking one job: worst relative error and any problems."""

    rel_err: float
    problems: list


def _variant(protocol: str, g: float, tau: float, T: float | None, drive: float):
    cls = VARIANTS[protocol]
    return cls(g, tau, drive) if T is None else cls(g, tau, T, drive)


def _protocol_name(variant) -> str:
    return next(name for name, cls in VARIANTS.items() if isinstance(variant, cls))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _stratum(rng: random.Random, lo: float, hi: float, index: int, count: int) -> float:
    """Uniform draw inside part ``index % count`` of ``count`` equal parts of [lo, hi]."""
    return lo + (hi - lo) * (index % count + rng.random()) / count


def _named_kernels(variant, delta: float):
    """Closed-form kernels of a named protocol at unit drive.

    The hand-derived closed forms are the independent reference; when a
    package version no longer exports one, the generic kernels of the
    protocol's unit-drive schedule stand in.
    """
    protocol = _protocol_name(variant)
    T = getattr(variant, "T", None)
    fn = getattr(kernels, f"kernels_{protocol}", None)
    if fn is None:
        unit = _variant(protocol, variant.g, variant.tau, T, 1.0)
        return kernels.kernels_generic(ProtocolSpec(unit, 2).schedule(1.0), delta)
    return fn(variant.g, variant.tau, delta) if T is None else fn(variant.g, variant.tau, T, delta)


def _moment_errors(got, mom) -> float:
    return max(
        _rel(got.jx, mom.jx_mean),
        _rel(got.jy_sq, mom.jy_sq),
        _rel(got.slope, mom.slope),
    )


class Workload:
    """Base class: subclasses define the cells, the draw, the job and the check."""

    name = ""
    # seconds one block takes at this commit on the reference machine
    # (2 vCPU Xeon); sets how many blocks a run of a given length holds
    block_seconds = 1.0
    warmup_params: dict = {}

    def cells(self) -> list:
        raise NotImplementedError

    def draw(self, rng: random.Random, cell) -> dict:
        raise NotImplementedError

    def prepare(self, params: dict) -> Job:
        raise NotImplementedError

    def check(self, job: Job, result) -> Check:
        raise NotImplementedError

    def sizes(self, job: Job, result) -> dict:
        raise NotImplementedError

    def blocks_for(self, seconds: int) -> int:
        return max(1, round(seconds / self.block_seconds))

    def block(self, seed: int, index: int) -> list[dict]:
        rng = random.Random(f"perfbench:{self.name}:{seed}:{index}")
        params = [self.draw(rng, cell) for cell in self.cells()]
        rng.shuffle(params)
        return params

    def inputs(self, seed: int, blocks: int) -> list[list[Job]]:
        return [[self.prepare(p) for p in self.block(seed, b)] for b in range(blocks)]


# ---------------------------------------------------------------------------
# named_sweep: one in-process `echosense efield-sweep`
# ---------------------------------------------------------------------------


class NamedSweep(Workload):
    name = "named_sweep"
    block_seconds = 1.35
    columns = [
        "T_s",
        "tau_opt_quantum",
        "tau_opt_classical",
        "delta_eta_sq_quantum",
        "delta_eta_sq_classical",
        "sql",
        "eps_Vm_quantum",
    ]
    warmup_params = {
        "g_hz": 3880.0, "nbar": 5.0, "gamma": 520.0, "sigma_hz": 40.0,
        "n_ions": 150, "nodes": 32, "t_min_ms": 0.2, "t_max_ms": 2.0, "t_steps": 2,
    }

    def cells(self) -> list:
        return [(t_steps, nodes) for t_steps in range(2, 7) for nodes in (32, 64)]

    def draw(self, rng, cell) -> dict:
        t_steps, nodes = cell
        while True:
            t_min = rng.uniform(0.2, 1.0)
            p = {
                "g_hz": rng.uniform(3000.0, 4500.0),
                "nbar": rng.uniform(0.0, 8.0),
                "gamma": rng.uniform(200.0, 800.0),
                "sigma_hz": rng.uniform(10.0, 60.0),
                "n_ions": rng.randint(20, 300),
                "nodes": nodes,
                "t_min_ms": t_min,
                "t_max_ms": rng.uniform(t_min + 0.2, 2.0),
                "t_steps": t_steps,
            }
            # At (g T)^2 (nbar + 1/2) / N beyond ~350 the classical protocol's
            # averaged slope underflows and efield-sweep raises ValueError
            # (see CHANGES.md); that corner, ~1% of the box, is left out.
            x = (TWO_PI * p["g_hz"] * p["t_max_ms"] * 1e-3) ** 2 * (p["nbar"] + 0.5)
            if x / p["n_ions"] <= SLOPE_EXPONENT_LIMIT:
                return p

    def prepare(self, params: dict) -> Job:
        argv = ["efield-sweep", "--format", "json"]
        for key in ("g_hz", "nbar", "gamma", "sigma_hz", "n_ions", "nodes",
                    "t_min_ms", "t_max_ms", "t_steps"):
            argv += ["--" + key.replace("_", "-"), repr(params[key])]

        def call() -> str:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"efield-sweep exited {code}: {err.getvalue().strip()}")
            return out.getvalue()

        return Job(params, call)

    def check(self, job: Job, result: str) -> Check:
        p = job.params
        problems = []
        table = json.loads(result)
        if table.get("columns") != self.columns:
            return Check(0.0, [f"unexpected columns {table.get('columns')}"])
        rows = table["rows"]
        grid = np.linspace(p["t_min_ms"] * 1e-3, p["t_max_ms"] * 1e-3, p["t_steps"])
        if len(rows) != len(grid):
            return Check(0.0, [f"{len(rows)} rows for {len(grid)} T points"])
        g = TWO_PI * p["g_hz"]
        noise = NoiseModel(sigma=TWO_PI * p["sigma_hz"], nbar=p["nbar"], gamma=p["gamma"])
        rule = sensitivity.gauss_hermite_rule(noise.sigma, p["nodes"])
        worst = 0.0
        for row, T_expect in zip(rows, grid):
            T, tau_q, tau_c, dsq_q, dsq_c = row[:5]
            if _rel(T, float(T_expect)) > 1e-12:
                problems.append(f"T={T} is off the requested grid")
            if not 0.0 < tau_q <= 0.5 * T * (1.0 + 1e-12):
                problems.append(f"tau_opt_quantum={tau_q} outside (0, T/2] at T={T}")
            if not 0.0 < tau_c <= T * (1.0 + 1e-12):
                problems.append(f"tau_opt_classical={tau_c} outside (0, T] at T={T}")
            if problems:
                continue
            # recompute delta_sq at the reported optimum through the generic
            # (Custom-schedule) kernels, which share no code with the named ones
            for variant, reported in (
                (QuantumEField(g, tau_q, T, 1.0), dsq_q),
                (ClassicalEField(g, tau_c, T, 1.0), dsq_c),
            ):
                schedule = ProtocolSpec(variant, p["n_ions"]).schedule(1.0)
                custom = ProtocolSpec(Custom(schedule), p["n_ions"])
                ref = sensitivity.averaged_sensitivity(custom, noise, rule).delta_sq
                err = _rel(reported, ref)
                worst = max(worst, err)
                if not err <= CLOSED_FORM_TOL:
                    problems.append(
                        f"{_protocol_name(variant)} delta_sq at T={T}: rel err {err:.2e}"
                    )
        return Check(worst, problems)

    def sizes(self, job: Job, result) -> dict:
        p = job.params
        return {"nodes": p["nodes"], "N": p["n_ions"], "nbar": p["nbar"],
                "T_points": p["t_steps"]}


# ---------------------------------------------------------------------------
# custom_schedule: averaged_sensitivity on a cut-up named protocol
# ---------------------------------------------------------------------------


class CustomSchedule(Workload):
    name = "custom_schedule"
    block_seconds = 5.0
    n_cells = 19
    n_ions = 150
    nodes = 64
    segment_count = {"displacement": 2, "readout": 1, "classical_efield": 2,
                     "quantum_efield": 3}
    warmup_params = {
        "protocol": "displacement", "g_hz": 3910.0, "tau_s": 2e-4, "T_s": None,
        "nbar": 5.0, "gamma": 610.0, "sigma_hz": 40.0, "cuts": [[0.5], []],
    }

    def cells(self) -> list:
        # protocol i % 4; segment s cut into 1 + (i // 4 + s) % 6 pieces, so
        # each protocol meets several piece counts; drive times and detuning
        # spread from fixed Latin strata
        return list(range(self.n_cells))

    def draw(self, rng, i) -> dict:
        protocol = PROTOCOLS[i % 4]
        n = self.n_cells
        if protocol in ("displacement", "readout"):
            tau, T = _stratum(rng, 50e-6, 400e-6, 5 * i + 2, n), None
        else:
            T = _stratum(rng, 0.2e-3, 2.0e-3, 5 * i + 2, n)
            cap = 0.95 if protocol == "classical_efield" else 0.45
            tau = T * _stratum(rng, 0.05, cap, 2 * i + 5, n)
        cuts = [
            sorted(rng.random() for _ in range((i // 4 + s) % 6))
            for s in range(self.segment_count[protocol])
        ]
        return {
            "protocol": protocol,
            "g_hz": rng.uniform(3000.0, 4500.0),
            "tau_s": tau,
            "T_s": T,
            "nbar": rng.uniform(0.0, 8.0),
            "gamma": rng.uniform(200.0, 800.0),
            "sigma_hz": _stratum(rng, 10.0, 60.0, 8 * i + 1, n),
            "cuts": cuts,
        }

    def prepare(self, params: dict) -> Job:
        p = params
        variant = _variant(p["protocol"], TWO_PI * p["g_hz"], p["tau_s"], p["T_s"], 1.0)
        named = ProtocolSpec(variant, self.n_ions)
        schedule = named.schedule(1.0)
        pieces = []
        for seg, fractions in zip(schedule.segments, p["cuts"]):
            edges = [0.0] + [f * seg.duration for f in fractions] + [seg.duration]
            pieces += [Segment(b - a, seg.g, seg.eta) for a, b in zip(edges, edges[1:])]
        custom = ProtocolSpec(Custom(PulseSchedule(tuple(pieces), schedule.kicks)), self.n_ions)
        noise = NoiseModel(sigma=TWO_PI * p["sigma_hz"], nbar=p["nbar"], gamma=p["gamma"])
        rule = sensitivity.gauss_hermite_rule(noise.sigma, self.nodes)

        def call():
            return sensitivity.averaged_sensitivity(custom, noise, rule)

        return Job(params, call, {"named": named, "noise": noise, "rule": rule,
                                  "segments": len(pieces)})

    def check(self, job: Job, result) -> Check:
        c = job.context
        ref = sensitivity.averaged_sensitivity(c["named"], c["noise"], c["rule"])
        errors = {
            "delta_sq": _rel(result.delta_sq, ref.delta_sq),
            "variance": _rel(result.variance, ref.variance),
            "slope": _rel(result.slope, ref.slope),
            "sql": _rel(result.sql, ref.sql),
        }
        problems = [
            f"{name} rel err {err:.2e} vs the named closed form"
            for name, err in errors.items()
            if not err <= CLOSED_FORM_TOL
        ]
        return Check(max(errors.values()), problems)

    def sizes(self, job: Job, result) -> dict:
        return {"nodes": self.nodes, "segments": job.context["segments"], "N": self.n_ions,
                "nbar": job.params["nbar"]}


# ---------------------------------------------------------------------------
# oracle_exact: one evolve_exact_detail
# ---------------------------------------------------------------------------

ORACLE_G = TWO_PI * 3910.0


class OracleExact(Workload):
    name = "oracle_exact"
    block_seconds = 4.2
    n_cells = 15
    warmup_params = {"protocol": "displacement", "n_ions": 4, "nbar": 0.5,
                     "delta_over_g": 0.1, "g_tau": 1.0, "T_over_tau": None}

    def cells(self) -> list:
        # protocol i % 4; N climbs with i; nbar and g*tau from fixed Latin
        # strata, so every block holds the same spread of Fock cutoffs
        return list(range(self.n_cells))

    def draw(self, rng, i) -> dict:
        protocol = PROTOCOLS[i % 4]
        return {
            "protocol": protocol,
            "n_ions": 2 + int(_stratum(rng, 0.0, 11.0, i, self.n_cells)),
            "nbar": _stratum(rng, 0.0, 2.0, 2 * i + 3, self.n_cells),
            "delta_over_g": _stratum(rng, 0.0, 0.2, 4 * i + 1, self.n_cells),
            "g_tau": _stratum(rng, 0.5, 2.0, 7 * i + 5, self.n_cells),
            "T_over_tau": None if protocol in ("displacement", "readout")
            else rng.uniform(2.2, 4.0),
        }

    def prepare(self, params: dict) -> Job:
        p = params
        tau = p["g_tau"] / ORACLE_G
        T = None if p["T_over_tau"] is None else p["T_over_tau"] * tau
        variant = _variant(p["protocol"], ORACLE_G, tau, T, 0.0)
        spec = ProtocolSpec(variant, p["n_ions"])
        delta = p["delta_over_g"] * ORACLE_G
        ensemble = oracle.ThermalEnsemble.from_nbar(p["nbar"])

        def call():
            return oracle.evolve_exact_detail(spec, delta, initial=ensemble)

        return Job(params, call, {"variant": variant, "delta": delta})

    def check(self, job: Job, result) -> Check:
        p, c = job.params, job.context
        mom = moments_at_detuning(
            _named_kernels(c["variant"], c["delta"]), p["n_ions"], NoiseModel(nbar=p["nbar"])
        )
        err = _moment_errors(result, mom)
        problems = []
        if not err <= ORACLE_TOL:
            problems.append(f"moments rel err {err:.2e} vs the closed forms")
        if not result.leakage <= 1e-10:
            problems.append(f"Fock leakage {result.leakage:.2e}")
        if not result.norm_error <= 1e-10:
            problems.append(f"norm error {result.norm_error:.2e}")
        return Check(err, problems)

    def sizes(self, job: Job, result) -> dict:
        p = job.params
        return {"N": p["n_ions"], "nbar": p["nbar"], "n_cut": result.n_cut}


# ---------------------------------------------------------------------------
# oracle_lindblad: one evolve_lindblad_detail at an explicit Fock cutoff
# ---------------------------------------------------------------------------


class OracleLindblad(Workload):
    name = "oracle_lindblad"
    block_seconds = 5.5
    warmup_params = {"n_ions": 2, "n_cut": 12, "gamma_tau": 0.2,
                     "delta_over_g": 0.1, "g_tau": 0.5}

    def cells(self) -> list:
        # N = 2 in cells 0-3, with n_cut from the quarters of 12-20; N = 3 in
        # cells 4-6, where a job costs ~4x more, with n_cut from the thirds of
        # 12-17; g*tau, Gamma*tau and delta/g from fixed Latin strata
        return list(range(7))

    def draw(self, rng, i) -> dict:
        n_ions = 2 if i < 4 else 3
        n_cut = 12 + int(_stratum(rng, 0.0, 9.0, i, 4) if n_ions == 2
                         else _stratum(rng, 0.0, 6.0, i - 4, 3))
        return {
            "n_ions": n_ions,
            "n_cut": n_cut,
            "gamma_tau": _stratum(rng, 0.05, 0.5, 2 * i + 3, 7),
            "delta_over_g": _stratum(rng, 0.0, 0.2, 3 * i + 1, 7),
            "g_tau": _stratum(rng, 0.5, 1.0, 5 * i + 2, 7),
        }

    def prepare(self, params: dict) -> Job:
        p = params
        tau = p["g_tau"] / ORACLE_G
        gamma = p["gamma_tau"] / tau
        variant = Displacement(ORACLE_G, tau, 0.0)
        spec = ProtocolSpec(variant, p["n_ions"])
        delta = p["delta_over_g"] * ORACLE_G

        def call():
            return oracle.evolve_lindblad_detail(
                spec, delta, n_cut=p["n_cut"], nbar=0.0, gamma=gamma
            )

        return Job(params, call, {"variant": variant, "delta": delta, "gamma": gamma,
                                  "t_odf": spec.schedule().odf_on_time})

    def check(self, job: Job, result) -> Check:
        p, c = job.params, job.context
        mom = moments_at_detuning(
            _named_kernels(c["variant"], c["delta"]), p["n_ions"], NoiseModel(gamma=c["gamma"])
        )
        invariant = deformed_transverse_invariant(p["n_ions"], c["gamma"], c["t_odf"])
        err_mom = _moment_errors(result, mom)
        err_inv = _rel(result.jpm_sym, invariant)
        problems = []
        if not err_mom <= ORACLE_TOL:
            problems.append(f"moments rel err {err_mom:.2e} vs the damped closed forms")
        if not err_inv <= ORACLE_TOL:
            problems.append(f"deformed invariant rel err {err_inv:.2e}")
        if not result.trace_error <= 1e-8:
            problems.append(f"trace error {result.trace_error:.2e}")
        return Check(max(err_mom, err_inv), problems)

    def sizes(self, job: Job, result) -> dict:
        p = job.params
        return {"N": p["n_ions"], "n_cut": p["n_cut"], "gamma_tau": p["gamma_tau"]}


WORKLOADS = {w.name: w for w in (NamedSweep(), CustomSchedule(), OracleExact(), OracleLindblad())}


def check_input(workload: str, params: dict, result) -> tuple[float, list, dict]:
    """Check one output against its reference; runs in a worker process.

    Returns the worst relative error, the problems found and the input's
    size properties.
    """
    wl = WORKLOADS[workload]
    job = wl.prepare(params)
    try:
        outcome = wl.check(job, result)
    except Exception as exc:  # reported as a failed job by the caller
        return 0.0, [f"check raised {type(exc).__name__}: {exc}"], {}
    return outcome.rel_err, outcome.problems, wl.sizes(job, result)


def digest(jobs: list[Job]) -> str:
    """sha256 over the canonical JSON of every input, in run order."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps(job.params, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
