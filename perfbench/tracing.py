"""In-memory spans around the package's layer boundaries, and per-layer metrics.

The hooks wrap module attributes from outside the package: the entry points
the workloads call (``cli.main``, ``sensitivity.averaged_sensitivity``,
``oracle.evolve_exact_detail``, ``oracle.evolve_lindblad_detail``) and the
names those layers look up at call time (``cli.optimize_tau``, the
``kernels_*`` and ``moments_at_detuning`` names in ``sensitivity``,
``numpy.linalg.eigh`` and ``oracle.solve_ivp``).  A hook whose target no
longer exists is skipped and its layer reported absent.

A span is ``[name, start, end, parent, job, attrs]``; ``parent`` indexes the
enclosing span (-1 at a job's root).  Self time is a span's duration minus the
durations of its direct children (the package is single-threaded, so children
never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import warnings
from time import perf_counter

import numpy as np


class Tracer:
    """Spans of one traced run, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = {**(span[5] or {}), **attrs(args, result)}
            return result

        return traced

    def annotate(self, **values) -> None:
        """Attach values to the innermost open span."""
        span = self.spans[self.stack[-1]]
        span[5] = {**(span[5] or {}), **values}

    def write(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "job": job, **(attrs or {}),
                }) + "\n")


def _nodes(args, result) -> dict:
    return {"nodes": int(np.size(result.p))}


def _moment_nodes(args, result) -> dict:
    return {"nodes": int(np.size(result.jy_sq))}


def _eigh_dim(args, result) -> dict:
    return {"dim": int(np.shape(args[0])[-1])}


def _exact_attrs(args, result) -> dict:
    return {"n_cut": result.n_cut, "leakage": result.leakage,
            "norm_error": result.norm_error}


def _lindblad_attrs(args, result) -> dict:
    return {"trace_error": result.trace_error}


def _nfev(args, result) -> dict:
    return {"nfev": int(result.nfev)}


def _fallback_probe(tracer: Tracer, fn):
    """Run optimize_tau recording whether it fell back to the coarse grid.

    The fallback announces itself with a RuntimeWarning; it is recorded on
    the span and re-emitted so the caller's own warning filters still apply.
    """

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        tracer.annotate(fallback=int(any(
            issubclass(w.category, RuntimeWarning) and "unimodal" in str(w.message)
            for w in caught
        )))
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    return probe


NAMED_KERNELS = ("kernels_displacement", "kernels_readout", "kernels_classical_efield",
                 "kernels_quantum_efield")

# (module, attribute, layer, attrs)
HOOKS = [
    ("echosense.cli", "main", "cli.main", None),
    ("echosense.cli", "optimize_tau", "sensitivity.optimize_tau", None),
    ("echosense.sensitivity", "averaged_sensitivity", "sensitivity.averaged_sensitivity", None),
    *[("echosense.sensitivity", name, "kernels.named", _nodes) for name in NAMED_KERNELS],
    ("echosense.sensitivity", "kernels_generic", "kernels.generic", _nodes),
    ("echosense.sensitivity", "moments_at_detuning", "moments", _moment_nodes),
    ("echosense.oracle", "evolve_exact_detail", "oracle.exact", _exact_attrs),
    ("echosense.oracle", "evolve_lindblad_detail", "oracle.lindblad", _lindblad_attrs),
    ("numpy.linalg", "eigh", "oracle.eigh", _eigh_dim),
    ("echosense.oracle", "solve_ivp", "oracle.solve_ivp", _nfev),
]

LAYERS = sorted({layer for _, _, layer, _ in HOOKS})


def missing_hooks() -> list[str]:
    """``module.attribute`` of every hook target that does not exist."""
    missing = []
    for module_name, attr, _, _ in HOOKS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        if getattr(module, attr, None) is None:
            missing.append(f"{module_name}.{attr}")
    return missing


def absent_layers(missing: list[str]) -> list[str]:
    """Layers none of whose hook targets exist."""
    present = {layer for module, attr, layer, _ in HOOKS if f"{module}.{attr}" not in missing}
    return [layer for layer in LAYERS if layer not in present]


@contextlib.contextmanager
def hooks_installed(tracer: Tracer, job: int):
    """Wrap every existing hook target for the duration of one job."""
    saved = []
    tracer.job = job
    try:
        for module_name, attr, layer, attrs in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            fn = _fallback_probe(tracer, original) if layer == "sensitivity.optimize_tau" else original
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(layer, fn, attrs))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        tracer.job = None


def layer_metrics(spans: list[list], jobs: int) -> dict:
    """Per-layer metrics, normalised per traced job where they are totals."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = {layer: 0 for layer in LAYERS}
    total = {layer: 0.0 for layer in LAYERS}
    self_time = {layer: 0.0 for layer in LAYERS}
    attrs: dict[str, list[dict]] = {layer: [] for layer in LAYERS}
    opt = "sensitivity.optimize_tau"
    avg = "sensitivity.averaged_sensitivity"
    objective_evals = 0  # averaged_sensitivity calls made directly by optimize_tau
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[i]
        attrs[name].append(extra or {})
        if name == avg and parent >= 0 and spans[parent][0] == opt:
            objective_evals += 1

    def per_job(x: float) -> float:
        return x / jobs

    def ms(x: float) -> float:
        return 1e3 * x / jobs

    def values(layer: str, key: str) -> list:
        # a call that raised recorded no attributes
        return [a[key] for a in attrs[layer] if key in a]

    def rate(layer: str, key: str) -> float:
        seconds = total[layer]
        return sum(values(layer, key)) / seconds if seconds > 0.0 else 0.0

    def mean(layer: str, key: str) -> float:
        found = values(layer, key)
        return sum(found) / len(found) if found else 0.0

    def worst(layer: str, key: str) -> float:
        return max(values(layer, key), default=0.0)

    m = {
        "cli.main.calls": (per_job(calls["cli.main"]), "calls/job"),
        "cli.main.self_ms": (ms(self_time["cli.main"]), "ms/job"),
        f"{opt}.calls": (per_job(calls[opt]), "calls/job"),
        f"{opt}.self_ms": (ms(self_time[opt]), "ms/job"),
        f"{opt}.objective_evals": (
            objective_evals / calls[opt] if calls[opt] else 0.0, "evals/call"),
        f"{opt}.fallback_ratio": (mean(opt, "fallback"), "ratio"),
        f"{avg}.calls": (per_job(calls[avg]), "calls/job"),
        f"{avg}.self_ms": (ms(self_time[avg]), "ms/job"),
    }
    for layer in ("kernels.named", "kernels.generic", "moments"):
        m[f"{layer}.calls"] = (per_job(calls[layer]), "calls/job")
        m[f"{layer}.ms"] = (ms(total[layer]), "ms/job")
        m[f"{layer}.node_evals_per_s"] = (rate(layer, "nodes"), "1/s")
    m.update({
        "oracle.exact.calls": (per_job(calls["oracle.exact"]), "calls/job"),
        "oracle.exact.self_ms": (ms(self_time["oracle.exact"]), "ms/job"),
        "oracle.eigh.calls": (per_job(calls["oracle.eigh"]), "calls/job"),
        "oracle.eigh.ms": (ms(total["oracle.eigh"]), "ms/job"),
        "oracle.eigh.dim_mean": (mean("oracle.eigh", "dim"), "dim"),
        "oracle.n_cut_mean": (mean("oracle.exact", "n_cut"), "levels"),
        "oracle.leakage_max": (worst("oracle.exact", "leakage"), "prob"),
        "oracle.norm_error_max": (worst("oracle.exact", "norm_error"), "abs"),
        "oracle.lindblad.calls": (per_job(calls["oracle.lindblad"]), "calls/job"),
        "oracle.lindblad.self_ms": (ms(self_time["oracle.lindblad"]), "ms/job"),
        "oracle.lindblad.trace_error_max": (worst("oracle.lindblad", "trace_error"), "abs"),
        "oracle.solve_ivp.calls": (per_job(calls["oracle.solve_ivp"]), "calls/job"),
        "oracle.solve_ivp.ms": (ms(total["oracle.solve_ivp"]), "ms/job"),
        "oracle.solve_ivp.nfev": (mean("oracle.solve_ivp", "nfev"), "evals/call"),
    })
    return m
