"""echosense benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload named_sweep --seed 1 --seconds 16 --trace 0

The run imports echosense from ``src/`` of the checkout.  Load is a closed
loop with one client in this process: each job starts when the previous one
ends.  BLAS is pinned to at most ``nproc`` threads before numpy is imported.

Phases of a run:

1. set-up, timed ``SETUP_SAMPLES`` times (twice in fresh interpreters, once
   here): import echosense, generate the seeded inputs, run one untimed
   warm-up job on a fixed input.  ``setup_s`` is the median.
2. the timed blocks: a fixed number of whole input blocks, as many as take
   ``--seconds`` at this commit on the reference machine (see
   ``workloads.py``), so every run of a workload has the same job count.
   With ``--trace 1`` every job runs twice, once plain and once wrapped by the
   tracing hooks, in alternating order, and the two outputs must agree.
3. the checks, untimed, after each block and before the next: every output
   against a reference that does not share its code path, in ``nproc``
   checker processes of this script that every way out of the run stops and
   waits for.  A failing job counts in ``failed``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record with the machine,
library versions, inputs digest and every failure is written to
``perfbench/out/``, together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("named_sweep", "custom_schedule", "oracle_exact", "oracle_lindblad")
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time one set-up and print it (used internally)")
    parser.add_argument("--check-worker", action="store_true",
                        help="serve checks to the parent run over stdin/stdout (used internally)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    threads = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def timed_setup(workload: str, seed: int, seconds: int):
    """Import echosense, generate the inputs and run the warm-up job."""
    start = perf_counter()
    import echosense  # noqa: F401  (the import is part of what is timed)
    import workloads

    wl = workloads.WORKLOADS[workload]
    blocks = wl.inputs(seed, wl.blocks_for(seconds))
    wl.prepare(wl.warmup_params).call()
    return perf_counter() - start, wl, blocks


def setup_in_fresh_interpreter(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def check_worker() -> int:
    """Answer each pickled batch of checks on stdin with a pickled list of results."""
    import workloads

    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # whatever the package prints goes to stderr, not into the replies
    pickle.dump("ready", replies)
    replies.flush()
    while True:
        try:
            batch = pickle.load(requests)
        except EOFError:
            return 0
        pickle.dump([workloads.check_input(*task) for task in batch], replies)
        replies.flush()


class CheckPool:
    """``nproc`` checker processes of this script, stopped and waited for on exit.

    The constructor returns once every checker has imported the package, so
    their start-up does not overlap a timed block.

    multiprocessing is not used: it leaves a resource-tracker process behind
    that nothing waits for.
    """

    def __init__(self, workload: str, seed: int):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--check-worker"]
        self.workers = []
        try:
            for _ in range(nproc()):
                self.workers.append(subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                                     stdout=subprocess.PIPE))
            for worker in self.workers:
                if pickle.load(worker.stdout) != "ready":
                    raise RuntimeError("checker process did not start")
        except BaseException:
            self.close(kill=True)
            raise

    def map(self, tasks: list) -> list:
        """Run ``workloads.check_input(*task)`` for every task; results in task order."""
        n = len(self.workers)
        for i, worker in enumerate(self.workers):
            pickle.dump(tasks[i::n], worker.stdin)
            worker.stdin.flush()
        results = [None] * len(tasks)
        for i, worker in enumerate(self.workers):
            results[i::n] = pickle.load(worker.stdout)
        return results

    def close(self, kill: bool = False) -> None:
        for worker in self.workers:
            if kill:
                worker.kill()
            try:
                worker.stdin.close()
            except OSError:
                pass
        for worker in self.workers:
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            worker.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(kill=exc_type is not None)


def run_job(job):
    """Run one job; return (latency_s, result, error)."""
    start = perf_counter()
    try:
        result, error = job.call(), None
    except Exception as exc:  # a failing job is counted, never allowed to stop the run
        result, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, result, error


def run_traced(tracer, n: int, job) -> dict:
    import tracing

    with tracing.hooks_installed(tracer, n):
        latency, result, error = run_job(job)
    return {"traced_latency": latency, "traced_result": result, "traced_error": error}


def run_blocks(workload: str, seed: int, blocks, tracer=None):
    """Run every block; return (records, timed seconds, start of the first block).

    After each block its outputs are checked against their references in
    ``nproc`` checker processes, before the next block starts; the timed
    seconds cover the blocks only.  With a tracer each job also runs wrapped
    by the tracing hooks, after its plain run for even jobs and before it for
    odd ones.
    """
    records, timed, origin = [], 0.0, None
    with CheckPool(workload, seed) as pool:
        for block in blocks:
            start = perf_counter()
            origin = start if origin is None else origin
            done = []
            for job in block:
                n = len(records) + len(done)
                rec = {"job": job}
                if tracer is not None and n % 2:
                    rec.update(run_traced(tracer, n, job))
                rec["latency"], rec["result"], rec["error"] = run_job(job)
                if tracer is not None and not n % 2:
                    rec.update(run_traced(tracer, n, job))
                done.append(rec)
            timed += perf_counter() - start
            checked = [rec for rec in done if not rec["error"]]
            outcomes = pool.map([(workload, rec["job"].params, rec["result"])
                                 for rec in checked])
            for rec, outcome in zip(checked, outcomes):
                rec["check"] = outcome
            records += done
    return records, timed, origin


def failures_of(records, traced: bool):
    """Collect every failed job; return (failures, worst rel err, input sizes)."""
    failures, worst, sizes = [], 0.0, []
    for n, rec in enumerate(records):
        problems = [rec["error"]] if rec["error"] else []
        if "check" in rec:
            rel_err, found, size = rec["check"]
            worst = max(worst, rel_err)
            problems += found
            if size:
                sizes.append(size)
        if traced and rec["traced_error"]:
            problems.append(f"traced run: {rec['traced_error']}")
        elif traced and rec["traced_result"] != rec["result"]:
            problems.append("traced and plain runs gave different outputs")
        if problems:
            failures.append({"job": n, "params": rec["job"].params, "problems": problems})
    return failures, worst, sizes


def summarize_sizes(sizes: list[dict]) -> dict:
    out = {}
    for key in sizes[0] if sizes else ():
        values = [s[key] for s in sizes]
        out[key] = {"min": min(values), "mean": sum(values) / len(values), "max": max(values)}
    return out


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _openblas_libraries() -> list[dict]:
    """Runtime thread count and build string of every loaded OpenBLAS."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({
            line.split()[-1] for line in fh
            if "openblas" in line.lower() and ".so" in line.split()[-1]
        })
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        libs.append(entry)
    return libs


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = _openblas_libraries()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "echosense").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_libraries": blas,
        "blas_threads": max((lib.get("threads", 0) for lib in blas), default=0),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "workload": workload,
        "workloads": list(WORKLOAD_NAMES),
    }


def end_to_end_metrics(samples, records, elapsed, peak_rss_mb, failures, record, lines) -> dict:
    attempted = len(records)
    latencies_ms = [1e3 * rec["latency"] for rec in records]
    tail_ms, tail_pct = tail(latencies_ms)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "jobs_per_s": (attempted / elapsed, "1/s"),
        "job_ms_p50": (statistics.median(latencies_ms), "ms"),
        "job_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record["job_ms_tail_percentile"] = tail_pct
    lines += [
        f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(samples)})",
        f"jobs_per_s {metrics['jobs_per_s'][0]:.4f} 1/s ({attempted} jobs in {elapsed:.2f} s)",
        f"job_ms_p50 {metrics['job_ms_p50'][0]:.3f} ms",
        f"job_ms_tail {tail_ms:.3f} ms (p{tail_pct:.1f} of {attempted} jobs,"
        f" {10 if attempted > 10 else 0} beyond)",
        f"fail_ratio {len(failures) / attempted:.4g} ({len(failures)}/{attempted} jobs)",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB",
    ]
    return metrics


def per_layer_metrics(args, tracer, records, worst, origin, record, lines) -> dict:
    import tracing

    missing = tracing.missing_hooks()
    absent = tracing.absent_layers(missing)
    metrics = tracing.layer_metrics(tracer.spans, len(records))
    metrics["check.max_rel_err"] = (worst, "rel")
    metrics["trace.overhead_ratio"] = (
        sum(r["latency"] for r in records) / sum(r["traced_latency"] for r in records),
        "ratio",
    )
    metrics["trace.hooks_missing"] = (float(len(missing)), "count")
    record["missing_hooks"] = missing
    record["absent_layers"] = absent
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write(spans_path, origin)
    lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    if absent:
        lines.append("absent layers (hook targets missing, metrics read 0): " + ", ".join(absent))
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "echosense" / "__init__.py").is_file():
        print(f"perfbench: no echosense sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))

    if args.check_worker:
        return check_worker()
    if args.setup_probe:
        seconds, _, _ = timed_setup(args.workload, args.seed, args.seconds)
        print(json.dumps({"setup_s": seconds}))
        return 0

    # SIGTERM unwinds like an error, so the child processes are stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    samples = [setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]
    seconds, wl, blocks = timed_setup(args.workload, args.seed, args.seconds)
    samples.append(seconds)

    import tracing
    import workloads

    if tuple(workloads.WORKLOADS) != WORKLOAD_NAMES:
        raise RuntimeError("WORKLOAD_NAMES is out of step with workloads.WORKLOADS")
    env = environment(args.workload, args.seed)
    if env["blas_threads"] > env["nproc"]:
        print(f"perfbench: BLAS runs {env['blas_threads']} threads on {env['nproc']} CPUs",
              file=sys.stderr)
        return 1

    tracer = tracing.Tracer() if args.trace else None
    records, elapsed, origin = run_blocks(args.workload, args.seed, blocks, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failures, worst, sizes = failures_of(records, traced=bool(args.trace))
    jobs = [job for block in blocks for job in block]

    attempted = len(records)
    latencies_ms = [1e3 * rec["latency"] for rec in records]
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"inputs: sha256 {workloads.digest(jobs)} ({len(jobs)} jobs in {len(blocks)} blocks)",
    ]
    record = {
        "args": vars(args),
        "environment": env,
        "inputs": {"sha256": workloads.digest(jobs), "jobs": len(jobs),
                   "blocks": len(blocks), "sizes": summarize_sizes(sizes)},
        "timed_phase_s": elapsed,
        "setup_samples_s": samples,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "check_max_rel_err": worst,
        "jobs": [{"params": rec["job"].params, "latency_ms": ms}
                 for rec, ms in zip(records, latencies_ms)],
    }
    for key, stats in record["inputs"]["sizes"].items():
        lines.append(f"  {key}: min {stats['min']:.6g} mean {stats['mean']:.6g} max {stats['max']:.6g}")

    if args.trace:
        metrics = per_layer_metrics(args, tracer, records, worst, origin, record, lines)
    else:
        metrics = end_to_end_metrics(samples, records, elapsed, peak_rss_mb, failures, record,
                                     lines)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for failure in failures[:10]:
        lines.append(f"FAILED job {failure['job']}: {'; '.join(failure['problems'])}")
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    lines.append(f"record: {record_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
