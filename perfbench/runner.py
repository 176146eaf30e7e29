"""Measurement loop, metrics and result record of one benchmark run.

Inputs are written to `.perfbench_out/work-*` and removed afterwards; the
result with its environment record and, for traced runs, the spans stay in
`.perfbench_out/`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy

from planloc import metrics

import layers
import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        return (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        return None


def _source_digest() -> str:
    """The checkout need not be a git repository, so the sources are hashed."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(threads: dict, nproc: int) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "threads": threads,
    }


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least TAIL_BEYOND samples above it, but never below the median."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0, n // 2
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


@contextmanager
def _traced(tracer: Tracer, op: str):
    """Wrap the package and record a `bench.<kind>` root span tagged `op`."""
    with tracer.installed(layers.TARGETS), tracer.span(f"bench.{op.rstrip('0123456789')}", op=op):
        yield


def _maybe_traced(tracer: Tracer | None, op: str, fn):
    if tracer is None:
        return fn()
    with _traced(tracer, op):
        return fn()


def measure(workload, seconds: float, tracer: Tracer | None = None) -> list:
    """Run operations for `seconds`, and at least `workload.min_ops` of them.

    With a tracer every second operation is traced and the others run
    unwrapped, so the overhead compares operations run under the same machine
    state. Returns one (seconds, traced, OpResult) per operation.
    """
    ops = []
    start = time.perf_counter()
    k = 0
    while k < workload.min_ops or time.perf_counter() - start < seconds:
        traced = tracer is not None and k % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                with _traced(tracer, f"op{k}"):
                    handle = workload.run_op(k)
            else:
                handle = workload.run_op(k)
            elapsed = time.perf_counter() - t0
            result = workload.collect(k, handle)
        except Exception:  # a raising operation counts as failed; keep measuring
            elapsed = time.perf_counter() - t0
            result = workloads.OpResult(1, 1, 1, [], [f"op {k} raised:\n{traceback.format_exc()}"])
        ops.append((elapsed, traced, result))
        k += 1
    return ops


def end_to_end(setup_times, ops, accuracy_ops, report: metrics.MetricsReport) -> dict:
    seconds = sum(t for t, _, _ in ops)
    trials = sum(r.trials for _, _, r in ops)
    # like the accuracy, the localized share is taken over the first
    # operations only, so it depends on the seed alone
    first_trials = sum(r.trials for _, _, r in accuracy_ops)
    first_failed = sum(r.failed for _, _, r in accuracy_ops)
    latencies = [t * 1e3 for t, _, _ in ops]
    tail_ms, tail_pct, beyond = tail(latencies)
    print(f"{len(ops)} requests; request_tail_ms is p{tail_pct:.1f} with {beyond} beyond it")
    return {
        "setup_s": statistics.median(setup_times),
        "trials_per_s": trials / seconds,
        "frames_per_s": sum(r.frames for _, _, r in ops) / seconds,
        "requests_per_s": len(ops) / seconds,
        "request_p50_ms": statistics.median(latencies),
        "request_tail_ms": tail_ms,
        "localized_pct": 100.0 * (first_trials - first_failed) / first_trials,
        "rmse_mm": report.accuracy_rmse_mm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, ops, report: metrics.MetricsReport) -> dict:
    frames_by_op = {f"op{k}": r.frames for k, (_, traced, r) in enumerate(ops) if traced}

    def frame_ms(traced: bool) -> float:
        chosen = [(t, r.frames) for t, was_traced, r in ops if was_traced == traced]
        return 1e3 * sum(t for t, _ in chosen) / max(sum(f for _, f in chosen), 1)

    values = layers.summarize(tracer, frames_by_op, frame_ms(True), frame_ms(False))
    values["metrics.pos_trace_mm2"] = report.pos_trace_mm2
    return values


def run(name: str, seed: int, seconds: float, trace: bool, size=workloads.FULL):
    """One benchmark run. Returns the result object that is printed last and
    the raw timings (set-up and per-operation seconds) kept in the record."""
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](seed, size, work)
    tracer = Tracer() if trace else None
    try:
        setup_times = []
        for rep in range(workload.setup_reps):
            t0 = time.perf_counter()
            _maybe_traced(tracer, f"setup{rep}", lambda: workload.setup(rep))
            setup_times.append(time.perf_counter() - t0)
        ops = measure(workload, seconds, tracer)
        errors = [e for _, _, r in ops for e in r.errors]
        try:
            errors += _maybe_traced(tracer, "check", workload.check)
        except Exception:
            errors.append(f"check raised:\n{traceback.format_exc()}")
        # accuracy over the first `min_ops` operations, a function of the seed
        accuracy_ops = ops[: workload.min_ops]
        gated = [g for _, _, r in accuracy_ops for g in r.gated]
        report = _maybe_traced(tracer, "report", lambda: metrics.compute_report(gated))
        if not report.accuracy_rmse_mm <= workloads.RMSE_TOLERANCE_MM:
            errors.append(
                f"selective x weighted prism RMSE {report.accuracy_rmse_mm:.2f} mm "
                f"exceeds {workloads.RMSE_TOLERANCE_MM} mm"
            )
        if trace:
            values = per_layer(tracer, ops, report)
            tracer.write(OUT_DIR / f"{name}-seed{seed}.spans.jsonl")
        else:
            values = end_to_end(setup_times, ops, accuracy_ops, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    # counted over the first `min_ops` operations, which every run makes
    # whatever the machine's speed, so the counts depend on the seed alone;
    # an operation that raises later still fails the run through `errors`
    result = {
        "correct": not errors,
        "attempted": sum(r.trials for _, _, r in accuracy_ops),
        "failed": sum(r.failed for _, _, r in accuracy_ops),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in SPEC["per_layer" if trace else "end_to_end"]
        },
    }
    timings = {"setup_s": setup_times, "op_s": [t for t, _, _ in ops],
               "op_traced": [traced for _, traced, _ in ops]}
    return result, timings


def main(args, threads: dict, nproc: int) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(threads, nproc)
    print("environment: " + json.dumps(env))
    result, timings = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps({"environment": env, "args": vars(args), "timings": timings, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1
