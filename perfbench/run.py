#!/usr/bin/env python3
"""The repository benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload synth_exp6 --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths resolve from this
file). The package is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.

A run sets the workload up at least five times and for at least two seconds
(``setup_s`` is the median), then repeats passes until ``--seconds`` are used,
with at least two passes. With ``--trace 0`` no function is wrapped and the
end-to-end metrics are reported. With ``--trace 1`` untraced and traced passes
alternate; the traced ones give the per-layer metrics, the differences of
adjacent pairs give ``trace.overhead_s``, and on ``synth_exp6`` a sweep of
single EXP6 steps at batch sizes 32, 128 and 512 follows (its metrics are 0
on the other workloads, which make no kernel calls). Every metric
named in ``BENCHMARK.json`` is printed with its unit as the last stdout line;
check verdicts and a metric table go to stderr, and the full record (with the
environment, and in traced runs every span) is written under
``perfbench/.work/``.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from tracer import SpanStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 2.0
MIN_PASSES = 2
SWEEP_WORKLOAD = "synth_exp6"
SWEEP_STEPS = {32: 20, 128: 8, 512: 3}   # EXP6 steps traced per batch size
SWEEP_PARTS = ("step_ms", "kernels.bandwidth_ms", "kernels.value_ms", "kernels.grad_ms",
               "kernels.self_ms", "net.self_ms", "trainer.self_ms")

# span names the per-layer metrics are defined on
BANDWIDTH = ("kernels.resolve_sigma", "kernels.median_bandwidth")
VALUE = ("kernels.mmd_raw", "kernels.cmmd_raw", "kernels.mmd", "kernels.cmmd")
GRAD = ("kernels.mmd_with_grad", "kernels.cmmd_with_grad")
EXPECTED_SPANS = BANDWIDTH + VALUE + GRAD + (
    "net.forward_features", "net.compute_losses", "net.backward",
    "trainer.train", "trainer.sgd_step",
    "evaluation.evaluate", "evaluation.loso_split", "evaluation.run_protocol",
    "data.load_dataset", "data.load_raw_recording", "data.save_features",
    "features.build_feature_vector", "cli.main",
)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[max(0, math.ceil(q / 100 * len(values)) - 1)]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    # OpenBLAS starts its worker threads beside the main one at the first
    # call, so the process's thread count is then the BLAS thread count
    np.ones((64, 64)) @ np.ones((64, 64))
    try:
        status = Path("/proc/self/status").read_text()
        threads = next(int(line.split()[1]) for line in status.splitlines()
                       if line.startswith("Threads:"))
    except (OSError, StopIteration):
        threads = None
    try:
        backend = getattr(importlib.import_module("ddalign._accel"), "ACTIVE_BACKEND", "absent")
    except ImportError:
        backend = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": threads,
        "accel_backend": backend,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_passes(workload, seconds: float, trace: bool, checks, tracer):
    """Alternate untraced and (with ``trace``) traced passes until time is up."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            tracer.install()
            try:
                result = workload.run_pass(checks, tracer)
            finally:
                tracer.restore()
            traced.append(result)
        else:
            result = workload.run_pass(checks)
            untraced.append(result)
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        done = untraced + traced
        typical = median(p.wall_s for p in done)
        if (len(done) >= MIN_PASSES
                and time.perf_counter() - start + typical > seconds):
            return untraced, traced


def end_to_end(setup_s, passes, checks) -> dict:
    """Medians over passes, except the request mean, taken over all requests.

    A virtual CPU shared with other tenants can alternate between two speeds
    every fraction of a second, and a short request runs at one or the other.
    The median request then sits at whichever mode holds just over half of
    the samples and flips between runs; the mean moves with the share of each
    mode instead. The 90th
    percentile is taken per pass and then the median over passes, so one pass
    that met a busy moment moves it little. The peak memory is read after the
    first pass: later passes can raise it a little through heap fragmentation,
    and how many passes fit in a run depends on the host's speed.
    """
    lat = [ms for p in passes for ms in p.latencies_ms]
    return {
        "setup_s": median(setup_s),
        "wall_s": median(p.wall_s for p in passes),
        "items_per_s": median(p.items / p.work_s for p in passes if p.work_s > 0),
        "request_ms_mean": sum(lat) / len(lat) if lat else 0.0,
        "request_ms_p90": median(percentile(p.latencies_ms, 90) for p in passes),
        "peak_rss_mb": passes[0].peak_rss_mb,
        "ok_ratio": (checks.attempted - checks.failed) / max(checks.attempted, 1),
    }


def per_layer(tracer, untraced, traced, items: str) -> dict:
    stats = SpanStats(tracer)
    n = max(len(traced), 1)
    steps = stats.count(["trainer.sgd_step"])
    return {
        "kernels.bandwidth_s": stats.inclusive(BANDWIDTH) / n,
        "kernels.value_s": stats.inclusive(VALUE) / n,
        "kernels.grad_s": stats.inclusive(GRAD) / n,
        "kernels.self_s": stats.layer_self("kernels") / n,
        "kernels.calls_per_step": stats.boundary_calls("kernels") / steps if steps else 0.0,
        "net.forward_s": stats.inclusive(["net.forward_features"]) / n,
        "net.compute_losses_self_s": stats.span_self("net.compute_losses") / n,
        "net.backward_self_s": stats.span_self("net.backward") / n,
        "trainer.sgd_step_s": stats.inclusive(["trainer.sgd_step"]) / n,
        "trainer.loop_self_s": stats.span_self("trainer.train") / n,
        "trainer.steps": steps / n,
        "evaluation.evaluate_s": stats.inclusive(["evaluation.evaluate"]) / n,
        "evaluation.loso_split_s": stats.inclusive(["evaluation.loso_split"]) / n,
        "data.load_dataset_s": stats.inclusive(["data.load_dataset"]) / n,
        "data.load_raw_s": stats.inclusive(["data.load_raw_recording"]) / n,
        "data.save_features_s": stats.inclusive(["data.save_features"]) / n,
        "features.build_s": stats.layer_self("features") / n,
        "features.windows": sum(p.items for p in traced) / n if items == "windows" else 0.0,
        "cli.self_s": stats.layer_self("cli") / n,
        "trace.overhead_s": trace_overhead(untraced, traced),
    }


def trace_overhead(untraced, traced) -> float:
    """Median of traced minus untraced wall time over adjacent pass pairs, so
    that a slow phase of the host falls on both sides of a difference."""
    return median(t.wall_s - u.wall_s for u, t in zip(untraced, traced))


def overhead_resolved(untraced, traced) -> bool:
    """Whether the overhead is positive and exceeds the range of the untraced
    passes; tracing cannot make a pass faster, so a negative one is noise."""
    walls = [p.wall_s for p in untraced]
    return len(walls) >= 2 and trace_overhead(untraced, traced) > max(walls) - min(walls)


def sweep_metric(batch: int, part: str) -> str:
    return f"sweep.b{batch}.{part}"


def sweep(seed: int, checks) -> dict:
    """Per-step layer times of EXP6 at each batch size in SWEEP_STEPS."""
    from ddalign import data, trainer
    from workloads import SYNTH_TASKS, params_digest

    out = {}
    for batch, steps in SWEEP_STEPS.items():
        task = data.generate_synth_shift(replace(
            data.ACCEPT_SYNTH, seed=seed % SYNTH_TASKS, n_per_class=math.ceil(batch / 3)))
        args = (task.source.features[:batch], task.source.labels[:batch],
                task.target_features[:batch],
                trainer.TrainConfig(batch_size=batch, epochs=steps, seed=seed,
                                    flags=trainer.VARIANTS["EXP6"]))
        with Tracer().install() as tracer:
            traced = trainer.train(*args)
        if batch == min(SWEEP_STEPS):
            checks.check("tracing_keeps_params",
                         params_digest(trainer.train(*args).params) == params_digest(traced.params))
        stats = SpanStats(tracer)
        seconds = (stats.inclusive(["trainer.train"]), stats.inclusive(BANDWIDTH),
                   stats.inclusive(VALUE), stats.inclusive(GRAD), stats.layer_self("kernels"),
                   stats.layer_self("net"), stats.layer_self("trainer"))
        for part, s in zip(SWEEP_PARTS, seconds):
            out[sweep_metric(batch, part)] = 1e3 * s / steps
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Run one workload; returns the record with its metrics, checks and spans.

    The package must be importable (``src/`` on ``sys.path``) before the call.
    """
    from workloads import WORKLOADS, Checks

    cls = WORKLOADS[workload_name]
    workdir = WORK / workload_name
    workload = cls(seed, workdir) if size is None else cls(seed, workdir, size)
    checks = Checks()
    tracer = Tracer()
    setup_s, untraced, traced, values = [], [], [], {}
    try:
        while len(setup_s) < SETUP_MAX_REPEATS and (
                len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS):
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        untraced, traced = run_passes(workload, seconds, trace, checks, tracer)
        if trace:
            values = per_layer(tracer, untraced, traced, cls.ITEMS)
            if workload_name == SWEEP_WORKLOAD:
                values.update(sweep(seed, checks))
            else:
                values.update(dict.fromkeys(
                    (sweep_metric(b, part) for b in SWEEP_STEPS for part in SWEEP_PARTS), 0.0))
        else:
            values = end_to_end(setup_s, untraced, checks)
    except Exception:  # a crashing workload is a failed operation, reported below
        checks.check("workload_completed", False, traceback.format_exc(limit=3))
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": {"untraced": [vars(p) | {"latencies_ms": len(p.latencies_ms)} for p in untraced],
                   "traced": [vars(p) | {"latencies_ms": len(p.latencies_ms)} for p in traced]},
        "checks": checks, "values": values,
        "absent_spans": tracer.absent(EXPECTED_SPANS) if trace else [],
        "trace_overhead_resolved": overhead_resolved(untraced, traced) if trace else None,
        "tracer": tracer,
    }


def result_line(record: dict, spec: dict) -> dict:
    """The final stdout object: exactly correct, attempted, failed, metrics."""
    checks = record["checks"]
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {
        m["name"]: {"value": float(record["values"].get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec[kind]
    }
    return {"correct": checks.correct and set(record["values"]) >= set(metrics),
            "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ddalign" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'ddalign'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(record, spec)

    for name, (passed, total, detail) in sorted(record["checks"].verdicts.items()):
        verdict = "PASS" if passed == total else "FAIL"
        print(f"[perfbench] check {name}: {verdict} ({passed}/{total}) {detail}".rstrip(),
              file=sys.stderr)
    for name in record["absent_spans"]:
        print(f"[perfbench] absent: {name}", file=sys.stderr)
    if args.trace and not record["trace_overhead_resolved"]:
        print("[perfbench] trace.overhead_s is unresolved: within the range of the untraced"
              " passes", file=sys.stderr)
    for name, m in line["metrics"].items():
        print(f"[perfbench] {name:>34} = {m['value']:.6g} {m['unit']}", file=sys.stderr)

    WORK.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {k: v for k, v in record.items() if k not in ("checks", "tracer", "values")}
    full.update(env=env, result=line, checks=record["checks"].verdicts)
    (WORK / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if args.trace:
        record["tracer"].write(WORK / f"{stem}-spans.csv")
    print(json.dumps({"env": env}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
