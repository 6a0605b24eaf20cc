"""goi benchmark: set up a workload, drive it in a closed loop, report.

Usage, from the repository root:

    python3 perfbench/run.py --workload query-adversarial --seed 0 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up runs three times
or more and reports the median, then one client issues operations in
whole passes of the workload's stream until ``--seconds`` have passed.
Reference kernels (``calibrate.py``) run on a timer all through, and
every reported time leaves them out and is scaled to the machine speed
they measured.
``--trace 1`` runs the same work twice, untraced and then with every
traced goi function wrapped, and reports the per-layer metrics and the
tracing overhead; its spans go to ``.perfbench/trace-<workload>-<seed>.json``.
``--workload all`` runs each workload in its own process and prints a
table. The last line of a single-workload run is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` beside this directory, never from
an installed copy; without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3        # at least this many set-ups per run ...
SETUP_MIN_S = 3.0        # ... and more while they add up to less than this
SETUP_MAX_REPEATS = 100
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "query_p50_ms": "ms",
                    "miou": "fraction", "peak_rss_mb": "MB"}


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_blas_threads(limit: int) -> None:
    """Keep BLAS pools at most `limit` wide; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def import_goi() -> None:
    """Import goi from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import goi
    except ImportError as exc:
        sys.exit(f"cannot import goi from {src}: {exc}")
    if src not in Path(goi.__file__).resolve().parents:
        sys.exit(f"goi was imported from {goi.__file__}, not from {src}")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "blas_threads": blas_threads()}


def tail_percentile(samples, q: float) -> float | None:
    """q-th percentile, or None when fewer than ten samples lie beyond it."""
    import numpy as np
    if len(samples) * (100.0 - q) / 100.0 < 10.0:
        return None
    return float(np.percentile(samples, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary_lines(name, rec, setup_times, problems):
    lines = [f"workload {name}: {rec.steps} steps, {rec.attempted} ops, "
             f"{rec.failed} failed (ops_failed_frac "
             f"{rec.failed / max(rec.attempted, 1):.4f})"]
    if setup_times:
        lines.append(f"setup_s: n={len(setup_times)} min={min(setup_times):.4f} "
                     f"median={statistics.median(setup_times):.4f} "
                     f"max={max(setup_times):.4f}")
    for label, samples in (("op", rec.op_ms), ("query", rec.query_ms)):
        if samples:
            p90 = tail_percentile(samples, 90)
            lines.append(f"{label} latency: n={len(samples)} "
                         f"p50={statistics.median(samples):.2f} ms "
                         + (f"p90={p90:.2f} ms" if p90 is not None
                            else "p90 not reported (<100 samples)"))
    lines.append(f"miou {rec.miou:.4f} over {len(rec.iou)} distinct cases; "
                 f"camera reuse {rec.camera_reuse_frac:.3f} of {rec.queries} queries")
    lines += [f"check failed: {e}" for e in rec.errors + problems]
    return lines


def run_untraced(workload, seed, seconds, workdir):
    from calibrate import Calibration
    from workloads import Record, run_steps
    setup_spans = []
    state = None
    with Calibration(workload.reference.values()) as cal:
        while len(setup_spans) < SETUP_REPEATS or (
                sum(end - start for start, end in setup_spans) < SETUP_MIN_S
                and len(setup_spans) < SETUP_MAX_REPEATS):
            state = None   # free the previous set-up before timing the next
            t0 = cal.clock()
            state = workload.setup(seed, workdir)
            setup_spans.append((t0, cal.clock()))
        rec = Record(clock=cal.clock)
        run_steps(workload, state, rec, seconds=seconds)
    problems = workload.finish(state, rec)
    setup_times = [end - start for start, end in setup_spans]

    def scaled_p50(metric, spans_list):
        kernel = workload.reference[metric]
        return statistics.median([cal.scaled_ms(kernel, spans)
                                  for spans in spans_list]) if spans_list else 0.0

    metrics = {"setup_s": 1e-3 * scaled_p50("setup_s",
                                            [[span] for span in setup_spans]),
               "op_p50_ms": scaled_p50("op_p50_ms", rec.op_spans),
               "query_p50_ms": scaled_p50("query_p50_ms", rec.query_spans),
               "miou": rec.miou, "peak_rss_mb": peak_rss_mb()}
    result = {name: {"value": float(metrics[name]), "unit": unit}
              for name, unit in END_TO_END_UNITS.items()}
    lines = summary_lines(workload.name, rec, setup_times, problems)
    lines += [f"speed {name} {cal.speed(name):.4f} over {len(times)} kernel "
              f"runs" for name, times in cal.samples.items()]
    lines.append("the times above are as measured; each JSON time is scaled "
                 "by the speed measured around it, " + ", ".join(
                     f"{m}: {k}" for m, k in workload.reference.items()))
    return rec, problems, result, lines


def run_traced(workload, seed, seconds, workdir):
    from layers import COUNTERS, TRACED, per_layer_metrics
    from tracer import Tracer
    from workloads import Record, run_steps

    workload.setup(seed, workdir)   # warm-up, so neither half pays first calls
    t0 = perf_counter()
    state = workload.setup(seed, workdir)
    plain = Record()
    run_steps(workload, state, plain, seconds=seconds)
    problems = workload.finish(state, plain)
    untraced_wall = perf_counter() - t0
    state = None

    with Tracer() as tracer:
        tracer.install("goi", TRACED, COUNTERS)
        start = perf_counter()
        state = workload.setup(seed, workdir)
        rec = Record()
        run_steps(workload, state, rec, n_steps=plain.steps)
        problems += workload.finish(state, rec)
        end = perf_counter()
    result = per_layer_metrics(tracer.spans, start, end, untraced_wall,
                               rec.camera_reuse_frac)

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "machine": machine_facts(),
        "start": start, "end": end, "untraced_wall_s": untraced_wall,
        "span_fields": ["name", "parent", "start", "end", "counts"],
        "spans": tracer.spans}))
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.errors = plain.errors + rec.errors
    lines = summary_lines(workload.name, rec, [], problems)
    lines.append(f"trace: {len(tracer.spans)} spans -> {trace_path}")
    return rec, problems, result, lines


def run_all(args) -> int:
    """Each workload in a child process; prints one table of metrics."""
    from workloads import WORKLOADS
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            rows.append((name, "FAILED", "", f"exit code {proc.returncode}"))
            status = 1
            continue
        out = json.loads(lines[-1])
        rows.append((name, "correct", "", f"{out['correct']} "
                     f"({out['failed']}/{out['attempted']} failed)"))
        for metric, m in out["metrics"].items():
            rows.append((name, metric, m["unit"], f"{m['value']:.6g}"))
    width = max(len(r[1]) for r in rows)
    for name, metric, unit, value in rows:
        print(f"{name:18s} {metric:{width}s} {value:>14s} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cap_blas_threads(1)   # one client, one core: steadier than nproc threads
    import_goi()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]

    print("machine " + json.dumps(machine_facts()), flush=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        run = run_traced if args.trace else run_untraced
        rec, problems, metrics, lines = run(workload, args.seed, args.seconds,
                                            workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({"correct": rec.failed == 0 and not problems,
                      "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
