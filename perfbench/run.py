"""Campaign-throughput benchmark for the QuFI reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload dm-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One invocation measures one workload in this (fresh) process:

1. set-up: interpreter start and imports (timed in three child
   interpreters), then spec build and, for ``results-read``, the
   synthetic store and the warm cache (three times in process); the
   sum of the two medians is reported;
2. the timed loop: an untimed warm-up repetition, then repetitions of
   the workload until another one would overrun ``--seconds`` (at least
   one; with ``--trace 1`` at least one traced and one untraced);
3. the output checks (``oracle.py``), outside the timed region.

It prints the host fingerprint, every metric with its unit and the
failed fraction as readable lines, then one JSON object as the last
line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics read from the traced ones (``spans.py``) plus the tracing
overhead. ``--workload all`` runs every workload in its own process.

Peak memory is the highest ``VmHWM`` of this process over the timed
repetitions, reset through ``/proc/self/clear_refs`` before each one so
set-up and checks do not count; memory of any worker process the
program starts is not covered. Store reads hit the page
cache, so disk behaviour is not measured.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("dm-grid", "suite-mix", "sharded", "results-read")
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# Host, memory and start-up
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def reset_peak_rss() -> None:
    """Reset VmHWM to the current RSS (Linux 4.0+)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mib() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import everything."""
    code = (
        f"import sys; sys.path[:0] = [{HERE!r}, {SOURCE!r}]; "
        f"import spans, workloads"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        tick = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - tick)
    return statistics.median(times)


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def timed_loop(workload, seconds: float, tracer) -> dict:
    """Repeat the workload until another repetition would overrun.

    Repetition 0 only warms the process up. With a tracer, odd ones
    then run traced and even ones untraced, so the two can be compared.
    """
    samples = {"wall": [], "traced": [], "inj": [], "rec": [], "peak": []}
    start = time.perf_counter()
    for index in itertools.count():
        traced = tracer is not None and index % 2 == 1
        if traced:
            spans.install(tracer)
        try:
            reset_peak_rss()
            tick = time.perf_counter()
            rep = workload.run_once()
            wall = time.perf_counter() - tick
            peak = peak_rss_mib()
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            samples["traced"].append(wall)
        elif index > 0:
            samples["wall"].append(wall)
            samples["peak"].append(peak)
            samples["inj"].append(rep.injections / wall)
            samples["rec"].append(rep.records / wall)
        workload.collect(rep)
        enough = samples["wall"] and (tracer is None or samples["traced"])
        if enough and time.perf_counter() - start + wall > seconds:
            return samples


def measure(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    import workloads

    imports_s = import_seconds()
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.make_workload(args.workload, args.seed, scratch)
        setups = []
        for _ in range(SETUP_REPEATS):
            tick = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - tick)
        tracer = spans.Tracer() if args.trace else None
        samples = timed_loop(workload, args.seconds, tracer)
        attempted, failed, notes = workload.verify()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    median = statistics.median
    if tracer is None:
        metrics = {
            "wall_s": (median(samples["wall"]), "s"),
            "injections_per_s": (median(samples["inj"]), "1/s"),
            "records_per_s": (median(samples["rec"]), "1/s"),
            "peak_rss_mib": (max(samples["peak"]), "MiB"),
            "setup_s": (imports_s + median(setups), "s"),
        }
    else:
        traced = samples["traced"]
        traced_s, untraced_s = median(traced), median(samples["wall"])
        covered = spans.covered_self_s(tracer) / sum(traced)
        metrics = spans.layer_metrics(tracer, len(traced))
        metrics.update(
            {
                "trace.traced_wall_s": (traced_s, "s"),
                "trace.untraced_wall_s": (untraced_s, "s"),
                "trace.overhead_s": (traced_s - untraced_s, "s"),
                "trace.overhead_frac": (traced_s / untraced_s - 1, "ratio"),
                "trace.layer_coverage_frac": (covered, "ratio"),
                "trace.spans": (len(tracer.spans) / len(traced), "count"),
            }
        )
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.json"))
        if tracer.missing:
            missing = sorted(set(tracer.missing))
            notes.append(f"trace targets not found: {missing}")

    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed} repetitions "
        f"{len(samples['wall'])} untraced, {len(samples['traced'])} traced"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        f"failed_frac {failed / max(attempted, 1):.6g} ratio "
        f"({failed} of {attempted} operations)"
    )
    for note in notes:
        print(f"note: {note}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Every workload, each in its own process
# ----------------------------------------------------------------------
def measure_all(args: argparse.Namespace) -> int:
    summary = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return measure_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
