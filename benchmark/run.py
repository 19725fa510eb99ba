"""Outside-in benchmark of the NIDS: every workload, every metric, checked outputs.

Usage (from the repository root)::

    python benchmark/run.py [--workload NAME ...] [--seed N] [--seconds S]
                            [--trace [0|1]] [--out DIR]

With one ``--workload`` the workload runs in this process; otherwise each
named workload (default: all of them) runs in a fresh subprocess, which
keeps RSS, GC and BLAS state apart.  A run sets the workload up
``SETUP_REPEATS`` times, then serves or trains until ``--seconds`` are
used, and prints each metric with its unit.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Untraced runs (``--trace 0``, the default) report the end-to-end metrics of
``BENCHMARK.json``.  Traced runs (``--trace`` or ``--trace 1``) alternate
untraced and traced samples and report its per-layer metrics: each layer's
self time as a share of the traced samples' wall time, the unattributed
residual, and how much tracing slowed the traced samples.  ``--out DIR``
also writes the spans to ``DIR/spans-<workload>.jsonl``.

The exit code is 0 when every output matched its reference, 1 when one did
not, and 2 when the benchmark cannot run (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from spans import LAYERS, Tracer, self_times

# NumPy and ``workloads`` (which imports ``repro``) load inside functions:
# the BLAS variables must be set, and ``src`` be on the path, before they do.

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
#: BLAS thread-count variables, set to 1 before NumPy loads.  The workloads'
#: matrices are too small to gain from a second BLAS thread, and one keeps
#: the load at the generator plus the engine's dispatch thread, so BLAS
#: threads never contend with them (or with a cluster worker) for the cores.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    """The benchmark definition at the repository root."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` ("unknown" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def provenance() -> Dict[str, object]:
    """Host and toolchain facts every run records."""
    import numpy

    return {
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def stop_child_processes() -> None:
    """Wait for every process the workload started, so none outlives the run.

    The cluster joins its workers itself; this reaps any it left behind and
    stops the ``multiprocessing`` resource tracker that shared memory
    starts, which otherwise lingers after this process exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest child (a cluster worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------- measuring
def take_sample(workload, state, tracer=None):
    """One sample, traced when a tracer is given, with the cyclic GC paused.

    The collector runs between samples instead.  Inside a sample its pauses
    scale with the objects the benchmark itself keeps alive (the inputs,
    every window's detections for the parity check), which a deployment
    does not hold, and they made sample times bimodal.
    """
    gc.collect()
    gc.disable()
    try:
        if tracer is None:
            return workload.sample(state)
        tracer.install()
        try:
            return workload.sample(state, tracer.span)
        finally:
            tracer.uninstall()
    finally:
        gc.enable()


def measure(workload, state, seconds: float, tracer=None) -> List[Tuple[bool, object]]:
    """Run samples until the next one would end after ``seconds``.

    With a tracer, odd samples are traced and even ones are not, so one
    traced run yields both sides of the tracing overhead.
    """
    samples: List[Tuple[bool, object]] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(samples) % 2 == 1
        if traced:
            tracer.sample = len(samples)
        samples.append((traced, take_sample(workload, state, tracer if traced else None)))
        elapsed = time.perf_counter() - start
        if len(samples) >= (2 if tracer is not None else 1) and (
            elapsed * (len(samples) + 1) / len(samples) > seconds
        ):
            return samples


def end_to_end_metrics(setup_s: Sequence[float], samples: Sequence) -> Dict[str, float]:
    """The user-visible metrics of untraced samples.

    Every value is a median over samples, so one sample a host hiccup
    stalled does not move it; latency percentiles are taken per sample
    first.  The tail is p90 because a ``replay_closed`` sample dispatches
    only ~137 windows, whose flows share one latency each: p90 is the
    highest percentile every serving workload backs with ten batches.
    """
    import numpy as np

    def latency(q: float) -> float:
        return statistics.median(float(np.percentile(s.latencies_ms, q)) for s in samples)

    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "throughput": statistics.median(sample.throughput for sample in samples),
        "latency_p50_ms": latency(50),
        "latency_p90_ms": latency(90),
        "recall": statistics.median(sample.recall for sample in samples),
        "precision": statistics.median(sample.precision for sample in samples),
        "accuracy": statistics.median(sample.accuracy for sample in samples),
    }


def per_layer_metrics(
    tracer, traced: Sequence, untraced: Sequence, names: Sequence[str]
) -> Dict[str, float]:
    """Self-time shares from the spans plus the workload's own layer values."""
    wall = sum(sample.wall_s for sample in traced)
    seconds = self_times(tracer.spans)
    metrics = {f"{layer}.self_frac": seconds.get(layer, 0.0) / wall for layer in LAYERS}
    metrics["unattributed_frac"] = 1.0 - sum(metrics.values())

    def cost(sample) -> float:
        return sample.wall_s if sample.cost_s is None else sample.cost_s

    metrics["trace_overhead_frac"] = (
        statistics.median(map(cost, traced)) / statistics.median(map(cost, untraced)) - 1.0
    )
    reported = {name for sample in traced for name in sample.layers}
    unknown = reported - set(names)
    if unknown:
        raise KeyError(f"layer values not defined in BENCHMARK.json: {sorted(unknown)}")
    for name in names:
        if name not in metrics:
            metrics[name] = statistics.median(sample.layers.get(name, 0.0) for sample in traced)
    return metrics


def run_workload(
    workload, seed: int, seconds: float, trace: bool, out: Optional[str] = None
) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    spec = load_spec()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_s.append(time.perf_counter() - start)

    # Freezing the inputs out of the collector keeps the collections between
    # samples short.  One untimed sample takes the first-call costs.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if trace else None
    try:
        samples = [(False, take_sample(workload, state))]
        samples += measure(workload, state, seconds, tracer)
    finally:
        gc.unfreeze()
    untraced = [sample for traced, sample in samples[1:] if not traced]
    traced = [sample for traced, sample in samples[1:] if traced]
    if trace:
        definitions = spec["per_layer"]
        values = per_layer_metrics(tracer, traced, untraced, [d["name"] for d in definitions])
        if out:
            os.makedirs(out, exist_ok=True)
            tracer.write_jsonl(os.path.join(out, f"spans-{workload.name}.jsonl"))
    else:
        definitions = spec["end_to_end"]
        values = end_to_end_metrics(setup_s, untraced)
    if set(values) != {d["name"] for d in definitions}:
        raise KeyError(
            f"{workload.name} measured {sorted(values)}, BENCHMARK.json defines "
            f"{sorted(d['name'] for d in definitions)}"
        )
    attempted = sum(sample.attempted for _, sample in samples)
    failed = sum(sample.failed for _, sample in samples)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in definitions
        },
    }


# ----------------------------------------------------------------------- CLI
def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=names, help="repeatable; default: all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="directory for span files of traced runs")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def print_result(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:22s} {metric:40s} {entry['value']:.6g} {entry['unit']}")
    print(
        f"{name:22s} {'correct' if result['correct'] else 'INCORRECT'}: "
        f"{result['failed']} of {result['attempted']} outputs failed"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    os.environ.update({name: "1" for name in BLAS_ENV})
    if len(args.workload) == 1:
        sys.path.insert(0, str(ROOT / "src"))
        from workloads import WORKLOADS

        name = args.workload[0]
        try:
            result = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.out
            )
        finally:
            stop_child_processes()
        print(json.dumps({"provenance": provenance()}))
        print_result(name, result)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in args.workload:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode not in (0, 1) or not lines:
            print(f"benchmark: workload {name} exited {child.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
