"""The ``chaos`` suite: process-fault recovery measured against the golden trace."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.harness import make_record


def bench_chaos(
    dataset: str = "nsl_kdd",
    n_train: int = 600,
    n_test: int = 240,
    dim: int = 128,
    epochs: int = 3,
    batch_size: int = 64,
    workers: int = 2,
    scenarios: Sequence["tuple[str, Sequence[str]]"] = (
        ("kill", ("kill:0@0.4",)),
        ("hang", ("hang:1@0.3",)),
        ("exit", ("exit:1@0.5",)),
    ),
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Process-fault recovery under replay: the ``--suite chaos`` workload.

    The suite compiles the dataset into a trace, records the offline golden
    predictions, runs one crash-free cluster baseline, then replays the same
    trace under each fault schedule in ``scenarios`` (SIGKILL, non-stamping
    hang, clean-but-premature exit by default).  Every faulted run must
    still end in golden-trace flow parity -- the ``parity_ok`` fields are
    hard gates in ``matrix diff`` -- and two speedup-shaped records make the
    recovery quality gateable with absolute spec floors:

    * ``chaos_recall_retention`` -- faulted-run recall over crash-free
      recall for the SIGKILL scenario (the gate's floor is 0.99:
      recall within 1pt of the crash-free run);
    * ``chaos_recovery_speed`` -- ``1 / recovery_seconds`` for the SIGKILL
      scenario, so a floor of 0.2 reads "detect-to-recover within 5s".
      The ratio saturates at 2.0 (any recovery under half a second scores
      the same): recovery on an idle host takes tens of milliseconds, and
      an uncapped ratio would turn scheduler noise into a 10x swing that
      the relative baseline comparison then gates on.
    """
    from repro.cluster import ChaosSchedule, run_chaos_replay
    from repro.core.cyberhd import CyberHD
    from repro.datasets.loaders import load_dataset
    from repro.nids.pipeline import DetectionPipeline
    from repro.replay import DatasetTraceCompiler, GoldenTrace

    records: List[Dict[str, Any]] = []

    ds = load_dataset(dataset, n_train=n_train, n_test=n_test, seed=seed)
    compiler = DatasetTraceCompiler()
    train_trace = compiler.compile(ds, split="train", seed=seed)
    test_trace = compiler.compile(ds, split="test", seed=seed + 1)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=dim, epochs=epochs, regeneration_rate=0.1, seed=seed)
    ).fit_packets(train_trace.packets)
    golden = GoldenTrace.record(pipeline, test_trace)

    start = time.perf_counter()
    baseline = run_chaos_replay(
        pipeline,
        test_trace,
        golden=golden,
        n_workers=workers,
        batch_size=batch_size,
    )
    records.append(
        make_record(
            "chaos_baseline",
            time.perf_counter() - start,
            "float32",
            dim,
            test_trace.n_packets,
            dataset=dataset,
            workers=workers,
            parity_ok=int(baseline.parity.ok),
            recall=baseline.metrics["recall"],
            precision=baseline.metrics["precision"],
            served_fraction=baseline.metrics["served_fraction"],
        )
    )

    kill_result = None
    for name, specs in scenarios:
        start = time.perf_counter()
        result = run_chaos_replay(
            pipeline,
            test_trace,
            schedule=ChaosSchedule.parse(specs),
            golden=golden,
            n_workers=workers,
            batch_size=batch_size,
        )
        recovery = result.report.recovery
        records.append(
            make_record(
                f"chaos_{name}",
                time.perf_counter() - start,
                "float32",
                dim,
                test_trace.n_packets,
                dataset=dataset,
                workers=workers,
                schedule=list(specs),
                parity_ok=int(result.ok),
                detection_seconds=result.detection_seconds,
                recovery_seconds=result.recovery_seconds,
                respawns=recovery.total_respawns,
                redispatched_batches=recovery.total_redispatched_batches,
                redispatched_packets=recovery.total_redispatched_packets,
                duplicates_suppressed=recovery.duplicates_suppressed,
                unrecovered_batches=recovery.unrecovered_batches,
                recall=result.metrics["recall"],
                precision=result.metrics["precision"],
                recall_delta=result.metrics["recall"] - baseline.metrics["recall"],
            )
        )
        if name == "kill":
            kill_result = result

    if kill_result is not None:
        base_recall = max(baseline.metrics["recall"], 1e-9)
        records.append(
            make_record(
                "chaos_recall_retention",
                0.0,
                "float32",
                dim,
                test_trace.n_flows,
                dataset=dataset,
                speedup=kill_result.metrics["recall"] / base_recall,
            )
        )
        records.append(
            make_record(
                "chaos_recovery_speed",
                kill_result.recovery_seconds,
                "float32",
                dim,
                kill_result.report.recovery.total_redispatched_batches,
                dataset=dataset,
                recovery_seconds=kill_result.recovery_seconds,
                speedup=1.0 / max(kill_result.recovery_seconds, 0.5),
            )
        )
    return records


def run(
    dataset: str = "nsl_kdd",
    workers: int = 2,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``chaos`` suite entry point.

    ``quick`` halves the compiled rows for a CI smoke run but keeps every
    fault scenario: the point of the suite is recovery evidence, and a
    smoke that drops the SIGKILL case would gate nothing.
    """
    n_train, n_test, epochs = 600, 240, 3
    if quick:
        n_train, n_test = 400, 120
    return bench_chaos(
        dataset=dataset,
        n_train=n_train,
        n_test=n_test,
        dim=dim if dim is not None else (96 if quick else 128),
        epochs=epochs,
        workers=workers,
    )
