"""The ``replay`` suite: golden-trace parity and accuracy under load."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.harness import make_record


def bench_replay(
    dataset: str = "nsl_kdd",
    n_train: int = 600,
    n_test: int = 240,
    dim: int = 256,
    epochs: int = 5,
    window: int = 512,
    micro_window: int = 64,
    workers: int = 2,
    rates: Sequence[float] = (5_000.0, 25_000.0, 100_000.0, 400_000.0),
    seed: int = 0,
    cluster: bool = True,
) -> List[Dict[str, Any]]:
    """Dataset-to-traffic replay: golden-trace parity + accuracy under load.

    The suite compiles the dataset's train/test splits into packet traces,
    trains a pipeline on the compiled training traffic, records the offline
    golden predictions for the test trace, then measures two things:

    * **parity** -- flow-for-flow agreement of the single-process,
      micro-batched and ``workers``-worker cluster serving paths with the
      offline batch path (the ``parity_ok`` fields are the correctness
      gate: a value of 0 means the serving stack and the paper's evaluation
      path disagree about which flows are attacks);
    * **accuracy under load** -- open-loop replay at each rate in
      ``rates`` (packets/second) against a bounded ``drop_oldest`` queue,
      reporting detection recall/precision and shed fraction as the offered
      rate passes serving capacity.
    """
    from repro.core.cyberhd import CyberHD
    from repro.datasets.loaders import load_dataset
    from repro.nids.pipeline import DetectionPipeline
    from repro.replay import (
        DatasetTraceCompiler,
        DifferentialHarness,
        ReplayConfig,
        TraceReplayer,
    )

    records: List[Dict[str, Any]] = []

    # ---- compile ---------------------------------------------------------
    ds = load_dataset(dataset, n_train=n_train, n_test=n_test, seed=seed)
    compiler = DatasetTraceCompiler()
    start = time.perf_counter()
    train_trace = compiler.compile(ds, split="train", seed=seed)
    test_trace = compiler.compile(ds, split="test", seed=seed + 1)
    compile_wall = time.perf_counter() - start
    records.append(
        make_record(
            "replay_compile",
            compile_wall,
            "float32",
            dim,
            train_trace.n_packets + test_trace.n_packets,
            dataset=dataset,
            flows=train_trace.n_flows + test_trace.n_flows,
            packets_per_second=(train_trace.n_packets + test_trace.n_packets)
            / max(compile_wall, 1e-9),
            trace_seconds=test_trace.duration_seconds,
        )
    )

    # ---- train on the compiled training traffic --------------------------
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=dim, epochs=epochs, regeneration_rate=0.1, seed=seed)
    )
    start = time.perf_counter()
    pipeline.fit_packets(train_trace.packets)
    records.append(
        make_record(
            "replay_train",
            time.perf_counter() - start,
            "float32",
            dim,
            train_trace.n_flows,
            dataset=dataset,
            classes=len(pipeline.class_names),
        )
    )

    # ---- golden offline reference + parity across architectures ----------
    start = time.perf_counter()
    harness = DifferentialHarness(
        pipeline,
        test_trace,
        window_size=window,
        micro_window_size=micro_window,
        cluster_workers=workers,
    )
    golden_wall = time.perf_counter() - start
    records.append(
        make_record(
            "replay_golden_offline",
            golden_wall,
            "float32",
            dim,
            test_trace.n_packets,
            dataset=dataset,
            flows=harness.golden.n_flows,
            flagged=harness.golden.n_flagged,
            packets_per_second=test_trace.n_packets / max(golden_wall, 1e-9),
        )
    )
    paths = [
        ("single_process", harness.run_single_process),
        ("microbatched", harness.run_microbatched),
    ]
    if cluster and workers > 1:
        paths.append((f"cluster_{workers}w", harness.run_cluster))
    for name, run in paths:
        start = time.perf_counter()
        report = run()
        records.append(
            make_record(
                f"replay_parity_{name}",
                time.perf_counter() - start,
                "float32",
                dim,
                test_trace.n_packets,
                dataset=dataset,
                parity_ok=int(report.ok),
                missing=len(report.missing_flows),
                prediction_mismatches=len(report.prediction_mismatches),
                flag_mismatches=len(report.flag_mismatches),
                confidence_mismatches=len(report.confidence_mismatches),
                max_confidence_delta=report.max_confidence_delta,
            )
        )

    # ---- closed-loop capacity baseline ------------------------------------
    closed = TraceReplayer(
        pipeline, ReplayConfig(mode="closed", window_size=window)
    ).replay(test_trace)
    records.append(
        make_record(
            "replay_closed_loop",
            closed.wall_seconds,
            "float32",
            dim,
            closed.n_packets_served,
            dataset=dataset,
            packets_per_second=closed.packets_per_second,
            flows=closed.n_flows_served,
            alerts=closed.n_alerts,
            recall=closed.metrics["recall"],
            precision=closed.metrics["precision"],
            served_fraction=closed.metrics["served_fraction"],
        )
    )

    # ---- accuracy-under-load curve (open loop, drop_oldest) ---------------
    for rate in rates:
        result = TraceReplayer(
            pipeline,
            ReplayConfig(
                mode="open",
                rate=float(rate),
                window_size=window,
                queue_capacity=2 * window,
            ),
        ).replay(test_trace)
        records.append(
            make_record(
                "replay_open_loop",
                result.wall_seconds,
                "float32",
                dim,
                result.n_packets_submitted,
                dataset=dataset,
                offered_rate=float(rate),
                achieved_rate=result.packets_per_second,
                dropped_packets=result.dropped_packets,
                served_fraction=result.metrics["served_fraction"],
                recall=result.metrics["recall"],
                precision=result.metrics["precision"],
                flows=result.n_flows_served,
            )
        )
    return records


def run(
    dataset: str = "nsl_kdd",
    workers: int = 2,
    window: Optional[int] = None,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``replay`` suite entry point.

    ``window`` and ``dim`` default to 512 / 256 (256 / 128 under
    ``quick``); pass explicit values to override either -- ``None`` means
    "use the suite default", so an explicit value always wins, including
    one that happens to equal a default.
    """
    n_train, n_test, epochs = 600, 240, 5
    rates: Sequence[float] = (5_000.0, 25_000.0, 100_000.0, 400_000.0)
    if quick:
        n_train, n_test, epochs = 300, 120, 3
        rates = (4_000.0, 150_000.0)
    if dim is None:
        dim = 128 if quick else 256
    if window is None:
        window = 256 if quick else 512
    return bench_replay(
        dataset=dataset,
        n_train=n_train,
        n_test=n_test,
        dim=dim,
        epochs=epochs,
        window=window,
        workers=workers,
        rates=rates,
    )
