"""The ``cluster`` suite: sharded multi-worker serving vs one process."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.bench.harness import make_record


def bench_cluster(
    scenario: str = "mixed_benign",
    workers: int = 4,
    flows_scale: float = 2.0,
    batch_size: int = 512,
    dim: int = 256,
    epochs: int = 5,
    train_flows: int = 300,
    sync_interval: int = 8,
    online: bool = True,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Sharded cluster serving vs the single-process engine, same scenario.

    Both paths serve the identical scenario packet stream with the same
    trained pipeline.  The single-process baseline is ``StreamingDetector``
    over the ``InferenceEngine``; the cluster path is
    ``ClusterCoordinator`` with ``workers`` replica processes.

    Two throughput notions are reported, deliberately:

    * ``wall`` -- total flows over wall-clock seconds.  This is what an
      operator observes on *this* host, and on a host with fewer cores than
      workers it is bounded by the hardware, not the architecture.
    * ``aggregate`` -- the sum of per-replica sustained rates (each worker's
      flows over its own busy seconds).  This is the cluster's capacity when
      every worker has a core to itself; it is the number the
      ``cluster_speedup`` record carries, alongside ``wall_speedup`` and the
      host ``cpu_count`` in the file's provenance so the two readings are
      never conflated.
    """
    from repro.cluster import ClusterConfig, ClusterCoordinator, get_scenario
    from repro.core.cyberhd import CyberHD
    from repro.nids.pipeline import DetectionPipeline
    from repro.nids.streaming import StreamingDetector
    from repro.serving import OnlineLearner

    load = get_scenario(scenario)
    train_packets = load.training_packets(n_flows=train_flows, seed=seed)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=dim, epochs=epochs, regeneration_rate=0.1, seed=seed)
    ).fit_packets(train_packets)
    packets = load.build_packets(
        seed=seed + 1, flows_scale=flows_scale, start_time=train_packets[-1].timestamp + 60.0
    )
    n_packets = len(packets)

    # ---- single-process baseline ----------------------------------------
    learner = None
    if online:
        # partial_fit only (no replay, no regeneration): the same learning
        # rule the cluster workers run, so the comparison is architecture vs
        # architecture rather than learning-schedule vs learning-schedule.
        learner = OnlineLearner(
            pipeline.classifier, passes=1, replay_rows=0, regenerate=False, monitor=None
        )
    single_model = pipeline.classifier.class_vector_snapshot()
    detector = StreamingDetector(pipeline, window_size=batch_size, online=learner)
    start = time.perf_counter()
    cpu_start = time.process_time()
    detector.push_many(packets)
    detector.flush()
    single_wall = time.perf_counter() - start
    single_cpu = time.process_time() - cpu_start
    single_flows = detector.total_flows
    single_wall_rate = single_flows / single_wall if single_wall > 0 else 0.0
    single_cpu_rate = single_flows / single_cpu if single_cpu > 0 else 0.0
    # Restore the pre-serve model so the cluster starts from the same state.
    pipeline.classifier.set_class_vectors(single_model)

    # ---- sharded cluster ----------------------------------------------
    coordinator = ClusterCoordinator(
        pipeline,
        ClusterConfig(
            n_workers=workers,
            batch_size=batch_size,
            sync_interval=sync_interval,
            online=online,
        ),
    )
    report = coordinator.serve(packets)
    if report.total_flows != single_flows:
        raise RuntimeError(
            "flow-count mismatch between serving paths: cluster="
            f"{report.total_flows}, single-process={single_flows}"
        )

    aggregate_rate = report.aggregate_flow_throughput
    wall_rate = report.wall_flow_throughput
    records = [
        make_record(
            "cluster_single_process",
            single_wall,
            "float32",
            dim,
            n_packets,
            scenario=scenario,
            flows=single_flows,
            flows_per_second=single_wall_rate,
            cpu_seconds=single_cpu,
            flows_per_cpu_second=single_cpu_rate,
            note="single-process StreamingDetector path",
        ),
        make_record(
            "cluster_serve",
            report.wall_seconds,
            "float32",
            dim,
            n_packets,
            scenario=scenario,
            workers=workers,
            flows=report.total_flows,
            alerts=report.total_alerts,
            sync_rounds=report.sync_rounds,
            generation=report.generation,
            wall_flows_per_second=wall_rate,
            aggregate_flows_per_second=aggregate_rate,
            aggregate_packets_per_second=report.aggregate_packet_throughput,
            coordinator_cpu_seconds=report.coordinator_cpu_seconds,
            routing_packets_per_cpu_second=report.routing_packets_per_cpu_second,
            transport=report.transport,
        ),
    ]
    for worker in report.workers:
        records.append(
            make_record(
                f"cluster_worker_{worker.worker_id}",
                worker.busy_seconds,
                "float32",
                dim,
                worker.packets,
                scenario=scenario,
                flows=worker.flows,
                alerts=worker.alerts,
                batches=worker.batches,
                busy_cpu_seconds=worker.busy_cpu_seconds,
                flows_per_cpu_second=worker.flow_throughput,
                online_updates=worker.online_updates,
            )
        )
    aggregate_speedup = aggregate_rate / single_cpu_rate if single_cpu_rate > 0 else 0.0
    wall_speedup = wall_rate / single_wall_rate if single_wall_rate > 0 else 0.0
    transport = report.transport or {}
    records.append(
        make_record(
            "cluster_speedup",
            report.wall_seconds,
            "float32",
            dim,
            n_packets,
            scenario=scenario,
            workers=workers,
            speedup=aggregate_speedup,
            wall_speedup=wall_speedup,
            scaling_efficiency=aggregate_speedup / workers if workers else 0.0,
            baseline_wall_time_s=single_wall,
            # Coordinator CPU spent columnarizing + copying frames into ring
            # slots -- the producer-pays cost that replaced per-batch pickle.
            transport_overhead_s=float(transport.get("serialize_cpu_seconds", 0.0)),
            routing_cpu_fraction=(
                report.routing_cpu_seconds / report.coordinator_cpu_seconds
                if report.coordinator_cpu_seconds > 0
                else 0.0
            ),
            note="speedup = aggregate capacity (sum of per-replica per-core "
            "rates) vs the single-process per-core rate; wall_speedup is the "
            "same-host wall-clock ratio, bounded by provenance.cpu_count",
        )
    )
    return records


def run(
    scenario: str = "mixed_benign",
    workers: int = 4,
    flows_scale: Optional[float] = None,
    batch_size: Optional[int] = None,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``cluster`` suite entry point.

    ``flows_scale``, ``batch_size`` and ``dim`` default to 2.0 / 512 / 256
    (0.4 / 256 / 128 under ``quick``); ``None`` means "use the suite
    default", so an explicit value always wins, including one that happens
    to equal a default.
    """
    if flows_scale is None:
        flows_scale = 0.4 if quick else 2.0
    if batch_size is None:
        batch_size = 256 if quick else 512
    if dim is None:
        dim = 128 if quick else 256
    return bench_cluster(
        scenario=scenario,
        workers=workers,
        flows_scale=flows_scale,
        batch_size=batch_size,
        dim=dim,
    )
