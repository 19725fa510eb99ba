"""The ``fabric`` suite: multi-tenant capacity, hot swap, shadow cost, isolation."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.bench.harness import make_record
from repro.exceptions import ConfigurationError


def _fabric_recall(pipeline, packets) -> float:
    """Attack recall of one pipeline over one mirrored slice."""
    from repro.fabric import attack_recall
    from repro.replay.replayer import predictions_from_detections

    pipeline.alert_manager.clear()
    result = pipeline.detect_packets(packets, idle_timeout=5.0)
    records = predictions_from_detections([result], pipeline)
    return attack_recall(records.values(), pipeline.is_attack_class)


def bench_fabric(
    tenants: int = 128,
    train_flows: int = 160,
    mirror_flows: int = 240,
    dim: int = 128,
    epochs: int = 3,
    window: int = 256,
    swaps: int = 48,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Multi-tenant model fabric: the ``--suite fabric`` workload.

    Four records cover the fabric's headline claims:

    * ``fabric_tenant_capacity`` -- ``tenants`` packed models published
      resident in shared memory at once, with bytes-per-tenant (the
      tenants-per-host capacity number);
    * ``hot_swap_p95_ms`` -- p95 latency of an alias flip *plus* the
      attached reader materializing the new version, with ``speedup``
      encoded as ``micro_batch_interval_ms / p95`` so the spec floor
      of 1.0 reads "a hot swap completes inside one micro-batch interval";
    * ``shadow_overhead_fraction`` -- candidate mirror wall time over live
      wall time, with ``speedup = 2 / (1 + overhead)`` so a floor of 0.9
      reads "mirroring costs at most ~1.2x the live pass";
    * ``fabric_recall_isolation`` -- online learning confined to one tenant
      must move that tenant's class matrix and *only* that tenant's
      (``parity_ok`` is the hard isolation gate in ``matrix diff``).
    """
    from repro.core.cyberhd import CyberHD
    from repro.fabric import (
        AttachedFabric,
        FabricEngine,
        ModelRegistry,
        TenantKeyer,
        evaluate_candidate,
    )
    from repro.nids.packets import TrafficGenerator
    from repro.nids.pipeline import DetectionPipeline

    records: List[Dict[str, Any]] = []

    def train(model_seed: int, subnet: str) -> DetectionPipeline:
        packets = TrafficGenerator(seed=model_seed, subnet=subnet).generate(
            train_flows
        )
        return DetectionPipeline(
            classifier=CyberHD(
                dim=dim,
                epochs=epochs,
                regeneration_rate=0.1,
                seed=model_seed,
                inference_bits=1,
            )
        ).fit_packets(packets)

    base = train(seed, "10.0.0")
    candidate = train(seed + 1, "10.0.0")
    keyer = TenantKeyer.per_subnet(tenants)
    registry = ModelRegistry(max_tenants=tenants, max_readers=4)
    try:
        # Capacity: the same trained model published into every tenant slot
        # (capacity is about shm residency and publish cost, not training).
        start = time.perf_counter()
        for tenant in range(tenants):
            registry.publish(tenant, base)
        publish_seconds = time.perf_counter() - start
        total_bytes = registry.total_model_bytes()
        records.append(
            make_record(
                "fabric_tenant_capacity",
                publish_seconds,
                "float32",
                dim,
                tenants,
                tenants=tenants,
                total_model_bytes=total_bytes,
                bytes_per_tenant=total_bytes / tenants,
                publish_ms_per_tenant=1e3 * publish_seconds / tenants,
            )
        )

        # Micro-batch interval: how long one engine window takes to serve --
        # the budget a hot swap must fit inside.
        stream = TrafficGenerator(seed=seed + 5000, subnet="10.0.0").generate(
            mirror_flows
        )
        engine = FabricEngine(registry.spec(), keyer, reader_id=2)
        batch_seconds: List[float] = []
        try:
            for i in range(0, len(stream), window):
                t0 = time.perf_counter()
                engine.process_packets(stream[i : i + window])
                batch_seconds.append(time.perf_counter() - t0)
            engine.finalize()
        finally:
            engine.close()
        micro_batch_ms = 1e3 * float(np.mean(batch_seconds))

        # Hot swap: alias flip + the reader picking the new version up.
        v2 = registry.publish(0, candidate)
        v1 = registry.live_version(0)
        reader = AttachedFabric(registry.spec(), reader_id=1)
        try:
            reader.pipeline_for(0)
            swap_ms: List[float] = []
            start = time.perf_counter()
            for i in range(swaps):
                target = v2 if i % 2 == 0 else v1
                t0 = time.perf_counter()
                registry.promote(0, target)
                reader.pipeline_for(0)
                swap_ms.append(1e3 * (time.perf_counter() - t0))
            swap_seconds = time.perf_counter() - start
        finally:
            reader.close()
        p95_ms = float(np.percentile(swap_ms, 95))
        records.append(
            make_record(
                "hot_swap_p95_ms",
                swap_seconds,
                "float32",
                dim,
                swaps,
                p95_ms=p95_ms,
                mean_ms=float(np.mean(swap_ms)),
                micro_batch_interval_ms=micro_batch_ms,
                speedup=micro_batch_ms / max(p95_ms, 1e-9),
            )
        )

        # Shadow overhead: candidate wall time over live wall time on the
        # same mirror.  Best-of-3 so a single scheduler hiccup does not
        # masquerade as mirroring cost.
        mirror = TrafficGenerator(seed=seed + 6000, subnet="10.0.0").generate(
            mirror_flows
        )
        overhead = None
        start = time.perf_counter()
        for _ in range(3):
            decision = evaluate_candidate(
                base,
                candidate,
                mirror,
                recall_tolerance=1.0,
                divergence_budget=1.0,
            )
            fraction = decision.shadow_overhead_fraction
            overhead = fraction if overhead is None else min(overhead, fraction)
        shadow_seconds = time.perf_counter() - start
        records.append(
            make_record(
                "shadow_overhead_fraction",
                shadow_seconds,
                "float32",
                dim,
                decision.n_flows,
                shadow_overhead_fraction=overhead,
                speedup=2.0 / (1.0 + overhead),
            )
        )

        # Recall isolation: online learning on tenant 1's traffic only must
        # leave tenant 2's published class matrix bit-identical.
        before_1 = np.array(registry.publication(1).class_matrix, copy=True)
        before_2 = np.array(registry.publication(2).class_matrix, copy=True)
        tenant_stream = TrafficGenerator(
            seed=seed + 7000, subnet="10.1.0"
        ).generate(mirror_flows)
        start = time.perf_counter()
        engine = FabricEngine(
            registry.spec(),
            keyer,
            reader_id=3,
            online=True,
            registry=registry,
            sync_interval=2,
        )
        try:
            for i in range(0, len(tenant_stream), window):
                engine.process_packets(tenant_stream[i : i + window])
            engine.finalize()
        finally:
            engine.close()
        learn_seconds = time.perf_counter() - start
        after_1 = registry.publication(1).class_matrix
        after_2 = registry.publication(2).class_matrix
        learned = not np.array_equal(before_1, after_1)
        isolated = np.array_equal(before_2, after_2)
        scorer = AttachedFabric(registry.spec(), reader_id=1)
        try:
            tenant_recall = _fabric_recall(scorer.pipeline_for(1), tenant_stream)
        finally:
            scorer.close()
        records.append(
            make_record(
                "fabric_recall_isolation",
                learn_seconds,
                "float32",
                dim,
                len(tenant_stream),
                parity_ok=int(learned and isolated),
                tenant_updated=int(learned),
                others_untouched=int(isolated),
                tenant_recall=tenant_recall,
            )
        )
    finally:
        registry.close()
    return records


def run(
    tenants: int = 128,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``fabric`` suite entry point.

    ``quick`` shrinks flows and swap repetitions for the CI smoke but keeps
    the tenant count -- the capacity record's whole point is demonstrating
    100+ tenants resident at once, and a smoke that publishes 8 would gate
    nothing, so fewer than 100 is a configuration error.
    """
    if tenants < 100:
        raise ConfigurationError(
            f"the fabric suite needs tenants >= 100 (the capacity record "
            f"demonstrates 100+ resident tenants); got {tenants}"
        )
    if quick:
        return bench_fabric(
            tenants=tenants,
            train_flows=80,
            mirror_flows=120,
            dim=dim if dim is not None else 64,
            epochs=2,
            swaps=24,
        )
    return bench_fabric(
        tenants=tenants, dim=dim if dim is not None else 128
    )
