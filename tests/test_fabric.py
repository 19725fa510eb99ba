"""Tests for the multi-tenant model fabric: the tenant-keyed registry with
versioned hot-swap (alias flip + lease drain), the subnet tenant keyer and
router, the shadow/canary promotion gate (golden-trace parity + recall),
tenant-scoped online learning isolation, registry snapshots, crash-during-swap
recovery, and the tenant-aware serving engine and cluster path."""

import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.cyberhd import CyberHD
from repro.exceptions import ConfigurationError
from repro.fabric import (
    AttachedFabric,
    FabricEngine,
    ModelRegistry,
    NO_VERSION,
    ShadowDeployment,
    TenantKeyer,
    TenantRouter,
    attack_recall,
    evaluate_candidate,
    subnet_of,
)
from repro.nids.packets import TrafficGenerator
from repro.nids.pipeline import DetectionPipeline
from repro.persistence import pipeline_from_state, pipeline_state_dict
from repro.serving.faults import ServingFaultInjector
from repro.serving.stages import ServingBatch, run_stages


def _train(seed=0, subnet="10.0.0", flows=120, dim=96, bits=1):
    packets = TrafficGenerator(seed=seed, subnet=subnet).generate(flows)
    return DetectionPipeline(
        classifier=CyberHD(
            dim=dim,
            epochs=3,
            regeneration_rate=0.1,
            seed=seed,
            inference_bits=bits,
        )
    ).fit_packets(packets)


def _scaled_copy(pipeline, factor):
    """A distinct-but-compatible model: same shapes, scaled class matrix."""
    replica = pipeline_from_state(pipeline_state_dict(pipeline))
    replica.classifier.set_class_vectors(
        replica.classifier.class_hypervectors_ * factor
    )
    return replica


@pytest.fixture(scope="module")
def tenant_pipeline():
    return _train(seed=0)


@pytest.fixture(scope="module")
def tenant_stream():
    table_packets = TrafficGenerator(seed=11, subnet="10.0.0").generate(
        150, start_time=10_000.0
    )
    from repro.nids.flow import FlowTable

    table = FlowTable()
    return table.add_packets(table_packets) + table.flush()


class TestTenantKeyer:
    def test_subnet_of(self):
        assert subnet_of("10.3.0.5") == "10.3.0"
        assert subnet_of("192.168.1.9") == "192.168.1"

    def test_per_subnet_mapping(self):
        keyer = TenantKeyer.per_subnet(4)
        assert keyer.tenant_of_ip("10.0.0.5") == 0
        assert keyer.tenant_of_ip("10.3.9.1") == 3
        assert keyer.tenant_of_ip("172.16.0.1") is None  # prefix table only
        # Unmapped subnets hash deterministically into the tenant space.
        fallback = keyer("172.16.0.1", "172.16.0.2")
        assert 0 <= fallback < 4
        assert fallback == TenantKeyer.per_subnet(4)("172.16.0.1", "172.16.0.2")

    def test_packets_key_consistently(self):
        keyer = TenantKeyer.per_subnet(2)
        packets = TrafficGenerator(seed=1, subnet="10.1.0").generate(30)
        tenants = {keyer.tenant_of_packet(p) for p in packets}
        assert tenants == {1}

    def test_router_partitions_cover_all_packets(self):
        keyer = TenantKeyer.per_subnet(2)
        router = TenantRouter(keyer, n_workers=2)
        packets = TrafficGenerator(seed=2, subnet="10.0.0").generate(
            40
        ) + TrafficGenerator(seed=3, subnet="10.1.0").generate(40)
        shards = router.partition_packets(packets)
        assert sum(len(s) for s in shards) == len(packets)
        assert set(router.tenants_for_packets(packets)) == {0, 1}


class TestRegistryLifecycle:
    def test_publish_promote_rollback(self, tenant_pipeline):
        with ModelRegistry(max_tenants=4) as registry:
            assert registry.live_version(0) == NO_VERSION
            v1 = registry.publish(0, tenant_pipeline)
            assert v1 == 1 and registry.live_version(0) == 1
            v2 = registry.publish(0, _scaled_copy(tenant_pipeline, 2.0))
            # Later versions stay shadow candidates until promoted.
            assert v2 == 2 and registry.live_version(0) == 1
            gen_before = registry.generation(0)
            registry.promote(0, v2)
            assert registry.live_version(0) == 2
            assert registry.previous_version(0) == 1
            assert registry.generation(0) == gen_before + 1
            assert registry.rollback(0) == 1
            assert registry.live_version(0) == 1
            # A tenant with nothing displaced cannot roll back.
            registry.publish(1, tenant_pipeline)
            with pytest.raises(ConfigurationError):
                registry.rollback(1)

    def test_version_numbering_is_append_only(self, tenant_pipeline):
        with ModelRegistry(max_tenants=2) as registry:
            registry.publish(0, tenant_pipeline, version=5)
            with pytest.raises(ConfigurationError):
                registry.publish(0, tenant_pipeline, version=3)

    def test_tenant_bounds_checked(self, tenant_pipeline):
        with ModelRegistry(max_tenants=2) as registry:
            with pytest.raises(ConfigurationError):
                registry.publish(7, tenant_pipeline)

    def test_attached_reader_serves_identically(
        self, tenant_pipeline, tenant_stream
    ):
        with ModelRegistry(max_tenants=2) as registry:
            registry.publish(0, tenant_pipeline)
            with AttachedFabric(registry.spec(), reader_id=0) as fabric:
                replica = fabric.pipeline_for(0)
                batch_a = ServingBatch(flows=list(tenant_stream[:40]))
                run_stages(replica.stages, batch_a)
                batch_b = ServingBatch(flows=list(tenant_stream[:40]))
                run_stages(tenant_pipeline.stages, batch_b)
                assert batch_a.predictions == batch_b.predictions

    def test_retire_refuses_live_and_drains_on_lease(self, tenant_pipeline):
        with ModelRegistry(max_tenants=2) as registry:
            v1 = registry.publish(0, tenant_pipeline)
            v2 = registry.publish(0, _scaled_copy(tenant_pipeline, 2.0))
            with pytest.raises(ConfigurationError):
                registry.retire(0, v1)  # still live
            with AttachedFabric(registry.spec(), reader_id=0) as fabric:
                fabric.pipeline_for(0)  # pins v1
                registry.promote(0, v2)
                assert registry.readers_pinning(0, v1) == [0]
                assert registry.retire(0, v1, timeout=0.05) is False
                assert v1 in registry.versions(0)  # intact after failed drain
                fabric.pipeline_for(0)  # follows the swap; pin moves to v2
                assert registry.readers_pinning(0, v1) == []
                assert registry.retire(0, v1, timeout=0.5) is True
            assert registry.versions(0) == [v2]
            # The retired version is no longer a rollback target.
            assert registry.previous_version(0) == NO_VERSION


class TestTenantScopedLearning:
    def test_merge_touches_only_that_tenant(self, tenant_pipeline):
        with ModelRegistry(max_tenants=2) as registry:
            registry.publish(0, tenant_pipeline)
            registry.publish(1, tenant_pipeline)
            before_0 = np.array(registry.publication(0).class_matrix, copy=True)
            before_1 = np.array(registry.publication(1).class_matrix, copy=True)
            gen_1 = registry.generation(1)
            delta = np.ones_like(before_0)
            registry.merge_tenant_deltas(0, [delta], quorum=1)
            np.testing.assert_array_equal(
                registry.publication(0).class_matrix, before_0 + 1.0
            )
            np.testing.assert_array_equal(
                registry.publication(1).class_matrix, before_1
            )
            assert registry.generation(1) == gen_1

    def test_merge_bumps_generation_and_reader_rebases(
        self, tenant_pipeline, tenant_stream
    ):
        with ModelRegistry(max_tenants=2) as registry:
            registry.publish(0, tenant_pipeline)
            with AttachedFabric(registry.spec(), reader_id=0) as fabric:
                replica = fabric.pipeline_for(0)
                registry.merge_tenant_deltas(
                    0, [np.ones_like(replica.classifier.class_hypervectors_)]
                )
                rebased = fabric.pipeline_for(0)
                assert rebased is replica  # same version: rebase, not rebuild
                np.testing.assert_array_equal(
                    rebased.classifier.class_hypervectors_,
                    registry.publication(0).class_matrix,
                )
                assert fabric.swaps(0) == 0

    def test_quorum_violation_aborts_merge(self, tenant_pipeline):
        with ModelRegistry(max_tenants=2) as registry:
            registry.publish(0, tenant_pipeline)
            before = np.array(registry.publication(0).class_matrix, copy=True)
            delta = np.ones_like(before)
            with pytest.raises(ConfigurationError):
                registry.merge_tenant_deltas(0, [delta], quorum=2)
            with pytest.raises(ConfigurationError):
                registry.merge_tenant_deltas(0, [delta], quorum=0)
            np.testing.assert_array_equal(
                registry.publication(0).class_matrix, before
            )


class TestHotSwap:
    def test_reader_follows_swap_and_counts_it(self, tenant_pipeline):
        with ModelRegistry(max_tenants=2) as registry:
            v1 = registry.publish(0, tenant_pipeline)
            v2 = registry.publish(0, _scaled_copy(tenant_pipeline, 3.0))
            with AttachedFabric(registry.spec(), reader_id=0) as fabric:
                first = fabric.pipeline_for(0)
                registry.promote(0, v2)
                second = fabric.pipeline_for(0)
                assert second is not first
                assert fabric.swaps(0) == 1
                np.testing.assert_array_equal(
                    second.classifier.class_hypervectors_,
                    registry.publication(0, v2).class_matrix,
                )
                registry.rollback(0)
                third = fabric.pipeline_for(0)
                assert fabric.swaps(0) == 2
                np.testing.assert_array_equal(
                    third.classifier.class_hypervectors_,
                    registry.publication(0, v1).class_matrix,
                )

    def test_swap_atomicity_under_concurrent_reader(self, tenant_pipeline):
        """A reader racing the alias flip only ever sees complete versions.

        The writer flips the alias between two versions with bitwise-distinct
        class matrices as fast as it can; a racing reader materializes the
        live replica in a tight loop.  Every observed matrix must be exactly
        one published version -- a torn mix of the two means the flip is not
        atomic from the reader's side.
        """
        with ModelRegistry(max_tenants=2) as registry:
            v1 = registry.publish(0, tenant_pipeline)
            v2 = registry.publish(0, _scaled_copy(tenant_pipeline, 3.0))
            matrices = {
                v: np.array(registry.publication(0, v).class_matrix, copy=True)
                for v in (v1, v2)
            }
            spec = registry.spec()
            failures = []
            stop = threading.Event()

            def flipper():
                for i in range(200):
                    registry.promote(0, v2 if i % 2 == 0 else v1)
                stop.set()

            def reader():
                with AttachedFabric(spec, reader_id=1) as fabric:
                    while not stop.is_set() or not failures:
                        observed = fabric.pipeline_for(
                            0
                        ).classifier.class_hypervectors_
                        if not any(
                            np.array_equal(observed, m)
                            for m in matrices.values()
                        ):
                            failures.append(observed.copy())
                        if stop.is_set():
                            break

            threads = [
                threading.Thread(target=flipper),
                threading.Thread(target=reader),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not failures, "reader observed a torn class matrix"


def _pin_and_hang(spec, tenant):
    """Child process: attach, pin the live version, then hang until killed."""
    fabric = AttachedFabric(spec, reader_id=1)
    fabric.pipeline_for(tenant)
    os.kill(os.getppid(), signal.SIGUSR1)  # "pinned" handshake
    time.sleep(60)


@pytest.mark.slow
class TestCrashDuringSwap:
    def test_sigkilled_reader_is_reclaimed(self, tenant_pipeline):
        """A SIGKILLed reader pins forever until the supervisor reclaims it."""
        with ModelRegistry(max_tenants=2, max_readers=4) as registry:
            v1 = registry.publish(0, tenant_pipeline)
            v2 = registry.publish(0, _scaled_copy(tenant_pipeline, 2.0))

            pinned = threading.Event()
            signal.signal(signal.SIGUSR1, lambda *_: pinned.set())
            ctx = mp.get_context("fork")
            child = ctx.Process(target=_pin_and_hang, args=(registry.spec(), 0))
            child.start()
            try:
                assert pinned.wait(timeout=10), "child never pinned"
                # Crash mid-deployment: the swap happened, the drain cannot.
                registry.promote(0, v2)
                os.kill(child.pid, signal.SIGKILL)
                child.join(timeout=10)
                assert registry.readers_pinning(0, v1) == [1]
                assert registry.retire(0, v1, timeout=0.1) is False
                # Supervisor reclaim: clear the dead reader's row, drain goes
                # through, and serving was never interrupted.
                registry.clear_reader(1)
                assert registry.retire(0, v1, timeout=0.5) is True
                assert registry.live_version(0) == v2
            finally:
                signal.signal(signal.SIGUSR1, signal.SIG_DFL)
                if child.is_alive():
                    child.kill()
                    child.join(timeout=5)

    def test_reattach_clears_stale_lease_row(self, tenant_pipeline):
        """A respawned reader reattaching under its old id self-reclaims."""
        with ModelRegistry(max_tenants=2, max_readers=4) as registry:
            registry.publish(0, tenant_pipeline)
            first = AttachedFabric(registry.spec(), reader_id=2)
            try:
                first.pipeline_for(0)
                assert registry.readers_pinning(0, 1) == [2]
                # A crashed incarnation never releases its pins; the respawn
                # attaching under the same reader id must clear the row.
                second = AttachedFabric(registry.spec(), reader_id=2)
                try:
                    assert registry.readers_pinning(0, 1) == []
                finally:
                    second.close()
            finally:
                first.close()


class TestShadowGate:
    def test_identical_candidate_passes(self, tenant_pipeline):
        mirror = TrafficGenerator(seed=21, subnet="10.0.0").generate(80)
        decision = evaluate_candidate(
            tenant_pipeline,
            pipeline_from_state(pipeline_state_dict(tenant_pipeline)),
            mirror,
            live_version=1,
            candidate_version=2,
        )
        assert decision.ok and decision.parity_ok and decision.recall_ok
        assert decision.divergence_fraction == 0.0
        assert decision.n_flows > 0

    def test_empty_mirror_rejected(self, tenant_pipeline):
        with pytest.raises(ConfigurationError):
            evaluate_candidate(tenant_pipeline, tenant_pipeline, [])

    def test_attack_recall_math(self):
        class Rec:
            def __init__(self, label, flagged):
                self.label = label
                self.flagged = flagged

        records = [Rec("dos", True), Rec("dos", False), Rec("normal", False)]
        assert attack_recall(records, lambda label: label != "normal") == 0.5
        assert attack_recall([Rec("normal", False)], lambda label: False) == 1.0

    def test_promotion_flips_alias_only_on_clean_gate(self, tenant_pipeline):
        mirror = TrafficGenerator(seed=22, subnet="10.0.0").generate(80)
        with ModelRegistry(max_tenants=2) as registry:
            registry.publish(0, tenant_pipeline)
            candidate = registry.publish(
                0, pipeline_from_state(pipeline_state_dict(tenant_pipeline))
            )
            with ShadowDeployment(registry, 0, candidate) as deployment:
                decision = deployment.promote_if_ok(mirror)
            assert decision.ok
            assert registry.live_version(0) == candidate

    def test_corrupted_candidate_rejected_live_keeps_serving(
        self, tenant_pipeline, tenant_stream
    ):
        """The end-to-end negative path: a bit-flipped candidate must fail
        the gate while the live version's behaviour is bit-identical."""
        mirror = TrafficGenerator(seed=23, subnet="10.0.0").generate(100)
        with ModelRegistry(max_tenants=2) as registry:
            live = registry.publish(0, tenant_pipeline)
            candidate = registry.publish(
                0, pipeline_from_state(pipeline_state_dict(tenant_pipeline))
            )
            with ShadowDeployment(
                registry,
                0,
                candidate,
                fault_injector=ServingFaultInjector(error_rate=0.05, seed=0),
            ) as deployment:
                decision = deployment.promote_if_ok(mirror)
            assert not decision.ok and not decision.parity_ok
            assert registry.live_version(0) == live
            # Live serving is untouched by the rejected shadow run.
            with AttachedFabric(registry.spec(), reader_id=0) as fabric:
                batch_a = ServingBatch(flows=list(tenant_stream[:30]))
                run_stages(fabric.pipeline_for(0).stages, batch_a)
                batch_b = ServingBatch(flows=list(tenant_stream[:30]))
                run_stages(tenant_pipeline.stages, batch_b)
                assert batch_a.predictions == batch_b.predictions

    def test_candidate_already_live_rejected(self, tenant_pipeline):
        with ModelRegistry(max_tenants=2) as registry:
            live = registry.publish(0, tenant_pipeline)
            with pytest.raises(ConfigurationError):
                ShadowDeployment(registry, 0, live)


class TestSnapshots:
    def test_roundtrip_preserves_versions_gaps_and_serving(
        self, tenant_pipeline, tenant_stream, tmp_path
    ):
        path = tmp_path / "registry.npz"
        with ModelRegistry(max_tenants=4) as registry:
            v1 = registry.publish(0, tenant_pipeline)
            v2 = registry.publish(0, _scaled_copy(tenant_pipeline, 2.0))
            registry.publish(1, tenant_pipeline)
            registry.promote(0, v2)
            assert registry.retire(0, v1, timeout=0.5) is True  # version gap
            registry.save(path)
        with ModelRegistry.load(path) as restored:
            assert restored.tenants() == [0, 1]
            assert restored.versions(0) == [v2]  # gap preserved, not renumbered
            assert restored.live_version(0) == v2
            assert restored.live_version(1) == 1
            # A later publish continues the append-only numbering past the gap.
            assert restored.publish(0, tenant_pipeline) == v2 + 1
            with AttachedFabric(restored.spec(), reader_id=0) as fabric:
                batch_a = ServingBatch(flows=list(tenant_stream[:30]))
                run_stages(fabric.pipeline_for(1).stages, batch_a)
                batch_b = ServingBatch(flows=list(tenant_stream[:30]))
                run_stages(tenant_pipeline.stages, batch_b)
                assert batch_a.predictions == batch_b.predictions


class TestFabricEngine:
    @staticmethod
    def _two_tenant_setup(online=False):
        registry = ModelRegistry(max_tenants=2, max_readers=2)
        streams = []
        for tenant in range(2):
            registry.publish(tenant, _train(seed=tenant, subnet=f"10.{tenant}.0"))
            streams.extend(
                TrafficGenerator(
                    seed=50 + tenant, subnet=f"10.{tenant}.0"
                ).generate(120, start_time=10_000.0)
            )
        streams.sort(key=lambda p: p.timestamp)
        return registry, streams

    def test_routes_flows_to_their_tenant(self):
        registry, streams = self._two_tenant_setup()
        try:
            with FabricEngine(
                registry.spec(), TenantKeyer.per_subnet(2), reader_id=0
            ) as engine:
                summary = engine.serve(streams, window_size=256)
            assert set(summary["tenants"]) == {"0", "1"}
            for report in summary["tenants"].values():
                assert report["flows"] > 0
                assert report["live_version"] == 1
        finally:
            registry.close()

    def test_online_learning_stays_tenant_scoped(self):
        registry, _ = self._two_tenant_setup()
        try:
            before_0 = np.array(registry.publication(0).class_matrix, copy=True)
            before_1 = np.array(registry.publication(1).class_matrix, copy=True)
            # Traffic for tenant 0's subnet only.
            stream = TrafficGenerator(seed=60, subnet="10.0.0").generate(
                150, start_time=10_000.0
            )
            with FabricEngine(
                registry.spec(),
                TenantKeyer.per_subnet(2),
                reader_id=0,
                online=True,
                registry=registry,
                sync_interval=2,
            ) as engine:
                summary = engine.serve(stream, window_size=128)
            assert summary["online_samples"] > 0
            assert not np.array_equal(
                registry.publication(0).class_matrix, before_0
            )
            np.testing.assert_array_equal(
                registry.publication(1).class_matrix, before_1
            )
        finally:
            registry.close()

    @staticmethod
    def _learn_unsynced(engine, seed):
        """Serve one tenant-0 stream with no sync round; returns the engine."""
        stream = TrafficGenerator(seed=seed, subnet="10.0.0").generate(
            150, start_time=10_000.0
        )
        for start in range(0, len(stream), 128):
            engine.process_packets(stream[start : start + 128])
        assert engine.online_samples > 0
        return engine

    def _online_engine(self, registry, reader_id=0):
        return FabricEngine(
            registry.spec(),
            TenantKeyer.per_subnet(2),
            reader_id=reader_id,
            idle_timeout=0.5,
            online=True,
            registry=registry,
            sync_interval=10**6,
        )

    def test_two_readers_sync_the_sum_of_their_deltas(self, tenant_pipeline):
        base = np.array(tenant_pipeline.classifier.class_hypervectors_, copy=True)
        alone = []
        for seed in (70, 71):
            with ModelRegistry(max_tenants=2) as private:
                private.publish(0, tenant_pipeline)
                with self._online_engine(private) as engine:
                    self._learn_unsynced(engine, seed)
                    assert engine.sync() == [0]
                alone.append(np.array(private.publication(0).class_matrix) - base)
        with ModelRegistry(max_tenants=2, max_readers=2) as registry:
            registry.publish(0, tenant_pipeline)
            with self._online_engine(registry, 0) as a, self._online_engine(
                registry, 1
            ) as b:
                self._learn_unsynced(a, 70)
                self._learn_unsynced(b, 71)
                assert a.sync() == [0]
                assert b.sync() == [0]
            np.testing.assert_allclose(
                registry.publication(0).class_matrix,
                base + alone[0] + alone[1],
                atol=1e-5,
            )

    @staticmethod
    def _serve_unlearnable(engine, at):
        """One tenant-0 packet whose label the model does not know, far
        enough in the future to expire every open flow of the lane."""
        packet = TrafficGenerator(seed=99, subnet="10.0.0").generate(1)[0]
        samples = engine.online_samples
        engine.process_packets([replace(packet, timestamp=at, label="unseen")])
        return engine.online_samples - samples

    def test_rebase_carries_a_lane_update_over_another_readers_merge(
        self, tenant_pipeline
    ):
        """B's unsynced updates survive A's merge: a generation bump from
        another reader rebases B's lane without dropping what B learned."""
        base = np.array(tenant_pipeline.classifier.class_hypervectors_, copy=True)

        def learn_b(engine):
            # B's whole stream is learned here, on the base model: the first
            # unlearnable packet expires (and learns) every flow left open.
            self._learn_unsynced(engine, 71)
            self._serve_unlearnable(engine, 30_000.0)

        alone = []
        for learn in (lambda e: self._learn_unsynced(e, 70), learn_b):
            with ModelRegistry(max_tenants=2) as private:
                private.publish(0, tenant_pipeline)
                with self._online_engine(private) as engine:
                    learn(engine)
                    assert engine.sync() == [0]
                alone.append(np.array(private.publication(0).class_matrix) - base)
        with ModelRegistry(max_tenants=2, max_readers=2) as registry:
            registry.publish(0, tenant_pipeline)
            with self._online_engine(registry, 0) as a, self._online_engine(
                registry, 1
            ) as b:
                learn_b(b)
                self._learn_unsynced(a, 70)
                assert a.sync() == [0]
                # B's lane sees A's generation bump here and rebases; the
                # batch teaches it nothing, so B's delta is its stream's.
                assert self._serve_unlearnable(b, 40_000.0) == 0
                assert b.sync() == [0]
            np.testing.assert_allclose(
                registry.publication(0).class_matrix,
                base + alone[0] + alone[1],
                atol=1e-5,
            )

    def test_sync_after_promotion_drops_the_stale_update(self, tenant_pipeline):
        with ModelRegistry(max_tenants=2) as registry:
            registry.publish(0, tenant_pipeline)
            v2 = registry.publish(0, _scaled_copy(tenant_pipeline, 3.0))
            v2_matrix = np.array(registry.publication(0, v2).class_matrix, copy=True)
            with self._online_engine(registry) as engine:
                self._learn_unsynced(engine, 70)
                registry.promote(0, v2)
                assert engine.sync() == []
            np.testing.assert_array_equal(
                registry.publication(0).class_matrix, v2_matrix
            )

    def test_online_requires_registry(self, tenant_pipeline):
        with ModelRegistry(max_tenants=2) as registry:
            registry.publish(0, tenant_pipeline)
            with pytest.raises(ConfigurationError):
                FabricEngine(
                    registry.spec(), TenantKeyer.per_subnet(2), online=True
                )


@pytest.mark.slow
class TestClusterFabric:
    def test_two_workers_serve_two_tenants(self):
        registry = ModelRegistry(max_tenants=2, max_readers=4)
        streams = []
        base = None
        try:
            for tenant in range(2):
                pipeline = _train(seed=tenant, subnet=f"10.{tenant}.0")
                registry.publish(tenant, pipeline)
                if base is None:
                    base = pipeline
                streams.extend(
                    TrafficGenerator(
                        seed=70 + tenant, subnet=f"10.{tenant}.0"
                    ).generate(150, start_time=10_000.0)
                )
            streams.sort(key=lambda p: p.timestamp)
            coordinator = ClusterCoordinator(
                base,
                ClusterConfig(
                    n_workers=2,
                    batch_size=128,
                    online=False,
                    fabric_spec=registry.spec(),
                    tenant_keyer=TenantKeyer.per_subnet(2),
                ),
            )
            report = coordinator.serve(streams)
            assert report.total_flows > 0
            served = {}
            for worker in report.workers:
                for tenant_id, entry in worker.tenants.items():
                    served[tenant_id] = served.get(tenant_id, 0) + entry["flows"]
            assert set(served) == {"0", "1"}
            assert all(count > 0 for count in served.values())
        finally:
            registry.close()

    def test_cluster_fabric_rejects_online(self, tenant_pipeline):
        with ModelRegistry(max_tenants=2) as registry:
            registry.publish(0, tenant_pipeline)
            with pytest.raises(ConfigurationError):
                ClusterConfig(
                    n_workers=2,
                    online=True,
                    fabric_spec=registry.spec(),
                    tenant_keyer=TenantKeyer.per_subnet(2),
                ).validate()

    def test_fabric_spec_and_keyer_come_paired(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_workers=2, tenant_keyer=TenantKeyer.per_subnet(2)).validate()
