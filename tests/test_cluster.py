"""Tests for the sharded cluster subsystem: router consistency, shared-memory
model publication, delta-merge exactness (cluster online learning vs
single-process ``partial_fit``), the load-scenario library, the end-to-end
multi-process coordinator, supervision (heartbeats, batch ledger, watchdog,
respawn/redispatch recovery), and graceful shutdown."""

import os
import signal
import time
from collections import deque
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.cluster import (
    AttachedPublication,
    ClusterConfig,
    ClusterCoordinator,
    ClusterState,
    ModelPublication,
    RetryPolicy,
    SCENARIOS,
    ShardRouter,
    Watchdog,
    WorkerFailure,
    WorkerRuntime,
    get_scenario,
    interpolate_profile,
    scenario_names,
)
from repro.cluster.router import flow_key_token, stable_hash64
from repro.cluster.worker import (
    BatchAck,
    DeltaReport,
    FinalReport,
    PacketBatch,
    WorkerSummary,
)
from repro.core.cyberhd import CyberHD
from repro.exceptions import ClusterError, ConfigurationError
from repro.hdc.backend import merge_class_deltas, row_norms
from repro.models.hdc_classifier import BaselineHDC
from repro.nids.flow import FlowKey, FlowTable
from repro.nids.packets import DEFAULT_PROFILES, TrafficGenerator
from repro.nids.pipeline import DetectionPipeline
from repro.nids.streaming import StreamingDetector
from repro.serving import GracefulShutdown, chunked
from repro.serving.stages import ServingBatch, run_stages


@pytest.fixture(scope="module")
def trained_pipeline():
    packets = TrafficGenerator(seed=0).generate(150)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=128, epochs=4, regeneration_rate=0.1, seed=0)
    )
    return pipeline.fit_packets(packets)


@pytest.fixture(scope="module")
def stream_flows(trained_pipeline):
    table = FlowTable()
    packets = TrafficGenerator(seed=9).generate(200, start_time=10_000.0)
    return table.add_packets(packets) + table.flush()


def _sequential_partial_fit(pipeline, flow_batches, base=None):
    """Reference: plain single-process partial_fit over the given batches."""
    from repro.persistence import pipeline_from_state, pipeline_state_dict

    replica = pipeline_from_state(pipeline_state_dict(pipeline))
    if base is not None:
        replica.classifier.set_class_vectors(base)
    for flows in flow_batches:
        batch = ServingBatch(flows=list(flows))
        run_stages(replica.stages, batch)
        data = replica.batch_training_data(batch)
        if data is not None:
            replica.classifier.partial_fit(*data)
    return replica.classifier.class_hypervectors_


class TestShardRouter:
    def test_deterministic_across_instances(self):
        keys = [
            FlowKey(f"10.0.0.{i}", 1000 + i, "192.168.1.9", 443, "tcp")
            for i in range(200)
        ]
        a = ShardRouter(4)
        b = ShardRouter(4)
        assert [a.shard_for_key(k) for k in keys] == [b.shard_for_key(k) for k in keys]

    def test_both_directions_same_shard(self):
        router = ShardRouter(8)
        packets = TrafficGenerator(seed=1).generate(50)
        for packet in packets:
            forward = FlowKey.from_packet(packet)
            assert router.shard_for_packet(packet) == router.shard_for_key(forward)

    def test_covers_all_shards_and_balances(self):
        router = ShardRouter(4, vnodes=128)
        keys = [
            FlowKey(f"10.1.{i % 250}.{i % 17}", i % 60_000, "192.168.0.1", 80, "tcp")
            for i in range(4000)
        ]
        counts = np.bincount([router.shard_for_key(k) for k in keys], minlength=4)
        assert counts.min() > 0
        # Virtual nodes keep the skew modest.
        assert counts.max() < 2.5 * counts.min()

    def test_consistent_hashing_minimal_remap(self):
        """Growing the ring remaps roughly 1/(n+1) of keys, never more."""
        before = ShardRouter(4, vnodes=128)
        after = ShardRouter(5, vnodes=128)
        keys = [
            FlowKey(f"172.16.{i % 250}.{i % 11}", i % 50_000, "10.9.9.9", 22, "tcp")
            for i in range(3000)
        ]
        moved = 0
        for key in keys:
            old, new = before.shard_for_key(key), after.shard_for_key(key)
            if old != new:
                # Keys only move to the new worker, never between old ones.
                assert new == 4
                moved += 1
        assert 0 < moved < 0.45 * len(keys)

    def test_partition_preserves_per_shard_order(self):
        router = ShardRouter(3)
        packets = TrafficGenerator(seed=2).generate(80)
        shards = router.partition_packets(packets)
        assert sum(len(s) for s in shards) == len(packets)
        for shard in shards:
            times = [p.timestamp for p in shard]
            assert times == sorted(times)

    def test_stable_hash_is_stable(self):
        # Pinned value: guards against an accidental hash-function change,
        # which would silently re-home every flow across a rolling restart.
        assert stable_hash64("shard:0:vnode:0") == stable_hash64("shard:0:vnode:0")
        key = FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, "tcp")
        assert flow_key_token(key) == "10.0.0.1:1234|10.0.0.2:80|tcp"

    def test_owns_guard(self):
        router = ShardRouter(2)
        key = FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, "tcp")
        shard = router.shard_for_key(key)
        assert router.owns(shard)(key)
        assert not router.owns(1 - shard)(key)
        with pytest.raises(ConfigurationError):
            router.owns(5)

    def test_excluding_keeps_survivor_keys_put(self):
        """Failover only re-homes the dead worker's keyspace."""
        router = ShardRouter(4, vnodes=64)
        keys = [
            FlowKey(f"10.3.{i % 200}.{i % 13}", i % 40_000, "10.0.0.9", 443, "tcp")
            for i in range(2000)
        ]
        view = router.excluding([1])
        moved = 0
        for key in keys:
            old, new = router.shard_for_key(key), view.shard_for_key(key)
            if old == 1:
                assert new != 1  # dead keyspace re-homed...
                moved += 1
            else:
                assert new == old  # ...survivors' keys never move
        assert moved > 0

    def test_excluding_validates(self):
        router = ShardRouter(2)
        with pytest.raises(ConfigurationError):
            router.excluding([7])
        with pytest.raises(ConfigurationError):
            router.excluding([0, 1])
        # The view preserves cluster identity (same worker-id space).
        assert router.excluding([0]).n_workers == 2


class TestShardGuardedFlowTable:
    def test_misrouted_packet_rejected(self):
        router = ShardRouter(2)
        packets = TrafficGenerator(seed=3).generate(30)
        shards = router.partition_packets(packets)
        table = FlowTable(shard_guard=router.owns(0))
        table.add_packets(shards[0])  # owned traffic is fine
        foreign = shards[1]
        assert foreign, "expected traffic on both shards"
        with pytest.raises(ConfigurationError):
            table.add_packets(foreign[: len(foreign)])
        with pytest.raises(ConfigurationError):
            FlowTable(shard_guard=router.owns(0)).add_packet(foreign[0])


class TestModelPublication:
    def test_attach_roundtrip_predicts_identically(self, trained_pipeline, stream_flows):
        with ModelPublication(trained_pipeline) as publication:
            attached = AttachedPublication(publication.spec())
            replica = attached.build_replica()
            batch_a = ServingBatch(flows=list(stream_flows[:40]))
            run_stages(replica.stages, batch_a)
            batch_b = ServingBatch(flows=list(stream_flows[:40]))
            run_stages(trained_pipeline.stages, batch_b)
            assert batch_a.predictions == batch_b.predictions
            np.testing.assert_allclose(batch_a.scores, batch_b.scores, rtol=1e-6)
            # Encoder tensors are zero-copy views over shared memory...
            assert not replica.classifier.encoder_._bases.flags.owndata
            # ...while the trainable class matrix is private.
            assert replica.classifier.class_hypervectors_.flags.owndata
            attached.close()

    def test_republish_bumps_generation_and_rebase_adopts(self, trained_pipeline):
        with ModelPublication(trained_pipeline) as publication:
            attached = AttachedPublication(publication.spec())
            replica = attached.build_replica()
            assert attached.generation == 0
            publication.class_matrix[...] *= 2.0
            publication.class_norms[:] = row_norms(publication.class_matrix)
            publication.bump_generation()
            assert attached.generation == 1
            attached.refresh_replica(replica.classifier)
            np.testing.assert_array_equal(
                replica.classifier.class_hypervectors_, publication.class_matrix
            )
            attached.close()

    def test_bump_generation_visible_to_attached_reader(self, trained_pipeline):
        with ModelPublication(trained_pipeline) as publication:
            with AttachedPublication(publication.spec()) as attached:
                assert attached.generation == 0
                assert publication.bump_generation() == 1
                assert attached.generation == 1
                assert publication.bump_generation() == 2
                assert attached.generation == 2

    def test_repack_visible_to_attached_reader(self):
        packets = TrafficGenerator(seed=3).generate(120)
        pipeline = DetectionPipeline(
            classifier=CyberHD(dim=96, epochs=3, seed=3, inference_bits=1)
        ).fit_packets(packets)
        with ModelPublication(pipeline) as publication:
            with AttachedPublication(publication.spec()) as attached:
                replica = attached.build_replica()
                assert replica.classifier._packed_classes.shared
                before = np.array(attached.packed_matrix().words, copy=True)
                # Negating the float matrix flips every sign bit the packed
                # model is derived from.
                publication.class_matrix[...] *= -1.0
                publication.class_norms[:] = row_norms(publication.class_matrix)
                assert publication.repack() is True
                generation = publication.bump_generation()
                after = attached.packed_matrix()
                assert not np.array_equal(before, after.words)
                # state_dict reads the repacked words back from the blocks.
                np.testing.assert_array_equal(
                    publication.state_dict()["packed_words"], after.words
                )
                # A rebased replica re-attaches the repacked shared words.
                assert attached.refresh_replica(replica.classifier) == generation
                np.testing.assert_array_equal(
                    replica.classifier._packed_classes.words, after.words
                )

    def test_repack_without_packed_model_is_noop(self, trained_pipeline):
        with ModelPublication(trained_pipeline) as publication:
            assert publication.repack() is False


class TestDeltaMerge:
    def test_merge_class_deltas_math_and_norms(self):
        base = np.arange(12, dtype=np.float32).reshape(3, 4)
        norms = row_norms(base)
        d1 = np.zeros_like(base)
        d1[0] = 1.0
        d2 = np.zeros_like(base)
        d2[2] = -0.5
        merged = merge_class_deltas(base, [d1, d2], norms)
        assert merged is base
        expected = np.arange(12, dtype=np.float32).reshape(3, 4)
        expected[0] += 1.0
        expected[2] -= 0.5
        np.testing.assert_array_equal(base, expected)
        np.testing.assert_allclose(norms, row_norms(base), rtol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_class_deltas(np.zeros((2, 3)), [np.zeros((3, 2))])

    def test_model_delta_roundtrip(self, small_dataset):
        model = BaselineHDC(dim=64, epochs=2, seed=0).fit(
            small_dataset.X_train, small_dataset.y_train
        )
        base = model.class_vector_snapshot()
        model.partial_fit(small_dataset.X_test[:64], small_dataset.y_test[:64])
        delta = model.class_vector_delta(base)
        rebuilt = BaselineHDC(dim=64, epochs=2, seed=0).fit(
            small_dataset.X_train, small_dataset.y_train
        )
        rebuilt.apply_class_delta(delta)
        np.testing.assert_allclose(
            rebuilt.class_hypervectors_, model.class_hypervectors_, rtol=1e-5, atol=1e-5
        )


class TestClusterOnlineEquivalence:
    """The acceptance property: delta-merged cluster online learning matches
    single-process ``partial_fit`` class vectors to float32 tolerance."""

    N = 4
    BATCH = 64

    def _run_cluster_round(self, pipeline, shards, publication):
        attached = AttachedPublication(publication.spec())
        runtimes = [
            WorkerRuntime(i, self.N, attached, online=True) for i in range(self.N)
        ]
        for worker_id, flows in enumerate(shards):
            for start in range(0, len(flows), self.BATCH):
                runtimes[worker_id].handle_flows(flows[start : start + self.BATCH])
        deltas = [rt.compute_delta() for rt in runtimes]
        merge_class_deltas(publication.class_matrix, deltas, publication.class_norms)
        publication.bump_generation()
        for rt in runtimes:
            rt.rebase()
        attached.close()
        return runtimes

    def test_single_worker_matches_sequential_partial_fit(
        self, trained_pipeline, stream_flows
    ):
        with ModelPublication(trained_pipeline) as publication:
            attached = AttachedPublication(publication.spec())
            runtime = WorkerRuntime(0, 1, attached, online=True)
            batches = [
                stream_flows[i : i + self.BATCH]
                for i in range(0, len(stream_flows), self.BATCH)
            ]
            for flows in batches:
                runtime.handle_flows(flows)
            merge_class_deltas(
                publication.class_matrix,
                [runtime.compute_delta()],
                publication.class_norms,
            )
            reference = _sequential_partial_fit(trained_pipeline, batches)
            np.testing.assert_allclose(
                publication.class_matrix, reference, rtol=1e-5, atol=1e-4
            )
            attached.close()

    def test_sharded_merge_matches_round_synchronous_reference(
        self, trained_pipeline, stream_flows
    ):
        router = ShardRouter(self.N)
        shards = [[] for _ in range(self.N)]
        for flow in stream_flows:
            shards[router.shard_for_key(flow.key)].append(flow)
        assert all(shards), "expected flows on every shard"

        with ModelPublication(trained_pipeline) as publication:
            base = publication.class_matrix.copy()
            self._run_cluster_round(trained_pipeline, shards, publication)
            merged = publication.class_matrix.copy()

        # Reference: each shard's stream applied single-process from the
        # round-start model; the deltas sum (HDC's additive aggregation).
        expected = base.copy()
        for flows in shards:
            batches = [
                flows[i : i + self.BATCH] for i in range(0, len(flows), self.BATCH)
            ]
            shard_result = _sequential_partial_fit(
                trained_pipeline, batches, base=base
            )
            expected += shard_result - base
        np.testing.assert_allclose(merged, expected, rtol=1e-5, atol=1e-4)

    def test_merged_model_differs_from_base(self, trained_pipeline, stream_flows):
        router = ShardRouter(self.N)
        shards = [[] for _ in range(self.N)]
        for flow in stream_flows:
            shards[router.shard_for_key(flow.key)].append(flow)
        with ModelPublication(trained_pipeline) as publication:
            base = publication.class_matrix.copy()
            runtimes = self._run_cluster_round(trained_pipeline, shards, publication)
            assert any(rt.summary.online_updates for rt in runtimes)
            assert not np.allclose(publication.class_matrix, base)


class TestLoadScenarios:
    def test_registry(self):
        assert set(scenario_names()) == {
            "mixed_benign",
            "ddos_burst",
            "port_scan_sweep",
            "low_and_slow_exfiltration",
            "gradual_drift",
        }
        with pytest.raises(ConfigurationError):
            get_scenario("nope")

    def test_packets_time_ordered_and_deterministic(self):
        for name in scenario_names():
            scenario = SCENARIOS[name]
            packets = scenario.build_packets(seed=5, flows_scale=0.1)
            assert packets
            times = [p.timestamp for p in packets]
            assert times == sorted(times)
            again = scenario.build_packets(seed=5, flows_scale=0.1)
            assert [p.timestamp for p in again] == times

    def test_scenario_labels_within_default_space(self):
        trained = {p.name for p in DEFAULT_PROFILES}
        for name in scenario_names():
            packets = SCENARIOS[name].build_packets(seed=1, flows_scale=0.05)
            assert {p.label for p in packets} <= trained

    def test_ddos_burst_is_bursty(self):
        packets = get_scenario("ddos_burst").build_packets(seed=2, flows_scale=0.5)
        flood = sum(1 for p in packets if p.label == "syn_flood")
        assert flood / len(packets) > 0.3

    def test_drift_phases_shift_statistics(self):
        scenario = get_scenario("gradual_drift")
        first, last = scenario.phases[0], scenario.phases[-1]
        b0 = first.profiles[0]
        b1 = last.profiles[0]
        assert b0.name == b1.name == "benign"
        assert b1.packet_length[0] > b0.packet_length[0]

    def test_interpolate_profile_bounds(self):
        a, b = DEFAULT_PROFILES[0], DEFAULT_PROFILES[1]
        mid = interpolate_profile(a, b, 0.5)
        assert mid.name == a.name
        assert a.packet_length[0] != b.packet_length[0]
        assert (
            min(a.packet_length[0], b.packet_length[0])
            < mid.packet_length[0]
            < max(a.packet_length[0], b.packet_length[0])
        )
        with pytest.raises(ConfigurationError):
            interpolate_profile(a, b, 1.5)

    def test_interpolate_profile_endpoints(self):
        """t=0 reproduces a's statistics exactly; t=1 reproduces b's."""
        a, b = DEFAULT_PROFILES[0], DEFAULT_PROFILES[2]
        at_zero = interpolate_profile(a, b, 0.0)
        assert at_zero.packets_per_flow == a.packets_per_flow
        assert at_zero.packet_length == a.packet_length
        assert at_zero.inter_arrival == a.inter_arrival
        assert at_zero.reply_ratio == a.reply_ratio
        at_one = interpolate_profile(a, b, 1.0)
        assert at_one.packets_per_flow == b.packets_per_flow
        assert at_one.packet_length == b.packet_length
        assert at_one.inter_arrival == b.inter_arrival
        assert at_one.reply_ratio == b.reply_ratio
        # Identity and flag behaviour always stay a's: drift moves the
        # statistics of a known label, never invents a new one.
        assert at_one.name == a.name
        assert at_one.is_attack == a.is_attack
        assert at_one.syn_only == a.syn_only

    def test_interpolate_profile_clamps_out_of_range(self):
        a, b = DEFAULT_PROFILES[0], DEFAULT_PROFILES[1]
        for t in (-0.01, -5.0, 1.0001, 2.0):
            with pytest.raises(ConfigurationError):
                interpolate_profile(a, b, t)

    def test_generation_config_interpolate_edges(self):
        from repro.datasets.synthetic import GENERATION_PRESETS, GenerationConfig
        from repro.exceptions import DatasetError

        clean = GENERATION_PRESETS["clean"]
        hard = GENERATION_PRESETS["hard"]
        at_zero = clean.interpolate(hard, 0.0)
        assert at_zero == clean
        at_one = clean.interpolate(hard, 1.0)
        assert at_one == hard
        mid = clean.interpolate(hard, 0.5)
        assert mid.separability == pytest.approx(
            0.5 * (clean.separability + hard.separability)
        )
        for t in (-0.1, 1.5):
            with pytest.raises(DatasetError):
                clean.interpolate(hard, t)
        # The result is validated, so interpolating toward a config that was
        # never validated still cannot produce an out-of-range mixture.
        assert isinstance(clean.interpolate(GenerationConfig(), 0.5), GenerationConfig)

    def test_tabular_companion(self):
        dataset = get_scenario("gradual_drift").tabular_dataset(
            n_train=120, n_test=60, seed=0
        )
        assert dataset.X_train.shape[0] == 120
        assert dataset.metadata["separability"] == pytest.approx(2.0)


class _FakeProcess:
    """A process stand-in for watchdog unit tests (no fork needed)."""

    def __init__(self, alive=True, exitcode=None):
        self._alive = alive
        self.exitcode = exitcode
        self.kills = 0

    def is_alive(self):
        return self._alive

    def kill(self):
        self.kills += 1
        self._alive = False
        self.exitcode = -9


class _StubFrame:
    """Minimal PacketFrame stand-in for ledger bookkeeping tests."""

    def __init__(self, n_packets):
        self.n_packets = n_packets

    def to_packets(self):
        return [None] * self.n_packets


def _batch(seq, n_packets=3):
    return PacketBatch(seq=seq, frame=_StubFrame(n_packets))


def _ack(index, watermark):
    return BatchAck(
        worker_id=0,
        seq=index,
        index=index,
        watermark=watermark,
        packets=0,
        flows=0,
        alerts=0,
    )


class TestRetryPolicy:
    def test_defaults_validate(self):
        policy = RetryPolicy().validate()
        assert policy.max_respawns == 2
        assert policy.on_exhausted == "shed"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heartbeat_interval": 0.0},
            {"heartbeat_interval": 2.0, "heartbeat_timeout": 1.0},
            {"check_interval": 0.0},
            {"max_respawns": -1},
            {"respawn_backoff": -0.1},
            {"max_retained_batches": 0},
            {"on_exhausted": "retry"},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs).validate()

    def test_cluster_config_validates_policy(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(retry=RetryPolicy(max_respawns=-1)).validate()


class TestBatchLedger:
    """The batch ledger each :class:`ClusterState` worker record keeps."""

    def test_dispatch_indexes_per_incarnation(self):
        state = ClusterState(2)
        assert state.dispatch(0, _batch(10)) == 0
        assert state.dispatch(0, _batch(11)) == 1
        assert state.dispatch(1, _batch(12)) == 0
        assert state.workers[0].dispatched == 2
        assert state.workers[0].outstanding == 2

    def test_ack_prunes_to_watermark_not_index(self):
        """An acked batch stays replayable while an open flow still needs it."""
        state = ClusterState(1)
        record = state.workers[0]
        for seq in range(4):
            state.dispatch(0, _batch(seq))
        # Batches 0-2 acked, but a flow opened in batch 1 is still active.
        state.ack(_ack(0, watermark=0))
        state.ack(_ack(1, watermark=1))
        state.ack(_ack(2, watermark=1))
        assert record.acked == 3
        assert [i for i, _ in record.entries] == [1, 2, 3]
        assert [i for i, _ in record.unacked()] == [3]
        assert record.unacked_seqs() == [3]
        # The flow closes: the watermark catches up and releases 1 and 2.
        state.ack(_ack(3, watermark=4))
        assert list(record.entries) == []
        assert record.outstanding == 0

    def test_watermark_never_regresses(self):
        state = ClusterState(1)
        for seq in range(3):
            state.dispatch(0, _batch(seq))
        state.ack(_ack(1, watermark=2))
        state.ack(_ack(2, watermark=1))  # late/stale watermark
        assert [i for i, _ in state.workers[0].entries] == [2]

    def test_reset_reindexes_from_zero(self):
        """A respawn's replay is the fresh incarnation's first dispatches."""
        state = ClusterState(1)
        for seq in range(3):
            state.dispatch(0, _batch(seq))
        state.ack(_ack(0, watermark=1))
        state.respawn(0)
        record = state.workers[0]
        assert [i for i, _ in record.entries] == [0, 1]
        assert record.dispatched == 2
        assert record.acked == 0

    def test_clear_returns_and_settles(self):
        state = ClusterState(2, RetryPolicy(max_respawns=0, on_exhausted="failover"))
        for seq in range(2):
            state.dispatch(0, _batch(seq))
        recovery = state.fail(WorkerFailure(0, "crash", 0, detected_at=0.0))
        cleared = state.shed(recovery)
        assert [b.seq for b in cleared] == [0, 1]
        assert list(state.workers[0].entries) == []
        assert state.workers[0].outstanding == 0

    def test_retention_bound_evicts_oldest(self):
        state = ClusterState(1, RetryPolicy(max_retained_batches=2))
        for seq in range(5):
            state.dispatch(0, _batch(seq))
        assert state.recovery.ledger_evictions == 3
        assert [b.seq for _, b in state.workers[0].entries] == [3, 4]

    def test_constructor_validates(self):
        with pytest.raises(ConfigurationError):
            ClusterState(0)
        with pytest.raises(ConfigurationError):
            ClusterState(1, RetryPolicy(max_retained_batches=0))


class TestWatchdog:
    def _watchdog(self, rows, **policy_kwargs):
        policy = RetryPolicy(
            heartbeat_interval=0.1, heartbeat_timeout=1.0, **policy_kwargs
        ).validate()
        clock = {"now": 100.0}
        dog = Watchdog(lambda: rows(), policy, clock=lambda: clock["now"])
        return dog, clock

    def test_clean_exit_is_still_a_crash(self):
        """Satellite regression: exit code 0 with messages owing is dead."""
        process = _FakeProcess(alive=False, exitcode=0)
        dog, _ = self._watchdog(lambda: [(0, 0, process, False, 100.0)])
        dog.scan_once()
        failures = dog.take_failures()
        assert len(failures) == 1
        assert failures[0].kind == "crash"
        assert failures[0].exitcode == 0

    def test_expected_exit_not_flagged(self):
        process = _FakeProcess(alive=False, exitcode=0)
        dog, _ = self._watchdog(lambda: [(0, 0, process, True, 100.0)])
        dog.scan_once()
        assert dog.take_failures() == []

    def test_stale_heartbeat_kills_and_reports_hang(self):
        process = _FakeProcess(alive=True)
        dog, clock = self._watchdog(lambda: [(0, 0, process, False, 100.0)])
        clock["now"] = 100.5  # fresh: within timeout
        dog.scan_once()
        assert dog.take_failures() == []
        assert process.kills == 0
        clock["now"] = 102.0  # stale: 2s > 1s timeout
        dog.scan_once()
        failures = dog.take_failures()
        assert len(failures) == 1
        assert failures[0].kind == "hang"
        assert failures[0].heartbeat_age == pytest.approx(2.0)
        assert process.kills == 1

    def test_failures_deduplicated_per_incarnation(self):
        process = _FakeProcess(alive=False, exitcode=-9)
        rows = [(0, 0, process, False, 100.0)]
        dog, _ = self._watchdog(lambda: rows)
        dog.scan_once()
        dog.scan_once()
        assert len(dog.take_failures()) == 1
        assert dog.take_failures() == []
        # A respawn bumps the incarnation; its death is a *new* failure.
        rows[0] = (0, 1, _FakeProcess(alive=False, exitcode=-9), False, 100.0)
        dog.scan_once()
        assert len(dog.take_failures()) == 1

    def test_start_stop_idempotent(self):
        dog, _ = self._watchdog(lambda: [])
        dog.start()
        dog.start()
        dog.stop()
        dog.stop()

    def test_faulting_scan_surfaces_at_take_failures(self):
        """A scan thread that faults must not leave the cluster blind."""

        def broken_snapshot():
            raise KeyError("torn supervision row")

        dog = Watchdog(broken_snapshot, RetryPolicy(check_interval=0.01))
        dog.start()
        try:
            deadline = time.monotonic() + 5.0
            while dog._thread.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not dog._thread.is_alive()
            with pytest.raises(ClusterError, match="torn supervision row"):
                dog.take_failures()
        finally:
            dog.stop()


class TestCollectFailureBranches:
    """Protocol/round-mismatch branches of ``_collect``, driven in-process."""

    def _coordinator(self, trained_pipeline, pending):
        coordinator = ClusterCoordinator(
            trained_pipeline, ClusterConfig(n_workers=1, batch_size=64)
        )
        # Minimal stubbed supervision state: one live, never-respawned worker
        # whose messages are preloaded on the pending deque, so _collect
        # never touches queues or spawns anything.
        coordinator._pending = deque(pending)
        coordinator.state = ClusterState(1)
        coordinator._processes = [_FakeProcess(alive=True)]
        return coordinator

    def _delta_report(self, round_id):
        return DeltaReport(
            worker_id=0,
            round_id=round_id,
            delta=np.zeros((2, 2), dtype=np.float32),
        )

    def test_wrong_kind_raises_protocol_mismatch(self, trained_pipeline):
        final = FinalReport(summary=WorkerSummary(worker_id=0), final_delta=None)
        coordinator = self._coordinator(trained_pipeline, [final])
        with pytest.raises(RuntimeError, match="expected DeltaReport, got FinalReport"):
            coordinator._collect(DeltaReport, {0: 0}, round_id=0)

    def test_future_round_raises_mismatch(self, trained_pipeline):
        coordinator = self._coordinator(trained_pipeline, [self._delta_report(2)])
        with pytest.raises(RuntimeError, match="round mismatch"):
            coordinator._collect(DeltaReport, {0: 0}, round_id=1)

    def test_stale_round_discarded(self, trained_pipeline):
        """A crashed incarnation's last-gasp delta must not poison the round."""
        coordinator = self._coordinator(
            trained_pipeline, [self._delta_report(0), self._delta_report(1)]
        )
        reports = coordinator._collect(DeltaReport, {0: 0}, round_id=1)
        assert [r.round_id for r in reports] == [1]

    def test_stale_delta_during_final_drain_discarded(self, trained_pipeline):
        final = FinalReport(summary=WorkerSummary(worker_id=0), final_delta=None)
        coordinator = self._coordinator(
            trained_pipeline, [self._delta_report(0), final]
        )
        reports = coordinator._collect(FinalReport, {0: 0}, round_id=None)
        assert len(reports) == 1
        assert isinstance(reports[0], FinalReport)


@pytest.mark.cluster
class TestClusterEndToEnd:
    """Real worker processes, shared memory, queues and delta syncs."""

    def test_two_worker_cluster_serves_and_learns(self, trained_pipeline):
        packets = get_scenario("mixed_benign").build_packets(
            seed=11, flows_scale=0.5, start_time=50_000.0
        )
        before = trained_pipeline.classifier.class_vector_snapshot()
        coordinator = ClusterCoordinator(
            trained_pipeline,
            ClusterConfig(n_workers=2, batch_size=256, sync_interval=2, online=True),
        )
        report = coordinator.serve(packets)

        single = StreamingDetector(trained_pipeline, window_size=256)
        single.push_many(packets)
        single.flush()

        assert report.total_packets == len(packets)
        # Sharding must lose no flows: the union of per-shard flow sets is
        # exactly the single-process flow set.
        assert report.total_flows == single.total_flows
        assert report.total_alerts > 0
        assert len(report.workers) == 2
        assert all(w.flows > 0 for w in report.workers)
        assert report.sync_rounds >= 1
        assert report.generation >= report.sync_rounds
        assert any(w.online_updates > 0 for w in report.workers)
        # The coordinator's pipeline now carries the cluster-adapted model.
        after = trained_pipeline.classifier.class_hypervectors_
        assert not np.allclose(after, before)
        trained_pipeline.classifier.set_class_vectors(before)  # restore for peers

    def test_dead_worker_fails_fast_and_frees_resources(self, trained_pipeline):
        """With the respawn budget zeroed and shedding off, the
        pre-supervision fail-fast contract survives: first failure raises,
        naming the unacked batches, and tears the cluster down."""
        packets = TrafficGenerator(seed=19).generate(400, start_time=200_000.0)
        coordinator = ClusterCoordinator(
            trained_pipeline,
            ClusterConfig(
                n_workers=2,
                batch_size=64,
                queue_capacity=1,
                retry=RetryPolicy(max_respawns=0, on_exhausted="raise"),
            ),
        )
        coordinator.start()
        # Simulate a crashed replica: its inbox stops draining.  SIGKILL,
        # because workers deliberately ignore SIGTERM.
        coordinator._processes[0].kill()
        coordinator._processes[0].join(timeout=5.0)
        with pytest.raises(RuntimeError, match="died .* no respawn budget"):
            coordinator.serve(packets)
        # The failure path must tear the cluster down (no leaked shm blocks,
        # no wedged state), so a retry can start fresh.
        assert coordinator.publication is None
        assert not coordinator._started

    def test_crashed_worker_respawns_with_flow_exact_redispatch(
        self, trained_pipeline
    ):
        """The tentpole acceptance property: SIGKILL one of two workers
        mid-stream -> the watchdog detects it, the slot respawns against the
        live publication, the ledger's retained batches redispatch, and the
        deduplicated served-flow set exactly matches a single-process run."""
        packets = TrafficGenerator(seed=29).generate(3000, start_time=300_000.0)
        coordinator = ClusterCoordinator(
            trained_pipeline,
            ClusterConfig(
                n_workers=2,
                batch_size=64,
                online=False,
                capture_predictions=True,
                retry=RetryPolicy(
                    heartbeat_interval=0.05,
                    heartbeat_timeout=2.0,
                    check_interval=0.02,
                    respawn_backoff=0.0,
                ),
            ),
        )
        coordinator.start()
        half = len(packets) // 2
        coordinator.serve_packets(packets[:half])
        coordinator.kill_worker(0)
        coordinator.serve_packets(packets[half:])
        report = coordinator.shutdown()

        assert report.recovery.total_respawns >= 1
        assert report.recovery.total_redispatched_batches >= 1
        assert report.recovery.unrecovered_batches == 0
        assert report.recovery.max_recovery_seconds > 0
        failure = report.recovery.failures[0]
        assert failure.kind == "crash"
        assert failure.respawned and not failure.shed

        # Flow-exact recovery: every flow the single-process engine serves
        # is served (exactly once after dedup) by the crashed cluster too.
        single = StreamingDetector(trained_pipeline, window_size=256)
        single.push_many(packets)
        single.flush()
        assert report.flow_predictions is not None
        assert len(report.flow_predictions) == single.total_flows

    def test_exhausted_respawns_shed_load_instead_of_aborting(
        self, trained_pipeline
    ):
        """Budget spent + ``on_exhausted="shed"``: the run degrades (drop
        accounting) and completes instead of raising."""
        packets = TrafficGenerator(seed=37).generate(1200, start_time=400_000.0)
        coordinator = ClusterCoordinator(
            trained_pipeline,
            ClusterConfig(
                n_workers=2,
                batch_size=64,
                retry=RetryPolicy(max_respawns=0, on_exhausted="shed"),
            ),
        )
        coordinator.start()
        coordinator.serve_packets(packets[:600])
        coordinator.kill_worker(0)
        coordinator.serve_packets(packets[600:])
        report = coordinator.shutdown()
        failure = report.recovery.failures[0]
        assert failure.shed and not failure.respawned
        assert report.recovery.shed_batches > 0
        assert report.recovery.unrecovered_batches == report.recovery.shed_batches
        assert report.shed_stats is not None
        assert report.shed_stats["dropped_oldest"] == report.recovery.shed_batches
        # Both worker slots still report (the dead one synthesized from acks).
        assert len(report.workers) == 2
        # The survivor's shard kept serving.
        assert report.workers[1].flows > 0

    def test_exhausted_respawns_fail_over_to_survivors(self, trained_pipeline):
        """Budget spent + failover: the dead shard's keyspace re-homes onto
        the survivor and its retained batches are re-served there."""
        packets = TrafficGenerator(seed=41).generate(1200, start_time=500_000.0)
        coordinator = ClusterCoordinator(
            trained_pipeline,
            ClusterConfig(
                n_workers=2,
                batch_size=64,
                retry=RetryPolicy(max_respawns=0, on_exhausted="failover"),
            ),
        )
        coordinator.start()
        coordinator.serve_packets(packets[:600])
        coordinator.kill_worker(0)
        coordinator.serve_packets(packets[600:])
        report = coordinator.shutdown()
        failure = report.recovery.failures[0]
        assert failure.failed_over and not failure.shed
        assert failure.redispatched_batches > 0
        assert report.recovery.unrecovered_batches == 0
        # The survivor absorbed the re-homed keyspace on top of its own.
        assert report.workers[1].flows > 0
        assert report.workers[1].packets > 600

    def test_abort_is_idempotent_and_frees_shared_memory(self, trained_pipeline):
        """Satellite: double ``_abort`` (including after partial progress)
        leaves no shm blocks behind and the coordinator restartable."""
        packets = TrafficGenerator(seed=43).generate(200, start_time=600_000.0)
        coordinator = ClusterCoordinator(
            trained_pipeline, ClusterConfig(n_workers=2, batch_size=64)
        )
        coordinator.start()
        spec = coordinator.publication.spec()
        block_names = [b.name for b in spec.blocks.values()]
        block_names.append(spec.norms_block.name)
        block_names.append(spec.meta_block_name)
        if spec.packed_block is not None:
            block_names.append(spec.packed_block.name)
        if spec.packed_state_block is not None:
            block_names.append(spec.packed_state_block.name)
        coordinator.serve_packets(packets[:100])  # partial progress
        coordinator._abort()
        assert coordinator.publication is None
        assert not coordinator._started
        for name in block_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        coordinator._abort()  # second call must be a no-op
        assert coordinator.publication is None
        # Not wedged: a fresh start serves to completion.
        report = coordinator.serve(packets)
        assert report.total_packets == len(packets)
        assert coordinator.publication is None
        # And aborting after a clean shutdown is also a no-op.
        coordinator._abort()

    def test_spawn_start_method(self, trained_pipeline):
        """The spec/worker bootstrap must survive pickling (spawn path)."""
        packets = TrafficGenerator(seed=23).generate(40, start_time=250_000.0)
        coordinator = ClusterCoordinator(
            trained_pipeline,
            ClusterConfig(n_workers=2, batch_size=128, start_method="spawn"),
        )
        report = coordinator.serve(packets)
        assert report.total_packets == len(packets)
        assert report.total_flows > 0

    def test_offline_cluster_model_unchanged(self, trained_pipeline):
        packets = TrafficGenerator(seed=13).generate(60, start_time=90_000.0)
        before = trained_pipeline.classifier.class_vector_snapshot()
        coordinator = ClusterCoordinator(
            trained_pipeline, ClusterConfig(n_workers=2, batch_size=128, online=False)
        )
        report = coordinator.serve(packets)
        assert report.total_flows > 0
        assert report.sync_rounds == 0
        np.testing.assert_array_equal(
            trained_pipeline.classifier.class_hypervectors_, before
        )


class TestGracefulShutdown:
    def test_signal_sets_flag_without_raising(self):
        with GracefulShutdown() as stop:
            assert not stop.triggered
            os.kill(os.getpid(), signal.SIGTERM)
            # The handler runs synchronously in the main thread on kill.
            assert stop.wait(timeout=5.0)
            assert stop.triggered
            assert stop.signal_name == "SIGTERM"
        # Handlers restored on exit.
        assert signal.getsignal(signal.SIGTERM) in (
            signal.SIG_DFL,
            signal.default_int_handler,
        )

    def test_manual_trigger_and_chunked(self):
        stop = GracefulShutdown(install=False)
        stop.trigger()
        assert stop.triggered
        assert list(chunked(range(5), 2)) == [[0, 1], [2, 3], [4]]
        with pytest.raises(ValueError):
            list(chunked([1], 0))

    def test_serve_loop_drains_on_trigger(self, trained_pipeline):
        packets = TrafficGenerator(seed=17).generate(120, start_time=120_000.0)
        detector = StreamingDetector(trained_pipeline, window_size=200)
        stop = GracefulShutdown(install=False)
        served = 0
        for chunk in chunked(packets, 200):
            if stop.triggered:
                break
            detector.push_many(chunk)
            served += len(chunk)
            if served >= 600:
                stop.trigger()
        detector.flush()
        # Ingest stopped early, but everything accepted was drained/classified.
        assert served < len(packets)
        assert detector.total_packets == served
        assert detector.total_flows > 0
