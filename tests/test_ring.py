"""Tests for the zero-copy shared-memory ring transport: frame/ack wire
format roundtrips, SPSC ring semantics (wraparound, full-ring backpressure,
occupancy accounting), vectorized shard-routing parity against the scalar
reference, crash-time slot reclamation and shm-leak freedom, and the
cpu-aware ``wall_speedup`` baseline-diff floor."""

import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterCoordinator, RetryPolicy, ShardRouter
from repro.cluster.ring import (
    ACK_HEADER,
    PRED_DTYPE,
    AckSlotLayout,
    FrameSlotLayout,
    PacketFrame,
    ShmRing,
    decode_ack,
    decode_frame,
    encode_ack,
    encode_frame,
    ring_name,
    transport_token,
)
from repro.cluster.router import _VECTOR_MIN_BATCH
from repro.cluster.shared_model import ModelPublication
from repro.cluster.worker import WorkerRuntime
from repro.core.cyberhd import CyberHD
from repro.exceptions import ConfigurationError
from repro.nids.packets import Packet, TrafficGenerator
from repro.nids.pipeline import DetectionPipeline
from repro.bench.harness import diff_bench_payloads
from repro.serving.stages import FlowPrediction


@pytest.fixture(scope="module")
def trained_pipeline():
    packets = TrafficGenerator(seed=0).generate(120)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=128, epochs=3, regeneration_rate=0.1, seed=0)
    )
    return pipeline.fit_packets(packets)


def _packets(n=50, base_ts=1000.0):
    out = []
    for i in range(n):
        out.append(
            Packet(
                timestamp=base_ts + i * 0.01,
                src_ip=f"10.0.0.{i % 5}",
                dst_ip=f"192.168.1.{i % 3}",
                src_port=1000 + (i % 7),
                dst_port=443 if i % 2 else 53,
                protocol="tcp" if i % 3 else "udp",
                length=60 + i,
                tcp_flags=0x18 if i % 3 else 0x99,
                label="benign" if i % 2 else "attack",
            )
        )
    return out


def _packet_tuple(p):
    return (
        p.timestamp,
        p.src_ip,
        p.dst_ip,
        p.src_port,
        p.dst_port,
        p.protocol,
        p.length,
        p.tcp_flags if p.protocol == "tcp" else 0,
        p.label,
    )


class TestPacketFrameWire:
    def test_frame_roundtrip_is_exact(self):
        packets = _packets(50)
        frame = PacketFrame.from_packets(packets)
        layout = FrameSlotLayout.for_batch_size(64)
        buf = bytearray(layout.slot_bytes)
        nbytes = encode_frame(buf, layout, 7, True, frame)
        assert nbytes == frame.nbytes <= layout.slot_bytes
        seq, learn, decoded = decode_frame(buf, layout)
        assert (seq, learn) == (7, True)
        assert [_packet_tuple(p) for p in decoded.to_packets()] == [
            _packet_tuple(p) for p in packets
        ]

    def test_non_tcp_flags_zeroed(self):
        """Non-TCP tcp_flags are dropped on the wire -- the flow engine only
        reads flags for tcp, so the roundtrip is semantically lossless."""
        frame = PacketFrame.from_packets(_packets(30))
        for p in frame.to_packets():
            if p.protocol != "tcp":
                assert p.tcp_flags == 0

    def test_empty_frame_roundtrip(self):
        layout = FrameSlotLayout.for_batch_size(8)
        buf = bytearray(layout.slot_bytes)
        encode_frame(buf, layout, 1, False, PacketFrame.from_packets([]))
        seq, learn, decoded = decode_frame(buf, layout)
        assert (seq, learn) == (1, False)
        assert decoded.n_packets == 0 and decoded.to_packets() == []

    def test_capacity_overflow_rejected(self):
        layout = FrameSlotLayout.for_batch_size(8)
        buf = bytearray(layout.slot_bytes)
        frame = PacketFrame.from_packets(_packets(9))
        with pytest.raises(ConfigurationError, match="capacity"):
            encode_frame(buf, layout, 0, True, frame)

    def test_oversized_label_rejected_not_truncated(self):
        """numpy S-dtypes silently truncate; the frame must refuse instead."""
        packets = _packets(2)
        packets[0] = Packet(
            timestamp=1.0,
            src_ip="10.0.0.1",
            dst_ip="10.0.0.2",
            src_port=1,
            dst_port=2,
            protocol="tcp",
            length=60,
            label="x" * 200,
        )
        with pytest.raises(ConfigurationError, match="label"):
            PacketFrame.from_packets(packets)

    def test_ack_roundtrip_with_predictions(self):
        layout = AckSlotLayout(pred_capacity=4)
        buf = bytearray(layout.slot_bytes)
        preds = [
            FlowPrediction(
                token=f"10.0.0.{i}:1|10.0.0.9:2|tcp",
                start_time=1.0 + i,
                end_time=2.0 + i,
                prediction="attack",
                confidence=0.5,
                label="attack",
                flagged=True,
            )
            for i in range(3)
        ]
        encode_ack(
            buf, layout, seq=3, index=1, watermark=9,
            packets=50, flows=5, alerts=1, predictions=preds,
        )
        decoded = decode_ack(buf, layout)
        assert decoded["seq"] == 3 and decoded["index"] == 1
        assert decoded["watermark"] == 9
        assert (decoded["packets"], decoded["flows"], decoded["alerts"]) == (50, 5, 1)
        assert decoded["predictions"] == preds

    def test_ack_without_predictions_decodes_none(self):
        layout = AckSlotLayout(pred_capacity=4)
        buf = bytearray(layout.slot_bytes)
        encode_ack(
            buf, layout, seq=0, index=0, watermark=0,
            packets=1, flows=0, alerts=0, predictions=[],
        )
        assert decode_ack(buf, layout)["predictions"] is None


class TestShmRing:
    def _ring(self, n_slots=2, slot_bytes=256):
        return ShmRing.create(
            ring_name(transport_token(), "d", 0, 0), n_slots=n_slots,
            slot_bytes=slot_bytes,
        )

    def test_wraparound_preserves_fifo_order(self):
        layout = FrameSlotLayout.for_batch_size(16)
        ring = self._ring(n_slots=2, slot_bytes=layout.slot_bytes)
        consumer = ShmRing.attach(ring.spec())
        frame = PacketFrame.from_packets(_packets(10))
        try:
            for seq in range(7):  # > 3 full wraps of a 2-slot ring
                slot = ring.try_reserve()
                assert slot is not None
                encode_frame(slot, layout, seq, bool(seq % 2), frame)
                del slot
                ring.commit()
                view = consumer.try_peek()
                got_seq, got_learn, decoded = decode_frame(view, layout)
                assert (got_seq, got_learn) == (seq, bool(seq % 2))
                assert decoded.n_packets == 10
                del view, decoded
                consumer.release()
            assert ring.occupancy == 0 and ring.free_slots == 2
        finally:
            consumer.close()
            ring.close(unlink=True)

    def test_full_ring_refuses_reserve_until_release(self):
        ring = self._ring(n_slots=2)
        consumer = ShmRing.attach(ring.spec())
        try:
            for _ in range(2):
                assert ring.try_reserve() is not None
                ring.commit()
            assert ring.occupancy == 2 and ring.free_slots == 0
            assert ring.try_reserve() is None  # block, never overwrite
            assert consumer.try_peek() is not None
            consumer.release()
            assert ring.try_reserve() is not None
        finally:
            consumer.close()
            ring.close(unlink=True)

    def test_empty_ring_refuses_peek(self):
        ring = self._ring()
        try:
            assert ring.try_peek() is None
        finally:
            ring.close(unlink=True)

    def test_blocking_backpressure_producer_waits_not_drops(self):
        """BoundedQueue 'block' semantics: a slow consumer stalls the
        producer (counted), and every committed slot still arrives in order."""
        ring = self._ring(n_slots=2, slot_bytes=64)
        consumer = ShmRing.attach(ring.spec())
        received = []

        def consume():
            while len(received) < 10:
                view = consumer.try_peek()
                if view is None:
                    time.sleep(0.002)
                    continue
                received.append(bytes(view[:1]))
                del view
                time.sleep(0.005)  # slow consumer forces producer stalls
                consumer.release()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        stalls = 0
        try:
            for i in range(10):
                while True:
                    slot = ring.try_reserve()
                    if slot is not None:
                        break
                    stalls += 1
                    time.sleep(0.001)
                slot[:1] = bytes([i])
                del slot
                ring.commit()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert received == [bytes([i]) for i in range(10)]
            assert stalls > 0
        finally:
            consumer.close()
            ring.close(unlink=True)

    def test_close_unlinks_block(self):
        ring = self._ring()
        name = ring.spec().name
        ring.close(unlink=True)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_constructor_validates(self):
        with pytest.raises(ConfigurationError):
            ShmRing.create("rr-bad", n_slots=0, slot_bytes=64)
        with pytest.raises(ConfigurationError):
            ShmRing.create("rr-bad", n_slots=2, slot_bytes=0)


def _random_packet(draw):
    return Packet(
        timestamp=draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        src_ip=f"10.0.{draw(st.integers(0, 3))}.{draw(st.integers(0, 9))}",
        dst_ip=f"192.168.{draw(st.integers(0, 3))}.{draw(st.integers(0, 9))}",
        src_port=draw(st.integers(1, 65535)),
        dst_port=draw(st.integers(1, 65535)),
        protocol=draw(st.sampled_from(["tcp", "udp", "icmp"])),
        length=draw(st.integers(20, 1500)),
    )


class TestVectorizedRoutingParity:
    """Satellite: the one-pass NumPy router must match the scalar reference
    packet-for-packet, order included, on arbitrary streams."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_partition_matches_scalar_reference(self, data):
        n_workers = data.draw(st.integers(2, 5))
        n = data.draw(st.integers(_VECTOR_MIN_BATCH, 120))
        packets = [_random_packet(data.draw) for _ in range(n)]
        router = ShardRouter(n_workers, vnodes=16)
        assert router.partition_packets(packets) == router._partition_packets_scalar(
            packets
        )

    def test_memo_does_not_change_assignments(self):
        packets = _packets(200)
        router = ShardRouter(3)
        first = router.partition_packets(packets)
        assert router._shard_memo  # warm
        assert router.partition_packets(packets) == first

    def test_small_batch_takes_scalar_path(self):
        packets = _packets(_VECTOR_MIN_BATCH - 1)
        router = ShardRouter(3)
        assert router.partition_packets(packets) == router._partition_packets_scalar(
            packets
        )

    def test_failover_view_parity(self):
        packets = _packets(100)
        router = ShardRouter(4).excluding([1])
        assert router.partition_packets(packets) == router._partition_packets_scalar(
            packets
        )


class TestWatermarkPinsUndeliveredPredictions:
    def test_pending_prediction_pins_watermark_until_drained(self, trained_pipeline):
        """A captured-but-unshipped prediction must keep its flow's batches
        replayable: a crash mid-backlog relies on the ledger retaining them."""
        with ModelPublication(trained_pipeline) as publication:
            from repro.cluster.shared_model import AttachedPublication

            attached = AttachedPublication(publication.spec())
            runtime = WorkerRuntime(
                0, 1, attached, idle_timeout=5.0, capture_predictions=True
            )
            flow_a = [
                Packet(
                    timestamp=1000.0 + i * 0.1, src_ip="10.0.0.1", dst_ip="10.0.0.2",
                    src_port=10, dst_port=80, protocol="tcp", length=100,
                )
                for i in range(4)
            ]
            # Far enough ahead that flow A expires at this batch's end.
            flow_b = [
                Packet(
                    timestamp=2000.0 + i * 0.1, src_ip="10.0.0.3", dst_ip="10.0.0.4",
                    src_port=11, dst_port=80, protocol="tcp", length=100,
                )
                for i in range(4)
            ]
            # Batch 0: flow A opens.  Batch 1: A expires -> prediction.
            runtime.handle_frame(PacketFrame.from_packets(flow_a))
            runtime.handle_frame(PacketFrame.from_packets(flow_b))
            assert runtime.batches_handled == 2
            assert runtime.predictions, "flow A's prediction should be captured"
            assert runtime.predictions[0][0] == 0  # pinned at A's first batch
            assert runtime.watermark == 0
            drained = runtime.drain_predictions()
            assert [p.token for p in drained]
            # Backlog shipped: only flow B (opened at batch 1) pins retention.
            assert runtime.watermark == 1
            attached.close()


@pytest.mark.cluster
class TestCrashReclamationAndLeaks:
    """Chaos composition: SIGKILL mid-stream reclaims the dead incarnation's
    slots, and no transport shm block outlives the cluster (mirrors the PR 6
    ``_abort`` leak tests)."""

    def _ring_names(self, coordinator):
        return [
            ring.spec().name
            for ring in [*coordinator._data_rings, *coordinator._result_rings]
            if ring is not None
        ]

    def _assert_unlinked(self, names):
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_sigkill_mid_batch_reclaims_slots_and_unlinks_rings(
        self, trained_pipeline
    ):
        packets = TrafficGenerator(seed=31).generate(800, start_time=700_000.0)
        coordinator = ClusterCoordinator(
            trained_pipeline,
            ClusterConfig(
                n_workers=2,
                batch_size=64,
                online=False,
                retry=RetryPolicy(
                    heartbeat_interval=0.05,
                    heartbeat_timeout=2.0,
                    check_interval=0.02,
                    respawn_backoff=0.0,
                ),
            ),
        )
        coordinator.start()
        first_rings = self._ring_names(coordinator)
        half = len(packets) // 2
        coordinator.serve_packets(packets[:half])
        coordinator.kill_worker(0)
        coordinator.serve_packets(packets[half:])
        # The dead incarnation's ring pair was unlinked at respawn.
        live_rings = self._ring_names(coordinator)
        assert set(live_rings) != set(first_rings)
        self._assert_unlinked(set(first_rings) - set(live_rings))
        report = coordinator.shutdown()
        failure = report.recovery.failures[0]
        assert failure.respawned
        assert failure.reclaimed_slots >= 0
        assert report.transport["reclaimed_slots"] == sum(
            f.reclaimed_slots for f in report.recovery.failures
        )
        # Every ring of every incarnation is gone after shutdown.
        self._assert_unlinked(set(first_rings) | set(live_rings))
        assert coordinator._data_rings == [None, None]

    def test_abort_unlinks_all_rings(self, trained_pipeline):
        packets = TrafficGenerator(seed=41).generate(150, start_time=800_000.0)
        coordinator = ClusterCoordinator(
            trained_pipeline, ClusterConfig(n_workers=2, batch_size=64)
        )
        coordinator.start()
        names = self._ring_names(coordinator)
        assert len(names) == 4
        coordinator.serve_packets(packets[:80])
        coordinator._abort()
        self._assert_unlinked(names)
        coordinator._abort()  # idempotent

    def test_transport_metrics_account_zero_copy_path(self, trained_pipeline):
        packets = TrafficGenerator(seed=47).generate(300, start_time=900_000.0)
        coordinator = ClusterCoordinator(
            trained_pipeline, ClusterConfig(n_workers=2, batch_size=128)
        )
        report = coordinator.serve(packets)
        transport = report.transport
        assert transport["frames"] > 0
        assert transport["packets"] == len(packets)
        assert transport["bytes_moved"] > 0
        # Two pickles per frame and two per ack eliminated.
        assert transport["copies_avoided"] >= 2 * transport["frames"]
        assert report.routing_cpu_seconds >= 0.0


class TestWallSpeedupFloor:
    """Satellite: the ``wall_speedup`` floor of ``diff_bench_payloads``, with the
    cpu-aware skip on hosts that cannot express the parallelism."""

    def _payload(self, cpu_count, wall_speedup, workers=4):
        return {
            "provenance": {"cpu_count": cpu_count},
            "records": [
                {
                    "op": "cluster_speedup",
                    "D": 256,
                    "speedup": 4.0,
                    "wall_speedup": wall_speedup,
                    "workers": workers,
                }
            ],
        }

    def test_floor_enforced_when_cores_permit(self):
        fresh = self._payload(cpu_count=8, wall_speedup=0.5)
        ok, lines = diff_bench_payloads(
            fresh, {"records": []}, floors={"wall_speedup": 1.0}
        )
        assert not ok
        assert any("wall_speedup" in line and "FAIL" in line for line in lines)

    def test_floor_passes_above_value(self):
        fresh = self._payload(cpu_count=8, wall_speedup=1.7)
        ok, lines = diff_bench_payloads(
            fresh, {"records": []}, floors={"wall_speedup": 1.0}
        )
        assert ok
        assert any("wall_speedup: 1.70x" in line for line in lines)

    def test_floor_skipped_with_logged_reason_on_small_host(self):
        fresh = self._payload(cpu_count=1, wall_speedup=0.4)
        ok, lines = diff_bench_payloads(
            fresh, {"records": []}, floors={"wall_speedup": 1.0}
        )
        assert ok
        assert any(
            "skip" in line and "1 cores < 4 workers" in line for line in lines
        )

    def test_floor_missing_record_fails(self):
        fresh = {"provenance": {"cpu_count": 8}, "records": []}
        ok, lines = diff_bench_payloads(
            fresh, {"records": []}, floors={"wall_speedup": 1.0}
        )
        assert not ok
        assert any("missing" in line for line in lines)

    def test_ack_slot_layout_matches_pred_dtype(self):
        layout = AckSlotLayout(pred_capacity=8)
        assert layout.slot_bytes == ACK_HEADER.itemsize + 8 * PRED_DTYPE.itemsize
