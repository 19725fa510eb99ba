"""Pipelined delta-sync rounds and the worker's per-frame bookkeeping.

* A hypothesis state machine drives two in-process :class:`WorkerRuntime`
  replicas and one :class:`ModelPublication` through the pipelined round
  protocol -- serve, sync request (barrier), merge, rebase, drop a worker --
  in any interleaving, against a plain reference of the same updates.
* A process-level drill SIGKILLs one of two online workers between its
  ``SyncRequest`` and the merge of its delta.
* The worker's liveness watermark is checked against a brute-force
  recomputation over every open flow, and its per-frame cost is checked to
  follow the frame, not the open-flow count.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.cluster.ring import PacketFrame
from repro.cluster.shared_model import AttachedPublication, ModelPublication
from repro.cluster.supervision import RetryPolicy
from repro.cluster.worker import WorkerRuntime
from repro.core.cyberhd import CyberHD
from repro.hdc.backend import merge_class_deltas
from repro.nids.flow import FlowKey, FlowTable
from repro.nids.packets import Packet, TrafficGenerator
from repro.nids.pipeline import DetectionPipeline
from repro.nids.streaming import StreamingDetector


@pytest.fixture(scope="module")
def trained_pipeline():
    packets = TrafficGenerator(seed=0).generate(150)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=128, epochs=4, regeneration_rate=0.1, seed=0)
    )
    return pipeline.fit_packets(packets)


@pytest.fixture(scope="module")
def learning_pipeline():
    """A one-epoch model: about half of the stream's small chunks still
    teach it something, so rounds carry real updates."""
    packets = TrafficGenerator(seed=0).generate(150)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=128, epochs=1, regeneration_rate=0.1, seed=0)
    )
    return pipeline.fit_packets(packets)


@pytest.fixture(scope="module")
def stream_flows():
    table = FlowTable()
    packets = TrafficGenerator(seed=9).generate(200, start_time=10_000.0)
    return table.add_packets(packets) + table.flush()


# ------------------------------------------------------------ state machine
class PipelinedRounds(RuleBasedStateMachine):
    """Two replicas, one publication, rounds that overlap serving.

    The reference records every update a serve folded into a replica (the
    replica's change across the call, in float64) and where it stands:
    unsynced, reported in the round in flight, or merged.  The published
    model must always be the base plus exactly the merged updates.
    """

    pipeline = None
    flows = None
    CHUNK = 6

    def __init__(self):
        super().__init__()
        self.publication = ModelPublication(self.pipeline)
        self.base = np.array(self.publication.class_matrix, dtype=np.float64)
        self.merged = np.zeros_like(self.base)
        self.scale = max(1.0, float(np.abs(self.base).max()))
        self.workers = [self._spawn(worker_id, 0) for worker_id in range(2)]
        #: The round in flight: incarnation the request reached per worker,
        #: whether it was merged, and who still awaits its Rebase.
        self.round = None

    def _spawn(self, worker_id, incarnation):
        attached = AttachedPublication(self.publication.spec())
        return {
            "runtime": WorkerRuntime(worker_id, 2, attached, online=True),
            "attached": attached,
            "incarnation": incarnation,
            "unsynced": np.zeros_like(self.base),
            "reported": None,
        }

    def _close(self, worker):
        worker["attached"].close()

    def teardown(self):
        for worker in self.workers:
            self._close(worker)
        self.publication.close()

    def _assert_close(self, actual, expected):
        np.testing.assert_allclose(
            np.asarray(actual, dtype=np.float64),
            expected,
            rtol=1e-5,
            atol=1e-5 * self.scale,
        )

    # ----------------------------------------------------------------- rules
    @rule(
        worker_id=st.integers(0, 1),
        start=st.integers(0, 10**6),
    )
    def serve(self, worker_id, start):
        worker = self.workers[worker_id]
        classifier = worker["runtime"].classifier
        start %= len(self.flows) - self.CHUNK
        before = classifier.class_hypervectors_.astype(np.float64)
        worker["runtime"].handle_flows(self.flows[start : start + self.CHUNK])
        worker["unsynced"] += classifier.class_hypervectors_ - before

    @precondition(lambda self: self.round is None)
    @rule()
    def sync_request(self):
        """Every worker reaches its barrier, reports and marks."""
        self.round = {"incarnation": {}, "deltas": {}, "merged": False}
        for worker_id, worker in enumerate(self.workers):
            delta = worker["runtime"].compute_delta()
            # The delta covers exactly the updates since the last barrier,
            # including any carried over by a rebase in between.
            self._assert_close(delta, worker["unsynced"])
            worker["reported"], worker["unsynced"] = (
                worker["unsynced"],
                np.zeros_like(self.base),
            )
            self.round["incarnation"][worker_id] = worker["incarnation"]
            self.round["deltas"][worker_id] = delta

    @precondition(lambda self: self.round is not None and not self.round["merged"])
    @rule()
    def merge(self):
        """Merge the reports of the incarnations that are still alive."""
        merged_from = [
            worker_id
            for worker_id, incarnation in self.round["incarnation"].items()
            if self.workers[worker_id]["incarnation"] == incarnation
        ]
        deltas = [self.round["deltas"][worker_id] for worker_id in merged_from]
        if deltas:
            merge_class_deltas(
                self.publication.class_matrix, deltas, self.publication.class_norms
            )
        self.publication.bump_generation()
        for worker_id in merged_from:
            worker = self.workers[worker_id]
            self.merged += worker["reported"]
            worker["reported"] = None
        self.round["merged"] = True
        self.round["awaiting"] = set(merged_from)
        if not merged_from:
            self.round = None

    @precondition(
        lambda self: self.round is not None
        and self.round["merged"]
        and self.round["awaiting"]
    )
    @rule(data=st.data())
    def rebase(self, data):
        worker_id = data.draw(st.sampled_from(sorted(self.round["awaiting"])))
        worker = self.workers[worker_id]
        worker["runtime"].rebase()
        # After a rebase a replica is the published model plus exactly its
        # own updates learned since the barrier.
        self._assert_close(
            worker["runtime"].classifier.class_hypervectors_,
            np.asarray(self.publication.class_matrix, dtype=np.float64)
            + worker["unsynced"],
        )
        self.round["awaiting"].discard(worker_id)
        if not self.round["awaiting"]:
            self.round = None

    @rule(worker_id=st.integers(0, 1))
    def drop(self, worker_id):
        """Kill a worker: its unmerged updates die with it; the respawned
        incarnation starts from the published model and misses the round."""
        old = self.workers[worker_id]
        self._close(old)
        self.workers[worker_id] = self._spawn(worker_id, old["incarnation"] + 1)
        if self.round is not None and self.round["merged"]:
            self.round["awaiting"].discard(worker_id)
            if not self.round["awaiting"]:
                self.round = None

    # ------------------------------------------------------------ invariants
    @invariant()
    def published_is_base_plus_exactly_the_merged_updates(self):
        # An update merged twice, or a merged one lost, breaks this; so does
        # merging a dropped worker's reported-but-unmerged delta.
        self._assert_close(self.publication.class_matrix, self.base + self.merged)


def test_pipelined_rounds_state_machine(learning_pipeline, stream_flows):
    PipelinedRounds.pipeline = learning_pipeline
    PipelinedRounds.flows = stream_flows
    run_state_machine_as_test(
        PipelinedRounds,
        settings=settings(max_examples=30, stateful_step_count=25, deadline=None),
    )


# --------------------------------------------------------- process drill
@pytest.mark.cluster
@pytest.mark.slow
def test_worker_killed_mid_round_is_recovered_flow_exact(trained_pipeline):
    """SIGKILL worker 1 after its SyncRequest is sent and before its delta
    is merged: the round merges without it, the worker is respawned, and
    the served-flow set matches a single-process run."""
    packets = TrafficGenerator(seed=41).generate(2500, start_time=500_000.0)
    coordinator = ClusterCoordinator(
        trained_pipeline,
        ClusterConfig(
            n_workers=2,
            batch_size=64,
            sync_interval=2,
            online=True,
            capture_predictions=True,
            retry=RetryPolicy(
                heartbeat_interval=0.05,
                heartbeat_timeout=2.0,
                check_interval=0.02,
                respawn_backoff=0.0,
            ),
        ),
    )
    open_round = coordinator._open_round
    killed = []

    def open_round_then_kill():
        open_round()
        if not killed and coordinator.state.round.round_id == 2:
            assert 1 in coordinator.state.round.candidates
            coordinator.kill_worker(1)
            coordinator._processes[1].join(timeout=5.0)
            assert not coordinator._processes[1].is_alive()
            # Detect and recover now, before any safe point can merge the
            # round: the dead incarnation's report must be dropped.
            coordinator._service_events(scan=True)
            killed.append(coordinator.state.workers[1].incarnation)

    coordinator._open_round = open_round_then_kill
    report = coordinator.serve(packets)

    assert killed == [1], "the kill was not recovered before the merge"
    assert report.sync_rounds > 3
    assert report.recovery.quorum_rounds >= 1
    failure = report.recovery.failures[0]
    assert failure.kind == "crash" and failure.worker_id == 1
    assert failure.respawned and not failure.shed
    assert failure.recovered_at is not None
    assert report.recovery.unrecovered_batches == 0

    single = StreamingDetector(trained_pipeline, window_size=256)
    single.push_many(packets)
    single.flush()
    table = FlowTable()
    tokens = {f.key.token for f in table.add_packets(packets) + table.flush()}
    assert report.flow_predictions is not None
    assert len(report.flow_predictions) == single.total_flows
    assert {p.token for p in report.flow_predictions} == tokens


# ------------------------------------------------------------- watermarks
def _runtime(publication, idle_timeout):
    attached = AttachedPublication(publication.spec())
    runtime = WorkerRuntime(
        0, 1, attached, idle_timeout=idle_timeout, capture_predictions=True
    )
    return runtime, attached


def test_watermark_matches_a_brute_force_recomputation(trained_pipeline):
    """After every frame the watermark, and each captured prediction's
    first-batch index, equal a from-scratch pass over the open flows."""
    packets = TrafficGenerator(seed=17).generate(120, start_time=20_000.0)
    sizes = [1, 37, 64, 5, 128, 90]
    with ModelPublication(trained_pipeline) as publication:
        runtime, attached = _runtime(publication, idle_timeout=0.5)
        try:
            first = {}  # canonical tuple -> first batch index, open flows only
            start = index = 0
            emitted = 0
            while start < len(packets):
                chunk = packets[start : start + sizes[index % len(sizes)]]
                start += len(chunk)
                batch = runtime.handle_frame(PacketFrame.from_packets(chunk))
                captured = runtime.predictions
                assert [p.token for _, p in captured] == [
                    f.key.token for f in batch.flows
                ]
                assert [mark for mark, _ in captured] == [
                    first.get(dataclasses.astuple(f.key), index) for f in batch.flows
                ]
                emitted += len(captured)
                runtime.drain_predictions()
                first = {
                    key: first.get(key, index) for key in runtime.table._active
                }
                index += 1
                assert runtime.watermark == min(first.values(), default=index)
            assert emitted > 0 and index > 10
        finally:
            attached.close()


def _counting(monkeypatch):
    """Count ``FlowKey.__hash__`` and ``FlowKey.token`` calls."""
    counts = {"hash": 0, "token": 0}
    original_hash = FlowKey.__hash__
    original_token = FlowKey.token.fget

    def counted_hash(self):
        counts["hash"] += 1
        return original_hash(self)

    def counted_token(self):
        counts["token"] += 1
        return original_token(self)

    monkeypatch.setattr(FlowKey, "__hash__", counted_hash)
    monkeypatch.setattr(FlowKey, "token", property(counted_token))
    return counts


def _packet(ts, host, port):
    return Packet(
        timestamp=ts,
        src_ip=f"10.2.{host // 250}.{host % 250}",
        dst_ip="10.9.9.9",
        src_port=port,
        dst_port=80,
        protocol="TCP",
        length=60,
    )


def _calls_per_small_frame(pipeline, monkeypatch, n_idle):
    with ModelPublication(pipeline) as publication:
        runtime, attached = _runtime(publication, idle_timeout=5.0)
        try:
            # Five short flows that the small frame will expire and emit ...
            runtime.handle_frame(
                PacketFrame.from_packets([_packet(4.0, 1, 2000 + i) for i in range(5)])
            )
            # ... then n_idle flows that stay open throughout.
            idle = [_packet(5.0, 500 + i, 3000) for i in range(n_idle)]
            for start in range(0, n_idle, 256):
                runtime.handle_frame(PacketFrame.from_packets(idle[start : start + 256]))
            frame = PacketFrame.from_packets(
                [_packet(9.5, 2, 4000 + i) for i in range(5)]
            )
            with monkeypatch.context() as patch:
                counts = _counting(patch)
                batch = runtime.handle_frame(frame)
            assert batch.n_flows == 5
            assert runtime.table.active_flows == n_idle + 5
            return counts
        finally:
            attached.close()


def test_frame_bookkeeping_does_not_scale_with_open_flows(
    trained_pipeline, monkeypatch
):
    """A small frame costs the same FlowKey hashing and token building with
    1,000 idle open flows as with 10 (counted calls, not wall time)."""
    few = _calls_per_small_frame(trained_pipeline, monkeypatch, 10)
    many = _calls_per_small_frame(trained_pipeline, monkeypatch, 1000)
    assert few == many
