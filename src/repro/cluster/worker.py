"""Cluster worker: one sharded serving replica in its own process.

Each worker hosts a *complete* packets->alerts pipeline -- shard-guarded flow
table, feature extraction, classification against the shared-memory model
replica, alerting -- plus the online-learning half of the cluster contract:
``partial_fit`` updates accumulate in the replica's **private** class-matrix
copy, and on a sync round the worker reports the delta against its base and
keeps serving.  The coordinator merges deltas additively and republishes;
the worker then rebases onto the merged model, carrying over what it
learned in the meantime.

:class:`WorkerRuntime` holds all of that logic in-process (the equivalence
tests drive it directly, deterministically); :func:`cluster_worker_main` is
the thin poll loop that ``multiprocessing.Process`` runs around it.

Data travels only on the shared-memory ring pair: batches arrive as frames
on the data ring and leave as fixed-width acks on the result ring.  The
control queue carries only :class:`SyncRequest`, :class:`Rebase`,
:class:`Stop` and the chaos messages; its reply queue carries only
:class:`DeltaReport` and :class:`FinalReport`.
"""

from __future__ import annotations

import queue as queue_module
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.ring import ShmRing, decode_frame, encode_ack
from repro.cluster.router import ShardRouter
from repro.cluster.shared_model import AttachedPublication, PublicationSpec
from repro.exceptions import ConfigurationError
from repro.hdc.backend import merge_class_deltas
from repro.nids.flow import FlowRecord, FlowTable, FlowTuple
from repro.nids.packets import Packet
from repro.serving.stages import (
    FlowAssemblyStage,
    FlowPrediction,
    ServingBatch,
    batch_flow_predictions,
)
from repro.serving.telemetry import TelemetryRecorder

#: Ring poll cadence when idle or backpressured.  Short enough that data
#: latency stays sub-millisecond-ish; every poll stamps the heartbeat, so
#: the watchdog sees a stalled-but-alive worker as alive.
_RING_POLL_SECONDS = 0.001

#: Bound on the worker's frame-stamped flow->tenant map (fabric mode); the
#: same leak-guard discipline as the shard router's token memo.
_TENANT_MEMO_MAX = 1 << 20

#: A ``FlowKey``'s canonical tuple, read without the dataclass's Python
#: ``__hash__``/``token``.
_flow_tuple = attrgetter("ip_a", "port_a", "ip_b", "port_b", "protocol")


# --------------------------------------------------------------- wire format
@dataclass(frozen=True)
class PacketBatch:
    """One routed micro-batch for a worker's shard, in columnar frame form.

    The coordinator's ledger record: the payload is a
    :class:`repro.cluster.ring.PacketFrame`, columnarized once per routed
    batch, retained for redispatch and written (once) into the worker's
    data ring -- the worker itself only ever sees the frame.  ``packets``
    materializes ``Packet`` objects only on the slow paths that still want
    them (failover rerouting, diagnostics, tests).

    ``learn`` is cleared on redispatched batches whose online updates were
    already merged into the published model at a sync round before the crash:
    re-serving them rebuilds flow state for golden-trace parity, but learning
    them again would double-count their samples in the shared model.
    """

    seq: int
    frame: Any
    learn: bool = True

    @property
    def n_packets(self) -> int:
        """Packets carried by the frame."""
        return self.frame.n_packets

    @property
    def packets(self) -> List[Packet]:
        """Materialized ``Packet`` objects (memoized by the frame)."""
        return self.frame.to_packets()


@dataclass(frozen=True)
class BatchAck:
    """Per-batch receipt, as the coordinator decodes it from a result ring.

    The coordinator's batch ledger retains a dispatched batch until it is
    acked *and* below the worker's ``watermark``: the lowest per-incarnation
    batch index that still contributes packets to a flow open in the
    worker's flow table (== the batches-handled count when nothing is open).
    Replaying the retained suffix into a respawned worker therefore rebuilds
    every unclassified flow byte-for-byte.

    With prediction capture on, each ack also drains the worker's captured
    :class:`FlowPrediction` records incrementally, so a later crash cannot
    lose the evidence of flows that were already served.
    """

    worker_id: int
    seq: int
    index: int
    watermark: int
    packets: int
    flows: int
    alerts: int
    predictions: Optional[List[FlowPrediction]] = None


@dataclass(frozen=True)
class ChaosHang:
    """Chaos-harness message: stop servicing the inbox for ``seconds``.

    With ``stamp_heartbeat`` the worker keeps stamping while stalled -- a
    *slow* worker the watchdog must tolerate.  Without it the heartbeat goes
    stale and the watchdog SIGKILLs the worker -- a hang.  ``seconds <= 0``
    hangs until killed.
    """

    seconds: float
    stamp_heartbeat: bool = False


@dataclass(frozen=True)
class ChaosExit:
    """Chaos-harness message: exit cleanly (code 0) without a final report.

    Models the buggy-deploy failure the original ``_collect`` filter missed:
    a worker that is gone but owes messages, with nothing suspicious in its
    exit code.
    """


@dataclass(frozen=True)
class SyncRequest:
    """Coordinator asks for the worker's class-vector delta.

    ``barrier`` is the number of batches the coordinator had dispatched to
    this worker (this incarnation) when it sent the request.  With data and
    control travelling on different channels the old queue-FIFO consistent
    cut is gone; the worker restores it by draining its data ring to the
    barrier before computing the delta -- the delta then covers exactly the
    batches dispatched before the round.  The worker then marks its
    replica and keeps serving; the matching :class:`Rebase` carries the
    post-barrier updates over onto the merged model (``replica <-
    published + (replica - mark)``), so the next delta again covers exactly
    the batches after this barrier.
    """

    round_id: int
    barrier: int = 0


@dataclass(frozen=True)
class Rebase:
    """Coordinator republished the merged model; rebase onto it, keeping
    the updates learned since the round's barrier."""

    round_id: int
    generation: int


@dataclass(frozen=True)
class Stop:
    """Drain the data ring to ``barrier``, flush, report and exit."""

    barrier: int = 0


@dataclass(frozen=True)
class DeltaReport:
    """A worker's accumulated class-matrix update since its last rebase."""

    worker_id: int
    round_id: int
    delta: np.ndarray


@dataclass
class WorkerSummary:
    """Per-worker serving statistics shipped back at shutdown.

    Two busy measures are kept deliberately.  ``busy_seconds`` is wall time
    inside batch processing: on an oversubscribed host it includes time the
    scheduler gave to sibling processes, so it describes *this run*, not the
    replica.  ``busy_cpu_seconds`` is the process CPU time actually consumed
    by the same work: it equals wall time once the worker has a core to
    itself, which makes ``flows / busy_cpu_seconds`` the replica's sustained
    per-core rate -- the quantity the scaling benchmark aggregates.
    """

    worker_id: int
    packets: int = 0
    flows: int = 0
    alerts: int = 0
    batches: int = 0
    busy_seconds: float = 0.0
    busy_cpu_seconds: float = 0.0
    online_updates: int = 0
    online_samples: int = 0
    rebase_generation: int = 0
    #: Times this worker waited on a full result ring before acking (the
    #: consumer->producer half of the transport's backpressure accounting).
    ring_stalls: int = 0
    telemetry: Dict[str, Dict[str, float]] = field(default_factory=dict)
    severities: Dict[str, int] = field(default_factory=dict)
    #: Per-tenant serving report (fabric mode only): flows, alerts, the
    #: version served and hot-swaps followed, keyed by tenant id string.
    tenants: Dict[str, Any] = field(default_factory=dict)
    #: Cascade counters (cascade mode only): flows through the pre-filter,
    #: flows escalated to the multiclass head, the escalation fraction.
    cascade: Dict[str, Any] = field(default_factory=dict)

    @property
    def flow_throughput(self) -> float:
        """Flows served per busy CPU second (the replica's per-core rate)."""
        return self.flows / self.busy_cpu_seconds if self.busy_cpu_seconds > 0 else 0.0

    @property
    def packet_throughput(self) -> float:
        """Packets ingested per busy CPU second."""
        return self.packets / self.busy_cpu_seconds if self.busy_cpu_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view."""
        return {
            "worker_id": self.worker_id,
            "packets": self.packets,
            "flows": self.flows,
            "alerts": self.alerts,
            "batches": self.batches,
            "busy_seconds": self.busy_seconds,
            "busy_cpu_seconds": self.busy_cpu_seconds,
            "flows_per_cpu_second": self.flow_throughput,
            "packets_per_cpu_second": self.packet_throughput,
            "online_updates": self.online_updates,
            "online_samples": self.online_samples,
            "rebase_generation": self.rebase_generation,
            "ring_stalls": self.ring_stalls,
            "telemetry": self.telemetry,
            "severities": self.severities,
            "tenants": self.tenants,
            "cascade": self.cascade,
        }


@dataclass(frozen=True)
class FinalReport:
    """Shutdown payload: final statistics plus any unsynced delta.

    With ``WorkerConfig.capture_predictions`` set, ``predictions`` carries
    the shard's complete per-flow outcomes (one :class:`FlowPrediction` per
    served flow) -- the cluster half of the golden-trace differential
    harness's evidence.
    """

    summary: WorkerSummary
    final_delta: Optional[np.ndarray]
    predictions: Optional[List[FlowPrediction]] = None


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable bootstrap for one worker process."""

    worker_id: int
    n_workers: int
    spec: PublicationSpec
    online: bool = False
    idle_timeout: float = 5.0
    vnodes: int = 64
    enforce_shard_guard: bool = True
    #: Record every served flow's prediction and ship the records back
    #: incrementally in result-ring acks (remainder in the
    #: :class:`FinalReport`) -- the differential-harness capture mode.
    capture_predictions: bool = False
    #: Heartbeat stamp cadence while a stamping chaos hang stalls the loop.
    heartbeat_interval: float = 0.25
    #: Multi-tenant fabric attach table (:class:`repro.fabric.registry.
    #: RegistrySpec`).  When set, the worker serves each flow through its
    #: tenant's own model lane instead of the single shared publication
    #: (which stays attached as the fallback for unmapped tenants).  Typed
    #: ``Any`` to keep the cluster package import-independent of the fabric.
    fabric_spec: Optional[Any] = None
    #: Tenant keying fallback (:class:`repro.fabric.router.TenantKeyer`)
    #: for flows the worker's bounded frame-stamp memo does not cover.
    tenant_keyer: Optional[Any] = None
    #: Cascade attach handle (:class:`repro.cascade.cluster.CascadeSpec`).
    #: When set, the worker attaches the pre-filter's publication next to
    #: the main (multiclass-head) one and serves every flow through the
    #: two-stage cascade chain.  Typed ``Any`` to keep the cluster package
    #: import-independent of the cascade (which builds on the cluster).
    cascade_spec: Optional[Any] = None


# ------------------------------------------------------------------- runtime
class WorkerRuntime:
    """The serving + online-learning logic of one shard replica.

    Parameters
    ----------
    worker_id, n_workers:
        This shard's identity and the cluster size (for the router guard).
    attached:
        The worker's attachment to the coordinator's model publication.
    online:
        Fold known-label flows into the private replica via ``partial_fit``.
        Local drift-triggered regeneration is deliberately unsupported: the
        encoder tensors are shared read-only across replicas.
    """

    def __init__(
        self,
        worker_id: int,
        n_workers: int,
        attached: AttachedPublication,
        online: bool = False,
        idle_timeout: float = 5.0,
        vnodes: int = 64,
        enforce_shard_guard: bool = True,
        capture_predictions: bool = False,
        fabric_spec: Optional[Any] = None,
        tenant_keyer: Optional[Any] = None,
        cascade_spec: Optional[Any] = None,
    ):
        self.worker_id = int(worker_id)
        self.attached = attached
        self.online = bool(online)
        self.pipeline = attached.build_replica()
        self.cascade_attached = None
        if cascade_spec is not None:
            if self.online:
                raise ConfigurationError(
                    "cascade serving does not compose with cluster-wide "
                    "online learning (the heads disagree on the label space)"
                )
            if fabric_spec is not None:
                raise ConfigurationError(
                    "cascade serving and the multi-tenant fabric both "
                    "replace the worker stage chain; serve one or the other"
                )
            # Lazy import: the cascade package builds on cluster primitives,
            # so the cluster package must not import it at module level.
            from repro.cascade.cluster import attach_cascade

            # The main publication carries the multiclass head; compose the
            # cascade around it with a zero-copy pre-filter replica.
            self.cascade_attached, self.pipeline = attach_cascade(
                cascade_spec, self.pipeline
            )
        self.classifier = self.pipeline.classifier
        router = ShardRouter(n_workers, vnodes=vnodes)
        guard = router.owns(self.worker_id) if enforce_shard_guard and n_workers > 1 else None
        self.table = FlowTable(idle_timeout=idle_timeout, shard_guard=guard)
        self.telemetry = TelemetryRecorder()
        self.fabric = None
        self.tenant_keyer = tenant_keyer
        self.tenant_stage = None
        #: Frame-stamped tenant per flow token (coordinator-authoritative).
        self._tenant_of_token: Dict[str, int] = {}
        if fabric_spec is not None:
            if self.online:
                raise ConfigurationError(
                    "cluster fabric mode serves per-tenant models; cluster-wide "
                    "online learning does not compose with it (use the "
                    "FabricEngine's tenant-scoped learning instead)"
                )
            # Lazy import: the fabric package builds on cluster primitives,
            # so the cluster package must not import it at module level.
            from repro.fabric.registry import AttachedFabric
            from repro.serving.stages import TenantRoutedStage

            self.fabric = AttachedFabric(fabric_spec, reader_id=self.worker_id)
            self.tenant_stage = TenantRoutedStage(
                self._tenant_of_flow, self._tenant_chain
            )
            self.stages = [FlowAssemblyStage(self.table), self.tenant_stage]
        else:
            self.stages = [FlowAssemblyStage(self.table), *self.pipeline.stages]
        self.capture_predictions = bool(capture_predictions)
        #: Undelivered (first_batch_index, prediction) pairs.  The index is
        #: the earliest retained batch that could regenerate the prediction
        #: (its flow's first batch), and pins :attr:`watermark` until the
        #: prediction actually ships in an ack -- a fixed-capacity ack slot
        #: defers overflow, and a crash mid-backlog must find the flow's
        #: batches still replayable in the coordinator's ledger.
        self.predictions: List[Tuple[int, FlowPrediction]] = []
        self.batches_handled = 0
        #: First batch index of every open flow, keyed by canonical tuple.
        self._flow_first_index: Dict[FlowTuple, int] = {}
        self.summary = WorkerSummary(worker_id=self.worker_id)
        self.summary.rebase_generation = attached.generation
        #: The class matrix deltas are measured from: the published model
        #: at the last rebase, moved to the mark at each barrier.
        self._base = (
            self.classifier.class_vector_snapshot() if self.online else None
        )

    # ------------------------------------------------------------------- API
    def handle_frame(self, frame, learn: bool = True) -> ServingBatch:
        """Serve one columnar transport frame through the full stage chain.

        The flow assembly stage ingests the frame's columns directly
        (``FlowTable.add_frame``), so no per-packet ``Packet`` objects are
        materialized on the hot path.  The frame may alias a ring slot; it
        is only read within this call.  ``learn=False`` serves the batch
        without folding its labelled flows into the replica -- the
        redispatch path for batches whose updates were already merged
        before a crash.
        """
        if self.fabric is not None:
            self._note_frame_tenants(frame)
        batch = self._serve(ServingBatch(frame=frame), self.stages, learn=learn)
        self._advance_watermark(frame.columns().flow_tuples, batch.flows)
        return batch

    def handle_flows(self, flows) -> ServingBatch:
        """Serve pre-assembled flows (the flow-level equivalence-test path)."""
        return self._serve(ServingBatch(flows=list(flows)), self.pipeline.stages)

    @property
    def watermark(self) -> int:
        """Lowest batch index a still-open flow *or an undelivered
        prediction* needs (see :class:`BatchAck`).

        A prediction captured but not yet shipped (ack-slot overflow) pins
        the watermark at its flow's first batch: if this worker dies before
        the backlog drains, the coordinator's retained batches regenerate
        exactly those flows on the respawned incarnation.
        """
        mark = self.batches_handled
        if self._flow_first_index:
            mark = min(mark, min(self._flow_first_index.values()))
        if self.predictions:
            mark = min(mark, min(first for first, _ in self.predictions))
        return mark

    def drain_predictions(self, limit: Optional[int] = None) -> List[FlowPrediction]:
        """Hand off captured predictions accumulated since the last drain.

        ``limit`` caps the handoff at a result-ring slot's fixed prediction
        capacity; the overflow simply stays queued and rides the next ack
        (or the final report) -- safe under the coordinator's token-keyed
        first-wins dedup.
        """
        if limit is None or len(self.predictions) <= limit:
            drained, self.predictions = self.predictions, []
        else:
            drained, self.predictions = (
                self.predictions[:limit],
                self.predictions[limit:],
            )
        return [prediction for _, prediction in drained]

    def compute_delta(self) -> np.ndarray:
        """Report the class-matrix update learned since the base, and mark
        the replica: later updates belong to the next delta.

        The mark moves the base to ``base + delta`` -- the very sum the
        coordinator's merge forms -- and re-derives the replica from it.
        That is a no-op in exact arithmetic; in floating point it makes a
        lone worker's replica equal the published merge bit for bit, so its
        :meth:`rebase` changes nothing and frames served before the rebase
        lands see the model a blocking round would have shown them.
        """
        if self._base is None:
            return np.zeros_like(self.classifier.class_hypervectors_)
        delta = self.classifier.class_vector_delta(self._base)
        merge_class_deltas(self._base, [delta])
        self.classifier.set_class_vectors(self._base)
        return delta

    def rebase(self) -> int:
        """Adopt the published (merged) model, carrying over the updates
        learned since the mark: ``replica <- published + (replica - mark)``.

        The base becomes the published model, so the next delta covers
        exactly the batches after the last barrier.
        """
        generation = self.attached.refresh_replica(self.classifier, since=self._base)
        self.summary.rebase_generation = generation
        return generation

    def finalize(self) -> WorkerSummary:
        """Flush stateful stages (classifying still-active flows) and report."""
        self._serve(ServingBatch(), self.stages, flush=True)
        self.summary.telemetry = self.telemetry.to_dict()
        severities: Dict[str, int] = {}
        managers = [
            manager
            for stage in self.stages
            if (manager := getattr(stage, "alert_manager", None)) is not None
        ]
        if self.fabric is not None:
            # Fabric mode raises alerts inside the per-tenant lanes (plus
            # the base replica's fallback lane), not in self.stages.
            managers.extend(
                pipeline.alert_manager
                for pipeline in self.fabric.replicas().values()
            )
            managers.append(self.pipeline.alert_manager)
        for manager in managers:
            for severity, count in manager.count_by_severity().items():
                severities[severity] = severities.get(severity, 0) + count
        self.summary.severities = severities
        if self.tenant_stage is not None:
            tenants = self.tenant_stage.to_dict()
            for key, report in tenants.items():
                tenant = int(key)
                report["live_version"] = self.fabric.live_version(tenant)
                report["swaps"] = self.fabric.swaps(tenant)
            self.summary.tenants = tenants
        if self.cascade_attached is not None:
            self.summary.cascade = self.pipeline.cascade_stage.to_dict()
        return self.summary

    def close_fabric(self) -> None:
        """Release fabric leases (called by the worker loop on exit)."""
        if self.fabric is not None:
            self.fabric.close()

    def close_cascade(self) -> None:
        """Close the pre-filter attachment (never unlinks; owner does)."""
        if self.cascade_attached is not None:
            self.cascade_attached.close()

    # ------------------------------------------------------------- internals
    def _note_frame_tenants(self, frame) -> None:
        """Record the frame's coordinator-stamped flow -> tenant column.

        The stamp is authoritative (the coordinator keyed the flow once);
        the map is bounded like the router memo and consulted by
        :meth:`_tenant_of_flow` when the flow closes.
        """
        tenants = frame.tenants()
        if len(self._tenant_of_token) < _TENANT_MEMO_MAX:
            for key, tenant in zip(frame.flow_keys(), tenants):
                self._tenant_of_token[key.token] = int(tenant)

    def _tenant_of_flow(self, flow) -> int:
        """Tenant of one assembled flow: frame stamp, keyer fallback, 0."""
        tenant = self._tenant_of_token.get(flow.key.token)
        if tenant is not None:
            return tenant
        if self.tenant_keyer is not None:
            return self.tenant_keyer.tenant_of_key(flow.key)
        return 0

    def _tenant_chain(self, tenant: int):
        """The tenant's live stage chain; base replica for unmapped tenants."""
        try:
            return self.fabric.pipeline_for(tenant).stages
        except ConfigurationError:
            return self.pipeline.stages

    def _serve(
        self,
        batch: ServingBatch,
        stages,
        learn: bool = True,
        flush: bool = False,
    ) -> ServingBatch:
        """The one serve body: time, run ``stages``, learn, account.

        ``flush`` drains each stateful stage after running it (the
        shutdown pass that classifies still-open flows).
        """
        start = time.perf_counter()
        cpu_start = time.process_time()
        for stage in stages:
            stage.run(batch, self.telemetry)
            if flush:
                stage.flush(batch)
        if self.online and learn and batch.n_flows:
            self._learn(batch)
        self._account(
            batch, time.perf_counter() - start, time.process_time() - cpu_start
        )
        return batch

    def _advance_watermark(
        self, frame_flows: List[FlowTuple], emitted: List[FlowRecord]
    ) -> None:
        """Update the open-flow -> first-batch-index map after one frame.

        Only the frame's own flows and the flows it emitted can have opened
        or closed, so only their keys are touched: the cost follows the
        frame, not the open-flow count.  A flow still open keeps the index
        of the batch that first opened its key.
        """
        index = self.batches_handled
        self.batches_handled += 1
        first = self._flow_first_index
        is_open = self.table.is_open
        for flow in emitted:
            key = _flow_tuple(flow.key)
            if not is_open(key):
                first.pop(key, None)
        for key in frame_flows:
            if is_open(key):
                first.setdefault(key, index)

    def _learn(self, batch: ServingBatch) -> None:
        """Fold the batch's known-label flows into the private replica.

        One deterministic ``partial_fit`` pass in arrival order over the
        pipeline's shared ``batch_training_data`` fold -- the same kernel
        and label handling as single-process online serving, which is what
        makes the cluster's merged model comparable to the single-process
        one.
        """
        data = self.pipeline.batch_training_data(batch)
        if data is None:
            return
        X, y = data
        self.classifier.partial_fit(X, y)
        self.summary.online_updates += 1
        self.summary.online_samples += int(y.shape[0])

    def _account(self, batch: ServingBatch, seconds: float, cpu_seconds: float) -> None:
        if self.capture_predictions and batch.n_flows:
            # _advance_watermark has not run yet, so _flow_first_index still
            # maps flows open *before* this batch; a flow that opened and
            # closed inside this batch needs only the current index.
            index = self.batches_handled
            first = self._flow_first_index
            self.predictions.extend(
                (first.get(_flow_tuple(flow.key), index), prediction)
                for flow, prediction in zip(
                    batch.flows,
                    batch_flow_predictions(batch, self.pipeline.is_attack_class),
                )
            )
        self.summary.packets += batch.n_packets
        self.summary.flows += batch.n_flows
        self.summary.alerts += len(batch.alerts)
        self.summary.batches += 1
        self.summary.busy_seconds += seconds
        self.summary.busy_cpu_seconds += cpu_seconds
        self.telemetry.record_items(batch.n_flows)


def cluster_worker_main(
    config: WorkerConfig, inbox, outbox, heartbeat, transport
) -> None:
    """Process entry point: attach, serve the poll loop, report, exit.

    Data arrives only through the shared-memory ring pair in ``transport``
    (:class:`~repro.cluster.ring.TransportSpec`): micro-batch frames are
    decoded *in place* from the data ring and acked as fixed-width records
    through the result ring; a data slot is released only after its ack is
    committed, so a crash mid-slot leaves reclaimable evidence.  ``inbox``
    (a small control queue) carries only the rare protocol messages --
    :class:`SyncRequest`/:class:`Rebase`, chaos injections, :class:`Stop`
    -- and ``outbox`` the rare replies (:class:`DeltaReport`,
    :class:`FinalReport`).

    With data and control on separate channels, ordering comes from the
    barrier protocol: a control message carrying ``barrier`` is acted on
    only once this incarnation has handled that many batches.  Serving
    never pauses for a sync round: after a :class:`SyncRequest` reply the
    loop keeps draining the ring, and the later :class:`Rebase` carries
    the updates learned meanwhile over onto the merged model.

    ``heartbeat`` is the coordinator's shared liveness array (one ``double``
    wall-clock slot per worker).  The loop stamps its slot on every ring
    poll, every backpressure wait and around every processed batch, so a
    crash *and* a hang both stop the stamps within one poll interval plus
    one batch time.
    """
    # The operator's Ctrl-C is delivered to the whole foreground process
    # group.  Shutdown is the *coordinator's* decision (its GracefulShutdown
    # handler stops ingest and sends Stop); a worker that reacted to the
    # signal itself would die mid-drain and break the drain-and-exit-0
    # contract -- visibly so under the spawn start method, where workers do
    # not inherit the coordinator's handlers.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass

    def stamp() -> None:
        heartbeat[config.worker_id] = time.time()

    stamp()
    attached = AttachedPublication(config.spec)
    data_ring = ShmRing.attach(transport.data)
    result_ring = ShmRing.attach(transport.result)
    runtime = None
    try:
        runtime = WorkerRuntime(
            config.worker_id,
            config.n_workers,
            attached,
            online=config.online,
            idle_timeout=config.idle_timeout,
            vnodes=config.vnodes,
            enforce_shard_guard=config.enforce_shard_guard,
            capture_predictions=config.capture_predictions,
            fabric_spec=config.fabric_spec,
            tenant_keyer=config.tenant_keyer,
            cascade_spec=config.cascade_spec,
        )
        stamp()

        def send_ack(seq: int, n_packets: int, batch: ServingBatch) -> None:
            while True:
                slot = result_ring.try_reserve()
                if slot is not None:
                    break
                # Full result ring: the coordinator is behind on draining
                # acks.  Block (BoundedQueue "block" semantics), stamping so
                # the watchdog knows backpressure from death.
                runtime.summary.ring_stalls += 1
                stamp()
                time.sleep(_RING_POLL_SECONDS)
            predictions = (
                runtime.drain_predictions(transport.ack_layout.pred_capacity)
                if config.capture_predictions
                else []
            )
            encode_ack(
                slot,
                transport.ack_layout,
                seq=seq,
                index=runtime.batches_handled - 1,
                watermark=runtime.watermark,
                packets=n_packets,
                flows=batch.n_flows,
                alerts=len(batch.alerts),
                predictions=predictions,
            )
            result_ring.commit()

        def handle_control(message) -> bool:
            """Act on one control message; True means exit the loop."""
            if isinstance(message, ChaosHang):
                deadline = (
                    time.monotonic() + message.seconds
                    if message.seconds > 0
                    else None
                )
                while deadline is None or time.monotonic() < deadline:
                    if message.stamp_heartbeat:
                        stamp()
                        time.sleep(
                            min(
                                config.heartbeat_interval,
                                max(deadline - time.monotonic(), 0.0)
                                if deadline is not None
                                else config.heartbeat_interval,
                            )
                        )
                    else:
                        # Sleep without stamping: the watchdog sees the stale
                        # heartbeat and SIGKILLs this process mid-nap.
                        time.sleep(
                            message.seconds if message.seconds > 0 else 3600.0
                        )
                        break
                return False
            if isinstance(message, ChaosExit):
                return True
            if isinstance(message, SyncRequest):
                outbox.put(
                    DeltaReport(
                        worker_id=config.worker_id,
                        round_id=message.round_id,
                        delta=runtime.compute_delta(),
                    )
                )
                return False
            if isinstance(message, Rebase):
                runtime.rebase()
                return False
            if isinstance(message, Stop):
                summary = runtime.finalize()
                # Computed after finalize() so the shipped delta includes
                # anything learned from the flushed flows.
                final_delta = runtime.compute_delta() if config.online else None
                outbox.put(
                    FinalReport(
                        summary=summary,
                        final_delta=final_delta,
                        # With per-batch acks draining incrementally this is
                        # just the flush remainder (flows closed by finalize).
                        predictions=(
                            runtime.drain_predictions()
                            if config.capture_predictions
                            else None
                        ),
                    )
                )
                return True
            raise RuntimeError(  # pragma: no cover - protocol violation
                f"worker received unknown message {message!r}"
            )

        pending: deque = deque()
        while True:
            stamp()
            while True:
                try:
                    pending.append(inbox.get_nowait())
                except queue_module.Empty:
                    break
            if pending:
                message = pending[0]
                barrier = getattr(message, "barrier", None)
                if barrier is None or runtime.batches_handled >= barrier:
                    pending.popleft()
                    if handle_control(message):
                        return
                    continue
                # Barrier not reached: fall through and drain the data ring
                # (the frames it needs were committed before the control
                # message was sent).
            view = data_ring.try_peek()
            if view is not None:
                seq, learn, frame = decode_frame(view, transport.frame_layout)
                batch = runtime.handle_frame(frame, learn=learn)
                stamp()
                send_ack(seq, frame.n_packets, batch)
                # Every reference into the slot must die before release:
                # lingering views would make the shm block unclosable
                # (BufferError) at shutdown.
                batch.frame = None
                del view, frame, batch
                # Only now is the slot reusable: the batch is fully
                # processed and its receipt committed to the result ring.
                data_ring.release()
                continue
            time.sleep(_RING_POLL_SECONDS)
    finally:
        data_ring.close()
        result_ring.close()
        if runtime is not None:
            runtime.close_fabric()
            runtime.close_cascade()
        attached.close()
