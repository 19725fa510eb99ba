"""Cluster coordinator: sharded dispatch, delta merging, self-healing supervision.

The coordinator owns the cluster:

* it publishes the trained pipeline's tensors in shared memory
  (:mod:`repro.cluster.shared_model`) and spawns N worker processes, each a
  full serving replica;
* it routes every packet to the worker owning its flow's shard
  (:class:`repro.cluster.router.ShardRouter`) and dispatches bounded
  micro-batches as columnar frames over per-worker shared-memory ring
  buffers (:mod:`repro.cluster.ring`) -- written once, read in place, no
  pickle on the data plane;
* on a **sync round** it collects each worker's class-vector delta (the
  ``partial_fit`` updates accumulated against the round-start model), merges
  them additively through :func:`repro.hdc.backend.merge_class_deltas` --
  with row-granular cached-norm invalidation -- republishes the merged
  matrix, and lets every replica rebase.  Because HDC class vectors are sums
  of weighted sample hypervectors, this merge is *exact*: the published model
  equals single-process ``partial_fit`` of every shard's stream applied
  against the round-start state (see ``docs/cluster.md``);
* it **supervises** the workers (:mod:`repro.cluster.supervision`): a
  watchdog thread detects crashes and hangs from process liveness plus a
  shared heartbeat array, and recovery follows a
  :class:`~repro.cluster.supervision.RetryPolicy` -- respawn against the
  still-live shm publication, flow-exact redispatch of the dead worker's
  retained batches, quorum-tolerant sync rounds, and load shedding (or ring
  failover) once the respawn budget is spent.  See ``docs/robustness.md``
  ("Process faults and chaos testing").

Every supervision and round *decision* -- the per-worker batch ledger,
barriers, which reports a round owes and accepts, respawn or exhaust, the
replay set -- is made by the pure :class:`~repro.cluster.state.ClusterState`;
the coordinator is the shell that does the I/O it is told to do.

With data and control on separate channels (rings vs a small control
queue), the old queue-FIFO consistent cut is replaced by a **barrier
protocol**: every ``SyncRequest``/``Stop`` carries the worker's dispatch
count at send time and the worker drains its data ring to that barrier
before acting, so each delta is a consistent cut of the stream.

Sync rounds are **pipelined**: at a cadence point the coordinator sends the
requests and goes back to dispatching; the workers reply, mark their
replicas and keep serving.  The reports are merged -- and ``Rebase`` sent --
at the coordinator's next safe point after the last one arrives, and each
worker's rebase carries the updates it learned since its barrier over onto
the merged model.  At most one round is in flight: a cadence point that
comes first waits for it.  With several workers a frame served after a
barrier is therefore scored before the other workers' deltas of that round
land -- the model a worker serves is at most one round stale.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.cluster.ring import (
    ACK_HEADER,
    PRED_DTYPE,
    AckSlotLayout,
    FrameSlotLayout,
    PacketFrame,
    ShmRing,
    TransportSpec,
    TransportStats,
    decode_ack,
    encode_frame,
    ring_name,
    transport_token,
)
from repro.cluster.router import ShardRouter
from repro.cluster.shared_model import ModelPublication
from repro.cluster.state import ClusterState, Recovery
from repro.cluster.supervision import (
    FailureRecord,
    RecoveryStats,
    RetryPolicy,
    Watchdog,
    WorkerFailure,
)
from repro.cluster.worker import (
    BatchAck,
    DeltaReport,
    FinalReport,
    PacketBatch,
    Rebase,
    Stop,
    SyncRequest,
    WorkerConfig,
    WorkerSummary,
    cluster_worker_main,
)
from repro.exceptions import ClusterError, ConfigurationError
from repro.hdc.backend import merge_class_deltas
from repro.nids.packets import Packet
from repro.nids.pipeline import DetectionPipeline
from repro.serving.backpressure import BackpressureStats
from repro.serving.shutdown import GracefulShutdown, chunked


@dataclass(frozen=True)
class ClusterConfig:
    """Deployment knobs of a serving cluster.

    Attributes
    ----------
    n_workers:
        Worker processes (shards).
    batch_size:
        Packets per dispatched batch (the cluster's micro-batch unit).
    sync_interval:
        Approximate batches *per worker* between delta-merge syncs when
        online learning is on (``0`` merges only at shutdown).
    online:
        Enable distributed online learning (per-worker ``partial_fit`` +
        additive delta merging).
    idle_timeout:
        Flow-table idle timeout inside each worker.
    queue_capacity:
        Slots per worker data/result ring, in batches (the in-flight
        bound); a full ring blocks the coordinator (producer-pays
        backpressure, as in the single-process engine's ``block`` policy),
        counted as ``ring_full_stalls`` on the transport stats.
    vnodes:
        Virtual nodes per worker on the router's hash ring.
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``fork`` when the
        platform offers it (fastest replica bootstrap) and ``spawn``
        otherwise.
    capture_predictions:
        Ship every served flow's :class:`~repro.serving.FlowPrediction`
        back in the workers' report streams (collected, deduplicated by
        flow token, on :attr:`ClusterReport.flow_predictions`).  This is the
        evidence the golden-trace differential harness compares against
        offline batch predictions; it costs memory proportional to the
        served flow count, so leave it off for open-ended serving.
    retry:
        The supervision :class:`RetryPolicy`.  ``None`` means supervision
        with default parameters -- worker failure is always *detected*;
        ``RetryPolicy(max_respawns=0, on_exhausted="raise")`` restores the
        old fail-fast behaviour (first failure raises, naming the unacked
        batch seqs).
    fabric_spec:
        Multi-tenant fabric attach table (:class:`repro.fabric.registry.
        RegistrySpec`).  When set (together with ``tenant_keyer``), the
        coordinator stamps each dispatched frame's tenant column and every
        worker serves flows through per-tenant model lanes; worker respawn
        re-ships the same config, so the replacement incarnation reattaches
        the tenant table automatically.  Typed ``Any``: the cluster package
        never imports the fabric (the fabric builds on the cluster).
    tenant_keyer:
        The flow -> tenant keying function (:class:`repro.fabric.router.
        TenantKeyer`), evaluated once per unique flow at dispatch.
    """

    n_workers: int = 4
    batch_size: int = 512
    sync_interval: int = 8
    online: bool = False
    idle_timeout: float = 5.0
    queue_capacity: int = 64
    vnodes: int = 64
    start_method: Optional[str] = None
    capture_predictions: bool = False
    retry: Optional[RetryPolicy] = None
    fabric_spec: Optional[Any] = None
    tenant_keyer: Optional[Any] = None

    def validate(self) -> "ClusterConfig":
        """Check parameter ranges and return ``self``."""
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.sync_interval < 0:
            raise ConfigurationError("sync_interval must be non-negative")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be >= 1")
        if self.fabric_spec is not None and self.online:
            raise ConfigurationError(
                "cluster fabric mode serves per-tenant models; cluster-wide "
                "online learning does not compose with it (use the "
                "FabricEngine's tenant-scoped learning instead)"
            )
        if (self.fabric_spec is None) != (self.tenant_keyer is None):
            raise ConfigurationError(
                "fabric_spec and tenant_keyer come as a pair: the spec "
                "without keying leaves every frame untenanted, and keying "
                "without the spec gives workers no models to route to"
            )
        if self.retry is not None:
            self.retry.validate()
        return self


@dataclass
class ClusterReport:
    """Aggregate outcome of one cluster serving run."""

    workers: List[WorkerSummary]
    wall_seconds: float
    sync_rounds: int
    generation: int
    interrupted: bool = False
    #: CPU seconds the coordinator spent routing/dispatching/merging.  The
    #: router is the cluster's other scarce resource: aggregate worker
    #: capacity only materializes while one core can route packets at least
    #: as fast as the shards drain them.
    coordinator_cpu_seconds: float = 0.0
    #: Per-flow serving outcomes across all shards (only populated when
    #: ``ClusterConfig.capture_predictions`` is on).  Deduplicated by flow
    #: token: at-least-once redispatch can re-score a flow that was already
    #: classified just before a crash, and the first record wins.
    flow_predictions: Optional[List] = None
    #: Supervision outcome: detected failures, respawns, redispatch and
    #: shed accounting (always present after a supervised run).
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    #: Drop accounting of the shed path (``BoundedQueue``-style counters);
    #: ``None`` when nothing was shed.
    shed_stats: Optional[Dict[str, Any]] = None
    #: Ring-transport accounting (bytes moved, copies avoided, backpressure
    #: stalls, reclaimed slots, serialize CPU); see
    #: :class:`~repro.cluster.ring.TransportStats`.
    transport: Optional[Dict[str, Any]] = None
    #: CPU seconds inside ``ShardRouter.partition_packets`` alone -- the
    #: routing share of ``coordinator_cpu_seconds``.
    routing_cpu_seconds: float = 0.0

    # ------------------------------------------------------------ aggregates
    @property
    def total_packets(self) -> int:
        """Packets ingested across all workers."""
        return sum(w.packets for w in self.workers)

    @property
    def total_flows(self) -> int:
        """Flows served across all workers."""
        return sum(w.flows for w in self.workers)

    @property
    def total_alerts(self) -> int:
        """Alerts raised across all workers."""
        return sum(w.alerts for w in self.workers)

    @property
    def aggregate_flow_throughput(self) -> float:
        """Sum of per-replica sustained rates (flows per busy *CPU* second).

        This is the cluster's *capacity*: what the shards deliver together
        when each has a core to itself (per-core CPU seconds equal wall
        seconds exactly then).  On a host with fewer cores than workers the
        wall-clock rate (``total_flows / wall_seconds``) is the lower,
        contended number; benchmark records carry both plus the host CPU
        count so the two are never conflated.
        """
        return sum(w.flow_throughput for w in self.workers)

    @property
    def aggregate_packet_throughput(self) -> float:
        """Sum of per-replica packet ingest rates."""
        return sum(w.packet_throughput for w in self.workers)

    @property
    def wall_flow_throughput(self) -> float:
        """Flows per wall-clock second for the whole run."""
        return self.total_flows / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def routing_packets_per_cpu_second(self) -> float:
        """Packets the coordinator routes per CPU second (the fan-out bound)."""
        if self.coordinator_cpu_seconds <= 0:
            return 0.0
        return self.total_packets / self.coordinator_cpu_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view."""
        return {
            "workers": [w.to_dict() for w in self.workers],
            "wall_seconds": self.wall_seconds,
            "sync_rounds": self.sync_rounds,
            "generation": self.generation,
            "interrupted": self.interrupted,
            "total_packets": self.total_packets,
            "total_flows": self.total_flows,
            "total_alerts": self.total_alerts,
            "aggregate_flows_per_second": self.aggregate_flow_throughput,
            "aggregate_packets_per_second": self.aggregate_packet_throughput,
            "wall_flows_per_second": self.wall_flow_throughput,
            "coordinator_cpu_seconds": self.coordinator_cpu_seconds,
            "routing_packets_per_cpu_second": self.routing_packets_per_cpu_second,
            "n_flow_predictions": (
                len(self.flow_predictions) if self.flow_predictions is not None else 0
            ),
            "recovery": self.recovery.to_dict(),
            "shed_stats": self.shed_stats,
            "transport": self.transport,
            "routing_cpu_seconds": self.routing_cpu_seconds,
        }


class ClusterCoordinator:
    """Runs a trained pipeline as a sharded multi-process serving cluster.

    Parameters
    ----------
    pipeline:
        A trained :class:`DetectionPipeline`; its classifier state is
        published to the workers and, after :meth:`shutdown`, updated in
        place with the cluster-adapted merged model (so ``save_pipeline``
        on it persists what the cluster learned).
    config:
        A :class:`ClusterConfig`.
    """

    def __init__(self, pipeline: DetectionPipeline, config: Optional[ClusterConfig] = None):
        self.pipeline = pipeline
        self.config = (config or ClusterConfig()).validate()
        self.policy = (self.config.retry or RetryPolicy()).validate()
        # Cascade serving is detected from the pipeline itself (a
        # CascadePipeline carries a cascade_stage); the pre-filter head is
        # published next to the main (multiclass) publication at start().
        # Duck typed: the cluster package never imports the cascade (the
        # cascade builds on the cluster), mirroring the fabric layering.
        self._cascade = hasattr(pipeline, "cascade_stage")
        if self._cascade and self.config.online:
            raise ConfigurationError(
                "cascade serving does not compose with cluster-wide online "
                "learning: the two heads disagree on the label space, so a "
                "single merged delta stream is ambiguous"
            )
        if self._cascade and self.config.fabric_spec is not None:
            raise ConfigurationError(
                "cascade serving and the multi-tenant fabric both replace "
                "the worker stage chain; serve one or the other"
            )
        self.router = ShardRouter(self.config.n_workers, vnodes=self.config.vnodes)
        self.publication: Optional[ModelPublication] = None
        #: Second publication carrying the cascade's pre-filter head.
        self.prefilter_publication: Optional[ModelPublication] = None
        self._ctx: Optional[Any] = None
        self._processes: List[mp.process.BaseProcess] = []
        self._inboxes: List[Any] = []
        self._outbox: Optional[Any] = None
        self._worker_configs: List[WorkerConfig] = []
        self._seq = 0
        self._dispatches_since_sync = 0
        self._started = False
        # ------------------------------------------------------- transport
        self._frame_layout = FrameSlotLayout.for_batch_size(self.config.batch_size)
        self._ack_layout = AckSlotLayout(
            pred_capacity=min(self.config.batch_size, 1024)
        )
        # ----------------------------------------------------- supervision
        #: Guards the (incarnation, process, expected_exit, heartbeat) rows
        #: the watchdog thread snapshots; recovery itself runs only on the
        #: coordinator thread.
        self._lock = threading.Lock()
        self._watchdog: Optional[Watchdog] = None
        self._heartbeats: Optional[Any] = None
        self._reset()

    def _reset(self) -> None:
        """Fresh per-run state: decision core, rings, reports, accounting."""
        n = self.config.n_workers
        self.state = ClusterState(n, self.policy)
        self._ring_token = transport_token()
        self._data_rings: List[Optional[ShmRing]] = [None] * n
        self._result_rings: List[Optional[ShmRing]] = [None] * n
        self._transports: List[Optional[TransportSpec]] = [None] * n
        self._pending: Deque[Any] = deque()
        self._pred_records: Dict[str, Any] = {}
        self._failover_router: Optional[ShardRouter] = None
        self.transport = TransportStats()
        self._routing_cpu_seconds = 0.0

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Publish the model and launch the worker + watchdog machinery.

        If publishing or spawning fails partway, everything already created
        (shared-memory blocks, spawned workers) is torn down before the
        error propagates.
        """
        if self._started:
            return
        cfg = self.config
        method = cfg.start_method
        if method is None:
            method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = ctx = mp.get_context(method)
        n = cfg.n_workers
        self._reset()
        try:
            self.publication = ModelPublication(self.pipeline)
            spec = self.publication.spec()
            cascade_spec = None
            if self._cascade:
                # Publish the pre-filter head as a second shared-memory
                # publication; the main publication already carries the
                # multiclass head (a CascadePipeline's classifier).
                from repro.cascade.cluster import publish_prefilter

                self.prefilter_publication, cascade_spec = publish_prefilter(
                    self.pipeline
                )
            self._outbox = ctx.Queue()
            self._heartbeats = ctx.Array("d", n, lock=False)
            self._inboxes = []
            self._processes = []
            self._worker_configs = []
            for worker_id in range(n):
                worker_config = WorkerConfig(
                    worker_id=worker_id,
                    n_workers=n,
                    spec=spec,
                    online=cfg.online,
                    idle_timeout=cfg.idle_timeout,
                    vnodes=cfg.vnodes,
                    # Ring failover re-homes a dead shard's keys onto the
                    # survivors, which the per-worker shard guard would
                    # reject as misrouted.
                    enforce_shard_guard=self.policy.on_exhausted != "failover",
                    capture_predictions=cfg.capture_predictions,
                    heartbeat_interval=self.policy.heartbeat_interval,
                    fabric_spec=cfg.fabric_spec,
                    tenant_keyer=cfg.tenant_keyer,
                    cascade_spec=cascade_spec,
                )
                self._worker_configs.append(worker_config)
                inbox, process = self._spawn(worker_id, incarnation=0)
                self._inboxes.append(inbox)
                self._processes.append(process)
            self._watchdog = Watchdog(self._supervision_snapshot, self.policy)
            self._watchdog.start()
        except BaseException:
            self._abort()
            raise
        self._started = True

    def serve_packets(
        self,
        packets: Iterable[Packet],
        shutdown: Optional[GracefulShutdown] = None,
    ) -> None:
        """Route and dispatch a packet stream (stops early on ``shutdown``).

        Packets accumulate in per-worker buffers and each worker is
        dispatched *full* ``batch_size`` micro-batches: every replica then
        amortizes its vectorized stages over the same batch size as the
        single-process engine, instead of receiving 1/N-sized fragments of a
        shared batch.
        """
        if not self._started:
            self.start()
        cfg = self.config
        buffers: List[List[Packet]] = [[] for _ in range(cfg.n_workers)]
        for chunk in chunked(packets, cfg.batch_size):
            if shutdown is not None and shutdown.triggered:
                break
            self._service_events()
            cpu0 = time.process_time()
            shards = self.router.partition_packets(chunk)
            self._routing_cpu_seconds += time.process_time() - cpu0
            for worker_id, shard in enumerate(shards):
                buffer = buffers[worker_id]
                buffer.extend(shard)
                while len(buffer) >= cfg.batch_size:
                    self._dispatch(worker_id, buffer[: cfg.batch_size])
                    del buffer[: cfg.batch_size]
            self._maybe_sync()
        # Tail flush: partial buffers take the *same* dispatch path as full
        # batches -- ledger entry, ring write, transport accounting and sync
        # cadence included -- so nothing about the stream's last packets
        # lives in a separate code path.
        for worker_id, buffer in enumerate(buffers):
            if buffer:
                self._service_events()
                self._dispatch(worker_id, list(buffer))
                buffer.clear()
        self._maybe_sync()

    def _maybe_sync(self) -> None:
        """Open a delta-merge round when the dispatch cadence calls for one."""
        cfg = self.config
        if (
            cfg.online
            and cfg.sync_interval
            and self._dispatches_since_sync >= cfg.sync_interval * cfg.n_workers
        ):
            self.sync_models(wait=False)

    def sync_models(self, new_round: bool = True, wait: bool = True) -> int:
        """One quorum-tolerant delta-merge round; returns the generation.

        A round already in flight is completed first.  By default the call
        is then one complete, blocking round and returns the generation it
        published.  The serve loop pipelines its rounds: ``wait=False`` only
        opens the new round (its reports are merged at a later safe point
        while dispatch goes on), and ``new_round=False`` -- used by
        :meth:`shutdown` before ``Stop`` -- only completes the one in
        flight.  Any waiting for reports happens inside this call.

        The sync request is sent to every live worker; if one dies before
        reporting, recovery respawns it and the round proceeds with the
        surviving deltas (the dead incarnation's unsynced updates are lost,
        and redispatch re-learns them).  A worker that missed the round --
        respawned mid-round -- simply keeps its attach-time base and is
        folded back in at the next round: additive deltas are independent
        of the base generation, so nothing is double-merged.
        """
        if not self._started:
            raise ConfigurationError("cluster is not running")
        self._service_events()
        generation = self._finish_round()
        if new_round:
            self._open_round()
            if wait:
                generation = self._finish_round()
        return generation

    def shutdown(self) -> ClusterReport:
        """Drain every worker, merge final deltas, and tear the cluster down.

        A worker that dies mid-drain is recovered (respawn, redispatch,
        re-Stop) so its shard's flows still reach the report; when the
        respawn budget is spent its remaining load is shed instead of
        aborting.  On an unrecoverable failure the cluster is aborted -- the
        publication's shared-memory blocks are freed and surviving processes
        reaped -- before the error propagates.
        """
        if not self._started:
            raise ConfigurationError("cluster is not running")
        start = time.perf_counter()
        try:
            self._service_events()
            if self.state.round is not None:
                # The last round lands before Stop, so the final deltas
                # cover exactly the batches after its barrier.
                self.sync_models(new_round=False)
            expected: Dict[int, int] = {}
            for worker_id in range(self.config.n_workers):
                while not self.state.workers[worker_id].shed:
                    if self._send_stop(worker_id):
                        expected[worker_id] = self.state.workers[worker_id].incarnation
                        break
                    # The worker was respawned mid-put; Stop the fresh
                    # incarnation (its Stop barrier covers the redispatched
                    # frames already committed to the new ring).
            reports: List[FinalReport] = self._collect(
                FinalReport, expected, None, on_failure="restop"
            )
        except BaseException:
            self._abort()
            raise
        # A worker commits its last acks and *then* posts FinalReport, so
        # _collect can return while those acks still sit in the result ring;
        # absorb them before the rings are unlinked or their predictions
        # (and watermarks) die with the shm blocks.
        self._drain_ring_acks()
        final_deltas = [r.final_delta for r in reports if r.final_delta is not None]
        if final_deltas:
            self._merge(final_deltas)
            self.publication.bump_generation()
        # Fold the cluster-adapted model back into the coordinator's pipeline.
        self.pipeline.classifier.set_class_vectors(self.publication.class_matrix)
        generation = self.publication.generation
        for process in self._processes:
            process.join(timeout=10.0)
        # Reap what is left (a hung worker needs SIGKILL) and free the shm.
        self._abort()
        if self.config.capture_predictions:
            for report in sorted(reports, key=lambda r: r.summary.worker_id):
                self._absorb_predictions(report.predictions or [])
        summaries = {r.summary.worker_id: r.summary for r in reports}
        for worker_id in range(self.config.n_workers):
            if worker_id not in summaries:
                # A shed worker never files a report; rebuild it from acks.
                summaries[worker_id] = WorkerSummary(
                    worker_id=worker_id, **self.state.shed_tally(worker_id)
                )
        # The workers' half of the backpressure picture: waits on a full
        # result ring, reported in each final summary.
        self.transport.result_ring_stalls = sum(
            s.ring_stalls for s in summaries.values()
        )
        shed = self.state.recovery.shed_batches
        flow_predictions = (
            list(self._pred_records.values())
            if self.config.capture_predictions
            else None
        )
        return ClusterReport(
            workers=[summaries[w] for w in sorted(summaries)],
            wall_seconds=time.perf_counter() - start,
            sync_rounds=self.state.sync_rounds,
            generation=generation,
            flow_predictions=flow_predictions,
            recovery=self.state.recovery,
            # Shed load in the bounded ingest queue's drop counters.
            shed_stats=(
                BackpressureStats(submitted=shed, dropped_oldest=shed).to_dict()
                if shed
                else None
            ),
            transport=self.transport.to_dict(),
            routing_cpu_seconds=self._routing_cpu_seconds,
        )

    def serve(
        self,
        packets: Iterable[Packet],
        shutdown: Optional[GracefulShutdown] = None,
    ) -> ClusterReport:
        """End-to-end convenience: start, serve the stream, drain, report.

        ``wall_seconds`` on the returned report covers dispatch through
        drain -- the number the scaling benchmark compares against the
        single-process path.  Any mid-run failure aborts the cluster
        (shared memory freed, processes reaped) before propagating.
        """
        self.start()
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            self.serve_packets(packets, shutdown=shutdown)
            report = self.shutdown()
        except BaseException:
            self._abort()
            raise
        report.wall_seconds = time.perf_counter() - start
        report.coordinator_cpu_seconds = time.process_time() - cpu_start
        report.interrupted = shutdown is not None and shutdown.triggered
        return report

    # --------------------------------------------------------- chaos surface
    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL a worker (the chaos harness's crash primitive)."""
        self._processes[worker_id].kill()

    def inject(self, worker_id: int, message: Any) -> bool:
        """Enqueue a chaos message on a worker's inbox; False if it is gone."""
        return self._put_control(worker_id, message)

    # ------------------------------------------------------------- internals
    def _supervision_snapshot(self) -> List[Any]:
        """Consistent worker rows for the watchdog (see :class:`Watchdog`)."""
        with self._lock:
            return [
                (w, rec.incarnation, process, rec.expected_exit or rec.shed, self._heartbeats[w])
                for w, (rec, process) in enumerate(zip(self.state.workers, self._processes))
            ]

    def _spawn(self, worker_id: int, incarnation: int) -> Tuple[Any, Any]:
        """Start one worker incarnation on a fresh ring pair and control
        queue; returns ``(inbox, process)``."""
        data = ShmRing.create(
            ring_name(self._ring_token, "d", worker_id, incarnation),
            n_slots=self.config.queue_capacity,
            slot_bytes=self._frame_layout.slot_bytes,
        )
        try:
            result = ShmRing.create(
                ring_name(self._ring_token, "a", worker_id, incarnation),
                n_slots=self.config.queue_capacity,
                slot_bytes=self._ack_layout.slot_bytes,
            )
        except BaseException:
            data.close(unlink=True)
            raise
        self._data_rings[worker_id] = data
        self._result_rings[worker_id] = result
        self._transports[worker_id] = TransportSpec(
            data=data.spec(),
            result=result.spec(),
            frame_layout=self._frame_layout,
            ack_layout=self._ack_layout,
        )
        # Control-plane only (sync/chaos/stop): rare and small, so
        # unbounded; the data plane's bound is the ring itself.
        inbox = self._ctx.Queue()
        self._heartbeats[worker_id] = time.time()
        process = self._ctx.Process(
            target=cluster_worker_main,
            args=(
                self._worker_configs[worker_id],
                inbox,
                self._outbox,
                self._heartbeats,
                self._transports[worker_id],
            ),
            name=f"repro-cluster-worker-{worker_id}"
            + (f"-r{incarnation}" if incarnation else ""),
            daemon=True,
        )
        process.start()
        return inbox, process

    def _close_rings(self) -> None:
        """Owner teardown of every ring (close + unlink); idempotent."""
        for ring in [*self._data_rings, *self._result_rings]:
            if ring is not None:
                ring.close(unlink=True)
        self._data_rings = [None] * len(self._data_rings)
        self._result_rings = [None] * len(self._result_rings)

    def _send_stop(self, worker_id: int) -> bool:
        """Stop one worker with the barrier pinned at its dispatch count."""
        record = self.state.workers[worker_id]
        if self._put_control(worker_id, Stop(barrier=record.dispatched)):
            with self._lock:
                record.expected_exit = True
            return True
        return False

    def _dispatch(self, worker_id: int, packets: List[Packet]) -> None:
        self._dispatches_since_sync += 1
        self._send_batch(worker_id, self._new_batch(packets))

    def _new_batch(self, packets: List[Packet], learn: bool = True) -> PacketBatch:
        cpu0 = time.process_time()
        frame = PacketFrame.from_packets(packets, tenant_of=self.config.tenant_keyer)
        self.transport.serialize_cpu_seconds += time.process_time() - cpu0
        self._seq += 1
        return PacketBatch(seq=self._seq - 1, frame=frame, learn=learn)

    def _send_batch(self, worker_id: int, batch: PacketBatch) -> None:
        """Ledger-tracked dispatch; a shed shard's batch is re-homed on the
        ring (failover) or dropped and counted."""
        if self.state.dispatch(worker_id, batch) is not None:
            self._put_tracked(worker_id, batch)
            return
        if self._failover_router is None:
            self.state.drop(batch)
            return
        for target, shard in enumerate(
            self._failover_router.partition_packets(batch.packets)
        ):
            if shard and not self.state.workers[target].shed:
                self._send_batch(target, self._new_batch(list(shard), batch.learn))

    def _live(self, worker_id: int, incarnation: int) -> bool:
        """Put-loop guard: False once ``incarnation`` was shed or respawned.

        Checks liveness on *every* iteration -- a worker that dies while its
        ring or inbox has headroom must not keep absorbing messages
        silently -- and recovers a dead one before answering.
        """
        while self.state.is_current(worker_id, incarnation):
            if (
                self._processes[worker_id].is_alive()
                or self.state.workers[worker_id].expected_exit
            ):
                return True
            self._service_events(scan=True)
        return False

    def _put_tracked(self, worker_id: int, batch: PacketBatch) -> None:
        """Producer-pays ring write of a ledger-tracked batch.

        The frame is encoded once into the next free data-ring slot; a full
        ring blocks here (``block`` backpressure, counted as a stall) while
        acks and failures are serviced.  If recovery runs meanwhile, the
        replay already re-enqueued this batch from the ledger into the
        fresh incarnation's ring (or the shard was shed and its ledger
        drained), so the put simply stops.
        """
        incarnation = self.state.workers[worker_id].incarnation
        while self._live(worker_id, incarnation):
            ring = self._data_rings[worker_id]
            slot = ring.try_reserve()
            if slot is not None:
                cpu0 = time.process_time()
                nbytes = encode_frame(
                    slot, self._frame_layout, batch.seq, batch.learn, batch.frame
                )
                ring.commit()
                self.transport.serialize_cpu_seconds += time.process_time() - cpu0
                self.transport.frames += 1
                self.transport.packets += batch.n_packets
                self.transport.bytes_moved += nbytes
                # The queue path pickled on put and unpickled on get.
                self.transport.copies_avoided += 2
                return
            self.transport.ring_full_stalls += 1
            self._service_events()
            time.sleep(0.0005)

    def _put_control(
        self, worker_id: int, message: Any, incarnation: Optional[int] = None
    ) -> bool:
        """Best-effort put of an untracked control message to
        ``incarnation`` (default: the current one).

        Returns False when that incarnation vanished first (shed, or
        respawned by recovery) -- the caller decides what the new
        incarnation should receive instead.
        """
        if incarnation is None:
            incarnation = self.state.workers[worker_id].incarnation
        while self._live(worker_id, incarnation):
            try:
                self._inboxes[worker_id].put(message, timeout=0.2)
                return True
            except queue_module.Full:
                self._service_events()
        return False

    # ------------------------------------------------------------ sync rounds
    def _open_round(self) -> None:
        """Send each live worker a ``SyncRequest`` pinned at its barrier;
        the round is then in flight until :meth:`_finish_round`.

        Every frame a barrier counts is already committed to the worker's
        data ring (dispatch happens before control on this single
        coordinator thread), so the worker can always drain to the barrier
        before replying.
        """
        round_ = self.state.open_round()
        for worker_id, (incarnation, barrier) in round_.candidates.items():
            self._put_control(
                worker_id,
                SyncRequest(round_id=round_.round_id, barrier=barrier),
                incarnation,
            )
        self._dispatches_since_sync = 0

    def _finish_round(self) -> int:
        """Merge the round in flight (waiting for its reports), republish
        and send ``Rebase``; returns the published generation."""
        round_ = self.state.take_round()
        if round_ is None:
            return self.publication.generation
        reports = self._collect(
            DeltaReport, self.state.owed(round_), round_.round_id, on_failure="drop"
        )
        reports = self.state.accept_reports(round_, reports)
        if reports:
            self._merge([report.delta for report in reports])
        generation = self.publication.bump_generation()
        for report in reports:
            self._put_control(
                report.worker_id,
                Rebase(round_id=round_.round_id, generation=generation),
                round_.candidates[report.worker_id][0],
            )
        return generation

    def _merge(self, deltas: List[Any]) -> None:
        """Add worker deltas into the published class matrix."""
        merge_class_deltas(
            self.publication.class_matrix, deltas, self.publication.class_norms
        )
        # Deltas accumulate in the float matrix; the packed 1-bit serving
        # words (if published) are re-derived from the merged result before
        # replicas are told to rebase.
        self.publication.repack()

    # ---------------------------------------------------- failure handling
    def _service_events(self, scan: bool = False) -> None:
        """Coordinator-thread safe point: absorb acks, run pending recovery,
        and merge the sync round in flight once all its reports are in."""
        self._drain_acks()
        if self._watchdog is not None:
            if scan:
                self._watchdog.scan_once()
            for failure in self._watchdog.take_failures():
                self._recover(failure)
        if self.state.round is not None and self.state.round_ready(
            m for m in self._pending if isinstance(m, DeltaReport)
        ):
            self._finish_round()

    def _drain_acks(self) -> None:
        """Absorb ring acks; park outbox reports for their ``_collect``.

        The outbox carries only reports: one racing ahead of its collect
        waits on ``_pending``, in arrival order.
        """
        self._drain_ring_acks()
        while True:
            try:
                self._pending.append(self._outbox.get_nowait())
            except queue_module.Empty:
                return

    def _drain_ring_acks(self) -> None:
        """Absorb every committed ack from every live result ring."""
        for worker_id, ring in enumerate(self._result_rings):
            if ring is None:
                continue
            while True:
                view = ring.try_peek()
                if view is None:
                    break
                payload = decode_ack(view, self._ack_layout)
                ring.release()
                n_preds = len(payload["predictions"] or ())
                self.transport.bytes_moved += (
                    ACK_HEADER.itemsize + n_preds * PRED_DTYPE.itemsize
                )
                self.transport.copies_avoided += 2
                self.state.ack(BatchAck(worker_id=worker_id, **payload))
                self._absorb_predictions(payload["predictions"] or ())

    def _absorb_predictions(self, predictions: Iterable[Any]) -> None:
        for prediction in predictions:
            if prediction.token in self._pred_records:
                # At-least-once redispatch re-scored an already-served flow;
                # first record wins (same model generation => same verdict
                # for offline-mode runs, so which one survives is moot).
                self.state.recovery.duplicates_suppressed += 1
            else:
                self._pred_records[prediction.token] = prediction

    def _recover(self, failure: WorkerFailure) -> None:
        """Carry out the state's decision on a failure: respawn and replay
        the retained batches, or retire the exhausted shard."""
        recovery = self.state.fail(failure)
        if recovery is None:
            return  # stale detection for an incarnation already handled
        if recovery.action != "respawn":
            self._exhaust(recovery)
            return
        if recovery.backoff > 0:
            time.sleep(recovery.backoff)
        record = recovery.record
        worker_id = record.worker_id
        replay = self._respawn(worker_id, record)
        incarnation = self.state.workers[worker_id].incarnation
        for batch in replay:
            if not self.state.is_current(worker_id, incarnation):
                # A nested recovery replayed the ledger itself; hand off.
                break
            self._put_tracked(worker_id, batch)
            record.redispatched_batches += 1
            record.redispatched_packets += batch.n_packets
        record.recovered_at = time.time()

    def _respawn(self, worker_id: int, record: FailureRecord) -> List[PacketBatch]:
        """Fresh incarnation: new control queue + ring pair, reattach to the
        live publication.  Returns the batches the state says to replay.

        The dead incarnation's rings are not reused: a worker killed
        mid-slot leaves its cursors (and possibly a half-read slot) in an
        unknown state, so reclamation means counting the occupied slots,
        unlinking the whole pair, and re-materializing the retained frames
        from the ledger into the fresh incarnation's ring.  The swap happens
        under the supervision lock so the watchdog never pairs the new
        incarnation number with the dead process.
        """
        old_process = self._processes[worker_id]
        old_inbox = self._inboxes[worker_id]
        old_data = self._data_rings[worker_id]
        old_result = self._result_rings[worker_id]
        self._reclaim(worker_id, record)
        with self._lock:
            replay = self.state.respawn(worker_id)
            self._inboxes[worker_id], self._processes[worker_id] = self._spawn(
                worker_id, self.state.workers[worker_id].incarnation
            )
        old_process.join(timeout=5.0)
        # The dead incarnation's queued control messages are unreachable;
        # everything that matters is in the ledger.  Never flush to the dead
        # pipe, and unlink the dead rings only after the process is gone.
        old_inbox.cancel_join_thread()
        old_inbox.close()
        if old_data is not None:
            old_data.close(unlink=True)
        if old_result is not None:
            old_result.close(unlink=True)
        return replay

    def _reclaim(self, worker_id: int, record: FailureRecord) -> None:
        """Absorb every ack a dead worker committed before dying; what is
        left in its data ring is the undrained evidence we reclaim."""
        self._drain_ring_acks()
        ring = self._data_rings[worker_id]
        record.reclaimed_slots = ring.occupancy if ring is not None else 0
        self.transport.reclaimed_slots += record.reclaimed_slots

    def _exhaust(self, recovery: Recovery) -> None:
        """Respawn budget spent: fail over the shard, shed it, or fail fast."""
        record = recovery.record
        worker_id = record.worker_id
        if recovery.action == "raise":
            unacked = self.state.workers[worker_id].unacked_seqs()
            raise ClusterError(
                f"cluster worker {worker_id} died ({record.kind}, exit code "
                f"{record.exitcode}) with no respawn budget left; "
                f"unacked batch seqs: {unacked}"
            )
        # A shed shard's rings are abandoned in place (unlinked at
        # teardown); whatever sat undrained in its data ring is reclaimed
        # accounting-wise here, like the respawn path's.
        self._reclaim(worker_id, record)
        with self._lock:
            batches = self.state.shed(recovery)
        self._failover_router = (
            self.router.excluding(
                [w for w, worker in enumerate(self.state.workers) if worker.shed]
            )
            if record.failed_over
            else None
        )
        for batch in batches:
            # The shard is shed now, so this re-homes the batch.
            self._send_batch(worker_id, batch)
            record.redispatched_batches += 1
            record.redispatched_packets += batch.n_packets
        record.recovered_at = time.time()

    # -------------------------------------------------------------- teardown
    def _abort(self) -> None:
        """Tear the cluster down: reap processes, free shm.

        Ends every run, failed or drained.  Idempotent; safe to call after a
        partial ``shutdown``.  Uses SIGKILL: workers ignore SIGTERM by
        design (shutdown is normally the coordinator's message-driven
        decision).
        """
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        for process in self._processes:
            if process.is_alive():
                process.kill()
        for process in self._processes:
            process.join(timeout=5.0)
        for inbox in self._inboxes:
            # Queued batches would otherwise block the feeder thread at
            # interpreter exit, flushing into pipes nobody will ever read.
            try:
                inbox.cancel_join_thread()
                inbox.close()
            except (OSError, ValueError):  # pragma: no cover - already closed
                pass
        if self.publication is not None:
            self.publication.close()
            self.publication = None
        if self.prefilter_publication is not None:
            self.prefilter_publication.close()
            self.prefilter_publication = None
        self._close_rings()
        self._processes = []
        self._inboxes = []
        self._started = False

    # ------------------------------------------------------------ collection
    def _collect(
        self,
        kind,
        expected: Dict[int, int],
        round_id: Optional[int],
        on_failure: str = "drop",
    ) -> List[Any]:
        """Gather one ``kind`` report per expected worker incarnation.

        ``expected`` maps worker id -> incarnation owing the report.  Ring
        acks keep draining while it waits.  When an expected worker
        fails first, recovery runs and the collect adapts by ``on_failure``:

        ``"drop"``
            Quorum mode (sync rounds): stop expecting the report; the round
            proceeds with the survivors.
        ``"restop"``
            Drain mode (shutdown): send ``Stop`` to the respawned
            incarnation and await *its* report instead; a shed worker is
            dropped and its summary synthesized from acks.

        Any not-alive worker still owing a report is treated as dead no
        matter its exit code -- a clean-but-premature exit would otherwise
        spin this loop forever.  One extra empty poll of grace lets a dead
        worker's already-sent report finish crossing the queue feeder.
        """
        results: Dict[int, Any] = {}
        misses: Dict[int, int] = {}
        while len(results) < len(expected):
            message = self._next_message()
            if message is None:
                self._service_events()
                self._check_expected(expected, results, misses, on_failure)
                continue
            if not isinstance(message, kind):
                if isinstance(message, DeltaReport) and kind is FinalReport:
                    # A delta a worker sent just before dying in an aborted
                    # quorum round; its incarnation is gone, drop it.
                    continue
                raise ClusterError(
                    f"expected {kind.__name__}, got {type(message).__name__}"
                )
            if round_id is not None and message.round_id != round_id:
                if message.round_id < round_id:
                    continue  # stale report from a crashed incarnation
                raise ClusterError(
                    f"round mismatch: expected {round_id}, got {message.round_id}"
                )
            worker_id = (
                message.summary.worker_id
                if isinstance(message, FinalReport)
                else message.worker_id
            )
            if worker_id in expected and worker_id not in results:
                results[worker_id] = message
        return [results[worker_id] for worker_id in sorted(results)]

    def _next_message(self) -> Optional[Any]:
        if self._pending:
            return self._pending.popleft()
        # Keep result rings draining while blocked on the control outbox: a
        # worker mid-drain fills its ack ring far faster than it sends
        # reports, and a full ring would stall it for the poll timeout.
        self._drain_ring_acks()
        try:
            return self._outbox.get(timeout=0.05)
        except queue_module.Empty:
            return None

    def _check_expected(
        self,
        expected: Dict[int, int],
        results: Dict[int, Any],
        misses: Dict[int, int],
        on_failure: str,
    ) -> None:
        for worker_id, incarnation in list(expected.items()):
            if worker_id in results:
                continue
            if not self.state.is_current(worker_id, incarnation):
                # Shed, or recovery replaced the incarnation we waited on.
                if on_failure == "drop" or self.state.workers[worker_id].shed:
                    expected.pop(worker_id)
                elif self._send_stop(worker_id):
                    expected[worker_id] = self.state.workers[worker_id].incarnation
                continue
            process = self._processes[worker_id]
            if process.is_alive():
                misses.pop(worker_id, None)
                continue
            misses[worker_id] = misses.get(worker_id, 0) + 1
            if misses[worker_id] < 2:
                continue  # grace poll: its report may still be in the feeder
            misses.pop(worker_id, None)
            self._recover(
                WorkerFailure(
                    worker_id=worker_id,
                    kind="crash",
                    incarnation=incarnation,
                    detected_at=time.time(),
                    exitcode=process.exitcode,
                )
            )
