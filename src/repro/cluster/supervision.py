"""Cluster supervision: heartbeats, the watchdog and the retry policy.

PR 5 proved the *model* half of the paper's robustness claim (recall stays
flat through serving-time bit flips); this module is the *process* half.  A
worker death used to be fatal -- the coordinator raised and SIGKILLed the
whole cluster, losing every in-flight batch.  Supervision turns it into a
measured, recoverable event built from three pieces:

* **Heartbeats** -- every worker stamps a wall-clock liveness slot in a
  shared array on each message-loop iteration (including idle polls and
  after each processed batch).  A :class:`Watchdog` thread on the
  coordinator scans the slots: a dead process is a *crash*, a live process
  with a stale heartbeat is a *hang* (the watchdog SIGKILLs it so both
  failure modes converge to "dead, needs respawn").
* **The batch ledger** -- every dispatched
  :class:`~repro.cluster.worker.PacketBatch` is retained in its worker's
  :class:`~repro.cluster.state.WorkerRecord` until the worker acks it *and*
  no still-open flow needs it.  Workers ship a per-batch ack carrying a
  **watermark**: the lowest dispatch index that still contributes packets
  to a flow open in their flow table.  Retaining down to the watermark is
  what makes recovery *flow-exact*: a respawned worker replays every packet
  of every flow that had not been classified yet, so re-assembled flows are
  bit-identical to uninterrupted assembly (at-least-once redispatch;
  already-classified flows that ride along are deduplicated by the
  coordinator).
* **The retry policy** (:class:`RetryPolicy`) -- how long a heartbeat may
  go stale, how many times a worker slot is respawned, and what happens
  when respawns are exhausted: shed that shard's load with drop accounting
  (the default -- degrade, don't abort), fail over its keyspace to the
  surviving shards, or fail fast with the unacked seqs named.

The decisions themselves live in :class:`repro.cluster.state.ClusterState`.
``docs/robustness.md`` ("Process faults and chaos testing") documents the
fault matrix and the recovery guarantees; :mod:`repro.cluster.chaos` is the
scripted fault injector that proves them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ClusterError, ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """How the coordinator detects and recovers from worker failure.

    Attributes
    ----------
    heartbeat_interval:
        Worker stamp cadence: the inbox poll timeout, so an *idle* worker
        still stamps at this rate.  A busy worker stamps around every
        processed batch.
    heartbeat_timeout:
        Heartbeat age beyond which a live worker is declared hung and
        SIGKILLed.  Must exceed the worst-case single-batch processing
        time, or healthy-but-slow workers get shot.
    check_interval:
        Watchdog scan cadence (the detection-latency bound for crashes).
    max_respawns:
        Respawn budget *per worker slot*.  ``0`` disables respawning:
        the first failure goes straight to the exhaustion behaviour.
    respawn_backoff:
        Base seconds slept before a respawn; doubles per attempt on the
        same slot (a crash-looping replica should not spin the host).
    max_retained_batches:
        Ledger retention bound per worker.  A pathological flow that never
        closes would otherwise pin the whole stream in memory; beyond the
        bound the oldest batch is evicted (counted -- evicted batches are
        no longer replayable, so a crash loses their open-flow packets).
    on_exhausted:
        What happens once the respawn budget is spent.  ``"shed"`` drops
        the dead shard's load through drop accounting and keeps serving the
        survivors.  ``"failover"`` re-homes its keyspace onto the surviving
        workers (``ShardRouter.excluding``); the cluster then runs without
        shard guards (the coordinator arranges that at start), and mid-life
        flows of the dead shard restart their statistics on the new owner,
        so this trades per-flow fidelity for coverage.  ``"raise"`` is the
        pre-supervision fail-fast behaviour, naming the unacked seqs.
    """

    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 10.0
    check_interval: float = 0.1
    max_respawns: int = 2
    respawn_backoff: float = 0.05
    max_retained_batches: int = 1024
    on_exhausted: str = "shed"

    def validate(self) -> "RetryPolicy":
        """Check parameter ranges and return ``self``."""
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ConfigurationError(
                "heartbeat_timeout must exceed heartbeat_interval"
            )
        if self.check_interval <= 0:
            raise ConfigurationError("check_interval must be positive")
        if self.max_respawns < 0:
            raise ConfigurationError("max_respawns must be non-negative")
        if self.respawn_backoff < 0:
            raise ConfigurationError("respawn_backoff must be non-negative")
        if self.max_retained_batches < 1:
            raise ConfigurationError("max_retained_batches must be >= 1")
        if self.on_exhausted not in ("shed", "failover", "raise"):
            raise ConfigurationError(
                f"on_exhausted must be 'shed', 'failover' or 'raise', "
                f"not {self.on_exhausted!r}"
            )
        return self


@dataclass
class WorkerFailure:
    """One detected failure of one worker incarnation."""

    worker_id: int
    #: ``"crash"`` (process died) or ``"hang"`` (stale heartbeat; the
    #: watchdog SIGKILLed it).
    kind: str
    #: The incarnation the failure belongs to; recovery for a stale
    #: incarnation (already respawned) is a no-op.
    incarnation: int
    detected_at: float
    exitcode: Optional[int] = None
    heartbeat_age: float = 0.0


@dataclass
class FailureRecord(WorkerFailure):
    """A failure plus what recovery did about it (the report-side view)."""

    recovered_at: Optional[float] = None
    respawned: bool = False
    shed: bool = False
    failed_over: bool = False
    redispatched_batches: int = 0
    redispatched_packets: int = 0
    #: What the dead incarnation had acked before it died (its summary died
    #: with it; these tallies are the surviving evidence of its work).
    acked_packets: int = 0
    acked_flows: int = 0
    acked_alerts: int = 0
    #: Data-ring slots the dead incarnation left occupied (committed but
    #: never released); reclaimed when its ring is torn down at respawn/shed.
    reclaimed_slots: int = 0

    @property
    def recovery_seconds(self) -> Optional[float]:
        """Detection-to-recovery latency (None when never recovered)."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.detected_at

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view."""
        return {**asdict(self), "recovery_seconds": self.recovery_seconds}


@dataclass
class RecoveryStats:
    """Aggregate recovery accounting for one cluster run."""

    failures: List[FailureRecord] = field(default_factory=list)
    #: Captured predictions whose flow token had already been recorded
    #: (at-least-once redispatch re-scores flows that were classified just
    #: before the crash; the coordinator keeps the first record).
    duplicates_suppressed: int = 0
    #: Ledger evictions forced by ``max_retained_batches``.
    ledger_evictions: int = 0
    shed_batches: int = 0
    shed_packets: int = 0
    #: Sync rounds that proceeded without every worker's delta.
    quorum_rounds: int = 0

    @property
    def total_respawns(self) -> int:
        """Respawns performed across all workers."""
        return sum(1 for f in self.failures if f.respawned)

    @property
    def total_redispatched_batches(self) -> int:
        """Batches re-enqueued after failures."""
        return sum(f.redispatched_batches for f in self.failures)

    @property
    def total_redispatched_packets(self) -> int:
        """Packets re-enqueued after failures."""
        return sum(f.redispatched_packets for f in self.failures)

    @property
    def unrecovered_batches(self) -> int:
        """Batches lost to load shedding (recovery exhausted, no failover)."""
        return self.shed_batches

    @property
    def max_recovery_seconds(self) -> float:
        """Worst detection-to-recovery latency (0 when nothing recovered)."""
        latencies = [
            f.recovery_seconds for f in self.failures if f.recovery_seconds is not None
        ]
        return max(latencies) if latencies else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view."""
        return {
            "failures": [f.to_dict() for f in self.failures],
            "total_respawns": self.total_respawns,
            "total_redispatched_batches": self.total_redispatched_batches,
            "total_redispatched_packets": self.total_redispatched_packets,
            "duplicates_suppressed": self.duplicates_suppressed,
            "ledger_evictions": self.ledger_evictions,
            "shed_batches": self.shed_batches,
            "shed_packets": self.shed_packets,
            "unrecovered_batches": self.unrecovered_batches,
            "quorum_rounds": self.quorum_rounds,
            "max_recovery_seconds": self.max_recovery_seconds,
        }


class Watchdog:
    """Coordinator-side failure detector running on its own thread.

    The watchdog only *detects*: it scans worker processes and heartbeat
    slots every ``policy.check_interval`` seconds, records one
    :class:`WorkerFailure` per (worker, incarnation), and SIGKILLs hung
    workers so both failure kinds converge to "dead".  Recovery (respawn,
    redispatch, shed) stays on the coordinator thread, which drains
    :meth:`take_failures` at its dispatch/collect safe points -- a single
    mutator for queues and the ledger.  A scan that faults stops the thread,
    and :meth:`take_failures` raises the fault from then on: a detector
    that cannot scan must not leave the cluster silently blind.

    ``snapshot`` is a coordinator-provided callable returning the current
    ``(worker_id, incarnation, process, expected_exit, heartbeat)`` rows
    under the coordinator's lock, so the watchdog never reads torn state
    mid-respawn.
    """

    def __init__(
        self,
        snapshot: Callable[[], List[Tuple[int, int, Any, bool, float]]],
        policy: RetryPolicy,
        clock: Callable[[], float] = time.time,
    ):
        self._snapshot = snapshot
        self.policy = policy
        self._clock = clock
        self._failures: List[WorkerFailure] = []
        self._flagged: set = set()
        self._fault: Optional[Exception] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------- API
    def start(self) -> None:
        """Launch the scan thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-cluster-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the scan thread (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def scan_once(self) -> None:
        """One detection pass (also called inline by coordinator checks)."""
        now = self._clock()
        for worker_id, incarnation, process, expected_exit, stamp in self._snapshot():
            key = (worker_id, incarnation)
            with self._lock:
                if key in self._flagged:
                    continue
            if not process.is_alive():
                # Any not-alive worker is dead no matter the exit code: a
                # clean-but-premature exit (code 0) still owes messages, and
                # waiting for them would spin forever.  Expected exits
                # (Stop was delivered) are the coordinator's to verify
                # against the report it is draining.
                if expected_exit:
                    continue
                kind, age = "crash", 0.0
            else:
                age = now - stamp
                if age <= self.policy.heartbeat_timeout:
                    continue
                # A hung worker cannot be reasoned with (it ignores SIGTERM
                # by design); killing it converts the hang into a crash the
                # recovery machinery already handles.
                process.kill()
                kind = "hang"
            failure = WorkerFailure(
                worker_id, kind, incarnation, now, process.exitcode, age
            )
            with self._lock:
                if key not in self._flagged:
                    self._flagged.add(key)
                    self._failures.append(failure)

    def take_failures(self) -> List[WorkerFailure]:
        """Drain the detected-failure queue (coordinator safe points).

        Raises :class:`ClusterError` once the scan thread has faulted.
        """
        with self._lock:
            if self._fault is not None:
                raise ClusterError(
                    f"the cluster watchdog stopped: {self._fault!r}"
                ) from self._fault
            failures, self._failures = self._failures, []
        return failures

    # ------------------------------------------------------------- internals
    def _run(self) -> None:
        try:
            while not self._stop.wait(self.policy.check_interval):
                self.scan_once()
        except Exception as exc:
            with self._lock:
                self._fault = exc


__all__ = [
    "FailureRecord",
    "RecoveryStats",
    "RetryPolicy",
    "Watchdog",
    "WorkerFailure",
]
