"""The cluster coordinator's decisions, as a pure state machine.

:class:`ClusterState` holds everything supervision and the sync rounds
decide with -- one :class:`WorkerRecord` per worker slot, the round in
flight and the :class:`~repro.cluster.supervision.RecoveryStats` -- and
returns each decision: the index of a dispatch, the barrier of each worker
when a round opens, the reports a round still owes and the ones it accepts,
what to do about a failure, what a respawned worker replays and what a shed
shard leaves behind.  It performs no I/O -- no processes, queues, rings,
shared memory, threads or clock; time arrives as data (a failure carries
its detection time).  :class:`~repro.cluster.coordinator.ClusterCoordinator`
is the shell that carries the decisions out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.cluster.supervision import (
    FailureRecord,
    RecoveryStats,
    RetryPolicy,
    WorkerFailure,
)
from repro.exceptions import ConfigurationError


@dataclass
class WorkerRecord:
    """What the coordinator knows about one worker slot's live incarnation.

    ``entries`` is the incarnation's batch ledger: ``(index, batch)`` pairs
    in dispatch order (the ring is FIFO, so the worker serves them in
    exactly that order).  An entry is retained until **both** hold:

    * the worker acked it (its index is below ``acked``), and
    * no open flow needs it (its index is below ``watermark``: the minimum
      first-batch index over the worker's still-active flows).

    The retained entries are therefore exactly what a respawned worker must
    re-serve for flow-exact recovery, and :meth:`unacked` is the subset the
    dead worker never finished -- the at-least-once obligation.
    """

    incarnation: int = 0
    #: Respawns spent on this slot, carried across incarnations.
    respawns: int = 0
    shed: bool = False
    #: ``Stop`` was delivered, so the process exiting is not a failure.
    expected_exit: bool = False
    #: Dispatch index below which this incarnation's updates are merged;
    #: a replay of those batches must not learn them again.
    synced_through: int = 0
    #: Work this incarnation acked -- the surviving evidence if it dies.
    packets: int = 0
    flows: int = 0
    alerts: int = 0
    entries: Deque[Tuple[int, Any]] = field(default_factory=deque)
    dispatched: int = 0
    acked: int = 0
    watermark: int = 0

    @property
    def outstanding(self) -> int:
        """Dispatched-but-unacked batch count."""
        return self.dispatched - self.acked

    def unacked(self) -> List[Tuple[int, Any]]:
        """Retained entries the worker never acked."""
        return [(i, b) for i, b in self.entries if i >= self.acked]

    def unacked_seqs(self) -> List[int]:
        """Global dispatch seqs of the unacked batches (for diagnostics)."""
        return [batch.seq for _, batch in self.unacked()]

    def retained(self) -> List[Any]:
        """The retained batches to serve again elsewhere; those below
        ``synced_through`` are already merged and carry ``learn=False``."""
        return [
            replace(batch, learn=False) if index < self.synced_through and batch.learn
            else batch
            for index, batch in self.entries
        ]


@dataclass(frozen=True)
class SyncRound:
    """A sync round in flight: per worker that was asked, the
    ``(incarnation, barrier)`` it was asked at."""

    round_id: int
    candidates: Dict[int, Tuple[int, int]]


@dataclass(frozen=True)
class Recovery:
    """The decision on one failure: ``"respawn"`` after ``backoff`` seconds,
    or, with the respawn budget spent, ``"shed"``, ``"failover"`` or
    ``"raise"``."""

    action: str
    record: FailureRecord
    backoff: float = 0.0


class ClusterState:
    """Per-worker records, the round in flight and recovery accounting."""

    def __init__(self, n_workers: int, policy: Optional[RetryPolicy] = None):
        if n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        self.policy = (policy or RetryPolicy()).validate()
        self.workers = [WorkerRecord() for _ in range(n_workers)]
        self.round: Optional[SyncRound] = None
        self.sync_rounds = 0
        self.recovery = RecoveryStats()

    def live_workers(self) -> List[int]:
        """Worker ids whose shard is not shed."""
        return [w for w, record in enumerate(self.workers) if not record.shed]

    def is_current(self, worker_id: int, incarnation: int) -> bool:
        """Whether ``incarnation`` is still the slot's live, unshed one."""
        record = self.workers[worker_id]
        return not record.shed and record.incarnation == incarnation

    # ------------------------------------------------------ dispatch and ack
    def dispatch(self, worker_id: int, batch: Any) -> Optional[int]:
        """Retain a batch sent to ``worker_id``; returns its per-incarnation
        index, or ``None`` when the shard is shed (re-home or drop it)."""
        record = self.workers[worker_id]
        if record.shed:
            return None
        index = record.dispatched
        record.dispatched += 1
        record.entries.append((index, batch))
        while len(record.entries) > self.policy.max_retained_batches:
            record.entries.popleft()
            self.recovery.ledger_evictions += 1
        return index

    def ack(self, ack: Any) -> None:
        """Apply one :class:`~repro.cluster.worker.BatchAck`: advance the
        acked count, prune to the watermark, add to the tallies."""
        record = self.workers[ack.worker_id]
        record.acked = max(record.acked, ack.index + 1)
        record.watermark = max(record.watermark, ack.watermark)
        while record.entries and record.entries[0][0] < record.watermark:
            record.entries.popleft()
        record.packets += ack.packets
        record.flows += ack.flows
        record.alerts += ack.alerts

    def drop(self, batch: Any) -> None:
        """Count one batch of a shed shard as lost."""
        self.recovery.shed_batches += 1
        self.recovery.shed_packets += batch.n_packets

    # ------------------------------------------------------------ sync rounds
    def open_round(self) -> SyncRound:
        """Start a round; its candidates carry each live worker's barrier
        (its dispatch count: the consistent cut its delta must cover)."""
        assert self.round is None, "a sync round is already in flight"
        candidates = {
            w: (r.incarnation, r.dispatched) for w, r in enumerate(self.workers) if not r.shed
        }
        self.round = SyncRound(self.sync_rounds, candidates)
        return self.round

    def take_round(self) -> Optional[SyncRound]:
        """Detach the round in flight so it can be finished."""
        round_, self.round = self.round, None
        return round_

    def owed(self, round_: SyncRound) -> Dict[int, int]:
        """Worker -> incarnation of the candidates that still owe a report.

        A candidate respawned or shed since the request owes nothing: its
        dead incarnation's delta is never merged.
        """
        return {
            w: incarnation
            for w, (incarnation, _) in round_.candidates.items()
            if self.is_current(w, incarnation)
        }

    def round_ready(self, reports: Iterable[Any]) -> bool:
        """Whether ``reports`` cover every report the round in flight owes."""
        round_id = self.round.round_id
        reported = {r.worker_id for r in reports if r.round_id == round_id}
        return reported.issuperset(self.owed(self.round))

    def accept_reports(self, round_: SyncRound, reports: Iterable[Any]) -> List[Any]:
        """Finish ``round_``: the reports to merge, one per worker whose
        asked incarnation is still live.

        A delta from an incarnation respawned since is dropped: the respawn
        replays its unsynced batches with learning on, so merging the dead
        incarnation's delta too would double-count.  Everything an accepted
        worker was dispatched before its barrier is now in the published
        model, so its ``synced_through`` moves up to the barrier.
        """
        owed = self.owed(round_)
        accepted: Dict[int, Any] = {}
        for report in reports:
            if report.round_id == round_.round_id and report.worker_id in owed:
                accepted.setdefault(report.worker_id, report)
        for w in accepted:
            self.workers[w].synced_through = round_.candidates[w][1]
        if len(accepted) < len(self.live_workers()):
            self.recovery.quorum_rounds += 1
        self.sync_rounds += 1
        return list(accepted.values())

    # --------------------------------------------------------------- recovery
    def fail(self, failure: WorkerFailure) -> Optional[Recovery]:
        """Decide what to do about a detected failure; ``None`` when it is
        stale (an incarnation already respawned or shed)."""
        record = self.workers[failure.worker_id]
        if not self.is_current(failure.worker_id, failure.incarnation):
            return None
        failed = FailureRecord(
            **vars(failure),
            acked_packets=record.packets,
            acked_flows=record.flows,
            acked_alerts=record.alerts,
        )
        self.recovery.failures.append(failed)
        attempts = record.respawns
        if attempts < self.policy.max_respawns:
            record.respawns += 1
            failed.respawned = True
            backoff = min(self.policy.respawn_backoff * (2**attempts), 5.0)
            return Recovery("respawn", failed, backoff)
        action = self.policy.on_exhausted
        if action == "failover" and self.live_workers() == [failure.worker_id]:
            action = "shed"  # no survivor to fail over to
        return Recovery(action, failed)

    def respawn(self, worker_id: int) -> List[Any]:
        """Start the slot's next incarnation; returns the batches it replays.

        Retention reaches down to the dead worker's last acked watermark, so
        every flow it had not classified yet is rebuilt packet-for-packet
        (see :meth:`WorkerRecord.retained` for the ``learn`` flags).  The
        replay is the new incarnation's first dispatches, indexed from 0.
        """
        old = self.workers[worker_id]
        batches = old.retained()
        self.workers[worker_id] = WorkerRecord(
            incarnation=old.incarnation + 1,
            respawns=old.respawns,
            entries=deque(enumerate(batches)),
            dispatched=len(batches),
        )
        return batches

    def shed(self, recovery: Recovery) -> List[Any]:
        """Retire an exhausted shard; returns the batches to re-home on the
        survivors (failover), or drops them and returns none."""
        record = recovery.record
        worker = self.workers[record.worker_id]
        worker.shed = True
        batches = worker.retained()
        worker.entries.clear()
        worker.acked = worker.dispatched
        record.failed_over = recovery.action == "failover"
        record.shed = not record.failed_over
        if record.failed_over:
            return batches
        for batch in batches:
            self.drop(batch)
        return []

    def shed_tally(self, worker_id: int) -> Dict[str, int]:
        """A shed worker's summary counts, from what its incarnations acked
        before they died (it never files a report of its own)."""
        failures = [f for f in self.recovery.failures if f.worker_id == worker_id]
        return {
            key: sum(getattr(f, f"acked_{key}") for f in failures)
            for key in ("packets", "flows", "alerts")
        }


__all__ = ["ClusterState", "Recovery", "SyncRound", "WorkerRecord"]
