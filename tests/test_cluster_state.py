"""The coordinator's pure decision core, driven without processes.

A hypothesis state machine runs :class:`ClusterState` through dispatch,
ack, sync rounds (open, report, finish), kill, respawn and exhaust, against
a small reference of what each worker incarnation was sent, what it
released and what each round merged.  The invariants:

* every dispatched batch is released by an ack of the incarnation that
  owned it, retained by exactly one live incarnation, or counted as shed;
* no report is accepted twice, or from a dead incarnation, and every
  report a live asked incarnation sent is accepted;
* ``synced_through`` never decreases within an incarnation;
* a respawn (or failover) replays the retained batches, with ``learn=True``
  exactly on those no accepted barrier has merged yet.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.cluster.state as state_module
from repro.cluster.state import ClusterState
from repro.cluster.supervision import RetryPolicy, WorkerFailure
from repro.cluster.worker import BatchAck, PacketBatch

N_WORKERS = 2


@dataclass(frozen=True)
class _Frame:
    n_packets: int = 2


@dataclass(frozen=True)
class _Report:
    """A delta report, tagged with the incarnation that sent it."""

    worker_id: int
    round_id: int
    incarnation: int


class ClusterStateMachine(RuleBasedStateMachine):
    @initialize(
        max_respawns=st.integers(0, 2),
        on_exhausted=st.sampled_from(["shed", "failover", "raise"]),
    )
    def setup(self, max_respawns, on_exhausted):
        self._start(RetryPolicy(max_respawns=max_respawns, on_exhausted=on_exhausted))

    def _start(self, policy):
        """A fresh cluster (also after a fail-fast abort)."""
        self.state = ClusterState(N_WORKERS, policy)
        self.next_seq = 0
        # Reference, per worker slot (current incarnation only).
        self.incarnation = [0] * N_WORKERS
        self.respawns = [0] * N_WORKERS
        self.shed = [False] * N_WORKERS
        self.sent = [[] for _ in range(N_WORKERS)]  # index -> batch
        self.watermark = [0] * N_WORKERS
        self.acked = [0] * N_WORKERS
        #: The barrier of the current incarnation's last accepted report.
        self.barrier = [0] * N_WORKERS
        # Fates of every dispatched seq.
        self.dispatched = set()
        self.released = set()
        self.dropped = set()
        #: Seqs whose updates are in the published model.
        self.merged = set()
        self.round = None  # {"id", "asked": {w: (inc, barrier)}, "sent": [...]}
        self.old_reports = []
        self.round_ids = []
        self.synced = {}

    # --------------------------------------------------------------- helpers
    def _live(self):
        return [w for w in range(N_WORKERS) if not self.shed[w]]

    def _expect_replay(self, w, batches):
        """``batches`` are worker ``w``'s retained suffix, learning exactly
        where no accepted barrier merged them yet."""
        expected = self.sent[w][self.watermark[w] :]
        assert [b.seq for b in batches] == [b.seq for b in expected]
        for batch in batches:
            assert batch.learn == (batch.seq not in self.merged)

    def _dispatch_to(self, w, batch):
        index = self.state.dispatch(w, batch)
        assert index == len(self.sent[w])
        self.sent[w].append(batch)

    # ----------------------------------------------------------------- rules
    @rule(w=st.integers(0, N_WORKERS - 1))
    def dispatch(self, w):
        batch = PacketBatch(seq=self.next_seq, frame=_Frame())
        self.next_seq += 1
        self.dispatched.add(batch.seq)
        if not self.shed[w]:
            self._dispatch_to(w, batch)
            return
        assert self.state.dispatch(w, batch) is None
        live = self._live()
        if self.state.policy.on_exhausted == "failover" and live:
            self._dispatch_to(live[0], batch)  # the failover ring re-homes it
        else:
            self.state.drop(batch)
            self.dropped.add(batch.seq)

    @rule(w=st.integers(0, N_WORKERS - 1), data=st.data())
    def ack(self, w, data):
        if self.shed[w] or self.acked[w] >= len(self.sent[w]):
            return
        index = self.acked[w]
        watermark = data.draw(st.integers(self.watermark[w], index + 1))
        self.state.ack(
            BatchAck(
                worker_id=w,
                seq=self.sent[w][index].seq,
                index=index,
                watermark=watermark,
                packets=2,
                flows=1,
                alerts=0,
            )
        )
        for batch in self.sent[w][self.watermark[w] : watermark]:
            assert batch.seq not in self.released
            self.released.add(batch.seq)
        self.acked[w] = index + 1
        self.watermark[w] = watermark

    @precondition(lambda self: self.round is None)
    @rule()
    def open_round(self):
        round_ = self.state.open_round()
        assert round_.round_id not in self.round_ids
        assert round_.candidates == {
            w: (self.incarnation[w], len(self.sent[w])) for w in self._live()
        }
        self.round = {"id": round_.round_id, "asked": dict(round_.candidates), "sent": []}

    @precondition(lambda self: self.round is not None and self.round["asked"])
    @rule(data=st.data())
    def report(self, data):
        """An asked incarnation reports -- possibly after it died -- or a
        report already sent is delivered again."""
        asked = self.round["asked"]
        w = data.draw(st.sampled_from(sorted(asked)))
        self.round["sent"].append(_Report(w, self.round["id"], asked[w][0]))

    @precondition(lambda self: self.round is not None)
    @rule(data=st.data())
    def finish_round(self, data):
        asked = self.round["asked"]
        live_asked = {
            w: inc
            for w, (inc, _) in asked.items()
            if not self.shed[w] and self.incarnation[w] == inc
        }
        assert self.state.owed(self.state.round) == live_asked
        reports = self.round["sent"] + data.draw(
            st.lists(st.sampled_from(self.old_reports), max_size=3)
            if self.old_reports
            else st.just([])
        )
        ready = {r.worker_id for r in reports if r.round_id == self.round["id"]}
        assert self.state.round_ready(reports) == ready.issuperset(live_asked)
        round_ = self.state.take_round()
        accepted = self.state.accept_reports(round_, reports)
        workers = [r.worker_id for r in accepted]
        assert len(workers) == len(set(workers)), "a report was accepted twice"
        for report in accepted:
            assert report.round_id == self.round["id"]
            assert live_asked.get(report.worker_id) == report.incarnation, (
                "accepted a report from a dead incarnation"
            )
        sent_live = {r.worker_id for r in self.round["sent"]} & set(live_asked)
        assert set(workers) == sent_live
        for w in workers:
            self.barrier[w] = asked[w][1]
            self.merged.update(b.seq for b in self.sent[w][: self.barrier[w]])
        self.round_ids.append(self.round["id"])
        self.old_reports += self.round["sent"]
        self.round = None

    @rule(w=st.integers(0, N_WORKERS - 1))
    def kill(self, w):
        if self.shed[w]:
            return
        failure = WorkerFailure(w, "crash", self.incarnation[w], 0.0)
        recovery = self.state.fail(failure)
        policy = self.state.policy
        if self.respawns[w] < policy.max_respawns:
            assert recovery.action == "respawn"
            self.respawns[w] += 1
            replay = self.state.respawn(w)
            # A second detection of the dead incarnation is stale.
            assert self.state.fail(failure) is None
            self._expect_replay(w, replay)
            self.incarnation[w] += 1
            self.sent[w], self.watermark[w], self.acked[w] = list(replay), 0, 0
            self.barrier[w] = 0
            return
        if policy.on_exhausted == "raise":
            assert recovery.action == "raise"
            self._start(policy)  # the coordinator aborts the cluster
            return
        survivors = [v for v in self._live() if v != w]
        assert recovery.action == (
            "failover" if policy.on_exhausted == "failover" and survivors else "shed"
        )
        batches = self.state.shed(recovery)
        if recovery.action == "shed":
            assert batches == []
            self.dropped.update(b.seq for b in self.sent[w][self.watermark[w] :])
        else:
            self._expect_replay(w, batches)
        self.shed[w] = True
        self.sent[w], self.watermark[w], self.acked[w] = [], 0, 0
        for batch in batches:
            self._dispatch_to(survivors[0], batch)

    # ------------------------------------------------------------ invariants
    @invariant()
    def every_batch_is_released_retained_once_or_shed(self):
        if not hasattr(self, "state"):
            return
        retained = []
        for w, record in enumerate(self.state.workers):
            assert record.incarnation == self.incarnation[w]
            assert record.shed == self.shed[w]
            entries = list(record.entries)
            assert [i for i, _ in entries] == list(
                range(self.watermark[w], len(self.sent[w]))
            )
            assert [b.seq for _, b in entries] == [
                b.seq for b in self.sent[w][self.watermark[w] :]
            ]
            retained += [b.seq for _, b in entries]
        assert len(retained) == len(set(retained))
        fates = [set(retained), self.released, self.dropped]
        assert sum(len(f) for f in fates) == len(self.dispatched)
        assert set().union(*fates) == self.dispatched
        assert self.state.recovery.shed_batches == len(self.dropped)

    @invariant()
    def synced_through_never_decreases_within_an_incarnation(self):
        if not hasattr(self, "state"):
            return
        for w, record in enumerate(self.state.workers):
            key = (w, record.incarnation)
            assert record.synced_through >= self.synced.get(key, 0)
            self.synced[key] = record.synced_through
            if not record.shed:
                assert record.synced_through == self.barrier[w]


def test_cluster_state_machine():
    run_state_machine_as_test(
        ClusterStateMachine,
        settings=settings(max_examples=400, stateful_step_count=40, deadline=None),
    )


def test_state_module_does_no_io():
    """The decision core imports no processes, threads, clock, shared
    memory or ring code."""
    tree = ast.parse(Path(state_module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    forbidden = {
        "multiprocessing",
        "threading",
        "time",
        "queue",
        "multiprocessing.shared_memory",
        "repro.cluster.ring",
        "repro.cluster.shared_model",
        "repro.cluster.worker",
    }
    assert not imported & forbidden
