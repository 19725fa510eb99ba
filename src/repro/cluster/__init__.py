"""Sharded multi-worker cluster serving.

The layer above the single-process serving engine: the flow->alert path runs
as N worker processes, each a complete pipeline replica attached zero-copy to
a shared-memory model publication, with flows sharded by their canonical
5-tuple so every flow's state lives on exactly one worker.  Online learning
works across the cluster because HDC class vectors aggregate additively:
per-worker ``partial_fit`` deltas merge exactly (``repro.hdc.backend.
merge_class_deltas``) and the merged model is republished to every replica.

``router``
    :class:`ShardRouter` -- process-stable consistent hashing of the
    bidirectional flow key onto the worker ring.

``shared_model``
    :class:`ModelPublication` / :class:`AttachedPublication` -- the
    encoder-projection and class-vector tensors in
    ``multiprocessing.shared_memory``, with a republish generation counter.

``worker``
    :class:`WorkerRuntime` and the process entry point: shard-guarded flow
    table, full stage chain, private-replica online learning, delta
    reporting.

``coordinator``
    :class:`ClusterCoordinator` -- dispatch, sync rounds (collect deltas,
    merge, republish), graceful drain, aggregate reporting.

``supervision``
    The self-healing layer: heartbeat watchdog, :class:`RetryPolicy`,
    failure and recovery accounting.

``state``
    :class:`ClusterState` -- the coordinator's pure decision core: one
    record per worker (incarnation, batch ledger, ``synced_through``, ack
    tallies), sync-round barriers and report acceptance, and the
    respawn/replay/shed recovery decisions.

``chaos``
    Scripted SIGKILL/hang/delay/exit fault schedules injected mid-replay,
    measured against the golden trace (``bench --suite chaos``).

``loadgen``
    The scenario library (DDoS burst, port-scan sweep, low-and-slow
    exfiltration, gradual drift, mixed benign) behind ``bench --suite
    cluster`` and ``serve --scenario``.

See ``docs/cluster.md`` for the topology and the delta-merge semantics.
"""

from repro.cluster.chaos import (
    ChaosEvent,
    ChaosInjector,
    ChaosRunResult,
    ChaosSchedule,
    InjectionRecord,
    default_chaos_policy,
    run_chaos_replay,
)
from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator, ClusterReport
from repro.cluster.loadgen import (
    SCENARIOS,
    LoadScenario,
    ScenarioPhase,
    compile_scenario_trace,
    get_scenario,
    interpolate_profile,
    scenario_names,
)
from repro.cluster.router import ShardRouter, flow_key_token, stable_hash64
from repro.cluster.shared_model import (
    AttachedPublication,
    ModelPublication,
    PublicationSpec,
)
from repro.cluster.state import ClusterState, WorkerRecord
from repro.cluster.supervision import (
    FailureRecord,
    RecoveryStats,
    RetryPolicy,
    Watchdog,
    WorkerFailure,
)
from repro.cluster.worker import WorkerConfig, WorkerRuntime, WorkerSummary

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterReport",
    "RetryPolicy",
    "RecoveryStats",
    "FailureRecord",
    "WorkerFailure",
    "ClusterState",
    "WorkerRecord",
    "Watchdog",
    "ChaosEvent",
    "ChaosSchedule",
    "ChaosInjector",
    "ChaosRunResult",
    "InjectionRecord",
    "default_chaos_policy",
    "run_chaos_replay",
    "ShardRouter",
    "flow_key_token",
    "stable_hash64",
    "ModelPublication",
    "AttachedPublication",
    "PublicationSpec",
    "WorkerConfig",
    "WorkerRuntime",
    "WorkerSummary",
    "LoadScenario",
    "compile_scenario_trace",
    "ScenarioPhase",
    "SCENARIOS",
    "get_scenario",
    "interpolate_profile",
    "scenario_names",
]
