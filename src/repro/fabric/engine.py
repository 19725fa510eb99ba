"""The single-process multi-tenant serving engine.

One :class:`FabricEngine` serves *every* tenant of a registry from one
process: a single shard-less flow table assembles packets, and a
:class:`~repro.serving.stages.TenantRoutedStage` routes each assembled flow
to its tenant's own extract -> classify -> alert chain, resolved per batch
through an :class:`~repro.fabric.registry.AttachedFabric` -- which is what
makes hot-swaps and delta merges take effect at the next batch boundary
with no engine restart.

Online learning is tenant-isolated end to end: each lane's ``partial_fit``
updates accumulate in that tenant's *private* replica matrix, and every
``sync_interval`` batches the engine reports each dirty lane's delta to the
registry's tenant-scoped merge (:meth:`ModelRegistry.merge_tenant_deltas`).
No other tenant's class matrix is ever touched -- the recall-isolation
bench measures exactly this property.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fabric.registry import AttachedFabric, ModelRegistry, RegistrySpec
from repro.fabric.router import TenantKeyer
from repro.nids.flow import FlowRecord, FlowTable
from repro.nids.packets import Packet
from repro.serving.stages import (
    FlowAssemblyStage,
    ServingBatch,
    TenantRoutedStage,
    run_stages,
)
from repro.serving.telemetry import TelemetryRecorder


class FabricEngine:
    """Serves all tenants of a registry through per-tenant stage lanes.

    Parameters
    ----------
    spec:
        The registry's attach table (:meth:`ModelRegistry.spec`).
    keyer:
        Maps each assembled flow to its tenant.
    reader_id:
        This engine's lease row in the registry (one engine per row).
    online:
        Enable per-tenant online learning; requires ``registry`` (the
        merge authority) in the same process.
    sync_interval:
        Batches between delta-merge rounds in online mode.
    quorum:
        Tenant-scoped merge quorum forwarded to the registry (a single
        engine reports one delta per tenant, so the default is 1).
    """

    def __init__(
        self,
        spec: RegistrySpec,
        keyer: TenantKeyer,
        reader_id: int = 0,
        idle_timeout: float = 5.0,
        online: bool = False,
        sync_interval: int = 8,
        registry: Optional[ModelRegistry] = None,
        quorum: int = 1,
    ):
        if online and registry is None:
            raise ConfigurationError(
                "online fabric serving needs the owning ModelRegistry in-process "
                "(it is the delta-merge authority)"
            )
        if sync_interval < 1:
            raise ConfigurationError("sync_interval must be >= 1")
        self.fabric = AttachedFabric(spec, reader_id=reader_id)
        self.keyer = keyer
        self.online = bool(online)
        self.sync_interval = int(sync_interval)
        self.registry = registry
        self.quorum = int(quorum)
        self.table = FlowTable(idle_timeout=idle_timeout)
        self.telemetry = TelemetryRecorder()
        self.tenant_stage = TenantRoutedStage(
            self._tenant_of,
            self._chain_for,
            on_tenant_batch=self._learn if self.online else None,
        )
        self.stages = [FlowAssemblyStage(self.table), self.tenant_stage]
        self.batches_handled = 0
        self.online_updates = 0
        self.online_samples = 0
        #: Per-tenant alias generation the lane's learning base was taken at.
        self._lane_generation: Dict[int, int] = {}
        #: Per-tenant live version the lane's learning base was taken from.
        self._lane_version: Dict[int, int] = {}
        #: Per-tenant class-matrix snapshot deltas are computed against.
        self._bases: Dict[int, np.ndarray] = {}
        #: Tenants with unreported partial_fit updates.
        self._dirty: set = set()

    # ------------------------------------------------------------- lane hooks
    def _tenant_of(self, flow: FlowRecord) -> int:
        return self.keyer.tenant_of_key(flow.key)

    def _pipeline(self, tenant: int):
        """The tenant's live replica, moving the learning base whenever the
        alias generation moved (swap or merged deltas).

        A dirty lane whose live version did not move keeps its unsynced
        updates through the rebase (``published + (replica - base)``, the
        cluster worker's rule); a swap drops them, as :meth:`sync` does.
        """
        # Read before the generation: a promote stores the live version
        # first, so a racing swap can only make the recorded version stale
        # (sync then drops the update), never newer than the replica's.
        version = self.fabric.live_version(tenant)
        generation = self.fabric.generation(tenant)
        if not self.online or self._lane_generation.get(tenant) == generation:
            return self.fabric.pipeline_for(tenant)
        since = None
        if tenant in self._dirty and self._lane_version[tenant] == version:
            since = self._bases[tenant]  # moved to the published matrix
        pipeline = self.fabric.pipeline_for(tenant, since=since)
        if since is None:
            self._bases[tenant] = pipeline.classifier.class_vector_snapshot()
        self._lane_generation[tenant] = generation
        self._lane_version[tenant] = version
        return pipeline

    def _chain_for(self, tenant: int):
        return self._pipeline(tenant).stages

    def _learn(self, tenant: int, sub: ServingBatch) -> None:
        """Fold one tenant's known-label flows into its private replica."""
        pipeline = self._pipeline(tenant)
        data = pipeline.batch_training_data(sub)
        if data is None:
            return
        X, y = data
        pipeline.classifier.partial_fit(X, y)
        self._dirty.add(tenant)
        self.online_updates += 1
        self.online_samples += int(y.shape[0])

    # -------------------------------------------------------------------- API
    def process_packets(self, packets: Sequence[Packet]) -> ServingBatch:
        """Serve one micro-batch of packets across every tenant lane."""
        batch = ServingBatch(packets=list(packets))
        run_stages(self.stages, batch, self.telemetry)
        self.batches_handled += 1
        if self.online and self.batches_handled % self.sync_interval == 0:
            self.sync()
        return batch

    def sync(self) -> List[int]:
        """Report every dirty lane's delta to its tenant-scoped merge.

        The delta is measured on the lane's own replica, which is not
        refreshed here: a refresh would replace the lane's unsynced updates
        with whatever another reader merged meanwhile.  A lane whose live
        version moved (promote or rollback) since its base was taken drops
        its update, which was learned on a model that no longer serves.

        Returns the tenants merged this round.  Each lane rebases (and
        re-snapshots its base) on its next batch, when ``pipeline_for``
        observes the bumped generation.
        """
        merged = []
        replicas = self.fabric.replicas()
        for tenant in sorted(self._dirty):
            if self.fabric.live_version(tenant) != self._lane_version[tenant]:
                continue
            classifier = replicas[tenant].classifier
            delta = classifier.class_vector_delta(self._bases[tenant])
            self.registry.merge_tenant_deltas(tenant, [delta], quorum=self.quorum)
            merged.append(tenant)
        self._dirty.clear()
        return merged

    def finalize(self) -> ServingBatch:
        """Flush still-open flows through their tenant lanes; final sync."""
        batch = ServingBatch()
        for stage in self.stages:
            stage.run(batch, self.telemetry)
            stage.flush(batch)
        if self.online and self._dirty:
            self.sync()
        return batch

    def serve(
        self, packets: Sequence[Packet], window_size: int = 512
    ) -> Dict[str, Any]:
        """Replay a packet stream in micro-batches and return the summary."""
        if window_size < 1:
            raise ConfigurationError("window_size must be >= 1")
        packets = list(packets)
        for start in range(0, len(packets), window_size):
            self.process_packets(packets[start : start + window_size])
        self.finalize()
        return self.summary()

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly engine + per-tenant serving report."""
        tenants = self.tenant_stage.to_dict()
        for key, report in tenants.items():
            tenant = int(key)
            report["live_version"] = self.fabric.live_version(tenant)
            report["swaps"] = self.fabric.swaps(tenant)
        return {
            "batches": self.batches_handled,
            "online": self.online,
            "online_updates": self.online_updates,
            "online_samples": self.online_samples,
            "tenants": tenants,
            "telemetry": self.telemetry.to_dict(),
        }

    def close(self) -> None:
        """Release leases and detach from the registry's blocks."""
        self.fabric.close()

    def __enter__(self) -> "FabricEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
