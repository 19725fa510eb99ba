"""Tenant-keyed model registry with versioned, atomic hot-swap.

The cluster's :class:`~repro.cluster.shared_model.ModelPublication` shares
*one* model with N worker replicas.  The fabric generalizes it to *many*
tenants, each with a history of published versions, all resident in shared
memory at once (packed 1-bit models are 32x smaller, so hundreds of
per-network-segment detectors fit on one host).  Three shared structures
carry the whole coordination protocol:

* **Per-version publications** -- plain ``ModelPublication``s, one per
  ``(tenant, version)``, immutable except for coordinator-side delta merges
  into the tenant's *live* version.
* **The alias table** -- one shm ``int64`` row per tenant:
  ``[live_version, generation, previous_version]``.  A hot-swap writes the
  new live version *first* and bumps the generation *last*; readers poll the
  generation (one aligned int64 load per batch) and re-resolve the live
  version only when it moved, so the flip is atomic from every reader's
  point of view -- a reader sees either the old model or the new one, never
  a mixture.  The same program-order store discipline as the ring buffers'
  head/tail cursors and the publication generation counter.
* **The lease table** -- one shm ``int64`` row per *reader* (single writer
  per cell, the SPSC discipline again): cell ``[reader, tenant]`` holds the
  version that reader's replica of ``tenant`` is currently built on, or
  ``-1``.  :meth:`ModelRegistry.retire` drains on it: an old version's
  blocks are unlinked only once no lease pins it (or the supervisor clears
  a crashed reader's row -- see :meth:`clear_reader`).

Snapshots (:meth:`save` / :meth:`load`) persist every tenant's full version
history -- including the per-version packed 1-bit state, read back from the
live blocks -- into one ``.npz`` via the persistence layer's namespaced
payloads, which is what lets ``repro fabric publish|promote|rollback`` run
as separate processes against one registry file.
"""

from __future__ import annotations

import secrets
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.shared_model import (
    AttachedPublication,
    ModelPublication,
    PublicationSpec,
    _attach_block,
)
from repro.exceptions import ConfigurationError
from repro.hdc.backend import merge_class_deltas
from repro.nids.pipeline import DetectionPipeline
from repro.persistence import (
    pack_namespaced_states,
    pipeline_from_state,
    unpack_namespaced_states,
)

#: Alias-table columns.
_LIVE, _GEN, _PREV = 0, 1, 2
#: "No version" sentinel in the alias and lease tables.
NO_VERSION = -1


@dataclass(frozen=True)
class RegistrySpec:
    """Picklable attach handle for a whole registry (the worker-side table).

    ``versions`` is the attach-by-spec table: every published
    ``(tenant, version)``'s :class:`PublicationSpec`.  It is a snapshot --
    versions published *after* the spec was taken need a re-shipped spec
    (the coordinator re-sends worker configs on respawn, which refreshes
    it); hot-swapping between versions already in the table is fully
    shared-memory-side.
    """

    alias_block: str
    lease_block: str
    max_tenants: int
    max_readers: int
    versions: Dict[int, Dict[int, PublicationSpec]] = field(repr=False)

    def tenants(self) -> List[int]:
        """Tenant ids carried by this spec, sorted."""
        return sorted(self.versions)


class ModelRegistry:
    """Owner of every tenant's versioned publications plus the swap tables.

    Parameters
    ----------
    max_tenants, max_readers:
        Capacity of the shm alias/lease tables (tenant ids are
        ``0..max_tenants-1``; reader ids -- cluster worker ids, engine
        instances -- are ``0..max_readers-1``).
    name_prefix:
        Short shm name prefix; a random token is appended so concurrent
        registries never collide.
    """

    def __init__(
        self, max_tenants: int = 256, max_readers: int = 32, name_prefix: str = "fb"
    ):
        if max_tenants < 1 or max_readers < 1:
            raise ConfigurationError("max_tenants and max_readers must be >= 1")
        self.max_tenants = int(max_tenants)
        self.max_readers = int(max_readers)
        self._token = f"{name_prefix}-{secrets.token_hex(3)}"
        self._alias_block = shared_memory.SharedMemory(
            create=True, size=self.max_tenants * 3 * 8, name=f"{self._token}-al"
        )
        self._alias = np.ndarray(
            (self.max_tenants, 3), dtype=np.int64, buffer=self._alias_block.buf
        )
        self._alias[:, _LIVE] = NO_VERSION
        self._alias[:, _GEN] = 0
        self._alias[:, _PREV] = NO_VERSION
        self._lease_block = shared_memory.SharedMemory(
            create=True,
            size=self.max_readers * self.max_tenants * 8,
            name=f"{self._token}-le",
        )
        self._lease = np.ndarray(
            (self.max_readers, self.max_tenants),
            dtype=np.int64,
            buffer=self._lease_block.buf,
        )
        self._lease[...] = NO_VERSION
        self._publications: Dict[int, Dict[int, ModelPublication]] = {}
        self._closed = False

    # ------------------------------------------------------------- publishing
    def _check_tenant(self, tenant: int) -> int:
        tenant = int(tenant)
        if not 0 <= tenant < self.max_tenants:
            raise ConfigurationError(
                f"tenant {tenant} outside the registry's 0..{self.max_tenants - 1} range"
            )
        return tenant

    def publish(
        self,
        tenant: int,
        pipeline: DetectionPipeline,
        activate: Optional[bool] = None,
        version: Optional[int] = None,
    ) -> int:
        """Publish ``pipeline`` as the tenant's next version; returns it.

        ``activate=None`` (the default) activates only a tenant's *first*
        version -- later versions stay shadow candidates until
        :meth:`promote` flips the alias.  Pass ``True``/``False`` to force.
        ``version`` pins an explicit number (snapshot restore keeps retired
        gaps); it must exceed every published one (numbering is append-only).
        """
        tenant = self._check_tenant(tenant)
        versions = self._publications.setdefault(tenant, {})
        if version is None:
            version = max(versions) + 1 if versions else 1
        elif versions and int(version) <= max(versions):
            raise ConfigurationError(
                f"tenant {tenant} version numbering is append-only; "
                f"{version} <= published {max(versions)}"
            )
        version = int(version)
        # Publication names must clear macOS's 31-char shm limit:
        # "fb-xxxxxx" is 9 chars and ModelPublication appends "-xxxxxx-chv".
        versions[version] = ModelPublication(pipeline, name_prefix=self._token)
        if activate or (activate is None and self._alias[tenant, _LIVE] == NO_VERSION):
            self.promote(tenant, version)
        return version

    def publish_state(
        self,
        tenant: int,
        state: Dict[str, np.ndarray],
        activate: Optional[bool] = None,
        version: Optional[int] = None,
    ) -> int:
        """Publish a raw pipeline state dict (the snapshot-restore path)."""
        return self.publish(
            tenant, pipeline_from_state(state), activate=activate, version=version
        )

    # -------------------------------------------------------------- accessors
    def tenants(self) -> List[int]:
        """Tenants with at least one published version, sorted."""
        return sorted(self._publications)

    def versions(self, tenant: int) -> List[int]:
        """Published versions of ``tenant``, sorted."""
        return sorted(self._publications.get(self._check_tenant(tenant), {}))

    def live_version(self, tenant: int) -> int:
        """The tenant's live version (``NO_VERSION`` before first publish)."""
        return int(self._alias[self._check_tenant(tenant), _LIVE])

    def previous_version(self, tenant: int) -> int:
        """The version the last promote displaced (the rollback target)."""
        return int(self._alias[self._check_tenant(tenant), _PREV])

    def generation(self, tenant: int) -> int:
        """The tenant's alias generation (bumps on promote/rollback/merge)."""
        return int(self._alias[self._check_tenant(tenant), _GEN])

    def publication(self, tenant: int, version: Optional[int] = None) -> ModelPublication:
        """The publication of ``(tenant, version)`` (default: the live one)."""
        tenant = self._check_tenant(tenant)
        if version is None:
            version = self.live_version(tenant)
        try:
            return self._publications[tenant][int(version)]
        except KeyError:
            raise ConfigurationError(
                f"tenant {tenant} has no published version {version}"
            ) from None

    def total_model_bytes(self) -> int:
        """Shared-memory bytes resident across every published version."""
        total = 0
        for versions in self._publications.values():
            for publication in versions.values():
                spec = publication.spec()
                blocks = list(spec.blocks.values()) + [spec.norms_block]
                if spec.packed_block is not None:
                    blocks += [spec.packed_block, spec.packed_state_block]
                total += sum(
                    int(np.prod(b.shape)) * np.dtype(b.dtype).itemsize for b in blocks
                )
        return total

    # --------------------------------------------------------------- swapping
    def promote(self, tenant: int, version: int) -> int:
        """Atomically make ``version`` the tenant's live model.

        Store order is the whole protocol: previous/live move first, the
        generation bump is the reader-visible commit.  Returns the new
        generation.  The displaced version stays published (it is the
        rollback target) until :meth:`retire`.
        """
        tenant = self._check_tenant(tenant)
        self.publication(tenant, version)  # validates existence
        current = int(self._alias[tenant, _LIVE])
        if current == int(version):
            return int(self._alias[tenant, _GEN])
        if current != NO_VERSION:
            self._alias[tenant, _PREV] = current
        self._alias[tenant, _LIVE] = int(version)
        self._alias[tenant, _GEN] += 1
        return int(self._alias[tenant, _GEN])

    def rollback(self, tenant: int) -> int:
        """Flip the alias back to the previously live version; returns it."""
        tenant = self._check_tenant(tenant)
        previous = int(self._alias[tenant, _PREV])
        if previous == NO_VERSION:
            raise ConfigurationError(f"tenant {tenant} has no version to roll back to")
        self.promote(tenant, previous)
        return previous

    def readers_pinning(self, tenant: int, version: int) -> List[int]:
        """Reader ids whose lease row still pins ``(tenant, version)``."""
        tenant = self._check_tenant(tenant)
        column = np.asarray(self._lease[:, tenant])
        return [int(i) for i in np.flatnonzero(column == int(version))]

    def clear_reader(self, reader_id: int) -> None:
        """Release every lease of ``reader_id`` (supervisor reclaim).

        The fabric analogue of the watchdog's ring-slot reclamation: a
        SIGKILLed reader can never release its leases itself, so its
        supervisor clears the row before (or instead of) respawning it --
        otherwise the crashed incarnation would pin retired versions
        forever.
        """
        if not 0 <= int(reader_id) < self.max_readers:
            raise ConfigurationError(f"reader {reader_id} outside 0..{self.max_readers - 1}")
        self._lease[int(reader_id), :] = NO_VERSION

    def retire(
        self,
        tenant: int,
        version: int,
        timeout: float = 5.0,
        poll: float = 0.005,
        force: bool = False,
    ) -> bool:
        """Unlink ``(tenant, version)`` once every reader has drained off it.

        Blocks up to ``timeout`` seconds for the lease table to release the
        version; returns False (leaving the publication intact) if readers
        still pin it -- unless ``force``, which reclaims anyway (the
        supervisor's prerogative after it has SIGKILLed the laggard).
        Retiring the live version is refused.
        """
        tenant = self._check_tenant(tenant)
        version = int(version)
        publication = self.publication(tenant, version)
        if version == self.live_version(tenant):
            raise ConfigurationError(
                f"refusing to retire tenant {tenant}'s live version {version}; "
                "promote a replacement first"
            )
        deadline = time.monotonic() + max(0.0, timeout)
        while self.readers_pinning(tenant, version):
            if time.monotonic() >= deadline:
                if not force:
                    return False
                break
            time.sleep(poll)
        publication.close(unlink=True)
        del self._publications[tenant][version]
        if self._alias[tenant, _PREV] == version:
            self._alias[tenant, _PREV] = NO_VERSION
        return True

    # -------------------------------------------------- tenant-scoped learning
    def merge_tenant_deltas(
        self,
        tenant: int,
        deltas: List[np.ndarray],
        quorum: int = 1,
    ) -> int:
        """Merge per-reader ``partial_fit`` deltas into one tenant's live model.

        The cluster coordinator's sync round, scoped to a tenant: the
        additive deltas fold exactly into the live publication's class
        matrix (:func:`repro.hdc.backend.merge_class_deltas` -- no other
        tenant's matrix is touched), the packed words are re-derived, and
        the publication + alias generations bump so readers of *this
        tenant only* rebase.  ``quorum`` is tenant-scoped: fewer reporting
        deltas than the tenant's required quorum aborts the merge (the
        partial round would silently lose contributors' updates).

        Returns the tenant's new alias generation.
        """
        tenant = self._check_tenant(tenant)
        if quorum < 1:
            raise ConfigurationError("quorum must be >= 1")
        deltas = [np.asarray(delta) for delta in deltas if delta is not None]
        if len(deltas) < quorum:
            raise ConfigurationError(
                f"tenant {tenant} sync round collected {len(deltas)} deltas; "
                f"quorum is {quorum}"
            )
        publication = self.publication(tenant)
        merge_class_deltas(publication.class_matrix, deltas, publication.class_norms)
        publication.repack()
        publication.bump_generation()
        self._alias[tenant, _GEN] += 1
        return int(self._alias[tenant, _GEN])

    # ------------------------------------------------------------------ spec
    def spec(self) -> RegistrySpec:
        """The picklable attach table shipped to readers/workers."""
        return RegistrySpec(
            alias_block=self._alias_block.name,
            lease_block=self._lease_block.name,
            max_tenants=self.max_tenants,
            max_readers=self.max_readers,
            versions={
                tenant: {v: pub.spec() for v, pub in versions.items()}
                for tenant, versions in self._publications.items()
            },
        )

    # -------------------------------------------------------------- snapshots
    def save(self, path: Union[str, Path]) -> Path:
        """Snapshot every tenant's version history (plus aliases) to ``path``.

        Per-version state is read back from the live shared blocks
        (:meth:`ModelPublication.state_dict`), so merged deltas and
        repacked 1-bit words land in the archive exactly as served.
        """
        states = {
            f"t{tenant:05d}v{version:05d}": publication.state_dict()
            for tenant, versions in self._publications.items()
            for version, publication in versions.items()
        }
        payload = pack_namespaced_states(states)
        tenants = self.tenants()
        payload["registry_tenants"] = np.array(tenants, dtype=np.int64)
        payload["registry_live"] = np.array(
            [self.live_version(t) for t in tenants], dtype=np.int64
        )
        payload["registry_prev"] = np.array(
            [self.previous_version(t) for t in tenants], dtype=np.int64
        )
        payload["registry_gen"] = np.array(
            [self.generation(t) for t in tenants], dtype=np.int64
        )
        payload["registry_capacity"] = np.array(
            [self.max_tenants, self.max_readers], dtype=np.int64
        )
        path = Path(path)
        np.savez_compressed(path, **payload)
        return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        max_tenants: Optional[int] = None,
        max_readers: Optional[int] = None,
        name_prefix: str = "fb",
    ) -> "ModelRegistry":
        """Rebuild a registry (fresh shm blocks) from a :meth:`save` archive."""
        archive = np.load(Path(path), allow_pickle=False)
        capacity = archive["registry_capacity"]
        registry = cls(
            max_tenants=int(max_tenants or capacity[0]),
            max_readers=int(max_readers or capacity[1]),
            name_prefix=name_prefix,
        )
        try:
            slots: List[Tuple[int, int, Dict[str, np.ndarray]]] = []
            for tag, state in unpack_namespaced_states(archive).items():
                tenant, version = int(tag[1:6]), int(tag[7:12])
                slots.append((tenant, version, state))
            # Version numbering is append-only: replay publishes in order,
            # pinning archive numbers so retired-version gaps survive.
            for tenant, version, state in sorted(slots, key=lambda s: (s[0], s[1])):
                registry.publish_state(tenant, state, activate=False, version=version)
            tenants = archive["registry_tenants"]
            for i, tenant in enumerate(tenants):
                tenant = int(tenant)
                live = int(archive["registry_live"][i])
                prev = int(archive["registry_prev"][i])
                if live != NO_VERSION:
                    registry._alias[tenant, _LIVE] = live
                registry._alias[tenant, _PREV] = prev
                registry._alias[tenant, _GEN] = int(archive["registry_gen"][i])
        except BaseException:
            registry.close()
            raise
        return registry

    # -------------------------------------------------------------- lifecycle
    def close(self, unlink: bool = True) -> None:
        """Tear down every publication and the alias/lease tables."""
        if self._closed:
            return
        self._closed = True
        for versions in self._publications.values():
            for publication in versions.values():
                publication.close(unlink=unlink)
        self._publications = {}
        self._alias = None
        self._lease = None
        for block in (self._alias_block, self._lease_block):
            block.close()
            if unlink:
                try:
                    block.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ------------------------------------------------------------------ readers
class _TenantReplica:
    """One reader's materialized pipeline for a tenant (plus its freshness)."""

    __slots__ = ("version", "alias_generation", "pipeline", "swaps")

    def __init__(self, version: int, alias_generation: int, pipeline: DetectionPipeline):
        self.version = version
        self.alias_generation = alias_generation
        self.pipeline = pipeline
        self.swaps = 0


class AttachedFabric:
    """Reader-side attachment to a registry: resolve, serve, follow swaps.

    Each reader owns one lease row exclusively (``reader_id``); every cell
    write is a single aligned int64 store, so the drain protocol needs no
    cross-process atomics.  :meth:`pipeline_for` is the per-batch entry
    point: one generation load on the fast path, a replica rebuild (new
    version) or rebase (same version, merged deltas) when the alias moved.
    """

    def __init__(self, spec: RegistrySpec, reader_id: int = 0):
        if not 0 <= int(reader_id) < spec.max_readers:
            raise ConfigurationError(
                f"reader_id {reader_id} outside the registry's 0..{spec.max_readers - 1}"
            )
        self.spec = spec
        self.reader_id = int(reader_id)
        self._alias_block = _attach_block(spec.alias_block)
        self._alias = np.ndarray(
            (spec.max_tenants, 3), dtype=np.int64, buffer=self._alias_block.buf
        )
        self._lease_block = _attach_block(spec.lease_block)
        self._lease = np.ndarray(
            (spec.max_readers, spec.max_tenants),
            dtype=np.int64,
            buffer=self._lease_block.buf,
        )
        self._attached: Dict[Tuple[int, int], AttachedPublication] = {}
        self._replicas: Dict[int, _TenantReplica] = {}
        # Reattach hygiene: this reader id's row is exclusively ours, and a
        # previous incarnation (a respawned worker reattaching after a
        # SIGKILL) can never release its pins itself -- clear them so the
        # crashed incarnation does not pin retired versions forever.
        self._lease[self.reader_id, :] = NO_VERSION

    # ------------------------------------------------------------------- API
    def tenants(self) -> List[int]:
        """Tenants this attachment can serve (the spec's table)."""
        return self.spec.tenants()

    def live_version(self, tenant: int) -> int:
        """The tenant's currently live version (one shm load)."""
        return int(self._alias[int(tenant), _LIVE])

    def generation(self, tenant: int) -> int:
        """The tenant's alias generation (one shm load)."""
        return int(self._alias[int(tenant), _GEN])

    def swaps(self, tenant: int) -> int:
        """Hot-swaps this reader has followed for ``tenant``."""
        replica = self._replicas.get(int(tenant))
        return replica.swaps if replica is not None else 0

    def replicas(self) -> Dict[int, DetectionPipeline]:
        """The pipelines this reader has materialized, keyed by tenant."""
        return {
            tenant: replica.pipeline for tenant, replica in self._replicas.items()
        }

    def _attach(self, tenant: int, version: int) -> AttachedPublication:
        key = (tenant, version)
        attached = self._attached.get(key)
        if attached is None:
            try:
                pub_spec = self.spec.versions[tenant][version]
            except KeyError:
                raise ConfigurationError(
                    f"reader's attach table has no spec for tenant {tenant} "
                    f"version {version}; re-ship the registry spec"
                ) from None
            attached = self._attached[key] = AttachedPublication(pub_spec)
        return attached

    def pipeline_for(
        self, tenant: int, since: Optional[np.ndarray] = None
    ) -> DetectionPipeline:
        """The tenant's live pipeline replica, rebased/swapped as needed.

        Fast path: one generation load, return the cached replica.  On a
        generation change: if the live *version* moved, build a replica of
        the new version and move the lease pin in one store (the old
        version drains the instant the new pin lands); if only the model
        content moved (a delta merge), rebase the existing replica in
        place -- carrying over the updates it learned since ``since``, when
        given (see :meth:`AttachedPublication.refresh_replica`).
        """
        tenant = int(tenant)
        generation = int(self._alias[tenant, _GEN])
        replica = self._replicas.get(tenant)
        if replica is not None and replica.alias_generation == generation:
            return replica.pipeline
        version = int(self._alias[tenant, _LIVE])
        if version == NO_VERSION:
            raise ConfigurationError(f"tenant {tenant} has no live version")
        if replica is None or replica.version != version:
            attached = self._attach(tenant, version)
            swaps = replica.swaps + 1 if replica is not None else 0
            replica = _TenantReplica(version, generation, attached.build_replica())
            replica.swaps = swaps
            self._replicas[tenant] = replica
            # Single-store pin swap: the lease cell never transits -1, so
            # the registry's drain loop cannot mistake a swap for idleness.
            self._lease[self.reader_id, tenant] = version
        else:
            self._attach(tenant, version).refresh_replica(
                replica.pipeline.classifier, since=since
            )
            replica.alias_generation = generation
        return replica.pipeline

    def release(self, tenant: int) -> None:
        """Drop the tenant's replica and release its lease pin."""
        tenant = int(tenant)
        self._replicas.pop(tenant, None)
        self._lease[self.reader_id, tenant] = NO_VERSION

    def close(self) -> None:
        """Release every lease and detach from every block."""
        for tenant in list(self._replicas):
            self.release(tenant)
        for attached in self._attached.values():
            attached.close()
        self._attached = {}
        self._alias = None
        self._lease = None
        for block in (self._alias_block, self._lease_block):
            try:
                block.close()
            except Exception:  # pragma: no cover - double close on teardown
                pass

    def __enter__(self) -> "AttachedFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
