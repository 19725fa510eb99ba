"""Zero-copy model publication over ``multiprocessing.shared_memory``.

The heavy tensors of a trained HDC pipeline -- the encoder projection
(``(D, F)`` bases plus phases) and the ``(k, D)`` class-hypervector matrix --
are identical in every worker replica.  Instead of pickling them to each
worker process, the coordinator publishes them once in named shared-memory
blocks; workers attach and build their pipeline replica with NumPy views
directly over the shared buffers (:func:`repro.persistence.pipeline_from_state`
with ``copy_arrays=False``), so N workers cost one copy of the encoder no
matter how large ``D`` grows.

Ownership rules (enforced by convention + the replica build):

* **Encoder tensors** are shared read-only.  Workers never regenerate
  dimensions locally (it would rewrite the shared bases under every
  replica's feet).  Cluster-wide drift-time regeneration would have to be a
  coordinator-level operation; it is not implemented (ROADMAP item 8).
* **The published class matrix** is written only by the coordinator (merge
  rounds).  Each worker's classifier trains on a *private copy*; the
  attach path re-copies the published matrix into the replica so
  ``partial_fit`` never touches the shared block.
* **The generation counter** (a one-int64 meta block) increments on every
  republish; replicas record the generation they rebased from, which makes
  staleness observable end to end.

Lifecycle: the coordinator ``close()``es *and* ``unlink()``s; workers only
``close()``.  Attaching unregisters the segment from the worker's
``resource_tracker`` (CPython < 3.13 registers on attach as well as create,
which would otherwise tear shared blocks down when the first worker exits).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hdc.backend import row_norms
from repro.hdc.bitpack import PackedClassMatrix
from repro.nids.pipeline import DetectionPipeline
from repro.persistence import pipeline_from_state, pipeline_state_dict

#: State-dict keys whose arrays are published in shared memory; everything
#: else (string tables, scalar params, the scaler's two small vectors) rides
#: along by value in the picklable spec.  The aliases keep block names well
#: under macOS's 31-character POSIX shared-memory name limit.
_SHARED_KEYS = {
    "class_hypervectors": "chv",
    "encoder_bases": "eb",
    "encoder_phases": "ep",
}


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker ownership.

    CPython < 3.13 registers *attachments* with the resource tracker as if
    they were creations (gh-82300); under the ``fork`` start method the
    tracker process is shared with the coordinator, so letting the
    attachment register -- or unregistering it afterwards -- corrupts the
    creator's bookkeeping.  Suppressing registration for the duration of the
    attach leaves exactly one owner: the coordinator's publication.
    """
    try:
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    except ImportError:  # pragma: no cover - non-posix fallback
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class SharedBlockSpec:
    """Addressing information for one published array."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    def view(self, block: shared_memory.SharedMemory) -> np.ndarray:
        """A NumPy view over the block's buffer."""
        return np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=block.buf)


@dataclass(frozen=True)
class PublicationSpec:
    """Everything a worker needs to attach and build its replica (picklable).

    ``packed_block`` / ``packed_state_block`` are present when the published
    classifier serves the packed 1-bit path: the coordinator additionally
    publishes the bit-packed ``uint64`` class words plus a small float64
    state vector ``[scale, norm_0, ..., norm_{k-1}]``, and re-packs both on
    every republish (see :meth:`ModelPublication.repack`).  Replicas then
    score by XOR/popcount against the shared words -- zero copies of the
    packed model per worker.
    """

    blocks: Dict[str, SharedBlockSpec]
    norms_block: SharedBlockSpec
    meta_block_name: str
    small_state: Dict[str, np.ndarray] = field(repr=False)
    packed_block: Optional[SharedBlockSpec] = None
    packed_state_block: Optional[SharedBlockSpec] = None
    packed_dim: int = 0


class ModelPublication:
    """Coordinator-side owner of the shared-memory model blocks.

    Parameters
    ----------
    pipeline:
        The trained :class:`DetectionPipeline` to publish.
    name_prefix:
        Optional shared-memory name prefix (a random token is appended so
        concurrent clusters never collide).
    """

    def __init__(self, pipeline: DetectionPipeline, name_prefix: str = "rp"):
        state = pipeline_state_dict(pipeline)
        # Short names: macOS limits POSIX shm names to 31 chars (incl. the
        # leading slash); "rp-<6 hex>-chv" stays comfortably inside.
        token = f"{name_prefix}-{secrets.token_hex(3)}"
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}
        self._specs: Dict[str, SharedBlockSpec] = {}
        created: list = []

        def create_block(name: str, size: int) -> shared_memory.SharedMemory:
            block = shared_memory.SharedMemory(create=True, size=max(1, size), name=name)
            created.append(block)
            return block

        small: Dict[str, np.ndarray] = {}
        try:
            for key, array in state.items():
                alias = _SHARED_KEYS.get(key)
                if alias is not None:
                    array = np.ascontiguousarray(array)
                    block = create_block(f"{token}-{alias}", array.nbytes)
                    spec = SharedBlockSpec(block.name, array.shape, array.dtype.name)
                    spec.view(block)[...] = array
                    self._blocks[key] = block
                    self._specs[key] = spec
                else:
                    small[key] = np.asarray(array)
            classes = self.class_matrix
            norms = row_norms(classes).astype(classes.dtype, copy=False)
            self._norms_block = create_block(f"{token}-cn", norms.nbytes)
            self._norms_spec = SharedBlockSpec(
                self._norms_block.name, norms.shape, norms.dtype.name
            )
            self._norms_spec.view(self._norms_block)[...] = norms
            self._meta_block = create_block(f"{token}-mt", 8)
            # Packed 1-bit publication: the words every replica scores with,
            # plus [scale, norms...] so a repack is one in-place rewrite.
            self._packed_block = None
            self._packed_spec = None
            self._packed_state_block = None
            self._packed_state_spec = None
            self._packed_dim = 0
            if getattr(pipeline.classifier, "uses_packed_inference", False):
                packed = PackedClassMatrix.from_class_matrix(classes)
                self._packed_dim = packed.dim
                self._packed_block = create_block(f"{token}-pw", packed.words.nbytes)
                self._packed_spec = SharedBlockSpec(
                    self._packed_block.name, packed.words.shape, packed.words.dtype.name
                )
                self._packed_spec.view(self._packed_block)[...] = packed.words
                state_vector = np.concatenate(([packed.scale], packed.norms))
                self._packed_state_block = create_block(
                    f"{token}-ps", state_vector.nbytes
                )
                self._packed_state_spec = SharedBlockSpec(
                    self._packed_state_block.name,
                    state_vector.shape,
                    state_vector.dtype.name,
                )
                self._packed_state_spec.view(self._packed_state_block)[...] = state_vector
        except BaseException:
            # A partial publication must not outlive its constructor --
            # /dev/shm exhaustion would otherwise compound on every retry.
            for block in created:
                block.close()
                try:
                    block.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
            raise
        self._meta_view = np.ndarray((1,), dtype=np.int64, buffer=self._meta_block.buf)
        self._meta_view[0] = 0
        self._small_state = small
        self._closed = False

    # ------------------------------------------------------------------- API
    @property
    def class_matrix(self) -> np.ndarray:
        """Writable view of the published ``(k, D)`` class matrix."""
        return self._specs["class_hypervectors"].view(
            self._blocks["class_hypervectors"]
        )

    @property
    def class_norms(self) -> np.ndarray:
        """Writable view of the published cached class norms."""
        return self._norms_spec.view(self._norms_block)

    @property
    def generation(self) -> int:
        """Monotone counter incremented on every republish."""
        return int(self._meta_view[0])

    def spec(self) -> PublicationSpec:
        """The picklable attach handle shipped to worker processes."""
        return PublicationSpec(
            blocks=dict(self._specs),
            norms_block=self._norms_spec,
            meta_block_name=self._meta_block.name,
            small_state=dict(self._small_state),
            packed_block=self._packed_spec,
            packed_state_block=self._packed_state_spec,
            packed_dim=self._packed_dim,
        )

    def state_dict(self) -> Dict[str, np.ndarray]:
        """The *current* full pipeline state of this publication.

        Equivalent to :func:`repro.persistence.pipeline_state_dict` of the
        published pipeline, but read back from the live shared blocks -- so
        class-matrix merges and repacks performed since construction are
        reflected.  Arrays are copies (safe to serialize after ``close``).
        The fabric registry snapshots per-version packed state through this.
        """
        state: Dict[str, np.ndarray] = {
            key: np.array(value, copy=True) for key, value in self._small_state.items()
        }
        for key, spec in self._specs.items():
            state[key] = np.array(spec.view(self._blocks[key]), copy=True)
        if self._packed_spec is not None:
            state["packed_words"] = np.array(
                self._packed_spec.view(self._packed_block), copy=True
            )
            state["packed_state"] = np.array(
                self._packed_state_spec.view(self._packed_state_block), copy=True
            )
            state["packed_dim"] = np.array([self._packed_dim])
        return state

    def repack(self) -> bool:
        """Refresh the published packed words from the current class matrix.

        Called by the coordinator after every delta merge, *before* the
        generation bump: deltas accumulate in the float matrix (additive
        merging is a float-domain property), and the binary serving model is
        re-derived from the merged result.  Returns False when the
        publication carries no packed model.
        """
        if self._packed_spec is None:
            return False
        packed = PackedClassMatrix.from_class_matrix(self.class_matrix)
        self._packed_spec.view(self._packed_block)[...] = packed.words
        state = self._packed_state_spec.view(self._packed_state_block)
        state[0] = packed.scale
        state[1:] = packed.norms
        return True

    def bump_generation(self) -> int:
        """Mark the published model as updated; returns the new generation."""
        self._meta_view[0] += 1
        return int(self._meta_view[0])

    def close(self, unlink: bool = True) -> None:
        """Detach (and, as the owner, destroy) every shared block."""
        if self._closed:
            return
        self._closed = True
        self._meta_view = None
        extra = [
            block
            for block in (self._packed_block, self._packed_state_block)
            if block is not None
        ]
        for block in [*self._blocks.values(), self._norms_block, self._meta_block, *extra]:
            block.close()
            if unlink:
                try:
                    block.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def __enter__(self) -> "ModelPublication":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AttachedPublication:
    """Worker-side attachment to a :class:`ModelPublication`."""

    def __init__(self, spec: PublicationSpec):
        self.spec = spec
        self._blocks = {key: _attach_block(b.name) for key, b in spec.blocks.items()}
        self._norms_block = _attach_block(spec.norms_block.name)
        self._meta_block = _attach_block(spec.meta_block_name)
        self._meta_view = np.ndarray((1,), dtype=np.int64, buffer=self._meta_block.buf)
        self._packed_block = (
            _attach_block(spec.packed_block.name) if spec.packed_block else None
        )
        self._packed_state_block = (
            _attach_block(spec.packed_state_block.name)
            if spec.packed_state_block
            else None
        )

    # ------------------------------------------------------------------- API
    @property
    def class_matrix(self) -> np.ndarray:
        """Read-only view of the published class matrix."""
        view = self.spec.blocks["class_hypervectors"].view(
            self._blocks["class_hypervectors"]
        )
        view.flags.writeable = False
        return view

    @property
    def class_norms(self) -> np.ndarray:
        """Read-only view of the published class norms."""
        view = self.spec.norms_block.view(self._norms_block)
        view.flags.writeable = False
        return view

    @property
    def generation(self) -> int:
        """Current published generation."""
        return int(self._meta_view[0])

    @property
    def has_packed_model(self) -> bool:
        """Whether the publication carries a packed 1-bit serving model."""
        return self._packed_block is not None

    def packed_matrix(self) -> PackedClassMatrix:
        """A zero-copy :class:`PackedClassMatrix` over the published words.

        The words and norms are read-only views of the shared blocks; the
        scale is read at construction time, so the object is only coherent
        for one published generation -- replicas rebuild it on every rebase
        (:meth:`refresh_replica`), the same staleness contract as the float
        class matrix.
        """
        if self._packed_block is None:
            raise ConfigurationError("publication does not carry a packed model")
        words = self.spec.packed_block.view(self._packed_block)
        words.flags.writeable = False
        state = self.spec.packed_state_block.view(self._packed_state_block)
        norms = state[1:]
        norms.flags.writeable = False
        return PackedClassMatrix(
            words=words,
            dim=int(self.spec.packed_dim),
            scale=float(state[0]),
            norms=norms,
            shared=True,
        )

    def build_replica(self) -> DetectionPipeline:
        """A full pipeline replica over the shared tensors.

        The encoder's projection tensors are zero-copy views of the shared
        blocks; the classifier's class matrix (the part ``partial_fit``
        mutates) is re-copied into private memory, as are its cached norms.
        """
        state: Dict[str, np.ndarray] = dict(self.spec.small_state)
        for key, block_spec in self.spec.blocks.items():
            state[key] = block_spec.view(self._blocks[key])
        pipeline = pipeline_from_state(state, copy_arrays=False)
        classifier = pipeline.classifier
        # Privatize the trainable state; everything else stays shared.
        classifier.class_hypervectors_ = np.array(self.class_matrix, copy=True)
        classifier._class_norms = np.array(self.class_norms, copy=True)
        if self.has_packed_model:
            # Zero-copy packed serving: score against the shared words until
            # a local partial_fit invalidates the cache (the replica then
            # re-packs its private, drifted matrix) or a rebase re-attaches.
            classifier._packed_classes = self.packed_matrix()
        return pipeline

    def refresh_replica(self, classifier, since: Optional[np.ndarray] = None) -> int:
        """Rebase a replica's classifier onto the currently published model.

        ``since`` carries the replica's unsynced updates over instead of
        discarding them: it is the class matrix those updates are measured
        from, and the replica becomes ``published + (replica - since)``
        (computed as ``replica + (published - since)``, so rows where the
        two agree keep their bits and cached norms).  ``since`` is then
        overwritten with the published matrix -- the replica's new base.
        Every rebase that keeps local learning goes through this rule: the
        cluster worker's and the fabric engine's.

        Returns the generation the replica is now based on.
        """
        if since is not None:
            published = self.class_matrix
            classifier.apply_class_delta(published - since)
            since[...] = published
            return self.generation
        classifier.set_class_vectors(self.class_matrix)
        if getattr(classifier, "_class_norms", None) is not None:
            classifier._class_norms[:] = self.class_norms
        if self.has_packed_model:
            # set_class_vectors dropped the packed cache; re-attach the
            # freshly republished words (repacked by the coordinator before
            # the generation bump) instead of re-packing locally.
            classifier._packed_classes = self.packed_matrix()
        return self.generation

    def close(self) -> None:
        """Detach from every block (never unlinks; the coordinator owns them)."""
        self._meta_view = None
        extra = [
            block
            for block in (self._packed_block, self._packed_state_block)
            if block is not None
        ]
        for block in [*self._blocks.values(), self._norms_block, self._meta_block, *extra]:
            try:
                block.close()
            except Exception:  # pragma: no cover - double close on teardown
                pass

    def __enter__(self) -> "AttachedPublication":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
