"""The batched inference engine: micro-batch scheduling over a stage chain.

``InferenceEngine`` wraps any stage chain (and therefore any
``BaseClassifier``) with the serving behaviours the paper's edge-deployment
story needs:

* **micro-batch scheduling** -- items accumulate in a bounded ingest queue
  and are dispatched as one batch when either ``max_batch_size`` is reached
  or the oldest queued item has waited ``max_wait_s`` (amortizing the
  per-call overhead of the vectorized stages without unbounded latency);
* **backpressure** -- the queue is bounded with an explicit policy
  (:mod:`repro.serving.backpressure`): ``block`` makes the producer pay by
  processing inline, ``drop_oldest`` sheds the stalest items, and both keep
  counters;
* **per-stage telemetry** -- ingest queue wait, assembly, extraction,
  encoding and classification latencies plus rolling throughput
  (:mod:`repro.serving.telemetry`).

The engine is synchronous and deterministic by default (``submit`` runs the
stage chain inline when a dispatch condition fires); ``start()`` moves
dispatching onto a background worker thread for wall-clock-driven serving.
"""

from __future__ import annotations

import threading
import time
from itertools import repeat
from typing import Any, Callable, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.serving.backpressure import BoundedQueue
from repro.serving.stages import ServingBatch, Stage, run_stages
from repro.serving.telemetry import TelemetryRecorder


class InferenceEngine:
    """Micro-batching executor for a serving stage chain.

    Parameters
    ----------
    stages:
        The stage chain; each dispatched batch flows through all stages.
    max_batch_size:
        Dispatch as soon as this many items are queued.
    max_wait_s:
        Dispatch (on ``submit``/``poll``) once the oldest queued item has
        waited this long, even if the batch is small.  ``None`` disables the
        timer (dispatch on size or explicit flush only).
    queue_capacity:
        Bound of the ingest queue.
    backpressure:
        ``"block"`` or ``"drop_oldest"`` (see :mod:`repro.serving.backpressure`).
    telemetry:
        Recorder to use; a fresh one is created if omitted.
    make_batch:
        Builds a :class:`ServingBatch` from a list of queued items; the
        default treats items as packets.
    on_batch:
        Optional callback invoked with every processed batch.
    keep_batches:
        How many processed batches to retain on ``engine.batches`` for
        inspection (None keeps all -- only safe for bounded runs; a
        long-running server must bound this or memory grows with traffic).
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        max_batch_size: int = 512,
        max_wait_s: Optional[float] = 0.05,
        queue_capacity: int = 8192,
        backpressure: str = "block",
        telemetry: Optional[TelemetryRecorder] = None,
        make_batch: Optional[Callable[[List[Any]], ServingBatch]] = None,
        on_batch: Optional[Callable[[ServingBatch], None]] = None,
        keep_batches: Optional[int] = 256,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not stages:
            raise ConfigurationError("InferenceEngine requires at least one stage")
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if max_wait_s is not None and max_wait_s < 0:
            raise ConfigurationError("max_wait_s must be non-negative")
        self.stages = list(stages)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = max_wait_s
        self.queue = BoundedQueue(queue_capacity, policy=backpressure)
        self.telemetry = telemetry if telemetry is not None else TelemetryRecorder(clock=clock)
        self.make_batch = make_batch or (lambda items: ServingBatch(packets=list(items)))
        self.on_batch = on_batch
        self.clock = clock
        self.keep_batches = keep_batches
        self.batches: List[ServingBatch] = []
        self._worker: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._dispatch_lock = threading.Lock()

    # -------------------------------------------------------------- metrics
    @property
    def backpressure_stats(self):
        """Counters of the ingest queue (see :class:`BackpressureStats`)."""
        return self.queue.stats

    @property
    def pending(self) -> int:
        """Items currently queued."""
        return len(self.queue)

    # ------------------------------------------------------------------- API
    def submit(self, item: Any) -> Optional[ServingBatch]:
        """Enqueue one item; returns a batch result if dispatch fired.

        In synchronous mode (no worker thread) the dispatch conditions are
        evaluated inline: queue full under the ``block`` policy (forced
        flush -- the producer pays), ``max_batch_size`` reached, or the
        oldest queued item exceeding ``max_wait_s``.  Every processed batch
        reaches ``on_batch`` and ``batches`` regardless of what this call
        returns; the return value (the last batch the call dispatched) is a
        convenience for synchronous callers.
        """
        dispatched = self._submit(item)
        return dispatched[-1] if dispatched else None

    def submit_many(self, items: Sequence[Any]) -> List[ServingBatch]:
        """Enqueue many items; returns every batch dispatched along the way, in order.

        A synchronous engine without a batching timer takes the bulk path:
        items are enqueued in slices that end where a per-item
        :meth:`submit` would next dispatch (``max_batch_size`` reached, or a
        full ``block`` queue forcing a flush), each slice under one clock
        read and one queue lock (:meth:`BoundedQueue.push_many`).  The
        batches, their order and the backpressure counters are exactly
        those of per-item submits; only the enqueue stamps (queue-wait
        telemetry) are shared per slice.  With a worker thread running or
        ``max_wait_s`` set, dispatch depends on each item's own stamp, so
        the per-item loop runs instead.
        """
        results: List[ServingBatch] = []
        if self._worker is not None or self.max_wait_s is not None:
            for item in items:
                results.extend(self._submit(item))
            return results
        i, n = 0, len(items)
        while i < n:
            # Up to the item whose submit would find max_batch_size queued.
            k = max(1, self.max_batch_size - len(self.queue))
            taken = self.queue.push_many(list(zip(repeat(self.clock()), items[i : i + k])))
            i += taken
            if taken < k and i < n:
                # block policy, queue full: the producer pays inline.
                self.queue.stats.forced_flushes += 1
                batch = self._dispatch()
            else:
                batch = self.poll()
            if batch is not None:
                results.append(batch)
        return results

    def poll(self) -> Optional[ServingBatch]:
        """Dispatch if a size/wait condition holds; returns the batch if so."""
        if self.pending >= self.max_batch_size:
            return self._dispatch()
        head = self.queue.peek_oldest()
        if (
            self.max_wait_s is not None
            and head is not None
            and (self.clock() - head[0]) >= self.max_wait_s
        ):
            return self._dispatch()
        return None

    def flush(self) -> Optional[ServingBatch]:
        """Dispatch whatever is queued, regardless of size/age."""
        if self.pending == 0:
            return None
        return self._dispatch()

    def close(self) -> Optional[ServingBatch]:
        """Drain the queue and flush stateful stages (end of stream).

        Returns the final batch (which may carry flows released by the
        flow-table flush) or None when there was nothing left anywhere.
        """
        self.stop()
        entries = self.queue.drain()
        batch = self.make_batch([item for _, item in entries])
        # Flush each stage before running its successor, so state released
        # by a flush (e.g. still-active flows from the assembly stage) is
        # processed by the downstream stages in this same batch.
        for stage in self.stages:
            stage.run(batch, self.telemetry)
            stage.flush(batch)
        self._record(batch)
        return batch

    # --------------------------------------------------------------- threads
    def start(self, poll_interval: float = 0.005) -> None:
        """Run dispatching on a daemon worker thread (wall-clock serving)."""
        if self._worker is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                if self.poll() is None:
                    time.sleep(poll_interval)

        self._worker = threading.Thread(target=loop, name="repro-serving-engine", daemon=True)
        self._worker.start()

    def stop(self) -> None:
        """Stop the worker thread (if running); queued items stay queued."""
        if self._worker is None:
            return
        self._stop.set()
        self._worker.join(timeout=5.0)
        self._worker = None

    # ------------------------------------------------------------- internals
    def _submit(self, item: Any) -> List[ServingBatch]:
        """Enqueue one item; returns the batches dispatched, in order."""
        dispatched: List[ServingBatch] = []
        # Items are queued with their enqueue timestamp, so queue-wait
        # telemetry and max_wait dispatch reflect each item's true age even
        # across partial drains and drop-oldest evictions.
        entry = (self.clock(), item)
        while not self.queue.push(entry):
            # block policy, queue full
            if self._worker is not None:
                with self.queue.not_full:
                    start = self.clock()
                    self.queue.not_full.wait(timeout=0.1)
                    self.queue.stats.blocked_seconds += self.clock() - start
            else:
                self.queue.stats.forced_flushes += 1
                batch = self._dispatch()
                if batch is not None:
                    dispatched.append(batch)
        if self._worker is not None:
            return dispatched
        polled = self.poll()
        if polled is not None:
            dispatched.append(polled)
        return dispatched

    def _dispatch(self) -> Optional[ServingBatch]:
        with self._dispatch_lock:
            entries = self.queue.drain(self.max_batch_size)
            if not entries:
                return None
            now = self.clock()
            self.telemetry.stage("ingest").observe(now - entries[0][0], len(entries))
            batch = self.make_batch([item for _, item in entries])
            run_stages(self.stages, batch, self.telemetry)
            self._record(batch)
            return batch

    def _record(self, batch: ServingBatch) -> None:
        self.telemetry.record_items(max(batch.n_flows, len(batch.packets)))
        self.batches.append(batch)
        if self.keep_batches is not None and len(self.batches) > self.keep_batches:
            del self.batches[: len(self.batches) - self.keep_batches]
        if self.on_batch is not None:
            self.on_batch(batch)
