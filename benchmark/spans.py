"""Span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the public entry points of each ``repro`` layer
(:data:`TARGETS`) while it is installed, and records one span per call: the
layer name, start, end, the enclosing span on the same thread, and the
sample it belongs to.  Spans stay in memory; :meth:`Tracer.write_jsonl`
writes them out when the run ends.  A layer's *self time* is its spans'
durations minus the part covered by their child spans, so self times of all
layers plus the unattributed residual add up to the wall time.

Untraced runs never construct a tracer, so they never install a wrapper.
Where a caller imported a function by name, the name is patched in the
caller's module (``repro.serving.engine.run_stages`` rather than
``repro.serving.stages.run_stages``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Tuple

#: ``(module, attribute path, layer)`` of every wrapped entry point.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.nids.flow", "FlowTable.add_packets", "nids.flow"),
    ("repro.nids.flow", "FlowTable.flush", "nids.flow"),
    (
        "repro.nids.feature_extraction",
        "FlowFeatureExtractor.extract_batch",
        "nids.feature_extraction",
    ),
    ("repro.datasets.preprocessing", "MinMaxScaler.transform", "nids.feature_extraction"),
    ("repro.core.cyberhd", "CyberHD.encode", "hdc.encode"),
    ("repro.models.base", "BaseClassifier.encode_packed", "hdc.encode"),
    ("repro.hdc.encoders.base", "BaseEncoder.encode", "hdc.encode"),
    ("repro.hdc.encoders.base", "BaseEncoder.encode_partial", "hdc.encode"),
    ("repro.core.cyberhd", "CyberHD.scores_from_encoded", "hdc.score"),
    ("repro.models.base", "BaseClassifier.scores_from_packed", "hdc.score"),
    ("repro.cascade.stage", "CascadeClassifyStage.run", "cascade"),
    ("repro.nids.alerts", "AlertManager.raise_alert", "nids.alerts"),
    ("repro.nids.streaming", "StreamingDetector.push_many", "serving.engine"),
    ("repro.serving.engine", "InferenceEngine.close", "serving.engine"),
    ("repro.serving.engine", "run_stages", "serving.engine"),
    ("repro.cluster.ring", "PacketFrame.from_packets", "cluster.ring"),
    ("repro.cluster.coordinator", "encode_frame", "cluster.ring"),
    ("repro.cluster.coordinator", "decode_ack", "cluster.ring"),
    ("repro.cluster.coordinator", "ClusterCoordinator.sync_models", "cluster.coordinator"),
    ("repro.cluster.coordinator", "merge_class_deltas", "cluster.coordinator"),
    ("repro.cluster.router", "ShardRouter.partition_packets", "cluster.router"),
    # CyberHD's own fit loop: re-encoded column scatter and norm refresh.
    ("repro.models.base", "BaseClassifier.fit", "core.cyberhd"),
    ("repro.core.cyberhd", "adaptive_one_pass_fit", "core.trainer"),
    ("repro.core.cyberhd", "adaptive_epoch", "core.trainer"),
    ("repro.core.cyberhd", "training_accuracy", "core.trainer"),
    ("repro.core.cyberhd", "select_drop_dimensions", "core.regeneration"),
    ("repro.core.cyberhd", "apply_regeneration", "core.regeneration"),
    ("repro.core.cyberhd", "warm_start_regenerated", "core.regeneration"),
)

#: Every layer a span can be attributed to, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))

#: ``(span id, layer, start, end, parent span id or -1, sample)``.
Span = Tuple[int, str, float, float, int, int]


def resolve(module: str, path: str):
    """The object owning the last attribute of ``path`` and that name."""
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Tracer:
    """Records spans around :data:`TARGETS` between install and uninstall.

    Wrappers are inert in any process but the installing one: a cluster
    worker forked while they are installed inherits them, and its spans
    would never reach this tracer.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.sample = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        """Replace every target with a span-recording wrapper."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._pid = os.getpid()
        try:
            for module, path, layer in TARGETS:
                owner, name = resolve(module, path)
                original = vars(owner)[name]
                setattr(owner, name, self._wrap(original, layer))
                self._installed.append((owner, name, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original attribute back (in reverse install order)."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def _wrap(self, original, layer: str):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap(original.__func__, layer))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return original(*args, **kwargs)
            with self.span(layer):
                return original(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------------- spans
    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record one span of ``layer`` around the ``with`` body."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, layer, start, end, parent, self.sample))

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, layer, start, end, parent, sample in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "sample": sample,
                        }
                    )
                    + "\n"
                )


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-layer self time: span durations minus their children's.

    Children run on their parent's thread, inside the parent's interval and
    one after another, so their durations sum to the covered part.
    """
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for span_id, layer, start, end, _, _ in spans:
        totals[layer] += max(0.0, end - start - covered[span_id])
    return dict(totals)
