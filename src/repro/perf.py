"""Performance benchmark harness for the HDC compute backend.

This module is the perf-regression baseline for the repository: it times the
hot-path primitives (encoding, scatter aggregation, similarity scoring, one
adaptive epoch) across dtypes, plus the end-to-end ``CyberHD.fit`` at the
paper-scale setting (``D = 500``, NSL-KDD-sized synthetic data), and emits a
machine-readable record list that gets written to ``BENCH_hdc_primitives.json``.

Two ways to run it:

* ``python -m repro bench`` -- the CLI entry point; prints a table and writes
  the JSON baseline.
* ``benchmarks/bench_hdc_primitives.py`` -- the pytest-benchmark suite, which
  reuses the same record format.

To keep the speedup claims honest the module carries *seed-equivalent*
reference implementations of the original float64 pipeline (``np.add.at``
scatters, per-batch norm recomputation with normalized operand copies, and a
full training-set re-encode after every regeneration step).  The
``fit_cyberhd`` records therefore measure the current pipeline against the
exact algorithm the repository started from, on the same machine and the
same workload.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro._version import __version__
from repro.core.config import CyberHDConfig
from repro.core.cyberhd import CyberHD
from repro.core.regeneration import (
    apply_regeneration,
    select_drop_dimensions,
    warm_start_regenerated,
)
from repro.hdc.backend import resolve_dtype, row_norms, segment_sum
from repro.hdc.encoders import RBFEncoder, LevelIDEncoder, make_encoder
from repro.hdc.similarity import cosine_similarity_matrix
from repro.core.trainer import adaptive_epoch, adaptive_one_pass_fit
from repro.utils.rng import ensure_rng

BENCH_JSON_NAME = "BENCH_hdc_primitives.json"


# ------------------------------------------------------------------ recording
def make_record(
    op: str,
    wall_time_s: float,
    dtype: str = "float64",
    D: int = 0,
    n: int = 0,
    **extra: Any,
) -> Dict[str, Any]:
    """One benchmark measurement in the shared schema."""
    record = {
        "op": op,
        "dtype": dtype,
        "D": int(D),
        "n": int(n),
        "wall_time_s": float(wall_time_s),
    }
    record.update(extra)
    return record


def _git_revision() -> str:
    """The current git commit (or "unknown" outside a checkout)."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if result.returncode == 0:
            return result.stdout.strip()
    except Exception:
        pass
    return "unknown"


def bench_provenance() -> Dict[str, Any]:
    """Environment metadata stamped into every ``BENCH_*.json``.

    Benchmark trajectories across PRs are only comparable when the record
    says what produced them: the exact source revision, interpreter and
    NumPy versions, the backend dtype policy, and how many CPUs the host
    actually exposed (scaling numbers are meaningless without it).
    """
    from repro.hdc.backend import DEFAULT_DTYPE

    try:
        affinity_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        affinity_cpus = os.cpu_count() or 1
    return {
        "git_revision": _git_revision(),
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy_version": np.__version__,
        "dtype_policy": DEFAULT_DTYPE,
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity_count": affinity_cpus,
        "platform": platform.platform(),
        "argv": list(sys.argv),
    }


def write_bench_json(
    records: Sequence[Dict[str, Any]], path: Union[str, Path]
) -> Path:
    """Write benchmark records (plus environment provenance) as JSON."""
    path = Path(path)
    payload = {
        "schema": "repro-bench/2",
        "repro_version": __version__,
        "numpy_version": np.__version__,
        "provenance": bench_provenance(),
        "records": list(records),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall time over ``repeats`` calls (minimum is the standard
    noise-robust estimator for microbenchmarks)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------- seed-equivalent reference path
def _legacy_cosine_matrix(queries: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The original kernel: normalized float64 copies of both operands."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    c = np.atleast_2d(np.asarray(classes, dtype=np.float64))
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    cn = np.linalg.norm(c, axis=1, keepdims=True)
    qn = np.where(qn < 1e-12, 1.0, qn)
    cn = np.where(cn < 1e-12, 1.0, cn)
    return (q / qn) @ (c / cn).T


def _legacy_adaptive_one_pass_fit(H, y, n_classes, batch_size=256, rng=None):
    H = np.asarray(H, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes = np.zeros((n_classes, H.shape[1]))
    gen = ensure_rng(rng)
    order = gen.permutation(H.shape[0])
    for start in range(0, H.shape[0], batch_size):
        idx = order[start : start + batch_size]
        Hb = H[idx]
        yb = y[idx]
        sims = _legacy_cosine_matrix(Hb, classes)
        pred = np.argmax(sims, axis=1)
        sim_true = sims[np.arange(idx.size), yb]
        np.add.at(classes, yb, (1.0 - sim_true)[:, None] * Hb)
        wrong = pred != yb
        if np.any(wrong):
            sim_pred = sims[wrong, pred[wrong]]
            np.add.at(classes, pred[wrong], -(1.0 - sim_pred)[:, None] * Hb[wrong])
    return classes


def _legacy_adaptive_epoch(classes, H, y, learning_rate, batch_size=256, rng=None):
    H = np.asarray(H, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = H.shape[0]
    gen = ensure_rng(rng)
    order = gen.permutation(n)
    errors = 0
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        Hb = H[idx]
        yb = y[idx]
        sims = _legacy_cosine_matrix(Hb, classes)
        pred = np.argmax(sims, axis=1)
        wrong = pred != yb
        n_wrong = int(np.count_nonzero(wrong))
        errors += n_wrong
        if n_wrong == 0:
            continue
        Hw = Hb[wrong]
        yw = yb[wrong]
        pw = pred[wrong]
        sim_true = sims[wrong, yw]
        sim_pred = sims[wrong, pw]
        np.add.at(classes, yw, (learning_rate * (1.0 - sim_true))[:, None] * Hw)
        np.add.at(classes, pw, -(learning_rate * (1.0 - sim_pred))[:, None] * Hw)
    return errors, 1.0 - errors / n


def _legacy_level_id_encode(encoder: LevelIDEncoder, X: np.ndarray) -> np.ndarray:
    """The original per-feature Python loop over bound (ID * LEVEL) pairs."""
    level_idx = encoder._quantize_levels(np.asarray(X, dtype=np.float64))
    H = np.zeros((X.shape[0], encoder.dim))
    for f in range(encoder.in_features):
        H += np.asarray(encoder.id_vectors[f], dtype=np.float64) * np.asarray(
            encoder.level_vectors, dtype=np.float64
        )[level_idx[:, f]]
    return H


def legacy_fit_cyberhd(X: np.ndarray, y: np.ndarray, config: CyberHDConfig) -> np.ndarray:
    """Seed-equivalent ``CyberHD.fit``: float64, ``np.add.at`` scatters, and a
    **full** training-set re-encode after every regeneration step.

    Returns the trained class matrix (used to sanity-check the run did real
    work; callers time the call itself).
    """
    cfg = config.validate()
    rng = ensure_rng(cfg.seed)
    n_classes = int(np.max(y)) + 1
    encoder = make_encoder(
        cfg.encoder,
        in_features=X.shape[1],
        dim=cfg.dim,
        rng=rng,
        dtype=np.float64,
        **cfg.encoder_kwargs,
    )
    H = encoder.encode(X)
    classes = _legacy_adaptive_one_pass_fit(H, y, n_classes, cfg.batch_size, rng)
    for epoch in range(1, cfg.epochs + 1):
        _legacy_adaptive_epoch(classes, H, y, cfg.learning_rate, cfg.batch_size, rng)
        should_regen = (
            cfg.regeneration_rate > 0.0
            and epoch % cfg.regeneration_interval == 0
            and epoch < cfg.epochs
        )
        if should_regen:
            dims, _ = select_drop_dimensions(classes, cfg.regeneration_rate)
            if dims.size:
                apply_regeneration(classes, encoder, dims)
                H = encoder.encode(X)  # the full re-encode this PR eliminated
                warm_start_regenerated(classes, H, y, dims)
    return classes


# ----------------------------------------------------------------- workloads
def _primitive_workload(n: int, features: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, features))
    y = rng.integers(0, 5, size=n)
    return X, y


def _fit_workload(n: int, seed: int = 0):
    """NSL-KDD-sized synthetic training split (41 flow features)."""
    from repro.datasets.loaders import load_dataset

    ds = load_dataset("nsl_kdd", n_train=n, n_test=32, seed=seed)
    return ds.X_train, ds.y_train


# ---------------------------------------------------------------- benchmarks
def bench_primitives(
    dim: int = 500,
    n: int = 2000,
    features: int = 64,
    repeats: int = 3,
    dtypes: Sequence[str] = ("float32", "float64"),
) -> List[Dict[str, Any]]:
    """Time the HDC primitives across dtypes; returns benchmark records."""
    X, y = _primitive_workload(n, features)
    records: List[Dict[str, Any]] = []

    for dtype_name in dtypes:
        dtype = resolve_dtype(dtype_name)
        rbf = RBFEncoder(in_features=features, dim=dim, rng=0, dtype=dtype)
        records.append(
            make_record(
                "encode_rbf",
                _best_of(lambda: rbf.encode(X), repeats),
                dtype_name,
                dim,
                n,
            )
        )
        level = LevelIDEncoder(in_features=features, dim=dim, rng=0, dtype=dtype)
        records.append(
            make_record(
                "encode_level_id",
                _best_of(lambda: level.encode(X), repeats),
                dtype_name,
                dim,
                n,
            )
        )
        if dtype == np.float64:
            records.append(
                make_record(
                    "encode_level_id_loop",
                    _best_of(lambda: _legacy_level_id_encode(level, X), repeats),
                    "float64",
                    dim,
                    n,
                    note="seed-equivalent per-feature Python loop",
                )
            )

        H = rbf.encode(X)
        classes = adaptive_one_pass_fit(H, y, n_classes=5, rng=0)
        class_norms = row_norms(classes)
        query_norms = row_norms(H)
        records.append(
            make_record(
                "cosine_scores",
                _best_of(lambda: cosine_similarity_matrix(H, classes), repeats),
                dtype_name,
                dim,
                n,
            )
        )
        records.append(
            make_record(
                "cosine_scores_cached_norms",
                _best_of(
                    lambda: cosine_similarity_matrix(
                        H, classes, query_norms=query_norms, class_norms=class_norms
                    ),
                    repeats,
                ),
                dtype_name,
                dim,
                n,
            )
        )

        rows = H[:512]
        ids = y[:512].astype(np.int64)
        for method in ("add_at", "bincount", "matmul"):
            records.append(
                make_record(
                    f"scatter_{method}",
                    _best_of(lambda: segment_sum(rows, ids, 5, method=method), repeats),
                    dtype_name,
                    dim,
                    512,
                )
            )

        records.append(
            make_record(
                "adaptive_epoch",
                _best_of(
                    lambda: adaptive_epoch(
                        classes.copy(),
                        H,
                        y,
                        learning_rate=1.0,
                        rng=0,
                        query_norms=query_norms,
                        class_norms=class_norms.copy(),
                    ),
                    repeats,
                ),
                dtype_name,
                dim,
                n,
            )
        )
        if dtype == np.float64:
            records.append(
                make_record(
                    "adaptive_epoch_legacy",
                    _best_of(
                        lambda: _legacy_adaptive_epoch(
                            classes.copy(), H, y, learning_rate=1.0, rng=0
                        ),
                        repeats,
                    ),
                    "float64",
                    dim,
                    n,
                    note="seed-equivalent np.add.at + per-batch norms",
                )
            )
    return records


def bench_fit(
    dim: int = 500,
    n: int = 4000,
    epochs: int = 8,
    repeats: int = 2,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """End-to-end ``CyberHD.fit`` at paper scale: current backend vs seed.

    The two measurements run the same algorithm on the same synthetic
    NSL-KDD-sized workload; the ``fit_speedup`` record carries the ratio the
    acceptance gate reads.
    """
    X, y = _fit_workload(n, seed)
    base = dict(
        dim=dim,
        epochs=epochs,
        regeneration_rate=0.10,
        regeneration_interval=1,
        seed=seed,
    )

    def run_current():
        CyberHD(CyberHDConfig(dtype="float32", **base)).fit(X, y)

    def run_legacy():
        legacy_fit_cyberhd(
            np.asarray(X, dtype=np.float64),
            np.asarray(y, dtype=np.int64),
            CyberHDConfig(dtype="float64", **base),
        )

    current = _best_of(run_current, repeats)
    legacy = _best_of(run_legacy, repeats)
    records = [
        make_record("fit_cyberhd", current, "float32", dim, n, epochs=epochs),
        make_record(
            "fit_cyberhd_seed_equivalent",
            legacy,
            "float64",
            dim,
            n,
            epochs=epochs,
            note="float64 + np.add.at + full re-encode per regeneration",
        ),
        make_record(
            "fit_speedup",
            current,
            "float32",
            dim,
            n,
            speedup=legacy / current if current > 0 else float("inf"),
            baseline_wall_time_s=legacy,
        ),
    ]
    return records


def run_benchmarks(
    dim: int = 500,
    n_primitives: int = 2000,
    n_fit: int = 4000,
    epochs: int = 8,
    repeats: int = 3,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """Run the full harness (primitives + end-to-end fit)."""
    if quick:
        n_primitives, n_fit, epochs, repeats = 500, 800, 3, 1
    records = bench_primitives(dim=dim, n=n_primitives, repeats=repeats)
    records += bench_fit(dim=dim, n=n_fit, epochs=epochs, repeats=max(1, repeats - 1))
    return records


def format_table(records: Sequence[Dict[str, Any]]) -> str:
    """Plain-text table of benchmark records."""
    lines = [f"{'op':<32} {'dtype':<8} {'D':>6} {'n':>7} {'wall_time_s':>12}  extra"]
    lines.append("-" * len(lines[0]))
    for r in records:
        extra = ", ".join(
            f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in r.items()
            if k not in ("op", "dtype", "D", "n", "wall_time_s")
        )
        lines.append(
            f"{r['op']:<32} {r['dtype']:<8} {r['D']:>6} {r['n']:>7} "
            f"{r['wall_time_s']:>12.6f}  {extra}"
        )
    return "\n".join(lines)


__all__ = [
    "BENCH_JSON_NAME",
    "BENCH_STREAMING_JSON_NAME",
    "BENCH_CLUSTER_JSON_NAME",
    "BENCH_REPLAY_JSON_NAME",
    "BENCH_BITPACK_JSON_NAME",
    "BENCH_CHAOS_JSON_NAME",
    "BENCH_FABRIC_JSON_NAME",
    "BENCH_CASCADE_JSON_NAME",
    "make_record",
    "write_bench_json",
    "bench_provenance",
    "bench_primitives",
    "bench_fit",
    "run_benchmarks",
    "bench_streaming",
    "run_streaming_benchmarks",
    "bench_cluster",
    "run_cluster_benchmarks",
    "bench_replay",
    "run_replay_benchmarks",
    "bench_bitpack",
    "run_bitpack_benchmarks",
    "bench_chaos",
    "run_chaos_benchmarks",
    "bench_fabric",
    "run_fabric_benchmarks",
    "bench_cascade",
    "run_cascade_benchmarks",
    "diff_bench_payloads",
    "legacy_detect_stream",
    "format_table",
    "legacy_fit_cyberhd",
]


# ----------------------------------------------- streaming serving benchmark
BENCH_STREAMING_JSON_NAME = "BENCH_streaming.json"


class _LegacyFlowRecord:
    """Seed-equivalent flow record: per-packet Python list buffers."""

    __slots__ = (
        "key", "initiator_ip", "initiator_port", "start_time", "end_time",
        "label", "fwd_packets", "bwd_packets", "fwd_bytes", "bwd_bytes",
        "fwd_lengths", "bwd_lengths", "timestamps", "syn_count", "fin_count",
        "rst_count", "psh_count", "ack_count", "urg_count", "distinct_dst_ports",
        "protocol",
    )

    def __init__(self, packet):
        from repro.nids.flow import FlowKey

        self.key = FlowKey.from_packet(packet)
        self.protocol = packet.protocol
        self.initiator_ip = packet.src_ip
        self.initiator_port = packet.src_port
        self.start_time = packet.timestamp
        self.end_time = packet.timestamp
        self.label = "benign"
        self.fwd_packets = 0
        self.bwd_packets = 0
        self.fwd_bytes = 0
        self.bwd_bytes = 0
        self.fwd_lengths = []
        self.bwd_lengths = []
        self.timestamps = []
        self.syn_count = 0
        self.fin_count = 0
        self.rst_count = 0
        self.psh_count = 0
        self.ack_count = 0
        self.urg_count = 0
        self.distinct_dst_ports = set()
        self.add_packet(packet)

    def add_packet(self, packet):
        from repro.nids.packets import TCP_FLAGS

        is_forward = (
            packet.src_ip == self.initiator_ip and packet.src_port == self.initiator_port
        )
        self.end_time = max(self.end_time, packet.timestamp)
        self.timestamps.append(packet.timestamp)
        if is_forward:
            self.fwd_packets += 1
            self.fwd_bytes += packet.length
            self.fwd_lengths.append(packet.length)
            self.distinct_dst_ports.add(packet.dst_port)
        else:
            self.bwd_packets += 1
            self.bwd_bytes += packet.length
            self.bwd_lengths.append(packet.length)
        if packet.protocol == "tcp":
            self.syn_count += bool(packet.tcp_flags & TCP_FLAGS["SYN"])
            self.fin_count += bool(packet.tcp_flags & TCP_FLAGS["FIN"])
            self.rst_count += bool(packet.tcp_flags & TCP_FLAGS["RST"])
            self.psh_count += bool(packet.tcp_flags & TCP_FLAGS["PSH"])
            self.ack_count += bool(packet.tcp_flags & TCP_FLAGS["ACK"])
            self.urg_count += bool(packet.tcp_flags & TCP_FLAGS["URG"])
        if packet.label != "benign" and self.label == "benign":
            self.label = packet.label


class _LegacyFlowTable:
    """Seed-equivalent flow table: per-packet dict churn + O(active) expiry scan."""

    def __init__(self, idle_timeout=5.0, max_flow_duration=120.0):
        self.idle_timeout = idle_timeout
        self.max_flow_duration = max_flow_duration
        self._active = {}

    def add_packet(self, packet):
        from repro.nids.flow import FlowKey

        expired = []
        stale = [
            key
            for key, record in self._active.items()
            if (packet.timestamp - record.end_time) > self.idle_timeout
            or (packet.timestamp - record.start_time) > self.max_flow_duration
        ]
        for key in stale:
            expired.append(self._active.pop(key))
        key = FlowKey.from_packet(packet)
        record = self._active.get(key)
        if record is None:
            self._active[key] = _LegacyFlowRecord(packet)
        else:
            record.add_packet(packet)
        return expired

    def flush(self):
        flows = list(self._active.values())
        self._active.clear()
        return flows


def _legacy_extract(flow) -> np.ndarray:
    """Seed-equivalent per-flow feature extraction (list buffers, float64)."""
    duration = max(0.0, flow.end_time - flow.start_time)
    safe_duration = max(duration, 1e-6)
    fwd_lengths = np.asarray(flow.fwd_lengths, dtype=np.float64)
    bwd_lengths = np.asarray(flow.bwd_lengths, dtype=np.float64)
    timestamps = np.sort(np.asarray(flow.timestamps, dtype=np.float64))
    iats = np.diff(timestamps) if timestamps.size > 1 else np.zeros(1)

    def stats(values):
        if values.size == 0:
            return 0.0, 0.0, 0.0, 0.0
        return float(values.mean()), float(values.std()), float(values.max()), float(values.min())

    fwd_mean, fwd_std, fwd_max, fwd_min = stats(fwd_lengths)
    bwd_mean, bwd_std, _, _ = stats(bwd_lengths)
    iat_mean, iat_std, iat_max, iat_min = stats(iats)
    total_packets = flow.fwd_packets + flow.bwd_packets
    total_bytes = flow.fwd_bytes + flow.bwd_bytes
    return np.asarray(
        [
            duration, float(total_packets), float(total_bytes),
            float(flow.fwd_packets), float(flow.bwd_packets),
            float(flow.fwd_bytes), float(flow.bwd_bytes),
            total_bytes / safe_duration, total_packets / safe_duration,
            flow.bwd_packets / max(flow.fwd_packets, 1),
            fwd_mean, fwd_std, fwd_max, fwd_min, bwd_mean, bwd_std,
            iat_mean, iat_std, iat_max, iat_min,
            float(flow.syn_count), float(flow.fin_count), float(flow.rst_count),
            float(flow.psh_count), float(flow.ack_count), float(flow.urg_count),
            flow.syn_count / max(total_packets, 1),
            float(len(flow.distinct_dst_ports)),
            1.0 if flow.protocol == "tcp" else 0.0,
            1.0 if flow.protocol == "udp" else 0.0,
        ],
        dtype=np.float64,
    )


def legacy_detect_stream(packets, pipeline, window_size: int):
    """Seed-equivalent packets->alerts serving loop.

    Per-packet flow-table updates (with the O(active) expiry scan on every
    packet), a per-flow Python loop of NumPy feature extraction, and one
    ``predict_scores`` call per window -- the exact shape of the seed
    ``StreamingDetector`` + ``DetectionPipeline`` path, run against the same
    trained classifier and scaler as the current subsystem.

    Returns ``(n_flows, window_latencies)`` where ``window_latencies`` is a
    list of ``(seconds, n_flows)`` detection-time pairs.
    """
    table = _LegacyFlowTable()
    buffer = []
    latencies = []
    total_flows = 0

    def detect(flows):
        nonlocal total_flows
        if not flows:
            return
        start = time.perf_counter()
        X = np.stack([_legacy_extract(f) for f in flows])
        if pipeline._scaler is not None:
            X = pipeline._scaler.transform(X)
        scores = pipeline.classifier.predict_scores(X)
        np.argmax(scores, axis=1)
        latencies.append((time.perf_counter() - start, len(flows)))
        total_flows += len(flows)

    for packet in packets:
        buffer.append(packet)
        if len(buffer) >= window_size:
            expired = []
            for p in buffer:
                expired.extend(table.add_packet(p))
            buffer = []
            detect(expired)
    expired = []
    for p in buffer:
        expired.extend(table.add_packet(p))
    expired.extend(table.flush())
    detect(expired)
    return total_flows, latencies


def _flow_latency_percentiles(latencies) -> Dict[str, float]:
    """p50/p95 per-flow detection latency from (seconds, n_flows) pairs."""
    per_flow = np.concatenate(
        [np.full(n, seconds) for seconds, n in latencies if n > 0]
    ) if any(n > 0 for _, n in latencies) else np.zeros(1)
    return {
        "p50_flow_latency_ms": float(np.percentile(per_flow, 50) * 1e3),
        "p95_flow_latency_ms": float(np.percentile(per_flow, 95) * 1e3),
    }


def bench_streaming(
    n_packets: int = 50_000,
    window: int = 1000,
    dim: int = 256,
    epochs: int = 5,
    train_flows: int = 300,
    repeats: int = 1,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """End-to-end packets->alerts throughput: serving subsystem vs seed path.

    Both measurements classify the same synthetic packet stream with the
    same trained classifier and scaler; only the serving machinery differs
    (columnar flow engine + vectorized extraction + engine micro-batching
    vs per-packet scalar loops).  The ``streaming_speedup`` record carries
    the ratio the acceptance gate reads.
    """
    from repro.core.cyberhd import CyberHD
    from repro.nids.packets import TrafficGenerator
    from repro.nids.pipeline import DetectionPipeline
    from repro.nids.streaming import StreamingDetector

    generator = TrafficGenerator(seed=seed)
    train_packets = generator.generate(train_flows)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=dim, epochs=epochs, regeneration_rate=0.1, seed=seed)
    ).fit_packets(train_packets)

    stream_gen = TrafficGenerator(seed=seed + 1)
    packets = stream_gen.generate(max(8, int(n_packets / 28)))
    top_up = 0
    while len(packets) < n_packets:
        # Fresh seed per top-up so the tail is new traffic, not repeats of
        # the same flow set; size each chunk to the remaining shortfall.
        top_up += 1
        shortfall_flows = max(32, (n_packets - len(packets)) // 25)
        packets += TrafficGenerator(seed=seed + 2 + top_up).generate(
            shortfall_flows, start_time=packets[-1].timestamp + 60.0
        )
    packets = packets[:n_packets]

    def run_current():
        detector = StreamingDetector(pipeline, window_size=window)
        detector.push_many(packets)
        detector.flush()
        return detector

    def run_legacy():
        return legacy_detect_stream(packets, pipeline, window)

    # Current serving subsystem.
    best_current = float("inf")
    detector = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        candidate = run_current()
        elapsed = time.perf_counter() - start
        if elapsed < best_current:
            best_current, detector = elapsed, candidate
    current_latencies = [(r.latency_seconds, r.n_flows) for r in detector.results]

    # Seed-equivalent scalar path.
    best_legacy = float("inf")
    legacy_latencies = []
    legacy_flows = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        legacy_flows, legacy_latencies = run_legacy()
        best_legacy = min(best_legacy, time.perf_counter() - start)

    # The speedup claim only means something if both paths served the same
    # workload: the columnar engine must emit exactly the seed's flow set.
    if detector.total_flows != legacy_flows:
        raise RuntimeError(
            f"flow-count mismatch between serving paths: current="
            f"{detector.total_flows}, seed-equivalent={legacy_flows}"
        )

    n = len(packets)
    records = [
        make_record(
            "streaming_serve",
            best_current,
            "float32",
            dim,
            n,
            packets_per_second=n / best_current,
            flows=detector.total_flows,
            window=window,
            **_flow_latency_percentiles(current_latencies),
        ),
        make_record(
            "streaming_seed_equivalent",
            best_legacy,
            "float64",
            dim,
            n,
            packets_per_second=n / best_legacy,
            flows=legacy_flows,
            window=window,
            note="per-packet flow table + per-flow extract loop",
            **_flow_latency_percentiles(legacy_latencies),
        ),
        make_record(
            "streaming_speedup",
            best_current,
            "float32",
            dim,
            n,
            speedup=best_legacy / best_current if best_current > 0 else float("inf"),
            baseline_wall_time_s=best_legacy,
        ),
    ]
    return records


def run_streaming_benchmarks(
    n_packets: int = 50_000,
    window: int = 1000,
    dim: int = 256,
    repeats: int = 1,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``bench --suite streaming`` entry point.

    ``quick`` shrinks the workload for a CI smoke run, but only the
    parameters the caller left at their defaults -- explicit ``--packets``
    / ``--window`` / ``--dim`` values always win, and repeats drop to 1.
    """
    if quick:
        if n_packets == 50_000:
            n_packets = 8_000
        if window == 1000:
            window = 500
        if dim == 256:
            dim = 128
        repeats = 1
    return bench_streaming(
        n_packets=n_packets, window=window, dim=dim, repeats=repeats
    )


# ------------------------------------------------------- cluster scaling bench
BENCH_CLUSTER_JSON_NAME = "BENCH_cluster.json"


def bench_cluster(
    scenario: str = "mixed_benign",
    workers: int = 4,
    flows_scale: float = 2.0,
    batch_size: int = 512,
    dim: int = 256,
    epochs: int = 5,
    train_flows: int = 300,
    sync_interval: int = 8,
    online: bool = True,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Sharded cluster serving vs the single-process engine, same scenario.

    Both paths serve the identical scenario packet stream with the same
    trained pipeline.  The single-process baseline is the PR 2 path
    (``StreamingDetector`` over the ``InferenceEngine``); the cluster path is
    ``ClusterCoordinator`` with ``workers`` replica processes.

    Two throughput notions are reported, deliberately:

    * ``wall`` -- total flows over wall-clock seconds.  This is what an
      operator observes on *this* host, and on a host with fewer cores than
      workers it is bounded by the hardware, not the architecture.
    * ``aggregate`` -- the sum of per-replica sustained rates (each worker's
      flows over its own busy seconds).  This is the cluster's capacity when
      every worker has a core to itself; it is the number the
      ``cluster_speedup`` record carries, alongside ``wall_speedup`` and the
      host ``cpu_count`` in the file's provenance so the two readings are
      never conflated.
    """
    from repro.cluster import ClusterConfig, ClusterCoordinator, get_scenario
    from repro.core.cyberhd import CyberHD
    from repro.nids.pipeline import DetectionPipeline
    from repro.nids.streaming import StreamingDetector
    from repro.serving import OnlineLearner

    load = get_scenario(scenario)
    train_packets = load.training_packets(n_flows=train_flows, seed=seed)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=dim, epochs=epochs, regeneration_rate=0.1, seed=seed)
    ).fit_packets(train_packets)
    packets = load.build_packets(
        seed=seed + 1, flows_scale=flows_scale, start_time=train_packets[-1].timestamp + 60.0
    )
    n_packets = len(packets)

    # ---- single-process PR 2 baseline ---------------------------------
    learner = None
    if online:
        # partial_fit only (no replay, no regeneration): the same learning
        # rule the cluster workers run, so the comparison is architecture vs
        # architecture rather than learning-schedule vs learning-schedule.
        learner = OnlineLearner(
            pipeline.classifier, passes=1, replay_rows=0, regenerate=False, monitor=None
        )
    single_model = pipeline.classifier.class_vector_snapshot()
    detector = StreamingDetector(pipeline, window_size=batch_size, online=learner)
    start = time.perf_counter()
    cpu_start = time.process_time()
    detector.push_many(packets)
    detector.flush()
    single_wall = time.perf_counter() - start
    single_cpu = time.process_time() - cpu_start
    single_flows = detector.total_flows
    single_wall_rate = single_flows / single_wall if single_wall > 0 else 0.0
    single_cpu_rate = single_flows / single_cpu if single_cpu > 0 else 0.0
    # Restore the pre-serve model so the cluster starts from the same state.
    pipeline.classifier.set_class_vectors(single_model)

    # ---- sharded cluster ----------------------------------------------
    coordinator = ClusterCoordinator(
        pipeline,
        ClusterConfig(
            n_workers=workers,
            batch_size=batch_size,
            sync_interval=sync_interval,
            online=online,
        ),
    )
    report = coordinator.serve(packets)
    if report.total_flows != single_flows:
        raise RuntimeError(
            "flow-count mismatch between serving paths: cluster="
            f"{report.total_flows}, single-process={single_flows}"
        )

    aggregate_rate = report.aggregate_flow_throughput
    wall_rate = report.wall_flow_throughput
    records = [
        make_record(
            "cluster_single_process",
            single_wall,
            "float32",
            dim,
            n_packets,
            scenario=scenario,
            flows=single_flows,
            flows_per_second=single_wall_rate,
            cpu_seconds=single_cpu,
            flows_per_cpu_second=single_cpu_rate,
            note="PR 2 StreamingDetector path",
        ),
        make_record(
            "cluster_serve",
            report.wall_seconds,
            "float32",
            dim,
            n_packets,
            scenario=scenario,
            workers=workers,
            flows=report.total_flows,
            alerts=report.total_alerts,
            sync_rounds=report.sync_rounds,
            generation=report.generation,
            wall_flows_per_second=wall_rate,
            aggregate_flows_per_second=aggregate_rate,
            aggregate_packets_per_second=report.aggregate_packet_throughput,
            coordinator_cpu_seconds=report.coordinator_cpu_seconds,
            routing_packets_per_cpu_second=report.routing_packets_per_cpu_second,
            transport=report.transport,
        ),
    ]
    for worker in report.workers:
        records.append(
            make_record(
                f"cluster_worker_{worker.worker_id}",
                worker.busy_seconds,
                "float32",
                dim,
                worker.packets,
                scenario=scenario,
                flows=worker.flows,
                alerts=worker.alerts,
                batches=worker.batches,
                busy_cpu_seconds=worker.busy_cpu_seconds,
                flows_per_cpu_second=worker.flow_throughput,
                online_updates=worker.online_updates,
            )
        )
    aggregate_speedup = aggregate_rate / single_cpu_rate if single_cpu_rate > 0 else 0.0
    wall_speedup = wall_rate / single_wall_rate if single_wall_rate > 0 else 0.0
    transport = report.transport or {}
    records.append(
        make_record(
            "cluster_speedup",
            report.wall_seconds,
            "float32",
            dim,
            n_packets,
            scenario=scenario,
            workers=workers,
            speedup=aggregate_speedup,
            wall_speedup=wall_speedup,
            scaling_efficiency=aggregate_speedup / workers if workers else 0.0,
            baseline_wall_time_s=single_wall,
            # Coordinator CPU spent columnarizing + copying frames into ring
            # slots -- the producer-pays cost that replaced per-batch pickle.
            transport_overhead_s=float(transport.get("serialize_cpu_seconds", 0.0)),
            routing_cpu_fraction=(
                report.routing_cpu_seconds / report.coordinator_cpu_seconds
                if report.coordinator_cpu_seconds > 0
                else 0.0
            ),
            note="speedup = aggregate capacity (sum of per-replica per-core "
            "rates) vs the single-process per-core rate; wall_speedup is the "
            "same-host wall-clock ratio, bounded by provenance.cpu_count",
        )
    )
    return records


def run_cluster_benchmarks(
    scenario: str = "mixed_benign",
    workers: int = 4,
    flows_scale: float = 2.0,
    batch_size: int = 512,
    dim: int = 256,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``bench --suite cluster`` entry point.

    ``quick`` shrinks the workload for a CI smoke run, but only the
    parameters the caller left at their defaults -- explicit values always
    win.
    """
    if quick:
        if flows_scale == 2.0:
            flows_scale = 0.4
        if dim == 256:
            dim = 128
        if batch_size == 512:
            batch_size = 256
    return bench_cluster(
        scenario=scenario,
        workers=workers,
        flows_scale=flows_scale,
        batch_size=batch_size,
        dim=dim,
    )


# -------------------------------------------------- dataset replay benchmark
BENCH_REPLAY_JSON_NAME = "BENCH_replay.json"


def bench_replay(
    dataset: str = "nsl_kdd",
    n_train: int = 600,
    n_test: int = 240,
    dim: int = 256,
    epochs: int = 5,
    window: int = 512,
    micro_window: int = 64,
    workers: int = 2,
    rates: Sequence[float] = (5_000.0, 25_000.0, 100_000.0, 400_000.0),
    seed: int = 0,
    cluster: bool = True,
) -> List[Dict[str, Any]]:
    """Dataset-to-traffic replay: golden-trace parity + accuracy under load.

    The suite compiles the dataset's train/test splits into packet traces,
    trains a pipeline on the compiled training traffic, records the offline
    golden predictions for the test trace, then measures two things:

    * **parity** -- flow-for-flow agreement of the single-process,
      micro-batched and ``workers``-worker cluster serving paths with the
      offline batch path (the ``parity_ok`` fields are the correctness
      gate: a value of 0 means the serving stack and the paper's evaluation
      path disagree about which flows are attacks);
    * **accuracy under load** -- open-loop replay at each rate in
      ``rates`` (packets/second) against a bounded ``drop_oldest`` queue,
      reporting detection recall/precision and shed fraction as the offered
      rate passes serving capacity.
    """
    from repro.core.cyberhd import CyberHD
    from repro.datasets.loaders import load_dataset
    from repro.nids.pipeline import DetectionPipeline
    from repro.replay import (
        DatasetTraceCompiler,
        DifferentialHarness,
        ReplayConfig,
        TraceReplayer,
    )

    records: List[Dict[str, Any]] = []

    # ---- compile ---------------------------------------------------------
    ds = load_dataset(dataset, n_train=n_train, n_test=n_test, seed=seed)
    compiler = DatasetTraceCompiler()
    start = time.perf_counter()
    train_trace = compiler.compile(ds, split="train", seed=seed)
    test_trace = compiler.compile(ds, split="test", seed=seed + 1)
    compile_wall = time.perf_counter() - start
    records.append(
        make_record(
            "replay_compile",
            compile_wall,
            "float32",
            dim,
            train_trace.n_packets + test_trace.n_packets,
            dataset=dataset,
            flows=train_trace.n_flows + test_trace.n_flows,
            packets_per_second=(train_trace.n_packets + test_trace.n_packets)
            / max(compile_wall, 1e-9),
            trace_seconds=test_trace.duration_seconds,
        )
    )

    # ---- train on the compiled training traffic --------------------------
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=dim, epochs=epochs, regeneration_rate=0.1, seed=seed)
    )
    start = time.perf_counter()
    pipeline.fit_packets(train_trace.packets)
    records.append(
        make_record(
            "replay_train",
            time.perf_counter() - start,
            "float32",
            dim,
            train_trace.n_flows,
            dataset=dataset,
            classes=len(pipeline.class_names),
        )
    )

    # ---- golden offline reference + parity across architectures ----------
    start = time.perf_counter()
    harness = DifferentialHarness(
        pipeline,
        test_trace,
        window_size=window,
        micro_window_size=micro_window,
        cluster_workers=workers,
    )
    golden_wall = time.perf_counter() - start
    records.append(
        make_record(
            "replay_golden_offline",
            golden_wall,
            "float32",
            dim,
            test_trace.n_packets,
            dataset=dataset,
            flows=harness.golden.n_flows,
            flagged=harness.golden.n_flagged,
            packets_per_second=test_trace.n_packets / max(golden_wall, 1e-9),
        )
    )
    paths = [
        ("single_process", harness.run_single_process),
        ("microbatched", harness.run_microbatched),
    ]
    if cluster and workers > 1:
        paths.append((f"cluster_{workers}w", harness.run_cluster))
    for name, run in paths:
        start = time.perf_counter()
        report = run()
        records.append(
            make_record(
                f"replay_parity_{name}",
                time.perf_counter() - start,
                "float32",
                dim,
                test_trace.n_packets,
                dataset=dataset,
                parity_ok=int(report.ok),
                missing=len(report.missing_flows),
                prediction_mismatches=len(report.prediction_mismatches),
                flag_mismatches=len(report.flag_mismatches),
                confidence_mismatches=len(report.confidence_mismatches),
                max_confidence_delta=report.max_confidence_delta,
            )
        )

    # ---- closed-loop capacity baseline ------------------------------------
    closed = TraceReplayer(
        pipeline, ReplayConfig(mode="closed", window_size=window)
    ).replay(test_trace)
    records.append(
        make_record(
            "replay_closed_loop",
            closed.wall_seconds,
            "float32",
            dim,
            closed.n_packets_served,
            dataset=dataset,
            packets_per_second=closed.packets_per_second,
            flows=closed.n_flows_served,
            alerts=closed.n_alerts,
            recall=closed.metrics["recall"],
            precision=closed.metrics["precision"],
            served_fraction=closed.metrics["served_fraction"],
        )
    )

    # ---- accuracy-under-load curve (open loop, drop_oldest) ---------------
    for rate in rates:
        result = TraceReplayer(
            pipeline,
            ReplayConfig(
                mode="open",
                rate=float(rate),
                window_size=window,
                queue_capacity=2 * window,
            ),
        ).replay(test_trace)
        records.append(
            make_record(
                "replay_open_loop",
                result.wall_seconds,
                "float32",
                dim,
                result.n_packets_submitted,
                dataset=dataset,
                offered_rate=float(rate),
                achieved_rate=result.packets_per_second,
                dropped_packets=result.dropped_packets,
                served_fraction=result.metrics["served_fraction"],
                recall=result.metrics["recall"],
                precision=result.metrics["precision"],
                flows=result.n_flows_served,
            )
        )
    return records


def run_replay_benchmarks(
    dataset: str = "nsl_kdd",
    workers: int = 2,
    window: Optional[int] = None,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``bench --suite replay`` entry point.

    ``window`` and ``dim`` default to 512 / 256 (256 / 128 under
    ``quick``); pass explicit values to override either -- ``None`` means
    "use the suite default", so an explicit value always wins, including
    one that happens to equal a default.
    """
    n_train, n_test, epochs = 600, 240, 5
    rates: Sequence[float] = (5_000.0, 25_000.0, 100_000.0, 400_000.0)
    if quick:
        n_train, n_test, epochs = 300, 120, 3
        rates = (4_000.0, 150_000.0)
    if dim is None:
        dim = 128 if quick else 256
    if window is None:
        window = 256 if quick else 512
    return bench_replay(
        dataset=dataset,
        n_train=n_train,
        n_test=n_test,
        dim=dim,
        epochs=epochs,
        window=window,
        workers=workers,
        rates=rates,
    )


# ---------------------------------------------- bit-packed inference benchmark
BENCH_BITPACK_JSON_NAME = "BENCH_bitpack.json"


def bench_bitpack_primitives(
    dims: Sequence[int] = (4096, 8192),
    n: int = 4000,
    n_classes: int = 5,
    repeats: int = 5,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Packed XOR/popcount scoring vs the float32 cosine kernel.

    Three timings per dimensionality, all scoring the same ``(n, D)`` query
    block against ``n_classes`` classes:

    * ``bitpack_scores_float32`` -- the float32 cosine kernel (what the
      full-precision serving path runs);
    * ``bitpack_scores_packed`` -- XOR + popcount over pre-packed queries
      (the serving steady state: queries are packed once at encode time by
      the fused ``encode_packed`` path);
    * ``bitpack_scores_end_to_end`` -- sign-binarize + pack + score, i.e.
      the full cost of entering the binary domain from a float encoding.

    ``bitpack_score_speedup`` carries the packed-vs-float32 ratio (the
    acceptance gate's number) and ``bitpack_model_bytes`` the storage
    reduction.
    """
    from repro.hdc.bitpack import PackedClassMatrix, pack_sign_bits

    rng = np.random.default_rng(seed)
    records: List[Dict[str, Any]] = []
    for dim in dims:
        classes = rng.standard_normal((n_classes, dim)).astype(np.float32)
        H = rng.standard_normal((n, dim)).astype(np.float32)
        packed = PackedClassMatrix.from_class_matrix(classes)
        packed_queries = packed.pack_queries(H)

        t_float = _best_of(lambda: cosine_similarity_matrix(H, classes), repeats)
        t_packed = _best_of(lambda: packed.scores_packed(packed_queries), repeats)
        t_end_to_end = _best_of(lambda: packed.scores(H), repeats)
        t_pack = _best_of(lambda: pack_sign_bits(H), repeats)

        records.append(
            make_record(
                "bitpack_scores_float32", t_float, "float32", dim, n,
                scores_per_second=n / t_float,
            )
        )
        records.append(
            make_record(
                "bitpack_scores_packed", t_packed, "uint64", dim, n,
                scores_per_second=n / t_packed,
            )
        )
        records.append(
            make_record(
                "bitpack_scores_end_to_end", t_end_to_end, "uint64", dim, n,
                scores_per_second=n / t_end_to_end,
                note="sign-binarize + pack + XOR/popcount score",
            )
        )
        records.append(
            make_record(
                "bitpack_pack_queries", t_pack, "uint64", dim, n,
                rows_per_second=n / t_pack,
            )
        )
        records.append(
            make_record(
                "bitpack_score_speedup", t_packed, "uint64", dim, n,
                speedup=t_float / t_packed if t_packed > 0 else float("inf"),
                end_to_end_speedup=t_float / t_end_to_end if t_end_to_end > 0 else float("inf"),
                baseline_wall_time_s=t_float,
                note="pre-packed queries vs float32 cosine kernel",
            )
        )
        model_bytes_float32 = int(classes.nbytes)
        records.append(
            make_record(
                "bitpack_model_bytes", 0.0, "uint64", dim, n_classes,
                model_bytes_float32=model_bytes_float32,
                model_bytes_packed=packed.nbytes,
                bytes_reduction=model_bytes_float32 / packed.nbytes,
            )
        )
    return records


def bench_bitpack_serving(
    dataset: str = "nsl_kdd",
    n_train: int = 600,
    n_test: int = 240,
    dim: int = 256,
    epochs: int = 5,
    window: int = 512,
    micro_window: int = 64,
    workers: int = 2,
    fault_rates: Sequence[float] = (0.001, 0.005, 0.01, 0.05, 0.10),
    seed: int = 0,
    cluster: bool = True,
) -> List[Dict[str, Any]]:
    """Packed serving on one dataset: golden parity + live fault injection.

    * **parity** -- the golden record is the offline 1-bit batch path run
      through the float-GEMM :class:`QuantizedClassMatrix` (packed serving
      disabled); each serving path then replays the trace with the packed
      XOR/popcount fabric.  ``parity_ok == 1`` means the packed words and the
      quantized float path flag the same flows with bit-identical scores --
      the differential evidence that packing is a representation change, not
      a semantic one.
    * **fault injection** -- Fig. 5's robustness scenario as a serving
      workload: random bits of the deployed packed model are flipped at each
      rate in ``fault_rates`` and the corrupted model keeps serving the
      replayed trace; recall/precision are measured against the trace labels
      and prediction agreement against the clean serving run.
    """
    from repro.core.cyberhd import CyberHD
    from repro.datasets.loaders import load_dataset
    from repro.nids.pipeline import DetectionPipeline
    from repro.replay import (
        DatasetTraceCompiler,
        DifferentialHarness,
        ReplayConfig,
        TraceReplayer,
    )
    from repro.serving.faults import ServingFaultInjector

    records: List[Dict[str, Any]] = []
    ds = load_dataset(dataset, n_train=n_train, n_test=n_test, seed=seed)
    compiler = DatasetTraceCompiler()
    train_trace = compiler.compile(ds, split="train", seed=seed)
    test_trace = compiler.compile(ds, split="test", seed=seed + 1)
    pipeline = DetectionPipeline(
        classifier=CyberHD(
            dim=dim, epochs=epochs, regeneration_rate=0.1, seed=seed, inference_bits=1
        )
    ).fit_packets(train_trace.packets)
    classifier = pipeline.classifier

    # ---- golden (offline 1-bit batch via the quantized GEMM path) ---------
    classifier.packed_inference = False
    classifier._invalidate_inference_caches()
    harness = DifferentialHarness(
        pipeline,
        test_trace,
        window_size=window,
        micro_window_size=micro_window,
        cluster_workers=workers,
    )
    classifier.packed_inference = True
    classifier._invalidate_inference_caches()

    paths = [
        ("single_process", harness.run_single_process),
        ("microbatched", harness.run_microbatched),
    ]
    if cluster and workers > 1:
        paths.append((f"cluster_{workers}w", harness.run_cluster))
    for name, run in paths:
        start = time.perf_counter()
        report = run()
        records.append(
            make_record(
                f"bitpack_parity_{name}",
                time.perf_counter() - start,
                "uint64",
                dim,
                test_trace.n_packets,
                dataset=dataset,
                parity_ok=int(report.ok),
                missing=len(report.missing_flows),
                prediction_mismatches=len(report.prediction_mismatches),
                flag_mismatches=len(report.flag_mismatches),
                confidence_mismatches=len(report.confidence_mismatches),
                max_confidence_delta=report.max_confidence_delta,
                note="packed XOR/popcount serving vs offline 1-bit GEMM batch",
            )
        )

    # ---- serving-time fault injection (Fig. 5, live) ----------------------
    def replay_once():
        return TraceReplayer(
            pipeline, ReplayConfig(mode="closed", window_size=window)
        ).replay(test_trace)

    clean = replay_once()
    clean_predictions = {
        token: record.prediction for token, record in clean.predictions.items()
    }
    records.append(
        make_record(
            "bitpack_fault_recall",
            clean.wall_seconds,
            "uint64",
            dim,
            clean.n_packets_served,
            dataset=dataset,
            error_rate=0.0,
            flipped_bits=0,
            recall=clean.metrics["recall"],
            precision=clean.metrics["precision"],
            prediction_agreement=1.0,
            packets_per_second=clean.packets_per_second,
        )
    )
    for rate in fault_rates:
        injector = ServingFaultInjector(float(rate), seed=seed)
        with injector.corrupt(classifier) as stats:
            result = replay_once()
        agreement = float(
            np.mean(
                [
                    result.predictions[token].prediction == prediction
                    for token, prediction in clean_predictions.items()
                    if token in result.predictions
                ]
            )
        )
        records.append(
            make_record(
                "bitpack_fault_recall",
                result.wall_seconds,
                "uint64",
                dim,
                result.n_packets_served,
                dataset=dataset,
                error_rate=float(rate),
                flipped_bits=stats.n_flipped,
                recall=result.metrics["recall"],
                precision=result.metrics["precision"],
                prediction_agreement=agreement,
                packets_per_second=result.packets_per_second,
            )
        )
    return records


def bench_bitpack(
    dims: Sequence[int] = (4096, 8192),
    datasets: Sequence[str] = ("nsl_kdd", "unsw_nb15"),
    n_train: int = 600,
    n_test: int = 240,
    serving_dim: int = 256,
    epochs: int = 5,
    window: int = 512,
    workers: int = 2,
    fault_rates: Sequence[float] = (0.001, 0.005, 0.01, 0.05, 0.10),
    repeats: int = 5,
    seed: int = 0,
    cluster: bool = True,
) -> List[Dict[str, Any]]:
    """The full bitpack suite: kernels + per-dataset packed serving."""
    records = bench_bitpack_primitives(dims=dims, repeats=repeats, seed=seed)
    for dataset in datasets:
        records += bench_bitpack_serving(
            dataset=dataset,
            n_train=n_train,
            n_test=n_test,
            dim=serving_dim,
            epochs=epochs,
            window=window,
            workers=workers,
            fault_rates=fault_rates,
            seed=seed,
            cluster=cluster,
        )
    return records


def run_bitpack_benchmarks(
    workers: int = 2,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``bench --suite bitpack`` entry point.

    ``quick`` shrinks the serving workloads for a CI smoke run but keeps the
    kernel measurement at ``D = 4096`` -- the acceptance floor is defined at
    that dimensionality, so the smoke measures the same operating point as
    the checked-in baseline.  An explicit ``--dim`` overrides the serving
    dimensionality in either mode.
    """
    n_train, n_test, epochs, repeats = 600, 240, 5, 5
    dims: Sequence[int] = (4096, 8192)
    fault_rates: Sequence[float] = (0.001, 0.005, 0.01, 0.05, 0.10)
    cluster = True
    if quick:
        n_train, n_test, epochs, repeats = 300, 120, 3, 3
        dims = (4096,)
        fault_rates = (0.01, 0.10)
        cluster = workers > 1
    return bench_bitpack(
        dims=dims,
        n_train=n_train,
        n_test=n_test,
        serving_dim=dim if dim is not None else (128 if quick else 256),
        epochs=epochs,
        window=256 if quick else 512,
        workers=workers,
        fault_rates=fault_rates,
        repeats=repeats,
        cluster=cluster,
    )


# ------------------------------------------------------------ chaos benchmark
BENCH_CHAOS_JSON_NAME = "BENCH_chaos.json"


def bench_chaos(
    dataset: str = "nsl_kdd",
    n_train: int = 600,
    n_test: int = 240,
    dim: int = 128,
    epochs: int = 3,
    batch_size: int = 64,
    workers: int = 2,
    scenarios: Sequence["tuple[str, Sequence[str]]"] = (
        ("kill", ("kill:0@0.4",)),
        ("hang", ("hang:1@0.3",)),
        ("exit", ("exit:1@0.5",)),
    ),
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Process-fault recovery under replay: the ``--suite chaos`` workload.

    The suite compiles the dataset into a trace, records the offline golden
    predictions, runs one crash-free cluster baseline, then replays the same
    trace under each fault schedule in ``scenarios`` (SIGKILL, non-stamping
    hang, clean-but-premature exit by default).  Every faulted run must
    still end in golden-trace flow parity -- the ``parity_ok`` fields are
    hard gates in ``matrix diff`` -- and two speedup-shaped records make the
    recovery quality gateable with absolute spec floors:

    * ``chaos_recall_retention`` -- faulted-run recall over crash-free
      recall for the SIGKILL scenario (the PR's acceptance bound is 0.99:
      recall within 1pt of the crash-free run);
    * ``chaos_recovery_speed`` -- ``1 / recovery_seconds`` for the SIGKILL
      scenario, so a floor of 0.2 reads "detect-to-recover within 5s".
      The ratio saturates at 2.0 (any recovery under half a second scores
      the same): recovery on an idle host takes tens of milliseconds, and
      an uncapped ratio would turn scheduler noise into a 10x swing that
      the relative baseline comparison then gates on.
    """
    from repro.cluster import ChaosSchedule, run_chaos_replay
    from repro.core.cyberhd import CyberHD
    from repro.datasets.loaders import load_dataset
    from repro.nids.pipeline import DetectionPipeline
    from repro.replay import DatasetTraceCompiler, GoldenTrace

    records: List[Dict[str, Any]] = []

    ds = load_dataset(dataset, n_train=n_train, n_test=n_test, seed=seed)
    compiler = DatasetTraceCompiler()
    train_trace = compiler.compile(ds, split="train", seed=seed)
    test_trace = compiler.compile(ds, split="test", seed=seed + 1)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=dim, epochs=epochs, regeneration_rate=0.1, seed=seed)
    ).fit_packets(train_trace.packets)
    golden = GoldenTrace.record(pipeline, test_trace)

    start = time.perf_counter()
    baseline = run_chaos_replay(
        pipeline,
        test_trace,
        golden=golden,
        n_workers=workers,
        batch_size=batch_size,
    )
    records.append(
        make_record(
            "chaos_baseline",
            time.perf_counter() - start,
            "float32",
            dim,
            test_trace.n_packets,
            dataset=dataset,
            workers=workers,
            parity_ok=int(baseline.parity.ok),
            recall=baseline.metrics["recall"],
            precision=baseline.metrics["precision"],
            served_fraction=baseline.metrics["served_fraction"],
        )
    )

    kill_result = None
    for name, specs in scenarios:
        start = time.perf_counter()
        result = run_chaos_replay(
            pipeline,
            test_trace,
            schedule=ChaosSchedule.parse(specs),
            golden=golden,
            n_workers=workers,
            batch_size=batch_size,
        )
        recovery = result.report.recovery
        records.append(
            make_record(
                f"chaos_{name}",
                time.perf_counter() - start,
                "float32",
                dim,
                test_trace.n_packets,
                dataset=dataset,
                workers=workers,
                schedule=list(specs),
                parity_ok=int(result.ok),
                detection_seconds=result.detection_seconds,
                recovery_seconds=result.recovery_seconds,
                respawns=recovery.total_respawns,
                redispatched_batches=recovery.total_redispatched_batches,
                redispatched_packets=recovery.total_redispatched_packets,
                duplicates_suppressed=recovery.duplicates_suppressed,
                unrecovered_batches=recovery.unrecovered_batches,
                recall=result.metrics["recall"],
                precision=result.metrics["precision"],
                recall_delta=result.metrics["recall"] - baseline.metrics["recall"],
            )
        )
        if name == "kill":
            kill_result = result

    if kill_result is not None:
        base_recall = max(baseline.metrics["recall"], 1e-9)
        records.append(
            make_record(
                "chaos_recall_retention",
                0.0,
                "float32",
                dim,
                test_trace.n_flows,
                dataset=dataset,
                speedup=kill_result.metrics["recall"] / base_recall,
            )
        )
        records.append(
            make_record(
                "chaos_recovery_speed",
                kill_result.recovery_seconds,
                "float32",
                dim,
                kill_result.report.recovery.total_redispatched_batches,
                dataset=dataset,
                recovery_seconds=kill_result.recovery_seconds,
                speedup=1.0 / max(kill_result.recovery_seconds, 0.5),
            )
        )
    return records


def run_chaos_benchmarks(
    dataset: str = "nsl_kdd",
    workers: int = 2,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``bench --suite chaos`` entry point.

    ``quick`` halves the compiled rows for a CI smoke run but keeps every
    fault scenario: the point of the suite is recovery evidence, and a
    smoke that drops the SIGKILL case would gate nothing.
    """
    n_train, n_test, epochs = 600, 240, 3
    if quick:
        n_train, n_test = 400, 120
    return bench_chaos(
        dataset=dataset,
        n_train=n_train,
        n_test=n_test,
        dim=dim if dim is not None else (96 if quick else 128),
        epochs=epochs,
        workers=workers,
    )


# ----------------------------------------------------------- fabric suite
BENCH_FABRIC_JSON_NAME = "BENCH_fabric.json"


def _fabric_recall(pipeline, packets) -> float:
    """Attack recall of one pipeline over one mirrored slice."""
    from repro.fabric import attack_recall
    from repro.replay.replayer import predictions_from_detections

    pipeline.alert_manager.clear()
    result = pipeline.detect_packets(packets, idle_timeout=5.0)
    records = predictions_from_detections([result], pipeline)
    return attack_recall(records.values(), pipeline.is_attack_class)


def bench_fabric(
    tenants: int = 128,
    train_flows: int = 160,
    mirror_flows: int = 240,
    dim: int = 128,
    epochs: int = 3,
    window: int = 256,
    swaps: int = 48,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Multi-tenant model fabric: the ``--suite fabric`` workload.

    Four records cover the fabric's headline claims:

    * ``fabric_tenant_capacity`` -- ``tenants`` packed models published
      resident in shared memory at once, with bytes-per-tenant (the
      tenants-per-host capacity number);
    * ``hot_swap_p95_ms`` -- p95 latency of an alias flip *plus* the
      attached reader materializing the new version, with ``speedup``
      encoded as ``micro_batch_interval_ms / p95`` so the spec floor
      of 1.0 reads "a hot swap completes inside one micro-batch interval";
    * ``shadow_overhead_fraction`` -- candidate mirror wall time over live
      wall time, with ``speedup = 2 / (1 + overhead)`` so a floor of 0.9
      reads "mirroring costs at most ~1.2x the live pass";
    * ``fabric_recall_isolation`` -- online learning confined to one tenant
      must move that tenant's class matrix and *only* that tenant's
      (``parity_ok`` is the hard isolation gate in ``matrix diff``).
    """
    from repro.core.cyberhd import CyberHD
    from repro.fabric import (
        AttachedFabric,
        FabricEngine,
        ModelRegistry,
        TenantKeyer,
        evaluate_candidate,
    )
    from repro.nids.packets import TrafficGenerator
    from repro.nids.pipeline import DetectionPipeline

    records: List[Dict[str, Any]] = []

    def train(model_seed: int, subnet: str) -> DetectionPipeline:
        packets = TrafficGenerator(seed=model_seed, subnet=subnet).generate(
            train_flows
        )
        return DetectionPipeline(
            classifier=CyberHD(
                dim=dim,
                epochs=epochs,
                regeneration_rate=0.1,
                seed=model_seed,
                inference_bits=1,
            )
        ).fit_packets(packets)

    base = train(seed, "10.0.0")
    candidate = train(seed + 1, "10.0.0")
    keyer = TenantKeyer.per_subnet(tenants)
    registry = ModelRegistry(max_tenants=tenants, max_readers=4)
    try:
        # Capacity: the same trained model published into every tenant slot
        # (capacity is about shm residency and publish cost, not training).
        start = time.perf_counter()
        for tenant in range(tenants):
            registry.publish(tenant, base)
        publish_seconds = time.perf_counter() - start
        total_bytes = registry.total_model_bytes()
        records.append(
            make_record(
                "fabric_tenant_capacity",
                publish_seconds,
                "float32",
                dim,
                tenants,
                tenants=tenants,
                total_model_bytes=total_bytes,
                bytes_per_tenant=total_bytes / tenants,
                publish_ms_per_tenant=1e3 * publish_seconds / tenants,
            )
        )

        # Micro-batch interval: how long one engine window takes to serve --
        # the budget a hot swap must fit inside.
        stream = TrafficGenerator(seed=seed + 5000, subnet="10.0.0").generate(
            mirror_flows
        )
        engine = FabricEngine(registry.spec(), keyer, reader_id=2)
        batch_seconds: List[float] = []
        try:
            for i in range(0, len(stream), window):
                t0 = time.perf_counter()
                engine.process_packets(stream[i : i + window])
                batch_seconds.append(time.perf_counter() - t0)
            engine.finalize()
        finally:
            engine.close()
        micro_batch_ms = 1e3 * float(np.mean(batch_seconds))

        # Hot swap: alias flip + the reader picking the new version up.
        v2 = registry.publish(0, candidate)
        v1 = registry.live_version(0)
        reader = AttachedFabric(registry.spec(), reader_id=1)
        try:
            reader.pipeline_for(0)
            swap_ms: List[float] = []
            start = time.perf_counter()
            for i in range(swaps):
                target = v2 if i % 2 == 0 else v1
                t0 = time.perf_counter()
                registry.promote(0, target)
                reader.pipeline_for(0)
                swap_ms.append(1e3 * (time.perf_counter() - t0))
            swap_seconds = time.perf_counter() - start
        finally:
            reader.close()
        p95_ms = float(np.percentile(swap_ms, 95))
        records.append(
            make_record(
                "hot_swap_p95_ms",
                swap_seconds,
                "float32",
                dim,
                swaps,
                p95_ms=p95_ms,
                mean_ms=float(np.mean(swap_ms)),
                micro_batch_interval_ms=micro_batch_ms,
                speedup=micro_batch_ms / max(p95_ms, 1e-9),
            )
        )

        # Shadow overhead: candidate wall time over live wall time on the
        # same mirror.  Best-of-3 so a single scheduler hiccup does not
        # masquerade as mirroring cost.
        mirror = TrafficGenerator(seed=seed + 6000, subnet="10.0.0").generate(
            mirror_flows
        )
        overhead = None
        start = time.perf_counter()
        for _ in range(3):
            decision = evaluate_candidate(
                base,
                candidate,
                mirror,
                recall_tolerance=1.0,
                divergence_budget=1.0,
            )
            fraction = decision.shadow_overhead_fraction
            overhead = fraction if overhead is None else min(overhead, fraction)
        shadow_seconds = time.perf_counter() - start
        records.append(
            make_record(
                "shadow_overhead_fraction",
                shadow_seconds,
                "float32",
                dim,
                decision.n_flows,
                shadow_overhead_fraction=overhead,
                speedup=2.0 / (1.0 + overhead),
            )
        )

        # Recall isolation: online learning on tenant 1's traffic only must
        # leave tenant 2's published class matrix bit-identical.
        before_1 = np.array(registry.publication(1).class_matrix, copy=True)
        before_2 = np.array(registry.publication(2).class_matrix, copy=True)
        tenant_stream = TrafficGenerator(
            seed=seed + 7000, subnet="10.1.0"
        ).generate(mirror_flows)
        start = time.perf_counter()
        engine = FabricEngine(
            registry.spec(),
            keyer,
            reader_id=3,
            online=True,
            registry=registry,
            sync_interval=2,
        )
        try:
            for i in range(0, len(tenant_stream), window):
                engine.process_packets(tenant_stream[i : i + window])
            engine.finalize()
        finally:
            engine.close()
        learn_seconds = time.perf_counter() - start
        after_1 = registry.publication(1).class_matrix
        after_2 = registry.publication(2).class_matrix
        learned = not np.array_equal(before_1, after_1)
        isolated = np.array_equal(before_2, after_2)
        scorer = AttachedFabric(registry.spec(), reader_id=1)
        try:
            tenant_recall = _fabric_recall(scorer.pipeline_for(1), tenant_stream)
        finally:
            scorer.close()
        records.append(
            make_record(
                "fabric_recall_isolation",
                learn_seconds,
                "float32",
                dim,
                len(tenant_stream),
                parity_ok=int(learned and isolated),
                tenant_updated=int(learned),
                others_untouched=int(isolated),
                tenant_recall=tenant_recall,
            )
        )
    finally:
        registry.close()
    return records


def run_fabric_benchmarks(
    tenants: int = 128,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``bench --suite fabric`` entry point.

    ``quick`` shrinks flows and swap repetitions for the CI smoke but keeps
    the tenant count -- the capacity record's whole point is demonstrating
    100+ tenants resident at once, and a smoke that publishes 8 would gate
    nothing.
    """
    tenants = max(tenants, 100)
    if quick:
        return bench_fabric(
            tenants=tenants,
            train_flows=80,
            mirror_flows=120,
            dim=dim if dim is not None else 64,
            epochs=2,
            swaps=24,
        )
    return bench_fabric(
        tenants=tenants, dim=dim if dim is not None else 128
    )


# ---------------------------------------------------------- cascade benchmark
BENCH_CASCADE_JSON_NAME = "BENCH_cascade.json"


def _benign_heavy_mix(dataset, benign_fraction: float, size: int, seed: int):
    """Resample a test split into a benign-dominated serving mix.

    Raw IDS test splits are attack-heavy by construction (NSL-KDD's is
    ~48% attacks), which is the opposite of deployment traffic; cascade
    throughput claims are only meaningful on the mix the pre-filter was
    built for, so the bench resamples the split to ``benign_fraction``
    (with replacement) before timing anything.
    """
    attack_mask = np.asarray(dataset.schema.attack_mask, dtype=bool)
    is_attack = attack_mask[dataset.y_test]
    benign_rows = np.flatnonzero(~is_attack)
    attack_rows = np.flatnonzero(is_attack)
    if benign_rows.size == 0 or attack_rows.size == 0:
        raise ValueError(
            "the test split needs both benign and attack rows to build a "
            "serving mix"
        )
    rng = np.random.default_rng(seed)
    n_attack = max(1, int(round(size * (1.0 - benign_fraction))))
    n_benign = max(0, size - n_attack)
    rows = np.concatenate(
        [
            rng.choice(benign_rows, size=n_benign, replace=True),
            rng.choice(attack_rows, size=n_attack, replace=True),
        ]
    )
    rng.shuffle(rows)
    return dataset.X_test[rows], dataset.y_test[rows]


def bench_cascade(
    dataset: str = "nsl_kdd",
    n_train: int = 8000,
    n_test: int = 1000,
    dim: int = 4096,
    prefilter_dim: int = 512,
    epochs: int = 5,
    escalation_margin: float = 0.0,
    margin_sweep: Sequence[float] = (0.0005, 0.002, 0.01),
    benign_fraction: float = 0.99,
    mix_size: int = 8192,
    window: int = 512,
    repeats: int = 5,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """The cascade suite: throughput vs the float32-only head + parity.

    * **cascade_throughput** -- both paths classify the same benign-heavy
      mix in one batch call: the full float32 multiclass head against the
      cascade (packed binary pre-filter at ``prefilter_dim``, float32 head
      only on the escalated slice).  ``speedup`` is the wall-time ratio;
      the acceptance floor is >= 5x.
    * **cascade_windowed_throughput** -- the same comparison chunked into
      serving-sized windows.  Small float batches are cache-friendlier, so
      this regime narrows the gap; it is recorded un-gated precisely so the
      batch-path headline cannot be mistaken for a serving-path claim.
    * **cascade_escalation** -- ``speedup`` is ``1/escalation_fraction``,
      so an explicit floor on this op gates an escalation *ceiling*.
    * **cascade_margin_tradeoff** -- escalation/detection/false-alarm at
      each margin in ``margin_sweep`` (the ``docs/cascade.md`` table).
    * **cascade_escalated_recall** -- on the raw test split, the escalated
      slice's predictions must bit-match the standalone float32 head
      (``parity_ok``), which pins every per-attack-type recall delta to
      zero; ``speedup`` carries the slice's attack detection rate so a
      floor gates absolute recall.
    * **cascade_int8_throughput / cascade_int8_escalated_recall** -- the
      same two measurements for a cascade whose escalation head runs 8-bit
      quantized inference (the second head-precision operating point);
      throughput is against the *same* float32-only batch path, so the
      int8 and float32 speedups are directly comparable.
    """
    from repro.cascade import (
        CascadeConfig,
        cascade_with_margin,
        train_cascade_dataset,
    )
    from repro.cascade.stage import classifier_scores
    from repro.datasets.loaders import load_dataset
    from repro.nids.metrics import detection_report

    records: List[Dict[str, Any]] = []
    ds = load_dataset(dataset, n_train=n_train, n_test=n_test, seed=seed)
    config = CascadeConfig(
        escalation_margin=escalation_margin,
        prefilter_dim=prefilter_dim,
        prefilter_bits=1,
    )
    start = time.perf_counter()
    cascade = train_cascade_dataset(
        ds, config=config, dim=dim, epochs=epochs, seed=seed
    )
    train_seconds = time.perf_counter() - start
    head = cascade.multiclass.classifier
    attack_mask = np.asarray(ds.schema.attack_mask, dtype=bool)
    X_mix, y_mix = _benign_heavy_mix(ds, benign_fraction, mix_size, seed)

    # ---- batch-path throughput: cascade vs float32-only -------------------
    def float_batch():
        return np.argmax(classifier_scores(head, X_mix), axis=1)

    def cascade_batch():
        return cascade.classify_matrix(X_mix)

    float_batch(), cascade_batch()  # warm both paths before timing
    float_seconds = _best_of(float_batch, repeats)
    cascade_seconds = _best_of(cascade_batch, repeats)
    predictions, escalated = cascade.classify_matrix(X_mix)
    fraction = float(np.mean(escalated))
    truth_attack = attack_mask[y_mix]
    served_attack = attack_mask[predictions]
    records.append(
        make_record(
            "cascade_throughput",
            cascade_seconds,
            "uint64",
            dim,
            mix_size,
            dataset=dataset,
            prefilter_dim=prefilter_dim,
            speedup=float_seconds / cascade_seconds,
            float32_wall_time_s=float_seconds,
            flows_per_second=mix_size / cascade_seconds,
            float32_flows_per_second=mix_size / float_seconds,
            escalation_fraction=fraction,
            escalation_margin=cascade.escalation_margin,
            benign_fraction=benign_fraction,
            detection_rate=float(np.mean(served_attack[truth_attack])),
            false_alarm_rate=float(np.mean(served_attack[~truth_attack])),
            train_seconds=train_seconds,
            note="one batch call per path over the same benign-heavy mix",
        )
    )

    # ---- serving-window twin (recorded, not floored) ----------------------
    def float_windowed():
        for i in range(0, mix_size, window):
            np.argmax(classifier_scores(head, X_mix[i : i + window]), axis=1)

    def cascade_windowed():
        for i in range(0, mix_size, window):
            cascade.classify_matrix(X_mix[i : i + window])

    float_window_seconds = _best_of(float_windowed, repeats)
    cascade_window_seconds = _best_of(cascade_windowed, repeats)
    records.append(
        make_record(
            "cascade_windowed_throughput",
            cascade_window_seconds,
            "uint64",
            dim,
            mix_size,
            dataset=dataset,
            window=window,
            speedup=float_window_seconds / cascade_window_seconds,
            flows_per_second=mix_size / cascade_window_seconds,
            float32_flows_per_second=mix_size / float_window_seconds,
            escalation_margin=cascade.escalation_margin,
        )
    )

    # ---- escalation ceiling (speedup = 1/fraction) ------------------------
    records.append(
        make_record(
            "cascade_escalation",
            cascade_seconds,
            "uint64",
            prefilter_dim,
            mix_size,
            dataset=dataset,
            speedup=1.0 / max(fraction, 1e-9),
            escalation_fraction=fraction,
            escalation_margin=cascade.escalation_margin,
            note="speedup is 1/escalation_fraction; a floor gates a ceiling",
        )
    )

    # ---- margin sweep (the tuning table) ----------------------------------
    for margin in margin_sweep:
        swept = cascade_with_margin(cascade, float(margin))
        start = time.perf_counter()
        swept_predictions, swept_escalated = swept.classify_matrix(X_mix)
        sweep_seconds = time.perf_counter() - start
        swept_attack = attack_mask[swept_predictions]
        records.append(
            make_record(
                "cascade_margin_tradeoff",
                sweep_seconds,
                "uint64",
                dim,
                mix_size,
                dataset=dataset,
                escalation_margin=float(margin),
                escalation_fraction=float(np.mean(swept_escalated)),
                detection_rate=float(np.mean(swept_attack[truth_attack])),
                false_alarm_rate=float(np.mean(swept_attack[~truth_attack])),
            )
        )

    # ---- escalated-slice parity + per-attack-type recall ------------------
    test_predictions, test_escalated = cascade.classify_matrix(ds.X_test)
    head_predictions = np.argmax(classifier_scores(head, ds.X_test), axis=1)
    slice_truth = ds.y_test[test_escalated]
    cascade_report = detection_report(
        slice_truth,
        test_predictions[test_escalated],
        ds.class_names,
        attack_mask=ds.schema.attack_mask,
    )
    head_report = detection_report(
        slice_truth,
        head_predictions[test_escalated],
        ds.class_names,
        attack_mask=ds.schema.attack_mask,
    )
    bit_match = bool(
        np.array_equal(
            test_predictions[test_escalated], head_predictions[test_escalated]
        )
    )
    recall_delta = max(
        (
            abs(
                cascade_report.per_class[name]["recall"]
                - head_report.per_class[name]["recall"]
            )
            for name in ds.class_names
        ),
        default=0.0,
    )
    records.append(
        make_record(
            "cascade_escalated_recall",
            0.0,
            "uint64",
            dim,
            int(np.sum(test_escalated)),
            dataset=dataset,
            parity_ok=int(bit_match and recall_delta <= 0.01),
            speedup=float(cascade_report.detection_rate or 0.0),
            max_recall_delta=recall_delta,
            escalation_fraction=float(np.mean(test_escalated)),
            per_class_recall={
                name: cascade_report.per_class[name]["recall"]
                for name in ds.class_names
            },
            per_class_precision={
                name: cascade_report.per_class[name]["precision"]
                for name in ds.class_names
            },
            note="escalated-slice predictions vs the standalone float32 head",
        )
    )

    # ---- int8 escalation-head operating point -----------------------------
    # The second point on the head-precision axis: the same packed 1-bit
    # pre-filter, but the escalation head quantized to 8-bit inference.
    # Throughput is measured against the *same* float32-only batch path as
    # cascade_throughput, so the two speedups are directly comparable (the
    # matrix's int8-vs-float32 significance comparison rides on that).
    int8_config = CascadeConfig(
        escalation_margin=escalation_margin,
        prefilter_dim=prefilter_dim,
        prefilter_bits=1,
        multiclass_bits=8,
    )
    start = time.perf_counter()
    int8_cascade = train_cascade_dataset(
        ds, config=int8_config, dim=dim, epochs=epochs, seed=seed
    )
    int8_train_seconds = time.perf_counter() - start
    int8_head = int8_cascade.multiclass.classifier

    def int8_batch():
        return int8_cascade.classify_matrix(X_mix)

    int8_batch()  # warm
    int8_seconds = _best_of(int8_batch, repeats)
    int8_predictions, int8_escalated = int8_cascade.classify_matrix(X_mix)
    int8_fraction = float(np.mean(int8_escalated))
    int8_served_attack = attack_mask[int8_predictions]
    records.append(
        make_record(
            "cascade_int8_throughput",
            int8_seconds,
            "uint64",
            dim,
            mix_size,
            dataset=dataset,
            prefilter_dim=prefilter_dim,
            multiclass_bits=8,
            speedup=float_seconds / int8_seconds,
            flows_per_second=mix_size / int8_seconds,
            float32_flows_per_second=mix_size / float_seconds,
            escalation_fraction=int8_fraction,
            escalation_margin=int8_cascade.escalation_margin,
            benign_fraction=benign_fraction,
            detection_rate=float(np.mean(int8_served_attack[truth_attack])),
            false_alarm_rate=float(np.mean(int8_served_attack[~truth_attack])),
            train_seconds=int8_train_seconds,
            note="int8 escalation head vs the same float32-only batch path",
        )
    )

    int8_test_predictions, int8_test_escalated = int8_cascade.classify_matrix(ds.X_test)
    int8_head_predictions = np.argmax(classifier_scores(int8_head, ds.X_test), axis=1)
    int8_slice_truth = ds.y_test[int8_test_escalated]
    int8_report = detection_report(
        int8_slice_truth,
        int8_test_predictions[int8_test_escalated],
        ds.class_names,
        attack_mask=ds.schema.attack_mask,
    )
    int8_standalone_report = detection_report(
        int8_slice_truth,
        int8_head_predictions[int8_test_escalated],
        ds.class_names,
        attack_mask=ds.schema.attack_mask,
    )
    int8_bit_match = bool(
        np.array_equal(
            int8_test_predictions[int8_test_escalated],
            int8_head_predictions[int8_test_escalated],
        )
    )
    int8_recall_delta = max(
        (
            abs(
                int8_report.per_class[name]["recall"]
                - int8_standalone_report.per_class[name]["recall"]
            )
            for name in ds.class_names
        ),
        default=0.0,
    )
    records.append(
        make_record(
            "cascade_int8_escalated_recall",
            0.0,
            "uint64",
            dim,
            int(np.sum(int8_test_escalated)),
            dataset=dataset,
            multiclass_bits=8,
            parity_ok=int(int8_bit_match and int8_recall_delta <= 0.01),
            speedup=float(int8_report.detection_rate or 0.0),
            max_recall_delta=int8_recall_delta,
            escalation_fraction=float(np.mean(int8_test_escalated)),
            per_class_recall={
                name: int8_report.per_class[name]["recall"]
                for name in ds.class_names
            },
            note="escalated-slice predictions vs the standalone int8 head",
        )
    )
    return records


def run_cascade_benchmarks(
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``bench --suite cascade`` entry point.

    ``quick`` shrinks training and the serving mix for the CI smoke but
    keeps the head/pre-filter dimensionalities -- the >= 5x floor is
    defined at the 4096/512 operating point, so the smoke must measure
    the same one.
    """
    if quick:
        return bench_cascade(
            n_train=2000,
            n_test=300,
            dim=dim if dim is not None else 4096,
            epochs=3,
            margin_sweep=(0.0005,),
            mix_size=2048,
            repeats=3,
        )
    return bench_cascade(dim=dim if dim is not None else 4096)


# ----------------------------------------------- loadgen scenario grading
BENCH_LOADGEN_JSON_NAME = "BENCH_loadgen.json"


def bench_loadgen(
    scenarios: Sequence[str] = (
        "ddos_burst",
        "port_scan_sweep",
        "low_and_slow_exfiltration",
    ),
    flows_scale: float = 1.0,
    rates: Sequence[float] = (4_000.0, 20_000.0, 120_000.0),
    dim: int = 256,
    epochs: int = 5,
    train_flows: int = 400,
    window: int = 512,
    recall_tolerance: float = 0.05,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Loadgen scenario grading: per-attack-type recall across load points.

    Each scenario's packet stream is compiled into a ground-truth trace
    (:func:`repro.cluster.loadgen.compile_scenario_trace`), then replayed
    through a pipeline trained on the default profile mix:

    * **loadgen_closed_loop** -- the deterministic every-flow-served
      baseline; carries aggregate recall/precision and the per-attack-type
      recall breakdown the load points are graded against.
    * **loadgen_load_point** -- open-loop replay at each rate in ``rates``
      (packets/second, ``drop_oldest`` shedding), with the same per-type
      breakdown: the recall-vs-load *curve per attack class*.
    * **loadgen_recall_parity** -- the gate: at the gentlest load point
      (an offered rate the detector can sustain) no attack type may lose
      more than ``recall_tolerance`` of its closed-loop recall.
      ``parity_ok`` carries the verdict; ``speedup`` carries the worst
      per-type retention ratio, so an explicit floor gates retention.
    """
    from repro.cluster.loadgen import compile_scenario_trace, get_scenario
    from repro.core.cyberhd import CyberHD
    from repro.nids.pipeline import DetectionPipeline
    from repro.replay import ReplayConfig, TraceReplayer
    from repro.replay.replayer import per_attack_type_recall

    records: List[Dict[str, Any]] = []
    for name in scenarios:
        scenario = get_scenario(name)
        pipeline = DetectionPipeline(
            classifier=CyberHD(dim=dim, epochs=epochs, seed=seed)
        )
        start = time.perf_counter()
        pipeline.fit_packets(scenario.training_packets(n_flows=train_flows, seed=seed))
        train_seconds = time.perf_counter() - start
        trace = compile_scenario_trace(scenario, flows_scale=flows_scale, seed=seed + 1)

        closed = TraceReplayer(
            pipeline, ReplayConfig(mode="closed", window_size=window)
        ).replay(trace)
        closed_types = per_attack_type_recall(trace, closed.predictions)
        records.append(
            make_record(
                "loadgen_closed_loop",
                closed.wall_seconds,
                "float32",
                dim,
                closed.n_packets_served,
                dataset=name,
                flows=closed.n_flows_served,
                attack_flows=trace.n_attack_flows,
                packets_per_second=closed.packets_per_second,
                recall=closed.metrics["recall"],
                precision=closed.metrics["precision"],
                served_fraction=closed.metrics["served_fraction"],
                per_attack_recall={
                    label: entry["recall"]
                    for label, entry in sorted(closed_types.items())
                },
                train_seconds=train_seconds,
            )
        )

        curve: Dict[float, Dict[str, Dict[str, float]]] = {}
        for rate in rates:
            result = TraceReplayer(
                pipeline,
                ReplayConfig(
                    mode="open",
                    rate=float(rate),
                    window_size=window,
                    queue_capacity=2 * window,
                ),
            ).replay(trace)
            types = per_attack_type_recall(trace, result.predictions)
            curve[float(rate)] = types
            records.append(
                make_record(
                    "loadgen_load_point",
                    result.wall_seconds,
                    "float32",
                    dim,
                    result.n_packets_submitted,
                    dataset=name,
                    offered_rate=float(rate),
                    achieved_rate=result.packets_per_second,
                    dropped_packets=result.dropped_packets,
                    served_fraction=result.metrics["served_fraction"],
                    recall=result.metrics["recall"],
                    precision=result.metrics["precision"],
                    per_attack_recall={
                        label: entry["recall"]
                        for label, entry in sorted(types.items())
                    },
                )
            )

        # ---- the gate: gentlest load point vs the closed loop -------------
        gate_rate = min(curve)
        gate_types = curve[gate_rate]
        deltas: Dict[str, float] = {}
        retention = 1.0
        for label, entry in sorted(closed_types.items()):
            open_recall = gate_types.get(label, {}).get("recall", 0.0)
            deltas[label] = entry["recall"] - open_recall
            if entry["recall"] > 0:
                retention = min(retention, open_recall / entry["recall"])
        max_delta = max((max(0.0, d) for d in deltas.values()), default=0.0)
        records.append(
            make_record(
                "loadgen_recall_parity",
                0.0,
                "float32",
                dim,
                trace.n_flows,
                dataset=name,
                offered_rate=gate_rate,
                parity_ok=int(max_delta <= recall_tolerance),
                speedup=retention,
                max_recall_delta=max_delta,
                recall_delta_tolerance=recall_tolerance,
                per_attack_recall_delta=deltas,
                note=(
                    "per-type recall at the gentlest load point vs closed "
                    "loop; speedup carries the worst per-type retention"
                ),
            )
        )
    return records


def run_loadgen_benchmarks(
    scenario: Optional[str] = None,
    flows_scale: Optional[float] = None,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``bench --suite loadgen`` entry point.

    ``quick`` shrinks flow counts and drops the middle load point but keeps
    *every scenario*: the per-type parity gate is keyed per scenario, and a
    smoke that skipped one would silently stop gating it.  An explicit
    ``scenario`` narrows the run (exploration, not the gate).
    """
    scenarios: Sequence[str] = (
        (scenario,)
        if scenario is not None
        else ("ddos_burst", "port_scan_sweep", "low_and_slow_exfiltration")
    )
    if quick:
        return bench_loadgen(
            scenarios=scenarios,
            flows_scale=flows_scale if flows_scale is not None else 0.3,
            rates=(4_000.0, 150_000.0),
            dim=dim if dim is not None else 128,
            epochs=3,
            train_flows=250,
            window=256,
        )
    return bench_loadgen(
        scenarios=scenarios,
        flows_scale=flows_scale if flows_scale is not None else 1.0,
        dim=dim if dim is not None else 256,
    )


# -------------------------------------------------- SVM/MLP model baselines
BENCH_BASELINES_JSON_NAME = "BENCH_baselines.json"


def bench_model_baselines(
    dataset: str = "nsl_kdd",
    n_train: int = 4000,
    n_test: int = 1000,
    dim: int = 2048,
    epochs: int = 5,
    mlp_epochs: int = 30,
    svm_epochs: int = 30,
    accuracy_margin: float = 0.05,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """HDC vs the SVM/MLP baselines on one tabular dataset.

    The paper's efficiency pitch as a regression gate: the HDC model must
    train faster than each baseline (``baseline_train_speedup_*`` --
    machine-relative ratios, so they transfer across hosts) while staying
    within ``accuracy_margin`` of the best baseline's test accuracy
    (``baseline_accuracy_parity``; its ``speedup`` carries the HDC/best
    accuracy ratio).  Per-model ``baseline_model`` records are informative
    only.  Everything is deterministic given the seed -- all three learners
    are seeded numpy implementations -- so the parity bit is stable.
    """
    from repro.baselines.mlp import MLPClassifier
    from repro.baselines.svm import LinearSVM
    from repro.datasets.loaders import load_dataset

    ds = load_dataset(dataset, n_train=n_train, n_test=n_test, seed=seed)
    models = {
        "hdc": CyberHD(dim=dim, epochs=epochs, seed=seed),
        "svm": LinearSVM(epochs=svm_epochs, seed=seed),
        "mlp": MLPClassifier(hidden_layers=(128, 64), epochs=mlp_epochs, seed=seed),
    }
    fit_seconds: Dict[str, float] = {}
    predict_seconds: Dict[str, float] = {}
    accuracy: Dict[str, float] = {}
    records: List[Dict[str, Any]] = []
    for name, model in models.items():
        start = time.perf_counter()
        model.fit(ds.X_train, ds.y_train)
        fit_seconds[name] = time.perf_counter() - start
        model.predict(ds.X_test)  # warm any lazy encode paths
        start = time.perf_counter()
        predictions = model.predict(ds.X_test)
        predict_seconds[name] = max(time.perf_counter() - start, 1e-9)
        accuracy[name] = float(np.mean(predictions == ds.y_test))
        records.append(
            make_record(
                "baseline_model",
                fit_seconds[name],
                "float32",
                dim if name == "hdc" else 0,
                n_train,
                dataset=dataset,
                model=name,
                accuracy=accuracy[name],
                fit_seconds=fit_seconds[name],
                predict_seconds=predict_seconds[name],
                predict_flows_per_second=n_test / predict_seconds[name],
            )
        )
    for name in ("svm", "mlp"):
        records.append(
            make_record(
                f"baseline_train_speedup_{name}",
                fit_seconds["hdc"],
                "float32",
                dim,
                n_train,
                dataset=dataset,
                speedup=fit_seconds[name] / fit_seconds["hdc"],
                baseline_fit_seconds=fit_seconds[name],
                hdc_fit_seconds=fit_seconds["hdc"],
            )
        )
    best_baseline = max(accuracy["svm"], accuracy["mlp"])
    records.append(
        make_record(
            "baseline_accuracy_parity",
            0.0,
            "float32",
            dim,
            n_test,
            dataset=dataset,
            parity_ok=int(accuracy["hdc"] >= best_baseline - accuracy_margin),
            speedup=accuracy["hdc"] / max(best_baseline, 1e-9),
            hdc_accuracy=accuracy["hdc"],
            svm_accuracy=accuracy["svm"],
            mlp_accuracy=accuracy["mlp"],
            accuracy_margin=accuracy_margin,
            note="HDC test accuracy vs the best SVM/MLP baseline",
        )
    )
    return records


def run_baseline_benchmarks(
    dataset: str = "nsl_kdd",
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``bench --suite baselines`` entry point."""
    if quick:
        return bench_model_baselines(
            dataset=dataset,
            n_train=1200,
            n_test=400,
            dim=dim if dim is not None else 1024,
            epochs=5,
            mlp_epochs=10,
            svm_epochs=10,
        )
    return bench_model_baselines(
        dataset=dataset, dim=dim if dim is not None else 2048
    )


# ------------------------------------------------------- baseline regression
def diff_bench_payloads(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.2,
    floors: Optional[Dict[str, float]] = None,
) -> "tuple[bool, List[str]]":
    """Diff a fresh bench payload against a checked-in baseline.

    The comparison is deliberately machine-portable: absolute wall times are
    never compared (the baseline was produced on different hardware), only

    * **parity gates** -- every fresh record carrying a ``parity_ok`` field
      must report 1, unconditionally;
    * **relative speedups** -- for every op appearing exactly once in both
      payloads with a ``speedup`` field, the fresh ratio must reach
      ``tolerance * baseline`` (both sides measure current-vs-reference on
      *their own* machine, so the ratio transfers across hosts up to noise
      and workload-scale differences -- ``tolerance`` absorbs both);
    * **explicit floors** -- ``floors[op]`` requires the fresh ``speedup``
      of ``op`` to reach an absolute value (the bitpack smoke's
      packed-throughput floor).  The special key ``wall_speedup`` floors the
      ``wall_speedup`` field of records carrying one (the cluster suite's
      wall-clock gate) and is skipped with a logged reason when the fresh
      run's ``provenance.cpu_count`` is below the record's worker count --
      a time-sliced host cannot express the parallelism being gated.

    Returns ``(ok, report_lines)``.
    """

    def label(record: Dict[str, Any]) -> str:
        suffix = f" (D={record['D']})" if record.get("D") else ""
        return f"{record['op']}{suffix}"

    def speedup_records(records: Sequence[Dict[str, Any]]):
        return [r for r in records if "speedup" in r]

    def match(
        candidates: Sequence[Dict[str, Any]],
        reference: Dict[str, Any],
        reference_pool: Sequence[Dict[str, Any]],
    ):
        """The fresh record measuring the same operating point, if exactly one.

        Records are keyed by op.  When an op is measured at several
        dimensionalities (the bitpack kernel suite), only an exact-``D``
        fresh record may answer for a given baseline record -- comparing a
        D=4096 smoke against a D=8192 baseline would gate the wrong
        operating point.  A cross-``D`` match is allowed only when the op
        appears once on *both* sides: that is the quick-mode case where the
        whole workload legitimately shrinks (streaming at D=128 vs the
        D=256 baseline) and the loose tolerance absorbs the scale change.
        """
        same_op = [r for r in candidates if r["op"] == reference["op"]]
        exact = [r for r in same_op if r.get("D") == reference.get("D")]
        if len(exact) == 1:
            return exact[0]
        baseline_same_op = [r for r in reference_pool if r["op"] == reference["op"]]
        if len(same_op) == 1 and len(baseline_same_op) == 1:
            return same_op[0]
        return None

    fresh_records = list(fresh.get("records", []))
    baseline_records = list(baseline.get("records", []))
    lines: List[str] = []
    ok = True

    parity = [r for r in fresh_records if "parity_ok" in r]
    for record in parity:
        passed = int(record["parity_ok"]) == 1
        ok &= passed
        lines.append(
            f"[{'ok' if passed else 'FAIL'}] parity {record['op']} "
            f"{record.get('dataset', '')}: parity_ok={record['parity_ok']}"
        )
    # A parity op the baseline carries but the fresh run never emitted is a
    # silent loss of the correctness evidence, not a pass.
    fresh_parity_keys = {(r["op"], r.get("dataset")) for r in parity}
    for record in baseline_records:
        if "parity_ok" not in record:
            continue
        key = (record["op"], record.get("dataset"))
        if key not in fresh_parity_keys:
            ok = False
            lines.append(
                f"[FAIL] parity {record['op']} {record.get('dataset', '')}: "
                "record missing from fresh run"
            )

    fresh_speedups = speedup_records(fresh_records)
    compared = 0
    for base_record in speedup_records(baseline_records):
        fresh_record = match(fresh_speedups, base_record, baseline_records)
        if fresh_record is None:
            lines.append(f"[skip] speedup {label(base_record)}: not measured in fresh run")
            continue
        compared += 1
        required = float(base_record["speedup"]) * tolerance
        value = float(fresh_record["speedup"])
        passed = value >= required
        ok &= passed
        lines.append(
            f"[{'ok' if passed else 'FAIL'}] speedup {label(fresh_record)}: {value:.2f}x "
            f"(baseline {float(base_record['speedup']):.2f}x, "
            f"floor {required:.2f}x at tolerance {tolerance})"
        )
    cpu_count = (fresh.get("provenance") or {}).get("cpu_count")
    for op, floor in (floors or {}).items():
        if op == "wall_speedup":
            # Floor on the *wall-clock* cluster speedup rather than an op's
            # ``speedup`` field.  Wall speedup is host-bounded: with fewer
            # cores than workers the replicas time-slice one another and no
            # transport can beat the baseline, so the gate only binds where
            # the hardware can express the parallelism.
            matching = [r for r in fresh_speedups if "wall_speedup" in r]
            if not matching:
                ok = False
                lines.append(f"[FAIL] floor {op}: record missing from fresh run")
                continue
            for fresh_record in matching:
                workers = int(fresh_record.get("workers") or 0)
                if cpu_count is not None and workers and int(cpu_count) < workers:
                    lines.append(
                        f"[skip] floor {label(fresh_record)}: wall_speedup gate "
                        f"skipped, host has {cpu_count} cores < {workers} workers"
                    )
                    continue
                value = float(fresh_record["wall_speedup"])
                passed = value >= float(floor)
                ok &= passed
                lines.append(
                    f"[{'ok' if passed else 'FAIL'}] floor {label(fresh_record)} "
                    f"wall_speedup: {value:.2f}x (required {float(floor):.2f}x)"
                )
            continue
        matching = [r for r in fresh_speedups if r["op"] == op]
        if not matching:
            ok = False
            lines.append(f"[FAIL] floor {op}: record missing from fresh run")
            continue
        for fresh_record in matching:
            value = float(fresh_record["speedup"])
            passed = value >= float(floor)
            ok &= passed
            lines.append(
                f"[{'ok' if passed else 'FAIL'}] floor {label(fresh_record)}: "
                f"{value:.2f}x (required {float(floor):.2f}x)"
            )
    if not parity and compared == 0 and not floors:
        ok = False
        lines.append(
            "[FAIL] nothing compared: no parity records in the fresh run and "
            "no shared speedup ops with the baseline"
        )
    return ok, lines
