"""Microbenchmarks of the HDC primitives (encoding and similarity search).

These are the per-sample operations whose cost the paper's Fig. 4 and Table I
reason about; the microbenchmarks make the raw Python-substrate throughput
visible so the analytical hardware models can be sanity-checked against it.

Each benchmark is parametrized over the backend dtype policy and appends a
record to the shared ``bench_records`` fixture; at session end the conftest
writes them (merged with the :mod:`repro.bench.hdc` end-to-end fit comparison) to
``benchmarks/output/BENCH_hdc_primitives.json``.  The checked-in repo-root
perf-regression baseline of the same name is regenerated with
``python -m repro bench``, which runs the same record schema standalone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hdc.backend import resolve_dtype, row_norms, segment_sum
from repro.hdc.encoders import LevelIDEncoder, RBFEncoder
from repro.hdc.similarity import cosine_similarity_matrix
from repro.core.trainer import adaptive_epoch, adaptive_one_pass_fit

DTYPES = ("float32", "float64")
DIM = 512


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(2000, 64))
    y = rng.integers(0, 5, size=2000)
    return X, y


def _record(bench_records, benchmark, op, dtype, n):
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        bench_records.append(
            {
                "op": op,
                "dtype": dtype,
                "D": DIM,
                "n": int(n),
                "wall_time_s": float(stats.stats.min),
                "source": "pytest-benchmark",
            }
        )


@pytest.mark.parametrize("dtype", DTYPES)
def test_bench_rbf_encoding(benchmark, workload, bench_records, dtype):
    """Throughput of encoding 2000 flows into a 512-dimensional hyperspace."""
    X, _ = workload
    encoder = RBFEncoder(in_features=64, dim=DIM, rng=0, dtype=resolve_dtype(dtype))
    H = benchmark(encoder.encode, X)
    assert H.shape == (2000, DIM)
    _record(bench_records, benchmark, "encode_rbf", dtype, X.shape[0])


@pytest.mark.parametrize("dtype", DTYPES)
def test_bench_level_id_encoding(benchmark, workload, bench_records, dtype):
    """Throughput of the lookup-table level-ID encoder (no per-feature loop)."""
    X, _ = workload
    encoder = LevelIDEncoder(in_features=64, dim=DIM, rng=0, dtype=resolve_dtype(dtype))
    H = benchmark(encoder.encode, X)
    assert H.shape == (2000, DIM)
    _record(bench_records, benchmark, "encode_level_id", dtype, X.shape[0])


@pytest.mark.parametrize("dtype", DTYPES)
def test_bench_cosine_scoring(benchmark, workload, bench_records, dtype):
    """Throughput of scoring 2000 encoded queries against 5 class hypervectors."""
    X, y = workload
    encoder = RBFEncoder(in_features=64, dim=DIM, rng=0, dtype=resolve_dtype(dtype))
    H = encoder.encode(X)
    classes = adaptive_one_pass_fit(H, y, n_classes=5, rng=0)
    class_norms = row_norms(classes)
    query_norms = row_norms(H)
    # Cache both operand norms so this measures the same code path as the
    # `cosine_scores_cached_norms` record emitted by `python -m repro bench`.
    sims = benchmark(
        cosine_similarity_matrix,
        H,
        classes,
        query_norms=query_norms,
        class_norms=class_norms,
    )
    assert sims.shape == (2000, 5)
    _record(bench_records, benchmark, "cosine_scores_cached_norms", dtype, X.shape[0])


@pytest.mark.parametrize("method", ("add_at", "bincount", "matmul"))
def test_bench_segment_sum(benchmark, workload, bench_records, method):
    """Scatter-aggregation strategies for the per-class trainer updates."""
    X, y = workload
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((512, DIM)).astype(np.float32)
    ids = y[:512].astype(np.int64)
    out = benchmark(segment_sum, rows, ids, 5, method=method)
    assert out.shape == (5, DIM)
    _record(bench_records, benchmark, f"scatter_{method}", "float32", 512)


@pytest.mark.parametrize("dtype", DTYPES)
def test_bench_adaptive_epoch(benchmark, workload, bench_records, dtype):
    """Throughput of one adaptive retraining epoch over 2000 samples."""
    X, y = workload
    encoder = RBFEncoder(in_features=64, dim=DIM, rng=0, dtype=resolve_dtype(dtype))
    H = encoder.encode(X)
    classes = adaptive_one_pass_fit(H, y, n_classes=5, rng=0)
    query_norms = row_norms(H)

    def run():
        # Copy per round: adaptive_epoch converges the model in place, and
        # timing successive epochs on an increasingly converged model would
        # understate the true per-epoch cost.
        fresh = classes.copy()
        adaptive_epoch(
            fresh,
            H,
            y,
            learning_rate=1.0,
            rng=0,
            query_norms=query_norms,
            class_norms=row_norms(fresh),
        )

    benchmark.pedantic(run, rounds=3, iterations=1)
    _record(bench_records, benchmark, "adaptive_epoch", dtype, X.shape[0])
