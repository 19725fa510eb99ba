"""The ``hdc`` suite: compute-backend primitives and the end-to-end fit.

It times the hot-path primitives (encoding, scatter aggregation, similarity
scoring, one adaptive epoch) across dtypes, plus the end-to-end
``CyberHD.fit`` at the paper-scale setting (``D = 500``, NSL-KDD-sized
synthetic data); its baseline is ``BENCH_hdc_primitives.json``.

To keep the speedup claims honest the module carries *seed-equivalent*
reference implementations of the original float64 pipeline (``np.add.at``
scatters, per-batch norm recomputation with normalized operand copies, and a
full training-set re-encode after every regeneration step).  The
``fit_cyberhd`` records therefore measure the current pipeline against the
exact algorithm the repository started from, on the same machine and the
same workload.  ``benchmarks/bench_hdc_primitives.py`` reuses the same
record format under pytest-benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import _best_of, _best_of_each, make_record
from repro.core.config import CyberHDConfig
from repro.core.cyberhd import CyberHD
from repro.core.regeneration import (
    apply_regeneration,
    select_drop_dimensions,
    warm_start_regenerated,
)
from repro.core.trainer import adaptive_epoch, adaptive_one_pass_fit
from repro.hdc.backend import resolve_dtype, row_norms, segment_sum
from repro.hdc.encoders import LevelIDEncoder, RBFEncoder, make_encoder
from repro.hdc.similarity import cosine_similarity_matrix
from repro.utils.rng import ensure_rng


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
    NSL-KDD-sized workload, sampled in alternating pairs (best of
    ``repeats`` each); the ``fit_speedup`` record carries the ratio the
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

    current, legacy = _best_of_each((run_current, run_legacy), repeats)
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


def run(
    dim: int = 500,
    n_primitives: Optional[int] = None,
    n_fit: Optional[int] = None,
    epochs: Optional[int] = None,
    repeats: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``hdc`` suite entry point: primitives + end-to-end fit.

    ``None`` means the suite default, which ``quick`` shrinks: 2000 / 500
    primitive rows, 4000 / 800 fit rows, 8 / 3 epochs, and best of 3 / 1
    primitive samples with best of 2 / 3 fit pairs.  An explicit value
    always wins; the fit then takes ``repeats - 1`` pairs (at least one).
    """
    if n_primitives is None:
        n_primitives = 500 if quick else 2000
    if n_fit is None:
        n_fit = 800 if quick else 4000
    if epochs is None:
        epochs = 3 if quick else 8
    if repeats is None:
        repeats, fit_repeats = (1, 3) if quick else (3, 2)
    else:
        fit_repeats = max(1, repeats - 1)
    records = bench_primitives(dim=dim, n=n_primitives, repeats=repeats)
    records += bench_fit(dim=dim, n=n_fit, epochs=epochs, repeats=fit_repeats)
    return records
