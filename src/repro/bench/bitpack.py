"""The ``bitpack`` suite: packed 1-bit inference kernels, parity and faults."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import _best_of, _best_of_each, make_record
from repro.hdc.similarity import cosine_similarity_matrix


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

        t_float, t_packed, t_end_to_end = _best_of_each(
            (
                lambda: cosine_similarity_matrix(H, classes),
                lambda: packed.scores_packed(packed_queries),
                lambda: packed.scores(H),
            ),
            repeats,
        )
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


def run(
    workers: int = 2,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``bitpack`` suite entry point.

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
