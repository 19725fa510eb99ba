"""The ``cascade`` suite: packed pre-filter + escalation vs the float32 head."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import _best_of_each, make_record


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

    # The second point on the head-precision axis: the same packed 1-bit
    # pre-filter, but the escalation head quantized to 8-bit inference.
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

    # ---- batch-path throughput: both cascades vs float32-only -------------
    # One float32-only denominator, sampled in the same rounds as both
    # cascades, so the float32 and int8 speedups are directly comparable
    # (the matrix's int8-vs-float32 significance comparison rides on that).
    def float_batch():
        return np.argmax(classifier_scores(head, X_mix), axis=1)

    def cascade_batch():
        return cascade.classify_matrix(X_mix)

    def int8_batch():
        return int8_cascade.classify_matrix(X_mix)

    float_batch(), cascade_batch(), int8_batch()  # warm every path
    float_seconds, cascade_seconds, int8_seconds = _best_of_each(
        (float_batch, cascade_batch, int8_batch), repeats
    )
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

    float_window_seconds, cascade_window_seconds = _best_of_each(
        (float_windowed, cascade_windowed), repeats
    )
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


def run(
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``cascade`` suite entry point.

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
