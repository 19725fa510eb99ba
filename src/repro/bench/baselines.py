"""The ``baselines`` suite: HDC vs the numpy SVM/MLP learners."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.bench.harness import _best_of_each, make_record
from repro.core.cyberhd import CyberHD

#: Interleaved timing rounds per fit (see ``bench_model_baselines``).
FIT_ROUNDS = 3


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

    Each fit's time is its best of ``FIT_ROUNDS`` interleaved rounds, one
    fit of a fresh seeded model per learner per round (every round fits
    identically): a host that runs slow for a while then slows all three
    learners instead of whichever one was being timed.
    """
    from repro.baselines.mlp import MLPClassifier
    from repro.baselines.svm import LinearSVM
    from repro.datasets.loaders import load_dataset

    ds = load_dataset(dataset, n_train=n_train, n_test=n_test, seed=seed)
    rounds = range(FIT_ROUNDS)
    unfitted = {
        "hdc": [CyberHD(dim=dim, epochs=epochs, seed=seed) for _ in rounds],
        "svm": [LinearSVM(epochs=svm_epochs, seed=seed) for _ in rounds],
        "mlp": [
            MLPClassifier(hidden_layers=(128, 64), epochs=mlp_epochs, seed=seed)
            for _ in rounds
        ],
    }
    models: Dict[str, Any] = {}

    def fit(name: str):
        def fit_fresh() -> None:
            models[name] = unfitted[name].pop().fit(ds.X_train, ds.y_train)

        return fit_fresh

    fit_seconds = dict(
        zip(unfitted, _best_of_each([fit(name) for name in unfitted], FIT_ROUNDS))
    )
    predict_seconds: Dict[str, float] = {}
    accuracy: Dict[str, float] = {}
    records: List[Dict[str, Any]] = []
    for name, model in models.items():
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


def run(
    dataset: str = "nsl_kdd",
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``baselines`` suite entry point."""
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
