"""Static-encoder baseline HDC classifier.

This is the "baselineHD" system the paper compares against: the same encoding
and adaptive-retraining machinery as CyberHD, but with a **pre-generated,
static encoder** -- no dimension dropping or regeneration.  To match the
paper's comparison it is typically instantiated at either the physical
dimensionality of CyberHD (``D = 0.5k``) or CyberHD's effective dimensionality
(``D* = 4k``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

import numpy as np

from repro.core.trainer import (
    adaptive_epoch,
    adaptive_one_pass_fit,
    online_update,
    training_accuracy,
)
from repro.hdc.backend import QuantizedClassMatrix, resolve_dtype, row_norms
from repro.hdc.encoders import make_encoder
from repro.hdc.encoders.base import BaseEncoder
from repro.hdc.similarity import cosine_similarity_matrix
from repro.models.base import BaseClassifier, FitResult
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fitted


class BaselineHDC(BaseClassifier):
    """HDC classifier with a static (pre-generated) encoder.

    Parameters
    ----------
    dim:
        Hypervector dimensionality.
    encoder:
        Encoder registry name (``"rbf"``, ``"linear"`` or ``"level_id"``).
    encoder_kwargs:
        Extra keyword arguments for the encoder constructor.
    epochs:
        Number of adaptive retraining epochs after one-pass bundling.
    learning_rate:
        Adaptive update step ``eta``.
    batch_size:
        Mini-batch size of the vectorized adaptive update.
    early_stop_accuracy:
        Stop retraining once training accuracy reaches this threshold.
    seed:
        RNG seed.
    dtype:
        Backend dtype policy (``"float32"`` default, ``"float64"`` opt-in);
        see ``PERFORMANCE.md``.
    inference_bits:
        When set, predictions score against a quantized class matrix
        (:class:`repro.hdc.backend.QuantizedClassMatrix`).
    """

    def __init__(
        self,
        dim: int = 4000,
        encoder: str = "rbf",
        encoder_kwargs: Optional[Dict[str, Any]] = None,
        epochs: int = 20,
        learning_rate: float = 1.0,
        batch_size: int = 256,
        early_stop_accuracy: Optional[float] = None,
        seed: Optional[int] = None,
        dtype: str = "float32",
        inference_bits: Optional[int] = None,
    ):
        super().__init__()
        if dim <= 0:
            raise ValueError("dim must be positive")
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.dim = int(dim)
        self.encoder_name = encoder
        self.encoder_kwargs = dict(encoder_kwargs or {})
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.early_stop_accuracy = early_stop_accuracy
        self.dtype = resolve_dtype(dtype)
        self.inference_bits = inference_bits
        self._rng = ensure_rng(seed)
        self.encoder_: Optional[BaseEncoder] = None
        self.class_hypervectors_: Optional[np.ndarray] = None
        self._quantized_classes: Optional[QuantizedClassMatrix] = None
        self._packed_classes = None
        self._class_norms: Optional[np.ndarray] = None
        self.online_batches_ = 0
        self.online_samples_ = 0

    # ------------------------------------------------------------------- fit
    def _fit(self, X: np.ndarray, y: np.ndarray) -> FitResult:
        start = time.perf_counter()
        n_classes = int(y.max()) + 1
        self.encoder_ = make_encoder(
            self.encoder_name,
            in_features=X.shape[1],
            dim=self.dim,
            rng=self._rng,
            dtype=self.dtype,
            **self.encoder_kwargs,
        )
        self._invalidate_inference_caches()
        H = self.encoder_.encode(X)
        sample_norms = row_norms(H)
        self.class_hypervectors_ = adaptive_one_pass_fit(
            H, y, n_classes, batch_size=self.batch_size, rng=self._rng, query_norms=sample_norms
        )
        class_norms = row_norms(self.class_hypervectors_)
        history = {
            "train_accuracy": [
                training_accuracy(self.class_hypervectors_, H, y, class_norms=class_norms)
            ],
        }
        epochs_run = 0
        for epoch in range(1, self.epochs + 1):
            _, accuracy = adaptive_epoch(
                self.class_hypervectors_,
                H,
                y,
                learning_rate=self.learning_rate,
                batch_size=self.batch_size,
                rng=self._rng,
                query_norms=sample_norms,
                class_norms=class_norms,
            )
            epochs_run = epoch
            history["train_accuracy"].append(accuracy)
            if self.early_stop_accuracy is not None and accuracy >= self.early_stop_accuracy:
                break
        if self.inference_bits is not None:
            self._quantized_classes = QuantizedClassMatrix.from_matrix(
                self.class_hypervectors_, bits=self.inference_bits
            )
        self._class_norms = class_norms
        elapsed = time.perf_counter() - start
        return FitResult(train_seconds=elapsed, epochs_run=epochs_run, history=history)

    def _partial_fit(self, X: np.ndarray, y: np.ndarray) -> None:
        """One online pass: encode the batch and fold it into the class matrix.

        Cold-starting through ``partial_fit`` (no prior ``fit``) builds the
        static encoder and a zero class matrix on the first batch, so a
        streaming deployment can learn from scratch.
        """
        if self.encoder_ is None:
            self.encoder_ = make_encoder(
                self.encoder_name,
                in_features=X.shape[1],
                dim=self.dim,
                rng=self._rng,
                dtype=self.dtype,
                **self.encoder_kwargs,
            )
            n_classes = int(self.classes_.shape[0])
            self.class_hypervectors_ = np.zeros((n_classes, self.dim), dtype=self.dtype)
            self._class_norms = np.zeros(n_classes, dtype=self.dtype)
            self.fit_result_ = FitResult()
        if self._class_norms is None:
            self._class_norms = row_norms(self.class_hypervectors_)
        H = self.encoder_.encode(X)
        online_update(
            self.class_hypervectors_,
            H,
            y,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            class_norms=self._class_norms,
        )
        # The quantized/packed inference caches are stale after any online update.
        self._invalidate_inference_caches()
        self.online_batches_ += 1
        self.online_samples_ += int(X.shape[0])

    # --------------------------------------------------------------- predict
    def _predict_scores(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "class_hypervectors_")
        return self.scores_from_encoded(self.encoder_.encode(X))

    def scores_from_encoded(self, H: np.ndarray) -> np.ndarray:
        """Per-class scores for already-encoded queries.

        The serving path uses this to time encoding and classification as
        separate stages; ``predict_scores(X)`` is equivalent to
        ``scores_from_encoded(encode(X))``.
        """
        check_fitted(self, "class_hypervectors_")
        if self.uses_packed_inference:
            return self.packed_class_matrix().scores(H)
        if self.inference_bits is not None:
            if self._quantized_classes is None:
                self._quantized_classes = QuantizedClassMatrix.from_matrix(
                    self.class_hypervectors_, bits=self.inference_bits
                )
            return self._quantized_classes.scores(H)
        return cosine_similarity_matrix(H, self.class_hypervectors_)

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Encode raw features into hyperspace with the trained encoder."""
        check_fitted(self, "encoder_")
        return self.encoder_.encode(X)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fitted = self.class_hypervectors_ is not None
        return (
            f"BaselineHDC(dim={self.dim}, encoder={self.encoder_name!r}, "
            f"epochs={self.epochs}, fitted={fitted})"
        )
