"""The CyberHD classifier: HDC with dynamic dimension regeneration.

This is the paper's primary contribution.  Compared to a static-encoder HDC
model, CyberHD interleaves adaptive retraining with a drop-and-regenerate step
that replaces the least discriminative encoder dimensions with fresh random
draws, so that a small *physical* dimensionality (``D = 0.5k`` in the paper)
accumulates the discriminative power of a much larger *effective*
dimensionality (``D* ~ 4k``).
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.core.config import CyberHDConfig
from repro.core.regeneration import (
    RegenerationEvent,
    apply_regeneration,
    select_drop_dimensions,
    warm_start_regenerated,
)
from repro.core.trainer import (
    adaptive_epoch,
    adaptive_one_pass_fit,
    online_update,
    training_accuracy,
)
from repro.hdc.backend import (
    QuantizedClassMatrix,
    assign_columns,
    resolve_dtype,
    row_norms,
)
from repro.hdc.encoders import make_encoder
from repro.hdc.encoders.base import BaseEncoder
from repro.hdc.similarity import cosine_similarity_matrix
from repro.models.base import BaseClassifier, FitResult
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fitted


class CyberHD(BaseClassifier):
    """Dynamic-encoding HDC classifier (the CyberHD algorithm).

    Parameters
    ----------
    config:
        A :class:`repro.core.CyberHDConfig`.  Keyword arguments may be passed
        instead and are used to build a config, e.g.
        ``CyberHD(dim=500, regeneration_rate=0.1, seed=0)``.

    Attributes
    ----------
    class_hypervectors_:
        ``(k, D)`` trained class matrix.
    encoder_:
        The (regenerated) encoder used at inference time.
    regeneration_events_:
        One :class:`RegenerationEvent` per drop-and-regenerate step.
    effective_dim_:
        ``D* = D + total regenerated dimensions``; the paper's effective
        dimensionality metric.

    Example
    -------
    >>> from repro import CyberHD, load_dataset
    >>> ds = load_dataset("nsl_kdd", n_train=600, n_test=200, seed=0)
    >>> model = CyberHD(dim=256, epochs=5, seed=0).fit(ds.X_train, ds.y_train)
    >>> acc = model.score(ds.X_test, ds.y_test)
    """

    def __init__(self, config: Optional[CyberHDConfig] = None, **kwargs):
        super().__init__()
        if config is None:
            config = CyberHDConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a CyberHDConfig or keyword arguments, not both")
        self.config = config.validate()
        self.encoder_: Optional[BaseEncoder] = None
        self.class_hypervectors_: Optional[np.ndarray] = None
        self.regeneration_events_: List[RegenerationEvent] = []
        self._rng = ensure_rng(self.config.seed)
        self._quantized_classes: Optional[QuantizedClassMatrix] = None
        self._packed_classes = None
        self._class_norms: Optional[np.ndarray] = None
        self.online_batches_ = 0
        self.online_samples_ = 0

    # ------------------------------------------------------------ properties
    @property
    def dim(self) -> int:
        """Physical hypervector dimensionality ``D``."""
        return self.config.dim

    @property
    def inference_bits(self) -> Optional[int]:
        """Configured inference bitwidth (``1`` activates the packed path)."""
        return self.config.inference_bits

    @property
    def effective_dim_(self) -> int:
        """Effective dimensionality ``D*`` accumulated during training."""
        check_fitted(self, "encoder_")
        return self.encoder_.effective_dim

    @property
    def total_regenerated_(self) -> int:
        """Total number of dimensions regenerated during training."""
        check_fitted(self, "encoder_")
        return self.encoder_.regenerated_total

    # ------------------------------------------------------------------- fit
    def _fit(self, X: np.ndarray, y: np.ndarray) -> FitResult:
        cfg = self.config
        start = time.perf_counter()
        n_classes = int(y.max()) + 1

        self.encoder_ = make_encoder(
            cfg.encoder,
            in_features=X.shape[1],
            dim=cfg.dim,
            rng=self._rng,
            dtype=resolve_dtype(cfg.dtype),
            **cfg.encoder_kwargs,
        )
        self.regeneration_events_ = []
        self._invalidate_inference_caches()

        # C order is what lets assign_columns write regenerated columns
        # through a flat index (a no-op for every bundled encoder).
        H = np.ascontiguousarray(self.encoder_.encode(X))
        # Cached-norm fast path: sample norms change only when regeneration
        # rewrites columns of H; class norms are maintained in place by
        # adaptive_epoch as updates land.
        sample_norms = row_norms(H)
        self.class_hypervectors_ = adaptive_one_pass_fit(
            H, y, n_classes, batch_size=cfg.batch_size, rng=self._rng, query_norms=sample_norms
        )
        class_norms = row_norms(self.class_hypervectors_)

        history = {
            "train_accuracy": [
                training_accuracy(self.class_hypervectors_, H, y, class_norms=class_norms)
            ],
            "regenerated_dims": [0.0],
            "effective_dim": [float(self.encoder_.effective_dim)],
        }

        epochs_run = 0
        for epoch in range(1, cfg.epochs + 1):
            _, accuracy = adaptive_epoch(
                self.class_hypervectors_,
                H,
                y,
                learning_rate=cfg.learning_rate,
                batch_size=cfg.batch_size,
                rng=self._rng,
                query_norms=sample_norms,
                class_norms=class_norms,
            )
            epochs_run = epoch
            stop = cfg.early_stop_accuracy is not None and accuracy >= cfg.early_stop_accuracy
            regenerated = 0
            # Regenerate after every `regeneration_interval`-th epoch, but not
            # after the last epoch, final or early-stopping: freshly
            # regenerated (untrained) dimensions would only add noise to the
            # deployed model.
            should_regen = (
                cfg.regeneration_rate > 0.0
                and epoch % cfg.regeneration_interval == 0
                and epoch < cfg.epochs
                and not stop
            )
            if should_regen:
                dims, threshold = select_drop_dimensions(
                    self.class_hypervectors_, cfg.regeneration_rate
                )
                if dims.size:
                    apply_regeneration(self.class_hypervectors_, self.encoder_, dims)
                    self.regeneration_events_.append(
                        RegenerationEvent(epoch=epoch, dimensions=dims, variance_threshold=threshold)
                    )
                    regenerated = int(dims.size)
                    # Incremental re-encode: only the regenerated dimensions
                    # change, so just those columns of the training matrix are
                    # recomputed and written in place, with the sample norms
                    # refreshed in the same pass.
                    columns = self.encoder_.encode_partial(X, dims)
                    sample_norms = assign_columns(H, dims, columns)
                    # Warm-start the new columns so they contribute immediately
                    # instead of waiting for misclassification-driven updates.
                    # Column-major is the layout a gathered ``H[:, dims]`` has;
                    # the bundling GEMM's rounding depends on it, so keeping it
                    # keeps the trained model bit for bit what it always was.
                    warm_start_regenerated(
                        self.class_hypervectors_,
                        np.asfortranarray(columns),
                        y,
                        dims,
                        H_is_partial=True,
                    )
                    class_norms[:] = row_norms(self.class_hypervectors_)

            history["train_accuracy"].append(accuracy)
            history["regenerated_dims"].append(float(regenerated))
            history["effective_dim"].append(float(self.encoder_.effective_dim))

            if stop:
                break

        if cfg.inference_bits is not None:
            self._quantized_classes = QuantizedClassMatrix.from_matrix(
                self.class_hypervectors_, bits=cfg.inference_bits
            )

        self._class_norms = class_norms
        elapsed = time.perf_counter() - start
        return FitResult(train_seconds=elapsed, epochs_run=epochs_run, history=history)

    # -------------------------------------------------------- online learning
    def _partial_fit(self, X: np.ndarray, y: np.ndarray) -> None:
        """One online pass through the PR 1 backend (segment-sum updates).

        Cold-starting through ``partial_fit`` builds the dynamic encoder and
        a zero class matrix on the first batch; drift-triggered dimension
        regeneration is a separate, explicit step
        (:meth:`regenerate_online`), typically driven by a
        ``repro.serving.DriftMonitor``.
        """
        cfg = self.config
        if self.encoder_ is None:
            self.encoder_ = make_encoder(
                cfg.encoder,
                in_features=X.shape[1],
                dim=cfg.dim,
                rng=self._rng,
                dtype=resolve_dtype(cfg.dtype),
                **cfg.encoder_kwargs,
            )
            n_classes = int(self.classes_.shape[0])
            dtype = resolve_dtype(cfg.dtype)
            self.class_hypervectors_ = np.zeros((n_classes, cfg.dim), dtype=dtype)
            self._class_norms = np.zeros(n_classes, dtype=dtype)
            self.regeneration_events_ = []
            self.fit_result_ = FitResult()
        if self._class_norms is None:
            self._class_norms = row_norms(self.class_hypervectors_)
        H = self.encoder_.encode(X)
        online_update(
            self.class_hypervectors_,
            H,
            y,
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_size,
            class_norms=self._class_norms,
        )
        # The quantized/packed inference caches are stale after any online update.
        self._invalidate_inference_caches()
        self.online_batches_ += 1
        self.online_samples_ += int(X.shape[0])

    def regenerate_online(
        self,
        X_recent: Optional[np.ndarray] = None,
        y_recent: Optional[np.ndarray] = None,
        rate: Optional[float] = None,
    ) -> Optional[RegenerationEvent]:
        """Drift-triggered drop-and-regenerate on a deployed model.

        Selects the lowest-variance dimensions of the current class matrix,
        redraws their encoder base vectors, and (when a recent labeled
        buffer is supplied) warm-starts the fresh columns from
        ``encode_partial`` -- only the regenerated columns of the buffer are
        ever encoded, the same incremental re-encode contract the offline
        ``fit`` uses.  Dimensions that are *not* selected keep their encoder
        parameters and class-matrix columns bit-for-bit, so predictions
        restricted to the surviving dimensions are unchanged.

        Returns the :class:`RegenerationEvent` (with ``online=True`` and
        ``epoch=-1``), or None when the configured rate selects nothing.
        """
        check_fitted(self, "class_hypervectors_")
        rate = self.config.regeneration_rate if rate is None else float(rate)
        dims, threshold = select_drop_dimensions(self.class_hypervectors_, rate)
        if dims.size == 0:
            return None
        apply_regeneration(self.class_hypervectors_, self.encoder_, dims)
        if X_recent is not None and y_recent is not None and len(X_recent):
            X_recent = np.asarray(X_recent)
            y_idx = np.searchsorted(self.classes_, np.asarray(y_recent))
            y_idx = np.clip(y_idx, 0, self.classes_.shape[0] - 1)
            if not np.array_equal(self.classes_[y_idx], np.asarray(y_recent)):
                raise ValueError(
                    "regenerate_online received labels outside the known class set"
                )
            columns = self.encoder_.encode_partial(X_recent, dims)
            warm_start_regenerated(
                self.class_hypervectors_, columns, y_idx, dims, H_is_partial=True
            )
        if self._class_norms is not None:
            self._class_norms[:] = row_norms(self.class_hypervectors_)
        self._invalidate_inference_caches()
        event = RegenerationEvent(
            epoch=-1, dimensions=dims, variance_threshold=threshold, online=True
        )
        self.regeneration_events_.append(event)
        return event

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
        if self.config.inference_bits is not None:
            if self._quantized_classes is None:
                self._quantized_classes = QuantizedClassMatrix.from_matrix(
                    self.class_hypervectors_, bits=self.config.inference_bits
                )
            return self._quantized_classes.scores(H)
        return cosine_similarity_matrix(H, self.class_hypervectors_)

    # ------------------------------------------------------------------ misc
    def encode(self, X: np.ndarray) -> np.ndarray:
        """Encode raw features into hyperspace with the trained encoder."""
        check_fitted(self, "encoder_")
        return self.encoder_.encode(X)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fitted = self.class_hypervectors_ is not None
        return (
            f"CyberHD(dim={self.config.dim}, encoder={self.config.encoder!r}, "
            f"epochs={self.config.epochs}, regeneration_rate={self.config.regeneration_rate}, "
            f"fitted={fitted})"
        )
