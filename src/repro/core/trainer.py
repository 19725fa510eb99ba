"""Shared HDC training routines (step ``B`` of the CyberHD workflow).

Both :class:`repro.core.CyberHD` and the static
:class:`repro.models.BaselineHDC` train their class hypervectors with the same
two-stage procedure:

1. **One-pass bundling** -- every encoded training sample is added to its
   class hypervector.  This gives a usable model after a single pass.
2. **Adaptive (similarity-weighted) retraining** -- for every mispredicted
   sample ``H`` with true class ``l`` and predicted class ``l'``::

       C_l  <- C_l  + eta * (1 - delta_l ) * H
       C_l' <- C_l' - eta * (1 - delta_l') * H

   where ``delta_c`` is the cosine similarity of ``H`` to class ``c``.  A
   sample that is already well represented (``delta ~ 1``) barely changes the
   model, which prevents saturation; a novel pattern (``delta ~ 0``) updates
   the model strongly.

The implementation is mini-batch vectorized through
:mod:`repro.hdc.backend`: similarities for a whole batch are one matrix
product against the class matrix with *cached* row norms (sample norms are
computed once per epoch, class norms once per update -- not once per batch),
and the per-class updates are aggregated with a one-hot GEMM segment sum
instead of an ``np.add.at`` scatter, matching the paper's "highly parallel
matrix operations" formulation.  All routines preserve the dtype of the
encoded matrix ``H`` (float32 under the default backend policy).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.hdc.backend import row_norms, segment_sum, update_row_norms
from repro.hdc.similarity import cosine_similarity_matrix
from repro.utils.rng import SeedLike, ensure_rng


def _as_float_matrix(H: np.ndarray) -> np.ndarray:
    """Pass floating matrices through untouched; promote everything else."""
    H = np.asarray(H)
    if H.dtype not in (np.float32, np.float64):
        H = H.astype(np.float64)
    return H


def one_pass_fit(H: np.ndarray, y: np.ndarray, n_classes: int) -> np.ndarray:
    """Naive initial class hypervectors: bundle every sample into its class.

    Parameters
    ----------
    H:
        ``(n, D)`` encoded training samples.
    y:
        ``(n,)`` class indices in ``0..n_classes-1``.
    n_classes:
        Number of classes ``k``.

    Returns
    -------
    ndarray
        ``(k, D)`` class hypervector matrix (same dtype as ``H``).
    """
    H = _as_float_matrix(H)
    y = np.asarray(y, dtype=np.int64)
    return segment_sum(H, y, n_classes)


def adaptive_one_pass_fit(
    H: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    batch_size: int = 256,
    rng: SeedLike = None,
    query_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Similarity-weighted initial bundling (the paper's anti-saturation rule).

    Instead of adding every sample at full weight, each sample ``H_i`` is added
    to its class with weight ``1 - delta_l`` (its cosine similarity to the
    current class hypervector), and subtracted from a wrongly predicted class
    with weight ``1 - delta_l'``.  Samples that are already well represented
    barely change the model, which prevents the class hypervectors from
    saturating with redundant patterns.

    ``query_norms`` are optional pre-computed ``(n,)`` row norms of ``H``, as
    in :func:`adaptive_epoch`: a caller that goes on to retrain on the same
    ``H`` computes them once and passes them to both.

    Returns the ``(k, D)`` class matrix (same dtype as ``H``).
    """
    H = _as_float_matrix(H)
    y = np.asarray(y, dtype=np.int64)
    classes = np.zeros((n_classes, H.shape[1]), dtype=H.dtype)
    class_norms = np.zeros(n_classes, dtype=H.dtype)
    sample_norms = row_norms(H) if query_norms is None else query_norms
    gen = ensure_rng(rng)
    order = gen.permutation(H.shape[0])
    for start in range(0, H.shape[0], batch_size):
        idx = order[start : start + batch_size]
        Hb = H[idx]
        yb = y[idx]
        sims = cosine_similarity_matrix(
            Hb, classes, query_norms=sample_norms[idx], class_norms=class_norms
        )
        pred = np.argmax(sims, axis=1)
        sim_true = sims[np.arange(idx.size), yb]
        ids = yb
        rows = (1.0 - sim_true)[:, None].astype(H.dtype) * Hb
        wrong = pred != yb
        if np.any(wrong):
            sim_pred = sims[wrong, pred[wrong]]
            ids = np.concatenate([ids, pred[wrong]])
            rows = np.concatenate(
                [rows, -(1.0 - sim_pred)[:, None].astype(H.dtype) * Hb[wrong]]
            )
        classes += segment_sum(rows, ids, n_classes)
        update_row_norms(class_norms, classes, np.unique(ids))
    return classes


def adaptive_epoch(
    class_hypervectors: np.ndarray,
    H: np.ndarray,
    y: np.ndarray,
    learning_rate: float,
    batch_size: int = 256,
    rng: SeedLike = None,
    shuffle: bool = True,
    query_norms: Optional[np.ndarray] = None,
    class_norms: Optional[np.ndarray] = None,
) -> Tuple[int, float]:
    """One epoch of similarity-weighted adaptive retraining (in place).

    Parameters
    ----------
    class_hypervectors:
        ``(k, D)`` class matrix, updated in place.
    H:
        ``(n, D)`` encoded training samples.
    y:
        ``(n,)`` class indices.
    learning_rate:
        Update step ``eta``.
    batch_size:
        Samples per vectorized update step.
    rng:
        Seed/generator used for shuffling.
    shuffle:
        Whether to shuffle sample order each epoch.
    query_norms:
        Optional pre-computed ``(n,)`` row norms of ``H``.  Since ``H`` does
        not change within an epoch (or across epochs, until a regeneration
        step rewrites columns), callers looping over epochs should compute
        them once and pass them in.
    class_norms:
        Optional ``(k,)`` row norms of ``class_hypervectors``.  **Updated in
        place** as classes are updated, so a caller can thread the same
        array through consecutive epochs and the norms are computed once per
        class *update* rather than once per batch.

    Returns
    -------
    (errors, accuracy):
        Number of mispredicted training samples during the epoch and the
        corresponding training accuracy.
    """
    H = _as_float_matrix(H)
    y = np.asarray(y, dtype=np.int64)
    n = H.shape[0]
    n_classes = class_hypervectors.shape[0]
    if query_norms is None:
        query_norms = row_norms(H)
    if class_norms is None:
        class_norms = row_norms(class_hypervectors)
    gen = ensure_rng(rng)
    order = gen.permutation(n) if shuffle else np.arange(n)
    errors = 0
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        Hb = H[idx]
        yb = y[idx]
        sims = cosine_similarity_matrix(
            Hb, class_hypervectors, query_norms=query_norms[idx], class_norms=class_norms
        )
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
        add_weights = (learning_rate * (1.0 - sim_true)).astype(H.dtype)
        sub_weights = (learning_rate * (1.0 - sim_pred)).astype(H.dtype)
        ids = np.concatenate([yw, pw])
        rows = np.concatenate([add_weights[:, None] * Hw, -sub_weights[:, None] * Hw])
        class_hypervectors += segment_sum(rows, ids, n_classes)
        update_row_norms(class_norms, class_hypervectors, np.unique(ids))
    accuracy = 1.0 - errors / n
    return errors, accuracy


def online_update(
    class_hypervectors: np.ndarray,
    H: np.ndarray,
    y: np.ndarray,
    learning_rate: float,
    batch_size: int = 256,
    query_norms: Optional[np.ndarray] = None,
    class_norms: Optional[np.ndarray] = None,
) -> Tuple[int, float]:
    """One deterministic online pass over a streaming mini-batch (in place).

    This is the ``partial_fit`` kernel: exactly one :func:`adaptive_epoch`
    with shuffling disabled, so samples are consumed in arrival order and a
    ``partial_fit(X, y)`` call is bitwise-equivalent to one batched
    ``adaptive_epoch`` over the same encoded samples.  ``class_norms`` should
    be the model's cached norm vector; it is invalidated/updated in place as
    class hypervectors change (the cached-norm cosine fast path).

    Returns ``(errors, accuracy)`` measured *before* each update step
    (prequential: a sample is scored against the model state that had not
    yet seen it).
    """
    return adaptive_epoch(
        class_hypervectors,
        H,
        y,
        learning_rate=learning_rate,
        batch_size=batch_size,
        shuffle=False,
        query_norms=query_norms,
        class_norms=class_norms,
    )


def predict_indices(
    class_hypervectors: np.ndarray,
    H: np.ndarray,
    class_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Class indices with the highest cosine similarity to each query row."""
    sims = cosine_similarity_matrix(H, class_hypervectors, class_norms=class_norms)
    return np.argmax(sims, axis=1)


def training_accuracy(
    class_hypervectors: np.ndarray,
    H: np.ndarray,
    y: np.ndarray,
    class_norms: Optional[np.ndarray] = None,
) -> float:
    """Accuracy of the current class matrix on encoded samples ``H``."""
    pred = predict_indices(class_hypervectors, H, class_norms=class_norms)
    return float(np.mean(pred == np.asarray(y, dtype=np.int64)))
