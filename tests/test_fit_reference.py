"""``CyberHD.fit`` is pinned bit for bit to its plain formulation.

The fit loop writes regenerated columns through a blocked flat-index pass,
refreshes sample norms in the same pass, warm-starts from the freshly
encoded columns and encodes in place.  None of that may change a single
bit of the trained model, so this module re-implements the loop in its
plain form -- fancy-index column write, ``np.linalg.norm`` over the whole
training matrix, warm start gathered from the full matrix -- and demands
``np.array_equal`` class matrices.  The encoders' in-place arithmetic is
pinned the same way against the textbook formulas.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cyberhd import CyberHD
from repro.core.regeneration import (
    apply_regeneration,
    select_drop_dimensions,
    warm_start_regenerated,
)
from repro.core.trainer import adaptive_epoch, adaptive_one_pass_fit
from repro.hdc.backend import resolve_dtype
from repro.hdc.encoders import make_encoder
from repro.utils.rng import ensure_rng

ENCODERS = (
    ("rbf", {}),
    ("rbf", {"use_sine": True}),
    ("linear", {}),
    ("level_id", {}),
)
DTYPES = ("float32", "float64")


def _reference_fit(model: CyberHD, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The fit loop in its plain form; returns the trained class matrix."""
    cfg = model.config
    rng = ensure_rng(cfg.seed)
    _, y = np.unique(y, return_inverse=True)
    encoder = make_encoder(
        cfg.encoder,
        in_features=X.shape[1],
        dim=cfg.dim,
        rng=rng,
        dtype=resolve_dtype(cfg.dtype),
        **cfg.encoder_kwargs,
    )
    H = encoder.encode(X)
    classes = adaptive_one_pass_fit(H, y, int(y.max()) + 1, batch_size=cfg.batch_size, rng=rng)
    sample_norms = np.linalg.norm(H, axis=1)
    class_norms = np.linalg.norm(classes, axis=1)
    for epoch in range(1, cfg.epochs + 1):
        adaptive_epoch(
            classes,
            H,
            y,
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_size,
            rng=rng,
            query_norms=sample_norms,
            class_norms=class_norms,
        )
        if epoch % cfg.regeneration_interval or epoch == cfg.epochs:
            continue
        dims, _ = select_drop_dimensions(classes, cfg.regeneration_rate)
        apply_regeneration(classes, encoder, dims)
        H[:, dims] = encoder.encode_partial(X, dims)
        sample_norms = np.linalg.norm(H, axis=1)
        warm_start_regenerated(classes, H, y, dims)
        class_norms[:] = np.linalg.norm(classes, axis=1)
    return classes


@pytest.mark.parametrize("encoder,encoder_kwargs", ENCODERS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_fit_matches_the_plain_loop_bitwise(small_dataset, encoder, encoder_kwargs, dtype):
    X, y = small_dataset.X_train, small_dataset.y_train
    # 600 rows: two full 256-row blocks and a partial one in every blocked pass.
    model = CyberHD(
        dim=96,
        epochs=4,
        regeneration_rate=0.2,
        encoder=encoder,
        encoder_kwargs=encoder_kwargs,
        dtype=dtype,
        seed=5,
    ).fit(X, y)
    assert len(model.regeneration_events_) == 3
    expected = _reference_fit(model, np.asarray(X), np.asarray(y))
    assert model.class_hypervectors_.dtype == expected.dtype
    assert np.array_equal(model.class_hypervectors_, expected)


def _features(dtype: str, n: int = 300, f: int = 9) -> np.ndarray:
    return np.random.default_rng(11).uniform(0.0, 1.0, size=(n, f)).astype(dtype)


@pytest.mark.parametrize("use_sine", (False, True))
@pytest.mark.parametrize("dtype", DTYPES)
def test_rbf_encode_matches_the_textbook_formula(use_sine, dtype):
    X = _features(dtype)
    encoder = make_encoder("rbf", in_features=9, dim=70, rng=3, dtype=dtype, use_sine=use_sine)
    projected = X @ encoder.bases.T + encoder.phases
    expected = np.cos(projected)
    if use_sine:
        odd = np.arange(70) % 2 == 1
        expected[:, odd] = np.sin(projected[:, odd])
    assert np.array_equal(encoder.encode(X), expected)
    dims = np.array([0, 1, 6, 33, 69])
    assert np.array_equal(encoder.encode_partial(X, dims), expected[:, dims])


@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_tanh_encode_matches_the_textbook_formula(dtype):
    X = _features(dtype)
    encoder = make_encoder("linear", in_features=9, dim=70, rng=3, dtype=dtype)
    expected = np.tanh(X @ encoder.bases.T)
    assert np.array_equal(encoder.encode(X), expected)
    dims = np.array([2, 40, 41])
    assert np.array_equal(encoder.encode_partial(X, dims), expected[:, dims])
