"""Tests for the CyberHD classifier, its config and the training/regeneration machinery."""

import numpy as np
import pytest

from repro.core.config import CyberHDConfig
from repro.core.cyberhd import CyberHD
from repro.core.regeneration import (
    apply_regeneration,
    select_drop_dimensions,
    warm_start_regenerated,
)
from repro.core.trainer import (
    adaptive_epoch,
    adaptive_one_pass_fit,
    one_pass_fit,
    predict_indices,
    training_accuracy,
)
from repro.exceptions import ConfigurationError, NotFittedError
from repro.hdc.encoders import RBFEncoder


class TestConfig:
    def test_defaults_valid(self):
        cfg = CyberHDConfig().validate()
        assert cfg.dim == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"epochs": -1},
            {"learning_rate": 0.0},
            {"regeneration_rate": 1.0},
            {"regeneration_interval": 0},
            {"batch_size": 0},
            {"early_stop_accuracy": 1.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CyberHDConfig(**kwargs).validate()

    def test_model_rejects_config_plus_kwargs(self):
        with pytest.raises(TypeError):
            CyberHD(CyberHDConfig(), dim=128)


class TestTrainer:
    def test_one_pass_fit_shapes_and_sums(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 1, 0])
        classes = one_pass_fit(H, y, n_classes=2)
        np.testing.assert_allclose(classes[0], [2.0, 1.0])
        np.testing.assert_allclose(classes[1], [0.0, 1.0])

    def test_adaptive_one_pass_produces_separating_model(self, blob_data):
        X, y = blob_data
        encoder = RBFEncoder(in_features=3, dim=256, rng=0)
        H = encoder.encode(X)
        classes = adaptive_one_pass_fit(H, y, n_classes=3, rng=0)
        assert classes.shape == (3, 256)
        # A single weighted bundling pass gives a usable (well above chance)
        # starting model; the retraining epochs do the rest.
        assert training_accuracy(classes, H, y) > 0.55

    def test_adaptive_epoch_improves_or_holds_accuracy(self, blob_data):
        X, y = blob_data
        encoder = RBFEncoder(in_features=3, dim=128, rng=0)
        H = encoder.encode(X)
        classes = one_pass_fit(H, y, n_classes=3)
        before = training_accuracy(classes, H, y)
        for _ in range(5):
            errors, accuracy = adaptive_epoch(classes, H, y, learning_rate=1.0, rng=0)
        assert accuracy >= before - 0.05
        assert errors >= 0

    def test_adaptive_epoch_error_count_matches_accuracy(self, blob_data):
        X, y = blob_data
        encoder = RBFEncoder(in_features=3, dim=64, rng=0)
        H = encoder.encode(X)
        classes = one_pass_fit(H, y, n_classes=3)
        errors, accuracy = adaptive_epoch(classes, H, y, learning_rate=0.5, rng=1)
        assert np.isclose(accuracy, 1.0 - errors / X.shape[0])

    def test_predict_indices_range(self, blob_data):
        X, y = blob_data
        encoder = RBFEncoder(in_features=3, dim=64, rng=0)
        H = encoder.encode(X)
        classes = one_pass_fit(H, y, n_classes=3)
        pred = predict_indices(classes, H)
        assert pred.min() >= 0 and pred.max() <= 2


class TestRegenerationPrimitives:
    def test_select_drop_dimensions_count(self):
        rng = np.random.default_rng(0)
        classes = rng.standard_normal((4, 100))
        dims, threshold = select_drop_dimensions(classes, 0.1)
        assert dims.shape == (10,)
        assert threshold >= 0.0

    def test_select_drop_dimensions_zero_rate(self):
        classes = np.random.default_rng(0).standard_normal((3, 50))
        dims, threshold = select_drop_dimensions(classes, 0.0)
        assert dims.size == 0 and threshold == 0.0

    def test_select_picks_common_dimensions(self):
        rng = np.random.default_rng(1)
        classes = rng.standard_normal((5, 60))
        classes[:, 7] = 0.0  # carries no information in any class
        dims, _ = select_drop_dimensions(classes, 0.02)
        assert 7 in dims.tolist()

    def test_select_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            select_drop_dimensions(np.ones((2, 4)), 1.0)

    def test_apply_regeneration_zeroes_columns_and_updates_encoder(self):
        encoder = RBFEncoder(in_features=4, dim=20, rng=0)
        classes = np.random.default_rng(0).standard_normal((3, 20))
        dims = np.array([2, 5])
        apply_regeneration(classes, encoder, dims)
        np.testing.assert_allclose(classes[:, dims], 0.0)
        assert encoder.regenerated_total == 2

    def test_warm_start_fills_columns_with_matching_scale(self):
        rng = np.random.default_rng(0)
        classes = rng.standard_normal((3, 30))
        dims = np.array([0, 1, 2])
        classes[:, dims] = 0.0
        H = rng.standard_normal((50, 30))
        y = rng.integers(0, 3, size=50)
        warm_start_regenerated(classes, H, y, dims)
        assert not np.allclose(classes[:, dims], 0.0)
        # Per-class magnitudes of the new columns track the surviving columns.
        for c in range(3):
            new_scale = np.mean(np.abs(classes[c, dims]))
            old_scale = np.mean(np.abs(classes[c, 3:]))
            assert 0.2 * old_scale <= new_scale <= 5.0 * old_scale


class TestCyberHDModel:
    def test_fit_predict_on_blobs(self, blob_data):
        X, y = blob_data
        model = CyberHD(dim=128, epochs=5, seed=0).fit(X, y)
        assert model.score(X, y) > 0.9
        assert model.predict(X).shape == (X.shape[0],)

    def test_predict_before_fit_raises(self):
        model = CyberHD(dim=64, epochs=2, seed=0)
        with pytest.raises(NotFittedError):
            model.predict(np.ones((2, 3)))

    def test_regeneration_events_recorded(self, trained_cyberhd):
        assert len(trained_cyberhd.regeneration_events_) > 0
        event = trained_cyberhd.regeneration_events_[0]
        assert event.dimensions.size > 0
        assert event.epoch >= 1

    def test_effective_dim_exceeds_physical(self, trained_cyberhd):
        assert trained_cyberhd.effective_dim_ > trained_cyberhd.dim
        assert trained_cyberhd.total_regenerated_ == (
            trained_cyberhd.effective_dim_ - trained_cyberhd.dim
        )

    def test_zero_regeneration_keeps_physical_dim(self, blob_data):
        X, y = blob_data
        model = CyberHD(dim=64, epochs=3, regeneration_rate=0.0, seed=0).fit(X, y)
        assert model.effective_dim_ == 64
        assert model.regeneration_events_ == []

    def test_history_contains_expected_keys(self, trained_cyberhd):
        history = trained_cyberhd.fit_result_.history
        assert set(history) == {"train_accuracy", "regenerated_dims", "effective_dim"}
        assert len(history["train_accuracy"]) == len(history["effective_dim"])

    def test_predictions_in_original_label_space(self, blob_data):
        X, y = blob_data
        shifted = y + 10  # labels 10, 11, 12
        model = CyberHD(dim=64, epochs=3, seed=0).fit(X, shifted)
        assert set(np.unique(model.predict(X))).issubset({10, 11, 12})

    def test_predict_scores_shape(self, trained_cyberhd, small_dataset):
        scores = trained_cyberhd.predict_scores(small_dataset.X_test)
        assert scores.shape == (small_dataset.n_test, trained_cyberhd.n_classes_)

    def test_encode_shape(self, trained_cyberhd, small_dataset):
        H = trained_cyberhd.encode(small_dataset.X_test[:5])
        assert H.shape == (5, trained_cyberhd.dim)

    def test_feature_count_mismatch_raises(self, trained_cyberhd):
        with pytest.raises(ConfigurationError):
            trained_cyberhd.predict(np.ones((2, 3)))

    def test_single_class_training_rejected(self):
        X = np.random.default_rng(0).uniform(size=(20, 4))
        y = np.zeros(20, dtype=int)
        with pytest.raises(ValueError):
            CyberHD(dim=32, epochs=2, seed=0).fit(X, y)

    def test_early_stopping_reduces_epochs(self, blob_data):
        X, y = blob_data
        model = CyberHD(dim=128, epochs=30, early_stop_accuracy=0.9, seed=0).fit(X, y)
        assert model.fit_result_.epochs_run < 30

    def test_early_stopped_fit_deploys_no_untrained_dimensions(self, small_dataset):
        """Stopping early skips that epoch's regeneration, as the final epoch does."""
        model = CyberHD(
            dim=96, epochs=12, regeneration_rate=0.1, early_stop_accuracy=0.8, seed=0
        ).fit(small_dataset.X_train, small_dataset.y_train)
        epochs_run = model.fit_result_.epochs_run
        assert 1 < epochs_run < 12
        assert model.regeneration_events_
        assert model.regeneration_events_[-1].epoch < epochs_run
        assert model.fit_result_.history["regenerated_dims"][-1] == 0.0

    def test_regeneration_beats_static_model_on_dataset(self, small_dataset):
        """The paper's core claim at small scale: regeneration helps at fixed D."""
        static = CyberHD(dim=96, epochs=10, regeneration_rate=0.0, seed=3)
        dynamic = CyberHD(dim=96, epochs=10, regeneration_rate=0.1, seed=3)
        static.fit(small_dataset.X_train, small_dataset.y_train)
        dynamic.fit(small_dataset.X_train, small_dataset.y_train)
        acc_static = static.score(small_dataset.X_test, small_dataset.y_test)
        acc_dynamic = dynamic.score(small_dataset.X_test, small_dataset.y_test)
        assert acc_dynamic >= acc_static - 0.02
