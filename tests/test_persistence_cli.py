"""Tests for model persistence and the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.cyberhd import CyberHD
from repro.exceptions import ConfigurationError, NotFittedError
from repro.models.hdc_classifier import BaselineHDC
from repro.persistence import load_model, save_model


class TestPersistence:
    def test_cyberhd_roundtrip_predictions_identical(self, trained_cyberhd, small_dataset, tmp_path):
        path = save_model(trained_cyberhd, tmp_path / "cyberhd.npz")
        restored = load_model(path)
        np.testing.assert_array_equal(
            restored.predict(small_dataset.X_test), trained_cyberhd.predict(small_dataset.X_test)
        )
        assert isinstance(restored, CyberHD)
        assert restored.encoder_.regenerated_total == trained_cyberhd.encoder_.regenerated_total

    def test_baseline_roundtrip(self, trained_baseline_hdc, small_dataset, tmp_path):
        path = save_model(trained_baseline_hdc, tmp_path / "baseline.npz")
        restored = load_model(path)
        assert isinstance(restored, BaselineHDC)
        np.testing.assert_array_equal(
            restored.predict(small_dataset.X_test),
            trained_baseline_hdc.predict(small_dataset.X_test),
        )

    def test_linear_encoder_roundtrip(self, blob_data, tmp_path):
        X, y = blob_data
        model = BaselineHDC(dim=64, encoder="linear", epochs=3, seed=0).fit(X, y)
        restored = load_model(save_model(model, tmp_path / "linear.npz"))
        np.testing.assert_array_equal(restored.predict(X), model.predict(X))

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_model(CyberHD(dim=32, epochs=1, seed=0), tmp_path / "x.npz")

    def test_unsupported_encoder_rejected(self, blob_data, tmp_path):
        X, y = blob_data
        model = BaselineHDC(dim=32, encoder="level_id", epochs=2, seed=0).fit(X, y)
        with pytest.raises(ConfigurationError):
            save_model(model, tmp_path / "levelid.npz")


class TestCLI:
    def test_parser_version_and_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig3", "--scale", "fast"])
        assert args.command == "run" and args.experiments == ["fig3"]

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "ablation_encoder" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_ablation_and_json(self, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        assert main(["run", "ablation_encoder", "--json", str(json_path)]) == 0
        assert json_path.exists()
        out = capsys.readouterr().out
        assert "ablation_encoder" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out


class TestServeCLI:
    def test_serve_smoke(self, capsys):
        assert main([
            "serve", "--flows", "60", "--train-flows", "80",
            "--dim", "64", "--epochs", "2", "--window", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "per-stage telemetry" in out
        assert "backpressure" in out

    def test_serve_online_save_load(self, tmp_path, capsys):
        saved = str(tmp_path / "pipeline.npz")
        assert main([
            "serve", "--flows", "60", "--train-flows", "80",
            "--dim", "64", "--epochs", "2", "--online", "--save", saved,
            "--json", str(tmp_path / "summary.json"),
        ]) == 0
        assert main(["serve", "--flows", "40", "--model", saved]) == 0
        out = capsys.readouterr().out
        assert "loaded pipeline" in out
