"""Tests for the suite registry behind ``repro bench`` and ``repro matrix``.

The load-bearing properties:

* **one set of defaults** — ``repro bench --suite X`` and a one-cell matrix
  run of ``suite: X`` call the suite's entry point with the same arguments,
  so a suite's defaults live only in its entry point's signature;
* **explicit values win** — a value the caller passes survives ``quick``,
  even when it equals the full-mode default;
* **loud rejection** — a flag the suite does not take exits 2 instead of
  being ignored;
* **per-suite cache isolation** — editing one suite's module moves only
  that suite's code fingerprint.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.bench.harness import make_record
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.matrix import code_fingerprint, parse_spec, run_matrix
from repro.matrix import runner as runner_mod
from repro.matrix.runner import SUITES, SuiteBinding, get_suites


class RecordingEntry:
    """Stands in for a suite entry point: same signature, records its calls."""

    def __init__(self, real):
        self.__signature__ = inspect.signature(real)
        self.calls = []

    def __call__(self, **kwargs):
        self.calls.append(kwargs)
        return [make_record("stub", 0.0)]


@pytest.fixture()
def recording_suites(monkeypatch):
    suites = {
        name: SuiteBinding(
            name=name,
            runner=RecordingEntry(binding.runner),
            baseline_json=binding.baseline_json,
            modules=binding.modules,
        )
        for name, binding in get_suites().items()
    }
    monkeypatch.setattr(runner_mod, "get_suites", lambda: suites)
    return suites


@pytest.mark.parametrize("quick", [False, True])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_bench_and_matrix_call_the_entry_alike(
    suite, quick, recording_suites, tmp_path, capsys
):
    argv = ["bench", "--suite", suite, "--json", str(tmp_path / "bench.json")]
    assert main(argv + (["--quick"] if quick else [])) == 0
    cell = {"suite": suite, **({"quick": True} if quick else {})}
    spec = parse_spec({"schema": "repro-matrix-spec/1", "grid": [cell]})
    run_matrix(spec, tmp_path / "cache", use_cache=False)
    calls = recording_suites[suite].runner.calls
    assert len(calls) == 2
    assert calls[0] == calls[1] == ({"quick": True} if quick else {})


def test_bench_forwards_only_the_flags_given(recording_suites, tmp_path):
    argv = ["bench", "--suite", "cluster", "--quick", "--workers", "2", "--dim", "256"]
    assert main(argv + ["--json", str(tmp_path / "bench.json")]) == 0
    assert recording_suites["cluster"].runner.calls == [
        {"quick": True, "workers": 2, "dim": 256}
    ]


def test_flag_the_suite_does_not_take_exits_2(recording_suites, tmp_path, capsys):
    argv = ["bench", "--suite", "cascade", "--workers", "2"]
    assert main(argv + ["--json", str(tmp_path / "bench.json")]) == 2
    assert recording_suites["cascade"].runner.calls == []
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_matrix_cell_param_the_suite_does_not_take_exits_2(
    recording_suites, tmp_path, capsys
):
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"schema": "repro-matrix-spec/1", "grid": [{"suite": "cascade", "workers": 2}]}'
    )
    argv = ["matrix", "run", str(spec), "--no-cache", "--json", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert recording_suites["cascade"].runner.calls == []
    assert "cascade/workers=2" in capsys.readouterr().err


def test_bad_later_cell_fails_before_any_cell_runs(recording_suites, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"schema": "repro-matrix-spec/1", "grid": ['
        '{"suite": "hdc", "quick": true}, {"suite": "cascade", "workers": 2}]}'
    )
    argv = ["matrix", "run", str(spec), "--no-cache", "--json", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert recording_suites["hdc"].runner.calls == []
    assert "cascade/workers=2" in capsys.readouterr().err


def test_unknown_suite_in_a_later_cell_fails_before_any_cell_runs(
    recording_suites, tmp_path
):
    spec = parse_spec(
        {"schema": "repro-matrix-spec/1", "grid": [{"suite": "hdc"}, {"suite": "nope"}]},
        known_suites=None,
    )
    with pytest.raises(ConfigurationError, match="unknown suite 'nope'"):
        run_matrix(spec, tmp_path / "cache", use_cache=False)
    assert recording_suites["hdc"].runner.calls == []


def test_fabric_rejects_fewer_than_100_tenants(monkeypatch):
    import repro.bench.fabric as fabric

    recorder = Recorder()
    monkeypatch.setattr(fabric, "bench_fabric", recorder)
    with pytest.raises(ConfigurationError, match="100"):
        fabric.run(tenants=8, quick=True)
    assert recorder.kwargs is None
    fabric.run(tenants=100, quick=True)
    assert recorder.kwargs["tenants"] == 100


def test_fabric_tenants_below_100_exits_2(tmp_path, capsys):
    argv = ["bench", "--suite", "fabric", "--quick", "--tenants", "8"]
    assert main(argv + ["--json", str(tmp_path / "bench.json")]) == 2
    assert "tenants" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_suite_choices_come_from_the_registry(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--suite", "streaming"])
    assert excinfo.value.code == 2
    assert "cluster" in capsys.readouterr().err


class Recorder:
    def __init__(self):
        self.kwargs = None

    def __call__(self, **kwargs):
        self.kwargs = kwargs
        return [make_record("stub", 0.0)]


def test_explicit_cluster_values_survive_quick(monkeypatch, tmp_path):
    import repro.bench.cluster as cluster

    recorder = Recorder()
    monkeypatch.setattr(cluster, "bench_cluster", recorder)
    argv = ["bench", "--suite", "cluster", "--quick", "--dim", "256", "--flows-scale", "2.0"]
    assert main(argv + ["--json", str(tmp_path / "bench.json")]) == 0
    assert recorder.kwargs["dim"] == 256
    assert recorder.kwargs["flows_scale"] == 2.0
    assert recorder.kwargs["batch_size"] == 256  # left unset: the quick default

    cluster.run(quick=True, batch_size=512)
    assert recorder.kwargs["batch_size"] == 512
    assert recorder.kwargs["dim"] == 128


def test_explicit_hdc_values_survive_quick(monkeypatch):
    import repro.bench.hdc as hdc

    primitives, fit = Recorder(), Recorder()
    monkeypatch.setattr(hdc, "bench_primitives", primitives)
    monkeypatch.setattr(hdc, "bench_fit", fit)
    hdc.run(quick=True, epochs=8, n_fit=4000, repeats=3)
    assert fit.kwargs == {"dim": 500, "n": 4000, "epochs": 8, "repeats": 2}
    assert primitives.kwargs == {"dim": 500, "n": 500, "repeats": 3}


def _fingerprints():
    return {
        name: code_fingerprint(binding.modules) for name, binding in get_suites().items()
    }


def _edit(monkeypatch, target: Path):
    original = Path.read_bytes

    def read_bytes(self):
        data = original(self)
        return data + b"\n# edited\n" if self == target else data

    monkeypatch.setattr(Path, "read_bytes", read_bytes)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_editing_one_suite_moves_only_its_fingerprint(suite, monkeypatch):
    before = _fingerprints()
    _edit(monkeypatch, Path(importlib.util.find_spec(f"repro.bench.{suite}").origin))
    after = _fingerprints()
    moved = {name for name in SUITES if after[name] != before[name]}
    assert moved == {suite}


def test_editing_the_harness_moves_every_fingerprint(monkeypatch):
    before = _fingerprints()
    _edit(monkeypatch, Path(importlib.util.find_spec("repro.bench.harness").origin))
    after = _fingerprints()
    assert all(after[name] != before[name] for name in SUITES)
