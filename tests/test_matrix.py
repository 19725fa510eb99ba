"""Tests for the declarative experiment matrix (:mod:`repro.matrix`).

The load-bearing properties:

* **cache-key honesty** — a cell key moves when (and only when) something
  that could change the measurement moves: a parameter, the dataset
  digest, the code fingerprint of the suite's modules, the dtype policy.
  A stale cache hit would silently gate CI on old numbers.
* **resume** — an interrupted sweep re-run executes only the missing
  cells; completed cells are cache hits.
* **significance floor** — a single-repeat run can never confirm a
  regression (verdict stays ``inconclusive``); three repeats can.
* **gate fidelity** — ``diff_matrix`` applies the same parity/tolerance/
  floor semantics as ``diff_bench_payloads``, per cell.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main
from repro.cluster.loadgen import compile_scenario_trace, get_scenario
from repro.exceptions import ConfigurationError
from repro.matrix import (
    MatrixCell,
    ResultCache,
    cell_key,
    code_fingerprint,
    compare_cells,
    dataset_digest,
    diff_matrix,
    load_spec,
    mean_ci,
    paired_permutation_pvalue,
    parse_spec,
    render_report,
    run_matrix,
)
from repro.matrix.runner import SuiteBinding, run_cell
from repro.replay import per_attack_type_recall
from repro.serving.stages import FlowPrediction

# ---------------------------------------------------------------- stub suite


def _stub_records(speedup=3.0, parity_ok=1):
    return [
        {
            "op": "stub_parity",
            "dtype": "float32",
            "D": 8,
            "n": 16,
            "seconds": 0.01,
            "dataset": "synthetic",
            "parity_ok": parity_ok,
        },
        {
            "op": "stub_speedup",
            "dtype": "float32",
            "D": 8,
            "n": 16,
            "seconds": 0.01,
            "speedup": speedup,
        },
    ]


class StubRunner:
    """A deterministic fake suite runner that counts its invocations."""

    def __init__(self, speedups=None, parity_ok=1):
        self.calls = 0
        self.speedups = list(speedups) if speedups else None
        self.parity_ok = parity_ok

    def __call__(self, *, scale=1, quick=False):
        value = (
            self.speedups[self.calls % len(self.speedups)]
            if self.speedups
            else 3.0 * scale
        )
        self.calls += 1
        return _stub_records(speedup=value, parity_ok=self.parity_ok)


def _stub_suites(runner=None):
    runner = runner or StubRunner()
    binding = SuiteBinding(
        name="stub", runner=runner, baseline_json="BENCH_stub.json", modules=()
    )
    return {"stub": binding}, runner


def _spec(data, **kwargs):
    base = {"schema": "repro-matrix-spec/1"}
    base.update(data)
    return parse_spec(base, **kwargs)


STUB_SPEC = {"grid": [{"suite": "stub"}]}


# ------------------------------------------------------------------ the spec
class TestSpecParsing:
    def test_minimal_spec_expands_one_cell(self):
        spec = _spec(STUB_SPEC)
        assert [c.cell_id for c in spec.cells] == ["stub"]
        assert spec.cells[0].params_dict == {}
        assert spec.cells[0].repeats == 1

    def test_list_params_expand_cartesian(self):
        spec = _spec({"grid": [{"suite": "stub", "scale": [1, 2], "quick": [True, False]}]})
        assert len(spec.cells) == 4
        assert spec.cells[0].cell_id == "stub/quick=true,scale=1"
        assert {c.params_dict["scale"] for c in spec.cells} == {1, 2}

    def test_defaults_merge_under_entry_overrides(self):
        spec = _spec(
            {
                "defaults": {"quick": True, "scale": 1},
                "grid": [{"suite": "stub", "scale": 2}],
            }
        )
        assert spec.cells[0].params_dict == {"quick": True, "scale": 2}

    def test_explicit_id_names_the_entry(self):
        spec = _spec({"grid": [{"suite": "stub", "id": "mine", "scale": [1, 2]}]})
        assert [c.cell_id for c in spec.cells] == ["mine/scale=1", "mine/scale=2"]

    def test_duplicate_cell_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate cell ids"):
            _spec({"grid": [{"suite": "stub"}, {"suite": "stub"}]})

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown suites"):
            _spec(STUB_SPEC, known_suites=["hdc"])

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="schema"):
            parse_spec({"schema": "nope/9", "grid": [{"suite": "stub"}]})

    def test_missing_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="grid"):
            _spec({})

    def test_entry_without_suite_rejected(self):
        with pytest.raises(ConfigurationError, match="missing 'suite'"):
            _spec({"grid": [{"scale": 1}]})

    def test_reserved_keys_stay_out_of_params(self):
        spec = _spec({"grid": [{"suite": "stub", "repeats": 3, "tolerance": 0.1}]})
        cell = spec.cells[0]
        assert cell.params_dict == {}
        assert cell.repeats == 3
        assert cell.tolerance == 0.1

    def test_comparison_endpoints_validated(self):
        with pytest.raises(ConfigurationError, match="unknown cell"):
            _spec(
                {
                    "grid": [{"suite": "stub"}],
                    "comparisons": [
                        {
                            "name": "c",
                            "cell": "stub",
                            "baseline": "ghost",
                            "metric": "stub_speedup",
                        }
                    ],
                }
            )

    def test_floors_for_prefers_cell_entry_over_suite(self):
        spec = _spec(
            {
                "grid": [{"suite": "stub"}],
                "gates": {
                    "floors": {
                        "stub": {"stub_speedup": 1.0},
                        # The cell-id entry shadows the suite entry entirely.
                    }
                },
            }
        )
        assert spec.floors_for(spec.cells[0]) == {"stub_speedup": 1.0}
        spec2 = _spec(
            {
                "grid": [{"suite": "stub"}],
                "gates": {"floors": {"stub": {"stub_speedup": 9.0}}},
            }
        )
        assert spec2.floors_for(spec2.cells[0])["stub_speedup"] == 9.0

    def test_cell_tolerance_overrides_spec_tolerance(self):
        spec = _spec(
            {
                "grid": [{"suite": "stub", "tolerance": 0.05}],
                "gates": {"tolerance": 0.3},
            }
        )
        assert spec.tolerance == 0.3
        assert spec.tolerance_for(spec.cells[0]) == 0.05

    def test_spec_hash_tracks_content(self):
        a = _spec(STUB_SPEC)
        b = _spec(STUB_SPEC)
        c = _spec({"grid": [{"suite": "stub", "scale": 2}]})
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() != c.spec_hash()

    def test_load_spec_json_and_yaml_agree(self, tmp_path):
        doc = {"schema": "repro-matrix-spec/1", "grid": [{"suite": "stub", "scale": 2}]}
        json_path = tmp_path / "m.json"
        json_path.write_text(json.dumps(doc))
        yaml_path = tmp_path / "m.yaml"
        yaml_path.write_text(
            textwrap.dedent(
                """
                schema: repro-matrix-spec/1
                grid:
                  - suite: stub
                    scale: 2
                """
            )
        )
        from_json = load_spec(json_path)
        from_yaml = load_spec(yaml_path)
        assert [c.cell_id for c in from_json.cells] == [c.cell_id for c in from_yaml.cells]
        assert from_json.cells[0].params_dict == from_yaml.cells[0].params_dict


# ----------------------------------------------------------------- cache keys
class TestCellKeys:
    CELL = MatrixCell(cell_id="stub", suite="stub", params=(("scale", 1),))

    def test_key_is_stable(self):
        key1, _ = cell_key(self.CELL, "fp", dtype_policy="float32")
        key2, _ = cell_key(self.CELL, "fp", dtype_policy="float32")
        assert key1 == key2

    def test_param_change_moves_the_key(self):
        other = MatrixCell(cell_id="stub", suite="stub", params=(("scale", 2),))
        assert (
            cell_key(self.CELL, "fp", dtype_policy="f")[0]
            != cell_key(other, "fp", dtype_policy="f")[0]
        )

    def test_repeats_change_moves_the_key(self):
        other = MatrixCell(
            cell_id="stub", suite="stub", params=(("scale", 1),), repeats=3
        )
        assert (
            cell_key(self.CELL, "fp", dtype_policy="f")[0]
            != cell_key(other, "fp", dtype_policy="f")[0]
        )

    def test_code_fingerprint_change_moves_the_key(self):
        assert (
            cell_key(self.CELL, "fp-a", dtype_policy="f")[0]
            != cell_key(self.CELL, "fp-b", dtype_policy="f")[0]
        )

    def test_dtype_policy_change_moves_the_key(self):
        assert (
            cell_key(self.CELL, "fp", dtype_policy="float32")[0]
            != cell_key(self.CELL, "fp", dtype_policy="float64")[0]
        )

    def test_dataset_digest_change_moves_the_key(self, monkeypatch):
        cell = MatrixCell(
            cell_id="stub", suite="stub", params=(("dataset", "nsl_kdd"),)
        )
        import repro.matrix.cache as cache_mod

        monkeypatch.setattr(cache_mod, "dataset_digest", lambda name: "digest-a")
        key_a, components = cell_key(cell, "fp", dtype_policy="f")
        assert components["dataset"] == "digest-a"
        monkeypatch.setattr(cache_mod, "dataset_digest", lambda name: "digest-b")
        key_b, _ = cell_key(cell, "fp", dtype_policy="f")
        assert key_a != key_b

    def test_cell_without_dataset_param_hashes_no_digest(self):
        _, components = cell_key(self.CELL, "fp", dtype_policy="f")
        assert components["dataset"] is None

    def test_dataset_digest_deterministic_and_distinct(self):
        assert dataset_digest("nsl_kdd") == dataset_digest("nsl_kdd")
        assert dataset_digest("nsl_kdd") != dataset_digest("unsw_nb15")

    def test_code_fingerprint_tracks_source_edits(self, tmp_path, monkeypatch):
        module = tmp_path / "matrix_fp_probe.py"
        module.write_text("VALUE = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        import importlib

        importlib.invalidate_caches()
        before = code_fingerprint(["matrix_fp_probe"])
        module.write_text("VALUE = 2\n")
        after = code_fingerprint(["matrix_fp_probe"])
        assert before != after
        assert code_fingerprint(["matrix_fp_probe"]) == after

    def test_missing_module_fingerprints_empty(self):
        assert code_fingerprint(["no_such_module_xyz"]) == code_fingerprint([])


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        payload = {"schema": "repro-matrix-cell/1", "records": []}
        cache.put("k1", payload)
        assert cache.get("k1") == payload
        assert list(cache.keys()) == ["k1"]

    def test_miss_and_corruption_read_as_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ghost") is None
        cache.path("bad").write_text("{truncated")
        assert cache.get("bad") is None
        cache.put("wrong", {"schema": "other/1"})
        assert cache.get("wrong") is None

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"schema": "repro-matrix-cell/1"})
        assert [p.name for p in tmp_path.iterdir()] == ["k.json"]


# ---------------------------------------------------------------- statistics
class TestStats:
    def test_mean_ci_single_sample_collapses(self):
        stats = mean_ci([2.0])
        assert stats == {"mean": 2.0, "std": 0.0, "n": 1, "ci95": [2.0, 2.0]}

    def test_mean_ci_brackets_the_mean(self):
        stats = mean_ci([1.0, 2.0, 3.0])
        assert stats["mean"] == 2.0
        assert stats["ci95"][0] < 2.0 < stats["ci95"][1]

    def test_permutation_identical_samples_p_one(self):
        assert paired_permutation_pvalue([1.0, 1.0], [1.0, 1.0]) == 1.0

    def test_permutation_exact_minimum_p(self):
        # n=3 consistent wins: the one-sided exact p is exactly 1/2^3.
        p = paired_permutation_pvalue([2.0, 2.1, 2.2], [1.0, 1.1, 1.2], "greater")
        assert p == pytest.approx(0.125)

    def test_permutation_two_sided_doubles(self):
        p = paired_permutation_pvalue([2.0, 2.1, 2.2], [1.0, 1.1, 1.2])
        assert p == pytest.approx(0.25)

    def test_permutation_validates_inputs(self):
        with pytest.raises(ValueError, match="differ in length"):
            paired_permutation_pvalue([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="alternative"):
            paired_permutation_pvalue([1.0], [2.0], alternative="sideways")

    def test_monte_carlo_branch_is_seeded(self):
        a = list(range(20))
        b = [v + 0.5 for v in a]
        p1 = paired_permutation_pvalue(a, b, max_exact=8)
        p2 = paired_permutation_pvalue(a, b, max_exact=8)
        assert p1 == p2
        assert 0.0 < p1 <= 1.0

    def test_single_repeat_is_inconclusive(self):
        verdict = compare_cells([0.1], [9.0], min_ratio=1.0)
        assert verdict["verdict"] == "inconclusive"
        assert verdict["p_worse"] is None

    def test_consistent_shortfall_is_a_regression(self):
        verdict = compare_cells([1.0, 1.1, 0.9], [3.0, 3.1, 2.9], min_ratio=0.8)
        assert verdict["verdict"] == "regression"
        assert verdict["p_worse"] == pytest.approx(0.125)

    def test_ratio_above_floor_stays_ok(self):
        verdict = compare_cells([2.8, 2.9, 3.0], [3.0, 3.1, 2.9], min_ratio=0.8)
        assert verdict["verdict"] == "ok"

    def test_consistent_gain_is_an_improvement(self):
        verdict = compare_cells([4.0, 4.1, 4.2], [3.0, 3.1, 2.9], min_ratio=0.8)
        assert verdict["verdict"] == "improvement"

    def test_noisy_shortfall_stays_unconfirmed(self):
        # The candidate's mean dips below the floor but the paired diffs
        # point both ways: the permutation test cannot confirm, so the
        # verdict must not be "regression".
        verdict = compare_cells([1.0, 5.0, 1.2], [3.0, 3.1, 2.9], min_ratio=0.9)
        assert verdict["verdict"] != "regression"


# ------------------------------------------------------------------ the sweep
class TestRunMatrix:
    def test_cold_run_executes_and_warm_run_hits_cache(self, tmp_path):
        suites, runner = _stub_suites()
        spec = _spec(STUB_SPEC)
        cold = run_matrix(spec, tmp_path / "cache", suites=suites)
        assert cold["summary"] == pytest.approx(
            {
                "n_cells": 1,
                "n_cached": 0,
                "n_executed": 1,
                "cache_hit_fraction": 0.0,
                "wall_seconds": cold["summary"]["wall_seconds"],
            }
        )
        warm = run_matrix(spec, tmp_path / "cache", suites=suites)
        assert warm["summary"]["n_cached"] == 1
        assert warm["summary"]["cache_hit_fraction"] == 1.0
        assert runner.calls == 1
        assert warm["cells"][0]["cached"] is True
        assert warm["cells"][0]["records"] == cold["cells"][0]["records"]

    def test_interrupted_sweep_resumes_from_completed_cells(self, tmp_path):
        suites, runner = _stub_suites()
        subset = _spec({"grid": [{"suite": "stub", "scale": 1}]})
        full = _spec({"grid": [{"suite": "stub", "scale": [1, 2]}]})
        run_matrix(subset, tmp_path / "cache", suites=suites)
        assert runner.calls == 1
        report = run_matrix(full, tmp_path / "cache", suites=suites)
        # The scale=1 cell came back from cache; only scale=2 executed.
        assert report["summary"]["n_cached"] == 1
        assert report["summary"]["n_executed"] == 1
        assert runner.calls == 2

    def test_param_change_invalidates_the_cell(self, tmp_path):
        suites, runner = _stub_suites()
        run_matrix(
            _spec({"grid": [{"suite": "stub", "scale": 1}]}),
            tmp_path / "cache",
            suites=suites,
        )
        run_matrix(
            _spec({"grid": [{"suite": "stub", "scale": 2}]}),
            tmp_path / "cache",
            suites=suites,
        )
        assert runner.calls == 2

    def test_refresh_reexecutes_but_rewrites_cache(self, tmp_path):
        suites, runner = _stub_suites()
        spec = _spec(STUB_SPEC)
        run_matrix(spec, tmp_path / "cache", suites=suites)
        refreshed = run_matrix(spec, tmp_path / "cache", suites=suites, refresh=True)
        assert runner.calls == 2
        assert refreshed["summary"]["n_cached"] == 0
        warm = run_matrix(spec, tmp_path / "cache", suites=suites)
        assert warm["summary"]["n_cached"] == 1
        assert runner.calls == 2

    def test_no_cache_bypasses_read_and_write(self, tmp_path):
        suites, runner = _stub_suites()
        spec = _spec(STUB_SPEC)
        run_matrix(spec, tmp_path / "cache", suites=suites, use_cache=False)
        run_matrix(spec, tmp_path / "cache", suites=suites, use_cache=False)
        assert runner.calls == 2
        assert not (tmp_path / "cache").exists()

    def test_repeats_override_changes_key_and_repeats(self, tmp_path):
        suites, runner = _stub_suites()
        spec = _spec(STUB_SPEC)
        run_matrix(spec, tmp_path / "cache", suites=suites)
        report = run_matrix(
            spec, tmp_path / "cache", suites=suites, repeats_override=3
        )
        # Different repeat count = different cell key: no stale hit, and
        # the runner executed 3 more times (once per repeat).
        assert report["summary"]["n_cached"] == 0
        assert runner.calls == 4
        assert report["cells"][0]["repeats"] == 3

    def test_unknown_suite_fails_loud(self, tmp_path):
        spec = _spec(STUB_SPEC)
        with pytest.raises(ConfigurationError, match="unknown suite"):
            run_matrix(spec, tmp_path / "cache", suites={})

    def test_rejected_params_surface_the_cell_id(self):
        suites, _ = _stub_suites()
        cell = MatrixCell(
            cell_id="stub/bogus=1", suite="stub", params=(("bogus", 1),)
        )
        with pytest.raises(ConfigurationError, match="stub/bogus=1"):
            run_cell(suites["stub"], cell)

    def test_repeats_aggregate_mean_and_min_parity(self, tmp_path):
        runner = StubRunner(speedups=[2.0, 4.0, 6.0])
        suites, _ = _stub_suites(runner)
        spec = _spec({"grid": [{"suite": "stub", "repeats": 3}]})
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        cell = report["cells"][0]
        speedup_record = next(
            r for r in cell["records"] if r["op"] == "stub_speedup"
        )
        assert speedup_record["speedup"] == pytest.approx(4.0)
        aggregate = next(
            a for a in cell["aggregates"] if a["op"] == "stub_speedup"
        )
        assert aggregate["fields"]["speedup"]["samples"] == [2.0, 4.0, 6.0]
        assert aggregate["fields"]["speedup"]["n"] == 3
        parity_record = next(r for r in cell["records"] if r["op"] == "stub_parity")
        assert parity_record["parity_ok"] == 1

    def test_any_repeat_parity_drop_fails_the_representative(self, tmp_path):
        class FlakyParity(StubRunner):
            def __call__(self, **kwargs):
                records = super().__call__(**kwargs)
                if self.calls == 2:  # second repeat loses parity
                    records[0]["parity_ok"] = 0
                return records

        runner = FlakyParity()
        suites, _ = _stub_suites(runner)
        spec = _spec({"grid": [{"suite": "stub", "repeats": 3}]})
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        parity_record = next(
            r
            for r in report["cells"][0]["records"]
            if r["op"] == "stub_parity"
        )
        assert parity_record["parity_ok"] == 0


# ------------------------------------------------------------------- the gate
class TestDiffMatrix:
    def _baseline_dir(self, tmp_path, speedup=3.0):
        payload = {"schema": "repro-bench/2", "records": _stub_records(speedup=speedup)}
        (tmp_path / "BENCH_stub.json").write_text(json.dumps(payload))
        return tmp_path

    def test_green_report_passes(self, tmp_path):
        suites, _ = _stub_suites()
        spec = _spec(STUB_SPEC)
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        ok, lines = diff_matrix(
            report, spec, self._baseline_dir(tmp_path), suites=suites
        )
        assert ok, lines
        assert any("parity stub_parity" in line for line in lines)

    def test_tolerance_shortfall_fails(self, tmp_path):
        suites, _ = _stub_suites(StubRunner(speedups=[3.0]))
        spec = _spec(STUB_SPEC)
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        ok, lines = diff_matrix(
            report, spec, self._baseline_dir(tmp_path, speedup=100.0), suites=suites
        )
        assert not ok
        assert any("FAIL" in line and "stub_speedup" in line for line in lines)

    def test_floor_shortfall_fails(self, tmp_path):
        suites, _ = _stub_suites()
        spec = _spec(
            {
                "grid": [{"suite": "stub"}],
                "gates": {"floors": {"stub": {"stub_speedup": 50.0}}},
            }
        )
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        ok, lines = diff_matrix(
            report, spec, self._baseline_dir(tmp_path), suites=suites
        )
        assert not ok
        assert any("floor" in line and "FAIL" in line for line in lines)

    def test_parity_drop_fails(self, tmp_path):
        suites, _ = _stub_suites(StubRunner(parity_ok=0))
        spec = _spec(STUB_SPEC)
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        ok, lines = diff_matrix(
            report, spec, self._baseline_dir(tmp_path), suites=suites
        )
        assert not ok

    def test_missing_cell_fails(self, tmp_path):
        suites, _ = _stub_suites()
        spec = _spec(STUB_SPEC)
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        report["cells"] = []
        ok, lines = diff_matrix(
            report, spec, self._baseline_dir(tmp_path), suites=suites
        )
        assert not ok
        assert any("missing from the report" in line for line in lines)

    def test_missing_baseline_file_fails(self, tmp_path):
        suites, _ = _stub_suites()
        spec = _spec(STUB_SPEC)
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        ok, lines = diff_matrix(report, spec, tmp_path / "empty", suites=suites)
        assert not ok
        assert any("baseline" in line and "not found" in line for line in lines)

    def test_significant_comparison_regression_fails(self, tmp_path):
        # Candidate samples [2,4,6] vs themselves as baseline would tie;
        # instead gate stub_speedup against a constant-high synthetic
        # baseline cell by running two cells with different runners.
        runner = StubRunner(speedups=[1.0, 1.1, 0.9, 3.0, 3.1, 2.9])
        suites, _ = _stub_suites(runner)
        spec = _spec(
            {
                "grid": [
                    {"suite": "stub", "id": "cand", "scale": 1, "repeats": 3},
                    {"suite": "stub", "id": "base", "scale": 2, "repeats": 3},
                ],
                "gates": {"alpha": 0.2},
                "comparisons": [
                    {
                        "name": "cand-vs-base",
                        "cell": "cand",
                        "baseline": "base",
                        "metric": "stub_speedup.speedup",
                        "min_ratio": 0.8,
                    }
                ],
            }
        )
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        ok, lines = diff_matrix(
            report, spec, self._baseline_dir(tmp_path, speedup=2.0), suites=suites
        )
        assert not ok
        assert any(
            "comparison cand-vs-base" in line and "regression" in line
            for line in lines
        )

    def test_single_repeat_comparison_stays_inconclusive(self, tmp_path):
        runner = StubRunner(speedups=[1.0, 3.0])
        suites, _ = _stub_suites(runner)
        spec = _spec(
            {
                "grid": [
                    {"suite": "stub", "id": "cand", "scale": 1},
                    {"suite": "stub", "id": "base", "scale": 2},
                ],
                "comparisons": [
                    {
                        "name": "cand-vs-base",
                        "cell": "cand",
                        "baseline": "base",
                        "metric": "stub_speedup.speedup",
                        "min_ratio": 0.8,
                    }
                ],
            }
        )
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        ok, lines = diff_matrix(
            report, spec, self._baseline_dir(tmp_path, speedup=2.0), suites=suites
        )
        assert ok, lines
        assert any("inconclusive" in line for line in lines)

    def test_unknown_comparison_metric_fails(self, tmp_path):
        suites, _ = _stub_suites()
        spec = _spec(
            {
                "grid": [{"suite": "stub"}],
                "comparisons": [
                    {
                        "name": "ghost-metric",
                        "cell": "stub",
                        "baseline": "stub",
                        "metric": "no_such_op.speedup",
                    }
                ],
            }
        )
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        ok, lines = diff_matrix(
            report, spec, self._baseline_dir(tmp_path), suites=suites
        )
        assert not ok
        assert any("not measured" in line for line in lines)

    def test_empty_gate_set_fails(self, tmp_path):
        spec = _spec(STUB_SPEC)
        ok, lines = diff_matrix({"cells": []}, spec, tmp_path, suites={})
        assert not ok

    def test_render_report_mentions_cells_and_cache(self, tmp_path):
        suites, _ = _stub_suites()
        spec = _spec(STUB_SPEC)
        report = run_matrix(spec, tmp_path / "cache", suites=suites)
        text = render_report(report)
        assert "stub" in text
        assert "hit rate" in text


# ------------------------------------------------------------------- the CLI
class TestMatrixCLI:
    @pytest.fixture()
    def stub_registry(self, monkeypatch):
        suites, runner = _stub_suites()
        import repro.matrix.runner as runner_mod

        monkeypatch.setattr(runner_mod, "get_suites", lambda: suites)
        return suites, runner

    def _write_spec(self, tmp_path):
        doc = {
            "schema": "repro-matrix-spec/1",
            "grid": [{"suite": "stub"}],
            "gates": {"floors": {"stub": {"stub_speedup": 1.0}}},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    def test_run_diff_report_cycle(self, tmp_path, stub_registry, capsys):
        spec_path = self._write_spec(tmp_path)
        report_path = tmp_path / "report.json"
        cache_dir = tmp_path / "cache"
        assert (
            main(
                [
                    "matrix",
                    "run",
                    str(spec_path),
                    "--cache-dir",
                    str(cache_dir),
                    "--json",
                    str(report_path),
                ]
            )
            == 0
        )
        assert report_path.is_file()

        baseline = {"schema": "repro-bench/2", "records": _stub_records()}
        (tmp_path / "BENCH_stub.json").write_text(json.dumps(baseline))
        assert (
            main(
                [
                    "matrix",
                    "diff",
                    str(spec_path),
                    "--report",
                    str(report_path),
                    "--baseline-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert main(["matrix", "report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "matrix diff: OK" in out

    def test_warm_rerun_meets_min_cache_hits(self, tmp_path, stub_registry):
        spec_path = self._write_spec(tmp_path)
        args = [
            "matrix",
            "run",
            str(spec_path),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--json",
            str(tmp_path / "report.json"),
        ]
        assert main(args) == 0
        assert main(args + ["--min-cache-hits", "0.9"]) == 0

    def test_cold_run_fails_min_cache_hits(self, tmp_path, stub_registry):
        spec_path = self._write_spec(tmp_path)
        assert (
            main(
                [
                    "matrix",
                    "run",
                    str(spec_path),
                    "--cache-dir",
                    str(tmp_path / "cold-cache"),
                    "--json",
                    str(tmp_path / "report.json"),
                    "--min-cache-hits",
                    "0.9",
                ]
            )
            == 2
        )

    def test_diff_exit_one_on_gate_failure(self, tmp_path, stub_registry):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "schema": "repro-matrix-spec/1",
                    "grid": [{"suite": "stub"}],
                    "gates": {"floors": {"stub": {"stub_speedup": 50.0}}},
                }
            )
        )
        report_path = tmp_path / "report.json"
        main(
            [
                "matrix",
                "run",
                str(spec_path),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
                str(report_path),
            ]
        )
        baseline = {"schema": "repro-bench/2", "records": _stub_records()}
        (tmp_path / "BENCH_stub.json").write_text(json.dumps(baseline))
        assert (
            main(
                [
                    "matrix",
                    "diff",
                    str(spec_path),
                    "--report",
                    str(report_path),
                    "--baseline-dir",
                    str(tmp_path),
                ]
            )
            == 1
        )


# ------------------------------------------------- loadgen scenario grading
class TestScenarioTraceGrading:
    @pytest.fixture(scope="class")
    def trace(self):
        return compile_scenario_trace(
            get_scenario("ddos_burst"), flows_scale=0.2, seed=7
        )

    def test_compile_is_deterministic(self, trace):
        again = compile_scenario_trace(
            get_scenario("ddos_burst"), flows_scale=0.2, seed=7
        )
        assert [f.token for f in again.flows] == [f.token for f in trace.flows]
        assert [f.label for f in again.flows] == [f.label for f in trace.flows]

    def test_tokens_unique_and_labels_consistent(self, trace):
        tokens = [f.token for f in trace.flows]
        assert len(tokens) == len(set(tokens))
        for flow in trace.flows:
            assert flow.is_attack == (
                flow.label.lower() not in ("benign", "normal", "background")
            )
        assert trace.split == "scenario"
        assert trace.attack_classes
        assert "benign" not in {c.lower() for c in trace.attack_classes}

    def _predict_all(self, trace, flag=lambda flow: flow.is_attack):
        return {
            flow.token: FlowPrediction(
                token=flow.token,
                start_time=flow.start_time,
                end_time=flow.end_time,
                prediction=flow.label,
                confidence=1.0,
                label=flow.label,
                flagged=flag(flow),
            )
            for flow in trace.flows
        }

    def test_oracle_predictions_score_perfect_per_type(self, trace):
        per_type = per_attack_type_recall(trace, self._predict_all(trace))
        assert set(per_type) == set(trace.attack_classes)
        for entry in per_type.values():
            assert entry["recall"] == 1.0
            assert entry["served_fraction"] == 1.0

    def test_unserved_flows_count_as_missed(self, trace):
        victim = sorted(trace.attack_classes)[0]
        predictions = self._predict_all(trace)
        for flow in trace.flows:
            if flow.label == victim:
                del predictions[flow.token]
        per_type = per_attack_type_recall(trace, predictions)
        assert per_type[victim]["recall"] == 0.0
        assert per_type[victim]["served_fraction"] == 0.0
        others = [v for k, v in per_type.items() if k != victim]
        assert all(v["recall"] == 1.0 for v in others)

    def test_unflagged_served_flow_is_missed_but_served(self, trace):
        victim = sorted(trace.attack_classes)[0]
        predictions = self._predict_all(
            trace, flag=lambda flow: flow.is_attack and flow.label != victim
        )
        per_type = per_attack_type_recall(trace, predictions)
        assert per_type[victim]["recall"] == 0.0
        assert per_type[victim]["served_fraction"] == 1.0
