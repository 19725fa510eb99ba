"""Tests of the benchmark itself: metric names, latency, self time, unpatching.

Workloads run here at toy sizes (their sizes are dataclass fields); the
command line always runs the full sizes.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from workloads import WORKLOADS, ClusterDriftOnline, HdcTrain, ReplayClosed, Sample, flow_latencies

SPEC = run.load_spec()


def _patched_attributes():
    return [vars(owner)[name] for owner, name in (spans.resolve(m, p) for m, p, _ in spans.TARGETS)]


TOY_BURST = dict(flows_scale=0.2, train_flows=60, dim=128, prefilter_dim=64, epochs=2)
TOY = {
    "replay_closed": ReplayClosed(rows=150, train_rows=150, dim=128, epochs=2),
    "burst_open_20k": dataclasses.replace(WORKLOADS["burst_open_20k"], **TOY_BURST),
    "burst_open_40k": dataclasses.replace(WORKLOADS["burst_open_40k"], **TOY_BURST),
    "cluster_drift_online": ClusterDriftOnline(flows_scale=0.2, train_flows=60, dim=128, epochs=2),
    "hdc_train": HdcTrain(n_train=300, n_test=100, dim=128, epochs=2),
}


def test_toy_sizes_cover_every_workload():
    assert set(TOY) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert all(type(TOY[name]) is type(WORKLOADS[name]) for name in TOY)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_prints_every_metric_with_its_unit(name, trace, capsys):
    before = _patched_attributes()
    result = run.run_workload(TOY[name], seed=0, seconds=0.0, trace=trace)
    assert all(a is b for a, b in zip(before, _patched_attributes()))
    definitions = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [d["name"] for d in definitions]
    for d in definitions:
        assert result["metrics"][d["name"]]["unit"] == d["unit"]
        assert np.isfinite(result["metrics"][d["name"]]["value"])
    run.print_result(name, result)
    lines = capsys.readouterr().out.splitlines()
    for line, d in zip(lines, definitions):
        assert line.split()[0::3] == [name, d["unit"]] and line.split()[1] == d["name"]


def test_flow_latency_uses_the_trigger_packet_rule():
    ts = np.array([0.0, 1.0, 2.0, 7.0, 8.0, 20.0, 121.0, 130.0])
    due = 100.0 + ts / 1000.0  # a schedule at 1000x trace speed
    flows = [
        # (start, end, received): the trigger is the first packet with
        # ts > min(end + 5, start + 120).
        (0.0, 1.0, 100.010),  # trigger ts 7 (not the packet at exactly 6)
        (0.0, 2.0, 100.011),  # end + 5 == 7 is not past; trigger ts 8
        (2.0, 8.0, 100.030),  # trigger ts 20
        (0.0, 118.0, 100.125),  # max duration first: 120 < 123, trigger ts 121
        (125.0, 130.0, 100.135),  # never released by a packet: end-of-stream flush, last packet
    ]
    starts, ends, received = zip(*flows)
    latency, trigger = flow_latencies(ts, due, starts, ends, received)
    assert trigger.tolist() == [3, 4, 5, 6, 7]
    np.testing.assert_allclose(latency * 1e3, [3.0, 3.0, 10.0, 4.0, 5.0], atol=1e-9)

    sample = Sample(
        wall_s=1.0, throughput=1.0, latencies_ms=latency * 1e3, attempted=5, failed=0,
        recall=1.0, precision=1.0, accuracy=1.0,
    )
    metrics = run.end_to_end_metrics([1.0], [sample])
    # Sorted latencies 3, 3, 4, 5, 10: p50 is 4; p90 sits 0.6 of the way from 5 to 10.
    assert metrics["latency_p50_ms"] == pytest.approx(4.0)
    assert metrics["latency_p90_ms"] == pytest.approx(8.0)


def test_self_times_of_a_nested_call_tree():
    tree = [
        (0, "a", 0.0, 10.0, -1, 0),
        (1, "b", 1.0, 4.0, 0, 0),
        (2, "c", 2.0, 3.0, 1, 0),
        (3, "b", 5.0, 7.0, 0, 0),
        (4, "c", 11.0, 12.0, -1, 0),
    ]
    assert spans.self_times(tree) == {"a": 5.0, "b": 4.0, "c": 2.0}


def test_self_times_plus_residual_sum_to_wall():
    tracer = spans.Tracer()
    start = time.perf_counter()
    with tracer.span("nids.flow"):
        with tracer.span("hdc.encode"):
            with tracer.span("hdc.score"):
                time.sleep(0.002)
            time.sleep(0.001)
        with tracer.span("hdc.encode"):
            time.sleep(0.001)
    time.sleep(0.001)
    wall = time.perf_counter() - start
    traced = [Sample(wall, 1.0, np.ones(1), 1, 0, 1.0, 1.0, 1.0)]
    names = [d["name"] for d in SPEC["per_layer"]]
    metrics = run.per_layer_metrics(tracer, traced, traced, names)
    fractions = [metrics[f"{layer}.self_frac"] for layer in spans.LAYERS]
    assert sum(fractions) + metrics["unattributed_frac"] == pytest.approx(1.0)
    assert 0.0 < metrics["unattributed_frac"] < 1.0
    assert metrics["trace_overhead_frac"] == 0.0


def test_wrappers_record_spans_and_unpatch_after_a_failing_sample():
    before = _patched_attributes()

    class Failing:
        def sample(self, state, span=None):
            if span is not None:
                from repro.nids.flow import FlowTable

                FlowTable().flush()
                raise RuntimeError("sample failed")
            return Sample(0.1, 1.0, np.ones(1), 1, 0, 1.0, 1.0, 1.0)

    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="sample failed"):
        run.measure(Failing(), None, 0.0, tracer)
    assert [layer for _, layer, *_ in tracer.spans] == ["nids.flow"]
    assert all(a is b for a, b in zip(before, _patched_attributes()))


def test_cli_without_package_source_fails_without_a_result(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(here, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "benchmark/run.py", "--workload", "hdc_train", "--seed", "0"]
    child = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode == 2
    assert child.stdout == ""
