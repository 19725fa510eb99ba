"""Dataset-to-traffic replay tests: trace compilation invariants, the
golden-trace differential harness (the acceptance property: serving-path
alerts match offline batch predictions flow-for-flow across single-process,
micro-batched and 2-worker cluster execution, on NSL-KDD *and* UNSW-NB15),
replay modes (closed-loop determinism, open-loop load shedding), and
graceful shutdown mid-replay."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.ring import PacketFrame
from repro.cluster.shared_model import ModelPublication
from repro.cluster.worker import WorkerRuntime
from repro.core.cyberhd import CyberHD
from repro.exceptions import ConfigurationError, DatasetError
from repro.nids.flow import FlowTable
from repro.nids.pipeline import DetectionPipeline
from repro.replay import (
    DatasetTraceCompiler,
    DifferentialHarness,
    GoldenTrace,
    ReplayConfig,
    TraceReplayer,
    diff_against_golden,
)
from repro.serving import GracefulShutdown

pytestmark = pytest.mark.replay

_COMPILER = DatasetTraceCompiler()


@pytest.fixture(scope="module")
def nsl_trace(small_dataset):
    """A compiled NSL-KDD test-split trace (120 rows)."""
    return _COMPILER.compile(small_dataset, split="test", seed=1, limit=120)


@pytest.fixture(scope="module")
def unsw_trace(unsw_dataset):
    """A compiled UNSW-NB15 test-split trace (120 rows)."""
    return _COMPILER.compile(unsw_dataset, split="test", seed=2, limit=120)


@pytest.fixture(scope="module")
def nsl_pipeline(small_dataset):
    """A pipeline trained on the compiled NSL-KDD training trace."""
    train_trace = _COMPILER.compile(small_dataset, split="train", seed=0, limit=400)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=96, epochs=3, regeneration_rate=0.1, seed=0)
    )
    return pipeline.fit_packets(train_trace.packets)


@pytest.fixture(scope="module")
def unsw_pipeline(unsw_dataset):
    """A pipeline trained on the compiled UNSW-NB15 training trace."""
    train_trace = _COMPILER.compile(unsw_dataset, split="train", seed=0, limit=400)
    pipeline = DetectionPipeline(
        classifier=CyberHD(dim=96, epochs=3, regeneration_rate=0.1, seed=0)
    )
    return pipeline.fit_packets(train_trace.packets)


class TestTraceCompiler:
    def test_identical_seeds_compile_byte_identical_traces(self, small_dataset):
        a = _COMPILER.compile(small_dataset, split="test", seed=5, limit=60)
        b = DatasetTraceCompiler().compile(small_dataset, split="test", seed=5, limit=60)
        assert a.digest() == b.digest()
        assert a.packets == b.packets
        assert a.flows == b.flows
        c = _COMPILER.compile(small_dataset, split="test", seed=6, limit=60)
        assert c.digest() != a.digest()

    def test_packets_time_ordered_and_interleaved(self, nsl_trace):
        times = [p.timestamp for p in nsl_trace.packets]
        assert times == sorted(times)
        # Flows genuinely overlap on the timeline (the interleave property):
        # some flow starts before an earlier flow has ended.
        starts = sorted((f.start_time, f.end_time) for f in nsl_trace.flows)
        overlaps = sum(
            1 for (s0, e0), (s1, _) in zip(starts, starts[1:]) if s1 < e0
        )
        assert overlaps > nsl_trace.n_flows * 0.2

    def test_row_flow_bijection_under_assembly(self, nsl_trace):
        """Flow assembly reconstructs exactly one flow per dataset row."""
        table = FlowTable(idle_timeout=5.0)
        flows = table.add_packets(nsl_trace.packets) + table.flush()
        assert len(flows) == nsl_trace.n_flows
        by_token = nsl_trace.flow_by_token()
        assert {f.key.token for f in flows} == set(by_token)
        for flow in flows:
            meta = by_token[flow.key.token]
            assert flow.label == meta.label
            assert flow.total_packets == meta.n_packets

    def test_compiled_shape_honors_row_features(self, small_dataset):
        """Rows with larger duration/byte features compile to longer/heavier flows."""
        trace = _COMPILER.compile(small_dataset, split="test", seed=3, limit=150)
        dur_col = small_dataset.feature_names.index("duration")
        bytes_col = small_dataset.feature_names.index("src_bytes")
        dur_feature = np.clip(small_dataset.X_test[:150, dur_col], 0.0, 1.0)
        bytes_feature = np.clip(small_dataset.X_test[:150, bytes_col], 0.0, 1.0)
        durations = np.asarray([f.end_time - f.start_time for f in trace.flows])
        n_bytes = np.asarray([f.n_bytes for f in trace.flows], dtype=np.float64)
        assert np.corrcoef(dur_feature, durations)[0, 1] > 0.6
        assert np.corrcoef(bytes_feature, n_bytes)[0, 1] > 0.5
        assert trace.resolved_cues["duration"] == "duration"
        assert trace.resolved_cues["fwd_bytes"] == "src_bytes"

    def test_gaps_stay_below_idle_timeout(self, nsl_trace):
        """The bijection's precondition: no intra-flow gap can expire a flow."""
        per_flow = {}
        for p in nsl_trace.packets:
            from repro.nids.flow import FlowKey

            per_flow.setdefault(FlowKey.from_packet(p).token, []).append(p.timestamp)
        for times in per_flow.values():
            gaps = np.diff(np.asarray(times))
            assert gaps.size == 0 or gaps.max() <= _COMPILER.max_gap_seconds + 1e-9

    def test_labels_and_attack_flags_follow_schema(self, unsw_trace, unsw_dataset):
        labels = {f.label for f in unsw_trace.flows}
        assert labels <= set(unsw_dataset.class_names)
        benign = [f for f in unsw_trace.flows if f.label == "Normal"]
        assert benign and all(not f.is_attack for f in benign)
        assert all(f.is_attack for f in unsw_trace.flows if f.label != "Normal")

    def test_invalid_arguments_rejected(self, small_dataset):
        with pytest.raises(DatasetError):
            _COMPILER.compile(small_dataset, split="validation")
        with pytest.raises(ConfigurationError):
            DatasetTraceCompiler(max_gap_seconds=0.0)
        with pytest.raises(ConfigurationError):
            DatasetTraceCompiler(time_warp=-1.0)
        with pytest.raises(ConfigurationError):
            DatasetTraceCompiler(concurrency=0.0)

    def test_time_warp_compresses_timeline(self, small_dataset):
        slow = DatasetTraceCompiler(time_warp=1.0).compile(
            small_dataset, split="test", seed=4, limit=80
        )
        fast = DatasetTraceCompiler(time_warp=4.0).compile(
            small_dataset, split="test", seed=4, limit=80
        )
        assert fast.duration_seconds < slow.duration_seconds


class TestGoldenParity:
    """Acceptance: serving paths match offline batch predictions flow-for-flow."""

    def _assert_parity(self, report, trace):
        assert report.ok, report.summary()
        assert report.n_observed == trace.n_flows
        assert report.max_confidence_delta < 1e-5

    def test_golden_record_covers_every_flow(self, nsl_pipeline, nsl_trace):
        golden = GoldenTrace.record(nsl_pipeline, nsl_trace)
        assert golden.n_flows == nsl_trace.n_flows
        assert 0 < golden.n_flagged < golden.n_flows

    @pytest.mark.parametrize("dataset", ["nsl", "unsw"])
    def test_streaming_paths_match_offline(self, dataset, request):
        pipeline = request.getfixturevalue(f"{dataset}_pipeline")
        trace = request.getfixturevalue(f"{dataset}_trace")
        harness = DifferentialHarness(
            pipeline, trace, window_size=256, micro_window_size=48
        )
        self._assert_parity(harness.run_single_process(), trace)
        self._assert_parity(harness.run_microbatched(), trace)

    @pytest.mark.cluster
    @pytest.mark.parametrize("dataset", ["nsl", "unsw"])
    def test_cluster_path_matches_offline(self, dataset, request):
        pipeline = request.getfixturevalue(f"{dataset}_pipeline")
        trace = request.getfixturevalue(f"{dataset}_trace")
        harness = DifferentialHarness(
            pipeline, trace, window_size=256, cluster_workers=2
        )
        self._assert_parity(harness.run_cluster(), trace)

    def test_diff_detects_divergence(self, nsl_pipeline, nsl_trace):
        """A corrupted observation must surface as named mismatches."""
        golden = GoldenTrace.record(nsl_pipeline, nsl_trace)
        observed = dict(golden.records)
        victim = next(iter(observed))
        record = observed[victim]
        observed[victim] = type(record)(
            token=record.token,
            start_time=record.start_time,
            end_time=record.end_time,
            prediction="dos" if record.prediction != "dos" else "normal",
            confidence=record.confidence + 0.25,
            label=record.label,
            flagged=not record.flagged,
        )
        dropped = next(t for t in observed if t != victim)
        del observed[dropped]
        report = diff_against_golden(golden, observed, path="corrupted")
        assert not report.ok
        assert dropped in report.missing_flows
        assert victim in report.prediction_mismatches
        assert victim in report.flag_mismatches
        assert victim in report.confidence_mismatches

    def test_worker_capture_collects_per_flow_records(self, nsl_pipeline, nsl_trace):
        """The in-process capture path behind the cluster parity evidence."""
        with ModelPublication(nsl_pipeline) as publication:
            from repro.cluster.shared_model import AttachedPublication

            attached = AttachedPublication(publication.spec())
            runtime = WorkerRuntime(0, 1, attached, capture_predictions=True)
            runtime.handle_frame(PacketFrame.from_packets(nsl_trace.packets[:800]))
            runtime.finalize()
            attached.close()
        assert runtime.predictions
        # The queue pairs each record with the first batch index that could
        # regenerate it (the crash-retention watermark pin).
        tokens = {record.token for _, record in runtime.predictions}
        assert tokens <= set(nsl_trace.flow_by_token())


class TestReplayModes:
    def test_closed_loop_serves_every_flow(self, nsl_pipeline, nsl_trace):
        result = TraceReplayer(
            nsl_pipeline, ReplayConfig(mode="closed", window_size=200)
        ).replay(nsl_trace)
        assert result.n_flows_served == nsl_trace.n_flows
        assert result.metrics["served_fraction"] == pytest.approx(1.0)
        assert result.n_packets_served == nsl_trace.n_packets
        assert 0.0 <= result.metrics["recall"] <= 1.0
        assert 0.0 <= result.metrics["precision"] <= 1.0
        # Every flagged flow raised exactly one alert (unique endpoints per
        # row mean the alert manager's dedup never suppresses).
        flagged = sum(1 for r in result.predictions.values() if r.flagged)
        assert result.n_alerts == flagged

    def test_open_loop_sheds_load_and_reports_it(self, nsl_pipeline, nsl_trace):
        result = TraceReplayer(
            nsl_pipeline,
            ReplayConfig(
                mode="open", rate=2_000_000.0, window_size=256, queue_capacity=64
            ),
        ).replay(nsl_trace)
        assert result.dropped_packets > 0
        metrics = result.metrics
        assert metrics["served_fraction"] < 1.0
        # Shed flows count as misses: true positives are bounded by the
        # flows that actually made it through.
        assert metrics["recall"] <= metrics["flows_served"] / metrics["attack_flows"]

    def test_replay_config_validation(self):
        with pytest.raises(ConfigurationError):
            ReplayConfig(mode="sideways").validate()
        with pytest.raises(ConfigurationError):
            ReplayConfig(rate=-1.0).validate()
        with pytest.raises(ConfigurationError):
            ReplayConfig(window_size=0).validate()


class TestShutdownMidReplay:
    """GracefulShutdown's drain contract on the replay path."""

    @pytest.mark.slow
    def test_signal_mid_open_loop_drains_without_loss(self, nsl_pipeline, nsl_trace):
        stop = GracefulShutdown(install=True)
        with stop:
            # Pace the replay to ~1s of wall time and deliver a real SIGTERM
            # a quarter of the way in.
            rate = nsl_trace.n_packets / 1.0
            timer = threading.Timer(0.25, os.kill, (os.getpid(), signal.SIGTERM))
            timer.start()
            try:
                result = TraceReplayer(
                    nsl_pipeline,
                    ReplayConfig(
                        mode="open",
                        rate=rate,
                        window_size=128,
                        backpressure="block",
                        queue_capacity=100_000,
                    ),
                ).replay(nsl_trace, shutdown=stop)
            finally:
                timer.cancel()
        assert stop.triggered and stop.signal_name == "SIGTERM"
        assert result.interrupted
        # Ingest stopped early...
        assert result.n_packets_submitted < nsl_trace.n_packets
        # ...but nothing accepted was lost: every submitted packet was
        # served, every served flow carries a prediction, and every flagged
        # flow raised its alert.
        assert result.n_packets_served == result.n_packets_submitted
        assert result.dropped_packets == 0
        assert len(result.predictions) == result.n_flows_served
        flagged = sum(1 for r in result.predictions.values() if r.flagged)
        assert result.n_alerts == flagged

    @pytest.mark.slow
    def test_serve_subprocess_sigterm_exits_zero(self):
        """`repro serve` under SIGTERM: stop ingest, drain, flush, exit 0."""
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--flows",
                "8000",
                "--train-flows",
                "150",
                "--dim",
                "64",
                "--epochs",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=repo_root,
        )
        # Wait for training to finish (the first stdout line), so the signal
        # lands mid-lifecycle, then give serving a moment to start.
        first_line = process.stdout.readline()
        assert "trained" in first_line
        time.sleep(0.3)
        process.send_signal(signal.SIGTERM)
        try:
            out, _ = process.communicate(timeout=120)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung drain
            process.kill()
            raise
        assert process.returncode == 0, out
        assert "ingest stopped" in out
        # Telemetry was flushed on the way out.
        assert "per-stage telemetry" in out
