"""The benchmark's five workloads.

Each workload builds its inputs from the seed in ``setup`` (data generation,
trace compile, model training, offline reference) and serves or trains once
per ``sample``; ``run.py`` times both and turns the samples into metrics.
Sizes are dataclass fields so the tests can run a workload at toy size; the
command line has no size knob.  The program only ever sees the generated
inputs, through public ``repro`` APIs.

The seed draws the traffic and rows a workload serves or trains on.  The
trained detectors, and the synthetic NSL-KDD distribution rows are drawn
from, come from the fixed ``WORLD_SEED``: a seed is another sample of the
same world, not another world, so seeds differ by sampling noise rather
than by how separable that world's classes happen to be.

A sample reports one latency per *request*: a flow verdict on the
single-process serving paths, a whole serve pass on the cluster (whose
verdicts only come back when it shuts down) and a ``fit`` call on
``hdc_train``.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro import CyberHD, load_dataset
from repro.cascade import CascadeConfig, train_cascade_packets
from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.cluster.loadgen import compile_scenario_trace, get_scenario
from repro.nids.flow import FlowTable
from repro.nids.pipeline import DetectionPipeline
from repro.nids.streaming import StreamingDetector
from repro.replay import DatasetTraceCompiler, GoldenTrace, detection_metrics, diff_against_golden
from repro.replay.golden import CONFIDENCE_ATOL
from repro.replay.replayer import predictions_from_detections
from repro.serving import InferenceEngine, batch_flow_predictions

#: Seed of the synthetic NSL-KDD distribution and of the trained detectors.
WORLD_SEED = 0
#: Seed of the detectors' training traffic; no ``--seed`` draws its scenario
#: phases from it (those use ``seed * 1009 + phase``).
TRAIN_SEED = 7919

#: Flow-table expiry the serving paths run with (the ``FlowTable`` defaults).
IDLE_TIMEOUT = FlowTable().idle_timeout
MAX_FLOW_DURATION = FlowTable().max_flow_duration


@dataclass
class Sample:
    """What one timed sample of a workload produced."""

    #: Wall time of the timed region.
    wall_s: float
    #: Packets served (or training rows fitted) per second.
    throughput: float
    #: One latency per request, in milliseconds.
    latencies_ms: np.ndarray
    #: Outputs checked against the reference, and how many were wrong.
    attempted: int
    failed: int
    recall: float
    precision: float
    accuracy: float
    #: Per-layer values the workload measures without spans.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Time that tracing inflates, compared between traced and untraced
    #: samples (the wall time unless the workload runs on a fixed schedule).
    cost_s: Optional[float] = None


def flow_latencies(
    ts: np.ndarray,
    due: np.ndarray,
    starts: Sequence[float],
    ends: Sequence[float],
    received: Sequence[float],
):
    """Per-flow detection latency in seconds, and each flow's trigger index.

    ``ts`` holds the trace timestamps of the submitted packets (ascending)
    and ``due`` the wall time each was due to be sent.  A flow's *trigger*
    is the first packet after which the flow table can release it: the first
    packet with ``ts > end + idle_timeout``, or ``ts > start +
    max_flow_duration`` if that comes first.  Flows no packet releases leave
    at the end-of-stream flush, and their trigger is the last packet.  The
    latency is the wall time the flow's batch was received minus the
    trigger's due time.
    """
    threshold = np.minimum(
        np.asarray(ends, dtype=np.float64) + IDLE_TIMEOUT,
        np.asarray(starts, dtype=np.float64) + MAX_FLOW_DURATION,
    )
    trigger = np.minimum(np.searchsorted(ts, threshold, side="right"), len(ts) - 1)
    return np.asarray(received, dtype=np.float64) - due[trigger], trigger


def _tied(confidence: float) -> bool:
    """Whether a reference verdict is a tie within float32 noise.

    A flow whose top two class scores differ by less than the golden
    harness's confidence tolerance may name either class once batch
    composition reorders the BLAS reductions, so a different prediction
    for it is not a serving error.
    """
    return confidence <= CONFIDENCE_ATOL


def _quality(trace, predictions) -> Dict[str, float]:
    metrics = detection_metrics(trace, predictions)
    return {
        "recall": metrics["recall"],
        "precision": metrics["precision"],
        "accuracy": metrics["label_accuracy"],
    }


def _latency_shares(latency, late, compute) -> Dict[str, float]:
    """Split summed flow latency into generator lateness, compute and waiting."""
    total = float(np.sum(latency))
    late_share = float(np.sum(late)) / total
    compute_share = float(np.sum(compute)) / total
    return {
        "loadgen.late_share": late_share,
        "serving.engine.compute_share": compute_share,
        "serving.engine.wait_share": 1.0 - late_share - compute_share,
    }


def _timestamps(packets) -> np.ndarray:
    ts = np.fromiter((p.timestamp for p in packets), dtype=np.float64, count=len(packets))
    if np.any(np.diff(ts) < 0):
        raise ValueError("workload traces must be time-ordered")
    return ts


# --------------------------------------------------------------- replay_closed
@dataclass(frozen=True)
class ReplayClosed:
    """NSL-KDD test split compiled to packets, replayed closed-loop.

    The loop is ``TraceReplayer.replay``'s closed mode (a
    ``StreamingDetector`` fed 256-packet chunks, then flushed), driven here
    so the benchmark sees when each window comes back.  A flow's due time is
    when the chunk carrying its trigger packet was pushed.
    """

    name = "replay_closed"
    rows: int = 10_000
    train_rows: int = 2_000
    dim: int = 2048
    epochs: int = 10
    WINDOW = 512
    CHUNK = 256

    def setup(self, seed: int):
        world = load_dataset(
            "nsl_kdd", n_train=self.train_rows, n_test=2 * self.rows, seed=WORLD_SEED
        )
        served = world.subsample(world.n_train, self.rows, seed=seed)
        compiler = DatasetTraceCompiler()
        trace = compiler.compile(served, split="test", seed=seed)
        train = compiler.compile(world, split="train", seed=WORLD_SEED)
        pipeline = DetectionPipeline(CyberHD(dim=self.dim, epochs=self.epochs, seed=WORLD_SEED))
        pipeline.fit_packets(train.packets, idle_timeout=IDLE_TIMEOUT)
        golden = GoldenTrace.record(pipeline, trace, idle_timeout=IDLE_TIMEOUT)
        return {
            "trace": trace,
            "pipeline": pipeline,
            "golden": golden,
            "chunks": [
                trace.packets[i : i + self.CHUNK] for i in range(0, trace.n_packets, self.CHUNK)
            ],
            "ts": _timestamps(trace.packets),
        }

    def sample(self, state, span: Callable = nullcontext) -> Sample:
        pipeline = state["pipeline"]
        chunks = state["chunks"]
        pipeline.alert_manager.clear()
        detector = StreamingDetector(
            pipeline,
            window_size=self.WINDOW,
            idle_timeout=IDLE_TIMEOUT,
            queue_capacity=4 * self.WINDOW,
            backpressure="block",
            history=None,
        )
        sent = np.empty(len(chunks))
        done = np.empty(len(chunks) + 1)
        windows = np.empty(len(chunks) + 1, dtype=np.int64)
        start = time.perf_counter()
        for i, chunk in enumerate(chunks):
            sent[i] = time.perf_counter()
            detector.push_many(chunk)
            done[i] = time.perf_counter()
            windows[i] = len(detector.detections)
        detector.flush()
        done[-1] = time.perf_counter()
        windows[-1] = len(detector.detections)
        wall = done[-1] - start

        # A window is received when the push (or flush) that completed it returns.
        received_at = np.searchsorted(windows, np.arange(len(detector.detections)), side="right")
        window_received = done[received_at]
        starts, ends, received, compute = [], [], [], []
        for index, (detection, window) in enumerate(zip(detector.detections, detector.results)):
            seconds = sum(window.stage_latencies.values())
            for flow in detection.flows:
                starts.append(flow.start_time)
                ends.append(flow.end_time)
                received.append(window_received[index])
                compute.append(seconds)
        due = np.repeat(sent, [len(chunk) for chunk in chunks])
        latency, _ = flow_latencies(state["ts"], due, starts, ends, received)

        predictions = predictions_from_detections(detector.detections, pipeline)
        parity = diff_against_golden(state["golden"], predictions, path=self.name)
        flipped = set(parity.prediction_mismatches) | set(parity.flag_mismatches)
        wrong = set(parity.missing_flows) | set(parity.extra_flows)
        wrong |= set(parity.confidence_mismatches)
        golden = state["golden"].records
        wrong |= {token for token in flipped if not _tied(golden[token].confidence)}
        flagged = sum(1 for record in predictions.values() if record.flagged)
        layers = _latency_shares(latency, np.zeros_like(latency), compute)
        layers["serving.engine.batch_packets_p50"] = float(
            np.median([window.n_packets for window in detector.results])
        )
        layers["nids.alerts.raised_frac"] = detector.total_alerts / max(flagged, 1)
        return Sample(
            wall_s=wall,
            throughput=state["trace"].n_packets / wall,
            latencies_ms=latency * 1e3,
            attempted=state["golden"].n_flows,
            failed=len(wrong),
            layers=layers,
            **_quality(state["trace"], predictions),
        )


# --------------------------------------------------------------------- burst_*
@dataclass(frozen=True)
class BurstOpen:
    """``ddos_burst`` traffic sent open-loop at a fixed mean rate to a cascade.

    One generator thread sends chunks of up to 64 packets on the trace's own
    schedule (compressed to the mean rate, so bursts stay bursts) into an
    ``InferenceEngine`` whose dispatch thread runs the cascade's serving
    stages.  The schedule does not slow down when the engine does.

    The scenario's phases (calm, SYN-flood burst, recovery) run back to
    back.  With its idle gaps between phases, every flow still open when a
    phase ends would be released by the next phase's first packet in one
    batch, and those few batches would set the latency tail.
    """

    name: str
    rate: float
    flows_scale: float = 2.0
    train_flows: int = 600
    dim: int = 2048
    prefilter_dim: int = 512
    epochs: int = 5
    BATCH = 512
    MAX_WAIT_S = 0.005
    QUEUE = 8192
    POLL_S = 0.001
    CHUNK = 64
    CHUNK_SPREAD_S = 0.001

    def setup(self, seed: int):
        scenario = get_scenario("ddos_burst")
        scenario = dataclasses.replace(
            scenario,
            phases=tuple(dataclasses.replace(phase, gap_seconds=0.0) for phase in scenario.phases),
        )
        trace = compile_scenario_trace(
            scenario, flows_scale=self.flows_scale, seed=seed, idle_timeout=IDLE_TIMEOUT
        )
        cascade = train_cascade_packets(
            scenario.training_packets(n_flows=self.train_flows, seed=TRAIN_SEED),
            CascadeConfig(escalation_margin=0.0, prefilter_dim=self.prefilter_dim),
            dim=self.dim,
            epochs=self.epochs,
            seed=WORLD_SEED,
            idle_timeout=IDLE_TIMEOUT,
        )
        offline = cascade.detect_packets(trace.packets, idle_timeout=IDLE_TIMEOUT)
        reference = {
            (flow.key.token, flow.start_time): (prediction, confidence)
            for flow, prediction, confidence in zip(
                offline.flows, offline.predictions, offline.confidences
            )
        }
        ts = _timestamps(trace.packets)
        # Trace time compressed so the whole trace averages ``rate`` packets/s;
        # due_offset is when each packet is due, in seconds into a pass.
        due_offset = (ts - ts[0]) * len(ts) / (self.rate * (ts[-1] - ts[0]))
        # A generator chunk holds at most CHUNK packets, all due within
        # CHUNK_SPREAD_S of its first, so no packet goes out much early.
        firsts = [0]
        for i in range(1, len(ts)):
            full = i - firsts[-1] >= self.CHUNK
            if full or due_offset[i] - due_offset[firsts[-1]] > self.CHUNK_SPREAD_S:
                firsts.append(i)
        bounds = firsts + [len(ts)]
        return {
            "trace": trace,
            "pipeline": cascade,
            "reference": reference,
            "chunks": [trace.packets[a:b] for a, b in zip(bounds, bounds[1:])],
            "firsts": np.asarray(firsts),
            "ts": ts,
            "due_offset": due_offset,
        }

    def sample(self, state, span: Callable = nullcontext) -> Sample:
        pipeline = state["pipeline"]
        chunks = state["chunks"]
        due_offset = state["due_offset"]
        pipeline.alert_manager.clear()
        stage = pipeline.cascade_stage
        prefiltered, escalated = stage.prefilter_flows, stage.escalated_flows
        batches = []

        def on_batch(batch) -> None:
            batches.append((time.perf_counter(), batch))

        engine = InferenceEngine(
            pipeline.build_serving_stages(idle_timeout=IDLE_TIMEOUT),
            max_batch_size=self.BATCH,
            max_wait_s=self.MAX_WAIT_S,
            queue_capacity=self.QUEUE,
            backpressure="drop_oldest",
            on_batch=on_batch,
            keep_batches=0,
        )
        sent = np.empty(len(chunks))
        engine.start(poll_interval=self.POLL_S)
        try:
            wall0 = time.perf_counter()
            for i, (first, chunk) in enumerate(zip(state["firsts"], chunks)):
                delay = wall0 + due_offset[first] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent[i] = time.perf_counter()
                with span("serving.engine"):
                    for packet in chunk:
                        engine.submit(packet)
        finally:
            engine.stop()
        engine.close()
        wall = time.perf_counter() - wall0

        starts, ends, received, compute = [], [], [], []
        served = {}
        records = {}
        alerts = flagged = 0
        for when, batch in batches:
            seconds = sum(batch.stage_seconds.values())
            for flow, prediction in zip(batch.flows, batch.predictions):
                starts.append(flow.start_time)
                ends.append(flow.end_time)
                received.append(when)
                compute.append(seconds)
                served[(flow.key.token, flow.start_time)] = prediction
            for record in batch_flow_predictions(batch, pipeline.is_attack_class):
                records[record.token] = record
                flagged += record.flagged
            alerts += len(batch.alerts)
        due = wall0 + due_offset
        latency, trigger = flow_latencies(state["ts"], due, starts, ends, received)
        lateness = np.repeat(sent, [len(chunk) for chunk in chunks]) - due
        reference = state["reference"]
        wrong = sum(1 for key in served if key not in reference)
        for key, (prediction, confidence) in reference.items():
            if key not in served or (served[key] != prediction and not _tied(confidence)):
                wrong += 1

        layers = _latency_shares(latency, np.maximum(lateness[trigger], 0.0), compute)
        layers["loadgen.late_frac"] = float(np.mean(sent - due[state["firsts"]] > 1e-3))
        layers["serving.engine.batch_packets_p50"] = float(
            np.median([batch.n_packets for _, batch in batches])
        )
        dropped = engine.backpressure_stats.dropped_oldest
        layers["serving.engine.dropped_packets"] = float(dropped)
        layers["nids.alerts.raised_frac"] = alerts / max(flagged, 1)
        layers["cascade.escalation_frac"] = (stage.escalated_flows - escalated) / max(
            stage.prefilter_flows - prefiltered, 1
        )
        return Sample(
            wall_s=wall,
            throughput=(len(state["ts"]) - dropped) / wall,
            latencies_ms=latency * 1e3,
            attempted=len(reference),
            failed=wrong,
            layers=layers,
            cost_s=float(np.median(latency)),
            **_quality(state["trace"], records),
        )


# --------------------------------------------------------- cluster_drift_online
@dataclass(frozen=True)
class ClusterDriftOnline:
    """``gradual_drift`` traffic served by a one-worker cluster that learns online.

    Each pass serves the whole trace through ``ClusterCoordinator.serve``
    with ``partial_fit`` on the worker and delta merges on the coordinator,
    starting from a copy of the trained pipeline made outside the timed
    region.  The request is the whole pass: the cluster hands back its flow
    predictions only when it shuts down.
    """

    name = "cluster_drift_online"
    flows_scale: float = 3.0
    train_flows: int = 400
    dim: int = 2048
    epochs: int = 5
    BATCH = 512
    SYNC_INTERVAL = 8

    def setup(self, seed: int):
        scenario = get_scenario("gradual_drift")
        trace = compile_scenario_trace(
            scenario, flows_scale=self.flows_scale, seed=seed, idle_timeout=IDLE_TIMEOUT
        )
        pipeline = DetectionPipeline(CyberHD(dim=self.dim, epochs=self.epochs, seed=WORLD_SEED))
        pipeline.fit_packets(
            scenario.training_packets(n_flows=self.train_flows, seed=TRAIN_SEED),
            idle_timeout=IDLE_TIMEOUT,
        )
        return {"trace": trace, "pipeline": pipeline}

    def sample(self, state, span: Callable = nullcontext) -> Sample:
        trace = state["trace"]
        pipeline = copy.deepcopy(state["pipeline"])
        coordinator = ClusterCoordinator(
            pipeline,
            ClusterConfig(
                n_workers=1,
                batch_size=self.BATCH,
                sync_interval=self.SYNC_INTERVAL,
                online=True,
                idle_timeout=IDLE_TIMEOUT,
                capture_predictions=True,
            ),
        )
        start = time.perf_counter()
        report = coordinator.serve(trace.packets)
        wall = time.perf_counter() - start

        predictions = {record.token: record for record in report.flow_predictions}
        missing = sum(1 for flow in trace.flows if flow.token not in predictions)
        flagged = sum(1 for record in predictions.values() if record.flagged)
        transport = report.transport
        layers = {
            "cluster.ring.stalls": float(
                transport["ring_full_stalls"] + transport["result_ring_stalls"]
            ),
            "cluster.coordinator.sync_rounds": float(report.sync_rounds),
            "cluster.coordinator.cpu_frac": report.coordinator_cpu_seconds / wall,
            "cluster.worker.busy_frac": sum(w.busy_seconds for w in report.workers) / wall,
            "nids.alerts.raised_frac": report.total_alerts / max(flagged, 1),
        }
        return Sample(
            wall_s=wall,
            throughput=trace.n_packets / wall,
            latencies_ms=np.asarray([wall * 1e3]),
            attempted=trace.n_flows,
            failed=missing + len(report.recovery.failures),
            layers=layers,
            **_quality(trace, predictions),
        )


# ------------------------------------------------------------------- hdc_train
@dataclass(frozen=True)
class HdcTrain:
    """``CyberHD.fit`` on NSL-KDD tabular data, then scoring the test split.

    Set-up generates the data and runs one warm-up fit, whose test accuracy
    every timed fit must reproduce exactly.
    """

    name = "hdc_train"
    n_train: int = 10_000
    n_test: int = 5_000
    dim: int = 2048
    epochs: int = 10
    REGENERATION_RATE = 0.1

    def _fit(self, dataset):
        """Fit a fresh model; returns the fit time and its test predictions."""
        model = CyberHD(
            dim=self.dim,
            epochs=self.epochs,
            regeneration_rate=self.REGENERATION_RATE,
            seed=WORLD_SEED,
        )
        start = time.perf_counter()
        model.fit(dataset.X_train, dataset.y_train)
        fit_s = time.perf_counter() - start
        return fit_s, model.predict(dataset.X_test)

    def setup(self, seed: int):
        world = load_dataset(
            "nsl_kdd", n_train=2 * self.n_train, n_test=2 * self.n_test, seed=WORLD_SEED
        )
        dataset = world.subsample(self.n_train, self.n_test, seed=seed)
        _, predictions = self._fit(dataset)
        return {"dataset": dataset, "reference": predictions}

    def sample(self, state, span: Callable = nullcontext) -> Sample:
        dataset = state["dataset"]
        start = time.perf_counter()
        fit_s, predictions = self._fit(dataset)
        wall = time.perf_counter() - start
        attack = np.asarray(dataset.schema.attack_mask, dtype=bool)
        truth, flagged = attack[dataset.y_test], attack[predictions]
        hits = int(np.sum(truth & flagged))
        return Sample(
            wall_s=wall,
            throughput=self.n_train / fit_s,
            latencies_ms=np.asarray([fit_s * 1e3]),
            attempted=1,
            failed=int(not np.array_equal(predictions, state["reference"])),
            recall=hits / max(int(truth.sum()), 1),
            precision=hits / max(int(flagged.sum()), 1),
            accuracy=float(np.mean(predictions == dataset.y_test)),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        ReplayClosed(),
        BurstOpen(name="burst_open_20k", rate=20_000.0),
        BurstOpen(name="burst_open_40k", rate=40_000.0),
        ClusterDriftOnline(),
        HdcTrain(),
    )
}
