"""The ``loadgen`` suite: per-attack-type recall across load points."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.harness import make_record


def bench_loadgen(
    scenarios: Sequence[str] = (
        "ddos_burst",
        "port_scan_sweep",
        "low_and_slow_exfiltration",
    ),
    flows_scale: float = 1.0,
    rates: Sequence[float] = (4_000.0, 20_000.0, 120_000.0),
    dim: int = 256,
    epochs: int = 5,
    train_flows: int = 400,
    window: int = 512,
    recall_tolerance: float = 0.05,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Loadgen scenario grading: per-attack-type recall across load points.

    Each scenario's packet stream is compiled into a ground-truth trace
    (:func:`repro.cluster.loadgen.compile_scenario_trace`), then replayed
    through a pipeline trained on the default profile mix:

    * **loadgen_closed_loop** -- the deterministic every-flow-served
      baseline; carries aggregate recall/precision and the per-attack-type
      recall breakdown the load points are graded against.
    * **loadgen_load_point** -- open-loop replay at each rate in ``rates``
      (packets/second, ``drop_oldest`` shedding), with the same per-type
      breakdown: the recall-vs-load *curve per attack class*.
    * **loadgen_recall_parity** -- the gate: at the gentlest load point
      (an offered rate the detector can sustain) no attack type may lose
      more than ``recall_tolerance`` of its closed-loop recall.
      ``parity_ok`` carries the verdict; ``speedup`` carries the worst
      per-type retention ratio, so an explicit floor gates retention.
    """
    from repro.cluster.loadgen import compile_scenario_trace, get_scenario
    from repro.core.cyberhd import CyberHD
    from repro.nids.pipeline import DetectionPipeline
    from repro.replay import ReplayConfig, TraceReplayer
    from repro.replay.replayer import per_attack_type_recall

    records: List[Dict[str, Any]] = []
    for name in scenarios:
        scenario = get_scenario(name)
        pipeline = DetectionPipeline(
            classifier=CyberHD(dim=dim, epochs=epochs, seed=seed)
        )
        start = time.perf_counter()
        pipeline.fit_packets(scenario.training_packets(n_flows=train_flows, seed=seed))
        train_seconds = time.perf_counter() - start
        trace = compile_scenario_trace(scenario, flows_scale=flows_scale, seed=seed + 1)

        closed = TraceReplayer(
            pipeline, ReplayConfig(mode="closed", window_size=window)
        ).replay(trace)
        closed_types = per_attack_type_recall(trace, closed.predictions)
        records.append(
            make_record(
                "loadgen_closed_loop",
                closed.wall_seconds,
                "float32",
                dim,
                closed.n_packets_served,
                dataset=name,
                flows=closed.n_flows_served,
                attack_flows=trace.n_attack_flows,
                packets_per_second=closed.packets_per_second,
                recall=closed.metrics["recall"],
                precision=closed.metrics["precision"],
                served_fraction=closed.metrics["served_fraction"],
                per_attack_recall={
                    label: entry["recall"]
                    for label, entry in sorted(closed_types.items())
                },
                train_seconds=train_seconds,
            )
        )

        curve: Dict[float, Dict[str, Dict[str, float]]] = {}
        for rate in rates:
            result = TraceReplayer(
                pipeline,
                ReplayConfig(
                    mode="open",
                    rate=float(rate),
                    window_size=window,
                    queue_capacity=2 * window,
                ),
            ).replay(trace)
            types = per_attack_type_recall(trace, result.predictions)
            curve[float(rate)] = types
            records.append(
                make_record(
                    "loadgen_load_point",
                    result.wall_seconds,
                    "float32",
                    dim,
                    result.n_packets_submitted,
                    dataset=name,
                    offered_rate=float(rate),
                    achieved_rate=result.packets_per_second,
                    dropped_packets=result.dropped_packets,
                    served_fraction=result.metrics["served_fraction"],
                    recall=result.metrics["recall"],
                    precision=result.metrics["precision"],
                    per_attack_recall={
                        label: entry["recall"]
                        for label, entry in sorted(types.items())
                    },
                )
            )

        # ---- the gate: gentlest load point vs the closed loop -------------
        gate_rate = min(curve)
        gate_types = curve[gate_rate]
        deltas: Dict[str, float] = {}
        retention = 1.0
        for label, entry in sorted(closed_types.items()):
            open_recall = gate_types.get(label, {}).get("recall", 0.0)
            deltas[label] = entry["recall"] - open_recall
            if entry["recall"] > 0:
                retention = min(retention, open_recall / entry["recall"])
        max_delta = max((max(0.0, d) for d in deltas.values()), default=0.0)
        records.append(
            make_record(
                "loadgen_recall_parity",
                0.0,
                "float32",
                dim,
                trace.n_flows,
                dataset=name,
                offered_rate=gate_rate,
                parity_ok=int(max_delta <= recall_tolerance),
                speedup=retention,
                max_recall_delta=max_delta,
                recall_delta_tolerance=recall_tolerance,
                per_attack_recall_delta=deltas,
                note=(
                    "per-type recall at the gentlest load point vs closed "
                    "loop; speedup carries the worst per-type retention"
                ),
            )
        )
    return records


def run(
    scenario: Optional[str] = None,
    flows_scale: Optional[float] = None,
    dim: Optional[int] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """The ``loadgen`` suite entry point.

    ``quick`` shrinks flow counts and drops the middle load point but keeps
    *every scenario*: the per-type parity gate is keyed per scenario, and a
    smoke that skipped one would silently stop gating it.  An explicit
    ``scenario`` narrows the run (exploration, not the gate).
    """
    scenarios: Sequence[str] = (
        (scenario,)
        if scenario is not None
        else ("ddos_burst", "port_scan_sweep", "low_and_slow_exfiltration")
    )
    if quick:
        return bench_loadgen(
            scenarios=scenarios,
            flows_scale=flows_scale if flows_scale is not None else 0.3,
            rates=(4_000.0, 150_000.0),
            dim=dim if dim is not None else 128,
            epochs=3,
            train_flows=250,
            window=256,
        )
    return bench_loadgen(
        scenarios=scenarios,
        flows_scale=flows_scale if flows_scale is not None else 1.0,
        dim=dim if dim is not None else 256,
    )
