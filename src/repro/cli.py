"""Command-line interface for the reproduction.

Exposes the evaluation harness so every paper experiment (and the ablations)
can be regenerated without writing Python, plus the serving subsystem::

    python -m repro list
    python -m repro run fig3 --scale fast
    python -m repro run fig3 fig5 --scale paper --json results.json
    python -m repro datasets
    python -m repro bench --json BENCH_hdc_primitives.json
    python -m repro bench --suite cluster --workers 4 --json BENCH_cluster.json
    python -m repro bench --suite replay --dataset nsl_kdd --json BENCH_replay.json
    python -m repro bench --suite bitpack --json BENCH_bitpack.json
    python -m repro bench --suite chaos --json BENCH_chaos.json
    python -m repro matrix run matrix/ci.yaml --json matrix-report.json
    python -m repro matrix diff matrix/ci.yaml --report matrix-report.json
    python -m repro replay --dataset unsw_nb15 --workers 2
    python -m repro replay --workers 2 --chaos kill:0@0.4 --chaos hang:1@0.7:2
    python -m repro serve --flows 600 --inference-bits 1
    python -m repro serve --flows 600 --online
    python -m repro serve --workers 4 --scenario ddos_burst --online
    python -m repro serve --workers 4 --max-respawns 3 --heartbeat-timeout 5

``serve`` installs SIGINT/SIGTERM handlers: Ctrl-C stops ingest, drains the
queues (classifying still-active flows), prints the telemetry summary, and
exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro._version import __version__
from repro.datasets.loaders import available_datasets, load_dataset
from repro.eval.harness import ExperimentHarness, HarnessConfig
from repro.exceptions import ConfigurationError
from repro.matrix.runner import SUITES


def build_parser() -> argparse.ArgumentParser:
    """The argument parser behind ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CyberHD reproduction: regenerate the paper's experiments",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+", help="experiment names (see `repro list`)")
    run.add_argument("--scale", choices=("fast", "paper"), default="fast")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", metavar="PATH", default=None, help="also write results as JSON")

    datasets = subparsers.add_parser("datasets", help="summarize the synthetic datasets")
    datasets.add_argument("--n-train", type=int, default=1000)
    datasets.add_argument("--n-test", type=int, default=300)

    # SUPPRESS keeps unset suite flags out of the namespace, so each suite's
    # defaults live only in its entry point.
    bench = subparsers.add_parser(
        "bench",
        help="run one perf-regression benchmark suite",
        argument_default=argparse.SUPPRESS,
    )
    bench.add_argument(
        "--suite",
        choices=tuple(SUITES),
        default="hdc",
        help="benchmark suite (each is described in repro.bench.<suite>)",
    )
    bench.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="where to write the machine-readable records "
        "(default: the suite's checked-in BENCH_*.json)",
    )
    params = bench.add_argument_group(
        "suite parameters",
        "forwarded to the suite only when given (its entry point holds the "
        "defaults); a flag the suite does not take exits 2",
    )
    params.add_argument("--dim", type=int, help="hypervector dimensionality")
    params.add_argument("--repeats", type=int, help="best-of repeat count")
    params.add_argument("--window", type=int, help="packets per micro-batch")
    params.add_argument(
        "--quick", action="store_true", help="small workloads for a fast smoke run"
    )
    params.add_argument("--workers", type=int, help="worker processes")
    params.add_argument("--scenario", help="load scenario (see repro.cluster.loadgen)")
    params.add_argument("--dataset", help="dataset to compile into the replayed trace")
    params.add_argument("--flows-scale", type=float, help="scenario flow-count multiplier")
    params.add_argument(
        "--tenants", type=int, help="tenants resident for the capacity record"
    )

    replay = subparsers.add_parser(
        "replay",
        help="compile a dataset into a packet trace and check serving-path "
        "alert parity against offline batch predictions",
    )
    replay.add_argument(
        "--dataset", default="nsl_kdd", help="dataset to compile (see `repro datasets`)"
    )
    replay.add_argument(
        "--train", type=int, default=600, help="training-split rows to compile and train on"
    )
    replay.add_argument(
        "--rows", type=int, default=240, help="test-split rows compiled into the replayed trace"
    )
    replay.add_argument(
        "--workers",
        type=int,
        default=2,
        help="cluster path worker processes (1 skips the cluster path)",
    )
    replay.add_argument("--window", type=int, default=512, help="packets per micro-batch")
    replay.add_argument(
        "--micro-window",
        type=int,
        default=64,
        help="window of the deliberately smaller micro-batched parity path",
    )
    replay.add_argument("--dim", type=int, default=256, help="CyberHD dimensionality")
    replay.add_argument("--epochs", type=int, default=5, help="training epochs")
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument(
        "--time-warp",
        type=float,
        default=1.0,
        help="trace timeline compression (raises flow overlap)",
    )
    replay.add_argument(
        "--concurrency",
        type=float,
        default=8.0,
        help="target mean flows in flight on the compiled timeline",
    )
    replay.add_argument(
        "--rate",
        type=float,
        default=None,
        help="additionally replay open-loop at this rate (packets/second) "
        "and report detection quality under load",
    )
    replay.add_argument(
        "--chaos",
        action="append",
        default=[],
        metavar="KIND:WORKER@FRAC[:SECS]",
        help="inject a scripted process fault mid-replay (repeatable; kinds "
        "kill/hang/delay/exit, e.g. kill:0@0.4) -- runs the supervised "
        "cluster chaos path instead of the differential harness and exits "
        "0 only when parity held and every batch was recovered",
    )
    replay.add_argument(
        "--error-rate",
        type=float,
        default=0.0,
        help="chaos path: additionally flip this fraction of published "
        "model bits (trains with 1-bit packed inference to host the flips; "
        "the pristine-model parity gate is waived -- recovery still is not)",
    )
    replay.add_argument("--json", metavar="PATH", default=None, help="write a JSON summary")

    serve = subparsers.add_parser(
        "serve",
        help="run the streaming serving subsystem on synthetic traffic",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 serves through the sharded cluster",
    )
    serve.add_argument(
        "--scenario",
        default=None,
        help="serve a named load scenario instead of the default mix "
        "(see repro.cluster.loadgen)",
    )
    serve.add_argument(
        "--sync-interval",
        type=int,
        default=8,
        help="cluster mode: batches per worker between delta-merge syncs",
    )
    serve.add_argument(
        "--max-respawns",
        type=int,
        default=None,
        help="cluster mode: respawn budget per worker before load is shed "
        "(default: supervision policy default)",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        help="cluster mode: seconds between worker liveness stamps",
    )
    serve.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        help="cluster mode: stale-heartbeat age after which a live worker "
        "is declared hung and SIGKILLed for respawn",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=0,
        help="serve N tenants through the multi-tenant model fabric: one "
        "per-subnet detector each, flows split across them (composes with "
        "--workers for the tenant-aware cluster path)",
    )
    serve.add_argument("--flows", type=int, default=600, help="flows in the served stream")
    serve.add_argument("--train-flows", type=int, default=300, help="flows used for training")
    serve.add_argument("--window", type=int, default=500, help="packets per micro-batch")
    serve.add_argument("--dim", type=int, default=256, help="CyberHD dimensionality")
    serve.add_argument("--epochs", type=int, default=8, help="training epochs")
    serve.add_argument(
        "--inference-bits",
        type=int,
        default=None,
        help="score against a quantized class matrix (1 activates the "
        "bit-packed XOR/popcount serving fabric; see docs/serving.md)",
    )
    serve.add_argument(
        "--cascade",
        action="store_true",
        help="serve through the two-stage cascade: a packed 1-bit binary "
        "pre-filter screens every flow and only suspicious ones escalate "
        "to the multiclass head (see docs/cascade.md; composes with "
        "--workers, not with --online or --tenants)",
    )
    serve.add_argument(
        "--prefilter-dim",
        type=int,
        default=None,
        help="cascade: pre-filter dimensionality (default: --dim)",
    )
    serve.add_argument(
        "--escalation-margin",
        type=float,
        default=0.01,
        help="cascade: benign pre-filter verdicts with a normalized score "
        "margin below this escalate to the multiclass head anyway",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--backpressure", choices=("block", "drop_oldest"), default="block"
    )
    serve.add_argument(
        "--online",
        action="store_true",
        help="enable online learning (partial_fit + drift-triggered regeneration)",
    )
    serve.add_argument(
        "--model", metavar="PATH", default=None, help="load a saved pipeline instead of training"
    )
    serve.add_argument(
        "--save", metavar="PATH", default=None, help="save the (possibly adapted) pipeline"
    )
    serve.add_argument("--json", metavar="PATH", default=None, help="write a JSON summary")

    fabric = subparsers.add_parser(
        "fabric",
        help="multi-tenant model fabric: publish, shadow-promote, roll back "
        "and inspect versioned tenant models against a registry snapshot",
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command")

    def _fabric_common(sub):
        sub.add_argument(
            "registry",
            help="registry snapshot path (.npz); each command loads it, "
            "operates, and saves it back",
        )
        sub.add_argument("--tenant", type=int, default=0, help="tenant id")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--dataset",
            default=None,
            help="use a compiled dataset trace (training + mirror slices) "
            "instead of synthetic per-subnet traffic",
        )
        sub.add_argument(
            "--train", type=int, default=600, help="dataset mode: training rows"
        )
        sub.add_argument(
            "--rows", type=int, default=240, help="dataset mode: mirror/test rows"
        )

    fabric_publish = fabric_sub.add_parser(
        "publish", help="train and publish the tenant's next model version"
    )
    _fabric_common(fabric_publish)
    fabric_publish.add_argument("--train-flows", type=int, default=300)
    fabric_publish.add_argument("--dim", type=int, default=128)
    fabric_publish.add_argument("--epochs", type=int, default=4)
    fabric_publish.add_argument(
        "--inference-bits",
        type=int,
        default=1,
        help="packed-quantized serving (1-bit keeps hundreds of tenants "
        "resident; pass 0 for full-precision)",
    )
    fabric_publish.add_argument(
        "--activate",
        action="store_true",
        help="skip the shadow gate and promote immediately (a tenant's "
        "first version always activates)",
    )
    fabric_publish.add_argument(
        "--max-tenants",
        type=int,
        default=256,
        help="capacity of a newly created registry",
    )

    fabric_promote = fabric_sub.add_parser(
        "promote",
        help="shadow-score a candidate against the live model on mirrored "
        "traffic; flip the alias only if parity and recall hold (exit 1 on "
        "rejection)",
    )
    _fabric_common(fabric_promote)
    fabric_promote.add_argument(
        "--model-version",
        type=int,
        default=None,
        help="candidate version (default: the tenant's newest)",
    )
    fabric_promote.add_argument(
        "--mirror-flows",
        type=int,
        default=200,
        help="synthetic mode: flows in the mirrored slice",
    )
    fabric_promote.add_argument("--recall-tolerance", type=float, default=0.0)
    fabric_promote.add_argument(
        "--divergence-budget",
        type=float,
        default=0.0,
        help="accepted fraction of mirrored flows whose decisions may move",
    )
    fabric_promote.add_argument(
        "--error-rate",
        type=float,
        default=0.0,
        help="corrupt the candidate replica's packed bits at this rate "
        "before the mirror (the rejection drill)",
    )
    fabric_promote.add_argument("--json", metavar="PATH", default=None)

    fabric_rollback = fabric_sub.add_parser(
        "rollback", help="flip the tenant's alias back to the previous version"
    )
    fabric_rollback.add_argument("registry")
    fabric_rollback.add_argument("--tenant", type=int, default=0)

    fabric_status = fabric_sub.add_parser(
        "status", help="print every tenant's versions, live alias and footprint"
    )
    fabric_status.add_argument("registry")
    fabric_status.add_argument("--json", metavar="PATH", default=None)

    matrix = subparsers.add_parser(
        "matrix",
        help="declarative experiment matrix: run a spec through the bench "
        "suites with content-addressed cell caching, then gate the report "
        "against the checked-in baselines",
    )
    matrix_sub = matrix.add_subparsers(dest="matrix_command")

    matrix_run = matrix_sub.add_parser(
        "run",
        help="execute every cell of a spec; unchanged cells (same params, "
        "dataset digest and code fingerprint) are served from the cache",
    )
    matrix_run.add_argument("spec", help="matrix spec (.yaml or .json)")
    matrix_run.add_argument(
        "--cache-dir",
        default=".matrix-cache",
        help="content-addressed cell cache directory",
    )
    matrix_run.add_argument(
        "--json",
        metavar="PATH",
        default="matrix-report.json",
        help="report output path",
    )
    matrix_run.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override every cell's repeat count (nightly uses 3 for "
        "significance testing)",
    )
    matrix_run.add_argument(
        "--no-cache", action="store_true", help="execute every cell, never touch the cache"
    )
    matrix_run.add_argument(
        "--refresh",
        action="store_true",
        help="execute every cell and overwrite its cache entry",
    )
    matrix_run.add_argument(
        "--min-cache-hits",
        type=float,
        default=None,
        metavar="FRACTION",
        help="exit 2 unless at least this fraction of cells came from the "
        "cache (the warm re-run assertion in CI)",
    )

    matrix_diff = matrix_sub.add_parser(
        "diff",
        help="gate a matrix report: per-cell bench diff against the "
        "checked-in BENCH_*.json baselines (tolerances + floors from the "
        "spec) plus paired-significance comparisons",
    )
    matrix_diff.add_argument("spec", help="matrix spec the report was produced from")
    matrix_diff.add_argument(
        "--report",
        default="matrix-report.json",
        help="report produced by `matrix run`",
    )
    matrix_diff.add_argument(
        "--baseline-dir",
        default=".",
        help="directory holding the checked-in BENCH_*.json baselines",
    )

    matrix_report = matrix_sub.add_parser(
        "report", help="pretty-print a matrix report"
    )
    matrix_report.add_argument(
        "report", nargs="?", default="matrix-report.json", help="report path"
    )

    return parser


def _command_list() -> int:
    harness = ExperimentHarness()
    print("available experiments:")
    for name in harness.available_experiments():
        print(f"  {name}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    config = HarnessConfig(scale=args.scale, seed=args.seed, experiments=tuple(args.experiments))
    harness = ExperimentHarness(config)
    available = set(harness.available_experiments())
    unknown = [name for name in args.experiments if name not in available]
    if unknown:
        print(f"unknown experiments: {unknown}; run `repro list`", file=sys.stderr)
        return 2
    harness.run_all()
    print(harness.report())
    if args.json:
        path = harness.save_json(args.json)
        print(f"\nresults written to {path}")
    return 0


def _command_datasets(args: argparse.Namespace) -> int:
    for name in available_datasets():
        dataset = load_dataset(name, n_train=args.n_train, n_test=args.n_test)
        distribution = dataset.class_distribution("train")
        print(
            f"{name}: {dataset.n_features} features, {dataset.n_classes} classes, "
            f"{100 * dataset.attack_fraction('train'):.1f}% attack flows"
        )
        for class_name, count in distribution.items():
            print(f"    {class_name:<28s} {count}")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.bench.harness import format_table, write_bench_json
    from repro.matrix.runner import check_params, get_suites

    binding = get_suites()[args.suite]
    params = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "suite", "json")
    }
    check_params(binding, params, "command line")
    records = binding.runner(**params)
    print(format_table(records))
    path = write_bench_json(records, args.json or binding.baseline_json)
    print(f"\nbenchmark records written to {path}")
    return 0


def _command_replay_chaos(args: argparse.Namespace) -> int:
    """``repro replay --chaos``: a supervised replay under scripted faults.

    Exit code 0 means the run recovered completely: every unacked batch of
    each faulted worker was redispatched (zero unrecovered), and -- unless
    ``--error-rate`` deliberately corrupted the model -- the surviving run
    kept flow-for-flow golden-trace parity; 1 means a recovery failure.
    """
    from repro.cluster import ChaosSchedule, run_chaos_replay
    from repro.core.cyberhd import CyberHD
    from repro.datasets.loaders import load_dataset
    from repro.nids.pipeline import DetectionPipeline
    from repro.replay import DatasetTraceCompiler

    if args.workers < 2:
        print("--chaos needs --workers >= 2 (the supervised cluster path)", file=sys.stderr)
        return 2
    schedule = ChaosSchedule.parse(args.chaos)
    dataset = load_dataset(
        args.dataset, n_train=args.train, n_test=args.rows, seed=args.seed
    )
    compiler = DatasetTraceCompiler(
        concurrency=args.concurrency, time_warp=args.time_warp
    )
    train_trace = compiler.compile(dataset, split="train", seed=args.seed)
    test_trace = compiler.compile(dataset, split="test", seed=args.seed + 1)
    pipeline = DetectionPipeline(
        classifier=CyberHD(
            dim=args.dim,
            epochs=args.epochs,
            regeneration_rate=0.1,
            seed=args.seed,
            inference_bits=1 if args.error_rate > 0 else None,
        )
    ).fit_packets(train_trace.packets)
    print(
        f"trained on the compiled training trace in {pipeline.train_seconds:.2f}s; "
        f"replaying {test_trace.n_packets} packets across {args.workers} workers "
        f"under schedule [{', '.join(str(e) for e in schedule.events)}]"
    )

    result = run_chaos_replay(
        pipeline,
        test_trace,
        schedule=schedule,
        n_workers=args.workers,
        batch_size=args.micro_window,
        error_rate=args.error_rate,
        seed=args.seed,
    )
    recovery = result.report.recovery
    for record in recovery.failures:
        print(
            f"worker {record.worker_id} {record.kind} "
            f"(exit code {record.exitcode}): detected, "
            f"{'respawned' if record.respawned else 'not respawned'}, "
            f"{record.redispatched_batches} batches redispatched"
            + (", load shed" if record.shed else "")
            + (", failed over to survivors" if record.failed_over else "")
        )
    print(
        f"recovery: {recovery.total_respawns} respawns, "
        f"{recovery.total_redispatched_batches} batches "
        f"({recovery.total_redispatched_packets} packets) redispatched, "
        f"{recovery.duplicates_suppressed} duplicates suppressed, "
        f"{recovery.unrecovered_batches} unrecovered; "
        f"detection {result.detection_seconds:.2f}s, "
        f"recovery {result.recovery_seconds:.2f}s"
    )
    print(
        f"detection quality: recall {result.metrics['recall']:.3f}, "
        f"precision {result.metrics['precision']:.3f}, served "
        f"{result.metrics['served_fraction']:.0%} of flows"
    )
    print(result.parity.summary())
    recovered = (
        recovery.unrecovered_batches == 0
        and result.metrics["served_fraction"] == 1.0
    )
    verdict_ok = result.ok if args.error_rate == 0 else recovered
    print("\nchaos:", "RECOVERED" if verdict_ok else "FAILED")
    if args.json:
        payload = result.to_dict()
        payload["dataset"] = args.dataset
        payload["schedule"] = [str(e) for e in schedule.events]
        payload["error_rate"] = args.error_rate
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"summary written to {args.json}")
    return 0 if verdict_ok else 1


def _command_replay(args: argparse.Namespace) -> int:
    """``repro replay``: the golden-trace differential check as a command.

    Exit code 0 means every serving path (single-process, micro-batched and
    -- with ``--workers > 1`` -- the sharded cluster) produced exactly the
    offline batch path's alerts on the compiled trace; 1 means a divergence
    (the parity summaries name the mismatch kinds).
    """
    if args.chaos:
        return _command_replay_chaos(args)
    from repro.core.cyberhd import CyberHD
    from repro.datasets.loaders import load_dataset
    from repro.nids.pipeline import DetectionPipeline
    from repro.replay import (
        DatasetTraceCompiler,
        DifferentialHarness,
        ReplayConfig,
        TraceReplayer,
    )
    from repro.serving import GracefulShutdown

    with GracefulShutdown() as stop:
        dataset = load_dataset(
            args.dataset, n_train=args.train, n_test=args.rows, seed=args.seed
        )
        compiler = DatasetTraceCompiler(
            concurrency=args.concurrency, time_warp=args.time_warp
        )
        train_trace = compiler.compile(dataset, split="train", seed=args.seed)
        test_trace = compiler.compile(dataset, split="test", seed=args.seed + 1)
        print(train_trace.summary())
        print(test_trace.summary())
        print(f"honored feature cues: {test_trace.resolved_cues}")

        pipeline = DetectionPipeline(
            classifier=CyberHD(
                dim=args.dim, epochs=args.epochs, regeneration_rate=0.1, seed=args.seed
            )
        ).fit_packets(train_trace.packets)
        print(
            f"trained on the compiled training trace in {pipeline.train_seconds:.2f}s "
            f"({len(pipeline.class_names)} classes)"
        )

        harness = DifferentialHarness(
            pipeline,
            test_trace,
            window_size=args.window,
            micro_window_size=args.micro_window,
            cluster_workers=args.workers,
        )
        print(
            f"golden offline reference: {harness.golden.n_flagged}/"
            f"{harness.golden.n_flows} flows flagged"
        )
        reports = harness.run_all(cluster=args.workers > 1, shutdown=stop)
        for report in reports.values():
            print(report.summary())

        open_result = None
        if args.rate is not None and not stop.triggered:
            open_result = TraceReplayer(
                pipeline,
                ReplayConfig(mode="open", rate=args.rate, window_size=args.window),
            ).replay(test_trace, shutdown=stop)
            metrics = open_result.metrics
            print(
                f"open-loop @ {args.rate:.0f} pps: served "
                f"{metrics['served_fraction']:.0%} of flows, dropped "
                f"{open_result.dropped_packets} packets, recall "
                f"{metrics['recall']:.3f}, precision {metrics['precision']:.3f}"
            )
    if stop.triggered:
        print(f"\n{stop.signal_name or 'shutdown'}: ingest stopped, queues drained")

    # Interrupted paths were cut short by the shutdown signal: they are not
    # parity-verified, but they are not evidence of divergence either.
    completed = [r for r in reports.values() if not r.interrupted]
    parity_ok = all(report.ok for report in completed)
    verdict = "OK" if parity_ok else "MISMATCH"
    if stop.triggered:
        verdict += f" ({len(completed)} path(s) fully evaluated before shutdown)"
    print("\nparity:", verdict)
    if args.json:
        payload = {
            "dataset": args.dataset,
            "trace": test_trace.name,
            "flows": test_trace.n_flows,
            "packets": test_trace.n_packets,
            "golden_flagged": harness.golden.n_flagged,
            "parity_ok": parity_ok,
            "paths": {name: report.to_dict() for name, report in reports.items()},
            "open_loop": open_result.to_dict() if open_result is not None else None,
            "interrupted": stop.triggered,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"summary written to {args.json}")
    return 0 if parity_ok else 1


def _serve_pipeline(args: argparse.Namespace):
    """Train (or load) the pipeline and build the packet stream to serve."""
    from repro.core.cyberhd import CyberHD
    from repro.nids.packets import TrafficGenerator
    from repro.nids.pipeline import DetectionPipeline
    from repro.persistence import load_pipeline

    cascade = getattr(args, "cascade", False)
    if args.model:
        if cascade:
            from repro.persistence import load_cascade

            pipeline = load_cascade(args.model)
            print(
                f"loaded cascade from {args.model} "
                f"({len(pipeline.class_names)} classes, "
                f"margin {pipeline.escalation_margin})"
            )
        else:
            pipeline = load_pipeline(args.model)
            print(
                f"loaded pipeline from {args.model} "
                f"({len(pipeline.class_names)} classes)"
            )
        start_time = 0.0
    else:
        train_packets = TrafficGenerator(seed=args.seed).generate(args.train_flows)
        if cascade:
            from repro.cascade import CascadeConfig, train_cascade_packets

            pipeline = train_cascade_packets(
                train_packets,
                config=CascadeConfig(
                    escalation_margin=args.escalation_margin,
                    prefilter_dim=args.prefilter_dim,
                    multiclass_bits=getattr(args, "inference_bits", None),
                ),
                dim=args.dim,
                epochs=args.epochs,
                seed=args.seed,
            )
            print(
                f"trained cascade on {len(train_packets)} packets "
                f"({args.train_flows} flows): pre-filter D="
                f"{args.prefilter_dim or args.dim} packed, head D={args.dim}"
            )
        else:
            pipeline = DetectionPipeline(
                classifier=CyberHD(
                    dim=args.dim,
                    epochs=args.epochs,
                    regeneration_rate=0.1,
                    seed=args.seed,
                    inference_bits=getattr(args, "inference_bits", None),
                )
            ).fit_packets(train_packets)
            print(
                f"trained on {len(train_packets)} packets "
                f"({args.train_flows} flows) in {pipeline.train_seconds:.2f}s"
            )
        start_time = train_packets[-1].timestamp + 60.0

    if args.scenario:
        from repro.cluster.loadgen import get_scenario

        scenario = get_scenario(args.scenario)
        # Scale the scenario so it carries roughly the requested flow count.
        scale = max(args.flows / scenario.total_flows(), 1e-3)
        stream = scenario.build_packets(
            seed=args.seed + 1, flows_scale=scale, start_time=start_time
        )
        print(f"scenario {scenario.name}: {scenario.description}")
    else:
        stream = TrafficGenerator(seed=args.seed + 1).generate(
            args.flows, start_time=start_time
        )
    return pipeline, stream


def _serve_cluster(args: argparse.Namespace) -> int:
    """``repro serve --workers N`` (N > 1): the sharded cluster path."""
    import dataclasses
    import json as json_module

    from repro.cluster import ClusterConfig, ClusterCoordinator, RetryPolicy
    from repro.persistence import save_pipeline
    from repro.serving import GracefulShutdown

    overrides = {
        "max_respawns": args.max_respawns,
        "heartbeat_interval": args.heartbeat_interval,
        "heartbeat_timeout": args.heartbeat_timeout,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    retry = dataclasses.replace(RetryPolicy(), **overrides) if overrides else None

    with GracefulShutdown() as stop:
        pipeline, stream = _serve_pipeline(args)
        coordinator = ClusterCoordinator(
            pipeline,
            ClusterConfig(
                n_workers=args.workers,
                batch_size=args.window,
                sync_interval=args.sync_interval,
                online=args.online,
                retry=retry,
            ),
        )
        report = coordinator.serve(stream, shutdown=stop)
    if report.interrupted:
        print(f"\n{stop.signal_name or 'shutdown'}: ingest stopped, queues drained")
    print(
        f"\ncluster served {report.total_packets} packets / {report.total_flows} flows "
        f"across {args.workers} workers in {report.wall_seconds:.2f}s; "
        f"{report.total_alerts} alerts"
    )
    print(
        f"aggregate capacity {report.aggregate_flow_throughput:.0f} flows/s "
        f"(wall {report.wall_flow_throughput:.0f} flows/s); "
        f"{report.sync_rounds} sync rounds, model generation {report.generation}"
    )
    for worker in report.workers:
        print(
            f"  worker {worker.worker_id}: {worker.packets} packets, "
            f"{worker.flows} flows, {worker.alerts} alerts, "
            f"{worker.flow_throughput:.0f} flows/cpu-s, "
            f"{worker.online_updates} online updates"
        )
    if getattr(args, "cascade", False):
        escalated = sum(w.cascade.get("escalated_flows", 0) for w in report.workers)
        screened = sum(w.cascade.get("prefilter_flows", 0) for w in report.workers)
        if screened:
            print(
                f"cascade: {escalated}/{screened} flows escalated "
                f"({100.0 * escalated / screened:.1f}%)"
            )
    if report.recovery.failures:
        recovery = report.recovery
        print(
            f"recovery: {len(recovery.failures)} worker failures, "
            f"{recovery.total_respawns} respawns, "
            f"{recovery.total_redispatched_batches} batches redispatched, "
            f"{recovery.unrecovered_batches} unrecovered"
        )
    if args.save:
        if getattr(args, "cascade", False):
            from repro.persistence import save_cascade

            path = save_cascade(pipeline, args.save)
            print(f"\ncascade saved to {path}")
        else:
            path = save_pipeline(pipeline, args.save)
            print(f"\ncluster-adapted pipeline saved to {path}")
    if args.json:
        with open(args.json, "w") as fh:
            json_module.dump(report.to_dict(), fh, indent=2)
        print(f"summary written to {args.json}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.nids.streaming import StreamingDetector
    from repro.persistence import save_pipeline
    from repro.serving import DriftMonitor, GracefulShutdown, OnlineLearner, chunked

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.cascade and args.online:
        print(
            "--cascade does not compose with --online (two heads, two label "
            "spaces); adapt the heads individually and rebuild the cascade",
            file=sys.stderr,
        )
        return 2
    if args.cascade and args.tenants > 0:
        print("--cascade does not compose with --tenants", file=sys.stderr)
        return 2
    if args.tenants > 0:
        return _serve_fabric(args)
    if args.workers > 1:
        return _serve_cluster(args)

    # The shutdown handler is installed before training/stream generation so
    # a Ctrl-C anywhere in the serve lifecycle drains instead of tracebacking.
    with GracefulShutdown() as stop:
        pipeline, stream = _serve_pipeline(args)
        learner = None
        if args.online:
            learner = OnlineLearner(
                pipeline.classifier,
                passes=2,
                replay_rows=512,
                monitor=DriftMonitor(),
            )
        detector = StreamingDetector(
            pipeline,
            window_size=args.window,
            backpressure=args.backpressure,
            online=learner,
        )
        # Chunked ingest so a shutdown signal is observed with bounded
        # latency: stop accepting, drain what is queued (flush classifies
        # still-active flows), report, exit 0.
        for chunk in chunked(stream, args.window):
            if stop.triggered:
                break
            detector.push_many(chunk)
        detector.flush()
    if stop.triggered:
        print(f"\n{stop.signal_name or 'shutdown'}: ingest stopped, queue drained")

    print(
        f"\nserved {detector.total_packets} packets / {detector.total_flows} flows "
        f"in {len(detector.results)} windows; {detector.total_alerts} alerts"
    )
    print(
        f"mean window latency {1e3 * detector.mean_latency:.3f} ms; "
        f"per-flow {1e6 * detector.mean_latency_per_flow:.1f} us"
    )
    severities = detector.pipeline.alert_manager.count_by_severity()
    if severities:
        print("alerts by severity: " + ", ".join(f"{k}={v}" for k, v in sorted(severities.items())))
    if learner is not None:
        print(
            f"online: {learner.updates} partial_fit windows, "
            f"{learner.regenerations} drift regenerations"
        )
    if args.cascade:
        cascade_stats = pipeline.cascade_stats()
        print(
            f"cascade: {cascade_stats['escalated_flows']}/"
            f"{cascade_stats['prefilter_flows']} flows escalated "
            f"({100.0 * cascade_stats['escalation_fraction']:.1f}% at margin "
            f"{cascade_stats['escalation_margin']})"
        )
    print("\nper-stage telemetry:")
    print(detector.telemetry.summary())
    stats = detector.backpressure_stats
    print(
        f"\nbackpressure: submitted={stats.submitted} accepted={stats.accepted} "
        f"dropped={stats.dropped_oldest} forced_flushes={stats.forced_flushes} "
        f"high_watermark={stats.high_watermark}"
    )

    if args.save:
        if args.cascade:
            from repro.persistence import save_cascade

            path = save_cascade(pipeline, args.save)
            print(f"\ncascade saved to {path}")
        else:
            path = save_pipeline(pipeline, args.save)
            print(f"\npipeline saved to {path}")
    if args.json:
        payload = {
            "packets": detector.total_packets,
            "flows": detector.total_flows,
            "windows": len(detector.results),
            "alerts": detector.total_alerts,
            "mean_window_latency_s": detector.mean_latency,
            "mean_flow_latency_s": detector.mean_latency_per_flow,
            "stages": detector.telemetry.to_dict(),
            "backpressure": stats.to_dict(),
            "online": {
                "enabled": learner is not None,
                "partial_fit_windows": learner.updates if learner else 0,
                "regenerations": learner.regenerations if learner else 0,
            },
            "interrupted": stop.triggered,
            "shutdown_signal": stop.signal_name,
        }
        if args.cascade:
            payload["cascade"] = pipeline.cascade_stats()
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"summary written to {args.json}")
    return 0


def _fabric_registry_path(path: str) -> str:
    """Registry snapshots are ``.npz`` archives; normalize the suffix."""
    return path if path.endswith(".npz") else path + ".npz"


def _fabric_train(args: argparse.Namespace, tenant: int):
    """Train one tenant's pipeline (dataset trace or per-subnet traffic)."""
    from repro.core.cyberhd import CyberHD
    from repro.nids.packets import TrafficGenerator
    from repro.nids.pipeline import DetectionPipeline

    bits = getattr(args, "inference_bits", 1)
    classifier = CyberHD(
        dim=getattr(args, "dim", 128),
        epochs=getattr(args, "epochs", 4),
        regeneration_rate=0.1,
        seed=args.seed + tenant,
        inference_bits=bits if bits else None,
    )
    if args.dataset:
        trace = _fabric_dataset_trace(args, tenant, split="train")
        packets = trace.packets
    else:
        packets = TrafficGenerator(
            seed=args.seed + tenant, subnet=f"10.{tenant}.0"
        ).generate(getattr(args, "train_flows", 300))
    return DetectionPipeline(classifier=classifier).fit_packets(packets)


def _fabric_dataset_trace(args: argparse.Namespace, tenant: int, split: str):
    """Compile one tenant's dataset slice (per-tenant seed offsets)."""
    from repro.replay import compile_dataset_trace

    return compile_dataset_trace(
        args.dataset,
        split=split,
        n_train=args.train,
        n_test=args.rows,
        seed=args.seed + tenant + (0 if split == "train" else 1000),
    )


def _fabric_mirror_packets(args: argparse.Namespace, tenant: int):
    """The mirrored traffic slice the shadow gate scores both models on."""
    from repro.nids.packets import TrafficGenerator

    if args.dataset:
        return _fabric_dataset_trace(args, tenant, split="test").packets
    return TrafficGenerator(
        seed=args.seed + 1000 + tenant, subnet=f"10.{tenant}.0"
    ).generate(args.mirror_flows)


def _command_fabric(args: argparse.Namespace) -> int:
    import os

    from repro.fabric import ModelRegistry, ShadowDeployment

    if not getattr(args, "fabric_command", None):
        print(
            "fabric needs a sub-command: publish | promote | rollback | status",
            file=sys.stderr,
        )
        return 2
    path = _fabric_registry_path(args.registry)

    if args.fabric_command == "publish":
        if os.path.exists(path):
            registry = ModelRegistry.load(path)
        else:
            registry = ModelRegistry(max_tenants=args.max_tenants)
        try:
            pipeline = _fabric_train(args, args.tenant)
            version = registry.publish(
                args.tenant, pipeline, activate=True if args.activate else None
            )
            live = registry.live_version(args.tenant)
            registry.save(path)
            print(
                f"tenant {args.tenant}: published v{version} "
                f"({'live' if live == version else f'shadow candidate; live v{live}'}) "
                f"-> {path}"
            )
        finally:
            registry.close()
        return 0

    if args.fabric_command == "promote":
        registry = ModelRegistry.load(path)
        try:
            versions = registry.versions(args.tenant)
            if not versions:
                print(f"tenant {args.tenant} has no published versions", file=sys.stderr)
                return 2
            candidate = (
                args.model_version if args.model_version is not None else versions[-1]
            )
            if candidate == registry.live_version(args.tenant):
                print(f"tenant {args.tenant}: v{candidate} is already live")
                return 0
            injector = None
            if args.error_rate > 0:
                from repro.serving.faults import ServingFaultInjector

                injector = ServingFaultInjector(
                    error_rate=args.error_rate, seed=args.seed
                )
            with ShadowDeployment(
                registry,
                args.tenant,
                candidate,
                recall_tolerance=args.recall_tolerance,
                divergence_budget=args.divergence_budget,
                fault_injector=injector,
            ) as deployment:
                decision = deployment.promote_if_ok(
                    _fabric_mirror_packets(args, args.tenant)
                )
            print(decision.parity.summary())
            print(decision.summary())
            if decision.ok:
                registry.save(path)
                print(f"promoted: tenant {args.tenant} now serves v{candidate}")
            else:
                print(
                    f"rejected: tenant {args.tenant} keeps serving "
                    f"v{registry.live_version(args.tenant)}"
                )
            if args.json:
                with open(args.json, "w") as fh:
                    json.dump(decision.to_dict(), fh, indent=2)
                print(f"decision written to {args.json}")
            return 0 if decision.ok else 1
        finally:
            registry.close()

    if args.fabric_command == "rollback":
        registry = ModelRegistry.load(path)
        try:
            previous = registry.rollback(args.tenant)
            registry.save(path)
            print(f"tenant {args.tenant}: rolled back to v{previous}")
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        finally:
            registry.close()
        return 0

    # status
    registry = ModelRegistry.load(path)
    try:
        tenants = registry.tenants()
        payload = {
            "registry": path,
            "tenants": {
                str(t): {
                    "versions": registry.versions(t),
                    "live": registry.live_version(t),
                    "previous": registry.previous_version(t),
                    "generation": registry.generation(t),
                }
                for t in tenants
            },
            "total_model_bytes": registry.total_model_bytes(),
        }
        print(f"{path}: {len(tenants)} tenant(s), "
              f"{payload['total_model_bytes'] / 1024:.1f} KiB resident")
        for t in tenants:
            entry = payload["tenants"][str(t)]
            print(
                f"  tenant {t}: live v{entry['live']} "
                f"(prev v{entry['previous']}, generation {entry['generation']}), "
                f"versions {entry['versions']}"
            )
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
            print(f"status written to {args.json}")
    finally:
        registry.close()
    return 0


def _merge_tenant_reports(workers) -> dict:
    """Fold per-worker tenant summaries into one cluster-wide view."""
    merged: dict = {}
    for worker in workers:
        for tenant_id, entry in worker.tenants.items():
            slot = merged.setdefault(
                tenant_id,
                {"flows": 0, "alerts": 0, "live_version": entry.get("live_version"),
                 "swaps": 0},
            )
            slot["flows"] += entry.get("flows", 0)
            slot["alerts"] += entry.get("alerts", 0)
            slot["swaps"] += entry.get("swaps", 0)
            if entry.get("live_version") is not None:
                slot["live_version"] = entry["live_version"]
    return merged


def _serve_fabric(args: argparse.Namespace) -> int:
    """``repro serve --tenants N``: multi-tenant fabric serving.

    Trains one per-subnet detector per tenant, publishes them all into an
    in-process registry, and serves the merged per-tenant traffic either
    through the single-process :class:`FabricEngine` (``--workers 1``,
    online learning supported, tenant-scoped) or the tenant-aware sharded
    cluster (``--workers > 1``).
    """
    from repro.cluster import ClusterConfig, ClusterCoordinator
    from repro.core.cyberhd import CyberHD
    from repro.fabric import FabricEngine, ModelRegistry, TenantKeyer
    from repro.nids.packets import TrafficGenerator
    from repro.nids.pipeline import DetectionPipeline
    from repro.serving import GracefulShutdown, chunked

    n_tenants = args.tenants
    if args.workers > 1 and args.online:
        print(
            "--tenants with --workers > 1 serves read-only per-tenant models; "
            "use --workers 1 for tenant-scoped online learning",
            file=sys.stderr,
        )
        return 2

    report = None
    with GracefulShutdown() as stop:
        streams = []
        base_pipeline = None
        registry = ModelRegistry(
            max_tenants=n_tenants, max_readers=args.workers + 2
        )
        try:
            for tenant in range(n_tenants):
                train_packets = TrafficGenerator(
                    seed=args.seed + tenant, subnet=f"10.{tenant}.0"
                ).generate(args.train_flows)
                pipeline = DetectionPipeline(
                    classifier=CyberHD(
                        dim=args.dim,
                        epochs=args.epochs,
                        regeneration_rate=0.1,
                        seed=args.seed + tenant,
                        inference_bits=getattr(args, "inference_bits", None),
                    )
                ).fit_packets(train_packets)
                registry.publish(tenant, pipeline)
                if base_pipeline is None:
                    base_pipeline = pipeline
                streams.extend(
                    TrafficGenerator(
                        seed=args.seed + 1000 + tenant, subnet=f"10.{tenant}.0"
                    ).generate(
                        max(args.flows // n_tenants, 1),
                        start_time=train_packets[-1].timestamp + 60.0,
                    )
                )
            print(
                f"published {n_tenants} tenant model(s), "
                f"{registry.total_model_bytes() / 1024:.1f} KiB resident"
            )
            streams.sort(key=lambda p: p.timestamp)
            keyer = TenantKeyer.per_subnet(n_tenants)

            if args.workers > 1:
                # Workers attach the whole tenant table by spec and route
                # each frame row by its tenant column; the base pipeline
                # only serves flows no tenant claims.
                coordinator = ClusterCoordinator(
                    base_pipeline,
                    ClusterConfig(
                        n_workers=args.workers,
                        batch_size=args.window,
                        sync_interval=args.sync_interval,
                        online=False,
                        fabric_spec=registry.spec(),
                        tenant_keyer=keyer,
                    ),
                )
                report = coordinator.serve(streams, shutdown=stop)
                summary = {
                    "tenants": _merge_tenant_reports(report.workers),
                    "batches": report.sync_rounds,
                }
            else:
                engine = FabricEngine(
                    registry.spec(),
                    keyer,
                    reader_id=0,
                    online=args.online,
                    registry=registry,
                )
                try:
                    for chunk in chunked(iter(streams), args.window):
                        if stop.triggered:
                            break
                        engine.process_packets(chunk)
                    engine.finalize()
                    summary = engine.summary()
                finally:
                    engine.close()
        finally:
            registry.close()
    if stop.triggered:
        print(f"\n{stop.signal_name or 'shutdown'}: ingest stopped, drained")
    if report is not None:
        print(
            f"\nfabric cluster served {report.total_packets} packets / "
            f"{report.total_flows} flows across {args.workers} workers "
            f"in {report.wall_seconds:.2f}s; {report.total_alerts} alerts"
        )
    if report is None:
        total_flows = sum(t["flows"] for t in summary["tenants"].values())
        total_alerts = sum(t["alerts"] for t in summary["tenants"].values())
        print(
            f"\nfabric served {total_flows} flows across {n_tenants} tenants "
            f"in {summary['batches']} batches; {total_alerts} alerts"
        )
    for tenant_id in sorted(summary["tenants"], key=int):
        report = summary["tenants"][tenant_id]
        print(
            f"  tenant {tenant_id}: {report['flows']} flows, "
            f"{report['alerts']} alerts, serving v{report['live_version']} "
            f"({report['swaps']} hot-swaps)"
        )
    if args.online:
        print(
            f"online: {summary['online_updates']} tenant-scoped partial_fit "
            f"batches, {summary['online_samples']} samples"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary written to {args.json}")
    return 0


def _command_matrix(args: argparse.Namespace) -> int:
    from repro.matrix import (
        diff_matrix,
        load_spec,
        render_report,
        run_matrix,
        write_matrix_report,
    )
    from repro.matrix.runner import get_suites

    if args.matrix_command == "run":
        spec = load_spec(args.spec, known_suites=set(get_suites()))
        report = run_matrix(
            spec,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            refresh=args.refresh,
            repeats_override=args.repeats,
            progress=print,
        )
        write_matrix_report(report, args.json)
        summary = report["summary"]
        print(
            f"\nmatrix '{spec.name}': {summary['n_cells']} cells "
            f"({summary['n_cached']} cached, {summary['n_executed']} executed) "
            f"in {summary['wall_seconds']:.2f}s -> {args.json}"
        )
        if args.min_cache_hits is not None:
            fraction = summary["cache_hit_fraction"]
            if fraction < args.min_cache_hits:
                print(
                    f"FAIL: cache hit fraction {fraction:.2f} below required "
                    f"{args.min_cache_hits:.2f} (cache cold or keys unstable)"
                )
                return 2
            print(
                f"cache hit fraction {fraction:.2f} >= {args.min_cache_hits:.2f}"
            )
        return 0

    if args.matrix_command == "diff":
        spec = load_spec(args.spec, known_suites=set(get_suites()))
        with open(args.report) as fh:
            report = json.load(fh)
        ok, lines = diff_matrix(report, spec, baseline_dir=args.baseline_dir)
        for line in lines:
            print(line)
        print("matrix diff: OK" if ok else "matrix diff: FAIL")
        return 0 if ok else 1

    if args.matrix_command == "report":
        with open(args.report) as fh:
            report = json.load(fh)
        print(render_report(report))
        return 0

    print("usage: repro matrix {run,diff,report} ...")
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code (2: bad configuration)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except ConfigurationError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "datasets":
        return _command_datasets(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "replay":
        return _command_replay(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "fabric":
        return _command_fabric(args)
    if args.command == "matrix":
        return _command_matrix(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
