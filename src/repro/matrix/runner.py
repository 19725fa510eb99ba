"""Matrix execution: cells → cached results → one report artifact.

``SUITES`` is the one suite registry: ``repro bench`` and ``run_matrix``
both dispatch through :func:`get_suites`.  ``run_matrix`` walks a spec's
cells in order, keys each against the :mod:`result cache
<repro.matrix.cache>`, executes misses through the suite's
``repro.bench.<suite>.run`` entry point (``repeats`` times, aggregating
per-repeat samples), and emits a single provenance-stamped report (schema
``repro-matrix/1``).

``diff_matrix`` is the gate: per cell it reuses
:func:`repro.bench.harness.diff_bench_payloads` against the suite's
checked-in ``BENCH_*.json`` (parity, relative-speedup tolerance, absolute
floors), then adds the spec's paired-significance comparisons on the
per-repeat samples.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.matrix.cache import CELL_SCHEMA, ResultCache, cell_key, code_fingerprint
from repro.matrix.spec import MatrixCell, MatrixSpec
from repro.matrix.stats import aggregate_samples, compare_cells, find_samples

REPORT_SCHEMA = "repro-matrix/1"

#: Modules every suite exercises (the harness and the training substrate).
_COMMON_MODULES = (
    "repro.bench.harness",
    "repro.hdc",
    "repro.core",
    "repro.models",
    "repro.datasets",
    "repro.utils",
)

_SERVING = ("repro.nids", "repro.serving")
_REPLAY = _SERVING + ("repro.cluster", "repro.replay")

#: The suite registry: name -> (checked-in baseline, the subsystem packages
#: the suite exercises).  Each suite's entry point is ``repro.bench.<name>.run``
#: and its defaults live only in that function's signature; the code
#: fingerprint covers ``_COMMON_MODULES``, the suite's own module and these
#: packages, so an edit elsewhere leaves its cached cells valid.
SUITES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "hdc": ("BENCH_hdc_primitives.json", ()),
    "cluster": ("BENCH_cluster.json", _SERVING + ("repro.cluster",)),
    "replay": ("BENCH_replay.json", _REPLAY),
    "bitpack": ("BENCH_bitpack.json", _REPLAY + ("repro.persistence",)),
    "chaos": ("BENCH_chaos.json", _REPLAY),
    "fabric": ("BENCH_fabric.json", _SERVING + ("repro.fabric", "repro.persistence")),
    "cascade": ("BENCH_cascade.json", _SERVING + ("repro.cascade", "repro.persistence")),
    "loadgen": ("BENCH_loadgen.json", _REPLAY),
    "baselines": ("BENCH_baselines.json", ("repro.baselines",)),
}

#: Record fields that are identity, not measurement: never averaged across
#: repeats and never sampled into the aggregate block.
_IDENTITY_FIELDS = frozenset({"D", "n"})


@dataclass(frozen=True)
class SuiteBinding:
    """One runnable suite: entry point, default baseline, touched modules."""

    name: str
    runner: Callable[..., List[Dict[str, Any]]]
    baseline_json: Optional[str]
    modules: Tuple[str, ...]


_suites_cache: Optional[Dict[str, SuiteBinding]] = None


def get_suites() -> Dict[str, SuiteBinding]:
    """The bound registry (lazy: importing the matrix stays cheap)."""
    global _suites_cache
    if _suites_cache is None:
        _suites_cache = {
            name: SuiteBinding(
                name=name,
                runner=importlib.import_module(f"repro.bench.{name}").run,
                baseline_json=baseline,
                modules=_COMMON_MODULES + (f"repro.bench.{name}",) + packages,
            )
            for name, (baseline, packages) in SUITES.items()
        }
    return _suites_cache


def check_params(binding: SuiteBinding, params: Dict[str, Any], where: str) -> None:
    """Raise :class:`ConfigurationError` unless the suite takes ``params``."""
    try:
        inspect.signature(binding.runner).bind(**params)
    except TypeError as exc:
        raise ConfigurationError(
            f"{where}: suite {binding.name!r} rejected its parameters "
            f"{params!r}: {exc}"
        ) from exc


# ------------------------------------------------------------- cell execution
def _aggregate_runs(
    runs: Sequence[List[Dict[str, Any]]],
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Fold per-repeat record lists into representative records + samples.

    Records pair positionally within each op (suites emit a deterministic
    record structure, so the i-th ``replay_open_loop`` of repeat 2 measures
    the same operating point as the i-th of repeat 0).  Numeric measurement
    fields become their across-repeat mean in the representative record —
    except ``parity_ok``, which becomes the *minimum*: a parity bit that
    drops in any repeat is a failure, not noise to average away.
    """
    representative = [dict(record) for record in runs[0]]
    if len(runs) <= 1:
        aggregates = [
            {
                "op": record["op"],
                "index": _op_index(runs[0], i),
                "fields": {
                    key: aggregate_samples([value])
                    for key, value in record.items()
                    if _is_measurement(key, value)
                },
            }
            for i, record in enumerate(runs[0])
        ]
        return representative, aggregates

    aggregates = []
    for i, record in enumerate(representative):
        op = record["op"]
        index = _op_index(runs[0], i)
        peers: List[Dict[str, Any]] = []
        for run in runs:
            matches = [r for r in run if r.get("op") == op]
            if index < len(matches):
                peers.append(matches[index])
        fields: Dict[str, Any] = {}
        for key, value in record.items():
            if not _is_measurement(key, value):
                continue
            samples = [
                peer[key]
                for peer in peers
                if isinstance(peer.get(key), (int, float))
                and not isinstance(peer.get(key), bool)
            ]
            if len(samples) != len(peers):
                continue
            fields[key] = aggregate_samples(samples)
            if key == "parity_ok":
                record[key] = int(min(samples))
            else:
                record[key] = fields[key]["mean"]
        aggregates.append({"op": op, "index": index, "fields": fields})
    return representative, aggregates


def _op_index(records: Sequence[Dict[str, Any]], position: int) -> int:
    """How many earlier records share ``records[position]``'s op."""
    op = records[position]["op"]
    return sum(1 for r in records[:position] if r.get("op") == op)


def _is_measurement(key: str, value: Any) -> bool:
    return (
        key not in _IDENTITY_FIELDS
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    )


def run_cell(
    binding: SuiteBinding,
    cell: MatrixCell,
) -> Dict[str, Any]:
    """Execute one cell (``cell.repeats`` suite runs) into a payload."""
    check_params(binding, cell.params_dict, f"cell {cell.cell_id!r}")
    runs: List[List[Dict[str, Any]]] = []
    start = time.perf_counter()
    for _ in range(cell.repeats):
        runs.append(binding.runner(**cell.params_dict))
    wall_seconds = time.perf_counter() - start
    records, aggregates = _aggregate_runs(runs)
    return {
        "schema": CELL_SCHEMA,
        "cell_id": cell.cell_id,
        "suite": cell.suite,
        "params": cell.params_dict,
        "repeats": cell.repeats,
        "wall_seconds": wall_seconds,
        "records": records,
        "aggregates": aggregates,
    }


# ------------------------------------------------------------------ the sweep
def run_matrix(
    spec: MatrixSpec,
    cache_dir: Union[str, Path] = ".matrix-cache",
    *,
    use_cache: bool = True,
    refresh: bool = False,
    repeats_override: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    suites: Optional[Dict[str, SuiteBinding]] = None,
) -> Dict[str, Any]:
    """Run every cell of ``spec``, reusing cached results, into a report.

    Each completed cell is persisted to the cache *before* the next one
    starts, so an interrupted sweep resumes where it stopped: the re-run
    hits the cache for every finished cell and only executes the rest.
    ``refresh`` forces re-execution but still writes fresh cache entries;
    ``use_cache=False`` bypasses the cache entirely (read and write).
    Every cell's suite and parameters are checked before the first cell
    runs, so a bad cell late in the spec fails in seconds.
    """
    suites = suites if suites is not None else get_suites()
    from repro.bench.harness import bench_provenance

    for cell in spec.cells:
        if cell.suite not in suites:
            raise ConfigurationError(
                f"cell {cell.cell_id!r} names unknown suite {cell.suite!r} "
                f"(known: {sorted(suites)})"
            )
        check_params(suites[cell.suite], cell.params_dict, f"cell {cell.cell_id!r}")
    cache = ResultCache(cache_dir)
    emit = progress or (lambda message: None)
    fingerprints: Dict[str, str] = {}
    cells_out: List[Dict[str, Any]] = []
    n_cached = 0
    start = time.perf_counter()
    for cell in spec.cells:
        binding = suites[cell.suite]
        if repeats_override is not None:
            cell = replace(cell, repeats=int(repeats_override))
        if cell.suite not in fingerprints:
            fingerprints[cell.suite] = code_fingerprint(binding.modules)
        key, components = cell_key(cell, fingerprints[cell.suite])
        if use_cache and not refresh:
            cached = cache.get(key)
            if cached is not None:
                n_cached += 1
                emit(f"[cache] {cell.cell_id}  key={key[:12]}")
                entry = dict(cached)
                entry["cell_id"] = cell.cell_id
                entry["cached"] = True
                cells_out.append(entry)
                continue
        emit(f"[run  ] {cell.cell_id}  repeats={cell.repeats}")
        payload = run_cell(binding, cell)
        payload["key"] = key
        payload["key_components"] = components
        if use_cache:
            cache.put(key, payload)
        entry = dict(payload)
        entry["cached"] = False
        cells_out.append(entry)
    wall_seconds = time.perf_counter() - start
    n_cells = len(cells_out)
    return {
        "schema": REPORT_SCHEMA,
        "spec_name": spec.name,
        "spec_hash": spec.spec_hash(),
        "spec_source": str(spec.source) if spec.source else None,
        "provenance": bench_provenance(),
        "cells": cells_out,
        "summary": {
            "n_cells": n_cells,
            "n_cached": n_cached,
            "n_executed": n_cells - n_cached,
            "cache_hit_fraction": n_cached / n_cells if n_cells else 0.0,
            "wall_seconds": wall_seconds,
        },
    }


def write_matrix_report(report: Dict[str, Any], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


# ------------------------------------------------------------------ the gate
def diff_matrix(
    report: Dict[str, Any],
    spec: MatrixSpec,
    baseline_dir: Union[str, Path] = ".",
    *,
    suites: Optional[Dict[str, SuiteBinding]] = None,
) -> Tuple[bool, List[str]]:
    """Gate a matrix report: per-cell bench diffs + paired significance.

    Per cell the fresh records diff against the suite's checked-in
    ``BENCH_*.json`` via :func:`repro.bench.harness.diff_bench_payloads` with the
    spec's tolerance and floors, which is what lets one ``matrix diff``
    subsume the old per-suite CI gates.  Spec comparisons then run
    :func:`repro.matrix.stats.compare_cells` on the per-repeat samples;
    only a significance-*confirmed* regression fails the gate.
    """
    from repro.bench.harness import diff_bench_payloads

    suites = suites if suites is not None else get_suites()
    baseline_dir = Path(baseline_dir)
    cells_by_id = {cell.get("cell_id"): cell for cell in report.get("cells", [])}
    lines: List[str] = []
    ok = True

    for cell in spec.cells:
        payload = cells_by_id.get(cell.cell_id)
        if payload is None:
            ok = False
            lines.append(f"[FAIL] cell {cell.cell_id}: missing from the report")
            continue
        binding = suites.get(cell.suite)
        baseline_name = spec.baselines.get(
            cell.suite, binding.baseline_json if binding else None
        )
        if baseline_name is None:
            lines.append(f"[skip] cell {cell.cell_id}: no baseline configured")
            continue
        baseline_path = baseline_dir / baseline_name
        if not baseline_path.is_file():
            ok = False
            lines.append(
                f"[FAIL] cell {cell.cell_id}: baseline {baseline_path} not found"
            )
            continue
        baseline_payload = json.loads(baseline_path.read_text())
        fresh_payload = {
            "records": payload.get("records", []),
            "provenance": report.get("provenance", {}),
        }
        cell_ok, cell_lines = diff_bench_payloads(
            fresh_payload,
            baseline_payload,
            tolerance=spec.tolerance_for(cell),
            floors=spec.floors_for(cell),
        )
        ok &= cell_ok
        lines.extend(f"{cell.cell_id} :: {line}" for line in cell_lines)

    for comparison in spec.comparisons:
        candidate = cells_by_id.get(comparison.cell)
        baseline = cells_by_id.get(comparison.baseline)
        if candidate is None or baseline is None:
            ok = False
            missing = comparison.cell if candidate is None else comparison.baseline
            lines.append(
                f"[FAIL] comparison {comparison.name}: cell {missing!r} missing "
                "from the report"
            )
            continue
        cand_samples = find_samples(
            candidate.get("aggregates", []), comparison.op, comparison.metric_field
        )
        base_samples = find_samples(
            baseline.get("aggregates", []),
            comparison.baseline_op,
            comparison.baseline_field,
        )
        if not cand_samples or not base_samples:
            ok = False
            side = comparison.cell if not cand_samples else comparison.baseline
            lines.append(
                f"[FAIL] comparison {comparison.name}: metric "
                f"{comparison.metric} not measured in cell {side!r}"
            )
            continue
        verdict = compare_cells(
            cand_samples,
            base_samples,
            alpha=spec.alpha if comparison.alpha is None else comparison.alpha,
            min_ratio=comparison.min_ratio,
        )
        failed = verdict["verdict"] == "regression"
        ok &= not failed
        p_worse = verdict["p_worse"]
        p_text = "n/a" if p_worse is None else f"{p_worse:.3f}"
        lines.append(
            f"[{'FAIL' if failed else 'ok'}] comparison {comparison.name}: "
            f"{comparison.metric} ratio {verdict['ratio']:.3f} "
            f"(floor {comparison.min_ratio}) p={p_text} "
            f"alpha={verdict['alpha']} -> {verdict['verdict']}"
        )
    if not lines:
        ok = False
        lines.append("[FAIL] nothing compared: the spec gated no cells")
    return ok, lines


# -------------------------------------------------------------- presentation
def render_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a ``repro-matrix/1`` report."""
    summary = report.get("summary", {})
    lines = [
        f"matrix {report.get('spec_name', '?')}  "
        f"spec={report.get('spec_hash', '?')[:12]}  "
        f"cells={summary.get('n_cells', 0)} "
        f"(cached {summary.get('n_cached', 0)}, "
        f"executed {summary.get('n_executed', 0)}, "
        f"hit rate {summary.get('cache_hit_fraction', 0.0):.0%})  "
        f"wall={summary.get('wall_seconds', 0.0):.1f}s"
    ]
    for cell in report.get("cells", []):
        flag = "cache" if cell.get("cached") else "run  "
        lines.append(
            f"  [{flag}] {cell.get('cell_id')}  repeats={cell.get('repeats')}  "
            f"wall={cell.get('wall_seconds', 0.0):.1f}s"
        )
        aggregates = {
            (entry.get("op"), entry.get("index")): entry.get("fields", {})
            for entry in cell.get("aggregates", [])
        }
        seen: Dict[str, int] = {}
        for record in cell.get("records", []):
            op = record.get("op")
            index = seen.get(op, 0)
            seen[op] = index + 1
            parts = []
            if "speedup" in record:
                stats = aggregates.get((op, index), {}).get("speedup")
                if stats and stats.get("n", 1) > 1:
                    lo, hi = stats["ci95"]
                    parts.append(
                        f"speedup {stats['mean']:.2f}x (95% CI {lo:.2f}-{hi:.2f})"
                    )
                else:
                    parts.append(f"speedup {float(record['speedup']):.2f}x")
            if "parity_ok" in record:
                parts.append(f"parity_ok={int(record['parity_ok'])}")
            for extra_field in ("recall", "wall_speedup", "escalation_fraction"):
                if extra_field in record:
                    parts.append(f"{extra_field}={float(record[extra_field]):.3f}")
            if parts:
                lines.append(f"      {op}: " + "  ".join(parts))
    return "\n".join(lines)
