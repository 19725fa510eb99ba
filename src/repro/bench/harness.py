"""The shared bench harness: record schema, provenance, timing and the diff.

Every suite in :mod:`repro.bench` emits records through :func:`make_record`;
``repro bench`` writes them with :func:`write_bench_json` and prints them
with :func:`format_table`, and ``repro matrix diff`` gates them with
:func:`diff_bench_payloads` against the suite's checked-in ``BENCH_*.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro._version import __version__


# ------------------------------------------------------------------ recording
def make_record(
    op: str,
    wall_time_s: float,
    dtype: str = "float64",
    D: int = 0,
    n: int = 0,
    **extra: Any,
) -> Dict[str, Any]:
    """One benchmark measurement in the shared schema."""
    record = {
        "op": op,
        "dtype": dtype,
        "D": int(D),
        "n": int(n),
        "wall_time_s": float(wall_time_s),
    }
    record.update(extra)
    return record


def _git_revision() -> str:
    """The current git commit (or "unknown" outside a checkout)."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def bench_provenance() -> Dict[str, Any]:
    """Environment metadata stamped into every ``BENCH_*.json``.

    Benchmark trajectories across PRs are only comparable when the record
    says what produced them: the exact source revision, interpreter and
    NumPy versions, the backend dtype policy, and how many CPUs the host
    actually exposed (scaling numbers are meaningless without it).
    """
    from repro.hdc.backend import DEFAULT_DTYPE

    try:
        affinity_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        affinity_cpus = os.cpu_count() or 1
    return {
        "git_revision": _git_revision(),
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy_version": np.__version__,
        "dtype_policy": DEFAULT_DTYPE,
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity_count": affinity_cpus,
        "platform": platform.platform(),
        "argv": list(sys.argv),
    }


def write_bench_json(
    records: Sequence[Dict[str, Any]], path: Union[str, Path]
) -> Path:
    """Write benchmark records (plus environment provenance) as JSON."""
    path = Path(path)
    payload = {
        "schema": "repro-bench/2",
        "repro_version": __version__,
        "numpy_version": np.__version__,
        "provenance": bench_provenance(),
        "records": list(records),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall time over ``repeats`` calls (minimum is the standard
    noise-robust estimator for microbenchmarks)."""
    return _best_of_each((fn,), repeats)[0]


def _best_of_each(fns: Sequence[Callable[[], Any]], repeats: int) -> List[float]:
    """Minimum wall time of each of ``fns``, sampled in interleaved rounds.

    Every speedup ratio is timed through here: one round calls each
    function once, so a host that runs slow for a while (a VM waking from
    idle, a noisy neighbour) slows both sides of the ratio instead of
    whichever side happened to be sampled first.
    """
    best = [float("inf")] * len(fns)
    for _ in range(max(1, repeats)):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def format_table(records: Sequence[Dict[str, Any]]) -> str:
    """Plain-text table of benchmark records."""
    lines = [f"{'op':<32} {'dtype':<8} {'D':>6} {'n':>7} {'wall_time_s':>12}  extra"]
    lines.append("-" * len(lines[0]))
    for r in records:
        extra = ", ".join(
            f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in r.items()
            if k not in ("op", "dtype", "D", "n", "wall_time_s")
        )
        lines.append(
            f"{r['op']:<32} {r['dtype']:<8} {r['D']:>6} {r['n']:>7} "
            f"{r['wall_time_s']:>12.6f}  {extra}"
        )
    return "\n".join(lines)


# ------------------------------------------------------- baseline regression
def diff_bench_payloads(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.2,
    floors: Optional[Dict[str, float]] = None,
) -> "tuple[bool, List[str]]":
    """Diff a fresh bench payload against a checked-in baseline.

    The comparison is deliberately machine-portable: absolute wall times are
    never compared (the baseline was produced on different hardware), only

    * **parity gates** -- every fresh record carrying a ``parity_ok`` field
      must report 1, unconditionally;
    * **relative speedups** -- for every op appearing exactly once in both
      payloads with a ``speedup`` field, the fresh ratio must reach
      ``tolerance * baseline`` (both sides measure current-vs-reference on
      *their own* machine, so the ratio transfers across hosts up to noise
      and workload-scale differences -- ``tolerance`` absorbs both);
    * **explicit floors** -- ``floors[op]`` requires the fresh ``speedup``
      of ``op`` to reach an absolute value (the bitpack smoke's
      packed-throughput floor).  The special key ``wall_speedup`` floors the
      ``wall_speedup`` field of records carrying one (the cluster suite's
      wall-clock gate) and is skipped with a logged reason when the fresh
      run's ``provenance.cpu_count`` is below the record's worker count --
      a time-sliced host cannot express the parallelism being gated.

    Returns ``(ok, report_lines)``.
    """

    def label(record: Dict[str, Any]) -> str:
        suffix = f" (D={record['D']})" if record.get("D") else ""
        return f"{record['op']}{suffix}"

    def speedup_records(records: Sequence[Dict[str, Any]]):
        return [r for r in records if "speedup" in r]

    def match(
        candidates: Sequence[Dict[str, Any]],
        reference: Dict[str, Any],
        reference_pool: Sequence[Dict[str, Any]],
    ):
        """The fresh record measuring the same operating point, if exactly one.

        Records are keyed by op.  When an op is measured at several
        dimensionalities (the bitpack kernel suite), only an exact-``D``
        fresh record may answer for a given baseline record -- comparing a
        D=4096 smoke against a D=8192 baseline would gate the wrong
        operating point.  A cross-``D`` match is allowed only when the op
        appears once on *both* sides: that is the quick-mode case where the
        whole workload legitimately shrinks (cluster at D=128 vs the
        D=256 baseline) and the loose tolerance absorbs the scale change.
        """
        same_op = [r for r in candidates if r["op"] == reference["op"]]
        exact = [r for r in same_op if r.get("D") == reference.get("D")]
        if len(exact) == 1:
            return exact[0]
        baseline_same_op = [r for r in reference_pool if r["op"] == reference["op"]]
        if len(same_op) == 1 and len(baseline_same_op) == 1:
            return same_op[0]
        return None

    fresh_records = list(fresh.get("records", []))
    baseline_records = list(baseline.get("records", []))
    lines: List[str] = []
    ok = True

    parity = [r for r in fresh_records if "parity_ok" in r]
    for record in parity:
        passed = int(record["parity_ok"]) == 1
        ok &= passed
        lines.append(
            f"[{'ok' if passed else 'FAIL'}] parity {record['op']} "
            f"{record.get('dataset', '')}: parity_ok={record['parity_ok']}"
        )
    # A parity op the baseline carries but the fresh run never emitted is a
    # silent loss of the correctness evidence, not a pass.
    fresh_parity_keys = {(r["op"], r.get("dataset")) for r in parity}
    for record in baseline_records:
        if "parity_ok" not in record:
            continue
        key = (record["op"], record.get("dataset"))
        if key not in fresh_parity_keys:
            ok = False
            lines.append(
                f"[FAIL] parity {record['op']} {record.get('dataset', '')}: "
                "record missing from fresh run"
            )

    fresh_speedups = speedup_records(fresh_records)
    compared = 0
    for base_record in speedup_records(baseline_records):
        fresh_record = match(fresh_speedups, base_record, baseline_records)
        if fresh_record is None:
            lines.append(f"[skip] speedup {label(base_record)}: not measured in fresh run")
            continue
        compared += 1
        required = float(base_record["speedup"]) * tolerance
        value = float(fresh_record["speedup"])
        passed = value >= required
        ok &= passed
        lines.append(
            f"[{'ok' if passed else 'FAIL'}] speedup {label(fresh_record)}: {value:.2f}x "
            f"(baseline {float(base_record['speedup']):.2f}x, "
            f"floor {required:.2f}x at tolerance {tolerance})"
        )
    cpu_count = (fresh.get("provenance") or {}).get("cpu_count")
    for op, floor in (floors or {}).items():
        if op == "wall_speedup":
            # Floor on the *wall-clock* cluster speedup rather than an op's
            # ``speedup`` field.  Wall speedup is host-bounded: with fewer
            # cores than workers the replicas time-slice one another and no
            # transport can beat the baseline, so the gate only binds where
            # the hardware can express the parallelism.
            matching = [r for r in fresh_speedups if "wall_speedup" in r]
            if not matching:
                ok = False
                lines.append(f"[FAIL] floor {op}: record missing from fresh run")
                continue
            for fresh_record in matching:
                workers = int(fresh_record.get("workers") or 0)
                if cpu_count is not None and workers and int(cpu_count) < workers:
                    lines.append(
                        f"[skip] floor {label(fresh_record)}: wall_speedup gate "
                        f"skipped, host has {cpu_count} cores < {workers} workers"
                    )
                    continue
                value = float(fresh_record["wall_speedup"])
                passed = value >= float(floor)
                ok &= passed
                lines.append(
                    f"[{'ok' if passed else 'FAIL'}] floor {label(fresh_record)} "
                    f"wall_speedup: {value:.2f}x (required {float(floor):.2f}x)"
                )
            continue
        matching = [r for r in fresh_speedups if r["op"] == op]
        if not matching:
            ok = False
            lines.append(f"[FAIL] floor {op}: record missing from fresh run")
            continue
        for fresh_record in matching:
            value = float(fresh_record["speedup"])
            passed = value >= float(floor)
            ok &= passed
            lines.append(
                f"[{'ok' if passed else 'FAIL'}] floor {label(fresh_record)}: "
                f"{value:.2f}x (required {float(floor):.2f}x)"
            )
    if not parity and compared == 0 and not floors:
        ok = False
        lines.append(
            "[FAIL] nothing compared: no parity records in the fresh run and "
            "no shared speedup ops with the baseline"
        )
    return ok, lines
