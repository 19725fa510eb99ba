"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at the
``fast`` evaluation scale and writes the resulting table to
``benchmarks/output/<experiment>.txt`` so the artefacts survive pytest's
output capturing.

The HDC-primitive microbenchmarks additionally append machine-readable
records to the session-scoped ``bench_records`` fixture; at teardown the
collected records (merged with the end-to-end ``CyberHD.fit`` comparison
from :mod:`repro.bench.hdc` when the sweep is complete) are written to
``benchmarks/output/BENCH_hdc_primitives.json``.  The checked-in repo-root
baseline of the same name is regenerated with ``python -m repro bench``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    """Directory collecting the rendered experiment tables."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def bench_records() -> List[Dict[str, Any]]:
    """Session-wide collector for machine-readable benchmark records.

    Benchmarks append dicts in the :func:`repro.bench.harness.make_record`
    schema; at session end the records are written to
    ``benchmarks/output/BENCH_hdc_primitives.json``.  The end-to-end fit
    comparison (expensive: two full paper-scale fits) is appended only when
    the session produced a reasonably complete primitive sweep, so running a
    single benchmark doesn't pay for it or emit a misleadingly sparse file.
    The checked-in repo-root baseline is regenerated with
    ``python -m repro bench`` instead.
    """
    from repro.bench.harness import write_bench_json
    from repro.bench.hdc import bench_fit
    from repro.matrix.runner import get_suites

    records: List[Dict[str, Any]] = []
    yield records
    if not records:
        return
    if len({record["op"] for record in records}) >= 5:
        records.extend(bench_fit(repeats=1))
    OUTPUT_DIR.mkdir(exist_ok=True)
    write_bench_json(records, OUTPUT_DIR / get_suites()["hdc"].baseline_json)


def save_result(output_dir: Path, result) -> Path:
    """Write an ExperimentResult's text table next to the benchmarks."""
    path = output_dir / f"{result.name}.txt"
    path.write_text(result.to_text() + "\n")
    return path
