"""Declarative experiment matrix: specs, cached cells, significance gates.

One YAML spec names a grid of benchmark cells (suite × parameters), each
cell is executed through its suite's ``repro.bench.<suite>.run`` entry point
(bound by the suite registry in :mod:`repro.matrix.runner`) behind a
content-addressed result cache, and the sweep emits one provenance-stamped
``repro-matrix/1`` report that ``matrix diff`` gates against the checked-in
``BENCH_*.json`` baselines (floors, parity, tolerance) plus paired
permutation significance tests between named cells.  See
``docs/experiments.md``.
"""

from repro.matrix.cache import (
    CELL_SCHEMA,
    ResultCache,
    cell_key,
    code_fingerprint,
    dataset_digest,
)
from repro.matrix.runner import (
    REPORT_SCHEMA,
    SuiteBinding,
    diff_matrix,
    get_suites,
    render_report,
    run_cell,
    run_matrix,
    write_matrix_report,
)
from repro.matrix.spec import (
    SPEC_SCHEMA,
    CellComparison,
    MatrixCell,
    MatrixSpec,
    load_spec,
    parse_spec,
)
from repro.matrix.stats import (
    compare_cells,
    mean_ci,
    paired_permutation_pvalue,
)

__all__ = [
    "CELL_SCHEMA",
    "REPORT_SCHEMA",
    "SPEC_SCHEMA",
    "CellComparison",
    "MatrixCell",
    "MatrixSpec",
    "ResultCache",
    "SuiteBinding",
    "cell_key",
    "code_fingerprint",
    "compare_cells",
    "dataset_digest",
    "diff_matrix",
    "get_suites",
    "load_spec",
    "mean_ci",
    "paired_permutation_pvalue",
    "parse_spec",
    "render_report",
    "run_cell",
    "run_matrix",
    "write_matrix_report",
]
