"""Benchmark suites: one module per suite, one shared harness.

Each ``repro.bench.<suite>`` module exposes a ``run`` entry point whose
signature holds the suite's defaults; :mod:`repro.bench.harness` holds the
record schema, provenance, timing helpers and the baseline diff.  The
registry that binds suites to their baselines and fingerprinted modules is
:data:`repro.matrix.runner.SUITES`, behind both ``repro bench`` and
``repro matrix``.
"""
