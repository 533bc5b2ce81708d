"""Experiment drivers: run benchmarks, compute the paper's metrics, render
tables for every figure.  The run matrix (:func:`run_matrix`) is
fault-tolerant — see :mod:`repro.analysis.pool` for timeouts, retries,
pool re-spawn and serial fallback, and
:mod:`repro.analysis.faults` for the deterministic fault injection that
tests it.  The persistent result cache is its checkpoint: re-running an
interrupted matrix with the same cache directory runs only the unfinished
tasks."""

from repro.analysis.metrics import ComparisonMetrics, compare
from repro.analysis.pool import (
    DiskCache,
    MatrixReport,
    RunTask,
    run_matrix,
)
from repro.analysis.run import BenchResult, run_benchmark, run_pair, run_pairs

__all__ = [
    "BenchResult",
    "ComparisonMetrics",
    "DiskCache",
    "MatrixReport",
    "RunTask",
    "compare",
    "run_benchmark",
    "run_matrix",
    "run_pair",
    "run_pairs",
]
