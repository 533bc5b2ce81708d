"""Workload front ends: external trace ingestion + synthetic generators.

Two ways into the simulator beyond the 14 built-in paper kernels:

* ``trace:<path>`` — any text memory trace in the common ``thread op
  address [size]`` format, parsed by :mod:`repro.workloads.memtrace`
  and adapted into a standard benchmark;
* ``synth-*`` — seeded synthetic service workloads from
  :mod:`repro.workloads.synth` (Zipfian, rw-mix, rings, false sharing,
  phase shifts).

:func:`resolve_workload` is the single name-resolution entry point the
benchmark machinery (``repro.bench.get_benchmark``) delegates to.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.common.errors import ConfigError
from repro.workloads.adapter import (
    benchmark_from_trace,
    latest_trace,
    trace_root_task,
)
from repro.workloads.memtrace import (
    TRACE_ADDR_BASE,
    MemTrace,
    TraceFormatError,
    load_trace_file,
    parse_trace_text,
)
from repro.workloads.synth import (
    GENERATORS,
    GOLDEN_SYNTH,
    SYNTH_WORKLOADS,
    make_trace,
)

#: prefix selecting the external-trace front end in any benchmark-name slot
TRACE_PREFIX = "trace:"


def trace_file_digest(path: str) -> Optional[str]:
    """sha256 hex digest of a trace file's bytes; ``None`` if unreadable.

    The one place trace files are hashed: the result cache keys
    ``trace:`` runs by it, and :func:`resolve_workload` keys its parsed
    trace by it, so an edited file misses both.
    """
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def workload_names():
    """Registered synthetic workload names, sorted."""
    return sorted(SYNTH_WORKLOADS)


def is_workload_name(name: str) -> bool:
    """True when ``name`` resolves through this package, not BENCHMARKS."""
    return name in SYNTH_WORKLOADS or name.startswith(TRACE_PREFIX)


def resolve_workload(name: str):
    """Resolve a workload name to a :class:`~repro.bench.common.Benchmark`.

    Accepts registered synthetic names (``synth-zipf``, ...) and
    ``trace:<path>`` external trace files (parsed on resolution, so a
    malformed file surfaces as :class:`TraceFormatError` — an
    operational :class:`~repro.common.errors.ReproError`, CLI exit 2).
    The most recent trace stays parsed while its file content is
    unchanged (:func:`~repro.workloads.adapter.latest_trace`), so
    resolving one name repeatedly parses it once.
    """
    if name in SYNTH_WORKLOADS:
        return SYNTH_WORKLOADS[name]
    if name.startswith(TRACE_PREFIX):
        path = name[len(TRACE_PREFIX):]
        if not path:
            raise ConfigError("empty trace path in workload name 'trace:'")
        digest = trace_file_digest(path)
        if digest is None:
            # unreadable: load_trace_file raises the located diagnostic,
            # and a file without a digest is never kept
            trace = load_trace_file(path)
        else:
            trace = latest_trace(
                (name, digest), lambda: load_trace_file(path)
            )
        return benchmark_from_trace(trace, name)
    raise ConfigError(
        f"unknown workload {name!r}; expected one of {workload_names()} "
        f"or '{TRACE_PREFIX}<path>'"
    )


__all__ = [
    "GENERATORS",
    "GOLDEN_SYNTH",
    "MemTrace",
    "SYNTH_WORKLOADS",
    "TRACE_ADDR_BASE",
    "TRACE_PREFIX",
    "TraceFormatError",
    "benchmark_from_trace",
    "is_workload_name",
    "load_trace_file",
    "make_trace",
    "parse_trace_text",
    "resolve_workload",
    "trace_file_digest",
    "trace_root_task",
    "workload_names",
]
