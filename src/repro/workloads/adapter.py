"""Run any :class:`MemTrace` through the simulator as a standard benchmark.

The adapter turns a logical memory trace into the same ``Benchmark``
object the 14 paper kernels use, so every existing consumer —
``run_benchmark``, the conformance harness, ``record``/``replay``, the
golden corpus — accepts it unchanged:

* one simulated task is forked per distinct trace thread (via
  ``ctx.par``, i.e. the normal fork-join scheduler path);
* each task yields its thread's ops in program order as raw
  ``LoadOp``/``StoreOp``/``RmwOp`` accesses at ``TRACE_ADDR_BASE +
  addr`` (``heap=None``: trace addresses are foreign to the managed
  heap, so the disentanglement checker and race detector — which reason
  about HLPL heap objects — do not apply);
* accesses that span cache blocks are split at block boundaries (the
  engine contract is one block per scalar op), preserving the byte
  footprint exactly;
* the run "result" is the trace checksum, read per thread inside the
  simulated tasks and combined order-independently, so engine and
  replay paths agree bit-for-bit and ``reference`` is trivially the
  host-side checksum.

The op lists and per-thread checksums are built once per trace
(:meth:`MemTrace.engine_ops`, :meth:`MemTrace.thread_checksum`), and
:func:`latest_trace` keeps the latest workload trace for the next run
of the same workload, so every run of a protocol matrix yields the same
immutable ops.  A trace handed to :func:`benchmark_from_trace` or kept
by :func:`latest_trace` must not be appended to afterwards.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.bench.common import Benchmark
from repro.workloads.memtrace import MemTrace, _MASK64


def _thread_body(trace: MemTrace, thread: int):
    """Build the ``(ctx) -> generator`` thunk replaying one trace thread."""

    def body(ctx):
        for op in trace.engine_ops(thread, ctx.rt.machine.config.block_size):
            yield op
        return trace.thread_checksum(thread)

    return body


#: the most recently built workload trace: ``(key, trace, its length)``
_latest: Optional[Tuple[Hashable, MemTrace, int]] = None


def latest_trace(key: Hashable, build: Callable[[], MemTrace]) -> MemTrace:
    """``build()``, kept for the next call with an equal ``key``.

    One entry: a new key frees the kept trace before building its own, so
    the kept trace is the only one alive across runs.  It holds rows,
    engine ops and checksums, never a machine.  A kept trace that was
    appended to since is built again.
    """
    global _latest
    if (
        _latest is not None
        and _latest[0] == key
        and len(_latest[1]) == _latest[2]
    ):
        return _latest[1]
    _latest = None
    trace = build()
    _latest = (key, trace, len(trace))
    return trace


def trace_root_task(ctx, trace: MemTrace):
    """Fork-join root task replaying every thread of ``trace``."""
    threads = trace.threads()
    results = yield from ctx.par(
        *[_thread_body(trace, thread) for thread in threads]
    )
    total = 0
    for thread, digest in zip(threads, results):
        total = (total + (thread + 1) * digest) & _MASK64
    return total


def benchmark_from_trace(
    trace: MemTrace,
    name: str,
    description: str = "",
    scales: Optional[Dict[str, int]] = None,
) -> Benchmark:
    """Wrap a fixed ``MemTrace`` as a :class:`Benchmark`.

    External traces have one inherent size, so every named scale maps to
    the same workload; ``build`` ignores the rng — the trace *is* the
    input, already fully determined.
    """
    return Benchmark(
        name=name,
        build=lambda rng, scale: trace,
        root_task=trace_root_task,
        reference=lambda workload: workload.checksum(),
        scales=scales or {"test": 0, "small": 0, "default": 0},
        description=description or f"ingested trace ({len(trace)} ops)",
    )
