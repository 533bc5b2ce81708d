"""Run any :class:`MemTrace` through the simulator as a standard benchmark.

The adapter turns a logical memory trace into the same ``Benchmark``
object the 14 paper kernels use, so every existing consumer —
``run_benchmark``, the conformance harness, ``record``/``replay``, the
golden corpus — accepts it unchanged:

* one simulated task is forked per distinct trace thread (via
  ``ctx.par``, i.e. the normal fork-join scheduler path);
* each task replays its thread's ops in program order as raw
  ``LoadOp``/``StoreOp``/``RmwOp`` accesses at ``TRACE_ADDR_BASE +
  addr`` (``heap=None``: trace addresses are foreign to the managed
  heap, so the disentanglement checker and race detector — which reason
  about HLPL heap objects — do not apply);
* accesses that span cache blocks are split at block boundaries (the
  engine contract is one block per scalar op), preserving the byte
  footprint exactly;
* the run "result" is the trace checksum, recomputed per-thread inside
  the simulated tasks and combined order-independently, so engine and
  replay paths agree bit-for-bit and ``reference`` is trivially the
  host-side checksum.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bench.common import Benchmark
from repro.sim.ops import LoadOp, RmwOp, StoreOp
from repro.workloads.memtrace import K_LOAD, K_STORE, MemTrace, _MASK64

#: trace addresses live far above any sbrk'd heap page (base 0x1_0000);
#: offsetting by 4 GiB guarantees external addresses never alias runtime
#: allocations regardless of workload size.
TRACE_ADDR_BASE = 1 << 32


def _thread_body(trace: MemTrace, thread: int):
    """Build the ``(ctx) -> generator`` thunk replaying one trace thread."""

    ops = trace.by_thread()[thread]

    def body(ctx):
        block_size = ctx.rt.machine.config.block_size
        for kind, addr, size in ops:
            base = TRACE_ADDR_BASE + addr
            remaining = max(size, 1)
            offset = 0
            while remaining > 0:
                at = base + offset
                chunk = min(remaining, block_size - at % block_size)
                if kind == K_LOAD:
                    yield LoadOp(at, chunk, heap=None)
                elif kind == K_STORE:
                    yield StoreOp(at, chunk, heap=None)
                else:
                    yield RmwOp(at, chunk, heap=None)
                offset += chunk
                remaining -= chunk
        return trace.thread_checksum(thread)
        yield  # pragma: no cover - keeps zero-op bodies generators

    return body


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
