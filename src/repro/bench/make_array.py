"""``make_array`` — allocate and initialise an array, nothing else.

Pure tabulate: all writes, no cross-thread reads.  The paper singles this
benchmark out as one where WARDen's tracking/reconciliation overhead shows
with minimal benefit (§7.2) — we keep it write-only on purpose.
"""

from __future__ import annotations

from repro.bench.common import Benchmark


def build(rng, scale: int) -> int:
    return scale


def root_task(ctx, n: int):
    # Host-computable body: a source-less tabulate_gather ([ComputeOp(2),
    # Store] per element).
    arr = yield from ctx.tabulate_gather(
        n, (), lambda i: (i * 2654435761) & 0xFFFF,
        grain=64, name="made", instrs=2,
    )
    # Checksum computed host-side: the benchmark itself is the initialisation.
    return sum(arr.data) & 0xFFFFFFFF


def reference(n: int) -> int:
    return sum((i * 2654435761) & 0xFFFF for i in range(n)) & 0xFFFFFFFF


BENCHMARK = Benchmark(
    name="make_array",
    build=build,
    root_task=root_task,
    reference=reference,
    scales={"test": 256, "small": 2048, "default": 8192},
    description="array allocation + initialisation (write-only tabulate)",
)
