"""``primes`` — the recursive prime sieve of the paper's Fig. 4.

The flags array carries benign write-write races: several threads mark the
same composite index, always storing the same value (False).  The marking
phase runs under a library write-phase (``ward_begin``/``ward_end``), the
runtime-internal mechanism behind inject-style primitives — exactly the
"flags is a WARD region" property of §3.3.
"""

from __future__ import annotations

import math

from repro.bench.common import Benchmark
from repro.sim.ops import ComputeOp, StoreOp


def sieve_task(ctx, n: int):
    """Return the flags array for primality up to ``n`` (paper Fig. 4)."""
    flags = yield from ctx.tabulate_gather(
        n + 1, (), lambda i: True, grain=64, elem_size=1, name="flags"
    )
    yield from flags.set(0, False)
    if n >= 1:
        yield from flags.set(1, False)
    if n >= 4:
        root = math.isqrt(n)
        sqrtflags = yield from sieve_task(ctx, root)
        phase = ctx.ward_begin(flags)
        compute = ComputeOp(1)
        store = StoreOp(0, flags.elem_size, heap=flags.heap)

        def mark_multiples(c, p):
            is_prime = yield from sqrtflags.get(p)
            if not is_prime:
                return
            # A [ComputeOp(1), Store(p*m)] pair per multiple m in [2, n//p],
            # from this one generator; the flags are cleared afterwards.
            stride = p * flags.elem_size
            for addr in range(flags.addr(2 * p), flags.addr(n + 1), stride):
                yield compute
                store.addr = addr
                yield store
            for m in range(2, n // p + 1):
                flags.data[p * m] = False

        yield from ctx.parallel_for(2, root + 1, mark_multiples, grain=1)
        ctx.ward_end(phase)
    return flags


def build(rng, scale: int) -> int:
    return scale


def root_task(ctx, n: int):
    flags = yield from sieve_task(ctx, n)
    count = yield from ctx.reduce_array(
        flags, 0, n + 1, lambda a, b: int(a) + int(b), grain=64
    )
    return count


def reference(n: int) -> int:
    flags = [True] * (n + 1)
    flags[0] = False
    if n >= 1:
        flags[1] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            for m in range(p * p, n + 1, p):
                flags[m] = False
    return sum(flags)


BENCHMARK = Benchmark(
    name="primes",
    build=build,
    root_task=root_task,
    reference=reference,
    scales={"test": 100, "small": 600, "default": 2000},
    description="recursive prime sieve with benign WAW races (Fig. 4)",
)
