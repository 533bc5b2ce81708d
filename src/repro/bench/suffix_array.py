"""``suffix-array`` — suffix array construction by prefix doubling.

Each round builds composite keys (rank pairs), sorts them with the parallel
merge sort, and scatters new dense ranks through a write-phase: repeated
sort/scatter rounds over shared arrays.
"""

from __future__ import annotations

import random
from typing import List

from repro.bench.common import Benchmark, input_array
from repro.bench.msort import sort_task
from repro.hlpl.arrays import read_run
from repro.sim.ops import ComputeOp


def suffix_array_task(ctx, chars, n: int):
    if n <= 1:
        yield ComputeOp(1)
        return list(range(n))
    rank = yield from ctx.tabulate_gather(
        n, [chars], lambda i, ch: ch, grain=32, name="rank0"
    )
    k = 1
    order = None
    while k < n:
        # key[i] = (rank[i], rank[i+k], i): [Load, Load, Compute, Store]
        # per element for i < n-k; the tail has no i+k neighbour and runs
        # tail_key's [Load, Compute] before its store instead.
        def tail_key(c, i):
            r1 = yield from rank.get(i)
            yield ComputeOp(1)
            return (r1, -1, i)

        keys = yield from ctx.tabulate_gather(
            n, [rank, (rank, k)],
            lambda i, r1, r2: (r1, r2, i),
            grain=32, name="keys", instrs=1, dense_hi=n - k,
            edge_body=tail_key,
        )
        order = yield from sort_task(ctx, keys, 0, n)

        # Dense re-ranking: sequential scan over the sorted keys (a
        # [Load, ComputeOp(1)] pair per key), then a parallel scatter of
        # the new ranks through a write-phase.
        keys_sorted = yield from read_run(order, 0, n, instrs=1)
        dense = []
        r = 0
        prev = None
        for key in keys_sorted:
            if prev is not None and (key[0], key[1]) != (prev[0], prev[1]):
                r += 1
            dense.append(r)
            prev = key

        newrank = yield from ctx.alloc_array(n, name="newrank")
        phase = ctx.ward_begin(newrank)

        def scatter(c, j):
            key = yield from order.get(j)
            yield from newrank.set(key[2], dense[j])

        yield from ctx.parallel_for(0, n, scatter, grain=32)
        ctx.ward_end(phase)
        rank = newrank
        if r == n - 1:
            break
        k *= 2

    final_keys = yield from read_run(order, 0, n)
    return [key[2] for key in final_keys]


def build(rng: random.Random, scale: int) -> str:
    return "".join(rng.choice("abab$") for _ in range(scale))


def root_task(ctx, text: str):
    n = len(text)
    chars = yield from input_array(ctx, [ord(ch) for ch in text], name="text")
    result = yield from suffix_array_task(ctx, chars, n)
    return result


def reference(text: str) -> List[int]:
    return sorted(range(len(text)), key=lambda i: text[i:])


BENCHMARK = Benchmark(
    name="suffix-array",
    build=build,
    root_task=root_task,
    reference=reference,
    scales={"test": 32, "small": 96, "default": 224},
    description="suffix array via prefix doubling (sort + scatter rounds)",
)
