"""``dedup`` — remove duplicate records (sort-based deduplication).

Sort, mark first occurrences, pack: reuses the msort kernel plus the
flag/pack combinators.  The paper finds dedup among the least accelerated
benchmarks (Fig. 8) — most of its time is the sort's compute.
"""

from __future__ import annotations

import random
from typing import List

from repro.bench.common import Benchmark, input_array
from repro.bench.msort import sort_task


def build(rng: random.Random, scale: int) -> List[int]:
    # ~4x duplication factor
    universe = max(scale // 4, 4)
    return [rng.randrange(universe) for _ in range(scale)]


def root_task(ctx, values: List[int]):
    src = yield from input_array(ctx, values, name="input")
    sorted_arr = yield from sort_task(ctx, src, 0, len(src))

    # out[i] = sorted[i] if it differs from its left neighbour: [Load(i),
    # Load(i-1), Compute, Store] per element; element 0 has no neighbour
    # and runs first_elem's [Load] before its store instead.
    def first_elem(c, i):
        value = yield from sorted_arr.get(i)
        return value

    marked = yield from ctx.tabulate_gather(
        len(sorted_arr), [sorted_arr, (sorted_arr, -1)],
        lambda i, value, prev: value if value != prev else -1,
        grain=32, name="marked", instrs=1, dense_lo=1, edge_body=first_elem,
    )
    unique = yield from ctx.filter_array(marked, lambda v: v >= 0, grain=32)
    return unique.to_list()


def reference(values: List[int]) -> List[int]:
    return sorted(set(values))


BENCHMARK = Benchmark(
    name="dedup",
    build=build,
    root_task=root_task,
    reference=reference,
    scales={"test": 80, "small": 400, "default": 1200},
    description="sort-based duplicate removal",
)
