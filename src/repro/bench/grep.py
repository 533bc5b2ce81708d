"""``grep`` — find every occurrence of a pattern in a text.

Read-shared input text, per-position match flags written by many tasks,
then a pack (filter) of the matching positions: text processing with a
read-mostly sharing pattern.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.bench.common import Benchmark, input_array
from repro.sim.ops import ComputeOp

ALPHABET = "abcd"
PATTERN = "abca"


def build(rng: random.Random, scale: int) -> Dict:
    text = "".join(rng.choice(ALPHABET) for _ in range(scale))
    return {"text": text, "pattern": PATTERN}


def root_task(ctx, workload):
    text = workload["text"]
    pattern = workload["pattern"]
    n, m = len(text), len(pattern)
    chars = yield from input_array(ctx, [ord(ch) for ch in text], name="text")
    pat = yield from input_array(ctx, [ord(ch) for ch in pattern], name="pattern")

    def match_at(c, i):
        for j in range(m):
            tc = yield from chars.get(i + j)
            pc = yield from pat.get(j)
            yield ComputeOp(1)
            if tc != pc:
                return 0
        return 1

    flags = yield from ctx.tabulate(max(n - m + 1, 0), match_at, grain=32, name="hits")
    positions = yield from ctx.tabulate_gather(
        len(flags), (), lambda i: i, grain=64, name="idx"
    )

    # Pack the matching positions (filter over index/flag pairs): a
    # [Load(flag), Load(pos), Store] stream per element.
    marked = yield from ctx.tabulate_gather(
        len(flags), [flags, positions],
        lambda i, flag, pos: pos if flag else -1,
        grain=32, name="marked",
    )
    matches = yield from ctx.filter_array(marked, lambda v: v >= 0, grain=32)
    return matches.to_list()


def reference(workload) -> List[int]:
    text, pattern = workload["text"], workload["pattern"]
    out = []
    start = 0
    while True:
        idx = text.find(pattern, start)
        if idx < 0:
            return out
        out.append(idx)
        start = idx + 1


BENCHMARK = Benchmark(
    name="grep",
    build=build,
    root_task=root_task,
    reference=reference,
    scales={"test": 200, "small": 1200, "default": 4000},
    description="pattern search with pack of match positions",
)
