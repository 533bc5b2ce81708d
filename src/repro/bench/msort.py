"""``msort`` — functional parallel merge sort.

Allocation-heavy in the MPL style: every recursion level produces fresh
arrays in the task's own heap (all WARD while the leaf lives), and merges
read the children's freshly-merged heaps — the fork/join handoff pattern of
§5.3 end to end.
"""

from __future__ import annotations

import random
from typing import List

from repro.bench.common import Benchmark, input_array
from repro.hlpl.arrays import read_run, write_run
from repro.sim.ops import ComputeOp

SEQ_CUTOFF = 32
MERGE_CUTOFF = 48


def _seq_sort(ctx, src, lo, hi):
    """Sort src[lo:hi) into a fresh local array (sequential base case).

    The dense read and write loops are element runs, one generator each
    (the merge loops above the cutoff go element by element through
    ``get``/``set``: their order is data dependent).
    """
    n = hi - lo
    out = yield from ctx.alloc_array(n, name="leafsort")
    values = yield from read_run(src, lo, hi)
    values.sort()
    yield ComputeOp(2 * n)  # comparison work of the host-side sort
    yield from write_run(out, 0, values)
    return out


def _merge_range(ctx, left, llo, lhi, right, rlo, rhi, out, olo):
    """Parallel merge of left[llo:lhi) and right[rlo:rhi) into out[olo:)."""
    ln, rn = lhi - llo, rhi - rlo
    if ln + rn <= MERGE_CUTOFF:
        i, j, k = llo, rlo, olo
        a = (yield from left.get(i)) if i < lhi else None
        b = (yield from right.get(j)) if j < rhi else None
        while i < lhi or j < rhi:
            yield ComputeOp(1)
            if j >= rhi or (i < lhi and a <= b):
                yield from out.set(k, a)
                i += 1
                a = (yield from left.get(i)) if i < lhi else None
            else:
                yield from out.set(k, b)
                j += 1
                b = (yield from right.get(j)) if j < rhi else None
            k += 1
        return
    if ln < rn:
        left, llo, lhi, right, rlo, rhi = right, rlo, rhi, left, llo, lhi
        ln, rn = rn, ln
    lmid = (llo + lhi) // 2
    pivot = yield from left.get(lmid)
    rmid = yield from _binary_search_range(ctx, right, rlo, rhi, pivot)
    omid = olo + (lmid - llo) + (rmid - rlo)
    yield from out.set(omid, pivot)
    yield from ctx.par(
        lambda c: _merge_range(c, left, llo, lmid, right, rlo, rmid, out, olo),
        lambda c: _merge_range(
            c, left, lmid + 1, lhi, right, rmid, rhi, out, omid + 1
        ),
    )


def _binary_search_range(ctx, arr, lo, hi, value):
    while lo < hi:
        mid = (lo + hi) // 2
        probe = yield from arr.get(mid)
        yield ComputeOp(1)
        if probe < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def sort_task(ctx, src, lo, hi):
    """Return a new sorted array of src[lo:hi)."""
    n = hi - lo
    if n <= SEQ_CUTOFF:
        out = yield from _seq_sort(ctx, src, lo, hi)
        return out
    mid = (lo + hi) // 2
    left, right = yield from ctx.par(
        lambda c: sort_task(c, src, lo, mid),
        lambda c: sort_task(c, src, mid, hi),
    )
    out = yield from ctx.alloc_array(n, name="merged")
    region = ctx.rt.construct_begin(out)
    yield from _merge_range(
        ctx, left, 0, len(left), right, 0, len(right), out, 0
    )
    ctx.rt.construct_end(region)
    return out


def build(rng: random.Random, scale: int) -> List[int]:
    return [rng.randrange(1 << 16) for _ in range(scale)]


def root_task(ctx, values: List[int]):
    src = yield from input_array(ctx, values, name="input")
    out = yield from sort_task(ctx, src, 0, len(src))
    return out.to_list()


def reference(values: List[int]) -> List[int]:
    return sorted(values)


BENCHMARK = Benchmark(
    name="msort",
    build=build,
    root_task=root_task,
    reference=reference,
    scales={"test": 96, "small": 512, "default": 1536},
    description="functional parallel merge sort with parallel merges",
)
