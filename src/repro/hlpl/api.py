"""The user-facing HLPL API: fork-join and data-parallel combinators.

Benchmark code receives a :class:`TaskContext` and composes generators:

    def my_task(ctx, n):
        arr = yield from ctx.tabulate(n, lambda c, i: c.value(i * i))
        total = yield from ctx.reduce(0, n, lambda c, i: arr.get(i),
                                      lambda a, b: a + b)
        return total

Everything here is "standard library" in the paper's sense (§4.2): the
combinators use efficient in-place updates under the hood while guaranteeing
the memory discipline (disentanglement, and WARD for construct outputs) by
construction — the user never annotates anything.

The array combinators (:meth:`TaskContext.tabulate_gather`,
:meth:`~TaskContext.map_array`, :meth:`~TaskContext.reduce_array`,
:meth:`~TaskContext.filter_array`) run each grain-sized leaf as one loop that
yields every element's scalar ops in turn: the op stream of the per-element
generator body their docstrings name, without a generator per element.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.hlpl.arrays import SimArray, read_run
from repro.sim.ops import ComputeOp, ForkOp, LoadOp, StoreOp

DEFAULT_GRAIN = 16


class TaskContext:
    """Handle passed to every task body; bound to one spawn-tree node."""

    __slots__ = ("rt", "task")

    def __init__(self, rt, task) -> None:
        self.rt = rt
        self.task = task

    # ------------------------------------------------------------------
    # Fork-join
    # ------------------------------------------------------------------
    def par(self, *thunks: Callable):
        """Fork one child per thunk ``(ctx) -> generator``; join; return the
        list of child results."""
        if not thunks:
            return []
        if len(thunks) == 1:
            value = yield from thunks[0](self)
            return [value]
        results = yield ForkOp(self, thunks)
        return results

    def parallel_for(
        self,
        lo: int,
        hi: int,
        body: Callable,
        grain: int = DEFAULT_GRAIN,
    ):
        """Run ``body(ctx, i)`` for every ``i`` in ``[lo, hi)`` in parallel
        (recursive binary splitting down to ``grain`` iterations)."""
        n = hi - lo
        if n <= 0:
            return
        if n <= grain:
            for i in range(lo, hi):
                yield from body(self, i)
            return
        mid = lo + n // 2
        yield from self.par(
            lambda c: c.parallel_for(lo, mid, body, grain),
            lambda c: c.parallel_for(mid, hi, body, grain),
        )

    def parallel_for_chunks(
        self,
        lo: int,
        hi: int,
        chunk_body: Callable,
        grain: int = DEFAULT_GRAIN,
    ):
        """Like :meth:`parallel_for`, but each grain-sized leaf invokes
        ``chunk_body(ctx, leaf_lo, leaf_hi)`` once instead of ``body`` per
        index — the splitting (and therefore the fork tree) is identical,
        so a chunk body that loops over its indices yields the per-index
        loop's op stream."""
        n = hi - lo
        if n <= 0:
            return
        if n <= grain:
            yield from chunk_body(self, lo, hi)
            return
        mid = lo + n // 2
        yield from self.par(
            lambda c: c.parallel_for_chunks(lo, mid, chunk_body, grain),
            lambda c: c.parallel_for_chunks(mid, hi, chunk_body, grain),
        )

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc_array(
        self,
        length: int,
        elem_size: int = 8,
        fill: Any = None,
        name: str = "",
    ):
        """Allocate an array in this task's heap (fresh pages become WARD)."""
        nbytes = max(length, 1) * elem_size
        addr, cost = self.rt.heap_alloc(self.task, nbytes)
        yield ComputeOp(cost)
        return SimArray(
            addr, length, elem_size, heap=self.task.heap, fill=fill, name=name
        )

    # ------------------------------------------------------------------
    # Data-parallel constructs (WARD-by-construction on their outputs)
    # ------------------------------------------------------------------
    def tabulate(
        self,
        length: int,
        body: Callable,
        grain: int = DEFAULT_GRAIN,
        elem_size: int = 8,
        name: str = "tab",
    ):
        """Build a new array with ``out[i] = body(ctx, i)``.

        The output array is a WARD region for the duration of the construct:
        by construction each element is written exactly once and read by
        nobody until the construct returns.
        """
        arr = yield from self.alloc_array(length, elem_size, name=name)
        region = self.rt.construct_begin(arr)

        def write_body(c, i):
            value = yield from body(c, i)
            yield from arr.set(i, value)

        yield from self.parallel_for(0, length, write_body, grain)
        self.rt.construct_end(region)
        return arr

    def tabulate_gather(
        self,
        length: int,
        srcs,
        fn: Callable,
        grain: int = DEFAULT_GRAIN,
        elem_size: int = 8,
        name: str = "tab",
        instrs: int = 0,
        dense_lo: int = 0,
        dense_hi: int = None,
        edge_body: Callable = None,
    ):
        """:meth:`tabulate` for bodies that only read other arrays element-wise.

        ``out[i] = fn(i, *(s.data[i + off] for (s, off) in srcs))``; per
        element the simulated op stream is the loads of each source (in
        ``srcs`` order), ``ComputeOp(instrs)`` if ``instrs``, then the
        store — the stream of the per-element tabulate body, yielded by one
        loop per leaf.  ``srcs`` entries are ``SimArray`` or ``(SimArray,
        offset)`` pairs; with no sources, ``fn(i)`` is a host-computable
        body and each element is ``ComputeOp(instrs)`` (if any), then the
        store.  The leaf's values land in ``out`` after its last store.

        Indices outside ``[dense_lo, dense_hi)`` (where the per-element
        loads would read out of bounds, e.g. a stencil's rim) instead run
        ``edge_body(ctx, i)`` — the original generator body — followed by
        the element's store, preserving the boundary elements' exact ops.
        """
        arr = yield from self.alloc_array(length, elem_size, name=name)
        region = self.rt.construct_begin(arr)
        if dense_hi is None:
            dense_hi = length
        pairs = [s if isinstance(s, tuple) else (s, 0) for s in srcs]
        # One op instance per stream position, shared by every leaf: the
        # engine consumes an op before its producer resumes.
        loads = [
            (LoadOp(0, s.elem_size, heap=s.heap), s.addr(off), s.elem_size)
            for s, off in pairs
        ]
        compute = ComputeOp(instrs) if instrs else None
        store = StoreOp(0, arr.elem_size, heap=arr.heap)
        out_base, out_size = arr.base, arr.elem_size

        def chunk(c, lo, hi):
            for i in range(lo, min(hi, dense_lo)):
                value = yield from edge_body(c, i)
                yield from arr.set(i, value)
            dlo = max(lo, dense_lo)
            dhi = min(hi, dense_hi)
            for i in range(dlo, dhi):
                for op, base, size in loads:
                    op.addr = base + i * size
                    yield op
                if compute is not None:
                    yield compute
                store.addr = out_base + i * out_size
                yield store
            arr.data[dlo:dhi] = [
                fn(i, *(s.data[i + off] for s, off in pairs))
                for i in range(dlo, dhi)
            ]
            for i in range(max(lo, dense_hi), hi):
                value = yield from edge_body(c, i)
                yield from arr.set(i, value)

        yield from self.parallel_for_chunks(0, length, chunk, grain)
        self.rt.construct_end(region)
        return arr

    def map_array(
        self,
        src: SimArray,
        fn: Callable[[Any], Any],
        grain: int = DEFAULT_GRAIN,
        cost: int = 1,
        name: str = "map",
    ):
        """``out[i] = fn(src[i])`` with ``cost`` compute instrs per element.

        The op stream of a :meth:`tabulate` whose body loads ``src[i]``,
        computes ``cost`` instrs, and returns ``fn(value)``, yielded by
        :meth:`tabulate_gather`.
        """
        out = yield from self.tabulate_gather(
            len(src), [src], lambda i, value: fn(value),
            grain, src.elem_size, name, instrs=cost,
        )
        return out

    def reduce(
        self,
        lo: int,
        hi: int,
        leaf: Callable,
        combine: Callable[[Any, Any], Any],
        grain: int = DEFAULT_GRAIN,
    ):
        """Tree-reduce ``combine(leaf(ctx, lo), ..., leaf(ctx, hi-1))``.

        ``combine`` must be associative (the tree shape is unspecified).
        ``hi`` must exceed ``lo``.
        """
        n = hi - lo
        if n <= 0:
            raise ValueError("reduce needs a non-empty range")
        if n <= grain:
            acc = yield from leaf(self, lo)
            for i in range(lo + 1, hi):
                value = yield from leaf(self, i)
                yield ComputeOp(1)
                acc = combine(acc, value)
            return acc
        mid = lo + n // 2
        left, right = yield from self.par(
            lambda c: c.reduce(lo, mid, leaf, combine, grain),
            lambda c: c.reduce(mid, hi, leaf, combine, grain),
        )
        yield ComputeOp(1)
        return combine(left, right)

    def reduce_array(
        self,
        arr: SimArray,
        lo: int,
        hi: int,
        combine: Callable[[Any, Any], Any],
        grain: int = DEFAULT_GRAIN,
    ):
        """:meth:`reduce` over the elements of ``arr``.

        The op stream of ``reduce(lo, hi, lambda c, i: arr.get(i), combine,
        grain)``: leaves load their first element, then the remaining
        ``[Load, ComputeOp(1)]`` pairs through one :func:`read_run` loop,
        and fold host-side; the fork tree and internal combine ops match
        :meth:`reduce` exactly.
        """
        n = hi - lo
        if n <= 0:
            raise ValueError("reduce needs a non-empty range")
        if n <= grain:
            acc = yield from arr.get(lo)
            rest = yield from read_run(arr, lo + 1, hi, instrs=1)
            for value in rest:
                acc = combine(acc, value)
            return acc
        mid = lo + n // 2
        left, right = yield from self.par(
            lambda c: c.reduce_array(arr, lo, mid, combine, grain),
            lambda c: c.reduce_array(arr, mid, hi, combine, grain),
        )
        yield ComputeOp(1)
        return combine(left, right)

    def filter_array(
        self,
        src: SimArray,
        pred: Callable[[Any], bool],
        grain: int = DEFAULT_GRAIN,
        name: str = "filter",
    ):
        """PBBS-style pack: keep the elements of ``src`` satisfying ``pred``.

        Two phases: per-chunk counts (parallel), exclusive scan over chunk
        sums (sequential — the chunk count is tiny), then a parallel
        write-out into a fresh WARD output array.  A count leaf's stream is
        ``for i: src.get(i); yield ComputeOp(1)``, yielded by one
        :func:`read_run` loop.
        """
        n = len(src)
        if n == 0:
            out = yield from self.alloc_array(0, src.elem_size, name=name)
            return out
        nchunks = (n + grain - 1) // grain
        counts = yield from self.alloc_array(nchunks, name=f"{name}.counts")
        counts_region = self.rt.construct_begin(counts)

        def count_chunk(c, ci):
            # A [Load, ComputeOp(1)] pair per element through one read_run
            # loop, with the predicate evaluated host-side.
            lo = ci * grain
            hi = min(lo + grain, n)
            values = yield from read_run(src, lo, hi, instrs=1)
            kept = sum(1 for value in values if pred(value))
            yield from counts.set(ci, kept)

        yield from self.parallel_for(0, nchunks, count_chunk, grain=1)
        self.rt.construct_end(counts_region)

        # Exclusive scan over the (small) chunk counts, sequentially.
        offsets = yield from self.alloc_array(nchunks, name=f"{name}.offsets")
        total = 0
        for ci in range(nchunks):
            yield from offsets.set(ci, total)
            count = yield from counts.get(ci)
            yield ComputeOp(1)
            total += count

        out = yield from self.alloc_array(total, src.elem_size, name=name)
        out_region = self.rt.construct_begin(out)

        def pack_chunk(c, ci):
            lo = ci * grain
            hi = min(lo + grain, n)
            offset = yield from offsets.get(ci)
            for i in range(lo, hi):
                value = yield from src.get(i)
                yield ComputeOp(1)
                if pred(value):
                    yield from out.set(offset, value)
                    offset += 1

        yield from self.parallel_for(0, nchunks, pack_chunk, grain=1)
        self.rt.construct_end(out_region)
        return out

    # ------------------------------------------------------------------
    # Write-only phases (library-internal, backs primitives like inject)
    # ------------------------------------------------------------------
    def ward_begin(self, arr: SimArray):
        """Open a WARD phase over ``arr`` (the caller guarantees the phase
        only performs benign writes to ``arr`` — e.g. a sieve's constant
        stores).  Library primitives use this; user code never needs it."""
        return self.rt.construct_begin(arr)

    def ward_end(self, region) -> None:
        self.rt.construct_end(region)

    # ------------------------------------------------------------------
    def value(self, v: Any):
        """Lift a pure value into a (cost-free) generator — glue helper."""
        return v
        yield  # pragma: no cover - makes this a generator
