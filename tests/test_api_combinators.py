"""HLPL combinator tests: par, parallel_for, tabulate, reduce, filter, and
the leaf loops of the array combinators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hlpl import api
from repro.hlpl.arrays import SimArray, read_run, write_run
from repro.hlpl.runtime import Runtime
from repro.sim.machine import Machine
from repro.sim.ops import ComputeOp
from tests.conftest import tiny_config


def run(root_fn, *args, protocol="mesi", **kwargs):
    machine = Machine(tiny_config(), protocol)
    rt = Runtime(machine)
    result, stats = rt.run(root_fn, *args, **kwargs)
    machine.protocol.check_invariants()
    return result, stats


class TestPar:
    def test_two_way(self):
        def leaf(value):
            def body(ctx):
                yield ComputeOp(1)
                return value
            return body

        def root(ctx):
            results = yield from ctx.par(leaf(1), leaf(2))
            return results

        result, _ = run(root)
        assert result == [1, 2]

    def test_results_in_thunk_order(self):
        def root(ctx):
            results = yield from ctx.par(
                *[(lambda k: lambda c: c.value(k))(k) for k in range(6)]
            )
            return results

        result, _ = run(root)
        assert result == list(range(6))

    def test_single_thunk_runs_inline(self):
        def root(ctx):
            results = yield from ctx.par(lambda c: c.value(9))
            return results

        result, stats = run(root)
        assert result == [9]

    def test_empty_par(self):
        def root(ctx):
            results = yield from ctx.par()
            return results
            yield  # pragma: no cover

        result, _ = run(root)
        assert result == []

    def test_nested_forks(self):
        def fib(ctx, n):
            if n < 2:
                yield ComputeOp(1)
                return n
            a, b = yield from ctx.par(
                lambda c: fib(c, n - 1), lambda c: fib(c, n - 2)
            )
            return a + b

        result, _ = run(fib, 10)
        assert result == 55


class TestParallelFor:
    def test_covers_every_index(self):
        def root(ctx):
            arr = yield from ctx.alloc_array(40, fill=0)
            def body(c, i):
                yield from arr.set(i, i * 2)
            yield from ctx.parallel_for(0, 40, body, grain=4)
            return arr.to_list()

        result, _ = run(root)
        assert result == [i * 2 for i in range(40)]

    def test_empty_range(self):
        def root(ctx):
            yield from ctx.parallel_for(5, 5, None, grain=4)
            return "ok"

        assert run(root)[0] == "ok"

    def test_grain_bounds_sequential_chunk(self):
        calls = []

        def root(ctx):
            def body(c, i):
                calls.append(i)
                yield ComputeOp(1)
            yield from ctx.parallel_for(0, 10, body, grain=100)
            return None

        run(root)
        assert calls == list(range(10))  # one sequential chunk, in order


class TestTabulateMap:
    def test_tabulate_values(self):
        def root(ctx):
            arr = yield from ctx.tabulate(32, lambda c, i: c.value(i * i), grain=4)
            return arr.to_list()

        result, _ = run(root)
        assert result == [i * i for i in range(32)]

    def test_map_array(self):
        def root(ctx):
            src = yield from ctx.tabulate(16, lambda c, i: c.value(i), grain=4)
            out = yield from ctx.map_array(src, lambda v: v + 100, grain=4)
            return out.to_list()

        result, _ = run(root)
        assert result == [i + 100 for i in range(16)]

    def test_tabulate_zero_length(self):
        def root(ctx):
            arr = yield from ctx.tabulate(0, lambda c, i: c.value(i))
            return arr.to_list()

        assert run(root)[0] == []

    def test_tabulate_marks_construct_region_under_warden(self):
        def root(ctx):
            arr = yield from ctx.tabulate(64, lambda c, i: c.value(1), grain=8)
            return len(arr)

        _, stats = run(root, protocol="warden")
        assert stats.coherence.ward_region_adds > 0
        assert stats.coherence.ward_region_removes == stats.coherence.ward_region_adds


class TestReduce:
    def test_sum(self):
        def root(ctx):
            arr = yield from ctx.tabulate(50, lambda c, i: c.value(i), grain=8)
            total = yield from ctx.reduce(
                0, 50, lambda c, i: arr.get(i), lambda a, b: a + b, grain=8
            )
            return total

        assert run(root)[0] == sum(range(50))

    def test_max(self):
        def root(ctx):
            arr = yield from ctx.tabulate(
                20, lambda c, i: c.value((i * 7) % 13), grain=4
            )
            best = yield from ctx.reduce(
                0, 20, lambda c, i: arr.get(i), max, grain=4
            )
            return best

        assert run(root)[0] == max((i * 7) % 13 for i in range(20))

    def test_empty_range_rejected(self):
        def root(ctx):
            yield from ctx.reduce(0, 0, None, None)

        with pytest.raises(ValueError):
            run(root)


class TestFilter:
    def test_keeps_order(self):
        def root(ctx):
            src = yield from ctx.tabulate(30, lambda c, i: c.value(i), grain=4)
            out = yield from ctx.filter_array(src, lambda v: v % 3 == 0, grain=4)
            return out.to_list()

        assert run(root)[0] == [i for i in range(30) if i % 3 == 0]

    def test_empty_source(self):
        def root(ctx):
            src = yield from ctx.alloc_array(0)
            out = yield from ctx.filter_array(src, lambda v: True)
            return out.to_list()

        assert run(root)[0] == []

    def test_nothing_passes(self):
        def root(ctx):
            src = yield from ctx.tabulate(10, lambda c, i: c.value(i), grain=4)
            out = yield from ctx.filter_array(src, lambda v: False, grain=4)
            return out.to_list()

        assert run(root)[0] == []


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(st.integers(-50, 50), min_size=1, max_size=60),
    grain=st.integers(1, 16),
)
def test_reduce_matches_python_sum(values, grain):
    def root(ctx):
        src = yield from ctx.tabulate(
            len(values), lambda c, i: c.value(values[i]), grain=grain
        )
        total = yield from ctx.reduce(
            0, len(values), lambda c, i: src.get(i), lambda a, b: a + b,
            grain=grain,
        )
        return total

    result, _ = run(root)
    assert result == sum(values)


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(st.integers(0, 100), min_size=0, max_size=60),
    grain=st.integers(1, 16),
    threshold=st.integers(0, 100),
)
def test_filter_matches_python_filter(values, grain, threshold):
    def root(ctx):
        src = yield from ctx.alloc_array(len(values))
        src.data[:] = values
        out = yield from ctx.filter_array(src, lambda v: v >= threshold, grain=grain)
        return out.to_list()

    result, _ = run(root, protocol="warden")
    assert result == [v for v in values if v >= threshold]


# ----------------------------------------------------------------------
# Leaf loops: each array combinator yields the op stream of the
# per-element loop its docstring names, one generator per leaf.
# ----------------------------------------------------------------------
N = 37  # not a multiple of GRAIN: the last leaf is short
GRAIN = 8


def _per_element_read(arr, lo, hi, instrs=0):
    """The loop ``read_run`` stands for: ``arr.get(i)``, then the compute."""
    values = []
    for i in range(lo, hi):
        value = yield from arr.get(i)
        if instrs:
            yield ComputeOp(instrs)
        values.append(value)
    return values


def _per_element_write(arr, lo, values, instrs=0):
    """The loop ``write_run`` stands for: the compute, then ``arr.set``."""
    for k, value in enumerate(values):
        if instrs:
            yield ComputeOp(instrs)
        yield from arr.set(lo + k, value)


def _computed(instrs, value):
    yield ComputeOp(instrs)
    return value


def _edge(a):
    def edge_body(c, i):
        value = yield from a.get(i)
        yield ComputeOp(3)
        return -value
    return edge_body


def _mapped(c, a, i):
    value = yield from a.get(i)
    yield ComputeOp(2)
    return value * value


def _two_sources(c, a, b, i):
    """Per-element body of the stencil case: edges outside [1, N-1)."""
    if not 1 <= i < N - 1:
        return (yield from _edge(a)(c, i))
    x = yield from a.get(i + 1)
    y = yield from b.get(i - 1)
    yield ComputeOp(1)
    return x - y


LEAF_LOOP_CASES = {
    "tabulate_gather-no-sources": (
        lambda ctx, a, b: ctx.tabulate_gather(
            N, (), lambda i: 3 * i, grain=GRAIN
        ),
        lambda ctx, a, b: ctx.tabulate(
            N, lambda c, i: c.value(3 * i), grain=GRAIN
        ),
    ),
    "tabulate_gather-no-sources-instrs": (
        lambda ctx, a, b: ctx.tabulate_gather(
            N, (), lambda i: 3 * i, grain=GRAIN, instrs=2
        ),
        lambda ctx, a, b: ctx.tabulate(
            N, lambda c, i: _computed(2, 3 * i), grain=GRAIN
        ),
    ),
    "tabulate_gather-two-sources-edges": (
        lambda ctx, a, b: ctx.tabulate_gather(
            N, [(a, 1), (b, -1)], lambda i, x, y: x - y, grain=GRAIN,
            instrs=1, dense_lo=1, dense_hi=N - 1, edge_body=_edge(a),
        ),
        lambda ctx, a, b: ctx.tabulate(
            N, lambda c, i: _two_sources(c, a, b, i), grain=GRAIN
        ),
    ),
    "map_array": (
        lambda ctx, a, b: ctx.map_array(a, lambda v: v * v, GRAIN, cost=2),
        lambda ctx, a, b: ctx.tabulate(
            N, lambda c, i: _mapped(c, a, i), grain=GRAIN
        ),
    ),
    "reduce_array": (
        lambda ctx, a, b: ctx.reduce_array(a, 2, N, max, grain=GRAIN),
        lambda ctx, a, b: ctx.reduce(
            2, N, lambda c, i: a.get(i), max, grain=GRAIN
        ),
    ),
    "filter_array": (
        lambda ctx, a, b: ctx.filter_array(a, lambda v: v % 3 == 0, GRAIN),
        # the same call: the per-element side swaps api.read_run
        lambda ctx, a, b: ctx.filter_array(a, lambda v: v % 3 == 0, GRAIN),
    ),
    "read_run": (
        lambda ctx, a, b: read_run(a, 3, N - 2, instrs=1),
        lambda ctx, a, b: _per_element_read(a, 3, N - 2, instrs=1),
    ),
    "write_run": (
        lambda ctx, a, b: write_run(b, 2, range(20), instrs=2),
        lambda ctx, a, b: _per_element_write(b, 2, range(20), instrs=2),
    ),
}


def _traced_run(case):
    """Run ``case`` on two seeded input arrays; return everything it did."""

    def root(ctx):
        a = yield from ctx.alloc_array(N, name="a")
        b = yield from ctx.alloc_array(N, name="b")
        a.data[:] = [(7 * i) % 11 for i in range(N)]
        b.data[:] = list(range(N))
        out = yield from case(ctx, a, b)
        if isinstance(out, SimArray):
            out = out.to_list()
        return out, a.to_list(), b.to_list()

    machine = Machine(tiny_config(), "warden")
    rt = Runtime(machine, seed=7)
    check = rt.engine.access_hook
    accesses = []
    heaps = {None: None}  # heap object -> order of first appearance

    def hook(worker, op, atype):
        heap = heaps.setdefault(op.heap, len(heaps) - 1)
        # the issuing clock pins where each compute charge sits
        clock = machine.cores[worker.thread].clock
        accesses.append((worker.thread, clock, atype, op.addr, op.size, heap))
        check(worker, op, atype)

    rt.engine.access_hook = hook
    result, stats = rt.run(root)
    return result, stats.to_dict(), rt.engine.steps, accesses


@pytest.mark.parametrize("name", list(LEAF_LOOP_CASES))
def test_leaf_loop_matches_per_element_loop(name, monkeypatch):
    combinator, per_element = LEAF_LOOP_CASES[name]
    got = _traced_run(combinator)
    # filter_array's count leaf is a read_run; only that case calls it here
    monkeypatch.setattr(api, "read_run", _per_element_read)
    want = _traced_run(per_element)
    assert got[0] == want[0]  # results
    assert got[1] == want[1]  # RunStats.to_dict()
    assert got[2] == want[2]  # engine steps: one per yielded op
    # (thread, clock, atype, addr, size, heap) per access
    assert got[3] == want[3]
    assert got[3]
