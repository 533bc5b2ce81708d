"""Bit-identity of the epoch-batched engine vs per-op reference stepping.

The epoch fast path (the engine's default) must produce *exactly* the
statistics of per-op stepping, which a machine with ``record_per_op`` set
demands (the trace recorder's machine does): same schedule, same
cache/coherence counters, same cycles — see the min-clock preservation
argument in ``repro/sim/engine.py`` and EXPERIMENTS.md.
"""

import pytest

from repro.analysis.run import run_benchmark
from repro.bench import BENCHMARKS
from repro.coherence.registry import available_protocols
from repro.common.config import dual_socket
from repro.common.errors import SimulationError
from repro.common.types import AccessType
from repro.replay import record_benchmark
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.ops import (
    ComputeBatchOp,
    ComputeOp,
    GatherBatchOp,
    LoadBatchOp,
    LoadOp,
    StoreBatchOp,
    StoreOp,
)
from repro.workloads import GOLDEN_SYNTH
from tests.conftest import tiny_config


@pytest.mark.parametrize("name", sorted(BENCHMARKS) + list(GOLDEN_SYNTH))
def test_epoch_batching_is_bit_identical(name):
    """Every workload/protocol pair: RunStats (including CoherenceStats)
    must match field-for-field between batched and per-op stepping.  The
    per-op reference is the recorder's run.  The synthetic workloads leave
    most workers idle, so they are where parked spinners are
    fast-forwarded most."""
    for protocol in available_protocols():
        batched = run_benchmark(
            name, protocol, dual_socket(), size="test",
            use_cache=False, use_disk_cache=False,
        )
        _, reference = record_benchmark(
            name, protocol, dual_socket(), size="test",
        )
        assert batched.stats.to_dict() == reference.stats.to_dict(), (
            f"{name}/{protocol}: epoch-batched stats diverge from per-op"
        )
        assert batched.result == reference.result


# ----------------------------------------------------------------------
# Engine-level equivalence: batch ops vs the scalar streams they replace
# ----------------------------------------------------------------------
def _pinned_run(gen_factory):
    """Run one pinned strand; return (machine, engine, resume values)."""
    machine = Machine(tiny_config(), "mesi")
    engine = Engine(machine)
    seen = []
    engine.pin(0, gen_factory(machine, seen))
    engine.run()
    return machine, engine, seen


def _core_fingerprint(machine):
    core = machine.cores[0]
    s = core.stats
    return (
        core.clock,
        s.loads,
        s.stores,
        s.compute_instrs,
        s.load_stall_cycles,
        s.store_buffer_stall_cycles,
        machine.protocol.stats.total_accesses,
        machine.protocol.l1[0].hits,
        machine.protocol.l1[0].misses,
    )


class TestBatchOpEquivalence:
    def test_load_batch_matches_scalar_stream(self):
        def scalar(machine, seen):
            base = machine.sbrk(256)
            total = 0
            for i in range(8):
                total += yield LoadOp(base + 8 * i, 8)
                yield ComputeOp(3)
            seen.append(total)

        def batched(machine, seen):
            base = machine.sbrk(256)
            total = yield LoadBatchOp(base, 8, 8, 8, instrs=3)
            seen.append(total)

        m1, e1, s1 = _pinned_run(scalar)
        m2, e2, s2 = _pinned_run(batched)
        assert _core_fingerprint(m1) == _core_fingerprint(m2)
        assert e1.steps == e2.steps  # one step per element micro-op
        assert s1 == s2  # summed latency equals the scalar sum

    def test_store_batch_compute_first_matches_scalar_stream(self):
        def scalar(machine, seen):
            base = machine.sbrk(256)
            total = 0
            for i in range(6):
                yield ComputeOp(2)
                total += yield StoreOp(base + 8 * i, 8)
            seen.append(total)

        def batched(machine, seen):
            base = machine.sbrk(256)
            total = yield StoreBatchOp(
                base, 8, 6, 8, instrs=2, compute_first=True
            )
            seen.append(total)

        m1, e1, s1 = _pinned_run(scalar)
        m2, e2, s2 = _pinned_run(batched)
        assert _core_fingerprint(m1) == _core_fingerprint(m2)
        assert e1.steps == e2.steps
        assert s1 == s2

    def test_compute_batch_matches_scalar_stream(self):
        def scalar(machine, seen):
            for _ in range(10):
                yield ComputeOp(7)

        def batched(machine, seen):
            yield ComputeBatchOp(7, 10)

        m1, e1, _ = _pinned_run(scalar)
        m2, e2, _ = _pinned_run(batched)
        assert _core_fingerprint(m1) == _core_fingerprint(m2)
        assert e1.steps == e2.steps

    def test_gather_batch_matches_scalar_stream(self):
        # out[i] = f(src[i], src[i-1]): the dedup-style stencil pattern
        def scalar(machine, seen):
            src = machine.sbrk(256)
            out = machine.sbrk(256)
            total = 0
            for i in range(1, 8):
                total += yield LoadOp(src + 8 * i, 8)
                total += yield LoadOp(src + 8 * (i - 1), 8)
                yield ComputeOp(1)
                total += yield StoreOp(out + 8 * i, 8)
            seen.append(total)

        def batched(machine, seen):
            src = machine.sbrk(256)
            out = machine.sbrk(256)
            pattern = (
                (0, src, 8, 8, None),
                (0, src - 8, 8, 8, None),
                (2, 1, 0, 0, None),
                (1, out, 8, 8, None),
            )
            total = yield GatherBatchOp(1, 7, pattern)
            seen.append(total)

        m1, e1, s1 = _pinned_run(scalar)
        m2, e2, s2 = _pinned_run(batched)
        assert _core_fingerprint(m1) == _core_fingerprint(m2)
        assert e1.steps == e2.steps
        assert s1 == s2

    def test_batch_rejects_empty_count(self):
        def bad(machine, seen):
            yield LoadBatchOp(machine.sbrk(64), 8, 0, 8)

        with pytest.raises(SimulationError):
            _pinned_run(bad)

    def test_max_steps_counts_batch_elements(self):
        machine = Machine(tiny_config(), "mesi")
        engine = Engine(machine)
        engine.max_steps = 5

        def kern():
            yield ComputeBatchOp(1, 100)

        engine.pin(0, kern())
        with pytest.raises(SimulationError):
            engine.run()
        assert engine.steps == 6  # the guard fired on step max_steps + 1

    def test_access_hook_sees_every_element(self):
        machine = Machine(tiny_config(), "mesi")
        engine = Engine(machine)
        seen = []
        engine.access_hook = lambda w, op, atype: seen.append(
            (op.addr, atype)
        )
        base = machine.sbrk(256)

        def kern():
            yield LoadBatchOp(base, 8, 4, 8)

        engine.pin(0, kern())
        engine.run()
        assert seen == [(base + 8 * i, AccessType.LOAD) for i in range(4)]


class TestTryFastAccess:
    def test_none_on_cold_miss_has_no_side_effects(self):
        machine = Machine(tiny_config(), "mesi")
        proto = machine.protocol
        addr = machine.sbrk(64)
        before = (
            proto.stats.total_accesses,
            proto.l1[0].hits,
            proto.l1[0].misses,
            proto.l2[0].hits,
            proto.l2[0].misses,
        )
        assert proto.try_fast_access(0, addr, 8, AccessType.LOAD) is None
        after = (
            proto.stats.total_accesses,
            proto.l1[0].hits,
            proto.l1[0].misses,
            proto.l2[0].hits,
            proto.l2[0].misses,
        )
        assert before == after

    def test_rmw_always_declines(self):
        machine = Machine(tiny_config(), "mesi")
        addr = machine.sbrk(64)
        machine.access(0, addr, 8, AccessType.STORE)  # M in private cache
        assert (
            machine.protocol.try_fast_access(0, addr, 8, AccessType.RMW)
            is None
        )

    def test_private_hit_matches_access_latency_and_counters(self):
        m1 = Machine(tiny_config(), "mesi")
        m2 = Machine(tiny_config(), "mesi")
        a1 = m1.sbrk(64)
        a2 = m2.sbrk(64)
        m1.access(0, a1, 8, AccessType.LOAD)  # warm both
        m2.access(0, a2, 8, AccessType.LOAD)
        fast = m1.protocol.try_fast_access(0, a1, 8, AccessType.LOAD)
        slow = m2.protocol.access(0, a2, 8, AccessType.LOAD)
        assert fast == slow
        assert m1.protocol.l1[0].hits == m2.protocol.l1[0].hits
        assert (
            m1.protocol.stats.total_accesses
            == m2.protocol.stats.total_accesses
        )

    def test_shared_store_declines(self):
        machine = Machine(tiny_config(), "mesi")
        addr = machine.sbrk(64)
        machine.access(0, addr, 8, AccessType.LOAD)
        machine.access(1, addr, 8, AccessType.LOAD)  # now S in both
        block = machine.protocol.private_block(
            machine._core_of[0], addr - addr % machine.config.block_size
        )
        assert block is not None
        assert (
            machine.protocol.try_fast_access(
                machine._core_of[0], addr, 8, AccessType.STORE
            )
            is None
        )
