"""Bit-identity of the epoch-batched engine vs per-op reference stepping.

The epoch fast path (the engine's default) must produce *exactly* the
statistics of per-op stepping, which a plain machine with ``per_op`` set
demands: same schedule, same cache/coherence counters, same cycles — see
the min-clock preservation argument in ``repro/sim/engine.py`` and
EXPERIMENTS.md.
"""

import pytest

from repro.analysis.run import _run_on, run_benchmark
from repro.bench import BENCHMARKS
from repro.coherence.registry import available_protocols
from repro.common.config import dual_socket
from repro.common.types import AccessType
from repro.hlpl.policy import MarkingPolicy
from repro.sim.machine import Machine
from repro.workloads import GOLDEN_SYNTH
from tests.conftest import tiny_config


@pytest.mark.parametrize("name", sorted(BENCHMARKS) + list(GOLDEN_SYNTH))
def test_epoch_batching_is_bit_identical(name):
    """Every workload/protocol pair: RunStats (including CoherenceStats)
    must match field-for-field between batched and per-op stepping.  The
    per-op reference is a plain machine with ``per_op`` set.  The
    synthetic workloads leave most workers idle, so they are where parked
    spinners are fast-forwarded most."""
    for protocol in available_protocols():
        batched = run_benchmark(
            name, protocol, dual_socket(), size="test",
            use_cache=False, use_disk_cache=False,
        )
        machine = Machine(dual_socket(), protocol)
        machine.per_op = True
        reference, _ = _run_on(machine, name, "test", 42, MarkingPolicy.FULL)
        assert batched.stats.to_dict() == reference.stats.to_dict(), (
            f"{name}/{protocol}: epoch-batched stats diverge from per-op"
        )
        assert batched.result == reference.result


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

    def test_per_op_machine_fast_path_declines_l1_hits(self):
        """A ``per_op`` machine's fast path sends even an L1 hit
        through ``Machine.access``; that is all that makes the engine's one
        run loop step per op."""
        machine = Machine(tiny_config(), "mesi")
        machine.per_op = True
        addr = machine.sbrk(64)
        machine.access(0, addr, 8, AccessType.LOAD)  # now in core 0's L1
        assert machine.protocol.try_fast_access(
            machine._core_of[0], addr, 8, AccessType.LOAD
        ) == machine.config.l1.latency
        fast = machine.fast_path(0)
        for atype in (AccessType.LOAD, AccessType.STORE):
            assert fast(machine._core_of[0], addr, 8, atype) is None

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
