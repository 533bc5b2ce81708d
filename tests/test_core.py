"""Core timing model tests: blocking loads, store buffer, RMW fences."""

import pytest

from repro.common.config import dual_socket
from repro.sim.core import CoreModel


@pytest.fixture
def core():
    return CoreModel(dual_socket(), thread=0)


class TestLoads:
    def test_load_blocks_for_full_latency(self, core):
        core.load(200)
        assert core.clock == 200
        assert core.stats.loads == 1

    def test_load_stall_excludes_l1_hit_time(self, core):
        core.load(200)
        assert core.stats.load_stall_cycles == 200 - 6

    def test_l1_hit_has_no_stall(self, core):
        core.load(6)
        assert core.stats.load_stall_cycles == 0

    def test_spin_loads_counted(self, core):
        core.load(6, spin=True)
        core.load(6)
        assert core.stats.spin_loads == 1
        assert core.stats.loads == 2


class TestStoreBuffer:
    def test_store_issues_in_one_cycle(self, core):
        core.store(300)
        assert core.clock == 1  # latency hidden

    def test_buffer_fills_then_stalls(self, core):
        cap = core.config.store_buffer_entries
        for _ in range(cap):
            core.store(10_000)
        clock_full = core.clock
        assert clock_full == cap  # no stall yet
        core.store(10_000)  # must wait for the oldest to drain
        assert core.clock > clock_full + 1
        assert core.stats.store_buffer_stall_cycles > 0

    def test_drain_frees_slots(self, core):
        core.store(10)
        core.compute(100)  # store completes in the background
        cap = core.config.store_buffer_entries
        for _ in range(cap):
            core.store(5)
        # oldest entries drained during compute: no stall for a while
        assert core.stats.store_buffer_stall_cycles == 0

    def test_completions_are_monotonic(self, core):
        core.store(1000)
        core.store(1)  # completes AFTER the first (TSO ordering)
        assert list(core._store_buffer) == sorted(core._store_buffer)


class TestStoreBufferAccounting:
    def test_fill_stall_charges_exact_cycles(self, core):
        cap = core.config.store_buffer_entries
        for _ in range(cap):
            core.store(10_000)
        oldest = core._store_buffer[0]
        clock_before = core.clock
        core.store(10_000)
        # the stall is exactly the wait for the oldest entry to drain,
        # plus the usual 1-cycle issue
        assert core.stats.store_buffer_stall_cycles == oldest - clock_before
        assert core.clock == oldest + 1

    def test_depth_tracks_issue_and_drain(self, core):
        core.store(50)
        core.store(50)
        assert core.store_buffer_depth() == 2
        core.compute(200)  # clock passes both completions
        assert core.store_buffer_depth() == 0

    def test_load_time_drains_buffer_before_next_store(self, core):
        cap = core.config.store_buffer_entries
        for _ in range(cap):
            core.store(40)
        core.load(2000)  # blocking load: buffered stores complete meanwhile
        core.store(40)
        assert core.stats.store_buffer_stall_cycles == 0

    def test_drain_preserves_fifo_order(self, core):
        core.store(100)
        core.store(200)
        core.store(300)
        # TSO: later stores cannot complete before earlier ones
        completions = list(core._store_buffer)
        assert completions == sorted(completions)
        assert len(set(completions)) == 3
        core.compute(completions[0] - core.clock)
        # draining removes a prefix, never a middle entry
        core._drain_store_buffer()
        assert list(core._store_buffer) == completions[1:]


class TestRmw:
    def test_rmw_blocks_fully(self, core):
        core.rmw(500)
        assert core.clock == 500
        assert core.stats.rmws == 1

    def test_rmw_drains_store_buffer_first(self, core):
        core.store(1000)  # completes at ~1001
        core.rmw(10)
        # the fence waited for the pending store
        assert core.clock >= 1001 + 10
        assert core.stats.store_buffer_stall_cycles >= 999
        assert not core._store_buffer


class TestComputeAdvance:
    def test_compute_counts_instructions(self, core):
        core.compute(42)
        assert core.clock == 42
        assert core.stats.compute_instrs == 42

    def test_advance_does_not_count_instructions(self, core):
        core.advance(42)
        assert core.clock == 42
        assert core.stats.instructions == 0

    def test_instruction_totals(self, core):
        core.load(6)
        core.store(6)
        core.rmw(6)
        core.compute(10)
        assert core.stats.instructions == 13
