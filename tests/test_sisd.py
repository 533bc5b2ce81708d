"""SI/SD protocol tests: self-invalidation, self-downgrade, empty dirs.

The protocol never touches a remote cache: stores complete locally on any
cached copy, sync points (region removal) self-downgrade dirty lines and
self-invalidate every covered copy, and atomics execute at the home LLC.
The directory stays empty for the whole run.
"""

import pytest

from repro.common.types import AccessType, CoherenceState
from repro.sim.machine import Machine
from tests.conftest import tiny_config

LOAD = AccessType.LOAD
STORE = AccessType.STORE
RMW = AccessType.RMW
I = CoherenceState.INVALID
S = CoherenceState.SHARED
M = CoherenceState.MODIFIED
W = CoherenceState.WARD


@pytest.fixture
def m():
    return Machine(tiny_config(), "sisd")


def priv(machine, core, addr):
    return machine.protocol.private_block(core, addr)


class TestNoDirectoryState:
    def test_misses_create_no_directory_entries(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, LOAD)
        m.access(1, a, 8, STORE)
        m.access(2, a, 8, RMW)
        for directory in m.protocol.dirs:
            assert len(directory) == 0

    def test_load_miss_installs_shared(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, LOAD)
        assert priv(m, 0, a).state is S

    def test_store_miss_installs_modified(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, STORE)
        assert priv(m, 0, a).state is M

    def test_store_on_shared_copy_is_silent(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, LOAD)
        m.access(1, a, 8, LOAD)
        msgs0 = m.run_stats.coherence.total_messages
        m.access(0, a, 8, STORE)
        assert priv(m, 0, a).state is M
        assert priv(m, 1, a).state is S  # the other copy is untouched
        assert m.run_stats.coherence.total_messages == msgs0

    def test_concurrent_writers_never_invalidate_each_other(self, m):
        a = m.sbrk(64, 64)
        for core in range(4):
            m.access(core, a, 8, STORE)
        for core in range(4):
            assert priv(m, core, a).state is M
        assert m.run_stats.coherence.invalidations == 0
        assert m.run_stats.coherence.downgrades == 0
        m.protocol.check_invariants()


class TestSyncPoint:
    def test_region_copies_are_tagged_w(self, m):
        a = m.sbrk(64, 64)
        m.add_ward_region(0, a, a + 64)
        m.access(0, a, 8, STORE)
        assert priv(m, 0, a).state is W
        assert m.run_stats.coherence.ward_accesses >= 1

    def test_existing_copies_join_the_region(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, LOAD)
        assert priv(m, 0, a).state is S
        m.add_ward_region(0, a, a + 64)
        assert priv(m, 0, a).state is W

    def test_remove_self_downgrades_dirty_copies(self, m):
        a = m.sbrk(64, 64)
        region = m.add_ward_region(0, a, a + 64)
        m.access(0, a, 8, STORE)
        wb0 = m.run_stats.coherence.writebacks
        m.remove_ward_region(0, region)
        assert m.run_stats.coherence.writebacks == wb0 + 1
        assert m.run_stats.coherence.extra["self_downgrades"] == 1
        assert priv(m, 0, a) is None

    def test_remove_self_invalidates_clean_copies_without_writeback(self, m):
        a = m.sbrk(64, 64)
        region = m.add_ward_region(0, a, a + 64)
        m.access(0, a, 8, LOAD)
        wb0 = m.run_stats.coherence.writebacks
        m.remove_ward_region(0, region)
        assert m.run_stats.coherence.writebacks == wb0
        assert m.run_stats.coherence.extra["self_invalidations"] == 1
        assert priv(m, 0, a) is None

    def test_every_core_self_invalidates_at_sync(self, m):
        a = m.sbrk(64, 64)
        region = m.add_ward_region(0, a, a + 64)
        for core in range(4):
            m.access(core, a, 8, STORE)
        m.remove_ward_region(0, region)
        for core in range(4):
            assert priv(m, core, a) is None
        assert m.run_stats.coherence.extra["self_invalidations"] == 4
        m.protocol.check_invariants()

    def test_overlapping_region_keeps_copies_alive(self, m):
        a = m.sbrk(128, 64)
        wide = m.add_ward_region(0, a, a + 128)
        narrow = m.add_ward_region(0, a, a + 64)
        m.access(0, a, 8, STORE)
        m.remove_ward_region(0, narrow)
        assert priv(m, 0, a).state is W  # still covered by ``wide``
        m.remove_ward_region(0, wide)
        assert priv(m, 0, a) is None


class TestAtomics:
    def test_rmw_executes_at_home_and_caches_nothing(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, RMW)
        assert priv(m, 0, a) is None
        for directory in m.protocol.dirs:
            assert len(directory) == 0

    def test_rmw_flushes_own_dirty_copy_first(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, STORE)
        wb0 = m.run_stats.coherence.writebacks
        m.access(0, a, 8, RMW)
        assert m.run_stats.coherence.writebacks == wb0 + 1
        assert priv(m, 0, a) is None

    def test_rmw_leaves_other_copies_alone(self, m):
        a = m.sbrk(64, 64)
        m.access(1, a, 8, LOAD)
        m.access(0, a, 8, RMW)
        assert priv(m, 1, a).state is S
        assert m.run_stats.coherence.invalidations == 0


class TestEviction:
    def test_clean_eviction_is_silent(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, LOAD)
        msgs0 = m.run_stats.coherence.total_messages
        m.protocol._evict_private(0, priv(m, 0, a))
        assert m.run_stats.coherence.total_messages == msgs0

    def test_dirty_eviction_self_downgrades(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, STORE)
        wb0 = m.run_stats.coherence.writebacks
        m.protocol._evict_private(0, priv(m, 0, a))
        assert m.run_stats.coherence.writebacks == wb0 + 1
