"""WARDen protocol tests: the W state, region semantics, reconciliation."""

import pytest

from repro.common.types import AccessType, CoherenceState
from repro.sim.machine import Machine
from tests.conftest import tiny_config

LOAD = AccessType.LOAD
STORE = AccessType.STORE
RMW = AccessType.RMW
S = CoherenceState.SHARED
E = CoherenceState.EXCLUSIVE
M = CoherenceState.MODIFIED
I = CoherenceState.INVALID
W = CoherenceState.WARD


@pytest.fixture
def m():
    return Machine(tiny_config(), "warden")


def priv(machine, core, addr):
    return machine.protocol.private_block(core, addr)


def entry(machine, addr):
    return machine.protocol.dir_entry(addr)


def ward_block(m, nbytes=64):
    a = m.sbrk(nbytes, 64)
    region = m.add_ward_region(0, a, a + nbytes)
    assert region is not None
    return a, region


class TestWardEntry:
    def test_first_touch_in_region_enters_w(self, m):
        a, _ = ward_block(m)
        m.access(0, a, 8, STORE)
        assert priv(m, 0, a).state is W
        assert entry(m, a).state is W

    def test_read_in_region_gets_effectively_exclusive_copy(self, m):
        # §5.1: GetS on a WARD block returns an exclusive copy
        a, _ = ward_block(m)
        m.access(0, a, 8, LOAD)
        assert priv(m, 0, a).state is W
        assert priv(m, 0, a).state.grants_write

    def test_block_registered_with_region(self, m):
        a, region = ward_block(m)
        m.access(0, a, 8, STORE)
        assert a in region.blocks

    def test_sharing_event_transitions_existing_owner(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, STORE)  # plain MESI M
        region = m.add_ward_region(0, a, a + 64)
        m.access(1, a, 8, STORE)  # sharing event inside the region
        e = entry(m, a)
        assert e.state is W
        assert e.sharers == {0, 1}
        assert priv(m, 0, a).state is W  # absorbed, not invalidated
        assert m.run_stats.coherence.invalidations == 0
        m.remove_ward_region(0, region)

    def test_outside_region_unaffected(self, m):
        ward_block(m)
        b = m.sbrk(64, 64)
        m.access(0, b, 8, STORE)
        assert priv(m, 0, b).state is M  # plain MESI behaviour


class TestNoCoherenceInW:
    def test_concurrent_writers_no_invalidations(self, m):
        a, _ = ward_block(m)
        for core in range(4):
            m.access(core, a + 8 * core, 8, STORE)
        st = m.run_stats.coherence
        assert st.invalidations == 0
        assert st.downgrades == 0
        for core in range(4):
            assert priv(m, core, a).state is W

    def test_reader_does_not_downgrade_writer(self, m):
        a, _ = ward_block(m)
        m.access(0, a, 8, STORE)
        m.access(1, a + 8, 8, LOAD)
        assert m.run_stats.coherence.downgrades == 0
        assert priv(m, 0, a).state is W  # untouched

    def test_ward_accesses_counted(self, m):
        a, _ = ward_block(m)
        m.access(0, a, 8, STORE)
        m.access(0, a, 8, STORE)  # private W hit
        assert m.run_stats.coherence.ward_accesses == 2

    def test_upgrade_of_s_copy_in_region(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, LOAD)
        m.access(1, a, 8, LOAD)  # both S
        region = m.add_ward_region(0, a, a + 64)
        m.access(0, a, 8, STORE)  # upgrade approved without invalidations
        assert m.run_stats.coherence.invalidations == 0
        assert priv(m, 0, a).state is W
        assert priv(m, 1, a).state is S  # other copy left alone
        m.remove_ward_region(0, region)
        m.protocol.check_invariants()


class TestReconciliation:
    def test_no_sharing_single_writer_kept_shared(self, m):
        a, region = ward_block(m)
        m.access(0, a, 8, STORE)
        m.remove_ward_region(0, region)
        blk = priv(m, 0, a)
        assert blk is not None and blk.state is S  # retained, merged at LLC
        assert blk.written_mask == 0
        e = entry(m, a)
        assert e.state is S and e.sharers == {0}
        assert m.run_stats.coherence.reconciled_blocks == 1

    def test_false_sharing_stale_copies_invalidated(self, m):
        a, region = ward_block(m)
        m.access(0, a, 8, STORE)       # core 0 writes bytes 0-7
        m.access(1, a + 8, 8, STORE)   # core 1 writes bytes 8-15
        m.remove_ward_region(0, region)
        # neither copy saw the other's sectors: both must go
        assert priv(m, 0, a) is None
        assert priv(m, 1, a) is None
        assert entry(m, a).state is I
        st = m.run_stats.coherence
        assert st.reconciled_shared_blocks == 1
        assert st.reconciled_true_sharing_blocks == 0
        assert st.writebacks == 2

    def test_true_sharing_detected(self, m):
        a, region = ward_block(m)
        m.access(0, a, 8, STORE)
        m.access(1, a, 8, STORE)  # same sector: benign WAW
        m.remove_ward_region(0, region)
        st = m.run_stats.coherence
        assert st.reconciled_true_sharing_blocks == 1

    def test_true_sharing_full_writer_retained(self, m):
        a, region = ward_block(m)
        m.access(0, a, 8, STORE)
        m.access(1, a, 8, STORE)
        # core 1 wrote the full written-sector union: it stays, S
        m.remove_ward_region(0, region)
        assert priv(m, 1, a).state is S
        assert entry(m, a).sharers == {0, 1}  # core 0 also wrote the union

    def test_clean_readers_survive_reconciliation(self, m):
        a, region = ward_block(m)
        m.access(0, a, 8, LOAD)
        m.access(1, a, 8, LOAD)
        m.remove_ward_region(0, region)
        assert priv(m, 0, a).state is S
        assert priv(m, 1, a).state is S
        assert entry(m, a).state is S

    def test_reader_after_reconcile_hits_llc_without_forward(self, m):
        a, region = ward_block(m)
        m.access(0, a, 8, STORE)
        m.remove_ward_region(0, region)
        m.access(1, a, 8, LOAD)
        assert m.run_stats.coherence.downgrades == 0

    def test_overlapping_region_defers_reconcile(self, m):
        a = m.sbrk(64, 64)
        r1 = m.add_ward_region(0, a, a + 64)
        r2 = m.add_ward_region(0, a, a + 64)
        m.access(0, a, 8, STORE)
        m.remove_ward_region(0, r1)
        assert entry(m, a).state is W  # still covered by r2
        m.remove_ward_region(0, r2)
        assert entry(m, a).state is not W

    def test_remove_none_region_is_noop(self, m):
        m.remove_ward_region(0, None)


class TestEvictionDuringRegion:
    def test_ward_eviction_flushes_early(self, m):
        # §5.3: eviction before the region ends pre-pays reconciliation
        stride = m.protocol.l2[0].num_sets * 64
        ways = m.protocol.l2[0].assoc
        base = m.sbrk(stride * (ways + 2), 64)
        region = m.add_ward_region(0, base, base + stride * (ways + 2))
        for i in range(ways + 1):
            m.access(0, base + i * stride, 8, STORE)
        st = m.run_stats.coherence
        assert st.writebacks >= 1
        e = entry(m, base)
        assert 0 not in e.sharers  # dropped from the sharer list
        m.remove_ward_region(0, region)
        m.protocol.check_invariants()


class TestRegionCamLimits:
    def test_full_cam_falls_back_to_mesi(self):
        cfg = tiny_config().replace(max_ward_regions=1)
        m = Machine(cfg, "warden")
        a = m.sbrk(64, 64)
        b = m.sbrk(64, 64)
        r1 = m.add_ward_region(0, a, a + 64)
        assert r1 is not None
        r2 = m.add_ward_region(0, b, b + 64)
        assert r2 is None  # CAM full
        m.access(0, b, 8, STORE)
        m.access(1, b, 8, STORE)
        assert m.run_stats.coherence.invalidations == 1  # plain MESI


class TestLegacyEquivalence:
    def test_without_regions_warden_equals_mesi(self):
        """Legacy applications run unencumbered (§5.1): identical event
        counts and latencies when no region is ever registered."""
        import random

        rng = random.Random(7)
        cfgs = [Machine(tiny_config(), p) for p in ("mesi", "warden")]
        trace = [
            (
                rng.randrange(4),
                rng.randrange(64) * 64 + rng.randrange(8) * 8,
                rng.choice([LOAD, STORE, RMW]),
            )
            for _ in range(600)
        ]
        lats = [[], []]
        for i, machine in enumerate(cfgs):
            base = machine.sbrk(64 * 64, 64)
            for thread, off, atype in trace:
                lats[i].append(machine.access(thread, base + off, 8, atype))
        assert lats[0] == lats[1]
        a, b = (m.run_stats.coherence for m in cfgs)
        assert a.invalidations == b.invalidations
        assert a.downgrades == b.downgrades
        assert a.total_messages == b.total_messages
