"""MOESI protocol tests: the O state — dirty sharing without writebacks.

The O(wned) state lets a modified line be shared directly cache-to-cache:
the writer keeps the dirty data (M -> O) and sources it to readers, so a
read of a hot modified line costs neither an invalidation nor a memory
writeback.  Writebacks happen only when the owner finally evicts.
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
O = CoherenceState.OWNED
E = CoherenceState.EXCLUSIVE
M = CoherenceState.MODIFIED


@pytest.fixture
def m():
    return Machine(tiny_config(), "moesi")


def priv(machine, core, addr):
    return machine.protocol.private_block(core, addr)


def entry(machine, addr):
    return machine.protocol.dir_entry(addr)


def dirty_line(machine, addr=None, core=0):
    """Put one block in M on ``core`` (store on an uncached address)."""
    if addr is None:
        addr = machine.sbrk(64, 64)
    machine.access(core, addr, 8, STORE)
    assert priv(machine, core, addr).state is M
    return addr


class TestOwnedEntry:
    def test_read_of_modified_line_enters_owned(self, m):
        a = dirty_line(m, core=0)
        m.access(1, a, 8, LOAD)
        assert priv(m, 0, a).state is O
        assert priv(m, 1, a).state is S
        e = entry(m, a)
        assert e.state is O
        assert e.owner == 0 and e.sharers == {1}
        m.protocol.check_invariants()

    def test_dirty_share_costs_no_writeback(self, m):
        a = dirty_line(m, core=0)
        wb0 = m.run_stats.coherence.writebacks
        m.access(1, a, 8, LOAD)
        assert m.run_stats.coherence.writebacks == wb0
        assert m.run_stats.coherence.extra["dirty_shares"] == 1

    def test_owner_keeps_written_mask_through_downgrade(self, m):
        a = dirty_line(m, core=0)
        mask = priv(m, 0, a).written_mask
        assert mask
        m.access(1, a, 8, LOAD)
        assert priv(m, 0, a).written_mask == mask

    def test_further_readers_source_from_owner(self, m):
        a = dirty_line(m, core=0)
        for core in (1, 2, 3):
            m.access(core, a, 8, LOAD)
            assert priv(m, core, a).state is S
        e = entry(m, a)
        assert e.state is O and e.owner == 0
        assert e.sharers == {1, 2, 3}
        m.protocol.check_invariants()

    def test_under_mesi_the_same_pattern_writes_back(self):
        # The contrast MOESI exists for: MESI downgrades M -> S with a
        # writeback, MOESI keeps the line dirty in the owner's cache.
        mesi, moesi = (
            Machine(tiny_config(), p) for p in ("mesi", "moesi")
        )
        for mm in (mesi, moesi):
            a = dirty_line(mm, core=0)
            mm.access(1, a, 8, LOAD)
        assert mesi.run_stats.coherence.writebacks == 1
        assert moesi.run_stats.coherence.writebacks == 0


class TestOwnedStores:
    def test_owner_store_upgrades_back_to_m(self, m):
        a = dirty_line(m, core=0)
        m.access(1, a, 8, LOAD)
        inv0 = m.run_stats.coherence.invalidations
        m.access(0, a, 8, STORE)
        assert priv(m, 0, a).state is M
        assert priv(m, 1, a) is None or priv(m, 1, a).state is I
        e = entry(m, a)
        assert e.state is M and e.owner == 0 and not e.sharers
        assert m.run_stats.coherence.invalidations == inv0 + 1
        m.protocol.check_invariants()

    def test_sharer_store_takes_dirty_data_from_owner(self, m):
        a = dirty_line(m, core=0)
        m.access(1, a, 8, LOAD)
        m.access(1, a, 8, STORE)  # sharer upgrades: owner must die dirty-free
        assert priv(m, 1, a).state is M
        assert priv(m, 0, a) is None or priv(m, 0, a).state is I
        e = entry(m, a)
        assert e.state is M and e.owner == 1
        m.protocol.check_invariants()

    def test_third_party_store_invalidates_owner_and_sharers(self, m):
        a = dirty_line(m, core=0)
        m.access(1, a, 8, LOAD)
        m.access(2, a, 8, STORE)
        assert priv(m, 2, a).state is M
        for core in (0, 1):
            assert priv(m, core, a) is None or priv(m, core, a).state is I
        e = entry(m, a)
        assert e.state is M and e.owner == 2 and not e.sharers
        m.protocol.check_invariants()

    def test_rmw_on_owned_line_serializes_like_a_store(self, m):
        a = dirty_line(m, core=0)
        m.access(1, a, 8, LOAD)
        m.access(1, a, 8, RMW)
        e = entry(m, a)
        assert e.state is M and e.owner == 1
        m.protocol.check_invariants()


class TestOwnedEviction:
    def test_owner_eviction_finally_writes_back(self, m):
        a = dirty_line(m, core=0)
        m.access(1, a, 8, LOAD)
        wb0 = m.run_stats.coherence.writebacks
        m.protocol._evict_private(0, priv(m, 0, a))
        assert m.run_stats.coherence.writebacks == wb0 + 1
        e = entry(m, a)
        assert e.state is S and e.owner is None and e.sharers == {1}
        m.protocol.check_invariants()

    def test_owner_eviction_with_no_sharers_goes_invalid(self, m):
        a = dirty_line(m, core=0)
        m.access(1, a, 8, LOAD)
        m.protocol._evict_private(1, priv(m, 1, a))  # sharer leaves first
        m.protocol._evict_private(0, priv(m, 0, a))
        assert entry(m, a).state is I
        m.protocol.check_invariants()

    def test_sharer_eviction_keeps_owner_entry(self, m):
        a = dirty_line(m, core=0)
        m.access(1, a, 8, LOAD)
        m.protocol._evict_private(1, priv(m, 1, a))
        e = entry(m, a)
        assert e.state is O and e.owner == 0 and not e.sharers
        assert priv(m, 0, a).state is O
        m.protocol.check_invariants()


class TestPlainMESIBehaviourPreserved:
    def test_private_lines_still_use_e_and_m(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, LOAD)
        assert priv(m, 0, a).state is E
        m.access(0, a, 8, STORE)  # silent E -> M
        assert priv(m, 0, a).state is M
        assert entry(m, a).state is E  # silent upgrade: dir still E

    def test_clean_sharing_never_creates_owned(self, m):
        a = m.sbrk(64, 64)
        m.access(0, a, 8, LOAD)
        m.access(1, a, 8, LOAD)
        e = entry(m, a)
        assert e.state is S and e.owner is None
        assert not m.run_stats.coherence.extra.get("dirty_shares")

    def test_silently_upgraded_line_stays_on_mesi_path(self, m):
        # Private M behind a directory-E entry: a remote load must take
        # MESI's forward path (writeback + S), not manufacture an O entry
        # the directory never granted.
        a = m.sbrk(64, 64)
        m.access(0, a, 8, LOAD)
        m.access(0, a, 8, STORE)
        assert entry(m, a).state is E and priv(m, 0, a).state is M
        wb0 = m.run_stats.coherence.writebacks
        m.access(1, a, 8, LOAD)
        assert m.run_stats.coherence.writebacks == wb0 + 1
        assert entry(m, a).state is S
        assert priv(m, 0, a).state is S
        m.protocol.check_invariants()


class TestLostOwnerCopy:
    """A directory owner without a private copy is a protocol error, at
    each place that forwards to the owner: MESI's forward, MOESI's dirty
    read-forward (M -> O) and MOESI's O entry."""

    @pytest.mark.parametrize("protocol, readers", [
        ("mesi", 0), ("moesi", 0), ("moesi", 1),
    ], ids=["mesi-forward", "moesi-dirty-forward", "moesi-owned-entry"])
    def test_lost_owner_copy_raises(self, protocol, readers):
        from repro.common.errors import ProtocolError

        machine = Machine(tiny_config(), protocol)
        a = dirty_line(machine, core=0)
        for core in range(1, 1 + readers):
            machine.access(core, a, 8, LOAD)  # M -> O under MOESI
        machine.protocol.l2[0].invalidate(a)
        machine.protocol.l1[0].invalidate(a)
        with pytest.raises(ProtocolError, match="no private copy exists"):
            machine.access(3, a, 8, LOAD)
