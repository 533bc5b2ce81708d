"""Directory-based MESI protocol (the paper's baseline, §5 / Fig. 5).

Structure of the modeled hierarchy (matching Table 2):

* per-core private L1 + L2 (inclusive; coherence state is held once per
  ``(core, block)`` on a :class:`CacheBlock` shared by both tag arrays),
* one shared LLC slice + full-map directory per socket, home-interleaved
  by block address,
* DRAM behind each LLC slice.

The public entry point is :meth:`MESIProtocol.access`, which performs the
full coherence transaction for one load/store/RMW and returns its latency in
cycles.  Stores are issued eagerly (TSO store buffer timing is applied by the
core model, not here).
"""

from __future__ import annotations

import weakref
from typing import List, Optional

from repro.common.config import CacheConfig, MachineConfig
from repro.common.errors import ProtocolError
from repro.common.stats import CoherenceStats
from repro.common.types import (
    AccessType,
    CoherenceState,
    MessageType,
    sector_mask,
)
from repro.coherence.directory import Directory, DirEntry
from repro.coherence.registry import coherence_protocol
from repro.coherence.spec import ProtocolSpec, Row, TransitionTable
from repro.mem.block import CacheBlock
from repro.mem.cache import SetAssocCache
from repro.mem.interconnect import Interconnect, LinkClass
from repro.obs.tracer import Tracer

I = CoherenceState.INVALID
S = CoherenceState.SHARED
E = CoherenceState.EXCLUSIVE
M = CoherenceState.MODIFIED
W = CoherenceState.WARD

# enum member access through the class is a descriptor call; the fast path
# runs hundreds of thousands of times, so bind the members once
_LOAD = AccessType.LOAD
_RMW = AccessType.RMW
_GET_S = MessageType.GET_S
_GET_M = MessageType.GET_M
_UPGRADE = MessageType.UPGRADE
_PUT_M = MessageType.PUT_M
_FWD_GET_S = MessageType.FWD_GET_S
_FWD_GET_M = MessageType.FWD_GET_M
_INV = MessageType.INV
_INV_ACK = MessageType.INV_ACK
_DATA = MessageType.DATA
_DATA_E = MessageType.DATA_E
_WB_DATA = MessageType.WB_DATA


def llc_config(config: MachineConfig) -> CacheConfig:
    """Geometry of one socket's shared LLC slice.

    Table 2 gives the L3 size *per core*; a socket's slice aggregates the
    per-core allocations.  Shared with the replay kernel so both sides
    derive the same slice geometry from one rule.
    """
    return CacheConfig(
        size_bytes=config.l3.size_bytes * config.cores_per_socket,
        associativity=config.l3.associativity,
        block_size=config.block_size,
        latency=config.l3.latency,
    )


#: handler mapping shared by the MESI-family specs: action verb -> the
#: method that implements it (protocol-lint verifies these resolve)
_MESI_HANDLERS = {
    "inv": "_invalidate_sharers",
    "fwd": "_forward_to_owner",
    "evict": "_evict_private",
    "fetch": "_fetch_data_at_home",
    "install": "_install_private",
    "writeback": "_llc_fill",
}

MESI_SPEC = ProtocolSpec(
    name="MESI",
    states=("I", "S", "E", "M"),
    initial="I",
    handlers=_MESI_HANDLERS,
    tables=(
        TransitionTable(
            role="cache",
            events=("load", "store", "Fwd-GetS", "Fwd-GetM", "Inv", "Evict"),
            rows=(
                Row("I", "load", "E", ("miss",), guard="directory I"),
                Row("I", "load", "S", ("miss",), guard="otherwise"),
                Row("I", "store", "M", ("miss",)),
                Row("S", "load", "S", ("silent",)),
                Row("S", "store", "M", ("upgrade",)),
                Row("E", "load", "E", ("silent",)),
                Row("E", "store", "M", ("silent",)),
                Row("M", "load", "M", ("silent",)),
                Row("M", "store", "M", ("silent",)),
                Row("S", "Inv", "I", ("inv",)),
                Row("E", "Fwd-GetS", "S", ("fwd",)),
                Row("M", "Fwd-GetS", "S", ("fwd", "writeback")),
                Row("E", "Fwd-GetM", "I", ("fwd",)),
                Row("M", "Fwd-GetM", "I", ("fwd",)),
                Row("S", "Evict", "I", ("evict",)),
                Row("E", "Evict", "I", ("evict",)),
                Row("M", "Evict", "I", ("evict", "writeback")),
            ),
            impossible=(
                # the full-map directory is exact: nothing reaches an I copy,
                # owners see Fwd-* (never plain Inv), sharers are never the
                # target of a forward
                ("I", "Fwd-GetS"), ("I", "Fwd-GetM"), ("I", "Inv"),
                ("I", "Evict"), ("E", "Inv"), ("M", "Inv"),
                ("S", "Fwd-GetS"), ("S", "Fwd-GetM"),
            ),
        ),
        TransitionTable(
            role="directory",
            events=("GetS", "GetM", "Upgrade", "Put"),
            rows=(
                Row("I", "GetS", "E", ("fetch", "install")),
                Row("I", "GetM", "M", ("fetch", "install")),
                Row("S", "GetS", "S", ("fetch", "install")),
                Row("S", "GetM", "M", ("inv", "fetch", "install")),
                Row("S", "Upgrade", "M", ("inv",)),
                Row("E", "GetS", "S", ("fwd",)),
                Row("M", "GetS", "S", ("fwd", "writeback")),
                Row("E", "GetM", "M", ("fwd",)),
                Row("M", "GetM", "M", ("fwd",)),
                Row("S", "Put", "S", ("evict",), guard="sharers remain"),
                Row("S", "Put", "I", ("evict",), guard="last sharer"),
                Row("E", "Put", "I", ("evict",)),
                Row("M", "Put", "I", ("evict", "writeback")),
            ),
            impossible=(
                ("I", "Put"), ("I", "Upgrade"),
                ("E", "Upgrade"), ("M", "Upgrade"),
            ),
        ),
    ),
)


@coherence_protocol("mesi", MESI_SPEC)
class MESIProtocol:
    """The MESI baseline: every sharing event pays invalidations/downgrades.

    The hit paths dispatch on class-level tables compiled from the
    protocol's :class:`~repro.coherence.spec.ProtocolSpec` (installed by
    the :func:`~repro.coherence.registry.coherence_protocol` decorator):
    ``_silent_write`` (states whose store completes in the private cache),
    ``_silent_next`` (the silent store transition, E -> M here),
    ``_upgrade_states`` (stores that must ask the directory), and
    ``_ward_states`` (states counted as WARD coverage).  Subclasses swap
    the spec, not the code: WARDen adds W to the silent set, MOESI routes
    O through the upgrade set, SI/SD makes every valid state silent.
    """

    name = "MESI"
    supports_ward = False
    #: True for protocols engineered to dodge invalidation/downgrade storms
    #: (WARDen, SI/SD); the conformance harness only applies its event-count
    #: slack check when comparing such a protocol against one that is not.
    avoids_invalidations = False

    def __init__(
        self,
        config: MachineConfig,
        stats: Optional[CoherenceStats] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config
        self.stats = stats if stats is not None else CoherenceStats()
        # hoisted constants for the access hot path
        self._block_size = config.block_size
        self._l1_latency = config.l1.latency
        self._l2_latency = config.l2.latency
        self._num_sockets = config.num_sockets
        #: event bus shared with the machine; a standalone (disabled) one
        #: when the protocol is constructed directly
        self.tracer = tracer if tracer is not None else Tracer()
        self.noc = Interconnect(config, self.stats, tracer=self.tracer)
        ncores = config.num_cores
        self.l1: List[SetAssocCache] = []
        self.l2: List[SetAssocCache] = []
        for core in range(ncores):
            self.l1.append(SetAssocCache(config.l1, f"L1-{core}"))
            self.l2.append(
                SetAssocCache(
                    config.l2,
                    f"L2-{core}",
                    on_evict=self._make_evict_hook(core),
                    tracer=self.tracer,
                )
            )
        llc_cfg = llc_config(config)
        self.llc: List[SetAssocCache] = [
            SetAssocCache(llc_cfg, f"L3-{s}") for s in range(config.num_sockets)
        ]
        self.dirs: List[Directory] = [
            Directory(s) for s in range(config.num_sockets)
        ]
        #: NUMA first-touch placement map: page number -> home socket
        self._page_homes: dict = {}
        # per-core (l1, l1_sets, l1_shift, l1_mask, l2, l2_sets, l2_shift,
        # l2_mask) tuples for try_fast_access — the cache objects and their
        # set dicts are stable for the protocol's lifetime, so the fast path
        # skips the attribute chains entirely
        self._fast_meta = [
            (
                self.l1[c], self.l1[c]._sets,
                self.l1[c]._block_shift, self.l1[c]._set_mask,
                self.l2[c], self.l2[c]._sets,
                self.l2[c]._block_shift, self.l2[c]._set_mask,
            )
            for c in range(ncores)
        ]

    # ------------------------------------------------------------------
    # Topology / lookup helpers
    # ------------------------------------------------------------------
    def home(self, block_addr: int) -> int:
        """Home socket of a block: NUMA first-touch page placement when the
        allocator registered one, address-interleaved otherwise."""
        home = self._page_homes.get(block_addr >> self.PAGE_SHIFT)
        if home is not None:
            return home
        # inlined config.home_socket (hot: several calls per transaction)
        return (block_addr // self._block_size) % self._num_sockets

    PAGE_SHIFT = 6  # block-granularity placement (padded runtime words
    # would otherwise inherit a neighbour's 4 KB page home)

    def set_page_home(self, addr: int, size: int, socket: int) -> None:
        """Register first-touch NUMA placement for ``[addr, addr+size)``."""
        first = addr >> self.PAGE_SHIFT
        last = (addr + max(size, 1) - 1) >> self.PAGE_SHIFT
        for page in range(first, last + 1):
            self._page_homes.setdefault(page, socket)

    def directory_for(self, block_addr: int) -> Directory:
        return self.dirs[self.home(block_addr)]

    def dir_entry(self, block_addr: int) -> DirEntry:
        return self.directory_for(block_addr).entry(block_addr)

    def private_block(self, core: int, block_addr: int) -> Optional[CacheBlock]:
        """Non-statistical peek at a core's private copy (L2 is inclusive)."""
        return self.l2[core].peek(block_addr)

    # ------------------------------------------------------------------
    # Private-cache eviction (PutM/PutS), keeps the directory exact
    # ------------------------------------------------------------------
    def _make_evict_hook(self, core: int):
        # The L2 holds its hook for life; a weak reference back to the
        # protocol keeps the protocol <-> cache pair acyclic, so a finished
        # run's machine is freed by reference counting (DESIGN.md, "Run
        # lifetime").
        protocol = weakref.ref(self)

        def hook(block: CacheBlock) -> None:
            protocol()._evict_private(core, block)

        return hook

    def _evict_private(self, core: int, block: CacheBlock) -> None:
        # L2 (inclusive) evicted the block: drop the L1 copy too.
        self.l1[core].invalidate(block.addr)
        entry = self.dir_entry(block.addr)
        home = self.home(block.addr)
        if block.state is W:
            self._flush_ward_copy(core, block, entry)
            return
        if block.state in (M, E):
            if entry.owner != core:
                raise ProtocolError(
                    f"evicting owned block {block.addr:#x} but directory "
                    f"says owner={entry.owner}"
                )
            self.noc.core_to_home(core, home, _PUT_M)
            if block.state is M:
                self.stats.writebacks += 1
                self._llc_fill(block.addr)
            entry.set_state(I, self.tracer)
            entry.owner = None
            entry.sharers.clear()
        elif block.state is S:
            # Explicit PutS so sharer sets stay exact (cheap control message).
            self.noc.core_to_home(core, home, _PUT_M)
            entry.sharers.discard(core)
            # Collapse to I only from dir-S: under MOESI an S copy can
            # leave while the entry is O (the owner still holds the data).
            if not entry.sharers and entry.state is S:
                entry.set_state(I, self.tracer)
        block.state = I

    def _flush_ward_copy(self, core: int, block: CacheBlock, entry: DirEntry) -> None:
        """W-state copy leaves a private cache: write back written sectors.

        §5.3 — evictions before the region ends pre-pay reconciliation.
        """
        home = self.home(block.addr)
        if block.written_mask:
            self.noc.core_to_home(core, home, _WB_DATA)
            self.stats.writebacks += 1
            self._llc_fill(block.addr)
        else:
            self.noc.core_to_home(core, home, _PUT_M)
        entry.sharers.discard(core)
        block.state = I
        block.clear_written()

    # ------------------------------------------------------------------
    # LLC / DRAM
    # ------------------------------------------------------------------
    def _llc_fill(self, block_addr: int) -> None:
        self.llc[self.home(block_addr)].install(block_addr, S)

    def _fetch_data_at_home(self, block_addr: int) -> int:
        """Latency of producing the block's data at the home LLC slice."""
        self.stats.l3_accesses += 1
        if self.llc[self.home(block_addr)].lookup(block_addr) is not None:
            return 0
        self.stats.dram_accesses += 1
        self.noc.send(_DATA, LinkClass.MEMORY)
        self._llc_fill(block_addr)
        return self.config.dram_latency

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------
    def try_fast_access(
        self, core: int, addr: int, size: int, atype: AccessType
    ) -> Optional[int]:
        """Epoch fast path: resolve the access iff it is a pure private hit.

        Returns the latency when the access completes entirely inside the
        core's private caches with no directory or interconnect message —
        exactly the hit paths of :meth:`access` — and None when the full
        transaction is required (miss, S-store upgrade, or any RMW; atomics
        go through :meth:`access` so their store-buffer fence always pairs
        with the full transaction).  A None return has NO side effects
        (non-statistical peeks only), so the caller can fall back to
        :meth:`access` without double counting; a non-None return performs
        the same statistical lookups and state changes access() would.
        """
        if atype is _RMW:
            return None
        bs = self._block_size
        block_addr = addr - (addr % bs)
        # Side-effect-free probe first (the cache probe/commit_hit protocol,
        # inlined here — this is the hottest function in the simulator);
        # committing a confirmed hit replays lookup()'s exact statistical
        # effects without a second dict walk.
        l1, sets1, shift1, mask1, l2, sets2, shift2, mask2 = self._fast_meta[core]
        if mask1 >= 0:
            idx = (block_addr >> shift1) & mask1
        else:
            idx = l1.set_index(block_addr)
        cset1 = sets1.get(idx)
        block = cset1.get(block_addr) if cset1 is not None else None
        if block is not None and block.state is I:
            block = None
        cset2 = None
        if block is None:
            if mask2 >= 0:
                idx = (block_addr >> shift2) & mask2
            else:
                idx = l2.set_index(block_addr)
            cset2 = sets2.get(idx)
            block = cset2.get(block_addr) if cset2 is not None else None
            if block is None or block.state is I:
                return None
        is_load = atype is _LOAD
        state = block.state
        if not is_load and state not in self._silent_write:
            return None  # store needs the directory (upgrade path)
        # Private hit confirmed: commit the exact effects of access().
        stats = self.stats
        stats.total_accesses += 1
        latency = self._l1_latency
        if cset2 is None:
            l1.hits += 1
            cset1.move_to_end(block_addr)
        else:
            l1.misses += 1
            latency += self._l2_latency
            l2.hits += 1
            cset2.move_to_end(block_addr)
            l1.install_block(block)
        if state in self._ward_states:
            stats.ward_accesses += 1
        if not is_load:
            nxt = self._silent_next.get(state)
            if nxt is not None:
                block.state = nxt  # silent upgrade (E -> M and kin)
                tracer = self.tracer
                if tracer.enabled:
                    tracer.transition(
                        "private", block.addr, state.value, nxt.value
                    )
            block.mark_written(sector_mask(addr, size, bs))
        return latency

    def access(self, core: int, addr: int, size: int, atype: AccessType) -> int:
        """Perform one memory access; return its latency in cycles."""
        bs = self._block_size
        block_addr = addr - (addr % bs)
        is_load = atype is _LOAD
        mask = 0 if is_load else sector_mask(addr, size, bs)
        stats = self.stats
        stats.total_accesses += 1

        latency = self._l1_latency
        block = self.l1[core].lookup(block_addr)
        if block is None:
            latency += self._l2_latency
            block = self.l2[core].lookup(block_addr)
            if block is not None:
                self.l1[core].install_block(block)

        if block is not None:
            state = block.state
            if is_load:
                # Read-hit fast path: every valid private state grants read,
                # so no permission dispatch and no messages are needed.
                if state in self._ward_states:
                    stats.ward_accesses += 1
                return latency
            if state in self._silent_write:
                if state in self._ward_states:
                    stats.ward_accesses += 1
                else:
                    nxt = self._silent_next.get(state)
                    if nxt is not None:
                        block.state = nxt  # silent upgrade (E -> M and kin)
                        tracer = self.tracer
                        if tracer.enabled:
                            tracer.transition(
                                "private", block.addr, state.value, nxt.value
                            )
                block.mark_written(mask)
                return latency
            if state in self._upgrade_states:
                return latency + self._upgrade(core, block_addr, block, mask)
            raise ProtocolError(
                f"unexpected private state {state} for {atype}"
            )
        return latency + self._miss(core, block_addr, atype, mask)

    # ------------------------------------------------------------------
    # Store upgrade: private S copy, needs M
    # ------------------------------------------------------------------
    def _upgrade(self, core: int, block_addr: int, block: CacheBlock, mask: int) -> int:
        home = self.home(block_addr)
        entry = self.dir_entry(block_addr)
        latency = self.noc.core_to_home(core, home, _UPGRADE)
        latency += self.config.l3.latency
        self.stats.l3_accesses += 1
        latency += self._handle_upgrade_at_dir(core, block_addr, entry, block, mask)
        return latency

    def _handle_upgrade_at_dir(
        self,
        core: int,
        block_addr: int,
        entry: DirEntry,
        block: CacheBlock,
        mask: int,
    ) -> int:
        if entry.state is not S or core not in entry.sharers:
            raise ProtocolError(
                f"upgrade for {block_addr:#x} but directory shows {entry}"
            )
        latency = self._invalidate_sharers(block_addr, entry, exclude=core)
        latency += self.noc.home_to_core(self.home(block_addr), core, _DATA_E)
        entry.set_state(M, self.tracer)
        entry.owner = core
        entry.sharers.clear()
        block.state = M
        block.mark_written(mask)
        return latency

    def _invalidate_sharers(
        self, block_addr: int, entry: DirEntry, exclude: int
    ) -> int:
        """Invalidate every sharer except ``exclude``; return added latency."""
        home = self.home(block_addr)
        tracer = self.tracer
        worst = 0
        for sharer in sorted(entry.sharers):
            if sharer == exclude:
                continue
            lat = self.noc.home_to_core(home, sharer, _INV)
            lat += self.noc.core_to_home(sharer, home, _INV_ACK)
            worst = max(worst, lat)
            self.stats.invalidations += 1
            if tracer.enabled:
                tracer.transition(f"L2-{sharer}", block_addr, "S", "I")
            victim = self.l2[sharer].invalidate(block_addr)
            self.l1[sharer].invalidate(block_addr)
            if victim is not None:
                victim.state = I
        return worst

    # ------------------------------------------------------------------
    # Full miss: GetS / GetM at the directory
    # ------------------------------------------------------------------
    def _miss(self, core: int, block_addr: int, atype: AccessType, mask: int) -> int:
        home = self.home(block_addr)
        entry = self.dir_entry(block_addr)
        mtype = _GET_M if atype is not _LOAD else _GET_S
        latency = self.noc.core_to_home(core, home, mtype)
        latency += self.config.l3.latency
        latency += self._handle_at_directory(core, block_addr, entry, atype, mask)
        return latency

    def _handle_at_directory(
        self,
        core: int,
        block_addr: int,
        entry: DirEntry,
        atype: AccessType,
        mask: int,
    ) -> int:
        """Directory FSA dispatch (Fig. 5, MESI portion). Returns latency."""
        home = self.home(block_addr)
        if entry.state is I:
            latency = self._fetch_data_at_home(block_addr)
            latency += self.noc.home_to_core(home, core, _DATA_E)
            if atype is not _LOAD:
                self._install_private(core, block_addr, M, mask)
                entry.set_state(M, self.tracer)
            else:
                self._install_private(core, block_addr, E, 0)
                entry.set_state(E, self.tracer)
            entry.owner = core
            entry.sharers.clear()
            return latency

        if entry.state is S:
            if atype is not _LOAD:
                inv_latency = self._invalidate_sharers(block_addr, entry, exclude=core)
                data_latency = self._fetch_data_at_home(block_addr)
                data_latency += self.noc.home_to_core(home, core, _DATA)
                self._install_private(core, block_addr, M, mask)
                entry.set_state(M, self.tracer)
                entry.owner = core
                entry.sharers.clear()
                return max(inv_latency, data_latency)
            latency = self._fetch_data_at_home(block_addr)
            latency += self.noc.home_to_core(home, core, _DATA)
            self._install_private(core, block_addr, S, 0)
            entry.sharers.add(core)
            return latency

        if entry.state in (E, M):
            return self._forward_to_owner(core, block_addr, entry, atype, mask)

        raise ProtocolError(
            f"MESI directory cannot handle state {entry.state} at {block_addr:#x}"
        )

    def _forward_to_owner(
        self,
        core: int,
        block_addr: int,
        entry: DirEntry,
        atype: AccessType,
        mask: int,
    ) -> int:
        home = self.home(block_addr)
        owner = entry.owner
        if owner is None or owner == core:
            raise ProtocolError(f"bad owner {owner} for miss by {core}: {entry}")
        owner_block = self.l2[owner].peek(block_addr)
        if owner_block is None:
            raise ProtocolError(
                f"directory says core {owner} owns {block_addr:#x} "
                "but no private copy exists"
            )
        tracer = self.tracer
        if atype is not _LOAD:
            # Fwd-GetM: invalidate the owner, transfer ownership.
            latency = self.noc.home_to_core(home, owner, _FWD_GET_M)
            latency += self.noc.core_to_core(owner, core, _DATA)
            self.stats.invalidations += 1
            if tracer.enabled:
                tracer.transition(
                    f"L2-{owner}", block_addr, owner_block.state.value, "I"
                )
            self.l2[owner].invalidate(block_addr)
            self.l1[owner].invalidate(block_addr)
            owner_block.state = I
            self._install_private(core, block_addr, M, mask)
            entry.set_state(M, tracer)
            entry.owner = core
            entry.sharers.clear()
            return latency
        # Fwd-GetS: downgrade the owner to S, write back if dirty.
        latency = self.noc.home_to_core(home, owner, _FWD_GET_S)
        latency += self.noc.core_to_core(owner, core, _DATA)
        self.stats.downgrades += 1
        if tracer.enabled:
            tracer.transition(
                f"L2-{owner}", block_addr, owner_block.state.value, "S"
            )
        if owner_block.state is M:
            self.noc.core_to_home(owner, home, _WB_DATA)
            self.stats.writebacks += 1
            self._llc_fill(block_addr)
        owner_block.state = S
        owner_block.clear_written()
        self._install_private(core, block_addr, S, 0)
        entry.set_state(S, tracer)
        entry.sharers = {owner, core}
        entry.owner = None
        return latency

    # ------------------------------------------------------------------
    def _install_private(
        self, core: int, block_addr: int, state: CoherenceState, mask: int
    ) -> CacheBlock:
        tracer = self.tracer
        if tracer.enabled:
            tracer.transition(f"L2-{core}", block_addr, "I", state.value)
        block = self.l2[core].install(block_addr, state)
        block.clear_written()
        if mask:
            block.mark_written(mask)
        self.l1[core].install_block(block)
        return block

    # ------------------------------------------------------------------
    # WARD API (no-ops for plain MESI; legacy behaviour, §5.1)
    # ------------------------------------------------------------------
    def add_region(self, start: int, end: int):
        return None

    def remove_region(self, region) -> None:
        pass

    def check_invariants(self) -> None:
        """Cross-check directory vs private caches (test/debug helper)."""
        for directory in self.dirs:
            for entry in directory.entries():
                entry.check_invariants()
                if entry.state in (M, E):
                    block = self.l2[entry.owner].peek(entry.addr)
                    if block is None or block.state not in (M, E):
                        raise ProtocolError(f"owner copy missing for {entry}")
                    # SWMR: nobody else may hold the block.
                    for core in range(self.config.num_cores):
                        if core != entry.owner and self.l2[core].peek(entry.addr):
                            raise ProtocolError(
                                f"SWMR violated at {entry.addr:#x}: core {core} "
                                f"holds a copy alongside owner {entry.owner}"
                            )
                elif entry.state is S:
                    for sharer in entry.sharers:
                        block = self.l2[sharer].peek(entry.addr)
                        if block is None or block.state is not S:
                            raise ProtocolError(
                                f"sharer {sharer} copy wrong for {entry}"
                            )
