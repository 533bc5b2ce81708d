"""MOESI: MESI plus the Owned state (dirty sharing without writeback).

A dirty line that another core reads is *not* written back to the LLC;
the owner keeps the (still dirty) data in state O and supplies readers
cache-to-cache.  The home LLC only sees the data again when the owner
evicts or a writer claims the line.  Compared to the MESI baseline this
trades LLC/DRAM writeback traffic for longer ownership chains — a useful
third point between MESI and WARDen for the paper's sharing studies.

Invariant (checked by :meth:`MOESIProtocol.check_invariants` and the
protocol fuzzer): **owned implies dirty** — an O copy always has a
nonzero written-sector mask, because O is only ever entered from M and
keeps the mask.
"""

from __future__ import annotations

from repro.common.errors import ProtocolError
from repro.common.types import AccessType, CoherenceState, MessageType
from repro.coherence.directory import DirEntry
from repro.coherence.mesi import _MESI_HANDLERS, MESIProtocol
from repro.coherence.registry import coherence_protocol
from repro.coherence.spec import ProtocolSpec, Row, TransitionTable
from repro.mem.block import CacheBlock

I = CoherenceState.INVALID
S = CoherenceState.SHARED
E = CoherenceState.EXCLUSIVE
M = CoherenceState.MODIFIED
O = CoherenceState.OWNED

_LOAD = AccessType.LOAD
_PUT_M = MessageType.PUT_M
_FWD_GET_S = MessageType.FWD_GET_S
_FWD_GET_M = MessageType.FWD_GET_M
_DATA = MessageType.DATA
_DATA_E = MessageType.DATA_E

MOESI_SPEC = ProtocolSpec(
    name="MOESI",
    states=("I", "S", "E", "M", "O"),
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
                # The MOESI twist: a read of a dirty line downgrades the
                # owner to O with no writeback; O reads stay silent and an
                # O store must reclaim exclusivity from the directory.
                Row("M", "Fwd-GetS", "O", ("fwd",)),
                Row("O", "load", "O", ("silent",)),
                Row("O", "store", "M", ("upgrade",)),
                Row("O", "Fwd-GetS", "O", ("fwd",)),
                Row("O", "Fwd-GetM", "I", ("fwd",)),
                Row("O", "Inv", "I", ("inv",)),
                Row("S", "Inv", "I", ("inv",)),
                Row("E", "Fwd-GetS", "S", ("fwd",)),
                Row("E", "Fwd-GetM", "I", ("fwd",)),
                Row("M", "Fwd-GetM", "I", ("fwd",)),
                Row("S", "Evict", "I", ("evict",)),
                Row("E", "Evict", "I", ("evict",)),
                Row("M", "Evict", "I", ("evict", "writeback")),
                Row("O", "Evict", "I", ("evict", "writeback")),
            ),
            impossible=(
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
                Row("M", "GetS", "O", ("fwd",)),
                Row("E", "GetM", "M", ("fwd",)),
                Row("M", "GetM", "M", ("fwd",)),
                Row("O", "GetS", "O", ("fwd",)),
                Row("O", "GetM", "M", ("inv", "fwd")),
                Row("O", "Upgrade", "M", ("inv",)),
                Row("S", "Put", "S", ("evict",), guard="sharers remain"),
                Row("S", "Put", "I", ("evict",), guard="last sharer"),
                Row("E", "Put", "I", ("evict",)),
                Row("M", "Put", "I", ("evict", "writeback")),
                Row("O", "Put", "O", ("evict",), guard="a sharer evicts"),
                Row("O", "Put", "S", ("evict", "writeback"),
                    guard="owner evicts, sharers remain"),
                Row("O", "Put", "I", ("evict", "writeback"),
                    guard="owner evicts last copy"),
            ),
            impossible=(
                ("I", "Put"), ("I", "Upgrade"),
                ("E", "Upgrade"), ("M", "Upgrade"),
            ),
        ),
    ),
)


@coherence_protocol("moesi", MOESI_SPEC)
class MOESIProtocol(MESIProtocol):
    """MESI + Owned.  Only the dirty-sharing paths differ from the base:
    read-forwards on M keep the data with the owner (dir state O), O
    owners answer later readers cache-to-cache, and writers reclaim the
    line by invalidating the owner alongside the sharers."""

    name = "MOESI"

    # ------------------------------------------------------------------
    # Directory dispatch: the O entry and the M->O read-forward
    # ------------------------------------------------------------------
    def _handle_at_directory(
        self,
        core: int,
        block_addr: int,
        entry: DirEntry,
        atype: AccessType,
        mask: int,
    ) -> int:
        if entry.state is not O:
            return super()._handle_at_directory(core, block_addr, entry, atype, mask)
        home = self.home(block_addr)
        owner, owner_block = self._owner_copy(core, block_addr, entry)
        tracer = self.tracer
        if atype is _LOAD:
            # Another reader: the owner supplies the dirty data c2c and
            # stays O — still no writeback (the point of the state).
            latency = self.noc.home_to_core(home, owner, _FWD_GET_S)
            latency += self.noc.core_to_core(owner, core, _DATA)
            self._install_private(core, block_addr, S, 0)
            entry.sharers.add(core)
            self.stats.extra["dirty_shares"] += 1
            return latency
        # A writer claims the line: invalidate the sharers and the owner.
        inv_latency = self._invalidate_sharers(block_addr, entry, exclude=core)
        latency = self.noc.home_to_core(home, owner, _FWD_GET_M)
        latency += self.noc.core_to_core(owner, core, _DATA)
        self.stats.invalidations += 1
        if tracer.enabled:
            tracer.transition(f"L2-{owner}", block_addr, "O", "I")
        self.l2[owner].invalidate(block_addr)
        self.l1[owner].invalidate(block_addr)
        owner_block.state = I
        owner_block.clear_written()
        self._install_private(core, block_addr, M, mask)
        entry.set_state(M, tracer)
        entry.owner = core
        entry.sharers.clear()
        return max(inv_latency, latency)

    def _forward_to_owner(
        self,
        core: int,
        block_addr: int,
        entry: DirEntry,
        atype: AccessType,
        mask: int,
    ) -> int:
        if atype is not _LOAD or entry.state is not M:
            # E-GetS (clean, plain downgrade) and all GetM forwards keep
            # their MESI behaviour.
            return super()._forward_to_owner(core, block_addr, entry, atype, mask)
        # Fwd-GetS on a dirty line: owner M -> O, data c2c, NO writeback.
        home = self.home(block_addr)
        owner, owner_block = self._owner_copy(core, block_addr, entry)
        latency = self.noc.home_to_core(home, owner, _FWD_GET_S)
        latency += self.noc.core_to_core(owner, core, _DATA)
        self.stats.downgrades += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.transition(f"L2-{owner}", block_addr, "M", "O")
        owner_block.state = O  # written mask retained: owned implies dirty
        self._install_private(core, block_addr, S, 0)
        entry.set_state(O, tracer)
        entry.sharers.add(core)
        self.stats.extra["dirty_shares"] += 1
        return latency

    # ------------------------------------------------------------------
    # Store upgrade with a dirty owner in the picture
    # ------------------------------------------------------------------
    def _handle_upgrade_at_dir(
        self,
        core: int,
        block_addr: int,
        entry: DirEntry,
        block: CacheBlock,
        mask: int,
    ) -> int:
        if entry.state is not O:
            return super()._handle_upgrade_at_dir(core, block_addr, entry, block, mask)
        home = self.home(block_addr)
        owner = entry.owner
        if owner is None or (owner != core and core not in entry.sharers):
            raise ProtocolError(
                f"upgrade for {block_addr:#x} but directory shows {entry}"
            )
        latency = self._invalidate_sharers(block_addr, entry, exclude=core)
        if owner == core:
            # The owner itself writes again: sharers gone, O -> M in place.
            latency += self.noc.home_to_core(home, core, _DATA_E)
        else:
            # A sharer writes: the owner forwards the dirty line and dies.
            fwd = self.noc.home_to_core(home, owner, _FWD_GET_M)
            fwd += self.noc.core_to_core(owner, core, _DATA)
            latency = max(latency, fwd)
            self.stats.invalidations += 1
            owner_block = self.l2[owner].peek(block_addr)
            tracer = self.tracer
            if tracer.enabled:
                tracer.transition(f"L2-{owner}", block_addr, "O", "I")
            self.l2[owner].invalidate(block_addr)
            self.l1[owner].invalidate(block_addr)
            if owner_block is not None:
                owner_block.state = I
                owner_block.clear_written()
        entry.set_state(M, self.tracer)
        entry.owner = core
        entry.sharers.clear()
        block.state = M
        block.mark_written(mask)
        return latency

    # ------------------------------------------------------------------
    # Evictions: the O owner's dirty line finally reaches the LLC here
    # ------------------------------------------------------------------
    def _evict_private(self, core: int, block: CacheBlock) -> None:
        if block.state is not O:
            super()._evict_private(core, block)
            return
        self.l1[core].invalidate(block.addr)
        entry = self.dir_entry(block.addr)
        home = self.home(block.addr)
        if entry.owner != core:
            raise ProtocolError(
                f"evicting owned block {block.addr:#x} but directory "
                f"says owner={entry.owner}"
            )
        # Dirty by the owned-implies-dirty invariant: deferred writeback.
        self.noc.core_to_home(core, home, _PUT_M)
        self.stats.writebacks += 1
        self._llc_fill(block.addr)
        entry.owner = None
        entry.set_state(S if entry.sharers else I, self.tracer)
        block.state = I
        block.clear_written()

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        super().check_invariants()
        for directory in self.dirs:
            for entry in directory.entries():
                if entry.state is not O:
                    continue
                owned = self.l2[entry.owner].peek(entry.addr)
                if owned is None or owned.state is not O:
                    raise ProtocolError(f"owner copy missing/wrong for {entry}")
                if not owned.written_mask:
                    raise ProtocolError(
                        f"owned-implies-dirty violated at {entry.addr:#x}: "
                        "O copy has an empty written mask"
                    )
                if entry.owner in entry.sharers:
                    raise ProtocolError(f"{entry} owner listed as sharer")
                for sharer in entry.sharers:
                    copy = self.l2[sharer].peek(entry.addr)
                    if copy is None or copy.state is not S:
                        raise ProtocolError(
                            f"sharer {sharer} copy wrong for {entry}"
                        )
