"""The WARDen protocol: MESI + the W state + reconciliation (paper §5).

Behavioural summary (Fig. 5):

* The directory tracks active WARD regions (globally, via the region CAM of
  §6.1, modeled by :class:`~repro.coherence.regions.RegionTable`).
* A directory request for a block whose address lies in an active region
  moves the block to the ``W`` state.  While in ``W``, every GetS/GetM/Upgrade
  is approved immediately with data furnished by the shared cache — no
  invalidations, no downgrades, no forwards.  Each requesting core receives
  an effectively-exclusive copy (private state ``W``: silent local reads and
  writes thereafter), so false and benign-true sharing cost nothing.
* Private caches are unmodified: they track written sectors (byte-granular
  masks, §6.1) exactly as a sectored MESI cache would.
* When software removes a region, reconciliation (§5.2) merges each W
  block: single-sharer blocks convert in place to E/M; multi-sharer blocks
  write their written sectors back to the home LLC (any arrival order is
  correct by WAW-apathy) and the surviving copies downgrade to S.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MachineConfig
from repro.common.errors import ProtocolError
from repro.common.stats import CoherenceStats
from repro.common.types import AccessType, CoherenceState, MessageType
from repro.coherence.directory import DirEntry
from repro.coherence.mesi import _MESI_HANDLERS, MESIProtocol
from repro.coherence.regions import RegionTable, WardRegion
from repro.coherence.registry import coherence_protocol
from repro.coherence.spec import ProtocolSpec, Row, TransitionTable
from repro.mem.block import CacheBlock

I = CoherenceState.INVALID
S = CoherenceState.SHARED
E = CoherenceState.EXCLUSIVE
M = CoherenceState.MODIFIED
W = CoherenceState.WARD


def reconcile_plan(masks):
    """Merge decision for one W block's private copies (§5.2).

    ``masks`` is the ordered list of written-sector masks, one per private
    copy (ascending core order).  Returns ``(union_mask, true_sharing,
    keep_flags)`` where ``keep_flags[i]`` says copy ``i`` is fully current
    (it wrote every written sector, or nothing was written) and may be
    retained in state S; the rest are stale and must be invalidated.

    Pure so the object protocol and the vectorized replay kernel share one
    definition of the merge — they cannot drift apart.
    """
    union_mask = 0
    true_sharing = False
    seen = 0
    for mask in masks:
        if mask & seen:
            true_sharing = True
        seen |= mask
        union_mask |= mask
    keep_flags = [mask == union_mask for mask in masks]
    return union_mask, true_sharing, keep_flags


WARDEN_SPEC = ProtocolSpec(
    name="WARDen",
    states=("I", "S", "E", "M", "W"),
    initial="I",
    ward_states=("W",),
    handlers={
        **_MESI_HANDLERS,
        "ward_grant": "_ward_grant",
        "enter_ward": "_enter_ward",
        "reconcile": "_reconcile_block",
        "flush": "_flush_ward_copy",
    },
    tables=(
        TransitionTable(
            role="cache",
            events=(
                "load", "store", "Fwd-GetS", "Fwd-GetM", "Inv", "Evict",
                "Reconcile",
            ),
            rows=(
                # MESI portion: unchanged outside active regions (§5.1).
                Row("I", "load", "E", ("miss",), guard="directory I"),
                Row("I", "load", "S", ("miss",), guard="otherwise"),
                Row("I", "load", "W", ("miss",), guard="in active region"),
                Row("I", "store", "M", ("miss",)),
                Row("I", "store", "W", ("miss",), guard="in active region"),
                Row("S", "load", "S", ("silent",)),
                Row("S", "store", "M", ("upgrade",)),
                Row("S", "store", "W", ("upgrade",), guard="in active region"),
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
                # WARD portion (Fig. 5): silent local reads and writes;
                # evictions pre-pay reconciliation (§5.3); region removal
                # merges written sectors back (§5.2).
                Row("W", "load", "W", ("silent",)),
                Row("W", "store", "W", ("silent",)),
                Row("W", "Evict", "I", ("flush", "writeback"), guard="dirty"),
                Row("W", "Evict", "I", ("flush",), guard="clean"),
                Row("W", "Reconcile", "S", ("reconcile",),
                    guard="copy fully current"),
                Row("W", "Reconcile", "I", ("reconcile",),
                    guard="stale copy"),
            ),
            impossible=(
                ("I", "Fwd-GetS"), ("I", "Fwd-GetM"), ("I", "Inv"),
                ("I", "Evict"), ("E", "Inv"), ("M", "Inv"),
                ("S", "Fwd-GetS"), ("S", "Fwd-GetM"),
                # the directory never bothers a W copy until reconciliation
                ("W", "Fwd-GetS"), ("W", "Fwd-GetM"), ("W", "Inv"),
                ("I", "Reconcile"), ("S", "Reconcile"),
                ("E", "Reconcile"), ("M", "Reconcile"),
            ),
        ),
        TransitionTable(
            role="directory",
            events=("GetS", "GetM", "Upgrade", "Put", "Region-Remove"),
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
                # Any request on an in-region block enters W first; existing
                # copies are absorbed rather than invalidated (§5.1).
                Row("I", "GetS", "W", ("enter_ward", "ward_grant"),
                    guard="in active region"),
                Row("I", "GetM", "W", ("enter_ward", "ward_grant"),
                    guard="in active region"),
                Row("S", "GetS", "W", ("enter_ward", "ward_grant"),
                    guard="in active region"),
                Row("S", "GetM", "W", ("enter_ward", "ward_grant"),
                    guard="in active region"),
                Row("E", "GetS", "W", ("enter_ward", "ward_grant"),
                    guard="in active region"),
                Row("E", "GetM", "W", ("enter_ward", "ward_grant"),
                    guard="in active region"),
                Row("M", "GetS", "W", ("enter_ward", "ward_grant"),
                    guard="in active region"),
                Row("M", "GetM", "W", ("enter_ward", "ward_grant"),
                    guard="in active region"),
                Row("S", "Upgrade", "W", ("enter_ward", "ward_grant"),
                    guard="in active region"),
                # W entries approve everything immediately (§5.1).
                Row("W", "GetS", "W", ("ward_grant",)),
                Row("W", "GetM", "W", ("ward_grant",)),
                Row("W", "Upgrade", "W", ("ward_grant",)),
                Row("W", "Put", "W", ("flush",)),
                Row("W", "Region-Remove", "S", ("reconcile",),
                    guard="current copies remain"),
                Row("W", "Region-Remove", "I", ("reconcile",),
                    guard="no current copies"),
            ),
            impossible=(
                ("I", "Put"), ("I", "Upgrade"),
                ("E", "Upgrade"), ("M", "Upgrade"),
                ("I", "Region-Remove"), ("S", "Region-Remove"),
                ("E", "Region-Remove"), ("M", "Region-Remove"),
            ),
        ),
    ),
)


@coherence_protocol("warden", WARDEN_SPEC)
class WARDenProtocol(MESIProtocol):
    """MESI augmented with the WARD state; full MESI behaviour is preserved
    for every address outside an active WARD region (legacy apps run
    unencumbered, §5.1).

    The inherited :meth:`~MESIProtocol.try_fast_access` epoch fast path is
    correct here without modification: a private W-state hit generates no
    directory traffic *by design* (silent local reads and writes until
    reconciliation, §5.2), so W hits are epoch-safe exactly like M/E hits;
    region membership only matters on the directory paths, which the fast
    path never takes (misses and S-store upgrades return None-must-slow-path
    before any region lookup would be consulted).
    """

    name = "WARDen"
    supports_ward = True
    avoids_invalidations = True

    def __init__(
        self,
        config: MachineConfig,
        stats: Optional[CoherenceStats] = None,
        tracer=None,
    ):
        super().__init__(config, stats, tracer=tracer)
        self.region_table = RegionTable(capacity=config.max_ward_regions)

    # ------------------------------------------------------------------
    # Region management ("Add/Remove Region" instructions, §6.1)
    # ------------------------------------------------------------------
    def add_region(self, start: int, end: int) -> Optional[WardRegion]:
        """Activate a WARD region; returns None when the region CAM is full
        (the addresses then simply stay under normal MESI — always safe)."""
        region = self.region_table.add(start, end)
        tracer = self.tracer
        if region is not None:
            self.stats.ward_region_adds += 1
            self.stats.count_message(MessageType.REGION_ADD, "intra")
            if tracer.enabled:
                tracer.region("add", region.region_id, start, end)
        elif tracer.enabled:
            tracer.region("reject", -1, start, end)
        return region

    def remove_region(self, region: Optional[WardRegion]) -> None:
        """Deactivate a region and reconcile its W blocks (§5.2).

        The directory overlaps reconciliation with execution (§6.1 finds
        ~1 block per 50k cycles in practice), so it costs no cycles here.
        """
        if region is None:
            return
        self.region_table.remove(region)
        self.stats.ward_region_removes += 1
        self.stats.count_message(MessageType.REGION_REMOVE, "intra")
        reconciled = 0
        for block_addr in sorted(region.blocks):
            entry = self.directory_for(block_addr).peek(block_addr)
            if entry is None or entry.state is not W:
                continue  # already evicted/reconciled
            if self.region_table.contains(block_addr):
                continue  # still covered by an overlapping active region
            self._reconcile_block(entry, region.region_id)
            reconciled += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.region(
                "remove", region.region_id, region.start, region.end,
                blocks=reconciled,
            )

    # ------------------------------------------------------------------
    # Reconciliation (§5.2): no sharing / false sharing / true sharing
    # ------------------------------------------------------------------
    def _reconcile_block(self, entry: DirEntry, region_id: int = -1) -> None:
        """Merge one W block back to the MESI side (§5.2/§6.1).

        Every copy's written sectors are written back to the home LLC and
        merged in arrival order (any order is correct: by the WARD property
        each sector was written by at most one thread — false sharing — or
        the WAWs are apathetic — true sharing).  The LLC ends up holding the
        merged block, so future readers anywhere get a shared-cache hit
        instead of downgrading some private cache — the §5.3 handoff.

        Private copies that are fully current (they wrote every written
        sector, or nothing was written at all) are retained, downgraded to
        S, so the writing core's own subsequent reads still hit locally.
        Copies missing another core's sectors are stale and must be
        invalidated.
        """
        home = self.home(entry.addr)
        copies = []
        for core in sorted(entry.sharers):
            block = self.l2[core].peek(entry.addr)
            if block is None:
                continue  # evicted (and flushed) earlier
            copies.append((core, block))

        self.stats.reconciled_blocks += 1
        union_mask, true_sharing, keep_flags = reconcile_plan(
            [block.written_mask for _, block in copies]
        )

        keep = set()
        writebacks = 0
        for (core, block), current in zip(copies, keep_flags):
            if block.written_mask:
                self.noc.core_to_home(core, home, MessageType.RECONCILE)
                self.stats.writebacks += 1
                writebacks += 1
                block.clear_written()
            if current:
                block.state = S
                keep.add(core)
            else:
                block.state = I
                self.l2[core].invalidate(entry.addr)
                self.l1[core].invalidate(entry.addr)
        if union_mask:
            self._llc_fill(entry.addr)
        if len(copies) > 1:
            self.stats.reconciled_shared_blocks += 1
            if true_sharing:
                self.stats.reconciled_true_sharing_blocks += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.reconcile(
                entry.addr, region_id, len(copies), true_sharing, writebacks
            )
        entry.owner = None
        entry.sharers = keep
        entry.set_state(S if keep else I, tracer)

    # ------------------------------------------------------------------
    # Directory dispatch: intercept WARD blocks, else defer to MESI
    # ------------------------------------------------------------------
    def _handle_at_directory(
        self,
        core: int,
        block_addr: int,
        entry: DirEntry,
        atype: AccessType,
        mask: int,
    ) -> int:
        if entry.state is W:
            return self._ward_grant(core, block_addr, entry, mask)
        if self.region_table.contains(block_addr):
            self._enter_ward(block_addr, entry)
            return self._ward_grant(core, block_addr, entry, mask)
        return super()._handle_at_directory(core, block_addr, entry, atype, mask)

    def _handle_upgrade_at_dir(
        self,
        core: int,
        block_addr: int,
        entry: DirEntry,
        block: CacheBlock,
        mask: int,
    ) -> int:
        if entry.state is W or self.region_table.contains(block_addr):
            if entry.state is not W:
                self._enter_ward(block_addr, entry)
            # The requester's own S copy becomes its W copy; no data needed.
            latency = self.noc.home_to_core(self.home(block_addr), core, MessageType.DATA_E)
            entry.sharers.add(core)
            self._register_ward_block(block_addr)
            tracer = self.tracer
            if tracer.enabled:
                tracer.transition(f"L2-{core}", block_addr, "S", "W")
            block.state = W
            block.mark_written(mask)
            self.stats.ward_accesses += 1
            return latency
        return super()._handle_upgrade_at_dir(core, block_addr, entry, block, mask)

    # ------------------------------------------------------------------
    def _enter_ward(self, block_addr: int, entry: DirEntry) -> None:
        """Move a directory entry into W, absorbing any existing copies.

        Existing private copies stay valid in their caches (the directory
        simply stops bothering them); their cores join the sharer list so
        reconciliation can find their written sectors later.
        """
        if entry.owner is not None:
            entry.sharers.add(entry.owner)
            owned = self.l2[entry.owner].peek(block_addr)
            if owned is not None:
                tracer = self.tracer
                if tracer.enabled:
                    tracer.transition(
                        f"L2-{entry.owner}", block_addr, owned.state.value, "W"
                    )
                owned.state = W
        entry.owner = None
        entry.set_state(W, self.tracer)
        self._register_ward_block(block_addr)

    def _register_ward_block(self, block_addr: int) -> None:
        for region in self.region_table.regions_containing(block_addr):
            region.blocks.add(block_addr)

    def _ward_grant(self, core: int, block_addr: int, entry: DirEntry, mask: int) -> int:
        """Approve a request on a W block: data from the shared cache, an
        effectively-exclusive copy to the requester, nobody else disturbed."""
        latency = self._fetch_data_at_home(block_addr)
        latency += self.noc.home_to_core(self.home(block_addr), core, MessageType.DATA_E)
        entry.sharers.add(core)
        self._register_ward_block(block_addr)
        self._install_private(core, block_addr, W, mask)
        self.stats.ward_accesses += 1
        return latency

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        super().check_invariants()
        for directory in self.dirs:
            for entry in directory.entries():
                if entry.state is not W:
                    continue
                for sharer in entry.sharers:
                    block = self.l2[sharer].peek(entry.addr)
                    if block is not None and block.state is I:
                        raise ProtocolError(
                            f"stale invalid sharer {sharer} at {entry.addr:#x}"
                        )
        if len(self.region_table) > self.region_table.capacity:
            raise ProtocolError("region table exceeded its CAM capacity")
