"""SI/SD: self-invalidation + self-downgrade, no directory state at all.

The third design point the paper positions WARDen against (§2/§8's
DeNovo/VIPS lineage): instead of a directory tracking sharers, each core
keeps whatever copies it likes and *itself* restores coherence at
synchronization points — dirty lines are self-downgraded (written
sectors pushed to the home LLC) and cached copies self-invalidated, so
the next reader always refetches current data.  Data-race-free programs
observe exactly the same values as under MESI; the protocol simply never
sends an invalidation or downgrade to another core.

Mapping onto this codebase's WARD machinery: the runtime's Add/Remove
Region instructions *are* the synchronization annotations.  Blocks
touched inside an active region are tagged W; removing the region is the
sync point that self-downgrades/self-invalidates them.  Atomics (RMWs)
bypass the private caches and execute at the home LLC slice, since
without a directory a private copy is never provably exclusive.

Invariant (checked by :meth:`SISDProtocol.check_invariants` and the
protocol fuzzer): directories stay empty forever, and ``invalidations``
and ``downgrades`` stay zero — nothing ever disturbs a remote cache.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MachineConfig
from repro.common.errors import ProtocolError
from repro.common.stats import CoherenceStats
from repro.common.types import AccessType, CoherenceState, MessageType
from repro.coherence.mesi import MESIProtocol
from repro.coherence.regions import RegionTable, WardRegion
from repro.coherence.registry import coherence_protocol
from repro.coherence.spec import ProtocolSpec, Row, TransitionTable
from repro.mem.block import CacheBlock

I = CoherenceState.INVALID
S = CoherenceState.SHARED
M = CoherenceState.MODIFIED
W = CoherenceState.WARD

_LOAD = AccessType.LOAD
_RMW = AccessType.RMW
_GET_S = MessageType.GET_S
_GET_M = MessageType.GET_M
_DATA = MessageType.DATA
_WB_DATA = MessageType.WB_DATA

SISD_SPEC = ProtocolSpec(
    name="SI/SD",
    states=("I", "S", "M", "W"),
    initial="I",
    ward_states=("W",),
    handlers={
        "remote_rmw": "_rmw_at_home",
        "self_downgrade": "_self_downgrade",
        "self_invalidate": "_self_invalidate",
        "evict": "_evict_private",
        "writeback": "_llc_fill",
    },
    tables=(
        # One table: there is no directory FSA — the home side is just the
        # LLC slice serving data.
        TransitionTable(
            role="cache",
            events=("load", "store", "rmw", "sync", "Evict"),
            rows=(
                Row("I", "load", "S", ("miss",), guard="outside regions"),
                Row("I", "load", "W", ("miss",), guard="in active region"),
                Row("I", "store", "M", ("miss",), guard="outside regions"),
                Row("I", "store", "W", ("miss",), guard="in active region"),
                Row("I", "rmw", "I", ("remote_rmw",)),
                Row("S", "load", "S", ("silent",)),
                # No directory to ask: a store on any cached copy completes
                # locally; DRF + self-invalidation makes that safe.
                Row("S", "store", "M", ("silent",)),
                Row("S", "rmw", "I", ("self_invalidate", "remote_rmw")),
                Row("M", "load", "M", ("silent",)),
                Row("M", "store", "M", ("silent",)),
                Row("M", "rmw", "I",
                    ("self_downgrade", "self_invalidate", "remote_rmw")),
                Row("W", "load", "W", ("silent",)),
                Row("W", "store", "W", ("silent",)),
                Row("W", "rmw", "I",
                    ("self_downgrade", "self_invalidate", "remote_rmw"),
                    guard="dirty"),
                Row("W", "rmw", "I", ("self_invalidate", "remote_rmw"),
                    guard="clean"),
                # sync = the covering region is removed.
                Row("W", "sync", "I", ("self_downgrade", "self_invalidate"),
                    guard="dirty"),
                Row("W", "sync", "I", ("self_invalidate",), guard="clean"),
                Row("W", "sync", "W", (),
                    guard="still covered by another region"),
                Row("S", "Evict", "I", ("evict",)),
                Row("M", "Evict", "I", ("evict", "writeback")),
                Row("W", "Evict", "I", ("evict", "writeback"), guard="dirty"),
                Row("W", "Evict", "I", ("evict",), guard="clean"),
            ),
            impossible=(
                # sync only ever finds W copies; nothing evicts an I slot.
                ("I", "sync"), ("S", "sync"), ("M", "sync"), ("I", "Evict"),
            ),
        ),
    ),
)


@coherence_protocol("sisd", SISD_SPEC)
class SISDProtocol(MESIProtocol):
    """Self-invalidation/self-downgrade.  Inherits the MESI cache plumbing
    (hierarchy, NoC, LLC/DRAM fetch, the generalized hit paths) but never
    creates directory state: misses are served by the home LLC slice
    directly, evictions are silent unless dirty, and coherence work
    happens only at sync points, locally."""

    name = "SI/SD"
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
    # Region (synchronization) interface
    # ------------------------------------------------------------------
    def add_region(self, start: int, end: int) -> Optional[WardRegion]:
        """Mark ``[start, end)`` as inside a synchronization epoch.

        Copies already cached are tagged W so the closing sync finds them;
        a full CAM means the addresses just stay on the plain SI/SD paths
        (safe — they self-invalidate at their next RMW/eviction instead).
        """
        region = self.region_table.add(start, end)
        tracer = self.tracer
        if region is not None:
            self.stats.ward_region_adds += 1
            self.stats.count_message(MessageType.REGION_ADD, "intra")
            if tracer.enabled:
                tracer.region("add", region.region_id, start, end)
            for core in range(self.config.num_cores):
                for block in list(self.l2[core].blocks()):
                    if start <= block.addr < end and block.state is not W:
                        if tracer.enabled:
                            tracer.transition(
                                f"L2-{core}", block.addr,
                                block.state.value, "W",
                            )
                        block.state = W
        elif tracer.enabled:
            tracer.region("reject", -1, start, end)
        return region

    def remove_region(self, region: Optional[WardRegion]) -> None:
        """Close a synchronization epoch: self-downgrade every dirty W copy
        in the region and self-invalidate all of them, on every core."""
        if region is None:
            return
        self.region_table.remove(region)
        self.stats.ward_region_removes += 1
        self.stats.count_message(MessageType.REGION_REMOVE, "intra")
        invalidated = 0
        for core in range(self.config.num_cores):
            doomed = [
                block
                for block in list(self.l2[core].blocks())
                if block.state is W
                and region.start <= block.addr < region.end
                and not self.region_table.contains(block.addr)
            ]
            for block in doomed:
                self._self_invalidate(core, block)
                invalidated += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.region(
                "remove", region.region_id, region.start, region.end,
                blocks=invalidated,
            )

    # ------------------------------------------------------------------
    # SI and SD primitives (purely local: no remote cache is touched)
    # ------------------------------------------------------------------
    def _self_downgrade(self, core: int, block: CacheBlock) -> None:
        """SD: push the copy's written sectors to the home LLC slice."""
        if not block.written_mask:
            return
        self.noc.core_to_home(core, self.home(block.addr), _WB_DATA)
        self.stats.writebacks += 1
        self.stats.extra["self_downgrades"] += 1
        self._llc_fill(block.addr)
        block.clear_written()

    def _self_invalidate(self, core: int, block: CacheBlock) -> None:
        """SI: flush if dirty, then drop the local copy."""
        self._self_downgrade(core, block)
        self.stats.extra["self_invalidations"] += 1
        if self.tracer.enabled:
            self.tracer.transition(
                f"L2-{core}", block.addr, block.state.value, "I"
            )
        self.l2[core].invalidate(block.addr)
        self.l1[core].invalidate(block.addr)
        block.state = I

    # ------------------------------------------------------------------
    # The access paths
    # ------------------------------------------------------------------
    def access(self, core: int, addr: int, size: int, atype: AccessType) -> int:
        if atype is _RMW:
            return self._rmw_at_home(core, addr, size)
        return super().access(core, addr, size, atype)

    def _rmw_at_home(self, core: int, addr: int, size: int) -> int:
        """Atomics execute at the home LLC slice (there is no exclusivity
        a private copy could provide); any local copy is flushed first so
        the home sees current data."""
        bs = self._block_size
        block_addr = addr - (addr % bs)
        stats = self.stats
        stats.total_accesses += 1
        latency = self._l1_latency
        block = self.l1[core].lookup(block_addr)
        if block is None:
            latency += self._l2_latency
            block = self.l2[core].lookup(block_addr)
        if block is not None:
            self._self_invalidate(core, block)
        home = self.home(block_addr)
        latency += self.noc.core_to_home(core, home, _GET_M)
        latency += self.config.l3.latency
        latency += self._fetch_data_at_home(block_addr)
        latency += self.noc.home_to_core(home, core, _DATA)
        return latency

    def _miss(self, core: int, block_addr: int, atype: AccessType, mask: int) -> int:
        """Miss path: data straight from the home LLC slice.  No directory
        entry is created or consulted."""
        home = self.home(block_addr)
        mtype = _GET_M if atype is not _LOAD else _GET_S
        latency = self.noc.core_to_home(core, home, mtype)
        latency += self.config.l3.latency
        latency += self._fetch_data_at_home(block_addr)
        latency += self.noc.home_to_core(home, core, _DATA)
        if self.region_table.contains(block_addr):
            state = W
            self.stats.ward_accesses += 1
        elif atype is _LOAD:
            state = S
        else:
            state = M
        self._install_private(core, block_addr, state, mask)
        return latency

    # ------------------------------------------------------------------
    def _evict_private(self, core: int, block: CacheBlock) -> None:
        # No directory to keep exact: dirty copies self-downgrade, clean
        # ones vanish without a message.
        self.l1[core].invalidate(block.addr)
        self._self_downgrade(core, block)
        block.state = I

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        for directory in self.dirs:
            if len(directory):
                raise ProtocolError(
                    "SI/SD created directory state "
                    f"({len(directory)} entries on socket {directory.socket})"
                )
        if self.stats.invalidations or self.stats.downgrades:
            raise ProtocolError(
                "SI/SD sent remote invalidations/downgrades "
                f"(inv={self.stats.invalidations}, dg={self.stats.downgrades})"
            )
        for core in range(self.config.num_cores):
            for block in self.l2[core].blocks():
                if block.state not in (S, M, W):
                    raise ProtocolError(
                        f"core {core} holds {block.addr:#x} in "
                        f"non-SI/SD state {block.state}"
                    )
                if block.state is W and not self.region_table.contains(
                    block.addr
                ):
                    raise ProtocolError(
                        f"core {core} holds W copy of {block.addr:#x} "
                        "outside every active region"
                    )
        if len(self.region_table) > self.region_table.capacity:
            raise ProtocolError("region table exceeded its CAM capacity")
