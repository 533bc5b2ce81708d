"""The replay kernel: trace in, bit-identical ``RunStats`` out.

A replay runs in two passes over a recorded trace.

* The **memory pass** drives the registered protocols' state machines
  (MESI, WARDen, MOESI, SI/SD — dispatched on the trace's recorded
  protocol key) over packed arrays and emits each access's latency.  It
  holds everything a latency cannot change: cache contents and LRU order,
  per-core coherence states (``_I, _S, _O, _E, _M, _W = 0..5``), the
  directory, WARD regions, message counts and the coherence counters.
* The **core-timing pass** turns those latencies into time: the
  per-thread clocks, the TSO store buffer, load and store-buffer stalls,
  ``cycles`` and energy.  It walks only the *barriers* — stores, RMWs and
  scheduler clock clamps — because between two barriers a thread's clock
  just adds its compute charges and one latency per load.

The trace fixes the event order, so the coherence state never depends on
a latency.  Configs that differ only in :data:`TIMING_FIELDS` (and the
cache levels' ``latency``) therefore share one :func:`memory_key` and
one memory pass.  :class:`ReplayKernel` takes such a group: every latency
constant is *lane-packed* — one fixed-width field per config in a single
int — so ``+`` adds all configs' latencies at once, and the four ``max``
sites use :func:`_lane_max`.  A single-config replay is a group of one,
where packing is the identity.

The memory pass works over packed state:

* block addresses are factorized once into dense ids, so all per-block
  state lives in flat arrays: a ``bytearray`` of coherence states and a
  written-mask list per core, plus directory state/owner arrays and an
  int-bitmask sharer vector;
* cache sets are plain dicts keyed by block id (insertion order = LRU
  order, exactly like :class:`~repro.mem.cache.SetAssocCache`'s ordered
  sets), so presence in the dict *is* validity;
* consecutive same-thread accesses to the same block — the dominant
  pattern after epoching — are flagged at load time (``rep``) and served
  by a branch-minimal fast path: a guaranteed L1-MRU hit, no LRU
  maintenance, no method calls.

Every slow-path transaction is a line-for-line transcription of the
object protocols in :mod:`repro.coherence`, sharing the genuinely subtle
pieces — :func:`~repro.coherence.warden.reconcile_plan`,
:func:`~repro.mem.cache.set_index_params`,
:func:`~repro.coherence.mesi.llc_config`, and the real
:class:`~repro.coherence.regions.RegionTable` — so the two cannot drift
on the parts that are easy to get wrong.  The replay-identity tests then
pin the rest bit-for-bit.

Replaying under a *different* config than the recorded one is a
trace-driven approximation: the instruction stream is the recorded one,
only the memory system's response changes.  Useful for memory-hierarchy
sweeps; never fed into the exact-result caches.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, deque
from typing import List, Optional, Sequence

from repro.common.config import MachineConfig
from repro.common.errors import ConfigError, UnknownProtocolError
from repro.common.stats import CoreStats, RunStats
from repro.common.types import MessageType
from repro.coherence.mesi import MESIProtocol, llc_config
from repro.coherence.regions import RegionTable
from repro.coherence.warden import reconcile_plan
from repro.energy.model import EnergyModel
from repro.mem.cache import set_index_params
from repro.obs.tracer import ReplayEvent
from repro.replay.trace import (
    AT_LOAD,
    AT_RMW,
    AT_STORE,
    K_ACCESS,
    K_FLUSH,
    K_LLC_WARM,
    K_PLACE,
    K_REGION_ADD,
    K_REGION_REMOVE,
    K_SYNC,
    Trace,
    config_from_dict,
    decode_result,
)

_PAGE_SHIFT = MESIProtocol.PAGE_SHIFT

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
_RECONCILE = MessageType.RECONCILE
_REGION_ADD_MSG = MessageType.REGION_ADD
_REGION_REMOVE_MSG = MessageType.REGION_REMOVE

# coherence state codes in the packed per-(core, block) state arrays.
# Ordering is load-bearing: for MESI/WARDen/MOESI, st >= _E <=> the state
# grants writes silently (M/E/W; O sits below E because an O store must
# ask the directory); for SI/SD — which never holds E/O — the silent-
# write threshold drops to _S (every cached state absorbs stores).
_I, _S, _O, _E, _M, _W = 0, 1, 2, 3, 4, 5

_KINDS = frozenset((
    K_ACCESS, K_REGION_ADD, K_REGION_REMOVE, K_PLACE, K_SYNC, K_FLUSH,
    K_LLC_WARM,
))
#: core-timing op code of a clock clamp (access barriers use their atype)
_OP_SYNC = 3

#: MachineConfig fields that only set timing.  Configs differing in
#: nothing else — plus the ``latency`` of each cache level — share a
#: memory pass; every other field, including any added later, splits
#: the group (see :func:`memory_key`).
TIMING_FIELDS = (
    "name",
    "dram_latency",
    "hop_intra_latency",
    "socket_link_latency",
    "remote_link_latency",
    "disaggregated",
    "store_buffer_entries",
    "energy",
)
_CANONICAL = MachineConfig()


def memory_key(config: MachineConfig) -> MachineConfig:
    """``config`` with its timing-only fields set to canonical values.

    Replays of one trace under configs with equal keys reach the same
    coherence states and counters; only their latencies differ.
    """
    canon = {name: getattr(_CANONICAL, name) for name in TIMING_FIELDS}
    for level in ("l1", "l2", "l3"):
        canon[level] = dataclasses.replace(getattr(config, level), latency=1)
    return dataclasses.replace(config, **canon)


def memory_groups(configs: Sequence[MachineConfig]) -> List[List[int]]:
    """Indices of ``configs`` grouped by :func:`memory_key`, groups in
    order of first appearance and members in config order."""
    groups: dict = {}
    for i, config in enumerate(configs):
        groups.setdefault(memory_key(config), []).append(i)
    return list(groups.values())


def _pack(values, width: int) -> int:
    """One ``width``-bit field per lane, lane 0 in the low bits."""
    packed = 0
    for lane, value in enumerate(values):
        packed |= value << (lane * width)
    return packed


def _lane_max(width: int, lanes: int):
    """Lane-wise ``max`` of two packed ints whose fields stay below
    ``1 << (width - 1)``.

    The top bit of each field is a guard: ``(a | guard) - b`` cannot
    borrow across fields and keeps a field's guard set exactly where
    ``a >= b``, which selects that field of ``a``.
    """
    if lanes == 1:
        return max
    guard = _pack([1 << (width - 1)] * lanes, width)
    full = (1 << (width * lanes)) - 1
    ones = (1 << width) - 1
    shift = width - 1

    def lane_max(a: int, b: int) -> int:
        take_a = ((((a | guard) - b) & guard) >> shift) * ones
        return (a & take_a) | (b & (full ^ take_a))

    return lane_max


class _Prep:
    """Config-independent columns of one trace at one block size."""

    __slots__ = (
        # memory pass
        "kind", "thr", "atype", "addr", "aux", "bid", "rep", "baddrs", "mask",
        # core-timing pass: per barrier, then per thread for its tail
        "slot", "b_thr", "b_op", "b_charge", "b_loads", "b_aux", "tail_charge",
        "tail_loads",
        # core counters
        "accesses", "loads", "stores", "rmws", "spin_loads", "compute_instrs",
    )


def _preprocess(tr, bs: int) -> _Prep:
    """Config-independent load-time pass: column lists, block-id
    factorization, the adjacent-repeat flags, written-sector masks, the
    barrier structure of the core-timing pass and the core counters.

    Raises :class:`ConfigError` on an event no replay can interpret.
    Memoized per trace (keyed by block size) — see ``Trace._prep``.
    """
    n = len(tr)
    kind = tr.kind.tolist()
    thr = tr.thread.tolist()
    atype = tr.atype.tolist()
    sizes = tr.size.tolist()
    spin = tr.spin.tolist()
    addr = tr.addr.tolist()
    aux = tr.aux.tolist()
    pre_i = tr.pre_instrs.tolist()
    pre_c = tr.pre_cycles.tolist()

    unknown = set(kind) - _KINDS
    if unknown:
        k = next(k for k, kd in enumerate(kind) if kd in unknown)
        raise ConfigError(f"trace event {k}: unknown event kind {kind[k]}")
    if n and min(thr) < 0:
        k = thr.index(min(thr))
        raise ConfigError(f"trace event {k}: negative thread id {thr[k]}")
    if n and min(sizes) < 0:
        k = sizes.index(min(sizes))
        raise ConfigError(f"trace event {k}: negative access size {sizes[k]}")

    bid = [-1] * n
    rep = [False] * n
    uniq_set = set()
    for k in range(n):
        if kind[k] == K_ACCESS or kind[k] == K_LLC_WARM:
            a = addr[k]
            uniq_set.add(a - a % bs)
    # sorted: block-id order == address order, so sorted(region.blocks)
    # iterates like the object protocol's sorted block addresses
    baddrs = sorted(uniq_set)
    index = {a: i for i, a in enumerate(baddrs)}
    prev_acc = False
    pt = -1
    pb = -1
    for k in range(n):
        kd = kind[k]
        if kd == K_ACCESS or kd == K_LLC_WARM:
            a = addr[k]
            b = index[a - a % bs]
            bid[k] = b
            if kd != K_ACCESS:
                prev_acc = False
                continue
            if prev_acc and thr[k] == pt and b == pb:
                rep[k] = True
            prev_acc = True
            pt = thr[k]
            pb = b
        else:
            prev_acc = False

    # Written-sector masks per event.
    mask = [0] * n
    for k in range(n):
        if kind[k] == K_ACCESS and atype[k] != AT_LOAD:
            a = addr[k]
            mask[k] = ((1 << sizes[k]) - 1) << (a % bs)

    # Core-timing structure.  A barrier carries its thread's running
    # charge total (inclusive) and load count (exclusive); the loads of a
    # thread up to a barrier form that barrier's segment, the loads after
    # its last barrier its tail.  ``slot[k]`` is a barrier's index, or a
    # load's segment index (a tail's is ``barriers + thread``).
    nthr = max(thr) + 1 if n else 0
    slot = [-1] * n
    waiting = [[] for _ in range(nthr)]
    charge = [0] * nthr
    nloads = [0] * nthr
    b_thr: List[int] = []
    b_op: List[int] = []
    b_charge: List[int] = []
    b_loads: List[int] = []
    b_aux: List[int] = []
    stores = rmws = spins = 0
    for k, t, kd, at, sp, a, pi, pc in zip(
        range(n), thr, kind, atype, spin, aux, pre_i, pre_c,
    ):
        if pi or pc:
            charge[t] += pi + pc
        if kd == K_ACCESS:
            if at == AT_LOAD:
                waiting[t].append(k)
                nloads[t] += 1
                if sp:
                    spins += 1
                continue
            if at == AT_STORE:
                stores += 1
            elif at == AT_RMW:
                rmws += 1
            else:
                raise ConfigError(f"trace event {k}: unknown access type {at}")
        elif kd != K_SYNC:
            continue
        j = len(b_thr)
        for q in waiting[t]:
            slot[q] = j
        waiting[t] = []
        slot[k] = j
        b_thr.append(t)
        b_op.append(at if kd == K_ACCESS else _OP_SYNC)
        b_charge.append(charge[t])
        b_loads.append(nloads[t])
        b_aux.append(a)
    nb = len(b_thr)
    for t, ks in enumerate(waiting):
        for q in ks:
            slot[q] = nb + t

    p = _Prep()
    p.kind, p.thr, p.atype, p.addr, p.aux = kind, thr, atype, addr, aux
    p.bid, p.rep, p.baddrs, p.mask = bid, rep, baddrs, mask
    p.slot, p.b_thr, p.b_op = slot, b_thr, b_op
    p.b_charge, p.b_loads, p.b_aux = b_charge, b_loads, b_aux
    p.tail_charge, p.tail_loads = charge, nloads
    p.loads = sum(nloads)
    p.stores, p.rmws, p.spin_loads = stores, rmws, spins
    p.accesses = p.loads + stores + rmws
    p.compute_instrs = sum(pre_i)
    return p


def _required(meta: dict, key: str):
    """A meta field every recording writes: a trace without it is
    malformed, and guessing a default would replay it as something else."""
    if key not in meta:
        raise ConfigError(f"trace meta has no {key!r} field")
    return meta[key]


def _recorded_config(meta: dict) -> MachineConfig:
    if "config" not in meta:
        raise ConfigError(
            "trace meta has no recorded config; pass a config to replay it"
        )
    try:
        return config_from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"trace meta has a malformed config: {exc}") from None


class ReplayKernel:
    """Replays one :class:`~repro.replay.trace.Trace` under a group of
    configs that share one :func:`memory_key` (default: the recorded
    config alone)."""

    def __init__(
        self,
        trace: Trace,
        configs: Optional[Sequence[MachineConfig]] = None,
    ):
        self.trace = trace
        meta = trace.meta
        if configs is None:
            configs = [_recorded_config(meta)]
        self.configs = configs = list(configs)
        if not configs:
            raise ValueError("a replay needs at least one config")
        shared = memory_key(configs[0])
        if any(memory_key(config) != shared for config in configs[1:]):
            raise ValueError("a replay group must share one memory key")
        #: the group's memory-side config (its timing fields are lane 0's)
        self.config = configs[0]
        # dispatch mode from the recorded registry key
        key = _required(meta, "protocol")
        from repro.coherence.registry import available_protocols

        known = available_protocols()
        if key not in known:
            # A trace recorded by a build with extra protocols (or doctored
            # meta) must not silently replay under MESI semantics.
            raise UnknownProtocolError(key, known)
        self.protocol_key = key
        self.is_warden = key == "warden"
        self.is_moesi = key == "moesi"
        self.is_sisd = key == "sisd"
        # silent-write threshold for the hit paths; the threshold state is
        # also the source of the one silent transition (E -> M, or S -> M
        # under SI/SD where stores never consult a directory)
        self._smin = _S if self.is_sisd else _E
        self._prepare()
        self._check_lanes()

    # ------------------------------------------------------------------
    # Load-time preprocessing (the vectorized part)
    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        tr = self.trace
        cfg = self.config
        bs = cfg.block_size
        # The preprocessed columns depend only on the block size, so they
        # are memoized on the trace: repeat replays and config sweeps
        # (replay_matrix) skip the load-time pass.
        prep = tr._prep.get(bs)
        if prep is None:
            prep = tr._prep[bs] = _preprocess(tr, bs)
        self.prep = prep
        self.baddrs = prep.baddrs
        self.nblocks = len(self.baddrs)

        llc_cfg = llc_config(cfg)
        self.sidx1 = self._set_indices(cfg.l1)
        self.sidx2 = self._set_indices(cfg.l2)
        self.sidxL = self._set_indices(llc_cfg)
        self.l1_assoc = cfg.l1.associativity
        self.l2_assoc = cfg.l2.associativity
        self.llc_assoc = llc_cfg.associativity

        baddrs = self.baddrs
        nsock = cfg.num_sockets
        self.page_of = [a >> _PAGE_SHIFT for a in baddrs]
        self.interleave = [(a // bs) % nsock for a in baddrs]

    def _set_indices(self, cache_cfg) -> List[int]:
        num_sets, shift, maskv = set_index_params(cache_cfg)
        baddrs = self.baddrs
        if maskv >= 0:
            return [(a >> shift) & maskv for a in baddrs]
        if shift >= 0:
            return [(a >> shift) % num_sets for a in baddrs]
        bsz = cache_cfg.block_size
        return [(a // bsz) % num_sets for a in baddrs]

    def _check_lanes(self) -> None:
        """Each config must fit the trace; then size the lanes.

        One access's latency is at most ``l1 + l2 + l3 + dram + 4 links``
        (an L2-hit upgrade: request, invalidate, ack, grant), and every
        packed quantity is a sum of at most one latency per access, so
        ``bound * accesses`` fits below each field's guard bit.
        """
        prep = self.prep
        used = len(prep.tail_charge)
        final = _required(self.trace.meta, "final_thread")
        bound = 0
        for cfg in self.configs:
            if used > cfg.num_threads:
                raise ConfigError(
                    f"trace uses thread {used - 1} but config {cfg.name!r} "
                    f"has {cfg.num_threads} threads"
                )
            if not (isinstance(final, int) and 0 <= final < cfg.num_threads):
                raise ConfigError(
                    f"trace final_thread {final!r} is not a thread of "
                    f"config {cfg.name!r} ({cfg.num_threads} threads)"
                )
            link = max(cfg.hop_intra_latency, cfg.cross_socket_latency())
            lats = (cfg.l1.latency, cfg.l2.latency, cfg.l3.latency,
                    cfg.dram_latency, cfg.hop_intra_latency,
                    cfg.cross_socket_latency())
            if min(lats) < 0:
                raise ConfigError(f"config {cfg.name!r} has a negative latency")
            bound = max(bound, sum(lats[:4]) + 4 * link)
        self.final_thread = final
        self.lanes = len(self.configs)
        self.width = (bound * max(prep.accesses, 1)).bit_length() + 1

    def _lane(self, values: List[int], lane: int) -> List[int]:
        """Field ``lane`` of each packed value (the list itself for a
        group of one)."""
        if self.lanes == 1:
            return values
        width = self.width
        shift = lane * width
        ones = (1 << width) - 1
        out = [(v >> shift) & ones for v in values]
        assert not out or max(out) < 1 << (width - 1), "lane overflow"
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> List[RunStats]:
        """One memory pass, then one core-timing pass per config; the
        stats come back in config order."""
        barrier_lat, load_extra = self._memory_pass()
        return [
            self._finalize(lane, barrier_lat, load_extra)
            for lane in range(self.lanes)
        ]

    def _memory_pass(self):
        """Replay the protocol over the whole trace.

        Returns the packed latency of each barrier's access, and per load
        segment the packed sum of its loads' latency beyond the L1 hit
        (L1-hit loads add nothing there: their latency is ``l1``).
        """
        cfg = self.config
        ncores = cfg.num_cores
        nblocks = self.nblocks
        prep = self.prep

        # protocol state (packed)
        self.pstate = [bytearray(nblocks) for _ in range(ncores)]
        self.wmask = [[0] * nblocks for _ in range(ncores)]
        self.dstate = bytearray(nblocks)
        self.downer = [-1] * nblocks
        self.dshare = [0] * nblocks
        # caches: {set index -> {bid: True}} per core/socket, created lazily
        # like SetAssocCache._sets; dict order is LRU order
        self.l1sets = [{} for _ in range(ncores)]
        self.l2sets = [{} for _ in range(ncores)]
        self.llcsets = [{} for _ in range(cfg.num_sockets)]
        self.regions = RegionTable(capacity=cfg.max_ward_regions)
        self.rid_map = {}
        self.page_homes = {}
        self.messages = Counter()

        # coherence counters
        self.l2a = 0
        self.wacc = 0
        self.l3a = 0
        self.dram = 0
        self.inval = 0
        self.downg = 0
        self.wb = 0
        self.region_adds = 0
        self.region_removes = 0
        self.recon = 0
        self.recon_shared = 0
        self.recon_true = 0
        # protocol-specific extra counters (CoherenceStats.extra)
        self.x_dirty_shares = 0
        self.x_self_downgrades = 0
        self.x_self_invalidations = 0

        # lane-packed timing constants / topology
        lanes = self.configs
        width = self.width
        self.l1_lat = l1_lat = _pack((c.l1.latency for c in lanes), width)
        self.l2_lat = _pack((c.l2.latency for c in lanes), width)
        self.l3_lat = _pack((c.l3.latency for c in lanes), width)
        self.dram_lat = _pack((c.dram_latency for c in lanes), width)
        self.intra_lat = _pack((c.hop_intra_latency for c in lanes), width)
        self.sock_lat = _pack((c.cross_socket_latency() for c in lanes), width)
        self._lmax = _lane_max(self.width, self.lanes)
        self.soc_of_core = tuple(
            cfg.socket_of_core(c) for c in range(ncores)
        )
        self.soc_of_thread = tuple(
            cfg.socket_of_thread(t) for t in range(cfg.num_threads)
        )
        core_of = tuple(cfg.core_of_thread(t) for t in range(cfg.num_threads))

        nbar = len(prep.b_thr)
        barrier_lat = [l1_lat] * nbar
        load_extra = [0] * (nbar + len(prep.tail_charge))

        # hot locals
        slot = prep.slot
        aux = prep.aux
        addr = prep.addr
        pstate = self.pstate
        wmask = self.wmask
        access = self._access
        upgrade = self._upgrade
        l1sets = self.l1sets
        sidx1 = self.sidx1
        is_sisd = self.is_sisd
        smin = self._smin
        sisd_rmw = self._sisd_rmw
        wacc_f = 0

        # One flat unpack per event beats re-subscripting the hot columns:
        # the loop body is the throughput ceiling of the whole replay.
        for k, t, kd, b, at, rp, mask_k in zip(
            range(len(prep.kind)), prep.thr, prep.kind, prep.bid, prep.atype,
            prep.rep, prep.mask,
        ):
            if kd == K_ACCESS:
                core = core_of[t]
                if at == AT_RMW and is_sisd:
                    # SI/SD atomics execute at the home slice and never
                    # leave a cached copy, so the MRU/L1-hit assumptions
                    # below do not apply.
                    barrier_lat[slot[k]] = sisd_rmw(core, b)
                    continue
                if rp:
                    # Guaranteed L1-MRU hit (same thread, same block as the
                    # previous event): serve without touching LRU order.
                    # (Under SI/SD the guarantee has one hole — an RMW
                    # self-invalidates its block, so the follow-up access
                    # sees _I and must take the full path.)
                    st = pstate[core][b]
                    if at == AT_LOAD:
                        if st or not is_sisd:
                            if st == _W:
                                wacc_f += 1
                            continue
                    elif st >= smin:
                        if st == _W:
                            wacc_f += 1
                        elif st == smin:
                            pstate[core][b] = _M  # silent E -> M (S -> M)
                        wmask[core][b] |= mask_k
                        continue
                    # S-state write: needs the directory; fall through to
                    # the full transaction.
                # Inlined _access L1-hit path (the dominant case): LRU
                # refresh + state check without a method call.  Anything
                # past the L1 falls back to the full transcription.
                cset1 = l1sets[core].get(sidx1[b])
                if cset1 is not None and b in cset1:
                    del cset1[b]  # LRU refresh (move to end)
                    cset1[b] = True
                    st = pstate[core][b]
                    if at == AT_LOAD:
                        if st == _W:
                            wacc_f += 1
                        continue
                    if st >= smin:  # silent write grant
                        if st == _W:
                            wacc_f += 1
                        elif st == smin:
                            pstate[core][b] = _M
                        wmask[core][b] |= mask_k
                        continue
                    # S/O-state write: directory upgrade
                    barrier_lat[slot[k]] = l1_lat + upgrade(core, b, mask_k)
                    continue
                latency = access(core, b, at, mask_k, True)
                if at == AT_LOAD:
                    load_extra[slot[k]] += latency - l1_lat
                else:
                    barrier_lat[slot[k]] = latency
            elif kd == K_REGION_ADD:
                self._region_add(addr[k], aux[k])
            elif kd == K_REGION_REMOVE:
                self._region_remove(aux[k])
            elif kd == K_PLACE:
                self._place(t, addr[k], aux[k])
            elif kd == K_LLC_WARM:
                self._llc_fill(b, self._home(b))
            # K_SYNC, K_FLUSH: core timing only

        self.wacc += wacc_f
        return barrier_lat, load_extra

    def _core_timing(self, lane: int, barrier_lat, load_extra):
        """The core-timing pass of one config (CoreModel, transcribed).

        Returns ``(cycles, load stall cycles, store-buffer stall
        cycles)``.  A load stalls for its latency beyond the L1 hit, so
        the load stall is the sum of the segments' extras.
        """
        cfg = self.configs[lane]
        prep = self.prep
        l1 = cfg.l1.latency
        sb_cap = cfg.store_buffer_entries
        barrier_lat = self._lane(barrier_lat, lane)
        load_extra = self._lane(load_extra, lane)
        nthr = len(prep.tail_charge)
        clk = [0] * nthr
        charged = [0] * nthr  # charge total at the thread's last barrier
        loaded = [0] * nthr  # load count at the thread's last barrier
        sb = [deque() for _ in range(nthr)]
        sb_last = [0] * nthr
        sbstall = 0
        for t, op, charge, nloads, a, latency, extra in zip(
            prep.b_thr, prep.b_op, prep.b_charge, prep.b_loads, prep.b_aux,
            barrier_lat, load_extra,
        ):
            # the thread's charges and loads since its previous barrier
            ck = (
                clk[t] + charge - charged[t] + (nloads - loaded[t]) * l1
                + extra
            )
            charged[t] = charge
            loaded[t] = nloads
            if op == AT_STORE:  # TSO store-buffer issue
                buf = sb[t]
                while buf and buf[0] <= ck:
                    buf.popleft()
                if len(buf) >= sb_cap:
                    stall = buf[0] - ck
                    if stall > 0:
                        ck += stall
                        sbstall += stall
                    while buf and buf[0] <= ck:
                        buf.popleft()
                ck += 1
                comp = ck + latency
                last = sb_last[t]
                if comp < last:
                    comp = last
                sb_last[t] = comp
                buf.append(comp)
            elif op == AT_RMW:  # fence + full latency
                buf = sb[t]
                if buf:
                    last = buf[-1]
                    if last > ck:
                        sbstall += last - ck
                        ck = last
                    buf.clear()
                ck += latency
            elif a > ck:  # clock clamp (strand handoff)
                ck = a
            clk[t] = ck
        t = self.final_thread
        cycles = 0
        if t < nthr:
            cycles = (
                clk[t] + prep.tail_charge[t] - charged[t]
                + (prep.tail_loads[t] - loaded[t]) * l1
                + load_extra[len(barrier_lat) + t]
            )
        return cycles, sum(load_extra), sbstall

    # ------------------------------------------------------------------
    # Message accounting (Interconnect, transcribed; returns latency)
    # ------------------------------------------------------------------
    def _c2h(self, core: int, home: int, mtype) -> int:
        if self.soc_of_core[core] == home:
            self.messages[(mtype, "intra")] += 1
            return self.intra_lat
        self.messages[(mtype, "socket")] += 1
        return self.sock_lat

    def _c2c(self, core_a: int, core_b: int, mtype) -> int:
        if core_a == core_b:
            self.messages[(mtype, "local")] += 1
            return 0
        if self.soc_of_core[core_a] == self.soc_of_core[core_b]:
            self.messages[(mtype, "intra")] += 1
            return self.intra_lat
        self.messages[(mtype, "socket")] += 1
        return self.sock_lat

    def _home(self, b: int) -> int:
        home = self.page_homes.get(self.page_of[b])
        if home is not None:
            return home
        return self.interleave[b]

    # ------------------------------------------------------------------
    # MESIProtocol.access, transcribed over packed state
    # ------------------------------------------------------------------
    def _access(
        self, core: int, b: int, at: int, mask: int, l1_missed: bool = False
    ) -> int:
        latency = self.l1_lat
        present = False
        if not l1_missed:
            cset1 = self.l1sets[core].get(self.sidx1[b])
            present = cset1 is not None and b in cset1
            if present:
                del cset1[b]  # LRU refresh (move to end)
                cset1[b] = True
        if not present:
            latency += self.l2_lat
            self.l2a += 1
            cset2 = self.l2sets[core].get(self.sidx2[b])
            if cset2 is not None and b in cset2:
                del cset2[b]
                cset2[b] = True
                self._l1_install(core, b)
                present = True
        if present:
            st = self.pstate[core][b]
            if at == AT_LOAD:
                if st == _W:
                    self.wacc += 1
                return latency
            smin = self._smin
            if st >= smin:  # silent write grant
                if st == _W:
                    self.wacc += 1
                elif st == smin:
                    self.pstate[core][b] = _M
                self.wmask[core][b] |= mask
                return latency
            return latency + self._upgrade(core, b, mask)
        return latency + self._miss(core, b, at, mask)

    def _upgrade(self, core: int, b: int, mask: int) -> int:
        home = self._home(b)
        latency = self._c2h(core, home, _UPGRADE)
        latency += self.l3_lat
        self.l3a += 1
        # _handle_upgrade_at_dir (WARDen override first, then MESI).
        # Region lookups use the block base address, like the object
        # protocol (the raw access address may cross the region edge).
        if self.is_warden:
            if self.dstate[b] == _W or self.regions.contains(self.baddrs[b]):
                if self.dstate[b] != _W:
                    self._enter_ward(b)
                latency += self._h2c(home, core, _DATA_E)
                self.dshare[b] |= 1 << core
                self._register_ward(b)
                self.pstate[core][b] = _W
                self.wmask[core][b] |= mask
                self.wacc += 1
                return latency
        if self.is_moesi and self.dstate[b] == _O:
            # MOESIProtocol._handle_upgrade_at_dir: sharers die; a dirty
            # owner (unless it is the writer itself) forwards and dies too.
            lat = self._inv_sharers(b, core, home)
            owner = self.downer[b]
            if owner == core:
                lat += self._h2c(home, core, _DATA_E)
            else:
                fwd = self._h2c(home, owner, _FWD_GET_M)
                fwd += self._c2c(owner, core, _DATA)
                lat = self._lmax(lat, fwd)
                self.inval += 1
                cset = self.l2sets[owner].get(self.sidx2[b])
                if cset is not None:
                    cset.pop(b, None)
                cset = self.l1sets[owner].get(self.sidx1[b])
                if cset is not None:
                    cset.pop(b, None)
                self.pstate[owner][b] = _I
                self.wmask[owner][b] = 0
            self.dstate[b] = _M
            self.downer[b] = core
            self.dshare[b] = 0
            self.pstate[core][b] = _M
            self.wmask[core][b] |= mask
            return latency + lat
        latency += self._inv_sharers(b, core, home)
        latency += self._h2c(home, core, _DATA_E)
        self.dstate[b] = _M
        self.downer[b] = core
        self.dshare[b] = 0
        self.pstate[core][b] = _M
        self.wmask[core][b] |= mask
        return latency

    def _h2c(self, home: int, core: int, mtype) -> int:
        if self.soc_of_core[core] == home:
            self.messages[(mtype, "intra")] += 1
            return self.intra_lat
        self.messages[(mtype, "socket")] += 1
        return self.sock_lat

    def _inv_sharers(self, b: int, exclude: int, home: int) -> int:
        """Invalidate every sharer except ``exclude``; worst-case latency.

        Bitmask iteration ascends like the object protocol's
        ``sorted(entry.sharers)``; the caller resets ``dshare`` afterwards
        (mirroring ``entry.sharers.clear()`` at both call sites).
        """
        worst = 0
        inval = 0
        lmax = self._lmax
        sh = self.dshare[b]
        core = 0
        i2 = self.sidx2[b]
        i1 = self.sidx1[b]
        while sh:
            if sh & 1 and core != exclude:
                lat = self._h2c(home, core, _INV)
                lat += self._c2h(core, home, _INV_ACK)
                worst = lmax(worst, lat)
                inval += 1
                cset = self.l2sets[core].get(i2)
                if cset is not None:
                    cset.pop(b, None)
                cset = self.l1sets[core].get(i1)
                if cset is not None:
                    cset.pop(b, None)
                self.pstate[core][b] = _I
            sh >>= 1
            core += 1
        self.inval += inval
        return worst

    def _miss(self, core: int, b: int, at: int, mask: int) -> int:
        home = self._home(b)
        latency = self._c2h(core, home, _GET_M if at != AT_LOAD else _GET_S)
        latency += self.l3_lat
        if self.is_sisd:
            # SISDProtocol._miss: data straight from the home slice, no
            # directory entry touched; in-region blocks install as W.
            latency += self._fetch(b, home)
            latency += self._h2c(home, core, _DATA)
            if self.regions.contains(self.baddrs[b]):
                state = _W
                self.wacc += 1
            elif at == AT_LOAD:
                state = _S
            else:
                state = _M
            self._install(core, b, state, mask)
            return latency
        latency += self._at_dir(core, b, at, mask, home)
        return latency

    def _at_dir(self, core: int, b: int, at: int, mask: int, home: int) -> int:
        if self.is_warden:
            if self.dstate[b] == _W:
                return self._ward_grant(core, b, mask, home)
            if self.regions and self.regions.contains(self.baddrs[b]):
                self._enter_ward(b)
                return self._ward_grant(core, b, mask, home)
        st = self.dstate[b]
        if st == _I:
            latency = self._fetch(b, home)
            latency += self._h2c(home, core, _DATA_E)
            if at != AT_LOAD:
                self._install(core, b, _M, mask)
                self.dstate[b] = _M
            else:
                self._install(core, b, _E, 0)
                self.dstate[b] = _E
            self.downer[b] = core
            self.dshare[b] = 0
            return latency
        if st == _S:
            if at != AT_LOAD:
                inv_latency = self._inv_sharers(b, core, home)
                data_latency = self._fetch(b, home)
                data_latency += self._h2c(home, core, _DATA)
                self._install(core, b, _M, mask)
                self.dstate[b] = _M
                self.downer[b] = core
                self.dshare[b] = 0
                return self._lmax(inv_latency, data_latency)
            latency = self._fetch(b, home)
            latency += self._h2c(home, core, _DATA)
            self._install(core, b, _S, 0)
            self.dshare[b] |= 1 << core
            return latency
        if st == _O:
            # MOESIProtocol._handle_at_directory: readers are fed c2c by
            # the dirty owner; a writer invalidates sharers + owner.
            owner = self.downer[b]
            if at == AT_LOAD:
                latency = self._h2c(home, owner, _FWD_GET_S)
                latency += self._c2c(owner, core, _DATA)
                self._install(core, b, _S, 0)
                self.dshare[b] |= 1 << core
                self.x_dirty_shares += 1
                return latency
            inv_latency = self._inv_sharers(b, core, home)
            latency = self._h2c(home, owner, _FWD_GET_M)
            latency += self._c2c(owner, core, _DATA)
            self.inval += 1
            cset = self.l2sets[owner].get(self.sidx2[b])
            if cset is not None:
                cset.pop(b, None)
            cset = self.l1sets[owner].get(self.sidx1[b])
            if cset is not None:
                cset.pop(b, None)
            self.pstate[owner][b] = _I
            self.wmask[owner][b] = 0
            self._install(core, b, _M, mask)
            self.dstate[b] = _M
            self.downer[b] = core
            self.dshare[b] = 0
            return self._lmax(inv_latency, latency)
        # E or M: forward to the owner
        return self._forward(core, b, at, mask, home)

    def _forward(self, core: int, b: int, at: int, mask: int, home: int) -> int:
        owner = self.downer[b]
        if at != AT_LOAD:
            # Fwd-GetM: invalidate the owner, transfer ownership.
            latency = self._h2c(home, owner, _FWD_GET_M)
            latency += self._c2c(owner, core, _DATA)
            self.inval += 1
            cset = self.l2sets[owner].get(self.sidx2[b])
            if cset is not None:
                cset.pop(b, None)
            cset = self.l1sets[owner].get(self.sidx1[b])
            if cset is not None:
                cset.pop(b, None)
            self.pstate[owner][b] = _I
            self._install(core, b, _M, mask)
            self.dstate[b] = _M
            self.downer[b] = core
            self.dshare[b] = 0
            return latency
        # Fwd-GetS: downgrade the owner to S, write back if dirty — except
        # under MOESI with a directory-M line, where the owner keeps the
        # dirty data in O instead (MOESIProtocol._forward_to_owner; a
        # silently-upgraded E line stays on the MESI path, like the object
        # protocol which dispatches on the directory state).
        if self.is_moesi and self.dstate[b] == _M:
            latency = self._h2c(home, owner, _FWD_GET_S)
            latency += self._c2c(owner, core, _DATA)
            self.downg += 1
            self.pstate[owner][b] = _O  # written mask retained
            self._install(core, b, _S, 0)
            self.dstate[b] = _O
            self.dshare[b] |= 1 << core
            self.x_dirty_shares += 1
            return latency
        latency = self._h2c(home, owner, _FWD_GET_S)
        latency += self._c2c(owner, core, _DATA)
        self.downg += 1
        if self.pstate[owner][b] == _M:
            self._c2h(owner, home, _WB_DATA)
            self.wb += 1
            self._llc_fill(b, home)
        self.pstate[owner][b] = _S
        self.wmask[owner][b] = 0
        self._install(core, b, _S, 0)
        self.dstate[b] = _S
        self.dshare[b] = (1 << owner) | (1 << core)
        self.downer[b] = -1
        return latency

    # ------------------------------------------------------------------
    # Private-cache install/evict (SetAssocCache + _evict_private)
    # ------------------------------------------------------------------
    def _l1_install(self, core: int, b: int) -> None:
        sets = self.l1sets[core]
        idx = self.sidx1[b]
        cset = sets.get(idx)
        if cset is None:
            sets[idx] = {b: True}
            return
        if b in cset:
            del cset[b]
            cset[b] = True
            return
        assoc = self.l1_assoc
        while len(cset) >= assoc:
            del cset[next(iter(cset))]  # silent: block stays valid in L2
        cset[b] = True

    def _install(self, core: int, b: int, state: int, mask: int) -> None:
        """``_install_private``: L2 install (with victim eviction), written
        mask reset, L1 fill.  The mask reset is load-bearing: invalidation
        paths leave stale masks behind in the flat arrays (the object model
        simply discards the CacheBlock), so install must clobber them."""
        sets = self.l2sets[core]
        idx = self.sidx2[b]
        cset = sets.get(idx)
        if cset is None:
            cset = sets[idx] = {}
        if b in cset:
            del cset[b]
            cset[b] = True
        else:
            assoc = self.l2_assoc
            while len(cset) >= assoc:
                victim = next(iter(cset))
                del cset[victim]
                self._evict(core, victim)
            cset[b] = True
        self.pstate[core][b] = state
        self.wmask[core][b] = mask
        self._l1_install(core, b)

    def _evict(self, core: int, v: int) -> None:
        """``_evict_private``: ``v`` already left the L2 set (popitem before
        hook, like SetAssocCache._make_room)."""
        cset = self.l1sets[core].get(self.sidx1[v])
        if cset is not None:
            cset.pop(v, None)
        st = self.pstate[core][v]
        home = self._home(v)
        if self.is_sisd:
            # SISDProtocol._evict_private: self-downgrade if dirty, silent
            # otherwise — there is no directory to keep exact.
            if self.wmask[core][v]:
                self._c2h(core, home, _WB_DATA)
                self.wb += 1
                self.x_self_downgrades += 1
                self._llc_fill(v, home)
                self.wmask[core][v] = 0
            self.pstate[core][v] = _I
            return
        if st == _W:
            # _flush_ward_copy: pre-pay reconciliation (§5.3)
            if self.wmask[core][v]:
                self._c2h(core, home, _WB_DATA)
                self.wb += 1
                self._llc_fill(v, home)
            else:
                self._c2h(core, home, _PUT_M)
            self.dshare[v] &= ~(1 << core)
            self.pstate[core][v] = _I
            self.wmask[core][v] = 0
            return
        if st >= _E:  # M or E
            self._c2h(core, home, _PUT_M)
            if st == _M:
                self.wb += 1
                self._llc_fill(v, home)
            self.dstate[v] = _I
            self.downer[v] = -1
            self.dshare[v] = 0
        elif st == _O:
            # MOESIProtocol._evict_private: the deferred writeback lands.
            self._c2h(core, home, _PUT_M)
            self.wb += 1
            self._llc_fill(v, home)
            self.downer[v] = -1
            self.dstate[v] = _S if self.dshare[v] else _I
        elif st == _S:
            self._c2h(core, home, _PUT_M)
            self.dshare[v] &= ~(1 << core)
            # collapse only from dir-S: an S copy can leave an O entry
            if not self.dshare[v] and self.dstate[v] == _S:
                self.dstate[v] = _I
        self.pstate[core][v] = _I

    # ------------------------------------------------------------------
    # LLC / DRAM
    # ------------------------------------------------------------------
    def _llc_fill(self, b: int, home: int) -> None:
        sets = self.llcsets[home]
        idx = self.sidxL[b]
        cset = sets.get(idx)
        if cset is None:
            sets[idx] = {b: True}
            return
        if b in cset:
            del cset[b]
            cset[b] = True
            return
        assoc = self.llc_assoc
        while len(cset) >= assoc:
            del cset[next(iter(cset))]
        cset[b] = True

    def _fetch(self, b: int, home: int) -> int:
        """``_fetch_data_at_home``: LLC hit is free (the l3 latency was
        charged by the caller), miss goes to DRAM and fills the slice."""
        self.l3a += 1
        cset = self.llcsets[home].get(self.sidxL[b])
        if cset is not None and b in cset:
            del cset[b]
            cset[b] = True
            return 0
        self.dram += 1
        self.messages[(_DATA, "memory")] += 1
        self._llc_fill(b, home)
        return self.dram_lat

    # ------------------------------------------------------------------
    # SI/SD extensions (SISDProtocol, transcribed)
    # ------------------------------------------------------------------
    def _sisd_self_invalidate(self, core: int, b: int) -> None:
        """``_self_invalidate``: flush written sectors home, drop the copy."""
        if self.wmask[core][b]:
            self._c2h(core, self._home(b), _WB_DATA)
            self.wb += 1
            self.x_self_downgrades += 1
            self._llc_fill(b, self._home(b))
            self.wmask[core][b] = 0
        self.x_self_invalidations += 1
        cset = self.l2sets[core].get(self.sidx2[b])
        if cset is not None:
            cset.pop(b, None)
        cset = self.l1sets[core].get(self.sidx1[b])
        if cset is not None:
            cset.pop(b, None)
        self.pstate[core][b] = _I

    def _sisd_rmw(self, core: int, b: int) -> int:
        """``_rmw_at_home``: flush any local copy, execute at the home
        slice, cache nothing."""
        latency = self.l1_lat
        cset1 = self.l1sets[core].get(self.sidx1[b])
        present = cset1 is not None and b in cset1
        if present:
            del cset1[b]  # lookup refreshes LRU before the invalidate
            cset1[b] = True
        else:
            latency += self.l2_lat
            self.l2a += 1
            cset2 = self.l2sets[core].get(self.sidx2[b])
            present = cset2 is not None and b in cset2
            if present:
                del cset2[b]
                cset2[b] = True
        if present:
            self._sisd_self_invalidate(core, b)
        home = self._home(b)
        latency += self._c2h(core, home, _GET_M)
        latency += self.l3_lat
        latency += self._fetch(b, home)
        latency += self._h2c(home, core, _DATA)
        return latency

    def _sisd_region_add(self, start: int, end: int) -> None:
        """Tag already-cached copies in the new region W, like
        ``SISDProtocol.add_region``."""
        baddrs = self.baddrs
        for core in range(len(self.l2sets)):
            pst = self.pstate[core]
            for cset in self.l2sets[core].values():
                for b in cset:
                    if start <= baddrs[b] < end and pst[b] != _W:
                        pst[b] = _W

    def _sisd_region_remove(self, region) -> None:
        """``SISDProtocol.remove_region``: self-invalidate every W copy of
        the closed region, per core, unless another region still covers
        it.  Iteration order matches ``SetAssocCache.blocks()`` (set
        creation order, then LRU order) so LLC fills land identically."""
        contains = self.regions.contains
        baddrs = self.baddrs
        for core in range(len(self.l2sets)):
            pst = self.pstate[core]
            doomed = [
                b
                for cset in self.l2sets[core].values()
                for b in cset
                if pst[b] == _W
                and region.start <= baddrs[b] < region.end
                and not contains(baddrs[b])
            ]
            for b in doomed:
                self._sisd_self_invalidate(core, b)

    # ------------------------------------------------------------------
    # WARDen extensions
    # ------------------------------------------------------------------
    def _ward_grant(self, core: int, b: int, mask: int, home: int) -> int:
        latency = self._fetch(b, home)
        latency += self._h2c(home, core, _DATA_E)
        self.dshare[b] |= 1 << core
        self._register_ward(b)
        self._install(core, b, _W, mask)
        self.wacc += 1
        return latency

    def _enter_ward(self, b: int) -> None:
        owner = self.downer[b]
        if owner >= 0:
            self.dshare[b] |= 1 << owner
            cset = self.l2sets[owner].get(self.sidx2[b])
            if cset is not None and b in cset:
                self.pstate[owner][b] = _W
        self.downer[b] = -1
        self.dstate[b] = _W
        self._register_ward(b)

    def _register_ward(self, b: int) -> None:
        for region in self.regions.regions_containing(self.baddrs[b]):
            region.blocks.add(b)

    def _region_add(self, start: int, end: int) -> None:
        region = self.regions.add(start, end)
        if region is not None:
            self.region_adds += 1
            self.messages[(_REGION_ADD_MSG, "intra")] += 1
            self.rid_map[region.region_id] = region
            if self.is_sisd:
                self._sisd_region_add(start, end)

    def _region_remove(self, rid: int) -> None:
        region = self.rid_map.pop(rid, None)
        if region is None:
            return
        self.regions.remove(region)
        self.region_removes += 1
        self.messages[(_REGION_REMOVE_MSG, "intra")] += 1
        if self.is_sisd:
            self._sisd_region_remove(region)
            return
        contains = self.regions.contains
        baddrs = self.baddrs
        dstate = self.dstate
        for b in sorted(region.blocks):
            if dstate[b] != _W:
                continue  # already evicted/reconciled
            if contains(baddrs[b]):
                continue  # still covered by an overlapping region
            self._reconcile(b)

    def _reconcile(self, b: int) -> None:
        home = self._home(b)
        i2 = self.sidx2[b]
        copies = []
        sh = self.dshare[b]
        core = 0
        while sh:  # ascending, like sorted(entry.sharers)
            if sh & 1:
                cset = self.l2sets[core].get(i2)
                if cset is not None and b in cset:
                    copies.append(core)
            sh >>= 1
            core += 1
        self.recon += 1
        wmask = self.wmask
        union_mask, true_sharing, keep_flags = reconcile_plan(
            [wmask[c][b] for c in copies]
        )
        keep = 0
        for c, current in zip(copies, keep_flags):
            if wmask[c][b]:
                self._c2h(c, home, _RECONCILE)
                self.wb += 1
                wmask[c][b] = 0
            if current:
                self.pstate[c][b] = _S
                keep |= 1 << c
            else:
                self.pstate[c][b] = _I
                cset = self.l2sets[c].get(i2)
                if cset is not None:
                    cset.pop(b, None)
                cset = self.l1sets[c].get(self.sidx1[b])
                if cset is not None:
                    cset.pop(b, None)
        if union_mask:
            self._llc_fill(b, home)
        if len(copies) > 1:
            self.recon_shared += 1
            if true_sharing:
                self.recon_true += 1
        self.downer[b] = -1
        self.dshare[b] = keep
        self.dstate[b] = _S if keep else _I

    # ------------------------------------------------------------------
    def _place(self, thread: int, a: int, size: int) -> None:
        socket = self.soc_of_thread[thread]
        first = a >> _PAGE_SHIFT
        last = (a + (size if size > 1 else 1) - 1) >> _PAGE_SHIFT
        homes = self.page_homes
        for page in range(first, last + 1):
            if page not in homes:
                homes[page] = socket

    # ------------------------------------------------------------------
    def _finalize(self, lane: int, barrier_lat, load_extra) -> RunStats:
        """The ``RunStats`` of one config: the memory pass's counters (a
        fresh copy per config) plus that config's core timing."""
        meta = self.trace.meta
        cfg = self.configs[lane]
        prep = self.prep
        cycles, load_stall, sb_stall = self._core_timing(
            lane, barrier_lat, load_extra
        )
        stats = RunStats(
            benchmark=meta.get("benchmark", ""),
            protocol=meta.get("protocol_name", ""),
            machine=cfg.name,
            num_threads=cfg.num_threads,
        )
        coh = stats.coherence
        coh.messages = Counter(self.messages)
        coh.invalidations = self.inval
        coh.downgrades = self.downg
        coh.dram_accesses = self.dram
        coh.l3_accesses = self.l3a
        # every access performs exactly one L1 lookup, so the recorded
        # Machine.finalize L1 hits+misses sum equals total_accesses
        coh.l1_accesses = prep.accesses
        coh.l2_accesses = self.l2a
        coh.ward_accesses = self.wacc
        coh.total_accesses = prep.accesses
        coh.ward_region_adds = self.region_adds
        coh.ward_region_removes = self.region_removes
        coh.reconciled_blocks = self.recon
        coh.reconciled_shared_blocks = self.recon_shared
        coh.reconciled_true_sharing_blocks = self.recon_true
        coh.writebacks = self.wb
        if self.x_dirty_shares:
            coh.extra["dirty_shares"] = self.x_dirty_shares
        if self.x_self_downgrades:
            coh.extra["self_downgrades"] = self.x_self_downgrades
        if self.x_self_invalidations:
            coh.extra["self_invalidations"] = self.x_self_invalidations

        cores = CoreStats()
        cores.loads = prep.loads
        cores.stores = prep.stores
        cores.rmws = prep.rmws
        cores.compute_instrs = prep.compute_instrs
        cores.spin_loads = prep.spin_loads
        cores.load_stall_cycles = load_stall
        cores.store_buffer_stall_cycles = sb_stall
        for attempts, successes in meta.get("steals", []):
            cores.steal_attempts += attempts
            cores.successful_steals += successes
        stats.cores = cores
        stats.cycles = cycles
        EnergyModel(cfg).compute(stats)
        return stats


def replay_group(
    trace: Trace,
    configs: Optional[Sequence[MachineConfig]] = None,
) -> list:
    """Replay a trace under every config of one :func:`memory_key` group
    (default: the recorded config); returns ``BenchResult``\\ s in config
    order, each owning its objects."""
    from repro.analysis.run import BenchResult

    meta = trace.meta
    kernel = ReplayKernel(trace, configs)
    return [
        BenchResult(
            benchmark=meta.get("benchmark", ""),
            protocol=meta.get("protocol_name", ""),
            machine=config.name,
            size=meta.get("size", "default"),
            stats=stats,
            result=decode_result(meta["result"]) if "result" in meta else None,
            ward_checked=False,
        )
        for config, stats in zip(kernel.configs, kernel.run())
    ]


def replay_trace(
    trace: Trace,
    config: Optional[MachineConfig] = None,
    obs_sink=None,
):
    """Replay a trace through the kernel; returns a ``BenchResult``.

    With ``config=None`` the trace's recorded config is used and the result
    is bit-identical to the interpreted engine.  Passing a different config
    produces the trace-driven approximation described in the module doc.
    """
    meta = trace.meta
    if obs_sink is not None:
        obs_sink.emit(ReplayEvent(
            0, "replay-start", meta.get("benchmark", ""),
            meta.get("protocol_name", ""), events=len(trace),
        ))
    result, = replay_group(trace, None if config is None else [config])
    if obs_sink is not None:
        obs_sink.emit(ReplayEvent(
            0, "replay-done", result.benchmark, result.protocol,
            events=len(trace),
        ))
    return result
