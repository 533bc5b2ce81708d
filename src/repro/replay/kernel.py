"""The replay kernel: trace in, bit-identical ``RunStats`` out.

A trace replays one of two ways, chosen by its protocol's class.

* :func:`machine_replay` plays the events into a plain
  :class:`~repro.sim.machine.Machine` of the trace's protocol: the
  protocol's own engine class answers every access.  It serves every
  registered protocol, so each protocol is defined once (its
  ``ProtocolSpec`` table plus its engine class), and at any config it is
  the exact reference for the packed kernel below.
* :class:`ReplayKernel` is a packed transcription of exactly two classes,
  :class:`~repro.coherence.mesi.MESIProtocol` and
  :class:`~repro.coherence.warden.WARDenProtocol` — the pair whose sweeps
  are the kernel's reason to exist.  A subclass of either replays through
  its own code on the machine path.

The packed kernel runs in two passes over a recorded trace.

* The **memory pass** drives the protocol's state machine over packed
  arrays and emits each access's latency.  It holds everything a latency
  cannot change: cache contents and LRU order, per-core coherence states
  (``_I, _S, _E, _M, _W = 0..4``), the directory, WARD regions, NUMA
  page homes (placed by :func:`~repro.coherence.mesi.first_touch`) and
  one :class:`~repro.common.stats.CoherenceStats` of counters and
  messages.
* The **core-timing pass** turns those latencies into time with one real
  :class:`~repro.sim.core.CoreModel` per thread: its clock, TSO store
  buffer and store/RMW counters, then ``cycles`` and energy.  It walks
  only the *barriers* — stores, RMWs and scheduler clock clamps — because
  between two barriers a thread's clock just adds its compute charges and
  one latency per load; at each barrier the core's own ``store``,
  ``rmw`` or ``wait_until`` runs.

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
* an L1 hit — the dominant case — is served inline in the hot loop: an
  LRU refresh and a state check, no method call.

The kernel transcribes one protocol, WARDen.  By §5 of the paper WARDen is
MESI plus a ``W`` state entered only inside a WARD region.  A MESI trace
carries no region events, and its region table has no entries (a stray
region event is dropped, as ``MESIProtocol.add_region`` drops it), so
MESI replays through the same code as WARDen's region-free case.  Every
slow-path transaction is a line-for-line transcription of the object
protocols, sharing the genuinely subtle pieces —
:func:`~repro.coherence.warden.reconcile_plan`,
:func:`~repro.mem.cache.set_index_params`,
:func:`~repro.coherence.mesi.llc_config`, and the real
:class:`~repro.coherence.regions.RegionTable` — so the two cannot drift
on the parts that are easy to get wrong; the core model, the counters
and placement are the engine's own code.  The replay-identity tests then
pin the rest bit-for-bit against the machine replay.

A ``K_SPINS`` event, one parked spinner's stretch of ``n`` clean spins,
replays as ``2n`` L1-hit loads, ``n`` of them spin loads, that change no
cache or directory state: the core-timing pass counts them into their
load segment, the memory pass skips them, and :func:`machine_replay`
applies them through :meth:`~repro.sim.machine.Machine.spins` as the
engine did.  That is exact whenever the spinner's two padded blocks (its
deque bottom and its flag) are both in its L1 when the stretch starts: no
other thread touches them and a parked spinner issues nothing else, so
each spin would hit both and leave the LRU order as it found it.  At the
recorded config the clean spin that parked the worker put them there, so
the replay is bit-identical.  Under another config they are there too,
unless the two blocks cannot share the L1 (one set of a direct-mapped
L1); then the stretch still replays as hits where its spins would miss,
and both replay paths agree on that.

Replaying under a *different* config than the recorded one is a
trace-driven approximation: the instruction stream is the recorded one,
spin counts included, and only the memory system's response changes.
Useful for memory-hierarchy sweeps; never fed into the exact-result
caches.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.analysis.pool import unpickle_b64
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.common.stats import CoherenceStats, CoreStats, RunStats
from repro.common.types import AccessType, MessageType
from repro.coherence.mesi import (
    PAGE_SHIFT,
    MESIProtocol,
    first_touch,
    llc_config,
)
from repro.coherence.regions import RegionTable
from repro.coherence.registry import protocol_class
from repro.coherence.warden import WARDenProtocol, reconcile_plan
from repro.energy.model import EnergyModel
from repro.mem.cache import set_index_params
from repro.obs.tracer import ReplayEvent
from repro.sim.core import CoreModel
from repro.sim.machine import Machine
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
    K_SPINS,
    K_SYNC,
    Trace,
    config_from_dict,
)

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
# Ordering is load-bearing: st >= _E <=> the state grants writes silently
# (E/M/W); an S store must ask the directory.
_I, _S, _E, _M, _W = 0, 1, 2, 3, 4

#: the protocol classes the packed kernel transcribes; every other class,
#: subclasses included, replays on the machine path
_KERNEL_CLASSES = (MESIProtocol, WARDenProtocol)
#: trace atype code -> AccessType (the recorder's ``_AT_CODE``, inverted)
_ATYPES = {AT_LOAD: AccessType.LOAD, AT_STORE: AccessType.STORE,
           AT_RMW: AccessType.RMW}

_KINDS = frozenset((
    K_ACCESS, K_REGION_ADD, K_REGION_REMOVE, K_PLACE, K_SYNC, K_FLUSH,
    K_LLC_WARM, K_SPINS,
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


def _lru_insert(sets: dict, idx: int, b: int, assoc: int) -> None:
    """Make ``b`` the most recent entry of set ``idx`` of ``sets`` (an
    ``{index: {bid: True}}`` cache, sets created lazily), dropping least
    recent entries without a hook while the set is full."""
    cset = sets.get(idx)
    if cset is None:
        sets[idx] = {b: True}
        return
    if b in cset:
        del cset[b]
        cset[b] = True
        return
    while len(cset) >= assoc:
        del cset[next(iter(cset))]
    cset[b] = True


class _Prep:
    """Config-independent columns of one trace at one block size."""

    __slots__ = (
        # memory pass
        "kind", "thr", "atype", "addr", "aux", "bid", "baddrs", "mask",
        # core-timing pass: per barrier, then per thread for its tail
        "slot", "b_thr", "b_op", "b_charge", "b_loads", "b_aux", "tail_charge",
        "tail_loads",
        # counters the timing pass does not take from its cores
        "accesses", "loads", "spin_loads", "compute_instrs",
    )


def _check_events(kind, thr, atype, sizes, addr, aux) -> None:
    """Raise :class:`ConfigError` on an event no replay can interpret
    (the columns as lists)."""
    unknown = set(kind) - _KINDS
    if unknown:
        k = next(k for k, kd in enumerate(kind) if kd in unknown)
        raise ConfigError(f"trace event {k}: unknown event kind {kind[k]}")
    if thr and min(thr) < 0:
        k = thr.index(min(thr))
        raise ConfigError(f"trace event {k}: negative thread id {thr[k]}")
    if sizes and min(sizes) < 0:
        k = sizes.index(min(sizes))
        raise ConfigError(f"trace event {k}: negative access size {sizes[k]}")
    for k, kd, at, size, start, end in zip(
        range(len(kind)), kind, atype, sizes, addr, aux,
    ):
        if kd == K_ACCESS and at not in _ATYPES:
            raise ConfigError(f"trace event {k}: unknown access type {at}")
        if kd == K_REGION_ADD and end <= start:
            raise ConfigError(
                f"trace event {k}: empty region [{start:#x}, {end:#x})"
            )
        if kd == K_SPINS and (end < 1 or at or size or start):
            raise ConfigError(
                f"trace event {k}: a spin run needs a count of at least 1 "
                f"and no access type, size or address (count {end}, atype "
                f"{at}, size {size}, addr {start:#x})"
            )


def _preprocess(tr, bs: int) -> _Prep:
    """Config-independent load-time pass: column lists, block-id
    factorization, written-sector masks, the barrier structure of the
    core-timing pass and the core counters.

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
    _check_events(kind, thr, atype, sizes, addr, aux)

    bid = [-1] * n
    uniq_set = set()
    for k in range(n):
        if kind[k] == K_ACCESS or kind[k] == K_LLC_WARM:
            a = addr[k]
            uniq_set.add(a - a % bs)
    # sorted: block-id order == address order, so sorted(region.blocks)
    # iterates like the object protocol's sorted block addresses
    baddrs = sorted(uniq_set)
    index = {a: i for i, a in enumerate(baddrs)}
    for k in range(n):
        if kind[k] == K_ACCESS or kind[k] == K_LLC_WARM:
            a = addr[k]
            bid[k] = index[a - a % bs]

    # Written-sector masks per event.
    mask = [0] * n
    for k in range(n):
        if kind[k] == K_ACCESS and atype[k] != AT_LOAD:
            a = addr[k]
            mask[k] = ((1 << sizes[k]) - 1) << (a % bs)

    # Core-timing structure.  A barrier carries its thread's charges and
    # load count since the thread's previous barrier; the loads of a thread
    # up to a barrier form that barrier's segment, the loads after its last
    # barrier its tail.  ``slot[k]`` is a barrier's index, or a load's
    # segment index (a tail's is ``barriers + thread``).  A spin run's 2n
    # L1-hit loads count in their segment but have no slot: an L1 hit adds
    # no latency beyond ``l1``, so the memory pass has nothing to record.
    nthr = max(thr) + 1 if n else 0
    slot = [-1] * n
    waiting = [[] for _ in range(nthr)]
    spun = [0] * nthr  # spin-run loads since the thread's last barrier
    charge = [0] * nthr
    b_thr: List[int] = []
    b_op: List[int] = []
    b_charge: List[int] = []
    b_loads: List[int] = []
    b_aux: List[int] = []
    flagged = 0  # spin-flagged load events
    parked = 0  # spins of K_SPINS events
    for k, t, kd, at, sp, a, pi, pc in zip(
        range(n), thr, kind, atype, spin, aux, pre_i, pre_c,
    ):
        if pi or pc:
            charge[t] += pi + pc
        if kd == K_ACCESS:
            if at == AT_LOAD:
                waiting[t].append(k)
                if sp:
                    flagged += 1
                continue
        elif kd == K_SPINS:
            spun[t] += 2 * a
            parked += a
            continue
        elif kd != K_SYNC:
            continue
        j = len(b_thr)
        segment = waiting[t]
        for q in segment:
            slot[q] = j
        waiting[t] = []
        slot[k] = j
        b_thr.append(t)
        b_op.append(at if kd == K_ACCESS else _OP_SYNC)
        b_charge.append(charge[t])
        b_loads.append(len(segment) + spun[t])
        b_aux.append(a)
        charge[t] = 0
        spun[t] = 0
    nb = len(b_thr)
    for t, segment in enumerate(waiting):
        for q in segment:
            slot[q] = nb + t

    p = _Prep()
    p.kind, p.thr, p.atype, p.addr, p.aux = kind, thr, atype, addr, aux
    p.bid, p.baddrs, p.mask = bid, baddrs, mask
    p.slot, p.b_thr, p.b_op = slot, b_thr, b_op
    p.b_charge, p.b_loads, p.b_aux = b_charge, b_loads, b_aux
    p.tail_charge = charge
    p.tail_loads = [len(segment) + spun[t] for t, segment in enumerate(waiting)]
    p.accesses = kind.count(K_ACCESS) + 2 * parked
    p.loads = sum(b_loads) + sum(p.tail_loads)
    p.spin_loads = flagged + parked
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


def _protocol_class(meta: dict) -> type:
    """The registered class of the trace's protocol key; an unregistered
    key raises ``UnknownProtocolError`` rather than replay as another."""
    return protocol_class(_required(meta, "protocol"))


def _group_configs(meta: dict, configs) -> List[MachineConfig]:
    """``configs`` (default: the recorded config alone) as a list that
    shares one :func:`memory_key`."""
    if configs is None:
        configs = [_recorded_config(meta)]
    configs = list(configs)
    if not configs:
        raise ValueError("a replay needs at least one config")
    shared = memory_key(configs[0])
    if any(memory_key(config) != shared for config in configs[1:]):
        raise ValueError("a replay group must share one memory key")
    return configs


def _latencies(cfg: MachineConfig) -> tuple:
    return (cfg.l1.latency, cfg.l2.latency, cfg.l3.latency,
            cfg.dram_latency, cfg.hop_intra_latency,
            cfg.cross_socket_latency())


def _check_fit(meta: dict, used: int, configs) -> int:
    """Each config must fit a trace whose events use ``used`` threads;
    returns the trace's final thread."""
    final = _required(meta, "final_thread")
    for cfg in configs:
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
        if min(_latencies(cfg)) < 0:
            raise ConfigError(f"config {cfg.name!r} has a negative latency")
    return final


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
        self.configs = configs = _group_configs(meta, configs)
        #: the group's memory-side config (its timing fields are lane 0's)
        self.config = configs[0]
        cls = _protocol_class(meta)
        if cls not in _KERNEL_CLASSES:
            raise ConfigError(
                f"the replay kernel transcribes only the mesi and warden "
                f"protocols, not {meta['protocol']!r}; replay_trace replays "
                f"it through its own engine class"
            )
        #: MESI has no region CAM: a zero-entry table rejects every region
        #: add, as ``MESIProtocol.add_region`` does
        self.region_capacity = (
            self.config.max_ward_regions if cls.supports_ward else 0
        )
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
        self.page_of = [a >> PAGE_SHIFT for a in baddrs]
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
        self.final_thread = _check_fit(
            self.trace.meta, len(prep.tail_charge), self.configs
        )
        bound = max(
            sum(lats[:4]) + 4 * max(lats[4:])
            for lats in map(_latencies, self.configs)
        )
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
        self.regions = RegionTable(capacity=self.region_capacity)
        self.rid_map = {}
        self.page_homes = {}
        # the coherence counters (every lane's alike); ``messages`` is a
        # hot alias of its message counter
        self.coh = coh = CoherenceStats()
        self.messages = coh.messages

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
        wacc_f = 0

        # One flat unpack per event beats re-subscripting the hot columns:
        # the loop body is the throughput ceiling of the whole replay.
        for k, t, kd, b, at, mask_k in zip(
            range(len(prep.kind)), prep.thr, prep.kind, prep.bid, prep.atype,
            prep.mask,
        ):
            if kd == K_ACCESS:
                core = core_of[t]
                # The L1 hit (the dominant case), inline: LRU refresh +
                # state check without a method call.  Anything past the L1
                # goes to _access.
                cset1 = l1sets[core].get(sidx1[b])
                if cset1 is not None and b in cset1:
                    del cset1[b]  # LRU refresh (move to end)
                    cset1[b] = True
                    st = pstate[core][b]
                    if at == AT_LOAD:
                        if st == _W:
                            wacc_f += 1
                        continue
                    if st >= _E:  # silent write grant
                        if st == _W:
                            wacc_f += 1
                        elif st == _E:
                            pstate[core][b] = _M
                        wmask[core][b] |= mask_k
                        continue
                    # S-state write: directory upgrade
                    barrier_lat[slot[k]] = l1_lat + upgrade(core, b, mask_k)
                    continue
                latency = access(core, b, at, mask_k)
                if at == AT_LOAD:
                    load_extra[slot[k]] += latency - l1_lat
                else:
                    barrier_lat[slot[k]] = latency
            elif kd == K_REGION_ADD:
                self._region_add(addr[k], aux[k])
            elif kd == K_REGION_REMOVE:
                self._region_remove(aux[k])
            elif kd == K_PLACE:
                first_touch(
                    self.page_homes, addr[k], aux[k], self.soc_of_thread[t]
                )
            elif kd == K_LLC_WARM:
                self._llc_fill(b, self._home(b))
            # K_SYNC, K_FLUSH, K_SPINS: core timing only

        coh = self.coh
        coh.ward_accesses += wacc_f
        # every access performs exactly one L1 lookup, so the recorded
        # Machine.finalize L1 hits+misses sum equals total_accesses
        coh.l1_accesses = coh.total_accesses = prep.accesses
        return barrier_lat, load_extra

    def _core_timing(self, lane: int, barrier_lat, load_extra):
        """The core-timing pass of one config: one real ``CoreModel`` per
        thread, driven barrier by barrier.

        Returns ``(cycles, load stall cycles, cores)``.  Between barriers
        a thread's clock just adds its charges and one latency per load; a
        load stalls for its latency beyond the L1 hit, so the load stall
        is the sum of the segments' extras.
        """
        cfg = self.configs[lane]
        prep = self.prep
        l1 = cfg.l1.latency
        barrier_lat = self._lane(barrier_lat, lane)
        load_extra = self._lane(load_extra, lane)
        cores = [CoreModel(cfg, t) for t in range(len(prep.tail_charge))]
        for t, op, charge, nloads, a, latency, extra in zip(
            prep.b_thr, prep.b_op, prep.b_charge, prep.b_loads, prep.b_aux,
            barrier_lat, load_extra,
        ):
            core = cores[t]
            core.clock += charge + nloads * l1 + extra
            if op == AT_STORE:
                core.store(latency)
            elif op == AT_RMW:
                core.rmw(latency)
            else:  # clock clamp (strand handoff)
                core.wait_until(a)
        t = self.final_thread
        cycles = 0
        if t < len(cores):
            cycles = (
                cores[t].clock + prep.tail_charge[t]
                + prep.tail_loads[t] * l1 + load_extra[len(barrier_lat) + t]
            )
        return cycles, sum(load_extra), cores

    # ------------------------------------------------------------------
    # Message accounting (Interconnect, transcribed; returns latency)
    # ------------------------------------------------------------------
    def _hop(self, core: int, home: int, mtype) -> int:
        """One message between ``core`` and socket ``home``, either way."""
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
    # MESIProtocol.access past an L1 miss, transcribed over packed state
    # ------------------------------------------------------------------
    def _access(self, core: int, b: int, at: int, mask: int) -> int:
        latency = self.l1_lat + self.l2_lat
        self.coh.l2_accesses += 1
        cset2 = self.l2sets[core].get(self.sidx2[b])
        if cset2 is not None and b in cset2:
            del cset2[b]
            cset2[b] = True
            self._l1_install(core, b)
            st = self.pstate[core][b]
            if at == AT_LOAD:
                if st == _W:
                    self.coh.ward_accesses += 1
                return latency
            if st >= _E:  # silent write grant
                if st == _W:
                    self.coh.ward_accesses += 1
                elif st == _E:
                    self.pstate[core][b] = _M
                self.wmask[core][b] |= mask
                return latency
            return latency + self._upgrade(core, b, mask)
        return latency + self._miss(core, b, at, mask)

    def _upgrade(self, core: int, b: int, mask: int) -> int:
        home = self._home(b)
        latency = self._hop(core, home, _UPGRADE)
        latency += self.l3_lat
        self.coh.l3_accesses += 1
        # _handle_upgrade_at_dir (WARDen override first, then MESI).
        # Region lookups use the block base address, like the object
        # protocol (the raw access address may cross the region edge).
        if self.dstate[b] == _W or (
            self.regions and self.regions.contains(self.baddrs[b])
        ):
            if self.dstate[b] != _W:
                self._enter_ward(b)
            latency += self._hop(core, home, _DATA_E)
            self.dshare[b] |= 1 << core
            self._register_ward(b)
            self.pstate[core][b] = _W
            self.wmask[core][b] |= mask
            self.coh.ward_accesses += 1
            return latency
        latency += self._inv_sharers(b, core, home)
        latency += self._hop(core, home, _DATA_E)
        self.dstate[b] = _M
        self.downer[b] = core
        self.dshare[b] = 0
        self.pstate[core][b] = _M
        self.wmask[core][b] |= mask
        return latency

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
        while sh:
            if sh & 1 and core != exclude:
                lat = self._hop(core, home, _INV)
                lat += self._hop(core, home, _INV_ACK)
                worst = lmax(worst, lat)
                inval += 1
                self._drop(core, b)
            sh >>= 1
            core += 1
        self.coh.invalidations += inval
        return worst

    def _miss(self, core: int, b: int, at: int, mask: int) -> int:
        home = self._home(b)
        latency = self._hop(core, home, _GET_M if at != AT_LOAD else _GET_S)
        return latency + self.l3_lat + self._at_dir(core, b, at, mask, home)

    def _at_dir(self, core: int, b: int, at: int, mask: int, home: int) -> int:
        # WARDenProtocol._handle_at_directory, then MESI's
        st = self.dstate[b]
        if st == _W:
            return self._ward_grant(core, b, mask, home)
        if self.regions and self.regions.contains(self.baddrs[b]):
            self._enter_ward(b)
            return self._ward_grant(core, b, mask, home)
        if st == _I:
            latency = self._fetch(b, home)
            latency += self._hop(core, home, _DATA_E)
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
                data_latency += self._hop(core, home, _DATA)
                self._install(core, b, _M, mask)
                self.dstate[b] = _M
                self.downer[b] = core
                self.dshare[b] = 0
                return self._lmax(inv_latency, data_latency)
            latency = self._fetch(b, home)
            latency += self._hop(core, home, _DATA)
            self._install(core, b, _S, 0)
            self.dshare[b] |= 1 << core
            return latency
        # E or M: forward to the owner
        return self._forward(core, b, at, mask, home)

    def _forward(self, core: int, b: int, at: int, mask: int, home: int) -> int:
        owner = self.downer[b]
        if at != AT_LOAD:
            # Fwd-GetM: invalidate the owner, transfer ownership.
            latency = self._hop(owner, home, _FWD_GET_M)
            latency += self._c2c(owner, core, _DATA)
            self.coh.invalidations += 1
            self._drop(owner, b)
            self._install(core, b, _M, mask)
            self.dstate[b] = _M
            self.downer[b] = core
            self.dshare[b] = 0
            return latency
        # Fwd-GetS: downgrade the owner to S, write back if dirty.
        latency = self._hop(owner, home, _FWD_GET_S)
        latency += self._c2c(owner, core, _DATA)
        self.coh.downgrades += 1
        if self.pstate[owner][b] == _M:
            self._hop(owner, home, _WB_DATA)
            self.coh.writebacks += 1
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
        # an L1 victim leaves silently: the block stays valid in L2
        _lru_insert(self.l1sets[core], self.sidx1[b], b, self.l1_assoc)

    def _drop(self, core: int, b: int) -> None:
        """Invalidate ``core``'s copy of ``b``: out of its L2 and L1."""
        cset = self.l2sets[core].get(self.sidx2[b])
        if cset is not None:
            cset.pop(b, None)
        cset = self.l1sets[core].get(self.sidx1[b])
        if cset is not None:
            cset.pop(b, None)
        self.pstate[core][b] = _I

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
        if st == _W:
            # _flush_ward_copy: pre-pay reconciliation (§5.3)
            if self.wmask[core][v]:
                self._hop(core, home, _WB_DATA)
                self.coh.writebacks += 1
                self._llc_fill(v, home)
            else:
                self._hop(core, home, _PUT_M)
            self.dshare[v] &= ~(1 << core)
            self.pstate[core][v] = _I
            self.wmask[core][v] = 0
            return
        if st >= _E:  # M or E
            self._hop(core, home, _PUT_M)
            if st == _M:
                self.coh.writebacks += 1
                self._llc_fill(v, home)
            self.dstate[v] = _I
            self.downer[v] = -1
            self.dshare[v] = 0
        elif st == _S:
            self._hop(core, home, _PUT_M)
            self.dshare[v] &= ~(1 << core)
            # collapse only from dir-S, like the object protocol
            if not self.dshare[v] and self.dstate[v] == _S:
                self.dstate[v] = _I
        self.pstate[core][v] = _I

    # ------------------------------------------------------------------
    # LLC / DRAM
    # ------------------------------------------------------------------
    def _llc_fill(self, b: int, home: int) -> None:
        _lru_insert(self.llcsets[home], self.sidxL[b], b, self.llc_assoc)

    def _fetch(self, b: int, home: int) -> int:
        """``_fetch_data_at_home``: LLC hit is free (the l3 latency was
        charged by the caller), miss goes to DRAM and fills the slice."""
        self.coh.l3_accesses += 1
        cset = self.llcsets[home].get(self.sidxL[b])
        if cset is not None and b in cset:
            del cset[b]
            cset[b] = True
            return 0
        self.coh.dram_accesses += 1
        self.messages[(_DATA, "memory")] += 1
        self._llc_fill(b, home)
        return self.dram_lat

    # ------------------------------------------------------------------
    # WARDen extensions
    # ------------------------------------------------------------------
    def _ward_grant(self, core: int, b: int, mask: int, home: int) -> int:
        latency = self._fetch(b, home)
        latency += self._hop(core, home, _DATA_E)
        self.dshare[b] |= 1 << core
        self._register_ward(b)
        self._install(core, b, _W, mask)
        self.coh.ward_accesses += 1
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
            self.coh.ward_region_adds += 1
            self.messages[(_REGION_ADD_MSG, "intra")] += 1
            self.rid_map[region.region_id] = region

    def _region_remove(self, rid: int) -> None:
        region = self.rid_map.pop(rid, None)
        if region is None:
            return
        self.regions.remove(region)
        self.coh.ward_region_removes += 1
        self.messages[(_REGION_REMOVE_MSG, "intra")] += 1
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
        self.coh.reconciled_blocks += 1
        wmask = self.wmask
        union_mask, true_sharing, keep_flags = reconcile_plan(
            [wmask[c][b] for c in copies]
        )
        keep = 0
        for c, current in zip(copies, keep_flags):
            if wmask[c][b]:
                self._hop(c, home, _RECONCILE)
                self.coh.writebacks += 1
                wmask[c][b] = 0
            if current:
                self.pstate[c][b] = _S
                keep |= 1 << c
            else:
                self._drop(c, b)
        if union_mask:
            self._llc_fill(b, home)
        if len(copies) > 1:
            self.coh.reconciled_shared_blocks += 1
            if true_sharing:
                self.coh.reconciled_true_sharing_blocks += 1
        self.downer[b] = -1
        self.dshare[b] = keep
        self.dstate[b] = _S if keep else _I

    # ------------------------------------------------------------------
    def _finalize(self, lane: int, barrier_lat, load_extra) -> RunStats:
        """The ``RunStats`` of one config: the memory pass's counters (a
        fresh copy per config) plus that config's core timing."""
        meta = self.trace.meta
        cfg = self.configs[lane]
        prep = self.prep
        cycles, load_stall, timed = self._core_timing(
            lane, barrier_lat, load_extra
        )
        stats = RunStats(
            benchmark=meta.get("benchmark", ""),
            protocol=meta.get("protocol_name", ""),
            machine=cfg.name,
            num_threads=cfg.num_threads,
        )
        # a fresh copy of the memory pass's counters per config
        stats.coherence.merge(self.coh)
        cores = stats.cores
        for core in timed:
            cores.merge(core.stats)  # stores, RMWs, store-buffer stalls
        cores.loads = prep.loads
        cores.compute_instrs = prep.compute_instrs
        cores.spin_loads = prep.spin_loads
        cores.load_stall_cycles = load_stall
        _add_steals(cores, meta)
        stats.cycles = cycles
        EnergyModel(cfg).compute(stats)
        return stats


def _add_steals(cores: CoreStats, meta: dict) -> None:
    """Steal probes happen inside the scheduler, invisible to the
    protocol: the trace carries per-thread totals."""
    for attempts, successes in meta.get("steals", []):
        cores.steal_attempts += attempts
        cores.successful_steals += successes


def machine_replay(
    trace: Trace, config: Optional[MachineConfig] = None,
) -> RunStats:
    """Play the trace's events into a plain ``Machine`` of its protocol
    under ``config`` (default: the recorded config).

    The protocol's own engine class answers every access, so this is the
    replay of every protocol the packed kernel does not transcribe, and
    at any config the exact reference the kernel must reproduce.  It
    rejects the traces the kernel rejects, with the same errors.
    """
    meta = trace.meta
    config, = _group_configs(meta, None if config is None else [config])
    protocol_cls = _protocol_class(meta)
    kind, thr = trace.kind.tolist(), trace.thread.tolist()
    atype, sizes = trace.atype.tolist(), trace.size.tolist()
    addrs, auxs = trace.addr.tolist(), trace.aux.tolist()
    _check_events(kind, thr, atype, sizes, addrs, auxs)
    final = _check_fit(meta, max(thr, default=-1) + 1, [config])
    machine = Machine(config, protocol_cls)
    protocol = machine.protocol
    cores = machine.cores
    regions = {}  # recorded region id -> the replay's region
    for kd, t, at, size, spin, addr, aux, pre_i, pre_c in zip(
        kind, thr, atype, sizes, trace.spin.tolist(), addrs, auxs,
        trace.pre_instrs.tolist(), trace.pre_cycles.tolist(),
    ):
        core = cores[t]
        if pre_i:
            core.compute(pre_i)
        if pre_c:
            core.advance(pre_c)
        if kd == K_ACCESS:
            machine.access(t, addr, size, _ATYPES[at], spin=bool(spin))
        elif kd == K_REGION_ADD:
            region = protocol.add_region(addr, aux)
            if region is not None:
                regions[region.region_id] = region
        elif kd == K_REGION_REMOVE:
            protocol.remove_region(regions.pop(aux, None))
        elif kd == K_PLACE:
            machine.place(addr, aux, t)
        elif kd == K_SYNC:
            core.wait_until(aux)
        elif kd == K_LLC_WARM:
            machine.llc_warm_fill(addr, t)
        elif kd == K_SPINS:
            machine.spins(t, aux, 0)  # its backoff came in ``pre_c``
        # K_FLUSH: its charges only
    stats = machine.finalize(cores[final].clock)
    stats.benchmark = meta.get("benchmark", "")
    _add_steals(stats.cores, meta)
    EnergyModel(config).compute(stats)
    return stats


def kernel_replays(trace: Trace) -> bool:
    """Whether :func:`replay_group` sends ``trace`` to the packed kernel:
    its protocol class *is* one the kernel transcribes."""
    return _protocol_class(trace.meta) in _KERNEL_CLASSES


def replay_group(
    trace: Trace,
    configs: Optional[Sequence[MachineConfig]] = None,
) -> list:
    """Replay a trace under every config of one :func:`memory_key` group
    (default: the recorded config); returns ``BenchResult``\\ s in config
    order, each owning its objects.

    A trace of a protocol the packed kernel transcribes shares one memory
    pass across the group; any other protocol replays each config through
    :func:`machine_replay`.
    """
    from repro.analysis.run import BenchResult

    meta = trace.meta
    if kernel_replays(trace):
        kernel = ReplayKernel(trace, configs)
        configs, runs = kernel.configs, kernel.run()
    else:
        configs = _group_configs(meta, configs)
        runs = [machine_replay(trace, config) for config in configs]
    return [
        BenchResult(
            benchmark=meta.get("benchmark", ""),
            protocol=meta.get("protocol_name", ""),
            machine=config.name,
            size=meta.get("size", "default"),
            stats=stats,
            result=unpickle_b64(meta["result"]) if "result" in meta else None,
            ward_checked=False,
        )
        for config, stats in zip(configs, runs)
    ]


def replay_trace(
    trace: Trace,
    config: Optional[MachineConfig] = None,
    obs_sink=None,
):
    """Replay a trace; returns a ``BenchResult``.

    MESI and WARDen traces run through the packed kernel, every other
    protocol through :func:`machine_replay`.  With ``config=None`` the
    trace's recorded config is used and the result is bit-identical to the
    interpreted engine.  Passing a different config produces the
    trace-driven approximation described in the module doc.
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
