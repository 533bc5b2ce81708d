"""Typed coherence-event bus: zero overhead when no sink is installed.

The simulator's hot paths (every memory access, every coherence message)
carry a :class:`Tracer` reference.  With no sink installed the tracer is
*disabled* and every instrumentation site pays exactly one attribute check
(``if tracer.enabled:``) — no event objects are built, no calls are made.
Installing a sink (anything with an ``emit(event)`` method, usually a
:class:`RingBufferSink`) flips ``enabled`` and every site starts emitting
typed event objects into it.

Event taxonomy (mirroring what the paper measures):

* :class:`AccessEvent`        — one memory access that took the full
  coherence path (:meth:`~repro.sim.machine.Machine.access`) with its
  latency (per-thread timeline; the Fig. 11 IPC story).
* :class:`HitCountEvent`      — how many private-cache hits of one access
  type and latency the epoch fast path and parked spinners retired over
  the whole run; one per ``(atype, latency)``, emitted when the machine
  finalizes its statistics.  These hits are counted, not traced one by
  one, so a traced run executes exactly like an untraced one.
* :class:`TransitionEvent`    — a cache/directory block state change
  (the Fig. 5 FSA in motion: Inv, downgrades, W entries).
* :class:`MessageEvent`       — one coherence message by link class
  (the traffic behind the Fig. 7b/8b energy results).
* :class:`EvictionEvent`      — a private-cache eviction (capacity traffic).
* :class:`RegionEvent`        — WARD region add/remove/reject (§4.2/§6.1).
* :class:`ReconcileEvent`     — one W block reconciled at region removal
  (§5.2: no/false/true sharing classification).
* :class:`StoreBufferEvent`   — a TSO store-buffer stall or fence drain
  (the Fig. 10 "invalidations are hidden" mechanism).
* :class:`StealEvent`         — a work-stealing probe (scheduler traffic).
* :class:`StrandEvent`        — strand (task) completion on a worker.

Timestamps are core-clock cycles of the *issuing* hardware thread.  The
machine stamps the tracer's ``cycle``/``thread`` context at each access
(fast path included) and region instruction, so protocol-internal sites
need no clock plumbing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import ClassVar


# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------

@dataclass(slots=True)
class AccessEvent:
    """One load/store/RMW: start cycle, issuing thread, and latency."""

    kind: ClassVar[str] = "access"
    #: accesses this event stands for (a :class:`HitCountEvent` holds many)
    count: ClassVar[int] = 1
    cycle: int
    thread: int
    atype: str
    addr: int
    size: int
    latency: int


@dataclass(slots=True)
class HitCountEvent:
    """``count`` private-cache hits of type ``atype`` and latency
    ``latency``, summed over the whole run; ``cycle`` is the makespan."""

    kind: ClassVar[str] = "hits"
    cycle: int
    atype: str
    latency: int
    count: int


@dataclass(slots=True)
class TransitionEvent:
    """A block changed coherence state at ``site`` (``L2-3``, ``dir-0``…)."""

    kind: ClassVar[str] = "transition"
    cycle: int
    site: str
    addr: int
    old: str
    new: str


@dataclass(slots=True)
class MessageEvent:
    """One coherence message on the interconnect, by link class."""

    kind: ClassVar[str] = "message"
    cycle: int
    mtype: str
    link: str
    count: int


@dataclass(slots=True)
class EvictionEvent:
    """A (valid) block left a cache to make room."""

    kind: ClassVar[str] = "evict"
    cycle: int
    cache: str
    addr: int
    state: str


@dataclass(slots=True)
class RegionEvent:
    """A WARD region instruction: ``add``, ``remove``, or ``reject``."""

    kind: ClassVar[str] = "region"
    cycle: int
    thread: int
    action: str
    region_id: int
    start: int
    end: int
    #: blocks reconciled (``remove`` only)
    blocks: int = 0


@dataclass(slots=True)
class ReconcileEvent:
    """One W block merged back to MESI at region removal (§5.2)."""

    kind: ClassVar[str] = "reconcile"
    cycle: int
    addr: int
    region_id: int
    copies: int
    true_sharing: bool
    writebacks: int


@dataclass(slots=True)
class StoreBufferEvent:
    """The TSO store buffer stalled the thread (``full``) or drained at an
    atomic (``fence``)."""

    kind: ClassVar[str] = "store_buffer"
    cycle: int
    thread: int
    cause: str
    stall_cycles: int
    occupancy: int


@dataclass(slots=True)
class StealEvent:
    """One work-stealing probe by ``thief`` against ``victim``'s deque."""

    kind: ClassVar[str] = "steal"
    cycle: int
    thief: int
    victim: int
    success: bool


@dataclass(slots=True)
class StrandEvent:
    """A strand finished on ``thread`` (``action`` currently ``finish``)."""

    kind: ClassVar[str] = "strand"
    cycle: int
    thread: int
    action: str
    task_id: int


@dataclass(slots=True)
class ReplayEvent:
    """A trace replay lifecycle event (see :mod:`repro.replay`).

    ``action`` is ``replay-start``/``replay-done``; ``events`` is the
    trace length.  ``cycle`` is always 0 — these are host-side events
    outside any machine's simulated clock, and the field only keeps the
    event shape uniform for collectors.
    """

    kind: ClassVar[str] = "replay"
    cycle: int
    action: str
    benchmark: str
    protocol: str
    events: int = 0


# ----------------------------------------------------------------------
# The sink
# ----------------------------------------------------------------------

class RingBufferSink:
    """Keep the most recent ``capacity`` events.

    ``dropped`` counts events evicted by the capacity bound; ``seen`` counts
    everything offered.
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self.buffer: deque = deque(maxlen=capacity)
        self.seen = 0
        self.dropped = 0

    def emit(self, event) -> None:
        self.seen += 1
        if len(self.buffer) == self.capacity:
            self.dropped += 1
        self.buffer.append(event)

    def events(self) -> list:
        return list(self.buffer)

    def __len__(self) -> int:
        return len(self.buffer)


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------

class Tracer:
    """Event bus shared by one :class:`~repro.sim.machine.Machine`.

    ``cycle`` and ``thread`` form the *emission context*: the machine sets
    them when it charges an access or region instruction to a thread, so
    deeper layers (protocol, directory, interconnect, caches) timestamp
    events without holding clock references.  ``hits`` counts the
    private-cache hits retired without an :class:`AccessEvent`, keyed by
    ``(AccessType, latency)``, until :meth:`flush_hits` emits them.
    """

    __slots__ = ("enabled", "sink", "cycle", "thread", "hits")

    def __init__(self) -> None:
        self.enabled = False
        #: None while disabled: every emission site checks ``enabled`` first
        self.sink = None
        self.cycle = 0
        self.thread = 0
        self.hits: dict = {}

    # -- lifecycle ------------------------------------------------------
    def install(self, sink) -> None:
        """Attach a sink and enable every instrumentation site."""
        self.sink = sink
        self.enabled = True

    # -- emission helpers (call only behind an ``enabled`` check) -------
    def count_hits(self, atype, latency: int, count: int) -> None:
        key = (atype, latency)
        self.hits[key] = self.hits.get(key, 0) + count

    def flush_hits(self, cycle: int) -> None:
        """Emit one :class:`HitCountEvent` per counted ``(atype, latency)``
        and reset the counts."""
        hits = sorted(
            (atype.value, latency, count)
            for (atype, latency), count in self.hits.items()
        )
        self.hits.clear()
        for atype, latency, count in hits:
            self.sink.emit(HitCountEvent(cycle, atype, latency, count))

    def access(
        self, cycle: int, thread: int, atype: str, addr: int, size: int,
        latency: int,
    ) -> None:
        self.sink.emit(AccessEvent(cycle, thread, atype, addr, size, latency))

    def transition(self, site: str, addr: int, old: str, new: str) -> None:
        self.sink.emit(TransitionEvent(self.cycle, site, addr, old, new))

    def message(self, mtype: str, link: str, count: int = 1) -> None:
        self.sink.emit(MessageEvent(self.cycle, mtype, link, count))

    def eviction(self, cache: str, addr: int, state: str) -> None:
        self.sink.emit(EvictionEvent(self.cycle, cache, addr, state))

    def region(
        self, action: str, region_id: int, start: int, end: int,
        blocks: int = 0,
    ) -> None:
        self.sink.emit(RegionEvent(
            self.cycle, self.thread, action, region_id, start, end, blocks,
        ))

    def reconcile(
        self, addr: int, region_id: int, copies: int, true_sharing: bool,
        writebacks: int,
    ) -> None:
        self.sink.emit(ReconcileEvent(
            self.cycle, addr, region_id, copies, true_sharing, writebacks
        ))

    def store_buffer(
        self, cycle: int, thread: int, cause: str, stall_cycles: int,
        occupancy: int,
    ) -> None:
        self.sink.emit(StoreBufferEvent(
            cycle, thread, cause, stall_cycles, occupancy
        ))

    def steal(
        self, cycle: int, thief: int, victim: int, success: bool
    ) -> None:
        self.sink.emit(StealEvent(cycle, thief, victim, success))

    def strand(
        self, cycle: int, thread: int, action: str, task_id: int
    ) -> None:
        self.sink.emit(StrandEvent(cycle, thread, action, task_id))
