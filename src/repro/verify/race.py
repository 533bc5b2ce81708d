"""Vector-clock happens-before race detection over the fork/join task graph.

The paper's safety argument (§3) rests on two structural properties of data
inside WARD regions: no cross-thread read-after-write (condition 1) and
order-insensitive ("apathetic") write-after-write (condition 2).  This module
checks those properties *semantically*, at task granularity, instead of the
hardware-thread spot checks :class:`~repro.verify.ward_checker.WardChecker`
performs:

* Every task carries a vector clock over task ids, maintained FastTrack-style
  at the runtime's fork/join hooks: a fork copies the parent's clock into each
  child (plus a fresh component for the child) and bumps the parent; the join
  of the last outstanding child merges all children back into the parent and
  bumps it again.  Two accesses are *concurrent* iff neither task's clock
  component at its access is covered by the other task's clock.
* The detector keeps its own **logical** region table, fed by the runtime at
  the same mark/unmark sites the hardware uses under the FULL marking policy
  — page regions at allocation, construct regions over library-primitive
  outputs, both dropped at forks/joins.  Classification is therefore
  protocol-independent: the same program run under MESI and WARDen yields the
  same verdicts.  Logical construct regions span the whole array (the
  program-level WARD claim); the hardware's block-rounding is a conservative
  *restriction* of that span, so any access the hardware relaxes is inside
  the logical region too.

Every concurrent conflicting pair is classified:

=============================  ========================================
pair                           verdict
=============================  ========================================
read/write (either order)      **race** (breaks WARD condition 1 when a
                               shared region epoch covers it; breaks
                               determinacy everywhere else)
write/write in a shared
region epoch                   **benign WAW** (condition 2 — recorded,
                               counted, never raised)
write/write outside            **race**
RMW/RMW                        **atomic** (commutative update; counted)
=============================  ========================================

Races surface as :class:`repro.common.errors.RaceError` with a source-level
diagnostic: benchmark, both task paths in the spawn tree (``root.1.0`` is the
first child of the second child of the root), per-task op indices, hardware
threads, and the region ids involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.errors import RaceError
from repro.common.types import AccessType
from repro.coherence.regions import RegionTable


# ----------------------------------------------------------------------
# Vector-clock primitives (dict-backed, sparse over task ids)
# ----------------------------------------------------------------------

def vc_join(into: Dict[int, int], other: Dict[int, int]) -> Dict[int, int]:
    """Pointwise max of two clocks, merged *into* the first (returned)."""
    get = into.get
    for tid, clock in other.items():
        if get(tid, 0) < clock:
            into[tid] = clock
    return into


def happens_before(epoch: Tuple[int, int], vc: Dict[int, int]) -> bool:
    """True when the access epoch ``(clock, task_id)`` is ordered before
    every current/future access of a task whose clock is ``vc``."""
    clock, tid = epoch
    return clock <= vc.get(tid, 0)


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AccessInfo:
    """One side of a reported pair, with its source-level coordinates."""

    task_id: int
    task_path: str
    thread: int
    op_index: int
    atype: str
    region_ids: Tuple[int, ...]

    def describe(self) -> str:
        return (
            f"{self.atype} by task {self.task_path} "
            f"(op {self.op_index}, thread {self.thread})"
        )


@dataclass(frozen=True)
class RaceFinding:
    """One classified concurrent pair (race or benign WAW)."""

    kind: str  #: ``raw`` | ``war`` | ``waw`` | ``benign-waw``
    addr: int
    prior: AccessInfo
    current: AccessInfo
    #: region epochs covering BOTH accesses (the WARD pairing, if any)
    region_ids: Tuple[int, ...]
    benchmark: str = ""

    def describe(self) -> str:
        where = (
            f"inside WARD region {', '.join(map(str, self.region_ids))}"
            if self.region_ids
            else "outside any WARD region"
        )
        bench = f" [benchmark {self.benchmark}]" if self.benchmark else ""
        return (
            f"{self.kind} on address {self.addr:#x}: {self.prior.describe()} "
            f"is concurrent with {self.current.describe()} {where}{bench}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "addr": self.addr,
            "benchmark": self.benchmark,
            "region_ids": list(self.region_ids),
            "prior": vars(self.prior) | {"region_ids": list(self.prior.region_ids)},
            "current": vars(self.current)
            | {"region_ids": list(self.current.region_ids)},
        }


@dataclass
class RegionLog:
    """The in-region access stream of one region epoch (oracle replay)."""

    region_id: int
    start: int
    end: int
    #: ``(atype_name, task_id, addr)`` in observation order
    entries: List[Tuple[str, int, int]] = field(default_factory=list)
    truncated: bool = False


class _TaskState:
    __slots__ = ("task_id", "path", "vc", "ops")

    def __init__(self, task_id: int, path: str, vc: Dict[int, int]) -> None:
        self.task_id = task_id
        self.path = path
        self.vc = vc
        self.ops = 0


# ----------------------------------------------------------------------
# The detector
# ----------------------------------------------------------------------

class RaceDetector:
    """Happens-before determinacy-race detector for fork/join programs.

    Driven by :class:`repro.hlpl.runtime.Runtime` through five hooks —
    :meth:`on_root`, :meth:`on_fork`, :meth:`on_join`, :meth:`region_begin` /
    :meth:`region_end`, and :meth:`on_access` — or directly by unit tests.

    With ``raise_on_race=True`` (default) the first true race raises
    :class:`RaceError`; otherwise findings accumulate in :attr:`races`.
    ``record_regions=True`` additionally logs every in-region access per
    region epoch (see :class:`RegionLog`) for value-level oracle replay
    through :class:`~repro.verify.coherence_checker.WardMemoryModel`; logs
    longer than ``max_region_log`` entries are truncated and flagged.
    """

    def __init__(
        self,
        benchmark: str = "",
        raise_on_race: bool = True,
        record_regions: bool = False,
        max_region_log: int = 200_000,
    ) -> None:
        self.benchmark = benchmark
        self.raise_on_race = raise_on_race
        self.record_regions = record_regions
        self.max_region_log = max_region_log
        #: logical (software-side) region table — unbounded on purpose
        self.regions = RegionTable(capacity=None)
        self._tasks: Dict[int, _TaskState] = {}
        #: addr -> (clock, task_id, AccessInfo) of the last write
        self._writes: Dict[int, Tuple[int, int, AccessInfo]] = {}
        #: addr -> {task_id: (clock, AccessInfo)} reads since the last write
        self._reads: Dict[int, Dict[int, Tuple[int, AccessInfo]]] = {}
        self.races: List[RaceFinding] = []
        self.benign_waws: List[RaceFinding] = []
        self.atomic_updates = 0
        self.checked_accesses = 0
        self.tasks_tracked = 0
        self.region_epochs = 0
        self._open_logs: Dict[int, RegionLog] = {}
        self.region_logs: List[RegionLog] = []

    # ------------------------------------------------------------------
    # Spawn-tree hooks
    # ------------------------------------------------------------------
    def on_root(self, task) -> None:
        """Register the root task (clock ``{root: 1}``, path ``root``)."""
        self._tasks[task.task_id] = _TaskState(
            task.task_id, "root", {task.task_id: 1}
        )
        self.tasks_tracked += 1

    def on_fork(self, parent, children) -> None:
        """Fork: each child inherits the parent clock + a fresh component;
        the parent's own component advances so later parent work is
        concurrent with the children."""
        ps = self._tasks[parent.task_id]
        for index, child in enumerate(children):
            vc = dict(ps.vc)
            vc[child.task_id] = 1
            self._tasks[child.task_id] = _TaskState(
                child.task_id, f"{ps.path}.{index}", vc
            )
        self.tasks_tracked += len(children)
        ps.vc[parent.task_id] = ps.vc.get(parent.task_id, 0) + 1

    def on_join(self, parent, children) -> None:
        """Join of the last outstanding child: merge every child clock into
        the parent and advance the parent's component."""
        ps = self._tasks[parent.task_id]
        for child in children:
            cs = self._tasks.pop(child.task_id, None)
            if cs is not None:
                vc_join(ps.vc, cs.vc)
        ps.vc[parent.task_id] = ps.vc.get(parent.task_id, 0) + 1

    def clock_of(self, task) -> Dict[int, int]:
        """A copy of the task's current vector clock (tests/diagnostics)."""
        return dict(self._tasks[task.task_id].vc)

    def path_of(self, task) -> str:
        return self._tasks[task.task_id].path

    # ------------------------------------------------------------------
    # Logical region bookkeeping (runtime mark/unmark mirror)
    # ------------------------------------------------------------------
    def region_begin(self, start: int, end: int):
        region = self.regions.add(start, end)
        self.region_epochs += 1
        if self.record_regions:
            self._open_logs[region.region_id] = RegionLog(
                region.region_id, start, end
            )
        return region

    def region_end(self, region) -> None:
        self.regions.remove(region)
        log = self._open_logs.pop(region.region_id, None)
        if log is not None:
            self.region_logs.append(log)

    # ------------------------------------------------------------------
    # Access classification
    # ------------------------------------------------------------------
    def on_access(
        self,
        task,
        thread: int,
        addr: int,
        size: int,
        atype: AccessType,
    ) -> None:
        st = self._tasks.get(task.task_id)
        if st is None:  # task finished its join already (cannot happen live)
            return
        st.ops += 1
        self.checked_accesses += 1
        covering = self.regions.regions_containing(addr)
        active = tuple(r.region_id for r in covering)
        if self._open_logs:
            name = atype.name
            for rid in active:
                log = self._open_logs.get(rid)
                if log is None:
                    continue
                if len(log.entries) >= self.max_region_log:
                    log.truncated = True
                else:
                    log.entries.append((name, task.task_id, addr))
        acc = AccessInfo(task.task_id, st.path, thread, st.ops, atype.name, active)
        vc = st.vc
        own_id = task.task_id

        if atype is AccessType.LOAD:
            write = self._writes.get(addr)
            if write is not None:
                wclock, wtid, wacc = write
                if wtid != own_id and wclock > vc.get(wtid, 0):
                    self._report("raw", addr, wacc, acc, active)
            reads = self._reads.get(addr)
            if reads is None:
                reads = self._reads[addr] = {}
            reads[own_id] = (vc[own_id], acc)
            return

        # STORE / RMW
        write = self._writes.get(addr)
        if write is not None:
            wclock, wtid, wacc = write
            if wtid != own_id and wclock > vc.get(wtid, 0):
                shared = tuple(r for r in wacc.region_ids if r in active)
                if atype is AccessType.RMW and wacc.atype == "RMW":
                    self.atomic_updates += 1
                elif shared:
                    self.benign_waws.append(RaceFinding(
                        "benign-waw", addr, wacc, acc, shared, self.benchmark
                    ))
                else:
                    self._report("waw", addr, wacc, acc, active)
        reads = self._reads.get(addr)
        if reads:
            for rtid, (rclock, racc) in reads.items():
                if rtid != own_id and rclock > vc.get(rtid, 0):
                    self._report("war", addr, racc, acc, active)
            self._reads[addr] = {}
        self._writes[addr] = (vc[own_id], own_id, acc)

    # ------------------------------------------------------------------
    def _report(
        self,
        kind: str,
        addr: int,
        prior: AccessInfo,
        current: AccessInfo,
        active: Tuple[int, ...],
    ) -> None:
        shared = tuple(r for r in prior.region_ids if r in active)
        finding = RaceFinding(kind, addr, prior, current, shared, self.benchmark)
        self.races.append(finding)
        if self.raise_on_race:
            raise RaceError(f"race detected: {finding.describe()}", finding)

    # ------------------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.races

    def summary(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "checked_accesses": self.checked_accesses,
            "tasks_tracked": self.tasks_tracked,
            "region_epochs": self.region_epochs,
            "races": len(self.races),
            "benign_waws": len(self.benign_waws),
            "atomic_updates": self.atomic_updates,
        }
