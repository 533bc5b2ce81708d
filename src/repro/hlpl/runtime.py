"""The HLPL runtime: MPL's role in the paper (§4.2).

Responsibilities, all invisible to benchmark code:

* maintain the spawn tree and heap hierarchy (fresh heap per child at forks,
  merge into the parent at joins — Fig. 2);
* mark freshly-allocated leaf-heap pages as WARD regions and unmark them at
  forks and joins (§4.2; our join-unmark keeps parent reads of merged child
  data coherent, see DESIGN.md);
* write fork closures into WARD-marked memory just before forking so the
  fork-time unmark flushes them to the shared cache — the child's first
  reads then avoid downgrading the parent's private cache (§5.3);
* enforce disentanglement dynamically (Definition 1) when checking is on.

The total WARD logic here is ~a hundred lines, mirroring the paper's claim
that the MPL changes were <100 lines of code (§4.3).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.common.errors import DisentanglementError, SimulationError
from repro.common.stats import RunStats
from repro.common.types import AccessType
from repro.hlpl.api import TaskContext
from repro.hlpl.heap import Heap
from repro.hlpl.policy import MarkingPolicy
from repro.hlpl.scheduler import WorkStealingScheduler
from repro.hlpl.task import JoinRecord, TaskNode
from repro.sim.engine import Engine, Strand
from repro.sim.machine import Machine
from repro.sim.ops import ForkOp, LoadOp, StoreOp

#: words of closure data written by the parent / read by each child at a fork
CLOSURE_WORDS = 8
#: bookkeeping instructions charged per spawned child
FORK_INSTRS_PER_CHILD = 18


class _ConstructRegion:
    """Paired (hardware, detector) region handles for one construct scope.

    Opaque to callers: :meth:`Runtime.construct_begin` returns it only when
    a race detector is installed, and :meth:`Runtime.construct_end` unpacks
    it.  Without a detector the bare hardware handle flows through instead,
    keeping the common path allocation-free.
    """

    __slots__ = ("hw", "det")

    def __init__(self, hw, det) -> None:
        self.hw = hw
        self.det = det


class Runtime:
    """Executes a fork-join program on a simulated machine."""

    def __init__(
        self,
        machine: Machine,
        policy: MarkingPolicy = MarkingPolicy.FULL,
        check_disentanglement: bool = True,
        access_monitor=None,
        race_detector=None,
        max_steps: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.policy = policy
        self.check_disentanglement = check_disentanglement
        self.access_monitor = access_monitor
        #: optional repro.verify.race.RaceDetector.  Its *logical* region
        #: table always mirrors the FULL marking policy regardless of
        #: ``policy`` or the protocol: the detector verifies the program's
        #: WARD-eligibility (paper §3), which the hardware marking may only
        #: conservatively under-approximate.
        self.race_detector = race_detector
        self.engine = Engine(machine)
        self.engine.fork_handler = self._on_fork
        if max_steps is not None:
            self.engine.max_steps = max_steps
        self.scheduler = WorkStealingScheduler(machine, seed=seed)
        self.engine.scheduler = self.scheduler
        if (
            check_disentanglement
            or access_monitor is not None
            or race_detector is not None
        ):
            self.engine.access_hook = self._access_hook
        self._counter_pool: dict = {}
        self._root_value: Any = None
        self._root_clock = 0
        #: the hardware thread that finished the root strand; its clock is
        #: the makespan (the trace recorder stores it)
        self.root_thread = 0
        self._marking_on = policy.marks_pages and machine.supports_ward

    # ------------------------------------------------------------------
    @property
    def current_thread(self) -> int:
        worker = self.engine.current_worker
        return worker.thread if worker is not None else 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, root_fn: Callable, *args, **kwargs) -> Tuple[Any, RunStats]:
        """Execute ``root_fn(ctx, *args, **kwargs)``; return (result, stats)."""
        root = TaskNode(None)
        root.heap = Heap(root)
        if self.race_detector is not None:
            self.race_detector.on_root(root)
        ctx = TaskContext(self, root)
        strand = Strand(
            root_fn(ctx, *args, **kwargs),
            task=root,
            on_done=self._on_root_done,
        )
        self.scheduler.push(0, strand)
        try:
            self.engine.run()
        finally:
            # The engine holds the runtime through these bound methods;
            # dropping them when the run ends leaves no cycle, so the
            # machine is freed with the last reference to the runtime.  A
            # runtime runs once: ``scheduler.finished`` stays set.
            self.engine.fork_handler = None
            self.engine.access_hook = None
        stats = self.machine.finalize(self._root_clock)
        return self._root_value, stats

    def _on_root_done(self, value, worker) -> None:
        self._root_value = value
        self.root_thread = worker.thread
        self._root_clock = self.machine.cores[worker.thread].clock
        self.scheduler.finished = True

    # ------------------------------------------------------------------
    # Allocation + WARD marking (§4.2)
    # ------------------------------------------------------------------
    def heap_alloc(self, task: TaskNode, nbytes: int, align: int = 8):
        """Bump-allocate in the task's heap; mark fresh pages as WARD.

        Returns ``(addr, instr_cost)`` — the caller charges the cost.
        """
        addr, new_page, cost = task.heap.alloc(nbytes, self.machine.sbrk, align)
        if new_page is not None:
            self.machine.place(new_page.base, new_page.size, self.current_thread)
            if self._marking_on:
                new_page.region = self.machine.add_ward_region(
                    self.current_thread, new_page.base, new_page.end
                )
            if self.race_detector is not None:
                new_page.det_region = self.race_detector.region_begin(
                    new_page.base, new_page.end
                )
        return addr, cost

    def construct_begin(self, arr):
        """Open a construct-scoped WARD region over an array's full blocks.

        The hardware region is block-rounded inward (only whole blocks can
        be relaxed); the race detector's logical region spans the whole
        array — the construct's program-level WARD claim — so the rounded-
        out edge elements are classified consistently with the interior.
        """
        hw_region = None
        if self.policy.marks_constructs and self.machine.supports_ward:
            bs = self.machine.config.block_size
            start = (arr.base + bs - 1) // bs * bs
            end = arr.end // bs * bs
            if end > start:
                hw_region = self.machine.add_ward_region(
                    self.current_thread, start, end
                )
        if self.race_detector is None or arr.end <= arr.base:
            return hw_region
        det_region = self.race_detector.region_begin(arr.base, arr.end)
        return _ConstructRegion(hw_region, det_region)

    def construct_end(self, region) -> None:
        if region is None:
            return
        if type(region) is _ConstructRegion:
            if region.hw is not None:
                self.machine.remove_ward_region(self.current_thread, region.hw)
            self.race_detector.region_end(region.det)
            return
        self.machine.remove_ward_region(self.current_thread, region)

    def _unmark_heap_pages(self, task: TaskNode, thread: int) -> None:
        detector = self.race_detector
        if not self._marking_on and detector is None:
            return
        for page in task.heap.pages:
            if page.region is not None:
                self.machine.remove_ward_region(thread, page.region)
                page.region = None
            if detector is not None and page.det_region is not None:
                detector.region_end(page.det_region)
                page.det_region = None

    # ------------------------------------------------------------------
    # Fork handling (engine callback)
    # ------------------------------------------------------------------
    def _on_fork(self, worker, op: ForkOp) -> None:
        parent_ctx = op.ctx
        parent_task = parent_ctx.task
        parent_strand = worker.strand
        thread = worker.thread
        machine = self.machine
        nchildren = len(op.thunks)

        # 1. Write each child's closure into freshly WARD-marked memory.
        closure_bytes = CLOSURE_WORDS * 8
        closures = []
        for _ in range(nchildren):
            addr, cost = self.heap_alloc(parent_task, closure_bytes, align=64)
            machine.compute(thread, cost)
            region = None
            if self._marking_on:
                region = machine.add_ward_region(thread, addr, addr + closure_bytes)
            for word in range(CLOSURE_WORDS):
                machine.access(thread, addr + 8 * word, 8, AccessType.STORE)
            closures.append((addr, region))

        # 2. Unmark the forking task's WARD pages (§4.2) and the closure
        #    regions — reconciliation flushes the handoff data to the LLC
        #    so children read it without downgrading this core (§5.3).
        self._unmark_heap_pages(parent_task, thread)
        for _, region in closures:
            if region is not None:
                machine.remove_ward_region(thread, region)

        # 3. Create children with fresh heaps; suspend the parent.
        machine.compute(thread, FORK_INSTRS_PER_CHILD * nchildren)
        record = JoinRecord(
            parent_strand, nchildren, self._alloc_record(nchildren)
        )
        parent_task.join = record
        worker.strand = None
        strands = []
        for index, thunk in enumerate(op.thunks):
            child = TaskNode(parent_task)
            child.heap = Heap(child)
            record.children.append(child)
            child_ctx = TaskContext(self, child)
            gen = self._child_body(child_ctx, closures[index][0], thunk, record, index)
            strand = Strand(
                gen,
                task=child,
                on_done=self._make_child_done(record, index, child),
            )
            strands.append(strand)
        if self.race_detector is not None:
            # Fork edge in the happens-before graph: children inherit the
            # parent's vector clock; the parent's own component advances.
            self.race_detector.on_fork(parent_task, record.children)

        # Run the first child immediately; expose the rest for stealing.
        for strand in strands[1:]:
            self.scheduler.push(thread, strand)
        self.scheduler._assign(worker, strands[0])
        strands[0].ready_clock = machine.cores[thread].clock

    def _child_body(
        self,
        ctx: TaskContext,
        closure_addr: int,
        thunk: Callable,
        record: JoinRecord,
        index: int,
    ):
        parent_heap = ctx.task.parent.heap
        for word in range(CLOSURE_WORDS):
            yield LoadOp(closure_addr + 8 * word, 8, heap=parent_heap)
        result = yield from thunk(ctx)
        # Deposit the result in the join record (runtime arena, like MPL's
        # task frames — the closure stays read-only after the fork).
        yield StoreOp(record.counter_addr + 8 * (index + 1), 8)
        return result

    def _make_child_done(self, record: JoinRecord, index: int, child: TaskNode):
        def on_done(value, worker) -> None:
            self._on_child_done(record, index, child, value, worker)

        return on_done

    def _on_child_done(
        self,
        record: JoinRecord,
        index: int,
        child: TaskNode,
        value,
        worker,
    ) -> None:
        thread = worker.thread
        machine = self.machine
        # Unmark the child's WARD pages before its heap merges upward: the
        # resuming parent may read this data from another hardware thread.
        self._unmark_heap_pages(child, thread)
        record.results[index] = value
        child.completed = True
        machine.access(thread, record.counter_addr, 8, AccessType.RMW)
        record.remaining -= 1
        if record.remaining > 0:
            return
        # Last child: merge heaps (Fig. 2) and resume the parent here.
        parent_task = child.parent
        if self.race_detector is not None:
            # Join edge: every child clock merges into the parent before it
            # resumes, ordering parent reads after all child effects.
            self.race_detector.on_join(parent_task, record.children)
        for sibling in record.children:
            sibling.heap.merge_into(parent_task.heap)
        parent_task.join = None
        parent_strand = record.parent_strand
        parent_strand.resume_value = list(record.results)
        parent_strand.ready_clock = machine.cores[thread].clock
        self._free_record(record.counter_addr, len(record.children))
        if worker.strand is not None:
            raise SimulationError("worker busy while resuming a parent")
        worker.strand = parent_strand

    # ------------------------------------------------------------------
    # Join-record pool (runtime arena, never WARD): word 0 is the join
    # counter, words 1..k hold the children's results.
    # ------------------------------------------------------------------
    def _alloc_record(self, nchildren: int) -> int:
        bs = self.machine.config.block_size
        nbytes = (8 * (nchildren + 1) + bs - 1) // bs * bs
        pool = self._counter_pool.setdefault(nbytes, [])
        if pool:
            return pool.pop()
        addr = self.machine.sbrk(nbytes, bs)
        self.machine.place(addr, nbytes, self.current_thread)
        return addr

    def _free_record(self, addr: int, nchildren: int) -> None:
        bs = self.machine.config.block_size
        nbytes = (8 * (nchildren + 1) + bs - 1) // bs * bs
        self._counter_pool[nbytes].append(addr)

    # ------------------------------------------------------------------
    # Dynamic checking (engine access hook)
    # ------------------------------------------------------------------
    def _access_hook(self, worker, op, atype: AccessType) -> None:
        task = worker.strand.task if worker.strand is not None else None
        if (
            self.check_disentanglement
            and task is not None
            and op.heap is not None
        ):
            owner = op.heap.live_owner
            if owner is not None and not owner.is_ancestor_or_self(task):
                raise DisentanglementError(
                    f"task {task.task_id} accessed address {op.addr:#x} owned "
                    f"by non-ancestor task {owner.task_id}"
                )
        if self.access_monitor is not None:
            self.access_monitor.on_access(
                worker.thread,
                op.addr,
                op.size,
                atype,
                self.machine.cores[worker.thread].clock,
            )
        if (
            self.race_detector is not None
            and task is not None
            and op.heap is not None
        ):
            # Runtime-arena traffic (join counters, result slots) carries
            # heap=None: those addresses are recycled across unrelated
            # forks with no happens-before edge, so only program (heap)
            # accesses feed the detector.
            self.race_detector.on_access(
                task, worker.thread, op.addr, op.size, atype
            )
