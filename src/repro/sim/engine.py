"""Conservative min-clock discrete execution engine.

Every hardware thread owns a cycle clock (its :class:`CoreModel`).  The
engine repeatedly picks the runnable worker with the globally smallest clock
and executes exactly one yielded operation, so coherence transactions are
processed in a globally consistent time order — the "simplified cycle-sim"
substitute for Sniper's interval simulation.

Two usage modes:

* **Pinned** — strands are pinned to hardware threads with :meth:`Engine.pin`
  and run to completion (used by the Table-1 validation microbenchmark).
* **Scheduled** — a scheduler object (the HLPL work-stealing runtime) is
  installed; the engine consults it for idle workers and for termination.

Epoch batching
--------------

Most retired ops are private-cache hits that no other core can observe, so
paying a heap interaction per op is pure overhead.  The engine lets the
worker it just popped as the global minimum retire a *run* of consecutive
ops in a tight loop (:meth:`Engine._retire_run`) — without re-touching the
heap — for as long as the run provably cannot change the schedule:

* the worker's clock keeps it the worker the strict min-clock scan would
  pick anyway (strictly below the next-best heap entry, or equal with a
  smaller thread id — the heap's exact tie-break), and
* each op is *epoch-safe*: purely local compute, or a load/store the
  protocol resolves as a private-cache hit with no directory or interconnect
  message (``protocol.try_fast_access``).

Epoch-safe ops mutate nothing any other worker can observe (only this
core's clock, private caches, and counters), so the batched schedule is the
*same* schedule per-op stepping produces and RunStats stay bit-identical
(asserted in ``tests/test_epoch.py``).  The first op that needs the slow
path runs once in full, then the run ends and the worker re-enters the
heap.  Each worker's fast path comes from :meth:`Machine.fast_path`, so a
traced run batches exactly like an untraced one: the traced fast path
only stamps the tracer and counts its hits.  Access hooks are invoked for
every op inside the run, preserving checker semantics.

Per-op stepping is a mode of the same loop, not a second one.  A machine
with ``per_op`` set hands out a fast path that declines every access, and
the engine bounds each run to one op, so every access flows through
:meth:`Machine.access` and every op re-enters the heap.  That reference
never continues a run, never takes the fast path and never parks a
spinner; no run path of the package sets it, but ``tests/test_epoch.py``,
the parking tests and ``scripts/check_identity.py`` hold the batched,
parked loop to it on a plain machine.  The trace recorder runs the batched,
parked loop like any run.  Every op is a scalar op, so ``steps`` counts
yielded ops in both modes.

Parked spinners
---------------

An idle worker with nothing to steal spins on a private flag with
exponential backoff.  When the scheduler reports a spin as *clean* (both of
its loads were L1 hits on the worker's own padded ``bottom`` and ``flag``
blocks, which no other thread touches, outside any WARD state), every later
spin repeats it exactly: two L1 hits plus the backoff, changing only the
spinner's clock, counters and the LRU position of two blocks that are
already most recent.  Only two events change what the spinner would do: a
push (inside the fork handler) and ``finished`` (set when the root strand
ends).  So the engine *parks* the worker outside the heap.  Busy workers'
epoch runs then no longer stop at every spinner's clock.

A fork or a strand end is always the last op of a run, so after each run
that leaves ``total_ready > 0`` or ``finished`` set, the engine wakes every
parked worker: ``scheduler.skip_spins`` applies, in closed form, each spin
keyed below that op, and the worker re-enters the heap at its next spin.
The op's key is its clock from *before* the generator ``send``, since a
generator body can charge cycles inside ``send`` before yielding the
``ForkOp``; per-op stepping runs spins keyed between the two clocks after
the fork.  Parking needs one thread per core (an SMT sibling shares the L1
and interleaves its own accesses with the spinner's LRU refreshes), and
per-op stepping ignores clean spins; a tracer changes neither, and
``skip_spins`` counts the skipped spins' hits for it.  An empty heap with
parked workers and no ``finished`` is per-op stepping's endless spin,
reported as a deadlock.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Optional

from repro.common.errors import SimulationError
from repro.common.types import AccessType
from repro.sim.machine import Machine
from repro.sim.ops import ComputeOp, ForkOp, LoadOp, RmwOp, StoreOp

_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_RMW = AccessType.RMW


class Strand:
    """One runnable generator plus its (optional) spawn-tree task."""

    __slots__ = ("gen", "task", "on_done", "resume_value", "ready_clock")

    def __init__(self, gen, task=None, on_done: Optional[Callable] = None):
        self.gen = gen
        self.task = task
        self.on_done = on_done
        self.resume_value = None
        #: cycle at which this strand became runnable (steal causality)
        self.ready_clock = 0


class Worker:
    """A hardware thread as seen by the engine."""

    __slots__ = ("thread", "strand")

    def __init__(self, thread: int):
        self.thread = thread
        self.strand: Optional[Strand] = None


class Engine:
    def __init__(self, machine: Machine):
        self.machine = machine
        self.workers = [Worker(t) for t in range(machine.config.num_threads)]
        #: callable(worker, ForkOp) installed by the HLPL runtime
        self.fork_handler: Optional[Callable] = None
        #: scheduler with .finished, .has_work_for(worker), .on_idle(worker);
        #: one whose on_idle can return True (a clean spin, see "Parked
        #: spinners") also needs .total_ready and .skip_spins
        self.scheduler = None
        #: callable(worker, op, AccessType) for dynamic checkers
        self.access_hook: Optional[Callable] = None
        self.steps = 0
        #: optional runaway guard (SimulationError when exceeded)
        self.max_steps: Optional[int] = None
        #: the worker currently being stepped (used by the runtime to charge
        #: internal work such as region instructions to the right thread)
        self.current_worker: Optional[Worker] = None
        #: thread -> its ``Machine.fast_path``, fetched when a run starts
        self._fast_paths: list = []

    # ------------------------------------------------------------------
    def pin(self, thread: int, gen, on_done: Optional[Callable] = None) -> Strand:
        """Pin a raw generator to a hardware thread (validation mode)."""
        worker = self.workers[thread]
        if worker.strand is not None:
            raise SimulationError(f"thread {thread} already has a strand")
        strand = Strand(gen, on_done=on_done)
        worker.strand = strand
        return strand

    # ------------------------------------------------------------------
    def run(self) -> None:
        machine_cores = self.machine.cores
        workers = self.workers
        scheduler = self.scheduler
        retire_run = self._retire_run
        # A ``per_op`` machine's fast path declines every access, so each
        # one flows through ``Machine.access``; every run is bounded to one
        # op and no spinner parks.
        per_op = self.machine.per_op
        self._fast_paths = [self.machine.fast_path(w.thread) for w in workers]
        # Lazily-repaired min-heap over worker clocks, replacing the
        # per-step O(num_threads) scan.  Only the worker being stepped can
        # advance its own clock, so entries are normally exact; the staleness
        # check below repairs any entry whose clock moved underneath it
        # (robust against schedulers that touch other cores).  Ties break on
        # the thread id, matching the old first-lowest-thread scan order.
        if scheduler is None:
            heap = [
                (machine_cores[w.thread].clock, w.thread)
                for w in workers
                if w.strand is not None
            ]
        else:
            heap = [(machine_cores[w.thread].clock, w.thread) for w in workers]
        heapify(heap)
        #: idle workers the scheduler had no work for; re-armed on progress
        waiting = []
        #: threads of parked spinners, kept out of the heap until a push or
        #: the root's end (see "Parked spinners" in the module docstring)
        parked = []
        while True:
            if scheduler is not None and scheduler.finished:
                return
            if not heap:
                if scheduler is None:
                    return  # pinned mode: everything ran to completion
                raise SimulationError(
                    "deadlock: scheduler not finished but no worker is runnable"
                )
            entry = heappop(heap)
            clock, thread = entry
            core = machine_cores[thread]
            if clock != core.clock:
                heappush(heap, (core.clock, thread))  # stale: repair
                continue
            worker = workers[thread]
            if worker.strand is None:
                if scheduler is None:
                    continue  # pinned strand finished: retire the worker
                if not scheduler.has_work_for(worker):
                    waiting.append(entry)
                    continue
                spun = scheduler.on_idle(worker)
                if not per_op:
                    # Steal-phase epoch: while this worker stays strictly
                    # min-clock (same tie-break as the heap pop) and found
                    # no work, the per-op engine would pop it straight back
                    # — so keep going without re-touching the heap.  A
                    # clean spin parks it instead.
                    if heap:
                        next_clock, next_thread = heap[0]
                    else:
                        next_clock, next_thread = None, -1
                    while (
                        not spun
                        and worker.strand is None
                        and (
                            next_clock is None
                            or core.clock < next_clock
                            or (core.clock == next_clock
                                and thread < next_thread)
                        )
                        and scheduler.has_work_for(worker)
                    ):
                        spun = scheduler.on_idle(worker)
                    if spun:
                        parked.append(thread)
                        continue
            else:
                if per_op:
                    # no clock sorts below -1: the run ends after one op
                    next_clock, next_thread = -1, -1
                elif heap:
                    next_clock, next_thread = heap[0]
                else:
                    next_clock, next_thread = None, -1
                op_clock = retire_run(worker, next_clock, next_thread)
                if parked and (scheduler.total_ready or scheduler.finished):
                    # Only a push or the root's end changes what a parked
                    # spinner does, and only a fork or a strand end (the
                    # run's last op) can cause either.  Spins keyed below
                    # that op saw nothing to do; apply them, then requeue.
                    for spinner in parked:
                        scheduler.skip_spins(spinner, op_clock, thread)
                        heappush(heap, (machine_cores[spinner].clock, spinner))
                    parked.clear()
            heappush(heap, (core.clock, thread))
            if waiting:
                # Progress was made; waiting workers may have work again.
                for stale in waiting:
                    heappush(heap, stale)
                waiting.clear()

    # ------------------------------------------------------------------
    def _finish_strand(self, worker: Worker, strand: Strand, stop) -> None:
        worker.strand = None
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.strand(
                self.machine.cores[worker.thread].clock,
                worker.thread,
                "finish",
                getattr(strand.task, "task_id", -1),
            )
        if strand.on_done is not None:
            strand.on_done(getattr(stop, "value", None), worker)

    # ------------------------------------------------------------------
    def _retire_run(
        self, worker: Worker, next_clock: Optional[int], next_thread: int
    ) -> Optional[int]:
        """Retire a run of consecutive epoch-safe ops on one worker.

        ``worker`` was just popped as the global min-clock choice;
        ``(next_clock, next_thread)`` is the best remaining heap entry
        (``next_clock=None`` when the heap is empty, ``(-1, -1)`` to stop
        after one op for per-op stepping).  The loop keeps
        retiring while the worker would be re-picked by the strict per-op
        scan anyway — stale heap entries only make that stop condition
        fire *early* (the entry's recorded clock is never above the real
        one), which is conservative and preserves the exact schedule.
        The first op needing the slow path (coherence traffic, RmwOp,
        ForkOp, StopIteration) executes once in full and ends the run.

        Returns the clock from before the generator ``send`` when the run
        ends on a ForkOp or StopIteration, else None: the key of the op that
        may push work or finish the root is that pre-send clock, since a
        generator body can charge cycles inside ``send`` before yielding.
        """
        strand = worker.strand
        thread = worker.thread
        machine = self.machine
        core = machine.cores[thread]
        try_fast = self._fast_paths[thread]
        pcore = machine._core_of[thread]
        access_hook = self.access_hook
        max_steps = self.max_steps
        self.current_worker = worker
        while True:
            self.steps += 1
            if max_steps is not None and self.steps > max_steps:
                raise SimulationError(f"engine exceeded max_steps={max_steps}")
            op_clock = core.clock
            try:
                op = strand.gen.send(strand.resume_value)
            except StopIteration as stop:
                self._finish_strand(worker, strand, stop)
                return op_clock
            strand.resume_value = None
            cls = op.__class__
            if cls is ComputeOp:
                core.compute(op.instrs)
            elif cls is LoadOp:
                if access_hook is not None:
                    access_hook(worker, op, _LOAD)
                latency = try_fast(pcore, op.addr, op.size, _LOAD)
                if latency is None:
                    strand.resume_value = machine.access(
                        thread, op.addr, op.size, _LOAD, spin=op.spin
                    )
                    return
                core.load(latency, spin=op.spin)
                strand.resume_value = latency
            elif cls is StoreOp:
                if access_hook is not None:
                    access_hook(worker, op, _STORE)
                latency = try_fast(pcore, op.addr, op.size, _STORE)
                if latency is None:
                    strand.resume_value = machine.access(
                        thread, op.addr, op.size, _STORE
                    )
                    return
                core.store(latency)
                strand.resume_value = latency
            elif cls is RmwOp:
                if access_hook is not None:
                    access_hook(worker, op, _RMW)
                strand.resume_value = machine.access(
                    thread, op.addr, op.size, _RMW
                )
                return
            elif cls is ForkOp:
                if self.fork_handler is None:
                    raise SimulationError(
                        "ForkOp yielded but no fork handler installed"
                    )
                self.fork_handler(worker, op)
                return op_clock
            else:
                raise SimulationError(f"unknown operation {op!r}")
            if next_clock is not None:
                c = core.clock
                if c > next_clock or (c == next_clock and thread > next_thread):
                    return
