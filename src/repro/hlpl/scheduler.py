"""Work-stealing scheduler with simulated-memory deques.

Each worker owns a deque; the owner pushes/pops at the bottom, thieves
steal from the top with an atomic.  The deque's top/bottom words live at
simulated addresses (padded to one cache block each, as real runtimes pad),
so scheduling itself generates realistic coherence traffic — identically for
MESI and WARDen, since runtime metadata is never inside a WARD region.

Idle workers spin with exponential backoff (busy-wait synchronization, as in
the PBBS suite — see the paper's Fig. 11 discussion of ray).  A spin is two
L1 load hits on the spinner's own padded blocks plus its backoff, so once a
spin is known to be clean the engine parks the spinner and
:meth:`WorkStealingScheduler.skip_spins` applies the spins in closed form
when a push or the root's end makes them matter (see ``repro.sim.engine``).
"""

from __future__ import annotations

from collections import deque
from typing import List

from repro.common.types import AccessType

_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_RMW = AccessType.RMW

BACKOFF_MIN = 64
#: capped low: long backoffs make steal latency (and thus the critical path)
#: jitter by thousands of cycles, drowning protocol effects in noise
BACKOFF_MAX = 512


class WorkStealingScheduler:
    """Implements the engine's scheduler interface (§2.1's "standard
    work-stealing scheduler")."""

    def __init__(self, machine, seed: int = 0) -> None:
        nthreads = machine.config.num_threads
        bs = machine.config.block_size
        self.deques: List[deque] = [deque() for _ in range(nthreads)]
        self.total_ready = 0
        self.finished = False
        self.bottom_addr = [machine.sbrk(bs, bs) for _ in range(nthreads)]
        self.top_addr = [machine.sbrk(bs, bs) for _ in range(nthreads)]
        self.flag_addr = [machine.sbrk(bs, bs) for _ in range(nthreads)]
        for t in range(nthreads):
            machine.place(self.bottom_addr[t], bs, t)
            machine.place(self.top_addr[t], bs, t)
            machine.place(self.flag_addr[t], bs, t)
        self._backoff = [BACKOFF_MIN] * nthreads
        # hoisted hot-path handles (all stable for the machine's lifetime;
        # on_idle dominates simulated idle time, so attribute chains matter)
        self._machine = machine
        self._cores = machine.cores
        self._core_of = machine._core_of
        #: thread -> its ``Machine.fast_path`` (a traced one counts hits, a
        #: recording one records them; a ``per_op`` one declines every
        #: access)
        self._fast = [machine.fast_path(t) for t in range(nthreads)]
        self._tracer = machine.tracer
        self._nthreads = nthreads
        config = machine.config
        self._pstats = machine.protocol.stats
        self._spin_latency = 2 * config.l1.latency
        #: spins may be parked only without SMT: an SMT sibling shares the
        #: L1 and interleaves its own accesses with the spinner's LRU
        #: refreshes (per-op stepping ignores clean spins)
        self._can_park = config.threads_per_core == 1
        self._per_socket = config.cores_per_socket * config.threads_per_core
        self._num_sockets = config.num_sockets
        # Deterministic per-worker victim choice (xorshift-style LCG),
        # perturbed by the run seed so harnesses can average out
        # steal-timing noise across runs.
        self._rng_state = [
            (0x9E3779B9 * (t + 1) ^ (seed * 0x85EBCA6B)) & 0xFFFFFFFF
            for t in range(nthreads)
        ]

    def _next_victim(self, thread: int) -> int:
        """NUMA-aware victim choice: 3 of 4 probes stay on the thief's
        socket (a remote probe costs a full cross-socket round trip)."""
        state = self._rng_state[thread]
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        self._rng_state[thread] = state
        nthreads = self._nthreads
        per_socket = self._per_socket
        if self._num_sockets > 1 and state & 0x3 == 0:
            # remote probe: uniform over all other threads
            victim = (state >> 2) % (nthreads - 1)
            if victim >= thread:
                victim += 1
            return victim
        base = thread - (thread % per_socket)
        if per_socket <= 1:
            victim = (state >> 2) % (nthreads - 1)
            return victim + 1 if victim >= thread else victim
        local = base + (state >> 2) % (per_socket - 1)
        if local >= thread:
            local += 1
        return local

    def _touch(self, thread: int, addr: int, atype, spin: bool = False) -> int:
        """One deque or flag access; returns its memory latency."""
        # Deque words and spin flags are overwhelmingly private hits, so
        # take the epoch fast path (identical statistical effects); atomics
        # always fall through (try_fast_access declines RMWs).
        latency = self._fast[thread](self._core_of[thread], addr, 8, atype)
        if latency is not None:
            cm = self._cores[thread]
            if atype is _LOAD:
                cm.load(latency, spin=spin)
            else:
                cm.store(latency)
            return latency
        return self._machine.access(thread, addr, 8, atype, spin=spin)

    # ------------------------------------------------------------------
    def push(self, thread: int, strand) -> None:
        """Owner pushes a ready strand at the bottom of its own deque."""
        strand.ready_clock = self._cores[thread].clock
        self.deques[thread].append(strand)
        self.total_ready += 1
        self._touch(thread, self.bottom_addr[thread], _STORE)

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def has_work_for(self, worker) -> bool:
        # Idle workers always spin (busy-wait runtime); termination is
        # signalled through ``finished``.
        return not self.finished

    def on_idle(self, worker) -> bool:
        """One scheduling attempt of an idle worker.

        Returns True when the call was a *clean* spin: both of its loads
        were L1 hits, outside any WARD state, with parking allowed.  Until
        the next push or the root's end, every further call would repeat
        that spin exactly, so the engine may park the worker and later
        apply them with :meth:`skip_spins` (per-op stepping never parks).
        """
        thread = worker.thread
        core = self._cores[thread]
        ward_accesses = self._pstats.ward_accesses

        # 1. Own deque: pop the newest task (bottom).
        latency = self._touch(thread, self.bottom_addr[thread], _LOAD)
        own = self.deques[thread]
        if own:
            strand = own.pop()
            self.total_ready -= 1
            self._touch(thread, self.bottom_addr[thread], _STORE)
            self._assign(worker, strand)
            return False

        # 2. Steal attempt: probe one random victim (standard work stealing
        #    probes a single victim per attempt, then backs off briefly).
        if self.total_ready > 0 and len(self.deques) > 1:
            victim = self._next_victim(thread)
            core.stats.steal_attempts += 1
            self._touch(thread, self.top_addr[victim], _LOAD)
            vdeque = self.deques[victim]
            tracer = self._tracer
            if vdeque:
                self._touch(thread, self.top_addr[victim], _RMW)
                strand = vdeque.popleft()
                self.total_ready -= 1
                core.stats.successful_steals += 1
                if tracer.enabled:
                    tracer.steal(core.clock, thread, victim, True)
                self._assign(worker, strand)
                return False
            if tracer.enabled:
                tracer.steal(core.clock, thread, victim, False)
            core.advance(BACKOFF_MIN)  # brief pause before the next probe
            return False

        # 3. Nothing to do: spin on a local flag with exponential backoff.
        latency += self._touch(thread, self.flag_addr[thread], _LOAD, spin=True)
        backoff = self._backoff
        core.advance(backoff[thread])
        backoff[thread] = min(backoff[thread] * 2, BACKOFF_MAX)
        # Two L1 hits cost exactly _spin_latency; a miss or an L2 hit
        # cannot.
        return (
            latency == self._spin_latency
            and self._can_park
            and self._pstats.ward_accesses == ward_accesses
        )

    def skip_spins(self, thread: int, until_clock: int, until_thread: int) -> None:
        """Apply every spin of parked ``thread`` keyed below a given op.

        The engine orders ops by ``(clock, thread)``; this applies, in
        closed form, each spin whose key sorts below ``(until_clock,
        until_thread)``.  Each spin adds two L1 load hits (one of them a
        spin load) and its backoff to the clock.  Its other effect, making
        the spinner's two private blocks the most recently used in its L1,
        is a no-op after the clean spin that parked it.  The stretch is
        applied by one :meth:`Machine.spins` call, which a trace recorder
        sees as one event.
        """
        start = clock = self._cores[thread].clock
        # (clock, thread) < (until_clock, until_thread)  <=>  clock < limit
        limit = until_clock + 1 if thread < until_thread else until_clock
        if clock >= limit:
            return
        backoff = self._backoff[thread]
        latency = self._spin_latency
        spins = 0
        while backoff < BACKOFF_MAX and clock < limit:  # the doubling ramp
            clock += latency + backoff
            backoff = min(backoff * 2, BACKOFF_MAX)
            spins += 1
        if clock < limit:  # the plateau: one spin per period
            period = latency + BACKOFF_MAX
            plateau = (limit - clock + period - 1) // period
            clock += plateau * period
            spins += plateau
        self._backoff[thread] = backoff
        self._machine.spins(thread, spins, clock - start - spins * latency)

    # ------------------------------------------------------------------
    def _assign(self, worker, strand) -> None:
        self._cores[worker.thread].wait_until(strand.ready_clock)
        self._backoff[worker.thread] = BACKOFF_MIN
        worker.strand = strand
