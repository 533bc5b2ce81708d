"""Per-hardware-thread timing model.

Loads are blocking (they pause dependent computation), stores retire through
a finite TSO store buffer and only stall when it fills, and atomics block for
their full round trip.  This asymmetry is load-bearing for the paper's
Fig. 10/11 analysis: downgrades (load side) hurt, invalidations (store side)
are mostly hidden.
"""

from __future__ import annotations

from collections import deque

from repro.common.config import MachineConfig
from repro.common.stats import CoreStats


class CoreModel:
    """Clock + store buffer + instruction counters for one hardware thread."""

    def __init__(self, config: MachineConfig, thread: int, tracer=None) -> None:
        self.config = config
        self.thread = thread
        self.clock = 0
        self.stats = CoreStats()
        #: optional :class:`repro.obs.tracer.Tracer` (store-buffer events)
        self.tracer = tracer
        self._store_buffer: deque = deque()
        self._sb_capacity = config.store_buffer_entries
        self._l1_latency = config.l1.latency
        self._last_completion = 0

    # ------------------------------------------------------------------
    def _drain_store_buffer(self) -> None:
        buf = self._store_buffer
        while buf and buf[0] <= self.clock:
            buf.popleft()

    # ------------------------------------------------------------------
    def load(self, latency: int, spin: bool = False) -> None:
        self.clock += latency
        stats = self.stats
        stats.loads += 1
        if spin:
            stats.spin_loads += 1
        l1_latency = self._l1_latency
        if latency > l1_latency:
            stats.load_stall_cycles += latency - l1_latency

    def store(self, latency: int) -> None:
        """Issue a store: 1 cycle to enter the buffer; drain in background."""
        self._drain_store_buffer()
        if len(self._store_buffer) >= self._sb_capacity:
            stall = self._store_buffer[0] - self.clock
            if stall > 0:
                tracer = self.tracer
                if tracer is not None and tracer.enabled:
                    tracer.store_buffer(
                        self.clock, self.thread, "full", stall,
                        len(self._store_buffer),
                    )
                self.clock += stall
                self.stats.store_buffer_stall_cycles += stall
            self._drain_store_buffer()
        self.clock += 1
        completion = max(self.clock + latency, self._last_completion)
        self._last_completion = completion
        self._store_buffer.append(completion)
        self.stats.stores += 1

    def rmw(self, latency: int) -> None:
        """Atomics drain the store buffer (TSO fence) and block fully."""
        if self._store_buffer:
            last = self._store_buffer[-1]
            if last > self.clock:
                tracer = self.tracer
                if tracer is not None and tracer.enabled:
                    tracer.store_buffer(
                        self.clock, self.thread, "fence",
                        last - self.clock, len(self._store_buffer),
                    )
                self.stats.store_buffer_stall_cycles += last - self.clock
                self.clock = last
            self._store_buffer.clear()
        self.clock += latency
        self.stats.rmws += 1

    def store_buffer_depth(self) -> int:
        """Stores still in flight at the current clock (test/debug helper;
        drains completed entries first, like the issue paths do)."""
        self._drain_store_buffer()
        return len(self._store_buffer)

    def compute(self, instrs: int) -> None:
        self.clock += instrs
        self.stats.compute_instrs += instrs

    def advance(self, cycles: int) -> None:
        """Advance time without retiring instructions (backoff, overhead)."""
        self.clock += cycles

    def wait_until(self, clock: int) -> None:
        """Move the clock forward to ``clock`` if it is behind: a strand
        cannot run before it was made ready (the only non-additive clock
        write in the machine)."""
        if clock > self.clock:
            self.clock = clock
