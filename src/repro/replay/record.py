"""Recording one interpreted run into a replayable trace.

The recorder is a thin wrapper around the normal engine: a
:class:`RecordingMachine` captures every protocol-visible instruction the
runtime issues (accesses, WARD region boundaries, NUMA placement) and a
:class:`RecordingCore` folds everything *between* those instructions —
compute batches, scheduler backoff, fork overhead — into per-thread pending
charges that ride on the next event's ``pre_instrs``/``pre_cycles`` fields.
The recorded run itself is unperturbed: all charges still land on the real
core clocks immediately, so the recorded ``RunStats`` (and hence the
reference-checked result) are exactly what :func:`repro.analysis.run.
run_benchmark` would produce.

The scheduler clamps a worker's clock forward to a stolen strand's ready
time through :meth:`CoreModel.wait_until` — the only non-additive clock
write in the machine — and :class:`RecordingCore` records it as ``K_SYNC``
(only when the clamp actually moves the clock).  The runtime's
``root_thread`` names the thread that finished the root strand; its clock
is the makespan, so the trace must know the thread.  Nothing is patched
onto the runtime or scheduler, so a recording's machine is freed when
:func:`record_benchmark` returns, like any run's.

The ``record_per_op`` class attribute opts the machine out of the epoch
batching fast path (the engine checks it), guaranteeing every access flows
through :meth:`Machine.access` one at a time.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.analysis.pool import RunTask, code_fingerprint, task_fingerprint
from repro.analysis.run import BenchResult, _protocol_key, _run_on
from repro.common.config import MachineConfig
from repro.common.types import AccessType
from repro.hlpl.policy import MarkingPolicy
from repro.sim.core import CoreModel
from repro.sim.machine import Machine
from repro.replay.trace import (
    K_ACCESS,
    K_FLUSH,
    K_LLC_WARM,
    K_PLACE,
    K_REGION_ADD,
    K_REGION_REMOVE,
    K_SYNC,
    TRACE_SCHEMA,
    Trace,
    encode_result,
)

_AT_CODE = {AccessType.LOAD: 0, AccessType.STORE: 1, AccessType.RMW: 2}


class TraceRecorder:
    """Accumulates the event columns plus per-thread pending charges."""

    __slots__ = ("trace", "pend_i", "pend_c")

    def __init__(self, num_threads: int) -> None:
        self.trace = Trace()
        #: compute instructions / plain cycles charged to each thread since
        #: its last protocol-visible event
        self.pend_i: List[int] = [0] * num_threads
        self.pend_c: List[int] = [0] * num_threads

    def emit(
        self, kind: int, thread: int, atype: int, size: int, spin: int,
        addr: int, aux: int,
    ) -> None:
        pi = self.pend_i[thread]
        pc = self.pend_c[thread]
        if pi or pc:
            self.pend_i[thread] = 0
            self.pend_c[thread] = 0
        self.trace.append(kind, thread, atype, size, spin, addr, aux, pi, pc)

    def finish(self) -> None:
        """Flush trailing pendings (charges with no successor event)."""
        for thread in range(len(self.pend_i)):
            if self.pend_i[thread] or self.pend_c[thread]:
                self.emit(K_FLUSH, thread, 0, 0, 0, 0, 0)


class RecordingCore(CoreModel):
    """A core model that mirrors compute/idle charges into the recorder.

    The real clock and stats still advance normally — pendings are a trace
    artifact only, so the recorded run is bit-identical to an untraced one.
    """

    def __init__(
        self, config: MachineConfig, thread: int, recorder: TraceRecorder,
        tracer=None,
    ) -> None:
        super().__init__(config, thread, tracer=tracer)
        self._recorder = recorder

    def compute(self, instrs: int) -> None:
        self._recorder.pend_i[self.thread] += instrs
        self.clock += instrs
        self.stats.compute_instrs += instrs

    def advance(self, cycles: int) -> None:
        self._recorder.pend_c[self.thread] += cycles
        self.clock += cycles

    def wait_until(self, clock: int) -> None:
        if clock > self.clock:
            self._recorder.emit(K_SYNC, self.thread, 0, 0, 0, 0, clock)
            self.clock = clock


class RecordingMachine(Machine):
    """A machine that records protocol-visible events as it executes."""

    #: tells the engine to step per-op (no epoch batching): every access
    #: must pass through :meth:`access` to be captured
    record_per_op = True

    def __init__(self, config: MachineConfig, protocol="mesi") -> None:
        super().__init__(config, protocol)
        self.recorder = TraceRecorder(config.num_threads)
        # Replace the cores before any Runtime/Scheduler sees them.
        self.cores = [
            RecordingCore(config, t, self.recorder, tracer=self.tracer)
            for t in range(config.num_threads)
        ]

    # -- recorded instruction streams ----------------------------------
    def access(self, thread, addr, size, atype, spin=False):
        self.recorder.emit(
            K_ACCESS, thread, _AT_CODE[atype], size, 1 if spin else 0, addr, 0
        )
        return super().access(thread, addr, size, atype, spin=spin)

    def place(self, addr, size, thread):
        self.recorder.emit(K_PLACE, thread, 0, 0, 0, addr, size)
        super().place(addr, size, thread)

    def llc_warm_fill(self, addr, thread=0):
        # Input loaders fill the LLC outside any access transaction; the
        # fills perturb LLC LRU order, so replay must reproduce them.
        self.recorder.emit(K_LLC_WARM, thread, 0, 0, 0, addr, 0)
        super().llc_warm_fill(addr, thread)

    def add_ward_region(self, thread, start, end):
        if not self.protocol.supports_ward:
            return None
        # Mirror Machine.add_ward_region, but record the region instruction
        # *after* its 1-instruction charge so the charge rides in this
        # event's pre fields (replay then applies it exactly once).
        self.cores[thread].compute(1)
        self._stamp_tracer(thread)
        self.recorder.emit(K_REGION_ADD, thread, 0, 0, 0, start, end)
        return self.protocol.add_region(start, end)

    def remove_ward_region(self, thread, region):
        if region is None or not self.protocol.supports_ward:
            return
        self.cores[thread].compute(1)
        self._stamp_tracer(thread)
        self.recorder.emit(
            K_REGION_REMOVE, thread, 0, 0, 0, 0, region.region_id
        )
        self.protocol.remove_region(region)


def record_benchmark(
    name: str,
    protocol,
    config: MachineConfig,
    size: str = "default",
    seed: int = 42,
    policy: MarkingPolicy = MarkingPolicy.FULL,
    fingerprint: Optional[str] = None,
) -> Tuple[Trace, BenchResult]:
    """Run one benchmark through the interpreted engine, recording its trace.

    Returns ``(trace, result)`` where ``result`` is the same
    :class:`~repro.analysis.run.BenchResult` a direct ``run_benchmark``
    call would produce (the recorded run *is* a normal run) and ``trace``
    carries everything the replay kernel needs, including the pickled
    functional result and the task/code fingerprints that key the store.
    """
    machine = RecordingMachine(config, protocol)
    recorder = machine.recorder
    out, rt = _run_on(machine, name, size, seed, policy)
    stats = out.stats
    recorder.finish()

    trace = recorder.trace
    if fingerprint is None:
        fingerprint = task_fingerprint(RunTask(
            benchmark=name,
            protocol=_protocol_key(protocol),
            config=config,
            size=size,
            seed=seed,
            policy=policy,
        ))
    trace.meta = {
        "schema": TRACE_SCHEMA,
        "fingerprint": fingerprint,
        "code_fingerprint": code_fingerprint(),
        "benchmark": name,
        "protocol": _protocol_key(protocol),
        "protocol_name": machine.protocol.name,
        "size": size,
        "seed": seed,
        "policy": policy.value,
        "machine": config.name,
        "config": dataclasses.asdict(config),
        "final_thread": rt.root_thread,
        "events": len(trace),
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        # steal probes happen inside the scheduler, invisible to the
        # protocol: carried as per-thread totals and injected at finalize
        "steals": [
            [cm.stats.steal_attempts, cm.stats.successful_steals]
            for cm in machine.cores
        ],
        "result": encode_result(out.result),
    }
    return trace, out
