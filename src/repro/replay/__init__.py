"""Trace record/replay: capture one interpreted run, replay it fast.

The interpreted engine (scheduler + runtime + per-block objects) decides
*which* protocol-visible events happen: memory accesses with their thread
and address, WARD region boundaries, NUMA placement, and scheduler clock
synchronisations.  For a fixed (benchmark, protocol, config, seed, policy)
tuple that event stream is deterministic — so it can be recorded once and
re-executed with no heap, scheduler, or runtime in the loop.

* :mod:`repro.replay.trace`  — the columnar trace container, its serialised
  form, and the fingerprinted on-disk store under ``.warden-cache/traces``.
* :mod:`repro.replay.record` — a recording ``Machine``/``CoreModel`` pair
  that wraps one interpreted run and captures the event stream.
* :mod:`repro.replay.kernel` — replay, bit-identical ``RunStats`` to the
  interpreted engine for the recorded tuple.  MESI and WARDen traces run
  through a packed kernel, where one coherence pass serves every config
  of a latency-only group (:func:`~repro.replay.kernel.replay_group`);
  every other protocol's trace is played into a plain ``Machine``, so its
  own engine class is its only definition.

Replay of a trace under a *different* machine config is a trace-driven
approximation (the event stream is the recorded one; only the memory-system
response changes) — useful for memory-hierarchy sweeps, never cached as an
exact result.
"""

from repro.replay.kernel import ReplayKernel, replay_group, replay_trace
from repro.replay.record import (
    RecordingCore,
    RecordingMachine,
    record_benchmark,
)
from repro.replay.trace import (
    TRACE_SCHEMA,
    Trace,
    TraceStore,
    config_from_dict,
)

__all__ = [
    "TRACE_SCHEMA",
    "Trace",
    "TraceStore",
    "config_from_dict",
    "RecordingCore",
    "RecordingMachine",
    "record_benchmark",
    "ReplayKernel",
    "replay_group",
    "replay_trace",
]
