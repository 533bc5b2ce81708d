"""Observability: event tracing, one ring-buffer sink, and exporters.

``repro.obs`` is the event-level counterpart of :mod:`repro.common.stats`:
where the stats are end-of-run aggregates (what the paper's figures plot),
this subsystem records *when and where* coherence events happen — the
timeline needed to find and prove performance wins.

Typical use::

    from repro.obs import RingBufferSink, write_chrome_trace

    sink = RingBufferSink(capacity=500_000)
    machine.tracer.install(sink)
    ... run ...
    write_chrome_trace("trace.json", sink.events(), machine.config)

The text summaries (:func:`flame_summary`, :func:`region_summary`,
:func:`latency_summary`, :func:`phase_summary`) read the same event list.
"""

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    flame_summary,
    latency_summary,
    manifest_json,
    phase_summary,
    region_summary,
    run_manifest,
    version_metadata,
    write_chrome_trace,
)
from repro.obs.tracer import (
    AccessEvent,
    EvictionEvent,
    HitCountEvent,
    MessageEvent,
    ReconcileEvent,
    RegionEvent,
    RingBufferSink,
    StealEvent,
    StoreBufferEvent,
    StrandEvent,
    Tracer,
    TransitionEvent,
)

__all__ = [
    "AccessEvent",
    "EvictionEvent",
    "HitCountEvent",
    "MessageEvent",
    "ReconcileEvent",
    "RegionEvent",
    "RingBufferSink",
    "StealEvent",
    "StoreBufferEvent",
    "StrandEvent",
    "Tracer",
    "TransitionEvent",
    "chrome_trace",
    "chrome_trace_events",
    "flame_summary",
    "latency_summary",
    "manifest_json",
    "phase_summary",
    "region_summary",
    "run_manifest",
    "version_metadata",
    "write_chrome_trace",
]
