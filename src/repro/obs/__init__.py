"""Observability: event tracing, collectors, and exporters.

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
"""

from repro.obs.collect import (
    LatencyHistogram,
    MultiSink,
    PhaseHistogram,
    RegionProfile,
    RingBufferSink,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    flame_summary,
    manifest_json,
    run_manifest,
    version_metadata,
    write_chrome_trace,
)
from repro.obs.tracer import (
    AccessEvent,
    EvictionEvent,
    EVENT_TYPES,
    ListSink,
    MatrixEvent,
    MessageEvent,
    NullSink,
    ReconcileEvent,
    RegionEvent,
    StealEvent,
    StoreBufferEvent,
    StrandEvent,
    Tracer,
    TransitionEvent,
)

__all__ = [
    "AccessEvent",
    "EVENT_TYPES",
    "EvictionEvent",
    "LatencyHistogram",
    "ListSink",
    "MatrixEvent",
    "MessageEvent",
    "MultiSink",
    "NullSink",
    "PhaseHistogram",
    "ReconcileEvent",
    "RegionEvent",
    "RegionProfile",
    "RingBufferSink",
    "StealEvent",
    "StoreBufferEvent",
    "StrandEvent",
    "Tracer",
    "TransitionEvent",
    "chrome_trace",
    "chrome_trace_events",
    "flame_summary",
    "manifest_json",
    "run_manifest",
    "version_metadata",
    "write_chrome_trace",
]
