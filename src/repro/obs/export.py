"""Exporters: Chrome trace-event JSON, JSONL run manifests, text summaries.

* :func:`chrome_trace` converts a recorded event list into the Chrome
  trace-event format (the ``{"traceEvents": [...]}`` flavour), loadable in
  Perfetto / ``chrome://tracing``.  Layout: one track per hardware thread
  (process ``threads``) carrying access slices, store-buffer stalls and
  steal probes, plus a dedicated ``coherence`` track carrying protocol
  events (messages, transitions, reconciliations, WARD region slices).
  Timestamps are simulated cycles reported in the ``ts`` microsecond field
  (1 cycle == 1 "us"), which Perfetto renders fine for relative analysis.
  Counted private hits (:class:`~repro.obs.tracer.HitCountEvent`) have no
  time of their own and draw nothing.

* :func:`run_manifest` builds the structured JSONL manifest for one run:
  machine config + full ``RunStats.to_dict()`` + version metadata.  One
  manifest is one JSON object on one line (append-friendly).

* :func:`flame_summary`, :func:`region_summary`, :func:`latency_summary`
  and :func:`phase_summary` render the four text sections of ``profile``,
  each from the same recorded event list, so every section describes the
  same window of the run.  Counted private hits cover the whole run.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, List, Optional

from repro.common.config import MachineConfig
from repro.obs.tracer import (
    AccessEvent,
    EvictionEvent,
    HitCountEvent,
    MessageEvent,
    ReconcileEvent,
    RegionEvent,
    StealEvent,
    StoreBufferEvent,
    StrandEvent,
    TransitionEvent,
)

#: synthetic process ids for the two track groups
PID_THREADS = 1
PID_COHERENCE = 2
#: the single coherence track's thread id
TID_COHERENCE = 0

MANIFEST_SCHEMA = "warden-repro/run-manifest/v1"


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------

def _metadata(events: List[dict], num_threads: int) -> None:
    events.append({
        "name": "process_name", "ph": "M", "ts": 0,
        "pid": PID_THREADS, "tid": 0, "args": {"name": "hardware threads"},
    })
    events.append({
        "name": "process_name", "ph": "M", "ts": 0,
        "pid": PID_COHERENCE, "tid": TID_COHERENCE,
        "args": {"name": "coherence"},
    })
    events.append({
        "name": "thread_name", "ph": "M", "ts": 0,
        "pid": PID_COHERENCE, "tid": TID_COHERENCE,
        "args": {"name": "protocol events"},
    })
    for t in range(num_threads):
        events.append({
            "name": "thread_name", "ph": "M", "ts": 0,
            "pid": PID_THREADS, "tid": t, "args": {"name": f"thread {t}"},
        })


def chrome_trace_events(
    events: Iterable, config: Optional[MachineConfig] = None
) -> List[dict]:
    """Convert tracer events into a list of Chrome trace-event dicts."""
    out: List[dict] = []
    threads_seen = set()
    #: region_id -> the "add" trace event's ts, for slice pairing
    region_opened: dict = {}
    for ev in events:
        cls = type(ev)
        if cls is AccessEvent:
            threads_seen.add(ev.thread)
            out.append({
                "name": ev.atype, "ph": "X", "ts": ev.cycle,
                "dur": max(ev.latency, 1), "pid": PID_THREADS,
                "tid": ev.thread,
                "args": {"addr": hex(ev.addr), "size": ev.size},
            })
        elif cls is MessageEvent:
            out.append({
                "name": f"msg:{ev.mtype}", "ph": "i", "s": "t",
                "ts": ev.cycle, "pid": PID_COHERENCE, "tid": TID_COHERENCE,
                "args": {"link": ev.link, "count": ev.count},
            })
        elif cls is TransitionEvent:
            out.append({
                "name": f"{ev.old}->{ev.new}", "ph": "i", "s": "t",
                "ts": ev.cycle, "pid": PID_COHERENCE, "tid": TID_COHERENCE,
                "args": {"site": ev.site, "addr": hex(ev.addr)},
            })
        elif cls is RegionEvent:
            if ev.action == "add":
                region_opened[ev.region_id] = ev.cycle
                continue
            if ev.action == "remove":
                start_ts = region_opened.pop(ev.region_id, None)
                if start_ts is None:
                    # its add fell out of the window: no slice to draw, as
                    # region_summary leaves it out too
                    continue
                out.append({
                    "name": f"WARD region {ev.region_id}", "ph": "X",
                    "ts": start_ts, "dur": max(ev.cycle - start_ts, 1),
                    "pid": PID_COHERENCE, "tid": TID_COHERENCE,
                    "args": {
                        "start": hex(ev.start), "end": hex(ev.end),
                        "blocks_reconciled": ev.blocks,
                    },
                })
            else:  # reject
                out.append({
                    "name": "WARD region rejected", "ph": "i", "s": "t",
                    "ts": ev.cycle, "pid": PID_COHERENCE,
                    "tid": TID_COHERENCE,
                    "args": {"start": hex(ev.start), "end": hex(ev.end)},
                })
        elif cls is ReconcileEvent:
            out.append({
                "name": "reconcile", "ph": "i", "s": "t", "ts": ev.cycle,
                "pid": PID_COHERENCE, "tid": TID_COHERENCE,
                "args": {
                    "addr": hex(ev.addr), "copies": ev.copies,
                    "true_sharing": ev.true_sharing,
                    "writebacks": ev.writebacks,
                },
            })
        elif cls is EvictionEvent:
            out.append({
                "name": f"evict:{ev.cache}", "ph": "i", "s": "t",
                "ts": ev.cycle, "pid": PID_COHERENCE, "tid": TID_COHERENCE,
                "args": {"addr": hex(ev.addr), "state": ev.state},
            })
        elif cls is StoreBufferEvent:
            threads_seen.add(ev.thread)
            out.append({
                "name": f"sb-{ev.cause}", "ph": "X", "ts": ev.cycle,
                "dur": max(ev.stall_cycles, 1), "pid": PID_THREADS,
                "tid": ev.thread, "args": {"occupancy": ev.occupancy},
            })
        elif cls is StealEvent:
            threads_seen.add(ev.thief)
            out.append({
                "name": "steal" if ev.success else "steal-miss",
                "ph": "i", "s": "t", "ts": ev.cycle, "pid": PID_THREADS,
                "tid": ev.thief, "args": {"victim": ev.victim},
            })
        elif cls is StrandEvent:
            threads_seen.add(ev.thread)
            out.append({
                "name": f"strand-{ev.action}", "ph": "i", "s": "t",
                "ts": ev.cycle, "pid": PID_THREADS, "tid": ev.thread,
                "args": {"task": ev.task_id},
            })
    # Regions still open when the trace ended: emit as instants.
    for region_id, ts in region_opened.items():
        out.append({
            "name": f"WARD region {region_id} (open)", "ph": "i", "s": "t",
            "ts": ts, "pid": PID_COHERENCE, "tid": TID_COHERENCE, "args": {},
        })
    num_threads = (
        config.num_threads if config is not None
        else (max(threads_seen) + 1 if threads_seen else 0)
    )
    meta: List[dict] = []
    _metadata(meta, num_threads)
    return meta + out


def chrome_trace(
    events: Iterable, config: Optional[MachineConfig] = None,
    extra: Optional[dict] = None,
) -> dict:
    """The full Chrome trace JSON object for a recorded event stream."""
    other = {"timeUnit": "cycles (1 cycle rendered as 1us)"}
    if extra:
        other.update(extra)
    return {
        "traceEvents": chrome_trace_events(events, config),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    path, events: Iterable, config: Optional[MachineConfig] = None,
    extra: Optional[dict] = None,
) -> int:
    """Write the trace JSON to ``path``; returns the event count written."""
    trace = chrome_trace(events, config, extra)
    Path(path).write_text(json.dumps(trace), encoding="utf-8")
    return len(trace["traceEvents"])


# ----------------------------------------------------------------------
# JSONL run manifests
# ----------------------------------------------------------------------

def _git_revision() -> Optional[str]:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if rev.returncode != 0:
        return None
    return rev.stdout.strip() or None


def version_metadata() -> dict:
    """Best-effort provenance block for manifests (never raises)."""
    try:
        from repro import __version__ as version
    except ImportError:  # pragma: no cover - repro is always importable here
        version = None
    return {
        "repro_version": version,
        "python": platform.python_version(),
        "platform": sys.platform,
        "git_revision": _git_revision(),
    }


def config_dict(config: MachineConfig) -> dict:
    return dataclasses.asdict(config)


def run_manifest(
    result,
    config: Optional[MachineConfig] = None,
    robustness: Optional[dict] = None,
) -> dict:
    """Structured manifest for one :class:`~repro.analysis.run.BenchResult`.

    ``robustness`` (typically ``MatrixReport.to_dict()``) records what the
    fault-tolerant run matrix had to survive to produce the result —
    retries, timeouts, pool respawns, serial fallback.
    """
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "benchmark": result.benchmark,
        "protocol": result.protocol,
        "machine": result.machine,
        "size": result.size,
        "ward_checked": result.ward_checked,
        "stats": result.stats.to_dict(),
        "meta": version_metadata(),
    }
    if config is not None:
        manifest["config"] = config_dict(config)
    if robustness is not None:
        manifest["robustness"] = robustness
    return manifest


def manifest_json(manifest: dict) -> str:
    """One manifest as one JSON line (JSONL-append friendly)."""
    return json.dumps(manifest, sort_keys=True, default=str)


# ----------------------------------------------------------------------
# Text summaries (the sections of ``profile``)
# ----------------------------------------------------------------------

def _latency_class(latency: int, config: Optional[MachineConfig]) -> str:
    """Coarse classification of an access by its latency."""
    if config is None:
        return f"lat<{1 << latency.bit_length()}"
    private = config.l1.latency + config.l2.latency
    on_die = private + 2 * config.hop_intra_latency + config.l3.latency
    cross = config.cross_socket_latency()
    if latency <= private:
        return "private-hit"
    if latency < cross:
        return "on-die" if latency <= on_die + config.dram_latency else "on-die+dram"
    return "cross-socket"


def flame_summary(
    events: Iterable, config: Optional[MachineConfig] = None,
) -> str:
    """Folded-stack summary of where simulated cycles went.

    Each line is ``stack;frames  cycles  count`` ordered by cycles spent,
    with a proportional bar — the text analogue of a flame graph.
    """
    cycles: Counter = Counter()
    counts: Counter = Counter()
    for ev in events:
        cls = type(ev)
        if cls is AccessEvent or cls is HitCountEvent:
            stack = f"access;{ev.atype};{_latency_class(ev.latency, config)}"
            cycles[stack] += ev.latency * ev.count
            counts[stack] += ev.count
        elif cls is StoreBufferEvent:
            stack = f"store-buffer;{ev.cause}"
            cycles[stack] += ev.stall_cycles
            counts[stack] += 1
        elif cls is StealEvent:
            stack = f"steal;{'hit' if ev.success else 'miss'}"
            counts[stack] += 1
        elif cls is MessageEvent:
            counts[f"message;{ev.link};{ev.mtype}"] += ev.count
        elif cls is ReconcileEvent:
            counts["reconcile"] += 1
    if not counts:
        return "flame summary: no events recorded"
    total = sum(cycles.values()) or 1
    lines = []
    ordered = sorted(
        counts, key=lambda s: (cycles.get(s, 0), counts[s]), reverse=True
    )
    stack_w = max(len(s) for s in ordered)
    for stack in ordered:
        cyc = cycles.get(stack, 0)
        bar = "#" * max(1, round(cyc / total * 60)) if cyc else ""
        lines.append(
            f"{stack.ljust(stack_w)}  {cyc:>12} cyc  {counts[stack]:>10} ev  {bar}"
        )
    return "\n".join(lines)


def region_summary(events: Iterable) -> str:
    """Per-WARD-region lifetimes and the §5.2 reconciliation split.

    A region's lifetime runs from its ``add`` to its ``remove``; a remove
    whose add is not in ``events`` is left out.  Every reconciled block
    counts, split by whether it had more than one copy and whether the
    sharing was true sharing.
    """
    opened = closed = rejected = covered = 0
    reconciled = shared = true_sharing = 0
    added: dict = {}
    lifetimes: List[int] = []
    for ev in events:
        cls = type(ev)
        if cls is RegionEvent:
            if ev.action == "add":
                opened += 1
                added[ev.region_id] = ev.cycle
            elif ev.action == "remove":
                add_cycle = added.pop(ev.region_id, None)
                if add_cycle is None:
                    continue
                closed += 1
                lifetime = max(ev.cycle - add_cycle, 0)
                covered += lifetime
                lifetimes.append(lifetime)
            else:  # "reject": the region CAM was full
                rejected += 1
        elif cls is ReconcileEvent:
            reconciled += 1
            shared += ev.copies > 1
            true_sharing += bool(ev.true_sharing)
    ratio = true_sharing / reconciled if reconciled else 0.0
    lines = [
        f"regions opened/closed/rejected : {opened}/{closed}/{rejected}",
        f"cycles WARD-covered (sum)      : {covered}",
        f"blocks reconciled              : {reconciled}",
        f"  with >1 sharer               : {shared}",
        f"  with true sharing            : {true_sharing} (ratio {ratio:.2%})",
    ]
    if lifetimes:
        lifetimes.sort()
        lines.append(
            f"region lifetime (cycles)       : "
            f"median {lifetimes[len(lifetimes) // 2]}, max {lifetimes[-1]}"
        )
    return "\n".join(lines)


def latency_summary(events: Iterable) -> str:
    """Log2-bucketed access latencies per access type, traced accesses and
    counted hits together.

    Bucket ``b`` covers ``[2^(b-1), 2^b)`` cycles (bucket 0 is latency 0).
    """
    buckets: Counter = Counter()
    total_cycles: Counter = Counter()
    total_count: Counter = Counter()
    for ev in events:
        cls = type(ev)
        if cls is AccessEvent or cls is HitCountEvent:
            buckets[(ev.atype, ev.latency.bit_length())] += ev.count
            total_cycles[ev.atype] += ev.latency * ev.count
            total_count[ev.atype] += ev.count
    if not total_count:
        return "latency histogram: no accesses"
    lines = []
    for atype in sorted(total_count):
        n = total_count[atype]
        cyc = total_cycles[atype]
        lines.append(f"{atype}: {n} accesses, {cyc} cycles (avg {cyc / n:.1f})")
        for (a, bucket), count in sorted(buckets.items()):
            if a != atype:
                continue
            lo = 0 if bucket == 0 else 1 << (bucket - 1)
            hi = (1 << bucket) - 1
            bar = "#" * max(1, round(count / n * 40))
            lines.append(f"  {lo:>6}-{hi:<6} {count:>8}  {bar}")
    return "\n".join(lines)


#: the event kinds :func:`phase_summary` counts: coherence activity only
COHERENCE_KINDS = frozenset(
    ("transition", "message", "evict", "region", "reconcile")
)


def phase_summary(events: Iterable, bin_cycles: int) -> str:
    """Coherence event counts by kind inside fixed-width cycle windows.

    Phase ``k`` is ``[k * bin_cycles, (k+1) * bin_cycles)`` of simulated
    time: the table shows *when* invalidations and reconciliations cluster.
    Only :data:`COHERENCE_KINDS` count; accesses, steals, strands and
    store-buffer stalls have their own sections or none.
    """
    if bin_cycles <= 0:
        raise ValueError("bin_cycles must be positive")
    bins: dict = {}
    for ev in events:
        if ev.kind not in COHERENCE_KINDS:
            continue
        phase = ev.cycle // bin_cycles
        counter = bins.get(phase)
        if counter is None:
            counter = bins[phase] = Counter()
        counter[ev.kind] += 1
    if not bins:
        return "phase histogram: no coherence events"
    kinds = sorted(set().union(*bins.values()))
    lines = ["  ".join(h.rjust(12) for h in ["phase (cycles)"] + kinds)]
    for phase in sorted(bins):
        row = [f"{phase * bin_cycles}+"] + [str(bins[phase][k]) for k in kinds]
        lines.append("  ".join(c.rjust(12) for c in row))
    return "\n".join(lines)
