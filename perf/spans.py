"""Per-layer tracing of one benchmark job, from outside the simulator.

:class:`LayerTracer` wraps the public entry points of each simulator layer
(``ENTRY_POINTS`` plus every registered coherence protocol's access and
region methods) for the duration of one job and restores the originals
afterwards.  Layers are named after their modules.

* Every wrapped call adds to its entry point's ``(calls, total, self)``
  aggregate, where self time is the call's duration minus the time of the
  wrapped calls nested inside it.  Summed over all entry points, self
  time equals the time spent inside outermost wrapped calls, so the
  layer shares add up to ``trace.coverage``.
* Coarse entry points (one call per op, or per trace load, store or
  replay) are also kept as individual spans with a parent span id and the
  op id as request id.  An op is one simulated cell: an engine run
  (``run_benchmark``), a recording (``record_benchmark``) or a replay
  (``replay_trace``).

The tracer is only ever installed in the benchmark's child process.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

HOT, SPAN, OP = "hot", "span", "op"

#: (layer, "module:qualname", kind).  HOT entry points run per access or
#: per scheduler event and are only aggregated; SPAN and OP entry points
#: are kept individually as well, and OP ones open a new request id.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("analysis.run", "repro.analysis.run:run_pairs", SPAN),
    ("analysis.run", "repro.analysis.run:run_benchmark", OP),
    ("analysis.pool", "repro.analysis.pool:replay_matrix", SPAN),
    ("bench", "repro.bench.common:Benchmark.workload", SPAN),
    ("workloads.memtrace", "repro.workloads.memtrace:load_trace_file", SPAN),
    ("hlpl.runtime", "repro.hlpl.runtime:Runtime.run", SPAN),
    ("hlpl.runtime", "repro.hlpl.runtime:Runtime.heap_alloc", HOT),
    ("hlpl.runtime", "repro.hlpl.runtime:Runtime.construct_begin", HOT),
    ("hlpl.runtime", "repro.hlpl.runtime:Runtime.construct_end", HOT),
    ("hlpl.scheduler", "repro.hlpl.scheduler:WorkStealingScheduler.on_idle", HOT),
    ("hlpl.scheduler", "repro.hlpl.scheduler:WorkStealingScheduler.push", HOT),
    ("sim.engine", "repro.sim.engine:Engine.run", SPAN),
    ("sim.machine", "repro.sim.machine:Machine.access", HOT),
    ("sim.machine", "repro.sim.machine:Machine.compute", HOT),
    ("sim.machine", "repro.sim.machine:Machine.add_ward_region", HOT),
    ("sim.machine", "repro.sim.machine:Machine.remove_ward_region", HOT),
    ("sim.machine", "repro.sim.machine:Machine.llc_warm_fill", HOT),
    ("mem.cache", "repro.mem.cache:SetAssocCache.lookup", HOT),
    ("mem.cache", "repro.mem.cache:SetAssocCache.probe", HOT),
    ("mem.cache", "repro.mem.cache:SetAssocCache.install", HOT),
    ("mem.cache", "repro.mem.cache:SetAssocCache.install_block", HOT),
    ("mem.cache", "repro.mem.cache:SetAssocCache.invalidate", HOT),
    ("mem.cache", "repro.mem.cache:SetAssocCache.commit_hit", HOT),
    ("mem.cache", "repro.mem.cache:SetAssocCache.peek", HOT),
    ("mem.interconnect", "repro.mem.interconnect:Interconnect.send", HOT),
    ("mem.interconnect", "repro.mem.interconnect:Interconnect.core_to_home", HOT),
    ("mem.interconnect", "repro.mem.interconnect:Interconnect.home_to_core", HOT),
    ("mem.interconnect", "repro.mem.interconnect:Interconnect.core_to_core", HOT),
    ("energy", "repro.energy.model:EnergyModel.compute", SPAN),
    ("replay.record", "repro.replay.record:record_benchmark", OP),
    ("replay.record", "repro.replay.trace:Trace.to_bytes", SPAN),
    ("replay.record", "repro.replay.trace:TraceStore.store", SPAN),
    ("replay.trace", "repro.replay.trace:TraceStore.load", SPAN),
    ("replay.kernel", "repro.replay.kernel:replay_trace", OP),
    ("replay.kernel", "repro.replay.kernel:ReplayKernel.__init__", SPAN),
    ("replay.kernel", "repro.replay.kernel:ReplayKernel.run", SPAN),
)

#: wrapped on every registered protocol class that defines them itself
COHERENCE_METHODS = ("access", "try_fast_access", "add_region", "remove_region")

#: layers in report order (the order data flows down the stack)
LAYERS = (
    "analysis.run", "analysis.pool", "bench", "workloads.memtrace",
    "hlpl.runtime", "hlpl.scheduler", "sim.engine", "sim.machine",
    "coherence", "mem.cache", "mem.interconnect", "energy",
    "replay.record", "replay.trace", "replay.kernel",
)


def _resolve(path: str) -> Tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Wraps the layer entry points for one job; see the module docstring."""

    def __init__(self) -> None:
        #: entry key -> [calls, total, self, outermost calls in its layer]
        self.slots: Dict[str, list] = {}
        self.layer_of: Dict[str, str] = {}
        self.counts: Counter = Counter()
        #: kept spans: [id, parent, request, layer, name, start, end]
        self.spans: List[list] = []
        self._kids = [0.0]  # child-time accumulators, one per open call
        self._depth: Dict[str, list] = {layer: [0] for layer in LAYERS}
        self._open: List[int] = []  # ids of the open kept spans
        self._op: Optional[int] = None
        self._next_op = 0
        self._t0 = 0.0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; call after all ``repro`` modules load."""
        from repro.coherence.registry import protocol_map

        self._t0 = perf_counter()
        for layer, path, kind in ENTRY_POINTS:
            owner, attr = _resolve(path)
            self._wrap(owner, attr, layer, kind, path)
        for cls in sorted(set(protocol_map().values()), key=lambda c: c.__name__):
            for attr in COHERENCE_METHODS:
                if attr in vars(cls):
                    self._wrap(
                        cls, attr, "coherence", HOT,
                        f"{cls.__module__}:{cls.__name__}.{attr}",
                    )

    def uninstall(self) -> None:
        """Put back every original, leaving modules and classes as found."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def _wrap(self, owner, attr: str, layer: str, kind: str, key: str) -> None:
        original = vars(owner)[attr]
        self.slots[key] = [0, 0.0, 0.0, 0]
        self.layer_of[key] = layer
        after = _AFTER.get(key, _AFTER.get(attr))
        if kind == HOT:
            wrapper = self._hot(original, key, layer, after)
        else:
            wrapper = self._kept(original, key, layer, kind == OP, after)
        functools.update_wrapper(wrapper, original)
        if isinstance(owner, type):
            self._patch(owner, attr, original, wrapper)
            return
        # A module-level function: rebind it wherever it was imported by
        # name, so callers holding their own reference are traced too.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _hot(self, fn: Callable, key: str, layer: str, after) -> Callable:
        slot = self.slots[key]
        depth = self._depth[layer]
        kids = self._kids
        tracer = self

        def wrapper(*args, **kwargs):
            outer = depth[0]
            depth[0] = outer + 1
            kids.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                depth[0] = outer
                inner = kids.pop()
                kids[-1] += elapsed
                slot[0] += 1
                slot[2] += elapsed - inner
                if not outer:
                    slot[1] += elapsed
                    slot[3] += 1
            if after is not None:
                after(tracer, result, args)
            return result

        return wrapper

    def _kept(self, fn: Callable, key: str, layer: str, is_op: bool, after):
        hot = self._hot(fn, key, layer, after)
        name = key.partition(":")[2]
        spans = self.spans
        opened = self._open

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            new_op = is_op and self._op is None
            if new_op:
                self._op = self._next_op
                self._next_op += 1
            record = [
                span_id, opened[-1] if opened else None, self._op, layer, name,
                round(perf_counter() - self._t0, 6), None,
            ]
            spans.append(record)
            opened.append(span_id)
            try:
                return hot(*args, **kwargs)
            finally:
                record[6] = round(perf_counter() - self._t0, 6)
                opened.pop()
                if new_op:
                    self._op = None

        return wrapper

    # ------------------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """layer -> calls, total_s and self_s, summed over its entry points."""
        out = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for key, (calls, total, own, _) in self.slots.items():
            row = out[self.layer_of[key]]
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += own
        return out

    def _entry(self, layer: str, attr: str, field: int) -> float:
        """One slot field summed over ``layer``'s entry points named ``attr``."""
        return sum(
            slot[field] for key, slot in self.slots.items()
            if self.layer_of[key] == layer and key.endswith("." + attr)
        )

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """The per-layer metrics of one traced job lasting ``wall_s``."""
        table = self.layer_table()
        out = {f"{layer}.self_s": table[layer]["self_s"] for layer in LAYERS}
        c = self.counts
        fast = self._entry("coherence", "try_fast_access", 3)
        run_s = self._entry("replay.kernel", "run", 2)
        out.update({
            "bench.calls": table["bench"]["calls"],
            "workloads.memtrace.calls": table["workloads.memtrace"]["calls"],
            "workloads.memtrace.lines": c["lines"],
            "hlpl.runtime.region_marks": self._entry(
                "hlpl.runtime", "construct_begin", 0),
            "hlpl.scheduler.idle_calls": self._entry(
                "hlpl.scheduler", "on_idle", 0),
            "hlpl.scheduler.steal_success_ratio": _ratio(
                c["successful_steals"], c["steal_attempts"]),
            "sim.engine.steps": c["steps"],
            "sim.machine.access_calls": self._entry("sim.machine", "access", 0),
            "coherence.slow_calls": self._entry("coherence", "access", 3),
            "coherence.fast_calls": fast,
            "coherence.fast_hit_ratio": _ratio(c["fast_hits"], fast),
            "coherence.invalidations_per_kacc": 1000.0 * _ratio(
                c["invalidations"], c["accesses"]),
            "mem.cache.calls": table["mem.cache"]["calls"],
            "mem.interconnect.messages": c["messages"],
            "replay.record.bytes_written": c["bytes_written"],
            "replay.trace.bytes_read": c["bytes_read"],
            "replay.kernel.prep_s": self._entry("replay.kernel", "__init__", 2),
            "replay.kernel.run_s": run_s,
            "replay.kernel.events_per_s": _ratio(c["events"], run_s),
            "trace.coverage": _ratio(
                sum(row["self_s"] for row in table.values()), wall_s),
        })
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Counters taken from an entry point's result: after(tracer, result, args)
# ----------------------------------------------------------------------

def _count_lines(tracer, trace, _args) -> None:
    tracer.counts["lines"] += len(trace)


def _count_written(tracer, blob, _args) -> None:
    tracer.counts["bytes_written"] += len(blob)


def _count_read(tracer, trace, args) -> None:
    if trace is not None:
        store, fingerprint = args[0], args[1]
        tracer.counts["bytes_read"] += store.path_for(fingerprint).stat().st_size


def _count_run(tracer, outcome, _args) -> None:
    stats = outcome[1]
    c = tracer.counts
    c["steal_attempts"] += stats.cores.steal_attempts
    c["successful_steals"] += stats.cores.successful_steals
    c["invalidations"] += stats.coherence.invalidations
    c["accesses"] += stats.coherence.total_accesses
    c["messages"] += stats.coherence.total_messages


def _count_steps(tracer, _result, args) -> None:
    tracer.counts["steps"] += args[0].steps


def _count_events(tracer, _stats, args) -> None:
    tracer.counts["events"] += len(args[0].trace)


def _count_fast_hit(tracer, latency, _args) -> None:
    if latency is not None:
        tracer.counts["fast_hits"] += 1


_AFTER = {
    "repro.workloads.memtrace:load_trace_file": _count_lines,
    "repro.replay.trace:Trace.to_bytes": _count_written,
    "repro.replay.trace:TraceStore.load": _count_read,
    "repro.hlpl.runtime:Runtime.run": _count_run,
    "repro.sim.engine:Engine.run": _count_steps,
    "repro.replay.kernel:ReplayKernel.run": _count_events,
    "try_fast_access": _count_fast_hit,
}
