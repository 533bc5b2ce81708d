"""Tracer/event-bus tests: no-op-when-off, ring buffer, trace schema."""

import dataclasses
import json

import pytest

from repro.analysis.run import run_benchmark
from repro.common.config import CacheConfig, dual_socket
from repro.common.stats import CoherenceStats
from repro.common.types import CoherenceState, MessageType
from repro.mem.cache import SetAssocCache
from repro.mem.interconnect import Interconnect, LinkClass
from repro.obs.export import (
    chrome_trace,
    flame_summary,
    latency_summary,
    phase_summary,
    region_summary,
)
from repro.obs.tracer import RingBufferSink, Tracer
from repro.sim.machine import Machine


class RecordingSink:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class TestDisabledTracer:
    def test_machine_tracer_disabled_by_default(self, mesi):
        assert mesi.tracer.enabled is False
        assert mesi.tracer.sink is None

    def test_disabled_sites_emit_nothing(self, config):
        """With no sink installed, instrumented layers never emit — even if
        a sink object is attached but ``enabled`` stays False."""
        tracer = Tracer()
        spy = RecordingSink()
        tracer.sink = spy  # attached but NOT enabled (install() not called)

        noc = Interconnect(config, CoherenceStats(), tracer=tracer)
        noc.send(MessageType.GET_S, LinkClass.INTRA)

        cache = SetAssocCache(CacheConfig(128, 1, 64), "L1-t", tracer=tracer)
        cache.install(0, CoherenceState.MODIFIED)
        cache.install(64 * 2, CoherenceState.MODIFIED)  # same set, evicts

        assert spy.events == []

    def test_disabled_run_matches_enabled_run_counters(self, config):
        """Tracing must observe, never perturb: a traced run is the
        untraced run, op for op and idle call for idle call."""
        from repro.hlpl.runtime import Runtime
        from repro.bench import BENCHMARKS

        bench = BENCHMARKS["fib"]

        def run(sink):
            machine = Machine(config, "warden")
            if sink is not None:
                machine.tracer.install(sink)
            rt = Runtime(machine, seed=7)
            idle_calls = [0]
            on_idle = rt.scheduler.on_idle

            def counted(worker):
                idle_calls[0] += 1
                return on_idle(worker)

            rt.scheduler.on_idle = counted
            _, stats = rt.run(bench.root_task, bench.workload(size="test", seed=7))
            return stats.to_dict(), rt.engine.steps, idle_calls[0]

        plain = run(None)
        traced = run(RingBufferSink())
        assert plain[0] == traced[0]
        assert plain[1] == traced[1]  # Engine.steps
        assert plain[2] == traced[2]  # scheduler on_idle calls

    def test_install_flips_enabled(self):
        tracer = Tracer()
        assert not tracer.enabled and tracer.sink is None
        sink = RingBufferSink()
        tracer.install(sink)
        assert tracer.enabled and tracer.sink is sink
        tracer.message("GetS", "intra")
        assert len(sink) == 1


class TestRingBufferSink:
    def test_eviction_at_capacity(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.emit(i)
        assert len(sink) == 3
        assert sink.events() == [2, 3, 4]  # oldest evicted first
        assert sink.dropped == 2
        assert sink.seen == 5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestChromeTraceSchema:
    def test_traced_run_produces_valid_chrome_json(self):
        sink = RingBufferSink(capacity=100_000)
        config = dual_socket()
        run_benchmark(
            "fib", "warden", config, size="test", obs_sink=sink,
        )
        assert sink.seen > 0
        trace = json.loads(json.dumps(chrome_trace(sink.events(), config)))
        events = trace["traceEvents"]
        assert events, "trace must not be empty"
        for ev in events:
            assert "ph" in ev and "ts" in ev and "pid" in ev and "tid" in ev
        pids = {ev["pid"] for ev in events}
        # one process for the hardware threads, one for the coherence track
        assert len(pids) == 2
        from repro.obs.export import PID_COHERENCE, PID_THREADS

        thread_tids = {
            ev["tid"] for ev in events
            if ev["pid"] == PID_THREADS and ev["ph"] != "M"
        }
        assert len(thread_tids) > 1  # per-thread tracks
        assert any(ev["pid"] == PID_COHERENCE and ev["ph"] != "M"
                   for ev in events)

    def test_region_slices_are_paired(self):
        sink = RingBufferSink(capacity=100_000)
        config = dual_socket()
        run_benchmark("fib", "warden", config, size="test", obs_sink=sink)
        trace = chrome_trace(sink.events(), config)
        slices = [
            ev for ev in trace["traceEvents"]
            if ev["name"].startswith("WARD region") and ev["ph"] == "X"
        ]
        assert slices, "WARD regions should appear as duration slices"
        for ev in slices:
            assert ev["dur"] >= 1


class TestInstrumentationCoverage:
    def test_all_event_kinds_emitted_by_a_warden_run(self, config):
        """A scheduled WARDen run exercises every instrumented layer."""
        from repro.hlpl.runtime import Runtime
        from repro.bench import BENCHMARKS

        machine = Machine(config, "warden")
        sink = RingBufferSink()
        machine.tracer.install(sink)
        bench = BENCHMARKS["fib"]
        Runtime(machine, seed=42).run(
            bench.root_task, bench.workload(size="test", seed=42)
        )
        kinds = {type(ev).kind for ev in sink.events()}
        assert {"access", "message", "transition", "region",
                "reconcile", "steal", "strand"} <= kinds


class TestTracedBatchedRun:
    """A traced batched run reports what per-op stepping reports: the
    counted fast-path hits fill the access sections, and every other event
    fires at the same point in the same order."""

    @staticmethod
    def _traced(name, protocol, per_op):
        from repro.bench import BENCHMARKS
        from repro.hlpl.runtime import Runtime

        config = dual_socket()
        machine = Machine(config, protocol)
        machine.per_op = per_op  # the per-op reference
        sink = RingBufferSink()
        machine.tracer.install(sink)
        bench = BENCHMARKS[name]
        Runtime(machine, seed=42).run(
            bench.root_task, bench.workload(size="test", seed=42)
        )
        events = sink.events()
        sections = (
            flame_summary(events, config),
            region_summary(events),
            latency_summary(events),
            phase_summary(events, 10_000),
        )
        others = [
            # task ids come from a process-wide counter
            dataclasses.replace(ev, task_id=-1) if ev.kind == "strand" else ev
            for ev in events
            if ev.kind not in ("access", "hits")
        ]
        return sections, others, events

    @pytest.mark.parametrize("protocol", ["mesi", "warden"])
    @pytest.mark.parametrize("name", ["fib", "msort"])
    def test_batched_run_reports_what_per_op_stepping_reports(
        self, name, protocol
    ):
        reference = self._traced(name, protocol, per_op=True)
        batched = self._traced(name, protocol, per_op=False)
        assert batched[0] == reference[0]  # all four profile sections
        assert batched[1] == reference[1]  # non-access events, in order
        assert any(ev.kind == "hits" for ev in batched[2])
        assert not any(ev.kind == "hits" for ev in reference[2])
