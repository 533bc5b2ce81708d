"""Collector and exporter tests on synthetic event streams."""

import json

import pytest

from repro.common.config import dual_socket
from repro.obs.collect import (
    LatencyHistogram,
    MultiSink,
    PhaseHistogram,
    RegionProfile,
    RingBufferSink,
)
from repro.obs.export import (
    MANIFEST_SCHEMA,
    PID_COHERENCE,
    chrome_trace_events,
    flame_summary,
    manifest_json,
    run_manifest,
    version_metadata,
)
from repro.obs.tracer import (
    AccessEvent,
    MessageEvent,
    ReconcileEvent,
    RegionEvent,
    StealEvent,
)


def synthetic_region_stream():
    """add -> reconcile x2 -> remove, as the WARDen protocol emits them."""
    return [
        RegionEvent(cycle=100, thread=0, action="add",
                    region_id=7, start=0x1000, end=0x2000),
        ReconcileEvent(cycle=480, addr=0x1000, region_id=7,
                       copies=3, true_sharing=False, writebacks=2),
        ReconcileEvent(cycle=490, addr=0x1040, region_id=7,
                       copies=2, true_sharing=True, writebacks=1),
        RegionEvent(cycle=500, thread=0, action="remove", region_id=7,
                    start=0x1000, end=0x2000, blocks=2, reconcile_cycles=40),
    ]


class TestMultiSink:
    def test_fans_out_in_order(self):
        a, b = RingBufferSink(capacity=10), RingBufferSink(capacity=10)
        multi = MultiSink(a, b)
        ev = AccessEvent(cycle=1, thread=0, atype="load",
                         addr=0, size=8, latency=6)
        multi.emit(ev)
        assert a.events() == [ev] and b.events() == [ev]


class TestPhaseHistogram:
    def test_bins_by_cycle_window(self):
        hist = PhaseHistogram(bin_cycles=100)
        hist.emit(AccessEvent(cycle=5, thread=0, atype="load",
                              addr=0, size=8, latency=6))
        hist.emit(AccessEvent(cycle=99, thread=1, atype="store",
                              addr=64, size=8, latency=6))
        hist.emit(MessageEvent(cycle=250, mtype="GetS", link="intra", count=1))
        d = hist.to_dict()
        assert d["phases"]["0"] == {"access": 2}
        assert d["phases"]["2"] == {"message": 1}
        assert hist.kinds() == ["access", "message"]
        assert "phase (cycles)" in hist.render()

    def test_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            PhaseHistogram(bin_cycles=0)


class TestLatencyHistogram:
    def test_log2_buckets_and_totals(self):
        hist = LatencyHistogram()
        for lat in (6, 7, 100):
            hist.emit(AccessEvent(cycle=0, thread=0, atype="load",
                                  addr=0, size=8, latency=lat))
        # non-access events are ignored
        hist.emit(StealEvent(cycle=0, thief=0, victim=1, success=True))
        d = hist.to_dict()
        assert d["total_count"] == {"load": 3}
        assert d["total_cycles"] == {"load": 113}
        assert d["buckets"]["load|<8"] == 2       # 6 and 7 share bucket 3
        assert d["buckets"]["load|<128"] == 1     # 100 lands in bucket 7
        assert "avg 37.7" in hist.render()


class TestRegionProfile:
    def test_lifetime_and_reconcile_attribution(self):
        profile = RegionProfile()
        for ev in synthetic_region_stream():
            profile.emit(ev)
        assert profile.regions_opened == 1
        assert profile.regions_closed == 1
        assert profile.covered_cycles == 400
        assert profile.blocks_reconciled == 2
        assert profile.shared_blocks == 2
        assert profile.true_sharing_blocks == 1
        assert profile.true_sharing_ratio == 0.5
        record = profile.closed[0]
        assert record.lifetime == 400
        assert record.reconciled == 2 and record.writebacks == 3
        assert "median 400" in profile.render()

    def test_reject_counted_not_opened(self):
        profile = RegionProfile()
        profile.emit(RegionEvent(cycle=1, thread=0, action="reject",
                                 region_id=-1, start=0, end=64))
        assert profile.rejected == 1 and profile.regions_opened == 0


class TestChromeTraceSynthetic:
    def test_region_add_remove_becomes_slice(self):
        events = chrome_trace_events(synthetic_region_stream())
        slices = [e for e in events if e["name"] == "WARD region 7"]
        assert len(slices) == 1
        sl = slices[0]
        assert sl["ph"] == "X" and sl["ts"] == 100 and sl["dur"] == 400
        assert sl["pid"] == PID_COHERENCE
        assert sl["args"]["blocks_reconciled"] == 2

    def test_unpaired_add_becomes_open_instant(self):
        events = chrome_trace_events([
            RegionEvent(cycle=9, thread=0, action="add",
                        region_id=3, start=0, end=64),
        ])
        names = [e["name"] for e in events]
        assert "WARD region 3 (open)" in names


class TestManifests:
    def _result(self):
        from repro.analysis.run import run_benchmark
        return run_benchmark("fib", "warden", dual_socket(), size="test")

    def test_manifest_round_trips_through_json(self):
        config = dual_socket()
        result = self._result()
        line = manifest_json(run_manifest(result, config))
        assert "\n" not in line  # JSONL: one object per line
        back = json.loads(line)
        assert back["schema"] == MANIFEST_SCHEMA
        assert back["benchmark"] == "fib"
        assert back["stats"]["cycles"] == result.stats.cycles
        assert back["config"]["name"] == config.name
        from repro.common.stats import RunStats
        restored = RunStats.from_dict(back["stats"])
        assert restored.to_dict() == result.stats.to_dict()

    def test_version_metadata_keys(self):
        meta = version_metadata()
        assert meta["repro_version"] == __import__("repro").__version__
        assert meta["python"].count(".") == 2

    def test_robustness_block_attached_when_given(self):
        from repro.analysis.pool import MatrixReport

        result = self._result()
        assert "robustness" not in run_manifest(result)
        report = MatrixReport()
        report.record("retry", 1, 1, detail="transient")
        manifest = run_manifest(result, robustness=report.to_dict())
        back = json.loads(manifest_json(manifest))
        assert back["robustness"]["retries"] == 1
        assert back["robustness"]["events"][0]["task_index"] == 1


class TestFlameSummary:
    def test_classifies_by_latency(self):
        config = dual_socket()
        events = [
            AccessEvent(cycle=0, thread=0, atype="load", addr=0, size=8,
                        latency=config.l1.latency),
            AccessEvent(cycle=9, thread=0, atype="load", addr=64, size=8,
                        latency=config.cross_socket_latency() + 10),
        ]
        text = flame_summary(events, config)
        assert "access;load;private-hit" in text
        assert "access;load;cross-socket" in text

    def test_empty_stream(self):
        assert "no events" in flame_summary([])
