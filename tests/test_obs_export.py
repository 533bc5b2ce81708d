"""Summary and exporter tests on synthetic event streams."""

import json

import pytest

from repro.common.config import dual_socket
from repro.obs.export import (
    MANIFEST_SCHEMA,
    PID_COHERENCE,
    chrome_trace_events,
    flame_summary,
    latency_summary,
    manifest_json,
    phase_summary,
    region_summary,
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
                    start=0x1000, end=0x2000, blocks=2),
    ]


def region_lines(text):
    """``region_summary`` output as {label: value}."""
    return dict(
        (part.strip() for part in line.split(" : ", 1))
        for line in text.splitlines()
    )


class TestOneEventList:
    def test_every_section_reads_the_same_events(self):
        events = [AccessEvent(cycle=1, thread=0, atype="load",
                              addr=0, size=8, latency=6)]
        assert "access;load;lat<8" in flame_summary(events)
        assert latency_summary(events).startswith("load: 1 accesses, 6 cycles")
        assert phase_summary(events, 100).splitlines()[1].split() == ["0+", "1"]
        assert region_lines(region_summary(events))[
            "regions opened/closed/rejected"] == "0/0/0"


class TestPhaseHistogram:
    def test_bins_by_cycle_window(self):
        events = [
            AccessEvent(cycle=5, thread=0, atype="load",
                        addr=0, size=8, latency=6),
            AccessEvent(cycle=99, thread=1, atype="store",
                        addr=64, size=8, latency=6),
            MessageEvent(cycle=250, mtype="GetS", link="intra", count=1),
        ]
        header, *rows = phase_summary(events, 100).splitlines()
        assert header.split() == ["phase", "(cycles)", "access", "message"]
        assert [row.split() for row in rows] == [
            ["0+", "2", "0"],
            ["200+", "0", "1"],
        ]

    def test_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            phase_summary([], 0)


class TestLatencyHistogram:
    def test_log2_buckets_and_totals(self):
        events = [
            AccessEvent(cycle=0, thread=0, atype="load",
                        addr=0, size=8, latency=lat)
            for lat in (6, 7, 100)
        ]
        # non-access events are ignored
        events.append(StealEvent(cycle=0, thief=0, victim=1, success=True))
        total, *buckets = latency_summary(events).splitlines()
        assert total == "load: 3 accesses, 113 cycles (avg 37.7)"
        assert [line.split()[:2] for line in buckets] == [
            ["4-7", "2"],       # 6 and 7 share bucket 3
            ["64-127", "1"],    # 100 lands in bucket 7
        ]


class TestRegionProfile:
    def test_lifetime_and_reconcile_attribution(self):
        lines = region_lines(region_summary(synthetic_region_stream()))
        assert lines["regions opened/closed/rejected"] == "1/1/0"
        assert lines["cycles WARD-covered (sum)"] == "400"
        assert lines["blocks reconciled"] == "2"
        assert lines["with >1 sharer"] == "2"
        assert lines["with true sharing"] == "1 (ratio 50.00%)"
        assert lines["region lifetime (cycles)"] == "median 400, max 400"

    def test_reject_counted_not_opened(self):
        text = region_summary([RegionEvent(cycle=1, thread=0, action="reject",
                                           region_id=-1, start=0, end=64)])
        assert region_lines(text)["regions opened/closed/rejected"] == "0/0/1"

    def test_remove_without_its_add_is_left_out(self):
        # A window that starts after the add: the region's blocks still
        # count, but it has no lifetime to report.
        lines = region_lines(region_summary(synthetic_region_stream()[1:]))
        assert lines["regions opened/closed/rejected"] == "0/0/0"
        assert lines["cycles WARD-covered (sum)"] == "0"
        assert lines["blocks reconciled"] == "2"
        assert "region lifetime (cycles)" not in lines


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
