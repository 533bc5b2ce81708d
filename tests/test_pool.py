"""Parallel run matrix + persistent disk cache tests.

The contract under test: a parallel sweep (``jobs > 1``) and every cache
path (in-process, on-disk) must be *bit-identical* to a fresh serial
simulation — same ``RunStats.to_dict()``, same result payloads.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.analysis import pool as pool_mod
from repro.analysis.pool import (
    DiskCache,
    MatrixReport,
    RunTask,
    code_fingerprint,
    config_fingerprint,
    decode_result,
    encode_result,
    run_matrix,
    task_fingerprint,
)
from repro.analysis.run import (
    clear_cache,
    run_benchmark,
    run_pairs,
    set_disk_cache,
)
from repro.replay import TraceStore, record_benchmark
from tests.conftest import tiny_config


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_cache()
    previous = set_disk_cache(None)
    yield
    clear_cache()
    set_disk_cache(previous)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


class TestFingerprints:
    def test_config_fingerprint_covers_every_field(self):
        a = tiny_config()
        # Same name, different tuning: must NOT alias (the old in-process
        # cache keyed on config.name + a few fields and conflated these).
        b = dataclasses.replace(
            a, l1=dataclasses.replace(a.l1, latency=a.l1.latency + 1)
        )
        assert a.name == b.name
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_config_fingerprint_deterministic(self):
        assert config_fingerprint(tiny_config()) == config_fingerprint(
            tiny_config()
        )

    def test_task_fingerprint_varies_with_coordinates(self):
        base = RunTask(benchmark="fib", protocol="mesi", config=tiny_config())
        keys = {
            task_fingerprint(base),
            task_fingerprint(dataclasses.replace(base, benchmark="primes")),
            task_fingerprint(dataclasses.replace(base, protocol="warden")),
            task_fingerprint(dataclasses.replace(base, size="small")),
            task_fingerprint(dataclasses.replace(base, seed=7)),
        }
        assert len(keys) == 5

    def test_task_fingerprint_varies_with_code(self):
        task = RunTask(benchmark="fib", protocol="mesi", config=tiny_config())
        assert task_fingerprint(task, code="aaa") != task_fingerprint(
            task, code="bbb"
        )

    def test_code_fingerprint_is_cached_and_resettable(self):
        first = code_fingerprint()
        assert code_fingerprint() == first
        pool_mod._reset_code_fingerprint()
        assert code_fingerprint() == first  # same sources -> same hash


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------


class TestParallelEquivalence:
    #: three benchmarks x both protocols (run_pairs always runs both)
    NAMES = ("fib", "primes", "tokens")

    def test_run_pairs_jobs4_bit_identical_to_serial(self):
        config = tiny_config()
        serial = {}
        for name in self.NAMES:
            serial[name] = run_pairs(name, config, size="test", jobs=1)
        clear_cache()
        for name in self.NAMES:
            parallel = run_pairs(name, config, size="test", jobs=4)
            for (s_mesi, s_ward), (p_mesi, p_ward) in zip(
                serial[name], parallel
            ):
                assert p_mesi.stats.to_dict() == s_mesi.stats.to_dict()
                assert p_ward.stats.to_dict() == s_ward.stats.to_dict()
                assert p_mesi.result == s_mesi.result
                assert p_ward.result == s_ward.result
                assert (p_mesi.protocol, p_ward.protocol) == ("MESI", "WARDen")

    def test_parallel_results_populate_in_process_cache(self):
        config = tiny_config()
        first = run_pairs("fib", config, size="test", jobs=4)
        again = run_pairs("fib", config, size="test", jobs=4)
        for (a_mesi, a_ward), (b_mesi, b_ward) in zip(first, again):
            assert b_mesi is a_mesi and b_ward is a_ward

    def test_run_matrix_preserves_task_order(self):
        config = tiny_config()
        tasks = [
            RunTask(benchmark=name, protocol=proto, config=config, size="test")
            for name in ("fib", "primes")
            for proto in ("mesi", "warden")
        ]
        results = run_matrix(tasks, jobs=4)
        assert [(r.benchmark, r.protocol) for r in results] == [
            ("fib", "MESI"),
            ("fib", "WARDen"),
            ("primes", "MESI"),
            ("primes", "WARDen"),
        ]


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------


class TestDiskCache:
    def _run_fib(self, **kwargs):
        return run_benchmark("fib", "mesi", tiny_config(), size="test", **kwargs)

    def test_round_trip_hit(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        fresh = self._run_fib()
        assert cache.stores == 1 and len(cache) == 1

        clear_cache()  # drop the in-process cache: force the disk path
        hit = self._run_fib()
        assert cache.hits == 1
        assert hit is not fresh
        assert hit.stats.to_dict() == fresh.stats.to_dict()
        assert hit.result == fresh.result
        assert (hit.benchmark, hit.protocol, hit.machine, hit.size) == (
            fresh.benchmark,
            fresh.protocol,
            fresh.machine,
            fresh.size,
        )

    def test_config_change_invalidates(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        self._run_fib()
        clear_cache()
        # same config *name*, different tuning: must miss, not alias
        tweaked = dataclasses.replace(tiny_config(), dram_latency=999)
        assert tweaked.name == tiny_config().name
        run_benchmark("fib", "mesi", tweaked, size="test")
        assert cache.hits == 0 and cache.stores == 2

    def test_code_change_invalidates(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        self._run_fib()
        clear_cache()
        # simulate an edit to the simulator source
        monkeypatch.setattr(pool_mod, "_code_fingerprint", "deadbeef" * 8)
        run_benchmark("fib", "mesi", tiny_config(), size="test")
        assert cache.hits == 0 and cache.stores == 2 and len(cache) == 2

    def test_corrupted_entry_falls_back_to_rerun(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        fresh = self._run_fib()
        entry = next((tmp_path / "cache").glob("*.json"))
        entry.write_text("{ not json", encoding="utf-8")

        clear_cache()
        rerun = self._run_fib()
        assert cache.hits == 0  # the corrupt entry never served a result
        assert rerun.stats.to_dict() == fresh.stats.to_dict()
        # the corrupt entry was evicted and replaced by the re-run
        assert len(cache) == 1
        assert json.loads(entry.read_text(encoding="utf-8"))["benchmark"] == "fib"

    def test_schema_mismatch_falls_back_to_rerun(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        self._run_fib()
        entry = next((tmp_path / "cache").glob("*.json"))
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["schema"] = -1
        entry.write_text(json.dumps(payload), encoding="utf-8")

        clear_cache()
        self._run_fib()
        assert cache.hits == 0 and cache.stores == 2

    def test_use_disk_cache_false_bypasses(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        self._run_fib(use_disk_cache=False)
        assert cache.stores == 0 and len(cache) == 0

    def test_clear(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        self._run_fib()
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_store_reraises_keyboard_interrupt_after_cleanup(
        self, tmp_path, monkeypatch
    ):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        result = self._run_fib(use_disk_cache=False)

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.store("f" * 64, result)
        # the temp file was cleaned up and nothing was committed
        assert list((tmp_path / "cache").glob("*.tmp")) == []
        assert len(cache) == 0 and cache.stores == 0

    def test_trace_store_reraises_keyboard_interrupt_after_cleanup(
        self, tmp_path, monkeypatch
    ):
        # The trace store writes through the result cache's atomic writer,
        # so an interrupted write leaves no temp file in the trace directory.
        trace, _ = record_benchmark("fib", "mesi", tiny_config(), size="test")
        store = TraceStore(tmp_path / "traces")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            store.store("f" * 64, trace)
        assert list((tmp_path / "traces").iterdir()) == []

    def test_store_reraises_system_exit_after_cleanup(
        self, tmp_path, monkeypatch
    ):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        result = self._run_fib(use_disk_cache=False)
        monkeypatch.setattr(
            os, "replace", lambda s, d: (_ for _ in ()).throw(SystemExit(1))
        )
        with pytest.raises(SystemExit):
            cache.store("f" * 64, result)
        assert list((tmp_path / "cache").glob("*.tmp")) == []

    def test_store_absorbs_transient_oserror(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        result = self._run_fib(use_disk_cache=False)

        def enospc(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", enospc)
        assert cache.store("f" * 64, result) is False
        assert cache.store_errors == 1 and cache.stores == 0
        assert list((tmp_path / "cache").glob("*.tmp")) == []
        # the cache is best-effort: the run itself keeps going
        monkeypatch.undo()
        assert cache.store("f" * 64, result) is True

    def test_parallel_sweep_populates_disk_cache(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        run_pairs("fib", tiny_config(), size="test", jobs=4)
        assert len(cache) == 6  # 3 seeds x 2 protocols

        clear_cache()
        cache.hits = cache.misses = 0
        run_pairs("fib", tiny_config(), size="test", jobs=1)
        assert cache.hits == 6  # serial path reads what the pool wrote


# ----------------------------------------------------------------------
# Result payload round-trips
# ----------------------------------------------------------------------


class TestResultSerialization:
    def test_encode_decode_round_trip_is_bit_identical(self):
        original = run_benchmark("fib", "mesi", tiny_config(), size="test")
        payload = json.loads(
            json.dumps(encode_result("k" * 64, original), sort_keys=True)
        )
        restored = decode_result(payload)
        assert restored.stats.to_dict() == original.stats.to_dict()
        assert restored.result == original.result
        assert (restored.benchmark, restored.protocol, restored.size) == (
            original.benchmark, original.protocol, original.size
        )

    def test_decode_rejects_schema_mismatch(self):
        original = run_benchmark("fib", "mesi", tiny_config(), size="test")
        payload = encode_result("k" * 64, original)
        payload["schema"] = -1
        with pytest.raises(ValueError):
            decode_result(payload)


class TestMatrixReport:
    def test_counters_track_actions(self):
        report = MatrixReport()
        report.record("retry", 1, 1)
        report.record("timeout", 2, 0)
        report.record("respawn", -1, 0)
        report.record("fallback", -1, 0)
        assert (
            report.retries, report.timeouts, report.respawns, report.fallbacks
        ) == (1, 1, 1, 1)
        assert not report.clean
        payload = report.to_dict()
        assert payload["retries"] == 1
        assert [e["action"] for e in payload["events"]] == [
            "retry", "timeout", "respawn", "fallback",
        ]

    def test_clean_report(self):
        report = MatrixReport()
        assert report.clean and report.to_dict()["events"] == []

    def test_armed_plan_is_never_clean(self):
        # nothing fired, but an archived result must still say it ran
        # under fault injection
        report = MatrixReport()
        report.faults = "cache.store.oserror@1"
        assert not report.clean
        assert report.to_dict()["faults"] == "cache.store.oserror@1"

    def test_robust_matrix_with_no_faults_matches_plain_run(self):
        config = tiny_config()
        tasks = [
            RunTask(benchmark="fib", protocol=proto, config=config, size="test")
            for proto in ("mesi", "warden")
        ]
        plain = run_matrix(tasks, jobs=2)
        clear_cache()
        report = MatrixReport()
        robust = run_matrix(
            tasks, jobs=2, timeout=60.0, retries=2, report=report
        )
        assert [r.stats.to_dict() for r in robust] == [
            r.stats.to_dict() for r in plain
        ]
        assert report.clean
