"""Chaos suite: deterministic fault injection against the robust run matrix.

Every scenario arms one fault from :mod:`repro.analysis.faults` (worker
crash, worker hang, worker failure, cache corruption, transient store
error), runs the same small (benchmark x protocol x seed) matrix, and
asserts the three-part contract of the robustness layer:

1. the matrix *completes*,
2. the merged ``RunStats`` are bit-identical to a clean serial run,
3. the recovery (retry/timeout/respawn/fallback) is recorded in the
   :class:`MatrixReport` and surfaces in the run manifest.

Set ``REPRO_CHAOS_ARTIFACTS=<dir>`` to export each scenario's manifest
(CI uploads them when the job fails).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis import faults
from repro.analysis import pool as pool_mod
from repro.analysis.faults import FaultSyntaxError, parse_plan
from repro.analysis.pool import (
    DiskCache,
    MatrixReport,
    RunTask,
    run_matrix,
)
from repro.analysis.run import (
    clear_cache,
    run_benchmark,
    run_pairs,
    set_disk_cache,
)
from repro.common.errors import PoolError, TaskTimeoutError
from repro.obs.export import run_manifest
from tests.conftest import tiny_config

#: a generous per-task ceiling — the injected hang sleeps far longer, and a
#: healthy tiny run finishes in milliseconds, so the bound is unambiguous
#: even on a loaded CI host
TIMEOUT = 20.0

#: the injected hang must outlast TIMEOUT on every attempt it covers
HANG = 120.0


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    clear_cache()
    previous_disk = set_disk_cache(None)
    previous_plan = faults.uninstall()
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    monkeypatch.setattr(pool_mod, "BACKOFF_BASE", 0.001)
    yield
    clear_cache()
    set_disk_cache(previous_disk)
    faults.install(previous_plan)


def small_matrix():
    config = tiny_config()
    return [
        RunTask(benchmark="fib", protocol=proto, config=config, size="test",
                seed=seed)
        for seed in (42, 43)
        for proto in ("mesi", "warden")
    ]


def stats_of(results):
    return [r.stats.to_dict() for r in results]


def arm(text: str) -> None:
    """Install a fault plan; the clean_slate fixture disarms it."""
    faults.install(parse_plan(text))


def export_artifact(name: str, payload: dict) -> None:
    """Drop a scenario manifest where the CI chaos job can pick it up."""
    directory = os.environ.get("REPRO_CHAOS_ARTIFACTS")
    if not directory:
        return
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str),
        encoding="utf-8",
    )


# ----------------------------------------------------------------------
# Fault-plan syntax
# ----------------------------------------------------------------------


class TestFaultPlanSyntax:
    def test_parse_round_trips_through_describe(self):
        text = "worker.crash@1,worker.hang@0x2:30,cache.store.oserror@1"
        plan = parse_plan(text)
        assert parse_plan(plan.describe()).describe() == plan.describe()
        assert plan.specs["worker.hang"].times == 2
        assert plan.specs["worker.hang"].arg == 30.0

    def test_empty_and_none_disable(self):
        assert parse_plan(None) is None
        assert parse_plan("") is None
        assert parse_plan("  ,  ") is None

    @pytest.mark.parametrize(
        "text, message",
        [
            ("worker.explode@1", "unknown fault site 'worker.explode'"),
            ("worker.crash@one", "bad fault address 'one'"),
            ("worker.hang@0:soon", "bad fault arg 'soon'"),
            # can never fire, so a chaos run would pass uninjected
            ("worker.crash@-1", "'worker.crash@-1' has a negative address"),
            ("worker.crash@3xq", "bad fault count 'q'"),
            ("worker.crash@1x1x1", "bad fault count '1x1'"),
            ("worker.crash@x", "missing fault address"),
            ("worker.crash@2x", "missing fault count"),
            ("worker.fail@0x0", "must fire >= 1 time"),
            # cache.* hits count from 1: a zero address could never fire
            ("cache.store.oserror@0", "never fires"),
        ],
        ids=[
            "unknown-site", "bad-address", "bad-arg", "negative-address",
            "bad-count", "double-count", "missing-address", "missing-count",
            "zero-count", "zero-hit",
        ],
    )
    def test_bad_plan_rejected(self, text, message):
        with pytest.raises(FaultSyntaxError) as exc:
            parse_plan(text)
        assert message in str(exc.value)

    def test_env_plan_resolution(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker.fail@3")
        plan = faults.resolve_plan()
        assert plan is not None and "worker.fail" in plan.specs

    def test_explicit_plan_beats_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker.fail@3")
        plan = faults.resolve_plan("worker.crash@1")
        assert set(plan.specs) == {"worker.crash"}

    def test_worker_faults_never_fire_in_parent(self):
        faults.install(parse_plan("worker.crash@0,worker.fail@0"))
        # IN_WORKER is False here, so neither site may fire (otherwise the
        # serial fallback could crash the parent process).
        faults.worker_faults(0, 0)
        assert faults.active_plan().fired == []


# ----------------------------------------------------------------------
# The chaos scenarios
# ----------------------------------------------------------------------


class TestWorkerCrashRecovery:
    def test_crash_respawns_pool_and_matches_serial(self):
        tasks = small_matrix()
        serial = stats_of(run_matrix(tasks))
        report = MatrixReport()
        arm("worker.crash@1")
        results = run_matrix(tasks, jobs=2, report=report)
        assert stats_of(results) == serial
        assert report.respawns >= 1
        assert "respawn" in report.actions()
        manifest = run_manifest(
            results[0], tasks[0].config, robustness=report.to_dict()
        )
        assert manifest["robustness"]["respawns"] >= 1
        export_artifact("crash-recovery", manifest)

    def test_persistent_crash_degrades_to_serial(self, monkeypatch):
        tasks = small_matrix()
        serial = stats_of(run_matrix(tasks))
        clear_cache()  # the fallback must re-simulate, not read the cache
        report = MatrixReport()
        monkeypatch.setattr(pool_mod, "MAX_RESPAWNS", 1)
        arm("worker.crash@0x99")
        results = run_matrix(tasks, jobs=2, report=report)
        assert stats_of(results) == serial
        assert report.fallbacks == 1 and report.respawns >= 2
        assert report.actions()[-1] == "fallback"
        export_artifact(
            "crash-fallback",
            run_manifest(results[0], tasks[0].config,
                         robustness=report.to_dict()),
        )


class TestWorkerHangTimeout:
    def test_hang_is_killed_and_retried(self):
        tasks = small_matrix()
        serial = stats_of(run_matrix(tasks))
        report = MatrixReport()
        arm(f"worker.hang@0:{HANG}")
        results = run_matrix(
            tasks, jobs=2, report=report, timeout=TIMEOUT, retries=1
        )
        assert stats_of(results) == serial
        assert report.timeouts == 1
        assert [e.action for e in report.events if e.task_index == 0] == [
            "timeout"
        ]
        export_artifact(
            "hang-timeout",
            run_manifest(results[0], tasks[0].config,
                         robustness=report.to_dict()),
        )

    def test_timeout_budget_exhaustion_raises(self):
        tasks = small_matrix()[:2]
        arm(f"worker.hang@0x99:{HANG}")
        with pytest.raises(TaskTimeoutError) as excinfo:
            run_matrix(tasks, jobs=2, timeout=1.5, retries=0)
        assert excinfo.value.task_index == 0


class TestWorkerFailureRetry:
    def test_transient_failure_retried_to_success(self):
        tasks = small_matrix()
        serial = stats_of(run_matrix(tasks))
        report = MatrixReport()
        arm("worker.fail@2x2")
        results = run_matrix(tasks, jobs=2, report=report, retries=2)
        assert stats_of(results) == serial
        assert report.retries == 2
        retried = [e for e in report.events if e.action == "retry"]
        assert [e.task_index for e in retried] == [2, 2]
        manifest = run_manifest(
            results[2], tasks[2].config, robustness=report.to_dict()
        )
        assert manifest["robustness"]["retries"] == 2
        assert any(
            e["action"] == "retry" for e in manifest["robustness"]["events"]
        )
        export_artifact("fail-retry", manifest)

    def test_retry_budget_exhaustion_raises_pool_error(self):
        tasks = small_matrix()[:2]
        arm("worker.fail@1x99")
        with pytest.raises(PoolError, match="failed after 2 attempt"):
            run_matrix(tasks, jobs=2, retries=1)


class TestCacheChaos:
    def _run_fib(self):
        return run_benchmark("fib", "mesi", tiny_config(), size="test")

    def test_corrupted_load_evicts_and_reruns(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        fresh = self._run_fib()
        assert cache.stores == 1

        clear_cache()
        cache.hits = cache.misses = 0
        arm("cache.load.corrupt@1")
        rerun = self._run_fib()
        assert rerun.stats.to_dict() == fresh.stats.to_dict()
        assert cache.hits == 0 and cache.misses == 1
        assert [h.site for h in faults.active_plan().fired] == [
            "cache.load.corrupt"
        ]
        # the corrupted entry was evicted and re-stored by the re-run
        assert cache.stores == 2 and len(cache) == 1

    def test_transient_store_error_is_absorbed(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        arm("cache.store.oserror@1")
        result = self._run_fib()
        assert result.benchmark == "fib"  # the run itself is unharmed
        assert cache.stores == 0 and cache.store_errors == 1
        assert len(cache) == 0

        # the next store (fault exhausted) goes through
        clear_cache()
        self._run_fib()
        assert cache.stores == 1 and len(cache) == 1

    def test_env_plan_reaches_the_serial_path(self, tmp_path, monkeypatch):
        # REPRO_FAULTS arms the in-process matrix too: every store fails,
        # the runs themselves are unharmed, and the report names the plan.
        clean = stats_of(
            r for pair in run_pairs("fib", tiny_config(), size="test")
            for r in pair
        )
        clear_cache()
        cache = DiskCache(tmp_path / "cache")
        set_disk_cache(cache)
        monkeypatch.setenv(faults.ENV_VAR, "cache.store.oserror@1x999")
        report = MatrixReport()
        faulted = run_pairs("fib", tiny_config(), size="test", jobs=1,
                            report=report)
        assert stats_of(r for pair in faulted for r in pair) == clean
        assert len(cache) == 0 and cache.store_errors == 6
        assert report.faults == "cache.store.oserror@1x999"
        assert not report.clean


class TestCacheCheckpoint:
    def test_rerun_with_same_cache_dir_runs_only_unfinished_tasks(
        self, tmp_path
    ):
        # The disk cache is the matrix's only checkpoint: every task is
        # stored as soon as it finishes, so an interrupted matrix re-run
        # with the same cache_dir runs only what the interruption lost.
        tasks = small_matrix()
        serial = stats_of(run_matrix(tasks))
        clear_cache()  # forked workers must simulate, not read this cache
        cache_dir = tmp_path / "cache"

        arm("worker.fail@2x99")
        with pytest.raises(PoolError):
            run_matrix(tasks, jobs=2, cache_dir=str(cache_dir))
        faults.uninstall()
        stored = {
            path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in cache_dir.glob("*.json")
        }
        assert 0 < len(stored) < len(tasks)

        report = MatrixReport()
        results = run_matrix(
            tasks, jobs=2, cache_dir=str(cache_dir), report=report
        )
        assert stats_of(results) == serial
        # the entries stored before the interruption were read, not rewritten
        for name, identity in stored.items():
            path = cache_dir / name
            assert (path.stat().st_ino, path.stat().st_mtime_ns) == identity
        assert len(DiskCache(cache_dir)) == len(tasks)
        export_artifact(
            "cache-checkpoint",
            run_manifest(results[0], tasks[0].config,
                         robustness=report.to_dict()),
        )

    def test_rerun_reports_cache_reads_apart_from_simulations(self, tmp_path):
        # Each pool worker's disk-cache hits reach the report: the re-run
        # counts the tasks stored before the interruption as cached and
        # only the rest as completed (simulated).
        tasks = small_matrix()
        cache_dir = tmp_path / "cache"
        arm("worker.fail@2x99")
        with pytest.raises(PoolError):
            run_matrix(tasks, jobs=2, cache_dir=str(cache_dir))
        faults.uninstall()
        stored = len(DiskCache(cache_dir))
        assert 0 < stored < len(tasks)

        report = MatrixReport()
        run_matrix(tasks, jobs=2, cache_dir=str(cache_dir), report=report)
        assert report.cached == stored
        assert report.completed == len(tasks) - stored
        data = report.to_dict()
        assert data["schema"] == "warden-repro/matrix-report/v3"
        assert (data["cached"], data["completed"]) == (
            stored, len(tasks) - stored
        )
