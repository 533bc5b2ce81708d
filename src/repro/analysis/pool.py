"""Parallel run fan-out, the persistent result cache, and the robustness
layer that keeps a long (benchmark x protocol x seed) sweep alive.

The matrix behind every figure harness is embarrassingly parallel: each
simulation is a deterministic, isolated process-sized unit of work.
:func:`run_matrix` is the one scheduler every figure and verify matrix
goes through.  It runs the matrix in-process when ``jobs == 1`` and no
timeout is set, and otherwise fans it out over a
:class:`~concurrent.futures.ProcessPoolExecutor`; either way results merge
in task order, bit-identical to a serial sweep.  Both paths share the
fault-tolerant layer:

* **per-task timeouts** (pool only) — a hung worker is killed, the pool
  re-spawned, and the task retried
  (:class:`~repro.common.errors.TaskTimeoutError` once the retry budget is
  spent);
* **bounded retry** with exponential backoff and *seeded* jitter
  (:data:`BACKOFF_BASE`, :data:`BACKOFF_CAP`), so a retried sweep sleeps
  the same amount every time it is replayed;
* **``BrokenProcessPool`` recovery** — a crashed worker triggers a pool
  re-spawn; past :data:`MAX_RESPAWNS` the matrix degrades to in-process
  serial execution.

Every call resolves the fault plan (:mod:`repro.analysis.faults`, the
installed plan or ``REPRO_FAULTS``) and records it, with every recovery
event (a :class:`MatrixEvent`) and the count of tasks simulated and read
from the disk cache, in a :class:`MatrixReport`, surfaced in run
manifests.

:class:`DiskCache` makes the sweep incremental across invocations: results
live in ``.warden-cache/`` keyed by a content hash of the *full*
:class:`~repro.common.config.MachineConfig`, the benchmark coordinates
(name/size/seed/policy/check_ward), and a fingerprint of the simulator
source itself — editing any file under ``repro/`` invalidates every entry,
so a stale cache can never masquerade as a fresh simulation.  It is also
the matrix's only checkpoint: each task is stored the moment it finishes,
in whichever process ran it, so re-running an interrupted matrix with the
same ``cache_dir`` runs only the unfinished tasks, with bit-identical
results.  With the disk cache off nothing persists and a re-run starts
over.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import pickle
import random
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import repro
from repro.analysis import faults
from repro.common.config import MachineConfig
from repro.common.errors import PoolError, TaskTimeoutError
from repro.common.stats import RunStats
from repro.hlpl.policy import MarkingPolicy
from repro.workloads import TRACE_PREFIX, trace_file_digest

#: default location of the persistent result cache (relative to the cwd)
DEFAULT_CACHE_DIR = ".warden-cache"

#: bump when the cache payload layout changes (old entries fall back to re-run)
CACHE_SCHEMA = 1

#: seconds slept before a task's first retry; doubles per attempt up to
#: BACKOFF_CAP, then scaled by a seeded jitter in [0.5, 1)
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: pool re-spawns one matrix tolerates before it degrades to serial execution
MAX_RESPAWNS = 3

_code_fingerprint: Optional[str] = None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file (cached per process).

    Any edit to the simulator invalidates previously cached results —
    correctness first, incrementality second.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def _reset_code_fingerprint() -> None:
    """Test hook: forget the cached per-process code fingerprint."""
    global _code_fingerprint
    _code_fingerprint = None


# ----------------------------------------------------------------------
# Task descriptions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunTask:
    """One (benchmark, protocol, config, size, seed, policy) simulation."""

    benchmark: str
    protocol: str
    config: MachineConfig
    size: str = "default"
    seed: int = 42
    policy: MarkingPolicy = MarkingPolicy.FULL
    check_ward: bool = False


def _workload_fingerprint(benchmark: str) -> Optional[str]:
    """Content hash of an external trace file for ``trace:<path>`` names.

    The benchmark *name* of an ingested trace is just a path; two
    different files at the same path must not share cache entries, and
    an edited file must invalidate them.  Missing/unreadable files hash
    as a sentinel — resolution will fail loudly later with a proper
    diagnostic.
    """
    if not benchmark.startswith(TRACE_PREFIX):
        return None
    return trace_file_digest(benchmark[len(TRACE_PREFIX):]) or "unreadable"


def task_fingerprint(task: RunTask, code: Optional[str] = None) -> str:
    """Content-addressed cache key for one simulation run."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "workload": _workload_fingerprint(task.benchmark),
            "benchmark": task.benchmark,
            "protocol": task.protocol,
            "size": task.size,
            "seed": task.seed,
            "policy": task.policy.value,
            "check_ward": task.check_ward,
            "config": dataclasses.asdict(task.config),
            "code": code if code is not None else code_fingerprint(),
        },
        sort_keys=True,
    )
    return _sha256(payload.encode("utf-8"))


# ----------------------------------------------------------------------
# Result payload (de)serialization: the disk cache's entry format
# ----------------------------------------------------------------------


def pickle_b64(value) -> str:
    """A benchmark's functional result as ASCII text: the form both the
    disk cache's entries and a trace's meta carry it in."""
    return base64.b64encode(pickle.dumps(value, protocol=4)).decode("ascii")


def unpickle_b64(text: str):
    """Inverse of :func:`pickle_b64`."""
    return pickle.loads(base64.b64decode(text))


def encode_result(fingerprint: str, result) -> dict:
    """One BenchResult as a JSON-safe payload dict (see CACHE_SCHEMA)."""
    return {
        "schema": CACHE_SCHEMA,
        "fingerprint": fingerprint,
        "benchmark": result.benchmark,
        "protocol": result.protocol,
        "machine": result.machine,
        "size": result.size,
        "ward_checked": result.ward_checked,
        "stats": result.stats.to_dict(),
        "result": pickle_b64(result.result),
    }


def decode_result(payload: dict):
    """Inverse of :func:`encode_result`; raises on any mismatch."""
    from repro.analysis.run import BenchResult

    if payload["schema"] != CACHE_SCHEMA:
        raise ValueError(f"cache schema {payload['schema']}")
    return BenchResult(
        benchmark=payload["benchmark"],
        protocol=payload["protocol"],
        machine=payload["machine"],
        size=payload["size"],
        stats=RunStats.from_dict(payload["stats"]),
        result=unpickle_b64(payload["result"]),
        ward_checked=payload["ward_checked"],
    )


# ----------------------------------------------------------------------
# Persistent result cache
# ----------------------------------------------------------------------


def atomic_write(path: Path, data: bytes) -> bool:
    """Write ``data`` to ``path`` through a temp file beside it.

    The file appears whole or not at all (``mkstemp`` + ``os.replace``).
    Best-effort: returns False on an ``OSError``.  Any other exception,
    ``KeyboardInterrupt`` and ``SystemExit`` included, propagates once the
    temp file is removed, so an interrupted write leaves nothing behind.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError:
        return False
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            return False
        raise
    return True


class DiskCache:
    """Content-addressed on-disk store of :class:`BenchResult` payloads.

    One JSON file per entry under ``root``; writes are atomic
    (temp file + rename) and *best-effort* — a transient ``OSError`` is
    absorbed (counted in ``store_errors``) because the cache is an
    optimization, never state; loads tolerate missing, truncated,
    corrupted, or schema-mismatched entries by falling back to a re-run.
    """

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_errors = 0

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    def load(self, fingerprint: str):
        """Return the cached BenchResult for ``fingerprint``, or None."""
        path = self.path_for(fingerprint)
        try:
            text = path.read_text(encoding="utf-8")
            if faults.ACTIVE:
                text = faults.cache_load_corruption(text)
            result = decode_result(json.loads(text))
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupted / stale / unreadable entry: evict it, re-run.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def store(self, fingerprint: str, result) -> bool:
        """Persist ``result`` under ``fingerprint`` (atomic, last-wins).

        Returns False when a transient filesystem error prevented the
        write; interpreter-exit signals (``KeyboardInterrupt`` /
        ``SystemExit``) always propagate after the temp-file cleanup —
        they must never be swallowed on the error path.
        """
        payload = json.dumps(encode_result(fingerprint, result), sort_keys=True)
        try:
            if faults.ACTIVE:
                faults.cache_store_fault()
            stored = atomic_write(
                self.path_for(fingerprint), payload.encode("utf-8")
            )
        except OSError:
            stored = False
        if not stored:
            self.store_errors += 1
            return False
        self.stores += 1
        return True

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


# ----------------------------------------------------------------------
# Robustness reporting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixEvent:
    """One robustness event of a matrix run (host-side, wall-clock).

    ``action`` is one of ``retry``, ``timeout``, ``respawn`` or
    ``fallback``; ``task_index`` is the position in the matrix (-1 for
    matrix-wide events) and ``attempt`` the 0-based attempt number.
    """

    action: str
    task_index: int = -1
    attempt: int = 0
    detail: str = ""


def _counted(action: str) -> property:
    """A :class:`MatrixReport` counter, derived from its event list."""
    return property(lambda self: self.actions().count(action))


class MatrixReport:
    """Record of everything a matrix run had to survive.

    Accumulates across :func:`run_matrix` invocations (one figure sweeps
    several benchmarks) and serializes into run manifests via
    :meth:`to_dict`.  ``completed`` counts the tasks the matrix simulated,
    ``cached`` those the disk cache served.  A report is clean only when
    no event happened *and* no fault plan was armed.
    """

    retries = _counted("retry")
    timeouts = _counted("timeout")
    respawns = _counted("respawn")
    fallbacks = _counted("fallback")

    def __init__(self) -> None:
        self.events: List[MatrixEvent] = []
        self.completed = 0
        self.cached = 0
        self.faults: Optional[str] = None

    def record(
        self, action: str, task_index: int = -1, attempt: int = 0,
        detail: str = "",
    ) -> MatrixEvent:
        event = MatrixEvent(action, task_index, attempt, detail)
        self.events.append(event)
        return event

    @property
    def clean(self) -> bool:
        return not self.events and self.faults is None

    def actions(self) -> List[str]:
        return [event.action for event in self.events]

    def to_dict(self) -> dict:
        return {
            "schema": "warden-repro/matrix-report/v3",
            "retries": self.retries,
            "timeouts": self.timeouts,
            "respawns": self.respawns,
            "fallbacks": self.fallbacks,
            "completed": self.completed,
            "cached": self.cached,
            "faults": self.faults,
            "events": [dataclasses.asdict(e) for e in self.events],
        }


def _backoff_delay(index: int, attempt: int) -> float:
    """Exponential backoff with deterministic (seeded) jitter.

    The jitter stream is keyed by (task index, attempt), so a replayed
    sweep backs off identically — reproducibility extends to the failure
    path.
    """
    rng = random.Random(index * 8191 + attempt)
    delay = min(BACKOFF_BASE * 2 ** (attempt - 1), BACKOFF_CAP)
    return delay * (0.5 + 0.5 * rng.random())


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------


def _pool_worker_init(
    faults_spec: Optional[str], cache_dir: Optional[str]
) -> None:
    """Worker bootstrap: arm the ``worker.*`` fault sites in this process
    and open its own view of the persistent result cache."""
    from repro.analysis import run as run_mod

    faults.mark_worker()
    faults.install(faults.parse_plan(faults_spec))
    if cache_dir is not None:
        run_mod.set_disk_cache(DiskCache(cache_dir))


def _execute_task(task: RunTask, index: int, attempt: int):
    """Run one task in this process (serial path and pool worker entry).

    Results flow through whichever disk cache the process has installed;
    returns the result and whether that cache served it.
    """
    from repro.analysis import run as run_mod

    if faults.ACTIVE:
        faults.worker_faults(index, attempt)
    disk = run_mod._DISK_CACHE
    hits = disk.hits if disk is not None else 0
    result = run_mod.run_benchmark(
        task.benchmark,
        task.protocol,
        task.config,
        size=task.size,
        seed=task.seed,
        policy=task.policy,
        check_ward=task.check_ward,
    )
    return result, disk is not None and disk.hits > hits


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully tear down an executor whose workers may be hung or dead.

    ``shutdown(wait=False)`` alone leaves a hung worker alive forever, so
    the worker processes are killed first.  Reaches into executor
    internals (``_processes``), guarded — on an interpreter where that
    attribute moved, the shutdown still runs and the leaked worker dies
    with the parent.
    """
    try:
        processes = list(getattr(pool, "_processes", {}).values())
    except Exception:
        processes = []
    for proc in processes:
        try:
            proc.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def run_matrix(
    tasks: Iterable[RunTask],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    report: Optional[MatrixReport] = None,
) -> List:
    """Execute a run matrix, ``jobs`` processes wide, fault-tolerantly.

    Results come back in task order regardless of completion order, so a
    parallel sweep merges deterministically — and, because every simulation
    is seeded and isolated, each ``RunStats`` is bit-identical to what the
    serial path would produce.  That contract survives worker crashes,
    hangs, and retries: a recovered matrix returns exactly the results a
    clean serial sweep would.

    * ``jobs`` — with 1 and no ``timeout`` the tasks run in this process,
      through the disk cache installed with
      :func:`repro.analysis.run.set_disk_cache`; otherwise over a pool of
      up to ``jobs`` workers.
    * ``cache_dir`` — the persistent cache each pool worker opens; a task
      is stored there as soon as it finishes, so re-running an interrupted
      matrix with the same ``cache_dir`` runs only the unfinished tasks.
    * ``timeout`` — per-task seconds; a task that blows it is retried in a
      fresh pool (the hung worker is killed).  It needs process isolation,
      so it selects the pool even for ``jobs=1``.
    * ``retries`` — failed/timed-out attempts tolerated per task, with
      exponential backoff and seeded jitter between attempts.
    * ``report`` — the :class:`MatrixReport` that records the armed fault
      plan and every robustness event (a fresh one when omitted).

    The fault plan (the installed one, else ``REPRO_FAULTS``) is resolved
    on every call, so a malformed plan fails serial and pooled runs alike.
    """
    tasks = list(tasks)
    plan = faults.resolve_plan()
    faults_spec = plan.describe() if plan is not None else None
    if report is None:
        report = MatrixReport()
    if faults_spec is not None:
        report.faults = faults_spec
    if not tasks:
        return []
    results: Dict[int, object] = {}
    attempts = [0] * len(tasks)

    def finish(i: int, outcome) -> None:
        """Keep task ``i``'s ``(result, cached)`` from :func:`_execute_task`."""
        results[i], cached = outcome
        if cached:
            report.cached += 1
        else:
            report.completed += 1

    def retry_or_raise(i: int, exc: Exception) -> None:
        """The one failure policy: back off before the next attempt, or
        give up once the retry budget is spent."""
        attempts[i] += 1
        if attempts[i] > retries:
            raise PoolError(
                f"matrix task {i} ({tasks[i].benchmark}/{tasks[i].protocol}) "
                f"failed after {attempts[i]} attempt(s): {exc!r}"
            ) from exc
        report.record("retry", i, attempts[i], detail=repr(exc))
        time.sleep(_backoff_delay(i, attempts[i]))

    def collect(i: int) -> bool:
        """Wait for pool task ``i``; False when it hung and holds a worker."""
        while True:
            try:
                finish(i, futures[i].result(timeout=timeout))
                return True
            except FuturesTimeout:
                attempts[i] += 1
                report.record("timeout", i, attempts[i] - 1)
                if attempts[i] > retries:
                    raise TaskTimeoutError(i, timeout) from None
                return False
            except BrokenProcessPool:
                raise  # a dead pool, not a task failure: respawn it
            except Exception as exc:
                retry_or_raise(i, exc)
                futures[i] = pool.submit(_execute_task, tasks[i], i, attempts[i])

    pending = list(range(len(tasks)))
    previous_plan = faults.install(plan)
    try:
        respawns = 0
        while pending and (jobs > 1 or timeout is not None):
            pool = ProcessPoolExecutor(
                max_workers=max(1, min(jobs, len(pending))),
                initializer=_pool_worker_init,
                initargs=(faults_spec, cache_dir),
            )
            futures = {}
            crashed = False
            try:
                for i in pending:
                    futures[i] = pool.submit(
                        _execute_task, tasks[i], i, attempts[i]
                    )
                for i in pending:
                    if not collect(i):
                        break  # task i hung: respawn the pool
                else:
                    pool.shutdown()
                    pending = []
                    break
            except BrokenProcessPool:
                # A worker died while task i was being submitted or awaited.
                report.record(
                    "respawn", i, attempts[i], detail="BrokenProcessPool"
                )
                crashed = True
            except BaseException:
                _kill_pool(pool)
                raise
            # Harvest tasks that completed before the pool broke.
            for i, future in futures.items():
                if (
                    i not in results and future.done()
                    and not future.cancelled() and future.exception() is None
                ):
                    finish(i, future.result())
            _kill_pool(pool)
            pending = [i for i in pending if i not in results]
            if crashed:
                # Any in-flight attempt may have been the casualty — move
                # every unfinished task to its next attempt so a
                # deterministic crash fault doesn't re-fire forever.
                for i in pending:
                    attempts[i] += 1
                respawns += 1
                if respawns > MAX_RESPAWNS:
                    report.record(
                        "fallback",
                        detail=f"serial after {respawns} pool respawns",
                    )
                    break
        for i in pending:  # the serial path, and the pool's fallback
            while i not in results:
                try:
                    finish(i, _execute_task(tasks[i], i, attempts[i]))
                except Exception as exc:
                    retry_or_raise(i, exc)
    finally:
        faults.install(previous_plan)
    return [results[i] for i in range(len(tasks))]


# ----------------------------------------------------------------------
# Sweep amplification: one recording, many replayed configs
# ----------------------------------------------------------------------


def _replay_members(trace, configs):
    """Replay one memory-key group; a group of one is a plain
    ``replay_trace``, the public per-replay entry point."""
    from repro.replay import replay_group, replay_trace

    if len(configs) == 1:
        return [replay_trace(trace, configs[0])]
    return replay_group(trace, configs)


def replay_matrix(base: RunTask, variants, trace_store=None):
    """Record ``base`` once, then replay its trace under each variant config.

    This is the sweep-amplification primitive: an N-point memory-hierarchy
    sweep costs one interpreted run plus N cheap kernel replays instead of
    N interpreted runs.  A variant equal to the recorded config replays
    bit-identically; any other config is a *trace-driven approximation* —
    the instruction stream is the recorded one, only the memory system's
    response changes (see :mod:`repro.replay`) — so results are returned
    directly and never fed into the exact-result caches.

    Variants are grouped by :func:`repro.replay.kernel.memory_key`: the
    config with its timing-only fields canonicalized — each cache level's
    ``latency``, ``dram_latency``, ``hop_intra_latency``,
    ``socket_link_latency``, ``remote_link_latency``, ``disaggregated``,
    ``store_buffer_entries``, ``energy`` and ``name``.  Any other
    difference (cache sizes, associativity, block size, topology, region
    capacity, ...) splits groups.  Each group costs one coherence pass
    plus one core-timing pass per member, so a latency sweep pays for its
    coherence work once.

    The trace comes from ``trace_store`` (default: the shared
    ``.warden-cache/traces`` store) when a fingerprint-valid recording
    exists, and is recorded (and persisted) otherwise.  Groups replay in
    this process, one after another; results come back in variant order,
    each with its own objects.
    """
    from repro.replay import TraceStore, record_benchmark
    from repro.replay.kernel import memory_groups

    store = trace_store if trace_store is not None else TraceStore()
    key = task_fingerprint(base)
    trace = store.load(key)
    if trace is None:
        trace, _ = record_benchmark(
            base.benchmark,
            base.protocol,
            base.config,
            size=base.size,
            seed=base.seed,
            policy=base.policy,
            fingerprint=key,
        )
        store.store(key, trace)
    variants = list(variants)
    groups = memory_groups(variants)
    results = [None] * len(variants)
    for group in groups:
        replays = _replay_members(trace, [variants[i] for i in group])
        for i, result in zip(group, replays):
            results[i] = result
    return results
