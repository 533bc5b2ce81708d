"""Record/replay subsystem tests (repro.replay).

The load-bearing property is *bit-identity*: for the recorded (benchmark,
protocol, config, seed, policy) tuple, the vectorized replay kernel must
produce exactly the ``RunStats`` the interpreted engine produces — pinned
here against the same golden digest corpus that guards the engine itself,
for every benchmark x protocol cell.
"""

import dataclasses
import json
import os

import pytest

from repro.analysis.conformance import stats_digest
from repro.analysis.pool import (
    DiskCache,
    RunTask,
    replay_matrix,
    task_fingerprint,
)
from repro.analysis.run import run_benchmark, set_disk_cache
from repro.analysis import run as run_mod
import repro.replay
from repro.bench import PAPER_ORDER
from repro.coherence import registry
from repro.coherence.registry import coherence_protocol
from repro.coherence.warden import WARDenProtocol
from repro.common.config import dual_socket
from repro.replay import (
    Trace,
    TraceStore,
    record_benchmark,
    replay_trace,
)
from repro.replay.trace import K_ACCESS, K_SPINS

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "stats_digests.json"
)

with open(GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

CELLS = sorted(GOLDEN["entries"])


def _record(name, protocol, **kwargs):
    return record_benchmark(
        name, protocol, dual_socket(), size=GOLDEN["size"],
        seed=GOLDEN["seed"], **kwargs,
    )


# ----------------------------------------------------------------------
# Golden replay identity: every cell
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cell", CELLS)
def test_replay_matches_golden_digest(cell):
    name, protocol = cell.split("/")
    expected = GOLDEN["entries"][cell]["digest"]
    trace, recorded = _record(name, protocol)
    # the recording run itself is an unperturbed engine run
    assert stats_digest(recorded.stats) == expected

    replayed = replay_trace(trace)
    assert stats_digest(replayed.stats) == expected, (
        f"replay kernel diverges from the engine on {cell}"
    )


# ----------------------------------------------------------------------
# Parked spin runs: one K_SPINS event per parked stretch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cell", CELLS)
def test_spin_runs_account_for_every_spin_load(cell):
    """A recording is a batched, parked run: each spin load is either a
    flagged load event or one of a ``K_SPINS`` event's counted spins."""
    trace, recorded = _record(*cell.split("/"))
    kind = trace.kind.tolist()
    runs = sum(
        count for kd, count in zip(kind, trace.aux.tolist()) if kd == K_SPINS
    )
    flagged = sum(
        spin for kd, spin in zip(kind, trace.spin.tolist()) if kd == K_ACCESS
    )
    assert runs + flagged == recorded.stats.cores.spin_loads


def test_parked_cell_records_fewer_events_than_accesses():
    # synth-ring leaves most workers idle, so most of its spins are parked:
    # a per-op recording would need one event per access and more
    trace, recorded = _record("synth-ring", "mesi")
    assert K_SPINS in trace.kind.tolist()
    assert len(trace) < recorded.stats.coherence.total_accesses


def test_replay_full_stats_equality():
    """Digest equality is the sweep; one cell also diffs the raw dicts so a
    digest-scheme bug cannot mask a real divergence."""
    trace, recorded = _record("tokens", "warden")
    replayed = replay_trace(trace)
    assert replayed.stats.to_dict() == recorded.stats.to_dict()
    assert replayed.result == recorded.result


# ----------------------------------------------------------------------
# Trace round-trip + store hygiene
# ----------------------------------------------------------------------
def test_trace_serialization_round_trip():
    trace, recorded = _record("msort", "mesi")
    clone = Trace.from_bytes(trace.to_bytes())
    assert len(clone) == len(trace)
    assert clone.meta == trace.meta
    replayed = replay_trace(clone)
    assert replayed.stats.to_dict() == recorded.stats.to_dict()
    assert replayed.result == recorded.result


def test_trace_store_round_trip(tmp_path):
    store = TraceStore(tmp_path)
    fp = "a" * 64
    trace, _ = _record("fib", "mesi", fingerprint=fp)
    path = store.store(fp, trace)
    assert path is not None and path.exists()
    loaded = store.load(fp)
    assert loaded is not None
    assert len(loaded) == len(trace)


def test_trace_store_rejects_corrupt_and_stale(tmp_path):
    store = TraceStore(tmp_path)
    fp = "b" * 64
    trace, _ = _record("fib", "mesi", fingerprint=fp)
    assert store.store(fp, trace) is not None

    # stale: embedded fingerprint differs from the requested key
    assert store.load("c" * 64) is None

    # stale: recorded by "different code"
    trace.meta["code_fingerprint"] = "not-the-current-code"
    assert store.store(fp, trace) is not None
    assert store.load(fp) is None

    # corrupt: load misses AND quarantines the file
    path = store.path_for(fp)
    path.write_bytes(b"garbage, not a trace")
    assert store.load(fp) is None
    assert not path.exists()


# ----------------------------------------------------------------------
# Integration: replay_matrix
# ----------------------------------------------------------------------
def _task(name):
    return RunTask(
        benchmark=name, protocol="mesi", config=dual_socket(), size="test",
    )


def test_replay_matrix_records_then_replays(tmp_path, monkeypatch):
    recorded = []
    record = repro.replay.record_benchmark

    def counting_record(name, *args, **kwargs):
        recorded.append(name)
        return record(name, *args, **kwargs)

    monkeypatch.setattr(repro.replay, "record_benchmark", counting_record)
    store = TraceStore(tmp_path)
    base = _task("grep")
    first, = replay_matrix(base, [base.config], trace_store=store)   # records
    second, = replay_matrix(base, [base.config], trace_store=store)  # replays
    reference = run_benchmark(
        "grep", "mesi", base.config, size="test", use_cache=False,
        use_disk_cache=False,
    )
    assert first.stats.to_dict() == reference.stats.to_dict()
    assert second.stats.to_dict() == reference.stats.to_dict()
    assert second.result == reference.result
    # exactly one trace was recorded and reused
    assert recorded == ["grep"]
    assert len(list(store.root.glob("*.wtrace"))) == 1


def test_replay_matrix_never_touches_result_caches(tmp_path):
    run_mod.clear_cache()
    before = dict(run_mod._CACHE)
    disk = DiskCache(tmp_path / "results")
    previous = set_disk_cache(disk)
    try:
        base = _task("fib")
        replay_matrix(base, [base.config], trace_store=TraceStore(tmp_path))
    finally:
        set_disk_cache(previous)
    assert run_mod._CACHE == before, (
        "replay results must never enter the exact-result cache"
    )
    assert not any(disk.root.rglob("*")), (
        "replay results must never enter the persistent result cache"
    )


def test_replay_matrix_sweeps_variants(tmp_path):
    config = dual_socket()
    base = RunTask(
        benchmark="tokens", protocol="mesi", config=config, size="test",
    )
    shrunk = dataclasses.replace(
        config,
        name="quarter-llc",
        l3=dataclasses.replace(config.l3, size_bytes=config.l3.size_bytes // 4),
    )
    store = TraceStore(tmp_path)
    results = replay_matrix(base, [config, shrunk], trace_store=store)
    reference = run_benchmark(
        "tokens", "mesi", config, size="test", use_cache=False,
        use_disk_cache=False,
    )
    # identity variant is bit-identical; the shrunk LLC is a trace-driven
    # approximation that can only see more (or equal) DRAM traffic
    assert results[0].stats.to_dict() == reference.stats.to_dict()
    assert (
        results[1].stats.coherence.dram_accesses
        >= results[0].stats.coherence.dram_accesses
    )
    assert results[1].machine == "quarter-llc"
    # one recording serves the whole sweep
    assert len(list(store.root.glob("*.wtrace"))) == 1


def test_recorded_trace_fingerprint_matches_task_key(tmp_path):
    task = _task("fib")
    store = TraceStore(tmp_path)
    replay_matrix(task, [task.config], trace_store=store)
    assert store.path_for(task_fingerprint(task)).exists()


# ----------------------------------------------------------------------
# A registered protocol replays through its own class
# ----------------------------------------------------------------------
@pytest.fixture()
def warden_variant():
    """A WARDen subclass registered under a fresh key, for one test."""
    key = "warden-variant"

    @coherence_protocol(key, WARDenProtocol.SPEC)
    class WARDenVariant(WARDenProtocol):
        name = "WARDen-variant"

    yield key
    del registry._REGISTRY[key]


def test_registered_subclass_replays_exactly(warden_variant, tmp_path):
    # The packed kernel transcribes MESIProtocol and WARDenProtocol only;
    # a subclass under another key must not replay as either of them.
    task = RunTask(
        benchmark="msort", protocol=warden_variant, config=dual_socket(),
        size="test",
    )
    trace, recorded = record_benchmark(
        "msort", warden_variant, task.config, size="test",
        fingerprint=task_fingerprint(task),
    )
    assert recorded.stats.coherence.ward_accesses > 0
    assert replay_trace(trace).stats.to_dict() == recorded.stats.to_dict()
    store = TraceStore(tmp_path)
    store.store(task_fingerprint(task), trace)
    swept, = replay_matrix(task, [task.config], trace_store=store)
    assert swept.stats.to_dict() == recorded.stats.to_dict()
    assert swept.result == recorded.result


def test_mesi_kernel_ignores_region_events():
    # The kernel transcribes WARDen once and replays MESI as its
    # region-free case: a MESI trace that does carry region events must
    # replay as MESIProtocol does, which drops them.
    from repro.replay.kernel import ReplayKernel, machine_replay

    trace, _ = record_benchmark("msort", "warden", dual_socket(), size="test")
    trace.meta.update(protocol="mesi", protocol_name="MESI")
    packed, = ReplayKernel(trace).run()
    reference = machine_replay(trace)
    assert reference.coherence.ward_region_adds == 0
    assert packed.to_dict() == reference.to_dict()
