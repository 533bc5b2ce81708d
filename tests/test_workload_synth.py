"""Synthetic-workload generator properties (satellite 2).

Same seed ⇒ identical trace bytes ⇒ identical ``stats_digest`` on the
engine and replay paths; distinct seeds ⇒ distinct digests; the Zipfian
skew and rw-mix knobs move the sharing/invalidation counters
monotonically in the expected direction.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import stats_digest
from repro.analysis.run import run_benchmark
from repro.bench import BENCHMARKS, get_benchmark
from repro.cli import main
from repro.common.config import dual_socket
from repro.common.errors import ConfigError
from repro.replay import record_benchmark, replay_trace
from repro.workloads import (
    GOLDEN_SYNTH,
    SYNTH_WORKLOADS,
    make_trace,
    parse_trace_text,
)
from repro.workloads.memtrace import K_STORE

CONFIG = dual_socket()

KINDS = sorted(SYNTH_WORKLOADS)


def _engine_stats(name, protocol="mesi", seed=42):
    return run_benchmark(
        name, protocol, CONFIG, size="test", seed=seed,
        use_cache=False, use_disk_cache=False,
    ).stats


def _ingested_stats(trace, protocol="mesi", tmp_path=None):
    path = tmp_path / "synth.trace"
    path.write_text(trace.to_text())
    return _engine_stats(f"trace:{path}", protocol)


# ----------------------------------------------------------------------
# Registration: synthetic workloads are ordinary benchmarks
# ----------------------------------------------------------------------

def test_synth_workloads_are_registered_benchmarks():
    assert set(GOLDEN_SYNTH) <= set(SYNTH_WORKLOADS)
    for name, bench in SYNTH_WORKLOADS.items():
        assert name.startswith("synth-")
        assert name not in BENCHMARKS  # paper registry stays paper-only
        assert get_benchmark(name) is bench
        assert set(bench.scales) == {"test", "small", "default"}
        # sized well beyond the test inputs
        assert bench.scales["default"] >= 100 * bench.scales["test"]


def test_unknown_workload_name_is_config_error():
    with pytest.raises(ConfigError, match="unknown workload"):
        get_benchmark("synth-nonexistent")
    with pytest.raises(ConfigError, match="unknown synthetic workload"):
        make_trace("nonexistent")
    with pytest.raises(ConfigError, match="bad knob"):
        make_trace("zipf", not_a_knob=3)
    with pytest.raises(ConfigError, match="ops per thread"):
        make_trace("zipf", ops_per_thread=0)


#: ``synth`` arguments and whether they are accepted: every bad knob
#: value exits 2, every boundary value writes a trace ``ingest`` accepts
KNOB_CASES = [
    (["falseshare", "--set", "slots_per_line=0"], False),
    (["falseshare", "--set", "slots_per_line=128"], False),
    (["falseshare", "--set", "slots_per_line=64"], True),
    (["falseshare", "--set", "read_frac=-0.5"], False),
    (["falseshare", "--set", "read_frac=0"], True),
    (["ring", "--set", "slots=0"], False),
    (["ring", "--set", "slots=1"], True),
    (["phase", "--set", "phases=0"], False),
    (["phase", "--set", "window_lines=0"], False),
    (["phase", "--set", "shared_frac=1.01"], False),
    (["phase", "--set", "phases=1", "--set", "window_lines=1",
      "--set", "shared_frac=1"], True),
    (["phase", "--ops", "3", "--set", "phases=4"], False),
    (["phase", "--ops", "3", "--set", "phases=3"], True),
    (["rwmix", "--set", "keys=0"], False),
    (["rwmix", "--set", "write_frac=2"], False),
    (["rwmix", "--set", "keys=1", "--set", "write_frac=1"], True),
    (["zipf", "--set", "threads=0"], False),
    (["zipf", "--set", "threads=300"], False),
    (["zipf", "--set", "threads=2.5"], False),
    (["zipf", "--set", "threads=1"], True),
    (["zipf", "--set", "threads=256"], True),
    (["zipf", "--set", "keys=65537"], False),
    (["zipf", "--set", "skew=-1"], False),
    (["zipf", "--set", "skew=nan"], False),
    (["zipf", "--set", "skew=inf"], False),
    (["zipf", "--set", "keys=65536", "--set", "skew=32"], True),
    (["zipf", "--set", "keys=1", "--set", "skew=0",
      "--set", "read_frac=1"], True),
]


@pytest.mark.parametrize(
    "args, accepted", KNOB_CASES, ids=[" ".join(a) for a, _ in KNOB_CASES]
)
def test_synth_knob_ranges(args, accepted, tmp_path, capsys):
    out = tmp_path / "knob.trace"
    # a case's own --ops comes later and wins
    code = main(["synth", "--ops", "10", *args, "--out", str(out)])
    err = capsys.readouterr().err
    if not accepted:
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("synth: error: bad knob")
        assert not out.exists()
        return
    assert code == 0 and err == ""
    trace = parse_trace_text(out.read_text(), source=str(out))
    assert len(trace) > 0


# ----------------------------------------------------------------------
# A registered build keeps only the latest trace
# ----------------------------------------------------------------------

def test_synth_build_keeps_the_latest_trace_only():
    bench = get_benchmark("synth-ring")
    scale = bench.scale("test")
    gc.disable()
    try:
        trace = bench.workload("test", seed=1234)
        # same (size, seed): the same object, built and hashed once
        assert bench.workload("test", seed=1234) is trace
        run_benchmark("synth-ring", "mesi", CONFIG, size="test", seed=1234,
                      use_cache=False, use_disk_cache=False)
        assert bench.workload("test", seed=1234) is trace
        for name, size, seed, kind, ops in (
            ("synth-zipf", "test", 1234, "zipf", scale),  # another kind
            ("synth-zipf", "test", 1235, "zipf", scale),  # another seed
            ("synth-zipf", "small", 1235, "zipf",          # another size
             get_benchmark("synth-zipf").scale("small")),
        ):
            old = weakref.ref(trace)
            del trace
            trace = get_benchmark(name).workload(size, seed=seed)
            assert trace == make_trace(kind, seed=seed, ops_per_thread=ops)
            # one entry: the previous trace is no longer referenced
            assert old() is None
    finally:
        gc.enable()


def test_appending_to_a_built_trace_never_changes_a_later_build():
    bench = get_benchmark("synth-zipf")
    trace = bench.workload("test", seed=77)
    checksum = trace.checksum()
    trace.append(0, K_STORE, 0x40, 8)
    again = bench.workload("test", seed=77)
    assert again is not trace
    assert again == make_trace("zipf", seed=77,
                               ops_per_thread=bench.scale("test"))
    assert again.checksum() == checksum


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_same_seed_identical_trace_bytes(kind):
    short = kind[len("synth-"):]
    a = make_trace(short, seed=7, ops_per_thread=60)
    b = make_trace(short, seed=7, ops_per_thread=60)
    assert a.to_text() == b.to_text()
    distinct = make_trace(short, seed=8, ops_per_thread=60)
    assert a.to_text() != distinct.to_text()


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       kind=st.sampled_from([k[len("synth-"):] for k in KINDS]))
@settings(max_examples=25, deadline=None)
def test_workload_build_is_a_pure_function_of_seed(kind, seed):
    a = make_trace(kind, seed=seed, ops_per_thread=40)
    b = make_trace(kind, seed=seed, ops_per_thread=40)
    assert a == b and a.checksum() == b.checksum()


@pytest.mark.parametrize("kind", ["synth-zipf", "synth-ring"])
def test_same_seed_identical_digest_engine_and_replay(kind):
    engine = _engine_stats(kind, "warden", seed=42)
    again = _engine_stats(kind, "warden", seed=42)
    assert stats_digest(engine) == stats_digest(again)
    trace, recorded = record_benchmark(
        kind, "warden", CONFIG, size="test", seed=42
    )
    replayed = replay_trace(trace, CONFIG)
    assert stats_digest(engine) == stats_digest(recorded.stats)
    assert stats_digest(engine) == stats_digest(replayed.stats)


@pytest.mark.parametrize("kind", KINDS)
def test_distinct_seeds_distinct_digests(kind):
    digests = {
        stats_digest(_engine_stats(kind, "mesi", seed=seed))
        for seed in (1, 2, 3)
    }
    assert len(digests) == 3


# ----------------------------------------------------------------------
# Monotonicity: knobs move coherence counters in the expected direction
# ----------------------------------------------------------------------

def test_rwmix_write_fraction_raises_invalidations(tmp_path):
    """More writes ⇒ more write-invalidate traffic, monotonically along
    the sweep (uniform keys keep the sharer population comparable)."""
    inv = [
        _ingested_stats(
            make_trace("rwmix", seed=42, write_frac=frac), tmp_path=tmp_path
        ).coherence.invalidations
        for frac in (0.05, 0.3, 0.6)
    ]
    assert inv[0] < inv[1] < inv[2]


def test_zipf_skew_concentrates_working_set(tmp_path):
    """Higher skew ⇒ hotter private caches ⇒ strictly less shared-cache
    traffic, monotonically along the whole sweep."""
    l3 = [
        _ingested_stats(
            make_trace("zipf", seed=42, skew=skew), tmp_path=tmp_path
        ).coherence.l3_accesses
        for skew in (0.0, 0.6, 1.2, 1.8, 2.5)
    ]
    assert all(a > b for a, b in zip(l3, l3[1:])), l3


def test_zipf_skew_raises_per_block_contention(tmp_path):
    """Higher skew ⇒ fewer shared blocks, each fought over harder: the
    invalidation count per shared block rises at the sweep endpoints."""
    def density(skew):
        trace = make_trace("zipf", seed=42, skew=skew)
        _, shared = trace.footprint(CONFIG.block_size)
        stats = _ingested_stats(trace, tmp_path=tmp_path)
        return stats.coherence.invalidations / max(shared, 1)

    uniform, skewed = density(0.0), density(2.5)
    assert skewed > 2 * uniform


def test_false_sharing_packing_raises_invalidations(tmp_path):
    """Packing more threads' counters into one line ⇒ more invalidation
    ping-pong; fully private lines (slots_per_line=1) are the floor."""
    inv = [
        _ingested_stats(
            make_trace("falseshare", seed=42, slots_per_line=slots),
            tmp_path=tmp_path,
        ).coherence.invalidations
        for slots in (1, 2, 8)
    ]
    assert inv[0] < inv[1] < inv[2]
