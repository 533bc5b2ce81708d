"""Grouped replays: configs that differ only in latencies share one memory
pass (``repro.replay.kernel.memory_key``), and each lane of the packed
kernel must equal the machine replay at that config — the trace played
into the protocol's own engine class — bit for bit.

The latency grid flips every lane-wise ``max`` site: a socket link cheaper
than an on-die hop (1, 60) makes remote sharers the fast ones, a slow one
(5000) the slow ones, and the slow-hops lane reorders the DRAM-vs-
invalidation race of a shared write.
"""

import dataclasses
import random

import pytest

from repro.analysis.pool import RunTask, replay_matrix
from repro.common.config import dual_socket, single_socket
from repro.common.errors import ConfigError
from repro.common.types import MessageType
from repro.replay import (
    TraceStore,
    record_benchmark,
    replay_group,
    replay_trace,
)
from repro.replay.kernel import (
    ReplayKernel,
    _lane_max,
    _pack,
    kernel_replays,
    machine_replay,
    memory_groups,
    memory_key,
)
from repro.replay.trace import K_SPINS

PROTOCOLS = ("mesi", "warden", "moesi", "sisd")
WORKLOADS = ("msort", "synth-falseshare", "synth-ring")
BASE = dual_socket()


def latency_grid(base):
    """Timing-only variants of ``base``: one memory-key group."""
    r = dataclasses.replace
    grid = [
        base.replace(name=f"link-{link}", socket_link_latency=link)
        for link in (1, 60, 250, 5000)
    ]
    grid.append(base.replace(
        name="fast-hops", hop_intra_latency=1, dram_latency=0,
        store_buffer_entries=1,
    ))
    grid.append(base.replace(
        name="slow-hops", hop_intra_latency=900, dram_latency=3000,
        store_buffer_entries=4, l1=r(base.l1, latency=2),
        l2=r(base.l2, latency=40), l3=r(base.l3, latency=7),
    ))
    grid.append(base.replace(name="disagg", disaggregated=True))
    return grid


_TRACES = {}


def _trace(name, protocol):
    """One recording per cell for the module."""
    key = (name, protocol)
    if key not in _TRACES:
        _TRACES[key] = record_benchmark(
            name, protocol, BASE, size="test", seed=42
        )[0]
    return _TRACES[key]


# ----------------------------------------------------------------------
# Grouped == machine replay at each config, bit for bit
# ----------------------------------------------------------------------
# The "pure-" id prefix names the preprocessing path: pure Python, the only one.
@pytest.mark.parametrize("name, protocol", [
    pytest.param(name, protocol, id=f"pure-{name}-{protocol}")
    for name in WORKLOADS for protocol in PROTOCOLS
])
def test_group_matches_single_replays(name, protocol):
    grid = latency_grid(BASE)
    assert len(memory_groups(grid)) == 1
    trace = _trace(name, protocol)
    grouped = replay_group(trace, grid)
    recorded = replay_trace(trace).result
    # A protocol the kernel does not transcribe already replays each lane
    # through machine_replay, so its cells check lane order and results.
    exact = kernel_replays(trace)
    for config, result in zip(grid, grouped):
        assert result.machine == config.name
        assert result.result == recorded
        if exact:
            reference = machine_replay(trace, config)
            assert result.stats.to_dict() == reference.to_dict(), config.name
    # the lanes really differ: the grid is not one config seven times
    assert len({r.stats.cycles for r in grouped}) > 1


@pytest.mark.parametrize("protocol", ["mesi", "warden"])
@pytest.mark.parametrize("ways", [1, 2])
def test_spin_runs_replay_alike_at_another_l1_associativity(protocol, ways):
    # Another L1 geometry is another memory key: the kernel's memory pass
    # must still treat each K_SPINS as the machine replay does (2n L1 hits,
    # no LRU change).  One way can put the spinner's two blocks in one set.
    trace = _trace("synth-ring", protocol)
    assert K_SPINS in trace.kind.tolist()
    variant = BASE.replace(
        name=f"l1-{ways}-way",
        l1=dataclasses.replace(BASE.l1, associativity=ways),
    )
    assert memory_key(variant) != memory_key(BASE)
    packed, = ReplayKernel(trace, [variant]).run()
    assert packed.to_dict() == machine_replay(trace, variant).to_dict()


def test_recorded_config_in_a_group_is_exact():
    trace, recorded = record_benchmark(
        "synth-ring", "warden", BASE, size="test", seed=42
    )
    grouped = replay_group(trace, [BASE] + latency_grid(BASE))
    assert grouped[0].stats.to_dict() == recorded.stats.to_dict()


# ----------------------------------------------------------------------
# replay_matrix: grouping, order, ownership
# ----------------------------------------------------------------------
def _task(name="synth-falseshare", protocol="moesi"):
    return RunTask(benchmark=name, protocol=protocol, config=BASE, size="test")


def test_matrix_keeps_duplicate_and_interleaved_order(tmp_path):
    r = dataclasses.replace
    small_l2 = BASE.replace(name="l2-128k", l2=r(BASE.l2, size_bytes=128 * 1024))
    variants = [
        BASE.replace(name="a-slow", socket_link_latency=1000),
        small_l2,
        BASE,
        small_l2.replace(name="l2-128k-fast", socket_link_latency=60),
        BASE.replace(name="a-slow", socket_link_latency=1000),
        BASE,
    ]
    assert memory_groups(variants) == [[0, 2, 4, 5], [1, 3]]
    store = TraceStore(tmp_path)
    results = replay_matrix(_task(), variants, trace_store=store)
    trace = store.load(next(iter(store.root.glob("*.wtrace"))).stem)
    assert [r.machine for r in results] == [v.name for v in variants]
    for config, result in zip(variants, results):
        single = replay_trace(trace, config)
        assert result.stats.to_dict() == single.stats.to_dict()
    assert results[0].stats.to_dict() == results[4].stats.to_dict()
    assert results[2].stats.to_dict() == results[5].stats.to_dict()


def test_results_own_their_stats(tmp_path):
    variants = [BASE, BASE.replace(name="twin"), BASE.replace(name="slow", dram_latency=900)]
    results = replay_matrix(
        _task("synth-ring", "sisd"), variants, trace_store=TraceStore(tmp_path)
    )
    before = [r.stats.to_dict() for r in results]
    victim = results[0].stats
    victim.coherence.messages[(MessageType.INV, "socket")] += 7
    victim.coherence.extra["self_invalidations"] += 7
    victim.coherence.invalidations += 7
    victim.cores.loads += 7
    victim.cycles += 7
    assert results[1].stats.to_dict() == before[1]
    assert results[2].stats.to_dict() == before[2]
    assert results[0].stats.to_dict() != before[0]


@pytest.mark.parametrize("change", [
    lambda c: c.replace(l2=dataclasses.replace(c.l2, size_bytes=128 * 1024)),
    lambda c: c.replace(l3=dataclasses.replace(c.l3, size_bytes=1280 * 1024)),
    lambda c: c.replace(l1=dataclasses.replace(c.l1, associativity=4)),
    lambda c: c.replace(
        block_size=128,
        l1=dataclasses.replace(c.l1, block_size=128),
        l2=dataclasses.replace(c.l2, block_size=128),
        l3=dataclasses.replace(c.l3, block_size=128),
    ),
    lambda c: c.replace(cores_per_socket=6),
    lambda c: c.replace(max_ward_regions=16),
    lambda c: c.replace(threads_per_core=2),
], ids=["l2-size", "l3-size", "assoc", "block-size", "cores-per-socket",
        "max-ward-regions", "other-field"])
def test_non_timing_fields_split_groups(change):
    other = change(BASE)
    assert memory_key(other) != memory_key(BASE)
    assert memory_groups([BASE, other, BASE]) == [[0, 2], [1]]
    with pytest.raises(ValueError, match="memory key"):
        ReplayKernel(_trace("synth-ring", "mesi"), [BASE, other])


def test_timing_fields_share_a_group():
    r = dataclasses.replace
    variant = BASE.replace(
        name="other", dram_latency=1, hop_intra_latency=2,
        socket_link_latency=3, remote_link_latency=4, disaggregated=True,
        store_buffer_entries=5, energy=r(BASE.energy, hop_socket_nj=9.0),
        l1=r(BASE.l1, latency=7), l2=r(BASE.l2, latency=8),
        l3=r(BASE.l3, latency=9),
    )
    assert memory_key(variant) == memory_key(BASE)


# ----------------------------------------------------------------------
# Lane packing
# ----------------------------------------------------------------------
def test_lane_max_matches_per_lane_max():
    rng = random.Random(7)
    width, lanes = 14, 5
    lane_max = _lane_max(width, lanes)
    for _ in range(500):
        a = [rng.randrange(1 << (width - 1)) for _ in range(lanes)]
        b = [rng.choice((x, rng.randrange(1 << (width - 1)))) for x in a]
        expected = [max(x, y) for x, y in zip(a, b)]
        assert lane_max(_pack(a, width), _pack(b, width)) == _pack(
            expected, width
        )
    assert _lane_max(width, 1) is max


def test_group_rejects_negative_latency():
    with pytest.raises(ConfigError, match="negative latency"):
        replay_trace(
            _trace("synth-ring", "mesi"), BASE.replace(hop_intra_latency=-1)
        )


def test_group_rejects_config_with_too_few_threads(tmp_path):
    trace = _trace("synth-ring", "mesi")
    small = single_socket(cores=2)
    with pytest.raises(ConfigError, match="threads"):
        replay_trace(trace, small)
    base = RunTask(benchmark="synth-ring", protocol="mesi", config=BASE,
                   size="test")
    with pytest.raises(ConfigError, match="threads"):
        replay_matrix(base, [BASE, small], trace_store=TraceStore(tmp_path))
