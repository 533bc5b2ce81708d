#!/usr/bin/env python
"""CI gate: the vectorized replay kernel must be bit-identical to the engine.

Records one cell (primes/warden at the small input on the dual-socket
machine) with the tracing engine, replays the trace through the packed
replay kernel — after a serialization round-trip, so the on-disk format is
on the hook too — and diffs the full ``RunStats.to_dict()``: cycles,
per-core counters, and the coherence message matrix.  Any mismatch prints
the differing keys and exits non-zero.

A second leg checks grouped replays: ``replay_matrix`` over a 2 L2-size x
3 socket-link grid (two memory-key groups of three latency lanes) must
give, for every variant, exactly the ``RunStats.to_dict()`` of that
variant's own single-config replay.

The broader matrix (every benchmark x protocol at the "test" size, both
the numpy and pure-Python preprocessing paths) lives in
tests/test_replay.py and tests/test_replay_groups.py; this script is the
cheap standalone smoke for the replay-bit-identity CI job.

Usage: PYTHONPATH=src python scripts/check_replay_identity.py
       [benchmark] [protocol] [size]
"""

from __future__ import annotations

import sys


def diff_dicts(replayed: dict, reference: dict, prefix: str = "") -> list:
    diffs = []
    for key in sorted(set(replayed) | set(reference)):
        path = f"{prefix}{key}"
        left = replayed.get(key)
        right = reference.get(key)
        if isinstance(left, dict) and isinstance(right, dict):
            diffs.extend(diff_dicts(left, right, path + "."))
        elif left != right:
            diffs.append(f"  {path}: replayed={left!r} reference={right!r}")
    return diffs


def sweep_variants(config):
    """2 L2 sizes x 3 socket-link latencies, the recorded config first."""
    from dataclasses import replace

    grid = [
        config.replace(
            l2=replace(config.l2, size_bytes=kb * 1024),
            socket_link_latency=link,
        )
        for kb in (128, config.l2.size_bytes // 1024)
        for link in (60, config.socket_link_latency, 3300)
    ]
    return [config] + [variant for variant in grid if variant != config]


def check_sweep(trace, task) -> list:
    """Diff each ``replay_matrix`` result against its own replay."""
    import tempfile

    from repro.analysis.pool import replay_matrix, task_fingerprint
    from repro.replay import TraceStore, replay_trace

    variants = sweep_variants(task.config)
    with tempfile.TemporaryDirectory() as root:
        store = TraceStore(root)
        store.store(task_fingerprint(task), trace)
        swept = replay_matrix(task, variants, trace_store=store)
    diffs = []
    for config, result in zip(variants, swept):
        single = replay_trace(trace, config)
        for line in diff_dicts(result.stats.to_dict(), single.stats.to_dict()):
            diffs.append(
                f"  [l2 {config.l2.size_bytes // 1024}K, link "
                f"{config.socket_link_latency}]{line}"
            )
    return diffs


def main(argv) -> int:
    name = argv[1] if len(argv) > 1 else "primes"
    protocol = argv[2] if len(argv) > 2 else "warden"
    size = argv[3] if len(argv) > 3 else "small"

    from repro.analysis.pool import RunTask, task_fingerprint
    from repro.common.config import dual_socket
    from repro.replay import Trace, record_benchmark, replay_trace

    task = RunTask(
        benchmark=name, protocol=protocol, config=dual_socket(), size=size,
    )
    trace, reference = record_benchmark(
        name, protocol, task.config, size=size,
        fingerprint=task_fingerprint(task),
    )
    replayed = replay_trace(Trace.from_bytes(trace.to_bytes()))

    diffs = diff_dicts(replayed.stats.to_dict(), reference.stats.to_dict())
    if replayed.result != reference.result:
        diffs.append("  benchmark result values differ")
    if diffs:
        print(f"FAIL: {name}/{protocol}/{size} replay diverges from the "
              f"recording engine run:")
        print("\n".join(diffs))
        return 1
    print(f"ok: {name}/{protocol}/{size} replay bit-identical to the engine "
          f"({len(trace)} events, {replayed.stats.instructions} instructions, "
          f"{replayed.stats.cycles} cycles)")

    diffs = check_sweep(trace, task)
    if diffs:
        print(f"FAIL: {name}/{protocol}/{size} grouped sweep replay diverges "
              f"from single-config replays (grouped vs single):")
        print("\n".join(diffs))
        return 1
    print(f"ok: {name}/{protocol}/{size} sweep of "
          f"{len(sweep_variants(task.config))} configs bit-identical to "
          f"single-config replays")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
