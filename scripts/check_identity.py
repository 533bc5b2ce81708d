#!/usr/bin/env python
"""CI gate: every execution path of one cell must give the same RunStats.

Runs one cell (by default primes/warden at the small input on the
dual-socket machine) five ways and diffs the full ``RunStats.to_dict()``
— cycles, per-core counters and the coherence message matrix — plus the
benchmark's result value against the per-op reference:

* per-op stepping, the reference: a plain ``Machine`` with ``per_op`` set
  declines every fast-path access and parks no spinner, so every op
  passes through ``Machine.access`` and re-enters the heap;
* the epoch-batched engine (``run_benchmark``, the default path);
* the same engine with a ``RingBufferSink`` installed, as ``trace`` and
  ``profile`` run it: tracing must leave the batched, parked path as it
  is;
* the recording (``record_benchmark``), itself a batched, parked run
  whose parked spin stretches go into the trace as ``K_SPINS`` events;
* ``replay_trace`` on that recording, after a ``to_bytes``/``from_bytes``
  round trip so the on-disk format is on the hook too.  The script prints
  which replay path the cell took: the packed kernel (MESI and WARDen) or
  the machine replay (every other protocol).

A sweep leg then checks grouped replays: ``replay_matrix`` over a 2
L2-size x 3 socket-link grid plus the recorded config with a one-entry
store buffer (two memory-key groups, of three and four latency lanes),
the recorded config first.  The store-buffer variant shares the recorded
config's memory pass; its core-timing pass, one ``CoreModel`` per
thread, stalls whenever a store finds the previous one still in flight,
and every RMW fences on it.  For a protocol the packed kernel
transcribes, every variant must give exactly the ``RunStats.to_dict()``
of the machine replay at that variant, which plays the trace into the
protocol's own engine class.  Every other protocol already replays each
variant through the machine replay, so there the leg checks only variant
order and grouping: the recorded config's result must equal per-op
stepping.

Any mismatch prints the differing keys and exits 1.  The broader matrices
(every benchmark x protocol at the "test" size) live in
tests/test_epoch.py, tests/test_replay.py and tests/test_replay_groups.py;
this script is the standalone check the identity CI job runs on
small-size cells.

Usage: PYTHONPATH=src python scripts/check_identity.py
       [benchmark] [protocol] [size]
"""

from __future__ import annotations

import sys


def diff_dicts(left: dict, right: dict, prefix: str = "") -> list:
    diffs = []
    for key in sorted(set(left) | set(right)):
        path = f"{prefix}{key}"
        a = left.get(key)
        b = right.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            diffs.extend(diff_dicts(a, b, path + "."))
        elif a != b:
            diffs.append(f"  {path}: {a!r} != {b!r}")
    return diffs


def diff_results(left, right) -> list:
    diffs = diff_dicts(left.stats.to_dict(), right.stats.to_dict())
    if left.result != right.result:
        diffs.append("  benchmark result values differ")
    return diffs


def sweep_variants(config):
    """2 L2 sizes x 3 socket-link latencies, the recorded config first and
    the recorded config with a one-entry store buffer last."""
    from dataclasses import replace

    grid = [
        config.replace(
            l2=replace(config.l2, size_bytes=kb * 1024),
            socket_link_latency=link,
        )
        for kb in (128, config.l2.size_bytes // 1024)
        for link in (60, config.socket_link_latency, 3300)
    ]
    return (
        [config]
        + [variant for variant in grid if variant != config]
        + [config.replace(store_buffer_entries=1)]
    )


def check_sweep(trace, task, per_op) -> list:
    """Diff each ``replay_matrix`` result against the machine replay at
    its variant (kernel protocols), or the recorded config's result
    against per-op stepping (every other protocol)."""
    import tempfile

    from repro.analysis.pool import replay_matrix, task_fingerprint
    from repro.replay import TraceStore
    from repro.replay.kernel import kernel_replays, machine_replay

    variants = sweep_variants(task.config)
    with tempfile.TemporaryDirectory() as root:
        store = TraceStore(root)
        store.store(task_fingerprint(task), trace)
        swept = replay_matrix(task, variants, trace_store=store)
    if kernel_replays(trace):
        checks = [(config, result, machine_replay(trace, config))
                  for config, result in zip(variants, swept)]
    else:
        checks = [(variants[0], swept[0], per_op.stats)]
    diffs = []
    for config, result, reference in checks:
        for line in diff_dicts(result.stats.to_dict(), reference.to_dict()):
            diffs.append(
                f"  [l2 {config.l2.size_bytes // 1024}K, link "
                f"{config.socket_link_latency}]{line}"
            )
    return diffs


def run_per_op(task):
    """The task's cell on a plain ``Machine`` stepped per op."""
    from repro.analysis.run import _run_on
    from repro.sim.machine import Machine

    machine = Machine(task.config, task.protocol)
    machine.per_op = True
    return _run_on(
        machine, task.benchmark, task.size, task.seed, task.policy
    )[0]


def main(argv) -> int:
    name = argv[1] if len(argv) > 1 else "primes"
    protocol = argv[2] if len(argv) > 2 else "warden"
    size = argv[3] if len(argv) > 3 else "small"
    cell = f"{name}/{protocol}/{size}"

    from repro.analysis.pool import RunTask, task_fingerprint
    from repro.analysis.run import run_benchmark
    from repro.common.config import dual_socket
    from repro.obs import RingBufferSink
    from repro.replay import Trace, record_benchmark, replay_trace
    from repro.replay.kernel import kernel_replays

    task = RunTask(
        benchmark=name, protocol=protocol, config=dual_socket(), size=size,
    )
    batched = run_benchmark(
        name, protocol, task.config, size=size,
        use_cache=False, use_disk_cache=False,
    )
    traced = run_benchmark(
        name, protocol, task.config, size=size, obs_sink=RingBufferSink(),
    )
    per_op = run_per_op(task)
    trace, recorded = record_benchmark(
        name, protocol, task.config, size=size,
        fingerprint=task_fingerprint(task),
    )
    replayed = replay_trace(Trace.from_bytes(trace.to_bytes()))
    path = "replay kernel" if kernel_replays(trace) else "machine replay"

    failed = False
    for label, result in (("epoch-batched engine", batched),
                          ("traced engine", traced),
                          ("recording", recorded),
                          (path, replayed)):
        diffs = diff_results(result, per_op)
        if diffs:
            print(f"FAIL: {cell} {label} diverges from per-op stepping "
                  f"({label} != per-op):")
            print("\n".join(diffs))
            failed = True
        else:
            print(f"ok: {cell} {label} bit-identical to per-op stepping "
                  f"({per_op.stats.instructions} instructions, "
                  f"{per_op.stats.cycles} cycles, {len(trace)} events)")
    if failed:
        return 1

    diffs = check_sweep(trace, task, per_op)
    reference = ("the machine replay at each config" if kernel_replays(trace)
                 else "per-op stepping at the recorded config")
    if diffs:
        print(f"FAIL: {cell} grouped sweep replay diverges from "
              f"{reference}:")
        print("\n".join(diffs))
        return 1
    print(f"ok: {cell} sweep of {len(sweep_variants(task.config))} configs "
          f"bit-identical to {reference}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
