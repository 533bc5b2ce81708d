#!/usr/bin/env python
"""CI gate: epoch-batched engine must be bit-identical to per-op stepping.

Runs one cell (by default primes/warden at the small input on the
dual-socket machine) twice in-process — once with ``REPRO_EPOCH_BATCH=1``
and once with ``=0`` — and diffs the full ``RunStats.to_dict()``: cycles,
per-core counters, and the coherence message matrix.  Any mismatch prints
the differing keys and exits non-zero.

The broader matrix (every benchmark and golden synthetic workload x
protocol at the "test" size, plus engine-level batch-vs-scalar equivalence)
lives in tests/test_epoch.py; this script is the standalone check the
epoch-bit-identity CI job runs on small-size cells.

Usage: PYTHONPATH=src python scripts/check_epoch_identity.py
       [benchmark] [protocol] [size]
"""

from __future__ import annotations

import os
import sys


def run_cell(name: str, protocol: str, size: str, mode: str):
    # The engine samples REPRO_EPOCH_BATCH at construction time, so
    # toggling the environment between runs switches modes in-process.
    os.environ["REPRO_EPOCH_BATCH"] = mode
    from repro.analysis.run import clear_cache, run_benchmark
    from repro.common.config import dual_socket

    clear_cache()
    return run_benchmark(
        name,
        protocol,
        dual_socket(),
        size=size,
        use_cache=False,
        use_disk_cache=False,
    )


def diff_dicts(batched: dict, reference: dict, prefix: str = "") -> list:
    diffs = []
    for key in sorted(set(batched) | set(reference)):
        path = f"{prefix}{key}"
        left = batched.get(key)
        right = reference.get(key)
        if isinstance(left, dict) and isinstance(right, dict):
            diffs.extend(diff_dicts(left, right, path + "."))
        elif left != right:
            diffs.append(f"  {path}: batched={left!r} reference={right!r}")
    return diffs


def main(argv) -> int:
    name = argv[1] if len(argv) > 1 else "primes"
    protocol = argv[2] if len(argv) > 2 else "warden"
    size = argv[3] if len(argv) > 3 else "small"

    batched = run_cell(name, protocol, size, "1")
    reference = run_cell(name, protocol, size, "0")

    diffs = diff_dicts(batched.stats.to_dict(), reference.stats.to_dict())
    if batched.result != reference.result:
        diffs.append("  benchmark result values differ")
    if diffs:
        print(f"FAIL: {name}/{protocol}/{size} diverges between "
              f"REPRO_EPOCH_BATCH=1 and =0:")
        print("\n".join(diffs))
        return 1
    print(f"ok: {name}/{protocol}/{size} bit-identical between "
          f"REPRO_EPOCH_BATCH=1 and =0 "
          f"({batched.stats.instructions} instructions, "
          f"{batched.stats.cycles} cycles)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
