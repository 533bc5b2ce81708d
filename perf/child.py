"""Benchmark child process: set up the simulator, run one job, report it.

    python perf/child.py WORKLOAD --seed S [--trace]

Needs the repository's ``src`` on ``PYTHONPATH`` and runs in whatever
working directory it is given (jobs write their scratch files there).
Prints ``ready`` as soon as the ``repro`` imports a command pays for and
the protocol registry are loaded; the parent times set-up up to that
line.  Then it runs the job (under the layer tracer with ``--trace``) and
prints its result as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import repro.cli  # noqa: F401  (what every user command imports)
    from repro.coherence.registry import available_protocols

    available_protocols()
    print("ready", flush=True)

    from spans import LayerTracer
    from workloads import JOBS, Stopwatch

    clock = Stopwatch()
    tracer = LayerTracer() if args.trace else None
    with tracer if tracer is not None else contextlib.nullcontext():
        ops, info = JOBS[args.workload](args.seed, clock)
    result = {
        "seed": args.seed,
        "wall_s": clock.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [[op.digest, op.instructions, op.error] for op in ops],
        "info": info,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(clock.seconds)
        result["layer_table"] = tracer.layer_table()
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
