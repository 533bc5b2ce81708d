"""The benchmark's four jobs: what a user's command runs, at fixed sizes.

Each job takes the workload seed and a :class:`Stopwatch`, times only the
calls a user's command makes, and returns one :class:`Op` per simulated
cell plus informational values.  Result checks and digests are computed
after the stopwatch stops.  All sizes are keyword arguments so the tests
can run each job at tiny parameters.

Every job runs on the dual-socket Table 2 machine; ``seed`` feeds every
input generator and scheduler seed.  Jobs take about 1 to 4 s, so that a
run holds several of them and can report their median: ``small`` is the
size the CLI's own usage text gives for figures, and 150 ops per thread
is the ``synth`` subcommand's default ``--ops``.
"""

from __future__ import annotations

import contextlib
import io
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import repro.analysis.conformance as conformance
import repro.cli
from repro.analysis.conformance import stats_digest
from repro.analysis.metrics import compare_multi, summarize
from repro.analysis.pool import RunTask, replay_matrix, task_fingerprint
from repro.analysis.run import run_benchmark, run_pairs
from repro.bench import PAPER_ORDER
from repro.coherence.registry import available_protocols
from repro.common.config import CacheConfig, MachineConfig, dual_socket
from repro.replay import TraceStore, record_benchmark
from repro.workloads import make_trace

#: the paper's headline speedup on the dual-socket machine (Fig. 8)
PAPER_FIG8_SPEEDUP = 1.46

SWEEP_KERNELS = ("dedup", "msort", "suffix-array", "quickhull")
SWEEP_L2_KB = (128, 256, 512, 1024)
SWEEP_LINK_LATENCY = (250, 500, 1000)
SERVICE_KINDS = ("zipf", "rwmix", "ring", "falseshare", "phase")
ZOO = ("mesi", "warden", "moesi", "sisd")


@dataclass
class Op:
    """One simulated cell: its ``stats_digest``, instructions, any error."""

    digest: str
    instructions: int
    error: str = ""


class Stopwatch:
    """Accumulates the time spent inside ``with`` blocks."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += perf_counter() - self._start


def _failure(exc: BaseException) -> str:
    """Report an op's exception on stderr; return its one-line summary."""
    traceback.print_exception(exc)
    return f"{type(exc).__name__}: {exc}"


def _ok(result) -> Op:
    return Op(stats_digest(result.stats), result.stats.instructions)


def fig8(
    seed: int, clock: Stopwatch, kernels: Sequence[str] = PAPER_ORDER,
    size: str = "small",
) -> Tuple[List[Op], dict]:
    """``figure fig8`` run cold: ``run_pairs`` + ``compare_multi`` per kernel.

    No disk cache, serial, MESI vs WARDen for one seed; the figure itself
    averages three seeds, and a run's jobs take several seeds in turn.
    """
    config = dual_socket()
    cells: List[object] = []
    rows = []
    with clock:
        for name in kernels:
            # A boundary that must keep running: a failed kernel fails its
            # own cells and the job carries on.
            try:
                pairs = run_pairs(name, config, size=size, seeds=(seed,))
                rows.append(compare_multi(pairs))
            except Exception as exc:
                cells.append(exc)
                continue
            cells.append(pairs)
        speedup = summarize(rows)["speedup"] if rows else 0.0
    ops = []
    for cell in cells:
        if isinstance(cell, Exception):
            ops.extend([Op("", 0, _failure(cell))] * 2)
        else:
            ops.extend(_ok(result) for pair in cell for result in pair)
    return ops, {"geomean_speedup": speedup, "paper_speedup": PAPER_FIG8_SPEEDUP}


def sweep_configs(
    base: MachineConfig, l2_kb: Sequence[int], link_latency: Sequence[int],
) -> List[MachineConfig]:
    """The L2-size x socket-link grid, the recorded ``base`` config first."""
    grid = [
        base.replace(
            l2=CacheConfig(
                kb * 1024, base.l2.associativity, base.block_size,
                latency=base.l2.latency,
            ),
            socket_link_latency=latency,
        )
        for kb in l2_kb
        for latency in link_latency
    ]
    return [base] + [config for config in grid if config != base]


def sweep(
    seed: int, clock: Stopwatch, kernels: Sequence[str] = SWEEP_KERNELS,
    size: str = "small", l2_kb: Sequence[int] = SWEEP_L2_KB,
    link_latency: Sequence[int] = SWEEP_LINK_LATENCY,
) -> Tuple[List[Op], dict]:
    """Record kernels x {mesi, warden} into a fresh trace store, then run
    ``replay_matrix`` over the config grid for each recording.

    Recording is counted, not amortized away.  The first variant is the
    recorded config, so its replay must reproduce the recording exactly.
    """
    config = dual_socket()
    variants = sweep_configs(config, l2_kb, link_latency)
    store = TraceStore("traces")
    tasks = [
        RunTask(benchmark=name, protocol=protocol, config=config,
                size=size, seed=seed)
        for name in kernels for protocol in ("mesi", "warden")
    ]
    recorded: List[object] = []
    swept: List[object] = []
    with clock:
        for task in tasks:
            try:
                key = task_fingerprint(task)
                trace, result = record_benchmark(
                    task.benchmark, task.protocol, config, size=size,
                    seed=seed, fingerprint=key,
                )
                store.store(key, trace)
                recorded.append(result)
            except Exception as exc:
                recorded.append(exc)
        for task, rec in zip(tasks, recorded):
            if isinstance(rec, Exception):
                swept.append(rec)
                continue
            try:
                swept.append(replay_matrix(task, variants, trace_store=store))
            except Exception as exc:
                swept.append(exc)
    ops: List[Op] = []
    replay_ops: List[Op] = []
    for rec, replays in zip(recorded, swept):
        if isinstance(rec, Exception):
            ops.append(Op("", 0, _failure(rec)))
            replay_ops.extend([Op("", 0, "recording failed")] * len(variants))
            continue
        ops.append(_ok(rec))
        if isinstance(replays, Exception):
            replay_ops.extend([Op("", 0, _failure(replays))] * len(variants))
            continue
        cells = [_ok(result) for result in replays]
        if cells[0].digest != ops[-1].digest:
            cells[0].error = "replay of the recorded config diverged from the recording"
        replay_ops.extend(cells)
    return ops + replay_ops, {}


def service(
    seed: int, clock: Stopwatch, kinds: Sequence[str] = SERVICE_KINDS,
    protocols: Sequence[str] = ZOO, size: str = "small",
) -> Tuple[List[Op], dict]:
    """Engine runs of the synthetic service workloads across the zoo."""
    config = dual_socket()
    cells: List[object] = []
    with clock:
        for kind in kinds:
            for protocol in protocols:
                try:
                    cells.append(run_benchmark(
                        f"synth-{kind}", protocol, config, size=size,
                        seed=seed, use_cache=False, use_disk_cache=False,
                    ))
                except Exception as exc:
                    cells.append(exc)
    ops = [
        Op("", 0, _failure(cell)) if isinstance(cell, Exception) else _ok(cell)
        for cell in cells
    ]
    return ops, {}


def ingest(
    seed: int, clock: Stopwatch, ops_per_thread: int = 150,
) -> Tuple[List[Op], dict]:
    """``warden-repro ingest zipf.trace --matrix`` on a seeded zipf trace.

    The trace is what ``warden-repro synth zipf`` writes by default (8
    threads x 150 ops, 1,200 lines); writing it is untimed.  One op per
    protocol row; a row covers the engine run, the recording and the
    replay, and fails when engine and replay disagree.  The digests are taken from the
    command's own ``stats_digest`` calls (engine, then replay, per row).
    """
    path = Path("zipf.trace")
    path.write_text(make_trace("zipf", seed=seed, ops_per_thread=ops_per_thread).to_text())
    seen: List[Tuple[str, int]] = []

    def observe(stats) -> str:
        digest = stats_digest(stats)
        seen.append((digest, stats.instructions))
        return digest

    argv = ["ingest", path.name, "--matrix", "--seed", str(seed)]
    conformance.stats_digest = observe
    try:
        with clock, contextlib.redirect_stdout(io.StringIO()):
            code = repro.cli.main(argv)
    finally:
        conformance.stats_digest = stats_digest
    ops = []
    for row in range(len(available_protocols())):
        pair = seen[2 * row:2 * row + 2]
        if len(pair) < 2:
            ops.append(Op("", 0, f"ingest exited {code} before this row"))
            continue
        (engine, instrs), (replayed, replay_instrs) = pair
        # The replay reproduces the recording, so the recording retired
        # the replay's instructions.
        op = Op(engine, instrs + 2 * replay_instrs)
        if engine != replayed:
            op.error = "engine and replay diverged"
        ops.append(op)
    return ops, {}


#: workload name -> job, in report order
JOBS: Dict[str, Callable[..., Tuple[List[Op], dict]]] = {
    "fig8": fig8,
    "sweep": sweep,
    "service": service,
    "ingest": ingest,
}
