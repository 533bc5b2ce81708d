"""Running one benchmark on one protocol/machine, with result caching.

Figures 8, 9, 10, and 11 all derive from the same dual-socket simulations;
the in-process cache makes the per-figure harnesses share one set of runs.
Both that cache and the optional persistent :class:`DiskCache` are keyed by
:func:`~repro.analysis.pool.task_fingerprint` — a content hash of the full
machine config, the run coordinates, and the simulator source — so two
differently-tuned configs can never alias, and editing the simulator
invalidates every stale entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench import get_benchmark
from repro.common.config import MachineConfig
from repro.common.errors import ReproError
from repro.common.stats import RunStats
from repro.energy.model import EnergyModel
from repro.hlpl.policy import MarkingPolicy
from repro.hlpl.runtime import Runtime
from repro.sim.machine import Machine
from repro.verify.ward_checker import WardChecker
from repro.analysis.pool import DiskCache, RunTask, run_matrix, task_fingerprint


class ResultMismatchError(ReproError):
    """A benchmark produced a result different from its reference."""


@dataclass
class BenchResult:
    benchmark: str
    protocol: str
    machine: str
    size: str
    stats: RunStats
    result: Any
    ward_checked: bool = False


_CACHE: Dict[str, BenchResult] = {}

#: process-wide persistent result cache; None disables disk caching
_DISK_CACHE: Optional[DiskCache] = None


def clear_cache() -> None:
    _CACHE.clear()


def set_disk_cache(cache: Optional[DiskCache]) -> Optional[DiskCache]:
    """Install (or, with None, remove) the persistent result cache.

    Returns the previously installed cache so callers can restore it.
    """
    global _DISK_CACHE
    previous = _DISK_CACHE
    _DISK_CACHE = cache
    return previous


def _protocol_key(protocol) -> str:
    """Stable cache-key spelling for a protocol name or class."""
    if isinstance(protocol, str):
        return protocol.lower()
    return f"{protocol.__module__}.{protocol.__qualname__}"


def _run_on(
    machine: Machine,
    name: str,
    size: str,
    seed: int,
    policy: MarkingPolicy,
    check_result: bool,
    check_ward: bool = False,
    race_detector=None,
) -> Tuple[BenchResult, Runtime]:
    """The one run body: simulate benchmark ``name`` on ``machine``, price
    its energy and check its result against the reference.

    Shared by :func:`run_benchmark` and
    :func:`repro.replay.record_benchmark`, which differ only in the
    machine they pass and in what they do around the run (caching and
    tracing, or trace capture).  Returns the result and the finished
    runtime.
    """
    bench = get_benchmark(name)
    workload = bench.workload(size=size, seed=seed)
    monitor: Optional[WardChecker] = None
    if check_ward and machine.supports_ward:
        monitor = WardChecker(region_table=machine.protocol.region_table)
    rt = Runtime(
        machine,
        policy=policy,
        access_monitor=monitor,
        race_detector=race_detector,
        seed=seed,
    )
    result, stats = rt.run(bench.root_task, workload)
    stats.benchmark = name
    EnergyModel(machine.config).compute(stats)

    if check_result:
        expected = bench.reference(workload)
        if result != expected:
            raise ResultMismatchError(
                f"{name} on {machine.protocol.name}: result does not match "
                f"the reference (got {str(result)[:80]}..., "
                f"want {str(expected)[:80]}...)"
            )
    out = BenchResult(
        benchmark=name,
        protocol=machine.protocol.name,
        machine=machine.config.name,
        size=size,
        stats=stats,
        result=result,
        ward_checked=monitor is not None,
    )
    return out, rt


def run_benchmark(
    name: str,
    protocol: str,
    config: MachineConfig,
    size: str = "default",
    seed: int = 42,
    policy: MarkingPolicy = MarkingPolicy.FULL,
    check_ward: bool = False,
    check_result: bool = True,
    use_cache: bool = True,
    use_disk_cache: bool = True,
    obs_sink=None,
    race_detector=None,
) -> BenchResult:
    """Simulate one benchmark run; verify its result against the reference.

    ``obs_sink`` installs an observability sink (see :mod:`repro.obs`) on
    the machine's tracer for the duration of the run; traced runs bypass
    the result cache (a cached result has no event stream to replay).
    ``race_detector`` attaches a :class:`repro.verify.race.RaceDetector`
    to the runtime; detected runs bypass the cache too (a cached result
    has no access stream to classify).  ``use_disk_cache=False`` skips
    the persistent cache (when one is installed via
    :func:`set_disk_cache`) without disturbing the in-process cache.
    """
    task = RunTask(
        benchmark=name,
        protocol=_protocol_key(protocol),
        config=config,
        size=size,
        seed=seed,
        policy=policy,
        check_ward=check_ward,
    )
    key = task_fingerprint(task)
    if obs_sink is not None or race_detector is not None:
        use_cache = False
    disk = _DISK_CACHE if (use_cache and use_disk_cache) else None
    if use_cache:
        hit = _CACHE.get(key)
        if hit is not None:
            return hit
        if disk is not None:
            hit = disk.load(key)
            if hit is not None:
                _CACHE[key] = hit
                return hit

    machine = Machine(config, protocol)
    if obs_sink is not None:
        machine.tracer.install(obs_sink)
    out, _ = _run_on(
        machine, name, size, seed, policy, check_result,
        check_ward=check_ward, race_detector=race_detector,
    )
    if use_cache:
        _CACHE[key] = out
        if disk is not None:
            disk.store(key, out)
    return out


def replay_benchmark(
    name: str,
    protocol: str,
    config: MachineConfig,
    size: str = "default",
    seed: int = 42,
    policy: MarkingPolicy = MarkingPolicy.FULL,
    trace_store=None,
    obs_sink=None,
) -> BenchResult:
    """Run one benchmark via the record/replay path (see :mod:`repro.replay`).

    The first call for a given task records the event trace through the
    interpreted engine and persists it in the fingerprinted trace store;
    every later call replays that trace through the vectorized kernel,
    producing bit-identical ``RunStats`` at a fraction of the cost.  The
    trace fingerprint covers the full config *and* the simulator source, so
    a stale trace can never replay — the store misses and we re-record.

    Replay results never enter the exact-result caches (``_CACHE`` / the
    disk cache): those are reserved for the interpreted engine, and the
    trace store is already the replay path's own cache.  Callers that
    want the interpreted engine call :func:`run_benchmark`.
    """
    from repro.replay import TraceStore, record_benchmark, replay_trace

    task = RunTask(
        benchmark=name,
        protocol=_protocol_key(protocol),
        config=config,
        size=size,
        seed=seed,
        policy=policy,
    )
    key = task_fingerprint(task)
    store = trace_store if trace_store is not None else TraceStore()
    trace = store.load(key)
    if trace is None:
        trace, result = record_benchmark(
            name, protocol, config, size=size, seed=seed, policy=policy,
            fingerprint=key, obs_sink=obs_sink,
        )
        store.store(key, trace)
        return result
    if obs_sink is not None:
        from repro.obs.tracer import ReplayEvent

        obs_sink.emit(ReplayEvent(
            0, "trace-hit", name, trace.meta.get("protocol_name", ""),
            events=len(trace), detail=str(store.path_for(key)),
        ))
    # The recorded run already verified the result against the reference;
    # replay carries it in the trace, so no re-check is needed here.
    return replay_trace(trace, obs_sink=obs_sink)


def run_pair(
    name: str,
    config: MachineConfig,
    size: str = "default",
    seed: int = 42,
    policy: MarkingPolicy = MarkingPolicy.FULL,
    protocols: Sequence[str] = ("mesi", "warden"),
) -> Tuple[BenchResult, ...]:
    """Run a benchmark under each protocol on the same machine/input.

    Defaults to the paper's (MESI, WARDen) pair; any registered protocol
    keys work (e.g. ``("mesi", "moesi", "sisd", "warden")``).
    """
    return tuple(
        run_benchmark(name, proto, config, size=size, seed=seed, policy=policy)
        for proto in protocols
    )


def prefetch(
    tasks: List[RunTask],
    jobs: int = 1,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    report=None,
) -> List[str]:
    """Warm the in-process cache for ``tasks`` through the run matrix.

    Every harness (figures via :func:`run_pairs`, conformance via
    :func:`~repro.analysis.conformance.run_verify`) runs its matrix here:
    :func:`~repro.analysis.pool.run_matrix` resolves the fault plan, fans
    out or runs in-process, and records what it survived in ``report``.
    Returns the tasks' fingerprints, the keys of their ``_CACHE`` entries.
    """
    keys = [task_fingerprint(task) for task in tasks]
    todo = [i for i, key in enumerate(keys) if key not in _CACHE]
    cache_dir = str(_DISK_CACHE.root) if _DISK_CACHE is not None else None
    results = run_matrix(
        [tasks[i] for i in todo],
        jobs=jobs,
        cache_dir=cache_dir,
        timeout=timeout,
        retries=retries,
        report=report,
    )
    for i, result in zip(todo, results):
        _CACHE[keys[i]] = result
    return keys


#: seeds used by the figure harnesses (averaged to cancel steal-timing noise)
FIGURE_SEEDS = (42, 43, 44)


def run_pairs(
    name: str,
    config: MachineConfig,
    size: str = "default",
    seeds=FIGURE_SEEDS,
    policy: MarkingPolicy = MarkingPolicy.FULL,
    jobs: int = 1,
    protocols: Sequence[str] = ("mesi", "warden"),
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    report=None,
) -> List[Tuple[BenchResult, ...]]:
    """Run protocol tuples across several seeds (for figure harnesses).

    The (protocol x seed) matrix goes through :func:`prefetch`: in-process
    for ``jobs=1``, over a process pool otherwise (see
    :mod:`repro.analysis.pool`).  Either way results are bit-identical,
    land in the in-process cache, and flow through the persistent disk
    cache when one is installed.  ``timeout``/``retries``/``report`` feed
    the pool's robustness layer.
    """
    tasks = [
        RunTask(
            benchmark=name,
            protocol=_protocol_key(proto),
            config=config,
            size=size,
            seed=seed,
            policy=policy,
        )
        for seed in seeds
        for proto in protocols
    ]
    keys = iter(prefetch(
        tasks, jobs,
        timeout=timeout, retries=retries, report=report,
    ))
    return [tuple(_CACHE[next(keys)] for _ in protocols) for _ in seeds]
