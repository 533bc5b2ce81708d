"""Seeded synthetic service workloads emitted as memory traces.

Each generator models one service-shaped traffic regime the 14 paper
kernels cannot express, as a deterministic function of ``(rng, scale,
knobs)`` — same seed, same knobs ⇒ byte-identical trace text ⇒
bit-identical RunStats on both the engine and replay paths:

* ``zipf`` — key-value cache with Zipfian key popularity: hot keys are
  read (and occasionally written) by every thread, so raising ``skew``
  concentrates traffic on a few blocks and drives sharing/invalidation
  traffic up.
* ``rwmix`` — uniform key access with a tunable write fraction: the
  knob for write-invalidate cost sweeps (``write_frac`` up ⇒
  invalidations up).
* ``ring`` — producer/consumer rings: thread ``t`` writes items +
  bumps a tail counter (RMW), thread ``t+1`` drains them — the classic
  migratory/communication pattern.
* ``falseshare`` — per-thread counters deliberately packed into shared
  cache lines (``slots_per_line`` > 1): pure false-sharing stress with a
  private-line control knob.
* ``phase`` — phase-shifting working sets: each phase moves every
  thread to a fresh mostly-private window with a small shared overlap,
  modelling request batches churning a cache.

``SYNTH_WORKLOADS`` registers one ready-made :class:`Benchmark` per
regime (names ``synth-*``); :func:`make_trace` builds a raw trace for
arbitrary knob settings (the CLI ``synth`` subcommand's entry point).
Both check every knob against :data:`KNOB_RANGES` first, so a value no
generator can honour is a :class:`ConfigError`, never a traceback or a
trace that ``ingest`` refuses.

A registered workload's build keeps its trace
(:func:`~repro.workloads.adapter.latest_trace`): the runs of one
``(kind, size, seed)`` across a protocol matrix read one trace, with its
engine ops and checksums built once.  Callers must not append to a trace
a ``synth-*`` workload returned; :func:`make_trace` always builds a
fresh one.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.common import Benchmark
from repro.common.errors import ConfigError
from repro.workloads.adapter import latest_trace, trace_root_task
from repro.workloads.memtrace import (
    K_LOAD,
    K_RMW,
    K_STORE,
    MAX_TRACE_THREADS,
    MemTrace,
)

#: one cache line in every generator's address arithmetic; matches the
#: machine presets (traces remain valid at other block sizes, the
#: sharing patterns are simply sharper at <=64B lines).
LINE = 64

#: ops per thread at each named size.  "default" is deliberately far
#: beyond the built-in kernels' inputs — the replay kernel is the
#: intended substrate at that scale.
SCALES = {"test": 150, "small": 1200, "default": 25000}


def _zipf_cdf(keys: int, skew: float) -> List[float]:
    """Cumulative weights for ranks ``1..keys`` under ``1/rank**skew``."""
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(keys)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def _pick_zipf(rng: random.Random, cdf: List[float]) -> int:
    return bisect.bisect_left(cdf, rng.random())


def gen_zipf(
    rng: random.Random,
    ops_per_thread: int,
    threads: int = 8,
    keys: int = 64,
    skew: float = 1.2,
    read_frac: float = 0.9,
) -> MemTrace:
    """Zipfian key-popularity cache traffic (rank ``r`` lives at block ``r``)."""
    trace = MemTrace(name=f"zipf(skew={skew},read_frac={read_frac})")
    cdf = _zipf_cdf(keys, skew)
    for _ in range(ops_per_thread):
        for thread in range(threads):
            key = _pick_zipf(rng, cdf)
            kind = K_LOAD if rng.random() < read_frac else K_STORE
            trace.append(thread, kind, key * LINE, 8)
    return trace


def gen_rwmix(
    rng: random.Random,
    ops_per_thread: int,
    threads: int = 8,
    keys: int = 48,
    write_frac: float = 0.3,
) -> MemTrace:
    """Uniform key access with a tunable write fraction."""
    trace = MemTrace(name=f"rwmix(write_frac={write_frac})")
    for _ in range(ops_per_thread):
        for thread in range(threads):
            key = rng.randrange(keys)
            kind = K_STORE if rng.random() < write_frac else K_LOAD
            trace.append(thread, kind, key * LINE, 8)
    return trace


def gen_ring(
    rng: random.Random,
    ops_per_thread: int,
    threads: int = 8,
    slots: int = 16,
) -> MemTrace:
    """Producer/consumer rings: ``t`` produces, ``t+1`` consumes.

    Ring ``t`` occupies ``slots`` item lines plus one counter line
    (head and tail packed 8 bytes apart — deliberately, as real SPSC
    queues often do).  Each logical item is 4 ops: produce = store item
    + RMW tail; consume = RMW head + load item.
    """
    trace = MemTrace(name=f"ring(slots={slots})")
    ring_span = (slots + 1) * LINE
    items = max(1, ops_per_thread // 4)
    for i in range(items):
        for thread in range(threads):
            ring = thread  # thread t produces into ring t
            base = ring * ring_span
            # seed-dependent payload offset within the slot line (the
            # consumer reads exactly what the producer wrote)
            item = base + (i % slots) * LINE + 8 * rng.randrange(8)
            trace.append(thread, K_STORE, item, 8)
            trace.append(thread, K_RMW, base + slots * LINE, 8)  # tail
            consumer = (thread + 1) % threads
            trace.append(consumer, K_RMW, base + slots * LINE + 8, 8)  # head
            trace.append(consumer, K_LOAD, item, 8)
    return trace


def gen_falseshare(
    rng: random.Random,
    ops_per_thread: int,
    threads: int = 8,
    slots_per_line: int = 8,
    read_frac: float = 0.25,
) -> MemTrace:
    """Per-thread counters packed ``slots_per_line`` to a cache line.

    At ``slots_per_line=1`` every counter has a private line (the fixed
    version of the bug); at 8 all eight threads fight over one line.
    """
    trace = MemTrace(name=f"falseshare(slots_per_line={slots_per_line})")
    slot_stride = LINE // slots_per_line
    for _ in range(ops_per_thread):
        for thread in range(threads):
            line = thread // slots_per_line
            slot = thread % slots_per_line
            addr = line * LINE + slot * slot_stride
            kind = K_LOAD if rng.random() < read_frac else K_STORE
            trace.append(thread, kind, addr, min(8, slot_stride))
    return trace


def gen_phase(
    rng: random.Random,
    ops_per_thread: int,
    threads: int = 8,
    phases: int = 4,
    window_lines: int = 16,
    shared_frac: float = 0.2,
) -> MemTrace:
    """Phase-shifting working sets with a small shared overlap.

    Each phase, thread ``t`` works a fresh private window of
    ``window_lines`` lines; a ``shared_frac`` slice of its accesses hits
    that phase's common window instead (write-mostly, so phase churn
    generates real coherence turnover, not just capacity misses).
    """
    trace = MemTrace(name=f"phase(phases={phases})")
    per_phase = max(1, ops_per_thread // phases)
    shared_base_line = threads * phases * window_lines
    for phase in range(phases):
        for _ in range(per_phase):
            for thread in range(threads):
                if rng.random() < shared_frac:
                    line = shared_base_line + phase * window_lines \
                        + rng.randrange(window_lines)
                    kind = K_STORE if rng.random() < 0.5 else K_LOAD
                else:
                    line = (thread * phases + phase) * window_lines \
                        + rng.randrange(window_lines)
                    kind = K_STORE if rng.random() < 0.3 else K_LOAD
                trace.append(thread, kind, line * LINE, 8)
    return trace


#: generator registry: kind -> callable(rng, ops_per_thread, **knobs)
GENERATORS: Dict[str, Callable[..., MemTrace]] = {
    "zipf": gen_zipf,
    "rwmix": gen_rwmix,
    "ring": gen_ring,
    "falseshare": gen_falseshare,
    "phase": gen_phase,
}


#: accepted closed range of every generator knob: ``name -> (integer?,
#: low, high)``, ``high=None`` for no bound.  ``keys`` is capped because
#: ``zipf`` tabulates one weight per key, ``skew`` so that no weight
#: overflows at that cap, and ``slots_per_line`` at one byte per slot.
KNOB_RANGES: Dict[str, Tuple[bool, int, Optional[int]]] = {
    "threads": (True, 1, MAX_TRACE_THREADS),
    "keys": (True, 1, 1 << 16),
    "slots": (True, 1, None),
    "slots_per_line": (True, 1, LINE),
    "phases": (True, 1, None),
    "window_lines": (True, 1, None),
    "skew": (False, 0, 32),
    "read_frac": (False, 0, 1),
    "write_frac": (False, 0, 1),
    "shared_frac": (False, 0, 1),
}


def _check_knobs(kind: str, ops_per_thread: int, knobs: Dict[str, object]) -> None:
    """Raise :class:`ConfigError` unless every knob is in :data:`KNOB_RANGES`."""

    def bad(what: str) -> ConfigError:
        return ConfigError(f"bad knob for synthetic workload {kind!r}: {what}")

    if isinstance(ops_per_thread, bool) or not isinstance(ops_per_thread, int) \
            or ops_per_thread < 1:
        raise bad(f"ops per thread {ops_per_thread!r} must be an integer >= 1")
    for name, value in knobs.items():
        if name not in KNOB_RANGES:
            continue  # the generator's signature rejects it
        integer, low, high = KNOB_RANGES[name]
        need = f"in [{low}, {high}]" if high is not None else f">= {low}"
        numeric = (int,) if integer else (int, float)
        if isinstance(value, bool) or not isinstance(value, numeric) \
                or (isinstance(value, float) and not math.isfinite(value)) \
                or value < low or (high is not None and value > high):
            kind_of = "an integer" if integer else "a number"
            raise bad(f"{name}={value!r} must be {kind_of} {need}")
    if knobs.get("phases", 1) > ops_per_thread:
        raise bad(
            f"phases={knobs['phases']!r} must be at most the "
            f"{ops_per_thread} ops per thread"
        )


def _generate(
    kind: str, rng: random.Random, ops_per_thread: int, knobs: Dict[str, object]
) -> MemTrace:
    """Check the knobs, then run ``kind``'s generator."""
    _check_knobs(kind, ops_per_thread, knobs)
    try:
        return GENERATORS[kind](rng, ops_per_thread, **knobs)
    except TypeError as exc:
        raise ConfigError(
            f"bad knob for synthetic workload {kind!r}: {exc}"
        ) from None


def make_trace(
    kind: str, seed: int = 42, ops_per_thread: int = SCALES["test"], **knobs
) -> MemTrace:
    """Build one fresh synthetic trace with explicit knobs (CLI ``synth`` path).

    Unknown kinds, unknown knob names and knob values outside
    :data:`KNOB_RANGES` raise :class:`ConfigError` (operational error,
    CLI exit 2).
    """
    if kind not in GENERATORS:
        raise ConfigError(
            f"unknown synthetic workload {kind!r}; "
            f"choose from {sorted(GENERATORS)}"
        )
    return _generate(kind, random.Random(seed), ops_per_thread, knobs)


def _synth_benchmark(kind: str, description: str) -> Benchmark:
    name = f"synth-{kind}"

    def build(rng: random.Random, scale: int) -> MemTrace:
        # The rng's state stands for the seed: equal states draw equal traces.
        return latest_trace(
            (name, scale, rng.getstate()),
            lambda: _generate(kind, rng, scale, {}),
        )

    return Benchmark(
        name=name,
        build=build,
        root_task=trace_root_task,
        reference=lambda workload: workload.checksum(),
        scales=dict(SCALES),
        description=description,
    )


#: the registered synthetic benchmarks — standard Benchmark objects that
#: run/bench/verify/record/replay accept exactly like the paper kernels.
SYNTH_WORKLOADS: Dict[str, Benchmark] = {
    bench.name: bench
    for bench in (
        _synth_benchmark(
            "zipf", "Zipfian key-popularity cache traffic (skew 1.2)"
        ),
        _synth_benchmark(
            "rwmix", "uniform keys, 30% writes (rw-mix sweep anchor)"
        ),
        _synth_benchmark(
            "ring", "producer/consumer rings with RMW head/tail counters"
        ),
        _synth_benchmark(
            "falseshare", "8 threads' counters packed into shared lines"
        ),
        _synth_benchmark(
            "phase", "phase-shifting working sets with shared overlap"
        ),
    )
}

#: the subset pinned in the golden digest corpus (4 x all protocols)
GOLDEN_SYNTH = ("synth-zipf", "synth-rwmix", "synth-ring", "synth-falseshare")
