"""A finished run's machine dies with the run, by reference counting.

Figure, verify and golden jobs run many independent cells in one process.
If a run's ``Machine`` (cores, caches, blocks, directories, runtime,
engine, scheduler) sits in a reference cycle, it survives the run as
cyclic garbage and memory grows with the number of cells until a full
collection.  Each case below runs with the cycle collector off and checks
that, once the call has returned, every machine it built (and that
machine's protocol) is already gone, and that the run's spawn tree
(tasks, their heaps and pages) is not left behind as cyclic garbage.
"""

import gc
import weakref

import pytest

from repro.analysis.run import replay_benchmark, run_benchmark
from repro.coherence.registry import available_protocols
from repro.common.config import dual_socket
from repro.hlpl.heap import Heap, Page
from repro.hlpl.task import TaskNode
from repro.replay import TraceStore, record_benchmark
from repro.sim.machine import Machine
from repro.verify.race import RaceDetector

CONFIG = dual_socket()


def _run(name="msort", **kwargs):
    def call(protocol, tmp_path):
        return run_benchmark(
            name, protocol, CONFIG, size="test",
            use_cache=False, use_disk_cache=False, **kwargs,
        )

    return call


def _race(protocol, tmp_path):
    return run_benchmark(
        "msort", protocol, CONFIG, size="test", race_detector=RaceDetector()
    )


def _record(protocol, tmp_path):
    return record_benchmark("msort", protocol, CONFIG, size="test")


def _replay(protocol, tmp_path):
    # The first call records into the empty store (a RecordingMachine);
    # the second replays the stored trace, which builds no machine and
    # must leave no cyclic garbage of its own.
    store = TraceStore(tmp_path)
    replay_benchmark("msort", protocol, CONFIG, size="test", trace_store=store)
    gc.collect()
    result = replay_benchmark(
        "msort", protocol, CONFIG, size="test", trace_store=store
    )
    assert gc.collect() == 0
    return result


CASES = {
    "run": _run(),
    "check_ward": _run(check_ward=True),
    "race_detector": _race,
    "record": _record,
    "replay": _replay,
    "synth": _run(name="synth-zipf"),
}


@pytest.fixture
def machines(monkeypatch):
    """Weak references to every machine (and its protocol) built."""
    refs = []
    init = Machine.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append((weakref.ref(self), weakref.ref(self.protocol)))

    monkeypatch.setattr(Machine, "__init__", tracking_init)
    return refs


@pytest.mark.parametrize("protocol", sorted(available_protocols()))
@pytest.mark.parametrize("case", sorted(CASES))
def test_machine_freed_when_the_call_returns(case, protocol, machines, tmp_path):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = CASES[case](protocol, tmp_path)
        assert result is not None  # the result outlives its machine
        assert machines, "the call built no machine"
        for machine, proto in machines:
            assert machine() is None, f"{case}: machine left alive"
            assert proto() is None, f"{case}: protocol left alive"
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("case", sorted(CASES))
def test_spawn_tree_is_not_cyclic_garbage(case, tmp_path):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert CASES[case]("warden", tmp_path) is not None
        # Everything still unreachable here waits for the cycle collector;
        # DEBUG_SAVEALL keeps it in gc.garbage so it can be inspected.
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = sorted({
            type(obj).__name__ for obj in gc.garbage
            if isinstance(obj, (TaskNode, Heap, Page))
        })
        assert left == [], f"{case}: {left} left as cyclic garbage"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
