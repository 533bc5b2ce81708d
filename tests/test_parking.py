"""Parked spinners: closed-form spins must match per-op stepping exactly.

An idle worker whose spin is clean (two private L1 hits, see
``WorkStealingScheduler.on_idle``) leaves the engine heap until a push or
the root's end; ``skip_spins`` then applies the spins it skipped.  These
tests pin the three places where that can go wrong: the wake key of a fork
whose body charges cycles inside ``send``, the closed form itself at the
backoff-ramp and plateau boundaries, and the configurations where parking
must stay off (SMT) or on (a traced run).
"""

import pytest

from repro.bench import get_benchmark
from repro.common.config import validation_machine
from repro.common.errors import SimulationError
from repro.hlpl.runtime import Runtime
from repro.hlpl.scheduler import BACKOFF_MAX, BACKOFF_MIN
from repro.obs.tracer import RingBufferSink
from repro.sim.machine import Machine
from repro.sim.ops import ComputeOp, ForkOp
from tests.conftest import tiny_config


def _runtime(config, protocol="mesi", sink=None, per_op=False):
    machine = Machine(config, protocol)
    # per-op stepping and no parking; the scheduler reads it when it is built
    machine.per_op = per_op
    if sink is not None:
        machine.tracer.install(sink)
    rt = Runtime(machine, seed=42)
    calls = {"on_idle": 0, "skip_spins": 0}
    for name in calls:
        method = getattr(rt.scheduler, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        setattr(rt.scheduler, name, counted)
    return rt, calls


def _run(per_op, root, arg, config, **kwargs):
    rt, calls = _runtime(config, per_op=per_op, **kwargs)
    result, stats = rt.run(root, arg)
    return result, stats.to_dict(), calls


def _both_modes(root, arg, config, **kwargs):
    batched = _run(False, root, arg, config, **kwargs)
    reference = _run(True, root, arg, config, **kwargs)
    assert batched[0] == reference[0]
    assert batched[1] == reference[1], "parked run diverges from per-op"
    return batched[2], reference[2]


# ----------------------------------------------------------------------
# Wake key: the pre-send clock, not the fork-entry clock
# ----------------------------------------------------------------------
def _leaf(ctx):
    yield ComputeOp(300)
    return 1


def _root_charging_inside_send(ctx, pre_fork_cycles):
    # long enough that every idle worker settles into parked spins
    yield ComputeOp(20_000)
    # Charged synchronously inside the generator's send, before the
    # ForkOp is yielded: every parked spinner has spin points in this
    # window, and per-op stepping runs them after the fork's pushes.
    ctx.rt.machine.compute(ctx.rt.current_thread, pre_fork_cycles)
    results = yield ForkOp(ctx, (_leaf, _leaf, _leaf, _leaf))
    return sum(results)


@pytest.mark.parametrize("pre_fork_cycles", [1, 37, 5_000])
def test_wake_key_is_the_pre_send_clock(pre_fork_cycles):
    batched, reference = _both_modes(
        _root_charging_inside_send, pre_fork_cycles, tiny_config(),
    )
    assert batched["skip_spins"] > 0  # spinners really were parked
    assert batched["on_idle"] < reference["on_idle"]


def test_every_worker_parked_is_a_deadlock():
    # nothing was pushed, so every worker spins until it parks; per-op
    # stepping would spin forever
    rt, calls = _runtime(tiny_config())
    with pytest.raises(SimulationError, match="deadlock"):
        rt.engine.run()
    assert calls["skip_spins"] == 0


# ----------------------------------------------------------------------
# The closed form equals the real spins it replaces
# ----------------------------------------------------------------------
THREAD = 2


def _parked_spinner():
    """A runtime whose worker THREAD just made a clean spin."""
    rt, _ = _runtime(tiny_config())
    sched = rt.scheduler
    worker = rt.engine.workers[THREAD]
    for _ in range(4):
        if sched.on_idle(worker):
            break
    else:
        pytest.fail("spin never became clean")
    sched._backoff[THREAD] = BACKOFF_MIN  # cover the whole ramp
    return rt


def _spinner_state(rt):
    machine = rt.machine
    core = machine.cores[THREAD]
    l1 = machine.protocol.l1[machine._core_of[THREAD]]
    return (
        core.clock,
        core.stats.to_dict(),
        rt.scheduler._backoff[THREAD],
        machine.protocol.stats.total_accesses,
        l1.hits,
        l1.misses,
        [list(cset) for _, cset in sorted(l1._sets.items())],
    )


def _spin_clocks(count):
    rt = _parked_spinner()
    clocks = []
    for _ in range(count):
        clocks.append(rt.machine.cores[THREAD].clock)
        assert rt.scheduler.on_idle(rt.engine.workers[THREAD])
    return clocks


def test_closed_form_matches_real_spins_at_ramp_and_plateau_edges():
    # the ramp is 64 -> 128 -> 256 -> 512; keys around spins 0..7 cover
    # every ramp step, the switch to the plateau and plateau multiples
    clocks = _spin_clocks(8)
    keys = {
        (clock + delta, thread)
        for clock in clocks
        for delta in (-1, 0, 1)
        for thread in (THREAD - 1, THREAD + 1)  # both sides of the tie-break
    }
    keys.add((clocks[-1] + 40 * BACKOFF_MAX + 5, THREAD + 1))  # far out
    for key_clock, key_thread in sorted(keys):
        closed = _parked_spinner()
        closed.scheduler.skip_spins(THREAD, key_clock, key_thread)
        real = _parked_spinner()
        core = real.machine.cores[THREAD]
        worker = real.engine.workers[THREAD]
        while (core.clock, THREAD) < (key_clock, key_thread):
            assert real.scheduler.on_idle(worker)
        assert _spinner_state(closed) == _spinner_state(real), (
            f"closed form diverges at key ({key_clock}, {key_thread})"
        )


# ----------------------------------------------------------------------
# Where parking is on, and where it must stay off
# ----------------------------------------------------------------------
def _fib(config, **kwargs):
    bench = get_benchmark("fib")
    return _both_modes(
        bench.root_task, bench.workload(size="test", seed=42),
        config, **kwargs,
    )


def test_parking_is_on_by_default():
    batched, reference = _fib(tiny_config())
    assert batched["skip_spins"] > 0
    assert batched["on_idle"] < reference["on_idle"]


def test_parking_is_on_under_a_tracer():
    # a sink watches the parked run users time; it does not switch it off
    # (_both_modes asserts the stats equal per-op stepping's)
    batched, reference = _fib(tiny_config(), sink=RingBufferSink())
    assert batched["skip_spins"] > 0
    assert batched["on_idle"] < reference["on_idle"]


@pytest.mark.parametrize(
    "config", [validation_machine(same_core=True)], ids=["smt"],
)
def test_parking_stays_off(config):
    batched, reference = _fib(config)
    assert batched["skip_spins"] == 0
    assert batched["on_idle"] == reference["on_idle"]
