"""Work-stealing scheduler tests."""

import pytest

from repro.hlpl.runtime import Runtime
from repro.sim.engine import Strand
from repro.sim.machine import Machine
from repro.sim.ops import ComputeOp
from tests.conftest import tiny_config


@pytest.fixture
def rt():
    return Runtime(Machine(tiny_config(), "mesi"))


def strand(cost=1):
    def gen():
        yield ComputeOp(cost)

    return Strand(gen())


class TestPushPop:
    def test_push_records_ready_clock(self, rt):
        rt.machine.cores[0].compute(500)
        s = strand()
        rt.scheduler.push(0, s)
        assert s.ready_clock == 500
        assert rt.scheduler.total_ready == 1

    def test_own_pop_takes_newest(self, rt):
        sched = rt.scheduler
        s1, s2 = strand(), strand()
        sched.push(0, s1)
        sched.push(0, s2)
        worker = rt.engine.workers[0]
        sched.on_idle(worker)
        assert worker.strand is s2  # LIFO for the owner
        assert sched.total_ready == 1

    def test_steal_takes_oldest(self, rt):
        sched = rt.scheduler
        s1, s2 = strand(), strand()
        sched.push(0, s1)
        sched.push(0, s2)
        thief = rt.engine.workers[1]
        for _ in range(64):  # random victim selection: probe until found
            sched.on_idle(thief)
            if thief.strand is not None:
                break
        assert thief.strand is s1  # FIFO for thieves
        assert rt.machine.cores[1].stats.successful_steals == 1

    def test_assign_respects_causality(self, rt):
        sched = rt.scheduler
        rt.machine.cores[0].compute(1000)
        s = strand()
        sched.push(0, s)  # ready at t=1000
        thief = rt.engine.workers[1]  # clock 0
        for _ in range(64):
            sched.on_idle(thief)
            if thief.strand is not None:
                break
        assert rt.machine.cores[1].clock >= 1000

    def test_spin_when_empty(self, rt):
        sched = rt.scheduler
        worker = rt.engine.workers[3]
        before = rt.machine.cores[3].clock
        sched.on_idle(worker)
        assert worker.strand is None
        assert rt.machine.cores[3].clock > before
        assert rt.machine.cores[3].stats.spin_loads == 1


class TestVictimSelection:
    def test_never_probes_self(self, rt):
        sched = rt.scheduler
        for _ in range(200):
            assert sched._next_victim(2) != 2

    def test_prefers_local_socket(self, rt):
        sched = rt.scheduler
        cfg = rt.machine.config
        per_socket = cfg.cores_per_socket * cfg.threads_per_core
        picks = [sched._next_victim(0) for _ in range(400)]
        local = sum(1 for v in picks if v < per_socket)
        assert local > len(picks) * 0.6  # ~75% expected


class TestTermination:
    def test_finished_stops_idle_offering(self, rt):
        sched = rt.scheduler
        assert sched.has_work_for(rt.engine.workers[0])
        sched.finished = True
        assert not sched.has_work_for(rt.engine.workers[0])
