"""Happens-before race detector tests (repro.verify.race).

Unit layer drives the detector hooks directly with real spawn-tree nodes;
the integration layer runs racy and race-free programs through the full
machine/runtime stack and asserts the acceptance property: an injected
cross-thread RAW inside a WARD region is detected with a diagnostic naming
the region and both tasks.
"""

import pytest

from repro.common.errors import RaceError
from repro.common.types import AccessType
from repro.hlpl.runtime import Runtime
from repro.hlpl.task import TaskNode
from repro.sim.machine import Machine
from repro.sim.ops import ComputeOp
from repro.verify.race import RaceDetector, happens_before, vc_join
from tests.conftest import tiny_config

LOAD = AccessType.LOAD
STORE = AccessType.STORE
RMW = AccessType.RMW


def _tree(detector, nchildren=2):
    """Root plus ``nchildren`` concurrent children, all registered."""
    root = TaskNode(None)
    detector.on_root(root)
    children = [TaskNode(root) for _ in range(nchildren)]
    detector.on_fork(root, children)
    return root, children


class TestVectorClocks:
    def test_vc_join_is_pointwise_max(self):
        a = {1: 3, 2: 1}
        assert vc_join(dict(a), {2: 5, 7: 2}) == {1: 3, 2: 5, 7: 2}

    def test_fork_makes_children_concurrent(self):
        det = RaceDetector()
        _, (c1, c2) = _tree(det)
        vc1, vc2 = det.clock_of(c1), det.clock_of(c2)
        assert not happens_before((vc1[c1.task_id], c1.task_id), vc2)
        assert not happens_before((vc2[c2.task_id], c2.task_id), vc1)

    def test_join_orders_children_before_parent(self):
        det = RaceDetector()
        root, children = _tree(det)
        epochs = [
            (det.clock_of(c)[c.task_id], c.task_id) for c in children
        ]
        det.on_join(root, children)
        parent_vc = det.clock_of(root)
        assert all(happens_before(e, parent_vc) for e in epochs)

    def test_task_paths(self):
        det = RaceDetector()
        root, (c1, c2) = _tree(det)
        assert det.path_of(root) == "root"
        assert det.path_of(c1) == "root.0"
        assert det.path_of(c2) == "root.1"
        grand = [TaskNode(c2)]
        det.on_fork(c2, grand)
        assert det.path_of(grand[0]) == "root.1.0"


class TestClassification:
    def test_concurrent_raw_is_a_race(self):
        det = RaceDetector(raise_on_race=False)
        _, (c1, c2) = _tree(det)
        det.on_access(c1, 0, 64, 8, STORE)
        det.on_access(c2, 1, 64, 8, LOAD)
        (finding,) = det.races
        assert finding.kind == "raw"
        assert finding.prior.task_path == "root.0"
        assert finding.current.task_path == "root.1"

    def test_concurrent_war_is_a_race(self):
        det = RaceDetector(raise_on_race=False)
        _, (c1, c2) = _tree(det)
        det.on_access(c1, 0, 64, 8, LOAD)
        det.on_access(c2, 1, 64, 8, STORE)
        assert [f.kind for f in det.races] == ["war"]

    def test_joined_child_write_then_parent_read_is_ordered(self):
        det = RaceDetector()
        root, children = _tree(det)
        det.on_access(children[0], 0, 64, 8, STORE)
        det.on_join(root, children)
        det.on_access(root, 0, 64, 8, LOAD)
        assert det.clean

    def test_sequential_siblings_are_ordered_via_parent(self):
        # fork {a}, join, fork {b}: b's accesses are ordered after a's.
        det = RaceDetector()
        root = TaskNode(None)
        det.on_root(root)
        a = [TaskNode(root)]
        det.on_fork(root, a)
        det.on_access(a[0], 0, 64, 8, STORE)
        det.on_join(root, a)
        b = [TaskNode(root)]
        det.on_fork(root, b)
        det.on_access(b[0], 1, 64, 8, LOAD)
        assert det.clean

    def test_waw_inside_shared_region_is_benign(self):
        det = RaceDetector(raise_on_race=False)
        _, (c1, c2) = _tree(det)
        det.region_begin(0, 256)
        det.on_access(c1, 0, 64, 8, STORE)
        det.on_access(c2, 1, 64, 8, STORE)
        assert det.clean
        (benign,) = det.benign_waws
        assert benign.kind == "benign-waw" and benign.region_ids

    def test_waw_outside_any_region_is_a_race(self):
        det = RaceDetector(raise_on_race=False)
        _, (c1, c2) = _tree(det)
        det.on_access(c1, 0, 64, 8, STORE)
        det.on_access(c2, 1, 64, 8, STORE)
        assert [f.kind for f in det.races] == ["waw"]

    def test_waw_across_region_epochs_is_a_race(self):
        # The write's epoch closed before the second write: no shared
        # region epoch, so apathy cannot be claimed.
        det = RaceDetector(raise_on_race=False)
        _, (c1, c2) = _tree(det)
        region = det.region_begin(0, 256)
        det.on_access(c1, 0, 64, 8, STORE)
        det.region_end(region)
        det.region_begin(0, 256)
        det.on_access(c2, 1, 64, 8, STORE)
        assert [f.kind for f in det.races] == ["waw"]

    def test_raw_in_region_names_the_region(self):
        det = RaceDetector(raise_on_race=False)
        _, (c1, c2) = _tree(det)
        region = det.region_begin(0, 256)
        det.on_access(c1, 0, 64, 8, STORE)
        det.on_access(c2, 1, 64, 8, LOAD)
        (finding,) = det.races
        assert finding.region_ids == (region.region_id,)
        assert f"WARD region {region.region_id}" in finding.describe()

    def test_concurrent_rmw_pair_is_atomic_not_a_race(self):
        det = RaceDetector(raise_on_race=False)
        _, (c1, c2) = _tree(det)
        det.on_access(c1, 0, 64, 8, RMW)
        det.on_access(c2, 1, 64, 8, RMW)
        assert det.clean and det.atomic_updates == 1

    def test_raise_on_race_raises_with_finding(self):
        det = RaceDetector(benchmark="unit")
        _, (c1, c2) = _tree(det)
        det.on_access(c1, 0, 64, 8, STORE)
        with pytest.raises(RaceError) as info:
            det.on_access(c2, 1, 64, 8, LOAD)
        assert info.value.finding.kind == "raw"
        assert "root.0" in str(info.value) and "root.1" in str(info.value)
        assert "unit" in str(info.value)

    def test_region_logs_record_in_region_accesses(self):
        det = RaceDetector(raise_on_race=False, record_regions=True)
        _, (c1, _) = _tree(det)
        region = det.region_begin(0, 128)
        det.on_access(c1, 0, 64, 8, STORE)
        det.on_access(c1, 0, 512, 8, STORE)  # outside: not logged
        det.region_end(region)
        (log,) = det.region_logs
        assert log.entries == [("STORE", c1.task_id, 64)]

    def test_summary_counters(self):
        det = RaceDetector(benchmark="x", raise_on_race=False)
        _, (c1, c2) = _tree(det)
        det.on_access(c1, 0, 64, 8, STORE)
        det.on_access(c2, 1, 64, 8, LOAD)
        summary = det.summary()
        assert summary["benchmark"] == "x"
        assert summary["checked_accesses"] == 2
        assert summary["tasks_tracked"] == 3
        assert summary["races"] == 1


# ----------------------------------------------------------------------
# Integration through the full machine/runtime stack
# ----------------------------------------------------------------------

def _racy_root(ctx):
    """Cross-thread RAW inside a WARD region: child 1 reads what child 0
    wrote while both are live (the reader spins on compute first so the
    write deterministically lands before the read)."""
    arr = yield from ctx.alloc_array(16, name="shared")
    region = ctx.ward_begin(arr)

    def writer(c):
        yield from arr.set(0, 7)
        return 0

    def reader(c):
        yield ComputeOp(2000)
        value = yield from arr.get(0)
        return value

    results = yield from ctx.par(writer, reader)
    ctx.ward_end(region)
    return results


def _run(protocol: str, detector: RaceDetector):
    machine = Machine(tiny_config(), protocol)
    rt = Runtime(machine, race_detector=detector, seed=1)
    return rt.run(_racy_root)


class TestInjectedRaceAcceptance:
    def test_injected_ward_raw_raises_with_region_and_tasks(self):
        detector = RaceDetector(benchmark="racy")
        with pytest.raises(RaceError) as info:
            _run("warden", detector)
        message = str(info.value)
        finding = info.value.finding
        assert finding.kind == "raw"
        assert finding.region_ids  # the ward_begin region epoch
        assert finding.prior.task_path == "root.0"
        assert finding.current.task_path == "root.1"
        # Diagnostic names the benchmark, the region, and both tasks.
        assert "racy" in message
        assert f"WARD region {finding.region_ids[0]}" in message
        assert "task root.0" in message and "task root.1" in message

    def test_detection_is_protocol_independent(self):
        detector = RaceDetector(raise_on_race=False)
        _run("mesi", detector)
        assert [f.kind for f in detector.races] == ["raw"]
        assert detector.races[0].region_ids  # logical region, even on MESI

    def test_recording_mode_collects_structured_finding(self):
        detector = RaceDetector(raise_on_race=False)
        result, _ = _run("warden", detector)
        assert result == [0, 7]  # reader observed the racy write
        (finding,) = detector.races
        assert finding.addr and finding.prior.op_index > 0


class TestCleanPrograms:
    def test_fib_is_race_free(self):
        from repro.analysis.run import run_benchmark

        detector = RaceDetector(benchmark="fib")
        run_benchmark(
            "fib", "warden", tiny_config(), size="test",
            race_detector=detector, use_cache=False,
        )
        assert detector.clean and detector.checked_accesses > 0

    def test_primes_waws_are_benign(self):
        from repro.analysis.run import run_benchmark

        detector = RaceDetector(benchmark="primes", record_regions=True)
        run_benchmark(
            "primes", "warden", tiny_config(), size="test",
            race_detector=detector, use_cache=False,
        )
        assert detector.clean
        assert detector.benign_waws  # the sieve's constant stores
        assert all(f.region_ids for f in detector.benign_waws)
        assert detector.region_logs  # epochs closed and captured
