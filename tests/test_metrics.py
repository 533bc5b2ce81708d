"""Metric derivation tests (Figs. 7-12 math)."""

import pytest

from repro.analysis.metrics import (
    compare,
    compare_multi,
    geomean,
    mean,
    pearson,
    summarize,
)
from repro.analysis.run import BenchResult
from repro.common.stats import RunStats


def result(benchmark="x", cycles=1000, inv=0, dg=0, instrs=1000, net=100.0,
           proc=1000.0, ward=0, total=1, threads=24):
    s = RunStats(benchmark=benchmark, num_threads=threads)
    s.cycles = cycles
    s.coherence.invalidations = inv
    s.coherence.downgrades = dg
    s.coherence.ward_accesses = ward
    s.coherence.total_accesses = total
    s.cores.compute_instrs = instrs
    s.energy.network_nj = net
    s.energy.core_dynamic_nj = proc - net
    return BenchResult(benchmark, "p", "m", "test", s, None)


class TestCompare:
    def test_speedup(self):
        m = compare(result(cycles=1500), result(cycles=1000))
        assert m.speedup == pytest.approx(1.5)

    def test_energy_savings(self):
        m = compare(result(net=200.0, proc=2000.0), result(net=100.0, proc=1500.0))
        assert m.interconnect_savings == pytest.approx(50.0)
        assert m.processor_savings == pytest.approx(25.0)

    def test_inv_dg_per_kilo_instr(self):
        m = compare(
            result(inv=30, dg=20, instrs=2000), result(inv=10, dg=0, instrs=2000)
        )
        assert m.inv_dg_reduced_per_kilo == pytest.approx(20.0)

    def test_reduction_breakdown(self):
        m = compare(result(inv=30, dg=30), result(inv=20, dg=0))
        assert m.downgrade_reduction_pct == pytest.approx(75.0)
        assert m.invalidation_reduction_pct == pytest.approx(25.0)

    def test_no_reduction_gives_zero_breakdown(self):
        m = compare(result(), result())
        assert m.downgrade_reduction_pct == 0.0

    def test_ipc_improvement(self):
        m = compare(
            result(cycles=2000, instrs=1000), result(cycles=1000, instrs=1000)
        )
        assert m.ipc_improvement_pct == pytest.approx(100.0)

    def test_mismatched_benchmarks_rejected(self):
        with pytest.raises(ValueError):
            compare(result(benchmark="a"), result(benchmark="b"))

    def test_ward_coverage_taken_from_warden_run(self):
        m = compare(result(), result(ward=30, total=100))
        assert m.ward_coverage == pytest.approx(0.3)


class TestCompareMulti:
    def test_sums_before_ratio(self):
        pairs = [
            (result(cycles=100), result(cycles=100)),
            (result(cycles=300), result(cycles=100)),
        ]
        m = compare_multi(pairs)
        assert m.speedup == pytest.approx(400 / 200)

    def test_single_pair_matches_compare(self):
        pair = (result(cycles=1700, inv=5), result(cycles=1000, inv=1))
        assert compare_multi([pair]).speedup == compare(*pair).speedup

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_multi([])

    def test_pairs_from_two_benchmarks_rejected(self):
        pairs = [
            (result(benchmark="a"), result(benchmark="a")),
            (result(benchmark="b"), result(benchmark="b")),
        ]
        with pytest.raises(ValueError, match="different benchmarks"):
            compare_multi(pairs)


class TestAggregates:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_ignores_nonpositive(self):
        assert geomean([2.0, 0.0]) == pytest.approx(2.0)

    def test_geomean_empty(self):
        assert geomean([]) == 0.0

    def test_pearson(self):
        assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)
        assert pearson([1.0, 2.0], [5.0, 5.0]) == 0.0

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_summarize_keys(self):
        m = compare(result(cycles=1200), result(cycles=1000))
        agg = summarize([m])
        assert set(agg) == {
            "speedup",
            "interconnect_savings",
            "processor_savings",
            "ipc_improvement_pct",
        }
        assert agg["speedup"] == pytest.approx(1.2)
