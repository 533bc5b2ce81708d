"""Table/figure renderer tests."""

from repro.analysis.metrics import ComparisonMetrics
from repro.analysis.tables import (
    ablation_table,
    figure9,
    figure10,
    figure11,
    render_table,
    sockets_table,
    speedup_energy_figure,
    table1,
    table2,
)
from repro.bench.microbench import PingPongResult
from repro.common.config import dual_socket


def metric(name="fib", speedup=1.5):
    return ComparisonMetrics(
        benchmark=name,
        speedup=speedup,
        interconnect_savings=10.0,
        processor_savings=5.0,
        inv_dg_reduced_per_kilo=12.0,
        downgrade_reduction_pct=60.0,
        invalidation_reduction_pct=40.0,
        ipc_improvement_pct=7.0,
        ward_coverage=0.5,
    )


class TestRenderTable:
    def test_alignment_and_separator(self):
        out = render_table(["A", "Blong"], [[1, 2.5], ["xx", 3]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "-+-" in lines[2]
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_floats_formatted(self):
        out = render_table(["v"], [[1.23456]])
        assert "1.23" in out and "1.2345" not in out


class TestFigureRenderers:
    def test_speedup_energy_has_mean_row(self):
        out = speedup_energy_figure([metric(), metric("primes", 2.0)], "Fig")
        assert "MEAN" in out
        assert "fib" in out and "primes" in out

    def test_figure9_columns(self):
        out = figure9([metric()])
        assert "Inv+Down reduced" in out and "Speedup" in out

    def test_figure10_columns(self):
        out = figure10([metric()])
        assert "Downgrade reduction %" in out
        assert "60.00" in out

    def test_figure11_columns(self):
        out = figure11([metric()])
        assert "IPC improvement %" in out and "7.00" in out

    def test_ablation_rows_per_policy(self):
        groups = [("none", [metric(speedup=1.0), metric("grep", 1.0)]),
                  ("full", [metric(speedup=1.0), metric("grep", 4.0)])]
        lines = ablation_table(groups).splitlines()
        assert lines[1].split()[-3:] == ["fib", "|", "grep"]
        assert lines[4].split() == "full | 2.00 | 1.00 | 4.00".split()

    def test_sockets_means_per_group(self):
        groups = [("1", [metric(speedup=1.0), metric("msort", 2.0)])]
        out = sockets_table(groups)
        assert out.startswith("§7.3: WARDen benefit vs socket count (fib, msort)")
        assert out.splitlines()[-1].split() == "1 | 1.50 | 10.00".split()


class TestPaperTables:
    def test_table1_includes_paper_reference(self):
        results = {
            s: PingPongResult(s, 100.0, 10000, 100)
            for s in ("same-core", "same-socket", "cross-socket")
        }
        out = table1(results)
        assert "Paper real HW" in out
        assert "1163.23" in out  # paper's cross-socket real-HW number

    def test_table2_matches_config(self):
        out = table2(dual_socket())
        assert "32 KB" in out
        assert "6-16-71 cycles" in out
        assert "3.3 GHz" in out
