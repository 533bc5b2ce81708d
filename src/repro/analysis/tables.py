"""Plain-text rendering of every table/figure the paper reports."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.metrics import ComparisonMetrics, geomean, mean, summarize
from repro.bench.microbench import PAPER_TABLE1, PingPongResult
from repro.common.config import MachineConfig


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


# ----------------------------------------------------------------------
def table1(results: Dict[str, PingPongResult]) -> str:
    rows = []
    for scenario, res in results.items():
        paper = PAPER_TABLE1[scenario]
        rows.append(
            [
                scenario,
                paper["real_hw"],
                paper["sniper"],
                res.cycles_per_iteration,
            ]
        )
    return render_table(
        ["Scenario", "Paper real HW", "Paper Sniper", "This repro"],
        rows,
        title="Table 1: true-sharing ping-pong latency (cycles/iteration)",
    )


def table2(config: MachineConfig) -> str:
    rows = [
        ["L1 size", f"{config.l1.size_bytes // 1024} KB"],
        ["L2 size", f"{config.l2.size_bytes // 1024} KB"],
        ["L3 size (per core)", f"{config.l3.size_bytes // 1024} KB"],
        ["L1/L2 associativity", config.l1.associativity],
        ["L3 associativity", config.l3.associativity],
        ["Block size", f"{config.block_size} B"],
        ["L1/L2/L3 latencies", f"{config.l1.latency}-{config.l2.latency}-{config.l3.latency} cycles"],
        ["Cores per socket", config.cores_per_socket],
        ["Sockets", config.num_sockets],
        ["Frequency", f"{config.energy.frequency_ghz} GHz"],
        ["Disaggregated", config.disaggregated],
    ]
    return render_table(["Parameter", "Value"], rows, title="Table 2: simulated system")


# ----------------------------------------------------------------------
def speedup_energy_figure(
    metrics: List[ComparisonMetrics], title: str
) -> str:
    rows = [
        [m.benchmark, m.speedup, m.interconnect_savings, m.processor_savings]
        for m in metrics
    ]
    agg = summarize(metrics)
    rows.append(
        ["MEAN", agg["speedup"], agg["interconnect_savings"], agg["processor_savings"]]
    )
    return render_table(
        ["Benchmark", "Speedup", "Interconnect savings %", "Total processor savings %"],
        rows,
        title=title,
    )


def figure9(metrics: List[ComparisonMetrics]) -> str:
    rows = [
        [m.benchmark, m.inv_dg_reduced_per_kilo, m.speedup] for m in metrics
    ]
    return render_table(
        ["Benchmark", "Inv+Down reduced / kilo-instr", "Speedup"],
        rows,
        title="Figure 9: coherence-event reduction vs speedup (dual socket)",
    )


def figure10(metrics: List[ComparisonMetrics]) -> str:
    rows = [
        [m.benchmark, m.downgrade_reduction_pct, m.invalidation_reduction_pct]
        for m in metrics
    ]
    return render_table(
        ["Benchmark", "Downgrade reduction %", "Invalidation reduction %"],
        rows,
        title="Figure 10: share of the reduction by event type",
    )


def figure11(metrics: List[ComparisonMetrics]) -> str:
    rows = [[m.benchmark, m.ipc_improvement_pct] for m in metrics]
    return render_table(
        ["Benchmark", "IPC improvement %"],
        rows,
        title="Figure 11: percentage IPC improvement",
    )


#: one labelled run group of a multi-policy or multi-machine table
Group = Tuple[str, List[ComparisonMetrics]]


def ablation_table(groups: List[Group]) -> str:
    """Speedup per WARD-marking policy (one group per policy)."""
    rows = [
        [label, geomean(m.speedup for m in ms)] + [m.speedup for m in ms]
        for label, ms in groups
    ]
    return render_table(
        ["Policy", "geomean"] + [m.benchmark for m in groups[0][1]],
        rows,
        title="Ablation: WARD-marking policy (dual socket, speedup vs MESI)",
    )


def sockets_table(groups: List[Group]) -> str:
    """§7.3: mean speedup and network savings per socket count."""
    rows = [
        [label, mean(m.speedup for m in ms), mean(m.interconnect_savings for m in ms)]
        for label, ms in groups
    ]
    names = ", ".join(m.benchmark for m in groups[0][1])
    return render_table(
        ["Sockets", "Mean speedup", "Mean network savings %"],
        rows,
        title=f"§7.3: WARDen benefit vs socket count ({names})",
    )
