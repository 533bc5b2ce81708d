"""The paper's derived metrics (Figs. 7-12)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

from repro.analysis.run import BenchResult
from repro.energy.model import percent_savings


@dataclass
class ComparisonMetrics:
    """Everything the paper plots for one benchmark, MESI vs WARDen."""

    benchmark: str
    #: normalized speedup (Figs. 7a/8a/12a): MESI cycles / WARDen cycles
    speedup: float
    #: interconnect energy savings % (Figs. 7b/8b "Interconnect"/"Network")
    interconnect_savings: float
    #: total processor energy savings % (Figs. 7b/8b "Total Processor")
    processor_savings: float
    #: (invalidations + downgrades) avoided per kilo-instruction (Fig. 9)
    inv_dg_reduced_per_kilo: float
    #: share of the gross reduction that is downgrades / invalidations
    #: (Fig. 10); a class counts only where it fell, so each lies in [0, 100]
    downgrade_reduction_pct: float
    invalidation_reduction_pct: float
    #: IPC improvement % (Fig. 11)
    ipc_improvement_pct: float
    #: fraction of accesses WARDen served from the W state (§7.2 analysis)
    ward_coverage: float

    mesi_cycles: int = 0
    warden_cycles: int = 0


def compare(mesi: BenchResult, warden: BenchResult) -> ComparisonMetrics:
    """The comparison of one MESI/WARDen run pair."""
    return compare_multi([(mesi, warden)])


def compare_multi(pairs: List[tuple]) -> ComparisonMetrics:
    """Aggregate MESI/WARDen comparisons over several runs (seeds).

    Quantities are summed across the runs before ratios are taken, so the
    result behaves like one long execution — this averages out work-stealing
    timing noise (the paper's runs are long enough to self-average; ours are
    deliberately small, per §7.1's input-size tuning, so we sum instead).
    """
    if not pairs:
        raise ValueError("need at least one run pair")
    name = pairs[0][0].benchmark
    if any(r.benchmark != name for pair in pairs for r in pair):
        raise ValueError("comparing different benchmarks")

    def tot(results, fn):
        return sum(fn(r.stats) for r in results)

    mesis = [m for m, _ in pairs]
    wards = [w for _, w in pairs]
    m_cycles = tot(mesis, lambda s: s.cycles)
    w_cycles = tot(wards, lambda s: s.cycles)
    m_net = tot(mesis, lambda s: s.energy.interconnect_nj)
    w_net = tot(wards, lambda s: s.energy.interconnect_nj)
    m_proc = tot(mesis, lambda s: s.energy.processor_nj)
    w_proc = tot(wards, lambda s: s.energy.processor_nj)
    inv_red = tot(mesis, lambda s: s.coherence.invalidations) - tot(
        wards, lambda s: s.coherence.invalidations
    )
    dg_red = tot(mesis, lambda s: s.coherence.downgrades) - tot(
        wards, lambda s: s.coherence.downgrades
    )
    total_red = inv_red + dg_red
    # Fig. 10's shares split the gross reduction: a class that rose under
    # WARDen removed nothing, so it counts 0 rather than a negative share
    # that pushes the other one past 100%.
    inv_fell = max(inv_red, 0)
    dg_fell = max(dg_red, 0)
    gross_red = inv_fell + dg_fell
    m_instr = tot(mesis, lambda s: s.instructions)
    w_instr = tot(wards, lambda s: s.instructions)
    threads = pairs[0][0].stats.num_threads
    m_ipc = m_instr / (m_cycles * threads) if m_cycles else 0.0
    w_ipc = w_instr / (w_cycles * threads) if w_cycles else 0.0
    w_cov_n = tot(wards, lambda s: s.coherence.ward_accesses)
    w_cov_d = max(tot(wards, lambda s: s.coherence.total_accesses), 1)

    return ComparisonMetrics(
        benchmark=name,
        speedup=m_cycles / w_cycles if w_cycles else 0.0,
        interconnect_savings=percent_savings(m_net, w_net),
        processor_savings=percent_savings(m_proc, w_proc),
        inv_dg_reduced_per_kilo=total_red / (max(m_instr, 1) / 1000.0),
        downgrade_reduction_pct=(
            dg_fell / gross_red * 100.0 if gross_red else 0.0
        ),
        invalidation_reduction_pct=(
            inv_fell / gross_red * 100.0 if gross_red else 0.0
        ),
        ipc_improvement_pct=(w_ipc - m_ipc) / m_ipc * 100.0 if m_ipc else 0.0,
        ward_coverage=w_cov_n / w_cov_d,
        mesi_cycles=m_cycles,
        warden_cycles=w_cycles,
    )


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def pearson(xs: List[float], ys: List[float]) -> float:
    """Pearson correlation of two samples (0 when either is constant)."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs) ** 0.5
    vy = sum((y - my) ** 2 for y in ys) ** 0.5
    return cov / (vx * vy) if vx and vy else 0.0


def summarize(metrics: List[ComparisonMetrics]) -> dict:
    """Aggregate row ("MEAN" bar of the paper's figures)."""
    return {
        "speedup": geomean(m.speedup for m in metrics),
        "interconnect_savings": mean(m.interconnect_savings for m in metrics),
        "processor_savings": mean(m.processor_savings for m in metrics),
        "ipc_improvement_pct": mean(m.ipc_improvement_pct for m in metrics),
    }
