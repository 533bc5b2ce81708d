"""WARDen reproduction: specializing cache coherence for high-level parallel
languages (Wilkins et al., CGO 2023).

The package implements the paper's full stack from scratch:

* :mod:`repro.coherence` — directory-based MESI and the WARDen protocol
  (the W state, WARD-region CAM, sectored reconciliation);
* :mod:`repro.sim` — a conservative min-clock multicore simulator (cores,
  private L1/L2, shared per-socket LLC, NUMA interconnect);
* :mod:`repro.hlpl` — an MPL-like fork-join runtime (spawn tree, heap
  hierarchy, work stealing, WARD marking by construction);
* :mod:`repro.bench` — the PBBS-style benchmark suite of the evaluation;
* :mod:`repro.energy` — McPAT/CACTI-style energy and area models;
* :mod:`repro.analysis` — harnesses regenerating every table and figure;
* :mod:`repro.verify` — dynamic WARD/disentanglement checkers.

Quickstart::

    from repro import Machine, Runtime, dual_socket

    def program(ctx, n):
        arr = yield from ctx.tabulate(n, lambda c, i: c.value(i * i))
        total = yield from ctx.reduce(0, n, lambda c, i: arr.get(i),
                                      lambda a, b: a + b)
        return total

    machine = Machine(dual_socket(), "warden")
    result, stats = Runtime(machine).run(program, 1024)
"""

from repro.analysis.metrics import ComparisonMetrics, compare, compare_multi
from repro.analysis.run import BenchResult, run_benchmark, run_pairs
from repro.bench import BENCHMARKS, PAPER_ORDER
from repro.coherence.mesi import MESIProtocol
from repro.coherence.warden import WARDenProtocol
from repro.common.config import (
    CacheConfig,
    EnergyConfig,
    MachineConfig,
    disaggregated,
    dual_socket,
    single_socket,
    validation_machine,
)
from repro.common.stats import RunStats
from repro.energy.model import EnergyModel
from repro.hlpl.api import TaskContext
from repro.hlpl.policy import MarkingPolicy
from repro.hlpl.runtime import Runtime
from repro.sim.machine import Machine
from repro.verify.ward_checker import WardChecker

__version__ = "1.0.0"

__all__ = [
    "BENCHMARKS",
    "BenchResult",
    "CacheConfig",
    "ComparisonMetrics",
    "EnergyConfig",
    "EnergyModel",
    "MESIProtocol",
    "Machine",
    "MachineConfig",
    "MarkingPolicy",
    "PAPER_ORDER",
    "RunStats",
    "Runtime",
    "TaskContext",
    "WARDenProtocol",
    "WardChecker",
    "compare",
    "compare_multi",
    "disaggregated",
    "dual_socket",
    "run_benchmark",
    "run_pairs",
    "single_socket",
    "validation_machine",
]
