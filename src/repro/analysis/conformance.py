"""Differential conformance: baseline vs candidate vs the value-level oracle.

Turns the paper's central safety claim — WARDen's relaxed ``W`` state can
never change program outcomes for WARD-compliant programs (§3–§5) — into a
machine-checked property over the benchmark suite, generalized to any
(baseline, candidate) pair of registered protocols (default MESI vs
WARDen).  For each benchmark the harness runs three legs:

1. **Differential** — the benchmark under the baseline and under the
   candidate protocol (cacheable through the run-matrix pool/cache machinery,
   so full sweeps are cheap and resumable) with final results compared
   and stats invariants asserted:

   * identical results (both also equal the Python reference, checked
     inside :func:`~repro.analysis.run.run_benchmark`);
   * identical compute-instruction counts modulo region instructions:
     ``cand.compute - base.compute == Δ(region_adds + region_removes)``
     (the only extra instructions a region-aware protocol executes are
     the two per-region bookkeeping instructions, §4.2 — load/store
     counts differ by scheduler steal/spin noise and are deliberately not
     compared);
   * any leg whose protocol has ``supports_ward = False`` reports zero
     WARD activity;
   * ``region_adds >= region_removes`` (regions still marked when the run
     ends — e.g. pages the root allocated after its last fork — are never
     removed) and WARD coverage within [0, 1];
   * when the candidate claims ``avoids_invalidations`` and the baseline
     does not, coherence events (invalidations + downgrades) under the
     candidate do not exceed the baseline beyond a small noise slack: at
     tiny sizes steal timing can shift a handful of events either way,
     while the paper-scale reductions dwarf the slack.

2. **Race detection** — one uncached run with the happens-before
   :class:`~repro.verify.race.RaceDetector` and the hardware-thread
   :class:`~repro.verify.ward_checker.WardChecker` attached; any true race
   or condition-1 violation fails the benchmark.

3. **Value-level oracle** — every region epoch's access log is replayed
   through :class:`~repro.verify.coherence_checker.WardMemoryModel` with
   unique write tokens against a sequentially-consistent reference: no
   in-region load may observe a value different from SC (condition 1 at
   value level, except at detector-identified benign-WAW addresses where
   apathy makes the value intentionally order-dependent), and the merged
   final image must be independent of the reconciliation order everywhere
   outside the benign-WAW set (condition 2).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.config import MachineConfig
from repro.common.errors import RaceError, WardViolationError
from repro.hlpl.policy import MarkingPolicy
from repro.verify.race import RaceDetector, RegionLog
from repro.verify.coherence_checker import WardMemoryModel
from repro.analysis.pool import RunTask
from repro.analysis.run import prefetch, run_benchmark
from repro.coherence.registry import protocol_class

SCHEMA = "warden-repro/verify/v1"

#: reconciliation orders tried per region epoch in the oracle leg
ORACLE_MERGE_ORDERS = 3


def _invdg_slack(baseline_events: int) -> int:
    """Tolerated coherence-event excess of the candidate over the baseline.

    Steal timing differs between the protocols (runs are different
    lengths), so a few events of noise either way is expected at test
    sizes; at paper sizes the WARDen/SI-SD reduction is orders of
    magnitude larger than this slack.
    """
    return max(16, baseline_events // 20)


# ----------------------------------------------------------------------
# Report containers
# ----------------------------------------------------------------------

@dataclass
class ConformanceResult:
    """Verdict for one benchmark."""

    benchmark: str
    size: str
    machine: str
    seed: int
    protocol: str  #: candidate protocol (detector/oracle leg runs under it)
    baseline: str = "mesi"  #: reference protocol of the differential leg
    passed: bool = True
    failures: List[str] = field(default_factory=list)
    races: int = 0
    benign_waws: int = 0
    oracle_regions: int = 0
    detector: Dict = field(default_factory=dict)
    stats: Dict[str, Dict] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.passed = False
        self.failures.append(message)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ConformanceReport:
    """All benchmark verdicts of one ``verify`` invocation."""

    size: str
    machine: str
    seed: int
    results: List[ConformanceResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "size": self.size,
            "machine": self.machine,
            "seed": self.seed,
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
        }


# ----------------------------------------------------------------------
# Value-level oracle replay
# ----------------------------------------------------------------------

def replay_region_oracle(
    log: RegionLog, rng: random.Random, benign_addrs: frozenset
) -> List[str]:
    """Replay one region epoch through :class:`WardMemoryModel`.

    ``benign_addrs`` holds the addresses the detector classified as benign
    WAW in this run; their merged value legitimately depends on the
    reconciliation order (condition-2 apathy says the program tolerates
    every order — certified separately by the MESI/WARDen result
    equality), so they are exempt from the order-independence and
    load-equality checks.
    """
    failures: List[str] = []
    if log.truncated:
        return [
            f"region {log.region_id}: access log truncated at "
            f"{len(log.entries)} entries; oracle replay skipped"
        ]
    writers = sorted({tid for atype, tid, _ in log.entries if atype != "LOAD"})
    orders: List[List[int]] = [list(writers)]
    for _ in range(ORACLE_MERGE_ORDERS - 1):
        order = list(writers)
        rng.shuffle(order)
        orders.append(order)

    images = []
    for order in orders:
        model = WardMemoryModel()
        model.begin_region(log.start, log.end)
        sc: Dict[int, object] = {}
        token = 0
        for atype, tid, addr in log.entries:
            if atype == "LOAD":
                got = model.load(tid, addr)
                want = sc.get(addr, 0)
                if got != want and addr not in benign_addrs:
                    failures.append(
                        f"region {log.region_id}: task {tid} load at "
                        f"{addr:#x} observed {got!r} under WARD semantics "
                        f"but {want!r} under sequential consistency "
                        "(observable incoherence: cross-task RAW)"
                    )
                    return failures
            else:
                token += 1
                value = (tid, token)
                model.store(tid, addr, value)
                sc[addr] = value
        model.end_region(merge_order=order)
        images.append(dict(model.memory))

    base = images[0]
    for image in images[1:]:
        diverged = [
            addr
            for addr in base.keys() | image.keys()
            if addr not in benign_addrs and base.get(addr) != image.get(addr)
        ]
        if diverged:
            failures.append(
                f"region {log.region_id}: merged image depends on the "
                f"reconciliation order at non-benign address(es) "
                f"{', '.join(hex(a) for a in sorted(diverged)[:4])}"
            )
            break
    return failures


# ----------------------------------------------------------------------
# Per-benchmark verification
# ----------------------------------------------------------------------

def stats_digest(stats) -> str:
    """Stable content hash of a :class:`RunStats` snapshot.

    Keys the golden regression corpus (``tests/golden/``): the digest
    covers every counter in ``stats.to_dict()`` in canonical JSON form,
    so any behavioural drift in the simulator shows up as a digest
    mismatch even when headline cycles happen to agree.
    """
    payload = json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _stat_extract(result) -> dict:
    s = result.stats
    return {
        "cycles": s.cycles,
        "instructions": s.instructions,
        "compute_instrs": s.cores.compute_instrs,
        "invalidations": s.coherence.invalidations,
        "downgrades": s.coherence.downgrades,
        "ward_accesses": s.coherence.ward_accesses,
        "ward_region_adds": s.coherence.ward_region_adds,
        "ward_region_removes": s.coherence.ward_region_removes,
        "ward_coverage": s.coherence.ward_coverage,
    }


def verify_benchmark(
    name: str,
    config: MachineConfig,
    size: str = "test",
    seed: int = 42,
    policy: MarkingPolicy = MarkingPolicy.FULL,
    protocol: str = "warden",
    baseline: str = "mesi",
    check_oracle: bool = True,
) -> ConformanceResult:
    """Run all three conformance legs for one benchmark.

    ``protocol`` is the candidate under test; ``baseline`` the reference
    it is diffed against (leg 1).  Both must be registered protocol keys.
    """
    base_cls = protocol_class(baseline)
    cand_cls = protocol_class(protocol)
    out = ConformanceResult(
        benchmark=name,
        size=size,
        machine=config.name,
        seed=seed,
        protocol=protocol,
        baseline=baseline,
    )

    # Leg 1: differential baseline vs candidate (cache-friendly).
    base = run_benchmark(
        name, baseline, config, size=size, seed=seed, policy=policy
    )
    cand = run_benchmark(
        name, protocol, config, size=size, seed=seed, policy=policy
    )
    out.stats = {baseline: _stat_extract(base), protocol: _stat_extract(cand)}
    bs, cs = base.stats, cand.stats

    if base.result != cand.result:
        out.fail(
            f"{base_cls.name} and {cand_cls.name} computed different results"
        )
    region_instrs = {
        key: s.coherence.ward_region_adds + s.coherence.ward_region_removes
        for key, s in ((baseline, bs), (protocol, cs))
    }
    compute_delta = cs.cores.compute_instrs - bs.cores.compute_instrs
    region_delta = region_instrs[protocol] - region_instrs[baseline]
    if protocol != baseline and compute_delta != region_delta:
        out.fail(
            "compute-instruction identity broken: the candidate executed "
            f"{compute_delta} extra compute instructions but issued "
            f"{region_delta} extra region add/remove instructions"
        )
    for key, cls, s in ((baseline, base_cls, bs), (protocol, cand_cls, cs)):
        adds = s.coherence.ward_region_adds
        removes = s.coherence.ward_region_removes
        if cls.supports_ward:
            if adds < removes:
                out.fail(
                    f"{key}: region removes ({removes}) exceed adds ({adds})"
                )
            if not 0.0 <= s.coherence.ward_coverage <= 1.0:
                out.fail(
                    f"{key}: WARD coverage {s.coherence.ward_coverage} "
                    "outside [0, 1]"
                )
        else:
            for field_name in (
                "ward_accesses", "ward_region_adds", "ward_region_removes"
            ):
                if getattr(s.coherence, field_name):
                    out.fail(f"{key} reported nonzero {field_name}")
    base_events = bs.coherence.invalidations + bs.coherence.downgrades
    cand_events = cs.coherence.invalidations + cs.coherence.downgrades
    if cand_cls.avoids_invalidations and not base_cls.avoids_invalidations:
        if cand_events > base_events + _invdg_slack(base_events):
            out.fail(
                f"{cand_cls.name} coherence events ({cand_events}) exceed "
                f"{base_cls.name} ({base_events}) beyond the noise slack"
            )

    # Legs 2+3: happens-before detection + value-level oracle (uncached).
    detector = RaceDetector(
        benchmark=name,
        raise_on_race=False,
        record_regions=check_oracle,
    )
    try:
        run_benchmark(
            name,
            protocol,
            config,
            size=size,
            seed=seed,
            policy=policy,
            check_ward=cand_cls.supports_ward,
            race_detector=detector,
        )
    except (RaceError, WardViolationError) as exc:
        out.fail(str(exc))
    out.detector = detector.summary()
    out.races = len(detector.races)
    out.benign_waws = len(detector.benign_waws)
    for finding in detector.races[:8]:
        out.fail(finding.describe())
    if len(detector.races) > 8:
        out.fail(f"... and {len(detector.races) - 8} more races")

    if check_oracle:
        benign_addrs = frozenset(f.addr for f in detector.benign_waws)
        rng = random.Random(seed)
        for log in detector.region_logs:
            if not log.entries:
                continue
            out.oracle_regions += 1
            for message in replay_region_oracle(log, rng, benign_addrs):
                out.fail(f"oracle: {message}")
    return out


def run_verify(
    names: Sequence[str],
    config: MachineConfig,
    size: str = "test",
    seed: int = 42,
    policy: MarkingPolicy = MarkingPolicy.FULL,
    protocol: str = "warden",
    baseline: str = "mesi",
    jobs: int = 1,
    check_oracle: bool = True,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    report=None,
) -> ConformanceReport:
    """Verify every benchmark in ``names``; returns a full report.

    The differential legs run first as one matrix through
    :func:`~repro.analysis.run.prefetch` (over ``jobs`` processes, with
    the robustness layer); the per-benchmark verification then reads them
    back from the cache.  The detector/oracle leg always runs in-process
    (it needs live hooks, which do not serialize).
    """
    prefetch(
        [
            RunTask(
                benchmark=name,
                protocol=proto,
                config=config,
                size=size,
                seed=seed,
                policy=policy,
            )
            for name in names
            for proto in sorted({baseline, protocol})
        ],
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        report=report,
    )
    out = ConformanceReport(size=size, machine=config.name, seed=seed)
    for name in names:
        out.results.append(
            verify_benchmark(
                name,
                config,
                size=size,
                seed=seed,
                policy=policy,
                protocol=protocol,
                baseline=baseline,
                check_oracle=check_oracle,
            )
        )
    return out
