"""Statistics containers filled in by the simulator.

The counters here are exactly the quantities the paper reports: execution
time, instructions (for IPC, Fig. 11), invalidations and downgrades (Fig. 9
and 10), message traffic by link class (energy model), and WARD bookkeeping
(region adds/removes, reconciled blocks, WARD coverage of accesses).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.common.types import MessageType

#: MessageType lookup by wire name, for manifest round-trips
_MESSAGE_TYPES_BY_VALUE = {m.value: m for m in MessageType}

#: the plain-integer counters of CoherenceStats (everything but messages)
_COHERENCE_COUNTERS = (
    "invalidations",
    "downgrades",
    "dram_accesses",
    "l3_accesses",
    "l1_accesses",
    "l2_accesses",
    "ward_accesses",
    "total_accesses",
    "ward_region_adds",
    "ward_region_removes",
    "reconciled_blocks",
    "reconciled_shared_blocks",
    "reconciled_true_sharing_blocks",
    "writebacks",
)


class CoherenceStats:
    """Event counters for one protocol instance (whole machine)."""

    def __init__(self) -> None:
        #: message counts keyed by (MessageType, link_class) where link_class
        #: is "local" (same tile), "intra" (on-die), "socket" (cross socket /
        #: cross node), or "memory" (DRAM access).
        self.messages: Counter = Counter()
        #: invalidation messages delivered to private caches
        self.invalidations = 0
        #: downgrade (Fwd-GetS forcing M/E -> S) messages delivered
        self.downgrades = 0
        self.dram_accesses = 0
        self.l3_accesses = 0
        #: tag-array lookups, filled in by Machine.finalize from the caches
        self.l1_accesses = 0
        self.l2_accesses = 0
        #: accesses served while the block was in the WARD state
        self.ward_accesses = 0
        #: accesses checked against the region table (for coverage ratio)
        self.total_accesses = 0
        self.ward_region_adds = 0
        self.ward_region_removes = 0
        self.reconciled_blocks = 0
        #: blocks reconciled that had more than one sharer
        self.reconciled_shared_blocks = 0
        #: blocks reconciled where >1 core wrote the same sector (true sharing)
        self.reconciled_true_sharing_blocks = 0
        self.writebacks = 0
        #: protocol-specific counters (e.g. MOESI dirty shares, SI/SD
        #: self-invalidations).  Serialized only when nonempty so the
        #: digests of protocols that never touch it (MESI, WARDen) are
        #: byte-for-byte what they were before the counter existed; kept
        #: out of ``messages`` so the energy model never prices them.
        self.extra: Counter = Counter()

    def count_message(
        self, mtype: MessageType, link: str, count: int = 1
    ) -> None:
        self.messages[(mtype, link)] += count

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    def messages_by_link(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (_, link), n in self.messages.items():
            out[link] = out.get(link, 0) + n
        return out

    def data_message_count(self) -> int:
        return sum(
            n for (mtype, _), n in self.messages.items() if mtype.carries_data
        )

    @property
    def ward_coverage(self) -> float:
        """Fraction of memory accesses that hit WARD-state blocks."""
        if not self.total_accesses:
            return 0.0
        return self.ward_accesses / self.total_accesses

    def merge(self, other: "CoherenceStats") -> None:
        self.messages.update(other.messages)
        self.extra.update(other.extra)
        for attr in _COHERENCE_COUNTERS:
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))

    # ------------------------------------------------------------------
    # Serialization (JSONL manifests, §"obs" exporters)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict; messages keyed ``"<MessageType>|<link>"``."""
        out = {attr: getattr(self, attr) for attr in _COHERENCE_COUNTERS}
        out["messages"] = {
            f"{mtype.value}|{link}": count
            for (mtype, link), count in sorted(
                self.messages.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
            )
        }
        if self.extra:
            out["extra"] = {k: self.extra[k] for k in sorted(self.extra)}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CoherenceStats":
        stats = cls()
        for attr in _COHERENCE_COUNTERS:
            setattr(stats, attr, data.get(attr, 0))
        for key, count in data.get("messages", {}).items():
            mtype_name, _, link = key.partition("|")
            stats.messages[(_MESSAGE_TYPES_BY_VALUE[mtype_name], link)] = count
        stats.extra.update(data.get("extra", {}))
        return stats


@dataclass
class CoreStats:
    """Per-hardware-thread execution counters."""

    loads: int = 0
    stores: int = 0
    rmws: int = 0
    compute_instrs: int = 0
    #: loads issued while spinning on a synchronization variable
    spin_loads: int = 0
    load_stall_cycles: int = 0
    store_buffer_stall_cycles: int = 0
    steal_attempts: int = 0
    successful_steals: int = 0

    @property
    def instructions(self) -> int:
        return self.loads + self.stores + self.rmws + self.compute_instrs

    def merge(self, other: "CoreStats") -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CoreStats":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})


@dataclass
class EnergyStats:
    """Energy totals (nanojoules) produced by :mod:`repro.energy.model`."""

    cache_nj: float = 0.0
    dram_nj: float = 0.0
    network_nj: float = 0.0
    core_dynamic_nj: float = 0.0
    core_static_nj: float = 0.0

    @property
    def interconnect_nj(self) -> float:
        return self.network_nj

    @property
    def processor_nj(self) -> float:
        """Total processor energy (everything incl. network), as in Fig 7/8."""
        return (
            self.cache_nj
            + self.dram_nj
            + self.network_nj
            + self.core_dynamic_nj
            + self.core_static_nj
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyStats":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})


@dataclass
class RunStats:
    """Everything measured for one benchmark execution on one protocol."""

    benchmark: str = ""
    protocol: str = ""
    machine: str = ""
    cycles: int = 0
    coherence: CoherenceStats = field(default_factory=CoherenceStats)
    cores: CoreStats = field(default_factory=CoreStats)
    energy: EnergyStats = field(default_factory=EnergyStats)
    num_threads: int = 1

    @property
    def instructions(self) -> int:
        return self.cores.instructions

    @property
    def ipc(self) -> float:
        """Aggregate machine IPC: instructions per (makespan) cycle per thread."""
        if not self.cycles or not self.num_threads:
            return 0.0
        return self.instructions / (self.cycles * self.num_threads)

    @property
    def inv_plus_downgrades(self) -> int:
        return self.coherence.invalidations + self.coherence.downgrades

    def inv_dg_per_kilo_instr(self) -> float:
        if not self.instructions:
            return 0.0
        return self.inv_plus_downgrades / (self.instructions / 1000.0)

    # ------------------------------------------------------------------
    # Serialization (JSONL manifests): round-trips through from_dict.
    # The ``derived`` block repeats computed metrics for consumers that
    # read manifests without this package; from_dict ignores it.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "protocol": self.protocol,
            "machine": self.machine,
            "cycles": self.cycles,
            "num_threads": self.num_threads,
            "coherence": self.coherence.to_dict(),
            "cores": self.cores.to_dict(),
            "energy": self.energy.to_dict(),
            "derived": {
                "instructions": self.instructions,
                "ipc": self.ipc,
                "inv_plus_downgrades": self.inv_plus_downgrades,
                "inv_dg_per_kilo_instr": self.inv_dg_per_kilo_instr(),
                "ward_coverage": self.coherence.ward_coverage,
                "total_messages": self.coherence.total_messages,
                "messages_by_link": self.coherence.messages_by_link(),
                "processor_nj": self.energy.processor_nj,
                "interconnect_nj": self.energy.interconnect_nj,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunStats":
        return cls(
            benchmark=data.get("benchmark", ""),
            protocol=data.get("protocol", ""),
            machine=data.get("machine", ""),
            cycles=data.get("cycles", 0),
            num_threads=data.get("num_threads", 1),
            coherence=CoherenceStats.from_dict(data.get("coherence", {})),
            cores=CoreStats.from_dict(data.get("cores", {})),
            energy=EnergyStats.from_dict(data.get("energy", {})),
        )
