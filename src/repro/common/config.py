"""Machine, cache, and energy configuration plus the paper's presets.

The default numbers mirror Table 2 of the paper (Intel Xeon Gold 6126-like
system): 32 KB / 256 KB private L1/L2, 2.5 MB-per-core shared L3, 64 B blocks,
6-16-71 cycle hit latencies, 12 cores per socket, 3.3 GHz.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    associativity: int
    block_size: int = 64
    latency: int = 1  # hit latency in cycles

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.associativity * self.block_size)
        if sets <= 0:
            raise ConfigError(f"cache too small: {self}")
        return sets

    def validate(self) -> None:
        if self.size_bytes % (self.associativity * self.block_size):
            raise ConfigError(
                f"size {self.size_bytes} not divisible by "
                f"assoc*block ({self.associativity}*{self.block_size})"
            )
        if self.latency < 1:
            raise ConfigError("cache latency must be >= 1 cycle")


@dataclass(frozen=True)
class EnergyConfig:
    """Per-event dynamic energy (nanojoules) and static power (watts).

    These stand in for McPAT: the absolute values are representative 14 nm
    figures; the paper's energy results only depend on the *ratios* between
    local cache accesses, on-chip hops, cross-socket links, and runtime
    (static energy).
    """

    l1_access_nj: float = 0.10
    l2_access_nj: float = 0.35
    l3_access_nj: float = 1.70
    dram_access_nj: float = 18.0
    #: Energy per control flit per on-die hop; data messages cost
    #: ``data_flits`` times this.
    hop_intra_nj: float = 0.06
    hop_socket_nj: float = 1.20
    hop_remote_nj: float = 6.50
    data_flits: int = 9  # 64 B payload + header at 8 B/flit
    ctrl_flits: int = 1
    core_dynamic_per_instr_nj: float = 0.22
    core_static_w_per_core: float = 0.55
    frequency_ghz: float = 3.3

    def static_nj_per_cycle_per_core(self) -> float:
        # watts / (cycles/second) -> joules/cycle -> nanojoules/cycle
        return self.core_static_w_per_core / (self.frequency_ghz * 1e9) * 1e9


@dataclass(frozen=True)
class MachineConfig:
    """Full simulated machine: topology, latencies, protocol knobs."""

    name: str = "dual-socket"
    num_sockets: int = 2
    cores_per_socket: int = 12
    threads_per_core: int = 1
    block_size: int = 64

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 64, latency=6)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 8, 64, latency=16)
    )
    #: L3 size is per core (Table 2: 2.5 MB/core); a socket's shared slice is
    #: ``l3.size_bytes * cores_per_socket``.
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(2560 * 1024, 20, 64, latency=71)
    )

    #: Additional cycles for a DRAM access beyond the L3 lookup.
    dram_latency: int = 160
    #: One-way latency of an on-die traversal between a core tile and the
    #: LLC/directory (effective: several physical hops plus queueing).
    #: Calibrated so the Fig. 6 ping-pong reproduces Table 1's latencies.
    hop_intra_latency: int = 60
    #: One-way latency of the inter-socket (UPI-like) link (cycles);
    #: calibrated against Table 1's cross-socket scenario.
    socket_link_latency: int = 500
    #: One-way latency to disaggregated remote memory/node. The paper models
    #: 1 us remote access time at 3.3 GHz ~= 3300 cycles.
    remote_link_latency: int = 3300
    #: Whether sockets are disaggregated nodes (remote link instead of UPI).
    disaggregated: bool = False

    store_buffer_entries: int = 56
    #: Maximum simultaneous WARD regions tracked by the region CAM (§6.1).
    max_ward_regions: int = 1024

    energy: EnergyConfig = field(default_factory=EnergyConfig)

    def __post_init__(self) -> None:
        if self.num_sockets < 1 or self.cores_per_socket < 1:
            raise ConfigError("need at least one socket and one core")
        if self.threads_per_core < 1:
            raise ConfigError("threads_per_core must be >= 1")
        for level in (self.l1, self.l2, self.l3):
            level.validate()
            if level.block_size != self.block_size:
                raise ConfigError("all cache levels must share the block size")

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return self.num_sockets * self.cores_per_socket

    @property
    def num_threads(self) -> int:
        return self.num_cores * self.threads_per_core

    def core_of_thread(self, thread: int) -> int:
        """Map a hardware-thread id to its physical core (SMT threads share)."""
        return thread // self.threads_per_core

    def socket_of_core(self, core: int) -> int:
        return core // self.cores_per_socket

    def socket_of_thread(self, thread: int) -> int:
        return self.socket_of_core(self.core_of_thread(thread))

    def home_socket(self, block_addr: int) -> int:
        """Home directory/LLC slice for a block (address-interleaved)."""
        return (block_addr // self.block_size) % self.num_sockets

    def cross_socket_latency(self) -> int:
        return self.remote_link_latency if self.disaggregated else self.socket_link_latency

    def replace(self, **kwargs) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


# ----------------------------------------------------------------------
# Presets matching the paper's evaluated machines
# ----------------------------------------------------------------------

def single_socket(cores: int = 12) -> MachineConfig:
    """The single-socket machine of Fig. 7."""
    return MachineConfig(name="single-socket", num_sockets=1, cores_per_socket=cores)


def dual_socket(cores_per_socket: int = 12) -> MachineConfig:
    """The dual-socket machine of Table 2 / Fig. 8."""
    return MachineConfig(
        name="dual-socket", num_sockets=2, cores_per_socket=cores_per_socket
    )


def many_socket(num_sockets: int = 4, cores_per_socket: int = 12) -> MachineConfig:
    """A future many-socket machine (§7.3 "Many Sockets").

    The paper argues HLPL programs are natural candidates for such machines
    and that WARDen's advantages grow with interconnect cost; this preset
    keeps the per-socket processor of Table 2 and scales the socket count.
    """
    return MachineConfig(
        name=f"many-socket-{num_sockets}",
        num_sockets=num_sockets,
        cores_per_socket=cores_per_socket,
    )


def disaggregated(cores_per_node: int = 12) -> MachineConfig:
    """Two disaggregated nodes with 1 us remote access (Fig. 12, §7.3)."""
    return MachineConfig(
        name="disaggregated",
        num_sockets=2,
        cores_per_socket=cores_per_node,
        disaggregated=True,
    )


def validation_machine(same_core: bool = False) -> MachineConfig:
    """The two-thread machine used for the Table 1 ping-pong validation.

    With ``same_core=True`` both hardware threads share one core's private
    caches (the "Same core" scenario); otherwise they sit on distinct cores.
    """
    if same_core:
        return MachineConfig(
            name="validation-same-core",
            num_sockets=1,
            cores_per_socket=1,
            threads_per_core=2,
        )
    return dual_socket()
