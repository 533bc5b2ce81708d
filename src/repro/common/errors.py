"""Exception hierarchy for the reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproError):
    """An invalid machine or protocol configuration was supplied."""


class UnknownProtocolError(ConfigError, KeyError):
    """A protocol key not present in the coherence registry.

    Subclasses ``KeyError`` so pre-existing ``except KeyError`` guards
    around registry lookups keep working, and ``ConfigError`` so the CLI
    treats it as an operational error (exit 2).  The message always
    lists the registered keys.
    """

    def __init__(self, key, known) -> None:
        message = f"unknown protocol {key!r}; choose from {sorted(known)}"
        super().__init__(message)
        self.key = key
        self.known = sorted(known)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class ProtocolError(ReproError):
    """A coherence protocol invariant was violated (a simulator bug)."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class DisentanglementError(ReproError):
    """A task used data outside its root-to-leaf heap path (paper Def. 1)."""


class PoolError(ReproError):
    """The run matrix could not complete a task.

    Raised by :func:`repro.analysis.pool.run_matrix` when a task keeps
    failing after its retry budget, in a pool worker or in-process.
    """


class TaskTimeoutError(PoolError):
    """A run-matrix task exceeded its per-task timeout on every attempt."""

    def __init__(self, task_index: int = -1, timeout: float = 0.0) -> None:
        super().__init__(
            f"matrix task {task_index} exceeded its {timeout:g}s timeout"
        )
        self.task_index = task_index
        self.timeout = timeout

    def __reduce__(self):
        return (type(self), (self.task_index, self.timeout))


class FaultInjected(ReproError):
    """An error raised deliberately by :mod:`repro.analysis.faults`.

    Crosses process boundaries (pool worker -> parent future), so it
    pickles by (site, key) rather than by its formatted message.
    """

    def __init__(self, site: str = "?", key: int = -1) -> None:
        super().__init__(f"injected fault {site!r} (key {key})")
        self.site = site
        self.key = key

    def __reduce__(self):
        return (type(self), (self.site, self.key))


class RaceError(ReproError):
    """A true data race found by the happens-before detector.

    Raised by :mod:`repro.verify.race` when two accesses to the same
    address are unordered by the fork/join happens-before relation and do
    not form a benign (WARD condition 2) write-write pair inside a shared
    region epoch.  The message names the benchmark, both tasks (spawn-tree
    paths), the access kinds/op indices, and any WARD region involved.
    """

    def __init__(self, message: str, finding=None) -> None:
        super().__init__(message)
        #: the structured :class:`repro.verify.race.RaceFinding`, when known
        self.finding = finding


class WardViolationError(ReproError):
    """An access pattern violated the WARD property inside an active region.

    Raised by :mod:`repro.verify.ward_checker` when a cross-hardware-thread
    read-after-write is observed at an address covered by an active WARD
    region (condition 1 of the WARD definition, paper §3.1).
    """

    def __init__(
        self,
        addr: int,
        writer: int,
        reader: int,
        violation=None,
    ) -> None:
        regions = ""
        if violation is not None and violation.shared_regions:
            ids = ", ".join(str(r) for r in violation.shared_regions)
            regions = f" (region id {ids})"
        super().__init__(
            f"WARD violation: hardware thread {reader} read address {addr:#x} "
            f"written by hardware thread {writer} inside an active WARD "
            f"region{regions}"
        )
        self.addr = addr
        self.writer = writer
        self.reader = reader
        #: the structured :class:`repro.verify.ward_checker.WardViolation`
        self.violation = violation
