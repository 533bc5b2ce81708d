"""Operations yielded by simulated strands (tasks/kernels).

Benchmark code is written as Python generators.  Each ``yield`` hands one of
these operations to the engine, which charges latency on the issuing
hardware thread and performs the coherence transaction.  Functional effects
(actual values) happen inside the generators themselves — the ops carry only
what the timing model needs.

There is one op per simulated instruction stream element: a dense loop over
an array yields one scalar load or store (and its compute charge) per
element, and the engine retires each yielded op as one step.  A producer may
reuse one op instance across its yields, since the engine consumes each op
before the producer resumes.
"""

from __future__ import annotations

from typing import Callable, Sequence


class LoadOp:
    """A data load of ``size`` bytes at ``addr`` (must not cross a block)."""

    __slots__ = ("addr", "size", "heap", "spin")

    def __init__(self, addr: int, size: int = 8, heap=None, spin: bool = False):
        self.addr = addr
        self.size = size
        self.heap = heap
        self.spin = spin


class StoreOp:
    """A data store of ``size`` bytes at ``addr``."""

    __slots__ = ("addr", "size", "heap")

    def __init__(self, addr: int, size: int = 8, heap=None):
        self.addr = addr
        self.size = size
        self.heap = heap


class RmwOp:
    """An atomic read-modify-write (CAS/fetch-add); blocking, never WARD."""

    __slots__ = ("addr", "size", "heap")

    def __init__(self, addr: int, size: int = 8, heap=None):
        self.addr = addr
        self.size = size
        self.heap = heap


class ComputeOp:
    """``instrs`` cycles of purely local computation (1 instr/cycle)."""

    __slots__ = ("instrs",)

    def __init__(self, instrs: int):
        self.instrs = instrs


class ForkOp:
    """A fork point: suspend the current task, spawn one child per thunk.

    ``thunks`` are callables ``(ctx) -> generator`` — each receives a fresh
    :class:`~repro.hlpl.api.TaskContext` for the spawned child.  The engine
    delegates handling to the runtime's fork handler; the suspended parent is
    resumed with the list of child results once all children join.
    """

    __slots__ = ("ctx", "thunks")

    def __init__(self, ctx, thunks: Sequence[Callable]):
        self.ctx = ctx
        self.thunks = list(thunks)
