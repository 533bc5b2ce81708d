"""Simulated arrays: the bridge between benchmark code and the machine.

A :class:`SimArray` owns a span of simulated addresses inside a heap and a
Python backing list for functional values.  Its accessors are generators:
they yield one timing operation (charged by the engine on the issuing
hardware thread) and perform the value effect in Python, so benchmarks stay
data-dependent while the cache model sees a faithful address stream.

:func:`read_run` and :func:`write_run` are the dense loops over a run of
elements: one generator yields every element's scalar op in turn, the
stream of the per-element ``get``/``set`` loop without a generator per
element.
"""

from __future__ import annotations

from typing import Any, List

from repro.sim.ops import ComputeOp, LoadOp, RmwOp, StoreOp


class SimArray:
    """A fixed-length array of ``elem_size``-byte elements in a heap.

    Each accessor reuses a single per-array op instance instead of
    allocating one per call: the engine consumes a yielded op synchronously
    (its fields are read before any other strand — or a later access on
    this array — can run), so mutating the shared instance in place is
    safe and removes the dominant allocation on the simulator hot path.
    """

    __slots__ = (
        "base", "length", "elem_size", "heap", "data", "name",
        "_load_op", "_store_op", "_rmw_op",
    )

    def __init__(
        self,
        base: int,
        length: int,
        elem_size: int = 8,
        heap=None,
        fill: Any = None,
        name: str = "",
    ) -> None:
        if length < 0:
            raise ValueError("array length must be >= 0")
        if elem_size not in (1, 2, 4, 8):
            raise ValueError("elem_size must be a power of two <= 8")
        self.base = base
        self.length = length
        self.elem_size = elem_size
        self.heap = heap
        self.data: List[Any] = [fill] * length
        self.name = name
        self._load_op = LoadOp(base, elem_size, heap=heap)
        self._store_op = StoreOp(base, elem_size, heap=heap)
        self._rmw_op = RmwOp(base, elem_size, heap=heap)

    # ------------------------------------------------------------------
    def addr(self, index: int) -> int:
        return self.base + index * self.elem_size

    @property
    def end(self) -> int:
        return self.base + self.length * self.elem_size

    def _check(self, index: int) -> None:
        if not 0 <= index < self.length:
            raise IndexError(
                f"index {index} out of range for {self.name or 'array'}"
                f"[{self.length}]"
            )

    def __len__(self) -> int:
        return self.length

    # ------------------------------------------------------------------
    # Simulated accessors (generators; use via ``yield from``)
    # ------------------------------------------------------------------
    def get(self, index: int, spin: bool = False):
        """Load element ``index``."""
        self._check(index)
        op = self._load_op
        op.addr = self.base + index * self.elem_size
        op.spin = spin
        yield op
        return self.data[index]

    def set(self, index: int, value: Any):
        """Store ``value`` into element ``index``."""
        self._check(index)
        op = self._store_op
        op.addr = self.base + index * self.elem_size
        yield op
        self.data[index] = value

    def cas(self, index: int, expected: Any, new: Any):
        """Atomic compare-and-swap; returns True on success."""
        self._check(index)
        op = self._rmw_op
        op.addr = self.base + index * self.elem_size
        yield op
        if self.data[index] == expected:
            self.data[index] = new
            return True
        return False

    def fetch_add(self, index: int, delta: Any):
        """Atomic fetch-and-add; returns the previous value."""
        self._check(index)
        op = self._rmw_op
        op.addr = self.base + index * self.elem_size
        yield op
        old = self.data[index]
        self.data[index] = old + delta
        return old

    # ------------------------------------------------------------------
    # Python-only access (tests, reference checks; no simulated traffic)
    # ------------------------------------------------------------------
    def peek(self, index: int) -> Any:
        self._check(index)
        return self.data[index]

    def poke(self, index: int, value: Any) -> None:
        self._check(index)
        self.data[index] = value

    def to_list(self) -> List[Any]:
        return list(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "SimArray"
        return f"{label}(base={self.base:#x}, len={self.length})"


def _check_run(arr: SimArray, lo: int, hi: int) -> None:
    if not 0 <= lo <= hi <= arr.length:
        raise IndexError(
            f"run [{lo}, {hi}) out of range for {arr.name or 'array'}"
            f"[{arr.length}]"
        )


def read_run(arr: SimArray, lo: int, hi: int, instrs: int = 0):
    """Load ``arr[lo:hi)`` one element at a time; return the values.

    Each load is followed by ``ComputeOp(instrs)`` when ``instrs`` is set —
    the stream of ``for i: arr.get(i); yield ComputeOp(instrs)``.  The
    values are read after the last load.  Generator — use via
    ``yield from``.
    """
    _check_run(arr, lo, hi)
    size = arr.elem_size
    op = LoadOp(0, size, heap=arr.heap)
    compute = ComputeOp(instrs) if instrs else None
    for addr in range(arr.addr(lo), arr.addr(hi), size):
        op.addr = addr
        yield op
        if compute is not None:
            yield compute
    return arr.data[lo:hi]


def write_run(arr: SimArray, lo: int, values, instrs: int = 0):
    """Store ``values`` into ``arr[lo:lo+len(values))``, one element at a time.

    Each store is *preceded* by ``ComputeOp(instrs)`` when ``instrs`` is set
    — the tabulate write pattern ``yield ComputeOp(instrs); arr.set(i, v)``.
    The values land in ``arr.data`` after the last store.  Generator — use
    via ``yield from``.
    """
    values = list(values)
    hi = lo + len(values)
    _check_run(arr, lo, hi)
    size = arr.elem_size
    op = StoreOp(0, size, heap=arr.heap)
    compute = ComputeOp(instrs) if instrs else None
    for addr in range(arr.addr(lo), arr.addr(hi), size):
        if compute is not None:
            yield compute
        op.addr = addr
        yield op
    arr.data[lo:hi] = values
