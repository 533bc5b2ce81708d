"""Benchmark framework: the contract every PBBS-style kernel implements."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict


@dataclass(frozen=True)
class Benchmark:
    """One benchmark: deterministic input builder, HLPL kernel, reference.

    * ``build(rng, scale)`` returns a plain-Python workload object.
    * ``root_task(ctx, workload)`` is the fork-join kernel (generator).
    * ``reference(workload)`` computes the expected result in plain Python.
    * ``scales`` maps a named size ("test", "small", "default") to the
      integer scale passed to ``build`` — "test" keeps unit tests fast,
      "default" is what the figure harnesses run.
    """

    name: str
    build: Callable[[random.Random, int], Any]
    root_task: Callable
    reference: Callable[[Any], Any]
    scales: Dict[str, int] = field(default_factory=dict)
    description: str = ""

    def scale(self, size: str = "default") -> int:
        try:
            return self.scales[size]
        except KeyError:
            raise KeyError(
                f"benchmark {self.name} has no size {size!r}; "
                f"choose from {sorted(self.scales)}"
            ) from None

    def workload(self, size: str = "default", seed: int = 42) -> Any:
        return self.build(random.Random(seed), self.scale(size))


def input_array(ctx, values, elem_size: int = 8, name: str = "input"):
    """Materialise pre-loaded input data in the current task's heap.

    The values arrive without simulated stores, and the blocks are installed
    in the home LLC slices: the input loader has just written them, so the
    measured kernel starts LLC-warm (PBBS measures the algorithm, not input
    I/O).  Generator — use via ``yield from``.
    """
    arr = yield from ctx.alloc_array(len(values), elem_size, name=name)
    arr.data[:] = list(values)
    machine = ctx.rt.machine
    bs = machine.config.block_size
    thread = ctx.rt.current_thread
    from repro.common.types import block_range

    for block in block_range(arr.base, max(len(values), 1) * elem_size, bs):
        machine.llc_warm_fill(block, thread)
    return arr
