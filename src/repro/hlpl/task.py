"""Spawn-tree nodes (lightweight fork-join tasks)."""

from __future__ import annotations

import itertools
from typing import List, Optional

_task_ids = itertools.count()


class JoinRecord:
    """Bookkeeping for one fork: suspended parent + outstanding children."""

    __slots__ = (
        "parent_strand",
        "remaining",
        "results",
        "counter_addr",
        "children",
    )

    def __init__(self, parent_strand, count: int, counter_addr: int) -> None:
        self.parent_strand = parent_strand
        self.remaining = count
        self.results: List = [None] * count
        self.counter_addr = counter_addr
        self.children: List["TaskNode"] = []


class TaskNode:
    """One node of the dynamic spawn tree (paper §2.1).

    A node is a *leaf* while it runs; it becomes internal (suspended) at a
    fork and a leaf again when its children join.
    """

    __slots__ = (
        "task_id", "parent", "depth", "heap", "join", "completed", "__weakref__"
    )

    def __init__(self, parent: Optional["TaskNode"]) -> None:
        self.task_id = next(_task_ids)
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.heap = None  # assigned by the runtime
        self.join: Optional[JoinRecord] = None
        self.completed = False

    def is_ancestor_or_self(self, other: "TaskNode") -> bool:
        """True if ``self`` is ``other`` or an ancestor of ``other``."""
        node = other
        while node is not None and node.depth >= self.depth:
            if node is self:
                return True
            node = node.parent
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskNode(id={self.task_id}, depth={self.depth})"
