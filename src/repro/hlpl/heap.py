"""The heap hierarchy (paper §2.1/§4.2, Fig. 2).

Each task owns a heap: a list of pages filled by bump allocation.  When a
task completes, its heap is merged into its parent's (union-find keeps array
ownership resolution O(α)).  Pages allocated by leaf tasks are marked as WARD
regions (when the machine supports it and the policy allows); the runtime
unmarks them at forks and at joins.
"""

from __future__ import annotations

import weakref
from typing import List, Optional

PAGE_SIZE = 4096

#: instruction cost charged for a bump allocation / for mapping a new page
ALLOC_INSTRS = 3
PAGE_ALLOC_INSTRS = 24


class Page:
    """A contiguous span of simulated memory belonging to one heap.

    Large-object allocations create pages bigger than :data:`PAGE_SIZE`
    (mirroring MPL's large-object handling) so arrays stay contiguous.
    """

    __slots__ = ("base", "size", "region", "det_region")

    def __init__(self, base: int, size: int = PAGE_SIZE) -> None:
        self.base = base
        self.size = size
        #: the active WardRegion handle covering this page, or None
        self.region = None
        #: the race detector's logical region over this page, or None
        #: (tracked independently of ``region`` so detection semantics do
        #: not depend on the protocol or the hardware CAM's capacity)
        self.det_region = None

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Page({self.base:#x}+{self.size}, ward={self.region is not None})"


class Heap:
    """One heap of the hierarchy, owned by a task until merged upward.

    The owner is held weakly: its task holds the heap, so a strong
    back-reference would leave every finished run's spawn tree (tasks,
    heaps, pages) as cyclic garbage.  An unmerged heap's task is always
    alive — running, suspended at a fork, or waiting in its join record.
    """

    __slots__ = ("_owner", "pages", "_bump_page", "_bump_off", "merged_into")

    def __init__(self, owner_task) -> None:
        self._owner = weakref.ref(owner_task)
        self.pages: List[Page] = []
        self._bump_page: Optional[Page] = None
        self._bump_off = 0
        self.merged_into: Optional["Heap"] = None

    # ------------------------------------------------------------------
    def find(self) -> "Heap":
        """Union-find root: the heap this one has been merged into (if any)."""
        heap = self
        while heap.merged_into is not None:
            heap = heap.merged_into
        # path compression
        node = self
        while node.merged_into is not None and node.merged_into is not heap:
            nxt = node.merged_into
            node.merged_into = heap
            node = nxt
        return heap

    @property
    def live_owner(self):
        return self.find()._owner()

    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, sbrk, align: int = 8):
        """Bump-allocate ``nbytes``; returns ``(addr, new_page, instr_cost)``.

        ``sbrk`` is the machine's raw allocator.  ``new_page`` is the freshly
        mapped :class:`Page` when one was needed (the runtime marks it WARD),
        else None.  Objects larger than a page get a dedicated large page.
        """
        if self.merged_into is not None:
            raise RuntimeError("allocating into a merged heap")
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if nbytes > PAGE_SIZE:
            size = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
            page = Page(sbrk(size, PAGE_SIZE), size)
            self.pages.append(page)
            return page.base, page, ALLOC_INSTRS + PAGE_ALLOC_INSTRS

        off = (self._bump_off + align - 1) // align * align
        if self._bump_page is not None and off + nbytes <= self._bump_page.size:
            addr = self._bump_page.base + off
            self._bump_off = off + nbytes
            return addr, None, ALLOC_INSTRS

        page = Page(sbrk(PAGE_SIZE, PAGE_SIZE), PAGE_SIZE)
        self.pages.append(page)
        self._bump_page = page
        self._bump_off = nbytes
        return page.base, page, ALLOC_INSTRS + PAGE_ALLOC_INSTRS

    # ------------------------------------------------------------------
    def merge_into(self, parent: "Heap") -> None:
        """Join-time merge (Fig. 2): give all pages to the parent heap."""
        parent = parent.find()
        if parent is self:
            raise RuntimeError("cannot merge a heap into itself")
        parent.pages.extend(self.pages)
        self.pages = []
        self._bump_page = None  # remaining slack is abandoned, like MPL
        self._bump_off = 0
        self.merged_into = parent

    def marked_pages(self) -> List[Page]:
        return [p for p in self.pages if p.region is not None]
