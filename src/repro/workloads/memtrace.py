"""Logical memory-access traces: the common front-end representation.

A :class:`MemTrace` is a flat, ordered list of ``(thread, kind, addr,
size)`` rows — the protocol-agnostic description of a workload's memory
behaviour.  Both workload front ends produce one: the text-trace loader
(:func:`parse_trace_text` / :func:`load_trace_file`) and the synthetic
generators (:mod:`repro.workloads.synth`).  The adapter in
:mod:`repro.workloads.adapter` then runs any ``MemTrace`` through the
full simulator stack as a standard benchmark.

Text format (the ``thread op address [size]`` family used by
directory-protocol coursework and trace tools)::

    # comments run to end of line ('#' or '//'); blank lines are skipped
    0 R 0x10040        # thread 0 loads 8 bytes at 0x10040
    p1 W 65600 4       # thread 1 ('p'/'t'/'c' prefixes accepted) stores 4B
    2 RMW 0x100a0      # thread 2 atomic read-modify-write

* **thread** — non-negative decimal, optionally prefixed ``p``/``t``/``c``
  (processor/thread/core spellings); at most :data:`MAX_TRACE_THREADS`
  distinct ids.
* **op** — case-insensitive: ``R``/``L``/``LD``/``RD``/``READ``/``LOAD``
  for loads, ``W``/``S``/``ST``/``WR``/``WRITE``/``STORE`` for stores,
  ``A``/``RMW``/``ATOMIC`` for atomics.
* **address** — ``0x``-prefixed hex or plain decimal.  Mixed radix
  (decimal with hex digits, malformed hex) is rejected, never guessed.
* **size** — optional byte count in ``[1, MAX_ACCESS_SIZE]``; default 8.

Every rejection carries a ``file:line: reason`` diagnostic via
:class:`TraceFormatError` so CLI consumers can exit 2 with a pointer at
the offending line instead of a traceback.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ReproError

#: op-kind codes (match repro.replay.trace AT_* by design)
K_LOAD = 0
K_STORE = 1
K_RMW = 2

_KIND_NAMES = ("R", "W", "A")

#: accepted op mnemonics -> kind code
_OP_CODES = {
    "R": K_LOAD, "L": K_LOAD, "LD": K_LOAD, "RD": K_LOAD,
    "READ": K_LOAD, "LOAD": K_LOAD,
    "W": K_STORE, "S": K_STORE, "ST": K_STORE, "WR": K_STORE,
    "WRITE": K_STORE, "STORE": K_STORE,
    "A": K_RMW, "RMW": K_RMW, "ATOMIC": K_RMW,
}

#: hard caps keeping hostile/buggy inputs from exploding the simulator
MAX_TRACE_THREADS = 256
MAX_ACCESS_SIZE = 512

_MASK64 = (1 << 64) - 1


class TraceFormatError(ReproError):
    """A workload trace file (or text blob) failed to parse.

    ``str(exc)`` always reads ``<file>:<line>: <reason>`` so the CLI can
    surface the offending line directly (exit 2, never a traceback).
    """

    def __init__(self, source: str, lineno: int, reason: str) -> None:
        super().__init__(f"{source}:{lineno}: {reason}")
        self.source = source
        self.lineno = lineno
        self.reason = reason


class MemTrace:
    """One logical workload: ordered ``(thread, kind, addr, size)`` rows.

    Equality compares the op rows only — the ``name`` is a provenance
    label (source filename or generator id), not part of the workload.
    """

    __slots__ = ("ops", "name", "_by_thread")

    def __init__(
        self,
        ops: Optional[List[Tuple[int, int, int, int]]] = None,
        name: str = "trace",
    ) -> None:
        self.ops: List[Tuple[int, int, int, int]] = ops if ops is not None else []
        self.name = name
        self._by_thread: Optional[Dict[int, List[Tuple[int, int, int]]]] = None

    # ------------------------------------------------------------------
    def append(self, thread: int, kind: int, addr: int, size: int = 8) -> None:
        self.ops.append((thread, kind, addr, size))
        self._by_thread = None

    def __len__(self) -> int:
        return len(self.ops)

    def __eq__(self, other) -> bool:
        return isinstance(other, MemTrace) and self.ops == other.ops

    def __hash__(self):  # pragma: no cover - unhashable like a list
        raise TypeError("MemTrace is not hashable")

    # ------------------------------------------------------------------
    def threads(self) -> List[int]:
        """Distinct thread ids, ascending."""
        return sorted(self.by_thread())

    def by_thread(self) -> Dict[int, List[Tuple[int, int, int]]]:
        """``thread -> [(kind, addr, size), ...]`` preserving program order."""
        if self._by_thread is None:
            grouped: Dict[int, List[Tuple[int, int, int]]] = {}
            for thread, kind, addr, size in self.ops:
                grouped.setdefault(thread, []).append((kind, addr, size))
            self._by_thread = grouped
        return self._by_thread

    def counts(self) -> Tuple[int, int, int]:
        """``(loads, stores, rmws)`` over the whole trace."""
        loads = stores = rmws = 0
        for _, kind, _, _ in self.ops:
            if kind == K_LOAD:
                loads += 1
            elif kind == K_STORE:
                stores += 1
            else:
                rmws += 1
        return loads, stores, rmws

    def footprint(self, block_size: int = 64) -> Tuple[int, int]:
        """``(distinct blocks, shared blocks)`` at the given block size.

        A block is *shared* when more than one thread touches it — the
        headline number for how much coherence traffic to expect.
        """
        owners: Dict[int, int] = {}
        shared = set()
        for thread, _, addr, size in self.ops:
            lo = addr // block_size
            hi = (addr + max(size, 1) - 1) // block_size
            for block in range(lo, hi + 1):
                prev = owners.setdefault(block, thread)
                if prev != thread:
                    shared.add(block)
        return len(owners), len(shared)

    # ------------------------------------------------------------------
    def thread_checksum(self, thread: int) -> int:
        """Order-sensitive FNV-1a over one thread's op stream."""
        h = 0xCBF29CE484222325
        for kind, addr, size in self.by_thread().get(thread, ()):
            for word in (kind, addr, size):
                h = ((h ^ (word & _MASK64)) * 0x100000001B3) & _MASK64
        return h

    def checksum(self) -> int:
        """Deterministic workload checksum (the adapter's run "result").

        Combines per-thread stream hashes order-independently across
        threads, so the value never depends on scheduler interleaving.
        """
        total = 0
        for thread in self.threads():
            total = (total + (thread + 1) * self.thread_checksum(thread)) & _MASK64
        return total

    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Canonical text serialisation; ``parse_trace_text`` round-trips it."""
        lines = [
            f"# warden-repro memory trace: {self.name}",
            f"# {len(self.ops)} ops, {len(self.threads())} threads",
        ]
        for thread, kind, addr, size in self.ops:
            lines.append(f"{thread} {_KIND_NAMES[kind]} {addr:#x} {size}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def _parse_int(
    text: str, source: str, lineno: int, what: str, allow_hex: bool
) -> int:
    """Strict radix-aware integer parse with a located diagnostic."""
    raw = text
    negative = raw.startswith("-")
    if allow_hex and raw.lower().startswith("0x"):
        digits = raw[2:]
        if not digits or any(c not in "0123456789abcdefABCDEF" for c in digits):
            raise TraceFormatError(
                source, lineno, f"malformed hex {what} {raw!r}"
            )
        value = int(digits, 16)
    else:
        # isdigit() alone admits Unicode digits ('²', '١') that int()
        # either rejects with a bare ValueError or silently decodes.
        if not (raw.isascii() and raw.isdigit()):
            reason = (
                f"mixed-radix or malformed {what} {raw!r}"
                if any(c.isalpha() for c in raw) and not negative
                else f"malformed {what} {raw!r}"
            )
            raise TraceFormatError(source, lineno, reason)
        value = int(raw, 10)
    if negative or value < 0:  # isdigit() already rejects '-', belt+braces
        raise TraceFormatError(source, lineno, f"negative {what} {raw!r}")
    return value


def parse_trace_text(
    text: str, source: str = "<string>"
) -> MemTrace:
    """Parse the ``thread op address [size]`` text format into a trace.

    Raises :class:`TraceFormatError` (with ``source:line``) on the first
    malformed line; an empty trace (zero op rows) is also an error.
    Linear in the trace length: rows and thread ids are collected
    locally and the :class:`MemTrace` is built once at the end.
    """
    ops: List[Tuple[int, int, int, int]] = []
    threads = set()
    lineno = 0
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].split("//", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (3, 4):
            raise TraceFormatError(
                source, lineno,
                f"expected 'thread op address [size]', got {len(fields)} "
                f"field(s): {raw_line.strip()!r}",
            )
        thread_text = fields[0]
        if thread_text[:1] in ("p", "P", "t", "T", "c", "C") and thread_text[1:]:
            thread_text = thread_text[1:]
        thread = _parse_int(
            thread_text, source, lineno, "thread id", allow_hex=False
        )
        op = fields[1].upper()
        kind = _OP_CODES.get(op)
        if kind is None:
            raise TraceFormatError(
                source, lineno,
                f"unknown op {fields[1]!r} (expected one of "
                f"{'/'.join(sorted(set(_OP_CODES)))})",
            )
        addr = _parse_int(fields[2], source, lineno, "address", allow_hex=True)
        size = 8
        if len(fields) == 4:
            size = _parse_int(fields[3], source, lineno, "size", allow_hex=False)
            if not 1 <= size <= MAX_ACCESS_SIZE:
                raise TraceFormatError(
                    source, lineno,
                    f"size {size} outside [1, {MAX_ACCESS_SIZE}]",
                )
        ops.append((thread, kind, addr, size))
        if thread not in threads:
            threads.add(thread)
            if len(threads) > MAX_TRACE_THREADS:
                raise TraceFormatError(
                    source, lineno,
                    f"more than {MAX_TRACE_THREADS} distinct thread ids",
                )
    if not ops:
        raise TraceFormatError(
            source, max(1, lineno), "trace contains no memory operations",
        )
    return MemTrace(ops, name=source)


def load_trace_file(path: str) -> MemTrace:
    """Read and parse one text trace file.

    Unreadable files surface as :class:`TraceFormatError` at line 0 so
    every ingestion failure funnels through one exception type.
    """
    try:
        with open(path, "r", encoding="utf-8", errors="strict") as handle:
            text = handle.read()
    except OSError as exc:
        raise TraceFormatError(str(path), 0, f"cannot read trace: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            str(path), 0, f"not a text trace (binary or non-UTF-8 data: {exc})"
        ) from None
    trace = parse_trace_text(text, source=str(path))
    return trace


def iter_lines(ops: Iterable[Tuple[int, int, int, int]]) -> Iterable[str]:
    """Render op rows as canonical text lines (no header) — test helper."""
    for thread, kind, addr, size in ops:
        yield f"{thread} {_KIND_NAMES[kind]} {addr:#x} {size}"
