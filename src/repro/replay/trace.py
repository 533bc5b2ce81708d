"""Columnar protocol-event traces and their fingerprinted on-disk store.

A trace is the protocol-visible event stream of one interpreted run, in
struct-of-arrays form: nine parallel ``array`` columns plus a JSON-able
``meta`` dict.  Event kinds:

======================  =====================================================
``K_ACCESS`` (0)        one load/store/RMW: thread, atype, size, spin flag,
                        address (``aux`` unused)
``K_REGION_ADD`` (1)    WARD region activation: ``addr`` = start,
                        ``aux`` = end
``K_REGION_REMOVE`` (2) WARD region removal: ``aux`` = region id (ids are
                        assigned identically on replay, so this is enough)
``K_PLACE`` (3)         NUMA first-touch placement: ``addr`` = base,
                        ``aux`` = size, issuing thread decides the socket
``K_SYNC`` (4)          scheduler clock clamp: thread's clock jumps forward
                        to ``aux`` if behind (strand handoff)
``K_FLUSH`` (5)         trailing pending charge carrier (see below)
``K_LLC_WARM`` (6)      input-loader LLC warm fill: ``addr`` = block, no
                        timing, no directory transaction
``K_SPINS`` (7)         a parked spinner's stretch of clean spins, applied in
                        closed form: ``aux`` = spin count (at least 1), each
                        two L1 load hits, one a spin load; the stretch's
                        backoff rides in ``pre_cycles``; ``atype``,
                        ``size`` and ``addr`` are 0
======================  =====================================================

Between protocol events a thread accrues *pending* charges — compute
instructions and idle/backoff cycles that advance only its local clock.
The recorder coalesces them into the ``pre_instrs``/``pre_cycles`` columns
of the thread's *next* event, and emits one ``K_FLUSH`` per thread at the
end of the run for charges with no successor event.  This is what makes
replay fast: compute batches vanish into two integers on the following
access.

Serialisation: ``b"WARDTRACE1\\n"`` magic, an 8-byte little-endian header
length, a JSON header (meta + column layout), then the zlib-compressed
concatenation of the raw column buffers.  Column buffers are native-endian
— traces are a local cache keyed by the machine-independent task
fingerprint, not an interchange format.

:class:`TraceStore` keeps traces under ``.warden-cache/traces/<task
fingerprint>.wtrace``.  The task fingerprint (see
:func:`repro.analysis.pool.task_fingerprint`) covers the full machine
config *and* the repo code hash, and is embedded in the trace itself, so a
stale recording — older code, different config — can never replay: the
store returns a miss and the caller re-records.
"""

from __future__ import annotations

import json
import zlib
from array import array
from pathlib import Path
from typing import Optional

from repro.analysis.pool import (
    DEFAULT_CACHE_DIR,
    atomic_write,
    code_fingerprint,
)
from repro.common.config import CacheConfig, EnergyConfig, MachineConfig

TRACE_MAGIC = b"WARDTRACE1\n"
#: bumped whenever the event vocabulary or its meaning changes, so an older
#: ``.wtrace`` file is rejected as stale (2: ``K_SPINS``)
TRACE_SCHEMA = 2

K_ACCESS = 0
K_REGION_ADD = 1
K_REGION_REMOVE = 2
K_PLACE = 3
K_SYNC = 4
K_FLUSH = 5
K_LLC_WARM = 6
K_SPINS = 7

# atype codes for the ``atype`` column
AT_LOAD = 0
AT_STORE = 1
AT_RMW = 2

#: (column name, array typecode); ``size`` is 'h' because an access size
#: may equal the block size (64/128), past the signed-byte range.
_COLUMNS = (
    ("kind", "B"),
    ("thread", "h"),
    ("atype", "b"),
    ("size", "h"),
    ("spin", "b"),
    ("addr", "q"),
    ("aux", "q"),
    ("pre_instrs", "q"),
    ("pre_cycles", "q"),
)


class Trace:
    """One recorded run: parallel event columns plus a ``meta`` dict."""

    __slots__ = tuple(name for name, _ in _COLUMNS) + ("meta", "_prep")

    def __init__(self, meta: Optional[dict] = None) -> None:
        for name, typecode in _COLUMNS:
            setattr(self, name, array(typecode))
        self.meta: dict = meta if meta is not None else {}
        # Replay preprocessing memo, keyed by block size (the only config
        # parameter the factorized columns depend on).  Populated by
        # ReplayKernel._prepare; never serialized — repeat replays and
        # config sweeps over one trace share the load-time work.
        self._prep: dict = {}

    def __len__(self) -> int:
        return len(self.kind)

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        header = {
            "schema": TRACE_SCHEMA,
            "events": len(self),
            "columns": [[name, code] for name, code in _COLUMNS],
            "meta": self.meta,
        }
        header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
        payload = zlib.compress(
            b"".join(getattr(self, name).tobytes() for name, _ in _COLUMNS), 6
        )
        return (
            TRACE_MAGIC
            + len(header_blob).to_bytes(8, "little")
            + header_blob
            + payload
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Trace":
        if not blob.startswith(TRACE_MAGIC):
            raise ValueError("not a WARDTRACE blob")
        off = len(TRACE_MAGIC)
        header_len = int.from_bytes(blob[off:off + 8], "little")
        off += 8
        header = json.loads(blob[off:off + header_len].decode("utf-8"))
        if header.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"trace schema {header.get('schema')} != {TRACE_SCHEMA}")
        if [tuple(c) for c in header["columns"]] != list(_COLUMNS):
            raise ValueError("trace column layout mismatch")
        n = header["events"]
        raw = zlib.decompress(blob[off + header_len:])
        trace = cls(meta=header["meta"])
        pos = 0
        for name, typecode in _COLUMNS:
            col = array(typecode)
            width = col.itemsize * n
            col.frombytes(raw[pos:pos + width])
            pos += width
            setattr(trace, name, col)
        if pos != len(raw):
            raise ValueError("trace payload length mismatch")
        return trace

    # ------------------------------------------------------------------
    def append(
        self, kind: int, thread: int, atype: int, size: int, spin: int,
        addr: int, aux: int, pre_instrs: int, pre_cycles: int,
    ) -> None:
        self.kind.append(kind)
        self.thread.append(thread)
        self.atype.append(atype)
        self.size.append(size)
        self.spin.append(spin)
        self.addr.append(addr)
        self.aux.append(aux)
        self.pre_instrs.append(pre_instrs)
        self.pre_cycles.append(pre_cycles)


# ----------------------------------------------------------------------
def config_from_dict(data: dict) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from ``dataclasses.asdict`` output
    (the form embedded in trace meta)."""
    kwargs = dict(data)
    for level in ("l1", "l2", "l3"):
        kwargs[level] = CacheConfig(**kwargs[level])
    kwargs["energy"] = EnergyConfig(**kwargs["energy"])
    return MachineConfig(**kwargs)


# ----------------------------------------------------------------------
class TraceStore:
    """Content-addressed trace files under ``<cache>/traces``.

    Keys are task fingerprints (config + code hash); :meth:`load` returns
    None — never a wrong trace — on a missing, corrupt, schema-mismatched,
    or stale (embedded fingerprint differs) file.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else (
            Path(DEFAULT_CACHE_DIR) / "traces"
        )

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.wtrace"

    def load(self, fingerprint: str) -> Optional[Trace]:
        path = self.path_for(fingerprint)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            trace = Trace.from_bytes(blob)
        except Exception:
            try:  # quarantine: a corrupt file should not shadow re-records
                path.unlink()
            except OSError:
                pass
            return None
        meta = trace.meta
        if meta.get("fingerprint") != fingerprint:
            return None
        if meta.get("code_fingerprint") != code_fingerprint():
            return None  # recorded by different code: stale by definition
        return trace

    def store(self, fingerprint: str, trace: Trace) -> Optional[Path]:
        """Atomically persist with the result cache's writer; best-effort
        (a read-only FS is not an error, an interrupt is re-raised)."""
        path = self.path_for(fingerprint)
        if not atomic_write(path, trace.to_bytes()):
            return None
        return path
