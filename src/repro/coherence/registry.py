"""The protocol registry: one place every harness discovers protocols from.

``Machine``, the CLI, the conformance harness, the fuzzer, the golden
corpus generator, and the replay path all resolve protocol keys here, so
registering a new protocol (a spec + a class, see
:mod:`repro.coherence.spec`) plugs it into every verification layer at
once.  Replay included: a trace replays through its protocol's own class
unless that class *is* one the packed replay kernel transcribes (MESI or
WARDen), so a subclass registered under a new key never borrows its
parent's transcription.

Protocol modules self-register at import via :func:`coherence_protocol`;
:func:`_ensure_loaded` imports the built-in modules lazily so importing
this module never creates a cycle with them.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.coherence.spec import ProtocolSpec, install_spec
from repro.common.errors import UnknownProtocolError

_REGISTRY: Dict[str, type] = {}


def coherence_protocol(key: str, spec: ProtocolSpec):
    """Class decorator: install ``spec``'s compiled fast path and register
    the class under ``key`` (the CLI/cache-key spelling, e.g. ``"moesi"``)."""

    def wrap(cls: type) -> type:
        install_spec(cls, spec)
        _REGISTRY[key] = cls
        return cls

    return wrap


def _ensure_loaded() -> None:
    # Imports only; each module registers itself via the decorator.
    from repro.coherence import mesi, moesi, sisd, warden  # noqa: F401


def available_protocols() -> List[str]:
    """Registered protocol keys, in a stable (registration) order."""
    _ensure_loaded()
    return list(_REGISTRY)


def protocol_class(key: str) -> Type:
    _ensure_loaded()
    try:
        return _REGISTRY[key.lower()]
    except KeyError:
        raise UnknownProtocolError(key, _REGISTRY) from None


def protocol_spec(key: str) -> ProtocolSpec:
    return protocol_class(key).SPEC


def protocol_map() -> Dict[str, type]:
    """Key -> class mapping (a copy; mutating it registers nothing)."""
    _ensure_loaded()
    return dict(_REGISTRY)
