"""Deterministic fault injection for the run pipeline.

The robustness layer in :mod:`repro.analysis.pool` (timeouts, retries,
pool re-spawn, serial fallback, checkpoint/resume) is only trustworthy if
it can be *proven* to work — so this module provides seeded, deterministic
fault points threaded through the pool workers and :class:`DiskCache` in
the zero-overhead-when-off style of :mod:`repro.obs`: every injection site
pays exactly one module-attribute check (``if faults.ACTIVE:``) until a
plan is installed.

Fault sites
-----------

``worker.crash``
    ``os._exit(3)`` inside a pool worker — the parent sees a
    ``BrokenProcessPool`` and must re-spawn the pool.
``worker.hang``
    ``time.sleep(arg or 30)`` inside a pool worker — the parent's per-task
    timeout must fire and the hung worker be killed.
``worker.fail``
    raise :class:`~repro.common.errors.FaultInjected` from the worker —
    the parent's bounded retry must absorb it.
``cache.load.corrupt``
    truncate a :class:`DiskCache` entry's text mid-read — the corrupted
    entry must be evicted and the task re-simulated.
``cache.store.oserror``
    raise a transient ``OSError`` inside ``DiskCache.store`` — the store
    is best-effort and must not take the run down.

Addressing: matchers
--------------------

``worker.*`` sites are keyed by the task's **matrix index** and the
**attempt number**: ``worker.crash@2`` fires while executing matrix task 2
on attempt 0 only, ``worker.fail@0x3`` fires on attempts 0-2 of task 0.
Keying by task index (not per-process hit counts) keeps the injection
deterministic across pool re-spawns — the whole point of the exercise.

``cache.*`` sites are keyed by a per-process hit counter: ``site@N`` fires
on the N-th hit (1-based), ``site@NxM`` on hits N..N+M-1.

Syntax (``REPRO_FAULTS`` environment variable or :func:`parse_plan`)::

    REPRO_FAULTS="worker.crash@1,worker.hang@0:30,cache.store.oserror@1x2"

i.e. comma-separated ``site@WHERE[xTIMES][:ARG]`` clauses, where ``ARG``
is a float parameter (currently only ``worker.hang`` uses it, as the
sleep duration in seconds).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import FaultInjected, ReproError

#: environment variable holding a fault plan for this process and any
#: pool workers it spawns
ENV_VAR = "REPRO_FAULTS"

#: the sites this module knows how to fire
SITES = (
    "worker.crash",
    "worker.hang",
    "worker.fail",
    "cache.load.corrupt",
    "cache.store.oserror",
)

#: one-attribute-check fast path: False until a plan is installed
ACTIVE = False

#: True only inside a pool worker process (set by the pool initializer);
#: ``worker.*`` sites never fire outside one, so serial fallback is a safe
#: harbour when workers keep dying.
IN_WORKER = False

_PLAN: Optional["FaultPlan"] = None


class FaultSyntaxError(ReproError):
    """A ``REPRO_FAULTS`` clause could not be parsed."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault point.

    ``where`` is a task index for ``worker.*`` sites and a 1-based hit
    number for counter-keyed sites; ``times`` widens the match window
    (attempts 0..times-1, or hits where..where+times-1); ``arg`` is a
    free-form float parameter.
    """

    site: str
    where: int = 0
    times: int = 1
    arg: Optional[float] = None

    def describe(self) -> str:
        text = f"{self.site}@{self.where}"
        if self.times != 1:
            text += f"x{self.times}"
        if self.arg is not None:
            text += f":{self.arg:g}"
        return text


@dataclass(frozen=True)
class FaultHit:
    """A fault that actually fired (for manifests and assertions)."""

    site: str
    key: int
    attempt: int


class FaultPlan:
    """A set of armed :class:`FaultSpec` and the hits they produced."""

    def __init__(self, specs: List[FaultSpec]) -> None:
        self.specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site not in SITES:
                raise FaultSyntaxError(
                    f"unknown fault site {spec.site!r}; choose from {SITES}"
                )
            self.specs[spec.site] = spec
        self._counts: Dict[str, int] = {}
        self.fired: List[FaultHit] = []

    def describe(self) -> str:
        """The plan as a ``REPRO_FAULTS`` string (worker-propagation form)."""
        return ",".join(spec.describe() for spec in self.specs.values())

    def arg(self, site: str) -> Optional[float]:
        spec = self.specs.get(site)
        return spec.arg if spec is not None else None

    # ------------------------------------------------------------------
    def fire(self, site: str, key: Optional[int] = None, attempt: int = 0) -> bool:
        """Should ``site`` misbehave right now?

        ``key=None`` uses the per-process hit counter (``cache.*`` sites);
        a task index key matches ``worker.*`` sites deterministically.
        """
        spec = self.specs.get(site)
        if spec is None:
            return False
        if key is None:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
            hit = spec.where <= count < spec.where + spec.times
            key = count
        else:
            hit = key == spec.where and attempt < spec.times
        if hit:
            self.fired.append(FaultHit(site, key, attempt))
        return hit


# ----------------------------------------------------------------------
# Plan lifecycle
# ----------------------------------------------------------------------


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` (or, with None, disarm); returns the previous plan."""
    global ACTIVE, _PLAN
    previous = _PLAN
    _PLAN = plan
    ACTIVE = plan is not None
    return previous


def uninstall() -> Optional[FaultPlan]:
    return install(None)


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


def mark_worker() -> None:
    """Pool-worker initializer hook: enable the ``worker.*`` sites here."""
    global IN_WORKER
    IN_WORKER = True


def _plan_int(text: str, field: str, clause: str) -> int:
    """One integer field of a ``site@WHERE[xTIMES]`` clause."""
    if not text:
        raise FaultSyntaxError(f"missing fault {field} in {clause!r}")
    try:
        return int(text)
    except ValueError:
        raise FaultSyntaxError(
            f"bad fault {field} {text!r} in {clause!r}"
        ) from None


def parse_plan(text: Optional[str]) -> Optional[FaultPlan]:
    """Parse a ``REPRO_FAULTS`` string; None/empty disables injection."""
    if not text or not text.strip():
        return None
    specs = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        arg: Optional[float] = None
        if ":" in clause:
            clause, arg_text = clause.rsplit(":", 1)
            try:
                arg = float(arg_text)
            except ValueError:
                raise FaultSyntaxError(
                    f"bad fault arg {arg_text!r} in {clause!r}"
                ) from None
        site, sep, where_text = clause.partition("@")
        where, times = 1, 1
        if sep:
            where_text, x, times_text = where_text.partition("x")
            where = _plan_int(where_text, "address", clause)
            if x:
                times = _plan_int(times_text, "count", clause)
        if where < 0:
            raise FaultSyntaxError(f"fault {clause!r} has a negative address")
        if times < 1:
            raise FaultSyntaxError(f"fault {clause!r} must fire >= 1 time")
        specs.append(FaultSpec(site=site.strip(), where=where, times=times, arg=arg))
    return FaultPlan(specs) if specs else None


def plan_from_env(environ=os.environ) -> Optional[FaultPlan]:
    return parse_plan(environ.get(ENV_VAR))


def resolve_plan(plan=None) -> Optional[FaultPlan]:
    """Precedence: explicit arg > installed plan > ``REPRO_FAULTS``."""
    if isinstance(plan, str):
        return parse_plan(plan)
    if plan is not None:
        return plan
    if _PLAN is not None:
        return _PLAN
    return plan_from_env()


# ----------------------------------------------------------------------
# Injection sites (call only behind ``if faults.ACTIVE:``)
# ----------------------------------------------------------------------


def fire(site: str, key: Optional[int] = None, attempt: int = 0) -> bool:
    return _PLAN is not None and _PLAN.fire(site, key, attempt)


def worker_faults(task_index: int, attempt: int) -> None:
    """The pool-worker fault point, keyed by (matrix index, attempt).

    Outside a pool worker (serial path, serial fallback) this is a no-op:
    crashing the parent process is never the failure mode under test.
    """
    if _PLAN is None or not IN_WORKER:
        return
    if _PLAN.fire("worker.hang", key=task_index, attempt=attempt):
        time.sleep(_PLAN.arg("worker.hang") or 30.0)
    if _PLAN.fire("worker.fail", key=task_index, attempt=attempt):
        raise FaultInjected("worker.fail", task_index)
    if _PLAN.fire("worker.crash", key=task_index, attempt=attempt):
        os._exit(3)


def cache_store_fault() -> None:
    """DiskCache.store fault point: a transient filesystem error."""
    if _PLAN is not None and _PLAN.fire("cache.store.oserror"):
        raise OSError("injected transient cache-store failure")


def cache_load_corruption(text: str) -> str:
    """DiskCache.load fault point: return a truncated (corrupt) payload."""
    if _PLAN is not None and _PLAN.fire("cache.load.corrupt"):
        return text[: max(len(text) // 2, 1)]
    return text
