"""Deterministic fault injection for sweep and campaign execution.

Fault tolerance that is only ever exercised by real outages is fault
tolerance that silently rots.  This module makes failure a first-class,
*injectable* event: a :class:`FaultPlan` names exactly which faults fire at
exactly which sweep points, and the chaos test suite (plus the ``chaos-smoke``
CI job) proves that recovered runs are bit-identical to clean runs.

Fault specs are strings -- ``"worker_crash:point=2;slow_point:point=1,seconds=30"``
-- accepted by the ``--faults`` CLI flag and the ``REPRO_FAULTS`` environment
variable.  Each fault is ``kind[:key=value[,key=value]...]``; multiple faults
join with ``;``.  Supported kinds (see :data:`FAULT_KINDS`):

* ``worker_crash`` -- the pool worker dispatched the target point calls
  ``os._exit`` before simulating, killing the process mid-task (the parent
  sees ``BrokenProcessPool``).
* ``slow_point`` -- the worker sleeps ``seconds`` before simulating the
  target point, turning it into a straggler for the per-point timeout.
* ``torn_cache`` -- :class:`~repro.sweep.cache.ResultCache` writes a
  truncated, non-atomic entry for the target point (a simulated torn write).
* ``trace_corrupt`` -- the :class:`~repro.trace.store.TraceStore` flips bytes
  in the packed file it just baked (the ``ordinal``-th bake; default the
  first).
* ``obs_fail`` -- the next observability artifact write raises ``OSError``
  (telemetry failures must never take a sweep down).

**Determinism and once-only firing.**  Faults target *spec point indexes*
(``point=K``) or per-kind call ordinals (``ordinal=N``), never wall-clock or
randomness, so an injected run is reproducible.  Each fault fires ``times``
times (default once); firing is *claimed before the fault takes effect* so a
worker that crashes cannot re-crash its replacement.  Claims are marker files
in ``state_dir`` (created with ``O_CREAT | O_EXCL``, so concurrent workers
race safely); with no state dir the claims are in-process only, which is
sufficient for in-process execution but NOT for pool workers -- the runner
and the CLI always hand workers a shared state dir for exactly this reason.

The module-level :func:`configure_faults` / :func:`active_fault_plan` /
:func:`fire` API mirrors the trace-store pattern in
:mod:`repro.sweep.runner`: an explicitly configured plan wins, otherwise the
``REPRO_FAULTS`` (+ optional ``REPRO_FAULTS_DIR``) environment variables name
one, and ``configure_faults(False)`` disables injection outright.  When no
plan is active, :func:`fire` is a single ``is None`` check -- the injection
sites cost nothing in production runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError

#: Environment variable carrying a fault spec string for this process and
#: (via inheritance) any pool workers it spawns.
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable naming the shared claim/state directory.
FAULTS_DIR_ENV = "REPRO_FAULTS_DIR"

#: Exit status used by an injected worker crash (distinctive in waitpid logs).
CRASH_EXIT_CODE = 87

#: Supported fault kinds and what they do (the ``repro faults list`` text).
FAULT_KINDS: Dict[str, str] = {
    "worker_crash": "kill the pool worker (os._exit) dispatched the target "
                    "point, before it simulates",
    "slow_point": "sleep `seconds` before simulating the target point "
                  "(straggler; trips the per-point timeout)",
    "torn_cache": "write a truncated, non-atomic result-cache entry for the "
                  "target point (simulated torn write)",
    "trace_corrupt": "flip bytes in the packed trace the store just baked "
                     "(the `ordinal`-th bake)",
    "obs_fail": "raise OSError from the next obs artifact write",
}

_INT_KEYS = ("point", "ordinal", "times")
_FLOAT_KEYS = ("seconds",)


@dataclass(frozen=True)
class Fault:
    """One parsed fault: a kind plus its targeting/shape parameters."""

    kind: str
    #: Spec point index to target (``None`` = target by call ordinal).
    point: Optional[int] = None
    #: Which qualifying call fires when ``point`` is not given (0 = first).
    ordinal: int = 0
    #: How many times the fault fires before going inert.
    times: int = 1
    #: Sleep duration for ``slow_point``.
    seconds: float = 30.0
    #: Position in the plan (names the claim markers).
    fault_id: int = 0

    def describe(self) -> str:
        target = (f"point={self.point}" if self.point is not None
                  else f"ordinal={self.ordinal}")
        extra = f", seconds={self.seconds:g}" if self.kind == "slow_point" else ""
        times = f", times={self.times}" if self.times != 1 else ""
        return f"{self.kind}({target}{extra}{times})"


def parse_faults(spec: str) -> Tuple[Fault, ...]:
    """Parse a fault spec string into :class:`Fault` s.

    Raises :class:`ConfigurationError` on unknown kinds or keys, so a typo in
    ``--faults`` fails loudly instead of silently injecting nothing.
    """
    faults: List[Fault] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, arg_text = clause.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; known: "
                + ", ".join(sorted(FAULT_KINDS)))
        kwargs: Dict[str, Union[int, float]] = {}
        for item in filter(None, (p.strip() for p in arg_text.split(","))):
            if "=" not in item:
                raise ConfigurationError(
                    f"fault parameter {item!r} is not key=value (in {clause!r})")
            key, value = (part.strip() for part in item.split("=", 1))
            try:
                if key in _INT_KEYS:
                    kwargs[key] = int(value)
                elif key in _FLOAT_KEYS:
                    kwargs[key] = float(value)
                else:
                    raise ConfigurationError(
                        f"unknown fault parameter {key!r} (in {clause!r}); "
                        f"known: {', '.join(_INT_KEYS + _FLOAT_KEYS)}")
            except ValueError as exc:
                raise ConfigurationError(
                    f"malformed fault parameter {item!r} (in {clause!r})"
                ) from exc
        if kwargs.get("times", 1) < 1:
            raise ConfigurationError(f"fault {clause!r}: times must be >= 1")
        faults.append(Fault(kind=kind, fault_id=len(faults), **kwargs))
    if not faults:
        raise ConfigurationError(f"fault spec {spec!r} names no faults")
    return tuple(faults)


class FaultPlan:
    """A parsed fault spec plus the claim state that makes firing once-only.

    Plans are cheap plain data: the runner hands ``(plan.spec,
    plan.state_dir)`` to pool workers through their initializer, and every
    process reconstructs an equivalent plan whose marker files coordinate
    firing across the whole fleet (and across pool restarts).
    """

    def __init__(self, spec: Union[str, Sequence[Fault]],
                 state_dir: Optional[Union[str, Path]] = None):
        if isinstance(spec, str):
            self.faults = parse_faults(spec)
            self.spec = spec
        else:
            self.faults = tuple(spec)
            self.spec = ";".join(f.describe() for f in self.faults)
        self.state_dir = None if state_dir is None else str(state_dir)
        #: fault_id -> times already fired (in-process fallback claims).
        self._local_fired: Dict[int, int] = {}
        #: kind -> calls seen so far (for ordinal targeting).
        self._ordinals: Dict[str, int] = {}

    def describe(self) -> str:
        where = self.state_dir or "in-process"
        rendered = "; ".join(fault.describe() for fault in self.faults)
        return f"fault plan [{rendered}] (claims: {where})"

    # -- Firing ------------------------------------------------------------

    def fire(self, kind: str, point: Optional[int] = None) -> Optional[Fault]:
        """Return the fault that fires at this site, claiming it first.

        The claim happens *before* the caller acts on the fault, so a fault
        whose effect is fatal (``worker_crash``) cannot fire again on the
        re-dispatched attempt -- which is what lets the chaos suite assert
        that recovery converges.
        """
        ordinal = self._ordinals.get(kind, 0)
        self._ordinals[kind] = ordinal + 1
        for fault in self.faults:
            if fault.kind != kind:
                continue
            if fault.point is not None:
                if point != fault.point:
                    continue
            elif ordinal != fault.ordinal:
                continue
            if self._claim(fault):
                return fault
        return None

    def _claim(self, fault: Fault) -> bool:
        """Atomically claim one firing of ``fault`` (False = budget spent)."""
        if self.state_dir is None:
            fired = self._local_fired.get(fault.fault_id, 0)
            if fired >= fault.times:
                return False
            self._local_fired[fault.fault_id] = fired + 1
            return True
        directory = Path(self.state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for shot in range(fault.times):
            marker = directory / f"fired-{fault.fault_id}-{shot}"
            try:
                handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(handle)
            return True
        return False


# -- Process-wide configuration (mirrors the trace-store pattern) -----------

_PLAN: Optional[FaultPlan] = None
_DISABLED = False
_ENV_PLANS: Dict[Tuple[str, Optional[str]], FaultPlan] = {}


def configure_faults(plan: Union[FaultPlan, str, None, bool],
                     ) -> Union[FaultPlan, None, bool]:
    """Set this process's fault plan.

    ``None`` clears it (the ``REPRO_FAULTS`` environment variable may then
    provide one); ``False`` disables injection outright, env var included; a
    string is shorthand for ``FaultPlan(spec)`` with in-process claims.
    Returns the previous setting in the same vocabulary so callers can
    restore it.
    """
    global _PLAN, _DISABLED
    previous = False if _DISABLED else _PLAN
    if plan is False:
        _PLAN, _DISABLED = None, True
    else:
        if isinstance(plan, str):
            plan = FaultPlan(plan)
        _PLAN, _DISABLED = plan, False
    return previous


def active_fault_plan() -> Optional[FaultPlan]:
    """The fault plan :func:`fire` consults, if any.

    An explicitly configured plan wins; otherwise ``REPRO_FAULTS`` (with the
    claim directory from ``REPRO_FAULTS_DIR``) names one.  Env-derived plans
    are memoized per (spec, dir) so their ordinal counters persist across
    calls.
    """
    if _DISABLED:
        return None
    if _PLAN is not None:
        return _PLAN
    spec = os.environ.get(FAULTS_ENV)
    if not spec:
        return None
    state_dir = os.environ.get(FAULTS_DIR_ENV) or None
    key = (spec, state_dir)
    plan = _ENV_PLANS.get(key)
    if plan is None:
        plan = _ENV_PLANS[key] = FaultPlan(spec, state_dir=state_dir)
    return plan


def fire(kind: str, point: Optional[int] = None) -> Optional[Fault]:
    """Fire-and-claim at one injection site (``None`` when nothing fires).

    This is the only call injection sites make; with no active plan it costs
    one function call and an ``is None`` test.
    """
    plan = active_fault_plan()
    if plan is None:
        return None
    return plan.fire(kind, point=point)


__all__ = [
    "CRASH_EXIT_CODE",
    "FAULTS_DIR_ENV",
    "FAULTS_ENV",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "active_fault_plan",
    "configure_faults",
    "fire",
    "parse_faults",
]
