"""Self-time spans around calls into the program, recorded from outside.

The traced run patches public entry points of ``repro`` modules with thin
wrappers (and, for the simulator, swaps in an engine that times every
callback it dispatches).  Each span's *self time* is its duration minus the
time its child spans cover, so the self times of all span names add up to
the time of the outermost spans.  Nothing under ``src/`` is edited: the
patches are installed for the traced run only and removed afterwards.
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple


class Tracer:
    """Accumulates self time and call counts per span name."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Child-time accumulators of the open spans, innermost last.
        self.stack: List[float] = []

    def call(self, name: str, fn: Callable, args, kwargs):
        stack = self.stack
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            child = stack.pop()
            self.self_s[name] += elapsed - child
            self.calls[name] += 1
            if stack:
                stack[-1] += elapsed

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return dict(self.self_s), dict(self.calls)


#: A patch target: ``(module, attribute path, span name)``; the path is
#: ``"Class.method"`` or a module-level ``"function"``.
Target = Tuple[str, str, str]


class Patches:
    """Install span wrappers on a list of targets; undo them on exit."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target]):
        self.tracer = tracer
        self.targets = list(targets)
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        try:
            for module_name, path, span in self.targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                if attr not in vars(owner):
                    raise AttributeError(f"{module_name}.{path} not found")
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, span))
                self._undo.append((owner, attr, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _wrap(self, fn: Callable, span: str) -> Callable:
        call = self.tracer.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(span, fn, args, kwargs)
        return wrapper

    def replace(self, module_name: str, attr: str, value) -> None:
        """Swap a module attribute for the duration of the patch set."""
        owner = importlib.import_module(module_name)
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *_exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


#: Layer of a dispatched engine callback, by the module of the class that
#: owns it (or of the function itself).  Anything else is ``sim.other``.
CALLBACK_LAYERS = {
    "repro.frontend.gateway": "frontend.gateway",
    "repro.frontend.trs": "frontend.trs",
    "repro.frontend.ort": "frontend.ort",
    "repro.frontend.ovt": "frontend.ovt",
    "repro.frontend.ready_queue": "frontend.ready_queue",
    "repro.backend.scheduler": "backend.scheduler",
    "repro.cores.core": "cores.worker",
    "repro.cores.generator": "cores.generator",
    "repro.topology": "topology.fabric",
}

#: Direct calls across layers inside a callback, timed as child spans so
#: the caller's self time excludes them.
SIMULATOR_TARGETS: List[Target] = [
    ("repro.backend.system", "TaskSuperscalarSystem.__init__",
     "backend.system_build"),
    ("repro.backend.system", "TaskSuperscalarSystem.run", "sim.loop"),
    ("repro.topology", "TaskRouter.try_submit", "topology.router"),
    ("repro.frontend.pipeline", "TaskSuperscalarFrontend.try_submit",
     "frontend.gateway"),
    ("repro.backend.scheduler", "TaskScheduler._task_finished",
     "backend.scheduler"),
    ("repro.backend.scheduler", "TaskScheduler._dispatch_cluster",
     "backend.scheduler"),
    ("repro.backend.scheduler", "TaskScheduler._balance",
     "backend.scheduler"),
    ("repro.experiments.common", "experiment_trace", "workloads.generate"),
]

#: The campaign's layer boundaries: cache, journal, trace store, system
#: build and run, aggregation, telemetry and heartbeats.
CAMPAIGN_TARGETS: List[Target] = [
    ("repro.sweep.spec", "SweepSpec.points", "sweep.expand"),
    ("repro.sweep.cache", "ResultCache.get", "sweep.cache_get"),
    ("repro.sweep.cache", "ResultCache.put", "sweep.cache_put"),
    ("repro.sweep.cache", "ResultCache.write_manifest", "sweep.cache_put"),
    ("repro.sweep.resilience", "RunJournal.emit", "sweep.journal"),
    ("repro.sweep.campaign", "aggregate_run", "sweep.aggregate"),
    ("repro.sweep.campaign", "write_report", "sweep.aggregate"),
    ("repro.trace.store", "TraceStore.get", "trace.load"),
    ("repro.trace.store", "TraceStore.get_or_bake", "trace.bake"),
    ("repro.trace.store", "TraceStore.put", "trace.bake"),
    ("repro.experiments.common", "experiment_trace", "workloads.generate"),
    ("repro.backend.system", "TaskSuperscalarSystem.__init__",
     "backend.system_build"),
    ("repro.backend.system", "TaskSuperscalarSystem.run", "sweep.simulate"),
    ("repro.obs.observer", "Observer.snapshot", "obs.telemetry"),
    ("repro.obs.report", "point_summary", "obs.telemetry"),
    ("repro.obs.report", "write_point_summary", "obs.telemetry"),
    ("repro.obs.report", "HeartbeatWriter.emit", "obs.heartbeat"),
]


def traced_engine_class(tracer: Tracer):
    """An :class:`Engine` whose run loop times every dispatched callback.

    The loop keeps the engine's exact event order (it pops through the same
    ``_next_entry``/``_pop`` pair :meth:`Engine.step` uses), so results are
    bit-identical to an untraced run.  Callback self time goes to the layer
    of the callback's owner; the engine loop itself is the residual of the
    enclosing ``sim.loop`` span.  That residual times this loop, not the
    program's ``Engine.run``; :func:`traced_loop_cost` measures the
    difference.
    """
    from repro.sim.engine import Engine

    layers: Dict[object, str] = {}

    def layer_of(key) -> str:
        module = getattr(key, "__module__", "") or ""
        for prefix, layer in CALLBACK_LAYERS.items():
            if module == prefix or module.startswith(prefix + "."):
                layers[key] = layer
                return layer
        layers[key] = "sim.other"
        return "sim.other"

    class TracedEngine(Engine):
        def run(self, until=None) -> int:
            if until is not None or self.max_events is not None \
                    or self.max_time is not None:
                raise NotImplementedError(
                    "the traced engine supports unbounded runs only")
            self_s = tracer.self_s
            calls = tracer.calls
            stack = tracer.stack
            get_layer = layers.get
            while True:
                head = self._next_entry()
                if head is None:
                    break
                entry, from_ready = head
                self._pop(from_ready)
                ref = entry[2]
                if ref is not None and ref.cancelled:
                    continue
                time = entry[0]
                advance = self.on_advance
                if (advance is not None and time >= self._advance_wake
                        and time > self.now):
                    wake = advance(time)
                    self._advance_wake = wake if wake > time else time + 1
                self.now = time
                self._events_processed += 1
                callback = entry[3]
                owner = getattr(callback, "__self__", None)
                key = type(owner) if owner is not None else callback
                layer = get_layer(key) or layer_of(key)
                stack.append(0.0)
                start = perf_counter()
                callback(*entry[4])
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                stack[-1] += elapsed
            return self.now

    return TracedEngine


class _Ticker:
    """A callback that reschedules itself, as the simulator's modules do.

    The delays mix same-cycle events (the engine's micro-queue) with later
    ones (its heap).
    """

    DELAYS = (0, 1, 0, 3, 0, 0, 2, 7)

    def __init__(self, engine, budget: int):
        self.engine = engine
        self.left = budget

    def tick(self, step: int) -> None:
        if self.left:
            self.left -= 1
            self.engine.schedule_unref(self.DELAYS[step & 7], self.tick,
                                       step + 1)


def _tick_seconds(engine_class, events: int, tickers: int) -> float:
    engine = engine_class()
    for i in range(tickers):
        ticker = _Ticker(engine, events // tickers)
        engine.schedule_unref(i % 5, ticker.tick, i)
    start = perf_counter()
    engine.run()
    return perf_counter() - start


def timer_cost(samples: int = 20000) -> float:
    """Seconds a span adds to its own duration: two back-to-back clock reads.

    Every span, callback spans included, reads the clock on entry and exit,
    so its measured duration exceeds the call by about this much.
    """
    deltas = []
    for _ in range(samples):
        start = perf_counter()
        deltas.append(perf_counter() - start)
    return statistics.median(deltas)


def traced_loop_cost(events: int = 20000, tickers: int = 64,
                     repeats: int = 5) -> float:
    """Seconds per event that the traced loop adds over ``Engine.run``,
    outside the callback spans.

    Both loops run the same stream of self-rescheduling callbacks with the
    collector paused, as ``TaskSuperscalarSystem.run`` pauses it.  The
    median difference per event, less the :func:`timer_cost` that lands
    inside each callback span, is what the traced loop adds to the
    ``sim.loop`` residual.  Subtracting it (times the events of a traced
    run) leaves an estimate of the program's own engine loop, which moves
    when ``Engine.run`` does.
    """
    from repro.sim.engine import Engine

    scratch = Tracer()
    scratch.stack.append(0.0)  # the enclosing span the loop reports to
    traced = traced_engine_class(scratch)
    untraced_s, traced_s = [], []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            untraced_s.append(_tick_seconds(Engine, events, tickers))
            traced_s.append(_tick_seconds(traced, events, tickers))
    finally:
        if was_enabled:
            gc.enable()
    difference = statistics.median(traced_s) - statistics.median(untraced_s)
    return difference / events - timer_cost()
