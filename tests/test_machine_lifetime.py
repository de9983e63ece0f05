"""A finished machine frees itself, stays readable and runs no second trace.

While a machine runs, its modules reference each other (peers, callbacks,
the observer's probes), so the machine is one reference cycle.  When
``run`` ends, also by raising, the machine detaches and keeps only its
downward tree: dropping the last reference frees it by reference counting,
and the cyclic collector finds nothing.

The collector's internals differ between Python versions, so the garbage
counts can also be printed by running this file as a plain script, under an
interpreter that has no pytest::

    PYTHONPATH=src python tests/test_machine_lifetime.py
"""

from __future__ import annotations

import gc
import sys
import tempfile
from collections import Counter
from typing import Callable, Tuple

try:
    import pytest
except ImportError:  # a plain-script run needs only the garbage counts
    pytest = None

from repro.backend.system import TaskSuperscalarSystem
from repro.common.config import default_table2_config
from repro.common.errors import CapacityError, ReproError, WorkloadError
from repro.experiments.common import experiment_config, experiment_trace
from repro.obs import Observer
from repro.obs.events import EV_OCCUPANCY
from repro.sim.engine import SimulationLimitExceeded
from repro.software.runtime_sim import SoftwareRuntimeSystem
from repro.sweep import runner
from repro.trace.records import Direction, OperandRecord, TaskRecord, TaskTrace


def cholesky() -> TaskTrace:
    return experiment_trace("Cholesky", scale_factor=0.3, max_tasks=200)


def too_wide() -> TaskTrace:
    """One task with more operands than a TRS can ever hold: its run
    raises from inside the event loop."""
    operands = tuple(OperandRecord(address=0x1000 * (i + 1), size=1024,
                                   direction=Direction.INPUT)
                     for i in range(25))
    return TaskTrace("too_wide", [TaskRecord(
        sequence=0, kernel="kernel", operands=operands, runtime_cycles=1000)])


def table2(observer=None) -> TaskSuperscalarSystem:
    return TaskSuperscalarSystem(experiment_config(num_cores=32),
                                 observer=observer)


def sharded() -> TaskSuperscalarSystem:
    return TaskSuperscalarSystem(experiment_config(num_cores=32).with_topology(
        num_frontends=4, shard_policy="hash_by_object",
        steal_policy="random"))


def run_raising() -> None:
    system = TaskSuperscalarSystem(default_table2_config(2))
    try:
        system.run(too_wide())
    except CapacityError:
        pass  # the exception and its traceback go with this frame
    else:
        raise AssertionError("a 25-operand task must not be allocated")


def simulate_with_telemetry() -> None:
    with tempfile.TemporaryDirectory() as root:
        previous = runner.configure_observability(root)
        try:
            runner.simulate_point({"workload": "Cholesky", "num_cores": 16,
                                   "scale_factor": 0.3, "max_tasks": 60,
                                   "seed": 0})
        finally:
            runner.configure_observability(previous)


#: Build, run and drop one machine.
CASES = {
    "table2": lambda: table2().run(cholesky()),
    "table2_observed": lambda: table2(Observer()).run(cholesky()),
    "sharded_hash_by_object_random_steal": lambda: sharded().run(cholesky()),
    "raising_run": run_raising,
    "telemetry_point": simulate_with_telemetry,
    "software_runtime":
        lambda: SoftwareRuntimeSystem(experiment_config(num_cores=32))
        .run(cholesky()),
}


def collectable_after(case: Callable[[], object]) -> Tuple[int, Counter]:
    """What the cyclic collector finds after ``case`` ran with it paused:
    the object count and the objects' types."""
    case()  # warm-up: one-time class and module set-up is not counted
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        case()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        if enabled:
            gc.enable()
    return found, kinds


def assert_frees_itself(name: str) -> None:
    found, kinds = collectable_after(CASES[name])
    assert found == 0, (f"{name}: {found} objects left for the cyclic "
                        f"collector, most common {kinds.most_common(8)}")


def test_table2_machine_frees_itself():
    assert_frees_itself("table2")


def test_observed_machine_frees_itself():
    assert_frees_itself("table2_observed")


def test_sharded_stealing_machine_frees_itself():
    assert_frees_itself("sharded_hash_by_object_random_steal")


def test_machine_whose_run_raised_frees_itself():
    assert_frees_itself("raising_run")


def test_sweep_point_with_telemetry_frees_its_machine():
    assert_frees_itself("telemetry_point")


def test_software_runtime_frees_itself():
    assert_frees_itself("software_runtime")


# -- One run per machine ------------------------------------------------------

def test_second_run_of_a_hardware_machine_raises_before_touching_state():
    trace = cholesky()
    system = table2()
    system.run(trace)
    events, table = system.engine.events_processed, \
        system.scheduler.schedule_table()
    with pytest.raises(ReproError, match="runs one trace"):
        system.run(trace)
    assert system.engine.events_processed == events
    assert system.scheduler.schedule_table() == table
    raised = TaskSuperscalarSystem(default_table2_config(2))
    with pytest.raises(CapacityError):
        raised.run(too_wide())
    with pytest.raises(ReproError, match="build a new one"):
        raised.run(too_wide())


def test_second_run_of_a_software_machine_raises_before_touching_state():
    trace = cholesky()
    system = SoftwareRuntimeSystem(experiment_config(num_cores=32))
    system.run(trace)
    events, table = system.engine.events_processed, system.completions.table()
    with pytest.raises(ReproError, match="runs one trace"):
        system.run(trace)
    assert system.engine.events_processed == events
    assert system.completions.table() == table
    assert system.tasks_completed == len(trace)


class _Forgetful(set):
    """A set that drops what is added to it."""

    def add(self, item):
        pass


def test_software_validation_still_catches_a_violated_edge():
    system = SoftwareRuntimeSystem(experiment_config(num_cores=32))
    # No task is ever in flight, so every producer looks finished and
    # consumers start too early.
    system.decoder._in_flight = _Forgetful()
    with pytest.raises(WorkloadError, match="true dependency edges violated"):
        system.run(cholesky(), validate=True)


# -- What stays readable ------------------------------------------------------

def test_finished_machine_stays_readable():
    trace = cholesky()
    observer = Observer()
    system = table2(observer)
    result = system.run(trace)
    table = system.scheduler.schedule_table()
    assert len(table) == len(trace) == result.tasks_completed
    assert all(start <= finish for start, finish in table.values())
    assert system.engine.events_processed > len(trace)
    assert system.engine.pending_events == 0
    assert result.stats == system.stats.summary()
    assert result.stats["scheduler.completions"] == len(trace)
    assert system.frontend.window_occupancy() == 0
    heads = [len(trs._retired) for trs in system.frontend.trs_list]
    assert 0 < sum(heads) < len(trace)
    recording = observer.snapshot()
    assert any(event[1] == EV_OCCUPANCY for event in recording.events)
    assert recording.events == sorted(recording.events,
                                      key=lambda event: event[0])


def test_machine_whose_run_raised_stays_readable():
    trace = cholesky()
    observer = Observer()
    system = table2(observer)
    with pytest.raises(SimulationLimitExceeded):
        system.run(trace, max_events=6000)
    assert system.engine.events_processed == 6001
    assert system.engine.pending_events == 0
    table = system.scheduler.schedule_table()
    assert 0 < len(table) < len(trace)
    assert system.frontend.window_occupancy() > 0
    assert system.stats.counter("scheduler.completions") == len(table)
    assert all(isinstance(trs._retired, set)
               for trs in system.frontend.trs_list)
    assert observer.snapshot().events


if __name__ == "__main__":
    print(sys.version.split()[0])
    for case_name, case_fn in CASES.items():
        count, types = collectable_after(case_fn)
        print(f"{case_name}: {count} {dict(types.most_common(5))}")
