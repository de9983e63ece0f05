"""A finished run leaves every frontend and runtime table empty.

Once every task has retired, nothing in the machine may still hold a task,
an operand or a version: every TRS holds no task and no blocks, every ORT
entry and OVT version has been released, and every gateway buffer and
ready queue has drained.  A table that keeps state past the end of a run
is a leak at best and a lost release at worst, so these checks are
independent of the statistics the simulator reports about itself.

The hardware machine runs the seven point configurations of
``perfbench/simbench.py`` (the five ``single_frontend`` points and the two
``sharded_steal`` ones, at seed 0); the software runtime runs the Cholesky
and H264 points.
"""

from __future__ import annotations

import pytest

from perfbench.simbench import generate_trace, points_for
from repro.backend.system import TaskSuperscalarSystem
from repro.software.runtime_sim import SoftwareRuntimeSystem
from repro.sweep.runner import build_point_config

POINTS = points_for("single_frontend", 0) + points_for("sharded_steal", 0)

SOFTWARE_POINTS = [(name, params) for name, params in POINTS
                   if name in ("cholesky", "h264")]


def hardware_leftovers(system: TaskSuperscalarSystem) -> dict:
    """Every frontend table that a drained machine must leave empty, by
    module, mapped to how much it still holds."""
    held = {}
    for frontend in system.frontends:
        for trs in frontend.trs_list:
            held[f"{trs.name}.tasks"] = trs.inflight_tasks
            held[f"{trs.name}.blocks"] = trs.storage.used_blocks
            # Not checked: the vacant chain heads in ``trs._retired``.  A
            # head waits for a late register-consumer message and is only
            # dropped when one arrives, so some outlive the run; dropping
            # them when no lookup can reach them any more is ROADMAP item 6.
        for ort in frontend.orts:
            held[f"{ort.name}.entries"] = ort.table.occupancy
        for ovt in frontend.ovts:
            held[f"{ovt.name}.versions"] = ovt.table.live_versions
            held[f"{ovt.name}.operand_version"] = len(
                ovt.table.operand_version)
        gateway = frontend.gateway
        held[f"{gateway.name}.buffer"] = gateway.buffer_occupancy
        held[f"{frontend.ready_queue.name}.depth"] = len(frontend.ready_queue)
    return held


@pytest.mark.parametrize("name,params", POINTS, ids=[name for name, _ in POINTS])
def test_hardware_machine_drains(name, params):
    trace = generate_trace(params)
    system = TaskSuperscalarSystem(build_point_config(params))
    result = system.run(trace)
    assert result.tasks_completed == len(trace)
    held = hardware_leftovers(system)
    assert {key: count for key, count in held.items() if count} == {}


@pytest.mark.parametrize("name,params", SOFTWARE_POINTS,
                         ids=[name for name, _ in SOFTWARE_POINTS])
def test_software_machine_drains(name, params):
    trace = generate_trace(params)
    system = SoftwareRuntimeSystem(build_point_config(params))
    result = system.run(trace)
    assert result.tasks_completed == len(trace)
    decoder = system.decoder
    held = {
        "decoder.pending_producers": len(decoder._pending_producers),
        "decoder.consumers": len(decoder._consumers),
        "decoder.in_flight": len(decoder._in_flight),
        "decoder.decode_queue": len(decoder._decode_queue),
        "machine.ready": len(system._ready),
        "machine.start_times": len(system._start_times),
    }
    assert {key: count for key, count in held.items() if count} == {}
