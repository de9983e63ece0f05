"""Discrete-event simulation kernel.

The task-superscalar frontend, the backend CMP and the software-runtime
baseline are all built on the same small discrete-event core:

* :class:`repro.sim.engine.Engine` -- the event heap and simulated clock.
* :class:`repro.sim.module.SimModule` -- a named component with convenience
  scheduling helpers.
* :class:`repro.sim.module.PacketProcessor` -- a module that serialises the
  processing of incoming packets (one at a time, each charged the service
  time registered for its packet type), which is how the paper's pipeline
  modules behave.
* :class:`repro.sim.stats.StatsCollector` -- counters, accumulators,
  histograms and sample series shared by all components, written through
  pre-bound handles.
* :class:`repro.sim.machine.Machine` -- what both simulated machines share:
  one run per machine with the collector paused around the event loop, a
  detach that frees the finished machine by reference counting, and the
  completion log.
"""

from repro.sim.engine import Engine, Event
from repro.sim.module import PacketProcessor, SimModule
from repro.sim.stats import Histogram, StatsCollector

__all__ = [
    "Engine",
    "Event",
    "PacketProcessor",
    "SimModule",
    "Histogram",
    "StatsCollector",
]
