"""Analysis utilities: decode-rate law, speedups, dependence chains.

* :mod:`repro.analysis.metrics` -- the Figure 3 decode-rate law
  (``R = T / P``), speedup/utilisation helpers and aggregate statistics.
* :mod:`repro.analysis.chains` -- consumer-chain length statistics.
* :func:`repro.runtime.taskgraph.DependencyGraph.critical_path_cycles` (in the
  runtime package) provides the dataflow-limit analysis the speedup numbers
  are bounded by.
"""

from repro.analysis.chains import chain_length_histogram, chain_summary
from repro.analysis.metrics import (
    decode_rate_limit_ns,
    geometric_mean,
    ideal_utilization,
    max_processors_for_decode_rate,
    speedup,
)

__all__ = [
    "chain_length_histogram",
    "chain_summary",
    "decode_rate_limit_ns",
    "geometric_mean",
    "ideal_utilization",
    "max_processors_for_decode_rate",
    "speedup",
]
