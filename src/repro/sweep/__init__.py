"""Parallel experiment-sweep subsystem.

The paper's evaluation is a family of parameter sweeps over the simulated
task-superscalar machine; this package turns those sweeps into declarative,
cacheable, parallelisable campaigns:

* :class:`~repro.sweep.spec.SweepSpec` declares a parameter grid and expands
  it into deterministic :class:`~repro.sweep.spec.SweepPoint` s,
* :class:`~repro.sweep.cache.ResultCache` content-addresses results on disk
  so repeated or interrupted sweeps never recompute a finished point,
* :class:`~repro.sweep.runner.SweepRunner` executes the points, in-process
  with ``jobs=1`` or over a crash-tolerant ``multiprocessing`` pool
  otherwise, with bit-identical results,
* :mod:`repro.sweep.bench` pins a performance-tracking scenario suite on top
  (``repro bench run|compare``), reporting events/sec per ``BENCH_*.json``
  so hot-path regressions are caught by comparison with a tolerance,
* :mod:`repro.sweep.campaign` composes named specs into scenario campaigns
  (``repro campaign run|report``): a seed-ensemble axis with
  mean/std/min/max/95%-CI aggregation per design point, ablation grids
  diffed against a declared baseline, and JSON/CSV reports under
  ``<artifacts>/campaigns/<campaign_id>/`` -- all incremental thanks to the
  result cache and trace store,
* the runner pairs with a :class:`~repro.trace.store.TraceStore`
  (``<artifacts>/traces``, derived from the result cache by default): each
  distinct task trace is baked once as a packed binary -- on first use
  in-process, or by the parent before pool fan-out -- and every later
  lookup loads it by content address instead of regenerating
  (``SweepRun.trace_summary()`` reports the amortization).

See ``examples/sweep_campaign.py`` for an end-to-end campaign.
"""

from repro.sweep.cache import DEFAULT_CACHE_ROOT, ResultCache
from repro.sweep.campaign import (Ablation, Campaign, CampaignReport,
                                  aggregate_run, run_campaign)
from repro.sweep.faults import (FaultPlan, configure_faults, parse_faults)
from repro.sweep.resilience import RetryPolicy, RunJournal
from repro.sweep.runner import (SweepRun, SweepRunner, adaptive_chunksize,
                                configure_trace_store,
                                default_runner, execute_point,
                                resolve_trace_store, trace_for_params,
                                workload_params)
from repro.sweep.spec import (SweepPoint, SweepSpec, canonical_scalar,
                              parse_axis_value)
from repro.trace.store import TraceStore

__all__ = [
    "Ablation",
    "Campaign",
    "CampaignReport",
    "DEFAULT_CACHE_ROOT",
    "FaultPlan",
    "ResultCache",
    "RetryPolicy",
    "RunJournal",
    "SweepPoint",
    "SweepRun",
    "SweepRunner",
    "SweepSpec",
    "TraceStore",
    "adaptive_chunksize",
    "aggregate_run",
    "canonical_scalar",
    "configure_faults",
    "configure_trace_store",
    "parse_faults",
    "default_runner",
    "execute_point",
    "parse_axis_value",
    "resolve_trace_store",
    "run_campaign",
    "trace_for_params",
    "workload_params",
]
