"""Experiment drivers: one module per table / figure of the paper.

| Module | Paper artefact |
|---|---|
| :mod:`repro.experiments.table1` | Table I -- benchmark catalogue |
| :mod:`repro.experiments.table2` | Table II -- simulated system parameters |
| :mod:`repro.experiments.figure1` | Figure 1 -- 5x5 Cholesky task graph |
| :mod:`repro.experiments.figure3` | Figure 3 -- decode-rate law |
| :mod:`repro.experiments.decode_rate` | Figures 12 & 13 -- decode rate vs. #TRS/#ORT (campaign ``decode-rate``) |
| :mod:`repro.experiments.capacity` | Figures 14 & 15 -- speedup vs. ORT/TRS capacity (campaign ``capacity``) |
| :mod:`repro.experiments.scaling` | Figure 16 -- speedup vs. core count, hardware vs. software runtime (campaign ``speedup``) |
| :mod:`repro.experiments.synthetic_stress` | (beyond the paper) synthetic design-space stress maps (campaign ``synthetic-stress``) |
| :mod:`repro.experiments.topology_scaling` | (beyond the paper) speedup vs. frontend count (campaign ``topology-scaling``) |
| :mod:`repro.experiments.campaigns` | the campaign registry behind ``repro campaign`` |
| :mod:`repro.experiments.runner` | run-everything driver producing a text report |

The figure modules build their sweep families as registered campaigns
(seed ensembles, cached points, stored reports) and keep one pivot helper
that turns a campaign member's report into the figure's series; their
formatters, the tests and ``benchmarks/`` all read results through it.
"""

from repro.experiments.common import EXPERIMENT_SCALES, experiment_trace, fast_generator_config

__all__ = ["EXPERIMENT_SCALES", "experiment_trace", "fast_generator_config"]
