"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The simulated
sweeps are expensive, so each benchmark runs its sweep exactly once through
``benchmark.pedantic(..., rounds=1, iterations=1)`` -- pytest-benchmark then
reports the wall-clock cost of regenerating that artefact -- and the result is
checked against the paper's qualitative shape and printed so the numbers can
be copied into EXPERIMENTS.md.

Set ``REPRO_BENCH_SCALE`` (default ``0.7``) to trade fidelity for speed: it
multiplies every workload's problem size.
"""

from __future__ import annotations

import os

import pytest

from repro.sweep.campaign import Campaign, MemberReport, run_campaign
from repro.sweep.spec import SweepSpec

#: Problem-size multiplier for the benchmark sweeps.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.7"))


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_member(spec: SweepSpec) -> MemberReport:
    """Run one figure grid as a one-member, seed-0 campaign."""
    return run_campaign(Campaign(name=spec.name, members=(spec,))).member(spec.name)


@pytest.fixture
def bench_scale() -> float:
    """The configured benchmark scale factor."""
    return BENCH_SCALE
