"""Shared fixtures for the test suite.

The fixtures build small traces and small-but-valid configurations so
individual tests run in milliseconds; integration tests that need larger
inputs construct them explicitly.
"""

from __future__ import annotations

import pytest

from repro.common.config import SimulationConfig, default_table2_config
from repro.sweep.campaign import (DEFAULT_METRICS, Campaign, MemberReport,
                                  run_campaign)
from repro.sweep.spec import SweepSpec
from repro.trace.records import Direction, OperandRecord, TaskRecord, TaskTrace
from repro.workloads.cholesky import CholeskyWorkload


def make_operand(address: int, size: int = 1024,
                 direction: Direction = Direction.INPUT,
                 scalar: bool = False) -> OperandRecord:
    """Convenience constructor used across tests."""
    if scalar:
        return OperandRecord(address=0, size=8, direction=Direction.INPUT, is_scalar=True)
    return OperandRecord(address=address, size=size, direction=direction)


def make_task(sequence: int, operands, runtime: int = 1000,
              kernel: str = "kernel") -> TaskRecord:
    """Convenience constructor used across tests."""
    return TaskRecord(sequence=sequence, kernel=kernel, operands=tuple(operands),
                      runtime_cycles=runtime)


def chain_trace(length: int = 4, runtime: int = 1000) -> TaskTrace:
    """A pure producer-consumer chain: task i writes X, task i+1 reads and writes X."""
    tasks = []
    address = 0x1000
    for i in range(length):
        direction = Direction.OUTPUT if i == 0 else Direction.INOUT
        tasks.append(make_task(i, [make_operand(address, direction=direction)],
                               runtime=runtime))
    return TaskTrace("chain", tasks)


def independent_trace(count: int = 8, runtime: int = 1000) -> TaskTrace:
    """Fully independent tasks, each writing its own object."""
    tasks = []
    for i in range(count):
        tasks.append(make_task(i, [make_operand(0x1000 + i * 0x1000,
                                                direction=Direction.OUTPUT)],
                               runtime=runtime))
    return TaskTrace("independent", tasks)


def fork_join_trace(width: int = 4, runtime: int = 1000) -> TaskTrace:
    """One producer, ``width`` readers, one final reducer reading all outputs."""
    tasks = []
    source = 0x10000
    tasks.append(make_task(0, [make_operand(source, direction=Direction.OUTPUT)],
                           runtime=runtime, kernel="produce"))
    outputs = []
    for i in range(width):
        out = 0x20000 + i * 0x1000
        outputs.append(out)
        tasks.append(make_task(1 + i,
                               [make_operand(source, direction=Direction.INPUT),
                                make_operand(out, direction=Direction.OUTPUT)],
                               runtime=runtime, kernel="work"))
    reducer_ops = [make_operand(out, direction=Direction.INPUT) for out in outputs]
    reducer_ops.append(make_operand(0x90000, direction=Direction.OUTPUT))
    tasks.append(make_task(1 + width, reducer_ops, runtime=runtime, kernel="reduce"))
    return TaskTrace("fork_join", tasks)


def run_member(spec: SweepSpec, metrics=DEFAULT_METRICS) -> MemberReport:
    """Run one figure grid as a one-member, seed-0 campaign."""
    campaign = Campaign(name=spec.name, members=(spec,), metrics=metrics)
    return run_campaign(campaign).member(spec.name)


@pytest.fixture
def small_config() -> SimulationConfig:
    """A Table II configuration shrunk to 8 cores for fast tests."""
    return default_table2_config(num_cores=8)


@pytest.fixture
def cholesky5() -> TaskTrace:
    """The Figure 1 trace: a 5x5 blocked Cholesky (35 tasks)."""
    return CholeskyWorkload().generate(scale=5)


@pytest.fixture
def chain4() -> TaskTrace:
    """A four-task true-dependency chain."""
    return chain_trace(4)


@pytest.fixture
def fork_join() -> TaskTrace:
    """A producer, four readers and a reducer."""
    return fork_join_trace(4)
