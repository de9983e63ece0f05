"""Property-based tests (hypothesis) on core data structures and invariants.

The properties cover:

* the TRS block allocator (conservation of blocks, layout arithmetic, the
  same fits/used counts as a counting reference),
* the ORT renaming table (occupancy, overflow and pressure bookkeeping after
  every step of arbitrary insert/remove interleavings),
* the OVT version table (usage counts never go negative, releases are
  detected exactly when the last user leaves),
* the gold dependency-graph builder (edges always point forward, sequential
  execution is always a valid schedule, renaming never *adds* constraints),
* the decode-rate law (monotonicity in both arguments),
* end-to-end: random small traces run through the hardware pipeline always
  complete and always respect their true dependencies.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.analysis.metrics import decode_rate_limit_ns
from repro.backend.system import run_trace
from repro.common.errors import AllocationError
from repro.common.ids import OperandID
from repro.frontend.storage import BlockStorage, RenamingTable, VersionTable
from repro.runtime.taskgraph import build_dependency_graph
from repro.sim.engine import Engine, SimulationLimitExceeded
from repro.sim.stats import Histogram
from repro.trace.records import Direction, OperandRecord, TaskRecord, TaskTrace

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: A small pool of object addresses so random traces contain real conflicts.
ADDRESS_POOL = [0x1000 * (i + 1) for i in range(12)]

operand_strategy = st.builds(
    lambda addr, direction: OperandRecord(address=addr, size=1024, direction=direction),
    st.sampled_from(ADDRESS_POOL),
    st.sampled_from([Direction.INPUT, Direction.OUTPUT, Direction.INOUT]),
)


@st.composite
def trace_strategy(draw, max_tasks: int = 18):
    """Random traces over a small address pool (guaranteed conflicts)."""
    num_tasks = draw(st.integers(min_value=1, max_value=max_tasks))
    tasks = []
    for sequence in range(num_tasks):
        num_operands = draw(st.integers(min_value=1, max_value=4))
        operands = []
        used = set()
        for _ in range(num_operands):
            operand = draw(operand_strategy)
            if operand.address in used:
                continue
            used.add(operand.address)
            operands.append(operand)
        runtime = draw(st.integers(min_value=10, max_value=5000))
        tasks.append(TaskRecord(sequence=sequence, kernel="k", operands=tuple(operands),
                                runtime_cycles=runtime))
    return TaskTrace("random", tasks)


# ---------------------------------------------------------------------------
# Block allocator
# ---------------------------------------------------------------------------

class TestBlockStorageProperties:
    @given(st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=60),
           st.integers(min_value=64, max_value=512))
    def test_allocate_free_conserves_blocks(self, operand_counts, num_blocks):
        storage = BlockStorage(num_blocks=num_blocks)
        live = []
        for count in operand_counts:
            if storage.can_allocate(count):
                live.append(storage.allocate(count))
        assert storage.used_blocks == sum(live)
        for blocks in live:
            storage.free(blocks)
        assert storage.used_blocks == 0

    @given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=19),
                              st.integers(min_value=0, max_value=63)),
                    min_size=1, max_size=80),
           st.integers(min_value=1, max_value=40))
    def test_block_counts_match_a_counting_reference(self, operations,
                                                     num_blocks):
        # Block positions do not exist, so the reference is a count: a task
        # takes 1 + ceil(max(0, operands - 4) / 5) blocks and fits while that
        # many are free.
        storage = BlockStorage(num_blocks=num_blocks)
        used = 0
        live = []
        for allocate, operands, pick in operations:
            if allocate or not live:
                needed = 1 + (max(0, operands - 4) + 4) // 5
                fits = used + needed <= num_blocks
                assert storage.can_allocate(operands) == fits
                if fits:
                    assert storage.allocate(operands) == needed
                    used += needed
                    live.append(needed)
                else:
                    with pytest.raises(AllocationError):
                        storage.allocate(operands)
            else:
                blocks = live.pop(pick % len(live))
                storage.free(blocks)
                used -= blocks
            assert storage.used_blocks == used

    @given(st.integers(min_value=0, max_value=19))
    def test_blocks_for_matches_layout(self, operands):
        storage = BlockStorage(num_blocks=8)
        blocks = storage.blocks_for(operands)
        capacity = 4 + (blocks - 1) * 5
        assert capacity >= operands
        if blocks > 1:
            # The allocation is minimal: one fewer block would not fit.
            assert 4 + (blocks - 2) * 5 < operands


# ---------------------------------------------------------------------------
# Renaming table
# ---------------------------------------------------------------------------

class TestRenamingTableProperties:
    @given(st.lists(st.tuples(st.sampled_from(ADDRESS_POOL), st.booleans()),
                    min_size=1, max_size=80),
           st.integers(min_value=1, max_value=8))
    def test_occupancy_matches_live_entries(self, operations, num_sets):
        table = RenamingTable(num_sets=num_sets, assoc=2)
        live = {}
        version = 0
        overflows = 0
        for address, is_insert in operations:
            if is_insert:
                version += 1
                if address not in live:
                    # A new row in a set already holding ``assoc`` rows.
                    same_set = [a for a in live
                                if table.set_index(a) == table.set_index(address)]
                    overflows += len(same_set) >= table.assoc
                table.insert(address, OperandID(0, 0, 0), version)
                live[address] = version
            else:
                removed = table.remove(address, live.get(address, -1))
                assert removed == (address in live)
                live.pop(address, None)
            # The bookkeeping matches the live entries after every step.
            assert table.occupancy == len(live)
            assert table.overflow_insertions == overflows
            per_set = Counter(table.set_index(a) for a in live)
            pressured = (any(n >= table.assoc for n in per_set.values())
                         or len(live) >= table.capacity)
            assert table.is_pressured() == pressured
        assert {address: version for address, (_user, version)
                in table.entries.items()} == live


# ---------------------------------------------------------------------------
# Version table
# ---------------------------------------------------------------------------

class TestVersionTableProperties:
    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=5))
    def test_release_fires_exactly_when_last_user_leaves(self, readers, extra_releases):
        table = VersionTable(capacity=64)
        producer = OperandID(0, 0, 0)
        version = table.create(0x1000, producer=producer, version_id=0)
        reader_ids = [OperandID(0, i + 1, 0) for i in range(readers)]
        for reader in reader_ids:
            table.add_user(version, reader)
        users = [producer, *reader_ids]
        random.Random(readers).shuffle(users)
        for index, user in enumerate(users):
            dead = table.release_use(user)
            # The reference: the count of users not yet released.
            assert version.usage == len(users) - 1 - index
            if index < len(users) - 1:
                assert dead is None
            else:
                assert dead is version and dead.id == 0
        for _ in range(extra_releases):
            assert table.release_use(producer) is None


# ---------------------------------------------------------------------------
# Dependency graph
# ---------------------------------------------------------------------------

class TestDependencyGraphProperties:
    @given(trace_strategy())
    @settings(max_examples=60, deadline=None)
    def test_edges_point_forward_and_sequential_schedule_is_valid(self, trace):
        graph = build_dependency_graph(trace)
        for edge in graph.edges:
            assert 0 <= edge.producer < edge.consumer < len(trace)
        # Sequential execution is a legal schedule under any dependency policy.
        starts, finishes, clock = {}, {}, 0
        for task in trace:
            starts[task.sequence] = clock
            clock += task.runtime_cycles
            finishes[task.sequence] = clock
        graph.validate_schedule(starts, finishes, renamed=False)
        graph.validate_schedule(starts, finishes, renamed=True)

    @given(trace_strategy())
    @settings(max_examples=60, deadline=None)
    def test_renaming_only_removes_constraints(self, trace):
        graph = build_dependency_graph(trace)
        for task in trace:
            renamed = graph.predecessors(task.sequence, renamed=True)
            full = graph.predecessors(task.sequence, renamed=False)
            assert renamed <= full

    @given(trace_strategy())
    @settings(max_examples=40, deadline=None)
    def test_critical_path_bounds_ideal_schedules(self, trace):
        graph = build_dependency_graph(trace)
        critical = graph.critical_path_cycles()
        total = trace.total_runtime_cycles
        assert critical <= total
        one_core = graph.simulate_ideal_schedule(1)
        many_cores = graph.simulate_ideal_schedule(64)
        assert one_core == total
        assert critical <= many_cores <= one_core


# ---------------------------------------------------------------------------
# Discrete-event engine
# ---------------------------------------------------------------------------

class TestEngineProperties:
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_events_fire_in_time_order_fifo_within_a_cycle(self, delays):
        """Events run sorted by time; equal times preserve schedule order."""
        engine = Engine()
        fired = []
        for index, delay in enumerate(delays):
            engine.schedule(delay, fired.append, (delay, index))
        engine.run()
        assert fired == sorted(fired)  # (time, seq) pairs in heap order
        assert len(fired) == len(delays)
        assert engine.now == max(delay for delay, _ in fired)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                              st.booleans()),
                    min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_cancelled_events_never_fire(self, schedule):
        engine = Engine()
        fired = []
        kept = 0
        for index, (delay, cancel) in enumerate(schedule):
            event = engine.schedule(delay, fired.append, index)
            if cancel:
                event.cancel()
            else:
                kept += 1
        engine.run()
        assert len(fired) == kept == engine.events_processed
        cancelled = {i for i, (_d, cancel) in enumerate(schedule) if cancel}
        assert not cancelled & set(fired)

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                    max_size=40),
           st.integers(min_value=0, max_value=60))
    @settings(max_examples=100, deadline=None)
    def test_run_until_is_exact_and_resumable(self, delays, until):
        """run(until=t) executes exactly the events with time <= t and always
        leaves now == max(now, t), even when the remaining heap is only
        cancelled events."""
        engine = Engine()
        fired = []
        for delay in delays:
            event = engine.schedule(delay, fired.append, delay)
            if delay > until and delay % 2 == 0:
                event.cancel()  # cancelled tail beyond the horizon
        engine.run(until=until)
        assert fired == sorted(d for d in delays if d <= until)
        assert engine.now == until
        engine.run()
        expected = sorted(d for d in delays
                          if d <= until or d % 2 == 1)
        assert fired == expected

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_max_events_limit_is_exact(self, limit):
        engine = Engine(max_events=limit)

        def reschedule():
            engine.schedule(1, reschedule)

        engine.schedule(0, reschedule)
        with pytest.raises(SimulationLimitExceeded):
            engine.run()
        assert engine.events_processed == limit + 1

    @given(st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_max_time_limit_blocks_later_events(self, max_time, event_time):
        engine = Engine(max_time=max_time)
        fired = []
        engine.schedule(event_time, fired.append, event_time)
        if event_time > max_time:
            with pytest.raises(SimulationLimitExceeded):
                engine.run()
            assert fired == []
        else:
            engine.run()
            assert fired == [event_time]


# ---------------------------------------------------------------------------
# Decode-rate law and histograms
# ---------------------------------------------------------------------------

class TestMetricProperties:
    @given(st.floats(min_value=0.5, max_value=1000.0),
           st.integers(min_value=1, max_value=1024),
           st.integers(min_value=1, max_value=1024))
    def test_decode_law_monotonic_in_processors(self, runtime_us, p1, p2):
        if p1 > p2:
            p1, p2 = p2, p1
        assert decode_rate_limit_ns(runtime_us, p1) >= decode_rate_limit_ns(runtime_us, p2)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
    def test_histogram_percentile_bounds(self, values):
        hist = Histogram()
        for value in values:
            hist.add(value)
        assert hist.percentile(0.0) <= hist.percentile(0.5) <= hist.percentile(1.0)
        assert hist.percentile(1.0) == max(values)
        assert min(values) <= hist.mean() <= max(values)


# ---------------------------------------------------------------------------
# End to end: the pipeline always respects true dependencies
# ---------------------------------------------------------------------------

class TestPipelineProperties:
    @given(trace_strategy(max_tasks=14))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_traces_complete_and_respect_dependencies(self, trace):
        result = run_trace(trace, num_cores=4, validate=True)
        assert result.tasks_completed == len(trace)
        assert result.tasks_decoded == len(trace)
        # The makespan can never beat the dataflow limit.
        graph = build_dependency_graph(trace)
        assert result.makespan_cycles >= graph.critical_path_cycles()
