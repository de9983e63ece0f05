"""Module-level tests for the frontend tiles (gateway, ORT, OVT, TRS).

The pipeline integration tests (test_frontend_pipeline.py) exercise the
protocol end to end; the tests here poke individual modules through a small
assembled frontend so that specific flows of Figures 6-10 can be checked in
isolation: allocation replies, operand-info routing, renaming requests,
version release, consumer-chain registration and the completion path.
"""

from __future__ import annotations

import pytest

from repro.common.config import FrontendConfig
from repro.common.errors import ProtocolError
from repro.common.ids import OperandID, TaskID
from repro.frontend.messages import (
    DataReady,
    OperandDecodeRequest,
    ReadyKind,
    RegisterConsumer,
    TaskFinished,
)
from repro.frontend.pipeline import TaskSuperscalarFrontend
from repro.sim.engine import Engine
from repro.trace.records import Direction, OperandRecord, TaskRecord


def small_frontend(num_trs=2, num_ort=1, **overrides):
    """An assembled frontend on a fresh engine, with tiny-but-valid storage."""
    engine = Engine()
    settings = dict(num_trs=num_trs, num_ort=num_ort,
                    total_trs_capacity_bytes=64 * 1024,
                    total_ort_capacity_bytes=32 * 1024,
                    total_ovt_capacity_bytes=32 * 1024)
    settings.update(overrides)
    frontend = TaskSuperscalarFrontend(engine, FrontendConfig(**settings))
    return engine, frontend


def record(sequence, operands, runtime=1000):
    return TaskRecord(sequence=sequence, kernel="k", operands=tuple(operands),
                      runtime_cycles=runtime)


def mem(address, direction, size=1024):
    return OperandRecord(address=address, size=size, direction=direction)


class TestGateway:
    def test_allocation_assigns_trs_slot_and_issues_operands(self):
        engine, frontend = small_frontend()
        task = record(0, [mem(0x1000, Direction.OUTPUT)])
        assert frontend.try_submit(task)
        engine.run()
        # The task landed in exactly one TRS and decoded fully.
        assert sum(trs.stats.counter(f"{trs.name}.tasks_allocated")
                   for trs in frontend.trs_list) == 1
        assert frontend.tasks_decoded == 1
        assert len(frontend.ready_queue) == 1

    def test_buffer_capacity_enforced(self):
        engine, frontend = small_frontend(gateway_buffer_tasks=2)
        for i in range(2):
            assert frontend.try_submit(record(i, [mem(0x1000 + i * 0x1000,
                                                      Direction.OUTPUT)]))
        # Third submission is refused until the gateway drains.
        assert not frontend.try_submit(record(2, [mem(0x9000, Direction.OUTPUT)]))
        called = []
        frontend.notify_when_space(lambda: called.append(True))
        engine.run()
        assert called == [True]
        assert frontend.try_submit(record(2, [mem(0x9000, Direction.OUTPUT)]))

    def test_round_robin_across_trs(self):
        engine, frontend = small_frontend(num_trs=2)
        for i in range(4):
            frontend.try_submit(record(i, [mem(0x1000 * (i + 1), Direction.OUTPUT)]))
        engine.run()
        per_trs = [trs.stats.counter(f"{trs.name}.tasks_allocated")
                   for trs in frontend.trs_list]
        assert sorted(per_trs) == [2, 2]

    def test_scalars_bypass_the_orts(self):
        engine, frontend = small_frontend()
        scalar = OperandRecord(address=0, size=8, direction=Direction.INPUT,
                               is_scalar=True)
        frontend.try_submit(record(0, [scalar, scalar]))
        engine.run()
        assert frontend.orts[0].stats.counter("ort0.packets_received") == 0
        assert len(frontend.ready_queue) == 1


class TestORTAndOVT:
    def test_output_operand_is_renamed_and_ready(self, monkeypatch):
        engine, frontend = small_frontend(num_trs=1)
        trs = frontend.trs_list[0]
        ready = []
        serve = trs.receive

        def spy(packet):
            if isinstance(packet, DataReady):
                ready.append(packet)
            serve(packet)

        monkeypatch.setattr(trs, "receive", spy)
        frontend.try_submit(record(0, [mem(0x2000, Direction.OUTPUT)]))
        engine.run()
        assert frontend.ovts[0].stats.counter("ovt0.renames") == 1
        # The rename is the operand's only data-ready: its output buffer.
        assert ready == [DataReady(operand=OperandID(0, 0, 0),
                                   kind=ReadyKind.OUTPUT_BUFFER)]
        assert len(frontend.ready_queue) == 1

    def test_reader_miss_creates_version_and_is_immediately_ready(self):
        engine, frontend = small_frontend()
        frontend.try_submit(record(0, [mem(0x3000, Direction.INPUT)]))
        engine.run()
        ort = frontend.orts[0]
        assert ort.stats.counter("ort0.reader_misses") == 1
        assert frontend.ovts[0].table.live_versions == 1
        assert len(frontend.ready_queue) == 1

    def test_version_released_when_users_finish(self):
        engine, frontend = small_frontend()
        producer = record(0, [mem(0x4000, Direction.OUTPUT)])
        reader = record(1, [mem(0x4000, Direction.INPUT)])
        frontend.try_submit(producer)
        frontend.try_submit(reader)
        engine.run()
        ovt = frontend.ovts[0]
        assert ovt.table.live_versions >= 1
        # Finish the producer first (the reader only becomes ready once the
        # producer's data has been forwarded), then the reader; afterwards all
        # versions of the object must be reclaimed and the ORT entry released.
        frontend.notify_finished(TaskID(0, 0))
        engine.run()
        frontend.notify_finished(TaskID(1, 0))
        engine.run()
        assert ovt.table.live_versions == 0
        assert frontend.orts[0].table.occupancy == 0

    def test_ort_pressure_stalls_and_releases_gateway(self):
        engine, frontend = small_frontend(num_trs=1,
                                          total_ort_capacity_bytes=1024,
                                          total_ovt_capacity_bytes=1024,
                                          ort_assoc=2)
        # Enough distinct objects to exceed a 2-way set somewhere.
        for i in range(12):
            frontend.try_submit(record(i, [mem(0x10000 + i * 0x1000, Direction.OUTPUT)]))
        engine.run()
        gateway_stalls = frontend.stats.counter("ort0.gateway_stalls")
        assert gateway_stalls >= 1
        # Finishing every task releases the versions and clears the pressure.
        for trs in frontend.trs_list:
            for slot in list(trs._tasks):
                frontend.notify_finished(TaskID(trs.index, slot))
        engine.run()
        assert not frontend.gateway.is_stalled


class TestTRS:
    def test_register_consumer_then_finish_forwards_data(self):
        engine, frontend = small_frontend(num_trs=1)
        producer = record(0, [mem(0x5000, Direction.OUTPUT)])
        consumer = record(1, [mem(0x5000, Direction.INPUT)])
        frontend.try_submit(producer)
        frontend.try_submit(consumer)
        engine.run()
        trs = frontend.trs_list[0]
        # Both tasks decoded; the consumer is waiting for the producer's data.
        assert frontend.tasks_decoded == 2
        assert len(frontend.ready_queue) == 1
        assert trs.stats.counter("trs0.consumer_registrations") == 1
        # Finishing the producer forwards data-ready and readies the consumer.
        frontend.notify_finished(TaskID(0, 0))
        engine.run()
        assert len(frontend.ready_queue) == 2

    def test_duplicate_chain_registration_rejected(self):
        engine, frontend = small_frontend(num_trs=1)
        frontend.try_submit(record(0, [mem(0x6000, Direction.OUTPUT)]))
        engine.run()
        trs = frontend.trs_list[0]
        target = OperandID(0, 0, 0)
        trs.receive(RegisterConsumer(target=target, consumer=OperandID(0, 5, 0)))
        engine.run()
        trs.receive(RegisterConsumer(target=target, consumer=OperandID(0, 6, 0)))
        with pytest.raises(ProtocolError):
            engine.run()

    def test_data_ready_for_unknown_operand_rejected(self):
        engine, frontend = small_frontend(num_trs=1)
        trs = frontend.trs_list[0]
        trs.receive(DataReady(operand=OperandID(0, 99, 0), kind=ReadyKind.INPUT_DATA))
        with pytest.raises(ProtocolError):
            engine.run()

    def test_finish_frees_storage_blocks(self):
        engine, frontend = small_frontend(num_trs=1)
        frontend.try_submit(record(0, [mem(0x7000, Direction.OUTPUT)]))
        engine.run()
        trs = frontend.trs_list[0]
        used_before = trs.storage.used_blocks
        assert used_before > 0
        frontend.notify_finished(TaskID(0, 0))
        engine.run()
        assert trs.storage.used_blocks == 0
        assert trs.inflight_tasks == 0

    def test_finish_before_ready_is_a_protocol_error(self):
        engine, frontend = small_frontend(num_trs=1)
        producer = record(0, [mem(0x8000, Direction.OUTPUT)])
        consumer = record(1, [mem(0x8000, Direction.INPUT)])
        frontend.try_submit(producer)
        frontend.try_submit(consumer)
        engine.run()
        # The consumer (slot 1) is still waiting for data; finishing it now is
        # a backend bug the TRS must catch.
        frontend.notify_finished(TaskID(0, 1))
        with pytest.raises(ProtocolError):
            engine.run()


class TestProtocolErrors:
    @pytest.mark.parametrize("module", ["gateway", "trs", "ort", "ovt",
                                        "ready_queue"])
    def test_unexpected_packet_rejected(self, module):
        engine, frontend = small_frontend(num_trs=1)
        target = {"gateway": frontend.gateway, "trs": frontend.trs_list[0],
                  "ort": frontend.orts[0], "ovt": frontend.ovts[0],
                  "ready_queue": frontend.ready_queue}[module]
        # A decode request is an ORT packet; every other module rejects it.
        packet = OperandDecodeRequest(operand=OperandID(0, 0, 0),
                                      direction=Direction.INPUT,
                                      address=0x1000)
        if module == "ort":
            packet = DataReady(operand=OperandID(0, 0, 0),
                               kind=ReadyKind.INPUT_DATA)
        with pytest.raises(ProtocolError,
                           match=f"^{target.name} received unexpected packet"):
            target.receive(packet)


class TestDecodeMeasurement:
    def test_decode_rate_counts_intervals(self):
        engine, frontend = small_frontend()
        for i in range(5):
            frontend.try_submit(record(i, [mem(0x1000 * (i + 1), Direction.OUTPUT)]))
        engine.run()
        assert frontend.tasks_decoded == 5
        assert frontend.decode_rate_cycles() > 0
        # With fewer than two decodes the rate is undefined and reported as 0.
        engine2, frontend2 = small_frontend()
        frontend2.try_submit(record(0, [mem(0x1000, Direction.OUTPUT)]))
        engine2.run()
        assert frontend2.decode_rate_cycles() == 0.0

    def test_window_occupancy_tracks_inflight_tasks(self):
        engine, frontend = small_frontend()
        for i in range(3):
            frontend.try_submit(record(i, [mem(0x1000 * (i + 1), Direction.OUTPUT)]))
        engine.run()
        assert frontend.window_occupancy() == 3
        assert sum(trs.storage.used_blocks for trs in frontend.trs_list) == 3
        frontend.notify_finished(TaskID(0, 0))
        engine.run()
        assert frontend.window_occupancy() == 2
