"""Tests for protocol IDs, hashing helpers and configuration dataclasses."""

import pytest

from repro.common.config import (
    CMPConfig,
    FrontendConfig,
    MemoryConfig,
    SimulationConfig,
    SoftwareRuntimeConfig,
    TaskGeneratorConfig,
    default_table2_config,
)
from repro.common.errors import ConfigurationError
from repro.common.hashing import bucket_for, mix64
from repro.common.ids import OperandID, TaskID
from repro.common.units import KB, MB


class TestIDs:
    def test_task_id_fields(self):
        task = TaskID(1, 17)
        assert task.trs == 1
        assert task.slot == 17
        assert str(task) == "<1,17>"

    def test_operand_derivation_matches_paper_example(self):
        # Section IV.A: the first operand of task <1,17> is <1,17,0>.
        task = TaskID(1, 17)
        operand = task.operand(0)
        assert operand == OperandID(1, 17, 0)
        assert operand.task == task
        assert str(operand) == "<1,17,0>"

    def test_ids_are_hashable_and_ordered(self):
        ids = {TaskID(0, 1), TaskID(0, 1), TaskID(1, 0)}
        assert len(ids) == 2
        assert TaskID(0, 1) < TaskID(1, 0)
        assert OperandID(0, 1, 2) < OperandID(0, 1, 3)


class TestHashing:
    def test_mix64_is_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_mix64_spreads_aligned_addresses(self):
        # Block-aligned addresses (the common workload case) must not all land
        # in the same bucket -- this is the regression that motivated mix64.
        addresses = [0x1000_0000 + i * 16 * KB for i in range(256)]
        buckets = {bucket_for(a, 512, salt=1) for a in addresses}
        assert len(buckets) > 100

    def test_bucket_for_range(self):
        for value in range(0, 10_000, 97):
            assert 0 <= bucket_for(value, 7) < 7

    def test_bucket_for_rejects_empty(self):
        with pytest.raises(ValueError):
            bucket_for(1, 0)

    def test_salts_decorrelate(self):
        values = [0x1000_0000 + i * 64 for i in range(128)]
        same = sum(1 for v in values if bucket_for(v, 16, salt=0) == bucket_for(v, 16, salt=1))
        assert same < len(values)


class TestCMPConfig:
    def test_table2_defaults(self):
        cmp = CMPConfig()
        assert cmp.num_cores == 256
        assert cmp.clock_ghz == pytest.approx(3.2)
        assert cmp.l1_size_bytes == 64 * KB
        assert cmp.l1_assoc == 4
        assert cmp.l1_latency_cycles == 3
        assert cmp.l2_banks == 32
        assert cmp.l2_bank_size_bytes == 4 * MB
        assert cmp.l2_latency_cycles == 22

    def test_invalid_core_count(self):
        with pytest.raises(ConfigurationError):
            CMPConfig(num_cores=0).validate()

    def test_l1_geometry_must_divide(self):
        with pytest.raises(ConfigurationError):
            CMPConfig(l1_size_bytes=1000).validate()


class TestFrontendConfig:
    def test_default_operating_point(self):
        fe = FrontendConfig()
        assert fe.num_trs == 8
        assert fe.num_ort == 2
        assert fe.total_trs_capacity_bytes == 6 * MB
        assert fe.total_ort_capacity_bytes == 512 * KB
        # Section IV: ~7 MB of eDRAM overall.
        assert fe.total_edram_bytes == 7 * MB

    def test_max_operands_is_19(self):
        # Figure 11: main block holds 4 operands, 3 indirect blocks of 5 each.
        assert FrontendConfig().max_operands_per_task == 19

    def test_derived_per_module_quantities(self):
        fe = FrontendConfig()
        assert fe.trs_capacity_per_module_bytes == 6 * MB // 8
        assert fe.trs_blocks_per_module == 6 * MB // 8 // 128
        assert fe.ort_entries_per_module == 512 * KB // 2 // 32
        assert fe.ort_sets_per_module == fe.ort_entries_per_module // 16

    def test_ovt_must_match_ort_count(self):
        # Each OVT pairs with one ORT (Section IV): num_ort is the OVT count,
        # and there is no separate knob that could disagree with it.
        fe = FrontendConfig(num_ort=4)
        assert fe.ovt_capacity_per_module_bytes == fe.total_ovt_capacity_bytes // 4
        with pytest.raises(TypeError):
            FrontendConfig(num_ort=2, num_ovt=4)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            FrontendConfig(total_trs_capacity_bytes=64).validate()


class TestOtherConfigs:
    def test_memory_channels(self):
        mem = MemoryConfig()
        mem.validate()
        assert (mem.num_controllers, mem.channels_per_controller) == (4, 2)

    def test_generator_cost_scales_with_operands(self):
        gen = TaskGeneratorConfig(cycles_per_task=100, cycles_per_operand=10)
        assert gen.generation_cycles(0) == 100
        assert gen.generation_cycles(5) == 150

    def test_software_defaults_match_section2(self):
        sw = SoftwareRuntimeConfig()
        assert sw.decode_ns_per_task == pytest.approx(700.0)


class TestSimulationConfig:
    def test_default_validates(self):
        default_table2_config().validate()

    def test_with_cores_copies(self):
        base = default_table2_config(256)
        small = base.with_cores(32)
        assert small.cmp.num_cores == 32
        assert base.cmp.num_cores == 256

    def test_with_frontend_overrides(self):
        cfg = default_table2_config().with_frontend(num_trs=4, num_ort=1)
        assert cfg.frontend.num_trs == 4
        assert cfg.frontend.num_ort == 1

    def test_describe_contains_table2_rows(self):
        rows = default_table2_config().describe()
        assert set(rows) == {"Cores", "L1", "L2", "Memory", "Interconnect", "Task pipeline"}
        assert "256 cores" in rows["Cores"]
        assert "64KB" in rows["L1"]
        assert "32 banks" in rows["L2"]
