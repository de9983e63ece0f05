"""Tests for the analysis helpers (decode-rate law, aggregates)."""

import pytest

from repro.analysis.metrics import (
    arithmetic_mean,
    decode_rate_limit_ns,
    geometric_mean,
    ideal_utilization,
    max_processors_for_decode_rate,
    speedup,
)
from repro.common.errors import WorkloadError


class TestDecodeRateLaw:
    def test_section2_headline_numbers(self):
        # 15 us shortest tasks on a 256-way CMP -> ~58 ns/task.
        assert decode_rate_limit_ns(15, 256) == pytest.approx(58.6, abs=0.1)
        # MatMul: 23 us tasks -> 90 ns at 256 processors (Table I).
        assert decode_rate_limit_ns(23, 256) == pytest.approx(89.8, abs=0.5)

    def test_table1_limits(self):
        # Spot-check a few Table I decode-limit entries (the paper rounds up).
        assert decode_rate_limit_ns(16, 256) == pytest.approx(63, abs=1)   # Cholesky
        assert decode_rate_limit_ns(2, 256) == pytest.approx(8, abs=1)     # H264
        assert decode_rate_limit_ns(1, 256) == pytest.approx(4, abs=1)     # STAP

    def test_law_scales_inversely_with_processors(self):
        assert decode_rate_limit_ns(15, 128) == pytest.approx(2 * decode_rate_limit_ns(15, 256))

    def test_software_decoder_saturation_point(self):
        # A 700 ns decoder with 15 us tasks keeps ~21 processors busy.
        assert max_processors_for_decode_rate(15, 700) == 21
        # The Cell BE port at ~2.5 us/task supports only ~6.
        assert max_processors_for_decode_rate(15, 2500) == 6

    def test_ideal_utilization(self):
        assert ideal_utilization(15, 58, 256) == pytest.approx(1.0, abs=0.02)
        assert ideal_utilization(15, 700, 256) == pytest.approx(58.6 / 700, abs=0.01)
        assert ideal_utilization(15, 700, 16) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(WorkloadError):
            decode_rate_limit_ns(0, 256)
        with pytest.raises(WorkloadError):
            decode_rate_limit_ns(15, 0)
        with pytest.raises(WorkloadError):
            ideal_utilization(15, 0, 16)


class TestAggregates:
    def test_speedup(self):
        assert speedup(1000, 250) == pytest.approx(4.0)
        with pytest.raises(WorkloadError):
            speedup(1000, 0)

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(WorkloadError):
            geometric_mean([1.0, -1.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert arithmetic_mean([]) == 0.0
