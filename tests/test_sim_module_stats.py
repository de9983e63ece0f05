"""Tests for PacketProcessor serialisation, stalling and statistics."""

import pytest

from repro.sim.engine import Engine
from repro.sim.module import PacketProcessor, SimModule
from repro.sim.stats import Accumulator, Histogram, Sampler, StatsCollector


class RecordingProcessor(PacketProcessor):
    """A processor that records (packet, completion time) pairs."""

    def __init__(self, engine, name="proc", per_packet=10):
        super().__init__(engine, name)
        self.per_packet = per_packet
        self.handled = []

    def service_time(self, packet):
        return self.per_packet

    def handle(self, packet):
        self.handled.append((packet, self.now))


class TestPacketProcessor:
    def test_packets_are_serialised(self):
        engine = Engine()
        proc = RecordingProcessor(engine, per_packet=10)
        for i in range(3):
            proc.receive(i)
        engine.run()
        # One at a time: completions at 10, 20, 30.
        assert [time for _p, time in proc.handled] == [10, 20, 30]
        assert [p for p, _t in proc.handled] == [0, 1, 2]
        assert proc.busy_cycles == 30

    def test_send_applies_latency(self):
        engine = Engine()
        sender = SimModule(engine, "sender")
        proc = RecordingProcessor(engine, per_packet=5)
        sender.send(proc, "hello", latency=20)
        engine.run()
        assert proc.handled == [("hello", 25)]

    def test_stall_blocks_service_until_unstalled(self):
        engine = Engine()
        proc = RecordingProcessor(engine, per_packet=10)
        proc.stall()
        proc.receive("queued")
        engine.run()
        assert proc.handled == []
        assert proc.queue_length == 1
        proc.unstall()
        engine.run()
        assert [p for p, _t in proc.handled] == ["queued"]

    def test_negative_service_time_rejected(self):
        engine = Engine()
        proc = RecordingProcessor(engine, per_packet=-1)
        # Service starts synchronously when the processor is idle, so the
        # error surfaces on the receive call itself.
        with pytest.raises(ValueError):
            proc.receive("bad")

    def test_stats_counters_track_packets(self):
        engine = Engine()
        stats = StatsCollector()
        proc = RecordingProcessor(engine, per_packet=1)
        proc.stats = stats
        for i in range(4):
            proc.receive(i)
        engine.run()
        assert stats.counter("proc.packets_received") == 4
        assert stats.counter("proc.packets_processed") == 4

    def test_stall_counter_is_idempotent(self):
        # Regression: repeated back-pressure signals while already stalled
        # used to inflate the stall statistic; one episode is one count.
        engine = Engine()
        proc = RecordingProcessor(engine)
        proc.stall()
        proc.stall()
        proc.stall()
        assert proc.stats.counter("proc.stalls") == 1
        proc.unstall()
        proc.stall()
        assert proc.stats.counter("proc.stalls") == 2

    def test_utilization_and_recording(self):
        engine = Engine()
        proc = RecordingProcessor(engine, per_packet=10)
        for i in range(3):
            proc.receive(i)
        engine.run()  # busy 30 cycles total
        assert proc.utilization(60) == pytest.approx(0.5)
        assert proc.utilization(0) == 0.0
        proc.record_utilization(60)
        assert proc.stats.summary()["proc.utilization.mean"] == pytest.approx(0.5)


class TestStatsCollector:
    def test_counters_default_to_zero(self):
        stats = StatsCollector()
        assert stats.counter("missing") == 0
        stats.count("hits", 3)
        stats.count("hits")
        assert stats.counter("hits") == 4

    def test_accumulator_statistics(self):
        acc = Accumulator()
        for value in (2.0, 4.0, 6.0):
            acc.add(value)
        assert acc.count == 3
        assert acc.mean == pytest.approx(4.0)
        assert acc.maximum == 6.0

    def test_record_and_mean(self):
        stats = StatsCollector()
        assert stats.mean("empty") == 0.0
        stats.record("x", 10)
        stats.record("x", 20)
        assert stats.mean("x") == pytest.approx(15.0)

    def test_summary_includes_counters_and_means(self):
        stats = StatsCollector()
        stats.count("a", 2)
        stats.record("b", 3.0)
        summary = stats.summary()
        assert summary["a"] == 2.0
        assert summary["b.mean"] == pytest.approx(3.0)

    def test_summary_includes_histograms_and_sample_counts(self):
        # Histograms and time series used to be silently dropped.
        stats = StatsCollector()
        stats.observe("chain.length", 1, weight=95)
        stats.observe("chain.length", 7, weight=5)
        stats.sample("window", 10, 3.0)
        stats.sample("window", 20, 5.0)
        summary = stats.summary()
        assert summary["chain.length.count"] == 100.0
        assert summary["chain.length.mean"] == pytest.approx(1.3)
        assert summary["chain.length.p95"] == 1.0
        assert summary["chain.length.max"] == 7.0
        assert summary["window.samples"] == 2.0

    def test_summary_emits_histogram_max(self):
        # Regression: accumulators reported <name>.max but histograms never
        # did, so reports could not quote a histogram's largest observation.
        stats = StatsCollector()
        stats.observe("depth", 2)
        stats.observe("depth", 9)
        summary = stats.summary()
        assert summary["depth.max"] == 9.0
        empty = StatsCollector()
        empty.histogram_handle("never")
        assert empty.summary()["never.max"] == 0.0

    def test_summary_collision_rule_accumulator_wins_shared_keys(self):
        # Asserts the documented collision rule: when one name is both an
        # accumulator and a histogram, the accumulator owns the shared
        # <name>.mean / <name>.max keys (the histogram must not silently
        # overwrite them), while <name>.count and <name>.p95 always report
        # the histogram.
        stats = StatsCollector()
        stats.record("shared", 100.0)
        stats.record("shared", 200.0)
        stats.observe("shared", 1, weight=3)
        stats.observe("shared", 5)
        summary = stats.summary()
        assert summary["shared.mean"] == pytest.approx(150.0)  # accumulator
        assert summary["shared.max"] == 200.0                  # accumulator
        assert summary["shared.count"] == 4.0                  # histogram
        assert summary["shared.p95"] == 5.0                    # histogram

    def test_counter_handle_shares_the_cell_with_string_api(self):
        stats = StatsCollector()
        handle = stats.counter_handle("hits")
        handle.add()
        handle.add(2)
        stats.count("hits", 4)
        assert stats.counter("hits") == 7
        assert stats.counter_handle("hits") is handle
        assert stats.counters["hits"] == 7

    def test_accumulator_and_histogram_handles(self):
        stats = StatsCollector()
        acc = stats.accumulator_handle("x")
        acc.add(10.0)
        stats.record("x", 20.0)
        assert stats.mean("x") == pytest.approx(15.0)
        hist = stats.histogram_handle("h")
        hist.add(3)
        stats.observe("h", 5)
        assert stats.histograms["h"].count == 2

    def test_sampler_handle_appends_to_the_series(self):
        stats = StatsCollector()
        sampler = stats.sampler_handle("occupancy")
        sampler.add(5, 1.0)
        stats.sample("occupancy", 9, 2.0)
        assert stats.samples["occupancy"] == [(5, 1.0), (9, 2.0)]

    def test_reassigning_module_stats_rebinds_handles(self):
        # PacketProcessor binds its counter handles at construction; swapping
        # the collector afterwards must re-point them at the new one.
        engine = Engine()
        proc = RecordingProcessor(engine)
        replacement = StatsCollector()
        proc.stats = replacement
        proc.stall()
        assert replacement.counter("proc.stalls") == 1
        assert proc.stats is replacement


class TestSamplerMemoryCap:
    def test_decimation_keeps_series_bounded_and_spanning(self):
        stats = StatsCollector(sample_cap=8)
        sampler = stats.sampler_handle("occ")
        for i in range(64):
            sampler.add(i, float(i))
        entries = stats.samples["occ"]
        # The cap bounds memory; every retained + dropped sample was offered.
        assert len(entries) <= 8
        assert len(entries) + sampler.dropped == 64
        # Decimation thins uniformly, so the retained series still spans the
        # run at a coarser stride (first sample kept, last near the end).
        assert entries[0] == (0, 0.0)
        assert entries[-1][0] >= 64 - sampler.stride
        times = [time for time, _ in entries]
        assert times == sorted(times)

    def test_decimation_preserves_list_identity(self):
        # Views handed out via stats.samples[name] must stay valid across
        # decimation (it mutates the list in place, never reassigns it).
        stats = StatsCollector(sample_cap=4)
        view = stats.samples["occ"]
        sampler = stats.sampler_handle("occ")
        for i in range(16):
            sampler.add(i, 1.0)
        assert stats.samples["occ"] is view
        assert sampler.dropped > 0

    def test_summary_reports_dropped_samples(self):
        stats = StatsCollector(sample_cap=4)
        sampler = stats.sampler_handle("occ")
        for i in range(10):
            sampler.add(i, 1.0)
        summary = stats.summary()
        assert summary["occ.samples"] == float(len(stats.samples["occ"]))
        assert summary["occ.samples_dropped"] == float(sampler.dropped)
        assert summary["occ.samples"] + summary["occ.samples_dropped"] == 10.0

    def test_shared_handle_keeps_one_stride(self):
        # Two call sites recording into one series must share the sampler
        # (otherwise their strides diverge and the decimation breaks).
        stats = StatsCollector(sample_cap=4)
        assert stats.sampler_handle("occ") is stats.sampler_handle("occ")

    def test_cap_must_allow_decimation(self):
        with pytest.raises(ValueError):
            Sampler([], cap=1)


class TestHistogram:
    def test_percentiles_match_paper_style_claims(self):
        # "95% of the chains are no more than 2 tasks long".
        hist = Histogram()
        hist.add(1, weight=80)
        hist.add(2, weight=15)
        hist.add(7, weight=5)
        assert hist.percentile(0.95) == 2
        assert hist.max() == 7
        assert hist.count == 100
        assert hist.mean() == pytest.approx((80 + 30 + 35) / 100)

    def test_percentile_bounds(self):
        hist = Histogram()
        hist.add(3)
        assert hist.percentile(0.0) == 3
        assert hist.percentile(1.0) == 3
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(0.5)
        with pytest.raises(ValueError):
            Histogram().max()
        assert Histogram().mean() == 0.0

    def test_summary_emits_p50_and_p99_alongside_p95(self):
        stats = StatsCollector()
        for value in range(1, 101):
            stats.observe("latency", value)
        summary = stats.summary()
        assert summary["latency.p50"] == 50.0
        assert summary["latency.p95"] == 95.0
        assert summary["latency.p99"] == 99.0
        # An empty histogram still emits the keys (as zeros), so report
        # schemas stay stable whether or not anything was observed.
        empty = StatsCollector()
        empty.histogram_handle("never")
        for suffix in ("p50", "p95", "p99"):
            assert empty.summary()[f"never.{suffix}"] == 0.0
