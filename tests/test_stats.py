"""Unit tests for I/O statistics counters."""

import pytest

from repro.storage.stats import IOStats, StatsRegistry


class TestIOStats:
    def test_record_read(self):
        stats = IOStats()
        stats.record_read(1024)
        assert stats.snapshot().block_reads == 1
        assert stats.snapshot().bytes_read == 1024

    def test_record_write(self):
        stats = IOStats()
        stats.record_write(512)
        assert stats.snapshot().block_writes == 1
        assert stats.snapshot().bytes_written == 512

    def test_totals(self):
        stats = IOStats()
        stats.record_read(10)
        stats.record_write(20)
        stats.record_metadata_read()
        stats.record_metadata_write()
        assert stats.total_ops == 4
        assert stats.total_bytes == 30

    def test_reset_zeroes_everything(self):
        stats = IOStats()
        stats.record_read(10)
        stats.record_allocation()
        stats.reset()
        assert stats.total_ops == 0
        assert stats.snapshot().allocations == 0

    def test_snapshot_is_independent(self):
        stats = IOStats()
        stats.record_read(10)
        snap = stats.snapshot()
        stats.record_read(10)
        assert snap.block_reads == 1
        assert stats.snapshot().block_reads == 2

    def test_delta(self):
        stats = IOStats()
        stats.record_read(10)
        earlier = stats.snapshot()
        stats.record_read(10)
        stats.record_write(5)
        diff = stats.delta(earlier)
        assert diff.block_reads == 1
        assert diff.block_writes == 1
        assert diff.bytes_written == 5


class TestStatsRegistry:
    def test_register_and_get(self):
        registry = StatsRegistry()
        stats = registry.register("node0")
        assert registry.get("node0") is stats

    def test_duplicate_registration_rejected(self):
        registry = StatsRegistry()
        registry.register("node0")
        with pytest.raises(ValueError):
            registry.register("node0")

    def test_aggregate_sums_components(self):
        registry = StatsRegistry()
        registry.register("a").record_read(10)
        registry.register("b").record_read(20)
        registry.get("b").record_write(5)
        total = registry.total()
        assert total.block_reads == 2
        assert total.bytes_read == 30
        assert total.bytes_written == 5

    def test_reset_all(self):
        registry = StatsRegistry()
        registry.register("a").record_read(10)
        registry.reset_all()
        assert registry.total().total_ops == 0
