"""Unit tests for the CompressDB engine facade."""

import pytest

from repro.core.engine import FileExistsInEngine, FileNotFoundInEngine


class TestNamespace:
    def test_create_and_exists(self, engine):
        engine.create("/a")
        assert engine.exists("/a")
        assert not engine.exists("/b")

    def test_create_duplicate_raises(self, engine):
        engine.create("/a")
        with pytest.raises(FileExistsInEngine):
            engine.create("/a")

    def test_unlink(self, engine):
        engine.create("/a")
        engine.unlink("/a")
        assert not engine.exists("/a")

    def test_unlink_missing_raises(self, engine):
        with pytest.raises(FileNotFoundInEngine):
            engine.unlink("/missing")

    def test_unlink_releases_blocks(self, engine):
        engine.create("/a")
        engine.ops.append("/a", b"x" * 300)
        assert engine.physical_data_blocks() > 0
        engine.unlink("/a")
        assert engine.physical_data_blocks() == 0

    def test_rename(self, engine):
        engine.create("/a")
        engine.ops.append("/a", b"payload")
        engine.rename("/a", "/b")
        assert not engine.exists("/a")
        assert engine.read_file("/b") == b"payload"

    def test_rename_over_existing_raises(self, engine):
        engine.create("/a")
        engine.create("/b")
        with pytest.raises(FileExistsInEngine):
            engine.rename("/a", "/b")

    def test_list_files_with_prefix(self, engine):
        for path in ("/x/1", "/x/2", "/y/1"):
            engine.create(path)
        assert engine.list_files("/x/") == ["/x/1", "/x/2"]


class TestPosixReadWrite:
    def test_write_then_read(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"hello world")
        assert engine.read("/f", 0, 100) == b"hello world"

    def test_overwrite_middle(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"aaaaaaaaaa")
        engine.write("/f", 3, b"BBB")
        assert engine.read_file("/f") == b"aaaBBBaaaa"

    def test_write_past_end_extends(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"ab")
        engine.write("/f", 5, b"cd")
        assert engine.read_file("/f") == b"ab\x00\x00\x00cd"

    def test_read_past_end_is_short(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"abc")
        assert engine.read("/f", 2, 100) == b"c"
        assert engine.read("/f", 3, 100) == b""

    def test_write_spanning_many_blocks(self, engine):
        engine.create("/f")
        payload = bytes(range(256)) * 4  # 1024 bytes over 64-byte blocks
        engine.write("/f", 0, payload)
        assert engine.read_file("/f") == payload
        engine.check_invariants()

    def test_truncate_shrink(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"0123456789")
        engine.truncate("/f", 4)
        assert engine.read_file("/f") == b"0123"

    def test_truncate_grow_zero_fills(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"ab")
        engine.truncate("/f", 5)
        assert engine.read_file("/f") == b"ab\x00\x00\x00"

    def test_write_file_replaces(self, engine):
        engine.write_file("/f", b"first")
        engine.write_file("/f", b"second")
        assert engine.read_file("/f") == b"second"


class TestSpaceAccounting:
    def test_dedup_across_files(self, engine):
        block = b"R" * engine.block_size
        engine.write_file("/a", block * 4)
        engine.write_file("/b", block * 4)
        assert engine.physical_data_blocks() == 1
        assert engine.compression_ratio() == pytest.approx(8.0)

    def test_ratio_of_unique_data_is_about_one(self, engine):
        payload = bytes(range(256))[: engine.block_size]
        engine.write_file("/a", payload)
        assert engine.compression_ratio() == pytest.approx(1.0)

    def test_empty_engine_ratio_is_one(self, engine):
        assert engine.compression_ratio() == 1.0

    def test_memory_report_keys(self, engine):
        engine.write_file("/a", b"data" * 50)
        report = engine.memory_report()
        assert report["blockHashTable_bytes"] > 0
        assert report["total_bytes"] >= report["blockHole_bytes"]


class TestRemount:
    def test_remount_preserves_data(self, engine):
        engine.write_file("/a", b"survives remount " * 20)
        engine.ops.insert("/a", 5, b"HOLE!")  # create holes + shared blocks
        before = engine.read_file("/a")
        scanned = engine.remount()
        assert scanned == engine.physical_data_blocks()
        assert engine.read_file("/a") == before
        engine.check_invariants()

    def test_remount_rebuilds_dedup_lookup(self, engine):
        block = b"Z" * engine.block_size
        engine.write_file("/a", block)
        engine.remount()
        engine.write_file("/b", block)
        assert engine.physical_data_blocks() == 1

    def test_operations_work_after_remount(self, engine):
        engine.write_file("/a", b"before remount")
        engine.remount()
        engine.ops.append("/a", b" and after")
        assert engine.read_file("/a") == b"before remount and after"
        engine.check_invariants()


class TestInvariantChecker:
    def test_detects_refcount_corruption(self, engine):
        engine.write_file("/a", b"x" * 100)
        block = engine.inode("/a").slot_at(0).block_no
        engine.refcount.set(block, 99)
        with pytest.raises(AssertionError):
            engine.check_invariants()

    def test_clean_engine_passes(self, engine):
        for i in range(5):
            engine.write_file(f"/f{i}", b"common content " * 10)
        engine.check_invariants()


class TestReflinkCopy:
    def test_copy_shares_all_blocks(self, engine):
        engine.write_file("/src", bytes(range(256)))
        blocks_before = engine.physical_data_blocks()
        writes_before = engine.device.stats.snapshot().block_writes
        engine.copy_file("/src", "/dst")
        assert engine.read_file("/dst") == bytes(range(256))
        assert engine.physical_data_blocks() == blocks_before
        assert engine.device.stats.snapshot().block_writes == writes_before  # zero data I/O
        engine.check_invariants()

    def test_copies_diverge_on_write(self, engine):
        engine.write_file("/src", b"shared content " * 20)
        engine.copy_file("/src", "/dst")
        engine.ops.replace("/dst", 0, b"CHANGED")
        assert engine.read_file("/src").startswith(b"shared ")
        assert engine.read_file("/dst").startswith(b"CHANGED")
        engine.check_invariants()

    def test_copy_preserves_holes(self, engine):
        engine.write_file("/src", b"x" * 200)
        engine.ops.insert("/src", 10, b"hole-maker")
        engine.copy_file("/src", "/dst")
        assert engine.read_file("/dst") == engine.read_file("/src")
        assert engine.inode("/dst").hole_bytes == engine.inode("/src").hole_bytes

    def test_copy_over_existing_rejected(self, engine):
        engine.write_file("/src", b"a")
        engine.write_file("/dst", b"b")
        with pytest.raises(FileExistsInEngine):
            engine.copy_file("/src", "/dst")

    def test_unlink_original_keeps_copy(self, engine):
        engine.write_file("/src", b"survives " * 30)
        engine.copy_file("/src", "/dst")
        engine.unlink("/src")
        assert engine.read_file("/dst") == b"survives " * 30
        engine.check_invariants()


class TestDescribe:
    def test_describe_fields(self, engine):
        engine.write_file("/f", b"x" * 300)
        engine.ops.insert("/f", 10, b"hole")
        info = engine.describe("/f")
        assert info["size"] == 304
        assert info["depth"] == 2
        assert info["hole_slots"] >= 1
        assert info["slots"] >= info["distinct_blocks"]

    def test_describe_empty_file(self, engine):
        engine.create("/empty")
        info = engine.describe("/empty")
        assert info["size"] == 0 and info["slots"] == 0 and info["depth"] == 1
