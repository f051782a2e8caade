"""Tests for the column store's zone maps (sparse min/max index)."""

import random

import pytest

from repro.databases.minicolumn import MiniColumn, _range_constraints
from repro.databases.sql_parser import parse
from repro.fs import PassthroughFS


def where_of(sql):
    return parse(sql).where


class TestRangeExtraction:
    def test_simple_range(self):
        bounds = _range_constraints(where_of("SELECT * FROM t WHERE a >= 2 AND a <= 8"))
        assert bounds == {"a": (2.0, 8.0)}

    def test_equality_pins_both_bounds(self):
        bounds = _range_constraints(where_of("SELECT * FROM t WHERE a = 5"))
        assert bounds == {"a": (5.0, 5.0)}

    def test_multiple_columns(self):
        bounds = _range_constraints(
            where_of("SELECT * FROM t WHERE a > 1 AND b < 9 AND a < 4")
        )
        assert bounds == {"a": (1.0, 4.0), "b": (None, 9.0)}

    def test_or_is_ignored_not_extracted(self):
        bounds = _range_constraints(where_of("SELECT * FROM t WHERE a > 1 OR b < 2"))
        assert bounds is None

    def test_mixed_and_with_text_conjunct(self):
        bounds = _range_constraints(
            where_of("SELECT * FROM t WHERE a >= 3 AND s = 'x'")
        )
        assert bounds == {"a": (3.0, None)}

    def test_no_where(self):
        assert _range_constraints(None) is None


@pytest.fixture
def db():
    # Plain (fixed-width) blocks: the byte-ratio assertions below target
    # zone-map pruning in isolation; with block encodings on, a full scan
    # of delta-packed ids is already tiny and the ratios lose meaning.
    # Encoded-block pruning equivalence is covered in
    # tests/test_column_encodings.py.
    database = MiniColumn(PassthroughFS(block_size=256), encodings=False)
    database.execute("CREATE TABLE t (id INT, grp INT, score REAL, tag TEXT)")
    # Ten ordered batches of 50 rows each: ids 0..49, 50..99, ...
    for batch in range(10):
        rows = [
            {
                "id": batch * 50 + i,
                "grp": batch,
                "score": float(batch * 50 + i) / 2,
                "tag": f"t{batch}",
            }
            for i in range(50)
        ]
        database.table("t").insert_rows(rows)
    return database


class TestPruning:
    def test_zone_entries_recorded_per_batch(self, db):
        entries = db.table("t")._files["id"].zone_entries()
        assert len(entries) == 10
        assert entries[0][:4] == (0, 50, 0.0, 49.0)
        assert entries[9][:4] == (450, 50, 450.0, 499.0)

    def test_results_identical_with_pruning(self, db):
        narrow = db.execute("SELECT id FROM t WHERE id >= 120 AND id <= 180")
        assert [row["id"] for row in narrow] == list(range(120, 181))

    def test_selective_query_reads_fewer_bytes(self, db):
        fs = db.fs
        fs.device.stats.reset()
        db.execute("SELECT id FROM t WHERE id >= 100 AND id <= 120")
        selective = fs.device.stats.snapshot().bytes_read
        fs.device.stats.reset()
        db.execute("SELECT id FROM t")
        full = fs.device.stats.snapshot().bytes_read
        assert selective < full / 3

    def test_updates_widen_zone(self, db):
        db.execute("UPDATE t SET id = 9999 WHERE id = 10")  # batch 0 now spans to 9999
        rows = db.execute("SELECT id FROM t WHERE id >= 9000")
        assert [row["id"] for row in rows] == [9999]

    def test_update_to_lower_value_widens_too(self, db):
        db.execute("UPDATE t SET score = -500.0 WHERE id = 499")
        rows = db.execute("SELECT id FROM t WHERE score <= -100")
        assert [row["id"] for row in rows] == [499]

    def test_text_constraint_does_not_prune(self, db):
        rows = db.execute("SELECT id FROM t WHERE tag = 't3'")
        assert len(rows) == 50

    def test_empty_result_without_reading_data(self, db):
        fs = db.fs
        fs.device.stats.reset()
        rows = db.execute("SELECT id FROM t WHERE id > 100000")
        assert rows == []
        # Only zone maps (a few hundred bytes) were read, no column data.
        assert fs.device.stats.snapshot().bytes_read < 2048

    def test_zone_maps_survive_reopen(self, db):
        reopened = MiniColumn(db.fs)
        fs = db.fs
        fs.device.stats.reset()
        rows = reopened.execute("SELECT id FROM t WHERE id >= 480")
        assert len(rows) == 20
        selective = fs.device.stats.snapshot().bytes_read
        fs.device.stats.reset()
        reopened.execute("SELECT id FROM t")
        assert selective < fs.device.stats.snapshot().bytes_read

    def test_random_equivalence_with_full_scan(self, db):
        rng = random.Random(4)
        for __ in range(20):
            low = rng.randrange(0, 500)
            high = rng.randrange(low, 500)
            pruned = db.execute(f"SELECT id FROM t WHERE id >= {low} AND id <= {high}")
            expected = list(range(low, high + 1))
            assert [row["id"] for row in pruned] == expected


class TestMetadataAggregates:
    def test_min_max_count_from_metadata(self, db):
        fs = db.fs
        fs.device.stats.reset()
        result = db.execute("SELECT min(id) lo, max(id) hi, count(*) c FROM t")
        assert result == [{"lo": 0, "hi": 499, "c": 500}]
        # Only the tiny zone-map files were read, no column data.
        assert fs.device.stats.snapshot().bytes_read < 4096

    def test_matches_scan_answer(self, db):
        metadata = db.execute("SELECT min(score) lo, max(score) hi FROM t")
        # Force the scan path with a trivially-true WHERE.
        scanned = db.execute("SELECT min(score) lo, max(score) hi FROM t WHERE id >= 0")
        assert metadata == scanned

    def test_where_disables_metadata_path(self, db):
        result = db.execute("SELECT max(id) hi FROM t WHERE id <= 100")
        assert result == [{"hi": 100}]

    def test_deletions_disable_metadata_path(self, db):
        db.execute("DELETE FROM t WHERE id = 499")
        result = db.execute("SELECT max(id) hi, count(*) c FROM t")
        assert result == [{"hi": 498, "c": 499}]

    def test_updates_widen_metadata_answer(self, db):
        db.execute("UPDATE t SET id = 100000 WHERE id = 499")
        assert db.execute("SELECT max(id) hi FROM t") == [{"hi": 100000}]

    def test_text_column_falls_back_to_scan(self, db):
        result = db.execute("SELECT max(tag) m FROM t")
        assert result == [{"m": "t9"}]

    def test_empty_table(self):
        from repro.databases.minicolumn import MiniColumn
        from repro.fs import PassthroughFS

        empty = MiniColumn(PassthroughFS(block_size=256))
        empty.execute("CREATE TABLE e (a INT)")
        assert empty.execute("SELECT count(*) c, min(a) lo FROM e") == [
            {"c": 0, "lo": None}
        ]

    def test_null_only_batch_falls_back(self):
        from repro.databases.minicolumn import MiniColumn
        from repro.fs import PassthroughFS

        db2 = MiniColumn(PassthroughFS(block_size=256))
        db2.execute("CREATE TABLE n (a INT)")
        db2.execute("INSERT INTO n VALUES (NULL), (NULL)")
        db2.execute("INSERT INTO n VALUES (7)")
        assert db2.execute("SELECT min(a) lo, max(a) hi FROM n") == [
            {"lo": 7, "hi": 7}
        ]

    def test_unaliased_naming_matches_executor(self, db):
        metadata = db.execute("SELECT min(id) FROM t")
        scanned = db.execute("SELECT min(id) FROM t WHERE id >= 0")
        assert metadata == scanned == [{"column0": 0}]
