"""Tests for MiniSQL secondary indexes (CREATE INDEX / DROP INDEX)."""

import pytest

from repro.databases.minisql import MiniSQL, SecondaryIndex, TableError
from repro.fs import CompressFS, PassthroughFS


@pytest.fixture
def db():
    database = MiniSQL(PassthroughFS(block_size=256), page_size=512)
    database.execute("CREATE TABLE users (id INT PRIMARY KEY, city TEXT, age INT)")
    cities = ["oslo", "lima", "kyiv", "oslo", "lima"]
    for i in range(100):
        database.execute(
            f"INSERT INTO users VALUES ({i}, '{cities[i % 5]}', {i % 30})"
        )
    return database


class TestIndexObject:
    def test_add_and_lookup(self):
        fs = PassthroughFS(block_size=256)
        index = SecondaryIndex(fs, "/i.idx", "i", "t", "c")
        index.add("x", 1)
        index.add("x", 2)
        index.add("y", 3)
        assert index.lookup("x") == [1, 2]
        assert index.lookup("missing") == []

    def test_remove(self):
        fs = PassthroughFS(block_size=256)
        index = SecondaryIndex(fs, "/i.idx", "i", "t", "c")
        index.add("x", 1)
        index.remove("x", 1)
        assert index.lookup("x") == []
        index.remove("x", 99)  # removing an absent entry is a no-op

    def test_nulls_not_indexed(self):
        fs = PassthroughFS(block_size=256)
        index = SecondaryIndex(fs, "/i.idx", "i", "t", "c")
        index.add(None, 1)
        assert index.entry_count == 0

    def test_range(self):
        fs = PassthroughFS(block_size=256)
        index = SecondaryIndex(fs, "/i.idx", "i", "t", "c")
        for value, key in [(5, "a"), (10, "b"), (15, "c"), (10, "d")]:
            index.add(value, key)
        assert index.range(8, 12) == ["b", "d"]
        assert index.range(low=11) == ["c"]
        assert index.range(high=5) == ["a"]

    def test_log_replay(self):
        fs = PassthroughFS(block_size=256)
        index = SecondaryIndex(fs, "/i.idx", "i", "t", "c")
        index.add("x", 1)
        index.add("x", 2)
        index.remove("x", 1)
        replayed = SecondaryIndex(fs, "/i.idx", "i", "t", "c")
        assert replayed.lookup("x") == [2]

    def test_compact_shrinks_log(self):
        fs = PassthroughFS(block_size=256)
        index = SecondaryIndex(fs, "/i.idx", "i", "t", "c")
        for i in range(50):
            index.add("churn", i)
            index.remove("churn", i)
        size_before = fs.stat("/i.idx").size
        index.compact()
        assert fs.stat("/i.idx").size < size_before
        assert SecondaryIndex(fs, "/i.idx", "i", "t", "c").entry_count == 0


class TestSQLIntegration:
    def test_create_index_backfills(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        assert db._indexes["idx_city"].entry_count == 100

    def test_duplicate_index_rejected(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        with pytest.raises(TableError):
            db.execute("CREATE INDEX idx_city ON users (age)")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(TableError):
            db.execute("CREATE INDEX bad ON users (nope)")

    def test_drop_index(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("DROP INDEX idx_city")
        assert "idx_city" not in db._indexes
        with pytest.raises(TableError):
            db.execute("DROP INDEX idx_city")

    def test_indexed_equality_results_match_scan(self, db):
        expected = db.execute("SELECT id FROM users WHERE city = 'oslo'")
        db.execute("CREATE INDEX idx_city ON users (city)")
        assert db.execute("SELECT id FROM users WHERE city = 'oslo'") == expected

    def test_indexed_lookup_reads_fewer_blocks(self, db):
        db.execute("CREATE INDEX idx_age ON users (age)")
        db.fs.device.stats.reset()
        db.execute("SELECT id FROM users WHERE age = 29")
        indexed_reads = db.fs.device.stats.snapshot().block_reads
        db.fs.device.stats.reset()
        db.execute("SELECT id FROM users WHERE age = 29 OR age = 999")  # forces scan
        scan_reads = db.fs.device.stats.snapshot().block_reads
        assert indexed_reads < scan_reads

    def test_index_maintained_on_insert(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("INSERT INTO users VALUES (500, 'quito', 40)")
        assert db.execute("SELECT id FROM users WHERE city = 'quito'") == [{"id": 500}]

    def test_index_maintained_on_update(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("UPDATE users SET city = 'milan' WHERE id = 3")
        assert {"id": 3} in db.execute("SELECT id FROM users WHERE city = 'milan'")
        assert {"id": 3} not in db.execute("SELECT id FROM users WHERE city = 'oslo'")

    def test_index_maintained_on_delete(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("DELETE FROM users WHERE city = 'kyiv'")
        assert db.execute("SELECT count(*) c FROM users WHERE city = 'kyiv'")[0]["c"] == 0
        assert db._indexes["idx_city"].lookup("kyiv") == []

    def test_index_survives_reopen(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("INSERT INTO users VALUES (777, 'tunis', 1)")
        reopened = MiniSQL(db.fs, page_size=512)
        assert reopened._indexes["idx_city"].lookup("tunis") == [777]
        assert reopened.execute("SELECT id FROM users WHERE city = 'tunis'") == [
            {"id": 777}
        ]

    def test_works_on_compressfs(self):
        database = MiniSQL(CompressFS(block_size=256), page_size=512)
        database.execute("CREATE TABLE t (id INT PRIMARY KEY, tag TEXT)")
        for i in range(50):
            database.execute(f"INSERT INTO t VALUES ({i}, 'tag{i % 3}')")
        database.execute("CREATE INDEX idx_tag ON t (tag)")
        rows = database.execute("SELECT id FROM t WHERE tag = 'tag1'")
        assert [row["id"] for row in rows] == [i for i in range(50) if i % 3 == 1]
