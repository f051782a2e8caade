"""Compressed-domain column encodings: codecs, picker, scans, morphing.

Three layers of coverage:

* codec round trips (:mod:`repro.databases.colcodec`) over edge cases —
  empty batches, single runs, maximum delta bit width, NULL handling;
* Hypothesis equivalence: a MiniColumn with encodings + vectorized
  execution returns exactly what a plain fixed-width MiniColumn with
  the row interpreter returns, through inserts, updates (which demote
  encoded blocks), deletes, and ``optimize()`` compaction;
* the update/morph life cycle and the zone-map regression of this PR
  (widening patches only the covering ``.zmap`` entry in place).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.databases import colcodec
from repro.databases.colcodec import (
    DELTA,
    DICT,
    MAX_DELTA_BITS,
    PLAIN,
    RLE,
    CodecError,
    choose_encoding,
    decode_block,
    decode_delta,
    decode_dict_parts,
    decode_rle_runs,
    decode_vector,
    encode_block,
    encode_delta,
    encode_dict,
    encode_rle,
    estimate_sizes,
    pack_bits,
    unpack_bits,
)
from repro.databases.common import DatabaseError
from repro.databases.minicolumn import MiniColumn, _ColumnFile
from repro.fs import PassthroughFS


def _column_db(encodings, vectorized=None):
    if vectorized is None:
        vectorized = encodings
    return MiniColumn(
        PassthroughFS(block_size=256), encodings=encodings, vectorized=vectorized
    )


# ---------------------------------------------------------------------------
# codec round trips
# ---------------------------------------------------------------------------

class TestBitPacking:
    @given(
        st.lists(st.integers(0, 2**56 - 1), max_size=60),
        st.just(56),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_max_width(self, values, width):
        assert unpack_bits(pack_bits(values, width), width, len(values)) == values

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_any_width(self, data):
        width = data.draw(st.integers(1, 56))
        values = data.draw(st.lists(st.integers(0, 2**width - 1), max_size=80))
        assert unpack_bits(pack_bits(values, width), width, len(values)) == values

    def test_zero_width(self):
        assert pack_bits([0, 0, 0], 0) == b""
        assert unpack_bits(b"", 0, 3) == [0, 0, 0]


# Counts around the 8-value lane group and the 64-value chunk; widths on
# both sides of the lane/chunk switch, byte-aligned and not.
_BOUNDARY_COUNTS = (0, 1, 63, 64, 65, 128, 129)
_BOUNDARY_WIDTHS = (1, 7, 8, 10, 11, 13, 56)


def _boundary_values(count, width):
    """``count`` values filling ``width`` bits: all-ones, zero and a
    spread of bit patterns in between."""
    top = (1 << width) - 1
    return [(top, 0)[i % 2] if i < 2 else (i * 0x9E3779B97F4A7C15) & top for i in range(count)]


class TestChunkBoundaries:
    @pytest.mark.parametrize("width", _BOUNDARY_WIDTHS)
    @pytest.mark.parametrize("count", _BOUNDARY_COUNTS)
    def test_pack_round_trip(self, count, width):
        values = _boundary_values(count, width)
        packed = pack_bits(values, width)
        # The format is one little-endian integer of ``count * width`` bits.
        reference = sum(value << (i * width) for i, value in enumerate(values))
        expected = reference.to_bytes((count * width + 7) // 8, "little") if count else b""
        assert packed == expected
        assert unpack_bits(packed, width, count) == values

    @pytest.mark.parametrize("low", [-5, 0, 3], ids=["negative-low", "zero-low", "positive-low"])
    @pytest.mark.parametrize("width", _BOUNDARY_WIDTHS)
    @pytest.mark.parametrize("count", _BOUNDARY_COUNTS)
    def test_delta_round_trip(self, count, width, low):
        deltas = [low + value for value in _boundary_values(max(count - 1, 0), width)]
        values = [1000]
        for delta in deltas:
            values.append(values[-1] + delta)
        values = values[:count]
        payload = encode_delta(values)
        assert decode_delta(payload, count) == values
        if count > 2:  # two or more deltas: the spread fixes the frame
            assert payload[16] == width
            assert int.from_bytes(payload[8:16], "little", signed=True) == low


class TestCodecEdgeCases:
    def test_empty_batches(self):
        for encoding in (PLAIN, RLE):
            payload = encode_block("INT", encoding, [])
            assert decode_block("INT", encoding, payload, 0) == []
        # Plain TEXT lives in the heap + offsets form, so only the
        # dictionary codec sees TEXT batches.
        payload = encode_block("TEXT", DICT, [])
        assert decode_block("TEXT", DICT, payload, 0) == []
        assert encode_delta([]) == b""
        assert decode_delta(b"", 0) == []

    def test_single_run(self):
        payload = encode_rle("INT", [7, 7, 7])
        assert decode_rle_runs("INT", payload) == ([7], [3])

    def test_rle_null_runs(self):
        values = [None, None, 3, 3, None]
        payload = encode_rle("INT", values)
        assert decode_block("INT", RLE, payload, len(values)) == values

    def test_rle_real(self):
        values = [1.5, 1.5, None, -2.25]
        payload = encode_rle("REAL", values)
        assert decode_block("REAL", RLE, payload, len(values)) == values

    def test_delta_single_value(self):
        assert decode_delta(encode_delta([42]), 1) == [42]

    def test_delta_descending(self):
        values = [100, 90, 95, 10]
        assert decode_delta(encode_delta(values), len(values)) == values

    def test_delta_max_bit_width(self):
        # Frame-of-reference: the width is the spread between the
        # smallest and largest delta, here exactly MAX_DELTA_BITS.
        values = [0, 0, 2**MAX_DELTA_BITS - 1]
        assert decode_delta(encode_delta(values), len(values)) == values

    def test_delta_single_jump_is_width_zero(self):
        # One delta has zero spread, so any jump fits the frame.
        values = [0, 2**60]
        assert decode_delta(encode_delta(values), len(values)) == values

    def test_delta_overflow_raises(self):
        with pytest.raises(CodecError):
            encode_delta([0, 0, 2**MAX_DELTA_BITS])

    def test_delta_rejected_by_picker_when_too_wide(self):
        wide = [0, 2**60, 5, 2**59, 17]
        assert DELTA not in estimate_sizes("INT", wide)

    def test_dict_with_nulls_and_duplicates(self):
        values = ["a", None, "b", "a", None, ""]
        dictionary, codes = decode_dict_parts(encode_dict(values), len(values))
        assert [dictionary[code] for code in codes] == values

    def test_dict_single_distinct(self):
        values = ["x"] * 9
        payload = encode_dict(values)
        assert decode_block("TEXT", DICT, payload, len(values)) == values

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(-(2**40), 2**40)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_int_block_round_trip_any_encoding(self, values):
        for encoding in (PLAIN, RLE):
            payload = encode_block("INT", encoding, values)
            assert decode_block("INT", encoding, payload, len(values)) == values
            vector = decode_vector("INT", encoding, payload, len(values))
            assert vector.materialize() == values
        if None not in values:
            payload = encode_block("INT", DELTA, values)
            assert decode_block("INT", DELTA, payload, len(values)) == values

    @given(
        st.lists(
            st.one_of(st.none(), st.sampled_from(["", "aa", "bb", "cc-long-value"])),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_text_dict_round_trip(self, values):
        payload = encode_block("TEXT", DICT, values)
        assert decode_block("TEXT", DICT, payload, len(values)) == values
        vector = decode_vector("TEXT", DICT, payload, len(values))
        assert vector.materialize() == values
        # A dictionary predicate evaluates each distinct entry once but
        # must produce the per-row answer.
        wanted = vector.select(lambda entries: [v == "aa" for v in entries])
        assert wanted == [v == "aa" for v in values]


class TestPicker:
    def test_constant_column_is_rle(self):
        assert choose_encoding("INT", [5] * 100) == RLE

    def test_sequential_column_is_delta(self):
        assert choose_encoding("INT", list(range(100))) == DELTA

    def test_repetitive_text_is_dict(self):
        assert choose_encoding("TEXT", ["north", "south"] * 50) == DICT

    def test_incompressible_stays_plain(self):
        # All-distinct long strings: the dictionary repeats the whole
        # heap and adds codes, so the estimate cannot clear the
        # PICK_THRESHOLD margin over plain.
        distinct = [f"unique-{i:04d}-" + "x" * 100 for i in range(64)]
        assert choose_encoding("TEXT", distinct) == PLAIN

    def test_picker_tracks_estimates(self):
        values = list(range(0, 400, 3))
        sizes = estimate_sizes("INT", values)
        chosen = choose_encoding("INT", values)
        assert chosen in sizes or chosen == PLAIN
        if chosen != PLAIN:
            assert sizes[chosen] < sizes[PLAIN] * colcodec.PICK_THRESHOLD


# ---------------------------------------------------------------------------
# property: encoded + vectorized == plain + interpreted
# ---------------------------------------------------------------------------

_INT_VALUES = st.one_of(st.none(), st.integers(-1000, 1000))
_TEXT_VALUES = st.one_of(st.none(), st.sampled_from(["red", "green", "blue", "x"]))
# -inf is the REAL NULL sentinel, and NaN never equals itself.
_REAL_VALUES = st.one_of(
    st.none(),
    st.sampled_from([0.1, 0.25, -3.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _workload(draw):
    batches = draw(
        st.lists(
            st.lists(
                st.tuples(_INT_VALUES, _TEXT_VALUES, _REAL_VALUES),
                min_size=1,
                max_size=30,
            ),
            min_size=1,
            max_size=4,
        )
    )
    total = sum(len(batch) for batch in batches)
    updates = draw(
        st.lists(
            st.tuples(st.integers(0, total - 1), _INT_VALUES), max_size=5
        )
    )
    deletes = draw(st.lists(st.integers(0, total - 1), max_size=5))
    bounds = sorted(
        (draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000)))
    )
    return batches, updates, deletes, bounds


_QUERIES = [
    "SELECT id, v, s FROM t",
    "SELECT id FROM t WHERE v >= {lo} AND v <= {hi}",
    "SELECT s, count(*) c, sum(v) sv, min(v) mn, max(v) mx FROM t GROUP BY s",
    "SELECT count(s) c, count(*) n FROM t",
    "SELECT id, v FROM t WHERE v != {lo} ORDER BY v DESC, id LIMIT 7",
    "SELECT s, count(*) c, sum(v) sv, max(r) mr FROM t WHERE v >= {lo} GROUP BY s",
    "SELECT s, v, count(*) c, sum(r) sr FROM t GROUP BY s, v",
    "SELECT s, avg(v) av, avg(r) ar FROM t GROUP BY s",
    "SELECT min(s) mn, max(s) mx, sum(s) ss, count(s) c FROM t WHERE v <= {hi}",
    "SELECT s, min(s) mn, max(s) mx, sum(s) ss FROM t GROUP BY s",
    "SELECT count(r) c, sum(r) sr, min(r) mn, max(r) mx, avg(r) ar FROM t",
    "SELECT id, r FROM t WHERE r >= {lo} AND id >= 0 ORDER BY r, id",
    "SELECT v, count(*) c, sum(r) sr FROM t WHERE id >= 0 AND id < 100000 GROUP BY v",
    "SELECT s, count(*) c, sum(v) sv FROM t WHERE v > 5000 GROUP BY s",
    "SELECT count(*) c, sum(v) sv, min(r) mn FROM t WHERE v > 5000",
    "SELECT s, id, r, count(*) c FROM t WHERE v <= {hi} GROUP BY s",
    "SELECT id, count(*) c FROM t WHERE v >= {lo}",
]


def _outcome(db, sql):
    """The query's rows, or the error it raised (both paths must agree
    on errors too, e.g. a bare column over an empty aggregate)."""
    try:
        return db.execute(sql)
    except DatabaseError as error:
        return type(error), str(error)


def _compare(dbs, bounds):
    lo, hi = bounds
    for query in _QUERIES:
        sql = query.format(lo=lo, hi=hi)
        results = [_outcome(db, sql) for db in dbs]
        assert results[0] == results[1], sql


@given(_workload())
@settings(max_examples=25, deadline=None)
def test_encoded_scan_equals_plain_scan(workload):
    batches, updates, deletes, bounds = _workload_rows(workload)
    dbs = []
    for encodings in (False, True):
        db = _column_db(encodings)
        db.execute("CREATE TABLE t (id INT, v INT, s TEXT, r REAL)")
        for batch in batches:
            db.table("t").insert_rows(batch)
        dbs.append(db)
    _compare(dbs, bounds)
    for row_id, value in updates:
        literal = "NULL" if value is None else str(value)
        for db in dbs:
            db.execute(f"UPDATE t SET v = {literal} WHERE id = {row_id}")
    _compare(dbs, bounds)  # UPDATE-after-encode: demoted blocks
    for row_id in deletes:
        for db in dbs:
            db.execute(f"DELETE FROM t WHERE id = {row_id}")
    _compare(dbs, bounds)
    for db in dbs:
        db.table("t").optimize()  # compaction re-runs the picker
    _compare(dbs, bounds)


def _workload_rows(workload):
    batches, updates, deletes, bounds = workload
    rows = []
    next_id = 0
    for batch in batches:
        batch_rows = []
        for value, text, real in batch:
            batch_rows.append({"id": next_id, "v": value, "s": text, "r": real})
            next_id += 1
        rows.append(batch_rows)
    return rows, updates, deletes, bounds


# ---------------------------------------------------------------------------
# update/demote/morph life cycle
# ---------------------------------------------------------------------------

class TestMorphing:
    def _constant_table(self, rows=64):
        db = _column_db(True)
        db.execute("CREATE TABLE t (id INT, v INT)")
        db.table("t").insert_rows([{"id": i, "v": 5} for i in range(rows)])
        return db

    def test_update_demotes_to_plain(self):
        db = self._constant_table()
        assert db.table("t").column_encodings()["v"] == [RLE]
        db.execute("UPDATE t SET v = 9 WHERE id = 3")
        assert db.table("t").column_encodings()["v"] == [PLAIN]
        assert db.execute("SELECT v FROM t WHERE id = 3") == [{"v": 9}]

    def test_scan_heavy_mix_remorphs(self):
        db = self._constant_table()
        db.execute("UPDATE t SET v = 9 WHERE id = 3")
        db.execute("UPDATE t SET v = 5 WHERE id = 3")
        for __ in range(db.table("t").MORPH_AFTER_SCANS):
            db.execute("SELECT v FROM t WHERE id >= 0")
        # Back to a constant column: the picker re-chooses RLE.
        assert db.table("t").column_encodings()["v"] == [RLE]

    def test_forced_morph(self):
        db = self._constant_table()
        table = db.table("t")
        assert table.morph(column="v", encoding=PLAIN) == 1
        assert table.column_encodings()["v"] == [PLAIN]
        assert table.morph(column="v") == 1  # picker restores RLE
        assert table.column_encodings()["v"] == [RLE]

    def test_optimize_reencodes_after_deletes(self):
        db = self._constant_table()
        db.execute("UPDATE t SET v = 9 WHERE id = 3")
        db.execute("DELETE FROM t WHERE id = 3")
        assert db.table("t").optimize() == 1
        assert db.table("t").column_encodings()["v"] == [RLE]
        rows = db.execute("SELECT count(*) c, min(v) mn, max(v) mx FROM t")
        assert rows == [{"c": 63, "mn": 5, "mx": 5}]

    def test_large_batch_splits_into_blocks(self):
        db = _column_db(True)
        db.execute("CREATE TABLE t (id INT)")
        rows = db.table("t").BLOCK_ROWS + 10
        db.table("t").insert_rows([{"id": i} for i in range(rows)])
        assert len(db.table("t").column_encodings()["id"]) == 2


# ---------------------------------------------------------------------------
# zone maps after in-place updates (the `_widen_zone` regression)
# ---------------------------------------------------------------------------

class TestZoneWidening:
    @pytest.fixture(params=[False, True], ids=["plain", "encoded"])
    def db(self, request):
        database = _column_db(request.param)
        database.execute("CREATE TABLE t (id INT, v INT)")
        for batch in range(8):
            database.table("t").insert_rows(
                [{"id": batch * 25 + i, "v": batch} for i in range(25)]
            )
        return database

    def test_pruning_correct_after_update(self, db):
        db.execute("UPDATE t SET id = 90000 WHERE id = 30")  # batch 1
        db.execute("UPDATE t SET id = -90000 WHERE id = 120")  # batch 4
        assert db.execute("SELECT id FROM t WHERE id >= 80000") == [{"id": 90000}]
        assert db.execute("SELECT id FROM t WHERE id <= -80000") == [{"id": -90000}]
        # Unaffected ranges still prune and still answer exactly.
        rows = db.execute("SELECT id FROM t WHERE id >= 50 AND id <= 60")
        assert [row["id"] for row in rows] == list(range(50, 61))

    def test_only_covering_entry_patched(self, db):
        column = db.table("t")._files["id"]
        before = column.zone_entries()
        db.execute("UPDATE t SET id = 90000 WHERE id = 30")
        after = column.zone_entries()
        assert len(after) == len(before)
        for index, (old, new) in enumerate(zip(before, after)):
            if index == 1:  # rows 25..49 hold id 30
                assert new[2] == old[2] and new[3] == 90000.0
            else:
                assert new == old

    def test_null_update_sets_has_null(self, db):
        db.execute("UPDATE t SET id = NULL WHERE id = 10")
        entries = db.table("t")._files["id"].zone_entries()
        assert entries[0][4] is True
        assert db.execute("SELECT count(id) c FROM t")[0]["c"] == 199

    def test_update_and_delete_scan_only_surviving_blocks(self, db, monkeypatch):
        spans = []
        read_ranges = _ColumnFile.read_ranges

        def recording(column, requested):
            spans.extend(requested)
            return read_ranges(column, requested)

        monkeypatch.setattr(_ColumnFile, "read_ranges", recording)
        db.execute("UPDATE t SET v = 99 WHERE id = 30")
        assert set(spans) == {(25, 25)}  # batch 1 only
        spans.clear()
        db.execute("DELETE FROM t WHERE id = 130")
        assert set(spans) == {(125, 25)}  # batch 5 only
        monkeypatch.undo()
        assert db.execute("SELECT v FROM t WHERE id = 30") == [{"v": 99}]
        assert db.execute("SELECT count(*) c FROM t") == [{"c": 199}]


# ---------------------------------------------------------------------------
# block kernels: predicates a zone entry proves true are skipped
# ---------------------------------------------------------------------------

class TestZoneCoveredPredicates:
    @pytest.fixture
    def decoded(self, monkeypatch):
        encodings = []
        decode_vector = colcodec.decode_vector

        def recording(type_name, encoding, payload, count):
            encodings.append(encoding)
            return decode_vector(type_name, encoding, payload, count)

        monkeypatch.setattr(colcodec, "decode_vector", recording)
        return encodings

    @staticmethod
    def _table(encodings):
        database = _column_db(encodings)
        database.execute("CREATE TABLE t (id INT, v INT)")
        for batch in range(3):
            database.table("t").insert_rows(
                [{"id": batch * 100 + i, "v": 7} for i in range(100)]
            )
        return database

    @pytest.fixture
    def db(self):
        return self._table(True)

    def test_covered_column_is_not_decoded(self, db, decoded):
        rows = db.execute("SELECT count(*) c, sum(v) s FROM t WHERE id >= 0 AND id < 250")
        assert rows == [{"c": 250, "s": 1750}]
        # id (DELTA) is decoded only for rows 200..299, whose zone does
        # not prove id < 250; v (RLE) is decoded for the sum everywhere.
        assert decoded.count(DELTA) == 1
        assert decoded.count(RLE) == 3

    def test_nulls_and_deletes_still_filtered(self):
        dbs = [self._table(False), self._table(True)]
        for db in dbs:
            db.execute("UPDATE t SET id = NULL WHERE id = 5")
            db.execute("DELETE FROM t WHERE id = 150")
        for sql in (
            "SELECT count(*) c FROM t WHERE id >= 0",
            "SELECT count(*) c FROM t WHERE id >= 0 AND id != 1000",
            "SELECT count(*) c, sum(v) s FROM t WHERE id = 7 AND id <= 7",
        ):
            assert dbs[1].execute(sql) == dbs[0].execute(sql), sql
        assert dbs[1].execute("SELECT count(*) c FROM t WHERE id >= 0") == [{"c": 298}]
