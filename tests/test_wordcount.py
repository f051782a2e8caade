"""Tests for the analytics pushdown: word_count on compressed files."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CompressDB
from repro.core.operations import _tokenize_block


class TestTokenizeBlock:
    def test_plain_words(self):
        solid, head, middle, tail = _tokenize_block(b" one two three ")
        assert (solid, head, tail) == (False, b"", b"")
        assert middle == Counter([b"one", b"two", b"three"])

    def test_fragments_on_both_ends(self):
        solid, head, middle, tail = _tokenize_block(b"ing middle wo")
        assert (solid, head, tail) == (False, b"ing", b"wo")
        assert middle == Counter([b"middle"])

    def test_solid_block(self):
        solid, head, middle, tail = _tokenize_block(b"unbroken")
        assert solid and head == b"unbroken"
        assert not middle and tail == b""

    def test_whitespace_only(self):
        assert _tokenize_block(b"   \n\t ") == (False, b"", Counter(), b"")

    def test_empty(self):
        assert _tokenize_block(b"") == (False, b"", Counter(), b"")


@pytest.fixture
def loaded_engine():
    engine = CompressDB(block_size=16, page_capacity=3)
    engine.write_file("/f", b"the cat sat on the mat and the cat ran away ")
    return engine


class TestWordCount:
    def test_matches_naive_split(self, loaded_engine):
        expected = Counter(loaded_engine.read_file("/f").split())
        assert loaded_engine.ops.word_count("/f") == expected

    def test_words_spanning_blocks(self):
        engine = CompressDB(block_size=4)
        engine.write_file("/f", b"supercalifragilistic word")
        counts = engine.ops.word_count("/f")
        assert counts == Counter([b"supercalifragilistic", b"word"])

    def test_holes_do_not_join_words(self, loaded_engine):
        loaded_engine.ops.insert("/f", 5, b" X ")
        expected = Counter(loaded_engine.read_file("/f").split())
        assert loaded_engine.ops.word_count("/f") == expected

    def test_empty_file(self):
        engine = CompressDB(block_size=16)
        engine.create("/f")
        assert engine.ops.word_count("/f") == Counter()

    def test_distinct_blocks_tokenised_once(self):
        engine = CompressDB(block_size=16)
        block = b"repeat phrase!! "  # exactly one block
        engine.create("/f")
        for __ in range(50):
            engine.ops.append("/f", block)
        reads_before = engine.device.stats.snapshot().block_reads
        counts = engine.ops.word_count("/f")
        assert counts[b"repeat"] == 50
        # One device read for the single distinct block.
        assert engine.device.stats.snapshot().block_reads - reads_before <= 2

    def test_stats_counter(self, loaded_engine):
        loaded_engine.ops.word_count("/f")
        assert loaded_engine.ops.stats.snapshot()["word_count"] == 1


class TestParallelSearch:
    def test_workers_match_sequential(self, loaded_engine):
        sequential = loaded_engine.ops.search("/f", b"at")
        parallel = loaded_engine.ops.search("/f", b"at", workers=3)
        assert sequential == parallel

    def test_single_worker_is_sequential_path(self, loaded_engine):
        assert loaded_engine.ops.search("/f", b"cat", workers=1) == loaded_engine.ops.search(
            "/f", b"cat"
        )


@given(st.text(alphabet=" abc\n", max_size=200))
@settings(max_examples=100, deadline=None)
def test_word_count_property(text):
    data = text.encode("ascii")
    engine = CompressDB(block_size=8, page_capacity=3)
    engine.write_file("/f", data)
    assert engine.ops.word_count("/f") == Counter(data.split())
