"""Unit tests for the write-ahead journal (repro.storage.journal).

Covers the record format round trip, torn-tail detection in
:meth:`Journal.recover`, replay idempotency, the staged-transaction
semantics of :class:`JournalDevice`, and the 4-phase commit's write
ordering.
"""

import pytest

from repro.storage.journal import (
    Journal,
    JournalDevice,
    JournalError,
    TransactionError,
    require_transaction,
)
from repro.storage.block_device import (
    BlockDeviceError,
    MemoryBlockDevice,
)

BLOCK = 128


def make_device(journal_len=8, data_blocks=16):
    """A device with a journal region at [1, 1+journal_len) and some data."""
    device = MemoryBlockDevice(block_size=BLOCK)
    for __ in range(1 + journal_len + data_blocks):
        device.allocate()
    journal = Journal(start=1, length=journal_len, block_size=BLOCK)
    return device, journal


def data_start(journal):
    return journal.start + journal.length


class TestJournalFormat:
    def test_round_trip_single_write(self):
        device, journal = make_device()
        home = data_start(journal)
        journal.append_batch(device, lsn=1, writes=[(home, b"payload")])
        recovered = journal.recover(device)
        assert recovered is not None
        lsn, writes = recovered
        assert lsn == 1
        assert writes == [(home, b"payload" + b"\x00" * (BLOCK - 7))]

    def test_round_trip_multiple_descriptor_groups(self):
        device, journal = make_device(journal_len=32, data_blocks=24)
        base = data_start(journal)
        batch = [(base + i, bytes([i]) * 10) for i in range(20)]
        journal.append_batch(device, lsn=7, writes=batch)
        recovered = journal.recover(device)
        assert recovered is not None
        lsn, writes = recovered
        assert lsn == 7
        assert [home for home, __ in writes] == [base + i for i in range(20)]
        for (__, data), i in zip(writes, range(20)):
            assert data == bytes([i]) * 10 + b"\x00" * (BLOCK - 10)

    def test_blocks_needed_accounts_for_descriptors_and_commit(self):
        __, journal = make_device()
        per_desc = (BLOCK - 20) // 12
        assert journal.blocks_needed(1) == 1 + 1 + 1
        assert journal.blocks_needed(per_desc) == per_desc + 1 + 1
        assert journal.blocks_needed(per_desc + 1) == per_desc + 1 + 2 + 1

    def test_oversized_batch_rejected(self):
        device, journal = make_device(journal_len=4)
        base = data_start(journal)
        writes = [(base + i, b"x") for i in range(10)]
        with pytest.raises(JournalError):
            journal.append_batch(device, 1, writes)

    def test_empty_batch_rejected(self):
        device, journal = make_device()
        with pytest.raises(JournalError):
            journal.append_batch(device, 1, [])

    def test_empty_region_recovers_nothing(self):
        device, journal = make_device()
        assert journal.recover(device) is None
        assert journal.next_lsn(device) == 1

    def test_next_lsn_follows_committed_batch(self):
        device, journal = make_device()
        journal.append_batch(device, 5, [(data_start(journal), b"x")])
        assert journal.next_lsn(device) == 6


class TestTornBatches:
    def _committed(self, journal_len=8):
        device, journal = make_device(journal_len=journal_len)
        base = data_start(journal)
        journal.append_batch(device, 3, [(base, b"aaa"), (base + 1, b"bbb")])
        return device, journal

    def test_missing_commit_block_discards_batch(self):
        device, journal = self._committed()
        encoded = journal.encode_batch(3, [(data_start(journal), b"x")])
        # Rewrite the region with everything except the commit block.
        device.write_blocks(encoded[:-1])
        device.write_blocks(
            [(encoded[-1][0], b"\x00" * BLOCK)]
        )
        assert journal.recover(device) is None
        assert journal.replay(device) == 0

    def test_corrupt_data_block_discards_batch(self):
        device, journal = self._committed()
        # The first data block of the batch sits right after the descriptor.
        corrupt = journal.start + 1
        device.write_blocks([(corrupt, b"garbage")])
        assert journal.recover(device) is None

    def test_corrupt_descriptor_discards_batch(self):
        device, journal = self._committed()
        device.write_blocks([(journal.start, b"\xff" * BLOCK)])
        assert journal.recover(device) is None

    def test_commit_lsn_mismatch_discards_batch(self):
        device, journal = self._committed()
        # Append a new batch's descriptor+data over the old one but keep
        # the old commit block: the LSNs disagree, so nothing recovers.
        encoded = journal.encode_batch(9, [(data_start(journal), b"new")])
        device.write_blocks(encoded[:-1])
        assert journal.recover(device) is None

    def test_replay_applies_committed_writes(self):
        device, journal = self._committed()
        base = data_start(journal)
        device.write_blocks([(base, b"stale"), (base + 1, b"stale")])
        assert journal.replay(device) == 2
        assert device.read_block(base)[:3] == b"aaa"
        assert device.read_block(base + 1)[:3] == b"bbb"

    def test_replay_twice_is_a_noop(self):
        device, journal = self._committed()
        assert journal.replay(device) == 2
        first = [device.read_block(i) for i in range(device.total_blocks)]
        assert journal.replay(device) == 2
        second = [device.read_block(i) for i in range(device.total_blocks)]
        assert first == second


class TestJournalDevice:
    def _journaled(self):
        inner, journal = make_device()
        return JournalDevice(inner, journal), inner, journal

    def test_writes_stage_until_commit(self):
        dev, inner, journal = self._journaled()
        home = data_start(journal)
        dev.write_blocks([(home, b"staged")])
        assert inner.read_block(home)[:6] != b"staged"
        assert dev.read_block(home)[:6] == b"staged"  # read-your-writes
        dev.commit()
        assert inner.read_block(home)[:6] == b"staged"

    def test_fresh_blocks_bypass_journal(self):
        dev, inner, journal = self._journaled()
        fresh = dev.allocate()
        assert dev.can_overwrite_in_place(fresh)
        dev.write_blocks([(fresh, b"direct")])
        dev.commit()
        # A fresh-only epoch writes no journal records.
        assert journal.recover(inner) is None
        assert inner.read_block(fresh)[:6] == b"direct"

    def test_overwrites_go_through_journal(self):
        dev, inner, journal = self._journaled()
        home = data_start(journal)
        dev.write_blocks([(home, b"logged")])
        journal_blocks = dev.commit()
        assert journal_blocks == 3  # descriptor + data + commit
        recovered = journal.recover(inner)
        assert recovered is not None
        assert recovered[1][0][0] == home

    def test_fresh_set_resets_at_commit(self):
        dev, __, __ = self._journaled()
        fresh = dev.allocate()
        dev.write_blocks([(fresh, b"v1")])
        dev.commit()
        # Same block in the next epoch is part of the committed image.
        assert not dev.can_overwrite_in_place(fresh)

    def test_free_of_fresh_block_is_immediate(self):
        dev, inner, __ = self._journaled()
        fresh = dev.allocate()
        dev.write_blocks([(fresh, b"temp")])
        dev.free(fresh)
        assert dev.txn.is_empty()
        assert inner.allocate() == fresh  # immediately reusable

    def test_free_of_durable_block_is_deferred(self):
        dev, inner, journal = self._journaled()
        home = data_start(journal)
        dev.free(home)
        assert home in dev.txn.deferred
        with pytest.raises(BlockDeviceError):
            dev.free(home)  # double free caught while deferred

    def test_freeing_journal_region_rejected(self):
        dev, __, journal = self._journaled()
        with pytest.raises(BlockDeviceError):
            dev.free(journal.start)

    def test_read_blocks_merges_staged_and_device(self):
        dev, inner, journal = self._journaled()
        a, b = data_start(journal), data_start(journal) + 1
        inner.write_blocks([(a, b"old-a"), (b, b"old-b")])
        dev.write_blocks([(b, b"new-b")])
        got = dev.read_blocks([a, b, b, a])
        assert got[0][:5] == b"old-a"
        assert got[1][:5] == b"new-b"
        assert got[2][:5] == b"new-b"
        assert got[3][:5] == b"old-a"

    def test_oversized_write_rejected(self):
        dev, __, journal = self._journaled()
        with pytest.raises(BlockDeviceError):
            dev.write_blocks([(data_start(journal), b"x" * (BLOCK + 1))])

    def test_commit_of_empty_transaction_is_noop(self):
        dev, inner, __ = self._journaled()
        before = [inner.read_block(i) for i in range(inner.total_blocks)]
        assert dev.commit() == 0
        after = [inner.read_block(i) for i in range(inner.total_blocks)]
        assert before == after

    def test_lsn_advances_per_commit(self):
        dev, __, journal = self._journaled()
        home = data_start(journal)
        assert dev.lsn == 1
        dev.write_blocks([(home, b"one")])
        dev.commit()
        dev.write_blocks([(home, b"two")])
        dev.commit()
        assert dev.lsn == 3
        assert journal.next_lsn(dev.inner) == 3


class TestRequireTransaction:
    def test_plain_device_is_trivially_transactional(self):
        device = MemoryBlockDevice(block_size=BLOCK)
        require_transaction(device)  # must not raise

    def test_journal_device_reports_open_transaction(self):
        dev, __, __ = TestJournalDevice()._journaled()
        assert dev.in_transaction
        require_transaction(dev)  # must not raise

    def test_closed_transaction_rejected(self):
        class Stale:
            in_transaction = False

        with pytest.raises(TransactionError):
            require_transaction(Stale())
