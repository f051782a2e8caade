"""The persistent Raft log, on the journal's LSN/CRC batch substrate.

Raft needs two durable structures per node (§5.1 of the Raft paper):

* the **hard state** — ``(current_term, voted_for)`` — persisted
  *before* answering any RPC, so a restarted node can never vote twice
  in one term;
* the **log** — ``(term, command)`` entries — whose committed prefix
  must survive any crash.

Both live on one block device.  Block 0 holds the hard state as a
single CRC-tagged record; blocks 1.. hold the log as a sequence of
batches in exactly the write-ahead journal's wire format
(:mod:`repro.storage.journal`): descriptor blocks carrying
``(magic, lsn, n_tags)`` plus per-entry CRC tags, one data block per
entry, and a checksummed commit record.  The LSN of a batch is the
Raft index of its first entry, so the journal's torn-tail rule
transfers verbatim: a crash mid-append leaves a batch without a valid
commit record, recovery stops at the previous batch boundary, and the
un-acked suffix vanishes — which Raft explicitly tolerates (an entry
is only *committed* once replicated on a majority).

Log truncation (the AppendEntries conflict rule) rewrites from the
first affected batch and stamps a zeroed terminator block so recovery
cannot run into stale batches from a longer, discarded suffix.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.storage.block_device import BlockDevice
from repro.storage.journal import (
    BATCH_CRC,
    BATCH_DESC,
    BATCH_TAG,
    COMMIT_MAGIC,
    DESC_MAGIC,
)

#: Hard-state record: magic, current_term, length of the voted_for name.
_HARD = struct.Struct("<QQI")
HARD_MAGIC = 0x4554415444524148  # "HARDTATE"

#: Per-entry payload header inside a data block: term, command length.
_ENTRY = struct.Struct("<QI")


class RaftLogError(Exception):
    """Structural misuse of the log (oversized command, bad index)."""


@dataclass(frozen=True)
class LogEntry:
    """One replicated command: the term it was proposed in, its 1-based
    index, and the opaque state-machine command bytes."""

    term: int
    index: int
    command: bytes


@dataclass
class _Batch:
    """Where one persisted append landed on the device."""

    start_block: int
    first_index: int
    count: int
    blocks: int


class RaftLog:
    """Append-only persistent log plus the node's hard state.

    The in-memory entry list is the read path; every mutation
    (append, truncate, term/vote update) is made durable through the
    device before the caller proceeds — the Raft safety argument
    depends on persistence *preceding* the RPC reply.
    """

    def __init__(self, device: BlockDevice) -> None:
        self.device = device
        self.block_size = device.block_size
        self._tags_per_desc = (self.block_size - BATCH_DESC.size) // BATCH_TAG.size
        if self._tags_per_desc < 1:
            raise RaftLogError(
                f"block size {self.block_size} too small for a log descriptor"
            )
        self.current_term = 0
        self.voted_for: str | None = None
        self._entries: list[LogEntry] = []
        self._batches: list[_Batch] = []
        self._next_block = 1  # block 0 is the hard state
        self._recover()

    # -- hard state ---------------------------------------------------------
    def _ensure_blocks(self, last_block: int) -> None:
        """Grow the device so ``last_block`` is addressable (the device
        rejects writes past its allocation high-water mark)."""
        while self.device.total_blocks <= last_block:
            self.device.allocate()

    def set_hard_state(self, term: int, voted_for: str | None) -> None:
        """Persist ``(current_term, voted_for)`` before replying to RPCs."""
        self.current_term = term
        self.voted_for = voted_for
        name = (voted_for or "").encode("utf-8")
        body = _HARD.pack(HARD_MAGIC, term, len(name)) + name
        record = body + BATCH_CRC.pack(zlib.crc32(body))
        if len(record) > self.block_size:
            raise RaftLogError("voted_for name does not fit the hard-state block")
        self._ensure_blocks(0)
        self.device.write_blocks([(0, record)])

    def _load_hard_state(self) -> None:
        raw = self._read_block(0)
        if raw is None:
            return
        try:
            magic, term, name_len = _HARD.unpack_from(raw, 0)
        except struct.error:
            return
        if magic != HARD_MAGIC or _HARD.size + name_len + BATCH_CRC.size > len(raw):
            return
        body = raw[: _HARD.size + name_len]
        (crc,) = BATCH_CRC.unpack_from(raw, _HARD.size + name_len)
        if crc != zlib.crc32(body):
            return  # torn hard-state write: fall back to term 0, no vote
        self.current_term = term
        name = raw[_HARD.size : _HARD.size + name_len].decode("utf-8")
        self.voted_for = name or None

    # -- log geometry -------------------------------------------------------
    @property
    def last_index(self) -> int:
        return len(self._entries)

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else 0

    def term_at(self, index: int) -> int:
        """Term of the entry at 1-based ``index`` (0 → the sentinel term)."""
        if index == 0:
            return 0
        if not 1 <= index <= len(self._entries):
            raise RaftLogError(f"no entry at index {index}")
        return self._entries[index - 1].term

    def entry(self, index: int) -> LogEntry:
        if not 1 <= index <= len(self._entries):
            raise RaftLogError(f"no entry at index {index}")
        return self._entries[index - 1]

    def entries_from(self, index: int) -> list[LogEntry]:
        """Entries with index ≥ ``index`` (for AppendEntries payloads)."""
        return list(self._entries[max(index, 1) - 1 :])

    # -- append / truncate --------------------------------------------------
    def append(self, term: int, commands: list[bytes]) -> list[LogEntry]:
        """Append fresh leader-proposed commands; one durable batch."""
        entries = [
            LogEntry(term=term, index=self.last_index + 1 + i, command=cmd)
            for i, cmd in enumerate(commands)
        ]
        self._persist_batch(entries)
        self._entries.extend(entries)
        return entries

    def append_entries(self, entries: list[LogEntry]) -> None:
        """Append replicated entries verbatim (follower path)."""
        if not entries:
            return
        if entries[0].index != self.last_index + 1:
            raise RaftLogError(
                f"append at index {entries[0].index} but log ends at "
                f"{self.last_index}"
            )
        self._persist_batch(entries)
        self._entries.extend(entries)

    def truncate_from(self, index: int) -> None:
        """Discard every entry with index ≥ ``index`` (conflict rule)."""
        if index > self.last_index:
            return
        if index < 1:
            raise RaftLogError("cannot truncate the sentinel")
        survivors_of_partial: list[LogEntry] = []
        kept: list[_Batch] = []
        rewrite_from = self._next_block
        for batch in self._batches:
            batch_end = batch.first_index + batch.count
            if batch_end <= index:
                kept.append(batch)
                continue
            rewrite_from = min(rewrite_from, batch.start_block)
            if batch.first_index < index:
                survivors_of_partial.extend(
                    self._entries[batch.first_index - 1 : index - 1]
                )
        self._entries = self._entries[: index - 1]
        self._batches = kept
        self._next_block = rewrite_from
        if survivors_of_partial:
            self._persist_batch(survivors_of_partial)
        else:
            self._stamp_terminator()

    def _persist_batch(self, entries: list[LogEntry]) -> None:
        if not entries:
            return
        blocks: list[tuple[int, bytes]] = []
        position = self._next_block
        payloads = []
        for entry in entries:
            payload = _ENTRY.pack(entry.term, len(entry.command)) + entry.command
            if len(payload) > self.block_size:
                raise RaftLogError(
                    f"command of {len(entry.command)} bytes does not fit a "
                    f"{self.block_size}-byte log block"
                )
            payloads.append(payload + b"\x00" * (self.block_size - len(payload)))
        lsn = entries[0].index
        remaining = list(zip(entries, payloads))
        while remaining:
            group = remaining[: self._tags_per_desc]
            remaining = remaining[self._tags_per_desc :]
            header = BATCH_DESC.pack(DESC_MAGIC, lsn, len(group)) + b"".join(
                BATCH_TAG.pack(entry.index, zlib.crc32(data))
                for entry, data in group
            )
            blocks.append((position, header))
            position += 1
            for __, data in group:
                blocks.append((position, data))
                position += 1
        commit = BATCH_DESC.pack(COMMIT_MAGIC, lsn, len(entries))
        blocks.append((position, commit + BATCH_CRC.pack(zlib.crc32(commit))))
        position += 1
        # Terminator: recovery must not run into a stale next batch.
        blocks.append((position, b"\x00" * self.block_size))
        self._ensure_blocks(position)
        self.device.write_blocks(blocks)
        self._batches.append(
            _Batch(
                start_block=self._next_block,
                first_index=lsn,
                count=len(entries),
                blocks=position - self._next_block,
            )
        )
        self._next_block = position

    def _stamp_terminator(self) -> None:
        self._ensure_blocks(self._next_block)
        self.device.write_blocks([(self._next_block, b"\x00" * self.block_size)])

    # -- recovery -----------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild entries and batch map by walking batches from block 1.

        Stops at the first structurally invalid batch — a torn append.
        Every batch before it was acked durable, so its entries are the
        authoritative log prefix.
        """
        self._load_hard_state()
        position = 1
        while True:
            parsed = self._recover_batch(position)
            if parsed is None:
                break
            entries, consumed = parsed
            if entries[0].index != self.last_index + 1:
                break  # stale batch from a truncated longer log
            self._batches.append(
                _Batch(
                    start_block=position,
                    first_index=entries[0].index,
                    count=len(entries),
                    blocks=consumed,
                )
            )
            self._entries.extend(entries)
            position += consumed

        self._next_block = position

    def _recover_batch(self, start: int) -> tuple[list[LogEntry], int] | None:
        position = start
        entries: list[LogEntry] = []
        lsn: int | None = None
        while True:
            raw = self._read_block(position)
            if raw is None:
                return None
            try:
                magic, record_lsn, count = BATCH_DESC.unpack_from(raw, 0)
            except struct.error:
                return None
            if magic == COMMIT_MAGIC:
                (crc,) = BATCH_CRC.unpack_from(raw, BATCH_DESC.size)
                header = BATCH_DESC.pack(COMMIT_MAGIC, record_lsn, count)
                if (
                    lsn is None
                    or record_lsn != lsn
                    or count != len(entries)
                    or crc != zlib.crc32(header)
                ):
                    return None
                return entries, position - start + 1
            if magic != DESC_MAGIC:
                return None
            if lsn is None:
                lsn = record_lsn
            elif record_lsn != lsn:
                return None
            if not 1 <= count <= self._tags_per_desc:
                return None
            offset = BATCH_DESC.size
            for tag_index in range(count):
                index, crc = BATCH_TAG.unpack_from(raw, offset)
                offset += BATCH_TAG.size
                data = self._read_block(position + 1 + tag_index)
                if data is None or zlib.crc32(data) != crc:
                    return None
                try:
                    term, cmd_len = _ENTRY.unpack_from(data, 0)
                except struct.error:
                    return None
                if _ENTRY.size + cmd_len > len(data):
                    return None
                entries.append(
                    LogEntry(
                        term=term,
                        index=index,
                        command=bytes(data[_ENTRY.size : _ENTRY.size + cmd_len]),
                    )
                )
            position += 1 + count

    def _read_block(self, block_no: int) -> bytes | None:
        """The block's bytes, or ``None`` past the end of the device.

        Only running off the end means "end of log".  Any other read
        failure propagates: treating a failed read of block 0 as an
        empty log would forget ``(current_term, voted_for)`` and let
        the node vote twice in one term.
        """
        if block_no >= self.device.total_blocks:
            return None
        return self.device.read_block(block_no)
