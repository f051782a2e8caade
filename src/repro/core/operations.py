"""Operation pushdown module: the paper's Section 4.4 operations.

All seven operations — ``extract``, ``replace``, ``insert``, ``delete``,
``append``, ``search``, ``count`` — run directly against the compressed
block representation inside the storage engine, never materialising the
whole file.  Unaligned inserts and deletes create holes instead of
shifting data; ``search``/``count`` exploit block sharing by scanning
each distinct block once.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core import kmp
from repro.obs.metrics import MetricsRegistry
from repro.storage.inode import Inode, Slot
from repro.storage.journal import require_transaction, transactional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import CompressDB


class OperationError(Exception):
    """Raised on invalid operation arguments (bad range, unknown file)."""


#: The seven pushed-down operations plus word_count, registered as
#: ``engine.ops.*`` invocation counters.
OPERATION_FIELDS = (
    "extract",
    "replace",
    "insert",
    "delete",
    "append",
    "search",
    "count",
    "word_count",
)


class OperationStats:
    """Per-operation invocation counters (registry-backed).

    Mutation goes through :meth:`record`; reads go through
    :meth:`snapshot` (``stats.snapshot()["extract"]``).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        prefix: str = "engine.ops",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.prefix = prefix
        self._counters = {
            name: self.registry.counter(f"{prefix}.{name}")
            for name in OPERATION_FIELDS
        }

    def record(self, field_name: str, n: int = 1) -> None:
        self._counters[field_name].inc(n)

    def snapshot(self) -> dict[str, int]:
        return {name: c.value for name, c in self._counters.items()}

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.force(0)  # reprolint: disable=OBS001 -- reset() is the sanctioned zeroing path; force() keeps the shared instrument object while discarding its history


def _tokenize_block(content: bytes) -> tuple[bool, bytes, Counter, bytes]:
    """Per-block tokenisation for :meth:`OperationModule.word_count`.

    Returns ``(solid, head, middle_counts, tail)``:

    * ``solid`` — the content has no whitespace at all (the whole block
      is one fragment bridging its junctions; ``head`` carries it);
    * ``head`` — the leading fragment (non-empty when the content does
      not start with whitespace);
    * ``middle_counts`` — words that begin *and* end inside the block;
    * ``tail`` — the trailing fragment (non-empty when the content does
      not end with whitespace).
    """
    if not content:
        return False, b"", Counter(), b""
    words = content.split()
    if not words:  # all whitespace
        return False, b"", Counter(), b""
    starts_mid_word = not content[:1].isspace()
    ends_mid_word = not content[-1:].isspace()
    if starts_mid_word and ends_mid_word and len(words) == 1:
        if len(words[0]) == len(content):
            return True, words[0], Counter(), b""
        # A single word with interior whitespace is impossible; this is
        # one word with surrounding whitespace stripped on one side only.
    head = words[0] if starts_mid_word else b""
    tail = words[-1] if ends_mid_word else b""
    middle = words[1 if starts_mid_word else 0 : len(words) - (1 if ends_mid_word else 0)]
    return False, head, Counter(middle), tail


@dataclass
class OperationModule:
    """Binds the seven pushed-down operations to a CompressDB engine."""

    engine: "CompressDB"
    stats: OperationStats = field(default_factory=OperationStats)

    # -- helpers -----------------------------------------------------------
    def _inode(self, path: str) -> Inode:
        return self.engine.inode(path)

    def _slot_content(self, slot: Slot) -> bytes:
        """Valid bytes of a slot's block (hole stripped)."""
        return self.engine.device.read_block(slot.block_no)[: slot.used]

    def _chunk_slots(self, data: bytes) -> list[tuple[bytes, int]]:
        """Split ``data`` into (content, used) pieces of at most one block."""
        block_size = self.engine.device.block_size
        pieces = []
        for start in range(0, len(data), block_size):
            piece = data[start : start + block_size]
            pieces.append((piece, len(piece)))
        return pieces

    def _check_range(self, inode: Inode, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > inode.size:
            raise OperationError(
                f"range [{offset}, {offset + length}) outside file of {inode.size} bytes"
            )

    # -- extract ---------------------------------------------------------------
    def extract(self, path: str, offset: int, size: int) -> bytes:
        """Read ``size`` logical bytes starting at ``offset``.

        Reads beyond end-of-file are truncated (POSIX ``read``
        semantics).  The covering slot run is fetched in one
        scatter-gather device transaction via :meth:`CompressDB.readv`.
        """
        self.stats.record("extract")
        self._inode(path)  # existence check + pending-write flush
        if offset < 0 or size < 0:
            raise OperationError("offset and size must be non-negative")
        return self.engine.readv(path, [(offset, size)])[0]

    # -- replace ----------------------------------------------------------------
    @transactional
    def replace(self, path: str, offset: int, data: bytes) -> None:
        """Overwrite ``len(data)`` bytes at ``offset`` in place.

        Unlike "delete + insert", replace rewrites the affected blocks
        directly (copy-on-write when shared), leaving the block layout
        and hole structure untouched.

        The slot run covering the range is planned first: fully
        overwritten slots need no device read at all, the partially
        covered boundary slots are fetched in one batched read, and the
        whole run commits through :meth:`Compressor.commit_many` as a
        single scatter-gather write — Algorithm 1 still runs per block.
        """
        self.stats.record("replace")
        inode = self._inode(path)
        self._check_range(inode, offset, len(data))
        if not data:
            return
        slot_index, within = inode.locate(offset)
        # Plan the slot run: (index, slot, offset-in-slot, take, data-offset).
        plan: list[tuple[int, Slot, int, int, int]] = []
        consumed = 0
        index = slot_index
        while consumed < len(data):
            slot = inode.slot_at(index)
            take = min(slot.used - within, len(data) - consumed)
            plan.append((index, slot, within, take, consumed))
            consumed += take
            within = 0
            index += 1
        # Boundary slots keep bytes outside the range: batch-read them.
        boundary = [
            slot.block_no
            for __, slot, begin, take, __ in plan
            if begin > 0 or take < slot.used
        ]
        old_contents = dict(
            zip(boundary, self.engine.device.read_blocks(boundary))
        )
        items: list[tuple[int, bytes, int]] = []
        for index, slot, begin, take, data_offset in plan:
            piece = data[data_offset : data_offset + take]
            if begin == 0 and take == slot.used:
                new_content = piece
            else:
                old = old_contents[slot.block_no][: slot.used]
                new_content = old[:begin] + piece + old[begin + take :]
            items.append((index, new_content, slot.used))
        self.engine.compressor.commit_many(inode, items)

    # -- insert --------------------------------------------------------------------
    @transactional
    def insert(self, path: str, offset: int, data: bytes) -> None:
        """Insert ``data`` at logical ``offset`` without moving other blocks.

        The slot containing ``offset`` is split; the inserted bytes are
        packed after the split point, and any unaligned tail becomes a
        hole (Figure 3c).  Only the affected pointer-page entries change.
        """
        self.stats.record("insert")
        inode = self._inode(path)
        if offset < 0 or offset > inode.size:
            raise OperationError(
                f"insert offset {offset} outside file of {inode.size} bytes"
            )
        if not data:
            return
        if offset == inode.size:
            self._append_data(inode, data)
            return
        slot_index, within = inode.locate(offset)
        if within == 0:
            # Aligned with a slot boundary: splice new slots in directly,
            # storing the whole run as one batched write.
            slots = self.engine.compressor.store_many(self._chunk_slots(data))
            for i, slot in enumerate(slots):
                inode.insert_slot(slot_index + i, slot)
            return
        # Split the slot: left part + inserted data, then the right part.
        slot = inode.slot_at(slot_index)
        old_content = self._slot_content(slot)
        left = old_content[:within]
        right = old_content[within:]
        self.engine.compressor.release(slot)
        inode.remove_slot(slot_index)
        pieces = self._chunk_slots(left + data)
        if right:
            pieces.append((right, len(right)))
        insert_at = slot_index
        for new_slot in self.engine.compressor.store_many(pieces):
            inode.insert_slot(insert_at, new_slot)
            insert_at += 1

    # -- delete ----------------------------------------------------------------------
    @transactional
    def delete(self, path: str, offset: int, length: int, merge_holes: bool = True) -> None:
        """Remove ``length`` bytes at ``offset``, leaving holes.

        Fully covered slots are released; the partial head and tail
        slots keep their remaining data at the front of a block with a
        hole at the end.  With ``merge_holes`` the head and tail
        remainders are packed into a single block when they fit,
        releasing the extra block (the hole-merging process of
        Section 4.4).
        """
        self.stats.record("delete")
        inode = self._inode(path)
        self._check_range(inode, offset, length)
        if length == 0:
            return
        start_index, start_within = inode.locate(offset)
        remaining = length
        # Head fragment: trim the tail of the first slot if the delete
        # starts mid-slot.
        if start_within > 0:
            slot = inode.slot_at(start_index)
            head_cut = min(slot.used - start_within, remaining)
            content = self._slot_content(slot)
            new_content = content[:start_within] + content[start_within + head_cut :]
            self.engine.compressor.commit(inode, start_index, new_content, len(new_content))
            remaining -= head_cut
            start_index += 1
        # Whole slots fully covered by the delete range.
        while remaining > 0:
            slot = inode.slot_at(start_index)
            if slot.used > remaining:
                break
            self.engine.compressor.release(slot)
            inode.remove_slot(start_index)
            remaining -= slot.used
        # Tail fragment: trim the head of the last slot.
        if remaining > 0:
            slot = inode.slot_at(start_index)
            content = self._slot_content(slot)
            new_content = content[remaining:]
            self.engine.compressor.commit(inode, start_index, new_content, len(new_content))
        if merge_holes and start_within > 0 and start_index < inode.num_slots:
            self._merge_adjacent(inode, start_index - 1)

    def _merge_adjacent(self, inode: Inode, left_index: int) -> None:
        """Merge two adjacent holey slots into one block when they fit."""
        require_transaction(self.engine.device)
        if left_index < 0 or left_index + 1 >= inode.num_slots:
            return
        left = inode.slot_at(left_index)
        right = inode.slot_at(left_index + 1)
        if left.used + right.used > inode.block_size:
            return
        if left.used == inode.block_size or right.used == inode.block_size:
            return
        merged = self._slot_content(left) + self._slot_content(right)
        self.engine.compressor.release(right)
        inode.remove_slot(left_index + 1)
        self.engine.compressor.commit(inode, left_index, merged, len(merged))

    # -- append -----------------------------------------------------------------------
    @transactional
    def append(self, path: str, data: bytes) -> None:
        """Append ``data`` at the end of the file.

        The end position is known from the inode, so no search for the
        insert position is needed; a trailing hole in the last slot is
        filled first, then whole blocks are stored (dedup applies).
        """
        self.stats.record("append")
        inode = self._inode(path)
        self._append_data(inode, data)

    def _append_data(self, inode: Inode, data: bytes) -> None:
        require_transaction(self.engine.device)
        if not data:
            return
        block_size = inode.block_size
        if inode.num_slots > 0:
            last_index = inode.num_slots - 1
            last = inode.slot_at(last_index)
            room = block_size - last.used
            if room > 0:
                fill = data[:room]
                content = self._slot_content(last) + fill
                self.engine.compressor.commit(inode, last_index, content, len(content))
                data = data[room:]
        # The tail commits as one scatter-gather store of whole blocks.
        for slot in self.engine.compressor.store_many(self._chunk_slots(data)):
            inode.append_slot(slot)

    # -- analytics pushdown -----------------------------------------------------------
    def word_count(self, path: str) -> Counter:
        """Whitespace-token counts, computed on the compressed form.

        The TADOC-style analytics pushdown of Section 4.1: each
        *distinct* (block, used) pair is tokenised exactly once into
        (head fragment, complete-word counts, tail fragment); the file
        result stitches the per-block triples together, joining the
        fragments that span slot junctions.  A block shared by many
        slots contributes its counts at dictionary-merge cost.
        """
        self.stats.record("word_count")
        inode = self._inode(path)
        total: Counter = Counter()
        if inode.size == 0:
            return total
        slot_offsets, contents = self._gather(inode)
        analysis: dict[tuple[int, int], tuple] = {}
        for slot, __ in slot_offsets:
            key = (slot.block_no, slot.used)
            if key not in analysis:
                analysis[key] = _tokenize_block(contents[slot.block_no][: slot.used])
        pending = b""
        for slot, __ in slot_offsets:
            solid, head, middle, tail = analysis[(slot.block_no, slot.used)]
            if solid:
                # No whitespace at all: the whole block extends the
                # fragment crossing this junction.
                pending += head
                continue
            if head:
                total[pending + head] += 1
            elif pending:
                total[pending] += 1
            total.update(middle)
            pending = tail
        if pending:
            total[pending] += 1
        return total

    # -- search / count ------------------------------------------------------------------
    def search(self, path: str, pattern: bytes, workers: Optional[int] = None) -> list[int]:
        """All logical offsets where ``pattern`` occurs in the file.

        Phase 1 scans each *distinct* (block, used) pair once and maps
        the local matches to every slot referencing that block — the
        data-reuse saving of Section 4.4.  Phase 2 slides a window over
        slot junctions to catch cross-block occurrences.  Overlapping
        matches are reported.

        ``workers`` runs the in-block phase on a thread pool — the
        paper's parallel block-level search (Figure 3e); results are
        identical to the sequential scan.
        """
        self.stats.record("search")
        return self._search_impl(path, pattern, workers=workers)

    def count(self, path: str, pattern: bytes) -> int:
        """Number of occurrences of ``pattern`` in the file.

        Unlike ``search``, count does not materialise offsets: the
        per-block frequency is computed once per *distinct* (block,
        used) pair and multiplied by how often that pair occurs — the
        Section 4.4 saving of reading frequencies "directly" from the
        shared-block structure — plus the cross-junction occurrences.
        """
        self.stats.record("count")
        inode = self._inode(path)
        m = len(pattern)
        if m == 0 or inode.size == 0 or m > inode.size:
            return 0
        slot_offsets, contents = self._gather(inode)
        combo_counts: dict[tuple[int, int], int] = {}
        multiplicity: dict[tuple[int, int], int] = {}
        for slot, __ in slot_offsets:
            key = (slot.block_no, slot.used)
            multiplicity[key] = multiplicity.get(key, 0) + 1
            if key not in combo_counts:
                combo_counts[key] = kmp.count_matches(
                    contents[slot.block_no][: slot.used], pattern
                )
        total = sum(
            combo_counts[key] * occurrences
            for key, occurrences in multiplicity.items()
        )
        # Cross-junction matches: each is attributed to the first
        # junction it crosses, i.e. it starts inside the slot just left
        # of that junction — so every crossing match counts exactly once.
        for junction_index in range(1, len(slot_offsets)):
            junction = slot_offsets[junction_index][1]
            left_slot = slot_offsets[junction_index - 1][0]
            window, window_start = self._junction_window(
                slot_offsets, contents, junction_index, m
            )
            if len(window) < m:
                continue
            first_start = junction - left_slot.used
            for local in kmp.iter_matches(window, pattern):
                absolute = window_start + local
                if first_start <= absolute < junction < absolute + m:
                    total += 1
        return total

    def _gather(
        self, inode: Inode
    ) -> tuple[list[tuple[Slot, int]], dict[int, bytes]]:
        """Slots with their logical offsets + each distinct block's bytes.

        Each distinct block is read from the device exactly once — the
        data-reuse saving of Section 4.4; the in-block scans and
        junction windows afterwards work on these buffers.
        """
        slot_offsets: list[tuple[Slot, int]] = []
        offset = 0
        for slot in inode.iter_slots():
            slot_offsets.append((slot, offset))
            offset += slot.used
        # One scatter-gather read over the distinct blocks of the file.
        unique = list(dict.fromkeys(slot.block_no for slot, __ in slot_offsets))
        contents = dict(zip(unique, self.engine.device.read_blocks(unique)))
        return slot_offsets, contents

    def _junction_window(
        self,
        slot_offsets: list[tuple[Slot, int]],
        contents: dict[int, bytes],
        junction_index: int,
        m: int,
    ) -> tuple[bytes, int]:
        """The up-to-2(m-1)-byte window around one slot junction."""
        junction = slot_offsets[junction_index][1]
        left_slot = slot_offsets[junction_index - 1][0]
        window_left = contents[left_slot.block_no][: left_slot.used][-(m - 1) :]
        window_right = bytearray()
        for slot, __ in slot_offsets[junction_index:]:
            if len(window_right) >= m - 1:
                break
            window_right += contents[slot.block_no][: slot.used]
        window = window_left + bytes(window_right[: m - 1])
        return window, junction - len(window_left)

    def _search_impl(
        self, path: str, pattern: bytes, workers: Optional[int] = None
    ) -> list[int]:
        inode = self._inode(path)
        m = len(pattern)
        if m == 0 or inode.size == 0 or m > inode.size:
            return []
        matches: set[int] = set()
        slot_offsets, contents = self._gather(inode)
        # Phase 1: in-block search, one scan per distinct (block, used).
        keys = {(slot.block_no, slot.used) for slot, __ in slot_offsets}
        if workers and workers > 1:
            def scan(key: tuple[int, int]) -> tuple[tuple[int, int], list[int]]:
                block_no, used = key
                return key, kmp.find_all(contents[block_no][:used], pattern)

            with ThreadPoolExecutor(max_workers=workers) as pool:
                local_cache = dict(pool.map(scan, keys))
        else:
            local_cache = {
                (block_no, used): kmp.find_all(contents[block_no][:used], pattern)
                for block_no, used in keys
            }
        for slot, slot_start in slot_offsets:
            for local in local_cache[(slot.block_no, slot.used)]:
                matches.add(slot_start + local)
        # Phase 2: cross-block windows around each junction between slots.
        for junction_index in range(1, len(slot_offsets)):
            junction = slot_offsets[junction_index][1]
            window, window_start = self._junction_window(
                slot_offsets, contents, junction_index, m
            )
            if len(window) < m:
                continue
            for local in kmp.iter_matches(window, pattern):
                absolute = window_start + local
                if absolute < junction < absolute + m:
                    matches.add(absolute)
        return sorted(matches)
