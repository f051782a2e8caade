"""Lightweight column-block codecs for the MiniColumn store.

CompressDB's thesis — process data *in its compressed form* — applied
to the column store: an insert batch is written as one encoded block,
chosen per batch by a small stats-driven picker, and the scan path
hands the executor *encoded vectors* instead of materialised cells:

* ``PLAIN``  — the original fixed-width cells (8 bytes per value);
* ``RLE``    — (value, run length) pairs; a predicate touches each run
  once, aggregates weight a run's value by its length;
* ``DELTA``  — first value + bit-packed deltas (frame-of-reference on
  the per-batch minimum delta); sorted/near-sorted integer columns
  collapse to a few bits per row;
* ``DICT``   — per-block string dictionary + bit-packed codes; a TEXT
  predicate is evaluated once per *distinct* value.

This module is the **only** place column block payloads are decoded —
reprolint rule ENC001 taints struct-unpacking of ``.col`` payloads
anywhere outside :mod:`repro.databases`, so other layers (the cluster,
benchmarks, workloads) go through the public helpers here, e.g.
:func:`fold_int_cells` for pushed-down cell aggregation.

All codecs round-trip NULLs: fixed-width cells reserve sentinel values
(:data:`NULL_INT`, :data:`NULL_REAL`), RLE runs carry the sentinel,
and a dictionary may contain a NULL entry.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, lshift
from typing import Callable, Optional, Sequence, Union

from repro.databases.common import DatabaseError

#: Encoding identifiers persisted in the block directory.
PLAIN = 0
RLE = 1
DELTA = 2
DICT = 3

ENCODING_NAMES = {PLAIN: "plain", RLE: "rle", DELTA: "delta", DICT: "dict"}

#: NULL encodings inside fixed-width cells.
NULL_INT = -(2**62) - 1
NULL_REAL = float("-inf")
NULL_LENGTH = (1 << 64) - 1  # TEXT NULL marker in an offset-pair length

_INT_CELL = struct.Struct("<q")
_REAL_CELL = struct.Struct("<d")
_RUN_HEADER = struct.Struct("<I")
_INT_RUN = struct.Struct("<qI")
_REAL_RUN = struct.Struct("<dI")
_DELTA_HEADER = struct.Struct("<qqB")
_DICT_HEADER = struct.Struct("<I")
_DICT_ENTRY = struct.Struct("<I")
_DICT_NULL = (1 << 32) - 1  # dictionary-entry length marking NULL
_CODE_HEADER = struct.Struct("<B")

#: An encoded block must beat plain by at least this factor to be worth
#: the decode step; otherwise the picker keeps the plain format.
PICK_THRESHOLD = 0.9

#: Widest delta the bit-packer will take; beyond this the frame of
#: reference stops paying (and sentinel-bearing batches are excluded).
MAX_DELTA_BITS = 56

Value = Union[int, float, str, None]


class CodecError(DatabaseError):
    """A block payload does not decode under its declared encoding."""


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------

#: Values per bit-packing chunk: a chunk of ``width``-bit values spans
#: exactly ``8 * width`` bytes, so chunks concatenate byte-aligned and
#: every shift works on a bounded-size int (linear, not quadratic).
_CHUNK = 64


def pack_bits(values: Sequence[int], width: int) -> bytes:
    """Pack non-negative ints of ``width`` bits each, little-endian."""
    if width == 0 or not values:
        return b""
    shifts = range(0, _CHUNK * width, width)
    chunk_bytes = _CHUNK * width // 8
    packed = b"".join(
        # Values occupy disjoint bit fields, so their sum is their OR.
        sum(map(lshift, values[start : start + _CHUNK], shifts)).to_bytes(
            chunk_bytes, "little"
        )
        for start in range(0, len(values), _CHUNK)
    )
    return packed[: (len(values) * width + 7) // 8]


#: Widths up to this unpack by byte lanes: every value then spans at
#: most two bytes, so a lane costs one ``bytes.translate`` plus at most
#: one table-lookup pass.  Wider values unpack by 64-value chunks.
_LANE_MAX_WIDTH = 10


@lru_cache(maxsize=None)
def _lane_plan(width: int) -> tuple[tuple[int, bytes, Optional[tuple[int, ...]]], ...]:
    """How to read lane ``j`` — the ``j``-th value of every 8-value
    group, which spans exactly ``width`` bytes — for each of the 8
    lanes: the lane's first byte in a group, a ``translate`` table
    extracting its low bits there, and a lookup table placing the high
    bits from the next byte (``None`` when the value fits one byte)."""
    mask = (1 << width) - 1
    plan = []
    for lane in range(8):
        first, shift = divmod(lane * width, 8)
        low = bytes((byte >> shift) & mask for byte in range(256))
        high = None
        if shift + width > 8:
            high = tuple((byte << (8 - shift)) & mask for byte in range(256))
        plan.append((first, low, high))
    return tuple(plan)


def unpack_bits(data: bytes, width: int, count: int) -> list[int]:
    """Inverse of :func:`pack_bits` for ``count`` values."""
    if width == 0:
        return [0] * count
    if width <= _LANE_MAX_WIDTH:
        groups = (count + 7) // 8
        data = bytes(data[: groups * width]).ljust(groups * width, b"\0")
        out = [0] * (groups * 8)
        for lane, (first, low, high) in enumerate(_lane_plan(width)):
            values = data[first::width].translate(low)
            if high is not None:
                values = map(add, values, map(high.__getitem__, data[first + 1 :: width]))
            out[lane::8] = values
        del out[count:]
        return out
    mask = (1 << width) - 1
    shifts = range(0, _CHUNK * width, width)
    chunk_bytes = _CHUNK * width // 8
    out = []
    for offset in range(0, (count * width + 7) // 8, chunk_bytes):
        chunk = int.from_bytes(data[offset : offset + chunk_bytes], "little")
        out.extend(map(mask.__and__, map(chunk.__rshift__, shifts)))
    del out[count:]
    return out


def _bit_width(value: int) -> int:
    return max(1, value.bit_length()) if value else 0


# ---------------------------------------------------------------------------
# storage-value mapping (logical value <-> sentinel-bearing cell value)
# ---------------------------------------------------------------------------

def _to_storage(type_name: str, value: Value) -> Union[int, float]:
    if value is None:
        return NULL_INT if type_name == "INT" else NULL_REAL
    return int(value) if type_name == "INT" else float(value)  # type: ignore[arg-type]


def _from_storage(type_name: str, cell: Union[int, float]) -> Value:
    if type_name == "INT":
        return None if cell == NULL_INT else cell
    return None if cell == NULL_REAL else cell


# ---------------------------------------------------------------------------
# column vectors: what the scan hands the vectorized executor
# ---------------------------------------------------------------------------

class ColumnVector:
    """One column of one block, possibly still encoded.

    Predicates run block-at-a-time: :meth:`select` hands a vectorized
    test the fewest values that decide every row — all values of a
    plain block, one per RLE run, one per dictionary entry — and
    expands the verdicts back to one per row.
    """

    encoding: int = PLAIN

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def materialize(self) -> list[Value]:
        """Logical values, one per row."""
        raise NotImplementedError

    def select(self, test: Callable[[list[Value]], list[bool]]) -> list[bool]:
        """Per-row results of ``test``, a predicate over a value list."""
        raise NotImplementedError


class PlainVector(ColumnVector):
    """Materialised values (plain blocks, or decoded delta blocks)."""

    __slots__ = ("values",)
    encoding = PLAIN

    def __init__(self, values: list[Value]) -> None:
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def materialize(self) -> list[Value]:
        return self.values

    def select(self, test: Callable[[list[Value]], list[bool]]) -> list[bool]:
        return test(self.values)


class RLEVector(ColumnVector):
    """Run-length encoded values: the predicate touches each run once."""

    __slots__ = ("run_values", "run_lengths")
    encoding = RLE

    def __init__(self, run_values: list[Value], run_lengths: list[int]) -> None:
        self.run_values = run_values
        self.run_lengths = run_lengths

    def __len__(self) -> int:
        return sum(self.run_lengths)

    def materialize(self) -> list[Value]:
        return list(chain.from_iterable(map(repeat, self.run_values, self.run_lengths)))

    def select(self, test: Callable[[list[Value]], list[bool]]) -> list[bool]:
        verdicts = test(self.run_values)  # one test per run
        return list(chain.from_iterable(map(repeat, verdicts, self.run_lengths)))

    def runs(self) -> list[tuple[Value, int]]:
        return list(zip(self.run_values, self.run_lengths))


class DictVector(ColumnVector):
    """Dictionary-encoded strings: the predicate tests the dictionary."""

    __slots__ = ("dictionary", "codes")
    encoding = DICT

    def __init__(self, dictionary: list[Value], codes: list[int]) -> None:
        self.dictionary = dictionary
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def materialize(self) -> list[Value]:
        return list(map(self.dictionary.__getitem__, self.codes))

    def select(self, test: Callable[[list[Value]], list[bool]]) -> list[bool]:
        verdicts = test(self.dictionary)  # one test per distinct value
        return list(map(verdicts.__getitem__, self.codes))


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

def encode_plain(type_name: str, values: Sequence[Value]) -> bytes:
    """Fixed-width cells for INT/REAL (TEXT plain blocks live in the
    heap + offsets form and are assembled by the column file)."""
    if type_name == "INT":
        return b"".join(_INT_CELL.pack(_to_storage("INT", v)) for v in values)  # type: ignore[arg-type]
    if type_name == "REAL":
        return b"".join(_REAL_CELL.pack(_to_storage("REAL", v)) for v in values)  # type: ignore[arg-type]
    raise CodecError(f"no plain cell format for {type_name}")


def decode_plain(type_name: str, payload: bytes) -> list[Value]:
    if type_name == "INT":
        cell, null = _INT_CELL, NULL_INT
    elif type_name == "REAL":
        cell, null = _REAL_CELL, NULL_REAL
    else:
        raise CodecError(f"no plain cell format for {type_name}")
    values: list[Value] = list(map(itemgetter(0), cell.iter_unpack(payload)))
    if null in values:
        values = [None if value == null else value for value in values]
    return values


def _runs_of(values: Sequence[Value]) -> list[tuple[Value, int]]:
    runs: list[tuple[Value, int]] = []
    for value in values:
        if runs and runs[-1][0] == value and type(runs[-1][0]) is type(value):
            runs[-1] = (value, runs[-1][1] + 1)
        else:
            runs.append((value, 1))
    return runs


def encode_rle(type_name: str, values: Sequence[Value]) -> bytes:
    cell = _INT_RUN if type_name == "INT" else _REAL_RUN
    runs = _runs_of(values)
    out = bytearray(_RUN_HEADER.pack(len(runs)))
    for value, length in runs:
        out += cell.pack(_to_storage(type_name, value), length)  # type: ignore[arg-type]
    return bytes(out)


def decode_rle_runs(type_name: str, payload: bytes) -> tuple[list[Value], list[int]]:
    cell = _INT_RUN if type_name == "INT" else _REAL_RUN
    (run_count,) = _RUN_HEADER.unpack_from(payload, 0)
    run_values: list[Value] = []
    run_lengths: list[int] = []
    offset = _RUN_HEADER.size
    for __ in range(run_count):
        raw, length = cell.unpack_from(payload, offset)
        run_values.append(_from_storage(type_name, raw))
        run_lengths.append(length)
        offset += cell.size
    return run_values, run_lengths


def encode_delta(values: Sequence[int]) -> bytes:
    """First value + frame-of-reference bit-packed deltas (INT, no NULLs)."""
    if not values:
        return b""
    first = values[0]
    deltas = [b - a for a, b in zip(values, values[1:])]
    if deltas:
        low = min(deltas)
        width = _bit_width(max(delta - low for delta in deltas))
    else:
        low, width = 0, 0
    if width > MAX_DELTA_BITS:
        raise CodecError(f"delta width {width} exceeds {MAX_DELTA_BITS}")
    packed = pack_bits([delta - low for delta in deltas], width)
    return _DELTA_HEADER.pack(first, low, width) + packed


def decode_delta(payload: bytes, count: int) -> list[Value]:
    if count == 0:
        return []
    first, low, width = _DELTA_HEADER.unpack_from(payload, 0)
    if width == 0:  # every delta equals ``low``: an arithmetic progression
        return list(range(first, first + low * count, low)) if low else [first] * count
    packed = unpack_bits(payload[_DELTA_HEADER.size :], width, count - 1)
    return list(accumulate(map(low.__add__, packed), initial=first))


def encode_dict(values: Sequence[Value]) -> bytes:
    """Per-block dictionary + bit-packed codes for TEXT values."""
    dictionary: list[Value] = []
    index: dict[Value, int] = {}
    codes = []
    for value in values:
        code = index.get(value)
        if code is None:
            code = len(dictionary)
            index[value] = code
            dictionary.append(value)
        codes.append(code)
    width = _bit_width(len(dictionary) - 1) if len(dictionary) > 1 else 0
    out = bytearray(_DICT_HEADER.pack(len(dictionary)))
    for entry in dictionary:
        if entry is None:
            out += _DICT_ENTRY.pack(_DICT_NULL)
        else:
            raw = str(entry).encode("utf-8")
            out += _DICT_ENTRY.pack(len(raw))
            out += raw
    out += _CODE_HEADER.pack(width)
    out += pack_bits(codes, width)
    return bytes(out)


def decode_dict_parts(payload: bytes, count: int) -> tuple[list[Value], list[int]]:
    (entry_count,) = _DICT_HEADER.unpack_from(payload, 0)
    offset = _DICT_HEADER.size
    dictionary: list[Value] = []
    for __ in range(entry_count):
        (length,) = _DICT_ENTRY.unpack_from(payload, offset)
        offset += _DICT_ENTRY.size
        if length == _DICT_NULL:
            dictionary.append(None)
        else:
            dictionary.append(payload[offset : offset + length].decode("utf-8"))
            offset += length
    (width,) = _CODE_HEADER.unpack_from(payload, offset)
    offset += _CODE_HEADER.size
    codes = unpack_bits(payload[offset:], width, count)
    return dictionary, codes


# ---------------------------------------------------------------------------
# the picker: per-batch statistics decide the block format
# ---------------------------------------------------------------------------

def estimate_sizes(type_name: str, values: Sequence[Value]) -> dict[int, int]:
    """Estimated payload bytes per applicable encoding (PLAIN included)."""
    n = len(values)
    sizes: dict[int, int] = {}
    if type_name == "TEXT":
        distinct = set(values)
        heap = sum(len(str(v).encode("utf-8")) for v in values if v is not None)
        sizes[PLAIN] = 16 * n + heap
        dict_bytes = _DICT_HEADER.size + sum(
            _DICT_ENTRY.size + (0 if v is None else len(str(v).encode("utf-8")))
            for v in distinct
        )
        width = _bit_width(len(distinct) - 1) if len(distinct) > 1 else 0
        sizes[DICT] = dict_bytes + _CODE_HEADER.size + (n * width + 7) // 8
        return sizes
    sizes[PLAIN] = 8 * n
    run_cell = _INT_RUN.size if type_name == "INT" else _REAL_RUN.size
    sizes[RLE] = _RUN_HEADER.size + len(_runs_of(values)) * run_cell
    if type_name == "INT" and n > 0 and all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        ints = [int(v) for v in values]  # type: ignore[arg-type]
        deltas = [b - a for a, b in zip(ints, ints[1:])]
        if deltas:
            low = min(deltas)
            width = _bit_width(max(d - low for d in deltas))
        else:
            width = 0
        if width <= MAX_DELTA_BITS:
            sizes[DELTA] = _DELTA_HEADER.size + ((n - 1) * width + 7) // 8
    return sizes


def choose_encoding(type_name: str, values: Sequence[Value]) -> int:
    """Stats-driven per-batch format choice with a plain fallback."""
    if not values:
        return PLAIN
    sizes = estimate_sizes(type_name, values)
    plain = sizes.pop(PLAIN)
    if not sizes:
        return PLAIN
    best = min(sizes, key=lambda enc: sizes[enc])
    if sizes[best] < plain * PICK_THRESHOLD:
        return best
    return PLAIN


# ---------------------------------------------------------------------------
# block encode/decode entry points (numeric + dictionary blocks; plain
# TEXT blocks are heap-backed and assembled by the column file)
# ---------------------------------------------------------------------------

def encode_block(type_name: str, encoding: int, values: Sequence[Value]) -> bytes:
    if encoding == PLAIN:
        return encode_plain(type_name, values)
    if encoding == RLE:
        return encode_rle(type_name, values)
    if encoding == DELTA:
        return encode_delta([int(v) for v in values])  # type: ignore[arg-type]
    if encoding == DICT:
        return encode_dict(values)
    raise CodecError(f"unknown encoding {encoding}")


def decode_block(type_name: str, encoding: int, payload: bytes, count: int) -> list[Value]:
    return decode_vector(type_name, encoding, payload, count).materialize()


def decode_vector(
    type_name: str, encoding: int, payload: bytes, count: int
) -> ColumnVector:
    """Decode a block payload into its natural vector representation."""
    if encoding == PLAIN:
        return PlainVector(decode_plain(type_name, payload))
    if encoding == RLE:
        run_values, run_lengths = decode_rle_runs(type_name, payload)
        return RLEVector(run_values, run_lengths)
    if encoding == DELTA:
        return PlainVector(decode_delta(payload, count))
    if encoding == DICT:
        dictionary, codes = decode_dict_parts(payload, count)
        return DictVector(dictionary, codes)
    raise CodecError(f"unknown encoding {encoding}")


# ---------------------------------------------------------------------------
# cell folding: the cluster's pushed-down aggregate primitive
# ---------------------------------------------------------------------------

def pack_int_cells(values: Sequence[Optional[int]]) -> bytes:
    """Little-endian int64 cells with the NULL sentinel (the `.col`
    plain INT wire format, exposed so non-database layers never pack
    or unpack it by hand)."""
    return encode_plain("INT", list(values))


def fold_int_cells(data: bytes) -> tuple[int, int, Optional[int], Optional[int]]:
    """Fold raw plain-INT cells into ``(count, sum, min, max)``.

    ``count`` is the number of non-NULL cells; NULL sentinels are
    skipped, matching SQL aggregate semantics.  This is what a chunk
    server runs locally for a pushed-down aggregate: the cells never
    cross the network, only this 4-tuple does.
    """
    count = 0
    total = 0
    minimum: Optional[int] = None
    maximum: Optional[int] = None
    for (cell,) in _INT_CELL.iter_unpack(data):
        if cell == NULL_INT:
            continue
        count += 1
        total += cell
        if minimum is None or cell < minimum:
            minimum = cell
        if maximum is None or cell > maximum:
            maximum = cell
    return count, total, minimum, maximum


def merge_folds(
    parts: Sequence[tuple[int, int, Optional[int], Optional[int]]]
) -> tuple[int, int, Optional[int], Optional[int]]:
    """Combine partial ``fold_int_cells`` results from several servers."""
    count = 0
    total = 0
    minimum: Optional[int] = None
    maximum: Optional[int] = None
    for part_count, part_total, part_min, part_max in parts:
        count += part_count
        total += part_total
        if part_min is not None and (minimum is None or part_min < minimum):
            minimum = part_min
        if part_max is not None and (maximum is None or part_max > maximum):
            maximum = part_max
    return count, total, minimum, maximum
