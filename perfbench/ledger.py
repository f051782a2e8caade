"""The per-layer ledger: spans recorded from outside the program.

:class:`Ledger` replaces each layer's public entry points with thin
wrappers while a traced run executes, and restores the originals after.
The untraced timed loop never sees a wrapper.

Each span records its name, layer, ``perf_counter_ns`` start and end,
the SimClock at start and end, its parent span and the op it belongs
to.  Spans stay in memory and are written as Chrome-trace JSON at the
end.  A layer's self time is the summed duration of its spans minus
the time their child spans cover; the part of an op's wall time no
span covers is printed as the unattributed remainder.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from pathlib import Path

from repro.core.compressor import Compressor
from repro.core.engine import CompressDB
from repro.core.operations import OperationModule
from repro.databases import minicolumn
from repro.databases.minileveldb import MiniLevelDB
from repro.distributed.chunkserver import ChunkServer
from repro.distributed.client import ClusterClient
from repro.distributed.replicated import MasterGroup, ReplicatedMaster
from repro.fs.compressfs import CompressFS
from repro.fs.vfs import FileSystem
from repro.raft.node import RaftNode
from repro.serving import protocol, server
from repro.serving.namespace import NamespaceFS
from repro.storage.block_device import BlockDevice
from repro.storage.inode import Inode
from repro.storage.journal import JournalDevice

from measure import Loop, build, measure

_FS_CALLS = (
    "open", "close", "read", "write", "pread", "pwrite", "preadv", "pwritev",
    "fsync", "ftruncate", "truncate", "unlink", "read_file", "write_file",
    "append_file", "_create", "_unlink", "_pread", "_pwrite", "_preadv",
    "_pwritev", "_truncate", "_sync",
)

#: (layer, owner, entry points).  Owners are classes, or the module a
#: caller looks a function up in (the server resolves ``encode_frame``
#: in its own namespace and ``decode_frame`` through ``protocol``).
LAYERS = (
    ("serving", server.Server, ("serve_frame",)),
    ("serving.codec", protocol, ("decode_frame",)),
    ("serving.codec", server, ("encode_frame",)),
    ("databases.minileveldb", MiniLevelDB,
     ("put", "get", "delete", "scan", "compact", "flush_memtable")),
    ("databases.minicolumn", minicolumn.MiniColumn, ("execute",)),
    ("databases.minicolumn", minicolumn.ColumnTable, ("insert_rows",)),
    ("databases.minicolumn", minicolumn._ColumnFile, ("read_vectors",)),
    ("fs", FileSystem, _FS_CALLS),
    ("fs", CompressFS, _FS_CALLS),
    ("fs", NamespaceFS, _FS_CALLS),
    ("core.engine", CompressDB,
     ("read", "readv", "write", "truncate", "fsync", "sync", "create", "unlink")),
    ("core.operations", OperationModule,
     ("insert", "delete", "extract", "replace", "append")),
    ("storage.inode", Inode, ("locate",)),
    ("core.compressor", Compressor, ("store_many", "commit_many", "release")),
    ("storage.journal", JournalDevice, ("commit",)),
    ("storage.device", BlockDevice, ("read_blocks", "write_blocks")),
    ("distributed.client", ClusterClient,
     ("create", "exists", "file_size", "unlink", "read", "write", "append",
      "read_file", "write_file")),
    ("distributed.master", MasterGroup, ("propose",)),
    ("distributed.master", ReplicatedMaster,
     ("lookup", "exists", "file_size", "chunks_in_range")),
    ("raft", RaftNode, ("propose", "handle_append_entries")),
    ("distributed.chunkserver", ChunkServer,
     ("create_chunk", "delete_chunk", "read", "readv", "write", "writev",
      "append", "truncate", "insert", "delete_range", "replace")),
)

#: Layers reported as ``<layer>.self_us_per_op``.
SELF_TIME_LAYERS = (
    "serving", "databases.minileveldb", "databases.minicolumn", "fs",
    "core.engine", "core.operations", "core.compressor", "storage.journal",
    "storage.device", "distributed.client", "distributed.master",
    "distributed.chunkserver", "raft",
)

# Span record fields.
NAME, LAYER, START, END, SIM_START, SIM_END, PARENT, OP = range(8)


class Ledger:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.blocks_scanned = 0
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(
            [name, layer, time.perf_counter_ns(), 0, self.clock.now, 0.0, parent, self.op]
        )
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[SIM_END] = self.clock.now
        self.stack.pop()

    def _count_blocks(self, vectors: list) -> None:
        self.blocks_scanned += len(vectors)

    def _wrap(self, original, name: str, layer: str):
        ledger = self
        on_result = self._count_blocks if name == "_ColumnFile.read_vectors" else None

        if inspect.isgeneratorfunction(original):
            # Time each step of the iterator, not the suspended generator:
            # the caller's work between steps belongs to the caller.
            def stepped(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    index = ledger._open(name, layer)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        ledger._close(index)
                    yield item

            return stepped

        def wrapper(*args, **kwargs):
            index = ledger._open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                ledger._close(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self) -> None:
        for layer, owner, attrs in LAYERS:
            label = owner.__name__.rsplit(".", 1)[-1]
            for attr in attrs:
                if attr not in vars(owner):
                    continue  # inherited: the defining class is wrapped
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, f"{label}.{attr}", layer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------
    def self_ns_by_layer(self) -> Counter:
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        totals: Counter = Counter()
        for index, span in enumerate(self.spans):
            totals[span[LAYER]] += span[END] - span[START] - child_ns[index]
        return totals

    def root_ns(self) -> int:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def calls(self, name: str) -> tuple[int, int]:
        """(count, summed duration ns) of the spans named ``name``."""
        durations = [s[END] - s[START] for s in self.spans if s[NAME] == name]
        return len(durations), sum(durations)

    def write_chrome_trace(self, path) -> None:
        base = self.spans[0][START] if self.spans else 0
        events = [
            {
                "name": s[NAME],
                "cat": s[LAYER],
                "ph": "X",
                "ts": (s[START] - base) / 1e3,
                "dur": (s[END] - s[START]) / 1e3,
                "pid": 0,
                "tid": 0,
                "args": {"op": s[OP], "parent": s[PARENT], "sim_us": (s[SIM_END] - s[SIM_START]) * 1e6},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, separators=(",", ":"))
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(ledger: Ledger, traced: Loop, untraced: Loop) -> dict:
    """Every per-layer metric, as {name: (value, unit, base or None)}."""
    ops = len(traced.wall_ns)
    counts = untraced.delta
    selfs = ledger.self_ns_by_layer()
    metrics: dict[str, tuple] = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_us_per_op"] = (selfs[layer] / 1e3 / ops, "us", None)
    metrics["serving.codec_us_per_op"] = (selfs["serving.codec"] / 1e3 / ops, "us", None)
    compactions, compaction_ns = ledger.calls("MiniLevelDB.compact")
    metrics["databases.minileveldb.compactions"] = (compactions, "count", None)
    metrics["databases.minileveldb.compaction_s"] = (compaction_ns / 1e9, "s", None)
    queries = traced.kinds["group_by"] + traced.kinds["filtered"]
    metrics["databases.minicolumn.blocks_scanned_per_query"] = (
        _ratio(ledger.blocks_scanned, queries), "count", (ledger.blocks_scanned, queries)
    )
    locates, locate_ns = ledger.calls("Inode.locate")
    metrics["storage.inode.locate_calls_per_op"] = (locates / ops, "count", (locates, ops))
    metrics["storage.inode.locate_us_per_op"] = (locate_ns / 1e3 / ops, "us", None)

    def per_op(name: str, key: str, unit: str = "count") -> None:
        metrics[name] = (counts.get(key, 0) / ops, unit, (counts.get(key, 0), ops))

    def ratio(name: str, num: float, den: float) -> None:
        metrics[name] = (_ratio(num, den), "ratio", (num, den))

    ratio(
        "core.compressor.dedup_hit_ratio",
        counts["compressor.dedup_hits"],
        counts["compressor.blocks"],
    )
    per_op("storage.journal.commits_per_op", "journal.commits")
    metrics["storage.journal.blocks_per_commit"] = (
        _ratio(counts["journal.blocks"], counts["journal.commits"]),
        "count",
        (counts["journal.blocks"], counts["journal.commits"]),
    )
    ratio("storage.device.write_amp", counts["device.bytes_written"], untraced.user_bytes)
    per_op("storage.device.block_reads_per_op", "device.block_reads")
    hits, misses = counts["device.cache_hits"], counts["device.cache_misses"]
    ratio("storage.device.cache_hit_ratio", hits, hits + misses)
    per_op("distributed.rpc_per_op", "rpc.count")
    per_op("distributed.rpc_bytes_per_op", "rpc.bytes", "B")
    per_op("raft.messages_per_op", "raft.messages")
    per_op("raft.bytes_per_op", "raft.bytes", "B")
    traced_rate = ops / (sum(traced.wall_ns) / 1e9)
    untraced_rate = ops / (sum(untraced.wall_ns[:ops]) / 1e9)  # the same ops
    ratio("trace.overhead", traced_rate, untraced_rate)
    unattributed = sum(traced.wall_ns) - ledger.root_ns()
    metrics["trace.unattributed_us_per_op"] = (unattributed / 1e3 / ops, "us", None)
    return metrics


def run_traced(args, out_dir: Path) -> dict:
    """The untraced loop (as ``--trace 0``), then its window again on a
    fresh stack with every layer wrapped."""
    untraced, __ = measure(args.workload, args.seed, args.smoke, args.seconds)
    workload, __ = build(args.workload, args.seed, args.smoke)
    ledger = Ledger(workload.clock)
    traced = Loop()

    def mark(index: int) -> None:
        ledger.op = index

    ledger.install()
    try:
        traced.run_epoch(workload, on_op=mark)
    finally:
        ledger.uninstall()
    workload.final_check()
    if traced.stream_digest != untraced.stream_digest:
        raise RuntimeError("the traced window saw another op stream than the untraced one")
    metrics = layer_metrics(ledger, traced, untraced)
    spans_path = out_dir / f"spans-{args.workload}.json"
    ledger.write_chrome_trace(spans_path)
    print(
        f"workload {args.workload}: traced {len(traced.wall_ns)} ops, "
        f"{len(ledger.spans)} spans -> {spans_path}"
    )
    for name, (value, unit, base) in metrics.items():
        shown = f" = {base[0]}/{base[1]}" if base else ""
        print(f"  {name:<48} {value:.6g} {unit}{shown}")
    return {
        "correct": True,
        "attempted": len(untraced.wall_ns) + len(traced.wall_ns),
        "failed": untraced.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, __) in metrics.items()},
    }
