"""The four benchmark workloads: inputs, stacks, op streams and oracles.

Every workload is a closed loop with one client in one thread.  Its
inputs (preload data, keys, offsets, payloads) come from one
``random.Random`` seeded by the command line, so the same seed gives
the same operation stream, and the program sees only those inputs.

A workload exposes:

* :meth:`Workload.setup` -- generate inputs, build the stack, preload;
* :meth:`Workload.next_op` -- the next operation of the stream;
* :meth:`Workload.run` -- the call into the program (the timed part);
* :meth:`Workload.check` -- compare the result with a shadow model and
  apply the op to it (raises :class:`Mismatch` on any difference, and
  :class:`OpFailed` when the program reported a failure);
* :meth:`Workload.counts` -- registry counters, for per-window deltas;
* :meth:`Workload.space` -- (physical bytes, logical bytes);
* :meth:`Workload.final_check` -- end-of-run invariants.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect

from repro.core.engine import CompressDB
from repro.databases.minicolumn import MiniColumn
from repro.distributed import build_replicated_cluster
from repro.fs import fd as fdmod
from repro.fs.compressfs import CompressFS
from repro.serving import Server, TenantConfig
from repro.serving.protocol import OPCODES, decode_frame, encode_frame
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import HDD_5400RPM
from repro.workloads import generate_dataset, structured_rows

BLOCK_SIZE = 1024


class Mismatch(Exception):
    """The program returned something the shadow model disagrees with."""


class OpFailed(Exception):
    """The program reported a failure for one op (an error frame)."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def redundant_corpus(rng: random.Random, nbytes: int) -> bytes:
    """Text drawn from a small phrase vocabulary: values cut from it
    share content, as real records do, so dedup has work to do."""
    phrases = [
        ("record-%03d status=%s region=%02d; " % (
            rng.randrange(1000), rng.choice(("ok", "warn", "fail")), rng.randrange(16)
        )).encode("ascii")
        for __ in range(48)
    ]
    out = bytearray()
    while len(out) < nbytes:
        out += rng.choice(phrases)
    return bytes(out[:nbytes])


def _counter_sum(snapshot, prefix: str, suffix: str) -> int:
    """Sum every counter named ``<prefix>*<suffix>`` in a snapshot."""
    return sum(
        value
        for name, value in snapshot.counters.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def device_counts(snapshot, prefix: str) -> dict[str, int]:
    """Device counters summed over every device under ``prefix``."""
    return {
        "device.block_reads": _counter_sum(snapshot, prefix, ".block_reads"),
        "device.bytes_written": _counter_sum(snapshot, prefix, ".bytes_written"),
        "device.cache_hits": _counter_sum(snapshot, prefix, ".cache.hits"),
        "device.cache_misses": _counter_sum(snapshot, prefix, ".cache.misses"),
    }


def engine_counts(snapshot) -> dict[str, int]:
    """Compressor and journal counters of one engine's registry."""
    counter = snapshot.counter
    return {
        "compressor.dedup_hits": counter("engine.compressor.dedup_hits"),
        "compressor.blocks": counter("engine.compressor.stores")
        + counter("engine.compressor.commits"),
        "journal.commits": counter("journal.commits"),
        "journal.blocks": counter("journal.fresh_blocks")
        + counter("journal.overwrite_blocks"),
    }


class Workload:
    """Base class; see the module docstring for the protocol."""

    name = ""
    #: Ops in the deterministic window (simulated metrics, counts,
    #: space and memory are taken over it), full and smoke size.
    window_ops = 0
    smoke_window_ops = 0
    #: Op kinds and how many of each one deck of 20 ops holds.  Decks
    #: are shuffled, so every seed runs the same mix in another order.
    MIX: tuple[tuple[str, int], ...] = ()

    def __init__(self, seed: int, smoke: bool = False, epoch: int = 0) -> None:
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}-{seed}-{epoch}")
        #: Bytes the client asked the program to store (write_amp base).
        self.user_bytes_written = 0
        self._deck: list[str] = []

    @property
    def window(self) -> int:
        return self.smoke_window_ops if self.smoke else self.window_ops

    def next_kind(self) -> str:
        if not self._deck:
            self._deck = [kind for kind, count in self.MIX for __ in range(count)]
            self.rng.shuffle(self._deck)
        return self._deck.pop()

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self) -> tuple:
        raise NotImplementedError

    def run(self, op: tuple) -> object:
        raise NotImplementedError

    def check(self, op: tuple, result: object) -> None:
        raise NotImplementedError

    def counts(self) -> dict[str, int]:
        raise NotImplementedError

    def space(self) -> tuple[int, int]:
        raise NotImplementedError

    def final_check(self) -> None:
        """End-of-run invariants beyond the per-op checks."""

    @property
    def clock(self):
        raise NotImplementedError


class EngineWorkload(Workload):
    """A workload over one CompressFS (``self.fs``) on an HDD-profile
    memory device with a page cache of ``CACHE_BLOCKS`` blocks."""

    CACHE_BLOCKS = 0
    #: Journal region of journaled mounts: large enough for the biggest
    #: commit either journaled workload stages.
    JOURNAL_BLOCKS = 1024

    def _make_fs(self, journaled: bool) -> CompressFS:
        device = MemoryBlockDevice(
            block_size=BLOCK_SIZE, profile=HDD_5400RPM, cache_blocks=self.CACHE_BLOCKS
        )
        if not journaled:
            return CompressFS(device=device)
        return CompressFS(engine=CompressDB.mount(device, journal_blocks=self.JOURNAL_BLOCKS))

    @property
    def clock(self):
        return self.fs.engine.device.clock

    def counts(self) -> dict[str, int]:
        snapshot = self.fs.obs.registry.snapshot()
        return {**engine_counts(snapshot), **device_counts(snapshot, "storage.device")}

    def space(self) -> tuple[int, int]:
        engine = self.fs.engine
        return engine.physical_bytes(), engine.logical_bytes()


# ---------------------------------------------------------------------------
# kv-wire
# ---------------------------------------------------------------------------

class KVWire(EngineWorkload):
    """Four tenants take turns sending protocol-v1 frames through
    ``Server.serve_frame`` on a journaled CompressFS (HDD profile)."""

    name = "kv-wire"
    window_ops = 20000
    smoke_window_ops = 600
    TENANTS = 4
    KEYS = 20000  # key universe per tenant
    ZIPF_S = 0.99  # YCSB's zipfian constant
    PRELOAD_KEYS = 1000
    DOCS = 8
    DOC_BYTES = 16 * 1024
    CACHE_BLOCKS = 1024
    MIX = (
        ("KV_GET", 8),
        ("KV_PUT", 6),
        ("KV_SCAN", 1),
        ("FS_READ_FILE", 3),
        ("FS_WRITE_FILE", 2),
    )
    SCAN_LIMIT = 16

    def setup(self) -> None:
        rng = self.rng
        self.corpus = redundant_corpus(rng, 256 * 1024)
        self._zipf_cdf = list(
            itertools.accumulate(1.0 / rank**self.ZIPF_S for rank in range(1, self.KEYS + 1))
        )
        self.fs = self._make_fs(journaled=True)
        self.server = Server(fs=self.fs)
        self.tenants = [f"t{i}" for i in range(self.TENANTS if not self.smoke else 2)]
        self.kv: dict[str, dict[bytes, bytes]] = {}
        self.docs: dict[str, dict[str, bytes]] = {}
        put, write = OPCODES["KV_PUT"], OPCODES["FS_WRITE_FILE"]
        for tenant in self.tenants:
            self.server.add_tenant(TenantConfig(name=tenant))
            self.kv[tenant] = {}
            self.docs[tenant] = {}
            for __ in range(self.PRELOAD_KEYS // (4 if self.smoke else 1)):
                key, value = self._key(), self._value()
                self.server.handle(tenant, put, {"key": key, "value": value})
                self.kv[tenant][key] = value
            for index in range(self.DOCS):
                path, data = f"/doc{index}", self._cut(self.DOC_BYTES)
                self.server.handle(tenant, write, {"path": path, "data": data})
                self.docs[tenant][path] = data
        self.fs.engine.fsync()
        self._turn = 0
        self._request_id = 0

    def _cut(self, size: int) -> bytes:
        start = self.rng.randrange(len(self.corpus) - size)
        return self.corpus[start : start + size]

    def _key(self) -> bytes:
        """A scrambled-zipfian key: popular ranks spread over the key
        space, as YCSB does, so scans do not all hit the hot keys."""
        rank = bisect(self._zipf_cdf, self.rng.random() * self._zipf_cdf[-1])
        return b"key%06d" % (rank * 7919 % self.KEYS)

    def _value(self) -> bytes:
        return self._cut(self.rng.randint(256, 1024))

    def next_op(self) -> tuple:
        rng = self.rng
        tenant = self.tenants[self._turn % len(self.tenants)]
        self._turn += 1
        kind = self.next_kind()
        if kind == "KV_GET":
            payload = {"key": self._key()}
        elif kind == "KV_PUT":
            payload = {"key": self._key(), "value": self._value()}
        elif kind == "KV_SCAN":
            low = rng.randrange(self.KEYS)
            payload = {
                "start": b"key%06d" % low,
                "end": b"key%06d" % (low + 64),
                "limit": self.SCAN_LIMIT,
            }
        elif kind == "FS_READ_FILE":
            payload = {"path": f"/doc{rng.randrange(self.DOCS)}"}
        else:
            path = f"/doc{rng.randrange(self.DOCS)}"
            data = bytearray(self.docs[tenant][path])
            block = rng.randrange(self.DOC_BYTES // BLOCK_SIZE) * BLOCK_SIZE
            data[block : block + BLOCK_SIZE] = self._cut(BLOCK_SIZE)
            payload = {"path": path, "data": bytes(data)}
        self._request_id += 1
        frame = encode_frame(OPCODES[kind], self._request_id, payload)
        return (kind, tenant, payload, frame)

    def run(self, op: tuple) -> object:
        return self.server.serve_frame(op[1], op[3])

    def check(self, op: tuple, result: object) -> None:
        kind, tenant, payload, __ = op
        frame, __ = decode_frame(result)
        if frame.is_error:
            raise OpFailed(f"{kind} answered with error {frame.payload}")
        body = frame.payload
        kv = self.kv[tenant]
        if kind == "KV_GET":
            expected = kv.get(payload["key"])
            _expect(body["found"] == (expected is not None), f"KV_GET found {payload}")
            _expect(body["value"] == expected, f"KV_GET value of {payload['key']!r}")
        elif kind == "KV_PUT":
            kv[payload["key"]] = payload["value"]
            self.user_bytes_written += len(payload["key"]) + len(payload["value"])
        elif kind == "KV_SCAN":
            keys = sorted(k for k in kv if payload["start"] <= k < payload["end"])
            expected = [[k, kv[k]] for k in keys[: payload["limit"]]]
            _expect(body["items"] == expected, f"KV_SCAN {payload['start']!r}")
        elif kind == "FS_READ_FILE":
            expected = self.docs[tenant][payload["path"]]
            _expect(body["data"] == expected, f"FS_READ_FILE {payload['path']}")
        else:
            self.docs[tenant][payload["path"]] = payload["data"]
            self.user_bytes_written += len(payload["data"])


# ---------------------------------------------------------------------------
# file-rw
# ---------------------------------------------------------------------------

class FileRW(EngineWorkload):
    """The VFS fd API on a journaled CompressFS holding dataset-D-style
    large files, behind a device cache 1/32 of the working set."""

    name = "file-rw"
    window_ops = 8000
    smoke_window_ops = 500
    DATASET_SCALE = 8.0  # dataset D at 8x: ~8 MiB in 4 files
    CACHE_BLOCKS = 256
    IO_BYTES = 4096
    EDIT_BYTES = 100
    POOL_BLOCKS = 64
    FSYNC_EVERY = 32
    MIX = (("pread", 14), ("pwrite", 4), ("insert", 1), ("delete", 1))

    def setup(self) -> None:
        scale = self.DATASET_SCALE / (8 if self.smoke else 1)
        dataset = generate_dataset(
            "D", block_size=BLOCK_SIZE, scale=scale, seed=self.rng.randrange(1 << 30)
        )
        # The duplicate pool: pwrites draw whole blocks from it, so most
        # of them dedup against earlier writes.
        self.pool = [
            bytes(self.rng.randrange(97, 123) for __ in range(BLOCK_SIZE))
            for __ in range(self.POOL_BLOCKS)
        ]
        self.fs = self._make_fs(journaled=True)
        self.shadow: dict[str, bytearray] = {}
        self.fds: dict[str, int] = {}
        for path, data in sorted(dataset.files.items()):
            self.fs.write_file(path, data)
            self.shadow[path] = bytearray(data)
            self.fds[path] = self.fs.open(path, fdmod.O_RDWR)
        self.fs.engine.fsync()
        self.paths = sorted(self.shadow)
        self._writes = 0

    def next_op(self) -> tuple:
        rng = self.rng
        path = rng.choice(self.paths)
        size = len(self.shadow[path])
        kind = self.next_kind()
        if kind == "pread":
            return (kind, path, rng.randrange(size - self.IO_BYTES), self.IO_BYTES)
        if kind == "pwrite":
            blocks = (size - self.IO_BYTES) // BLOCK_SIZE
            data = b"".join(rng.choice(self.pool) for __ in range(self.IO_BYTES // BLOCK_SIZE))
            return (kind, path, rng.randrange(blocks) * BLOCK_SIZE, data)
        offset = rng.randrange(1, size - self.EDIT_BYTES)
        if kind == "insert":
            return (kind, path, offset, self._text(self.EDIT_BYTES))
        return (kind, path, offset, self.EDIT_BYTES)

    def _text(self, size: int) -> bytes:
        return bytes(self.rng.randrange(97, 123) for __ in range(size))

    def run(self, op: tuple) -> object:
        kind, path, offset, arg = op
        fs = self.fs
        if kind == "pread":
            return fs.pread(self.fds[path], arg, offset)
        if kind == "pwrite":
            result = fs.pwrite(self.fds[path], arg, offset)
        elif kind == "insert":
            result = fs.ops.insert(path, offset, arg)
        else:
            result = fs.ops.delete(path, offset, arg)
        self._writes += 1
        if self._writes % self.FSYNC_EVERY == 0:
            fs.fsync(self.fds[path])
        return result

    def check(self, op: tuple, result: object) -> None:
        kind, path, offset, arg = op
        shadow = self.shadow[path]
        if kind == "pread":
            _expect(result == bytes(shadow[offset : offset + arg]), f"pread {path}@{offset}")
        elif kind == "pwrite":
            _expect(result == len(arg), f"pwrite {path}@{offset} wrote {result}")
            shadow[offset : offset + len(arg)] = arg
            self.user_bytes_written += len(arg)
        elif kind == "insert":
            shadow[offset:offset] = arg
            self.user_bytes_written += len(arg)
        else:
            del shadow[offset : offset + arg]

    def final_check(self) -> None:
        """fsck finds nothing, and a fresh mount of the raw device
        returns every file byte-identical to the shadow."""
        for fd in self.fds.values():
            self.fs.close(fd)
        engine = self.fs.engine
        engine.fsync()
        report = engine.fsck(repair=False)
        violations = {k: v for k, v in report.items() if k != "index_entries" and v}
        _expect(not violations, f"fsck violations {violations}")
        fresh = CompressDB.mount(engine.device.inner)
        for path, shadow in self.shadow.items():
            _expect(fresh.read_file(path) == bytes(shadow), f"remount {path}")


# ---------------------------------------------------------------------------
# column-agg
# ---------------------------------------------------------------------------

class ColumnAgg(EngineWorkload):
    """MiniColumn (encoded, vectorized) over structured rows that fit
    in the device cache."""

    name = "column-agg"
    window_ops = 600
    smoke_window_ops = 60
    ROWS = 20000
    CACHE_BLOCKS = 4096
    GROUPS = 40
    INSERT_ROWS = 10
    MIX = (("group_by", 12), ("filtered", 4), ("insert", 3), ("update", 1))

    def setup(self) -> None:
        rows = self.ROWS // (8 if self.smoke else 1)
        self.rows = [
            {
                "id": row["id"],
                "grp": row["id"] % self.GROUPS,
                "idx": row["idx"],
                "cnt": row["cnt"],
                "dt": row["dt"],
            }
            for row in structured_rows(rows, seed=self.rng.randrange(1 << 30))
        ]
        self.fs = self._make_fs(journaled=False)
        self.db = MiniColumn(self.fs, directory="/col")
        self.db.execute("CREATE TABLE tbl (id INT, grp INT, idx INT, cnt INT, dt TEXT)")
        self.db.table("tbl").insert_rows(self.rows)
        self.fs.engine.sync()

    def next_op(self) -> tuple:
        rng = self.rng
        kind = self.next_kind()
        total = len(self.rows)
        if kind == "group_by":
            width = total // 4
            low = rng.randrange(total - width)
            sql = (
                f"SELECT grp, sum(cnt) s, count(*) c, max(idx) m FROM tbl "
                f"WHERE id >= {low} AND id < {low + width} GROUP BY grp ORDER BY grp"
            )
            return (kind, sql, (low, low + width))
        if kind == "filtered":
            idx, floor = rng.randrange(10), rng.randrange(400)
            sql = (
                f"SELECT count(*) c, sum(cnt) s, min(cnt) lo, max(cnt) hi FROM tbl "
                f"WHERE idx = {idx} AND cnt >= {floor}"
            )
            return (kind, sql, (idx, floor))
        if kind == "insert":
            batch = [
                {
                    "id": total + i,
                    "grp": (total + i) % self.GROUPS,
                    "idx": (total + i) % 10,
                    "cnt": rng.randrange(500),
                    "dt": "2021-%02d-%02d" % (rng.randint(1, 12), rng.randint(1, 28)),
                }
                for i in range(self.INSERT_ROWS)
            ]
            values = ", ".join(
                "(%d, %d, %d, %d, '%s')" % (r["id"], r["grp"], r["idx"], r["cnt"], r["dt"])
                for r in batch
            )
            return (kind, f"INSERT INTO tbl VALUES {values}", batch)
        row, value = rng.randrange(total), rng.randrange(500)
        return (kind, f"UPDATE tbl SET cnt = {value} WHERE id = {row}", (row, value))

    def run(self, op: tuple) -> object:
        return self.db.execute(op[1])

    def check(self, op: tuple, result: object) -> None:
        kind, sql, arg = op
        if kind == "group_by":
            low, high = arg
            groups: dict[int, list[int]] = {}
            for row in self.rows[low:high]:
                acc = groups.setdefault(row["grp"], [0, 0, row["idx"]])
                acc[0] += row["cnt"]
                acc[1] += 1
                acc[2] = max(acc[2], row["idx"])
            expected = [
                {"grp": g, "s": s, "c": c, "m": m}
                for g, (s, c, m) in sorted(groups.items())
            ]
            _expect(result == expected, f"group_by {sql}")
        elif kind == "filtered":
            idx, floor = arg
            cnts = [r["cnt"] for r in self.rows if r["idx"] == idx and r["cnt"] >= floor]
            expected = [{
                "c": len(cnts),
                "s": sum(cnts) if cnts else None,
                "lo": min(cnts) if cnts else None,
                "hi": max(cnts) if cnts else None,
            }]
            _expect(result == expected, f"filtered {sql}: {result} != {expected}")
        elif kind == "insert":
            self.rows.extend(arg)
            self.user_bytes_written += 8 * 4 * len(arg) + sum(len(r["dt"]) for r in arg)
        else:
            row, value = arg
            self.rows[row]["cnt"] = value
            self.user_bytes_written += 8


# ---------------------------------------------------------------------------
# cluster-meta
# ---------------------------------------------------------------------------

class ClusterMeta(Workload):
    """File create+write, read, append and unlink on a replicated,
    sharded cluster: every mutation is a Raft proposal."""

    name = "cluster-meta"
    window_ops = 4000
    smoke_window_ops = 300
    SHARDS = 2
    MASTERS = 3
    NODES = 4
    REPLICATION = 2
    PRELOAD_FILES = 200
    #: File and append sizes are drawn around 1 KiB and 512 B so that
    #: simulated transfer costs, and with them the tail, vary by seed.
    FILE_BYTES = (512, 1536)
    APPEND_BYTES = (256, 768)
    MIX = (("create", 5), ("read", 7), ("append", 3), ("unlink", 5))

    def setup(self) -> None:
        self.corpus = redundant_corpus(self.rng, 64 * 1024)
        self.cluster = build_replicated_cluster(
            nodes=self.NODES,
            masters=self.MASTERS,
            shards=self.SHARDS,
            replication=self.REPLICATION,
        )
        for group in self.cluster.groups:
            group.elect()
        self.client = self.cluster.client
        self.shadow: dict[str, bytes] = {}
        self._next_file = 0
        for __ in range(self.PRELOAD_FILES // (4 if self.smoke else 1)):
            path, data = self._new_path(), self._cut(*self.FILE_BYTES)
            self.client.write_file(path, data)
            self.shadow[path] = data

    def _new_path(self) -> str:
        self._next_file += 1
        return f"/f/{self._next_file:07d}"

    def _cut(self, low: int, high: int) -> bytes:
        size = self.rng.randint(low, high)
        start = self.rng.randrange(len(self.corpus) - size)
        return self.corpus[start : start + size]

    @property
    def clock(self):
        return self.cluster.clock

    def next_op(self) -> tuple:
        rng = self.rng
        kind = self.next_kind()
        if kind == "create" or len(self.shadow) < 2:
            return ("create", self._new_path(), self._cut(*self.FILE_BYTES))
        live = sorted(self.shadow)
        path = live[rng.randrange(len(live))]
        if kind == "append":
            return (kind, path, self._cut(*self.APPEND_BYTES))
        return (kind, path, None)

    def run(self, op: tuple) -> object:
        kind, path, data = op
        client = self.client
        if kind == "create":
            return client.write_file(path, data)
        if kind == "read":
            return client.read_file(path)
        if kind == "append":
            return client.append(path, data)
        return client.unlink(path)

    def check(self, op: tuple, result: object) -> None:
        kind, path, data = op
        if kind == "create":
            self.shadow[path] = data
            self.user_bytes_written += len(data)
        elif kind == "read":
            _expect(result == self.shadow[path], f"read {path}")
        elif kind == "append":
            self.shadow[path] += data
            self.user_bytes_written += len(data)
        else:
            del self.shadow[path]

    def counts(self) -> dict[str, int]:
        snapshot = self.cluster.metrics()
        return {
            "rpc.count": snapshot.counter("cluster.rpc.count"),
            "rpc.bytes": snapshot.counter("cluster.rpc.bytes"),
            "raft.messages": sum(g.transport.messages for g in self.cluster.groups),
            "raft.bytes": sum(g.transport.bytes_sent for g in self.cluster.groups),
            **engine_counts(snapshot),
            **device_counts(snapshot, "cluster."),
        }

    def space(self) -> tuple[int, int]:
        return self.cluster.physical_bytes(), sum(len(d) for d in self.shadow.values())

    def final_check(self) -> None:
        for path, data in self.shadow.items():
            _expect(self.client.read_file(path) == data, f"final read {path}")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (KVWire, FileRW, ColumnAgg, ClusterMeta)
}
