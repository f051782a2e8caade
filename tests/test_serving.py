"""Serving-layer tests: protocol framing, tenancy, admission, facade.

Four concerns, matching the layer's four moving parts:

* **framing** — golden bytes, round trips, and hostile input (truncated
  frames, bad CRCs, unknown opcodes) must fail cleanly and never kill
  the connection;
* **tenancy** — namespaces are disjoint, quotas bind, and one tenant's
  flood cannot starve another (fair-share scheduling);
* **admission** — under overload the server sheds with retry-after
  instead of queueing unboundedly, and accepted latency stays bounded;
* **the facade** — ``repro.api`` behaves identically over the wire and
  in-process, and a crash mid-request leaves a recoverable image.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import repro.api as api
from repro.core.engine import CompressDB
from repro.fs.compressfs import CompressFS
from repro.fs.errors import (
    FileNotFound,
    PermissionDenied,
    QuotaExceeded,
    TryAgain,
    WIRE_CODES,
    wire_code,
    wire_error_payload,
)
from repro.mvcc.session import WriteConflict
from repro.serving import (
    AdmissionController,
    DeficitRoundRobin,
    FramedSocketServer,
    LoopbackTransport,
    RemoteFS,
    Server,
    ServerConfig,
    ServingRequest,
    SocketTransport,
    TenantConfig,
    TokenBucket,
    WireClient,
    exact_percentile,
    jain_fairness,
)
from repro.serving import protocol
from repro.serving.slo import metric_segment
from repro.storage.block_device import CrashPointDevice, MemoryBlockDevice
from repro.workloads import open_loop_arrivals

GOLDENS = Path(__file__).parent / "goldens"


def make_server(**config_kwargs) -> Server:
    config = ServerConfig(**config_kwargs) if config_kwargs else None
    return Server(fs=CompressFS(block_size=256, page_capacity=8), config=config)


def make_client(server: Server, tenant: str) -> WireClient:
    return WireClient(LoopbackTransport(server, tenant))


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_golden_frame_bytes(self):
        """The encoding is frozen: same payload, same bytes, forever."""
        frame = protocol.encode_frame(
            protocol.OPCODES["FS_PWRITE"],
            7,
            {"path": "/a", "offset": 3, "data": b"\x00\x01"},
        )
        assert frame.hex() == (
            "43444257011300000000000700000020"  # magic, v1, FS_PWRITE, id 7
            "4a23e853"  # crc32 of the payload
            "640373047061746873022f6173066f6666736574690673046461746162020001"
        )

    def test_roundtrip_all_value_types(self):
        payload = {
            "none": None,
            "true": True,
            "false": False,
            "int": -(1 << 40),
            "float": 2.5,
            "str": "héllo",
            "bytes": b"\x00\xff",
            "list": [1, "two", [3.0]],
            "dict": {"nested": b"ok"},
        }
        raw = protocol.encode_frame(protocol.OPCODES["PING"], 42, payload)
        frame, end = protocol.decode_frame(raw)
        assert end == len(raw)
        assert frame.request_id == 42
        assert frame.payload == payload

    def test_truncated_frame_waits_for_more(self):
        raw = protocol.encode_frame(protocol.OPCODES["PING"], 1, {"k": "v"})
        for cut in (0, 4, protocol.HEADER_BYTES, len(raw) - 1):
            with pytest.raises(protocol.TruncatedFrame):
                protocol.decode_frame(raw[:cut])

    def test_bad_crc_is_checksum_error(self):
        raw = bytearray(protocol.encode_frame(protocol.OPCODES["PING"], 1, {"k": "v"}))
        raw[-1] ^= 0xFF
        with pytest.raises(protocol.ChecksumError):
            protocol.decode_frame(bytes(raw))

    def test_bad_magic_and_version(self):
        raw = bytearray(protocol.encode_frame(protocol.OPCODES["PING"], 1, {}))
        wrong_magic = b"XXXX" + bytes(raw[4:])
        with pytest.raises(protocol.BadMagic):
            protocol.decode_frame(wrong_magic)
        raw[4] = 99
        with pytest.raises(protocol.BadVersion):
            protocol.decode_frame(bytes(raw))

    def test_decoder_reassembles_byte_at_a_time(self):
        frames = [
            protocol.encode_frame(protocol.OPCODES["PING"], i, {"i": i})
            for i in range(3)
        ]
        decoder = protocol.FrameDecoder()
        seen = []
        for byte in b"".join(frames):
            seen += decoder.feed(bytes([byte]))
        assert [f.payload["i"] for f in seen] == [0, 1, 2]

    def test_decoder_poisons_on_framing_error(self):
        decoder = protocol.FrameDecoder()
        with pytest.raises(protocol.BadMagic):
            decoder.feed(b"GARBAGE-GARBAGE-GARBAGE-")
        with pytest.raises(protocol.ProtocolError):
            decoder.feed(protocol.encode_frame(protocol.OPCODES["PING"], 1, {}))

    def test_fuzz_mutations_never_escape_protocol_error(self):
        """Arbitrary corruption either decodes or raises ProtocolError —
        nothing else (no struct.error, no KeyError) reaches the caller."""
        rng = random.Random(20260808)
        base = protocol.encode_frame(
            protocol.OPCODES["SQL_EXECUTE"], 9, {"sql": "SELECT 1", "rows": [1, 2]}
        )
        for __ in range(400):
            mutated = bytearray(base)
            for __ in range(rng.randint(1, 6)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                protocol.decode_frame(bytes(mutated[: rng.randint(0, len(mutated))]))
            except protocol.ProtocolError:
                pass

    def test_oversized_payload_rejected_both_ways(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(
                protocol.OPCODES["PING"], 1, {"d": b"x" * (protocol.MAX_PAYLOAD + 1)}
            )
        # A forged header advertising a huge payload must be rejected
        # before any attempt to buffer it.
        header = protocol.encode_frame(protocol.OPCODES["PING"], 1, {})[
            : protocol.HEADER_BYTES
        ]
        forged = bytearray(header)
        forged[12:16] = (protocol.MAX_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(bytes(forged))


class TestWireCodes:
    def test_golden_wire_codes(self):
        """Codes are a wire contract: changing one breaks every client."""
        golden = json.loads((GOLDENS / "wire_codes.json").read_text())
        assert WIRE_CODES == golden

    def test_codes_are_injective(self):
        assert len(set(WIRE_CODES.values())) == len(WIRE_CODES)

    def test_mro_matching(self):
        assert wire_code(protocol.ChecksumError("x")) == WIRE_CODES["ChecksumError"]
        assert wire_code(protocol.BadMagic("x")) == WIRE_CODES["ProtocolError"]
        assert wire_code(RuntimeError("x")) == WIRE_CODES["FSError"]

    def test_retry_after_travels(self):
        body = wire_error_payload(TryAgain("busy", retry_after_ms=12.5))
        assert body["retry_after_ms"] == 12.5


# ---------------------------------------------------------------------------
# Server: hostile frames and error normalization
# ---------------------------------------------------------------------------


class TestServerRobustness:
    def test_unknown_opcode_is_clean_error_and_connection_survives(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        raw = server.serve_frame(
            "t", protocol.encode_frame(0x7F, 5, {})
        )
        frame, __ = protocol.decode_frame(raw)
        assert frame.is_error
        assert frame.request_id == 5
        assert frame.payload["error"] == "UnknownOpcode"
        assert frame.payload["code"] == WIRE_CODES["UnknownOpcode"]
        # Same connection keeps working.
        assert client.ping()["pong"] is True

    def test_corrupt_frame_answers_error_on_id_zero(self):
        server = make_server()
        server.add_tenant("t")
        good = protocol.encode_frame(protocol.OPCODES["PING"], 3, {})
        corrupt = bytearray(good)
        corrupt[-1] ^= 0xFF
        frame, __ = protocol.decode_frame(server.serve_frame("t", bytes(corrupt)))
        assert frame.is_error and frame.request_id == 0
        assert frame.payload["error"] == "ChecksumError"
        frame, __ = protocol.decode_frame(server.serve_frame("t", good))
        assert not frame.is_error and frame.request_id == 3

    def test_engine_errors_normalize_to_wire_codes(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        with pytest.raises(FileNotFound):
            RemoteFS(client).read_file("/missing")

    def test_unprovisioned_tenant_denied(self):
        server = make_server()
        client = make_client(server, "ghost")
        with pytest.raises(PermissionDenied):
            client.ping()


# ---------------------------------------------------------------------------
# Tenancy: namespaces, quotas, fairness
# ---------------------------------------------------------------------------


class TestTenantIsolation:
    def test_namespaces_are_disjoint(self):
        server = make_server()
        server.add_tenant("alice")
        server.add_tenant("bob")
        alice = RemoteFS(make_client(server, "alice"))
        bob = RemoteFS(make_client(server, "bob"))
        alice.write_file("/same-path", b"alice's data")
        bob.write_file("/same-path", b"bob's data")
        assert alice.read_file("/same-path") == b"alice's data"
        assert bob.read_file("/same-path") == b"bob's data"
        alice.write_file("/only-alice", b"private")
        assert not bob.exists("/only-alice")
        assert sorted(bob.listdir()) == ["/same-path"]

    def test_byte_quota_binds_and_frees(self):
        server = make_server()
        server.add_tenant(TenantConfig(name="small", quota_bytes=512))
        fs = RemoteFS(make_client(server, "small"))
        fs.write_file("/a", b"x" * 400)
        with pytest.raises(QuotaExceeded):
            fs.write_file("/b", b"y" * 400)
        fs.unlink("/a")
        fs.write_file("/b", b"y" * 400)

    def test_inode_and_fd_quotas(self):
        server = make_server()
        server.add_tenant(TenantConfig(name="t", quota_inodes=2, fd_limit=1))
        client = make_client(server, "t")
        fs = RemoteFS(client)
        fs.write_file("/one", b"1")
        fs.write_file("/two", b"2")
        with pytest.raises(QuotaExceeded):
            fs.write_file("/three", b"3")
        fd = client.call("FS_OPEN", path="/one")["fd"]
        with pytest.raises(QuotaExceeded):
            client.call("FS_OPEN", path="/two")
        client.call("FS_CLOSE", fd=fd)
        client.call(
            "FS_CLOSE", fd=client.call("FS_OPEN", path="/two")["fd"]
        )

    def test_quota_is_not_charged_for_aborted_session(self):
        server = make_server()
        server.add_tenant(TenantConfig(name="t", quota_bytes=512))
        client = make_client(server, "t")
        sid = client.session_begin()
        RemoteFS(client, session_id=sid).write_file("/big", b"x" * 400)
        client.session_abort(sid)
        # The provisional charge was dropped with the session.
        RemoteFS(make_client(server, "t")).write_file("/after", b"y" * 400)

    def test_flood_cannot_starve_other_tenants(self):
        """One tenant offering 10x the load of three others: DRR keeps
        the quiet tenants' latency in the same band as each other and
        fairness across equal weights stays high."""
        server = make_server(admission=False)
        for name in ("flood", "q1", "q2", "q3"):
            server.add_tenant(name)
        payload = {"path": "/f", "data": b"z" * 64}
        requests = []
        for i in range(300):
            requests.append(
                ServingRequest(i * 1e-4, "flood", protocol.OPCODES["FS_WRITE_FILE"], payload)
            )
        for i in range(30):
            for name in ("q1", "q2", "q3"):
                requests.append(
                    ServingRequest(i * 1e-3, name, protocol.OPCODES["FS_WRITE_FILE"], payload)
                )
        outcome = server.run_open_loop(requests)
        quiet_p95 = [
            exact_percentile(outcome[name]["latencies"], 0.95)
            for name in ("q1", "q2", "q3")
        ]
        assert jain_fairness(quiet_p95) > 0.9
        # The flood tenant bears its own queueing; the quiet tenants
        # must not be dragged to its latency.
        flood_p95 = exact_percentile(outcome["flood"]["latencies"], 0.95)
        assert max(quiet_p95) < flood_p95


# ---------------------------------------------------------------------------
# Admission control and scheduling units
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_token_bucket_refills(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.retry_after(0.0) == pytest.approx(0.1)
        assert bucket.try_take(0.1)

    def test_admit_sheds_on_rate_then_recovers(self):
        control = AdmissionController(enabled=True)
        control.configure_tenant("t", rate_per_s=10.0, burst=1.0)
        assert control.admit("t", 0.0, 0, 0.0) is None
        shed = control.admit("t", 0.0, 0, 0.0)
        assert shed is not None and shed.retry_after_s > 0
        assert control.admit("t", 1.0, 0, 0.0) is None

    def test_admit_bounds_queue_depth_and_delay(self):
        control = AdmissionController(
            enabled=True, per_tenant_queue_limit=4, max_queue_delay_s=0.5
        )
        assert control.admit("t", 0.0, tenant_queued=4, queued_cost_s=0.0) is not None
        assert control.admit("t", 0.0, tenant_queued=0, queued_cost_s=0.9) is not None
        assert control.admit("t", 0.0, tenant_queued=3, queued_cost_s=0.1) is None

    def test_disabled_admission_accepts_everything(self):
        control = AdmissionController(enabled=False, per_tenant_queue_limit=1)
        assert control.admit("t", 0.0, tenant_queued=99, queued_cost_s=99.0) is None

    def test_drr_weighted_shares(self):
        # Quantum on the order of one request's cost estimate, so one
        # rotation grants a few requests, proportional to weight.
        drr = DeficitRoundRobin(quantum_s=1e-4)
        drr.lane("heavy", weight=3.0)
        drr.lane("light", weight=1.0)
        for i in range(40):
            drr.enqueue("heavy", f"h{i}")
            drr.enqueue("light", f"l{i}")
        drained = [drr.next()[0] for __ in range(40)]
        heavy_share = drained.count("heavy") / len(drained)
        assert 0.65 < heavy_share < 0.85

    def test_shed_surfaces_as_try_again_with_retry_after(self):
        server = make_server(default_rate_per_s=1.0)
        server.add_tenant(TenantConfig(name="t", burst=1.0))
        client = make_client(server, "t")
        assert client.ping()["pong"] is True
        with pytest.raises(TryAgain) as excinfo:
            client.ping()
        assert excinfo.value.retry_after_ms > 0


# ---------------------------------------------------------------------------
# Open-loop serving and graceful degradation
# ---------------------------------------------------------------------------


def _write_requests(tenants, rate_per_s, duration_s, nbytes=64):
    requests = []
    for tenant in tenants:
        gap = 1.0 / rate_per_s
        now = 0.0
        i = 0
        while now < duration_s:
            requests.append(
                ServingRequest(
                    now,
                    tenant,
                    protocol.OPCODES["FS_WRITE_FILE"],
                    {"path": f"/w{i % 8}", "data": b"x" * nbytes},
                )
            )
            now += gap
            i += 1
    return requests


class TestOpenLoop:
    def test_admission_bounds_overload_latency(self):
        """2x overload: with admission on, accepted p99 stays within 5x
        of the uncontended p99; with admission off the p99 blows up."""
        def run(admission: bool, rate_per_s: float):
            server = make_server(
                admission=admission, max_queue_delay_s=0.002, default_rate_per_s=400.0
            )
            for i in range(4):
                server.add_tenant(TenantConfig(name=f"t{i}", burst=8.0))
            outcome = server.run_open_loop(
                _write_requests([f"t{i}" for i in range(4)], rate_per_s, 0.25)
            )
            latencies = [
                lat for r in outcome.values() for lat in r["latencies"]
            ]
            shed = sum(r["shed"] for r in outcome.values())
            return exact_percentile(latencies, 0.99), shed

        uncontended_p99, __ = run(admission=True, rate_per_s=40.0)
        overload_p99, overload_shed = run(admission=True, rate_per_s=700.0)
        baseline_p99, baseline_shed = run(admission=False, rate_per_s=700.0)
        assert overload_shed > 0
        assert baseline_shed == 0
        assert overload_p99 <= 5.0 * uncontended_p99
        assert baseline_p99 > 10.0 * overload_p99

    def test_slo_report_counts_and_percentiles(self):
        server = make_server()
        server.add_tenant("t")
        outcome = server.run_open_loop(_write_requests(["t"], 100.0, 0.1))
        report = server.report()
        assert len(report) == 1
        entry = report[0]
        assert entry["tenant"] == "t"
        assert entry["completed"] == len(outcome["t"]["latencies"])
        assert entry["offered"] == entry["accepted"] + entry["shed"]
        assert 0.0 < entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]

    def test_ycsb_open_loop_arrivals_deterministic(self):
        first = open_loop_arrivals("A", 200.0, 0.2, record_count=50, seed=3)
        second = open_loop_arrivals("A", 200.0, 0.2, record_count=50, seed=3)
        assert [t.arrival_s for t in first] == [t.arrival_s for t in second]
        assert [t.op.kind for t in first] == [t.op.kind for t in second]
        different = open_loop_arrivals("A", 200.0, 0.2, record_count=50, seed=4)
        assert [t.arrival_s for t in first] != [t.arrival_s for t in different]
        # Poisson arrivals at 200/s over 0.2s: expect ~40, loosely.
        assert 15 <= len(first) <= 80
        assert all(first[i].arrival_s <= first[i + 1].arrival_s for i in range(len(first) - 1))


class TestSLOHelpers:
    def test_exact_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert exact_percentile(samples, 0.50) == 50.0
        assert exact_percentile(samples, 0.99) == 99.0
        assert exact_percentile(samples, 1.0) == 100.0

    def test_jain_fairness(self):
        assert jain_fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_fairness([]) == 1.0

    def test_metric_segment_sanitizes(self):
        assert metric_segment("Tenant-7!") == "tenant_7"
        assert metric_segment("ok_name") == "ok_name"


# ---------------------------------------------------------------------------
# Sessions over the wire
# ---------------------------------------------------------------------------


class TestWireSessions:
    def test_commit_publishes_abort_discards(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        base = RemoteFS(client)

        sid = client.session_begin()
        RemoteFS(client, session_id=sid).write_file("/committed", b"yes")
        client.session_commit(sid)
        assert base.read_file("/committed") == b"yes"

        sid = client.session_begin()
        RemoteFS(client, session_id=sid).write_file("/aborted", b"no")
        client.session_abort(sid)
        assert not base.exists("/aborted")

    def test_first_committer_wins_over_wire(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        RemoteFS(client).write_file("/contended", b"base")
        a = client.session_begin()
        b = client.session_begin()
        RemoteFS(client, session_id=a).write_file("/contended", b"from a")
        RemoteFS(client, session_id=b).write_file("/contended", b"from b")
        client.session_commit(a)
        with pytest.raises(WriteConflict):
            client.session_commit(b)
        assert RemoteFS(client).read_file("/contended") == b"from a"

    def test_goodbye_aborts_open_sessions(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        sid = client.session_begin()
        RemoteFS(client, session_id=sid).write_file("/dangling", b"x")
        farewell = client.goodbye()
        assert farewell["sessions_aborted"] == 1
        assert not RemoteFS(make_client(server, "t")).exists("/dangling")


# ---------------------------------------------------------------------------
# Databases over the wire
# ---------------------------------------------------------------------------


class TestWireDatabases:
    def test_sql_kv_column_and_pushdown(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")

        client.sql("CREATE TABLE kvs (id INT, v INT)")
        client.sql("INSERT INTO kvs VALUES (1, 10)")
        client.sql("INSERT INTO kvs VALUES (2, 20)")
        rows = client.sql("SELECT id, v FROM kvs WHERE v > 15")
        assert rows == [{"id": 2, "v": 20}]

        client.kv_put(b"k1", b"v1")
        client.kv_put(b"k2", b"v2")
        assert client.kv_get(b"k1") == b"v1"
        assert [k for k, __ in client.kv_scan()] == [b"k1", b"k2"]
        client.kv_delete(b"k1")
        assert client.kv_get(b"k1") is None

        client.column("CREATE TABLE m (a INT, b INT)")
        client.column("INSERT INTO m VALUES (1, 100)")
        client.column("INSERT INTO m VALUES (2, 200)")
        total = client.aggregate("SELECT SUM(b) FROM m")
        assert list(total[0].values()) == [300]

        RemoteFS(client).write_file("/doc", b"needle in a haystack, needle")
        assert client.search("/doc", b"needle") == [0, 22]
        assert client.count("/doc", b"needle") == 2

    def test_pushdown_on_missing_file(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        with pytest.raises(FileNotFound):
            client.search("/nope", b"x")


# ---------------------------------------------------------------------------
# The repro.api facade
# ---------------------------------------------------------------------------


def drive_facade(client: api.Client) -> dict:
    """One scripted op sequence whose outcome fingerprints a backend."""
    client.fs.write_file("/facade", b"facade bytes")
    client.kv.put(b"a", b"1")
    client.kv.put(b"b", b"2")
    client.sql("CREATE TABLE f (id INT, v INT)")
    client.sql("INSERT INTO f VALUES (1, 5)")
    with client.session() as txn:
        txn.fs.write_file("/txn", b"committed")
    try:
        with client.session() as txn:
            txn.fs.write_file("/rolled-back", b"x")
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    return {
        "read": client.fs.read_file("/facade"),
        "kv": list(client.kv.scan()),
        "sql": client.sql("SELECT id, v FROM f"),
        "txn": client.fs.read_file("/txn"),
        "rolled_back": client.fs.exists("/rolled-back"),
        "search": client.search("/facade", b"bytes"),
        "count": client.count("/facade", b"a"),
    }


class TestFacade:
    def test_wire_and_direct_backends_are_equivalent(self):
        direct = drive_facade(api.connect(CompressFS(block_size=256, page_capacity=8)))
        server = make_server()
        server.add_tenant("t")
        wire = drive_facade(api.connect(server, tenant="t"))
        assert direct == wire

    def test_connect_validates_target(self):
        from repro.fs.errors import InvalidArgument

        with pytest.raises(InvalidArgument):
            api.connect(make_server())  # server target requires a tenant
        with pytest.raises(InvalidArgument):
            api.connect(CompressFS(), tenant="t")  # tenant needs a server
        with pytest.raises(InvalidArgument):
            api.connect(object())


# ---------------------------------------------------------------------------
# Crash mid-request
# ---------------------------------------------------------------------------


class TestCrashMidRequest:
    def test_crash_surfaces_error_and_image_recovers(self):
        device = MemoryBlockDevice(block_size=256)
        engine = CompressDB.mount(device, journal_blocks=64)
        fs = CompressFS(engine=engine)
        server = Server(fs=fs)
        server.add_tenant("t")
        client = make_client(server, "t")
        RemoteFS(client).write_file("/pre-crash", b"durable")
        engine.fsync()

        # Mutations buffer in memory until fsync, so the crash point is
        # armed on the device writes the FS_FSYNC request issues.
        wrapped = CrashPointDevice(device, crash_after=3)
        engine.device.inner = wrapped  # journal wraps the raw device
        write_frame, __ = protocol.decode_frame(
            server.serve_frame(
                "t",
                protocol.encode_frame(
                    protocol.OPCODES["FS_WRITE_FILE"],
                    10,
                    {"path": "/mid-crash", "data": b"y" * 2048},
                ),
            )
        )
        assert not write_frame.is_error
        frame, __ = protocol.decode_frame(
            server.serve_frame(
                "t",
                protocol.encode_frame(protocol.OPCODES["FS_FSYNC"], 11, {}),
            )
        )
        assert frame.is_error and frame.request_id == 11
        assert frame.payload["error"] == "FSError"  # CrashPoint degrades to EIO

        # "Reboot": remount whatever reached the inner device.
        recovered = CompressDB.mount(device)
        report = recovered.fsck(repair=False)
        violations = (
            report["refcounts_fixed"]
            + report["blocks_reclaimed"]
            + report["hole_inconsistencies"]
        )
        assert violations == 0, f"fsck found violations: {report}"
        recovered.check_invariants()
        rfs = CompressFS(engine=recovered)
        assert rfs.read_file("/t/t/pre-crash") == b"durable"


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------


class TestSocketTransport:
    @pytest.fixture
    def stack(self, tmp_path):
        server = make_server()
        server.add_tenant("gold")
        path = str(tmp_path / "serving.sock")
        with FramedSocketServer(server, path) as front:
            yield server, front, path

    def test_request_response_over_socket(self, stack):
        __, __, path = stack
        with SocketTransport(path) as transport:
            client = WireClient(transport)
            assert client.hello("gold")["tenant"] == "gold"
            fs = RemoteFS(client)
            fs.write_file("/sock", b"over a real socket")
            assert fs.read_file("/sock") == b"over a real socket"

    def test_connection_must_hello_first(self, stack):
        __, __, path = stack
        with SocketTransport(path) as transport:
            with pytest.raises(PermissionDenied):
                WireClient(transport).ping()

    def test_unknown_tenant_rejected(self, stack):
        __, __, path = stack
        with SocketTransport(path) as transport:
            with pytest.raises(PermissionDenied):
                WireClient(transport).hello("nobody")

    def test_garbage_gets_error_frame_then_hangup(self, stack):
        import socket

        __, __, path = stack
        peer = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        peer.connect(path)
        peer.settimeout(5)
        peer.sendall(b"NOT-A-FRAME-AT-ALL------")
        frame, __ = protocol.decode_frame(peer.recv(65536))
        assert frame.is_error
        assert frame.payload["error"] == "ProtocolError"
        peer.close()

    def test_auto_provision_mode(self, tmp_path):
        server = make_server()
        path = str(tmp_path / "auto.sock")
        with FramedSocketServer(server, path, auto_provision=True):
            with SocketTransport(path) as transport:
                assert WireClient(transport).hello("walk-in")["tenant"] == "walk-in"
        assert "walk-in" in server.tenants()

    def test_parallel_clients_are_served(self, stack):
        import threading

        server, __, path = stack
        errors: list[Exception] = []

        def worker(worker_no: int) -> None:
            try:
                with SocketTransport(path) as transport:
                    client = WireClient(transport)
                    client.hello("gold")
                    fs = RemoteFS(client)
                    for i in range(10):
                        name = "/w%d-%02d" % (worker_no, i)
                        fs.write_file(name, b"alpha %s " % name.encode())
                        assert client.count(name, b"alpha") == 1
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        # All 40 writes landed and the engine is consistent.
        with SocketTransport(path) as transport:
            client = WireClient(transport)
            client.hello("gold")
            names = RemoteFS(client).listdir()
        assert sorted(names) == sorted(
            "/w%d-%02d" % (n, i) for n in range(4) for i in range(10)
        )
        server.fs.engine.check_invariants()

    def test_two_simultaneous_connections(self, stack):
        __, __, path = stack
        with SocketTransport(path) as first_transport:
            with SocketTransport(path) as second_transport:
                first = WireClient(first_transport)
                second = WireClient(second_transport)
                first.hello("gold")
                second.hello("gold")
                # Interleaved requests on two open connections.
                RemoteFS(first).write_file("/doc", b"alpha beta alpha")
                assert second.count("/doc", b"alpha") == 2
                RemoteFS(second).append_file("/doc", b" two")
                assert first.count("/doc", b"two") == 1
                assert RemoteFS(first).read_file("/doc") == b"alpha beta alpha two"

    def test_multiple_sequential_clients(self, stack):
        __, __, path = stack
        for attempt in range(3):
            with SocketTransport(path) as transport:
                client = WireClient(transport)
                client.hello("gold")
                RemoteFS(client).append_file("/log", b"gamma ")
                assert client.count("/log", b"gamma") == attempt + 1


# ---------------------------------------------------------------------------
# CLI serve wiring
# ---------------------------------------------------------------------------


class TestCLIServe:
    def test_serving_stack_provisions_tenants(self, tmp_path):
        from repro.cli import _close, _mount, _serving_stack, build_parser, main

        img = str(tmp_path / "store.img")
        assert main(["init", img]) == 0
        args = build_parser().parse_args(
            ["serve", img, str(tmp_path / "s.sock"), "--tenant", "gold:4", "--tenant", "silver"]
        )
        engine = _mount(img)
        try:
            server, front = _serving_stack(engine, args)
            assert server.tenants() == ["gold", "silver"]
            assert server._tenants["gold"].config.weight == 4.0
            assert front.auto_provision is False
            with front:
                with SocketTransport(args.socket) as transport:
                    client = WireClient(transport)
                    assert client.hello("gold")["root"] == "/t/gold"
        finally:
            _close(engine, flush=True)

    def test_invalid_tenant_spec_is_cli_error(self, tmp_path):
        from repro.cli import CLIError, _close, _mount, _serving_stack, build_parser, main

        img = str(tmp_path / "store.img")
        main(["init", img])
        parser = build_parser()
        engine = _mount(img)
        try:
            for spec in (":3", "gold:heavy"):
                args = parser.parse_args(
                    ["serve", img, str(tmp_path / "s.sock"), "--tenant", spec]
                )
                with pytest.raises(CLIError):
                    _serving_stack(engine, args)
        finally:
            _close(engine, flush=False)
