"""Tests for the Raft-replicated metadata plane.

Covers the persistent log (recovery, torn tails, truncation), leader
election (safety under a seeded 200-interleaving storm), the
kill-the-leader crash matrix (zero committed-metadata loss), leader
leases, and the NotLeader wire mapping.
"""

import random

import pytest

from repro.distributed.replicated import MasterGroup, ReplicatedMaster
from repro.fs.errors import TryAgain, wire_code, wire_error_payload
from repro.raft.log import LogEntry, RaftLog, RaftLogError
from repro.raft.node import LEADER, NodeCrashed, NotLeaderError, RaftConfig
from repro.raft.statemachine import encode_command
from repro.serving.client import raise_wire_error
from repro.storage.block_device import (
    BlockDeviceError,
    DeviceWrapper,
    MemoryBlockDevice,
)
from repro.storage.simclock import RAM_DISK, SimClock


def _device():
    return MemoryBlockDevice(block_size=4096, profile=RAM_DISK, clock=SimClock())


class TestRaftLog:
    def test_append_and_reads(self):
        log = RaftLog(_device())
        entries = log.append(1, [b"a", b"b"])
        assert [e.index for e in entries] == [1, 2]
        assert log.last_index == 2
        assert log.last_term == 1
        assert log.term_at(0) == 0
        assert log.entry(2).command == b"b"
        assert [e.command for e in log.entries_from(1)] == [b"a", b"b"]

    def test_recovery_round_trip(self):
        device = _device()
        log = RaftLog(device)
        log.set_hard_state(3, "m1")
        log.append(1, [b"one"])
        log.append(3, [b"two", b"three"])
        recovered = RaftLog(device)
        assert recovered.current_term == 3
        assert recovered.voted_for == "m1"
        assert recovered.last_index == 3
        assert [e.command for e in recovered.entries_from(1)] == [
            b"one",
            b"two",
            b"three",
        ]
        assert [e.term for e in recovered.entries_from(1)] == [1, 3, 3]

    def test_torn_tail_drops_last_batch_only(self):
        device = _device()
        log = RaftLog(device)
        log.append(1, [b"acked"])
        tail_start = log._batches[-1].start_block + log._batches[-1].blocks
        log.append(1, [b"torn"])
        # Corrupt the second batch's commit record: a torn append.
        commit_block = log._next_block - 1
        assert commit_block > tail_start
        device.write_blocks([(commit_block, b"\xff" * device.block_size)])
        recovered = RaftLog(device)
        assert recovered.last_index == 1
        assert recovered.entry(1).command == b"acked"

    def test_truncate_from_survives_recovery(self):
        device = _device()
        log = RaftLog(device)
        log.append(1, [b"a", b"b", b"c"])
        log.append(2, [b"d"])
        log.truncate_from(2)  # partial batch: keeps "a", rewrites it
        assert log.last_index == 1
        log.append(3, [b"b2"])
        recovered = RaftLog(device)
        assert [(e.term, e.command) for e in recovered.entries_from(1)] == [
            (1, b"a"),
            (3, b"b2"),
        ]

    def test_truncate_whole_log_stamps_terminator(self):
        device = _device()
        log = RaftLog(device)
        log.append(1, [b"a"])
        log.truncate_from(1)
        assert log.last_index == 0
        assert RaftLog(device).last_index == 0

    def test_follower_append_requires_contiguity(self):
        log = RaftLog(_device())
        with pytest.raises(RaftLogError):
            log.append_entries([LogEntry(term=1, index=5, command=b"x")])

    def test_oversized_command_rejected(self):
        log = RaftLog(_device())
        with pytest.raises(RaftLogError):
            log.append(1, [b"x" * 5000])

    def test_hard_state_read_error_propagates(self):
        # A failed read of block 0 must not pass for an empty log: that
        # would reset (current_term, voted_for) and allow a second vote
        # in the same term.
        class FailingHardStateRead(DeviceWrapper):
            def read_blocks(self, block_nos):
                if 0 in block_nos:
                    raise BlockDeviceError("injected read error on block 0")
                return self.inner.read_blocks(block_nos)

        device = _device()
        RaftLog(device).set_hard_state(5, "m2")
        with pytest.raises(BlockDeviceError):
            RaftLog(FailingHardStateRead(device))


def _group(masters=3, seed=0, **kwargs):
    return MasterGroup(
        ["node0", "node1", "node2"], masters=masters, seed=seed, **kwargs
    )


class TestElection:
    def test_single_leader_elected(self):
        group = _group()
        name = group.elect()
        leader = group.leader()
        assert leader is not None and leader.name == name
        assert sum(
            1
            for node in group.nodes.values()
            if node.role == LEADER and not node.crashed
        ) == 1

    def test_failover_within_timeout_bound(self):
        config = RaftConfig()
        group = _group(config=config)
        group.elect()
        group.crash_leader()
        start = group.clock.now
        group.elect()
        elapsed = group.clock.now - start
        # Lease expiry + a handful of randomized election timeouts; far
        # under the pathological bound but crucially bounded at all.
        assert elapsed <= config.lease_duration + 10 * config.election_timeout_max

    def test_no_leader_without_majority(self):
        group = _group()
        group.elect()
        names = sorted(group.nodes)
        group.crash(names[0])
        group.crash(names[1])
        with pytest.raises(TimeoutError):
            group.elect(deadline_s=2.0)

    def test_restarted_node_rejoins_as_follower(self):
        group = _group()
        group.elect()
        killed = group.crash_leader()
        group.elect()
        node = group.restart(killed)
        assert node.role != LEADER
        for __ in range(10):
            group.tick()
        assert group.live_names() == sorted(group.nodes)


class TestElectionStorm:
    def test_at_most_one_leader_per_term_across_200_interleavings(self):
        """Seeded storm: 200 crash/restart/tick schedules, then prove the
        Election Safety property from the transport's leader ledger."""
        group = _group(seed=42)
        rng = random.Random(1234)
        names = sorted(group.nodes)
        for round_no in range(200):
            crashed = [n for n in names if group.nodes[n].crashed]
            live = [n for n in names if not group.nodes[n].crashed]
            action = rng.random()
            if action < 0.25 and len(live) > 2:
                group.crash(rng.choice(live))
            elif action < 0.5 and crashed:
                group.restart(rng.choice(crashed))
            for __ in range(rng.randrange(1, 5)):
                group.tick()
                group.clock.charge(rng.uniform(0.01, 0.12))
        ledger = group.transport.leaders_by_term()
        assert ledger, "the storm never elected anyone"
        for term, leaders in ledger.items():
            assert len(leaders) <= 1, f"term {term} elected {sorted(leaders)}"


CRASH_POINTS = ["before_append", "after_append", "before_commit", "after_commit"]


class TestKillLeaderMatrix:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_zero_committed_metadata_loss(self, point):
        group = _group(seed=7)
        facade = ReplicatedMaster(group)
        # Commands acked before the crash are committed metadata.
        acked = [f"/pre{i}" for i in range(3)]
        for path in acked:
            facade.create(path)
        leader = group.leader()
        assert leader is not None
        leader.install_crash_point(point)
        with pytest.raises(NodeCrashed):
            with group.lock:
                leader.propose(encode_command("create", path="/inflight"))
        # Failover: the survivors elect a new leader.
        killed = leader.name
        new_leader = group.elect()
        assert new_leader != killed
        survivor = group.leader_master()
        for path in acked:
            assert survivor.exists(path), f"{point}: lost committed {path}"
        if point == "after_commit":
            # Committed (and applied on the old leader) before the crash:
            # it reached a majority, so the new leader must carry it.
            assert survivor.exists("/inflight")
        if point == "before_append":
            # Never entered any log; it must not resurrect.
            assert not survivor.exists("/inflight")

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_restarted_leader_converges(self, point):
        group = _group(seed=11)
        facade = ReplicatedMaster(group)
        facade.create("/durable")
        leader = group.leader()
        leader.install_crash_point(point)
        with pytest.raises(NodeCrashed):
            with group.lock:
                leader.propose(encode_command("create", path="/inflight"))
        killed = leader.name
        group.elect()
        facade.create("/after-failover")
        group.restart(killed)
        for __ in range(30):
            group.tick()
            group.clock.charge(0.05)
        digests = group.state_digests()
        assert len(digests) == 3
        assert len(set(digests.values())) == 1, digests
        survivor = group.leader_master()
        assert survivor.exists("/durable")
        assert survivor.exists("/after-failover")


class TestLease:
    def test_leader_lease_expires_without_heartbeats(self):
        config = RaftConfig()
        group = _group(config=config)
        group.elect()
        leader = group.leader()
        assert leader.has_lease()
        # Freeze the leader (no ticks) and let simulated time pass.
        group.clock.charge(config.lease_duration + 0.01)
        assert not leader.has_lease()
        assert group.leader() is None

    def test_lease_shorter_than_election_timeout(self):
        config = RaftConfig()
        assert config.lease_duration < config.election_timeout_min

    def test_deposed_replica_redirects(self):
        group = _group()
        group.elect()
        follower = next(
            node
            for name, node in sorted(group.nodes.items())
            if node.role != LEADER
        )
        with pytest.raises(NotLeaderError) as excinfo:
            follower.propose(encode_command("noop"))
        assert excinfo.value.retry_after_ms > 0


class TestWireMapping:
    def test_not_leader_is_try_again_on_the_wire(self):
        exc = NotLeaderError("m1 is a follower", leader_hint="m0")
        assert wire_code(exc) == 11  # EAGAIN: TryAgain's frozen code

    def test_leader_hint_round_trip(self):
        exc = NotLeaderError(
            "m1 is a follower", leader_hint="m0", retry_after_ms=300.0
        )
        payload = wire_error_payload(exc)
        assert payload["error"] == "TryAgain"
        assert payload["leader_hint"] == "m0"
        with pytest.raises(TryAgain) as excinfo:
            raise_wire_error(payload)
        raised = excinfo.value
        assert raised.retry_after_ms == 300.0
        assert raised.leader_hint == "m0"
