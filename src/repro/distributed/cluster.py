"""Cluster assembly: the paper's five-node MooseFS deployment in a box.

:func:`build_cluster` wires a metadata master, N chunk servers (each
with its own simulated ESSD), and a client, all sharing one simulated
clock — mirroring the evaluation platform of Section 6.1 (five cloud
nodes, 50k-IOPS ESSDs, datacenter LAN).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.analysis.sanitizer import tracked_lock
from repro.distributed.chunkserver import ChunkServer
from repro.distributed.client import ClusterClient
from repro.distributed.master import Master
from repro.distributed.replicated import MasterGroup, ReplicatedMaster
from repro.distributed.shardmap import ShardedMaster
from repro.obs import Observability
from repro.raft.node import RaftConfig
from repro.storage.simclock import CLOUD_ESSD, DATACENTER_LAN, DeviceProfile, NetworkProfile, SimClock
from repro.storage.stats import StatsRegistry


@dataclass
class Cluster:
    """A running cluster: master, servers, client, clock, stats."""

    master: Master
    servers: dict[str, ChunkServer]
    client: ClusterClient
    clock: SimClock
    stats: StatsRegistry
    obs: Observability

    def metrics(self):
        """One snapshot covering every node and the client RPC layer."""
        return self.obs.registry.snapshot()

    def logical_bytes(self) -> int:
        return sum(server.logical_bytes() for server in self.servers.values())

    def physical_bytes(self) -> int:
        return sum(server.physical_bytes() for server in self.servers.values())

    def compression_ratio(self) -> float:
        physical = self.physical_bytes()
        if physical == 0:
            return 1.0
        return self.logical_bytes() / physical


def _chunkservers(
    nodes: int,
    compressed: bool,
    block_size: int,
    device_profile: DeviceProfile,
    durable: bool,
    domains: dict[str, str],
) -> tuple[SimClock, Observability, StatsRegistry, dict[str, ChunkServer]]:
    """The part both builders share: one clock, one observability
    bundle, one stats directory and ``nodes`` chunk servers named
    ``node0..``, labelled with their entry in ``domains`` if any."""
    if nodes < 1:
        raise ValueError("a cluster needs at least one node")
    clock = SimClock()
    obs = Observability(clock=clock)
    stats = StatsRegistry(metrics=obs.registry)
    servers: dict[str, ChunkServer] = {}
    for index in range(nodes):
        name = f"node{index}"
        servers[name] = ChunkServer(
            name,
            clock=clock,
            compressed=compressed,
            block_size=block_size,
            profile=device_profile,
            stats=stats.register(name, prefix=f"cluster.{name}.device"),
            durable=durable,
            obs=obs,
            domain=domains.get(name, ""),
        )
    return clock, obs, stats, servers


def build_cluster(
    nodes: int = 5,
    compressed: bool = True,
    pushdown: bool = True,
    block_size: int = 1024,
    chunk_capacity: int = 64 * 1024,
    device_profile: DeviceProfile = CLOUD_ESSD,
    network: NetworkProfile = DATACENTER_LAN,
    replication: int = 1,
    durable: bool = False,
) -> Cluster:
    """Build a cluster in the paper's configuration.

    ``compressed=False, pushdown=False`` is the MooseFS baseline;
    ``compressed=True, pushdown=True`` is CompressDB on MooseFS.
    ``replication`` is the MooseFS "goal": how many servers hold each
    chunk (reads fail over to surviving replicas).  ``durable=True``
    mounts each server's engine behind the journal (group commit after
    every mutating RPC), as the crash-consistency experiments do.
    """
    clock, obs, stats, servers = _chunkservers(
        nodes, compressed, block_size, device_profile, durable, {}
    )
    master = Master(list(servers), chunk_capacity=chunk_capacity, replication=replication)
    client = ClusterClient(
        master, servers, clock=clock, network=network, pushdown=pushdown, obs=obs
    )
    return Cluster(
        master=master, servers=servers, client=client, clock=clock, stats=stats, obs=obs
    )


@dataclass
class ReplicatedCluster(Cluster):
    """A cluster whose metadata plane is replicated (and maybe sharded).

    ``master`` is the client-facing facade — a
    :class:`~repro.distributed.replicated.ReplicatedMaster` for one
    group, a :class:`~repro.distributed.shardmap.ShardedMaster` routing
    over several; ``groups`` exposes the underlying Raft groups for
    failure injection (``crash_leader`` / ``restart``).
    """

    groups: list[MasterGroup] = field(default_factory=list)

    def group(self) -> MasterGroup:
        """The (first) master group — the common single-shard case."""
        return self.groups[0]


def build_replicated_cluster(
    nodes: int = 5,
    masters: int = 3,
    shards: int = 1,
    compressed: bool = True,
    pushdown: bool = True,
    block_size: int = 1024,
    chunk_capacity: int = 64 * 1024,
    device_profile: DeviceProfile = CLOUD_ESSD,
    network: NetworkProfile = DATACENTER_LAN,
    replication: int = 1,
    durable: bool = False,
    racks: int = 0,
    seed: int = 0,
    raft_config: Optional[RaftConfig] = None,
) -> ReplicatedCluster:
    """Build a cluster with a Raft-replicated, optionally sharded master.

    Each of ``shards`` consistent-hash shards is its own group of
    ``masters`` Raft replicas; all groups (and their replica Masters)
    share ONE rank-0 lock, so client locking is identical to the plain
    cluster.  ``racks > 0`` labels chunk servers round-robin with
    failure domains ``rack0..rack{racks-1}``, which placement spreads
    replicas across; ``racks == 0`` leaves servers unlabelled (each is
    its own domain).
    """
    config = raft_config if raft_config is not None else RaftConfig()
    domains = (
        {f"node{index}": f"rack{index % racks}" for index in range(nodes)}
        if racks > 0
        else {}
    )
    clock, obs, stats, servers = _chunkservers(
        nodes, compressed, block_size, device_profile, durable, domains
    )
    lock = tracked_lock("master.group.lock", rank=0)
    groups: list[MasterGroup] = []
    facades: dict[str, ReplicatedMaster] = {}
    for index in range(shards):
        group = MasterGroup(
            list(servers),
            masters=masters,
            chunk_capacity=chunk_capacity,
            replication=replication,
            clock=clock,
            seed=seed + 17 * index,
            obs=obs,
            config=config,
            chunk_prefix=f"s{index}c" if shards > 1 else "c",
            domains=domains,
            lock=lock,
        )
        groups.append(group)
        facades[f"g{index}"] = ReplicatedMaster(group)
    master: Union[ReplicatedMaster, ShardedMaster]
    if shards == 1:
        master = facades["g0"]
    else:
        master = ShardedMaster(facades, lock=lock)
    client = ClusterClient(
        master, servers, clock=clock, network=network, pushdown=pushdown, obs=obs
    )
    cluster = ReplicatedCluster(
        master=master,  # type: ignore[arg-type]
        servers=servers,
        client=client,
        clock=clock,
        stats=stats,
        obs=obs,
        groups=groups,
    )
    for server in servers.values():
        client.join_server(server)
    return cluster
