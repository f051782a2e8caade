"""I/O statistics for storage components, backed by the metrics registry.

Since PR 4 every counter lives in a
:class:`~repro.obs.metrics.MetricsRegistry` under
``<prefix>.<counter>`` (default prefix ``storage.device``); this module
keeps the familiar :class:`IOStats` recording API — ``record_read``,
``record_batched_write``, … — as a thin facade over those registry
counters.  Reads go through :meth:`IOStats.snapshot`, which returns a
frozen :class:`IOStatsSnapshot`.

:class:`StatsRegistry` is the named-component directory the cluster
simulator uses; its :meth:`StatsRegistry.total` sums components
*deduplicated by identity*, so one :class:`IOStats` registered under
two names (a device aliased as both ``node0`` and ``primary``) counts
once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Optional, Union

from repro.obs.metrics import MetricsRegistry

__all__ = ["IOStats", "IOStatsSnapshot", "StatsRegistry"]

#: The counters every storage/network component reports, in render order.
IO_FIELDS = (
    "block_reads",
    "block_writes",
    "bytes_read",
    "bytes_written",
    "metadata_reads",
    "metadata_writes",
    "allocations",
    "frees",
    # Scatter-gather accounting: one batched op covers many blocks in a
    # single device transaction (one seek charged for the whole run).
    "batched_reads",
    "batched_writes",
    "batched_blocks_read",
    "batched_blocks_written",
)

_PREFIX_SANITIZE = re.compile(r"[^a-z0-9_.]")


@dataclass(frozen=True)
class IOStatsSnapshot:
    """Immutable view of one component's I/O counters."""

    block_reads: int = 0
    block_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    metadata_reads: int = 0
    metadata_writes: int = 0
    allocations: int = 0
    frees: int = 0
    batched_reads: int = 0
    batched_writes: int = 0
    batched_blocks_read: int = 0
    batched_blocks_written: int = 0

    @property
    def total_ops(self) -> int:
        return (
            self.block_reads
            + self.block_writes
            + self.metadata_reads
            + self.metadata_writes
        )

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def delta(self, earlier: "IOStatsSnapshot") -> "IOStatsSnapshot":
        """Counter-wise difference against an earlier snapshot."""
        return IOStatsSnapshot(
            **{
                spec.name: getattr(self, spec.name) - getattr(earlier, spec.name)
                for spec in fields(self)
            }
        )

    def merge(self, other: "IOStatsSnapshot") -> "IOStatsSnapshot":
        """Counter-wise sum (aggregate several components)."""
        return IOStatsSnapshot(
            **{
                spec.name: getattr(self, spec.name) + getattr(other, spec.name)
                for spec in fields(self)
            }
        )


class IOStats:
    """Recording facade for one component's I/O counters.

    All mutation goes through the ``record_*`` accessors, which bump
    counters named ``<prefix>.<field>`` in the backing registry.  A
    standalone ``IOStats()`` creates a private registry; components
    sharing an :class:`~repro.obs.Observability` bundle pass its
    registry so everything lands in one place.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        prefix: str = "storage.device",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.prefix = prefix
        self._counters = {
            name: self.registry.counter(f"{prefix}.{name}") for name in IO_FIELDS
        }

    # -- recording accessors ------------------------------------------
    def record_read(self, nbytes: int) -> None:
        self._counters["block_reads"].inc()
        self._counters["bytes_read"].inc(nbytes)

    def record_write(self, nbytes: int) -> None:
        self._counters["block_writes"].inc()
        self._counters["bytes_written"].inc(nbytes)

    def record_batched_read(self, nblocks: int, nbytes: int) -> None:
        """One multi-block read transaction covering ``nblocks`` blocks."""
        self._counters["block_reads"].inc(nblocks)
        self._counters["bytes_read"].inc(nbytes)
        self._counters["batched_reads"].inc()
        self._counters["batched_blocks_read"].inc(nblocks)

    def record_batched_write(self, nblocks: int, nbytes: int) -> None:
        """One multi-block write transaction covering ``nblocks`` blocks."""
        self._counters["block_writes"].inc(nblocks)
        self._counters["bytes_written"].inc(nbytes)
        self._counters["batched_writes"].inc()
        self._counters["batched_blocks_written"].inc(nblocks)

    def record_metadata_read(self) -> None:
        self._counters["metadata_reads"].inc()

    def record_metadata_write(self) -> None:
        self._counters["metadata_writes"].inc()

    def record_allocation(self) -> None:
        self._counters["allocations"].inc()

    def record_free(self) -> None:
        self._counters["frees"].inc()

    def reset(self) -> None:
        """Zero every counter of this component."""
        for counter in self._counters.values():
            counter.force(0)  # reprolint: disable=OBS001 -- reset() is the sanctioned zeroing path; force() keeps the shared instrument object while discarding its history

    # -- reading ------------------------------------------------------
    def snapshot(self) -> IOStatsSnapshot:
        """Frozen view of the current counters."""
        return IOStatsSnapshot(
            **{name: counter.value for name, counter in self._counters.items()}
        )

    def delta(
        self, earlier: Union["IOStats", IOStatsSnapshot]
    ) -> IOStatsSnapshot:
        """Difference between now and an earlier snapshot (or IOStats)."""
        if isinstance(earlier, IOStats):
            earlier = earlier.snapshot()
        return self.snapshot().delta(earlier)

    @property
    def total_ops(self) -> int:
        return self.snapshot().total_ops

    @property
    def total_bytes(self) -> int:
        return self.snapshot().total_bytes


def _default_prefix(name: str) -> str:
    cleaned = _PREFIX_SANITIZE.sub("_", name.lower()) or "component"
    if not cleaned[0].isalpha():
        cleaned = "c" + cleaned
    return cleaned


class StatsRegistry:
    """A named directory of :class:`IOStats`, one per component.

    All components share one :class:`~repro.obs.metrics.MetricsRegistry`
    (the cluster passes the bundle's); each gets its own metric prefix.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.components: dict[str, IOStats] = {}

    def register(self, name: str, prefix: Optional[str] = None) -> IOStats:
        if name in self.components:
            raise ValueError(f"component {name!r} already registered")
        stats = IOStats(
            registry=self.metrics, prefix=prefix or _default_prefix(name)
        )
        self.components[name] = stats
        return stats

    def attach(self, name: str, stats: IOStats) -> IOStats:
        """Register an *existing* component under (another) name.

        Aliasing is legitimate — a device may be both ``node0`` and
        ``primary`` — and :meth:`total` counts the underlying stats
        object once regardless of how many names point at it.
        """
        if name in self.components:
            raise ValueError(f"component {name!r} already registered")
        self.components[name] = stats
        return stats

    def get(self, name: str) -> IOStats:
        return self.components[name]

    def reset_all(self) -> None:
        for stats in self.components.values():
            stats.reset()

    def total(self) -> IOStatsSnapshot:
        """Sum of every *distinct* component's counters.

        Components are deduplicated by identity: one IOStats registered
        under two names contributes once.
        """
        total = IOStatsSnapshot()
        seen: set[int] = set()
        for stats in self.components.values():
            if id(stats) in seen:
                continue
            seen.add(id(stats))
            total = total.merge(stats.snapshot())
        return total
