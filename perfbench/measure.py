"""Set-up timing, the measured closed loop and the end-to-end metrics.

Wall-clock figures are reported twice.  Raw ones (``ops_per_s``,
``p50_us``) are printed; the gated ones (``ops_per_s_cal``,
``p50_us_cal``) are calibrated against :func:`probe`, a fixed
pure-Python task run every ``PROBE_EVERY_S`` seconds of the loop.  On a
shared VM the CPU itself can switch between speeds (about 1.9x apart
on the 2-core VM the benchmark was defined on) every few seconds,
which spread raw figures of identical work by up to 30% between runs;
scaling each op by ``PROBE_REF_NS`` over the CPU time of the probes
around it cancels most of that.  The probe is timed in CPU time of its
own thread, so a program thread competing for the interpreter lock
still slows the calibrated figures.

A run is a sequence of *epochs*.  Epoch 0 is built from the seed and
runs exactly ``workload.window`` ops: the deterministic window, over
which simulated costs, registry counts, space and peak memory are
taken.  While ``--seconds`` have not passed, further epochs rebuild a
fresh stack from ``(seed, epoch)`` and run the same kind of window, so
the state the wall clock measures does not drift with how many ops a
machine manages in the time (tables keep growing, Raft logs are never
truncated) and memory stays bounded by one epoch.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import struct
import sys
import time
import zlib
from collections import Counter
from typing import Callable, Optional

from workloads import WORKLOADS, OpFailed, Workload

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Seconds of loop time between two calibration probes.
PROBE_EVERY_S = 0.1
#: Probe CPU time the calibrated figures are scaled to: about the
#: probe's median on the 2-core VM the benchmark was defined on, so
#: calibrated figures read like raw ones there.
PROBE_REF_NS = 600_000

#: End-to-end metrics and their units, in report order.
UNITS = {
    "ops_per_s_cal": "1/s",
    "p50_us_cal": "us",
    "sim_us_per_op": "us",
    "sim_tail_us": "us",
    "stored_per_user_byte": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def tail_mean(values: list[float], share: float = 0.02) -> float:
    """Mean of the costliest ``share`` of ``values`` (at least one)."""
    ordered = sorted(values)
    count = max(1, math.ceil(len(ordered) * share))
    return statistics.fmean(ordered[-count:])


def probe() -> int:
    """The least CPU time (ns) of three runs of :func:`_probe_task`; the
    least filters out interrupts and a cold first run."""
    return min(_probe_task() for __ in range(3))


def _probe_task() -> int:
    """CPU time (ns) of a fixed task mixing the interpreter work the
    workloads do: string keys, dicts, struct packing, buffer joins,
    checksums and a sort."""
    started = time.thread_time_ns()
    table = {}
    for i in range(1200):
        table["key%d" % i] = struct.pack("<QQ", i, i * 7)
    buffer = bytearray()
    for value in table.values():
        buffer += value
        if len(buffer) >= 1024:
            zlib.crc32(buffer)
            hashlib.blake2b(buffer).digest()
            del buffer[:]
    sorted(table, reverse=True)
    return time.thread_time_ns() - started


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build(
    name: str, seed: int, smoke: bool, repeats: int = 1, epoch: int = 0
) -> tuple[Workload, list[tuple[float, float]]]:
    """Set the workload up ``repeats`` times; keep the last stack.

    Returns the stack and, per set-up, its (raw, calibrated) seconds.
    """
    times = []
    workload = None
    for __ in range(repeats):
        workload = None  # free the previous stack before building the next
        gc.collect()
        workload = WORKLOADS[name](seed, smoke=smoke, epoch=epoch)
        before = probe()
        started = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - started
        times.append((elapsed, elapsed * 2 * PROBE_REF_NS / (before + probe())))
    return workload, times


class Loop:
    """The measured closed loop over one or more epochs.

    Only ``workload.run`` is timed; generating an op and checking its
    result against the shadow model happen outside the timed region.
    """

    def __init__(self) -> None:
        self.wall_ns: list[int] = []
        #: Per-op wall time scaled by the calibration probes.
        self.cal_ns: list[float] = []
        self.probe_ns: list[int] = []
        self.sim_s: list[float] = []
        self.kinds: Counter = Counter()
        self.failed = 0
        self.epochs = 0
        self.counts_before: dict[str, int] = {}
        self.counts_after: dict[str, int] = {}
        self.space = (0, 0)
        self.rss_mib = 0.0
        self.user_bytes = 0
        self._stream = hashlib.sha256()

    @property
    def stream_digest(self) -> str:
        """Digest of every op in the window: equal seeds, equal streams."""
        return self._stream.hexdigest()

    @property
    def delta(self) -> dict[str, int]:
        """Registry counts over the window."""
        return {
            name: value - self.counts_before.get(name, 0)
            for name, value in self.counts_after.items()
        }

    def run_epoch(
        self,
        workload: Workload,
        deadline: Optional[float] = None,
        on_op: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Run one window of ops (cut short at ``deadline`` if given).

        The first epoch is the deterministic window and also records
        the stream digest, simulated costs, counts, space and memory.
        """
        window = self.epochs == 0
        self.epochs += 1
        clock = workload.clock
        perf_ns = time.perf_counter_ns
        if window:
            self.counts_before = workload.counts()
            user_before = workload.user_bytes_written
        segment_start = len(self.wall_ns)
        previous_probe = probe()
        next_probe = time.perf_counter() + PROBE_EVERY_S
        for index in range(workload.window):
            now = time.perf_counter()
            if now >= next_probe:
                previous_probe = self._calibrate(segment_start, previous_probe)
                segment_start = len(self.wall_ns)
                next_probe = time.perf_counter() + PROBE_EVERY_S
            if deadline is not None and now >= deadline:
                break
            op = workload.next_op()
            if window:
                self._stream.update(repr(op).encode())
                self.kinds[op[0]] += 1
            if on_op is not None:
                on_op(index)
            sim_start = clock.now
            started = perf_ns()
            failure: Optional[Exception] = None
            try:
                result = workload.run(op)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                failure = exc
            elapsed = perf_ns() - started
            if failure is None:
                try:
                    workload.check(op, result)
                except OpFailed as exc:
                    failure = exc
            if failure is not None:
                self.failed += 1
                print(f"op {index} {op[0]} failed: {failure!r}", file=sys.stderr)
            self.wall_ns.append(elapsed)
            if window:
                self.sim_s.append(clock.now - sim_start)
        self._calibrate(segment_start, previous_probe)
        if window:
            self.counts_after = workload.counts()
            self.user_bytes = workload.user_bytes_written - user_before
            self.space = workload.space()
            self.rss_mib = peak_rss_mib()

    def _calibrate(self, segment_start: int, previous_probe: int) -> int:
        """Scale the ops since ``segment_start`` by the mean of the probes
        before and after them; returns the new probe."""
        current = probe()
        self.probe_ns.append(current)
        scale = 2 * PROBE_REF_NS / (previous_probe + current)
        self.cal_ns.extend(ns * scale for ns in self.wall_ns[segment_start:])
        return current


def measure(
    name: str, seed: int, smoke: bool, seconds: float
) -> tuple[Loop, list[tuple[float, float]]]:
    """Set up (timed), then run epochs until ``seconds`` have passed."""
    workload, setup_times = build(name, seed, smoke, SETUP_REPEATS)
    loop = Loop()
    deadline = time.perf_counter() + seconds
    loop.run_epoch(workload)
    workload.final_check()
    while time.perf_counter() < deadline:
        workload = None
        workload, __ = build(name, seed, smoke, epoch=loop.epochs)
        loop.run_epoch(workload, deadline)
        workload.final_check()
    return loop, setup_times


def end_to_end(loop: Loop, setup_times: list[tuple[float, float]]) -> dict[str, float]:
    physical, logical = loop.space
    return {
        "ops_per_s_cal": len(loop.cal_ns) / (sum(loop.cal_ns) / 1e9),
        "p50_us_cal": statistics.median(loop.cal_ns) / 1e3,
        "sim_us_per_op": statistics.fmean(loop.sim_s) * 1e6,
        "sim_tail_us": tail_mean(loop.sim_s) * 1e6,
        "stored_per_user_byte": physical / logical,
        "setup_s": statistics.median(cal for __, cal in setup_times),
        "peak_rss_mib": loop.rss_mib,
    }
