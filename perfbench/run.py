"""The repository benchmark: one command, four workloads, two clocks.

Run from the repository root::

    python3 perfbench/run.py --workload file-rw --seed 1 --seconds 10 --trace 0

Each invocation runs one workload (see ``workloads.py``) as a closed
loop with one client in one thread:

1. **Set-up** runs ``SETUP_REPEATS`` times from the same seed (inputs,
   stack, preload); ``setup_s`` is the median.  The last stack is kept.
2. **Timed loop.**  Ops come from the seeded stream and are checked
   against the workload's shadow model; only the call into the
   program is timed.  The first ``window`` ops are the deterministic
   window: simulated costs, registry counts, space and peak memory
   are taken over it, so they repeat exactly for a seed.  Further
   epochs on fresh stacks run until ``--seconds`` of wall time have
   passed (see ``measure.py``); wall metrics cover every op.
3. **Final checks** (fsck, remount, re-reads) end every epoch.

``--trace 1`` reports the per-layer ledger (``ledger.py``) instead:
the untraced loop runs as above, then a fresh stack from the same seed
runs the window again with wrappers around each layer's entry points,
and its spans are written to ``perfbench/out/spans-<workload>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An oracle mismatch exits
with status 1.  ``--self-check`` verifies seeded determinism instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from measure import (  # noqa: E402
    PROBE_REF_NS,
    UNITS,
    Loop,
    build,
    end_to_end,
    measure,
    percentile,
)
from workloads import WORKLOADS, Mismatch  # noqa: E402

OUT_DIR = HERE / "out"


def run_plain(args: argparse.Namespace) -> dict:
    loop, setup_times = measure(args.workload, args.seed, args.smoke, args.seconds)
    metrics = end_to_end(loop, setup_times)
    attempted = len(loop.wall_ns)
    print(
        f"workload {args.workload}: {attempted} ops timed in {loop.epochs} epochs, "
        f"window {len(loop.sim_s)} ops"
    )
    for name, value in metrics.items():
        print(f"  {name:<22} {value:.6g} {UNITS[name]}")
    physical, logical = loop.space
    print(f"  stored_per_user_byte = {physical}/{logical} B")
    wall_s = sum(loop.wall_ns) / 1e9
    print(f"  ops_per_s              {attempted / wall_s:.6g} 1/s (raw wall clock)")
    print(f"  p50_us                 {statistics.median(loop.wall_ns) / 1e3:.6g} us (raw wall clock)")
    print(
        f"  probe                  median {statistics.median(loop.probe_ns) / 1e6:.4g} ms CPU"
        f" over {len(loop.probe_ns)} probes (reference {PROBE_REF_NS / 1e6:.4g} ms)"
    )
    print(f"  error_rate             {loop.failed / attempted:.6g} = {loop.failed}/{attempted}")
    print(
        "  setup runs             "
        + ", ".join(f"{raw:.4f} ({cal:.4f} cal)" for raw, cal in setup_times)
        + " s"
    )
    # Diagnostics only: both read the same on most seeds (the cost
    # model is quantized) or swing too much run to run to gate on.
    print(f"  sim_p99_us             {percentile(loop.sim_s, 99) * 1e6:.6g} us (diagnostic)")
    wall_us = [ns / 1e3 for ns in loop.wall_ns]
    print(f"  wall_p99_us            {percentile(wall_us, 99):.6g} us (diagnostic)")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def self_check(name: str, seed: int) -> int:
    """Same seed: identical stream, simulated costs, space and counts.
    Next seed: a different stream.  Runs at smoke size."""

    def window(run_seed: int) -> Loop:
        workload, __ = build(name, run_seed, smoke=True)
        loop = Loop()
        loop.run_epoch(workload)
        workload.final_check()
        return loop

    first, second, other = window(seed), window(seed), window(seed + 1)
    problems = []
    if first.stream_digest != second.stream_digest:
        problems.append("op stream differs for one seed")
    if first.sim_s != second.sim_s:
        problems.append("simulated costs differ for one seed")
    if first.space != second.space:
        problems.append(f"space differs: {first.space} vs {second.space}")
    if first.delta != second.delta:
        problems.append(f"counts differ: {first.delta} vs {second.delta}")
    if first.stream_digest == other.stream_digest:
        problems.append(f"seeds {seed} and {seed + 1} give the same op stream")
    print(
        f"{name}: stream {first.stream_digest[:16]}, "
        f"sim mean {statistics.fmean(first.sim_s) * 1e6:.3f} us, "
        f"space {first.space}, counts {first.delta}"
    )
    for problem in problems:
        print(f"self-check FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="CompressDB repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="small inputs and window, for quick checks"
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="check that a seed fixes the op stream and every simulated figure",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.self_check:
        return self_check(args.workload, args.seed)
    try:
        if args.trace:
            from ledger import run_traced

            result = run_traced(args, OUT_DIR)
        else:
            result = run_plain(args)
    except Mismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
