"""Replay every block of a perfbench toy workload against its reference.

A ``perfbench/run.py`` run checks one block of toy seeds, the one its
``--seed`` selects.  This script runs all of them in one process, through
the same set-up, ``cowlib toys`` call and check as the benchmark, and
prints for each block and in total the method runs attempted, failed,
recovered (a success where the reference failed) and unstable (a toy the
reference marks as moving under changed numerics), then the problems.
Numerics changes to the fits should pass it on both toy workloads.

Run from the root of a source checkout:

    python3 scripts/replay_reference.py --workload toys-simple
    python3 scripts/replay_reference.py --workload toys-nonfact --blocks 0 1

It exits 1 if any method run fails its check.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from cowlib import cli  # noqa: E402
from workloads import WORKLOADS, ToysWorkload  # noqa: E402

TOY_WORKLOADS = sorted(name for name, wl in WORKLOADS.items() if isinstance(wl, ToysWorkload))
COUNTS = ("attempted", "failed", "recovered", "unstable")


def replay_block(wl: ToysWorkload, block: int, workdir: str):
    """The benchmark's check of block ``block``, and its wall time."""
    argv, = wl.setup(workdir, block)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    return wl.check(argv, rc), time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=TOY_WORKLOADS)
    parser.add_argument("--blocks", type=int, nargs="*", default=None,
                        help="block numbers (default: every block)")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    blocks = range(wl.n_blocks) if args.blocks is None else args.blocks
    totals = dict.fromkeys(COUNTS, 0)
    failures, problems = {}, []
    print(f"{'block':>5} {'first seed':>10} " + " ".join(f"{c:>9}" for c in COUNTS) + "  seconds")
    for block in blocks:
        with tempfile.TemporaryDirectory() as workdir:
            res, seconds = replay_block(wl, block, workdir)
        counts = {c: getattr(res, c) for c in COUNTS}
        for c in COUNTS:
            totals[c] += counts[c]
        for text, n in res.method_failures.items():
            failures[text] = failures.get(text, 0) + n
        problems.extend(res.problems)
        print(f"{block:>5} {wl.block_start(block):>10} "
              + " ".join(f"{counts[c]:>9}" for c in COUNTS) + f"  {seconds:7.1f}", flush=True)
    print(f"{'all':>16} " + " ".join(f"{totals[c]:>9}" for c in COUNTS))
    for text, n in sorted(failures.items()):
        print(f"method failures: {n} x {text}")
    for p in problems:
        print(f"problem: {p}")
    return 1 if totals["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
