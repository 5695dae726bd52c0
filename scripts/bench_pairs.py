"""Run the benchmark on two source checkouts in alternating pairs, and summarize.

    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 10 --seconds 25 --out BENCH_N.json

For each seed 1..N and each workload of ``CHANGE/BENCHMARK.json``,
``python3 perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0``
runs once in each checkout, one after the other: the parent first on odd
seeds, the change first on even ones, so a drift of the machine's speed
falls on both sides alike.  Each run's last line of output holds its
end-to-end metrics.

The output file holds the machine (as the change's run describes it), the
parent's commit, and for each workload and end-to-end metric of
``BENCHMARK.json``: the number of pairs, how many of them the change wins
(better strictly, in the direction the metric names), the medians and
quartiles of both sides and the change's median over the parent's.  Then
every pair, with both sides' metrics and operation counts.  The file is
rewritten after every pair, so an interrupted run keeps the pairs it made.

Nothing in either checkout is changed, except what ``perfbench/run.py``
itself writes under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its end-to-end metric values,
    operations attempted and failed, and the machine its run describes."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, check=True, capture_output=True, text=True).stdout
    *_, detail, last = out.strip().splitlines()
    result = json.loads(last)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "machine": json.loads(detail)["detail"]["machine"]}


def quartiles(values):
    """(q1, median, q3), by linear interpolation between the order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list, metrics: list) -> dict:
    """For each workload of ``pairs`` and each metric ({"name", "better"}):
    the pairs, the change's wins, both sides' quartiles and the change's
    median over the parent's."""
    summary: dict = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        summary[workload] = {}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            parent = [p["parent"]["metrics"][name] for p in mine]
            change = [p["change"]["metrics"][name] for p in mine]
            wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            summary[workload][name] = {
                "better": metric["better"], "pairs": len(mine), "change_wins": wins,
                "parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
                "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
                "change_over_parent": cmed / pmed if pmed else None}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent's source checkout")
    parser.add_argument("change", help="root of the change's source checkout")
    parser.add_argument("--pairs", type=int, required=True, help="seeds 1..PAIRS")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--description", default="perfbench pairs, parent against change")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    pairs = []
    for seed in range(1, args.pairs + 1):
        for workload in workloads:
            first = "parent" if seed % 2 else "change"
            sides = {}
            for side in (first, "change" if first == "parent" else "parent"):
                sides[side] = run_side(getattr(args, side), workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(sides[side]['metrics'])}", file=sys.stderr, flush=True)
            machine = sides["change"].pop("machine")
            machine.pop("git_sha", None)
            parent_sha = sides["parent"].pop("machine")["git_sha"]
            pairs.append({"workload": workload, "seed": seed, "first": first,
                          "parent": sides["parent"], "change": sides["change"]})
            report = {
                "description": args.description,
                "command": f"python3 perfbench/run.py --workload W --seed S"
                           f" --seconds {args.seconds:g} --trace 0",
                "seeds": f"1-{args.pairs} for every workload",
                "parent": parent_sha,
                "machine": machine,
                "summary": summarize(pairs, bench["end_to_end"]),
                "pairs": pairs,
            }
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
