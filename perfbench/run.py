"""cowlib benchmark: run one workload and print its metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline-large --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-module metrics of a traced run.
The line before it holds the run's details: the machine description, sample
counts, tail percentile, check problems and, when traced, the span profile.
The same details are written under .bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3


def cap_blas_threads() -> int:
    """Cap the BLAS thread pools at the CPUs this process may use.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_sha(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(root: str, blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads, "git_sha": git_sha(root)}


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten samples or fewer
    it is the maximum, at percentile 100 with none beyond.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


@dataclasses.dataclass
class Measurement:
    """Whole cycles of a workload's operations, timed and checked."""

    cycles: int = 0
    wall: float = 0.0
    op_times: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    method_failures: dict = dataclasses.field(default_factory=dict)
    recovered: int = 0
    unstable: int = 0


def measure(cli, wl, cycle, seconds: float, cycles: int = 0) -> Measurement:
    """Time and check whole cycles of ``cycle``.

    Runs ``cycles`` cycles if given, else as many as bring the timed call
    time nearest to ``seconds`` (at least one).
    """
    res = Measurement()
    while True:
        for argv in cycle:
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed operation; keep measuring
                rc = None
                res.problems.append(traceback.format_exc(limit=3))
            dt = time.perf_counter() - t0
            res.wall += dt
            res.op_times.append(dt)
            out = wl.check(argv, rc)
            res.attempted += out.attempted
            res.failed += out.failed
            res.recovered += out.recovered
            res.unstable += out.unstable
            res.problems.extend(out.problems[: max(0, 20 - len(res.problems))])
            for text, k in out.method_failures.items():
                res.method_failures[text] = res.method_failures.get(text, 0) + k
        res.cycles += 1
        if cycles:
            if res.cycles >= cycles:
                return res
        elif abs(res.wall * (res.cycles + 1) / res.cycles - seconds) >= abs(res.wall - seconds):
            return res


def import_seconds(src: str) -> float:
    """Median wall time of a fresh interpreter importing cowlib."""
    code = f"import sys; sys.path.insert(0, {src!r}); import cowlib.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(args, root: str) -> int:
    blas_threads = cap_blas_threads()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cowlib", "__init__.py")):
        print(f"error: no cowlib source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import cowlib.cli as cli
    import cowlib.toygen as toygen
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        print(f"error: imported cowlib from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    from tracer import Tracer, rebind, restore
    from workloads import WORKLOADS

    wl = dataclasses.replace(WORKLOADS[args.workload])
    unit_times = []
    run_toy = toygen.run_toy

    def timed_run_toy(*a, **k):
        t = time.perf_counter()
        record = run_toy(*a, **k)
        unit_times.append(time.perf_counter() - t)
        return record

    workdir = os.path.join(root, ".bench_build", "perfbench", f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    patches = rebind(run_toy, timed_run_toy)
    tracer = None
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t = time.perf_counter()
            cycle = wl.setup(workdir, args.seed)
            setups.append(time.perf_counter() - t)
        import_s = None if args.trace else import_seconds(src)
        if args.trace:
            plain = measure(cli, wl, cycle, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                res = measure(cli, wl, cycle, 0, cycles=plain.cycles)
            finally:
                tracer.uninstall()
        else:
            del unit_times[:]
            res = measure(cli, wl, cycle, args.seconds)
    finally:
        restore(patches)
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(root, blas_threads),
              "unit": wl.unit, "cycles": res.cycles, "wall_s": res.wall,
              "import_s": import_s, "setup_runs_s": setups,
              "attempted": res.attempted, "failed": res.failed,
              "problems": res.problems, "method_failures": res.method_failures,
              "reference_failures_recovered": res.recovered,
              "unstable_method_runs": res.unstable}
    if args.trace:
        attempted = plain.attempted + res.attempted
        failed = plain.failed + res.failed
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in tracer.metrics().items()}
        metrics["trace_overhead_frac"] = {"value": res.wall / plain.wall - 1.0,
                                          "unit": "fraction"}
        detail.update(untraced_wall_s=plain.wall, untraced_problems=plain.problems,
                      profile=tracer.profile())
    else:
        attempted, failed = res.attempted, res.failed
        samples = unit_times if wl.unit == "toy" else res.op_times
        tail_value, tail_pct, beyond = tail(samples)
        units = len(samples)
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "ops_per_s": (units / res.wall, "1/s"),
            "op_s_p50": (statistics.median(samples), "s"),
            "op_s_tail": (tail_value, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        detail.update(samples=units, events_per_op=wl.events_per_unit,
                      tail_percentile=tail_pct, tail_samples_beyond=beyond)

    results = os.path.join(root, ".bench_build", "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    detail["results_file"] = os.path.relpath(path, root)
    with open(path, "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric == "cows.build_cow_per_iterative_call":
        return "calls/call"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one cowlib benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=["pipeline-large", "toys-simple", "toys-nonfact"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(parser.parse_args(argv), os.getcwd())


if __name__ == "__main__":
    sys.exit(main())
