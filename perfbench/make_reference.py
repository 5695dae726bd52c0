"""Record the reference results the toy workloads are checked against.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py [workload ...]

For every toy seed of every block of a toy workload it stores each method's
estimate and corrected error (rounded to REFERENCE_DIGITS significant
digits) or, for a method that failed, its error text.

It then reruns every toy twice with the numerics changed but not the
statistics: once with a ten times larger step in ``mlfit.numerical_hessian``
and once with every fit started 0.2% away from its usual start point.  A
toy method whose outcome then disagrees with the recorded one (see
``workloads.agrees``) is marked unstable: its reference value depends on
numerical details, so the check accepts any finite result or failure there.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import json
import multiprocessing
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# one BLAS thread per worker process; the workers already fill the CPUs
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cowlib  # noqa: E402
import numpy as np  # noqa: E402
from cowlib import mlfit  # noqa: E402
from cowlib.toygen import EnsembleConfig, MethodSpec, ToySpec, run_toy  # noqa: E402

from workloads import (REFERENCE_DIGITS, WORKLOADS, ToysWorkload, agrees,  # noqa: E402
                       summarize_record)

CHUNK = 40
PERTURBATIONS = ("hessian_step_x10", "start_shifted")


def _shifted_start(run_fit, nll, grad, x0, lower, upper, gtol):
    x0 = np.clip(np.asarray(x0, dtype=float) * 1.002 + 1e-4, lower, upper)
    return run_fit(nll, grad, x0, lower, upper, gtol)


def _perturb(name):
    """Worker initializer: change the numerics of every fit in this process."""
    if name == "hessian_step_x10":
        mlfit.numerical_hessian.__defaults__ = (1e-4,)
    elif name == "start_shifted":
        mlfit._run_fit = functools.partial(_shifted_start, mlfit._run_fit)


def _run_chunk(args):
    name, first, n = args
    wl = WORKLOADS[name]
    config = EnsembleConfig(toy=ToySpec(**wl.toy), methods=[MethodSpec(**m) for m in wl.methods],
                            n_toys=n, base_seed=first)
    out = []
    for i in range(n):
        t0 = time.perf_counter()
        record = run_toy(config, i)
        out.append((str(record["seed"]), summarize_record(record, wl.methods),
                    time.perf_counter() - t0))
    return out


def _run_all(wl: ToysWorkload, perturbation=None) -> list:
    """(seed, outcome by method, seconds) of every toy of every block."""
    total = wl.n_blocks * wl.block
    chunks = [(wl.name, wl.base_seed + i, min(CHUNK, total - i)) for i in range(0, total, CHUNK)]
    # fresh worker processes per perturbation, so none carries over
    with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0)),
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=_perturb, initargs=(perturbation,)) as pool:
        return [row for chunk in pool.map(_run_chunk, chunks) for row in chunk]


def make_reference(wl: ToysWorkload) -> dict:
    results = _run_all(wl)
    toys = {seed: summary for seed, summary, _ in results}
    unstable = {}
    for perturbation in PERTURBATIONS:
        for seed, summary, _ in _run_all(wl, perturbation):
            for name, got in summary.items():
                if not agrees(got, toys[seed][name]):
                    unstable.setdefault(seed, set()).add(name)
    return {"workload": wl.name, "cowlib_version": cowlib.__version__,
            "toy": wl.toy, "methods": wl.methods, "base_seed": wl.base_seed,
            "n_toys": len(toys), "digits": REFERENCE_DIGITS, "toys": toys,
            "perturbations": list(PERTURBATIONS),
            "unstable": {seed: sorted(names) for seed, names in unstable.items()},
            "toy_seconds": [round(dt, 4) for _, _, dt in results]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=[n for n, w in WORKLOADS.items() if isinstance(w, ToysWorkload)])
    args = parser.parse_args(argv)
    for name in args.workloads:
        wl = WORKLOADS[name]
        t0 = time.perf_counter()
        ref = make_reference(wl)
        seconds = ref.pop("toy_seconds")
        with gzip.GzipFile(wl.reference_path, "wb", mtime=0) as fh:
            fh.write(json.dumps(ref, sort_keys=True).encode())
        failures = sum(isinstance(v, str) for toy in ref["toys"].values() for v in toy.values())
        blocks = [sum(seconds[i:i + wl.block]) for i in range(0, len(seconds), wl.block)]
        q1, q2, q3 = statistics.quantiles(blocks, n=4)
        n_unstable = sum(len(v) for v in ref["unstable"].values())
        print(f"{name}: {ref['n_toys']} toys, {failures} method failures, "
              f"{n_unstable} unstable toy methods, "
              f"{time.perf_counter() - t0:.0f} s; per-toy s p50 {statistics.median(seconds):.3f} "
              f"max {max(seconds):.3f}; per-block s median {q2:.1f}, "
              f"quartile spread {(q3 - q1) / q2:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
