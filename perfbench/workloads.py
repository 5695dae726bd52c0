"""The benchmark's workloads: inputs made from the seed, the operations a
user runs on them, and the checks every output must pass.

Each workload drives ``cowlib.cli.main`` in process, as the ``cowlib``
command would.  A workload is a cycle of operations; the runner repeats
whole cycles, so every run covers the same inputs in the same proportions.
"""

from __future__ import annotations

import gzip
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from cowlib import cli
from cowlib.toygen import ToySpec, generate

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# A toy's estimate and corrected error must each lie within this fraction of
# the reference corrected error.  Changing the numerics without changing the
# statistics (a 10x larger Hessian step, another optimizer start point) moves
# the free-shape swCi results by up to ~4e-3 sigma and every other method's by
# under 1e-5 sigma; a shift of 0.02 sigma is at the resolution of a pull study
# over all reference toys (1 / sqrt(2240) ~ 0.021).
REFERENCE_TOL_SIGMA = 0.02
REFERENCE_DIGITS = 10

SIMPLE_MODEL = {"support": [0.0, 1.0],
                "components": [{"kind": "normal", "params": [0.5, 0.08], "label": "s"},
                               {"kind": "exponential", "params": [1.0], "label": "b"}]}
CONTROL_MODEL = {"kind": "exponential", "params": [1.5], "support": [0.0, 3.0]}
TRUE_SLOPE = 2.0


@dataclass
class OpResult:
    """Outcome of one ``cowlib`` call as the checks saw it."""

    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    method_failures: Dict[str, int] = field(default_factory=dict)
    recovered: int = 0
    unstable: int = 0


# ---------------------------------------------------------------------------
# pipeline-large


@dataclass
class PipelineWorkload:
    """``cowlib pipeline`` on one large simple-study sample, one call per method."""

    name: str = "pipeline-large"
    n_events: int = 200_000
    z: float = 0.2
    methods: Tuple[str, ...] = ("sweights-B", "sweights-A", "cow")
    warmup_events: int = 2000
    data_seed_base: int = 7_000_000

    unit = "pipeline call"

    @property
    def events_per_unit(self) -> int:
        return self.n_events

    def _write_sample(self, workdir: str, tag: str, n: int, seed: int) -> str:
        ds = generate(ToySpec(study="simple", n_events=n, z=self.z, seed=seed))
        path = os.path.join(workdir, f"{tag}.csv")
        cli.write_csv(path, ["m", "t"], ds.data)
        return path

    def _configs(self, workdir: str, tag: str, data: str) -> List[str]:
        paths = []
        for method in self.methods:
            stem = os.path.join(workdir, f"{tag}-{method}")
            cfg = {"data": data, "model": SIMPLE_MODEL, "method": method,
                   "control_model": CONTROL_MODEL,
                   "out_weights": stem + "-weights.csv",
                   "out_summary": stem + "-summary.json"}
            if method == "cow":
                cfg["cow"] = {"variance": "mixture"}
            with open(stem + ".json", "w") as fh:
                json.dump(cfg, fh)
            paths.append(stem + ".json")
        return paths

    def setup(self, workdir: str, seed: int) -> List[List[str]]:
        """Write the sample and configs; warm up on a small sample.

        Returns the cycle of argument lists for ``cowlib.cli.main``.
        """
        data = self._write_sample(workdir, "data", self.n_events, self.data_seed_base + seed)
        small = self._write_sample(workdir, "warmup", self.warmup_events,
                                   self.data_seed_base - 1 - seed)
        for path in self._configs(workdir, "warmup", small):
            rc = cli.main(["pipeline", "--config", path])
            if rc != 0:
                raise RuntimeError(f"warm-up pipeline call {path} exited {rc}")
        return [["pipeline", "--config", p] for p in self._configs(workdir, "run", data)]

    def check(self, argv: List[str], rc: Optional[int]) -> OpResult:
        problems = check_pipeline_output(argv[-1], rc, self.n_events)
        return OpResult(attempted=1, failed=int(bool(problems)), problems=problems)


def check_pipeline_output(config_path: str, rc: Optional[int], n_events: int) -> List[str]:
    """Problems with one pipeline call's outputs; empty when they are correct.

    The weight sum must reproduce the fitted signal yield (the per-event-sum
    identity), the corrected error must be finite and the slope within five
    corrected errors of the truth, and the weights file must hold one row
    per event.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
        with open(cfg["out_summary"]) as fh:
            summary = json.load(fh)
        with open(cfg["out_weights"], "rb") as fh:
            header = fh.readline()
            rows = sum(1 for _ in fh)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    try:
        n_s = float(summary["m_fit"]["params"][0])
        sum_w = float(summary["sum_w"])
        sigma = float(summary["sigma_corrected"])
        slope = float(summary["t_fit"]["params"][0])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"summary lacks a field: {exc}"]
    if summary.get("method") != cfg["method"]:
        problems.append(f"summary method {summary.get('method')!r} != {cfg['method']!r}")
    if not (n_s > 0 and abs(sum_w - n_s) / n_s < 1e-9):
        problems.append(f"sum_w {sum_w!r} does not reproduce N_s {n_s!r}")
    if not (math.isfinite(sigma) and sigma > 0):
        problems.append(f"sigma_corrected {sigma!r} is not a finite positive number")
    elif not abs(slope - TRUE_SLOPE) < 5 * sigma:
        problems.append(f"slope {slope!r} is more than 5 sigma from {TRUE_SLOPE}")
    if not header.startswith(b"m,t,w_"):
        problems.append(f"weights header {header[:40]!r}")
    if rows != n_events:
        problems.append(f"weights file has {rows} rows, expected {n_events}")
    return problems


# ---------------------------------------------------------------------------
# toy ensembles


SIMPLE_METHODS = [
    {"name": "swB", "kind": "sweights", "variant": "B"},
    {"name": "swA", "kind": "sweights", "variant": "A"},
    {"name": "swCi", "kind": "sweights", "variant": "Ci", "fit_shapes": True},
    {"name": "cowmix", "kind": "cow", "variance": "mixture"},
]
NONFACT_METHODS = [{"name": "swB", "kind": "sweights", "variant": "B", "correction": "fixed"}] + [
    {"name": f"cow{order}", "kind": "cow", "variance": "qm", "qm_bins": 50, "poly_order": order}
    for order in (1, 3, 5)]


@dataclass
class ToysWorkload:
    """``cowlib toys --jobs 1`` over a fixed block of toy seeds.

    The seed selects one of ``n_blocks`` blocks of ``block`` consecutive toy
    seeds.  The reference file holds every toy of every block as recorded
    at commit 1ed1761, failed methods included, and marks the toy methods
    whose outcome changes when the numerics change (see make_reference.py).
    """

    name: str
    toy: dict
    methods: List[dict]
    base_seed: int
    block: int
    n_blocks: int = 16
    reference: dict = field(default_factory=dict, repr=False)

    unit = "toy"

    @property
    def events_per_unit(self) -> int:
        return int(self.toy["n_events"])

    @property
    def reference_path(self) -> str:
        return os.path.join(REFERENCE_DIR, f"{self.name}.json.gz")

    def block_start(self, seed: int) -> int:
        return self.base_seed + (seed % self.n_blocks) * self.block

    def config(self, base_seed: int, n_toys: int, out: str) -> dict:
        return {"toy": self.toy, "methods": self.methods, "n_toys": n_toys,
                "base_seed": base_seed, "jobs": 1, "out": out}

    def setup(self, workdir: str, seed: int) -> List[List[str]]:
        self.reference = load_reference(self.reference_path)
        start = self.block_start(seed)
        missing = [s for s in (start, start + self.block - 1)
                   if str(s) not in self.reference["toys"]]
        if missing:
            raise RuntimeError(f"{self.reference_path} lacks toy seeds {missing}")
        warm = os.path.join(workdir, "warmup.json")
        with open(warm, "w") as fh:
            json.dump(self.config(self.base_seed - 1, 1, os.path.join(workdir, "warmup-report.json")), fh)
        rc = cli.main(["toys", "--config", warm, "--jobs", "1"])
        if rc != 0:
            raise RuntimeError(f"warm-up toys call exited {rc}")
        path = os.path.join(workdir, "toys.json")
        with open(path, "w") as fh:
            json.dump(self.config(start, self.block, os.path.join(workdir, "report.json")), fh)
        return [["toys", "--config", path, "--jobs", "1"]]

    def check(self, argv: List[str], rc: Optional[int]) -> OpResult:
        with open(argv[2]) as fh:
            cfg = json.load(fh)
        attempted = cfg["n_toys"] * len(self.methods)
        if rc != 0:
            return OpResult(attempted, attempted, [f"exit code {rc}"])
        try:
            with open(cfg["out"]) as fh:
                report = json.load(fh)["report"]
        except (OSError, ValueError, KeyError) as exc:
            return OpResult(attempted, attempted, [f"unreadable report: {exc}"])
        seeds = [r.get("seed") for r in report.get("records", [])]
        if not report.get("valid") or seeds != list(range(cfg["base_seed"],
                                                          cfg["base_seed"] + cfg["n_toys"])):
            return OpResult(attempted, attempted, ["report is invalid or lacks toys"])
        return check_toy_report(report, self.reference, self.methods)


def _rounded(value) -> float:
    try:
        return float(f"{float(value):.{REFERENCE_DIGITS}g}")
    except (TypeError, ValueError):
        return math.nan


def summarize_record(record: dict, methods: List[dict]) -> dict:
    """Per-method outcome of one toy: [estimate, sigma_corr] or the error text."""
    out = {}
    for m in methods:
        res = record.get("methods", {}).get(m["name"])
        if res is None:
            out[m["name"]] = record.get("error", "not run")
        elif res.get("ok"):
            out[m["name"]] = [_rounded(res.get("estimate")), _rounded(res.get("sigma_corr"))]
        else:
            out[m["name"]] = res.get("error", "failed")
    return out


def agrees(got, ref) -> bool:
    """Whether a method outcome matches the reference's: both failed, or
    estimate and corrected error both within REFERENCE_TOL_SIGMA."""
    if isinstance(got, str) or isinstance(ref, str):
        return isinstance(got, str) and isinstance(ref, str)
    tol = REFERENCE_TOL_SIGMA * ref[1]
    return abs(got[0] - ref[0]) <= tol and abs(got[1] - ref[1]) <= tol


def check_toy_report(report: dict, reference: dict, methods: List[dict]) -> OpResult:
    """Compare an ensemble report toy by toy with the reference.

    A method that fails where the reference records a failure is correct
    output.  One that succeeds where the reference failed is correct too if
    its results are finite, and is counted in ``recovered``.  Where the
    reference marks a toy's method unstable, any failure or finite result is
    correct, and is counted in ``unstable``.  Any other failure, or results
    outside REFERENCE_TOL_SIGMA, fail that method run.
    """
    records = report.get("records", [])
    out = OpResult(attempted=len(records) * len(methods), failed=0)
    for record in records:
        seed = str(record.get("seed"))
        ref = reference["toys"].get(seed, {})
        unstable = reference["unstable"].get(seed, [])
        got = summarize_record(record, methods)
        for m in methods:
            name, g, r = m["name"], got[m["name"]], ref.get(m["name"])
            if isinstance(g, str):
                out.method_failures[g] = out.method_failures.get(g, 0) + 1
            usable = isinstance(g, str) or (math.isfinite(g[0]) and math.isfinite(g[1])
                                             and g[1] > 0)
            if r is not None and name in unstable and usable:
                out.unstable += 1
            elif isinstance(r, str) and not isinstance(g, str) and usable:
                out.recovered += 1
            elif r is None or not agrees(g, r):
                out.failed += 1
                if len(out.problems) < 20:
                    out.problems.append(f"toy seed {seed} {name}: got {g!r}, reference {r!r}")
    return out


def load_reference(path: str) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


WORKLOADS = {
    "pipeline-large": PipelineWorkload(),
    "toys-simple": ToysWorkload(
        name="toys-simple",
        toy={"study": "simple", "n_events": 2000, "z": 0.2},
        methods=SIMPLE_METHODS, base_seed=1000, block=140),
    "toys-nonfact": ToysWorkload(
        name="toys-nonfact",
        toy={"study": "nonfactorising", "n_events": 2000, "z": 0.5, "efficiency": True},
        methods=NONFACT_METHODS, base_seed=20260824, block=80),
}
