"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric declared in BENCHMARK.json is emitted with its
unit, that the traced run wraps every binding of every traced function,
that corrupted outputs trip the correctness checks, and that the benchmark
refuses to run without the cowlib source.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = {
    "pipeline-large": {"n_events": 3000, "warmup_events": 500},
    "toys-simple": {"block": 2},
    "toys-nonfact": {"block": 2},
}


@pytest.fixture
def tiny(monkeypatch):
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workloads.WORKLOADS[name], **sizes))


def run_bench(capsys, workload, trace, seed=3):
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(tiny, capsys, workload, trace):
    detail, result = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas_threads", "git_sha"):
        assert key in detail["machine"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_tracer_wraps_every_binding():
    import cowlib  # noqa: F401  (loads every module)

    originals = {}
    for name, module, attr in tracer.SPANS:
        owner = sys.modules[module]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        originals[(name, module, attr)] = (owner, getattr(owner, attr))
    t = tracer.Tracer()
    t.install()
    try:
        for (name, _, attr), (owner, original) in originals.items():
            assert getattr(owner, attr) is not original, name
            for mod in tracer.cowlib_modules():
                assert all(v is not original for v in vars(mod).values()), (name, mod)
    finally:
        t.uninstall()
    for (name, _, attr), (owner, original) in originals.items():
        assert getattr(owner, attr) is original, name


def test_corrupted_pipeline_output_fails_check(tiny, tmp_path):
    import cowlib.cli

    wl = dataclasses.replace(workloads.WORKLOADS["pipeline-large"])
    argv = wl.setup(str(tmp_path), seed=5)[0]
    rc = cowlib.cli.main(argv)
    assert wl.check(argv, rc).failed == 0
    assert wl.check(argv, 2).failed == 1

    with open(argv[-1]) as fh:
        cfg = json.load(fh)
    with open(cfg["out_summary"]) as fh:
        summary = json.load(fh)
    good = json.dumps(summary)
    summary["sum_w"] *= 1 + 1e-7
    with open(cfg["out_summary"], "w") as fh:
        json.dump(summary, fh)
    assert wl.check(argv, 0).failed == 1

    with open(cfg["out_summary"], "w") as fh:
        fh.write(good)
    with open(cfg["out_weights"]) as fh:
        rows = fh.readlines()
    with open(cfg["out_weights"], "w") as fh:
        fh.writelines(rows[:-1])
    assert wl.check(argv, 0).failed == 1


def test_corrupted_toy_report_fails_check(tiny, tmp_path):
    import cowlib.cli

    wl = dataclasses.replace(workloads.WORKLOADS["toys-simple"])
    argv = wl.setup(str(tmp_path), seed=0)[0]
    rc = cowlib.cli.main(argv)
    assert wl.check(argv, rc).failed == 0

    with open(argv[2]) as fh:
        out = json.load(fh)["out"]
    with open(out) as fh:
        report = json.load(fh)
    record = report["report"]["records"][0]
    tol = workloads.REFERENCE_TOL_SIGMA
    swb, swci = record["methods"]["swB"], record["methods"]["swCi"]
    swb["estimate"] += 3 * tol * swb["sigma_corr"]
    swci["sigma_corr"] *= 1 + tol / 2
    record["methods"]["swA"] = {"ok": False, "error": "injected"}
    with open(out, "w") as fh:
        json.dump(report, fh)
    res = wl.check(argv, 0)
    assert (res.failed, res.recovered) == (2, 0)
    assert res.method_failures == {"injected": 1}

    # a method that succeeds where the reference failed is accepted and counted
    seed = str(record["seed"])
    wl.reference["toys"][seed]["cowmix"] = "m fit did not converge"
    res = wl.check(argv, 0)
    assert (res.failed, res.recovered) == (2, 1)

    # where the reference marks a method unstable, any finite result is accepted
    wl.reference["unstable"][seed] = ["swB"]
    res = wl.check(argv, 0)
    assert (res.failed, res.recovered, res.unstable) == (1, 1, 1)

    # but not a non-finite one
    record["methods"]["cowmix"]["sigma_corr"] = float("nan")
    swb["estimate"] = float("inf")
    with open(out, "w") as fh:
        json.dump(report, fh)
    assert wl.check(argv, 0).failed == 3


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "toys-simple", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
