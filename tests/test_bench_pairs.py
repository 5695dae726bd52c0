"""scripts/bench_pairs.py: the summary of alternating benchmark pairs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher"}, {"name": "op_s_p50", "better": "lower"}]


def pair(workload, seed, parent, change):
    side = lambda ops: {"metrics": {"ops_per_s": ops, "op_s_p50": 1.0 / ops},
                        "attempted": 4, "failed": 0}
    return {"workload": workload, "seed": seed, "first": "parent" if seed % 2 else "change",
            "parent": side(parent), "change": side(change)}


def test_summary_of_synthetic_pairs():
    parent = [40.0, 50.0, 45.0, 55.0, 60.0]
    change = [44.0, 49.0, 50.0, 61.0, 66.0]          # wins 4 of 5
    pairs = [pair("toys", s + 1, p, c) for s, (p, c) in enumerate(zip(parent, change))]
    pairs.append(pair("other", 1, 10.0, 10.0))        # a tie is no win
    summary = bench_pairs.summarize(pairs, METRICS)
    assert list(summary) == ["toys", "other"]
    ops = summary["toys"]["ops_per_s"]
    assert ops == {"better": "higher", "pairs": 5, "change_wins": 4,
                   "parent_median": 50.0, "parent_q1": 45.0, "parent_q3": 55.0,
                   "change_median": 50.0, "change_q1": 49.0, "change_q3": 61.0,
                   "change_over_parent": 1.0}
    # a lower-is-better metric counts the same pairs as wins
    assert summary["toys"]["op_s_p50"]["change_wins"] == 4
    assert summary["toys"]["op_s_p50"]["parent_median"] == pytest.approx(1 / 50.0)
    assert summary["other"]["ops_per_s"]["change_wins"] == 0
    assert summary["other"]["ops_per_s"]["parent_q1"] == 10.0


def test_sides_alternate_and_the_report_has_the_layout(tmp_path, monkeypatch):
    parent, change = str(tmp_path / "parent"), tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w1"}, {"name": "w2"}], "end_to_end": METRICS}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "parent" if checkout == parent else "change"
        calls.append((side, workload, seed))
        ops = 2.0 if side == "change" else 1.0
        return {"metrics": {"ops_per_s": ops, "op_s_p50": 1 / ops}, "attempted": 3,
                "failed": 0, "machine": {"nproc": 2, "git_sha": side + "-sha"}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    out = tmp_path / "bench.json"
    bench_pairs.main([parent, str(change), "--pairs", "2", "--seconds", "1", "--out", str(out)])
    assert calls == [("parent", "w1", 1), ("change", "w1", 1), ("parent", "w2", 1),
                     ("change", "w2", 1), ("change", "w1", 2), ("parent", "w1", 2),
                     ("change", "w2", 2), ("parent", "w2", 2)]
    report = json.loads(out.read_text())
    assert report["parent"] == "parent-sha" and report["machine"] == {"nproc": 2}
    assert [p["first"] for p in report["pairs"]] == ["parent", "parent", "change", "change"]
    assert report["summary"]["w2"]["ops_per_s"]["change_wins"] == 2
    assert "machine" not in report["pairs"][0]["change"]
