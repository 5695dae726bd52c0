"""Property test over whole configs: a valid config of any subcommand with any
JSON value put at one to three of its paths makes ``cli.main`` return an exit
code in 0-3, never raise."""

import contextlib
import copy
import dataclasses
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cowlib import cli, toygen
from cowlib.toygen import ToySpec, generate_simple
from conftest import JSON_VALUES

N_EVENTS = 300
GS = {"kind": "normal", "params": [0.5, 0.08], "label": "s"}
GB = {"kind": "exponential", "params": [1.0], "label": "b"}
MODEL = {"support": [0.0, 1.0], "components": [GS, GB], "yields": [90.0, 210.0]}
CONTROL = {"kind": "exponential", "params": [1.5], "support": [0.0, 3.0]}

# valid configs, file names relative to the directory the test runs in
BASE = {
    "fit": {"data": "data.csv", "model": MODEL, "out": "fit.json"},
    "sweights": {"data": "data.csv", "model": MODEL, "variant": "B",
                 "out_weights": "w.csv", "out_summary": "s.json"},
    "cow": {"data": "data.csv", "support": [0.0, 1.0], "basis": [GS, GB],
            "variance": "qm", "qm_bins": 20, "efficiency": "eff.json",
            "out_weights": "w.csv", "out_summary": "s.json"},
    "correct": {"data": "data.csv", "weights": "weights.csv", "weight_column": "w_s",
                "control_model": CONTROL, "out": "c.json"},
    "check-independence": {"data": "data.csv", "x": "m", "y": "t", "out": "k.json"},
    "toys": {"toy": {"study": "nonfactorising", "n_events": N_EVENTS, "z": 0.3,
                     "efficiency": True, "seed": 1, "params": {"bkg_slope_t": 0.5}},
             "methods": [{"name": "swB", "kind": "sweights", "variant": "B"},
                         {"name": "cow", "kind": "cow", "variance": "qm", "qm_bins": 10,
                          "poly_order": 1}],
             "n_toys": 2, "base_seed": 3, "jobs": 1, "out": "r.json",
             "export_dataset": "toy.csv"},
    "pipeline": {"data": "data.csv", "model": MODEL, "method": "cow",
                 "cow": {"variance": "qm", "qm_bins": 20, "poly_order": 1,
                         "efficiency": "eff.json"},
                 "control_model": CONTROL, "out_weights": "w.csv",
                 "out_covariance": "v.json", "out_summary": "s.json"},
}

DEFAULTS = {"fit": cli.FIT_DEFAULTS, "sweights": cli.SWEIGHTS_DEFAULTS,
            "cow": cli.COW_DEFAULTS, "correct": cli.CORRECT_DEFAULTS,
            "check-independence": cli.CHECK_DEFAULTS, "toys": cli.TOYS_DEFAULTS,
            "pipeline": cli.PIPELINE_DEFAULTS}


def config_paths(command):
    """Every top-level key of the subcommand, and every key or index below
    the top level of its base config."""
    out = [(key,) for key in DEFAULTS[command]]

    def walk(obj, prefix):
        items = (obj.items() if isinstance(obj, dict)
                 else enumerate(obj) if isinstance(obj, list) else ())
        for key, val in items:
            out.append(prefix + (key,))
            walk(val, prefix + (key,))

    for key, val in BASE[command].items():
        walk(val, (key,))
    return out


def replaced(cfg, changes):
    """``cfg`` with each (path, value) set in turn; a path that an earlier
    change cut off is skipped."""
    cfg = copy.deepcopy(cfg)
    for path, value in changes:
        parent = cfg
        try:
            for key in path[:-1]:
                parent = parent[key]
        except (KeyError, IndexError, TypeError):
            continue
        key = path[-1]
        if isinstance(parent, dict) or (isinstance(parent, list) and isinstance(key, int)
                                        and key < len(parent)):
            parent[key] = value
    return cfg


def first_toy_only(config):
    """The ensemble cut to its first toy, so a drawn count stays cheap."""
    return toygen.run_ensemble(dataclasses.replace(config, n_toys=1, jobs=1))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    ds = generate_simple(ToySpec(study="simple", n_events=N_EVENTS, z=0.3, seed=77))
    cli.write_csv(str(path / "data.csv"), ["m", "t"], ds.data)
    cli.write_csv(str(path / "weights.csv"), ["w_s"], (ds.labels == 0).astype(float)[:, None])
    (path / "eff.json").write_text(json.dumps(
        {"m_edges": [0.0, 0.5, 1.0], "t_edges": [0.0, 3.0], "values": [[0.5], [0.8]]}))
    return path


CASES = st.sampled_from(list(BASE)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.lists(st.tuples(st.sampled_from(config_paths(command)), JSON_VALUES),
             min_size=1, max_size=3)))
HISTOGRAM = {"kind": "histogram", "support": [0, 3], "edges": [0, 1, 2, 3], "contents": [3, 2, 1]}


# the examples ended in a traceback before the config checks were shared
@example(case=("fit", [(("model", "support"), [[0, 1], 1])]))
@example(case=("sweights", [(("model", "components", 0, "params"), [[0.5, 0.08]])]))
@example(case=("cow", [(("basis", 0, "params"), [[0.5, 0.08]])]))
@example(case=("pipeline", [(("model", "components", 0, "params"), [[0.5, 0.08]])]))
@example(case=("correct", [(("control_model",), HISTOGRAM)]))
@example(case=("pipeline", [(("control_model",), HISTOGRAM)]))
@example(case=("toys", [(("toy", "params", "bkg_slope_t"), "x")]))
@example(case=("toys", [(("toy", "params", "bkg_slope_t"), [1, 2])]))
@example(case=("toys", [(("methods", 1, "name"), None)]))
@example(case=("toys", [(("jobs",), math.inf)]))
@example(case=("check-independence", [(("data",), "\0")]))
@settings(max_examples=250)
@given(case=CASES)
def test_any_json_at_any_path_exits_0_to_3(workdir, case):
    command, changes = case
    cfg = replaced(BASE[command], changes)
    err = io.StringIO()
    with contextlib.chdir(workdir), mock.patch.object(cli, "run_ensemble", first_toy_only), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with open("config.json", "w") as fh:
            json.dump(cfg, fh)
        rc = cli.main([command, "--config", "config.json"])
    assert rc in (0, 1, 2, 3)
    if rc == 1:
        assert err.getvalue().startswith("error:")


@pytest.mark.parametrize("command", list(BASE))
def test_base_config_runs(workdir, command, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli, "run_ensemble", first_toy_only)
    with open("config.json", "w") as fh:
        json.dump(BASE[command], fh)
    assert cli.main([command, "--config", "config.json"]) == 0
