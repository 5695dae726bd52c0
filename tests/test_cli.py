"""End-to-end command-line interface tests (run in-process)."""

import dataclasses
import json

import numpy as np
import pytest

from cowlib import Density1D, Interval, cli, methods
from cowlib.methods import MAX_POLY_ORDER
from cowlib.toygen import ToySpec, generate_simple

GS_CFG = {"kind": "normal", "params": [0.5, 0.08], "label": "s"}
GB_CFG = {"kind": "exponential", "params": [1.0], "label": "b"}
MODEL_CFG = {"support": [0.0, 1.0], "components": [GS_CFG, GB_CFG],
             "yields": [600.0, 1400.0]}
CONTROL_CFG = {"kind": "exponential", "params": [1.5], "support": [0.0, 3.0]}


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    ds = generate_simple(ToySpec(study="simple", n_events=2000, z=0.3, seed=77))
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    cli.write_csv(str(path), ["m", "t"], ds.data)
    return str(path)


# a third, narrow peak in m next to the signal and background of MODEL_CFG
GP_CFG = {"kind": "normal", "params": [0.25, 0.03], "label": "p"}
MODEL3_CFG = {"support": [0.0, 1.0], "components": [GS_CFG, GB_CFG, GP_CFG],
              "yields": [500.0, 2000.0, 750.0]}


@pytest.fixture(scope="module")
def three_component_csv(tmp_path_factory):
    """2500 simple-study events plus 750 of the peak GP_CFG, normal in t."""
    ds = generate_simple(ToySpec(study="simple", n_events=2500, seed=11))
    u = np.random.default_rng(3).random((750, 2))
    peak = np.column_stack([Density1D("normal", [0.25, 0.03], Interval(0, 1)).ppf(u[:, 0]),
                            Density1D("normal", [1.0, 0.3], Interval(0, 3)).ppf(u[:, 1])])
    path = tmp_path_factory.mktemp("data") / "three.csv"
    cli.write_csv(str(path), ["m", "t"], np.vstack([ds.data, peak]))
    return str(path)


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestInputErrors:
    def test_missing_config_file(self, capsys):
        assert cli.main(["fit", "--config", "/no/such/file.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": str(tmp_path / "absent.csv"),
                         "model": MODEL_CFG})
        assert cli.main(["fit", "--config", cfg]) == 1

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("m,t\n0.5,1.0\n0.6,oops\n")
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": str(bad), "model": MODEL_CFG})
        assert cli.main(["fit", "--config", cfg]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, data_csv, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": data_csv, "model": MODEL_CFG, "bogus": 1})
        assert cli.main(["fit", "--config", cfg]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_pipeline_rejects_classic_weights_with_efficiency(self, tmp_path,
                                                              data_csv,
                                                              capsys):
        eff = write_cfg(tmp_path, "eff.json",
                        {"m_edges": [0.0, 1.0], "t_edges": [0.0, 3.0],
                         "values": [[0.5]]})
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": data_csv, "model": MODEL_CFG,
                         "method": "sweights-B", "control_model": CONTROL_CFG,
                         "cow": {"efficiency": eff}})
        assert cli.main(["pipeline", "--config", cfg]) == 1
        assert "efficiency" in capsys.readouterr().err

    @pytest.mark.parametrize("command,out_key", [
        ("pipeline", "out_weights"), ("pipeline", "out_summary"),
        ("sweights", "out_weights"), ("sweights", "out_summary")])
    def test_unwritable_output_path(self, tmp_path, data_csv, capsys,
                                    command, out_key):
        cfg = {"data": data_csv, "model": MODEL_CFG,
               "out_weights": str(tmp_path / "w.csv"),
               "out_summary": str(tmp_path / "s.json")}
        if command == "pipeline":
            cfg.update(method="sweights-B", control_model=CONTROL_CFG)
        cfg[out_key] = str(tmp_path / "no" / "such" / "dir" / "out")
        path = write_cfg(tmp_path, "c.json", cfg)
        assert cli.main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert "Traceback" not in err


class TestNumericalFailures:
    def test_duplicate_cow_basis(self, tmp_path, data_csv, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": data_csv, "support": [0.0, 1.0],
                         "basis": [GS_CFG, GS_CFG]})
        assert cli.main(["cow", "--config", cfg]) == 2

    def test_invalid_ensemble(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "toy": {"study": "simple", "n_events": 300, "z": 0.3},
            "methods": [{"name": "c", "kind": "cow", "poly_order": 25}],
            "n_toys": 2, "out": str(tmp_path / "r.json")})
        assert cli.main(["toys", "--config", cfg]) == 3


class TestEchoAndSeeds:
    def test_echo_idempotent(self, tmp_path, data_csv, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": data_csv, "model": MODEL_CFG})
        assert cli.main(["fit", "--config", cfg, "--echo"]) == 0
        first = capsys.readouterr().out
        cfg2 = tmp_path / "resolved.json"
        cfg2.write_text(first)
        assert cli.main(["fit", "--config", str(cfg2), "--echo"]) == 0
        assert capsys.readouterr().out == first

    def test_seed_env_override(self, tmp_path, data_csv, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": data_csv, "model": MODEL_CFG, "seed": 1})
        monkeypatch.setenv("COWLIB_SEED", "42")
        assert cli.main(["fit", "--config", cfg, "--echo"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 42

    def test_bad_seed_env(self, tmp_path, data_csv, monkeypatch):
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": data_csv, "model": MODEL_CFG})
        monkeypatch.setenv("COWLIB_SEED", "not-an-int")
        assert cli.main(["fit", "--config", cfg]) == 1


class TestHappyPaths:
    def test_fit(self, tmp_path, data_csv):
        out = tmp_path / "fit.json"
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": data_csv, "model": MODEL_CFG,
                         "out": str(out)})
        assert cli.main(["fit", "--config", cfg]) == 0
        res = json.loads(out.read_text())
        assert res["fit"]["converged"]
        assert res["fit"]["params"][0] + res["fit"]["params"][1] == pytest.approx(
            2000.0, rel=1e-9)
        assert "config_hash" in res

    def test_sweights_then_correct(self, tmp_path, data_csv):
        wcsv = tmp_path / "w.csv"
        ssum = tmp_path / "s.json"
        cfg = write_cfg(tmp_path, "sw.json",
                        {"data": data_csv, "model": MODEL_CFG, "variant": "B",
                         "out_weights": str(wcsv), "out_summary": str(ssum)})
        assert cli.main(["sweights", "--config", cfg]) == 0
        summary = json.loads(ssum.read_text())
        assert summary["sum_w_s"] == pytest.approx(
            summary["fit"]["params"][0], rel=1e-10)

        out = tmp_path / "corr.json"
        ccfg = write_cfg(tmp_path, "corr.json",
                         {"data": data_csv, "weights": str(wcsv),
                          "weight_column": "w_s",
                          "control_model": CONTROL_CFG, "out": str(out)})
        assert cli.main(["correct", "--config", ccfg]) == 0
        res = json.loads(out.read_text())
        assert res["fit"]["converged"]
        assert res["n_equivalent"] > 0
        assert res["sum_w"] == pytest.approx(summary["sum_w_s"], rel=1e-12)

    def test_pipeline_reports_the_nested_refit(self, tmp_path):
        # toy seed 1015: the free-shape fit is refitted from the fixed-shape
        # optimum, which the summary's m fit flags; its weights still sum to
        # the fitted signal yield
        ds = generate_simple(ToySpec(study="simple", n_events=2000, z=0.2, seed=1015))
        data = tmp_path / "toy.csv"
        cli.write_csv(str(data), ["m", "t"], ds.data)
        free = [{**c, "free_shape": True} for c in (GS_CFG, GB_CFG)]
        out = tmp_path / "s.json"
        cfg = {"data": str(data), "model": {"support": [0.0, 1.0], "components": free},
               "control_model": CONTROL_CFG, "out_summary": str(out)}
        assert cli.main(["pipeline", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
        res = json.loads(out.read_text())
        assert res["m_fit"]["converged"] and res["m_fit"]["flags"] == ["nested_refit"]
        assert res["sum_w"] == pytest.approx(res["m_fit"]["params"][0], rel=1e-9)

    @pytest.mark.parametrize("command", ["pipeline-sweights-B", "pipeline-cow", "correct"])
    def test_fit_covariance_is_the_naive_covariance(self, tmp_path, data_csv, command):
        # the weighted fit and the correction invert one weighted Hessian
        out = tmp_path / "out.json"
        if command == "correct":
            wcsv = tmp_path / "w.csv"
            w = np.linspace(-0.2, 1.0, 2000)
            cli.write_csv(str(wcsv), ["w_s"], w[:, None])
            cfg = {"data": data_csv, "weights": str(wcsv), "control_model": CONTROL_CFG,
                   "out": str(out)}
        else:
            cfg = {"data": data_csv, "model": MODEL_CFG, "control_model": CONTROL_CFG,
                   "method": command[len("pipeline-"):], "out_summary": str(out),
                   "out_covariance": str(tmp_path / "cov.json")}
        name = command.split("-")[0]
        assert cli.main([name, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
        res = json.loads(out.read_text())
        if command == "correct":
            fit_cov, naive = res["fit"]["cov"], res["covariance"]["naive"]
        else:
            fit_cov = res["t_fit"]["cov"]
            naive = json.loads((tmp_path / "cov.json").read_text())["covariance"]["naive"]
        assert fit_cov == naive

    @pytest.mark.parametrize("method,rtol", [
        ("sweights-A", 1e-9), ("sweights-B", 1e-9), ("sweights-Ci", 1e-6),
        ("sweights-Cii", 1e-6), ("cow", 1e-9)])
    def test_pipeline_three_components(self, tmp_path, three_component_csv, method, rtol):
        # every component's shape enters the weights, so the signal weights
        # sum to the fitted signal yield and the slope fit finds the truth
        out = tmp_path / "s.json"
        cfg = {"data": three_component_csv, "model": MODEL3_CFG, "method": method,
               "control_model": CONTROL_CFG, "out_summary": str(out)}
        assert cli.main(["pipeline", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
        res = json.loads(out.read_text())
        sigma = res["sigma_corrected"]
        assert np.isfinite(sigma) and sigma > 0
        assert abs(res["t_fit"]["params"][0] - 2.0) < 5 * sigma
        assert res["sum_w"] == pytest.approx(res["m_fit"]["params"][0], rel=rtol)

    def test_cow(self, tmp_path, data_csv):
        ssum = tmp_path / "cow.json"
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": data_csv, "support": [0.0, 1.0],
                         "basis": [GS_CFG, GB_CFG], "variance": "unity",
                         "out_summary": str(ssum)})
        assert cli.main(["cow", "--config", cfg]) == 0
        res = json.loads(ssum.read_text())
        assert np.asarray(res["W"]).shape == (2, 2)
        assert len(res["sum_w"]) == 2

    def test_check_independence_monotone(self, tmp_path):
        csv_path = tmp_path / "mono.csv"
        x = np.linspace(0, 1, 50)
        cli.write_csv(str(csv_path), ["m", "t"], np.column_stack([x, x ** 2]))
        out = tmp_path / "tau.json"
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": str(csv_path), "out": str(out)})
        assert cli.main(["check-independence", "--config", cfg]) == 0
        res = json.loads(out.read_text())
        assert res["report"]["tau"] == 1.0

    def test_toys_single(self, tmp_path):
        out = tmp_path / "toys.json"
        cfg = write_cfg(tmp_path, "c.json", {
            "toy": {"study": "simple", "n_events": 500, "z": 0.3},
            "methods": [{"name": "swB", "kind": "sweights", "variant": "B",
                         "correction": "none"}],
            "n_toys": 1, "base_seed": 11, "out": str(out)})
        assert cli.main(["toys", "--config", cfg]) == 0
        res = json.loads(out.read_text())
        assert res["report"]["valid"]
        assert res["report"]["aggregates"]["swB"]["n_ok"] == 1

    def test_pipeline_reruns_bit_identical(self, tmp_path, data_csv):
        summary = tmp_path / "sum.json"
        weights = tmp_path / "w.csv"
        cfg = write_cfg(tmp_path, "p.json",
                        {"data": data_csv, "model": MODEL_CFG,
                         "method": "sweights-B",
                         "control_model": CONTROL_CFG,
                         "out_summary": str(summary),
                         "out_weights": str(weights)})

        def run():
            assert cli.main(["pipeline", "--config", cfg]) == 0
            return summary.read_text(), weights.read_text()

        s1, w1 = run()
        s2, w2 = run()
        assert s1 == s2
        assert w1 == w2
        res = json.loads(s1)
        # the per-event-sum identity survives the whole pipeline
        assert res["sum_w"] == pytest.approx(res["m_fit"]["params"][0],
                                             rel=1e-10)
        assert res["sigma_corrected"] < res["sigma_naive"] * 5
        assert res["kendall_tau"]["n"] == 2000


class TestOneColumnData:
    @pytest.fixture
    def one_column_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        m = np.linspace(0.01, 0.99, 200)
        cli.write_csv(str(path), ["m"], m[:, None])
        return str(path)

    @pytest.mark.parametrize("variance", ["unity", "mixture", "qm"])
    def test_cow_with_efficiency_rejected(self, tmp_path, one_column_csv,
                                          capsys, variance):
        eff = write_cfg(tmp_path, "eff.json",
                        {"m_edges": [0.0, 1.0], "t_edges": [0.0, 3.0],
                         "values": [[0.5]]})
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": one_column_csv, "support": [0.0, 1.0],
                         "basis": [GS_CFG, GB_CFG], "variance": variance,
                         "efficiency": eff,
                         "out_summary": str(tmp_path / "s.json")})
        assert cli.main(["cow", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "(m, t)" in err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("variance", ["unity", "mixture"])
    def test_cow_without_efficiency_runs(self, tmp_path, one_column_csv,
                                         variance):
        ssum = tmp_path / "s.json"
        cfg = write_cfg(tmp_path, "c.json",
                        {"data": one_column_csv, "support": [0.0, 1.0],
                         "basis": [GS_CFG, GB_CFG], "variance": variance,
                         "out_summary": str(ssum)})
        assert cli.main(["cow", "--config", cfg]) == 0
        assert len(json.loads(ssum.read_text())["sum_w"]) == 2


class TestCowSupport:
    """`cow` rejects an event outside its support before the variance
    function is built, whatever the variance, with the exit code of `fit`."""

    def cow_cfg(self, tmp_path, data, variance):
        path = tmp_path / "d.csv"
        cli.write_csv(str(path), ["m", "t"], data)
        return write_cfg(tmp_path, "c.json", {
            "data": str(path), "support": [0.0, 1.0], "basis": [GS_CFG, GB_CFG],
            "variance": variance, "qm_bins": 5, "out_summary": str(tmp_path / "s.json"),
            "out_weights": str(tmp_path / "w.csv")})

    @pytest.mark.parametrize("variance", ["unity", "qm", "mixture"])
    def test_event_outside_the_support(self, tmp_path, capsys, variance):
        ds = generate_simple(ToySpec(study="simple", n_events=300, z=0.3, seed=5))
        data = np.vstack([ds.data, [[1.5, 1.0]]])
        assert cli.main(["cow", "--config", self.cow_cfg(tmp_path, data, variance)]) == 2
        assert "error: data outside the support" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists() and not (tmp_path / "w.csv").exists()

    def test_qm_without_an_event_inside_the_support(self, tmp_path, capsys, recwarn):
        # the data-range rule answers first: no 0/0 bin contents and no warning
        data = np.column_stack([np.linspace(1.5, 2.5, 40), np.ones(40)])
        assert cli.main(["cow", "--config", self.cow_cfg(tmp_path, data, "qm")]) == 2
        assert "error: data outside the support" in capsys.readouterr().err
        assert not recwarn.list


class TestMethodResolution:
    """The method is resolved from the config before any data or toy."""

    @pytest.mark.parametrize("methods", [
        [{"name": "c", "kind": "cwo"}],
        [{"name": "c", "kind": "cow", "correction": "fixd"}],
        [{"name": "a"}, {"name": "a", "variant": "A"}],
    ], ids=["kind", "correction", "duplicate-name"])
    def test_bad_toys_method_exits_before_any_toy(self, tmp_path, capsys,
                                                  monkeypatch, methods):
        def no_toys(config):
            raise AssertionError("a toy ran")
        monkeypatch.setattr(cli, "run_ensemble", no_toys)
        cfg = write_cfg(tmp_path, "c.json", {
            "toy": {"study": "simple", "n_events": 300, "z": 0.3},
            "methods": methods, "n_toys": 2, "out": str(tmp_path / "r.json")})
        assert cli.main(["toys", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: bad toys config")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command,cfg,named", [
        ("pipeline", {"method": "sweights-X"}, "sweights-X"),
        ("pipeline", {"method": "cow", "cow": {"variance": "qmm"}}, "qmm"),
        ("pipeline", {"method": "sweight-B"}, "sweight-B"),
        ("sweights", {"variant": "X"}, "sweights-X"),
    ])
    def test_bad_method_reported_before_reading_data(self, tmp_path, capsys,
                                                     command, cfg, named):
        cfg = {"data": str(tmp_path / "absent.csv"), "model": MODEL_CFG, **cfg}
        if command == "pipeline":
            cfg["control_model"] = CONTROL_CFG
        path = write_cfg(tmp_path, "c.json", cfg)
        assert cli.main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert named in err
        assert "cannot read" not in err

    @pytest.mark.parametrize("command", ["sweights", "pipeline"])
    def test_cii_on_free_shapes_agrees_with_b(self, tmp_path, data_csv, command):
        free = {**MODEL_CFG, "components": [{**GS_CFG, "free_shape": True},
                                            {**GB_CFG, "free_shape": True}]}
        A = {}
        for variant in ("B", "Cii"):
            out = tmp_path / f"{variant}.json"
            cfg = {"data": data_csv, "model": free, "out_summary": str(out)}
            if command == "pipeline":
                cfg.update(method=f"sweights-{variant}", control_model=CONTROL_CFG)
            else:
                cfg["variant"] = variant
            assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
            A[variant] = np.array(json.loads(out.read_text())["W"]["A"])
        assert np.allclose(A["Cii"], A["B"], rtol=1e-3, atol=0)


class TestConfigValidation:
    """Malformed values exit 1 with an ``error:`` line, not a traceback."""

    @pytest.mark.parametrize("change,named", [
        ({"toy": {"study": "multicomponent", "n_events": 300}}, "multicomponent"),
        ({"n_toys": "x"}, "'x'"), ({"base_seed": "x"}, "'x'")],
        ids=["multicomponent", "n_toys", "base_seed"])
    def test_bad_toys_setting(self, tmp_path, capsys, monkeypatch, change, named):
        def no_toys(config):
            raise AssertionError("a toy ran")
        monkeypatch.setattr(cli, "run_ensemble", no_toys)
        cfg = write_cfg(tmp_path, "c.json", {
            "toy": {"study": "simple", "n_events": 300},
            "methods": [{"name": "swB", "kind": "sweights", "variant": "B"}],
            "n_toys": 1, "out": str(tmp_path / "r.json"), **change})
        assert cli.main(["toys", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad toys config")
        assert named in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("support", [0, 1, 2]), ("support", "0,1"), ("support", [1.0, 0.0]),
        ("n_signal", "x"), ("n_signal", 1.5), ("n_signal", 0),
        ("poly_order", "two"), ("poly_order", -1), ("poly_order", True),
        ("qm_bins", "50"), ("basis", {"kind": "uniform"})])
    def test_malformed_cow_setting(self, tmp_path, data_csv, capsys, key, value):
        cfg = {"data": data_csv, "support": [0.0, 1.0],
               "basis": [GS_CFG, GB_CFG], "variance": "unity",
               "out_summary": str(tmp_path / "s.json"), key: value}
        assert cli.main(["cow", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert key in err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("order", [MAX_POLY_ORDER, MAX_POLY_ORDER + 1])
    @pytest.mark.parametrize("command", ["cow", "pipeline", "toys"])
    def test_poly_order_bound(self, tmp_path, data_csv, capsys, command, order):
        # above the bound the config is rejected; at it, build_cow rejects
        # the ill-conditioned basis (exit 2, or an invalid ensemble: 3)
        if command == "cow":
            cfg = {"data": data_csv, "support": [0.0, 1.0], "basis": [GS_CFG],
                   "variance": "unity", "poly_order": order}
        elif command == "pipeline":
            cfg = {"data": data_csv, "model": MODEL_CFG, "control_model": CONTROL_CFG,
                   "method": "cow", "cow": {"poly_order": order}}
        else:
            cfg = {"toy": {"study": "simple", "n_events": 300, "z": 0.3}, "n_toys": 1,
                   "methods": [{"name": "c", "kind": "cow", "poly_order": order}]}
        cfg["out" if command == "toys" else "out_summary"] = str(tmp_path / "s.json")
        code = cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)])
        err = capsys.readouterr().err
        if order > MAX_POLY_ORDER:
            assert code == 1
            assert err.startswith("error:") and "poly_order" in err
            assert f"must be an integer >= 0 and <= {MAX_POLY_ORDER}, got {order}" in err
            assert not (tmp_path / "s.json").exists()
        elif command == "toys":
            assert code == 3
        else:
            assert code == 2 and "condition number" in err

    def test_integral_float_settings_accepted(self, tmp_path, data_csv):
        ssum = tmp_path / "s.json"
        cfg = {"data": data_csv, "support": [0, 1], "basis": [GS_CFG],
               "variance": "unity", "poly_order": 2.0, "n_signal": 1.0,
               "out_summary": str(ssum)}
        assert cli.main(["cow", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
        assert len(json.loads(ssum.read_text())["sum_w"]) == 4


class TestConfigShape:
    """Configs of the wrong JSON shape exit 1 with an ``error:`` line."""

    @pytest.mark.parametrize("command", ["fit", "sweights", "pipeline",
                                         "correct", "check-independence",
                                         "cow", "toys"])
    @pytest.mark.parametrize("top", [[1, 2], 3, "x", None],
                             ids=["array", "number", "string", "null"])
    def test_top_level_not_an_object(self, tmp_path, capsys, command, top):
        cfg = write_cfg(tmp_path, "c.json", top)
        assert cli.main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "must be a JSON object" in err

    def test_toys_out_override_on_an_array(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", [1, 2])
        assert cli.main(["toys", "--config", cfg,
                         "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("model", ["x", [1, 2], {**MODEL_CFG, "components": "x"},
                                       {**MODEL_CFG, "yields": "x"},
                                       {**MODEL_CFG, "yields": {"a": 1}}],
                             ids=["string", "array", "components", "yields",
                                  "yields-object"])
    @pytest.mark.parametrize("command", ["fit", "sweights", "pipeline"])
    def test_malformed_model(self, tmp_path, data_csv, capsys, command, model):
        cfg = {"data": data_csv, "model": model, "control_model": CONTROL_CFG,
               "out_summary": str(tmp_path / "s.json")}
        if command == "fit":
            cfg = {"data": data_csv, "model": model, "out": str(tmp_path / "s.json")}
        elif command == "sweights":
            del cfg["control_model"]
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "s.json").exists()

    def test_sweights_three_components(self, tmp_path, three_component_csv):
        wcsv, ssum = tmp_path / "w.csv", tmp_path / "s.json"
        cfg = {"data": three_component_csv, "model": MODEL3_CFG,
               "out_weights": str(wcsv), "out_summary": str(ssum)}
        assert cli.main(["sweights", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
        assert wcsv.read_text().splitlines()[0] == "m,t,w_s,w_b,w_b2"
        yields = json.loads(ssum.read_text())["fit"]["params"]
        sums = np.loadtxt(wcsv, delimiter=",", skiprows=1)[:, 2:].sum(axis=0)
        assert np.allclose(sums, yields, rtol=1e-9, atol=0)

    def test_sweights_proportional_components_rejected(self, tmp_path, data_csv, capsys):
        model = {**MODEL_CFG, "components": [GS_CFG, GB_CFG, GB_CFG],
                 "yields": [500.0, 500.0, 1000.0]}
        cfg = {"data": data_csv, "model": model,
               "out_summary": str(tmp_path / "s.json")}
        assert cli.main(["sweights", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: W matrix is singular")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("command,key", [
        ("fit", "data"), ("fit", "out"), ("sweights", "out_weights"),
        ("pipeline", "out_covariance"), ("check-independence", "data"),
        ("correct", "weights"), ("cow", "efficiency"), ("toys", "export_dataset")])
    def test_path_that_is_not_a_string(self, tmp_path, capsys, command, key):
        cfg = write_cfg(tmp_path, "c.json", {key: [1]})
        assert cli.main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{key!r} must be a file path" in err

    def test_pipeline_cow_block_not_an_object(self, tmp_path, data_csv, capsys):
        cfg = {"data": data_csv, "model": MODEL_CFG, "method": "cow",
               "cow": "x", "control_model": CONTROL_CFG}
        assert cli.main(["pipeline", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert "pipeline cow config must be a JSON object" in capsys.readouterr().err

    def test_toy_params_not_an_object(self, tmp_path, capsys):
        cfg = {"toy": {"study": "nonfactorising", "n_events": 100, "params": "x"},
               "methods": [{"name": "swB", "kind": "sweights", "variant": "B"}],
               "out": str(tmp_path / "r.json")}
        assert cli.main(["toys", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: bad toys config")

    @pytest.mark.parametrize("toy", [
        {"study": "nonfactorising", "n_events": 100, "params": {"bkg_slop_t": 5.0}},
        {"study": "simple", "n_events": 100, "params": {"bkg_slope_t": 5.0}}],
        ids=["misspelt", "simple"])
    def test_toy_params_outside_the_study(self, tmp_path, capsys, toy):
        cfg = {"toy": toy, "n_toys": 1,
               "methods": [{"name": "swB", "kind": "sweights", "variant": "B"}],
               "out": str(tmp_path / "r.json")}
        assert cli.main(["toys", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad toys config") and "unknown params" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command,cfg,named", [
        ("pipeline", {"method": "cow", "cow": {"poly_order": 2.5}}, "poly_order"),
        ("pipeline", {"method": "cow", "cow": {"variance": "qm", "qm_bins": "x"}}, "qm_bins"),
        ("toys", {"toy": {"study": "simple", "n_events": 2.5}}, "n_events"),
        ("toys", {"toy": {"study": "simple", "n_events": 300, "seed": 2.5}}, "seed"),
        ("toys", {"toy": {"study": "simple", "n_events": 300},
                  "methods": [{"name": "c", "kind": "cow", "poly_order": True}]}, "poly_order"),
        ("toys", {"toy": {"study": "simple", "n_events": 300}, "n_toys": 2.5}, "n_toys"),
        ("toys", {"toy": {"study": "simple", "n_events": 300}, "jobs": 2.7}, "jobs"),
        ("toys", {"toy": {"study": "simple", "n_events": 300}, "jobs": True}, "jobs"),
        ("toys", {"toy": {"study": "simple", "n_events": 300}, "jobs": "2"}, "jobs")],
        ids=["pipeline-poly_order", "pipeline-qm_bins", "toys-n_events", "toys-seed",
             "toys-method-poly_order", "toys-n_toys", "toys-jobs-float", "toys-jobs-bool",
             "toys-jobs-string"])
    def test_non_integer_field(self, tmp_path, capsys, monkeypatch, command, cfg, named):
        def no_toys(config):
            raise AssertionError("a toy ran")
        monkeypatch.setattr(cli, "run_ensemble", no_toys)
        if command == "pipeline":
            cfg = {"data": str(tmp_path / "absent.csv"), "model": MODEL_CFG,
                   "control_model": CONTROL_CFG, **cfg}
        cfg["out_summary" if command == "pipeline" else "out"] = str(tmp_path / "s.json")
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "integer" in err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("methods", [
        [{"name": "free", "fit_shapes": True}, {"name": "x", "fit_shapes": "x"}],
        [{"name": "free", "fit_shapes": "false"}]], ids=["mixed", "string"])
    def test_fit_shapes_not_a_boolean(self, tmp_path, capsys, monkeypatch, methods):
        def no_toys(config):
            raise AssertionError("a toy ran")
        monkeypatch.setattr(cli, "run_ensemble", no_toys)
        cfg = {"toy": {"study": "simple", "n_events": 300}, "methods": methods,
               "out": str(tmp_path / "r.json")}
        assert cli.main(["toys", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad toys config") and "fit_shapes" in err

    def test_toy_efficiency_not_a_boolean(self, tmp_path, capsys, monkeypatch):
        def no_toys(config):
            raise AssertionError("a toy ran")
        monkeypatch.setattr(cli, "run_ensemble", no_toys)
        cfg = {"toy": {"study": "nonfactorising", "n_events": 300, "efficiency": "no"},
               "out": str(tmp_path / "r.json")}
        assert cli.main(["toys", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad toys config") and "efficiency" in err

    @pytest.mark.parametrize("command", ["fit", "sweights", "pipeline"])
    def test_free_shape_not_a_boolean(self, tmp_path, data_csv, capsys, command):
        model = {**MODEL_CFG, "components": [{**GS_CFG, "free_shape": "false"}, GB_CFG]}
        out = str(tmp_path / "s.json")
        cfg = {"data": data_csv, "model": model}
        if command == "fit":
            cfg["out"] = out
        else:
            cfg["out_summary"] = out
        if command == "pipeline":
            cfg["control_model"] = CONTROL_CFG
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "free_shape" in err
        assert not (tmp_path / "s.json").exists()

    def test_qm_bins_above_the_event_count(self, tmp_path, data_csv, capsys, monkeypatch):
        small = tmp_path / "small.csv"
        ds = generate_simple(ToySpec(study="simple", n_events=50, z=0.3, seed=5))
        cli.write_csv(str(small), ["m", "t"], ds.data)
        out = tmp_path / "s.json"
        cow = {"data": str(small), "support": [0.0, 1.0], "basis": [GS_CFG, GB_CFG],
               "variance": "qm", "qm_bins": 51, "out_summary": str(out)}
        assert cli.main(["cow", "--config", write_cfg(tmp_path, "c.json", cow)]) == 1
        assert "qm_bins 51 exceeds the 50 events" in capsys.readouterr().err
        cow["qm_bins"] = 50
        assert cli.main(["cow", "--config", write_cfg(tmp_path, "c.json", cow)]) == 0
        out.unlink()

        pipeline = {"data": data_csv, "model": MODEL_CFG, "method": "cow",
                    "cow": {"variance": "qm", "qm_bins": 2001},
                    "control_model": CONTROL_CFG, "out_summary": str(out)}
        assert cli.main(["pipeline", "--config", write_cfg(tmp_path, "c.json", pipeline)]) == 1
        assert "qm_bins 2001 exceeds the 2000 events" in capsys.readouterr().err
        assert not out.exists()

        def no_toys(config):
            raise AssertionError("a toy ran")
        monkeypatch.setattr(cli, "run_ensemble", no_toys)
        toys = {"toy": {"study": "simple", "n_events": 300},
                "methods": [{"name": "c", "kind": "cow", "variance": "qm", "qm_bins": 301}],
                "out": str(out)}
        assert cli.main(["toys", "--config", write_cfg(tmp_path, "c.json", toys)]) == 1
        assert "qm_bins 301 exceeds the 300 events" in capsys.readouterr().err

    def test_correct_with_an_underflowing_zero_weight_event(self, tmp_path, capsys):
        # the weighted fit ignores the event at t = 0, where ln h is -inf, so
        # its corrected covariance is undefined: exit 2, not a NaN result
        d = Density1D("normal", [0.5, 0.01], Interval(0.0, 1.0))
        t = np.append(d.sample(np.random.default_rng(3), 500), 0.0)
        data, weights = tmp_path / "d.csv", tmp_path / "w.csv"
        cli.write_csv(str(data), ["m", "t"], np.column_stack([np.full_like(t, 0.5), t]))
        cli.write_csv(str(weights), ["w_s"], np.append(np.ones(500), 0.0)[:, None])
        cfg = {"data": str(data), "weights": str(weights), "out": str(tmp_path / "o.json"),
               "control_model": {"kind": "normal", "params": [0.5, 0.01], "support": [0, 1]}}
        assert cli.main(["correct", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o.json").exists()


    def test_correct_where_the_slope_fit_overflows(self, tmp_path, capsys):
        # every event sits at the top of the support, so the slope is the
        # root near -1/(3 - 2.999) = -1000, where exp(-slope * 3) overflows:
        # not converged, exit 2
        data, weights = tmp_path / "d.csv", tmp_path / "w.csv"
        cli.write_csv(str(data), ["m", "t"], np.column_stack([np.full(50, 0.5), np.full(50, 2.999)]))
        cli.write_csv(str(weights), ["w_s"], np.ones((50, 1)))
        cfg = {"data": str(data), "weights": str(weights), "out": str(tmp_path / "o.json"),
               "control_model": CONTROL_CFG}
        assert cli.main(["correct", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 2
        assert not (tmp_path / "o.json").exists()

    def test_correct_where_the_weighted_mean_has_no_slope(self, tmp_path, capsys):
        # negative weights put sum w t / sum w at 20.5, beyond the support
        # width 3, where no slope has that mean: exit 2 with a message
        data, weights = tmp_path / "d.csv", tmp_path / "w.csv"
        t = np.repeat([0.5, 2.5], 100)
        cli.write_csv(str(data), ["m", "t"], np.column_stack([np.full_like(t, 0.5), t]))
        cli.write_csv(str(weights), ["w_s"], np.repeat([-0.9, 1.0], 100)[:, None])
        cfg = {"data": str(data), "weights": str(weights), "out": str(tmp_path / "o.json"),
               "control_model": CONTROL_CFG}
        assert cli.main(["correct", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: the weighted fit")
        assert not (tmp_path / "o.json").exists()


    @pytest.mark.parametrize("grid", [
        {"m_edges": [0.0, 1.0], "t_edges": [0.0, 3.0], "values": [["x"]]},
        {"m_edges": [0.0, 1.0, 0.5], "t_edges": [0.0, 3.0], "values": [[0.5], [0.5]]},
        {"m_edges": [0.0, 1.0], "t_edges": [0.0, float("nan"), 3.0], "values": [[0.5, 0.5]]}],
        ids=["string-value", "unsorted-edges", "nan-edge"])
    @pytest.mark.parametrize("command", ["cow", "pipeline"])
    def test_malformed_efficiency_map(self, tmp_path, data_csv, capsys, command, grid):
        eff = write_cfg(tmp_path, "eff.json", grid)
        out = tmp_path / "s.json"
        if command == "cow":
            cfg = {"data": data_csv, "support": [0.0, 1.0], "basis": [GS_CFG, GB_CFG],
                   "efficiency": eff, "out_summary": str(out)}
        else:
            cfg = {"data": data_csv, "model": MODEL_CFG, "method": "cow",
                   "cow": {"efficiency": eff}, "control_model": CONTROL_CFG,
                   "out_summary": str(out)}
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: bad efficiency map {eff}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "sweights", "pipeline"])
    def test_m_fit_that_does_not_converge(self, tmp_path, data_csv, capsys, monkeypatch,
                                          command):
        # exit 2 with an error line; only `fit` writes its (failed) result
        fit_extended_ml = cli.fit_extended_ml
        monkeypatch.setattr(cli, "fit_extended_ml", lambda *args: dataclasses.replace(
            fit_extended_ml(*args), converged=False))
        out = tmp_path / "s.json"
        cfg = {"data": data_csv, "model": MODEL_CFG, "out_summary": str(out)}
        if command == "fit":
            cfg = {"data": data_csv, "model": MODEL_CFG, "out": str(out)}
        elif command == "pipeline":
            cfg["control_model"] = CONTROL_CFG
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 2
        err = capsys.readouterr().err
        if command == "fit":
            assert err == "" and json.loads(out.read_text())["fit"]["converged"] is False
        else:
            assert err == "error: the extended fit of m did not converge\n"
            assert not out.exists()


    @pytest.mark.parametrize("command", ["correct", "pipeline"])
    def test_control_fit_that_does_not_converge(self, tmp_path, data_csv, capsys, monkeypatch,
                                                command):
        fit_weighted_ml = methods.fit_weighted_ml
        monkeypatch.setattr(methods, "fit_weighted_ml", lambda *args, **kwargs: dataclasses.replace(
            fit_weighted_ml(*args, **kwargs), converged=False))
        out = tmp_path / "s.json"
        if command == "correct":
            wcsv = tmp_path / "w.csv"
            cli.write_csv(str(wcsv), ["w_s"], np.ones((2000, 1)))
            cfg = {"data": data_csv, "weights": str(wcsv), "control_model": CONTROL_CFG,
                   "out": str(out)}
        else:
            cfg = {"data": data_csv, "model": MODEL_CFG, "control_model": CONTROL_CFG,
                   "out_summary": str(out)}
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 2
        assert capsys.readouterr().err == ("error: the weighted fit of the exponential "
                                           "control model did not converge\n")
        assert not out.exists()


BAD_SUPPORTS = {"bool": [0, True], "nested": [[0, 1], 1], "nan": [0, float("nan")],
                "empty": [1, 1]}


class TestSharedConfigLayer:
    """One support rule, densities parsed before the data, the pipeline cow
    block checked after ``--echo``, and the input errors of the fits."""

    HISTOGRAM = {"kind": "histogram", "support": [0, 3], "edges": [0, 1, 2, 3],
                 "contents": [3, 2, 1]}

    # every malformed support, and a mixture component on another valid one
    @pytest.mark.parametrize("where, support", [
        pytest.param(where, support, id=f"{where}-{name}")
        for where in ("model", "component", "control_model", "cow", "mixture-component")
        for name, support in BAD_SUPPORTS.items()]
        + [pytest.param("mixture-component", [0, 2], id="mixture-component-other")])
    def test_one_support_rule(self, tmp_path, data_csv, capsys, where, support):
        out = str(tmp_path / "s.json")
        if where == "cow":
            command, cfg = "cow", {"data": data_csv, "support": support,
                                   "basis": [GS_CFG, GB_CFG], "out_summary": out}
        elif where == "mixture-component":
            mixture = {"kind": "mixture", "weights": [1, 1],
                       "components": [{**GB_CFG, "support": support},
                                      {"kind": "uniform", "params": [], "support": [0, 1]}]}
            command, cfg = "cow", {"data": data_csv, "support": [0, 1], "variance": "unity",
                                   "basis": [GS_CFG, mixture], "out_summary": out}
        elif where == "control_model":
            command, cfg = "pipeline", {"data": data_csv, "model": MODEL_CFG,
                                        "control_model": {**CONTROL_CFG, "support": support},
                                        "out_summary": out}
        else:
            model = ({**MODEL_CFG, "support": support} if where == "model" else
                     {**MODEL_CFG, "components": [{**GS_CFG, "support": support}, GB_CFG]})
            command, cfg = "fit", {"data": data_csv, "model": model, "out": out}
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'support'" in err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("command", ["correct", "pipeline"])
    def test_parameter_free_control_model(self, tmp_path, data_csv, capsys, command):
        out = tmp_path / "o.json"
        cfg = {"data": data_csv, "control_model": self.HISTOGRAM}
        if command == "correct":
            weights = tmp_path / "w.csv"
            cli.write_csv(str(weights), ["w_s"], np.ones((2000, 1)))
            cfg.update(weights=str(weights), out=str(out))
        else:
            cfg.update(model=MODEL_CFG, out_summary=str(out))
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no parameters" in err
        assert not out.exists()

    @pytest.mark.parametrize("params", [[0.0, 3.0], [0.2, 0.7]])
    @pytest.mark.parametrize("command", ["correct", "pipeline"])
    def test_uniform_control_model(self, tmp_path, data_csv, capsys, command, params):
        # a uniform's range has no score, so it cannot be fitted
        out = tmp_path / "o.json"
        cfg = {"data": data_csv,
               "control_model": {"kind": "uniform", "params": params, "support": [0, 3]}}
        if command == "correct":
            weights = tmp_path / "w.csv"
            cli.write_csv(str(weights), ["w_s"], np.ones((2000, 1)))
            cfg.update(weights=str(weights), out=str(out))
        else:
            cfg.update(model=MODEL_CFG, out_summary=str(out))
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err == "error: the parameters of a uniform density cannot be fitted\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "sweights", "pipeline"])
    def test_free_uniform_component(self, tmp_path, data_csv, capsys, command):
        out = tmp_path / "o.json"
        model = {**MODEL_CFG, "components": [
            GS_CFG, {"kind": "uniform", "label": "b", "free_shape": True}]}
        cfg = {"data": data_csv, "model": model}
        if command == "fit":
            cfg["out"] = str(out)
        else:
            cfg["out_summary"] = str(out)
        if command == "pipeline":
            cfg["control_model"] = CONTROL_CFG
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err == "error: the parameters of a uniform density cannot be fitted\n"
        assert not out.exists()

    @pytest.mark.parametrize("background, message", [
        ({"kind": "table", "xs": [0, 1], "ys": [1, 1]}, "unknown density kind 'table'"),
        ({"kind": "histogram", "edges": [0.1, 0.5, 0.9], "contents": [1, 1]},
         "histogram edges run from 0.1 to 0.9, not over the support (0.0, 1.0)"),
        ({"kind": "mixture", "weights": [1, 1],
          "components": [{**GB_CFG, "support": [0, 2]},
                         {"kind": "uniform", "params": [], "support": [0, 1]}]},
         "mixture components must have the mixture's 'support' (0.0, 1.0)"),
        ({"kind": "monomial", "params": [float("nan")]}, "finite degree k >= 1, got [nan]"),
        ({"kind": "monomial", "params": [float("inf")]}, "finite degree k >= 1, got [inf]")],
        ids=["table", "histogram-edges", "mixture-support", "monomial-nan", "monomial-inf"])
    def test_density_not_normalized_on_the_support(self, tmp_path, data_csv, capsys,
                                                   background, message):
        # unchecked, the histogram fit exited 0 with N_s 424.9 (601.6 with edges 0 to 1)
        out = tmp_path / "s.json"
        model = {**MODEL_CFG, "components": [GS_CFG, {**background, "label": "b"}]}
        cfg = {"data": data_csv, "model": model, "out": str(out)}
        assert cli.main(["fit", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad density config:") and message in err
        assert not out.exists()

    def test_mixture_component_takes_the_mixture_support(self, tmp_path, data_csv, capsys):
        # a component without a 'support' was a bare KeyError text, exit 1
        fits = []
        for support in ({}, {"support": [0, 1]}):
            background = {"kind": "mixture", "weights": [1, 1], "label": "b",
                          "components": [{**GB_CFG, **support},
                                         {"kind": "uniform", "params": []}]}
            out = tmp_path / f"fit{len(fits)}.json"
            cfg = {"data": data_csv, "out": str(out),
                   "model": {**MODEL_CFG, "components": [GS_CFG, background]}}
            assert cli.main(["fit", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
            fits.append(json.loads(out.read_text())["fit"])
        assert capsys.readouterr().err == ""
        assert fits[0] == fits[1]

    def test_two_dimensional_params(self, tmp_path, data_csv, capsys):
        model = {**MODEL_CFG, "components": [{**GS_CFG, "params": [[0.5, 0.08]]}, GB_CFG]}
        cfg = {"data": data_csv, "model": model, "out": str(tmp_path / "s.json")}
        assert cli.main(["fit", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad density config") and "flat list" in err

    @pytest.mark.parametrize("value", ["x", [1, 2]])
    def test_toy_param_that_is_not_a_number(self, tmp_path, capsys, value):
        cfg = {"toy": {"study": "nonfactorising", "n_events": 100,
                       "params": {"bkg_slope_t": value}},
               "methods": [{"name": "swB"}], "out": str(tmp_path / "r.json")}
        assert cli.main(["toys", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: bad toys config")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command,cfg", [
        ("correct", {"weights": "absent.csv", "control_model": {"kind": "normal"}}),
        ("pipeline", {"model": MODEL_CFG, "control_model": {"kind": "normal"}}),
        ("cow", {"support": [0, 1], "basis": [{"kind": "normal"}]}),
        ("cow", {"support": [0, 1], "basis": [GS_CFG], "signal_proxy": {"kind": "x"}})],
        ids=["correct", "pipeline", "cow-basis", "cow-signal_proxy"])
    def test_densities_parsed_before_the_data(self, tmp_path, capsys, command, cfg):
        cfg = {"data": str(tmp_path / "absent.csv"), **cfg}
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "density config" in err and "cannot read" not in err

    @pytest.mark.parametrize("model,message", [
        ({**MODEL_CFG, "components": [GS_CFG, {"kind": "normal", "params": [0.5]}]},
         "error: bad density config: normal needs params"),
        ({**MODEL_CFG, "yields": [1.0, 2.0, 3.0]}, "error: bad model config: one yield")],
        ids=["component", "yields"])
    @pytest.mark.parametrize("command", ["fit", "sweights", "pipeline"])
    def test_model_parsed_before_the_data(self, tmp_path, data_csv, capsys, monkeypatch,
                                          command, model, message):
        def no_read(*args, **kwargs):
            raise AssertionError("the data were read")

        monkeypatch.setattr(cli, "read_csv", no_read)
        cfg = {"data": data_csv, "model": model}
        if command == "pipeline":
            cfg["control_model"] = CONTROL_CFG
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.startswith(message)

    def test_default_yields_share_the_events(self, data_csv):
        model_cfg = {k: v for k, v in MODEL_CFG.items() if k != "yields"}
        _, data, model = cli._model_and_data({"data": data_csv, "model": model_cfg}, 1)
        assert model.yields.tolist() == [len(data) / 2] * 2
        _, _, model = cli._model_and_data({"data": data_csv, "model": MODEL_CFG}, 1)
        assert model.yields.tolist() == MODEL_CFG["yields"]

    def test_pipeline_cow_block_checked_after_echo(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"method": "sweights-B", "cow": "x"})
        assert cli.main(["pipeline", "--config", cfg, "--echo"]) == 0
        assert json.loads(capsys.readouterr().out)["cow"] == "x"

    @pytest.mark.parametrize("command,missing", [
        ("fit", "model"), ("cow", "support"), ("correct", "weights"), ("toys", "toy")])
    def test_required_key(self, tmp_path, data_csv, capsys, command, missing):
        cfg = {"fit": {"data": data_csv}, "cow": {"data": data_csv, "basis": [GS_CFG]},
               "correct": {"data": data_csv, "control_model": CONTROL_CFG},
               "toys": {}}[command]
        assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err == f"error: {command} config needs {missing!r}\n"

    def test_canonical_json_of_numpy_values(self):
        value = {"b": np.arange(3), "a": [np.float32(0.1), np.bool_(True), np.int64(-4)],
                 "c": (np.nan, -0.0, np.float64(5e-324))}
        plain = {"b": [0, 1, 2], "a": [float(np.float32(0.1)), True, -4],
                 "c": [float("nan"), -0.0, 5e-324]}
        assert cli.canonical_json(value) == json.dumps(plain, sort_keys=True, indent=2)
