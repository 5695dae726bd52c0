"""Pseudo-experiment generators and the ensemble runner."""

import dataclasses
import json
import os

import numpy as np
import pytest

import cowlib._quadrature
import cowlib.cows
from cowlib import ConstructionError, EvaluationError, kendall_tau
from cowlib import methods, toygen, wcov
from cowlib.toygen import (EnsembleConfig, MethodSpec, ToySpec,
                           generate_multicomponent, generate_nonfactorising,
                           generate_simple, run_ensemble, run_toy,
                           simple_truth_densities, worker_count)


class TestSpecs:
    def test_invalid_study(self):
        with pytest.raises(ConstructionError):
            ToySpec(study="nope", n_events=10)

    def test_invalid_counts_and_fractions(self):
        with pytest.raises(ConstructionError):
            ToySpec(study="simple", n_events=0)
        with pytest.raises(ConstructionError):
            ToySpec(study="simple", n_events=10, z=1.5)
        with pytest.raises(ConstructionError):
            ToySpec(study="multicomponent", n_events=10,
                    fractions=[0.5, 0.2, 0.2])

    @pytest.mark.parametrize("change,named", [
        (dict(z=True), "z"), (dict(z=False), "z"),
        (dict(fractions=[True, False, False]), "fractions"),
        (dict(fractions=[0.5, 0.5, False]), "fractions"),
        (dict(fractions=[0.5, 0.5, float("nan")]), "fractions"),
        (dict(fractions=0.5), "fractions")],
        ids=["z-true", "z-false", "fractions-bools", "fractions-one-bool", "fractions-nan",
             "fractions-scalar"])
    def test_non_numeric_z_and_fractions_rejected(self, change, named):
        # JSON true/false would otherwise pass as 1/0: z = true makes every
        # event signal
        with pytest.raises(ConstructionError, match=named):
            ToySpec(study="multicomponent", n_events=10, **change)

    def test_numeric_z_and_fractions_accepted(self):
        assert ToySpec(study="simple", n_events=10, z=1).z == 1
        assert ToySpec(study="simple", n_events=10, z=np.float64(0.25)).z == 0.25
        spec = ToySpec(study="multicomponent", n_events=10, fractions=np.array([0.3, 0.3, 0.4]))
        assert spec.to_dict()["fractions"] == [0.3, 0.3, 0.4]

    @pytest.mark.parametrize("study,params", [
        ("nonfactorising", {"bkg_slop_t": 5.0}),
        ("nonfactorising", [("eff_base", 0.3), ("eff_bse", 0.3)]),
        ("simple", {"bkg_slope_t": 0.8}),
        ("multicomponent", {"eff_base": 0.3}),
        ("nonfactorising", "x"),
    ], ids=["misspelt", "misspelt-pairs", "simple", "multicomponent", "not-a-mapping"])
    def test_params_outside_the_study_rejected(self, study, params):
        with pytest.raises(ConstructionError, match="params"):
            ToySpec(study=study, n_events=10, params=params)

    def test_params_of_the_study_accepted(self):
        ToySpec(study="nonfactorising", n_events=10, params=dict(toygen.NONFACT_DEFAULTS))
        ToySpec(study="nonfactorising", n_events=10, params=[("eff_base", 0.3)])
        ToySpec(study="simple", n_events=10, params={})

    def test_invalid_ensemble(self):
        cfg = EnsembleConfig(toy=ToySpec(study="simple", n_events=10),
                             methods=[MethodSpec(name="a")], n_toys=0)
        with pytest.raises(ConstructionError):
            run_ensemble(cfg)


class TestSimpleGenerator:
    def test_deterministic_per_seed(self):
        spec = ToySpec(study="simple", n_events=500, z=0.3, seed=7)
        a = generate_simple(spec)
        b = generate_simple(spec)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.labels, b.labels)
        c = generate_simple(ToySpec(study="simple", n_events=500, z=0.3, seed=8))
        assert not np.array_equal(a.data, c.data)

    def test_shapes_and_counts(self):
        ds = generate_simple(ToySpec(study="simple", n_events=777, z=0.3, seed=1))
        assert ds.data.shape == (777, 2)
        assert ds.columns == ["m", "t"]
        assert np.array_equal(ds.column("m"), ds.m)

    def test_pure_signal_labels(self):
        ds = generate_simple(ToySpec(study="simple", n_events=300, z=1.0, seed=2))
        assert np.all(ds.labels == 0)
        gs = simple_truth_densities()[0]
        assert np.all((ds.m >= gs.support.lo) & (ds.m <= gs.support.hi))

    def test_components_independent_in_m_and_t(self):
        ds = generate_simple(ToySpec(study="simple", n_events=10_000, z=0.5,
                                     seed=5))
        for lab in (0, 1):
            sel = ds.labels == lab
            rep = kendall_tau(ds.m[sel], ds.column("t")[sel])
            assert abs(rep.tau) < 3 * rep.approx_sigma


class TestMulticomponentGenerator:
    def test_degenerate_fractions(self):
        ds = generate_multicomponent(ToySpec(study="multicomponent",
                                             n_events=400,
                                             fractions=[1.0, 0.0, 0.0],
                                             seed=3))
        assert np.all(ds.labels == 0)
        assert ds.data.shape == (400, 4)
        assert ds.columns == ["m", "c", "u", "v"]
        assert np.array_equal(ds.column("c"), ds.labels.astype(float))

    def test_deterministic(self):
        spec = ToySpec(study="multicomponent", n_events=300, seed=10)
        assert np.array_equal(generate_multicomponent(spec).data,
                              generate_multicomponent(spec).data)


class TestNonfactorisingGenerator:
    def test_zero_couplings_factorise(self):
        # with all coupling parameters off, the background truth density is
        # an exact product of its one-dimensional marginals
        zeros = {"bkg_slope_t": 0.0, "bkg_mean_m": 0.0, "bkg_width_m": 0.0}
        ds = generate_nonfactorising(ToySpec(study="nonfactorising",
                                             n_events=100, z=0.2, seed=4,
                                             params=zeros))
        _, gb, _, hb = simple_truth_densities()
        mg = np.linspace(0.01, 0.99, 23)
        tg = np.linspace(0.01, 2.99, 19)
        M, T = np.meshgrid(mg, tg)
        assert np.allclose(ds.truth["f_bkg"](M, T), gb.pdf(M) * hb.pdf(T),
                           atol=1e-6)

    def test_background_m_t_dependence_detected(self):
        ds = generate_nonfactorising(ToySpec(study="nonfactorising",
                                             n_events=10_000, z=0.0, seed=2))
        rep = kendall_tau(ds.m, ds.column("t"))
        assert abs(rep.tau) / rep.approx_sigma > 5

    def test_efficiency_map_attached_and_positive(self):
        ds = generate_nonfactorising(ToySpec(study="nonfactorising",
                                             n_events=200, z=0.5, seed=6,
                                             efficiency=True))
        assert ds.efficiency is not None
        e = ds.efficiency(ds.m, ds.column("t"))
        assert np.all((e > 0) & (e <= 1))
        # acceptance scales down the observed signal fraction bookkeeping
        assert 0 < ds.truth["D"] < 1

    def test_deterministic(self):
        spec = ToySpec(study="nonfactorising", n_events=300, z=0.4, seed=13,
                       efficiency=True)
        assert np.array_equal(generate_nonfactorising(spec).data,
                              generate_nonfactorising(spec).data)


def test_m_fit_that_does_not_converge_fails_each_method(monkeypatch):
    fit_extended_ml = toygen.fit_extended_ml
    monkeypatch.setattr(toygen, "fit_extended_ml", lambda *args: dataclasses.replace(
        fit_extended_ml(*args), converged=False))
    cfg = EnsembleConfig(toy=ToySpec(study="simple", n_events=500, z=0.3),
                         methods=[MethodSpec(name="swB"),
                                  MethodSpec(name="cow", kind="cow", fit_shapes=True)],
                         n_toys=1)
    record = toygen.run_toy(cfg, 0)
    assert not record["ok"]
    assert record["methods"] == {
        name: {"ok": False, "error": "the extended fit of m did not converge"}
        for name in ("swB", "cow")}


def test_t_fit_that_does_not_converge_fails_the_method(monkeypatch):
    # the toys record the control fit's failure as the CLI reports it
    fit_weighted_ml = methods.fit_weighted_ml
    monkeypatch.setattr(methods, "fit_weighted_ml", lambda *args, **kwargs: dataclasses.replace(
        fit_weighted_ml(*args, **kwargs), converged=False))
    cfg = EnsembleConfig(toy=ToySpec(study="simple", n_events=500, z=0.3),
                         methods=[MethodSpec(name="swB")], n_toys=1)
    record = toygen.run_toy(cfg, 0)
    assert not record["ok"]
    assert record["methods"] == {"swB": {
        "ok": False, "error": "the weighted fit of the exponential control model did not converge"}}


def qm_cow(order, name=None, **fields):
    return MethodSpec(**{"name": name or f"cow{order}", "kind": "cow", "variance": "qm",
                         "qm_bins": 50, "poly_order": order, **fields})


def criterion_08_methods(methods, seed=20260824):
    """The method records of one criterion-08 toy (non-factorising, with
    efficiency, N = 2000) analysed with ``methods``, as JSON text per method,
    which tells every float apart bit for bit."""
    toy = ToySpec(study="nonfactorising", n_events=2000, z=0.5, efficiency=True)
    record = run_toy(EnsembleConfig(toy=toy, methods=methods, n_toys=1, base_seed=seed), 0)
    return {name: json.dumps(res, sort_keys=True) for name, res in record["methods"].items()}


class TestMethodFamilies:
    """qm cows of one fit and binning share their work; each still gets
    the record of its own run."""

    def test_grouping(self):
        specs = [MethodSpec(name="swB"), qm_cow(1), MethodSpec(name="mix", kind="cow"),
                 qm_cow(3), qm_cow(3, "bins40", qm_bins=40), qm_cow(5, "free", fit_shapes=True),
                 qm_cow(0), qm_cow(2, "unity", variance="unity"), qm_cow(5)]
        families = [[ms.name for ms in f] for f in methods.method_families(specs)]
        assert families == [["swB"], ["cow1", "cow3", "cow5"], ["mix"], ["bins40"],
                            ["free"], ["cow0"], ["unity"]]

    def test_one_histogram_w_and_bootstrap_per_family(self, monkeypatch):
        # one histogram, one pass of the per-bin Gram array B and of the
        # quadrature rule (the bootstrap reads B and integrates nothing) and
        # one bootstrap pass
        calls = {"qm": 0, "gram": 0, "rule": 0, "cov": []}
        variance_fn_qm, bin_gram = methods.variance_fn_qm, cowlib.cows._bin_gram
        cows = methods.corrected_covariance_cows

        def count(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(methods, "variance_fn_qm", count("qm", variance_fn_qm))
        monkeypatch.setattr(cowlib.cows, "_bin_gram", count("gram", bin_gram))
        for module in (cowlib._quadrature, cowlib.cows):
            monkeypatch.setattr(module, "panel_rule", count("rule", module.panel_rule))
        monkeypatch.setattr(methods, "corrected_covariance_cows",
                            lambda c, *a: calls["cov"].append(len(c)) or cows(c, *a))
        criterion_08_methods([qm_cow(1), qm_cow(3), qm_cow(5)])
        assert calls == {"qm": 1, "gram": 1, "rule": 1, "cov": [3]}

    def test_family_records_are_solo_records(self):
        # each record is byte for byte the method's own run (the W and B of
        # order 1 and 3 are blocks of order 5's); the binning and fit keep
        # families apart
        methods_ = [MethodSpec(name="swB"), qm_cow(1), qm_cow(3), qm_cow(3, "bins40", qm_bins=40),
                    qm_cow(5)]
        family = criterion_08_methods(methods_)
        assert list(family) == [ms.name for ms in methods_]
        for ms in methods_:
            assert json.loads(family[ms.name])["ok"]
            assert family[ms.name] == criterion_08_methods([ms])[ms.name]

    def test_family_is_solo_on_several_toys(self):
        # on seed 20260841 the leading block of a W summed by matrix products
        # moved cow3's estimate by 6.6e-10 sigma from its own run's
        family = [qm_cow(1), qm_cow(3), qm_cow(5)]
        for seed in (20260824, 20260829, 20260835, 20260838, 20260841):
            got = criterion_08_methods(family, seed)
            assert got == {ms.name: criterion_08_methods([ms], seed)[ms.name] for ms in family}

    def test_rejected_high_order_fails_alone(self):
        # order 8's W is past cows.CONDITION_LIMIT and fails alone; orders 1
        # and 3 take their blocks of its W, which are their own W, so the
        # records are those of any family, or of none
        seed = 20260829
        got = criterion_08_methods([MethodSpec(name="swB"), qm_cow(1), qm_cow(8), qm_cow(3)],
                                   seed)
        assert list(got) == ["swB", "cow1", "cow8", "cow3"]
        assert got["cow8"] == criterion_08_methods([qm_cow(8)], seed)["cow8"]
        assert "condition number exceeds" in json.loads(got["cow8"])["error"]
        without = criterion_08_methods([MethodSpec(name="swB"), qm_cow(1), qm_cow(3)], seed)
        assert without["cow3"] == criterion_08_methods([qm_cow(3), qm_cow(5)], seed)["cow3"]
        assert {k: v for k, v in got.items() if k != "cow8"} == without

    def test_singular_weighted_hessian_fails_alone(self, monkeypatch):
        theta = json.loads(criterion_08_methods([qm_cow(1), qm_cow(3), qm_cow(5)])["cow3"])
        weighted_hessian = wcov._weighted_hessian

        def singular_for_cow3(hs, t, w, th):
            # cow3's own run fits a theta within 1e-9 of the family's
            H = weighted_hessian(hs, t, w, th)
            return np.zeros_like(H) if np.isclose(th[0], theta["estimate"], rtol=1e-9,
                                                  atol=0.0) else H

        monkeypatch.setattr(wcov, "_weighted_hessian", singular_for_cow3)
        got = criterion_08_methods([qm_cow(1), qm_cow(3), qm_cow(5)])
        failed = {"ok": False, "error": "weighted Hessian is singular"}
        assert json.loads(got["cow3"]) == failed
        assert json.loads(criterion_08_methods([qm_cow(3)])["cow3"]) == failed
        assert criterion_08_methods([qm_cow(1), qm_cow(5)]) == {
            k: v for k, v in got.items() if k != "cow3"}


class TestNonfactSetupCache:
    """The seed-independent set-up of the non-factorising study is made
    once per process for each (params, efficiency)."""

    SPECS = [dict(n_events=400, z=0.5, efficiency=True),
             dict(n_events=300, z=0.3, efficiency=False),
             dict(n_events=300, z=0.5, efficiency=True,
                  params={"bkg_slope_t": 0.0, "eff_mt": 0.1})]

    @staticmethod
    def _toys(specs, seeds):
        out = []
        for kw in specs:
            for seed in seeds:
                ds = generate_nonfactorising(
                    ToySpec(study="nonfactorising", seed=seed, **kw))
                out.append((ds.data, ds.labels, ds.truth["z_obs"], ds.truth["D"],
                            None if ds.efficiency is None
                            else ds.efficiency(ds.m, ds.column("t"))))
        return out

    def test_cached_toys_equal_freshly_set_up_ones(self, monkeypatch):
        toygen._nonfact_truth.cache_clear()
        cached = self._toys(self.SPECS, range(4))
        monkeypatch.setattr(toygen, "_nonfact_truth",
                            lambda key, use_eff: toygen._NonfactTruth(
                                dict((k, v) for k, _, v in key), use_eff))
        fresh = self._toys(self.SPECS, range(4))
        for a, b in zip(cached, fresh):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    def test_set_up_once_per_params_and_efficiency(self, monkeypatch):
        toygen._nonfact_truth.cache_clear()
        made = []
        truth = toygen._NonfactTruth

        def counted(params, use_eff):
            made.append((dict(params), use_eff))
            return truth(params, use_eff)

        monkeypatch.setattr(toygen, "_NonfactTruth", counted)
        self._toys(self.SPECS, range(3))
        self._toys(self.SPECS, range(3, 5))
        assert len(made) == 3
        # an int and a float of the same value are separate keys
        self._toys([dict(n_events=50, params={"eff_base": 1}),
                    dict(n_events=50, params={"eff_base": 1.0})], range(2))
        assert len(made) == 5

    def test_pairs_share_the_mapping_cache_entry(self):
        toygen._nonfact_truth.cache_clear()
        spec = dict(study="nonfactorising", n_events=80, z=0.5, seed=3,
                    efficiency=True)
        got = generate_nonfactorising(ToySpec(params=[("eff_base", 0.3)], **spec))
        ref = generate_nonfactorising(ToySpec(params={"eff_base": 0.3}, **spec))
        assert toygen._nonfact_truth.cache_info().currsize == 1
        assert np.array_equal(got.data, ref.data)
        # one object is both the generator's set-up and the toys' truth
        assert got.truth["nonfact"] is ref.truth["nonfact"]
        assert got.efficiency is got.truth["nonfact"].eff_map

    @pytest.mark.parametrize("value", ["x", [0.3], [1, 2], True, None, float("nan"),
                                       float("inf"), 10 ** 400],
                             ids=["str", "list", "pair", "bool", "null", "nan", "inf", "huge-int"])
    def test_param_that_is_not_a_finite_number_rejected(self, value):
        with pytest.raises(ConstructionError, match="'eff_base' must be a finite number"):
            ToySpec(study="nonfactorising", n_events=50, params={"eff_base": value})

    # the 0/0 and x/0 of the underflowed normalization are this test's input,
    # so their floating-point warnings are expected here
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning",
                                "ignore:divide by zero encountered:RuntimeWarning")
    def test_envelope_that_is_not_a_number_raises(self):
        # the background normalization underflows to 0, so its envelope is nan:
        # no point could be accepted, and the sampler would never return
        with pytest.raises(EvaluationError, match="envelope nan"):
            generate_nonfactorising(ToySpec(study="nonfactorising", n_events=50,
                                            params={"bkg_slope_t": 1e300}))


@pytest.fixture(scope="module")
def small_config():
    return EnsembleConfig(
        toy=ToySpec(study="simple", n_events=500, z=0.3),
        methods=[MethodSpec(name="swB", kind="sweights", variant="B",
                            correction="none")],
        n_toys=4, base_seed=100)


class TestEnsembleRunner:
    def test_single_toy_record(self, small_config):
        rep = run_ensemble(EnsembleConfig(toy=small_config.toy,
                                          methods=small_config.methods,
                                          n_toys=1, base_seed=100))
        assert len(rep.records) == 1
        assert rep.seeds == [100]
        assert rep.valid
        agg = rep.aggregates["swB"]
        assert agg["n_ok"] == 1
        assert agg["mean_estimate"] == pytest.approx(
            rep.records[0]["methods"]["swB"]["estimate"])

    def test_weight_sum_equals_fitted_yield(self, small_config):
        rec = run_toy(small_config, 0)
        assert rec["ok"]
        assert rec["methods"]["swB"]["sum_w"] == pytest.approx(
            rec["fit_yields_only"]["N_s"], rel=1e-10)

    def test_parallel_matches_serial(self, small_config):
        serial = run_ensemble(small_config)
        parallel = run_ensemble(EnsembleConfig(
            toy=small_config.toy, methods=small_config.methods,
            n_toys=small_config.n_toys, base_seed=small_config.base_seed,
            jobs=2))
        assert serial.to_dict()["records"] == parallel.to_dict()["records"]

    def test_report_round_trip_keys(self, small_config):
        rep = run_ensemble(small_config)
        d = rep.to_dict()
        assert set(d) == {"config", "seeds", "records", "aggregates",
                          "n_failed", "valid"}
        assert d["config"]["n_toys"] == 4
        for key in ("mean_pull", "pull_width", "coverage68", "mean_neq"):
            assert key in d["aggregates"]["swB"]


class TestWorkerCount:
    """The --jobs clamp; computed only, no process is started."""

    @pytest.mark.parametrize("jobs,n_toys,cpus,expected", [
        (1, 100, 8, 1),
        (4, 100, 8, 4),
        (64, 100, 8, 8),
        (10**6, 100, 8, 8),
        (16, 3, 8, 3),
        (16, 100, 1, 1),
        (0, 100, 8, 1),
        (-3, 100, 8, 1),
    ])
    def test_clamped_to_toys_and_usable_cpus(self, monkeypatch, jobs, n_toys,
                                             cpus, expected):
        monkeypatch.setattr(toygen, "usable_cpus", lambda: cpus)
        assert worker_count(jobs, n_toys) == expected

    def test_usable_cpus_positive_and_bounded(self):
        assert 1 <= toygen.usable_cpus() <= (os.cpu_count() or 1)
