"""The method recipe: spec validation, the variant-C rule, and parity with
the per-caller dispatch it replaced."""

from collections import Counter

import numpy as np
import pytest

from cowlib import ConstructionError, Density1D, EvaluationError, monomial_basis
from cowlib import cows, methods, sweights, toygen, wcov
from cowlib.methods import (MethodSpec, apply_method, control_fit, sweights_matrix,
                            variance_cow)
from cowlib.mlfit import (MixtureComponent, MixtureModel, fit_extended_ml,
                          fit_weighted_ml, yields_only_refit)
from cowlib.toygen import M_SUPPORT, T_SUPPORT, ToySpec, generate, simple_truth_densities


def _fits(ds):
    gs, gb, _, _ = simple_truth_densities()
    n = len(ds.m)
    return {key: fit_extended_ml(ds.m, MixtureModel(
                [MixtureComponent("s", gs, free), MixtureComponent("b", gb, free)],
                np.array([0.5 * n, 0.5 * n])))
            for key, free in (("free", True), ("yields_only", False))}


def reference_run(method, ds, fits):
    """The method dispatch of the toy runner before the recipe
    existed, kept as the reference: returns (w, dW, estimate, sigma_corr)."""
    m, t = ds.m, ds.column("t")
    n = len(m)
    data = np.column_stack([m, t])
    eff = ds.efficiency

    fit = fits["free"] if method.fit_shapes else fits["yields_only"]
    if not fit.converged:
        raise EvaluationError("m fit did not converge")
    gs_hat = fit.model.components[0].density
    gb_hat = fit.model.components[1].density
    yields = fit.params[:2]
    z_hat = yields / yields.sum()

    dW = None
    if method.kind == "sweights":
        if method.variant == "A":
            wm = sweights.compute_W_variant_A([gs_hat, gb_hat], z_hat, gs_hat.support)
        elif method.variant in ("B", "Ci", "Cii"):
            # variant C's W is variant B's (see TestVariantC)
            wm = sweights.compute_W_variant_B([gs_hat, gb_hat], z_hat, m)
        else:
            raise ConstructionError(f"unknown variant {method.variant!r}")
        wfs = sweights.weight_functions(wm, [gs_hat, gb_hat])
        w = wfs.w_k(0, m)
        dW = wfs.dw_dW(m)
    elif method.kind == "cow":
        if method.poly_order > 0:
            basis = [gs_hat] + monomial_basis(method.poly_order + 1, gs_hat.support)
        else:
            basis = [gs_hat, gb_hat]
        if method.variance == "unity":
            var = Density1D("uniform", [], gs_hat.support)
        elif method.variance == "qm":
            var = cows.variance_fn_qm(data, eff, method.qm_bins, support=gs_hat.support)
        elif method.variance == "mixture":
            # the iteration starts at the fit's fractions when the basis is
            # the fitted components
            start = z_hat if method.poly_order == 0 else None
            _, fixed_point = cows.variance_fn_ml_iterative(basis, data, eff, start=start)
            var = fixed_point.spec.variance_fn
        else:
            raise ConstructionError(f"unknown variance {method.variance!r}")
        spec = cows.CowSpec(basis=basis, variance_fn=var,
                            support=gs_hat.support, n_signal=1, efficiency=eff)
        cow = cows.build_cow(spec)
        w = cows.efficiency_corrected_weights(cow, data)[:, 0]
    else:
        raise ConstructionError(f"unknown method kind {method.kind!r}")

    hs = Density1D("exponential", [1.5], T_SUPPORT)
    tfit = fit_weighted_ml(t, w, hs, bounds=[(0.05, 20.0)])
    if not tfit.converged:
        raise EvaluationError("weighted t fit did not converge")
    theta = tfit.params

    sigma_naive = float(np.sqrt(tfit.covariance[0, 0])) if tfit.covariance is not None else np.nan
    if method.correction == "none":
        sigma_corr = sigma_naive
    elif method.kind == "cow":
        corr = wcov.corrected_covariance_cow(cow, data, hs, theta)
        sigma_corr = float(np.sqrt(corr.theta_block[0, 0]))
    else:
        use_dw = dW if method.correction == "fixed" else None
        corr = wcov.corrected_covariance_fixed_shapes(
            t, w, use_dw, hs, theta,
            basis=[gs_hat, gb_hat], yields=yields, data_m=m)
        sigma_corr = float(np.sqrt(corr.theta_block[0, 0]))
    return w, dW, float(theta[0]), sigma_corr


PARITY_TOYS = {
    "simple": ToySpec(study="simple", n_events=2000, z=0.2, seed=1001),
    "nonfact-eff": ToySpec(study="nonfactorising", n_events=2000, z=0.5,
                           efficiency=True, seed=20260830),
}
PARITY_METHODS = (
    [dict(kind="sweights", variant=v) for v in ("A", "B")]
    + [dict(kind="sweights", variant="Ci", fit_shapes=True)]
    + [dict(kind="cow", variance=v, poly_order=p)
       for v in ("unity", "qm", "mixture") for p in (0, 2)])


@pytest.fixture(scope="module", params=sorted(PARITY_TOYS))
def toy(request):
    ds = generate(PARITY_TOYS[request.param])
    return ds, _fits(ds)


@pytest.mark.parametrize("fields", PARITY_METHODS,
                         ids=lambda f: "-".join(str(v) for v in f.values()))
def test_recipe_matches_reference_dispatch(toy, fields):
    ds, fits = toy
    for correction in ("fixed", "sandwich", "none"):
        ms = MethodSpec(name="m", correction=correction, **fields)
        w, dW, est, sigma = reference_run(ms, ds, fits)
        fit = fits["free"] if ms.fit_shapes else fits["yields_only"]
        weights = apply_method(ms, fit, ds.data, ds.efficiency)
        assert np.array_equal(weights.w, w)
        if dW is not None:
            assert np.array_equal(weights.cow.dw_dW(ds.m), dW)
        record, = toygen._run_family([ms], ds, {True: fits["free"],
                                                False: fits["yields_only"]}).values()
        assert record["estimate"] == est
        assert record["sigma_corr"] == sigma


def test_classic_weights_evaluate_each_component_once(monkeypatch):
    # swB's W, weights, dw/dW and the C' pairs of the fixed-shape correction
    # all take the components' values at the events from one evaluation, and
    # at a converged fit weight_functions has no grid to probe
    ds = generate(ToySpec(study="simple", n_events=2000, z=0.2, seed=1001))
    fit = _fits(ds)["yields_only"]
    hs = Density1D("exponential", [1.5], T_SUPPORT)
    sizes = []
    pdf = Density1D.pdf

    def counted(self, x):
        sizes.append((id(self), np.size(x)))
        return pdf(self, x)

    monkeypatch.setattr(Density1D, "pdf", counted)
    weights = apply_method(MethodSpec("swB"), fit, ds.data)
    weights.covariance(hs, control_fit(ds.column("t"), weights.w, hs).params)
    counts = Counter(sizes)
    assert [counts[id(d), 2000] for d in weights.cow.spec.basis] == [1, 1]
    assert not any(size == sweights.GRID_PROBE_POINTS for _, size in sizes)


class TestMethodSpec:
    @pytest.mark.parametrize("bad", [
        {"kind": "cwo"}, {"variant": "D"}, {"variance": "qmm"},
        {"correction": "fixd"}, {"poly_order": -1}, {"qm_bins": 0}])
    def test_rejects_values_outside_their_sets(self, bad):
        with pytest.raises(ConstructionError, match="method 'x'"):
            MethodSpec(name="x", **bad)

    def test_reexported_from_toygen(self):
        assert toygen.MethodSpec is MethodSpec


def _three_component_m():
    """2000 simple-study m values plus 600 of a narrow peak at 0.25, and the
    peak's density."""
    gp = Density1D("normal", [0.25, 0.03], M_SUPPORT)
    ds = generate(ToySpec(study="simple", n_events=2000, z=0.3, seed=77))
    return np.concatenate([ds.m, gp.ppf(np.random.default_rng(3).random(600))]), gp


class TestVariantC:
    """Variant C takes W from the fit whose shapes the weights use (free
    shapes: see ``test_cli.py::TestMethodResolution``): variant B's sample
    sum at that fit, labelled with its own variant."""

    @pytest.fixture(scope="class")
    def sample(self):
        ds = generate(ToySpec(study="simple", n_events=2000, z=0.3, seed=77))
        return ds, _fits(ds)

    def test_cii_without_free_shapes_uses_the_fit(self, sample):
        ds, fits = sample
        yfit = fits["yields_only"]
        got = sweights_matrix("Cii", yfit, ds.m)
        want = sweights.compute_W_variant_B(yfit.model.densities(), yfit.model.fractions, ds.m)
        assert got.variant == "Cii"
        assert np.array_equal(got.A, want.A)

    def test_ci_uses_the_fit_it_is_given(self, sample):
        ds, fits = sample
        yfit = fits["yields_only"]
        got = sweights_matrix("Ci", yfit, ds.m)
        want = sweights.compute_W_variant_B(yfit.model.densities(), yfit.model.fractions, ds.m)
        assert got.variant == "Ci"
        assert np.array_equal(got.W, want.W)


class TestOneW:
    """Variants B, Ci and Cii compute one W.  The paper's C reads it from the
    fit (``compute_W_variant_C``, after a yields-only refit for Cii when a
    shape floats), which gives the same signal weights to rounding."""

    @pytest.fixture(scope="class", params=[2, 3], ids=["2comp", "3comp"])
    def sample(self, request):
        gs, gb, _, _ = simple_truth_densities()
        m, gp = _three_component_m()
        densities = [gs, gb, gp][:request.param]
        if request.param == 2:
            m = m[:2000]
        fits = {free: fit_extended_ml(m, MixtureModel(
                    [MixtureComponent(f"c{k}", g, free) for k, g in enumerate(densities)],
                    np.full(len(densities), len(m) / len(densities))))
                for free in (False, True)}
        assert all(fit.converged for fit in fits.values())
        return m, fits

    @pytest.mark.parametrize("free", [False, True], ids=["fixed", "free"])
    def test_b_ci_and_cii_agree_with_variant_c(self, sample, free):
        m, fits = sample
        fit = fits[free]
        b = sweights_matrix("B", fit, m)
        for variant, mode in (("Ci", "invert-full-cov"), ("Cii", "yields-only-cov")):
            got = sweights_matrix(variant, fit, m)
            assert got.variant == variant
            assert np.array_equal(got.W, b.W) and np.array_equal(got.A, b.A)
            ref_fit = yields_only_refit(m, fit.model) if free and variant == "Cii" else fit
            want = sweights.compute_W_variant_C(ref_fit, len(m), mode,
                                                n_components=len(b.W))
            basis = fit.model.densities()
            w = sweights.weight_functions(got, basis).w_k(0, m)
            w_c = sweights.weight_functions(want, basis).w_k(0, m)
            # relative to the largest weight: w crosses zero
            assert np.max(np.abs(w - w_c)) <= 1e-12 * np.max(np.abs(w_c))


@pytest.fixture
def count_builds(monkeypatch):
    """The ``build_cow`` calls and the fraction-iteration steps (one
    ``estimate_fractions`` each) made from here on."""
    counts = Counter()

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: counts.update([name]) or real(*a, **k))

    for module in (cows, methods):
        counted(module, "build_cow")
    counted(cows, "estimate_fractions")
    return counts


@pytest.mark.parametrize("toy_name,poly_order", [
    ("simple", 0), ("simple", 2), ("nonfact-eff", 0), ("nonfact-eff", 2)])
def test_mixture_cow_builds_once_per_iteration_step(count_builds, toy_name, poly_order):
    # the cow is the CowSet of the step that converged, not a rebuild: at
    # order 0 without efficiency the fit's fractions are the fixed point
    ds = generate(PARITY_TOYS[toy_name])
    fit = _fits(ds)["yields_only"]
    apply_method(MethodSpec("cowmix", kind="cow", variance="mixture", poly_order=poly_order),
                 fit, ds.data, ds.efficiency)
    steps = count_builds["estimate_fractions"]
    assert count_builds["build_cow"] == steps
    assert (steps == 1) if (toy_name, poly_order) == ("simple", 0) else (steps > 1)


def test_mixture_cow_with_a_proxy_rebuilds_once(count_builds):
    # a signal proxy changes the basis the W is built on, so the cow is
    # rebuilt once after the iteration, at the mixture of its last step
    gs, gb, _, _ = simple_truth_densities()
    ds = generate(PARITY_TOYS["simple"])
    proxy = Density1D("normal", [0.52, 0.09], gs.support)
    cow = variance_cow("mixture", [gs, gb], ds.data, None, 50, gs.support, signal_proxy=proxy)
    assert count_builds["build_cow"] == count_builds["estimate_fractions"] + 1
    assert cow.spec.signal_proxy is proxy
    assert cow.spec.variance_fn.data["components"] == [gs, gb]


def test_variance_cows_takes_a_mixture_of_one_basis():
    # "mixture" goes through the one dispatch of every variance kind; its
    # I(m) belongs to its basis, so nested bases share none
    gs, gb, _, _ = simple_truth_densities()
    ds = generate(PARITY_TOYS["simple"])
    cow, = methods.variance_cows("mixture", [[gs, gb]], ds.data, None, 50, gs.support)
    solo = variance_cow("mixture", [gs, gb], ds.data, None, 50, gs.support)
    assert np.array_equal(cow.W, solo.W) and np.array_equal(cow.A, solo.A)
    assert cow.spec.variance_fn.data["components"] == [gs, gb]
    with pytest.raises(ValueError, match="single basis"):
        methods.variance_cows("mixture", [[gs], [gs, gb]], ds.data, None, 50, gs.support)


def test_qm_without_an_event_inside_the_support(recwarn):
    # every event above the support: an input error, not 0/0 bin contents
    gs, gb, _, _ = simple_truth_densities()
    data = np.column_stack([np.linspace(1.5, 2.5, 40), np.ones(40)])
    with pytest.raises(ConstructionError, match="no event inside the support"):
        variance_cow("qm", [gs, gb], data, None, 5, gs.support)
    assert not recwarn.list


def test_control_fit_within_bounds():
    # the signal events' slope (truth 2) is above the upper bound 0.1: the
    # bounded fit stops at the bound and converges there
    ds = generate(ToySpec(study="simple", n_events=2000, z=0.3, seed=5))
    hs = Density1D("exponential", [1.5], T_SUPPORT)
    t, w = ds.column("t"), (ds.labels == 0).astype(float)
    assert abs(control_fit(t, w, hs).params[0] - 2.0) < 0.2
    bounded = control_fit(t, w, hs, bounds=[(0.05, 0.1)])
    assert bounded.converged and bounded.params[0] == 0.1
