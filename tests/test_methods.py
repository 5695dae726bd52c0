"""The method recipe: spec validation, the variant-C rule, and parity with
the per-caller dispatch it replaced."""

import numpy as np
import pytest

from cowlib import ConstructionError, Density1D, EvaluationError, monomial_basis
from cowlib import cows, sweights, toygen, wcov
from cowlib.methods import MethodSpec, apply_method, sweights_matrix, variance_function
from cowlib.mlfit import (MixtureComponent, MixtureModel, fit_extended_ml,
                          fit_weighted_ml, yields_only_refit)
from cowlib.toygen import T_SUPPORT, ToySpec, generate, simple_truth_densities


def _fits(ds):
    gs, gb, _, _ = simple_truth_densities()
    n = len(ds.m)
    return {key: fit_extended_ml(ds.m, MixtureModel(
                [MixtureComponent("s", gs, free), MixtureComponent("b", gb, free)],
                np.array([0.5 * n, 0.5 * n])))
            for key, free in (("free", True), ("yields_only", False))}


def reference_run(method, ds, fits):
    """The method dispatch of ``toygen._run_method`` before the recipe
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
        elif method.variant == "B":
            wm = sweights.compute_W_variant_B([gs_hat, gb_hat], z_hat, m)
        elif method.variant == "Ci":
            wm = sweights.compute_W_variant_C(fits["free"], n, "invert-full-cov", n_components=2)
        elif method.variant == "Cii":
            yfit = fits.get("yields_only")
            if yfit is None:
                yfit = yields_only_refit(m, fits["free"].model)
            wm = sweights.compute_W_variant_C(yfit, n, "yields-only-cov", n_components=2)
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
            var = cows.UnityVariance()
        elif method.variance == "qm":
            var = cows.variance_fn_qm(data, eff, method.qm_bins, support=gs_hat.support)
        elif method.variance == "mixture":
            _, var = cows.variance_fn_ml_iterative(basis, data, eff)
        else:
            raise ConstructionError(f"unknown variance {method.variance!r}")
        spec = cows.CowSpec(basis=basis, variance_fn=var,
                            support=gs_hat.support, n_signal=1, efficiency=eff)
        cow = cows.build_cow(spec)
        w = cows.efficiency_corrected_weights(cow, eff, data)[:, 0]
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
        corr = wcov.corrected_covariance_cow(cow, data, hs, theta, eff=eff)
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
        record = toygen._run_method(ms, ds, {True: fits["free"], False: fits["yields_only"]})
        assert record["estimate"] == est
        assert record["sigma_corr"] == sigma


class TestMethodSpec:
    @pytest.mark.parametrize("bad", [
        {"kind": "cwo"}, {"variant": "D"}, {"variance": "qmm"},
        {"correction": "fixd"}, {"poly_order": -1}, {"qm_bins": 0}])
    def test_rejects_values_outside_their_sets(self, bad):
        with pytest.raises(ConstructionError, match="method 'x'"):
            MethodSpec(name="x", **bad)

    def test_reexported_from_toygen(self):
        assert toygen.MethodSpec is MethodSpec


class TestVariantC:
    """Variant C takes W from the fit whose shapes the weights use (free
    shapes: see ``test_cli.py::TestMethodResolution``)."""

    @pytest.fixture(scope="class")
    def sample(self):
        ds = generate(ToySpec(study="simple", n_events=2000, z=0.3, seed=77))
        return ds, _fits(ds)

    def test_cii_without_free_shapes_uses_the_fit(self, sample):
        ds, fits = sample
        yfit = fits["yields_only"]
        got = sweights_matrix("Cii", yfit, ds.m)
        want = sweights.compute_W_variant_C(yfit, len(ds.m), "yields-only-cov", n_components=2)
        assert np.array_equal(got.A, want.A)

    def test_ci_uses_the_fit_it_is_given(self, sample):
        ds, fits = sample
        yfit = fits["yields_only"]
        got = sweights_matrix("Ci", yfit, ds.m)
        want = sweights.compute_W_variant_C(yfit, len(ds.m), "invert-full-cov", n_components=2)
        assert np.array_equal(got.W, want.W)


def test_qm_without_an_event_inside_the_support(recwarn):
    # every event above the support: an input error, not 0/0 bin contents
    gs, gb, _, _ = simple_truth_densities()
    data = np.column_stack([np.linspace(1.5, 2.5, 40), np.ones(40)])
    with pytest.raises(ConstructionError, match="no event inside the support"):
        variance_function("qm", [gs, gb], data, None, 5, gs.support)
    assert not recwarn.list
