"""Covariance corrections for fits to weighted data."""

import tracemalloc

import numpy as np
import pytest

from cowlib import (Density1D, EvaluationError, Interval, MixtureComponent,
                    MixtureModel, fit_extended_ml,
                    fit_weighted_ml, monomial_basis, toygen, wcov)
from cowlib.cows import CowSet, CowSpec, _mixture, build_cow, variance_fn_qm
from cowlib.methods import MethodSpec, apply_method
from cowlib.sweights import compute_W_variant_B, weight_functions
from cowlib.toygen import (TRUE_SLOPE, ToySpec, generate_nonfactorising,
                           generate_simple, simple_truth_densities)
from cowlib.wcov import (QuasiScoreSpec, corrected_covariance_cow,
                         corrected_covariance_fixed_shapes,
                         corrected_covariance_full, equivalent_events,
                         variance_sum_weights)
from conftest import count_pdf_calls, with_efficiency

T_IV = Interval(0.0, 3.0)
HS_TOY = Density1D("exponential", [1.5], T_IV)   # the control model the toys fit


@pytest.fixture(scope="module")
def weighted_toy():
    """Simple toy analysed end to end with per-event-sum signal weights."""
    ds = generate_simple(ToySpec(study="simple", n_events=3000, z=0.3, seed=55))
    gs, gb, hs, _ = simple_truth_densities()
    m, t = ds.data[:, 0], ds.data[:, 1]
    mfit = fit_extended_ml(m, MixtureModel(
        [MixtureComponent("s", gs, False), MixtureComponent("b", gb, False)],
        np.array([1500.0, 1500.0])))
    assert mfit.converged
    z = float(mfit.params[0] / mfit.params[:2].sum())
    wm = compute_W_variant_B([gs, gb], [z, 1 - z], m)
    wfs = weight_functions(wm, [gs, gb])
    w = wfs.w_k(0, m)
    tfit = fit_weighted_ml(t, w, hs, bounds=[(0.05, 20.0)])
    assert tfit.converged
    return dict(ds=ds, m=m, t=t, gs=gs, gb=gb, hs=hs, mfit=mfit, tfit=tfit,
                wfs=wfs, w=w)


class TestWeightSumUtilities:
    def test_variance_sum_weights(self):
        assert variance_sum_weights([1.0, 1.0, 1.0]) == 3.0
        assert variance_sum_weights([2.0, -1.0]) == 5.0
        with pytest.raises(EvaluationError):
            variance_sum_weights([1.0, np.inf])

    def test_equivalent_events(self):
        assert equivalent_events(np.full(17, 0.4)) == pytest.approx(17.0)
        assert equivalent_events([2.0, 0.0]) == pytest.approx(1.0)
        with pytest.raises(EvaluationError):
            equivalent_events([0.0, 0.0])
        with pytest.raises(EvaluationError):
            equivalent_events([1.0, -1.0])


def independent_sandwich(hs, t, w, theta):
    """Independent finite-difference implementation of the plain weighted
    sandwich H^-1 (sum w^2 psi psi^T) H^-T, used as an oracle."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    p = len(theta)
    h = 1e-6 * np.maximum(np.abs(theta), 1.0)

    def logpdf(th):
        return hs.with_params(th).logpdf(t)

    d1 = np.empty((p, len(t)))
    for k in range(p):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h[k]
        tm[k] -= h[k]
        d1[k] = (logpdf(tp) - logpdf(tm)) / (2 * h[k])
    H = np.empty((p, p))
    l0 = logpdf(theta)
    for k in range(p):
        ek = np.zeros(p)
        ek[k] = 1e-4 * max(abs(theta[k]), 1.0)
        H[k, k] = np.sum(w * (logpdf(theta + ek) - 2 * l0 + logpdf(theta - ek))
                         ) / ek[k] ** 2
        for l in range(k + 1, p):
            el = np.zeros(p)
            el[l] = 1e-4 * max(abs(theta[l]), 1.0)
            v = np.sum(w * (logpdf(theta + ek + el) - logpdf(theta + ek - el)
                            - logpdf(theta - ek + el)
                            + logpdf(theta - ek - el))) / (4 * ek[k] * el[l])
            H[k, l] = H[l, k] = v
    Hinv = np.linalg.inv(H)
    Hp = (w ** 2 * d1) @ d1.T
    return Hinv @ Hp @ Hinv.T


class TestFixedShapeCorrection:
    def test_no_weight_derivatives_reduces_to_plain_sandwich(self, weighted_toy):
        # a well-specified unweighted sample: t drawn from the control shape
        d = weighted_toy
        hs = d["hs"].with_params([2.0])
        rng = np.random.default_rng(31)
        t = hs.sample(rng, 3000)
        w1 = np.ones_like(t)
        fit = fit_weighted_ml(t, w1, hs, bounds=[(0.05, 20.0)])
        corr = corrected_covariance_fixed_shapes(t, w1, None, hs, fit.params)
        oracle = independent_sandwich(hs, t, w1, fit.params)
        assert corr.theta_block[0, 0] == pytest.approx(oracle[0, 0], rel=1e-6)
        assert np.allclose(corr.reduction_term, 0.0)
        # large-sample sanity: plain sandwich near the inverse Hessian
        assert corr.theta_block[0, 0] == pytest.approx(corr.naive[0, 0],
                                                       rel=0.1)

    def test_reduction_term_psd_and_subtracted(self, weighted_toy):
        d = weighted_toy
        corr = corrected_covariance_fixed_shapes(
            d["t"], d["w"], d["wfs"].dw_dW(d["m"]), d["hs"],
            d["tfit"].params, basis=[d["gs"], d["gb"]],
            yields=d["mfit"].params[:2], data_m=d["m"])
        np.linalg.cholesky(corr.reduction_term + 1e-15 * np.eye(1))
        assert np.allclose(corr.theta_block,
                           corr.first_term - corr.reduction_term)
        assert 0 < corr.theta_block[0, 0] < corr.first_term[0, 0]

    def test_missing_cprime_ingredients_rejected(self, weighted_toy):
        d = weighted_toy
        with pytest.raises(EvaluationError):
            corrected_covariance_fixed_shapes(
                d["t"], d["w"], d["wfs"].dw_dW(d["m"]), d["hs"],
                d["tfit"].params)

    def test_fit_covariance_with_zero_weights(self, weighted_toy):
        # the fit's Hessian leaves out the events of weight 0 and the naive
        # covariance sums their zero terms too: equal to rounding, not bits
        d = weighted_toy
        w = np.where(np.arange(len(d["w"])) % 7 == 0, 0.0, d["w"])
        fit = fit_weighted_ml(d["t"], w, d["hs"], bounds=[(0.05, 20.0)])
        corr = corrected_covariance_fixed_shapes(d["t"], w, None, d["hs"], fit.params)
        assert np.allclose(fit.covariance, corr.naive, rtol=1e-12, atol=0)

    def test_last_bit_change_of_the_slope(self, weighted_toy):
        # the closed-form Hessian and scores are smooth in lambda: a change
        # of its last bit moves sigma_corr by <= 1e-13 relative (the
        # log-density stencil moved it by ~5e-8)
        d = weighted_toy
        args = (d["t"], d["w"], d["wfs"].dw_dW(d["m"]), d["hs"])
        kwargs = dict(basis=[d["gs"], d["gb"]], yields=d["mfit"].params[:2], data_m=d["m"])
        theta = d["tfit"].params
        sigma = [np.sqrt(corrected_covariance_fixed_shapes(*args, th, **kwargs).theta_block[0, 0])
                 for th in (theta, np.nextafter(theta, np.inf), np.nextafter(theta, -np.inf))]
        assert np.all(np.abs(np.array(sigma[1:]) / sigma[0] - 1.0) <= 1e-13)

    def test_zero_weight_event_where_the_density_underflows(self):
        # the fit ignores the event at t = 0, which has weight 0, but ln h(0)
        # is -inf: the weighted Hessian is undefined there, so the correction
        # raises instead of returning NaN
        d = Density1D("normal", [0.5, 0.01], Interval(0.0, 1.0))
        t = np.append(d.sample(np.random.default_rng(3), 500), 0.0)
        w = np.append(np.ones(500), 0.0)
        fit = fit_weighted_ml(t, w, d)
        assert fit.converged
        with pytest.raises(EvaluationError, match="non-finite"):
            corrected_covariance_fixed_shapes(t, w, None, d, fit.params)

    def test_mixture_vanishing_at_an_event(self):
        # with a zero background yield the mixture is 0 at every m above the
        # signal's range: C' is undefined there, so the correction raises
        # instead of returning a NaN theta block
        iv = Interval(0.0, 1.0)
        basis = [Density1D("uniform", [0.0, 0.5], iv), Density1D("normal", [0.5, 0.2], iv)]
        rng = np.random.default_rng(5)
        m = np.linspace(0.0, 1.0, 500)
        t = HS_TOY.sample(rng, 500)
        w = np.ones(500)
        fit = fit_weighted_ml(t, w, HS_TOY, bounds=[(0.05, 20.0)])
        with pytest.raises(EvaluationError, match=r"vanishes at observation 250 "):
            corrected_covariance_fixed_shapes(t, w, np.ones((500, 3)), HS_TOY, fit.params,
                                              basis=basis, yields=[250.0, 0.0], data_m=m)


@pytest.fixture(scope="module")
def hist_cow(weighted_toy):
    d = weighted_toy
    hist = variance_fn_qm(d["ds"].data, None, 30,
                          support=d["gs"].support)
    cow = build_cow(CowSpec(basis=[d["gs"], d["gb"]],
                            variance_fn=hist,
                            support=d["gs"].support))
    w = cow.weights(d["m"])[:, 0]
    tfit = fit_weighted_ml(d["t"], w, d["hs"], bounds=[(0.05, 20.0)])
    return cow, tfit


@pytest.fixture(scope="module")
def spec_and_root(weighted_toy):
    d = weighted_toy
    spec = QuasiScoreSpec(d["mfit"].model, d["hs"])
    lam = spec.lambda_from_fits(d["m"], d["mfit"], d["tfit"])
    return spec, lam


class TestCowCorrection:
    def test_deterministic_variance_equals_plain_sandwich(self, weighted_toy):
        d = weighted_toy
        z = float(d["mfit"].params[0] / d["mfit"].params[:2].sum())
        cow = build_cow(CowSpec(
            basis=[d["gs"], d["gb"]],
            variance_fn=_mixture([z, 1 - z], [d["gs"], d["gb"]]),
            support=d["gs"].support))
        w = cow.weights(d["m"])[:, 0]
        tfit = fit_weighted_ml(d["t"], w, d["hs"], bounds=[(0.05, 20.0)])
        a = corrected_covariance_cow(cow, d["ds"].data, d["hs"], tfit.params)
        b = corrected_covariance_fixed_shapes(d["t"], w, None, d["hs"],
                                              tfit.params)
        assert np.allclose(a.theta_block, b.theta_block, rtol=1e-12)

    def test_histogram_variance_bootstrap_deterministic(self, weighted_toy,
                                                        hist_cow):
        d = weighted_toy
        cow, tfit = hist_cow
        a = corrected_covariance_cow(cow, d["ds"].data, d["hs"], tfit.params,
                                     boot_seed=5)
        b = corrected_covariance_cow(cow, d["ds"].data, d["hs"], tfit.params,
                                     boot_seed=5)
        assert np.array_equal(a.theta_block, b.theta_block)
        assert a.theta_block[0, 0] > 0

    def test_histogram_variance_accounts_for_estimated_bins(self, weighted_toy,
                                                            hist_cow):
        # the resampled score spread includes the bin-content noise, so it
        # should be in the neighbourhood of the fixed-function sandwich,
        # not orders of magnitude away
        d = weighted_toy
        cow, tfit = hist_cow
        corr = corrected_covariance_cow(cow, d["ds"].data, d["hs"],
                                        tfit.params)
        ratio = corr.theta_block[0, 0] / corr.first_term[0, 0]
        assert 0.4 < ratio < 2.5

    @pytest.mark.parametrize("seed", [20260830, 20260832])
    @pytest.mark.parametrize("order", [3, 5])
    def test_naive_is_the_fit_covariance_under_an_efficiency(self, seed, order):
        # the correction weights each event by w / eps, as the fit does; a
        # product w * (1/eps) differs in the last bit for about 1 in 4 events.
        # A direct call reads eps from the cow, as the method does
        ds = toygen.generate(ToySpec(study="nonfactorising", n_events=2000, z=0.5,
                                     efficiency=True, seed=seed))
        ms = MethodSpec(name=f"cow{order}", kind="cow", variance="qm", qm_bins=50,
                        poly_order=order)
        weights = apply_method(ms, toygen._fit_models(ds, {False})[False], ds.data,
                               ds.efficiency)
        tfit = fit_weighted_ml(ds.column("t"), weights.w, HS_TOY, bounds=[(0.05, 20.0)])
        assert tfit.converged
        via_method = weights.covariance(HS_TOY, tfit.params)
        assert np.array_equal(via_method.naive, tfit.covariance)
        direct = corrected_covariance_cow(weights.cow, ds.data, HS_TOY, tfit.params)
        assert np.array_equal(direct.naive, tfit.covariance)
        assert np.array_equal(direct.theta_block, via_method.theta_block)

    def test_invalid_inputs(self, weighted_toy, hist_cow):
        d = weighted_toy
        cow, tfit = hist_cow
        with pytest.raises(EvaluationError):
            corrected_covariance_cow(cow, d["m"], d["hs"], tfit.params)
        with pytest.raises(EvaluationError):
            corrected_covariance_cow(cow, d["ds"].data, d["hs"], tfit.params,
                                     n_boot=1)


class TestFullSandwich:
    def test_fitted_values_are_a_score_root(self, weighted_toy, spec_and_root):
        d = weighted_toy
        spec, lam = spec_and_root
        S = spec.score(lam, d["m"], d["t"])
        assert np.max(np.abs(S)) < 1e-4 * len(d["m"])

    def test_full_sandwich_runs_and_orders(self, weighted_toy, spec_and_root):
        d = weighted_toy
        spec, lam = spec_and_root
        corr = corrected_covariance_full(d["ds"].data, spec, lam)
        assert corr.full.shape == (6, 6)
        assert corr.theta_block[0, 0] > 0
        # the two-step correction shrinks the slope variance below the
        # plain weighted sandwich
        plain = corrected_covariance_fixed_shapes(d["t"], d["w"], None,
                                                  d["hs"], d["tfit"].params)
        assert corr.theta_block[0, 0] < plain.theta_block[0, 0]

    def test_non_root_rejected(self, weighted_toy, spec_and_root):
        d = weighted_toy
        spec, lam = spec_and_root
        bad = lam.copy()
        bad[-1] *= 1.5
        with pytest.raises(EvaluationError, match="root"):
            corrected_covariance_full(d["ds"].data, spec, bad)

    def test_free_signal_shape(self, weighted_toy):
        # the fitted signal mean and width enter the joint score
        d = weighted_toy
        model = MixtureModel(
            [MixtureComponent("s", d["gs"], True), MixtureComponent("b", d["gb"], False)],
            np.array([1500.0, 1500.0]))
        mfit = fit_extended_ml(d["m"], model)
        assert mfit.converged
        gs_hat = mfit.model.components[0].density
        z = float(mfit.params[0] / mfit.params[:2].sum())
        w = weight_functions(compute_W_variant_B([gs_hat, d["gb"]], [z, 1 - z], d["m"]),
                             [gs_hat, d["gb"]]).w_k(0, d["m"])
        tfit = fit_weighted_ml(d["t"], w, d["hs"], bounds=[(0.05, 20.0)])
        spec = QuasiScoreSpec(model, d["hs"])
        lam = spec.lambda_from_fits(d["m"], mfit, tfit)
        assert np.array_equal(lam[:4], mfit.params)
        assert np.array_equal(spec.unpack(lam)[0].components[0].density.params, gs_hat.params)
        assert np.allclose(spec.weight_s(d["m"], lam), w, rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(spec.score(lam, d["m"], d["t"]))) < 1e-4 * len(d["m"])
        corr = corrected_covariance_full(d["ds"].data, spec, lam)
        assert corr.full.shape == (8, 8)
        assert 0 < corr.theta_block[0, 0]

    def test_wrong_length_rejected(self, weighted_toy, spec_and_root):
        d = weighted_toy
        spec, _ = spec_and_root
        with pytest.raises(EvaluationError):
            corrected_covariance_full(d["ds"].data, spec, np.zeros(4))

    @pytest.mark.parametrize("shape", [(5,), (5, 1), (2, 3, 2)])
    def test_data_without_two_columns_rejected(self, spec_and_root, shape):
        # 1-D data was a bare IndexError
        spec, lam = spec_and_root
        with pytest.raises(EvaluationError, match="columns"):
            corrected_covariance_full(np.zeros(shape), spec, lam)

    def test_pdf_calls(self, weighted_toy, monkeypatch, spec_and_root):
        # one evaluation gives the score, its per-event terms and the
        # closed-form Jacobian: each component's pdf is evaluated at the data
        # once, its values shared with the weights' dw/dW, and the control
        # density once for its weighted Hessian; a central difference of the
        # score would take 2 dim n more
        d = weighted_toy
        spec, lam = spec_and_root
        calls = count_pdf_calls(monkeypatch)
        corrected_covariance_full(d["ds"].data, spec, lam)
        n = len(spec.model.components)
        assert len(calls) == n + 1


def three_components(n, seed, free):
    """(data, model, m fit, control fit, signal weights) of a simple-study
    sample of n events plus n/4 events of a narrow peak in m, normal in t,
    the components' shapes free as ``free`` says; the weights are swB's."""
    ds = generate_simple(ToySpec(study="simple", n_events=n, z=0.3, seed=seed))
    gs, gb, hs, _ = simple_truth_densities()
    gp = Density1D("normal", [0.25, 0.03], gs.support)
    u = np.random.default_rng(seed).random((n // 4, 2))
    data = np.vstack([ds.data, np.column_stack([
        gp.ppf(u[:, 0]), Density1D("normal", [1.0, 0.3], T_IV).ppf(u[:, 1])])])
    model = MixtureModel([MixtureComponent(lab, g, f) for lab, g, f
                          in zip("sbp", (gs, gb, gp), free)], np.full(3, len(data) / 3))
    mfit = fit_extended_ml(data[:, 0], model)
    assert mfit.converged
    w = apply_method(MethodSpec("swB"), mfit, data).w
    tfit = fit_weighted_ml(data[:, 1], w, hs, bounds=[(0.05, 20.0)])
    assert tfit.converged
    return data, model, mfit, tfit, w


class TestThreeComponents:
    def test_known_shapes_match_the_fixed_shape_correction(self):
        # the joint quasi-score of n = 3 components, with its six-element W
        # block, against the fixed-shape C' path (criterion 06 for n = 2);
        # measured 5.4e-4 relative at N = 2e5
        data, model, mfit, tfit, w = three_components(160_000, 41, (False, False, False))
        m, t = data[:, 0], data[:, 1]
        spec = QuasiScoreSpec(model, HS_TOY)
        assert spec.dim == 3 + 6 + 1
        lam = spec.lambda_from_fits(m, mfit, tfit)
        full = corrected_covariance_full(data, spec, lam)
        basis = model.densities()
        wfs = weight_functions(compute_W_variant_B(basis, mfit.model.fractions, m), basis)
        assert np.array_equal(wfs.w_k(0, m), w)
        fixed = corrected_covariance_fixed_shapes(
            t, w, wfs.dw_dW(m), HS_TOY, tfit.params,
            basis=basis, yields=mfit.params[:3], data_m=m)
        rel = abs(full.theta_block[0, 0] / fixed.theta_block[0, 0] - 1.0)
        assert rel < 1e-3

    def test_free_signal_and_background_shapes(self):
        # lambda is laid out as the m fit's parameters: yields, the signal's
        # mean and width, the background slope (the peak is fixed), then W
        data, model, mfit, tfit, w = three_components(6000, 42, (True, True, False))
        m = data[:, 0]
        spec = QuasiScoreSpec(model, HS_TOY)
        lam = spec.lambda_from_fits(m, mfit, tfit)
        assert len(lam) == spec.dim == 6 + 6 + 1
        assert np.array_equal(lam[:6], mfit.params)
        # the weight of the W block equals apply_method's (measured 1e-12)
        assert np.allclose(spec.weight_s(m, lam), w, rtol=1e-9, atol=0)
        corr = corrected_covariance_full(data, spec, lam)   # passes the root check
        assert corr.full.shape == (13, 13)
        assert corr.theta_block[0, 0] > 0

    def test_fit_of_another_layout_rejected(self):
        data, model, mfit, tfit, _ = three_components(3000, 43, (True, False, False))
        fixed = model.fix_shapes()
        with pytest.raises(EvaluationError, match="parameters"):
            QuasiScoreSpec(fixed, HS_TOY).lambda_from_fits(data[:, 0], mfit, tfit)


# ---------------------------------------------------------------------------
# batched histogram-variance bootstrap


def loop_bootstrap_covariance(cow, data, hs_model, theta, eff=None,
                              n_boot=400, boot_seed=0):
    """The histogram-variance bootstrap one replica at a time, on the cow's
    per-bin Gram array B: the reference for the batched version
    (theta_block only)."""
    from cowlib.densities import ZERO_BIN_FLOOR
    from cowlib.wcov import _weighted_hessian

    data = np.asarray(data, dtype=float)
    m, t = data[:, 0], data[:, 1]
    n = len(m)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n_sig = cow.spec.n_signal
    inv_e = np.ones(n) if eff is None else 1.0 / np.asarray(eff(m, t), dtype=float)
    w = cow.weights(m)[:, :n_sig].sum(axis=1) * inv_e
    d1 = hs_model.with_params(theta).dlogpdf(t)
    H = _weighted_hessian(hs_model, t, w, theta)
    Hinv = np.linalg.inv(H)

    edges = np.asarray(cow.spec.variance_fn.data["edges"], dtype=float)
    nbins = len(edges) - 1
    widths = np.diff(edges)
    B = cow.B
    nb = len(B)
    G = cow.basis_values(m)
    jidx = np.clip(np.searchsorted(edges, m, side="right") - 1, 0, nbins - 1)
    fill = inv_e ** 2
    sel = np.zeros(nb)
    sel[:n_sig] = 1.0

    rng = np.random.default_rng(boot_seed)
    scores = []
    for _ in range(n_boot):
        mult = rng.poisson(1.0, size=n)
        raw = np.bincount(jidx, weights=mult * fill, minlength=nbins)
        pos = raw[raw > 0]
        if pos.size == 0:
            continue
        raw = np.where(raw > 0, raw, pos.min() * ZERO_BIN_FLOOR)
        I_bins = raw / (widths * raw.sum())
        try:
            # the signal row of W^-1, by a solve as the batched version takes
            # it: at order 5 cond(W) is ~1e7, and sel @ inv(W) differs from
            # the solve by ~1e-9 relative
            a = np.linalg.solve(np.einsum("klj,j->kl", B, 1.0 / I_bins), sel)
        except np.linalg.LinAlgError:
            continue
        w_rep = (a @ G) / I_bins[jidx] * inv_e
        scores.append(d1 @ (mult * w_rep))
    CS = np.cov(np.array(scores).T, ddof=1).reshape(len(theta), len(theta))
    block = Hinv @ CS @ Hinv.T
    return 0.5 * (block + block.T), len(scores)


def nonfact_hist_cow(n_events, seed, poly_order, bins):
    """Criterion-08-style histogram-variance cow on a non-factorising toy."""
    ds = generate_nonfactorising(ToySpec(study="nonfactorising",
                                         n_events=n_events, z=0.5,
                                         efficiency=True, seed=seed))
    gs, _, hs, _ = simple_truth_densities()
    hist = variance_fn_qm(ds.data, ds.efficiency, bins, support=gs.support)
    cow = build_cow(CowSpec(
        basis=[gs] + monomial_basis(poly_order + 1, gs.support),
        variance_fn=hist, support=gs.support,
        efficiency=ds.efficiency))
    return ds, cow, hs


class TestBatchedBootstrap:
    @pytest.mark.parametrize("poly_order", [1, 3, 5])
    def test_matches_replica_loop(self, poly_order):
        ds, cow, hs = nonfact_hist_cow(2000, 808, poly_order, 50)
        theta = np.array([TRUE_SLOPE])
        got = corrected_covariance_cow(cow, ds.data, hs, theta)
        ref, kept = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                              eff=ds.efficiency)
        assert kept == 400
        assert np.allclose(got.theta_block, ref, rtol=1e-10, atol=0.0)

    def test_two_parameter_control_density(self):
        # a normal in t has a two-component score per replica
        ds, cow, _ = nonfact_hist_cow(2000, 808, 3, 50)
        hs = Density1D("normal", [1.5, 0.5], T_IV)
        theta = np.array([1.4, 0.6])
        got = corrected_covariance_cow(cow, ds.data, hs, theta)
        ref, _ = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                           eff=ds.efficiency)
        assert got.theta_block.shape == (2, 2)
        assert np.allclose(got.theta_block, ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("n_events,bins,all_empty", [(12, 8, False),
                                                         (3, 4, True)])
    def test_tiny_sample_with_empty_bins(self, n_events, bins, all_empty):
        # most replicas leave bins empty (floored); with three events some
        # replicas draw no event at all and are skipped
        ds, cow, hs = nonfact_hist_cow(n_events, 4, 1, bins)
        theta = np.array([TRUE_SLOPE])
        for seed in (0, 3):
            got = corrected_covariance_cow(cow, ds.data, hs, theta, boot_seed=seed)
            ref, kept = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                                  eff=ds.efficiency,
                                                  boot_seed=seed)
            assert (kept < 400) == all_empty
            assert np.allclose(got.theta_block, ref, rtol=1e-10, atol=0.0)

    def test_fewer_than_two_replicas_kept_rejected(self):
        # one event, and all three replicas of boot_seed 22 draw it zero times
        ds, cow, hs = nonfact_hist_cow(1, 0, 1, 2)
        with pytest.raises(EvaluationError, match="bootstrap"):
            corrected_covariance_cow(cow, ds.data, hs, np.array([TRUE_SLOPE]),
                                     n_boot=3, boot_seed=22)

    def test_blocks_and_uncached_path_match_cached(self, monkeypatch):
        ds, cow, hs = nonfact_hist_cow(500, 17, 3, 20)
        theta = np.array([TRUE_SLOPE])

        def run():
            return corrected_covariance_cow(cow, ds.data, hs, theta,
                                            boot_seed=11).theta_block

        one_block = run()
        monkeypatch.setattr(wcov, "BOOT_BLOCK_ELEMENTS", 7 * 500 + 3)
        cached = run()
        monkeypatch.setattr(wcov, "BOOT_CACHE_ELEMENTS", 7 * 500)   # blocks of 7 replicas
        wcov._multiplicities.cache_clear()
        uncached = run()
        assert wcov._multiplicities.cache_info().currsize == 0
        assert np.array_equal(cached, uncached)
        ref, _ = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                           eff=ds.efficiency, boot_seed=11)
        for got in (one_block, cached, uncached):
            assert np.allclose(got, ref, rtol=1e-10, atol=0.0)

    def test_cached_multiplicities_are_the_replica_stream(self):
        mult = wcov._multiplicities(300, 40, 9)
        assert mult.dtype == np.uint8
        assert not mult.flags.writeable
        with pytest.raises(ValueError):
            mult[0, 0] = 1
        rng = np.random.default_rng(9)
        ref = np.stack([rng.poisson(1.0, size=300) for _ in range(40)])
        assert np.array_equal(mult, ref.T)
        assert wcov._multiplicities(300, 40, 9) is mult

    @pytest.mark.parametrize("draw", [300 * 3 + 7, 128])
    def test_blocks_are_the_replica_stream(self, monkeypatch, draw):
        # 40 replicas in the fewest blocks of at most 7 of them: six blocks of
        # 7 or 6, each drawn 3 replicas, or 128 events of one, at a time
        monkeypatch.setattr(wcov, "BOOT_BLOCK_ELEMENTS", draw)
        monkeypatch.setattr(wcov, "BOOT_CACHE_ELEMENTS", 7 * 300 + 5)
        blocks = list(wcov._poisson_blocks(300, 40, 9))
        assert [b.shape for b in blocks] == [(300, 7)] * 4 + [(300, 6)] * 2
        assert all(b.dtype == np.uint8 and not b.flags.writeable for b in blocks)
        rng = np.random.default_rng(9)
        ref = np.stack([rng.poisson(1.0, size=300) for _ in range(40)])
        assert np.array_equal(np.concatenate(blocks, axis=1), ref.T)

    def test_counts_above_255_are_kept(self, monkeypatch):
        # a block holding a count that uint8 cannot is promoted to int64
        real = np.random.default_rng

        class Large:
            def __init__(self, seed):
                self.rng = real(seed)

            def poisson(self, lam, size):
                return self.rng.poisson(lam, size=size) * 100

        monkeypatch.setattr(np.random, "default_rng", Large)
        monkeypatch.setattr(wcov, "BOOT_CACHE_ELEMENTS", 7 * 300)
        blocks = list(wcov._poisson_blocks(300, 40, 9))
        assert all(b.dtype == np.int64 for b in blocks)
        rng = real(9)
        ref = np.stack([rng.poisson(1.0, size=300) for _ in range(40)]) * 100
        assert np.array_equal(np.concatenate(blocks, axis=1), ref.T)

    @pytest.mark.parametrize("n_sig", [1, 2])
    def test_signal_rows_mark_only_the_singular_matrix(self, n_sig):
        # a batch holding one exactly singular W: the batched solve fails, the
        # matrices are solved one by one, and only that one is marked
        rng = np.random.default_rng(5)
        M = rng.normal(size=(6, 4, 4))
        W = M @ M.transpose(0, 2, 1) + 4.0 * np.eye(4)
        W[2] = np.ones((4, 4))
        a, ok = wcov._signal_rows(W, n_sig)
        assert ok.tolist() == [True, True, False, True, True, True]
        ref = np.linalg.inv(W[ok])[:, :n_sig].sum(axis=1)
        np.testing.assert_allclose(a[ok], ref, rtol=1e-12, atol=0)
        full, all_ok = wcov._signal_rows(W[ok], n_sig)   # one batched solve
        assert all_ok.all()
        np.testing.assert_allclose(full, ref, rtol=1e-12, atol=0)

    def test_singular_replicas_skipped_like_the_loop(self, monkeypatch):
        # make the batched solve fail, and every fifth replica's weight
        # matrix count as singular, in both implementations alike
        ds, cow, hs = nonfact_hist_cow(500, 17, 1, 20)
        nb = len(cow.spec.basis)
        theta = np.array([TRUE_SLOPE])
        real_solve = np.linalg.solve
        calls = {"n": 0}

        def flaky_solve(a, b):
            a = np.asarray(a)
            if a.ndim == 3:
                raise np.linalg.LinAlgError("batched")
            if a.shape == (nb, nb):
                calls["n"] += 1
                if calls["n"] % 5 == 0:
                    raise np.linalg.LinAlgError("singular")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", flaky_solve)
        got = corrected_covariance_cow(cow, ds.data, hs, theta)
        calls["n"] = 0
        ref, kept = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                              eff=ds.efficiency)
        assert kept == 320
        assert np.allclose(got.theta_block, ref, rtol=1e-10, atol=0.0)


def loop_histogram_weight_matrices(cow, data, eff, n_boot, boot_seed):
    """Per-replica weight matrices of the bootstrap, from the cow's per-bin
    Gram array B and np.bincount bin contents, one replica at a time (the
    empty replicas left out)."""
    from cowlib.densities import ZERO_BIN_FLOOR

    m, t = data[:, 0], data[:, 1]
    fill = (1.0 / np.asarray(eff(m, t), dtype=float)) ** 2
    edges = np.asarray(cow.spec.variance_fn.data["edges"], dtype=float)
    nbins = len(edges) - 1
    widths = np.diff(edges)
    jidx = np.clip(np.searchsorted(edges, m, side="right") - 1, 0, nbins - 1)
    rng = np.random.default_rng(boot_seed)
    inv_I = []
    for _ in range(n_boot):
        raw = np.bincount(jidx, weights=rng.poisson(1.0, size=len(m)) * fill,
                          minlength=nbins)
        pos = raw[raw > 0]
        if pos.size:
            raw = np.where(raw > 0, raw, pos.min() * ZERO_BIN_FLOOR)
            inv_I.append(1.0 / (raw / (widths * raw.sum())))
    return np.einsum("klj,rj->rkl", cow.B, np.array(inv_I)), np.bincount(jidx)


def narrow_peak_cow(sigma, seed=1):
    """A qm cow (50 bins, no efficiency) with basis a normal(0.45, sigma)
    peak and monomial_basis(2) on [0, 1], and its sample: 6000 events of the
    peak with t from exponential(2.0) and 14 000 uniform ones with t from
    exponential(0.5), on [0, 3]."""
    rng = np.random.default_rng(seed)
    iv = Interval(0.0, 1.0)
    peak = Density1D("normal", [0.45, sigma], iv)
    m = np.concatenate([peak.sample(rng, 6000), rng.random(14000)])
    t = np.concatenate([Density1D("exponential", [2.0], T_IV).sample(rng, 6000),
                        Density1D("exponential", [0.5], T_IV).sample(rng, 14000)])
    data = np.column_stack([m, t])
    cow = build_cow(CowSpec(basis=[peak] + monomial_basis(2, iv),
                            variance_fn=variance_fn_qm(data, None, 50, iv), support=iv))
    return cow, data


class TestNarrowPeakBootstrap:
    """The replica weight matrices are summed from the cow's own per-bin
    Gram array B, so a peak narrower than a bin is not missed."""

    @pytest.mark.parametrize("sigma", [1e-3, 3e-4])
    def test_bootstrap_sigma_near_the_plain_sandwich(self, sigma):
        cow, data = narrow_peak_cow(sigma)
        corr = corrected_covariance_cow(cow, data, Density1D("exponential", [2.0], T_IV), [2.0])
        assert 0.9 < np.sqrt(corr.theta_block[0, 0] / corr.first_term[0, 0]) < 1.1

    def test_unit_multiplicities_give_the_cow_W(self, monkeypatch):
        # every replica draws every event once: its histogram is the cow's
        cow, data = narrow_peak_cow(1e-3)
        monkeypatch.setattr(wcov, "_multiplicities",
                            lambda n, n_boot, seed: np.ones((n, n_boot), dtype=np.uint8))
        seen = []
        signal_rows = wcov._signal_rows
        monkeypatch.setattr(wcov, "_signal_rows",
                            lambda W, n_sig: seen.append(W) or signal_rows(W, n_sig))
        corrected_covariance_cow(cow, data, Density1D("exponential", [2.0], T_IV), [2.0],
                                 n_boot=4)
        W, = seen
        assert W.shape == (4, 3, 3)
        np.testing.assert_allclose(W, np.broadcast_to(cow.W, W.shape), rtol=1e-13, atol=0)


class TestBootstrapLayout:
    """The per-bin layout of the bootstrap: exact bin contents, bounded
    temporaries, no cache on the uncached path, and the kept-replica count."""

    def test_bin_contents_reproduce_bincount_exactly(self, monkeypatch):
        # the weight matrices handed to the solve are built from the bin
        # contents; they match the np.bincount ones bit for bit, also when
        # bins hold more events than one chunk
        ds, cow, hs = nonfact_hist_cow(500, 17, 3, 6)
        monkeypatch.setattr(wcov, "BOOT_BLOCK_ELEMENTS", 7 * 400 + 3)
        seen = []
        real = wcov._signal_rows

        def spy(W, n_sig):
            seen.append(W.copy())
            return real(W, n_sig)

        monkeypatch.setattr(wcov, "_signal_rows", spy)
        corrected_covariance_cow(cow, ds.data, hs, np.array([TRUE_SLOPE]), boot_seed=3)
        ref, counts = loop_histogram_weight_matrices(cow, ds.data, ds.efficiency,
                                                     400, 3)
        assert counts.min() > 7
        assert np.array_equal(np.concatenate(seen), ref)

    @pytest.mark.parametrize("cache", [True, False])
    def test_bins_larger_than_a_block_match_the_loop(self, monkeypatch, cache):
        # two bins of ~250 events each, summed 7 events at a time
        ds, cow, hs = nonfact_hist_cow(500, 17, 3, 2)
        theta = np.array([TRUE_SLOPE])
        monkeypatch.setattr(wcov, "BOOT_BLOCK_ELEMENTS", 7 * 400 + 3)
        if not cache:
            monkeypatch.setattr(wcov, "BOOT_CACHE_ELEMENTS", 0)
        got = corrected_covariance_cow(cow, ds.data, hs, theta, boot_seed=11)
        ref, kept = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                              eff=ds.efficiency, boot_seed=11)
        assert got.boot_kept == kept == 400
        assert np.allclose(got.theta_block, ref, rtol=1e-10, atol=0.0)

    def test_uncached_path_caches_no_multiplicity_matrix(self, monkeypatch):
        n, n_boot = 500, 400
        ds, cow, hs = nonfact_hist_cow(n, 17, 3, 20)

        def run():
            return corrected_covariance_cow(cow, ds.data, hs,
                                            np.array([TRUE_SLOPE]),
                                            boot_seed=11).theta_block

        run()
        wcov._multiplicities.cache_clear()
        tracemalloc.start()
        try:
            # the cached path keeps its (N, n_boot) uint8 matrix alive, which
            # shows that the measurement sees such a matrix
            before = tracemalloc.get_traced_memory()[0]
            cached = run()
            held_cached = tracemalloc.get_traced_memory()[0] - before

            monkeypatch.setattr(wcov, "BOOT_CACHE_ELEMENTS", 7 * n)   # blocks of 7 replicas
            wcov._multiplicities.cache_clear()
            monkeypatch.setattr(wcov, "_multiplicities", None)
            drawn = []
            poisson_blocks = wcov._poisson_blocks

            def counted_blocks(*args):
                for block in poisson_blocks(*args):
                    drawn.append(block.shape[1])
                    yield block

            monkeypatch.setattr(wcov, "_poisson_blocks", counted_blocks)
            before = tracemalloc.get_traced_memory()[0]
            uncached = run()
            held_uncached = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(drawn) == n_boot            # the stream was drawn afresh
        assert held_cached >= n * n_boot
        assert held_uncached < n * n_boot // 4
        assert np.array_equal(cached, uncached)

    @pytest.mark.parametrize("layout", ["cached", "streamed"])
    def test_memory_per_call_does_not_grow_with_n_times_n_boot(self, monkeypatch, layout):
        # from 1000 to 8000 events the peak memory of a call grows by less
        # than one byte per (replica, event): no copy of the multiplicity
        # matrix, let alone a float one, is made per call, and the streamed
        # layout holds one block of 7 replicas at a time
        n_boot = 400
        theta = np.array([TRUE_SLOPE])
        peaks = []
        for n in (1000, 8000):
            if layout == "streamed":
                monkeypatch.setattr(wcov, "BOOT_CACHE_ELEMENTS", 7 * n)
            ds, cow, hs = nonfact_hist_cow(n, 808, 3, 20)
            corrected_covariance_cow(cow, ds.data, hs, theta)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                corrected_covariance_cow(cow, ds.data, hs, theta)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < (8000 - 1000) * n_boot

    def test_streamed_blocks_hold_many_replicas(self, monkeypatch):
        # with draws of fewer events than a sample and blocks of 50
        # replicas, the bins are passed once per block, not once per replica
        n = 500
        ds, cow, hs = nonfact_hist_cow(n, 17, 3, 20)
        theta = np.array([TRUE_SLOPE])
        monkeypatch.setattr(wcov, "BOOT_BLOCK_ELEMENTS", 400)
        monkeypatch.setattr(wcov, "BOOT_CACHE_ELEMENTS", 50 * n)
        widths = []
        replica_scores = wcov._replica_scores

        def counted(X, *args):
            widths.append(X.shape[1])
            return replica_scores(X, *args)

        monkeypatch.setattr(wcov, "_replica_scores", counted)
        got = corrected_covariance_cow(cow, ds.data, hs, theta, boot_seed=11)
        assert widths == [50] * 8
        ref, kept = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                              eff=ds.efficiency, boot_seed=11)
        assert got.boot_kept == kept == 400
        assert np.allclose(got.theta_block, ref, rtol=1e-10, atol=0.0)

    def test_boot_kept_counts_the_replicas_like_the_loop(self, monkeypatch):
        ds, cow, hs = nonfact_hist_cow(3, 4, 1, 4)
        theta = np.array([TRUE_SLOPE])
        got = corrected_covariance_cow(cow, ds.data, hs, theta)
        _, kept = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                            eff=ds.efficiency)
        assert got.boot_kept == kept < 400
        assert "boot_kept" not in got.to_dict()
        unity = corrected_covariance_cow(
            build_cow(CowSpec(basis=cow.spec.basis, variance_fn=Density1D("uniform", [], cow.spec.support),
                              support=cow.spec.support)),
            ds.data, hs, theta)
        assert unity.boot_kept is None

    def test_boot_kept_without_singular_replicas(self, monkeypatch):
        # every fifth replica's weight matrix counts as singular
        ds, cow, hs = nonfact_hist_cow(500, 17, 1, 20)
        nb = len(cow.spec.basis)
        real_solve = np.linalg.solve
        calls = {"n": 0}

        def flaky_solve(a, b):
            a = np.asarray(a)
            if a.ndim == 3:
                raise np.linalg.LinAlgError("batched")
            if a.shape == (nb, nb):
                calls["n"] += 1
                if calls["n"] % 5 == 0:
                    raise np.linalg.LinAlgError("singular")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", flaky_solve)
        got = corrected_covariance_cow(cow, ds.data, hs, np.array([TRUE_SLOPE]))
        assert got.boot_kept == 320

    def test_basis_evaluated_once_at_the_data(self, monkeypatch):
        from cowlib.cows import CowSet
        ds, cow, hs = nonfact_hist_cow(500, 17, 3, 20)
        sizes = []
        basis_values = CowSet.basis_values

        def counted(self, m):
            sizes.append(np.size(m))
            return basis_values(self, m)

        monkeypatch.setattr(CowSet, "basis_values", counted)
        corrected_covariance_cow(cow, ds.data, hs, np.array([TRUE_SLOPE]))
        assert sizes.count(500) == 1


def nonfact_family(n_events, seed, orders, bins):
    """Criterion-08-style histogram-variance cows of several polynomial
    orders on one histogram, their bases the leading elements of one."""
    ds = generate_nonfactorising(ToySpec(study="nonfactorising", n_events=n_events, z=0.5,
                                         efficiency=True, seed=seed))
    gs, _, hs, _ = simple_truth_densities()
    hist = variance_fn_qm(ds.data, ds.efficiency, bins, support=gs.support)
    top = [gs] + monomial_basis(max(orders) + 1, gs.support)
    cows = [build_cow(CowSpec(basis=top[:p + 2], variance_fn=hist, support=gs.support,
                              efficiency=ds.efficiency)) for p in orders]
    return ds, cows, hs


def assert_same_covariance(got, want):
    for key in ("theta_block", "naive", "first_term"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    assert got.boot_kept == want.boot_kept


class TestFamilyPass:
    """Histogram-variance cows of nested bases share one bootstrap pass, and
    each gets what its own call gives."""

    THETAS = [np.array([1.9]), np.array([2.0]), np.array([2.1])]

    @pytest.mark.parametrize("layout", ["cached", "uncached", "chunked", "chunked-uncached"])
    def test_family_is_solo_bit_for_bit(self, monkeypatch, layout):
        # one-replica blocks make a pass over the bins per replica: a smaller
        # sample and fewer replicas
        n, bins, n_boot = (500, 20, 100) if layout == "chunked-uncached" else (2000, 50, 400)
        ds, cows, hs = nonfact_family(n, 808, (1, 3, 5), bins)
        if layout.startswith("chunked"):
            # 8 events per chunk of a bin
            monkeypatch.setattr(wcov, "BOOT_BLOCK_ELEMENTS", 8 * n_boot + 3)
        if layout.endswith("uncached"):
            # blocks of 7 replicas (to within one), or chunked of one
            monkeypatch.setattr(wcov, "BOOT_CACHE_ELEMENTS",
                                0 if layout.startswith("chunked") else 7 * n)
            wcov._multiplicities.cache_clear()
        widths = []
        replica_scores = wcov._replica_scores

        def counted(X, *args):
            widths.append(X.shape[1])
            return replica_scores(X, *args)

        monkeypatch.setattr(wcov, "_replica_scores", counted)
        family = wcov.corrected_covariance_cows(cows, ds.data, hs, self.THETAS,
                                                n_boot=n_boot, boot_seed=5)
        # the replicas in the blocks of the layout
        assert sum(widths) == n_boot
        assert max(widths) == {"cached": 400, "chunked": 400, "uncached": 7,
                               "chunked-uncached": 1}[layout]
        for cow, theta, got in zip(cows, self.THETAS, family):
            assert got.boot_kept == n_boot
            assert_same_covariance(got, corrected_covariance_cow(cow, ds.data, hs, theta,
                                                                 n_boot=n_boot, boot_seed=5))
        if layout.endswith("uncached"):
            assert wcov._multiplicities.cache_info().currsize == 0

    def test_order_of_the_family_does_not_matter(self):
        ds, cows, hs = nonfact_family(500, 17, (3, 1, 5), 20)
        family = wcov.corrected_covariance_cows(cows, ds.data, hs, self.THETAS)
        for cow, theta, got in zip(cows, self.THETAS, family):
            assert_same_covariance(got, corrected_covariance_cow(cow, ds.data, hs, theta))

    def test_one_pass_over_the_bins(self, monkeypatch):
        ds, cows, hs = nonfact_family(500, 17, (1, 3, 5), 20)
        calls = []
        replica_scores = wcov._replica_scores

        def counted(*args):
            calls.append([y.shape[1] for y in args[4]])
            return replica_scores(*args)

        monkeypatch.setattr(wcov, "_replica_scores", counted)
        wcov.corrected_covariance_cows(cows, ds.data, hs, self.THETAS)
        assert calls == [[3, 5, 7]]   # one call, with the score rows of each cow

    def test_a_member_fails_alone(self, monkeypatch):
        # the weighted Hessian of the order-3 cow at its theta is singular
        ds, cows, hs = nonfact_family(500, 17, (1, 3, 5), 20)
        weighted_hessian = wcov._weighted_hessian

        def singular_at_2(hs_model, t, w, theta):
            H = weighted_hessian(hs_model, t, w, theta)
            return np.zeros_like(H) if theta[0] == 2.0 else H

        monkeypatch.setattr(wcov, "_weighted_hessian", singular_at_2)
        family = wcov.corrected_covariance_cows(cows, ds.data, hs, self.THETAS)
        assert isinstance(family[1], EvaluationError)
        assert str(family[1]) == "weighted Hessian is singular"
        with pytest.raises(EvaluationError, match="weighted Hessian is singular"):
            corrected_covariance_cow(cows[1], ds.data, hs, self.THETAS[1])
        pair = wcov.corrected_covariance_cows([cows[0], cows[2]], ds.data, hs,
                                              [self.THETAS[0], self.THETAS[2]])
        for got, want in zip((family[0], family[2]), pair):
            assert_same_covariance(got, want)

    def test_shared_errors_reach_every_member(self):
        ds, cows, hs = nonfact_family(500, 17, (1, 3), 20)
        family = wcov.corrected_covariance_cows(cows, ds.data, hs, self.THETAS[:2], n_boot=1)
        assert [str(e) for e in family] == ["n_boot must be at least 2"] * 2
        family = wcov.corrected_covariance_cows(cows, ds.data[:, :1], hs, self.THETAS[:2])
        assert [str(e) for e in family] == ["data must have columns (m, t)"] * 2

    def test_cows_that_share_no_pass_are_rejected(self):
        ds, cows, hs = nonfact_family(500, 17, (1, 3), 20)
        other_bins = nonfact_family(500, 17, (1, 3), 10)[1]
        other_basis = nonfact_family(500, 17, (1, 3), 20)[1]
        without_B = CowSet(cows[1].spec, cows[1].W, cows[1].A)
        for pair in ([cows[0], with_efficiency(cows[1], None)],
                     [cows[0], other_bins[1]],
                     [cows[0], other_basis[1]],
                     [cows[0], without_B]):
            with pytest.raises(ValueError, match="family"):
                wcov.corrected_covariance_cows(pair, ds.data, hs, self.THETAS[:2])
