"""Covariance corrections for fits to weighted data."""

import tracemalloc

import numpy as np
import pytest

from cowlib import (Density1D, EvaluationError, Interval, MixtureComponent,
                    MixtureModel, fit_extended_ml,
                    fit_weighted_ml, monomial_basis, toygen, wcov)
from cowlib.cows import (CowSpec, MixtureVariance,
                         UnityVariance, build_cow, variance_fn_qm)
from cowlib.methods import MethodSpec, apply_method
from cowlib.sweights import compute_W_variant_B, weight_functions
from cowlib.toygen import (TRUE_SLOPE, ToySpec, generate_nonfactorising,
                           generate_simple, simple_truth_densities)
from cowlib.wcov import (QuasiScoreSpec, corrected_covariance_cow,
                         corrected_covariance_fixed_shapes,
                         corrected_covariance_full, equivalent_events,
                         variance_sum_weights)
from conftest import count_pdf_calls

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
            variance_fn=MixtureVariance([z, 1 - z], [d["gs"], d["gb"]]),
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
        # product w * (1/eps) differs in the last bit for about 1 in 4 events
        ds = toygen.generate(ToySpec(study="nonfactorising", n_events=2000, z=0.5,
                                     efficiency=True, seed=seed))
        ms = MethodSpec(name=f"cow{order}", kind="cow", variance="qm", qm_bins=50,
                        poly_order=order)
        weights = apply_method(ms, toygen._fit_models(ds, {False})[False], ds.data,
                               ds.efficiency)
        tfit = fit_weighted_ml(ds.column("t"), weights.w, HS_TOY, bounds=[(0.05, 20.0)])
        assert tfit.converged
        assert np.array_equal(weights.covariance(HS_TOY, tfit.params).naive, tfit.covariance)

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
        # the Jacobian is closed-form: each component's pdf is evaluated at
        # the data by the score, the score covariance and the Jacobian, and
        # once more by the weights' dw/dW, and the control density once for
        # its weighted Hessian; a central difference of the score would take
        # 2 dim n more
        d = weighted_toy
        spec, lam = spec_and_root
        calls = count_pdf_calls(monkeypatch)
        corrected_covariance_full(d["ds"].data, spec, lam)
        n = len(spec.model.components)
        assert len(calls) == 4 * n + 1


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
                              quad_points=16, n_boot=400, boot_seed=0):
    """The histogram-variance bootstrap one replica at a time: the reference
    for the batched version (theta_block only)."""
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
    x, gq = np.polynomial.legendre.leggauss(quad_points)
    half = 0.5 * widths
    nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * x[None, :]
    gv = cow.basis_values(nodes.ravel())
    nb = gv.shape[0]
    gv = gv.reshape(nb, nbins, quad_points)
    B = np.einsum("kjq,ljq,q,j->klj", gv, gv, gq, half)
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
            A = np.linalg.inv(np.einsum("klj,j->kl", B, 1.0 / I_bins))
        except np.linalg.LinAlgError:
            continue
        w_rep = ((sel @ A) @ G) / I_bins[jidx] * inv_e
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
        got = corrected_covariance_cow(cow, ds.data, hs, theta, eff=ds.efficiency)
        ref, kept = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                              eff=ds.efficiency)
        assert kept == 400
        assert np.allclose(got.theta_block, ref, rtol=1e-10, atol=0.0)

    def test_two_parameter_control_density(self):
        # a normal in t has a two-component score per replica
        ds, cow, _ = nonfact_hist_cow(2000, 808, 3, 50)
        hs = Density1D("normal", [1.5, 0.5], T_IV)
        theta = np.array([1.4, 0.6])
        got = corrected_covariance_cow(cow, ds.data, hs, theta, eff=ds.efficiency)
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
            got = corrected_covariance_cow(cow, ds.data, hs, theta,
                                           eff=ds.efficiency, boot_seed=seed)
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
                                     eff=ds.efficiency, n_boot=3,
                                     boot_seed=22)

    def test_blocks_and_uncached_path_match_cached(self, monkeypatch):
        ds, cow, hs = nonfact_hist_cow(500, 17, 3, 20)
        theta = np.array([TRUE_SLOPE])

        def run():
            return corrected_covariance_cow(cow, ds.data, hs, theta,
                                            eff=ds.efficiency,
                                            boot_seed=11).theta_block

        one_block = run()
        monkeypatch.setattr(wcov, "BOOT_BLOCK_ELEMENTS", 7 * 500 + 3)
        cached = run()
        monkeypatch.setattr(wcov, "BOOT_CACHE_ELEMENTS", 0)
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
        assert np.array_equal(mult, ref)
        assert wcov._multiplicities(300, 40, 9) is mult

    def test_singular_replicas_skipped_like_the_loop(self, monkeypatch):
        # make the batched inverse fail, and every fifth replica's weight
        # matrix count as singular, in both implementations alike
        ds, cow, hs = nonfact_hist_cow(500, 17, 1, 20)
        nb = len(cow.spec.basis)
        theta = np.array([TRUE_SLOPE])
        real_inv = np.linalg.inv
        calls = {"n": 0}

        def flaky_inv(a):
            a = np.asarray(a)
            if a.ndim == 3:
                raise np.linalg.LinAlgError("batched")
            if a.shape == (nb, nb):
                calls["n"] += 1
                if calls["n"] % 5 == 0:
                    raise np.linalg.LinAlgError("singular")
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", flaky_inv)
        got = corrected_covariance_cow(cow, ds.data, hs, theta,
                                       eff=ds.efficiency)
        calls["n"] = 0
        ref, kept = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                              eff=ds.efficiency)
        assert kept == 320
        assert np.allclose(got.theta_block, ref, rtol=1e-10, atol=0.0)


def loop_histogram_weight_matrices(cow, data, eff, n_boot, boot_seed):
    """Per-replica weight matrices of the bootstrap, from np.bincount bin
    contents and one replica at a time (the empty replicas left out)."""
    from cowlib.densities import ZERO_BIN_FLOOR

    m, t = data[:, 0], data[:, 1]
    fill = (1.0 / np.asarray(eff(m, t), dtype=float)) ** 2
    edges = np.asarray(cow.spec.variance_fn.data["edges"], dtype=float)
    nbins = len(edges) - 1
    widths = np.diff(edges)
    x, gq = np.polynomial.legendre.leggauss(16)
    half = 0.5 * widths
    nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * x[None, :]
    gv = cow.basis_values(nodes.ravel())
    gv = gv.reshape(len(gv), nbins, 16)
    B = np.einsum("kjq,ljq,q,j->klj", gv, gv, gq, half)
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
    return np.einsum("klj,rj->rkl", B, np.array(inv_I)), np.bincount(jidx)


class TestBootstrapLayout:
    """The per-bin layout of the bootstrap: exact bin contents, bounded
    temporaries, no cache on the uncached path, and the kept-replica count."""

    def test_bin_contents_reproduce_bincount_exactly(self, monkeypatch):
        # the weight matrices handed to the inverse are built from the bin
        # contents; they match the np.bincount ones bit for bit, also when
        # bins hold more events than one chunk
        ds, cow, hs = nonfact_hist_cow(500, 17, 3, 6)
        monkeypatch.setattr(wcov, "BOOT_BLOCK_ELEMENTS", 7 * 400 + 3)
        seen = []
        real = wcov._inverses

        def spy(W):
            seen.append(W.copy())
            return real(W)

        monkeypatch.setattr(wcov, "_inverses", spy)
        corrected_covariance_cow(cow, ds.data, hs, np.array([TRUE_SLOPE]),
                                 eff=ds.efficiency, boot_seed=3)
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
        got = corrected_covariance_cow(cow, ds.data, hs, theta,
                                       eff=ds.efficiency, boot_seed=11)
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
                                            eff=ds.efficiency,
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

            monkeypatch.setattr(wcov, "BOOT_CACHE_ELEMENTS", 0)
            wcov._multiplicities.cache_clear()
            monkeypatch.setattr(wcov, "_multiplicities", None)
            drawn = []
            poisson_rows = wcov._poisson_rows

            def counted_rows(*args):
                for block in poisson_rows(*args):
                    drawn.append(len(block))
                    yield block

            monkeypatch.setattr(wcov, "_poisson_rows", counted_rows)
            before = tracemalloc.get_traced_memory()[0]
            uncached = run()
            held_uncached = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(drawn) == n_boot            # the stream was drawn afresh
        assert held_cached >= n * n_boot
        assert held_uncached < n * n_boot // 4
        assert np.array_equal(cached, uncached)

    def test_memory_per_call_does_not_grow_with_n_times_n_boot(self):
        # from 1000 to 8000 events the peak memory of a call grows by less
        # than one byte per (replica, event): no copy of the multiplicity
        # matrix, let alone a float one, is made per call
        n_boot = 400
        theta = np.array([TRUE_SLOPE])
        peaks = []
        for n in (1000, 8000):
            ds, cow, hs = nonfact_hist_cow(n, 808, 3, 20)
            corrected_covariance_cow(cow, ds.data, hs, theta, eff=ds.efficiency)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                corrected_covariance_cow(cow, ds.data, hs, theta,
                                         eff=ds.efficiency)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < (8000 - 1000) * n_boot

    def test_boot_kept_counts_the_replicas_like_the_loop(self, monkeypatch):
        ds, cow, hs = nonfact_hist_cow(3, 4, 1, 4)
        theta = np.array([TRUE_SLOPE])
        got = corrected_covariance_cow(cow, ds.data, hs, theta,
                                       eff=ds.efficiency)
        _, kept = loop_bootstrap_covariance(cow, ds.data, hs, theta,
                                            eff=ds.efficiency)
        assert got.boot_kept == kept < 400
        assert "boot_kept" not in got.to_dict()
        unity = corrected_covariance_cow(
            build_cow(CowSpec(basis=cow.spec.basis, variance_fn=UnityVariance(),
                              support=cow.spec.support)),
            ds.data, hs, theta)
        assert unity.boot_kept is None

    def test_boot_kept_without_singular_replicas(self, monkeypatch):
        # every fifth replica's weight matrix counts as singular
        ds, cow, hs = nonfact_hist_cow(500, 17, 1, 20)
        nb = len(cow.spec.basis)
        real_inv = np.linalg.inv
        calls = {"n": 0}

        def flaky_inv(a):
            a = np.asarray(a)
            if a.ndim == 3:
                raise np.linalg.LinAlgError("batched")
            if a.shape == (nb, nb):
                calls["n"] += 1
                if calls["n"] % 5 == 0:
                    raise np.linalg.LinAlgError("singular")
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", flaky_inv)
        got = corrected_covariance_cow(cow, ds.data, hs, np.array([TRUE_SLOPE]),
                                       eff=ds.efficiency)
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
        corrected_covariance_cow(cow, ds.data, hs, np.array([TRUE_SLOPE]),
                                 eff=ds.efficiency)
        assert sizes.count(500) == 1
