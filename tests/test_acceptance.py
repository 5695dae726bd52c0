"""End-to-end statistical validation of the whole package.

Each test function checks one headline property of the weight-extraction
chain, from closed-form oracles through large toy ensembles.  Run with
``pytest -v`` to get one pass/fail line per property.
"""

import numpy as np
import pytest

from functools import partial

from cowlib import (FitResult, Interval, MixtureComponent, MixtureModel,
                    compute_W_variant_A, compute_W_variant_B,
                    compute_W_variant_C, fit_extended_ml, fit_weighted_ml,
                    integrate, kendall_tau, make_density, monomial_basis,
                    weight_functions, yields_only_refit)
from cowlib.cows import (CowSpec, MixtureVariance, UnityVariance, build_cow)
from cowlib.sweights import WeightMatrix
from cowlib.toygen import (EnsembleConfig, MethodSpec, ToySpec,
                           generate_simple, run_ensemble, run_toy,
                           simple_truth_densities)
from cowlib.wcov import (QuasiScoreSpec, corrected_covariance_fixed_shapes,
                         corrected_covariance_full)

from conftest import BOX_W, sample_box_mixture

UNIT = Interval(0.0, 1.0)


def _box_densities():
    gs = make_density("uniform", [0.0, 0.5], UNIT)
    gb = make_density("uniform", [0.0, 1.0], UNIT)
    return gs, gb


def _yields_only_model(n):
    gs, gb, _, _ = simple_truth_densities()
    return MixtureModel(
        [MixtureComponent("s", gs, False), MixtureComponent("b", gb, False)],
        np.array([0.5 * n, 0.5 * n]))


def test_criterion_01_analytic_box_oracle():
    """Piecewise-uniform model: the closed-form weight matrix and the
    +1/-1 weight values are reproduced by quadrature exactly and by the
    per-event sum within Monte Carlo error at N = 1e5."""
    gs, gb = _box_densities()
    wm_a = compute_W_variant_A([gs, gb], [0.5, 0.5], UNIT)
    assert np.allclose(wm_a.W, BOX_W, atol=1e-9)
    wfs = weight_functions(wm_a, [gs, gb])
    assert np.allclose(wfs.w_k(0, [0.1, 0.25, 0.49]), 1.0, atol=1e-9)
    assert np.allclose(wfs.w_k(0, [0.51, 0.75, 0.9]), -1.0, atol=1e-9)

    rng = np.random.default_rng(12345)
    m = sample_box_mixture(rng, 100_000, z=0.5)
    wm_b = compute_W_variant_B([gs, gb], [0.5, 0.5], m)
    assert np.allclose(wm_b.W, BOX_W, atol=0.02)


def test_criterion_02_orthonormality_and_unit_sum():
    """Weight functions are orthonormal against the component densities
    (within 1e-6 under each variant's own measure) and sum to unity within
    1e-9 on a 1e4-point grid, for all weight variants and for generalized
    weights whose variance function lies in the basis span."""
    gs, gb, _, _ = simple_truth_densities()
    ds = generate_simple(ToySpec(study="simple", n_events=2000, z=0.3, seed=77))
    fit = fit_extended_ml(ds.m, _yields_only_model(2000))
    assert fit.converged
    z = float(fit.params[0] / fit.params[:2].sum())
    grid = np.linspace(0.0, 1.0, 10_000)

    def check_empirical(wfs):
        g = z * gs.pdf(ds.m) + (1.0 - z) * gb.pdf(ds.m)
        for i, wfn in enumerate((partial(wfs.w_k, 0), partial(wfs.w_k, 1))):
            for j, gfn in enumerate((gs, gb)):
                val = np.sum(wfn(ds.m) * gfn.pdf(ds.m) / g) / len(ds.m)
                assert val == pytest.approx(float(i == j), abs=1e-6)

    # quadrature-matrix variant: orthonormality under the Lebesgue measure
    wm_a = compute_W_variant_A([gs, gb], [z, 1 - z], UNIT)
    wfs_a = weight_functions(wm_a, [gs, gb])
    for i, wfn in enumerate((partial(wfs_a.w_k, 0), partial(wfs_a.w_k, 1))):
        for j, gfn in enumerate((gs, gb)):
            val = integrate(lambda x: wfn(x) * gfn.pdf(x), UNIT, 1e-9)
            assert val == pytest.approx(float(i == j), abs=1e-6)
    assert np.allclose(wfs_a.w_k(0, grid) + wfs_a.w_k(1, grid), 1.0, atol=1e-9)

    # per-event-sum and Hessian variants: orthonormality under the
    # empirical measure dN / g
    wm_b = compute_W_variant_B([gs, gb], [z, 1 - z], ds.m)
    wfs_b = weight_functions(wm_b, [gs, gb])
    check_empirical(wfs_b)
    assert np.allclose(wfs_b.w_k(0, grid) + wfs_b.w_k(1, grid), 1.0, atol=1e-9)

    for mode in ("invert-full-cov", "yields-only-cov"):
        wm_c = compute_W_variant_C(fit, len(ds.m), mode, n_components=2)
        wfs_c = weight_functions(wm_c, [gs, gb])
        assert np.allclose(wfs_c.w_k(0, grid) + wfs_c.w_k(1, grid), 1.0, atol=1e-9)
    # with the analytically exact yields Hessian the Hessian variant matches
    # the per-event sum, inheriting its orthonormality
    s, b = gs.pdf(ds.m), gb.pdf(ds.m)
    n = len(ds.m)
    yields = np.array([z * n, (1 - z) * n])
    f = yields[0] * s + yields[1] * b
    H = np.array([[np.sum(s * s / f ** 2), np.sum(s * b / f ** 2)],
                  [np.sum(s * b / f ** 2), np.sum(b * b / f ** 2)]])
    afit = FitResult(params=yields, covariance=np.linalg.inv(H), hessian=-H,
                     nll=0.0, converged=True, n_calls=0)
    wm_ce = compute_W_variant_C(afit, n, "invert-full-cov", n_components=2)
    check_empirical(weight_functions(wm_ce, [gs, gb]))

    # generalized weights with an in-span variance function
    for variance, basis in (
            (MixtureVariance([z, 1 - z], [gs, gb]), [gs, gb]),
            (UnityVariance(), monomial_basis(3, UNIT))):
        cow = build_cow(CowSpec(basis=basis, variance_fn=variance,
                                support=UNIT))
        w = cow.weights(grid)
        for k, gk in enumerate(basis):
            for l, gl in enumerate(basis):
                val = integrate(lambda x: cow.weights(x)[:, k] * gl.pdf(x),
                                UNIT, 1e-9)
                assert val == pytest.approx(float(k == l), abs=1e-6)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)


def test_criterion_03_self_consistent_weight_sums():
    """Per-event-sum weights add up to the fitted signal yield to a relative
    1e-12 on every toy."""
    gs, gb, _, _ = simple_truth_densities()
    for seed, n, z in ((1, 1000, 0.2), (2, 3000, 0.5), (3, 500, 0.7),
                       (4, 2000, 0.35), (5, 4000, 0.1)):
        ds = generate_simple(ToySpec(study="simple", n_events=n, z=z,
                                     seed=seed))
        fit = fit_extended_ml(ds.m, _yields_only_model(n))
        assert fit.converged
        z_hat = float(fit.params[0] / fit.params[:2].sum())
        wm = compute_W_variant_B([gs, gb], [z_hat, 1 - z_hat], ds.m)
        w = weight_functions(wm, [gs, gb]).w_k(0, ds.m)
        assert w.sum() == pytest.approx(n * z_hat, rel=1e-12)


def test_criterion_04_yield_error_relations():
    """At 25k events per toy: the weight sum equals the yields-only fitted
    yield exactly, sqrt(sum w^2) tracks the yields-only yield error within
    1% on ensemble average, and freeing the shapes inflates the yield
    error."""
    gs, gb, _, _ = simple_truth_densities()
    n = 25_000
    ratios = []
    for seed in range(200):
        ds = generate_simple(ToySpec(study="simple", n_events=n, z=0.2,
                                     seed=3000 + seed))
        fit = fit_extended_ml(ds.m, _yields_only_model(n))
        assert fit.converged
        z_hat = float(fit.params[0] / fit.params[:2].sum())
        wm = compute_W_variant_B([gs, gb], [z_hat, 1 - z_hat], ds.m)
        w = weight_functions(wm, [gs, gb]).w_k(0, ds.m)
        assert w.sum() == pytest.approx(fit.params[0], rel=1e-12)
        ratios.append(np.sqrt(np.sum(w ** 2))
                      / np.sqrt(fit.covariance[0, 0]))
    assert 0.99 < np.mean(ratios) < 1.01

    for seed in range(10):
        ds = generate_simple(ToySpec(study="simple", n_events=n, z=0.2,
                                     seed=4000 + seed))
        model = MixtureModel(
            [MixtureComponent("s", gs, True), MixtureComponent("b", gb, True)],
            np.array([0.5 * n, 0.5 * n]))
        free = fit_extended_ml(ds.m, model)
        fixed = yields_only_refit(ds.m, free.model)
        assert free.converged and fixed.converged
        assert free.covariance[0, 0] > fixed.covariance[0, 0]


def test_criterion_05_weighted_fit_pull_calibration():
    """500 toys at N = 2500, z = 0.2: slope pulls with the corrected error
    have |mean| < 0.15 and width in [0.9, 1.1]; the uncorrected width is
    further from 1."""
    cfg = EnsembleConfig(
        toy=ToySpec(study="simple", n_events=2500, z=0.2),
        methods=[MethodSpec(name="swB", kind="sweights", variant="B",
                            correction="fixed")],
        n_toys=500, base_seed=500)
    rep = run_ensemble(cfg)
    assert rep.valid
    agg = rep.aggregates["swB"]
    assert agg["n_ok"] >= 450
    assert abs(agg["mean_pull"]) < 0.15
    assert 0.9 < agg["pull_width"] < 1.1
    assert abs(agg["pull_width_naive"] - 1.0) > abs(agg["pull_width"] - 1.0)


def test_criterion_06_sandwich_cross_validation():
    """The analytic quasi-score covariance matches a direct Monte Carlo
    covariance of the score within 5% elementwise over 1e4 resamples, and
    the joint-score and fixed-shape covariance paths agree within 1e-3
    relative when the shapes are known."""
    gs, gb, hs, _ = simple_truth_densities()
    spec = QuasiScoreSpec(gs=gs, gb=gb, hs=hs)
    n0, z = 500, 0.3

    # population root of the score at truth
    x, gq = np.polynomial.legendre.leggauss(400)
    mg = 0.5 * (1 + x)
    wq = 0.5 * gq
    s, b = gs.pdf(mg), gb.pdf(mg)
    f = z * n0 * s + (1 - z) * n0 * b
    Wv = [np.sum(wq * s * s / f), np.sum(wq * s * b / f),
          np.sum(wq * b * b / f)]
    lam = np.array([z * n0, (1 - z) * n0, *Wv, 2.0])

    rng = np.random.default_rng(123)
    scores = np.empty((10_000, spec.dim))
    for k in range(len(scores)):
        nk = max(int(rng.poisson(n0)), 1)
        ds = generate_simple(ToySpec(study="simple", n_events=nk, z=z,
                                     seed=int(rng.integers(2 ** 62))))
        scores[k] = spec.score(lam, ds.m, ds.column("t"))
    mean = scores.mean(axis=0)
    c_mc = np.cov(scores.T, ddof=1) + np.outer(mean, mean)

    big = generate_simple(ToySpec(study="simple", n_events=400_000, z=z,
                                  seed=999))
    c_hat = spec.score_covariance(lam, big.m, big.column("t")) * (n0 / 400_000)
    scale = np.sqrt(np.outer(np.diag(c_mc), np.diag(c_mc)))
    assert np.max(np.abs(c_hat - c_mc) / scale) < 0.05

    # path agreement on a large sample
    ds = generate_simple(ToySpec(study="simple", n_events=1_000_000, z=0.2,
                                 seed=3))
    m, t = ds.m, ds.column("t")
    mfit = fit_extended_ml(m, _yields_only_model(len(m)))
    assert mfit.converged
    z_hat = float(mfit.params[0] / mfit.params[:2].sum())
    wm = compute_W_variant_B([gs, gb], [z_hat, 1 - z_hat], m)
    wfs = weight_functions(wm, [gs, gb])
    w = wfs.w_k(0, m)
    tfit = fit_weighted_ml(t, w, hs, bounds=[(0.05, 20.0)])
    assert tfit.converged
    lam_hat = spec.lambda_from_fits(m, mfit, tfit)
    full = corrected_covariance_full(ds.data, spec, lam_hat)
    fixed = corrected_covariance_fixed_shapes(
        t, w, wfs.dw_dW(m), hs, tfit.params,
        basis=[gs, gb], yields=mfit.params[:2], data_m=m)
    rel = abs(full.theta_block[0, 0] - fixed.theta_block[0, 0]) / fixed.theta_block[0, 0]
    assert rel < 1e-3


def test_criterion_07_generalized_weights_reduce_to_classic():
    """With unit efficiency and the fitted mixture as variance function, the
    generalized weights equal the classic quadrature weights to 1e-10
    pointwise."""
    gs, gb, _, _ = simple_truth_densities()
    z = 0.4
    wm = compute_W_variant_A([gs, gb], [z, 1 - z], UNIT)
    wfs = weight_functions(wm, [gs, gb])
    cow = build_cow(CowSpec(basis=[gs, gb],
                            variance_fn=MixtureVariance([z, 1 - z], [gs, gb]),
                            support=UNIT))
    pts = np.concatenate([np.linspace(0.001, 0.999, 10_000),
                          generate_simple(ToySpec(study="simple",
                                                  n_events=2000, z=z,
                                                  seed=21)).m])
    cw = cow.weights(pts)
    assert np.allclose(cw[:, 0], wfs.w_k(0, pts), atol=1e-10)
    assert np.allclose(cw[:, 1], wfs.w_k(1, pts), atol=1e-10)


def test_criterion_08_nonfactorising_study():
    """Coupled background plus non-factorising efficiency, 200 toys at
    N = 2000, z = 0.5: classic weights are more biased than the
    histogram-variance generalized weights with a cubic polynomial
    background, whose corrected pulls stay calibrated; the equivalent event
    count does not increase with polynomial order."""
    methods = [MethodSpec(name="swB", kind="sweights", variant="B",
                          correction="fixed")]
    for order in (1, 3, 5):
        methods.append(MethodSpec(name=f"cow{order}", kind="cow",
                                  variance="qm", qm_bins=50,
                                  poly_order=order))
    cfg = EnsembleConfig(
        toy=ToySpec(study="nonfactorising", n_events=2000, z=0.5,
                    efficiency=True),
        methods=methods, n_toys=200, base_seed=20260824)
    rep = run_ensemble(cfg)
    assert rep.valid
    agg = rep.aggregates
    assert abs(agg["swB"]["mean_pull"]) > abs(agg["cow3"]["mean_pull"])
    assert 0.85 < agg["cow3"]["pull_width"] < 1.15
    neq = [agg[f"cow{o}"]["mean_neq"] for o in (1, 3, 5)]
    assert neq[0] >= neq[1] >= neq[2]


def test_criterion_09_weight_sum_variance_estimator():
    """Over 1e4 Poisson-size replicas drawn from an empirical weight pool,
    the variance of the weight sum matches the mean of the sum of squared
    weights within 5%."""
    gs, gb, _, _ = simple_truth_densities()
    n = 2000
    ds = generate_simple(ToySpec(study="simple", n_events=n, z=0.3, seed=55))
    fit = fit_extended_ml(ds.m, _yields_only_model(n))
    assert fit.converged
    z_hat = float(fit.params[0] / fit.params[:2].sum())
    wm = compute_W_variant_B([gs, gb], [z_hat, 1 - z_hat], ds.m)
    pool = weight_functions(wm, [gs, gb]).w_k(0, ds.m)

    rng = np.random.default_rng(7)
    sums = np.empty(10_000)
    sums2 = np.empty(10_000)
    for k in range(len(sums)):
        w = pool[rng.integers(0, n, size=rng.poisson(n))]
        sums[k] = w.sum()
        sums2[k] = np.sum(w ** 2)
    ratio = np.var(sums, ddof=1) / np.mean(sums2)
    assert 0.95 < ratio < 1.05


def test_criterion_10_rank_correlation():
    """The rank correlation is exactly +1/-1 on monotone inputs and its
    normal null approximation keeps the 3-sigma false-positive rate below
    1% over 1000 independent seeds."""
    x = np.linspace(0.0, 1.0, 100)
    assert kendall_tau(x, np.exp(x)).tau == 1.0
    assert kendall_tau(x, -x ** 3).tau == -1.0

    n_fp = 0
    for seed in range(1000):
        rng = np.random.default_rng(50_000 + seed)
        rep = kendall_tau(rng.random(500), rng.random(500))
        if abs(rep.tau) > 3 * rep.approx_sigma:
            n_fp += 1
    assert n_fp / 1000 < 0.01
