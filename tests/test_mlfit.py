"""Extended and weighted maximum-likelihood fits and numerical Hessians."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cowlib import (ConstructionError, Density1D, EvaluationError, Interval,
                    MixtureComponent, MixtureModel, fit_extended_ml,
                    fit_weighted_ml, make_density, numerical_hessian,
                    yields_only_refit)
from cowlib import mlfit
from cowlib.methods import MethodSpec, apply_method
from cowlib.toygen import ToySpec, generate_simple, simple_truth_densities

from conftest import count_pdf_calls


def two_component_model(n, free=False):
    gs, gb, _, _ = simple_truth_densities()
    return MixtureModel(
        [MixtureComponent("s", gs, free), MixtureComponent("b", gb, free)],
        np.array([0.5 * n, 0.5 * n]))


@pytest.fixture(scope="module")
def toy_2000():
    return generate_simple(ToySpec(study="simple", n_events=2000, z=0.3, seed=41))


@pytest.fixture(scope="module")
def yields_fit_2000(toy_2000):
    return fit_extended_ml(toy_2000.m, two_component_model(2000))


class TestExtendedML:
    def test_pure_signal(self):
        gs, gb, _, _ = simple_truth_densities()
        rng = np.random.default_rng(17)
        m = gs.sample(rng, 2000)
        fit = fit_extended_ml(m, two_component_model(2000))
        assert fit.converged
        assert fit.params[0] == pytest.approx(2000, rel=0.05)
        assert fit.params[1] < 100

    def test_yield_identity(self, yields_fit_2000):
        # with all shapes fixed the yield scores force sum(yields) = N
        assert yields_fit_2000.converged
        total = yields_fit_2000.params[:2].sum()
        assert total == pytest.approx(2000.0, rel=1e-12)

    def test_ensemble_recovery_of_fraction(self):
        # fitted fraction unbiased within 3 standard errors over an ensemble
        z_true = 0.3
        zs, sigmas = [], []
        for seed in range(30):
            ds = generate_simple(ToySpec(study="simple", n_events=2000,
                                         z=z_true, seed=1000 + seed))
            fit = fit_extended_ml(ds.m, two_component_model(2000))
            assert fit.converged
            zs.append(fit.params[0] / fit.params[:2].sum())
            sigmas.append(np.sqrt(fit.covariance[0, 0]) / 2000)
        mean_err = np.mean(sigmas) / np.sqrt(len(zs))
        assert abs(np.mean(zs) - z_true) < 3 * mean_err

    def test_covariance_is_negative_inverse_hessian(self, yields_fit_2000):
        fit = yields_fit_2000
        assert np.allclose(fit.covariance, np.linalg.inv(-fit.hessian),
                           rtol=1e-8)
        assert np.all(np.linalg.eigvalsh(fit.covariance) > 0)

    def test_data_outside_support_rejected(self):
        with pytest.raises(EvaluationError):
            fit_extended_ml(np.array([0.5, 1.5]), two_component_model(2))

    def test_init_outside_bounds_rejected(self, toy_2000):
        with pytest.raises(EvaluationError):
            fit_extended_ml(toy_2000.m, two_component_model(2000),
                            init=np.array([-5.0, 100.0]))

    def test_degenerate_components_flagged(self):
        # identical shapes leave the total yield split unidentified
        gs, _, _, _ = simple_truth_densities()
        rng = np.random.default_rng(0)
        m = gs.sample(rng, 1000)
        model = MixtureModel(
            [MixtureComponent("s", gs, False), MixtureComponent("b", gs, False)],
            np.array([500.0, 500.0]))
        fit = fit_extended_ml(m, model)
        assert "hessian_singular" in fit.flags
        assert fit.covariance is None


class TestYieldsOnlyRefit:
    def test_tighter_than_free_fit(self, toy_2000):
        free = fit_extended_ml(toy_2000.m, two_component_model(2000, free=True))
        fixed = yields_only_refit(toy_2000.m, free.model)
        assert free.converged and fixed.converged
        assert np.sqrt(fixed.covariance[0, 0]) < np.sqrt(free.covariance[0, 0])

    def test_zero_yield_component_bounded(self):
        gs, gb, _, _ = simple_truth_densities()
        rng = np.random.default_rng(9)
        m = gs.sample(rng, 1500)
        fit = yields_only_refit(m, two_component_model(1500))
        assert fit.params[1] >= 0.0
        assert fit.params[1] < 0.03 * 1500


@pytest.fixture(scope="module")
def exp_data():
    d = Density1D("exponential", [2.0], Interval(0.0, 3.0))
    rng = np.random.default_rng(23)
    return d, d.sample(rng, 3000)


class TestWeightedML:
    def test_unweighted_reduction_matches_scalar_oracle(self, exp_data):
        # independent oracle: 1-D golden-section minimization of the exact
        # negative log-likelihood
        d, t = exp_data
        fit = fit_weighted_ml(t, np.ones_like(t), d, bounds=[(0.05, 20.0)])
        assert fit.converged

        def nll(lam):
            return -np.sum(Density1D("exponential", [lam], d.support).logpdf(t))

        res = minimize_scalar(nll, bounds=(0.1, 10.0), method="bounded",
                              options={"xatol": 1e-10})
        assert fit.params[0] == pytest.approx(res.x, abs=1e-6)

    def test_scale_invariance_of_point_estimate(self, exp_data):
        d, t = exp_data
        f1 = fit_weighted_ml(t, np.ones_like(t), d, bounds=[(0.05, 20.0)])
        f2 = fit_weighted_ml(t, 2.0 * np.ones_like(t), d, bounds=[(0.05, 20.0)])
        assert f1.params[0] == pytest.approx(f2.params[0], abs=1e-8)

    def test_negative_weights_accepted(self, exp_data):
        d, t = exp_data
        rng = np.random.default_rng(4)
        w = np.where(rng.random(len(t)) < 0.2, -0.3, 1.0)
        fit = fit_weighted_ml(t, w, d, bounds=[(0.05, 20.0)])
        assert fit.converged

    def test_error_conditions(self, exp_data):
        d, t = exp_data
        with pytest.raises(EvaluationError):
            fit_weighted_ml(t, -np.ones_like(t), d)      # sum of weights <= 0
        with pytest.raises(EvaluationError):
            fit_weighted_ml(t, np.ones(len(t) - 1), d)   # length mismatch
        bad = np.ones_like(t)
        bad[0] = np.inf
        with pytest.raises(EvaluationError):
            fit_weighted_ml(t, bad, d)                   # non-finite weight

    def test_density_without_parameters_rejected(self):
        d = Density1D("histogram", [], Interval(0.0, 3.0),
                      {"edges": [0.0, 1.0, 2.0, 3.0], "contents": [3.0, 2.0, 1.0]})
        with pytest.raises(ConstructionError, match="no parameters"):
            fit_weighted_ml(np.array([0.5, 1.5, 2.5]), np.ones(3), d)

    @pytest.mark.parametrize("seed", [1001, 1002])
    def test_covariance_of_the_exponential_in_closed_form(self, seed):
        # for h = lam e^(-lam t) / (1 - e^(-a lam)) on [0, a] the second
        # derivative of ln h in lam is the same at every t, so the naive
        # covariance of the weighted fit is 1 / (sum w * that curvature)
        ds = generate_simple(ToySpec(study="simple", n_events=2000, seed=seed))
        fit = fit_extended_ml(ds.m, two_component_model(2000))
        w = apply_method(MethodSpec("swB"), fit, ds.data).w
        hs = Density1D("exponential", [1.5], Interval(0.0, 3.0))
        tfit = fit_weighted_ml(ds.column("t"), w, hs, bounds=[(0.05, 20.0)])
        assert fit.converged and tfit.converged
        lam, a = tfit.params[0], 3.0
        e = np.exp(-a * lam)
        exact = 1.0 / (w.sum() * (1.0 / lam ** 2 - a ** 2 * e / (1.0 - e) ** 2))
        assert tfit.covariance[0, 0] == pytest.approx(exact, rel=1e-7, abs=0)

    def test_density_zero_at_weighted_point_rejected(self):
        # the second monomial density vanishes at the lower support edge
        d = Density1D("monomial", [2.0], Interval(0.0, 1.0))
        t = np.array([0.0, 0.5, 0.7])
        with pytest.raises(EvaluationError):
            fit_weighted_ml(t, np.ones(3), d)


class TestNumericalHessian:
    def test_quadratic_form(self):
        A = np.array([[2.0, 0.3], [0.3, 1.5]])
        H = numerical_hessian(lambda x: 0.5 * x @ A @ x, np.array([0.7, -0.4]))
        assert np.allclose(H, A, rtol=1e-6)

    def test_quartic(self):
        H = numerical_hessian(lambda x: x[0] ** 4, np.array([2.0]))
        assert H[0, 0] == pytest.approx(48.0, abs=1e-3)

    def test_yields_block_matches_analytic(self, toy_2000, yields_fit_2000):
        # closed-form second derivatives of the extended likelihood in the
        # yields: H_xy = sum_i g_x g_y / f^2
        gs, gb, _, _ = simple_truth_densities()
        m = toy_2000.m
        s, b = gs.pdf(m), gb.pdf(m)

        def nll(y):
            f = y[0] * s + y[1] * b
            return np.sum(y) - np.sum(np.log(f))

        yhat = yields_fit_2000.params[:2]
        H_num = numerical_hessian(nll, yhat)
        f = yhat[0] * s + yhat[1] * b
        H_ana = np.array([[np.sum(s * s / f ** 2), np.sum(s * b / f ** 2)],
                          [np.sum(s * b / f ** 2), np.sum(b * b / f ** 2)]])
        assert np.allclose(H_num, H_ana, rtol=1e-4)

    def test_nonfinite_objective_names_probe(self):
        with pytest.raises(EvaluationError, match="probe point"):
            numerical_hessian(lambda x: np.log(x[0]) if x[0] > 0 else np.nan, np.array([1e-7]))


class TestPolishNewton:
    UNBOUNDED = (np.full(2, -np.inf), np.full(2, np.inf))

    def test_steps_with_the_hessian_it_is_given(self):
        A, b = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -2.0])
        points = []

        def hessian(x):
            points.append(x)
            return A

        x = mlfit._polish_newton(lambda x: 0.5 * x @ A @ x - b @ x, lambda x: A @ x - b,
                                 hessian, np.zeros(2), *self.UNBOUNDED, 1e-12)
        assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-14, atol=0)
        assert len(points) == 1

    def test_stops_when_the_score_stops_falling(self):
        # every step keeps the nll, and the score never falls
        points = []

        def hessian(x):
            points.append(x)
            return np.eye(2)

        mlfit._polish_newton(lambda x: 0.0, lambda x: np.array([1.0, 0.0]), hessian,
                             np.zeros(2), *self.UNBOUNDED, 1e-12)
        assert len(points) == 1


def reference_fit_extended_ml(data_m, model, init=None):
    """``fit_extended_ml`` as it was before the per-component pdf memo, kept
    as the reference: every objective and score call rebuilds the whole
    model and evaluates every density."""
    data = np.asarray(data_m, dtype=float)
    n_comp = len(model.components)
    slices = mlfit._shape_slices(model)
    layout = [(i, s.stop - s.start) for i, s in enumerate(slices) if s.stop > s.start]
    n_par = n_comp + sum(npar for _, npar in layout)
    if init is None:
        y0 = np.full(n_comp, len(data) / n_comp)
        init = np.concatenate([y0] + [model.components[i].density.params for i, _ in layout])
    init = np.asarray(init, dtype=float)
    bounds = [(0.0, np.inf)] * n_comp
    for i, _ in layout:
        bounds.extend(mlfit._default_shape_bounds(model.components[i].density))
    lower = np.array([b[0] for b in bounds])
    upper = np.array([b[1] for b in bounds])

    def densities_at(params):
        return [c.density for c in mlfit._model_at(model, params).components]

    def comp_values(params):
        return np.stack([d.pdf(data) for d in densities_at(params)])

    def nll(params):
        try:
            g = comp_values(params)
        except ConstructionError:
            return 1e100
        f = params[:n_comp] @ g
        if np.any(f <= 0):
            return 1e100
        return float(np.sum(params[:n_comp]) - np.sum(np.log(f)))

    def grad(params):
        try:
            g = comp_values(params)
        except ConstructionError:
            return np.zeros(n_par)
        f = np.maximum(params[:n_comp] @ g, 1e-300)
        out = np.empty(n_par)
        out[:n_comp] = 1.0 - g @ (1.0 / f)
        off = n_comp
        for i, npar in layout:
            for _ in range(npar):
                h = 1e-6 * max(abs(params[off]), 1.0)
                pp, pm = params.copy(), params.copy()
                pp[off] += h
                pm[off] -= h
                try:
                    dgi = (densities_at(pp)[i].pdf(data)
                           - densities_at(pm)[i].pdf(data)) / (2 * h)
                    out[off] = -np.sum(params[i] * dgi / f)
                except ConstructionError:
                    out[off] = 0.0
                off += 1
        return out

    def polish_yields(params):
        p = params.copy()
        g = comp_values(p)
        best = np.inf
        for _ in range(50):
            y = p[:n_comp]
            f = y @ g
            if np.any(f <= 0):
                break
            S = g @ (1.0 / f) - 1.0
            worst = np.max(np.abs(S))
            if worst >= best or worst < 1e-14:
                break
            best = worst
            J = -(g / f ** 2) @ g.T
            try:
                step = np.linalg.solve(J, -S)
            except np.linalg.LinAlgError:
                break
            y_new = y + step
            if np.any(y_new < 0):
                break
            p[:n_comp] = y_new
        return p

    gtol = mlfit.GRAD_TOL_PER_EVENT * max(len(data), 1.0)
    x, fval, converged, n_calls, counted = mlfit._run_fit(nll, grad, init, lower, upper, gtol)
    if converged and np.all(x[:n_comp] > 0):
        x = polish_yields(x)
        fval = counted(x)
    flags = []
    hess = None
    if converged:
        try:
            H_nll = numerical_hessian(counted, x)
            hess = -H_nll
            cov = np.linalg.inv(H_nll)
            cov = 0.5 * (cov + cov.T)
            if not np.all(np.isfinite(cov)) or np.any(np.diag(cov) <= 0):
                flags.append("hessian_singular")
        except mlfit._HESSIAN_ERRORS:
            flags.append("hessian_singular")
            hess = None
    else:
        flags.append("not_converged")
    return mlfit.FitResult(params=x, covariance=None, hessian=hess, nll=fval,
                           converged=converged, n_calls=n_calls, flags=flags)


def pure_signal(n, seed):
    gs, _, _, _ = simple_truth_densities()
    return gs.sample(np.random.default_rng(seed), n)


class TestPdfMemo:
    """Each density is evaluated once per parameter point, and every value
    the optimizer sees is bit-identical to the unmemoized fit."""

    @pytest.mark.parametrize("case", [
        "fixed", "free", "seed-1015-free", "yield-at-bound-fixed", "yield-at-bound-free"])
    def test_bit_identical_to_reference(self, toy_2000, case):
        init = None
        if case.startswith("seed-1015"):
            m = generate_simple(ToySpec(study="simple", n_events=2000, z=0.2, seed=1015)).m
        elif case.startswith("yield-at-bound"):
            # the background yield starts and stays at 0, so the Hessian
            # probes a negative yield
            m = pure_signal(500, 3)
            init = np.array([500.0, 0.0])
        else:
            m = toy_2000.m
        model = two_component_model(len(m), free=case.endswith("free"))
        if init is not None and case.endswith("free"):
            init = np.concatenate([init] + [c.density.params for c in model.components])
        got = fit_extended_ml(m, model, init=init)
        ref = reference_fit_extended_ml(m, model, init=init)
        assert np.array_equal(got.params, ref.params)
        assert got.nll == ref.nll
        assert got.n_calls == ref.n_calls
        assert got.converged == ref.converged
        assert got.flags == ref.flags
        if ref.hessian is None:
            assert got.hessian is None
        else:
            assert np.array_equal(got.hessian, ref.hessian)
        if case.startswith("seed-1015"):
            assert not got.converged
        if case.startswith("yield-at-bound"):
            assert got.params[1] == 0.0

    def test_fixed_shapes_evaluate_each_pdf_once(self, toy_2000, monkeypatch):
        calls = count_pdf_calls(monkeypatch)
        fit = fit_extended_ml(toy_2000.m, two_component_model(2000))
        assert fit.converged and fit.n_calls > 10
        gs, gb = (c.density for c in fit.model.components)
        assert len(calls) == 2
        assert calls[0] is gs and calls[1] is gb

    def test_hessian_evaluates_each_stencil_point_once(self, toy_2000, monkeypatch):
        # a free component with n shape parameters has 2n^2 + 1 distinct
        # parameter points on the Hessian stencil; probes that move only the
        # yields or the other component reuse them
        pdf_calls = count_pdf_calls(monkeypatch)
        per_hessian = []
        hessian = mlfit.numerical_hessian

        def counted(objective, params, *args, **kwargs):
            before = len(pdf_calls)
            out = hessian(objective, params, *args, **kwargs)
            per_hessian.append(len(pdf_calls) - before)
            return out

        monkeypatch.setattr(mlfit, "numerical_hessian", counted)
        model = two_component_model(2000, free=True)
        fit = fit_extended_ml(toy_2000.m, model)
        assert fit.converged and per_hessian
        stencil = sum(2 * c.density.n_params ** 2 + 1 for c in model.components)
        assert max(per_hessian) <= stencil
