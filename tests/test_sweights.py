"""Classic weight matrices, weight functions and their identities."""

import warnings
from functools import partial

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from cowlib import (CowSpec, Density1D, EvaluationError, FitResult, Interval,
                    MixtureComponent, MixtureModel, MixtureVariance,
                    SingularModelError, build_cow, compute_W_variant_A,
                    compute_W_variant_B, compute_W_variant_C, fit_extended_ml,
                    integrate, monomial_basis, weight_functions)
from cowlib import cows
from cowlib.sweights import WeightMatrix
from cowlib.toygen import ToySpec, generate_simple, simple_truth_densities

from conftest import count_integrals, count_pdf_calls, sample_box_mixture


@pytest.fixture(scope="module")
def toy_fit():
    """Simple toy with a polished yields-only fit and its plug-in shapes."""
    ds = generate_simple(ToySpec(study="simple", n_events=2000, z=0.3, seed=77))
    gs, gb, _, _ = simple_truth_densities()
    model = MixtureModel(
        [MixtureComponent("s", gs, False), MixtureComponent("b", gb, False)],
        np.array([1000.0, 1000.0]))
    fit = fit_extended_ml(ds.m, model)
    assert fit.converged
    z = float(fit.params[0] / fit.params[:2].sum())
    return ds.m, gs, gb, fit, z


class TestVariantA:
    def test_box_oracle_matrix(self, box_model, box_W, unit_interval):
        gs, gb = box_model
        wm = compute_W_variant_A([gs, gb], [0.5, 0.5], unit_interval)
        assert np.allclose(wm.W, box_W, atol=1e-9)
        assert np.allclose(wm.A @ wm.W, np.eye(2), atol=1e-10)

    def test_box_oracle_weight_values(self, box_model, unit_interval):
        gs, gb = box_model
        wm = compute_W_variant_A([gs, gb], [0.5, 0.5], unit_interval)
        wfs = weight_functions(wm, [gs, gb])
        assert np.allclose(wfs.w_k(0, [0.1, 0.3, 0.49]), 1.0, atol=1e-9)
        assert np.allclose(wfs.w_k(0, [0.51, 0.7, 0.99]), -1.0, atol=1e-9)

    def test_identical_shapes_singular(self, box_model, unit_interval):
        _, gb = box_model
        with pytest.raises(SingularModelError):
            compute_W_variant_A([gb, gb], [0.5, 0.5], unit_interval)

    def test_invalid_fraction(self, box_model, unit_interval):
        gs, gb = box_model
        for z in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(EvaluationError):
                compute_W_variant_A([gs, gb], [z, 1 - z], unit_interval)

    def test_one_integral_pass(self, unit_interval, monkeypatch):
        # W is the Gram matrix of build_cow under the mixture variance: one
        # vector integral, I(m) summed from the basis values, so each density
        # is evaluated once per node batch
        gs, gb, _, _ = simple_truth_densities()
        integrals = count_integrals(monkeypatch, cows)
        pdf_calls = count_pdf_calls(monkeypatch)
        wm = compute_W_variant_A([gs, gb], [0.3, 0.7], unit_interval)
        assert len(integrals) == 1
        assert len(pdf_calls) == 2 * len(integrals[0])
        assert np.allclose(wm.A @ wm.W, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("z", [0.05, 0.2, 0.4, 0.77])
    @pytest.mark.parametrize("background", ["exponential", "histogram"])
    @pytest.mark.parametrize("support", [(0.0, 1.0), (0.2, 0.9)], ids=str)
    def test_gram_matrix_of_the_mixture_variance(self, support, background, z):
        # bit for bit the integral of the two-component density ratio
        iv = Interval(*support)
        gs = Density1D("normal", [0.5, 0.08], iv)
        if background == "exponential":
            gb = Density1D("exponential", [1.0], iv)
        else:
            gb = Density1D("histogram", [], iv, {"edges": np.linspace(*support, 6),
                                                 "contents": [5.0, 4.0, 3.0, 2.0, 1.0]})
        W, A = reference_W("A", gs, gb, z, None, None)
        wm = compute_W_variant_A([gs, gb], [z, 1 - z], iv)
        assert_reference(wm, W, A)


class TestVariantB:
    def test_two_event_hand_formula(self, box_model):
        gs, gb = box_model
        m = np.array([0.25, 0.75])
        wm = compute_W_variant_B([gs, gb], [0.5, 0.5], m)
        # per-event terms g_x g_y / g^2 with (s, b, g) = (2, 1, 1.5) at 0.25
        # and (0, 1, 0.5) at 0.75, averaged over the two events
        assert wm.W[0, 0] == pytest.approx(0.5 * 4.0 / 2.25, rel=1e-14)
        assert wm.W[0, 1] == pytest.approx(0.5 * 2.0 / 2.25, rel=1e-14)
        assert wm.W[1, 1] == pytest.approx(0.5 * (1.0 / 2.25 + 4.0), rel=1e-14)

    def test_converges_to_quadrature(self, box_model, box_W):
        gs, gb = box_model
        rng = np.random.default_rng(12345)
        m = sample_box_mixture(rng, 100_000, z=0.5)
        wm = compute_W_variant_B([gs, gb], [0.5, 0.5], m)
        assert np.allclose(wm.W, box_W, atol=0.02)

    def test_self_consistency_sum_equals_fitted_yield(self, toy_fit):
        m, gs, gb, fit, z = toy_fit
        wm = compute_W_variant_B([gs, gb], [z, 1 - z], m)
        w = weight_functions(wm, [gs, gb]).w_k(0, m)
        n = len(m)
        assert w.sum() == pytest.approx(n * z, rel=1e-12)
        # equivalently the sample mean of the weights equals the fraction
        assert w.mean() == pytest.approx(z, rel=1e-12)

    def test_coefficient_sums_give_fractions(self, toy_fit):
        # rows of A sum to the component fractions for the self-consistent
        # in-sample estimate
        m, gs, gb, fit, z = toy_fit
        wm = compute_W_variant_B([gs, gb], [z, 1 - z], m)
        assert wm.A[0].sum() == pytest.approx(z, rel=1e-10)
        assert wm.A[1].sum() == pytest.approx(1.0 - z, rel=1e-10)

    def test_empty_data_rejected(self, box_model):
        gs, gb = box_model
        with pytest.raises(EvaluationError):
            compute_W_variant_B([gs, gb], [0.5, 0.5], np.array([]))

    def test_vanishing_mixture_names_observation(self, unit_interval):
        gs = simple_truth_densities()[0]
        from cowlib import make_density
        gb = make_density("uniform", [0.0, 0.5], unit_interval)
        narrow = make_density("uniform", [0.4, 0.5], unit_interval)
        with pytest.raises(EvaluationError, match="observation"):
            compute_W_variant_B([narrow, gb], [0.5, 0.5], np.array([0.45, 0.9]))


class TestThreeComponents:
    @pytest.fixture(scope="class")
    def fit3(self):
        """A simple toy plus a narrow third peak, fitted with all three shapes."""
        gs, gb, _, _ = simple_truth_densities()
        gp = Density1D("normal", [0.25, 0.03], gs.support)
        m = np.concatenate([generate_simple(ToySpec(study="simple", n_events=2000, seed=5)).m,
                            gp.ppf(np.random.default_rng(4).random(600))])
        fit = fit_extended_ml(m, MixtureModel(
            [MixtureComponent(k, g) for k, g in zip("sbp", (gs, gb, gp))], [800.0] * 3))
        assert fit.converged
        return m, [gs, gb, gp], fit.params / fit.params.sum()

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_weights_sum_to_the_fitted_yields(self, fit3, variant):
        m, basis, z = fit3
        wm = (compute_W_variant_A(basis, z, basis[0].support) if variant == "A"
              else compute_W_variant_B(basis, z, m))
        assert np.allclose(wm.A @ wm.W, np.eye(3), atol=1e-10)
        sums = weight_functions(wm, basis).weights(m).sum(axis=0)
        assert np.allclose(sums, len(m) * z, rtol=1e-9 if variant == "A" else 1e-12)

    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("third", ["repeated", "in-span"])
    def test_linearly_dependent_shapes_singular(self, fit3, variant, third):
        # no two shapes of the second basis are proportional, but the third
        # is a mixture of the other two
        m, (gs, gb, _), z = fit3
        g3 = gb if third == "repeated" else Density1D(
            "mixture", [], gs.support, {"components": [gs, gb], "weights": [0.3, 0.7]})
        with pytest.raises(SingularModelError, match="singular"):
            if variant == "A":
                compute_W_variant_A([gs, gb, g3], z, gs.support)
            else:
                compute_W_variant_B([gs, gb, g3], z, m)

    @pytest.mark.parametrize("mode", ["invert-full-cov", "yields-only-cov"])
    def test_indefinite_W_rejected(self, mode):
        # det > 0 with two negative eigenvalues: a determinant test alone
        # rejects an indefinite W only for two components
        fit = FitResult(params=np.array([1.0, 1.0, 1.0]), covariance=np.diag([1.0, -1.0, -1.0]),
                        hessian=None, nll=0.0, converged=True, n_calls=0)
        with pytest.raises(SingularModelError, match="not positive definite"):
            compute_W_variant_C(fit, 10, mode, n_components=3)

    def test_one_fraction_per_component(self, fit3):
        m, basis, z = fit3
        with pytest.raises(EvaluationError, match="2 component fractions"):
            compute_W_variant_B(basis[:2], z, m)


class TestVariantC:
    @staticmethod
    def _analytic_yields_fit(gs, gb, z, m):
        """FitResult carrying the exact inverse yields Hessian as covariance."""
        n = len(m)
        yields = np.array([z * n, (1.0 - z) * n])
        s, b = gs.pdf(m), gb.pdf(m)
        f = yields[0] * s + yields[1] * b
        H = np.array([[np.sum(s * s / f ** 2), np.sum(s * b / f ** 2)],
                      [np.sum(s * b / f ** 2), np.sum(b * b / f ** 2)]])
        return FitResult(params=yields, covariance=np.linalg.inv(H),
                         hessian=-H, nll=0.0, converged=True, n_calls=0)

    def test_exact_hessian_reproduces_variant_B(self, toy_fit):
        m, gs, gb, fit, z = toy_fit
        wm_b = compute_W_variant_B([gs, gb], [z, 1 - z], m)
        afit = self._analytic_yields_fit(gs, gb, z, m)
        wm_ci = compute_W_variant_C(afit, len(m), "invert-full-cov", n_components=2)
        wm_cii = compute_W_variant_C(afit, len(m), "yields-only-cov", n_components=2)
        assert np.allclose(wm_ci.W, wm_b.W, rtol=1e-12)
        assert np.allclose(wm_cii.A, wm_b.A, rtol=1e-12)

    def test_numerical_hessian_close_to_variant_B(self, toy_fit):
        m, gs, gb, fit, z = toy_fit
        wm_b = compute_W_variant_B([gs, gb], [z, 1 - z], m)
        wm_c = compute_W_variant_C(fit, len(m), "invert-full-cov", n_components=2)
        assert np.allclose(wm_c.W, wm_b.W, rtol=1e-3)

    def test_inverse_consistency(self, toy_fit):
        m, gs, gb, fit, z = toy_fit
        for mode in ("invert-full-cov", "yields-only-cov"):
            wm = compute_W_variant_C(fit, len(m), mode, n_components=2)
            assert np.allclose(wm.A @ wm.W, np.eye(2), atol=1e-10)

    def test_requires_converged_fit_with_covariance(self):
        bad = FitResult(params=np.array([1.0, 1.0]), covariance=None,
                        hessian=None, nll=0.0, converged=False, n_calls=0)
        with pytest.raises(EvaluationError):
            compute_W_variant_C(bad, 10, "invert-full-cov", n_components=2)

    def test_unknown_mode(self, toy_fit):
        m, gs, gb, fit, z = toy_fit
        with pytest.raises(ValueError):
            compute_W_variant_C(fit, len(m), "nope", n_components=2)


class TestWeightFunctions:
    def test_sum_to_unity_box(self, box_model, unit_interval):
        gs, gb = box_model
        wm = compute_W_variant_A([gs, gb], [0.5, 0.5], unit_interval)
        wfs = weight_functions(wm, [gs, gb])
        grid = np.linspace(0, 1, 1001)
        assert np.allclose(wfs.w_k(0, grid) + wfs.w_k(1, grid), 1.0, atol=1e-9)

    def test_orthonormality_by_quadrature(self, toy_fit, unit_interval):
        m, gs, gb, fit, z = toy_fit
        wm = compute_W_variant_A([gs, gb], [z, 1 - z], unit_interval)
        wfs = weight_functions(wm, [gs, gb])
        pairs = {("s", "s"): 1.0, ("s", "b"): 0.0,
                 ("b", "s"): 0.0, ("b", "b"): 1.0}
        for (wx, gy), expected in pairs.items():
            wfn = partial(wfs.w_k, 0 if wx == "s" else 1)
            gfn = gs if gy == "s" else gb
            val = integrate(lambda x: wfn(x) * gfn.pdf(x), unit_interval, 1e-9)
            assert val == pytest.approx(expected, abs=1e-8)

    def test_orthonormality_empirical_measure(self, toy_fit):
        # the per-event-sum matrix is exactly orthonormal against the
        # empirical measure dmu = dN / (z gs + (1-z) gb)
        m, gs, gb, fit, z = toy_fit
        wm = compute_W_variant_B([gs, gb], [z, 1 - z], m)
        wfs = weight_functions(wm, [gs, gb])
        g = z * gs.pdf(m) + (1.0 - z) * gb.pdf(m)
        n = len(m)
        mat = np.empty((2, 2))
        for i, wfn in enumerate((partial(wfs.w_k, 0), partial(wfs.w_k, 1))):
            for j, gfn in enumerate((gs, gb)):
                mat[i, j] = np.sum(wfn(m) * gfn.pdf(m) / g) / n
        assert np.allclose(mat, np.eye(2), atol=1e-10)

    def test_strict_range(self, unit_interval):
        # smooth shapes so extrapolation beyond the fit range is defined
        gs, gb, _, _ = simple_truth_densities()
        wm = compute_W_variant_A([gs, gb], [0.5, 0.5], unit_interval)
        strict = weight_functions(wm, [gs, gb])
        with pytest.raises(EvaluationError):
            strict.w_k(0, [1.2])

    @pytest.mark.parametrize("W,warns,w_s,w_b", [
        # det W = -3: A 1 = (1/3, 1/3) > 0, but the W-form denominator is < 0
        ([[1.0, 2.0], [2.0, 1.0]], True, [0.0, 2.0], [1.0, -1.0]),
        # A 1 = (6, -10): the denominator changes sign across the support
        ([[1.0, 0.5], [0.5, 0.2]], True, [1.0, -1.0], [0.0, 2.0]),
        # A 1 = (-15, 80): a negative implied fraction, denominator > 0
        ([[1.0, 0.2], [0.2, 0.05]], False, [-0.2, -0.25], [1.2, 1.25]),
    ], ids=["det-negative", "sign-change", "negative-fraction"])
    def test_negative_denominator_warns(self, box_model, W, warns, w_s, w_b):
        gs, gb = box_model
        W = np.array(W)
        wm = WeightMatrix(W, np.linalg.inv(W), "A", np.array([0.5, 0.5]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wfs = weight_functions(wm, [gs, gb])
        assert [w.category for w in caught] == [RuntimeWarning] * warns
        assert bool(wfs.warnings) == warns
        w = wfs.weights([0.25, 0.75])
        assert np.allclose(w[:, 0], w_s, rtol=1e-12, atol=1e-12)
        assert np.allclose(w[:, 1], w_b, rtol=1e-12, atol=1e-12)


@pytest.fixture(scope="module")
def box_wfs(box_model, unit_interval):
    gs, gb = box_model
    wm = compute_W_variant_A([gs, gb], [0.5, 0.5], unit_interval)
    return weight_functions(wm, [gs, gb])


class TestApplyWeights:
    def test_signal_side(self, box_wfs):
        assert np.allclose(box_wfs.weights([0.25]), [[1.0, 0.0]],
                           atol=1e-9)

    def test_background_side(self, box_wfs):
        assert np.allclose(box_wfs.weights([0.75]), [[-1.0, 2.0]],
                           atol=1e-9)

    def test_empty(self, box_wfs):
        out = box_wfs.weights([])
        assert out.shape == (0, 2)

    def test_rows_sum_to_one(self, box_wfs):
        rng = np.random.default_rng(8)
        out = box_wfs.weights(rng.random(100))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


def test_weight_matrix_round_trip(box_model, unit_interval):
    gs, gb = box_model
    wm = compute_W_variant_A([gs, gb], [0.5, 0.5], unit_interval)
    wm2 = WeightMatrix.from_dict(wm.to_dict())
    assert np.allclose(wm2.W, wm.W)
    assert wm2.variant == "A"


# The W-form closed forms of the two-component weights, their W derivative
# and the W estimators that the CowSet construction replaced, kept as the
# reference the set is checked against.

def reference_weights(W, s, b):
    den = (W[1, 1] - W[0, 1]) * s + (W[0, 0] - W[0, 1]) * b
    return np.column_stack([(W[1, 1] * s - W[0, 1] * b) / den,
                            (-W[0, 1] * s + W[0, 0] * b) / den])


def reference_dw_s_dW(W, s, b):
    num = W[1, 1] * s - W[0, 1] * b
    den = (W[1, 1] - W[0, 1]) * s + (W[0, 0] - W[0, 1]) * b
    den2 = den ** 2
    return np.column_stack([-num * b / den2, (-b * den + num * (s + b)) / den2,
                            s * (den - num) / den2])


def reference_W(variant, gs, gb, z, m, fit):
    if variant == "A":
        def f(x):
            s, b = gs.pdf(x), gb.pdf(x)
            den = z * s + (1.0 - z) * b
            return np.stack([s * s, s * b, b * b]) / den
        ss, sb, bb = integrate(f, gs.support, 1e-9,
                               points=sorted(set(gs.breakpoints()) | set(gb.breakpoints())))
        W = np.array([[ss, sb], [sb, bb]])
    elif variant == "B":
        s, b = gs.pdf(m), gb.pdf(m)
        inv2 = 1.0 / (z * s + (1.0 - z) * b) ** 2
        W = np.array([
            [np.sum(s * s * inv2), np.sum(s * b * inv2)],
            [np.sum(s * b * inv2), np.sum(b * b * inv2)],
        ]) / len(m)
    elif variant == "Ci":
        W = len(m) * np.linalg.inv(fit.covariance)[:2, :2]
        W = 0.5 * (W + W.T)
    else:
        A = fit.covariance[:2, :2] / len(m)
        A = 0.5 * (A + A.T)
        return adjugate_inverse(A), A
    return W, adjugate_inverse(W)


def adjugate_inverse(M):
    return np.array([[M[1, 1], -M[0, 1]], [-M[0, 1], M[0, 0]]]) / (
        M[0, 0] * M[1, 1] - M[0, 1] ** 2)


def assert_reference(wm, W, A):
    """The estimated matrix is the reference's bit for bit; its inverse,
    from the general inverse and not the adjugate, agrees to 1e-14 relative."""
    est, inv = ((wm.A, A), (wm.W, W)) if wm.variant == "Cii" else ((wm.W, W), (wm.A, A))
    assert np.array_equal(*est)
    assert np.allclose(*inv, rtol=1e-14, atol=0)


def estimate(variant, gs, gb, z, m, fit):
    if variant == "A":
        return compute_W_variant_A([gs, gb], [z, 1 - z], gs.support)
    if variant == "B":
        return compute_W_variant_B([gs, gb], [z, 1 - z], m)
    mode = "invert-full-cov" if variant == "Ci" else "yields-only-cov"
    return compute_W_variant_C(fit, len(m), mode, n_components=2)


class TestClosedFormReference:
    """The weights of a W are the CowSet of its implied variance function;
    they agree with the W-form closed form to rounding."""

    def _check(self, wm, gs, gb, pts):
        cow = weight_functions(wm, [gs, gb])
        s, b = gs.pdf(pts), gb.pdf(pts)
        ref = reference_weights(wm.W, s, b)
        assert np.max(np.abs(cow.weights(pts) - ref)) <= 1e-14 * np.max(np.abs(ref))
        ref_dW = reference_dw_s_dW(wm.W, s, b)
        assert np.max(np.abs(cow.dw_dW(pts) - ref_dW)) <= 1e-12 * np.max(np.abs(ref_dW))
        assert cow.W is wm.W and cow.A is wm.A

    @pytest.mark.parametrize("variant", ["A", "B", "Ci", "Cii"])
    def test_simple_toy(self, toy_fit, variant):
        m, gs, gb, fit, z = toy_fit
        wm = estimate(variant, gs, gb, z, m, fit)
        W, A = reference_W(variant, gs, gb, z, m, fit)
        assert_reference(wm, W, A)
        self._check(wm, gs, gb, np.concatenate([m, np.linspace(0.0, 1.0, 1001)]))

    @pytest.mark.parametrize("z", [0.5, 0.2])
    def test_box_model(self, box_model, unit_interval, z):
        gs, gb = box_model
        wm = compute_W_variant_A([gs, gb], [z, 1 - z], unit_interval)
        W, A = reference_W("A", gs, gb, z, None, None)
        assert_reference(wm, W, A)
        self._check(wm, gs, gb, np.linspace(0.0, 1.0, 1001))

    def test_cow_matrices(self, toy_fit, unit_interval):
        m, gs, gb, fit, z = toy_fit
        for basis, var in (([gs, gb], MixtureVariance([z, 1 - z], [gs, gb])),
                           ([gs] + monomial_basis(4, unit_interval), MixtureVariance(
                               [0.2] * 5, [gs] + monomial_basis(4, unit_interval)))):
            cow = build_cow(CowSpec(basis=basis, variance_fn=var, support=unit_interval))
            n = len(basis)
            rows, cols = np.triu_indices(n)

            def f(x):
                g = np.stack([gk.pdf(x) for gk in basis])
                return g[rows] * g[cols] / var(x)

            pts = set(var.breakpoints())
            for g in basis:
                pts.update(g.breakpoints())
            W = np.empty((n, n))
            W[rows, cols] = W[cols, rows] = integrate(f, unit_interval, 1e-9,
                                                      points=sorted(pts))
            A = cho_solve(cho_factor(W), np.eye(n))
            assert np.array_equal(cow.W, W)
            assert np.array_equal(cow.A, 0.5 * (A + A.T))
