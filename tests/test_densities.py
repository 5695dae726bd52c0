"""Density primitives, quadrature, histograms and efficiency maps."""

import math
import re
import warnings

import numpy as np
import pytest

from cowlib import (ConstructionError, Density1D, EfficiencyMap,
                    EvaluationError, Interval, IntegrationError,
                    histogram_density, integrate, make_density, monomial_basis)
from cowlib.cows import efficiency_at


class TestInterval:
    def test_valid(self):
        iv = Interval(0.0, 2.0)
        assert iv.width == 2.0
        assert iv.as_tuple() == (0.0, 2.0)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ConstructionError):
            Interval(1.0, 1.0)
        with pytest.raises(ConstructionError):
            Interval(2.0, 1.0)

    def test_infinite_bounds_rejected(self):
        with pytest.raises(ConstructionError):
            Interval(0.0, np.inf)

    def test_contains(self):
        iv = Interval(0.0, 1.0)
        assert np.array_equal(iv.contains([-0.1, 0.0, 0.5, 1.0, 1.1]),
                              [False, True, True, True, False])


class TestIntervalFromPair:
    def test_valid(self):
        assert Interval.from_pair([0, 1]) == Interval(0.0, 1.0)
        assert Interval.from_pair((np.float64(-1.5), 2)).as_tuple() == (-1.5, 2.0)

    @pytest.mark.parametrize("value", [[0, True], [[0, 1], 1], "01", None, [0, 1, 2],
                                       [1, 0], [0, float("inf")], [0, 10 ** 400]])
    def test_rejected_naming_support(self, value):
        with pytest.raises(ConstructionError, match="'support'"):
            Interval.from_pair(value)


class TestIntegrate:
    def test_constant(self, unit_interval):
        assert integrate(lambda x: np.ones_like(x), unit_interval, 1e-10) == \
            pytest.approx(1.0, abs=1e-10)

    def test_linear_density(self, unit_interval):
        # 2m integrates to 1 on [0, 1]
        assert integrate(lambda x: 2.0 * x, unit_interval, 1e-10) == \
            pytest.approx(1.0, abs=1e-10)

    def test_box_model_ratio(self, box_model, unit_interval):
        # closed form: integral of gs^2/g over [0,1] is 4/3 (see conftest)
        gs, gb = box_model

        def f(m):
            g = 0.5 * gs.pdf(m) + 0.5 * gb.pdf(m)
            return gs.pdf(m) ** 2 / g

        val = integrate(f, unit_interval, 1e-10, points=[0.5])
        assert val == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_deterministic(self, unit_interval):
        f = lambda x: np.exp(-3 * x) * np.sin(7 * x) ** 2
        a = integrate(f, unit_interval, 1e-11)
        b = integrate(f, unit_interval, 1e-11)
        assert a == b

    def test_failure_carries_estimate(self):
        # below the machine-precision error floor the target cannot be met;
        # the exception must still carry the best estimate
        with pytest.raises(IntegrationError) as exc:
            integrate(np.exp, Interval(0.0, 1.0), 1e-300)
        assert exc.value.estimate == pytest.approx(math.e - 1.0, rel=1e-12)
        assert exc.value.error >= 0


class TestIntegrateErrorFloor:
    """A tol below the error floor (1e-15 of the summed |integral|) raises
    once the estimates are good enough to show it, not after the whole
    subdivision budget."""

    @staticmethod
    def counted(f):
        calls = []

        def g(x):
            calls.append(len(x))
            return f(x)

        return g, calls

    def test_smooth_integrand_raises_at_once(self):
        from cowlib._quadrature import integrate as raw_integrate
        f, calls = self.counted(np.exp)
        with pytest.raises(IntegrationError) as exc:
            raw_integrate(f, 0.0, 1.0, 1e-300)
        assert len(calls) == 1
        assert exc.value.estimate == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_vector_integrand_raises_at_once(self):
        from cowlib._quadrature import integrate as raw_integrate
        f, calls = self.counted(lambda x: np.stack([np.exp(x), x]))
        with pytest.raises(IntegrationError) as exc:
            raw_integrate(f, 0.0, 1.0, 1e-300)
        assert len(calls) == 1
        assert exc.value.estimate == pytest.approx([math.e - 1.0, 0.5], rel=1e-12)

    def test_unresolved_peak_is_refined_before_raising(self):
        # the first rule misses most of a narrow peak; its floor only shows
        # once some splits have found the peak, far inside the budget
        from cowlib._quadrature import MAX_SUBDIVISIONS
        from cowlib._quadrature import integrate as raw_integrate
        peak = lambda x: np.exp(-0.5 * ((x - 0.3) / 1e-3) ** 2) / (1e-3 * math.sqrt(2 * math.pi))
        f, calls = self.counted(peak)
        with pytest.raises(IntegrationError) as exc:
            raw_integrate(f, 0.0, 1.0, 1e-17)
        assert 1 < len(calls) < MAX_SUBDIVISIONS // 100
        assert abs(exc.value.estimate - 1.0) <= exc.value.error

    def test_target_just_above_the_floor_still_met(self):
        from cowlib._quadrature import integrate as raw_integrate
        peak = lambda x: np.exp(-0.5 * ((x - 0.3) / 1e-3) ** 2) / (1e-3 * math.sqrt(2 * math.pi))
        assert raw_integrate(peak, 0.0, 1.0, 1e-13) == pytest.approx(1.0, abs=1e-13)
        assert raw_integrate(np.exp, 0.0, 1.0, 1e-14) == pytest.approx(math.e - 1.0,
                                                                       abs=1e-14)


class TestVectorIntegrate:
    """k integrals on one shared adaptive partition."""

    def test_agrees_with_scalar_calls(self, unit_interval):
        # the cow basis at polynomial order 5 with a 50-bin histogram
        # variance: 28 Gram-matrix elements
        gs = make_density("normal", [0.5, 0.08], unit_interval)
        basis = [gs] + monomial_basis(6, unit_interval)
        m = np.random.default_rng(5).random(2000)
        var = histogram_density(m, None, 50, unit_interval)
        rows, cols = np.triu_indices(len(basis))
        tol = 1e-9

        def f(x):
            g = np.stack([b.pdf(x) for b in basis])
            return g[rows] * g[cols] / var.pdf(x)

        pts = var.breakpoints()
        got = integrate(f, unit_interval, tol, points=pts)
        assert got.shape == (len(rows),)
        for e, (k, l) in enumerate(zip(rows, cols)):
            ref = integrate(lambda x: basis[k].pdf(x) * basis[l].pdf(x) / var.pdf(x),
                            unit_interval, tol, points=pts)
            assert abs(got[e] - ref) <= tol

    def test_every_element_meets_tol(self, unit_interval):
        # an easy element first and a narrow peak after it: the partition
        # must keep refining for the peak after the easy element has converged
        peak = make_density("normal", [0.37, 0.02], unit_interval)
        batches = {"vector": 0, "peak": 0}

        def f(x):
            batches["vector"] += 1
            return np.stack([np.ones_like(x), peak.pdf(x), 2.0 * x])

        def g(x):
            batches["peak"] += 1
            return peak.pdf(x)

        val = integrate(f, unit_interval, 1e-10)
        assert np.all(np.abs(val - 1.0) <= 1e-10)
        # only the element over tol drives the splits: the same partition
        # as the peak alone
        assert abs(integrate(g, unit_interval, 1e-10) - val[1]) <= 1e-15
        assert batches["vector"] == batches["peak"] > 1

    def test_result_types(self, unit_interval):
        scalar = integrate(lambda x: 2.0 * x, unit_interval, 1e-10)
        assert isinstance(scalar, float)
        one = integrate(lambda x: (2.0 * x)[None, :], unit_interval, 1e-10)
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert one[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("f, shape", [
        (lambda x: 1.0, "()"),
        (lambda x: np.ones((2, len(x) - 1)), "(2, 14)"),
        (lambda x: np.ones((2, 3, len(x))), "(2, 3, 15)"),
    ], ids=["scalar", "short-rows", "3-d"])
    def test_wrong_shape_names_it(self, unit_interval, f, shape):
        with pytest.raises(ValueError, match=re.escape(f"returned shape {shape} for 15 nodes")):
            integrate(f, unit_interval, 1e-10)

    def test_integrand_error_reaches_the_caller(self, unit_interval):
        # called once, on the node array: its own error is not swallowed
        calls = []

        def f(x):
            calls.append(x)
            raise TypeError("only scalars accepted")

        with pytest.raises(TypeError, match="only scalars accepted"):
            integrate(f, unit_interval, 1e-10)
        assert len(calls) == 1 and np.shape(calls[0]) == (15,)

    def test_failure_carries_array_estimate(self, monkeypatch):
        import cowlib._quadrature as quadrature
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 40)
        with pytest.raises(IntegrationError) as exc:
            integrate(lambda x: np.stack([np.exp(x), 2.0 * x]),
                      Interval(0.0, 1.0), 1e-300)
        est, err = exc.value.estimate, exc.value.error
        assert isinstance(est, np.ndarray) and est.shape == (2,)
        assert np.allclose(est, [math.e - 1.0, 1.0], rtol=1e-12)
        assert isinstance(err, np.ndarray) and np.all(err >= 0)

    def test_nonfinite_element_names_point(self, unit_interval):
        # one element is NaN above m = 0.6; the error names such a node
        with pytest.raises(IntegrationError, match="non-finite") as exc:
            integrate(lambda x: np.stack([x, np.where(x > 0.6, np.nan, x)]),
                      unit_interval, 1e-9)
        bad = float(str(exc.value).split("m=")[1].rstrip(")"))
        assert 0.6 < bad < 1.0


class TestMakeDensity:
    def test_uniform_is_one(self, unit_interval):
        d = make_density("uniform", [], unit_interval)
        x = np.linspace(0, 1, 101)
        assert np.allclose(d.pdf(x), 1.0)

    def test_wide_normal_approaches_uniform(self, unit_interval):
        d = make_density("normal", [0.5, 1e4], unit_interval)
        x = np.linspace(0, 1, 101)
        assert np.allclose(d.pdf(x), 1.0, atol=1e-6)

    def test_truncated_exponential_closed_form(self, unit_interval):
        lam = 2.3
        d = make_density("exponential", [lam], unit_interval)
        x = np.linspace(0, 1, 11)
        expected = lam * np.exp(-lam * x) / (1.0 - math.exp(-lam))
        assert np.allclose(d.pdf(x), expected, rtol=1e-12)

    def test_invalid_params(self, unit_interval):
        with pytest.raises(ConstructionError):
            make_density("normal", [0.5, -1.0], unit_interval)
        with pytest.raises(ConstructionError):
            make_density("uniform", [0.7, 0.2], unit_interval)
        with pytest.raises(ConstructionError):
            make_density("nosuchkind", [], unit_interval)

    def test_table_kind_is_unknown(self, unit_interval):
        with pytest.raises(ConstructionError, match="unknown density kind 'table'"):
            Density1D("table", [], unit_interval, {"xs": [0.0, 1.0], "ys": [1.0, 1.0]})

    @pytest.mark.parametrize("degree", [math.nan, math.inf, 0.5])
    def test_monomial_degree_finite_and_at_least_one(self, unit_interval, degree):
        # the monomial norm is the constant 1, so nothing else would catch nan
        with pytest.raises(ConstructionError, match="finite degree k >= 1"):
            Density1D("monomial", [degree], unit_interval)

    def test_mixture_components_have_its_support(self, unit_interval):
        # with the normal normalized on [0, 2], the mixture would integrate
        # to 0.75 on [0, 1]
        comps = [Density1D("normal", [1.0, 0.5], Interval(0.0, 2.0)),
                 Density1D("uniform", [], unit_interval)]
        with pytest.raises(ConstructionError, match="mixture's 'support'"):
            Density1D("mixture", [], unit_interval, {"weights": [1, 1], "components": comps})

    def test_exponential_whose_norm_overflows(self):
        # (1 - e^3000) / -1000 is beyond the float range
        with pytest.raises(ConstructionError, match="normalization"):
            Density1D("exponential", [-1000.0], Interval(0.0, 3.0))
        assert Density1D("exponential", [-200.0], Interval(0.0, 3.0)).pdf(3.0) == pytest.approx(200.0, rel=1e-12)

    def test_exponential_near_zero_slope(self):
        # 1 - e^(-lam W) cancels as lam W -> 0: to 0 at lam W = 1e-17, which
        # made the norm 0, and to 8e-8 relative at lam W = 1e-10
        iv = Interval(0.0, 1000.0)
        assert Density1D("exponential", [1e-20], iv).pdf(1.0) == pytest.approx(1e-3, rel=1e-15)
        d = Density1D("exponential", [1e-13], iv)
        # 1e-3 (1 + lam (W/2 - 1)) and W/2 (1 - lam W/4) to first order in lam
        assert d.pdf(1.0) == pytest.approx(1e-3 * (1.0 + 499e-13), rel=1e-15)
        assert d.ppf(0.5) == pytest.approx(500.0 * (1.0 - 250e-13), rel=1e-15)

    @pytest.mark.parametrize("lam", [-50.0, -1.0, -0.05, 0.05, 0.5, 2.3, 40.0])
    def test_exponential_unchanged_away_from_zero_slope(self, unit_interval, lam):
        # above |lam W| = _SERIES_LIMIT the norm and the inverse CDF keep the
        # closed form 1 - e^(-lam W), bit for bit
        d = make_density("exponential", [lam], unit_interval)
        x = np.linspace(0.0, 1.0, 11)
        c = 1.0 - math.exp(-lam)
        assert np.array_equal(d.pdf(x), np.exp(-lam * x) / (c / lam))
        with np.errstate(divide="ignore"):   # at u = 1 where e^(-lam W) < eps/2
            assert np.array_equal(d.ppf(x), np.clip(-np.log1p(-x * c) / lam, 0.0, 1.0))

    @pytest.mark.parametrize("kind,params", [("normal", [[0.5, 0.08]]),
                                             ("exponential", [[1.0]]),
                                             ("uniform", [[0.0], [1.0]])])
    def test_params_that_are_not_flat_rejected(self, unit_interval, kind, params):
        with pytest.raises(ConstructionError, match="flat list"):
            Density1D(kind, params, unit_interval)
        with pytest.raises(ConstructionError, match="flat list"):
            Density1D.from_dict({"kind": kind, "params": params, "support": [0.0, 1.0]})

    @pytest.mark.parametrize("kind,params", [
        ("uniform", []),
        ("normal", [0.4, 0.1]),
        ("exponential", [1.7]),
        ("monomial", [3]),
    ])
    def test_unit_normalization(self, kind, params, unit_interval):
        d = make_density(kind, params, unit_interval)
        total = integrate(d.pdf, unit_interval, 1e-9)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_outside_support(self, unit_interval):
        d = make_density("normal", [0.5, 0.2], unit_interval)
        assert d.pdf(1.5) == 0.0

    def test_far_outside_point_is_not_evaluated(self):
        # e^(200 x) overflows at x = 10: only points in the support are evaluated
        d = Density1D("exponential", [-200.0], Interval(0.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.pdf(10.0) == 0.0
            assert np.array_equal(d.pdf(np.array([-5.0, 1.0, 10.0])), [0.0, d.pdf(1.0), 0.0])

    @pytest.mark.parametrize("kind,params", [("uniform", [0.2, 0.7]), ("normal", [0.4, 0.1]),
                                             ("exponential", [1.7]), ("monomial", [3])])
    def test_points_inside_and_outside(self, kind, params, unit_interval):
        d = make_density(kind, params, unit_interval)
        inside = np.linspace(0.0, 1.0, 37)
        outside = [-1.0, 2.0, 1.0 + 1e-9, -1e300, 1e300, np.inf, -np.inf, np.nan]
        out = d.pdf(np.concatenate([inside, outside]))
        assert np.array_equal(out[:len(inside)], d.pdf(inside))   # bit for bit
        assert np.all(out[len(inside):] == 0.0)

    def test_json_round_trip(self, unit_interval):
        d = make_density("normal", [0.5, 0.1], unit_interval)
        d2 = Density1D.from_dict(d.to_dict())
        x = np.linspace(0, 1, 31)
        assert np.allclose(d.pdf(x), d2.pdf(x))

    def test_mixture_json_round_trip(self, unit_interval):
        h = histogram_density([0.1, 0.2, 0.8], [1.0, 2.0, 3.0], 2, unit_interval)
        d = Density1D("mixture", [], unit_interval,
                      {"weights": np.array([1.0, 3.0]),
                       "components": [h, make_density("normal", [0.5, 0.1], unit_interval)]})
        spec = d.to_dict()
        assert list(spec) == ["kind", "params", "support", "weights", "components"]
        assert list(spec["components"][0]) == ["kind", "params", "support", "edges",
                                               "contents", "sumw2"]
        d2 = Density1D.from_dict(spec)
        assert d2.to_dict() == spec
        x = np.linspace(0, 1, 31)
        assert np.array_equal(d.pdf(x), d2.pdf(x))
        assert d2.breakpoints() == [0.5]

    @pytest.mark.parametrize("mu,sigma", [(-1.0, 0.1), (-0.2, 0.1), (-2.0, 0.1),
                                          (-0.05, 0.3)])
    def test_normal_tails_mirror_symmetric(self, mu, sigma, unit_interval):
        # reflecting x -> 1 - x maps normal(mu) on [0, 1] onto normal(1 - mu);
        # the far lower and upper tails must normalize and invert alike
        d = make_density("normal", [mu, sigma], unit_interval)
        m = make_density("normal", [1.0 - mu, sigma], unit_interval)
        x = np.linspace(0.0, 0.05, 11)
        assert np.allclose(d.pdf(x), m.pdf(1.0 - x), rtol=1e-9, atol=0.0)
        assert integrate(d.pdf, unit_interval, 1e-9) == pytest.approx(1.0, abs=1e-8)
        u = np.array([0.0, 1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-12, 1.0])
        lower, upper = d.ppf(u), m.ppf(1.0 - u)
        assert np.allclose(lower, 1.0 - upper, rtol=0.0, atol=1e-12)
        assert np.all(np.diff(lower) >= 0)
        assert lower[0] == pytest.approx(0.0, abs=1e-12)
        assert lower[-1] == pytest.approx(1.0, abs=1e-12)

    def test_sampling_stays_in_support(self, unit_interval):
        d = make_density("normal", [0.5, 0.3], unit_interval)
        rng = np.random.default_rng(5)
        s = d.sample(rng, 1000)
        assert np.all((s >= 0) & (s <= 1))


class TestMonomialBasis:
    def test_first_element_is_uniform(self):
        (d,) = monomial_basis(1)
        x = np.linspace(0, 1, 51)
        assert np.allclose(d.pdf(x), 1.0)

    def test_second_element_value(self):
        basis = monomial_basis(2)
        # element 2 is 2u, so at u = 0.5 it evaluates to 1
        assert basis[1].pdf(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_third_element_normalized(self, unit_interval):
        basis = monomial_basis(3)
        assert integrate(basis[2].pdf, unit_interval, 1e-10) == \
            pytest.approx(1.0, abs=1e-9)

    def test_nonnegative_and_normalized_on_remapped_support(self):
        iv = Interval(-2.0, 3.0)
        for d in monomial_basis(4, iv):
            x = np.linspace(-2, 3, 101)
            assert np.all(d.pdf(x) >= 0)
            assert integrate(d.pdf, iv, 1e-10) == pytest.approx(1.0, abs=1e-8)

    def test_invalid_n(self):
        with pytest.raises(ConstructionError):
            monomial_basis(0)


class TestHistogramDensity:
    def test_single_bin_is_flat(self):
        iv = Interval(0.0, 2.0)
        rng = np.random.default_rng(1)
        d = histogram_density(rng.random(500) * 2, None, 1, iv)
        x = np.linspace(0, 2, 21)
        assert np.allclose(d.pdf(x), 0.5)

    def test_concentrated_samples_floor_elsewhere(self, unit_interval):
        samples = np.full(200, 0.05)
        d = histogram_density(samples, None, 10, unit_interval)
        # occupied bin close to bins/width; the rest floored far below
        assert d.pdf(0.05) == pytest.approx(10.0, rel=0.02)
        assert 0 < d.pdf(0.55) < 0.05
        assert d.data["n_dropped"] == 0

    def test_weight_rescaling_invariance(self, unit_interval):
        rng = np.random.default_rng(2)
        s = rng.random(300)
        w = rng.random(300) + 0.5
        d1 = histogram_density(s, w, 20, unit_interval)
        d2 = histogram_density(s, 7.5 * w, 20, unit_interval)
        x = np.linspace(0, 1, 101)
        assert np.allclose(d1.pdf(x), d2.pdf(x), rtol=1e-12)

    def test_out_of_range_dropped_and_counted(self, unit_interval):
        s = np.array([0.1, 0.2, 1.5, -0.3])
        d = histogram_density(s, None, 4, unit_interval)
        assert d.data["n_dropped"] == 2

    def test_zero_total_weight_rejected(self, unit_interval):
        with pytest.raises(ConstructionError):
            histogram_density(np.array([0.5]), np.array([0.0]), 2, unit_interval)

    def test_nonfinite_weights_rejected(self, unit_interval):
        with pytest.raises(ConstructionError):
            histogram_density(np.array([0.5]), np.array([np.nan]), 2, unit_interval)

    def test_unit_normalization(self, unit_interval):
        rng = np.random.default_rng(3)
        d = histogram_density(rng.random(1000), None, 25, unit_interval)
        assert integrate(d.pdf, unit_interval, 1e-9,
                         points=d.breakpoints()) == pytest.approx(1.0, abs=1e-8)

    def test_fill_and_round_trip(self, unit_interval):
        h = histogram_density([0.1, 0.2, 0.8], [1.0, 2.0, 3.0], 2, unit_interval)
        assert np.allclose(h.data["contents"], [3.0, 3.0])
        assert np.allclose(h.data["sumw2"], [5.0, 9.0])
        h2 = Density1D.from_dict(h.to_dict())
        assert np.allclose(h2.data["contents"], h.data["contents"])

    @pytest.mark.parametrize("edges", [[0.2, 0.5, 0.8], [-1.0, 0.5, 2.0], [0.0, 0.5, 0.9]])
    def test_edges_span_the_support(self, unit_interval, edges):
        # normalized on its own edges, the first would integrate to 1.667 on
        # [0, 1] and the second to 0.333
        with pytest.raises(ConstructionError, match="not over the support"):
            Density1D("histogram", [], unit_interval, {"edges": edges, "contents": [1.0, 1.0]})

    def test_length_mismatch_rejected(self, unit_interval):
        with pytest.raises(ConstructionError):
            Density1D("histogram", [], unit_interval,
                      {"edges": [0.0, 1.0], "contents": [1.0, 2.0]})


class TestEfficiencyMap:
    def test_grid_lookup(self):
        em = EfficiencyMap.from_grid([0.0, 0.5, 1.0], [0.0, 1.0],
                                     [[0.2], [0.8]])
        assert em(0.25, 0.5) == 0.2
        assert em(0.75, 0.5) == 0.8

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(ConstructionError):
            EfficiencyMap.from_grid([0.0, 1.0], [0.0, 1.0], [[0.0]])
        with pytest.raises(ConstructionError):
            EfficiencyMap.from_grid([0.0, 1.0], [0.0, 1.0], [[1.5]])

    @pytest.mark.parametrize("m_edges, t_edges, values", [
        ([0.0, 1.0, 0.5], [0.0, 1.0], [[0.5], [0.5]]),
        ([0.0, np.nan, 1.0], [0.0, 1.0], [[0.5], [0.5]]),
        ([0.0, 1.0], [0.0, np.inf], [[0.5]]),
        ([0.0, 1.0], [[0.0, 1.0]], [[0.5]]),
        ([0.0, 1.0], [0.0, 1.0], [[np.nan]])],
        ids=["unsorted", "nan-edge", "infinite-edge", "2-d-edges", "nan-value"])
    def test_malformed_grid_rejected(self, m_edges, t_edges, values):
        # edges out of order would put events in the wrong bins
        with pytest.raises(ConstructionError, match="edges must be finite and strictly "
                                                    "increasing|values must lie in"):
            EfficiencyMap.from_grid(m_edges, t_edges, values)

    def test_histogram_shares_the_edge_rule(self, unit_interval):
        with pytest.raises(ConstructionError, match="histogram edges must be finite"):
            Density1D("histogram", [], unit_interval,
                      {"edges": [0.0, np.nan, 1.0], "contents": [1.0, 2.0]})

    def test_unit_efficiency(self):
        m = np.linspace(0, 1, 5)
        assert np.allclose(efficiency_at(None, m, m), 1.0)

    def test_grid_round_trip(self):
        em = EfficiencyMap.from_grid([0.0, 0.5, 1.0], [0.0, 1.0, 2.0],
                                     [[0.2, 0.3], [0.7, 0.9]])
        em2 = EfficiencyMap.from_dict(em.to_dict())
        assert em2(0.6, 1.5) == 0.9

    def test_formula_not_serializable(self):
        with pytest.raises(EvaluationError):
            EfficiencyMap.from_function(lambda m, t: np.ones(np.broadcast(m, t).shape)).to_dict()


class TestPpfStaysInSupport:
    @pytest.mark.parametrize("kind,params", [
        ("uniform", []),
        ("uniform", [0.2, 0.7]),
        ("normal", [0.3, 0.1]),
        ("normal", [-3.0, 0.1]),      # far lower tail: CDF at hi underflows
        ("normal", [4.0, 0.1]),       # far upper tail: CDF at lo underflows
        ("normal", [-1.0, 0.1]),
        ("normal", [2.0, 0.1]),
        ("exponential", [1.7]),
        ("exponential", [-2.5]),
        ("exponential", [0.0]),
        ("exponential", [800.0]),
        ("monomial", [3]),
        ("monomial", [1]),
    ])
    def test_finite_and_inside(self, kind, params, unit_interval):
        d = make_density(kind, params, unit_interval)
        x = d.ppf(np.array([0.0, 0.5, 1.0]))
        assert np.all(np.isfinite(x))
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.all(np.diff(x) >= 0)
        assert float(d.ppf(0.5)) == x[1]

    def test_histogram(self, unit_interval):
        d = histogram_density(np.array([0.1, 0.15, 0.8]), np.ones(3), 4,
                              unit_interval)
        x = d.ppf(np.array([0.0, 0.5, 1.0]))
        assert np.all(np.isfinite(x))
        assert x[0] == 0.0 and x[-1] == 1.0

    def test_far_tails_clip_to_the_support_ends(self, unit_interval):
        below = make_density("normal", [-3.0, 0.1], unit_interval)
        above = make_density("normal", [4.0, 0.1], unit_interval)
        assert below.ppf(1.0) == 1.0
        assert above.ppf(0.0) == 0.0
        assert below.ppf(0.0) == pytest.approx(0.0, abs=1e-12)
        assert above.ppf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_in_support_values_unchanged(self, unit_interval):
        # clipping must not touch values the inverse CDF already puts inside
        d = make_density("normal", [0.5, 0.08], unit_interval)
        u = np.linspace(0.01, 0.99, 99)
        assert np.array_equal(d.ppf(u), d._ppf(u))


class TestGaussLegendre:
    def test_cached_read_only_and_exact(self):
        from cowlib._quadrature import gauss_legendre
        x, w = gauss_legendre(80)
        xr, wr = np.polynomial.legendre.leggauss(80)
        assert np.array_equal(x, xr) and np.array_equal(w, wr)
        assert not x.flags.writeable and not w.flags.writeable
        assert gauss_legendre(80)[0] is x


class TestClosedFormDerivatives:
    """``dlogpdf`` and ``d2logpdf`` against central differences (h = 1e-6
    for the first derivative, and 1e-4 for the second through
    ``numerical_hessian``).  These round by about eps |ln g| / h and eps |ln g| /
    h^2, and truncate by h^2 times the next-but-one derivative, which is up
    to ~h^2/sigma^2 of the derivative itself for a normal of width sigma
    < 1; hence the tolerances 1e-8 and 1e-5 of 1 + |ln g| plus 1e-7 and 1e-4
    of the derivative."""

    X = np.linspace(0.0, 1.0, 11)

    @staticmethod
    def stencils(d, x, scale=None):
        """The stencils, the first one's step scaled by ``scale`` or else
        by max(|theta_k|, 1) as the Hessian's is."""
        from cowlib import numerical_hessian
        theta = d.params
        d1 = np.empty((len(theta), len(x)))
        for k in range(len(theta)):
            h = 1e-6 * (scale or max(abs(theta[k]), 1.0))
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            d1[k] = (d.with_params(tp).logpdf(x) - d.with_params(tm).logpdf(x)) / (2 * h)
        d2 = numerical_hessian(lambda th: d.with_params(th).logpdf(x), theta, 1e-4)
        return d1, d2

    def check(self, d, x):
        d1, d2 = d.dlogpdf(x), d.d2logpdf(x)
        n1, n2 = self.stencils(d, x)
        scale = 1.0 + np.abs(d.logpdf(x))
        assert d1.shape == (d.n_params, len(x)) and d2.shape == (d.n_params,) * 2 + (len(x),)
        assert np.all(np.abs(d1 - n1) <= 1e-8 * scale + 1e-7 * np.abs(n1))
        assert np.all(np.abs(d2 - n2) <= 1e-5 * scale + 1e-4 * np.abs(n2))
        assert np.array_equal(d2, np.swapaxes(d2, 0, 1))
        return d1, d2

    @pytest.mark.parametrize("params", [
        [0.5, 0.08], [0.1, 0.3], [0.0, 2.0],   # a <= 0: the CDF difference
        [-1.0, 0.2], [-0.2, 0.05],             # a > 0: the survival-function branch
        [2.0, 0.2]])                           # b < 0: the lower tail
    def test_normal(self, params):
        self.check(Density1D("normal", params, Interval(0.0, 1.0)), self.X)

    # slopes on [0, 1] below and above the series limit |lam W| = 0.05 and
    # of order one (nearer 0 and where expm1 overflows: below)
    @pytest.mark.parametrize("lam", [-0.03, 0.049, 0.051, -0.051, 2.0, -7.0, 30.0])
    def test_exponential(self, lam):
        self.check(Density1D("exponential", [lam], Interval(0.0, 1.0)), self.X)

    @pytest.mark.parametrize("lam", [0.0, 1e-9])
    def test_exponential_at_zero_slope(self, lam):
        # the score is W/2 - u and its derivative -W^2/12 to rounding; the
        # density's normalization rounds by eps/|lam W| near lam = 0, so the
        # stencil needs a 100 times larger step there
        d = Density1D("exponential", [lam], Interval(1.0, 4.0))
        x = 1.0 + 3.0 * self.X
        assert np.allclose(d.dlogpdf(x)[0], 1.5 - (x - 1.0), rtol=0, atol=1e-8)
        assert np.allclose(d.d2logpdf(x), -0.75, rtol=1e-15, atol=0)
        n1, _ = self.stencils(d, x, scale=100.0)
        assert np.allclose(d.dlogpdf(x), n1, rtol=0, atol=1e-7)

    def test_exponential_where_expm1_overflows(self):
        # lam W = 900: the mean is 1/lam and the variance 1/lam^2 to rounding
        d = Density1D("exponential", [300.0], Interval(0.0, 3.0))
        x = np.linspace(0.0, 2.0, 5)
        assert np.array_equal(d.dlogpdf(x)[0], 1.0 / 300.0 - x)
        assert np.all(d.d2logpdf(x) == -1.0 / 300.0 ** 2)
        n1, n2 = self.stencils(d, x)
        assert np.allclose(d.dlogpdf(x), n1, rtol=1e-6, atol=0)
        assert np.allclose(d.d2logpdf(x), n2, rtol=1e-4, atol=0)

    @pytest.mark.parametrize("lam", [-200.0, -2.0, -1e-9, 0.0, 1e-9, 2.0, 200.0,
                                     0.05 / 3.0 * (1 - 1e-6), 0.05 / 3.0 * (1 + 1e-6)])
    def test_exponential_variance_matches_quadrature(self, lam):
        # at most 4800 eps relative where the closed form cancels
        from cowlib.densities import _exponential_variance
        iv = Interval(1.0, 4.0)
        h = Density1D("exponential", [lam], iv)
        q1, q0 = integrate(lambda x: np.stack([x * h.pdf(x), h.pdf(x)]), iv, tol=1e-14)
        mean = q1 / q0   # the central moment does not cancel
        tol = 1e-13 * q0 * min(1.0, lam ** -2 if lam else 1.0)   # Var < 1/lam^2
        expected = integrate(lambda x: (x - mean) ** 2 * h.pdf(x), iv, tol=tol) / q0
        assert _exponential_variance(lam, iv.width) == pytest.approx(expected, rel=2e-12, abs=0)

    @pytest.mark.parametrize("k", [2.5, 1.7, 30.0])
    def test_monomial(self, k):
        # ln g = ln k + (k - 1) ln u - ln W is -inf at u = 0: the stencils
        # start inside
        d = Density1D("monomial", [k], Interval(0.0, 1.0))
        d1, d2 = self.check(d, self.X[1:])
        assert np.allclose(d1[0], 1.0 / k + np.log(self.X[1:]), rtol=1e-15, atol=1e-15)
        assert np.all(d2 == -1.0 / k ** 2)

    def test_monomial_at_degree_one(self):
        # k >= 1, so no central difference exists at k = 1: a forward one,
        # which is off by h/2 |d2| = h/2
        iv = Interval(1.0, 3.0)
        d = Density1D("monomial", [1.0], iv)
        x = 1.0 + 2.0 * self.X[1:]
        h = 1e-6
        forward = (d.with_params([1.0 + h]).logpdf(x) - d.logpdf(x)) / h
        assert np.allclose(d.dlogpdf(x)[0], 1.0 + np.log((x - 1.0) / 2.0), rtol=0, atol=1e-15)
        assert np.allclose(d.dlogpdf(x), forward, rtol=0, atol=1e-6)
        assert np.all(d.d2logpdf(x) == -1.0)

    @pytest.mark.parametrize("k", [1.0, 2.5])
    def test_monomial_at_the_lower_end(self, k):
        # ln g has no finite derivative at u = 0; the score is kept finite
        # there (ln u taken as 0), so pdf * score, the pdf's derivative, is
        # 0 where the pdf is, with no RuntimeWarning
        d = Density1D("monomial", [k], Interval(0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d1, d2 = d.dlogpdf(self.X), d.d2logpdf(self.X)
            dpdf = d.pdf(self.X) * d1
        assert np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
        assert d1[0, 0] == 1.0 / k
        assert dpdf[0, 0] == (0.0 if k > 1 else 1.0)

    @pytest.mark.parametrize("kind,params", [("uniform", [0.2, 0.7])])
    def test_other_kinds_raise(self, kind, params):
        d = Density1D(kind, params, Interval(0.0, 1.0))
        with pytest.raises(EvaluationError):
            d.dlogpdf(self.X)
        with pytest.raises(EvaluationError):
            d.d2logpdf(self.X)
