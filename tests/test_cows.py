"""Generalized orthogonal weight functions: construction, variance
functions, fraction estimation and efficiency correction."""

import copy

import numpy as np
import pytest

from cowlib import (ConstructionError, Density1D, EfficiencyMap,
                    EvaluationError, IllConditionedBasisError, Interval,
                    MixtureComponent, MixtureModel, fit_extended_ml,
                    histogram_density, integrate, monomial_basis)
from cowlib import cows
from cowlib.cows import (CowSet, CowSpec, MixtureVariance,
                         UnityVariance, build_cow, efficiency_corrected_weights,
                         estimate_fractions, variance_fn_ml_iterative,
                         variance_fn_qm)
from cowlib.densities import floor_empty_bins
from cowlib.sweights import compute_W_variant_A, weight_functions
from cowlib.wcov import corrected_covariance_cow
from cowlib.toygen import (ToySpec, generate_nonfactorising, generate_simple,
                           simple_truth_densities)

from conftest import count_integrals, count_pdf_calls

HALF_EFF = EfficiencyMap.from_function(
    lambda m, t: np.full(np.broadcast(m, t).shape, 0.5))
# an explicit map of efficiency one, to compare with no map
ONE_EFF = EfficiencyMap.from_function(lambda m, t: np.ones(np.broadcast(m, t).shape))


@pytest.fixture(scope="module")
def simple_toy():
    ds = generate_simple(ToySpec(study="simple", n_events=2000, z=0.35, seed=9))
    gs, gb, _, _ = simple_truth_densities()
    return ds, gs, gb


class TestBuildCow:
    def test_mixture_variance_matches_classic_weights(self, unit_interval):
        gs, gb, _, _ = simple_truth_densities()
        z = 0.4
        wm = compute_W_variant_A([gs, gb], [z, 1 - z], unit_interval)
        wfs = weight_functions(wm, [gs, gb])
        cow = build_cow(CowSpec(basis=[gs, gb],
                                variance_fn=MixtureVariance([z, 1 - z], [gs, gb]),
                                support=unit_interval))
        grid = np.linspace(0, 1, 2001)
        w = cow.weights(grid)
        assert np.allclose(w[:, 0], wfs.w_k(0, grid), atol=1e-10)
        assert np.allclose(w[:, 1], wfs.w_k(1, grid), atol=1e-10)

    def test_monomial_basis_orthonormality(self, unit_interval):
        basis = monomial_basis(3, unit_interval)
        cow = build_cow(CowSpec(basis=basis, variance_fn=UnityVariance(),
                                support=unit_interval))
        for k in range(3):
            for l in range(3):
                val = integrate(lambda x, k=k: cow.w_k(k, x) * basis[l].pdf(x),
                                unit_interval, 1e-10)
                assert val == pytest.approx(float(k == l), abs=1e-8)

    def test_inverse_identity(self, unit_interval):
        basis = monomial_basis(4, unit_interval)
        cow = build_cow(CowSpec(basis=basis, variance_fn=UnityVariance(),
                                support=unit_interval))
        assert np.allclose(cow.A @ cow.W, np.eye(4), atol=1e-10)

    def test_sum_to_unity_for_in_span_variance(self, unit_interval):
        gs, gb, _, _ = simple_truth_densities()
        var = MixtureVariance([0.25, 0.75], [gs, gb])
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=var,
                                support=unit_interval))
        grid = np.linspace(0, 1, 10_000)
        assert np.allclose(cow.weights(grid).sum(axis=1), 1.0, atol=1e-9)

    def test_duplicate_basis_ill_conditioned(self, unit_interval):
        gs, gb, _, _ = simple_truth_densities()
        with pytest.raises(IllConditionedBasisError):
            build_cow(CowSpec(basis=[gs, gs, gb], variance_fn=UnityVariance(),
                              support=unit_interval))

    def test_nonpositive_variance_fn_rejected(self, unit_interval):
        gs, gb, _, _ = simple_truth_densities()

        class BadVar:
            in_span = False

            def __call__(self, m):
                return -np.ones_like(np.asarray(m, dtype=float))

            def breakpoints(self):
                return []

        with pytest.raises(ConstructionError):
            CowSpec(basis=[gs, gb], variance_fn=BadVar(), support=unit_interval)

    def test_signal_proxy_orthogonality(self, simple_toy, unit_interval):
        # with a data-driven proxy for the signal shape, the first weight
        # function is normalized against the proxy and orthogonal to the
        # polynomial background terms
        ds, gs, gb = simple_toy
        proxy = histogram_density(ds.m, None, 40, unit_interval)
        basis = [gs] + monomial_basis(3, unit_interval)
        cow = build_cow(CowSpec(basis=basis, variance_fn=UnityVariance(),
                                support=unit_interval, signal_proxy=proxy))
        pts = proxy.breakpoints()
        val = integrate(lambda x: cow.w_k(0, x) * proxy.pdf(x), unit_interval,
                        1e-9, points=pts)
        assert val == pytest.approx(1.0, abs=1e-7)
        for l in range(1, 4):
            val = integrate(lambda x, l=l: cow.w_k(0, x) * basis[l].pdf(x),
                            unit_interval, 1e-9, points=pts)
            assert val == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("variance", ["mixture", "histogram"])
    def test_one_integral_pass(self, unit_interval, monkeypatch, variance):
        # W is one vector integral; every basis density is evaluated once
        # per node batch, a mixture I(m) being summed from the basis values
        gs, _, _, _ = simple_truth_densities()
        basis = [gs] + monomial_basis(4, unit_interval)
        if variance == "mixture":
            var = MixtureVariance(np.full(5, 0.2), basis)
        else:
            m = np.random.default_rng(2).random(500)
            var = histogram_density(m, np.ones(500), 20, unit_interval)
        spec = CowSpec(basis=basis, variance_fn=var, support=unit_interval)
        integrals = count_integrals(monkeypatch, cows)
        pdf_calls = count_pdf_calls(monkeypatch)
        cow = build_cow(spec)
        assert len(integrals) == 1
        for g in basis:
            assert sum(d is g for d in pdf_calls) == len(integrals[0])
        assert np.allclose(cow.A @ cow.W, np.eye(5), atol=1e-8)

    def test_mixture_variance_from_basis_values_is_bit_identical(self, unit_interval):
        # a mixture over copies of the basis densities is called as I(m);
        # over the basis densities themselves it is summed from their values
        gs, _, _, _ = simple_truth_densities()
        basis = [gs] + monomial_basis(3, unit_interval)
        z = [0.4, 0.1, 0.3, 0.2]
        W = {}
        for route, var_basis in (("values", basis), ("call", [copy.copy(g) for g in basis])):
            W[route] = build_cow(CowSpec(basis=basis, variance_fn=MixtureVariance(z, var_basis),
                                         support=unit_interval)).W
        assert np.array_equal(W["values"], W["call"])


class TestVarianceFunctions:
    def test_mixture_variance_validation(self):
        gs, gb, _, _ = simple_truth_densities()
        with pytest.raises(ConstructionError):
            MixtureVariance([0.5, -0.1], [gs, gb])
        with pytest.raises(ConstructionError):
            MixtureVariance([0.0, 0.0], [gs, gb])
        with pytest.raises(ConstructionError):
            MixtureVariance([0.5], [gs, gb])

    def test_histogram_variance_floors_empty_bins(self, unit_interval):
        var = histogram_density(np.full(10, 0.25), None, 2, unit_interval)
        assert var(0.75) > 0

    def test_histogram_variance_empty_rejected(self):
        with pytest.raises(ConstructionError):
            floor_empty_bins([0.0])

    def test_qm_single_bin_equals_unity(self, simple_toy, unit_interval):
        # a single-bin histogram variance function is a constant, and the
        # weights are invariant under constant rescaling of that function
        ds, gs, gb = simple_toy
        hist = variance_fn_qm(ds.data, None, 1,
                              support=unit_interval)
        cow_q = build_cow(CowSpec(basis=[gs, gb],
                                  variance_fn=hist,
                                  support=unit_interval))
        cow_u = build_cow(CowSpec(basis=[gs, gb], variance_fn=UnityVariance(),
                                  support=unit_interval))
        grid = np.linspace(0, 1, 501)
        assert np.allclose(cow_q.weights(grid), cow_u.weights(grid), atol=1e-9)

    def test_qm_constant_efficiency_cancels(self, simple_toy, unit_interval):
        ds, _, _ = simple_toy
        h1 = variance_fn_qm(ds.data, None, 25, support=unit_interval)
        h2 = variance_fn_qm(ds.data, HALF_EFF, 25, support=unit_interval)
        assert np.allclose(h1.data["contents"], h2.data["contents"], rtol=1e-12)

    def test_qm_matches_generator_integral(self):
        # oracle: the expected bin fractions are the quadrature integral of
        # (observed density)/efficiency^2 = total/efficiency over each bin
        ds = generate_nonfactorising(ToySpec(
            study="nonfactorising", n_events=20000, z=0.5, efficiency=True,
            seed=42))
        tr = ds.truth
        hist = variance_fn_qm(ds.data, ds.efficiency, 20,
                              support=Interval(0.0, 1.0))
        xg, wg = np.polynomial.legendre.leggauss(40)
        tg, wt = 1.5 + 1.5 * xg, 1.5 * wg
        expected = []
        for j in range(20):
            a, b = hist.data["edges"][j], hist.data["edges"][j + 1]
            mg, wm = 0.5 * (a + b) + 0.5 * (b - a) * xg, 0.5 * (b - a) * wg
            M, T = np.meshgrid(mg, tg, indexing="ij")
            F = (tr["z"] * tr["f_sig"](M, T)
                 + (1 - tr["z"]) * tr["f_bkg"](M, T)) / tr["eff"](M, T)
            expected.append(float(np.sum(np.outer(wm, wt) * F)))
        expected = np.asarray(expected)
        expected /= expected.sum()
        dev = (hist.data["contents"] - expected) / np.sqrt(hist.data["sumw2"])
        assert np.max(np.abs(dev)) < 5.0

    def test_qm_invalid_inputs(self, simple_toy, unit_interval):
        ds, _, _ = simple_toy
        with pytest.raises(ConstructionError):
            variance_fn_qm(ds.data, None, 0, support=unit_interval)

    @pytest.mark.parametrize("eff", ["none", "map"])
    @pytest.mark.parametrize("bins", [1, 7, 50])
    def test_qm_is_the_reference_histogram_variance(self, simple_toy, unit_interval,
                                                    eff, bins):
        # an empty bin in the upper range tests the floor as well
        ds, _, _ = simple_toy
        data = ds.data[ds.m < 0.9]
        emap = None if eff == "none" else EfficiencyMap.from_function(
            lambda m, t: 0.3 + 0.5 * m * np.ones_like(t))
        got = variance_fn_qm(data, emap, bins, support=unit_interval)
        ref = reference_histogram_variance(data, emap, bins, unit_interval)
        grid = np.concatenate([np.linspace(0, 1, 1001), ds.m, got.data["edges"]])
        assert got.kind == "histogram"
        assert np.array_equal(got.pdf(grid), ref.pdf(grid))
        assert np.array_equal(got.breakpoints(), ref.breakpoints())

    def test_qm_without_an_event_inside_the_support(self, simple_toy, recwarn):
        ds, _, _ = simple_toy
        with pytest.raises(ConstructionError, match="no event inside the support"):
            variance_fn_qm(ds.data, None, 5, support=Interval(2.0, 3.0))
        assert not recwarn.list


def reference_histogram_variance(data, eff, bins, support):
    """The qm variance function as it was built before it was a density:
    a 1/efficiency^2-weighted fill, normalized by its total, the empty bins
    floored at ZERO_BIN_FLOOR times the smallest filled bin, as a histogram
    density."""
    from cowlib.densities import ZERO_BIN_FLOOR

    data = np.asarray(data, dtype=float)
    m, t = data[:, 0], data[:, 1]
    e = np.ones(len(m)) if eff is None else np.asarray(eff(m, t), dtype=float)
    edges = np.linspace(support.lo, support.hi, bins + 1)
    contents, _ = np.histogram(m, bins=edges, weights=1.0 / e ** 2)
    contents = contents / float(np.sum(contents))
    positive = contents[contents > 0]
    contents[contents <= 0] = positive.min() * ZERO_BIN_FLOOR
    return Density1D("histogram", [], Interval(edges[0], edges[-1]),
                     {"edges": edges, "contents": contents})


class TestFloorEmptyBins:
    def test_rows_floored_at_their_own_smallest_bin(self):
        got = floor_empty_bins([[4.0, 0.0, 2.0], [0.0, 8.0, 0.0], [1.0, 3.0, 5.0]])
        assert np.array_equal(got, [[4.0, 2e-3, 2.0], [8e-3, 8.0, 8e-3], [1.0, 3.0, 5.0]])

    def test_non_positive_bins_are_empty(self):
        assert np.array_equal(floor_empty_bins([-1.0, 0.5]), [0.5e-3, 0.5])

    @pytest.mark.parametrize("contents", [[0.0, 0.0], [[1.0, 0.0], [0.0, -2.0]]])
    def test_a_row_without_a_positive_bin_rejected(self, contents):
        with pytest.raises(ConstructionError, match="no positive bin"):
            floor_empty_bins(contents)


class TestImpliedVariance:
    @pytest.mark.parametrize("implied", [True, False], ids=["implied", "unity"])
    def test_dw_dW_matches_finite_differences(self, unit_interval, implied):
        basis = monomial_basis(3, unit_interval)
        cow = build_cow(CowSpec(basis=basis, variance_fn=UnityVariance(),
                                support=unit_interval))
        if implied:
            cow = cows.implied_cow(cow.W, cow.A, basis)
        m = np.linspace(0.05, 0.95, 7)

        def w_s(W):
            A = np.linalg.inv(W)
            other = (cows.implied_cow(W, A, basis) if implied
                     else CowSet(cow.spec, W, A))
            return other.weights(m)[:, 0]

        dW = cow.dw_dW(m)
        h = 1e-6 * np.max(np.abs(cow.W))
        for j, (k, l) in enumerate(zip(*np.triu_indices(3))):
            E = np.zeros((3, 3))
            E[k, l] = E[l, k] = h
            fd = (w_s(cow.W + E) - w_s(cow.W - E)) / (2 * h)
            assert np.allclose(dW[:, j], fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(dW)))

    def test_signed_fractions_accepted(self, unit_interval):
        gs, gb, _, _ = simple_truth_densities()
        W = np.array([[1.0, 0.5], [0.5, 0.2]])     # A 1 = (6, -10)
        cow = cows.implied_cow(W, np.linalg.inv(W), [gs, gb])
        assert np.allclose(cow.spec.variance_fn.fractions, [6.0, -10.0])
        w = cow.weights(np.linspace(0.01, 0.99, 99))
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
        with pytest.raises(EvaluationError):
            cow.weights([1.5])                    # I = 0 outside the support
        with pytest.raises(ConstructionError):
            MixtureVariance(cow.spec.variance_fn.fractions, [gs, gb])


class TestIterativeFractions:
    def test_matches_extended_ml_fraction(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        fit = fit_extended_ml(ds.m, MixtureModel(
            [MixtureComponent("s", gs, False), MixtureComponent("b", gb, False)],
            np.array([1000.0, 1000.0])))
        z_ml = fit.params[0] / fit.params[:2].sum()
        z_it, var = variance_fn_ml_iterative([gs, gb], ds.data)
        assert z_it[0] == pytest.approx(z_ml, abs=1e-6)
        assert isinstance(var, MixtureVariance)

    def test_pure_component_data(self, unit_interval):
        # data purely from the background component (bounded away from zero,
        # so the iterated variance function stays well conditioned)
        gs, gb, _, _ = simple_truth_densities()
        rng = np.random.default_rng(13)
        m = gb.sample(rng, 3000)
        z, _ = variance_fn_ml_iterative([gs, gb], m)
        assert z[1] > 0.95

    def test_invalid_max_iter(self, simple_toy):
        ds, gs, gb = simple_toy
        with pytest.raises(ConstructionError):
            variance_fn_ml_iterative([gs, gb], ds.data, max_iter=0)


class TestEstimateFractions:
    def test_single_component_in_span(self, unit_interval):
        gs, _, _, _ = simple_truth_densities()
        rng = np.random.default_rng(2)
        m = gs.sample(rng, 500)
        var = MixtureVariance([1.0], [gs])
        cow = build_cow(CowSpec(basis=[gs], variance_fn=var,
                                support=unit_interval))
        z, d_hat = estimate_fractions(cow, m)
        assert z[0] == pytest.approx(1.0, rel=1e-12)
        assert d_hat == 1.0

    def test_unit_efficiency_harmonic_mean(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        var = MixtureVariance([0.35, 0.65], [gs, gb])
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=var,
                                support=unit_interval))
        z_unit, d_unit = estimate_fractions(cow, ds.data)
        z_half, d_half = estimate_fractions(cow, ds.data, HALF_EFF)
        assert d_unit == 1.0
        assert d_half == pytest.approx(0.5, rel=1e-12)
        # constant efficiency cancels between D-hat and the 1/eff weights
        assert np.allclose(z_half, z_unit, rtol=1e-12)


class TestEfficiencyCorrectedWeights:
    def test_unit_efficiency_identity(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=UnityVariance(),
                                support=unit_interval))
        w_none = efficiency_corrected_weights(cow, None, ds.data)
        w_unit = efficiency_corrected_weights(cow, ONE_EFF, ds.data)
        assert np.allclose(w_none, cow.weights(ds.m))
        assert np.allclose(w_unit, w_none)

    def test_constant_half_doubles(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=UnityVariance(),
                                support=unit_interval))
        w1 = efficiency_corrected_weights(cow, None, ds.data)
        w2 = efficiency_corrected_weights(cow, HALF_EFF, ds.data)
        assert np.allclose(w2, 2.0 * w1, rtol=1e-12)

    def test_tiny_efficiency_rejected(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=UnityVariance(),
                                support=unit_interval))
        tiny = EfficiencyMap.from_function(
            lambda m, t: np.full(np.broadcast(m, t).shape, 1e-9))
        with pytest.raises(EvaluationError):
            efficiency_corrected_weights(cow, tiny, ds.data)


class TestOneColumnWithEfficiency:
    @pytest.fixture
    def unity_cow(self, unit_interval):
        gs, gb, _, _ = simple_truth_densities()
        return build_cow(CowSpec(basis=[gs, gb], variance_fn=UnityVariance(),
                                 support=unit_interval))

    @pytest.mark.parametrize("shape", ["1d", "column"])
    def test_rejected(self, simple_toy, unity_cow, shape):
        ds = simple_toy[0]
        m = ds.m if shape == "1d" else ds.data[:, :1]
        with pytest.raises(EvaluationError, match="one column"):
            estimate_fractions(unity_cow, m, HALF_EFF)
        with pytest.raises(EvaluationError, match="one column"):
            efficiency_corrected_weights(unity_cow, HALF_EFF, m)
        gs, gb, _, _ = simple_truth_densities()
        with pytest.raises(EvaluationError, match="one column"):
            variance_fn_ml_iterative([gs, gb], m, HALF_EFF)

    @pytest.mark.parametrize("shape", ["1d", "column"])
    def test_without_efficiency_uses_m(self, simple_toy, unity_cow, shape):
        ds = simple_toy[0]
        m = ds.m if shape == "1d" else ds.data[:, :1]
        z, d_hat = estimate_fractions(unity_cow, m)
        z2, _ = estimate_fractions(unity_cow, ds.data)
        assert d_hat == 1.0
        assert np.array_equal(z, z2)
        assert np.array_equal(efficiency_corrected_weights(unity_cow, None, m),
                              unity_cow.weights(ds.m))


LOW_EVENT = 17   # the event given a low efficiency below

# each consumer of 1/efficiency, reduced to an array
EFFICIENCY_CONSUMERS = {
    "estimate_fractions": lambda data, cow, hs, eff: estimate_fractions(cow, data, eff)[0],
    "variance_fn_qm": lambda data, cow, hs, eff: variance_fn_qm(
        data, eff, 10, cow.spec.support).data["contents"],
    "efficiency_corrected_weights": lambda data, cow, hs, eff: efficiency_corrected_weights(
        cow, eff, data),
    "corrected_covariance_cow": lambda data, cow, hs, eff: corrected_covariance_cow(
        cow, data, hs, [2.0], eff=eff).theta_block,
}


class TestEfficiencyCheck:
    """Every consumer of 1/efficiency rejects an efficiency below
    MIN_EFFICIENCY, naming the event, and reads no map as efficiency one."""

    @pytest.fixture(scope="class")
    def inputs(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=UnityVariance(),
                                support=unit_interval))
        return ds.data[:300], cow, simple_truth_densities()[2]

    @pytest.mark.parametrize("consumer", EFFICIENCY_CONSUMERS)
    @pytest.mark.parametrize("value", [0.0, 1e-7])
    def test_low_efficiency_rejected(self, inputs, consumer, value):
        data, cow, hs = inputs
        low_m = data[LOW_EVENT, 0]
        eff = EfficiencyMap.from_function(lambda m, t: np.where(m == low_m, value, 0.5))
        with pytest.raises(EvaluationError, match=f"at event {LOW_EVENT};"):
            EFFICIENCY_CONSUMERS[consumer](data, cow, hs, eff)

    @pytest.mark.parametrize("consumer", EFFICIENCY_CONSUMERS)
    def test_no_map_is_unit_efficiency(self, inputs, consumer):
        data, cow, hs = inputs
        got = EFFICIENCY_CONSUMERS[consumer](data, cow, hs, None)
        assert np.array_equal(got, EFFICIENCY_CONSUMERS[consumer](data, cow, hs, ONE_EFF))
