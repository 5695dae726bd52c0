"""Generalized orthogonal weight functions: construction, variance
functions, fraction estimation and efficiency correction."""

import copy

import numpy as np
import pytest

from cowlib import (ConstructionError, Density1D, EfficiencyMap,
                    EvaluationError, IllConditionedBasisError, IntegrationError, Interval,
                    MixtureComponent, MixtureModel, fit_extended_ml,
                    histogram_density, make_density, monomial_basis)
from cowlib import cows
from cowlib.cows import (CowSet, CowSpec, _mixture, build_cow,
                         efficiency_corrected_weights, estimate_fractions,
                         variance_fn_ml_iterative, variance_fn_qm)
from cowlib.densities import floor_empty_bins
from cowlib.methods import MAX_POLY_ORDER
from cowlib.sweights import compute_W_variant_A, weight_functions
from cowlib.wcov import corrected_covariance_cow
from cowlib.toygen import (ToySpec, generate_nonfactorising, generate_simple,
                           simple_truth_densities)

from conftest import count_integrals, count_pdf_calls, quad, with_efficiency

HALF_EFF = EfficiencyMap.from_function(
    lambda m, t: np.full(np.broadcast(m, t).shape, 0.5))
# an explicit map of efficiency one, to compare with no map
ONE_EFF = EfficiencyMap.from_function(lambda m, t: np.ones(np.broadcast(m, t).shape))


def unity(support):
    """The variance function I = 1 / width of the support."""
    return Density1D("uniform", [], support)


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
                                variance_fn=_mixture([z, 1 - z], [gs, gb]),
                                support=unit_interval))
        grid = np.linspace(0, 1, 2001)
        w = cow.weights(grid)
        assert np.allclose(w[:, 0], wfs.w_k(0, grid), atol=1e-10)
        assert np.allclose(w[:, 1], wfs.w_k(1, grid), atol=1e-10)

    def test_monomial_basis_orthonormality(self, unit_interval):
        basis = monomial_basis(3, unit_interval)
        cow = build_cow(CowSpec(basis=basis, variance_fn=unity(unit_interval),
                                support=unit_interval))
        for k in range(3):
            for l in range(3):
                val = quad(lambda x, k=k: cow.w_k(k, x) * basis[l].pdf(x),
                           unit_interval, *basis)
                assert val == pytest.approx(float(k == l), abs=1e-8)

    def test_inverse_identity(self, unit_interval):
        basis = monomial_basis(4, unit_interval)
        cow = build_cow(CowSpec(basis=basis, variance_fn=unity(unit_interval),
                                support=unit_interval))
        assert np.allclose(cow.A @ cow.W, np.eye(4), atol=1e-10)

    def test_sum_to_unity_for_in_span_variance(self, unit_interval):
        gs, gb, _, _ = simple_truth_densities()
        var = _mixture([0.25, 0.75], [gs, gb])
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=var,
                                support=unit_interval))
        grid = np.linspace(0, 1, 10_000)
        assert np.allclose(cow.weights(grid).sum(axis=1), 1.0, atol=1e-9)

    def test_duplicate_basis_ill_conditioned(self, unit_interval):
        gs, gb, _, _ = simple_truth_densities()
        with pytest.raises(IllConditionedBasisError):
            build_cow(CowSpec(basis=[gs, gs, gb], variance_fn=unity(unit_interval),
                              support=unit_interval))

    @pytest.mark.parametrize("variance", ["unity", "qm"])
    def test_high_orders_fail_as_ill_conditioned(self, unit_interval, variance):
        # up to MAX_POLY_ORDER the quadrature resolves W, and its condition
        # number is what rejects it
        gs, _, _, _ = simple_truth_densities()
        var = (unity(unit_interval) if variance == "unity" else histogram_density(
            np.random.default_rng(1).random(2000), None, 50, unit_interval))
        for order in range(20, MAX_POLY_ORDER + 1):
            with pytest.raises(IllConditionedBasisError, match="condition number"):
                build_cow(CowSpec(basis=[gs] + monomial_basis(order + 1, unit_interval),
                                  variance_fn=var, support=unit_interval))

    @pytest.mark.parametrize("W", [np.diag([1.0, -1.0]), np.array([[1.0, 0.5], [0.5, np.nan]])],
                             ids=["indefinite", "nan"])
    def test_unusable_W_rejected(self, unit_interval, monkeypatch, W):
        # perfectly conditioned but indefinite: it has no Cholesky factor,
        # and no other inverse stands in for one; a nan is never inverted
        gs, gb, _, _ = simple_truth_densities()
        monkeypatch.setattr(cows, "gram_matrix", lambda *args: W)
        with pytest.raises(IllConditionedBasisError, match="not positive definite"):
            build_cow(CowSpec(basis=[gs, gb], variance_fn=unity(unit_interval),
                              support=unit_interval))

    def test_nonpositive_variance_fn_rejected(self, unit_interval):
        # a density that is zero on part of the support
        gs, gb, _, _ = simple_truth_densities()
        bad = Density1D("uniform", [0.2, 0.8], unit_interval)
        with pytest.raises(ConstructionError, match="strictly positive"):
            CowSpec(basis=[gs, gb], variance_fn=bad, support=unit_interval)

    def test_spec_without_a_variance_function_not_built(self, unit_interval):
        gs, gb, _, _ = simple_truth_densities()
        with pytest.raises(ConstructionError, match="no W to compute"):
            build_cow(CowSpec(basis=[gs, gb], variance_fn=None, support=unit_interval))

    @pytest.mark.parametrize("off", ["basis", "signal_proxy"])
    def test_density_on_another_support_rejected(self, unit_interval, off):
        # not normalized on the support, such a density would keep the
        # weights from summing to N
        gs, gb, _, _ = simple_truth_densities()
        other = Density1D(gb.kind, gb.params, Interval(0.0, 2.0))
        basis, proxy = ([gs, other], None) if off == "basis" else ([gs, gb], other)
        with pytest.raises(ConstructionError, match=r"on \(0.0, 2.0\), not on the support"):
            CowSpec(basis=basis, variance_fn=unity(unit_interval), support=unit_interval,
                    signal_proxy=proxy)

    def test_signal_proxy_orthogonality(self, simple_toy, unit_interval):
        # with a data-driven proxy for the signal shape, the first weight
        # function is normalized against the proxy and orthogonal to the
        # polynomial background terms
        ds, gs, gb = simple_toy
        proxy = histogram_density(ds.m, None, 40, unit_interval)
        basis = [gs] + monomial_basis(3, unit_interval)
        cow = build_cow(CowSpec(basis=basis, variance_fn=unity(unit_interval),
                                support=unit_interval, signal_proxy=proxy))
        val = quad(lambda x: cow.w_k(0, x) * proxy.pdf(x), unit_interval, proxy, *basis)
        assert val == pytest.approx(1.0, abs=1e-7)
        for l in range(1, 4):
            val = quad(lambda x, l=l: cow.w_k(0, x) * basis[l].pdf(x),
                       unit_interval, proxy, *basis)
            assert val == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("variance", ["mixture", "histogram"])
    def test_one_integral_pass(self, unit_interval, monkeypatch, variance):
        # W is one vector integral, or for a histogram I one pass of the
        # per-bin Gram array B that the cow keeps; every basis density is
        # evaluated once per node batch, a mixture I(m) being summed from
        # the basis values
        gs, _, _, _ = simple_truth_densities()
        basis = [gs] + monomial_basis(4, unit_interval)
        if variance == "mixture":
            var = _mixture(np.full(5, 0.2), basis)
        else:
            m = np.random.default_rng(2).random(500)
            var = histogram_density(m, np.ones(500), 20, unit_interval)
        spec = CowSpec(basis=basis, variance_fn=var, support=unit_interval)
        cows._pair_integrals.cache_clear()   # B's panel integrals are cached per process
        integrals = count_integrals(monkeypatch, cows)
        bin_grams = []
        bin_gram = cows._bin_gram
        monkeypatch.setattr(cows, "_bin_gram", lambda *a: bin_grams.append(a) or bin_gram(*a))
        pdf_calls = count_pdf_calls(monkeypatch)
        cow = build_cow(spec)
        histogram = variance == "histogram"
        assert (len(integrals), len(bin_grams)) == ((0, 1) if histogram else (1, 0))
        for g in basis:
            assert sum(d is g for d in pdf_calls) == (1 if histogram else len(integrals[0]))
        assert (cow.B is not None) == histogram
        assert np.allclose(cow.A @ cow.W, np.eye(5), atol=1e-8)

    def test_mixture_variance_from_basis_values_is_bit_identical(self, unit_interval):
        # a mixture over copies of the basis densities is called as I(m);
        # over the basis densities themselves it is summed from their values
        gs, _, _, _ = simple_truth_densities()
        basis = [gs] + monomial_basis(3, unit_interval)
        z = [0.4, 0.1, 0.3, 0.2]
        W = {}
        for route, var_basis in (("values", basis), ("call", [copy.copy(g) for g in basis])):
            W[route] = build_cow(CowSpec(basis=basis, variance_fn=_mixture(z, var_basis),
                                         support=unit_interval)).W
        assert np.array_equal(W["values"], W["call"])

    def test_variance_at_is_the_pdf_times_the_weight_sum(self, unit_interval):
        # a mixture I is summed from the basis values where its components
        # are basis elements, from their pdf elsewhere, and not normalized
        gs, gb, _, _ = simple_truth_densities()
        basis = [gs] + monomial_basis(2, unit_interval)
        m = np.linspace(0.0, 1.0, 301)
        gv = np.stack([g.pdf(m) for g in basis])
        z = [0.4, 0.9, 0.3]
        for var in (_mixture(z, [basis[0], gb, basis[2]]), _mixture(z, basis)):
            assert np.allclose(cows._variance_at(var, basis, gv, m), var.pdf(m) * 1.6,
                               rtol=1e-14, atol=0)
        hist = histogram_density(m, None, 7, unit_interval)
        assert np.array_equal(cows._variance_at(hist, basis, gv, m), hist.pdf(m))

    def test_mixture_weights_evaluate_each_basis_pdf_once(self, simple_toy, monkeypatch):
        # I is read from the basis values the weights already hold
        ds, gs, gb = simple_toy
        _, cow = variance_fn_ml_iterative([gs, gb], ds.data)
        calls = count_pdf_calls(monkeypatch)
        cow.weights(ds.m)
        assert calls == [gs, gb]


class TestNarrowPeak:
    """A normal peak much narrower than the support: the Gram matrix's
    panels end at its mu + k sigma, so no peak falls between the nodes."""

    SIGMA = 0.007

    def test_gram_matrix_meets_the_closed_form(self, unit_interval):
        peak = make_density("normal", [0.45, self.SIGMA], unit_interval)
        W = cows.gram_matrix([peak], unity(unit_interval), unit_interval)
        assert W[0, 0] == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi) * self.SIGMA), rel=1e-12)

    def test_one_element_cow_weight(self, unit_interval):
        # w = g / W with W = 1 / (2 sqrt(pi) sigma): sqrt(2) at the mean
        peak = make_density("normal", [0.45, self.SIGMA], unit_interval)
        cow = build_cow(CowSpec(basis=[peak], variance_fn=unity(unit_interval),
                                support=unit_interval))
        assert cow.w_k(0, np.array([0.45]))[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("variance", ["unity", "mixture"])
    @pytest.mark.parametrize("mu", [0.05, 0.3, 0.45, 0.55, 0.95])
    @pytest.mark.parametrize("sigma", [7e-3, 1e-3, 1e-4, 1e-5])
    def test_scan_matches_an_independent_rule(self, unit_interval, sigma, mu, variance):
        basis = [make_density("normal", [mu, sigma], unit_interval),
                 make_density("exponential", [1.0], unit_interval)]
        var = unity(unit_interval) if variance == "unity" else _mixture([0.2, 0.8], basis)
        W = cows.gram_matrix(basis, var, unit_interval)
        for k in range(2):
            for l in range(k, 2):
                ref = quad(lambda x: basis[k].pdf(x) * basis[l].pdf(x) / var.pdf(x),
                           unit_interval, var, *basis)
                assert W[k, l] == pytest.approx(ref, rel=1e-9, abs=1e-9)


class TestNonIntegerMonomial:
    """A monomial of non-integer degree k: u^(k-1) has an unbounded
    derivative at lo, so its panels halve toward lo."""

    def test_with_a_uniform(self, unit_interval):
        basis = [unity(unit_interval), make_density("monomial", [1.5], unit_interval)]
        W = cows.gram_matrix(basis, unity(unit_interval), unit_interval)
        np.testing.assert_allclose(W, [[1.0, 1.0], [1.0, 1.125]], rtol=1e-12)

    @pytest.mark.parametrize("variance", ["unity", "mixture"])
    @pytest.mark.parametrize("degree", [1.01, 1.5, 2.5, 7.3])
    def test_matches_an_independent_rule(self, unit_interval, degree, variance):
        basis = [make_density("normal", [0.45, 0.05], unit_interval),
                 make_density("monomial", [degree], unit_interval),
                 make_density("monomial", [1.0], unit_interval),
                 make_density("monomial", [2.0], unit_interval)]
        var = unity(unit_interval) if variance == "unity" else _mixture([0.3, 0.7], basis[:2])
        W = cows.gram_matrix(basis, var, unit_interval)
        for l in range(4):   # the row of the monomial of non-integer degree
            ref = quad(lambda x: basis[1].pdf(x) * basis[l].pdf(x) / var.pdf(x),
                       unit_interval, var, *basis)
            assert W[1, l] == pytest.approx(ref, rel=1e-9, abs=1e-9)


class TestBinGram:
    """The per-bin Gram array B of a histogram variance function, from which
    a qm cow's W and its bootstrap replicas' are summed."""

    @pytest.mark.parametrize("sigma", [1e-3, 3e-4, 1e-4])
    def test_each_bin_matches_an_independent_rule(self, unit_interval, sigma):
        # a peak at a bin edge (0.45 in 20 bins), down to sigma = 1e-4
        basis = [make_density("normal", [0.45, sigma], unit_interval)] + monomial_basis(
            2, unit_interval)
        hist = histogram_density(np.random.default_rng(4).random(300), None, 20, unit_interval)
        W, B = cows._bin_gram(basis, hist)
        edges = hist.data["edges"]
        assert B.shape == (3, 3, 20)
        for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            for k, l in zip(*np.triu_indices(3)):
                ref = quad(lambda x: basis[k].pdf(x) * basis[l].pdf(x), Interval(a, b), *basis)
                assert B[k, l, j] == B[l, k, j] == pytest.approx(ref, rel=cows.GRAM_TOL,
                                                                abs=cows.GRAM_TOL)
        I = hist.pdf(0.5 * (edges[:-1] + edges[1:]))
        np.testing.assert_allclose(W, (B / I).sum(axis=-1), rtol=1e-15, atol=0)
        assert np.array_equal(cows.gram_matrix(basis, hist, unit_interval), W)

    def test_leading_block_is_the_shorter_basis_own(self, unit_interval):
        # every element is summed on its own, so no bit depends on the
        # basis length
        basis = [make_density("normal", [0.45, 3e-4], unit_interval)] + monomial_basis(
            6, unit_interval)
        hist = histogram_density(np.random.default_rng(4).random(300), None, 50, unit_interval)
        W, B = cows._bin_gram(basis, hist)
        for k in range(1, 7):
            Wk, Bk = cows._bin_gram(basis[:k], hist)
            assert np.array_equal(W[:k, :k], Wk) and np.array_equal(B[:k, :k], Bk)

    def test_unresolved_bin_raises(self, unit_interval, monkeypatch):
        # the halved panels are the check, as for every other W
        basis = monomial_basis(2, unit_interval)
        hist = histogram_density(np.random.default_rng(4).random(300), None, 5, unit_interval)
        monkeypatch.setattr(cows, "GRAM_TOL", 1e-300)
        with pytest.raises(IntegrationError, match="unresolved"):
            cows._bin_gram(basis + [make_density("normal", [0.45, 0.3], unit_interval)], hist)


class TestPairIntegralCache:
    """The panel integrals of B depend on the basis and the panel ends alone,
    and are computed once per process; W, B and the check are made on every
    call."""

    @staticmethod
    def basis_and_hist(unit_interval, seed, sigma=0.05, bins=20):
        basis = [make_density("normal", [0.45, sigma], unit_interval)] + monomial_basis(
            3, unit_interval)
        m = np.random.default_rng(seed).random(400)
        return basis, histogram_density(m, None, bins, unit_interval)

    def test_hit_is_bit_for_bit_a_cold_computation(self, unit_interval):
        basis, first = self.basis_and_hist(unit_interval, 4)
        _, second = self.basis_and_hist(unit_interval, 5)
        assert np.array_equal(first.data["edges"], second.data["edges"])
        cows._pair_integrals.cache_clear()
        cows._bin_gram(basis, first)
        hit = cows._bin_gram(basis, second)
        assert cows._pair_integrals.cache_info().hits == 1
        cows._pair_integrals.cache_clear()
        cold = cows._bin_gram(basis, second)
        assert cows._pair_integrals.cache_info().misses == 1
        for got, want in zip(hit, cold):
            assert np.array_equal(got, want)
        assert not np.array_equal(cold[0], cows._bin_gram(basis, first)[0])   # I is per call

    def test_changed_basis_or_edges_miss(self, unit_interval):
        basis, hist = self.basis_and_hist(unit_interval, 4)
        cows._pair_integrals.cache_clear()
        cows._bin_gram(basis, hist)
        # a new but equal basis hits: the key is the basis values
        same, _ = self.basis_and_hist(unit_interval, 4)
        cows._bin_gram(same, hist)
        assert cows._pair_integrals.cache_info()[:2] == (1, 1)
        moved, _ = self.basis_and_hist(unit_interval, 4, sigma=0.05 + 1e-12)
        cows._bin_gram(moved, hist)
        edges = np.array(hist.data["edges"])
        edges[7] += 1e-12
        cows._bin_gram(basis, Density1D("histogram", [], unit_interval,
                                        {"edges": edges, "contents": hist.data["contents"]}))
        assert cows._pair_integrals.cache_info()[:2] == (1, 3)

    def test_hit_is_still_checked(self, unit_interval, monkeypatch):
        basis, hist = self.basis_and_hist(unit_interval, 4)
        cows._pair_integrals.cache_clear()
        cows._bin_gram(basis, hist)
        monkeypatch.setattr(cows, "GRAM_TOL", 1e-300)
        with pytest.raises(IntegrationError, match="unresolved"):
            cows._bin_gram(basis, hist)
        assert cows._pair_integrals.cache_info().hits == 1

    def test_cached_arrays_are_read_only(self, unit_interval, monkeypatch):
        basis, hist = self.basis_and_hist(unit_interval, 4)
        seen = []
        pair_integrals = cows._pair_integrals
        monkeypatch.setattr(cows, "_pair_integrals",
                            lambda panels: seen.append(pair_integrals(panels)) or seen[-1])
        cows._bin_gram(basis, hist)
        cows._bin_gram(basis, hist)
        assert seen[0][0] is seen[1][0]
        for s in seen[0]:
            assert not s.flags.writeable
            with pytest.raises(ValueError):
                s[0, 0] = 0.0


class TestVarianceFunctions:
    def test_mixture_variance_validation(self):
        gs, gb, _, _ = simple_truth_densities()
        with pytest.raises(ConstructionError):
            _mixture([0.5, -0.1], [gs, gb])
        with pytest.raises(ConstructionError):
            _mixture([0.0, 0.0], [gs, gb])
        with pytest.raises(ConstructionError):
            _mixture([0.5], [gs, gb])

    def test_histogram_variance_floors_empty_bins(self, unit_interval):
        var = histogram_density(np.full(10, 0.25), None, 2, unit_interval)
        assert var(0.75) > 0

    def test_histogram_variance_empty_rejected(self):
        with pytest.raises(ConstructionError):
            floor_empty_bins([0.0])

    def test_qm_single_bin_equals_unity(self, simple_toy):
        # a single-bin histogram variance function is a constant, and the
        # weights are invariant under constant rescaling of that function;
        # both are 1 / width of the support
        ds, gs, gb = simple_toy
        for iv in (Interval(0.0, 1.0), Interval(-0.5, 1.0)):
            basis = [Density1D(g.kind, g.params, iv) for g in (gs, gb)]
            hist = variance_fn_qm(ds.data, None, 1, support=iv)
            cow_q = build_cow(CowSpec(basis=basis, variance_fn=hist, support=iv))
            cow_u = build_cow(CowSpec(basis=basis, variance_fn=unity(iv), support=iv))
            grid = np.linspace(iv.lo, iv.hi, 501)
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
        cow = build_cow(CowSpec(basis=basis, variance_fn=unity(unit_interval),
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
        assert cow.spec.variance_fn is None
        assert np.allclose(cow.A.sum(axis=1), [6.0, -10.0])
        w = cow.weights(np.linspace(0.01, 0.99, 99))
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
        with pytest.raises(EvaluationError):
            cow.weights([1.5])                    # I = 0 outside the support
        with pytest.raises(ConstructionError):
            _mixture(cow.A.sum(axis=1), [gs, gb])


class TestIterativeFractions:
    def test_matches_extended_ml_fraction(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        fit = fit_extended_ml(ds.m, MixtureModel(
            [MixtureComponent("s", gs, False), MixtureComponent("b", gb, False)],
            np.array([1000.0, 1000.0])))
        z_ml = fit.params[0] / fit.params[:2].sum()
        z_it, cow = variance_fn_ml_iterative([gs, gb], ds.data)
        assert z_it[0] == pytest.approx(z_ml, abs=1e-6)
        # the CowSet of the last step: built at the fractions it started
        # from, which the estimate moved by less than FRACTION_TOL
        var = cow.spec.variance_fn
        assert var.kind == "mixture" and var.data["components"] == [gs, gb]
        assert np.max(np.abs(var.data["weights"] - z_it)) < cows.FRACTION_TOL
        rebuilt = build_cow(CowSpec(basis=[gs, gb], variance_fn=var, support=gs.support))
        assert np.array_equal(cow.W, rebuilt.W) and np.array_equal(cow.A, rebuilt.A)

    def test_start_at_the_fit_fractions(self, simple_toy, monkeypatch):
        # started at the fit's fractions, the iteration is at its fixed point
        # after one cow (five or six from equal fractions) and agrees with
        # the one started there to its tolerance
        ds, gs, gb = simple_toy
        fit = fit_extended_ml(ds.m, MixtureModel(
            [MixtureComponent("s", gs, False), MixtureComponent("b", gb, False)],
            np.array([1000.0, 1000.0])))
        z_equal, _ = variance_fn_ml_iterative([gs, gb], ds.data)
        calls = []
        monkeypatch.setattr(cows, "build_cow", lambda spec: calls.append(spec) or build_cow(spec))
        z_fit, cow = variance_fn_ml_iterative([gs, gb], ds.data, start=fit.model.fractions)
        assert len(calls) == 1 and cow.spec is calls[0]
        assert np.allclose(z_fit, z_equal, rtol=0, atol=1e-8)
        assert np.array_equal(cow.spec.variance_fn.data["weights"], fit.model.fractions)

    def test_pure_component_data(self, unit_interval):
        # data purely from the background component (bounded away from zero,
        # so the iterated variance function stays well conditioned)
        gs, gb, _, _ = simple_truth_densities()
        rng = np.random.default_rng(13)
        m = gb.sample(rng, 3000)
        z, _ = variance_fn_ml_iterative([gs, gb], m)
        assert z[1] > 0.95


class TestEstimateFractions:
    def test_single_component_in_span(self, unit_interval):
        gs, _, _, _ = simple_truth_densities()
        rng = np.random.default_rng(2)
        m = gs.sample(rng, 500)
        var = _mixture([1.0], [gs])
        cow = build_cow(CowSpec(basis=[gs], variance_fn=var,
                                support=unit_interval))
        z, d_hat = estimate_fractions(cow, m)
        assert z[0] == pytest.approx(1.0, rel=1e-12)
        assert d_hat == 1.0

    def test_unit_efficiency_harmonic_mean(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        var = _mixture([0.35, 0.65], [gs, gb])
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=var,
                                support=unit_interval))
        z_unit, d_unit = estimate_fractions(cow, ds.data)
        z_half, d_half = estimate_fractions(with_efficiency(cow, HALF_EFF), ds.data)
        assert d_unit == 1.0
        assert d_half == pytest.approx(0.5, rel=1e-12)
        # constant efficiency cancels between D-hat and the 1/eff weights
        assert np.allclose(z_half, z_unit, rtol=1e-12)


class TestEfficiencyCorrectedWeights:
    def test_unit_efficiency_identity(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=unity(unit_interval),
                                support=unit_interval))
        w_none = efficiency_corrected_weights(cow, ds.data)
        w_unit = efficiency_corrected_weights(with_efficiency(cow, ONE_EFF), ds.data)
        assert np.allclose(w_none, cow.weights(ds.m))
        assert np.allclose(w_unit, w_none)

    def test_constant_half_doubles(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=unity(unit_interval),
                                support=unit_interval))
        w1 = efficiency_corrected_weights(cow, ds.data)
        w2 = efficiency_corrected_weights(with_efficiency(cow, HALF_EFF), ds.data)
        assert np.allclose(w2, 2.0 * w1, rtol=1e-12)

    def test_tiny_efficiency_rejected(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=unity(unit_interval),
                                support=unit_interval))
        tiny = EfficiencyMap.from_function(
            lambda m, t: np.full(np.broadcast(m, t).shape, 1e-9))
        with pytest.raises(EvaluationError):
            efficiency_corrected_weights(with_efficiency(cow, tiny), ds.data)


class TestOneColumnWithEfficiency:
    @pytest.fixture
    def unity_cow(self, unit_interval):
        gs, gb, _, _ = simple_truth_densities()
        return build_cow(CowSpec(basis=[gs, gb], variance_fn=unity(unit_interval),
                                 support=unit_interval))

    @pytest.mark.parametrize("shape", ["1d", "column"])
    def test_rejected(self, simple_toy, unity_cow, shape):
        ds = simple_toy[0]
        m = ds.m if shape == "1d" else ds.data[:, :1]
        with pytest.raises(EvaluationError, match="one column"):
            estimate_fractions(with_efficiency(unity_cow, HALF_EFF), m)
        with pytest.raises(EvaluationError, match="one column"):
            efficiency_corrected_weights(with_efficiency(unity_cow, HALF_EFF), m)
        gs, gb, _, _ = simple_truth_densities()
        with pytest.raises(EvaluationError, match="one column"):
            variance_fn_ml_iterative([gs, gb], m, HALF_EFF)
        with pytest.raises(EvaluationError, match="one column"):
            variance_fn_qm(m, HALF_EFF, 10, gs.support)

    @pytest.mark.parametrize("shape", ["1d", "column"])
    def test_without_efficiency_uses_m(self, simple_toy, unity_cow, shape):
        ds = simple_toy[0]
        m = ds.m if shape == "1d" else ds.data[:, :1]
        z, d_hat = estimate_fractions(unity_cow, m)
        z2, _ = estimate_fractions(unity_cow, ds.data)
        assert d_hat == 1.0
        assert np.array_equal(z, z2)
        assert np.array_equal(efficiency_corrected_weights(unity_cow, m),
                              unity_cow.weights(ds.m))
        iv = unity_cow.spec.support
        assert np.array_equal(variance_fn_qm(m, None, 10, iv).data["contents"],
                              variance_fn_qm(ds.data, None, 10, iv).data["contents"])


LOW_EVENT = 17   # the event given a low efficiency below

# each consumer of 1/efficiency, reduced to an array; a cow's consumers
# read the map from the cow
EFFICIENCY_CONSUMERS = {
    "estimate_fractions": lambda data, cow, hs, eff: estimate_fractions(
        with_efficiency(cow, eff), data)[0],
    "variance_fn_qm": lambda data, cow, hs, eff: variance_fn_qm(
        data, eff, 10, cow.spec.support).data["contents"],
    "efficiency_corrected_weights": lambda data, cow, hs, eff: efficiency_corrected_weights(
        with_efficiency(cow, eff), data),
    "corrected_covariance_cow": lambda data, cow, hs, eff: corrected_covariance_cow(
        with_efficiency(cow, eff), data, hs, [2.0]).theta_block,
}


class TestEfficiencyCheck:
    """Every consumer of 1/efficiency rejects an efficiency below
    MIN_EFFICIENCY, naming the event, and reads no map as efficiency one."""

    @pytest.fixture(scope="class")
    def inputs(self, simple_toy, unit_interval):
        ds, gs, gb = simple_toy
        cow = build_cow(CowSpec(basis=[gs, gb], variance_fn=unity(unit_interval),
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
