"""Rank-correlation independence checks and pull computation."""

import math

import numpy as np
import pytest
from scipy.stats import kendalltau

from cowlib import EvaluationError, kendall_tau, pull


def reference_tau_b(x, y):
    """Tau-b by merge-sort inversion count (the replaced implementation)."""
    def merge_count(v):
        if len(v) < 2:
            return 0
        mid = len(v) // 2
        left, right = v[:mid], v[mid:]
        inv = merge_count(left) + merge_count(right)
        merged = []
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                inv += len(left) - i
                merged.append(right[j])
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        v[:] = merged
        return inv

    def tie_term(values):
        _, counts = np.unique(values, axis=0, return_counts=True)
        return int(np.sum(counts * (counts - 1) // 2))

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    n = len(x)
    tot = n * (n - 1) // 2
    n1, n2 = tie_term(xs), tie_term(ys)
    n3 = tie_term(np.stack([xs, ys], axis=1))
    numerator = tot - n1 - n2 + n3 - 2 * merge_count(list(ys))
    return numerator / math.sqrt((tot - n1) * (tot - n2))


class TestKendallTau:
    def test_perfectly_concordant(self):
        assert kendall_tau([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]).tau == 1.0

    def test_perfectly_discordant(self):
        assert kendall_tau([1.0, 2.0, 3.0], [30.0, 20.0, 10.0]).tau == -1.0

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 8, size=500).astype(float)
        y = (0.4 * x + rng.integers(0, 6, size=500)).astype(float)
        rep = kendall_tau(x, y)
        expected = kendalltau(x, y).statistic
        assert rep.tau == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy_continuous(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=400)
        y = rng.normal(size=400) + 0.3 * x
        rep = kendall_tau(x, y)
        assert rep.tau == pytest.approx(kendalltau(x, y).statistic, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(11)
        x = rng.random(300)
        y = rng.random(300)
        base = kendall_tau(x, y).tau
        assert kendall_tau(np.exp(3 * x), y ** 3).tau == pytest.approx(
            base, abs=1e-14)

    def test_antisymmetry(self):
        rng = np.random.default_rng(12)
        x = rng.random(200)
        y = rng.random(200)
        assert kendall_tau(x, -y).tau == pytest.approx(-kendall_tau(x, y).tau,
                                                       abs=1e-14)

    def test_constant_variable_undefined(self):
        with pytest.raises(EvaluationError, match="tau undefined"):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(EvaluationError, match="tau undefined"):
            kendall_tau([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_input_validation(self):
        with pytest.raises(EvaluationError):
            kendall_tau([1.0], [2.0])
        with pytest.raises(EvaluationError):
            kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(EvaluationError):
            kendall_tau(np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("levels", [(2, 2), (3, 7), (8, 6), (50, 3), (400, 400)])
    def test_matches_merge_sort_reference_on_ties(self, levels):
        rng = np.random.default_rng(sum(levels))
        x = rng.integers(0, levels[0], size=3000).astype(float)
        y = (x % 3 + rng.integers(0, levels[1], size=3000)).astype(float)
        assert kendall_tau(x, y).tau == pytest.approx(reference_tau_b(x, y),
                                                      abs=1e-12)

    def test_reruns_bit_identical(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 20, size=5000).astype(float)
        y = x + rng.normal(size=5000)
        assert kendall_tau(x, y) == kendall_tau(x.copy(), y.copy())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(EvaluationError, match="finite"):
            kendall_tau([1.0, bad, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0])
        with pytest.raises(EvaluationError, match="finite"):
            kendall_tau([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 5.0])

    def test_null_sigma_closed_form(self):
        rep = kendall_tau(np.arange(10.0), np.arange(10.0) % 3)
        assert rep.n == 10
        assert rep.approx_sigma == pytest.approx(
            math.sqrt(2.0 * 25 / (9.0 * 10 * 9)), rel=1e-15)

    def test_null_distribution_scale(self):
        # tau / approx_sigma should behave like a standard normal under
        # independence: check the spread over many independent draws
        rng = np.random.default_rng(21)
        zs = [kendall_tau(rng.random(150), rng.random(150)).tau
              / kendall_tau(rng.random(150), rng.random(150)).approx_sigma
              for _ in range(200)]
        assert abs(np.mean(zs)) < 0.25
        assert 0.8 < np.std(zs) < 1.25

    def test_report_round_trip(self):
        rep = kendall_tau([1.0, 2.0, 4.0], [1.0, 3.0, 2.0])
        d = rep.to_dict()
        assert set(d) == {"tau", "n", "approx_sigma"}
        assert d["n"] == 3


class TestPull:
    def test_zero(self):
        assert pull(2.0, 2.0, 0.1) == 0.0

    def test_unit(self):
        assert pull(2.1, 2.0, 0.1) == pytest.approx(1.0, rel=1e-12)

    def test_sign(self):
        assert pull(1.5, 2.0, 0.25) == pytest.approx(-2.0, rel=1e-12)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(EvaluationError):
            pull(1.0, 1.0, 0.0)
        with pytest.raises(EvaluationError):
            pull(1.0, 1.0, -0.5)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is the slowest import in reach; only kendall_tau needs it
    import os
    import subprocess
    import sys

    import cowlib

    src = os.path.dirname(os.path.dirname(os.path.abspath(cowlib.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, cowlib.cli; "
            "sys.exit(3 if 'scipy.stats' in sys.modules else 0)")
    res = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert res.returncode == 0
