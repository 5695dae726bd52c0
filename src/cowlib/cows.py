"""Generalized orthogonal weight functions for n-component mixtures.

The weight functions are rows of the inverse of the Gram matrix
W_kl = integral of g_k g_l / I over the support, for a chosen strictly
positive variance function I(m).  With I equal to the fitted mixture this
reduces to the classic (sPlot) weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .densities import (Density1D, EfficiencyMap, Interval, floor_empty_bins,
                        integrate)
from .errors import (ConstructionError, EvaluationError,
                     IllConditionedBasisError, NonConvergenceError)

__all__ = [
    "UnityVariance",
    "MixtureVariance",
    "ImpliedVariance",
    "CowSpec",
    "CowSet",
    "implied_cow",
    "gram_matrix",
    "build_cow",
    "variance_fn_qm",
    "variance_fn_ml_iterative",
    "estimate_fractions",
    "efficiency_at",
    "efficiency_corrected_weights",
]

CONDITION_LIMIT = 1e12
MIN_EFFICIENCY = 1e-6
POSITIVITY_PROBE_POINTS = 2001


class UnityVariance:
    """Constant variance function I(m) = 1."""

    def __call__(self, m):
        return np.ones_like(np.asarray(m, dtype=float))

    def breakpoints(self):
        return []


class MixtureVariance:
    """I(m) as a linear combination of the basis densities (in-span choice)."""

    def __init__(self, fractions, basis: Sequence[Density1D]):
        self.fractions = np.asarray(fractions, dtype=float)
        self.basis = list(basis)
        if len(self.fractions) != len(self.basis):
            raise ConstructionError("one fraction per basis element required")
        if np.any(self.fractions < 0):
            # negative fitted fractions can make I(m) change sign; rejected
            raise ConstructionError("mixture variance function needs fractions >= 0")
        if self.fractions.sum() <= 0:
            raise ConstructionError("mixture variance function needs a positive sum")

    def __call__(self, m):
        return sum(z * g.pdf(m) for z, g in zip(self.fractions, self.basis))

    def breakpoints(self):
        pts = []
        for g in self.basis:
            pts.extend(g.breakpoints())
        return sorted(set(pts))


class ImpliedVariance(MixtureVariance):
    """I(m) = (A 1) . g(m), the variance function that a W matrix with inverse
    A implies for the basis g; its weights (A g) / I are the classic (sPlot)
    weights.  A valid W can imply negative fractions and an I(m) that changes
    sign, so neither is rejected: the weights are undefined only where
    I(m) = 0, which includes every m outside the support."""

    def __init__(self, A, basis: Sequence[Density1D]):
        self.fractions = np.asarray(A, dtype=float).sum(axis=1)
        self.basis = list(basis)


@dataclass
class CowSpec:
    """Recipe for a set of custom orthogonal weight functions.

    ``basis`` lists the component densities with the signal block first
    (``n_signal`` elements).  ``signal_proxy`` optionally replaces the first
    basis element when only the signal shape in the control variable matters.
    """

    basis: List[Density1D]
    variance_fn: object
    support: Interval
    n_signal: int = 1
    signal_proxy: Optional[Density1D] = None
    efficiency: Optional[EfficiencyMap] = None

    def __post_init__(self):
        if len(self.basis) < 1:
            raise ConstructionError("basis must contain at least one density")
        if not 1 <= self.n_signal <= len(self.basis):
            raise ConstructionError("n_signal must lie in [1, len(basis)]")
        if isinstance(self.variance_fn, ImpliedVariance):
            return      # an implied I may take either sign
        grid = np.linspace(self.support.lo, self.support.hi, POSITIVITY_PROBE_POINTS)
        if np.any(np.asarray(self.variance_fn(grid)) <= 0):
            raise ConstructionError(
                "variance function must be strictly positive on the support")

    def effective_basis(self) -> List[Density1D]:
        if self.signal_proxy is None:
            return list(self.basis)
        return [self.signal_proxy] + list(self.basis[1:])


class CowSet:
    """Built weight functions w_k(m) = sum_l A_kl g_l(m) / I(m), with the
    ``warnings`` their construction raised."""

    def __init__(self, spec: CowSpec, W: np.ndarray, A: np.ndarray):
        self.spec = spec
        self.W = W
        self.A = A
        self._basis = spec.effective_basis()
        self.warnings: List[str] = []

    def basis_values(self, m) -> np.ndarray:
        m = np.atleast_1d(np.asarray(m, dtype=float))
        return np.stack([g.pdf(m) for g in self._basis])  # (n, len(m))

    def _variance(self, m, gv: np.ndarray) -> np.ndarray:
        """I at m; an implied I is taken from the basis values ``gv``."""
        var = self.spec.variance_fn
        if isinstance(var, ImpliedVariance):
            I = var.fractions @ gv
            if np.any(I == 0):
                raise EvaluationError("weight-function denominator is exactly zero")
            return I
        I = np.asarray(var(m), dtype=float)
        if np.any(I <= 0):
            raise EvaluationError("variance function non-positive at evaluation point")
        return I

    def weights(self, m, gv: Optional[np.ndarray] = None) -> np.ndarray:
        """All weight functions at m; shape (len(m), len(basis)).

        ``gv`` may pass in ``basis_values(m)`` when the caller has it.
        """
        m = np.atleast_1d(np.asarray(m, dtype=float))
        if gv is None:
            gv = self.basis_values(m)
        return (self.A @ gv).T / self._variance(m, gv)[:, None]

    def w_k(self, k: int, m) -> np.ndarray:
        return self.weights(m)[:, k]

    def dw_dW(self, m) -> np.ndarray:
        """Derivative of the signal weight w_s at m wrt the upper triangle of
        W in :func:`upper_pairs` order ((W_ss, W_sb, W_bb) for two components),
        shape (len(m), n(n+1)/2).  Through dA = -A dW A, with u = A g and c_k
        the signal rows of A summed at column k, less w_s (A 1)_k when I is
        implied: dw_s/dW_kl = -(c_k u_l + c_l u_k) / I, dw_s/dW_kk = -c_k u_k / I.
        """
        m = np.atleast_1d(np.asarray(m, dtype=float))
        gv = self.basis_values(m)
        I = self._variance(m, gv)
        u = self.A @ gv                                    # (n, N)
        n_sig = self.spec.n_signal
        c = self.A[:n_sig].sum(axis=0)[:, None]
        if isinstance(self.spec.variance_fn, ImpliedVariance):
            c = c - u[:n_sig].sum(axis=0) / I * self.A.sum(axis=1)[:, None]
        pairs = upper_pairs(len(self._basis))
        out = np.empty((len(pairs), len(m)))
        for j, (k, l) in enumerate(pairs):
            out[j] = c[k] * u[l] if k == l else c[k] * u[l] + c[l] * u[k]
        out /= -I
        return out.T


def implied_cow(W: np.ndarray, A: np.ndarray, basis: Sequence[Density1D]) -> CowSet:
    """The weights of ``W`` (inverse ``A``) and the variance function it implies."""
    return CowSet(CowSpec(list(basis), ImpliedVariance(A, basis), basis[0].support), W, A)


def upper_pairs(n: int) -> List[Tuple[int, int]]:
    """The index pairs (k, l), k <= l, of an n x n upper triangle in
    ``np.triu_indices`` order: (ss, sb, bb) for two components."""
    return [(k, l) for k in range(n) for l in range(k, n)]


def pair_products(g: np.ndarray) -> np.ndarray:
    """Products g_k g_l of the rows of ``g`` over :func:`upper_pairs`."""
    return np.stack([g[k] * g[l] for k, l in upper_pairs(len(g))])


def from_upper(v, n: int) -> np.ndarray:
    """The symmetric n x n matrix with upper triangle ``v`` (pair order)."""
    M = np.empty((n, n))
    for x, (k, l) in zip(v, upper_pairs(n)):
        M[k, l] = M[l, k] = x
    return M


def gram_matrix(basis: Sequence[Density1D], variance_fn, support: Interval,
                tol: float = 1e-9) -> np.ndarray:
    """W_kl = integral over ``support`` of g_k g_l / I for the basis g and
    the variance function I, split at the breakpoints of both."""
    pts = set(variance_fn.breakpoints()).union(*(g.breakpoints() for g in basis))
    at = {id(g): i for i, g in enumerate(basis)}
    rows = ([at.get(id(g)) for g in variance_fn.basis]
            if isinstance(variance_fn, MixtureVariance) else [None])

    # the upper triangle of W in one pass, each density once per node batch: a
    # MixtureVariance over basis densities is summed from their values, in the
    # order of its __call__ so that W is the same bits
    def f(m):
        gv = np.stack([gk.pdf(m) for gk in basis])
        if None in rows:
            return pair_products(gv) / variance_fn(m)
        return pair_products(gv) / sum(z * gv[i] for z, i in zip(variance_fn.fractions, rows))

    return from_upper(integrate(f, support, tol, points=sorted(pts)), len(basis))


def build_cow(spec: CowSpec, tol: float = 1e-9) -> CowSet:
    """Compute the W matrix by quadrature and invert it.

    Raises :class:`~cowlib.errors.IllConditionedBasisError` when the Gram
    matrix condition number exceeds 1e12 (typically too many polynomial
    terms for the sample).
    """
    W = gram_matrix(spec.effective_basis(), spec.variance_fn, spec.support, tol)
    n = len(W)
    cond = np.linalg.cond(W)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedBasisError(
            f"W matrix condition number {cond:.3g} exceeds {CONDITION_LIMIT:g}; "
            "try fewer polynomial terms")
    try:
        c, low = cho_factor(W)
        A = cho_solve((c, low), np.eye(n))
    except np.linalg.LinAlgError:
        A = np.linalg.solve(W, np.eye(n))
    A = 0.5 * (A + A.T)
    return CowSet(spec, W, A)


def variance_fn_qm(data, eff: Optional[EfficiencyMap], bins: int,
                   support: Interval) -> Density1D:
    """Histogram estimate of the 1/efficiency^2-weighted m marginal on
    ``support``, as a histogram density whose contents (and ``sumw2``) are
    normalized by their total, the empty bins floored by
    :func:`~cowlib.densities.floor_empty_bins`.

    This is the minimum-variance choice of I(m) under a non-uniform
    efficiency (``eff`` None is unit efficiency); a single bin is equivalent
    to I(m) = 1.  Raises :class:`~cowlib.errors.ConstructionError` when no
    event lies inside the support.
    """
    data = np.asarray(data, dtype=float)
    m, t = data[:, 0], data[:, 1]
    w = 1.0 / efficiency_at(eff, m, t) ** 2
    if bins < 1:
        raise ConstructionError("bins must be >= 1")
    edges = np.linspace(support.lo, support.hi, bins + 1)
    contents, _ = np.histogram(m, bins=edges, weights=w)
    sumw2, _ = np.histogram(m, bins=edges, weights=w ** 2)
    total = float(np.sum(contents))
    if not total > 0:
        raise ConstructionError(
            f"no event inside the support {support.as_tuple()}: the qm variance function is empty")
    return Density1D("histogram", [], support,
                     {"edges": edges, "contents": floor_empty_bins(contents / total),
                      "sumw2": sumw2 / total ** 2})


def efficiency_at(eff: Optional[EfficiencyMap], m, t) -> np.ndarray:
    """The efficiency of each event (m, t), ones without a map.

    Raises :class:`~cowlib.errors.EvaluationError` naming the first event
    whose efficiency is below ``MIN_EFFICIENCY`` (or nan), where 1/efficiency
    weights would blow up.
    """
    if eff is None:
        return np.ones(len(m))
    e = np.asarray(eff(m, t), dtype=float)
    low = ~(e >= MIN_EFFICIENCY)
    if np.any(low):
        i = int(np.argmax(low))
        raise EvaluationError(
            f"efficiency {e[i]:g} below {MIN_EFFICIENCY:g} at event {i}; weights would blow up")
    return e


def _split_m_t(data, eff) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The m column and, when the data have one, the t column.

    An efficiency map depends on t, so it cannot be applied to data with
    only an m column.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 2 and data.shape[1] >= 2:
        return data[:, 0], data[:, 1]
    if eff is not None:
        raise EvaluationError("an efficiency map needs (m, t) data; got one column")
    return (data[:, 0] if data.ndim == 2 else data), None


def estimate_fractions(cow: CowSet, data, eff: Optional[EfficiencyMap] = None
                       ) -> Tuple[np.ndarray, float]:
    """Component fractions from efficiency-corrected sample averages.

    Returns (fractions, D_hat) with D_hat the harmonic mean of the
    efficiencies; D_hat = 1 for unit efficiency.
    """
    m, t = _split_m_t(data, eff)
    n = len(m)
    inv_e = 1.0 / efficiency_at(eff, m, t)
    d_hat = 1.0 / float(np.mean(inv_e))
    w = cow.weights(m)  # (n, n_comp)
    z = d_hat / n * (w * inv_e[:, None]).sum(axis=0)
    return z, d_hat


def variance_fn_ml_iterative(basis: Sequence[Density1D], data,
                             eff: Optional[EfficiencyMap] = None,
                             max_iter: Optional[int] = None,
                             tol: float = 1e-8,
                             ) -> Tuple[np.ndarray, MixtureVariance]:
    """Iterate I(m) = sum z_k g_k with fractions re-estimated each step.

    Starts from equal fractions; a handful of steps (about the number of
    components) normally suffices.  Fractions leaving [0, 1] are clipped and
    renormalized.  Raises :class:`~cowlib.errors.NonConvergenceError` with
    the iteration trace if the tolerance is not reached.
    """
    basis = list(basis)
    n = len(basis)
    support = basis[0].support
    if max_iter is None:
        max_iter = 2 * n + 10
    if max_iter < 1:
        raise ConstructionError("max_iter must be >= 1")
    z = np.full(n, 1.0 / n)
    trace = [z.copy()]
    clipped = False
    for _ in range(max_iter):
        var = MixtureVariance(z, basis)
        spec = CowSpec(basis=basis, variance_fn=var, support=support)
        cow = build_cow(spec)
        z_new, _ = estimate_fractions(cow, data, eff)
        if np.any(z_new < 0) or np.any(z_new > 1):
            clipped = True
            z_new = np.clip(z_new, 0.0, 1.0)
        s = z_new.sum()
        if s <= 0:
            raise NonConvergenceError("all fractions clipped to zero", trace)
        z_new = z_new / s
        trace.append(z_new.copy())
        if np.max(np.abs(z_new - z)) < tol:
            var = MixtureVariance(z_new, basis)
            var.clipped = clipped
            return z_new, var
        z = z_new
    raise NonConvergenceError(
        f"fraction iteration did not converge in {max_iter} steps", trace)


def efficiency_corrected_weights(cow: CowSet, eff: Optional[EfficiencyMap],
                                 data) -> np.ndarray:
    """Per-event weights w_k(m_i) / efficiency(m_i, t_i), shape (N, n)."""
    m, t = _split_m_t(data, eff)
    w = cow.weights(m)
    return w if eff is None else w / efficiency_at(eff, m, t)[:, None]
