"""Generalized orthogonal weight functions for n-component mixtures.

The weight functions are rows of the inverse of the Gram matrix
W_kl = integral of g_k g_l / I over the support, for a chosen strictly
positive variance function I(m).  With I equal to the fitted mixture this
reduces to the classic (sPlot) weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ._quadrature import panel_rule
from .densities import Density1D, EfficiencyMap, Interval, histogram_density, integrate
from .errors import (ConstructionError, EvaluationError,
                     IllConditionedBasisError, NonConvergenceError)

__all__ = [
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
GRAM_TOL = 1e-9       # quadrature tolerance of each Gram element, relative above 1
FRACTION_TOL = 1e-8   # the fraction iteration stops once no fraction moves by more
MIN_EFFICIENCY = 1e-6
POSITIVITY_PROBE_POINTS = 2001


@dataclass
class CowSpec:
    """Recipe for a set of custom orthogonal weight functions.

    ``basis`` lists the component densities with the signal block first
    (``n_signal`` elements), each on ``support``.  ``signal_proxy``
    optionally replaces the first basis element when only the signal shape
    in the control variable matters.  The variance function I(m) is a
    density strictly positive on the support, or None for the one that
    the W of a :class:`CowSet` implies, I = (A 1) . g, which may take
    either sign and has no W of its own to build.  ``efficiency`` is the one
    map every consumer of the cow divides by (None: unit, as classic weights).
    """

    basis: List[Density1D]
    variance_fn: Optional[Density1D]
    support: Interval
    n_signal: int = 1
    signal_proxy: Optional[Density1D] = None
    efficiency: Optional[EfficiencyMap] = None

    def __post_init__(self):
        if len(self.basis) < 1:
            raise ConstructionError("basis must contain at least one density")
        if not 1 <= self.n_signal <= len(self.basis):
            raise ConstructionError("n_signal must lie in [1, len(basis)]")
        named = [(f"basis element {i}", g) for i, g in enumerate(self.basis)]
        for what, g in named + [("signal_proxy", self.signal_proxy)]:
            if g is not None and g.support != self.support:
                # not normalized on the support: the weights would not sum to N
                raise ConstructionError(f"{what} is on {g.support.as_tuple()}, "
                                        f"not on the support {self.support.as_tuple()}")
        if self.variance_fn is None:
            return
        grid = np.linspace(self.support.lo, self.support.hi, POSITIVITY_PROBE_POINTS)
        if np.any(self.variance_fn.pdf(grid) <= 0):
            raise ConstructionError(
                "variance function must be strictly positive on the support")

    def effective_basis(self) -> List[Density1D]:
        if self.signal_proxy is None:
            return list(self.basis)
        return [self.signal_proxy] + list(self.basis[1:])


class CowSet:
    """Built weight functions w_k(m) = sum_l A_kl g_l(m) / I(m), with the
    ``warnings`` their construction raised; for a histogram I, ``B`` is the
    per-bin Gram array of :func:`_bin_gram` that W is summed from."""

    def __init__(self, spec: CowSpec, W: np.ndarray, A: np.ndarray,
                 B: Optional[np.ndarray] = None):
        self.spec = spec
        self.W = W
        self.A = A
        self.B = B
        self._basis = spec.effective_basis()
        self.warnings: List[str] = []

    def basis_values(self, m) -> np.ndarray:
        m = np.atleast_1d(np.asarray(m, dtype=float))
        return np.stack([g.pdf(m) for g in self._basis])  # (n, len(m))

    def _variance(self, m, gv: np.ndarray) -> np.ndarray:
        """I at m from the basis values ``gv``."""
        if self.spec.variance_fn is None:
            I = self.A.sum(axis=1) @ gv
            if np.any(I == 0):
                raise EvaluationError("weight-function denominator is exactly zero")
            return I
        I = _variance_at(self.spec.variance_fn, self._basis, gv, m)
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

    def dw_dW(self, m, gv: Optional[np.ndarray] = None) -> np.ndarray:
        """Derivative of the signal weight w_s at m wrt the upper triangle of
        W in :func:`upper_pairs` order ((W_ss, W_sb, W_bb) for two components),
        shape (len(m), n(n+1)/2).  Through dA = -A dW A, with u = A g and c_k
        the signal rows of A summed at column k, less w_s (A 1)_k when I is
        implied: dw_s/dW_kl = -(c_k u_l + c_l u_k) / I, dw_s/dW_kk = -c_k u_k / I.
        ``gv`` may pass in ``basis_values(m)`` when the caller has it.
        """
        m = np.atleast_1d(np.asarray(m, dtype=float))
        if gv is None:
            gv = self.basis_values(m)
        I = self._variance(m, gv)
        u = self.A @ gv                                    # (n, N)
        n_sig = self.spec.n_signal
        c = self.A[:n_sig].sum(axis=0)[:, None]
        if self.spec.variance_fn is None:
            c = c - u[:n_sig].sum(axis=0) / I * self.A.sum(axis=1)[:, None]
        k, l = upper_pairs(len(self._basis))
        out = c[k] * u[l]
        off = k != l
        out[off] += c[l[off]] * u[k[off]]
        out /= -I
        return out.T


def implied_cow(W: np.ndarray, A: np.ndarray, basis: Sequence[Density1D]) -> CowSet:
    """The weights of ``W`` (inverse ``A``) and the variance function it implies,
    I = (A 1) . g: the classic (sPlot) weights of any W.  A valid W can imply
    an I that changes sign, so the weights are undefined only where I = 0,
    which includes every m outside the support."""
    return CowSet(CowSpec(list(basis), None, basis[0].support), W, A)


def _mixture(fractions, basis: Sequence[Density1D]) -> Density1D:
    """The mixture density of the ``basis`` with weights ``fractions``, as
    a variance function: on the support of the first element, with
    fractions >= 0 and a positive sum."""
    return Density1D("mixture", [], basis[0].support,
                     {"weights": np.array(fractions, dtype=float), "components": list(basis)})


def _variance_at(var: Density1D, basis: Sequence[Density1D], gv: np.ndarray, m) -> np.ndarray:
    """The variance function ``var`` at m, given the values ``gv`` of the
    ``basis`` there.  A mixture is sum_j w_j h_j, summed in component order
    and not divided by sum_j w_j (I matters only up to a constant factor),
    with h_j read from ``gv`` where it is a basis element; any other
    density is its pdf."""
    if var.kind != "mixture":
        return var.pdf(m)
    rows = {id(g): row for g, row in zip(basis, gv)}
    return sum(w * (rows[id(h)] if id(h) in rows else h.pdf(m))
               for w, h in zip(var.data["weights"], var.data["components"]))


@functools.lru_cache(maxsize=16)
def upper_pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The row and column indices (k, l), k <= l, of an n x n upper triangle
    in row-major (``np.triu_indices``) order: (ss, sb, bb) for two components.
    Read-only and cached per n, as every quadrature node batch of a W uses them."""
    k, l = np.triu_indices(n)
    k.flags.writeable = l.flags.writeable = False
    return k, l


def pair_products(g: np.ndarray) -> np.ndarray:
    """Products g_k g_l of the rows of ``g`` over :func:`upper_pairs`."""
    k, l = upper_pairs(len(g))
    return g[k] * g[l]


def mixture_pairs(basis: Sequence[Density1D], coeffs, m,
                  g: Optional[np.ndarray] = None) -> Tuple[np.ndarray, ...]:
    """(g, f, P) at the events m: the stacked values g of the ``basis``
    (computed unless passed in), the mixture f = sum_k c_k g_k summed in
    component order (not by BLAS's fused sum) and P = g_k g_l / f^2 over
    :func:`upper_pairs`.  Raises :class:`~cowlib.errors.EvaluationError`
    naming the first event where f <= 0."""
    m = np.asarray(m, dtype=float)
    if g is None:
        g = np.stack([d.pdf(m) for d in basis])
    f = sum(c * gk for c, gk in zip(coeffs, g))
    if np.any(f <= 0):
        i = int(np.argmax(f <= 0))
        raise EvaluationError(f"mixture density vanishes at observation {i} (m={m[i]!r})")
    return g, f, pair_products(g) / f ** 2


def from_upper(v, n: int) -> np.ndarray:
    """The symmetric n x n matrix with upper triangle ``v`` (pair order), or
    their stack (n, n, ...) for rows ``v`` of shape (pairs, ...)."""
    k, l = upper_pairs(n)
    M = np.empty((n, n) + np.shape(v)[1:])
    M[k, l] = M[l, k] = v
    return M


def gram_matrix(basis: Sequence[Density1D], variance_fn: Density1D,
                support: Interval) -> np.ndarray:
    """W_kl = integral over ``support`` of g_k g_l / I for the basis g and
    the variance function I, on the panels between the breakpoints of both,
    each to ``GRAM_TOL``; for a histogram I, by :func:`_bin_gram`."""
    if variance_fn.kind == "histogram":
        return _bin_gram(basis, variance_fn)[0]
    pts = set(variance_fn.breakpoints()).union(*(g.breakpoints() for g in basis))

    # the upper triangle of W in one pass, each basis density once per node batch
    def f(m):
        gv = np.stack([gk.pdf(m) for gk in basis])
        return pair_products(gv) / _variance_at(variance_fn, basis, gv, m)

    return from_upper(integrate(f, support, GRAM_TOL, points=sorted(pts)), len(basis))


def _bin_gram(basis: Sequence[Density1D], hist: Density1D) -> Tuple[np.ndarray, np.ndarray]:
    """(W, B) for the ``basis`` g and a histogram I: B_klj = integral over
    bin j of g_k g_l, shape (n, n, bins), and W = sum_j B_klj / I_j, by the
    rule of :func:`~cowlib._quadrature.panel_rule` on the panels between the
    bin edges and the basis breakpoints, checked on W at ``GRAM_TOL``."""
    edges = np.asarray(hist.data["edges"], dtype=float)
    ends = np.array(sorted(set(edges).union(*(g.breakpoints() for g in basis))))
    first = np.searchsorted(ends, edges[:-1])      # the first panel of each bin
    I = hist.pdf(0.5 * (edges[:-1] + edges[1:]))

    def per_bin(s, halved):   # B from the integrals on the panels, each element on its own
        return np.add.reduceat(s, first * (1 + halved), axis=1)
    W, s, _ = panel_rule(lambda x: pair_products(np.stack([g.pdf(x) for g in basis])), ends,
                         GRAM_TOL, lambda s, halved: (per_bin(s, halved) / I).sum(axis=1))
    return from_upper(W, len(basis)), from_upper(per_bin(s, True), len(basis))


def _gram(basis: Sequence[Density1D], variance_fn: Density1D,
          support: Interval) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """(W, B): :func:`gram_matrix`, with the B of :func:`_bin_gram` for a histogram I."""
    if variance_fn.kind == "histogram":
        return _bin_gram(basis, variance_fn)
    return gram_matrix(basis, variance_fn, support), None


def build_cow(spec: CowSpec) -> CowSet:
    """Compute the W matrix (and, for a histogram I, B) by quadrature and invert it.

    Raises :class:`~cowlib.errors.IllConditionedBasisError` when :func:`_inverse`
    rejects W (typically too many polynomial terms for the sample), and
    :class:`~cowlib.errors.ConstructionError` for a spec without a variance
    function, whose W only a :class:`CowSet` holds.
    """
    if spec.variance_fn is None:
        raise ConstructionError("a cow without a variance function has no W to compute; "
                                "implied_cow takes its W")
    W, B = _gram(spec.effective_basis(), spec.variance_fn, spec.support)
    return CowSet(spec, W, _inverse(W), B)


def _inverse(W: np.ndarray) -> np.ndarray:
    """W^-1 by Cholesky, symmetrized: the one check of every W (or a variant Cii A).
    Raises :class:`~cowlib.errors.IllConditionedBasisError` unless W is finite and
    positive definite with condition number at most ``CONDITION_LIMIT``."""
    ev = np.linalg.eigvalsh(W)
    if not (np.all(np.isfinite(W)) and ev[0] > 0 and ev[-1] <= CONDITION_LIMIT * ev[0]):
        raise IllConditionedBasisError(
            f"W matrix is singular or not positive definite, or its condition number "
            f"exceeds {CONDITION_LIMIT:g} (eigenvalues {ev[0]:.3g} to {ev[-1]:.3g}): the "
            "component shapes may be linearly dependent; try fewer polynomial terms")
    A = cho_solve(cho_factor(W), np.eye(len(W)))
    return 0.5 * (A + A.T)


def variance_fn_qm(data, eff: Optional[EfficiencyMap], bins: int,
                   support: Interval) -> Density1D:
    """Histogram estimate of the 1/efficiency^2-weighted m marginal of the
    (m, t) ``data`` (m alone without an efficiency) on ``support``, as a
    :func:`~cowlib.densities.histogram_density` normalized by its total.

    This is the minimum-variance choice of I(m) under a non-uniform
    efficiency (``eff`` None is unit efficiency); a single bin is equivalent
    to I(m) = 1.  Raises :class:`~cowlib.errors.ConstructionError` when no
    event lies inside the support.
    """
    m, t = _split_m_t(data, eff)
    return histogram_density(m, 1.0 / efficiency_at(eff, m, t) ** 2, bins, support)


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


def estimate_fractions(cow: CowSet, data) -> Tuple[np.ndarray, float]:
    """Component fractions from sample averages divided by the cow's efficiency.

    Returns (fractions, D_hat) with D_hat the harmonic mean of the
    efficiencies; D_hat = 1 for unit efficiency.
    """
    eff = cow.spec.efficiency
    m, t = _split_m_t(data, eff)
    inv_e = 1.0 / efficiency_at(eff, m, t)
    d_hat = 1.0 / float(np.mean(inv_e))
    w = cow.weights(m)  # (n, n_comp)
    z = d_hat / len(m) * (w * inv_e[:, None]).sum(axis=0)
    return z, d_hat


def variance_fn_ml_iterative(basis: Sequence[Density1D], data,
                             eff: Optional[EfficiencyMap] = None,
                             start=None) -> Tuple[np.ndarray, CowSet]:
    """Iterate I(m) = sum z_k g_k, the mixture density of the basis, with
    fractions re-estimated each step under the efficiency ``eff``; returns the
    last fractions and the :class:`CowSet` (with ``eff``) of the step that
    converged, built at its start fractions.

    Starts from the fractions ``start`` (say, those of a fit of m, when the
    basis is its components: the fixed point) or else from equal fractions;
    from equal ones a handful of steps (about the number of components)
    normally suffices.  Fractions leaving [0, 1] are clipped and
    renormalized.  Raises :class:`~cowlib.errors.NonConvergenceError` with
    the iteration trace if none of the first 2 n + 10 steps, for n
    components, moves every fraction by less than ``FRACTION_TOL``.
    """
    basis = list(basis)
    n = len(basis)
    support = basis[0].support
    max_iter = 2 * n + 10
    z = np.full(n, 1.0 / n) if start is None else np.array(start, dtype=float)
    trace = [z.copy()]
    for _ in range(max_iter):
        cow = build_cow(CowSpec(basis=basis, variance_fn=_mixture(z, basis), support=support,
                                efficiency=eff))
        z_new, _ = estimate_fractions(cow, data)
        z_new = np.clip(z_new, 0.0, 1.0)
        s = z_new.sum()
        if s <= 0:
            raise NonConvergenceError("all fractions clipped to zero", trace)
        z_new = z_new / s
        trace.append(z_new.copy())
        if np.max(np.abs(z_new - z)) < FRACTION_TOL:
            return z_new, cow
        z = z_new
    raise NonConvergenceError(
        f"fraction iteration did not converge in {max_iter} steps", trace)


def efficiency_corrected_weights(cow: CowSet, data,
                                 gv: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-event weights w_k(m_i) / efficiency(m_i, t_i) under the cow's
    efficiency, shape (N, n); ``gv`` may pass in ``cow.basis_values(m)``."""
    eff = cow.spec.efficiency
    m, t = _split_m_t(data, eff)
    w = cow.weights(m, gv)
    return w if eff is None else w / efficiency_at(eff, m, t)[:, None]
