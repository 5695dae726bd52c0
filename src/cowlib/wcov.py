"""Correct covariance matrices for parameters fitted to weighted data.

Weighted likelihoods are M-estimators, not true likelihoods, so the inverse
Hessian is not a valid covariance.  Two corrections are provided: the full
two-step sandwich over the joint quasi-score (yields, shape parameters, W
matrix elements and the parameters of interest), and the simplified formula
for the case where the discriminating-variable shapes are known.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._quadrature import gauss_legendre
from .cows import efficiency_at, from_upper, implied_cow, pair_products, upper_pairs
from .densities import Density1D, floor_empty_bins
from .errors import EvaluationError
from .mlfit import (MixtureModel, _covariance, _mixture_rows, _model_at, _nll_hessian,
                    _param_names, _shape_slices, _weighted_hessian)

__all__ = [
    "QuasiScoreSpec",
    "CorrectedCovariance",
    "corrected_covariance_full",
    "corrected_covariance_fixed_shapes",
    "corrected_covariance_cow",
    "variance_sum_weights",
    "equivalent_events",
]

ROOT_TOL_PER_EVENT = 1e-4
# the histogram-variance bootstrap works on blocks of at most this many
# (replica, event) pairs, and keeps the Poisson multiplicities of a call
# in memory for the next one only up to this many
BOOT_BLOCK_ELEMENTS = 2 ** 16
BOOT_CACHE_ELEMENTS = 2 ** 23
BOOT_QUAD_POINTS = 16   # Gauss-Legendre nodes per bin of each basis integral


def variance_sum_weights(weights) -> float:
    """Variance estimate of a Poisson-fluctuating sum of iid weights: sum w^2."""
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise EvaluationError("weights must be finite")
    return float(np.sum(w ** 2))


def equivalent_events(weights) -> float:
    """Effective statistical sample size (sum w)^2 / sum w^2."""
    w = np.asarray(weights, dtype=float)
    sw2 = np.sum(w ** 2)
    if sw2 == 0:
        raise EvaluationError("sum of squared weights is zero")
    sw = np.sum(w)
    if sw == 0:
        raise EvaluationError("sum of weights is zero")
    return float(sw ** 2 / sw2)


@dataclass
class CorrectedCovariance:
    """Corrected covariance for the control-variable parameters.

    ``theta_block`` is the corrected p x p covariance; ``naive`` the (wrong)
    inverse Hessian of the weighted likelihood for comparison.  On the
    fixed-shape path ``first_term`` and ``reduction_term`` are the two pieces
    of the correction (the reduction is PSD and is subtracted).
    ``boot_kept`` counts the bootstrap replicas that entered the score
    covariance of a histogram-variance cow; it is not part of ``to_dict``.
    """

    theta_block: np.ndarray
    naive: Optional[np.ndarray]
    full: Optional[np.ndarray] = None
    first_term: Optional[np.ndarray] = None
    reduction_term: Optional[np.ndarray] = None
    boot_kept: Optional[int] = None

    def to_dict(self) -> dict:
        def arr(a):
            return None if a is None else np.asarray(a).tolist()
        return {"theta_block": arr(self.theta_block), "naive": arr(self.naive),
                "full": arr(self.full), "first_term": arr(self.first_term),
                "reduction_term": arr(self.reduction_term)}


def _columns(data) -> Tuple[np.ndarray, np.ndarray]:
    """The columns m and t of an (N, >= 2) data array."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise EvaluationError("data must have columns (m, t)")
    return data[:, 0], data[:, 1]


def _sandwich(hs_model: Density1D, t, w, theta):
    """What every correction of the weighted fit of ``hs_model`` starts from:
    the per-event scores d1 (p, N), the inverse H^-1 of the weighted
    log-likelihood Hessian, the plain sandwich H^-1 (sum w^2 d1 d1^T) H^-T
    (symmetrized) and the naive covariance."""
    H = _weighted_hessian(hs_model, t, w, theta)   # raises where ln h is not finite
    d1 = hs_model.with_params(theta).dlogpdf(t)
    try:
        Hinv = np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError("weighted Hessian is singular") from exc
    first = Hinv @ ((w ** 2 * d1) @ d1.T) @ Hinv.T
    return d1, Hinv, 0.5 * (first + first.T), _covariance(H)


def corrected_covariance_fixed_shapes(
    data_t,
    weights,
    dW: Optional[np.ndarray],
    hs_model: Density1D,
    theta_hat,
    *,
    basis: Optional[Sequence[Density1D]] = None,
    yields: Optional[Sequence[float]] = None,
    data_m=None,
) -> CorrectedCovariance:
    """Covariance correction when the shapes in m are known.

    ``dW`` holds per-event derivatives of the signal weight wrt the upper
    triangle of the n x n W, shape (N, n(n+1)/2), as ``CowSet.dw_dW`` gives
    them; pass None for externally supplied fixed weights, which reduces the
    result to the plain sandwich.  Otherwise the C' matrix is built from the
    n ``basis`` densities, their ``yields`` and ``data_m``.
    """
    t = np.asarray(data_t, dtype=float)
    w = np.asarray(weights, dtype=float)
    theta = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    p = len(theta)

    d1, Hinv, first, naive = _sandwich(hs_model, t, w, theta)
    if dW is None:
        reduction = np.zeros((p, p))
    else:
        if basis is None or yields is None or data_m is None:
            raise EvaluationError("the reduction term needs (basis, yields, data_m)")
        dW = np.asarray(dW, dtype=float)
        # C' below is the covariance of the per-event-sum estimator of W,
        # which carries a 1/N relative to the density-scale W that dW refers
        # to; the weight is scale-invariant in W, so rescaling dW by N puts
        # both factors of the quadratic form on the same convention.
        E = len(t) * (d1 @ dW)                      # (p, n(n+1)/2)
        G = np.stack([g.pdf(data_m) for g in basis])
        f = sum(float(y) * g for y, g in zip(yields, G))   # not BLAS's (fused) sum
        P = pair_products(G) / f ** 2               # (n(n+1)/2, N)
        reduction = Hinv @ E @ (P @ P.T) @ E.T @ Hinv.T

    reduction = 0.5 * (reduction + reduction.T)
    return CorrectedCovariance(theta_block=first - reduction, naive=naive,
                               first_term=first, reduction_term=reduction)


def corrected_covariance_cow(cow, data, hs_model: Density1D, theta_hat,
                             eff=None, n_boot: int = 400, boot_seed: int = 0,
                             ) -> CorrectedCovariance:
    """Sandwich covariance for a fit weighted with orthogonal weight functions.

    For a deterministic variance function this is the plain weighted-score
    sandwich H^-1 H' H^-T, the ``first_term``.  When the variance function
    of ``cow`` is a histogram that was filled from this same sample with
    1/efficiency^2 event weights, the weight functions carry sampling noise
    from the estimated bin contents; the score covariance is then estimated with a
    one-step Poisson bootstrap that refills the histogram and rebuilds the
    weight matrix per replica, which captures the (strongly nonlinear)
    response of the weights to the bin contents.  Replicas are cheap
    because the histogram variance function is piecewise constant, so the
    weight matrix is an exact sum of per-bin basis integrals, and each
    replica's score is a sum over bins of per-bin score sums, which one
    matrix product per bin gives for all replicas at once.  The Poisson
    multiplicities depend only on (N, n_boot, boot_seed), so a small set
    of them is drawn once per process and reused.  ``boot_kept`` of the
    result counts the replicas used.
    """
    m, t = _columns(data)
    n = len(m)
    theta = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    n_sig = cow.spec.n_signal

    e = efficiency_at(eff, m, t)
    inv_e = 1.0 / e
    G = cow.basis_values(m)                        # (nb, N)
    w_m = cow.weights(m, G)[:, :n_sig].sum(axis=1)  # weight function values
    w = w_m / e           # fit weights, divided as efficiency_corrected_weights does

    d1, Hinv, first, naive = _sandwich(hs_model, t, w, theta)
    var = cow.spec.variance_fn
    if not (isinstance(var, Density1D) and var.kind == "histogram"):
        return CorrectedCovariance(theta_block=first, naive=naive, first_term=first)
    if n_boot < 2:
        raise EvaluationError("n_boot must be at least 2")
    edges = np.asarray(var.data["edges"], dtype=float)
    nbins = len(edges) - 1
    widths = np.diff(edges)

    # per-bin basis integrals B_klj of g_k g_l by Gauss-Legendre; the
    # weight matrix for any bin contents is then W_kl = sum_j B_klj / I_j
    x, gq = gauss_legendre(BOOT_QUAD_POINTS)
    half = 0.5 * widths
    nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * x[None, :]
    gv = cow.basis_values(nodes.ravel())
    nb = gv.shape[0]
    gv = gv.reshape(nb, nbins, BOOT_QUAD_POINTS)
    B = np.einsum("kjq,ljq,q,j->klj", gv, gv, gq, half)

    # events sorted by bin (stably, so each bin keeps event order); the
    # events of bin j are rows bounds[j]:bounds[j+1]
    jidx = np.clip(np.searchsorted(edges, m, side="right") - 1, 0, nbins - 1)
    order = np.argsort(jidx, kind="stable")
    bounds = np.searchsorted(jidx[order], np.arange(nbins + 1))
    fill = (inv_e ** 2)[order]                 # histogram fill weights
    # the score of replica r is sum_i mult_ri w_r(m_i) d1_i / eff_i with
    # w_r(m) = a_r . g(m) / I_r(m); summed bin by bin, 1/I_r is a factor
    # of the per-bin sums of the rows of Y = g d1 / eff, shape (N, nb p)
    Y = (G[:, None, :] * (inv_e * d1)).reshape(-1, n).T[order]
    rows = max(1, BOOT_BLOCK_ELEMENTS // n_boot)  # events per chunk
    scores = np.concatenate([
        _replica_scores(mult, order, bounds, fill, Y, B, widths, n_sig, rows)
        for mult in _multiplicity_blocks(n, n_boot, boot_seed)])
    boot_kept = len(scores)
    if boot_kept < 2:
        raise EvaluationError("bootstrap score covariance unavailable")
    CS = np.cov(scores.T, ddof=1).reshape(len(theta), len(theta))
    theta_block = Hinv @ CS @ Hinv.T
    return CorrectedCovariance(theta_block=0.5 * (theta_block + theta_block.T),
                               naive=naive, first_term=first, boot_kept=boot_kept)


def _inverses(W: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of matrices and a mask of the invertible ones.

    One batched call; only when it fails is the stack inverted matrix by
    matrix, to find the singular ones.
    """
    try:
        return np.linalg.inv(W), np.ones(len(W), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    A = np.empty_like(W)
    ok = np.ones(len(W), dtype=bool)
    for i, Wi in enumerate(W):
        try:
            A[i] = np.linalg.inv(Wi)
        except np.linalg.LinAlgError:
            ok[i] = False
    return A, ok


def _replica_scores(X: np.ndarray, order: np.ndarray, bounds: np.ndarray,
                    fill: np.ndarray, Y: np.ndarray, B: np.ndarray,
                    widths: np.ndarray, n_sig: int, rows: int) -> np.ndarray:
    """Bootstrap scores of the replicas in the columns of ``X``.

    ``X`` holds the multiplicities, one row per event; ``order`` sorts the
    events by bin, and the sorted events of bin j, at positions
    bounds[j]:bounds[j+1], have fill weights ``fill`` and score rows ``Y``
    (N, nb p).  Bins are taken in chunks of at most ``rows`` events.
    Replicas that draw no event or whose weight matrix is singular are left
    out; returns (kept, p).
    """
    r = X.shape[1]
    nbins = len(bounds) - 1
    buf = np.empty((min(rows, len(X)), r))
    raw = np.zeros((r, nbins))
    # 1/I_rj = widths_j S_r / raw_rj in a bin that replica r fills, where S_r
    # is its total bin content; T_r gathers sum_j (Y_j^T X_j)_r widths_j / raw_rj
    T = np.zeros((Y.shape[1], r))
    factor = np.empty(r)
    for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if a == b:
            continue
        M = acc = 0.0
        for c in range(a, b, rows):
            ev = slice(c, min(c + rows, b))
            Xf = buf[:ev.stop - c]
            Xf[...] = X[order[ev]]
            M = M + Y[ev].T @ Xf
            # the bin contents are summed event by event, as np.bincount
            # does, so they reproduce a per-replica histogram fill exactly
            Xf *= fill[ev, None]
            Xf[0] += acc
            acc = Xf.sum(axis=0)
        raw[:, j] = acc
        factor[:] = 0.0    # a replica that leaves bin j empty has M = 0 there
        np.divide(widths[j], acc, out=factor, where=acc > 0)
        T += M * factor
    keep = np.flatnonzero((raw > 0).any(axis=1))  # a replica with no event is skipped
    raw = floor_empty_bins(raw[keep])
    total = raw.sum(axis=1, keepdims=True)
    I_bins = raw / (widths * total)
    A, ok = _inverses(np.einsum("klj,rj->rkl", B, 1.0 / I_bins))
    nb = len(B)
    T = T[:, keep[ok]].reshape(nb, Y.shape[1] // nb, -1) * total[ok, 0]
    return np.einsum("rk,kpr->rp", A[ok][:, :n_sig].sum(axis=1), T)


def _poisson_rows(n: int, n_boot: int, seed: int):
    """The (n_boot, n) Poisson(1) multiplicities of ``default_rng(seed)`` in
    row blocks of at most BOOT_BLOCK_ELEMENTS; the blocks concatenate to the
    stream of n_boot separate ``poisson(1.0, size=n)`` draws."""
    rng = np.random.default_rng(seed)
    rows = max(1, BOOT_BLOCK_ELEMENTS // max(n, 1))
    for r0 in range(0, n_boot, rows):
        yield rng.poisson(1.0, size=(min(rows, n_boot - r0), n))


@functools.lru_cache(maxsize=1)
def _multiplicities(n: int, n_boot: int, seed: int) -> np.ndarray:
    """All multiplicities of :func:`_poisson_rows` as one read-only
    (n_boot, n) matrix.

    Every toy of an ensemble and every method of a toy bootstraps with the
    same (n, n_boot, seed), so the draw is made once per process.  Stored
    event-major (the result is the transpose of a C-contiguous (n, n_boot)
    array), so that gathering the events of a bin copies whole rows, and as
    uint8 unless a count exceeds 255.
    """
    out = np.empty((n, n_boot), dtype=np.uint8)
    r0 = 0
    for block in _poisson_rows(n, n_boot, seed):
        if block.max() > np.iinfo(out.dtype).max:
            out = out.astype(np.int64)
        out[:, r0:r0 + len(block)] = block.T
        r0 += len(block)
    out.flags.writeable = False
    return out.T


def _multiplicity_blocks(n: int, n_boot: int, seed: int):
    """Event-major (n, r) blocks of the bootstrap multiplicities: the whole
    per-process cache when it is small, row blocks drawn afresh otherwise."""
    if n * n_boot > BOOT_CACHE_ELEMENTS:
        for block in _poisson_rows(n, n_boot, seed):
            yield block.T
        return
    yield _multiplicities(n, n_boot, seed).T


@dataclass
class QuasiScoreSpec:
    """Ingredients of the joint quasi-score for two-step M-estimation.

    The parameter vector lambda holds the ``FitResult.params`` of the m fit
    of ``model`` (the n yields, then the free shape parameters component by
    component), the n(n+1)/2 elements of W in :func:`upper_pairs` order and
    the parameters theta of ``hs``.  The W block lives on the Hessian scale
    (variant-B W divided by N); the weight function is scale-invariant in W
    so this is a pure convention.  Component 0 is the signal.
    """

    model: MixtureModel
    hs: Density1D

    @property
    def _w_slice(self) -> slice:
        n, n_m = len(self.model.components), _shape_slices(self.model)[-1].stop
        return slice(n_m, n_m + n * (n + 1) // 2)

    @property
    def dim(self) -> int:
        return self._w_slice.stop + self.hs.n_params

    def unpack(self, lam: np.ndarray):
        """(the mixture model, the W elements, theta) of ``lam``."""
        lam = np.asarray(lam, dtype=float)
        iw = self._w_slice
        return _model_at(self.model, lam[:iw.start]), lam[iw], lam[iw.stop:]

    def lambda_from_fits(self, data_m, mfit, tfit) -> np.ndarray:
        """Assemble the parameter vector from an m fit and a weighted t fit."""
        if list(mfit.param_names) != _param_names(self.model):
            raise EvaluationError(f"the m fit's parameters {mfit.param_names} are not "
                                  f"those of the model, {_param_names(self.model)}")
        _, g, f = _mixture(_model_at(self.model, mfit.params), data_m)
        Wv = (pair_products(g) / f ** 2).sum(axis=1)
        return np.concatenate([mfit.params, Wv, tfit.params])

    def weight_s(self, m, lam) -> np.ndarray:
        """The classic signal weight of the W block of ``lam`` at m."""
        model, Wv, _ = self.unpack(lam)
        return _implied(Wv, model.densities()).weights(m)[:, 0]

    def _per_event(self, lam, m, t) -> np.ndarray:
        """Per-event terms of the quasi-score, shape (dim, N): D/f for the m
        fit's parameters (:func:`mlfit._mixture_rows`), g_k g_l / f^2 for W
        and the signal weight times the score of hs."""
        m = np.asarray(m, dtype=float)
        model, Wv, theta = self.unpack(lam)
        dens, g, f = _mixture(model, m)
        D = _mixture_rows(dens, g, model.yields, _shape_slices(model), m)[0]
        d1 = self.hs.with_params(theta).dlogpdf(np.asarray(t, dtype=float))
        return np.concatenate([D / f, pair_products(g) / f ** 2,
                               _implied(Wv, dens).weights(m, g)[:, 0] * d1])

    def score(self, lam, m, t) -> np.ndarray:
        """The quasi-score vector S(lambda) summed over the sample."""
        S = self._per_event(lam, m, t).sum(axis=1)
        iw = self._w_slice
        S[:len(self.model.components)] -= 1.0
        S[iw] -= np.asarray(lam, dtype=float)[iw]
        return S

    def score_covariance(self, lam, m, t) -> np.ndarray:
        """Sample estimate of E[S S^T] under Poisson sample-size fluctuations."""
        V = self._per_event(lam, m, t)
        return V @ V.T

    def jacobian(self, lam, m, t) -> np.ndarray:
        """dS/dlambda in closed form.  With D = df/dp over the m fit's
        parameters p, P = g_k g_l / f^2, s_c = dln g_c/dphi_c of a free shape,
        A = W^-1, I = (A 1).g and d1 the scores of hs: the m block is minus
        the extended-ML Hessian, W row kl is -2 (P_kl/f) D^T + (d_kc + d_lc)
        P_kl s_c^T on p and -1 on W_kl, and the theta rows are the weighted
        Hessian of hs, d1 dw_s/dW and d1 ((A_0c - w_s (A 1)_c) g_c s_c / I)^T."""
        model, Wv, theta = self.unpack(lam)
        dens, g, f = _mixture(model, m)
        slices = _shape_slices(model)
        iw, ith = self._w_slice, slice(self._w_slice.stop, self.dim)
        H, D, scores = _nll_hessian(dens, g, f, model.yields, slices, m)
        cow = _implied(Wv, dens)
        w_s = cow.weights(m, g)[:, 0]
        d1 = self.hs.with_params(theta).dlogpdf(t)
        P = pair_products(g) / f ** 2
        a1 = cow.A.sum(axis=1)
        J = np.zeros((self.dim, self.dim))
        J[:iw.start, :iw.start] = -H
        J[iw, :iw.start] = -2.0 * (P / f) @ D.T
        J[iw, iw] = -np.eye(iw.stop - iw.start)
        J[ith, iw] = d1 @ cow.dw_dW(m)
        J[ith, ith] = _weighted_hessian(self.hs, t, w_s, theta)
        for c, sc in scores.items():
            s = slices[c]
            hits = np.array([(k == c) + (l == c) for k, l in upper_pairs(len(dens))])
            J[iw, s] += hits[:, None] * (P @ sc.T)
            J[ith, s] = d1 @ ((cow.A[0, c] - w_s * a1[c]) * g[c] / (a1 @ g) * sc).T
        return J


def _mixture(model: MixtureModel, m):
    """The densities of ``model``, their values g at m and f = sum_k y_k g_k."""
    dens = model.densities()
    g = np.stack([d.pdf(np.asarray(m, dtype=float)) for d in dens])
    f = sum(y * gk for y, gk in zip(model.yields, g))   # not BLAS's (fused) sum
    if np.any(f <= 0):
        raise EvaluationError("mixture density non-positive at a data point")
    return dens, g, f


def _implied(Wv, basis: Sequence[Density1D]):
    """The classic weight functions of the W with upper triangle ``Wv``."""
    W = from_upper(Wv, len(basis))
    return implied_cow(W, np.linalg.inv(W), basis)


def corrected_covariance_full(data, spec: QuasiScoreSpec, lam_hat,
                              ) -> CorrectedCovariance:
    """Sandwich covariance J^-1 E[S S^T] J^-T over the joint quasi-score S.

    ``data`` is (N, >= 2) with columns (m, t), and ``lam_hat`` must be a
    root of the score (each component below 1e-4 per event).  The Jacobian
    J is closed-form (:meth:`QuasiScoreSpec.jacobian`), and ``naive`` is
    the inverse of its theta block, the weighted Hessian of the control fit.
    """
    m, t = _columns(data)
    lam = np.asarray(lam_hat, dtype=float)
    if len(lam) != spec.dim:
        raise EvaluationError(f"lambda has length {len(lam)}, expected {spec.dim}")

    S = spec.score(lam, m, t)
    tol = ROOT_TOL_PER_EVENT * max(len(m), 1)
    if np.max(np.abs(S)) > tol:
        raise EvaluationError(
            f"lambda is not a root of the quasi-score: max |S_j| = {np.max(np.abs(S)):.3g}"
            f" exceeds {tol:.3g}")

    J = spec.jacobian(lam, m, t)
    CS = spec.score_covariance(lam, m, t)
    try:
        X = np.linalg.solve(J, CS)
        C = np.linalg.solve(J, X.T).T
    except np.linalg.LinAlgError as exc:
        raise EvaluationError("score Jacobian is singular") from exc
    C = 0.5 * (C + C.T)

    ith = slice(spec._w_slice.stop, spec.dim)
    return CorrectedCovariance(theta_block=C[ith, ith], naive=_covariance(J[ith, ith]), full=C)
