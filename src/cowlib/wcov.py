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
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .cows import (CowSet, _inverse, efficiency_at, from_upper, implied_cow, mixture_pairs,
                   upper_pairs)
from .densities import Density1D, floor_empty_bins
from .errors import CowlibError, EvaluationError
from .mlfit import (MixtureModel, _covariance, _mixture_rows, _model_at, _nll_hessian,
                    _param_names, _shape_slices, _weighted_hessian)

__all__ = [
    "QuasiScoreSpec",
    "CorrectedCovariance",
    "corrected_covariance_full",
    "corrected_covariance_fixed_shapes",
    "corrected_covariance_cow",
    "corrected_covariance_cows",
    "variance_sum_weights",
    "equivalent_events",
]

ROOT_TOL_PER_EVENT = 1e-4
# the histogram-variance bootstrap draws and sums at most this many
# (replica, event) pairs at a time, and holds its Poisson multiplicities in
# blocks of at most this many, kept for the next call when one holds them all
BOOT_BLOCK_ELEMENTS = 2 ** 16
BOOT_CACHE_ELEMENTS = 2 ** 23


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
    basis_values: Optional[np.ndarray] = None,
) -> CorrectedCovariance:
    """Covariance correction when the shapes in m are known.

    ``dW`` holds per-event derivatives of the signal weight wrt the upper
    triangle of the n x n W, shape (N, n(n+1)/2), as ``CowSet.dw_dW`` gives
    them; pass None for externally supplied fixed weights, which reduces the
    result to the plain sandwich.  Otherwise the C' matrix is built from the
    n ``basis`` densities, their ``yields`` and ``data_m``; ``basis_values``
    may pass in the stacked values of ``basis`` at ``data_m``.
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
        P = mixture_pairs(basis, yields, data_m, basis_values)[2]
        reduction = Hinv @ E @ (P @ P.T) @ E.T @ Hinv.T

    reduction = 0.5 * (reduction + reduction.T)
    return CorrectedCovariance(theta_block=first - reduction, naive=naive,
                               first_term=first, reduction_term=reduction)


def corrected_covariance_cow(cow, data, hs_model: Density1D, theta_hat,
                             n_boot: int = 400, boot_seed: int = 0,
                             ) -> CorrectedCovariance:
    """Sandwich covariance for a fit weighted with orthogonal weight functions.

    For a deterministic variance function this is the plain weighted-score
    sandwich H^-1 H' H^-T, the ``first_term``.  When the variance function
    of ``cow`` is a histogram filled from this same sample with
    1/efficiency^2 event weights, the weights carry the sampling noise of
    the bin contents; the score covariance is then estimated by a one-step
    Poisson bootstrap that refills the histogram and rebuilds the weight
    matrix per replica, which captures the (strongly nonlinear) response of
    the weights to the bin contents.  As I is constant on each bin, a
    replica's W is sum_j B_j / I_j over the per-bin Gram array ``cow.B`` of
    :func:`~cowlib.cows.build_cow` (nothing is integrated here), and its
    score a sum of per-bin score sums, one matrix product per bin for all
    replicas, times the signal row of W^-1, which one batched solve against
    the signal indicator gives for all replicas.  The Poisson multiplicities
    depend only on (N, n_boot, boot_seed), so a small set of them is drawn
    once per process.
    ``boot_kept`` counts the replicas used.  This is
    :func:`corrected_covariance_cows` for a family of one.
    """
    result, = corrected_covariance_cows([cow], data, hs_model, [theta_hat], n_boot, boot_seed)
    if isinstance(result, CowlibError):
        raise result
    return result


def corrected_covariance_cows(cows: Sequence[CowSet], data, hs_model: Density1D, thetas,
                              n_boot: int = 400, boot_seed: int = 0) -> list:
    """:func:`corrected_covariance_cow` of each of a family of ``cows``, each
    at its own theta of ``thetas``, in one pass.

    The cows of a family share the efficiency, the variance function and
    ``n_signal``, and each basis is the leading elements of the longest, as
    the nested monomial bases of one histogram are (else ``ValueError``).
    The efficiency, the basis values at the events and the bootstrap's pass
    over the bins, which gathers and fills each chunk of multiplicities, are
    made once; each cow multiplies its own score rows by the gathered
    multiplicities and keeps its own sandwich, replica W (from its own B),
    signal rows of their inverses, kept replicas and score covariance, so
    its result is bit for bit that of its own call: in order, its
    :class:`CorrectedCovariance`, or the :class:`~cowlib.errors.CowlibError`
    that its own call raises.
    """
    cows = list(cows)
    top = max(cows, key=lambda cow: len(cow.A))
    spec, var = top.spec, top.spec.variance_fn
    basis = spec.effective_basis()
    hist = var is not None and var.kind == "histogram"
    for cow in cows:
        if (cow.spec.variance_fn is not var
                or cow.spec.efficiency is not spec.efficiency
                or cow.spec.n_signal != spec.n_signal
                or any(g is not h for g, h in zip(cow.spec.effective_basis(), basis))
                or (hist and cow.B is None)):
            raise ValueError("the cows of a family must share the efficiency, the variance "
                             "function and n_signal, and have nested bases (and the B of "
                             "build_cow for a histogram variance function)")
    try:
        m, t = _columns(data)
        e = efficiency_at(spec.efficiency, m, t)
    except EvaluationError as exc:   # what every cow of the family shares
        return [exc] * len(cows)
    n, n_sig = len(m), spec.n_signal
    inv_e = 1.0 / e
    G = top.basis_values(m)                        # (nb, N) of the longest basis
    out: list = []
    live = []                                      # (index, cow, d1, Hinv) of each sandwich
    for cow, theta in zip(cows, thetas):
        nb = len(cow.A)
        try:
            # as efficiency_corrected_weights
            w = cow.weights(m, G[:nb])[:, :n_sig].sum(axis=1) / e
            d1, Hinv, first, naive = _sandwich(hs_model, t, w,
                                               np.atleast_1d(np.asarray(theta, dtype=float)))
        except CowlibError as exc:
            out.append(exc)
            continue
        live.append((len(out), cow, d1, Hinv))
        out.append(CorrectedCovariance(theta_block=first, naive=naive, first_term=first))
    if not (hist and live):
        return out
    if n_boot < 2:
        for i, *_ in live:
            out[i] = EvaluationError("n_boot must be at least 2")
        return out
    edges = np.asarray(var.data["edges"], dtype=float)
    nbins = len(edges) - 1
    widths = np.diff(edges)

    # events sorted by bin (stably, so each bin keeps event order); the
    # events of bin j are rows bounds[j]:bounds[j+1]
    jidx = np.clip(np.searchsorted(edges, m, side="right") - 1, 0, nbins - 1)
    order = np.argsort(jidx, kind="stable")
    bounds = np.searchsorted(jidx[order], np.arange(nbins + 1))
    fill = (inv_e ** 2)[order]                 # histogram fill weights
    # the score of replica r is sum_i mult_ri w_r(m_i) d1_i / eff_i with
    # w_r(m) = a_r . g(m) / I_r(m); summed bin by bin, 1/I_r is a factor
    # of the per-bin sums of the rows of Y = g d1 / eff, shape (N, nb p),
    # one such array per cow
    Y = [(G[:len(cow.A), None, :] * (inv_e * d1)).reshape(-1, n).T[order]
         for _, cow, d1, _ in live]
    B = [cow.B for _, cow, _, _ in live]
    rows = max(1, BOOT_BLOCK_ELEMENTS // n_boot)  # events per chunk
    p = hs_model.n_params
    blocks = (_poisson_blocks(n, n_boot, boot_seed) if n * n_boot > BOOT_CACHE_ELEMENTS
              else [_multiplicities(n, n_boot, boot_seed)])
    parts = [_replica_scores(X, order, bounds, fill, Y, B, widths, n_sig, rows, p)
             for X in blocks]
    for (i, _, _, Hinv), scores in zip(live, map(np.concatenate, zip(*parts))):
        boot_kept = len(scores)
        if boot_kept < 2:
            out[i] = EvaluationError("bootstrap score covariance unavailable")
            continue
        CS = np.cov(scores.T, ddof=1).reshape(p, p)
        theta_block = Hinv @ CS @ Hinv.T
        out[i] = CorrectedCovariance(theta_block=0.5 * (theta_block + theta_block.T),
                                     naive=out[i].naive, first_term=out[i].first_term,
                                     boot_kept=boot_kept)
    return out


def _signal_rows(W: np.ndarray, n_sig: int) -> Tuple[np.ndarray, np.ndarray]:
    """W^-1 s for each matrix of the stack W, with s the signal indicator
    (1 on the first ``n_sig`` elements), and a mask of the matrices solved.

    One batched solve; only when it fails is the stack solved matrix by
    matrix, to find the singular ones.
    """
    sel = np.zeros(W.shape[:-1] + (1,))
    sel[:, :n_sig] = 1.0
    try:
        return np.linalg.solve(W, sel)[..., 0], np.ones(len(W), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    a = np.zeros(W.shape[:-1])
    ok = np.ones(len(W), dtype=bool)
    for i, (Wi, si) in enumerate(zip(W, sel)):
        try:
            a[i] = np.linalg.solve(Wi, si)[:, 0]
        except np.linalg.LinAlgError:
            ok[i] = False
    return a, ok


def _replica_scores(X: np.ndarray, order: np.ndarray, bounds: np.ndarray,
                    fill: np.ndarray, Y: List[np.ndarray], B: List[np.ndarray],
                    widths: np.ndarray, n_sig: int, rows: int, p: int) -> List[np.ndarray]:
    """Bootstrap scores of the replicas in the columns of ``X``, for each
    cow of a family.

    ``X`` holds the multiplicities, one row per event; ``order`` sorts the
    events by bin, and the sorted events of bin j, at positions
    bounds[j]:bounds[j+1], have fill weights ``fill`` and, for each cow,
    score rows ``Y[i]`` of shape (N, nb p) and per-bin Gram array ``B[i]``
    for its basis of nb elements.  Bins are taken in chunks of at most
    ``rows`` events, each gathered once for every cow.  A replica's score
    reads only the signal row of its W^-1, which one batched solve gives
    for all replicas (:func:`_signal_rows`).  Replicas that draw no event,
    or whose weight matrix for a cow is singular, are left out of that
    cow's scores; returns one (kept, p) array per cow.
    """
    r = X.shape[1]
    nbins = len(bounds) - 1
    buf = np.empty((min(rows, len(X)), r))
    raw = np.zeros((r, nbins))
    # 1/I_rj = widths_j S_r / raw_rj in a bin that replica r fills, where S_r
    # is its total bin content; T_r gathers sum_j (Y_j^T X_j)_r widths_j / raw_rj
    T = [np.zeros((Yi.shape[1], r)) for Yi in Y]
    factor = np.empty(r)
    for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if a == b:
            continue
        M = [0.0] * len(Y)
        acc = 0.0
        for c in range(a, b, rows):
            ev = slice(c, min(c + rows, b))
            Xf = buf[:ev.stop - c]
            Xf[...] = X[order[ev]]
            M = [Mi + Yi[ev].T @ Xf for Mi, Yi in zip(M, Y)]
            # the bin contents are summed event by event, as np.bincount
            # does, so they reproduce a per-replica histogram fill exactly
            Xf *= fill[ev, None]
            Xf[0] += acc
            acc = Xf.sum(axis=0)
        raw[:, j] = acc
        factor[:] = 0.0    # a replica that leaves bin j empty has M = 0 there
        np.divide(widths[j], acc, out=factor, where=acc > 0)
        for Ti, Mi in zip(T, M):
            Ti += Mi * factor
    keep = np.flatnonzero((raw > 0).any(axis=1))  # a replica with no event is skipped
    raw = floor_empty_bins(raw[keep])
    total = raw.sum(axis=1, keepdims=True)
    inv_I = 1.0 / (raw / (widths * total))
    out = []
    for Ti, Bi in zip(T, B):
        nb = len(Bi)
        a, ok = _signal_rows(np.einsum("klj,rj->rkl", Bi, inv_I), n_sig)
        Tc = Ti[:, keep[ok]].reshape(nb, p, -1) * total[ok, 0]
        out.append(np.einsum("rk,kpr->rp", a[ok], Tc))
    return out


def _poisson_blocks(n: int, n_boot: int, seed: int):
    """The stream of n_boot ``poisson(1.0, size=n)`` draws of
    ``default_rng(seed)`` in the fewest read-only (n, r) blocks of at most
    BOOT_CACHE_ELEMENTS (or of one replica), their widths r equal to within
    one; drawn BOOT_BLOCK_ELEMENTS at a time, and stored event-major, so that
    gathering the events of a bin copies whole rows, as uint8 unless a count
    exceeds 255."""
    rng = np.random.default_rng(seed)
    rows = max(1, BOOT_BLOCK_ELEMENTS // n)    # replicas per draw
    cols = min(n, BOOT_BLOCK_ELEMENTS)         # events per draw
    n_blocks = -(-n_boot // max(1, BOOT_CACHE_ELEMENTS // n))
    width, wider = divmod(n_boot, n_blocks)
    for b in range(n_blocks):
        r = width + (b < wider)
        block = np.empty((n, r), dtype=np.uint8)
        for r0 in range(0, r, rows):
            for e0 in range(0, n, cols):
                draw = rng.poisson(1.0, size=(min(rows, r - r0), min(cols, n - e0)))
                if draw.max() > np.iinfo(block.dtype).max:
                    block = block.astype(np.int64)
                block[e0:e0 + cols, r0:r0 + rows] = draw.T
        block.flags.writeable = False
        yield block


@functools.lru_cache(maxsize=1)
def _multiplicities(n: int, n_boot: int, seed: int) -> np.ndarray:
    """The one block of :func:`_poisson_blocks` that holds every replica.
    Every toy of an ensemble and every method of a toy bootstraps with the
    same (n, n_boot, seed), so the draw is made once per process."""
    block, = _poisson_blocks(n, n_boot, seed)
    return block


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
        model = _model_at(self.model, mfit.params)
        Wv = mixture_pairs(model.densities(), model.yields, data_m)[2].sum(axis=1)
        return np.concatenate([mfit.params, Wv, tfit.params])

    def weight_s(self, m, lam) -> np.ndarray:
        """The classic signal weight of the W block of ``lam`` at m."""
        model, Wv, _ = self.unpack(lam)
        return _implied(Wv, model.densities()).weights(m)[:, 0]

    def _terms(self, lam, m, t) -> "_ScoreTerms":
        """The per-event terms of the quasi-score at ``lam`` and the values
        they are made of (see :meth:`evaluate`)."""
        m, t = np.asarray(m, dtype=float), np.asarray(t, dtype=float)
        model, Wv, theta = self.unpack(lam)
        dens = model.densities()
        g, f, P = mixture_pairs(dens, model.yields, m)
        slices = _shape_slices(model)
        D, scores = _mixture_rows(dens, g, model.yields, slices, m)
        cow = _implied(Wv, dens)
        w_s = cow.weights(m, g)[:, 0]
        d1 = self.hs.with_params(theta).dlogpdf(t)
        V = np.concatenate([D / f, P, w_s * d1])
        S = V.sum(axis=1)
        S[:len(dens)] -= 1.0
        S[self._w_slice] -= Wv
        return _ScoreTerms(S, V, model, theta, g, f, P, slices, D, scores, cow, w_s, d1)

    def evaluate(self, lam, m, t) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S, V, J) at ``lam``: the quasi-score S summed over the sample, its
        per-event terms V (dim, N) and J = dS/dlambda in closed form.  V holds
        D/f for the m fit's parameters p, with D = df/dp, P = g_k g_l / f^2
        for W and the signal weight w_s times the scores d1 of hs; S is its
        sum less 1 on the yields and lambda on W.  With s_c = dln g_c/dphi_c of
        a free shape, A = W^-1 and I = (A 1).g: the m block of J is minus the
        extended-ML Hessian, W row kl is -2 (P_kl/f) D^T + (d_kc + d_lc) P_kl
        s_c^T on p and -1 on W_kl, and the theta rows are the weighted Hessian
        of hs, d1 dw_s/dW and d1 ((A_0c - w_s (A 1)_c) g_c s_c / I)^T."""
        m, t = np.asarray(m, dtype=float), np.asarray(t, dtype=float)
        x = self._terms(lam, m, t)
        dens, g, f, P, D, d1, cow, w_s = (x.model.densities(), x.g, x.f, x.P, x.D, x.d1,
                                          x.cow, x.w_s)
        iw, ith = self._w_slice, slice(self._w_slice.stop, self.dim)
        a1 = cow.A.sum(axis=1)
        J = np.zeros((self.dim, self.dim))
        J[:iw.start, :iw.start] = -_nll_hessian(dens, g, f, x.model.yields, x.slices, m,
                                                D, x.scores)
        J[iw, :iw.start] = -2.0 * (P / f) @ D.T
        J[iw, iw] = -np.eye(iw.stop - iw.start)
        J[ith, iw] = d1 @ cow.dw_dW(m, g)
        J[ith, ith] = _weighted_hessian(self.hs, t, w_s, x.theta)
        k, l = upper_pairs(len(dens))
        for c, sc in x.scores.items():
            s = x.slices[c]
            hits = (k == c).astype(int) + (l == c)
            J[iw, s] += hits[:, None] * (P @ sc.T)
            J[ith, s] = d1 @ ((cow.A[0, c] - w_s * a1[c]) * g[c] / (a1 @ g) * sc).T
        return x.S, x.V, J

    def score(self, lam, m, t) -> np.ndarray:
        """The quasi-score vector S(lambda) summed over the sample."""
        return self._terms(lam, m, t).S

    def score_covariance(self, lam, m, t) -> np.ndarray:
        """Sample estimate of E[S S^T] under Poisson sample-size fluctuations."""
        V = self._terms(lam, m, t).V
        return V @ V.T

    def jacobian(self, lam, m, t) -> np.ndarray:
        """dS/dlambda in closed form (see :meth:`evaluate`)."""
        return self.evaluate(lam, m, t)[2]


class _ScoreTerms(NamedTuple):
    """What :meth:`QuasiScoreSpec._terms` gives: S and V, the model and
    theta they were taken at, the stacked values g, mixture f and pairs P,
    the m fit's rows D and shape scores, the implied weights ``cow``, the
    signal weights w_s and the scores d1 of hs."""

    S: np.ndarray
    V: np.ndarray
    model: MixtureModel
    theta: np.ndarray
    g: np.ndarray
    f: np.ndarray
    P: np.ndarray
    slices: list
    D: np.ndarray
    scores: dict
    cow: CowSet
    w_s: np.ndarray
    d1: np.ndarray


def _implied(Wv, basis: Sequence[Density1D]):
    """The classic weight functions of the W with upper triangle ``Wv``."""
    W = from_upper(Wv, len(basis))
    return implied_cow(W, _inverse(W), basis)


def corrected_covariance_full(data, spec: QuasiScoreSpec, lam_hat,
                              ) -> CorrectedCovariance:
    """Sandwich covariance J^-1 E[S S^T] J^-T over the joint quasi-score S.

    ``data`` is (N, >= 2) with columns (m, t), and ``lam_hat`` must be a
    root of the score (each component below 1e-4 per event).  The Jacobian
    J is closed-form, from the one :meth:`QuasiScoreSpec.evaluate` that
    also gives S and its per-event terms, and ``naive`` is the inverse of
    its theta block, the weighted Hessian of the control fit.
    """
    m, t = _columns(data)
    lam = np.asarray(lam_hat, dtype=float)
    if len(lam) != spec.dim:
        raise EvaluationError(f"lambda has length {len(lam)}, expected {spec.dim}")

    S, V, J = spec.evaluate(lam, m, t)
    tol = ROOT_TOL_PER_EVENT * max(len(m), 1)
    if np.max(np.abs(S)) > tol:
        raise EvaluationError(
            f"lambda is not a root of the quasi-score: max |S_j| = {np.max(np.abs(S)):.3g}"
            f" exceeds {tol:.3g}")

    try:
        X = np.linalg.solve(J, V @ V.T)
        C = np.linalg.solve(J, X.T).T
    except np.linalg.LinAlgError as exc:
        raise EvaluationError("score Jacobian is singular") from exc
    C = 0.5 * (C + C.T)

    ith = slice(spec._w_slice.stop, spec.dim)
    return CorrectedCovariance(theta_block=C[ith, ith], naive=_covariance(J[ith, ith]), full=C)
