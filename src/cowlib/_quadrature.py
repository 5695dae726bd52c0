"""Adaptive Gauss-Kronrod quadrature with vectorized integrand evaluation.

The integrand is evaluated on whole arrays of abscissae at once, which makes
the scheme fast for numpy-vectorized densities.  A vector integrand (k rows
of values) gets k integrals from one shared partition, so each density in it
is evaluated once per node.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .errors import IntegrationError

MAX_SUBDIVISIONS = 2 ** 15
# no interval's error estimate is below this fraction of its integral
ERR_FLOOR_REL = 1e-15

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Weights of the embedded 7-point Gauss rule, aligned with every second
# Kronrod node (indices 1, 3, 5, 7, 9, 11, 13).
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_G_IDX = np.arange(1, 15, 2)


@functools.lru_cache(maxsize=8)
def gauss_legendre(n: int):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1].

    ``numpy.polynomial.legendre.leggauss`` solves an eigenproblem on every
    call; the few rule sizes in use are computed once per process.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _nodes(lo: np.ndarray, hi: np.ndarray):
    """Half-widths of a batch of intervals and their GK15 nodes, flattened."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half, (mid[:, None] + half[:, None] * _XK[None, :]).ravel()


def _gk15(y: np.ndarray, x: np.ndarray, half: np.ndarray):
    """Apply the GK15 rule on a batch of intervals.

    ``y`` holds the integrand at the nodes ``x`` of ``_nodes``, one row per
    integrand element.  Returns (kronrod estimate, error estimate), each of
    shape (n_elements, n_intervals).
    """
    finite = np.isfinite(y).reshape(-1, len(x))
    if not np.all(finite):
        bad = float(x[~finite.all(axis=0)][0])
        raise IntegrationError(
            f"integrand non-finite at m={bad!r}", np.nan, np.inf)
    n = len(half)
    y = y.reshape(-1, 15)  # one row per (element, interval)
    k = (y @ _WK).reshape(-1, n) * half
    g = (y[:, _G_IDX] @ _WG).reshape(-1, n) * half
    # scipy-style sharpened error estimate for smooth integrands
    resabs = (np.abs(y) @ _WK).reshape(-1, n) * half
    diff = np.abs(k - g)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            resabs > 0, np.minimum(1.0, (200.0 * diff / np.maximum(resabs, 1e-300)) ** 1.5), 0.0)
    err = np.where(resabs > 0, resabs * scaled, diff)
    err = np.maximum(err, np.abs(k) * ERR_FLOOR_REL)
    return k, err


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    tol: float = 1e-9,
    points: Optional[Iterable[float]] = None,
) -> Union[float, np.ndarray]:
    """Integrate ``f`` over [lo, hi] to absolute accuracy ``tol``.

    ``f`` is called on arrays of nodes x and returns one value per node, or
    an array of shape (k, len(x)) for a vector integrand; then all k
    integrals share one adaptive partition, each must meet ``tol``, and the
    result is an array of k values (a float for a scalar integrand).  ``points`` lists known breakpoints (e.g.
    density discontinuities); the initial subdivision is split there so
    each cell is smooth.

    Raises
    ------
    ValueError
        If ``f`` returns another shape on its first call.
    IntegrationError
        If the error target is not met after the subdivision budget, or
        cannot be met because it lies below the error floor of
        ``ERR_FLOOR_REL`` times the summed |integral| of the intervals; the
        exception carries the best estimate (an array for a vector
        integrand).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    edges = [lo, hi]
    if points is not None:
        edges.extend(p for p in points if lo < p < hi)
    edges = np.array(sorted(set(edges)))
    half, x = _nodes(edges[:-1], edges[1:])
    y = np.asarray(f(x), dtype=float)
    if not (y.ndim in (1, 2) and y.shape[-1] == len(x)):
        raise ValueError(f"integrand returned shape {y.shape} for {len(x)} nodes; "
                         f"expected ({len(x)},) or (k, {len(x)})")
    vector = y.ndim == 2
    v0, e0 = _gk15(y, x, half)

    # intervals live in the first n slots; a split replaces the interval
    # by its left half and appends the right half
    n = len(edges) - 1
    cap = max(2 * n, 64)
    los, his = np.empty(cap), np.empty(cap)
    vals, errs = np.empty((len(v0), cap)), np.empty((len(v0), cap))
    los[:n], his[:n], vals[:, :n], errs[:, :n] = edges[:-1], edges[1:], v0, e0
    for _ in range(MAX_SUBDIVISIONS):
        total_err = errs[:, :n].sum(axis=1)
        if np.all(total_err <= tol):
            estimate = vals[:, :n].sum(axis=1)
            return estimate if vector else float(estimate[0])
        if n >= MAX_SUBDIVISIONS:
            break
        # split the worst interval of the element furthest over tol, unless
        # the error floor of that element alone exceeds tol: splitting
        # cannot lower the summed |integral| of its intervals by more than
        # their estimates move, which is at most their error
        e = int(np.argmax(total_err))
        if ERR_FLOOR_REL * (np.abs(vals[e, :n]).sum() - total_err[e]) > tol:
            break
        i = int(np.argmax(errs[e, :n]))
        a, b = los[i], his[i]
        m = 0.5 * (a + b)
        if not (a < m < b):
            break  # interval exhausted at machine precision
        half, x = _nodes(np.array([a, m]), np.array([m, b]))
        nv, ne = _gk15(f(x), x, half)
        if n == cap:  # grow by doubling: most integrals need few intervals
            cap *= 2
            los, his = np.resize(los, cap), np.resize(his, cap)
            vals = np.concatenate([vals, np.empty_like(vals)], axis=1)
            errs = np.concatenate([errs, np.empty_like(errs)], axis=1)
        his[i], los[n], his[n] = m, m, b
        vals[:, i], vals[:, n] = nv[:, 0], nv[:, 1]
        errs[:, i], errs[:, n] = ne[:, 0], ne[:, 1]
        n += 1
    estimate = vals[:, :n].sum(axis=1)
    total_err = errs[:, :n].sum(axis=1)
    raise IntegrationError(
        f"quadrature did not reach tol={tol:g} (err={total_err.max():.3g})",
        estimate if vector else float(estimate[0]),
        total_err if vector else float(total_err[0]))
