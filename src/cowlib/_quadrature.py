"""Fixed-panel Gauss-Legendre quadrature with vectorized integrand evaluation.

The integrand is evaluated on whole arrays of nodes at once, and a vector
integrand (k rows of values) gets k integrals from the same nodes.  The
panels come from the caller, who knows where the integrand changes:
:meth:`cowlib.densities.Density1D.breakpoints`.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .errors import IntegrationError

PANEL_NODES = 16   # Gauss-Legendre nodes per panel


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


def integrate(f: Callable, lo: float, hi: float, tol: float = 1e-9,
              points: Optional[Iterable[float]] = None) -> Union[float, np.ndarray]:
    """Integrate ``f`` over [lo, hi] by the 16-node Gauss-Legendre rule on
    the panels between lo, the ``points`` inside (lo, hi), and hi.

    The same rule on every panel halved is the check and the result: if the
    two estimates differ by more than ``tol * max(1, |estimate|)`` (absolute
    up to 1, relative above, where an absolute target would lie below the
    rounding of the sum), the rule is unresolved.  ``f`` is called once, on
    an array of nodes x, and returns one value per node, or shape
    (k, len(x)) for a vector integrand, whose k integrals are each checked
    and returned as an array.  A feature narrower than a panel that no node
    lands near is missed, not reported: pass in ``points`` every place where
    the integrand changes; without them the one panel is [lo, hi].

    Raises ``ValueError`` if ``f`` returns another shape, and
    :class:`~cowlib.errors.IntegrationError` if ``f`` is non-finite at a
    node or the check fails; it carries the halved-panel estimate and the
    move (arrays for a vector integrand).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    edges = np.array(sorted({lo, hi}.union(p for p in (points if points is not None else ())
                                              if lo < p < hi)))
    whole, halved, vector = panel_integrals(f, edges)
    estimate = checked(whole.sum(axis=1), halved.sum(axis=1), tol, vector)
    return estimate if vector else float(estimate[0])


def panel_integrals(f: Callable, edges: np.ndarray):
    """The rule of :func:`integrate` on the panels between the sorted
    ``edges``: the integrals of each row of ``f`` on every panel, shape
    (k, panels), and on every panel halved, (k, 2 panels), from one call of
    ``f``, and whether ``f`` is a vector integrand.  No sum is a matrix
    product, so no bit of a row depends on the others."""
    halves = np.empty(2 * len(edges) - 1)
    halves[::2], halves[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
    t, w = gauss_legendre(PANEL_NODES)
    # nodes of the whole panels, then of the halved ones, for one call of f
    half = [0.5 * np.diff(e) for e in (edges, halves)]
    x = np.concatenate([((e[:-1] + h)[:, None] + h[:, None] * t).ravel()
                        for e, h in zip((edges, halves), half)])
    y = np.asarray(f(x), dtype=float)
    if not (y.ndim in (1, 2) and y.shape[-1] == len(x)):
        raise ValueError(f"integrand returned shape {y.shape} for {len(x)} nodes; "
                         f"expected ({len(x)},) or (k, {len(x)})")
    vector = y.ndim == 2
    y = y.reshape(-1, len(x))
    finite = np.isfinite(y)
    if not np.all(finite):
        bad = float(x[~finite.all(axis=0)][0])
        raise IntegrationError(f"integrand non-finite at m={bad!r}", np.nan, np.inf)
    s = np.einsum("kpq,q->kp", y.reshape(len(y), -1, PANEL_NODES), w)
    n = len(half[0])
    return s[:, :n] * half[0], s[:, n:] * half[1], vector


def checked(whole: np.ndarray, estimate: np.ndarray, tol: float,
            vector: bool = True) -> np.ndarray:
    """The check of :func:`integrate`: ``estimate``, the totals from the
    halved panels, once each lies within ``tol * max(1, |estimate|)`` of
    ``whole``, the same totals from the whole panels.  Else raises
    :class:`~cowlib.errors.IntegrationError` naming the first element that
    does not, with the estimate and the move (floats unless ``vector``)."""
    move = np.abs(estimate - whole)
    over = move > tol * np.maximum(1.0, np.abs(estimate))
    if np.any(over):
        e = int(np.argmax(over))
        raise IntegrationError(
            f"quadrature unresolved at tol={tol:g}: element {e} is {float(estimate[e])!r}"
            f" on the halved panels and {float(whole[e])!r} on the whole ones",
            estimate if vector else float(estimate[0]),
            move if vector else float(move[0]))
    return estimate
