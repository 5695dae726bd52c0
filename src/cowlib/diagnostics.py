"""Statistical pre-flight checks: rank correlation and pull computation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError

__all__ = ["IndependenceReport", "kendall_tau", "pull"]


@dataclass(frozen=True)
class IndependenceReport:
    """Kendall tau_b with its null-hypothesis normal-approximation scale.

    No verdict is attached; the numbers speak for themselves (a lack of
    correlation is necessary but not sufficient for independence).
    """

    tau: float
    n: int
    approx_sigma: float

    def to_dict(self) -> dict:
        return {"tau": self.tau, "n": self.n, "approx_sigma": self.approx_sigma}


def kendall_tau(x, y) -> IndependenceReport:
    """Tie-corrected Kendall rank correlation (tau_b) in O(n log n).

    tau_b comes from :func:`scipy.stats.kendalltau`.  ``approx_sigma`` is the
    null-hypothesis standard deviation sqrt(2(2n+5) / (9 n (n-1))), which
    scales like 1/sqrt(n).
    """
    # imported here: scipy.stats takes longer to import than the rest of
    # cowlib, and only this function needs it
    from scipy.stats import kendalltau

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise EvaluationError("x and y must be 1-D with equal length")
    n = len(x)
    if n < 2:
        raise EvaluationError("need at least two observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise EvaluationError("x and y must be finite")
    if (x == x[0]).all() or (y == y[0]).all():
        raise EvaluationError("tau undefined: one variable is constant")

    tau = kendalltau(x, y).statistic
    sigma = math.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))
    return IndependenceReport(tau=float(tau), n=n, approx_sigma=sigma)


def pull(estimate: float, truth: float, sigma: float) -> float:
    """Normalized residual (estimate - truth) / sigma."""
    if sigma <= 0:
        raise EvaluationError("sigma must be positive")
    return (estimate - truth) / sigma
