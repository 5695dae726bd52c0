"""Central finite differences: the Jacobian of the joint quasi-score
(``wcov.corrected_covariance_full``) and a public objective Hessian.  A step
is a constant times a scale: the caller's for a first derivative, max(|x_k|,
1) for the Hessian."""

from __future__ import annotations

import numpy as np

from .errors import EvaluationError

DERIV_STEP = 1e-6   # every first derivative


def derivative(f, x, k: int, scale: float):
    """``(f(x + h e_k) - f(x - h e_k)) / 2h`` with ``h = DERIV_STEP * scale``.
    ``f`` may return an array; its finiteness is left to the caller."""
    x = np.asarray(x, dtype=float)
    h = DERIV_STEP * scale
    xp, xm = x.copy(), x.copy()
    xp[k] += h
    xm[k] -= h
    return (f(xp) - f(xm)) / (2 * h)


def numerical_hessian(objective, params, rel_step: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian of ``objective`` at ``params``.

    An objective with values of shape s gives shape (n, n) + s.  Both
    triangles get the same value, so the result is symmetric.  Raises
    :class:`~cowlib.errors.EvaluationError` naming the probe point if the
    objective is non-finite anywhere on the stencil.
    """
    x = np.asarray(params, dtype=float)
    n = len(x)
    steps = rel_step * np.maximum(np.abs(x), 1.0)

    def f(p):
        v = np.asarray(objective(p), dtype=float)
        if not np.all(np.isfinite(v)):
            raise EvaluationError(f"objective non-finite at probe point {p.tolist()}")
        return v

    f0 = f(x)
    H = np.empty((n, n) + f0.shape)
    e = np.diag(steps)  # row i: the step along parameter i
    for i in range(n):
        H[i, i] = (f(x + e[i]) - 2.0 * f0 + f(x - e[i])) / steps[i] ** 2
        for j in range(i + 1, n):
            H[i, j] = H[j, i] = (
                f(x + e[i] + e[j]) - f(x + e[i] - e[j]) - f(x - e[i] + e[j]) + f(x - e[i] - e[j])
            ) / (4.0 * steps[i] * steps[j])
    return H
