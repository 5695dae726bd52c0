"""Classic (sPlot) weights for a mixture of n components.

Three estimators of the W matrix of the component densities are provided:
quadrature of the density ratios (variant A), a per-event sample sum
(variant B) and rescaling of the fitted yields block of the Hessian or
covariance (variant C, modes Ci and Cii: at a converged fit, variant B's W
to rounding and a scale that leaves the weights alone).  The weights of a W are the
:class:`~cowlib.cows.CowSet` whose variance function is the one W implies,
I(m) = (A 1) . g(m) with A = W^-1 from :func:`cowlib.cows._inverse`; the
first component is the signal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cows import CowSet, _inverse, _mixture, from_upper, gram_matrix, implied_cow, mixture_pairs
from .densities import Density1D, Interval
from .errors import EvaluationError
from .mlfit import FitResult

__all__ = [
    "WeightMatrix",
    "compute_W_variant_A",
    "compute_W_variant_B",
    "compute_W_variant_C",
    "weight_functions",
]

GRID_PROBE_POINTS = 10_000


@dataclass
class WeightMatrix:
    """Symmetric W matrix with its inverse A and the fractions used."""

    W: np.ndarray
    A: np.ndarray
    variant: str
    z_hat: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.z_hat = np.asarray(self.z_hat, dtype=float)

    def to_dict(self) -> dict:
        return {"W": self.W.tolist(), "A": self.A.tolist(),
                "variant": self.variant, "z_hat": self.z_hat.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "WeightMatrix":
        return cls(np.array(d["W"]), np.array(d["A"]), d["variant"], np.array(d["z_hat"]))


def _check_fractions(z, n: int) -> np.ndarray:
    """``z`` as an array of n component fractions, each in (0, 1)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (n,) or not np.all((z > 0.0) & (z < 1.0)):
        raise EvaluationError(f"need {n} component fractions, each in (0, 1); got {z.tolist()}")
    return z


def compute_W_variant_A(basis: Sequence[Density1D], z, iv: Interval) -> WeightMatrix:
    """W from quadrature: the Gram matrix of the basis g_k under the variance
    function sum_k z_k g_k."""
    z = _check_fractions(z, len(basis))
    W = gram_matrix(basis, _mixture(z, basis), iv)
    return WeightMatrix(W, _inverse(W), "A", z)


def compute_W_variant_B(basis: Sequence[Density1D], z, data_m,
                        gv: Optional[np.ndarray] = None) -> WeightMatrix:
    """W from the per-event sample sum (the recommended, self-consistent
    choice): the mean over the events of g_k g_l / (z . g)^2.  ``gv`` may
    pass in the stacked values of ``basis`` at the events."""
    z = _check_fractions(z, len(basis))
    m = np.asarray(data_m, dtype=float)
    if m.size == 0:
        raise EvaluationError("variant B requires a nonempty data sample")
    W = from_upper(mixture_pairs(basis, z, m, gv)[2].sum(axis=1), len(basis)) / len(m)
    return WeightMatrix(W, _inverse(W), "B", z)


def compute_W_variant_C(full_fit: FitResult, N: int, mode: str = "invert-full-cov",
                        *, n_components: int) -> WeightMatrix:
    """W from a fit's Hessian or covariance matrix, whose first
    ``n_components`` parameters are the component yields.

    ``invert-full-cov`` (Ci): the yields n x n block of minus the
    log-likelihood Hessian of the full fit, scaled by N; that is the block of
    the inverse covariance, not the inverse of the covariance block, which
    would not restore the derivatives.
    ``yields-only-cov`` (Cii): for a yields-only fit the scaled covariance
    C/N is directly the coefficient matrix A.
    """
    if not full_fit.converged or full_fit.covariance is None or full_fit.hessian is None:
        raise EvaluationError("variant C needs a converged fit with covariance")
    n = n_components
    yields = np.asarray(full_fit.params[:n], dtype=float)
    z_hat = yields / yields.sum()
    if mode == "invert-full-cov":
        W = -N * np.asarray(full_fit.hessian, dtype=float)[:n, :n]
        return WeightMatrix(W, _inverse(W), "Ci", z_hat)
    if mode == "yields-only-cov":
        A = np.asarray(full_fit.covariance, dtype=float)[:n, :n] / N
        A = 0.5 * (A + A.T)
        return WeightMatrix(_inverse(A), A, "Cii", z_hat)
    raise ValueError(f"unknown variant C mode {mode!r}")


def weight_functions(wm: WeightMatrix, basis: Sequence[Density1D]) -> CowSet:
    """Plug-in weight functions built from an estimated W matrix: the
    :class:`~cowlib.cows.CowSet` of ``basis`` with the W and A of ``wm``
    and the variance function they imply.

    Warns (and records in ``warnings``) when det(W) I(m) = (adj(W) 1) . g(m),
    the denominator of the weights in adjugate form, is non-positive anywhere
    on the support; for two components it is (W_bb - W_sb) g_s + (W_ss - W_sb) g_b.
    It is probed on a grid unless it is positive by construction: det(W) > 0,
    every (A 1)_k > 0 and some g_k positive on the whole support, as at a
    converged fit, where A 1 is the fitted fractions.
    """
    cow = implied_cow(wm.W, wm.A, basis)
    det, a1 = np.linalg.det(wm.W), wm.A.sum(axis=1)
    if det > 0 and np.all(a1 > 0) and any(map(_positive_on_support, basis)):
        return cow
    grid = np.linspace(*basis[0].support.as_tuple(), GRID_PROBE_POINTS)
    if np.any(det * (a1 @ cow.basis_values(grid)) <= 0):
        msg = "weight-function denominator non-positive on part of the support"
        cow.warnings.append(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return cow


def _positive_on_support(g: Density1D) -> bool:
    """Whether ``g`` is positive on the whole of its support: a uniform,
    normal or exponential, whose smallest value there is at one of its
    ends, positive at both."""
    return (g.kind in ("uniform", "normal", "exponential")
            and bool(np.all(g.pdf(np.array(g.support.as_tuple())) > 0)))
