"""Classic (sPlot) weights for a mixture of n components.

Three estimators of the W matrix of the component densities are provided:
quadrature of the density ratios (variant A), a per-event sample sum
(variant B) and rescaling of the fitted yields block of the Hessian or
covariance (variant C, modes Ci and Cii).  The weights of a W are the
:class:`~cowlib.cows.CowSet` whose variance function is the one W implies,
I(m) = (A 1) . g(m) with A = W^-1; the first component is the signal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cows import CowSet, MixtureVariance, from_upper, gram_matrix, implied_cow, pair_products
from .densities import Density1D, Interval
from .errors import EvaluationError, SingularModelError
from .mlfit import FitResult

__all__ = [
    "WeightMatrix",
    "compute_W_variant_A",
    "compute_W_variant_B",
    "compute_W_variant_C",
    "weight_functions",
]

GRID_PROBE_POINTS = 10_000


def _inverse(W: np.ndarray) -> np.ndarray:
    """W^-1, symmetrized; SingularModelError unless det(W) > 1e-14 (sum W^2)^(n/2)
    and W is positive definite (which a positive det implies only for n = 2)."""
    if np.linalg.det(W) <= 1e-14 * np.sum(W * W) ** (len(W) / 2) or np.linalg.eigvalsh(W)[0] <= 0:
        raise SingularModelError("W matrix is singular or not positive definite: "
                                 "the component shapes may be linearly dependent")
    A = np.linalg.inv(W)
    return 0.5 * (A + A.T)


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


def compute_W_variant_A(basis: Sequence[Density1D], z, iv: Interval,
                        tol: float = 1e-9) -> WeightMatrix:
    """W from quadrature: the Gram matrix of the basis g_k under the variance
    function sum_k z_k g_k."""
    z = _check_fractions(z, len(basis))
    W = gram_matrix(basis, MixtureVariance(z, basis), iv, tol)
    return WeightMatrix(W, _inverse(W), "A", z)


def compute_W_variant_B(basis: Sequence[Density1D], z, data_m) -> WeightMatrix:
    """W from the per-event sample sum (the recommended, self-consistent
    choice): the mean over the events of g_k g_l / (z . g)^2."""
    z = _check_fractions(z, len(basis))
    m = np.asarray(data_m, dtype=float)
    if m.size == 0:
        raise EvaluationError("variant B requires a nonempty data sample")
    G = np.stack([g.pdf(m) for g in basis])
    f = sum(zk * gk for zk, gk in zip(z, G))   # MixtureVariance's sum, not BLAS's
    if np.any(f <= 0):
        i = int(np.argmax(f <= 0))
        raise EvaluationError(
            f"mixture density vanishes at observation {i} (m={m[i]!r})")
    W = from_upper((pair_products(G) * (1.0 / f ** 2)).sum(axis=1), len(G)) / len(m)
    return WeightMatrix(W, _inverse(W), "B", z)


def compute_W_variant_C(full_fit: FitResult, N: int, mode: str = "invert-full-cov",
                        *, n_components: int) -> WeightMatrix:
    """W from a fit's covariance matrix, whose first ``n_components``
    parameters are the component yields.

    ``invert-full-cov`` (Ci): invert the full covariance, take the yields
    n x n block of the resulting Hessian and scale by N.  Inversion must come
    before extraction; the reverse order would not restore the derivatives.
    ``yields-only-cov`` (Cii): for a yields-only fit the scaled covariance
    C/N is directly the coefficient matrix A.
    """
    if not full_fit.converged or full_fit.covariance is None:
        raise EvaluationError("variant C needs a converged fit with covariance")
    cov = np.asarray(full_fit.covariance, dtype=float)
    n = n_components
    yields = np.asarray(full_fit.params[:n], dtype=float)
    z_hat = yields / yields.sum()
    if mode == "invert-full-cov":
        try:
            hess_full = np.linalg.inv(cov)
        except np.linalg.LinAlgError as exc:
            raise EvaluationError("covariance matrix is not invertible") from exc
        W = N * hess_full[:n, :n]
        W = 0.5 * (W + W.T)
        return WeightMatrix(W, _inverse(W), "Ci", z_hat)
    if mode == "yields-only-cov":
        A = cov[:n, :n] / N
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
    """
    cow = implied_cow(wm.W, wm.A, basis)
    grid = np.linspace(*basis[0].support.as_tuple(), GRID_PROBE_POINTS)
    if np.any(np.linalg.det(wm.W) * cow.spec.variance_fn(grid) <= 0):
        msg = "weight-function denominator non-positive on part of the support"
        cow.warnings.append(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return cow
