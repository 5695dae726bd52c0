"""Classic two-component signal/background weight extraction.

Three estimators of the W matrix are provided: quadrature of the density
ratio (variant A), a per-event sample sum (variant B) and rescaling of the
fitted yield Hessian/covariance (variant C, modes Ci and Cii).  The weights
of a W are the :class:`~cowlib.cows.CowSet` whose variance function is the
one W implies, I(m) = (A 1) . g(m) with A = W^-1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


def _invert_2x2(W: np.ndarray) -> np.ndarray:
    det = W[0, 0] * W[1, 1] - W[0, 1] ** 2
    norm2 = float(np.sum(W * W))
    if det <= 1e-14 * norm2:
        raise SingularModelError(
            "W matrix is singular: the component shapes are proportional")
    return np.array([[W[1, 1], -W[0, 1]], [-W[0, 1], W[0, 0]]]) / det


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


def _check_fraction(z: float):
    if not 0.0 < z < 1.0:
        raise EvaluationError(f"signal fraction must lie in (0, 1), got {z}")


def compute_W_variant_A(gs: Density1D, gb: Density1D, z: float, iv: Interval,
                        tol: float = 1e-9) -> WeightMatrix:
    """W from quadrature: the Gram matrix of (g_s, g_b) under the variance
    function z g_s + (1-z) g_b."""
    _check_fraction(z)
    W = gram_matrix([gs, gb], MixtureVariance([z, 1.0 - z], [gs, gb]), iv, tol)
    A = _invert_2x2(W)
    return WeightMatrix(W, A, "A", np.array([z, 1.0 - z]))


def compute_W_variant_B(gs: Density1D, gb: Density1D, z: float, data_m) -> WeightMatrix:
    """W from the per-event sample sum (the recommended, self-consistent choice)."""
    _check_fraction(z)
    m = np.asarray(data_m, dtype=float)
    if m.size == 0:
        raise EvaluationError("variant B requires a nonempty data sample")
    s = gs.pdf(m)
    b = gb.pdf(m)
    g = z * s + (1.0 - z) * b
    if np.any(g <= 0):
        i = int(np.argmax(g <= 0))
        raise EvaluationError(
            f"mixture density vanishes at observation {i} (m={m[i]!r})")
    W = from_upper((pair_products(np.stack([s, b])) * (1.0 / g ** 2)).sum(axis=1), 2) / len(m)
    A = _invert_2x2(W)
    return WeightMatrix(W, A, "B", np.array([z, 1.0 - z]))


def compute_W_variant_C(full_fit: FitResult, N: int, mode: str = "invert-full-cov") -> WeightMatrix:
    """W from a fit's covariance matrix.

    ``invert-full-cov`` (Ci): invert the full covariance, take the yields
    2x2 block of the resulting Hessian and scale by N.  Inversion must come
    before extraction; the reverse order would not restore the derivatives.
    ``yields-only-cov`` (Cii): for a yields-only fit the scaled covariance
    C/N is directly the coefficient matrix A.
    """
    if not full_fit.converged or full_fit.covariance is None:
        raise EvaluationError("variant C needs a converged fit with covariance")
    cov = np.asarray(full_fit.covariance, dtype=float)
    yields = np.asarray(full_fit.params[:2], dtype=float)
    z_hat = yields / yields.sum()
    if mode == "invert-full-cov":
        try:
            hess_full = np.linalg.inv(cov)
        except np.linalg.LinAlgError as exc:
            raise EvaluationError("covariance matrix is not invertible") from exc
        W = N * hess_full[:2, :2]
        W = 0.5 * (W + W.T)
        A = _invert_2x2(W)
        return WeightMatrix(W, A, "Ci", z_hat)
    if mode == "yields-only-cov":
        A = cov[:2, :2] / N
        A = 0.5 * (A + A.T)
        W = _invert_2x2(A)
        return WeightMatrix(W, A, "Cii", z_hat)
    raise ValueError(f"unknown variant C mode {mode!r}")


def weight_functions(wm: WeightMatrix, gs: Density1D, gb: Density1D) -> CowSet:
    """Plug-in weight functions built from an estimated W matrix: the
    :class:`~cowlib.cows.CowSet` of basis (gs, gb) with the W and A of ``wm``
    and the variance function they imply.

    Warns (and records in ``warnings``) when the denominator of the closed
    form, (W_bb - W_sb) g_s + (W_ss - W_sb) g_b = det(W) I(m), is
    non-positive anywhere on the support.
    """
    cow = implied_cow(wm.W, wm.A, [gs, gb])
    grid = np.linspace(gs.support.lo, gs.support.hi, GRID_PROBE_POINTS)
    if np.any(np.linalg.det(wm.W) * cow.spec.variance_fn(grid) <= 0):
        msg = "weight-function denominator non-positive on part of the support"
        cow.warnings.append(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return cow
