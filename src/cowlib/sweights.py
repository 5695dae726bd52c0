"""Classic two-component signal/background weight extraction.

Three estimators of the W matrix are provided: quadrature of the density
ratio (variant A), a per-event sample sum (variant B) and rescaling of the
fitted yield Hessian/covariance (variant C, modes Ci and Cii).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List

import numpy as np

from .densities import Density1D, Interval, integrate
from .errors import EvaluationError, SingularModelError
from .mlfit import FitResult

__all__ = [
    "WeightMatrix",
    "WeightFunctionSet",
    "compute_W_variant_A",
    "compute_W_variant_B",
    "compute_W_variant_C",
    "weight_functions",
    "apply_weights",
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
    """W from quadrature: W_xy = integral of g_x g_y / (z g_s + (1-z) g_b)."""
    _check_fraction(z)
    pts = sorted(set(gs.breakpoints()) | set(gb.breakpoints()))

    def f(m):
        s, b = gs.pdf(m), gb.pdf(m)
        den = z * s + (1.0 - z) * b
        return np.stack([s * s, s * b, b * b]) / den

    ss, sb, bb = integrate(f, iv, tol, points=pts)
    W = np.array([[ss, sb], [sb, bb]])
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
    inv2 = 1.0 / g ** 2
    n = len(m)
    W = np.array([
        [np.sum(s * s * inv2), np.sum(s * b * inv2)],
        [np.sum(s * b * inv2), np.sum(b * b * inv2)],
    ]) / n
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


class WeightFunctionSet:
    """Evaluable signal/background weight functions for a 2-component model."""

    def __init__(self, wm: WeightMatrix, gs: Density1D, gb: Density1D,
                 strict_range: bool = True):
        self.source = wm
        self.gs = gs
        self.gb = gb
        self.strict_range = strict_range
        W = wm.W
        self._cs = W[1, 1], -W[0, 1]          # numerator coefficients for w_s
        self._cb = -W[0, 1], W[0, 0]          # numerator coefficients for w_b
        self._ds = W[1, 1] - W[0, 1]          # denominator: ds*g_s + db*g_b
        self._db = W[0, 0] - W[0, 1]
        self.warnings: List[str] = []
        grid = np.linspace(gs.support.lo, gs.support.hi, GRID_PROBE_POINTS)
        den = self._den(grid)
        if np.any(den <= 0):
            msg = "weight-function denominator non-positive on part of the support"
            self.warnings.append(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)

    @property
    def support(self) -> Interval:
        return self.gs.support

    def _eval_densities(self, m):
        m = np.asarray(m, dtype=float)
        if self.strict_range:
            if np.any(~self.support.contains(m)):
                raise EvaluationError("m outside the fitted range (strict mode)")
            return self.gs.pdf(m), self.gb.pdf(m)
        return self.gs.pdf(m, extrapolate=True), self.gb.pdf(m, extrapolate=True)

    def _den(self, m):
        s, b = self._eval_densities(m)
        return self._ds * s + self._db * b

    def _ratio(self, m, coeffs):
        s, b = self._eval_densities(m)
        den = self._ds * s + self._db * b
        if np.any(den == 0):
            raise EvaluationError("weight-function denominator is exactly zero")
        return (coeffs[0] * s + coeffs[1] * b) / den

    def w_s(self, m):
        return self._ratio(m, self._cs)

    def w_b(self, m):
        return self._ratio(m, self._cb)

    def all(self, m) -> np.ndarray:
        """Per-event weights, shape (len(m), 2)."""
        m = np.atleast_1d(np.asarray(m, dtype=float))
        if m.size == 0:
            return np.empty((0, 2))
        return np.column_stack([self.w_s(m), self.w_b(m)])

    def dw_s_dW(self, m) -> np.ndarray:
        """Analytic derivative of w_s wrt (W_ss, W_sb, W_bb), shape (len(m), 3)."""
        m = np.atleast_1d(np.asarray(m, dtype=float))
        s, b = self._eval_densities(m)
        num = self._cs[0] * s + self._cs[1] * b
        den = self._ds * s + self._db * b
        den2 = den ** 2
        d_ss = -num * b / den2
        d_sb = (-b * den + num * (s + b)) / den2
        d_bb = s * (den - num) / den2
        return np.column_stack([d_ss, d_sb, d_bb])


def weight_functions(wm: WeightMatrix, gs: Density1D, gb: Density1D,
                     strict_range: bool = True) -> WeightFunctionSet:
    """Plug-in weight functions built from an estimated W matrix."""
    return WeightFunctionSet(wm, gs, gb, strict_range=strict_range)


def apply_weights(wfs: WeightFunctionSet, data_m) -> np.ndarray:
    """Per-event weight matrix, one row per event, columns (w_s, w_b)."""
    return wfs.all(data_m)
