"""Weight methods: from a method spec and a fit of m to per-event weights and
a corrected covariance.  A method is the W estimator of classic weights
(variant A, B, Ci or Cii) or the basis and variance function I(m) of cows,
plus the covariance correction of the weighted control-variable fit.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from .cows import (CowSet, CowSpec, build_cow, efficiency_corrected_weights,
                   variance_fn_ml_iterative, variance_fn_qm)
from .densities import Density1D, EfficiencyMap, Interval, monomial_basis
from .errors import ConstructionError, NonConvergenceError
from .mlfit import FitResult, fit_weighted_ml
from .sweights import (WeightMatrix, compute_W_variant_A, compute_W_variant_B,
                       weight_functions)
from .wcov import (CorrectedCovariance, corrected_covariance_cow,
                   corrected_covariance_fixed_shapes)

__all__ = ["MAX_POLY_ORDER", "MethodSpec", "MethodWeights", "apply_method", "as_integer",
           "control_fit", "fitted_basis", "sweights_matrix", "variance_cow"]

# The highest monomial order of a cow basis: a cap on the W quadrature's cost
# that lets an order-25 ensemble still fail in build_cow, not where W turns
# ill-conditioned (a normal(0.5, 0.08) signal plus monomials, I = 1 on [0, 1],
# is past cows.CONDITION_LIMIT from order 9: 5.3e12 at 9, 9.5e17 at 20).
MAX_POLY_ORDER = 30


def as_integer(value, what: str, minimum: Optional[int] = None,
               maximum: Optional[int] = None) -> int:
    """``value`` as an int in [``minimum``, ``maximum``]: 2.0 is read as 2,
    and a bool is not an integer.  Raises ConstructionError naming ``what``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)):
        bound = " and".join(f" {op} {b}" for op, b in ((">=", minimum), ("<=", maximum))
                            if b is not None)
        raise ConstructionError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


@dataclass
class MethodSpec:
    """One weight-extraction recipe: classic weights ("sweights") or the
    generalized construction ("cow"), whose non-signal basis is the fitted
    shapes (``poly_order`` 0) or monomials up to ``poly_order``, and a
    covariance ``correction``.  The toy runner reads ``fit_shapes`` to
    choose the m fit whose shapes the weights use."""

    name: str
    kind: str = "sweights"
    variant: str = "B"
    variance: str = "mixture"
    qm_bins: int = 50
    poly_order: int = 0
    fit_shapes: bool = False
    correction: str = "fixed"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConstructionError(f"a method name must be a string, got {self.name!r}")
        for key, allowed in (("kind", ("sweights", "cow")),
                             ("variant", ("A", "B", "Ci", "Cii")),
                             ("variance", ("unity", "qm", "mixture")),
                             ("correction", ("fixed", "sandwich", "none"))):
            if getattr(self, key) not in allowed:
                raise ConstructionError(f"method {self.name!r}: unknown {key} "
                                        f"{getattr(self, key)!r}; expected one of {allowed}")
        self.poly_order = as_integer(self.poly_order, f"method {self.name!r}: poly_order",
                                     0, MAX_POLY_ORDER)
        self.qm_bins = as_integer(self.qm_bins, f"method {self.name!r}: qm_bins", 1)
        if not isinstance(self.fit_shapes, bool):
            raise ConstructionError(
                f"method {self.name!r}: fit_shapes must be true or false, got {self.fit_shapes!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def sweights_matrix(variant: str, fit: FitResult, data_m,
                    gv: Optional[np.ndarray] = None) -> WeightMatrix:
    """W of the classic weights ``variant`` at the shapes of ``fit``; ``gv``
    may pass in the stacked values of its components at the events.

    B, Ci and Cii take variant B's sum.  The paper's C scales by N the yields
    block of the fit's inverse covariance, sum_i g_k g_l / f^2 for f = sum_k
    N_k g_k: that is W_B (N / sum_k N_k)^2, W_B at a converged extended fit,
    and a scale of W leaves the weights alone.
    """
    m = np.asarray(data_m, dtype=float)
    basis, z = fit.model.densities(), fit.model.fractions
    if variant == "A":
        return compute_W_variant_A(basis, z, basis[0].support)
    if variant in ("B", "Ci", "Cii"):
        wm = compute_W_variant_B(basis, z, m, gv)
        wm.variant = variant
        return wm
    raise ConstructionError(f"unknown sweights variant {variant!r}")


def fitted_basis(fit: FitResult, poly_order: int) -> List[Density1D]:
    """Every fitted component, or at ``poly_order`` > 0 the fitted signal and
    monomials up to that order in place of the other components."""
    basis = fit.model.densities()
    if poly_order > 0:
        return basis[:1] + monomial_basis(poly_order + 1, basis[0].support)
    return basis


def variance_cow(kind: str, basis: List[Density1D], data, eff: Optional[EfficiencyMap],
                 qm_bins: int, support: Interval, *, n_signal: int = 1,
                 signal_proxy: Optional[Density1D] = None, start=None) -> CowSet:
    """The cow of ``basis`` under the variance function I(m) named ``kind``,
    built once: uniform on the ``support`` for "unity", the histogram of
    :func:`~cowlib.cows.variance_fn_qm` in ``qm_bins`` bins for "qm", and for
    "mixture" the step of :func:`~cowlib.cows.variance_fn_ml_iterative`
    (started from the fractions ``start`` if given) that converged, whose W
    is rebuilt only when ``signal_proxy`` replaces the first basis element."""
    if kind == "unity":
        var = Density1D("uniform", [], support)
    elif kind == "qm":
        if qm_bins > len(data):
            raise ConstructionError(f"qm_bins {qm_bins} exceeds the {len(data)} events")
        var = variance_fn_qm(data, eff, qm_bins, support=support)
    elif kind == "mixture":
        fixed_point = variance_fn_ml_iterative(basis, data, eff, start=start)[1]
        var = fixed_point.spec.variance_fn
    else:
        raise ConstructionError(f"unknown variance kind {kind!r}")
    spec = CowSpec(basis=basis, variance_fn=var, support=support, n_signal=n_signal,
                   signal_proxy=signal_proxy, efficiency=eff)
    if kind == "mixture" and signal_proxy is None:
        return CowSet(spec, fixed_point.W, fixed_point.A)
    return build_cow(spec)


class MethodWeights:
    """The weights of one method on one sample: the weight functions ``cow``
    (for classic weights the set :func:`weight_functions` returns), the
    signal weight ``w`` per event and ``W``, the classic ``WeightMatrix`` as
    a dict or the cow W matrix.  ``gv`` may pass in the basis values of
    ``cow`` at the events, which the weights and the covariance then reuse."""

    def __init__(self, spec: MethodSpec, fit: FitResult, data: np.ndarray, cow, W,
                 gv: Optional[np.ndarray] = None):
        self.spec, self.fit, self.data, self.cow, self.W = spec, fit, data, cow, W
        self._gv = gv
        self._columns = efficiency_corrected_weights(cow, data, gv)
        self.w = self._columns[:, 0]

    def columns(self) -> Tuple[List[str], np.ndarray]:
        """Names and values of every per-event weight column."""
        n = self._columns.shape[1]
        if self.spec.kind == "sweights":
            return ["w_s", "w_b"] + [f"w_b{k}" for k in range(2, n)], self._columns
        return [f"w_{k}" for k in range(n)], self._columns

    def covariance(self, hs: Density1D, theta) -> Optional[CorrectedCovariance]:
        """Corrected covariance of the weighted fit of ``hs`` at ``theta``, or
        None under correction "none".  Classic weights subtract the reduction
        term of the estimated W under "fixed" only; cows ignore the choice."""
        if self.spec.correction == "none":
            return None
        if self.spec.kind == "cow":
            return corrected_covariance_cow(self.cow, self.data, hs, theta)
        m = self.data[:, 0]
        dW = self.cow.dw_dW(m, self._gv) if self.spec.correction == "fixed" else None
        return corrected_covariance_fixed_shapes(
            self.data[:, 1], self.w, dW, hs, theta, basis=self.cow.spec.basis,
            yields=self.fit.model.yields, data_m=m, basis_values=self._gv)


def apply_method(spec: MethodSpec, fit: FitResult, data,
                 eff: Optional[EfficiencyMap] = None) -> MethodWeights:
    """Weights of ``spec`` at the shapes and yields of the m fit ``fit``, on
    the (m, t) columns ``data``.  Classic weights ignore ``eff`` on purpose:
    on an efficiency-distorted sample they expose the bias.  Raises
    :class:`~cowlib.errors.NonConvergenceError` when ``fit`` did not converge."""
    if not fit.converged:
        raise NonConvergenceError("the extended fit of m did not converge")
    data = np.asarray(data, dtype=float)
    if spec.kind == "sweights":
        m, basis = data[:, 0], fit.model.densities()
        gv = np.stack([g.pdf(m) for g in basis])
        wm = sweights_matrix(spec.variant, fit, m, gv)
        cow = weight_functions(wm, basis)
        return MethodWeights(spec, fit, data, cow, wm.to_dict(), gv)
    basis = fitted_basis(fit, spec.poly_order)
    # a basis of the fitted components starts the mixture iteration at the
    # fit's fractions (efficiency-corrected ones differ: a start point only)
    start = fit.model.fractions if spec.poly_order == 0 else None
    cow = variance_cow(spec.variance, basis, data, eff, spec.qm_bins, basis[0].support,
                       start=start)
    return MethodWeights(spec, fit, data, cow, cow.W)


def control_fit(t, w, hs: Density1D, bounds=None) -> FitResult:
    """The weighted fit of the control model ``hs`` (within ``bounds``, if
    given); raises :class:`~cowlib.errors.NonConvergenceError` when it fails."""
    tfit = fit_weighted_ml(t, w, hs, bounds=bounds)
    if not tfit.converged:
        raise NonConvergenceError(f"the weighted fit of the {hs.kind} control model "
                                  "did not converge")
    return tfit
