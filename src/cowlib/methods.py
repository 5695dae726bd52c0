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

from .cows import (CowSpec, UnityVariance, build_cow, efficiency_corrected_weights,
                   variance_fn_ml_iterative, variance_fn_qm)
from .densities import Density1D, EfficiencyMap, Interval, monomial_basis
from .errors import ConstructionError
from .mlfit import FitResult, yields_only_refit
from .sweights import (WeightMatrix, compute_W_variant_A, compute_W_variant_B,
                       compute_W_variant_C, weight_functions)
from .wcov import (CorrectedCovariance, corrected_covariance_cow,
                   corrected_covariance_fixed_shapes)

__all__ = ["MAX_POLY_ORDER", "MethodSpec", "MethodWeights", "apply_method", "as_integer",
           "fitted_basis", "sweights_matrix", "variance_function"]

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


def sweights_matrix(variant: str, fit: FitResult, data_m) -> WeightMatrix:
    """W of the classic weights at the shapes of ``fit``.

    Variant C takes W from the fit whose shapes the weights use: Ci inverts
    its full covariance, Cii reads its yields covariance, which is A only when
    no shape floats; a fit with free shapes is refitted for the yields first.
    """
    m = np.asarray(data_m, dtype=float)
    basis, z = fit.model.densities(), fit.model.fractions
    if variant == "A":
        return compute_W_variant_A(basis, z, basis[0].support)
    if variant == "B":
        return compute_W_variant_B(basis, z, m)
    if variant == "Ci":
        return compute_W_variant_C(fit, len(m), "invert-full-cov", n_components=len(basis))
    if variant == "Cii":
        if any(c.free_shape for c in fit.model.components):
            fit = yields_only_refit(m, fit.model)
        return compute_W_variant_C(fit, len(m), "yields-only-cov", n_components=len(basis))
    raise ConstructionError(f"unknown sweights variant {variant!r}")


def fitted_basis(fit: FitResult, poly_order: int) -> List[Density1D]:
    """Every fitted component, or at ``poly_order`` > 0 the fitted signal and
    monomials up to that order in place of the other components."""
    basis = fit.model.densities()
    if poly_order > 0:
        return basis[:1] + monomial_basis(poly_order + 1, basis[0].support)
    return basis


def variance_function(kind: str, basis: List[Density1D], data,
                      eff: Optional[EfficiencyMap], qm_bins: int, support: Interval):
    """The variance function I(m) named ``kind`` for this basis and sample."""
    if kind == "unity":
        return UnityVariance()
    if kind == "qm":
        if data.shape[1] < 2:
            raise ConstructionError("variance 'qm' needs (m, t) data")
        if qm_bins > len(data):
            raise ConstructionError(f"qm_bins {qm_bins} exceeds the {len(data)} events")
        return variance_fn_qm(data, eff, qm_bins, support=support)
    if kind == "mixture":
        return variance_fn_ml_iterative(basis, data, eff)[1]
    raise ConstructionError(f"unknown variance kind {kind!r}")


class MethodWeights:
    """The weights of one method on one sample: the weight functions ``cow``
    (for classic weights the set :func:`weight_functions` returns), the
    signal weight ``w`` per event and ``W``, the classic ``WeightMatrix`` as
    a dict or the cow W matrix."""

    def __init__(self, spec: MethodSpec, fit: FitResult, data: np.ndarray, cow, W):
        self.spec, self.fit, self.data, self.cow, self.W = spec, fit, data, cow, W
        self._columns = efficiency_corrected_weights(cow, cow.spec.efficiency, data)
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
            return corrected_covariance_cow(self.cow, self.data, hs, theta,
                                            eff=self.cow.spec.efficiency)
        m = self.data[:, 0]
        dW = self.cow.dw_dW(m) if self.spec.correction == "fixed" else None
        return corrected_covariance_fixed_shapes(
            self.data[:, 1], self.w, dW, hs, theta, basis=self.cow.spec.basis,
            yields=self.fit.model.yields, data_m=m)


def apply_method(spec: MethodSpec, fit: FitResult, data,
                 eff: Optional[EfficiencyMap] = None) -> MethodWeights:
    """Weights of ``spec`` at the shapes and yields of the m fit ``fit``, on
    the (m, t) columns ``data``.  Classic weights ignore ``eff`` on purpose:
    on an efficiency-distorted sample they expose the bias."""
    data = np.asarray(data, dtype=float)
    if spec.kind == "sweights":
        wm = sweights_matrix(spec.variant, fit, data[:, 0])
        cow = weight_functions(wm, fit.model.densities())
        return MethodWeights(spec, fit, data, cow, wm.to_dict())
    basis = fitted_basis(fit, spec.poly_order)
    support = basis[0].support
    var = variance_function(spec.variance, basis, data, eff, spec.qm_bins, support)
    cow = build_cow(CowSpec(basis=basis, variance_fn=var, support=support,
                            n_signal=1, efficiency=eff))
    return MethodWeights(spec, fit, data, cow, cow.W)
