"""Weight methods: from a method spec and a fit of m to per-event weights and
a corrected covariance.  A method is the W estimator of classic weights
(variant A, B, Ci or Cii) or the basis and variance function I(m) of cows,
plus the covariance correction of the weighted control-variable fit.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cows import (CowSet, CowSpec, _gram, _inverse, build_cow, efficiency_corrected_weights,
                   variance_fn_ml_iterative, variance_fn_qm)
from .densities import Density1D, EfficiencyMap, Interval, monomial_basis
from .errors import ConstructionError, CowlibError, NonConvergenceError
from .mlfit import FitResult, fit_weighted_ml
from .sweights import (WeightMatrix, compute_W_variant_A, compute_W_variant_B,
                       weight_functions)
from .wcov import (CorrectedCovariance, corrected_covariance_cow, corrected_covariance_cows,
                   corrected_covariance_fixed_shapes)

__all__ = ["MAX_POLY_ORDER", "MethodSpec", "MethodWeights", "apply_method", "apply_methods",
           "as_integer", "control_fit", "covariances", "fitted_basis", "method_families",
           "sweights_matrix", "variance_cow", "variance_cows"]

# The highest monomial order of a cow basis: a bound on the basis size a
# config may ask for.  The orders below it whose W is past
# cows.CONDITION_LIMIT (a normal(0.5, 0.08) signal plus monomials, I = 1 on
# [0, 1], from order 9: 5.3e12 at 9, 9.5e17 at 20) fail in build_cow as
# ill-conditioned; the quadrature of an order-30 W takes 2-10 ms.
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
    """The cow of ``basis`` under the variance function I(m) named ``kind``:
    :func:`variance_cows` of one basis, raising its error."""
    return _one(variance_cows(kind, [basis], data, eff, qm_bins, support, n_signal=n_signal,
                              signal_proxy=signal_proxy, start=start))


def variance_cows(kind: str, bases: Sequence[List[Density1D]], data,
                  eff: Optional[EfficiencyMap], qm_bins: int, support: Interval, *,
                  n_signal: int = 1, signal_proxy: Optional[Density1D] = None,
                  start=None) -> list:
    """The cows of the nested ``bases``, each the leading elements of the
    longest, under the one variance function I(m) named ``kind``, built once:
    uniform on the ``support`` for "unity", the histogram of
    :func:`~cowlib.cows.variance_fn_qm` in ``qm_bins`` bins for "qm", and for
    "mixture", of a single basis, the step of
    :func:`~cowlib.cows.variance_fn_ml_iterative` (started from the fractions
    ``start`` if given) that converged, whose W is rebuilt only when
    ``signal_proxy`` replaces the first basis element.

    I(m) and the W of the longest basis (for "qm" with its per-bin Gram
    array B, :func:`~cowlib.cows._gram`) are made once, and an error in that
    W reaches every cow.  Each basis takes their leading blocks, bit for bit
    its own W and B when the longer elements add no breakpoint (as
    monomials), and its own checked inverse: a longer basis whose W
    :func:`~cowlib.cows._inverse` rejects fails alone.  Returns, in order,
    each basis's :class:`~cowlib.cows.CowSet`, or the
    :class:`~cowlib.errors.CowlibError` that its own call raises.
    """
    longest = max(bases, key=len)
    if any(any(g is not h for g, h in zip(b, longest)) for b in bases):
        raise ValueError("variance_cows takes nested bases")
    if kind == "mixture" and len(bases) > 1:
        raise ValueError("variance_cows takes a single basis for a mixture")
    try:
        if kind == "unity":
            var = Density1D("uniform", [], support)
        elif kind == "qm":
            if qm_bins > len(data):
                raise ConstructionError(f"qm_bins {qm_bins} exceeds the {len(data)} events")
            var = variance_fn_qm(data, eff, qm_bins, support=support)
        elif kind == "mixture":
            fixed_point = variance_fn_ml_iterative(longest, data, eff, start=start)[1]
            spec = CowSpec(basis=longest, variance_fn=fixed_point.spec.variance_fn,
                           support=support, n_signal=n_signal, signal_proxy=signal_proxy,
                           efficiency=eff)
            return [CowSet(spec, fixed_point.W, fixed_point.A) if signal_proxy is None
                    else build_cow(spec)]
        else:
            raise ConstructionError(f"unknown variance kind {kind!r}")
    except CowlibError as exc:   # what every cow of the family shares
        return [exc] * len(bases)
    out = [_attempt(CowSpec, basis=b, variance_fn=var, support=support, n_signal=n_signal,
                    signal_proxy=signal_proxy, efficiency=eff) for b in bases]
    live = [i for i, spec in enumerate(out) if isinstance(spec, CowSpec)]
    if not live:
        return out
    try:
        W, B = _gram(out[max(live, key=lambda i: len(bases[i]))].effective_basis(), var,
                     support)
    except CowlibError as exc:   # what every cow of the family shares
        return [exc if i in live else o for i, o in enumerate(out)]

    def block(spec: CowSpec) -> CowSet:   # copies of the leading blocks
        k = len(spec.basis)
        Wk = W[:k, :k].copy()
        return CowSet(spec, Wk, _inverse(Wk), None if B is None else B[:k, :k].copy())
    return [_attempt(block, o) if i in live else o for i, o in enumerate(out)]


def _attempt(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the :class:`~cowlib.errors.CowlibError` it raises."""
    try:
        return fn(*args, **kwargs)
    except CowlibError as exc:
        return exc


def _one(results: list):
    """The one result of a family of one, raised if it is an error."""
    result, = results
    if isinstance(result, CowlibError):
        raise result
    return result


def method_families(specs: Sequence[MethodSpec]) -> List[List[MethodSpec]]:
    """``specs`` grouped by the work they share, in the order of each
    group's first method.  The cows with the qm variance function and a
    monomial basis (``poly_order`` >= 1) that use one fit and the same
    ``qm_bins`` are one family: their bases are nested and they share
    I(m), so :func:`apply_methods` and :func:`covariances` build its
    histogram, W and bootstrap once.  Every other method is a family of
    its own."""
    families: Dict[object, List[MethodSpec]] = {}
    for i, spec in enumerate(specs):
        shared = spec.kind == "cow" and spec.variance == "qm" and spec.poly_order > 0
        families.setdefault((spec.fit_shapes, spec.qm_bins) if shared else i, []).append(spec)
    return list(families.values())


class MethodWeights:
    """The weights of one method on one sample: the weight functions ``cow``
    (for classic weights the set :func:`weight_functions` returns), the
    signal weight ``w`` per event and ``W``, the classic ``WeightMatrix`` as
    a dict or the cow W matrix.  ``gv`` may pass in the basis values of
    ``cow`` at the events, which the weights and a classic covariance then
    reuse."""

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
    return _one(apply_methods([spec], fit, data, eff))


def apply_methods(specs: Sequence[MethodSpec], fit: FitResult, data,
                  eff: Optional[EfficiencyMap] = None) -> list:
    """:func:`apply_method` of each method of one family of
    :func:`method_families`, sharing its work: a family of qm cows takes the
    basis of its highest order, builds I(m) and W once (:func:`variance_cows`)
    and evaluates the basis at the events once, each method reading the
    leading elements.  Returns, in order, each method's :class:`MethodWeights`,
    or the :class:`~cowlib.errors.CowlibError` that its own call raises."""
    if len(method_families(specs)) != 1:
        raise ValueError("apply_methods takes the methods of one family")
    spec = specs[0]
    try:
        if not fit.converged:
            raise NonConvergenceError("the extended fit of m did not converge")
        data = np.asarray(data, dtype=float)
        m = data[:, 0]
        if spec.kind == "sweights":
            basis = fit.model.densities()
            gv = np.stack([g.pdf(m) for g in basis])
            wm = sweights_matrix(spec.variant, fit, m, gv)
            return [MethodWeights(spec, fit, data, weight_functions(wm, basis), wm.to_dict(), gv)]
        basis = fitted_basis(fit, max(s.poly_order for s in specs))
        support = basis[0].support
        bases = [basis[:s.poly_order + 2] for s in specs] if len(specs) > 1 else [basis]
        # a basis of the fitted components starts a mixture's iteration at the
        # fit's fractions (efficiency-corrected ones differ: a start point only)
        start = fit.model.fractions if spec.poly_order == 0 else None
        cows = variance_cows(spec.variance, bases, data, eff, spec.qm_bins, support, start=start)
        gv = np.stack([g.pdf(m) for g in basis])
    except CowlibError as exc:   # what every method of the family shares
        return [exc] * len(specs)
    return [_attempt(MethodWeights, s, fit, data, cow, cow.W, gv[:len(cow.A)])
            if isinstance(cow, CowSet) else cow for s, cow in zip(specs, cows)]


def covariances(weights: Sequence[MethodWeights], hs: Density1D, thetas) -> list:
    """:meth:`MethodWeights.covariance` of each of the ``weights`` of one
    family at its theta of ``thetas``, the cows' in one pass of
    :func:`~cowlib.wcov.corrected_covariance_cows`.  Returns, in order, each
    :class:`~cowlib.wcov.CorrectedCovariance` (None under correction
    "none"), or the :class:`~cowlib.errors.CowlibError` its own call raises."""
    cows = [i for i, w in enumerate(weights)
            if w.spec.kind == "cow" and w.spec.correction != "none"]
    shared = iter(corrected_covariance_cows([weights[i].cow for i in cows], weights[0].data,
                                            hs, [thetas[i] for i in cows]) if cows else ())
    return [next(shared) if i in cows else _attempt(w.covariance, hs, theta)
            for i, (w, theta) in enumerate(zip(weights, thetas))]


def control_fit(t, w, hs: Density1D, bounds=None) -> FitResult:
    """The weighted fit of the control model ``hs`` (within ``bounds``, if
    given); raises :class:`~cowlib.errors.NonConvergenceError` when it fails."""
    tfit = fit_weighted_ml(t, w, hs, bounds=bounds)
    if not tfit.converged:
        raise NonConvergenceError(f"the weighted fit of the {hs.kind} control model "
                                  "did not converge")
    return tfit
