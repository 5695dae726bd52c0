"""Extended and weighted unbinned maximum-likelihood fitting.

The optimizer is a bounded quasi-Newton (scipy L-BFGS-B) followed by a Newton
polish (:func:`_polish_newton`, the one Newton iteration, which takes the
Hessian as an argument) that drives the score below the convergence
tolerance.  The extended-ML fit then polishes its yields on their
closed-form block, so identities that hold exactly at the optimum (e.g. the
extended-ML yield identity) are reproduced to near machine precision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from ._numdiff import LOG_HESSIAN_STEP, derivative, numerical_hessian
from .densities import Density1D, Interval
from .errors import ConstructionError, EvaluationError

# failure modes of a numerical Hessian at (or probing past) a bound
_HESSIAN_ERRORS = (np.linalg.LinAlgError, EvaluationError, ConstructionError)

__all__ = [
    "MixtureComponent",
    "MixtureModel",
    "FitResult",
    "fit_extended_ml",
    "fit_weighted_ml",
    "yields_only_refit",
    "numerical_hessian",
]

GRAD_TOL_PER_EVENT = 1e-6  # converged when |score| < tol * max(N, 1)


@dataclass
class MixtureComponent:
    label: str
    density: Density1D
    free_shape: bool = False


@dataclass
class MixtureModel:
    """Ordered mixture of 1-D components with extended (yield) normalization."""

    components: List[MixtureComponent]
    yields: np.ndarray

    def __post_init__(self):
        self.yields = np.atleast_1d(np.asarray(self.yields, dtype=float))
        if len(self.yields) != len(self.components):
            raise ConstructionError("one yield per component required")
        if np.any(self.yields < 0):
            raise ConstructionError("yields must be >= 0")
        supports = {c.density.support.as_tuple() for c in self.components}
        if len(supports) != 1:
            raise ConstructionError("all components must share one support")

    @property
    def support(self) -> Interval:
        return self.components[0].density.support

    @property
    def fractions(self) -> np.ndarray:
        return self.yields / self.yields.sum()

    def densities(self) -> List[Density1D]:
        return [c.density for c in self.components]

    def pdf(self, x) -> np.ndarray:
        """Normalized mixture density at the current yields."""
        z = self.fractions
        return sum(zk * c.density.pdf(x) for zk, c in zip(z, self.components))

    def replace(self, yields=None, shape_params: Optional[Sequence] = None) -> "MixtureModel":
        """Copy with new yields and/or per-component shape parameter vectors."""
        comps = []
        for i, c in enumerate(self.components):
            dens = c.density
            if shape_params is not None and shape_params[i] is not None:
                dens = dens.with_params(shape_params[i])
            comps.append(MixtureComponent(c.label, dens, c.free_shape))
        y = self.yields if yields is None else yields
        return MixtureModel(comps, np.asarray(y, dtype=float))

    def fix_shapes(self) -> "MixtureModel":
        comps = [MixtureComponent(c.label, c.density, False) for c in self.components]
        return MixtureModel(comps, self.yields.copy())


@dataclass
class FitResult:
    """Result of an unbinned ML fit.

    ``hessian`` is the Hessian of the log-likelihood at the optimum, so
    ``covariance`` equals the negative inverse Hessian when it exists.
    """

    params: np.ndarray
    covariance: Optional[np.ndarray]
    hessian: Optional[np.ndarray]
    nll: float
    converged: bool
    n_calls: int
    param_names: List[str] = field(default_factory=list)
    flags: List[str] = field(default_factory=list)
    model: Optional[MixtureModel] = None

    def to_dict(self) -> dict:
        return {
            "params": np.asarray(self.params).tolist(),
            "param_names": list(self.param_names),
            "cov": None if self.covariance is None else np.asarray(self.covariance).tolist(),
            "hessian": None if self.hessian is None else np.asarray(self.hessian).tolist(),
            "nll": float(self.nll),
            "converged": bool(self.converged),
            "n_calls": int(self.n_calls),
            "flags": list(self.flags),
        }


def _covariance(H: np.ndarray) -> Optional[np.ndarray]:
    """The inverse of minus the log-likelihood Hessian ``H``, symmetrized;
    None when H is singular or the inverse has a non-finite element or a
    variance <= 0."""
    try:
        cov = np.linalg.inv(-H)
    except np.linalg.LinAlgError:
        return None
    cov = 0.5 * (cov + cov.T)
    if not np.all(np.isfinite(cov)) or np.any(np.diag(cov) <= 0):
        return None
    return cov


def _curvature(hessian, x, converged: bool):
    """(covariance, hessian, flags) of a fit ending at ``x``, where
    ``hessian`` maps x to the log-likelihood Hessian."""
    if not converged:
        return None, None, ["not_converged"]
    try:
        H = hessian(x)
    except _HESSIAN_ERRORS:
        return None, None, ["hessian_singular"]
    cov = _covariance(H)
    return cov, H, [] if cov is not None else ["hessian_singular"]


def _projected_grad(g, x, lower, upper):
    g = g.copy()
    at_lo = (x <= lower + 1e-12) & (g > 0)
    at_hi = (x >= upper - 1e-12) & (g < 0)
    g[at_lo] = 0.0
    g[at_hi] = 0.0
    return g


def _polish_newton(nll, grad, hessian, x, lower, upper, gtol, max_iter=40):
    """Newton iterations on the score ``grad`` of ``nll``, whose Hessian at x
    is ``hessian(x)``; steps are clipped to the bounds and halved until nll
    does not rise.  Stops once the projected score is below ``gtol`` or is
    no smaller than at the previous iteration."""
    fx = nll(x)
    best = np.inf
    for _ in range(max_iter):
        g = grad(x)
        worst = np.max(np.abs(_projected_grad(g, x, lower, upper)))
        if worst >= best or worst < gtol:
            break
        best = worst
        try:
            step = -np.linalg.solve(hessian(x), g)
        except _HESSIAN_ERRORS:
            break
        scale = 1.0
        improved = False
        for _ in range(20):
            xn = np.clip(x + scale * step, lower, upper)
            fn = nll(xn)
            if np.isfinite(fn) and fn <= fx + 1e-12 * max(1.0, abs(fx)):
                x, fx = xn, fn
                improved = True
                break
            scale *= 0.5
        if not improved or np.max(np.abs(scale * step)) < 1e-12:
            break
    return x


def _run_fit(nll, grad, x0, lower, upper, gtol):
    calls = [0]

    def counted(p):
        calls[0] += 1
        return nll(p)

    bounds = list(zip(lower, upper))
    x = np.asarray(x0, dtype=float)
    converged = False
    # L-BFGS-B occasionally stalls short of the optimum on a stale curvature
    # estimate; a fresh start from the stalled point recovers it
    for _ in range(2):
        res = minimize(counted, x, jac=grad, method="L-BFGS-B", bounds=bounds,
                       options={"ftol": 1e-14, "gtol": 1e-10, "maxiter": 1000})
        x = _polish_newton(counted, grad, lambda p: numerical_hessian(counted, p),
                           res.x, lower, upper, gtol)
        g = _projected_grad(grad(x), x, lower, upper)
        converged = bool(np.max(np.abs(g)) < gtol)
        if converged:
            break
    return x, counted(x), converged, calls[0], counted


def _shape_slices(model: MixtureModel) -> List[slice]:
    """Each component's slice of a fit's parameter vector, which holds the
    yields and then the shape parameters of every free component in order;
    the slice is empty when the shape is fixed."""
    slices, off = [], len(model.components)
    for c in model.components:
        npar = c.density.n_params if c.free_shape else 0
        slices.append(slice(off, off + npar))
        off += npar
    return slices


def _model_at(model: MixtureModel, params: np.ndarray) -> MixtureModel:
    shape_params = [params[s] if c.free_shape else None
                    for c, s in zip(model.components, _shape_slices(model))]
    return model.replace(yields=params[:len(model.components)], shape_params=shape_params)


def _param_names(model: MixtureModel):
    names = [f"N_{c.label}" for c in model.components]
    for c, s in zip(model.components, _shape_slices(model)):
        names.extend(f"{c.label}_p{j}" for j in range(s.stop - s.start))
    return names


def _default_shape_bounds(density: Density1D):
    if density.kind == "normal":
        lo, hi = density.support.as_tuple()
        width = hi - lo
        return [(lo - width, hi + width), (1e-4 * width, 10 * width)]
    return [(-np.inf, np.inf)] * density.n_params


def _pdf_memo(density: Density1D, data: np.ndarray, size: int):
    """``theta -> pdf(data)`` of one mixture component at shape parameters
    ``theta``, keeping the ``size`` most recently used results.

    A free component with n shape parameters gets 2n^2 + 1 entries: the
    center and every point of the central-difference Hessian stencil in its
    own parameters, so probes that move only the yields or another component
    reuse the stored values.  An empty ``theta`` means the shape is fixed.
    """
    @functools.lru_cache(maxsize=size)
    def values(key: bytes) -> np.ndarray:
        theta = np.frombuffer(key)
        return (density.with_params(theta) if theta.size else density).pdf(data)

    return lambda theta: values(theta.tobytes())


def fit_extended_ml(data_m, model: MixtureModel, init=None, bounds=None) -> FitResult:
    """Maximize the extended log-likelihood over yields and free shape params.

    Constant terms of the likelihood are dropped.  At the optimum the yield
    scores vanish, which implies sum(yields) == len(data) when all shapes are
    fixed.
    """
    data = np.asarray(data_m, dtype=float)
    sup = model.support
    if np.any(~sup.contains(data)):
        raise EvaluationError("data outside the model support")
    n_comp = len(model.components)
    slices = _shape_slices(model)
    n_par = slices[-1].stop
    free = [c.density for c in model.components if c.free_shape]

    if init is None:
        init = np.concatenate([np.full(n_comp, len(data) / n_comp)] + [d.params for d in free])
    init = np.asarray(init, dtype=float)
    if bounds is None:
        bounds = [(0.0, np.inf)] * n_comp
        for d in free:
            bounds.extend(_default_shape_bounds(d))
    lower = np.array([b[0] for b in bounds])
    upper = np.array([b[1] for b in bounds])
    if np.any(init < lower) or np.any(init > upper):
        raise EvaluationError("init outside bounds")

    # per component: a memo of pdf(data) keyed by its slice of the parameters
    memos = [_pdf_memo(c.density, data, 2 * c.density.n_params ** 2 + 1 if c.free_shape else 1)
             for c in model.components]

    # the (n_comp, N) stack of them, made once per shape point: a fit with
    # every shape fixed stacks once
    @functools.lru_cache(maxsize=1)
    def stacked(shapes: bytes) -> np.ndarray:
        theta = np.concatenate([np.zeros(n_comp), np.frombuffer(shapes)])
        return np.stack([memo(theta[s]) for memo, s in zip(memos, slices)])

    def comp_values(params):
        # a negative yield (a Hessian probe past the bound) is infeasible too
        if np.any(params[:n_comp] < 0):
            raise ConstructionError("yields must be >= 0")
        return stacked(params[n_comp:].tobytes())

    def nll(params):
        # shape proposals inside the box bounds can still be infeasible
        # (e.g. a truncated density with vanishing mass on the support);
        # treat them as a flat plateau the line search backs away from
        try:
            g = comp_values(params)
        except ConstructionError:
            return 1e100
        f = params[:n_comp] @ g
        if np.any(f <= 0):
            return 1e100
        return float(np.sum(params[:n_comp]) - np.sum(np.log(f)))

    def grad(params):
        try:
            g = comp_values(params)
        except ConstructionError:
            return np.zeros(n_par)
        f = params[:n_comp] @ g
        f = np.maximum(f, 1e-300)
        out = np.empty(n_par)
        out[:n_comp] = 1.0 - g @ (1.0 / f)
        for i, (c, s) in enumerate(zip(model.components, slices)):
            for off in range(s.start, s.stop):
                try:
                    dgi = derivative(lambda theta: c.density.with_params(theta).pdf(data),
                                     params[s], off - s.start)
                except ConstructionError:
                    out[off] = 0.0
                    continue
                out[off] = -np.sum(params[i] * dgi / f)
        return out

    gtol = GRAD_TOL_PER_EVENT * max(len(data), 1.0)
    x, fval, converged, n_calls, counted = _run_fit(nll, grad, init, lower, upper, gtol)
    if converged and np.all(x[:n_comp] > 0):
        # Newton on the yields at the fitted shapes: their score 1 - g.(1/f)
        # and Hessian (g/f^2).g^T are closed-form, so identities that hold
        # exactly at the optimum (sum of yields = N, the weight sums
        # downstream) hold far below gtol.  The nll, score and Hessian at
        # one point share its mixture f = y.g.
        g = comp_values(x)
        mixture = functools.lru_cache(maxsize=1)(lambda key: np.frombuffer(key) @ g)

        def block_nll(y):
            f = mixture(y.tobytes())
            return float(np.sum(y) - np.sum(np.log(f))) if np.all(f > 0) else 1e100

        yields = _polish_newton(block_nll, lambda y: 1.0 - g @ (1.0 / mixture(y.tobytes())),
                                lambda y: (g / mixture(y.tobytes()) ** 2) @ g.T,
                                x[:n_comp], lower[:n_comp], upper[:n_comp], 1e-14)
        x = np.concatenate([yields, x[n_comp:]])
        fval = counted(x)

    cov, hess, flags = _curvature(lambda p: -numerical_hessian(counted, p), x, converged)
    return FitResult(params=x, covariance=cov, hessian=hess, nll=fval,
                     converged=converged, n_calls=n_calls,
                     param_names=_param_names(model), flags=flags,
                     model=_model_at(model, x))


def yields_only_refit(data_m, model: MixtureModel, init=None) -> FitResult:
    """Extended-ML fit with every shape fixed at its current value."""
    fixed = model.fix_shapes()
    if init is not None:
        init = np.asarray(init, dtype=float)
    return fit_extended_ml(data_m, fixed, init=init)


# The weighted log-likelihood sum_i w_i ln h(t_i; theta): its per-event
# scores and its Hessian serve the weighted fit and every covariance
# correction of it (cowlib.wcov).

def _log_deriv1(density: Density1D, t: np.ndarray, theta: np.ndarray, k: int) -> np.ndarray:
    """Derivative of ln density at each of ``t`` wrt parameter k."""
    return derivative(lambda th: density.with_params(th).logpdf(t), theta, k)


def _log_derivs1(density: Density1D, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """First derivatives of ln density wrt its parameters; shape (p, N)."""
    out = np.empty((len(theta), len(t)))
    for k in range(len(theta)):
        out[k] = _log_deriv1(density, t, theta, k)
    return out


def _weighted_hessian(hs: Density1D, t, weights, theta) -> np.ndarray:
    """Hessian of the weighted log-likelihood sum_i w_i ln hs(t_i; theta).

    Raises :class:`~cowlib.errors.EvaluationError` if ln hs is non-finite at
    any event on the stencil, even one of weight 0.
    """
    d2 = numerical_hessian(lambda th: hs.with_params(th).logpdf(t), theta, LOG_HESSIAN_STEP)
    return np.einsum("i,kli->kl", weights, d2)


def fit_weighted_ml(data_t, weights, density: Density1D, init=None, bounds=None) -> FitResult:
    """Solve the weighted score equations for the shape parameters of ``density``.

    Weights may be negative (sWeights are).  The hessian field holds
    :func:`_weighted_hessian` over the events of nonzero weight, and the
    covariance field the naive inverse of it, which is *not* a valid
    covariance for weighted data; use the wcov module to correct it.  It is
    ``CorrectedCovariance.naive`` bit for bit when no weight is 0 (else to
    rounding; the correction raises where ln h is infinite at a w = 0 event).
    """
    t = np.asarray(data_t, dtype=float)
    w = np.asarray(weights, dtype=float)
    if t.shape != w.shape:
        raise EvaluationError("data and weights must have equal length")
    if not np.all(np.isfinite(w)):
        raise EvaluationError("weights must be finite")
    if w.sum() <= 0:
        raise EvaluationError("sum of weights must be positive")
    active = w != 0
    if np.any(density.pdf(t[active]) <= 0):
        i = int(np.where(active & (density.pdf(t) <= 0))[0][0])
        raise EvaluationError(f"density non-positive at weighted observation index {i}")

    n_par = density.n_params
    if n_par == 0:
        raise ConstructionError(f"{density.kind} density has no parameters to fit")
    if init is None:
        init = density.params.copy()
    init = np.asarray(init, dtype=float)
    if bounds is None:
        bounds = _default_shape_bounds(density)
    lower = np.array([b[0] for b in bounds])
    upper = np.array([b[1] for b in bounds])

    # the events of weight 0 drop out of the likelihood and its derivatives
    t, w = t[active], w[active]

    def nll(theta):
        try:
            p = density.with_params(theta).pdf(t)
        except ConstructionError:
            return 1e100
        if np.any(p <= 0):
            return 1e100
        return float(-np.sum(w * np.log(p)))

    def grad(theta):
        out = np.empty(n_par)
        for j in range(n_par):
            try:
                out[j] = -np.sum(w * _log_deriv1(density, t, theta, j))
            except ConstructionError:
                out[j] = 0.0
        return out

    # score scales with sum|w|; point estimate is scale-invariant
    gtol = GRAD_TOL_PER_EVENT * max(np.sum(np.abs(w)), 1.0)
    x, fval, converged, n_calls, _ = _run_fit(nll, grad, init, lower, upper, gtol)
    cov, hess, flags = _curvature(
        lambda th: _weighted_hessian(density, t, w, th), x, converged)
    names = [f"theta_{j}" for j in range(n_par)]
    return FitResult(params=x, covariance=cov, hessian=hess, nll=fval,
                     converged=converged, n_calls=n_calls,
                     param_names=names, flags=flags)
