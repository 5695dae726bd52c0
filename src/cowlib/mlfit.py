"""Extended and weighted unbinned maximum-likelihood fitting.

The optimizer is a bounded quasi-Newton (scipy L-BFGS-B) followed by a Newton
polish (:func:`_polish_newton`, the one Newton iteration, which takes the
Hessian as an argument) that drives the score below the convergence
tolerance; the extended-ML fit then polishes its yields on their closed-form
block, so identities that hold exactly at the optimum (e.g. the yield
identity) are reproduced to near machine precision.  Every score and Hessian
is closed-form, from :meth:`Density1D.dlogpdf` and :meth:`Density1D.d2logpdf`,
so only normal, exponential and monomial parameters can be fitted; the
extended-ML Hessian (:func:`_nll_hessian`) is also the m block of the joint
quasi-score's Jacobian in :mod:`cowlib.wcov`.  A weighted fit of an
exponential is the root of its score over two weighted sums.  The one finite
difference, :func:`numerical_hessian`, is public and used by no fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy.optimize import brentq, minimize

from .densities import _DIFFERENTIABLE_KINDS, Density1D, Interval, _exponential_mean
from .errors import ConstructionError, EvaluationError

# failure modes of a Hessian at (or past) a bound
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
_ROOT_RTOL = 4 * np.finfo(float).eps   # the smallest relative tolerance brentq takes
NEWTON_MAX_ITER = 40       # iterations of one _polish_newton call


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


def _pinned(g, x, lower, upper):
    """The parameters at a bound that their score ``g`` pushes against."""
    return (((x <= lower + 1e-12) & (g > 0)) | ((x >= upper - 1e-12) & (g < 0)))


def _projected_grad(g, x, lower, upper):
    return np.where(_pinned(g, x, lower, upper), 0.0, g)


def _polish_newton(nll, grad, hessian, x, lower, upper, gtol, convex=False):
    """Newton iterations on the score ``grad`` of ``nll``, whose Hessian at x
    is ``hessian(x)``; steps are clipped to the bounds and halved until nll
    does not rise.  Stops once the projected score is below ``gtol`` or is
    no smaller than at the previous iteration.

    For a ``convex`` nll the iteration reaches the optimum from afar: a
    parameter pinned at a bound that its score pushes against stays out of
    the step, a singular Hessian (a flat direction, e.g. two proportional
    components) takes the least-squares step, and since the score may rise
    while nll falls, a rise stops it only after an iteration that lowered
    nll by no more than its rounding.
    """
    fx = nll(x)
    best, fell = np.inf, False
    for _ in range(NEWTON_MAX_ITER):
        g = grad(x)
        pinned = _pinned(g, x, lower, upper)
        worst = np.max(np.abs(np.where(pinned, 0.0, g)))
        if worst < gtol or (worst >= best and not fell):
            break
        best = worst
        try:
            H = hessian(x)
        except _HESSIAN_ERRORS:
            break
        free = ~pinned if convex else np.full(len(x), True)
        block = H[np.ix_(free, free)]
        step = np.zeros_like(x)
        try:
            step[free] = -np.linalg.solve(block, g[free])
        except np.linalg.LinAlgError:
            if not convex:
                break
            step[free] = -np.linalg.lstsq(block, g[free], rcond=None)[0]
        slack = 1e-12 * max(1.0, abs(fx))
        scale = 1.0
        improved = False
        for _ in range(20):
            xn = np.clip(x + scale * step, lower, upper)
            fn = nll(xn)
            if np.isfinite(fn) and fn <= fx + slack:
                fell = convex and fn < fx - slack
                x, fx = xn, fn
                improved = True
                break
            scale *= 0.5
        if not improved or np.max(np.abs(scale * step)) < 1e-12:
            break
    return x


class _Counting:
    """``f``, counting its calls in ``calls``."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, p):
        self.calls += 1
        return self.f(p)


def _run_fit(nll, grad, x0, lower, upper, gtol, hessian):
    """L-BFGS-B and the Newton polish on ``hessian`` (params -> Hessian of
    nll), restarted once if not converged."""
    counted = _Counting(nll)
    bounds = list(zip(lower, upper))
    x = np.asarray(x0, dtype=float)
    converged = False
    # L-BFGS-B occasionally stalls short of the optimum on a stale curvature
    # estimate; a fresh start from the stalled point recovers it
    for _ in range(2):
        res = minimize(counted, x, jac=grad, method="L-BFGS-B", bounds=bounds,
                       options={"ftol": 1e-14, "gtol": 1e-10, "maxiter": 1000})
        x = _polish_newton(counted, grad, hessian, res.x, lower, upper, gtol)
        g = _projected_grad(grad(x), x, lower, upper)
        converged = bool(np.max(np.abs(g)) < gtol)
        if converged:
            break
    return x, counted(x), converged, counted.calls


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


def _mixture_rows(dens, g, yields, slices, data):
    """(D, s): the rows D = df/dp of f = y.g over the parameters laid out by
    ``slices`` (g_k for yield k, y_k g_k s_k for a free shape of component k),
    where g are the values of ``dens`` at ``data``, and the s_k = dln g_k/dphi
    of the free components by index k."""
    s = {k: dens[k].dlogpdf(data) for k, sl in enumerate(slices) if sl.stop > sl.start}
    return np.concatenate([g] + [yields[k] * g[k] * sk for k, sk in s.items()]), s


def _nll_hessian(dens, g, f, yields, slices, data, D, scores):
    """The Hessian H = (D/f^2).D^T - sum (d^2 f/dp dp')/f of the extended
    nll sum(y) - sum ln f, from the (D, s) of :func:`_mixture_rows`; d^2 f
    is g_k s_k between yield k and its own shape and y_k g_k (s_k s_k^T +
    ds_k) within the shape."""
    if np.any(f <= 0):
        raise EvaluationError("mixture density non-positive at an event")
    Df = D / f
    H = Df @ Df.T
    for k, sk in scores.items():
        s, r = slices[k], g[k] / f
        cross = sk @ r
        H[k, s] -= cross
        H[s, k] -= cross
        H[s, s] -= yields[k] * ((sk * r) @ sk.T + dens[k].d2logpdf(data) @ r)
    return H


def _check_fittable(density: Density1D):
    """Raise :class:`ConstructionError` unless the parameters of ``density``
    have closed-form scores; a uniform's range has none (the likelihood is
    flat in it between the events)."""
    if density.kind not in _DIFFERENTIABLE_KINDS:
        raise ConstructionError(f"the parameters of a {density.kind} density cannot be fitted")


def _default_shape_bounds(density: Density1D):
    if density.kind == "normal":
        lo, hi = density.support.as_tuple()
        width = hi - lo
        return [(lo - width, hi + width), (1e-4 * width, 10 * width)]
    return [(-np.inf, np.inf)] * density.n_params


def _yields_newton(g: np.ndarray, y0, lower, upper, gtol):
    """(yields, nll evaluations) of the extended fit at fixed component values
    ``g`` (n_comp, N), by Newton from ``y0``.  The nll sum(y) - sum ln f,
    f = y.g, is convex in the yields, with score 1 - g.(1/f) and Hessian
    (g/f^2).g^T; the nll, score and Hessian at one point share its f."""
    mixture = functools.lru_cache(maxsize=1)(lambda key: np.frombuffer(key) @ g)

    @_Counting
    def block_nll(y):
        f = mixture(y.tobytes())
        return float(np.sum(y) - np.sum(np.log(f))) if np.all(f > 0) else 1e100

    yields = _polish_newton(block_nll, lambda y: 1.0 - g @ (1.0 / mixture(y.tobytes())),
                            lambda y: (g / mixture(y.tobytes()) ** 2) @ g.T,
                            np.asarray(y0, dtype=float), lower, upper, gtol, convex=True)
    return yields, block_nll.calls


def fit_extended_ml(data_m, model: MixtureModel, init=None) -> FitResult:
    """Maximize the extended log-likelihood over yields and free shape params.

    Constant terms of the likelihood are dropped.  At the optimum the yield
    scores vanish, which implies sum(yields) == len(data) when all shapes are
    fixed.

    With every shape fixed the problem is convex in the yields and is solved
    by Newton on their closed-form block.  Free shapes are fitted by L-BFGS-B
    and the Newton polish on the closed-form score and Hessian (through
    :meth:`Density1D.dlogpdf` and :meth:`Density1D.d2logpdf`); a free shape
    of another kind than normal, exponential or monomial raises
    :class:`ConstructionError`.  A fit that ends without a covariance is
    refitted by Newton from the optimum of the yields at the model's own
    shapes (flag ``nested_refit``, set whether or not the refit is kept).
    ``n_calls`` counts nll evaluations.
    """
    n_comp = len(model.components)
    slices = _shape_slices(model)
    n_par = slices[-1].stop
    free = [(i, s) for i, s in enumerate(slices) if s.stop > s.start]
    for i, _ in free:
        _check_fittable(model.components[i].density)
    data = np.asarray(data_m, dtype=float)
    if np.any(~model.support.contains(data)):
        raise EvaluationError("data outside the model support")
    shapes0 = [model.components[i].density.params for i, _ in free]

    if init is None:
        init = np.concatenate([np.full(n_comp, len(data) / n_comp)] + shapes0)
    init = np.asarray(init, dtype=float)
    bounds = [(0.0, np.inf)] * n_comp
    for i, _ in free:
        bounds.extend(_default_shape_bounds(model.components[i].density))
    lower = np.array([b[0] for b in bounds])
    upper = np.array([b[1] for b in bounds])
    if np.any(init < lower) or np.any(init > upper):
        raise EvaluationError("init outside bounds")

    # each component's density and pdf(data): a fixed one's computed once,
    # the free ones' once per shape point, where they are stacked (n_comp, N)
    fixed = [(c.density, c.density.pdf(data)) if s.stop == s.start else None
             for c, s in zip(model.components, slices)]

    @functools.lru_cache(maxsize=1)
    def stacked(shapes: bytes):
        theta = np.concatenate([np.zeros(n_comp), np.frombuffer(shapes)])
        pairs = list(fixed)
        for i, s in free:
            dens = model.components[i].density.with_params(theta[s])
            pairs[i] = dens, dens.pdf(data)
        dens, values = zip(*pairs)
        return dens, np.stack(values)

    def comp_values(params):
        return stacked(params[n_comp:].tobytes())

    def nll(params):
        # shape proposals inside the box bounds can still be infeasible
        # (e.g. a truncated density with vanishing mass on the support);
        # treat them as a flat plateau the line search backs away from
        try:
            g = comp_values(params)[1]
        except ConstructionError:
            return 1e100
        f = params[:n_comp] @ g
        if np.any(f <= 0):
            return 1e100
        return float(np.sum(params[:n_comp]) - np.sum(np.log(f)))

    def grad(params):
        try:
            dens, g = comp_values(params)
        except ConstructionError:
            return np.zeros(n_par)
        f = params[:n_comp] @ g
        f = np.maximum(f, 1e-300)
        out = np.empty(n_par)
        out[:n_comp] = 1.0 - g @ (1.0 / f)
        for i, s in free:   # dg/dtheta = g dln g/dtheta
            out[s] = -params[i] * (dens[i].dlogpdf(data) @ (g[i] / f))
        return out

    def nll_hessian(params):
        dens, g = comp_values(params)
        y = params[:n_comp]
        return _nll_hessian(dens, g, y @ g, y, slices, data,
                            *_mixture_rows(dens, g, y, slices, data))

    def converged_at(x):
        return bool(np.max(np.abs(_projected_grad(grad(x), x, lower, upper))) < gtol)

    def settle_yields(x):
        yields, _ = _yields_newton(comp_values(x)[1], x[:n_comp],
                                   lower[:n_comp], upper[:n_comp], 1e-14)
        return np.concatenate([yields, x[n_comp:]])

    def settle(x, converged):
        """(x, nll, covariance, hessian, flags) at the end of a fit."""
        if free and converged and np.all(x[:n_comp] > 0):
            # Newton on the yields at the fitted shapes, so identities that
            # hold exactly at the optimum (sum of yields = N, the weight sums
            # downstream) hold far below gtol
            x = settle_yields(x)
            if not converged_at(x):
                # along a nearly flat direction of the yields that Newton
                # moves the yields far, and the shapes off their optimum:
                # polish every parameter, then settle the yields again
                x = settle_yields(_polish_newton(nll, grad, nll_hessian, x,
                                                 lower, upper, gtol))
        return (x, nll(x)) + _curvature(lambda p: -nll_hessian(p), x, converged)

    gtol = GRAD_TOL_PER_EVENT * max(len(data), 1.0)
    if free:
        x, _, converged, n_calls = _run_fit(nll, grad, init, lower, upper, gtol, nll_hessian)
    else:
        x, n_calls = _yields_newton(comp_values(init)[1], init, lower, upper, 1e-14)
        converged = converged_at(x)
    x, fval, cov, hess, flags = settle(x, converged)

    if free and cov is None:
        # refit by Newton in every parameter from the optimum of the yields
        # at the model's own shapes, which the free model nests; the refit
        # replaces the fit only if it converges with a covariance, where the
        # fit did not converge, or at an nll no higher
        start = np.concatenate([np.zeros(n_comp)] + shapes0)
        yields, calls = _yields_newton(comp_values(start)[1], init[:n_comp],
                                       lower[:n_comp], upper[:n_comp], 1e-14)
        start[:n_comp] = yields
        counted = _Counting(nll)
        x_re = _polish_newton(counted, grad, nll_hessian, np.clip(start, lower, upper),
                              lower, upper, gtol)
        n_calls += calls + counted.calls
        if converged_at(x_re):
            refit = settle(x_re, True)
            if refit[2] is not None or not converged or refit[1] <= fval:
                (x, fval, cov, hess, flags), converged = refit, True
        flags.append("nested_refit")

    return FitResult(params=x, covariance=cov, hessian=hess, nll=fval,
                     converged=converged, n_calls=n_calls,
                     param_names=_param_names(model), flags=flags,
                     model=_model_at(model, x))


def yields_only_refit(data_m, model: MixtureModel) -> FitResult:
    """Extended-ML fit with every shape fixed at its current value."""
    return fit_extended_ml(data_m, model.fix_shapes())


# The weighted log-likelihood sum_i w_i ln h(t_i; theta): its per-event
# scores (Density1D.dlogpdf) and its Hessian serve the weighted fit and every
# covariance correction of it (cowlib.wcov).

def _weighted_hessian(hs: Density1D, t, weights, theta) -> np.ndarray:
    """Hessian of the weighted log-likelihood sum_i w_i ln hs(t_i; theta).

    Raises :class:`~cowlib.errors.EvaluationError` if ln hs is non-finite at
    any event, even one of weight 0.
    """
    dens = hs.with_params(theta)
    if not np.all(np.isfinite(dens.logpdf(t))):
        raise EvaluationError("ln h is non-finite at an event")
    return np.einsum("i,kli->kl", weights, dens.d2logpdf(t))


def _fit_exponential(t, w, density: Density1D, lower, upper, gtol):
    """(params, nll, converged, n_calls) of the weighted fit of an
    exponential.  Its log-likelihood is -lam S1 - S0 ln Z(lam), with
    S0 = sum w and S1 = sum w (t - lo), so the fit is the root of the score
    S0 (E_lam[t - lo] - S1/S0); ``n_calls`` counts the score evaluations."""
    lo_t, width = density.support.lo, float(density.support.width)   # lam W overflows quietly
    s0, s1 = float(np.sum(w)), float(np.sum(w * (t - lo_t)))
    mean = s1 / s0
    calls = [0]

    def score(lam):   # decreasing in lam, since s0 > 0
        calls[0] += 1
        return s0 * (_exponential_mean(lam, width) - mean)

    # E_lam[t - lo] falls from W through W/2 at lam = 0 to 0, below 1/lam for
    # lam > 0 and above W - 1/|lam| for lam < 0; so these bracket the root,
    # which is infinite when the mean is outside (0, W)
    if mean <= width / 2:
        a, b = 0.0, (1.0 / mean if mean > 0 else math.inf)
    else:
        a, b = (-1.0 / (width - mean) if mean < width else -math.inf), 0.0
    lo, hi = float(lower[0]), float(upper[0])
    a, b = min(max(a, lo), hi), min(max(b, lo), hi)
    found = math.isfinite(a) and math.isfinite(b)
    if not found:   # the root is beyond an infinite bound; keep the finite end
        lam = a if math.isfinite(a) else b
    elif score(a) <= 0:   # no sign change inside: clamp to the root's side
        lam = a
    elif score(b) >= 0:
        lam = b
    else:   # the absolute tolerance resolves a slope near 0 on its scale 1/W
        lam = brentq(score, a, b, xtol=_ROOT_RTOL / width, rtol=_ROOT_RTOL)
    try:
        log_norm = -density.with_params([lam]).logpdf(lo_t)   # h(lo) = 1/Z
    except ConstructionError:
        found, log_norm = False, math.inf
    x = np.array([lam])
    g = _projected_grad(np.array([-score(lam)]), x, lower, upper)
    converged = found and bool(abs(g[0]) < gtol)
    return x, lam * s1 + s0 * log_norm, converged, calls[0]


def fit_weighted_ml(data_t, weights, density: Density1D, init=None, bounds=None) -> FitResult:
    """Solve the weighted score equations for the shape parameters of ``density``.

    Weights may be negative (sWeights are).  An exponential is fitted as the
    root of its score over two weighted sums (:func:`_fit_exponential`, which
    needs no ``init``), a normal or a monomial by L-BFGS-B and the Newton
    polish; any other kind raises :class:`ConstructionError`.
    The hessian field holds :func:`_weighted_hessian` over the events of nonzero weight, and the
    covariance field the naive inverse of it, which is *not* a valid
    covariance for weighted data; use the wcov module to correct it.  It is
    ``CorrectedCovariance.naive`` bit for bit when no weight is 0 (else to
    rounding; the correction raises where ln h is infinite at a w = 0 event).
    """
    n_par = density.n_params
    if n_par == 0:
        raise ConstructionError(f"{density.kind} density has no parameters to fit")
    _check_fittable(density)
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
        try:
            return -(density.with_params(theta).dlogpdf(t) @ w)
        except ConstructionError:
            return np.zeros(n_par)

    # score scales with sum|w|; point estimate is scale-invariant
    gtol = GRAD_TOL_PER_EVENT * max(np.sum(np.abs(w)), 1.0)
    if density.kind == "exponential":
        x, fval, converged, n_calls = _fit_exponential(t, w, density, lower, upper, gtol)
    else:
        x, fval, converged, n_calls = _run_fit(
            nll, grad, init, lower, upper, gtol,
            lambda theta: -_weighted_hessian(density, t, w, theta))
    cov, hess, flags = _curvature(
        lambda th: _weighted_hessian(density, t, w, th), x, converged)
    names = [f"theta_{j}" for j in range(n_par)]
    return FitResult(params=x, covariance=cov, hessian=hess, nll=fval,
                     converged=converged, n_calls=n_calls,
                     param_names=names, flags=flags)


def numerical_hessian(objective, params, rel_step: float = 1e-5) -> np.ndarray:
    """Symmetric central-difference Hessian (n, n) + value shape of ``objective``
    at ``params``, step ``rel_step`` max(|x_k|, 1); raises EvaluationError naming
    a probe point where the objective is non-finite.  Used by no fit; kept
    public because the benchmark's tracer and reference recorder name it."""
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
