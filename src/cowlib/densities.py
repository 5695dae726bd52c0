"""One-dimensional densities, histograms and efficiency maps.

Everything downstream (weight matrices, fits, toy generation) is built on the
:class:`Density1D` primitive: a normalized probability density on a finite
interval with vectorized pointwise evaluation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from ._quadrature import integrate as _integrate_raw
from .errors import ConstructionError, EvaluationError

__all__ = [
    "Interval",
    "Density1D",
    "EfficiencyMap",
    "integrate",
    "make_density",
    "monomial_basis",
    "histogram_density",
    "floor_empty_bins",
]


@dataclass(frozen=True)
class Interval:
    """A finite interval lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ConstructionError("interval bounds must be finite")
        if not self.lo < self.hi:
            raise ConstructionError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @classmethod
    def from_pair(cls, value) -> "Interval":
        """The interval of a config ``support``: ``[lo, hi]``, two numbers
        (not booleans) with lo < hi."""
        if (not isinstance(value, (list, tuple)) or len(value) != 2
                or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                           for v in value)):
            raise ConstructionError(f"'support' must be [lo, hi], got {value!r}")
        try:
            return cls(float(value[0]), float(value[1]))
        except (ConstructionError, OverflowError) as exc:
            raise ConstructionError(f"bad 'support' {value!r}: {exc}") from exc

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x >= self.lo) & (x <= self.hi)

    def as_tuple(self):
        return (self.lo, self.hi)


def integrate(f: Callable, iv: Interval, tol: float = 1e-9,
              points: Optional[Sequence[float]] = None):
    """Integral of ``f`` over ``iv`` by :func:`cowlib._quadrature.integrate`,
    the fixed rule on the panels between ``points``, checked against every
    panel halved.  Pass the :meth:`Density1D.breakpoints` of the densities
    in ``f``: without ``points``, a narrow peak in ``iv`` may integrate to 0
    with no error."""
    return _integrate_raw(f, iv.lo, iv.hi, tol=tol, points=points)


def _bin_edges(edges, what: str) -> np.ndarray:
    """``edges`` as an array of bin edges: 1-D, at least two, finite and
    strictly increasing, else :class:`ConstructionError` naming ``what``."""
    edges = np.asarray(edges, dtype=float)
    if (edges.ndim != 1 or len(edges) < 2 or not np.all(np.isfinite(edges))
            or np.any(np.diff(edges) <= 0)):
        raise ConstructionError(f"{what} must be finite and strictly increasing")
    return edges


class Density1D:
    """A normalized probability density on a finite interval.

    Supported kinds: ``uniform``, ``normal``, ``exponential``, ``monomial``,
    ``histogram`` and ``mixture``.  The parametric shapes are truncated and
    renormalized to their support; a histogram's edges must run from one
    end of the support to the other, and a mixture's components must have
    its support.  Instances are immutable; use :meth:`with_params` to
    obtain a re-parameterized copy.
    """

    def __init__(self, kind: str, params, support: Interval, data: Optional[dict] = None):
        self.kind = kind
        self.params = np.atleast_1d(np.asarray(params, dtype=float))
        if self.params.ndim != 1:
            raise ConstructionError(f"{kind} params must be a flat list, got shape {self.params.shape}")
        self.support = support
        self.data = data or {}
        self._validate()
        self._norm = self._raw_norm()
        if not (np.isfinite(self._norm) and self._norm > 0):
            raise ConstructionError(
                f"{kind} density has no finite positive normalization on {support.as_tuple()}")

    # -- construction helpers -------------------------------------------------

    def _validate(self):
        lo, hi = self.support.lo, self.support.hi
        k, p = self.kind, self.params
        if k == "uniform":
            if p.size == 0:
                self.params = p = np.array([lo, hi])
            if p.size != 2 or not p[0] < p[1]:
                raise ConstructionError("uniform needs params [a, b] with a < b")
            if p[0] < lo - 1e-12 or p[1] > hi + 1e-12:
                raise ConstructionError("uniform range must lie inside the support")
        elif k == "normal":
            if p.size != 2 or p[1] <= 0:
                raise ConstructionError("normal needs params [mu, sigma] with sigma > 0")
        elif k == "exponential":
            if p.size != 1 or not np.isfinite(p[0]):
                raise ConstructionError("exponential needs a single finite slope")
        elif k == "monomial":
            if p.size != 1 or not 1 <= p[0] < math.inf:
                raise ConstructionError(f"monomial needs a finite degree k >= 1, got {p.tolist()}")
        elif k == "histogram":
            edges = _bin_edges(self.data["edges"], "histogram edges")
            if edges[0] != lo or edges[-1] != hi:
                raise ConstructionError(f"histogram edges run from {edges[0]:g} to {edges[-1]:g},"
                                        f" not over the support {self.support.as_tuple()}")
            contents = np.asarray(self.data["contents"], dtype=float)
            if len(contents) != len(edges) - 1:
                raise ConstructionError("len(contents) must equal len(edges) - 1")
            if np.any(contents < 0) or contents.sum() <= 0:
                raise ConstructionError("histogram contents must be >= 0 with positive sum")
        elif k == "mixture":
            comps = self.data["components"]
            w = np.asarray(self.data["weights"], dtype=float)
            if len(comps) != len(w) or np.any(w < 0) or w.sum() <= 0:
                raise ConstructionError("mixture needs matching nonnegative weights")
            if any(c.support != self.support for c in comps):
                raise ConstructionError("mixture components must have the mixture's 'support'"
                                        f" {self.support.as_tuple()}")
        else:
            raise ConstructionError(f"unknown density kind {k!r}")

    def _raw(self, x: np.ndarray) -> np.ndarray:
        """Unnormalized shape, defined on the whole real line."""
        k, p = self.kind, self.params
        lo, hi = self.support.lo, self.support.hi
        if k == "uniform":
            return ((x >= p[0]) & (x <= p[1])).astype(float)
        if k == "normal":
            return np.exp(-0.5 * ((x - p[0]) / p[1]) ** 2)
        if k == "exponential":
            return np.exp(-p[0] * (x - lo))
        if k == "monomial":
            u = (x - lo) / (hi - lo)
            kk = p[0]
            with np.errstate(invalid="ignore"):
                out = kk * np.where(u > 0, u, 0.0) ** (kk - 1.0)
            if kk == 1.0:
                out = np.full_like(np.asarray(u, dtype=float), 1.0)
            return out / (hi - lo)
        if k == "histogram":
            edges = np.asarray(self.data["edges"], dtype=float)
            contents = np.asarray(self.data["contents"], dtype=float)
            heights = contents / np.diff(edges)
            idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(contents) - 1)
            return heights[idx]
        if k == "mixture":
            w = np.asarray(self.data["weights"], dtype=float)
            return sum(wi * c.pdf(x) for wi, c in zip(w, self.data["components"]))
        raise AssertionError(k)

    def _raw_norm(self) -> float:
        k, p = self.kind, self.params
        lo, hi = self.support.lo, self.support.hi
        if k == "uniform":
            return p[1] - p[0]
        if k == "normal":
            mu, sigma = p
            return sigma * _SQRT_2PI * _normal_mass((lo - mu) / sigma, (hi - mu) / sigma)
        if k == "exponential":
            lam = p[0]
            if lam == 0:
                return hi - lo
            try:
                return _exponential_mass(lam * (hi - lo)) / lam
            except OverflowError:   # beyond the float range: caught in __init__
                return math.inf
        if k == "monomial":
            return 1.0  # k*u^(k-1)/width integrates to 1 exactly
        if k == "histogram":
            return float(np.sum(self.data["contents"]))
        if k == "mixture":
            return float(np.sum(self.data["weights"]))
        raise AssertionError(k)

    # -- evaluation -----------------------------------------------------------

    def pdf(self, x):
        """Density values at ``x``; zero outside the support."""
        xa = np.asarray(x, dtype=float)
        inside = self.support.contains(xa)
        if np.all(inside):
            out = self._raw(xa) / self._norm
        else:   # the raw shape may overflow far outside the support
            out = np.zeros(xa.shape)
            out[inside] = self._raw(xa[inside]) / self._norm
        if np.isscalar(x):
            return float(out)
        return out

    def logpdf(self, x):
        p = np.asarray(self.pdf(x), dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(p)

    def __call__(self, x):
        return self.pdf(x)

    # -- closed-form parameter derivatives of ln pdf ---------------------------
    # ``_DIFFERENTIABLE_KINDS`` only (they raise for every other kind), valid
    # at points inside the support.  A normal's ln pdf is -z^2/2 -
    # ln(sigma) - ln(sqrt(2 pi) M) with z = (x - mu)/sigma and M the mass on
    # the support; an exponential's is -lam u - ln Z(lam) with u = x - lo,
    # whose score is E_lam[u] - u and whose second derivative is -Var_lam(u);
    # a monomial's is ln k + (k - 1) ln u - ln W with u = (x - lo)/W, whose
    # score is 1/k + ln u and whose second derivative is -1/k^2.

    def _normal_ends(self):
        """(sigma, a, b, r_a, r_b): the standardized support ends and phi at
        each over the mass between them."""
        mu, sigma = self.params
        a, b = (self.support.lo - mu) / sigma, (self.support.hi - mu) / sigma
        log_c = math.log(_SQRT_2PI * _normal_mass(a, b))
        return sigma, a, b, math.exp(-0.5 * a * a - log_c), math.exp(-0.5 * b * b - log_c)

    def dlogpdf(self, x) -> np.ndarray:
        """d ln pdf / d params at ``x``, shape (n_params,) + x.shape."""
        x = np.asarray(x, dtype=float)
        if self.kind not in _DIFFERENTIABLE_KINDS:
            raise EvaluationError(f"no closed-form derivatives for a {self.kind} density")
        if self.kind == "exponential":
            lo, width = self.support.lo, self.support.width
            return (_exponential_mean(self.params[0], width) - (x - lo))[None]
        if self.kind == "monomial":
            # ln u is taken as 0 at u = 0, where the pdf is 0 for k > 1, so the
            # score stays finite and pdf * score is 0, not nan
            u = (x - self.support.lo) / self.support.width
            log_u = np.log(u, out=np.zeros_like(u), where=u > 0)
            return (1.0 / self.params[0] + log_u)[None]
        sigma, a, b, ra, rb = self._normal_ends()
        z = (x - self.params[0]) / sigma
        return np.stack([(z - (ra - rb)) / sigma, (z * z - 1.0 - (a * ra - b * rb)) / sigma])

    def d2logpdf(self, x) -> np.ndarray:
        """d^2 ln pdf / d params^2 at ``x``, shape (n_params, n_params) + x.shape."""
        x = np.asarray(x, dtype=float)
        if self.kind not in _DIFFERENTIABLE_KINDS:
            raise EvaluationError(f"no closed-form derivatives for a {self.kind} density")
        if self.kind == "exponential":
            var = _exponential_variance(self.params[0], self.support.width)
            return np.full((1, 1) + x.shape, -var)
        if self.kind == "monomial":
            return np.full((1, 1) + x.shape, -1.0 / self.params[0] ** 2)
        sigma, a, b, ra, rb = self._normal_ends()
        # sigma times the mass's log-derivatives, then sigma^2 times its second ones
        l_mu, l_s = ra - rb, a * ra - b * rb
        l_mumu = l_s - l_mu * l_mu
        l_mus = a * a * ra - b * b * rb - l_mu - l_mu * l_s
        l_ss = a ** 3 * ra - b ** 3 * rb - 2.0 * l_s - l_s * l_s
        z = (x - self.params[0]) / sigma
        out = np.empty((2, 2) + x.shape)
        out[0, 0] = -(1.0 + l_mumu) / sigma ** 2
        out[0, 1] = out[1, 0] = -(2.0 * z + l_mus) / sigma ** 2
        out[1, 1] = (1.0 - 3.0 * z * z - l_ss) / sigma ** 2
        return out

    def breakpoints(self) -> List[float]:
        """The interior points a quadrature panel must end at, so that no
        panel misses a narrow peak: where the density is non-smooth, a
        normal's mu + k sigma, multiples of 1/|lam| from the steep end of an
        exponential (or a normal's tail when mu lies outside), and panels
        halving toward lo for a monomial of non-integer degree."""
        lo, hi = self.support.lo, self.support.hi
        k, p = self.kind, self.params
        pts: Sequence[float] = []
        if k == "uniform":
            pts = p
        elif k == "histogram":
            pts = self.data["edges"]
        elif k == "normal":
            mu, sigma = p
            pts = np.append(mu + sigma * _NORMAL_PANEL_STEPS,
                            self._steep_end((min(max(mu, lo), hi) - mu) / sigma ** 2))
        elif k == "exponential":
            pts = self._steep_end(p[0])
        elif k == "monomial" and p[0] % 1:
            pts = lo + (hi - lo) * _MONOMIAL_PANEL_STEPS
        elif k == "mixture":
            pts = [q for c in self.data["components"] for q in c.breakpoints()]
        return sorted({float(q) for q in pts if lo < q < hi})

    def _steep_end(self, lam: float) -> np.ndarray:
        """Panel ends for a shape that falls like e^(-lam (x - lo)), from
        the end it is steep at (none for lam = 0)."""
        if lam == 0:
            return np.empty(0)
        steps = _EXPONENTIAL_PANEL_STEPS / abs(lam)
        return self.support.lo + steps if lam > 0 else self.support.hi - steps

    def with_params(self, params) -> "Density1D":
        return Density1D(self.kind, params, self.support, self.data)

    @property
    def n_params(self) -> int:
        return len(self.params)

    # -- sampling -------------------------------------------------------------

    def ppf(self, u):
        """Inverse CDF on the support; used for inverse-transform sampling.

        The result is clipped to the support: a far tail whose CDF
        underflows would otherwise invert to +-inf.
        """
        with np.errstate(divide="ignore"):
            x = self._ppf(np.asarray(u, dtype=float))
        return np.clip(x, self.support.lo, self.support.hi)

    def _ppf(self, u: np.ndarray):
        lo, hi = self.support.lo, self.support.hi
        k, p = self.kind, self.params
        if k == "uniform":
            return p[0] + u * (p[1] - p[0])
        if k == "normal":
            mu, sigma = p
            a, b = (lo - mu) / sigma, (hi - mu) / sigma
            if a > 0:  # upper tail: the branch below, mirrored onto the survival function
                qa, qb = ndtr(-a), ndtr(-b)
                return mu - sigma * ndtri(qb + (1.0 - u) * (qa - qb))
            pa, pb = ndtr(a), ndtr(b)
            return mu + sigma * ndtri(pa + u * (pb - pa))
        if k == "exponential":
            lam = p[0]
            if lam == 0:
                return lo + u * (hi - lo)
            return lo - np.log1p(-u * _exponential_mass(lam * (hi - lo))) / lam
        if k == "monomial":
            return lo + (hi - lo) * u ** (1.0 / p[0])
        if k == "histogram":
            edges = np.asarray(self.data["edges"], dtype=float)
            contents = np.asarray(self.data["contents"], dtype=float)
            cum = np.concatenate([[0.0], np.cumsum(contents)]) / contents.sum()
            idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(contents) - 1)
            frac = (u - cum[idx]) / np.maximum(cum[idx + 1] - cum[idx], 1e-300)
            return edges[idx] + frac * np.diff(edges)[idx]
        raise EvaluationError(f"ppf not available for kind {self.kind!r}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "mixture":
            w = np.asarray(self.data["weights"], dtype=float)
            w = w / w.sum()
            counts = rng.multinomial(n, w)
            parts = [c.sample(rng, int(m)) for c, m in zip(self.data["components"], counts)]
            out = np.concatenate(parts) if parts else np.empty(0)
            rng.shuffle(out)
            return out
        return np.asarray(self.ppf(rng.random(n)), dtype=float)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "params": self.params.tolist(),
             "support": list(self.support.as_tuple())}
        for key in _DATA_KEYS.get(self.kind, ()):
            if key == "components":
                d[key] = [c.to_dict() for c in self.data[key]]
            elif key in self.data:
                d[key] = np.asarray(self.data[key]).tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Density1D":
        support = Interval.from_pair(d["support"])
        kind = d["kind"]
        keys = _DATA_KEYS.get(kind, ()) if isinstance(kind, str) else ()
        data = {key: d[key] for key in keys if key in d}
        if "components" in data:   # on the mixture's support unless they name it
            data["components"] = [cls.from_dict({"support": d["support"], **c})
                                  for c in data["components"]]
        return cls(kind, d.get("params", []), support, data)


_SQRT_2PI = math.sqrt(2 * math.pi)
# the data keys of each data-defined kind, in their serialized order
_DATA_KEYS = {"histogram": ("edges", "contents", "sumw2"), "mixture": ("weights", "components")}
_DIFFERENTIABLE_KINDS = ("normal", "exponential", "monomial")   # have dlogpdf, d2logpdf
# quadrature panel ends, in sigmas from a normal's mean, in 1/|lam| from an
# exponential's steep end and in widths from a monomial's lower end
_NORMAL_PANEL_STEPS = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
_EXPONENTIAL_PANEL_STEPS = 2.0 ** np.arange(-1, 7)
_MONOMIAL_PANEL_STEPS = 2.0 ** -np.arange(1, 51)
_SERIES_LIMIT = 0.05   # |lam W| below which the exponential moments are series


def _normal_mass(a: float, b: float) -> float:
    """Standard normal mass on [a, b]."""
    # in the upper tail the CDF difference cancels to 0: use the survival function
    return ndtr(-a) - ndtr(-b) if a > 0 else ndtr(b) - ndtr(a)


def _exponential_mass(x: float) -> float:
    """1 - e^-x, with x = lam W: through expm1 below |x| = ``_SERIES_LIMIT``,
    where the difference cancels (to 0 at |x| < 1.1e-16)."""
    return -math.expm1(-x) if abs(x) < _SERIES_LIMIT else 1.0 - math.exp(-x)


def _exponential_mean(lam: float, width: float) -> float:
    """E[t - lo] under the exponential of slope ``lam`` truncated to a
    support [lo, lo + width]: 1/lam - W/expm1(lam W).

    Below |lam W| = ``_SERIES_LIMIT`` the two terms cancel, and their
    series W (1/2 - x/12 + x^3/720 - x^5/30240), x = lam W, is used instead
    (truncation error < 2e-15 relative).  Where expm1 overflows the second
    term is below 1e-300 and the mean is 1/lam.
    """
    x = lam * width
    if abs(x) < _SERIES_LIMIT:
        x2 = x * x
        return width * (0.5 - x / 12.0 * (1.0 - x2 / 60.0 * (1.0 - x2 / 42.0)))
    try:
        return 1.0 / lam - width / math.expm1(x)
    except OverflowError:
        return 1.0 / lam


def _exponential_variance(lam: float, width: float) -> float:
    """Var[t - lo] under the same exponential: 1/lam^2 - W^2 e^x/expm1(x)^2.

    Below |x| = ``_SERIES_LIMIT`` it is the series W^2 (1/12 - x^2/240 +
    x^4/6048 - x^6/172800) (truncation error < 1e-16 relative); above, the
    two terms cancel to at most 4800 eps relative.  Where expm1 overflows
    the variance is 1/lam^2.
    """
    x = lam * width
    if abs(x) < _SERIES_LIMIT:
        x2 = x * x
        return width * width / 12.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 25.2 * (1.0 - x2 * 0.035)))
    try:
        return 1.0 / (lam * lam) - width * width / (math.expm1(x) * -math.expm1(-x))
    except OverflowError:
        return 1.0 / (lam * lam)


def make_density(kind: str, params, support: Interval, data: Optional[dict] = None) -> Density1D:
    """Build a normalized :class:`Density1D`; raises on invalid parameters."""
    return Density1D(kind, params, support, data)


def monomial_basis(n: int, support: Optional[Interval] = None) -> List[Density1D]:
    """Monomial densities k*u^(k-1), k = 1..n, affine-remapped to ``support``.

    Element 1 is the uniform density; every element integrates to 1 exactly.
    """
    if n < 1:
        raise ConstructionError("monomial basis needs n >= 1")
    iv = support or Interval(0.0, 1.0)
    return [Density1D("monomial", [k], iv) for k in range(1, n + 1)]


# Relative floor applied to empty histogram bins so densities built from
# histograms stay strictly positive (downstream code divides by them).
ZERO_BIN_FLOOR = 1e-3


def floor_empty_bins(contents) -> np.ndarray:
    """Histogram contents with every bin <= 0 raised to ``ZERO_BIN_FLOOR``
    times the smallest positive bin of its row (the last axis).

    Raises :class:`~cowlib.errors.ConstructionError` when a row has no
    positive bin.
    """
    contents = np.asarray(contents, dtype=float)
    filled = contents > 0
    if not np.all(filled.any(axis=-1)):
        raise ConstructionError("histogram has no positive bin")
    floor = np.where(filled, contents, np.inf).min(axis=-1, keepdims=True)
    return np.where(filled, contents, floor * ZERO_BIN_FLOOR)


def histogram_density(samples, weights, bins: int, support: Interval) -> Density1D:
    """Piecewise-constant density estimate from weighted samples.

    Out-of-range samples are dropped (count available as ``data['n_dropped']``).
    The contents are divided by their total and ``data['sumw2']``, the sums
    of squared weights per bin, by its square; then empty bins are floored by
    :func:`floor_empty_bins`, so the density is strictly positive everywhere
    on the support.  Raises :class:`~cowlib.errors.ConstructionError` when
    the weights inside the support do not sum to a positive total.
    """
    samples = np.asarray(samples, dtype=float)
    weights = np.ones_like(samples) if weights is None else np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights)):
        raise ConstructionError("weights must be finite")
    if bins < 1:
        raise ConstructionError("bins must be >= 1")
    inside = support.contains(samples)
    n_dropped = int(np.sum(~inside))
    samples, weights = samples[inside], weights[inside]
    if weights.sum() <= 0:
        raise ConstructionError(f"no event inside the support {support.as_tuple()}, or their "
                                "total weight is not positive: the histogram is empty")
    edges = np.linspace(support.lo, support.hi, bins + 1)
    contents, _ = np.histogram(samples, bins=edges, weights=weights)
    sumw2, _ = np.histogram(samples, bins=edges, weights=weights ** 2)
    total = float(np.sum(contents))
    return Density1D("histogram", [], support,
                     {"edges": edges, "contents": floor_empty_bins(contents / total),
                      "sumw2": sumw2 / total ** 2, "n_dropped": n_dropped})


class EfficiencyMap:
    """Detection efficiency over the (m, t) plane; strictly positive.

    Either a rectangular grid of values or a closed-form callable.
    """

    def __init__(self, kind: str, *, m_edges=None, t_edges=None, values=None,
                 fn: Optional[Callable] = None):
        self.kind = kind
        if kind == "grid":
            self.m_edges = _bin_edges(m_edges, "m_edges")
            self.t_edges = _bin_edges(t_edges, "t_edges")
            self.values = np.asarray(values, dtype=float)
            if self.values.shape != (len(self.m_edges) - 1, len(self.t_edges) - 1):
                raise ConstructionError("grid values shape must match the edges")
            if not np.all((self.values > 0) & (self.values <= 1)):   # nan fails too
                raise ConstructionError("efficiency values must lie in (0, 1]")
            self._fn = None
        elif kind == "formula":
            if fn is None:
                raise ConstructionError("formula efficiency needs a callable")
            self._fn = fn
        else:
            raise ConstructionError(f"unknown efficiency kind {kind!r}")

    @classmethod
    def from_grid(cls, m_edges, t_edges, values) -> "EfficiencyMap":
        return cls("grid", m_edges=m_edges, t_edges=t_edges, values=values)

    @classmethod
    def from_function(cls, fn: Callable) -> "EfficiencyMap":
        return cls("formula", fn=fn)

    def __call__(self, m, t):
        m = np.asarray(m, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == "formula":
            return np.asarray(self._fn(m, t), dtype=float)
        i = np.clip(np.searchsorted(self.m_edges, m, side="right") - 1,
                    0, self.values.shape[0] - 1)
        j = np.clip(np.searchsorted(self.t_edges, t, side="right") - 1,
                    0, self.values.shape[1] - 1)
        return self.values[i, j]

    def to_dict(self) -> dict:
        if self.kind != "grid":
            raise EvaluationError("only grid efficiency maps are serializable")
        return {"m_edges": self.m_edges.tolist(), "t_edges": self.t_edges.tolist(),
                "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "EfficiencyMap":
        return cls.from_grid(d["m_edges"], d["t_edges"], d["values"])

