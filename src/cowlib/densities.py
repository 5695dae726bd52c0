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
    """Adaptive Gauss-Kronrod integral of ``f`` over ``iv``.

    A vector integrand, returning shape (k, len(x)), gives an array of k
    integrals from one shared partition.  Deterministic for identical
    inputs; raises
    :class:`~cowlib.errors.IntegrationError` (carrying the best estimate) if
    the absolute error target is not met.
    """
    return _integrate_raw(f, iv.lo, iv.hi, tol=tol, points=points)


class Density1D:
    """A normalized probability density on a finite interval.

    Supported kinds: ``uniform``, ``normal``, ``exponential``, ``monomial``,
    ``histogram``, ``mixture`` and ``table``.  All shapes are truncated and
    renormalized to their support.  Instances are immutable; use
    :meth:`with_params` to obtain a re-parameterized copy.
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
            if p.size != 1 or p[0] < 1:
                raise ConstructionError("monomial needs degree parameter k >= 1")
        elif k == "histogram":
            edges = np.asarray(self.data["edges"], dtype=float)
            contents = np.asarray(self.data["contents"], dtype=float)
            if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
                raise ConstructionError("histogram edges must be strictly increasing")
            if len(contents) != len(edges) - 1:
                raise ConstructionError("len(contents) must equal len(edges) - 1")
            if np.any(contents < 0) or contents.sum() <= 0:
                raise ConstructionError("histogram contents must be >= 0 with positive sum")
        elif k == "mixture":
            comps = self.data["components"]
            w = np.asarray(self.data["weights"], dtype=float)
            if len(comps) != len(w) or np.any(w < 0) or w.sum() <= 0:
                raise ConstructionError("mixture needs matching nonnegative weights")
        elif k == "table":
            xs = np.asarray(self.data["xs"], dtype=float)
            ys = np.asarray(self.data["ys"], dtype=float)
            if len(xs) != len(ys) or len(xs) < 2 or np.any(np.diff(xs) <= 0):
                raise ConstructionError("table needs increasing xs with matching ys")
            if np.any(ys < 0):
                raise ConstructionError("table values must be >= 0")
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
        if k == "table":
            return np.interp(x, self.data["xs"], self.data["ys"])
        raise AssertionError(k)

    def _raw_norm(self) -> float:
        k, p = self.kind, self.params
        lo, hi = self.support.lo, self.support.hi
        if k == "uniform":
            return p[1] - p[0]
        if k == "normal":
            mu, sigma = p
            a, b = (lo - mu) / sigma, (hi - mu) / sigma
            # in the upper tail the CDF difference cancels to 0: use the survival function
            mass = ndtr(-a) - ndtr(-b) if a > 0 else ndtr(b) - ndtr(a)
            return sigma * math.sqrt(2 * math.pi) * mass
        if k == "exponential":
            lam = p[0]
            if lam == 0:
                return hi - lo
            try:
                return (1.0 - math.exp(-lam * (hi - lo))) / lam
            except OverflowError:   # beyond the float range: caught in __init__
                return math.inf
        if k == "monomial":
            return 1.0  # k*u^(k-1)/width integrates to 1 exactly
        if k == "histogram":
            return float(np.sum(self.data["contents"]))
        if k == "mixture":
            return float(np.sum(self.data["weights"]))
        if k == "table":
            return float(np.trapezoid(self.data["ys"], self.data["xs"]))
        raise AssertionError(k)

    # -- evaluation -----------------------------------------------------------

    def pdf(self, x, extrapolate: bool = False):
        """Density values at ``x``; zero outside the support unless ``extrapolate``."""
        xa = np.asarray(x, dtype=float)
        inside = extrapolate or self.support.contains(xa)
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

    def __call__(self, x, extrapolate: bool = False):
        return self.pdf(x, extrapolate=extrapolate)

    def breakpoints(self) -> List[float]:
        """Interior points where the density is non-smooth."""
        lo, hi = self.support.lo, self.support.hi
        if self.kind == "uniform":
            return [p for p in self.params if lo < p < hi]
        if self.kind == "histogram":
            return [e for e in self.data["edges"] if lo < e < hi]
        if self.kind == "table":
            return [x for x in self.data["xs"] if lo < x < hi]
        if self.kind == "mixture":
            pts: List[float] = []
            for c in self.data["components"]:
                pts.extend(c.breakpoints())
            return sorted(set(pts))
        return []

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
            c = 1.0 - math.exp(-lam * (hi - lo))
            return lo - np.log1p(-u * c) / lam
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
        if self.kind == "histogram":
            d["edges"] = np.asarray(self.data["edges"]).tolist()
            d["contents"] = np.asarray(self.data["contents"]).tolist()
            if "sumw2" in self.data:
                d["sumw2"] = np.asarray(self.data["sumw2"]).tolist()
        elif self.kind == "table":
            d["xs"] = np.asarray(self.data["xs"]).tolist()
            d["ys"] = np.asarray(self.data["ys"]).tolist()
        elif self.kind == "mixture":
            d["weights"] = np.asarray(self.data["weights"]).tolist()
            d["components"] = [c.to_dict() for c in self.data["components"]]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Density1D":
        support = Interval.from_pair(d["support"])
        kind = d["kind"]
        data = None
        if kind == "histogram":
            data = {"edges": d["edges"], "contents": d["contents"]}
            if "sumw2" in d:
                data["sumw2"] = d["sumw2"]
        elif kind == "table":
            data = {"xs": d["xs"], "ys": d["ys"]}
        elif kind == "mixture":
            data = {"weights": d["weights"],
                    "components": [cls.from_dict(c) for c in d["components"]]}
        return cls(kind, d.get("params", []), support, data)


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
    Empty bins are floored by :func:`floor_empty_bins`, so the density is
    strictly positive everywhere on the support.  ``data['sumw2']`` holds the
    sums of squared weights per bin.
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
        raise ConstructionError("total weight must be positive")
    edges = np.linspace(support.lo, support.hi, bins + 1)
    contents, _ = np.histogram(samples, bins=edges, weights=weights)
    sumw2, _ = np.histogram(samples, bins=edges, weights=weights ** 2)
    return Density1D("histogram", [], support,
                     {"edges": edges, "contents": floor_empty_bins(contents), "sumw2": sumw2,
                      "n_dropped": n_dropped})


class EfficiencyMap:
    """Detection efficiency over the (m, t) plane; strictly positive.

    Either a rectangular grid of values or a closed-form callable.
    """

    def __init__(self, kind: str, *, m_edges=None, t_edges=None, values=None,
                 fn: Optional[Callable] = None):
        self.kind = kind
        if kind == "grid":
            self.m_edges = np.asarray(m_edges, dtype=float)
            self.t_edges = np.asarray(t_edges, dtype=float)
            self.values = np.asarray(values, dtype=float)
            if self.values.shape != (len(self.m_edges) - 1, len(self.t_edges) - 1):
                raise ConstructionError("grid values shape must match the edges")
            if np.any(self.values <= 0) or np.any(self.values > 1):
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

