"""Seeded pseudo-experiment generators and the ensemble runner.

Three study setups are provided: a simple factorising two-component model, a
three-component model with a discrete label and two 2-D control variables,
and a non-factorising background with a non-factorising efficiency.  The RNG
is the counter-based Philox generator; toy i of an ensemble uses the stream
keyed by base_seed + i, so ensembles are reproducible and trivially
parallel.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import wcov
from ._quadrature import gauss_legendre
from .densities import Density1D, EfficiencyMap, Interval
from .errors import CowlibError, ConstructionError, EvaluationError
from .methods import MethodSpec, apply_method, as_integer
from .mlfit import (FitResult, MixtureComponent, MixtureModel, fit_extended_ml,
                    fit_weighted_ml)

__all__ = [
    "ToySpec",
    "ToyDataset",
    "MethodSpec",
    "EnsembleConfig",
    "EnsembleReport",
    "generate_simple",
    "generate_multicomponent",
    "generate_nonfactorising",
    "run_ensemble",
    "worker_count",
    "M_SUPPORT",
    "T_SUPPORT",
    "TRUE_SLOPE",
]

M_SUPPORT = Interval(0.0, 1.0)
T_SUPPORT = Interval(0.0, 3.0)
TRUE_SLOPE = 2.0

# simple-study truth: signal peaks in m and falls exponentially in t,
# background falls exponentially in m and is normal in t
SIMPLE_TRUTH = {
    "sig_m": ("normal", [0.5, 0.08]),
    "bkg_m": ("exponential", [1.0]),
    "sig_t": ("exponential", [TRUE_SLOPE]),
    "bkg_t": ("normal", [1.5, 0.5]),
}

# couplings of the non-factorising study; zeros reduce it to the simple one
NONFACT_DEFAULTS = {
    "bkg_slope_t": 0.8,     # background slope in m grows with t
    "bkg_mean_m": 0.8,      # background t mean drifts with m
    "bkg_width_m": -0.2,    # background t width shrinks with m
    "eff_base": 0.3,
    "eff_m": 0.25,
    "eff_t": 0.15,
    "eff_mt": 0.25,         # cross term; breaks efficiency factorisation
}

MULTI_TRUTH = {
    "fractions": [0.3, 0.3, 0.4],
    "m": [("normal", [0.35, 0.06]), ("normal", [0.5, 0.10]), ("exponential", [1.5])],
    # (u, v) are flat except for one band per labelled component
    "band_u": ("normal", [0.6, 0.07]),   # component 0
    "band_v": ("normal", [0.4, 0.07]),   # component 1
}


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & (2 ** 64 - 1)))


def _density(kind_params, support) -> Density1D:
    kind, params = kind_params
    return Density1D(kind, params, support)


def _is_finite_real(value) -> bool:
    """A real number other than a bool, inf or nan."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


@dataclass
class ToySpec:
    """Configuration of one pseudo-experiment."""

    study: str
    n_events: int
    z: float = 0.2
    fractions: Optional[Sequence[float]] = None
    efficiency: bool = False
    seed: int = 0
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.study not in ("simple", "multicomponent", "nonfactorising"):
            raise ConstructionError(f"unknown study {self.study!r}")
        self.n_events = as_integer(self.n_events, "n_events", 1)
        self.seed = as_integer(self.seed, "seed")
        if not isinstance(self.efficiency, bool):
            raise ConstructionError(f"efficiency must be true or false, got {self.efficiency!r}")
        if not (isinstance(self.z, numbers.Real) and 0.0 <= self.z <= 1.0):
            raise ConstructionError(f"z must be a number in [0, 1], got {self.z!r}")
        if self.fractions is not None:
            try:
                f = np.asarray(self.fractions, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConstructionError(f"fractions must be a list of numbers: {exc}") from exc
            if f.ndim != 1 or not np.all(f >= 0) or abs(f.sum() - 1.0) > 1e-9:
                raise ConstructionError("fractions must be >= 0 and sum to 1")
        try:
            params = dict(self.params)   # a mapping or (key, value) pairs
        except (TypeError, ValueError) as exc:
            raise ConstructionError(f"params must map names to values, got {self.params!r}") from exc
        unknown = set(params) - set(NONFACT_DEFAULTS if self.study == "nonfactorising" else ())
        if unknown:
            raise ConstructionError(
                f"unknown params {sorted(unknown, key=str)} for study {self.study!r}; only "
                f"'nonfactorising' takes params, named in {sorted(NONFACT_DEFAULTS)}")
        for key, value in params.items():
            if not _is_finite_real(value):
                raise ConstructionError(f"params {key!r} must be a finite number, got {value!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["fractions"] is not None:
            d["fractions"] = list(np.asarray(d["fractions"], dtype=float))
        return d


@dataclass
class ToyDataset:
    """Generated sample: columns array, column names and true labels."""

    data: np.ndarray
    columns: List[str]
    labels: np.ndarray
    efficiency: Optional[EfficiencyMap] = None
    truth: Dict = field(default_factory=dict)

    @property
    def m(self) -> np.ndarray:
        return self.data[:, 0]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]


def simple_truth_densities():
    gs = _density(SIMPLE_TRUTH["sig_m"], M_SUPPORT)
    gb = _density(SIMPLE_TRUTH["bkg_m"], M_SUPPORT)
    hs = _density(SIMPLE_TRUTH["sig_t"], T_SUPPORT)
    hb = _density(SIMPLE_TRUTH["bkg_t"], T_SUPPORT)
    return gs, gb, hs, hb


def generate_simple(spec: ToySpec) -> ToyDataset:
    """Sample the factorising two-component model by inverse transforms."""
    rng = _rng(spec.seed)
    gs, gb, hs, hb = simple_truth_densities()
    n = spec.n_events
    is_sig = rng.random(n) < spec.z
    m = np.empty(n)
    t = np.empty(n)
    u_m = rng.random(n)
    u_t = rng.random(n)
    m[is_sig] = gs.ppf(u_m[is_sig])
    m[~is_sig] = gb.ppf(u_m[~is_sig])
    t[is_sig] = hs.ppf(u_t[is_sig])
    t[~is_sig] = hb.ppf(u_t[~is_sig])
    truth = {"z": spec.z, "gs": gs, "gb": gb, "hs": hs, "hb": hb,
             "slope": TRUE_SLOPE}
    return ToyDataset(np.column_stack([m, t]), ["m", "t"],
                      np.where(is_sig, 0, 1), truth=truth)


def generate_multicomponent(spec: ToySpec) -> ToyDataset:
    """Three components in m with a label and two bounded control variables."""
    rng = _rng(spec.seed)
    fr = np.asarray(spec.fractions if spec.fractions is not None
                    else MULTI_TRUTH["fractions"], dtype=float)
    if len(fr) != 3:
        raise ConstructionError("multicomponent study uses 3 fractions")
    dens_m = [_density(kp, M_SUPPORT) for kp in MULTI_TRUTH["m"]]
    uv_support = Interval(0.0, 1.0)
    band_u = _density(MULTI_TRUTH["band_u"], uv_support)
    band_v = _density(MULTI_TRUTH["band_v"], uv_support)
    flat = _density(("uniform", []), uv_support)

    n = spec.n_events
    c = rng.choice(3, size=n, p=fr)
    m = np.empty(n)
    u = np.empty(n)
    v = np.empty(n)
    ru = rng.random((3, n))
    for k in range(3):
        sel = c == k
        m[sel] = dens_m[k].ppf(ru[0, sel])
        du = band_u if k == 0 else flat
        dv = band_v if k == 1 else flat
        u[sel] = du.ppf(ru[1, sel])
        v[sel] = dv.ppf(ru[2, sel])
    truth = {"fractions": fr, "densities_m": dens_m}
    return ToyDataset(np.column_stack([m, c.astype(float), u, v]),
                      ["m", "c", "u", "v"], c, truth=truth)


def _rectangle_rule(n: int):
    """Nodes M, T and weights of the n x n Gauss-Legendre rule on the (m, t)
    rectangle; a sum of f(M, T) * weights integrates f over it."""
    x, w = gauss_legendre(n)
    mg = 0.5 * (M_SUPPORT.lo + M_SUPPORT.hi) + 0.5 * M_SUPPORT.width * x
    tg = 0.5 * (T_SUPPORT.lo + T_SUPPORT.hi) + 0.5 * T_SUPPORT.width * x
    M, T = np.meshgrid(mg, tg, indexing="ij")
    return M, T, np.outer(w, w) * (0.25 * M_SUPPORT.width * T_SUPPORT.width)


class _NonfactTruth:
    """Closed-form truth of the non-factorising study."""

    def __init__(self, params: Dict[str, float]):
        p = dict(NONFACT_DEFAULTS)
        p.update(params)
        self.p = p
        self.gs, _, self.hs, _ = simple_truth_densities()
        self.lam0 = SIMPLE_TRUTH["bkg_m"][1][0]
        self.mu0 = SIMPLE_TRUTH["bkg_t"][1][0]
        self.sig0 = SIMPLE_TRUTH["bkg_t"][1][1]
        self._bkg_norm = self._compute_bkg_norm()

    def bkg_unnorm(self, m, t):
        p = self.p
        lam = self.lam0 + p["bkg_slope_t"] * t
        mu = self.mu0 + p["bkg_mean_m"] * m
        sig = self.sig0 + p["bkg_width_m"] * m
        return np.exp(-lam * m) * np.exp(-0.5 * ((t - mu) / sig) ** 2)

    def _compute_bkg_norm(self) -> float:
        M, T, w2d = _rectangle_rule(120)
        return float(np.sum(self.bkg_unnorm(M, T) * w2d))

    def f_bkg(self, m, t):
        return self.bkg_unnorm(m, t) / self._bkg_norm

    def f_sig(self, m, t):
        return self.gs.pdf(m) * self.hs.pdf(t)

    def f_total(self, m, t, z):
        return z * self.f_sig(m, t) + (1.0 - z) * self.f_bkg(m, t)

    def eff(self, m, t):
        p = self.p
        tau = (np.asarray(t, dtype=float) - T_SUPPORT.lo) / T_SUPPORT.width
        return (p["eff_base"] + p["eff_m"] * np.asarray(m, dtype=float)
                + p["eff_t"] * tau + p["eff_mt"] * np.asarray(m, dtype=float) * tau)


def _grid_max(fn, n=201) -> float:
    """Maximum of fn over the (m, t) rectangle, refined around the coarse peak."""
    mg = np.linspace(M_SUPPORT.lo, M_SUPPORT.hi, n)
    tg = np.linspace(T_SUPPORT.lo, T_SUPPORT.hi, n)
    M, T = np.meshgrid(mg, tg, indexing="ij")
    V = fn(M, T)
    i, j = np.unravel_index(np.argmax(V), V.shape)
    best = V[i, j]
    dm = (mg[1] - mg[0])
    dt = (tg[1] - tg[0])
    for _ in range(3):
        mg2 = np.clip(np.linspace(mg[i] - dm, mg[i] + dm, 41), M_SUPPORT.lo, M_SUPPORT.hi)
        tg2 = np.clip(np.linspace(tg[j] - dt, tg[j] + dt, 41), T_SUPPORT.lo, T_SUPPORT.hi)
        M2, T2 = np.meshgrid(mg2, tg2, indexing="ij")
        V2 = fn(M2, T2)
        i2, j2 = np.unravel_index(np.argmax(V2), V2.shape)
        best = max(best, V2[i2, j2])
        mg, tg, i, j = mg2, tg2, i2, j2
        dm /= 10
        dt /= 10
    return float(best)


def _accept_reject_2d(rng, fn, n, envelope) -> Tuple[np.ndarray, np.ndarray]:
    """Sample n points from the unnormalized 2-D density fn on the rectangle."""
    if not (np.isfinite(envelope) and envelope > 0):
        # no point would ever be accepted
        raise EvaluationError(f"accept-reject envelope {envelope} is not a positive number")
    out_m = np.empty(0)
    out_t = np.empty(0)
    while len(out_m) < n:
        batch = max(2 * (n - len(out_m)), 1000)
        m = M_SUPPORT.lo + M_SUPPORT.width * rng.random(batch)
        t = T_SUPPORT.lo + T_SUPPORT.width * rng.random(batch)
        vals = fn(m, t)
        if np.any(vals > envelope):
            raise EvaluationError("accept-reject envelope violated (internal bug)")
        keep = rng.random(batch) * envelope < vals
        out_m = np.concatenate([out_m, m[keep]])
        out_t = np.concatenate([out_t, t[keep]])
    return out_m[:n], out_t[:n]


@dataclass(frozen=True)
class _NonfactSetup:
    """The seed-independent part of :func:`generate_nonfactorising`."""

    truth: _NonfactTruth
    eff: Callable
    det_sig: float
    det_bkg: float
    rho_sig: Callable
    rho_bkg: Callable
    env_sig: float
    env_bkg: float
    eff_map: Optional[EfficiencyMap]


def _nonfact_setup(params, use_eff: bool) -> _NonfactSetup:
    truth = _NonfactTruth(params)

    def eff(m, t):
        if use_eff:
            return truth.eff(m, t)
        return np.ones_like(np.asarray(m, dtype=float))

    # observed per-component normalizations under the efficiency
    M, T, w2d = _rectangle_rule(80)
    det_sig = float(np.sum(eff(M, T) * truth.f_sig(M, T) * w2d))
    det_bkg = float(np.sum(eff(M, T) * truth.f_bkg(M, T) * w2d))

    def rho_sig(m, t):
        return eff(m, t) * truth.f_sig(m, t)

    def rho_bkg(m, t):
        return eff(m, t) * truth.f_bkg(m, t)

    eff_map = EfficiencyMap.from_function(truth.eff) if use_eff else None
    return _NonfactSetup(truth, eff, det_sig, det_bkg, rho_sig, rho_bkg,
                         1.2 * _grid_max(rho_sig), 1.2 * _grid_max(rho_bkg),
                         eff_map)


@functools.lru_cache(maxsize=8)
def _cached_nonfact_setup(params: frozenset, use_eff: bool) -> _NonfactSetup:
    return _nonfact_setup(dict((k, v) for k, _, v in params), use_eff)


def _nonfact_setup_for(params, use_eff: bool) -> _NonfactSetup:
    """The set-up of a study, made once per process for every (params,
    efficiency); every toy of an ensemble shares it, truth object and
    efficiency map included, so they are read-only."""
    key = frozenset((k, type(v), v) for k, v in dict(params).items())
    return _cached_nonfact_setup(key, bool(use_eff))


def generate_nonfactorising(spec: ToySpec) -> ToyDataset:
    """Coupled background plus a smooth non-factorising efficiency.

    The returned dataset carries the exact efficiency map used and the truth
    callables, so tests can integrate the generator density directly.
    """
    rng = _rng(spec.seed)
    st = _nonfact_setup_for(spec.params, spec.efficiency)
    z = spec.z
    z_obs = z * st.det_sig / (z * st.det_sig + (1 - z) * st.det_bkg)

    n = spec.n_events
    is_sig = rng.random(n) < z_obs
    n_sig = int(np.sum(is_sig))
    m = np.empty(n)
    t = np.empty(n)
    m[is_sig], t[is_sig] = _accept_reject_2d(rng, st.rho_sig, n_sig, st.env_sig)
    m[~is_sig], t[~is_sig] = _accept_reject_2d(rng, st.rho_bkg, n - n_sig, st.env_bkg)

    D = z * st.det_sig + (1 - z) * st.det_bkg
    truth = st.truth
    info = {"z": z, "z_obs": z_obs, "slope": TRUE_SLOPE, "gs": truth.gs,
            "hs": truth.hs, "f_sig": truth.f_sig, "f_bkg": truth.f_bkg,
            "eff": st.eff, "D": D, "nonfact": truth}
    return ToyDataset(np.column_stack([m, t]), ["m", "t"],
                      np.where(is_sig, 0, 1), efficiency=st.eff_map, truth=info)


def generate(spec: ToySpec) -> ToyDataset:
    if spec.study == "simple":
        return generate_simple(spec)
    if spec.study == "multicomponent":
        return generate_multicomponent(spec)
    return generate_nonfactorising(spec)


# ---------------------------------------------------------------------------
# ensemble runner


# studies whose toys have the (m, t) columns the toy methods analyse
ANALYSED_STUDIES = ("simple", "nonfactorising")


@dataclass
class EnsembleConfig:
    toy: ToySpec
    methods: List[MethodSpec]
    n_toys: int
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.methods and self.toy.study not in ANALYSED_STUDIES:
            raise ConstructionError(
                f"study {self.toy.study!r} has no control variable t for the toy "
                f"methods to fit; use one of {ANALYSED_STUDIES}")
        if len({ms.name for ms in self.methods}) != len(self.methods):
            raise ConstructionError(f"duplicate method names in {[m.name for m in self.methods]}")
        for ms in self.methods:
            if ms.kind == "cow" and ms.variance == "qm" and ms.qm_bins > self.toy.n_events:
                raise ConstructionError(f"method {ms.name!r}: qm_bins {ms.qm_bins} exceeds "
                                        f"the {self.toy.n_events} events of a toy")

    def to_dict(self) -> dict:
        return {"toy": self.toy.to_dict(),
                "methods": [m.to_dict() for m in self.methods],
                "n_toys": self.n_toys, "base_seed": self.base_seed,
                "jobs": self.jobs}


MAX_FAILURE_FRACTION = 0.10


@dataclass
class EnsembleReport:
    config: dict
    seeds: List[int]
    records: List[dict]
    aggregates: Dict[str, dict]
    n_failed: int
    valid: bool

    def to_dict(self) -> dict:
        return {"config": self.config, "seeds": self.seeds,
                "records": self.records, "aggregates": self.aggregates,
                "n_failed": self.n_failed, "valid": self.valid}


def _fit_models(ds: ToyDataset, fit_shapes: set) -> Dict[bool, FitResult]:
    """Extended-ML fits of m from the simple-truth shapes, keyed by whether they float."""
    gs, gb, _, _ = simple_truth_densities()
    n = len(ds.m)
    return {free: fit_extended_ml(ds.m, MixtureModel(
                [MixtureComponent("s", gs, free), MixtureComponent("b", gb, free)],
                np.array([0.5 * n, 0.5 * n])))
            for free in sorted(fit_shapes, reverse=True)}


def _run_method(method: MethodSpec, ds: ToyDataset, fits: Dict[bool, FitResult]) -> dict:
    fit = fits[method.fit_shapes]
    if not fit.converged:
        raise EvaluationError("m fit did not converge")
    t = ds.column("t")
    weights = apply_method(method, fit, np.column_stack([ds.m, t]), ds.efficiency)
    w = weights.w
    truth_slope = ds.truth.get("slope", TRUE_SLOPE)

    hs = Density1D("exponential", [1.5], T_SUPPORT)
    tfit = fit_weighted_ml(t, w, hs, bounds=[(0.05, 20.0)])
    if not tfit.converged:
        raise EvaluationError("weighted t fit did not converge")
    theta = tfit.params

    sigma_naive = float(np.sqrt(tfit.covariance[0, 0])) if tfit.covariance is not None else np.nan
    corr = weights.covariance(hs, theta)
    sigma_corr = sigma_naive if corr is None else float(np.sqrt(corr.theta_block[0, 0]))

    est = float(theta[0])
    return {
        "ok": True,
        "estimate": est,
        "sigma_corr": sigma_corr,
        "sigma_naive": sigma_naive,
        "pull": (est - truth_slope) / sigma_corr,
        "pull_naive": (est - truth_slope) / sigma_naive if np.isfinite(sigma_naive) else np.nan,
        "sum_w": float(np.sum(w)),
        "sum_w2": float(np.sum(w ** 2)),
        "neq": wcov.equivalent_events(w),
        "covered68": bool(abs(est - truth_slope) <= sigma_corr),
    }


def _fit_summary(fit: Optional[FitResult]) -> Optional[dict]:
    if fit is None:
        return None
    cov = fit.covariance
    return {
        "N_s": float(fit.params[0]),
        "N_b": float(fit.params[1]),
        "sigma_N_s": float(np.sqrt(cov[0, 0])) if cov is not None else np.nan,
        "sigma_N_b": float(np.sqrt(cov[1, 1])) if cov is not None else np.nan,
        "converged": bool(fit.converged),
    }


def run_toy(config: EnsembleConfig, index: int) -> dict:
    """Generate and analyse toy ``index``; pure given (config, index)."""
    seed = config.base_seed + index
    spec = ToySpec(**{**config.toy.to_dict(), "seed": seed})
    record = {"toy": index, "seed": seed, "ok": True, "methods": {}}
    try:
        ds = generate(spec)
        fits = _fit_models(ds, {ms.fit_shapes for ms in config.methods})
        record["fit_free"] = _fit_summary(fits.get(True))
        record["fit_yields_only"] = _fit_summary(fits.get(False))
        record["n"] = spec.n_events
        for ms in config.methods:
            try:
                record["methods"][ms.name] = _run_method(ms, ds, fits)
            except (CowlibError, np.linalg.LinAlgError) as exc:
                record["methods"][ms.name] = {"ok": False, "error": str(exc)}
        if not all(v.get("ok") for v in record["methods"].values()):
            record["ok"] = False
    except (CowlibError, np.linalg.LinAlgError) as exc:
        record["ok"] = False
        record["error"] = str(exc)
    return record


def _aggregate(records: List[dict], method_names: Sequence[str]) -> Dict[str, dict]:
    out = {}
    for name in method_names:
        rows = [r["methods"][name] for r in records
                if r.get("methods", {}).get(name, {}).get("ok")]
        if not rows:
            out[name] = {"n_ok": 0}
            continue
        pulls = np.array([r["pull"] for r in rows])
        ests = np.array([r["estimate"] for r in rows])
        out[name] = {
            "n_ok": len(rows),
            "mean_estimate": float(ests.mean()),
            "bias": float(ests.mean() - TRUE_SLOPE),
            "mean_pull": float(pulls.mean()),
            "pull_width": float(pulls.std(ddof=1)) if len(rows) > 1 else np.nan,
            "mean_pull_naive": float(np.nanmean([r["pull_naive"] for r in rows])),
            "pull_width_naive": (float(np.nanstd([r["pull_naive"] for r in rows], ddof=1))
                                 if len(rows) > 1 else np.nan),
            "coverage68": float(np.mean([r["covered68"] for r in rows])),
            "mean_sum_w": float(np.mean([r["sum_w"] for r in rows])),
            "mean_sum_w2": float(np.mean([r["sum_w2"] for r in rows])),
            "mean_neq": float(np.mean([r["neq"] for r in rows])),
        }
    return out


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(jobs: int, n_toys: int) -> int:
    """Worker processes for an ensemble: ``jobs`` capped by toys and usable CPUs."""
    return max(1, min(jobs, n_toys, usable_cpus()))


def run_ensemble(config: EnsembleConfig) -> EnsembleReport:
    """Run n_toys independent pseudo-experiments and aggregate the results.

    Toy i uses seed base_seed + i; failed toys are flagged and kept in the
    records.  The report is invalid if more than 10% of toys failed.
    """
    if config.n_toys < 1:
        raise ConstructionError("n_toys must be >= 1")
    indices = list(range(config.n_toys))
    workers = worker_count(config.jobs, config.n_toys)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_toy_star, [(config, i) for i in indices]))
    else:
        records = [run_toy(config, i) for i in indices]
    records.sort(key=lambda r: r["toy"])
    n_failed = sum(1 for r in records if not r["ok"])
    names = [ms.name for ms in config.methods]
    aggregates = _aggregate(records, names)
    valid = n_failed <= MAX_FAILURE_FRACTION * config.n_toys
    return EnsembleReport(config=config.to_dict(),
                          seeds=[config.base_seed + i for i in indices],
                          records=records, aggregates=aggregates,
                          n_failed=n_failed, valid=valid)


def _run_toy_star(args):
    return run_toy(*args)
