"""Command-line entry point.

Subcommands: fit, sweights, cow, correct, check-independence, toys and
pipeline.  Configuration is JSON; tabular input and output are CSV with the
convention that the first column is the discriminating variable m and the
second, when present, the control variable t.  Every output embeds the
sha256 hash of the fully-resolved config and the seed in effect, so reruns
with identical inputs are bit-identical.  The environment variable
COWLIB_SEED overrides any config seed.

Exit codes: 0 success, 1 input error, 2 numerical non-convergence,
3 invalid ensemble.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import warnings
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from ._g17 import format_rows
from .cows import efficiency_corrected_weights
from .densities import Density1D, EfficiencyMap, Interval, monomial_basis
from .diagnostics import kendall_tau
from .errors import ConstructionError, CowlibError, EvaluationError
from .methods import (MAX_POLY_ORDER, MethodSpec, apply_method, as_integer, control_fit,
                      variance_cow)
from .mlfit import MixtureComponent, MixtureModel, fit_extended_ml
from .toygen import EnsembleConfig, ToySpec, generate, run_ensemble
from .wcov import corrected_covariance_fixed_shapes, equivalent_events

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGENCE = 2
EXIT_INVALID_ENSEMBLE = 3


class CliInputError(Exception):
    """Bad config, missing file or malformed data; maps to exit code 1."""


# ---------------------------------------------------------------------------
# serialization helpers

def _to_builtin(obj):
    """``json.dumps`` hook: numpy arrays and scalars as Python builtins."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_to_builtin)


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(canonical_json(resolved).encode()).hexdigest()


def _write_json(path: Optional[str], obj: dict):
    text = canonical_json(obj)
    if path is None:
        print(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc


def _is_numeric(row: List[str]) -> bool:
    try:
        for v in row:
            float(v)
    except ValueError:
        return False
    return True


def _bad_row_error(path: str, names: Optional[List[str]], cause) -> CliInputError:
    """Rescan a file the fast parser rejected, naming the first bad line."""
    width = None if names is None else len(names)
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and names is not None):
                continue
            if not _is_numeric(row):
                return CliInputError(f"{path}: malformed CSV row at line {lineno}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                return CliInputError(f"{path}: wrong column count at line {lineno}")
    return CliInputError(f"{path}: malformed CSV: {cause}")


def read_csv(path: str, min_cols: int = 1) -> Tuple[List[str], np.ndarray]:
    """Read a numeric CSV; a non-numeric first row is taken as the header.

    Blank lines are skipped; values may be quoted or space-padded.  Raises
    :class:`CliInputError` naming the 1-based line of any malformed row or
    wrong column count.
    """
    names = None
    try:
        with open(path, newline="") as fh:
            first = next(csv.reader([fh.readline()]), [])
            if first and not _is_numeric(first):
                names = [v.strip() for v in first]
            else:
                fh.seek(0)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                    data = np.loadtxt(fh, dtype=float, delimiter=",", comments=None,
                                      quotechar='"', ndmin=2)
            except ValueError as exc:
                raise _bad_row_error(path, names, exc) from exc
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(f"{path}: not a text file: {exc}") from exc
    if data.shape[0] == 0:
        raise CliInputError(f"{path}: no data rows")
    if names is not None and data.shape[1] != len(names):
        raise _bad_row_error(path, names, f"{len(names)} names, {data.shape[1]} columns")
    if data.shape[1] < min_cols:
        raise CliInputError(f"{path}: need at least {min_cols} columns, found {data.shape[1]}")
    if names is None:
        names = ["m", "t"][: data.shape[1]] + [f"c{i}" for i in range(2, data.shape[1])]
    return names, data


# Rows formatted per write: large enough to amortize the call, small enough
# that the records of one block stay a few MB.
WRITE_BLOCK_ROWS = 4096


def write_csv(path: str, names: List[str], data: np.ndarray):
    """Write a header row and every value as ``%.17g`` (exact round trip), CRLF ends."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    try:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(names)
            for start in range(0, data.shape[0], WRITE_BLOCK_ROWS):
                fh.write(format_rows(data[start:start + WRITE_BLOCK_ROWS]).decode("ascii"))
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# config plumbing

# config keys whose value names a file
_PATH_KEYS = ("data", "weights", "efficiency", "out", "out_weights",
              "out_summary", "out_covariance", "export_dataset")


def _resolve(config: dict, defaults: dict, context: str) -> dict:
    if not isinstance(config, dict):
        raise CliInputError(
            f"{context} config must be a JSON object, not {type(config).__name__}")
    out = dict(defaults)
    for key, val in config.items():
        if key not in defaults:
            raise CliInputError(f"unknown {context} config key {key!r}")
        if key in _PATH_KEYS and val is not None and (not isinstance(val, str) or "\0" in val):
            raise CliInputError(f"{context} config key {key!r} must be a file path, got {val!r}")
        out[key] = val
    return out


def _stamp(resolved: dict) -> dict:
    return {"config_hash": config_hash(resolved),
            "seed": resolved.get("seed", resolved.get("base_seed", 0)),
            "version": __version__}


def _density_from_cfg(cfg: dict, support: Optional[Interval] = None) -> Density1D:
    """The density of ``cfg`` on its own ``support``, else on ``support``."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise CliInputError("density config must be an object with a 'kind'")
    if "support" not in cfg:
        if support is None:
            raise CliInputError("density config needs a 'support'")
        cfg = {**cfg, "support": support.as_tuple()}
    try:
        return Density1D.from_dict(cfg)
    except (ConstructionError, KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"bad density config: {exc}") from exc


def _model_from_cfg(cfg: dict) -> MixtureModel:
    """The model of a config, checked; without 'yields', one per component
    (:func:`_model_and_data` sets the default once the data are read)."""
    if not isinstance(cfg, dict):
        raise CliInputError("model config must be an object")
    support = Interval.from_pair(cfg.get("support"))
    comps_cfg = cfg.get("components")
    if not isinstance(comps_cfg, list) or len(comps_cfg) < 2:
        raise CliInputError("model config needs at least two components")
    comps = []
    for i, c in enumerate(comps_cfg):
        dens = _density_from_cfg(c, support)
        free = c.get("free_shape", False)
        if not isinstance(free, bool):
            raise CliInputError(f"'free_shape' must be true or false, got {free!r}")
        comps.append(MixtureComponent(c.get("label", f"c{i}"), dens, free))
    yields = cfg.get("yields")
    if yields is None:
        yields = [1.0] * len(comps)
    try:
        return MixtureModel(comps, np.asarray(yields, dtype=float))
    except (ConstructionError, TypeError, ValueError) as exc:
        raise CliInputError(f"bad model config: {exc}") from exc


def _model_and_data(resolved: dict, min_cols: int):
    """(column names, data, model) of a config with 'model' and 'data'.  The
    model is checked before the data file is read; without 'yields' it gets
    N/n events per component."""
    model = _model_from_cfg(resolved["model"])
    names, data = read_csv(resolved["data"], min_cols=min_cols)
    if resolved["model"].get("yields") is None:
        n = len(model.components)
        model = model.replace(yields=[data.shape[0] / n] * n)
    return names, data, model


def _efficiency_from_path(path: Optional[str]) -> Optional[EfficiencyMap]:
    if path is None:
        return None
    d = _load_json(path)
    try:
        return EfficiencyMap.from_dict(d)
    except (ConstructionError, KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"bad efficiency map {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved config, its required keys checked

FIT_DEFAULTS = {"data": None, "model": None, "out": None, "seed": 0}


def cmd_fit(resolved: dict) -> int:
    _, data, model = _model_and_data(resolved, min_cols=1)
    fit = fit_extended_ml(data[:, 0], model)
    out = {**_stamp(resolved), "fit": fit.to_dict()}
    _write_json(resolved["out"], out)
    return EXIT_OK if fit.converged else EXIT_NONCONVERGENCE


SWEIGHTS_DEFAULTS = {"data": None, "model": None, "variant": "B",
                     "out_weights": None, "out_summary": None, "seed": 0}


def cmd_sweights(resolved: dict) -> int:
    spec = MethodSpec(f"sweights-{resolved['variant']}", variant=resolved["variant"])
    names, data, model = _model_and_data(resolved, min_cols=1)
    fit = fit_extended_ml(data[:, 0], model)
    weights = apply_method(spec, fit, data)
    wnames, w = weights.columns()
    if resolved["out_weights"]:
        write_csv(resolved["out_weights"], names[: data.shape[1]] + wnames,
                  np.column_stack([data, w]))
    summary = {**_stamp(resolved), "fit": fit.to_dict(), "W": weights.W,
               "sum_w_s": float(w[:, 0].sum()), "sum_w_s2": float((w[:, 0] ** 2).sum()),
               "warnings": weights.cow.warnings}
    _write_json(resolved["out_summary"], summary)
    return EXIT_OK


COW_DEFAULTS = {"data": None, "basis": None, "n_signal": 1, "support": None,
                "poly_order": 0, "variance": "unity", "qm_bins": 50,
                "efficiency": None, "signal_proxy": None,
                "out_weights": None, "out_summary": None, "seed": 0}


def cmd_cow(resolved: dict) -> int:
    support = Interval.from_pair(resolved["support"])
    n_signal = as_integer(resolved["n_signal"], "'n_signal'", 1)
    poly_order = as_integer(resolved["poly_order"], "'poly_order'", 0, MAX_POLY_ORDER)
    qm_bins = as_integer(resolved["qm_bins"], "'qm_bins'", 1)
    if not resolved["basis"] or not isinstance(resolved["basis"], list):
        raise CliInputError("cow config needs a nonempty 'basis' list")
    basis = [_density_from_cfg(c, support) for c in resolved["basis"]]
    if poly_order > 0:
        basis = basis + monomial_basis(poly_order + 1, support)
    proxy = (None if resolved["signal_proxy"] is None
             else _density_from_cfg(resolved["signal_proxy"], support))
    eff = _efficiency_from_path(resolved["efficiency"])
    names, data = read_csv(resolved["data"], min_cols=1)
    if eff is not None and data.shape[1] < 2:
        raise CliInputError("an efficiency map needs (m, t) data; the data have one column")
    if not np.all(support.contains(data[:, 0])):
        # the class and exit code of fit_extended_ml's "data outside the model support"
        raise EvaluationError(f"data outside the support {support.as_tuple()}")

    cow = variance_cow(resolved["variance"], basis, data[:, :2], eff, qm_bins, support,
                       n_signal=n_signal, signal_proxy=proxy)
    w = efficiency_corrected_weights(cow, data[:, :2])
    if resolved["out_weights"]:
        wnames = [f"w_{k}" for k in range(w.shape[1])]
        write_csv(resolved["out_weights"], names[: data.shape[1]] + wnames,
                  np.column_stack([data, w]))
    summary = {**_stamp(resolved), "W": cow.W, "A": cow.A,
               "sum_w": w.sum(axis=0), "sum_w2": (w ** 2).sum(axis=0)}
    _write_json(resolved["out_summary"], summary)
    return EXIT_OK


CORRECT_DEFAULTS = {"data": None, "weights": None, "weight_column": "w_s",
                    "control_model": None, "out": None, "seed": 0}


def cmd_correct(resolved: dict) -> int:
    """Weighted control-variable fit with the plain sandwich correction.

    Weights are taken as externally fixed, so the reduction term for
    fit-derived weights does not apply here; use `pipeline` for the full
    chain.
    """
    hs = _density_from_cfg(resolved["control_model"])
    _, data = read_csv(resolved["data"], min_cols=2)
    wnames, wdata = read_csv(resolved["weights"], min_cols=1)
    if resolved["weight_column"] in wnames:
        w = wdata[:, wnames.index(resolved["weight_column"])]
    elif wdata.shape[1] == 1:
        w = wdata[:, 0]
    else:
        raise CliInputError(f"weight column {resolved['weight_column']!r} not found")
    if len(w) != data.shape[0]:
        raise CliInputError("weights and data have different lengths")
    t = data[:, 1]
    tfit = control_fit(t, w, hs)
    corr = corrected_covariance_fixed_shapes(t, w, None, hs, tfit.params)
    out = {**_stamp(resolved), "fit": tfit.to_dict(),
           "covariance": corr.to_dict(),
           "sum_w": float(w.sum()), "sum_w2": float((w ** 2).sum()),
           "n_equivalent": equivalent_events(w)}
    _write_json(resolved["out"], out)
    return EXIT_OK


CHECK_DEFAULTS = {"data": None, "x": "m", "y": "t", "out": None, "seed": 0}


def cmd_check_independence(resolved: dict) -> int:
    names, data = read_csv(resolved["data"], min_cols=2)

    def col(name):
        if name in names:
            return data[:, names.index(name)]
        raise CliInputError(f"column {name!r} not in {names}")

    report = kendall_tau(col(resolved["x"]), col(resolved["y"]))
    out = {**_stamp(resolved), "report": report.to_dict(),
           "x": resolved["x"], "y": resolved["y"],
           "tau_over_sigma": report.tau / report.approx_sigma}
    _write_json(resolved["out"], out)
    return EXIT_OK


TOYS_DEFAULTS = {"toy": None, "methods": None, "n_toys": 1, "base_seed": 0,
                 "jobs": 1, "out": None, "export_dataset": None}


def cmd_toys(resolved: dict) -> int:
    try:
        toy = ToySpec(**resolved["toy"])
        if not isinstance(toy.params, dict):
            raise TypeError(f"'params' must be an object, got {toy.params!r}")
        methods = [MethodSpec(**m) for m in (resolved["methods"] or [])]
        ens = EnsembleConfig(toy=toy, methods=methods,
                             n_toys=as_integer(resolved["n_toys"], "n_toys", 1),
                             base_seed=as_integer(resolved["base_seed"], "base_seed"),
                             jobs=as_integer(resolved["jobs"], "jobs", 1))
    except (TypeError, ValueError, OverflowError, ConstructionError) as exc:
        raise CliInputError(f"bad toys config: {exc}") from exc
    if resolved["export_dataset"]:
        ds = generate(ToySpec(**{**toy.to_dict(), "seed": ens.base_seed}))
        write_csv(resolved["export_dataset"], ds.columns + ["label"],
                  np.column_stack([ds.data, ds.labels]))
    report = run_ensemble(ens)
    out = {**_stamp(resolved), "report": report.to_dict()}
    _write_json(resolved["out"], out)
    return EXIT_OK if report.valid else EXIT_INVALID_ENSEMBLE


def _pipeline_method(method, cow_cfg: dict) -> MethodSpec:
    """The spec of a pipeline ``method``: "sweights-<variant>", or "cow" with
    the variance function and basis of the ``cow`` block."""
    if method == "cow":
        return MethodSpec(method, kind="cow", variance=cow_cfg["variance"],
                          qm_bins=cow_cfg["qm_bins"], poly_order=cow_cfg["poly_order"])
    if isinstance(method, str) and method.startswith("sweights-"):
        if cow_cfg["efficiency"] is not None:
            # an m-dependent efficiency invalidates the classic per-event w/eps
            raise CliInputError(
                "efficiency maps require the cow method; classic weights divided "
                "by a position-dependent efficiency are biased")
        return MethodSpec(method, variant=method[len("sweights-"):])
    raise CliInputError(f"unknown method {method!r}")


PIPELINE_DEFAULTS = {"data": None, "model": None, "method": "sweights-B",
                     "cow": None, "control_model": None,
                     "out_weights": None, "out_covariance": None,
                     "out_summary": None, "seed": 0}
PIPELINE_COW_DEFAULTS = {"poly_order": 0, "variance": "mixture", "qm_bins": 50,
                         "efficiency": None}


def cmd_pipeline(resolved: dict) -> int:
    method = resolved["method"]
    cow_cfg = _resolve(resolved["cow"] or {}, PIPELINE_COW_DEFAULTS, "pipeline cow")
    spec = _pipeline_method(method, cow_cfg)
    hs = _density_from_cfg(resolved["control_model"])
    eff = _efficiency_from_path(cow_cfg["efficiency"])
    names, data, model = _model_and_data(resolved, min_cols=2)
    m, t = data[:, 0], data[:, 1]
    fit = fit_extended_ml(m, model)
    weights = apply_method(spec, fit, data[:, :2], eff)
    w = weights.w

    tfit = control_fit(t, w, hs)
    corr = weights.covariance(hs, tfit.params)

    tau = kendall_tau(m, t)
    stamp = _stamp(resolved)
    if resolved["out_weights"]:
        wnames, weight_cols = weights.columns()
        write_csv(resolved["out_weights"], names[:2] + wnames,
                  np.column_stack([data[:, :2], weight_cols]))
    if resolved["out_covariance"]:
        _write_json(resolved["out_covariance"], {**stamp, "covariance": corr.to_dict()})
    summary = {**stamp, "method": method,
               "m_fit": fit.to_dict(), "t_fit": tfit.to_dict(),
               "sigma_naive": (None if corr.naive is None
                               else float(np.sqrt(corr.naive[0, 0]))),
               "sigma_corrected": float(np.sqrt(corr.theta_block[0, 0])),
               "sum_w": float(w.sum()), "sum_w2": float((w ** 2).sum()),
               "n_equivalent": equivalent_events(w),
               "kendall_tau": tau.to_dict(), "W": weights.W}
    _write_json(resolved["out_summary"], summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

# subcommand -> (handler, defaults, keys that must not be null)
_COMMANDS = {
    "fit": (cmd_fit, FIT_DEFAULTS, ("data", "model")),
    "sweights": (cmd_sweights, SWEIGHTS_DEFAULTS, ("data", "model")),
    "cow": (cmd_cow, COW_DEFAULTS, ("data", "support", "basis")),
    "correct": (cmd_correct, CORRECT_DEFAULTS, ("data", "weights", "control_model")),
    "check-independence": (cmd_check_independence, CHECK_DEFAULTS, ("data",)),
    "toys": (cmd_toys, TOYS_DEFAULTS, ("toy",)),
    "pipeline": (cmd_pipeline, PIPELINE_DEFAULTS, ("data", "model", "control_model")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cowlib",
        description="Orthogonal event weights: extraction, correction, toys.")
    parser.add_argument("--version", action="version", version=f"cowlib {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--echo", action="store_true",
                       help="print the resolved config and exit")
        if name == "toys":
            p.add_argument("--jobs", type=int, default=None,
                           help="parallel toy workers (overrides config)")
            p.add_argument("--out", default=None,
                           help="report path (overrides config)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, defaults, required = _COMMANDS[args.command]
    try:
        resolved = _resolve(_load_json(args.config), defaults, args.command)
        for key in ("out", "jobs"):   # the toys command-line overrides
            if getattr(args, key, None) is not None:
                resolved[key] = getattr(args, key)
        env = os.environ.get("COWLIB_SEED")
        if env is not None:
            try:
                resolved["base_seed" if "base_seed" in defaults else "seed"] = int(env)
            except ValueError as exc:
                raise CliInputError(f"COWLIB_SEED must be an integer, got {env!r}") from exc
        if args.echo:
            # the resolved config, before the required keys: an idempotent round trip
            print(f"# cowlib {__version__}", file=sys.stderr)
            print(canonical_json(resolved))
            return EXIT_OK
        for key in required:
            if resolved[key] is None:
                raise CliInputError(f"{args.command} config needs {key!r}")
        return handler(resolved)
    except (CliInputError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CowlibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except MemoryError as exc:   # the last resort for a config larger than the machine
        print(f"error: out of memory: {str(exc) or 'the config asks for too much'}",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
