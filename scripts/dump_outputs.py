"""Dump a fixed set of cowlib outputs to one canonical JSON file, or compare two.

Changes meant to leave the numbers alone are checked by running this on
two source checkouts and comparing the files byte for byte:

    python3 scripts/dump_outputs.py PARENT_CHECKOUT parent.json
    python3 scripts/dump_outputs.py .               change.json
    cmp parent.json change.json

A change that moves numbers by rounding states its tolerance from

    python3 scripts/dump_outputs.py --compare parent.json change.json

which prints, for each top-level section, the largest relative difference
|a - b| / max(|a|, |b|) over its floats and where it occurs, how many
floats and how many integers (such as a fit's call count) differ, and how
many entries differ in anything else (a key, a string, a flag, a length);
it exits 1 if any such entry does.  Under a section that differs, one
indented line gives the same for each of its entries that differs: each
method of an ensemble (the rest of its toy records as "(toy)") and each
key of the other sections.

The file holds the ``run_ensemble`` records of 60 simple-study toys (seeds
1000-1059; methods swB, swA, swCi, cowmix, free-shape swB and cowmix2, the
mixture cow of polynomial order 2), those of 20 non-factorising toys with
efficiency (seeds from 20260824; swB and cow of polynomial order 1, 3 and
5 with the qm variance function), ten ``cowlib pipeline`` summaries
(N = 20000, seed 7; sweights-B, -A, -Ci and -Cii and cow, each with fixed
and with free shapes) without their
``config_hash``, which depends on the file paths, the SHA-256 and size
of every CSV the command-line interface writes here (the pipeline's input
``data.csv`` and weights files; the weights of ``cowlib sweights`` and
``cowlib cow`` and the dataset of ``cowlib toys`` on the same sample or
seed), so that ``--compare`` flags any byte that differs, three ``cowlib
cow`` runs on 2000 events of the same seed (on a simple-study sample, the
unity variance function on the support [-0.5, 1.0], of width 1.5, and the
mixture one with a ``signal_proxy``; on a non-factorising sample with
efficiency, the qm variance function in 50 bins with a polynomial basis of
order 3 under a grid efficiency map read from JSON, the command-line path
of the efficiency-corrected cows), each as its summary without
``config_hash``, its weights and the digest of its weights CSV, and the
``corrected_covariance_full`` results (``full``, ``theta_block``,
``naive``) of 10 simple-study toys (N = 2000, seeds 3000-3009), each with
fixed and with free shapes, at the root of the joint quasi-score whose
control fit takes the signal weight of the W block of lambda, and the
``corrected_covariance_cow`` result (``theta_block``, ``naive``,
``first_term``, ``boot_kept``) of one cow of polynomial order 3 with the qm
variance function in 50 bins on a non-factorising sample with efficiency of
N = 30000 events (seed 1), at the true slope: its N x 400 bootstrap
multiplicities exceed ``wcov.BOOT_CACHE_ELEMENTS``, so it covers the layout
that streams them in blocks, where every other output reads the cached one,
and the same result (``narrow_qm``) of a qm cow in 50 bins on [0, 1] with a
basis much narrower than a bin, a normal(0.45, 3e-4) peak and
``monomial_basis(2)``, on N = 20000 events without efficiency (6000 of the
peak with t from exponential(2.0) and 14000 uniform ones with t from
exponential(0.5), on [0, 3], seed 1), at t slope 2.0: its bootstrap replicas
read the per-bin Gram array B that the peak's own panels resolve.
The cowlib package is imported from ``CHECKOUT/src``; a run takes about 6 s
on a 2-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

SIMPLE_METHODS = [
    {"name": "swB", "kind": "sweights", "variant": "B"},
    {"name": "swA", "kind": "sweights", "variant": "A"},
    {"name": "swCi", "kind": "sweights", "variant": "Ci", "fit_shapes": True},
    {"name": "cowmix", "kind": "cow", "variance": "mixture"},
    {"name": "swB_free", "kind": "sweights", "variant": "B", "fit_shapes": True},
    {"name": "cowmix2", "kind": "cow", "variance": "mixture", "poly_order": 2},
]
NONFACT_METHODS = [{"name": "swB", "kind": "sweights", "variant": "B"}] + [
    {"name": f"cow{order}", "kind": "cow", "variance": "qm", "qm_bins": 50, "poly_order": order}
    for order in (1, 3, 5)]
ENSEMBLES = {
    "toys_simple": ({"study": "simple", "n_events": 2000, "z": 0.2},
                    SIMPLE_METHODS, 60, 1000),
    "toys_nonfact": ({"study": "nonfactorising", "n_events": 2000, "z": 0.5, "efficiency": True},
                     NONFACT_METHODS, 20, 20260824),
}
PIPELINE_EVENTS, PIPELINE_SEED = 20000, 7
PIPELINE_METHODS = ("sweights-B", "sweights-A", "sweights-Ci", "sweights-Cii", "cow")
FULL_EVENTS, FULL_SEEDS = 2000, range(3000, 3010)
COW_EVENTS = 2000
STREAMED_EVENTS, STREAMED_SEED = 30000, 1
NARROW_SIGMA, NARROW_SEED = 3e-4, 1
# the efficiency of the non-factorising study at the centres of a 5 x 3 grid
# of its (m, t) plane, [0, 1] x [0, 3], as the JSON of an EfficiencyMap
COW_EFFICIENCY = {
    "m_edges": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], "t_edges": [0.0, 1.0, 2.0, 3.0],
    "values": [[0.3 + 0.25 * m + 0.15 * tau + 0.25 * m * tau for tau in (1 / 6, 1 / 2, 5 / 6)]
               for m in (0.1, 0.3, 0.5, 0.7, 0.9)]}
# each run's sample study and its config; "efficiency" is a file name
COW_RUNS = {
    "unity-wide": ("simple", {"support": [-0.5, 1.0], "variance": "unity"}),
    "mixture-proxy": ("simple", {"support": [0.0, 1.0], "variance": "mixture",
                                 "signal_proxy": {"kind": "normal", "params": [0.52, 0.09]}}),
    "qm-efficiency": ("nonfactorising", {
        "support": [0.0, 1.0], "variance": "qm", "qm_bins": 50, "poly_order": 3,
        "basis": [{"kind": "normal", "params": [0.5, 0.08]}],
        "efficiency": "efficiency.json"}),
}


def _model(free: bool) -> dict:
    return {"support": [0.0, 1.0],
            "components": [{"kind": "normal", "params": [0.5, 0.08], "label": "s",
                            "free_shape": free},
                           {"kind": "exponential", "params": [1.0], "label": "b",
                            "free_shape": free}]}


def ensemble_records(toy: dict, methods, n_toys: int, base_seed: int):
    from cowlib.toygen import EnsembleConfig, MethodSpec, ToySpec, run_ensemble
    config = EnsembleConfig(toy=ToySpec(**toy), methods=[MethodSpec(**m) for m in methods],
                            n_toys=n_toys, base_seed=base_seed, jobs=1)
    return run_ensemble(config).records


def file_digest(path: str) -> dict:
    with open(path, "rb") as fh:
        content = fh.read()
    return {"sha256": hashlib.sha256(content).hexdigest(), "bytes": len(content)}


def _run(cli, workdir: str, command: str, name: str, cfg: dict) -> int:
    cfg_path = os.path.join(workdir, name + ".json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    return cli.main([command, "--config", cfg_path])


def pipeline_summaries(workdir: str) -> dict:
    """The pipeline summaries, and the digests of every CSV written."""
    from cowlib import cli
    from cowlib.toygen import ToySpec, generate
    ds = generate(ToySpec(study="simple", n_events=PIPELINE_EVENTS, z=0.2, seed=PIPELINE_SEED))
    data = os.path.join(workdir, "data.csv")
    cli.write_csv(data, ["m", "t"], ds.data)
    out, files = {}, {"data.csv": file_digest(data)}
    for free in (False, True):
        for method in PIPELINE_METHODS:
            name = f"{method}-{'free' if free else 'fixed'}"
            summary = os.path.join(workdir, name + "-summary.json")
            weights = os.path.join(workdir, name + "-weights.csv")
            cfg = {"data": data, "model": _model(free), "method": method,
                   "control_model": {"kind": "exponential", "params": [1.5],
                                     "support": [0.0, 3.0]},
                   "out_summary": summary, "out_weights": weights}
            if method == "cow":
                cfg["cow"] = {"variance": "mixture"}
            rc = _run(cli, workdir, "pipeline", name, cfg)
            if rc != 0:
                out[name] = {"exit": rc}
                continue
            with open(summary) as fh:
                result = json.load(fh)
            result.pop("config_hash")
            out[name] = result
            files[name + "-weights.csv"] = file_digest(weights)

    model = _model(False)
    csv_runs = {
        "sweights": {"data": data, "model": model, "out_weights": "sweights.csv",
                     "out_summary": "sweights-summary.json"},
        "cow": {"data": data, "support": model["support"],
                "basis": model["components"], "variance": "unity",
                "out_weights": "cow.csv", "out_summary": "cow-summary.json"},
        "toys": {"toy": {"study": "nonfactorising", "n_events": 2000, "z": 0.5,
                         "efficiency": True},
                 "methods": [], "base_seed": PIPELINE_SEED, "out": "toys-report.json",
                 "export_dataset": "toys.csv"},
    }
    for command, cfg in csv_runs.items():
        cfg = {k: os.path.join(workdir, v) if k.startswith(("out", "export")) else v
               for k, v in cfg.items()}
        csv_path = cfg.get("out_weights", cfg.get("export_dataset"))
        rc = _run(cli, workdir, command, command, cfg)
        name = os.path.basename(csv_path)
        files[name] = file_digest(csv_path) if rc == 0 else {"exit": rc}
    out["csv_files"] = files
    return out


def cow_runs(workdir: str) -> dict:
    """The ``cowlib cow`` runs of ``COW_RUNS``: summary, weights and digest."""
    from cowlib import cli
    from cowlib.toygen import ToySpec, generate
    toys = {"simple": {"z": 0.2},
            "nonfactorising": {"z": 0.5, "efficiency": True}}
    data = {}
    for study, spec in toys.items():
        ds = generate(ToySpec(study=study, n_events=COW_EVENTS, seed=PIPELINE_SEED, **spec))
        data[study] = os.path.join(workdir, f"cow-data-{study}.csv")
        cli.write_csv(data[study], ["m", "t"], ds.data)
    with open(os.path.join(workdir, "efficiency.json"), "w") as fh:
        json.dump(COW_EFFICIENCY, fh)
    out = {}
    for name, (study, run) in COW_RUNS.items():
        summary = os.path.join(workdir, name + "-summary.json")
        weights = os.path.join(workdir, name + "-weights.csv")
        cfg = {"data": data[study], "basis": _model(False)["components"], **run,
               "out_summary": summary, "out_weights": weights}
        if "efficiency" in cfg:
            cfg["efficiency"] = os.path.join(workdir, cfg["efficiency"])
        rc = _run(cli, workdir, "cow", name, cfg)
        if rc != 0:
            out[name] = {"exit": rc}
            continue
        with open(summary) as fh:
            result = json.load(fh)
        result.pop("config_hash")
        result["weights"] = cli.read_csv(weights)[1][:, 2:].tolist()
        result["weights.csv"] = file_digest(weights)
        out[name] = result
    return out


def full_covariances() -> dict:
    from types import SimpleNamespace

    from cowlib import CowlibError, MixtureComponent, MixtureModel
    from cowlib.mlfit import fit_extended_ml, fit_weighted_ml
    from cowlib.toygen import ToySpec, generate, simple_truth_densities
    from cowlib.wcov import QuasiScoreSpec, corrected_covariance_full
    gs, gb, hs, _ = simple_truth_densities()
    out = {}
    for seed in FULL_SEEDS:
        ds = generate(ToySpec(study="simple", n_events=FULL_EVENTS, z=0.2, seed=seed))
        m, t = ds.data[:, 0], ds.data[:, 1]
        for free in (False, True):
            name = f"{seed}-{'free' if free else 'fixed'}"
            model = MixtureModel([MixtureComponent("s", gs, free), MixtureComponent("b", gb, free)],
                                 [FULL_EVENTS / 2] * 2)
            spec = QuasiScoreSpec(model, hs)
            try:
                # theta stands at hs's until the control fit, which takes the
                # signal weight of lambda's W block: lambda is then a root
                lam = spec.lambda_from_fits(m, fit_extended_ml(m, model),
                                            SimpleNamespace(params=hs.params))
                tfit = fit_weighted_ml(t, spec.weight_s(m, lam), hs, bounds=[(0.05, 20.0)])
                lam[-len(tfit.params):] = tfit.params
                corr = corrected_covariance_full(ds.data, spec, lam)
            except CowlibError as exc:
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            out[name] = {"full": corr.full, "theta_block": corr.theta_block, "naive": corr.naive}
    return out


def streamed_covariance() -> dict:
    """The bootstrap covariance of a qm cow on a sample too large for the
    cached multiplicities."""
    from cowlib import CowSpec, build_cow, monomial_basis, variance_fn_qm
    from cowlib.toygen import ToySpec, generate, simple_truth_densities
    from cowlib.wcov import corrected_covariance_cow
    ds = generate(ToySpec(study="nonfactorising", n_events=STREAMED_EVENTS, z=0.5,
                          efficiency=True, seed=STREAMED_SEED))
    gs, _, hs, _ = simple_truth_densities()
    qm = variance_fn_qm(ds.data, ds.efficiency, 50, support=gs.support)
    cow = build_cow(CowSpec(basis=[gs] + monomial_basis(4, gs.support), variance_fn=qm,
                            support=gs.support, efficiency=ds.efficiency))
    corr = corrected_covariance_cow(cow, ds.data, hs, hs.params)
    return {"theta_block": corr.theta_block, "naive": corr.naive,
            "first_term": corr.first_term, "boot_kept": corr.boot_kept}


def narrow_qm_covariance() -> dict:
    """The bootstrap covariance of a qm cow whose signal peak is narrower
    than a bin."""
    import numpy as np
    from cowlib import CowSpec, Density1D, Interval, build_cow, monomial_basis, variance_fn_qm
    from cowlib.wcov import corrected_covariance_cow
    rng = np.random.default_rng(NARROW_SEED)
    iv, t_iv = Interval(0.0, 1.0), Interval(0.0, 3.0)
    peak = Density1D("normal", [0.45, NARROW_SIGMA], iv)
    m = np.concatenate([peak.sample(rng, 6000), rng.random(14000)])
    t = np.concatenate([Density1D("exponential", [2.0], t_iv).sample(rng, 6000),
                        Density1D("exponential", [0.5], t_iv).sample(rng, 14000)])
    data = np.column_stack([m, t])
    cow = build_cow(CowSpec(basis=[peak] + monomial_basis(2, iv),
                            variance_fn=variance_fn_qm(data, None, 50, iv), support=iv))
    corr = corrected_covariance_cow(cow, data, Density1D("exponential", [2.0], t_iv), [2.0])
    return {"theta_block": corr.theta_block, "naive": corr.naive,
            "first_term": corr.first_term, "boot_kept": corr.boot_kept}


def _differences(a, b, path, acc):
    """Walk ``a`` and ``b`` together, gathering into ``acc`` the largest
    relative difference of two floats and its path, the floats and the
    integers that differ and the other entries that differ."""
    if isinstance(a, bool) or isinstance(b, bool):
        acc["other"] += a != b
    elif isinstance(a, int) and isinstance(b, int):
        acc["integers"] += a != b
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        scale = max(abs(a), abs(b))
        rel = abs(a - b) / scale if math.isfinite(scale) else math.inf
        acc["floats"] += 1
        if not rel <= acc["max"]:
            acc["max"], acc["at"] = rel, path
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            _differences(a[k], b[k], f"{path}/{k}", acc)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _differences(x, y, f"{path}/{i}", acc)
    else:
        acc["other"] += a != b


def _entries(section) -> dict:
    """The parts of a section that ``--compare`` also reports one by one:
    the entries of a dict, and for an ensemble the records of each method
    with the rest of the toy records as "(toy)"."""
    if isinstance(section, dict):
        return section
    if isinstance(section, list) and all(isinstance(r, dict) for r in section):
        names = sorted({name for r in section for name in r.get("methods", {})})
        out = {name: [r.get("methods", {}).get(name) for r in section] for name in names}
        out["(toy)"] = [{k: v for k, v in r.items() if k != "methods"} for r in section]
        return out
    return {}


def _report(label: str, a, b) -> dict:
    """The differences of ``a`` and ``b``, with the line that states them."""
    acc = {"max": 0.0, "at": None, "floats": 0, "integers": 0, "other": 0}
    _differences(a, b, label, acc)
    where = f" at {acc['at']}" if acc["at"] else ""
    acc["line"] = (f"{label}: max relative difference {acc['max']:.3g}{where}; "
                   f"{acc['floats']} floats, {acc['integers']} integers and "
                   f"{acc['other']} other entries differ")
    acc["differs"] = bool(acc["floats"] or acc["integers"] or acc["other"])
    return acc


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    other = 0
    for section in sorted(set(a) | set(b)):
        if section not in a or section not in b:
            print(f"{section}: only in {path_a if section in a else path_b}")
            other += 1
            continue
        acc = _report(section, a[section], b[section])
        print(acc["line"])
        other += acc["other"]
        if acc["differs"]:
            ea, eb = _entries(a[section]), _entries(b[section])
            for name in sorted(set(ea) & set(eb)):
                entry = _report(f"{section}/{name}", ea[name], eb[name])
                if entry["differs"]:
                    print("  " + entry["line"])
    return 1 if other else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", help="root of the cowlib source checkout to run")
    parser.add_argument("out", nargs="?", help="path of the JSON file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two dumps instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        if args.checkout is not None:
            parser.error("--compare takes no checkout")
        return compare(*args.compare)
    if args.out is None:
        parser.error("need a checkout and an output file, or --compare")
    src = os.path.join(os.path.abspath(args.checkout), "src")
    sys.path.insert(0, src)
    import cowlib
    from cowlib import cli
    if not os.path.abspath(cowlib.__file__).startswith(src + os.sep):
        parser.error(f"cowlib was imported from {cowlib.__file__}, not from {src}")
    dump = {name: ensemble_records(*spec) for name, spec in ENSEMBLES.items()}
    with tempfile.TemporaryDirectory() as workdir:
        dump["pipeline"] = pipeline_summaries(workdir)
        dump["cow_runs"] = cow_runs(workdir)
    dump["full"] = full_covariances()
    dump["streamed"] = streamed_covariance()
    dump["narrow_qm"] = narrow_qm_covariance()
    with open(args.out, "w") as fh:
        fh.write(cli.canonical_json(dump) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
