"""Dump a fixed set of cowlib outputs to one canonical JSON file.

Changes meant to leave the numbers alone are checked by running this on
two source checkouts and comparing the files byte for byte:

    python3 scripts/dump_outputs.py PARENT_CHECKOUT parent.json
    python3 scripts/dump_outputs.py .               change.json
    cmp parent.json change.json

The file holds the ``run_ensemble`` records of 60 simple-study toys (seeds
1000-1059; methods swB, swA, swCi, cowmix and free-shape swB), those of 20
non-factorising toys with efficiency (seeds from 20260824; swB and cow of
polynomial order 1, 3 and 5 with the qm variance function), and six
``cowlib pipeline`` summaries (N = 20000, seed 7; sweights-B, sweights-A
and cow, each with fixed and with free shapes) without their
``config_hash``, which depends on the file paths.  The cowlib package is
imported from ``CHECKOUT/src``; a run takes about 4 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

SIMPLE_METHODS = [
    {"name": "swB", "kind": "sweights", "variant": "B"},
    {"name": "swA", "kind": "sweights", "variant": "A"},
    {"name": "swCi", "kind": "sweights", "variant": "Ci", "fit_shapes": True},
    {"name": "cowmix", "kind": "cow", "variance": "mixture"},
    {"name": "swB_free", "kind": "sweights", "variant": "B", "fit_shapes": True},
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
PIPELINE_METHODS = ("sweights-B", "sweights-A", "cow")


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


def pipeline_summaries(workdir: str) -> dict:
    from cowlib import cli
    from cowlib.toygen import ToySpec, generate
    ds = generate(ToySpec(study="simple", n_events=PIPELINE_EVENTS, z=0.2, seed=PIPELINE_SEED))
    data = os.path.join(workdir, "data.csv")
    cli.write_csv(data, ["m", "t"], ds.data)
    out = {}
    for free in (False, True):
        for method in PIPELINE_METHODS:
            name = f"{method}-{'free' if free else 'fixed'}"
            cfg_path = os.path.join(workdir, name + ".json")
            summary = os.path.join(workdir, name + "-summary.json")
            cfg = {"data": data, "model": _model(free), "method": method,
                   "control_model": {"kind": "exponential", "params": [1.5],
                                     "support": [0.0, 3.0]},
                   "out_summary": summary}
            if method == "cow":
                cfg["cow"] = {"variance": "mixture"}
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            rc = cli.main(["pipeline", "--config", cfg_path])
            if rc != 0:
                out[name] = {"exit": rc}
                continue
            with open(summary) as fh:
                result = json.load(fh)
            result.pop("config_hash")
            out[name] = result
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of the cowlib source checkout to run")
    parser.add_argument("out", help="path of the JSON file to write")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.checkout), "src")
    sys.path.insert(0, src)
    import cowlib
    from cowlib import cli
    if not os.path.abspath(cowlib.__file__).startswith(src + os.sep):
        parser.error(f"cowlib was imported from {cowlib.__file__}, not from {src}")
    dump = {name: ensemble_records(*spec) for name, spec in ENSEMBLES.items()}
    with tempfile.TemporaryDirectory() as workdir:
        dump["pipeline"] = pipeline_summaries(workdir)
    with open(args.out, "w") as fh:
        fh.write(cli.canonical_json(dump) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
