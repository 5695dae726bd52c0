"""The functions that the benchmark's tracer spans by name still exist, so a
rename fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cowlib import methods, sweights
from cowlib.toygen import ToySpec, generate_simple, simple_truth_densities
from cowlib.mlfit import MixtureComponent, MixtureModel, fit_extended_ml

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


@pytest.mark.parametrize("name,module,attr", _spans(), ids=lambda v: str(v))
def test_span_target_resolves(name, module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_methods_calls_weight_functions_by_its_imported_name(monkeypatch):
    # the tracer rebinds module-level names, so a span on
    # sweights.weight_functions only sees calls made through such a name
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sweights.weight_functions(*args, **kwargs)

    monkeypatch.setattr(methods, "weight_functions", counted)
    ds = generate_simple(ToySpec(study="simple", n_events=300, z=0.3, seed=5))
    gs, gb, _, _ = simple_truth_densities()
    fit = fit_extended_ml(ds.m, MixtureModel(
        [MixtureComponent("s", gs, False), MixtureComponent("b", gb, False)],
        np.array([150.0, 150.0])))
    methods.apply_method(methods.MethodSpec(name="swB"), fit, ds.data)
    assert len(calls) == 1
