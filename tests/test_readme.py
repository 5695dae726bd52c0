"""The README's Python examples run as written, so a deleted or renamed API
cannot stay in them."""

import pathlib
import re

import numpy as np

from cowlib import Interval, monomial_basis
from cowlib.toygen import ToySpec, generate_nonfactorising

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_python_blocks_run_in_one_namespace():
    blocks = python_blocks()
    assert len(blocks) == 2
    ds = generate_nonfactorising(ToySpec(study="nonfactorising", n_events=2000, z=0.4,
                                         efficiency=True, seed=11))
    ns = {"m": ds.m, "t": ds.column("t"), "data": ds.data, "eff_map": ds.efficiency,
          "background_basis": monomial_basis(3, Interval(0.0, 1.0))}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    assert np.isfinite(ns["sigma"]) and ns["sigma"] > 0
    assert ns["w"].shape == (2000,) and np.all(np.isfinite(ns["w"]))
