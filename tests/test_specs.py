"""Property test: a method or toy spec built from any JSON value in any one
field either constructs or raises ConstructionError, which the command line
reports as an input error; never another exception."""

import dataclasses

from hypothesis import given, settings, strategies as st

from cowlib import ConstructionError
from cowlib.methods import MethodSpec
from cowlib.toygen import ToySpec
from conftest import JSON_VALUES

REQUIRED = {MethodSpec: {"name": "m"}, ToySpec: {"study": "simple", "n_events": 100}}
FIELDS = [(cls, f.name) for cls in REQUIRED for f in dataclasses.fields(cls)]


@settings(max_examples=200)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_any_json_value_constructs_or_is_rejected(field, value):
    cls, name = field
    try:
        cls(**{**REQUIRED[cls], name: value})
    except ConstructionError:
        pass
