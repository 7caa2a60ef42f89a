"""Fuzzing the schema parser: a mutated input file parses or raises SchemaError, nothing else.

Each example starts from the A2 fixture files and applies one mutation:
a dropped key, a value of the wrong type, a list of the wrong length or
shape, a module dimension of 0-3 with consistent or inconsistent actions, or
an entry that is not an integer.
"""

import copy
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homct.schemas import SchemaError, parse_algebra_file, parse_module_file

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


A2 = _fixture("a2.json")
A2_K = _fixture("a2_k_left.json")

# JSON values of every type, nested a little
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers(2**62, 2**64) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)
not_integers = st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=2) | st.lists(
    st.integers(0, 1), max_size=2) | st.integers(2**63, 2**64)


def _paths(value, prefix=()):
    """Every index path into the nested lists of value."""
    out = [prefix]
    if isinstance(value, list):
        for k, item in enumerate(value):
            out += _paths(item, prefix + (k,))
    return out


@st.composite
def mutated(draw, base: dict, keys: list[str]):
    data = copy.deepcopy(base)
    key = draw(st.sampled_from(keys))
    kind = draw(st.sampled_from(["drop", "retype", "resize", "entry"]))
    if kind == "drop":
        data.pop(key, None)
    elif kind == "retype":
        data[key] = draw(json_values)
    elif isinstance(data.get(key), list):
        path = draw(st.sampled_from(_paths(data[key])))
        parent, last = (data, key) if not path else (_get(data[key], path[:-1]), path[-1])
        if kind == "resize" and isinstance(parent[last], list):
            lst = parent[last]
            if draw(st.booleans()) or not lst:
                lst.append(copy.deepcopy(lst[0]) if lst else 0)
            else:
                lst.pop()
        elif path:
            parent[last] = draw(not_integers)
    return data


def _get(value, path):
    for k in path:
        value = value[k]
    return value


@st.composite
def modules_of_dim(draw):
    """A module file of dimension 0-3 whose actions are dim x dim (consistent) or not."""
    dim = draw(st.integers(0, 3))
    rows = draw(st.sampled_from([dim, dim + 1, max(dim - 1, 0)]))
    cols = draw(st.sampled_from([dim, dim + 1, max(dim - 1, 0)]))
    entry = st.integers(-2, 3)
    action = [[[draw(entry) for _ in range(cols)] for _ in range(rows)] for _ in range(3)]
    return {"algebra": "a2.json", "side": draw(st.sampled_from(["left", "right"])), "dim": dim, "action": action}


def _parse_or_schema_error(parse, path):
    try:
        parse(path)
    except SchemaError:
        pass


@FUZZ
@given(data=mutated(A2, ["p", "dim", "unit", "mul", "basis"]))
def test_algebra_parser_fails_closed(data, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    _parse_or_schema_error(parse_algebra_file, str(path))


@FUZZ
@given(data=mutated(A2_K, ["algebra", "side", "dim", "action"]) | modules_of_dim())
def test_module_parser_fails_closed(data, tmp_path):
    (tmp_path / "a2.json").write_text(json.dumps(A2))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    _parse_or_schema_error(parse_module_file, str(path))


@pytest.mark.parametrize("value, error", [
    (5, "m.json:algebra: must be a path string"),  # used to raise TypeError from os.path.isabs
    (["a2.json"], "m.json:algebra: must be a path string"),
    ("", "cannot read"),  # a directory: used to raise IsADirectoryError
    ("a2\u0000.json", "cannot read"),  # used to raise ValueError (embedded null byte)
])
def test_bad_algebra_path_is_schema_error(value, error, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**A2_K, "algebra": value}))
    with pytest.raises(SchemaError, match=error):
        parse_module_file(str(path))
