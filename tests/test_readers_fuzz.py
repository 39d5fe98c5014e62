"""The JSON readers fail on malformed input with ValueError and nothing else,
and read every number as the integer it is, never by truncation."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from qca.kronecker import a11_seed
from qca.laurent import parse_laurent
from qca.seed import parse_seed, principal_seed, seed_to_dict
from qca.torus import SkewForm, TorusElement

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
small = st.integers(-2, 4)
vectors = st.lists(small | json_values, max_size=4)
matrices = st.lists(vectors | json_values, max_size=4)
laurent_text = st.text(alphabet="v^*+- 0123456789", max_size=20)

seed_dicts = st.fixed_dictionaries(
    {},
    optional={
        "m": small | json_values,
        "n": small | st.integers() | json_values,
        "B": matrices | json_values,
        "Lambda": matrices | json_values,
        "d": vectors | json_values,
        "order": vectors | json_values,
    },
)
records = st.lists(
    st.fixed_dictionaries(
        {}, optional={"exp": vectors | json_values, "coeff": laurent_text | json_values}
    )
    | json_values,
    max_size=4,
)
FORM = SkewForm(((0, -1), (1, 0)))


@settings(deadline=None)
@given(st.one_of(seed_dicts, json_values))
@example({"m": 2, "n": 10**12, "B": [[0, -2], [2, 0]], "Lambda": [[0, -1], [1, 0]], "d": [2, 2]})
@example({"m": float("inf"), "n": 2, "B": [], "Lambda": [], "d": []})
@example({"m": 2, "n": 2, "B": [[0, -2.7], [2, 0]], "Lambda": [[0, -1], [1, 0]], "d": [2, 2]})
@example({"m": 2, "n": 2, "B": [[0, -2], [2, 0]], "Lambda": [[0, -1], [1, 0]], "d": [2, 2.9]})
@example({"m": 2, "n": 2, "B": [[0, "-2"], [2, 0]], "Lambda": [[0, -1], [1, 0]], "d": [2, 2]})
@example({"m": 2, "n": True, "B": [[0], [2]], "Lambda": [[0, -1], [1, 0]], "d": [2]})
def test_parse_seed_raises_only_value_error(data):
    try:
        seed = parse_seed(data)
    except ValueError:
        return
    # Every field read back is the JSON the data gave, not a conversion of it.
    written = seed_to_dict(seed)
    for key in written.keys() & data.keys():
        assert json.dumps(written[key]) == json.dumps(data[key])


@settings(deadline=None)
@given(matrices | json_values, vectors | json_values)
@example(5, [1, 1])
@example([[0, None], [1, 0]], [1, 1])
@example([[0, -1], [1, float("inf")]], [1, 1])
@example([[0, -1], [1, 0]], [float("inf"), 1])
@example([[0, -1.9], [1, 0]], [1, 1])
@example([[0, -1], [1, 0]], [True, 1])
@example([[0, -1], [1, 0]], ["1", 1])
def test_principal_seed_raises_only_value_error(rows, d):
    try:
        seed = principal_seed(rows, d)
    except ValueError:
        return
    assert json.dumps([list(r) for r in seed.btilde[: seed.n]]) == json.dumps(rows)
    assert json.dumps(list(seed.d)) == json.dumps(d)


def test_parse_seed_round_trip():
    seed = a11_seed()
    assert parse_seed(seed_to_dict(seed)) == seed


@settings(deadline=None)
@given(st.one_of(laurent_text, st.text(max_size=12), json_values))
@example("")
@example("   ")
def test_parse_laurent_raises_only_value_error(text):
    try:
        parsed = parse_laurent(text)
    except ValueError:
        return
    assert parse_laurent(str(parsed)) == parsed


@pytest.mark.parametrize("text", ["", " ", None, 3, ["v"]])
def test_parse_laurent_rejects_empty_and_non_text(text):
    with pytest.raises(ValueError):
        parse_laurent(text)


@settings(deadline=None)
@given(st.one_of(records, json_values))
@example([{"exp": [1.5, True], "coeff": "1"}])
@example([{"exp": [1, "0"], "coeff": "1"}])
def test_from_records_raises_only_value_error(data):
    try:
        element = TorusElement.from_records(FORM, data)
    except ValueError:
        return
    assert all(type(x) is int for rec in data for x in rec["exp"])
    assert TorusElement.from_records(FORM, element.to_records()) == element


@pytest.mark.parametrize(
    "data",
    [
        None,
        5,
        [5],
        ["exp"],
        [None],
        [{"exp": [1, 0]}],
        [{"coeff": "1"}],
        [{"exp": 1, "coeff": "1"}],
        [{"exp": [1, None], "coeff": "1"}],
        [{"exp": [float("inf"), 0], "coeff": "1"}],
        [{"exp": [1.5, True], "coeff": "1"}],
        [{"exp": [1.0, 0], "coeff": "1"}],
        [{"exp": [False, 0], "coeff": "1"}],
        [{"exp": ["1", 0], "coeff": "1"}],
        [{"exp": [1, 0], "coeff": None}],
        [{"exp": [1, 0], "coeff": ""}],
    ],
)
def test_from_records_rejects_malformed(data):
    with pytest.raises(ValueError):
        TorusElement.from_records(FORM, data)
