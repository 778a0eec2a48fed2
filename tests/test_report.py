from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlm.report import to_json_text


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                               2.2250738585072014e-308, 1e16, 1.7976931348623157e308])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(1 << 80), 1 << 80),
    st.floats(), EDGE_FLOATS,
    st.text(), st.text(st.characters(max_codepoint=0x1F)),  # control characters
)
#: lists of ints mixed with values that equal ints but are written otherwise:
#: bools and integral floats
ID_LISTS = st.lists(st.one_of(st.integers(-3, 300), st.booleans(),
                              st.sampled_from([0.0, 1.0, 2.0])))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=6),
        st.lists(st.integers(0, 400), max_size=30),
        ID_LISTS,
    )


PAYLOADS = st.recursive(SCALARS, _containers, max_leaves=40)


class TestToJsonText:
    @given(PAYLOADS)
    @settings(max_examples=250, deadline=None)
    @example({"a": [1, 2, 300], "b": [True, 1.0, 2, 300.0], "c": [1, False, 0]})
    @example({"folds": [{"test": [3], "train": [0, 1, 2]}, {"test": [], "train": ()}]})
    @example({"kéy\n\x00": "☃\t\x7f퟿", "": {}, "e": []})
    def test_equals_json_dumps_indented_and_sorted(self, payload):
        assert to_json_text(payload) == reference(payload)

    @pytest.mark.parametrize("payload", [{"a": object()}, [1, {2, 3}], {"a": 1, 2: 0}])
    def test_what_json_dumps_refuses_is_a_type_error(self, payload):
        with pytest.raises(TypeError):
            reference(payload)
        with pytest.raises(TypeError):
            to_json_text(payload)

    @pytest.mark.parametrize("payload", [{1: "a"}, {None: 0}, {"a": [{1.5: 1}]}])
    def test_a_key_that_is_not_a_string_is_a_type_error(self, payload):
        with pytest.raises(TypeError):
            to_json_text(payload)

    def test_float_and_int_subclasses_are_written_as_their_base_values(self):
        class Ratio(float):
            def __repr__(self):
                return "ratio"

        class Count(int):
            def __repr__(self):
                return "count"

        payload = {"r": Ratio(0.5), "c": Count(3), "cs": [Count(4), Count(5)],
                   "nan": Ratio(math.nan)}
        assert to_json_text(payload) == reference(payload)
