"""The JSON writer: the bytes of json.dumps(indent=2, ensure_ascii=False)."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from merosolve.report import to_json

# quotes, backslashes, the control characters json escapes, DEL (which it
# does not) and characters past ASCII, which ensure_ascii=False keeps
_CHARACTERS = st.one_of(
    st.sampled_from(['"', "\\", "/", "\x7f", "a", " "]),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x80),
)
_STRINGS = st.text(_CHARACTERS, max_size=8)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64 - 2, max_value=2**64 + 2).map(lambda n: n * (-1) ** n),
    _STRINGS,
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, inner, max_size=4),
    ),
    max_leaves=12,
)


class TestToJson:
    @given(st.dictionaries(_STRINGS, _DOCUMENTS, max_size=4))
    def test_same_text_as_json_dumps(self, doc):
        assert to_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    def test_empty_containers_and_nesting(self):
        doc = {"a": {}, "b": [], "c": (), "d": [[{}], {"e": [None, True, False, -0]}]}
        assert to_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        assert to_json({}) == "{}\n"

    @pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1, 2}, b"x", object()])
    def test_unsupported_value_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            to_json({"ok": [1, "two"], "bad": [value]})
