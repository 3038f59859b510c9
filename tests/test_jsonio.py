"""Deterministic JSON emission and strict parsing."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectkit import SchemaError
from effectkit import jsonio

from conftest import dumps_by_recursion


class TestFloatFormat:
    def test_simple_values_stay_short(self):
        assert jsonio.format_float(0.5) == "0.5"
        assert jsonio.format_float(1.0) == "1.0"
        assert jsonio.format_float(-0.0) == "-0.0"

    def test_seventeen_digits(self):
        assert jsonio.format_float(0.1) == "0.10000000000000001"
        assert jsonio.format_float(1 / 3) == "0.33333333333333331"

    def test_round_trips_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
            assert float(jsonio.format_float(x)) == x

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                jsonio.format_float(bad)


class TestDumps:
    def test_compact_layout(self):
        payload = {"a": [1, 2.5], "b": {"c": True, "d": None}, "e": "x"}
        text = jsonio.dumps(payload)
        assert text == '{"a": [1, 2.5], "b": {"c": true, "d": null}, "e": "x"}'
        assert json.loads(text) == payload

    def test_pretty_layout_parses_back(self):
        payload = {"a": [1, 2], "b": {}}
        text = jsonio.dumps(payload, pretty=True)
        assert "\n" in text
        assert json.loads(text) == payload

    def test_numpy_scalars(self):
        text = jsonio.dumps({"i": np.int64(3), "f": np.float64(0.5),
                             "b": np.bool_(True)})
        assert json.loads(text) == {"i": 3, "f": 0.5, "b": True}

    def test_deterministic_bytes(self):
        payload = {"x": [0.1, 0.2, 1 / 7], "y": "s"}
        assert jsonio.dumps(payload) == jsonio.dumps(payload)

    def test_unserializable_type_raises(self):
        with pytest.raises(TypeError):
            jsonio.dumps({"x": object()})

    def test_nan_payload_rejected(self):
        with pytest.raises(ValueError):
            jsonio.dumps({"x": float("nan")})


class Label(str):
    def __str__(self):
        return "not the label"


class Count(int):
    def __repr__(self):
        return "not the count"

    __str__ = __repr__


_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308]))
_ints = st.one_of(
    st.integers(),
    st.sampled_from([-(10 ** 3999), 10 ** 3999 + 7, -1]))
_strings = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n", "\x00\x1f", "\u00e9", "\u2028",
                     "\ud800", "\U0001f600", 'a"b\\c']))
_plain = st.one_of(st.none(), st.booleans(), _ints, _strings)
_scalars = st.one_of(
    _plain, _floats, _ints.map(Count), _strings.map(Label),
    st.lists(_plain, min_size=2), st.dictionaries(_strings, _plain, min_size=2),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    _floats.map(np.float64), st.booleans().map(np.bool_),
    st.lists(_floats, min_size=1),
    st.lists(st.one_of(_ints, _floats), min_size=1),
    st.lists(st.tuples(_floats, _floats), min_size=1).map(
        lambda pairs: jsonio.PackedEntries.pack([list(p) for p in pairs])))
_keys = st.one_of(_strings, _strings.map(Label))
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(_keys, inner)),
    max_leaves=20)


class TestDumpsParity:
    """``dumps`` writes the bytes of the recursive emitter it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(_payloads, st.booleans())
    def test_bytes_equal_the_recursive_emitter(self, payload, pretty):
        assert (jsonio.dumps(payload, pretty=pretty)
                == dumps_by_recursion(payload, pretty=pretty))

    @pytest.mark.parametrize("pretty", [False, True])
    def test_plain_containers_equal_the_recursive_emitter(self, pretty):
        payload = {"a": {"x": 1, "y": [True, None, "\u00e9\n"]},
                   "b": [{"k": -(10 ** 3999)}, [], {}, [0.5, -0.0]],
                   "c": ["s", 2, False]}
        assert (jsonio.dumps(payload, pretty=pretty)
                == dumps_by_recursion(payload, pretty=pretty))

    @pytest.mark.parametrize("pretty", [False, True])
    @pytest.mark.parametrize("payload, error", [
        ({1: 2}, TypeError), ({"a": 1, None: 2}, TypeError),
        ({(1, 2): 3}, TypeError), ([{"a": "b", 3: "c"}], TypeError),
        ([float("nan")], ValueError), ({"x": float("inf")}, ValueError),
        ([1, -math.inf], ValueError),
        (object(), TypeError), ({"x": [object()]}, TypeError),
        (10 ** 5000, ValueError), ([10 ** 5000], ValueError),
        ({"n": 10 ** 5000}, ValueError)],
        ids=["int-key", "none-key", "tuple-key", "int-key-nested", "nan",
             "inf", "minus-inf-after-int", "object", "object-nested",
             "long-int", "long-int-in-list", "long-int-in-dict"])
    def test_errors_equal_the_recursive_emitter(self, payload, error, pretty):
        with pytest.raises(error) as expected:
            dumps_by_recursion(payload, pretty=pretty)
        with pytest.raises(error) as got:
            jsonio.dumps(payload, pretty=pretty)
        assert str(got.value) == str(expected.value)


# Plain nested containers, the values that the fast path hands to json's
# C encoder.
_PLAIN_PAYLOADS = [
    {"a": "\u00e9\u4e2d\U0001f600 \"q\" \\ \n\t\x00", "b": -(10 ** 30),
     "c": True, "d": None, "e": False, "f": 0},
    ["x", 7, False, None, [], {}, [[], {"k": []}], {"n": {"m": [1, "\u00e9"]}}],
    [[[[]]]], {"": {}}, [], {}, "\u2603", -1, True, None,
]


@pytest.mark.parametrize("payload", _PLAIN_PAYLOADS)
def test_without_the_c_encoder_the_bytes_are_the_same(monkeypatch, payload):
    """``_c_encoder()`` on an interpreter without json's C encoder."""
    c_bytes = jsonio._encode(payload)
    monkeypatch.setattr(jsonio, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert jsonio._c_encoder()(payload) == c_bytes


def test_packed_entries_compare_by_their_pairs():
    pack = jsonio.PackedEntries.pack
    entries = pack([[1.0, -0.5], [0.0, 2.0]])
    assert entries == pack([[1.0, -0.5], [0.0, 2.0]])
    assert entries != pack([[1.0, -0.5], [0.0, 2.5]])
    assert entries != pack([[1.0, -0.5]])


class TestLoads:
    def test_accepts_any_number_form(self):
        assert jsonio.loads('{"a": 1, "b": 1.0, "c": 1e-3}') == \
            {"a": 1, "b": 1.0, "c": 0.001}

    def test_rejects_nan_extension(self):
        with pytest.raises(ValueError):
            jsonio.loads('{"a": NaN}')

    def test_rejects_infinity_extension(self):
        with pytest.raises(ValueError):
            jsonio.loads("[Infinity]")


class TestSchemaHelpers:
    def test_expect_int_rejects_bool(self):
        with pytest.raises(SchemaError):
            jsonio.expect_int(True, "x")

    def test_expect_number_rejects_string(self):
        with pytest.raises(SchemaError):
            jsonio.expect_number("1", "x")

    def test_expect_number_reads_huge_integers_as_the_float_literal(self):
        big = "1" + "0" * 400
        for text in (big, "-" + big):
            assert jsonio.expect_number(jsonio.loads(text), "x") == \
                jsonio.loads(text[:-400] + "e400")

    @pytest.mark.parametrize("helper", [jsonio.expect_int,
                                        jsonio.expect_number])
    @pytest.mark.parametrize("bad", ["long string", "deep list"])
    def test_rejected_value_is_echoed_short(self, helper, bad):
        if bad == "long string":
            bad = "x" * 100_000
        else:
            bad = []
            for _ in range(975):
                bad = [bad]
        with pytest.raises(SchemaError) as info:
            helper(bad, "matrix.entries[0][0]")
        message = str(info.value)
        assert message.startswith("matrix.entries[0][0]: expected a")
        assert len(message) < 100

    def test_expect_key_message_names_the_key(self):
        with pytest.raises(SchemaError, match="missing required key 'dim'"):
            jsonio.expect_key({}, "dim", "matrix")


def test_file_round_trip(tmp_path):
    path = tmp_path / "payload.json"
    payload = {"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.5]]}
    jsonio.dump(payload, path)
    assert jsonio.load(path) == payload
    assert path.read_text().endswith("\n")


def test_a_failed_dump_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "payload.json"
    path.write_text("kept\n", encoding="utf-8")
    for payload in ({"x": float("nan")}, {"x": object()}):
        with pytest.raises((ValueError, TypeError)):
            jsonio.dump(payload, path)
        assert path.read_text(encoding="utf-8") == "kept\n"


def test_a_packed_file_reads_as_its_lists(tmp_path):
    path = tmp_path / "payload.json"
    payload = {"dim": 1, "entries": [[-0.0, 5e-324]],
               "effects": [{"op": {"entries": [[1.0, 0.0], [0.0, -0.0]]}}],
               "ints": {"entries": [[1, 0]]}, "empty": {"entries": []}}
    jsonio.dump(payload, path)
    loaded = jsonio.load(path)
    packed = loaded["entries"], loaded["effects"][0]["op"]["entries"]
    assert all(isinstance(p, jsonio.PackedEntries) for p in packed)
    assert loaded["ints"]["entries"] == [[1, 0]]
    assert loaded["empty"]["entries"] == []
    assert loaded == payload
    listed = jsonio.expect_list(loaded["entries"], "entries")
    assert type(listed) is list and listed == [[-0.0, 5e-324]]
    assert math.copysign(1.0, listed[0][0]) == -1.0
    assert jsonio.dumps(loaded) == jsonio.dumps(payload)


def _traced(read):
    """What ``read()`` returns, and the memory it still holds and its peak,
    in bytes, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = read()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_load_holds_operator_entries_packed(tmp_path):
    # A tomography-sized frame: 259 operators of d = 16, 66 304 entries.
    rng = np.random.default_rng(7)
    d = 16
    ops = rng.standard_normal((d * d + 3, d, d, 2))
    path = tmp_path / "frame.json"
    jsonio.dump({"dim": d, "effects": [
        {"label": f"F{i}", "op": {"dim": d, "entries": op.reshape(-1, 2).tolist()}}
        for i, op in enumerate(ops)]}, path)
    plain, plain_kept, plain_peak = _traced(
        lambda: json.loads(path.read_text(encoding="utf-8")))
    loaded, kept, peak = _traced(lambda: jsonio.load(path))
    assert kept < 0.2 * plain_kept
    assert peak < 0.6 * plain_peak
    assert loaded == plain
