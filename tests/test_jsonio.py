"""Deterministic JSON emission and strict parsing."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from effectkit import SchemaError
from effectkit import jsonio


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
