"""JSON serialization with a fixed float format.

All files this package reads and writes are plain JSON. Emission is fully
deterministic: floats are rendered with 17 significant digits (lossless for
IEEE doubles), keys keep insertion order, and there is exactly one layout per
(payload, pretty) pair, so output files can be compared byte for byte.
Parsing accepts any standard JSON number but rejects the NaN/Infinity
extensions.

There is one fast path. In compact mode, a non-empty container whose exact
type is ``dict`` or ``list``, whose keys are all of exact type ``str`` and
whose items are all of exact type ``str``, ``int``, ``bool`` or
``NoneType`` is written by json's C encoder, with the same separators and
ASCII escaping, so its bytes are those of the Python path. Every other
value takes the Python path, one call per value: floats and lists of
floats, tuples, subclasses, numpy scalars, mixed containers, and every
container in pretty mode.

An ``entries`` array whose items are all ``[re, im]`` pairs of plain floats
is decoded as it is read into one flat complex array, a
:class:`PackedEntries`, so a large operator file never holds its entries as
one Python list per pair. Every reader still sees lists:
:func:`expect_list` returns the pairs, bit for bit, and the wrapper compares
equal to them. Only this module packs, and only
``operators.matrix_from_json``, which reads the operator of a state file
and of every effect, takes the array itself.
"""

from __future__ import annotations

import json
import math
import reprlib
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any

import numpy as np

from .errors import SchemaError


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in JSON payload")
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


class PackedEntries:
    """A decoded ``entries`` array of [re, im] float pairs, held as one flat
    complex128 array ``values``. It reads as the list of pairs it replaced:
    ``tolist()`` gives it back bit for bit, signed zeros included."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values

    @classmethod
    def pack(cls, entries: Any) -> "PackedEntries | None":
        """The packed form of a non-empty list whose every item is a list of
        two plain floats; None for any other value."""
        if type(entries) is not list or not entries:
            return None
        numbers: list[float] = []
        for pair in entries:
            if type(pair) is not list or len(pair) != 2:
                return None
            re, im = pair
            if type(re) is not float or type(im) is not float:
                return None
            numbers.append(re)
            numbers.append(im)
        return cls(np.array(numbers, dtype=np.float64).view(np.complex128))

    def __len__(self) -> int:
        return len(self.values)

    def tolist(self) -> list[list[float]]:
        return self.values.view(np.float64).reshape(-1, 2).tolist()

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedEntries):
            other = other.tolist()
        return self.tolist() == other


# Exact types that json's C encoder writes byte for byte as the Python path
# of _emit does: ints and bools by their repr, None as null, strings
# ASCII-escaped. Floats are not among them; they always go through
# format_float.
_PLAIN = frozenset((str, int, bool, type(None)))
_STR = frozenset((str,))


def _c_encoder():
    """json's compact C encoder, made once (json builds one per call). An
    interpreter without it gets json's Python encoder, which writes the
    same bytes."""
    if c_make_encoder is None:
        return json.JSONEncoder(separators=(", ", ": ")).encode
    encode = c_make_encoder(None, None, encode_basestring_ascii, None, ": ",
                            ", ", False, False, True)
    return lambda obj: "".join(encode(obj, 0))


_encode = _c_encoder()


def _emit(obj: Any, out: list[str], indent: int | None, level: int) -> None:
    kind = type(obj)
    if kind is float:
        out.append(format_float(obj))
        return
    if indent is None and (kind is dict or kind is list) and obj:
        # issuperset stops at the first item of another type, so a list of
        # floats pays for one item of the plainness check, not all of them.
        if kind is dict:
            plain = (_PLAIN.issuperset(map(type, obj.values()))
                     and _STR.issuperset(map(type, obj)))
        else:
            plain = _PLAIN.issuperset(map(type, obj))
        if plain:
            out.append(_encode(obj))
            return
    if isinstance(obj, PackedEntries):
        obj = obj.tolist()
    if isinstance(obj, dict):
        _emit_container(obj.items(), "{", "}", out, indent, level, keyed=True)
    elif isinstance(obj, (list, tuple)):
        _emit_container(obj, "[", "]", out, indent, level, keyed=False)
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    else:
        raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def _emit_container(items, open_ch, close_ch, out, indent, level, *, keyed):
    items = list(items)
    if not items:
        out.append(open_ch + close_ch)
        return
    if indent is None:
        lead, sep, tail = "", ", ", ""
    else:
        lead = "\n" + " " * (indent * (level + 1))
        sep, tail = "," + lead, lead[:-indent]
    out.append(open_ch + lead)
    for i, item in enumerate(items):
        if i:
            out.append(sep)
        if keyed:
            key, value = item
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            out.append(encode_basestring_ascii(key) + ": ")
            _emit(value, out, indent, level + 1)
        else:
            _emit(item, out, indent, level + 1)
    out.append(tail + close_ch)


def dumps(obj: Any, pretty: bool = False) -> str:
    """Serialize to a JSON string (no trailing newline)."""
    out: list[str] = []
    _emit(obj, out, 2 if pretty else None, 0)
    return "".join(out)


def dump(obj: Any, path, pretty: bool = False) -> None:
    """Write ``dumps(obj)`` and a newline to ``path``, opened only once the
    payload is serialized: a failure leaves an existing file as it was."""
    text = dumps(obj, pretty=pretty) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name!r} is not accepted")


def _pack_entries(obj: dict) -> dict:
    # Runs on each object as soon as it is decoded, so the pair lists of one
    # operator are freed before the next operator is read.
    packed = PackedEntries.pack(obj.get("entries"))
    if packed is not None:
        obj["entries"] = packed
    return obj


def loads(text: str) -> Any:
    return json.loads(text, parse_constant=_reject_constant,
                      object_hook=_pack_entries)


def load(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def expect_dict(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    return obj


def expect_key(obj: dict, key: str, what: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{what}: missing required key {key!r}")
    return obj[key]


def expect_list(obj: Any, what: str) -> list:
    if isinstance(obj, PackedEntries):
        return obj.tolist()
    if not isinstance(obj, list):
        raise SchemaError(f"{what}: expected a JSON array, got {type(obj).__name__}")
    return obj


def expect_int(obj: Any, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(
            f"{what}: expected an integer, got {reprlib.repr(obj)}")
    return obj


def expect_number(obj: Any, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(
            f"{what}: expected a number, got {reprlib.repr(obj)}")
    try:
        return float(obj)
    except OverflowError:
        # An integer literal past the float range reads as the literal 1e400
        # does: an infinity, rejected downstream wherever 1e400 is.
        return math.inf if obj > 0 else -math.inf


def expect_str(obj: Any, what: str) -> str:
    if not isinstance(obj, str):
        raise SchemaError(f"{what}: expected a string, got {type(obj).__name__}")
    return obj
