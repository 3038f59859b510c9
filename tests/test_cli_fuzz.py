"""Malformed input files never end in a traceback.

Each example starts from a valid file of one input kind (state, POVM,
effects frame, valuation table, context set), breaks it in one to three
places, and runs every subcommand that reads that kind. Breaks are wrong
types, deleted keys, emptied lists, overflowing numbers written as 1e400
or as a 401-digit integer, a matrix whose anti-Hermitian part overflows,
and dimensions that disagree with the data. Every call must return an exit
code of the documented contract (0-5) and print no traceback; an exception
escaping ``main`` is what prints one. Its stderr is at most one line of at
most ``MAX_ERR_BYTES``: a message abridges the huge numbers it quotes.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from effectkit import Effect, HermitianOperator, Povm
from effectkit.cli import main

from conftest import pauli_op

MAX_ERR_BYTES = 200
# Every one of these replaces a node of a valid file. json writes inf as
# "Infinity", which is rewritten to the overflowing literal 1e400 below.
NUMBERS = [0, -1, 3, 65, 2**70, 10**400, 0.5, -0.25, 1e308, float("inf"),
           -float("inf")]
# Finite Hermitian part, but M - M^dagger overflows.
ANTI_HERMITIAN_OVERFLOW = {"dim": 2, "entries": [[0.5, 0], [1e308, 0],
                                                 [-1e308, 0], [0.5, 0]]}
LEAVES = NUMBERS + [None, True, "", "I", "x", [], {}, [0.0, 0.0],
                    [[1.0, 0.0]], {"dim": 2}, ANTI_HERMITIAN_OVERFLOW]


def _pauli_frame():
    return [Effect(HermitianOperator.identity(2), "I"),
            Effect(pauli_op(1, 0, 0), "X"),
            Effect(pauli_op(0, 1, 0), "Y"),
            Effect(pauli_op(0, 0, 1), "Z")]


def _valid_files() -> dict:
    frame = _pauli_frame()
    povm = Povm((Effect(pauli_op(0, 0, 1), "up"),
                 Effect(pauli_op(0, 0, -1), "down")))
    contexts_effects = [Effect(pauli_op(*a), lb) for lb, a in
                        (("P", (0, 0, 1)), ("Pp", (0, 0, -1)),
                         ("Q", (1, 0, 0)), ("Qp", (-1, 0, 0)))]
    return {
        "state": HermitianOperator(
            [[1.0, 0.0], [0.0, 0.0]]).to_json_dict(),
        "povm": povm.to_json_dict(),
        "frame": {"dim": 2, "effects": [e.to_json_dict() for e in frame]},
        "effect": frame[1].to_json_dict(),
        "values": {"dim": 2, "entries": [
            {"label": lb, "value": v}
            for lb, v in zip("IXYZ", (1.0, 0.5, 0.5, 1.0))]},
        "ctx_effects": {"dim": 2, "effects": [
            e.to_json_dict() for e in contexts_effects]},
        "contexts": {"effects_file": "ctx_effects.json",
                     "contexts": [["P", "Pp"], ["Q", "Qp"]],
                     "relations": [{"addends": ["P", "Pp"], "target": "I"}]},
    }


VALID = _valid_files()

# The files each kind breaks, and the calls that read them; {name} is the
# path of that file.
KINDS = {
    "state": (["state"], [
        ["validate", "{state}", "--kind", "state"],
        ["born", "{state}", "{povm}"],
        ["sample", "{state}", "{povm}", "--shots", "3"]]),
    "povm": (["povm"], [
        ["validate", "{povm}", "--kind", "povm"],
        ["born", "{state}", "{povm}"],
        ["sample", "{state}", "{povm}", "--shots", "3"],
        ["validate", "{values}", "--kind", "valuation", "--effects",
         "{frame}", "--povm", "{povm}"]]),
    "frame": (["frame", "effect"], [
        ["validate", "{effect}", "--kind", "effect"],
        ["validate", "{values}", "--kind", "valuation", "--effects",
         "{frame}"],
        ["reconstruct", "{frame}", "{values}"],
        ["reconstruct", "{frame}", "{values}", "--min-norm",
         "--project-psd"]]),
    "valuation": (["values"], [
        ["validate", "{values}", "--kind", "valuation"],
        ["validate", "{values}", "--kind", "valuation", "--effects",
         "{frame}"],
        ["reconstruct", "{frame}", "{values}", "--project-psd"]]),
    "contexts": (["contexts", "ctx_effects"], [
        ["dfsearch", "{contexts}"],
        ["dfsearch", "{contexts}", "--discover-relations"]]),
}


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _leaf(draw, leaves=LEAVES):
    return copy.deepcopy(draw(st.sampled_from(leaves)))


@st.composite
def broken(draw, payload):
    """``payload`` with one to three nodes replaced, deleted or emptied, or
    with one number or dimension changed."""
    payload = json.loads(json.dumps(payload))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(payload))))
        if not path:
            return _leaf(draw)
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        how = draw(st.sampled_from(
            ["replace", "number", "delete", "empty", "dim"]))
        if how == "number":
            parent[path[-1]] = _leaf(draw, NUMBERS)
        elif how == "delete":
            del parent[path[-1]]
        elif how == "empty" and isinstance(node, (list, dict)):
            node.clear()
        elif how == "dim" and isinstance(node, dict) and "dim" in node:
            node["dim"] = draw(st.sampled_from([0, 1, 3, 4, 65, -2]))
        else:
            parent[path[-1]] = _leaf(draw)
    return payload


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _check_kind(kind, data):
    names, calls = KINDS[kind]
    files = dict(VALID)
    for name in names:
        files[name] = data.draw(broken(VALID[name]), label=name)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, payload in files.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(payload).replace("Infinity", "1e400"))
            paths[name] = str(path)
        for call in calls:
            argv = [arg.format(**paths) for arg in call]
            code, err = _run(argv)
            assert 0 <= code <= 5, (argv, code, err)
            assert "Traceback" not in err, (argv, err)
            lines = err.splitlines()
            assert len(lines) <= 1, (argv, err)
            assert all(len(line.encode()) <= MAX_ERR_BYTES for line in lines), (
                argv, err)


FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)


@FUZZ
@given(st.data())
def test_malformed_state(data):
    _check_kind("state", data)


@FUZZ
@given(st.data())
def test_malformed_povm(data):
    _check_kind("povm", data)


@FUZZ
@given(st.data())
def test_malformed_frame(data):
    _check_kind("frame", data)


@FUZZ
@given(st.data())
def test_malformed_valuation(data):
    _check_kind("valuation", data)


@FUZZ
@given(st.data())
def test_malformed_contexts(data):
    _check_kind("contexts", data)
