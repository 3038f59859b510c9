"""Command-line surface: exit codes, formats, determinism, pipelines."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from effectkit import (
    DensityOperator,
    Effect,
    HermitianOperator,
    Povm,
    born,
    estimate_valuation,
    hermitian_coords,
    jsonio,
)
from effectkit import __version__, cli, generate, operators
from effectkit.cli import main
from effectkit.effects import effects_from_json_dict
from effectkit.valuation import SampleRecord

from conftest import PERES_CORE, orthogonal_tetrads, pauli_op, peres_rays


def write(path, payload):
    jsonio.dump(payload, path)
    return str(path)


def ground_state_payload():
    return HermitianOperator(np.diag([1.0, 0.0])).to_json_dict()


def z_povm_payload():
    povm = Povm((Effect(pauli_op(0, 0, 1), "up"),
                 Effect(pauli_op(0, 0, -1), "down")))
    return povm.to_json_dict()


def pauli_frame_payload():
    effects = [Effect(HermitianOperator.identity(2), "I"),
               Effect(pauli_op(1, 0, 0), "X"),
               Effect(pauli_op(0, 1, 0), "Y"),
               Effect(pauli_op(0, 0, 1), "Z")]
    return {"dim": 2, "effects": [e.to_json_dict() for e in effects]}


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestValidate:
    def test_valid_povm(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", z_povm_payload())
        code, report = run_cli(["validate", path, "--kind", "povm"], capsys)
        assert code == 0
        assert report["valid"] is True

    def test_povm_not_summing_to_identity(self, tmp_path, capsys):
        payload = {"dim": 2, "effects": [
            Effect(0.5 * HermitianOperator.identity(2), "H").to_json_dict()]}
        path = write(tmp_path / "p.json", payload)
        code, report = run_cli(["validate", path, "--kind", "povm"], capsys)
        assert code == 2
        assert report["checks"][0]["error"] == "SumNotIdentity"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(["validate", str(path), "--kind", "povm"], capsys)
        assert code == 1

    def test_missing_file(self, capsys):
        code, _ = run_cli(["validate", "/no/such/file.json", "--kind", "state"],
                          capsys)
        assert code == 1

    def test_state_kind(self, tmp_path, capsys):
        path = write(tmp_path / "s.json", ground_state_payload())
        code, report = run_cli(["validate", path, "--kind", "state"], capsys)
        assert code == 0 and report["valid"]

    def test_invalid_state(self, tmp_path, capsys):
        payload = HermitianOperator(np.diag([1.5, -0.5])).to_json_dict()
        path = write(tmp_path / "s.json", payload)
        code, report = run_cli(["validate", path, "--kind", "state"], capsys)
        assert code == 2
        names = {c["name"]: c["ok"] for c in report["checks"]}
        assert not names["positive"]

    def test_effect_kind(self, tmp_path, capsys):
        path = write(tmp_path / "e.json",
                     Effect(pauli_op(0.5, 0, 0.5), "tilt").to_json_dict())
        code, report = run_cli(["validate", path, "--kind", "effect"], capsys)
        assert code == 0 and report["valid"]

    def test_valuation_kind(self, tmp_path, capsys):
        table = {"dim": 2, "entries": [{"label": "up", "value": 0.5},
                                       {"label": "down", "value": 0.5}]}
        path = write(tmp_path / "v.json", table)
        effects = write(tmp_path / "e.json",
                        {"dim": 2, "effects": z_povm_payload()["effects"]})
        povm = write(tmp_path / "p.json", z_povm_payload())
        code, report = run_cli(
            ["validate", path, "--kind", "valuation",
             "--effects", effects, "--povm", povm], capsys)
        assert code == 0 and report["valid"]

    def test_valuation_sum_violation(self, tmp_path, capsys):
        table = {"dim": 2, "entries": [{"label": "up", "value": 1.0},
                                       {"label": "down", "value": 1.0}]}
        path = write(tmp_path / "v.json", table)
        effects = write(tmp_path / "e.json",
                        {"dim": 2, "effects": z_povm_payload()["effects"]})
        povm = write(tmp_path / "p.json", z_povm_payload())
        code, report = run_cli(
            ["validate", path, "--kind", "valuation",
             "--effects", effects, "--povm", povm], capsys)
        assert code == 2 and not report["valid"]

    def test_valuation_with_effects_lists_only_checks_that_can_fail(
            self, tmp_path, capsys):
        effects = write(tmp_path / "e.json",
                        {"dim": 2, "effects": z_povm_payload()["effects"]})
        good = write(tmp_path / "v.json", {"dim": 2, "entries": [
            {"label": "up", "value": 0.5}]})
        code = main(["validate", good, "--kind", "valuation",
                     "--effects", effects])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == (
            '{"kind": "valuation", "valid": true, "checks": [{"name": '
            '"p1_range", "ok": true, "out_of_range": []}]}\n')
        assert captured.err == ""
        # An unresolved label is an input error, not a failed check.
        bad = write(tmp_path / "b.json", {"dim": 2, "entries": [
            {"label": "B", "value": 0.5}]})
        code = main(["validate", bad, "--kind", "valuation",
                     "--effects", effects])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "UnknownLabel: label 'B' not in the effects file\n"

    def _label_files(self, tmp_path, effect_b):
        """Effects A = diag(1,0), B = ``effect_b`` and Id = I valued 0.5,
        0.5 and 0.9, and the POVM file {A = diag(1,0), B = diag(0,1)}."""
        def op(*diag):
            return HermitianOperator(np.diag(diag)).to_json_dict()
        effects = write(tmp_path / "e.json", {"dim": 2, "effects": [
            {"label": "A", "op": op(1.0, 0.0)},
            {"label": "B", "op": op(*effect_b)},
            {"label": "Id", "op": op(1.0, 1.0)}]})
        values = write(tmp_path / "v.json", {"dim": 2, "entries": [
            {"label": "A", "value": 0.5}, {"label": "B", "value": 0.5},
            {"label": "Id", "value": 0.9}]})
        povm = write(tmp_path / "p.json", {"dim": 2, "effects": [
            {"label": "A", "op": op(1.0, 0.0)},
            {"label": "B", "op": op(0.0, 1.0)}]})
        return values, effects, povm

    def test_povm_matched_by_label_only_is_an_input_error(self, tmp_path,
                                                          capsys):
        # In the effects file A + B = diag(1.25, .25), not I.
        values, effects, povm = self._label_files(tmp_path, (0.25, 0.25))
        code = main(["validate", values, "--kind", "valuation",
                     "--effects", effects, "--povm", povm])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "BadRelation: POVM effect 'B' is not the valuation's effect 'B': "
            "Frobenius deviation 7.906e-01 > 1e-10\n")

    def test_identity_valued_below_one_fails_p2(self, tmp_path, capsys):
        values, effects, povm = self._label_files(tmp_path, (0.0, 1.0))
        code = main(["validate", values, "--kind", "valuation",
                     "--effects", effects, "--povm", povm])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out == (
            '{"kind": "valuation", "valid": false, "checks": [{"name": '
            '"p1_range", "ok": true, "out_of_range": []}, {"name": '
            '"p2_identity", "ok": false, "violations": [{"relation": '
            '"P2: v(Id) = 1", "lhs": 0.90000000000000002, "rhs": 1.0, '
            '"deviation": 0.099999999999999978}]}, {"name": '
            f'"effect_valuation:{povm}", "ok": true, "violations": []}}]}}\n')

    def test_povm_rows_are_its_relation_once_per_file(self, tmp_path, capsys):
        # up = 1.2 is out of range, and only p1_range says so; the sum is
        # 2.2, reported once under each of the two paths of the same POVM.
        table = {"dim": 2, "entries": [{"label": "up", "value": 1.2},
                                       {"label": "down", "value": 1.0}]}
        path = write(tmp_path / "v.json", table)
        effects = write(tmp_path / "e.json",
                        {"dim": 2, "effects": z_povm_payload()["effects"]})
        povm = write(tmp_path / "p.json", z_povm_payload())
        again = write(tmp_path / "q.json", z_povm_payload())
        code, report = run_cli(
            ["validate", path, "--kind", "valuation", "--effects", effects,
             "--povm", povm, "--povm", again], capsys)
        assert code == 2
        row = {"relation": "up + down = I", "lhs": 2.2, "rhs": 1.0,
               "deviation": pytest.approx(1.2)}
        assert report["checks"] == [
            {"name": "p1_range", "ok": False, "out_of_range": ["up"]},
            {"name": f"effect_valuation:{povm}", "ok": False,
             "violations": [row]},
            {"name": f"effect_valuation:{again}", "ok": False,
             "violations": [row]}]

    def test_povms_with_the_same_label_text_keep_their_own_rows(
            self, tmp_path, capsys):
        # Both POVMs read "A + B + C = I"; only p2's values miss 1.
        def op(*diag):
            return HermitianOperator(np.diag(diag)).to_json_dict()
        ops = {"A": op(0.6, 0.2), "B + C": op(0.4, 0.8),
               "A + B": op(0.8, 0.5), "C": op(0.2, 0.5)}
        effects = write(tmp_path / "e.json", {"dim": 2, "effects": [
            {"label": label, "op": o} for label, o in ops.items()]})
        values = write(tmp_path / "v.json", {"dim": 2, "entries": [
            {"label": label, "value": x}
            for label, x in zip(ops, (0.5, 0.5, 0.7, 0.7))]})
        p1 = write(tmp_path / "p1.json", {"dim": 2, "effects": [
            {"label": label, "op": ops[label]} for label in ("A", "B + C")]})
        p2 = write(tmp_path / "p2.json", {"dim": 2, "effects": [
            {"label": label, "op": ops[label]} for label in ("A + B", "C")]})
        code, report = run_cli(
            ["validate", values, "--kind", "valuation", "--effects", effects,
             "--povm", p1, "--povm", p2], capsys)
        assert code == 2
        assert report["checks"] == [
            {"name": "p1_range", "ok": True, "out_of_range": []},
            {"name": f"effect_valuation:{p1}", "ok": True, "violations": []},
            {"name": f"effect_valuation:{p2}", "ok": False, "violations": [
                {"relation": "A + B + C = I", "lhs": 1.4, "rhs": 1.0,
                 "deviation": pytest.approx(0.4)}]}]

    @pytest.mark.parametrize("with_effects", [False, True],
                             ids=["alone", "with effects"])
    @pytest.mark.parametrize("dim, message", [
        (0, "matrix dimension must be at least 1"),
        (-3, "matrix dimension must be at least 1"),
        (10**9, "dimension 1000000000 exceeds MAX_DIM=64")])
    def test_a_bad_valuation_dim_is_rejected_before_any_allocation(
            self, tmp_path, capsys, monkeypatch, dim, message, with_effects):
        def no_eye(*args, **kwargs):
            raise AssertionError("np.eye called on an unchecked dim")
        monkeypatch.setattr(np, "eye", no_eye)
        values = write(tmp_path / "v.json", {"dim": dim, "entries": []})
        argv = ["validate", values, "--kind", "valuation"]
        if with_effects:
            argv += ["--effects",
                     write(tmp_path / "e.json", {"dim": 2, "effects": []})]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"invalid input: {message}\n"

    def test_an_effects_file_of_dim_0_is_rejected_before_the_table(
            self, tmp_path, capsys):
        values = write(tmp_path / "v.json", {"dim": 2, "entries": []})
        effects = write(tmp_path / "e.json", {"dim": 0, "effects": []})
        code = main(["validate", values, "--kind", "valuation",
                     "--effects", effects])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "invalid input: matrix dimension must be at least 1\n")

    def test_valuation_p1_violation(self, tmp_path, capsys):
        table = {"dim": 2, "entries": [{"label": "up", "value": 1.4}]}
        path = write(tmp_path / "v.json", table)
        code, report = run_cli(["validate", path, "--kind", "valuation"], capsys)
        assert code == 2
        assert report["checks"][0]["out_of_range"] == ["up"]

    def test_povm_without_effects_is_a_parameter_error(self, tmp_path, capsys):
        table = {"dim": 2, "entries": [{"label": "up", "value": 0.5},
                                       {"label": "down", "value": 0.5}]}
        path = write(tmp_path / "v.json", table)
        povm = write(tmp_path / "p.json", z_povm_payload())
        code = main(["validate", path, "--kind", "valuation", "--povm", povm])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--povm needs --effects" in captured.err

    @pytest.mark.parametrize("flag", ["--effects", "--povm"])
    @pytest.mark.parametrize("kind", ["effect", "povm", "state"])
    def test_valuation_flags_with_other_kinds_are_parameter_errors(
            self, tmp_path, capsys, kind, flag):
        valid = {"effect": Effect(pauli_op(0.5, 0, 0.5), "tilt").to_json_dict(),
                 "povm": z_povm_payload(),
                 "state": ground_state_payload()}
        path = write(tmp_path / "in.json", valid[kind])
        effects = write(tmp_path / "e.json",
                        {"dim": 2, "effects": z_povm_payload()["effects"]})
        code = main(["validate", path, "--kind", kind, flag, effects])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "apply only to --kind valuation" in captured.err

    @pytest.mark.parametrize("bad", ['"' + "x" * 100_000 + '"',
                                     "[" * 975 + "]" * 975],
                             ids=["long string", "deep list"])
    def test_schema_error_echoes_the_value_short(self, tmp_path, bad):
        # Run as a child: the deep list is past what json.loads can nest
        # under the test runner's own stack.
        path = tmp_path / "s.json"
        path.write_text('{"dim": 1, "entries": [[%s, 0]]}' % bad)
        proc = subprocess.run(
            [sys.executable, "-m", "effectkit", "validate", str(path),
             "--kind", "state"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            "SchemaError: matrix.entries[0][0]: expected a number, got ")
        assert proc.stderr.count("\n") == 1
        assert len(proc.stderr) < 120

    def test_overflowing_entries_print_one_stderr_line(self, tmp_path):
        huge = {"dim": 2, "entries": [[1e308, 0.0]] * 4}
        path = write(tmp_path / "s.json", huge)
        proc = subprocess.run(
            [sys.executable, "-m", "effectkit", "validate", path,
             "--kind", "state"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "invalid input: matrix entries must be finite\n"

    def test_integer_past_the_float_range_reads_as_1e400(self, tmp_path,
                                                          capsys):
        big = "1" + "0" * 400
        files = {
            "state": '{"dim": 2, "entries": [[0.5, 0], [%s, 0], [0, 0], '
                     '[0.5, 0]]}',
            "valuation": '{"dim": 2, "entries": [{"label": "up", '
                         '"value": %s}]}'}
        for kind, text in files.items():
            outcomes = []
            for literal in (big, "1e400", "-" + big, "-1e400"):
                path = tmp_path / f"{kind}.json"
                path.write_text(text % literal)
                code = main(["validate", str(path), "--kind", kind])
                outcomes.append((code, capsys.readouterr()))
            assert outcomes[0] == outcomes[1]
            assert outcomes[2] == outcomes[3]
            assert outcomes[0][0] == 2

    def test_overflowing_anti_hermitian_part_names_the_deviation(
            self, tmp_path, capsys):
        path = write(tmp_path / "s.json", {"dim": 2, "entries": [
            [0.5, 0.0], [1e308, 0.0], [-1e308, 0.0], [0.5, 0.0]]})
        code = main(["validate", path, "--kind", "state"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("invalid input: hermiticity deviation "
                                "|M[i][j] - conj(M[j][i])| is not finite\n")


def frame_values_payload():
    """Values of the maximally mixed state on the Pauli frame."""
    return {"dim": 2, "entries": [{"label": "I", "value": 1.0},
                                  {"label": "X", "value": 0.5},
                                  {"label": "Y", "value": 0.5},
                                  {"label": "Z", "value": 0.5}]}


# One schema fault each, applied in place to frame_values_payload().
VALUATION_FAULTS = {
    "dim missing": lambda t: t.pop("dim"),
    "dim not an integer": lambda t: t.update(dim="two"),
    "entries missing": lambda t: t.pop("entries"),
    "entries not a list": lambda t: t.update(entries={"X": 0.5}),
    "entry not an object": lambda t: t["entries"].insert(1, ["X", 0.5]),
    "label missing": lambda t: t["entries"][1].pop("label"),
    "label not a string": lambda t: t["entries"][1].update(label=1),
    "value missing": lambda t: t["entries"][1].pop("value"),
    "value not a number": lambda t: t["entries"][1].update(value="0.5"),
    "repeated label": lambda t: t["entries"].append(
        {"label": "X", "value": 0.5}),
}


@pytest.mark.parametrize("fault", list(VALUATION_FAULTS))
def test_validate_reads_a_valuation_file_as_reconstruct_does(tmp_path, capsys,
                                                             fault):
    table = frame_values_payload()
    VALUATION_FAULTS[fault](table)
    values = write(tmp_path / "v.json", table)
    frame = write(tmp_path / "f.json", pauli_frame_payload())
    expected_code = main(["reconstruct", frame, values])
    expected = capsys.readouterr()
    assert expected_code in (1, 2)
    assert expected.out == "" and expected.err
    for flags in ([], ["--effects", frame]):
        code = main(["validate", values, "--kind", "valuation", *flags])
        assert (code, capsys.readouterr()) == (expected_code, expected)


# A file of each kind with its declared dim replaced, and the argv that
# reads it; every other part of the file is valid.
DIM_FILES = {
    "matrix": (ground_state_payload, "state"),
    "effects file": (z_povm_payload, "povm"),
    "valuation": (lambda: {"dim": 2, "entries": [{"label": "up",
                                                  "value": 0.5}]},
                  "valuation"),
}
ABRIDGED = "100000000000000000...0000000000000000000"


@pytest.mark.parametrize("dim, message", [
    (0, "invalid input: matrix dimension must be at least 1"),
    (65, "invalid input: dimension 65 exceeds MAX_DIM=64"),
    (10**400, f"invalid input: dimension {ABRIDGED} exceeds MAX_DIM=64"),
    (10**3000, f"invalid input: dimension {ABRIDGED} exceeds MAX_DIM=64")],
    ids=["0", "65", "401 digits", "3001 digits"])
@pytest.mark.parametrize("kind", list(DIM_FILES))
def test_every_file_kind_bounds_its_dim_in_one_short_line(
        tmp_path, capsys, kind, dim, message):
    build, flag = DIM_FILES[kind]
    code = 2
    if kind == "matrix" and dim < 1:
        # A matrix's dim below 1 stays a schema fault.
        code, message = 1, "SchemaError: matrix.dim must be a positive integer"
    path = write(tmp_path / "in.json", {**build(), "dim": dim})
    assert main(["validate", path, "--kind", flag]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
    assert len(captured.err.encode()) < 120


@pytest.mark.parametrize("table, message", [
    ('{"dim": 1, "entries": [{"label": "A", "value": 1e400}]}',
     "invalid input: value for 'A' is not finite"),
    ('{"dim": 2, "entries": [{"label": "A", "value": 0.5}]}',
     "DimMismatch: effect 'A' has dim 1, table has dim 2"),
    ('{"dim": 2, "entries": []}',
     "DimMismatch: effect 'A' has dim 1, table has dim 2")])
def test_a_table_that_its_effects_reject_is_an_input_error(tmp_path, capsys,
                                                           table, message):
    # 1e400 reads as inf; the other tables have another dim than the
    # effects file, the last with no entry to name an effect.
    effects = write(tmp_path / "e.json", {"dim": 1, "effects": [
        Effect(HermitianOperator.identity(1), "A").to_json_dict()]})
    values = tmp_path / "v.json"
    values.write_text(table)
    for argv in (["validate", str(values), "--kind", "valuation",
                  "--effects", effects],
                 ["reconstruct", effects, str(values)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == message + "\n", argv
# Every file argument of every command that reads files, as an argv that
# reaches it with the file "deep.json"; the other files are valid.
DEEP_JSON_ARGVS = {
    "validate path": ["validate", "deep.json", "--kind", "state"],
    "validate --effects": ["validate", "v.json", "--kind", "valuation",
                           "--effects", "deep.json"],
    "validate --povm": ["validate", "v.json", "--kind", "valuation",
                        "--effects", "f.json", "--povm", "deep.json"],
    "born state": ["born", "deep.json", "p.json"],
    "born povm": ["born", "s.json", "deep.json"],
    "reconstruct frame": ["reconstruct", "deep.json", "v.json"],
    "reconstruct values": ["reconstruct", "f.json", "deep.json"],
    "dfsearch contexts": ["dfsearch", "deep.json"],
    "dfsearch effects_file": ["dfsearch", "c.json"],
    "sample state": ["sample", "deep.json", "p.json", "--shots", "10"],
    "sample povm": ["sample", "s.json", "deep.json", "--shots", "10"],
}


@pytest.mark.parametrize("where", list(DEEP_JSON_ARGVS))
def test_json_nested_past_the_recursion_limit_is_a_parse_error(
        tmp_path, capsys, where):
    # json.loads raises RecursionError on this; json.dumps cannot write it.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 1100 + "]" * 1100, encoding="utf-8")
    write(tmp_path / "s.json", ground_state_payload())
    write(tmp_path / "p.json", z_povm_payload())
    write(tmp_path / "f.json", pauli_frame_payload())
    write(tmp_path / "v.json", frame_values_payload())
    write(tmp_path / "c.json", {"effects_file": "deep.json",
                                "contexts": [["I"]]})
    argv = [str(tmp_path / a) if a.endswith(".json") else a
            for a in DEEP_JSON_ARGVS[where]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"cannot parse {deep}: ")
    assert captured.err.count("\n") == 1


def test_validate_reports_a_povm_of_non_effects_as_born_does(tmp_path, capsys):
    # The two operators sum to I, but the first is not an effect.
    payload = {"dim": 2, "effects": [
        {"label": "A", "op": HermitianOperator(np.diag([1.5, 0.0])).to_json_dict()},
        {"label": "B", "op": HermitianOperator(np.diag([-0.5, 1.0])).to_json_dict()}]}
    povm = write(tmp_path / "p.json", payload)
    state = write(tmp_path / "s.json", ground_state_payload())
    born_code = main(["born", state, povm])
    born_out = capsys.readouterr()
    code = main(["validate", povm, "--kind", "povm"])
    captured = capsys.readouterr()
    assert code == born_code == 2
    assert captured == born_out
    assert captured.out == ""
    assert captured.err == ("ExceedsIdentity: effect 'A': maximum eigenvalue "
                            "1.500000e+00 > 1\n")


# Matrices of plain-float pairs, which jsonio packs as it reads them, that
# fail the matrix checks; and the stderr line each gives.
PACKED_MATRIX_FAULTS = {
    "d*d - 1 pairs": ({"dim": 2, "entries": [[0.25 * k, -0.0] for k in range(3)]},
                      "SchemaError: matrix.entries: expected 4 [re, im] pairs, "
                      "got 3\n"),
    "d*d + 1 pairs": ({"dim": 2, "entries": [[0.25 * k, -0.0] for k in range(5)]},
                      "SchemaError: matrix.entries: expected 4 [re, im] pairs, "
                      "got 5\n"),
    "dim 0": ({"dim": 0, "entries": [[0.0, -0.0]]},
              "SchemaError: matrix.dim must be a positive integer\n"),
}

# Each command that reads such a matrix: as a state, a POVM effect, a frame
# effect.
PACKED_MATRIX_ARGVS = {
    "validate state": ["validate", "bad_s.json", "--kind", "state"],
    "validate povm": ["validate", "bad_p.json", "--kind", "povm"],
    "validate --effects": ["validate", "v.json", "--kind", "valuation",
                           "--effects", "bad_f.json"],
    "born state": ["born", "bad_s.json", "p.json"],
    "born povm": ["born", "s.json", "bad_p.json"],
    "reconstruct frame": ["reconstruct", "bad_f.json", "v.json"],
}


@pytest.mark.parametrize("where", list(PACKED_MATRIX_ARGVS))
@pytest.mark.parametrize("fault", list(PACKED_MATRIX_FAULTS))
def test_a_packed_matrix_fails_its_checks_as_a_list_does(tmp_path, capsys,
                                                         fault, where):
    matrix, message = PACKED_MATRIX_FAULTS[fault]
    povm, frame = z_povm_payload(), pauli_frame_payload()
    povm["effects"][1]["op"] = matrix
    frame["effects"][1]["op"] = matrix
    write(tmp_path / "bad_s.json", matrix)
    write(tmp_path / "bad_p.json", povm)
    write(tmp_path / "bad_f.json", frame)
    write(tmp_path / "s.json", ground_state_payload())
    write(tmp_path / "p.json", z_povm_payload())
    write(tmp_path / "v.json", frame_values_payload())
    argv = [str(tmp_path / a) if a.endswith(".json") else a
            for a in PACKED_MATRIX_ARGVS[where]]
    assert (main(argv), *capsys.readouterr()) == (1, "", message)


@pytest.mark.parametrize("argv", [
    ["validate", "v.json", "--kind", "valuation"],
    ["validate", "v.json", "--kind", "valuation", "--effects", "f.json"],
    ["reconstruct", "f.json", "v.json"]], ids=["validate", "validate --effects",
                                              "reconstruct"])
def test_a_valuation_of_float_pairs_is_read_as_a_list(tmp_path, capsys, argv):
    write(tmp_path / "v.json", {"dim": 2, "entries": [[1.0, 0.0], [0.5, -0.0]]})
    write(tmp_path / "f.json", pauli_frame_payload())
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert (main(argv), *capsys.readouterr()) == (
        1, "", "SchemaError: valuation.entries[0]: expected a JSON object, "
               "got list\n")


class TestBorn:
    def test_ground_state_z_povm(self, tmp_path, capsys):
        state = write(tmp_path / "s.json", ground_state_payload())
        povm = write(tmp_path / "p.json", z_povm_payload())
        code, payload = run_cli(["born", state, povm], capsys)
        assert code == 0
        assert payload["probs"] == [1.0, 0.0]
        assert abs(payload["sum"] - 1.0) <= 1e-8

    def test_dim_mismatch(self, tmp_path, capsys):
        state = write(tmp_path / "s.json",
                      (HermitianOperator.identity(3) * (1 / 3)).to_json_dict())
        povm = write(tmp_path / "p.json", z_povm_payload())
        code, _ = run_cli(["born", state, povm], capsys)
        assert code == 2


def povm_without_effects():
    payload = z_povm_payload()
    del payload["effects"]
    return payload


def povm_effect_without_op():
    payload = z_povm_payload()
    del payload["effects"][1]["op"]
    return payload


@pytest.mark.parametrize("payload", [povm_without_effects(),
                                     povm_effect_without_op()])
@pytest.mark.parametrize("command", ["validate", "born"])
def test_malformed_povm_is_a_parse_error(tmp_path, capsys, payload, command):
    povm = write(tmp_path / "p.json", payload)
    if command == "validate":
        argv = ["validate", povm, "--kind", "povm"]
    else:
        argv = ["born", write(tmp_path / "s.json", ground_state_payload()), povm]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("SchemaError: ")


class TestReconstruct:
    def test_pauli_frame(self, tmp_path, capsys):
        frame = write(tmp_path / "f.json", pauli_frame_payload())
        values = write(tmp_path / "v.json", {
            "dim": 2, "entries": [
                {"label": "I", "value": 1.0}, {"label": "X", "value": 0.5},
                {"label": "Y", "value": 0.5}, {"label": "Z", "value": 1.0}]})
        code, payload = run_cli(["reconstruct", frame, values], capsys)
        assert code == 0
        state = HermitianOperator(operators.matrix_from_json(payload["state"]))
        assert np.allclose(state.array, np.diag([1.0, 0.0]), atol=1e-10)
        assert payload["diagnostics"]["rank"] == 4

    def test_deficient_frame_exit_code(self, tmp_path, capsys):
        frame_payload = {"dim": 2, "effects": [
            Effect(HermitianOperator.identity(2), "I").to_json_dict(),
            Effect(pauli_op(0, 0, 1), "Z").to_json_dict()]}
        frame = write(tmp_path / "f.json", frame_payload)
        values = write(tmp_path / "v.json", {
            "dim": 2, "entries": [{"label": "I", "value": 1.0},
                                  {"label": "Z", "value": 1.0}]})
        assert main(["reconstruct", frame, values]) == 3
        assert capsys.readouterr().err == (
            "FrameDeficient: frame spans only 2 of 4 dimensions\n")
        code, payload = run_cli(["reconstruct", frame, values, "--min-norm"],
                                capsys)
        assert code == 0
        assert payload["diagnostics"]["rank"] == 2

    def test_inconsistent_values_exit_code(self, tmp_path, capsys):
        payload = pauli_frame_payload()
        payload["effects"].append(
            Effect(0.5 * HermitianOperator.identity(2), "H").to_json_dict())
        frame = write(tmp_path / "f.json", payload)
        values = write(tmp_path / "v.json", {
            "dim": 2, "entries": [
                {"label": "I", "value": 1.0}, {"label": "X", "value": 0.5},
                {"label": "Y", "value": 0.5}, {"label": "Z", "value": 1.0},
                {"label": "H", "value": 0.6}]})
        assert main(["reconstruct", frame, values]) == 4
        assert capsys.readouterr().err == (
            "ValuesInconsistent: values violate linearity: residual "
            "8.944e-02 > 1e-06\n")

    def test_empty_frame_is_an_input_error(self, tmp_path, capsys):
        frame = write(tmp_path / "f.json", {"dim": 2, "effects": []})
        values = write(tmp_path / "v.json", {"dim": 2, "entries": []})
        code = main(["reconstruct", frame, values])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "invalid input: reconstruction needs a nonempty frame\n")


class TestNogo2d:
    def test_closed_form_weight(self, capsys):
        code, payload = run_cli(
            ["nogo2d", "--n", "0,0,1", "--m", "1,0,0", "--lambda", "0.5"],
            capsys)
        assert code == 0
        assert payload["mu"] == pytest.approx((1 + np.sqrt(2) / 2) / 2,
                                              abs=1e-10)
        assert payload["c"]["a"] == [0.5, 0.0, 0.5]

    def test_degenerate_lambda(self, capsys):
        code, _ = run_cli(
            ["nogo2d", "--n", "0,0,1", "--m", "1,0,0", "--lambda", "1"],
            capsys)
        assert code == 2

    def test_non_unit_vector(self, capsys):
        code, _ = run_cli(
            ["nogo2d", "--n", "0,0,2", "--m", "1,0,0", "--lambda", "0.5"],
            capsys)
        assert code == 2

    def test_a_mixture_too_close_to_pure_is_rejected(self, capsys):
        code = main(["nogo2d", "--n", "0,0,1", "--m", "1,0,0",
                     "--lambda", "1e-12"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "ParallelVectors: |c| = 0.999999999999 is too close to 1; the "
            "spectral weights degenerate and no contradiction arises\n")

    @pytest.mark.parametrize("flag, text, message", [
        ("--n", "1,2", "--n expects ax,ay,az"),
        ("--m", "inf,0,1", "--m: Bloch components must be finite")])
    def test_an_unreadable_vector_names_its_flag(self, capsys, flag, text,
                                                 message):
        vectors = {"--n": "0,0,1", "--m": "1,0,0", flag: text}
        code = main(["nogo2d", "--n", vectors["--n"], "--m", vectors["--m"],
                     "--lambda", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "\n"

    @pytest.mark.parametrize("flag", ["--n", "--m"])
    def test_a_negative_first_component_needs_the_equals_form(self, capsys,
                                                              flag):
        """argparse reads a separate ``-0.6,0.8,0`` as an option, so only
        ``--n=-0.6,0.8,0`` passes it; the help says so."""
        vectors = {"--n": "0,0,1", "--m": "1,0,0", flag: "-0.6,0.8,0"}
        code, out, err = main_outcome(
            ["nogo2d", "--n", vectors["--n"], "--m", vectors["--m"],
             "--lambda", "0.5"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: expected one argument\n")
        code, out, err = main_outcome(
            ["nogo2d", f"--n={vectors['--n']}", f"--m={vectors['--m']}",
             "--lambda", "0.5"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)[flag[2:]] == {"a": [-0.6, 0.8, 0.0]}
        code, out, _ = main_outcome(["nogo2d", "--help"], capsys)
        assert code == 0
        assert f"as in {flag}=-1,0,0" in " ".join(out.split())


def half_identity_context_files(tmp_path):
    effects = {"dim": 2, "effects": [
        Effect(HermitianOperator.identity(2), "I").to_json_dict(),
        Effect(0.5 * HermitianOperator.identity(2), "H").to_json_dict()]}
    write(tmp_path / "effects.json", effects)
    contexts = {"effects_file": "effects.json", "contexts": [["H", "H"]],
                "relations": []}
    return write(tmp_path / "contexts.json", contexts)


def projective_context_files(tmp_path):
    labels = {"P": (0, 0, 1), "Pp": (0, 0, -1), "Q": (1, 0, 0), "Qp": (-1, 0, 0)}
    effects = {"dim": 2, "effects": [
        Effect(pauli_op(*a), lb).to_json_dict() for lb, a in labels.items()]}
    write(tmp_path / "effects.json", effects)
    contexts = {"effects_file": "effects.json",
                "contexts": [["P", "Pp"], ["Q", "Qp"]]}
    return write(tmp_path / "contexts.json", contexts)


def declared_relation_context_files(tmp_path):
    """A context [A, B] that admits models, and the declared relation
    H + H = I with H = I/2, which none satisfies."""
    effects = {"dim": 2, "effects": [
        Effect(pauli_op(0, 0, 1), "A").to_json_dict(),
        Effect(pauli_op(0, 0, -1), "B").to_json_dict(),
        Effect(0.5 * HermitianOperator.identity(2), "H").to_json_dict()]}
    write(tmp_path / "effects.json", effects)
    contexts = {"effects_file": "effects.json", "contexts": [["A", "B"]],
                "relations": [{"addends": ["H", "H"], "target": "I"}]}
    return write(tmp_path / "contexts.json", contexts)


def peres_context_files(tmp_path):
    """Peres's 24 rays as effects r00..r23 and their 24 orthogonal tetrads
    as contexts, in the order of ``peres_rays``."""
    rays = np.array(peres_rays(), dtype=float)
    labels = [f"r{i:02d}" for i in range(len(rays))]
    effects = {"dim": 4, "effects": [
        Effect(HermitianOperator(np.outer(v, v) / np.dot(v, v)),
               lb).to_json_dict() for lb, v in zip(labels, rays)]}
    write(tmp_path / "effects.json", effects)
    contexts = {"effects_file": "effects.json",
                "contexts": [[labels[i] for i in t]
                             for t in orthogonal_tetrads(peres_rays())]}
    return write(tmp_path / "contexts.json", contexts)


class TestDfsearch:
    # 17 nodes are the least budget in which every deletion trial finishes
    @pytest.mark.parametrize("flags", [[], ["--budget", "17"]])
    def test_a_minimal_core_prints_no_core_minimal_key(self, tmp_path,
                                                       capsys, flags):
        contexts = peres_context_files(tmp_path)
        code = main(["dfsearch", contexts, *flags])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        core = ", ".join(
            '{"kind": "context", "labels": [%s]}'
            % ", ".join(f'"r{i:02d}"' for i in ctx) for ctx in PERES_CORE)
        assert captured.out == (
            f'{{"status": "unsat", "assignments": [], "core": [{core}], '
            f'"nodes": 295, "total_solutions": 0, '
            f'"toolkit_version": "{__version__}"}}\n')

    @pytest.mark.parametrize("budget", ["15", "16"])
    def test_a_starved_minimisation_says_its_core_is_not_minimal(
            self, tmp_path, capsys, budget):
        # the search closes within 15 nodes, but some deletion trials do not
        contexts = peres_context_files(tmp_path)
        code, payload = run_cli(["dfsearch", contexts, "--budget", budget],
                                capsys)
        assert code == 0
        assert list(payload) == ["status", "assignments", "core",
                                 "core_minimal", "nodes", "total_solutions",
                                 "toolkit_version"]
        assert payload["status"] == "unsat"
        assert payload["core_minimal"] is False
        assert len(payload["core"]) == 15

    # Peres-24: the search takes 15 nodes and its 24 deletion trials up to
    # 17 each, 280 in all at a budget of 17, so the sum exceeds the budget
    @pytest.mark.parametrize("budget, nodes, core, minimal", [
        ("17", 295, 11, None), ("16", 336, 15, False)])
    def test_the_budget_bounds_each_run_and_nodes_sums_them(
            self, tmp_path, capsys, budget, nodes, core, minimal):
        contexts = peres_context_files(tmp_path)
        code, payload = run_cli(["dfsearch", contexts, "--budget", budget],
                                capsys)
        assert code == 0
        assert payload["status"] == "unsat"
        assert payload["nodes"] == nodes > int(budget)
        assert len(payload["core"]) == core
        assert payload.get("core_minimal") is minimal

    def test_half_identity_unsat(self, tmp_path, capsys):
        contexts = half_identity_context_files(tmp_path)
        code, payload = run_cli(["dfsearch", contexts], capsys)
        assert code == 0
        assert payload["status"] == "unsat"
        assert len(payload["core"]) == 1
        assert payload["toolkit_version"]

    def test_projective_sat(self, tmp_path, capsys):
        contexts = projective_context_files(tmp_path)
        code, payload = run_cli(["dfsearch", contexts], capsys)
        assert code == 0
        assert payload["status"] == "sat"
        assert payload["total_solutions"] == 4
        assert len(payload["assignments"]) == 4

    def test_budget_gives_unknown(self, tmp_path, capsys):
        contexts = projective_context_files(tmp_path)
        code, payload = run_cli(["dfsearch", contexts, "--budget", "1"], capsys)
        assert code == 0
        assert payload["status"] == "unknown"

    def test_discover_relations_flag(self, tmp_path, capsys):
        contexts = projective_context_files(tmp_path)
        code, payload = run_cli(
            ["dfsearch", contexts, "--discover-relations"], capsys)
        assert code == 0
        # P + Pp = I and Q + Qp = I are discovered; they are consistent with
        # the contexts, so the count is unchanged
        assert payload["total_solutions"] == 4

    def test_empty_addends_in_a_file_name_the_relation(self, tmp_path,
                                                        capsys):
        half_identity_context_files(tmp_path)
        contexts = write(tmp_path / "contexts.json",
                         {"effects_file": "effects.json",
                          "contexts": [["H", "H"]],
                          "relations": [{"addends": [], "target": "I"}]})
        code = main(["dfsearch", contexts])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("SchemaError: relations[0]: addends must be "
                                "nonempty\n")

    @pytest.mark.parametrize("fields, line", [
        ({"contexts": [["A", "B"], ["A", 7]]},
         "SchemaError: contexts[1][1]: expected a string, got int\n"),
        ({"contexts": [["H", "H"]],
          "relations": [{"addends": ["A", 3], "target": "I"}]},
         "SchemaError: relations[0].addends[1]: expected a string, got int\n"),
    ], ids=["context", "addend"])
    def test_a_label_that_is_not_a_string_is_named_by_its_position(
            self, tmp_path, capsys, fields, line):
        half_identity_context_files(tmp_path)
        contexts = write(tmp_path / "contexts.json",
                         {"effects_file": "effects.json", **fields})
        code = main(["dfsearch", contexts])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == line

    def test_declared_relation_is_the_core(self, tmp_path, capsys):
        contexts = declared_relation_context_files(tmp_path)
        code = main(["dfsearch", contexts])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out == (
            '{"status": "unsat", "assignments": [], "core": [{"kind": '
            '"relation", "addends": ["H", "H"], "target": "I"}], "nodes": 1, '
            f'"total_solutions": 0, "toolkit_version": "{__version__}"}}\n')

    def test_failed_recheck_names_a_relation(self, tmp_path, capsys,
                                             monkeypatch):
        contexts = declared_relation_context_files(tmp_path)
        search = cli.search_dispersion_free

        def leaf_at_root(cs, **kwargs):
            result = search(cs, **kwargs)
            result.refutation = result.unsat_core[0]
            return result

        monkeypatch.setattr(cli, "search_dispersion_free", leaf_at_root)
        code = main(["dfsearch", contexts])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert captured.err == (
            "certificate failed independent re-verification: leaf at depth 0: "
            "relation: v(H) + v(H) = 1 has bounds [0, 2] on its path, which "
            "admit 1\n")

    @pytest.mark.parametrize("flags", [["--max-solutions", "0"],
                                       ["--budget", "0"],
                                       ["--budget", "-5"]])
    def test_bounds_below_one_are_parameter_errors(self, tmp_path, capsys,
                                                   flags):
        contexts = projective_context_files(tmp_path)
        code, payload = run_cli(["dfsearch", contexts, *flags], capsys)
        assert code == 2
        assert payload is None

    def test_failed_recheck_names_the_check(self, tmp_path, capsys,
                                            monkeypatch):
        contexts = half_identity_context_files(tmp_path)
        search = cli.search_dispersion_free

        def leaf_at_root(cs, **kwargs):
            # the [H, H] context alone cannot be a leaf: with H unassigned
            # its bounds [0, 2] admit 1
            result = search(cs, **kwargs)
            result.refutation = result.unsat_core[0]
            return result

        monkeypatch.setattr(cli, "search_dispersion_free", leaf_at_root)
        code = main(["dfsearch", contexts])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert "leaf at depth 0" in captured.err
        assert "v(H) + v(H) = 1" in captured.err
        assert "[0, 2]" in captured.err


def pairs_context_files(tmp_path, n, triangle=None):
    """d = 1 effects a_i = (i + 1)/(3n) and c_i = 1 - a_i with the contexts
    [a_i, c_i]: n free branch variables. With ``triangle`` "before" or
    "after" the pairs, the contexts [x, y], [y, z], [x, z] over x = y = z =
    I/2 are added there, which no {0,1} assignment satisfies."""
    def op(value):
        return {"dim": 1, "entries": [[value, 0.0]]}
    effects, pairs = [], []
    for i in range(n):
        a = (i + 1) / (3 * n)
        effects += [{"label": f"a{i}", "op": op(a)},
                    {"label": f"c{i}", "op": op(1 - a)}]
        pairs.append([f"a{i}", f"c{i}"])
    odd = [["x", "y"], ["y", "z"], ["x", "z"]] if triangle else []
    effects += [{"label": lb, "op": op(0.5)} for lb in "xyz" if triangle]
    write(tmp_path / "effects.json", {"dim": 1, "effects": effects})
    contexts = odd + pairs if triangle == "before" else pairs + odd
    return write(tmp_path / "contexts.json",
                 {"effects_file": "effects.json", "contexts": contexts})


class TestDeepSearch:
    """Searches with thousands of branch variables end with a result, not
    a RecursionError: the depth of the search and of the deletion trials
    is not bounded by the Python stack."""

    def run(self, tmp_path, capsys, n, triangle=None):
        contexts = pairs_context_files(tmp_path, n, triangle)
        code = main(["dfsearch", contexts, "--max-solutions", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        return json.loads(captured.out)

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_free_pairs_are_sat(self, tmp_path, capsys, n):
        payload = self.run(tmp_path, capsys, n)
        assert payload["status"] == "sat"
        first = {}
        for i in range(n):
            first.update({f"a{i}": 0, f"c{i}": 1})
        assert payload["assignments"] == [first]
        assert payload["nodes"] == 1_000_001
        assert payload["total_solutions"] is None

    def test_a_triangle_after_the_pairs_exhausts_the_budget(self, tmp_path,
                                                            capsys):
        payload = self.run(tmp_path, capsys, 1000, "after")
        assert payload["status"] == "unknown"
        assert payload["nodes"] == 1_000_001

    def test_a_triangle_before_the_pairs_is_the_core(self, tmp_path, capsys):
        # The search closes at once, but each deletion trial of a triangle
        # context finds a model 1 000 levels deep.
        payload = self.run(tmp_path, capsys, 1000, "before")
        assert payload["status"] == "unsat"
        assert payload["core"] == [
            {"kind": "context", "labels": pair}
            for pair in (["x", "y"], ["y", "z"], ["x", "z"])]
        assert payload["nodes"] == 4007
        assert "core_minimal" not in payload


def near_z_files(tmp_path, down):
    """The pair up = diag(1, 0), down = diag(0, ``down``) written as a POVM,
    an effects file, a state, a valuation, and three context sets: the pair
    as a context, as the relation up + down = I, and as both."""
    def op(*diag):
        return HermitianOperator(np.diag(diag)).to_json_dict()
    pair = [{"label": "up", "op": op(1.0, 0.0)},
            {"label": "down", "op": op(0.0, down)}]
    files = {
        "povm": write(tmp_path / "p.json", {"dim": 2, "effects": pair}),
        "effects": write(tmp_path / "effects.json",
                         {"dim": 2, "effects": pair}),
        "state": write(tmp_path / "s.json", op(0.75, 0.25)),
        "values": write(tmp_path / "v.json", {"dim": 2, "entries": [
            {"label": "up", "value": 0.75},
            {"label": "down", "value": 0.25}]})}
    relation = {"addends": ["up", "down"], "target": "I"}
    for name, contexts, relations in (("context", [["up", "down"]], []),
                                      ("relation", [], [relation]),
                                      ("both", [["up", "down"]], [relation])):
        files[name] = write(tmp_path / f"{name}.json", {
            "effects_file": "effects.json", "contexts": contexts,
            "relations": relations})
    return files


def one_sum_rule_calls(files):
    return [["born", files["state"], files["povm"]],
            ["sample", files["state"], files["povm"], "--shots", "10"],
            ["validate", files["povm"], "--kind", "povm"],
            ["dfsearch", files["context"]],
            ["dfsearch", files["relation"]],
            ["dfsearch", files["both"]],
            ["validate", files["values"], "--kind", "valuation",
             "--effects", files["effects"], "--povm", files["povm"]]]


class TestOneSumRule:
    """A POVM, a context and a relation are one sum identity, accepted by
    one test at d * TOL.sum_per_dim: 2e-8 at d = 2."""

    def test_pair_within_the_bound_is_accepted_everywhere(self, tmp_path,
                                                          capsys):
        searches = []
        for argv in one_sum_rule_calls(near_z_files(tmp_path, 1.0 + 5e-10)):
            code, payload = run_cli(argv, capsys)
            assert code == 0, argv
            if argv[0] == "dfsearch":
                searches.append((payload["status"], payload["assignments"]))
        assert searches == [("sat", [{"up": 0, "down": 1},
                                     {"up": 1, "down": 0}])] * 3

    @pytest.mark.parametrize("down", [1.0 - 3e-8, 1.0 + 3e-8])
    def test_pair_past_the_bound_is_rejected_everywhere(self, tmp_path,
                                                        capsys, down):
        # 1 - 3e-8 is an effect whose sum with up misses I by 3e-8; 1 + 3e-8
        # is not an effect at all.
        for argv in one_sum_rule_calls(near_z_files(tmp_path, down)):
            assert main(argv) == 2, argv
        capsys.readouterr()

    def test_relation_past_the_bound_names_it(self, tmp_path, capsys):
        files = near_z_files(tmp_path, 1.0 - 3e-8)
        assert main(["dfsearch", files["relation"]]) == 2
        assert capsys.readouterr().err == (
            "BadRelation: claimed identity up + down = I fails: Frobenius "
            "deviation 3.000e-08 > 2e-08\n")


@pytest.mark.parametrize("where", ["valuation", "context"])
def test_a_long_label_prints_one_short_stderr_line(tmp_path, capsys, where):
    label = "x" * 100_000
    files = near_z_files(tmp_path, 1.0)
    if where == "valuation":
        values = write(tmp_path / "long.json", {"dim": 2, "entries": [
            {"label": label, "value": 0.5}]})
        argv = ["validate", values, "--kind", "valuation",
                "--effects", files["effects"]]
    else:
        argv = ["dfsearch", write(tmp_path / "long.json", {
            "effects_file": "effects.json", "contexts": [["up", label]]})]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("UnknownLabel: label 'xxxxxxxxxx")
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize("where", ["context", "relation"])
def test_a_long_label_list_prints_one_short_stderr_line(tmp_path, capsys,
                                                         where):
    quarter = HermitianOperator(np.diag([0.25, 0.25])).to_json_dict()
    write(tmp_path / "effects.json",
          {"dim": 2, "effects": [{"label": "H", "op": quarter}]})
    labels = ["H"] * 5000
    contexts, relations = (([labels], []) if where == "context"
                           else ([], [{"addends": labels, "target": "I"}]))
    argv = ["dfsearch", write(tmp_path / "c.json", {
        "effects_file": "effects.json", "contexts": contexts,
        "relations": relations})]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200
    if where == "context":
        assert captured.err.startswith(
            "BadContext: context #0 [" + "'H', " * 8 + "... (4992 more)]: ")
    else:
        assert captured.err.startswith(
            "BadRelation: claimed identity " + "H + " * 8
            + "... (4992 more) = I fails: Frobenius deviation ")


def repeated_label_files(tmp_path):
    """An effects file naming diag(1, 0) and diag(0, 1) both ``A``, a
    valuation with v(A) = 0.3, and a context set over the effects file."""
    def op(*diag):
        return HermitianOperator(np.diag(diag)).to_json_dict()
    effects = write(tmp_path / "effects.json", {"dim": 2, "effects": [
        {"label": "A", "op": op(1.0, 0.0)},
        {"label": "A", "op": op(0.0, 1.0)}]})
    values = write(tmp_path / "v.json", {"dim": 2, "entries": [
        {"label": "A", "value": 0.3}]})
    contexts = write(tmp_path / "c.json", {"effects_file": "effects.json",
                                           "contexts": [["A"]]})
    return effects, values, contexts


class TestRepeatedEffectLabel:
    def test_every_command_rejects_it(self, tmp_path, capsys):
        effects, values, contexts = repeated_label_files(tmp_path)
        for argv in (["reconstruct", effects, values],
                     ["validate", values, "--kind", "valuation",
                      "--effects", effects],
                     ["dfsearch", contexts]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "invalid input: duplicate effect label 'A'\n"), argv

    def test_a_povm_file_may_repeat_a_label(self, tmp_path, capsys):
        half = HermitianOperator(np.diag([0.5, 0.5])).to_json_dict()
        povm = write(tmp_path / "p.json", {"dim": 2, "effects": [
            {"label": "u", "op": half}, {"label": "u", "op": half}]})
        state = write(tmp_path / "s.json", ground_state_payload())
        code, report = run_cli(["validate", povm, "--kind", "povm"], capsys)
        assert code == 0 and report["valid"]
        code, payload = run_cli(["born", state, povm], capsys)
        assert code == 0
        assert payload["probs"] == [0.5, 0.5]


class TestSampleAndGen:
    def test_sample_eigenstate(self, tmp_path, capsys):
        state = write(tmp_path / "s.json", ground_state_payload())
        povm = write(tmp_path / "p.json", z_povm_payload())
        code, payload = run_cli(
            ["sample", state, povm, "--shots", "100", "--seed", "0"], capsys)
        assert code == 0
        assert payload["counts"] == [100, 0]
        assert payload["n"] == 100

    def test_gen_povm_then_validate(self, tmp_path, capsys):
        out = str(tmp_path / "povm.json")
        code, _ = run_cli(["gen", "--kind", "povm", "--dim", "3", "--seed", "7",
                           "--out", out], capsys)
        assert code == 0
        code, report = run_cli(["validate", out, "--kind", "povm"], capsys)
        assert code == 0 and report["valid"]

    def test_gen_state_then_validate(self, tmp_path, capsys):
        out = str(tmp_path / "state.json")
        code, _ = run_cli(["gen", "--kind", "state", "--dim", "2", "--seed", "1",
                           "--out", out], capsys)
        assert code == 0
        code, report = run_cli(["validate", out, "--kind", "state"], capsys)
        assert code == 0 and report["valid"]

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]])
    def test_out_holds_the_bytes_of_stdout(self, tmp_path, capsys, pretty):
        argv = ["gen", "--kind", "povm", "--dim", "3", "--seed", "7", *pretty]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "povm.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    def test_gen_is_byte_deterministic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run_cli(["gen", "--kind", "povm", "--dim", "3", "--seed", "7",
                 "--out", a], capsys)
        run_cli(["gen", "--kind", "povm", "--dim", "3", "--seed", "7",
                 "--out", b], capsys)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_sample_is_byte_deterministic(self, tmp_path, capsys):
        state = write(tmp_path / "s.json", ground_state_payload())
        povm = write(tmp_path / "p.json", z_povm_payload())
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            run_cli(["sample", state, povm, "--shots", "500", "--seed", "3",
                     "--out", out], capsys)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    @pytest.mark.parametrize("kind", ["state", "effect", "povm"])
    def test_gen_above_max_dim_draws_nothing(self, capsys, monkeypatch, kind):
        def no_draws(dim, rng):
            raise AssertionError(f"drew a {dim}x{dim} sample")

        monkeypatch.setattr(generate, "_ginibre", no_draws)
        code, payload = run_cli(["gen", "--kind", kind, "--dim",
                                 str(operators.MAX_DIM + 1)], capsys)
        assert code == 2
        assert payload is None

    def test_gen_zero_outcomes_is_a_parameter_error(self, capsys):
        code, payload = run_cli(["gen", "--kind", "povm", "--dim", "2",
                                 "--outcomes", "0"], capsys)
        assert code == 2
        assert payload is None

    @pytest.mark.parametrize("kind", ["state", "effect"])
    @pytest.mark.parametrize("outcomes", ["3", "-3"])
    def test_gen_outcomes_without_a_povm_is_a_parameter_error(
            self, capsys, kind, outcomes):
        assert main(["gen", "--kind", kind, "--dim", "2",
                     "--outcomes", outcomes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--outcomes applies only to --kind povm\n"

    @pytest.mark.parametrize("kind", ["state", "effect", "povm"])
    def test_gen_dim_below_one_is_a_parameter_error(self, capsys, kind):
        code, payload = run_cli(["gen", "--kind", kind, "--dim", "0"], capsys)
        assert code == 2
        assert payload is None

    def test_bad_shot_count(self, tmp_path, capsys):
        state = write(tmp_path / "s.json", ground_state_payload())
        povm = write(tmp_path / "p.json", z_povm_payload())
        code, _ = run_cli(["sample", state, povm, "--shots", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("shots", [str(2 ** 63), str(10 ** 22)])
    def test_a_shot_count_past_int64_is_named(self, tmp_path, capsys, shots):
        state = write(tmp_path / "s.json", ground_state_payload())
        povm = write(tmp_path / "p.json", z_povm_payload())
        code = main(["sample", state, povm, "--shots", shots])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "invalid input: shot count must be below 2**63\n"


class TestArgumentHandling:
    def test_unknown_flag_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--kind", "state", "--dim", "2", "--frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_out_is_an_io_error(self, tmp_path, capsys, target):
        out = str(tmp_path / "missing" / "x.json"
                  if target == "missing directory" else tmp_path)
        code = main(["gen", "--kind", "state", "--dim", "2", "--out", out])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write {out}: ")
        assert captured.err.count("\n") == 1

    def test_pretty_output(self, tmp_path, capsys):
        code, _ = run_cli(["gen", "--kind", "state", "--dim", "2", "--pretty"],
                          capsys)
        assert code == 0

    def test_console_entry_point(self, tmp_path):
        state = tmp_path / "s.json"
        jsonio.dump(ground_state_payload(), state)
        proc = subprocess.run(
            [sys.executable, "-m", "effectkit", "validate", str(state),
             "--kind", "state"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["valid"] is True


NOGO2D = ["nogo2d", "--n", "1,0,0", "--m", "0,1,0", "--lambda", "0.5"]
FULL_DEVICE = "/dev/full"
NO_SPACE = "cannot write <stdout>: [Errno 28] No space left on device\n"

# Runs cli.run() on its command-line arguments, then appends the collector's
# freeze count and the exit code to stderr as one last line.
RUN_AND_REPORT = """
import gc, sys
from effectkit import cli
try:
    cli.run()
except SystemExit as exc:
    sys.stderr.write(f"frozen={gc.get_freeze_count()} code={exc.code}\\n")
    raise
"""


def main_outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process ``main`` call, with
    argparse's SystemExit read as its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(unbuffered: bool) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestProcessEntry:
    @pytest.mark.parametrize("argv, expected", [
        (["--version"], 0),
        (NOGO2D, 0),
        (["nogo2d", "--n", "1,0,0"], 2),
        (["nogo2d", "--n", "1,0,0", "--m", "1,0,0", "--lambda", "0.5"], 2),
    ], ids=["version", "command", "usage error", "library error"])
    def test_run_freezes_and_exits_with_mains_code(self, capsys, argv,
                                                   expected):
        code, out, err = main_outcome(argv, capsys)
        assert code == expected
        proc = subprocess.run([sys.executable, "-c", RUN_AND_REPORT, *argv],
                              capture_output=True, text=True)
        head, _, last = proc.stderr.rstrip("\n").rpartition("\n")
        frozen, _, exit_code = last.partition(" ")
        assert int(frozen.removeprefix("frozen=")) > 0
        assert exit_code == f"code={expected}"
        assert proc.returncode == expected
        assert proc.stdout == out
        assert head + "\n" * bool(head) == err

    def test_main_never_freezes(self, capsys):
        before = gc.get_freeze_count()
        for _ in range(3):
            assert main(NOGO2D) == 0
        assert gc.get_freeze_count() == before


class _FailingStream(io.StringIO):
    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


class TestStdoutFailure:
    """A failed stdout write prints one stderr line and exits 1, as a
    failed ``--out`` write does."""

    @pytest.mark.skipif(not os.path.exists(FULL_DEVICE),
                        reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_a_full_device(self, unbuffered):
        with open(FULL_DEVICE, "w") as full:
            proc = subprocess.run([sys.executable, "-m", "effectkit", *NOGO2D],
                                  stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=child_env(unbuffered))
        assert proc.returncode == 1
        assert proc.stderr == NO_SPACE

    @pytest.mark.skipif(not os.path.exists(FULL_DEVICE),
                        reason="no /dev/full")
    def test_version_on_a_full_buffered_device(self):
        # The write fills the buffer; its flush fails, and run()'s flush of
        # the same bytes prints no second line.
        with open(FULL_DEVICE, "w") as full:
            proc = subprocess.run([sys.executable, "-m", "effectkit",
                                   "--version"],
                                  stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=child_env(False))
        assert proc.returncode == 1
        assert proc.stderr == NO_SPACE

    @pytest.mark.skipif(not os.path.exists(FULL_DEVICE),
                        reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["--version"], ["--help"],
                                      ["born", "--help"]],
                             ids=["version", "help", "command help"])
    def test_argparse_text_on_a_full_unbuffered_device(self, argv):
        # argparse itself ignores a failed write: with no bytes left
        # buffered, nothing failed and the process exited 0.
        with open(FULL_DEVICE, "w") as full:
            proc = subprocess.run([sys.executable, "-m", "effectkit", *argv],
                                  stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=child_env(True))
        assert proc.returncode == 1
        assert proc.stderr == NO_SPACE

    def test_version_on_a_closed_stdout(self):
        proc = subprocess.run([sys.executable, "-m", "effectkit", "--version"],
                              stderr=subprocess.PIPE, text=True,
                              preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1
        assert proc.stderr == "cannot write <stdout>: stdout is closed\n"

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_in_process_help_leaves_the_callers_stream_open(self, capsys,
                                                            failing):
        stream = _FailingStream(failing)
        with contextlib.redirect_stdout(stream):
            code = main(["born", "--help"])
        assert code == 1
        assert capsys.readouterr().err == NO_SPACE
        assert not stream.closed

    def test_a_usage_error_is_unchanged_on_a_full_stdout(self, capsys):
        expected = main_outcome(["born"], capsys)
        with contextlib.redirect_stdout(_FailingStream("write")):
            assert main_outcome(["born"], capsys) == expected
        assert expected[0] == 2
        assert expected[2].startswith("usage: effectkit born")

    def test_a_closed_stdout(self):
        proc = subprocess.run([sys.executable, "-m", "effectkit", *NOGO2D],
                              stderr=subprocess.PIPE, text=True,
                              preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1
        assert proc.stderr == "cannot write <stdout>: stdout is closed\n"

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_in_process_the_callers_stream_stays_open(self, capsys, failing):
        stream = _FailingStream(failing)
        with contextlib.redirect_stdout(stream):
            code = main(NOGO2D)
        assert code == 1
        assert capsys.readouterr().err == NO_SPACE
        assert not stream.closed

    def test_in_process_without_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        assert main(NOGO2D) == 1
        assert capsys.readouterr().err == (
            "cannot write <stdout>: stdout is closed\n")


class TestPipelines:
    def test_exact_tomography_round_trip(self, tmp_path, capsys):
        # gen state, gen povms until the union frame spans, born values per
        # povm, reconstruct, compare
        state_path = str(tmp_path / "state.json")
        run_cli(["gen", "--kind", "state", "--dim", "2", "--seed", "11",
                 "--out", state_path], capsys)
        truth = HermitianOperator(
            operators.matrix_from_json(jsonio.load(state_path)))

        frame_effects = []
        values = []
        seed = 0
        while True:
            povm_path = str(tmp_path / f"povm{seed}.json")
            run_cli(["gen", "--kind", "povm", "--dim", "2", "--seed",
                     str(seed), "--outcomes", "2", "--out", povm_path], capsys)
            povm = Povm(effects_from_json_dict(jsonio.load(povm_path)))
            code, born_payload = run_cli(["born", state_path, povm_path], capsys)
            assert code == 0
            for e, p in zip(povm.effects, born_payload["probs"]):
                renamed = Effect(e.op, f"s{seed}_{e.label}")
                frame_effects.append(renamed)
                values.append(p)
            rank = np.linalg.matrix_rank(hermitian_coords(
                [e.op.array for e in frame_effects]), tol=1e-8)
            if rank == 4:
                break
            seed += 1
            assert seed < 20

        frame_path = write(tmp_path / "frame.json", {
            "dim": 2, "effects": [e.to_json_dict() for e in frame_effects]})
        values_path = write(tmp_path / "values.json", {
            "dim": 2, "entries": [
                {"label": e.label, "value": v}
                for e, v in zip(frame_effects, values)]})
        code, payload = run_cli(["reconstruct", frame_path, values_path], capsys)
        assert code == 0
        recovered = HermitianOperator(
            operators.matrix_from_json(payload["state"]))
        assert np.linalg.norm(recovered.array - truth.array) <= 1e-8

    def test_sampled_tomography_pipeline(self, tmp_path, capsys):
        # sample (CLI) -> estimate (library step) -> reconstruct --project-psd
        state_path = str(tmp_path / "state.json")
        run_cli(["gen", "--kind", "state", "--dim", "2", "--seed", "5",
                 "--out", state_path], capsys)
        truth = HermitianOperator(
            operators.matrix_from_json(jsonio.load(state_path)))

        povm_path = str(tmp_path / "povm.json")
        run_cli(["gen", "--kind", "povm", "--dim", "2", "--seed", "6",
                 "--outcomes", "4", "--out", povm_path], capsys)
        povm = Povm(effects_from_json_dict(jsonio.load(povm_path)))
        assert np.linalg.matrix_rank(
            hermitian_coords([e.op.array for e in povm.effects]),
            tol=1e-8) == 4

        record_path = str(tmp_path / "record.json")
        code, _ = run_cli(["sample", state_path, povm_path, "--shots",
                           "1000000", "--seed", "0", "--out", record_path],
                          capsys)
        assert code == 0
        fields = jsonio.load(record_path)
        record = SampleRecord(tuple(fields["povm"]), tuple(fields["counts"]),
                              fields["seed"])
        assert record.n == fields["n"]
        table = estimate_valuation(record, povm)
        values_path = write(tmp_path / "values.json", table.to_json_dict())
        frame_path = write(tmp_path / "frame.json", povm.to_json_dict())

        code, payload = run_cli(["reconstruct", frame_path, values_path,
                                 "--project-psd"], capsys)
        assert code == 0
        recovered = HermitianOperator(
            operators.matrix_from_json(payload["state"]))
        assert np.linalg.norm(recovered.array - truth.array) <= 0.01
        assert payload["diagnostics"]["projected"] is True
