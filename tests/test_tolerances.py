"""The tolerance table: one home for every tolerance, and one validation path.

Every numerical tolerance lives in ``operators.TOL``; a float literal
in (0, 1e-5] anywhere else in the package is a tolerance that escaped the
table. The effect and state checks that ``effectkit validate`` prints are
the ones ``Effect`` and ``DensityOperator`` raise from, so the library and
the CLI must agree right at the tolerance boundary. Beside the literal
guard, a second source guard finds imports that a module never uses, which
a removed function or tolerance parameter can leave behind, a third
keeps every CLI command, ``validate`` and ``dfsearch`` among them, reading
files with the library's readers alone (no ``jsonio.expect_*`` call in
``cli.py``), and a fourth keeps numpy and ``TOL`` out of the CLI, so every
operator comparison and axiom rule it reports is the library's. A fifth
keeps the bound of every sum identity read at one site, so a POVM, a
context and a relation are accepted by one test, and the same-operator
bound read in ``effects`` alone. A sixth keeps the integer
reading of a search constraint in ``AdditivityRelation.row()``, so the
search and its certificate re-check read one equation per constraint, and
``nogo`` compares no constraint's ``kind`` or ``target``. A seventh keeps
the ``json`` module inside ``jsonio``, so the package has one emitter and
one float format. An eighth keeps the axiom report rows built in the
library: the CLI neither names a relation nor tests a value's range, and
writes no row of its own. A
ninth keeps every module to the public names of its siblings. A tenth
keeps the eigenvalue solver in ``operators``, where each spectrum is
computed once and kept on its operator. An eleventh keeps every function
in ``nogo`` from calling itself, so the depth of a search is not bounded
by the Python stack. A twelfth keeps ``PackedEntries.pack`` in ``jsonio``,
so the rule for a plain-float [re, im] pair is written once. A thirteenth
keeps ``cli.run`` the one process entry: ``python -m effectkit``, the
``effectkit`` script and ``cli.py`` run as a script all call it, so every
process freezes the collector before its exit and handles a failed stdout
once. A fourteenth keeps ``__init__`` out of every class in ``errors``, so
an error carries its message alone and the exact figures it quotes are
read from the check rows that ``validate`` prints. A fifteenth keeps
``print`` out of every ``cmd_*`` function of the CLI, so ``main`` prints
every command's failure line. A sixteenth keeps every ``NotPositive``,
``ExceedsIdentity``, ``SumNotIdentity`` and ``TraceNotOne`` worded by
``errors.raise_first_failure`` from its failed row, so the message and
the row that ``validate`` prints quote one figure and one bound.
"""

import ast
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import effectkit
from effectkit import (
    TOL,
    AdditivityRelation,
    BadRelation,
    DensityOperator,
    DuplicateOperatorWarning,
    Effect,
    HermitianOperator,
    Povm,
    TableEntry,
    ValuationTable,
    build_context_set,
    check_gpm,
    complement,
    jsonio,
)
from effectkit.cli import main
from effectkit.effects import operator_equals
from effectkit.valuation import povm_relation

PACKAGE = Path(effectkit.__file__).parent
TABLE_MODULE, TABLE_CLASS = "operators.py", "TOL"
SMALLEST_NON_TOLERANCE = 1e-5


def _small_floats(tree: ast.AST) -> list[ast.Constant]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < node.value <= SMALLEST_NON_TOLERANCE]


def test_no_tolerance_literal_outside_the_table():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = [node for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) and node.name == TABLE_CLASS]
        allowed = {id(c) for node in table for c in _small_floats(node)}
        stray += [f"{path.name}:{c.lineno}: {c.value!r}"
                  for c in _small_floats(tree) if id(c) not in allowed]
        if path.name == TABLE_MODULE:
            assert len(table) == 1, "the tolerance table is missing"
            assert allowed, "the tolerance table holds no small constant"
    assert not stray, "tolerance literals outside the table:\n" + "\n".join(stray)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement and never read as a name; the
    ``__future__`` directives bind nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # imports there are the public API
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused += [f"{path.name}: {name}" for name in _unused_imports(tree)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_validate_has_no_parser_of_its_own():
    """Nothing in ``cli.py`` calls a ``jsonio.expect_*`` schema helper, so
    every file a command reads (``dfsearch``'s context set among them) goes
    through a library reader, and ``cmd_validate`` catches no
    ``EffectKitError``, so no library error is reported as a failed check
    of another name."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    called = [node.func.attr if isinstance(node.func, ast.Attribute)
              else getattr(node.func, "id", "")
              for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [name for name in called if name.startswith("expect_")]
    validate = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "cmd_validate")
    caught = {name.id for handler in ast.walk(validate)
              if isinstance(handler, ast.ExceptHandler) and handler.type
              for name in ast.walk(handler.type) if isinstance(name, ast.Name)}
    assert "EffectKitError" not in caught


def test_cli_imports_neither_numpy_nor_the_tolerance_table():
    """Operator comparisons and axiom rules stay in the library: ``cli.py``
    has no arrays to compare and no tolerance to compare them with."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
            imported.update(alias.name for alias in node.names)
    assert "numpy" not in imported
    assert "TOL" not in imported


def test_cli_builds_no_axiom_row_of_its_own():
    """``cli.py`` calls no ``describe``, imports neither ``p1_in_range`` nor
    ``SumNotIdentity`` and writes no dict display with an ``"ok"`` key: the
    library's checks build every row ``validate`` prints, so the CLI only
    names the rows it is given."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    called = [node.func.attr if isinstance(node.func, ast.Attribute)
              else getattr(node.func, "id", "")
              for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert "describe" not in called
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & {"p1_in_range", "SumNotIdentity"}
    rows = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            and any(isinstance(key, ast.Constant) and key.value == "ok"
                    for key in node.keys)]
    assert not rows, rows


def test_only_jsonio_imports_json():
    """Every other module reads and writes JSON through ``jsonio``, so no
    second emitter can print a float other than at ``.17g``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "jsonio.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "json"]
    assert found == []


def test_only_jsonio_packs_entries():
    """``PackedEntries.pack`` is read in ``jsonio.py`` alone, as a file is
    decoded, so the rule for a plain-float [re, im] pair is written once:
    every other module takes packed entries as they come and reads any
    other list entry by entry."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.name] = [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "pack"
            and "PackedEntries" in ast.unparse(node.value)]
    assert found.pop("jsonio.py"), "jsonio never packs entries"
    assert not sum(found.values(), []), found


def _table_reads(entry: str) -> list[str]:
    """The package's reads of ``TOL.<entry>``, by attribute or by name."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == entry)
                  or (isinstance(node, ast.Constant) and node.value == entry)]
    return reads


def test_the_sum_bound_is_read_at_one_site():
    """``effects.sum_equals`` alone reads ``TOL.sum_per_dim``, by attribute
    or by name, so no second sum-identity test can have its own bound.
    ``TOL.same_operator`` is read in ``effects.py`` alone, by
    ``operator_equals``, the duplicate scan's filter and its message, so
    every module calls two operators the same by one rule."""
    reads = _table_reads("sum_per_dim")
    assert len(reads) == 1, reads
    assert reads[0].startswith("effects.py:"), reads
    reads = _table_reads("same_operator")
    assert reads, "TOL.same_operator is never read"
    assert all(site.startswith("effects.py:") for site in reads), reads


def test_constraints_are_read_only_through_their_row():
    """No comparison anywhere in ``nogo.py`` reads a ``kind`` or a
    ``target``: what a constraint means as an integer equation is
    ``AdditivityRelation.row()`` in ``valuation.py``, for the search and the
    certificate re-check alike."""
    valuation = ast.parse(
        (PACKAGE / "valuation.py").read_text(encoding="utf-8"))
    relation = [node for node in ast.walk(valuation)
                if isinstance(node, ast.ClassDef)
                and node.name == "AdditivityRelation"]
    assert len(relation) == 1, "AdditivityRelation is missing"
    assert "row" in {node.name for node in relation[0].body
                     if isinstance(node, ast.FunctionDef)}
    tree = ast.parse((PACKAGE / "nogo.py").read_text(encoding="utf-8"))
    reads = [f"nogo.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             and any(isinstance(a, ast.Attribute)
                     and a.attr in ("kind", "target") for a in ast.walk(node))]
    assert not reads, reads


def test_no_module_imports_a_private_name_of_a_sibling():
    """A name that starts with ``_`` (a dunder such as ``__version__``
    aside) stays in its module: what one module shares with another is
    public, so it is also what a library caller gets."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}: {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith(
                      "effectkit"))
                  for alias in node.names
                  if alias.name.startswith("_")
                  and not alias.name.endswith("__")]
    assert not found, found


def test_only_operators_calls_the_eigenvalue_solver():
    """``np.linalg.eigvalsh`` is named in ``operators.py`` alone, so every
    spectrum is ``eigenvalues_of``'s or a ``hermitian_stack``'s, which keep
    it on the operator for every later check."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute)
                      and node.attr == "eigvalsh")
                  or (isinstance(node, ast.Name) and node.id == "eigvalsh")
                  or (isinstance(node, ast.alias)
                      and node.name.split(".")[-1] == "eigvalsh")
                  or (isinstance(node, ast.Constant)
                      and node.value == "eigvalsh")]
    assert found, "no eigenvalue solver call found"
    assert all(site.startswith("operators.py:") for site in found), found


def test_no_function_in_nogo_calls_itself():
    """No function or method in ``nogo.py`` calls itself by name, so a
    search with thousands of branch variables, its deletion trials and the
    walks of its trees end with a result, not a RecursionError."""
    tree = ast.parse((PACKAGE / "nogo.py").read_text(encoding="utf-8"))
    found = [f"nogo.py:{call.lineno}: {fn.name}"
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for call in ast.walk(fn) if isinstance(call, ast.Call)
             if (isinstance(call.func, ast.Name) and call.func.id == fn.name)
             or (isinstance(call.func, ast.Attribute)
                 and call.func.attr == fn.name
                 and isinstance(call.func.value, ast.Name)
                 and call.func.value.id in ("self", "cls"))]
    assert not found, found


def test_no_error_class_defines_an_init():
    """Every class in ``errors.py`` takes ``Exception``'s constructor, so
    an error has no attribute beside its message: the figure a message
    states has no second copy on the exception, and its exact value is in
    the check rows (``effect_checks``, ``state_checks``)."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes, "no class found in errors.py"
    found = [f"errors.py:{fn.lineno}: {cls.name}.__init__"
             for cls in classes for fn in ast.walk(cls)
             if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
    assert not found, found


# The errors of a failed check row, and the one message of such an error
# that has no row: a POVM of no effect has no sum to measure.
CHECK_ERRORS = {"NotPositive", "ExceedsIdentity", "SumNotIdentity",
                "TraceNotOne"}
ROWLESS = {"a POVM needs at least one effect"}


def test_check_errors_are_worded_from_their_rows():
    """No module calls a check error's class itself, except for the
    row-less message above: ``errors.raise_first_failure`` writes every
    other one from its failed row, so the message quotes the row's figure
    and bound."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call)
                    and getattr(call.func, "id", "") in CHECK_ERRORS
                    and not (len(call.args) == 1
                             and isinstance(call.args[0], ast.Constant)
                             and call.args[0].value in ROWLESS)):
                found.append(f"{path.name}:{call.lineno}: {call.func.id}")
    assert not found, found


def test_no_command_prints():
    """A command reports a failure by raising; ``main`` prints its one
    stderr line and returns its exit code."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    commands = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("cmd_")]
    assert commands, "no cmd_* function found in cli.py"
    found = [f"cli.py:{call.lineno}: {fn.name}"
             for fn in commands for call in ast.walk(fn)
             if isinstance(call, ast.Call)
             and getattr(call.func, "id", "") == "print"]
    assert not found, found


def _called(tree: ast.AST, imported: dict[str, str]) -> list[str]:
    """The dotted name of every call in ``tree``, its first part read
    through ``imported``."""
    names = []
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            head, dot, rest = ast.unparse(call.func).partition(".")
            names.append(imported.get(head, head) + dot + rest)
    return names


def test_every_process_enters_through_run():
    """The ``effectkit`` script, ``python -m effectkit`` and ``cli.py`` run
    as a script each call ``cli.run`` and nothing else."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads(
        (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"] == {"effectkit": "effectkit.cli:run"}

    tree = ast.parse((PACKAGE / "__main__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name:
                ".".join(filter(None, (node.module, alias.name)))
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert _called(tree, imported) == ["cli.run"]

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    script = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(script) == 1
    assert _called(script[0], {}) == ["run"]


def _sum_cases():
    """d rank-one diagonal projectors whose last is scaled by 1 - x, so
    that they sum to I within x, for x at half and twice the bound d *
    TOL.sum_per_dim, and whether x is inside it."""
    for dim in (1, 2, 3, 8):
        for factor, inside in ((0.5, True), (2.0, False)):
            diags = np.eye(dim)
            diags[-1] *= 1.0 - factor * dim * TOL.sum_per_dim
            yield [Effect(HermitianOperator(np.diag(row)), f"P{k}")
                   for k, row in enumerate(diags)], inside


def test_povm_context_and_relation_agree_at_the_sum_bound():
    for effects, inside in _sum_cases():
        labels = [e.label for e in effects]
        assert _accepts(lambda: Povm(tuple(effects))) is inside
        assert _accepts(lambda: build_context_set(effects, [labels])) is inside
        assert _accepts(lambda: build_context_set(
            effects, [], [AdditivityRelation(tuple(labels), "I")])) is inside


def test_duplicates_povms_and_p2_agree_at_the_same_operator_bound():
    """Two operators exactly ``TOL.same_operator`` apart are not the same
    anywhere: the duplicate scan is silent, ``povm_relation`` rejects one
    as the other, and (P2) does not read the operator as I."""
    a = Effect(HermitianOperator(np.diag([0.0, 1.0])), "A")
    shifted = HermitianOperator(np.diag([TOL.same_operator, 1.0]))
    off = TOL.same_operator / np.sqrt(2)
    near_i = HermitianOperator(np.array([[1.0, off], [off, 1.0]]))
    for x, y in ((a.op, shifted), (near_i, HermitianOperator.identity(2))):
        assert operator_equals(x.array, y.array)[1:] == (
            TOL.same_operator, TOL.same_operator)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DuplicateOperatorWarning)
        table = ValuationTable(2, [
            TableEntry(a, 0.0), TableEntry(Effect(shifted, "A2"), 0.0),
            TableEntry(complement(a, "B"), 1.0),
            TableEntry(Effect(near_i, "N"), 0.5)])
    povm = Povm((Effect(shifted, "A"), complement(a, "B")))
    with pytest.raises(BadRelation, match=r"^POVM effect 'A' .*: Frobenius "
                                          r"deviation 1e-10 >= 1e-10$"):
        povm_relation(table, povm)
    assert [row["name"] for row in check_gpm(table, [])] == ["p1_range"]


def test_every_table_entry_is_used():
    source = "\n".join(p.read_text(encoding="utf-8")
                       for p in PACKAGE.glob("*.py"))
    entries = [name for name, value in vars(TOL).items()
               if isinstance(value, float)]
    assert entries
    assert not [name for name in entries if f"TOL.{name}" not in source]


def _validate(tmp_path, kind: str, payload) -> dict:
    path = tmp_path / f"{kind}.json"
    jsonio.dump(payload, path)
    out = tmp_path / "report.json"
    code = main(["validate", str(path), "--kind", kind, "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == (0 if report["valid"] else 2)
    return report


def _accepts(build) -> bool:
    try:
        build()
    except effectkit.EffectKitError:
        return False
    return True


def _quoted(build) -> tuple:
    """The check name, figure name, figure and bound that the error of
    ``build`` quotes, read back as JSON reads them."""
    with pytest.raises(effectkit.EffectKitError) as info:
        build()
    found = re.fullmatch(r".*: (\w+) fails: (\w+) (\S+) (?:<|>|not in) "
                         r"bound (.+)", str(info.value))
    assert found, str(info.value)
    name, key, value, bound = found.groups()
    return name, key, float(value), json.loads(bound)


def _failed_row(report: dict) -> tuple:
    """The first failed row of a report, as :func:`_quoted` reads one."""
    row = next(row for row in report["checks"] if not row["ok"])
    (_, name), _, (key, value), (_, bound) = row.items()
    return name, key, value, bound


def _effect_boundary_cases(rng):
    """Diagonal operators with one eigenvalue 1e-12 inside or outside the
    slack below 0 or above 1, and whether that is an effect."""
    tol = TOL.spectrum
    for edge, inside in ((-tol - 1e-12, False), (-tol + 1e-12, True),
                         (1.0 + tol - 1e-12, True), (1.0 + tol + 1e-12, False)):
        for _ in range(3):
            dim = int(rng.integers(2, 5))
            diag = rng.uniform(0.0, 1.0, size=dim)
            diag[rng.integers(dim)] = edge
            yield diag, inside


def test_effect_and_validate_agree_at_the_boundary(tmp_path):
    """Just past each bound the library's error quotes the very figure and
    bound of the row that ``validate`` prints as failed."""
    for diag, inside in _effect_boundary_cases(np.random.default_rng(20)):
        op = HermitianOperator(np.diag(diag))
        assert _accepts(lambda: Effect(op, "E")) is inside, diag
        report = _validate(tmp_path, "effect",
                           {"label": "E", "op": op.to_json_dict()})
        assert report["valid"] is inside, diag
        if not inside:
            assert _quoted(lambda: Effect(op, "E")) == _failed_row(report)


def _state_boundary_cases(rng):
    """Diagonal operators whose trace misses 1, or whose smallest eigenvalue
    misses 0, by 1e-12 less or more than the slack, and whether that is a
    state."""
    tol = TOL.unit_trace
    for excess, inside in ((tol - 1e-12, True), (tol + 1e-12, False),
                           (-tol + 1e-12, True), (-tol - 1e-12, False)):
        for _ in range(3):
            dim = int(rng.integers(2, 5))
            diag = rng.uniform(0.1, 1.0, size=dim)
            diag /= diag.sum()
            diag[0] += excess
            yield diag, inside
    tol = TOL.spectrum
    for edge, inside in ((-tol - 1e-12, False), (-tol + 1e-12, True)):
        for _ in range(3):
            dim = int(rng.integers(2, 5))
            diag = rng.uniform(0.1, 1.0, size=dim)
            diag[0] = edge
            diag[1:] *= (1.0 - edge) / diag[1:].sum()
            yield diag, inside


def test_density_operator_and_validate_agree_at_the_boundary(tmp_path):
    for diag, inside in _state_boundary_cases(np.random.default_rng(21)):
        op = HermitianOperator(np.diag(diag))
        assert _accepts(lambda: DensityOperator(op)) is inside, diag
        report = _validate(tmp_path, "state", op.to_json_dict())
        assert report["valid"] is inside, diag
        if not inside:
            assert _quoted(lambda: DensityOperator(op)) == _failed_row(report)


def test_every_row_of_every_kind_carries_its_bound(tmp_path):
    """Every row that ``validate`` prints, for each kind and for a
    valuation with ``--effects`` and ``--povm``, passed or failed, has a
    ``bound``: a number, or ``[lo, hi]`` for ``unit_trace`` and
    ``p1_range``."""
    def op(*diag):
        return HermitianOperator(np.diag(diag)).to_json_dict()

    effects = [{"label": "A", "op": op(1.0, 0.0)},
               {"label": "B", "op": op(0.0, 1.0)},
               {"label": "Id", "op": op(1.0, 1.0)}]
    povm = {"dim": 2, "effects": effects[:2]}
    jsonio.dump({"dim": 2, "effects": effects}, tmp_path / "e.json")
    jsonio.dump(povm, tmp_path / "p.json")
    reports = []
    for a in (0.5, 1.5):
        reports += [
            _validate(tmp_path, "effect", effects[0] | {"op": op(a, 0.0)}),
            _validate(tmp_path, "povm", {"dim": 2, "effects": [
                effects[0] | {"op": op(a / 1.5, 0.0)}, effects[1]]}),
            _validate(tmp_path, "state", op(a, 0.5))]
        values = {"dim": 2, "entries": [
            {"label": label, "value": value}
            for label, value in (("A", a), ("B", 0.5), ("Id", a))]}
        reports.append(_validate(tmp_path, "valuation", values))
        path = tmp_path / "v.json"
        jsonio.dump(values, path)
        out = tmp_path / "report.json"
        main(["validate", str(path), "--kind", "valuation", "--effects",
              str(tmp_path / "e.json"), "--povm", str(tmp_path / "p.json"),
              "--out", str(out)])
        reports.append(json.loads(out.read_text()))
    rows = [row for report in reports for row in report["checks"]]
    assert {row["name"] for row in rows} >= {
        "hermitian_drift", "positive", "below_identity", "sum_to_identity",
        "unit_trace", "p1_range", "p2_identity",
        f"effect_valuation:{tmp_path / 'p.json'}"}
    assert {row["ok"] for row in rows} == {True, False}
    for row in rows:
        two_sided = row["name"] in ("unit_trace", "p1_range")
        assert isinstance(row["bound"], list if two_sided else float), row
