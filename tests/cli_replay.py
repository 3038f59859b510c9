"""Record the ``effectkit.cli.main`` calls of the CLI tests, replay them, and
compare two records: a byte check of the CLI between two source trees.

    PYTHONPATH=<tree>/src python tests/cli_replay.py record OUT.json [--tests DIR]
    python tests/cli_replay.py compare A.json B.json

``record`` runs ``test_cli.py`` and ``test_cli_fuzz.py`` of DIR (default:
the directory of this script) in process at ``--hypothesis-seed=0``. Every
``main`` call the tests make is logged with its argv and a copy of the
directories below the system temporary directory that the argv names
(pytest's ``tmp_path`` among them).
After the session each call is replayed in process, against the package
this interpreter imports, on a fresh copy of those directories with stdout
and stderr captured. A record holds the test, the argv, the exit code or
the exception raised, stdout, stderr, the warnings, and the SHA-256 of every
file in the copied directories after the call (the ``--out`` bytes among
them), with each directory written as ``<D0>``, ``<D1>``, ... . A call that
returned is replayed once more with ``--pretty`` appended.

``compare`` pairs the two files' records test by test, matching each test's
argv lists as sequences, so a call that only one side makes does not shift
the later pairs. It prints every pair that differs and every record left
unpaired, and exits 1 if there is any. To compare two trees, record each with its own ``src`` on
``PYTHONPATH`` and the same test directory, then compare the two files.
pytest does not collect this script: its name does not start with
``test_``.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
TEST_FILES = ("test_cli.py", "test_cli_fuzz.py")


def _named_dirs(argv, base: Path) -> list[Path]:
    """The directories below ``base`` that the argv names: for each token,
    or an option's ``=`` value, the nearest existing directory that holds
    it. Outermost only, in order of first appearance."""
    found: list[Path] = []
    for token in argv:
        folder = Path(token.partition("=")[2] if token.startswith("--")
                      else token)
        if not folder.is_absolute() or base not in folder.parents:
            continue
        while not folder.is_dir():
            folder = folder.parent
        if base in folder.parents and folder not in found:
            found.append(folder)
    return [d for d in found
            if not any(other in d.parents for other in found)]


def _files(folder: Path) -> dict[str, bytes]:
    return {str(p.relative_to(folder)): p.read_bytes()
            for p in sorted(folder.rglob("*")) if p.is_file()}


def _swap(text: str, pairs) -> str:
    """``text`` with each ``old`` of ``pairs`` replaced by its ``new``,
    longest ``old`` first, so a directory never shadows one inside it."""
    for old, new in sorted(pairs, key=lambda p: -len(p[0])):
        text = text.replace(old, new)
    return text


class Recorder:
    """Wraps ``cli.main``: logs each call's argv with its directories, then
    calls the original, so the tests see no difference."""

    def __init__(self, main, base: Path):
        self.main, self.base = main, base
        self.calls: list[dict] = []
        self.blobs: dict[str, bytes] = {}

    def __call__(self, argv=None):
        argv = list(sys.argv[1:] if argv is None else argv)
        names = [(str(d), f"<D{k}>")
                 for k, d in enumerate(_named_dirs(argv, self.base))]
        snapshot = {}
        for folder, name in names:
            for rel, data in _files(Path(folder)).items():
                digest = hashlib.sha256(data).hexdigest()
                self.blobs[digest] = data
                snapshot[f"{name}/{rel}"] = digest
        self.calls.append({
            "test": os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0],
            "argv": [_swap(t, names) for t in argv],
            "dirs": [n for _, n in names],
            "files": snapshot})
        return self.main(argv)


def replay(main, call: dict, blobs: dict[str, bytes], extra=()) -> dict:
    """One in-process run of a logged call on fresh copies of its
    directories, with every directory written back as its placeholder."""
    with tempfile.TemporaryDirectory() as root:
        pairs = [(name, str(Path(root, f"d{k}")))
                 for k, name in enumerate(call["dirs"])]
        for _, real in pairs:
            os.mkdir(real)
        for key, digest in call["files"].items():
            path = Path(_swap(key, pairs))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blobs[digest])
        back = [(real, name) for name, real in pairs]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = {"code": main([_swap(t, pairs) for t in
                                        [*call["argv"], *extra]])}
            except SystemExit as exc:
                result = {"raised": f"SystemExit({exc.code!r})"}
            except Exception as exc:  # the outcome of the call, recorded
                result = {"raised": f"{type(exc).__name__}: {exc}"}
        if "raised" in result:
            result["raised"] = _swap(result["raised"], back)
        files = {}
        for name, real in pairs:
            for rel, data in _files(Path(real)).items():
                files[f"{name}/{rel}"] = hashlib.sha256(data).hexdigest()
        return {"test": call["test"], "argv": [*call["argv"], *extra],
                **result,
                "stdout": _swap(out.getvalue(), back),
                "stderr": _swap(err.getvalue(), back),
                "warnings": [_swap(f"{w.category.__name__}: {w.message}", back)
                             for w in caught],
                "files": files}


def record(out: Path, tests: Path) -> int:
    import pytest

    from effectkit import cli

    with tempfile.TemporaryDirectory() as work:
        recorder = Recorder(cli.main, Path(tempfile.gettempdir()).resolve())
        cli.main = recorder
        try:
            status = pytest.main(
                [*(str(tests / name) for name in TEST_FILES), "-q",
                 "-p", "no:cacheprovider", "--hypothesis-seed=0",
                 f"--basetemp={Path(work, 'basetemp')}"])
        finally:
            cli.main = recorder.main
        records = []
        for call in recorder.calls:
            records.append(replay(cli.main, call, recorder.blobs))
            if "code" in records[-1]:
                records.append(replay(cli.main, call, recorder.blobs,
                                      ["--pretty"]))
    out.write_text(json.dumps({"pytest_status": int(status),
                               "calls": len(recorder.calls),
                               "records": records}, indent=1),
                   encoding="utf-8")
    print(f"{len(recorder.calls)} calls, {len(records)} replays -> {out} "
          f"(pytest exit {int(status)})")
    return 0


def _by_test(records) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for rec in records:
        groups.setdefault(rec["test"], []).append(rec)
    return groups


def compare(a: Path, b: Path) -> int:
    left, right = (_by_test(json.loads(p.read_text(encoding="utf-8"))
                            ["records"]) for p in (a, b))
    paired = differ = alone = 0
    for test in dict.fromkeys([*left, *right]):
        xs, ys = left.get(test, []), right.get(test, [])
        match = difflib.SequenceMatcher(
            None, [json.dumps(x["argv"]) for x in xs],
            [json.dumps(y["argv"]) for y in ys], autojunk=False)
        for tag, i1, i2, j1, j2 in match.get_opcodes():
            if tag != "equal":
                for path, recs in ((a, xs[i1:i2]), (b, ys[j1:j2])):
                    for rec in recs:
                        alone += 1
                        print(f"only in {path}: {test}\n  argv {rec['argv']}")
                continue
            for x, y in zip(xs[i1:i2], ys[j1:j2]):
                paired += 1
                keys = sorted(key for key in x.keys() | y.keys()
                              if x.get(key) != y.get(key))
                if keys:
                    differ += 1
                    print(f"differ: {test}\n  argv {x['argv']}")
                    for key in keys:
                        print(f"  {key}: {x.get(key)!r}\n  {' ' * len(key)}  "
                              f"{y.get(key)!r}")
    print(f"{paired} pairs compared, {differ} differ, {alone} unpaired")
    return 1 if differ or alone else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="run the CLI tests and record every call")
    p.add_argument("out", type=Path)
    p.add_argument("--tests", type=Path, default=HERE,
                   help="directory holding test_cli.py and test_cli_fuzz.py")
    p = sub.add_parser("compare", help="compare two record files")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.out, args.tests.resolve())
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
