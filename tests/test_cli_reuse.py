"""``cli.main`` called many times in one process, and from two threads.

The parser is built once, at import, and reused, so ``main`` builds none,
a repeated call must give the stdout, stderr and exit code of the first,
and duplicate-operator lines must print on every call.
"""

import contextlib
import io
import subprocess
import sys
import threading
import warnings

import pytest

from effectkit import Effect, HermitianOperator, __version__, cli, jsonio
from effectkit.cli import main
from effectkit.effects import warn_duplicate_operators
from effectkit.errors import DuplicateOperatorWarning
from effectkit.operators import TOL

from conftest import pauli_op


class PerThreadStream(io.TextIOBase):
    """A text stream that writes to a buffer of the calling thread."""

    def __init__(self):
        self._local = threading.local()

    def write(self, text):
        if not hasattr(self._local, "buffer"):
            self._local.buffer = io.StringIO()
        return self._local.buffer.write(text)

    def take(self) -> str:
        """The calling thread's text since the last take."""
        buffer = getattr(self._local, "buffer", None)
        self._local.buffer = io.StringIO()
        return "" if buffer is None else buffer.getvalue()


@contextlib.contextmanager
def thread_streams():
    """Redirect stdout and stderr to per-thread buffers. (A fixture cannot:
    pytest rebinds both streams when the test body starts.)"""
    out, err = PerThreadStream(), PerThreadStream()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out, err


def in_threads(target, args):
    """Run ``target(arg)`` for each arg in a thread of its own, started
    together and switching every 10 µs."""
    barrier = threading.Barrier(len(args))

    def run(arg):
        barrier.wait()
        target(arg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(a,)) for a in args]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def call(argv, streams):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    out, err = streams
    out.take()
    err.take()
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, out.take(), err.take()


def qubit_session(work):
    """The six calls of a qubit session: gen, gen, validate, born, sample,
    nogo2d."""
    state, povm = str(work / "state.json"), str(work / "povm.json")
    return [
        ["gen", "--kind", "state", "--dim", "2", "--seed", "11", "--out", state],
        ["gen", "--kind", "povm", "--dim", "2", "--outcomes", "4",
         "--seed", "12", "--out", povm],
        ["validate", povm, "--kind", "povm"],
        ["born", state, povm],
        ["sample", state, povm, "--shots", "1000", "--seed", "13"],
        ["nogo2d", "--n=0,0,1", "--m=0.6,0,0.8", "--lambda", "0.3"],
    ]


def reuse_sequence(work):
    """A session, an unknown option, a parameter the library rejects,
    ``--version``, then the session again."""
    session = qubit_session(work)
    return [*session,
            ["gen", "--kind", "state", "--dim", "2", "--frobnicate"],
            ["gen", "--kind", "state", "--dim", "0"],
            ["--version"],
            *session]


@pytest.fixture
def builds(monkeypatch):
    """Counts parser builds during the test."""
    count = []
    build = cli.build_parser

    def counting():
        count.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    return count


def check_reuse_sequence(results):
    first, middle, second = results[:6], results[6:9], results[9:]
    assert first == second
    assert [code for code, _, _ in first] == [0] * 6
    assert all(err == "" for _, _, err in first)
    assert [out == "" for _, out, _ in first] == [True, True] + [False] * 4
    unknown, rejected, version = middle
    assert unknown[:2] == (2, "")
    assert "unrecognized arguments: --frobnicate" in unknown[2]
    assert rejected[:2] == (2, "")
    assert rejected[2].count("\n") == 1
    assert version == (0, __version__ + "\n", "")


def test_parser_is_built_once_and_calls_repeat(tmp_path, builds):
    with thread_streams() as streams:
        results = [call(argv, streams) for argv in reuse_sequence(tmp_path)]
    check_reuse_sequence(results)
    assert len(builds) == 0


def test_two_threads_share_the_parser(tmp_path, builds):
    results: dict[str, list] = {name: [] for name in ("a", "b")}

    def run(name):
        work = tmp_path / name
        work.mkdir()
        for _ in range(3):
            results[name].append(
                [call(argv, streams) for argv in reuse_sequence(work)])

    with thread_streams() as streams:
        (tmp_path / "sequential").mkdir()
        expected = [call(argv, streams)
                    for argv in reuse_sequence(tmp_path / "sequential")]
        in_threads(run, list(results))
    check_reuse_sequence(expected)
    assert len(builds) == 0
    for name, runs in results.items():
        assert len(runs) == 3
        assert all(r == expected for r in runs), name


def test_rebinding_a_command_takes_effect_after_the_build(monkeypatch):
    argv = ["nogo2d", "--n=0,0,1", "--m=0.6,0,0.8", "--lambda", "0.3"]
    with thread_streams() as streams:
        assert call(argv, streams)[0] == 0
        monkeypatch.setattr(cli, "cmd_nogo2d", lambda args: 42)
        assert call(argv, streams) == (42, "", "")


def duplicate_context_files(work, prefix):
    """A context set of two z bases whose second basis repeats the first
    under other labels: two duplicate pairs. Returns the contexts path, the
    effects and the stderr that ``dfsearch`` prints for them."""
    labels = {f"{prefix}0": (0, 0, 1), f"{prefix}1": (0, 0, -1),
              f"{prefix}0c": (0, 0, 1), f"{prefix}1c": (0, 0, -1)}
    effects = [Effect(pauli_op(*a), lb) for lb, a in labels.items()]
    jsonio.dump({"dim": 2, "effects": [e.to_json_dict() for e in effects]},
                work / f"{prefix}-effects.json")
    contexts = work / f"{prefix}-contexts.json"
    jsonio.dump({"effects_file": f"{prefix}-effects.json",
                 "contexts": [[f"{prefix}0", f"{prefix}1"],
                              [f"{prefix}0c", f"{prefix}1c"]]}, contexts)
    expected = "".join(
        f"DuplicateOperatorWarning: labels {a!r} and {b!r} carry the same "
        f"operator (Frobenius distance < {TOL.same_operator:g})\n"
        for a, b in ((f"{prefix}0", f"{prefix}0c"),
                     (f"{prefix}1", f"{prefix}1c")))
    return str(contexts), effects, expected


def test_duplicate_lines_print_on_every_call(tmp_path):
    contexts, effects, expected = duplicate_context_files(tmp_path, "P")
    filters = list(warnings.filters)
    with thread_streams() as streams:
        first = call(["dfsearch", contexts], streams)
        second = call(["dfsearch", contexts], streams)
    assert first == second
    assert first[0] == 0
    assert first[2] == expected
    assert warnings.filters == filters
    # Library callers still get the Python warning.
    with pytest.warns(DuplicateOperatorWarning) as record:
        warn_duplicate_operators(effects)
    assert len(record) == 2


def test_reconstruct_prints_a_duplicate_line(tmp_path):
    frame = [Effect(HermitianOperator.identity(2), "I"),
             Effect(pauli_op(0, 0, 1), "Z"),
             Effect(pauli_op(1, 0, 0), "X"),
             Effect(pauli_op(0, 1, 0), "Y"),
             Effect(pauli_op(0, 0, 1), "Zc")]
    jsonio.dump({"dim": 2, "effects": [e.to_json_dict() for e in frame]},
                tmp_path / "f.json")
    jsonio.dump({"dim": 2, "entries": [
        {"label": e.label, "value": v}
        for e, v in zip(frame, (1.0, 0.5, 0.5, 0.5, 0.5))]},
        tmp_path / "v.json")
    argv = ["reconstruct", str(tmp_path / "f.json"), str(tmp_path / "v.json")]
    with thread_streams() as streams:
        first = call(argv, streams)
        second = call(argv, streams)
    assert first == second
    assert first[0] == 0
    assert first[2] == (
        f"DuplicateOperatorWarning: labels 'Z' and 'Zc' carry the same "
        f"operator (Frobenius distance < {TOL.same_operator:g})\n")


def test_duplicate_lines_stay_in_their_thread(tmp_path):
    files = {prefix: duplicate_context_files(tmp_path, prefix)
             for prefix in ("P", "Q")}
    results: dict[str, list] = {prefix: [] for prefix in files}

    def run(prefix):
        for _ in range(30):
            results[prefix].append(
                call(["dfsearch", files[prefix][0]], streams))

    filters = list(warnings.filters)
    with thread_streams() as streams:
        in_threads(run, list(files))
    assert warnings.filters == filters
    for prefix, runs in results.items():
        assert len(runs) == 30
        assert all(r[0] == 0 and r[2] == files[prefix][2] for r in runs)


def test_duplicate_lines_name_no_file(tmp_path):
    contexts, _, expected = duplicate_context_files(tmp_path, "P")
    proc = subprocess.run([sys.executable, "-m", "effectkit", "dfsearch",
                           contexts], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == expected
