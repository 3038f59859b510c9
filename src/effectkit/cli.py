"""Command-line frontend.

One binary, subcommand style, JSON in and JSON out: the primary result goes
to stdout (or ``--out``), human-readable diagnostics go to stderr. Exit
codes are a stable contract:

  0  success / question answered (including a dfsearch result of "unknown")
  1  I/O or parse error
  2  validation error (also bad parameters and dimension mismatches)
  3  reconstruction frame does not span the operator space
  4  reconstruction values inconsistent with any linear functional
  5  internal verification failure (a certificate failed its re-check; the
     stderr line names the failed check). An UNSAT core is re-checked by
     walking its refutation tree, in time linear in the tree's size.

Seeds default to 0; pass --seed to vary. Output bytes are deterministic
given (input bytes, flags, seed and BLAS thread count): a threaded BLAS
may sum in another order, so ``reconstruct`` can print other bytes with
2 threads than with 1. The benchmark pins 1
(``OPENBLAS_NUM_THREADS=1``).

Every command reads its files with the library's readers (``dfsearch``
its context set with ``nogo.context_set_from_json``), so a file that
``validate`` cannot read fails with the message and exit code that
``born`` or ``reconstruct`` give. Its report lists the library's check
rows alone, each with the ``bound`` its figure was judged against (``[lo,
hi]`` when two-sided), and a constructor words its error from the row that
failed: ``effect_checks`` for an effect, ``sum_to_identity`` (the sum's
Frobenius ``residual`` from I) for a POVM, ``state_checks`` for a state.
For a valuation: (P1) on every value, and with ``--effects``, (P2) when
that file carries I and (P3) for each ``--povm`` file, read as the
relation "its labels = I" (exit 2 unless its operators are the effects
file's). Each ``--povm`` file is its own (P3) row,
``effect_valuation:<path>``, in the order given, and holds only that
file's violation. With ``--effects`` the effects file is read before the
valuation's entries, as ``reconstruct`` reads them. A matrix, effects file
or valuation whose ``dim`` is not in 1..MAX_DIM exits 2 (a matrix ``dim``
below 1 is a schema fault, exit 1), on one line abridging a huge ``dim``.

Every effects file holds at least one effect (exit 2). One that
``reconstruct``, ``validate --effects`` or a context set reads must not
repeat a label (exit 2, ``invalid input: duplicate effect label``); a POVM
file may, as a context may.

An UNSAT ``dfsearch`` result carries ``"core_minimal": false`` right after
``"core"`` when a deletion trial ran out of ``--budget``, so a constraint of
the printed core may be droppable. The key is absent whenever the core is
minimal.

The argparse parser is built once, when this module is imported, and
reused by every call, so ``main`` can be called repeatedly, also from
several threads at once. Two labels with the same operator print one
``DuplicateOperatorWarning: <message>`` line per pair on every call, with
no file or line number.

A process enters through :func:`run`, the target of ``python -m
effectkit``, of the ``effectkit`` script and of this module run as a
script; :func:`main` is the in-process API. ``run`` calls ``main``, calls
``gc.freeze()`` and exits with ``main``'s code. After the freeze the
interpreter's exit-time collections skip every object that exists: most of
them were built by importing numpy, argparse and this package, and the OS
frees their memory right after, so walking them only delays the exit. The
interpreter still flushes stdout and stderr and runs ``atexit``. ``main``
never freezes: a caller that runs it many times in one process would keep
every later reference cycle alive.

A failed write to stdout, the text of ``--help`` and ``--version``
included, prints ``cannot write <stdout>: <error>`` and exits 1, as a
failed ``--out`` write does. ``run`` then closes stdout,
because a failed flush keeps its bytes buffered and the interpreter's exit
flush would fail on them again; ``main`` leaves a caller's stream open.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__, generate, jsonio
from .effects import (
    BlochVector,
    Effect,
    Povm,
    effect_checks,
    effect_from_json,
    effects_by_label,
    effects_from_json_dict,
    report_duplicate_operators,
    sum_to_identity,
)
from .errors import (
    EffectKitError,
    FrameDeficient,
    SchemaError,
    ValuesInconsistent,
)
from .generate import random_density, random_effect, random_povm, rng_from_seed
from .nogo import (
    DEFAULT_MAX_SOLUTIONS,
    DEFAULT_NODE_BUDGET,
    context_set_from_json,
    search_dispersion_free,
    verify_certificate,
    witness_2d,
)
from .operators import HermitianOperator, matrix_from_json
from .valuation import (
    DensityOperator,
    ValuationTable,
    born,
    check_gpm,
    p1_range,
    povm_relation,
    reconstruct_density,
    sample_outcomes,
    state_checks,
    valuation_from_json,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_FRAME = 3
EXIT_INCONSISTENT = 4
EXIT_VERIFY = 5
# The library errors with their own exit code, looked up by exact type (none
# of them has a subclass); every other library error exits 2.
_EXIT_BY_ERROR = {SchemaError: EXIT_PARSE, FrameDeficient: EXIT_FRAME,
                  ValuesInconsistent: EXIT_INCONSISTENT}


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        return jsonio.load(path)
    except OSError as exc:
        raise _CliFailure(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the recursion limit.
        raise _CliFailure(EXIT_PARSE, f"cannot parse {path}: {exc}") from exc


def _write_stdout(text: str) -> None:
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _CliFailure(EXIT_PARSE, f"cannot write <stdout>: {exc}") from exc


def _emit(payload, args) -> None:
    if not args.out:
        _write_stdout(jsonio.dumps(payload, pretty=args.pretty) + "\n")
        return
    try:
        jsonio.dump(payload, args.out, pretty=args.pretty)
    except OSError as exc:
        raise _CliFailure(EXIT_PARSE, f"cannot write {args.out}: {exc}") from exc


def _load_state(path: str) -> DensityOperator:
    return DensityOperator(HermitianOperator(matrix_from_json(_load_json(path))))


def _load_povm(path: str) -> Povm:
    return Povm(_load_effects(path))


def _load_effects(path: str) -> list[Effect]:
    return effects_from_json_dict(_load_json(path))


def _parse_vec(text: str, flag: str) -> BlochVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise _CliFailure(EXIT_INVALID, f"{flag} expects ax,ay,az")
    try:
        return BlochVector(tuple(float(p) for p in parts))
    except ValueError as exc:
        raise _CliFailure(EXIT_INVALID, f"{flag}: {exc}") from exc


def cmd_validate(args) -> int:
    if args.kind != "valuation" and (args.effects or args.povm):
        raise _CliFailure(EXIT_INVALID,
                          "--effects and --povm apply only to --kind valuation")
    if args.povm and not args.effects:
        raise _CliFailure(EXIT_INVALID, "--povm needs --effects to resolve "
                                        "the valuation's labels")
    payload = _load_json(args.path)
    checks: list[dict] = []
    if args.kind == "effect":
        array, _ = effect_from_json(payload)
        checks.extend(effect_checks(HermitianOperator(array)))
    elif args.kind == "povm":
        checks.append(sum_to_identity(effects_from_json_dict(payload)))
    elif args.kind == "state":
        checks.extend(state_checks(HermitianOperator(matrix_from_json(payload))))
    elif not args.effects:  # a valuation alone
        checks.append(p1_range(valuation_from_json(payload)[1].items()))
    else:
        table = ValuationTable.from_json_dict(
            payload, effects_by_label(_load_effects(args.effects)))
        povm_paths = args.povm or []
        rows = check_gpm(table, [povm_relation(table, _load_povm(path))
                                 for path in povm_paths])
        # The last rows are the POVMs' (P3) rows, one per path in order.
        head = len(rows) - len(povm_paths)
        checks.extend(rows[:head])
        checks.extend({**row, "name": f"effect_valuation:{path}"}
                      for path, row in zip(povm_paths, rows[head:]))

    valid = all(c["ok"] for c in checks)
    _emit({"kind": args.kind, "valid": valid, "checks": checks}, args)
    return EXIT_OK if valid else EXIT_INVALID


def cmd_born(args) -> int:
    rho = _load_state(args.state)
    povm = _load_povm(args.povm)
    probs = [born(rho, e) for e in povm.effects]
    _emit({"probs": probs, "sum": float(sum(probs))}, args)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    frame = _load_effects(args.frame)
    table_raw = _load_json(args.values)
    table = ValuationTable.from_json_dict(table_raw, effects_by_label(frame))
    values = [table.value(e.label) for e in frame]
    state, diag = reconstruct_density(
        frame, values, min_norm=args.min_norm, project_psd=args.project_psd)
    _emit({"state": state.to_json_dict(),
           "diagnostics": diag.to_json_dict()}, args)
    return EXIT_OK


def cmd_nogo2d(args) -> int:
    witness = witness_2d(_parse_vec(args.n, "--n"), _parse_vec(args.m, "--m"),
                         args.lam)
    _emit(witness.to_json_dict(), args)
    return EXIT_OK


def cmd_dfsearch(args) -> int:
    base = Path(args.contexts).parent
    cs = context_set_from_json(_load_json(args.contexts),
                               lambda name: _load_effects(str(base / name)),
                               args.discover_relations)
    result = search_dispersion_free(cs, max_solutions=args.max_solutions,
                                    node_budget=args.budget)
    verdict = verify_certificate(result, cs)
    if not verdict:
        raise _CliFailure(EXIT_VERIFY, "certificate failed independent "
                                       f"re-verification: {verdict.reason}")
    _emit(result.to_json_dict(), args)
    return EXIT_OK


def cmd_sample(args) -> int:
    rho = _load_state(args.state)
    povm = _load_povm(args.povm)
    record = sample_outcomes(rho, povm, args.shots, args.seed)
    _emit(record.to_json_dict(), args)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind != "povm" and args.outcomes is not None:
        raise _CliFailure(EXIT_INVALID,
                          "--outcomes applies only to --kind povm")
    rng = rng_from_seed(args.seed)
    if args.kind == "state":
        payload = random_density(args.dim, rng).to_json_dict()
    elif args.kind == "effect":
        payload = random_effect(args.dim, rng, label="E0").to_json_dict()
    else:
        outcomes = args.dim if args.outcomes is None else args.outcomes
        payload = random_povm(args.dim, outcomes, rng).to_json_dict()
    _emit(payload, args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose stdout text (``--help``, ``--version``) is
    written as a command's output is: argparse's own ``_print_message``
    ignores a failed write. Its subparsers are of this class too."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _write_stdout(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="effectkit",
        description="Quantum effects, POVMs, state reconstruction, and "
                    "dispersion-free no-go certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON output")

    p = sub.add_parser("validate",
                       help="validate a JSON artifact, read as the other "
                            "commands read it")
    p.add_argument("path")
    p.add_argument("--kind", required=True,
                   choices=["effect", "povm", "state", "valuation"])
    p.add_argument("--effects", help="effects file resolving the valuation's "
                                     "labels; checks (P2) if it carries I")
    p.add_argument("--povm", action="append",
                   help="POVM file whose values must sum to 1 (P3), with the "
                        "effects file's operators (repeatable)")
    common(p)

    p = sub.add_parser("born", help="outcome probabilities tr[rho E_i]")
    p.add_argument("state")
    p.add_argument("povm")
    common(p)

    p = sub.add_parser("reconstruct",
                       help="recover a state from frame values by linear inversion")
    p.add_argument("frame", help="effects file providing the frame")
    p.add_argument("values", help="valuation table with a value per frame label")
    p.add_argument("--min-norm", action="store_true", dest="min_norm",
                   help="allow rank-deficient frames (minimum-norm solution)")
    p.add_argument("--project-psd", action="store_true", dest="project_psd",
                   help="replace the solution by the nearest density "
                        "operator in Frobenius norm")
    common(p)

    p = sub.add_parser("nogo2d",
                       help="closed-form qubit witness against dispersion-free "
                            "valuations")
    p.add_argument("--n", required=True,
                   help="first unit Bloch vector ax,ay,az; when ax is "
                        "negative, join it with '=', as in --n=-1,0,0")
    p.add_argument("--m", required=True,
                   help="second unit Bloch vector ax,ay,az; when ax is "
                        "negative, join it with '=', as in --m=-1,0,0")
    p.add_argument("--lambda", required=True, type=float, dest="lam",
                   help="mixing weight in (0,1)")
    common(p)

    p = sub.add_parser("dfsearch",
                       help="search for dispersion-free valuations over a "
                            "context set")
    p.add_argument("contexts", help="context-set JSON file")
    p.add_argument("--max-solutions", type=int, default=DEFAULT_MAX_SOLUTIONS,
                   dest="max_solutions",
                   help="store at most this many assignments (default "
                        "%(default)s; below 1 exits 2); total_solutions is "
                        "exact only when the search completes")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="node budget of the search and, separately, of "
                        "each deletion trial of an UNSAT core; the printed "
                        "nodes sum them and can exceed it. A repeated "
                        "subtree counts from its first walk, not walked again")
    p.add_argument("--discover-relations", action="store_true",
                   dest="discover_relations",
                   help="auto-discover pair/triple operator sum identities")
    common(p)

    p = sub.add_parser("sample", help="draw outcome counts from tr[rho E_i]")
    p.add_argument("state")
    p.add_argument("povm")
    p.add_argument("--shots", type=int, required=True,
                   help="number of draws N, 1 <= N < 2**63; run time is "
                        "linear in N with no cap below that: about 5 to "
                        "12 ns per shot for 2 to 16 outcomes on one core of "
                        "a 2-vCPU Xeon guest, so 5 to 12 s per 10**9 shots")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("gen", help="generate random artifacts reproducibly")
    p.add_argument("--kind", required=True, choices=["state", "povm", "effect"])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outcomes", type=int,
                   help="POVM outcome count, --kind povm only (default: "
                        "dim), outcomes * dim**2 at most MAX_POVM_ENTRIES="
                        "%d; memory and run time grow linearly: about 2.7 kB "
                        "and 50 to 80 us per outcome at --dim 2 on one core "
                        "of a 2-vCPU Xeon guest, so 10**5 outcomes take "
                        "about 0.3 GB and 8 s" % generate.MAX_POVM_ENTRIES)
    common(p)
    return parser


_PARSER = build_parser()


def _print_duplicate(message: str) -> None:
    print(f"DuplicateOperatorWarning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command and return its exit code; argparse exits 2 on bad
    usage and 0 after ``--help`` or ``--version``, unless writing their text
    to stdout fails, which returns 1 as any failed stdout write does.

    Every call reuses the parser built at import, so ``main`` can be
    called repeatedly in one process. The command is the module's
    ``cmd_<subcommand>`` at the time of the call, not at the time of the
    build, so rebinding one takes effect on the next call.
    """
    try:
        args = _PARSER.parse_args(argv)
        command = globals()[f"cmd_{args.subcommand}"]
        with report_duplicate_operators(_print_duplicate):
            return command(args)
    except _CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except EffectKitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_BY_ERROR.get(type(exc), EXIT_INVALID)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _flush_stdout(code):
    """Flush stdout before the process exits and return its exit code. A
    failed flush keeps its bytes buffered, so stdout is then closed: the
    interpreter's own exit flush would fail on them again and exit 120. The
    failure turns exit 0 into exit 1 and prints its line; a command that
    failed has printed its own."""
    if sys.stdout is None:
        return code
    try:
        sys.stdout.flush()
    except OSError as exc:
        with contextlib.suppress(OSError):
            sys.stdout.close()
        if code == EXIT_OK:
            print(f"cannot write <stdout>: {exc}", file=sys.stderr)
            code = EXIT_PARSE
    return code


def run() -> NoReturn:
    """The process entry: run :func:`main` on ``sys.argv``, freeze the
    garbage collector and exit with main's code (see the module docstring)."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help, --version, bad usage
        code = exc.code
    finally:
        gc.freeze()
    sys.exit(_flush_stdout(code))


if __name__ == "__main__":
    run()
