"""Per-layer metrics of one traced operation, derived from its spans.

A ``*_s`` metric named after a function is the inclusive time of its
outermost spans (nested calls of the same set are not counted twice). The
metrics documented as self times subtract the spans of their children.
Metrics marked "computed" are arithmetic on sizes the spans recorded, not
measurements of hardware.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Spans

UNITS = {
    "cli.import_s": "s",            # -X importtime, effectkit.cli cumulative
    "cli.import_numpy_s": "s",      # -X importtime, numpy cumulative
    "cli.parser_s": "s",            # build_parser
    "cli.self_s": "s",              # main minus its children (self)
    "jsonio.load_s": "s",
    "jsonio.load_mb": "MB",
    "jsonio.dumps_s": "s",
    "jsonio.out_kb": "kB",
    "operators.built": "count",      # HermitianOperator constructions
    "operators.matrices": "count",   # ComplexMatrix constructions
    "operators.construct_s": "s",
    "operators.from_json_s": "s",    # self time of the from_json_dict parsers
    "operators.eig_calls": "count",
    "operators.eig_s": "s",
    "effects.built": "count",
    "effects.validate_s": "s",       # Effect construction, its eigensolve included
    "effects.povm_s": "s",
    "effects.dup_pairs": "count",    # pairs compared by warn_duplicate_operators
    "effects.dup_scan_s": "s",
    "valuation.table_s": "s",        # self: excludes the duplicate scan
    "valuation.reconstruct_s": "s",  # self: design matrix plus SVD
    "valuation.basis_s": "s",
    "valuation.basis_mb": "MB",      # computed: 16*d^4 bytes
    "valuation.design_gmac": "GMAC",  # computed: K*d^4 complex multiply-adds
    "valuation.project_s": "s",
    "valuation.born_calls": "count",
    "valuation.sample_s": "s",
    "nogo.build_s": "s",
    "nogo.search_s": "s",            # search plus core minimisation
    "nogo.nodes": "count",
    "nogo.nodes_per_s": "1/s",
    "nogo.core_constraints": "count",
    "nogo.core_labels": "count",
    "nogo.core_ratio": "1",          # core constraints / input constraints
    "nogo.verify_s": "s",
    "nogo.verify_checks": "count",   # computed: constraint evaluations
    "nogo.witness_s": "s",
    "generate.calls": "count",
    "generate.s": "s",
    "trace.overhead": "1",           # traced work_s / untraced work_s - 1
    "trace.coverage": "1",           # child-span time / main span time
}

CONSTRUCT = ("operators.HermitianOperator.__init__", "operators.ComplexMatrix.__init__")
FROM_JSON = ("operators.HermitianOperator.from_json_dict",
             "operators.ComplexMatrix.from_json_dict")
EIG = ("operators.eig_hermitian", "operators.eigenvalues_of")
TABLE = ("valuation.ValuationTable.__init__", "valuation.ValuationTable.from_json_dict")
DUP_SCAN = "effects.warn_duplicate_operators"
RECONSTRUCT = "valuation.reconstruct_density"


def operation_metrics(spans: Spans, selfs: list[float], lo: int, hi: int
                      ) -> dict[str, float]:
    """Layer metrics of the operation whose spans are ``lo`` to ``hi - 1``."""
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in range(lo, hi):
        by_name[spans.name[i]].append(i)

    def has_ancestor(i: int, names) -> bool:
        p = spans.parent[i]
        while p >= 0:
            if spans.name[p] in names:
                return True
            p = spans.parent[p]
        return False

    def outermost(names) -> list[int]:
        names = set(names)
        return [i for n in names for i in by_name.get(n, ())
                if not has_ancestor(i, names)]

    def total(*names) -> float:
        return sum(spans.duration(i) for i in outermost(names))

    def self_of(*names) -> float:
        return sum(selfs[i] for n in names for i in by_name.get(n, ()))

    def count(*names) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def notes(name: str, key: str) -> list:
        return [spans.note[i][key] for i in by_name.get(name, ())]

    generate = [n for n in by_name if n.startswith("generate.")]
    search = "nogo.search_dispersion_free"
    search_s = total(search)
    nodes = sum(notes(search, "nodes"))
    core = sum(notes(search, "core"))
    constraints = sum(notes(search, "constraints"))
    return {
        "cli.parser_s": total("cli.build_parser"),
        "cli.self_s": self_of("cli.main"),
        "jsonio.load_s": total("jsonio.load", "jsonio.loads"),
        "jsonio.load_mb": sum(notes("jsonio.load", "bytes")) / 1e6,
        "jsonio.dumps_s": total("jsonio.dumps", "jsonio.dump"),
        "jsonio.out_kb": sum(notes("jsonio.dumps", "bytes")) / 1e3,
        "operators.built": count(CONSTRUCT[0]),
        "operators.matrices": count(CONSTRUCT[1]),
        "operators.construct_s": total(*CONSTRUCT),
        "operators.from_json_s": self_of(*FROM_JSON),
        "operators.eig_calls": count(*EIG),
        "operators.eig_s": total(*EIG),
        "effects.built": count("effects.Effect.__init__"),
        "effects.validate_s": total("effects.Effect.__init__"),
        "effects.povm_s": total("effects.Povm.__init__"),
        "effects.dup_pairs": sum(
            1 for i in by_name.get("operators.frobenius_distance", ())
            if has_ancestor(i, {DUP_SCAN})),
        "effects.dup_scan_s": total(DUP_SCAN),
        "valuation.table_s": self_of(*TABLE),
        "valuation.reconstruct_s": self_of(RECONSTRUCT),
        "valuation.basis_s": total("valuation.hermitian_basis"),
        "valuation.basis_mb": sum(16 * d ** 4 for d in
                                  notes("valuation.hermitian_basis", "dim")) / 1e6,
        "valuation.design_gmac": sum(
            k * d ** 4 for k, d in zip(notes(RECONSTRUCT, "frame"),
                                       notes(RECONSTRUCT, "dim"))) / 1e9,
        "valuation.project_s": total("valuation.project_to_density"),
        "valuation.born_calls": count("valuation.born"),
        "valuation.sample_s": total("valuation.sample_outcomes"),
        "nogo.build_s": total("nogo.context_set_from_json", "nogo.build_context_set"),
        "nogo.search_s": search_s,
        "nogo.nodes": nodes,
        "nogo.nodes_per_s": nodes / search_s if search_s else 0.0,
        "nogo.core_constraints": core,
        "nogo.core_labels": sum(notes(search, "core_labels")),
        "nogo.core_ratio": core / constraints if constraints else 0.0,
        "nogo.verify_s": total("nogo.verify_certificate"),
        "nogo.verify_checks": sum(notes("nogo.verify_certificate", "checks")),
        "nogo.witness_s": total("nogo.witness_2d"),
        "generate.calls": len(outermost(generate)),
        "generate.s": total(*generate),
    }

