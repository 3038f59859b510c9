"""Valuations on effects: axiom checks, linear extension, reconstruction.

A valuation assigns each effect a number in [0, 1]; the axioms are

  (P1) 0 <= v(E) <= 1,
  (P2) v(I) = 1,
  (P3) v(E + F + ...) = v(E) + v(F) + ...  whenever E + F + ... <= I.

Equivalently, v(E) >= 0 with values summing to 1 over every POVM. Any such
valuation is the Born functional E -> tr[rho E] of a unique density operator
rho; this module makes that correspondence executable in both directions:
checking the axioms on finite tables with :func:`check_gpm`, extending a
valuation from effects to positive and then to all Hermitian operators
through homogeneity and Jordan splitting, recovering rho by linear
inversion over an informationally complete frame, and simulating outcome
frequencies that estimate v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import jsonio
from .effects import (
    Effect,
    Povm,
    operator_equals,
    sum_equals,
    warn_duplicate_operators,
)
from .errors import (
    BadRelation,
    DimMismatch,
    FrameDeficient,
    NotPositive,
    ProbabilityDeficit,
    RecordMismatch,
    TraceNotOne,
    UnknownLabel,
    ValuesInconsistent,
    listed,
    shown,
)
from .operators import (
    BLOCK_ROWS,
    TOL,
    HermitianOperator,
    check_dim,
    eig_hermitian,
    eigenvalues_of,
    frobenius_inner,
    hermitian_drift,
)


def state_checks(op: HermitianOperator) -> list[dict]:
    """The state checks ``hermitian_drift``, ``positive`` (minimum eigenvalue
    >= -TOL.spectrum) and ``unit_trace`` (|tr - 1| <= TOL.unit_trace), in
    that order."""
    lo = float(eigenvalues_of(op)[0])
    tr = float(np.trace(op.array).real)
    return [hermitian_drift(op),
            {"name": "positive", "ok": lo >= -TOL.spectrum, "min_eig": lo},
            {"name": "unit_trace", "ok": abs(tr - 1.0) <= TOL.unit_trace,
             "trace": tr}]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive, trace-1 operator: every instance has passed
    :func:`state_checks`. Raises NotPositive or TraceNotOne from the first
    failed check, whose ``hermitian_drift`` it does not enforce."""

    op: HermitianOperator

    def __post_init__(self):
        _, positive, unit_trace = state_checks(self.op)
        if not positive["ok"]:
            raise NotPositive(
                f"state has negative eigenvalue {positive['min_eig']:.6e}")
        if not unit_trace["ok"]:
            raise TraceNotOne(
                f"state trace {unit_trace['trace']:.12g} is not 1")

    @property
    def dim(self) -> int:
        return self.op.dim

    def to_json_dict(self) -> dict:
        return self.op.to_json_dict()


@dataclass(frozen=True)
class TableEntry:
    effect: Effect
    value: float
    stderr: float | None = None


class ValuationTable:
    """Ordered map label -> (effect, value).

    Construction does not reject out-of-range values: a table may encode a
    *candidate* valuation, and the axiom checkers below are the judges. A
    valid table has every value in [-TOL.p1_slack, 1 + TOL.p1_slack].
    """

    def __init__(self, dim: int, entries: Iterable[TableEntry]):
        self.dim = int(dim)
        check_dim(self.dim)
        self._entries: dict[str, TableEntry] = {}
        for entry in entries:
            self._require_dim(entry.effect)
            if entry.effect.label in self._entries:
                raise ValueError(
                    f"duplicate label {shown(entry.effect.label)}")
            if not np.isfinite(entry.value):
                raise ValueError(
                    f"value for {shown(entry.effect.label)} is not finite")
            self._entries[entry.effect.label] = entry
        warn_duplicate_operators(e.effect for e in self._entries.values())

    def _require_dim(self, effect: Effect) -> None:
        if effect.dim != self.dim:
            raise DimMismatch(f"effect {shown(effect.label)} has dim "
                              f"{effect.dim}, table has dim {self.dim}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def entry(self, label: str) -> TableEntry:
        try:
            return self._entries[label]
        except KeyError:
            raise UnknownLabel(
                f"label {shown(label)} not in valuation table") from None

    def value(self, label: str) -> float:
        return self.entry(label).value

    def effect(self, label: str) -> Effect:
        return self.entry(label).effect

    def items(self) -> Iterable[tuple[str, TableEntry]]:
        return self._entries.items()

    def values(self) -> list[float]:
        return [e.value for e in self._entries.values()]

    @classmethod
    def from_born(cls, rho: DensityOperator, effects: Iterable[Effect]
                  ) -> "ValuationTable":
        effects = list(effects)
        dim = effects[0].dim if effects else rho.dim
        return cls(dim, (TableEntry(e, born(rho, e)) for e in effects))

    def to_json_dict(self) -> dict:
        entries = []
        for label, entry in self._entries.items():
            item: dict = {"label": label, "value": entry.value}
            if entry.stderr is not None:
                item["stderr"] = entry.stderr
            entries.append(item)
        return {"dim": self.dim, "entries": entries}

    @classmethod
    def from_json_dict(cls, obj, effects_by_label: Mapping[str, Effect]
                       ) -> "ValuationTable":
        """The valuation file's table, labels resolved in ``effects_by_label``;
        then every effect of that pool must have the table's dim
        (DimMismatch), which an empty table cannot check otherwise."""
        dim, values = valuation_from_json(obj)
        entries = []
        for label, value in values.items():
            if label not in effects_by_label:
                raise UnknownLabel(
                    f"label {shown(label)} not in the effects file")
            entries.append(TableEntry(effects_by_label[label], value))
        table = cls(dim, entries)
        for e in effects_by_label.values():
            table._require_dim(e)
        return table


def valuation_from_json(obj) -> tuple[int, dict[str, float]]:
    """Read a valuation file ``{"dim": d, "entries": [{"label": ...,
    "value": ...}, ...]}`` into d and the values by label, in file order.

    The one reader of the format, shared by
    :meth:`ValuationTable.from_json_dict` and ``effectkit validate``. Schema
    faults raise SchemaError, entry by entry; then a repeated label, or a
    dim that :func:`operators.check_dim` rejects, raises ValueError. Values
    are not range-checked.
    """
    obj = jsonio.expect_dict(obj, "valuation table")
    dim = jsonio.expect_int(jsonio.expect_key(obj, "dim", "valuation table"),
                            "valuation.dim")
    items = jsonio.expect_list(
        jsonio.expect_key(obj, "entries", "valuation table"),
        "valuation.entries")
    pairs = []
    for k, item in enumerate(items):
        where = f"valuation.entries[{k}]"
        item = jsonio.expect_dict(item, where)
        label = jsonio.expect_str(jsonio.expect_key(item, "label", where),
                                  "entry.label")
        value = jsonio.expect_number(jsonio.expect_key(item, "value", where),
                                     "entry.value")
        pairs.append((label, value))
    values: dict[str, float] = {}
    for label, value in pairs:
        if label in values:
            raise ValueError(f"duplicate label {shown(label)}")
        values[label] = value
    check_dim(dim)
    return dim, values


@dataclass(frozen=True)
class AdditivityRelation:
    """Axiom (P3) for one sum: v(target) = the sum of v over ``labels``,
    counted with multiplicity; ``target`` is an effect label or ``"I"``
    (value 1). ``kind`` is ``"context"`` for a measurement context, whose
    target is ``"I"``, and ``"relation"`` otherwise, read by
    :meth:`describe` and :meth:`to_json_dict` alone. The labels are stored
    as a tuple. An empty label list, another kind, or a context with
    another target raises ValueError."""

    labels: tuple[str, ...]
    target: str
    kind: str = "relation"

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("an additivity relation needs at least one addend")
        if self.kind not in ("context", "relation"):
            raise ValueError(f"kind must be 'context' or 'relation', "
                             f"got {shown(self.kind)}")
        if self.kind == "context" and self.target != "I":
            raise ValueError(f"a context sums to 'I', not {shown(self.target)}")

    def row(self) -> tuple[dict[str, int], int]:
        """The statement as the integer equation sum(c_l * v(l)) = rhs:
        each label's coefficient, netted over its occurrences, in order of
        first occurrence (labels, then target), and rhs. A target I gives
        rhs 1; a label target counts -1 and gives rhs 0. A label whose
        coefficient nets to 0 (``A + Z = A``) is kept."""
        coeffs: dict[str, int] = {}
        for lb in self.labels:
            coeffs[lb] = coeffs.get(lb, 0) + 1
        if self.target == "I":
            return coeffs, 1
        coeffs[self.target] = coeffs.get(self.target, 0) - 1
        return coeffs, 0

    def describe(self) -> str:
        """The statement as one short line: labels through ``shown``, and
        a long list cut by ``listed``."""
        lhs = listed([f"v({shown(lb, quote=False)})" for lb in self.labels],
                     " + ")
        tgt = ("1" if self.target == "I"
               else f"v({shown(self.target, quote=False)})")
        return f"{self.kind}: {lhs} = {tgt}"

    def to_json_dict(self) -> dict:
        if self.kind == "context":
            return {"kind": "context", "labels": list(self.labels)}
        return {"kind": "relation", "addends": list(self.labels),
                "target": self.target}

    def check_identity(self, resolve: Callable[[str], Effect]) -> None:
        """The test of the statement's operator identity: raise BadRelation
        unless the labels' operators sum to the target's (I for ``"I"``) by
        :func:`effects.sum_equals`, the test a POVM's sum passes, within
        d * ``TOL.sum_per_dim`` in Frobenius norm. Operators of different
        dimension raise DimMismatch."""
        addends = [resolve(lb).op.array for lb in self.labels]
        target = None if self.target == "I" else resolve(self.target).op.array
        holds, dev, bound = sum_equals(addends, target)
        if not holds:
            text = listed([shown(lb, quote=False) for lb in self.labels],
                          " + ")
            raise BadRelation(
                f"claimed identity {text} = {shown(self.target, quote=False)} "
                f"fails: Frobenius deviation {dev:.3e} > {bound:g}")


@dataclass(frozen=True)
class SampleRecord:
    """Outcome counts of repeated measurements of one POVM; the shot count
    ``n`` is the sum of the counts."""

    povm_labels: tuple[str, ...]
    counts: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if len(self.povm_labels) != len(self.counts):
            raise RecordMismatch("counts and POVM label list differ in length")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        if self.n < 1:
            raise ValueError("shot count must be at least 1")

    @property
    def n(self) -> int:
        return sum(self.counts)

    def to_json_dict(self) -> dict:
        return {"povm": list(self.povm_labels), "counts": list(self.counts),
                "n": self.n, "seed": self.seed}


def born_functional(rho: DensityOperator) -> Callable[[HermitianOperator], float]:
    """The Born valuation of ``rho`` as a callable on effect operators:
    tr[rho E], clamped to [0, 1] against float drift."""

    def v(op: HermitianOperator) -> float:
        if op.dim != rho.dim:
            raise DimMismatch(f"state dim {rho.dim} vs effect dim {op.dim}")
        return min(1.0, max(0.0, frobenius_inner(rho.op, op)))

    return v


def born(rho: DensityOperator, e: Effect) -> float:
    """tr[rho E], clamped to [0, 1]: :func:`born_functional` at ``e``."""
    return born_functional(rho)(e.op)


def p1_in_range(value: float) -> bool:
    """Axiom (P1) for one value: it lies in [0, 1] within ``TOL.p1_slack``."""
    return -TOL.p1_slack <= value <= 1.0 + TOL.p1_slack


def povm_relation(v: ValuationTable, povm: Povm) -> AdditivityRelation:
    """The relation "the POVM's labels = I" over ``v``, whose effect of
    each label must be the POVM's by :func:`effects.operator_equals` (else
    BadRelation, naming the label and the deviation)."""
    for e in povm.effects:
        same, dev, bound = operator_equals(e.op.array,
                                           v.effect(e.label).op.array)
        if not same:
            raise BadRelation(
                f"POVM effect {shown(e.label)} is not the valuation's effect "
                f"{shown(e.label)}: Frobenius deviation {dev:.3e} "
                f"{'>' if dev > bound else '>='} {bound:g}")
    return AdditivityRelation(povm.labels, "I")


def p1_range(values: Iterable[tuple[str, float]]) -> dict:
    """The (P1) check of ``(label, value)`` pairs: ``out_of_range`` lists,
    in order, the labels whose value fails :func:`p1_in_range`."""
    bad = [label for label, value in values if not p1_in_range(value)]
    return {"name": "p1_range", "ok": not bad, "out_of_range": bad}


def _violations(relation: str, lhs: float, rhs: float) -> list[dict]:
    """``[{relation, lhs, rhs, deviation}]`` when the two sides differ by
    more than ``TOL.check``, else ``[]``."""
    dev = abs(lhs - rhs)
    if dev <= TOL.check:
        return []
    return [{"relation": relation, "lhs": lhs, "rhs": rhs, "deviation": dev}]


def check_gpm(v: ValuationTable,
              relations: Sequence[AdditivityRelation]) -> list[dict]:
    """Check axioms (P1)-(P3) of a candidate valuation table; the checks
    are dicts ``{"name", "ok", ...}``, the form ``validate`` prints:

    - ``p1_range``: :func:`p1_range` on every stored value;
    - ``p2_identity``, only when some label's operator is the same as I
      by :func:`effects.operator_equals`: its ``violations``
      hold each such label whose value is not 1 within ``TOL.check``, as
      ``{"relation": "P2: v(<label>) = 1", "lhs", "rhs", "deviation"}``;
    - one ``p3_additivity`` row per relation, in the order given (a
      relation given twice is checked twice): its ``violations`` hold the
      relation, as ``"<label> + ... = <target>"``, when the label values
      do not sum to the target's value (1 for ``"I"``) within ``TOL.check``.

    Each relation's operator identity is first tested by
    :meth:`AdditivityRelation.check_identity`, at the per-dimension bound
    of every sum identity, a POVM's included: a failed one raises
    BadRelation, as in ``build_context_set``; an unknown label raises
    UnknownLabel.
    """
    checks = [p1_range((label, entry.value) for label, entry in v.items())]

    labels = v.labels
    stack = np.array([v.effect(lb).op.array for lb in labels]).reshape(
        len(labels), v.dim, v.dim)
    identity = [labels[k] for k in
                np.flatnonzero(operator_equals(stack, np.eye(v.dim))[0])]
    if identity:
        p2 = []
        for label in identity:
            p2 += _violations(f"P2: v({label}) = 1", v.value(label), 1.0)
        checks.append({"name": "p2_identity", "ok": not p2, "violations": p2})

    for rel in relations:
        rel.check_identity(v.effect)
        lhs = float(sum(v.value(label) for label in rel.labels))
        rhs = 1.0 if rel.target == "I" else v.value(rel.target)
        text = " + ".join(rel.labels) + " = " + rel.target
        p3 = _violations(text, lhs, rhs)
        checks.append({"name": "p3_additivity", "ok": not p3,
                       "violations": p3})
    return checks


def extend_to_positive(v_effect: Callable[[HermitianOperator], float],
                       a: HermitianOperator) -> float:
    """Extend a valuation from effects to a positive operator by scaling.

    Writes A = alpha E with alpha = max(||A||, 1), so E = A/alpha is an
    effect, and returns alpha * v(E). Homogeneity of valuations makes the
    result independent of which admissible alpha is chosen; that
    independence is a tested property, not an assumption. An eigenvalue
    below -``TOL.spectrum`` raises NotPositive.
    """
    vals = eigenvalues_of(a)
    if vals[0] < -TOL.spectrum:
        raise NotPositive(f"operator has negative eigenvalue {vals[0]:.6e}")
    alpha = float(max(abs(vals[0]), abs(vals[-1]), 1.0))
    scaled = HermitianOperator(a.array / alpha)
    return alpha * v_effect(scaled)


def jordan_split(c: HermitianOperator
                 ) -> tuple[HermitianOperator, HermitianOperator]:
    """Split C = C+ - C- along its spectrum; both parts are positive.

    Eigenvalues within ``TOL.zero`` of zero are assigned to neither part,
    which keeps numerically-zero modes from flapping between signs.
    """
    vals, vecs = eig_hermitian(c)
    pos = np.where(vals > TOL.zero, vals, 0.0)
    neg = np.where(vals < -TOL.zero, -vals, 0.0)
    c_pos = (vecs * pos) @ vecs.conj().T
    c_neg = (vecs * neg) @ vecs.conj().T
    return HermitianOperator(c_pos), HermitianOperator(c_neg)


def extend_to_selfadjoint(v_effect: Callable[[HermitianOperator], float],
                          c: HermitianOperator) -> float:
    """Extend a valuation to an arbitrary Hermitian operator.

    Uses the Jordan split C = C+ - C- and returns v(C+) - v(C-); the value
    does not depend on which decomposition into positive parts is used
    (tested against random alternative splits).
    """
    c_pos, c_neg = jordan_split(c)
    return (extend_to_positive(v_effect, c_pos)
            - extend_to_positive(v_effect, c_neg))


def hermitian_coords(arrays) -> np.ndarray:
    """Orthonormal real coordinates of a stack of Hermitian matrices.

    Maps shape (..., d, d) to (..., d*d): the diagonal entries, then
    sqrt(2)*Re and -sqrt(2)*Im of each upper-triangle entry (i < j in
    row-major order), pair by pair. The map is an isometry from the trace
    inner product to the dot product, so the coordinates of the effects of
    a frame are the rows of its design matrix.
    """
    arrays = np.asarray(arrays)
    d = arrays.shape[-1]
    iu, ju = np.triu_indices(d, 1)
    upper = np.sqrt(2.0) * arrays[..., iu, ju]
    pairs = np.stack([upper.real, -upper.imag], axis=-1)
    diag = np.diagonal(arrays, axis1=-2, axis2=-1).real
    return np.concatenate(
        [diag, pairs.reshape(*arrays.shape[:-2], d * (d - 1))], axis=-1)


def _from_coords(coords: np.ndarray, d: int) -> np.ndarray:
    """The d x d Hermitian array whose :func:`hermitian_coords` are
    ``coords``."""
    arr = np.diag(coords[:d]).astype(np.complex128)
    iu, ju = np.triu_indices(d, 1)
    pairs = coords[d:].reshape(-1, 2) / np.sqrt(2.0)
    upper = pairs[:, 0] - 1j * pairs[:, 1]
    arr[iu, ju] = upper
    arr[ju, iu] = upper.conj()
    return arr


@dataclass
class ReconstructionDiagnostics:
    """Numerical health of a reconstructed state.

    ``residual`` is ||tr[rho E_k] - v_k||_2 for the returned state,
    ``rank`` the numerical rank of the frame (full rank is dim^2). ``pre``,
    set exactly when ``projected``, holds the unprojected solution's
    ``residual``, ``trace_dev`` and ``min_eig``.
    """

    residual: float
    trace_dev: float
    min_eig: float
    rank: int
    frame_size: int
    pre: dict[str, float] | None = None

    @property
    def projected(self) -> bool:
        return self.pre is not None

    def to_json_dict(self) -> dict:
        out: dict = {
            "residual": self.residual,
            "trace_dev": self.trace_dev,
            "min_eig": self.min_eig,
            "projected": self.projected,
            "rank": self.rank,
            "frame_size": self.frame_size,
        }
        if self.pre is not None:
            out["pre"] = dict(self.pre)
        return out


def project_to_density(h: HermitianOperator) -> DensityOperator:
    """The density operator nearest to ``h`` in Frobenius norm.

    It keeps the eigenvectors of ``h`` and replaces the eigenvalues by their
    Euclidean projection onto the probability simplex: every eigenvalue is
    shifted by one common amount and clipped at zero, with the shift chosen
    so the trace is 1 (Smolin, Gambetta & Smith, PRL 108, 070502, 2012).
    Every Hermitian operator has a nearest state. Idempotent.
    """
    vals, vecs = eig_hermitian(h)
    desc = vals[::-1]
    count = np.arange(1, desc.size + 1)
    means = np.cumsum(desc) / count
    # The j largest eigenvalues stay positive while the j-th exceeds their
    # mean minus 1/j; the first always does (margin exactly 1). Subtracting
    # the mean before adding 1/j keeps the weights exact for huge spectra.
    k = np.flatnonzero(desc - means + 1.0 / count > 0.0)[-1]
    weights = np.maximum(vals - means[k] + 1.0 / count[k], 0.0)
    return DensityOperator(HermitianOperator((vecs * weights) @ vecs.conj().T))


def _health(design: np.ndarray, vals: np.ndarray, op: HermitianOperator
            ) -> dict[str, float]:
    """residual, trace_dev and min_eig of ``op`` as a solution for ``vals``."""
    residual = float(np.linalg.norm(design @ hermitian_coords(op.array) - vals))
    return {"residual": residual,
            "trace_dev": abs(float(np.trace(op.array).real) - 1.0),
            "min_eig": float(eigenvalues_of(op)[0])}


def reconstruct_density(frame: Sequence[Effect], values: Sequence[float],
                        min_norm: bool = False, project_psd: bool = False
                        ) -> tuple[HermitianOperator, ReconstructionDiagnostics]:
    """Solve tr[rho E_k] = v_k for a Hermitian rho.

    The system is solved by SVD in the coordinates of
    :func:`hermitian_coords`, with singular values below ``TOL.sv_cutoff``
    times the largest treated as zero. A frame whose numerical rank is
    below dim^2 raises FrameDeficient unless ``min_norm`` is set, in which
    case the minimum-Frobenius-norm solution is returned and the rank
    deficit shows up in the diagnostics. A residual above ``TOL.residual``
    means the values are not the restriction of any linear functional and
    raises ValuesInconsistent.

    The result is the Hermitian operator solved for, which may violate
    positivity or unit trace by whatever amount the diagnostics report;
    ``DensityOperator(result)`` checks it. With ``project_psd`` it is the
    operator of the nearest density operator in Frobenius norm
    (:func:`project_to_density`), so that check passes.
    """
    frame = list(frame)
    if not frame:
        raise ValueError("reconstruction needs a nonempty frame")
    if len(frame) != len(values):
        raise ValueError("frame and values differ in length")
    dim = frame[0].dim
    for e in frame:
        if e.dim != dim:
            raise DimMismatch(
                f"effect {shown(e.label)} has dim {e.dim}, frame dim {dim}")
    vals = np.asarray([float(x) for x in values], dtype=np.float64)
    if not all(p1_in_range(x) for x in vals):
        raise ValueError("reconstruction values must lie in [0, 1]")

    design = np.empty((len(frame), dim * dim))
    for lo in range(0, len(frame), BLOCK_ROWS):
        block = frame[lo:lo + BLOCK_ROWS]
        design[lo:lo + len(block)] = hermitian_coords(
            np.array([e.op.array for e in block]))
    u, sigma, vt = np.linalg.svd(design, full_matrices=False)
    kept = sigma > TOL.sv_cutoff * sigma[0]
    rank = int(np.count_nonzero(kept))
    if rank < dim * dim and not min_norm:
        raise FrameDeficient(
            f"frame spans only {rank} of {dim * dim} dimensions")
    inv_sigma = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=kept)
    solution = HermitianOperator(
        _from_coords(vt.T @ (inv_sigma * (u.T @ vals)), dim))
    health, pre = _health(design, vals, solution), None
    if health["residual"] > TOL.residual:
        raise ValuesInconsistent(
            f"values violate linearity: residual {health['residual']:.3e} > "
            f"{TOL.residual:g}")
    if project_psd:
        pre, solution = health, project_to_density(solution).op
        health = _health(design, vals, solution)
    return solution, ReconstructionDiagnostics(
        **health, rank=rank, frame_size=len(frame), pre=pre)


# Uniform draws made at once by sample_outcomes: 8 MB of doubles. PCG64
# gives the same stream in chunks as in one call, so the counts do not
# depend on it.
_SHOT_CHUNK = 1 << 20
# Most outcomes counted by thresholds. Per chunk of 2**20 draws on one
# core of a 2-vCPU Xeon guest, thresholds took 0.6, 10 and 80 ms at 2, 16
# and 128 outcomes, a sorted search 31, 57 and 101 ms; at 256, 163
# against 111 ms.
_MAX_THRESHOLDS = 128


def sample_outcomes(rho: DensityOperator, povm: Povm, n: int,
                    seed: int) -> SampleRecord:
    """Draw n i.i.d. outcomes from the Born distribution of (rho, povm).

    Sampling is inverse-CDF on the cumulative probability vector with ties
    broken toward the lower index, driven by PCG64(seed); a fixed seed gives
    a bit-identical record on every run. The draws are made and counted
    ``_SHOT_CHUNK`` at a time, so memory does not grow with n; n must be
    below 2**63, the range of the int64 counts.
    """
    if rho.dim != povm.dim:
        raise DimMismatch(f"state dim {rho.dim} vs POVM dim {povm.dim}")
    if n < 1:
        raise ValueError("shot count must be at least 1")
    if n >= 2 ** 63:
        raise ValueError("shot count must be below 2**63")
    probs = np.array([born(rho, e) for e in povm.effects])
    total = float(probs.sum())
    if abs(total - 1.0) > TOL.check:
        raise ProbabilityDeficit(
            f"outcome probabilities sum to {total:.12g}, not 1")
    probs = probs / total
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.zeros(len(probs), dtype=np.int64)
    for done in range(0, n, _SHOT_CHUNK):
        counts += _outcome_counts(cum, rng.random(min(_SHOT_CHUNK, n - done)))
    return SampleRecord(povm.labels, tuple(int(c) for c in counts), seed)


def _outcome_counts(cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """How many draws u fall to each outcome j: the first j with
    u <= cum[j], and the last outcome when there is none. That is
    ``searchsorted(cum, u, side="left")`` clamped to the last index.

    When cum does not decrease, the draws up to outcome j are the draws
    u <= cum[j], so each count is a difference of two
    ``count_nonzero(draws <= cum[j])``, one per threshold, and the last
    outcome takes the rest; ties and zero-probability outcomes come out
    as the search gives them. A cum that decreases (a Born probability
    below 0 within tolerance) is searched, and so is one of more than
    ``_MAX_THRESHOLDS`` outcomes, where the search is faster.
    """
    k = len(cum)
    if k <= _MAX_THRESHOLDS and np.all(cum[1:] >= cum[:-1]):
        below = [np.count_nonzero(draws <= c) for c in cum[:-1]]
        below.append(len(draws))
        return np.diff(below, prepend=0)
    idx = np.minimum(np.searchsorted(cum, draws, side="left"), k - 1)
    return np.bincount(idx, minlength=k)


def estimate_valuation(record: SampleRecord, povm: Povm) -> ValuationTable:
    """Empirical valuation v(E_i) = counts_i / n with standard errors.

    The final entry is completed to make the table sum to exactly 1.0 in
    float arithmetic (it differs from counts/n by at most a few ulp), and
    each entry carries the binomial standard error sqrt(v(1-v)/n).
    """
    if record.povm_labels != povm.labels:
        raise RecordMismatch("record labels do not match the POVM")
    n = record.n
    values = [c / n for c in record.counts]
    head = 0.0
    for v in values[:-1]:
        head += v
    values[-1] = 1.0 - head
    entries = []
    for e, v in zip(povm.effects, values):
        stderr = float(np.sqrt(max(v * (1.0 - v), 0.0) / n))
        entries.append(TableEntry(e, v, stderr))
    return ValuationTable(povm.dim, entries)
