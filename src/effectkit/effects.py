"""Effects, POVMs, projections, and the qubit Bloch parameterization.

An effect is a Hermitian operator E with 0 <= E <= I; a POVM is a finite
list of effects summing to the identity — one experiment's outcome set.
Effects carry caller-supplied string labels: identity of an effect across
measurement contexts is decided by label, never by float comparison, so
non-contextuality questions stay explicit.
"""

from __future__ import annotations

import contextlib
import warnings
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import (
    DimMismatch,
    DuplicateOperatorWarning,
    ExceedsIdentity,
    NotDimTwo,
    NotPositive,
    SchemaError,
    SumNotIdentity,
    TraceNotOne,
    raise_first_failure,
    shown,
)
from .operators import (
    BLOCK_ROWS,
    TOL,
    HermitianOperator,
    check_dim,
    eig_hermitian,
    eigenvalues_of,
    hermitian_drift,
    hermitian_stack,
    matrix_from_json,
    positive,
    unit_trace,
)

# Standard Pauli convention; sigma_y = [[0, -i], [i, 0]].
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
for _s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
    _s.setflags(write=False)


def effect_checks(op: HermitianOperator) -> list[dict]:
    """The effect checks ``hermitian_drift``, ``positive`` and
    ``below_identity`` (max_eig <= 1 + TOL.spectrum), in that order, each
    with its ``bound``."""
    vals = eigenvalues_of(op)
    hi = float(vals[-1])
    return [hermitian_drift(op), positive(vals),
            {"name": "below_identity", "ok": hi <= 1.0 + TOL.spectrum,
             "max_eig": hi, "bound": 1.0 + TOL.spectrum}]


@dataclass(frozen=True, eq=False)
class Effect:
    """Labeled operator with spectrum inside [0, 1] (within
    ``TOL.spectrum``); raises NotPositive or ExceedsIdentity from the first
    failed spectral check of :func:`effect_checks`, whose
    ``hermitian_drift`` it does not enforce."""

    op: HermitianOperator
    label: str

    def __post_init__(self):
        raise_first_failure("effect", zip((NotPositive, ExceedsIdentity),
                                          effect_checks(self.op)[1:]),
                            self.label)

    @property
    def dim(self) -> int:
        return self.op.dim

    def to_json_dict(self) -> dict:
        return {"label": self.label, "op": self.op.to_json_dict()}


def effect_from_json(obj) -> tuple[np.ndarray, str]:
    """The one reader of an effect ``{"label": ..., "op": ...}``: its
    matrix, unbuilt, and its label, with schema checks only. Its callers,
    :func:`effects_from_json_dict` and ``effectkit validate``, each build
    the ``HermitianOperator``."""
    obj = jsonio.expect_dict(obj, "effect")
    label = jsonio.expect_str(jsonio.expect_key(obj, "label", "effect"),
                              "effect.label")
    return matrix_from_json(jsonio.expect_key(obj, "op", "effect")), label


def sum_equals(addends, target=None):
    """The one test of a sum identity E_1 + ... + E_n = T (I when None),
    as (holds, residual, bound): it holds when the Frobenius residual is at
    most bound = d * ``TOL.sum_per_dim``. E_n or T may be a stack of arrays,
    one result each; arrays of different d raise DimMismatch."""
    d = np.shape(addends[0])[-1]
    target = np.eye(d) if target is None else target
    other = {np.shape(a)[-1] for a in (*addends, target)} - {d}
    if other:
        raise DimMismatch(f"dimension mismatch: {d} vs {min(other)}")
    residual = np.linalg.norm(sum(addends[1:], addends[0]) - target,
                              axis=(-2, -1))
    bound = d * TOL.sum_per_dim
    return residual <= bound, residual, bound


def operator_equals(a, b):
    """The one test of two operators being the same, as (holds, distance,
    bound): it holds when the Frobenius distance ||A - B||_F is below
    bound = ``TOL.same_operator``, strictly. A or B may be a stack of
    arrays, one result each; arrays of different d raise DimMismatch."""
    da, db = np.shape(a)[-1], np.shape(b)[-1]
    if da != db:
        raise DimMismatch(f"dimension mismatch: {da} vs {db}")
    distance = np.linalg.norm(np.subtract(a, b), axis=(-2, -1))
    bound = TOL.same_operator
    return distance < bound, distance, bound


def sum_to_identity(effects) -> dict:
    """The POVM check of nonempty ``effects``: their sum's Frobenius
    ``residual`` from I by :func:`sum_equals`, with its ``bound``."""
    holds, residual, bound = sum_equals([e.op.array for e in effects])
    return {"name": "sum_to_identity", "ok": bool(holds),
            "residual": float(residual), "bound": bound}


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite, nonempty list of effects whose sum is I by
    :func:`sum_to_identity`: :func:`sum_equals`, the test of every sum
    identity (contexts and relations too); its dimension is its first
    effect's, and an effect of another dimension raises DimMismatch."""

    effects: tuple[Effect, ...]

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(self.effects))
        if not self.effects:
            raise SumNotIdentity("a POVM needs at least one effect")
        raise_first_failure("POVM", [(SumNotIdentity,
                                      sum_to_identity(self.effects))])

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.effects)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim,
                "effects": [e.to_json_dict() for e in self.effects]}


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector a parameterizing A = (I + a.sigma)/2 on a qubit."""

    a: tuple[float, float, float]

    def __post_init__(self):
        ax, ay, az = (float(v) for v in self.a)
        if not all(np.isfinite(v) for v in (ax, ay, az)):
            raise ValueError("Bloch components must be finite")
        object.__setattr__(self, "a", (ax, ay, az))

    @property
    def norm(self) -> float:
        return float(np.sqrt(sum(v * v for v in self.a)))

    def to_json_dict(self) -> dict:
        return {"a": list(self.a)}


def is_projection(e: Effect) -> bool:
    """True iff ||E^2 - E||_F <= ``TOL.projection`` (idempotent effect)."""
    arr = e.op.array
    return bool(np.linalg.norm(arr @ arr - arr) <= TOL.projection)


def complement(e: Effect, label: str | None = None) -> Effect:
    """The complementary effect I - E (an involution on effects)."""
    comp = HermitianOperator.identity(e.dim) - e.op
    return Effect(comp, label if label is not None else f"not({e.label})")


def bloch_to_operator(a: BlochVector) -> HermitianOperator:
    """Assemble (I + a.sigma)/2; the trace is exactly 1 by construction.

    Any 3-vector is accepted; whether the result is an effect or a state is
    judged by the downstream validators (|a| <= 1 gives a positive operator,
    |a| = 1 a rank-1 projection).
    """
    ax, ay, az = a.a
    m = np.empty((2, 2), dtype=np.complex128)
    m[0, 0] = 0.5 + 0.5 * az
    m[1, 1] = 1.0 - (0.5 + 0.5 * az)
    m[0, 1] = 0.5 * ax - 0.5j * ay
    m[1, 0] = 0.5 * ax + 0.5j * ay
    return HermitianOperator(m)


def operator_to_bloch(h: HermitianOperator) -> BlochVector:
    """Extract a_k = tr[h sigma_k] from a qubit operator that passes
    :func:`operators.unit_trace` (else TraceNotOne).

    Round-trips with :func:`bloch_to_operator` to 1e-12.
    """
    if h.dim != 2:
        raise NotDimTwo(f"Bloch extraction needs a 2x2 operator, got dim {h.dim}")
    raise_first_failure("operator", [(TraceNotOne, unit_trace(h))])
    arr = h.array
    ax = float(np.einsum("ij,ji->", arr, SIGMA_X).real)
    ay = float(np.einsum("ij,ji->", arr, SIGMA_Y).real)
    az = float(np.einsum("ij,ji->", arr, SIGMA_Z).real)
    return BlochVector((ax, ay, az))


def spectral_split(e: Effect) -> list[tuple[float, Effect]]:
    """Decompose an effect as sum_i lambda_i P_i over its distinct eigenvalues.

    Eigenvalues closer than ``TOL.spectral_gap`` are merged into one group
    (chained), and each group's spectral projector is returned as an Effect
    labeled ``"<label>:proj<i>"``. Groups come back in ascending eigenvalue order.

    Postconditions enforced here: the projectors are effects within
    ``TOL.spectrum``, mutually orthogonal, complete (sum to I), and
    reassemble the input to ``TOL.eig``; violations raise
    ConvergenceFailure via the eigensolver checks.
    """
    vals, vecs = eig_hermitian(e.op)
    groups: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][-1]] <= TOL.spectral_gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    out: list[tuple[float, Effect]] = []
    for gi, idxs in enumerate(groups):
        v = vecs[:, idxs]
        proj = HermitianOperator(v @ v.conj().T)
        value = float(np.mean(vals[idxs]))
        out.append((value, Effect(proj, f"{e.label}:proj{gi}")))
    return out


def effects_from_json_dict(obj) -> list[Effect]:
    """Parse ``{"dim": d, "effects": [...]}`` (shared by POVM and frame files).

    A d outside 1..MAX_DIM, then no effect, raises ValueError before any
    item is read. Each item is read by :func:`effect_from_json`, and the
    first fault in file order is the one raised. The items are read up to
    the first schema error or the first matrix that is not d x d, which is a
    DimMismatch; the effects before it are built as one stack by
    :func:`operators.hermitian_stack`, with one eigensolve call for all,
    and checked in order, and that fault is raised only if they all pass.
    """
    obj = jsonio.expect_dict(obj, "effects file")
    dim = jsonio.expect_int(jsonio.expect_key(obj, "dim", "effects file"),
                            "effects.dim")
    items = jsonio.expect_list(jsonio.expect_key(obj, "effects", "effects file"),
                               "effects.effects")
    check_dim(dim)
    if not items:
        raise ValueError("an effects file needs at least one effect")
    arrays, labels, fault = [], [], None
    for item in items:
        try:
            array, label = effect_from_json(item)
        except SchemaError as exc:
            fault = exc
            break
        if array.shape != (dim, dim):
            fault = DimMismatch(f"effect {shown(label)} has dim {len(array)}, "
                                f"file declares dim {dim}")
            break
        arrays.append(array)
        labels.append(label)
    effects = [Effect(op, label)
               for op, label in zip(hermitian_stack(arrays), labels)]
    if fault is not None:
        raise fault
    return effects


def effects_by_label(effects) -> dict[str, Effect]:
    """Each effect under its label, in input order: a pool of effects on one
    Hilbert space (a frame, a valuation's or a context set's effects file).
    A repeated label raises ValueError, then an effect whose dim is not the
    first one's DimMismatch. A POVM or a context may repeat a label."""
    effects = list(effects)
    pool: dict[str, Effect] = {}
    for e in effects:
        if e.label in pool:
            raise ValueError(f"duplicate effect label {shown(e.label)}")
        if e.dim != effects[0].dim:
            raise DimMismatch(f"effect {shown(e.label)} has dim {e.dim}, "
                              f"pool has dim {effects[0].dim}")
        pool[e.label] = e
    return pool


# The handler set by report_duplicate_operators in the current context, or
# None for Python warnings.
_duplicate_handler: ContextVar = ContextVar("duplicate_handler", default=None)


@contextlib.contextmanager
def report_duplicate_operators(handler):
    """Within the block, pass each message of
    :func:`warn_duplicate_operators` to ``handler(message)`` instead of
    ``warnings.warn``.

    The handler lives in a context variable, so it applies to the calling
    thread only and the process's warning filters are never touched.
    """
    token = _duplicate_handler.set(handler)
    try:
        yield
    finally:
        _duplicate_handler.reset(token)


def warn_duplicate_operators(effects) -> None:
    """Warn when two distinct labels carry operators closer than
    ``TOL.same_operator`` in Frobenius norm, one warning per pair in
    ascending (i, j) order of the input. Inside
    :func:`report_duplicate_operators` each message goes to its handler
    instead.

    The effects are of one dimension d, as in a pool of
    :func:`effects_by_label`, and are compared in one filtered pass: only
    the pairs that pass a Gram-matrix filter are decided, each by the exact
    test :func:`operator_equals` on the arrays. The real and imaginary parts
    of an operator's entries form a vector x_k of n = 2d^2 reals, and
    ||A_i - A_j||_F = |x_i - x_j|. The filter reads the squared
    distances |x_i|^2 + |x_j|^2 - 2 x_i.x_j from the Gram matrix of the x_k
    (formed ``BLOCK_ROWS`` rows at a time) and passes a pair when its
    squared distance is at most T^2 + 4(n + 2) eps (T^2 + |x_i|^2 +
    |x_j|^2), with T = ``TOL.same_operator`` and eps =
    ``np.finfo(float).eps``.

    The bound is derived from the float error on both sides. A dot product
    of n terms is off by at most about n eps/2 |x||y|, so the expansion is
    off by at most (n + 2) eps (|x_i|^2 + |x_j|^2), its two sums included.
    The exact test rounds relatively, by at most (n + 2) eps in the norm,
    so it accepts a squared distance of at most T^2 (1 + 3(n + 2) eps).
    The bound covers both, so the filter drops no pair that the exact test
    flags.
    """
    items = list(effects)
    if not items:
        return
    handler = _duplicate_handler.get()
    for i, j in _near_pairs(np.array([e.op.array for e in items])):
        a, b = items[i], items[j]
        if a.label == b.label or not operator_equals(a.op.array,
                                                     b.op.array)[0]:
            continue
        message = (f"labels {shown(a.label)} and {shown(b.label)} carry "
                   f"the same operator (Frobenius distance < "
                   f"{TOL.same_operator:g})")
        if handler is None:
            warnings.warn(message, DuplicateOperatorWarning, stacklevel=2)
        else:
            handler(message)


def _near_pairs(arrays: np.ndarray):
    """Index pairs a < b of a stack of square arrays that pass the Gram
    filter of :func:`warn_duplicate_operators`, block by block."""
    x = arrays.reshape(len(arrays), -1).view(np.float64)
    sq = (x * x).sum(axis=1)
    slack = 4 * (x.shape[1] + 2) * np.finfo(np.float64).eps
    tol_sq = TOL.same_operator ** 2
    for lo in range(0, len(x), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        dist_sq = sq[rows, None] + sq - 2.0 * (x[rows] @ x.T)
        bound = tol_sq + slack * (tol_sq + sq[rows, None] + sq)
        for a, b in zip(*np.nonzero(np.triu(dist_sq <= bound, 1 + lo))):
            yield lo + a, b
