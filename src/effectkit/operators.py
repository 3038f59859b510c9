"""Hermitian operators on small Hilbert spaces, and the tolerance table.

:class:`HermitianOperator` is the package's one matrix type: the carrier
for effects, states, and observables. Everything here is immutable after
construction and every operation is a pure function, so values can be
shared freely across threads. Dimensions are capped at :data:`MAX_DIM`
(rebind it before constructing larger matrices). The cap is measured:
``reconstruct --project-psd`` from a frame of d^2 + 3 effects at d = 64 (a
0.78 GB file) ran in 101 s with a 1.5 GB peak RSS, on one BLAS thread of a
2-vCPU Xeon guest. :data:`TOL` holds every numerical tolerance of the
package.

The operators of an effects file are built as one (K, d, d) stack by
:func:`hermitian_stack`: whole-array calls symmetrize it and measure it,
and one eigensolver call gives every spectrum. One operator built alone
runs the same code on a stack of one. Either way each operator keeps its
ascending spectrum once it is known, read-only, and
:func:`eigenvalues_of` reads it from there. That cache is the one state
an operator gains after construction, and it is safe to share: the
spectrum is a pure function of the read-only array, so two threads that
fill it at once compute the same values and each stores a complete
array in one attribute assignment.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import ConvergenceFailure, DimMismatch, SchemaError
from . import jsonio

MAX_DIM = 64


class TOL:
    """Every numerical tolerance of the package, named by what it guards.
    Bounds are absolute unless the comment says otherwise; matrix norms are
    Frobenius."""

    # Eigensolver residual (relative to 1 + ||M||), orthonormality of the
    # eigenvectors, and agreement with a closed-form eigenvalue.
    eig = 1e-9
    hermitian = 1e-10         # herm_deviation that validation accepts
    spectrum = 1e-9           # eigenvalue slack below 0 and above 1
    unit_trace = 1e-9         # |tr - 1| of a state or Bloch operator
    spectral_gap = 1e-9       # eigenvalues merged by spectral_split
    projection = 1e-8         # ||P^2 - P|| of a projection
    # ||E_1 + E_2 + ... - T|| of every sum identity (a POVM or context sums
    # to T = I, a relation to I or an effect), per dimension.
    sum_per_dim = 1e-8
    same_operator = 1e-10     # two operators are the same
    zero = 1e-12              # |eigenvalue| or norm at most this is 0
    p1_slack = 1e-12          # values accepted in [-s, 1 + s]
    # Sums of values: (P2), (P3), and Born probabilities over a POVM.
    check = 1e-8
    sv_cutoff = 1e-10         # singular values, relative to the largest
    residual = 1e-6           # ||design @ coords - values||_2
    unit_vector = 1e-9        # ||n| - 1| of a Bloch direction
    min_angle = 1e-6          # radians between two Bloch directions
    mixture_margin = 1e-9     # |c| of a witness stays below 1 - margin


def check_dim(d: int) -> None:
    """Raise ValueError unless 1 <= d <= MAX_DIM; cheap, so callers can run
    it before allocating anything of size d. A huge d is shown abridged."""
    if d < 1:
        raise ValueError("matrix dimension must be at least 1")
    if d > MAX_DIM:
        raise ValueError(f"dimension {reprlib.repr(d)} exceeds MAX_DIM={MAX_DIM}")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A Hermitian matrix, canonically symmetrized at construction.

    The input must be a finite square array with 1 <= d <= MAX_DIM, else
    ValueError. It is replaced by (M + M^dagger)/2, stored read-only, and
    the worst entrywise deviation |M[i][j] - conj(M[j][i])| of the input is
    kept in ``herm_deviation`` so float drift in files is visible instead of
    being silently absorbed; construction never rejects for drift, only
    for a deviation that overflows to infinity (ValueError). The ascending
    spectrum is computed once, by :func:`eigenvalues_of` or for a whole
    stack by :func:`hermitian_stack`, and kept read-only.
    """

    array: np.ndarray
    herm_deviation: float = field(init=False, default=0.0)
    _spectrum: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        check_dim(arr.shape[0])
        sym, finite, deviation = _symmetrize(arr[None])
        fault = _construction_fault(finite[0], deviation[0])
        if fault is not None:
            raise fault
        sym.setflags(write=False)
        object.__setattr__(self, "array", sym[0])
        object.__setattr__(self, "herm_deviation", float(deviation[0]))

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(np.eye(dim, dtype=np.complex128))

    def to_json_dict(self) -> dict:
        """Wire format: ``{"dim": d, "entries": [[re, im], ...]}`` row-major."""
        flat = self.array.reshape(-1)
        return {
            "dim": self.dim,
            "entries": [[float(z.real), float(z.imag)] for z in flat],
        }

    # Hermitian operators are closed under real-linear combinations; these
    # are the only arithmetic dunders provided on purpose (a product of
    # Hermitian operators is generally not Hermitian).
    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        _require_same_dim(self, other)
        return HermitianOperator(self.array + other.array)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        _require_same_dim(self, other)
        return HermitianOperator(self.array - other.array)

    def __mul__(self, scalar) -> "HermitianOperator":
        return HermitianOperator(self.array * float(scalar))

    __rmul__ = __mul__


def matrix_from_json(obj) -> np.ndarray:
    """The wire format read into a d x d complex array, checked against
    the schema alone; the operator's checks are construction's. Entries
    that ``jsonio.load`` packed while decoding are taken as their array;
    any other list (ints, odd entries, a dict built in code) is read entry
    by entry by :func:`_entry_array`, whose SchemaError names the bad one."""
    obj = jsonio.expect_dict(obj, "matrix")
    d = jsonio.expect_int(jsonio.expect_key(obj, "dim", "matrix"), "matrix.dim")
    entries = jsonio.expect_key(obj, "entries", "matrix")
    if not isinstance(entries, jsonio.PackedEntries):
        entries = jsonio.expect_list(entries, "matrix.entries")
    if d < 1:
        raise SchemaError("matrix.dim must be a positive integer")
    check_dim(d)
    if len(entries) != d * d:
        raise SchemaError(
            f"matrix.entries: expected {d * d} [re, im] pairs, got {len(entries)}")
    return _entry_array(entries).reshape(d, d)


def _entry_array(entries) -> np.ndarray:
    """The [re, im] entries as one flat complex array. Packed entries are
    taken as their array; a list is checked and converted entry by entry
    by jsonio, whose SchemaError names the entry at fault. Viewing the
    floats as complex keeps every bit, signed zeros included."""
    if isinstance(entries, jsonio.PackedEntries):
        return entries.values
    numbers: list[float] = []
    for k, pair in enumerate(entries):
        pair = jsonio.expect_list(pair, f"matrix.entries[{k}]")
        if len(pair) != 2:
            raise SchemaError(f"matrix.entries[{k}]: expected [re, im]")
        numbers.append(jsonio.expect_number(pair[0], f"matrix.entries[{k}][0]"))
        numbers.append(jsonio.expect_number(pair[1], f"matrix.entries[{k}][1]"))
    return np.array(numbers, dtype=np.float64).view(np.complex128)


# Operators taken at once by every block loop over a stack of them:
# hermitian_stack's symmetrization, the Gram filter of
# effects.warn_duplicate_operators and the design rows of
# valuation.reconstruct_density. Blocks keep their temporaries small. At
# d = 64 a block of 32 matrices is 2 MB. At K = 259 the whole K x K Gram
# matrix and the arrays derived from it raised peak RSS by 1.1 MB, blocks
# of 32 rows by 0.3 MB. At K = 259, d = 16 the whole frame took the traced
# peak of a reconstruction to 5.8 times the 0.53 MB design, blocks of 32 to
# 3.1 times (design, U and Vt alone are 3 times); on one core of a 2-vCPU
# Xeon guest, medians of 50 calls, blocks of 32 built that design in
# 0.8-0.9 ms, the whole frame in 0.8-2.0 ms and one row at a time in
# 8-14 ms.
BLOCK_ROWS = 32


def _symmetrize(arr: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M + M^dagger)/2 of each matrix M of the (k, d, d) stack ``arr``,
    and per matrix whether that is finite and the deviation
    max |M[i][j] - conj(M[j][i])|. The result is the only copy made; it is
    non-finite exactly when the input is, or when the sum overflows.
    Overflow is reported by those values, not by numpy warnings."""
    adj = arr.swapaxes(-1, -2).conj()
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (arr + adj) / 2.0
        finite = np.isfinite(sym).all(axis=(-2, -1))
        deviation = np.abs(arr - adj).max(axis=(-2, -1))
    return sym, finite, deviation


def _construction_fault(finite, deviation) -> ValueError | None:
    """The ValueError that construction raises for one matrix, or None."""
    if not finite:
        return ValueError("matrix entries must be finite")
    if not math.isfinite(deviation):
        return ValueError("hermiticity deviation |M[i][j] - conj(M[j][i])| "
                          "is not finite")
    return None


def hermitian_stack(arrays: Sequence[np.ndarray]
                    ) -> Iterator[HermitianOperator]:
    """``HermitianOperator(m)`` for each d x d complex array m of
    ``arrays`` (all of one shape), in order, built as one read-only
    (K, d, d) stack: each operator's ``array`` is a view of it.

    The symmetrization, the finiteness check and ``herm_deviation`` run
    as whole-array calls, and one ``np.linalg.eigvalsh`` call fills the
    spectrum of every operator before the first that fails. Each value is
    the one that constructing the operator alone gives, bit for bit.

    Operators come one at a time, and in place of the first that would
    not construct, the error its construction raises is raised. So a
    caller that checks each operator as it comes sees the faults in input
    order, as if it had built them one by one. A failed eigensolve leaves
    the spectra to :func:`eigenvalues_of`, which then raises
    ConvergenceFailure for the operator at fault.
    """
    if not len(arrays):
        return
    shape = arrays[0].shape
    check_dim(shape[0])
    stack = np.empty((len(arrays), *shape), dtype=np.complex128)
    finite = np.empty(len(arrays), dtype=bool)
    deviation = np.empty(len(arrays))
    for lo in range(0, len(arrays), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        stack[rows], finite[rows], deviation[rows] = _symmetrize(
            np.array(arrays[rows]))
    stack.setflags(write=False)
    good = finite & np.isfinite(deviation)
    end = len(arrays) if good.all() else int(np.argmin(good))
    try:
        spectra = np.linalg.eigvalsh(stack[:end])
    except np.linalg.LinAlgError:
        spectra = [None] * end
    else:
        spectra.setflags(write=False)
    for k in range(end):
        op = object.__new__(HermitianOperator)
        object.__setattr__(op, "array", stack[k])
        object.__setattr__(op, "herm_deviation", float(deviation[k]))
        object.__setattr__(op, "_spectrum", spectra[k])
        yield op
    if end < len(arrays):
        raise _construction_fault(finite[end], deviation[end])


def hermitian_drift(h: HermitianOperator) -> dict:
    """Check ``herm_deviation <= TOL.hermitian``. Every check is a dict
    ``{"name", "ok", <figure>, "bound"}``, the form ``validate`` prints."""
    return {"name": "hermitian_drift", "ok": h.herm_deviation <= TOL.hermitian,
            "deviation": h.herm_deviation, "bound": TOL.hermitian}


def positive(vals: np.ndarray) -> dict:
    """Check the least of the ascending eigenvalues ``vals``: min_eig >=
    -TOL.spectrum."""
    lo = float(vals[0])
    return {"name": "positive", "ok": lo >= -TOL.spectrum, "min_eig": lo,
            "bound": -TOL.spectrum}


def unit_trace(h: HermitianOperator) -> dict:
    """Check the trace in [1 - TOL.unit_trace, 1 + TOL.unit_trace]."""
    tr = float(np.trace(h.array).real)
    bound = [1.0 - TOL.unit_trace, 1.0 + TOL.unit_trace]
    return {"name": "unit_trace", "ok": bound[0] <= tr <= bound[1],
            "trace": tr, "bound": bound}


def _require_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def eig_hermitian(h: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator: ``(eigenvalues,
    eigenvectors)`` as ``np.linalg.eigh`` returns them, the eigenvalues
    ascending and the eigenvectors orthonormal columns.

    Uses a deterministic dense solver; identical input bits give identical
    output bits within one build of the underlying LAPACK run with one BLAS
    thread count (a threaded BLAS may sum in another order). Within a
    degenerate eigenvalue cluster the eigenvector basis is solver-chosen and
    must not be relied on downstream.

    Raises
    ------
    ConvergenceFailure
        If the solver fails, or the reconstruction residual
        ||sum_i l_i v_i v_i^H - M||_F exceeds ``TOL.eig`` * (1 + ||M||_F),
        or the eigenvectors are not orthonormal to ``TOL.eig``.
    """
    arr = h.array
    try:
        vals, vecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    bound = TOL.eig * (1.0 + np.linalg.norm(arr))
    residual = np.linalg.norm((vecs * vals) @ vecs.conj().T - arr)
    if residual > bound:
        raise ConvergenceFailure(f"eigendecomposition residual {residual} "
                                 f"> bound {bound}")
    gram_dev = np.max(np.abs(vecs.conj().T @ vecs - np.eye(h.dim)))
    if gram_dev > TOL.eig:
        raise ConvergenceFailure(f"eigenvectors not orthonormal (deviation "
                                 f"{gram_dev} > bound {TOL.eig})")
    return vals, vecs


def eigenvalues_of(h: HermitianOperator) -> np.ndarray:
    """Ascending eigenvalues (no eigenvectors computed), read-only. The
    first call computes them and keeps them on the operator; later calls,
    and every operator of a :func:`hermitian_stack`, read that copy."""
    vals = h._spectrum
    if vals is None:
        try:
            vals = np.linalg.eigvalsh(h.array)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
        vals.setflags(write=False)
        object.__setattr__(h, "_spectrum", vals)
    return vals


def frobenius_inner(a: HermitianOperator, b: HermitianOperator) -> float:
    """tr[a b], which is real for Hermitian operands."""
    _require_same_dim(a, b)
    return float(np.einsum("ij,ji->", a.array, b.array).real)
