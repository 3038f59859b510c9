"""Shared builders for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from effectkit import (
    TOL,
    AdditivityRelation,
    ContextSet,
    Effect,
    HermitianOperator,
    SchemaError,
    build_context_set,
    jsonio,
    random_povm,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli_op(ax: float, ay: float, az: float) -> HermitianOperator:
    """(I + a.sigma)/2 assembled entry by entry, independent of the package."""
    arr = 0.5 * (np.eye(2, dtype=complex) + ax * SX + ay * SY + az * SZ)
    return HermitianOperator(arr)


def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal basis of the d x d Hermitian matrices, shape (d*d, d, d):
    unit diagonal matrices, then for each i < j the symmetric and the
    antisymmetric off-diagonal pair. Oracle for ``hermitian_coords``, whose
    coordinates are the trace inner products tr[B_k A]."""
    basis = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    k = 0
    for i in range(dim):
        basis[k, i, i] = 1.0
        k += 1
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            basis[k, i, j] = inv_sqrt2
            basis[k, j, i] = inv_sqrt2
            k += 1
            basis[k, i, j] = -1j * inv_sqrt2
            basis[k, j, i] = 1j * inv_sqrt2
            k += 1
    return basis


def duplicate_messages_by_pairs(effects) -> list[str]:
    """The ``DuplicateOperatorWarning`` messages of a direct scan over every
    pair i < j. Oracle for ``warn_duplicate_operators``."""
    items = list(effects)
    out = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = items[i], items[j]
            if a.label == b.label or a.dim != b.dim:
                continue
            if np.linalg.norm(a.op.array - b.op.array) < TOL.same_operator:
                out.append(
                    f"labels {a.label!r} and {b.label!r} carry the same "
                    f"operator (Frobenius distance < {TOL.same_operator:g})")
    return out


def entries_by_loop(entries) -> np.ndarray:
    """The [re, im] entries as a flat complex array, each number checked and
    converted one by one. Oracle for the one-pass parser
    ``operators._entry_array``."""
    flat = np.empty(len(entries), dtype=np.complex128)
    for k, pair in enumerate(entries):
        pair = jsonio.expect_list(pair, f"matrix.entries[{k}]")
        if len(pair) != 2:
            raise SchemaError(f"matrix.entries[{k}]: expected [re, im]")
        re = jsonio.expect_number(pair[0], f"matrix.entries[{k}][0]")
        im = jsonio.expect_number(pair[1], f"matrix.entries[{k}][1]")
        flat[k] = complex(re, im)
    return flat


def matrix_by_entry_loop(obj) -> HermitianOperator:
    """``HermitianOperator.from_json_dict`` with :func:`entries_by_loop`."""
    obj = jsonio.expect_dict(obj, "matrix")
    d = jsonio.expect_int(jsonio.expect_key(obj, "dim", "matrix"), "matrix.dim")
    entries = jsonio.expect_list(
        jsonio.expect_key(obj, "entries", "matrix"), "matrix.entries")
    if d < 1:
        raise SchemaError("matrix.dim must be a positive integer")
    if len(entries) != d * d:
        raise SchemaError(
            f"matrix.entries: expected {d * d} [re, im] pairs, got {len(entries)}")
    return HermitianOperator(entries_by_loop(entries).reshape(d, d))


def char_poly_eigs_2x2(arr: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a Hermitian 2x2 from its characteristic polynomial."""
    tr = (arr[0, 0] + arr[1, 1]).real
    det = (arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]).real
    disc = np.sqrt(tr * tr - 4.0 * det)
    return (tr - disc) / 2.0, (tr + disc) / 2.0


def random_context_set(rng: np.random.Generator, max_effects: int = 12
                       ) -> ContextSet:
    """Random operator-backed context set, mixing SAT and UNSAT shapes."""
    dim = int(rng.integers(2, 4))
    effects: dict[str, Effect] = {}
    contexts: list[list[str]] = []
    relations = []

    n_ctx = int(rng.integers(1, 4))
    for ci in range(n_ctx):
        outcomes = int(rng.integers(2, 5))
        if len(effects) + outcomes > max_effects:
            break
        povm = random_povm(dim, outcomes, rng, label_prefix=f"c{ci}_E")
        contexts.append(list(povm.labels))
        for e in povm.effects:
            effects[e.label] = e

    # uniform split of the identity referenced k times: forces k * v = 1,
    # unsatisfiable over {0,1} for k >= 2
    if rng.random() < 0.4 and len(effects) + 1 <= max_effects:
        k = int(rng.integers(2, 4))
        u = Effect(HermitianOperator.identity(dim) * (1.0 / k), "u")
        effects[u.label] = u
        contexts.append([u.label] * k)

    # a genuine pair-sum relation inside some context with >= 3 outcomes
    if len(effects) + 1 <= max_effects:
        for ctx in contexts:
            distinct = sorted(set(ctx))
            if len(distinct) >= 3:
                a, b = distinct[0], distinct[1]
                combined = Effect(effects[a].op + effects[b].op, "g")
                effects[combined.label] = combined
                relations.append(AdditivityRelation((a, b), "g"))
                break

    if not contexts:
        povm = random_povm(dim, 2, rng, label_prefix="c0_E")
        contexts.append(list(povm.labels))
        for e in povm.effects:
            effects[e.label] = e

    return build_context_set(effects.values(), contexts, relations)


def brute_force_solutions(cs):
    """All satisfying {0,1} assignments, enumerated directly."""
    variables: dict[str, None] = {}
    for ctx in cs.contexts:
        for lb in ctx:
            variables.setdefault(lb)
    for rel in cs.sum_relations:
        for lb in rel.addends:
            variables.setdefault(lb)
        if rel.target != "I":
            variables.setdefault(rel.target)
    names = list(variables)
    solutions = []
    for bits in itertools.product((0, 1), repeat=len(names)):
        values = dict(zip(names, bits))
        ok = all(sum(values[lb] for lb in ctx) == 1 for ctx in cs.contexts)
        for rel in cs.sum_relations:
            if not ok:
                break
            lhs = sum(values[lb] for lb in rel.addends)
            rhs = 1 if rel.target == "I" else values[rel.target]
            ok = lhs == rhs
        if ok:
            solutions.append(values)
    return solutions


def constraint_subset_as_context_set(cs, descs):
    """Rebuild a context set exposing only the given constraints."""
    contexts = [d.labels for d in descs if d.kind == "context"]
    relations = [AdditivityRelation(d.labels, d.target)
                 for d in descs if d.kind == "relation"]
    return build_context_set(cs.effects.values(), contexts, relations)
