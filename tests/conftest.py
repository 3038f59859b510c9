"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from pathlib import Path

import numpy as np

import effectkit
from effectkit import (
    TOL,
    AdditivityRelation,
    ContextSet,
    Effect,
    HermitianOperator,
    SchemaError,
    build_context_set,
    haar_unitary,
    jsonio,
    random_povm,
)
from effectkit.nogo import (
    SAT,
    UNKNOWN,
    UNSAT,
    Branch,
    _Budget,
)

# Children started as ``python -m effectkit`` import the package that the
# tests import, whether or not PYTHONPATH names its source tree.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(effectkit.__file__).parents[1]),
     *filter(None, [os.environ.get("PYTHONPATH")])])

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


def peres_rays():
    """Peres's 24 rays in C^4 (J. Phys. A 24, L175, 1991).

    Every ray of the form (1,0,0,0), (1,+-1,0,0) or (1,+-1,+-1,+-1) up to
    permutation, with first nonzero entry +1. Listed form by form, sign
    pattern by sign pattern, each pattern's distinct permutations in
    descending order.
    """
    rays = []
    for form in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)):
        support = sum(1 for x in form if x)
        for signs in itertools.product((1, -1), repeat=support - 1):
            signed = (1,) + signs + (0,) * (4 - support)
            for perm in sorted(set(itertools.permutations(signed)), reverse=True):
                lead = next(x for x in perm if x)
                ray = tuple(lead * x for x in perm)
                if ray not in rays:
                    rays.append(ray)
    return rays


# The deletion-minimised core of Peres's 24 rays and their tetrads, in the
# order of peres_rays and orthogonal_tetrads, by ray index.
PERES_CORE = [[1, 2, 6, 10], [1, 3, 5, 11], [2, 3, 4, 12], [4, 15, 19, 20],
              [5, 13, 18, 20], [6, 14, 17, 20], [10, 14, 16, 23],
              [11, 13, 16, 22], [12, 15, 16, 21], [16, 21, 22, 23],
              [17, 18, 19, 20]]


def orthogonal_tetrads(rays):
    """Every set of four mutually orthogonal rays, in lexicographic order."""
    return [t for t in itertools.combinations(range(len(rays)), 4)
            if all(np.dot(rays[a], rays[b]) == 0
                   for a, b in itertools.combinations(t, 2))]


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
    """The operator of ``operators.matrix_from_json`` with
    :func:`entries_by_loop`."""
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


def dumps_by_recursion(obj, pretty: bool = False) -> str:
    """``jsonio.dumps`` as one recursive call per value, each string and key
    through ``json.dumps`` and each float through ``format_float``. Oracle
    for the emitter that hands plain containers to json's C encoder."""
    out: list[str] = []
    _emit_by_recursion(obj, out, 2 if pretty else None, 0)
    return "".join(out)


def _emit_by_recursion(obj, out, indent, level):
    if isinstance(obj, jsonio.PackedEntries):
        obj = obj.tolist()
    if isinstance(obj, (dict, list, tuple)):
        keyed = isinstance(obj, dict)
        items = list(obj.items() if keyed else obj)
        open_ch, close_ch = "{}" if keyed else "[]"
        if not items:
            out.append(open_ch + close_ch)
            return
        out.append(open_ch)
        pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
        closing = "" if indent is None else "\n" + " " * (indent * level)
        for i, item in enumerate(items):
            if i:
                out.append("," + (pad if indent is not None else " "))
            else:
                out.append(pad)
            if keyed:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError("JSON object keys must be strings")
                out.append(json.dumps(key) + ": ")
            _emit_by_recursion(item, out, indent, level + 1)
        out.append(closing + close_ch)
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(jsonio.format_float(float(obj)))
    else:
        raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


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


def haar_bases_context_set(rng, bases, dim=4):
    """``bases`` Haar-random orthonormal bases of C^dim, one context each."""
    effects, contexts = [], []
    for b in range(bases):
        u = haar_unitary(dim, rng)
        ctx = [f"b{b}_{k}" for k in range(dim)]
        effects += [Effect(HermitianOperator(np.outer(u[:, k], u[:, k].conj())),
                           lb) for k, lb in enumerate(ctx)]
        contexts.append(ctx)
    return build_context_set(effects, contexts)


def brute_force_solutions(cs):
    """All satisfying {0,1} assignments, enumerated directly: the labels of
    every context and relation sum to its target's value (1 for I)."""
    constraints = cs.constraints()
    variables: dict[str, None] = {}
    for con in constraints:
        for lb in con.labels:
            variables.setdefault(lb)
        if con.target != "I":
            variables.setdefault(con.target)
    names = list(variables)
    solutions = []
    for bits in itertools.product((0, 1), repeat=len(names)):
        values = dict(zip(names, bits))
        if all(sum(values[lb] for lb in con.labels)
               == (1 if con.target == "I" else values[con.target])
               for con in constraints):
            solutions.append(values)
    return solutions


def constraint_subset_as_context_set(cs, constraints):
    """Rebuild a context set exposing only the given constraints."""
    contexts = [c.labels for c in constraints if c.kind == "context"]
    relations = [c for c in constraints if c.kind == "relation"]
    return build_context_set(cs.effects.values(), contexts, relations)


def variables_of(constraints) -> list[str]:
    """The search's variables in its branching order: each label at its
    first occurrence in ``AdditivityRelation.row()`` over the constraints."""
    return list(dict.fromkeys(lb for desc in constraints
                              for lb in desc.row()[0]))


def solve_by_walking(constraints, node_budget: int, max_store: int,
                     stop_after: int | None = None, record: bool = False):
    """Exhaustive DFS with incremental bound propagation that walks every
    node, written before repeated subtrees were reused. Oracle for
    ``nogo._Problem.solve``: the same constraints, budget and flags must
    give the same (status, assignments, total, nodes), and an UNSAT tree
    that refutes the constraints."""
    rows = [desc.row() for desc in constraints]
    variables = variables_of(constraints)
    var_index = {lb: i for i, lb in enumerate(variables)}
    nv = len(variables)
    assign = [-1] * nv
    solutions: list[dict[str, int]] = []
    state = {"nodes": 0, "total": 0}

    terms = [tuple((var_index[lb], c) for lb, c in coeffs.items() if c)
             for coeffs, _ in rows]
    rhs = [r for _, r in rows]
    lo = [sum(c for _, c in t if c < 0) for t in terms]
    hi = [sum(c for _, c in t if c > 0) for t in terms]
    # A constraint can force a variable only while rhs is closer than its
    # largest |c| to one of its bounds.
    reach = [max((abs(c) for _, c in t), default=0) for t in terms]
    # Setting x := v adds |c| to lo when c and v agree in sign (c > 0 and
    # v = 1, or c < 0 and v = 0) and takes |c| from hi otherwise.
    raise_lo: tuple[list[list], list[list]] = (
        [[] for _ in range(nv)], [[] for _ in range(nv)])
    cut_hi: tuple[list[list], list[list]] = (
        [[] for _ in range(nv)], [[] for _ in range(nv)])
    for k, t in enumerate(terms):
        for vi, c in t:
            raise_lo[c > 0][vi].append((k, abs(c)))
            cut_hi[c < 0][vi].append((k, abs(c)))

    def set_var(vi: int, val: int, queue: deque) -> None:
        assign[vi] = val
        for k, a in raise_lo[val][vi]:
            lo[k] += a
            queue.append(k)
        for k, a in cut_hi[val][vi]:
            hi[k] -= a
            queue.append(k)

    def unset_var(vi: int) -> None:
        val = assign[vi]
        assign[vi] = -1
        for k, a in raise_lo[val][vi]:
            lo[k] -= a
        for k, a in cut_hi[val][vi]:
            hi[k] += a

    def propagate(queue: deque, trail: list[int], log: list | None) -> bool:
        # With a log, each forced variable appends (index, constraint) and a
        # failure appends its conflict last: (None, constraint) when the
        # constraint's bounds exclude its right-hand side, (index, constraint)
        # when both values of that variable do.
        while queue:
            k = queue.popleft()
            r = rhs[k]
            if not lo[k] <= r <= hi[k]:
                if log is not None:
                    log.append((None, constraints[k]))
                return False
            if hi[k] - r >= reach[k] and r - lo[k] >= reach[k]:
                continue
            for vi, c in terms[k]:
                if assign[vi] != -1:
                    continue
                low, high = lo[k], hi[k]
                if c > 0:
                    ok0 = low <= r <= high - c
                    ok1 = low + c <= r <= high
                else:
                    ok0 = low - c <= r <= high
                    ok1 = low <= r <= high + c
                if not ok0 and not ok1:
                    if log is not None:
                        log.append((vi, constraints[k]))
                    return False
                if ok0 != ok1:
                    set_var(vi, 0 if ok0 else 1, queue)
                    trail.append(vi)
                    if log is not None:
                        log.append((vi, constraints[k]))
        return True

    def record_solution() -> None:
        state["total"] += 1
        if len(solutions) < max_store:
            solutions.append({variables[i]: assign[i] for i in range(nv)})

    def refute(log: list, ok: bool, below: Branch | AdditivityRelation | None
               ) -> Branch | AdditivityRelation | None:
        # The refutation of one propagate call followed by ``below`` (the
        # subtree of the search under it): each forced x := v becomes a
        # branch on x whose 1-v side is the forcing constraint. Called
        # before the trail is undone, so ``assign`` still holds each v.
        node = below
        if not ok:
            vi, con = log.pop()
            node = con if vi is None else Branch(variables[vi], con, con)
        for vi, con in reversed(log):
            node = (Branch(variables[vi], node, con) if assign[vi] == 0
                    else Branch(variables[vi], con, node))
        return node

    def dfs(start: int) -> Branch | AdditivityRelation | None:
        # Every variable before ``start`` is assigned: it is the parent's
        # branch variable plus one.
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            raise _Budget
        vi = start
        while vi < nv and assign[vi] != -1:
            vi += 1
        if vi == nv:
            record_solution()
            return None
        children = [] if record else None
        for val in (0, 1):
            queue: deque = deque()
            set_var(vi, val, queue)
            trail = [vi]
            log = [] if record else None
            ok = propagate(queue, trail, log)
            below = dfs(vi + 1) if ok else None
            if record:
                children.append(refute(log, ok, below))
            for t in trail:
                unset_var(t)
            if stop_after is not None and state["total"] >= stop_after:
                return None
        return Branch(variables[vi], *children) if record else None

    tree = None
    try:
        log0 = [] if record else None
        ok0 = propagate(deque(range(len(constraints))), [], log0)
        below0 = dfs(0) if ok0 else None
        if record:
            tree = refute(log0, ok0, below0)
        complete = True
    except _Budget:
        complete = False

    if state["total"] > 0:
        total = state["total"] if complete and stop_after is None else None
        return SAT, solutions, total, state["nodes"], None
    if complete:
        return UNSAT, [], 0, state["nodes"], tree
    return UNKNOWN, [], None, state["nodes"], None
