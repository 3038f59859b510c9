"""Constructive no-go machinery for dispersion-free valuations.

Two complementary routes produce machine-checkable evidence that {0,1}-valued
valuations cannot cover all effects:

* :func:`witness_2d` builds the closed-form qubit counterexample. Two
  distinct Bloch directions define projections P and Q; any convex mixture
  E = l*P + (1-l)*Q has spectral weights strictly inside (0, 1), so a
  valuation that is linear and assigns 0 to both P and Q must give v(E) = 0
  while spectrality forces v(E) into {mu, 1-mu} with 0 < mu < 1.

* :func:`search_dispersion_free` runs an exhaustive backtracking search for
  {0,1} assignments satisfying per-context normalization and integer sum
  relations, returning satisfying assignments or an unsatisfiable core
  (minimal when the node budget allows) with a refutation tree for it.
  Nodes and budget count search-tree nodes; a repeated subtree is counted
  from its first walk, not walked again. Real-coefficient mixtures are
  outside this discrete model; they belong to the witness route.

Contexts are checked one at a time, in input order, each as a ``Povm``; the
first that fails is named. Certificates from the search are re-checked by
:func:`verify_certificate` in pure integer arithmetic, one assignment and
one equation at a time. The search and the re-check share one thing:
what a context or a relation, each an ``AdditivityRelation``, means as an
integer equation, its ``row()``. The re-check has its own tree walk and its
own bound arithmetic, so no solver code vouches for the solver. An UNSAT
core is checked by walking its refutation tree: every internal node
branches on one core label, every leaf names a core constraint whose
integer bounds exclude its right-hand side on its path, in time linear in
the tree, not 2^labels.
"""

from __future__ import annotations

import copy
import itertools
import math
import reprlib
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import __version__, jsonio
from .effects import (
    BlochVector,
    Effect,
    Povm,
    bloch_to_operator,
    effects_by_label,
    sum_equals,
    warn_duplicate_operators,
)
from .errors import (
    BadContext,
    ConvergenceFailure,
    DegenerateLambda,
    NotUnitVectors,
    ParallelVectors,
    SchemaError,
    SumNotIdentity,
    UnknownLabel,
    listed,
    shown,
)
from .operators import TOL, eigenvalues_of
from .valuation import AdditivityRelation

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

DEFAULT_MAX_SOLUTIONS = 64
DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True, eq=False)
class Witness2D:
    """Closed-form qubit contradiction for a dispersion-free valuation."""

    n: BlochVector
    m: BlochVector
    lam: float
    c: BlochVector
    mu: float
    E: Effect
    R: Effect
    Rprime: Effect
    P: Effect
    Q: Effect
    violated_relation: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.n.to_json_dict(),
            "m": self.m.to_json_dict(),
            "lambda": self.lam,
            "c": self.c.to_json_dict(),
            "mu": self.mu,
            "P": self.P.to_json_dict(),
            "Q": self.Q.to_json_dict(),
            "E": self.E.to_json_dict(),
            "R": self.R.to_json_dict(),
            "Rprime": self.Rprime.to_json_dict(),
            "violated_relation": self.violated_relation,
        }


def witness_2d(n: BlochVector, m: BlochVector, lam: float) -> Witness2D:
    """Build the mixture witness E = lam*P + (1-lam)*Q on a qubit.

    Requires unit Bloch vectors (within ``TOL.unit_vector``) separated by
    more than ``TOL.min_angle`` rad and a mixing weight strictly inside
    (0, 1); additionally the mixture vector c must satisfy
    |c| < 1 - ``TOL.mixture_margin``, else the larger spectral weight
    degenerates to 1 and there is no contradiction to certify.
    """
    for name, vec in (("n", n), ("m", m)):
        if abs(vec.norm - 1.0) > TOL.unit_vector:
            raise NotUnitVectors("%s has norm %s, not 1 within %s"
                                 % (name, vec.norm, TOL.unit_vector))
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise DegenerateLambda(
            f"mixing weight {lam} must lie strictly in (0, 1)")
    dot = sum(a * b for a, b in zip(n.a, m.a))
    angle = math.acos(min(1.0, max(-1.0, dot)))
    if angle <= TOL.min_angle:
        raise ParallelVectors("directions subtend only %s rad <= bound %s; the "
                              "mixture is (numerically) a projection"
                              % (angle, TOL.min_angle))
    c = BlochVector(tuple(lam * a + (1.0 - lam) * b for a, b in zip(n.a, m.a)))
    bound = 1.0 - TOL.mixture_margin
    if c.norm >= bound:
        raise ParallelVectors("|c| = %s >= bound %s; the spectral weights "
                              "degenerate" % (c.norm, bound))

    p = Effect(bloch_to_operator(n), "P")
    q = Effect(bloch_to_operator(m), "Q")
    e = Effect(lam * p.op + (1.0 - lam) * q.op, "E")
    mu = (1.0 + c.norm) / 2.0
    top = float(eigenvalues_of(e.op)[-1])
    if abs(mu - top) > TOL.eig:
        raise ConvergenceFailure("closed-form weight %s disagrees with "
                                 "eigensolver %s by > %s" % (mu, top, TOL.eig))

    if c.norm <= TOL.zero:
        # E is maximally degenerate (E = I/2); any complementary projection
        # pair is a spectral pair, fix the z axis by convention.
        chat = (0.0, 0.0, 1.0)
    else:
        chat = tuple(v / c.norm for v in c.a)
    r = Effect(bloch_to_operator(BlochVector(chat)), "R")
    rprime = Effect(bloch_to_operator(BlochVector(tuple(-v for v in chat))),
                    "Rprime")
    relation = (
        "v(E) = %g*v(P) + %g*v(Q) = 0 by linearity, but the spectral "
        "decomposition E = mu*R + (1-mu)*R' forces v(E) in {%.12g, %.12g}"
        % (lam, 1.0 - lam, mu, 1.0 - mu))
    return Witness2D(n=n, m=m, lam=lam, c=c, mu=mu, E=e, R=r, Rprime=rprime,
                     P=p, Q=q, violated_relation=relation)


@dataclass(frozen=True, eq=False)
class ContextSet:
    """Validated collection of effects, measurement contexts, and relations.

    Every context is a POVM over the shared effect pool (labels may repeat
    within a context), kept as its labels' relation to I of kind
    ``"context"``. Each context, then each sum relation, was checked on its
    own, in order, by one test at one bound, ``effects.sum_equals`` at d *
    ``TOL.sum_per_dim``.
    """

    effects: dict[str, Effect]
    contexts: tuple[AdditivityRelation, ...]
    sum_relations: tuple[AdditivityRelation, ...]

    def constraints(self) -> list[AdditivityRelation]:
        """The contexts, then the sum relations, each in its stored order."""
        return [*self.contexts, *self.sum_relations]


def build_context_set(effects: Iterable[Effect],
                      contexts: Sequence[Sequence[str]],
                      relations: Sequence[AdditivityRelation] = (),
                      discover: bool = False) -> ContextSet:
    """Validate a context set, optionally auto-discovering sum relations.

    Contexts are checked one at a time, in input order: each context's
    labels are resolved (an unknown one raises UnknownLabel) and its
    effects built into a ``Povm``, whose failure raises BadContext naming
    the context. So the first fault in input order is the one raised.
    Relations are checked next, in order, and a claimed operator identity
    that fails raises BadRelation (the test ``check_gpm`` runs too,
    ``AdditivityRelation.check_identity``). Both are the one sum-identity
    test, ``effects.sum_equals``, at d * ``TOL.sum_per_dim``, on the one
    dimension of the pool: ``effects.effects_by_label`` maps it first and
    raises DimMismatch for an effect of another dimension. With
    ``discover``, :func:`discover_sum_relations` adds every pair and triple
    identity that test accepts; deeper scans are intentionally not
    attempted.
    """
    pool = effects_by_label(effects)
    warn_duplicate_operators(pool.values())

    def resolve(label: str) -> Effect:
        if label not in pool:
            raise UnknownLabel(
                f"label {shown(label)} not among the loaded effects")
        return pool[label]

    checked_contexts = []
    for i, ctx in enumerate(contexts):
        labels = tuple(str(lb) for lb in ctx)
        members = tuple(resolve(lb) for lb in labels)
        try:
            Povm(members)
        except SumNotIdentity as exc:
            names = listed([shown(lb) for lb in labels], ", ")
            raise BadContext(f"context #{i} [{names}]: {exc}") from exc
        checked_contexts.append(AdditivityRelation(labels, "I", "context"))

    checked_relations = list(relations)
    for rel in checked_relations:
        rel.check_identity(resolve)

    if discover:
        known = {(tuple(sorted(r.labels)), r.target) for r in checked_relations}
        for rel in discover_sum_relations(pool):
            key = (tuple(sorted(rel.labels)), rel.target)
            if key not in known:
                known.add(key)
                checked_relations.append(rel)

    return ContextSet(pool, tuple(checked_contexts), tuple(checked_relations))


def discover_sum_relations(pool: Mapping[str, Effect]
                           ) -> list[AdditivityRelation]:
    """The pair and triple sum identities that ``effects.sum_equals``
    accepts, the test of every declared relation: each pair against I and
    every other effect, each triple against I. The pool is of one
    dimension, read through ``effects.effects_by_label`` (else
    DimMismatch). A pair's sum is formed once for all its targets and
    triples. Pairs (targets I, then pool order) come before triples, each
    in ``combinations_with_replacement`` order."""
    pool = effects_by_label(pool.values())
    if not pool:
        return []
    labels = list(pool)
    stack = np.array([e.op.array for e in pool.values()])
    targets = np.concatenate([np.eye(stack.shape[1])[None], stack])
    found: list[AdditivityRelation] = []
    triples = []
    for i, j in itertools.combinations_with_replacement(range(len(labels)), 2):
        total = stack[i] + stack[j]
        found += [AdditivityRelation((labels[i], labels[j]),
                                     labels[k - 1] if k else "I")
                  for k in np.flatnonzero(sum_equals([total], targets)[0])
                  if k - 1 not in (i, j)]
        triples += [AdditivityRelation((labels[i], labels[j], labels[j + k]),
                                       "I")
                    for k in np.flatnonzero(sum_equals([total, stack[j:]])[0])]
    return found + triples


@dataclass(frozen=True)
class Branch:
    """Internal node of a refutation tree: a case split on one label.

    ``zero`` and ``one`` refute the constraints under ``label`` = 0 and
    ``label`` = 1. Each child is another Branch or a leaf, which is the
    constraint violated on every assignment reaching it.
    """

    label: str
    zero: Branch | AdditivityRelation
    one: Branch | AdditivityRelation


@dataclass
class SearchResult:
    """Outcome of the dispersion-free search.

    ``status`` is "sat", "unsat", or "unknown" (node budget exhausted before
    the search tree was closed — never mislabeled as unsat). Assignments are
    capped; ``total_solutions`` is the exact model count when the search ran
    to completion, else None. ``nodes_explored`` counts search-tree nodes,
    including those of repeated subtrees that were counted from their first
    walk rather than walked again. An UNSAT result carries ``refutation``, a
    tree of Branch nodes over the core's labels whose leaves are core
    constraints; it proves the core unsatisfiable and stays out of the JSON
    output. ``core_minimal`` is False when a deletion trial ran out of node
    budget, so a constraint of the core may be droppable; the JSON then
    carries ``"core_minimal": false`` after ``"core"``, and has no such key
    otherwise.
    """

    status: str
    assignments: list[dict[str, int]]
    total_solutions: int | None
    unsat_core: list[AdditivityRelation]
    nodes_explored: int
    refutation: Branch | AdditivityRelation | None = field(default=None,
                                                           repr=False)
    core_minimal: bool = True

    def to_json_dict(self) -> dict:
        out = {
            "status": self.status,
            "assignments": self.assignments,
            "core": [c.to_json_dict() for c in self.unsat_core],
        }
        if not self.core_minimal:
            out["core_minimal"] = False
        out.update(nodes=self.nodes_explored,
                   total_solutions=self.total_solutions,
                   toolkit_version=__version__)
        return out


class _Budget(Exception):
    pass


class _Problem:
    """A constraint list compiled once for a search: one ``row()`` read
    per entry, into its variables (in row order, netted-to-zero ones
    kept), its nonzero terms, rhs, starting bounds and reach. Variables
    carry one id each, in order of first occurrence over the whole list.
    ``members`` are the entries it solves, by index in input order, with
    their occurrence lists: ``raise_lo[v][x]`` and ``cut_hi[v][x]`` hold
    the (constraint, |coefficient|) pairs, in constraint order, whose lo
    rises or whose hi falls when variable x is set to v. The search solves
    the whole list; every deletion trial and the refutation re-solve solve
    the problem less some members."""

    def __init__(self, constraints: Sequence[AdditivityRelation]):
        self.constraints = list(constraints)
        rows = [desc.row() for desc in self.constraints]
        self.names = list(dict.fromkeys(
            lb for coeffs, _ in rows for lb in coeffs))
        index = {lb: i for i, lb in enumerate(self.names)}
        self.variables = [tuple(index[lb] for lb in coeffs)
                          for coeffs, _ in rows]
        self.terms = [tuple((index[lb], c) for lb, c in coeffs.items() if c)
                      for coeffs, _ in rows]
        self.rhs = [r for _, r in rows]
        self.lo = [sum(c for _, c in t if c < 0) for t in self.terms]
        self.hi = [sum(c for _, c in t if c > 0) for t in self.terms]
        # A constraint can force a variable only while rhs is closer than
        # its largest |c| to one of its bounds.
        self.reach = [max((abs(c) for _, c in t), default=0)
                      for t in self.terms]
        # Setting x := v adds |c| to lo when c and v agree in sign (c > 0
        # and v = 1, or c < 0 and v = 0) and takes |c| from hi otherwise.
        nv = len(self.names)
        self.raise_lo = ([[] for _ in range(nv)], [[] for _ in range(nv)])
        self.cut_hi = ([[] for _ in range(nv)], [[] for _ in range(nv)])
        for k, t in enumerate(self.terms):
            for vi, c in t:
                self.raise_lo[c > 0][vi].append((k, abs(c)))
                self.cut_hi[c < 0][vi].append((k, abs(c)))
        self.members = list(range(len(self.terms)))

    def without(self, desc: AdditivityRelation) -> _Problem:
        """This problem less every member that is ``desc``: a copy that
        shares the compiled rows and the occurrence lists of every variable
        but that constraint's, which are rebuilt."""
        dropped = {k for k in self.members if self.constraints[k] is desc}
        tables = [table[:] for table in (*self.raise_lo, *self.cut_hi)]
        for vi in {vi for k in dropped for vi, _ in self.terms[k]}:
            for table in tables:
                table[vi] = [e for e in table[vi] if e[0] not in dropped]
        trial = copy.copy(self)
        trial.members = [k for k in self.members if k not in dropped]
        trial.raise_lo = (tables[0], tables[1])
        trial.cut_hi = (tables[2], tables[3])
        return trial

    def solve(self, node_budget: int, max_store: int = 0,
              stop_at_first: bool = False, record: bool = False
              ) -> tuple[str, list[dict[str, int]], int | None, int,
                         Branch | AdditivityRelation | None]:
        """Exhaustive DFS with incremental bound propagation over {0,1}
        variables, on the members alone.

        Every constraint sum(c_i * x_i) = rhs keeps integer bounds lo <=
        sum <= hi over the completions of the current partial assignment.
        Setting a variable updates the bounds of just the constraints it
        occurs in, read from the members' occurrence lists. Propagation
        works from a queue of the constraints that contain newly assigned
        variables (the root call queues all of them): a queued constraint
        whose bounds exclude rhs is a conflict, one with lo == hi has every
        variable set and is skipped, and an unassigned variable of it that
        has only one value keeping rhs within the bounds is set to that
        value, which queues its own constraints in turn. Each branch then
        puts the bounds back from one copy taken at its node. So a node
        costs time in the constraints its assignments touch, plus that copy
        of one pair of integers per constraint of the problem.

        Bound propagation is monotone: its fixpoint, and whether it reaches
        a conflict, do not depend on the order in which constraints are
        visited. The search branches on the first unassigned variable, in
        the order of first occurrence in ``AdditivityRelation.row()`` over
        the members, 0 before 1, so the search tree, ``nodes``, the model
        count and the stored assignments and their order are fixed by the
        members alone, whatever else the compiled list holds; only the
        order of forced variables in a refutation tree depends on the
        queue. The open nodes of the walk are kept on a list, not on the
        Python stack, so its depth has no recursion limit.

        A repeated subtree is counted from its first walk, not walked
        again. At a node whose branch variable is the i-th of that order,
        every variable before it is set, and a constraint whose variables
        are all set, and that has not conflicted, has lo == hi == rhs. So
        the subtree under the node (what propagation forces, which
        constraints conflict, where the models lie) reads only the
        assignment of the order's suffix from i and the bounds (those of
        constraints that are not members never move), and two nodes at the
        same i with the same key (bounds, suffix assignment) have identical
        subtrees. ``memo[i]`` keeps the last subtree of more than one node
        walked to completion from i: its key, nodes and models, the range
        of ``solutions`` it stored, and its refutation subtree. (A one-node
        subtree, where both values conflict at once, costs as much to key
        as to walk.) A node with an equal key adds the nodes and models,
        stores assignments made of its own prefix and the kept values from
        i on (never more than the first walk stored, since the store only
        fills) and returns the kept subtree. It does so only when the nodes
        fit in ``node_budget``; otherwise it walks, so an exhausted budget
        stops at the same node with the same stored assignments. A subtree
        cut short by the budget or by ``stop_at_first`` is never kept. The
        table has one entry per position of the order and lives in one
        solve. An entry reads its suffix through an ``itemgetter`` made
        when its position first keeps a subtree, and a node reads it only
        when the kept bounds equal its own.

        Returns (status, stored assignments, total count or None, nodes,
        refutation); ``nodes`` counts search-tree nodes, reused ones
        included. ``stop_at_first`` ends the search at its first model,
        which leaves the total unknown. The refutation tree is built only
        with ``record`` and only kept for an UNSAT answer; without
        ``record`` the search allocates nothing for it.
        """
        constraints, names, terms = self.constraints, self.names, self.terms
        rhs, reach = self.rhs, self.reach
        raise_lo, cut_hi = self.raise_lo, self.cut_hi
        order = list(dict.fromkeys(
            vi for k in self.members for vi in self.variables[k]))
        labels = [names[vi] for vi in order]
        n = len(order)
        lo, hi = self.lo[:], self.hi[:]
        assign = [-1] * len(names)
        solutions: list[dict[str, int]] = []
        state = {"nodes": 0, "total": 0}
        memo: list[tuple | None] = [None] * (n + 1)

        def set_var(vi: int, val: int, queue: deque) -> None:
            assign[vi] = val
            for k, a in raise_lo[val][vi]:
                lo[k] += a
                queue.append(k)
            for k, a in cut_hi[val][vi]:
                hi[k] -= a
                queue.append(k)

        def propagate(queue: deque, trail: list[int], log: list | None
                      ) -> bool:
            # With a log, each forced variable appends (index, constraint)
            # and a failure appends its conflict last: (None, constraint)
            # when the constraint's bounds exclude its right-hand side,
            # (index, constraint) when both values of that variable do.
            while queue:
                k = queue.popleft()
                r, low, high = rhs[k], lo[k], hi[k]
                if not low <= r <= high:
                    if log is not None:
                        log.append((None, constraints[k]))
                    return False
                if (low == high or high - r >= reach[k]
                        and r - low >= reach[k]):
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

        def refute(log: list, ok: bool,
                   below: Branch | AdditivityRelation | None
                   ) -> Branch | AdditivityRelation | None:
            # The refutation of one propagate call followed by ``below``
            # (the subtree of the search under it): each forced x := v
            # becomes a branch on x whose 1-v side is the forcing
            # constraint. Called before the trail is undone, so ``assign``
            # still holds each v.
            node = below
            if not ok:
                vi, con = log.pop()
                node = con if vi is None else Branch(names[vi], con, con)
            for vi, con in reversed(log):
                node = (Branch(names[vi], node, con) if assign[vi] == 0
                        else Branch(names[vi], con, node))
            return node

        def dfs(pos: int):
            # A generator run by ``walk``. Every variable before position
            # ``pos`` of the order (the parent's branch position plus one)
            # is set. It yields where each child's search starts, is sent
            # the child's refutation subtree and returns its own.
            while pos < n and assign[order[pos]] != -1:
                pos += 1
            kept = memo[pos]
            # The key is compared in place. The bounds copied for the
            # branches are stored with the suffix read when the walk
            # completes, by which time the assignment is back as it is here.
            if (kept is not None and kept[0] == lo and kept[1] == hi
                    and kept[3] == kept[2](assign)
                    and state["nodes"] + kept[4] <= node_budget):
                *_, nodes, models, first, last, tree = kept
                state["nodes"] += nodes
                state["total"] += models
                reused = solutions[first:last][:max_store - len(solutions)]
                if reused:
                    head = [assign[vi] for vi in order[:pos]]
                    for s in reused:
                        solutions.append(
                            dict(zip(labels, head + list(s.values())[pos:])))
                return tree
            state["nodes"] += 1
            if state["nodes"] > node_budget:
                raise _Budget
            if pos == n:
                state["total"] += 1
                if len(solutions) < max_store:
                    solutions.append(
                        dict(zip(labels, [assign[vi] for vi in order])))
                return None
            nodes0, models0 = state["nodes"] - 1, state["total"]
            stored0 = len(solutions)
            children = [] if record else None
            vi = order[pos]
            lo0, hi0 = lo[:], hi[:]
            for val in (0, 1):
                queue: deque = deque()
                set_var(vi, val, queue)
                trail = [vi]
                log = [] if record else None
                ok = propagate(queue, trail, log)
                below = (yield pos + 1) if ok else None
                if record:
                    children.append(refute(log, ok, below))
                for t in trail:
                    assign[t] = -1
                lo[:], hi[:] = lo0, hi0
                if stop_at_first and state["total"]:
                    return None
            tree = Branch(names[vi], *children) if record else None
            nodes = state["nodes"] - nodes0
            if nodes > 1:
                suffix = (kept[2] if kept is not None
                          else itemgetter(*order[pos:]))
                memo[pos] = (lo0, hi0, suffix, suffix(assign), nodes,
                             state["total"] - models0, stored0,
                             len(solutions), tree)
            return tree

        def walk() -> Branch | AdditivityRelation | None:
            # Runs dfs(0), its open frames on a list.
            frames, sent = [dfs(0)], None
            while frames:
                try:
                    child = frames[-1].send(sent)
                except StopIteration as done:
                    frames.pop()
                    sent = done.value
                else:
                    frames.append(dfs(child))
                    sent = None
            return sent

        tree = None
        try:
            log0 = [] if record else None
            ok0 = propagate(deque(self.members), [], log0)
            below0 = walk() if ok0 else None
            if record:
                tree = refute(log0, ok0, below0)
            complete = True
        except _Budget:
            complete = False

        if state["total"] > 0:
            total = state["total"] if complete and not stop_at_first else None
            return SAT, solutions, total, state["nodes"], None
        if complete:
            return UNSAT, [], 0, state["nodes"], tree
        return UNKNOWN, [], None, state["nodes"], None


def _minimize_core(problem: _Problem, node_budget: int
                   ) -> tuple[_Problem, int, bool]:
    """Deletion-based shrinking of ``problem`` in deterministic input order.

    Each member in turn is dropped for good when the rest is still UNSAT; a
    trial is the current core less every member that is that constraint,
    and an UNSAT trial becomes the core, occurrence lists and all. A
    constraint listed twice is tried twice. A trial that exhausts
    ``node_budget`` ends "unknown" and keeps its constraint, so the core is
    minimal (no single constraint can be dropped) only when every trial
    finishes within the budget. Returns the core, the nodes of all trials
    and whether the core is minimal.
    """
    core = problem
    nodes = 0
    minimal = True
    for k in problem.members:
        trial = core.without(problem.constraints[k])
        status, _, _, used, _ = trial.solve(node_budget, stop_at_first=True)
        nodes += used
        if status == UNSAT:
            core = trial
        elif status == UNKNOWN:
            minimal = False
    return core, nodes, minimal


def search_dispersion_free(cs: ContextSet,
                           max_solutions: int = DEFAULT_MAX_SOLUTIONS,
                           node_budget: int = DEFAULT_NODE_BUDGET
                           ) -> SearchResult:
    """Search for {0,1} valuations satisfying every context and relation.

    The search is an exhaustive backtracking enumeration with bound
    propagation over the labels that occur in at least one constraint;
    effects mentioned in no constraint are unconstrained and excluded from
    the reported assignments. All arithmetic is exact (integers). The
    constraints are compiled once, one ``row()`` read each, into a
    ``_Problem``; the search solves all of it. On unsatisfiable inputs the
    result carries a core found by deletion-based shrinking, whose trials
    each solve that one problem less some members, and a refutation tree
    for the core, taken from one more solve of the core alone (its nodes
    are not counted in ``nodes_explored``). The core is minimal only when
    every deletion trial finishes within ``node_budget``: a trial that ends
    "unknown" keeps its constraint, and the result's ``core_minimal`` is
    then False. If the node budget is exhausted by the search itself, the
    status is "unknown".
    ``nodes_explored`` and ``node_budget`` count search-tree nodes; a
    repeated subtree is counted from its first walk, not walked again, so
    the count is the same as for a search that walks every node.
    ``max_solutions`` and ``node_budget`` below 1 raise ValueError.
    """
    if max_solutions < 1:
        raise ValueError("max_solutions must be at least 1")
    if node_budget < 1:
        raise ValueError("node_budget must be at least 1")
    problem = _Problem(cs.constraints())
    status, solutions, total, nodes, _ = problem.solve(
        node_budget, max_store=max_solutions)
    if status == UNSAT:
        core, extra, minimal = _minimize_core(problem, node_budget)
        # The core, the problem less some members, was proved UNSAT within
        # the budget by a solve of those very members, and the search is
        # deterministic, so this re-solve completes.
        tree = core.solve(node_budget, record=True)[4]
        return SearchResult(UNSAT, [], 0,
                            [core.constraints[k] for k in core.members],
                            nodes + extra, tree, minimal)
    return SearchResult(status, solutions, total, [], nodes)


@dataclass(frozen=True)
class Verification:
    """Verdict of :func:`verify_certificate`: true when the certificate holds.

    ``reason`` is None on success, else it names the check that failed.
    """

    reason: str | None = None

    def __bool__(self) -> bool:
        return self.reason is None


def verify_certificate(result: SearchResult, cs: ContextSet) -> Verification:
    """Independently re-check a search result in pure integer arithmetic.

    Each constraint is read as its integer equation, its ``row()``, the one
    piece shared with the search. The rest is the re-check's own. SAT:
    every returned assignment must give every label of every constraint of
    the context set a value in {0,1} and satisfy the equation. Assignments
    are checked one at a time, in order, each value before any equation
    and the equations in constraint order, and the first failure is named.
    UNSAT: the reported core must be made of the set's constraints, and its
    refutation tree must refute it; the tree is walked once with bounds
    arithmetic of its own (no solver code involved), in time linear in its
    size. UNKNOWN asserts nothing and verifies vacuously. A malformed or
    wrong certificate gives a false Verification whose reason names the
    failed check.
    """
    constraints = cs.constraints()
    if result.status == SAT:
        if not result.assignments:
            return Verification("sat result stores no assignment")
        return Verification(_sat_problem(result.assignments, constraints))
    if result.status == UNSAT:
        available = set(constraints)
        for k, desc in enumerate(result.unsat_core):
            typed = isinstance(desc, AdditivityRelation)
            if not typed or desc not in available:
                entry = desc.describe() if typed else reprlib.repr(desc)
                return Verification(
                    f"core entry #{k} ({entry}) is not a constraint of the "
                    "context set")
        if result.refutation is None:
            return Verification("unsat result carries no refutation tree")
        return Verification(
            _refutation_problem(result.refutation, result.unsat_core))
    if result.status == UNKNOWN:
        return Verification()
    return Verification(f"unknown status {result.status!r}")


def _sat_problem(assignments: Sequence[Mapping[str, object]],
                 constraints: Sequence[AdditivityRelation]) -> str | None:
    """Why an assignment breaks a constraint, or None when none does.

    Assignment by assignment, in order: every value must be 0 or 1, in
    the assignment's own order; then, constraint by constraint, every
    label of the ``row()`` must have a value and the equation must hold,
    a value that equals 0 or 1 counting as that integer. The first failure
    is named.
    """
    rows = [desc.row() for desc in constraints]
    for i, assignment in enumerate(assignments):
        for lb, v in assignment.items():
            if v not in (0, 1):
                return (f"assignment #{i} gives "
                        f"v({shown(str(lb), quote=False)}) = "
                        f"{reprlib.repr(v)}, not 0 or 1")
        for desc, (coeffs, rhs) in zip(constraints, rows):
            for lb in coeffs:
                if lb not in assignment:
                    return f"assignment #{i} has no value for {shown(lb)}"
            if sum(c for lb, c in coeffs.items() if assignment[lb] == 1) != rhs:
                return f"assignment #{i} breaks {desc.describe()}"
    return None


def _refutation_problem(tree, core: Sequence[AdditivityRelation]
                        ) -> str | None:
    """Why ``tree`` does not refute ``core``, or None when it does.

    Each core constraint is read once as its equation ``row()``,
    sum(c_l * v(l)) = rhs with coefficients netted per label, so a repeated
    label counts twice and a label that is both addend and target counts
    zero. Its terms are kept as a tuple of (label number, coefficient)
    pairs, the labels numbered in order of first occurrence over the core.
    The walk keeps the assignment of the current path, one slot per label;
    a leaf holds when its constraint's integer bounds under that assignment
    exclude rhs. A leaf is looked up by identity first, and by equality
    when it is not one of the core's own objects.
    """
    rows = {desc: desc.row() for desc in core}
    names = list(dict.fromkeys(
        lb for coeffs, _ in rows.values() for lb in coeffs))
    number = {lb: i for i, lb in enumerate(names)}
    equations = {
        desc: (tuple((number[lb], c) for lb, c in coeffs.items()), rhs)
        for desc, (coeffs, rhs) in rows.items()}
    by_id = {id(desc): equations[desc] for desc in core}

    values: list[int | None] = [None] * len(names)
    path: list[int] = []
    # (node, depth of its parent, label number := value on the edge into
    # it, or -1 at the root)
    stack: list[tuple[object, int, int, int]] = [(tree, 0, -1, 0)]
    while stack:
        node, depth, i, value = stack.pop()
        while len(path) > depth:
            values[path.pop()] = None
        if i >= 0:
            values[i] = value
            path.append(i)
            depth += 1
        if isinstance(node, Branch):
            j = number.get(node.label)
            if j is None:
                return (f"branch at depth {depth} on {shown(node.label)}, "
                        "a label outside the core")
            if values[j] is not None:
                return (f"branch at depth {depth} on {shown(node.label)}, "
                        "already assigned on its path")
            stack.append((node.one, depth, j, 1))
            stack.append((node.zero, depth, j, 0))
        elif isinstance(node, AdditivityRelation):
            row = by_id.get(id(node)) or equations.get(node)
            if row is None:
                return (f"leaf at depth {depth} names {node.describe()}, which "
                        "is not in the core")
            terms, rhs = row
            lo = hi = 0
            for j, c in terms:
                x = values[j]
                if x is not None:
                    lo += c * x
                    hi += c * x
                elif c > 0:
                    hi += c
                else:
                    lo += c
            if lo <= rhs <= hi:
                return (f"leaf at depth {depth}: {node.describe()} has bounds "
                        f"[{lo}, {hi}] on its path, which admit {rhs}")
        elif i < 0:
            return "the refutation tree is neither a Branch nor a constraint"
        else:
            return (f"branch at depth {depth - 1} on {shown(names[i])} has no "
                    f"child for value {value}")
    return None


def context_set_from_json(obj, load_effects: Callable[[str], Iterable[Effect]],
                          discover: bool = False) -> ContextSet:
    """Build a ContextSet from a context-set file's payload: the one reader
    of the format. ``effects_file`` is read first and its string passed to
    ``load_effects``, which returns the effects (the CLI resolves it against
    the file's folder); then ``contexts``, then the optional ``relations``
    (``[{"addends": [...], "target": label|"I"}, ...]``), each schema fault
    a SchemaError."""
    obj = jsonio.expect_dict(obj, "context set")
    effects = load_effects(jsonio.expect_str(
        jsonio.expect_key(obj, "effects_file", "context set"), "effects_file"))

    def labels(items, where: str) -> list[str]:
        return [jsonio.expect_str(lb, f"{where}[{j}]")
                for j, lb in enumerate(jsonio.expect_list(items, where))]

    contexts = [labels(ctx, f"contexts[{i}]") for i, ctx in enumerate(
        jsonio.expect_list(jsonio.expect_key(obj, "contexts", "context set"),
                           "contexts"))]
    relations = []
    for k, item in enumerate(jsonio.expect_list(obj.get("relations", []),
                                                "relations")):
        where = f"relations[{k}]"
        item = jsonio.expect_dict(item, where)
        addends = labels(jsonio.expect_key(item, "addends", where),
                         f"{where}.addends")
        if not addends:
            raise SchemaError(f"{where}: addends must be nonempty")
        target = jsonio.expect_str(jsonio.expect_key(item, "target", where),
                                   f"{where}.target")
        relations.append(AdditivityRelation(addends, target))
    return build_context_set(effects, contexts, relations, discover=discover)
