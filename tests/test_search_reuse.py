"""Reuse in the dispersion-free search. Repeated subtrees: the answer,
``nodes`` and the stored assignments equal those of a search that walks
every node, under every budget, store cap and flag. One compiled problem:
the search, each deletion trial and the refutation re-solve solve it
less some members and give what a fresh solve of each list gives, and
each constraint is read once per search."""

import sys
import threading
import time
from collections import Counter

from effectkit import (
    AdditivityRelation,
    ContextSet,
    rng_from_seed,
    search_dispersion_free,
    verify_certificate,
)
from effectkit.nogo import _Problem, _refutation_problem

from conftest import (
    haar_bases_context_set,
    orthogonal_tetrads,
    peres_rays,
    solve_by_walking,
    variables_of,
)

BUDGETS = (1, 3, 7, 20, 100, 10**6)
STORE_CAPS = (0, 1, 3, 64)


def relabelled(con: AdditivityRelation, suffix: str) -> AdditivityRelation:
    target = con.target
    if target != "I":
        target += suffix
    return AdditivityRelation(tuple(lb + suffix for lb in con.labels), target,
                              con.kind)


# Three 4-outcome contexts over six labels in which every label lies in two
# contexts: the sum of all three counts each 1 twice, so no assignment gives
# each context a single 1. Refuting it takes three search nodes.
ODD_COVER = [AdditivityRelation(tuple(f"g{i}" for i in ctx), "I", "context")
             for ctx in ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5))]


def random_constraint_list(rng) -> list[AdditivityRelation]:
    """A block of contexts and relations (to a label or to "I") over a few
    labels, some with repeated labels, then disjoint relabelled copies of
    it. Some lists shuffle the copies' constraints together, some add a
    relation to the last copy, and some end with ``ODD_COVER``, so that an
    unsatisfiable subtree repeats below every model of the copies."""
    labels = [f"x{i}" for i in range(int(rng.integers(4, 6)))]

    def pick(low, high):
        size = int(rng.integers(low, high))
        return tuple(str(lb) for lb in
                     rng.choice(labels, size, replace=bool(rng.random() < 0.3)))

    block = [AdditivityRelation(pick(2, 5), "I", "context")
             for _ in range(int(rng.integers(1, 3)))]
    for _ in range(int(rng.integers(0, 3))):
        target = "I" if rng.random() < 0.5 else str(rng.choice(labels))
        block.append(AdditivityRelation(pick(1, 3), target))
    copies = int(rng.integers(2, 4))
    out = [relabelled(d, f"_{c}") for c in range(copies) for d in block]
    if rng.random() < 0.3:
        out = [out[i] for i in rng.permutation(len(out))]
    if rng.random() < 0.3:
        target = "I" if rng.random() < 0.5 else str(rng.choice(labels))
        out.append(relabelled(AdditivityRelation(pick(1, 3), target),
                              f"_{copies - 1}"))
    if rng.random() < 0.3:
        out += ODD_COVER
    return out


def dfs_calls(constraints, **flags) -> int:
    """How many DFS frames ``_Problem.solve`` opens, counted by a
    profiler. ``dfs`` is a generator, and the profiler sees a "call" each
    time one is resumed, so frames are counted once each; they are kept
    until the count is taken, so no two share an ``id``."""
    frames = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "dfs":
            frames[id(frame)] = frame

    sys.setprofile(profile)
    try:
        _Problem(constraints).solve(**flags)
    finally:
        sys.setprofile(None)
    return len(frames)


def test_reuse_matches_the_walking_search():
    rng = rng_from_seed(909)
    reused = unsat_reused = unsat_trees = 0
    for trial in range(40):
        constraints = random_constraint_list(rng)
        for budget in BUDGETS:
            for cap in STORE_CAPS:
                for first in (False, True):
                    for record in (False, True):
                        got = _Problem(constraints).solve(
                            budget, max_store=cap, stop_at_first=first,
                            record=record)
                        want = solve_by_walking(
                            constraints, budget, cap,
                            stop_after=1 if first else None, record=record)
                        where = (f"trial {trial}, budget {budget}, cap {cap}, "
                                 f"first {first}, record {record}")
                        assert got[:4] == want[:4], where
                        # the same label order in every stored assignment
                        assert ([list(a) for a in got[1]]
                                == [list(a) for a in want[1]]), where
                        if record and got[0] == "unsat":
                            assert _refutation_problem(
                                got[4], constraints) is None, where
                            assert got[4] == want[4], where
                            unsat_trees += 1
        status, _, _, nodes, _ = _Problem(constraints).solve(10**6)
        if dfs_calls(constraints, node_budget=10**6) < nodes:
            reused += 1
            unsat_reused += status == "unsat"
    assert reused >= 15
    assert unsat_reused >= 5
    assert unsat_trees >= 40


def bases(count: int, dim: int = 4) -> list[AdditivityRelation]:
    return [AdditivityRelation(tuple(f"b{b}_{k}" for k in range(dim)), "I",
                               "context")
            for b in range(count)]


def test_twelve_disjoint_bases_are_counted_not_walked():
    # 4^12 models in a tree of 2 * 4^12 - 1 nodes: about 33.5 M nodes, far
    # beyond what a walk of every node finishes in a test.
    cs = haar_bases_context_set(rng_from_seed(12), bases=12)
    start = time.perf_counter()
    result = search_dispersion_free(cs, node_budget=10**8)
    verdict = verify_certificate(result, cs)
    elapsed = time.perf_counter() - start
    assert result.status == "sat"
    assert result.total_solutions == 4**12
    assert result.nodes_explored == 2 * 4**12 - 1
    assert len(result.assignments) == 64
    assert verdict
    assert elapsed < 1.0


def test_twelve_disjoint_bases_exhaust_the_default_budget():
    cs = haar_bases_context_set(rng_from_seed(12), bases=12)
    result = search_dispersion_free(cs)
    assert result.status == "sat"
    assert result.total_solutions is None
    assert result.nodes_explored == 1_000_001
    assert verify_certificate(result, cs)


def test_searches_in_two_threads_keep_their_own_tables():
    # The two lists differ only in the last relation, whose bounds are the
    # same in both until b5_1 or b5_2 is set. Until then every node of one
    # search has the key of a node of the other, so a table shared across
    # calls would hand one search the other's models.
    searches = {
        "b5_0 + b5_1 = 1":
            bases(6) + [AdditivityRelation(("b5_0", "b5_1"), "I")],
        "b5_0 + b5_2 = 1":
            bases(6) + [AdditivityRelation(("b5_0", "b5_2"), "I")]}
    expected = {name: _Problem(c).solve(10**6, max_store=64)
                for name, c in searches.items()}
    assert expected["b5_0 + b5_1 = 1"][1] != expected["b5_0 + b5_2 = 1"][1]
    results: dict[str, list] = {name: [] for name in searches}
    barrier = threading.Barrier(len(searches))

    def run(name):
        barrier.wait()
        for _ in range(20):
            results[name].append(
                _Problem(searches[name]).solve(10**6, max_store=64))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(name,))
                   for name in searches]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for name, runs in results.items():
        assert len(runs) == 20
        assert all(r[:4] == expected[name][:4] for r in runs), name


def deletion_trials(constraints, node_budget):
    """The deletion filter as a loop of fresh solves, the oracle for the
    compiled search: each trial drops every entry that is the tried
    constraint from the current core and is solved as a fresh
    ``_Problem`` of its own. Returns the core and each trial's (tried
    constraint, list, result)."""
    core = list(constraints)
    trials = []
    for desc in list(core):
        trial = [d for d in core if d is not desc]
        got = _Problem(trial).solve(node_budget, stop_at_first=True)
        trials.append((desc, trial, got))
        if got[0] == "unsat":
            core = trial
    return core, trials


def same_objects(got, want) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def subset_inputs(rng):
    """``random_constraint_list`` inputs, some with a relation whose
    target is also an addend (``A + Z = A``, netting A to zero) and some
    with one constraint object listed twice."""
    constraints = random_constraint_list(rng)
    labels = variables_of(constraints)
    if rng.random() < 0.4:
        a, z = (str(lb) for lb in rng.choice(labels, 2))
        constraints.insert(int(rng.integers(0, len(constraints) + 1)),
                           AdditivityRelation((a, z), a))
    if rng.random() < 0.4:
        twice = constraints[int(rng.integers(0, len(constraints)))]
        constraints.insert(int(rng.integers(0, len(constraints) + 1)), twice)
    return constraints


def test_subsets_of_one_problem_match_fresh_solves():
    rng = rng_from_seed(2020)
    seen = Counter()
    for case in range(60):
        constraints = subset_inputs(rng)
        nodes = _Problem(constraints).solve(10**6)[3]
        for budget in (10**6, max(nodes, 1), nodes + 4):
            where = f"case {case}, budget {budget}"
            problem = _Problem(constraints)
            fresh = _Problem(constraints).solve(budget, max_store=64)
            main = problem.solve(budget, max_store=64)
            assert main == fresh, where
            # The search and the certificate re-check read a context set
            # only through ``constraints()``: these, in this order.
            cs = ContextSet({}, tuple(constraints), ())
            result = search_dispersion_free(cs, 64, budget)
            if fresh[0] != "unsat":
                assert (result.status, result.assignments,
                        result.total_solutions, result.nodes_explored) == (
                    fresh[:4]), where
                assert ([list(a) for a in result.assignments]
                        == [list(a) for a in fresh[1]]), where
                continue
            want_core, trials = deletion_trials(constraints, budget)
            core = problem
            for desc, trial, want in trials:
                subset = core.without(desc)
                assert same_objects(
                    [problem.constraints[k] for k in subset.members],
                    trial), where
                # occurrence lists: the whole problem's, kept to the subset
                members = set(subset.members)
                for got, full in zip((*subset.raise_lo, *subset.cut_hi),
                                     (*problem.raise_lo, *problem.cut_hi)):
                    assert got == [[e for e in entries if e[0] in members]
                                   for entries in full], where
                got = subset.solve(budget, stop_at_first=True)
                assert got == want, where
                order = variables_of(trial)
                kept = set(order)
                seen["order moves"] += (
                    [lb for lb in variables_of([problem.constraints[k]
                                                for k in core.members])
                     if lb in kept] != order)
                seen["unknown"] += got[0] == "unknown"
                coeffs = desc.row()[0].values()
                seen["minus one"] += -1 in coeffs
                seen["zero net"] += 0 in coeffs
                dropped = len(core.members) - len(subset.members)
                seen["dropped twice"] += dropped > 1
                seen["tried again"] += dropped == 0
                if got[0] == "unsat":
                    core = subset
            assert result.status == "unsat", where
            assert same_objects(result.unsat_core, want_core), where
            assert result.nodes_explored == fresh[3] + sum(
                want[3] for *_, want in trials), where
            assert result.core_minimal == all(
                want[0] != "unknown" for *_, want in trials), where
            tree = _Problem(want_core).solve(budget, record=True)[4]
            assert result.refutation == tree, where
            verdict = verify_certificate(result, cs)
            assert verdict, (where, verdict.reason)
            seen["unsat"] += 1
    assert seen["unsat"] >= 40, seen
    assert seen["order moves"] >= 20, seen
    assert seen["unknown"] >= 20, seen
    assert seen["minus one"] >= 20, seen
    assert seen["zero net"] >= 10, seen
    assert seen["dropped twice"] >= 10, seen
    assert seen["tried again"] >= 5, seen


def test_a_search_reads_each_constraint_once(monkeypatch):
    """Peres's 24 tetrads: the search, its 24 deletion trials and the
    refutation re-solve share one compiled problem, so each constraint's
    ``row()`` is read once, not once per solve."""
    rays = peres_rays()
    labels = [f"r{i:02d}" for i in range(len(rays))]
    constraints = [AdditivityRelation(tuple(labels[i] for i in t), "I",
                                      "context")
                   for t in orthogonal_tetrads(rays)]
    reads = Counter()
    row = AdditivityRelation.row

    def counted(self):
        reads[id(self)] += 1
        return row(self)

    monkeypatch.setattr(AdditivityRelation, "row", counted)
    result = search_dispersion_free(ContextSet({}, tuple(constraints), ()))
    assert result.status == "unsat"
    assert len(result.unsat_core) == 11
    assert set(reads) <= {id(d) for d in constraints}
    assert max(reads.values()) == 1, sum(reads.values())
