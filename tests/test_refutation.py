"""UNSAT certificates: refutation trees on Kochen-Specker sets, tampering,
and agreement with brute-force enumeration."""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from effectkit import (
    AdditivityRelation,
    DuplicateOperatorWarning,
    Effect,
    HermitianOperator,
    build_context_set,
    random_povm,
    rng_from_seed,
    search_dispersion_free,
    verify_certificate,
)
from effectkit.nogo import Branch

from conftest import (
    PERES_CORE,
    brute_force_solutions,
    constraint_subset_as_context_set,
    orthogonal_tetrads,
    pauli_op,
    peres_rays,
    random_context_set,
)


def peres_33_rays():
    """Peres's 33 rays in R^3 (J. Phys. A 24, L175, 1991).

    Components from {0, +-1, +-sqrt2} whose squares are a permutation of
    (0,0,1), (0,1,1), (0,1,2) or (1,1,2), up to an overall sign. Listed
    pattern by pattern, each pattern's distinct permutations in descending
    order, then sign by sign with the first nonzero component positive.
    """
    rays = []
    for pattern in ((0, 0, 1), (0, 1, 1), (0, 1, 2), (1, 1, 2)):
        for squares in sorted(set(itertools.permutations(pattern)),
                              reverse=True):
            support = [i for i, sq in enumerate(squares) if sq]
            for signs in itertools.product((1, -1), repeat=len(support) - 1):
                ray = [0.0, 0.0, 0.0]
                for i, sign in zip(support, (1,) + signs):
                    ray[i] = sign * np.sqrt(squares[i])
                rays.append(tuple(ray))
    return rays


def peres_33_context_set():
    """The 16 orthogonal triads of the 33 rays, plus each of the 24
    orthogonal pairs that lie in no triad, completed by its cross product:
    57 rank-one effects in 40 contexts."""
    rays = np.array(peres_33_rays())
    orthogonal = np.abs(rays @ rays.T) < 1e-12
    triads = [t for t in itertools.combinations(range(len(rays)), 3)
              if all(orthogonal[a, b] for a, b in itertools.combinations(t, 2))]
    in_triad = {p for t in triads for p in itertools.combinations(t, 2)}
    pairs = [p for p in itertools.combinations(range(len(rays)), 2)
             if orthogonal[p] and p not in in_triad]
    units = list(rays / np.linalg.norm(rays, axis=1, keepdims=True))
    labels = [f"r{i:02d}" for i in range(len(rays))]
    contexts = [[labels[i] for i in t] for t in triads]
    for k, (a, b) in enumerate(pairs):
        units.append(np.cross(units[a], units[b]))
        labels.append(f"c{k:02d}")
        contexts.append([labels[a], labels[b], labels[-1]])
    effects = [Effect(HermitianOperator(np.outer(u, u)), lb)
               for u, lb in zip(units, labels)]
    return len(rays), len(triads), len(pairs), build_context_set(effects,
                                                                 contexts)


PAULIS = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
          "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


def pauli(word):
    """The Pauli product of ``word``, e.g. "XIZ" is X (x) I (x) Z."""
    out = np.eye(1)
    for ch in word:
        out = np.kron(out, PAULIS[ch])
    return out


def kernaghan_peres_rays():
    """Kernaghan & Peres's 40 rays in C^8 (Phys. Lett. A 198, 1, 1995), as
    rank-one projectors: the joint eigenbases of the five lines of Mermin's
    three-qubit star. Each line is given by three commuting Pauli products
    that generate it, and its eight projectors are prod_k (I + s_k G_k)/2
    over the signs s in ``itertools.product((1, -1), repeat=3)`` order."""
    lines = (("XII", "IXI", "IIX"), ("XII", "IYI", "IIY"),
             ("YII", "IXI", "IIY"), ("YII", "IYI", "IIX"),
             ("XXX", "XYY", "YXY"))
    rays = []
    for generators in lines:
        for signs in itertools.product((1, -1), repeat=3):
            proj = np.eye(8)
            for sign, word in zip(signs, generators):
                proj = proj @ (np.eye(8) + sign * pauli(word)) / 2
            rays.append(proj)
    return rays


def two_qubit_pauli_rays():
    """The 60 rays of the two-qubit Pauli set (Waegell & Aravind, J. Phys. A
    44, 505303, 2011): the joint eigenprojectors of its maximal commuting
    triples. The triples are the ``itertools.combinations`` of the 15
    non-identity words, in "IXYZ" order, that commute pairwise and whose
    first two multiply to +-the third; each triple (G1, G2, G3) gives the
    projectors (I + s1 G1)(I + s2 G2)/4 over the signs s in
    ``itertools.product((1, -1), repeat=2)`` order. Returns the triple count
    and the rays."""
    words = [a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"]
    triples = []
    for triple in itertools.combinations(words, 3):
        g = [pauli(w) for w in triple]
        product = g[0] @ g[1]
        if (all(np.allclose(a @ b, b @ a)
                for a, b in itertools.combinations(g, 2))
                and (np.allclose(product, g[2])
                     or np.allclose(product, -g[2]))):
            triples.append(triple)
    rays = [(np.eye(4) + s1 * pauli(g1)) @ (np.eye(4) + s2 * pauli(g2)) / 4
            for g1, g2, _ in triples
            for s1, s2 in itertools.product((1, -1), repeat=2)]
    return len(triples), rays


def six_hundred_cell_rays():
    """The 60 rays of the 600-cell (Aravind & Lee-Elkin, J. Phys. A 31,
    9829, 1998): its 120 vertices up to sign. The vertices are listed as
    the 8 points with one entry +-1 and the others 0 (axis by axis, +
    before -), the 16 points (+-1/2, +-1/2, +-1/2, +-1/2) in
    ``itertools.product`` order, then the 96 even permutations of
    (+-phi, +-1, +-1/phi, 0)/2, sign by sign in ``itertools.product``
    order and, within one sign, permutation by permutation in
    ``itertools.permutations`` order. Each vertex is scaled to have its
    first nonzero entry +1, and a ray is kept where it first appears.
    Returns the vertex count and the rays."""
    phi = (1 + 5 ** 0.5) / 2
    vertices = []
    for axis in range(4):
        for sign in (1.0, -1.0):
            vertices.append(tuple(sign if k == axis else 0.0
                                  for k in range(4)))
    vertices += list(itertools.product((0.5, -0.5), repeat=4))
    even = [p for p in itertools.permutations(range(4))
            if sum(p[i] > p[j]
                   for i, j in itertools.combinations(range(4), 2)) % 2 == 0]
    for signs in itertools.product((1, -1), repeat=3):
        base = (signs[0] * phi, signs[1] * 1.0, signs[2] / phi, 0.0)
        vertices += [tuple(base[p[k]] / 2 for k in range(4)) for p in even]
    rays, seen = [], set()
    for v in vertices:
        lead = next(x for x in v if abs(x) > 1e-12)
        ray = tuple(x / lead for x in v)
        key = tuple(round(x, 9) for x in ray)
        if key not in seen:
            seen.add(key)
            rays.append(ray)
    return len(vertices), rays


def orthogonal_bases(projectors, size):
    """Every set of ``size`` mutually orthogonal projectors, by a clique
    search in lexicographic order."""
    stack = np.array(projectors)
    orthogonal = np.abs(np.einsum("aij,bji->ab", stack, stack)) < 1e-12
    found = []

    def extend(chosen, candidates):
        if len(chosen) == size:
            found.append(tuple(chosen))
            return
        for k, c in enumerate(candidates):
            extend(chosen + [c],
                   [d for d in candidates[k + 1:] if orthogonal[c, d]])

    extend([], list(range(len(stack))))
    return found


def ks_context_set(rays, tetrads):
    labels = [f"r{i:02d}" for i in range(len(rays))]
    effects = [Effect(HermitianOperator(np.outer(v, v) / np.dot(v, v)),
                      lb) for lb, v in zip(labels, np.array(rays, dtype=float))]
    return build_context_set(effects, [[labels[i] for i in t] for t in tetrads])


def parity_tetrads(tetrads, size=9):
    """``size`` tetrads in which every ray they touch lies in exactly two.

    Then the contexts sum to an odd count of ones while every ray is counted
    twice, so no {0,1} assignment exists. Backtracking: a ray seen once must
    be completed by a tetrad still to come.
    """
    def extend(chosen, counts):
        if len(chosen) == size:
            return chosen if all(c in (0, 2) for c in counts.values()) else None
        odd = sorted(r for r, c in counts.items() if c == 1)
        if odd:
            options = [t for t in tetrads if odd[0] in t and t not in chosen]
        else:
            options = [t for t in tetrads if not chosen or t > chosen[-1]]
        for t in options:
            if any(counts.get(r, 0) == 2 for r in t):
                continue
            for r in t:
                counts[r] = counts.get(r, 0) + 1
            found = extend(chosen + [t], counts)
            for r in t:
                counts[r] -= 1
            if found:
                return found
        return None

    return extend([], {})


def halving_context_set(rng):
    """One random POVM context whose outcomes E are each, with probability
    3/4, split into equal halves w by the relation w + w = E, next to an
    unrelated POVM context. If every outcome is split, every v(E) is even
    and the context cannot hold its single 1: unsat with a core of the
    context and all its relations."""
    dim = int(rng.integers(2, 4))
    povm = random_povm(dim, int(rng.integers(2, 6)), rng, label_prefix="E")
    other = random_povm(dim, 2, rng, label_prefix="F")
    effects = list(povm.effects) + list(other.effects)
    relations = []
    for e in povm.effects:
        if rng.random() < 0.75:
            effects.append(Effect(e.op * 0.5, "w" + e.label))
            relations.append(AdditivityRelation(("w" + e.label,) * 2, e.label))
    return build_context_set(effects, [list(other.labels), list(povm.labels)],
                             relations)


def core_labels(result):
    return {lb for c in result.unsat_core for lb in c.labels}


def leaves(tree):
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Branch):
            stack += [node.zero, node.one]
        else:
            found.append(node)
    return found


def replace_leftmost_leaf(tree, leaf):
    if not isinstance(tree, Branch):
        return leaf
    return dataclasses.replace(tree, zero=replace_leftmost_leaf(tree.zero, leaf))


def leftmost_path(tree):
    path = []
    while isinstance(tree, Branch):
        path.append(tree.label)
        tree = tree.zero
    return path


@pytest.fixture(scope="module")
def peres():
    rays = peres_rays()
    tetrads = orthogonal_tetrads(rays)
    cs = ks_context_set(rays, tetrads)
    return cs, search_dispersion_free(cs)


class TestKnownAnswers:
    def test_peres_24_rays(self, peres):
        cs, result = peres
        assert len(cs.effects) == 24
        assert len(cs.contexts) == 24
        assert result.status == "unsat"
        assert result.nodes_explored == 295
        assert len(result.unsat_core) == 11
        # the deletion-minimised core of the formula order, pinned
        assert [[int(lb[1:]) for lb in c.labels]
                for c in result.unsat_core] == PERES_CORE
        assert len(core_labels(result)) == 20
        start = time.perf_counter()
        verdict = verify_certificate(result, cs)
        elapsed = time.perf_counter() - start
        assert verdict, verdict.reason
        assert elapsed < 0.5

    def test_peres_33_rays(self):
        n_rays, n_triads, n_pairs, cs = peres_33_context_set()
        assert (n_rays, n_triads, n_pairs) == (33, 16, 24)
        assert (len(cs.effects), len(cs.contexts)) == (57, 40)
        search_s, verify_s = [], []
        for _ in range(3):
            start = time.perf_counter()
            result = search_dispersion_free(cs)
            search_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            verdict = verify_certificate(result, cs)
            verify_s.append(time.perf_counter() - start)
            assert verdict, verdict.reason
        assert result.status == "unsat"
        # the count of the checked-in search for this construction order
        assert result.nodes_explored == 351
        assert sorted(c.labels for c in result.unsat_core) == sorted(
            c.labels for c in cs.contexts)
        assert 5 * min(verify_s) < min(search_s)
        # minimal: every context is needed
        for k in range(len(cs.contexts)):
            rest = [d for i, d in enumerate(cs.constraints()) if i != k]
            assert search_dispersion_free(
                constraint_subset_as_context_set(cs, rest)).status == "sat"

    def test_kernaghan_peres_40_rays(self):
        rays = kernaghan_peres_rays()
        bases = orthogonal_bases(rays, 8)
        # the literature's answer: 40 rays in 25 bases
        assert (len(rays), len(bases)) == (40, 25)
        labels = [f"r{i:02d}" for i in range(len(rays))]
        cs = build_context_set(
            [Effect(HermitianOperator(r), lb) for r, lb in zip(rays, labels)],
            [[labels[i] for i in b] for b in bases])
        search_s, verify_s = [], []
        for _ in range(3):
            start = time.perf_counter()
            result = search_dispersion_free(cs)
            search_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            verdict = verify_certificate(result, cs)
            verify_s.append(time.perf_counter() - start)
            assert verdict, verdict.reason
        assert result.status == "unsat"
        # the checked-in search for this construction order
        assert result.nodes_explored == 1710
        assert [bases.index(tuple(labels.index(lb) for lb in c.labels))
                for c in result.unsat_core] == [
            5, 6, 7, 8, 12, 14, 15, 19, 20, 22, 24]
        assert len(core_labels(result)) == 36
        assert 5 * min(verify_s) < min(search_s)
        # minimal: every core context is needed
        for k in range(len(result.unsat_core)):
            rest = [d for i, d in enumerate(result.unsat_core) if i != k]
            assert search_dispersion_free(
                constraint_subset_as_context_set(cs, rest)).status == "sat"

    def test_600_cell_60_rays(self):
        n_vertices, rays = six_hundred_cell_rays()
        projectors = [np.outer(r, r) / np.dot(r, r) for r in rays]
        tetrads = orthogonal_bases(projectors, 4)
        # the literature's answer: 120 vertices give 60 rays in 75 tetrads
        assert (n_vertices, len(rays), len(tetrads)) == (120, 60, 75)
        labels = [f"r{i:02d}" for i in range(len(rays))]
        cs = build_context_set(
            [Effect(HermitianOperator(p), lb)
             for p, lb in zip(projectors, labels)],
            [[labels[i] for i in t] for t in tetrads])
        search_s, verify_s = [], []
        for _ in range(3):
            start = time.perf_counter()
            result = search_dispersion_free(cs)
            search_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            verdict = verify_certificate(result, cs)
            verify_s.append(time.perf_counter() - start)
            assert verdict, verdict.reason
        assert result.status == "unsat"
        # the checked-in search for this construction order
        assert result.nodes_explored == 4376
        assert [tetrads.index(tuple(labels.index(lb) for lb in c.labels))
                for c in result.unsat_core] == [
            33, 34, 41, 42, 45, 46, 47, 48, 49, 50, 52, 54, 56, 63, 65, 67,
            70, 72, 74]
        assert len(core_labels(result)) == 37
        assert result.core_minimal
        assert 5 * min(verify_s) < min(search_s)
        # minimal: every core tetrad is needed
        for k in range(len(result.unsat_core)):
            rest = [d for i, d in enumerate(result.unsat_core) if i != k]
            assert search_dispersion_free(
                constraint_subset_as_context_set(cs, rest)).status == "sat"

    def test_two_qubit_pauli_60_rays(self):
        n_triples, rays = two_qubit_pauli_rays()
        bases = orthogonal_bases(rays, 4)
        # the literature's answer: 15 triples give 60 rays in 105 bases
        assert (n_triples, len(rays), len(bases)) == (15, 60, 105)
        labels = [f"p{i:02d}" for i in range(len(rays))]
        cs = build_context_set(
            [Effect(HermitianOperator(r), lb) for r, lb in zip(rays, labels)],
            [[labels[i] for i in b] for b in bases])
        search_s, verify_s = [], []
        for _ in range(3):
            start = time.perf_counter()
            result = search_dispersion_free(cs)
            search_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            verdict = verify_certificate(result, cs)
            verify_s.append(time.perf_counter() - start)
            assert verdict, verdict.reason
        assert result.status == "unsat"
        # the checked-in search for this construction order
        assert result.nodes_explored == 2909
        assert [bases.index(tuple(labels.index(lb) for lb in c.labels))
                for c in result.unsat_core] == [
            85, 86, 87, 90, 92, 96, 97, 100, 103]
        assert len(core_labels(result)) == 18
        assert result.core_minimal
        assert 5 * min(verify_s) < min(search_s)
        # minimal: every core basis is needed
        for k in range(len(result.unsat_core)):
            rest = [d for i, d in enumerate(result.unsat_core) if i != k]
            assert search_dispersion_free(
                constraint_subset_as_context_set(cs, rest)).status == "sat"

    def test_cabello_estebaranz_garcia_alcaine_18_rays(self):
        rays = peres_rays()
        chosen = parity_tetrads(orthogonal_tetrads(rays))
        counts = np.bincount(np.ravel(chosen), minlength=len(rays))
        assert len(chosen) == 9
        assert sorted(set(counts.tolist())) == [0, 2]
        assert int(np.count_nonzero(counts)) == 18
        cs = ks_context_set(rays, chosen)
        result = search_dispersion_free(cs)
        assert result.status == "unsat"
        assert len(result.unsat_core) == 9
        assert len(core_labels(result)) == 18
        assert verify_certificate(result, cs)

    def test_netted_coefficients(self):
        # [Z, H, H] reads v(Z) + 2 v(H) = 1; the relation A + Z = A reads
        # v(Z) = 0 because A is both addend and target. Together: unsat.
        zero = Effect(0.0 * HermitianOperator.identity(2), "Z")
        half = Effect(0.5 * HermitianOperator.identity(2), "H")
        a = Effect(pauli_op(0, 0, 1), "A")
        cs = build_context_set([zero, half, a], [["Z", "H", "H"]],
                               [AdditivityRelation(("A", "Z"), "A")])
        result = search_dispersion_free(cs)
        assert result.status == "unsat"
        assert len(result.unsat_core) == 2
        verdict = verify_certificate(result, cs)
        assert verdict, verdict.reason


class TestTampering:
    def test_dropped_child(self, peres):
        cs, result = peres
        bad = dataclasses.replace(
            result, refutation=dataclasses.replace(result.refutation, one=None))
        verdict = verify_certificate(bad, cs)
        assert not verdict
        assert "no child for value 1" in verdict.reason

    def test_leaf_at_admitting_constraint(self, peres):
        cs, result = peres
        path = set(leftmost_path(result.refutation))
        untouched = next(c for c in result.unsat_core
                         if not path.intersection(c.labels))
        for tree in (untouched,
                     replace_leftmost_leaf(result.refutation, untouched)):
            verdict = verify_certificate(
                dataclasses.replace(result, refutation=tree), cs)
            assert not verdict
            assert "[0, 4]" in verdict.reason and "admit 1" in verdict.reason

    def test_leaf_at_non_core_constraint(self, peres):
        cs, result = peres
        outside = next(c for c in cs.constraints() if c not in result.unsat_core)
        for leaf in (outside,
                     AdditivityRelation(("r00", "r01"), "I", "context")):
            tree = replace_leftmost_leaf(result.refutation, leaf)
            verdict = verify_certificate(
                dataclasses.replace(result, refutation=tree), cs)
            assert not verdict
            assert "not in the core" in verdict.reason

    def test_branch_on_foreign_label(self, peres):
        cs, result = peres
        unused = sorted(set(cs.effects) - core_labels(result))
        assert unused
        for label in (unused[0], "nowhere"):
            tree = Branch(label, result.refutation, result.refutation)
            verdict = verify_certificate(
                dataclasses.replace(result, refutation=tree), cs)
            assert not verdict
            assert "outside the core" in verdict.reason

    def test_branch_on_assigned_label(self, peres):
        cs, result = peres
        root = result.refutation
        tree = Branch(root.label, root, root)
        verdict = verify_certificate(
            dataclasses.replace(result, refutation=tree), cs)
        assert not verdict
        assert "already assigned" in verdict.reason

    def test_unsat_without_tree(self, peres):
        cs, result = peres
        verdict = verify_certificate(
            dataclasses.replace(result, refutation=None), cs)
        assert not verdict
        assert "no refutation tree" in verdict.reason

    def test_tree_of_another_type(self):
        # The UNSAT triangle: x + y = y + z = x + z = I, each effect I/2.
        half = HermitianOperator.identity(2) * 0.5
        with pytest.warns(DuplicateOperatorWarning):
            cs = build_context_set([Effect(half, lb) for lb in "xyz"],
                                   [["x", "y"], ["y", "z"], ["x", "z"]])
        result = search_dispersion_free(cs)
        assert result.status == "unsat" and verify_certificate(result, cs)
        verdict = verify_certificate(
            dataclasses.replace(result, refutation=42), cs)
        assert not verdict
        assert verdict.reason == ("the refutation tree is neither a Branch "
                                  "nor a constraint")

    def test_tree_is_not_serialised(self, peres):
        _, result = peres
        assert "refutation" not in result.to_json_dict()


class TestAgainstBruteForce:
    def test_tree_checker_agrees_with_enumeration(self):
        # every instance has at most 14 labels, so brute force stays cheap
        rng = rng_from_seed(504)
        instances = [random_context_set(rng, max_effects=12) for _ in range(40)]
        instances += [halving_context_set(rng) for _ in range(40)]
        checked = multi = 0
        for cs in instances:
            result = search_dispersion_free(cs, max_solutions=1)
            if result.status != "unsat":
                continue
            checked += 1
            multi += len(result.unsat_core) > 1
            core = result.unsat_core
            assert not brute_force_solutions(
                constraint_subset_as_context_set(cs, core))
            verdict = verify_certificate(result, cs)
            assert verdict, verdict.reason
            cited = leaves(result.refutation)
            # each proper sub-core is satisfiable, so the tree must fail it
            for k in range(len(core)):
                rest = [c for i, c in enumerate(core) if i != k]
                assert brute_force_solutions(
                    constraint_subset_as_context_set(cs, rest))
                assert core[k] in cited
                assert not verify_certificate(
                    dataclasses.replace(result, unsat_core=rest), cs)
        assert checked >= 10 and multi >= 5
