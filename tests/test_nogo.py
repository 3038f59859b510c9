"""No-go machinery: witness construction, context sets, and the search."""

import itertools

import numpy as np
import pytest

from effectkit import (
    AdditivityRelation,
    BadContext,
    BadRelation,
    BlochVector,
    ConvergenceFailure,
    DegenerateLambda,
    DimMismatch,
    Effect,
    HermitianOperator,
    NotUnitVectors,
    ParallelVectors,
    SchemaError,
    SearchResult,
    TOL,
    UnknownLabel,
    born,
    born_functional,
    build_context_set,
    complement,
    discover_sum_relations,
    random_density,
    rng_from_seed,
    search_dispersion_free,
    verify_certificate,
    witness_2d,
)
from effectkit import nogo, operators
from effectkit.cli import main
from effectkit.nogo import context_set_from_json

from conftest import (
    brute_force_solutions,
    char_poly_eigs_2x2,
    constraint_subset_as_context_set,
    haar_bases_context_set,
    pauli_op,
    random_context_set,
    variables_of,
)


def zhat():
    return BlochVector((0.0, 0.0, 1.0))


def xhat():
    return BlochVector((1.0, 0.0, 0.0))


def half_identity_context_set():
    half = Effect(0.5 * HermitianOperator.identity(2), "H")
    eye = Effect(HermitianOperator.identity(2), "I")
    return build_context_set([eye, half], [["H", "H"]])


def projective_pair_context_set():
    p = Effect(pauli_op(0, 0, 1), "P")
    q = Effect(pauli_op(1, 0, 0), "Q")
    return build_context_set(
        [p, complement(p, "Pp"), q, complement(q, "Qp")],
        [["P", "Pp"], ["Q", "Qp"]])


class TestWitness2D:
    def test_z_x_half(self):
        w = witness_2d(zhat(), xhat(), 0.5)
        assert w.c.a == pytest.approx((0.5, 0.0, 0.5))
        assert w.c.norm == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
        assert w.mu == pytest.approx((1 + np.sqrt(2) / 2) / 2, abs=1e-15)
        _, hi = char_poly_eigs_2x2(w.E.op.array)
        assert w.mu == pytest.approx(hi, abs=1e-12)
        assert 0.0 < w.mu < 1.0

    def test_orthogonal_pair_maximal_indeterminacy(self):
        w = witness_2d(zhat(), BlochVector((0.0, 0.0, -1.0)), 0.5)
        assert w.c.norm == 0.0
        assert w.mu == 0.5
        assert np.allclose(w.E.op.array, 0.5 * np.eye(2), atol=1e-15)

    def test_parallel_vectors_rejected(self):
        with pytest.raises(ParallelVectors) as info:
            witness_2d(zhat(), zhat(), 0.5)
        assert str(info.value) == (
            "directions subtend only 0.0 rad <= bound 1e-06; the mixture is "
            "(numerically) a projection")

    def test_nearly_parallel_rejected(self):
        tilt = BlochVector((1e-8, 0.0, np.sqrt(1 - 1e-16)))
        with pytest.raises(ParallelVectors):
            witness_2d(zhat(), tilt, 0.5)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.7, 1.0000000001])
    def test_degenerate_lambda(self, lam):
        with pytest.raises(DegenerateLambda) as info:
            witness_2d(zhat(), xhat(), lam)
        assert str(info.value) == (f"mixing weight {float(lam)} must lie "
                                   "strictly in (0, 1)")

    def test_non_unit_vectors(self):
        with pytest.raises(NotUnitVectors) as info:
            witness_2d(BlochVector((0.0, 0.0, 2.0)), xhat(), 0.5)
        assert str(info.value) == "n has norm 2.0, not 1 within 1e-09"

    @staticmethod
    def _eigensolver_off_by(monkeypatch, shift):
        """Make the witness's eigensolver read every eigenvalue ``shift``
        high; return the message that the disagreement raises."""
        monkeypatch.setattr(
            nogo, "eigenvalues_of",
            lambda op: operators.eigenvalues_of(op) + shift)
        mu = (1.0 + np.sqrt(0.5)) / 2.0
        top = float(np.linalg.eigvalsh(pauli_op(0.5, 0.5, 0.0).array)[-1])
        return (f"closed-form weight {mu} disagrees with eigensolver "
                f"{top + shift} by > 1e-09")

    def test_closed_form_weight_checked_against_the_eigensolver(
            self, monkeypatch):
        message = self._eigensolver_off_by(monkeypatch, 1e-6)
        with pytest.raises(ConvergenceFailure) as info:
            witness_2d(xhat(), BlochVector((0.0, 1.0, 0.0)), 0.5)
        assert str(info.value) == message

    def test_closed_form_weight_failure_exits_2_with_one_line(
            self, capsys, monkeypatch):
        message = self._eigensolver_off_by(monkeypatch, 1e-6)
        code = main(["nogo2d", "--n", "1,0,0", "--m", "0,1,0",
                     "--lambda", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"ConvergenceFailure: {message}\n"

    def test_composition_identity(self):
        rng = rng_from_seed(77)
        for _ in range(100):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            m = rng.standard_normal(3)
            m /= np.linalg.norm(m)
            lam = float(rng.uniform(0.05, 0.95))
            try:
                w = witness_2d(BlochVector(tuple(n)), BlochVector(tuple(m)), lam)
            except ParallelVectors:
                continue
            mixture = lam * w.P.op + (1 - lam) * w.Q.op
            assert np.linalg.norm(w.E.op.array - mixture.array) <= 1e-12
            # closed form against the eigensolver route
            top = float(np.linalg.eigvalsh(w.E.op.array)[-1])
            assert abs(w.mu - top) <= 1e-10
            # spectral pair reassembles E
            spectral = w.mu * w.R.op + (1 - w.mu) * w.Rprime.op
            assert np.linalg.norm(w.E.op.array - spectral.array) <= 1e-12

    def test_mu_range(self):
        rng = rng_from_seed(78)
        for _ in range(200):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            m = rng.standard_normal(3)
            m /= np.linalg.norm(m)
            if abs(abs(float(n @ m)) - 1.0) < 1e-6:
                continue
            lam = float(rng.uniform(0.05, 0.95))
            try:
                w = witness_2d(BlochVector(tuple(n)), BlochVector(tuple(m)), lam)
            except ParallelVectors:
                continue
            if w.c.norm == 0.0:
                assert w.mu == 0.5
            else:
                assert 0.5 < w.mu < 1.0

    def test_born_valuations_are_linear_on_witness(self):
        # sanity: actual states satisfy the linearity that dispersion-free
        # valuations cannot
        rng = rng_from_seed(79)
        w = witness_2d(zhat(), xhat(), 0.25)
        for _ in range(20):
            rho = random_density(2, rng)
            lhs = born(rho, w.E)
            rhs = 0.25 * born(rho, w.P) + 0.75 * born(rho, w.Q)
            assert abs(lhs - rhs) <= 1e-12


def mixed_dimension_effects():
    """A = diag(1, 0) and B = diag(0, 1) in d = 2, C = diag(1, 0, 0) in
    d = 3."""
    return (Effect(HermitianOperator(np.diag([1.0, 0.0])), "A"),
            Effect(HermitianOperator(np.diag([0.0, 1.0])), "B"),
            Effect(HermitianOperator(np.diag([1.0, 0.0, 0.0])), "C"))


def effect_with_spectrum(rng, dim, lo, hi):
    """A random d x d array with eigenvalues drawn from [lo, hi] in a
    Haar-random basis."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return (q * rng.uniform(lo, hi, size=dim)) @ q.conj().T


def planted_identity_pool(rng, dim, factor):
    """Four filler effects and three planted identities a + ac = I,
    b + c = bc and e + f + g = I, whose last operator is moved off the
    identity by ``factor`` times the bound d * TOL.sum_per_dim."""
    def off(array):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = h + h.conj().T
        return array + factor * dim * TOL.sum_per_dim * h / np.linalg.norm(h)
    eye = np.eye(dim)
    arrays = {f"x{k}": effect_with_spectrum(rng, dim, 0.0, 1.0)
              for k in range(4)}
    arrays["a"] = effect_with_spectrum(rng, dim, 0.2, 0.8)
    arrays["ac"] = off(eye - arrays["a"])
    for lb in "bcef":
        arrays[lb] = effect_with_spectrum(rng, dim, 0.1, 0.3)
    arrays["bc"] = off(arrays["b"] + arrays["c"])
    arrays["g"] = off(eye - arrays["e"] - arrays["f"])
    return {lb: Effect(HermitianOperator(a), lb) for lb, a in arrays.items()}


def accepts(rel, resolve) -> bool:
    try:
        rel.check_identity(resolve)
    except BadRelation:
        return False
    return True


class TestBuildContextSet:
    def test_half_identity_relation(self):
        half = Effect(0.5 * HermitianOperator.identity(2), "H")
        eye = Effect(HermitianOperator.identity(2), "I")
        cs = build_context_set([eye, half], [["H", "H"]],
                               [AdditivityRelation(("H", "H"), "I")])
        assert cs.contexts == (
            AdditivityRelation(("H", "H"), "I", "context"),)
        assert len(cs.sum_relations) == 1

    def test_a_relation_given_a_list_of_labels_is_recheckable(self):
        half = Effect(0.5 * HermitianOperator.identity(2), "H")
        eye = Effect(HermitianOperator.identity(2), "I")
        relation = AdditivityRelation(["H", "H"], "I")
        assert relation.labels == ("H", "H")
        cs = build_context_set([eye, half], [], [relation])
        result = search_dispersion_free(cs)
        assert result.status == "unsat"
        assert result.unsat_core == [AdditivityRelation(("H", "H"), "I")]
        assert verify_certificate(result, cs)

    def test_projective_contexts(self):
        cs = projective_pair_context_set()
        assert len(cs.contexts) == 2
        assert cs.sum_relations == ()

    def test_bad_relation(self):
        p = Effect(pauli_op(0, 0, 1), "P")
        q = Effect(pauli_op(1, 0, 0), "Q")
        with pytest.raises(BadRelation):
            build_context_set([p, q, complement(p, "Pp")], [["P", "Pp"]],
                              [AdditivityRelation(("P", "Q"), "I")])

    def test_bad_context(self):
        p = Effect(pauli_op(0, 0, 1), "P")
        q = Effect(pauli_op(1, 0, 0), "Q")
        with pytest.raises(BadContext):
            build_context_set([p, q], [["P", "Q"]])

    def test_empty_context(self):
        p = Effect(pauli_op(0, 0, 1), "P")
        with pytest.raises(BadContext,
                           match=r"^context #0 \[\]: a POVM needs at least one "
                                 r"effect$"):
            build_context_set([p], [[]])

    def test_unknown_label(self):
        p = Effect(pauli_op(0, 0, 1), "P")
        with pytest.raises(UnknownLabel):
            build_context_set([p], [["P", "missing"]])

    def test_contexts_fail_in_order_across_sizes_and_dims(self):
        # contexts of two sizes are checked one at a time; the first failing
        # context in input order is the one named, and an unknown label
        # waits for the contexts before it
        p = Effect(pauli_op(0, 0, 1), "P")
        q = Effect(pauli_op(1, 0, 0), "Q")
        third = Effect(HermitianOperator(np.eye(2) / 3), "t")
        pool = [p, complement(p, "Pp"), q, complement(q, "Qp"), third]
        ok = [["P", "Pp"], ["t", "t", "t"], ["Q", "Qp"]]
        with pytest.raises(BadContext, match=r"^context #3 \['P', 'Q'\]: "
                                             r"POVM: sum_to_identity fails"):
            build_context_set(pool, ok + [["P", "Q"], ["t", "t"], ["nope"]])
        with pytest.raises(BadContext, match=r"^context #3 \['t', 't'\]: "):
            build_context_set(pool, ok + [["t", "t"], ["P", "Q"]])
        with pytest.raises(BadContext, match=r"^context #3 \[\]: "):
            build_context_set(pool, ok + [[], ["nope"]])
        with pytest.raises(UnknownLabel, match="'nope'"):
            build_context_set(pool, ok + [["nope"], ["P", "Q"]])
        # a pool of two dimensions is refused before any context is read
        wide = Effect(HermitianOperator(np.eye(3) / 3), "w")
        with pytest.raises(DimMismatch,
                           match=r"^effect 'w' has dim 3, pool has dim 2$"):
            build_context_set(pool + [wide], [["P", "Q"], ["w", "w", "w"]])

    def test_empty_addends_rejected(self):
        p = Effect(pauli_op(0, 0, 1), "P")
        with pytest.raises(ValueError, match="at least one addend"):
            build_context_set([p, complement(p, "Pp")], [["P", "Pp"]],
                              [AdditivityRelation((), "I")])

    def test_fractional_mixture_is_not_expressible(self):
        # the discrete model only carries integer label sums; the relation
        # underlying the mixture witness (coefficients 1/2) fails the
        # operator identity check and belongs to witness_2d instead
        w = witness_2d(zhat(), xhat(), 0.5)
        effects = [w.P, w.Q, w.E, w.R, w.Rprime, complement(w.E, "Ec")]
        cs = build_context_set(effects, [["E", "Ec"]])
        assert cs.contexts == (
            AdditivityRelation(("E", "Ec"), "I", "context"),)
        with pytest.raises(BadRelation):
            build_context_set(effects, [["E", "Ec"]],
                              [AdditivityRelation(("P", "Q"), "E")])

    def test_discovery_finds_pair_and_triple_identities(self):
        p = Effect(pauli_op(0, 0, 1), "P")
        pp = complement(p, "Pp")
        third = Effect(HermitianOperator.identity(2) * (1 / 3), "t")
        pool = {"P": p, "Pp": pp, "t": third}
        found = discover_sum_relations(pool)
        keys = {(tuple(sorted(r.labels)), r.target) for r in found}
        assert (("P", "Pp"), "I") in keys
        assert (("t", "t", "t"), "I") in keys

    def test_discovery_finds_effect_targets(self):
        a = Effect(0.3 * pauli_op(0, 0, 0.5), "a")
        b = Effect(0.2 * pauli_op(0.4, 0, 0), "b")
        c = Effect(a.op + b.op, "c")
        found = discover_sum_relations({"a": a, "b": b, "c": c})
        keys = {(tuple(sorted(r.labels)), r.target) for r in found}
        assert (("a", "b"), "c") in keys

    def test_relation_over_two_dimensions_is_a_dim_mismatch(self):
        # the pool's dimension is checked before any relation
        a, b, c = mixed_dimension_effects()
        for rel in (AdditivityRelation(("A", "B"), "C"),
                    AdditivityRelation(("A", "C"), "I")):
            with pytest.raises(DimMismatch, match=r"^effect 'C' has dim 3, "
                                                  r"pool has dim 2$"):
                build_context_set([a, b, c], [], [rel])

    def test_discovery_takes_a_pool_of_one_dimension(self):
        a, b, c = mixed_dimension_effects()
        c_rest = Effect(HermitianOperator(np.diag([0.0, 1.0, 1.0])), "Cc")
        assert discover_sum_relations({"A": a, "B": b}) == [
            AdditivityRelation(("A", "B"), "I")]
        assert discover_sum_relations({"C": c, "Cc": c_rest}) == [
            AdditivityRelation(("C", "Cc"), "I")]
        assert discover_sum_relations({}) == []
        mixed = {"A": a, "B": b, "C": c, "Cc": c_rest}
        with pytest.raises(DimMismatch, match=r"^effect 'C' has dim 3, "
                                              r"pool has dim 2$"):
            discover_sum_relations(mixed)
        with pytest.raises(DimMismatch, match=r"^effect 'C' has dim 3, "):
            build_context_set(mixed.values(), [], [], discover=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_discovery_returns_what_the_relation_check_accepts(self, seed):
        rng = rng_from_seed(seed)
        dim = 2 + seed % 3
        for factor in (0.5, 2.0):
            pool = planted_identity_pool(rng, dim, factor)
            labels = list(pool)
            candidates = [AdditivityRelation(pair, target)
                          for pair in itertools.combinations_with_replacement(
                              labels, 2)
                          for target in ["I"] + labels if target not in pair]
            candidates += [AdditivityRelation(triple, "I") for triple in
                           itertools.combinations_with_replacement(labels, 3)]
            accepted = [rel for rel in candidates
                        if accepts(rel, pool.__getitem__)]
            assert discover_sum_relations(pool) == accepted
            planted = {AdditivityRelation(("a", "ac"), "I"),
                       AdditivityRelation(("b", "c"), "bc"),
                       AdditivityRelation(("e", "f", "g"), "I")}
            assert (planted <= set(accepted)) is (factor < 1), factor

    def test_the_reader_loads_the_effects_before_it_reads_the_contexts(self):
        asked = []

        def failing_loader(name):
            asked.append(name)
            raise UnknownLabel("the loader failed")

        with pytest.raises(UnknownLabel, match="the loader failed"):
            context_set_from_json({"effects_file": "../sub dir/e.json",
                                   "contexts": "not a list"}, failing_loader)
        assert asked == ["../sub dir/e.json"]
        p = Effect(pauli_op(0, 0, 1), "A")
        with pytest.raises(SchemaError, match="contexts: expected"):
            context_set_from_json({"effects_file": "e.json",
                                   "contexts": "not a list"},
                                  lambda name: [p, complement(p, "B")])


class TestSearch:
    def test_half_identity_is_unsat(self):
        cs = half_identity_context_set()
        result = search_dispersion_free(cs)
        assert result.status == "unsat"
        assert len(result.unsat_core) == 1
        assert result.unsat_core[0].kind == "context"
        assert verify_certificate(result, cs)

    def test_projective_pairs_have_four_models(self):
        cs = projective_pair_context_set()
        result = search_dispersion_free(cs)
        assert result.status == "sat"
        assert result.total_solutions == 4
        assert len(result.assignments) == 4
        assert verify_certificate(result, cs)
        # independence: each context contributes exactly one 1
        for assignment in result.assignments:
            assert assignment["P"] + assignment["Pp"] == 1
            assert assignment["Q"] + assignment["Qp"] == 1

    def test_budget_exhaustion_is_unknown(self):
        cs = projective_pair_context_set()
        result = search_dispersion_free(cs, node_budget=1)
        assert result.status == "unknown"
        assert result.total_solutions is None
        assert verify_certificate(result, cs)

    @pytest.mark.parametrize("bounds", [{"max_solutions": 0},
                                        {"node_budget": 0},
                                        {"node_budget": -5}])
    def test_bounds_below_one_are_rejected(self, bounds):
        with pytest.raises(ValueError, match="at least 1"):
            search_dispersion_free(projective_pair_context_set(), **bounds)

    def test_max_solutions_caps_storage_not_count(self):
        cs = projective_pair_context_set()
        result = search_dispersion_free(cs, max_solutions=2)
        assert result.status == "sat"
        assert len(result.assignments) == 2
        assert result.total_solutions == 4

    def test_empty_context_set_is_vacuously_sat(self):
        cs = build_context_set([], [])
        result = search_dispersion_free(cs)
        assert result.status == "sat"
        assert result.assignments == [{}]
        assert verify_certificate(result, cs)

    def test_three_haar_bases_pin_the_search(self):
        # 4^3 models; with 0 tried before 1 the tree has 2 * 64 - 1 nodes
        cs = haar_bases_context_set(rng_from_seed(7), bases=3)
        result = search_dispersion_free(cs)
        assert result.status == "sat"
        assert result.nodes_explored == 127
        assert result.total_solutions == 64
        assert len(result.assignments) == 64
        assert verify_certificate(result, cs)

    def test_forced_variables_are_not_nodes(self):
        # the one-label context [I] sets v(I) = 1 before any branch; the
        # tree is the root, then P (2 nodes), then Q (4 nodes)
        p = Effect(pauli_op(0, 0, 1), "P")
        q = Effect(pauli_op(1, 0, 0), "Q")
        cs = build_context_set(
            [Effect(HermitianOperator.identity(2), "I"), p, complement(p, "Pp"),
             q, complement(q, "Qp")],
            [["I"], ["P", "Pp"], ["Q", "Qp"]])
        result = search_dispersion_free(cs)
        assert result.status == "sat"
        assert result.nodes_explored == 7
        assert result.total_solutions == 4
        assert all(a["I"] == 1 for a in result.assignments)

    def test_stored_assignments_are_the_first_models_in_order(self):
        rng = rng_from_seed(504)
        checked = 0
        for trial in range(40):
            cs = random_context_set(rng, max_effects=12)
            order = variables_of(cs.constraints())
            models = sorted(tuple(s[lb] for lb in order)
                            for s in brute_force_solutions(cs))
            for cap in (1, 3):
                result = search_dispersion_free(cs, max_solutions=cap)
                got = [tuple(a[lb] for lb in order) for a in result.assignments]
                assert all(list(a) == order for a in result.assignments)
                assert got == models[:cap], f"trial {trial}, cap {cap}"
                assert result.total_solutions == len(models)
            checked += bool(models)
        assert checked >= 20

    def test_exhaustive_against_brute_force(self):
        rng = rng_from_seed(500)
        for trial in range(30):
            cs = random_context_set(rng, max_effects=10)
            expected = brute_force_solutions(cs)
            result = search_dispersion_free(cs, max_solutions=4096)
            if expected:
                assert result.status == "sat", f"trial {trial}"
                got = {frozenset(a.items()) for a in result.assignments}
                want = {frozenset(s.items()) for s in expected}
                assert got == want, f"trial {trial}"
                assert result.total_solutions == len(expected)
            else:
                assert result.status == "unsat", f"trial {trial}"
            assert verify_certificate(result, cs)

    def test_unsat_cores_are_minimal(self):
        rng = rng_from_seed(501)
        seen_unsat = 0
        for _ in range(60):
            cs = random_context_set(rng, max_effects=10)
            result = search_dispersion_free(cs, max_solutions=4096)
            if result.status != "unsat":
                continue
            seen_unsat += 1
            core = result.unsat_core
            # dropping any single member of the core makes it satisfiable
            for k in range(len(core)):
                rest = [c for i, c in enumerate(core) if i != k]
                sub = constraint_subset_as_context_set(cs, rest)
                assert brute_force_solutions(sub), "core not minimal"
        assert seen_unsat >= 3

    def test_monotone_adding_relations_never_creates_sat(self):
        rng = rng_from_seed(502)
        checked = 0
        for _ in range(40):
            cs = random_context_set(rng, max_effects=9)
            base = search_dispersion_free(cs, max_solutions=4096)
            if base.status != "unsat":
                continue
            labels = list(cs.effects)
            extra_label = labels[int(rng.integers(len(labels)))]
            harder = build_context_set(
                cs.effects.values(), [ctx.labels for ctx in cs.contexts],
                list(cs.sum_relations)
                + [AdditivityRelation((extra_label,), extra_label)])
            result = search_dispersion_free(harder, max_solutions=4096)
            assert result.status == "unsat"
            checked += 1
        assert checked >= 2

    def test_born_values_satisfy_all_constraints_in_reals(self):
        rng = rng_from_seed(503)
        for _ in range(20):
            cs = random_context_set(rng, max_effects=10)
            dim = next(iter(cs.effects.values())).dim
            rho = random_density(dim, rng)
            v = born_functional(rho)
            for ctx in cs.contexts:
                total = sum(v(cs.effects[lb].op) for lb in ctx.labels)
                assert abs(total - 1.0) <= 1e-8
            for rel in cs.sum_relations:
                lhs = sum(v(cs.effects[lb].op) for lb in rel.labels)
                rhs = 1.0 if rel.target == "I" else v(cs.effects[rel.target].op)
                assert abs(lhs - rhs) <= 1e-8


class TestVerifyCertificate:
    def test_flipped_assignment_fails(self):
        cs = projective_pair_context_set()
        result = search_dispersion_free(cs)
        tampered = [dict(a) for a in result.assignments]
        tampered[0]["P"] = 1 - tampered[0]["P"]
        bad = SearchResult(status="sat", assignments=tampered,
                           total_solutions=result.total_solutions,
                           unsat_core=[], nodes_explored=result.nodes_explored)
        assert not verify_certificate(bad, cs)

    def test_foreign_core_fails(self):
        cs = half_identity_context_set()
        result = search_dispersion_free(cs)
        bad = SearchResult(status="unsat", assignments=[], total_solutions=0,
                           unsat_core=[AdditivityRelation(("I",), "I",
                                                          "context")],
                           nodes_explored=1)
        assert not verify_certificate(bad, cs)

    def test_satisfiable_core_fails(self):
        cs = projective_pair_context_set()
        bad = SearchResult(status="unsat", assignments=[], total_solutions=0,
                           unsat_core=[AdditivityRelation(("P", "Pp"), "I",
                                                          "context")],
                           nodes_explored=1)
        assert not verify_certificate(bad, cs)

    def test_unknown_verifies_vacuously(self):
        cs = half_identity_context_set()
        result = SearchResult(status="unknown", assignments=[],
                              total_solutions=None, unsat_core=[],
                              nodes_explored=0)
        assert verify_certificate(result, cs)

    def test_non_binary_value_fails(self):
        cs = projective_pair_context_set()
        bad = SearchResult(
            status="sat",
            assignments=[{"P": 2, "Pp": -1, "Q": 1, "Qp": 0}],
            total_solutions=1, unsat_core=[], nodes_explored=1)
        assert not verify_certificate(bad, cs)

    def test_missing_label_fails_with_reason(self):
        cs = projective_pair_context_set()
        bad = SearchResult(status="sat", assignments=[{"P": 1, "Pp": 0, "Q": 1}],
                           total_solutions=1, unsat_core=[], nodes_explored=1)
        verdict = verify_certificate(bad, cs)
        assert not verdict
        assert verdict.reason == "assignment #0 has no value for 'Qp'"

    def test_a_label_that_nets_to_zero_still_needs_a_value(self):
        # in A + Z = A the coefficient of A nets to 0, yet A is a label of
        # the relation and an assignment must give it a value
        cs = build_context_set(
            [Effect(pauli_op(0, 0, 1), "A"),
             Effect(HermitianOperator(np.zeros((2, 2))), "Z")],
            [], [AdditivityRelation(("A", "Z"), "A")])
        result = search_dispersion_free(cs)
        assert result.status == "sat"
        assert all(set(a) == {"A", "Z"} for a in result.assignments)
        assert verify_certificate(result, cs)
        bad = SearchResult(status="sat", assignments=[{"Z": 0}],
                           total_solutions=1, unsat_core=[], nodes_explored=1)
        verdict = verify_certificate(bad, cs)
        assert not verdict
        assert verdict.reason == "assignment #0 has no value for 'A'"

    def test_non_binary_value_reason_keeps_its_short_text(self):
        cs = projective_pair_context_set()
        bad = SearchResult(
            status="sat", assignments=[{"P": 2, "Pp": -1, "Q": 1, "Qp": 0}],
            total_solutions=1, unsat_core=[], nodes_explored=1)
        assert verify_certificate(bad, cs).reason == \
            "assignment #0 gives v(P) = 2, not 0 or 1"

    @pytest.mark.parametrize("label, value", [("x" * 5000, 2),
                                              ("P", 10 ** 1000),
                                              ("P", "y" * 5000)],
                             ids=["long label", "long int", "long string"])
    def test_non_binary_value_reason_is_short(self, label, value):
        cs = projective_pair_context_set()
        bad = SearchResult(status="sat", assignments=[{label: value}],
                           total_solutions=1, unsat_core=[], nodes_explored=1)
        reason = verify_certificate(bad, cs).reason
        assert reason.startswith("assignment #0 gives v(")
        assert reason.endswith(", not 0 or 1")
        assert len(reason.encode()) < 200

    def test_foreign_core_reason_describes_the_entry(self):
        cs = half_identity_context_set()
        bad = SearchResult(status="unsat", assignments=[], total_solutions=0,
                           unsat_core=[AdditivityRelation(("I",), "I",
                                                          "context")],
                           nodes_explored=1)
        assert verify_certificate(bad, cs).reason == (
            "core entry #0 (context: v(I) = 1) is not a constraint of the "
            "context set")

    @pytest.mark.parametrize("entry", [
        AdditivityRelation(tuple(f"L{i}" for i in range(5000)), "I",
                           "context"),
        [f"L{i}" for i in range(5000)]], ids=["constraint", "list"])
    def test_foreign_core_reason_is_short(self, entry):
        cs = half_identity_context_set()
        bad = SearchResult(status="unsat", assignments=[], total_solutions=0,
                           unsat_core=[entry], nodes_explored=1)
        reason = verify_certificate(bad, cs).reason
        assert reason.startswith("core entry #0 (")
        assert reason.endswith(") is not a constraint of the context set")
        assert len(reason.encode()) < 200

    def test_sat_without_assignments_fails_with_reason(self):
        cs = projective_pair_context_set()
        bad = SearchResult(status="sat", assignments=[], total_solutions=4,
                           unsat_core=[], nodes_explored=1)
        verdict = verify_certificate(bad, cs)
        assert not verdict
        assert verdict.reason == "sat result stores no assignment"

    def test_unknown_status_string_fails(self):
        cs = projective_pair_context_set()
        bad = SearchResult(status="maybe", assignments=[], total_solutions=None,
                           unsat_core=[], nodes_explored=0)
        assert not verify_certificate(bad, cs)


def _break_context(b):
    """Set a 0 of context b to 1, so its sum is 2."""
    def change(a):
        a[next(f"b{b}_{k}" for k in range(4) if a[f"b{b}_{k}"] == 0)] = 1
    return change


def _set(label, value):
    return lambda a: a.__setitem__(label, value)


def _drop(label):
    return lambda a: a.pop(label)


def _both(*changes):
    return lambda a: [change(a) for change in changes]


class TestSatRecheckReasons:
    """The SAT re-check of a result with 64 stored assignments, of 8
    Haar-random bases in d = 4, names the first failing assignment and,
    within it, a value outside {0, 1} before any equation, and the
    equations in constraint order."""

    @pytest.fixture(scope="class")
    def sat(self):
        cs = haar_bases_context_set(rng_from_seed(4242), 8)
        result = search_dispersion_free(cs)
        assert result.status == "sat" and len(result.assignments) == 64
        assert verify_certificate(result, cs)
        return cs, result

    @pytest.mark.parametrize("changes, reason", [
        ({31: _set("b5_1", 2)}, "assignment #31 gives v(b5_1) = 2, not 0 or 1"),
        ({31: _drop("b5_1")}, "assignment #31 has no value for 'b5_1'"),
        ({31: _break_context(5)},
         "assignment #31 breaks context: v(b5_0) + v(b5_1) + v(b5_2) + "
         "v(b5_3) = 1"),
        ({31: _both(_drop("b2_0"), _set("b6_0", 2))},
         "assignment #31 gives v(b6_0) = 2, not 0 or 1"),
        ({31: _both(_drop("b6_0"), _break_context(2))},
         "assignment #31 breaks context: v(b2_0) + v(b2_1) + v(b2_2) + "
         "v(b2_3) = 1"),
        ({31: _break_context(7), 40: _set("b0_0", 2)},
         "assignment #31 breaks context: v(b7_0) + v(b7_1) + v(b7_2) + "
         "v(b7_3) = 1"),
        ({31: _set("b0_0", "1"), 40: _drop("b0_0")},
         "assignment #31 gives v(b0_0) = '1', not 0 or 1"),
        ({31: _set("b5_1", [1])},
         "assignment #31 gives v(b5_1) = [1], not 0 or 1"),
        ({31: _set("b5_1", 0.5)},
         "assignment #31 gives v(b5_1) = 0.5, not 0 or 1"),
    ], ids=["value 2", "missing label", "broken context",
            "value before missing", "constraint order",
            "assignment order", "string value", "unhashable value",
            "half value"])
    def test_the_first_failure_is_named(self, sat, changes, reason):
        cs, result = sat
        assignments = [dict(a) for a in result.assignments]
        for i, change in changes.items():
            change(assignments[i])
        bad = SearchResult(status="sat", assignments=assignments,
                           total_solutions=result.total_solutions,
                           unsat_core=[], nodes_explored=result.nodes_explored)
        assert verify_certificate(bad, cs).reason == reason

    @pytest.mark.parametrize("value", [True, 1.0, np.int64(1),
                                       np.bool_(False)],
                             ids=["True", "1.0", "int64 1", "bool_ False"])
    def test_a_value_equal_to_0_or_1_counts_as_that_integer(self, sat,
                                                             value):
        cs, result = sat
        assignments = [{lb: value if v == value else v for lb, v in a.items()}
                       for a in result.assignments]
        assert sum(v is value for a in assignments for v in a.values())
        same = SearchResult(status="sat", assignments=assignments,
                            total_solutions=result.total_solutions,
                            unsat_core=[], nodes_explored=result.nodes_explored)
        assert verify_certificate(same, cs)


class TestConstraintRow:
    """``AdditivityRelation.row()`` is what a constraint means as an integer
    equation, for the search and the re-check alike; it must agree with
    the constraint's sum evaluated directly."""

    CASES = [
        (AdditivityRelation(("A", "B", "A"), "I", "context"),
         {"A": 2, "B": 1}, 1),
        (AdditivityRelation(("A", "B"), "I"), {"A": 1, "B": 1}, 1),
        (AdditivityRelation(("A", "B"), "C"), {"A": 1, "B": 1, "C": -1}, 0),
        (AdditivityRelation(("A", "Z"), "A"), {"A": 0, "Z": 1}, 0),
        (AdditivityRelation(("Z", "A", "Z"), "Z"), {"Z": 1, "A": 1}, 0),
        (AdditivityRelation(("A", "B"), "I", "context"), {"A": 1, "B": 1}, 1),
    ]

    @staticmethod
    def direct(desc, values):
        total = sum(values[lb] for lb in desc.labels)
        if desc.kind == "context" or desc.target == "I":
            return total == 1
        return total == values[desc.target]

    @pytest.mark.parametrize("desc, coeffs, rhs", CASES)
    def test_row_is_the_netted_equation(self, desc, coeffs, rhs):
        got, got_rhs = desc.row()
        assert got == coeffs
        assert list(got) == list(coeffs)  # first occurrence, target last
        assert got_rhs == rhs

    @pytest.mark.parametrize("desc", [case[0] for case in CASES])
    def test_row_agrees_with_the_direct_sum(self, desc):
        coeffs, rhs = desc.row()
        labels = set(desc.labels) | ({desc.target} - {"I"})
        assert set(coeffs) == labels
        for bits in itertools.product((0, 1), repeat=len(coeffs)):
            values = dict(zip(coeffs, bits))
            assert ((sum(c * values[lb] for lb, c in coeffs.items()) == rhs)
                    == self.direct(desc, values)), values

    def test_a_context_and_its_relation_to_i_share_only_the_row(self):
        context, relation = self.CASES[5][0], self.CASES[1][0]
        assert context.row() == relation.row()
        assert context != relation
        assert context.describe() == "context: v(A) + v(B) = 1"
        assert relation.describe() == "relation: v(A) + v(B) = 1"
        assert context.to_json_dict() == {"kind": "context",
                                          "labels": ["A", "B"]}
        assert relation.to_json_dict() == {"kind": "relation",
                                           "addends": ["A", "B"],
                                           "target": "I"}
        p = Effect(pauli_op(0, 0, 1), "A")
        cs = context_set_from_json(
            {"effects_file": "e.json", "contexts": [["A", "B"]],
             "relations": [{"addends": ["A", "B"], "target": "I"}]},
            lambda name: [p, complement(p, "B")])
        assert cs.constraints() == [context, relation]

    def test_a_kind_other_than_context_or_relation_is_rejected(self):
        with pytest.raises(ValueError, match="^kind must be 'context' or "
                           "'relation', got 'cntxt'$"):
            AdditivityRelation(("A", "B"), "I", "cntxt")

    def test_a_context_with_a_target_other_than_i_is_rejected(self):
        with pytest.raises(ValueError,
                           match="^a context sums to 'I', not 'C'$"):
            AdditivityRelation(("A", "B"), "C", "context")

    def test_a_long_constraint_describes_itself_in_one_short_line(self):
        assert (AdditivityRelation(("H", "H"), "I", "context").describe()
                == "context: v(H) + v(H) = 1")
        assert (AdditivityRelation(("A", "B"), "C").describe()
                == "relation: v(A) + v(B) = v(C)")
        context = AdditivityRelation(("H",) * 5000, "I", "context").describe()
        relation = AdditivityRelation(("H",) * 5000, "x" * 10_000).describe()
        assert context == ("context: " + "v(H) + " * 8 + "... (4992 more) = 1")
        assert relation.startswith("relation: v(H) + ")
        assert len(context) < 200 and len(relation) < 200
