"""Valuations: Born functional, axiom checks, and the extension pipeline."""

import numpy as np
import pytest

from effectkit import (
    AdditivityRelation,
    BadRelation,
    DensityOperator,
    DimMismatch,
    DuplicateOperatorWarning,
    Effect,
    HermitianOperator,
    NotPositive,
    Povm,
    TraceNotOne,
    UnknownLabel,
    ValuationTable,
    born,
    born_functional,
    build_context_set,
    check_gpm,
    complement,
    eigenvalues_of,
    extend_to_positive,
    extend_to_selfadjoint,
    jordan_split,
    random_density,
    random_effect,
    random_povm,
    random_psd,
    rng_from_seed,
)
from effectkit.valuation import TableEntry, povm_relation

from conftest import SZ, pauli_op


def state(*diag) -> DensityOperator:
    return DensityOperator(HermitianOperator(np.diag(diag).astype(complex)))


def half_identity(d=2) -> DensityOperator:
    return DensityOperator(HermitianOperator.identity(d) * (1.0 / d))


def all_ok(checks) -> bool:
    """Every check of a :func:`check_gpm` report holds."""
    return all(c["ok"] for c in checks)


def violations(checks) -> list[tuple[str, dict]]:
    """(check name, violation) for every violation of a report, in order."""
    return [(c["name"], v) for c in checks for v in c.get("violations", ())]


class TestDensityOperator:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositive):
            state(1.5, -0.5)

    def test_rejects_bad_trace(self):
        with pytest.raises(TraceNotOne):
            state(0.6, 0.6)


class TestBorn:
    def test_eigenstate(self):
        rho = state(1.0, 0.0)
        e = Effect(HermitianOperator(np.diag([1.0, 0.0])), "P")
        assert born(rho, e) == 1.0

    def test_maximally_mixed_gives_half_trace(self):
        assert born(half_identity(), Effect(pauli_op(1, 0, 0), "E")) == \
            pytest.approx(0.5, abs=1e-15)

    def test_explicit_trace(self):
        # tr[diag(1,0) * (I+sx)/2] = 1/2 by direct 2x2 arithmetic
        assert born(state(1.0, 0.0), Effect(pauli_op(1, 0, 0), "E")) == \
            pytest.approx(0.5, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            born(half_identity(2), Effect(HermitianOperator.identity(3) * 0.5, "E"))


class TestCheckGpm:
    def test_born_over_random_povm_passes(self):
        rng = rng_from_seed(3)
        rho = random_density(3, rng)
        povm = random_povm(3, 3, rng)
        table = ValuationTable.from_born(rho, povm.effects)
        rel = AdditivityRelation(povm.labels, "I")
        checks = check_gpm(table, [rel])
        assert all_ok(checks) and not violations(checks)
        assert [c["name"] for c in checks] == ["p1_range", "p3_additivity"]

    def _half_table(self, half_value: float) -> ValuationTable:
        half = Effect(0.5 * HermitianOperator.identity(2), "H")
        eye = Effect(HermitianOperator.identity(2), "I")
        return ValuationTable(2, [TableEntry(half, half_value),
                                  TableEntry(eye, 1.0)])

    def test_additivity_violation_has_unit_residual(self):
        checks = check_gpm(self._half_table(0.0),
                           [AdditivityRelation(("H", "H"), "I")])
        [(name, violation)] = violations(checks)
        assert name == "p3_additivity"
        assert violation["deviation"] == pytest.approx(1.0)

    def test_additive_assignment_passes(self):
        checks = check_gpm(self._half_table(0.5),
                           [AdditivityRelation(("H", "H"), "I")])
        assert all_ok(checks)

    def test_p1_range_flagged(self):
        half = Effect(0.5 * HermitianOperator.identity(2), "H")
        table = ValuationTable(2, [TableEntry(half, 1.3)])
        assert check_gpm(table, []) == [
            {"name": "p1_range", "ok": False, "out_of_range": ["H"]}]

    def test_p2_checked_when_identity_present(self):
        half = Effect(0.5 * HermitianOperator.identity(2), "H")
        eye = Effect(HermitianOperator.identity(2), "I")
        table = ValuationTable(2, [TableEntry(half, 0.45),
                                   TableEntry(eye, 0.9)])
        assert violations(check_gpm(table, [])) == [
            ("p2_identity", {"relation": "P2: v(I) = 1", "lhs": 0.9,
                             "rhs": 1.0, "deviation": pytest.approx(0.1)})]

    def test_relation_whose_identity_fails_raises(self):
        # I + I = 2I, not I: the relation asserts nothing about the values.
        with pytest.raises(BadRelation, match=r"claimed identity I \+ I = I"):
            check_gpm(self._half_table(0.5),
                      [AdditivityRelation(("I", "I"), "I")])

    def test_relation_below_identity_raises_as_build_context_set_does(self):
        # A + B = diag(.75, .25) < I: the identity is checked, not just an
        # upper bound, and by the same test as a context set's relations.
        a = Effect(HermitianOperator(np.diag([0.5, 0.0])), "A")
        b = Effect(0.25 * HermitianOperator.identity(2), "B")
        table = ValuationTable(2, [TableEntry(a, 0.5), TableEntry(b, 0.5)])
        rel = AdditivityRelation(("A", "B"), "I")
        with pytest.raises(BadRelation) as from_gpm:
            check_gpm(table, [rel])
        with pytest.raises(BadRelation) as from_contexts:
            build_context_set([a, b], [], [rel])
        assert str(from_gpm.value) == str(from_contexts.value) == (
            "claimed identity A + B = I fails: Frobenius deviation "
            "7.906e-01 > 2e-08")

    def test_p2_checked_on_every_identity_label_only(self):
        eye = HermitianOperator.identity(3)
        corner = HermitianOperator(np.diag([1.0, 0.0, 0.0]))

        def failures(i1_value):
            with pytest.warns(DuplicateOperatorWarning):
                table = ValuationTable(3, [
                    TableEntry(Effect(eye, "I1"), i1_value),
                    TableEntry(Effect(0.5 * eye, "H"), 0.2),
                    TableEntry(Effect(eye + 1e-11 * corner, "I2"), 0.9),
                    TableEntry(Effect(eye - 1e-9 * corner, "near"), 0.3)])
            return [(name, v["relation"], v["lhs"])
                    for name, v in violations(check_gpm(table, []))]

        # I1 and I2 are I within TOL.same_operator, near is not: I1 at 0.95
        # adds its violation, and near at 0.3 never has one.
        assert failures(1.0) == [("p2_identity", "P2: v(I2) = 1", 0.9)]
        assert failures(0.95) == [("p2_identity", "P2: v(I1) = 1", 0.95),
                                  ("p2_identity", "P2: v(I2) = 1", 0.9)]

    def test_target_identity_has_value_one(self):
        half = Effect(0.5 * HermitianOperator.identity(2), "H")
        eye = Effect(HermitianOperator.identity(2), "I")
        table = ValuationTable(2, [TableEntry(half, 0.45),
                                   TableEntry(eye, 0.9)])
        checks = check_gpm(table, [AdditivityRelation(("H", "H"), "I")])
        assert [(name, v["lhs"], v["rhs"])
                for name, v in violations(checks)] == [
            ("p2_identity", 0.9, 1.0), ("p3_additivity", 0.9, 1.0)]
        assert checks[0] == {"name": "p1_range", "ok": True,
                             "out_of_range": []}

    def test_unknown_label_raises(self):
        with pytest.raises(UnknownLabel):
            check_gpm(self._half_table(0.5),
                      [AdditivityRelation(("missing",), "I")])

    def test_empty_addends_rejected(self):
        with pytest.raises(ValueError, match="at least one addend"):
            check_gpm(self._half_table(0.5), [AdditivityRelation((), "I")])

    @pytest.mark.parametrize("dim, message", [
        (-3, "matrix dimension must be at least 1"),
        (0, "matrix dimension must be at least 1"),
        (10**9, "dimension 1000000000 exceeds MAX_DIM=64")])
    def test_a_bad_table_dim_is_rejected_before_any_allocation(
            self, monkeypatch, dim, message):
        def no_eye(*args, **kwargs):
            raise AssertionError("np.eye called on an unchecked dim")
        monkeypatch.setattr(np, "eye", no_eye)
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_gpm(ValuationTable(dim, []), [])

    def test_subset_relations_of_random_povms(self):
        rng = rng_from_seed(12)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            povm = random_povm(d, 4, rng)
            entries = [TableEntry(e, born(rho, e)) for e in povm.effects]
            relations = [AdditivityRelation(povm.labels, "I")]
            # label each pair sum as its own effect; v must be additive on it
            for i in range(2):
                pair = (povm.labels[i], povm.labels[i + 1])
                g = Effect(povm.effects[i].op + povm.effects[i + 1].op, f"g{i}")
                entries.append(TableEntry(g, born(rho, g)))
                relations.append(AdditivityRelation(pair, f"g{i}"))
            table = ValuationTable(d, entries)
            checks = check_gpm(table, relations)
            assert all_ok(checks), violations(checks)


class TestCheckEffectValuation:
    """The POVM form of the axioms, the check ``validate`` calls
    ``effect_valuation``: :func:`check_gpm` with "the POVM's labels = I"."""

    @staticmethod
    def check(table, povm):
        return check_gpm(table, [AdditivityRelation(povm.labels, "I")])

    def test_born_values_pass(self):
        rng = rng_from_seed(9)
        rho = random_density(2, rng)
        povm = random_povm(2, 3, rng)
        table = ValuationTable.from_born(rho, povm.effects)
        assert all_ok(self.check(table, povm))

    def test_double_one_assignment_fails(self):
        e = Effect(pauli_op(0, 0, 1), "E")
        f = complement(e, "F")
        povm = Povm((e, f))
        table = ValuationTable(2, [TableEntry(e, 1.0), TableEntry(f, 1.0)])
        [(name, violation)] = violations(self.check(table, povm))
        assert name == "p3_additivity"
        assert violation["lhs"] == pytest.approx(2.0)
        assert violation["relation"] == "E + F = I"

    def test_eigenstate_on_z_povm(self):
        rho = state(1.0, 0.0)
        up, down = Effect(pauli_op(0, 0, 1), "up"), Effect(pauli_op(0, 0, -1), "down")
        povm = Povm((up, down))
        table = ValuationTable.from_born(rho, povm.effects)
        # explicit traces: tr[diag(1,0)(I+sz)/2] = 1, tr[diag(1,0)(I-sz)/2] = 0
        assert table.value("up") == pytest.approx(1.0, abs=1e-15)
        assert table.value("down") == pytest.approx(0.0, abs=1e-15)
        assert all_ok(self.check(table, povm))

    def test_negative_value_flagged(self):
        e = Effect(pauli_op(0, 0, 1), "E")
        f = complement(e, "F")
        povm = Povm((e, f))
        table = ValuationTable(2, [TableEntry(e, 1.2), TableEntry(f, -0.2)])
        assert self.check(table, povm)[0] == {
            "name": "p1_range", "ok": False, "out_of_range": ["E", "F"]}

    def test_povm_relation_needs_the_tables_operators(self):
        a = Effect(HermitianOperator(np.diag([1.0, 0.0])), "A")
        b = Effect(0.25 * HermitianOperator.identity(2), "B")
        table = ValuationTable(2, [TableEntry(a, 0.5), TableEntry(b, 0.5)])
        povm = Povm((a, Effect(HermitianOperator(np.diag([0.0, 1.0])), "B")))
        with pytest.raises(BadRelation, match=r"POVM effect 'B' .* "
                                              r"Frobenius deviation 7\.906e-01"):
            povm_relation(table, povm)
        matching = Povm((a, complement(a, "B")))
        table = ValuationTable(2, [TableEntry(a, 0.5),
                                   TableEntry(matching.effects[1], 0.5)])
        assert povm_relation(table, matching) == AdditivityRelation(
            ("A", "B"), "I")
        wide = Povm((Effect(HermitianOperator(np.diag([1.0, 0.0, 0.0])), "A"),
                     Effect(HermitianOperator(np.diag([0.0, 1.0, 1.0])), "B")))
        with pytest.raises(DimMismatch):
            povm_relation(table, wide)


class TestExtendToPositive:
    def test_scaled_identity(self):
        v = born_functional(half_identity())
        a = 2.0 * (0.5 * HermitianOperator.identity(2))
        assert extend_to_positive(v, a) == pytest.approx(1.0, abs=1e-12)

    def test_above_effect_range(self):
        v = born_functional(state(1.0, 0.0))
        a = HermitianOperator(np.diag([1.5, 0.5]).astype(complex))
        assert extend_to_positive(v, a) == pytest.approx(1.5, abs=1e-12)

    def test_zero_operator(self):
        v = born_functional(half_identity())
        zero = HermitianOperator(np.zeros((2, 2)))
        assert extend_to_positive(v, zero) == 0.0

    def test_rejects_indefinite(self):
        v = born_functional(half_identity())
        with pytest.raises(NotPositive):
            extend_to_positive(v, HermitianOperator(np.diag([-1.0, 0.0])))

    def test_homogeneity(self):
        rng = rng_from_seed(40)
        for _ in range(100):
            rho = random_density(3, rng)
            e = random_effect(3, rng)
            v = born_functional(rho)
            base = born(rho, e)
            for alpha in (0.0, 0.3, 1.0, 1.7, 5.0):
                scaled = alpha * e.op
                assert abs(extend_to_positive(v, scaled) - alpha * base) <= 1e-9

    def test_additivity(self):
        rng = rng_from_seed(41)
        for _ in range(100):
            rho = random_density(3, rng)
            v = born_functional(rho)
            a, b = random_psd(3, rng), random_psd(3, rng)
            lhs = extend_to_positive(v, a + b)
            rhs = extend_to_positive(v, a) + extend_to_positive(v, b)
            assert abs(lhs - rhs) <= 1e-9

    def test_order_preservation(self):
        rng = rng_from_seed(42)
        for _ in range(200):
            rho = random_density(3, rng)
            e = random_effect(3, rng, "e")
            t = float(rng.uniform())
            # f = (1-t) e + t I dominates e and stays an effect
            f = (1 - t) * e.op + t * HermitianOperator.identity(3)
            assert born(rho, e) <= born(rho, Effect(f, "f")) + 1e-10


class TestExtendToSelfadjoint:
    def test_sigma_z(self):
        v = born_functional(state(1.0, 0.0))
        c = HermitianOperator(SZ)
        assert extend_to_selfadjoint(v, c) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        v = born_functional(half_identity())
        zero = HermitianOperator(np.zeros((2, 2)))
        assert extend_to_selfadjoint(v, zero) == 0.0

    def test_minus_identity(self):
        rng = rng_from_seed(2)
        v = born_functional(random_density(2, rng))
        c = -1.0 * HermitianOperator.identity(2)
        assert extend_to_selfadjoint(v, c) == pytest.approx(-1.0, abs=1e-12)

    def test_jordan_split_parts_are_positive(self):
        rng = rng_from_seed(55)
        for _ in range(50):
            c = 2.0 * random_psd(3, rng) - random_psd(3, rng)
            pos, neg = jordan_split(c)
            assert eigenvalues_of(pos)[0] >= -1e-12
            assert eigenvalues_of(neg)[0] >= -1e-12
            assert np.linalg.norm((pos - neg).array - c.array) <= 1e-10

    def test_split_independence(self):
        rng = rng_from_seed(56)
        for _ in range(30):
            rho = random_density(3, rng)
            v = born_functional(rho)
            c = 2.0 * random_psd(3, rng) - random_psd(3, rng)
            reference = extend_to_selfadjoint(v, c)
            pos, neg = jordan_split(c)
            for _ in range(10):
                shift = random_psd(3, rng)
                alt = (extend_to_positive(v, pos + shift)
                       - extend_to_positive(v, neg + shift))
                assert abs(alt - reference) <= 1e-9

    def test_one_eigensolve_per_positive_part(self, monkeypatch):
        from effectkit import operators, valuation
        rng = rng_from_seed(58)
        v = born_functional(random_density(3, rng))
        a = random_psd(3, rng)
        c = 2.0 * random_psd(3, rng) - random_psd(3, rng)
        real, calls = operators.eigenvalues_of, []

        def counted(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(operators, "eigenvalues_of", counted)
        monkeypatch.setattr(valuation, "eigenvalues_of", counted)
        extend_to_positive(v, a)
        assert len(calls) == 1
        extend_to_selfadjoint(v, c)
        assert len(calls) == 3

    def test_linearity(self):
        rng = rng_from_seed(57)
        from effectkit import random_hermitian
        for _ in range(50):
            rho = random_density(3, rng)
            v = born_functional(rho)
            x, y = random_hermitian(3, rng), random_hermitian(3, rng)
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            combo = a * x + b * y
            lhs = extend_to_selfadjoint(v, combo)
            rhs = a * extend_to_selfadjoint(v, x) + b * extend_to_selfadjoint(v, y)
            assert abs(lhs - rhs) <= 1e-8


def test_a_table_label_is_used_once():
    entries = [TableEntry(Effect(HermitianOperator.identity(2), "A"), 1.0),
               TableEntry(Effect(pauli_op(0, 0, 1), "A"), 0.5)]
    with pytest.raises(ValueError, match="^duplicate label 'A'$"):
        ValuationTable(2, entries)


def test_table_json_round_trip():
    rng = rng_from_seed(71)
    rho = random_density(2, rng)
    povm = random_povm(2, 3, rng)
    table = ValuationTable.from_born(rho, povm.effects)
    payload = table.to_json_dict()
    by_label = {e.label: e for e in povm.effects}
    again = ValuationTable.from_json_dict(payload, by_label)
    assert again.labels == table.labels
    assert again.values() == table.values()
