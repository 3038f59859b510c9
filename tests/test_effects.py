"""Effect algebra: validation, complements, Bloch maps, spectral splits."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectkit import (
    BlochVector,
    DimMismatch,
    DuplicateOperatorWarning,
    Effect,
    ExceedsIdentity,
    HermitianOperator,
    NotDimTwo,
    NotPositive,
    Povm,
    SumNotIdentity,
    TOL,
    TraceNotOne,
    bloch_to_operator,
    complement,
    effect_checks,
    eigenvalues_of,
    haar_unitary,
    is_projection,
    operator_to_bloch,
    random_effect,
    random_frame,
    random_hermitian,
    rng_from_seed,
    spectral_split,
)
from effectkit import jsonio
from effectkit.effects import (effect_from_json, effects_by_label,
                               effects_from_json_dict, warn_duplicate_operators)

from conftest import char_poly_eigs_2x2, duplicate_messages_by_pairs, pauli_op


def diag_effect(*values, label="E"):
    return Effect(HermitianOperator(np.diag(values).astype(complex)),
                  label)


class TestValidateEffect:
    def test_half_identity(self):
        e = Effect(0.5 * HermitianOperator.identity(2), "E")
        assert e.dim == 2

    def test_exceeds_identity(self):
        op = HermitianOperator(np.diag([1.2, 0.0]).astype(complex))
        with pytest.raises(ExceedsIdentity) as info:
            Effect(op, "E")
        assert str(info.value) == ("effect 'E': below_identity fails: "
                                   "max_eig 1.2 > bound 1.000000001")
        assert effect_checks(op)[2]["max_eig"] == pytest.approx(1.2, abs=1e-12)

    def test_not_positive(self):
        op = HermitianOperator(np.diag([-0.1, 0.5]).astype(complex))
        with pytest.raises(NotPositive) as info:
            Effect(op, "E")
        assert str(info.value) == ("effect 'E': positive fails: "
                                   "min_eig -0.1 < bound -1e-09")
        assert effect_checks(op)[1]["min_eig"] == pytest.approx(-0.1, abs=1e-12)

    def test_tilted_effect(self):
        e = Effect(pauli_op(0.5, 0.0, 0.5), "E")
        lo, hi = char_poly_eigs_2x2(e.op.array)
        assert lo == pytest.approx(0.146447, abs=1e-6)
        assert hi == pytest.approx(0.853553, abs=1e-6)


class TestValidatePovm:
    def test_projective_pair(self):
        p = Povm((diag_effect(1.0, 0.0, label="up"),
                  diag_effect(0.0, 1.0, label="down")))
        assert p.labels == ("up", "down")

    def test_trivial_unsharp(self):
        half = 0.5 * HermitianOperator.identity(2)
        Povm((Effect(half, "a"), Effect(half, "b")))

    def test_single_projection_fails(self):
        with pytest.raises(SumNotIdentity) as info:
            Povm((Effect(pauli_op(0, 0, 1), "P"),))
        residual = re.fullmatch(r"POVM: sum_to_identity fails: residual "
                                r"(\S+) > bound 2e-08", str(info.value))[1]
        assert float(residual) > 0.1

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            Povm((diag_effect(0.5, 0.5),
                  Effect(0.5 * HermitianOperator.identity(3), "f")))

    def test_dim_is_the_effects_dim(self):
        assert Povm((Effect(HermitianOperator.identity(3), "all"),)).dim == 3

    def test_empty_povm_fails(self):
        with pytest.raises(SumNotIdentity,
                           match="^a POVM needs at least one effect$"):
            Povm(())


def _op_json(arr) -> dict:
    arr = np.asarray(arr, dtype=complex)
    return {"dim": arr.shape[0],
            "entries": [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]}


def _effects_file(dim, items) -> dict:
    """An effects file of (label, array) items, or of ready item dicts."""
    return {"dim": dim, "effects": [
        item if isinstance(item, dict) else {"label": item[0],
                                             "op": _op_json(item[1])}
        for item in items]}


def _drifted_effects(rng, dim, count):
    """Effects with spectra in [0.05, 0.95], each plus an anti-Hermitian
    drift of about 1e-13, so their herm_deviation is not 0."""
    out = []
    for _ in range(count):
        u = haar_unitary(dim, rng)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        out.append((u * rng.uniform(0.05, 0.95, dim)) @ u.conj().T
                   + 1e-13 * (g - g.conj().T))
    return out


class TestEffectsFile:
    """An effects file is read as its items one by one would be: the same
    operator bits, and the same first fault in file order."""

    @pytest.mark.parametrize("dim", [1, 2, 4, 16, 64])
    def test_operators_match_one_by_one_construction_bit_for_bit(self, dim):
        arrays = _drifted_effects(rng_from_seed(90 + dim), dim,
                                  3 if dim == 64 else 7)
        payload = jsonio.loads(jsonio.dumps(_effects_file(
            dim, [(f"E{k}", a) for k, a in enumerate(arrays)])))
        effects = effects_from_json_dict(payload)
        assert [e.label for e in effects] == [f"E{k}" for k in range(len(arrays))]
        for e, arr in zip(effects, arrays):
            alone = HermitianOperator(arr)
            assert e.op.array.tobytes() == alone.array.tobytes()
            assert e.op.herm_deviation > 0.0
            assert e.op.herm_deviation == alone.herm_deviation
            assert (eigenvalues_of(e.op).tobytes()
                    == np.linalg.eigvalsh(alone.array).tobytes())

    def test_a_spectral_fault_comes_before_a_later_schema_error(self):
        half = 0.5 * np.eye(2)
        payload = _effects_file(2, [
            ("a", half), ("b", np.diag([-0.1, 0.5])), ("c", half),
            {"label": "d", "op": {"dim": 2}}])
        with pytest.raises(NotPositive, match="effect 'b': positive fails: min_eig"):
            effects_from_json_dict(payload)

    def test_a_non_finite_item_comes_before_a_later_spectral_fault(self):
        nan = _op_json(0.5 * np.eye(2))
        nan["entries"][0] = [float("nan"), 0.0]
        payload = _effects_file(2, [
            ("a", 0.5 * np.eye(2)), {"label": "b", "op": nan},
            ("c", np.diag([1.5, 0.5]))])
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            effects_from_json_dict(payload)

    def test_a_spectral_fault_comes_before_a_later_non_finite_item(self):
        inf = _op_json(0.5 * np.eye(2))
        inf["entries"][1] = [float("inf"), 0.0]
        payload = _effects_file(2, [
            ("a", 0.5 * np.eye(2)), ("b", np.diag([1.5, 0.5])),
            {"label": "c", "op": inf}])
        with pytest.raises(ExceedsIdentity,
                           match="effect 'b': below_identity fails: max_eig"):
            effects_from_json_dict(payload)

    def test_a_valid_item_of_another_dim_is_a_dim_mismatch(self):
        payload = _effects_file(2, [
            ("a", 0.5 * np.eye(2)), ("wide", np.eye(3) / 3),
            ("c", 0.5 * np.eye(2))])
        with pytest.raises(DimMismatch) as info:
            effects_from_json_dict(payload)
        assert str(info.value) == "effect 'wide' has dim 3, file declares dim 2"

    def test_another_dim_comes_before_a_later_spectral_fault(self):
        payload = _effects_file(2, [
            ("wide", np.eye(3) / 3), ("a", 0.5 * np.eye(2)),
            ("c", np.diag([1.5, 0.5]))])
        with pytest.raises(DimMismatch) as info:
            effects_from_json_dict(payload)
        assert str(info.value) == "effect 'wide' has dim 3, file declares dim 2"

    def test_a_spectral_fault_comes_before_a_later_dim(self):
        payload = _effects_file(2, [
            ("a", 0.5 * np.eye(2)), ("c", np.diag([1.5, 0.5])),
            ("wide", np.eye(3) / 3)])
        with pytest.raises(ExceedsIdentity,
                           match="effect 'c': below_identity fails: max_eig"):
            effects_from_json_dict(payload)


class TestIsProjection:
    def test_diagonal_projection(self):
        assert is_projection(diag_effect(1.0, 0.0))

    def test_half_identity_is_not(self):
        assert not is_projection(Effect(0.5 * HermitianOperator.identity(2), "H"))

    def test_unit_bloch_directions_are(self):
        assert is_projection(Effect(pauli_op(1, 0, 0), "P"))


class TestComplement:
    def test_diagonal(self):
        c = complement(diag_effect(1.0, 0.0))
        assert np.allclose(c.op.array, np.diag([0.0, 1.0]))

    def test_half_identity_self_complementary(self):
        half = Effect(0.5 * HermitianOperator.identity(2), "H")
        assert np.allclose(complement(half).op.array, half.op.array)

    def test_bloch_negation(self):
        n = (0.3, -0.4, 0.5)
        c = complement(Effect(pauli_op(*n), "P"))
        expected = pauli_op(*(-v for v in n))
        assert np.allclose(c.op.array, expected.array, atol=1e-15)


class TestBlochMaps:
    def test_north_pole(self):
        op = bloch_to_operator(BlochVector((0, 0, 1)))
        assert np.array_equal(op.array, np.diag([1.0, 0.0]).astype(complex))

    def test_center(self):
        op = bloch_to_operator(BlochVector((0, 0, 0)))
        assert np.array_equal(op.array, 0.5 * np.eye(2))

    def test_x_direction(self):
        op = bloch_to_operator(BlochVector((1, 0, 0)))
        assert np.array_equal(op.array, 0.5 * np.ones((2, 2), dtype=complex))

    def test_trace_exactly_one(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = rng.uniform(-1, 1, size=3)
            op = bloch_to_operator(BlochVector(tuple(a)))
            assert complex(np.trace(op.array)).real == 1.0

    def test_extract_north_pole(self):
        b = operator_to_bloch(HermitianOperator(np.diag([1.0, 0.0])))
        assert b.a == (0.0, 0.0, 1.0)

    def test_extract_center(self):
        b = operator_to_bloch(0.5 * HermitianOperator.identity(2))
        assert b.a == (0.0, 0.0, 0.0)

    def test_round_trip_named_vector(self):
        b = operator_to_bloch(pauli_op(0.5, 0.0, 0.5))
        assert np.allclose(b.a, (0.5, 0.0, 0.5), atol=1e-15)

    def test_wrong_dim(self):
        with pytest.raises(NotDimTwo):
            operator_to_bloch(HermitianOperator.identity(3) * (1 / 3))

    def test_wrong_trace(self):
        with pytest.raises(TraceNotOne) as info:
            operator_to_bloch(HermitianOperator.identity(2))
        assert str(info.value) == ("operator: unit_trace fails: trace 2.0 "
                                   "not in bound [0.999999999, 1.000000001]")

    def test_round_trip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            a = rng.uniform(-1, 1, size=3)
            if np.linalg.norm(a) > 1:
                a /= np.linalg.norm(a) * float(rng.uniform(1.0, 2.0))
            b = BlochVector(tuple(a))
            back = operator_to_bloch(bloch_to_operator(b))
            assert max(abs(x - y) for x, y in zip(back.a, b.a)) <= 1e-12

    @settings(deadline=None, max_examples=200)
    @given(st.tuples(*[st.floats(-1, 1, allow_nan=False) for _ in range(3)]))
    def test_round_trip_hypothesis(self, a):
        b = BlochVector(a)
        back = operator_to_bloch(bloch_to_operator(b))
        assert max(abs(x - y) for x, y in zip(back.a, b.a)) <= 1e-12

    @pytest.mark.parametrize("radius,positive", [
        (0.0, True), (0.5, True), (0.999, True), (1.0, True),
        (1.001, False), (1.5, False),
    ])
    def test_psd_iff_inside_ball(self, radius, positive):
        directions = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                      (1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3))]
        for direction in directions:
            a = tuple(radius * v for v in direction)
            op = bloch_to_operator(BlochVector(a))
            assert (eigenvalues_of(op)[0] >= -1e-9) == positive


class TestSpectralSplit:
    def test_rank_one_projection(self):
        parts = spectral_split(diag_effect(1.0, 0.0))
        assert len(parts) == 2
        (v0, p0), (v1, p1) = parts
        assert v0 == pytest.approx(0.0, abs=1e-15)
        assert v1 == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(p0.op.array, np.diag([0.0, 1.0]))
        assert np.allclose(p1.op.array, np.diag([1.0, 0.0]))

    def test_degenerate_collapses_to_identity(self):
        half = Effect(0.5 * HermitianOperator.identity(2), "H")
        parts = spectral_split(half)
        assert len(parts) == 1
        value, proj = parts[0]
        assert value == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(proj.op.array, np.eye(2))

    def test_mixture_of_projections(self):
        # E = (P + Q)/2 with P = (I+sz)/2, Q = (I+sx)/2 has Bloch vector
        # (1/2, 0, 1/2); its eigenvalues are (1 -/+ |c|)/2 by the
        # characteristic polynomial.
        e = Effect(0.5 * pauli_op(0, 0, 1) + 0.5 * pauli_op(1, 0, 0), "E")
        parts = spectral_split(e)
        lo, hi = char_poly_eigs_2x2(e.op.array)
        assert len(parts) == 2
        assert parts[0][0] == pytest.approx(lo, abs=1e-12)
        assert parts[1][0] == pytest.approx(hi, abs=1e-12)
        assert parts[1][0] == pytest.approx(0.853553, abs=1e-6)
        chat = np.array([0.5, 0.0, 0.5]) / np.linalg.norm([0.5, 0.0, 0.5])
        assert np.allclose(parts[1][1].op.array, pauli_op(*chat).array, atol=1e-12)

    def test_projector_family_properties(self):
        rng = rng_from_seed(31)
        for _ in range(50):
            e = random_effect(4, rng)
            parts = spectral_split(e)
            total = np.zeros((4, 4), dtype=complex)
            reassembled = np.zeros((4, 4), dtype=complex)
            for value, proj in parts:
                assert is_projection(proj)
                total += proj.op.array
                reassembled += value * proj.op.array
            assert np.linalg.norm(total - np.eye(4)) <= 1e-8
            assert np.linalg.norm(reassembled - e.op.array) <= 1e-9
            for i, (_, p) in enumerate(parts):
                for j, (_, q) in enumerate(parts):
                    product = p.op.array @ q.op.array
                    expected = p.op.array if i == j else np.zeros((4, 4))
                    assert np.linalg.norm(product - expected) <= 1e-8

    def test_degenerate_d64_projectors_pass_the_effect_check(self):
        rng = rng_from_seed(64)
        u = haar_unitary(64, rng)
        levels = (0.0, 0.25, 0.5, 1.0)
        multiplicity = (30, 1, 17, 16)
        spectrum = np.repeat(levels, multiplicity)
        e = Effect(HermitianOperator((u * spectrum) @ u.conj().T), "E")
        parts = spectral_split(e)
        assert [value for value, _ in parts] == pytest.approx(levels, abs=1e-12)
        for (_, proj), rank in zip(parts, multiplicity):
            assert all(check["ok"] for check in effect_checks(proj.op))
            assert np.trace(proj.op.array).real == pytest.approx(rank, abs=1e-9)


class TestRandomEffectFamily:
    def test_thousand_random_effects(self):
        rng = rng_from_seed(101)
        eye = np.eye(3)
        for _ in range(1000):
            e = random_effect(3, rng)   # construction validates the bounds
            c = complement(e)
            double = complement(c)
            assert np.max(np.abs(double.op.array - e.op.array)) <= 1e-12
            assert np.max(np.abs(e.op.array + c.op.array - eye)) <= 1e-12

    def test_mixtures_stay_effects(self):
        rng = rng_from_seed(7)
        for _ in range(100):
            e = random_effect(3, rng, "a")
            f = random_effect(3, rng, "b")
            lam = float(rng.uniform())
            Effect(lam * e.op + (1 - lam) * f.op, "E")


def test_duplicate_operator_guard():
    half = 0.5 * HermitianOperator.identity(2)
    with pytest.warns(DuplicateOperatorWarning):
        warn_duplicate_operators([Effect(half, "a"), Effect(half, "b")])


# Planted distances from a pool member, in units of TOL.same_operator: on
# both sides of the strict bound.
PLANTED = (0.0, 0.5, 0.99, 1.01, 2.0)


def _near_copy(e: Effect, factor: float, rng, label: str) -> Effect:
    z = random_hermitian(e.dim, rng).array
    step = factor * TOL.same_operator / np.linalg.norm(z)
    return Effect(HermitianOperator(e.op.array + step * z), label)


def _planted_pool(dim, size, rng) -> list[Effect]:
    """``size`` random effects of dimension ``dim``, then a copy of random
    members at every PLANTED distance and one copy under the same label,
    each inserted at a random position."""
    pool = random_frame(dim, size, rng, f"d{dim}_")
    rng.shuffle(pool)
    if not pool:
        return pool
    copies = [_near_copy(pool[rng.integers(len(pool))], f, rng, f"near{f}")
              for f in PLANTED]
    same = pool[rng.integers(len(pool))]
    copies.append(Effect(same.op, same.label))
    for e in copies:
        pool.insert(int(rng.integers(len(pool) + 1)), e)
    return pool


def _duplicate_messages(effects) -> list[str]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warn_duplicate_operators(effects)
    return [str(w.message) for w in caught
            if issubclass(w.category, DuplicateOperatorWarning)]


@pytest.mark.parametrize("dims", [(1,), (2,), (4,), (16,), (1, 2, 4)])
# 24 and 32 are the pool sizes of the ks-unsat and ks-sat benchmark inputs
@pytest.mark.parametrize("size", [0, 1, 2, 24, 32, 48, 49, 60])
def test_duplicate_scan_matches_pairwise_scan(dims, size):
    # a pool holds one dimension, so each of several is scanned on its own
    rng = rng_from_seed(1000 * size + sum(dims))
    flagged = 0
    for _ in range(3):
        for dim in dims:
            pool = _planted_pool(dim, size, rng)
            expected = duplicate_messages_by_pairs(pool)
            assert _duplicate_messages(pool) == expected
            flagged += len(expected)
    # at least the copies at 0, 0.5 and 0.99 tolerances, in each pool
    assert flagged >= (9 * len(dims) if size else 0)


@pytest.mark.parametrize("size", [1, 2, 24])
def test_a_pool_of_several_dimensions_is_a_dim_mismatch(size):
    rng = rng_from_seed(size)
    pool = [e for d in (1, 2, 4) for e in random_frame(d, size, rng, f"d{d}_")]
    rng.shuffle(pool)
    other = next(e for e in pool if e.dim != pool[0].dim)
    with pytest.raises(DimMismatch) as info:
        effects_by_label(pool)
    assert str(info.value) == (f"effect {other.label!r} has dim {other.dim}, "
                               f"pool has dim {pool[0].dim}")
    # a repeated label is reported first, as it comes first in the pool
    with pytest.raises(ValueError, match="duplicate effect label"):
        effects_by_label([pool[0], pool[0], other])


def test_effect_json_round_trip():
    e = Effect(pauli_op(0.5, 0.0, 0.5), "tilt")
    array, label = effect_from_json(e.to_json_dict())
    again = Effect(HermitianOperator(array), label)
    assert again.label == "tilt"
    assert np.array_equal(again.op.array, e.op.array)
