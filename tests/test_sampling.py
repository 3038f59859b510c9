"""Outcome sampling and empirical valuation estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectkit import (
    DensityOperator,
    DimMismatch,
    DuplicateOperatorWarning,
    Effect,
    HermitianOperator,
    Povm,
    ProbabilityDeficit,
    RecordMismatch,
    SampleRecord,
    born,
    estimate_valuation,
    random_density,
    random_povm,
    rng_from_seed,
    sample_outcomes,
)
from effectkit.valuation import _MAX_THRESHOLDS, _SHOT_CHUNK, _outcome_counts

from conftest import SZ, pauli_op


def z_povm() -> Povm:
    return Povm((Effect(pauli_op(0, 0, 1), "up"),
                 Effect(pauli_op(0, 0, -1), "down")))


def ground_state() -> DensityOperator:
    return DensityOperator(HermitianOperator(np.diag([1.0, 0.0])))


class TestSampleOutcomes:
    def test_eigenstate_is_deterministic(self):
        record = sample_outcomes(ground_state(), z_povm(), 1000, seed=0)
        assert record.counts == (1000, 0)
        assert record.n == 1000

    def test_symmetric_coin(self):
        rho = DensityOperator(HermitianOperator.identity(2) * 0.5)
        half = 0.5 * HermitianOperator.identity(2)
        povm = Povm((Effect(half, "a"), Effect(half, "b")))
        n = 40_000
        record = sample_outcomes(rho, povm, n, seed=7)
        assert abs(record.counts[0] - n / 2) <= 5 * np.sqrt(n / 4)

    def test_seed_determinism(self):
        rng = rng_from_seed(1)
        rho = random_density(3, rng)
        povm = random_povm(3, 4, rng)
        a = sample_outcomes(rho, povm, 5000, seed=42)
        b = sample_outcomes(rho, povm, 5000, seed=42)
        assert a.counts == b.counts
        c = sample_outcomes(rho, povm, 5000, seed=43)
        assert a.counts != c.counts

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            sample_outcomes(DensityOperator(HermitianOperator.identity(3) * (1 / 3)),
                            z_povm(), 10, seed=0)

    def test_needs_at_least_one_shot(self):
        with pytest.raises(ValueError):
            sample_outcomes(ground_state(), z_povm(), 0, seed=0)

    def test_shot_count_of_2_63_is_rejected(self):
        with pytest.raises(ValueError, match=r"shot count must be below 2\*\*63"):
            sample_outcomes(ground_state(), z_povm(), 2 ** 63, seed=0)

    @pytest.mark.parametrize("n", [_SHOT_CHUNK - 1, _SHOT_CHUNK,
                                   _SHOT_CHUNK + 1, 3 * _SHOT_CHUNK + 7])
    def test_chunked_counts_equal_one_draw_of_all_shots(self, n):
        rng = rng_from_seed(21)
        rho = random_density(3, rng)
        povm = random_povm(3, 4, rng)
        probs = np.array([born(rho, e) for e in povm.effects])
        cum = np.cumsum(probs / probs.sum())
        cum[-1] = 1.0
        draws = np.random.Generator(np.random.PCG64(7)).random(n)
        idx = np.minimum(np.searchsorted(cum, draws, side="left"), 3)
        expected = np.bincount(idx, minlength=4)
        assert sample_outcomes(rho, povm, n, seed=7).counts == tuple(
            int(c) for c in expected)

    def test_probability_deficit(self):
        # a POVM that passes the sum-to-identity tolerance but whose Born
        # probabilities for |0><0| drift from 1 by more than 1e-8
        delta = 1.2e-8
        e0 = Effect(HermitianOperator(0.5 * np.eye(2) + 0.5 * delta * SZ), "a")
        e1 = Effect(HermitianOperator(0.5 * np.eye(2) + 0.5 * delta * SZ), "b")
        povm = Povm((e0, e1))
        with pytest.raises(ProbabilityDeficit):
            sample_outcomes(ground_state(), povm, 10, seed=0)

    def test_sampling_consistency_many_shots(self):
        # agreement at 5 sigma is a failure; the 4-5 sigma band only flags
        rng = rng_from_seed(13)
        rho = random_density(2, rng)
        povm = random_povm(2, 3, rng)
        n = 100_000
        record = sample_outcomes(rho, povm, n, seed=99)
        table = estimate_valuation(record, povm)
        for e in povm.effects:
            p = born(rho, e)
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
            dev = abs(table.value(e.label) - p)
            assert dev <= 5 * sigma
            if dev > 4 * sigma:
                import warnings
                warnings.warn(f"estimate for {e.label} at {dev / sigma:.2f} sigma")


def searched_counts(cum, draws):
    """The oracle: outcome counts by a sorted search, as sample_outcomes
    counted before it counted by thresholds."""
    idx = np.minimum(np.searchsorted(cum, draws, side="left"), len(cum) - 1)
    return np.bincount(idx, minlength=len(cum))


def oracle_record(rho, povm, n, seed):
    probs = np.array([born(rho, e) for e in povm.effects])
    cum = np.cumsum(probs / probs.sum())
    cum[-1] = 1.0
    draws = np.random.Generator(np.random.PCG64(seed)).random(n)
    return tuple(int(c) for c in searched_counts(cum, draws))


def _with_ties(cum, rng, n=4000):
    """Uniform draws plus draws planted at each threshold, one ulp either
    side of it, and at 0."""
    planted = [0.0] + [x for c in cum[:-1] for x in
                       (c, np.nextafter(c, 0.0), np.nextafter(c, 1.0))]
    return np.concatenate([rng.random(n), np.array(planted * 3)])


class TestOutcomeCounts:
    @pytest.mark.parametrize("cum", [
        [1.0],
        [0.5, 1.0],
        [0.0, 0.25, 0.25, 0.25, 0.7, 1.0],
        [0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 1.0],
        list(np.linspace(0.0, 1.0, _MAX_THRESHOLDS + 1)[1:]),
        list(np.linspace(0.0, 1.0, _MAX_THRESHOLDS + 2)[1:]),
        [0.3, 0.3 - 1e-9, 1.0],
        [0.5, 1.0 + 2.0 ** -52, 1.0],
    ], ids=["k=1", "k=2", "zero probabilities", "k=6", "most thresholds",
            "above the thresholds", "decreasing", "above 1 before the end"])
    def test_counts_equal_the_searched_counts(self, cum):
        cum = np.array(cum)
        draws = _with_ties(cum, rng_from_seed(len(cum)))
        got = _outcome_counts(cum, draws)
        assert got.tolist() == searched_counts(cum, draws).tolist()
        assert got.sum() == len(draws)

    @pytest.mark.parametrize("n", [_SHOT_CHUNK - 1, _SHOT_CHUNK,
                                   _SHOT_CHUNK + 1, 3 * _SHOT_CHUNK + 7])
    def test_zero_probability_outcomes_and_one_outcome_at_chunk_edges(self, n):
        rng = rng_from_seed(22)
        rho = random_density(2, rng)
        zero = Effect(HermitianOperator(np.zeros((2, 2))), "zero")
        up, down = z_povm().effects
        povm = Povm((zero, up, zero, down, zero))
        assert sample_outcomes(rho, povm, n, seed=3).counts == oracle_record(
            rho, povm, n, 3)
        one = Povm((Effect(HermitianOperator.identity(2), "all"),))
        assert sample_outcomes(rho, one, n, seed=3).counts == (n,)


class TestEstimateValuation:
    def test_pure_counts(self):
        record = sample_outcomes(ground_state(), z_povm(), 1000, seed=0)
        table = estimate_valuation(record, z_povm())
        assert table.value("up") == 1.0
        assert table.value("down") == 0.0
        assert table.entry("up").stderr == 0.0

    def test_mixed_counts_arithmetic(self):
        povm = z_povm()
        record = SampleRecord(povm.labels, (480, 520), seed=5)
        table = estimate_valuation(record, povm)
        assert table.value("up") == pytest.approx(0.48, abs=1e-15)
        assert table.value("down") == pytest.approx(0.52, abs=1e-15)
        expected_se = np.sqrt(0.48 * 0.52 / 1000)
        assert table.entry("up").stderr == pytest.approx(expected_se, rel=1e-9)

    def test_sum_is_exactly_one(self):
        rng = rng_from_seed(3)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            povm = random_povm(2, k, rng)
            rho = random_density(2, rng)
            record = sample_outcomes(rho, povm, int(rng.integers(1, 10_000)),
                                     seed=int(rng.integers(0, 2**31)))
            table = estimate_valuation(record, povm)
            assert sum(table.values()) == 1.0

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    min_size=2, max_size=6).filter(lambda c: sum(c) > 0))
    def test_sum_exactly_one_hypothesis(self, counts):
        k = len(counts)
        rng = rng_from_seed(11)
        povm = random_povm(2, k, rng)
        record = SampleRecord(povm.labels, tuple(counts), seed=0)
        assert record.n == sum(counts)
        table = estimate_valuation(record, povm)
        assert sum(table.values()) == 1.0
        for label, c in zip(povm.labels, counts):
            assert table.value(label) == pytest.approx(c / sum(counts), abs=1e-12)

    def test_record_mismatch(self):
        record = sample_outcomes(ground_state(), z_povm(), 10, seed=0)
        rng = rng_from_seed(2)
        other = random_povm(2, 2, rng)
        with pytest.raises(RecordMismatch):
            estimate_valuation(record, other)


class TestSampleRecordJson:
    def test_round_trip(self):
        record = sample_outcomes(ground_state(), z_povm(), 64, seed=9)
        assert record.to_json_dict() == {"povm": ["up", "down"],
                                         "counts": [64, 0], "n": 64, "seed": 9}

    def test_counts_and_labels_match_in_length(self):
        with pytest.raises(RecordMismatch, match="^counts and POVM label "
                           "list differ in length$"):
            SampleRecord(("a", "b"), (1,), seed=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="^counts must be non-negative$"):
            SampleRecord(("a", "b"), (2, -1), seed=0)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shot count must be at least 1"):
            SampleRecord(("a", "b"), (0, 0), seed=0)
