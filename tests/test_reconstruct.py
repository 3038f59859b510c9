"""State reconstruction by linear inversion over effect frames."""

import numpy as np
import pytest

from effectkit import (
    DensityOperator,
    Effect,
    FrameDeficient,
    HermitianOperator,
    ValuesInconsistent,
    born,
    hermitian_coords,
    project_to_density,
    random_density,
    random_frame,
    random_hermitian,
    reconstruct_density,
    rng_from_seed,
)
from effectkit.valuation import _from_coords

from conftest import hermitian_basis, pauli_op


def pauli_frame() -> list[Effect]:
    return [
        Effect(HermitianOperator.identity(2), "I"),
        Effect(pauli_op(1, 0, 0), "X"),
        Effect(pauli_op(0, 1, 0), "Y"),
        Effect(pauli_op(0, 0, 1), "Z"),
    ]


def ic_frame(dim: int, rng, extra: int = 3) -> list[Effect]:
    """Random frame of dim^2 + extra effects, retried until full rank."""
    while True:
        frame = random_frame(dim, dim * dim + extra, rng)
        design = hermitian_coords([e.op.array for e in frame])
        if np.linalg.matrix_rank(design, tol=1e-8) == dim * dim:
            return frame


class TestExactInputs:
    def test_pauli_frame_recovers_ground_state(self):
        # values are the explicit traces of diag(1,0) against the frame
        frame = pauli_frame()
        state, diag = reconstruct_density(frame, [1.0, 0.5, 0.5, 1.0])
        assert np.allclose(state.op.array, np.diag([1.0, 0.0]), atol=1e-12)
        assert diag.rank == 4
        assert diag.residual <= 1e-12

    def test_maximally_mixed_fixed_point(self):
        rng = rng_from_seed(5)
        frame = ic_frame(2, rng)
        rho = DensityOperator(HermitianOperator.identity(2) * 0.5)
        state, _ = reconstruct_density(frame, [born(rho, e) for e in frame])
        assert np.allclose(state.op.array, 0.5 * np.eye(2), atol=1e-10)

    def test_round_trip_random_states(self):
        rng = rng_from_seed(6)
        for dim in (2, 3, 4):
            for _ in range(10):
                rho = random_density(dim, rng)
                frame = ic_frame(dim, rng)
                state, diag = reconstruct_density(
                    frame, [born(rho, e) for e in frame])
                err = np.linalg.norm(state.op.array - rho.op.array)
                assert err <= 1e-8
                assert diag.trace_dev <= 1e-9


class TestDeficientFrames:
    def test_rank_two_frame_raises(self):
        frame = [Effect(HermitianOperator.identity(2), "I"),
                 Effect(pauli_op(0, 0, 1), "Z")]
        with pytest.raises(FrameDeficient) as info:
            reconstruct_density(frame, [1.0, 1.0])
        assert info.value.rank == 2
        assert info.value.required == 4

    def test_min_norm_solves_anyway(self):
        frame = [Effect(HermitianOperator.identity(2), "I"),
                 Effect(pauli_op(0, 0, 1), "Z")]
        state, diag = reconstruct_density(frame, [1.0, 1.0], min_norm=True)
        assert diag.rank == 2
        assert diag.frame_size == 2
        # the constraints themselves are met
        assert born(DensityOperator(state.op, validate=False),
                    frame[1]) == pytest.approx(1.0, abs=1e-10)

    def test_min_norm_on_full_rank_matches_plain(self):
        rng = rng_from_seed(8)
        rho = random_density(2, rng)
        frame = ic_frame(2, rng)
        values = [born(rho, e) for e in frame]
        plain, _ = reconstruct_density(frame, values)
        minn, _ = reconstruct_density(frame, values, min_norm=True)
        assert np.allclose(plain.op.array, minn.op.array, atol=1e-12)


class TestInconsistentValues:
    def test_residual_above_threshold_raises(self):
        frame = pauli_frame() + [Effect(HermitianOperator.identity(2) * 0.5, "H")]
        # v(H) must equal v(I)/2 = 0.5 for any linear functional; 0.6 breaks it
        values = [1.0, 0.5, 0.5, 1.0, 0.6]
        with pytest.raises(ValuesInconsistent) as info:
            reconstruct_density(frame, values)
        assert info.value.residual > 1e-6

    def test_small_perturbation_passes_threshold(self):
        frame = pauli_frame() + [Effect(HermitianOperator.identity(2) * 0.5, "H")]
        values = [1.0, 0.5, 0.5, 1.0, 0.5 + 1e-8]
        reconstruct_density(frame, values)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            reconstruct_density(pauli_frame(), [1.0, 0.5, 0.5, 1.5])


class TestPsdProjection:
    def test_noisy_values_get_projected(self):
        # exactly-determined frame: statistical noise lands in the solution
        # (residual stays ~0), which is what the projection is for
        rng = rng_from_seed(9)
        rho = random_density(2, rng)
        frame = ic_frame(2, rng, extra=0)
        noisy = np.clip([born(rho, e) + rng.normal(0, 2e-3) for e in frame], 0, 1)
        state, diag = reconstruct_density(frame, noisy, project_psd=True)
        assert diag.projected
        assert diag.min_eig >= -1e-12
        assert abs(np.trace(state.op.array).real - 1.0) <= 1e-12
        assert diag.pre_min_eig is not None
        # projection cannot be worse than a few noise widths away
        assert np.linalg.norm(state.op.array - rho.op.array) <= 0.1

    def test_projection_is_idempotent(self):
        rng = rng_from_seed(10)
        op = HermitianOperator(np.diag([1.2, -0.1, -0.1]).astype(complex))
        once = project_to_density(op)
        twice = project_to_density(once.op)
        assert np.allclose(once.op.array, twice.op.array, atol=1e-15)
        assert np.allclose(once.op.array, np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    def test_exact_inputs_unchanged_by_projection(self):
        rng = rng_from_seed(11)
        rho = random_density(3, rng)
        frame = ic_frame(3, rng)
        values = [born(rho, e) for e in frame]
        state, diag = reconstruct_density(frame, values, project_psd=True)
        assert np.linalg.norm(state.op.array - rho.op.array) <= 1e-8
        assert diag.pre_residual <= 1e-10


def test_diagnostics_json_keys():
    rng = rng_from_seed(12)
    rho = random_density(2, rng)
    frame = ic_frame(2, rng)
    _, diag = reconstruct_density(frame, [born(rho, e) for e in frame],
                                  project_psd=True)
    payload = diag.to_json_dict()
    for key in ("residual", "trace_dev", "min_eig", "projected"):
        assert key in payload
    assert set(payload["pre"]) == {"residual", "trace_dev", "min_eig"}


def test_hermitian_coords_is_an_isometry():
    # coordinate dot products are trace inner products tr[A B]
    rng = rng_from_seed(13)
    for dim in (1, 2, 3, 4):
        ops = np.array([random_hermitian(dim, rng).array for _ in range(6)])
        coords = hermitian_coords(ops)
        assert coords.shape == (6, dim * dim)
        gram = np.einsum("aij,bji->ab", ops, ops).real
        assert np.allclose(coords @ coords.T, gram, atol=1e-13)


def test_hermitian_coords_match_the_basis_tensor():
    rng = rng_from_seed(14)
    for dim in range(1, 9):
        basis = hermitian_basis(dim)
        ops = np.array([random_hermitian(dim, rng).array for _ in range(4)])
        coords = hermitian_coords(ops)
        oracle = np.einsum("bij,kji->kb", basis, ops).real
        assert np.max(np.abs(coords - oracle)) <= 1e-15
        for op, c in zip(ops, coords):
            assert np.max(np.abs(_from_coords(c, dim) - op)) <= 1e-15
            oracle_op = np.einsum("b,bij->ij", c, basis)
            assert np.max(np.abs(_from_coords(c, dim) - oracle_op)) <= 1e-15


def _clip_and_renormalize(h: HermitianOperator) -> np.ndarray:
    """Clip negative eigenvalues to zero, then rescale the trace to 1."""
    vals, vecs = np.linalg.eigh(h.array)
    clipped = np.clip(vals, 0.0, None)
    return (vecs * (clipped / clipped.sum())) @ vecs.conj().T


class TestNearestState:
    def test_simplex_projection_of_a_known_spectrum(self):
        rng = rng_from_seed(15)
        u = np.linalg.qr(random_hermitian(3, rng).array)[0]
        h = HermitianOperator((u * [0.7, 0.5, -0.2]) @ u.conj().T)
        state = project_to_density(h)
        expected = (u * [0.6, 0.4, 0.0]) @ u.conj().T
        assert np.max(np.abs(state.op.array - expected)) <= 1e-12
        # clipping and renormalizing gives (7/12, 5/12, 0), which is farther
        assert (np.linalg.norm(state.op.array - h.array)
                < np.linalg.norm(_clip_and_renormalize(h) - h.array))

    def test_negative_identity_goes_to_the_maximally_mixed_state(self):
        state = project_to_density(HermitianOperator(-np.eye(3)))
        assert np.allclose(state.op.array, np.eye(3) / 3, atol=1e-15)

    def test_huge_eigenvalue_keeps_unit_weight(self):
        state = project_to_density(HermitianOperator(np.diag([0.0, 1e17])))
        assert np.allclose(state.op.array, np.diag([0.0, 1.0]), atol=1e-15)

    def test_no_farther_than_clipping(self):
        rng = rng_from_seed(16)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            # about three in four of these have a negative eigenvalue
            h = (random_hermitian(dim, rng, scale=0.3)
                 + HermitianOperator.identity(dim) * (1.0 / dim))
            state = project_to_density(h)
            ours = np.linalg.norm(state.op.array - h.array)
            clipped = np.linalg.norm(_clip_and_renormalize(h) - h.array)
            assert ours <= clipped + 1e-12
