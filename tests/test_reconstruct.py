"""State reconstruction by linear inversion over effect frames."""

import re
import tracemalloc

import numpy as np
import pytest

from effectkit import (
    DensityOperator,
    DimMismatch,
    Effect,
    FrameDeficient,
    HermitianOperator,
    NotPositive,
    TOL,
    ValuesInconsistent,
    born,
    frobenius_inner,
    hermitian_coords,
    project_to_density,
    random_density,
    random_frame,
    random_hermitian,
    reconstruct_density,
    rng_from_seed,
)
from effectkit.valuation import _from_coords

from conftest import SX, SY, SZ, hermitian_basis, pauli_op


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
        assert np.allclose(state.array, np.diag([1.0, 0.0]), atol=1e-12)
        assert diag.rank == 4
        assert diag.residual <= 1e-12

    def test_maximally_mixed_fixed_point(self):
        rng = rng_from_seed(5)
        frame = ic_frame(2, rng)
        rho = DensityOperator(HermitianOperator.identity(2) * 0.5)
        state, _ = reconstruct_density(frame, [born(rho, e) for e in frame])
        assert np.allclose(state.array, 0.5 * np.eye(2), atol=1e-10)

    def test_round_trip_random_states(self):
        rng = rng_from_seed(6)
        for dim in (2, 3, 4):
            for _ in range(10):
                rho = random_density(dim, rng)
                frame = ic_frame(dim, rng)
                state, diag = reconstruct_density(
                    frame, [born(rho, e) for e in frame])
                err = np.linalg.norm(state.array - rho.op.array)
                assert err <= 1e-8
                assert diag.trace_dev <= 1e-9


class TestDeficientFrames:
    def test_rank_two_frame_raises(self):
        frame = [Effect(HermitianOperator.identity(2), "I"),
                 Effect(pauli_op(0, 0, 1), "Z")]
        with pytest.raises(FrameDeficient) as info:
            reconstruct_density(frame, [1.0, 1.0])
        assert str(info.value) == "frame spans only 2 of 4 dimensions"

    def test_min_norm_solves_anyway(self):
        frame = [Effect(HermitianOperator.identity(2), "I"),
                 Effect(pauli_op(0, 0, 1), "Z")]
        state, diag = reconstruct_density(frame, [1.0, 1.0], min_norm=True)
        assert diag.rank == 2
        assert diag.frame_size == 2
        # the constraints themselves are met
        assert frobenius_inner(state, frame[1].op) == pytest.approx(
            1.0, abs=1e-10)

    def test_min_norm_on_full_rank_matches_plain(self):
        rng = rng_from_seed(8)
        rho = random_density(2, rng)
        frame = ic_frame(2, rng)
        values = [born(rho, e) for e in frame]
        plain, _ = reconstruct_density(frame, values)
        minn, _ = reconstruct_density(frame, values, min_norm=True)
        assert np.allclose(plain.array, minn.array, atol=1e-12)


class TestInconsistentValues:
    def test_residual_above_threshold_raises(self):
        frame = pauli_frame() + [Effect(HermitianOperator.identity(2) * 0.5, "H")]
        # v(H) must equal v(I)/2 = 0.5 for any linear functional; 0.6 breaks it
        values = [1.0, 0.5, 0.5, 1.0, 0.6]
        with pytest.raises(ValuesInconsistent) as info:
            reconstruct_density(frame, values)
        residual = re.fullmatch(r"values violate linearity: residual (\S+) "
                                r"> \S+", str(info.value))[1]
        assert float(residual) > 1e-6

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
        assert abs(np.trace(state.array).real - 1.0) <= 1e-12
        assert diag.pre["min_eig"] is not None
        # projection cannot be worse than a few noise widths away
        assert np.linalg.norm(state.array - rho.op.array) <= 0.1

    def test_only_the_projected_result_is_a_state(self):
        # v(X) = 0.55 puts the Bloch vector of |0><0| at (0.1, 0, 1), outside
        # the ball: the solution has trace 1 and eigenvalue (1 - 1.005)/2
        frame = pauli_frame()
        noisy = [1.0, 0.55, 0.5, 1.0]
        solution, diag = reconstruct_density(frame, noisy)
        assert type(solution) is HermitianOperator
        assert diag.min_eig < 0
        with pytest.raises(NotPositive):
            DensityOperator(solution)
        projected, diag = reconstruct_density(frame, noisy, project_psd=True)
        assert type(projected) is HermitianOperator
        assert DensityOperator(projected).op is projected
        assert diag.min_eig >= -1e-12

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
        assert np.linalg.norm(state.array - rho.op.array) <= 1e-8
        assert diag.pre["residual"] <= 1e-10


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
            h = (0.3 * random_hermitian(dim, rng)
                 + HermitianOperator.identity(dim) * (1.0 / dim))
            state = project_to_density(h)
            ours = np.linalg.norm(state.op.array - h.array)
            clipped = np.linalg.norm(_clip_and_renormalize(h) - h.array)
            assert ours <= clipped + 1e-12


class TestMalformedFrames:
    def test_a_frame_needs_an_effect(self):
        with pytest.raises(ValueError,
                           match="^reconstruction needs a nonempty frame$"):
            reconstruct_density([], [])

    def test_values_must_match_the_frame_in_length(self):
        frame = [Effect(HermitianOperator.identity(2), "E")]
        with pytest.raises(ValueError,
                           match="^frame and values differ in length$"):
            reconstruct_density(frame, [0.5, 0.5])

    def test_a_frame_has_one_dimension(self):
        frame = [Effect(HermitianOperator.identity(2), "E"),
                 Effect(HermitianOperator.identity(3), "G")]
        with pytest.raises(DimMismatch,
                           match="^effect 'G' has dim 3, frame dim 2$"):
            reconstruct_density(frame, [1.0, 1.0])


def weyl_heisenberg(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift X|m> = |m+1> and the clock Z|m> = w^m |m>, w = e^(2 pi i/d)."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return shift, clock


def eigenbasis(*unitaries) -> list[np.ndarray]:
    """The joint eigenbasis of commuting unitaries: the eigenvectors of
    c U + conj(c) U^dagger summed over them, with coefficients c = e^(0.3i)
    and sqrt 2, which give every case below a simple spectrum."""
    h = sum(c * u + np.conj(c) * u.conj().T
            for c, u in zip((np.exp(0.3j), np.sqrt(2.0)), unitaries))
    return list(np.linalg.eigh(h)[1].T)


def projector_frame(vectors) -> list[Effect]:
    return [Effect(HermitianOperator(np.outer(v, v.conj())), f"P{k}")
            for k, v in enumerate(vectors)]


def qubit_sic() -> list[Effect]:
    """The tetrahedron: Bloch vectors (1, 1, 1)/sqrt 3 and its three images
    under rotations by pi about the axes."""
    signs = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    return [Effect(pauli_op(*(np.array(s) / np.sqrt(3.0))), f"P{k}")
            for k, s in enumerate(signs)]


def hesse_sic() -> list[Effect]:
    """The Weyl-Heisenberg orbit X^j Z^k (0, 1, -1)/sqrt 2 in d = 3 (Renes,
    Blume-Kohout, Scott & Caves, J. Math. Phys. 45, 2171, 2004)."""
    shift, clock = weyl_heisenberg(3)
    fiducial = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    return projector_frame(
        np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)
        @ fiducial for j in range(3) for k in range(3))


def mub_frame(d: int) -> list[Effect]:
    """Complete sets of mutually unbiased bases (Wootters & Fields, Ann.
    Phys. 191, 363, 1989): the Pauli eigenbases in d = 2; the eigenbases of
    Z, X, XZ and XZ^2 in d = 3; in d = 4 the joint eigenbases of the five
    Pauli lines (ZI, IZ), (XI, IX), (YI, IY), (XY, YZ), (YX, ZY) (Lawrence,
    Brukner & Zeilinger, PRA 65, 032320, 2002)."""
    if d == 2:
        groups = [(SZ,), (SX,), (SY,)]
    elif d == 3:
        x, z = weyl_heisenberg(3)
        groups = [(z,), (x,), (x @ z,), (x @ z @ z,)]
    else:
        pauli = {"I": np.eye(2), "X": SX, "Y": SY, "Z": SZ}
        groups = [tuple(np.kron(pauli[a], pauli[b]) for a, b in line)
                  for line in (("ZI", "IZ"), ("XI", "IX"), ("YI", "IY"),
                               ("XY", "YZ"), ("YX", "ZY"))]
    return projector_frame(v for g in groups for v in eigenbasis(*g))


def inversion(frame: list[Effect], values) -> np.ndarray:
    """Linear inversion over K rank-one projectors forming a 2-design in
    dimension d, where sum_k P_k tr[P_k X] = K / (d (d + 1)) (X + tr[X] I):
    rho = d (d + 1) / K * sum_k p_k P_k - I. That is (d + 1)/d sum p_k P_k
    - I for a SIC and sum p_k P_k - I for d + 1 MUBs."""
    d, k = frame[0].dim, len(frame)
    total = sum(p * e.op.array for p, e in zip(values, frame))
    return d * (d + 1) / k * total - np.eye(d)


KNOWN_FRAMES = {
    "sic-2": (qubit_sic, 2, 4), "sic-3": (hesse_sic, 3, 9),
    "mub-2": (lambda: mub_frame(2), 2, 6),
    "mub-3": (lambda: mub_frame(3), 3, 12),
    "mub-4": (lambda: mub_frame(4), 4, 20)}


class TestKnownAnswers:
    """SICs and complete sets of MUBs are tight informationally complete
    frames (Scott, J. Phys. A 39, 13507, 2006): the values of a state on
    them determine it through a closed-form inversion."""

    @pytest.mark.parametrize("name", sorted(KNOWN_FRAMES))
    def test_the_frame_is_what_it_claims(self, name):
        build, d, k = KNOWN_FRAMES[name]
        frame = build()
        vectors = [np.linalg.eigh(e.op.array)[1][:, -1] for e in frame]
        overlaps = np.abs(np.array(vectors).conj() @ np.array(vectors).T) ** 2
        assert len(frame) == k and all(e.dim == d for e in frame)
        assert np.allclose(np.diag(overlaps), 1.0, atol=1e-12)
        if name.startswith("sic"):
            expected = np.where(np.eye(k, dtype=bool), 1.0, 1.0 / (d + 1))
        else:
            basis = np.arange(k) // d
            expected = np.where(basis[:, None] == basis[None, :],
                                np.eye(k), 1.0 / d)
        assert np.max(np.abs(overlaps - expected)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(KNOWN_FRAMES))
    def test_two_singular_values_in_ratio_sqrt_d_plus_one(self, name):
        build, d, _ = KNOWN_FRAMES[name]
        design = hermitian_coords([e.op.array for e in build()])
        s = np.linalg.svd(design, compute_uv=False)
        assert len(s) == d * d
        assert s[0] - s[1] > 0.5
        assert np.max(s[1:]) - np.min(s[1:]) <= 1e-12
        assert abs(s[0] / s[1] - np.sqrt(d + 1)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(KNOWN_FRAMES))
    def test_reconstruction_is_the_linear_inversion(self, name):
        build, d, _ = KNOWN_FRAMES[name]
        frame = build()
        rng = rng_from_seed(2171)
        for _ in range(5):
            rho = random_density(d, rng)
            values = [born(rho, e) for e in frame]
            state, diag = reconstruct_density(frame, values)
            assert diag.rank == d * d
            expected = inversion(frame, values)
            assert np.max(np.abs(state.array - expected)) <= 1e-14
            assert np.max(np.abs(expected - rho.op.array)) <= 1e-14


def whole_frame_solution(frame: list[Effect], values) -> tuple[np.ndarray,
                                                               np.ndarray]:
    """(design, solved array) by the reference path: the design built from
    one (K, d, d) copy of the whole frame, then the truncated SVD solve."""
    design = hermitian_coords(np.array([e.op.array for e in frame]))
    u, sigma, vt = np.linalg.svd(design, full_matrices=False)
    kept = sigma > TOL.sv_cutoff * sigma[0]
    inv_sigma = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=kept)
    vals = np.asarray(values, dtype=np.float64)
    return design, _from_coords(vt.T @ (inv_sigma * (u.T @ vals)),
                                frame[0].dim)


@pytest.fixture(scope="module")
def tomography_frame() -> tuple[list[Effect], list[float]]:
    """A tomography-sized frame, 259 random effects of d = 16 (a partial
    last block of rows), and a state's values on it."""
    rng = rng_from_seed(2603)
    rho = random_density(16, rng)
    frame = random_frame(16, 16 * 16 + 3, rng)
    return frame, [born(rho, e) for e in frame]


class TestDesignInBlocks:
    """The design matrix is filled from blocks of the frame's rows, never
    from a copy of the whole frame."""

    @pytest.mark.parametrize("project_psd", [False, True],
                             ids=["plain", "projected"])
    def test_peak_memory_stays_near_the_design(self, tomography_frame,
                                               project_psd):
        frame, values = tomography_frame
        design_bytes = len(frame) * frame[0].dim ** 2 * 8
        reconstruct_density(frame, values, project_psd=project_psd)
        tracemalloc.start()
        try:
            reconstruct_density(frame, values, project_psd=project_psd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Design, U and Vt alone are 3 times the design; a whole-frame
        # build read 5.8 times.
        assert peak < 3.5 * design_bytes

    def test_design_and_solution_match_the_whole_frame_path(
            self, tomography_frame, monkeypatch):
        frame, values = tomography_frame
        svd_inputs = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            svd_inputs.append(a.copy())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        state, diag = reconstruct_density(frame, values)
        monkeypatch.undo()
        design, solved = whole_frame_solution(frame, values)
        assert diag.rank == 16 * 16
        assert len(svd_inputs) == 1
        assert svd_inputs[0].dtype == design.dtype
        assert svd_inputs[0].shape == design.shape
        assert svd_inputs[0].tobytes() == design.tobytes()
        assert state.array.tobytes() == HermitianOperator(solved).array.tobytes()
