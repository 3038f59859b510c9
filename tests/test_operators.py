"""Operator-core: construction, eigendecomposition, traces, norms, order."""

import copy
import json
import warnings

import numpy as np
import pytest

from effectkit import (
    ConvergenceFailure,
    DensityOperator,
    DimMismatch,
    Effect,
    HermitianOperator,
    born,
    eig_hermitian,
    eigenvalues_of,
    frobenius_inner,
    state_checks,
)
from effectkit import jsonio, operators
from effectkit.cli import main
from effectkit.effects import effects_from_json_dict

from conftest import (SX, SY, SZ, char_poly_eigs_2x2, entries_by_loop,
                      matrix_by_entry_loop, pauli_op)


def herm(arr) -> HermitianOperator:
    return HermitianOperator(np.asarray(arr, dtype=complex))


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(np.array([[np.nan, 0], [0, 1]]))

    def test_overflow_is_rejected_without_numpy_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 1e308 + 1e308 overflows to inf: rejected as non-finite
            with pytest.raises(ValueError, match="finite"):
                herm([[1e308, 1e308], [1e308, 1e308]])
            # the Hermitian part is finite, the deviation overflows: the
            # error names the hermiticity deviation
            with pytest.raises(ValueError,
                               match="hermiticity deviation .* not finite"):
                herm([[0.0, 1e308], [-1e308, 0.0]])

    def test_rejects_above_max_dim(self):
        with pytest.raises(ValueError, match="MAX_DIM"):
            HermitianOperator(np.eye(operators.MAX_DIM + 1))

    def test_max_dim_is_configurable(self, monkeypatch):
        monkeypatch.setattr(operators, "MAX_DIM", 4)
        with pytest.raises(ValueError, match="MAX_DIM"):
            HermitianOperator(np.eye(5))

    def test_entries_are_immutable(self):
        m = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 2.0

    def test_symmetrization_and_deviation(self):
        raw = np.array([[1.0, 1.0 + 1e-6j], [1.0 - 2e-6j, 0.0]])
        h = herm(raw)
        assert np.allclose(h.array, h.array.conj().T)
        # worst entry pair deviates by |(1+1e-6j) - conj(1-2e-6j)| = 1e-6
        assert h.herm_deviation == pytest.approx(1e-6, rel=1e-9)

    def test_exact_hermitian_has_zero_deviation(self):
        h = herm(SY)
        assert h.herm_deviation == 0.0


class TestAdjoint:
    """Adjoints as the package takes them: the stored array is the
    Hermitian part (M + M^dagger)/2 of the input."""

    def test_identity_is_self_adjoint(self):
        h = herm(np.eye(2))
        assert np.array_equal(h.array, np.eye(2))
        assert h.herm_deviation == 0.0

    def test_real_nilpotent_transposes(self):
        h = herm(np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(h.array,
                              np.array([[0, 0.5], [0.5, 0]], dtype=complex))
        assert h.herm_deviation == 1.0

    def test_pauli_y_is_hermitian(self):
        assert np.array_equal(herm(SY).array, SY)

    def test_involution(self):
        rng = np.random.default_rng(11)
        arr = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = herm(arr)
        assert np.array_equal(h.array, h.array.conj().T)
        again = herm(h.array)
        assert np.array_equal(again.array, h.array)
        assert again.herm_deviation == 0.0


class TestTrace:
    """Traces as the package computes them: the unit-trace state check and
    the Born inner product tr[a b]."""

    def test_identity(self):
        assert state_checks(herm(np.eye(3)))[2]["trace"] == 3.0

    def test_probability_vector(self):
        unit_trace = state_checks(herm(np.diag([0.3, 0.7])))[2]
        assert unit_trace["trace"] == 1.0 and unit_trace["ok"]

    def test_state_times_effect(self):
        # rho = |0><0|, E = (I + sigma_x)/2: the product is [[.5, .5], [0, 0]]
        rho = DensityOperator(herm(np.diag([1.0, 0.0])))
        assert born(rho, Effect(pauli_op(1, 0, 0), "E")) == \
            pytest.approx(0.5, abs=1e-15)

    def test_cyclic_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            ha, hb = herm(a + a.conj().T), herm(b + b.conj().T)
            tab = frobenius_inner(ha, hb)
            tba = frobenius_inner(hb, ha)
            assert abs(tab - tba) <= 1e-10 * max(1.0, abs(tab))


class TestEigHermitian:
    def test_diagonal(self):
        vals, _ = eig_hermitian(herm(np.diag([1.0, 0.0])))
        assert np.allclose(vals, [0.0, 1.0], atol=1e-15)

    def test_half_i_plus_sigma_x(self):
        vals, vecs = eig_hermitian(pauli_op(1, 0, 0))
        assert np.allclose(vals, [0.0, 1.0], atol=1e-12)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(np.vdot(vecs[:, 0], minus)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(vecs[:, 1], plus)) == pytest.approx(1.0, abs=1e-12)

    def test_tilted_qubit_effect(self):
        op = pauli_op(0.5, 0.0, 0.5)
        vals, _ = eig_hermitian(op)
        lo, hi = char_poly_eigs_2x2(op.array)
        assert vals[0] == pytest.approx(lo, abs=1e-12)
        assert vals[1] == pytest.approx(hi, abs=1e-12)
        # hand values (1 -/+ sqrt(2)/2) / 2
        assert vals[0] == pytest.approx((1 - np.sqrt(2) / 2) / 2, abs=1e-12)
        assert vals[1] == pytest.approx((1 + np.sqrt(2) / 2) / 2, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_reassembly_residual(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(250):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = herm((g + g.conj().T) / 2)
            vals, vecs = eig_hermitian(h)
            norm = np.linalg.norm(h.array)
            reassembled = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(reassembled - h.array) <= 1e-9 * (1 + norm)
            gram = vecs.conj().T @ vecs
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-9
            assert np.all(np.diff(vals) >= 0)

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(42)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h1 = herm((g + g.conj().T) / 2)
        h2 = herm((g + g.conj().T) / 2)
        (vals1, vecs1), (vals2, vecs2) = eig_hermitian(h1), eig_hermitian(h2)
        assert np.array_equal(vals1, vals2)
        assert np.array_equal(vecs1, vecs2)

    def test_solver_failure_is_wrapped(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(ConvergenceFailure):
            eig_hermitian(herm(np.eye(2)))


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("no convergence")


def _qubit_povm_payload() -> dict:
    return {"dim": 2, "effects": [Effect(pauli_op(0, 0, 1), "up").to_json_dict(),
                                  Effect(pauli_op(0, 0, -1), "down").to_json_dict()]}


class TestEigensolverFailures:
    """Each failure of the eigensolver is a ConvergenceFailure that names
    it; none is a LinAlgError or a wrong spectrum."""

    @staticmethod
    def _eigh_returning(monkeypatch, vals, vecs):
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda arr: (np.array(vals), np.array(vecs)))

    def test_eig_residual_failure(self, monkeypatch):
        self._eigh_returning(monkeypatch, [1.0, 1.001], np.eye(2))
        with pytest.raises(ConvergenceFailure) as info:
            eig_hermitian(herm(np.eye(2)))
        assert str(info.value) == (
            "eigendecomposition residual 0.0009999999999998899 > bound "
            "2.414213562373095e-09")

    def test_eig_orthonormality_failure(self, monkeypatch):
        # Zero eigenvalues reassemble the zero matrix from any vectors.
        self._eigh_returning(monkeypatch, [0.0, 0.0], 2.0 * np.eye(2))
        with pytest.raises(ConvergenceFailure) as info:
            eig_hermitian(herm(np.zeros((2, 2))))
        assert str(info.value) == (
            "eigenvectors not orthonormal (deviation 3.0 > bound 1e-09)")

    def test_eigenvalues_of_wraps_the_solver_failure(self, monkeypatch):
        op = herm(np.eye(2))
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
        with pytest.raises(ConvergenceFailure) as info:
            eigenvalues_of(op)
        assert str(info.value) == "eigensolver failed: no convergence"

    def test_a_failed_stack_solve_falls_back_to_one_solve_each(
            self, monkeypatch):
        rng = np.random.default_rng(5)
        arrays = [herm(g + g.conj().T).array for g in
                  rng.standard_normal((4, 3, 3))
                  + 1j * rng.standard_normal((4, 3, 3))]
        alone = [eigenvalues_of(HermitianOperator(a)) for a in arrays]
        solve, single = np.linalg.eigvalsh, []

        def fails_on_stacks(arr):
            if arr.ndim == 3:
                raise np.linalg.LinAlgError("no convergence")
            single.append(arr)
            return solve(arr)

        monkeypatch.setattr(np.linalg, "eigvalsh", fails_on_stacks)
        ops = list(operators.hermitian_stack(arrays))
        assert not single
        spectra = [eigenvalues_of(op) for op in ops]
        assert len(single) == len(arrays)
        for got, want in zip(spectra, alone):
            assert np.array_equal(got, want)

    def test_a_failed_solve_fails_an_effects_file(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
        with pytest.raises(ConvergenceFailure) as info:
            effects_from_json_dict(_qubit_povm_payload())
        assert str(info.value) == "eigensolver failed: no convergence"

    def test_a_failed_solve_exits_2_with_one_line(self, tmp_path, capsys,
                                                 monkeypatch):
        path = tmp_path / "p.json"
        jsonio.dump(_qubit_povm_payload(), path)
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
        code = main(["validate", str(path), "--kind", "povm"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "ConvergenceFailure: eigensolver failed: no convergence\n")


class TestIsPsd:
    """Positivity read off the minimum eigenvalue."""

    def test_identity(self):
        assert eigenvalues_of(herm(np.eye(2)))[0] >= -1e-9

    def test_indefinite(self):
        assert not eigenvalues_of(herm(np.diag([1.0, -0.5])))[0] >= -1e-9

    def test_within_tolerance_floor(self):
        assert eigenvalues_of(herm(np.diag([-1e-12, 1.0])))[0] >= -1e-9

    def test_agrees_with_expectation_values(self):
        # necessary direction: h PSD implies <psi|h|psi> >= -d*tol
        rng = np.random.default_rng(21)
        d = 3
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = herm(g @ g.conj().T)
        assert eigenvalues_of(h)[0] >= -1e-9
        for _ in range(100):
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            proj = herm(np.outer(psi, psi.conj()))
            assert frobenius_inner(h, proj) >= -d * 1e-9


class TestOperatorNorm:
    """The spectral norm, as the largest absolute eigenvalue."""

    def test_diagonal(self):
        assert max(abs(eigenvalues_of(herm(np.diag([1.5, 0.5]))))) == 1.5

    def test_zero(self):
        zero = HermitianOperator(np.zeros((3, 3)))
        assert max(abs(eigenvalues_of(zero))) == 0.0

    def test_projection(self):
        assert max(abs(eigenvalues_of(pauli_op(0, 0, 1)))) == pytest.approx(
            1.0, abs=1e-15)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = herm((g + g.conj().T) / 2)
            alpha = float(rng.uniform(-3, 3))
            assert max(abs(eigenvalues_of(alpha * h))) == pytest.approx(
                abs(alpha) * max(abs(eigenvalues_of(h))), abs=1e-10)


class TestFrobeniusInner:
    def test_identity_pair(self):
        eye = herm(np.eye(2))
        assert frobenius_inner(eye, eye) == 2.0

    def test_orthogonal_paulis(self):
        assert frobenius_inner(herm(SZ), herm(SX)) == 0.0

    def test_state_with_effect(self):
        assert frobenius_inner(herm(np.diag([1.0, 0.0])), pauli_op(0, 0, 1)) == \
            pytest.approx(1.0, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            frobenius_inner(herm(np.eye(2)), herm(np.eye(3)))


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = HermitianOperator(arr)
        again = HermitianOperator(operators.matrix_from_json(m.to_json_dict()))
        assert np.array_equal(m.array, again.array)

    def test_entry_count_is_enforced(self):
        from effectkit import SchemaError
        with pytest.raises(SchemaError, match="pairs"):
            operators.matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]]})

    def test_dim_must_be_positive(self):
        from effectkit import SchemaError
        with pytest.raises(SchemaError):
            operators.matrix_from_json({"dim": 0, "entries": []})


# Numbers and entries that replace one node of a valid matrix payload.
ODD_NUMBERS = [-0.0, 0.0, 0, -3, 2**70, 2**53 + 1, -(2**63) - 1, 5e-324,
               1e308, -1e308, 10**400, -10**400, True, False, None, "1",
               np.float64(0.25), [], {}]
ODD_ENTRIES = [[1.0], [1.0, 0.0, 0.0], [], [True, 0.0], [0.0, "x"],
               [[0.0], 0.0], (0.5, 0.0), 0.5, None, "ab", {"re": 1.0}]


def _outcome(parse, arg):
    try:
        result = parse(arg)
    except Exception as exc:   # the error's type and text are compared
        return type(exc).__name__, str(exc)
    if isinstance(result, HermitianOperator):
        return result.array.tobytes(), result.herm_deviation
    return result.tobytes()


def _read_operator(obj) -> HermitianOperator:
    return HermitianOperator(operators.matrix_from_json(obj))


def test_from_json_dict_matches_the_entry_loop():
    rng = np.random.default_rng(17)
    parsed = packed = 0
    for _ in range(400):
        d = int(rng.integers(1, 5))
        arr = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        payload = json.loads(json.dumps(HermitianOperator(arr).to_json_dict()))
        entries = payload["entries"]
        for _ in range(int(rng.integers(0, 3))):
            k = int(rng.integers(len(entries)))
            pair = entries[k]
            if rng.random() < 0.6 and type(pair) is list and len(pair) == 2:
                pair[int(rng.integers(2))] = copy.deepcopy(
                    ODD_NUMBERS[rng.integers(len(ODD_NUMBERS))])
            else:
                entries[k] = copy.deepcopy(
                    ODD_ENTRIES[rng.integers(len(ODD_ENTRIES))])
        expected = _outcome(matrix_by_entry_loop, payload)
        assert _outcome(_read_operator, payload) == expected
        # bit for bit before symmetrization, which drops the sign of 0
        flat = _outcome(operators._entry_array, entries)
        assert flat == _outcome(entries_by_loop, entries)
        parsed += isinstance(flat, bytes)
        # The same file read by jsonio, which packs plain-float pairs as it
        # decodes, against the oracle on what json.loads gives.
        text = json.dumps(payload)
        decoded, plain = jsonio.loads(text), json.loads(text)
        assert _outcome(_read_operator, decoded) == \
            _outcome(matrix_by_entry_loop, plain)
        assert _outcome(operators._entry_array, decoded["entries"]) == \
            _outcome(entries_by_loop, plain["entries"])
        packed += isinstance(decoded["entries"], jsonio.PackedEntries)
    assert parsed > 100
    assert 100 < packed < 400


def test_entry_array_keeps_every_bit():
    entries = [[-0.0, 0.0], [2**70, -0.0], [0, -0.0], [-5e-324, 2**53 + 1]]
    flat = operators._entry_array(entries)
    assert flat.tobytes() == np.array(
        [complex(-0.0, 0.0), complex(2.0**70, -0.0), complex(0.0, -0.0),
         complex(-5e-324, float(2**53 + 1))]).tobytes()
    assert np.signbit(flat.real).tolist() == [True, False, False, True]
    assert np.signbit(flat.imag).tolist() == [False, True, True, False]
