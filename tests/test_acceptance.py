"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from effectkit import (
    AdditivityRelation,
    BlochVector,
    Effect,
    HermitianOperator,
    TableEntry,
    ValuationTable,
    born,
    born_functional,
    check_gpm,
    estimate_valuation,
    extend_to_positive,
    extend_to_selfadjoint,
    hermitian_coords,
    jordan_split,
    random_density,
    random_effect,
    random_frame,
    random_povm,
    random_psd,
    reconstruct_density,
    rng_from_seed,
    sample_outcomes,
    search_dispersion_free,
    verify_certificate,
    witness_2d,
)
from effectkit.nogo import build_context_set

from conftest import (brute_force_solutions, char_poly_eigs_2x2, pauli_op,
                      random_context_set)


def ic_frame(dim, rng, extra=3):
    while True:
        frame = random_frame(dim, dim * dim + extra, rng)
        design = hermitian_coords([e.op.array for e in frame])
        if np.linalg.matrix_rank(design, tol=1e-8) == dim * dim:
            return frame


def report(number, description, elapsed):
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_reconstruction_round_trip():
    rng = rng_from_seed(1001)
    start = time.perf_counter()
    dims = [2, 3, 4]
    for trial in range(200):
        dim = dims[trial % 3]
        rho = random_density(dim, rng)
        frame = ic_frame(dim, rng)
        values = [born(rho, e) for e in frame]
        recovered, _ = reconstruct_density(frame, values)
        err = np.linalg.norm(recovered.array - rho.op.array)
        assert err <= 1e-8, f"trial {trial}: error {err:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    report(1, "200 random states recovered from IC frames to 1e-8", elapsed)


def test_criterion_2_extension_property_suite():
    rng = rng_from_seed(1002)
    start = time.perf_counter()

    for _ in range(1000):  # homogeneity v(alpha E) = alpha v(E)
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, rng)
        v = born_functional(rho)
        e = random_effect(dim, rng)
        alpha = float(rng.uniform(0.0, 5.0))
        assert abs(extend_to_positive(v, alpha * e.op)
                   - alpha * born(rho, e)) <= 1e-9

    for _ in range(1000):  # additivity v(A+B) = v(A) + v(B)
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, rng)
        v = born_functional(rho)
        a, b = random_psd(dim, rng), random_psd(dim, rng)
        assert abs(extend_to_positive(v, a + b)
                   - extend_to_positive(v, a)
                   - extend_to_positive(v, b)) <= 1e-9

    for _ in range(1000):  # order preservation E <= F implies v(E) <= v(F)
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, rng)
        e = random_effect(dim, rng)
        t = float(rng.uniform())
        f = (1 - t) * e.op + t * HermitianOperator.identity(dim)
        assert born(rho, e) <= born(rho, Effect(f, "f")) + 1e-10

    for _ in range(1000):  # independence of the positive-part decomposition
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, rng)
        v = born_functional(rho)
        c = 2.0 * random_psd(dim, rng) - random_psd(dim, rng)
        reference = extend_to_selfadjoint(v, c)
        pos, neg = jordan_split(c)
        shift = random_psd(dim, rng)
        alt = (extend_to_positive(v, pos + shift)
               - extend_to_positive(v, neg + shift))
        assert abs(alt - reference) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    report(2, "homogeneity/additivity/order/split-independence, "
              "1000 trials each at 1e-9", elapsed)


def test_criterion_3_qubit_witness():
    start = time.perf_counter()
    w = witness_2d(BlochVector((0, 0, 1)), BlochVector((1, 0, 0)), 0.5)
    closed_form = (1 + np.sqrt(2) / 2) / 2
    assert abs(w.mu - closed_form) <= 1e-10
    _, top = char_poly_eigs_2x2(w.E.op.array)        # characteristic polynomial
    assert abs(w.mu - top) <= 1e-10
    solver_top = float(np.linalg.eigvalsh(w.E.op.array)[-1])  # eigensolver
    assert abs(w.mu - solver_top) <= 1e-10
    assert 0.0 < w.mu < 1.0
    elapsed = time.perf_counter() - start
    report(3, f"witness weight mu = {w.mu:.12f} matches closed form and "
              "eigensolver to 1e-10", elapsed)


def test_criterion_4_minimal_unsat_certificate():
    half = Effect(0.5 * HermitianOperator.identity(2), "H")
    eye = Effect(HermitianOperator.identity(2), "I")
    cs = build_context_set([eye, half], [["H", "H"]])
    start = time.perf_counter()
    result = search_dispersion_free(cs)
    verified = verify_certificate(result, cs)
    elapsed = time.perf_counter() - start
    assert result.status == "unsat"
    assert len(result.unsat_core) == 1
    assert verified
    assert elapsed < 1e-3
    report(4, f"half-identity context is unsat with a 1-relation core "
              f"in {elapsed * 1e6:.0f}us", elapsed)


def test_criterion_5_projective_contexts_admit_four_models():
    start = time.perf_counter()
    p = Effect(pauli_op(0, 0, 1), "P")
    pp = Effect(pauli_op(0, 0, -1), "Pp")
    q = Effect(pauli_op(1, 0, 0), "Q")
    qp = Effect(pauli_op(-1, 0, 0), "Qp")
    cs = build_context_set([p, pp, q, qp], [["P", "Pp"], ["Q", "Qp"]])
    result = search_dispersion_free(cs)
    assert result.status == "sat"
    assert result.total_solutions == 4
    assert len(result.assignments) == 4
    assert verify_certificate(result, cs)
    elapsed = time.perf_counter() - start
    report(5, "two projective qubit contexts: sat with exactly 4 assignments",
           elapsed)


def test_criterion_6_search_matches_brute_force():
    rng = rng_from_seed(1006)
    start = time.perf_counter()
    unsat_seen = sat_seen = 0
    for trial in range(50):
        cs = random_context_set(rng, max_effects=12)
        expected = brute_force_solutions(cs)  # all 2^k assignments
        result = search_dispersion_free(cs, max_solutions=8192)
        if expected:
            sat_seen += 1
            assert result.status == "sat", f"trial {trial}"
            got = {frozenset(a.items()) for a in result.assignments}
            assert got == {frozenset(s.items()) for s in expected}, f"trial {trial}"
            assert result.total_solutions == len(expected)
        else:
            unsat_seen += 1
            assert result.status == "unsat", f"trial {trial}"
        assert verify_certificate(result, cs)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    assert sat_seen and unsat_seen
    report(6, f"50 random context sets match brute force "
              f"({sat_seen} sat / {unsat_seen} unsat)", elapsed)


def test_criterion_7_statistical_tomography():
    rng = rng_from_seed(1007)
    start = time.perf_counter()
    rho = random_density(2, rng)
    povm = random_povm(2, 4, rng)
    assert np.linalg.matrix_rank(
        hermitian_coords([e.op.array for e in povm.effects]), tol=1e-8) == 4
    record = sample_outcomes(rho, povm, 1_000_000, seed=2026)
    table = estimate_valuation(record, povm)
    values = [table.value(lb) for lb in povm.labels]
    recovered, diag = reconstruct_density(list(povm.effects), values,
                                          project_psd=True)
    err = np.linalg.norm(recovered.array - rho.op.array)
    elapsed = time.perf_counter() - start
    assert err <= 0.01
    assert diag.projected
    assert elapsed <= 10.0
    report(7, f"10^6-shot tomography recovers the state to {err:.4f} "
              "(limit 0.01)", elapsed)


def test_criterion_8_axiom_soundness_and_corruption():
    rng = rng_from_seed(1008)
    start = time.perf_counter()
    for trial in range(200):
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, rng)
        outcomes = int(rng.integers(2, 6))
        povm = random_povm(dim, outcomes, rng)
        entries = [TableEntry(e, born(rho, e)) for e in povm.effects]
        povm_relation = [AdditivityRelation(povm.labels, "I")]
        relations = list(povm_relation)
        if outcomes >= 3:
            pair = (povm.labels[0], povm.labels[1])
            g = Effect(povm.effects[0].op + povm.effects[1].op, "pair_sum")
            entries.append(TableEntry(g, born(rho, g)))
            relations.append(AdditivityRelation(pair, "pair_sum"))
        table = ValuationTable(dim, entries)
        for rels in (relations, povm_relation):
            assert all(c["ok"] for c in check_gpm(table, rels)), \
                f"trial {trial}"

        # corrupt one POVM member by 0.05: the POVM relation alone, and
        # with the pair relation, must flag it
        k = int(rng.integers(outcomes))
        corrupted_entries = []
        for e in povm.effects:
            value = born(rho, e)
            if e.label == povm.labels[k]:
                value = value + 0.05 if value <= 0.5 else value - 0.05
            corrupted_entries.append(TableEntry(e, value))
        if outcomes >= 3:
            corrupted_entries.append(TableEntry(g, born(rho, g)))
        corrupted = ValuationTable(dim, corrupted_entries)
        p3 = check_gpm(corrupted, povm_relation)[-1]
        assert p3["name"] == "p3_additivity" and p3["violations"]
        assert not all(c["ok"] for c in check_gpm(corrupted, relations))
    elapsed = time.perf_counter() - start
    report(8, "Born tables pass the axiom checker on 200 instances; every "
              "0.05-corruption is flagged", elapsed)
